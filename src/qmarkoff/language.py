"""Finite specifications of biinfinite balanced sequences and their factor languages.

A balanced sequence is described by one of four spec variants (periodic,
characteristic, skew, mechanical), each a NamedTuple that checks and
normalises its fields when built.  Each variant pins down a concrete
biinfinite sequence, read through ``sequence_window`` in one pass per
variant.  A characteristic or skew sequence is a mirror: its right half
reflected about a two-letter center at positions -1 and 0
(``_mirror_window``), so its length-n factors lie in the compact
representations w̃·ab·w and w̃·ba·w of its letters w at positions 1..n-1.
A periodic or mechanical spec of slope p/q has the language of
Mechanical(p/q), the repetition of christoffel_word(p, q), read the same
way when q > n.  The class of a sequence (M1 periodic, M2 mechanical, M3
characteristic, M4 skew) is its declared variant.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import pairwise
from typing import Iterator, NamedTuple, Sequence, Union

from .morphism import is_christoffel, q_markoff, q_markoff_chain, q_markoff_ratios
from .qpoly import IntPolynomial, Scalar
from .words import christoffel_word, factors, is_balanced_periodic, parse_word, reversal


class _MechanicalFields(NamedTuple):
    alpha: Fraction
    rho: Fraction = Fraction(0)
    kind: str = "lower"


class Mechanical(_MechanicalFields):
    """Rational-slope mechanical sequence: a rotation coding with exact slope and intercept.

    The intercept is normalized into [0, 1); slopes must lie in [0, 1].
    """

    __slots__ = ()

    def __new__(cls, alpha: Fraction, rho: Fraction = Fraction(0), kind: str = "lower"):
        alpha = Fraction(alpha)
        rho = Fraction(rho)
        if not 0 <= alpha <= 1:
            raise ValueError("slope must lie in [0, 1]")
        if kind not in ("lower", "upper"):
            raise ValueError("kind must be 'lower' or 'upper'")
        return super().__new__(cls, alpha, rho - math.floor(rho), kind)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace goes through __new__


def _mechanical_window(spec: Mechanical, lo: int, hi: int) -> str:
    """Letters lo..hi-1 from the floors (lower) or ceilings (upper) of alpha*i + rho, i = lo..hi.

    alpha*i + rho is (step*i + x0)/den over the common denominator den, in integers.
    """
    a, r = spec.alpha, spec.rho
    den = a.denominator * r.denominator
    step = a.numerator * r.denominator
    x0 = r.numerator * a.denominator
    if spec.kind == "lower":
        ends = [(step * i + x0) // den for i in range(lo, hi + 1)]
    else:  # ceil(t) = -floor(-t)
        ends = [-((-step * i - x0) // den) for i in range(lo, hi + 1)]
    return "".join(["ab"[v - u] for u, v in pairwise(ends)])


@lru_cache(maxsize=64)
def _standard_prefix(directive: tuple[int, ...], length: int) -> str:
    """Up to `length` letters of the standard word; s_{k-1}^{d_k} is cut to the power covering them."""
    prev, cur = "b", "a"
    for d in directive:
        if len(cur) >= length:
            break
        prev, cur = cur, cur * min(d, length // len(cur) + 1) + prev
    return cur[:length]


def characteristic_word(directive: Sequence[int], length: int) -> str:
    """Length-`length` prefix of the standard word driven by `directive`: positions 1..length
    of its Characteristic sequence.

    The recursion starts from ("b", "a") and appends s_k = s_{k-1}^{d_k} s_{k-2};
    directive (1, 1, 1, ...) yields the Fibonacci word.  Raises ValueError on
    an empty directive or a nonpositive entry, and when the finite directive
    cannot reach the requested length (naming the first position out of reach).
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    return sequence_window(Characteristic(directive), 1, length + 1)


class _PeriodicFields(NamedTuple):
    word: str


class Periodic(_PeriodicFields):
    """Purely periodic balanced sequence: the biinfinite repetition of `word`."""

    __slots__ = ()

    def __new__(cls, word: str):
        word = parse_word(word)
        if not word:
            raise ValueError("period must be nonempty")
        if not is_balanced_periodic(word):
            raise ValueError(f"period {word!r} does not generate a balanced sequence")
        return super().__new__(cls, word)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace goes through __new__


class _CharacteristicFields(NamedTuple):
    directive: tuple[int, ...]


class Characteristic(_CharacteristicFields):
    """Balanced sequence with mirror center at the origin and characteristic right half.

    The canonical sequence reads ...p̃ a b p... with the a at position -1,
    the b at position 0, and p the standard word of the directive.
    """

    __slots__ = ()

    def __new__(cls, directive: Sequence[int]):
        directive = tuple(int(d) for d in directive)
        if not directive or any(d < 1 for d in directive):
            raise ValueError("directive must be a nonempty sequence of positive integers")
        return super().__new__(cls, directive)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace goes through __new__


SKEW_FORMS = ("xxyxx", "blocks")


class _SkewFields(NamedTuple):
    m: str = ""
    form: str = "xxyxx"
    xy: str = "ab"


class Skew(_SkewFields):
    """Ultimately periodic but not purely periodic balanced sequence.

    Form "xxyxx" is a constant x-sequence with one y (at the origin);
    form "blocks" glues left blocks ymx, one central block ymy ending at
    position -1, and right blocks xmy.  The orientation string `xy` names
    the letters (x, y), and a·m·b must be a Christoffel word, so m is a
    palindrome.  Both forms are mirrors: of x^∞ about the center x·y, and of
    (m·y·x)^∞ about the center y·x.
    """

    __slots__ = ()

    def __new__(cls, m: str = "", form: str = "xxyxx", xy: str = "ab"):
        m = parse_word(m)
        if form not in SKEW_FORMS:
            raise ValueError(f"form must be one of {SKEW_FORMS}")
        if xy not in ("ab", "ba"):
            raise ValueError("xy must be 'ab' or 'ba'")
        if not is_christoffel("a" + m + "b"):
            raise ValueError(f"'a{m}b' is not a Christoffel word")
        return super().__new__(cls, m, form, xy)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace goes through __new__


BalancedSpec = Union[Periodic, Characteristic, Skew, Mechanical]


def _slope(spec: Periodic | Mechanical) -> Fraction:
    """The slope p/q of a periodic or mechanical spec: alpha, or the b-density of the period."""
    return spec.alpha if isinstance(spec, Mechanical) else Fraction(spec.word.count("b"), len(spec.word))


def _enclosing_skew(slope: Fraction) -> Skew:
    """The skew spec of slope p/q whose language holds that of Mechanical(p/q) at every length:
    Skew(c[1:-1], "blocks") with c = christoffel_word(p, q) when q >= 2, and a^∞ or b^∞ with one
    letter changed when q = 1.
    """
    p, q = slope.as_integer_ratio()
    if q == 1:
        return Skew("", "xxyxx", "ba" if p else "ab")
    return Skew(christoffel_word(p, q)[1:-1], "blocks")


def letter_at(spec: BalancedSpec, pos: int) -> str:
    """Letter of the spec's canonical biinfinite sequence at position `pos`."""
    return sequence_window(spec, pos, pos + 1)


def sequence_window(spec: BalancedSpec, lo: int, hi: int) -> str:
    """Letters at positions lo..hi-1 of the spec's canonical sequence, built in one pass."""
    if isinstance(spec, Periodic):
        return _cyclic_slice(spec.word, lo, hi)
    if isinstance(spec, Characteristic):
        return _characteristic_window(spec, lo, hi)
    if isinstance(spec, Mechanical):
        return _mechanical_window(spec, lo, hi)
    if isinstance(spec, Skew):
        return _skew_window(spec, lo, hi)
    raise TypeError(f"not a balanced spec: {spec!r}")


def _cyclic_slice(block: str, lo: int, hi: int) -> str:
    """block[i % len(block)] for i = lo..hi-1."""
    start = lo % len(block)
    return (block * ((start + hi - lo) // len(block) + 1))[start : start + hi - lo]


def _mirror_window(center: str, right, lo: int, hi: int) -> str:
    """Letters lo..hi-1 of reversal(r)·center·r: the center at positions -1 and 0, r[i] at i + 1 and -i - 2.

    right(i, j) returns r[i:j] (empty when j <= i), so a window costs what its slices of r cost.
    """
    left = right(max(-hi - 1, 0), max(-lo - 1, 0))[::-1]  # positions < -1
    return left + center[max(lo + 1, 0) : max(min(hi + 1, 2), 0)] + right(max(lo, 1) - 1, max(hi - 1, 0))


def _characteristic_window(spec: Characteristic, lo: int, hi: int) -> str:
    """Letters lo..hi-1 of p̃·ab·p, the b at position 0 and p the standard word (see Characteristic)."""
    if hi <= lo:
        return ""
    last = max(-lo - 2, hi - 2)  # the largest index of p read
    # cached by the next power of two: O(last) letters, one lookup per window
    p = _standard_prefix(spec.directive, 1 << last.bit_length()) if last >= 0 else ""
    if last >= len(p):  # name the first position out of reach
        pos = lo if -lo - 2 >= len(p) else max(lo, len(p) + 1)
        raise ValueError(f"directive too short for position {pos}")
    return _mirror_window("ab", lambda i, j: p[i:j], lo, hi)


def _skew_window(spec: Skew, lo: int, hi: int) -> str:
    """Letters lo..hi-1 of a skew spec: the mirror of x^∞ or of (m·y·x)^∞ (see Skew)."""
    x, y = spec.xy
    if spec.form == "xxyxx":
        return _mirror_window(x + y, lambda i, j: x * (j - i), lo, hi)
    block = spec.m + y + x
    return _mirror_window(y + x, lambda i, j: _cyclic_slice(block, i, j), lo, hi)


def compact_representations(prefix: str) -> tuple[str, str]:
    """The two length-2(|w|+1) words w̃·ab·w and w̃·ba·w holding all factors.

    For a balanced sequence with mirror center and right half starting with
    w, both words contain every factor of length |w|+1.
    """
    rp = reversal(prefix)
    return (rp + "ab" + prefix, rp + "ba" + prefix)


class _FactorLanguageFields(NamedTuple):
    n: int
    factors: tuple[str, ...]


class FactorLanguage(_FactorLanguageFields):
    """The lex-sorted set of length-n factors of a balanced sequence; its len is the factor count."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.factors)

    _make = classmethod(lambda cls, fields: cls(*fields))  # the inherited one checks len(), the factor count


def enumerate_factors(spec: BalancedSpec, n: int) -> FactorLanguage:
    """All length-n factors of the spec's sequence, lex-sorted.

    A periodic or mechanical spec of slope p/q (the b-density of the period,
    or alpha) has the factors of Mechanical(p/q), the repetition of
    christoffel_word(p, q): read off its q + n - 1 letters from position 0
    when q <= n.  Every other spec, and Mechanical(p/q) when q > n, is read
    off the two compact representations of its letters at positions 1..n-1,
    whose factor sets are checked to agree.
    """
    if n < 0:
        raise ValueError("factor length must be >= 0")
    if n == 0:
        return FactorLanguage(0, ("",))
    if isinstance(spec, (Periodic, Mechanical)):
        slope = _slope(spec)
        spec = Mechanical(slope)
        if slope.denominator <= n:
            return FactorLanguage(n, tuple(factors(sequence_window(spec, 0, slope.denominator + n - 1), n)))
    first, second = compact_representations(sequence_window(spec, 1, n))
    fs = factors(first, n)
    if fs != factors(second, n):
        raise AssertionError(f"compact representations disagree at n={n}")
    return FactorLanguage(n, tuple(fs))


LAST_LETTER = "last_letter"
FLIP_AB_BA = "flip_ab_ba"
WRAP_AWA = "wrap_awa"
WRAP_AWB = "wrap_awb"


class Change(NamedTuple):
    """A local change between radix-consecutive factors."""

    src: str
    dst: str
    kind: str


def _change(u: str, v: str) -> tuple[str, int]:
    """classify_change(u, v) with the first index where u and v differ."""
    n = len(u)
    if len(v) == n and u.isascii() and v.isascii():  # x holds u[k] ^ v[k] in byte n-1-k; a ^ b is 3
        x = int.from_bytes(u.encode(), "big") ^ int.from_bytes(v.encode(), "big")
        i = n - 1 - (x.bit_length() - 1) // 8  # the first letter where u and v differ
        if i == n - 1 and u[i:] == "a" and x == 3:
            return LAST_LETTER, i
        if u.startswith("ab", i) and x == 0x303 << 8 * (n - 2 - i):
            return FLIP_AB_BA, i
    elif len(v) == n + 1 and u[:1] == "b" and v[0] == "a" and v[1:-1] == u[1:]:
        return (WRAP_AWA if v[-1] == "a" else WRAP_AWB), 0
    raise ValueError(f"{u!r} -> {v!r} is not a balanced-language local change")


def classify_change(u: str, v: str) -> str:
    """Name the local change from factor u to the radix-next factor v.

    Within a length the change is either the final-letter switch w̃a -> w̃b
    or a single ab -> ba flip; across a length boundary it rewraps
    b·w -> a·w·a or b·w -> a·w·b.  Anything else raises ValueError.  The one
    pair classifier: flip_permutation tags with it, _certified builds on it.
    """
    return _change(u, v)[0]


def _certified(u: str, v: str) -> bool:
    """Whether q_markoff(v) - q_markoff(u) is nonzero and nonnegative by an identity of the lemma
    suite, decided on the words: for "" -> a, a last-letter change w·a -> w·b (q·mu_q(w)[1,1]), a
    wrap b·w -> a·w·a or a·w·b (combo2 of w, then a last-letter change), and a flip x·ab·y -> x·ba·y
    with reversal(x) and y prefix-comparable ((q + q^4)·q^det_exponent times a diagonal entry of mu_q).
    """
    if not u:
        return v == "a"
    try:
        kind, i = _change(u, v)
    except ValueError:
        return False
    x, y = u[:i][::-1], u[i + 2 :]
    return kind != FLIP_AB_BA or x.startswith(y) or y.startswith(x)


class ComplexityViolation(ValueError):
    """A spec whose factor count at some length n is not n+1."""


def flip_permutation(spec: BalancedSpec, n: int) -> list[Change]:
    """Tag the consecutive pairs of the lex-sorted length-n factors.

    Requires the spec to have complexity n+1 at this length (n+1 factors),
    else raises ComplexityViolation.  Exactly one pair is a final-letter
    change; every other pair is an ab -> ba flip.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    fs = enumerate_factors(spec, n).factors
    if len(fs) != n + 1:
        raise ComplexityViolation(f"complexity violation: {len(fs)} factors of length {n}, expected {n + 1}")
    return [Change(u, v, classify_change(u, v)) for u, v in zip(fs, fs[1:])]


def _radix_words(spec: BalancedSpec, max_n: int) -> list[str]:
    """All factors of lengths 0..max_n in radix order, the empty word first."""
    return [""] + [w for n in range(1, max_n + 1) for w in enumerate_factors(spec, n).factors]


class MonotonicityError(Exception):
    """A radix-consecutive pair whose q-Markoff difference is not positive."""

    def __init__(self, src: str, dst: str, difference: IntPolynomial):
        self.src = src
        self.dst = dst
        self.difference = difference
        super().__init__(
            f"difference for {src!r} -> {dst!r} is not a nonzero nonnegative polynomial: {difference}"
        )


class _RadixChainReportFields(NamedTuple):
    chain: tuple[str, ...]


class RadixChainReport(_RadixChainReportFields):
    """The radix-sorted factor chain of a checked language.

    Its consecutive q-Markoff differences are computed on first access and
    kept in the instance __dict__, which is why this record has no __slots__.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @cached_property
    def differences(self) -> tuple[IntPolynomial, ...]:
        """q_markoff(v) - q_markoff(u) for each consecutive pair (u, v) of the chain."""
        return tuple(g - f for f, g in pairwise(q_markoff_chain(self.chain)))


def _cover(spec: BalancedSpec, max_n: int) -> dict[str, int]:
    """Each word of the radix chain of the enclosing skew language of a periodic or mechanical spec,
    to its index there, when every pair of that chain is _certified; empty otherwise.

    Such a chain is ordered, so u precedes v whenever both are in it and u comes first.
    """
    if not isinstance(spec, (Periodic, Mechanical)):
        return {}
    chain = _radix_words(_enclosing_skew(_slope(spec)), max_n)
    if not all(map(_certified, chain, chain[1:])):
        return {}
    return {w: i for i, w in enumerate(chain)}


def radix_chain_check(spec: BalancedSpec, max_n: int) -> RadixChainReport:
    """Certify monotonicity of w -> q_markoff(w) on the spec's language up to max_n.

    Builds the radix-sorted chain of all factors of lengths 0..max_n
    (the empty word is the radix minimum) and checks that every
    consecutive difference is a nonzero polynomial with nonnegative
    coefficients; by transitivity this covers every radix-ordered pair.
    Each pair (u, v) is decided in turn: ordered when _certified accepts it;
    else ordered when u comes before v in the _cover of a periodic or
    mechanical spec (its non-local pairs, slope p/q with q <= max_n), by
    transitivity; else by its own q-Markoff difference.
    Raises MonotonicityError on the first offending pair, with its exact
    difference.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    chain = _radix_words(spec, max_n)
    cover = None  # built on the first pair that is not _certified
    for u, v in pairwise(chain):
        if _certified(u, v):
            continue
        if cover is None:
            cover = _cover(spec, max_n)
        if u in cover and v in cover and cover[u] < cover[v]:
            continue
        difference = q_markoff(v) - q_markoff(u)
        if not difference.is_nonneg_nonzero():
            raise MonotonicityError(u, v, difference)
    return RadixChainReport(tuple(chain))


def curve_ratios(
    spec: BalancedSpec, max_len: int, gammas: Sequence[Scalar]
) -> Iterator[tuple[str, list[tuple[int, int]]]]:
    """Rows (word, [(y, s) per gamma]) for |word| <= max_len, with q_markoff(word) = y / s at gamma.

    Words run in radix order (empty word first), one row each; y and s are
    ints from one row step per word at q = gamma (q_markoff_ratios), with no
    polynomial, and y / s is the correctly rounded float of the value.  For
    every fixed gamma > 0 the values are strictly increasing along the radix
    order.  Raises ValueError on any gamma <= 0, before any word.
    """
    for g in gammas:
        if g <= 0:
            raise ValueError(f"positivity domain: gamma must be > 0, got {g}")
    return q_markoff_ratios(_radix_words(spec, max_len), gammas)


def curves_export(spec: BalancedSpec, max_len: int, gammas: Sequence[Scalar]) -> list[tuple[str, Scalar, Scalar]]:
    """The values of curve_ratios as (word, gamma, exact value), each word with every gamma in
    turn: an int gamma gives an int, a Fraction or float gamma gives a Fraction."""
    rows = curve_ratios(spec, max_len, gammas)
    return [(w, g, y if isinstance(g, int) else Fraction(y, s))
            for w, values in rows for g, (y, s) in zip(gammas, values)]
