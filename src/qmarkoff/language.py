"""Specs of biinfinite balanced sequences and their factor languages, as lex-sorted tuples of words.

A balanced sequence is described by one of four spec variants (periodic,
characteristic, skew, mechanical), each a NamedTuple that checks and
normalises its fields when built; its class (M1 periodic, M2 mechanical, M3
characteristic, M4 skew) is its declared variant.  At each length n, every
spec has the language of one rational rotation, christoffel_word(p, q)^∞ for
the first Stern–Brocot node p/q with q > n on the path of its slope's partial
quotients, or the path's end (Lothaire, Algebraic Combinatorics on Words,
ch. 2), so enumerate_factors and radix_chain_check read no letter of a spec:
a directive's reach is that of its convergents, and a mechanical spec is its
slope.  Only the mirror specs, characteristic and skew (a right half
reflected about a two-letter center at positions -1 and 0), are read letter
by letter, through sequence_window, for their asymptotic pairs: a
characteristic window is cut from christoffel_word at a node of its
directive's path.  Nothing here is memoized, and radix_chain_check holds
one length of the one chain it walks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice, pairwise
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .morphism import is_christoffel, q_markoff, q_markoff_ratios
from .qpoly import IntPolynomial, Scalar
from .words import christoffel_word, excerpt, is_balanced_periodic, parse_word


class _MechanicalFields(NamedTuple):
    alpha: Fraction


class Mechanical(_MechanicalFields):
    """Rational-slope mechanical sequence, given by its slope p/q in [0, 1] alone: every mechanical word of
    slope p/q, whatever its intercept and rounding, has the language of the rotation christoffel_word(p, q)^∞
    (Lothaire, Algebraic Combinatorics on Words, ch. 2), so none of its own letters is read."""

    __slots__ = ()

    def __new__(cls, alpha: Fraction):
        alpha = Fraction(alpha)
        if not 0 <= alpha <= 1:
            raise ValueError("slope must lie in [0, 1]")
        return super().__new__(cls, alpha)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace goes through __new__


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
            raise ValueError(f"period {excerpt(word)} does not generate a balanced sequence")
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
            raise ValueError(f"{excerpt('a' + m + 'b')} is not a Christoffel word")
        return super().__new__(cls, m, form, xy)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace goes through __new__


BalancedSpec = Union[Periodic, Characteristic, Skew, Mechanical]


def sequence_window(spec: Characteristic | Skew, lo: int, hi: int) -> str:
    """Letters lo..hi-1 of a mirror spec's sequence reversal(r)·center·r, the center at -1 and 0 and r = block^∞.

    A window costs its width: r is sliced from block.  A skew (center, block) is (x·y, x) or (y·x, m·y·x); a
    characteristic one is (ab, w·b·a), for a·w·b = christoffel_word at the first node past max(-lo, hi) on
    _directive_path, w a prefix of the standard word longer than any index read.
    """
    if isinstance(spec, Characteristic):
        if hi <= lo:
            return ""
        c = christoffel_word(*_node(_directive_path(spec.directive, lo, hi), max(-lo, hi)))
        center, block = "ab", c[1:] + c[0]
    elif isinstance(spec, Skew):
        x, y = spec.xy
        center, block = (x + y, x) if spec.form == "xxyxx" else (y + x, spec.m + y + x)
    else:
        raise TypeError(f"not a mirror spec: {spec!r}")

    def right(i: int, j: int) -> str:  # r[i:j], empty when j <= i
        start = i % len(block)
        return (block * ((start + j - i) // len(block) + 1))[start : start + j - i]

    left = right(max(-hi - 1, 0), max(-lo - 1, 0))[::-1]  # positions < -1
    return left + center[max(lo + 1, 0) : max(min(hi + 1, 2), 0)] + right(max(lo, 1) - 1, max(hi - 1, 0))


def _directive_path(directive: tuple[int, ...], lo: int, hi: int) -> Iterator[int]:
    """The quotients d1+1, d2, ..., dk, last+3 of a directive, lazily, once its standard word, of q_k letters for
    the last convergent p_k/q_k of [0; d1+1, d2, ..., dk], reaches the largest index last = max(-lo-2, hi-2) that
    the window lo..hi-1 reads; else the error names lo if the left side is out of reach, or max(lo, q_k + 1)."""
    last = max(-lo - 2, hi - 2)
    q = _node(chain((directive[0] + 1,), islice(directive, 1, None)), max(last, 0))[1]  # past last, or q_k
    if q <= last:
        raise ValueError(f"directive too short for position {lo if -lo - 2 >= q else max(lo, q + 1)}")
    return chain((directive[0] + 1,), islice(directive, 1, None), (last + 3,))


def _path(spec: BalancedSpec, n: int) -> list[int]:
    """Partial quotients [a1, a2, ...] of a slope [0; a1, a2, ...] whose rotation has the spec's length-n factors.

    A periodic or mechanical spec is its slope p/q, expanded by Euclid (1 as [0; 1]).  A characteristic
    directive d continues with n + 1, [0; d1+1, d2, ..., n+1], once its standard word, of q_k letters for
    the last convergent p_k/q_k of [0; d1+1, d2, ..., dk], reaches position n - 1: the _directive_path of
    its window 1..n-1.  A skew spec takes one more quotient, n + 2, past the slope of x^∞ or of (a·m·b)^∞,
    after whichever of its two expansions puts the rotation on the side of y: above for xy = ab.
    """
    if isinstance(spec, Characteristic):
        return list(_directive_path(spec.directive, 1, n))
    if isinstance(spec, Periodic):
        slope = Fraction(spec.word.count("b"), len(spec.word))
    elif isinstance(spec, Mechanical):
        slope = spec.alpha
    elif isinstance(spec, Skew):
        slope = Fraction(spec.m.count("b") + 1, len(spec.m) + 2) if spec.form == "blocks" else Fraction(spec.xy == "ba")
    else:
        raise TypeError(f"not a balanced spec: {spec!r}")
    p, q = slope.as_integer_ratio()
    path = []
    while p:
        path.append(q // p)
        p, q = q % p, p
    if not isinstance(spec, Skew):
        return path
    return path + [n + 2] if len(path) % 2 == (spec.xy == "ba") else path[:-1] + [path[-1] - 1, 1, n + 2]


def _node(path: Iterable[int], n: int) -> tuple[int, int]:
    """(p, q) of the first Stern–Brocot node p/q on the path [0; a1, a2, ...] with q > n, or of its end.

    The nodes of [0; a1, ..., ak] are [0; a1, ..., a(i-1), j] for j = 1..ai, so the first past n >= 1 has q <= 2n.
    """
    (p0, q0), (p, q) = (1, 0), (0, 1)  # the convergents before the next quotient
    for a in path:
        j = (n - q0) // q + 1  # the least j with j·q + q0 > n
        if j <= a:
            return j * p + p0, j * q + q0
        (p0, q0), (p, q) = (p, q), (a * p + p0, a * q + q0)
    return p, q


def enumerate_factors(spec: BalancedSpec, n: int) -> tuple[str, ...]:
    """All length-n factors of the spec's sequence, lex-sorted; its len is the factor count.

    Every spec's length-n factors are those of one rotation: christoffel_word(p, q)^∞ for the node p/q
    of _node on its _path.  They are its windows at the starts -k mod q, k = 0..min(n, q - 1); the
    window at start s codes the point s·p mod q, and the coding keeps the order of the points.
    """
    if n < 0:
        raise ValueError("factor length must be >= 0")
    p, q = _node(_path(spec, n), n)
    text = christoffel_word(p, q) * (n // q + 2)
    starts = sorted((-k % q for k in range(min(n, q - 1) + 1)), key=lambda s: s * p % q)
    return tuple(text[s : s + n] for s in starts)


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
    fs = enumerate_factors(spec, n)
    if len(fs) != n + 1:
        raise ComplexityViolation(f"complexity violation: {len(fs)} factors of length {n}, expected {n + 1}")
    return [Change(u, v, classify_change(u, v)) for u, v in zip(fs, fs[1:])]


def _radix_words(spec: BalancedSpec, max_n: int) -> Iterator[str]:
    """All factors of lengths 0..max_n in radix order, the empty word first, one length at a time."""
    for n in range(max_n + 1):
        yield from enumerate_factors(spec, n)


class MonotonicityError(Exception):
    """A radix-consecutive pair whose q-Markoff difference is not positive."""

    def __init__(self, src: str, dst: str, difference: IntPolynomial):
        self.src = src
        self.dst = dst
        self.difference = difference
        super().__init__(
            f"difference for {src!r} -> {dst!r} is not a nonzero nonnegative polynomial: {difference}"
        )


def radix_chain_check(spec: BalancedSpec, max_n: int) -> int:
    """Certify monotonicity of w -> q_markoff(w) on the spec's language up to max_n; return the
    number of words checked.

    Walks one radix-sorted chain of lengths 0..max_n, one length at a time (the empty word first): that
    of the rotation at the node one quotient, max_n + 2, past max_n on the spec's _path, whose
    denominator exceeds max_n.  At every length up to max_n its language is the spec's, or, for a
    periodic or mechanical spec of slope p/q with q <= max_n, whose own chain has non-local pairs that
    _certified refuses, a skew language that holds the spec's.  The members are the spec's words: all
    below length q, and the factors of christoffel_word(p, q)^∞ from length q on.  Consecutive members
    are ordered when every chain pair between them is _certified, else by their own q-Markoff
    difference, which must be nonzero with nonnegative coefficients; by transitivity every
    radix-ordered pair is covered.  The first that is not raises MonotonicityError with its exact
    difference.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    path = _path(spec, max_n)
    p, q = _node(path, max_n)  # q <= max_n only at the end of a periodic or mechanical slope's path
    walked = Mechanical(Fraction(*_node([*path, max_n + 2], max_n)))
    text = christoffel_word(p, q) * (max_n // q + 2)  # read only when q <= max_n, from length q on
    words = 1  # the empty word
    last, ordered = "", True  # the last member, and whether every chain pair since it is _certified
    for u, v in pairwise(_radix_words(walked, max_n)):
        if not _certified(u, v):
            ordered = False
        if len(v) >= q and text.find(v, 0, len(v) + q - 1) < 0:  # a member starts at one of 0..q-1
            continue
        words += 1
        if not ordered:
            difference = q_markoff(v) - q_markoff(last)
            if not difference.is_nonneg_nonzero():
                raise MonotonicityError(last, v, difference)
            ordered = True
        last = v
    return words


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
