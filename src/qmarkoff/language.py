"""Finite specifications of biinfinite balanced sequences and their factor languages.

A balanced sequence is described by one of four spec variants (periodic,
characteristic, skew, mechanical).  Each variant pins down a concrete
biinfinite sequence, exposed through ``letter_at``; canonical placements
put the mirror-symmetric center, when the variant has one, at the origin
(between positions -1 and 0).  Factor languages, the per-length flip
structure, the cross-length radix chain of q-Markoff polynomials, and the
four-class classification all work on exactly generated finite windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import pairwise
from typing import Sequence, Union

from .morphism import first_unordered, is_christoffel, q_markoff, q_markoff_chain
from .qpoly import IntPolynomial, Scalar
from .words import cyclic_factors, factors, is_balanced_periodic, parse_word, reversal


@dataclass(frozen=True)
class MechanicalSpec:
    """Rotation coding with exact rational slope and intercept.

    The intercept is normalized into [0, 1); slopes must lie in [0, 1].
    """

    alpha: Fraction
    rho: Fraction = Fraction(0)
    kind: str = "lower"

    def __post_init__(self):
        alpha = Fraction(self.alpha)
        rho = Fraction(self.rho)
        if not 0 <= alpha <= 1:
            raise ValueError("slope must lie in [0, 1]")
        if self.kind not in ("lower", "upper"):
            raise ValueError("kind must be 'lower' or 'upper'")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "rho", rho - math.floor(rho))


def mechanical_letter(spec: MechanicalSpec, pos: int) -> str:
    """Letter at `pos`: difference of consecutive floors (lower) or ceilings (upper).

    alpha*pos + rho is x/den over the common denominator den, in integers.
    """
    a, r = spec.alpha, spec.rho
    den = a.denominator * r.denominator
    step = a.numerator * r.denominator
    x = step * pos + r.numerator * a.denominator
    if spec.kind == "lower":
        bit = (x + step) // den - x // den
    else:  # ceil(t) = -floor(-t)
        bit = (-x) // den - (-x - step) // den
    return "ab"[bit]


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
    """Length-`length` prefix of the standard word driven by `directive`.

    The recursion starts from ("b", "a") and appends s_k = s_{k-1}^{d_k} s_{k-2};
    directive (1, 1, 1, ...) yields the Fibonacci word.  Raises ValueError
    when the finite directive cannot reach the requested length.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    if any(d < 1 for d in directive):
        raise ValueError("directive entries must be positive")
    word = _standard_prefix(tuple(directive), length)
    if len(word) < length:
        raise ValueError(
            f"directive {tuple(directive)} generates only {len(word)} letters, {length} requested"
        )
    return word


@dataclass(frozen=True)
class Periodic:
    """Purely periodic balanced sequence: the biinfinite repetition of `word`."""

    word: str

    def __post_init__(self):
        word = parse_word(self.word)
        if not word:
            raise ValueError("period must be nonempty")
        if not is_balanced_periodic(word):
            raise ValueError(f"period {word!r} does not generate a balanced sequence")
        object.__setattr__(self, "word", word)


@dataclass(frozen=True)
class Characteristic:
    """Balanced sequence with mirror center at the origin and characteristic right half.

    The canonical sequence reads ...p̃ a b p... with the a at position -1,
    the b at position 0, and p the standard word of the directive.
    """

    directive: tuple[int, ...]

    def __post_init__(self):
        directive = tuple(int(d) for d in self.directive)
        if not directive or any(d < 1 for d in directive):
            raise ValueError("directive must be a nonempty sequence of positive integers")
        object.__setattr__(self, "directive", directive)


SKEW_FORMS = ("xxyxx", "blocks")


@dataclass(frozen=True)
class Skew:
    """Ultimately periodic but not purely periodic balanced sequence.

    Form "xxyxx" is a constant x-sequence with one y (at the origin);
    form "blocks" glues left blocks ymx, one central block ymy ending at
    position -1, and right blocks xmy.  The orientation string `xy` names
    the letters (x, y), and a·m·b must be a Christoffel word.
    """

    m: str = ""
    form: str = "xxyxx"
    xy: str = "ab"

    def __post_init__(self):
        m = parse_word(self.m)
        if self.form not in SKEW_FORMS:
            raise ValueError(f"form must be one of {SKEW_FORMS}")
        if self.xy not in ("ab", "ba"):
            raise ValueError("xy must be 'ab' or 'ba'")
        if not is_christoffel("a" + m + "b"):
            raise ValueError(f"'a{m}b' is not a Christoffel word")
        object.__setattr__(self, "m", m)


@dataclass(frozen=True)
class Mechanical:
    """Rational-slope mechanical sequence (periodic rotation coding)."""

    spec: MechanicalSpec


BalancedSpec = Union[Periodic, Characteristic, Skew, Mechanical]


def letter_at(spec: BalancedSpec, pos: int) -> str:
    """Letter of the spec's canonical biinfinite sequence at position `pos`."""
    if isinstance(spec, Periodic):
        return spec.word[pos % len(spec.word)]
    if isinstance(spec, Characteristic):
        if pos == -1:
            return "a"
        if pos == 0:
            return "b"
        idx = pos - 1 if pos > 0 else -pos - 2
        # cached by the next power of two: O(idx) letters, one lookup per call
        p = _standard_prefix(spec.directive, 1 << idx.bit_length())
        if idx >= len(p):
            raise ValueError(f"directive too short for position {pos}")
        return p[idx]
    if isinstance(spec, Skew):
        x, y = spec.xy
        if spec.form == "xxyxx":
            return y if pos == 0 else x
        block_len = len(spec.m) + 2
        if pos >= 0:
            return (x + spec.m + y)[pos % block_len]
        if pos >= -block_len:
            return (y + spec.m + y)[pos + block_len]
        return (y + spec.m + x)[(pos + block_len) % block_len]
    if isinstance(spec, Mechanical):
        return mechanical_letter(spec.spec, pos)
    raise TypeError(f"not a balanced spec: {spec!r}")


def sequence_window(spec: BalancedSpec, lo: int, hi: int) -> str:
    """Letters at positions lo..hi-1 of the spec's canonical sequence."""
    return "".join(letter_at(spec, i) for i in range(lo, hi))


def _period_hint(spec: BalancedSpec) -> int:
    if isinstance(spec, Periodic):
        return len(spec.word)
    if isinstance(spec, Skew):
        return len(spec.m) + 2
    if isinstance(spec, Mechanical):
        return max(spec.spec.alpha.denominator, 1)
    return 1


def compact_representations(prefix: str) -> tuple[str, str]:
    """The two length-2(|w|+1) words w̃·ab·w and w̃·ba·w holding all factors.

    For a balanced sequence with mirror center and right half starting with
    w, both words contain every factor of length |w|+1.
    """
    rp = reversal(prefix)
    return (rp + "ab" + prefix, rp + "ba" + prefix)


@dataclass(frozen=True)
class FactorLanguage:
    """The lex-sorted set of length-n factors of a balanced sequence."""

    n: int
    factors: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.factors)


def enumerate_factors(spec: BalancedSpec, n: int) -> FactorLanguage:
    """All length-n factors of the spec's sequence, lex-sorted.

    Characteristic specs go through the two compact representations (whose
    factor sets are checked to agree); periodic specs through one cyclic
    period; skew and mechanical specs through a centered window of radius
    2n + period.
    """
    if n < 0:
        raise ValueError("factor length must be >= 0")
    if n == 0:
        return FactorLanguage(0, ("",))
    if isinstance(spec, Characteristic):
        first, second = compact_representations(characteristic_word(spec.directive, n - 1))
        fs = factors(first, n)
        if fs != factors(second, n):
            raise AssertionError(f"compact representations disagree at n={n}")
    elif isinstance(spec, Periodic):
        fs = cyclic_factors(spec.word, n)
    else:
        radius = 2 * n + _period_hint(spec)
        fs = factors(sequence_window(spec, -radius, radius), n)
    return FactorLanguage(n, tuple(fs))


LAST_LETTER = "last_letter"
FLIP_AB_BA = "flip_ab_ba"
WRAP_AWA = "wrap_awa"
WRAP_AWB = "wrap_awb"


@dataclass(frozen=True)
class Change:
    """A local change between radix-consecutive factors."""

    src: str
    dst: str
    kind: str


def classify_change(u: str, v: str) -> str:
    """Name the local change from factor u to the radix-next factor v.

    Within a length the change is either the final-letter switch w̃a -> w̃b
    or a single ab -> ba flip; across a length boundary it rewraps
    b·w -> a·w·a or b·w -> a·w·b.  Anything else raises ValueError.
    """
    if len(u) == len(v):
        diff = [i for i in range(len(u)) if u[i] != v[i]]
        if diff == [len(u) - 1] and u[-1] == "a" and v[-1] == "b":
            return LAST_LETTER
        if (
            len(diff) == 2
            and diff[1] == diff[0] + 1
            and u[diff[0] : diff[0] + 2] == "ab"
            and v[diff[0] : diff[0] + 2] == "ba"
        ):
            return FLIP_AB_BA
    elif len(v) == len(u) + 1 and u:
        if u[0] == "b" and v[0] == "a" and v[1:-1] == u[1:]:
            return WRAP_AWA if v[-1] == "a" else WRAP_AWB
    raise ValueError(f"{u!r} -> {v!r} is not a balanced-language local change")


def flip_permutation(spec: BalancedSpec, n: int) -> list[Change]:
    """Tag the consecutive pairs of the lex-sorted length-n factors.

    Requires the spec to have complexity n+1 at this length (n+1 factors),
    else raises ValueError("complexity violation").  Exactly one pair is a
    final-letter change; every other pair is an ab -> ba flip.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    fs = enumerate_factors(spec, n).factors
    if len(fs) != n + 1:
        raise ValueError(f"complexity violation: {len(fs)} factors of length {n}, expected {n + 1}")
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


@dataclass(frozen=True)
class RadixChainReport:
    """The radix-sorted factor chain of a checked language.

    Its consecutive q-Markoff differences are computed on first access.
    """

    chain: tuple[str, ...]

    @cached_property
    def differences(self) -> tuple[IntPolynomial, ...]:
        """q_markoff(v) - q_markoff(u) for each consecutive pair (u, v) of the chain."""
        return tuple(g - f for f, g in pairwise(q_markoff_chain(self.chain)))


def radix_chain_check(spec: BalancedSpec, max_n: int) -> RadixChainReport:
    """Certify monotonicity of w -> q_markoff(w) on the spec's language up to max_n.

    Builds the radix-sorted chain of all factors of lengths 0..max_n
    (the empty word is the radix minimum) and checks that every
    consecutive difference is a nonzero polynomial with nonnegative
    coefficients; by transitivity this covers every radix-ordered pair.
    The check is morphism.first_unordered, one matrix-row step per word.
    Raises MonotonicityError on the first offending pair, with its exact
    difference.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    chain = _radix_words(spec, max_n)
    i = first_unordered(chain)
    if i is not None:
        u, v = chain[i], chain[i + 1]
        raise MonotonicityError(u, v, q_markoff(v) - q_markoff(u))
    return RadixChainReport(tuple(chain))


def central_factorizations(spec: BalancedSpec, radius: int = 64) -> list[int]:
    """Positions n0 where the sequence reads p̃·x·y·p around (n0-1, n0).

    The mirror condition is verified for radius positions on each side;
    candidates are searched within |n0| <= radius // 2.
    """
    hits = []
    for n0 in range(-(radius // 2), radius // 2 + 1):
        if letter_at(spec, n0 - 1) == letter_at(spec, n0):
            continue
        if all(letter_at(spec, n0 + k) == letter_at(spec, n0 - 1 - k) for k in range(1, radius + 1)):
            hits.append(n0)
    return hits


def classify(spec: BalancedSpec, radius: int = 64) -> str:
    """Classify the sequence as M1 (periodic), M2 (generic), M3 (characteristic) or M4 (skew).

    The class follows the declared variant; a window-level consistency
    assertion (the count of mirror-symmetric central factorizations within
    `radius`) guards against mislabeled specs and raises ValueError
    ("spec/class mismatch") when it fails.  Finite windows cannot decide
    M2 vs M3 for arbitrary sequences; only declared specs are accepted.
    """
    hits = central_factorizations(spec, radius)
    if isinstance(spec, Periodic):
        if hits:
            raise ValueError(f"spec/class mismatch: periodic spec has central factorization at {hits}")
        return "M1"
    if isinstance(spec, Mechanical):
        if hits:
            raise ValueError(f"spec/class mismatch: mechanical spec has central factorization at {hits}")
        return "M2"
    if isinstance(spec, Characteristic):
        if hits != [0]:
            raise ValueError(f"spec/class mismatch: characteristic spec factorizations {hits} != [0]")
        return "M3"
    if isinstance(spec, Skew):
        if len(hits) < 2:
            raise ValueError(f"spec/class mismatch: skew spec has {len(hits)} factorizations, needs >= 2")
        return "M4"
    raise TypeError(f"not a balanced spec: {spec!r}")


def curves_export(
    spec: BalancedSpec, max_len: int, gammas: Sequence[Scalar]
) -> list[tuple[str, Scalar, Scalar]]:
    """Rows (word, gamma, q_markoff(word) evaluated at gamma) for |word| <= max_len.

    Words run in radix order (empty word first); evaluation is exact for
    int or Fraction gammas.  For every fixed gamma > 0 the values are
    strictly increasing along the radix order.  Raises ValueError on any
    gamma <= 0.
    """
    for g in gammas:
        if g <= 0:
            raise ValueError(f"positivity domain: gamma must be > 0, got {g}")
    chain = _radix_words(spec, max_len)
    rows = []
    for w, p in zip(chain, q_markoff_chain(chain)):
        rows.extend((w, g, p.evaluate(g)) for g in gammas)
    return rows
