"""Slow reference implementations that the library's closed forms are tested against.

The single-position definitions (cf_tail, lambda_i, occ_diff) live here as
stated; the library computes the same values in folded or windowed passes.
The lemma helpers (flip_delta, positivity_report, delta_wrap, ...) state
the identities behind monotonicity in IntPolynomial and QMatrix arithmetic.
"""

import math
from fractions import Fraction
from itertools import pairwise
from typing import NamedTuple

from qmarkoff.language import (
    FLIP_AB_BA, LAST_LETTER, WRAP_AWA, WRAP_AWB, MonotonicityError, Periodic, Skew, _standard_prefix, sequence_window,
)
from qmarkoff.morphism import MU_Q_A, MU_Q_B, det_exponent, mu_q, q_markoff, q_markoff_chain
from qmarkoff.pairs import AsymptoticPair, PairReport, Pattern, pair_report
from qmarkoff.qpoly import IntPolynomial, QMatrix, poly
from qmarkoff.spectrum import PeriodicCF, SpectrumValue, _convergents, christoffel_supremum, closed_form_supremum
from qmarkoff.words import factors, reversal


def christoffel_words_upto(max_len):
    """All lower Christoffel words of length <= max_len (including "a" and "b").

    Built from the Christoffel tree: the root (a, b) and the children
    (u, uv) and (uv, v) of each node (u, v); every node's word is uv.
    """
    found = {w for w in ("a", "b") if max_len >= 1}
    frontier = [("a", "b")] if max_len >= 2 else []
    while frontier:
        nxt = []
        for u, v in frontier:
            w = u + v
            if len(w) <= max_len:
                found.add(w)
                nxt.append((u, w))
                nxt.append((w, v))
        frontier = nxt
    return found


def is_balanced_family(words, letter: str) -> bool:
    """True iff the letter-counts over a set of same-length words differ by <= 1.

    Raises ValueError when the words do not all have the same length.
    """
    words = list(words)
    if not words:
        return True
    if len({len(w) for w in words}) != 1:
        raise ValueError("heterogeneous lengths")
    counts = [w.count(letter) for w in words]
    return max(counts) - min(counts) <= 1


def balanced_periodic_scan(w, max_n=None):
    """Whether the periodic repetition of w is balanced, by scanning factor lengths.

    An imbalance in a p-periodic sequence, if present, shows up at some
    factor length n <= p, so max_n defaults to p = len(w).
    """
    if not w:
        raise ValueError("empty word")
    for n in range(1, (max_n or len(w)) + 1):
        fs = cyclic_factors(w, n)
        if not is_balanced_family(fs, "a") or not is_balanced_family(fs, "b"):
            return False
    return True


def check_window(pair: AsymptoticPair, radius: int) -> bool:
    """Verify on [-radius, radius] that s and t differ exactly on the difference set."""
    return all(
        (pair.s(i) != pair.t(i)) == (i in pair.difference_set)
        for i in range(-radius, radius + 1)
    )


def swapped(pair: AsymptoticPair) -> AsymptoticPair:
    return AsymptoticPair(pair.t, pair.s, pair.difference_set)


def occ_diff(pair: AsymptoticPair, pattern: Pattern) -> tuple[int, int]:
    """(#occurrences gained by s, #occurrences gained by t) for one pattern.

    A shift n is an occurrence of the pattern in a sequence when the
    sequence matches the assignment translated by n.  Outside the shifts
    whose translated support meets the difference set both sequences
    agree, so only those finitely many shifts are examined.
    """
    items = tuple(pattern.assignment.items())
    if not items:
        return (0, 0)
    shifts = {d - off for d in pair.difference_set for off, _ in items}
    s_only = t_only = 0
    for n in sorted(shifts):
        in_s = all(pair.s(n + off) == letter for off, letter in items)
        in_t = all(pair.t(n + off) == letter for off, letter in items)
        if in_s and not in_t:
            s_only += 1
        elif in_t and not in_s:
            t_only += 1
    return (s_only, t_only)


def is_indistinguishable_up_to(pair: AsymptoticPair, radius: int) -> bool:
    """Whether every pattern checked by pair_report(pair, radius) is balanced."""
    return pair_report(pair, radius).indistinguishable


def pair_report_by_patterns(pair, radius):
    """pair_report by one occ_diff call per observed contiguous pattern.

    The patterns are read off s and t at every shift whose support touches
    the difference set, by sorted shift and s before t; any other pattern
    on the support occurs identically in both sequences.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    supports = [tuple(range(width)) for width in range(1, radius + 1)]
    supports.append(tuple(range(-radius, radius + 1)))
    checked = 0
    for support in supports:
        shifts = {d - off for d in pair.difference_set for off in support}
        seen = set()
        for n in sorted(shifts):
            for seq in (pair.s, pair.t):
                key = tuple((off, seq(n + off)) for off in support)
                if key in seen:
                    continue
                seen.add(key)
                checked += 1
                pattern = Pattern(dict(key))
                gained, lost = occ_diff(pair, pattern)
                if gained != lost:
                    return PairReport(radius, checked, False, pattern)
    return PairReport(radius, checked, True)


def _bracket(quotients) -> tuple[Fraction, Fraction]:
    """The last two convergents of [0; a_1, a_2, ...], sorted; the value lies between them."""
    q_cur, q_prev, p_cur, p_prev = _convergents(quotients)
    return tuple(sorted((Fraction(p_prev, q_prev), Fraction(p_cur, q_cur))))


def cf_tail(seq: PeriodicCF, start: int, depth: int) -> tuple[Fraction, Fraction]:
    """Bracket for [0; a_start, a_start+1, ...] read cyclically; width shrinks like 1/F_depth^2."""
    if depth < 2:
        raise ValueError("depth must be >= 2")
    return _bracket(seq[start + j] for j in range(depth))


def lambda_i(seq: PeriodicCF, i: int, depth: int) -> SpectrumValue:
    """a_i plus the tails read rightward from i+1 and leftward from i-1; error sums the widths."""
    right = cf_tail(seq, i + 1, depth)
    left = _bracket(seq[i - 1 - j] for j in range(depth))
    lo = seq[i] + right[0] + left[0]
    hi = seq[i] + right[1] + left[1]
    return SpectrumValue(value=float((lo + hi) / 2), error_bound=float(hi - lo))


def supremum_residual(w: str, depth: int = 64) -> float:
    """Residual between the computed supremum of the periodized image of w and its closed form.

    w must be a Christoffel word; its Markoff number m = mu(w) entry (1,2)
    gives the closed form sqrt(9 - 4/m^2).
    """
    m, sup = christoffel_supremum(w, depth)
    return abs(sup.value - closed_form_supremum(m))


def lambda_i_by_reversal(seq, i, depth):
    """lambda_i with the left tail read from a reversed PeriodicCF by cf_tail."""
    right = cf_tail(seq, i + 1, depth)
    n = len(seq.period)
    left = cf_tail(PeriodicCF(seq.period[::-1]), (n - 1 - ((i - 1) % n)) % n, depth)
    lo = seq[i] + right[0] + left[0]
    hi = seq[i] + right[1] + left[1]
    return SpectrumValue(value=float((lo + hi) / 2), error_bound=float(hi - lo))


def markoff_supremum_by_positions(seq, depth):
    """markoff_supremum as the max of lambda_i over one period, each tail folded afresh."""
    values = [lambda_i(seq, i, depth) for i in range(len(seq.period))]
    best = max(values, key=lambda v: v.value)
    return SpectrumValue(best.value, max(v.error_bound for v in values))


def mu_q_schoolbook(w):
    """mu_q as the left-to-right product of generator images, in IntPolynomial arithmetic."""
    m = QMatrix.identity()
    for letter in w:
        m = m * (MU_Q_A if letter == "a" else MU_Q_B)
    return m


def radix_chain_differences(chain):
    """Consecutive q_markoff differences along `chain` in IntPolynomial arithmetic.

    Raises MonotonicityError at the first pair whose difference is not
    nonzero with nonnegative coefficients.
    """
    values = [mu_q_schoolbook(w).e12 for w in chain]
    diffs = []
    for u, v, f, g in zip(chain, chain[1:], values, values[1:]):
        d = g - f
        if not d.is_nonneg_nonzero():
            raise MonotonicityError(u, v, d)
        diffs.append(d)
    return tuple(diffs)


def first_unordered(chain):
    """Least i with q_markoff(chain[i+1]) - q_markoff(chain[i]) not nonzero and nonnegative, or None.

    Every pair is compared as polynomials; `chain` is as in q_markoff_chain.
    """
    pairs = enumerate(pairwise(q_markoff_chain(chain)))
    return next((i for i, (f, g) in pairs if not f.precedes(g)), None)


def evaluate_by_fraction_horner(p, x):
    """p(x) by Horner's rule in the arithmetic of x."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def mechanical_letter_by_fractions(spec, pos):
    """One mechanical letter by Fraction floors and ceilings of alpha*pos + rho."""
    a, r = spec.alpha, spec.rho
    rnd = math.floor if spec.kind == "lower" else math.ceil
    return "ab"[rnd(a * (pos + 1) + r) - rnd(a * pos + r)]


def mechanical_letter_by_floors(spec, pos):
    """One mechanical letter by integer floors (lower) or ceilings (upper): the per-letter window."""
    a, r = spec.alpha, spec.rho
    den = a.denominator * r.denominator
    step = a.numerator * r.denominator
    x = step * pos + r.numerator * a.denominator
    if spec.kind == "lower":
        bit = (x + step) // den - x // den
    else:  # ceil(t) = -floor(-t)
        bit = (-x) // den - (-x - step) // den
    return "ab"[bit]


def skew_letter_by_blocks(spec, pos):
    """One skew letter by position arithmetic on the x·m·y, y·m·y and y·m·x blocks."""
    x, y = spec.xy
    if spec.form == "xxyxx":
        return y if pos == 0 else x
    block_len = len(spec.m) + 2
    if pos >= 0:
        return (x + spec.m + y)[pos % block_len]
    if pos >= -block_len:
        return (y + spec.m + y)[pos + block_len]
    return (y + spec.m + x)[(pos + block_len) % block_len]


def periodic_letter_by_index(spec, pos):
    """One periodic letter by indexing the period."""
    return spec.word[pos % len(spec.word)]


def characteristic_letter_by_prefix(spec, pos):
    """One characteristic letter: a at -1, b at 0, the standard word p rightwards and p̃ leftwards."""
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


def cyclic_factors(w: str, n: int) -> list[str]:
    """Length-n factors of the periodic repetition of w: those of its (|w|+n-1)-letter prefix."""
    if not w:
        raise ValueError("empty period")
    return factors((w * (n // len(w) + 2))[: len(w) + n - 1], n)


def window_factors(spec, n):
    """Length-n factors of a periodic, skew or mechanical spec, off a window of radius 2n + period.

    The window is centered at the origin; the period is |word|, |m| + 2 or
    the slope's denominator.
    """
    if isinstance(spec, Periodic):
        period = len(spec.word)
    elif isinstance(spec, Skew):
        period = len(spec.m) + 2
    else:
        period = spec.alpha.denominator
    radius = 2 * n + period
    return tuple(factors(sequence_window(spec, -radius, radius), n))


# D = mu_q(ba) - mu_q(ab) = [[0, q + q^4], [-q^2 - q^5, 0]]; conjugation by a
# generator image multiplies it by the generator's determinant q^2 or q^4.
_FLIP_MATRIX = QMatrix(poly(), poly(0, 1, 0, 0, 1), poly(0, 0, -1, 0, 0, -1), poly())


def det_mu_q(w: str) -> IntPolynomial:
    """det(mu_q(w)) in closed form: the monomial q^(2|w|_a + 4|w|_b)."""
    return IntPolynomial.monomial(det_exponent(w))


def flip_matrix() -> QMatrix:
    """The constant flip matrix mu_q(ba) - mu_q(ab)."""
    return _FLIP_MATRIX


def flip_delta(u: str) -> QMatrix:
    """mu_q(reversal(u)·ba·u) - mu_q(reversal(u)·ab·u), checked against q^n * D.

    The difference always equals det(mu_q(u)) * D with det(mu_q(u)) = q^n,
    n = 2|u|_a + 4|u|_b; a mismatch would indicate broken arithmetic and
    raises ArithmeticError.
    """
    ru = reversal(u)
    delta = mu_q(ru + "ba" + u) - mu_q(ru + "ab" + u)
    expected = _FLIP_MATRIX.scale(det_mu_q(u))
    if delta != expected:
        raise ArithmeticError(f"flip identity violated for u={u!r}")
    return delta


class PositivityReport(NamedTuple):
    """Entries of mu_q(w) with the two positive combinations that drive monotonicity.

    combo1 = q*e11 - q^2*e12 + e21 and
    combo2 = (q+q^2)*e11 - (q^2+q^3+q^4)*e12 + e21 - q*e22;
    combo2 equals the rewrap gap q_markoff(awa) - q_markoff(bw).
    All six fields are nonzero with nonnegative coefficients, except that
    e12 = e21 = 0 when w is empty.
    """

    e11: IntPolynomial
    e12: IntPolynomial
    e21: IntPolynomial
    e22: IntPolynomial
    combo1: IntPolynomial
    combo2: IntPolynomial


def positivity_report(w: str) -> PositivityReport:
    """Compute the positivity certificate fields for mu_q(w)."""
    m = mu_q(w)
    q1 = poly(0, 1)
    combo1 = q1 * m.e11 - poly(0, 0, 1) * m.e12 + m.e21
    combo2 = poly(0, 1, 1) * m.e11 - poly(0, 0, 1, 1, 1) * m.e12 + m.e21 - q1 * m.e22
    return PositivityReport(m.e11, m.e12, m.e21, m.e22, combo1, combo2)


def delta_last_letter(w: str) -> IntPolynomial:
    """q_markoff(w·b) - q_markoff(w·a); equals q * mu_q(w).e11, so nonzero nonnegative."""
    return q_markoff(w + "b") - q_markoff(w + "a")


class WrapDeltas(NamedTuple):
    """The two gaps along a length-increasing step bw -> awa -> awb."""

    awa_minus_bw: IntPolynomial
    awb_minus_awa: IntPolynomial


def delta_wrap(w: str) -> WrapDeltas:
    """Gaps q_markoff(awa) - q_markoff(bw) and q_markoff(awb) - q_markoff(awa).

    The first equals combo2 of positivity_report(w); both are nonzero with
    nonnegative coefficients.
    """
    return WrapDeltas(
        q_markoff("a" + w + "a") - q_markoff("b" + w),
        q_markoff("a" + w + "b") - q_markoff("a" + w + "a"),
    )


def flip_prefix_delta(u: str, v: str) -> IntPolynomial:
    """q_markoff(ũ·ba·v) - q_markoff(ũ·ab·v) for u a prefix of v or vice versa.

    Nonzero with nonnegative coefficients; raises ValueError when neither
    word is a prefix of the other.
    """
    if not (v.startswith(u) or u.startswith(v)):
        raise ValueError("prefix precondition violated")
    ru = reversal(u)
    return q_markoff(ru + "ba" + v) - q_markoff(ru + "ab" + v)


def classify_change_by_letters(u: str, v: str) -> str:
    """classify_change from the list of differing positions, letter by letter."""
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
