"""Slow reference implementations that the library's closed forms are tested against."""

import math

from qmarkoff.language import MonotonicityError
from qmarkoff.morphism import MU_Q_A, MU_Q_B
from qmarkoff.pairs import PairReport, Pattern, occ_diff
from qmarkoff.qpoly import QMatrix
from qmarkoff.spectrum import PeriodicCF, SpectrumValue, cf_tail
from qmarkoff.words import cyclic_factors, is_balanced_family


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


def lambda_i_by_reversal(seq, i, depth):
    """lambda_i with the left tail read from a reversed PeriodicCF by cf_tail."""
    right = cf_tail(seq, i + 1, depth)
    n = len(seq.period)
    left = cf_tail(PeriodicCF(seq.period[::-1]), (n - 1 - ((i - 1) % n)) % n, depth)
    lo = seq[i] + right[0] + left[0]
    hi = seq[i] + right[1] + left[1]
    return SpectrumValue(value=float((lo + hi) / 2), error_bound=float(hi - lo))


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


def evaluate_by_fraction_horner(p, x):
    """p(x) by Horner's rule in the arithmetic of x."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def mechanical_letter_by_fractions(spec, pos):
    """mechanical_letter by Fraction floors and ceilings of alpha*pos + rho."""
    a, r = spec.alpha, spec.rho
    rnd = math.floor if spec.kind == "lower" else math.ceil
    return "ab"[rnd(a * (pos + 1) + r) - rnd(a * pos + r)]
