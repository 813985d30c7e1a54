"""Markoff spectrum values of periodic continued fractions over {1, 2}.

A balanced word maps through a -> 11, b -> 22 to a periodic sequence of
partial quotients; the Markoff supremum of that sequence is at most 3
exactly when the word side is balanced, and for a Christoffel word w with
Markoff number m it equals sqrt(9 - 4/m^2).  Tail values are bracketed by
consecutive convergents computed exactly over big-integer rationals.

markoff_supremum folds one window per direction once and slides it: with
A(x) = [[x, 1], [1, 0]], A(a_1)...A(a_k) = [[q_k, q_k-1], [p_k, p_k-1]] holds
the last two convergents of [0; a_1, ..., a_k], and as A(x)^-1 = [[0, 1], [1, -x]],
R_i+1 = A(a_i+1)^-1 R_i A(a_i+1+depth) and L_i+1 = A(a_i) L_i A(a_i-depth)^-1 are
a few integer multiply-adds.  Bracket sums stay integer ratios, and one int true
division rounds them correctly, as Fraction.__float__ does, so every float equals
the one lambda_i gives.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from .morphism import is_christoffel, mu


def sigma_subst(w: str) -> list[int]:
    """Partial quotients of w under a -> 1,1 and b -> 2,2 (length 2|w|)."""
    out: list[int] = []
    for ch in w:
        out.extend((1, 1) if ch == "a" else (2, 2))
    return out


class _PeriodicCFFields(NamedTuple):
    period: tuple[int, ...]


class PeriodicCF(_PeriodicCFFields):
    """Biinfinite periodic sequence of positive partial quotients; seq[i] reads it cyclically."""

    __slots__ = ()

    def __new__(cls, period: Iterable[int]):
        period = tuple(int(a) for a in period)
        if not period or any(a < 1 for a in period):
            raise ValueError("period must be a nonempty sequence of positive integers")
        return super().__new__(cls, period)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace goes through __new__

    def __getitem__(self, i: int) -> int:
        return self.period[i % len(self.period)]


def _convergents(quotients: Iterable[int]) -> tuple[int, int, int, int]:
    """(q_cur, q_prev, p_cur, p_prev) of [0; a_1, a_2, ...]: the matrix A(a_1)A(a_2)... row by row."""
    p_prev, q_prev = 1, 0  # convergent before [0;] = 1/0
    p_cur, q_cur = 0, 1  # [0;] = 0/1
    for a in quotients:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    return q_cur, q_prev, p_cur, p_prev


def _bracket(quotients: Iterable[int]) -> tuple[Fraction, Fraction]:
    """The last two convergents of [0; a_1, a_2, ...], sorted; the value lies between them."""
    q_cur, q_prev, p_cur, p_prev = _convergents(quotients)
    return tuple(sorted((Fraction(p_prev, q_prev), Fraction(p_cur, q_cur))))


def cf_tail(seq: PeriodicCF, start: int, depth: int) -> tuple[Fraction, Fraction]:
    """Bracket for [0; a_start, a_start+1, ...] read cyclically; width shrinks like 1/F_depth^2."""
    if depth < 2:
        raise ValueError("depth must be >= 2")
    return _bracket(seq[start + j] for j in range(depth))


class SpectrumValue(NamedTuple):
    """A spectrum quantity with a certified bracket-derived error bound."""

    value: float
    error_bound: float


def lambda_i(seq: PeriodicCF, i: int, depth: int) -> SpectrumValue:
    """a_i plus the tails read rightward from i+1 and leftward from i-1; error sums the widths."""
    right = cf_tail(seq, i + 1, depth)
    left = _bracket(seq[i - 1 - j] for j in range(depth))
    lo = seq[i] + right[0] + left[0]
    hi = seq[i] + right[1] + left[1]
    return SpectrumValue(value=float((lo + hi) / 2), error_bound=float(hi - lo))


def markoff_supremum(seq: PeriodicCF, depth: int = 64) -> SpectrumValue:
    """sup over positions of lambda_i (largest value, largest error bound) over one period."""
    if depth < 2:
        raise ValueError("depth must be >= 2")
    a, p = seq.period, len(seq.period)
    re, rf, rg, rh = _convergents(a[(1 + j) % p] for j in range(depth))
    le, lf, lg, lh = _convergents(a[(-1 - j) % p] for j in range(depth))
    best = error = 0.0
    for i, x in enumerate(a):
        # x + right + left, once at the current convergents g/e and once at the previous h/f
        cur_d, prev_d = re * le, rf * lf
        cur_n = x * cur_d + rg * le + lg * re
        prev_n = x * prev_d + rh * lf + lh * rf
        best = max(best, (cur_n * prev_d + prev_n * cur_d) / (2 * cur_d * prev_d))
        error = max(error, abs(prev_n * cur_d - cur_n * prev_d) / (cur_d * prev_d))
        drop, add = a[(i + 1) % p], a[(i + 1 + depth) % p]  # R_i+1 = A(drop)^-1 R_i A(add)
        g, h = re - drop * rg, rf - drop * rh
        re, rf, rg, rh = rg * add + rh, rg, g * add + h, g
        add, drop = x, a[(i - depth) % p]  # L_i+1 = A(add) L_i A(drop)^-1
        e, f = add * le + lg, add * lf + lh
        le, lf, lg, lh = f, e - drop * f, lf, le - drop * lf
    return SpectrumValue(best, error)


def closed_form_supremum(m: int) -> float:
    """sqrt(9 - 4/m^2), evaluated with an exact big-integer ratio under the root."""
    return math.sqrt(Fraction(9 * m * m - 4, m * m))


def christoffel_supremum(w: str, depth: int = 64) -> tuple[int, SpectrumValue]:
    """(m, supremum of the periodized image of w); w must be Christoffel, checked up front."""
    if not is_christoffel(w):
        raise ValueError("precondition: Christoffel word required")
    return mu(w)[0][1], markoff_supremum(PeriodicCF(tuple(sigma_subst(w))), depth)


def supremum_residual(w: str, depth: int = 64) -> float:
    """Residual between the computed supremum of the periodized image of w and its closed form.

    w must be a Christoffel word; its Markoff number m = mu(w) entry (1,2)
    gives the closed form sqrt(9 - 4/m^2).
    """
    m, sup = christoffel_supremum(w, depth)
    return abs(sup.value - closed_form_supremum(m))
