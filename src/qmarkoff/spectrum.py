"""Markoff spectrum values of periodic continued fractions over {1, 2}.

A balanced word maps through a -> 11, b -> 22 to a periodic sequence of
partial quotients; the Markoff supremum of that sequence is at most 3
exactly when the word side is balanced, and for a Christoffel word w with
Markoff number m it equals sqrt(9 - 4/m^2).  Tail values are bracketed by
consecutive convergents computed exactly over big integers.

markoff_supremum folds one window per direction once and slides it: with
A(x) = [[x, 1], [1, 0]], A(a_1)...A(a_k) = [[q_k, q_k-1], [p_k, p_k-1]] holds
the last two convergents of [0; a_1, ..., a_k], and as A(x)^-1 = [[0, 1], [1, -x]],
R_i+1 = A(a_i+1)^-1 R_i A(a_i+1+depth) and L_i+1 = A(a_i) L_i A(a_i-depth)^-1 are
a few integer multiply-adds.  Bracket sums stay integer ratios, and one int true
division rounds them correctly, as Fraction.__float__ does, so every float equals
the one the per-position oracle lambda_i in tests/oracles.py gives.
"""

from __future__ import annotations

import math
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
    """Biinfinite periodic sequence of positive partial quotients: a_i is period[i % len(period)]."""

    __slots__ = ()

    def __new__(cls, period: Iterable[int]):
        period = tuple(int(a) for a in period)
        if not period or any(a < 1 for a in period):
            raise ValueError("period must be a nonempty sequence of positive integers")
        return super().__new__(cls, period)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace goes through __new__


def _convergents(quotients: Iterable[int]) -> tuple[int, int, int, int]:
    """(q_cur, q_prev, p_cur, p_prev) of [0; a_1, a_2, ...]: the matrix A(a_1)A(a_2)... row by row."""
    p_prev, q_prev = 1, 0  # convergent before [0;] = 1/0
    p_cur, q_cur = 0, 1  # [0;] = 0/1
    for a in quotients:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    return q_cur, q_prev, p_cur, p_prev


class SpectrumValue(NamedTuple):
    """A spectrum quantity with a certified bracket-derived error bound."""

    value: float
    error_bound: float


def markoff_supremum(seq: PeriodicCF, depth: int = 64) -> SpectrumValue:
    """sup over one period of lambda_i = a_i + both tails (largest value, largest error bound)."""
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
    """sqrt(9 - 4/m^2), from one int true division under the root, which rounds the exact ratio correctly."""
    return math.sqrt((9 * m * m - 4) / (m * m))


def christoffel_supremum(w: str, depth: int = 64) -> tuple[int, SpectrumValue]:
    """(m, supremum of the periodized image of w); w must be Christoffel, checked up front."""
    if not is_christoffel(w):
        raise ValueError("precondition: Christoffel word required")
    return mu(w)[0][1], markoff_supremum(PeriodicCF(tuple(sigma_subst(w))), depth)

