"""Markoff spectrum values of periodic continued fractions over {1, 2}.

A balanced word maps through a -> 11, b -> 22 to a periodic sequence of
partial quotients; the Markoff supremum of that sequence is at most 3
exactly when the word side is balanced, and for a Christoffel word w with
Markoff number m it equals sqrt(9 - 4/m^2).  Tail values are bracketed by
consecutive convergents computed exactly over big-integer rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .morphism import is_christoffel, mu


def sigma_subst(w: str) -> list[int]:
    """Partial quotients of w under a -> 1,1 and b -> 2,2 (length 2|w|)."""
    out: list[int] = []
    for ch in w:
        out.extend((1, 1) if ch == "a" else (2, 2))
    return out


@dataclass(frozen=True)
class PeriodicCF:
    """Biinfinite periodic sequence of positive partial quotients."""

    period: tuple[int, ...]

    def __post_init__(self):
        period = tuple(int(a) for a in self.period)
        if not period or any(a < 1 for a in period):
            raise ValueError("period must be a nonempty sequence of positive integers")
        object.__setattr__(self, "period", period)

    def __getitem__(self, i: int) -> int:
        return self.period[i % len(self.period)]


def _bracket(quotients: Iterable[int]) -> tuple[Fraction, Fraction]:
    """The last two convergents of [0; a_1, a_2, ...], sorted; the value lies between them."""
    p_prev, q_prev = 1, 0  # convergent before [0;] = 1/0
    p_cur, q_cur = 0, 1  # [0;] = 0/1
    for a in quotients:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    lo, hi = Fraction(p_prev, q_prev), Fraction(p_cur, q_cur)
    return (lo, hi) if lo <= hi else (hi, lo)


def cf_tail(seq: PeriodicCF, start: int, depth: int) -> tuple[Fraction, Fraction]:
    """Bracket for [0; a_start, a_start+1, ...] read cyclically; width shrinks like 1/F_depth^2."""
    if depth < 2:
        raise ValueError("depth must be >= 2")
    return _bracket(seq[start + j] for j in range(depth))


@dataclass(frozen=True)
class SpectrumValue:
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
    """sup over positions of lambda_i; by periodicity the max over one period."""
    values = [lambda_i(seq, i, depth) for i in range(len(seq.period))]
    best = max(values, key=lambda v: v.value)
    return SpectrumValue(best.value, max(v.error_bound for v in values))


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
