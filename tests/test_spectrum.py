import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarkoff import spectrum
from qmarkoff.morphism import mu
from qmarkoff.spectrum import PeriodicCF, closed_form_supremum, markoff_supremum, sigma_subst

from oracles import (
    cf_tail,
    christoffel_words_upto,
    lambda_i,
    lambda_i_by_reversal,
    markoff_supremum_by_positions,
    supremum_residual,
)

GOLDEN = (math.sqrt(5) - 1) / 2


def test_sigma_subst():
    assert sigma_subst("a") == [1, 1]
    assert sigma_subst("ab") == [1, 1, 2, 2]
    assert sigma_subst("") == []


def test_periodic_cf_validation():
    with pytest.raises(ValueError):
        PeriodicCF(())
    with pytest.raises(ValueError):
        PeriodicCF((1, 0))


def test_cf_tail_first_bracket():
    assert cf_tail(PeriodicCF((1,)), 0, 2) == (Fraction(1, 2), Fraction(1, 1))
    with pytest.raises(ValueError):
        cf_tail(PeriodicCF((1,)), 0, 1)


def test_cf_tail_fixed_points():
    # [0;1,1,...] solves x^2 + x - 1 = 0: the root sits inside the bracket
    lo, hi = cf_tail(PeriodicCF((1,)), 0, 64)
    assert lo * lo + lo - 1 < 0 < hi * hi + hi - 1
    assert float(hi - lo) < 1e-20
    assert abs(float((lo + hi) / 2) - GOLDEN) < 1e-15
    # [0;2,2,...] solves x^2 + 2x - 1 = 0
    lo, hi = cf_tail(PeriodicCF((2,)), 0, 64)
    assert lo * lo + 2 * lo - 1 < 0 < hi * hi + 2 * hi - 1
    assert abs(float((lo + hi) / 2) - (math.sqrt(2) - 1)) < 1e-15


def test_cf_tail_bracketing_refinement():
    seq = PeriodicCF((1, 1, 2, 2))
    for start in range(4):
        for depth in (2, 5, 8, 16):
            lo, hi = cf_tail(seq, start, depth)
            flo, fhi = cf_tail(seq, start, depth + 8)
            mid = (flo + fhi) / 2
            assert lo <= mid <= hi


def test_lambda_values():
    v = lambda_i(PeriodicCF((1, 1)), 0, 64)
    assert abs(v.value - math.sqrt(5)) < 1e-12
    v = lambda_i(PeriodicCF((2, 2)), 1, 64)
    assert abs(v.value - 2 * math.sqrt(2)) < 1e-12
    assert v.value < 3
    v = lambda_i(PeriodicCF((1, 1, 2, 2)), 2, 64)
    assert abs(v.value - math.sqrt(221) / 5) < 1e-9


def test_lambda_periodicity():
    seq = PeriodicCF((1, 1, 2, 2))
    for i in range(4):
        a = lambda_i(seq, i, 48)
        b = lambda_i(seq, i + 8, 48)
        assert a.value == b.value


def test_markoff_supremum_closed_forms():
    sup = markoff_supremum(PeriodicCF(tuple(sigma_subst("ab"))), 64)
    assert abs(sup.value - math.sqrt(221) / 5) < 1e-12
    sup = markoff_supremum(PeriodicCF(tuple(sigma_subst("a"))), 64)
    assert abs(sup.value - math.sqrt(5)) < 1e-12


def test_closed_form_supremum():
    assert abs(closed_form_supremum(5) - math.sqrt(9 - 4 / 25)) < 1e-15
    assert abs(closed_form_supremum(1) - math.sqrt(5)) < 1e-15


def test_supremum_below_three_on_christoffel_words():
    for w in sorted(christoffel_words_upto(6)):
        sup = markoff_supremum(PeriodicCF(tuple(sigma_subst(w))), 64)
        assert sup.value <= 3 + 1e-9, w


def test_unbalanced_control_exceeds_three():
    sup = markoff_supremum(PeriodicCF(tuple(sigma_subst("aabb"))), 64)
    assert sup.value > 3


def test_supremum_residual_small_words():
    assert supremum_residual("ab", 64) <= 1e-9
    assert supremum_residual("a", 64) <= 1e-9
    assert supremum_residual("aabab", 64) <= 1e-9


def test_supremum_residual_requires_christoffel():
    with pytest.raises(ValueError, match="Christoffel"):
        supremum_residual("aabb", 64)


def test_error_bound_monotone_in_depth():
    seq = PeriodicCF(tuple(sigma_subst("aabab")))
    bounds = [markoff_supremum(seq, depth).error_bound for depth in (2, 4, 8, 16, 32, 64)]
    assert all(x >= y for x, y in zip(bounds, bounds[1:]))
    assert bounds[-1] < 1e-20


def test_residual_within_error_bound():
    for w in ("ab", "aabab"):
        seq = PeriodicCF(tuple(sigma_subst(w)))
        sup = markoff_supremum(seq, 64)
        m = mu(w)[0][1]
        assert abs(sup.value - closed_form_supremum(m)) <= sup.error_bound + 1e-12


def test_lambda_matches_reversed_period_oracle():
    for n in range(1, 6):
        for period in itertools.product((1, 2, 3), repeat=n):
            seq = PeriodicCF(period)
            for i in range(-2, n + 2):
                assert lambda_i(seq, i, 12) == lambda_i_by_reversal(seq, i, 12), (period, i)


def test_lambda_requires_depth_two():
    with pytest.raises(ValueError, match="depth"):
        lambda_i(PeriodicCF((1, 2)), 0, 1)


def test_markoff_supremum_builds_no_periodic_cf(monkeypatch):
    seq = PeriodicCF(tuple(sigma_subst("aabab")))
    expected = markoff_supremum(seq, 32)

    def forbidden(cls, *args, **kwargs):
        raise AssertionError("PeriodicCF constructed")

    monkeypatch.setattr(spectrum.PeriodicCF, "__new__", forbidden)
    assert markoff_supremum(seq, 32) == expected


@settings(max_examples=60, deadline=None)
@given(period=st.lists(st.integers(1, 3), min_size=1, max_size=40), depth=st.integers(2, 80))
def test_markoff_supremum_matches_per_position_oracle(period, depth):
    seq = PeriodicCF(tuple(period))
    p = len(period)
    # the drawn depth, and the largest multiple of p not above max(depth, p): windows that wrap
    for d in {depth, p * max(1, depth // p)} - {1}:
        assert markoff_supremum(seq, d) == markoff_supremum_by_positions(seq, d), (period, d)


def test_markoff_supremum_matches_oracle_on_christoffel_words():
    for w in sorted(christoffel_words_upto(40)):
        seq = PeriodicCF(tuple(sigma_subst(w)))
        assert markoff_supremum(seq, 64) == markoff_supremum_by_positions(seq, 64), w


def test_markoff_supremum_requires_depth_two():
    for depth in (1, 0, -3):
        with pytest.raises(ValueError, match="depth must be >= 2"):
            markoff_supremum(PeriodicCF((1, 2)), depth)
