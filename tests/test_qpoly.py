import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmarkoff.qpoly import IntPolynomial, QMatrix, poly

from oracles import evaluate_by_fraction_horner

coeffs_st = st.lists(st.integers(min_value=-9, max_value=9), max_size=9)
poly_st = coeffs_st.map(IntPolynomial)


def random_poly(rng, degree=8, lo=-9, hi=9):
    return IntPolynomial([rng.randint(lo, hi) for _ in range(rng.randint(0, degree + 1))])


def test_arithmetic_examples():
    assert poly(1, 1) + poly(0, 1) == poly(1, 2)
    assert poly(1, 1) * (poly(1) - poly(0, 1)) == poly(1, 0, -1)
    assert poly(3, 1, 4) * IntPolynomial.zero() == IntPolynomial.zero()


def test_evaluate():
    assert poly(1, 1, 2, 1).evaluate(1) == 5
    assert IntPolynomial.zero().evaluate(Fraction(7, 3)) == 0
    assert poly(0, 0, 1).evaluate(Fraction(1, 2)) == Fraction(1, 4)


def test_is_nonneg_nonzero():
    assert not poly(0, 1, -1).is_nonneg_nonzero()
    assert not IntPolynomial.zero().is_nonneg_nonzero()
    assert poly(1, 4, 10).is_nonneg_nonzero()


def test_precedes():
    assert poly(1).precedes(poly(1, 1))  # the two generator (1,2) entries
    f = poly(2, 0, 3)
    assert not f.precedes(f)


def test_normalization_and_degree():
    assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPolynomial([0]).coeffs == ()
    assert IntPolynomial.zero().degree == float("-inf")
    assert poly(5).degree == 0
    assert IntPolynomial.monomial(3, 2) == poly(0, 0, 0, 2)
    with pytest.raises(ValueError):
        IntPolynomial.monomial(-1)


def test_ring_axioms_randomized():
    rng = random.Random(20210204)
    for _ in range(1000):
        f, g, h = (random_poly(rng) for _ in range(3))
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f - g) + g == f


@given(poly_st, poly_st)
def test_ops_keep_normalization(f, g):
    for r in (f + g, f - g, f * g, -f):
        assert not r.coeffs or r.coeffs[-1] != 0


@given(
    poly_st,
    st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=9).filter(
        lambda c: any(c)
    ),
    st.fractions(min_value=Fraction(1, 1000), max_value=1000),
)
def test_precede_implies_smaller_at_positive_gamma(f, diff_coeffs, gamma):
    g = f + IntPolynomial(diff_coeffs)
    assert f.precedes(g)
    assert f.evaluate(gamma) < g.evaluate(gamma)


def test_str_rendering():
    assert str(IntPolynomial.zero()) == "0"
    assert str(poly(1, 4, 10)) == "1 + 4*q + 10*q^2"
    assert str(poly(0, 1, -1, -2)) == "q - q^2 - 2*q^3"
    assert str(poly(0, 0, -1, 1)) == "-q^2 + q^3"
    assert str(poly(1, 1, 2, 1)) == "1 + q + 2*q^2 + q^3"
    assert str(poly(0, 1)) == "q"


def test_qmatrix_identity_and_mul():
    a = QMatrix(poly(0, 1, 1), poly(1), poly(0, 1), poly(1))
    assert a * QMatrix.identity() == a
    b = QMatrix(poly(0, 1, 2, 1, 1), poly(1, 1), poly(0, 1, 1), poly(1))
    assert (a * b).e12 == poly(1, 1, 2, 1)


def test_qmatrix_det_multiplicative_random():
    rng = random.Random(7)
    for _ in range(50):
        a = QMatrix(*(random_poly(rng, degree=3) for _ in range(4)))
        b = QMatrix(*(random_poly(rng, degree=3) for _ in range(4)))
        assert (a * b).det() == a.det() * b.det()


def test_qmatrix_scale_sub_evaluate():
    a = QMatrix(poly(0, 1, 1), poly(1), poly(0, 1), poly(1))
    assert a.scale(poly(0, 1)).e11 == poly(0, 0, 1, 1)
    assert (a - a).entries() == (IntPolynomial.zero(),) * 4
    assert a.evaluate(1) == ((2, 1), (1, 1))


def test_immutability():
    f = poly(1, 2)
    with pytest.raises(AttributeError):
        f.coeffs = (3,)
    m = QMatrix.identity()
    with pytest.raises(AttributeError):
        m.e11 = f


@given(poly_st, st.one_of(st.integers(-20, 20), st.fractions(max_denominator=30), st.floats(-4, 4)))
def test_evaluate_matches_fraction_horner(p, x):
    value, expected = p.evaluate(x), evaluate_by_fraction_horner(p, x)
    assert value == expected
    assert type(value) is type(expected)
