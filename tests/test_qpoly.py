"""IntPolynomial and QMatrix, with the reference product, determinant, order and evaluation of
tests/oracles.py that the other tests build on: the library keeps sums, differences, the
nonnegativity test and the text form."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmarkoff.qpoly import IntPolynomial, QMatrix

from oracles import (
    IDENTITY, ZERO, degree, det, evaluate_by_fraction_horner, matmul, matscale, matsub, monomial, pmul, poly, precedes,
)

coeffs_st = st.lists(st.integers(min_value=-9, max_value=9), max_size=9)
poly_st = coeffs_st.map(IntPolynomial)


def random_poly(rng, degree=8, lo=-9, hi=9):
    return IntPolynomial([rng.randint(lo, hi) for _ in range(rng.randint(0, degree + 1))])


def test_arithmetic_examples():
    assert poly(1, 1) + poly(0, 1) == poly(1, 2)
    assert pmul(poly(1, 1), poly(1) - poly(0, 1)) == poly(1, 0, -1)
    assert pmul(poly(3, 1, 4), ZERO) == ZERO
    assert -poly(1, -2) == poly(-1, 2) and poly(1, 2) - poly(1, 2) == ZERO


def test_is_nonneg_nonzero():
    assert not poly(0, 1, -1).is_nonneg_nonzero()
    assert not ZERO.is_nonneg_nonzero()
    assert poly(1, 4, 10).is_nonneg_nonzero()


def test_precedes():
    assert precedes(poly(1), poly(1, 1))  # the two generator (1,2) entries
    f = poly(2, 0, 3)
    assert not precedes(f, f)


def test_normalization_and_degree():
    assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPolynomial([0]).coeffs == ()
    assert degree(ZERO) == float("-inf")
    assert degree(poly(5)) == 0
    assert monomial(3) == poly(0, 0, 0, 1)


def test_ring_axioms_randomized():
    rng = random.Random(20210204)
    for _ in range(1000):
        f, g, h = (random_poly(rng) for _ in range(3))
        assert f + g == g + f
        assert pmul(f, g) == pmul(g, f)
        assert (f + g) + h == f + (g + h)
        assert pmul(pmul(f, g), h) == pmul(f, pmul(g, h))
        assert pmul(f, g + h) == pmul(f, g) + pmul(f, h)
        assert (f - g) + g == f


@given(poly_st, poly_st)
def test_ops_keep_normalization(f, g):
    for r in (f + g, f - g, pmul(f, g), -f):
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
    assert precedes(f, g)
    assert evaluate_by_fraction_horner(f, gamma) < evaluate_by_fraction_horner(g, gamma)


def test_str_rendering():
    assert str(ZERO) == "0"
    assert str(poly(1, 4, 10)) == "1 + 4*q + 10*q^2"
    assert str(poly(0, 1, -1, -2)) == "q - q^2 - 2*q^3"
    assert str(poly(0, 0, -1, 1)) == "-q^2 + q^3"
    assert str(poly(1, 1, 2, 1)) == "1 + q + 2*q^2 + q^3"
    assert str(poly(0, 1)) == "q"


def parse_polynomial_text(text):
    """The polynomial whose canonical text is `text`: terms c, c*q, q, c*q^i or q^i by ascending
    power, joined by " + " and " - ", with a leading "-" on a negative first term; "0" alone."""
    if text == "0":
        return ZERO
    coeffs = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign, term = (-1, term[1:]) if term.startswith("-") else (1, term)
        head, q, power = term.partition("q")
        magnitude = int(head.removesuffix("*")) if head else 1
        exponent = int(power.removeprefix("^")) if power else 1 if q else 0
        assert magnitude > 0 and (not q or head != "1*") and (head.endswith("*") or not q or not head), term
        assert (exponent > 1) == power.startswith("^") and exponent > max(coeffs, default=-1), text
        coeffs[exponent] = sign * magnitude
    return IntPolynomial([coeffs.get(i, 0) for i in range(max(coeffs) + 1)])


@given(st.lists(st.one_of(st.sampled_from([0, 1, -1]), st.integers()), max_size=12))
def test_str_parses_back(coeffs):
    # the text of every command's polynomial output names each polynomial once
    p = IntPolynomial(coeffs)
    assert parse_polynomial_text(str(p)) == p


def test_qmatrix_identity_and_mul():
    a = QMatrix(poly(0, 1, 1), poly(1), poly(0, 1), poly(1))
    assert matmul(a, IDENTITY) == matmul(a) == a and matmul() == IDENTITY
    b = QMatrix(poly(0, 1, 2, 1, 1), poly(1, 1), poly(0, 1, 1), poly(1))
    assert matmul(a, b).e12 == poly(1, 1, 2, 1)


def test_qmatrix_det_multiplicative_random():
    rng = random.Random(7)
    for _ in range(50):
        a = QMatrix(*(random_poly(rng, degree=3) for _ in range(4)))
        b = QMatrix(*(random_poly(rng, degree=3) for _ in range(4)))
        assert det(matmul(a, b)) == pmul(det(a), det(b))


def test_qmatrix_scale_sub_evaluate():
    a = QMatrix(poly(0, 1, 1), poly(1), poly(0, 1), poly(1))
    assert matscale(poly(0, 1), a).e11 == poly(0, 0, 1, 1)
    assert tuple(matsub(a, a)) == (ZERO,) * 4
    assert [evaluate_by_fraction_horner(e, 1) for e in a] == [2, 1, 1, 1]
    assert a == QMatrix(*a) and hash(a) == hash(QMatrix(*a)) and a != IDENTITY


def test_immutability():
    f = poly(1, 2)
    with pytest.raises(AttributeError):
        f.coeffs = (3,)
    m = IDENTITY
    with pytest.raises(AttributeError):
        m.e11 = f

