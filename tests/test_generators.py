"""Generator identities for the morphism and its q-deformation.

The q-deformed elementary matrices R_q = [[q,1],[0,1]] and
S_q = [[0,-1/q],[1,0]] live over Laurent polynomials; negative powers
cancel in the products R²SR and R³SR²SR, which land exactly on the
two generator images.  The wrapper below (a polynomial plus a power of q
in the denominator) exists only for these checks.
"""

from dataclasses import dataclass

from qmarkoff.morphism import mu, mu_q
from qmarkoff.qpoly import IntPolynomial

from oracles import MU_A, MU_B, monomial, pmul, poly


@dataclass(frozen=True)
class Laurent:
    """numerator / q^shift, normalized so the numerator is not divisible by q."""

    num: IntPolynomial
    shift: int = 0

    def __post_init__(self):
        num, shift = self.num, self.shift
        while shift > 0 and num.coeffs and num.coeffs[0] == 0:
            num = IntPolynomial(num.coeffs[1:])
            shift -= 1
        if not num.coeffs:
            shift = 0
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "shift", shift)

    def __add__(self, other):
        shift = max(self.shift, other.shift)
        lift = lambda x: pmul(x.num, monomial(shift - x.shift))
        return Laurent(lift(self) + lift(other), shift)

    def __mul__(self, other):
        return Laurent(pmul(self.num, other.num), self.shift + other.shift)


def lmat(rows):
    return tuple(tuple(e if isinstance(e, Laurent) else Laurent(e) for e in row) for row in rows)


def lmul(x, y):
    return tuple(
        tuple(x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)) for i in range(2)
    )


def lprod(*ms):
    acc = ms[0]
    for m in ms[1:]:
        acc = lmul(acc, m)
    return acc


R_Q = lmat([[poly(0, 1), poly(1)], [poly(), poly(1)]])
S_Q = lmat([[Laurent(poly()), Laurent(poly(-1), 1)], [Laurent(poly(1)), Laurent(poly())]])


def as_polynomial_matrix(m):
    out = []
    for row in m:
        assert all(e.shift == 0 for e in row), "negative powers did not cancel"
        out.append(tuple(e.num for e in row))
    return tuple(out)


def test_laurent_normalization():
    assert Laurent(poly(0, 0, 3), 1) == Laurent(poly(0, 3), 0)
    assert Laurent(poly(), 5) == Laurent(poly(), 0)
    assert Laurent(poly(-1), 1) * Laurent(poly(0, 1)) == Laurent(poly(-1), 0)


def test_q_generator_identities():
    a = as_polynomial_matrix(lprod(R_Q, R_Q, S_Q, R_Q))
    expected_a = mu_q("a")
    assert a == ((expected_a.e11, expected_a.e12), (expected_a.e21, expected_a.e22))

    b = as_polynomial_matrix(lprod(R_Q, R_Q, R_Q, S_Q, R_Q, R_Q, S_Q, R_Q))
    expected_b = mu_q("b")
    assert b == ((expected_b.e11, expected_b.e12), (expected_b.e21, expected_b.e22))


def imul(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )


def test_integer_generator_identities():
    r = ((1, 1), (0, 1))
    s = ((0, -1), (1, 0))
    r2sr = imul(imul(imul(r, r), s), r)
    assert r2sr == MU_A
    r3 = imul(imul(r, r), r)
    r3sr2sr = imul(imul(imul(imul(r3, s), imul(r, r)), s), r)
    assert r3sr2sr == MU_B
    assert (mu("a"), mu("b")) == (MU_A, MU_B)
