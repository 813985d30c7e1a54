"""Exact integer-coefficient polynomials in one indeterminate q, and 2x2 matrices of them.

Coefficients are arbitrary-precision Python ints in a dense ascending
representation: index i holds the coefficient of q^i.  The zero polynomial
has an empty coefficient tuple and degree -inf.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, float, Fraction]

_MINUS_INF = float("-inf")


def _normalize(coeffs: Iterable[int]) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


class IntPolynomial:
    """Immutable dense polynomial over the integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "coeffs", _normalize(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return _ZERO

    @classmethod
    def one(cls) -> "IntPolynomial":
        return _ONE

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "IntPolynomial":
        """coefficient * q^exponent"""
        if exponent < 0:
            raise ValueError("negative exponent")
        return cls([0] * exponent + [coefficient])

    @property
    def degree(self) -> float | int:
        """Degree; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else _MINUS_INF

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    def evaluate(self, x: Scalar) -> Scalar:
        """Horner evaluation; exact when x is an int or Fraction.

        For x = n/d the loop stays in integers: it computes d^k * p(n/d),
        k the degree, and divides once.  Other x (floats) use the plain loop.
        """
        if not isinstance(x, (int, Fraction)):
            acc: Scalar = 0
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        n, d = x.numerator, x.denominator
        total, scale = 0, 1
        for c in reversed(self.coeffs):
            total = total * n + c * scale
            scale *= d
        if isinstance(x, int) or not self.coeffs:
            return total
        return Fraction(total, scale // d)

    def is_nonneg_nonzero(self) -> bool:
        """True iff the polynomial is nonzero with all coefficients >= 0."""
        return bool(self.coeffs) and all(c >= 0 for c in self.coeffs)

    def precedes(self, other: "IntPolynomial") -> bool:
        """Strict partial order: f < g iff g - f is nonzero with nonnegative coefficients."""
        return (other - self).is_nonneg_nonzero()

    def __str__(self) -> str:
        """Canonical text in ascending powers, e.g. ``1 + 4*q + 10*q^2``."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            elif i == 1:
                term = "q" if mag == 1 else f"{mag}*q"
            else:
                term = f"q^{i}" if mag == 1 else f"{mag}*q^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"


_ZERO = IntPolynomial()
_ONE = IntPolynomial([1])


def poly(*coeffs: int) -> IntPolynomial:
    """Shorthand constructor from ascending coefficients: poly(1, 4, 10) = 1 + 4q + 10q^2."""
    return IntPolynomial(coeffs)


class QMatrix:
    """Immutable 2x2 matrix with IntPolynomial entries."""

    __slots__ = ("e11", "e12", "e21", "e22")

    def __init__(self, e11: IntPolynomial, e12: IntPolynomial, e21: IntPolynomial, e22: IntPolynomial):
        object.__setattr__(self, "e11", e11)
        object.__setattr__(self, "e12", e12)
        object.__setattr__(self, "e21", e21)
        object.__setattr__(self, "e22", e22)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    @classmethod
    def identity(cls) -> "QMatrix":
        return _IDENTITY

    def entries(self) -> tuple[IntPolynomial, IntPolynomial, IntPolynomial, IntPolynomial]:
        return (self.e11, self.e12, self.e21, self.e22)

    def __eq__(self, other) -> bool:
        return isinstance(other, QMatrix) and self.entries() == other.entries()

    def __hash__(self) -> int:
        return hash(self.entries())

    def __mul__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix(
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22,
        )

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix(self.e11 + other.e11, self.e12 + other.e12,
                       self.e21 + other.e21, self.e22 + other.e22)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix(self.e11 - other.e11, self.e12 - other.e12,
                       self.e21 - other.e21, self.e22 - other.e22)

    def scale(self, f: IntPolynomial) -> "QMatrix":
        """Scalar multiple f * M."""
        return QMatrix(f * self.e11, f * self.e12, f * self.e21, f * self.e22)

    def det(self) -> IntPolynomial:
        return self.e11 * self.e22 - self.e12 * self.e21

    def evaluate(self, x: Scalar):
        """Entrywise evaluation; returns a ((.,.),(.,.)) tuple of scalars."""
        return (
            (self.e11.evaluate(x), self.e12.evaluate(x)),
            (self.e21.evaluate(x), self.e22.evaluate(x)),
        )

    def __str__(self) -> str:
        return f"[[{self.e11}, {self.e12}], [{self.e21}, {self.e22}]]"

    def __repr__(self) -> str:
        return f"QMatrix({self.e11!r}, {self.e12!r}, {self.e21!r}, {self.e22!r})"


_IDENTITY = QMatrix(_ONE, _ZERO, _ZERO, _ONE)
