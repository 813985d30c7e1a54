"""Exact integer-coefficient polynomials in one indeterminate q, and the 2x2 record mu_q returns.

Coefficients are arbitrary-precision Python ints in a dense ascending
representation: index i holds the coefficient of q^i.  The zero polynomial
has an empty coefficient tuple.  The commands need only sums, differences,
the nonnegativity test and the text form; products of polynomials and of
matrices are never formed, and a value at a number comes from packed rows
(morphism.q_markoff_ratios), not from a polynomial.  QMatrix is a NamedTuple
like every other library record: it equals the 4-tuple of its entries,
unpacks into them and hashes as that tuple.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Union

Scalar = Union[int, float, "Fraction"]  # fractions.Fraction, named without importing the module


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

    def is_nonneg_nonzero(self) -> bool:
        """True iff the polynomial is nonzero with all coefficients >= 0."""
        return bool(self.coeffs) and all(c >= 0 for c in self.coeffs)

    def __str__(self) -> str:
        """Canonical text in ascending powers, e.g. ``1 + 4*q + 10*q^2``."""
        if not self.coeffs:
            return "0"
        terms = [  # one f-string per term: sign, magnitude unless 1 on a power of q, power
            (f"+ {c}*q^{i}" if c > 1 else f"+ q^{i}" if c == 1
             else f"- q^{i}" if c == -1 else f"- {-c}*q^{i}") if i > 1
            else (f"+ {c}*q" if c > 1 else "+ q" if c == 1 else "- q" if c == -1 else f"- {-c}*q") if i
            else f"+ {c}" if c > 0 else f"- {-c}"
            for i, c in enumerate(self.coeffs)
            if c
        ]
        text = " ".join(terms)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"


class QMatrix(NamedTuple):
    """2x2 record of IntPolynomial entries, row by row: the type mu_q returns."""

    e11: IntPolynomial
    e12: IntPolynomial
    e21: IntPolynomial
    e22: IntPolynomial
