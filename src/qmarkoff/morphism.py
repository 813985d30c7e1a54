"""The Markoff matrix morphism, its q-deformation, and the twin binary trees.

The classical morphism sends a -> [[2,1],[1,1]] and b -> [[5,2],[2,1]];
its q-deformation replaces the generator images by matrices over Z[q]
that specialize back at q = 1.  The entry above the diagonal of the image
of a Christoffel word is a Markoff number, and its q-deformation is the
q-analog of that Markoff number.

The q-deformed image of a is R L and that of b is R R L L, with
R = [[q, 1], [0, 1]] and L = [[q, 0], [q, 1]] (the R_q and L_q of
Morier-Genoud and Ovsienko): a row (x, y) times R is (qx, x + y), and times
L is (q(x + y), y).  Every walk of a row along a word is these two steps,
and ``_walk`` hard-codes them; no matrix product is formed.

Every entry of mu_q(w) has nonnegative coefficients, and each coefficient
is at most the entry's value at q = 1, so at most max mu(w) <= ||mu(w)||_2
<= phi^(2|w|_a) (3 + 2 sqrt 2)^(|w|_b), the spectral norms of the classical images of a and b,
whose log2 are below 1.3885 and 2.5432.  So an entry of mu_q(w) packs into
one int, sum c_i 2^(iB), with slots of B = (13885|w|_a + 25432|w|_b) // 10000
+ 3 bits rounded up to whole bytes (``_slot_bits``, from the letter counts
alone).  Nothing needs its two spare bits; a narrower slot changes the
cost of every walk, so it is a change to measure on its own.  Multiplying
a packed row by q is a shift by B bits, so R and L are a shift and an add
each (``_walk``).  ``mu_q`` walks both rows left to right over the word,
and ``q_markoff`` the first row alone, the only one holding e12.
``_eval_walk`` takes the same steps at q = n/d on integer rows, each step
scaling them by d; ``mu`` is that walk at q = 1.  ``q_markoff_ratios``
walks a radix chain of factors with ``_eval_walk``, one letter per word and
gamma from the kept row of w[:-1], for the integer ratios that ``curves``
prints.  No other module knows the packed format.  Order along a radix
chain is decided in language.radix_chain_check, on the words where it can
be and by a difference of q_markoff values where it cannot.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from .qpoly import IntPolynomial, QMatrix, Scalar
from .words import christoffel_word

IntMatrix = tuple[tuple[int, int], tuple[int, int]]


def _slot_bits(w: str) -> int:
    """Slot width B for mu_q(w): bitlen(max mu(w)) <= (13885|w|_a + 25432|w|_b) // 10000 + 1,
    plus two spare bits, rounded up to whole bytes."""
    return ((13885 * w.count("a") + 25432 * w.count("b")) // 10000 + 10) // 8 * 8


def _unpack(value: int, bits: int) -> IntPolynomial:
    """The polynomial whose coefficient of q^i is slot i of `value`.

    `value` is nonnegative and `bits`, the slot width, is a multiple of 8.
    """
    width = bits // 8
    data = value.to_bytes(-(-value.bit_length() // 8), "little")
    return IntPolynomial([int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)])


def _walk(w: str, x: int, y: int, bits: int) -> tuple[int, int]:
    """Packed row (x, y) of a matrix M to the same row of M mu_q(w): R L per a, R R L L per b."""
    for letter in w:
        x, y = x << bits, x + y  # R
        if letter == "b":
            x, y = x << bits, x + y  # R
            x = (x + y) << bits  # L
        x = (x + y) << bits  # L
    return x, y


def _eval_walk(w: str, x: int, y: int, n: int, d: int) -> tuple[int, int]:
    """_walk at q = n/d on rows scaled by d per R or L, so by d^det_exponent(w), which keeps them integral."""
    for letter in w:
        x, y = n * x, d * (x + y)  # R
        if letter == "b":
            x, y = n * x, d * (x + y)  # R
            x, y = n * (x + y), d * y  # L
        x, y = n * (x + y), d * y  # L
    return x, y


def mu(w: str) -> IntMatrix:
    """Image of w under the integer morphism, one row walk per row at q = 1; mu("") is the identity."""
    return _eval_walk(w, 1, 0, 1, 1), _eval_walk(w, 0, 1, 1, 1)


@lru_cache(maxsize=1024)
def mu_q(w: str) -> QMatrix:
    """Image of w under the q-deformed morphism; mu_q("") is the identity.

    Evaluating every entry at q = 1 recovers mu(w).
    """
    bits = _slot_bits(w)
    (e11, e12), (e21, e22) = _walk(w, 1, 0, bits), _walk(w, 0, 1, bits)
    return QMatrix(*(_unpack(e, bits) for e in (e11, e12, e21, e22)))


def q_markoff_ratios(chain: Iterable[str], gammas: Sequence[Scalar]) -> Iterator[tuple[str, list[tuple[int, int]]]]:
    """(w, [(y, s) for each gamma]) with q_markoff(w) = y / s at q = gamma, for each w of
    `chain` and each gamma > 0, exactly, with no polynomial, in one pass over `chain`.

    As in the radix chain of a factor language, the words run by
    nondecreasing length, and each nonempty w follows w[:-1] among the words
    one letter shorter.  With (n, d) = gamma.as_integer_ratio(), the row of
    each gamma carries s = d^det_exponent(w) times the first row of mu_q(w)
    at n/d, in ints; it is one letter of _eval_walk on from the row of
    w[:-1], kept from the previous length, so two lengths of rows are held
    at a time.
    """
    ratios = [g.as_integer_ratio() for g in gammas]
    length, prev, rows = 0, {}, {"": [(1, 0)] * len(ratios)}
    for w in chain:
        if len(w) != length:
            length, prev, rows = len(w), rows, {}
        if w:
            rows[w] = [_eval_walk(w[-1], x, y, n, d) for (x, y), (n, d) in zip(prev[w[:-1]], ratios)]
        e = det_exponent(w)
        yield w, [(y, d**e) for (_, d), (_, y) in zip(ratios, rows[w])]


def q_markoff(w: str) -> IntPolynomial:
    """The q-Markoff polynomial of w: entry (1,2) of mu_q(w), from the first row alone.

    The slots fit every entry of mu(w).  Zero for the empty word.
    """
    bits = _slot_bits(w)
    return _unpack(_walk(w, 1, 0, bits)[1], bits)


def det_exponent(w: str) -> int:
    """Exponent n such that det(mu_q(w)) = q^n, namely 2|w|_a + 4|w|_b."""
    return 2 * w.count("a") + 4 * w.count("b")


class _MarkoffTripleFields(NamedTuple):
    x: int
    y: int
    z: int


class MarkoffTriple(_MarkoffTripleFields):
    """Positive solution of x^2 + y^2 + z^2 = 3xyz."""

    __slots__ = ()

    def __new__(cls, x: int, y: int, z: int):
        if x <= 0 or y <= 0 or z <= 0:
            raise ValueError("Markoff triples are positive")
        if x**2 + y**2 + z**2 != 3 * x * y * z:
            raise ValueError(f"({x},{y},{z}) does not solve the Markoff equation")
        return super().__new__(cls, x, y, z)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace goes through __new__

    def __str__(self) -> str:
        return f"({self.x},{self.y},{self.z})"


class ChristoffelNode(NamedTuple):
    """A node of the Christoffel tree: the standard factorization u.v of its word."""

    u: str
    v: str

    @property
    def word(self) -> str:
        return self.u + self.v

    def __str__(self) -> str:
        return f"{self.u}.{self.v}"


def parse_path(path: str | Iterable[str]) -> tuple[str, ...]:
    """Normalize a tree path to a tuple of "L"/"R" steps."""
    steps = tuple(path)
    bad = set(steps) - {"L", "R"}
    if bad:
        raise ValueError(f"tree path steps must be L or R, got {sorted(bad)}")
    return steps


def christoffel_node(path: str | Iterable[str]) -> ChristoffelNode:
    """Node of the Christoffel tree at `path` from the root (a, b).

    Left replaces (u, v) by (u, uv); Right replaces it by (uv, v).
    """
    u, v = "a", "b"
    for step in parse_path(path):
        if step == "L":
            v = u + v
        else:
            u = u + v
    return ChristoffelNode(u, v)


def markoff_triple(path: str | Iterable[str]) -> MarkoffTriple:
    """Markoff triple at `path` in the tree rooted at (1, 5, 2).

    Left maps (x, y, z) to (x, 3xy-z, y); Right maps it to (y, 3yz-x, z).
    The middle component equals mu(word) entry (1,2) for the Christoffel
    word at the same path.
    """
    x, y, z = 1, 5, 2
    for step in parse_path(path):
        if step == "L":
            x, y, z = x, 3 * x * y - z, y
        else:
            x, y, z = y, 3 * y * z - x, z
    return MarkoffTriple(x, y, z)


def tree_paths(depth: int) -> list[tuple[str, ...]]:
    """All tree paths of depth <= depth, in breadth-first left-to-right order."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    out: list[tuple[str, ...]] = [()]
    level: list[tuple[str, ...]] = [()]
    for _ in range(depth):
        level = [p + (s,) for p in level for s in ("L", "R")]
        out.extend(level)
    return out


def is_christoffel(w: str) -> bool:
    """Whether w is a lower Christoffel word, by the closed form.

    w is lower Christoffel iff w ∈ {a, b}, or k = |w|_b is coprime to n = |w|
    and w_i = ⌊(i+1)k/n⌋ - ⌊ik/n⌋ with a = 0, b = 1 (Berstel, Lauve,
    Reutenauer, Saliola, *Combinatorics on Words*, CRM 2008).
    """
    k, n = w.count("b"), len(w)
    return math.gcd(k, n) == 1 and w == christoffel_word(k, n)
