"""The Markoff matrix morphism, its q-deformation, and the twin binary trees.

The classical morphism sends a -> [[2,1],[1,1]] and b -> [[5,2],[2,1]];
its q-deformation replaces the generator images by matrices over Z[q]
that specialize back at q = 1.  The entry above the diagonal of the image
of a Christoffel word is a Markoff number, and its q-deformation is the
q-analog of that Markoff number.

Every entry of mu_q(w) has nonnegative coefficients, and each coefficient
is at most the entry's value at q = 1, so at most max mu(w) <= ||mu(w)||_2
<= phi^(2|w|_a) (3 + 2 sqrt 2)^(|w|_b), the spectral norms of MU_A and MU_B,
whose log2 are below 1.3885 and 2.5432.  So an entry of mu_q(w), or of mu_q
of any factor of w, packs into one int, sum c_i 2^(iB), with slots of
B = (13885|w|_a + 25432|w|_b) // 10000 + 3 bits rounded up to whole bytes
(``_slot_bits``, from the letter counts alone).  Nothing needs its two
spare bits; a narrower slot changes the cost of every walk, so it is a
change to measure on its own.  A row (x, y) of the matrix times MU_Q_A or
MU_Q_B is then a few shifts by B bits and adds (``_step``).  ``mu_q`` runs
that step left to right over the word on both rows, and ``q_markoff`` on
the first row alone, the only one holding e12.  ``_chain_rows`` steps
along a radix chain of factors, one step per word from the kept row of
w[:-1]: with ``_step`` for ``q_markoff_chain``, and with ``_eval_step``,
the same step at q = n/d on integer rows scaled by a power of d, for the
integer ratios of ``q_markoff_ratios``.  No other module knows the packed
format.  Order along a radix chain is decided in
language.radix_chain_check, on the words where it can be and by a
difference of q_markoff values where it cannot.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from .qpoly import IntPolynomial, QMatrix, Scalar, poly
from .words import christoffel_word

IntMatrix = tuple[tuple[int, int], tuple[int, int]]

MU_A: IntMatrix = ((2, 1), (1, 1))
MU_B: IntMatrix = ((5, 2), (2, 1))

MU_Q_A = QMatrix(poly(0, 1, 1), poly(1), poly(0, 1), poly(1))
MU_Q_B = QMatrix(poly(0, 1, 2, 1, 1), poly(1, 1), poly(0, 1, 1), poly(1))

def _slot_bits(w: str) -> int:
    """Slot width B for mu_q(w) and its factors: bitlen(max mu(w)) <= (13885|w|_a +
    25432|w|_b) // 10000 + 1, plus two spare bits, rounded up to whole bytes."""
    return ((13885 * w.count("a") + 25432 * w.count("b")) // 10000 + 10) // 8 * 8


def _unpack(value: int, bits: int) -> IntPolynomial:
    """The polynomial whose coefficient of q^i is slot i of `value`.

    `value` is nonnegative and `bits`, the slot width, is a multiple of 8.
    """
    width = bits // 8
    data = value.to_bytes(-(-value.bit_length() // 8), "little")
    return IntPolynomial([int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)])


def _step(x: int, y: int, letter: str, bits: int) -> tuple[int, int]:
    """Packed row (x, y) of mu_q(w) to the same row of mu_q(w + letter).

    (x, y) * MU_Q_A = (q(x + y) + q^2 x, x + y) and (x, y) * MU_Q_B =
    (q(x + y) + q^2(2x + y) + q^3 x + q^4 x, (1 + q)x + y), in Horner form.
    """
    s = x + y
    if letter == "a":
        return ((x << bits) + s) << bits, s
    return ((((((x << bits) + x) << bits) + x + s) << bits) + s) << bits, (x << bits) + s


def _eval_step(x: int, y: int, letter: str, n: int, d: int) -> tuple[int, int]:
    """_step at q = n/d on rows scaled by d^det_exponent(w), which keeps them integral.

    The letter a multiplies the scale by d^2 and b by d^4, as it does q^det.
    """
    s = x + y
    if letter == "a":
        return (x * n + s * d) * n, s * d * d
    dd = d * d
    return (((x * (n + d) * n + (x + s) * dd) * n + s * dd * d) * n, (x * n + s * d) * dd * d)


def _row(w: str, row: tuple[int, int], step, *args) -> tuple[int, int]:
    """`row` carried through w left to right, one `step(x, y, letter, *args)` per letter."""
    for letter in w:
        row = step(*row, letter, *args)
    return row


def mu(w: str) -> IntMatrix:
    """Image of w under the integer morphism, one row walk per row; mu("") is the identity.

    _eval_step at q = 1 is the integer step: (x, y) * MU_A and (x, y) * MU_B.
    """
    return tuple(_row(w, start, _eval_step, 1, 1) for start in ((1, 0), (0, 1)))


@lru_cache(maxsize=1024)
def mu_q(w: str) -> QMatrix:
    """Image of w under the q-deformed morphism; mu_q("") is the identity.

    Evaluating every entry at q = 1 recovers mu(w).
    """
    bits = _slot_bits(w)
    (e11, e12), (e21, e22) = (_row(w, start, _step, bits) for start in ((1, 0), (0, 1)))
    return QMatrix(*(_unpack(e, bits) for e in (e11, e12, e21, e22)))


def _chain_rows(chain: Sequence[str], step, *args) -> Iterator[tuple[int, int]]:
    """First row of mu_q(w) for each w of `chain`, one `step(x, y, letter, *args)` per word.

    The row of w is one step from the row of w[:-1], kept from the previous
    length, so two lengths of rows are held at a time.
    """
    length, prev, rows = 0, {}, {"": (1, 0)}
    for w in chain:
        if len(w) != length:
            length, prev, rows = len(w), rows, {}
        if w:
            rows[w] = step(*prev[w[:-1]], w[-1], *args)
        yield rows[w]


def q_markoff_chain(chain: Sequence[str]) -> Iterator[IntPolynomial]:
    """q_markoff(w) for each w of `chain`, one matrix-row step per word and no mu_q.

    As in the radix chain of a factor language, the words run by
    nondecreasing length, and each nonempty w follows w[:-1] among the words
    one letter shorter.  The slots are the widest that any word needs.
    """
    bits = max(map(_slot_bits, chain))
    return (_unpack(y, bits) for _, y in _chain_rows(chain, _step, bits))


def q_markoff_ratios(chain: Sequence[str], gammas: Sequence[Scalar]) -> Iterator[tuple[str, list[tuple[int, int]]]]:
    """(w, [(y, s) for each gamma]) with q_markoff(w) = y / s at q = gamma, for each w of
    `chain` and each gamma > 0, exactly, with no polynomial.

    `chain` is as in q_markoff_chain.  With (n, d) = gamma.as_integer_ratio(),
    the walk of each gamma carries s = d^det_exponent(w) times the first row
    of mu_q(w) at n/d, in ints.
    """
    ratios = [g.as_integer_ratio() for g in gammas]
    walks = [_chain_rows(chain, _eval_step, n, d) for n, d in ratios]
    for w, *rows in zip(chain, *walks):
        e = det_exponent(w)
        yield w, [(y, d**e) for (_, d), (_, y) in zip(ratios, rows)]


def q_markoff(w: str) -> IntPolynomial:
    """The q-Markoff polynomial of w: entry (1,2) of mu_q(w), from the first row alone.

    The slots fit every entry of mu(w).  Zero for the empty word.
    """
    bits = _slot_bits(w)
    return _unpack(_row(w, (1, 0), _step, bits)[1], bits)


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

    @property
    def is_proper(self) -> bool:
        return len({self.x, self.y, self.z}) == 3

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
