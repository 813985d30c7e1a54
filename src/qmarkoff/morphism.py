"""The Markoff matrix morphism, its q-deformation, and the twin binary trees.

The classical morphism sends a -> [[2,1],[1,1]] and b -> [[5,2],[2,1]];
its q-deformation replaces the generator images by matrices over Z[q]
that specialize back at q = 1.  The entry above the diagonal of the image
of a Christoffel word is a Markoff number, and its q-deformation is the
q-analog of that Markoff number.

Every entry of mu_q(w) has nonnegative coefficients, and each coefficient
is at most the entry's value at q = 1, so at most max mu(w); entries of mu
only grow when w is extended on either side.  So an entry of mu_q(w), or
of mu_q of any factor of w, packs into one int, sum c_i 2^(iB), with slots
of B = bitlen(max mu(w)) + 2 bits rounded up to whole bytes; the two spare
bits let ``_precedes`` compare packed entries.  A row (x, y) of the matrix
times MU_Q_A or MU_Q_B is then a few shifts by B bits and adds (``_step``).
``mu_q`` runs that step left to right over the word, and ``_chain_walk``
along a radix chain of factors, one step per word, for ``q_markoff_chain``
and ``first_unordered``.  No other module knows the packed format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import pairwise
from typing import Iterable, Iterator, Sequence

from .qpoly import IntPolynomial, QMatrix, poly
from .words import christoffel_word, reversal

IntMatrix = tuple[tuple[int, int], tuple[int, int]]

MU_A: IntMatrix = ((2, 1), (1, 1))
MU_B: IntMatrix = ((5, 2), (2, 1))

MU_Q_A = QMatrix(poly(0, 1, 1), poly(1), poly(0, 1), poly(1))
MU_Q_B = QMatrix(poly(0, 1, 2, 1, 1), poly(1, 1), poly(0, 1, 1), poly(1))

# D = mu_q(ba) - mu_q(ab) = [[0, q + q^4], [-q^2 - q^5, 0]]; conjugation by a
# generator image multiplies it by the generator's determinant q^2 or q^4.
_FLIP_MATRIX = QMatrix(poly(), poly(0, 1, 0, 0, 1), poly(0, 0, -1, 0, 0, -1), poly())


def _int_mat_mul(x: IntMatrix, y: IntMatrix) -> IntMatrix:
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def mu(w: str) -> IntMatrix:
    """Image of w under the integer morphism; mu("") is the identity."""
    m: IntMatrix = ((1, 0), (0, 1))
    for ch in w:
        m = _int_mat_mul(m, MU_A if ch == "a" else MU_B)
    return m


def _slot_bits(bound: int) -> int:
    """Slot width B for packing coefficients in [0, bound]: two spare bits, whole bytes."""
    return -(-(bound.bit_length() + 2) // 8) * 8


def _bias(bits: int, slots: int) -> int:
    """The packed int holding 2^(bits-1) in each of `slots` slots; bits is a multiple of 8."""
    return int.from_bytes((bytes(bits // 8 - 1) + b"\x80") * slots, "little")


def _precedes(f: int, g: int, bias: int) -> bool:
    """IntPolynomial.precedes on packed polynomials: g - f is nonzero and nonnegative.

    f and g share slots of B bits with coefficients below 2^(B-2), and `bias`
    has 2^(B-1) in every slot either uses.  Slot i of g + bias - f is then
    g_i - f_i + 2^(B-1), which borrows from no other slot and has its top bit
    set iff g_i >= f_i.
    """
    return f != g and (g + bias - f) & bias == bias


def _unpack(value: int, bits: int) -> IntPolynomial:
    """The polynomial whose coefficient of q^i is slot i of `value`.

    `value` is nonnegative and `bits`, the slot width, is a multiple of 8.
    """
    width = bits // 8
    data = value.to_bytes(-(-value.bit_length() // 8), "little")
    return IntPolynomial(int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width))


def _step(x: int, y: int, letter: str, bits: int) -> tuple[int, int]:
    """Packed row (x, y) of mu_q(w) to the same row of mu_q(w + letter).

    (x, y) * MU_Q_A = (q(x + y) + q^2 x, x + y) and (x, y) * MU_Q_B =
    (q(x + y) + q^2(2x + y) + q^3 x + q^4 x, (1 + q)x + y), in Horner form.
    """
    s = x + y
    if letter == "a":
        return ((x << bits) + s) << bits, s
    return ((((((x << bits) + x) << bits) + x + s) << bits) + s) << bits, (x << bits) + s


@lru_cache(maxsize=1024)
def mu_q(w: str) -> QMatrix:
    """Image of w under the q-deformed morphism; mu_q("") is the identity.

    Evaluating every entry at q = 1 recovers mu(w).
    """
    bits = _slot_bits(max(map(max, mu(w))))
    rows = [(1, 0), (0, 1)]
    for letter in w:
        rows = [_step(x, y, letter, bits) for x, y in rows]
    (e11, e12), (e21, e22) = rows
    return QMatrix(*(_unpack(e, bits) for e in (e11, e12, e21, e22)))


def _chain_walk(chain: Sequence[str]) -> tuple[int, Iterator[int]]:
    """Slot width B for `chain`, and q_markoff(w) packed in B-bit slots for each w of it.

    The longest words fix B, since every word is a factor of one of them.
    The first row of mu_q(w) is one step from the row of w[:-1] kept from
    the previous length, so two lengths of rows are held at a time.
    """
    longest = (w for w in chain if len(w) == len(chain[-1]))
    bits = _slot_bits(max((max(map(max, mu(w))) for w in longest), default=0))

    def packed() -> Iterator[int]:
        length, prev, rows = 0, {}, {"": (1, 0)}
        for w in chain:
            if len(w) != length:
                length, prev, rows = len(w), rows, {}
            if w:
                rows[w] = _step(*prev[w[:-1]], w[-1], bits)
            yield rows[w][1]

    return bits, packed()


def q_markoff_chain(chain: Sequence[str]) -> Iterator[IntPolynomial]:
    """q_markoff(w) for each w of `chain`, one matrix-row step per word and no mu_q.

    As in the radix chain of a factor language, the words run by
    nondecreasing length, each nonempty w follows w[:-1] among the words one
    letter shorter, and every word is a factor of one of the longest.
    """
    bits, packed = _chain_walk(chain)
    return (_unpack(p, bits) for p in packed)


def first_unordered(chain: Sequence[str]) -> int | None:
    """Least i with q_markoff(chain[i+1]) - q_markoff(chain[i]) not nonzero and nonnegative.

    None when there is none; `chain` is as in q_markoff_chain.  Each pair is
    decided on packed polynomials, with bias bits in every slot of degree
    below the largest det_exponent.
    """
    bits, packed = _chain_walk(chain)
    bias = _bias(bits, max(map(det_exponent, chain), default=0) + 1)  # deg e12 < det_exponent
    pairs = enumerate(pairwise(packed))
    return next((i for i, (f, g) in pairs if not _precedes(f, g, bias)), None)


def q_markoff(w: str) -> IntPolynomial:
    """The q-Markoff polynomial of w: entry (1,2) of mu_q(w).

    Zero for the empty word (identity matrix).
    """
    return mu_q(w).e12


def det_exponent(w: str) -> int:
    """Exponent n such that det(mu_q(w)) = q^n, namely 2|w|_a + 4|w|_b."""
    return 2 * w.count("a") + 4 * w.count("b")


def det_mu_q(w: str) -> IntPolynomial:
    """det(mu_q(w)) in closed form: the monomial q^(2|w|_a + 4|w|_b)."""
    return IntPolynomial.monomial(det_exponent(w))


def flip_matrix() -> QMatrix:
    """The constant flip matrix mu_q(ba) - mu_q(ab)."""
    return _FLIP_MATRIX


def flip_delta(u: str) -> QMatrix:
    """mu_q(reversal(u)·ba·u) - mu_q(reversal(u)·ab·u), checked against q^n * D.

    The difference always equals det(mu_q(u)) * D with det(mu_q(u)) = q^n,
    n = 2|u|_a + 4|u|_b; a mismatch would indicate broken arithmetic and
    raises ArithmeticError.
    """
    ru = reversal(u)
    delta = mu_q(ru + "ba" + u) - mu_q(ru + "ab" + u)
    expected = _FLIP_MATRIX.scale(det_mu_q(u))
    if delta != expected:
        raise ArithmeticError(f"flip identity violated for u={u!r}")
    return delta


@dataclass(frozen=True)
class PositivityReport:
    """Entries of mu_q(w) with the two positive combinations that drive monotonicity.

    combo1 = q*e11 - q^2*e12 + e21 and
    combo2 = (q+q^2)*e11 - (q^2+q^3+q^4)*e12 + e21 - q*e22;
    combo2 equals the rewrap gap q_markoff(awa) - q_markoff(bw).
    All six fields are nonzero with nonnegative coefficients, except that
    e12 = e21 = 0 when w is empty.
    """

    e11: IntPolynomial
    e12: IntPolynomial
    e21: IntPolynomial
    e22: IntPolynomial
    combo1: IntPolynomial
    combo2: IntPolynomial


def positivity_report(w: str) -> PositivityReport:
    """Compute the positivity certificate fields for mu_q(w)."""
    m = mu_q(w)
    q1 = poly(0, 1)
    combo1 = q1 * m.e11 - poly(0, 0, 1) * m.e12 + m.e21
    combo2 = poly(0, 1, 1) * m.e11 - poly(0, 0, 1, 1, 1) * m.e12 + m.e21 - q1 * m.e22
    return PositivityReport(m.e11, m.e12, m.e21, m.e22, combo1, combo2)


def delta_last_letter(w: str) -> IntPolynomial:
    """q_markoff(w·b) - q_markoff(w·a); equals q * mu_q(w).e11, so nonzero nonnegative."""
    return q_markoff(w + "b") - q_markoff(w + "a")


@dataclass(frozen=True)
class WrapDeltas:
    """The two gaps along a length-increasing step bw -> awa -> awb."""

    awa_minus_bw: IntPolynomial
    awb_minus_awa: IntPolynomial


def delta_wrap(w: str) -> WrapDeltas:
    """Gaps q_markoff(awa) - q_markoff(bw) and q_markoff(awb) - q_markoff(awa).

    The first equals combo2 of positivity_report(w); both are nonzero with
    nonnegative coefficients.
    """
    return WrapDeltas(
        q_markoff("a" + w + "a") - q_markoff("b" + w),
        q_markoff("a" + w + "b") - q_markoff("a" + w + "a"),
    )


def flip_prefix_delta(u: str, v: str) -> IntPolynomial:
    """q_markoff(ũ·ba·v) - q_markoff(ũ·ab·v) for u a prefix of v or vice versa.

    Nonzero with nonnegative coefficients; raises ValueError when neither
    word is a prefix of the other.
    """
    if not (v.startswith(u) or u.startswith(v)):
        raise ValueError("prefix precondition violated")
    ru = reversal(u)
    return q_markoff(ru + "ba" + v) - q_markoff(ru + "ab" + v)


@dataclass(frozen=True)
class MarkoffTriple:
    """Positive solution of x^2 + y^2 + z^2 = 3xyz."""

    x: int
    y: int
    z: int

    def __post_init__(self):
        if self.x <= 0 or self.y <= 0 or self.z <= 0:
            raise ValueError("Markoff triples are positive")
        if self.x**2 + self.y**2 + self.z**2 != 3 * self.x * self.y * self.z:
            raise ValueError(f"({self.x},{self.y},{self.z}) does not solve the Markoff equation")

    @property
    def is_proper(self) -> bool:
        return len({self.x, self.y, self.z}) == 3

    def __str__(self) -> str:
        return f"({self.x},{self.y},{self.z})"


@dataclass(frozen=True)
class ChristoffelNode:
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
