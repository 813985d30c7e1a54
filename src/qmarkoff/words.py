"""Finite binary words over {a, b}: orders, factors, balance, Markoff property.

Words are plain Python strings containing only the letters "a" and "b"
(with a < b).  The alternative rendering over {0, 1} maps a -> 0, b -> 1;
``parse_word`` accepts either alphabet and normalizes to "ab".
"""

from __future__ import annotations

LETTERS = ("a", "b")

_TO_AB = str.maketrans("01", "ab")
_TO_01 = str.maketrans("ab", "01")


def parse_word(text: str) -> str:
    """Normalize a word given over {a,b} or {0,1} to the internal "ab" form.

    Raises ValueError on any other character.
    """
    w = text.translate(_TO_AB)
    bad = set(w) - set(LETTERS)
    if bad:
        raise ValueError(f"malformed word {text!r}: letters {sorted(bad)} not in {{a,b,0,1}}")
    return w


def render_word(w: str, alphabet: str = "ab") -> str:
    """Render a word in the "ab" (default) or "01" alphabet."""
    if alphabet == "ab":
        return w
    if alphabet == "01":
        return w.translate(_TO_01)
    raise ValueError(f"unknown alphabet {alphabet!r}")


def reversal(w: str) -> str:
    """The reversal (mirror image) of w; an involution."""
    return w[::-1]


def lex_cmp(u: str, v: str) -> int:
    """Lexicographic comparison with a < b; a proper prefix is smaller.

    Returns -1, 0 or 1.
    """
    return (u > v) - (u < v)


def radix_key(w: str) -> tuple[int, str]:
    """Sort key realizing the radix order: by length, then lexicographically."""
    return (len(w), w)


def radix_cmp(u: str, v: str) -> int:
    """Radix comparison: shorter word first, same length falls back to lex.

    A total order; returns -1, 0 or 1.
    """
    ku, kv = radix_key(u), radix_key(v)
    return (ku > kv) - (ku < kv)


def factors(w: str, n: int) -> list[str]:
    """All length-n contiguous subwords of w, lex-sorted without repeats.

    factors(w, 0) == [""]; empty list when n > len(w).
    """
    if n < 0:
        raise ValueError("factor length must be >= 0")
    if n == 0:
        return [""]
    return sorted({w[i : i + n] for i in range(len(w) - n + 1)})


def is_balanced_family(words, letter: str) -> bool:
    """True iff the letter-counts over a set of same-length words differ by <= 1.

    Raises ValueError when the words do not all have the same length.
    """
    words = list(words)
    if not words:
        return True
    if len({len(w) for w in words}) != 1:
        raise ValueError("heterogeneous lengths")
    counts = [w.count(letter) for w in words]
    return max(counts) - min(counts) <= 1


def cyclic_factors(w: str, n: int) -> list[str]:
    """Length-n factors of the periodic repetition of w: those of its (|w|+n-1)-letter prefix."""
    if not w:
        raise ValueError("empty period")
    return factors((w * (n // len(w) + 2))[: len(w) + n - 1], n)


def christoffel_word(k: int, n: int) -> str:
    """The word whose letter i < n is b iff ⌊(i+1)k/n⌋ - ⌊ik/n⌋ = 1, for 0 <= k <= n.

    It is the lower Christoffel word of slope k/n when gcd(k, n) = 1, else
    the gcd(k, n)-th power of the one of the reduced slope.
    """
    if not 0 <= k <= n or n < 1:
        raise ValueError(f"need 0 <= k <= n and n >= 1, got k={k}, n={n}")
    return "".join("ab"[(i + 1) * k // n - i * k // n] for i in range(n))


def is_balanced_periodic(w: str) -> bool:
    """Whether the biinfinite periodic repetition of w is balanced.

    That holds iff w is a conjugate of a power of a Christoffel word
    (Lothaire, *Algebraic Combinatorics on Words*, ch. 2), i.e. a factor
    of c·c for c = christoffel_word(|w|_b, |w|).
    """
    if not w:
        raise ValueError("empty word")
    c = christoffel_word(w.count("b"), len(w))
    return w in c + c


def has_markoff_property_periodic(w: str) -> bool:
    """Whether the biinfinite periodic repetition s of w has the Markoff property.

    For every factorization s = u x y v with {x,y} = {a,b}: either the
    mirror condition reversal(u) = v holds, or u = u'ym and v = m̃xv' for
    some word m.  Both sides of the mirror are p-periodic, so scanning a
    window of 4p letters around each occurrence decides: at the first
    mirror mismatch k the only admissible witness has |m| = k, and it
    works iff the mismatching letters are (y, x) in that order.
    """
    if not w:
        raise ValueError("empty word")
    p = len(w)
    span = 2 * p

    def s(i: int) -> str:
        return w[i % p]

    for i in range(p):
        x, y = s(i), s(i + 1)
        if x == y:
            continue
        for k in range(span):
            left, right = s(i - 1 - k), s(i + 2 + k)
            if left != right:
                if not (left == y and right == x):
                    return False
                break
        # no mismatch within 2p: the mirror condition holds globally
    return True
