"""Finite binary words over {a, b}: Christoffel words, balance, Markoff property.

Words are plain Python strings containing only the letters "a" and "b"
(with a < b).  The alternative rendering over {0, 1} maps a -> 0, b -> 1;
``parse_word`` accepts either alphabet and normalizes to "ab".
``christoffel_word``, built by the standard-word recurrence, is the one
generator of Sturmian words: every word the package reads is cut from it.
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
    bad = sorted(set(w) - set(LETTERS))
    if bad:
        more = f" (+{len(bad) - 8} more)" if len(bad) > 8 else ""
        raise ValueError(f"malformed word {excerpt(text)}: letters {bad[:8]}{more} not in {{a,b,0,1}}")
    return w


def excerpt(text: str) -> str:
    """repr(text) for an error line, or when text is longer than 80 characters, that of its
    first 80 with its length, so a line never echoes a whole long input."""
    if len(text) <= 80:
        return repr(text)
    return f"{text[:80]!r}... ({len(text)} characters)"


def render_word(w: str, alphabet: str = "ab") -> str:
    """Render a word in the "ab" (default) or "01" alphabet."""
    if alphabet == "ab":
        return w
    if alphabet == "01":
        return w.translate(_TO_01)
    raise ValueError(f"unknown alphabet {alphabet!r}")


def christoffel_word(k: int, n: int) -> str:
    """The word whose letter i < n is b iff ⌊(i+1)k/n⌋ - ⌊ik/n⌋ = 1, for 0 <= k <= n.

    It is the lower Christoffel word of slope k/n when gcd(k, n) = 1, else
    the gcd(k, n)-th power of the one of the reduced slope.  For 0 < k/n =
    [0; a1, ..., am] < 1 that one is a·w·b, w the standard word s_m less its
    last two letters, from s_-1 = b, s_0 = a and s_j = s_(j-1)^aj s_(j-2)
    with a1 less 1 (Lothaire, Algebraic Combinatorics on Words, ch. 2).
    """
    if not 0 <= k <= n or n < 1:
        raise ValueError(f"need 0 <= k <= n and n >= 1, got k={k}, n={n}")
    if k in (0, n):
        return "ab"[k == n] * n
    prev, cur = "a", "a" * (n // k - 1) + "b"  # s_0 and s_1
    p, q = n % k, k
    while p:
        prev, cur = cur, cur * (q // p) + prev
        p, q = q % p, p
    return ("a" + cur[:-2] + "b") * q  # q = gcd(k, n)


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
