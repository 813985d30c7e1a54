"""Slow reference implementations that the library's closed forms are tested against."""

from qmarkoff.words import cyclic_factors, is_balanced_family


def christoffel_words_upto(max_len):
    """All lower Christoffel words of length <= max_len (including "a" and "b").

    Built from the Christoffel tree: the root (a, b) and the children
    (u, uv) and (uv, v) of each node (u, v); every node's word is uv.
    """
    found = {w for w in ("a", "b") if max_len >= 1}
    frontier = [("a", "b")] if max_len >= 2 else []
    while frontier:
        nxt = []
        for u, v in frontier:
            w = u + v
            if len(w) <= max_len:
                found.add(w)
                nxt.append((u, w))
                nxt.append((w, v))
        frontier = nxt
    return found


def balanced_periodic_scan(w, max_n=None):
    """Whether the periodic repetition of w is balanced, by scanning factor lengths.

    An imbalance in a p-periodic sequence, if present, shows up at some
    factor length n <= p, so max_n defaults to p = len(w).
    """
    if not w:
        raise ValueError("empty word")
    for n in range(1, (max_n or len(w)) + 1):
        fs = cyclic_factors(w, n)
        if not is_balanced_family(fs, "a") or not is_balanced_family(fs, "b"):
            return False
    return True
