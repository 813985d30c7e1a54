"""Indistinguishable asymptotic pairs and their verification.

Two biinfinite sequences that differ at finitely many positions form an
asymptotic pair; the pair is indistinguishable when every finite pattern
gains exactly as many occurrences as it loses.  Over {a, b} a pair is one
sequence s and the difference set D: the other sequence t is s with its
letters at D flipped a <-> b.  Occurrence differences can only happen at
shifts whose translated support touches D, so everything here is an exact
finite computation.  ``build_pair`` reads the pair of a spec with mirror
center, D = {-1, 0}; any other D is an AsymptoticPair built by hand.
``pair_report`` compares, per support, the multisets of words read from s
and t at those shifts; the one-pattern count occ_diff is its reference in
tests/oracles.py, where a pattern is a {position: letter} dict.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Callable, NamedTuple

from .language import BalancedSpec, Characteristic, Skew, sequence_window


class AsymptoticPair(NamedTuple):
    """A sequence s and the finite set where the other sequence has its letter flipped.

    s(lo, hi) returns the letters of s at positions lo..hi-1, as sequence_window does.
    """

    s: Callable[[int, int], str]
    difference_set: frozenset[int]


def build_pair(spec: BalancedSpec) -> AsymptoticPair:
    """The asymptotic pair of a spec with mirror center, with difference set {-1, 0}.

    Only characteristic and skew specs carry the central factorization;
    other variants raise ValueError("no central factorization").  s is the
    spec's canonical sequence; t swaps its two central letters, which
    always differ (ab, or xy or yx for a skew spec), so it flips both.
    """
    if not isinstance(spec, (Characteristic, Skew)):
        raise ValueError("no central factorization")
    return AsymptoticPair(partial(sequence_window, spec), frozenset({-1, 0}))


class PairReport(NamedTuple):
    """Outcome of an indistinguishability check.

    failing is the first unbalanced pattern, as (offset, word): word at positions offset, offset + 1, ...
    """

    radius: int
    patterns_checked: int
    indistinguishable: bool
    failing: tuple[int, str] | None = None


def pair_report(pair: AsymptoticPair, radius: int) -> PairReport:
    """Check occurrence balance for contiguous patterns of width <= radius.

    Also checks the full-window support [-radius, radius].  Only shifts
    whose translated support meets the difference set D can tell s and t
    apart, and the occurrence count of a contiguous pattern (occ_diff in
    tests/oracles.py) is (gained, lost) with gained - lost = (times its word
    is read from s) - (times from t) over those shifts.  So a support is
    balanced iff the multisets of words read there from s and from t are
    equal.  s is read once, over [min D - 2*radius, max D + 2*radius],
    which covers every support, and t is that window flipped at D.  Counts
    of gapped patterns are sums of counts of contiguous ones, so this
    suffices (the tests check it against a brute force over gapped
    supports).  The report counts the distinct words checked (by sorted
    shift, s before t) and keeps the first unbalanced one.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    diff = pair.difference_set
    if not diff:
        return PairReport(radius, 0, True)
    lo = min(diff) - 2 * radius
    s_win = pair.s(lo, max(diff) + 2 * radius + 1)
    t_win = "".join("ab"[c == "a"] if i in diff else c for i, c in enumerate(s_win, lo))
    supports = [(0, width) for width in range(1, radius + 1)] + [(-radius, 2 * radius + 1)]
    checked = 0
    for off, width in supports:
        balance: Counter[str] = Counter()
        for n in sorted({d - k for d in diff for k in range(off, off + width)}):
            i = n + off - lo
            balance[s_win[i : i + width]] += 1
            balance[t_win[i : i + width]] -= 1
        for word, count in balance.items():
            checked += 1
            if count:
                return PairReport(radius, checked, False, (off, word))
    return PairReport(radius, checked, True)
