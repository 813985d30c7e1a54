"""Indistinguishable asymptotic pairs and their verification.

Two biinfinite sequences that differ at finitely many positions form an
asymptotic pair; the pair is indistinguishable when every finite pattern
gains exactly as many occurrences as it loses.  Occurrence differences
can only happen at shifts whose translated support touches the difference
set, so everything here is an exact finite computation.  ``build_pair``
reads the pair of a spec with mirror center, whose two sequences differ at
the center {-1, 0}; any other difference set is an AsymptoticPair built by
hand.  ``pair_report``
compares, per support, the multisets of words read from both sequences at
those shifts; the one-pattern count occ_diff is its reference in
tests/oracles.py, where a pattern is a {position: letter} dict.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, NamedTuple

from .language import BalancedSpec, Characteristic, Skew, sequence_window

LetterFn = Callable[[int], str]


class AsymptoticPair(NamedTuple):
    """Two sequence generators together with their finite difference set."""

    s: LetterFn
    t: LetterFn
    difference_set: frozenset[int]


def build_pair(spec: BalancedSpec) -> AsymptoticPair:
    """The asymptotic pair of a spec with mirror center, with difference set {-1, 0}.

    Only characteristic and skew specs carry the central factorization;
    other variants raise ValueError("no central factorization").  The
    first sequence is the spec's canonical one; the second swaps the two
    central letters.
    """
    if not isinstance(spec, (Characteristic, Skew)):
        raise ValueError("no central factorization")

    def s(i: int) -> str:
        return sequence_window(spec, i, i + 1)

    def t(i: int) -> str:
        j = -1 - i if i in (-1, 0) else i  # the central letters swap places
        return sequence_window(spec, j, j + 1)

    return AsymptoticPair(s, t, frozenset({-1, 0}))


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
    tests/oracles.py) is (gained, lost) with
    gained - lost = (times its word is read from s) - (times from t) over
    those shifts.  So a support is balanced iff the multisets of words
    read there from s and from t are equal.  Each sequence is read once,
    over [min D - 2*radius, max D + 2*radius], which covers every support.
    Counts of gapped patterns are sums of counts of contiguous ones, so
    this suffices; the test suite cross-checks it against a brute force
    over gapped supports.  The report counts the distinct words checked
    (by sorted shift, s before t) and keeps the first unbalanced one.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    diff = pair.difference_set
    if not diff:
        return PairReport(radius, 0, True)
    lo, hi = min(diff) - 2 * radius, max(diff) + 2 * radius
    s_win = "".join(pair.s(i) for i in range(lo, hi + 1))
    t_win = "".join(pair.t(i) for i in range(lo, hi + 1))
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
