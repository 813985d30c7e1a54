"""Indistinguishable asymptotic pairs: patterns, occurrence counting, verification.

Two biinfinite sequences that differ at finitely many positions form an
asymptotic pair; the pair is indistinguishable when every finite pattern
gains exactly as many occurrences as it loses.  Occurrence differences
can only happen at shifts whose translated support touches the difference
set, so everything here is an exact finite computation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .language import BalancedSpec, Characteristic, Skew, letter_at

LetterFn = Callable[[int], str]


@dataclass(frozen=True)
class Pattern:
    """A finite assignment of letters to integer positions (support may have gaps)."""

    assignment: Mapping[int, str]

    def __post_init__(self):
        object.__setattr__(self, "assignment", dict(self.assignment))

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.assignment)

    @classmethod
    def from_word(cls, word: str, start: int = 0) -> "Pattern":
        """Contiguous pattern placing `word` at positions start..start+len-1."""
        return cls({start + i: ch for i, ch in enumerate(word)})


@dataclass(frozen=True)
class AsymptoticPair:
    """Two sequence generators together with their finite difference set."""

    s: LetterFn
    t: LetterFn
    difference_set: frozenset[int]

    def check_window(self, radius: int) -> bool:
        """Verify on [-radius, radius] that s and t differ exactly on the difference set."""
        return all(
            (self.s(i) != self.t(i)) == (i in self.difference_set)
            for i in range(-radius, radius + 1)
        )

    def swapped(self) -> "AsymptoticPair":
        return AsymptoticPair(self.t, self.s, self.difference_set)


def build_pair(spec: BalancedSpec, n0: int = 0) -> AsymptoticPair:
    """The asymptotic pair of a spec with mirror center, shifted to difference set {n0-1, n0}.

    Only characteristic and skew specs carry the central factorization;
    other variants raise ValueError("no central factorization").  The
    first sequence is the spec's canonical one; the second swaps the two
    central letters.
    """
    if not isinstance(spec, (Characteristic, Skew)):
        raise ValueError("no central factorization")

    def s(i: int) -> str:
        return letter_at(spec, i - n0)

    def t(i: int) -> str:
        j = i - n0
        if j == -1:
            return letter_at(spec, 0)
        if j == 0:
            return letter_at(spec, -1)
        return letter_at(spec, j)

    return AsymptoticPair(s, t, frozenset({n0 - 1, n0}))


def occ_diff(pair: AsymptoticPair, pattern: Pattern) -> tuple[int, int]:
    """(#occurrences gained by s, #occurrences gained by t) for one pattern.

    A shift n is an occurrence of the pattern in a sequence when the
    sequence matches the assignment translated by n.  Outside the shifts
    whose translated support meets the difference set both sequences
    agree, so only those finitely many shifts are examined.
    """
    items = tuple(pattern.assignment.items())
    if not items:
        return (0, 0)
    shifts = {d - off for d in pair.difference_set for off, _ in items}
    s_only = t_only = 0
    for n in sorted(shifts):
        in_s = all(pair.s(n + off) == letter for off, letter in items)
        in_t = all(pair.t(n + off) == letter for off, letter in items)
        if in_s and not in_t:
            s_only += 1
        elif in_t and not in_s:
            t_only += 1
    return (s_only, t_only)


def is_indistinguishable_up_to(pair: AsymptoticPair, radius: int) -> bool:
    """Whether every pattern checked by pair_report(pair, radius) is balanced."""
    return pair_report(pair, radius).indistinguishable


@dataclass
class PairReport:
    """Outcome of an indistinguishability check."""

    radius: int
    patterns_checked: int
    indistinguishable: bool
    failing: Pattern | None = field(default=None)


def pair_report(pair: AsymptoticPair, radius: int) -> PairReport:
    """Check occurrence balance for contiguous patterns of width <= radius.

    Also checks the full-window support [-radius, radius].  Only shifts
    whose translated support meets the difference set D can tell s and t
    apart, and occ_diff of a contiguous pattern is (gained, lost) with
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
                return PairReport(radius, checked, False, Pattern.from_word(word, off))
    return PairReport(radius, checked, True)
