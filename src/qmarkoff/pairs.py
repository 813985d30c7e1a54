"""Indistinguishable asymptotic pairs: patterns, occurrence counting, verification.

Two biinfinite sequences that differ at finitely many positions form an
asymptotic pair; the pair is indistinguishable when every finite pattern
gains exactly as many occurrences as it loses.  Occurrence differences
can only happen at shifts whose translated support touches the difference
set, so everything here is an exact finite computation.
"""

from __future__ import annotations

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


def _observed_patterns(pair: AsymptoticPair, support: tuple[int, ...]):
    """Patterns read off s and t at every shift whose support touches the difference set.

    Any pattern on this support not among them occurs identically in both
    sequences, so its occurrence difference is trivially (0, 0).
    """
    shifts = {d - off for d in pair.difference_set for off in support}
    seen = set()
    for n in sorted(shifts):
        for seq in (pair.s, pair.t):
            key = tuple((off, seq(n + off)) for off in support)
            if key not in seen:
                seen.add(key)
                yield Pattern(dict(key))


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

    Also checks the full-window support [-radius, radius].  For
    one-dimensional sequences, counts of patterns with gaps are sums of
    counts of contiguous ones, so this contiguous enumeration is
    sufficient; the reduction is cross-validated against a brute-force
    enumeration over gapped supports in the test suite.  The report counts
    the patterns checked and keeps the first unbalanced one as witness.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    supports = [tuple(range(width)) for width in range(1, radius + 1)]
    supports.append(tuple(range(-radius, radius + 1)))
    checked = 0
    for support in supports:
        for pattern in _observed_patterns(pair, support):
            checked += 1
            gained, lost = occ_diff(pair, pattern)
            if gained != lost:
                return PairReport(radius, checked, False, pattern)
    return PairReport(radius, checked, True)
