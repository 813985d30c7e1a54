import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarkoff.language import Characteristic, Mechanical, Periodic, Skew
from qmarkoff.pairs import (
    AsymptoticPair,
    PairReport,
    build_pair,
    pair_report,
)
from qmarkoff.words import render_word

from oracles import is_indistinguishable_up_to, occ_diff, pair_report_by_patterns, swapped

FIB = Characteristic((1,) * 24)


def indistinguishable_bruteforce(pair, radius):
    """Oracle: every pattern on every (possibly gapped) support within the radius."""
    universe = range(-radius, radius + 1)
    for size in range(1, 2 * radius + 2):
        for support in itertools.combinations(universe, size):
            for letters in itertools.product("ab", repeat=size):
                gained, lost = occ_diff(pair, dict(zip(support, letters)))
                if gained != lost:
                    return False
    return True


def word_reader(word, origin):
    """Window reader of a finite word whose letter at `origin` is at position 0; no position outside it."""
    def s(lo, hi):
        assert 0 <= lo + origin <= hi + origin <= len(word), (lo, hi)
        return word[lo + origin : hi + origin]

    return s


def shift_pair(pair, n0):
    """`pair` moved n0 places to the right: its difference set becomes {d + n0}."""
    return AsymptoticPair(lambda lo, hi: pair.s(lo - n0, hi - n0), frozenset(d + n0 for d in pair.difference_set))


def flip_control_pair(spec, position=0):
    """Pair differing at exactly one position: never indistinguishable."""
    return AsymptoticPair(build_pair(spec).s, frozenset({position}))


def test_build_pair_fibonacci_windows():
    pair = build_pair(FIB)
    assert pair.difference_set == frozenset({-1, 0})
    assert render_word(pair.s(-8, 8), "01") == "1010010010100101"
    assert render_word(swapped(pair).s(-8, 8), "01") == "1010010100100101"


def test_build_pair_requires_central_factorization():
    with pytest.raises(ValueError, match="no central factorization"):
        build_pair(Periodic("ab"))
    with pytest.raises(ValueError, match="no central factorization"):
        build_pair(Mechanical(Fraction(2, 5)))


def test_occ_diff_single_letter():
    pair = build_pair(FIB)
    assert occ_diff(pair, {0: "a"}) == (1, 1)
    assert occ_diff(pair, {0: "b"}) == (1, 1)


def test_occ_diff_empty_pattern():
    pair = build_pair(FIB)
    assert occ_diff(pair, {}) == (0, 0)


def test_occ_diff_central_window_pattern():
    pair = build_pair(FIB)
    pattern = {-1: pair.s(-1, 0), 0: pair.s(0, 1)}
    gained, lost = occ_diff(pair, pattern)
    assert gained == lost


def test_occ_diff_symmetry():
    pair = build_pair(FIB)
    swapped_pair = swapped(pair)
    for word in ("a", "ab", "aba", "abaab"):
        pattern = dict(enumerate(word))
        assert occ_diff(pair, pattern) == tuple(reversed(occ_diff(swapped_pair, pattern)))


def test_occ_diff_shift_invariance():
    p0 = build_pair(FIB)
    p7 = shift_pair(p0, 7)
    for word in ("a", "ba", "aab", "abaab"):
        for start in (-2, 0, 3):
            base = dict(enumerate(word, start))
            shifted = dict(enumerate(word, start + 7))
            assert occ_diff(p0, base) == occ_diff(p7, shifted)


def test_fibonacci_pair_indistinguishable():
    pair = build_pair(FIB)
    for radius in range(1, 9):
        assert is_indistinguishable_up_to(pair, radius)


def test_skew_pair_indistinguishable():
    for spec in (Skew(), Skew(m="aba", form="blocks")):
        assert is_indistinguishable_up_to(build_pair(spec), 6)


def test_control_pair_distinguishable():
    ctrl = flip_control_pair(FIB)
    assert not is_indistinguishable_up_to(ctrl, 1)
    report = pair_report(ctrl, 1)
    assert not report.indistinguishable
    assert report.failing is not None


def test_bruteforce_noncontiguous_agreement_radius4():
    pair = build_pair(FIB)
    for radius in range(1, 5):
        assert is_indistinguishable_up_to(pair, radius) == indistinguishable_bruteforce(
            pair, radius
        )
    ctrl = flip_control_pair(FIB)
    for radius in range(1, 5):
        assert is_indistinguishable_up_to(ctrl, radius) == indistinguishable_bruteforce(
            ctrl, radius
        )


def test_window_language_equality():
    pair = build_pair(FIB)
    for n in range(1, 9):
        s_win = pair.s(-n, n)
        t_win = swapped(pair).s(-n, n)
        s_factors = {s_win[i : i + n] for i in range(n + 1)}
        t_factors = {t_win[i : i + n] for i in range(n + 1)}
        assert s_factors == t_factors


def test_pair_report_counts():
    report = pair_report(build_pair(FIB), 6)
    assert report.indistinguishable
    assert report.radius == 6
    assert report.patterns_checked > 0
    with pytest.raises(ValueError):
        pair_report(build_pair(FIB), 0)


def test_control_pair_report_witness():
    ctrl = flip_control_pair(FIB)
    for radius in (1, 3):
        report = pair_report(ctrl, radius)
        assert report.patterns_checked == 1
        assert report.failing == (0, "b")


@settings(max_examples=80, deadline=None)
@given(
    base=st.text(alphabet="ab", min_size=1, max_size=8),
    positions=st.sets(st.integers(-6, 6), max_size=3),
    radius=st.integers(1, 5),
)
def test_pair_report_matches_per_pattern_oracle_periodic(base, positions, radius):
    pair = AsymptoticPair(lambda lo, hi: "".join(base[i % len(base)] for i in range(lo, hi)), frozenset(positions))
    assert pair_report(pair, radius) == pair_report_by_patterns(pair, radius)


@settings(max_examples=6, deadline=None)
@given(word=st.text(alphabet="ab", min_size=33, max_size=33),
       positions=st.sets(st.integers(-6, 6), min_size=1, max_size=3))
@pytest.mark.parametrize("spec", [FIB, Skew(), Skew(m="aba", form="blocks")])
@pytest.mark.parametrize("n0", [-5, 0, 3])
def test_pair_report_matches_per_pattern_oracle_pairs(spec, n0, word, positions):
    pair = shift_pair(build_pair(spec), n0)
    control = AsymptoticPair(pair.s, frozenset({n0}))
    drawn = AsymptoticPair(word_reader(word, 16), frozenset(positions))  # any word, flipped at 1-3 places
    for radius in range(1, 6):
        for p in (pair, control, drawn):
            assert pair_report(p, radius) == pair_report_by_patterns(p, radius)


def test_pair_report_reads_each_position_once():
    pair = build_pair(FIB)
    reads = []
    radius = 48
    wrapped = AsymptoticPair(lambda lo, hi: reads.append((lo, hi)) or pair.s(lo, hi), pair.difference_set)
    report = pair_report(wrapped, radius)
    assert report == pair_report(pair, radius)
    assert report.indistinguishable and report.patterns_checked == 1322
    assert reads == [(min(pair.difference_set) - 2 * radius, max(pair.difference_set) + 2 * radius + 1)]
    shifted = AsymptoticPair(wrapped.s, frozenset({-7, 2, 5}))
    reads.clear()
    pair_report(shifted, 3)
    assert reads == [(-13, 12)]


def test_pair_report_empty_difference_set():
    def unread(lo, hi):
        raise AssertionError("no letter should be read")

    pair = AsymptoticPair(unread, frozenset())
    assert pair_report(pair, 4) == PairReport(4, 0, True)
    with pytest.raises(ValueError):
        pair_report(pair, 0)
