import itertools
from collections import Counter
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

from oracles import check_window, is_indistinguishable_up_to, occ_diff, pair_report_by_patterns, swapped

FIB = Characteristic((1,) * 24)


def window(fn, lo, hi):
    return "".join(fn(i) for i in range(lo, hi))


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


def flipped_pair(base, positions):
    """Pair of `base` and its copy with the letters at `positions` swapped."""
    positions = frozenset(positions)

    def flipped(i):
        return {"a": "b", "b": "a"}[base(i)] if i in positions else base(i)

    return AsymptoticPair(base, flipped, positions)


def shift_pair(pair, n0):
    """`pair` moved n0 places to the right: its difference set becomes {d + n0}."""
    return AsymptoticPair(lambda i: pair.s(i - n0), lambda i: pair.t(i - n0),
                          frozenset(d + n0 for d in pair.difference_set))


def flip_control_pair(spec, position=0):
    """Pair differing at exactly one position: never indistinguishable."""
    return flipped_pair(build_pair(spec).s, {position})


def test_build_pair_fibonacci_windows():
    pair = build_pair(FIB)
    assert pair.difference_set == frozenset({-1, 0})
    assert render_word(window(pair.s, -8, 8), "01") == "1010010010100101"
    assert render_word(window(pair.t, -8, 8), "01") == "1010010100100101"
    assert check_window(pair, 40)


def test_build_pair_requires_central_factorization():
    with pytest.raises(ValueError, match="no central factorization"):
        build_pair(Periodic("ab"))
    with pytest.raises(ValueError, match="no central factorization"):
        build_pair(Mechanical(Fraction(2, 5), Fraction(1, 3)))


def test_occ_diff_single_letter():
    pair = build_pair(FIB)
    assert occ_diff(pair, {0: "a"}) == (1, 1)
    assert occ_diff(pair, {0: "b"}) == (1, 1)


def test_occ_diff_empty_pattern():
    pair = build_pair(FIB)
    assert occ_diff(pair, {}) == (0, 0)


def test_occ_diff_central_window_pattern():
    pair = build_pair(FIB)
    pattern = {-1: pair.s(-1), 0: pair.s(0)}
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
        s_win = window(pair.s, -n, n)
        t_win = window(pair.t, -n, n)
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
    pair = flipped_pair(lambda i: base[i % len(base)], positions)
    assert pair_report(pair, radius) == pair_report_by_patterns(pair, radius)


@pytest.mark.parametrize("spec", [FIB, Skew(), Skew(m="aba", form="blocks")])
@pytest.mark.parametrize("n0", [-5, 0, 3])
def test_pair_report_matches_per_pattern_oracle_pairs(spec, n0):
    pair = shift_pair(build_pair(spec), n0)
    control = flipped_pair(pair.s, {n0})
    for radius in range(1, 6):
        assert pair_report(pair, radius) == pair_report_by_patterns(pair, radius)
        assert pair_report(control, radius) == pair_report_by_patterns(control, radius)


def test_pair_report_reads_each_position_once():
    pair = build_pair(FIB)
    reads = {"s": Counter(), "t": Counter()}

    def counted(name, fn):
        def letter(i):
            reads[name][i] += 1
            return fn(i)

        return letter

    radius = 48
    wrapped = AsymptoticPair(counted("s", pair.s), counted("t", pair.t), pair.difference_set)
    report = pair_report(wrapped, radius)
    assert report == pair_report(pair, radius)
    assert report.indistinguishable and report.patterns_checked == 1322
    lo, hi = min(pair.difference_set) - 2 * radius, max(pair.difference_set) + 2 * radius
    for counts in reads.values():
        assert set(counts) <= set(range(lo, hi + 1))
        assert max(counts.values()) == 1


def test_pair_report_empty_difference_set():
    def unread(i):
        raise AssertionError("no letter should be read")

    pair = AsymptoticPair(unread, unread, frozenset())
    assert pair_report(pair, 4) == PairReport(4, 0, True)
    with pytest.raises(ValueError):
        pair_report(pair, 0)
