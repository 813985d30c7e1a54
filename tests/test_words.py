import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarkoff.words import (
    christoffel_word,
    has_markoff_property_periodic,
    is_balanced_periodic,
    parse_word,
    render_word,
)

from oracles import (
    balanced_periodic_scan, christoffel_word_by_floors, cyclic_factors, factors, is_balanced_family, reversal,
)

words_st = st.text(alphabet="ab", max_size=12)
nonempty_words_st = st.text(alphabet="ab", min_size=1, max_size=10)


def all_words(min_len, max_len):
    for n in range(min_len, max_len + 1):
        for tup in itertools.product("ab", repeat=n):
            yield "".join(tup)


def test_parse_word_accepts_both_alphabets():
    assert parse_word("00100101") == "aabaabab"
    assert parse_word("aabaabab") == "aabaabab"
    with pytest.raises(ValueError):
        parse_word("abc")


def test_render_round_trip():
    assert render_word("aabab", "01") == "00101"
    assert parse_word(render_word("aabab", "01")) == "aabab"
    with pytest.raises(ValueError):
        render_word("ab", "xy")


def test_reversal_examples():
    assert reversal("aab") == "baa"
    assert reversal("") == ""
    assert reversal(reversal("abab")) == "abab"


@given(words_st)
def test_reversal_involution_and_counts(w):
    assert reversal(reversal(w)) == w
    assert reversal(w).count("a") == w.count("a")


def test_factors_examples():
    assert factors("aabab", 2) == ["aa", "ab", "ba"]
    assert factors("aabab", 0) == [""]
    assert factors("ab", 5) == []
    window = "baaba" + "ab" + "abaab"  # reversal(w)·ab·w for the 5-letter Fibonacci prefix
    assert factors(window, 3) == ["aab", "aba", "baa", "bab"]


@given(words_st, st.integers(min_value=0, max_value=13))
def test_factors_cardinality_bound(w, n):
    fs = factors(w, n)
    if n == 0:
        assert fs == [""]
    else:
        assert len(fs) <= max(len(w) - n + 1, 0)
    assert fs == sorted(fs)


def test_is_balanced_family():
    assert is_balanced_family({"aab", "aba", "baa", "bab"}, "a")
    assert not is_balanced_family({"aa", "bb"}, "a")
    assert is_balanced_family({""}, "a")
    assert is_balanced_family(set(), "a")
    with pytest.raises(ValueError, match="heterogeneous"):
        is_balanced_family({"a", "aa"}, "a")


def test_is_balanced_periodic_examples():
    assert is_balanced_periodic("aabab")
    assert not is_balanced_periodic("aabb")
    assert is_balanced_periodic("a")
    with pytest.raises(ValueError):
        is_balanced_periodic("")


def test_periodic_balance_bound_vs_bruteforce_scan():
    # imbalance appears at factor length <= period; cross-check the n <= p
    # decision against a scan up to 3p
    for w in all_words(1, 8):
        assert is_balanced_periodic(w) == balanced_periodic_scan(w, 3 * len(w)), w


def test_cyclic_factors_match_windows_of_the_repetition():
    for w in all_words(1, 6):
        for n in range(1, 3 * len(w) + 2):
            rep = w * (n // len(w) + 2)
            assert cyclic_factors(w, n) == sorted({rep[i : i + n] for i in range(len(w))}), (w, n)
    with pytest.raises(ValueError):
        cyclic_factors("", 2)


def test_christoffel_word_examples():
    assert christoffel_word(2, 5) == "aabab"
    assert christoffel_word(0, 1) == "a"
    assert christoffel_word(1, 1) == "b"
    assert christoffel_word(3, 4) == "abbb"
    assert christoffel_word(2, 4) == christoffel_word(1, 2) * 2 == "abab"
    assert christoffel_word(0, 3) == "aaa"
    for k, n in ((-1, 3), (4, 3), (0, 0)):
        with pytest.raises(ValueError):
            christoffel_word(k, n)


def test_christoffel_word_matches_the_floor_definition():
    # the standard-word recurrence against one floor per letter at every slope k/n, n <= 300, powers included
    for n in range(1, 301):
        for k in range(n + 1):
            assert christoffel_word(k, n) == christoffel_word_by_floors(k, n), (k, n)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10**5).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
def test_christoffel_word_matches_the_floor_definition_at_long_lengths(slope):
    assert christoffel_word(*slope) == christoffel_word_by_floors(*slope)


def test_is_balanced_periodic_vs_scan_exhaustive_len10():
    for w in all_words(1, 10):
        assert is_balanced_periodic(w) == balanced_periodic_scan(w), w


@st.composite
def christoffel_conjugate_powers(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    k = draw(st.integers(min_value=0, max_value=n))
    power = christoffel_word(k, n) * draw(st.integers(min_value=1, max_value=80 // n))
    shift = draw(st.integers(min_value=0, max_value=len(power) - 1))
    return power[shift:] + power[:shift]


@settings(max_examples=60, deadline=None)
@given(christoffel_conjugate_powers(), st.data())
def test_balanced_periodic_conjugate_powers_and_mutants(w, data):
    assert is_balanced_periodic(w)
    i = data.draw(st.integers(min_value=0, max_value=len(w) - 1))
    mutant = w[:i] + ("a" if w[i] == "b" else "b") + w[i + 1 :]
    assert is_balanced_periodic(mutant) == balanced_periodic_scan(mutant), mutant


def test_markoff_property_examples():
    assert has_markoff_property_periodic("aabab")
    assert not has_markoff_property_periodic("aabb")
    assert has_markoff_property_periodic("ab")
    with pytest.raises(ValueError):
        has_markoff_property_periodic("")


def test_balance_equals_markoff_property_len10():
    for w in all_words(1, 10):
        assert is_balanced_periodic(w) == has_markoff_property_periodic(w), w
