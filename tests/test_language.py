import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarkoff import language, morphism

from qmarkoff.language import (
    FLIP_AB_BA,
    LAST_LETTER,
    WRAP_AWA,
    WRAP_AWB,
    Characteristic,
    Mechanical,
    MonotonicityError,
    Periodic,
    Skew,
    characteristic_word,
    classify_change,
    compact_representations,
    curves_export,
    enumerate_factors,
    flip_permutation,
    letter_at,
    radix_chain_check,
    sequence_window,
)
from qmarkoff.morphism import mu, q_markoff, q_markoff_chain
from qmarkoff.qpoly import IntPolynomial, poly
from qmarkoff.words import christoffel_word, render_word, reversal

from oracles import is_balanced_family

FIB = Characteristic((1,) * 24)

# Factor table of the Fibonacci language for n = 1..6.
FIB_TABLE = {
    1: ("a", "b"),
    2: ("aa", "ab", "ba"),
    3: ("aab", "aba", "baa", "bab"),
    4: ("aaba", "abaa", "abab", "baab", "baba"),
    5: ("aabaa", "aabab", "abaab", "ababa", "baaba", "babaa"),
    6: ("aabaab", "aababa", "abaaba", "ababaa", "baabaa", "baabab", "babaab"),
}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 200).flatmap(lambda q: st.tuples(st.integers(0, q), st.just(q))),
    st.fractions(min_value=-3, max_value=3, max_denominator=200),
    st.sampled_from(("lower", "upper")),
)
def test_mechanical_letter_matches_fraction_oracle(slope, rho, kind):
    from oracles import mechanical_letter_by_fractions

    spec = Mechanical(Fraction(*slope), rho, kind)
    for pos in range(-60, 60):
        assert letter_at(spec, pos) == mechanical_letter_by_fractions(spec, pos)


def test_mechanical_letter_examples():
    zero = Mechanical(Fraction(0))
    one = Mechanical(Fraction(1))
    assert all(letter_at(zero, p) == "a" for p in range(-5, 6))
    assert all(letter_at(one, p) == "b" for p in range(-5, 6))
    half = Mechanical(Fraction(1, 2))
    assert [letter_at(half, p) for p in range(4)] == ["a", "b", "a", "b"]


def test_mechanical_spec_normalization():
    spec = Mechanical(Fraction(1, 3), Fraction(7, 3))
    assert spec.rho == Fraction(1, 3)
    with pytest.raises(ValueError):
        Mechanical(Fraction(3, 2))
    with pytest.raises(ValueError):
        Mechanical(Fraction(1, 2), kind="middle")


def test_upper_vs_lower_mechanical():
    lower = Mechanical(Fraction(2, 5), kind="lower")
    upper = Mechanical(Fraction(2, 5), kind="upper")
    # rational slope with rho = 0: lower and upper differ in alignment only
    lw = "".join(letter_at(lower, p) for p in range(10))
    uw = "".join(letter_at(upper, p) for p in range(10))
    assert sorted(lw) == sorted(uw)
    assert lw != uw


def test_characteristic_word_fibonacci():
    assert characteristic_word((1,) * 8, 20) == "abaababaabaababaabab"
    assert characteristic_word((1,) * 8, 0) == ""
    assert characteristic_word((2, 1, 1), 5) == "aabaa"


def test_characteristic_word_errors():
    with pytest.raises(ValueError, match="directive"):
        characteristic_word((1, 1), 10)
    with pytest.raises(ValueError):
        characteristic_word((1, 0, 1), 3)
    with pytest.raises(ValueError):
        characteristic_word((1,), -1)


def test_characteristic_word_large_directive_entries():
    # a huge directive entry costs no more than the letters asked for
    assert characteristic_word((10**12, 3), 6) == "aaaaaa"
    assert characteristic_word((2, 10**12), 7) == "aabaaba"


def test_characteristic_letter_at_matches_standard_word():
    for directive in ((1,) * 10, (2, 3, 1, 4, 2), (1, 5, 2, 3)):
        spec = Characteristic(directive)
        p = characteristic_word(directive, 80)
        assert sequence_window(spec, -1, 81) == "ab" + p
        assert sequence_window(spec, -81, 1) == reversal(p) + "ab"


def test_characteristic_letter_at_directive_too_short():
    # directive (1, 1) generates the 3-letter standard word "aba"
    spec = Characteristic((1, 1))
    assert sequence_window(spec, -4, 4) == "abaababa"
    for pos in (4, -5, 100):
        with pytest.raises(ValueError, match="directive too short"):
            letter_at(spec, pos)


def test_characteristic_letter_at_memory_is_bounded():
    # the full standard word of (1,)*38 has 102,334,155 letters
    spec = Characteristic((1,) * 38)
    tracemalloc.start()
    try:
        assert letter_at(spec, 100) == characteristic_word(spec.directive, 100)[99]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_characteristic_prefix_occurs_in_mechanical_word():
    # directive (d1, d2, ...) encodes slope [0; d1+1, d2, ...]; the prefix
    # must occur in the lower mechanical word of the convergent slope
    directive = (2, 1, 1)
    prefix = characteristic_word(directive, 5)
    slope = Fraction(0)
    for d in reversed((directive[0] + 1,) + directive[1:]):
        slope = Fraction(1, d + slope)
    spec = Mechanical(slope)
    window = "".join(letter_at(spec, p) for p in range(0, 40))
    assert prefix in window


def test_compact_representations():
    assert compact_representations("") == ("ab", "ba")
    w = characteristic_word((1,) * 8, 7)
    first, second = compact_representations(w)
    assert render_word(first, "01") == "1010010010100101"
    assert render_word(second, "01") == "1010010100100101"
    assert len(first) == len(second) == 2 * (len(w) + 1)


def test_factor_table_rows():
    for n, expected in FIB_TABLE.items():
        assert enumerate_factors(FIB, n).factors == expected


def test_factors_n0_and_length8():
    assert enumerate_factors(FIB, 0).factors == ("",)
    f8 = enumerate_factors(FIB, 8)
    assert len(f8) == 9
    assert render_word(f8.factors[0], "01") == "00100101"
    assert render_word(f8.factors[-1], "01") == "10100101"


def test_complexity_and_double_representation():
    for n in range(1, 13):
        fl = enumerate_factors(FIB, n)
        # the double-representation equality is asserted inside enumerate_factors
        assert len(fl) == n + 1


def test_factor_balance_all_variants():
    specs = [
        FIB,
        Periodic("aabab"),
        Periodic("ab"),
        Skew(),
        Skew(m="aba", form="blocks"),
        Mechanical(Fraction(2, 5), Fraction(1, 3)),
    ]
    for spec in specs:
        for n in range(1, 9):
            fs = enumerate_factors(spec, n).factors
            assert is_balanced_family(fs, "a"), (spec, n)
            assert is_balanced_family(fs, "b"), (spec, n)


def test_periodic_factors():
    assert enumerate_factors(Periodic("ab"), 3).factors == ("aba", "bab")
    assert enumerate_factors(Periodic("a"), 4).factors == ("aaaa",)


def test_periodic_spec_validation():
    with pytest.raises(ValueError):
        Periodic("aabb")
    with pytest.raises(ValueError):
        Periodic("")


def test_skew_spec_validation():
    with pytest.raises(ValueError):
        Skew(m="ab")  # a·ab·b = aabb is not Christoffel
    with pytest.raises(ValueError):
        Skew(form="spiral")
    with pytest.raises(ValueError):
        Skew(xy="aa")


def test_skew_sequences():
    assert sequence_window(Skew(), -3, 4) == "aaabaaa"
    assert sequence_window(Skew(xy="ba"), -2, 3) == "bbabb"
    # central block bb ends at -1, ab blocks rightwards, ba blocks leftwards
    blocks = Skew(m="", form="blocks")
    assert sequence_window(blocks, -6, 6) == "bababbababab"
    assert letter_at(blocks, -3) == "a" and letter_at(blocks, -4) == "b"


WINDOW_BOUNDS = st.integers(-600, 600)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 200).flatmap(lambda q: st.tuples(st.integers(0, q), st.just(q))),
    st.fractions(min_value=-3, max_value=3, max_denominator=200),
    st.sampled_from(("lower", "upper")),
    WINDOW_BOUNDS,
    WINDOW_BOUNDS,
)
def test_mechanical_window_matches_per_letter_oracle(slope, rho, kind, lo, hi):
    from oracles import mechanical_letter_by_floors

    spec = Mechanical(Fraction(*slope), rho, kind)
    assert sequence_window(spec, lo, hi) == "".join(mechanical_letter_by_floors(spec, i) for i in range(lo, hi))


def _christoffel_middle(n):
    """The m of a·m·b over the Christoffel words of length n."""
    coprime = [k for k in range(1, n) if math.gcd(k, n) == 1]
    return st.sampled_from(coprime).map(lambda k: christoffel_word(k, n)[1:-1])


def _christoffel_powers(n):
    """Conjugates of the first, second and third powers of the Christoffel words of length n."""
    coprime = [k for k in range(n + 1) if math.gcd(k, n) == 1]
    return st.tuples(st.sampled_from(coprime), st.integers(1, 3), st.integers(0, 3 * n - 1)).map(
        lambda kes: _rotate(christoffel_word(kes[0], n) * kes[1], kes[2])
    )


def _rotate(w, shift):
    shift %= len(w)
    return w[shift:] + w[:shift]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 40).flatmap(_christoffel_middle),
    st.sampled_from(("xxyxx", "blocks")),
    st.sampled_from(("ab", "ba")),
    WINDOW_BOUNDS,
    WINDOW_BOUNDS,
)
def test_skew_window_matches_per_letter_oracle(m, form, xy, lo, hi):
    from oracles import skew_letter_by_blocks

    spec = Skew(m, form, xy)
    assert sequence_window(spec, lo, hi) == "".join(skew_letter_by_blocks(spec, i) for i in range(lo, hi))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 150).flatmap(_christoffel_middle),
    st.sampled_from(("xxyxx", "blocks")),
    st.sampled_from(("ab", "ba")),
    st.integers(-10**12, 10**12),
    st.integers(0, 40),
)
def test_skew_window_far_from_the_origin_matches_per_letter_oracle(m, form, xy, lo, width):
    from oracles import skew_letter_by_blocks

    spec = Skew(m, form, xy)
    expected = "".join(skew_letter_by_blocks(spec, i) for i in range(lo, lo + width))
    assert sequence_window(spec, lo, lo + width) == expected


def test_skew_letter_far_from_the_origin_costs_its_width():
    from oracles import skew_letter_by_blocks

    for spec in (Skew("aba", "blocks", "ba"), Skew("aba", "xxyxx", "ab")):
        for pos in (10**12, -(10**12), 10**15 + 3):
            tracemalloc.start()
            try:
                assert letter_at(spec, pos) == skew_letter_by_blocks(spec, pos)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4096, (spec, pos, peak)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 150).flatmap(_christoffel_middle),
    st.sampled_from(("xxyxx", "blocks")),
    st.sampled_from(("ab", "ba")),
    st.integers(1, 256),
)
def test_skew_language_from_compact_representations_matches_window_oracle(m, form, xy, n):
    from oracles import window_factors

    spec = Skew(m, form, xy)
    language = enumerate_factors(spec, n)
    assert language.factors == window_factors(spec, n)
    assert len(language) == n + 1


def _or_message(read, spec, lo, hi):
    """The window `read` gives, or the message of its ValueError."""
    try:
        return read(spec, lo, hi)
    except ValueError as exc:
        return str(exc)


def _characteristic_window_by_letters(spec, lo, hi):
    from oracles import characteristic_letter_by_prefix

    return "".join(characteristic_letter_by_prefix(spec, i) for i in range(lo, hi))


def test_windows_cross_every_block_boundary():
    from oracles import mechanical_letter_by_floors, skew_letter_by_blocks

    for m in ("", "a", "aba", christoffel_word(3, 8)[1:-1]):
        size = len(m) + 2
        for spec in (Skew(m, form, xy) for form in ("xxyxx", "blocks") for xy in ("ab", "ba")):
            for lo in range(-3 * size - 1, size + 2):
                for hi in range(lo - 1, size + 3):
                    expected = "".join(skew_letter_by_blocks(spec, i) for i in range(lo, hi))
                    assert sequence_window(spec, lo, hi) == expected, (spec, lo, hi)
    for spec in (Mechanical(Fraction(2, 7), Fraction(1, 3), kind) for kind in ("lower", "upper")):
        for lo in range(-8, 3):
            for hi in range(lo - 1, 9):
                expected = "".join(mechanical_letter_by_floors(spec, i) for i in range(lo, hi))
                assert sequence_window(spec, lo, hi) == expected, (spec, lo, hi)
    for spec in (Characteristic(directive) for directive in ((1, 1), (2, 1, 3), (1,) * 8)):
        for lo in range(-12, 4):
            for hi in range(lo - 1, 14):
                expected = _or_message(_characteristic_window_by_letters, spec, lo, hi)
                assert _or_message(sequence_window, spec, lo, hi) == expected, (spec, lo, hi)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40).flatmap(_christoffel_powers), WINDOW_BOUNDS, WINDOW_BOUNDS)
def test_periodic_window_matches_per_letter_oracle(word, lo, hi):
    from oracles import periodic_letter_by_index

    spec = Periodic(word)
    assert sequence_window(spec, lo, hi) == "".join(periodic_letter_by_index(spec, i) for i in range(lo, hi))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=12), WINDOW_BOUNDS, WINDOW_BOUNDS)
def test_characteristic_window_matches_per_letter_oracle(directive, lo, hi):
    # a short directive runs out of letters; then both name the same position
    spec = Characteristic(directive)
    expected = _or_message(_characteristic_window_by_letters, spec, lo, hi)
    assert _or_message(sequence_window, spec, lo, hi) == expected


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 60).flatmap(lambda q: st.tuples(st.integers(0, q), st.just(q))),
    st.integers(-60, 120),
    st.integers(2, 9).flatmap(lambda d: st.tuples(st.integers(0, d - 1), st.just(d))),
    st.sampled_from(("lower", "upper")),
    st.integers(0, 40),
)
def test_mechanical_factors_match_window_oracle(slope, k, offset, kind, n):
    # rho = k/q + j/(dq): on the 1/q grid when j = 0, strictly between two of its points otherwise
    from oracles import window_factors

    (p, q), (j, d) = slope, offset
    spec = Mechanical(Fraction(p, q), Fraction(k * d + j, q * d), kind)
    assert enumerate_factors(spec, n).factors == window_factors(spec, n)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40).flatmap(_christoffel_powers), st.integers(0, 40))
def test_periodic_factors_match_cyclic_and_window_oracles(word, n):
    from oracles import cyclic_factors, window_factors

    fs = enumerate_factors(Periodic(word), n).factors
    assert fs == tuple(cyclic_factors(word, n)) == window_factors(Periodic(word), n)


def test_skew_and_mechanical_factors_read_no_single_letter(monkeypatch):
    specs = (Skew("aba", "blocks", "ba"), Skew(), Mechanical(Fraction(3, 8), Fraction(5, 7), "upper"))
    expected = [enumerate_factors(spec, 9) for spec in specs]

    def refuse(*args):
        raise AssertionError("letter_at called")

    monkeypatch.setattr(language, "letter_at", refuse)
    assert [enumerate_factors(spec, 9) for spec in specs] == expected


def test_flip_permutation_fibonacci_n3():
    changes = flip_permutation(FIB, 3)
    assert [(c.src, c.dst, c.kind) for c in changes] == [
        ("aab", "aba", FLIP_AB_BA),
        ("aba", "baa", FLIP_AB_BA),
        ("baa", "bab", LAST_LETTER),
    ]


def test_flip_permutation_n1():
    changes = flip_permutation(FIB, 1)
    assert [(c.src, c.dst, c.kind) for c in changes] == [("a", "b", LAST_LETTER)]


def test_flip_permutation_positions_n8():
    # frozen flip positions along the lex chain of length-8 factors; the
    # single final-letter change closes the chain
    changes = flip_permutation(FIB, 8)
    tags = []
    for c in changes:
        if c.kind == FLIP_AB_BA:
            tags.append(next(i for i in range(8) if c.src[i] != c.dst[i]))
        else:
            tags.append(c.kind)
    assert tags == [4, 1, 6, 3, 0, 5, 2, LAST_LETTER]


def test_flip_permutation_structure():
    # endpoints a·w / b·w, one final-letter change, flips have prefix parts
    for n in range(1, 11):
        w = characteristic_word(FIB.directive, n - 1)
        changes = flip_permutation(FIB, n)
        factor_chain = [changes[0].src] + [c.dst for c in changes]
        assert factor_chain[0] == "a" + w
        assert factor_chain[-1] == "b" + w
        assert sum(c.kind == LAST_LETTER for c in changes) == 1
        for c in changes:
            if c.kind == FLIP_AB_BA:
                i = next(j for j in range(n) if c.src[j] != c.dst[j])
                assert w.startswith(c.src[:i][::-1])
                assert w.startswith(c.src[i + 2 :])


def test_flip_permutation_complexity_violation():
    with pytest.raises(ValueError, match="complexity violation"):
        flip_permutation(Periodic("ab"), 3)


def test_classify_change_wraps():
    assert classify_change("ba", "aab") == WRAP_AWB
    assert classify_change("bab", "aaba") == WRAP_AWA
    assert classify_change("baa", "bab") == LAST_LETTER
    assert classify_change("aab", "aba") == FLIP_AB_BA
    assert classify_change("ab", "ba") == FLIP_AB_BA
    with pytest.raises(ValueError):
        classify_change("ba", "ab")  # wrong flip direction
    with pytest.raises(ValueError):
        classify_change("ab", "bb")  # first-letter change is not a local change
    with pytest.raises(ValueError):
        classify_change("aa", "bab")  # wrap must start from b·w


def test_radix_chain_fibonacci():
    report = radix_chain_check(FIB, 9)
    assert len(report.chain) == 55
    assert len(report.differences) == 54
    assert all(d.is_nonneg_nonzero() for d in report.differences)


@pytest.mark.parametrize(
    "spec",
    [
        FIB,
        Periodic("aabab"),
        Skew(m="aba", form="blocks", xy="ba"),
        Mechanical(Fraction(3, 8), Fraction(1, 5), "upper"),
    ],
)
def test_radix_chain_matches_schoolbook(spec):
    from oracles import mu_q_schoolbook, radix_chain_differences

    report = radix_chain_check(spec, 16)
    assert report.differences == radix_chain_differences(report.chain)
    values = [mu_q_schoolbook(w).e12 for w in report.chain]
    assert list(q_markoff_chain(report.chain)) == values
    gammas = [Fraction(1, 3), 1, Fraction(7, 5)]
    expected = [(w, g, p.evaluate(g)) for w, p in zip(report.chain, values) for g in gammas]
    assert curves_export(spec, 16, gammas) == expected


def test_curves_export_builds_no_mu_q(monkeypatch):
    def refuse(w):
        raise AssertionError(f"mu_q({w!r}) called")

    monkeypatch.setattr(morphism, "mu_q", refuse)
    monkeypatch.setattr(IntPolynomial, "evaluate", refuse)
    rows = curves_export(FIB, 9, [1, Fraction(1, 2), 0.5])
    assert len(rows) == 55 * 3


positive_gammas = st.one_of(
    st.integers(1, 30),
    st.fractions(min_value=Fraction(1, 1000), max_value=30),
    st.floats(min_value=1e-6, max_value=1e6),
)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(
        [
            FIB,
            Periodic("aabab"),
            Periodic("abb"),
            Skew(m="aba", form="blocks", xy="ba"),
            Skew(m="a", form="xxyxx", xy="ab"),
            Mechanical(Fraction(3, 8), Fraction(1, 5), "upper"),
            Mechanical(Fraction(2, 7), Fraction(0), "lower"),
        ]
    ),
    st.integers(0, 12),
    st.lists(positive_gammas, min_size=1, max_size=3),
)
def test_curves_export_matches_polynomial_evaluation(spec, max_len, gammas):
    # exact for every kind of gamma: ints stay ints, Fractions and floats give Fractions
    rows = curves_export(spec, max_len, gammas)
    for w, g, value in rows:
        assert value == q_markoff(w).evaluate(Fraction(g))
        assert type(value) is (int if isinstance(g, int) else Fraction)


def test_radix_chain_failure_matches_schoolbook(monkeypatch):
    # all words of length <= 3 form a prefix-closed chain that is not balanced
    from oracles import radix_chain_differences

    chain = [""] + ["".join(t) for n in range(1, 4) for t in itertools.product("ab", repeat=n)]
    monkeypatch.setattr(language, "_radix_words", lambda spec, n: chain)
    with pytest.raises(MonotonicityError) as checked:
        radix_chain_check(FIB, 3)
    with pytest.raises(MonotonicityError) as schoolbook:
        radix_chain_differences(chain)
    err = checked.value
    assert (err.src, err.dst) == (schoolbook.value.src, schoolbook.value.dst) == ("bb", "aaa")
    assert err.difference == schoolbook.value.difference == q_markoff("aaa") - q_markoff("bb")


def test_radix_chain_check_memory_is_bounded():
    # 2145 words; their packed rows at all lengths would take about 8 MiB
    radix_chain_check(FIB, 4)
    tracemalloc.start()
    try:
        radix_chain_check(FIB, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20, peak


def test_radix_chain_other_specs():
    for spec in (
        Periodic("ab"),
        Periodic("aab"),
        Periodic("aabab"),
        Skew(),
        Skew(m="aba", form="blocks"),
        Characteristic((2, 1, 2, 1, 2, 1, 2, 1, 2, 1)),
        Mechanical(Fraction(2, 5), Fraction(1, 3)),
    ):
        radix_chain_check(spec, 6)


def test_comparator_rejects_cross_language_pair():
    # abb and baa never sit in one balanced language; the order fails on them
    diff = q_markoff("baa") - q_markoff("abb")
    assert diff == poly(0, 1, -1, -2, -2, -3, -2, -1)
    assert not q_markoff("abb").precedes(q_markoff("baa"))


def test_monotonicity_error_payload():
    err = MonotonicityError("abb", "baa", poly(0, 1, -1))
    assert err.src == "abb" and err.dst == "baa"
    assert "abb" in str(err)


def test_radix_chain_requires_positive_max_n():
    with pytest.raises(ValueError):
        radix_chain_check(FIB, 0)


def test_curves_export_counts_and_specialization():
    gammas = [Fraction(1, 2), 1]
    rows = curves_export(FIB, 9, gammas)
    assert len(rows) == 55 * len(gammas)
    for word, gamma, value in rows:
        if gamma == 1:
            assert value == mu(word)[0][1]


def test_curves_export_strictly_increasing():
    gammas = [Fraction(1, 100), Fraction(1, 2), 1, 3, 100]
    rows = curves_export(FIB, 9, gammas)
    for g in gammas:
        vals = [v for (_, gamma, v) in rows if gamma == g]
        assert all(x < y for x, y in zip(vals, vals[1:])), g


def test_curves_export_degree_facts():
    rows = curves_export(FIB, 9, [1])
    words = [w for (w, _, _) in rows]
    degrees = sorted({q_markoff(w).degree for w in words if w})
    assert degrees == list(range(25))
    nine = [w for w in words if len(w) == 9 and q_markoff(w).degree == 23]
    assert len(nine) == 4


def test_curves_export_rejects_nonpositive_gamma():
    with pytest.raises(ValueError, match="positivity domain"):
        curves_export(FIB, 3, [1, 0])
    with pytest.raises(ValueError, match="positivity domain"):
        curves_export(FIB, 3, [Fraction(-1, 2)])


def _convergent_slope(directive):
    slope = Fraction(0)
    for d in reversed((directive[0] + 1,) + directive[1:]):
        slope = Fraction(1, d + slope)
    return slope


@pytest.mark.parametrize(
    "directive",
    [(1,) * 10, (2, 1, 2, 1, 2, 1, 2, 1), (3, 2, 1, 1, 2, 2), (1, 2, 3, 1, 2)],
)
def test_characteristic_factors_match_mechanical_window(directive):
    # independent route: the factor sets from the two compact words must
    # equal those read off a long window of the convergent-slope rotation
    slope = _convergent_slope(directive)
    spec = Characteristic(directive)
    mech = Mechanical(slope, Fraction(0))
    length = 3 * slope.denominator + 24
    window = "".join(letter_at(mech, k) for k in range(length))
    for n in range(1, 9):
        from_compact = set(enumerate_factors(spec, n).factors)
        from_window = {window[i : i + n] for i in range(length - n + 1)}
        assert from_compact == from_window, n


def test_radix_chain_all_small_christoffel_periods():
    from oracles import christoffel_words_upto

    for w in sorted(christoffel_words_upto(6)):
        radix_chain_check(Periodic(w), 8)
        if len(w) >= 2:
            for form in ("xxyxx", "blocks"):
                for xy in ("ab", "ba"):
                    radix_chain_check(Skew(m=w[1:-1], form=form, xy=xy), 8)


def test_mechanical_limit_stabilization():
    # lower mechanical words with rho = 0 and slopes decreasing to 2/5
    # stabilize on the central window to the skew word's p̃·ba·p form
    target = Fraction(2, 5)
    windows = []
    for j in range(1, 8):
        spec = Mechanical(target + Fraction(1, 5 * 4**j))
        windows.append(sequence_window(spec, -8, 9))
    assert len(set(windows[2:])) == 1
    stable = windows[-1]
    assert stable == sequence_window(Skew(m="aba", form="blocks", xy="ab"), -8, 9)
    center = stable[8 - 1 : 8 + 1]
    assert center == "ba"
    assert all(stable[8 + k] == stable[8 - 1 - k] for k in range(1, 8))
