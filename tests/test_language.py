import itertools
import math
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
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
    _radix_words,
    classify_change,
    curve_ratios,
    enumerate_factors,
    flip_permutation,
    radix_chain_check,
    sequence_window,
)
from qmarkoff.morphism import mu, mu_q, q_markoff
from qmarkoff.words import christoffel_word, render_word

from oracles import (
    christoffel_words_upto, compact_representations, degree, evaluate_by_fraction_horner, factors, is_balanced_family,
    poly, precedes, radix_chain_differences, reversal, window_factors,
)

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
    # the two oracles agree on every intercept and rounding
    from oracles import mechanical_letter_by_floors, mechanical_letter_by_fractions

    alpha = Fraction(*slope)
    for pos in range(-60, 60):
        assert mechanical_letter_by_floors(alpha, rho, kind, pos) == mechanical_letter_by_fractions(alpha, rho, kind, pos)


def test_mechanical_letter_examples():
    # the lower mechanical words of intercept 0 of slopes 0, 1 and 1/2, read by the oracle, are the rotations
    # christoffel_word(p, q)^∞ whose languages Mechanical(p/q) has
    from oracles import mechanical_window

    assert mechanical_window(Fraction(0), 0, "lower", -5, 6) == "a" * 11 == christoffel_word(0, 1) * 11
    assert mechanical_window(Fraction(1), 0, "lower", -5, 6) == "b" * 11 == christoffel_word(1, 1) * 11
    assert mechanical_window(Fraction(1, 2), 0, "lower", 0, 4) == "abab" == christoffel_word(1, 2) * 2


def test_mechanical_spec_normalization():
    # a mechanical spec is its slope, read as a Fraction; parse_spec checks and drops an intercept and a rounding
    assert Mechanical("2/6") == Mechanical(Fraction(1, 3)) == (Fraction(1, 3),)
    assert Mechanical._fields == ("alpha",)
    with pytest.raises(ValueError):
        Mechanical(Fraction(3, 2))
    with pytest.raises(TypeError):
        Mechanical(Fraction(1, 2), Fraction(1, 3))


def test_upper_vs_lower_mechanical():
    from oracles import mechanical_window

    # rational slope with rho = 0: lower and upper differ in alignment only, and the lower is the rotation
    # christoffel_word(2, 5)^∞ whose language Mechanical(2/5) has
    lw, uw = (mechanical_window(Fraction(2, 5), 0, kind, 0, 10) for kind in ("lower", "upper"))
    assert sorted(lw) == sorted(uw)
    assert lw != uw and uw in lw * 2
    assert lw == christoffel_word(2, 5) * 2


def test_characteristic_word_fibonacci():
    # the characteristic (standard) word of a directive: positions 1, 2, ... of its Characteristic sequence
    assert sequence_window(Characteristic((1,) * 8), 1, 21) == "abaababaabaababaabab"
    assert sequence_window(Characteristic((1,) * 8), 1, 1) == ""
    assert sequence_window(Characteristic((2, 1, 1)), 1, 6) == "aabaa"


def test_characteristic_word_errors():
    with pytest.raises(ValueError, match="directive"):
        sequence_window(Characteristic((1, 1)), 1, 11)
    with pytest.raises(ValueError):
        sequence_window(Characteristic((1, 0, 1)), 1, 4)


def test_characteristic_word_large_directive_entries():
    # a huge directive entry costs no more than the letters asked for
    assert sequence_window(Characteristic((10**12, 3)), 1, 7) == "aaaaaa"
    assert sequence_window(Characteristic((2, 10**12)), 1, 8) == "aabaaba"


def test_characteristic_letter_at_matches_standard_word():
    for directive in ((1,) * 10, (2, 3, 1, 4, 2), (1, 5, 2, 3)):
        spec = Characteristic(directive)
        p = sequence_window(spec, 1, 81)
        assert sequence_window(spec, -1, 81) == "ab" + p
        assert sequence_window(spec, -81, 1) == reversal(p) + "ab"


def test_letter_reads_cost_no_more_with_a_long_directive():
    # a read builds only the letters it needs, whatever the directive's length
    spec = Characteristic((1,) * 60000)
    start = time.perf_counter()
    letters = "".join(sequence_window(spec, i, i + 1) for i in range(-2050, 2051))
    assert time.perf_counter() - start < 0.5
    assert letters == sequence_window(spec, -2050, 2051)


def test_characteristic_letter_at_directive_too_short():
    # directive (1, 1) generates the 3-letter standard word "aba"
    spec = Characteristic((1, 1))
    assert sequence_window(spec, -4, 4) == "abaababa"
    for pos in (4, -5, 100):
        with pytest.raises(ValueError, match="directive too short"):
            sequence_window(spec, pos, pos + 1)


def test_characteristic_letter_at_memory_is_bounded():
    # the full standard word of (1,)*38 has 102,334,155 letters
    spec = Characteristic((1,) * 38)
    tracemalloc.start()
    try:
        assert sequence_window(spec, 100, 101) == sequence_window(spec, 1, 101)[99]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_characteristic_prefix_occurs_in_mechanical_word():
    # directive (d1, d2, ...) encodes slope [0; d1+1, d2, ...]; the prefix
    # must occur in the lower mechanical word of the convergent slope
    from oracles import mechanical_window

    directive = (2, 1, 1)
    prefix = sequence_window(Characteristic(directive), 1, 6)
    assert prefix in mechanical_window(_convergent_slope(directive), 0, "lower", 0, 40)


def test_compact_representations():
    assert compact_representations("") == ("ab", "ba")
    w = sequence_window(Characteristic((1,) * 8), 1, 8)
    first, second = compact_representations(w)
    assert render_word(first, "01") == "1010010010100101"
    assert render_word(second, "01") == "1010010100100101"
    assert len(first) == len(second) == 2 * (len(w) + 1)


def test_factor_table_rows():
    for n, expected in FIB_TABLE.items():
        assert enumerate_factors(FIB, n) == expected


def test_factors_n0_and_length8():
    # n = 0 of each variant, and of the factors oracle
    for spec in (FIB, Periodic("aab"), Skew("aba", "blocks", "ba"), Mechanical("2/5")):
        assert enumerate_factors(spec, 0) == ("",), spec
    assert factors("", 0) == factors("ab", 0) == [""]
    f8 = enumerate_factors(FIB, 8)
    assert len(f8) == 9
    assert render_word(f8[0], "01") == "00100101"
    assert render_word(f8[-1], "01") == "10100101"


def test_complexity_and_double_representation():
    for n in range(1, 13):
        fl = enumerate_factors(FIB, n)
        assert len(fl) == n + 1
        first, second = compact_representations(sequence_window(FIB, 1, n))
        assert set(fl) == set(factors(first, n)) == set(factors(second, n))


def test_factor_balance_all_variants():
    specs = [
        FIB,
        Periodic("aabab"),
        Periodic("ab"),
        Skew(),
        Skew(m="aba", form="blocks"),
        Mechanical(Fraction(2, 5)),
    ]
    for spec in specs:
        for n in range(1, 9):
            fs = enumerate_factors(spec, n)
            assert is_balanced_family(fs, "a"), (spec, n)
            assert is_balanced_family(fs, "b"), (spec, n)


def test_periodic_factors():
    assert enumerate_factors(Periodic("ab"), 3) == ("aba", "bab")
    assert enumerate_factors(Periodic("a"), 4) == ("aaaa",)


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
    assert sequence_window(blocks, -3, -2) == "a" and sequence_window(blocks, -4, -3) == "b"


WINDOW_BOUNDS = st.integers(-600, 600)


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
                assert sequence_window(spec, pos, pos + 1) == skew_letter_by_blocks(spec, pos)
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
def test_skew_language_matches_window_oracle(m, form, xy, n):
    spec = Skew(m, form, xy)
    language = enumerate_factors(spec, n)
    assert language == window_factors(spec, n)
    assert len(language) == n + 1


def _compact_factors(spec, n):
    """The factors of both compact representations of the spec's letters at positions 1..n-1, which must agree,
    or the message of the ValueError that reading those letters raises."""
    try:
        first, second = compact_representations(sequence_window(spec, 1, n))
    except ValueError as exc:
        return str(exc)
    fs = factors(first, n)
    assert fs == factors(second, n), (spec, n)
    return tuple(fs)


CHRISTOFFEL_MIDDLES = sorted(w[1:-1] for w in christoffel_words_upto(30) if len(w) >= 2)


@pytest.mark.parametrize("form", language.SKEW_FORMS)
@pytest.mark.parametrize("xy", ["ab", "ba"])
def test_skew_factors_match_compact_and_window_oracles(form, xy):
    # every Christoffel word a·m·b of at most 30 letters, at every n <= 64
    assert len(CHRISTOFFEL_MIDDLES) == 277
    for m in CHRISTOFFEL_MIDDLES:
        spec = Skew(m, form, xy)
        for n in range(65):
            assert enumerate_factors(spec, n) == _compact_factors(spec, n) == window_factors(spec, n), (m, n)


def test_slope_factors_match_window_and_compact_oracles():
    # every slope p/q with q < 40, at every n <= 64, against one window of its lower mechanical word of intercept
    # 0, christoffel_word(p, q)^∞; at lengths below q it reads as a mirror about positions -1 and 0, so the
    # compact representations of its letters 1..n-1 hold its factors too
    from oracles import mechanical_window

    slopes = sorted({Fraction(p, q) for q in range(1, 40) for p in range(q + 1)})
    for slope in slopes:
        radius = 2 * 64 + slope.denominator
        window = mechanical_window(slope, 0, "lower", -radius, radius)
        for n in range(65):
            fs = enumerate_factors(Mechanical(slope), n)
            assert fs == tuple(factors(window, n)), (slope, n)
            if n < slope.denominator:
                first, second = compact_representations(window[radius + 1 : radius + n])
                assert fs == tuple(factors(first, n)) == tuple(factors(second, n)), (slope, n)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.integers(1, 4), st.integers(1, 10**6)), min_size=1, max_size=12))
def test_characteristic_factors_match_compact_oracle(directive):
    # at every n <= 64, including the message naming the first position out of a short directive's reach
    spec = Characteristic(directive)
    for n in range(65):
        assert _or_message(enumerate_factors, spec, n) == _compact_factors(spec, n), n


@pytest.mark.parametrize(
    "directive, size", [((1,), 2), ((2,), 3), ((1, 1), 3), ((3, 2), 9), ((1, 10**6), 2 * 10**6 + 1)],
    ids=["1", "2", "1,1", "3,2", "1,1000000"],
)
def test_directive_continuation_at_the_end_of_its_standard_word(directive, size):
    # the standard word has `size` letters, at positions 1..size: the longest factors have size + 1 letters;
    # those of (1, 10^6) are 2,000,002 words of as many letters, so only their path is built
    spec = Characteristic(directive)
    assert len(sequence_window(spec, 1, size + 1)) == size
    if size < 100:
        assert enumerate_factors(spec, size + 1) == _compact_factors(spec, size + 1)
    else:
        language._path(spec, size + 1)
    with pytest.raises(ValueError, match=f"^directive too short for position {size + 1}$"):
        enumerate_factors(spec, size + 2)


def test_directive_reach_matches_the_letter_reference():
    # the path of every directive of at most 4 entries in 1..3, at every n <= 40: the standard word's length q_k,
    # from the convergents, names the same first position out of reach as reading letters 1..n-1 one at a time,
    # and the window 1..n-1, cut from christoffel_word at a node of the same path, raises that same line
    for directive in (d for k in range(1, 5) for d in itertools.product((1, 2, 3), repeat=k)):
        spec = Characteristic(directive)
        for n in range(41):
            letters = _or_message(_characteristic_window_by_letters, spec, 1, n)
            path = letters if letters.startswith("directive") else [directive[0] + 1, *directive[1:], n + 1]
            assert _or_message(language._path, spec, n) == path, (directive, n)
            assert _or_message(sequence_window, spec, 1, n) == letters, (directive, n)


@pytest.mark.parametrize(
    "directive", [(1,) * 24, (2, 1, 3, 1, 2, 1), (10**6,), (1, 10**6)],
    ids=["1*24", "2,1,3,1,2,1", "1000000", "1,1000000"],
)
def test_pair_window_at_the_largest_radius_matches_the_letter_reference(directive):
    # pair-check at MAX_PAIR_RADIUS reads s over -2049..2048: it is cut from christoffel_word at a node of q at most
    # 2 * 2049, or, past the directive's reach, names the left end as reading one letter at a time does
    from qmarkoff.cli import MAX_PAIR_RADIUS

    spec = Characteristic(directive)
    lo, hi = -1 - 2 * MAX_PAIR_RADIUS, 2 * MAX_PAIR_RADIUS + 1
    expected = _or_message(_characteristic_window_by_letters, spec, lo, hi)
    tracemalloc.start()
    try:
        window = _or_message(sequence_window, spec, lo, hi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert window == expected
    assert peak < 8 * (hi - lo), peak


def test_last_factor_is_the_prefix_of_the_next_last():
    # the language extends to the right, so the lex-last factor of length n - 1 is the length-(n - 1) prefix of
    # the lex-last of length n: the language table reads it off the length-n table
    specs = (FIB, Characteristic((2, 1, 3, 1, 2, 1)), Periodic("aabab"), Periodic("a"), Periodic("b"), Skew(),
             Skew(xy="ba"), Skew("aba", "blocks", "ba"), Skew("a", "blocks"), Mechanical(0), Mechanical(1),
             Mechanical(Fraction(3, 8)), Mechanical(Fraction(1, 10**9)))
    for spec in specs:
        last = [enumerate_factors(spec, n)[-1] for n in range(65)]
        assert all(u == v[:-1] for u, v in itertools.pairwise(last)), spec


@pytest.mark.parametrize("spec", [Characteristic((10**6,)), Mechanical(Fraction(1, 10**9))], ids=["1000000", "1/10^9"])
def test_enumerate_factors_memory_is_bounded_by_its_node(spec):
    # the node's denominator q is at most 2n, so a length reads christoffel_word(p, q) * (n // q + 2), at most 4n
    # letters, beside the n + 1 factors it returns; the end of either path has a denominator of 10^9 or more
    n = 2048
    _, q = language._node(language._path(spec, n), n)
    assert n < q <= 2 * n
    enumerate_factors(spec, 4)
    tracemalloc.start()
    try:
        fs = enumerate_factors(spec, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fs) == n + 1
    assert peak < sum(map(sys.getsizeof, fs)) + (1 << 20), peak


def _or_message(read, *args):
    """What read(*args) returns, or the message of its ValueError."""
    try:
        return read(*args)
    except ValueError as exc:
        return str(exc)


def _characteristic_window_by_letters(spec, lo, hi):
    from oracles import characteristic_letter_by_prefix

    return "".join(characteristic_letter_by_prefix(spec, i) for i in range(lo, hi))


def test_windows_cross_every_block_boundary():
    from oracles import skew_letter_by_blocks

    for m in ("", "a", "aba", christoffel_word(3, 8)[1:-1]):
        size = len(m) + 2
        for spec in (Skew(m, form, xy) for form in ("xxyxx", "blocks") for xy in ("ab", "ba")):
            for lo in range(-3 * size - 1, size + 2):
                for hi in range(lo - 1, size + 3):
                    expected = "".join(skew_letter_by_blocks(spec, i) for i in range(lo, hi))
                    assert sequence_window(spec, lo, hi) == expected, (spec, lo, hi)
    for spec in (Characteristic(directive) for directive in ((1, 1), (2, 1, 3), (1,) * 8)):
        for lo in range(-12, 4):
            for hi in range(lo - 1, 14):
                expected = _or_message(_characteristic_window_by_letters, spec, lo, hi)
                assert _or_message(sequence_window, spec, lo, hi) == expected, (spec, lo, hi)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=12), WINDOW_BOUNDS, WINDOW_BOUNDS)
def test_characteristic_window_matches_per_letter_oracle(directive, lo, hi):
    # a short directive runs out of letters; then both name the same position
    spec = Characteristic(directive)
    expected = _or_message(_characteristic_window_by_letters, spec, lo, hi)
    assert _or_message(sequence_window, spec, lo, hi) == expected


MECHANICAL_SLOPES = sorted({Fraction(p, q) for q in range(1, 31) for p in range(q + 1)})


@settings(max_examples=6, deadline=None)
@given(
    st.integers(-60, 120),
    st.integers(2, 9).flatmap(lambda d: st.tuples(st.integers(0, d - 1), st.just(d))),
    st.sampled_from(("lower", "upper")),
)
def test_mechanical_factors_match_window_oracle(k, offset, kind):
    # what Mechanical rests on: for every slope p/q with q <= 30, the mechanical word of any intercept and either
    # rounding has the factors of Mechanical(p/q) at every n <= q + 1, and so at every n, as it has period q;
    # rho = k/q + j/(dq): on the 1/q grid when j = 0, strictly between two of its points otherwise
    from oracles import mechanical_window

    j, d = offset
    for slope in MECHANICAL_SLOPES:
        q = slope.denominator
        window = mechanical_window(slope, Fraction(k * d + j, q * d), kind, -3 * q - 2, 3 * q + 2)
        for n in range(q + 2):
            assert enumerate_factors(Mechanical(slope), n) == tuple(factors(window, n)), (slope, n)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40).flatmap(_christoffel_powers), st.integers(0, 40))
def test_periodic_factors_match_cyclic_and_window_oracles(word, n):
    from oracles import cyclic_factors, window_factors

    fs = enumerate_factors(Periodic(word), n)
    assert fs == tuple(cyclic_factors(word, n)) == window_factors(Periodic(word), n)


def test_enumerate_factors_reads_no_letter(monkeypatch):
    # every variant's factors, its radix chain and a short directive's error come from the rotation and the
    # directive's convergents, with no letter of the spec read
    specs = (FIB, Characteristic((2, 1, 3)), Periodic("aabab"), Skew("aba", "blocks", "ba"), Skew(),
             Mechanical(Fraction(3, 8)))
    expected = [[enumerate_factors(spec, n) for n in range(10)] for spec in specs]
    words = [radix_chain_check(spec, 9) for spec in specs]

    def refuse(*args):
        raise AssertionError(f"letters read: {args}")

    monkeypatch.setattr(language, "sequence_window", refuse)
    assert [[enumerate_factors(spec, n) for n in range(10)] for spec in specs] == expected
    assert [radix_chain_check(spec, 9) for spec in specs] == words
    with pytest.raises(ValueError, match="^directive too short for position 4$"):
        enumerate_factors(Characteristic((1, 1)), 5)


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
        w = sequence_window(FIB, 1, n)
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
    assert radix_chain_check(FIB, 9) == 55
    differences = radix_chain_differences(list(_radix_words(FIB, 9)))
    assert len(differences) == 54
    assert all(d.is_nonneg_nonzero() for d in differences)


def test_library_calls_from_concurrent_threads_match_serial():
    # the README says the library is safe to use from concurrent threads: the mu_q memo is filled
    # from four threads at once, and every thread checks the radix chain of one shared spec
    words = list(_radix_words(FIB, 12))[1:]
    jobs = ([(q_markoff, w) for w in words] + [(mu_q, w) for w in words]
            + [(lambda lo: sequence_window(FIB, lo, lo + 64), lo) for lo in range(-300, 300, 7)]
            + [(lambda n: radix_chain_check(FIB, n), 12)] * 16)
    mu_q.cache_clear()
    serial = [f(x) for f, x in jobs]
    mu_q.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(f, x) for f, x in jobs]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == serial


@pytest.mark.parametrize(
    "spec",
    [
        FIB,
        Periodic("aabab"),
        Skew(m="aba", form="blocks", xy="ba"),
        Mechanical(Fraction(3, 8)),
    ],
)
def test_radix_chain_matches_schoolbook(spec):
    from oracles import mu_q_schoolbook

    chain = list(_radix_words(spec, 16))
    assert radix_chain_check(spec, 16) == len(chain)
    values = [mu_q_schoolbook(w).e12 for w in chain]
    assert list(map(q_markoff, chain)) == values
    gammas = [Fraction(1, 3), 1, Fraction(7, 5)]
    expected = [(w, [evaluate_by_fraction_horner(p, g) for g in gammas]) for w, p in zip(chain, values)]
    rows = [(w, [Fraction(y, s) for y, s in ratios]) for w, ratios in curve_ratios(spec, 16, gammas)]
    assert rows == expected


def test_curves_export_builds_no_mu_q(monkeypatch):
    def refuse(w):
        raise AssertionError(f"mu_q({w!r}) called")

    monkeypatch.setattr(morphism, "mu_q", refuse)
    rows = list(curve_ratios(FIB, 9, [1, Fraction(1, 2), 0.5]))
    assert len(rows) == 55 and all(len(ratios) == 3 for _, ratios in rows)


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
            Mechanical(Fraction(3, 8)),
            Mechanical(Fraction(2, 7)),
        ]
    ),
    st.integers(0, 12),
    st.lists(positive_gammas, min_size=1, max_size=3),
)
def test_curves_export_matches_polynomial_evaluation(spec, max_len, gammas):
    # exact for every kind of gamma: int, Fraction or float, and an int gamma has denominator 1
    rows = list(curve_ratios(spec, max_len, gammas))
    assert [w for w, _ in rows] == list(_radix_words(spec, max_len))
    for w, ratios in rows:
        for g, (y, s) in zip(gammas, ratios, strict=True):
            assert Fraction(y, s) == evaluate_by_fraction_horner(q_markoff(w), Fraction(g))
            assert s == 1 or not isinstance(g, int)


def test_radix_chain_failure_matches_schoolbook(monkeypatch):
    # all words of length <= 3 form a prefix-closed chain that is not balanced
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
    # 33,153 words, up to 256 letters: the whole chain takes about 7.5 MiB, one length of it 0.2 MiB
    radix_chain_check(FIB, 4)
    tracemalloc.start()
    try:
        radix_chain_check(FIB, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("spec", [Mechanical(Fraction(126, 253)), Periodic("aabab")], ids=["126/253", "aabab"])
def test_radix_chain_check_memory_is_bounded_through_the_cover(spec):
    # both walk only the chain of their enclosing skew language, their cover (33,153 words), one length at a time
    radix_chain_check(spec, 4)
    tracemalloc.start()
    try:
        radix_chain_check(spec, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_radix_chain_other_specs():
    for spec in (
        Periodic("ab"),
        Periodic("aab"),
        Periodic("aabab"),
        Skew(),
        Skew(m="aba", form="blocks"),
        Characteristic((2, 1, 2, 1, 2, 1, 2, 1, 2, 1)),
        Mechanical(Fraction(2, 5)),
    ):
        radix_chain_check(spec, 6)


def test_comparator_rejects_cross_language_pair():
    # abb and baa never sit in one balanced language; the order fails on them
    diff = q_markoff("baa") - q_markoff("abb")
    assert diff == poly(0, 1, -1, -2, -2, -3, -2, -1)
    assert not precedes(q_markoff("abb"), q_markoff("baa"))


def test_monotonicity_error_payload():
    err = MonotonicityError("abb", "baa", poly(0, 1, -1))
    assert err.src == "abb" and err.dst == "baa"
    assert "abb" in str(err)


def test_radix_chain_requires_positive_max_n():
    with pytest.raises(ValueError):
        radix_chain_check(FIB, 0)


def test_curves_export_counts_and_specialization():
    gammas = [Fraction(1, 2), 1]
    rows = list(curve_ratios(FIB, 9, gammas))
    assert len(rows) == 55
    for word, (_, (y, s)) in rows:
        assert Fraction(y, s) == mu(word)[0][1]


def test_curves_export_strictly_increasing():
    gammas = [Fraction(1, 100), Fraction(1, 2), 1, 3, 100]
    rows = list(curve_ratios(FIB, 9, gammas))
    for i, g in enumerate(gammas):
        vals = [Fraction(*ratios[i]) for _, ratios in rows]
        assert all(x < y for x, y in zip(vals, vals[1:])), g


def test_curves_export_degree_facts():
    words = list(_radix_words(FIB, 9))
    degrees = sorted({degree(q_markoff(w)) for w in words if w})
    assert degrees == list(range(25))
    nine = [w for w in words if len(w) == 9 and degree(q_markoff(w)) == 23]
    assert len(nine) == 4


def test_curves_export_rejects_nonpositive_gamma():
    with pytest.raises(ValueError, match="positivity domain"):
        curve_ratios(FIB, 3, [1, 0])
    with pytest.raises(ValueError, match="positivity domain"):
        curve_ratios(FIB, 3, [Fraction(-1, 2)])


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
    # independent route: the factors equal those read off a window of the lower mechanical word of the
    # convergent slope, one letter at a time
    spec, mech = Characteristic(directive), Mechanical(_convergent_slope(directive))
    for n in range(1, 9):
        assert enumerate_factors(spec, n) == window_factors(mech, n), n


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
    from oracles import mechanical_window

    target = Fraction(2, 5)
    windows = []
    for j in range(1, 8):
        windows.append(mechanical_window(target + Fraction(1, 5 * 4**j), 0, "lower", -8, 9))
    assert len(set(windows[2:])) == 1
    stable = windows[-1]
    assert stable == sequence_window(Skew(m="aba", form="blocks", xy="ab"), -8, 9)
    center = stable[8 - 1 : 8 + 1]
    assert center == "ba"
    assert all(stable[8 + k] == stable[8 - 1 - k] for k in range(1, 8))
