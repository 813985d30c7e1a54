"""The word certificate of radix_chain_check: the identities it rests on, the pairs it accepts,
the walk of every spec along the chain of one rotation, enclosing a periodic or mechanical spec's,
and agreement with the polynomial reference oracles.first_unordered."""

import itertools
import math
from collections import Counter
from fractions import Fraction
from itertools import pairwise

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarkoff import language, morphism
from qmarkoff.cli import parse_spec
from qmarkoff.language import (
    FLIP_AB_BA, Characteristic, Mechanical, MonotonicityError, Periodic, Skew, radix_chain_check,
)
from qmarkoff.morphism import mu_q, q_markoff
from qmarkoff.qpoly import IntPolynomial, QMatrix
from qmarkoff.words import christoffel_word

from oracles import (
    IDENTITY, MU_Q_A, MU_Q_B, ONE, Q, ZERO, christoffel_words_upto, classify_change_by_letters, det, factors,
    first_unordered, matmul, matscale, matsub, pmul, poly, positivity_report, reversal, window_factors,
)
from test_language import _or_message

FIB = Characteristic((1,) * 24)
D = matsub(matmul(MU_Q_B, MU_Q_A), matmul(MU_Q_A, MU_Q_B))  # mu_q(ba) - mu_q(ab)
# combo1 and combo2 of positivity_report as linear functionals f(X) = sum F_ij X_ij of X = mu_q(w)
COMBO1 = QMatrix(Q, -poly(0, 0, 1), ONE, ZERO)
COMBO2 = QMatrix(poly(0, 1, 1), -poly(0, 0, 1, 1, 1), ONE, -Q)


def _transpose(m: QMatrix) -> QMatrix:
    return QMatrix(m.e11, m.e21, m.e12, m.e22)


def _apply(f: QMatrix, x: QMatrix) -> IntPolynomial:
    """f(X) = sum F_ij X_ij."""
    return sum((pmul(a, b) for a, b in zip(f, x)), ZERO)


def _e12_functional(left: QMatrix, right: QMatrix) -> QMatrix:
    """Coefficients G of X -> (left·X·right)[1,2]: G_ik = left_1i * right_k2."""
    return QMatrix(pmul(left.e11, right.e12), pmul(left.e11, right.e22), pmul(left.e12, right.e12),
                   pmul(left.e12, right.e22))


def _nonneg(p: IntPolynomial) -> bool:
    return not p or p.is_nonneg_nonzero()


# ---- the identities behind each certified kind of pair


def test_flip_matrix_closed_form():
    assert D == matsub(mu_q("ba"), mu_q("ab")) == QMatrix(ZERO, poly(0, 1, 0, 0, 1), -poly(0, 0, 1, 0, 0, 1), ZERO)
    assert (det(MU_Q_A), det(MU_Q_B)) == (poly(0, 0, 1), poly(0, 0, 0, 0, 1))


@pytest.mark.parametrize("m", [MU_Q_A, MU_Q_B], ids=["a", "b"])
def test_flip_conjugation(m):
    # M_x·D·M_x = det(M_x)·D, so mu_q(ũ)·D·mu_q(u) = q^det_exponent(u)·D by induction on u
    assert matmul(m, D, m) == matscale(det(m), D)


def test_last_letter_column():
    # (M_b - M_a) has second column (q, 0): q_markoff(wb) - q_markoff(wa) = q·mu_q(w)[1,1]
    diff = matsub(MU_Q_B, MU_Q_A)
    assert (diff.e12, diff.e22) == (Q, ZERO)


def test_wrap_functionals():
    # combo2 is the wrap gap X -> (M_a·X·M_a)[1,2] - (M_b·X)[1,2] of X = mu_q(w)
    assert matsub(_e12_functional(MU_Q_A, MU_Q_A), _e12_functional(MU_Q_B, IDENTITY)) == COMBO2
    # f(X·M) has coefficient matrix F·M^T
    after = {(name, x): matmul(f, _transpose(m)) for name, f in (("combo1", COMBO1), ("combo2", COMBO2))
             for x, m in (("a", MU_Q_A), ("b", MU_Q_B))}
    assert after["combo2", "a"] == matscale(poly(0, 0, 1), COMBO1)
    assert after["combo1", "a"] == QMatrix(poly(0, 0, 0, 1), ZERO, poly(0, 1, 1), Q)
    for key in (("combo1", "a"), ("combo1", "b"), ("combo2", "b")):
        assert all(map(_nonneg, after[key])) and after[key].e11, key
    assert (_apply(COMBO1, IDENTITY), _apply(COMBO2, IDENTITY)) == (Q, poly(0, 0, 1))


@pytest.mark.parametrize("w", ["", "a", "b", "ab", "ba", "aabab", "babba", "abaababaab"])
def test_wrap_functionals_match_positivity_report(w):
    report = positivity_report(w)
    assert (_apply(COMBO1, mu_q(w)), _apply(COMBO2, mu_q(w))) == (report.combo1, report.combo2)
    assert report.combo2 == q_markoff("a" + w + "a") - q_markoff("b" + w)


# ---- the predicate


@st.composite
def local_pairs(draw):
    """(shape, u, v): a pair of each shape of local change, on words of at most 24 letters.

    Shapes 0-3 are "" -> a, a last-letter change, a wrap and a flip x·ab·y -> x·ba·y with
    reversal(x) and y prefix-comparable; shape 4 is a flip with x and y drawn freely.
    """
    shape = draw(st.integers(0, 4))
    w = draw(st.text("ab", max_size=22))
    if shape == 0:
        return shape, "", "a"
    if shape == 1:
        return shape, w + "a", w + "b"
    if shape == 2:
        return shape, "b" + w[:-1], "a" + w[:-1] + draw(st.sampled_from("ab"))
    if shape == 3:
        u, t = w[:8], draw(st.text("ab", max_size=6))
        x, y = (reversal(u), u + t) if draw(st.booleans()) else (reversal(u + t), u)
    else:
        x, y = w[:11], draw(st.text("ab", max_size=11))
    return shape, x + "ab" + y, x + "ba" + y


@settings(max_examples=400, deadline=None)
@given(local_pairs())
def test_certified_pairs_are_positive(pair):
    shape, u, v = pair
    if shape < 4:
        assert language._certified(u, v)
    if language._certified(u, v):
        assert (q_markoff(v) - q_markoff(u)).is_nonneg_nonzero()


def test_certificate_refuses_a_zero_flip():
    # counterexample 6: aabb -> abab is a flip with x = a, y = b, and its difference is 0
    assert language.classify_change("aabb", "abab") == FLIP_AB_BA
    assert q_markoff("abab") - q_markoff("aabb") == ZERO
    assert not language._certified("aabb", "abab")


@settings(max_examples=300, deadline=None)
@given(local_pairs(), st.integers(0, 25), st.sampled_from("ab"), st.booleans())
def test_classify_change_matches_letter_by_letter(pair, at, letter, edit):
    # local pairs, and local pairs with one more letter of v set or cut
    _, u, v = pair
    if edit:
        v = v[:at] + letter + v[at + 1 :] if at < len(v) else v[:-1]
    try:
        expected = classify_change_by_letters(u, v)
    except ValueError:
        with pytest.raises(ValueError):
            language.classify_change(u, v)
    else:
        assert language.classify_change(u, v) == expected


def test_classify_change_refuses_letters_outside_ascii():
    with pytest.raises(ValueError):
        language.classify_change("\u00e9ab", "\u00e9ba")


def test_certificate_refuses_non_local_pairs():
    for u, v in (("", "b"), ("ab", "ab"), ("abb", "baa"), ("ba", "ab"), ("bb", "aaa"), ("aa", "bab"), ("a", "")):
        assert not language._certified(u, v), (u, v)


# ---- radix_chain_check against the polynomial reference


def _assert_matches_reference(chain, check):
    """check() returns the chain's word count when first_unordered finds no pair, else raises the
    MonotonicityError of its first pair with the exact difference."""
    i = first_unordered(chain)
    try:
        words = check()
    except MonotonicityError as err:
        assert i is not None
        u, v = chain[i], chain[i + 1]
        assert (err.src, err.dst, err.difference) == (u, v, q_markoff(v) - q_markoff(u))
    else:
        assert i is None and words == len(chain)


def _assert_spec_matches_reference(spec, max_n):
    _assert_matches_reference(list(language._radix_words(spec, max_n)), lambda: radix_chain_check(spec, max_n))


def _counted(monkeypatch, *targets):
    """Counter of the calls to each (module, name) of `targets` from now on."""
    calls = Counter()
    for module, name in targets:
        def counted(*args, real=getattr(module, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


# the specs of the CLI argv fuzz test that parse and reach length 16
FUZZ_SPECS = ["fibonacci", "periodic:aab", "skew", "skew:m=aba,form=blocks,xy=ba",
              "mechanical:alpha=2/7,rho=-1/3,kind=upper", "mechanical:alpha=0",
              "mechanical:alpha=1/1000000000,rho=1/3", "mechanical:alpha=0.0000000001"]


@pytest.mark.parametrize("text", FUZZ_SPECS)
def test_fuzz_specs_match_packed(text):
    _assert_spec_matches_reference(parse_spec(text), 16)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40).flatmap(lambda q: st.tuples(st.integers(0, q), st.just(q))), st.integers(1, 24))
def test_mechanical_specs_match_packed(slope, max_n):
    _assert_spec_matches_reference(Mechanical(Fraction(*slope)), max_n)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 30).flatmap(lambda q: st.tuples(st.integers(1, q - 1), st.just(q))).filter(
        lambda s: math.gcd(*s) == 1),
    st.sampled_from(language.SKEW_FORMS),
    st.sampled_from(("ab", "ba")),
    st.integers(1, 24),
)
def test_skew_specs_match_packed(slope, form, xy, max_n):
    _assert_spec_matches_reference(Skew(christoffel_word(*slope)[1:-1], form, xy), max_n)


def _walked_chain(spec, max_n):
    """The radix chain that radix_chain_check(spec, max_n) walks."""
    walked = []
    radix_words = language._radix_words
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(language, "_radix_words", lambda walk, n: walked.append(walk) or radix_words(walk, n))
        radix_chain_check(spec, max_n)
    (chain_spec,) = walked
    return list(radix_words(chain_spec, max_n))


SKEW_SPECS = [Skew(w[1:-1], form, xy) for w in sorted(christoffel_words_upto(30)) if len(w) >= 2
              for form in language.SKEW_FORMS for xy in ("ab", "ba")]


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(st.lists(st.integers(1, 4), min_size=1, max_size=12).map(Characteristic), st.sampled_from(SKEW_SPECS)),
    st.integers(1, 64),
)
def test_mirror_specs_walk_a_rotation_with_their_own_chain(spec, max_n):
    # the rotation one quotient past max_n on the path has the spec's chain at every length, or the directive
    # is too short and both fail with the same line
    own = _or_message(lambda: list(language._radix_words(spec, max_n)))
    assert _or_message(_walked_chain, spec, max_n) == own


def test_a_short_directive_fails_before_the_walk(monkeypatch):
    def refuse(spec, max_n):
        raise AssertionError("a chain is walked")

    monkeypatch.setattr(language, "_radix_words", refuse)
    with pytest.raises(ValueError, match="^directive too short for position 4$"):
        radix_chain_check(Characteristic((1, 1)), 8)


def test_mechanical_languages_lie_in_their_certified_enclosing_skew_language():
    # every slope p/q with q <= 30 walks, at max_n = 40, a chain whose language at every n <= 40 is that of one skew
    # spec of slope p/q, holds Mechanical(p/q)'s, and is certified: 11,160 inclusions, and 279 certified chains
    slopes = {Fraction(p, q) for q in range(1, 31) for p in range(q + 1)}
    assert len(slopes) * 40 == 11160
    for slope in slopes:
        chain = _walked_chain(Mechanical(slope), 40)
        p, q = slope.as_integer_ratio()
        m, form = (christoffel_word(p, q)[1:-1], "blocks") if q > 1 else ("", "xxyxx")
        by_length = [tuple(w for w in chain if len(w) == n) for n in range(1, 41)]
        skews = [[window_factors(Skew(m, form, xy), n) for n in range(1, 41)] for xy in ("ab", "ba")]
        assert by_length in skews, slope
        for n, fs in enumerate(by_length, 1):
            assert set(language.enumerate_factors(Mechanical(slope), n)) <= set(fs), (slope, n)
        assert all(map(language._certified, chain, chain[1:])), slope


def test_periodic_and_mechanical_walks_count_their_own_chains():
    # every slope p/q with q <= 30, at each max_n <= 40 where the walk changes: below q its own chain, from q on
    # the members of its enclosing skew chain; the word count is its own chain's, and where q <= 20, it finds
    # no unordered pair, as the reference does on its own chain through length q + 1
    slopes = sorted({Fraction(p, q) for q in range(1, 31) for p in range(q + 1)})
    assert len(slopes) == 279
    for slope in slopes:
        spec, q = Mechanical(slope), slope.denominator
        for max_n in sorted({q - 1, q, q + 1, 40} - {0}):
            words = sum(len(language.enumerate_factors(spec, n)) for n in range(max_n + 1))
            assert radix_chain_check(spec, max_n) == words, (slope, max_n)
        if q <= 20:
            _assert_spec_matches_reference(spec, q + 1)


@pytest.mark.parametrize("period", ["ab", "aab", "abb", "aabab", "abababb"])
def test_small_periods_take_the_fallback(period, monkeypatch):
    # their own chains hold non-local pairs that _certified refuses; the walk along the enclosing skew chain
    # orders them all, and no pair falls back to a difference
    spec = Periodic(period)
    chain = list(language._radix_words(spec, 12))
    assert not all(map(language._certified, chain, chain[1:]))
    calls = _counted(monkeypatch, (language, "q_markoff"))
    _assert_spec_matches_reference(spec, 12)
    assert calls == Counter()


def test_cover_keeps_the_order_of_the_enclosing_chain(monkeypatch):
    # the enclosing skew chain covers the spec's chain: with its last two members swapped, the walk meets
    # the spec's words in the other order, and their own difference refuses them
    spec = Periodic("aabab")
    own = list(language._radix_words(spec, 12))
    radix_words = language._radix_words

    def swapped(chain_spec, max_n):
        chain = list(radix_words(chain_spec, max_n))
        i, j = chain.index(own[-2]), chain.index(own[-1])
        chain[i], chain[j] = chain[j], chain[i]
        return chain

    monkeypatch.setattr(language, "_radix_words", swapped)
    members = own[:-2] + [own[-1], own[-2]]
    assert first_unordered(members) == len(members) - 2
    _assert_matches_reference(members, lambda: radix_chain_check(spec, 12))


def test_a_refused_enclosing_pair_uncovers_only_the_segments_spanning_it(monkeypatch):
    # consecutive members u, v of the enclosing chain are ordered by its pairs from u to v alone: refusing any
    # one pair of that chain sends exactly the member pair spanning it to its own difference, and none when
    # the pair lies past the last member
    spec = Periodic("aabab")
    skew = _walked_chain(spec, 12)
    own = list(language._radix_words(spec, 12))
    assert (len(skew), len(own)) == (91, 55) and skew[-1] not in own
    segments = list(pairwise([skew.index(w) for w in own]))
    certified, real = language._certified, language.q_markoff
    for k in range(len(skew) - 1):
        monkeypatch.setattr(language, "_certified", lambda u, v: (u, v) != (skew[k], skew[k + 1]) and certified(u, v))
        words = []
        monkeypatch.setattr(language, "q_markoff", lambda w: words.append(w) or real(w))
        assert radix_chain_check(spec, 12) == 55
        assert words == [w for i, j in segments if i <= k < j for w in (skew[j], skew[i])], k
        assert len(words) == (2 if k < skew.index(own[-1]) else 0), k


def test_non_balanced_chain_matches_packed(monkeypatch):
    # all words of length <= 3, as in test_radix_chain_failure_matches_schoolbook
    chain = [""] + ["".join(t) for n in range(1, 4) for t in itertools.product("ab", repeat=n)]
    monkeypatch.setattr(language, "_radix_words", lambda spec, n: chain)
    _assert_matches_reference(chain, lambda: radix_chain_check(FIB, 3))


@settings(max_examples=60, deadline=None)
@given(st.text("ab", min_size=12, max_size=40), st.integers(1, 12))
def test_factor_chains_of_any_word_match_packed(word, max_n):
    # prefix-closed chains from any word: balanced or not, certified, covered or failing
    chain = [""] + [f for n in range(1, max_n + 1) for f in factors(word, n)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(language, "_radix_words", lambda spec, n: chain)
        _assert_matches_reference(chain, lambda: radix_chain_check(FIB, max_n))


def test_certified_chain_makes_no_packed_step(monkeypatch):
    calls = _counted(monkeypatch, (morphism, "_walk"), (language, "q_markoff"))
    assert radix_chain_check(FIB, 64) == 2145
    assert calls == Counter()
    language.q_markoff("ab")  # what one difference would count
    assert calls == Counter(q_markoff=1, _walk=1)
