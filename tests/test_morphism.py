import itertools
import math
import random
from fractions import Fraction
from itertools import pairwise

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarkoff import morphism
from qmarkoff.language import Characteristic, Mechanical, Periodic, Skew, _radix_words
from qmarkoff.morphism import (
    _slot_bits,
    christoffel_node,
    det_exponent,
    is_christoffel,
    markoff_triple,
    mu,
    mu_q,
    q_markoff,
    tree_paths,
)
from qmarkoff.qpoly import QMatrix
from qmarkoff.words import christoffel_word

from oracles import (
    IDENTITY,
    MU_Q_A,
    MU_Q_B,
    ONE,
    Q,
    ZERO,
    christoffel_words_upto,
    delta_last_letter,
    delta_wrap,
    det_mu_q,
    det,
    evaluate_by_fraction_horner,
    first_unordered,
    flip_delta,
    flip_matrix,
    flip_prefix_delta,
    matmul,
    matscale,
    matsub,
    monomial,
    mu_q_schoolbook,
    pmul,
    poly,
    positivity_report,
    precedes,
    reversal,
)

words_st = st.text(alphabet="ab", max_size=8)

# Node polynomials of the q-Markoff tree down to depth 2.
TREE_POLYNOMIALS = {
    "ab": poly(1, 1, 2, 1),
    "aab": poly(1, 2, 3, 3, 3, 1),
    "abb": poly(1, 2, 5, 6, 6, 5, 3, 1),
    "aaab": poly(1, 3, 5, 7, 7, 6, 4, 1),
    "aabab": poly(1, 4, 10, 18, 27, 33, 33, 29, 21, 12, 5, 1),
    "ababb": poly(1, 4, 12, 25, 42, 58, 68, 69, 61, 45, 28, 14, 5, 1),
    "abbb": poly(1, 3, 9, 16, 24, 29, 29, 25, 18, 10, 4, 1),
}


def _at_one(m):
    """m with every entry evaluated at q = 1, as mu returns it."""
    e11, e12, e21, e22 = (evaluate_by_fraction_horner(e, 1) for e in m)
    return (e11, e12), (e21, e22)


def all_words(min_len, max_len):
    for n in range(min_len, max_len + 1):
        for tup in itertools.product("ab", repeat=n):
            yield "".join(tup)


def test_mu_examples():
    assert mu("aabab") == ((463, 194), (284, 119))
    assert mu("") == ((1, 0), (0, 1))
    assert mu("ab") == ((12, 5), (7, 3))


def test_mu_q_generators():
    assert mu_q("a") == MU_Q_A
    assert mu_q("b") == MU_Q_B
    assert mu_q("") == IDENTITY
    assert tuple(mu_q("a")) == (poly(0, 1, 1), poly(1), poly(0, 1), poly(1))
    assert tuple(mu_q("b")) == (poly(0, 1, 2, 1, 1), poly(1, 1), poly(0, 1, 1), poly(1))


def test_generators_factor_into_r_and_l():
    # the factorization the packed and rational walks take one step at a time
    R = QMatrix(Q, ONE, ZERO, ONE)
    L = QMatrix(Q, ZERO, Q, ONE)
    assert MU_Q_A == matmul(R, L)
    assert MU_Q_B == matmul(R, R, L, L)


def test_q_markoff_tree_polynomials():
    for word, expected in TREE_POLYNOMIALS.items():
        assert q_markoff(word) == expected, word
    assert q_markoff("") == ZERO


def test_q_markoff_canonical_text():
    assert str(q_markoff("aabab")) == (
        "1 + 4*q + 10*q^2 + 18*q^3 + 27*q^4 + 33*q^5 + 33*q^6"
        " + 29*q^7 + 21*q^8 + 12*q^9 + 5*q^10 + q^11"
    )


def test_morphism_law_exhaustive_len6():
    words = [""] + list(all_words(1, 6))
    for u in words:
        for v in words:
            assert matmul(mu_q(u), mu_q(v)) == mu_q(u + v)


def test_specialization_at_one_len10():
    for w in all_words(0, 10):
        assert _at_one(mu_q(w)) == mu(w)


def test_determinant_form_len10():
    for w in all_words(0, 10):
        assert det(mu_q(w)) == det_mu_q(w), w
    assert det_mu_q("a") == poly(0, 0, 1)
    assert det_mu_q("b") == monomial(4)
    assert det_mu_q("") == poly(1)


def test_flip_matrix_constant():
    d = flip_matrix()
    assert d.e12 == poly(0, 1, 0, 0, 1)
    assert d.e21 == poly(0, 0, -1, 0, 0, -1)
    assert d.e11 == ZERO and d.e22 == ZERO
    assert d == matsub(mu_q("ba"), mu_q("ab"))


def test_conjugation_identities():
    d = flip_matrix()
    assert matmul(mu_q("a"), d, mu_q("a")) == matscale(poly(0, 0, 1), d)
    assert matmul(mu_q("b"), d, mu_q("b")) == matscale(monomial(4), d)


def test_flip_delta_examples():
    assert flip_delta("") == flip_matrix()
    assert flip_delta("a") == matscale(poly(0, 0, 1), flip_matrix())
    assert flip_delta("ab") == matscale(monomial(6), flip_matrix())
    assert det_exponent("ab") == 6


def test_flip_delta_random_and_exhaustive():
    for u in all_words(0, 6):
        flip_delta(u)  # raises on any mismatch
    rng = random.Random(2021)
    for _ in range(200):
        u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 12)))
        assert flip_delta(u) == matscale(monomial(det_exponent(u)), flip_matrix())


def test_positivity_report_base_cases():
    r = positivity_report("")
    assert r.combo1 == poly(0, 1)
    assert r.combo2 == poly(0, 0, 1)
    assert r.e12 == ZERO and r.e21 == ZERO
    # appending a letter rescales the wrap combination: combo2(wa) = q^2 * combo1(w)
    ra = positivity_report("a")
    assert ra.combo2 == pmul(poly(0, 0, 1), positivity_report("").combo1)
    rb = positivity_report("b")
    for f in (rb.e11, rb.e12, rb.e21, rb.e22, rb.combo1, rb.combo2):
        assert f.is_nonneg_nonzero()


def test_positivity_report_exhaustive_len10():
    for w in all_words(1, 10):
        r = positivity_report(w)
        for f in (r.e11, r.e12, r.e21, r.e22, r.combo1, r.combo2):
            assert f.is_nonneg_nonzero(), w


def test_delta_last_letter():
    assert delta_last_letter("") == poly(0, 1)
    assert delta_last_letter("a") == poly(0, 0, 1, 1)
    for w in ("ab", "ba", "aabab"):
        assert delta_last_letter(w) == pmul(Q, mu_q(w).e11)


def test_delta_wrap():
    assert delta_wrap("").awa_minus_bw == poly(0, 0, 1)
    for w in ("", "a", "ba", "abab"):
        d = delta_wrap(w)
        assert d.awa_minus_bw.is_nonneg_nonzero()
        assert d.awb_minus_awa.is_nonneg_nonzero()
        assert d.awa_minus_bw == positivity_report(w).combo2
        assert d.awb_minus_awa == delta_last_letter("a" + w)


@given(words_st)
def test_gap_identities_random_words(w):
    assert delta_last_letter(w) == pmul(Q, mu_q(w).e11)
    wrap = delta_wrap(w)
    assert wrap.awa_minus_bw == positivity_report(w).combo2
    assert wrap.awb_minus_awa == delta_last_letter("a" + w)
    assert wrap.awa_minus_bw.is_nonneg_nonzero()
    assert wrap.awb_minus_awa.is_nonneg_nonzero()


def test_flip_prefix_delta():
    assert flip_prefix_delta("", "") == poly(0, 1, 0, 0, 1)
    assert flip_prefix_delta("", "a") == poly(0, 1, 0, 0, 1)
    assert flip_prefix_delta("a", "ab").is_nonneg_nonzero()
    with pytest.raises(ValueError, match="prefix"):
        flip_prefix_delta("ab", "ba")


@given(st.text(alphabet="ab", max_size=5), st.text(alphabet="ab", max_size=4))
def test_flip_prefix_delta_nonneg(u, extension):
    v = u + extension
    d = flip_prefix_delta(u, v)
    assert d.is_nonneg_nonzero()
    assert d == q_markoff(reversal(u) + "ba" + v) - q_markoff(reversal(u) + "ab" + v)


def test_christoffel_nodes():
    assert christoffel_node("").word == "ab"
    assert christoffel_node("L").word == "aab"
    assert christoffel_node("LR").word == "aabab"
    assert str(christoffel_node("LR")) == "aab.ab"
    with pytest.raises(ValueError):
        christoffel_node("LX")


def test_markoff_triples():
    assert markoff_triple("") == markoff_triple([]) and str(markoff_triple("")) == "(1,5,2)"
    assert (markoff_triple("L").x, markoff_triple("L").y, markoff_triple("L").z) == (1, 13, 5)
    t = markoff_triple("LR")
    assert (t.x, t.y, t.z) == (13, 194, 5)
    assert len({t.x, t.y, t.z}) == 3


def test_markoff_triple_invariant():
    with pytest.raises(ValueError):
        from qmarkoff.morphism import MarkoffTriple

        MarkoffTriple(1, 2, 3)


# Tree triples by path: all of depths 0..3 and the outer depth-4 nodes.
TREE_TRIPLES = {
    "": (1, 5, 2),
    "L": (1, 13, 5),
    "R": (5, 29, 2),
    "LL": (1, 34, 13),
    "LR": (13, 194, 5),
    "RL": (5, 433, 29),
    "RR": (29, 169, 2),
    "LLL": (1, 89, 34),
    "LLR": (34, 1325, 13),
    "LRL": (13, 7561, 194),
    "LRR": (194, 2897, 5),
    "RLL": (5, 6466, 433),
    "RLR": (433, 37666, 29),
    "RRL": (29, 14701, 169),
    "RRR": (169, 985, 2),
    "LLLL": (1, 233, 89),
    "LLLR": (89, 9077, 34),
    "RRRL": (169, 499393, 985),
    "RRRR": (985, 5741, 2),
}


def test_tree_triples():
    for path, (x, y, z) in TREE_TRIPLES.items():
        t = markoff_triple(path)
        assert (t.x, t.y, t.z) == (x, y, z), path


def test_triple_word_correspondence_depth8():
    # middle component = mu(word) entry (1,2); the construction keeps the
    # maximum in the middle without reordering
    for path in tree_paths(8):
        word = christoffel_node(path).word
        t = markoff_triple(path)
        assert t.y == mu(word)[0][1], path
        assert t.y == max(t.x, t.y, t.z), path


def test_tree_paths_bfs():
    assert tree_paths(1) == [(), ("L",), ("R",)]
    assert len(tree_paths(4)) == 31
    with pytest.raises(ValueError):
        tree_paths(-1)


def test_christoffel_words():
    assert christoffel_words_upto(5) == {
        "a", "b", "ab", "aab", "abb", "aaab", "abbb", "aaaab", "aabab", "ababb", "abbbb",
    }
    assert is_christoffel("aabab")
    assert is_christoffel("a") and is_christoffel("b")
    assert not is_christoffel("aabb")
    assert not is_christoffel("ba")
    assert not is_christoffel("")


def test_is_christoffel_matches_tree_oracle_len12():
    tree = christoffel_words_upto(12)
    for n in range(1, 13):
        for letters in itertools.product("ab", repeat=n):
            w = "".join(letters)
            assert is_christoffel(w) == (w in tree), w


def test_collision_at_q1_and_q_collision():
    # the classical 75-collision persists in the q-analog's (1,2) entry,
    # while the full matrices still differ
    assert mu("aabb")[0][1] == mu("abab")[0][1] == 75
    assert q_markoff("aabb") == q_markoff("abab") == poly(1, 3, 7, 11, 14, 14, 12, 8, 4, 1)
    assert mu_q("aabb") != mu_q("abab")


def test_known_q_collision_length6():
    expected = poly(1, 5, 16, 38, 70, 109, 145, 168, 171, 152, 118, 79, 44, 19, 6, 1)
    assert q_markoff("aaabbb") == expected
    assert q_markoff("abbaab") == expected


@settings(max_examples=25, deadline=None)
@given(st.text(alphabet="ab", max_size=120))
def test_packed_mu_q_matches_schoolbook(w):
    mu_q.cache_clear()
    assert mu_q(w) == mu_q_schoolbook(w)
    assert q_markoff(w) == mu_q_schoolbook(w).e12


def test_mu_q_long_word_from_cold_cache():
    # 600 letters: past the depth at which a prefix-recursive mu_q overflows the stack
    w = "ab" * 300
    mu_q.cache_clear()
    assert _at_one(mu_q(w)) == mu(w)


def test_q_markoff_long_word_from_cold_cache():
    w = "ab" * 300
    mu_q.cache_clear()
    assert q_markoff(w) == mu_q_schoolbook(w).e12


def test_q_markoff_builds_no_mu_q(monkeypatch):
    def refuse(w):
        raise AssertionError(f"mu_q({w!r}) called")

    monkeypatch.setattr(morphism, "mu_q", refuse)
    assert q_markoff("") == ZERO
    for w, p in TREE_POLYNOMIALS.items():
        assert q_markoff(w) == p
    for w in all_words(1, 7):
        assert q_markoff(w) == mu_q_schoolbook(w).e12


def test_first_unordered_small_chains():
    assert first_unordered(["", "a", "b"]) is None
    assert first_unordered(["", "b", "a"]) == 1
    assert first_unordered(["b", "a"]) == 0
    assert first_unordered(["a", "a"]) == 0
    # ordered up to its last pair, whose difference q^3 + q^4 + 2q^5 + q^6 - q^9 - q^10 - 2q^11 - q^12
    # is negative only in its top coefficients
    chain = ["", "a", "aa", "ab", "aab", "aba", "abaa", "aabb", "abaab", "aabba", "aabbab", "abaabb"]
    assert first_unordered(chain[:-1]) is None
    assert first_unordered(chain) == len(chain) - 2


def _width_of_largest_entry(w):
    """The slot width mu_q(w) needs: two spare bits over bitlen(max mu(w)), in whole bytes."""
    return -(-(max(max(row) for row in mu(w)).bit_length() + 2) // 8) * 8


WORDS_UP_TO_1024 = st.one_of(
    st.integers(0, 1024).map(lambda n: "a" * n),
    st.integers(0, 1024).map(lambda n: "b" * n),
    st.integers(1, 1024).flatmap(
        lambda n: st.integers(0, n).filter(lambda k: math.gcd(k, n) == 1).map(lambda k: christoffel_word(k, n))
    ),
    st.text(alphabet="ab", max_size=1024),
)


@settings(max_examples=300, deadline=None)
@given(WORDS_UP_TO_1024)
def test_closed_form_slot_width_holds_every_entry(w):
    # the letter-count bound never falls below the largest entry of mu(w), on any word
    assert max(max(row) for row in mu(w)).bit_length() + 2 <= _slot_bits(w)
    assert _slot_bits(w) % 8 == 0 and _slot_bits(w) >= _width_of_largest_entry(w)


def test_closed_form_slot_width_is_at_most_a_byte_wide_on_tree_words():
    words = [christoffel_node(p).word for p in tree_paths(8)]
    slack = [_slot_bits(w) - _width_of_largest_entry(w) for w in words]
    assert set(slack) == {0, 8} and slack.count(8) == 55


# words and radix chains whose closed-form slot width is a byte wider than their largest entry needs
GROWN_WORDS = [w for w in (christoffel_node(p).word for p in tree_paths(7)) if _slot_bits(w) > _width_of_largest_entry(w)]
GROWN_CHAINS = [
    (Periodic("aabab"), 12),
    (Characteristic((1,) * 24), 16),
    (Skew(m="aba", form="blocks", xy="ba"), 16),
    (Mechanical(Fraction(3, 8)), 21),
]


def _first_unordered_by_schoolbook(chain):
    values = [mu_q_schoolbook(w).e12 for w in chain]
    return next((i for i, (f, g) in enumerate(pairwise(values)) if not precedes(f, g)), None)


def test_grown_slot_width_matches_schoolbook_on_words():
    six = [w for w in map("".join, itertools.product("ab", repeat=6)) if _slot_bits(w) > _width_of_largest_entry(w)]
    assert len(six) == 6 and len(GROWN_WORDS) >= 10
    for w in GROWN_WORDS + six:
        m = mu_q_schoolbook(w)
        assert mu_q(w) == m and q_markoff(w) == m.e12, w


@pytest.mark.parametrize("spec, n", GROWN_CHAINS, ids=["periodic", "fibonacci", "skew", "mechanical"])
def test_grown_slot_width_matches_schoolbook_on_chains(spec, n):
    chain = list(_radix_words(spec, n))
    top = max((w for w in chain if len(w) == n), key=lambda w: w.count("b"))
    assert _slot_bits(top) > max(_width_of_largest_entry(w) for w in chain if len(w) == n)
    assert first_unordered(chain) is _first_unordered_by_schoolbook(chain) is None
    assert list(map(q_markoff, chain)) == [mu_q_schoolbook(w).e12 for w in chain]
    # two words of the top length swapped: the first unordered pair is found at the same index
    swapped = chain[:-2] + [chain[-1], chain[-2]]
    assert first_unordered(swapped) == _first_unordered_by_schoolbook(swapped) == len(chain) - 2


@pytest.mark.parametrize(
    "chain",
    [
        [""] + ["".join(t) for k in range(1, 5) for t in itertools.product("ab", repeat=k)],
        [""] + [letter * k for k in range(1, 25) for letter in "ab"],
    ],
    ids=["every-word", "powers"],
)
def test_chain_with_unequal_longest_words_matches_schoolbook(chain):
    # the longest words range from a^n to b^n, each in the slots its own letters need
    assert list(map(q_markoff, chain)) == [mu_q_schoolbook(w).e12 for w in chain]
    assert first_unordered(chain) == _first_unordered_by_schoolbook(chain)
