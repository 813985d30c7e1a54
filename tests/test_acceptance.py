"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live.
Stated runtime budgets are asserted with caches cleared up front, so each
criterion is timed cold.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from qmarkoff.language import (
    LAST_LETTER,
    Characteristic,
    Periodic,
    Skew,
    characteristic_word,
    compact_representations,
    curves_export,
    enumerate_factors,
    flip_permutation,
    radix_chain_check,
)
from qmarkoff.morphism import (
    christoffel_node,
    flip_matrix,
    det_exponent,
    det_mu_q,
    flip_delta,
    markoff_triple,
    mu,
    mu_q,
    positivity_report,
    q_markoff,
    tree_paths,
)
from qmarkoff.pairs import AsymptoticPair, Pattern, build_pair, is_indistinguishable_up_to, occ_diff
from qmarkoff.qpoly import IntPolynomial, poly
from qmarkoff.spectrum import PeriodicCF, markoff_supremum, sigma_subst, supremum_residual
from qmarkoff.words import has_markoff_property_periodic, is_balanced_periodic, render_word

from oracles import christoffel_words_upto

FIB = Characteristic((1,) * 24)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({description}): PASS")


def all_words(min_len, max_len):
    for n in range(min_len, max_len + 1):
        for tup in itertools.product("ab", repeat=n):
            yield "".join(tup)


def test_criterion_1_golden_polynomials():
    with criterion(1, "golden q-Markoff polynomials"):
        mu_q.cache_clear()
        goldens = {
            "aabab": poly(1, 4, 10, 18, 27, 33, 33, 29, 21, 12, 5, 1),
            "ab": poly(1, 1, 2, 1),
            "aab": poly(1, 2, 3, 3, 3, 1),
            "abb": poly(1, 2, 5, 6, 6, 5, 3, 1),
            "aaab": poly(1, 3, 5, 7, 7, 6, 4, 1),
            "ababb": poly(1, 4, 12, 25, 42, 58, 68, 69, 61, 45, 28, 14, 5, 1),
            "abbb": poly(1, 3, 9, 16, 24, 29, 29, 25, 18, 10, 4, 1),
        }
        start = time.perf_counter()
        computed = {w: q_markoff(w) for w in goldens}
        elapsed = time.perf_counter() - start
        assert computed == goldens
        assert str(computed["aabab"]) == (
            "1 + 4*q + 10*q^2 + 18*q^3 + 27*q^4 + 33*q^5 + 33*q^6"
            " + 29*q^7 + 21*q^8 + 12*q^9 + 5*q^10 + q^11"
        )
        assert elapsed < 0.010, f"{elapsed:.4f}s"


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


def test_criterion_2_golden_matrices_and_trees():
    with criterion(2, "golden matrices and trees"):
        assert mu("aabab") == ((463, 194), (284, 119))
        for path, expected in TREE_TRIPLES.items():
            t = markoff_triple(path)
            assert (t.x, t.y, t.z) == expected, path
            assert t.x**2 + t.y**2 + t.z**2 == 3 * t.x * t.y * t.z
        for path in tree_paths(8):
            assert markoff_triple(path).y == mu(christoffel_node(path).word)[0][1]


def test_criterion_3_radix_chain_monotonicity():
    with criterion(3, "radix-chain monotonicity at desk scale"):
        mu_q.cache_clear()
        start = time.perf_counter()
        report = radix_chain_check(FIB, 12)
        assert len(report.chain) == 91
        assert len(report.differences) == 90
        for spec in (
            Periodic("ab"),
            Periodic("aabab"),
            Skew(m="aba", form="blocks"),
            Characteristic((2, 1, 2, 1, 2, 1, 2, 1, 2, 1)),
        ):
            rep = radix_chain_check(spec, 12)
            assert all(d.is_nonneg_nonzero() for d in rep.differences)
        elapsed = time.perf_counter() - start
        assert all(d.is_nonneg_nonzero() for d in report.differences)
        assert elapsed < 2.0, f"{elapsed:.3f}s"


def test_criterion_4_degree_span_and_strict_growth():
    with criterion(4, "55 factors, degree span, strict growth at gamma > 0"):
        words = [""]
        for n in range(1, 10):
            words.extend(enumerate_factors(FIB, n).factors)
        assert len(words) == 55
        degrees = sorted({q_markoff(w).degree for w in words if w})
        assert degrees == list(range(25))
        assert q_markoff("").degree == float("-inf")
        nine = [w for w in words if len(w) == 9 and q_markoff(w).degree == 23]
        assert len(nine) == 4
        gammas = [Fraction(1, 100), Fraction(1, 2), Fraction(1), Fraction(3), Fraction(100)]
        rows = curves_export(FIB, 9, gammas)
        for g in gammas:
            values = [v for (_, gamma, v) in rows if gamma == g]
            assert len(values) == 55
            assert all(x < y for x, y in zip(values, values[1:])), g


def test_criterion_5_counterexamples():
    with criterion(5, "order failures across balanced languages"):
        assert q_markoff("baa") - q_markoff("abb") == poly(0, 1, -1, -2, -2, -3, -2, -1)

        diff = q_markoff("bababb") - q_markoff("abbbab")
        assert diff == poly(0, 1, 3, 7, 12, 17, 20, 21, 19, 14, 9, 4, 1, -1, -1)
        assert any(c < 0 for c in diff.coeffs)

        diff = q_markoff("aaaab") - q_markoff("abbb")
        assert diff == poly(0, 1, -1, -3, -8, -12, -15, -15, -13, -9, -4, -1)
        assert any(c < 0 for c in diff.coeffs)

        diff = q_markoff("a" * 12 + "b") - q_markoff("a" + "b" * 7)
        assert any(c < 0 for c in diff.coeffs)

        sixteen = poly(1, 5, 16, 38, 70, 109, 145, 168, 171, 152, 118, 79, 44, 19, 6, 1)
        assert q_markoff("aaabbb") == sixteen
        assert q_markoff("abbaab") == sixteen

        # the classical 75-collision; exact computation shows the q-Markoff
        # polynomials coincide as well (the matrices differ elsewhere)
        assert mu("aabb")[0][1] == mu("abab")[0][1] == 75
        assert q_markoff("aabb") == q_markoff("abab")
        assert mu_q("aabb") != mu_q("abab")


def test_criterion_6_lemma_suite():
    with criterion(6, "flip identity, positivity, determinant form"):
        mu_q.cache_clear()
        start = time.perf_counter()
        for u in all_words(0, 6):
            assert flip_delta(u) == flip_matrix().scale(IntPolynomial.monomial(det_exponent(u)))
        rng = random.Random(194)
        for _ in range(200):
            u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 12)))
            assert flip_delta(u) == flip_matrix().scale(IntPolynomial.monomial(det_exponent(u)))
        count = 0
        for w in all_words(0, 10):
            count += 1
            r = positivity_report(w)
            assert r.combo1.is_nonneg_nonzero() and r.combo2.is_nonneg_nonzero()
            assert r.e11.is_nonneg_nonzero() and r.e22.is_nonneg_nonzero()
            if w:
                assert r.e12.is_nonneg_nonzero() and r.e21.is_nonneg_nonzero()
            else:
                assert r.e12 == IntPolynomial.zero() and r.e21 == IntPolynomial.zero()
            assert mu_q(w).det() == det_mu_q(w)
        assert count == 2047
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"{elapsed:.3f}s"


FIB_TABLE = {
    1: ("a", "b"),
    2: ("aa", "ab", "ba"),
    3: ("aab", "aba", "baa", "bab"),
    4: ("aaba", "abaa", "abab", "baab", "baba"),
    5: ("aabaa", "aabab", "abaab", "ababa", "baaba", "babaa"),
    6: ("aabaab", "aababa", "abaaba", "ababaa", "baabaa", "baabab", "babaab"),
}


def test_criterion_7_language_structure():
    with criterion(7, "factor tables, compact representations, flip tagging"):
        for n, expected in FIB_TABLE.items():
            assert enumerate_factors(FIB, n).factors == expected
        first, second = compact_representations(characteristic_word(FIB.directive, 7))
        assert render_word(first, "01") == "1010010010100101"
        assert render_word(second, "01") == "1010010100100101"
        for n in range(1, 13):
            w = characteristic_word(FIB.directive, n - 1)
            left, right = compact_representations(w)
            left_factors = {left[i : i + n] for i in range(n + 1)}
            right_factors = {right[i : i + n] for i in range(n + 1)}
            assert left_factors == right_factors
            fl = enumerate_factors(FIB, n)
            assert len(fl) == n + 1
            assert set(fl.factors) == left_factors
            changes = flip_permutation(FIB, n)
            assert sum(c.kind == LAST_LETTER for c in changes) == 1
            assert changes[0].src == "a" + w
            assert changes[-1].dst == "b" + w


def test_criterion_8_balance_equals_markoff_property():
    with criterion(8, "balance equals Markoff property on 8190 words"):
        start = time.perf_counter()
        count = 0
        for w in all_words(1, 12):
            count += 1
            assert is_balanced_periodic(w) == has_markoff_property_periodic(w), w
        assert count == 8190
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"{elapsed:.3f}s"


def test_criterion_9_spectrum():
    with criterion(9, "Markoff suprema vs closed form"):
        for w in sorted(christoffel_words_upto(8)):
            assert supremum_residual(w, 64) <= 1e-9, w
            sup = markoff_supremum(PeriodicCF(tuple(sigma_subst(w))), 64)
            assert sup.value <= 3 + 1e-9, w
        control = markoff_supremum(PeriodicCF(tuple(sigma_subst("aabb"))), 64)
        assert control.value > 3


def test_criterion_10_indistinguishability():
    with criterion(10, "indistinguishable asymptotic pairs"):
        pair = build_pair(FIB, 0)
        assert is_indistinguishable_up_to(pair, 6)

        # non-contiguous brute force at radius 4 agrees
        def brute(p, radius):
            universe = range(-radius, radius + 1)
            for size in range(1, 2 * radius + 2):
                for support in itertools.combinations(universe, size):
                    for letters in itertools.product("ab", repeat=size):
                        gained, lost = occ_diff(p, Pattern(dict(zip(support, letters))))
                        if gained != lost:
                            return False
            return True

        assert is_indistinguishable_up_to(pair, 4) and brute(pair, 4)

        base = pair.s
        flipped = lambda i: {"a": "b", "b": "a"}[base(i)] if i == 0 else base(i)
        control = AsymptoticPair(base, flipped, frozenset({0}))
        assert not is_indistinguishable_up_to(control, 1)
        assert not brute(control, 1)
