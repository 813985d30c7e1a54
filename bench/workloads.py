"""Seeded argv generator for the three benchmark workloads.

Sizes are fixed; the seed only picks slopes, intercepts, letter
orientations and gamma values inside fixed bands, so every seed does about
the same amount of work.  Slopes stay near 1/phi^2 (the letter-b density
of the Fibonacci word), which keeps polynomial degrees, and so the cost
of the q-arithmetic, within a few percent across seeds.

Every word handed to ``mu_q`` stays below 496 letters: from a cold cache
the recursive ``mu_q`` raises RecursionError on longer words, which would
be a crash rather than a timing.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from check import christoffel_word

SLOPE_BAND = (0.35, 0.41)

MONOTONE_MAX_N = 64
MONOTONE_PERIOD = 89
MECHANICAL_DENOMINATORS = range(140, 149)

TREE_DEPTH = 8
CURVES_MAX_LEN = 40
GAMMA_COUNT = 5
GAMMA_DENOMINATORS = range(5, 10)
GAMMA_MAX = 3

SPECTRUM_LENGTHS = (610, 987)
LANGUAGE_PERIOD = 987
LANGUAGE_N = 64
PAIR_DIRECTIVE = (1,) * 38
PAIR_RADIUS = 32
FIBONACCI_PAIR_RADIUS = 48


def _slope(rng: random.Random, n: int) -> int:
    """A letter-b count k coprime to n with k/n inside SLOPE_BAND."""
    lo, hi = SLOPE_BAND
    return rng.choice([k for k in range(1, n) if math.gcd(k, n) == 1 and lo <= k / n <= hi])


def _gammas(rng: random.Random) -> str:
    chosen: list[Fraction] = []
    while len(chosen) < GAMMA_COUNT:
        q = rng.choice(GAMMA_DENOMINATORS)
        g = Fraction(rng.randint(1, GAMMA_MAX * q), q)
        if g not in chosen:
            chosen.append(g)
    return ",".join(str(g) for g in chosen)


def monotone(rng: random.Random) -> list[list[str]]:
    n = MONOTONE_PERIOD
    periodic = christoffel_word(_slope(rng, n), n)
    q = rng.choice(MECHANICAL_DENOMINATORS)
    alpha = Fraction(_slope(rng, q), q)
    rho = Fraction(rng.randrange(q), q)
    kind = rng.choice(("lower", "upper"))
    m = christoffel_word(_slope(rng, n), n)[1:-1]
    xy = rng.choice(("ab", "ba"))
    specs = [
        "fibonacci",
        f"periodic:{periodic}",
        f"mechanical:alpha={alpha},rho={rho},kind={kind}",
        f"skew:m={m},form=blocks,xy={xy}",
    ]
    return [["verify-monotone", "--spec", spec, "--max-n", str(MONOTONE_MAX_N)] for spec in specs]


def export(rng: random.Random) -> list[list[str]]:
    return [
        ["tree", "--json", "--depth", str(TREE_DEPTH)],
        ["curves", "--spec", "fibonacci", "--max-len", str(CURVES_MAX_LEN), "--gammas", _gammas(rng)],
    ]


def combinatorics(rng: random.Random) -> list[list[str]]:
    spectra = [["spectrum", christoffel_word(_slope(rng, n), n)] for n in SPECTRUM_LENGTHS]
    period = christoffel_word(_slope(rng, LANGUAGE_PERIOD), LANGUAGE_PERIOD)
    directive = ",".join(map(str, PAIR_DIRECTIVE))
    return spectra + [
        ["language", "--spec", f"periodic:{period}", "--n", str(LANGUAGE_N)],
        ["pair-check", "--spec", f"characteristic:{directive}", "--radius", str(PAIR_RADIUS)],
        ["pair-check", "--spec", "fibonacci", "--radius", str(FIBONACCI_PAIR_RADIUS)],
    ]


WORKLOADS = {"monotone": monotone, "export": export, "combinatorics": combinatorics}


def generate(workload: str, seed: int) -> list[list[str]]:
    """The CLI argv list of one pass of `workload`; the same seed gives the same argv."""
    return WORKLOADS[workload](random.Random(seed))
