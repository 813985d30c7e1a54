"""Exact arithmetic for q-deformed Markoff numbers over balanced binary sequences."""

from .words import (
    christoffel_word,
    factors,
    has_markoff_property_periodic,
    is_balanced_periodic,
    parse_word,
    render_word,
    reversal,
)
from .qpoly import IntPolynomial, QMatrix, poly
from .morphism import (
    ChristoffelNode,
    MarkoffTriple,
    christoffel_node,
    is_christoffel,
    markoff_triple,
    mu,
    mu_q,
    q_markoff,
    tree_paths,
)
from .language import (
    BalancedSpec,
    Change,
    Characteristic,
    ComplexityViolation,
    FactorLanguage,
    Mechanical,
    MonotonicityError,
    Periodic,
    RadixChainReport,
    Skew,
    characteristic_word,
    compact_representations,
    curves_export,
    enumerate_factors,
    flip_permutation,
    letter_at,
    radix_chain_check,
    sequence_window,
)
from .pairs import AsymptoticPair, Pattern, build_pair
from .spectrum import (
    PeriodicCF,
    SpectrumValue,
    closed_form_supremum,
    markoff_supremum,
    sigma_subst,
)

__version__ = "0.1.0"
