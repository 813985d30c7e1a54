"""Exact arithmetic for q-deformed Markoff numbers over balanced binary sequences."""

from .words import (
    christoffel_word,
    factors,
    has_markoff_property_periodic,
    is_balanced_family,
    is_balanced_periodic,
    lex_cmp,
    parse_word,
    radix_cmp,
    radix_key,
    render_word,
    reversal,
)
from .qpoly import IntPolynomial, QMatrix, poly
from .morphism import (
    ChristoffelNode,
    MarkoffTriple,
    christoffel_node,
    flip_matrix,
    delta_last_letter,
    delta_wrap,
    det_mu_q,
    flip_delta,
    flip_prefix_delta,
    is_christoffel,
    markoff_triple,
    mu,
    mu_q,
    positivity_report,
    q_markoff,
    tree_paths,
)
from .language import (
    BalancedSpec,
    Change,
    Characteristic,
    FactorLanguage,
    Mechanical,
    MechanicalSpec,
    MonotonicityError,
    Periodic,
    RadixChainReport,
    Skew,
    characteristic_word,
    classify,
    compact_representations,
    curves_export,
    enumerate_factors,
    flip_permutation,
    letter_at,
    mechanical_letter,
    radix_chain_check,
    sequence_window,
)
from .pairs import AsymptoticPair, Pattern, build_pair, is_indistinguishable_up_to, occ_diff
from .spectrum import (
    PeriodicCF,
    SpectrumValue,
    cf_tail,
    closed_form_supremum,
    lambda_i,
    markoff_supremum,
    sigma_subst,
    supremum_residual,
)

__version__ = "0.1.0"
