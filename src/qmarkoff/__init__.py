"""Exact arithmetic for q-deformed Markoff numbers over balanced binary sequences.

The public names load lazily (PEP 562): the first access to one imports its home module and
binds the name here, so ``import qmarkoff`` loads no module until a name is used.
"""

from importlib import import_module

# home module -> the public names it defines
_NAMES = {
    "words": ("christoffel_word", "has_markoff_property_periodic", "is_balanced_periodic", "parse_word",
              "render_word"),
    "qpoly": ("IntPolynomial", "QMatrix"),
    "morphism": ("ChristoffelNode", "MarkoffTriple", "christoffel_node", "is_christoffel", "markoff_triple",
                 "mu", "mu_q", "q_markoff", "tree_paths"),
    "language": ("BalancedSpec", "Change", "Characteristic", "ComplexityViolation", "Mechanical",
                 "MonotonicityError", "Periodic", "Skew", "enumerate_factors",
                 "flip_permutation", "radix_chain_check", "sequence_window"),
    "pairs": ("AsymptoticPair", "build_pair"),
    "spectrum": ("PeriodicCF", "SpectrumValue", "closed_form_supremum", "markoff_supremum", "sigma_subst"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
