"""Per-layer tracing of the qmarkoff package, installed from outside it.

``Tracer.install()`` replaces the public layer functions listed in
TARGETS with timing wrappers, in every loaded ``qmarkoff`` module that
holds them (functions imported by name into another module are replaced
there too).  It wraps ``q_markoff`` rather than the recursive ``mu_q`` so
the recursion depth of ``mu_q`` is unchanged.

Calls aggregate into a call tree kept in memory: one node per distinct
chain of wrapped callers, holding its parent link, call count, inclusive
time and self time (inclusive time minus the time of wrapped callees).
Time spent in functions that are not wrapped counts as self time of the
nearest wrapped caller.  A target or counter that a later version of the
package no longer has is recorded as absent instead of failing the run.

``summarise`` turns the traces of one benchmark pass (one per command)
into the per-layer metrics named in ``layers.json``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# (module, attribute, span name).  Several attributes may share a span name.
TARGETS = (
    ("qmarkoff.cli", "main", "cli.main"),
    ("qmarkoff.morphism", "q_markoff", "morphism.q_markoff"),
    ("qmarkoff.morphism", "is_christoffel", "morphism.is_christoffel"),
    ("qmarkoff.qpoly", "IntPolynomial.__mul__", "qpoly.mul"),
    ("qmarkoff.qpoly", "IntPolynomial.__add__", "qpoly.add"),
    ("qmarkoff.qpoly", "IntPolynomial.__sub__", "qpoly.sub"),
    ("qmarkoff.qpoly", "IntPolynomial.is_nonneg_nonzero", "qpoly.nonneg"),
    ("qmarkoff.qpoly", "IntPolynomial.evaluate", "qpoly.evaluate"),
    ("qmarkoff.qpoly", "IntPolynomial.__str__", "qpoly.str"),
    ("qmarkoff.qpoly", "QMatrix.__mul__", "qpoly.matmul"),
    ("qmarkoff.language", "radix_chain_check", "language.radix_chain_check"),
    ("qmarkoff.language", "curves_export", "language.curves_export"),
    ("qmarkoff.language", "flip_permutation", "language.flip_permutation"),
    ("qmarkoff.language", "enumerate_factors", "language.enumerate_factors"),
    ("qmarkoff.language", "letter_at", "language.letter_at"),
    ("qmarkoff.language", "characteristic_word", "language.standard_word"),
    # Called on every letter_at of a characteristic spec; only its first call
    # per directive materialises the word (see FIRST_CALL_ONLY).
    ("qmarkoff.language", "_full_standard_word", "language.standard_word"),
    ("qmarkoff.words", "is_balanced_periodic", "words.is_balanced_periodic"),
    ("qmarkoff.spectrum", "supremum_residual", "spectrum.supremum_residual"),
    ("qmarkoff.spectrum", "markoff_supremum", "spectrum.markoff_supremum"),
    ("qmarkoff.spectrum", "cf_tail", "spectrum.cf_tail"),
    ("qmarkoff.pairs", "pair_report", "pairs.pair_report"),
    ("qmarkoff.pairs", "occ_diff", "pairs.occ_diff"),
)

# Spans timed only on the first call with given arguments; repeats are
# cache hits, forwarded untimed so their wrapper cost does not swamp the span.
FIRST_CALL_ONLY = {"qmarkoff.language._full_standard_word"}

MODULES = ("cli", "morphism", "qpoly", "language", "words", "spectrum", "pairs")


class Node:
    __slots__ = ("name", "parent", "children", "calls", "total", "self_time")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.children: dict[str, int] = {}
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.nodes = [Node("root", -1)]
        self._stack = [0]
        self._inner = [0.0]
        self.counters: dict[str, int | None] = {}
        self.absent: list[str] = []

    def wrap(self, name: str, fn, after=None, first_call_only=False):
        nodes, stack, inner = self.nodes, self._stack, self._inner
        clock = time.perf_counter
        seen: set = set()

        def traced(*args, **kwargs):
            if first_call_only:
                if args in seen:
                    return fn(*args, **kwargs)
                seen.add(args)
            parent = nodes[stack[-1]]
            node_id = parent.children.get(name)
            if node_id is None:
                node_id = parent.children[name] = len(nodes)
                nodes.append(Node(name, stack[-1]))
            stack.append(node_id)
            inner.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                node = nodes[node_id]
                node.calls += 1
                node.total += elapsed
                node.self_time += elapsed - inner.pop()
                inner[-1] += elapsed
            if after is not None:
                after(result)
            return result

        return traced

    def _bump(self, key: str, value: int, combine=int.__add__) -> None:
        if key not in self.counters:
            self.counters[key] = value
        elif self.counters[key] is not None:
            self.counters[key] = combine(self.counters[key], value)

    def _after_q_markoff(self, poly) -> None:
        coeffs = getattr(poly, "coeffs", None)
        if coeffs is None:
            self.counters["qpoly.max_degree"] = self.counters["qpoly.max_coeff_bits"] = None
            return
        self._bump("qpoly.max_degree", len(coeffs) - 1, max)
        if coeffs:
            self._bump("qpoly.max_coeff_bits", max(max(coeffs), -min(coeffs)).bit_length(), max)

    def _after_enumerate_factors(self, language) -> None:
        self._bump("language.factors", len(language))

    def _after_pair_report(self, report) -> None:
        self._bump("pairs.patterns_checked", getattr(report, "patterns_checked", 0))

    def install(self) -> None:
        """Wrap every TARGETS entry that the loaded package has; record the rest as absent."""
        import qmarkoff  # noqa: F401  (loads the library modules)
        import qmarkoff.cli  # noqa: F401

        after = {
            "morphism.q_markoff": self._after_q_markoff,
            "language.enumerate_factors": self._after_enumerate_factors,
            "pairs.pair_report": self._after_pair_report,
        }
        modules = [m for n, m in sys.modules.items() if n == "qmarkoff" or n.startswith("qmarkoff.")]
        for module_name, attribute, name in TARGETS:
            owner_name, _, attr = attribute.rpartition(".")
            owner = sys.modules.get(module_name)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attribute}")
                continue
            wrapped = self.wrap(name, original, after.get(name),
                                f"{module_name}.{attribute}" in FIRST_CALL_ONLY)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, wrapped)

    def read_cache_info(self) -> None:
        """Record the mu_q cache counters, or their absence."""
        morphism = sys.modules.get("qmarkoff.morphism")
        cache_info = getattr(getattr(morphism, "mu_q", None), "cache_info", None)
        if cache_info is None:
            self.absent.append("qmarkoff.morphism.mu_q.cache_info")
            for key in ("mu_q.hits", "mu_q.misses", "mu_q.currsize"):
                self.counters[key] = None
            return
        info = cache_info()
        self.counters.update({"mu_q.hits": info.hits, "mu_q.misses": info.misses, "mu_q.currsize": info.currsize})

    def to_json(self) -> dict:
        return {
            "nodes": [
                {"id": i, "parent": n.parent, "name": n.name, "calls": n.calls,
                 "total_s": n.total, "self_s": n.self_time}
                for i, n in enumerate(self.nodes)
            ],
            "counters": self.counters,
            "absent": self.absent,
        }

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.to_json()))


# --- per-pass metrics ---------------------------------------------------------


def _inclusive(nodes: list[dict], names: set[str]) -> float:
    """Time inside any span of `names`, counting a span nested in another of them once."""
    def covered(node: dict) -> bool:
        parent = node["parent"]
        while parent > 0:
            if nodes[parent]["name"] in names:
                return True
            parent = nodes[parent]["parent"]
        return False

    return sum(n["total_s"] for n in nodes if n["name"] in names and not covered(n))


def _calls(nodes: list[dict], name: str) -> int:
    return sum(n["calls"] for n in nodes if n["name"] == name)


def _total(values):
    """Sum of per-command counters; None (absent) when any command lacks the counter."""
    return None if None in values else sum(values)


def _peak(values):
    return None if None in values else max(values)


def summarise(traces: list[dict]) -> dict[str, float | int | None]:
    """Per-layer metrics of one pass from the traces of its commands."""
    metrics: dict[str, float | int | None] = {}

    def time_of(*names: str) -> float:
        return sum(_inclusive(t["nodes"], set(names)) for t in traces)

    def calls_of(name: str) -> int:
        return sum(_calls(t["nodes"], name) for t in traces)

    def counter(key: str, combine=_total, default=0):
        return combine([t["counters"].get(key, default) for t in traces])

    self_by_module = dict.fromkeys(MODULES, 0.0)
    qarith = 0.0
    for t in traces:
        for n in t["nodes"][1:]:
            module = n["name"].split(".")[0]
            self_by_module[module] += n["self_s"]
            if module == "qpoly" or n["name"] == "morphism.q_markoff":
                qarith += n["self_s"]
    traced_total = sum(self_by_module.values())

    hits, misses = counter("mu_q.hits"), counter("mu_q.misses")
    metrics["morphism.q_markoff_s"] = time_of("morphism.q_markoff")
    metrics["morphism.q_markoff_calls"] = calls_of("morphism.q_markoff")
    metrics["morphism.matrix_steps"] = misses
    metrics["morphism.mu_q_hit_ratio"] = (
        None if hits is None or misses is None else hits / (hits + misses) if hits + misses else 0.0
    )
    metrics["morphism.mu_q_cached"] = counter("mu_q.currsize", _peak)
    metrics["qpoly.mul_s"] = time_of("qpoly.mul")
    metrics["qpoly.mul_calls"] = calls_of("qpoly.mul")
    metrics["qpoly.addsub_s"] = time_of("qpoly.add", "qpoly.sub")
    metrics["qpoly.max_degree"] = counter("qpoly.max_degree", _peak)
    metrics["qpoly.max_coeff_bits"] = counter("qpoly.max_coeff_bits", _peak)
    metrics["qpoly.nonneg_s"] = time_of("qpoly.nonneg")
    metrics["language.enumerate_factors_s"] = time_of("language.enumerate_factors")
    metrics["language.factors"] = counter("language.factors")
    metrics["qpoly.evaluate_s"] = time_of("qpoly.evaluate")
    metrics["qpoly.evaluate_calls"] = calls_of("qpoly.evaluate")
    metrics["qpoly.str_s"] = time_of("qpoly.str")
    metrics["language.letter_at_s"] = time_of("language.letter_at")
    metrics["language.letter_at_calls"] = calls_of("language.letter_at")
    metrics["language.standard_word_s"] = time_of("language.standard_word")
    metrics["morphism.is_christoffel_s"] = time_of("morphism.is_christoffel")
    metrics["morphism.is_christoffel_calls"] = calls_of("morphism.is_christoffel")
    metrics["words.is_balanced_periodic_s"] = time_of("words.is_balanced_periodic")
    metrics["words.is_balanced_periodic_calls"] = calls_of("words.is_balanced_periodic")
    metrics["spectrum.markoff_supremum_s"] = time_of("spectrum.markoff_supremum")
    metrics["spectrum.markoff_supremum_calls"] = calls_of("spectrum.markoff_supremum")
    metrics["spectrum.cf_tail_calls"] = calls_of("spectrum.cf_tail")
    metrics["pairs.pair_report_s"] = time_of("pairs.pair_report")
    metrics["pairs.patterns_checked"] = counter("pairs.patterns_checked")
    metrics["pairs.occ_diff_calls"] = calls_of("pairs.occ_diff")
    for module in MODULES:
        metrics[f"{module}.self_s"] = self_by_module[module]
    metrics["trace.qarith_share"] = qarith / traced_total if traced_total else 0.0
    return metrics
