"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench

They run small CLI commands, so they take a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import run
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

C13 = check.christoffel_word(5, 13)
C21 = check.christoffel_word(8, 21)

SMALL = {
    "monotone-fibonacci": ["verify-monotone", "--spec", "fibonacci", "--max-n", "10"],
    "monotone-periodic": ["verify-monotone", "--spec", f"periodic:{C13}", "--max-n", "10"],
    "monotone-mechanical": ["verify-monotone", "--spec", "mechanical:alpha=5/13,rho=2/13,kind=upper", "--max-n", "10"],
    "monotone-skew": ["verify-monotone", "--spec", f"skew:m={C13[1:-1]},form=blocks,xy=ba", "--max-n", "10"],
    "tree": ["tree", "--json", "--depth", "3"],
    "curves": ["curves", "--spec", "fibonacci", "--max-len", "6", "--gammas", "1/3,1,7/5"],
    "spectrum": ["spectrum", C21],
    "language": ["language", "--spec", f"periodic:{C21}", "--n", "9"],
    "pair-check": ["pair-check", "--spec", "characteristic:1,1,1,1,1,1,1,1,1,1", "--radius", "6"],
}


def cli(argv: list[str], trace_path: Path | None = None) -> subprocess.CompletedProcess:
    if trace_path is None:
        prefix = [sys.executable, "-m", "qmarkoff.cli"]
    else:
        prefix = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_path)]
    return subprocess.run(prefix + argv, capture_output=True, env=run.child_env(), cwd=ROOT, timeout=120)


@pytest.fixture(scope="module")
def outputs() -> dict[str, str]:
    results = {name: cli(argv) for name, argv in SMALL.items()}
    assert all(r.returncode == 0 for r in results.values())
    return {name: r.stdout.decode() for name, r in results.items()}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checker_accepts_real_output(outputs, name):
    assert check.check_command(SMALL[name], 0, outputs[name]) == []


def _bump_triple(text: str) -> str:
    nodes = json.loads(text)
    nodes[-1]["triple"][1] += 1
    return json.dumps(nodes, indent=2) + "\n"


def _bump_coefficient(text: str) -> str:
    nodes = json.loads(text)
    nodes[0]["q_markoff"] = nodes[0]["q_markoff"].replace("2*q^2", "3*q^2")
    return json.dumps(nodes, indent=2) + "\n"


TAMPERED = [
    ("monotone-fibonacci", lambda s: s.replace("factors: 66", "factors: 67")),
    ("monotone-skew", lambda s: s.replace("spec: skew", "spec: periodic")),
    ("tree", _bump_triple),
    ("tree", _bump_coefficient),
    ("curves", lambda s: s[:-3] + ("0" if s[-3] != "0" else "1") + s[-2:]),
    ("spectrum", lambda s: s.replace("\nm: ", "\nm: 1")),
    ("spectrum", lambda s: s.replace("residual: 0.0", "residual: 1e-20")),
    ("language", lambda s: s.replace("flip_ab_ba", "last_letter", 1)),
    ("pair-check", lambda s: s.replace("patterns checked: ", "patterns checked: 1")),
    ("pair-check", lambda s: s.replace("yes", "no")),
]


@pytest.mark.parametrize("name,tamper", TAMPERED, ids=[f"{n}-{i}" for i, (n, _) in enumerate(TAMPERED)])
def test_checker_rejects_tampered_stdout(outputs, name, tamper):
    tampered = tamper(outputs[name])
    assert tampered != outputs[name]
    assert check.check_command(SMALL[name], 0, tampered)


def test_checker_rejects_wrong_exit_code(outputs):
    assert check.check_command(SMALL["tree"], 1, outputs["tree"])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_argv(workload):
    assert workloads.generate(workload, 5) == workloads.generate(workload, 5)
    code = f"import json, workloads; print(json.dumps(workloads.generate({workload!r}, 5)))"
    runs = [
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=BENCH,
                       env={**run.child_env(), "PYTHONHASHSEED": str(h)}, check=True).stdout
        for h in (1, 2)
    ]
    assert runs[0] == runs[1] == json.dumps(workloads.generate(workload, 5)) + "\n"


def test_seed_changes_inputs_not_sizes():
    passes = [workloads.generate("combinatorics", seed) for seed in range(8)]
    assert len({json.dumps(p) for p in passes}) > 1
    for p in passes:
        assert [len(p[0][1]), len(p[1][1])] == list(workloads.SPECTRUM_LENGTHS)
    for seed in range(8):
        periodic = workloads.generate("monotone", seed)[1][2]
        assert len(periodic) == len("periodic:") + workloads.MONOTONE_PERIOD


@pytest.mark.parametrize("name", sorted(SMALL) + ["usage-error"])
def test_traced_stdout_is_byte_identical(tmp_path, name):
    argv = SMALL.get(name, ["tree", "--depth", "-1"])
    plain, traced = cli(argv), cli(argv, tmp_path / "trace.json")
    assert traced.stdout == plain.stdout
    assert traced.returncode == plain.returncode
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert [n["name"] for n in trace["nodes"][:2]] == ["root", "cli.main"]
    assert trace["absent"] == []


def test_summary_has_every_layer_metric(tmp_path):
    traces = []
    for i, argv in enumerate(SMALL.values()):
        assert cli(argv, tmp_path / f"{i}.json").returncode == 0
        traces.append(json.loads((tmp_path / f"{i}.json").read_text()))
    metrics = tracer.summarise(traces)
    assert set(metrics) | {"proc.cpu_s", "trace.overhead_s"} == set(run.LAYERS)
    assert metrics["qpoly.mul_calls"] > 0 and metrics["pairs.occ_diff_calls"] > 0
    assert metrics["morphism.matrix_steps"] > 0


def test_missing_cache_info_is_recorded_as_absent(monkeypatch):
    import qmarkoff.morphism

    monkeypatch.setattr(qmarkoff.morphism, "mu_q", qmarkoff.morphism.mu_q.__wrapped__)
    t = tracer.Tracer()
    t.read_cache_info()
    assert "qmarkoff.morphism.mu_q.cache_info" in t.absent
    metrics = tracer.summarise([t.to_json()])
    assert metrics["morphism.matrix_steps"] is None
    assert metrics["morphism.mu_q_hit_ratio"] is None


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, m["unit"], m["better"]) for name, m in run.LAYERS.items()
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    result = subprocess.run([sys.executable, "bench/run.py", "--workload", "monotone", "--seed", "1",
                             "--seconds", "1", "--trace", "0"], capture_output=True, cwd=tmp_path, timeout=60)
    assert result.returncode != 0
    assert result.stdout == b""
