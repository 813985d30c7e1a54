"""Benchmark of the qmarkoff command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it runs the package from
``src/`` and exits with code 2, printing no result, when that is missing.

Closed loop with one client: a pass runs the workload's commands one after
another, each in a fresh interpreter (``python3 -m qmarkoff.cli ARG...``),
because every CLI user pays a cold ``mu_q`` cache and a fresh standard
word.  Passes repeat while the next one is expected to end within
--seconds.  The seed picks the inputs (workloads.py); check.py checks every
exit code and stdout against answers it computes itself.

--trace 0 prints the end-to-end metrics, medians over the passes:
  wall_s       wall time of one pass, from the first spawn to the last exit
  peak_rss_mb  largest child max-RSS of a pass, read from wait4
  setup_s      interpreter start plus ``import qmarkoff.cli`` in a fresh
               process, median of SETUP_SAMPLES_PER_PASS spawns per pass
  pass_ratio   commands with the right exit code and stdout / commands run

--trace 1 alternates untraced passes with traced ones (traced_cli.py) and
prints the per-layer metrics of layers.json: medians over the traced
passes, with proc.cpu_s from the untraced ones and trace.overhead_s, the
traced minus the untraced pass wall time.

The last line of stdout is one JSON object.  A run record with the
environment (Python, nproc, git SHA), every pass, every failure and the
traces goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import check
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
LAYERS = json.loads((BENCH / "layers.json").read_text())

# setup_s samples, taken between passes so that they span the whole run.
SETUP_SAMPLES_PER_PASS = 3
# Every run must end within 180 s; a command still running at this point is killed.
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s", "pass_ratio": "ratio"}


class ProgramMissing(Exception):
    pass


@dataclass
class Outcome:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float
    cpu_s: float


@dataclass
class Pass:
    traced: bool
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    returncodes: list[int]
    command_wall_s: list[float]
    failures: list[str] = field(default_factory=list)
    layers: dict | None = None
    traces: list | None = None
    trace_error: str | None = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str], env: dict[str, str], deadline: float) -> Outcome:
    """Run cmd to completion; its rusage comes from wait4.  Killed at `deadline`."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, out.decode(errors="replace"), b"".join(err).decode(errors="replace"),
                   wall, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime)


def locate_program(env: dict[str, str], deadline: float) -> None:
    """Import the CLI once (also a warm-up) and make sure it is the one under src/."""
    cli = SRC / "qmarkoff" / "cli.py"
    if not cli.is_file():
        raise ProgramMissing(f"{cli.relative_to(ROOT)} not found; run from the root of a qmarkoff checkout")
    probe = spawn([sys.executable, "-c", "import qmarkoff.cli; print(qmarkoff.cli.__file__)"], env, deadline)
    if probe.returncode != 0 or Path(probe.stdout.strip()).resolve() != cli.resolve():
        raise ProgramMissing(f"cannot import qmarkoff.cli from {SRC}: {probe.stderr.strip()[-500:]}")


def run_pass(commands: list[list[str]], traced: bool, env: dict[str, str], trace_dir: Path,
             deadline: float) -> Pass:
    outcomes = []
    start = time.perf_counter()
    for i, argv in enumerate(commands):
        if traced:
            prefix = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_dir / f"{i}.json")]
        else:
            prefix = [sys.executable, "-m", "qmarkoff.cli"]
        outcomes.append(spawn(prefix + argv, env, deadline))
    wall = time.perf_counter() - start
    result = Pass(traced, wall, max(o.rss_mb for o in outcomes), sum(o.cpu_s for o in outcomes),
                  [o.returncode for o in outcomes], [o.wall_s for o in outcomes])
    for argv, o in zip(commands, outcomes):
        problems = check.check_command(argv, o.returncode, o.stdout)
        if problems:
            tail = o.stderr.strip().splitlines()[-1:] or [""]
            result.failures.append(f"{argv[0]}: {problems[0]} {tail[0][:200]}".rstrip())
    if traced:
        try:
            traces = [json.loads((trace_dir / f"{i}.json").read_text()) for i in range(len(commands))]
        except (OSError, json.JSONDecodeError) as exc:
            result.trace_error = f"trace unreadable: {exc}"
        else:
            result.traces = traces
            result.layers = tracer.summarise(traces)
    return result


def median_or_none(values: list) -> float | None:
    present = [v for v in values if v is not None]
    return statistics.median(present) if present else None


def layer_metrics(passes: list[Pass]) -> dict[str, float | None]:
    traced = [p.layers for p in passes if p.traced and p.layers is not None]
    untraced = [p for p in passes if not p.traced]
    values = {name: median_or_none([t.get(name) for t in traced]) for name in LAYERS}
    values["proc.cpu_s"] = statistics.median(p.cpu_s for p in untraced)
    traced_wall = [p.wall_s for p in passes if p.traced]
    values["trace.overhead_s"] = (
        statistics.median(traced_wall) - statistics.median(p.wall_s for p in untraced) if traced_wall else None
    )
    return values


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through spawn(), which kills and reaps the running command.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    hard_deadline = time.perf_counter() + HARD_LIMIT_S
    env = child_env()
    try:
        locate_program(env, hard_deadline)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    commands = workloads.generate(args.workload, args.seed)
    setup: list[float] = []

    OUT.mkdir(exist_ok=True)
    passes: list[Pass] = []
    durations: dict[bool, float] = {}
    deadline = time.perf_counter() + args.seconds
    with tempfile.TemporaryDirectory(dir=OUT) as trace_dir:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            start = time.perf_counter()
            setup += [spawn([sys.executable, "-c", "import qmarkoff.cli"], env, hard_deadline).wall_s
                      for _ in range(SETUP_SAMPLES_PER_PASS)]
            passes.append(run_pass(commands, traced, env, Path(trace_dir), hard_deadline))
            durations[traced] = time.perf_counter() - start
            upcoming = bool(args.trace) and len(passes) % 2 == 1
            finish = time.perf_counter() + durations.get(upcoming, durations[traced])
            enough = len(passes) >= (2 if args.trace else 1)
            if finish > hard_deadline or (enough and finish > deadline):
                break

    attempted = sum(len(p.returncodes) for p in passes)
    failures = [f for p in passes for f in p.failures]
    failed = len(failures)
    trace_errors = [p.trace_error for p in passes if p.trace_error]
    untraced = [p for p in passes if not p.traced]
    if args.trace:
        metrics = {name: {"value": value, "unit": LAYERS[name]["unit"]}
                   for name, value in layer_metrics(passes).items()}
    else:
        values = {
            "wall_s": statistics.median(p.wall_s for p in untraced),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in untraced),
            "setup_s": statistics.median(setup),
            "pass_ratio": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": sys.version, "platform": platform.platform(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "commands": commands, "setup_s": setup,
        "passes": [asdict(p) for p in passes], "metrics": metrics,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for f in failures[:10] + trace_errors:
        print(f"FAIL {f}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and not trace_errors,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
