"""lr-horizon benchmark: seeded CLI workloads, output checks and a layer trace.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs one workload's CLI commands in a fresh interpreter
(``bench/worker.py``) through ``lr_horizon.cli.main`` with
``--workers 1``: closed loop, one caller, each command waiting for the
one before it. Children get one BLAS/OpenMP thread, no
``LR_HORIZON_WORKERS`` and ``src`` on ``PYTHONPATH``; they write under
``.bench_tmp/`` in the checkout, which is removed at the end.

``--trace 0`` runs at least three passes, and more while another fits
in ``--seconds``, and reports the end-to-end metrics: the median pass
wall time, the median import time of ``lr_horizon`` (numpy included)
over five import-only children and every pass child, and the median of
each pass child's own peak RSS from ``wait4``. ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics.

Outputs of the first pass are checked by ``checks.py``; every later
pass must reproduce them byte for byte. A failed operation is a
nonzero exit or a failed check; ``failed / attempted`` is the error
rate. The last stdout line is one JSON object; the exit code is 1 when
any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"

SETUP_SAMPLES = 5
MIN_PASSES = 3
# The whole run ends within this many seconds; checks get the reserve.
RUN_BUDGET_S = 170.0
CHECK_RESERVE_S = 20.0
POLL_S = 0.02
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def hermetic_env() -> dict[str, str]:
    """Child environment: one BLAS/OpenMP thread, no worker override, src first."""
    env = {k: v for k, v in os.environ.items() if k not in ("LR_HORIZON_WORKERS", "PYTHONPATH")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(env: dict[str, str]) -> dict:
    """What the children ran with: versions, CPUs, thread pins and commit."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: env[var] for var in THREAD_VARS},
        "LR_HORIZON_WORKERS": env.get("LR_HORIZON_WORKERS", "unset"),
        "workers": "1; scaling across --workers is not measured on this CPU count",
        "git_commit": git_commit(),
    }


def run_child(env: dict, workdir: Path, commands: list, trace: bool, deadline: float) -> dict:
    """Run the worker once; return its result (or None), exit code and peak RSS."""
    workdir.mkdir(parents=True, exist_ok=True)
    job, result_path = workdir / "job.json", workdir / "result.json"
    job.write_text(json.dumps({"commands": commands, "trace": trace}))
    argv = [sys.executable, str(WORKER), str(job), str(result_path)]
    # The child's stdout goes to stderr, so that stdout carries only the report.
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)])
    timed_out = False
    try:
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                _, status, usage = os.wait4(pid, 0)
                break
            time.sleep(POLL_S)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    code = os.waitstatus_to_exitcode(status)
    result = None
    if code == 0 and result_path.is_file():
        result = json.loads(result_path.read_text())
    return {
        "exit": code,
        "timed_out": timed_out,
        "result": result,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
    }


class Bench:
    """One workload run: its passes, their outputs and every problem found."""

    def __init__(self, name: str, seed: int, tmp: Path, deadline: float):
        self.name = name
        self.params = workloads.params(name, seed)
        self.tmp = tmp
        self.deadline = deadline
        self.env = hermetic_env()
        # Every pass writes into the same directory with the same argv, so
        # their outputs, config hash included, must match byte for byte.
        self.out = tmp / "out"
        self.reference = tmp / "pass0"
        self.commands = workloads.commands(name, self.params, str(self.out))
        self.passes: list[tuple[dict, set[str]]] = []  # (child, ops whose output differs)
        self.problems: list[str] = []

    def setup_samples(self) -> list[float]:
        samples = []
        for i in range(SETUP_SAMPLES):
            child = run_child(self.env, self.tmp / f"setup{i}", [], False, self.deadline)
            if child["result"] is None:
                self.problems.append(f"import of lr_horizon failed (exit {child['exit']})")
                break
            samples.append(child["result"]["import_s"])
        return samples

    def one_pass(self, trace: bool) -> dict:
        index = len(self.passes)
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        argvs = [argv for _, argv, _ in self.commands]
        child = run_child(self.env, self.tmp / f"job{index}", argvs, trace, self.deadline)
        differs = set()
        if index == 0:
            shutil.copytree(self.out, self.reference)
        else:
            for op, _, outputs in self.commands:
                for f in outputs:
                    got, want = self.out / f, self.reference / f
                    if not (got.is_file() and want.is_file()) or got.read_bytes() != want.read_bytes():
                        differs.add(op)
        self.passes.append((child, differs))
        if child["timed_out"]:
            self.problems.append(f"pass {index} killed at the time budget")
        elif child["result"] is None:
            self.problems.append(f"pass {index} worker exited {child['exit']}")
        elif not Path(child["result"]["package"]).resolve().is_relative_to(SRC):
            self.problems.append(f"lr_horizon imported from {child['result']['package']}")
        return child

    def timed_passes(self, seconds: float) -> None:
        """At least MIN_PASSES passes, then more while one fits in ``seconds``."""
        start = time.monotonic()
        durations: list[float] = []
        while True:
            now = time.monotonic()
            typical = statistics.median(durations) if durations else 0.0
            if len(durations) >= MIN_PASSES and now - start + typical > seconds:
                break
            if now + 1.5 * typical > self.deadline - CHECK_RESERVE_S:
                break
            if self.one_pass(trace=False)["result"] is None:
                break
            durations.append(time.monotonic() - now)

    def guard_spans(self) -> None:
        """Fail the run if a span the workload must record has no calls."""
        traced = [c["result"] for c, _ in self.passes if c["result"] and "spans" in c["result"]]
        for result in traced:
            for span in workloads.EXPECTED_SPANS[self.name]:
                if not result["spans"].get(span, {}).get("calls"):
                    self.problems.append(f"expected span {span} recorded no calls")

    def count_operations(self) -> tuple[int, int]:
        """(attempted, failed) over every command of every pass."""
        failures = checks.check(self.name, self.params, str(self.reference))
        attempted = failed = 0
        for index, (child, differs) in enumerate(self.passes):
            codes = child["result"]["codes"] if child["result"] else [None] * len(self.commands)
            for (op, _, _), code in zip(self.commands, codes):
                attempted += 1
                problems = [f"exit code {code}"] if code != 0 else []
                problems += failures.get(op, [])
                if op in differs:
                    problems.append("output differs from pass 0")
                if problems:
                    failed += 1
                    self.problems += [f"pass {index} {op}: {msg}" for msg in problems[:5]]
        return attempted, failed


def report(bench: Bench, trace: bool, setup: list[float]) -> tuple[dict, dict]:
    results = [child["result"] for child, _ in bench.passes if child["result"]]
    if trace:
        untraced = next((r for r in results if "spans" not in r), None)
        traced = next((r for r in results if "spans" in r), None)
        if untraced is None or traced is None:
            return {}, {}
        values = tracer.layer_metrics(traced["spans"], traced["wall_s"] - untraced["wall_s"])
        units = {metric: unit for metric, unit, _, _ in tracer.PER_LAYER}
        notes = {metric: moves for metric, _, _, moves in tracer.PER_LAYER}
        return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, notes
    if not results or not setup:
        return {}, {}
    values = {
        "wall_s": statistics.median([r["wall_s"] for r in results]),
        # Every pass imports lr_horizon afresh too, which spreads the
        # samples over the run.
        "setup_s": statistics.median(setup + [r["import_s"] for r in results]),
        "peak_rss_mb": statistics.median(
            [child["peak_rss_mb"] for child, _ in bench.passes if child["result"]]
        ),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lr_horizon" / "__init__.py").is_file():
        print(f"no lr_horizon sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit, so that run_child kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + RUN_BUDGET_S
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        bench = Bench(args.workload, args.seed, tmp, deadline)
        setup = bench.setup_samples() if not args.trace else []
        if not bench.problems:
            if args.trace:
                bench.one_pass(trace=False)
                bench.one_pass(trace=True)
                bench.guard_spans()
            else:
                bench.timed_passes(args.seconds)
        attempted, failed = bench.count_operations() if bench.passes else (1, 1)
        metrics, notes = report(bench, bool(args.trace), setup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    walls = [f"{c['result']['wall_s']:.3f}" for c, _ in bench.passes if c["result"]]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} alpha={bench.params['alpha']}")
    print(f"# pass wall_s={walls} setup samples={[round(s, 4) for s in setup]}")
    print("# env " + json.dumps(environment(bench.env), sort_keys=True))
    for metric, entry in metrics.items():
        note = f"  <- moves {notes[metric]}" if metric in notes else ""
        print(f"{metric:<40} {entry['value']:>14.6g} {entry['unit']}{note}")
    print(f"{'error_rate':<40} {failed / attempted:>14.6g} ratio ({failed}/{attempted} failed)")
    for problem in bench.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    correct = not bench.problems and failed == 0 and bool(metrics)
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
