"""Tests of the benchmark's own code: workloads, tracer, checks and runner.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from lr_horizon.cli import main as cli_main  # noqa: E402


# ---------------------------------------------------------------------------
# workloads


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_identical_argv(name):
    first = workloads.commands(name, workloads.params(name, 7), "out")
    again = workloads.commands(name, workloads.params(name, 7), "out")
    other = workloads.commands(name, workloads.params(name, 8), "out")
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", workloads.NAMES)
def test_alphas_stay_in_their_range(name):
    count, lo, hi = workloads._ALPHA_DRAW[name]
    for seed in range(50):
        alphas = workloads.draw_alphas(name, seed)
        assert len(set(alphas)) == count
        assert all(lo <= a <= hi for a in alphas)


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.NAMES)
    assert [w["why"] for w in doc["workloads"]] == list(workloads.WHY.values())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        entry[:3] for entry in tracer.PER_LAYER
    ]
    assert {m["name"] for m in doc["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}


# ---------------------------------------------------------------------------
# tracer


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 7
        return self.now


def test_self_time_is_non_negative_and_sums_to_root():
    t = tracer.Tracer(clock=FakeClock())
    t.begin("root")
    for _ in range(3):
        t.begin("a")
        t.begin("b")
        t.begin("c")
        t.end()
        t.end()
        t.begin("b")
        t.end()
        t.end()
    root = t.end()
    assert all(s["self_ns"] >= 0 for s in t.stats.values())
    assert sum(s["self_ns"] for s in t.stats.values()) == root
    assert t.stats["b"]["calls"] == 6


def _traced_pass(tmp_path, commands):
    job, result = tmp_path / "job.json", tmp_path / "result.json"
    job.write_text(json.dumps({"commands": commands, "trace": True}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(job), str(result)], env=env, check=True
    )
    return json.loads(result.read_text())


def test_traced_pass_reaches_by_name_and_in_function_imports(tmp_path):
    sig = str(tmp_path / "sig.csv")
    res = _traced_pass(
        tmp_path,
        [
            ["signaling", "--method", "exact_sum", "--alpha", "0.5", "--N", "1000,2000,4000",
             "--r", "1", "--out", sig],
            ["fit", "--input", sig, "--out", str(tmp_path / "fit.csv")],
        ],
    )
    spans = res["spans"]
    assert res["codes"] == [0, 0]
    assert spans["cli.main"]["calls"] == 2
    # cli imports fourier_spectrum by name; signaling imports exact_sum_bound
    # inside the solver.
    assert spans["kernels.fourier_spectrum"]["calls"] == 3
    assert spans["bounds.exact_sum_bound"]["calls"] > 3 * 30
    assert spans["signaling"]["solves"] == 3
    assert spans["signaling"]["bound_evals"] == spans["bounds.exact_sum_bound"]["calls"]
    assert spans["analysis.fit_model"]["calls"] == 1
    assert all(s["self_ns"] >= 0 for s in spans.values() if "self_ns" in s)
    assert sum(s.get("self_ns", 0) for s in spans.values()) == res["root_ns"]
    metrics = tracer.layer_metrics(spans, 0.0)
    assert list(metrics) == [entry[0] for entry in tracer.PER_LAYER]
    calls = spans["bounds.exact_sum_bound"]["calls"]
    assert 1000 * calls <= metrics["bounds.exact_sum_bound.elements"] <= 4000 * calls


def test_install_rebinds_every_module_holding_the_function(tmp_path):
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "import lr_horizon, lr_horizon.cli as cli, lr_horizon.bounds as bounds\n"
        "import tracer\n"
        "original = bounds.exact_sum_bound\n"
        "tracer.install(tracer.Tracer())\n"
        "holders = [m.__name__ for m in (lr_horizon, cli, bounds)\n"
        "           if getattr(m, 'exact_sum_bound') is original]\n"
        "assert not holders, holders\n"
        "assert cli.exact_sum_bound is bounds.exact_sum_bound is lr_horizon.exact_sum_bound\n"
    ) % str(BENCH)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# ---------------------------------------------------------------------------
# checks: each passes on real output and rejects a corrupted copy


def _cli(*argv):
    assert cli_main([*argv, "--workers", "1"]) == 0


def _corrupt(path: Path, row: int, column: str, change) -> None:
    lines = path.read_text().splitlines()
    start = 2 if lines[0].startswith("#") else 1
    header = lines[start - 1].split(",")
    cells = lines[start + row].split(",")
    i = header.index(column)
    cells[i] = repr(change(float(cells[i])))
    lines[start + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _scaled(factor):
    return lambda x: x * factor


def test_signaling_check_rejects_scaled_t_star(tmp_path):
    p = {"alpha": [0.3, 0.6], "N": [1000, 2000, 4000]}
    out = tmp_path / "sig.csv"
    _cli("signaling", "--method", "exact_sum", "--alpha", "0.3,0.6", "--N", "1000,2000,4000",
         "--r", "1,N/2", "--out", str(out))
    assert checks.check_signaling(checks.read_csv(out), p) == []
    _corrupt(out, 4, "t_star", _scaled(1 + 1e-3))
    assert checks.check_signaling(checks.read_csv(out), p)


def test_signaling_check_rejects_t_star_below_analytic(tmp_path):
    p = {"alpha": [0.3], "N": [1000]}
    out = tmp_path / "sig.csv"
    _cli("signaling", "--method", "exact_sum", "--alpha", "0.3", "--N", "1000",
         "--r", "1,N/2", "--out", str(out))
    _corrupt(out, 1, "t_star", _scaled(0.5))
    assert any("below analytic" in e for e in checks.check_signaling(checks.read_csv(out), p))


def test_fit_check_rejects_gamma_off_alpha_minus_one():
    p = {"alpha": [0.3], "N": [1, 2, 3, 4, 5]}
    rows = [{"alpha": "0.3", "r_spec": rs, "b": "-0.72", "n_points": "5"} for rs in ("1", "N/2")]
    assert checks.check_fit(rows, p) == []
    rows[1]["b"] = "-0.55"
    assert checks.check_fit(rows, p)


def test_bound_check_rejects_decrease_and_negative(tmp_path):
    p = {"alpha": [0.4], "N": [2000], "r_logspace": 5, "t": [0.1, 0.3, 1, 3]}
    out = tmp_path / "bound.csv"
    _cli("bound", "--method", "exact_sum", "--alpha", "0.4", "--N", "2000", "--r-logspace", "5",
         "--t", "0.1,0.3,1,3", "--t-unit", "inv_lambda", "--out", str(out))
    assert checks.check_bound(checks.read_csv(out), p) == []
    _corrupt(out, 3, "value", _scaled(1e-6))
    assert any("decrease" in e for e in checks.check_bound(checks.read_csv(out), p))
    _corrupt(out, 3, "value", lambda x: -1.0)
    assert any("negative" in e for e in checks.check_bound(checks.read_csv(out), p))


@pytest.mark.parametrize("dimension,grid", [(1, [200, 400]), (2, [64, 256])])
def test_lambda_check_rejects_scaled_lambda(tmp_path, dimension, grid):
    key = "chain_N" if dimension == 1 else "box_N"
    p = {"alpha": [0.5], key: grid}
    out = tmp_path / "lam.csv"
    _cli("lambda", "--boundary", "open", "--D", str(dimension), "--alpha", "0.5",
         "--N", ",".join(map(str, grid)), "--out", str(out))
    assert checks.check_lambda(checks.read_csv(out), p, dimension) == []
    _corrupt(out, 1, "lambda", _scaled(1 + 1e-3))
    assert checks.check_lambda(checks.read_csv(out), p, dimension)
    _corrupt(out, 0, "lambda", _scaled(1e3))
    assert any("ceiling" in e for e in checks.check_lambda(checks.read_csv(out), p, dimension))


def test_many_site_check_rejects_scaled_t_star_and_periodic_boundary(tmp_path):
    p = {"alpha": [0.5], "many_site_N": [32, 64]}
    out = tmp_path / "ms.csv"
    for boundary in ("open", "periodic"):
        _cli("signaling", "--method", "many_site", "--boundary", boundary, "--alpha", "0.5",
             "--N", "32,64", "--out", str(out))
        errors = checks.check_many_site(checks.read_csv(out), p)
        if boundary == "open":
            assert errors == []
            _corrupt(out, 1, "t_star", _scaled(1 + 1e-3))
            assert checks.check_many_site(checks.read_csv(out), p)
        else:
            assert any("periodic" in e for e in errors)


@pytest.mark.parametrize(
    "table,row,column,change,message",
    [
        ("traj", 100, "prob", lambda x: x + 1e-6, "sum to"),
        ("out", 0, "fidelity", lambda x: x - 1e-6, "fidelity"),
        ("out", 1, "ratio", _scaled(1 + 1e-3), "ratio"),
    ],
)
def test_protocol_check_rejects_corruption(tmp_path, table, row, column, change, message):
    p = {"alpha": [0.5], "protocol_N": [8, 16]}
    files = {"out": tmp_path / "protocol.csv", "traj": tmp_path / "traj.csv"}
    _cli("protocol", "--alpha", "0.5", "--N", "8,16", "--plot-data", str(files["traj"]),
         "--out", str(files["out"]))

    def errors():
        return checks.check_protocol(
            checks.read_csv(files["out"]), checks.read_csv(files["traj"]), p
        )

    assert errors() == []
    _corrupt(files[table], row, column, change)
    assert any(message in e for e in errors())


def test_ising_check_rejects_large_error(tmp_path):
    p = {"alpha": [0.5], "ising_t": [0.05, 0.1]}
    out = tmp_path / "ising.csv"
    _cli("ising-oracle", "--alpha", "0.5", "--N", "6", "--t", "0.05,0.1", "--out", str(out))
    assert checks.check_ising(checks.read_csv(out), p) == []
    _corrupt(out, 1, "abs_error", lambda x: 1e-9)
    assert checks.check_ising(checks.read_csv(out), p)


def test_check_reports_missing_output_as_failure(tmp_path):
    failures = checks.check("ring_bound_grid", workloads.params("ring_bound_grid", 1), str(tmp_path))
    assert failures["bound"]


# ---------------------------------------------------------------------------
# runner


def test_runner_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ring_bound_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _bench_with_reference(tmp_path) -> "run.Bench":
    bench = run.Bench("ring_bound_grid", 1, tmp_path, deadline=0.0)
    bench.params = {"alpha": [0.4], "N": [2000], "r_logspace": 5, "t": [0.1, 0.3, 1, 3]}
    bench.reference.mkdir()
    _cli("bound", "--method", "exact_sum", "--alpha", "0.4", "--N", "2000", "--r-logspace", "5",
         "--t", "0.1,0.3,1,3", "--t-unit", "inv_lambda", "--out", str(bench.reference / "bound.csv"))
    return bench


def test_failed_check_and_changed_output_count_as_failed_operations(tmp_path):
    bench = _bench_with_reference(tmp_path)
    ok = {"result": {"codes": [0]}}
    bench.passes = [(ok, set()), (ok, {"bound"}), ({"result": {"codes": [2]}}, set())]
    assert bench.count_operations() == (3, 2)
    _corrupt(bench.reference / "bound.csv", 2, "value", lambda x: -1.0)
    assert bench.count_operations() == (3, 3)


def test_guard_fails_when_an_expected_span_is_missing(tmp_path):
    bench = run.Bench("ring_bound_grid", 1, tmp_path, deadline=0.0)
    spans = {name: {"calls": 1} for name in workloads.EXPECTED_SPANS["ring_bound_grid"]}
    bench.passes = [({"result": {"spans": spans}}, set())]
    bench.guard_spans()
    assert bench.problems == []
    del spans["bounds.exact_sum_bound"]
    bench.guard_spans()
    assert bench.problems == ["expected span bounds.exact_sum_bound recorded no calls"]
