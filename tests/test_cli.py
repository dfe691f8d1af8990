import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import random
import shlex
import subprocess
import sys
from itertools import chain as chained
from pathlib import Path

import numpy as np
import pytest

import lr_horizon.cli as cli
from lr_horizon import (CouplingModel, LatticeSpec, NoCrossingError, analytic_bound, chain, exact_sum_bound,
                        free_particle_envelope, kernels, ring, self_hop_lambda, signaling_time_analytic,
                        site_hop_strength)
from lr_horizon.cli import main
from lr_horizon.kernels import FourierSpectrum


def _rows(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_lambda_alpha_zero_row(capsys):
    code, out = _run(capsys, ["lambda", "--alpha", "0", "--N", "100"])
    assert code == 0
    rows = _rows(out)
    assert float(rows[0]["lambda"]) == 99.0


def test_lambda_ring4_value(capsys):
    code, out = _run(capsys, ["lambda", "--alpha", "1", "--N", "4"])
    assert code == 0
    assert float(_rows(out)[0]["lambda"]) == pytest.approx(2.5)


def test_lambda_chain_log_bound(capsys):
    code, out = _run(capsys, ["lambda", "--alpha", "1", "--N", "100,1000,10000", "--boundary", "open"])
    assert code == 0
    for row in _rows(out):
        n = int(row["N"])
        assert float(row["lambda"]) <= 2 * math.log(n) + 5


def test_header_records_version_and_hash(capsys):
    code, out = _run(capsys, ["lambda", "--alpha", "0.5", "--N", "32"])
    assert code == 0
    head = out.splitlines()[0]
    assert head.startswith("# lr-horizon v")
    assert "config=" in head and "method=" in head


def test_bound_exact_sum_value(capsys):
    code, out = _run(capsys, ["bound", "--method", "exact_sum", "--alpha", "0", "--N", "3", "--r", "1", "--t", "0.1"])
    assert code == 0
    expected = 2 * (math.exp(0.8) - math.exp(0.2)) / 3
    assert float(_rows(out)[0]["value"]) == pytest.approx(expected, rel=1e-12)


def test_bound_zero_time_rows_are_zero(capsys):
    code, out = _run(capsys, ["bound", "--method", "exact_sum", "--alpha", "0.5", "--N", "16", "--r", "1,N/2", "--t", "0"])
    assert code == 0
    assert all(float(row["value"]) == 0.0 for row in _rows(out))


def test_bound_analytic_dominates_exact_sum(capsys):
    args = ["--alpha", "0.25,0.75", "--N", "32,64", "--r", "1,N/4", "--t", "0.01,0.05"]
    _, out_e = _run(capsys, ["bound", "--method", "exact_sum"] + args)
    _, out_a = _run(capsys, ["bound", "--method", "analytic"] + args)
    for re_, ra in zip(_rows(out_e), _rows(out_a)):
        assert (re_["N"], re_["alpha"], re_["r"], re_["t"]) == (ra["N"], ra["alpha"], ra["r"], ra["t"])
        assert float(re_["value"]) <= float(ra["value"]) * (1 + 1e-12)


def test_bound_exact_sum_requires_1d(capsys):
    assert main(["bound", "--method", "exact_sum", "--alpha", "0.5", "--N", "16", "--D", "2"]) == 2
    assert capsys.readouterr().err == "invalid input: the exact series bound is defined on 1D rings only\n"


@pytest.mark.parametrize("command,method", [("bound", "exact_sum"), ("signaling", "exact_sum")])
def test_open_boundary_rejected_where_ignored_exit2(capsys, command, method):
    code = main([command, "--method", method, "--boundary", "open", "--alpha", "0.5", "--N", "16"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "invalid input: the exact series bound is defined on 1D rings only\n"


@pytest.mark.parametrize("dimension, lattice", [(1, chain(64)), (2, LatticeSpec.from_sites(64, 2, "open"))],
                         ids=["chain", "box"])
@pytest.mark.parametrize("separations", [["--r", "1,5,9"], ["--r-logspace", "4"]], ids=["r", "r_logspace"])
def test_bound_on_open_lattices_is_the_library_bound(capsys, dimension, lattice, separations):
    """analytic and envelope need only lambda and r, which open lattices have; an 8 x 8 box's top r is int(7 sqrt 2)."""
    model = CouplingModel(alpha=0.7)
    lattice_args = ["--boundary", "open", "--alpha", "0.7", "--D", str(dimension), "--N", "64"]
    code, out = _run(capsys, ["bound", "--method", "analytic", *lattice_args, *separations, "--t", "0.05,0.2"])
    assert code == 0
    rows = _rows(out)
    params = self_hop_lambda(lattice, model)
    assert [float(row["value"]) for row in rows] == [
        analytic_bound(params, int(row["r"]), float(row["t"])).value for row in rows]
    if separations[0] == "--r-logspace":
        assert max(int(row["r"]) for row in rows) == int(lattice.largest_distance) == (63 if dimension == 1 else 9)
    code, out = _run(capsys, ["bound", "--method", "envelope", *lattice_args])
    assert code == 0
    assert [float(row["value"]) for row in _rows(out)] == [free_particle_envelope(lattice, model)]


def test_bound_unknown_method_exit2(capsys):
    code, _ = _run(capsys, ["bound", "--method", "magic", "--alpha", "0.5", "--N", "16"])
    assert code == 2


def test_signaling_analytic_hand_value(capsys):
    code, out = _run(capsys, ["signaling", "--method", "analytic", "--alpha", "1", "--N", "4", "--r", "2"])
    assert code == 0
    assert float(_rows(out)[0]["t_star"]) == pytest.approx(math.log(11) / 25, rel=1e-12)


def test_signaling_ising_hand_value(capsys):
    code, out = _run(capsys, ["signaling", "--method", "ising", "--alpha", "1", "--N", "4", "--delta", "0.5"])
    assert code == 0
    assert float(_rows(out)[0]["t_star"]) == pytest.approx(math.pi / 30, rel=1e-12)


def test_signaling_ising_default_threshold_is_one(capsys):
    code, out = _run(capsys, ["signaling", "--method", "ising", "--N", "16"])
    assert code == 0
    row = _rows(out)[0]
    lam0 = site_hop_strength(ring(16), CouplingModel(alpha=0.5), 0)
    assert float(row["delta"]) == 1.0
    assert float(row["t_star"]) == pytest.approx(math.pi / (4 * lam0), rel=1e-12)


def test_signaling_ising_probes_site_i(capsys):
    base = ["signaling", "--method", "ising", "--boundary", "open", "--alpha", "1", "--N", "9", "--delta", "0.5"]
    t_star = {}
    for i in (0, 4):
        code, out = _run(capsys, base + ["--i", str(i)])
        assert code == 0
        t_star[i] = float(_rows(out)[0]["t_star"])
        lam_i = site_hop_strength(chain(9), CouplingModel(alpha=1.0), i)
        assert t_star[i] == pytest.approx(math.asin(0.5) / (2 * lam_i), rel=1e-12)
    assert t_star[4] < t_star[0]


@pytest.mark.parametrize(
    "method,extra,message",
    [
        (method, ["--t", "3"], "does not use --t")
        for method in ("analytic", "exact_sum", "many_site", "ising")
    ]
    + [
        (method, ["--r-logspace", "4"], "does not use --r-logspace")
        for method in ("analytic", "exact_sum", "many_site", "ising")
    ]
    + [
        ("many_site", ["--r", "5"], "does not use --r"),
        ("ising", ["--r", "5"], "does not use --r"),
        ("ising", ["--i", "16"], "site index 16 outside [0, 16)"),
        ("ising", ["--i", "-1"], "site index -1 outside [0, 16)"),
    ],
)
def test_signaling_dropped_flags_and_bad_site_exit2(capsys, method, extra, message):
    code = main(["signaling", "--method", method, "--alpha", "0.5", "--N", "16", *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("invalid input:")
    assert message in captured.err


@pytest.mark.parametrize(
    "argv,largest",
    [
        (["bound", "--method", "analytic", "--N", "16", "--t", "0.1"], 8),
        (["signaling", "--method", "analytic", "--N", "16"], 8),
        (["signaling", "--method", "analytic", "--N", "15"], 7),
        (["signaling", "--method", "analytic", "--N", "16", "--boundary", "open"], 15),
        (["bound", "--method", "analytic", "--N", "64", "--D", "2", "--t", "0.1"], 4 * math.sqrt(2)),
        (["signaling", "--method", "analytic", "--N", "16", "--D", "2", "--boundary", "open"], 3 * math.sqrt(2)),
    ],
)
def test_separation_beyond_lattice_exit2(capsys, argv, largest):
    """r up to the lattice's largest distance is written; one past it exits 2."""
    r = math.floor(largest)
    code, out = _run(capsys, argv + ["--r", str(r)])
    assert code == 0
    assert int(_rows(out)[0]["r" if argv[0] == "bound" else "r_or_sizeY"]) == r
    code = main(argv + ["--r", str(r + 1)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("invalid input: r = ")


def test_signaling_many_site_hand_value(capsys):
    code, out = _run(capsys, ["signaling", "--method", "many_site", "--alpha", "1", "--N", "4"])
    assert code == 0
    row = _rows(out)[0]
    assert row["r_or_sizeY"] == "3"
    assert float(row["t_star"]) == pytest.approx(math.log(3) / 25, rel=1e-9)


def test_signaling_kac_flag_rescales(capsys):
    base = ["signaling", "--method", "analytic", "--alpha", "0.5", "--N", "16", "--r", "4"]
    _, out0 = _run(capsys, base)
    _, out1 = _run(capsys, base + ["--kac"])
    from lr_horizon import CouplingModel, ring, self_hop_lambda

    lam = self_hop_lambda(ring(16), CouplingModel(alpha=0.5)).lam
    assert float(_rows(out1)[0]["t_star"]) == pytest.approx(lam * float(_rows(out0)[0]["t_star"]), rel=1e-12)


_LATTICES = {
    "ring": ["--N", "16"],
    "open_chain": ["--N", "16", "--boundary", "open"],
    "open_box_2d": ["--N", "64", "--D", "2", "--boundary", "open"],
}


@pytest.mark.parametrize(
    "method,lattice",
    [
        ("analytic", "ring"),
        ("analytic", "open_chain"),
        ("analytic", "open_box_2d"),
        ("exact_sum", "ring"),  # the series bound is defined on rings only
        ("many_site", "ring"),
        ("many_site", "open_chain"),
        ("many_site", "open_box_2d"),
        ("ising", "ring"),
        ("ising", "open_chain"),
        ("ising", "open_box_2d"),
    ],
)
def test_kac_rescales_every_method_by_lambda(capsys, method, lattice):
    """--kac multiplies each t_star by the lambda that `lambda` prints, exactly."""
    grid = ["--alpha", "0,0.5,1.7"] + _LATTICES[lattice]
    _, out = _run(capsys, ["lambda"] + grid)
    lams = [float(row["lambda"]) for row in _rows(out)]
    extra = {"analytic": ["--r", "1,3"], "exact_sum": ["--r", "1,3"], "ising": ["--i", "3", "--delta", "0.5"]}
    argv = ["signaling", "--method", method] + grid + extra.get(method, [])
    code_plain, plain = _run(capsys, argv)
    code_kac, kac = _run(capsys, argv + ["--kac"])
    assert code_plain == code_kac == 0
    per_alpha = len(_rows(plain)) // len(lams)
    for k, (p, q) in enumerate(zip(_rows(plain), _rows(kac), strict=True)):
        assert float(q["t_star"]) == lams[k // per_alpha] * float(p["t_star"])


@pytest.mark.parametrize("method,calls", [("analytic", 1), ("exact_sum", 0)])
def test_kac_reuses_the_lambda_of_the_solve(capsys, monkeypatch, method, calls):
    argv = ["signaling", "--method", method, "--N", "64", "--r", "1,N/2"]
    _, plain = _run(capsys, argv)
    counted, real = [], cli.self_hop_lambda

    def counting(*args, **kwargs):
        counted.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "self_hop_lambda", counting)
    code, kac = _run(capsys, argv + ["--kac"])
    assert code == 0
    assert len(counted) == calls
    lam = real(ring(64), CouplingModel(alpha=0.5)).lam
    assert [row["t_star"] for row in _rows(kac)] == [
        format(lam * float(row["t_star"]), ".17g") for row in _rows(plain)
    ]


def test_ising_kac_on_open_lattice_uses_lambda(capsys):
    """On an open chain lambda exceeds the end site's row sum, so t_star * lambda > asin(delta) / 2."""
    argv = ["signaling", "--method", "ising", "--alpha", "0.5", "--N", "16", "--boundary", "open", "--delta", "0.5"]
    _, plain = _run(capsys, argv)
    _, kac = _run(capsys, argv + ["--kac"])
    t_plain, t_kac = float(_rows(plain)[0]["t_star"]), float(_rows(kac)[0]["t_star"])
    lam_end = site_hop_strength(chain(16), CouplingModel(alpha=0.5), 0)
    assert t_plain == pytest.approx(math.asin(0.5) / (2 * lam_end), rel=1e-15)
    assert t_kac > 1.1 * math.asin(0.5) / 2


def test_ising_kac_needs_no_p(capsys):
    """--kac reads lambda alone, so an alpha whose p = 2**(alpha + 1) overflows still runs for ising."""
    argv = ["signaling", "--method", "ising", "--alpha", "2000", "--N", "8"]
    code_plain, plain = _run(capsys, argv)
    code_kac, kac = _run(capsys, argv + ["--kac"])
    assert code_plain == code_kac == 0
    t_plain = float(_rows(plain)[0]["t_star"])
    assert t_plain == 0.39269908169872414
    lam = 2.0  # the two neighbours; every other weight 2**-2000 or below underflows to 0
    assert float(_rows(kac)[0]["t_star"]) == lam * t_plain


def test_signaling_solver_failure_exit3(capsys, monkeypatch):
    import lr_horizon.cli as cli

    for exc in (NoCrossingError("threshold unreachable"), RuntimeError("series sum returned -1e-3")):

        def boom(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "exact_sum_signaling_time", boom)
        code = main(["signaling", "--method", "exact_sum", "--alpha", "0.5", "--N", "16", "--r", "1"])
        assert code == 3
        assert capsys.readouterr().err == f"solver failure: {exc}\n"


def test_signaling_exits_3_when_the_series_reaches_delta_at_its_analytic_lower_end(capsys, monkeypatch):
    """A ring series scaled by 10 reaches delta below the analytic t*: no step lands below delta, and the lower end fails its check.

    Every pass is scaled, so the value and the Newton slope agree.
    """
    lo = signaling_time_analytic(self_hop_lambda(ring(16), CouplingModel(alpha=0.5)), 1, 1.0).t_star
    run = FourierSpectrum._pass
    monkeypatch.setattr(FourierSpectrum, "_pass", lambda spectrum, r, t, slope: tuple(10.0 * x for x in run(spectrum, r, t, slope)))
    code = main(["signaling", "--method", "exact_sum", "--alpha", "0.5", "--N", "16", "--r", "1"])
    assert code == 3
    assert capsys.readouterr().err == (
        f"solver failure: ring series N=16, alpha=0.5, r=1 reaches delta=1.0 at its lower end t={lo!r}\n"
    )


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["bound", "--alpha", "nan", "--N", "100", "--t", "0.1"], "--alpha"),
        (["signaling", "--alpha", "0.5,inf", "--N", "100"], "--alpha"),
        (["bound", "--t", "inf", "--N", "100"], "--t"),
        (["signaling", "--delta", "nan", "--N", "100"], "--delta"),
        (["lambda", "--N", "inf"], "--N"),
        (["lambda", "--N", "100,nan"], "--N"),
    ],
)
def test_non_finite_numbers_exit2(capsys, argv, flag):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"invalid input: {flag} must be finite" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["lambda", "--alpha", "2000", "--N", "16"],
        ["signaling", "--method", "analytic", "--alpha", "1100", "--N", "16"],
        ["signaling", "--method", "exact_sum", "--alpha", "1100", "--N", "16"],
        ["bound", "--method", "envelope", "--alpha", "2000", "--N", "16"],
        ["bound", "--method", "exact_sum", "--alpha", "2000", "--N", "16", "--r", "1", "--t", "0.1"],
        ["signaling", "--method", "exact_sum", "--alpha", "2000", "--N", "16"],
        ["bound", "--method", "analytic", "--alpha", "2000", "--N", "16", "--r", "1", "--t", "0.1"],
        ["signaling", "--method", "many_site", "--alpha", "2000", "--N", "16"],
    ],
)
def test_alpha_whose_p_overflows_exit2(capsys, argv):
    """p = 2**(alpha + 1) past the float range is invalid input, not a traceback.

    Every prefactor family meets the rule, so a bound and its signaling
    time reject the same alpha.
    """
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    alpha = float(argv[argv.index("--alpha") + 1])  # the alpha given, not one derived from it
    assert f"invalid input: alpha = {alpha} is too large: p = 2**(alpha + 1) overflows a float" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["signaling", "--method", "analytic", "--alpha", "1000", "--N", "16", "--r", "4"],
        ["bound", "--method", "analytic", "--alpha", "1000", "--N", "16", "--r", "4", "--t", "1"],
    ],
)
def test_pair_weight_underflow_exit2(tmp_path, capsys, argv):
    """r**(-alpha) underflowing to 0 is invalid input, not a traceback or an inf bound."""
    assert "alpha = 1000.0, separation 4.0" in _exit2(tmp_path, capsys, argv)


@pytest.mark.parametrize("method", ["analytic", "exact_sum"])
def test_negative_time_exit2(tmp_path, capsys, method):
    """A negative t is invalid input on both routes, the analytic bound and the series grid, not a solver failure."""
    argv = ["bound", "--method", method, "--N", "16", "--r", "1", "--t", "0.1,-1"]
    assert _exit2(tmp_path, capsys, argv) == "invalid input: t must be finite and >= 0, got -1.0\n"


def test_ising_oracle_negative_time_exit2(tmp_path, capsys):
    """ising-oracle takes times by bound's rule: -1 is invalid input, not a row."""
    argv = ["ising-oracle", "--N", "4", "--alpha", "0.5", "--t", "-1"]
    assert _exit2(tmp_path, capsys, argv) == "invalid input: t must be finite and >= 0, got -1.0\n"


def _exit2(tmp_path, capsys, argv, config=None):
    """Run ``argv`` (with ``config`` as its --config file) and return stderr; it must exit 2."""
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize(
    "dimension, n, count, want",
    [(1, 1000, 4, [1, 8, 63, 500]), (1, 100, 3, [1, 7, 50]), (2, 100, 5, [1, 2, 3, 4, 7]), (3, 64, 3, [1, 2, 3])],
)
def test_r_logspace_spans_one_to_the_largest_distance(dimension, n, count, want):
    # [1, N // 2] on a ring, [1, floor(sqrt(D) * floor(L / 2))] on a D-torus
    argv = ["bound", "--method", "analytic", "--D", str(dimension), "--r-logspace", str(count)]
    cfg = cli._merge_config(cli._build_parser().parse_args(argv))
    rows, _ = cli._bound_task(dict(cfg, alpha=0.5, N=n))
    assert sorted({row[3] for row in rows}) == want


def test_r_logspace_on_a_torus_exit0(capsys):
    code, out = _run(capsys, ["bound", "--method", "analytic", "--D", "2", "--N", "100", "--r-logspace", "5",
                              "--t", "0.1"])
    assert code == 0
    assert [int(row["r"]) for row in _rows(out)] == [1, 2, 3, 4, 7]


# 0, a repeated t and a saturating t, in units of 1 / lambda
GRID_T = "0,0.3,1,0.3,1000"


def _exact_sum_grid(capsys, alphas, sizes):
    argv = ["bound", "--method", "exact_sum", "--alpha", alphas, "--N", sizes, "--r-logspace", "6",
            "--t", GRID_T, "--t-unit", "inv_lambda", "--workers", "1"]
    code, out = _run(capsys, argv)
    assert code == 0
    return _rows(out)


def test_bound_grid_builds_each_exponential_and_weight_vector_once(capsys, monkeypatch):
    """Per (N, alpha), the grid makes one exponential block per finite t and block of table rows, and each r's tables once."""
    built = []
    terms, tables = FourierSpectrum._terms, FourierSpectrum._angle_tables

    def counted_terms(spectrum, t, start, out):
        built.append((spectrum.n_sites, spectrum.alpha, "_terms" if len(out) == 1 else "_rates", start, t))
        return terms(spectrum, t, start, out)

    def counted_tables(spectrum, r):
        built.append((spectrum.n_sites, spectrum.alpha, "_angle_tables", 0, r))
        return tables(spectrum, r)

    monkeypatch.setattr(FourierSpectrum, "_terms", counted_terms)
    monkeypatch.setattr(FourierSpectrum, "_angle_tables", counted_tables)
    rows = _exact_sum_grid(capsys, "0.3,0.7", "1000,4096,140000")
    assert not [entry for entry in built if entry[2] == "_rates"]  # no slope is summed
    for n, alpha in [(n, alpha) for n in (1000, 4096, 140000) for alpha in (0.3, 0.7)]:
        group = [row for row in rows if (int(row["N"]), float(row["alpha"])) == (n, alpha)]
        times = list(dict.fromkeys(float(row["t"]) for row in group))
        rs = list(dict.fromkeys(int(row["r"]) for row in group))
        assert len(times) == 4 and len(rs) > 1 and len(group) == 5 * len(rs)
        size = n // 2 + 1
        # each N takes the rfft path: rows of C modes, 65536 modes a block
        starts = range(0, -(-size // min(size, kernels._WEIGHT_COLUMNS)), kernels._BLOCK_MODES // kernels._WEIGHT_COLUMNS)
        assert len(starts) == (2 if n == 140000 else 1)
        finite = list(dict.fromkeys(float(row["t"]) for row in group if row["value"] != "inf"))
        assert finite == times[:3]  # the last t saturates and makes no exponential
        for maker, want in ("_terms", [(a, t) for a in starts for t in finite]), ("_angle_tables", [(0, r) for r in rs]):
            made = [(a, x) for m, al, b, a, x in built if (m, al, b) == (n, alpha, maker)]
            assert sorted(made) == sorted(want)


def test_bound_grid_rows_equal_fresh_spectrum_bounds(capsys):
    rows = _exact_sum_grid(capsys, "0.3,0.7", "1000,4096")
    assert {"0", "inf"} <= {row["value"] for row in rows}
    for row in rows:
        n, alpha, r, t = int(row["N"]), float(row["alpha"]), int(row["r"]), float(row["t"])
        assert float(row["value"]) == exact_sum_bound(n, alpha, r, t).value


def test_fit_of_a_nonfinite_value_exit2(tmp_path, capsys):
    table = tmp_path / "saturated.csv"
    argv = ["bound", "--method", "exact_sum", "--N", "16,32,64", "--r", "1", "--t", "1000"]
    assert main(argv + ["--out", str(table)]) == 0
    assert {row["value"] for row in _rows(table.read_text())} == {"inf"}
    err = _exit2(tmp_path, capsys, ["fit", "--input", str(table)])
    assert err == "invalid input: all N and t must be finite\n"


@pytest.mark.parametrize("count", [0, -2])
def test_r_logspace_below_one_exit2(tmp_path, capsys, count):
    argv = ["bound", "--method", "analytic", "--N", "64", "--t", "0.1"]
    message = f"invalid input: --r-logspace must be at least 1, got {count}\n"
    assert _exit2(tmp_path, capsys, argv + ["--r-logspace", str(count)]) == message
    assert _exit2(tmp_path, capsys, argv, {"r_logspace": count}) == message


@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_workers_below_one_exit2(tmp_path, capsys, monkeypatch, source):
    argv = ["signaling", "--N", "16"]
    if source == "flag":
        err = _exit2(tmp_path, capsys, argv + ["--workers", "0"])
    elif source == "config":
        err = _exit2(tmp_path, capsys, argv, {"workers": 0})
    else:
        monkeypatch.setenv("LR_HORIZON_WORKERS", "-3")
        err = _exit2(tmp_path, capsys, ["lambda", "--N", "16"])
    name = "$LR_HORIZON_WORKERS" if source == "env" else "--workers"
    assert err.startswith(f"invalid input: {name} must be at least 1, got ")


def test_protocol_negative_alpha_exit2(tmp_path, capsys):
    err = _exit2(tmp_path, capsys, ["protocol", "--N", "4", "--alpha", "-2"])
    assert err == "invalid input: alpha must be finite and >= 0, got -2.0\n"


@pytest.mark.parametrize(
    "argv,key,value",
    [
        (["lambda"], "N", "100.7"),
        (["bound", "--method", "analytic", "--N", "16"], "r", "2.7"),
        (["signaling", "--method", "exact_sum", "--N", "16"], "r", "1.5"),
    ],
    ids=["lambda-N", "bound-r", "signaling-r"],
)
@pytest.mark.parametrize("form", ["flag", "config"])
def test_non_integral_counts_exit2(tmp_path, capsys, argv, key, value, form):
    if form == "flag":
        err = _exit2(tmp_path, capsys, argv + [f"--{key}", value])
    else:
        err = _exit2(tmp_path, capsys, argv, {key: float(value)})
    assert err.startswith(f"invalid input: --{key} takes integers, got {value}")


def test_integral_tokens_still_resolve(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 1e6}))
    code, from_config = _run(capsys, ["lambda", "--alpha", "0", "--config", str(cfg)])
    assert code == 0
    assert _rows(from_config)[0]["N"] == "1000000"
    _, from_flag = _run(capsys, ["lambda", "--alpha", "0", "--N", "1e6"])
    assert _rows(from_flag) == _rows(from_config)
    code, out = _run(capsys, ["bound", "--method", "analytic", "--N", "16", "--r", "N/2,N/4,3.0", "--t", "0.1"])
    assert code == 0
    assert [row["r"] for row in _rows(out)] == ["8", "4", "3"]


def test_fit_round_trip_through_table(tmp_path, capsys):
    table = tmp_path / "tstar.csv"
    code, _ = _run(
        capsys,
        ["signaling", "--method", "analytic", "--alpha", "0,0.5", "--N", "1000,10000,100000", "--r", "1", "--out", str(table)],
    )
    assert code == 0
    code, out = _run(capsys, ["fit", "--model", "power_log", "--input", str(table)])
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 2
    slopes = {row["alpha"]: float(row["b"]) for row in rows}
    # t*(N) at r=1 behaves as ln(c N^(1-alpha))/N^(1-alpha); the log-corrected
    # model nails alpha=0 and the alpha=0.5 slope stays near -(1-alpha)
    assert slopes["0"] == pytest.approx(-1.0, abs=0.02)
    assert slopes["0.5"] == pytest.approx(-0.5, abs=0.15)


def test_fit_requires_input(capsys):
    code, _ = _run(capsys, ["fit", "--model", "pure_power"])
    assert code == 2


def test_fit_unknown_model_exit2(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("N,t_star\n10,1.0\n100,0.1\n")
    code, _ = _run(capsys, ["fit", "--model", "quintic", "--input", str(table)])
    assert code == 2


# A table with no N column, one with a short data line (line 3, after the
# header line 1 and a full row), and one with a header and no rows. A bound
# table has no r_spec, so its two r fall in one group and repeat each N; an
# ising-oracle table's only time is its input t, which is no value to fit.
_MALFORMED = {
    "no_N_column": ("alpha,t_star\n0.5,1.0\n0.5,0.5\n0.5,0.25\n", "input table has no N column"),
    "short_line": ("N,alpha,t_star\n10,0.5,1.0\n100,0.5\n1000,0.5,0.25\n", "line 3 of {} has 2 cells, its header 3"),
    "header_only": ("# lr-horizon v0.1.0 config=0 method=analytic\nN,alpha,t_star\n", "no rows in {}"),
    "bound_two_r": (
        "method,N,alpha,r,t,value\n" + "".join(f"analytic,{n},0.5,{r},0.001,{v}\n" for n, r, v in
                                               [(100, 1, 0.004), (100, 50, 6e-4), (1000, 1, 0.005),
                                                (1000, 500, 2e-4), (10000, 1, 0.007), (10000, 5000, 1e-4)]),
        "fit group alpha='0.5', r_spec='' holds N=100 more than once; a group needs distinct N",
    ),
    "ising_oracle": (
        "N,alpha,i,t,oracle,closed_form,abs_error\n" + "".join(f"{n},0.5,0,0.1,0.5,0.5,0\n" for n in (4, 6, 8, 10)),
        "input table has no fittable column (t_star/value/lambda/T)",
    ),
}


@pytest.mark.parametrize("case", _MALFORMED)
def test_fit_names_what_is_wrong_with_the_table_exit2(tmp_path, capsys, case):
    text, message = _MALFORMED[case]
    table = tmp_path / "t.csv"
    table.write_text(text)
    err = _exit2(tmp_path, capsys, ["fit", "--input", str(table)])
    assert err == f"invalid input: {message.format(table)}\n"


def test_protocol_reference_row(capsys):
    code, out = _run(capsys, ["protocol", "--alpha", "0.5", "--N", "7"])
    assert code == 0
    row = _rows(out)[0]
    assert float(row["fidelity"]) == pytest.approx(1.0, abs=1e-9)
    assert float(row["bound"]) == pytest.approx(math.pi / 2, abs=1e-9)
    assert float(row["ratio"]) == pytest.approx(2 / math.pi, abs=1e-6)


def test_protocol_small_n_exit2(capsys):
    code, _ = _run(capsys, ["protocol", "--alpha", "0.5", "--N", "3"])
    assert code == 2


def test_protocol_above_the_evolution_cap_exit2(tmp_path, capsys):
    # The cap is checked before the two dense N x N stage matrices are built:
    # at N = 1e6 they would take 7.3 TiB each.
    err = _exit2(tmp_path, capsys, ["protocol", "--alpha", "0.5", "--N", "1e6"])
    assert err == "invalid input: N = 1000000 exceeds evolution cap 4096\n"


@pytest.mark.parametrize(
    "alpha,n,message",
    [
        ("200", "128", "T = pi L**alpha / sqrt(N - 2) overflows a float at alpha = 200.0, N = 128"),
        ("2000", "8", "T = pi L**alpha / sqrt(N - 2) overflows a float at alpha = 2000.0, N = 8"),
    ],
    ids=["alpha200", "alpha2000_N8"],
)
def test_protocol_past_the_float_range_exit2(tmp_path, capsys, alpha, n, message):
    err = _exit2(tmp_path, capsys, ["protocol", "--alpha", alpha, "--N", n])
    assert err == f"invalid input: {message}\n"


def test_protocol_where_the_stage_strengths_squares_underflow(capsys):
    """127**-80 is about 5e-169 and its square underflows a float; the row's norm does not."""
    code, out = _run(capsys, ["protocol", "--alpha", "80", "--N", "128"])
    assert code == 0
    assert _rows(out)[0]["bound"] == "1.5707963267948966"


def test_envelope_alpha_whose_doubled_p_overflows(capsys):
    """The envelope meets the p rule at the alpha given, not at 2 alpha."""
    code, out = _run(capsys, ["bound", "--method", "envelope", "--alpha", "600", "--N", "16"])
    assert code == 0
    assert _rows(out) == [{"method": "envelope", "N": "16", "alpha": "600", "r": "", "t": "", "value": "1.4142135623730951"}]


def test_protocol_plot_data_trajectory(tmp_path, capsys):
    plot = tmp_path / "traj.csv"
    code, _ = _run(capsys, ["protocol", "--alpha", "0.5", "--N", "6", "--plot-data", str(plot)])
    assert code == 0
    lines = plot.read_text().strip().splitlines()
    assert lines[0] == "N,alpha,time,site,prob"
    assert len(lines) == 1 + 101 * 6
    # probabilities at the final sampled time concentrate on the target
    final = [float(ln.split(",")[4]) for ln in lines[-6:]]
    assert max(final) == pytest.approx(1.0, abs=1e-9)


def test_protocol_plot_data_is_csv_under_either_format(tmp_path, capsys):
    argv = ["protocol", "--alpha", "0.3,0.8", "--N", "6,9"]
    for fmt in ("csv", "json"):
        assert main(argv + ["--format", fmt, "--plot-data", str(tmp_path / f"{fmt}.csv")]) == 0
    capsys.readouterr()
    written = (tmp_path / "csv.csv").read_bytes()
    assert written.startswith(b"N,alpha,time,site,prob\n")
    assert written == (tmp_path / "json.csv").read_bytes()


def test_ising_oracle_agreement_column(capsys):
    code, out = _run(capsys, ["ising-oracle", "--alpha", "1", "--N", "4", "--t", "0.05,0.1047197551", "--i", "0"])
    assert code == 0
    for row in _rows(out):
        assert float(row["abs_error"]) < 1e-10


def test_json_format(capsys):
    code, out = _run(capsys, ["lambda", "--alpha", "0", "--N", "10", "--format", "json"])
    assert code == 0
    records = json.loads(out)
    assert records[0]["lambda"] == 9.0

    # RFC 8259 has no Infinity: a saturated value is the CSV's text "inf", and a strict parser reads the table.
    def strict(constant):
        raise ValueError(f"{constant} is not JSON")

    argv = ["bound", "--method", "exact_sum", "--N", "16", "--r", "1", "--t", "0.1,1000"]
    code, out = _run(capsys, [*argv, "--format", "json"])
    assert code == 0
    values = [record["value"] for record in json.loads(out, parse_constant=strict)]
    code, out = _run(capsys, argv)
    assert code == 0
    assert values[1] == "inf" == _rows(out)[1]["value"]
    assert values[0] == float(_rows(out)[0]["value"])


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": "1", "N": "4", "r": "2", "method": "analytic"}))
    code, out = _run(capsys, ["signaling", "--config", str(cfg)])
    assert code == 0
    assert float(_rows(out)[0]["t_star"]) == pytest.approx(math.log(11) / 25, rel=1e-12)
    # flag wins over the file
    code, out = _run(capsys, ["signaling", "--config", str(cfg), "--delta", "0.5"])
    assert code == 0
    assert float(_rows(out)[0]["t_star"]) == pytest.approx(math.log(6) / 25, rel=1e-12)


@pytest.mark.parametrize(
    "command,key,value,flag",
    [
        ("signaling", "alpha", 0.9, "0.9"),
        ("signaling", "N", 100, "100"),
        ("bound", "t", 0.25, "0.25"),
        ("bound", "r", 3, "3"),
    ],
)
def test_scalar_config_value_is_one_element_grid(tmp_path, capsys, command, key, value, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    from_config, from_flag = tmp_path / "config.csv", tmp_path / "flag.csv"
    assert main([command, "--config", str(cfg), "--out", str(from_config)]) == 0
    assert main([command, f"--{key}", flag, "--out", str(from_flag)]) == 0
    assert from_config.read_bytes() == from_flag.read_bytes()


@pytest.mark.parametrize(
    "content,message",
    [
        ({"alhpa": 0.9, "N": "16"}, "unknown config key(s) alhpa; valid keys: alpha, N, r,"),
        (["alpha", 0.9], "must hold a JSON object"),
    ],
)
def test_unknown_config_key_exit2(tmp_path, capsys, content, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(content))
    code = main(["signaling", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


def test_workers_do_not_change_output(tmp_path, capsys):
    args = ["signaling", "--method", "exact_sum", "--alpha", "0.25,0.75", "--N", "64,128,256", "--r", "1,N/2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a), "--workers", "1"]) == 0
    assert main(args + ["--out", str(b), "--workers", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()
    # ising-oracle runs one task per (alpha, N) too
    args = ["ising-oracle", "--alpha", "0.5,1", "--N", "4,6", "--t", "0.1,0.2", "--i", "1"]
    assert main(args + ["--out", str(a), "--workers", "1"]) == 0
    assert main(args + ["--out", str(b), "--workers", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(_rows(a.read_text())) == 2 * 2 * 2
    # so does protocol, whose tasks also hand back their trajectory blocks
    args = ["protocol", "--alpha", "0.3,0.8", "--N", "16,25"]
    for k, table, plot in ((1, a, tmp_path / "a_trajectory.csv"), (3, b, tmp_path / "b_trajectory.csv")):
        assert main(args + ["--out", str(table), "--plot-data", str(plot), "--workers", str(k)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a_trajectory.csv").read_bytes() == (tmp_path / "b_trajectory.csv").read_bytes()
    assert len(_rows(a.read_text())) == 2 * 2
    assert len((tmp_path / "a_trajectory.csv").read_text().splitlines()) == 1 + 2 * 101 * (16 + 25)


def test_pool_has_no_more_workers_than_tasks(capsys, monkeypatch):
    """Under fork a pool starts all its workers at once, so --workers past the task count would only fork idle ones."""
    sizes = []

    class Pool(concurrent.futures.Executor):  # runs in this process and starts none
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    code, out = _run(capsys, ["protocol", "--alpha", "0.3,0.8", "--N", "7", "--workers", "64"])
    assert code == 0
    assert sizes == [2]
    assert len(_rows(out)) == 2


def _fresh_python(args: list[str], **env: str) -> bytes:
    """stdout of ``python *args`` in a fresh interpreter that imports this source tree, with ``env`` added."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]), **env)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True).stdout


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["bound", "--method", "exact_sum", "--t", "0.1,0.3", "--t-unit", "inv_lambda"], 12),
        (["signaling", "--method", "exact_sum"], 6),
    ],
)
def test_ring_series_bytes_do_not_depend_on_the_blas_thread_count(argv, rows):
    """One and two BLAS threads write the same bytes: at N = 2**18 in natural order, three blocks of modes, and on the
    split's own grid at 131074 = 2 * 65537 (A = 2, the tallest blocks) and 316228 (A = 44)."""
    argv = ["-m", "lr_horizon.cli", *argv, "--alpha", "0.3,0.6", "--N", "262144,131074,316228", "--r", "1,N/4,N/2"]
    one, two = (_fresh_python(argv, OPENBLAS_NUM_THREADS=str(k)) for k in (1, 2))
    assert one == two
    assert one.count(b"\n") == 2 + 3 * rows  # the config line, the header and the rows


def test_cli_import_leaves_multiprocessing_unloaded():
    """The process pool's modules load only when ``--workers`` > 1 asks for a pool."""
    assert _fresh_python(["-c", "import sys, lr_horizon.cli; print('multiprocessing' in sys.modules)"]) == b"False\n"


def test_workers_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LR_HORIZON_WORKERS", "2")
    a = tmp_path / "a.csv"
    assert main(["lambda", "--alpha", "0,1", "--N", "16,32", "--out", str(a)]) == 0
    assert len(a.read_text().strip().splitlines()) == 2 + 4


def test_scientific_notation_site_counts(capsys):
    code, out = _run(capsys, ["lambda", "--alpha", "0", "--N", "1e3"])
    assert code == 0
    assert float(_rows(out)[0]["lambda"]) == 999.0


def test_floats_carry_17_significant_digits(capsys):
    _, out = _run(capsys, ["lambda", "--alpha", "0.5", "--N", "100"])
    lam_text = _rows(out)[0]["lambda"]
    assert float(lam_text) == float(format(float(lam_text), ".17g"))
    assert len(lam_text.replace(".", "").replace("-", "").lstrip("0")) >= 16


# ---------------------------------------------------------------------------
# The READS table: each key a command reads changes its rows (or is
# rejected for a stated reason); every other key exits 2.

# A non-default value per key: (flag tokens, config-file value). The
# values of method and input depend on the command; see _other.
_OTHER = {
    "alpha": (["--alpha", "0.9"], 0.9),
    "N": (["--N", "9"], 9),
    "r": (["--r", "3"], 3),
    "t": (["--t", "0.3"], 0.3),
    "t_unit": (["--t-unit", "inv_lambda"], "inv_lambda"),
    "delta": (["--delta", "0.5"], 0.5),
    "kac": (["--kac"], True),
    "D": (["--D", "2"], 2),
    "boundary": (["--boundary", "open"], "open"),
    "i": (["--i", "3"], 3),
    "model": (["--model", "pure_power"], "pure_power"),
    "r_logspace": (["--r-logspace", "3"], 3),
}
# On a ring every probe site is alike, so i is varied on an open chain.
_CONTEXT = {"i": ["--boundary", "open"]}


def _methods(command):
    return [m for c, m in cli.READS if c == command and m is not None]


def _base(command, method, tables):
    """A run that exits 0 and gives only keys the command reads; every
    value at t = 0 is 0, so a command that reads t gets a nonzero one."""
    argv = [command] + (["--method", method] if method else [])
    if command == "fit":
        return argv + ["--input", str(tables[0])]
    argv += ["--N", "4" if command == "ising-oracle" else "16"]
    return argv + (["--t", "0.1"] if "t" in cli.READS[command, method] else [])


def _other(command, method, key, tables):
    """Flag tokens and config value giving ``key`` a non-default value."""
    if key == "input":
        return ["--input", str(tables[1])], str(tables[1])
    if key == "method":
        other = next((m for m in _methods(command) if m != method), "analytic")
        return ["--method", other], other
    return _OTHER[key]


@pytest.fixture(scope="module")
def fit_tables(tmp_path_factory):
    base = tmp_path_factory.mktemp("fit")
    tables = (base / "a.csv", base / "b.csv")
    for path, alpha in zip(tables, ("0,0.5", "0.25")):
        argv = ["signaling", "--method", "analytic", "--alpha", alpha, "--N", "1e3,1e4,1e5,1e6", "--out", str(path)]
        assert main(argv) == 0
    return tables


_REJECTED = [
    (command, method, key, form)
    for (command, method), reads in cli.READS.items()
    for key in cli._DEFAULTS
    if key not in reads + cli.RUN_KEYS
    for form in ("flag", "config")
]


@pytest.mark.parametrize("command,method,key,form", _REJECTED)
def test_unread_key_exit2(tmp_path, capsys, fit_tables, command, method, key, form):
    flag, value = _other(command, method, key, fit_tables)
    argv = _base(command, method, fit_tables)
    if form == "flag":
        argv += flag
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        argv += ["--config", str(cfg)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("invalid input:")
    assert f"does not use --{key.replace('_', '-')}" in captured.err


_READ = [(command, method, key) for (command, method), reads in cli.READS.items() for key in reads]


@pytest.mark.parametrize("command,method,key", _READ)
def test_read_key_changes_rows_or_exit2(capsys, fit_tables, command, method, key):
    base = _base(command, method, fit_tables) + _CONTEXT.get(key, [])
    code, before = _run(capsys, base)
    assert code == 0
    code = main(base + _other(command, method, key, fit_tables)[0])
    captured = capsys.readouterr()
    if code == 0:
        assert _rows(captured.out) != _rows(before)
    else:
        assert code == 2
        assert captured.err.startswith("invalid input:")
        assert "does not use" not in captured.err


def test_every_config_key_in_the_table():
    listed = set(cli.RUN_KEYS).union(*cli.READS.values())
    assert listed == set(cli._DEFAULTS)


@pytest.mark.parametrize("command,method", list(cli.READS))
def test_config_holds_only_the_keys_read(command, method):
    argv = [command] + (["--method", method] if method else [])
    cfg = cli._merge_config(cli._build_parser().parse_args(argv))
    assert set(cfg) == set(cli.READS[command, method] + cli.RUN_KEYS) | {"command"}


def test_one_parser_registers_each_flag_once_and_takes_it_anywhere(monkeypatch):
    calls = []
    add = argparse.ArgumentParser.add_argument
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", lambda self, *a, **k: calls.append(a) or add(self, *a, **k))
    parser = cli._build_parser.__wrapped__()  # a fresh parser, not the one cached for main
    assert len(calls) <= len(cli._KEYS) + 3  # -h, command and --config beside the keys
    monkeypatch.undo()
    for command in cli.COLUMNS:
        for key in cli._KEYS:
            flag = [cli._flag(key)] if key == "kac" else [cli._flag(key), "1"]
            expected = dict(dict.fromkeys(cli._KEYS), command=command, config=None)
            expected[key] = True if key == "kac" else "1"
            assert vars(parser.parse_args([command, *flag])) == expected
            assert vars(parser.parse_args([*flag, command])) == expected


def test_main_builds_the_parser_once_per_process(capsys, monkeypatch):
    calls = []
    add = argparse.ArgumentParser.add_argument
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", lambda self, *a, **k: calls.append(a) or add(self, *a, **k))
    cli._build_parser.cache_clear()
    assert _run(capsys, ["lambda", "--N", "8"])[0] == 0
    registered = len(calls)
    assert registered == len(cli._KEYS) + 3  # -h, command and --config beside the keys
    assert _run(capsys, ["lambda", "--N", "9", "--alpha", "0.5"])[0] == 0
    assert len(calls) == registered


def test_help_from_the_cached_parser_is_a_fresh_parsers_help(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert done.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts == [cli._build_parser.__wrapped__().format_help()] * 2


def _cli_process(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "lr_horizon.cli", *argv], env=env, capture_output=True, text=True)


@pytest.mark.parametrize("argv", [["--help"], ["bound", "--help"]])
def test_one_help_text_lists_every_command_and_flag(argv):
    done = _cli_process(*argv)
    assert done.returncode == 0
    assert "{" + ",".join(cli.COLUMNS) + "}" in done.stdout
    assert all(cli._flag(key) in done.stdout for key in ["config", *cli._KEYS])


@pytest.mark.parametrize(
    "argv, message",
    [([], "the following arguments are required: command"), (["nope"], "argument command: invalid choice: 'nope'")],
)
def test_missing_or_unknown_command_exits_2(argv, message):
    done = _cli_process(*argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert f"lr-horizon: error: {message}" in done.stderr


def test_a_key_no_command_reads_moves_no_header(capsys, monkeypatch, fit_tables):
    def headers():
        lines = []
        for command, method in cli.READS:
            code, out = _run(capsys, _base(command, method, fit_tables))
            assert code == 0
            lines.append(out.splitlines()[0])
        return lines

    before = headers()
    monkeypatch.setitem(cli._KEYS, "unread", ("x", cli._string, "a key no command reads"))
    monkeypatch.setitem(cli._DEFAULTS, "unread", "x")
    assert headers() == before


def test_fit_header_hashes_the_table_bytes_not_its_path(tmp_path, fit_tables):
    here, there = tmp_path / "a.csv", tmp_path / "elsewhere" / "b.csv"
    there.parent.mkdir()
    for path in (here, there):
        path.write_bytes(fit_tables[0].read_bytes())
    outs = [tmp_path / f"fit{k}.csv" for k in range(3)]
    assert main(["fit", "--input", str(here), "--out", str(outs[0])]) == 0
    assert main(["fit", "--input", str(there), "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    # The same path, the last value doubled: the header names a new table.
    *lines, last = here.read_text().splitlines()
    *cells, value = last.split(",")
    here.write_text("\n".join([*lines, ",".join([*cells, repr(2 * float(value))])]) + "\n")
    assert main(["fit", "--input", str(here), "--out", str(outs[2])]) == 0
    assert outs[2].read_text().splitlines()[0] != outs[0].read_text().splitlines()[0]


@pytest.mark.parametrize("method", ["analytic", "exact_sum"])
@pytest.mark.parametrize("form", ["flag", "config"])
def test_bound_r_beside_r_logspace_exit2(tmp_path, capsys, method, form):
    argv = ["bound", "--method", method, "--N", "64", "--r-logspace", "3", "--t", "0.1"]
    if form == "flag":
        argv += ["--r", "5"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 5}))
        argv += ["--config", str(cfg)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "takes --r or --r-logspace, not both" in captured.err


def test_unknown_method_lists_the_table(capsys):
    code = main(["signaling", "--method", "magic", "--N", "16"])
    assert code == 2
    err = capsys.readouterr().err
    assert "one of analytic, exact_sum, many_site, ising, got 'magic'" in err


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("lr-horizon ")]
    assert {shlex.split(ln)[1] for ln in lines} == set(cli.COLUMNS)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()


# sha256 of the files the README line `protocol --alpha 0.5 --N 7 --plot-data`
# writes (with --out added), recorded before the segment decompositions were
# cached and the tables written line by line. Any drift in the evolution or
# the formatting changes them. protocol.csv was re-recorded when the header
# hash came to cover only the keys a command reads; only its line 1 moved.
# It was re-recorded once more when the free-particle norm came to scale each
# row by its largest |J|: the bound cell moved by 1 ulp to pi/2.
# Both were re-recorded when the real star stages came to be decomposed by
# real eigh and each segment's sampled times evolved by one product: the
# trajectory moved by at most 7.8e-16 absolute (332 of 707 rows) and the
# fidelity, amplitude and ratio cells by at most 2.3e-16 relative; T and the
# bound did not move.
# Both were re-recorded when the two stars came to be decomposed in closed
# form, with no eigh: 563 of 707 trajectory cells moved, by at most 1.8e-15
# absolute, and the fidelity, amplitude and ratio cells by at most 7.8e-16
# relative; T and the bound did not move. The trajectory now lies within
# 1.1e-15 of the stars' closed-form probabilities, against 2.6e-15 before.
# trajectory.csv was re-recorded when a star came to keep only its two nonzero
# eigenpairs and to evolve as psi + v (expm1(-i w dt) * v^T psi): 341 of 707
# trajectory cells moved, by at most 4.4e-16 absolute; protocol.csv did not move.
# The last bits of a norm, an outer product, a complex expm1 or a matmul can differ between
# numpy and BLAS builds; these were recorded with numpy 2.4.6 and OpenBLAS
# 0.3.31 on x86-64.
README_PROTOCOL_SHA256 = {
    "protocol.csv": "515b897157d06374a1469beaf2181e2463d3f3902e1607021f44b9f546f72146",
    "trajectory.csv": "83ff5a5760195507c6077f0b1f3b72b6f535addf81a26ea95fcfccea115e5b7f",
}


def test_readme_protocol_bytes_are_pinned(tmp_path):
    out, plot = tmp_path / "protocol.csv", tmp_path / "trajectory.csv"
    argv = ["protocol", "--alpha", "0.5", "--N", "7", "--plot-data", str(plot), "--out", str(out)]
    assert main(argv) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, plot)}
    assert digests == README_PROTOCOL_SHA256


# sha256 of an ising-oracle table and of a power_log fit (with its "" and
# bool cells) of an analytic signaling sweep, recorded before the CSV writer
# formatted each row shape with one %-string, and re-recorded when the header
# hash came to cover only the keys a command reads (only line 1 moved).
# Recorded with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64, as above.
PINNED_TABLE_SHA256 = {
    "ising.csv": "50b01587ab5234432500b2a81af241c31bf6eef4e07081e1bf3671afc7e4bf79",
    "fit.csv": "a2009bbe2369ee51cc8453cc01e2aad8d9373f3f8ea2b6ac968694a7066723dd",
}


def test_ising_oracle_and_fit_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["ising-oracle", "--alpha", "0.5", "--N", "8", "--t", "0,0.1,0.5,1", "--out", "ising.csv"]) == 0
    sweep = ["signaling", "--method", "analytic", "--alpha", "0.5,0.9", "--N", "1e2,1e3,1e4,1e5,1e6"]
    assert main(sweep + ["--out", "tstar.csv"]) == 0
    assert main(["fit", "--model", "power_log", "--input", "tstar.csv", "--out", "fit.csv"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PINNED_TABLE_SHA256}
    assert digests == PINNED_TABLE_SHA256


def _reference_line(row) -> str:
    """One CSV line by the per-cell rule: bools as 0/1, floats to 17 digits, else str()."""
    def cell(x):
        if isinstance(x, bool):
            return str(int(x))
        if isinstance(x, float):
            return format(x, ".17g")
        return str(x)

    return ",".join(map(cell, row)) + "\n"


_TRAJECTORY = ("N", "alpha", "time", "site", "prob")


def _tables(argv):
    """(columns, rows) of each table a command writes, from its tasks: one row tuple per line.

    The protocol's trajectory blocks are expanded into the (N, alpha, time,
    site, prob) rows they stand for.
    """
    cfg = cli._merge_config(cli._build_parser().parse_args(argv))
    command = cfg["command"]
    if command == "fit":
        return [(cli.COLUMNS[command], cli._cmd_fit(cfg))]
    rows, blocks = cli._sweep(cfg)
    if command != "protocol":
        return [(cli.COLUMNS[command], rows)]
    trace_rows = [(*head, site, prob) for head, probs in blocks for site, prob in enumerate(probs)]
    return [(cli.COLUMNS[command], rows), (_TRAJECTORY, trace_rows)]


# Every row shape the CLI writes.
_SHAPES = {
    "lambda": ["lambda", "--alpha", "0,0.5,1", "--N", "16,64"],
    "lambda_open_2d": ["lambda", "--alpha", "1.5", "--N", "64", "--D", "2", "--boundary", "open"],
    "bound_analytic": ["bound", "--method", "analytic", "--N", "64,256", "--r", "1,N/4", "--t", "0.01,0.1"],
    "bound_exact_sum": ["bound", "--method", "exact_sum", "--alpha", "0.3", "--N", "1000", "--r-logspace", "4",
                        "--t", "0.1,1", "--t-unit", "inv_lambda"],
    "bound_saturated": ["bound", "--method", "exact_sum", "--N", "16,32", "--r", "1", "--t", "1000"],
    "bound_envelope": ["bound", "--method", "envelope", "--alpha", "0.2,0.8", "--N", "64"],
    "bound_analytic_open": ["bound", "--method", "analytic", "--boundary", "open", "--D", "2", "--N", "64",
                            "--r-logspace", "4", "--t", "0.1"],
    "signaling_analytic": ["signaling", "--method", "analytic", "--N", "64", "--r", "1,N/2", "--kac"],
    "signaling_exact_sum": ["signaling", "--method", "exact_sum", "--N", "128", "--r", "1,N/2"],
    "signaling_many_site": ["signaling", "--method", "many_site", "--N", "64"],
    "signaling_ising": ["signaling", "--method", "ising", "--N", "16", "--delta", "0.5"],
    # --plot-data makes protocol build its trajectory blocks, and alpha changes between them.
    "protocol": ["protocol", "--alpha", "0.3,0.8", "--N", "7,16", "--plot-data", "trajectory.csv"],
    "ising_oracle": ["ising-oracle", "--alpha", "0.5", "--N", "6", "--t", "0,0.1,0.5"],
}


@pytest.mark.parametrize("argv", _SHAPES.values(), ids=_SHAPES)
def test_csv_lines_match_the_per_cell_rule(argv, tmp_path, monkeypatch, capsys):
    """Each table's file, past the config line, is one line per row by the per-cell rule; the trajectory too."""
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "table.csv"]) == 0
    written = {path: (tmp_path / path).read_text().splitlines(keepends=True) for path in ("table.csv", "trajectory.csv")
               if (tmp_path / path).exists()}
    for columns, rows in _tables(argv):
        assert rows and all(isinstance(row, tuple) and len(row) == len(columns) for row in rows)
        lines = written["trajectory.csv"] if columns == _TRAJECTORY else written["table.csv"][1:]
        assert lines == [_reference_line(r) for r in chained([columns], rows)]


@pytest.mark.parametrize("model", ["power_log", "loglog_power", "pure_power"])
def test_csv_fit_lines_match_the_per_cell_rule(tmp_path, model):
    table = tmp_path / "tstar.csv"
    assert main(["signaling", "--method", "analytic", "--alpha", "0.5,0.9", "--N", "1e2,1e3,1e4,1e5",
                 "--out", str(table)]) == 0
    [(columns, rows)] = _tables(["fit", "--model", model, "--input", str(table)])
    assert {type(row[-1]) for row in rows} == {bool}
    assert ("" in rows[0]) == (model != "loglog_power")
    assert list(cli._csv(columns, rows)) == [_reference_line(r) for r in chained([columns], rows)]


def test_csv_numpy_scalars_and_special_floats_match_the_per_cell_rule():
    # np.float64 subclasses float; np.int64, np.bool_ and np.float32 subclass
    # neither bool nor float, so they are written as str() writes them.
    rows = [
        (np.float64(0.1), np.int64(3), np.bool_(True), np.float32(0.1), True, False),
        (math.inf, -math.inf, math.nan, -0.0, 0.0, 1e300),
        (np.float64(math.nan), np.float64(-0.0), np.float64(-math.inf), np.bool_(False), np.float32(-0.0), 5e-324),
        ("%s", "%d", "100%", "", 2**70, 1 / 3),
        (1, 2.5, "", True),
        (),
        (np.float64(0.1), np.int64(-4), np.bool_(False), np.float32(1e30), False, True),
        (0.1, 3, "x", 0.2),
    ]
    columns = ("a", "b", "c", "d", "e", "f")
    assert list(cli._csv(columns, rows)) == [_reference_line(r) for r in chained([columns], rows)]
    assert list(cli._csv(columns, rows))[1] == "0.10000000000000001,3,True,0.1,1,0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--method", "analytic", "--alpha", "0.5", "--N", "64,256", "--r", "1,N/4", "--t", "0.01,0.1"],
        ["lambda", "--alpha", "0,1,2", "--N", "100,1000", "--format", "json"],
    ],
)
def test_stdout_and_out_file_hold_the_same_bytes(tmp_path, capsys, argv):
    code, stdout = _run(capsys, argv)
    assert code == 0
    assert main(argv + ["--out", str(tmp_path / "table")]) == 0
    assert stdout.encode() == (tmp_path / "table").read_bytes()


def test_readme_library_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    fidelity, bound, ratio = map(float, lines[-1].split())
    assert (fidelity, bound, ratio) == pytest.approx((1.0, math.pi / 2, 2 / math.pi), rel=1e-12)


# A config value of the wrong JSON type for each key. Numeric text such
# as {"delta": "0.5"} is not wrong: it parses as the flag text would.
_WRONG_TYPE = {
    "alpha": [[0.5]],
    "N": {"n": 16},
    "r": [True],
    "t": [True],
    "t_unit": 1,
    "delta": True,
    "method": 5,
    "fmt": ["csv"],
    "out": 7,
    "workers": [2],
    "kac": "false",
    "plot_data": 7,
    "D": [2],
    "boundary": False,
    "i": [0],
    "model": 5,
    "input": 7,
    "r_logspace": True,
}
# Values of the right type outside what the key accepts.
_BAD_VALUE = [("t_unit", "bogus"), ("fmt", "xml"), ("kac", 1), ("i", 1.5), ("D", 1.5), ("D", 0), ("r", "N/3")]


def _reader(key):
    """A command (with its method, unless key is method) that reads ``key``."""
    command, method = next(cm for cm, reads in cli.READS.items() if key in reads + cli.RUN_KEYS)
    return [command] + (["--method", method] if method and key != "method" else [])


_BAD = [(key, _WRONG_TYPE[key]) for key in cli._DEFAULTS] + _BAD_VALUE


@pytest.mark.parametrize("key,value", _BAD, ids=[f"{k}={json.dumps(v)}" for k, v in _BAD])
def test_bad_config_value_exit2(tmp_path, capsys, key, value):
    err = _exit2(tmp_path, capsys, _reader(key), {key: value})
    flag = "--format" if key == "fmt" else "--" + key.replace("_", "-")
    assert err.startswith("invalid input:")
    assert flag in err
    assert "Traceback" not in err


# (key, flag tokens, config value) that must resolve to the same
# configuration: every key of _OTHER, an int delta, and numeric text.
_SAME = [(key, *_OTHER[key]) for key in _OTHER] + [
    ("delta", ["--delta", "1"], 1),
    ("delta", ["--delta", "0.5"], "0.5"),
    ("D", ["--D", "2"], "2"),
    ("D", ["--D", "2"], 2.0),
    ("i", ["--i", "3"], 3.0),
    ("N", ["--N", "9,16"], "16,9"),
]


@pytest.mark.parametrize("key,flag,value", _SAME, ids=[f"{k}={json.dumps(v)}" for k, _, v in _SAME])
def test_flag_and_config_write_the_same_bytes(tmp_path, capsys, fit_tables, key, flag, value):
    command, method = next(cm for cm, reads in cli.READS.items() if key in reads)
    argv = _base(command, method, fit_tables) + _CONTEXT.get(key, [])
    if flag[0] in argv:  # the base run's own --N or --t would override the config file
        at = argv.index(flag[0])
        del argv[at : at + 2]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    from_flag, from_config = tmp_path / "flag.csv", tmp_path / "config.csv"
    assert main(argv + flag + ["--out", str(from_flag)]) == 0
    assert main(argv + ["--config", str(cfg), "--out", str(from_config)]) == 0
    assert from_flag.read_bytes() == from_config.read_bytes()


@pytest.mark.parametrize(
    "argv,config",
    [
        (["lambda", "--N", ""], None),
        (["lambda", "--alpha", ","], None),
        (["bound", "--method", "analytic", "--N", "16", "--t", ","], None),
        (["bound", "--method", "analytic", "--N", "16", "--t", "0.1", "--r", ""], None),
        (["lambda"], {"alpha": []}),
        (["ising-oracle", "--N", "4"], {"t": []}),
        (["signaling", "--method", "analytic", "--N", "16"], {"r": ""}),
    ],
    ids=["N-flag", "alpha-flag", "t-flag", "r-flag", "alpha-config", "t-config", "r-config"],
)
def test_empty_grid_exit2(tmp_path, capsys, argv, config):
    err = _exit2(tmp_path, capsys, argv, config)
    assert err.startswith("invalid input: --")
    assert "takes at least one value" in err


@pytest.mark.parametrize(
    "argv",
    [["lambda", "--N", "50", "--D", "2"], ["lambda", "--N", "-4", "--D", "2"], ["protocol", "--N", "50", "--D", "2"]],
)
def test_site_count_that_is_no_power_exit2(tmp_path, capsys, argv):
    n_sites = argv[argv.index("--N") + 1]
    assert _exit2(tmp_path, capsys, argv) == f"invalid input: N = {n_sites} is not a perfect power for D = 2\n"


# An r spelling and the canonical token it names; r = 10**6 needs N >= 2 * 10**6.
_SPELLINGS = [("3.0", "3"), ("1e6", "1000000"), (3.0, "3"), (1e6, "1000000"), (" N/2", "N/2")]


@pytest.mark.parametrize("command", ["bound", "signaling"])
@pytest.mark.parametrize("spelling,canonical", _SPELLINGS, ids=[json.dumps(s) for s, _ in _SPELLINGS])
def test_r_spellings_write_the_same_bytes(tmp_path, command, spelling, canonical):
    argv = [command, "--method", "analytic", "--N", "2000000"] + (["--t", "0.1"] if command == "bound" else [])
    if isinstance(spelling, str):
        given = ["--r", spelling]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": spelling}))
        given = ["--config", str(cfg)]
    spelled, plain = tmp_path / "spelled.csv", tmp_path / "canonical.csv"
    assert main(argv + given + ["--out", str(spelled)]) == 0
    assert main(argv + ["--r", canonical, "--out", str(plain)]) == 0
    assert spelled.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("method", ["analytic", "exact_sum", "many_site"])
def test_delta_window_is_the_same_for_every_prefactor_method(tmp_path, capsys, method):
    argv = ["signaling", "--method", method, "--N", "64"]
    err = _exit2(tmp_path, capsys, argv + ["--delta", "2"])
    assert err == "invalid input: delta must lie in (0, 2.0), got 2.0\n"
    code, out = _run(capsys, argv + ["--delta", "1.9"])
    assert code == 0
    assert float(_rows(out)[0]["t_star"]) > 0


def test_csv_block_of_mixed_value_types_matches_the_per_cell_rule():
    """A block's head mixes int, float and str cells, one holding %; its values are a float64 array."""
    def f(values):
        return np.array(values, dtype=float)

    blocks = [((7, 0.5, "a%b"), f([0.25, 3, 1, 0.5, 1e-300])), ((8, 0.1, 2.0), f([])), ((9, 0.2, 0.0), f([0.5, 0.75]))]
    # One block length under three heads, one of them holding %: its template is reused across heads.
    blocks += [((10, 0.3, 1.0), f([0.1, 2, 0.1])), ((11, "50%", 1.5), f([0.2, 5, 0.2])), ((12, 0.3, 2.0), f([0.3, 7, -0.0]))]
    # Two lengths, interleaved: a template is never reused across lengths.
    blocks += [((13, 0.4, t), f([0.1, 0.2, 0.3][: 2 + t % 2])) for t in range(4)]
    rows = [(*head, k, value) for head, values in blocks for k, value in enumerate(values)]
    expected = [_reference_line(r) for r in chained([_TRAJECTORY], rows)]
    assert "".join(cli._csv(_TRAJECTORY, blocks=blocks)) == "".join(expected)


def _nan_with_payload(payload: int, negative: bool = False) -> float:
    bits = 0x7FF8000000000000 | payload | (1 << 63 if negative else 0)
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


# Float64 blocks whose distinct values are keyed by bits: the signed zeros and the NaN payloads
# stay apart, and every value keeps the bytes of the per-cell rule.
_EDGE_VALUES = {
    "signed_zeros": [0.0, -0.0, 0.0, 1.0, -0.0, -0.0],
    "specials": [math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, _nan_with_payload(1),
                 _nan_with_payload(7, negative=True), math.inf, 5e-324],
    "all_equal": [0.1] * 9,
    "all_distinct": [k / 7 for k in range(1, 12)],
    "empty": [],
    "one": [1 / 3],
}


@pytest.mark.parametrize("values", _EDGE_VALUES.values(), ids=_EDGE_VALUES)
def test_csv_float_block_edge_cases_match_the_per_cell_rule(values):
    blocks = [(head, np.array(values, dtype=float)) for head in [(7, 0.5, 0.25), (8, "50%", 1.5), (9, 0.2, "%s%%d")]]
    rows = [(*head, k, value) for head, probs in blocks for k, value in enumerate(probs.tolist())]
    expected = [_reference_line(r) for r in chained([_TRAJECTORY], rows)]
    assert "".join(cli._csv(_TRAJECTORY, blocks=blocks)) == "".join(expected)


def test_csv_runs_of_blocks_of_one_length_share_one_unique(monkeypatch):
    """Consecutive blocks of one length are keyed together: a value shared across blocks, or a signed zero
    in one block and its opposite in the next, keeps the bytes of the per-cell rule; one np.unique per run."""
    values = [[0.0, 0.5, 1.0], [-0.0, 0.5, 1 / 3], [-0.0, -0.0, 0.0], [0.5, 0.25], [math.nan, 0.5], [],
              [], [1.0, -0.0, 0.5]]
    blocks = [((k, 0.5, "t%d"), np.array(v, dtype=float)) for k, v in enumerate(values)]
    rows = [(*head, k, value) for head, probs in blocks for k, value in enumerate(probs.tolist())]
    expected = "".join(_reference_line(r) for r in chained([_TRAJECTORY], rows))
    unique = np.unique
    calls = []
    monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(a[0].size) or unique(*a, **kw))
    assert "".join(cli._csv(_TRAJECTORY, blocks=blocks)) == expected
    assert calls == [9, 4, 0, 3]


def test_protocol_blocks_are_the_trajectorys_float64_rows():
    cfg = cli._merge_config(cli._build_parser().parse_args(["protocol", "--N", "7", "--plot-data", "x.csv"]))
    _, blocks = cli._protocol_task(dict(cfg, alpha=0.5, N=7))
    assert len(blocks) == 101
    assert all(isinstance(p, np.ndarray) and p.dtype == np.float64 and p.shape == (7,) for _, p in blocks)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS limits the address space on Linux")
def test_out_of_memory_exits_3_with_one_line():
    """An allocation past the child's own address-space limit is one stderr line and exit 3, not a traceback."""
    child = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000)); "
             "from lr_horizon.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]), OPENBLAS_NUM_THREADS="1")
    argv = ["signaling", "--N", "1e9", "--alpha", "0.5", "--r", "1"]
    done = subprocess.run([sys.executable, "-c", child, *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith("out of memory: signaling: Unable to allocate 7.45 GiB")
    assert done.stderr.count("\n") == 1


# Flag text per key: values its parser takes, then values it rejects. A value
# that parses may still be invalid input for the run it is given to (N = 8 on a
# 2D lattice, r past the largest distance, an Ising oracle past its cap).
# --workers stays at 1, so no set starts a process pool.
_ARG_VALUES = {
    "alpha": (["0", "0.5", "1.3", "0.2,0.9", "4"], ["-1", "nan", "inf", "x", ",", "1e400"]),
    "N": (["4", "9", "16", "27", "64", "8,16"], ["0", "-4", "3.5", "x", "nan", "1e400"]),
    "r": (["1", "2", "N/2", "N/4", "1,3"], ["-1", "1.5", "x", "200"]),
    "t": (["0", "0.1", "0.05,1"], ["-1", "nan", "inf", "x"]),
    "t_unit": (["abs", "inv_lambda"], ["sec"]),
    "delta": (["0.5", "1", "1.5"], ["0", "2", "-1", "nan"]),
    "fmt": (["csv", "json"], ["xml"]),
    "workers": (["1"], ["0", "-2", "1.5", "x"]),
    "D": (["1", "2", "3"], ["0", "1.5", "x"]),
    "boundary": (["periodic", "open"], ["closed"]),
    "i": (["0", "1", "3"], ["-1", "100", "0.5"]),
    "model": (list(cli.MODELS), ["cubic"]),
    "r_logspace": (["3", "5"], ["0", "2.5"]),
}


def _seeded_argv(rng, paths):
    """One argument set: a command and method, some of the keys they read, valid or not, as flags or in a config file."""
    command = rng.choice(sorted(cli.COLUMNS))
    methods = [m for c, m in cli.READS if c == command and m is not None]
    method = rng.choice(methods) if methods else None
    keys = [k for k in cli.READS[command, method] + cli.RUN_KEYS if k != "method"]
    if rng.random() < 0.1:  # a key the command does not read
        keys.append(rng.choice(sorted(cli._KEYS)))
    values = {"method": method if rng.random() < 0.9 else "nope"} if methods else {}
    for key in keys:
        if rng.random() < 0.5:
            continue
        valid = rng.random() < 0.85
        if key in ("out", "plot_data"):
            values[key] = paths[key] if valid else paths["dir"]
        elif key == "input":
            values[key] = paths["table"] if valid else rng.choice([paths["missing"], paths["dir"]])
        elif key == "kac":
            values[key] = True if valid else "false"
        else:
            values[key] = rng.choice(_ARG_VALUES[key][not valid])
    argv = [command]
    if rng.random() < 0.2:
        config = {k: values.pop(k) for k in list(values) if rng.random() < 0.5}
        Path(paths["config"]).write_text(json.dumps(rng.choice([config, config, [config], {**config, "nope": 1}])))
        argv += ["--config", paths["config"] if rng.random() < 0.9 else paths["missing"]]
    for key, value in values.items():
        argv += ["--kac"] if key == "kac" and value is True else [cli._flag(key), str(value)]
    return argv


def test_seeded_argument_sets_exit_0_or_2(tmp_path, capsys, monkeypatch):
    """300 seeded argument sets over every command and key exit 0 or 2, with no traceback and no warning."""
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    paths = {key: str(tmp_path / f"{key}.csv") for key in ("out", "plot_data", "table", "missing", "config")}
    paths["dir"] = str(tmp_path)
    Path(paths["table"]).write_text("N,alpha,r_spec,t_star\n" + "".join(f"{n},0.5,1,{n**0.3 * math.log(n)}\n" for n in (16, 64, 256, 1024)))
    rng = random.Random(20261021)
    codes = {}
    for _ in range(300):
        argv = _seeded_argv(rng, paths)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own rejections
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 2) and "Traceback" not in err, (argv, err)
        codes.setdefault(argv[0], []).append(code)
    assert set(codes) == set(cli.COLUMNS)
    assert all(0 in c and 2 in c for c in codes.values()), codes
