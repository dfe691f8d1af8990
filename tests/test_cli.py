import json
import math
import shlex
from pathlib import Path

import pytest

import lr_horizon.cli as cli
from lr_horizon import CouplingModel, NoCrossingError, chain, ring, site_hop_strength
from lr_horizon.cli import main


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
    code, _ = _run(capsys, ["bound", "--method", "exact_sum", "--alpha", "0.5", "--N", "16", "--D", "2"])
    assert code == 2


@pytest.mark.parametrize(
    "command,method",
    [("bound", "analytic"), ("bound", "envelope"), ("bound", "exact_sum"), ("signaling", "exact_sum")],
)
def test_open_boundary_rejected_where_ignored_exit2(capsys, command, method):
    code = main([command, "--method", method, "--boundary", "open", "--alpha", "0.5", "--N", "16", "--t", "0.1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("invalid input:")


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


def test_signaling_solver_failure_exit3(capsys, monkeypatch):
    import lr_horizon.cli as cli

    for exc in (NoCrossingError("threshold unreachable"), RuntimeError("inverse transform returned -1e-3")):

        def boom(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "exact_sum_signaling_time", boom)
        code = main(["signaling", "--method", "exact_sum", "--alpha", "0.5", "--N", "16", "--r", "1"])
        assert code == 3
        assert capsys.readouterr().err == f"solver failure: {exc}\n"


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
    assert err == "invalid input: alpha must be >= 0, got -2.0\n"


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
