import json
import math

import pytest

from lr_horizon import NoCrossingError
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
