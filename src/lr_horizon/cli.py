"""Command-line surface: parameter sweeps, tables, and fits.

Subcommands map the library onto reproducible tables:

* ``lambda``       -- self-hop strength and its closed-form ceiling.
* ``bound``        -- commutator bounds on (N, alpha, r, t) grids.
* ``signaling``    -- signaling/scrambling time lower bounds.
* ``fit``          -- scaling-law fits over a previously written table.
* ``protocol``     -- the two-stage transfer run and its saturation ratio.
* ``ising-oracle`` -- dense Ising oracle vs the closed form.

Output is CSV (default) or JSON. CSV starts with one comment line
recording the tool version, a hash of the resolved configuration, and
the method tag, so identical configurations yield byte-identical files.
Floats are written with 17 significant digits. Each command accepts
only the flags and config keys it reads (``READS``, plus ``RUN_KEYS``).
Exit codes: 0 success, 2 invalid input, 3 solver failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .analysis import fit_model
from .bounds import analytic_bound, exact_sum_bound, free_particle_envelope
from .dynamics import ising_exact_oracle, state_transfer_protocol, trajectory
from .kernels import fourier_spectrum, lambda_upper_bound, self_hop_lambda
from .lattice import CouplingModel, LatticeSpec
from .signaling import (
    SignalingSpec,
    exact_sum_signaling_time,
    ising_signal,
    ising_signaling_time,
    many_site_signaling_time,
    signaling_time_analytic,
)

WORKERS_ENV = "LR_HORIZON_WORKERS"

COLUMNS = {
    "lambda": ("D", "alpha", "N", "lambda", "lambda_upper_bound"),
    "bound": ("method", "N", "alpha", "r", "t", "value"),
    "signaling": ("method", "N", "alpha", "r_spec", "r_or_sizeY", "delta", "t_star"),
    "fit": (
        "alpha",
        "r_spec",
        "model",
        "a",
        "b",
        "c",
        "se_a",
        "se_b",
        "se_c",
        "ci95_a",
        "ci95_b",
        "ci95_c",
        "residual_rms",
        "n_points",
        "condition_warning",
    ),
    "protocol": ("N", "alpha", "D", "T", "fidelity", "amplitude", "bound", "ratio"),
    "ising-oracle": ("N", "alpha", "i", "t", "oracle", "closed_form", "abs_error"),
}


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _finite(flag: str, values: list) -> list:
    """Return ``values`` unchanged; a nan or inf among them is invalid input for ``--flag``."""
    for v in values:
        if not math.isfinite(float(v)):
            raise ValueError(f"--{flag} must be finite, got {v}")
    return values


def _resolve_r(token: str, spec: LatticeSpec) -> int:
    """Resolve a ``--r`` token; an r beyond the lattice's largest distance is invalid."""
    n_sites = spec.site_count
    tok = token.strip()
    if tok == "N/2":
        r = n_sites // 2
    elif tok == "N/4":
        r = max(1, n_sites // 4)
    else:
        r = int(float(tok))
    reach = spec.linear_size // 2 if spec.boundary == "periodic" else spec.linear_size - 1
    largest = math.sqrt(spec.dimension) * reach
    if r > largest:
        raise ValueError(f"r = {r} exceeds the largest distance {largest:.6g} on this lattice")
    return r


def _lattice(n_sites: int, dimension: int, boundary: str) -> LatticeSpec:
    if dimension == 1:
        side = n_sites
    else:
        side = round(n_sites ** (1.0 / dimension))
        if side**dimension != n_sites:
            raise ValueError(f"N = {n_sites} is not a perfect power for D = {dimension}")
    return LatticeSpec(dimension=dimension, linear_size=side, boundary=boundary)


def _config_hash(params: dict) -> str:
    blob = json.dumps(params, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# row builders (module level so worker processes can pickle the tasks)


def _lambda_task(task: dict) -> list[tuple]:
    spec = _lattice(task["N"], task["D"], task["boundary"])
    model = CouplingModel(alpha=task["alpha"])
    params = self_hop_lambda(spec, model)
    ub = lambda_upper_bound(task["D"], task["alpha"], spec.linear_size)
    return [(task["D"], task["alpha"], task["N"], params.lam, ub)]


def _bound_task(task: dict) -> list[tuple]:
    alpha, n = task["alpha"], task["N"]
    method = task["method"]
    if method == "exact_sum" and task["D"] != 1:
        raise ValueError("the exact series bound is defined on 1D rings only")
    if task["boundary"] != "periodic":
        raise ValueError(f"bound --method {method} is defined on periodic lattices only")
    spec = _lattice(n, task["D"], "periodic")
    if method == "envelope":
        value = free_particle_envelope(spec, CouplingModel(alpha=alpha))
        return [(method, n, alpha, "", "", value)]
    if task["r"] is not None and task["r_logspace"] is not None:
        raise ValueError("bound takes --r or --r-logspace, not both")
    if task["r_logspace"]:
        ks = np.unique(np.round(np.logspace(0, math.log10(max(n // 2, 1)), task["r_logspace"])))
        r_tokens = [str(int(k)) for k in ks]
    else:
        r_tokens = task["r"] or ["1"]
    if method == "exact_sum":
        spectrum = fourier_spectrum(n, alpha)
        lam = spectrum.lam
    else:
        params = self_hop_lambda(spec, CouplingModel(alpha=alpha))
        lam = params.lam
    rows = []
    for r_tok in r_tokens:
        r = _resolve_r(r_tok, spec)
        for t in task["t"] or [0.0]:
            t_abs = t / lam if task["t_unit"] == "inv_lambda" else t
            if method == "exact_sum":
                value = exact_sum_bound(n, alpha, r, t_abs, spectrum=spectrum).value
            else:
                value = analytic_bound(params, r=float(r), t=t_abs).value
            rows.append((method, n, alpha, r, t_abs, value))
    return rows


def _signaling_task(task: dict) -> list[tuple]:
    alpha, n, delta = task["alpha"], task["N"], task["delta"]
    method = task["method"]
    kac = task["kac"]
    model = CouplingModel(alpha=alpha, kac_normalize=kac)
    spec = _lattice(n, task["D"], task["boundary"])
    if method == "ising":
        t = ising_signaling_time(spec, model, task["i"], delta)
        return [(method, n, alpha, "", n - 1, delta, t)]
    if method == "many_site":
        res = many_site_signaling_time(spec, model, [0], list(range(1, n)), delta)
        return [(method, n, alpha, "", n - 1, delta, res.t_star)]
    rows = []
    r_tokens = task["r"] or ["1"]
    if method == "analytic":
        params = self_hop_lambda(spec, model)
        sig = SignalingSpec(delta=delta, kac_rescale=kac)
        for r_tok in r_tokens:
            r = _resolve_r(r_tok, spec)
            res = signaling_time_analytic(params, sig, float(r))
            rows.append((method, n, alpha, r_tok, r, delta, res.t_star))
        return rows
    # exact_sum: one spectrum shared across the r sweep
    if task["D"] != 1 or task["boundary"] != "periodic":
        raise ValueError("the exact series bound is defined on 1D rings only")
    spectrum = fourier_spectrum(n, alpha)
    for r_tok in r_tokens:
        r = _resolve_r(r_tok, spec)
        res = exact_sum_signaling_time(n, alpha, r, delta, spectrum=spectrum, kac_rescale=kac)
        rows.append((method, n, alpha, r_tok, r, delta, res.t_star))
    return rows


SWEEPS = {"lambda": _lambda_task, "bound": _bound_task, "signaling": _signaling_task}


# ---------------------------------------------------------------------------
# commands


def _sweep(cfg: dict) -> list[tuple]:
    """One task per (alpha, N) in grid order, so rows do not depend on the worker count."""
    task_fn = SWEEPS[cfg["command"]]
    tasks = [dict(cfg, alpha=a, N=n) for a in cfg["alpha"] for n in cfg["N"]]
    if cfg["workers"] <= 1 or len(tasks) <= 1:
        results = [task_fn(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=cfg["workers"]) as pool:
            results = list(pool.map(task_fn, tasks))
    return [row for chunk in results for row in chunk]


def _read_table(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"no rows in {path}")
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _cmd_fit(cfg: dict) -> list[tuple]:
    if not cfg["input"]:
        raise ValueError("fit requires --input pointing at a table written by this tool")
    records = _read_table(cfg["input"])
    value_col = next(
        (c for c in ("t_star", "value", "lambda", "T", "t") if records and c in records[0]), None
    )
    if value_col is None:
        raise ValueError("input table has no fittable column (t_star/value/lambda/T/t)")
    groups: dict[tuple, list[tuple[float, float]]] = {}
    for rec in records:
        key = (rec.get("alpha", ""), rec.get("r_spec", ""))
        groups.setdefault(key, []).append((float(rec["N"]), float(rec[value_col])))
    rows = []
    for (alpha, r_spec), pts in sorted(groups.items()):
        fit = fit_model(cfg["model"], pts)
        coef = list(fit.coefficients) + [""] * (3 - len(fit.coefficients))
        se = list(fit.standard_errors) + [""] * (3 - len(fit.standard_errors))
        ci = list(fit.ci95) + [""] * (3 - len(fit.ci95))
        rows.append(
            (
                alpha,
                r_spec,
                fit.model,
                *coef,
                *se,
                *ci,
                fit.residual_rms,
                fit.n_points,
                fit.condition_warning,
            )
        )
    return rows


def _cmd_protocol(cfg: dict) -> tuple[list[tuple], list[tuple]]:
    rows, trace_rows = [], []
    for a in cfg["alpha"]:
        for n in cfg["N"]:
            res = state_transfer_protocol(n, a, cfg["D"])
            rows.append(
                (n, a, cfg["D"], res.total_time, res.fidelity, res.amplitude, res.bound, res.ratio)
            )
            if cfg["plot_data"]:
                psi0 = np.zeros(n, dtype=complex)
                psi0[res.source] = 1.0
                times = np.linspace(0.0, res.total_time, 101)
                for t, probs in trajectory(res.hamiltonian, psi0, times):
                    for site, prob in enumerate(probs):
                        trace_rows.append((n, a, t, site, float(prob)))
    return rows, trace_rows


def _cmd_ising_oracle(cfg: dict) -> list[tuple]:
    rows = []
    for a in cfg["alpha"]:
        for n in cfg["N"]:
            spec = _lattice(n, cfg["D"], cfg["boundary"])
            model = CouplingModel(alpha=a)
            for t in cfg["t"] or [0.0]:
                exact = ising_exact_oracle(spec, model, cfg["i"], t)
                closed = ising_signal(spec, model, cfg["i"], t)
                rows.append((n, a, cfg["i"], t, exact, closed, abs(exact - closed)))
    return rows


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lr-horizon",
        description="Bounds, signaling times, and scaling fits for strongly long-range lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("lambda", "bound", "signaling", "fit", "protocol", "ising-oracle"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON file of defaults; flags override")
        p.add_argument("--alpha", help="comma-separated coupling exponents")
        p.add_argument("--N", help="comma-separated site counts (1e6 accepted)")
        p.add_argument("--r", help="comma-separated separations; tokens N/2 and N/4 allowed")
        p.add_argument("--t", help="comma-separated times")
        p.add_argument("--t-unit", choices=("abs", "inv_lambda"), dest="t_unit")
        p.add_argument("--delta", type=float, help="signaling threshold")
        p.add_argument("--method", help="evaluation method for bound/signaling")
        p.add_argument("--format", choices=("csv", "json"), dest="fmt")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--workers", type=int, help=f"parallel workers (default ${WORKERS_ENV} or 1)")
        p.add_argument("--kac", action="store_true", default=None, help="rescale times by lambda")
        p.add_argument("--plot-data", dest="plot_data", help="also write a tidy comment-free CSV here")
        p.add_argument("--D", type=int, help="lattice dimension (default 1)")
        p.add_argument("--boundary", choices=("periodic", "open"))
        p.add_argument("--i", type=int, help="probe site for the Ising protocol")
        p.add_argument("--model", help="fit model: power_log, loglog_power, pure_power")
        p.add_argument("--input", help="table to fit (fit command)")
        p.add_argument("--r-logspace", type=int, dest="r_logspace", help="log-spaced r count in [1, N/2]")
    return parser


_DEFAULTS = {
    "alpha": [0.5],
    "N": [100],
    "r": None,
    "t": None,
    "t_unit": "abs",
    "delta": 1.0,
    "method": "exact_sum",
    "fmt": "csv",
    "out": None,
    "workers": None,
    "kac": False,
    "plot_data": None,
    "D": 1,
    "boundary": "periodic",
    "i": 0,
    "model": "power_log",
    "input": None,
    "r_logspace": None,
}

# The config keys each command reads, per method where it has methods.
# Every other key given as a flag or in a config file exits 2, so no
# value is dropped without a word. bound reads boundary, and the
# exact_sum methods read D, only to reject lattices they are not
# defined on with a message that says so.
_LATTICE = ("alpha", "N", "D", "boundary")
_SERIES = _LATTICE + ("method", "r", "r_logspace", "t", "t_unit")
_SIGNAL = _LATTICE + ("method", "delta", "kac")
READS = {
    ("lambda", None): _LATTICE,
    ("bound", "analytic"): _SERIES,
    ("bound", "exact_sum"): _SERIES,
    ("bound", "envelope"): _LATTICE + ("method",),
    ("signaling", "analytic"): _SIGNAL + ("r",),
    ("signaling", "exact_sum"): _SIGNAL + ("r",),
    ("signaling", "many_site"): _SIGNAL,
    ("signaling", "ising"): _SIGNAL + ("i",),
    ("fit", None): ("model", "input"),
    ("protocol", None): ("alpha", "N", "D"),
    ("ising-oracle", None): _LATTICE + ("t", "i"),
}
# Output and execution keys every command accepts; --workers is used
# only by the commands in SWEEPS.
RUN_KEYS = ("fmt", "out", "workers", "plot_data")


def _merge_config(args: argparse.Namespace) -> dict:
    file_cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
    if not isinstance(file_cfg, dict):
        raise ValueError(f"config file {args.config} must hold a JSON object")
    unknown = sorted(set(file_cfg) - set(_DEFAULTS))
    if unknown:
        raise ValueError(
            f"unknown config key(s) {', '.join(unknown)}; valid keys: {', '.join(_DEFAULTS)}"
        )
    cfg = dict(_DEFAULTS)
    cfg.update(file_cfg)
    given = set(file_cfg)
    for key in _DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
            given.add(key)
    command = args.command
    methods = [m for c, m in READS if c == command and m is not None]
    method = cfg["method"] if methods else None
    if methods and method not in methods:
        raise ValueError(f"{command} --method must be one of {', '.join(methods)}, got {method!r}")
    dropped = [k for k in _DEFAULTS if k in given and k not in READS[command, method] + RUN_KEYS]
    if dropped:
        where = f"{command} --method {method}" if method else command
        flags = ", ".join("--" + k.replace("_", "-") for k in dropped)
        raise ValueError(f"{where} does not use {flags}")
    # Grids arrive as comma strings (flags or config), lists, or bare
    # config numbers, which are one-element grids.
    for key in ("alpha", "N", "r", "t"):
        if isinstance(cfg[key], str):
            cfg[key] = [tok for tok in cfg[key].split(",") if tok]
        elif isinstance(cfg[key], (int, float)):
            cfg[key] = [cfg[key]]
    cfg["alpha"] = [float(a) for a in _finite("alpha", cfg["alpha"])]
    cfg["N"] = sorted(int(float(n)) for n in _finite("N", cfg["N"]))
    if cfg["t"] is not None:
        cfg["t"] = [float(t) for t in _finite("t", cfg["t"])]
    _finite("delta", [cfg["delta"]])
    if cfg["r"] is not None:
        cfg["r"] = [str(tok) for tok in cfg["r"]]
    if cfg["workers"] is None:
        cfg["workers"] = int(os.environ.get(WORKERS_ENV, "1"))
    cfg["command"] = command
    return cfg


def _write_output(cfg: dict, columns: tuple, rows: list[tuple], trace_rows=None) -> None:
    tag = cfg.get("method", cfg["command"]) if cfg["command"] in ("bound", "signaling") else cfg["command"]
    hashable = {k: v for k, v in cfg.items() if k not in ("out", "workers", "plot_data")}
    header = f"# lr-horizon v{__version__} config={_config_hash(hashable)} method={tag}"
    lines = [header, ",".join(columns)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    if cfg["fmt"] == "json":
        records = [dict(zip(columns, row)) for row in rows]
        text = json.dumps(records, indent=2, default=str) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if cfg["plot_data"]:
        if cfg["command"] == "protocol":
            plot_cols = ("N", "alpha", "time", "site", "prob")
            plot_rows = trace_rows or []
        else:
            plot_cols, plot_rows = columns, rows
        plot_lines = [",".join(plot_cols)]
        plot_lines.extend(",".join(_fmt(x) for x in row) for row in plot_rows)
        with open(cfg["plot_data"], "w", encoding="utf-8") as fh:
            fh.write("\n".join(plot_lines) + "\n")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        command = cfg["command"]
        trace_rows = None
        if command in SWEEPS:
            rows = _sweep(cfg)
        elif command == "fit":
            rows = _cmd_fit(cfg)
        elif command == "protocol":
            rows, trace_rows = _cmd_protocol(cfg)
        else:
            rows = _cmd_ising_oracle(cfg)
        _write_output(cfg, COLUMNS[command], rows, trace_rows)
    except RuntimeError as exc:  # NoCrossingError and numerical failures
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
