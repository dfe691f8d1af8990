"""Command-line surface: parameter sweeps, tables, and fits.

Commands map the library onto reproducible tables:

* ``lambda``       -- self-hop strength and its closed-form ceiling.
* ``bound``        -- commutator bounds on (N, alpha, r, t) grids.
* ``signaling``    -- signaling/scrambling time lower bounds.
* ``fit``          -- scaling-law fits over a previously written table.
* ``protocol``     -- the two-stage transfer run and its saturation ratio.
* ``ising-oracle`` -- dense Ising oracle vs the closed form.

Output is CSV (default) or JSON. CSV starts with one comment line
recording the tool version, a hash of the keys the command reads (for
``fit``, of its input table's bytes, not its path), and the method tag.
Floats are written with 17 significant digits (``_format``). Every
command but ``fit`` runs one task per (alpha, N) (``SWEEPS``), on
``--workers`` processes; each task builds its lattice by one rule
(``_lattice``: the exact series is defined on 1D rings only). The
``protocol`` trajectory is written by block, one (N, alpha, time) head
per sampled time (``_csv``). One argparse parser, built once per
process, takes the command and every flag; each command then accepts
only the flags and config keys it reads (``READS``, plus ``RUN_KEYS``),
and a flag's text and a config file's value share one parser (``_KEYS``).
Exit codes: 0 success, 2 invalid input, 3 solver failure or out of memory.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import sys
from functools import cache, partial
from itertools import chain, groupby

import numpy as np

from . import __version__
from .analysis import MODELS, fit_model
from .bounds import analytic_bound, exact_sum_bound, free_particle_envelope
from .dynamics import ising_exact_oracle, state_transfer_protocol, trajectory
from .kernels import fourier_spectrum, lambda_upper_bound, row_sums, self_hop_lambda
from .lattice import CouplingModel, LatticeSpec
from .signaling import (
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


def _format(shape) -> str:
    """The %-format of a row shape (its cell types): bools as 0/1, floats to 17 digits, else str()."""
    return ",".join("%d" if issubclass(c, bool) else "%.17g" if issubclass(c, float) else "%s" for c in shape)


def _csv(columns: tuple, rows=(), blocks=()):
    """The table's lines, a row or a block at a time, so no table is held as one string.

    Each row shape is formatted by one %-string from ``_format``. A block ``(head, probs)``
    holds the rows ``(*head, k, probs[k])`` of a 1-D float64 array. Over each run of
    consecutive blocks of one length (a trajectory), each distinct bit pattern (so 0.0 and
    -0.0 stay apart) is found by one ``np.unique`` and formatted once to 17 digits, and the
    lines are filled from one template per block length, its ``,k,%s`` slots joined on the
    %-escaped head.
    """
    formats, templates = {}, {}
    for row in chain([columns], rows):
        shape = tuple(map(type, row))
        if shape not in formats:
            formats[shape] = _format(shape) + "\n"
        yield formats[shape] % tuple(row)
    for size, run in groupby(blocks, key=lambda block: block[1].size):
        heads, probs = zip(*run)
        if size not in templates:
            templates[size] = ("", *(f",{k},%s\n" for k in range(size)))
        bits, inverse = np.unique(np.concatenate(probs).view(np.int64), return_inverse=True)
        cells = ("%.17g\n" * bits.size % tuple(bits.view(np.float64).tolist())).split("\n")
        for k, head in enumerate(heads):
            head_text = (_format(map(type, head)) % head).replace("%", "%%")
            yield head_text.join(templates[size]) % tuple(map(cells.__getitem__, inverse[k * size : (k + 1) * size].tolist()))


def _number(flag: str, value) -> float:
    """A finite float from a JSON number or numeric text; bool, list and dict are invalid."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"{flag} takes numbers, got {value!r}")
    try:
        x = float(value)
    except (ValueError, OverflowError):
        raise ValueError(f"{flag} takes numbers, got {value!r}") from None
    if not math.isfinite(x):
        raise ValueError(f"{flag} must be finite, got {value}")
    return x


def _integer(flag: str, value, least: int | None = None) -> int:
    """``value`` as an int, at least ``least`` if given: ``1e6`` is one, ``100.7`` is invalid."""
    x = _number(flag, value)
    if not x.is_integer():
        raise ValueError(f"{flag} takes integers, got {value}")
    if least is not None and x < least:
        raise ValueError(f"{flag} must be at least {least}, got {value}")
    return int(x)


_count = partial(_integer, least=1)


def _grid(item):
    """A parser for comma text, a flat list, or a bare scalar (a one-element grid) of ``item``s."""
    def parse(flag: str, value) -> list:
        if isinstance(value, str):
            value = [tok for tok in value.split(",") if tok]
        elif not isinstance(value, list):
            value = [value]
        if not value:
            raise ValueError(f"{flag} takes at least one value, got an empty grid")
        return [item(flag, v) for v in value]

    return parse


def _token(flag: str, value) -> str:
    """An r token as canonical text, "N/2", "N/4" or an integer's digits: one spelling, one hash."""
    if isinstance(value, str) and value.strip() in ("N/2", "N/4"):
        return value.strip()
    return str(_integer(flag, value))


def _choice(*choices):
    """A parser for one of ``choices``, type-exact: the text "false" is not the switch False."""
    def parse(flag: str, value):
        if not any(type(value) is type(c) and value == c for c in choices):
            raise ValueError(f"{flag} must be one of {', '.join(map(str, choices))}, got {value!r}")
        return value

    return parse


def _string(flag: str, value) -> str:
    """A path or a name; ``method`` and ``model`` are checked where they are used."""
    if not isinstance(value, str):
        raise ValueError(f"{flag} takes a string, got {value!r}")
    return value


def _resolve_r(token: str, spec: LatticeSpec) -> int:
    """Resolve a canonical ``_token``; an r beyond the lattice's largest distance is invalid."""
    if token == "N/2":
        r = spec.site_count // 2
    elif token == "N/4":
        r = max(1, spec.site_count // 4)
    else:
        r = int(token)
    if r > spec.largest_distance:
        raise ValueError(f"r = {r} exceeds the largest distance {spec.largest_distance:.6g} on this lattice")
    return r


# ---------------------------------------------------------------------------
# tasks: each maps one (alpha, N) to its rows and its trajectory blocks
# (module level so worker processes can pickle them)


def _lattice(task: dict) -> LatticeSpec:
    """The task's lattice, by the one rule of which lattices a method takes: the exact series needs a 1D ring."""
    if task.get("method") == "exact_sum" and (task["D"] != 1 or task["boundary"] != "periodic"):
        raise ValueError("the exact series bound is defined on 1D rings only")
    return LatticeSpec.from_sites(task["N"], task["D"], task["boundary"])


def _lambda_task(task: dict) -> tuple[list[tuple], list]:
    spec = _lattice(task)
    params = self_hop_lambda(spec, CouplingModel(alpha=task["alpha"]))
    ub = lambda_upper_bound(task["D"], task["alpha"], spec.linear_size)
    return [(task["D"], task["alpha"], task["N"], params.lam, ub)], []


def _bound_task(task: dict) -> tuple[list[tuple], list]:
    alpha, n, method = task["alpha"], task["N"], task["method"]
    spec = _lattice(task)
    if method == "envelope":
        return [(method, n, alpha, "", "", free_particle_envelope(spec, CouplingModel(alpha=alpha)))], []
    if task["r"] is not None and task["r_logspace"] is not None:
        raise ValueError("bound takes --r or --r-logspace, not both")
    if task["r_logspace"] is not None:
        top = int(spec.largest_distance)  # N // 2 on a ring
        ks = np.round(np.logspace(0, math.log10(top), task["r_logspace"]))  # sorted, so fromkeys keeps order
        r_tokens = [str(k) for k in dict.fromkeys(map(int, ks))]
    else:
        r_tokens = task["r"] or ["1"]
    if method == "exact_sum":
        spectrum = fourier_spectrum(n, alpha)
        lam, bound = spectrum.lam, partial(exact_sum_bound, n, alpha, spectrum=spectrum)
    else:
        params = self_hop_lambda(spec, CouplingModel(alpha=alpha))
        lam, bound = params.lam, lambda r, t: analytic_bound(params, float(r), t)
    times = [t / lam if task["t_unit"] == "inv_lambda" else t for t in task["t"] or [0.0]]
    rs = [_resolve_r(r_tok, spec) for r_tok in r_tokens]
    if method == "exact_sum":
        spectrum.declare_grid(rs, times)  # the whole grid in one pass over the spectrum, for bound to read
    return [(method, n, alpha, r, t, bound(r, t).value) for r in rs for t in times], []


def _signaling_task(task: dict) -> tuple[list[tuple], list]:
    alpha, n, delta = task["alpha"], task["N"], task["delta"]
    method = task["method"]
    model = CouplingModel(alpha=alpha)
    spec = _lattice(task)
    lam = None  # lambda, where the solve already holds it (many_site holds its own inside)
    if method == "ising":
        times = [("", n - 1, ising_signaling_time(spec, model, task["i"], delta))]
    elif method == "many_site":
        res = many_site_signaling_time(spec, model, [0], list(range(1, n)), delta)
        times = [("", n - 1, res.t_star)]
    else:
        rs = [(tok, _resolve_r(tok, spec)) for tok in task["r"] or ["1"]]
        if method == "analytic":
            params = self_hop_lambda(spec, model)
            lam = params.lam
            times = [(k, r, signaling_time_analytic(params, float(r), delta).t_star) for k, r in rs]
        else:  # exact_sum: one spectrum shared across the r sweep
            spectrum = fourier_spectrum(n, alpha)
            lam = spectrum.lam
            res = [exact_sum_signaling_time(n, alpha, r, delta, spectrum=spectrum) for _, r in rs]
            times = [(k, r, x.t_star) for (k, r), x in zip(rs, res)]
    # Kac rescaling, in one place: lambda * t is the time under the coupling J / lambda.
    if task["kac"] and lam is None:
        lam = float(row_sums(spec, alpha).max())  # lambda alone: no p, which overflows past alpha = 1022
    scale = lam if task["kac"] else 1.0
    return [(method, n, alpha, r_spec, r, delta, scale * t) for r_spec, r, t in times], []


def _ising_oracle_task(task: dict) -> tuple[list[tuple], list]:
    spec = _lattice(task)
    model = CouplingModel(alpha=task["alpha"])
    rows = []
    for t in task["t"] or [0.0]:
        exact = ising_exact_oracle(spec, model, task["i"], t)
        closed = ising_signal(spec, model, task["i"], t)
        rows.append((task["N"], task["alpha"], task["i"], t, exact, closed, abs(exact - closed)))
    return rows, []


def _protocol_task(task: dict) -> tuple[list[tuple], list[tuple]]:
    """The protocol row and, with --plot-data, one block ``((N, alpha, t), probs)`` per time, probs a float64 row."""
    n, a = task["N"], task["alpha"]
    res = state_transfer_protocol(n, a, task["D"])
    blocks = []
    if task["plot_data"]:
        psi0 = np.zeros(n, dtype=complex)
        psi0[res.source] = 1.0
        times = np.linspace(0.0, res.total_time, 101)
        blocks = [((n, a, t), probs) for t, probs in trajectory(res.hamiltonian, psi0, times)]
    return [(n, a, task["D"], res.total_time, res.fidelity, res.amplitude, res.bound, res.ratio)], blocks


SWEEPS = {"lambda": _lambda_task, "bound": _bound_task, "signaling": _signaling_task,
          "protocol": _protocol_task, "ising-oracle": _ising_oracle_task}


# ---------------------------------------------------------------------------
# commands


def _sweep(cfg: dict) -> tuple[list[tuple], list[tuple]]:
    """The rows and blocks of one task per (alpha, N) in grid order, so neither depends on the worker count."""
    task_fn = SWEEPS[cfg["command"]]
    tasks = [dict(cfg, alpha=a, N=n) for a in cfg["alpha"] for n in cfg["N"]]
    if cfg["workers"] <= 1 or len(tasks) <= 1:
        results = [task_fn(t) for t in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(cfg["workers"], len(tasks))) as pool:
            results = list(pool.map(task_fn, tasks))
    return [row for rows, _ in results for row in rows], [block for _, blocks in results for block in blocks]


def _read_table(path: str) -> list[dict]:
    """The data rows of a CSV table as dicts; every row must have the header's cell count."""
    with open(path, encoding="utf-8") as fh:
        numbered = [(k, ln.rstrip("\n")) for k, ln in enumerate(fh, 1)]
    lines = [(k, ln.split(",")) for k, ln in numbered if ln.strip() and not ln.startswith("#")]
    if len(lines) < 2:
        raise ValueError(f"no rows in {path}")
    (_, header), *body = lines
    for k, cells in body:
        if len(cells) != len(header):
            raise ValueError(f"line {k} of {path} has {len(cells)} cells, its header {len(header)}")
    return [dict(zip(header, cells)) for _, cells in body]


def _cmd_fit(cfg: dict) -> list[tuple]:
    if not cfg["input"]:
        raise ValueError("fit requires --input pointing at a table written by this tool")
    records = _read_table(cfg["input"])
    value_col = next((c for c in ("t_star", "value", "lambda", "T") if c in records[0]), None)
    if value_col is None:
        raise ValueError("input table has no fittable column (t_star/value/lambda/T)")
    if "N" not in records[0]:
        raise ValueError("input table has no N column")
    groups: dict[tuple, list[tuple[float, float]]] = {}
    for rec in records:
        key = (rec.get("alpha", ""), rec.get("r_spec", ""))
        groups.setdefault(key, []).append((float(rec["N"]), float(rec[value_col])))
    rows = []
    for (alpha, r_spec), pts in sorted(groups.items()):
        ns = sorted(n for n, _ in pts)
        repeated = [n for n, m in zip(ns, ns[1:]) if n == m]  # rows that differ in another column: more than one curve
        if repeated:
            raise ValueError(f"fit group alpha={alpha!r}, r_spec={r_spec!r} holds N={repeated[0]:.17g} more than once; a group needs distinct N")
        fit = fit_model(cfg["model"], pts)
        # coefficients, their SEs and CI95 half-widths, each padded to three cells
        cells = [x for xs in (fit.coefficients, fit.standard_errors, fit.ci95) for x in (*xs, "", "", "")[:3]]
        rows.append((alpha, r_spec, fit.model, *cells, fit.residual_rms, fit.n_points, fit.condition_warning))
    return rows


# ---------------------------------------------------------------------------
# wiring


# Every flag and config key: (default, parser, help). A given flag's text or
# config value goes through its key's parser; an unset key keeps its default.
_KEYS = {
    "alpha": ([0.5], _grid(_number), "comma-separated coupling exponents"),
    "N": ([100], lambda f, v: sorted(_grid(_integer)(f, v)), "comma-separated site counts (1e6 accepted)"),
    "r": (None, _grid(_token), "comma-separated separations; tokens N/2 and N/4 allowed"),
    "t": (None, _grid(_number), "comma-separated times"),
    "t_unit": ("abs", _choice("abs", "inv_lambda"), "abs or inv_lambda: --t as given or in 1/lambda"),
    "delta": (1.0, _number, "signaling threshold"),
    "method": ("exact_sum", _string, "evaluation method for bound/signaling"),
    "fmt": ("csv", _choice("csv", "json"), "output format: csv or json"),
    "out": (None, _string, "output path (default stdout)"),
    "workers": (None, _count, f"parallel workers (default ${WORKERS_ENV} or 1)"),
    "kac": (False, _choice(True, False), "rescale times by lambda"),
    "plot_data": (None, _string, "also write a tidy comment-free CSV here"),
    "D": (1, _count, "lattice dimension (default 1)"),
    "boundary": ("periodic", _choice("periodic", "open"), "periodic or open"),
    "i": (0, _integer, "probe site for the Ising protocol"),
    "model": ("power_log", _string, f"fit model: {', '.join(MODELS)}"),
    "input": (None, _string, "table to fit (fit command)"),
    "r_logspace": (None, _count, "log-spaced r count in [1, largest distance]"),
}
_DEFAULTS = {key: default for key, (default, _, _) in _KEYS.items()}


def _flag(key: str) -> str:
    return "--format" if key == "fmt" else "--" + key.replace("_", "-")


@cache  # add_argument asks the terminal's size per flag; one parser serves every main call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lr-horizon",
        description="Bounds, signaling times, and scaling fits for strongly long-range lattices.",
    )
    parser.add_argument("command", choices=COLUMNS, help="the table to write; a flag it does not read exits 2")
    parser.add_argument("--config", help="JSON file of defaults; flags override")
    for key, (_, _, text) in _KEYS.items():
        if key == "kac":
            parser.add_argument("--kac", action="store_const", const=True, help=text)
        else:
            parser.add_argument(_flag(key), dest=key, help=text)
    return parser


# The config keys each command reads, per method where it has methods.
# Every other key given as a flag or in a config file exits 2, so no
# value is dropped without a word. The exact_sum methods read D and
# boundary only for ``_lattice`` to reject the lattices they are not
# defined on, with a message that says so.
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
# Output and execution keys every command accepts. --workers runs the
# tasks of every command in SWEEPS; fit, one table in and one out, has
# no grid to spread and runs in one process at any count.
RUN_KEYS = ("fmt", "out", "workers", "plot_data")


def _merge_config(args: argparse.Namespace) -> dict:
    file_cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
    if not isinstance(file_cfg, dict):
        raise ValueError(f"config file {args.config} must hold a JSON object")
    unknown = sorted(set(file_cfg) - set(_KEYS))
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(unknown)}; valid keys: {', '.join(_KEYS)}")
    # A given flag overrides the config file; a null config value is unset.
    merged = {**file_cfg, **{k: v for k, v in vars(args).items() if v is not None}}
    given = {k: merged[k] for k in _KEYS if merged.get(k) is not None}
    command = args.command
    methods = [m for c, m in READS if c == command and m is not None]
    method = given.get("method", _DEFAULTS["method"]) if methods else None
    if methods and method not in methods:
        raise ValueError(f"{command} --method must be one of {', '.join(methods)}, got {method!r}")
    reads = READS[command, method] + RUN_KEYS
    dropped = [k for k in given if k not in reads]
    if dropped:
        where = f"{command} --method {method}" if method else command
        raise ValueError(f"{where} does not use {', '.join(map(_flag, dropped))}")
    cfg = dict({key: _DEFAULTS[key] for key in reads}, command=command)
    cfg.update((key, _KEYS[key][1](_flag(key), value)) for key, value in given.items())
    if cfg["workers"] is None:
        cfg["workers"] = _count(f"${WORKERS_ENV}", os.environ.get(WORKERS_ENV, "1"))
    return cfg


def _write_output(cfg: dict, columns: tuple, rows: list[tuple], blocks: list[tuple]) -> None:
    hashable = {k: v for k, v in cfg.items() if k == "fmt" or k not in RUN_KEYS}
    if "input" in hashable:  # fit: the table's bytes, not its path
        with open(cfg["input"], "rb") as fh:
            hashable["input"] = hashlib.sha256(fh.read()).hexdigest()
    digest = hashlib.sha256(json.dumps(hashable, sort_keys=True, default=str).encode()).hexdigest()
    header = f"# lr-horizon v{__version__} config={digest[:12]} method={cfg.get('method', cfg['command'])}"
    if cfg["fmt"] == "json":
        # a non-finite float as the CSV writes it ("inf"), since JSON has no such number
        cells = [{c: "%.17g" % v if isinstance(v, float) and not math.isfinite(v) else v for c, v in zip(columns, row)} for row in rows]
        lines = [json.dumps(cells, indent=2, default=str) + "\n"]
    else:
        lines = chain([header + "\n"], _csv(columns, rows))
    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(lines)
    if cfg["plot_data"]:  # CSV under either --format; protocol's is its trajectory, by block
        trajectory_columns = ("N", "alpha", "time", "site", "prob")
        lines = _csv(trajectory_columns, blocks=blocks) if cfg["command"] == "protocol" else _csv(columns, rows)
        with open(cfg["plot_data"], "w", encoding="utf-8") as fh:
            fh.writelines(lines)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        command = cfg["command"]
        rows, blocks = (_cmd_fit(cfg), []) if command == "fit" else _sweep(cfg)
        _write_output(cfg, COLUMNS[command], rows, blocks)
    except RuntimeError as exc:  # NoCrossingError and numerical failures
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy's message gives the size it could not allocate
        print(f"out of memory: {args.command}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
