"""Benchmark workloads: seeded argument lists for the lr-horizon CLI.

Each workload draws its alpha values from the seed inside a fixed range
and keeps every other grid fixed, so every seed does the same amount of
work. The grids follow the README examples and the acceptance criteria.
"""

from __future__ import annotations

import os
import random

# logspace(10^4, 10^6, 5), rounded the way the acceptance tests round it.
RING_N = (10_000, 31_623, 100_000, 316_228, 1_000_000)
ISING_T = tuple(round(0.02 * k, 2) for k in range(1, 11))

WHY = {
    "ring_signaling_sweep": (
        "the paper's gamma(alpha) sweep on rings to N=1e6: the series solver and its "
        "per-call exact_sum_bound setup dominate"
    ),
    "ring_bound_grid": (
        "forward series bounds at N=1e6 with r changing every 4 calls and no solver, "
        "so a per-r cache or solver change shows its cost here"
    ),
    "open_lattice_rowsums": (
        "O(N^2) open-boundary row sums in lattice/kernels for lambda and many-site "
        "signaling; no FFT runs"
    ),
    "dense_oracles": (
        "dense small-system oracles: one eigh per evolve call and tens of thousands "
        "of trajectory rows written as CSV"
    ),
}

NAMES = tuple(WHY)

# (number of alpha values, low, high) per workload.
_ALPHA_DRAW = {
    "ring_signaling_sweep": (3, 0.05, 0.75),
    "ring_bound_grid": (2, 0.05, 0.75),
    "open_lattice_rowsums": (2, 0.1, 0.9),
    "dense_oracles": (2, 0.1, 0.9),
}

_GRIDS = {
    "ring_signaling_sweep": {"N": list(RING_N)},
    "ring_bound_grid": {"N": [1_000_000], "r_logspace": 25, "t": [0.1, 0.3, 1, 3]},
    "open_lattice_rowsums": {
        "chain_N": [2000, 4000, 8000],
        "box_N": [1024, 4096],
        "many_site_N": [256, 512, 1024],
    },
    "dense_oracles": {"protocol_N": [128, 256], "ising_N": 10, "ising_t": list(ISING_T)},
}

# Spans of functions that cli.py calls directly for each workload. The
# traced run fails if one records no calls: then the tracer missed a
# binding of the function, which would silently blank a layer.
EXPECTED_SPANS = {
    "ring_signaling_sweep": (
        "cli.main",
        "cli.write_output",
        "kernels.fourier_spectrum",
        "signaling.exact_sum_signaling_time",
        "analysis.fit_model",
    ),
    "ring_bound_grid": (
        "cli.main",
        "cli.write_output",
        "kernels.fourier_spectrum",
        "bounds.exact_sum_bound",
    ),
    "open_lattice_rowsums": (
        "cli.main",
        "cli.write_output",
        "kernels.self_hop_lambda",
        "kernels.lambda_upper_bound",
        "signaling.many_site_signaling_time",
    ),
    "dense_oracles": (
        "cli.main",
        "cli.write_output",
        "dynamics.state_transfer_protocol",
        "dynamics.trajectory",
        "dynamics.ising_exact_oracle",
    ),
}


def draw_alphas(name: str, seed: int) -> list[float]:
    """Distinct alpha values for one workload, sorted, rounded to 4 digits."""
    count, lo, hi = _ALPHA_DRAW[name]
    rng = random.Random(f"{name}/{seed}")
    alphas: set[float] = set()
    while len(alphas) < count:
        alphas.add(round(rng.uniform(lo, hi), 4))
    return sorted(alphas)


def params(name: str, seed: int) -> dict:
    """The inputs of one workload run: fixed grids plus the seeded alphas."""
    p = {key: (list(v) if isinstance(v, list) else v) for key, v in _GRIDS[name].items()}
    p["alpha"] = draw_alphas(name, seed)
    return p


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def commands(name: str, p: dict, out: str) -> list[tuple[str, list[str], tuple[str, ...]]]:
    """(operation, argv, output files) for each CLI command of one pass.

    Commands run in order; ``fit`` reads the table ``signaling`` wrote.
    Every command runs single-process and writes into ``out``.
    """

    def path(f: str) -> str:
        return os.path.join(out, f)

    alpha = _csv(p["alpha"])
    one = ["--workers", "1"]
    if name == "ring_signaling_sweep":
        return [
            (
                "signaling",
                ["signaling", "--method", "exact_sum", "--alpha", alpha, "--N", _csv(p["N"]),
                 "--r", "1,N/2", "--out", path("signaling.csv"), *one],
                ("signaling.csv",),
            ),
            (
                "fit",
                ["fit", "--model", "power_log", "--input", path("signaling.csv"),
                 "--out", path("fit.csv"), *one],
                ("fit.csv",),
            ),
        ]
    if name == "ring_bound_grid":
        return [
            (
                "bound",
                ["bound", "--method", "exact_sum", "--alpha", alpha, "--N", _csv(p["N"]),
                 "--r-logspace", str(p["r_logspace"]), "--t", _csv(p["t"]),
                 "--t-unit", "inv_lambda", "--out", path("bound.csv"), *one],
                ("bound.csv",),
            )
        ]
    if name == "open_lattice_rowsums":
        return [
            (
                "lambda_chain",
                ["lambda", "--boundary", "open", "--alpha", alpha, "--N", _csv(p["chain_N"]),
                 "--out", path("lambda_chain.csv"), *one],
                ("lambda_chain.csv",),
            ),
            (
                "lambda_box",
                ["lambda", "--boundary", "open", "--D", "2", "--alpha", alpha,
                 "--N", _csv(p["box_N"]), "--out", path("lambda_box.csv"), *one],
                ("lambda_box.csv",),
            ),
            (
                "many_site",
                ["signaling", "--method", "many_site", "--boundary", "open", "--alpha", alpha,
                 "--N", _csv(p["many_site_N"]), "--out", path("many_site.csv"), *one],
                ("many_site.csv",),
            ),
        ]
    if name == "dense_oracles":
        return [
            (
                "protocol",
                ["protocol", "--alpha", alpha, "--N", _csv(p["protocol_N"]),
                 "--plot-data", path("trajectory.csv"), "--out", path("protocol.csv"), *one],
                ("protocol.csv", "trajectory.csv"),
            ),
            (
                "ising_oracle",
                ["ising-oracle", "--alpha", alpha, "--N", str(p["ising_N"]),
                 "--t", _csv(p["ising_t"]), "--i", "0", "--out", path("ising.csv"), *one],
                ("ising.csv",),
            ),
        ]
    raise ValueError(f"unknown workload {name!r}")
