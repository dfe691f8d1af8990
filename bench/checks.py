"""Output checks for the benchmark workloads, computed with numpy alone.

Every check holds for any seed the workloads draw. ``check`` maps each
operation of a pass to the list of its failures; an empty list passes.
None of this imports lr_horizon, so a defect in the package cannot
hide itself in the oracle.
"""

from __future__ import annotations

import math
import os

import numpy as np

SIGNALING_BOUND_RTOL = 1e-8
GAMMA_ATOL = 0.1
LAMBDA_RTOL = 1e-10
MANY_SITE_RTOL = 1e-9
BOUNDARY_RTOL = 1e-3
FIDELITY_ATOL = 1e-9
RATIO_ATOL = 1e-6
PROB_SUM_ATOL = 1e-9
ISING_ERROR_MAX = 1e-10


def read_csv(path: str) -> list[dict[str, str]]:
    """Rows of a table the CLI wrote, skipping its comment line."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path} has no header")
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _coverage(got, want, what: str) -> list[str]:
    got, want = sorted(got), sorted(want)
    return [] if got == want else [f"{what}: rows {got[:6]}... differ from the grid {want[:6]}..."]


# ---------------------------------------------------------------------------
# ring series, computed independently of lr_horizon.kernels


def ring_hops(n: int, alpha: float) -> np.ndarray:
    """J(d) on an n-site ring, with J(0) the row sum lambda."""
    d = np.arange(n, dtype=float)
    d = np.minimum(d, n - d)
    seq = np.empty(n)
    seq[1:] = d[1:] ** -alpha
    seq[0] = seq[1:].sum()
    return seq


def ring_bound(n: int, r: int, t: float, omega_half: np.ndarray) -> float:
    """2 (1/N) sum_p cos(2 pi p r / N) expm1(2 t omega_p), from the half spectrum."""
    weights = np.full(omega_half.size, 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    p = np.arange(omega_half.size)
    terms = weights * np.cos(2.0 * math.pi * p * r / n) * np.expm1(2.0 * t * omega_half)
    return 2.0 * float(terms.sum()) / n


def check_signaling(rows, p) -> list[str]:
    errors = _coverage(
        [(float(r["alpha"]), int(r["N"]), r["r_spec"]) for r in rows],
        [(a, n, rs) for a in p["alpha"] for n in p["N"] for rs in ("1", "N/2")],
        "signaling",
    )
    spectra: dict[tuple, tuple[float, np.ndarray]] = {}
    for row in rows:
        n, alpha = int(row["N"]), float(row["alpha"])
        r, delta, t = int(row["r_or_sizeY"]), float(row["delta"]), float(row["t_star"])
        if (n, alpha) not in spectra:
            seq = ring_hops(n, alpha)
            spectra[(n, alpha)] = (float(seq[0]), np.fft.rfft(seq).real)
        lam, omega = spectra[(n, alpha)]
        value = ring_bound(n, r, t, omega)
        if not abs(value - delta) <= SIGNALING_BOUND_RTOL * delta:
            errors.append(f"N={n} alpha={alpha} r={r}: bound at t*={t!r} is {value!r}, not {delta}")
        pc = 2.0 ** (alpha + 1)
        t_analytic = math.log1p(delta * lam * pc * r**alpha / 2.0) / (2.0 * lam * (1.0 + pc))
        if not t >= t_analytic:
            errors.append(f"N={n} alpha={alpha} r={r}: t*={t!r} below analytic {t_analytic!r}")
    return errors


def check_fit(rows, p) -> list[str]:
    errors = _coverage(
        [(float(r["alpha"]), r["r_spec"]) for r in rows],
        [(a, rs) for a in p["alpha"] for rs in ("1", "N/2")],
        "fit",
    )
    for row in rows:
        alpha, gamma = float(row["alpha"]), float(row["b"])
        if not abs(gamma - (alpha - 1.0)) <= GAMMA_ATOL:
            errors.append(f"alpha={alpha} r={row['r_spec']}: gamma={gamma!r} not near alpha-1")
        if int(row["n_points"]) != len(p["N"]):
            errors.append(f"alpha={alpha} r={row['r_spec']}: fit used {row['n_points']} points")
    return errors


def bound_grid_rs(n: int, count: int) -> list[int]:
    """The separations ``--r-logspace count`` resolves to at N = n."""
    ks = np.unique(np.round(np.logspace(0, math.log10(max(n // 2, 1)), count)))
    return [int(k) for k in ks]


def check_bound(rows, p) -> list[str]:
    want = [
        (a, n, r) for a in p["alpha"] for n in p["N"] for r in bound_grid_rs(n, p["r_logspace"])
    ]
    got = [(float(r["alpha"]), int(r["N"]), int(r["r"])) for r in rows]
    errors = _coverage(set(got), want, "bound")
    series: dict[tuple, list[tuple[float, float]]] = {}
    for row in rows:
        key = (float(row["alpha"]), int(row["N"]), int(row["r"]))
        series.setdefault(key, []).append((float(row["t"]), float(row["value"])))
    for key, pts in series.items():
        if len(pts) != len(p["t"]):
            errors.append(f"{key}: {len(pts)} times, want {len(p['t'])}")
        pts.sort()
        values = [v for _, v in pts]
        if not all(math.isfinite(v) and v >= 0.0 for v in values):
            errors.append(f"{key}: negative or non-finite value in {values}")
        if any(b < a for a, b in zip(values, values[1:])):
            errors.append(f"{key}: values decrease in t: {values}")
    return errors


# ---------------------------------------------------------------------------
# open-boundary row sums, computed independently of lr_horizon.lattice


def open_chain_lambda(n: int, alpha: float) -> float:
    """Largest row sum of an open chain: max_i H(i) + H(n-1-i), H the partial sums."""
    h = np.concatenate(([0.0], np.cumsum(np.arange(1, n, dtype=float) ** -alpha)))
    i = np.arange(n)
    return float((h[i] + h[n - 1 - i]).max())


def open_box_lambda(side: int, alpha: float, chunk: int = 512) -> float:
    """Largest row sum of an open side x side box, by brute force over all pairs."""
    g = np.arange(side, dtype=float)
    x, y = np.repeat(g, side), np.tile(g, side)
    best = 0.0
    for start in range(0, x.size, chunk):
        dx = x[start : start + chunk, None] - x[None, :]
        dy = y[start : start + chunk, None] - y[None, :]
        d2 = dx * dx + dy * dy
        d2[d2 == 0.0] = np.inf
        best = max(best, float((d2 ** (-alpha / 2.0)).sum(axis=1).max()))
    return best


def check_lambda(rows, p, dimension: int) -> list[str]:
    """lambda matches numpy and stays under its ceiling.

    The largest open-boundary row sum is the centre row, which sees the
    same distances as any row of the periodic lattice, so lambda cannot
    tell the boundaries apart; ``check_many_site`` does.
    """
    grid = p["chain_N"] if dimension == 1 else p["box_N"]
    errors = _coverage(
        [(float(r["alpha"]), int(r["N"]), int(r["D"])) for r in rows],
        [(a, n, dimension) for a in p["alpha"] for n in grid],
        f"lambda D={dimension}",
    )
    for row in rows:
        n, alpha = int(row["N"]), float(row["alpha"])
        lam, ceiling = float(row["lambda"]), float(row["lambda_upper_bound"])
        side = round(n ** (1.0 / dimension))
        if not lam <= ceiling:
            errors.append(f"N={n} alpha={alpha}: lambda {lam!r} above its ceiling {ceiling!r}")
        want = open_chain_lambda(n, alpha) if dimension == 1 else open_box_lambda(side, alpha)
        if not abs(lam - want) <= LAMBDA_RTOL * want:
            errors.append(f"N={n} alpha={alpha}: open lambda {lam!r}, numpy gives {want!r}")
    return errors


def many_site_time(alpha: float, delta: float, lam: float, pair_sum: float) -> float:
    """Closed-form inversion of the many-site bound for X = {0}."""
    pc = 2.0 ** (alpha + 1)
    return math.log1p(delta * lam * pc / (2.0 * pair_sum)) / (2.0 * lam * (1.0 + pc))


def check_many_site(rows, p) -> list[str]:
    errors = _coverage(
        [(float(r["alpha"]), int(r["N"])) for r in rows],
        [(a, n) for a in p["alpha"] for n in p["many_site_N"]],
        "many_site",
    )
    for row in rows:
        n, alpha = int(row["N"]), float(row["alpha"])
        delta, t = float(row["delta"]), float(row["t_star"])
        if int(row["r_or_sizeY"]) != n - 1:
            errors.append(f"N={n} alpha={alpha}: |Y|={row['r_or_sizeY']}, want {n - 1}")
        lam = open_chain_lambda(n, alpha)
        j = np.arange(1, n, dtype=float)
        want = many_site_time(alpha, delta, lam, float((j**-alpha).sum()))
        if not abs(t - want) <= MANY_SITE_RTOL * want:
            errors.append(f"N={n} alpha={alpha}: t*={t!r}, closed form gives {want!r}")
        # lambda is the same on both boundaries, the pair sum from site 0 is not.
        periodic = many_site_time(alpha, delta, lam, float((np.minimum(j, n - j) ** -alpha).sum()))
        if not abs(t - periodic) > BOUNDARY_RTOL * periodic:
            errors.append(f"N={n} alpha={alpha}: t*={t!r} is the periodic-boundary value")
    return errors


# ---------------------------------------------------------------------------
# dense oracles


def check_protocol(rows, trajectory, p) -> list[str]:
    errors = _coverage(
        [(float(r["alpha"]), int(r["N"])) for r in rows],
        [(a, n) for a in p["alpha"] for n in p["protocol_N"]],
        "protocol",
    )
    for row in rows:
        n, alpha = int(row["N"]), float(row["alpha"])
        fidelity, ratio = float(row["fidelity"]), float(row["ratio"])
        if not abs(fidelity - 1.0) <= FIDELITY_ATOL:
            errors.append(f"N={n} alpha={alpha}: fidelity {fidelity!r}")
        if not abs(ratio - 2.0 / math.pi) <= RATIO_ATOL:
            errors.append(f"N={n} alpha={alpha}: ratio {ratio!r}, want 2/pi")
    sums: dict[tuple, list] = {}
    for row in trajectory:
        key = (float(row["alpha"]), int(row["N"]), row["time"])
        entry = sums.setdefault(key, [0.0, 0])
        entry[0] += float(row["prob"])
        entry[1] += 1
    per_case: dict[tuple, int] = {}
    for (alpha, n, time), (total, sites) in sums.items():
        per_case[(alpha, n)] = per_case.get((alpha, n), 0) + 1
        if sites != n or not abs(total - 1.0) <= PROB_SUM_ATOL:
            errors.append(f"N={n} alpha={alpha} t={time}: {sites} sites sum to {total!r}")
    errors += _coverage(
        list(per_case.items()),
        [((a, n), 101) for a in p["alpha"] for n in p["protocol_N"]],
        "trajectory",
    )
    return errors


def check_ising(rows, p) -> list[str]:
    errors = _coverage(
        [(float(r["alpha"]), float(r["t"])) for r in rows],
        [(a, t) for a in p["alpha"] for t in p["ising_t"]],
        "ising-oracle",
    )
    for row in rows:
        err = float(row["abs_error"])
        if not err < ISING_ERROR_MAX:
            errors.append(f"alpha={row['alpha']} t={row['t']}: abs_error {err!r}")
    return errors


def check(name: str, p: dict, out: str) -> dict[str, list[str]]:
    """Failures of each operation of one pass whose outputs sit in ``out``."""

    def table(f: str) -> list[dict[str, str]]:
        return read_csv(os.path.join(out, f))

    checks = {
        "ring_signaling_sweep": {
            "signaling": lambda: check_signaling(table("signaling.csv"), p),
            "fit": lambda: check_fit(table("fit.csv"), p),
        },
        "ring_bound_grid": {"bound": lambda: check_bound(table("bound.csv"), p)},
        "open_lattice_rowsums": {
            "lambda_chain": lambda: check_lambda(table("lambda_chain.csv"), p, 1),
            "lambda_box": lambda: check_lambda(table("lambda_box.csv"), p, 2),
            "many_site": lambda: check_many_site(table("many_site.csv"), p),
        },
        "dense_oracles": {
            "protocol": lambda: check_protocol(
                table("protocol.csv"), table("trajectory.csv"), p
            ),
            "ising_oracle": lambda: check_ising(table("ising.csv"), p),
        },
    }[name]
    failures = {}
    for op, fn in checks.items():
        try:
            failures[op] = fn()
        except (OSError, ValueError, KeyError) as exc:
            failures[op] = [f"unreadable output: {exc!r}"]
    return failures
