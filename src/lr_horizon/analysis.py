"""Scaling-law regression for signaling times and hop strengths.

Three fixed-form models, each linearized exactly by logarithms and
solved with unweighted ordinary least squares (no iterative fitting, no
initialization knobs):

* ``power_log``:     t = a * N**gamma * ln(N)
* ``loglog_power``:  t = a * ln(N)**b * ln(ln(N))**c
* ``pure_power``:    t = a * N**gamma

One table (``_MODELS``) states each model, and ``fit_model`` fits any of
them through one thin SVD of the design, which gives the coefficients,
their standard errors and the condition number. A fit needs one point
more than it has coefficients, so at least one residual degree of
freedom, and at least as many distinct N as coefficients, so the design
has full rank.

All logarithms are natural. 95% intervals use the normal approximation
1.96 * SE; the fitted grids have few points, so treat them as
indicative rather than exact coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CI95_FACTOR = 1.96

# Design-matrix condition number beyond which the regressors are
# effectively collinear over the provided N range and the coefficient
# split is unreliable (the fitted curve itself remains fine).
CONDITION_WARN = 1e3

# name: (smallest N, the offset of ln t removed before the fit or None,
# the regressors beside the intercept); each a function of ln N. The loglog
# pair ln ln N, ln ln ln N is nearly collinear over narrow N ranges, so its
# b/c split is not to be over-interpreted when ``condition_warning`` is set.
_MODELS = {
    "power_log": (3, np.log, (lambda ln_n: ln_n,)),
    "loglog_power": (16, None, (np.log, lambda ln_n: np.log(np.log(ln_n)))),
    "pure_power": (2, None, (lambda ln_n: ln_n,)),
}
MODELS = tuple(_MODELS)


@dataclass(frozen=True)
class FitResult:
    """Coefficients of one scaling-law fit.

    ``coefficients`` is (a, gamma) for the two-parameter models and
    (a, b, c) for ``loglog_power``; ``standard_errors`` and ``ci95``
    align with it. The error on ``a`` is propagated from log(a) by the
    delta method (se_a = a * se_log_a). ``residual_rms`` is measured in
    log space.
    """

    model: str
    coefficients: tuple[float, ...]
    standard_errors: tuple[float, ...]
    ci95: tuple[float, ...]
    residual_rms: float
    n_points: int
    condition_warning: bool = False


def fit_model(model: str, points) -> FitResult:
    """Fit one of ``MODELS`` to (N, t) points by OLS on its log-linear form.

    With the design X = U diag(s) V^T, the coefficients are
    V diag(1/s) U^T y, their covariance sigma^2 V diag(1/s^2) V^T, and
    the condition number s_0 / s_last.
    """
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    min_n, offset, regressors = _MODELS[model]
    n_coef = 1 + len(regressors)
    pts = [(float(n), float(t)) for n, t in points]
    if len(pts) <= n_coef:
        raise ValueError(f"need at least {n_coef + 1} points, got {len(pts)}")
    ns, ts = np.array(pts).T
    if not np.isfinite([ns, ts]).all():
        raise ValueError("all N and t must be finite")
    if np.any(ns < min_n):
        raise ValueError(f"all N must be >= {min_n}")
    if np.any(ts <= 0):
        raise ValueError("all t must be positive")
    if len(set(ns.tolist())) < n_coef:
        raise ValueError(f"degenerate design: {model} needs at least {n_coef} distinct N")
    ln_n = np.log(ns)
    y = np.log(ts) if offset is None else np.log(ts) - offset(ln_n)
    design = np.column_stack([np.ones_like(ns), *(f(ln_n) for f in regressors)])
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    v_over_s = vt.T / s
    coef = v_over_s @ (u.T @ y)
    resid = y - design @ coef
    sigma2 = float(resid @ resid) / (len(pts) - n_coef)
    se = np.sqrt(sigma2 * np.sum(v_over_s**2, axis=1))
    a = math.exp(coef[0])
    standard_errors = (a * float(se[0]), *se[1:].tolist())
    return FitResult(
        model=model,
        coefficients=(a, *coef[1:].tolist()),
        standard_errors=standard_errors,
        ci95=tuple(CI95_FACTOR * e for e in standard_errors),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        n_points=len(pts),
        condition_warning=float(s[0] / s[-1]) > CONDITION_WARN,
    )

