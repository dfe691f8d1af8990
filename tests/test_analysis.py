import math

import numpy as np
import pytest

from lr_horizon import fit_model
from lr_horizon.analysis import CONDITION_WARN, MODELS

GRID = (10**4, 3 * 10**4, 10**5, 3 * 10**5, 10**6)


def test_power_log_exact_recovery():
    pts = [(n, 3.0 * n**-0.5 * math.log(n)) for n in (10**4, 10**5, 10**6)]
    fit = fit_model("power_log", pts)
    a, gamma = fit.coefficients
    assert a == pytest.approx(3.0, rel=1e-12)
    assert gamma == pytest.approx(-0.5, abs=1e-12)
    assert fit.residual_rms < 1e-12


def test_loglog_power_exact_recovery():
    pts = [(n, 2.0 * math.log(n) ** -1.0 * math.log(math.log(n)) ** 0.95) for n in GRID]
    fit = fit_model("loglog_power", pts)
    a, b, c = fit.coefficients
    assert a == pytest.approx(2.0, rel=1e-10)
    assert b == pytest.approx(-1.0, abs=1e-10)
    assert c == pytest.approx(0.95, abs=1e-10)


def test_loglog_power_flags_ill_conditioning():
    """The two double-log regressors are nearly collinear on a narrow decade span."""
    pts = [(n, 2.0 / math.log(n)) for n in GRID]
    assert fit_model("loglog_power", pts).condition_warning


def test_pure_power_exact_recovery():
    pts = [(n, 5.0 * n**1.5) for n in (10, 100, 1000, 10000)]
    fit = fit_model("pure_power", pts)
    assert fit.coefficients[0] == pytest.approx(5.0, rel=1e-12)
    assert fit.coefficients[1] == pytest.approx(1.5, abs=1e-12)


def test_fit_result_reports_ci95_as_1p96_se():
    rng = np.random.default_rng(5)
    pts = [(n, 2.0 * n**-0.7 * math.exp(rng.normal(0, 0.01))) for n in GRID]
    fit = fit_model("pure_power", pts)
    for se, ci in zip(fit.standard_errors, fit.ci95):
        assert ci == pytest.approx(1.96 * se, rel=1e-12)
    assert fit.n_points == 5


def test_fit_invariant_under_reordering():
    rng = np.random.default_rng(9)
    pts = [(n, 1.3 * n**-0.4 * math.log(n) * math.exp(rng.normal(0, 0.02))) for n in GRID]
    fit_a = fit_model("power_log", pts)
    fit_b = fit_model("power_log", list(reversed(pts)))
    assert fit_a.coefficients == pytest.approx(fit_b.coefficients, rel=1e-12)
    assert fit_a.standard_errors == pytest.approx(fit_b.standard_errors, rel=1e-12)


def test_degenerate_design_rejected():
    with pytest.raises(ValueError):
        fit_model("pure_power", [(100, 1.0), (100, 2.0), (100, 3.0)])
    # two distinct N cannot separate the three loglog coefficients
    with pytest.raises(ValueError, match="distinct N"):
        fit_model("loglog_power", [(100, 1.0), (100, 1.1), (1000, 0.5), (1000, 0.6)])


def test_insufficient_points_rejected():
    with pytest.raises(ValueError):
        fit_model("power_log", [(10, 1.0), (100, 0.1)])
    with pytest.raises(ValueError):
        fit_model("loglog_power", [(100, 1.0), (1000, 0.5), (10000, 0.3)])


def test_nonpositive_values_rejected():
    with pytest.raises(ValueError):
        fit_model("pure_power", [(10, 1.0), (100, 0.0), (1000, 0.01)])


@pytest.mark.parametrize(
    "points",
    [
        [(10, 1.0), (100, math.inf), (1000, 0.01)],
        [(10, 1.0), (100, math.nan), (1000, 0.01)],
        [(10, 1.0), (math.inf, 0.5), (1000, 0.01)],
        [(10, 1.0), (math.nan, 0.5), (1000, 0.01)],
    ],
)
@pytest.mark.parametrize("model", ["power_log", "pure_power"])
def test_nonfinite_values_rejected(model, points):
    # nan and inf pass the t > 0 and N >= min checks, so they are rejected first
    with pytest.raises(ValueError, match="all N and t must be finite"):
        fit_model(model, points)


def test_small_n_domain_guards():
    # loglog regressors need log log N > 0
    with pytest.raises(ValueError):
        fit_model("loglog_power", [(2, 1.0), (4, 0.5), (8, 0.3), (16, 0.2)])


def test_fit_model_dispatch():
    pts = [(n, 4.0 * n**0.5) for n in (10, 100, 1000)]
    assert fit_model("pure_power", pts).coefficients == pytest.approx((4.0, 0.5), rel=1e-12)
    with pytest.raises(ValueError):
        fit_model("cubic_spline", pts)


def test_noise_calibration_gamma_within_three_se():
    """Monte Carlo: the reported SE should cover the truth at the 3-sigma level.

    With 5 points and 3 residual dof the |t| <= 3 coverage is ~94%, well
    below the normal-approximation 99.7%, so the floor sits at 88/100.
    """
    rng = np.random.default_rng(77)
    hits = 0
    trials = 100
    for _ in range(trials):
        pts = [(n, 2.0 * n**-0.6 * math.log(n) * math.exp(rng.normal(0, 0.01))) for n in GRID]
        fit = fit_model("power_log", pts)
        if abs(fit.coefficients[1] + 0.6) <= 3 * fit.standard_errors[1]:
            hits += 1
    assert hits >= 88


def test_se_scales_linearly_with_noise():
    rng = np.random.default_rng(123)
    ses = {}
    for sigma in (0.01, 0.005):
        acc = []
        for _ in range(50):
            pts = [(n, 1.5 * n**-0.3 * math.exp(rng.normal(0, sigma))) for n in GRID]
            acc.append(fit_model("pure_power", pts).standard_errors[1])
        ses[sigma] = float(np.mean(acc))
    ratio = ses[0.01] / ses[0.005]
    assert 1.6 < ratio < 2.4


def test_power_log_beats_mismatched_model_on_loglog_data():
    pts = [(n, 2.0 * math.log(n) ** -1.0 * math.log(math.log(n)) ** 0.95) for n in GRID]
    rms_right = fit_model("loglog_power", pts).residual_rms
    rms_wrong = fit_model("power_log", pts).residual_rms
    assert rms_right < rms_wrong


def _reference_ols(design, y):
    """Textbook OLS: lstsq for the coefficients, inv(X^T X) for their covariance."""
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    resid = y - design @ coef
    sigma2 = float(resid @ resid) / (design.shape[0] - design.shape[1])
    se = np.sqrt(np.diag(sigma2 * np.linalg.inv(design.T @ design)))
    return coef, se, float(np.sqrt(np.mean(resid**2))), float(np.linalg.cond(design))


def _reference_design(model, ns, ts):
    ln_n = np.log(ns)
    if model == "power_log":
        return np.column_stack([np.ones_like(ns), ln_n]), np.log(ts) - np.log(ln_n)
    if model == "loglog_power":
        return np.column_stack([np.ones_like(ns), np.log(ln_n), np.log(np.log(ln_n))]), np.log(ts)
    return np.column_stack([np.ones_like(ns), ln_n]), np.log(ts)


@pytest.mark.parametrize("grid", [GRID, (20, 200, 2000, 20000, 200000)])
@pytest.mark.parametrize("model", ["power_log", "loglog_power", "pure_power"])
def test_fit_matches_reference_ols(model, grid):
    rng = np.random.default_rng(31)
    ns = np.array(grid, dtype=float)
    ts = 1.7 * ns**-0.45 * np.log(ns) * np.exp(rng.normal(0, 0.03, ns.size))
    fit = fit_model(model, zip(ns, ts))
    coef, se, rms, cond = _reference_ols(*_reference_design(model, ns, ts))
    assert fit.coefficients == pytest.approx((math.exp(coef[0]), *coef[1:]), rel=1e-12)
    assert fit.standard_errors == pytest.approx((fit.coefficients[0] * se[0], *se[1:]), rel=1e-9)
    assert fit.residual_rms == pytest.approx(rms, rel=1e-9)
    assert fit.condition_warning == (cond > CONDITION_WARN)


@pytest.mark.parametrize("model", MODELS, ids=[f"fit_{m}" for m in MODELS])
def test_fitters_take_a_generator(model):
    ts = [2.0 * n**-0.5 for n in GRID]
    assert fit_model(model, zip(GRID, ts)) == fit_model(model, list(zip(GRID, ts)))


@pytest.mark.parametrize("model", MODELS, ids=[f"fit_{m}" for m in MODELS])
def test_fit_result_numbers_are_plain_floats(model):
    rng = np.random.default_rng(3)
    fit = fit_model(model, [(n, 2.0 * n**-0.5 * math.exp(rng.normal(0, 0.01))) for n in GRID])
    numbers = (*fit.coefficients, *fit.standard_errors, *fit.ci95, fit.residual_rms)
    assert all(type(x) is float for x in numbers)
    assert type(fit.condition_warning) is bool
    assert type(fit.n_points) is int
