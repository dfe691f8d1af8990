import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lr_horizon import (
    BoundPrefactor,
    CouplingModel,
    HopSchedule,
    LatticeSpec,
    analytic_bound,
    exact_sum_bound,
    exact_sum_bound_alpha0_closed_form,
    exact_sum_signaling_time,
    fourier_spectrum,
    free_particle_bound,
    free_particle_envelope,
    fit_model,
    chain,
    many_site_bound,
    ring,
    self_hop_lambda,
    series_oracle,
)
from lr_horizon import bounds

RING4_ALPHA1 = self_hop_lambda(ring(4), CouplingModel(alpha=1.0))


def test_prefactor_validation():
    with pytest.raises(ValueError):
        BoundPrefactor(norm_A=0.0)
    with pytest.raises(ValueError):
        BoundPrefactor(size_X=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["norm_A", "norm_B", "size_X", "size_Y"])
def test_prefactor_rejects_non_finite(field, bad):
    with pytest.raises(ValueError, match="finite"):
        BoundPrefactor(**{field: bad})


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize(
    "evaluate",
    [
        lambda t: exact_sum_bound(16, 0.5, 2, t),
        lambda t: exact_sum_bound(16, 0.5, 2, t, spectrum=fourier_spectrum(16, 0.5)),
        lambda t: analytic_bound(RING4_ALPHA1, 2.0, t),
        lambda t: exact_sum_bound_alpha0_closed_form(16, t),
        lambda t: many_site_bound(ring(8), CouplingModel(alpha=0.5), [0], [3], t),
        lambda t: fourier_spectrum(16, 0.5).series(2, t),
        lambda t: fourier_spectrum(16, 0.5).series_and_slope(2, t),
        lambda t: fourier_spectrum(16, 0.5).declare_grid([2], [0.1, t]),
    ],
    ids=["exact_sum", "exact_sum_spectrum", "analytic", "alpha0_closed_form", "many_site",
         "spectrum_series", "spectrum_series_and_slope", "spectrum_grid"],
)
def test_bounds_reject_non_finite_or_negative_time(evaluate, t):
    with pytest.raises(ValueError, match="t must be finite and >= 0"):
        evaluate(t)


@pytest.mark.parametrize("r", [math.nan, math.inf, 0.5])
def test_analytic_bound_rejects_bad_separation(r):
    with pytest.raises(ValueError, match="separation r must be finite and >= 1"):
        analytic_bound(RING4_ALPHA1, r, 1.0)


def test_analytic_bound_rejects_underflowing_pair_weight():
    params = self_hop_lambda(ring(16), CouplingModel(alpha=1000.0))
    with pytest.raises(ValueError, match="alpha = 1000.0, separation 4"):
        analytic_bound(params, 4.0, 1.0)


def test_alpha0_closed_form_saturates_like_the_series():
    """Both forms turn +inf where the largest exponent 4 (N - 1) t passes the overflow limit."""
    assert exact_sum_bound_alpha0_closed_form(16, 100.0) == math.inf
    assert exact_sum_bound(16, 0.0, 1, 100.0).value == math.inf
    t = 0.99 * 700.0 / (4 * 15)
    assert math.isfinite(exact_sum_bound_alpha0_closed_form(16, t))
    assert 2 * exact_sum_bound_alpha0_closed_form(16, t) == pytest.approx(exact_sum_bound(16, 0.0, 1, t).value, rel=1e-12)


def test_analytic_bound_zero_time():
    assert analytic_bound(RING4_ALPHA1, 2.0, 0.0).value == 0.0


def test_analytic_bound_hand_value():
    # lam=2.5, p=4: 2 (e^{2*2.5*5*0.1} - 1) / (2.5*4*2)
    b = analytic_bound(RING4_ALPHA1, 2.0, 0.1)
    assert b.value == pytest.approx(2 * (math.exp(2.5) - 1) / 20, rel=1e-12)
    assert b.method == "analytic"


def test_analytic_bound_linear_in_prefactor():
    base = analytic_bound(RING4_ALPHA1, 2.0, 0.1).value
    doubled = analytic_bound(RING4_ALPHA1, 2.0, 0.1, BoundPrefactor(norm_A=2.0)).value
    assert doubled == pytest.approx(2 * base, rel=1e-14)


def test_analytic_bound_overflow_saturates():
    b = analytic_bound(RING4_ALPHA1, 2.0, 100.0)
    assert math.isinf(b.value)
    assert b.saturated


def test_exact_sum_bound_zero_time():
    assert exact_sum_bound(8, 0.5, 2, 0.0).value == 0.0


def test_exact_sum_bound_n3_value():
    b = exact_sum_bound(3, 0.0, 1, 0.1)
    assert b.value == pytest.approx(2 * (math.exp(0.8) - math.exp(0.2)) / 3, rel=1e-12)


def test_exact_sum_bound_accepts_precomputed_spectrum():
    spectrum = fourier_spectrum(16, 0.5)
    direct = exact_sum_bound(16, 0.5, 4, 0.2)
    cached = exact_sum_bound(16, 0.5, 4, 0.2, spectrum=spectrum)
    assert cached.value == direct.value


@pytest.mark.parametrize("n,alpha", [(32, 0.5), (16, 1.0)], ids=["N", "alpha"])
@pytest.mark.parametrize(
    "evaluate",
    [
        lambda n, alpha, spectrum: exact_sum_bound(n, alpha, 4, 0.2, spectrum=spectrum),
        lambda n, alpha, spectrum: exact_sum_signaling_time(n, alpha, 4, 1.0, spectrum=spectrum),
    ],
    ids=["exact_sum_bound", "exact_sum_signaling_time"],
)
def test_a_spectrum_of_another_n_or_alpha_is_rejected(evaluate, n, alpha):
    with pytest.raises(ValueError, match=re.escape("spectrum was computed for different (N, alpha)")):
        evaluate(n, alpha, fourier_spectrum(16, 0.5))


@pytest.mark.parametrize("r", [0, -3, 9, 100, math.nan, 2.5])
def test_exact_sum_bound_r_out_of_range(r):
    with pytest.raises(ValueError):
        exact_sum_bound(16, 0.5, r, 0.1)


def test_exact_sum_bound_takes_integral_r_spellings():
    want = exact_sum_bound(16, 0.5, 2, 0.1).value
    assert exact_sum_bound(16, 0.5, 2.0, 0.1).value == want
    assert exact_sum_bound(16, 0.5, np.int64(2), 0.1).value == want


def test_exact_sum_overflow_saturates():
    b = exact_sum_bound(64, 0.5, 2, 50.0)
    assert math.isinf(b.value)
    assert b.saturated


def test_alpha0_closed_form():
    assert exact_sum_bound_alpha0_closed_form(3, 0.0) == 0.0
    assert exact_sum_bound_alpha0_closed_form(3, 0.1) == pytest.approx(
        (math.exp(0.8) - math.exp(0.2)) / 3, rel=1e-13
    )


@pytest.mark.parametrize("n", [3, 10, 100])
@pytest.mark.parametrize("t", [0.01, 0.1])
def test_alpha0_closed_form_ratio_to_displayed_form(n, t):
    ratio = exact_sum_bound_alpha0_closed_form(n, t) / ((math.exp(4 * n * t) - 1) / n)
    assert 0 < ratio <= 1


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n", [16, 64])
def test_exact_sum_dominated_by_analytic(alpha, n):
    """The closed-form bound relaxes the series, so it can only be larger."""
    params = self_hop_lambda(ring(n), CouplingModel(alpha=alpha))
    for r in (1, n // 4, n // 2):
        for t_rel in (0.01, 0.1, 1.0):
            t = t_rel / params.lam
            ex = exact_sum_bound(n, alpha, r, t).value
            an = analytic_bound(params, float(r), t).value
            assert ex <= an * (1 + 1e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n", [9, 33, 127])
def test_exact_sum_matches_dense_oracle_odd_n(n, alpha):
    """Odd N: every p >= 1 of the half spectrum has a distinct mirror N - p."""
    spec, model = ring(n), CouplingModel(alpha=alpha)
    spectrum = fourier_spectrum(n, alpha)
    for t_rel in (0.01, 0.1, 1.0):
        t = t_rel / spectrum.lam
        dense = series_oracle(spec, model, t)
        for r in (1, n // 2):
            got = exact_sum_bound(n, alpha, r, t, spectrum=spectrum).value
            assert got == pytest.approx(2 * dense[0, r], rel=1e-9)


def test_exact_sum_monotone_in_time():
    values = [exact_sum_bound(32, 0.5, 8, t).value for t in (0.01, 0.05, 0.1, 0.2)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_r_dependence_power_law_then_deviation():
    """Log-log slope vs r is -alpha at small r but flattens toward r = N/2."""
    n, alpha = 10**5, 0.5
    spectrum = fourier_spectrum(n, alpha)
    t = 1.0 / spectrum.lam
    small_r = [2, 4, 8, 16]
    small = [(r, exact_sum_bound(n, alpha, r, t, spectrum=spectrum).value) for r in small_r]
    slope_small = fit_model("pure_power", small).coefficients[1]
    assert slope_small == pytest.approx(-0.5, abs=0.05)
    large_r = [n // 20, n // 8, n // 4, n // 2]
    large = [(r, exact_sum_bound(n, alpha, r, t, spectrum=spectrum).value) for r in large_r]
    slope_large = fit_model("pure_power", large).coefficients[1]
    assert slope_large > -0.4  # visibly off the small-r power law


def test_free_particle_bound_zero_rows():
    sched = HopSchedule(segments=((1.0, np.zeros(5)),))
    assert free_particle_bound(sched) == 0.0


def test_free_particle_bound_of_a_row_whose_squares_underflow():
    """The squares of 1e-170 underflow a float; the row is scaled by its largest |J| before it is squared."""
    assert free_particle_bound(HopSchedule(((1.0, np.full(4, 1e-170)),))) == pytest.approx(2e-170, rel=1e-12)
    assert free_particle_bound(HopSchedule(((1.0, np.full(4, 1e-150)),))) == pytest.approx(2e-150, rel=1e-12)


def test_free_particle_bound_uniform_row():
    n, alpha, t = 7, 0.5, 0.3
    L = n - 1
    row = np.full(n - 2, L**-alpha)
    sched = HopSchedule(segments=((t, row),))
    assert free_particle_bound(sched) == pytest.approx(t * math.sqrt(n - 2) / L**alpha, rel=1e-12)


def test_free_particle_bound_additive_and_permutation_invariant():
    rng = np.random.default_rng(7)
    row_a, row_b = rng.random(6), rng.random(6)
    joint = HopSchedule(segments=((0.4, row_a), (0.6, row_b)))
    split = free_particle_bound(HopSchedule(segments=((0.4, row_a),))) + free_particle_bound(
        HopSchedule(segments=((0.6, row_b),))
    )
    assert free_particle_bound(joint) == pytest.approx(split, rel=1e-12)
    shuffled = HopSchedule(segments=((0.4, row_a[::-1].copy()), (0.6, row_b[::-1].copy())))
    assert free_particle_bound(shuffled) == pytest.approx(free_particle_bound(joint), rel=1e-12)


def test_schedule_requires_positive_durations():
    with pytest.raises(ValueError):
        HopSchedule(segments=((0.0, np.ones(3)),))


def test_envelope_alpha_zero():
    assert free_particle_envelope(ring(10), CouplingModel(alpha=0.0)) == pytest.approx(3.0)


def test_envelope_ring4_alpha1():
    assert free_particle_envelope(ring(4), CouplingModel(alpha=1.0)) == pytest.approx(1.5)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0, 2.5])
@pytest.mark.parametrize("spec", [ring(16), ring(17), chain(9), LatticeSpec(2, 5, "open")], ids=["ring16", "ring17", "chain9", "box2d"])
def test_envelope_is_sqrt_lambda_at_twice_alpha(spec, alpha):
    """The same bits as the self-hop strength of the coupling r**(-2 alpha)."""
    twice = self_hop_lambda(spec, CouplingModel(alpha=2.0 * alpha)).lam
    assert free_particle_envelope(spec, CouplingModel(alpha=alpha)) == math.sqrt(twice)


def test_envelope_meets_the_p_rule_at_the_given_alpha():
    """At alpha = 600 only 2 alpha = 1200 is past the p rule; the envelope never uses p, so 600 is valid."""
    assert free_particle_envelope(ring(16), CouplingModel(alpha=600.0)) == math.sqrt(2.0)
    with pytest.raises(ValueError, match=r"alpha = 2000.0 is too large: p = 2\*\*\(alpha \+ 1\) overflows"):
        free_particle_envelope(ring(16), CouplingModel(alpha=2000.0))


def test_envelope_slope_alpha_quarter():
    pts = [(n, free_particle_envelope(ring(n), CouplingModel(alpha=0.25))) for n in (10**3, 10**4, 10**5, 10**6)]
    assert fit_model("pure_power", pts).coefficients[1] == pytest.approx(0.25, abs=0.05)


def test_many_site_reduces_to_analytic():
    spec = ring(12)
    model = CouplingModel(alpha=0.75)
    params = self_hop_lambda(spec, model)
    ms = many_site_bound(spec, model, [0], [5], 0.07)
    an = analytic_bound(params, 5.0, 0.07)
    assert ms.value == pytest.approx(an.value, rel=1e-12)


def test_many_site_hand_value():
    # pair sum 1/10 + 1/20 + 1/10 = 1/4 against exp(2.5) growth
    b = many_site_bound(ring(4), CouplingModel(alpha=1.0), [0], [1, 2, 3], 0.1)
    assert b.value == pytest.approx(2 * (math.exp(2.5) - 1) * 0.25, rel=1e-12)
    assert b.separation == 1.0
    assert many_site_bound(ring(4), CouplingModel(alpha=1.0), {0}, (j for j in (3, 1, 2)), 0.1) == b


def test_many_site_zero_time():
    assert many_site_bound(ring(4), CouplingModel(alpha=1.0), [0], [1, 2, 3], 0.0).value == 0.0


def test_many_site_overlap_rejected():
    with pytest.raises(ValueError):
        many_site_bound(ring(6), CouplingModel(alpha=1.0), [0, 1], [1, 2], 0.1)


@pytest.mark.parametrize(
    "site,message",
    [(-1, "site -1 outside"), (6, "site 6 outside"), (1.5, "holds float64 sites, not integers in")],
    ids=["-1", "N", "1.5"],
)
@pytest.mark.parametrize("name", ["X", "Y"])
def test_many_site_region_site_outside_the_lattice_rejected(name, site, message):
    # each bad site shares its region with a valid one, on the side where sorting puts it
    region_x, region_y = ([1, site], [3]) if name == "X" else ([0], [site, 2])
    with pytest.raises(ValueError, match=rf"region {name} {message} \[0, 6\)"):
        many_site_bound(ring(6), CouplingModel(alpha=1.0), region_x, region_y, 0.1)


def test_many_site_empty_region_rejected():
    with pytest.raises(ValueError):
        many_site_bound(ring(6), CouplingModel(alpha=1.0), [], [1, 2], 0.1)


@pytest.mark.parametrize("region_x", [[3], [0, 3], [3, 5], [1, 3, 5]], ids=["one", "low", "high", "middle"])
def test_many_site_overlap_anywhere_rejected(region_x):
    with pytest.raises(ValueError, match="regions must be disjoint"):
        many_site_bound(ring(6), CouplingModel(alpha=1.0), region_x, [2, 3, 4], 0.1)


def test_many_site_regions_are_deduplicated_in_any_container():
    spec, model = ring(16), CouplingModel(alpha=0.7)
    b = many_site_bound(spec, model, [0, 1], [4, 9, 12], 0.05)
    for region_x, region_y in [
        ([1, 0, 1, 0], [12, 4, 9, 4, 12]),
        (np.array([1, 0, 0]), np.array([9, 12, 4, 9])),
        (range(2), (j for j in (12, 12, 9, 4))),
        ((1, 0), {4, 9, 12}),
    ]:
        assert many_site_bound(spec, model, region_x, region_y, 0.05) == b


def test_many_site_regions_do_not_import_numpy_ma():
    """np.unique and np.intersect1d import numpy.ma (about 20 ms on a first call).

    Neither the region checks nor the r grid of ``bound --r-logspace`` use them.
    """
    code = (
        "import os, sys; from lr_horizon import CouplingModel, many_site_bound, ring; "
        "from lr_horizon.cli import main; "
        "many_site_bound(ring(8), CouplingModel(alpha=0.5), [0, 0], [3, 1, 3], 0.1); "
        "main(['bound', '--N', '64', '--r-logspace', '5', '--t', '0.1', '--out', os.devnull]); "
        "print('numpy.ma' in sys.modules)"
    )
    src = str(Path(bounds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"
