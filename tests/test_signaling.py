import math

import numpy as np
import pytest

from lr_horizon import (
    BoundPrefactor,
    CouplingModel,
    LatticeSpec,
    NoCrossingError,
    SignalingSpec,
    analytic_bound,
    chain,
    exact_sum_bound,
    exact_sum_signaling_time,
    fit_pure_power,
    fourier_spectrum,
    ising_exact_oracle,
    ising_signal,
    ising_signaling_time,
    many_site_bound,
    many_site_signaling_time,
    ring,
    self_hop_lambda,
    signaling_contour,
    signaling_time_analytic,
)
from lr_horizon import bounds, kernels, signaling
from lr_horizon.kernels import FourierSpectrum

RING4_ALPHA1 = self_hop_lambda(ring(4), CouplingModel(alpha=1.0))


def _prefactor_solvers(norm_a):
    """The three solvers whose delta window is (0, 2||A||||B||), as delta -> t_star, with ||B|| = 1."""
    spec, model = ring(64), CouplingModel(alpha=0.5)
    pre = BoundPrefactor(norm_A=norm_a)
    params = self_hop_lambda(spec, model)
    return [
        lambda d: signaling_time_analytic(params, SignalingSpec(delta=d, prefactor=pre), 1.0),
        lambda d: exact_sum_signaling_time(64, 0.5, 1, d, pre=pre),
        lambda d: many_site_signaling_time(spec, model, [0], range(1, 64), d, norms=(norm_a, 1.0)),
    ]


@pytest.mark.parametrize("norm_a", [1.0, 2.0])
@pytest.mark.parametrize("which", range(3), ids=["analytic", "exact_sum", "many_site"])
def test_prefactor_solvers_share_the_delta_window(norm_a, which):
    solve = _prefactor_solvers(norm_a)[which]
    trivial = 2.0 * norm_a
    for delta in (0.0, -1.0, trivial, trivial + 1.0):
        with pytest.raises(ValueError, match=rf"delta must lie in \(0, {trivial}\), got {delta}"):
            solve(delta)
    assert solve(0.95 * trivial).t_star > 0


def test_signaling_spec_threshold_window():
    SignalingSpec(delta=1.9)
    with pytest.raises(ValueError):
        SignalingSpec(delta=0.0)
    with pytest.raises(ValueError):
        SignalingSpec(delta=2.0)  # trivial commutator bound for unit norms


def test_analytic_inversion_hand_value():
    # lam=2.5, p=4, r=2: ln(1 + 1*2.5*4*2/2) / (2*2.5*5)
    res = signaling_time_analytic(RING4_ALPHA1, SignalingSpec(delta=1.0), 2.0)
    assert res.t_star == pytest.approx(math.log(11) / 25, rel=1e-13)
    assert res.method == "analytic"


def test_analytic_inversion_small_delta_limit():
    t = signaling_time_analytic(RING4_ALPHA1, SignalingSpec(delta=1e-12), 2.0).t_star
    assert 0 < t < 1e-11


def test_analytic_inversion_consistency():
    """Plugging t* back into the bound recovers delta."""
    for delta in (0.25, 1.0, 1.7):
        res = signaling_time_analytic(RING4_ALPHA1, SignalingSpec(delta=delta), 2.0)
        assert analytic_bound(RING4_ALPHA1, r=2.0, t=res.t_star).value == pytest.approx(delta, abs=1e-12)


def test_numeric_matches_analytic():
    params = self_hop_lambda(ring(32), CouplingModel(alpha=0.5))

    def bound_fn(t):
        return analytic_bound(params, r=5.0, t=t).value

    closed = signaling_time_analytic(params, SignalingSpec(delta=1.0), 5.0).t_star
    t_star, (lo, hi) = signaling._solve(bound_fn, 1.0, 1.0 / (2 * params.lam * (1 + params.p)))
    assert t_star == pytest.approx(closed, rel=1e-9)
    assert lo <= t_star <= hi


def test_numeric_round_trip():
    bound_fn = lambda t: t**3  # monotone through 0
    delta = bound_fn(0.37)
    assert signaling._solve(bound_fn, delta, 0.05)[0] == pytest.approx(0.37, rel=1e-9)


def test_numeric_scale_invariance():
    bound_fn = lambda t: math.expm1(3 * t)
    base = signaling._solve(bound_fn, 1.0, 0.1)[0]
    scaled = signaling._solve(lambda t: 40.0 * bound_fn(t), 40.0, 0.1)[0]
    assert scaled == pytest.approx(base, rel=1e-9)


def test_numeric_no_crossing():
    # bounded function never reaches delta
    with pytest.raises(NoCrossingError):
        signaling._solve(lambda t: -math.expm1(-t), 2.0, 0.1)


def test_contour_values():
    assert signaling_contour(math.e, 0.0, 1.0) == pytest.approx(1 / math.e, rel=1e-13)
    n, alpha = 5000.0, 0.4
    assert signaling_contour(n, alpha, 1.0) == pytest.approx(
        math.log(n ** (1 - alpha)) / n ** (1 - alpha), rel=1e-12
    )
    # r = N collapses the argument to N itself
    assert signaling_contour(n, alpha, n) == pytest.approx(math.log(n) / n ** (1 - alpha), rel=1e-12)


def test_contour_requires_alpha_below_one():
    with pytest.raises(ValueError):
        signaling_contour(100.0, 1.0, 1.0)


def test_many_site_hand_value():
    res = many_site_signaling_time(ring(4), CouplingModel(alpha=1.0), [0], [1, 2, 3], 1.0)
    assert res.t_star == pytest.approx(math.log(3) / 25, rel=1e-9)


def test_many_site_small_delta_limit():
    res = many_site_signaling_time(ring(4), CouplingModel(alpha=1.0), [0], [1, 2, 3], 1e-10)
    assert 0 < res.t_star < 1e-10


def test_many_site_scaling_exponent():
    """t* against the full complement falls off as N^(alpha-1)."""
    for alpha, target in ((0.0, -1.0), (0.5, -0.5)):
        pts = []
        for n in (256, 512, 1024, 2048, 4096):
            res = many_site_signaling_time(ring(n), CouplingModel(alpha=alpha), [0], list(range(1, n)), 1.0)
            pts.append((n, res.t_star))
        assert fit_pure_power(pts).coefficients[1] == pytest.approx(target, abs=0.1)


@pytest.mark.parametrize(
    "spec, region_x, region_y, norms",
    [
        (ring(48), [0, 5], list(range(10, 40)), (1.0, 1.0)),
        (chain(64), [0, 1, 2], list(range(3, 64)), (0.7, 1.3)),
        (LatticeSpec(dimension=2, linear_size=6, boundary="open"), [0, 7], [20, 28, 35], (2.0, 0.5)),
        (chain(40), [10], list(range(20, 40)), (1.0, 1.0)),
    ],
    # The last two ids are kept from when these cases also checked Kac rescaling.
    ids=["ring", "open_chain", "open_box_2d_kac", "open_chain_kac"],
)
@pytest.mark.parametrize("alpha", [0.0, 0.6, 1.7])
def test_many_site_closed_form_matches_bisection(spec, region_x, region_y, norms, alpha):
    """The closed-form inversion agrees with bisecting many_site_bound itself."""
    model = CouplingModel(alpha=alpha)
    delta = 0.8
    res = many_site_signaling_time(spec, model, region_x, region_y, delta, norms)
    params = self_hop_lambda(spec, model)
    ref, _ = signaling._solve(
        lambda t: many_site_bound(spec, model, region_x, region_y, t, norms).value,
        delta,
        1.0 / (2.0 * params.lam * (1.0 + params.p)),
    )
    assert res.t_star == pytest.approx(ref, rel=1e-9)
    assert res.bracket is None


def test_many_site_signaling_computes_lambda_once(monkeypatch):
    calls = []

    def counted(spec, model):
        calls.append(spec)
        return kernels.self_hop_lambda(spec, model)

    for module in (bounds, signaling):
        if hasattr(module, "self_hop_lambda"):
            monkeypatch.setattr(module, "self_hop_lambda", counted)
    many_site_signaling_time(chain(64), CouplingModel(alpha=0.5), [0, 1], list(range(8, 64)), 1.0)
    assert len(calls) == 1


def test_exact_sum_signaling_regression_fixture():
    """Bisection against the series bound; value frozen from this solver."""
    res = exact_sum_signaling_time(10**4, 0.5, 1, 1.0)
    assert res.t_star == pytest.approx(0.00615981581116, rel=1e-6)


@pytest.mark.parametrize("n", [16, 17, 1000, 10**4])
@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5, 0.9, 1.0])
def test_exact_sum_newton_matches_bisection(n, alpha, monkeypatch):
    """The Newton solve agrees with bisection on exact_sum_bound, in fewer series calls, and certifies its bracket."""
    spectrum = fourier_spectrum(n, alpha)
    t_init = 1.0 / (2 * spectrum.lam * (1 + 2 ** (alpha + 1)))
    evaluations = []
    evaluate = FourierSpectrum.series

    def counted(spectrum, r, t):
        evaluations.append(t)
        return evaluate(spectrum, r, t)

    monkeypatch.setattr(FourierSpectrum, "series", counted)
    for r in sorted({1, n // 4, n // 2}):
        for delta in (0.5, 1.0):

            def bound(t):
                return exact_sum_bound(n, alpha, r, t, spectrum=spectrum).value

            evaluations.clear()
            res = exact_sum_signaling_time(n, alpha, r, delta, spectrum=spectrum)
            newton_calls = len(evaluations)
            assert newton_calls <= 24
            evaluations.clear()
            ref, _ = signaling._solve(bound, delta, t_init)
            assert newton_calls < len(evaluations)
            assert res.t_star == pytest.approx(ref, rel=1e-9)
            lo, hi = res.bracket
            assert lo <= res.t_star <= hi
            assert hi - lo <= signaling.BISECT_REL_TOL * hi
            assert bound(lo) < delta <= bound(hi)


@pytest.mark.parametrize("alpha", [0.0, 0.6, 1.7])
@pytest.mark.parametrize("delta", [1e-6, 0.8, 1.9])
def test_newton_solve_matches_one_pair_crossing(alpha, delta):
    """Given a closed-form slope, the solver's Newton path is not tied to the ring series."""
    params = self_hop_lambda(ring(64), CouplingModel(alpha=alpha))
    bound = bounds.PairSum.one_pair(params, 2.0, 5.0)
    lam, p = params.lam, params.p

    def slope(t):
        return bound.scale * bound.weight * 2.0 * (1.0 + p) * math.exp(2.0 * lam * (1.0 + p) * t) / p

    t_star, (lo, hi) = signaling._solve(bound, delta, 1.0 / (2.0 * lam * (1.0 + p)), slope=slope)
    assert t_star == pytest.approx(bound.crossing(delta), rel=1e-12)
    assert lo <= t_star <= hi
    assert hi - lo <= signaling.BISECT_REL_TOL * hi
    assert bound(lo) < delta <= bound(hi)


def test_exact_sum_confirmation_falls_back_to_bisection(monkeypatch):
    """A slope far too steep stops Newton at once, away from t*; the bracket check catches it."""
    n, alpha, r = 1000, 0.5, 1
    slope = FourierSpectrum.slope
    monkeypatch.setattr(FourierSpectrum, "slope", lambda spectrum, r, t: 1e12 * slope(spectrum, r, t))
    res = exact_sum_signaling_time(n, alpha, r, 1.0)
    monkeypatch.undo()
    ref = exact_sum_signaling_time(n, alpha, r, 1.0)
    assert res.t_star == pytest.approx(ref.t_star, rel=1e-9)
    lo, hi = res.bracket
    assert lo <= res.t_star <= hi
    assert hi - lo <= signaling.BISECT_REL_TOL * hi
    assert exact_sum_bound(n, alpha, r, lo).value < 1.0 <= exact_sum_bound(n, alpha, r, hi).value


def test_one_spectrum_matches_fresh_spectra_when_calls_interleave():
    """The weights kept per r, slope weights and exponentials kept per t never leak across calls.

    Every value from one shared spectrum equals the value from a fresh
    spectrum per call, while bounds alternate r and t and solves at
    other r run between them. The second shared spectrum also holds the
    exponentials of t2 and of a saturating t, which t1 and the solves'
    own times do not disturb.
    """
    n, alpha = 1000, 0.5
    plain, holding = fourier_spectrum(n, alpha), fourier_spectrum(n, alpha)
    r1, r2, r3 = 1, n // 4, n // 2
    t1, t2, t_sat = 0.3 / plain.lam, 1.0 / plain.lam, 1000.0 / plain.lam
    holding.hold_times([t2, t_sat, t2])

    def bound(r, t, shared=None):
        return exact_sum_bound(n, alpha, r, t, spectrum=shared).value

    def solve(r, shared=None):
        res = exact_sum_signaling_time(n, alpha, r, 1.0, spectrum=shared)
        return res.t_star, res.bracket

    def slope(r, t, shared=None):
        return (shared or fourier_spectrum(n, alpha)).slope(r, t)

    for spectrum in plain, holding:
        for r, t in [(r1, t1), (r2, t1), (r1, t2), (r2, t2), (r2, t1)]:
            assert bound(r, t, spectrum) == bound(r, t)
        assert solve(r1, spectrum) == solve(r1)
        assert slope(r1, t2, spectrum) == slope(r1, t2)
        assert slope(r3, t1, spectrum) == slope(r3, t1)
        assert solve(r3, spectrum) == solve(r3)
        assert bound(r1, t1, spectrum) == bound(r1, t1)
        assert bound(r1, t2, spectrum) == bound(r1, t2)
        assert solve(r2, spectrum) == solve(r2)
        assert slope(r2, t2, spectrum) == slope(r2, t2)
        assert bound(r3, t2, spectrum) == bound(r3, t2)
        assert bound(r3, t1, spectrum) == bound(r3, t1)
        assert bound(r2, t_sat, spectrum) == bound(r2, t_sat) == math.inf


def test_exact_sum_solve_rejects_alpha_whose_p_overflows():
    with pytest.raises(ValueError, match="overflows"):
        exact_sum_signaling_time(16, 1100.0, 1, 1.0)


def test_exact_sum_solve_rejects_a_non_integral_r():
    with pytest.raises(ValueError, match="r must be an integer in"):
        exact_sum_signaling_time(100, 0.5, 2.5, 1.0)


def test_exact_sum_solve_reaches_large_alpha():
    """The bracket seed 1 / (2 omega_max) does not shrink with p = 2**(alpha + 1)."""
    times = {exact_sum_signaling_time(16, alpha, 1, 1.0).t_star for alpha in (150.0, 200.0, 250.0, 1000.0)}
    assert len(times) == 1
    assert times.pop() == pytest.approx(0.13836986929155298, rel=1e-12)


@pytest.mark.parametrize("n,alpha,r", [(100, math.nan, 2), (100, -0.5, 2), (100, 0.5, math.nan), (math.inf, 0.5, 2)])
def test_contour_rejects_non_finite_inputs(n, alpha, r):
    with pytest.raises(ValueError):
        signaling_contour(n, alpha, r)


def test_ising_signal_values():
    spec = ring(4)
    model = CouplingModel(alpha=1.0)
    assert ising_signal(spec, model, 0, 0.0) == 0.0
    assert ising_signal(spec, model, 0, math.pi / 30) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("make", [ring, chain])
def test_ising_signal_matches_dense_oracle(alpha, make):
    rng = np.random.default_rng(11)
    for n in (2, 3, 5, 8):
        if make is ring and n == 2:
            continue
        spec = make(n)
        model = CouplingModel(alpha=alpha)
        for t in rng.uniform(0.0, 1.0, size=5):
            assert ising_exact_oracle(spec, model, 0, float(t)) == pytest.approx(
                ising_signal(spec, model, 0, float(t)), abs=1e-10
            )


def test_ising_signaling_time_hand_value():
    t = ising_signaling_time(ring(4), CouplingModel(alpha=1.0), 0, 0.5)
    assert t == pytest.approx(math.pi / 30, rel=1e-12)


def test_ising_signaling_time_delta_window():
    # |sin(2 lam t)| reaches 1 at t = pi / (4 lam), with lam = 2.5 on ring(4) at alpha = 1
    assert ising_signaling_time(ring(4), CouplingModel(alpha=1.0), 0, 1.0) == pytest.approx(math.pi / 10, rel=1e-12)
    with pytest.raises(ValueError):
        ising_signaling_time(ring(4), CouplingModel(alpha=1.0), 0, 1.0 + 1e-9)
    with pytest.raises(ValueError):
        ising_signaling_time(ring(4), CouplingModel(alpha=1.0), 0, 0.0)


def test_ising_signaling_time_scaling():
    pts = [(n, ising_signaling_time(ring(n), CouplingModel(alpha=0.5), 0, 0.5)) for n in (256, 1024, 4096, 16384)]
    assert fit_pure_power(pts).coefficients[1] == pytest.approx(-0.5, abs=0.05)
