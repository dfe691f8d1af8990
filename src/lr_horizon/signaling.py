"""Signaling and scrambling time lower bounds.

A signaling time here is the earliest t at which a commutator-norm
bound reaches the threshold delta; since every evaluator upper-bounds
the true commutator, each t* is a lower bound on the physical signaling
time, up to the floating-point roundoff of the series. The many-site
variant doubles as a scrambling-time lower bound (scrambling from a
region is no faster than signaling to its complement).
The analytic and many-site bounds are closed form in t, and so is their
t* (``PairSum.crossing``, no bracket). The ring series takes safeguarded
Newton steps in ``_solve``, the one numeric solver; without a slope it
bisects, the reference the tests hold every solve to.
Every time here is physical; the CLI's ``--kac`` multiplies it by lambda.
A solve takes (family, where, delta, pre) as its bound takes (family,
where, t, pre), with delta in (0, 2||A||||B||): no commutator norm
reaches that trivial bound. The Ising protocol's signal is a sine, so
its delta lies in (0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import UNIT_PREFACTOR, BoundPrefactor, PairSum
from .kernels import FourierSpectrum, HopParameters, composition_constant, site_hop_strength, spectrum_for
from .lattice import CouplingModel, LatticeSpec

# Relative width in t of the bracket every numeric solve ends on;
# downstream exponent fits need 6+ significant digits across N spans
# of 10**2.
BISECT_REL_TOL = 1e-10
MAX_BRACKET_DOUBLINGS = 200
MAX_NEWTON_STEPS = 100


class NoCrossingError(RuntimeError):
    """The bound never reached delta within the bracket expansion."""


def _check_delta(delta: float, pre: BoundPrefactor) -> None:
    """A threshold lies in (0, 2||A||||B||): no commutator norm reaches the trivial bound."""
    if not 0 < delta < pre.trivial_bound:
        raise ValueError(f"delta must lie in (0, {pre.trivial_bound}), got {delta}")


@dataclass(frozen=True)
class SignalingTime:
    """Earliest physical time a bound reaches delta (t_star, bracket); a lower bound on t_si."""

    t_star: float
    method: str
    bracket: tuple[float, float] | None = None


def signaling_time_analytic(
    params: HopParameters, r: float, delta: float = 1.0, pre: BoundPrefactor = UNIT_PREFACTOR
) -> SignalingTime:
    """Invert the closed-form bound: t* = ln(1 + delta lam p r^alpha / s) / (2 lam (1+p)).

    ``s`` is the prefactor scale 2||A||||B|||X||Y|; this is
    ``PairSum.crossing`` for one pair.
    """
    _check_delta(delta, pre)
    t = PairSum.one_pair(params, pre, r).crossing(delta)
    return SignalingTime(t_star=t, method="analytic")


def _solve(value, delta, start, lo=0.0, hi=math.inf, value_and_slope=None, name="bound") -> tuple[float, tuple[float, float]]:
    """The t* at which a continuous increasing value(t) reaches delta, and its bracket (lo, hi).

    The caller's ``lo`` and ``hi`` bracket t*; the steps begin at ``start``
    clamped into them. An infinite ``hi`` doubles from there until value
    >= delta, or raises ``NoCrossingError`` after ``MAX_BRACKET_DOUBLINGS``.
    Inside, ``rtsafe`` (Numerical Recipes 9.4) takes Newton steps on
    ln(value / delta), close to linear in t for exponential bounds, and
    bisects whenever a step leaves the bracket or fails to halve the step
    before last; ``value_and_slope`` gives both from one evaluation, at the
    points it steps from, and without it the solve only bisects. Once a
    step is below half the tolerance, ``value`` at t*(1 -+
    ``BISECT_REL_TOL`` / 2), where inside the bracket, confirms it, or
    bisection finishes. A ``hi`` still unevaluated is evaluated then, and a
    ``lo`` of the caller's above 0 still unevaluated last: it must lie below
    delta, else ``RuntimeError``. Any evaluated point below delta replaces
    ``lo`` and, value being increasing, certifies the caller's. So value <
    delta at ``lo``, value >= delta at ``hi``, a relative ``BISECT_REL_TOL``
    apart, t* lies inside, and no t is evaluated twice. ``name`` opens the
    error messages.
    """
    lo_seen, hi_seen = lo == 0.0, False  # whether value(lo) < delta (taken at 0) and value(hi) >= delta are known

    def place(t: float, v: float) -> None:
        nonlocal lo, hi, lo_seen, hi_seen
        if v < delta:
            lo, lo_seen = t, True
        else:
            hi, hi_seen = t, True

    evaluate = value_and_slope or (lambda t: (value(t), math.nan))
    t_star = min(max(start, lo), hi)
    v, s = evaluate(t_star)
    place(t_star, v)
    doublings = 0
    while v < delta and hi == math.inf:
        doublings += 1
        if doublings > MAX_BRACKET_DOUBLINGS:
            raise NoCrossingError(f"{name} stayed below delta={delta} out to t={t_star:.3e}")
        t_star *= 2.0
        v, s = evaluate(t_star)
        place(t_star, v)

    step = step_before = hi - lo
    for _ in range(MAX_NEWTON_STEPS):
        newton = math.nan
        if 0.0 < v < math.inf and s > 0.0:
            newton = t_star - math.log(v / delta) * v / s
        if lo <= newton <= hi and abs(newton - t_star) <= 0.5 * step_before:
            step_before, step = step, abs(newton - t_star)
            t_star = newton
        else:
            step_before, step = step, 0.5 * (hi - lo)
            t_star = lo + step
        if step <= 0.5 * BISECT_REL_TOL * t_star:
            break
        v, s = evaluate(t_star)
        place(t_star, v)

    for t in (t_star * (1.0 - 0.5 * BISECT_REL_TOL), t_star * (1.0 + 0.5 * BISECT_REL_TOL)):
        if lo < t < hi:
            place(t, value(t))
    while hi - lo > BISECT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        place(mid, value(mid))
    if not hi_seen and not value(hi) >= delta:
        raise NoCrossingError(f"{name} stayed below delta={delta} at its upper end t={hi!r}")
    # An unseen lo equal to hi was evaluated as hi, at or past delta.
    if not lo_seen and not (lo < hi and value(lo) < delta):
        raise RuntimeError(f"{name} reaches delta={delta} at its lower end t={lo!r}")
    if not lo <= t_star <= hi:
        t_star = 0.5 * (lo + hi)
    return t_star, (lo, hi)


def signaling_contour(n_sites: float, alpha: float, r: float) -> float:
    """Asymptotic comparator log(N^(1-alpha) r^alpha) / N^(1-alpha).

    Valid for D = 1, alpha < 1. Carries no hidden constant (the
    threshold delta enters only through constants); use for fits and
    plots, never as a numeric equality.
    """
    if not 0 <= alpha < 1:
        raise ValueError(f"contour is stated for 0 <= alpha < 1, got {alpha}")
    if not (1 <= r < math.inf and 2 <= n_sites < math.inf):
        raise ValueError(f"need finite r >= 1 and N >= 2, got r={r}, N={n_sites}")
    scale = n_sites ** (1.0 - alpha)
    return math.log(scale * r**alpha) / scale


def many_site_signaling_time(
    spec: LatticeSpec,
    model: CouplingModel,
    region_x,
    region_y,
    delta: float = 1.0,
    pre: BoundPrefactor = UNIT_PREFACTOR,
) -> SignalingTime:
    """Earliest t at which the pair-summed analytic bound reaches delta.

    With |X| fixed and Y the complement this is simultaneously the
    many-site signaling bound and a scrambling-time lower bound. The
    bound ``many_site_bound`` is closed form in t, so lambda and the
    pair sum are computed once and ``PairSum.crossing`` inverts it
    exactly; there is no bracket. ``pre`` keeps sizes of 1, as for the bound.
    """
    _check_delta(delta, pre)
    bound = PairSum.between(spec, model, region_x, region_y, pre)
    return SignalingTime(t_star=bound.crossing(delta), method="many_site")


def exact_sum_signaling_time(
    n_sites: int,
    alpha: float,
    r: int,
    delta: float = 1.0,
    pre: BoundPrefactor = UNIT_PREFACTOR,
    spectrum: FourierSpectrum | None = None,
) -> SignalingTime:
    """Safeguarded Newton solve of the ring series bound in a closed-form bracket; the workhorse for the N sweeps.

    ``_solve`` steps on ``FourierSpectrum.series_and_slope`` at one r and
    checks with ``series``. The analytic bound lies above the series, so its
    t* is the lower end; every hop term is >= 0, so the series is at least
    2 t r^-alpha, and delta r^alpha / (2 s) is the upper end (s the
    prefactor scale). The steps start at t0 = ln(1 + N delta / s) / (4 lam),
    where the p = 0 term s expm1(4 lam t) / N alone reaches delta, close to
    t* at r = N/2. Where r^-alpha underflows the bracket doubles from t0.

    Pass a precomputed spectrum to amortize the FFT across many r or
    delta values at fixed (N, alpha); it must match ``(n_sites, alpha)``.
    """
    _check_delta(delta, pre)
    spectrum = spectrum_for(n_sites, alpha, spectrum)
    scale, lam = pre.scale, spectrum.lam
    weight = r ** -alpha if r >= 1 else 0.0  # ``series`` rejects an r off the ring
    lo, hi = 0.0, math.inf
    if weight > 0.0:
        lo = PairSum(HopParameters(lam, composition_constant(alpha), alpha), scale, weight, r).crossing(delta)
        hi = delta / (2.0 * scale * weight)
        lo = lo if lo < hi else 0.0  # a crossing that overflows
    t_star, bracket = _solve(
        lambda t: scale * spectrum.series(r, t),
        delta,
        math.log1p(n_sites * delta / scale) / (4.0 * lam),
        lo,
        hi,
        lambda t: tuple(scale * x for x in spectrum.series_and_slope(r, t)),
        f"ring series N={n_sites}, alpha={alpha}, r={r}",
    )
    return SignalingTime(t_star=t_star, method="exact_sum", bracket=bracket)


def ising_signal(spec: LatticeSpec, model: CouplingModel, i: int, t: float) -> float:
    """Exact commutator expectation sin(2 lambda_i t) of the Ising protocol.

    For the all-to-all Ising Hamiltonian sum_{j<k} J_jk sigma^z_j
    sigma^z_k acting on a GHZ state, with A = sigma^+ on site i and B
    the product of sigma^+ on every other site, the commutator
    expectation has magnitude sin(2 lambda_i t) where lambda_i is the
    coupling row sum at i. The dense oracle in ``dynamics`` reproduces
    this including the overall phase convention.
    """
    return math.sin(2.0 * t * site_hop_strength(spec, model, i))


def ising_signaling_time(spec: LatticeSpec, model: CouplingModel, i: int, delta: float) -> float:
    """First time |sin(2 lambda_i t)| reaches delta in (0, 1]: arcsin(delta) / (2 lambda_i)."""
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    return math.asin(delta) / (2.0 * site_hop_strength(spec, model, i))
