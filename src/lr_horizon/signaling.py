"""Signaling and scrambling time lower bounds.

A signaling time here is the earliest t at which a commutator-norm
bound reaches the threshold delta; since every evaluator upper-bounds
the true commutator, each t* is a certified lower bound on the physical
signaling time. The many-site variant doubles as a scrambling-time
lower bound (scrambling from a region is no faster than signaling to
its complement).
The analytic and many-site bounds are closed form in t, and so is their
t* (``PairSum.crossing``, no bracket). The ring series takes safeguarded
Newton steps; ``signaling_time_numeric`` bisects any monotone bound.
Every time here is physical; the CLI's ``--kac`` multiplies it by lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import UNIT_PREFACTOR, BoundPrefactor, PairSum, RingSeries
from .kernels import FourierSpectrum, HopParameters, site_hop_strength
from .lattice import CouplingModel, LatticeSpec

# Relative width in t of the bracket every numeric solve ends on;
# downstream exponent fits need 6+ significant digits across N spans
# of 10**2.
BISECT_REL_TOL = 1e-10
MAX_BRACKET_DOUBLINGS = 200
MAX_NEWTON_STEPS = 100


class NoCrossingError(RuntimeError):
    """The bound never reached delta within the bracket expansion."""


@dataclass(frozen=True)
class SignalingSpec:
    """Threshold and prefactors for a signaling-time query."""

    delta: float = 1.0
    prefactor: BoundPrefactor = UNIT_PREFACTOR

    def __post_init__(self) -> None:
        if not 0 < self.delta < self.prefactor.trivial_bound:
            raise ValueError(
                f"delta must lie in (0, {self.prefactor.trivial_bound}), got {self.delta}"
            )


@dataclass(frozen=True)
class SignalingTime:
    """Earliest physical time a bound reaches delta (t_star, bracket); a lower bound on t_si."""

    t_star: float
    method: str
    bracket: tuple[float, float] | None = None


def signaling_time_analytic(params: HopParameters, sig: SignalingSpec, r: float) -> SignalingTime:
    """Invert the closed-form bound: t* = ln(1 + delta lam p r^alpha / s) / (2 lam (1+p)).

    ``s`` is the prefactor scale 2||A||||B|||X||Y|; this is
    ``PairSum.crossing`` for one pair.
    """
    t = PairSum.one_pair(params, sig.prefactor.scale, r).crossing(sig.delta)
    return SignalingTime(t_star=t, method="analytic")


def _expand_bracket(bound_fn, delta: float, t_init: float) -> tuple[float, float, float]:
    """Double t from ``t_init`` until bound_fn(t) >= delta; return (lo, hi, bound_fn(hi)).

    Raises ``NoCrossingError`` after ``MAX_BRACKET_DOUBLINGS`` doublings.
    """
    lo, hi = 0.0, t_init
    value = bound_fn(hi)
    doublings = 0
    while value < delta:
        lo = hi
        hi *= 2.0
        doublings += 1
        if doublings > MAX_BRACKET_DOUBLINGS:
            raise NoCrossingError(f"bound stayed below delta={delta} out to t={hi:.3e}")
        value = bound_fn(hi)
    return lo, hi, value


def _bisect(bound_fn, delta: float, lo: float, hi: float) -> tuple[float, float]:
    """Halve [lo, hi], keeping bound_fn < delta at lo, to ``BISECT_REL_TOL`` relative width."""
    while hi - lo > BISECT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if bound_fn(mid) < delta:
            lo = mid
        else:
            hi = mid
    return lo, hi


def signaling_time_numeric(bound_fn, delta: float, t_init: float = 1.0) -> SignalingTime:
    """Bisect a monotone bound for the crossing bound_fn(t*) = delta.

    ``bound_fn`` must be continuous, strictly increasing, and 0 at t=0.
    The bracket grows geometrically from ``t_init`` (callers working
    from hop parameters should seed it with 1 / (2 lam (1 + p)), the
    natural time scale of the exponential bounds) and then bisects to
    ``BISECT_REL_TOL`` relative width.

    Raises
    ------
    NoCrossingError
        If delta is not reached after ``MAX_BRACKET_DOUBLINGS``
        doublings, i.e. delta sits above the bound's achievable range.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if t_init <= 0:
        raise ValueError("t_init must be positive")
    lo, hi, _ = _expand_bracket(bound_fn, delta, t_init)
    lo, hi = _bisect(bound_fn, delta, lo, hi)
    return SignalingTime(t_star=0.5 * (lo + hi), method="numeric", bracket=(lo, hi))


def signaling_contour(n_sites: float, alpha: float, r: float, delta: float = 1.0) -> float:
    """Asymptotic comparator log(N^(1-alpha) r^alpha) / N^(1-alpha).

    Valid for D = 1, alpha < 1. Carries no hidden constant (the
    threshold ``delta`` enters only through constants, so it does not
    appear in the expression); use for fits and plots, never as a
    numeric equality.
    """
    if alpha >= 1:
        raise ValueError("contour is stated for alpha < 1")
    if r < 1 or n_sites < 2:
        raise ValueError("need r >= 1 and N >= 2")
    scale = n_sites ** (1.0 - alpha)
    return math.log(scale * r**alpha) / scale


def many_site_signaling_time(
    spec: LatticeSpec,
    model: CouplingModel,
    region_x,
    region_y,
    delta: float = 1.0,
    norms: tuple[float, float] = (1.0, 1.0),
) -> SignalingTime:
    """Earliest t at which the pair-summed analytic bound reaches delta.

    With |X| fixed and Y the complement this is simultaneously the
    many-site signaling bound and a scrambling-time lower bound. The
    bound ``many_site_bound`` is closed form in t, so lambda and the
    pair sum are computed once and ``PairSum.crossing`` inverts it
    exactly; there is no bracket.
    """
    pre = BoundPrefactor(norm_A=norms[0], norm_B=norms[1])
    bound = PairSum.between(spec, model, region_x, region_y, pre.scale)
    return SignalingTime(t_star=bound.crossing(delta), method="many_site")


def exact_sum_signaling_time(
    n_sites: int,
    alpha: float,
    r: int,
    delta: float = 1.0,
    pre: BoundPrefactor = UNIT_PREFACTOR,
    spectrum: FourierSpectrum | None = None,
) -> SignalingTime:
    """Safeguarded Newton solve of the ring series bound; the workhorse for the N sweeps.

    The bracket grows geometrically from 1 / (2 lam (1 + p)) as in
    ``signaling_time_numeric``. Inside it, ``rtsafe`` (Numerical Recipes
    9.4) takes Newton steps on ln(B / delta), which is close to linear in
    t, and bisects whenever a step leaves the bracket or fails to halve
    the step before last. Once a step is below half the tolerance, B is
    evaluated at t*(1 -+ ``BISECT_REL_TOL`` / 2); if either lands on the
    wrong side of delta, bisection finishes the bracket. So the solve
    ends with B < delta at ``lo`` and B >= delta at ``hi``, a relative
    ``BISECT_REL_TOL`` apart, and ``t_star`` inside.

    Pass a precomputed spectrum to amortize the FFT across many r or
    delta values at fixed (N, alpha).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    series = RingSeries(n_sites, alpha, r, pre, spectrum)
    t_init = 1.0 / (2.0 * series.spectrum.lam * (1.0 + 2.0 ** (alpha + 1)))
    lo, hi, value = _expand_bracket(series, delta, t_init)

    t_star = hi
    step = step_before = hi - lo
    for _ in range(MAX_NEWTON_STEPS):
        newton = math.nan
        if 0.0 < value < math.inf:
            slope = series.slope(t_star)
            if slope > 0.0:
                newton = t_star - math.log(value / delta) * value / slope
        if lo <= newton <= hi and abs(newton - t_star) <= 0.5 * step_before:
            step_before, step = step, abs(newton - t_star)
            t_star = newton
        else:
            step_before, step = step, 0.5 * (hi - lo)
            t_star = lo + step
        if step <= 0.5 * BISECT_REL_TOL * t_star:
            break
        value = series(t_star)
        if value < delta:
            lo = t_star
        else:
            hi = t_star

    for t in (t_star * (1.0 - 0.5 * BISECT_REL_TOL), t_star * (1.0 + 0.5 * BISECT_REL_TOL)):
        if lo < t < hi:
            if series(t) < delta:
                lo = t
            else:
                hi = t
    lo, hi = _bisect(series, delta, lo, hi)
    if not lo <= t_star <= hi:
        t_star = 0.5 * (lo + hi)
    return SignalingTime(t_star=t_star, method="exact_sum", bracket=(lo, hi))


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
