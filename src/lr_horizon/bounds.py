"""Commutator-norm bounds for strongly long-range hopping systems.

Four evaluators share the ``BoundValue`` result type:

* ``analytic_bound`` -- closed form with explicit constants,
  2 ||A|| ||B|| |X| |Y| (exp(2 lam (1+p) t) - 1) / (lam p r**alpha),
  the one-pair ``PairSum`` (which also inverts it for t).
* ``exact_sum_bound`` -- the full hop series summed on a ring through
  the circulant Fourier spectrum (tighter; D = 1 only).
* ``free_particle_bound`` -- the schedule integral
  int_0^t sqrt(sum_i |J_iX(tau)|**2) dtau for piecewise-constant
  schedules, valid for non-interacting particles.
* ``many_site_bound`` -- the analytic form summed over all pairs
  (i in X, j in Y) for extended regions; the ``PairSum`` over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import FourierSpectrum, HopParameters, fourier_spectrum, self_hop_lambda
from .lattice import CouplingModel, LatticeSpec, distances_from

# Inverse-transform values below -NEGATIVE_FLOOR * (series max) indicate
# a real sign error rather than roundoff.
NEGATIVE_FLOOR = 1e-8

# exp overflows past ~709.78; beyond this the bound saturates anyway.
_EXP_ARG_MAX = 700.0


@dataclass(frozen=True)
class BoundPrefactor:
    """Operator norms and region sizes multiplying every bound."""

    norm_A: float = 1.0
    norm_B: float = 1.0
    size_X: int = 1
    size_Y: int = 1

    def __post_init__(self) -> None:
        if self.norm_A <= 0 or self.norm_B <= 0:
            raise ValueError("operator norms must be positive")
        if self.size_X < 1 or self.size_Y < 1:
            raise ValueError("region sizes must be >= 1")

    @property
    def scale(self) -> float:
        """The overall factor 2 ||A|| ||B|| |X| |Y|."""
        return 2.0 * self.norm_A * self.norm_B * self.size_X * self.size_Y

    @property
    def trivial_bound(self) -> float:
        """2 ||A|| ||B||, the norm bound no commutator can exceed."""
        return 2.0 * self.norm_A * self.norm_B


UNIT_PREFACTOR = BoundPrefactor()


@dataclass(frozen=True)
class BoundValue:
    """A commutator-norm bound at one (t, r) point.

    ``saturated`` marks values past the trivial bound 2 ||A|| ||B||
    (including overflow to +inf); solvers may stop growing t there.
    """

    value: float
    time: float
    separation: float
    method: str
    saturated: bool = False


@dataclass(frozen=True)
class HopSchedule:
    """Piecewise-constant |J_iX(tau)| rows with durations."""

    segments: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self) -> None:
        for duration, _ in self.segments:
            if duration <= 0:
                raise ValueError("segment durations must be positive")

    @property
    def total_time(self) -> float:
        return sum(duration for duration, _ in self.segments)


def _flag(value: float, t: float, r: float, method: str, pre: BoundPrefactor) -> BoundValue:
    saturated = not math.isfinite(value) or value > pre.trivial_bound
    return BoundValue(value=value, time=t, separation=r, method=method, saturated=saturated)


@dataclass(frozen=True)
class PairSum:
    """The analytic bound summed over a set of site pairs, as a function of t.

    ``bound(t)`` is B(t) = s W expm1(2 lam (1+p) t) / (lam p), with W the
    pair weight sum r_ij**(-alpha) and s the prefactor scale. B is closed
    form in t, and so is its inverse ``crossing``. ``separation`` is the
    smallest pair distance. ``analytic_bound`` is the one-pair case,
    ``many_site_bound`` the sum over all pairs between two regions.
    """

    params: HopParameters
    scale: float
    weight: float
    separation: float

    @classmethod
    def one_pair(cls, params: HopParameters, scale: float, r: float) -> PairSum:
        if r < 1:
            raise ValueError("separation r must be >= 1")
        return cls(params, scale, r ** (-params.alpha), r)

    @classmethod
    def between(cls, spec: LatticeSpec, model: CouplingModel, region_x, region_y, scale: float) -> PairSum:
        """All pairs (i in X, j in Y) of two disjoint nonempty regions; lambda is computed once."""
        xs, ys = sorted(set(region_x)), sorted(set(region_y))
        if not xs or not ys:
            raise ValueError("regions must be nonempty")
        if set(xs) & set(ys):
            raise ValueError("regions must be disjoint")
        weight = 0.0
        min_dist = math.inf
        for i in xs:
            d = distances_from(spec, i)[ys]
            weight += float(np.sum(d ** (-model.alpha)))
            min_dist = min(min_dist, float(d.min()))
        return cls(self_hop_lambda(spec, model), scale, weight, min_dist)

    def __call__(self, t: float) -> float:
        """B(t), or +inf once the exponent passes the overflow limit."""
        lam, p = self.params.lam, self.params.p
        arg = 2.0 * lam * (1.0 + p) * t
        if arg > _EXP_ARG_MAX:
            return math.inf
        return self.scale * math.expm1(arg) / (lam * p) * self.weight

    def crossing(self, delta: float) -> float:
        """The t at which B(t) = delta: ln(1 + delta lam p / (s W)) / (2 lam (1+p))."""
        if delta <= 0:
            raise ValueError("delta must be positive")
        lam, p = self.params.lam, self.params.p
        return math.log1p(delta * lam * p / (self.scale * self.weight)) / (2.0 * lam * (1.0 + p))


def analytic_bound(
    params: HopParameters,
    pre: BoundPrefactor = UNIT_PREFACTOR,
    r: float = 1.0,
    t: float = 0.0,
) -> BoundValue:
    """Closed-form bound 2||A||||B|||X||Y| (e^(2 lam (1+p) t) - 1) / (lam p r^alpha).

    The one-pair ``PairSum``. Stated for alpha < D; at alpha = D the
    same formula is evaluated with the log-scaling value of lambda.
    Exponential overflow returns +inf flagged as saturated.
    """
    bound = PairSum.one_pair(params, pre.scale, r)
    if t < 0:
        raise ValueError("t must be >= 0")
    return _flag(bound(t), t, r, "analytic", pre)


class RingSeries:
    """The ring hop series at one separation r, as a function of t.

    ``series(t)`` is B(t) = s sum_p c_p expm1(2 omega_p t) over the half
    spectrum p = 0 .. N // 2, with s = 2||A||||B|||X||Y| and weights
    c_p = w_p cos(2 pi p r / N) / N. ``w_p = 2`` folds in the mirror
    eigenvalue omega(N - p) = omega(p); p = 0 and, for even N, p = N / 2
    are their own mirrors, so w_p = 1. The weights are built once, so a
    solver evaluating many t at one r pays one exponential array per t,
    and ``slope(t)`` reuses the exponentials of the last ``series(t)``.
    """

    def __init__(
        self,
        n_sites: int,
        alpha: float,
        r: int,
        pre: BoundPrefactor = UNIT_PREFACTOR,
        spectrum: FourierSpectrum | None = None,
    ) -> None:
        if not 1 <= r <= n_sites // 2:
            raise ValueError(f"r must be in [1, N/2], got r={r} with N={n_sites}")
        if spectrum is None:
            spectrum = fourier_spectrum(n_sites, alpha)
        elif spectrum.n_sites != n_sites or spectrum.alpha != alpha:
            raise ValueError("spectrum was computed for different (N, alpha)")
        weights = np.cos((2.0 * math.pi * r / n_sites) * np.arange(n_sites // 2 + 1))
        weights *= 2.0 / n_sites
        weights[0] *= 0.5
        if n_sites % 2 == 0:
            weights[-1] *= 0.5
        self.spectrum = spectrum
        self.scale = pre.scale
        self._weights = weights
        self._slope: tuple[np.ndarray, float] | None = None  # c_p 2 omega_p and their sum
        self._last: tuple[float, np.ndarray | None] = (math.nan, None)

    def _terms(self, t: float) -> np.ndarray | None:
        """expm1(2 t omega_p), or None once the largest exponent overflows."""
        t_last, terms = self._last
        if t != t_last:
            if 2.0 * t * self.spectrum.omega_max > _EXP_ARG_MAX:
                terms = None
            else:
                terms = np.expm1(2.0 * t * self.spectrum.omega)
            self._last = (t, terms)
        return terms

    def __call__(self, t: float) -> float:
        """B(t), or +inf past overflow.

        Tiny negative sums from roundoff are clamped to zero; one below
        -``NEGATIVE_FLOOR`` times the largest term (over N) is a sign
        error, not roundoff, and raises.
        """
        terms = self._terms(t)
        if terms is None:
            return math.inf
        raw = float(np.dot(self._weights, terms))
        if raw < 0.0:
            floor = NEGATIVE_FLOOR * float(terms.max()) / self.spectrum.n_sites
            if raw < -floor:
                raise RuntimeError(f"inverse transform returned {raw:.3e}, beyond roundoff floor")
            raw = 0.0
        return self.scale * raw

    def slope(self, t: float) -> float:
        """dB/dt = s sum_p c_p 2 omega_p e^(2 omega_p t), or +inf past overflow."""
        terms = self._terms(t)
        if terms is None:
            return math.inf
        if self._slope is None:
            slope_weights = self._weights * (2.0 * self.spectrum.omega)
            self._slope = (slope_weights, float(slope_weights.sum()))
        slope_weights, at_zero = self._slope
        return self.scale * (float(np.dot(slope_weights, terms)) + at_zero)


def exact_sum_bound(
    n_sites: int,
    alpha: float,
    r: int,
    t: float,
    pre: BoundPrefactor = UNIT_PREFACTOR,
    spectrum: FourierSpectrum | None = None,
) -> BoundValue:
    """Exact hop-series bound on a ring via the inverse circulant transform.

    Evaluates 2||A||||B|||X||Y| * (1/N) sum_p cos(2 pi p r / N)
    (e^(2 omega(p) t) - 1) as one weighted sum over the half spectrum
    (see ``RingSeries``).
    Pass a precomputed ``spectrum`` to amortize the FFT across a sweep;
    it must match ``(n_sites, alpha)``.

    Tiny negative results from roundoff are clamped to zero; a negative
    value beyond roundoff scale raises. Overflow returns +inf flagged
    saturated.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    value = RingSeries(n_sites, alpha, r, pre, spectrum)(t)
    return _flag(value, t, float(r), "exact_sum", pre)


def exact_sum_bound_alpha0_closed_form(n_sites: int, t: float) -> float:
    """Closed form of the ring series at alpha = 0 for r != 0.

    (e^(4(N-1)t) - e^(2(N-2)t)) / N, before the 2||A||||B|||X||Y|
    prefactor. The looser displayed form (e^(4Nt) - 1)/N bounds it from
    above for every t >= 0.
    """
    if n_sites < 3:
        raise ValueError("need at least 3 sites")
    if t < 0:
        raise ValueError("t must be >= 0")
    n = n_sites
    return (math.exp(4.0 * (n - 1) * t) - math.exp(2.0 * (n - 2) * t)) / n


def free_particle_bound(schedule: HopSchedule) -> float:
    """Schedule integral sum_segments duration * sqrt(sum_i |J_iX|**2)."""
    if not schedule.segments:
        raise ValueError("schedule must contain at least one segment")
    total = 0.0
    for duration, row in schedule.segments:
        arr = np.asarray(row, dtype=float)
        total += duration * float(np.sqrt(np.sum(arr * arr)))
    return total


def free_particle_envelope(spec: LatticeSpec, model: CouplingModel) -> float:
    """Per-unit-time ceiling max_X sqrt(sum_{i != X} r_iX**(-2 alpha)).

    The largest row sum at exponent 2 alpha is the self-hop strength of
    the coupling r**(-2 alpha), so this is sqrt(lambda) for that model.
    Scales as N**(1/2 - alpha/D) for alpha <= D/2 and stays O(1) above.
    """
    return math.sqrt(self_hop_lambda(spec, CouplingModel(alpha=2.0 * model.alpha)).lam)


def many_site_bound(
    spec: LatticeSpec,
    model: CouplingModel,
    region_x,
    region_y,
    t: float,
    norms: tuple[float, float] = (1.0, 1.0),
) -> BoundValue:
    """Analytic bound summed over all pairs between two disjoint regions.

    2 ||A|| ||B|| sum_{i in X, j in Y} (e^(2 lam (1+p) t) - 1)
    / (lam p r_ij**alpha), the ``PairSum`` over those pairs. Reduces to
    ``analytic_bound`` when both regions are single sites.
    ``separation`` reports the minimum pair distance.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    pre = BoundPrefactor(norm_A=norms[0], norm_B=norms[1])
    bound = PairSum.between(spec, model, region_x, region_y, pre.scale)
    return _flag(bound(t), t, bound.separation, "many_site", pre)
