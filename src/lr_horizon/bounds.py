"""Commutator-norm bounds for strongly long-range hopping systems.

Each prefactor bound takes (family, where, t, pre), ``pre`` a
``BoundPrefactor`` defaulting to ``UNIT_PREFACTOR``, and returns a ``BoundValue``:

* ``analytic_bound(params, r, t, pre)`` -- the closed form
  2 ||A|| ||B|| |X| |Y| (exp(2 lam (1+p) t) - 1) / (lam p r**alpha),
  the one-pair ``PairSum`` (which also inverts it for t).
* ``exact_sum_bound(n_sites, alpha, r, t, pre)`` -- the hop series on a ring
  (tighter; D = 1 only), the scale of ``pre`` times ``FourierSpectrum.series``.
* ``many_site_bound(spec, model, X, Y, t, pre)`` -- the ``PairSum`` over all
  pairs (i in X, j in Y); it counts |X| |Y|, so ``pre`` keeps sizes of 1.

``free_particle_bound`` integrates sqrt(sum_i |J_iX(tau)|**2) over a
piecewise-constant schedule (non-interacting particles); it has no prefactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (_EXP_ARG_MAX, FourierSpectrum, HopParameters, _check_time, composition_constant, row_sums,
                      self_hop_lambda, spectrum_for)
from .lattice import CouplingModel, LatticeSpec, distances_from


@dataclass(frozen=True)
class BoundPrefactor:
    """Operator norms and region sizes multiplying every bound."""

    norm_A: float = 1.0
    norm_B: float = 1.0
    size_X: int = 1
    size_Y: int = 1

    def __post_init__(self) -> None:
        if not (0 < self.norm_A < math.inf and 0 < self.norm_B < math.inf):
            raise ValueError(f"operator norms must be positive and finite, got {self.norm_A}, {self.norm_B}")
        if not (1 <= self.size_X < math.inf and 1 <= self.size_Y < math.inf):
            raise ValueError(f"region sizes must be finite and >= 1, got {self.size_X}, {self.size_Y}")

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
            if not 0 < duration < math.inf:
                raise ValueError(f"segment durations must be positive and finite, got {duration}")


def _flag(value: float, t: float, r: float, method: str, pre: BoundPrefactor) -> BoundValue:
    saturated = not math.isfinite(value) or value > pre.trivial_bound
    return BoundValue(value=value, time=t, separation=r, method=method, saturated=saturated)


def _distinct_sites(region) -> np.ndarray:
    """The sites of a region (any iterable) sorted, each once.

    No np.unique: its first call imports numpy.ma. The stable sort is a
    single pass over a region given in order, and its first call maps
    less code than the default sort's.
    """
    sites = region if isinstance(region, (list, tuple, range, np.ndarray)) else list(region)
    sites = np.sort(np.asarray(sites), kind="stable")
    keep = np.ones(sites.size, dtype=bool)
    keep[1:] = sites[1:] != sites[:-1]
    return sites[keep]


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

    def __post_init__(self) -> None:
        if not self.weight > 0:
            raise ValueError(
                f"pair weight r**(-alpha) is {self.weight} at alpha = {self.params.alpha}, "
                f"separation {self.separation}: it underflows a float"
            )

    @classmethod
    def one_pair(cls, params: HopParameters, pre: BoundPrefactor, r: float) -> PairSum:
        if not 1 <= r < math.inf:
            raise ValueError(f"separation r must be finite and >= 1, got {r}")
        return cls(params, pre.scale, r ** (-params.alpha), r)

    @classmethod
    def between(cls, spec: LatticeSpec, model: CouplingModel, region_x, region_y, pre: BoundPrefactor) -> PairSum:
        """All pairs (i in X, j in Y) of two disjoint nonempty regions, which count |X| |Y|; lambda is computed once."""
        if (pre.size_X, pre.size_Y) != (1, 1):
            raise ValueError(f"the pair sum counts the region sizes itself; pre must have size_X = size_Y = 1, "
                             f"got {pre.size_X}, {pre.size_Y}")
        n = spec.site_count
        xs, ys = (_distinct_sites(region) for region in (region_x, region_y))
        for name, region in ("X", xs), ("Y", ys):
            if not region.size:
                raise ValueError("regions must be nonempty")
            if region.dtype.kind not in "iu":
                raise ValueError(f"region {name} holds {region.dtype} sites, not integers in [0, {n})")
            for site in region[0], region[-1]:  # sorted, so these two bound the rest
                if not 0 <= site < n:
                    raise ValueError(f"region {name} site {site} outside [0, {n})")
        if np.any(ys[np.minimum(np.searchsorted(ys, xs), ys.size - 1)] == xs):
            raise ValueError("regions must be disjoint")
        weight = 0.0
        min_dist = math.inf
        for i in xs:
            d = distances_from(spec, i)[ys]
            weight += float(np.sum(d ** (-model.alpha)))
            min_dist = min(min_dist, float(d.min()))
        return cls(self_hop_lambda(spec, model), pre.scale, weight, min_dist)

    def __call__(self, t: float) -> float:
        """B(t), or +inf once the exponent passes the overflow limit."""
        lam, p = self.params.lam, self.params.p
        arg = 2.0 * lam * (1.0 + p) * t
        if arg > _EXP_ARG_MAX:
            return math.inf
        return self.scale * math.expm1(arg) / (lam * p) * self.weight

    def crossing(self, delta: float) -> float:
        """The t at which B(t) = delta: ln(1 + delta lam p / (s W)) / (2 lam (1+p)); callers check delta."""
        lam, p = self.params.lam, self.params.p
        return math.log1p(delta * lam * p / (self.scale * self.weight)) / (2.0 * lam * (1.0 + p))


def analytic_bound(params: HopParameters, r: float, t: float, pre: BoundPrefactor = UNIT_PREFACTOR) -> BoundValue:
    """Closed-form bound 2||A||||B|||X||Y| (e^(2 lam (1+p) t) - 1) / (lam p r^alpha).

    The one-pair ``PairSum``. Stated for alpha < D; at alpha = D the
    same formula is evaluated with the log-scaling value of lambda.
    Exponential overflow returns +inf flagged as saturated.
    """
    bound = PairSum.one_pair(params, pre, r)
    _check_time(t)
    return _flag(bound(t), t, r, "analytic", pre)


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
    (``FourierSpectrum.series``). Pass a precomputed ``spectrum`` to
    amortize the FFT, and the angle tables of each r, across a sweep; it
    must match ``(n_sites, alpha)``.

    Tiny negative results from roundoff are clamped to zero; a negative
    value beyond roundoff scale raises. Overflow returns +inf flagged
    saturated.
    """
    _check_time(t)
    spectrum = spectrum_for(n_sites, alpha, spectrum)
    return _flag(pre.scale * spectrum.series(r, t), t, float(r), "exact_sum", pre)


def exact_sum_bound_alpha0_closed_form(n_sites: int, t: float) -> float:
    """Closed form of the ring series at alpha = 0 for r != 0.

    (e^(4(N-1)t) - e^(2(N-2)t)) / N, before the 2||A||||B|||X||Y|
    prefactor. The looser displayed form (e^(4Nt) - 1)/N bounds it from
    above for every t >= 0. Past the overflow limit it returns +inf.
    """
    if n_sites < 3:
        raise ValueError("need at least 3 sites")
    _check_time(t)
    n = n_sites
    if 4.0 * (n - 1) * t > _EXP_ARG_MAX:
        return math.inf
    return (math.exp(4.0 * (n - 1) * t) - math.exp(2.0 * (n - 2) * t)) / n


def free_particle_bound(schedule: HopSchedule) -> float:
    """Schedule integral sum_segments duration * sqrt(sum_i |J_iX|**2), each row divided by its largest |J| first."""
    if not schedule.segments:
        raise ValueError("schedule must contain at least one segment")
    total = 0.0
    for duration, row in schedule.segments:
        arr = np.abs(np.asarray(row, dtype=float))
        scale = float(arr.max(initial=0.0)) or 1.0  # no square of arr / scale underflows; a zero row keeps norm 0
        total += duration * (scale * float(np.sqrt(np.sum((arr / scale) ** 2))))
    return total


def free_particle_envelope(spec: LatticeSpec, model: CouplingModel) -> float:
    """Per-unit-time ceiling max_X sqrt(sum_{i != X} r_iX**(-2 alpha)).

    The largest row sum at exponent 2 alpha is the self-hop strength of
    the coupling r**(-2 alpha), so this is sqrt(lambda) for that model.
    Scales as N**(1/2 - alpha/D) for alpha <= D/2 and stays O(1) above.
    """
    composition_constant(model.alpha)  # p is not used; the alpha given meets the p rule of every family
    return math.sqrt(float(row_sums(spec, 2 * model.alpha).max()))


def many_site_bound(
    spec: LatticeSpec,
    model: CouplingModel,
    region_x,
    region_y,
    t: float,
    pre: BoundPrefactor = UNIT_PREFACTOR,
) -> BoundValue:
    """Analytic bound summed over all pairs between two disjoint regions.

    2 ||A|| ||B|| sum_{i in X, j in Y} (e^(2 lam (1+p) t) - 1)
    / (lam p r_ij**alpha), the ``PairSum`` over those pairs. Reduces to
    ``analytic_bound`` when both regions are single sites; ``pre`` keeps
    sizes of 1. ``separation`` reports the minimum pair distance.
    """
    _check_time(t)
    bound = PairSum.between(spec, model, region_x, region_y, pre)
    return _flag(bound(t), t, bound.separation, "many_site", pre)
