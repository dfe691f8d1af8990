"""Series-level kernel quantities for the long-range hop expansion.

Everything here feeds the commutator bounds: the self-hop strength
lambda (the largest coupling row sum, which also serves as the diagonal
entry of the hop matrix), the composition constant p = 2**(alpha + 1),
closed-form upper bounds on lambda, a brute-force certification of the
hop-composition inequality, the circulant Fourier spectrum of the ring
coupling sequence, and a dense matrix-exponential oracle that sums the
hop series exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import CouplingModel, LatticeSpec, coupling_matrix, coupling_row

# Dense certification and oracle size limits (O(N**3) work).
REPRO_MAX_SITES = 2000
ORACLE_MAX_SITES = 512

# FFT imaginary residue above this (relative to lambda) indicates a
# misuse of the transform rather than roundoff.
FFT_IMAG_TOL = 1e-10


@dataclass(frozen=True)
class HopParameters:
    """Derived hop constants for one lattice + coupling model.

    ``lam`` is the self-hop strength max_i sum_{j != i} J_ij (named
    ``lam`` because ``lambda`` is reserved in Python); ``p`` equals
    2**(alpha + 1).
    """

    lam: float
    p: float
    alpha: float
    site_count: int


@dataclass(frozen=True)
class FourierSpectrum:
    """Distinct circulant eigenvalues of the ring hop sequence.

    ``omega[p] = sum_r cos(2 pi p r / N) J(r)`` with ``J(0) = lam`` and
    ``J(r) = r**(-alpha)`` in the ring metric, stored for
    ``p = 0 .. N // 2`` only (length ``N // 2 + 1``): the sequence is
    real and even, so ``omega[N - p] = omega[p]`` and the other half of
    the full spectrum repeats these values. ``omega[0] = 2 * lam``;
    ``omega_max`` is the largest entry, stored so that a bound's
    overflow check needs no pass over ``omega``.
    """

    omega: np.ndarray
    n_sites: int
    alpha: float
    lam: float
    omega_max: float


def self_hop_lambda(spec: LatticeSpec, model: CouplingModel) -> HopParameters:
    """Compute the self-hop strength lambda and the constant p.

    lambda is the largest coupling row sum. On periodic (translationally
    invariant) lattices every row sum is equal, so a single row
    suffices; open boundaries fall back to a brute-force maximum over
    rows. This is the package's one max-row-sum loop:
    ``free_particle_envelope`` reads it at exponent 2 alpha.
    """
    n = spec.site_count
    if n < 2:
        raise ValueError("need at least 2 sites")
    if spec.boundary == "periodic":
        lam = float(coupling_row(spec, model, 0).sum())
    else:
        lam = max(float(coupling_row(spec, model, i).sum()) for i in range(n))
    return HopParameters(lam=lam, p=2.0 ** (model.alpha + 1), alpha=model.alpha, site_count=n)


def site_hop_strength(spec: LatticeSpec, model: CouplingModel, i: int) -> float:
    """Row sum sum_{j != i} J_ij for one site (lambda_i)."""
    return float(coupling_row(spec, model, i).sum())


def surface_area_constant(dimension: int) -> float:
    """Surface area of the unit sphere in ``dimension`` dimensions.

    omega_D = 2 pi**(D/2) / Gamma(D/2); omega_1 = 2, omega_2 = 2 pi.
    """
    d = dimension
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def lambda_upper_bound(dimension: int, alpha: float, linear_size: int) -> float:
    """Closed-form upper bound on lambda for an open hypercubic lattice.

    Obtained by bounding the lattice sum with an integral over a ball
    while stepping around the origin cell. Three regimes:

    * ``alpha < D``:  omega_D / (D - alpha) * L**(D - alpha)
    * ``alpha == D``: (omega_D / D) * ln(N) + (2 sqrt(D) + 3)**D
    * ``alpha > D``:  omega_D / (alpha - D) + (2 sqrt(D) + 3)**D

    The ``alpha > D`` constant uses the same near-origin cube counting
    as the ``alpha == D`` case; the sum converges, so the bound is
    N-independent.
    """
    if linear_size < 2:
        raise ValueError("linear_size must be >= 2")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    d = dimension
    w = surface_area_constant(d)
    corner = (2.0 * math.sqrt(d) + 3.0) ** d
    if alpha < d:
        return w / (d - alpha) * linear_size ** (d - alpha)
    if alpha == d:
        return (w / d) * math.log(linear_size**d) + corner
    return w / (alpha - d) + corner


@dataclass(frozen=True)
class ReproducibilityReport:
    max_ratio: float
    worst_pair: tuple[int, int]
    site_count: int
    alpha: float


def reproducibility_check(spec: LatticeSpec, model: CouplingModel) -> ReproducibilityReport:
    """Certify the hop-composition inequality on a finite lattice.

    For every ordered pair of distinct sites (i, j) the two-hop weight
    through intermediate sites,

        S2(i, j) = sum_{k not in {i, j}} J_ik J_kj,

    is compared against p * lambda * J_ij. The intermediate sum skips
    the endpoints because consecutive sites in a hop sequence differ;
    self-hops are resummed separately into the lambda diagonal and never
    enter this inequality. A ``max_ratio <= 1`` certifies that power-law
    decay survives hop composition on this lattice.

    Brute force, O(N**3) via a dense matrix product; N is capped at
    ``REPRO_MAX_SITES``. ``N == 2`` has no intermediate sites, so the
    ratio degenerates to 0.
    """
    if model.alpha <= 0:
        raise ValueError("the composition inequality is stated for alpha > 0")
    n = spec.site_count
    if n > REPRO_MAX_SITES:
        raise ValueError(f"N = {n} exceeds brute-force cap {REPRO_MAX_SITES}")
    J = coupling_matrix(spec, model)
    lam = float(J.sum(axis=1).max())
    p = 2.0 ** (model.alpha + 1)
    # Zero diagonal makes J @ J skip k = i and k = j automatically.
    two_hop = J @ J
    off = ~np.eye(n, dtype=bool)
    ratios = np.zeros_like(J)
    ratios[off] = two_hop[off] / (p * lam * J[off])
    flat = int(np.argmax(ratios))
    worst = (flat // n, flat % n)
    return ReproducibilityReport(
        max_ratio=float(ratios[worst]),
        worst_pair=worst,
        site_count=n,
        alpha=model.alpha,
    )


def ring_hop_sequence(n_sites: int, alpha: float) -> np.ndarray:
    """Length-N sequence J(r) on the ring, with the self-hop J(0) = lambda."""
    if n_sites < 2:
        raise ValueError("need at least 2 sites")
    r = np.arange(n_sites)
    rd = np.minimum(r, n_sites - r).astype(float)
    seq = np.empty(n_sites)
    with np.errstate(divide="ignore"):
        seq[1:] = rd[1:] ** (-alpha)
    seq[0] = seq[1:].sum()
    return seq


def fourier_spectrum(n_sites: int, alpha: float) -> FourierSpectrum:
    """Distinct circulant eigenvalues omega(p), p = 0 .. N // 2, of the ring hop sequence.

    Computed with one O(N log N) real FFT of the real, even sequence
    J(r). The transform of such a sequence is real; any imaginary
    residue beyond roundoff scale signals a bug and raises.
    """
    seq = ring_hop_sequence(n_sites, alpha)
    lam = float(seq[0])
    transform = np.fft.rfft(seq)
    imag_max = float(np.abs(transform.imag).max())
    if imag_max > FFT_IMAG_TOL * max(lam, 1.0):
        raise RuntimeError(f"non-real spectrum (imag residue {imag_max:.3e}); input not even?")
    omega = np.ascontiguousarray(transform.real)
    return FourierSpectrum(
        omega=omega, n_sites=n_sites, alpha=alpha, lam=lam, omega_max=float(omega.max())
    )


def series_oracle(spec: LatticeSpec, model: CouplingModel, t: float) -> np.ndarray:
    """Dense oracle for the hop series: entrywise exp(2 t J) - I.

    J is the N x N coupling matrix with the diagonal set to lambda, so
    entry (X, Y) equals sum_{k >= 1} (2 t)**k / k! * (J**k)_{XY} with
    intermediate sums running over all sites including self-hops.
    Evaluated by eigendecomposition of the symmetric J; N is capped at
    ``ORACLE_MAX_SITES``.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    n = spec.site_count
    if n > ORACLE_MAX_SITES:
        raise ValueError(f"N = {n} exceeds dense oracle cap {ORACLE_MAX_SITES}")
    J = coupling_matrix(spec, model)
    lam = float(J.sum(axis=1).max())
    np.fill_diagonal(J, lam)
    w, v = np.linalg.eigh(J)
    # exp(2tJ) - I = V diag(expm1(2 t w)) V^T; expm1 keeps t -> 0 exact.
    return (v * np.expm1(2.0 * t * w)) @ v.T
