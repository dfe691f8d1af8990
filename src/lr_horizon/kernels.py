"""Series-level kernel quantities for the long-range hop expansion.

Everything here feeds the commutator bounds: the coupling row sums and
the self-hop strength lambda (the largest one, also the diagonal entry
of the hop matrix), the composition constant p = 2**(alpha + 1),
closed-form upper bounds on lambda, a brute-force certification of the
hop-composition inequality, the ring hop series summed through the
circulant Fourier spectrum of the ring coupling sequence
(``FourierSpectrum``, the one home of that arithmetic), and a dense
matrix-exponential oracle that sums the hop series exactly. No distance
is computed here: the d**(-alpha) grid is ``lattice.coupling_row`` of a torus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import CouplingModel, LatticeSpec, coupling_matrix, coupling_row

# Dense certification and oracle size limits (O(N**3) work).
REPRO_MAX_SITES = 2000
ORACLE_MAX_SITES = 512

# A series sum below -NEGATIVE_FLOOR * (largest exponential) / N indicates
# a real sign error rather than roundoff.
NEGATIVE_FLOOR = 1e-8

# exp overflows past ~709.78; beyond this a bound saturates anyway.
_EXP_ARG_MAX = 700.0

# Declared-t exponentials one FourierSpectrum may hold: 16 times at N = 10**6.
HELD_TERMS_BYTES = 64 * 2**20

# The smallest largest-prime of N at which the ring spectrum is split into
# coprime factors (``_even_spectrum``); below it one whole-length rfft is faster.
_SPLIT_MIN_PRIME = 400

# Columns of the two-table cosine weights: p = a * _WEIGHT_COLUMNS + b (``_cosine_weights``).
_WEIGHT_COLUMNS = 4096


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


def _check_time(t: float) -> None:
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")


def _inverse_power_grid(dimension: int, side: int, alpha: float) -> np.ndarray:
    """d**(-alpha), 0 at d = 0, on the torus of ``side``: the coupling row of site 0, in grid shape."""
    spec = LatticeSpec(dimension, side, "periodic")
    return coupling_row(spec, CouplingModel(alpha=alpha), 0).reshape(spec.shape)


def row_sums(spec: LatticeSpec, alpha: float) -> np.ndarray:
    """All N row sums sum_{j != i} d_ij**(-alpha), in flat site order.

    Periodic: each is the total of the minimum-image grid (side L). Open:
    one circular convolution, O(N log N), of the box indicator with the
    grid of side M = 2**k >= 2L - 1, where no two site offsets collide.
    """
    L, D = spec.linear_size, spec.dimension
    if spec.boundary == "periodic":
        return np.full(spec.site_count, _inverse_power_grid(D, L, alpha).sum())
    m = 1 << (2 * L - 2).bit_length()
    axes = tuple(range(D))
    transform = np.fft.rfftn(_inverse_power_grid(D, m, alpha), axes=axes)
    transform *= np.fft.rfftn(np.ones((L,) * D), s=(m,) * D, axes=axes)
    sums = np.fft.irfftn(transform, s=(m,) * D, axes=axes)
    return sums[(slice(L),) * D].ravel()


def self_hop_lambda(spec: LatticeSpec, model: CouplingModel) -> HopParameters:
    """Compute the self-hop strength lambda and the constant p.

    lambda is the largest of the ``row_sums``; ``free_particle_envelope``
    reads it at exponent 2 alpha. ``site_hop_strength`` sums one coupling
    row directly, the per-row reference the tests compare against.
    """
    lam = float(row_sums(spec, model.alpha).max())
    return HopParameters(lam, composition_constant(model.alpha), model.alpha)


def composition_constant(alpha: float) -> float:
    """p = 2**(alpha + 1); an alpha whose p overflows a float is invalid."""
    try:
        return 2.0 ** (float(alpha) + 1)
    except OverflowError:
        raise ValueError(f"alpha = {alpha} is too large: p = 2**(alpha + 1) overflows a float") from None


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
    CouplingModel(alpha=alpha)  # rejects a negative or non-finite alpha
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

    is compared against p * lambda * J_ij, the lambda of the bounds. The
    intermediate sum skips the endpoints because consecutive sites in a
    hop sequence differ; self-hops are resummed separately into the
    lambda diagonal and never enter this inequality. A ``max_ratio <= 1``
    certifies that power-law decay survives hop composition on this lattice.

    Brute force, O(N**3) via a dense matrix product; N is capped at
    ``REPRO_MAX_SITES``. ``N == 2`` has no intermediate sites, so the
    ratio degenerates to 0.
    """
    if model.alpha <= 0:
        raise ValueError("the composition inequality is stated for alpha > 0")
    n = spec.site_count
    if n > REPRO_MAX_SITES:
        raise ValueError(f"N = {n} exceeds brute-force cap {REPRO_MAX_SITES}")
    params = self_hop_lambda(spec, model)
    J = coupling_matrix(spec, model)
    # Zero diagonal makes J @ J skip k = i and k = j automatically.
    two_hop = J @ J
    off = ~np.eye(n, dtype=bool)
    ratios = np.zeros_like(J)
    ratios[off] = two_hop[off] / (params.p * params.lam * J[off])
    flat = int(np.argmax(ratios))
    worst = (flat // n, flat % n)
    return ReproducibilityReport(
        max_ratio=float(ratios[worst]),
        worst_pair=worst,
        site_count=n,
        alpha=model.alpha,
    )


class FourierSpectrum:
    """The ring hop series of one (N, alpha), summed through its circulant spectrum.

    ``omega[p] = sum_r cos(2 pi p r / N) J(r)``, with ``J(0) = lam`` and
    ``J(r) = r**(-alpha)`` in the ring metric, for ``p = 0 .. N // 2``:
    the sequence is real and even, so ``omega[N - p] = omega[p]``.
    ``omega[0] = 2 * lam``; ``omega_max`` is the largest entry.

    ``series(r, t)`` is S = sum_p c_p expm1(2 omega_p t), which the ring
    bound multiplies by 2||A||||B|||X||Y|, with c_p = w_p cos(2 pi p r / N)
    / N: ``w_p = 2`` folds in the mirror omega(N - p), and ``w_p = 1`` at
    p = 0 and, for even N, p = N / 2. The cosines are the angle-addition
    product of two small tables of exactly reduced angles. The weights of
    the last r and the exponentials of the last t are kept, each freed
    before its successor is built, so ``slope(r, t)`` reuses those of
    ``series(r, t)``; that cache makes one spectrum unsafe to share
    between threads.
    ``hold_times(ts)`` also keeps the exponentials of each declared t, N // 2 + 1
    floats apiece (4 MB at N = 10**6) and at most ``HELD_TERMS_BYTES`` in all,
    so a grid that changes t on every call builds each of them once.
    """

    def __init__(self, omega: np.ndarray, n_sites: int, alpha: float, lam: float) -> None:
        self.omega, self.n_sites, self.alpha, self.lam = omega, n_sites, alpha, lam
        self.omega_max = float(omega.max())
        self._r = self._weights = None  # c_p at r
        self._slope: tuple[np.ndarray, float] | None = None  # c_p 2 omega_p at r, and their sum
        self._t, self._terms = math.nan, None  # expm1(2 t omega_p), None past overflow
        self._held: dict[float, np.ndarray | None] = {}  # the same, at each declared t

    def _weights_at(self, r) -> np.ndarray:
        if r != self._r:
            if not 1 <= r <= self.n_sites // 2 or r % 1:
                raise ValueError(f"r must be an integer in [1, N/2], got r={r} with N={self.n_sites}")
            self._r = self._weights = self._slope = None
            self._r, self._weights = r, self._cosine_weights(r)
        return self._weights

    def _cosine_weights(self, r) -> np.ndarray:
        # p = a C + b: cos(2 pi p r / N) = cos_a cos_b - sin_a sin_b, from two small tables of exact angles
        n, size = self.n_sites, self.n_sites // 2 + 1
        columns = np.arange(min(size, _WEIGHT_COLUMNS)) * r % n
        rows = np.arange(-(-size // _WEIGHT_COLUMNS)) * (_WEIGHT_COLUMNS * r % n) % n
        base_cos, base_sin = _unit_circle(columns, n)
        head_cos, head_sin = _unit_circle(rows, n)
        head_cos *= 2.0 / n
        head_sin *= 2.0 / n
        weights = np.multiply.outer(head_cos, base_cos)
        weights -= np.multiply.outer(head_sin, base_sin)
        weights = weights.ravel()[:size]
        weights[0] *= 0.5
        if n % 2 == 0:
            weights[-1] *= 0.5
        return weights

    def _exponentials(self, t: float) -> np.ndarray | None:
        if not 2.0 * t * self.omega_max <= _EXP_ARG_MAX:
            return None
        terms = 2.0 * t * self.omega
        return np.expm1(terms, out=terms)

    def hold_times(self, times) -> None:
        """Keep the exponentials of the distinct t in ``times``, in order, as many as fit ``HELD_TERMS_BYTES``."""
        self._held = {}  # the last declared times go before any new one is built
        distinct = list(dict.fromkeys(times))[: HELD_TERMS_BYTES // self.omega.nbytes]
        self._held = {t: self._exponentials(t) for t in distinct}

    def _terms_at(self, t: float) -> np.ndarray | None:
        if t in self._held:
            return self._held[t]
        if t != self._t:
            self._t, self._terms = t, None
            self._terms = self._exponentials(t)
        return self._terms

    def series(self, r, t: float) -> float:
        """S(r, t), or +inf once the largest exponent passes the overflow limit.

        Tiny negative sums from roundoff are clamped to zero; one below
        -``NEGATIVE_FLOOR`` times the largest term (over N) is a sign
        error, not roundoff, and raises.
        """
        weights = self._weights_at(r)
        terms = self._terms_at(t)
        if terms is None:
            return math.inf
        raw = float(np.dot(weights, terms))
        if raw < 0.0:
            floor = NEGATIVE_FLOOR * float(terms.max()) / self.n_sites
            if raw < -floor:
                raise RuntimeError(f"series sum returned {raw:.3e}, beyond roundoff floor")
            raw = 0.0
        return raw

    def slope(self, r, t: float) -> float:
        """dS/dt = sum_p c_p 2 omega_p e^(2 omega_p t), or +inf past overflow."""
        weights = self._weights_at(r)
        terms = self._terms_at(t)
        if terms is None:
            return math.inf
        if self._slope is None:
            slope_weights = 2.0 * self.omega
            slope_weights *= weights
            self._slope = (slope_weights, float(slope_weights.sum()))
        slope_weights, at_zero = self._slope
        return float(np.dot(slope_weights, terms)) + at_zero


def _unit_circle(k: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi k / n for integers 0 <= k < n, each angle reduced exactly to [0, pi] first."""
    angle = np.minimum(k, n - k) * (2.0 * math.pi / n)
    sin = np.sin(angle)
    sin[2 * k > n] *= -1.0
    return np.cos(angle), sin


def fourier_spectrum(n_sites: int, alpha: float) -> FourierSpectrum:
    """The ring hop series of (N, alpha); the only constructor of ``FourierSpectrum``.

    J(r) is the ring grid of ``row_sums`` with J(0) = lambda, its total.
    omega is the O(N log N) transform of this real, even sequence
    (``_even_spectrum``): one real FFT, or at a large prime factor of N
    a grid of coprime-length FFTs.
    """
    composition_constant(alpha)  # p is not used; the ring bound and its solve meet the p rule of every family
    seq = _inverse_power_grid(1, n_sites, alpha)  # rejects a bad alpha, and an N that is no integer >= 2
    lam = float(seq.sum())
    seq[0] = lam
    return FourierSpectrum(_even_spectrum(seq), n_sites, alpha, lam)


def _largest_prime_power(n: int) -> tuple[int, int]:
    """(p, p**e): the largest prime p dividing n >= 2, and the power of p in n."""
    p, rest, d = 1, n, 2
    while d * d <= rest:
        while rest % d == 0:
            p, rest = d, rest // d
        d += 1
    p = max(p, rest)  # a rest above 1 is a prime beyond every d tried
    power = p
    while n % (power * p) == 0:
        power *= p
    return p, power


def _even_spectrum(seq: np.ndarray) -> np.ndarray:
    """The N // 2 + 1 distinct entries of the DFT of a real, even sequence of length N.

    One ``rfft`` of the whole sequence, unless N = A B with B = p**e the
    power of N's largest prime p, A > 1 and p >= ``_SPLIT_MIN_PRIME``. There
    pocketfft's plan for N pays for p across all N (one Bluestein convolution
    of about 2N points, or a radix-p pass), and the Good-Thomas prime-factor
    map (gcd(A, B) = 1, no twiddle factors) leaves that cost to rows of
    length B: ``seq`` gathered at n = (B a + A b) mod N,
    an ``rfft`` along b, an ``fft`` along a, and entry (a, b) is the DFT at
    k = (a B (B^-1 mod A) + b A (A^-1 mod B)) mod N. The rfft keeps
    b <= B // 2, where one of each pair k, N - k lies; the DFT of an even
    sequence is real and even, so k > N / 2 folds onto N - k.
    """
    n = seq.size
    p, b = _largest_prime_power(n)
    a = n // b
    if p < _SPLIT_MIN_PRIME or a == 1:
        return np.ascontiguousarray(np.fft.rfft(seq).real)
    at = np.add.outer(np.arange(0, n, b), np.arange(0, n, a))  # below 2N, so one subtraction reduces it
    at[at >= n] -= n
    grid = np.fft.fft(np.fft.rfft(seq[at], axis=1), axis=0).real
    k = np.add.outer(b * (np.arange(a) * pow(b, -1, a) % a), a * (np.arange(b // 2 + 1) * pow(a, -1, b) % b))
    k[k >= n] -= n
    np.minimum(k, n - k, out=k)
    omega = np.empty(n // 2 + 1)
    omega[k] = grid
    return omega


def spectrum_for(n_sites: int, alpha: float, spectrum: FourierSpectrum | None = None) -> FourierSpectrum:
    """``spectrum``, which must have been computed for (N, alpha), or a new one if it is None."""
    if spectrum is None:
        return fourier_spectrum(n_sites, alpha)
    if spectrum.n_sites != n_sites or spectrum.alpha != alpha:
        raise ValueError("spectrum was computed for different (N, alpha)")
    return spectrum


def series_oracle(spec: LatticeSpec, model: CouplingModel, t: float) -> np.ndarray:
    """Dense oracle for the hop series: entrywise exp(2 t J) - I.

    J is the N x N coupling matrix with the diagonal set to lambda, so
    entry (X, Y) equals sum_{k >= 1} (2 t)**k / k! * (J**k)_{XY} with
    intermediate sums running over all sites including self-hops.
    Evaluated by eigendecomposition of the symmetric J; N is capped at
    ``ORACLE_MAX_SITES``.
    """
    _check_time(t)
    n = spec.site_count
    if n > ORACLE_MAX_SITES:
        raise ValueError(f"N = {n} exceeds dense oracle cap {ORACLE_MAX_SITES}")
    J = coupling_matrix(spec, model)
    lam = float(J.sum(axis=1).max())
    np.fill_diagonal(J, lam)
    w, v = np.linalg.eigh(J)
    # exp(2tJ) - I = V diag(expm1(2 t w)) V^T; expm1 keeps t -> 0 exact.
    return (v * np.expm1(2.0 * t * w)) @ v.T
