"""Series-level kernel quantities for the long-range hop expansion.

Everything here feeds the commutator bounds: the coupling row sums and
the self-hop strength lambda (the largest one, also the diagonal entry
of the hop matrix), the composition constant p = 2**(alpha + 1),
closed-form upper bounds on lambda, a brute-force certification of the
hop-composition inequality, the ring hop series summed through the
circulant Fourier spectrum of the ring coupling sequence
(``FourierSpectrum``, the one home of that arithmetic), and a dense
matrix-exponential oracle that sums the hop series exactly. No distance
is computed here: the d**(-alpha) grid of a torus is ``lattice.coupling_row``
of the open box that is its corner k <= L // 2 per axis, mirrored to k > L // 2.
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

# The smallest largest-prime of N at which the ring spectrum is split into coprime
# factors (``_even_spectrum``); below it one whole-length rfft is faster, unless N is large.
_SPLIT_MIN_PRIME = 400

# Columns of the mode table and its cosine tables: p = a * _WEIGHT_COLUMNS + b (``FourierSpectrum``).
_WEIGHT_COLUMNS = 4096
# Table rows per block of the series sum: 65536 modes, 512 KB of exponentials, so a block stays in L2.
_BLOCK_ROWS = 16


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
    """d**(-alpha), 0 at d = 0, on the torus of ``side``: the coupling row of site 0, in grid shape.

    Only the corner k <= side // 2 per axis is powered: the row of site 0 in the open box of side
    side // 2 + 1, whose distances are the torus's there. Each axis in turn mirrors k > side // 2
    from side - k in place. The grid is allocated first, so a failing allocation is the grid's.
    """
    spec, model = LatticeSpec(dimension, side, "periodic"), CouplingModel(alpha=alpha)
    grid = np.empty(spec.shape)
    h = side // 2 + 1
    corner = (slice(h),) * dimension
    grid[corner] = coupling_row(LatticeSpec(dimension, h, "open"), model, 0).reshape((h,) * dimension)
    for axis in range(dimension):
        head, tail = (slice(None),) * axis, corner[axis + 1 :]  # axes before this one are whole, those after the corner
        grid[head + (slice(h, None),) + tail] = grid[head + (slice(side - h, 0, -1),) + tail]
    return grid


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
    p = 0 and, for even N, p = N / 2.

    omega is held in table rows, p = a C + b with C = ``_WEIGHT_COLUMNS``,
    zero past N // 2 so that expm1 adds 0 there; ``omega`` is a view of it.
    By angle addition, 2 cos(2 pi p r / N) / N is row a of the row table
    [cos_a, -sin_a] 2 / N dotted with row b of the column table
    [cos_b, sin_b] (``_angle_tables``). So a block of ``_BLOCK_ROWS`` table
    rows adds ``np.vdot(rows[block], e @ columns)`` to S, e being its
    expm1(2 t omega) halved where w_p = 1; the slope makes the same product
    on omega e^(2 omega t), doubled. The parts are added in block order.
    One routine, ``_sums``, makes every pass over the blocks, with the
    tables of each r kept for the last r: ``declare_grid(rs, ts)`` sums a
    whole grid in one, for ``series`` to read; any other (r, t) is its
    one-point case, to which ``series_and_slope`` adds the slope products.
    So every route makes the same per-r products, bit for bit. The caches
    make one spectrum unsafe to share between threads.
    """

    def __init__(self, omega: np.ndarray, n_sites: int, alpha: float, lam: float) -> None:
        size = n_sites // 2 + 1
        columns = min(size, _WEIGHT_COLUMNS)
        self._table = np.zeros((-(-size // columns), columns))
        self.omega = self._table.reshape(-1)[:size]
        self.omega[:] = omega
        self.n_sites, self.alpha, self.lam = n_sites, alpha, lam
        self.omega_max = float(omega.max())
        # (row, column) of the modes with w_p = 1
        self._unpaired = [divmod(p, columns) for p in ((0,) if n_sites % 2 else (0, n_sites // 2))]
        self._r = self._tables = None  # the angle tables of the last r
        self._grid: dict[tuple, tuple] = {}  # ``_sums`` at each declared (r, t), no slope summed

    def _saturates(self, t: float) -> bool:
        return not 2.0 * t * self.omega_max <= _EXP_ARG_MAX

    def _angle_tables(self, r) -> tuple[np.ndarray, np.ndarray]:
        """The row table [cos_a, -sin_a] 2 / N and the column table [cos_b, sin_b] of p = a C + b at r, from exactly reduced angles."""
        n, (count, columns) = self.n_sites, self._table.shape
        if not 1 <= r <= n // 2 or r % 1:
            raise ValueError(f"r must be an integer in [1, N/2], got r={r} with N={n}")
        cos_a, sin_a = _unit_circle(np.arange(count) * (columns * r % n) % n, n)
        cos_b, sin_b = _unit_circle(np.arange(columns) * r % n, n)
        return np.stack([cos_a, -sin_a], axis=1) * (2.0 / n), np.stack([cos_b, sin_b], axis=1)

    def _terms(self, t: float, start: int, out: np.ndarray) -> np.ndarray:
        """On the block of table rows at ``start``: expm1(2 t omega) in ``out[0]``, omega e^(2 omega t) in ``out[1]`` if any; halved where w_p = 1."""
        block = self._table[start : start + _BLOCK_ROWS]
        out = out[:, : len(block)]
        np.expm1(np.multiply(block, 2.0 * t, out=out[0]), out=out[0])
        if len(out) > 1:
            np.add(out[0], 1.0, out=out[1])
            out[1] *= block
        for a, b in self._unpaired:
            if 0 <= a - start < len(block):
                out[:, a - start, b] *= 0.5
        return out

    @staticmethod
    def _part(tables, start: int, terms: np.ndarray) -> float:
        """sum_p c_p terms_p over the block at ``start``: one product with the column table, one dot with the row table."""
        rows, columns = tables
        return float(np.vdot(rows[start : start + _BLOCK_ROWS], terms @ columns))

    def _checked(self, raw: float, t: float) -> float:
        if raw < 0.0:  # see ``series``
            if raw < -NEGATIVE_FLOOR * math.expm1(2.0 * t * self.omega_max) / self.n_sites:
                raise RuntimeError(f"series sum returned {raw:.3e}, beyond roundoff floor")
            raw = 0.0
        return raw

    def _sums(self, rs, times, slope: bool) -> dict[tuple, tuple[float, float]]:
        """(S, dS/dt) at every (r, t) of ``rs`` x ``times`` from one pass over the blocks; dS/dt is 0 unless ``slope``.

        Each r's tables come from the last-r cache, before the saturation test, so an r off the ring
        raises at every t. A saturating t is +inf and makes no exponential; each block's exponentials
        are made once per finite t, and the parts are added in (block, t, r) order.
        """
        tables = []
        for r in rs:
            if r != self._r:
                self._tables, self._r = self._angle_tables(r), r
            tables.append(self._tables)
        finite = [t for t in times if not self._saturates(t)]
        sums = [[[0.0] * len(finite) for _ in rs] for _ in range(2)]  # S and half its slope, per r and finite t
        out = np.empty((1 + slope, *self._table[:_BLOCK_ROWS].shape))
        for start in range(0, len(self._table), _BLOCK_ROWS):
            for j, t in enumerate(finite):
                for terms, kind in zip(self._terms(t, start, out), sums):
                    for made, row in zip(tables, kind):
                        row[j] += self._part(made, start, terms)
        values = {(r, t): (math.inf, math.inf) for r in rs for t in times}
        for r, raws, rises in zip(rs, *sums):
            values.update({(r, t): (self._checked(raw, t), 2.0 * rise) for t, raw, rise in zip(finite, raws, rises)})
        return values

    def declare_grid(self, rs, times) -> None:
        """Sum every (r, t) of ``rs`` x ``times`` in one ``_sums`` pass, for ``series`` to read; the grid replaces the last one."""
        self._grid = self._sums(list(dict.fromkeys(rs)), list(dict.fromkeys(times)), False)

    def _pass(self, r, t: float, slope: bool) -> tuple[float, float]:
        """(S, dS/dt) at (r, t): the one-point case of ``_sums``."""
        return self._sums([r], [t], slope)[r, t]

    def series(self, r, t: float) -> float:
        """S(r, t), or +inf once the largest exponent passes the overflow limit.

        Tiny negative sums from roundoff are clamped to zero; one below
        -``NEGATIVE_FLOOR`` times the largest term (over N) is a sign
        error, not roundoff, and raises.
        """
        if (r, t) in self._grid:
            return self._grid[r, t][0]
        return self._pass(r, t, False)[0]

    def series_and_slope(self, r, t: float) -> tuple[float, float]:
        """(S, dS/dt) from one pass, dS/dt = sum_p c_p 2 omega_p e^(2 omega_p t); S has the bits of ``series``."""
        return self._pass(r, t, True)


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
    (``_even_spectrum``): one real FFT, or, at a large prime factor of N
    or a large N of two wide coprime factors, half rows copied out of the
    sequence, which is then freed, and FFTs along both sides of their grid.
    """
    composition_constant(alpha)  # p is not used; the ring bound and its solve meet the p rule of every family
    lam, omega = _even_spectrum(n_sites, alpha)
    return FourierSpectrum(omega, n_sites, alpha, lam)


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


def _half_rows(seq: np.ndarray, a: int, b: int) -> np.ndarray:
    """Rows i <= a // 2 of the a x b grid G[i, j] = seq[(b i + a j) mod N], copied: two strided slices per row, before and after its wrap past N."""
    n = seq.size
    rows = np.empty((a // 2 + 1, b))
    for i, row in enumerate(rows):
        cut = -(-(n - b * i) // a)  # entries with b i + a j < N
        row[:cut] = seq[b * i :: a]
        row[cut:] = seq[b * i + a * cut - n :: a][: b - cut]
    return rows


def _even_spectrum(n: int, alpha: float) -> tuple[float, np.ndarray]:
    """lambda, and the N // 2 + 1 distinct entries of the DFT of the ring sequence J of (N, alpha), real and even.

    One ``rfft`` of the whole sequence, unless N = A B with B = p**e the
    power of N's largest prime p, A > 1, and either p >= ``_SPLIT_MIN_PRIME``
    (pocketfft's plan for N pays for p on all N: a Bluestein convolution of
    about 2N points, or a radix-p pass) or N >= 2**18 with A, B >= 16 (rows
    of length B stay in cache). There the Good-Thomas map (gcd(A, B) = 1, no
    twiddle factors) makes it the DFT of the A x B grid
    G[a, b] = J[(B a + A b) mod N]. G[-a, -b] = G[a, b], so the ``rfft`` of
    row A - a is the conjugate of row a's: rows a <= A // 2 are copied
    (``_half_rows``) and J freed before they are transformed along b
    (b <= B // 2). Each column, Hermitian in a, gets its real DFT from one
    ``irfft`` of length A of its C-ordered conjugate (numpy's ``hfft``).
    Entry (j, i) is the DFT at k = (j A (A^-1 mod B) + i B (B^-1 mod A)) mod N;
    the DFT of an even sequence is even, so k folds onto min(k, N - k).
    """
    seq = _inverse_power_grid(1, n, alpha)  # rejects a bad alpha, and an N that is no integer >= 2
    lam = float(seq.sum())
    seq[0] = lam
    p, b = _largest_prime_power(n)
    a = n // b
    if a == 1 or (p < _SPLIT_MIN_PRIME and (n < 1 << 18 or min(a, b) < 16)):
        return lam, np.fft.rfft(seq).real
    grid = _half_rows(seq, a, b)
    del seq  # before any transform; each stage below frees its input as it rebinds ``grid``
    grid = np.fft.rfft(grid, axis=1)
    grid = np.conjugate(grid.T, out=np.empty(grid.T.shape, complex))  # C order: the columns run contiguous
    grid = np.fft.irfft(grid, n=a, axis=1, norm="forward")
    u = 2 * a * (np.arange(b // 2 + 1) * pow(a, -1, b) % b)
    v = 2 * b * (np.arange(a) * pow(b, -1, a) % a) - 2 * n
    # 2 (k - N) for the unreduced k in [0, 2N), folded in place: min(k mod N, N - k mod N) = (N - |N - |2 (k - N)||) / 2
    k = np.add.outer(u, v)
    np.subtract(n, np.abs(k, out=k), out=k)
    np.subtract(n, np.abs(k, out=k), out=k)
    k >>= 1
    omega = np.empty(n // 2 + 1)
    omega[k] = grid
    return lam, omega


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
