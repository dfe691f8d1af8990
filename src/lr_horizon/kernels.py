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

import functools
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
# factors (``fourier_spectrum``); below it one whole-length rfft is faster, unless both factors are long.
_SPLIT_MIN_PRIME = 400

# Columns of the rfft path's mode table: p = a * _WEIGHT_COLUMNS + b (``FourierSpectrum``).
_WEIGHT_COLUMNS = 4096
# Modes per block of the series sum: 512 KB of exponentials, so a block stays in L2.
_BLOCK_MODES = 65536
# Table rows per block at most: a block's dot, two entries a row, stays below the 10,000 elements
# past which OpenBLAS threads a dot, so its bits do not depend on the thread count.
_BLOCK_ROWS_MAX = 4096


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

    Table entry (j, i) holds omega at k = (u_j + v_i) mod N, one k of each pair k, N - k, with
    u = s N / q from the integer steps s and order q of each side (``_sides``): the rfft's
    natural order in rows of C = ``_WEIGHT_COLUMNS`` (u = C j, v = i, q = N), or the coprime
    split's own (B // 2 + 1) x A grid (``fourier_spectrum``; q = B, A). Entries past N // 2,
    or mirrors in the grid's row 0 (``_pad``), are 0, so expm1 adds 0 there; ``omega``
    is put in natural order only when read. By angle addition, 2 cos(2 pi k r / N) / N
    is row j of the row table [cos, -sin] 2 / N at u_j r dotted with row i of the column
    table [cos, sin] at v_i r (``_angle_tables``). So a block of table rows adds
    ``np.vdot(rows[block], e @ columns)`` to S, e being its expm1(2 t omega) halved
    where w_p = 1; the slope makes the same product on omega e^(2 omega t), doubled.
    One routine, ``_sums``, makes every pass over the blocks, adding the parts in block
    order: ``declare_grid(rs, ts)`` sums a whole grid in one, for ``series`` to read, and
    any other (r, t) is its one-point case. So every route makes the same per-r products,
    bit for bit. The caches (the last r's tables, the grid) make a spectrum unsafe to share
    between threads.
    """

    def __init__(self, omega: np.ndarray, n_sites: int, alpha: float, lam: float) -> None:
        n, size = n_sites, n_sites // 2 + 1
        if omega.ndim == 1:  # the N // 2 + 1 entries in natural order, copied into rows of C
            columns = min(size, _WEIGHT_COLUMNS)
            self._table = np.zeros((-(-size // columns), columns))
            self._table.reshape(-1)[:size] = omega
            self._sides = (columns * np.arange(len(self._table)), n), (np.arange(columns), n)
            self._pad, half = slice(size, None), divmod(n // 2, columns)
        else:  # the split's (B // 2 + 1) x A grid; B is odd, so only row 0 holds mirror pairs: (0, i) and (0, A - i)
            a, b = omega.shape[1], n // omega.shape[1]
            self._table = omega
            self._sides = (np.arange(b // 2 + 1) * pow(a, -1, b) % b, b), (np.arange(a) * pow(b, -1, a) % a, a)
            self._pad, half = slice(a // 2 + 1, a), (0, a // 2)
        self._table.reshape(-1)[self._pad] = 0.0
        # per side, the [cos, sin] scale of 2 pi k / q at integer k: rows of the circle held at an order q < N, or made
        self._circles = [
            functools.partial(np.take, _unit_circle(np.arange(q), q, scale), axis=0) if q < n
            else functools.partial(_unit_circle, n=n, scale=scale) for (_, q), scale in zip(self._sides, (2.0 / n, 1.0))
        ]
        self._unpaired = [(0, 0), half][: 2 - n % 2]  # (row, column) of the modes with w_p = 1
        self._block_rows = min(max(1, _BLOCK_MODES // self._table.shape[1]), _BLOCK_ROWS_MAX)
        self.n_sites, self.alpha, self.lam = n_sites, alpha, lam
        self.omega_max = float(self._table.max())
        self._r = self._tables = None  # the angle tables of the last r
        self._grid: dict[tuple, float] = {}  # S at each declared (r, t)

    @functools.cached_property
    def omega(self) -> np.ndarray:
        """The N // 2 + 1 distinct omega_p in natural order: each table entry but the pad at p = min(k, N - k)."""
        n, ((rows, p), (columns, q)) = self.n_sites, self._sides
        k = np.delete(np.add.outer(n // p * rows, n // q * columns).reshape(-1) % n, self._pad)
        omega = np.empty(n // 2 + 1)
        omega[np.minimum(k, n - k)] = np.delete(self._table.reshape(-1), self._pad)
        return omega

    def _angle_tables(self, r) -> tuple[np.ndarray, np.ndarray]:
        """The row table [cos, -sin] 2 / N and the column table [cos, sin] at r, at k = -s r and s r mod q for each side's steps s and order q."""
        n, ((rows, p), (columns, q)) = self.n_sites, self._sides
        if not 1 <= r <= n // 2 or r % 1:
            raise ValueError(f"r must be an integer in [1, N/2], got r={r} with N={n}")
        return self._circles[0](-rows * int(r) % p), self._circles[1](columns * int(r) % q)

    def _terms(self, t: float, start: int, out: np.ndarray) -> np.ndarray:
        """On the block of table rows at ``start``: expm1(2 t omega) in ``out[0]``, omega e^(2 omega t) in ``out[1]`` if any; halved where w_p = 1."""
        block = self._table[start : start + self._block_rows]
        out = out[:, : len(block)]
        np.expm1(np.multiply(block, 2.0 * t, out=out[0]), out=out[0])
        if len(out) > 1:
            np.add(out[0], 1.0, out=out[1])
            out[1] *= block
        for a, b in self._unpaired:
            if 0 <= a - start < len(block):
                out[:, a - start, b] *= 0.5
        return out

    def _checked(self, raw: float, t: float) -> float:
        if raw < 0.0:  # see ``series``
            if raw < -NEGATIVE_FLOOR * math.expm1(2.0 * t * self.omega_max) / self.n_sites:
                raise RuntimeError(f"series sum returned {raw:.3e}, beyond roundoff floor")
            raw = 0.0
        return raw

    def _sums(self, rs, times, slope: bool) -> tuple[list, list[float]]:
        """The finite t of ``times``, and per finite t S at each r of ``rs``, then half its slope at each if ``slope``: one pass over the blocks.

        Each r's tables come from the last-r cache, before the saturation test, so an r off the ring raises at
        every t. Each block's exponentials are made once per finite t, and each sum adds its parts in block order.
        """
        for t in times:  # every t, a saturating one too, must be finite and >= 0
            _check_time(t)
        tables = []
        for r in rs:
            if r != self._r:
                self._tables, self._r = self._angle_tables(r), r
            tables.append(self._tables)
        finite = [t for t in times if 2.0 * t * self.omega_max <= _EXP_ARG_MAX]  # past it a t saturates
        sums = [0.0] * (len(finite) * len(rs) * (1 + slope))
        out = np.empty((1 + slope, *self._table[: self._block_rows].shape))
        for start in range(0, len(self._table), self._block_rows):
            # sum_p c_p terms_p over the block: one product with the column table, one dot with the row table
            parts = (float(np.vdot(rows[start : start + len(terms)], terms @ columns))
                     for t in finite for terms in self._terms(t, start, out) for rows, columns in tables)
            sums = [total + part for total, part in zip(sums, parts)]
        return finite, sums

    def declare_grid(self, rs, times) -> None:
        """Sum every (r, t) of ``rs`` x ``times`` in one ``_sums`` pass, for ``series`` to read; the grid replaces the last one."""
        rs, times = list(dict.fromkeys(rs)), list(dict.fromkeys(times))
        finite, sums = self._sums(rs, times, False)
        self._grid = {(r, t): math.inf for r in rs for t in times}
        self._grid.update(((r, t), self._checked(raw, t)) for (t, r), raw in zip([(t, r) for t in finite for r in rs], sums))

    def _pass(self, r, t: float, slope: bool) -> tuple[float, float]:
        """(S, dS/dt) at (r, t): the one-point case of ``_sums``; dS/dt is 0 unless ``slope``."""
        finite, sums = self._sums([r], [t], slope)
        return (self._checked(sums[0], t), 2.0 * sums[1] if slope else 0.0) if finite else (math.inf, math.inf)

    def series(self, r, t: float) -> float:
        """S(r, t), or +inf once the largest exponent passes the overflow limit.

        Tiny negative sums from roundoff are clamped to zero; one below
        -``NEGATIVE_FLOOR`` times the largest term (over N) is a sign
        error, not roundoff, and raises.
        """
        value = self._grid.get((r, t))
        return self._pass(r, t, False)[0] if value is None else value

    def series_and_slope(self, r, t: float) -> tuple[float, float]:
        """(S, dS/dt) from one pass, dS/dt = sum_p c_p 2 omega_p e^(2 omega_p t); S has the bits of ``series``."""
        return self._pass(r, t, True)


def _unit_circle(k: np.ndarray, n: int, scale: float) -> np.ndarray:
    """[cos, sin] scale of 2 pi k / n, a row per integer 0 <= k < n, each angle reduced exactly to [0, pi / 2] first:
    with m = 2 min(k, n - k), m pi / n, or pi less (n - m) pi / n past a quarter turn."""
    m = 2 * np.minimum(k, n - k)
    far = 2 * m > n
    angle = np.subtract(n, m, out=m, where=far) * (math.pi / n)
    cos, sin = np.cos(angle), np.sin(angle)
    cos[far] *= -1.0  # signs flipped on the 1-D arrays, before the stack: a masked column of it is slow
    sin[2 * k > n] *= -1.0
    return np.stack([cos, sin], axis=1) * scale


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


def fourier_spectrum(n_sites: int, alpha: float) -> FourierSpectrum:
    """The ring hop series of (N, alpha); the only constructor of ``FourierSpectrum``.

    J(r) is the ring grid of ``row_sums`` with J(0) = lambda, its total; omega is its DFT, real
    and even, held at one k of each pair k, N - k. One ``rfft`` of the whole sequence gives its
    N // 2 + 1 entries in natural order, unless N = A B with B = p**e the power of N's largest
    prime p, A > 1, and either p >= ``_SPLIT_MIN_PRIME`` (pocketfft's plan for N pays for p on
    all N: a Bluestein convolution of about 2N points, or a radix-p pass) or A, B >= 16 (both
    sides long). There the Good-Thomas map (gcd(A, B) = 1, no twiddle factors) makes it the DFT
    of the A x B grid G[a, b] = J[(B a + A b) mod N], even in both indices: rows a <= A // 2 are
    copied (``_half_rows``) and J freed before their ``rfft`` along b (b <= B // 2); each
    column, Hermitian in a, gets its real DFT from one ``irfft`` of length A of its C-ordered
    conjugate (numpy's ``hfft``). That (B // 2 + 1) x A output is held as it is: entry (j, i)
    is the DFT at k = (j A (A^-1 mod B) + i B (B^-1 mod A)) mod N.
    """
    composition_constant(alpha)  # p is not used; the ring bound and its solve meet the p rule of every family
    seq = _inverse_power_grid(1, n_sites, alpha)  # rejects a bad alpha, and an N that is no integer >= 2
    lam = float(seq.sum())
    seq[0] = lam
    p, b = _largest_prime_power(n_sites)
    a = n_sites // b
    if a == 1 or (p < _SPLIT_MIN_PRIME and min(a, b) < 16):
        omega = np.fft.rfft(seq).real
        del seq  # before the table copy
    else:
        grid = _half_rows(seq, a, b)
        del seq  # before any transform; each stage below frees its input as it rebinds ``grid``
        grid = np.fft.rfft(grid, axis=1)
        grid = np.conjugate(grid.T, out=np.empty(grid.T.shape, complex))  # C order: the columns run contiguous
        omega = np.fft.irfft(grid, n=a, axis=1, norm="forward")
    return FourierSpectrum(omega, n_sites, alpha, lam)


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
