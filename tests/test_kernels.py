import math
import re
import tracemalloc

import numpy as np
import pytest

from lr_horizon import (
    CouplingModel,
    LatticeSpec,
    chain,
    coupling_matrix,
    coupling_row,
    exact_sum_bound,
    exact_sum_signaling_time,
    fourier_spectrum,
    lambda_upper_bound,
    reproducibility_check,
    ring,
    row_sums,
    self_hop_lambda,
    series_oracle,
    site_hop_strength,
    surface_area_constant,
)
from lr_horizon import kernels
from lr_horizon.kernels import FourierSpectrum, _half_rows, _inverse_power_grid, _largest_prime_power


@pytest.mark.parametrize("n", [2, 5, 30, 101])
def test_lambda_alpha_zero_is_n_minus_one(n):
    params = self_hop_lambda(ring(n), CouplingModel(alpha=0.0))
    assert params.lam == pytest.approx(n - 1)
    assert params.p == 2.0


def test_lambda_ring_examples():
    assert self_hop_lambda(ring(4), CouplingModel(alpha=1.0)).lam == pytest.approx(2.5)
    # 1 + 1 + 1/4 + 1/4 + 1/9
    assert self_hop_lambda(ring(6), CouplingModel(alpha=2.0)).lam == pytest.approx(2.6111111111111112)


def test_p_definition():
    for alpha in (0.0, 0.5, 1.0, 2.0):
        assert self_hop_lambda(ring(8), CouplingModel(alpha=alpha)).p == 2.0 ** (alpha + 1)


def test_open_chain_lambda_maximizes_over_rows():
    """Bulk rows of an open chain beat edge rows, so the max matters."""
    spec = chain(9)
    model = CouplingModel(alpha=1.0)
    rows = [site_hop_strength(spec, model, i) for i in range(9)]
    assert self_hop_lambda(spec, model).lam == pytest.approx(max(rows))
    assert max(rows) > rows[0]


@pytest.mark.parametrize("dimension,sides", [(1, (2, 3, 16, 33)), (2, (2, 3, 6, 9)), (3, (2, 3, 4, 5))])
@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.5])
def test_row_sums_match_per_row_oracle(dimension, sides, boundary, alpha):
    """Every row sum, in flat site order, equals one coupling row summed directly."""
    model = CouplingModel(alpha=alpha)
    for side in sides:
        spec = LatticeSpec(dimension=dimension, linear_size=side, boundary=boundary)
        oracle = np.array([site_hop_strength(spec, model, i) for i in range(spec.site_count)])
        sums = row_sums(spec, alpha)
        assert sums.shape == oracle.shape
        assert np.max(np.abs(sums - oracle) / oracle) <= 1e-13
        assert self_hop_lambda(spec, model).lam == pytest.approx(oracle.max(), rel=1e-13)


@pytest.mark.parametrize("n,alpha", [(10**6, 0.5), (31623, 0.05)])
def test_ring_lambda_is_one_number(n, alpha):
    """The lambda the bounds use and the series spectrum's lambda come from one sum."""
    assert self_hop_lambda(ring(n), CouplingModel(alpha=alpha)).lam == fourier_spectrum(n, alpha).lam


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.5])
def test_open_chain_lambda_large_n_matches_prefix_sums(alpha):
    """Row i of an open chain is H(i) + H(N - 1 - i) with H(m) = sum_{k=1}^m k**(-alpha)."""
    n = 10**5
    h = np.concatenate(([0.0], np.cumsum(np.arange(1, n, dtype=float) ** (-alpha))))
    expected = float(np.max(h + h[::-1]))
    assert self_hop_lambda(chain(n), CouplingModel(alpha=alpha)).lam == pytest.approx(expected, rel=1e-12)


def test_surface_area_constant_low_dimensions():
    assert surface_area_constant(1) == pytest.approx(2.0)
    assert surface_area_constant(2) == pytest.approx(2 * math.pi)
    assert surface_area_constant(3) == pytest.approx(4 * math.pi)


def test_lambda_upper_bound_examples():
    assert lambda_upper_bound(1, 0.5, 100) == pytest.approx(40.0)
    for n in (100, 10**4):
        assert lambda_upper_bound(1, 1.0, n) == pytest.approx(2 * math.log(n) + 5)


@pytest.mark.parametrize("dimension,sides", [(1, (16, 128, 1024)), (2, (4, 8, 16)), (3, (3, 5))])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
def test_lambda_below_upper_bound_on_open_lattices(dimension, sides, alpha):
    for side in sides:
        spec = LatticeSpec(dimension=dimension, linear_size=side, boundary="open")
        lam = self_hop_lambda(spec, CouplingModel(alpha=alpha)).lam
        assert lam <= lambda_upper_bound(dimension, alpha, side)


def test_reproducibility_ring16():
    report = reproducibility_check(ring(16), CouplingModel(alpha=0.5))
    assert report.max_ratio <= 1.0
    assert report.site_count == 16


def test_reproducibility_ring4_brute_force_value():
    # worst pair is distance 2: (1*1 + 1*1)/(4*2.5*0.5) = 0.4
    report = reproducibility_check(ring(4), CouplingModel(alpha=1.0))
    assert report.max_ratio == pytest.approx(0.4, rel=1e-12)


def test_reproducibility_matches_slow_loop():
    spec = chain(10)
    model = CouplingModel(alpha=0.75)
    J = coupling_matrix(spec, model)
    lam = J.sum(axis=1).max()
    p = 2.0 ** (0.75 + 1)
    worst = 0.0
    for i in range(10):
        for j in range(10):
            if i == j:
                continue
            s = sum(J[i, k] * J[k, j] for k in range(10) if k not in (i, j))
            worst = max(worst, s / (p * lam * J[i, j]))
    assert reproducibility_check(spec, model).max_ratio == pytest.approx(worst, rel=1e-12)


def test_reproducibility_two_sites_degenerate():
    # no intermediate site exists, the hop sum is empty
    assert reproducibility_check(ring(2), CouplingModel(alpha=0.5)).max_ratio == 0.0


def test_reproducibility_alpha_zero_rejected():
    with pytest.raises(ValueError):
        reproducibility_check(ring(8), CouplingModel(alpha=0.0))


def test_reproducibility_size_cap():
    with pytest.raises(ValueError):
        reproducibility_check(ring(4096), CouplingModel(alpha=0.5))


def ring_hop_sequence(n: int, alpha: float) -> np.ndarray:
    """The ring hop sequence built site by site, apart from lr_horizon: J(d) = d**(-alpha), J(0) = lambda."""
    seq = [float(min(d, n - d)) ** -alpha if d else 0.0 for d in range(n)]
    seq[0] = sum(seq)
    return np.array(seq)


def test_ring_hop_sequence_layout():
    seq = ring_hop_sequence(6, 1.0)
    assert fourier_spectrum(6, 1.0).lam == pytest.approx(seq[0])
    lam = self_hop_lambda(ring(6), CouplingModel(alpha=1.0)).lam
    assert seq[0] == pytest.approx(lam)
    assert seq[1] == seq[5] == 1.0
    assert seq[3] == pytest.approx(1 / 3)


def test_fourier_spectrum_n3_alpha0():
    spec = fourier_spectrum(3, 0.0)
    assert np.allclose(spec.omega, [4.0, 1.0])


@pytest.mark.parametrize("alpha", [-1.0, math.nan, math.inf])
def test_fourier_spectrum_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
        fourier_spectrum(16, alpha)


@pytest.mark.parametrize("n", [1, 0, 10.5, math.inf])
def test_fourier_spectrum_rejects_a_bad_site_count(n):
    with pytest.raises(ValueError, match="linear_size must be"):
        fourier_spectrum(n, 0.5)


@pytest.mark.parametrize("alpha", [-1.0, math.nan, math.inf])
def test_lambda_upper_bound_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
        lambda_upper_bound(1, alpha, 16)


@pytest.mark.parametrize("alpha", [1023.0, 1100.0, 2000.0])
def test_p_past_the_float_range_is_invalid(alpha):
    with pytest.raises(ValueError, match=r"p = 2\*\*\(alpha \+ 1\) overflows"):
        self_hop_lambda(ring(16), CouplingModel(alpha=alpha))


def test_p_at_the_top_of_the_float_range():
    assert self_hop_lambda(ring(16), CouplingModel(alpha=1022.0)).p == 2.0**1023


@pytest.mark.parametrize("n,alpha", [(8, 0.5), (16, 1.0), (33, 0.25)])
def test_fourier_spectrum_invariants(n, alpha):
    spec = fourier_spectrum(n, alpha)
    lam = self_hop_lambda(ring(n), CouplingModel(alpha=alpha)).lam
    assert spec.omega[0] == pytest.approx(2 * lam, rel=1e-12)
    full = np.fft.fft(ring_hop_sequence(n, alpha)).real[: n // 2 + 1]
    assert spec.omega.shape == full.shape
    for p in range(n // 2 + 1):
        assert spec.omega[p] == pytest.approx(full[p], rel=1e-12)


def test_fourier_spectrum_roundtrip():
    """Inverse transform of omega reproduces the hop sequence."""
    for n, alpha in ((12, 0.5), (40, 1.0)):
        spec = fourier_spectrum(n, alpha)
        back = np.fft.irfft(spec.omega, n)
        assert np.max(np.abs(back - ring_hop_sequence(n, alpha))) < 1e-10


def test_series_oracle_zero_time():
    assert np.allclose(series_oracle(ring(5), CouplingModel(alpha=0.5), 0.0), 0.0)


def test_series_oracle_ring3_entry():
    m = series_oracle(ring(3), CouplingModel(alpha=0.0), 0.1)
    expected = (math.exp(0.8) - math.exp(0.2)) / 3
    assert m[0, 1] == pytest.approx(expected, rel=1e-12)


def test_series_oracle_symmetric_nonnegative_monotone():
    spec = ring(8)
    model = CouplingModel(alpha=0.5)
    prev = series_oracle(spec, model, 0.05)
    assert np.allclose(prev, prev.T)
    assert np.all(prev >= 0)
    for t in (0.1, 0.2, 0.4):
        cur = series_oracle(spec, model, t)
        assert np.all(cur >= prev)
        prev = cur


def test_series_oracle_size_cap():
    with pytest.raises(ValueError):
        series_oracle(ring(1024), CouplingModel(alpha=0.5), 0.1)


@pytest.mark.parametrize(
    "dimension, side",
    [(1, 2), (1, 3), (1, 4), (1, 5), (1, 1000), (1, 1001), (2, 2), (2, 3), (2, 33), (3, 3), (3, 12)],
)
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0, 2.5])
def test_inverse_power_grid_is_the_power_of_the_displacement_grid(dimension, side, alpha):
    # powered on the corner and mirrored, the grid holds the same bits as d ** -alpha in a
    # second array, and as the torus's own coupling row of site 0
    d = np.arange(side, dtype=float)
    d = np.minimum(d, side - d)
    d = np.sqrt(sum(np.meshgrid(*[d * d] * dimension, indexing="ij")))
    with np.errstate(divide="ignore"):
        want = d ** -alpha
    want.flat[0] = 0.0
    got = _inverse_power_grid(dimension, side, alpha)
    assert got.shape == (side,) * dimension
    assert got.tobytes() == want.tobytes()
    row = coupling_row(LatticeSpec(dimension, side, "periodic"), CouplingModel(alpha), 0)
    assert got.tobytes() == row.tobytes()


def test_a_long_time_grid_is_summed_without_whole_exponential_arrays():
    """64 declared times at N = 2**18: the pass peaks below two omega-sized arrays, with the values of the per-r route."""
    spectrum = fourier_spectrum(2**18, 0.5)
    rs, times = [1, 2**16, 2**17], [k / (8 * spectrum.lam) for k in range(64)]
    tracemalloc.start()
    try:
        spectrum.declare_grid(rs, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * spectrum.omega.nbytes
    fresh = fourier_spectrum(2**18, 0.5)
    assert [spectrum.series(r, t) for r in rs for t in times] == [fresh.series(r, t) for r in rs for t in times]


def _ring_sequence(n: int, alpha: float) -> np.ndarray:
    """The sequence ``fourier_spectrum`` transforms, with the same bits."""
    seq = _inverse_power_grid(1, n, alpha)
    seq[0] = seq.sum()
    return seq


def _long_double_cosines(n: int, p: int, count: int | None = None) -> np.ndarray:
    """cos(2 pi p n' / N) for n' = 0 .. count - 1 (default N - 1) in long double, the angle reduced to min(pn' mod N, N - pn' mod N) first."""
    k = np.arange(n if count is None else count, dtype=np.int64) * p % n
    k = np.minimum(k, n - k).astype(np.longdouble)
    return np.cos(2 * (4 * np.arctan(np.longdouble(1))) * k / n)


@pytest.mark.parametrize(
    "n, largest, power",
    [(2, 2, 2), (120, 5, 5), (2**10, 2, 2**10), (7**4, 7, 7**4), (4 * 509**2, 509, 509**2),
     (1009 * 1013, 1013, 1013), (316228, 7187, 7187)],
)
def test_largest_prime_power(n, largest, power):
    assert _largest_prime_power(n) == (largest, power)


def _spy(monkeypatch, name: str) -> list:
    """Record the input shape of every ``np.fft.<name>`` call."""
    shapes, real = [], getattr(np.fft, name)
    monkeypatch.setattr(np.fft, name, lambda x, *a, **k: shapes.append(np.shape(x)) or real(x, *a, **k))
    return shapes


def _split_runs(monkeypatch, n: int, alpha: float):
    """The spectrum of (N, alpha), checked to come from the split: A // 2 + 1 rows through ``rfft``, one ``irfft``."""
    with monkeypatch.context() as spies:
        rows, columns = _spy(spies, "rfft"), _spy(spies, "irfft")
        spectrum = fourier_spectrum(n, alpha)
    a = n // _largest_prime_power(n)[1]
    assert rows == [(a // 2 + 1, n // a)]
    assert len(columns) == 1
    return spectrum


@pytest.mark.parametrize("n", [4 * 509, 316228, 3 * 7187, 2 * 1009, 1009 * 1013])  # even A, odd A, A = 2, a large A
def test_half_rows_are_a_copy_of_the_strided_rows_of_the_wrapped_sequence(n):
    """The rows equal the strided view of the sequence extended by its first B (A // 2) entries, in an array of their own."""
    seq = _ring_sequence(n, 0.5)
    b = _largest_prime_power(n)[1]
    a = n // b
    wrapped = np.concatenate([seq, seq[: b * (a // 2)]])
    view = np.lib.stride_tricks.as_strided(wrapped, (a // 2 + 1, b), (b * seq.itemsize, a * seq.itemsize))
    rows = _half_rows(seq, a, b)
    assert rows.flags.owndata and rows.flags.c_contiguous
    assert rows.shape == view.shape and rows.tobytes() == view.tobytes()


# the split holds at most the sequence and its half rows; the rfft path the sequence and its transform
@pytest.mark.parametrize("n, floats", [(316228, 1.6), (10**6, 1.6), (2**20, 2.05)])
def test_spectrum_peaks_below_a_few_sequences(n, floats):
    """The traced peak of ``fourier_spectrum``, in units of the N-float sequence: freed before the split's transforms and before the table."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fourier_spectrum(n, 0.5)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= floats * 8 * n


@pytest.mark.parametrize(
    "n",
    [
        4 * 509, 316228,  # even A
        3 * 7187, 9 * 1009,  # odd A
        2 * 1009, 1009 * 1013,  # A = 2, and a large cofactor
        10**4, 31623, 10**5, 10**6,  # both sides long: 16 x 625, 249 x 127, 32 x 3125, 64 x 15625
    ],
)
def test_split_spectrum_matches_a_long_double_cosine_sum(monkeypatch, n):
    """omega from the coprime split, to a few ulps of omega_max, at both parities of A."""
    alphas = (0.0, 0.3, 1.7)
    spectra = [_split_runs(monkeypatch, n, alpha) for alpha in alphas]
    seqs = [_ring_sequence(n, alpha).astype(np.longdouble) for alpha in alphas]
    for k in sorted({0, 1, n // 3, n // 2 - 1, n // 2}):  # N // 2 - 1 and N // 2 sit at the fold k -> N - k
        cosines = _long_double_cosines(n, k)
        for spectrum, seq in zip(spectra, seqs):
            want = float(np.dot(seq, cosines))
            assert abs(spectrum.omega[k] - want) <= 4 * np.finfo(float).eps * spectrum.omega_max
    for alpha, spectrum in zip(alphas, spectra):
        direct = np.fft.rfft(_ring_sequence(n, alpha)).real
        assert np.max(np.abs(spectrum.omega - direct)) <= 1e-14 * spectrum.omega_max


@pytest.mark.parametrize(
    "n",
    [
        2**16, 1009, 7187,  # prime
        3**7, 509**2,  # prime power
        1000, 140000,  # a short side below the crossover prime: A = 8, B = 7
        3 * 2**18, 4 * 5**8,  # smooth past 2**18 with a short side: B = 3, A = 4
    ],
)
def test_spectrum_outside_the_split_is_the_rfft_bit_for_bit(n):
    seq = _ring_sequence(n, 0.5)
    assert fourier_spectrum(n, 0.5).omega.tobytes() == np.fft.rfft(seq).real.tobytes()


@pytest.mark.parametrize(
    "n",
    [
        6, 20, 98, 126, 300, 510,  # even A
        21, 63, 105, 411, 477,  # odd A: 3 * 7, 9 * 7, 15 * 7, 3 * 137, 9 * 53
        272, 400,  # A, B >= 16, split at the unlowered crossover too: 16 * 17, 16 * 25
    ],
)
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.7])
def test_split_series_matches_dense_oracle_below_the_crossover(monkeypatch, n, alpha):
    """With the crossover lowered, the split runs at oracle sizes, and the series equals exp(2tJ) - I."""
    monkeypatch.setattr(kernels, "_SPLIT_MIN_PRIME", 3)
    spectrum = _split_runs(monkeypatch, n, alpha)
    assert np.max(np.abs(spectrum.omega - np.fft.rfft(_ring_sequence(n, alpha)).real)) <= 1e-14 * spectrum.omega_max
    for t_rel in (0.01, 0.1, 1.0):
        t = t_rel / spectrum.lam
        dense = series_oracle(ring(n), CouplingModel(alpha=alpha), t)
        for r in sorted({1, n // 4, n // 2}):
            assert spectrum.series(r, t) == pytest.approx(dense[0, r], rel=1e-9)


def _long_double_weights(n: int, r: int) -> np.ndarray:
    """c_p = w_p cos(2 pi p r / N) / N for p = 0 .. N // 2 in long double, from integer-reduced angles."""
    weights = _long_double_cosines(n, r, n // 2 + 1) * 2 / n
    weights[0] /= 2
    if n % 2 == 0:
        weights[-1] /= 2
    return weights


def _modes(spectrum: FourierSpectrum) -> np.ndarray:
    """p = min(k, N - k) of each flat table entry, k = (u_j + v_i) mod N from the steps s and order q of each
    side (u = s N / q), and -1 on the pad."""
    n, ((rows, p), (columns, q)) = spectrum.n_sites, spectrum._sides
    k = np.add.outer(n // p * rows, n // q * columns).reshape(-1) % n
    k = np.minimum(k, n - k)
    k[spectrum._pad] = -1
    return k


def _table_weights(spectrum: FourierSpectrum, r: int) -> np.ndarray:
    """c_p for p = 0 .. N // 2 from the two angle tables: row j dotted with row i at the mode of entry (j, i), halved where w_p = 1."""
    rows, columns = spectrum._angle_tables(r)
    modes = _modes(spectrum)
    weights = np.empty(spectrum.n_sites // 2 + 1)
    weights[modes[modes >= 0]] = (rows @ columns.T).reshape(-1)[modes >= 0]
    weights[0] *= 0.5
    if spectrum.n_sites % 2 == 0:
        weights[-1] *= 0.5
    return weights


# 8190 .. 8193 put N // 2 + 1 on both sides of the natural table's column count
@pytest.mark.parametrize("n", [2, 3, 17, 8190, 8192, 8193, 31623, 316228, 10**6])
def test_cosine_weights_match_integer_reduced_long_double_angles(n):
    """Every weight to 4 ulps of 2/N, in natural order and on the split grid of every N with A > 1: no angle is
    formed as p * (2 pi r / N), whose rounding grows with p."""
    b = _largest_prime_power(n)[1]
    layouts = [FourierSpectrum(np.zeros(n // 2 + 1), n, 0.5, 1.0)]  # the weights depend on (N, r) and the layout only
    if n > b:
        layouts.append(FourierSpectrum(np.zeros((b // 2 + 1, n // b)), n, 0.5, 1.0))
    for spectrum in layouts:
        modes = _modes(spectrum)
        assert np.array_equal(np.sort(modes[modes >= 0]), np.arange(n // 2 + 1))  # one entry per mode, the rest pad
        for r in sorted(r for r in {1, 7, n // 4, n // 2 - 1, n // 2} if 1 <= r <= n // 2):
            weights = _table_weights(spectrum, r)
            error = float(np.max(np.abs(weights - _long_double_weights(n, r))))
            assert error <= 4 * np.finfo(float).eps * 2 / n, (spectrum._table.shape, r, error)


@pytest.fixture(scope="module")
def million_site_series():
    """The N = 10**6, alpha = 0.7497 spectrum, t = 0.1 / lambda, and expm1(2 t omega) in long double."""
    spectrum = fourier_spectrum(10**6, 0.7497)
    t = 0.1 / spectrum.lam
    return spectrum, t, np.expm1(2 * np.longdouble(t) * spectrum.omega.astype(np.longdouble))


@pytest.mark.parametrize("r", [1000, 61619, 289410])
def test_series_at_a_million_sites_matches_a_long_double_sum(million_site_series, r):
    """S(r, t) against a long-double weighted sum over the same float64 omega (r = N/2 cancels; not here)."""
    spectrum, t, terms = million_site_series
    want = float(np.dot(_long_double_weights(spectrum.n_sites, r), terms))
    assert abs(spectrum.series(r, t) - want) <= 3e-13 * want


@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.7497, 1.0])
def test_series_at_half_the_ring_matches_a_long_double_sum(alpha):
    """r = N/2 at N = 10**6, where the terms cancel: block by block, the sum stays within 5e-11 of a long-double sum over the same omega."""
    n = 10**6
    spectrum = fourier_spectrum(n, alpha)
    weights = _long_double_weights(n, n // 2)
    for two_lambda_t in (0.2, 0.6):
        t = two_lambda_t / (2 * spectrum.lam)
        want = float(np.dot(weights, np.expm1(2 * np.longdouble(t) * spectrum.omega.astype(np.longdouble))))
        assert abs(spectrum.series(n // 2, t) - want) <= 5e-11 * want, two_lambda_t


# The blocks of each N: N // 2 + 1 at B, B + 1 and 2 B + 1 for the natural table's block of B = 65536
# modes (2**17 - 1 is prime, 2**17 and 2**18 powers of two); on the split's own grid, 76 and 129 rows of
# A = 868 and 510 columns, one past a block of 75 and 128 rows, and A = 3 and 2, whose blocks stop at
# ``_BLOCK_ROWS_MAX`` rows
BLOCKS = {131071: 1, 131072: 2, 262144: 3, 131068: 2, 131070: 2, 131073: 6, 131074: 9}


@pytest.mark.parametrize("n", BLOCKS)
def test_every_route_makes_the_same_block_dots(monkeypatch, n):
    """The declared grid, an undeclared bound and the solver's series and slope agree bit for bit across block edges."""
    alpha = 0.6
    grid = fourier_spectrum(n, alpha)
    starts = range(0, len(grid._table), grid._block_rows)
    assert len(starts) == BLOCKS[n]
    assert grid._block_rows * grid._table.shape[1] <= kernels._BLOCK_MODES and grid._block_rows <= kernels._BLOCK_ROWS_MAX
    modes = _modes(grid).reshape(grid._table.shape)
    rs = [1, n // 4, n // 2]
    times = [0.0, 0.2 / grid.lam, 0.6 / grid.lam, 1000.0 / grid.lam]
    made = []
    tables = FourierSpectrum._angle_tables
    monkeypatch.setattr(FourierSpectrum, "_angle_tables", lambda spectrum, r: made.append(r) or tables(spectrum, r))
    grid.declare_grid(rs, times)
    monkeypatch.undo()
    assert made == rs

    plain, slope_first = fourier_spectrum(n, alpha), fourier_spectrum(n, alpha)
    for r in rs:
        rows, columns = grid._angle_tables(r)
        for t in times:
            value = grid.series(r, t)
            assert exact_sum_bound(n, alpha, r, t, spectrum=grid).value == exact_sum_bound(n, alpha, r, t).value
            both, slope = slope_first.series_and_slope(r, t)
            assert plain.series(r, t) == value == both
            assert plain.series_and_slope(r, t) == (value, slope)
            if t < times[-1]:
                # each block's part rebuilt from the tables and its exponentials, halved at the modes 0 and N / 2
                # and 0 on the pad, added in block order
                terms = np.where(modes >= 0, np.expm1(2.0 * t * grid._table), 0.0)
                terms[(modes == 0) | (2 * modes == n)] *= 0.5
                rows_at = grid._block_rows
                parts = [float(np.vdot(rows[a : a + rows_at], terms[a : a + rows_at] @ columns)) for a in starts]
                assert value == max(sum(parts), 0.0)
            else:
                assert value == slope == math.inf
        assert exact_sum_signaling_time(n, alpha, r, 1.0, spectrum=grid) == exact_sum_signaling_time(n, alpha, r, 1.0)


@pytest.mark.parametrize("r", [0, 51, 2.5])
def test_an_r_off_the_ring_raises_at_a_saturating_t_as_at_a_finite_t(r):
    """Each r's tables are made before the saturation test, so every route rejects an r off the ring at every t."""
    n = 100
    spectrum = fourier_spectrum(n, 0.5)
    finite, saturating = 0.1 / spectrum.lam, 1000.0 / spectrum.lam
    assert spectrum.series(1, saturating) == math.inf > spectrum.series(1, finite)
    message = re.escape(f"r must be an integer in [1, N/2], got r={r} with N={n}")
    routes = spectrum.series, spectrum.series_and_slope, lambda r, t: spectrum.declare_grid([1, r], [t])
    for t in finite, saturating:
        for route in routes:
            with pytest.raises(ValueError, match=message):
                route(r, t)
