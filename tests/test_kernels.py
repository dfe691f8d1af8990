import math

import numpy as np
import pytest

from lr_horizon import (
    CouplingModel,
    LatticeSpec,
    chain,
    coupling_matrix,
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
from lr_horizon.kernels import _inverse_power_grid


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


@pytest.mark.parametrize("dimension, side", [(1, 1000), (1, 1001), (2, 33), (3, 12)])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0, 2.5])
def test_inverse_power_grid_is_the_power_of_the_displacement_grid(dimension, side, alpha):
    # raised in place, the grid holds the same bits as d ** -alpha in a second array
    d = np.arange(side, dtype=float)
    d = np.minimum(d, side - d)
    d = np.sqrt(sum(np.meshgrid(*[d * d] * dimension, indexing="ij")))
    with np.errstate(divide="ignore"):
        want = d ** -alpha
    want.flat[0] = 0.0
    got = _inverse_power_grid(dimension, side, alpha)
    assert got.shape == (side,) * dimension
    assert got.tobytes() == want.tobytes()
