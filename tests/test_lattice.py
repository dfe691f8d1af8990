import math

import numpy as np
import pytest

from lr_horizon import (
    CouplingModel,
    LatticeSpec,
    chain,
    coupling,
    coupling_matrix,
    coupling_row,
    distance,
    distances_from,
    ring,
)


def test_site_count_is_power_of_linear_size():
    assert ring(6).site_count == 6
    assert LatticeSpec(dimension=2, linear_size=5, boundary="open").site_count == 25
    assert LatticeSpec(dimension=3, linear_size=4, boundary="periodic").site_count == 64


@pytest.mark.parametrize("bad", [0, -1, 1])
def test_linear_size_must_be_at_least_two(bad):
    with pytest.raises(ValueError):
        LatticeSpec(dimension=1, linear_size=bad, boundary="open")


@pytest.mark.parametrize("dimension,side", [(1, 4.0), (2.0, 4), (1, 10.5)])
def test_lattice_sizes_must_be_integers(dimension, side):
    with pytest.raises(ValueError, match="must be an integer"):
        LatticeSpec(dimension=dimension, linear_size=side)


def test_bad_boundary_rejected():
    with pytest.raises(ValueError):
        LatticeSpec(dimension=1, linear_size=4, boundary="twisted")


def test_index_coordinate_roundtrip():
    spec = LatticeSpec(dimension=2, linear_size=4, boundary="open")
    for i in range(spec.site_count):
        assert spec.coords_to_index(spec.index_to_coords(i)) == i


def test_ring_distance_wraps():
    spec = ring(6)
    assert distance(spec, 1, 5) == 2  # min(4, 2)
    assert distance(spec, 0, 3) == 3


def test_distance_identity_is_zero():
    for spec in (ring(6), chain(9), LatticeSpec(dimension=2, linear_size=3, boundary="open")):
        assert distance(spec, 2, 2) == 0.0


def test_open_2d_corner_to_corner():
    spec = LatticeSpec(dimension=2, linear_size=3, boundary="open")
    i = spec.coords_to_index((0, 0))
    j = spec.coords_to_index((2, 2))
    assert distance(spec, i, j) == pytest.approx(math.sqrt(8), rel=1e-12)


def test_distance_index_out_of_range():
    with pytest.raises(ValueError):
        distance(ring(4), 0, 4)


@pytest.mark.parametrize("spec", [ring(12), chain(12), LatticeSpec(dimension=2, linear_size=4, boundary="open")])
def test_distance_symmetry_and_triangle_inequality(spec):
    n = spec.site_count
    d = np.array([[distance(spec, i, j) for j in range(n)] for i in range(n)])
    assert np.allclose(d, d.T)
    assert np.all(d[~np.eye(n, dtype=bool)] >= 1.0)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-12


def test_coupling_examples():
    assert coupling(ring(6), CouplingModel(alpha=0.5), 1, 5) == pytest.approx(2**-0.5)
    assert coupling(ring(6), CouplingModel(alpha=0.0), 1, 5) == 1.0
    assert coupling(ring(8), CouplingModel(alpha=2.0), 0, 4) == pytest.approx(0.0625)


def test_self_coupling_rejected():
    with pytest.raises(ValueError):
        coupling(ring(6), CouplingModel(alpha=1.0), 3, 3)


def test_negative_alpha_rejected():
    with pytest.raises(ValueError):
        CouplingModel(alpha=-0.1)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, -0.1])
def test_non_finite_or_negative_alpha_rejected_with_message(alpha):
    with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
        CouplingModel(alpha=alpha)


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0, 2.0, 3.0])
def test_coupling_symmetry_grid(alpha):
    spec = ring(20)
    model = CouplingModel(alpha=alpha)
    J = coupling_matrix(spec, model)
    assert np.allclose(J, J.T)
    assert np.all(J[~np.eye(20, dtype=bool)] > 0)
    assert np.all(np.diag(J) == 0)


def test_coupling_monotone_in_distance():
    spec = chain(15)
    model = CouplingModel(alpha=0.75)
    row = coupling_row(spec, model, 0)
    # distances from site 0 on an open chain increase with index
    assert all(row[j] > row[j + 1] for j in range(1, 14))


def test_ring_translational_invariance():
    spec = ring(10)
    model = CouplingModel(alpha=0.5)
    for shift in range(1, 10):
        assert coupling(spec, model, 0, shift) == pytest.approx(
            coupling(spec, model, 3, (3 + shift) % 10), rel=1e-14
        )


# Odd and even sides in each dimension.
_BOXES = [(1, 7), (1, 8), (2, 5), (2, 4), (3, 3), (3, 4)]


def _reference_distance(spec, i, j):
    """Plain-Python metric: Euclidean, after the per-axis minimum image when periodic."""
    sq = 0
    for a, b in zip(spec.index_to_coords(i), spec.index_to_coords(j)):
        d = abs(a - b)
        if spec.boundary == "periodic":
            d = min(d, spec.linear_size - d)
        sq += d * d
    return math.sqrt(sq)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("dimension,side", _BOXES)
def test_distances_from_matches_pairwise(dimension, side, boundary):
    spec = LatticeSpec(dimension=dimension, linear_size=side, boundary=boundary)
    n = spec.site_count
    for i in range(n):
        d = distances_from(spec, i)
        assert d.shape == (n,)
        for j in range(n):
            reference = _reference_distance(spec, i, j)
            assert d[j] == pytest.approx(reference, rel=1e-14)
            assert distance(spec, i, j) == pytest.approx(reference, rel=1e-14)


@pytest.mark.parametrize(
    "n_sites,dimension,side",
    [(7, 1, 7), (10**6, 1, 10**6), (64, 2, 8), (10**6, 2, 1000), (64, 3, 4), (10**6, 3, 100)],
)
def test_from_sites_finds_the_side(n_sites, dimension, side):
    for boundary in ("open", "periodic"):
        spec = LatticeSpec.from_sites(n_sites, dimension, boundary)
        assert spec == LatticeSpec(dimension=dimension, linear_size=side, boundary=boundary)


@pytest.mark.parametrize("n_sites,dimension", [(50, 2), (63, 3), (2, 2), (-4, 2), (16, 0), (16, -1)])
def test_from_sites_rejects_a_non_power(n_sites, dimension):
    with pytest.raises(ValueError, match=f"N = {n_sites} is not a perfect power for D = {dimension}"):
        LatticeSpec.from_sites(n_sites, dimension)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("dimension,side", _BOXES)
def test_largest_distance_is_the_largest_pair_distance(dimension, side, boundary):
    spec = LatticeSpec(dimension=dimension, linear_size=side, boundary=boundary)
    largest = max(distances_from(spec, i).max() for i in range(spec.site_count))
    assert spec.largest_distance == pytest.approx(largest, rel=1e-15)
    reach = side // 2 if boundary == "periodic" else side - 1
    assert spec.largest_distance == pytest.approx(math.sqrt(dimension) * reach, rel=1e-15)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.3])
@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("dimension,side", _BOXES)
def test_coupling_row_is_the_power_of_the_distances(dimension, side, boundary, alpha):
    spec = LatticeSpec(dimension=dimension, linear_size=side, boundary=boundary)
    for i in range(spec.site_count):
        with np.errstate(divide="ignore"):
            want = distances_from(spec, i) ** -alpha
        want[i] = 0.0
        assert coupling_row(spec, CouplingModel(alpha=alpha), i).tobytes() == want.tobytes()


@pytest.mark.parametrize("spec,sites", [(ring(10**6), (0, 123457, 10**6 - 1)), (chain(1001), (0, 500, 1000))])
def test_distances_from_in_1d_is_the_index_difference(spec, sites):
    n = spec.site_count
    k = np.arange(n)
    for i in sites:
        d = np.abs(k - i)
        if spec.boundary == "periodic":
            d = np.minimum(d, n - d)
        assert distances_from(spec, i).tobytes() == d.astype(float).tobytes()


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: distances_from(ring(6), 1.5),
        lambda: distance(ring(6), 0, 2.0),
        lambda: coupling_row(ring(6), CouplingModel(alpha=1.0), 1.5),
    ],
    ids=["distances_from", "distance", "coupling_row"],
)
def test_site_index_must_be_an_integer(evaluate):
    with pytest.raises(ValueError, match="is not an integer"):
        evaluate()


def test_coupling_row_zero_self_entry():
    row = coupling_row(ring(8), CouplingModel(alpha=1.0), 3)
    assert row[3] == 0.0
    assert row.sum() == pytest.approx(1 + 1 + 0.5 + 0.5 + 1 / 3 + 1 / 3 + 0.25)


def test_specs_are_immutable():
    spec = ring(8)
    with pytest.raises(Exception):
        spec.linear_size = 9
