"""Lattice geometry, site indexing, distances, and power-law couplings.

Sites of a hypercubic lattice with unit spacing are addressed by a flat
row-major index. Distances are computed on demand (never as an N x N
matrix) so that rings with N = 10**6 sites stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BOUNDARIES = ("open", "periodic")


@dataclass(frozen=True)
class LatticeSpec:
    """Hypercubic lattice of ``linear_size**dimension`` sites.

    Parameters
    ----------
    dimension : int
        Spatial dimension D >= 1.
    linear_size : int
        Sites per axis, L >= 2.
    boundary : str
        ``"open"`` or ``"periodic"``.

    Notes
    -----
    For periodic boundaries in one dimension the metric is the ring
    distance ``min(|i - j|, N - |i - j|)``. Open boundaries use the
    Euclidean distance between integer coordinate vectors. Periodic
    lattices with D >= 2 apply the per-axis minimum image before taking
    the Euclidean norm.
    """

    dimension: int
    linear_size: int
    boundary: str = "periodic"

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.linear_size < 2:
            raise ValueError(f"linear_size must be >= 2, got {self.linear_size}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")

    @property
    def site_count(self) -> int:
        """Total number of sites N = L**D."""
        return self.linear_size ** self.dimension

    def index_to_coords(self, i: int) -> tuple[int, ...]:
        """Convert a flat row-major site index to a coordinate vector."""
        self._check_index(i)
        coords = []
        for _ in range(self.dimension):
            coords.append(i % self.linear_size)
            i //= self.linear_size
        return tuple(reversed(coords))

    def coords_to_index(self, coords) -> int:
        """Convert a coordinate vector back to the flat row-major index."""
        if len(coords) != self.dimension:
            raise ValueError(f"expected {self.dimension} coordinates, got {len(coords)}")
        i = 0
        for c in coords:
            if not 0 <= c < self.linear_size:
                raise ValueError(f"coordinate {c} outside [0, {self.linear_size})")
            i = i * self.linear_size + int(c)
        return i

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.site_count:
            raise ValueError(f"site index {i} outside [0, {self.site_count})")

    def _coord_array(self) -> np.ndarray:
        """(N, D) integer coordinates of every site, row-major order."""
        L, D = self.linear_size, self.dimension
        idx = np.arange(self.site_count)
        cols = []
        for axis in range(D - 1, -1, -1):
            cols.append((idx // L**axis) % L)
        return np.stack(cols, axis=1)


def ring(n_sites: int) -> LatticeSpec:
    """Periodic 1D lattice with ``n_sites`` sites."""
    return LatticeSpec(dimension=1, linear_size=n_sites, boundary="periodic")


def chain(n_sites: int) -> LatticeSpec:
    """Open 1D lattice with ``n_sites`` sites."""
    return LatticeSpec(dimension=1, linear_size=n_sites, boundary="open")


@dataclass(frozen=True)
class CouplingModel:
    """Power-law coupling ``J(r) = r**(-alpha)``.

    Times computed with it are physical; the CLI's ``--kac`` rescales
    them to the Kac-normalized coupling J / lambda.
    """

    alpha: float

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")


def distance(spec: LatticeSpec, i: int, j: int) -> float:
    """Metric distance between sites ``i`` and ``j``.

    Returns the ring distance on periodic 1D lattices and the Euclidean
    (minimum-image Euclidean when periodic) distance otherwise.
    """
    spec._check_index(i)
    spec._check_index(j)
    if i == j:
        return 0.0
    if spec.dimension == 1:
        d = abs(i - j)
        if spec.boundary == "periodic":
            d = min(d, spec.site_count - d)
        return float(d)
    ci = np.array(spec.index_to_coords(i), dtype=float)
    cj = np.array(spec.index_to_coords(j), dtype=float)
    diff = np.abs(ci - cj)
    if spec.boundary == "periodic":
        diff = np.minimum(diff, spec.linear_size - diff)
    return float(np.sqrt(np.sum(diff * diff)))


def distances_from(spec: LatticeSpec, i: int) -> np.ndarray:
    """Distances from site ``i`` to every site, as a length-N array."""
    spec._check_index(i)
    if spec.dimension == 1:
        d = np.abs(np.arange(spec.site_count) - i).astype(float)
        if spec.boundary == "periodic":
            d = np.minimum(d, spec.site_count - d)
        return d
    coords = spec._coord_array().astype(float)
    diff = np.abs(coords - coords[i])
    if spec.boundary == "periodic":
        diff = np.minimum(diff, spec.linear_size - diff)
    return np.sqrt(np.sum(diff * diff, axis=1))


def coupling(spec: LatticeSpec, model: CouplingModel, i: int, j: int) -> float:
    """Coupling strength ``distance(i, j)**(-alpha)`` for ``i != j``."""
    if i == j:
        raise ValueError("self-coupling is undefined; the self-hop strength is a separate quantity")
    return float(distance(spec, i, j) ** (-model.alpha))


def coupling_row(spec: LatticeSpec, model: CouplingModel, i: int) -> np.ndarray:
    """Couplings from site ``i`` to all sites, with the ``i`` entry set to 0."""
    d = distances_from(spec, i)
    row = np.zeros_like(d)
    mask = d > 0
    row[mask] = d[mask] ** (-model.alpha)
    return row


def coupling_matrix(spec: LatticeSpec, model: CouplingModel) -> np.ndarray:
    """Dense N x N coupling matrix with zero diagonal.

    Materializes O(N**2) memory; intended for the small-system oracles
    and certification checks, not for the large-N sweeps.
    """
    n = spec.site_count
    J = np.empty((n, n))
    for i in range(n):
        J[i] = coupling_row(spec, model, i)
    return J
