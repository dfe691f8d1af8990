"""Lattice geometry, site indexing, distances, and power-law couplings.

This module decides the geometry every command rests on: how N sites
form an L**D box (``LatticeSpec.from_sites``), the metric, and the
largest separation (``LatticeSpec.largest_distance``). The distance
between two sites is the Euclidean norm of their coordinate difference,
after the per-axis minimum image ``min(|d|, L - |d|)`` when periodic; on
a ring that is ``min(|i - j|, N - |i - j|)``. Sites are addressed by a
flat row-major index. Distances are computed on demand (never as an
N x N matrix), from one displacement array per axis and one outer sum,
so that rings with N = 10**6 sites stay cheap. No other module computes
a distance or a coupling row: ``kernels`` reads its grid from here.
"""

from __future__ import annotations

import functools
import math
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
    """

    dimension: int
    linear_size: int
    boundary: str = "periodic"

    def __post_init__(self) -> None:
        if not isinstance(self.dimension, (int, np.integer)) or self.dimension < 1:
            raise ValueError(f"dimension must be an integer >= 1, got {self.dimension!r}")
        if not isinstance(self.linear_size, (int, np.integer)) or self.linear_size < 2:
            raise ValueError(f"linear_size must be an integer >= 2, got {self.linear_size!r}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")

    @classmethod
    def from_sites(cls, n_sites: int, dimension: int, boundary: str = "periodic") -> LatticeSpec:
        """The lattice of ``n_sites`` = L**D sites; an N that is no perfect D-th power is invalid."""
        # A negative N has no real root, and D < 1 no root at all; kept as the side, N fails a check below.
        side = round(n_sites ** (1.0 / dimension)) if n_sites > 0 and dimension > 0 else n_sites
        if side**dimension != n_sites:
            raise ValueError(f"N = {n_sites} is not a perfect power for D = {dimension}")
        return cls(dimension, side, boundary)

    @property
    def site_count(self) -> int:
        """Total number of sites N = L**D."""
        return self.linear_size ** self.dimension

    @property
    def shape(self) -> tuple[int, ...]:
        """(L,) * D, the grid whose row-major flat index is the site index."""
        return (self.linear_size,) * self.dimension

    @property
    def largest_distance(self) -> float:
        """sqrt(D) * floor(L/2) periodic (the minimum image), sqrt(D) * (L - 1) open."""
        reach = self.linear_size // 2 if self.boundary == "periodic" else self.linear_size - 1
        return math.sqrt(self.dimension) * reach

    def check_index(self, i: int) -> None:
        """Raise ``ValueError`` unless ``i`` is an integer site index in [0, N)."""
        if not isinstance(i, (int, np.integer)):
            raise ValueError(f"site index {i!r} is not an integer")
        if not 0 <= i < self.site_count:
            raise ValueError(f"site index {i} outside [0, {self.site_count})")

    def index_to_coords(self, i: int) -> tuple[int, ...]:
        """Convert a flat row-major site index to a coordinate vector."""
        self.check_index(i)
        return tuple(int(c) for c in np.unravel_index(i, self.shape))

    def coords_to_index(self, coords) -> int:
        """Convert a coordinate vector back to the flat row-major index."""
        if len(coords) != self.dimension:
            raise ValueError(f"expected {self.dimension} coordinates, got {len(coords)}")
        for c in coords:
            if not 0 <= c < self.linear_size:
                raise ValueError(f"coordinate {c} outside [0, {self.linear_size})")
        return int(np.ravel_multi_index(tuple(int(c) for c in coords), self.shape))


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
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")


def _metric(spec: LatticeSpec, axes: list[np.ndarray]) -> np.ndarray:
    """Euclidean norms on the grid spanned by ``axes``, one 1D float displacement array per axis.

    Each axis becomes |d|, then its minimum image when periodic, in place.
    At D = 1 that is the result; at D >= 2, the sqrt of the outer sum of squares.
    """
    for d in axes:
        np.abs(d, out=d)
        if spec.boundary == "periodic":
            # min(d, L - d) = L/2 - |L/2 - d|, exact for integer d and L.
            half = spec.linear_size / 2
            np.subtract(half, d, out=d)
            np.abs(d, out=d)
            np.subtract(half, d, out=d)
    if spec.dimension == 1:
        return axes[0]
    for d in axes:
        np.multiply(d, d, out=d)
    squares = functools.reduce(np.add.outer, axes)
    return np.sqrt(squares, out=squares)


def distance(spec: LatticeSpec, i: int, j: int) -> float:
    """Metric distance between sites ``i`` and ``j``."""
    diff = np.subtract(spec.index_to_coords(i), spec.index_to_coords(j), dtype=float)
    return _metric(spec, list(diff[:, None])).item()


def distances_from(spec: LatticeSpec, i: int) -> np.ndarray:
    """Distances from site ``i`` to every site, as a length-N array."""
    L = spec.linear_size
    return _metric(spec, [np.arange(-c, L - c, dtype=float) for c in spec.index_to_coords(i)]).ravel()


def coupling(spec: LatticeSpec, model: CouplingModel, i: int, j: int) -> float:
    """Coupling strength ``distance(i, j)**(-alpha)`` for ``i != j``."""
    if i == j:
        raise ValueError("self-coupling is undefined; the self-hop strength is a separate quantity")
    return float(distance(spec, i, j) ** (-model.alpha))


def coupling_row(spec: LatticeSpec, model: CouplingModel, i: int) -> np.ndarray:
    """Couplings from site ``i`` to all sites, with the ``i`` entry set to 0."""
    row = distances_from(spec, i)
    with np.errstate(divide="ignore"):
        row **= -model.alpha  # in place: the same scalar-power path as d ** -alpha, so the same bits
    row[i] = 0.0
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
