"""Exact small-system simulators used as oracles for the bounds.

Two sectors are covered: single-excitation dynamics of non-interacting
hoppers (piecewise-constant Hamiltonians, evolved exactly by
per-segment eigendecomposition) and the diagonal Ising evolution of a
GHZ state (dense 2**N state vector). Bosons and fermions evolve
identically in the single-excitation sector, so one simulator serves
both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import HopSchedule, free_particle_bound
from .lattice import CouplingModel, LatticeSpec, coupling_matrix

EVOLVE_MAX_SITES = 4096
ISING_ORACLE_MAX_SITES = 10

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-10
W_STATE_TOL = 1e-9


@dataclass(frozen=True)
class Segment:
    """One piecewise-constant stage: hop matrix, optional on-site fields."""

    duration: float
    hop: np.ndarray
    onsite: np.ndarray | None = None


@dataclass(frozen=True)
class SingleParticleHamiltonian:
    """A schedule of Hermitian hop segments acting on N amplitudes."""

    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("need at least one segment")
        n = self.n_sites
        if n > EVOLVE_MAX_SITES:
            raise ValueError(f"N = {n} exceeds evolution cap {EVOLVE_MAX_SITES}")
        for seg in self.segments:
            if seg.duration <= 0:
                raise ValueError("segment durations must be positive")
            h = np.asarray(seg.hop)
            if h.shape != (n, n):
                raise ValueError("all segments must share one site count")
            scale = max(1.0, float(np.abs(h).max()))
            if float(np.abs(h - h.conj().T).max()) > HERMITICITY_TOL * scale:
                raise ValueError("segment hop matrix is not Hermitian")

    @property
    def n_sites(self) -> int:
        return np.asarray(self.segments[0].hop).shape[0]

    @property
    def total_time(self) -> float:
        return sum(seg.duration for seg in self.segments)


def _segment_matrix(seg: Segment) -> np.ndarray:
    h = np.asarray(seg.hop, dtype=complex)
    if seg.onsite is not None:
        h = h + np.diag(np.asarray(seg.onsite, dtype=float))
    return h


def _apply_segment(h: np.ndarray, dt: float, psi: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return v @ (np.exp(-1j * w * dt) * (v.conj().T @ psi))


def evolve(ham: SingleParticleHamiltonian, psi0: np.ndarray, t: float | None = None) -> np.ndarray:
    """Evolve an amplitude vector through the schedule, exactly.

    Each segment applies exp(-i H_seg dt) via eigendecomposition. With
    ``t`` given, evolution stops inside the schedule at that time;
    otherwise the full schedule runs. Norm preservation is checked to
    ``NORM_TOL`` relative.
    """
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (ham.n_sites,):
        raise ValueError(f"state must have shape ({ham.n_sites},)")
    if t is None:
        t = ham.total_time
    if t < 0 or t > ham.total_time * (1 + 1e-12):
        raise ValueError(f"t = {t} outside the schedule [0, {ham.total_time}]")
    norm_in = float(np.linalg.norm(psi))
    remaining = t
    for seg in ham.segments:
        if remaining <= 0:
            break
        dt = min(seg.duration, remaining)
        psi = _apply_segment(_segment_matrix(seg), dt, psi)
        remaining -= dt
    if abs(float(np.linalg.norm(psi)) - norm_in) > NORM_TOL * max(norm_in, 1.0):
        raise RuntimeError("evolution failed to preserve the norm")
    return psi


def commutator_amplitude(ham: SingleParticleHamiltonian, x: int, y: int, t: float) -> float:
    """|<x| U(t) |y>|, the free-particle commutator magnitude.

    For a quadratic Hamiltonian this matrix element equals the operator
    norm of the commutator between the evolved annihilator at ``x`` and
    the static creator at ``y``.
    """
    if x == y:
        raise ValueError("sites must differ")
    n = ham.n_sites
    psi0 = np.zeros(n, dtype=complex)
    psi0[y] = 1.0
    return float(np.abs(evolve(ham, psi0, t)[x]))


def schedule_from_hamiltonian(ham: SingleParticleHamiltonian, x: int) -> HopSchedule:
    """Extract the |J_ix| rows feeding the free-particle bound.

    On-site entries are dropped: diagonal terms never move the particle,
    so they do not enter the bound.
    """
    rows = []
    for seg in ham.segments:
        row = np.abs(np.asarray(seg.hop)[:, x]).astype(float)
        row[x] = 0.0
        rows.append((seg.duration, row))
    return HopSchedule(segments=tuple(rows))


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of the two-stage transfer run."""

    n_sites: int
    alpha: float
    dimension: int
    total_time: float
    fidelity: float
    amplitude: float
    bound: float
    ratio: float
    hamiltonian: SingleParticleHamiltonian
    schedule: HopSchedule
    source: int
    target: int


def state_transfer_protocol(n_sites: int, alpha: float, dimension: int = 1) -> ProtocolResult:
    """Run the two-stage fan-out/fan-in transfer and score it.

    Stage one couples the source uniformly to the N-2 middle sites with
    strength 1/L**alpha (L = largest pairwise distance); after T/2 the
    excitation sits in the symmetric W state over the middles. Stage
    two couples the middles to the target for another T/2, completing
    the transfer at T = pi L**alpha / sqrt(N-2).

    Returns fidelity |<target|psi(T)>| (the single-excitation sector
    carries the whole transfer; the vacuum component is invariant), the
    commutator amplitude |<target|U(T)|source>| (identical by
    construction), the free-particle bound of the schedule, and their
    ratio. The intermediate state is verified to be the W state to
    ``W_STATE_TOL``.
    """
    if n_sites < 4:
        raise ValueError("protocol needs at least 4 sites")
    alpha = CouplingModel(alpha=alpha).alpha  # the one alpha >= 0 check
    if dimension == 1:
        length = float(n_sites - 1)
    else:
        side = round(n_sites ** (1.0 / dimension))
        if side**dimension != n_sites:
            raise ValueError(f"N = {n_sites} is not a {dimension}-dimensional hypercube")
        length = math.sqrt(dimension) * (side - 1)
    source, target = 0, n_sites - 1
    middles = list(range(1, n_sites - 1))
    m = len(middles)
    strength = length ** (-alpha)
    total_time = math.pi * length**alpha / math.sqrt(m)

    def star(center: int) -> np.ndarray:
        h = np.zeros((n_sites, n_sites))
        h[center, middles] = strength
        h[middles, center] = strength
        return h

    ham = SingleParticleHamiltonian(
        segments=(
            Segment(duration=total_time / 2, hop=star(source)),
            Segment(duration=total_time / 2, hop=star(target)),
        )
    )
    psi0 = np.zeros(n_sites, dtype=complex)
    psi0[source] = 1.0

    mid_state = evolve(ham, psi0, total_time / 2)
    w_err = max(
        float(np.abs(np.abs(mid_state[middles]) - 1.0 / math.sqrt(m)).max()),
        float(abs(mid_state[source])),
        float(abs(mid_state[target])),
    )
    if w_err > W_STATE_TOL:
        raise RuntimeError(f"intermediate state deviates from the W state by {w_err:.3e}")

    final = evolve(ham, psi0)
    fidelity = float(np.abs(final[target]))
    amplitude = fidelity
    schedule = schedule_from_hamiltonian(ham, source)
    bound = free_particle_bound(schedule)
    return ProtocolResult(
        n_sites=n_sites,
        alpha=alpha,
        dimension=dimension,
        total_time=total_time,
        fidelity=fidelity,
        amplitude=amplitude,
        bound=bound,
        ratio=amplitude / bound,
        hamiltonian=ham,
        schedule=schedule,
        source=source,
        target=target,
    )


def trajectory(
    ham: SingleParticleHamiltonian, psi0: np.ndarray, times
) -> list[tuple[float, np.ndarray]]:
    """Site occupation probabilities |psi_i(t)|**2 at the given times."""
    out = []
    for t in times:
        psi = evolve(ham, psi0, float(t))
        out.append((float(t), np.abs(psi) ** 2))
    return out


def _apply_ladder(psi: np.ndarray, sites, raising: bool) -> np.ndarray:
    """Apply the product of raising (bit 0 -> 1) or lowering (bit 1 -> 0) operators on ``sites``."""
    idx = np.arange(psi.size)
    mask = 0
    for s in sites:
        mask |= 1 << s
    keep = (idx & mask) == (0 if raising else mask)
    out = np.zeros_like(psi)
    out[idx[keep] ^ mask] = psi[keep]
    return out


def ising_exact_oracle(spec: LatticeSpec, model: CouplingModel, i: int, t: float) -> float:
    """Dense-evolution value of the Ising protocol commutator expectation.

    Builds the GHZ state, evolves it under the diagonal Hamiltonian
    H = sum_{j<k} J_jk sigma^z_j sigma^z_k (pure phase accumulation per
    computational basis state), and evaluates <psi|[A(t), B]|psi> with
    A the raising operator at ``i`` and B the product of raising
    operators everywhere else.

    With raising operators defined as (sigma^x + i sigma^y)/2 the
    expectation is purely imaginary, i * sin(2 lambda_i t); the real
    part is checked to vanish and the imaginary part is returned, which
    is the protocol's signal amplitude.
    """
    n = spec.site_count
    if n > ISING_ORACLE_MAX_SITES:
        raise ValueError(f"N = {n} exceeds dense oracle cap {ISING_ORACLE_MAX_SITES}")
    spec._check_index(i)
    J = coupling_matrix(spec, model)
    dim = 1 << n
    idx = np.arange(dim)
    spins = (((idx[:, None] >> np.arange(n)) & 1) * 2 - 1).astype(float)
    energies = 0.5 * np.einsum("bi,ij,bj->b", spins, J, spins)
    phases = np.exp(-1j * energies * t)

    ghz = np.zeros(dim, dtype=complex)
    ghz[0] = ghz[dim - 1] = 1.0 / math.sqrt(2.0)
    others = [j for j in range(n) if j != i]

    # term1 = <psi| U^dag A U B |psi>
    phi = _apply_ladder(ghz, others, raising=True)
    phi = _apply_ladder(phases * phi, [i], raising=True)
    term1 = np.vdot(phases * ghz, phi)
    # term2 = <psi| B U^dag A U |psi> via <B^dag psi | U^dag A U psi>
    chi = _apply_ladder(phases * ghz, [i], raising=True)
    term2 = np.vdot(_apply_ladder(ghz, others, raising=False), np.conj(phases) * chi)

    value = term1 - term2
    if abs(value.real) > 1e-10:
        raise RuntimeError(f"commutator expectation has real residue {value.real:.3e}")
    return float(value.imag)
