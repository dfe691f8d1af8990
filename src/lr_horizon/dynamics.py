"""Exact small-system simulators used as oracles for the bounds.

Two sectors are covered: single-excitation dynamics of non-interacting
hoppers (piecewise-constant Hamiltonians, evolved exactly by
per-segment eigendecomposition) and the diagonal Ising evolution of a
GHZ state (dense 2**N state vector). Bosons and fermions evolve
identically in the single-excitation sector, so one simulator serves
both.

Each segment of a ``SingleParticleHamiltonian`` is decomposed once, on
first use, in float64 when its ``hop`` and ``onsite`` are real, and
every later ``evolve`` or ``trajectory`` on that Hamiltonian reuses the
result; a segment's ``hop`` and ``onsite`` arrays must not be mutated
after that. A segment whose input shows it is a star -- a real ``hop``,
no ``onsite``, a zero diagonal and every nonzero entry in row or column
c, with ``hop[:, c] == hop[c]`` exactly, as both transfer-protocol
stages are -- keeps only its two nonzero eigenpairs, in closed form;
its zero eigenspace is never formed. Every other segment is decomposed
by ``eigh``. ``trajectory`` evolves all sampled times inside one
segment by one matrix product. ``ising_exact_oracle`` keeps one entry:
the t-independent state of the last (spec, model, i) it was called with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .bounds import HopSchedule, free_particle_bound
from .kernels import _check_time
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
            if not 0 < seg.duration < math.inf:
                raise ValueError(f"segment durations must be positive and finite, got {seg.duration}")
            h = np.asarray(seg.hop)
            if h.shape != (n, n):
                raise ValueError("all segments must share one site count")
            scale = max(1.0, float(np.abs(h).max()))  # inf fails on the scale, NaN on its NaN error
            if not (scale < math.inf and float(np.abs(h - h.conj().T).max()) <= HERMITICITY_TOL * scale):
                raise ValueError("segment hop matrix is not finite and Hermitian")
            if seg.onsite is not None and not (np.shape(seg.onsite) == (n,) and np.isfinite(seg.onsite).all()):
                raise ValueError(f"segment onsite fields must be {n} finite values")

    @property
    def n_sites(self) -> int:
        return np.asarray(self.segments[0].hop).shape[0]

    @property
    def total_time(self) -> float:
        return sum(seg.duration for seg in self.segments)

    @cached_property
    def eigensystems(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """(w, v, v.conj()) of each segment, computed once, on first use.

        A segment whose input shows it is a star (a real ``hop``, no ``onsite``, and the
        pattern ``_star_eigh`` checks) keeps its two nonzero eigenpairs, of shapes (2,) and
        (N, 2); every other segment the whole eigensystem from ``eigh`` of its real or
        complex matrix, of shapes (N,) and (N, N).
        """
        return tuple((w, v, v.conj()) for w, v in map(_decompose, self.segments))


def _decompose(seg: Segment) -> tuple[np.ndarray, np.ndarray]:
    h = np.asarray(seg.hop)
    h = np.asarray(h, dtype=float if np.isrealobj(h) else complex)
    if seg.onsite is not None:
        h = h + np.diag(np.asarray(seg.onsite, dtype=float))
    elif h.dtype == float and (star := _star_eigh(h)) is not None:
        return star
    return np.linalg.eigh(h)


def _star_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The two nonzero eigenpairs (w, v) of a real star ``h``, or None if ``h`` is no star.

    With h[:, c] == h[c] exactly and h[c, c] == 0, row and column c hold 2 nnz(h[c])
    nonzeros, so ``h`` is a star when it has no more. With b = h[c], w = (|b|, -|b|) and
    the N x 2 v has columns (e_c +- b/|b|) / sqrt(2); the rest of the spectrum is 0 on
    {e_c, b}^perp, which never evolves and is never formed. |b| is scaled by max|b|,
    since the squares of the strengths may underflow.
    """
    n, nnz = len(h), np.count_nonzero(h)
    if not 0 < nnz <= 2 * (n - 1):  # counted first, so a dense matrix allocates no index array
        return None
    c = int(np.argmax(np.bincount(np.flatnonzero(h) // n)))  # the row with the most nonzeros
    b = h[c]
    if 2 * np.count_nonzero(b) != nnz or b[c] != 0 or not np.array_equal(h[:, c], b):
        return None
    scale = np.abs(b).max()
    unit = b / scale
    length = np.linalg.norm(unit)
    # Divided by sqrt(2): sqrt(0.5) rounds up, and its square biases the probabilities upward.
    v = np.outer(unit / length, [1.0, -1.0]) / math.sqrt(2)
    v[c] = 1 / math.sqrt(2)
    return scale * length * np.array([1.0, -1.0]), v


def _product(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """v @ x for a C-contiguous complex x; a real v multiplies the real view of x, uncast."""
    return v @ x if np.iscomplexobj(v) else (v @ x.view(float)).view(complex)


def _states(ham: SingleParticleHamiltonian, psi0: np.ndarray, times) -> np.ndarray:
    """The states at ``times``, one row each, by ``evolve``'s rules.

    Per segment: c = v^H psi once, then v @ (exp(-i w dt) * c) for the
    times ending in it and the state carried on, all in one product. A
    star's two eigenpairs (``len(w) < N``) give psi + v @ (expm1(-i w dt) * c)
    instead: the part of psi orthogonal to its columns does not move.
    """
    psi = np.array(psi0, dtype=complex)
    if psi.shape != (ham.n_sites,):
        raise ValueError(f"state must have shape ({ham.n_sites},)")
    remaining = np.array(times, dtype=float)
    outside = ~((0 <= remaining) & (remaining <= ham.total_time * (1 + 1e-12)))
    if outside.any():
        raise ValueError(f"t = {remaining[outside][0]} outside the schedule [0, {ham.total_time}]")
    out = np.empty((remaining.size + 1, psi.size), dtype=complex)  # the last row carries the state on
    out[:] = psi
    for k, (seg, (w, v, v_conj)) in enumerate(zip(ham.segments, ham.eigensystems)):
        dt = np.minimum(seg.duration, remaining)  # 0 once a time has ended
        remaining -= dt
        final = k + 1 == len(ham.segments)
        rows = np.flatnonzero((dt > 0) & ((remaining <= 0) | final))
        if not final and (remaining > 0).any():
            rows, dt = np.append(rows, -1), np.append(dt, seg.duration)
        elif not rows.size:
            break
        coeff = _product(v_conj.T, out[-1][:, None])
        phase = -1j * np.multiply.outer(w, dt[rows])
        if len(w) == psi.size:
            out[rows] = _product(v, np.exp(phase) * coeff).T
        else:
            out[rows] = out[-1] + _product(v, np.expm1(phase) * coeff).T
    norm_in = float(np.linalg.norm(psi))
    if np.any(np.abs(np.linalg.norm(out, axis=1) - norm_in) > NORM_TOL * max(norm_in, 1.0)):
        raise RuntimeError("evolution failed to preserve the norm")
    return out[:-1]


def evolve(ham: SingleParticleHamiltonian, psi0: np.ndarray, t: float | None = None) -> np.ndarray:
    """Evolve an amplitude vector through the schedule, exactly.

    Each segment applies exp(-i H_seg dt) through its eigendecomposition
    and conjugate eigenvectors, which ``ham.eigensystems`` computes once,
    on the first call, and keeps, so no call casts or copies an N x N
    matrix; the segments' ``hop`` and ``onsite`` arrays must not be
    mutated after that. With ``t`` given, evolution stops inside the
    schedule at that time (dt = min(duration, remaining), remaining -= dt;
    t = 0 returns psi0's amplitudes); otherwise the full schedule runs.
    Norm preservation is checked to ``NORM_TOL`` relative. This is
    ``trajectory``'s evolution at one time.
    """
    return _states(ham, psi0, [ham.total_time if t is None else t])[0]


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
    strength 1/L**alpha (L = the open box's ``largest_distance``); after T/2 the
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
    if n_sites > EVOLVE_MAX_SITES:  # before the two dense N x N stage matrices are built
        raise ValueError(f"N = {n_sites} exceeds evolution cap {EVOLVE_MAX_SITES}")
    alpha = CouplingModel(alpha=alpha).alpha  # the one alpha >= 0 check
    length = LatticeSpec.from_sites(n_sites, dimension, "open").largest_distance
    source, target = 0, n_sites - 1
    middles = list(range(1, n_sites - 1))
    m = len(middles)
    strength = length ** (-alpha)
    try:
        total_time = math.pi * length**alpha / math.sqrt(m)
    except OverflowError:
        total_time = math.inf
    if total_time == math.inf:  # before the two N x N stage matrices are built
        raise ValueError(f"T = pi L**alpha / sqrt(N - 2) overflows a float at alpha = {alpha}, N = {n_sites}")

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

    mid_state, final = _states(ham, psi0, [total_time / 2, total_time])
    w_err = max(
        float(np.abs(np.abs(mid_state[middles]) - 1.0 / math.sqrt(m)).max()),
        float(abs(mid_state[source])),
        float(abs(mid_state[target])),
    )
    if w_err > W_STATE_TOL:
        raise RuntimeError(f"intermediate state deviates from the W state by {w_err:.3e}")

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


def trajectory(ham: SingleParticleHamiltonian, psi0: np.ndarray, times) -> list[tuple[float, np.ndarray]]:
    """Site occupation probabilities |psi_i(t)|**2 at the given times.

    The states are ``evolve``'s to a few ulps: the times ending in one
    segment share its v^H psi and one product.
    """
    times = [float(t) for t in times]
    return list(zip(times, np.abs(_states(ham, psi0, times)) ** 2))


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


@lru_cache(maxsize=1)  # one task's (spec, model, i) over its t grid
def _ising_state(spec: LatticeSpec, model: CouplingModel, i: int) -> tuple[np.ndarray, ...]:
    """The t-independent part of ``ising_exact_oracle``: energies, GHZ, B|GHZ>, B^dag|GHZ>, read-only."""
    n = spec.site_count
    J = coupling_matrix(spec, model)
    dim = 1 << n
    spins = (((np.arange(dim)[:, None] >> np.arange(n)) & 1) * 2 - 1).astype(float)
    energies = 0.5 * np.einsum("bi,ij,bj->b", spins, J, spins)
    ghz = np.zeros(dim, dtype=complex)
    ghz[0] = ghz[dim - 1] = 1.0 / math.sqrt(2.0)
    others = [j for j in range(n) if j != i]
    state = (energies, ghz, _apply_ladder(ghz, others, raising=True), _apply_ladder(ghz, others, raising=False))
    for a in state:
        a.flags.writeable = False
    return state


def ising_exact_oracle(spec: LatticeSpec, model: CouplingModel, i: int, t: float) -> float:
    """Dense-evolution value of the Ising protocol commutator expectation.

    Builds the GHZ state, evolves it under the diagonal Hamiltonian
    H = sum_{j<k} J_jk sigma^z_j sigma^z_k (pure phase accumulation per
    computational basis state), and evaluates <psi|[A(t), B]|psi> with
    A the raising operator at ``i`` and B the product of raising
    operators everywhere else.

    The cap, the index and t (finite and >= 0) are checked on every call;
    the t-independent state comes from ``_ising_state``, built once per
    (spec, model, i).

    With raising operators defined as (sigma^x + i sigma^y)/2 the
    expectation is purely imaginary, i * sin(2 lambda_i t); the real
    part is checked to vanish and the imaginary part is returned, which
    is the protocol's signal amplitude.
    """
    n = spec.site_count
    if n > ISING_ORACLE_MAX_SITES:
        raise ValueError(f"N = {n} exceeds dense oracle cap {ISING_ORACLE_MAX_SITES}")
    spec.check_index(i)
    _check_time(t)
    energies, ghz, b_ghz, b_dag_ghz = _ising_state(spec, model, i)
    phases = np.exp(-1j * energies * t)

    # term1 = <psi| U^dag A U B |psi>
    phi = _apply_ladder(phases * b_ghz, [i], raising=True)
    term1 = np.vdot(phases * ghz, phi)
    # term2 = <psi| B U^dag A U |psi> via <B^dag psi | U^dag A U psi>
    chi = _apply_ladder(phases * ghz, [i], raising=True)
    term2 = np.vdot(b_dag_ghz, np.conj(phases) * chi)

    value = term1 - term2
    if abs(value.real) > 1e-10:
        raise RuntimeError(f"commutator expectation has real residue {value.real:.3e}")
    return float(value.imag)
