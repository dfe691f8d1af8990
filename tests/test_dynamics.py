import math
import tracemalloc

import numpy as np
import pytest

from lr_horizon import (
    CouplingModel,
    Segment,
    SingleParticleHamiltonian,
    chain,
    commutator_amplitude,
    dynamics,
    evolve,
    fit_model,
    free_particle_bound,
    ising_exact_oracle,
    ring,
    schedule_from_hamiltonian,
    state_transfer_protocol,
    trajectory,
)


def _single(hop, duration=1.0, onsite=None):
    return SingleParticleHamiltonian(segments=(Segment(duration=duration, hop=np.asarray(hop, dtype=complex), onsite=onsite),))


def test_evolve_zero_hamiltonian_is_identity():
    ham = _single(np.zeros((4, 4)))
    psi0 = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    assert np.allclose(evolve(ham, psi0), psi0)


@pytest.mark.parametrize("duration", [math.nan, math.inf])
def test_non_finite_segment_duration_rejected(duration):
    with pytest.raises(ValueError, match="positive and finite"):
        _single(np.zeros((2, 2)), duration=duration)


def test_evolve_rejects_nan_time():
    with pytest.raises(ValueError, match="outside the schedule"):
        evolve(_single(np.zeros((2, 2))), np.array([1.0, 0.0], dtype=complex), t=math.nan)


@pytest.mark.parametrize("J,t", [(1.0, 0.3), (0.3, 0.7), (2.0, 1.9)])
def test_two_site_rabi(J, t):
    ham = _single([[0.0, J], [J, 0.0]], duration=t)
    psi = evolve(ham, np.array([1.0, 0.0], dtype=complex))
    assert abs(psi[1]) == pytest.approx(abs(math.sin(J * t)), rel=1e-12)


def test_onsite_fields_change_amplitude_but_preserve_norm():
    rng = np.random.default_rng(3)
    hop = np.zeros((5, 5))
    hop[0, 1] = hop[1, 0] = 1.0
    bare = evolve(_single(hop, duration=0.8), np.eye(5, dtype=complex)[0])
    dressed = evolve(
        _single(hop, duration=0.8, onsite=rng.normal(size=5)), np.eye(5, dtype=complex)[0]
    )
    assert abs(np.linalg.norm(dressed) - 1) < 1e-10
    assert abs(abs(dressed[1]) - abs(bare[1])) > 1e-3


def test_non_hermitian_rejected():
    hop = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        _single(hop)


@pytest.mark.parametrize("entries", [(math.nan, math.nan), (math.inf, math.inf), (math.inf, 1.0), (math.nan, 0.0)])
def test_non_finite_hop_rejected(entries):
    """A NaN or inf hop entry, mirrored or not, fails the check rather than evolving to NaN."""
    hop = np.zeros((4, 4))
    hop[0, 1] = hop[1, 0] = 1.0
    hop[2, 3], hop[3, 2] = entries
    with pytest.raises(ValueError, match="not finite and Hermitian"):
        _single(hop)


@pytest.mark.parametrize("onsite", [[0.0, math.nan, 0.0, 0.0], [0.0, math.inf, 0.0, 0.0], [5.0], 5.0])
def test_onsite_fields_that_are_not_n_finite_values_rejected(onsite):
    """A length-1 onsite would broadcast onto every hop entry; a NaN or inf one would evolve to NaN."""
    hop = np.zeros((4, 4))
    hop[0, 1] = hop[1, 0] = 1.0
    with pytest.raises(ValueError, match="onsite fields must be 4 finite values"):
        _single(hop, onsite=np.array(onsite))


def test_nonpositive_duration_rejected():
    with pytest.raises(ValueError):
        _single(np.zeros((2, 2)), duration=0.0)


def test_evolve_partial_time_truncates_schedule():
    h1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    ham = SingleParticleHamiltonian(
        segments=(Segment(duration=0.5, hop=h1), Segment(duration=0.5, hop=2 * h1))
    )
    psi = evolve(ham, np.array([1.0, 0.0], dtype=complex), t=0.3)
    assert abs(psi[1]) == pytest.approx(math.sin(0.3), rel=1e-12)


def test_commutator_amplitude_zero_at_zero_time():
    ham = _single(np.ones((4, 4)) - np.eye(4))
    assert commutator_amplitude(ham, 0, 2, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_commutator_amplitude_full_rabi_transfer():
    ham = _single([[0.0, 1.0], [1.0, 0.0]], duration=math.pi / 2)
    assert commutator_amplitude(ham, 0, 1, math.pi / 2) == pytest.approx(1.0, rel=1e-12)


def _clip(schedule, t):
    """Truncate a hop schedule at total elapsed time t."""
    segs, left = [], t
    for duration, row in schedule.segments:
        if left <= 0:
            break
        dt = min(duration, left)
        segs.append((dt, row))
        left -= dt
    from lr_horizon import HopSchedule

    return HopSchedule(segments=tuple(segs)) if segs else None


def test_amplitude_obeys_free_particle_bound_randomized():
    rng = np.random.default_rng(20260818)
    for _ in range(30):
        n = int(rng.integers(3, 12))
        segs = []
        for _ in range(int(rng.integers(1, 4))):
            h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = (h + h.conj().T) / 2
            segs.append(Segment(duration=float(rng.uniform(0.05, 0.4)), hop=h, onsite=rng.normal(size=n)))
        ham = SingleParticleHamiltonian(segments=tuple(segs))
        x, y = rng.choice(n, size=2, replace=False)
        sched = schedule_from_hamiltonian(ham, int(x))
        for t in rng.uniform(0.01, ham.total_time, size=4):
            clipped = _clip(sched, float(t))
            amp = commutator_amplitude(ham, int(x), int(y), float(t))
            assert amp <= free_particle_bound(clipped) + 1e-12


def test_protocol_reference_run():
    res = state_transfer_protocol(7, 0.5)
    assert res.fidelity == pytest.approx(1.0, abs=1e-9)
    assert res.bound == pytest.approx(math.pi / 2, abs=1e-9)
    assert res.ratio == pytest.approx(2 / math.pi, abs=1e-6)
    assert res.total_time == pytest.approx(math.pi * 6**0.5 / math.sqrt(5), rel=1e-12)


def test_protocol_transfer_completes_exactly_at_T():
    res = state_transfer_protocol(9, 0.5)
    psi0 = np.zeros(9, dtype=complex)
    psi0[res.source] = 1.0
    early = evolve(res.hamiltonian, psi0, t=0.9 * res.total_time)
    assert abs(early[res.target]) < 1 - 1e-3


def test_protocol_ratio_constant_across_n():
    ratios = [state_transfer_protocol(n, 0.3).ratio for n in (5, 8, 13, 21)]
    assert max(ratios) - min(ratios) < 1e-9


def test_protocol_time_scaling_alpha0():
    pts = [(n, state_transfer_protocol(n, 0.0).total_time) for n in (16, 64, 256, 1024)]
    assert fit_model("pure_power", pts).coefficients[1] == pytest.approx(-0.5, abs=0.05)


def test_protocol_2d_grid():
    res = state_transfer_protocol(25, 0.5, dimension=2)
    assert res.fidelity == pytest.approx(1.0, abs=1e-9)
    assert res.ratio == pytest.approx(2 / math.pi, abs=1e-6)


def test_protocol_small_n_rejected():
    with pytest.raises(ValueError):
        state_transfer_protocol(3, 0.5)


def test_protocol_2d_requires_square_count():
    with pytest.raises(ValueError):
        state_transfer_protocol(24, 0.5, dimension=2)


@pytest.mark.parametrize("n,alpha", [(128, 200.0), (8, 2000.0), (128, 146.4)], ids=["power", "power_small_n", "times_pi"])
def test_protocol_rejects_a_transfer_time_past_the_float_range(n, alpha):
    """127**200 raises OverflowError; pi 127**146.4 / sqrt(126) turns inf without one. Both name alpha and N."""
    with pytest.raises(ValueError, match=rf"overflows a float at alpha = {alpha}, N = {n}$"):
        state_transfer_protocol(n, alpha)


def test_protocol_bound_where_the_stage_strengths_squares_underflow():
    """The squares of 127**-alpha are subnormal at alpha 74 and 76 and underflow to 0 from 78; the bound stays pi/2."""
    for alpha in (60.0, 74.0, 76.0, 80.0, 146.0):
        res = state_transfer_protocol(128, alpha)
        assert abs(res.bound - math.pi / 2) <= 4 * math.ulp(math.pi / 2), alpha
        assert res.ratio <= 2 / math.pi + 8 * math.ulp(2 / math.pi), alpha


def test_trajectory_probabilities_normalized():
    res = state_transfer_protocol(6, 0.5)
    psi0 = np.zeros(6, dtype=complex)
    psi0[res.source] = 1.0
    rows = trajectory(res.hamiltonian, psi0, np.linspace(0, res.total_time, 7))
    assert len(rows) == 7
    for _, probs in rows:
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert rows[-1][1][res.target] == pytest.approx(1.0, abs=1e-9)


@pytest.fixture
def eigh_calls(monkeypatch):
    """The matrices handed to ``np.linalg.eigh`` while the test runs."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def test_trajectory_decomposes_each_segment_once(eigh_calls):
    h1 = np.array([[0.0, 1.0, 0.2], [1.0, 0.0, 0.5], [0.2, 0.5, 0.0]])  # no star: (0, 2) is off row and column 1
    h2 = np.array([[0.0, 0.0, 0.3], [0.0, 0.0, 1.0], [0.3, 1.0, 0.0]])
    ham = SingleParticleHamiltonian(
        segments=(Segment(duration=0.5, hop=h1), Segment(duration=0.7, hop=h2, onsite=np.ones(3)))
    )
    rows = trajectory(ham, np.eye(3, dtype=complex)[0], np.linspace(0.0, ham.total_time, 101))
    assert len(rows) == 101
    assert len(eigh_calls) == 2


def test_protocol_and_its_trajectory_decompose_each_segment_once(eigh_calls):
    """Both stages are stars, decomposed in closed form: no ``eigh`` at all."""
    res = state_transfer_protocol(16, 0.5)
    psi0 = np.zeros(16, dtype=complex)
    psi0[res.source] = 1.0
    trajectory(res.hamiltonian, psi0, np.linspace(0.0, res.total_time, 101))
    assert len(eigh_calls) == 0


def _evolve_fresh(ham, psi, t):
    """The reference evolution: ``eigh`` called afresh for each segment on every call."""
    remaining = t
    for seg in ham.segments:
        if remaining <= 0:
            break
        dt = min(seg.duration, remaining)
        w, v = np.linalg.eigh(np.asarray(seg.hop, dtype=complex) + np.diag(seg.onsite))
        psi = v @ (np.exp(-1j * w * dt) * (v.conj().T @ psi))
        remaining -= dt
    return psi


def test_cached_decompositions_evolve_bit_identically():
    rng = np.random.default_rng(20260818)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        segs = []
        for _ in range(3):
            h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = (h + h.conj().T) / 2
            segs.append(Segment(duration=float(rng.uniform(0.05, 0.4)), hop=h, onsite=rng.normal(size=n)))
        ham = SingleParticleHamiltonian(segments=tuple(segs))
        psi0 = np.eye(n, dtype=complex)[int(rng.integers(n))]
        for t in [*rng.uniform(0.0, ham.total_time, size=4), ham.total_time]:
            assert np.array_equal(evolve(ham, psi0, float(t)), _evolve_fresh(ham, psi0, float(t)))


def _star_probabilities(n, length, alpha, t, total_time):
    """The two stages' closed form: stars of m = n - 2 leaves, frequency sqrt(m) * length**-alpha."""
    m, freq = n - 2, math.sqrt(n - 2) * length**-alpha
    probs = np.zeros(n)
    if t <= total_time / 2:
        probs[0] = math.cos(freq * t) ** 2
        probs[1:-1] = math.sin(freq * t) ** 2 / m
    else:
        probs[1:-1] = math.cos(freq * (t - total_time / 2)) ** 2 / m
        probs[-1] = math.sin(freq * (t - total_time / 2)) ** 2
    return probs


@pytest.mark.parametrize(
    "n, alpha, dimension, length",
    [(n, a, 1, n - 1) for n in (7, 128, 256) for a in (0.3, 0.8)] + [(64, 0.5, 2, 7 * math.sqrt(2))],
)
def test_protocol_trajectory_matches_the_star_closed_form(n, alpha, dimension, length):
    """A test reference only: the oracle decomposes each stage star from its matrix (``_star_eigh``), not from this formula."""
    res = state_transfer_protocol(n, alpha, dimension)
    psi0 = np.zeros(n, dtype=complex)
    psi0[res.source] = 1.0
    for t, probs in trajectory(res.hamiltonian, psi0, np.linspace(0.0, res.total_time, 101)):
        expected = _star_probabilities(n, length, alpha, t, res.total_time)
        assert np.abs(probs - expected).max() <= 1e-12, t


def _real_schedule(rng, n, segments=3):
    segs = []
    for _ in range(segments):
        h = rng.normal(size=(n, n))
        segs.append(Segment(duration=float(rng.uniform(0.05, 0.4)), hop=(h + h.T) / 2, onsite=rng.normal(size=n)))
    return SingleParticleHamiltonian(segments=tuple(segs))


def test_real_schedules_evolve_as_a_fresh_real_eigh():
    rng = np.random.default_rng(20261019)
    for _ in range(20):
        n = int(rng.integers(3, 40))
        ham = _real_schedule(rng, n)
        assert all(v.dtype == np.float64 for _, v, _ in ham.eigensystems)
        psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        for t in [*rng.uniform(0.0, ham.total_time, size=4), ham.total_time]:
            remaining, psi = float(t), psi0
            for seg in ham.segments:
                if remaining <= 0:
                    break
                dt = min(seg.duration, remaining)
                w, v = np.linalg.eigh(seg.hop + np.diag(seg.onsite))
                psi = v @ (np.exp(-1j * w * dt) * (v.T @ psi))
                remaining -= dt
            np.testing.assert_allclose(evolve(ham, psi0, float(t)), psi, rtol=0, atol=1e-13)


def test_trajectory_agrees_with_evolve_at_each_time():
    rng = np.random.default_rng(7)
    res = state_transfer_protocol(64, 0.6)
    psi0 = np.eye(64, dtype=complex)[res.source]
    cases = [(res.hamiltonian, psi0), (_real_schedule(rng, 16), np.eye(16, dtype=complex)[3])]
    h = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))  # a complex segment between real ones
    mixed = (cases[1][0].segments[0], Segment(duration=0.3, hop=(h + h.conj().T) / 2), cases[1][0].segments[1])
    cases.append((SingleParticleHamiltonian(segments=mixed), np.eye(16, dtype=complex)[3]))
    for ham, psi in cases:
        times = np.linspace(0.0, ham.total_time, 101)
        rows = trajectory(ham, psi, times)
        assert [t for t, _ in rows] == times.tolist()
        for t, probs in rows:
            np.testing.assert_allclose(probs, np.abs(evolve(ham, psi, t)) ** 2, rtol=0, atol=1e-15)
        assert np.array_equal(rows[0][1], np.abs(psi) ** 2)


def test_trajectory_at_unordered_times_equals_its_parts():
    """The split of the times over the segments does not depend on their order or count."""
    ham = _real_schedule(np.random.default_rng(11), 16)
    psi0 = np.eye(16, dtype=complex)[5]
    times = np.random.default_rng(12).permutation(np.linspace(0.0, ham.total_time, 700))
    whole = np.array([p for _, p in trajectory(ham, psi0, times)])
    parts = np.array([p for k in range(0, 700, 50) for _, p in trajectory(ham, psi0, times[k : k + 50])])
    np.testing.assert_allclose(whole, parts, rtol=0, atol=1e-15)


@pytest.mark.parametrize("fraction", [math.nan, -1e-9, 2.0])
def test_trajectory_rejects_a_time_outside_the_schedule(fraction):
    ham = _real_schedule(np.random.default_rng(3), 5, segments=2)
    with pytest.raises(ValueError):
        trajectory(ham, np.eye(5, dtype=complex)[0], [0.0, fraction * ham.total_time])


def test_protocol_stages_are_decomposed_in_real_arithmetic(eigh_calls):
    res = state_transfer_protocol(16, 0.5)
    trajectory(res.hamiltonian, np.eye(16, dtype=complex)[res.source], np.linspace(0.0, res.total_time, 101))
    assert eigh_calls == []
    assert [a.dtype for e in res.hamiltonian.eigensystems for a in e] == [np.float64] * 6


def _random_star(rng, n, scale):
    """(hop, c): a real star on n sites, its centre c joined by signed weights, some of them zero."""
    c = int(rng.integers(n))
    b = scale * rng.normal(size=n) * (rng.random(n) > 0.2)
    b[c] = 0.0
    b[(c + 1) % n] = scale * rng.choice([-1.0, 1.0])  # at least one edge
    hop = np.zeros((n, n))
    hop[c], hop[:, c] = b, b
    return hop, c


@pytest.mark.parametrize("scale", [1.0, 1e-160])
def test_random_real_stars_evolve_as_a_fresh_eigh(eigh_calls, scale):
    """Closed-form stars, whose squared strengths may underflow at 1e-160, against ``eigh`` of the same matrix."""
    rng = np.random.default_rng(20261021)
    for checked in range(40):
        n = int(rng.integers(2, 41))
        hop, _ = _random_star(rng, n, scale)
        t = float(rng.uniform(0.1, 3.0)) / scale
        ham = SingleParticleHamiltonian(segments=(Segment(duration=t, hop=hop),))
        psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi0 /= np.linalg.norm(psi0)
        psi = evolve(ham, psi0)
        (_, v, _), = ham.eigensystems
        assert len(eigh_calls) == checked  # only the references' calls
        assert v.shape == (n, 2)
        np.testing.assert_allclose(v.T @ v, np.eye(2), rtol=0, atol=1e-13)
        w_ref, v_ref = np.linalg.eigh(hop)
        np.testing.assert_allclose(psi, v_ref @ (np.exp(-1j * w_ref * t) * (v_ref.T @ psi0)), rtol=0, atol=1e-13)


def test_random_stars_leave_every_site_off_the_star_untouched():
    """Amplitudes outside supp(b) and the centre c come back bit for bit: the zero eigenspace never evolves."""
    rng = np.random.default_rng(20261022)
    for _ in range(50):
        n = int(rng.integers(3, 41))
        hop, c = _random_star(rng, n, 1.0)
        ham = SingleParticleHamiltonian(segments=(Segment(duration=float(rng.uniform(0.1, 3.0)), hop=hop),))
        psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        off = hop[c] == 0
        off[c] = False
        assert np.array_equal(evolve(ham, psi0)[off], psi0[off])


def test_a_star_is_decomposed_in_less_than_one_n_by_n_array():
    hop, _ = _random_star(np.random.default_rng(2), 512, 1.0)
    tracemalloc.start()
    try:
        w, v = dynamics._star_eigh(hop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (w.shape, v.shape) == ((2,), (512, 2))
    assert peak < hop.nbytes


def test_a_dense_matrix_is_no_star_before_any_index_array():
    """The nonzero count rules a dense matrix out first: no N x N (or nnz-long) temporary."""
    h = np.random.default_rng(1).normal(size=(512, 512))
    h += h.T
    tracemalloc.start()
    try:
        assert dynamics._star_eigh(h) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < h[0].nbytes


def _near_star(variant, rng, n=9):
    """(hop, onsite): a real star on n sites, changed by ``variant`` so that it is no closed-form star."""
    hop, c = _random_star(rng, n, 1.0)
    i, j = [k for k in range(n) if k != c][:2]
    leaf = int(np.flatnonzero(hop[c])[0])
    if variant == "complex":
        return hop.astype(complex), None
    if variant == "onsite":
        return hop, rng.normal(size=n)
    if variant == "off_row":
        hop[i, j] = hop[j, i] = 0.25
    elif variant == "diagonal":  # the nonzero count is a star's: only the zero diagonal rules it out
        hop[c, c] = hop[i, i] = 0.25
    elif variant == "inexact":  # Hermitian to one ulp, not exactly
        hop[leaf, c] = np.nextafter(hop[c, leaf], math.inf)
    elif variant == "zero":
        hop[:] = 0.0
    return hop, None


@pytest.mark.parametrize("variant", ["complex", "onsite", "off_row", "diagonal", "inexact", "zero"])
def test_near_stars_still_take_eigh_once_per_segment(eigh_calls, variant):
    """Stars that are complex, have on-site fields, an entry off the centre's row, a nonzero
    diagonal or a column not exactly the row, and a zero hop, are decomposed by ``eigh``."""
    rng = np.random.default_rng(5)
    segs = []
    for _ in range(3):
        hop, onsite = _near_star(variant, rng)
        segs.append(Segment(duration=0.4, hop=hop, onsite=onsite))
    ham = SingleParticleHamiltonian(segments=tuple(segs))
    trajectory(ham, np.eye(9, dtype=complex)[2], np.linspace(0.0, ham.total_time, 11))
    assert len(eigh_calls) == 3


def test_ising_oracle_zero_time():
    assert ising_exact_oracle(ring(4), CouplingModel(alpha=1.0), 0, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_ising_oracle_ring4_hand_value():
    val = ising_exact_oracle(ring(4), CouplingModel(alpha=1.0), 0, math.pi / 30)
    assert val == pytest.approx(0.5, abs=1e-10)


def test_ising_oracle_two_spins():
    for t in (0.05, 0.37, 1.1):
        assert ising_exact_oracle(chain(2), CouplingModel(alpha=0.9), 0, t) == pytest.approx(
            math.sin(2 * t), abs=1e-12
        )


def test_ising_oracle_size_cap():
    with pytest.raises(ValueError):
        ising_exact_oracle(ring(12), CouplingModel(alpha=1.0), 0, 0.1)


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_ising_oracle_rejects_a_time_that_is_not_finite_and_non_negative(t):
    with pytest.raises(ValueError, match="t must be finite and >= 0"):
        ising_exact_oracle(ring(4), CouplingModel(alpha=1.0), 0, t)


def _fresh_oracle(spec, model, i, t):
    dynamics._ising_state.cache_clear()
    return ising_exact_oracle(spec, model, i, t)


def test_ising_oracle_t_sweep_builds_its_state_once_and_keeps_every_bit():
    spec, model, ts = ring(10), CouplingModel(alpha=0.8), [0.02 * k for k in range(10)]
    dynamics._ising_state.cache_clear()
    table = [ising_exact_oracle(spec, model, 3, t) for t in ts]
    assert dynamics._ising_state.cache_info()[:2] == (9, 1)  # hits, misses
    assert table == [_fresh_oracle(spec, model, 3, t) for t in ts]


def test_ising_oracle_never_reuses_another_tasks_state():
    keys = [(ring(8), 0.3, 0), (ring(8), 0.9, 0), (chain(8), 0.3, 0), (chain(8), 0.3, 2), (chain(8), 0.9, 2)]
    fresh = {(k, t): _fresh_oracle(spec, CouplingModel(alpha=a), i, t)
             for k, (spec, a, i) in enumerate(keys) for t in (0.1, 0.4)}
    assert len({fresh[k, 0.4] for k in range(len(keys))}) == len(keys)  # a wrong state would show
    dynamics._ising_state.cache_clear()
    for t in (0.1, 0.4):
        for k in [0, 1, 0, 2, 3, 2, 4, 1, 3, 4]:
            spec, a, i = keys[k]
            assert ising_exact_oracle(spec, CouplingModel(alpha=a), i, t) == fresh[k, t]


def test_ising_oracle_checks_its_cap_and_index_after_a_cached_call():
    model = CouplingModel(alpha=1.0)
    value = ising_exact_oracle(ring(10), model, 0, 0.1)
    with pytest.raises(ValueError, match="exceeds dense oracle cap"):
        ising_exact_oracle(ring(12), model, 0, 0.1)
    # 0.0 == 0 as a cache key, but it is no site index.
    for i in (10, -1, 0.0):
        with pytest.raises(ValueError, match="site index"):
            ising_exact_oracle(ring(10), model, i, 0.1)
    assert ising_exact_oracle(ring(10), model, np.int64(0), 0.1) == value
