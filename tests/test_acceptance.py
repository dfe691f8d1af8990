"""Acceptance suite: one test per criterion, one printed verdict line each.

Each test prints "[PASS]/[FAIL] criterion <n>: <summary>" through pytest's
capture so the verdicts are visible in normal -v runs, then asserts.

Criterion 7 checks the alpha = 1 ring signaling time against the form
2 lam t* = ln lam - ln ln lam + C with one constant C, whose leading law
is t* ~ lnln N / ln N (b = -1, c = 1 in t* ~ ln(N)^b * lnln(N)^c). Neither
an exponent nor a prefactor is fitted for it. The stated c = 0.95 is
checked as the effective lnln N exponent with b held at -1. On the N grid
that single fit measures one combination of b and c, not each exponent,
so the form carries the rest of the check. The free three-parameter fit
is still reported but not asserted: its regressors ln ln N and
ln ln ln N are nearly collinear on the grid (condition_warning), and
the analysis module says its b/c split should then not be over-interpreted.
A control runs the check on synthetic laws, including laws along the
collinear valley. The measurements are in notes/decisions.md.
"""

import math

import numpy as np
import pytest

from lr_horizon import (
    BoundPrefactor,
    CouplingModel,
    LatticeSpec,
    Segment,
    SingleParticleHamiltonian,
    analytic_bound,
    chain,
    commutator_amplitude,
    distance,
    exact_sum_bound,
    exact_sum_bound_alpha0_closed_form,
    exact_sum_signaling_time,
    fourier_spectrum,
    free_particle_bound,
    free_particle_envelope,
    fit_model,
    HopSchedule,
    ising_exact_oracle,
    ising_signal,
    ising_signaling_time,
    many_site_bound,
    many_site_signaling_time,
    reproducibility_check,
    ring,
    schedule_from_hamiltonian,
    self_hop_lambda,
    series_oracle,
    state_transfer_protocol,
)
from lr_horizon.cli import main as cli_main

N_GRID_LARGE = tuple(int(round(n)) for n in np.logspace(4, 6, 5))

# Criterion 7: the alpha = 1 law. b is held at its leading value; c is the
# stated effective exponent and its window.
ALPHA1_B = -1.0
ALPHA1_C, ALPHA1_C_TOL = 0.95, 0.15
# Largest spread of C = 2 lam t - (ln lam - ln ln lam) over the grid. With
# 2 lam t* near 1.7, it keeps t* within about 0.15% of the form.
ALPHA1_FORM_SPREAD = 0.005


def alpha1_form_terms(ns):
    """Return (lam, ln lam - ln ln lam) of the alpha = 1 ring at each N."""
    lam = np.array([self_hop_lambda(ring(int(n)), CouplingModel(alpha=1.0)).lam for n in ns])
    return lam, np.log(lam) - np.log(np.log(lam))


def alpha1_double_log_check(points):
    """Check (N, t) points against the alpha = 1 law and the stated c.

    Two conditions, both on quantities the points determine:

    * the form: C = 2 lam t - (ln lam - ln ln lam) varies by at most
      ALPHA1_FORM_SPREAD over the points. No exponent or prefactor is
      fitted, so this fixes the shape of t(N), with its leading 1 / ln N.
    * the stated c: with b held at ALPHA1_B, the pure power-law fit of
      t * ln(N)**-b against lnln N lands within ALPHA1_C_TOL of ALPHA1_C.
      This fit alone measures one combination of b and c; laws along the
      collinear valley pass it and are caught by the form.

    Returns (ok, offsets, c_fit), where ``offsets`` holds C at each point.
    The ``pure_power`` fit needs every abscissa >= 2, so all N must be
    >= exp(e**2), about 1619.
    """
    ns = np.array([n for n, _ in points], dtype=float)
    ts = np.array([t for _, t in points], dtype=float)
    lam, form = alpha1_form_terms(ns)
    offsets = 2.0 * lam * ts - form
    ln_n = np.log(ns)
    c_fit = fit_model("pure_power", zip(np.log(ln_n), ts / ln_n**ALPHA1_B))
    ok = (
        offsets.max() - offsets.min() <= ALPHA1_FORM_SPREAD
        and abs(c_fit.coefficients[1] - ALPHA1_C) <= ALPHA1_C_TOL
    )
    return ok, offsets, c_fit


@pytest.fixture(scope="module")
def report(request):
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _report(num, summary, ok, detail=""):
        tail = f" ({detail})" if detail else ""
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {summary}{tail}"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print("\n" + line, flush=True)
        else:
            print(line, flush=True)

    return _report


def test_criterion_01_fft_matches_dense_oracle(report):
    worst = 0.0
    for n in (8, 32, 128, 256):
        spec = ring(n)
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            model = CouplingModel(alpha=alpha)
            spectrum = fourier_spectrum(n, alpha)
            for t_rel in (0.01, 0.1, 1.0):
                t = t_rel / spectrum.lam
                dense = series_oracle(spec, model, t)
                for r in sorted({1, n // 4, n // 2}):
                    got = exact_sum_bound(n, alpha, r, t, spectrum=spectrum).value
                    want = 2 * dense[0, r]
                    worst = max(worst, abs(got - want) / abs(want))
    ok = worst < 1e-9
    report(1, "series bound equals dense matrix-exponential oracle", ok, f"max rel err {worst:.2e}")
    assert ok, f"max relative error {worst:.3e} exceeds 1e-9"


def test_criterion_02_alpha0_closed_form(report):
    worst, ratios = 0.0, []
    for n in (3, 10, 100, 2 * 509):  # 2 * 509: the spectrum of the coprime split
        for t in (0.01, 0.1):
            closed = 2 * exact_sum_bound_alpha0_closed_form(n, t)
            for r in sorted({1, n // 2}):
                got = exact_sum_bound(n, 0.0, r, t).value
                worst = max(worst, abs(got - closed) / closed)
            ratios.append(closed / (2 * (math.exp(4 * n * t) - 1) / n))
    ok = worst < 1e-9 and all(0 < q <= 1 for q in ratios)
    report(2, "alpha=0 transform equals its closed form", ok, f"max rel err {worst:.2e}")
    assert ok, f"closed-form mismatch {worst:.3e} or ratio outside (0, 1]"


def test_criterion_03_reproducibility_condition(report):
    worst, where = 0.0, None
    cases = []
    for n in (8, 64, 512):
        cases.append(ring(n))
        cases.append(chain(n))
    for side in (4, 8, 16):
        cases.append(LatticeSpec(dimension=2, linear_size=side, boundary="open"))
    for spec in cases:
        for alpha in (0.25, 0.5, 0.75, 1.0):
            rep = reproducibility_check(spec, CouplingModel(alpha=alpha))
            if rep.max_ratio > worst:
                worst, where = rep.max_ratio, (spec.dimension, spec.boundary, spec.site_count, alpha)
    ok = worst <= 1.0
    report(3, "hop composition stays below p*lambda*J", ok, f"max ratio {worst:.4f} at {where}")
    assert ok, f"reproducibility ratio {worst} > 1 at {where}"


def test_criterion_04_lambda_scaling(report):
    msgs, ok = [], True
    grid = (10**3, 10**4, 10**5, 10**6)
    for alpha in (0.0, 0.25, 0.5):
        pts = [(n, self_hop_lambda(ring(n), CouplingModel(alpha=alpha)).lam) for n in grid]
        slope = fit_model("pure_power", pts).coefficients[1]
        ok &= abs(slope - (1 - alpha)) <= 0.05
        msgs.append(f"a={alpha}: {slope:.3f}")
    lam_log = self_hop_lambda(ring(10**6), CouplingModel(alpha=1.0)).lam / math.log(10**6)
    ok &= abs(lam_log - 2) <= 0.05 * 2
    msgs.append(f"lam/lnN={lam_log:.4f}")
    lam5 = self_hop_lambda(ring(10**5), CouplingModel(alpha=2.0)).lam
    lam6 = self_hop_lambda(ring(10**6), CouplingModel(alpha=2.0)).lam
    drift = abs(lam6 - lam5) / lam5
    ok &= drift < 0.01
    msgs.append(f"a=2 drift {drift:.2e}")
    report(4, "self-hop strength scales as N^(1-alpha)", ok, "; ".join(msgs))
    assert ok, "; ".join(msgs)


def _clip_schedule(schedule, t):
    segs, left = [], t
    for duration, row in schedule.segments:
        if left <= 0:
            break
        dt = min(duration, left)
        segs.append((dt, row))
        left -= dt
    return HopSchedule(segments=tuple(segs))


def test_criterion_05_state_transfer_protocol(report):
    res = state_transfer_protocol(7, 0.5)
    fid_ok = abs(res.fidelity - 1.0) < 1e-9
    bound_ok = abs(res.bound - math.pi / 2) < 1e-9
    ratio_ok = abs(res.ratio - 2 / math.pi) < 1e-6

    rng = np.random.default_rng(1651)
    violations = 0
    for _ in range(200):
        n = int(rng.integers(3, 65))
        segs = []
        for _ in range(int(rng.integers(1, 4))):
            h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = (h + h.conj().T) / 2
            segs.append(
                Segment(duration=float(rng.uniform(0.02, 0.3)), hop=h, onsite=rng.normal(size=n))
            )
        ham = SingleParticleHamiltonian(segments=tuple(segs))
        x, y = (int(v) for v in rng.choice(n, size=2, replace=False))
        sched = schedule_from_hamiltonian(ham, x)
        for t in rng.uniform(0.005, ham.total_time, size=10):
            amp = commutator_amplitude(ham, x, y, float(t))
            cap = free_particle_bound(_clip_schedule(sched, float(t)))
            if amp > cap + 1e-12:
                violations += 1
    ok = fid_ok and bound_ok and ratio_ok and violations == 0
    report(
        5,
        "transfer protocol saturates the free-particle bound",
        ok,
        f"fidelity {res.fidelity:.12f}, ratio {res.ratio:.9f}, violations {violations}/2000",
    )
    assert ok, f"fid_ok={fid_ok} bound_ok={bound_ok} ratio_ok={ratio_ok} violations={violations}"


def test_criterion_06_gamma_alpha_reproduction(report):
    msgs, ok = [], True
    for alpha in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7):
        spectra = {n: fourier_spectrum(n, alpha) for n in N_GRID_LARGE}
        for r_label in ("1", "N/2"):
            pts = []
            for n in N_GRID_LARGE:
                r = 1 if r_label == "1" else n // 2
                t = exact_sum_signaling_time(n, alpha, r, 1.0, spectrum=spectra[n]).t_star
                pts.append((n, t))
            gamma = fit_model("power_log", pts).coefficients[1]
            dev = abs(gamma - (alpha - 1))
            ok &= dev <= 0.1
            if dev > 0.05:
                msgs.append(f"a={alpha} r={r_label}: {gamma:.3f}")
    detail = "worst offsets " + "; ".join(msgs) if msgs else "all gamma within 0.05 of alpha-1"
    report(6, "fitted signaling exponent tracks alpha-1", ok, detail)
    assert ok, detail


# t*/t0 - 1 at r = N/2, N = 10**6, delta = 1 and s = 2: ROADMAP item 15's table plus one unit of its last digit.
ZERO_MODE_EXCESS = {0.0: 0.0002, 0.3: 0.0007, 0.6: 0.0038, 0.9: 0.0315}


def test_criterion_06_zero_mode_law(report):
    """At r = N/2 the p = 0 term carries the series: t* >= t0 = ln(1 + N delta / s) / (4 lam), and t*/t0 falls toward 1 with N.

    Since lam ~ N^(1 - alpha), t0 is the N^(alpha - 1) ln N law with its prefactor; no fit runs.
    """
    msgs, ok = [], True
    for alpha, excess in ZERO_MODE_EXCESS.items():
        ratios = []
        for n in (10**3, 10**4, 10**5, 10**6):
            spectrum = fourier_spectrum(n, alpha)
            t_star = exact_sum_signaling_time(n, alpha, n // 2, 1.0, spectrum=spectrum).t_star
            ratios.append(t_star / (math.log1p(n / 2) / (4 * spectrum.lam)))
        ok &= ratios[-1] >= 1 and all(a > b for a, b in zip(ratios, ratios[1:])) and ratios[-1] - 1 <= excess
        msgs.append(f"a={alpha}: " + ", ".join(f"{x:.4f}" for x in ratios))
    detail = "t*/t0 at N = 1e3..1e6: " + "; ".join(msgs)
    report(6, "zero-mode law t0 = ln(1 + N delta / s) / (4 lam) at r = N/2", ok, detail)
    assert ok, detail


def test_criterion_07_alpha1_double_log_fit(report):
    pts = []
    for n in N_GRID_LARGE:
        t = exact_sum_signaling_time(n, 1.0, 1, 1.0).t_star
        pts.append((n, t))
    ok, offsets, c_fit = alpha1_double_log_check(pts)
    free = fit_model("loglog_power", pts)
    _, b_free, c_free = free.coefficients
    c, c_se = c_fit.coefficients[1], c_fit.standard_errors[1]
    detail = (
        f"C={offsets.mean():.4f} spread {offsets.max() - offsets.min():.4f}, "
        f"c={c:.4f}+/-{c_se:.4f} at b={ALPHA1_B}; "
        f"free fit b={b_free:.4f}, c={c_free:.4f}, condition_warning={free.condition_warning}"
    )
    report(
        7,
        "alpha=1 signaling time follows 2*lam*t = ln(lam) - lnln(lam) + C, c at b=-1 near 0.95",
        ok,
        f"{detail}; see notes/decisions.md",
    )
    assert ok, (
        f"alpha=1 check gives {detail}; want a spread of C of at most {ALPHA1_FORM_SPREAD} "
        f"and c={ALPHA1_C} +/- {ALPHA1_C_TOL} at b={ALPHA1_B}. Full analysis in notes/decisions.md."
    )


def _alpha1_form_with_offset(n, offset=3.0):
    lam = self_hop_lambda(ring(n), CouplingModel(alpha=1.0)).lam
    return (math.log(lam) - math.log(math.log(lam)) + offset) / (2.0 * lam)


@pytest.mark.parametrize(
    "law, accept",
    [
        (lambda n: math.log(n) ** -1.0 * math.log(math.log(n)) ** 0.95, True),
        (lambda n: math.log(math.log(n)) / math.log(n), True),
        (lambda n: math.log(n) ** -0.8763 * math.log(math.log(n)) ** 0.6225, True),
        (lambda n: math.log(math.log(n)) ** -1.47, False),
        (lambda n: math.log(n) ** -2.0 * math.log(math.log(n)) ** 3.37, False),
        (lambda n: 1.0 / math.log(n), False),
        (lambda n: n**-0.1 * math.log(n), False),
        (_alpha1_form_with_offset, False),
    ],
    ids=[
        "stated_law",
        "leading_law",
        "free_fit_law",
        "valley_b0",
        "valley_b-2",
        "inverse_log",
        "power_times_log",
        "form_offset_3",
    ],
)
def test_criterion_07_check_rejects_other_laws(law, accept):
    """Run the criterion-7 check on a synthetic law at its most favourable prefactor.

    The prefactor is the least-squares one that brings 2 lam t closest to
    ln lam - ln ln lam plus a constant. The free-fit law matches the
    solver's t* to about 1e-5 on the grid, so no check on these points can
    reject it; the valley laws share the stated c at b = -1 and leave the
    form; the offset law has the form but not the stated c.
    """
    lam, form = alpha1_form_terms(N_GRID_LARGE)
    shape = np.array([law(n) for n in N_GRID_LARGE])
    scale = np.polyfit(2.0 * lam * shape, form, 1)[0]
    ok, offsets, c_fit = alpha1_double_log_check(list(zip(N_GRID_LARGE, scale * shape)))
    assert ok == accept, (
        f"spread {offsets.max() - offsets.min():.4f}, c={c_fit.coefficients[1]:.4f} at b={ALPHA1_B}"
    )


def test_criterion_08_ising_protocol(report):
    worst = 0.0
    rng = np.random.default_rng(8)
    for n in (2, 3, 4, 5, 6, 7, 8):
        spec = chain(n) if n == 2 else ring(n)
        for alpha in (0.0, 0.5, 1.0, 2.0):
            model = CouplingModel(alpha=alpha)
            for t in rng.uniform(0.0, 1.0, size=3):
                err = abs(
                    ising_exact_oracle(spec, model, 0, float(t)) - ising_signal(spec, model, 0, float(t))
                )
                worst = max(worst, err)
    oracle_ok = worst < 1e-10

    spread_ok, spreads = True, []
    for alpha in (0.0, 0.25, 0.5, 0.75):
        prods = []
        for k in (8, 10, 12, 14, 16):
            n = 2**k
            t = ising_signaling_time(ring(n), CouplingModel(alpha=alpha), 0, 0.5)
            prods.append(t * n ** (1 - alpha))
        good = min(prods) > 0 and max(prods) / min(prods) < 2.0
        spread_ok &= good
        spreads.append(f"a={alpha}: x{max(prods) / min(prods):.2f}")
    ok = oracle_ok and spread_ok
    report(
        8,
        "Ising signal exact and its time saturates N^(alpha-1)",
        ok,
        f"oracle err {worst:.1e}; spread {', '.join(spreads)}",
    )
    assert ok, f"oracle worst err {worst:.2e}; spreads {spreads}"


def test_criterion_09_many_site_consistency(report):
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(6, 48))
        spec = ring(n) if rng.random() < 0.5 else chain(n)
        model = CouplingModel(alpha=float(rng.uniform(0.1, 1.5)))
        x, y = (int(v) for v in rng.choice(n, size=2, replace=False))
        t = float(rng.uniform(0.005, 0.3))
        pre = BoundPrefactor(norm_A=float(rng.uniform(0.5, 2.0)), norm_B=float(rng.uniform(0.5, 2.0)))
        ms = many_site_bound(spec, model, [x], [y], t, pre).value
        params = self_hop_lambda(spec, model)
        an = analytic_bound(params, distance(spec, x, y), t, pre).value
        if an > 0:
            worst = max(worst, abs(ms - an) / an)
    eq_ok = worst < 1e-12

    slope_ok, slopes = True, []
    for alpha in (0.0, 0.5):
        pts = []
        for k in (8, 9, 10, 11, 12):
            n = 2**k
            res = many_site_signaling_time(ring(n), CouplingModel(alpha=alpha), [0], list(range(1, n)), 1.0)
            pts.append((n, res.t_star))
        slope = fit_model("pure_power", pts).coefficients[1]
        slope_ok &= abs(slope - (alpha - 1)) <= 0.1
        slopes.append(f"a={alpha}: {slope:.3f}")
    ok = eq_ok and slope_ok
    report(
        9,
        "many-site bound reduces to single-pair form and scales as N^(alpha-1)",
        ok,
        f"max pair mismatch {worst:.1e}; slopes {', '.join(slopes)}",
    )
    assert ok, f"pair mismatch {worst:.2e}; slopes {slopes}"


def test_criterion_10_envelope_scaling(report):
    ok, msgs = True, []
    for alpha in (0.0, 0.25, 0.75):
        pts = [
            (n, free_particle_envelope(ring(n), CouplingModel(alpha=alpha)))
            for n in (10**3, 10**4, 10**5, 10**6)
        ]
        slope = fit_model("pure_power", pts).coefficients[1]
        target = max(0.0, 0.5 - alpha)
        ok &= abs(slope - target) <= 0.05
        msgs.append(f"a={alpha}: {slope:.3f} vs {target}")
    report(10, "velocity envelope scales as N^max(0, 1/2-alpha)", ok, "; ".join(msgs))
    assert ok, "; ".join(msgs)


def test_criterion_11_cli_determinism(report, tmp_path):
    runs = [
        ["signaling", "--method", "exact_sum", "--alpha", "0.3,0.9", "--N", "128,512", "--r", "1,N/2", "--workers", "2"],
        ["bound", "--method", "analytic", "--alpha", "0.5", "--N", "64,256", "--r", "1,N/4", "--t", "0.01,0.1"],
        ["lambda", "--alpha", "0,1,2", "--N", "100,1000", "--format", "json"],
    ]
    ok = True
    for idx, argv in enumerate(runs):
        a, b = tmp_path / f"a{idx}", tmp_path / f"b{idx}"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        ok &= a.read_bytes() == b.read_bytes()
    report(11, "repeated sweeps are byte-identical", ok, f"{len(runs)} command shapes checked")
    assert ok, "consecutive identical CLI runs differed"
