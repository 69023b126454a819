"""Acceptance battery for the release: one check per numbered guarantee.

Each test prints a single PASS/FAIL line so the suite output doubles as
the acceptance report.  Tolerance bands are part of the package contract
and are pinned here rather than derived at runtime.

Check 5(a) treats the weak-user rate ceiling as what it is, the limit of
the direct integral as the SNR grows: the integral must stay below the
ceiling, the gap must shrink from 40 to 50 to 60 dB, and at 50 dB it must
sit inside the 5% band.  At 40 dB the gap is 5.9% (it enters the 5% band
near 41 dB and shrinks like ln(rho)/rho); the report line prints it, but
a limit promises nothing at a finite SNR, so it is not held to the band.
"""

import dataclasses
import math
import time

import numpy as np

from twrnoma.analysis import (diversity_order_estimate, outage_asymptotic,
                              outage_probability)
from twrnoma.ergodic import (ergodic_rate_strong_asymptotic,
                             ergodic_rate_strong_closed,
                             ergodic_rate_strong_quadrature,
                             ergodic_rate_weak_highsnr,
                             ergodic_rate_weak_numeric,
                             high_snr_slope_estimate)
from twrnoma.metrics import energy_efficiency, throughput_delay_limited
from twrnoma.model import SignalIndex, SystemConfig
from twrnoma.montecarlo import mc_grid, mc_oma_baseline, mc_outage
from twrnoma.specfun import HypoExpParams, expint_ei, hypoexp_pdf
from twrnoma.sweep import SweepSpec, render_csv, run_sweep

GRID_DB = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]
MODES = ("ipsic", "psic")
IDX1 = SignalIndex.for_signal(1)
IDX2 = SignalIndex.for_signal(2)
N_MC = 1_000_000
WORKERS = 4


def _rho(db):
    return 10.0 ** (db / 10.0)


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def test_a01_outage_closed_forms_track_simulation(baseline):
    """Closed-form outage vs a million-draw simulation over the SNR grid."""
    start = time.perf_counter()
    worst = 0.0
    # one draw serves the whole grid, both signals and both modes
    grid = mc_grid(baseline, [_rho(db) for db in GRID_DB], N_MC, 1729,
                   workers=WORKERS, metric="outage", targets=(1, 2), modes=MODES)
    for db, ests in zip(GRID_DB, grid):
        for mode in MODES:
            cfg = baseline.with_rho(_rho(db))
            for signal in (1, 2):
                exact = outage_probability(cfg, signal, mode).p_exact
                est = ests[mode, signal]
                sigma = math.sqrt(exact * (1.0 - exact) / N_MC)
                band = max(3.0 * sigma, 0.005)
                worst = max(worst, abs(est.mean - exact) / band)
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 and elapsed < 120.0
    assert _report(
        "outage vs simulation",
        ok, f"worst deviation {worst:.2f} of band, {elapsed:.0f}s of 120s")


def test_a02_error_floors_and_zero_diversity(baseline):
    worst_rel = 0.0
    worst_div = 0.0
    for mode in MODES:
        for signal in (1, 2):
            cfg60 = baseline.with_rho(1e6)
            exact = outage_probability(cfg60, signal, mode).p_exact
            floor = outage_asymptotic(cfg60, signal, mode).floor
            worst_rel = max(worst_rel, abs(exact - floor) / floor)
            rhos = [1e5, 1e6]
            probs = [outage_probability(baseline.with_rho(r), signal,
                                        mode).p_exact for r in rhos]
            worst_div = max(worst_div, abs(diversity_order_estimate(rhos,
                                                                    probs)))
    ok = worst_rel <= 0.05 and worst_div <= 0.1
    assert _report(
        "error floors and diversity",
        ok, f"floor gap {worst_rel:.2e} (band 5e-2), "
            f"|diversity| {worst_div:.2e} (band 1e-1)")


def test_a03_vanishing_residual_recovers_perfect_sic(baseline):
    tiny = dataclasses.replace(baseline, omega_I=1e-12)
    tiny0 = dataclasses.replace(tiny, varpi1=0.0, varpi2=0.0)
    perfect0 = SystemConfig(varpi1=0.0, varpi2=0.0)
    worst = 0.0
    for db in GRID_DB:
        rho = _rho(db)
        ip = tiny.with_rho(rho)
        p = baseline.with_rho(rho)
        for signal in (1, 2):
            a = outage_probability(ip, signal, "ipsic")
            b = outage_probability(p, signal, "psic")
            worst = max(worst, abs(a.p_exact - b.p_exact) / b.p_exact)
            worst = max(worst, abs(a.p_asymptotic - b.p_asymptotic)
                        / b.p_asymptotic)
        ip0 = tiny0.with_rho(rho)
        p0 = perfect0.with_rho(rho)
        r_ip = ergodic_rate_strong_closed(ip0, IDX1, "ipsic")
        r_p = ergodic_rate_strong_closed(p0, IDX1, "psic")
        worst = max(worst, abs(r_ip - r_p) / r_p)
        w_ip = ergodic_rate_weak_numeric(ip0, IDX2, "ipsic")
        w_p = ergodic_rate_weak_numeric(p0, IDX2, "psic")
        worst = max(worst, abs(w_ip - w_p) / w_p)
    ok = worst <= 1e-6
    assert _report("perfect-SIC limit", ok,
                   f"worst relative gap {worst:.2e} (band 1e-6)")


def test_a04_rate_closed_forms_track_quadrature_and_simulation(no_leakage):
    worst_quad = 0.0
    worst_mc = 0.0
    grid_db = (10.0, 20.0, 30.0)
    grid = mc_grid(no_leakage, [_rho(db) for db in grid_db], N_MC, 1729,
                   workers=WORKERS, metric="ergodic_rate", targets=(1, 2), modes=MODES)
    for db, ests in zip(grid_db, grid):
        for mode in MODES:
            cfg = no_leakage.with_rho(_rho(db))
            closed = ergodic_rate_strong_closed(cfg, IDX1, mode)
            quad = ergodic_rate_strong_quadrature(cfg, IDX1, mode)
            worst_quad = max(worst_quad, abs(closed - quad) / closed)
            worst_mc = max(worst_mc,
                           abs(closed - ests[mode, 1].mean) / closed)
            weak = ergodic_rate_weak_numeric(cfg, IDX2, mode)
            worst_mc = max(worst_mc, abs(weak - ests[mode, 2].mean) / weak)
    ok = worst_quad <= 1e-8 and worst_mc <= 0.02
    assert _report(
        "rates vs quadrature and simulation", ok,
        f"quadrature gap {worst_quad:.2e} (band 1e-8), "
        f"simulation gap {worst_mc:.2%} (band 2%)")


def test_a05_high_snr_rate_approximations(no_leakage):
    failures = []

    # (a) weak-user ceiling as the high-SNR limit of the direct integral;
    # the 40 dB gap is reported, the band applies at 50 dB (see above)
    gaps = {}
    below = True
    for snr_db in (40.0, 50.0, 60.0):
        cfg = no_leakage.with_rho(_rho(snr_db))
        ceiling = ergodic_rate_weak_highsnr(cfg, IDX2, "ipsic")
        direct = ergodic_rate_weak_numeric(cfg, IDX2, "ipsic")
        below = below and direct < ceiling
        gaps[snr_db] = (ceiling - direct) / direct
    shrinking = gaps[40.0] > gaps[50.0] > gaps[60.0]
    ok_a = below and shrinking and gaps[50.0] <= 0.05
    line = (f"weak ceiling vs integral: {gaps[40.0]:.2%} at 40 dB, "
            f"{gaps[50.0]:.2%} at 50 dB of a 5% band, "
            f"{gaps[60.0]:.3%} at 60 dB; "
            f"integral below ceiling {below}, gap shrinking {shrinking}")
    if not ok_a:
        failures.append(line)
    print(("PASS " if ok_a else "FAIL ") + line)

    # (b) strong-user log asymptote against the closed form at 50 dB
    gap_b = 0.0
    for mode in MODES:
        cfg = no_leakage.with_rho(_rho(50.0))
        closed = ergodic_rate_strong_closed(cfg, IDX1, mode)
        asym = ergodic_rate_strong_asymptotic(cfg, IDX1, mode)
        gap_b = max(gap_b, abs(closed - asym) / closed)
    line = f"strong asymptote vs closed at 50 dB: {gap_b:.2%} of a 5% band"
    if gap_b > 0.05:
        failures.append(line)
    print(("FAIL " if gap_b > 0.05 else "PASS ") + line)

    # (c) every rate curve flattens between 50 and 60 dB
    rhos = [1e5, 1e6]
    worst_slope = 0.0
    cfgs = [no_leakage.with_rho(r) for r in rhos]
    for mode in MODES:
        strong = [ergodic_rate_strong_closed(c, IDX1, mode) for c in cfgs]
        weak = [ergodic_rate_weak_numeric(c, IDX2, mode) for c in cfgs]
        worst_slope = max(worst_slope,
                          abs(high_snr_slope_estimate(rhos, strong)),
                          abs(high_snr_slope_estimate(rhos, weak)))
    line = f"rate slopes 50-60 dB: max {worst_slope:.3f} of a 0.05 band"
    if worst_slope > 0.05:
        failures.append(line)
    print(("FAIL " if worst_slope > 0.05 else "PASS ") + line)

    assert not failures, "; ".join(failures)


def test_a06_hypoexponential_density_normalization_and_histogram():
    from scipy.integrate import quad

    rng = np.random.default_rng(20240809)
    triples = []
    while len(triples) < 50:
        cand = np.sort(rng.uniform(0.05, 20.0, size=3))
        if cand[1] - cand[0] > 0.02 * cand[2] and \
           cand[2] - cand[1] > 0.02 * cand[2]:
            triples.append(tuple(float(v) for v in cand))
    worst = 0.0
    for lams in triples:
        params = HypoExpParams(lams)
        total, _ = quad(lambda z: hypoexp_pdf(params, z), 0.0, np.inf,
                        limit=400)
        worst = max(worst, abs(total - 1.0))

    # histogram of a million summed-exponential draws, 100 bins
    lams = (1.0, 2.5, 7.0)
    params = HypoExpParams(lams)
    n = 1_000_000
    sample_rng = np.random.default_rng(7)
    z = sum(sample_rng.exponential(1.0 / lam, size=n) for lam in lams)
    edges = np.linspace(0.0, float(np.quantile(z, 0.9995)), 101)
    counts, _ = np.histogram(z, bins=edges)
    p = np.array([quad(lambda t: hypoexp_pdf(params, t), lo, hi)[0]
                  for lo, hi in zip(edges[:-1], edges[1:])])
    sigma = np.sqrt(n * p * (1.0 - p))
    max_dev = float(np.max(np.abs(counts - n * p) / sigma))

    ok = worst <= 1e-9 and max_dev <= 3.0
    assert _report(
        "hypoexponential density", ok,
        f"normalization gap {worst:.2e} (band 1e-9), "
        f"histogram max {max_dev:.2f} sigma (band 3)")


def _series_ei_oracle(x):
    """Convergent series gamma + ln|x| + sum x^k/(k k!) at 100 digits."""
    from mpmath import mp

    mp.dps = 100
    xm = mp.mpf(x)
    total = mp.euler + mp.log(abs(xm))
    term = mp.mpf(1)
    for k in range(1, 600):
        term *= xm / k
        total += term / k
    return total


def test_a07_exponential_integral_accuracy():
    mags = np.logspace(-6.0, math.log10(50.0), 50)
    worst = 0.0
    for mag in mags:
        for x in (-float(mag), float(mag)):
            ref = _series_ei_oracle(x)
            got = expint_ei(x)
            worst = max(worst, abs((got - ref) / ref))
    ok = worst <= 1e-10
    assert _report("exponential integral", ok,
                   f"worst relative error {float(worst):.2e} (band 1e-10) "
                   f"over 100 log-grid points")


def test_a08_orthogonal_baseline_crossover(baseline):
    low = baseline.with_rho(_rho(10.0))
    high = baseline.with_rho(_rho(40.0))
    oma_low, _ = mc_oma_baseline(low, "system", N_MC, 1729, workers=WORKERS)
    oma_high, _ = mc_oma_baseline(high, "system", N_MC, 1730, workers=WORKERS)
    ok = True
    notes = []
    for mode in MODES:
        for signal in (1, 2):
            noma_low = mc_outage(low, signal, mode, N_MC, 1729, workers=WORKERS)
            noma_high = mc_outage(high, signal, mode, N_MC, 1730, workers=WORKERS)
            ok = ok and noma_low.mean < oma_low.mean
            ok = ok and noma_high.mean > oma_high.mean
            notes.append(f"x{signal}/{mode} {noma_low.mean:.3f}<{oma_low.mean:.3f}"
                         f" then {noma_high.mean:.4f}>{oma_high.mean:.4f}")
    assert _report("orthogonal baseline crossover", ok,
                   "10 dB below, 40 dB above: " + "; ".join(notes[:2]) + "...")


def _dl_throughput(config, rho, mode):
    cfg = config.with_rho(rho)
    outs = [outage_probability(cfg, s, mode).p_exact for s in (1, 2, 3, 4)]
    rates = [cfg.rate(s) for s in (1, 2, 3, 4)]
    return throughput_delay_limited(outs, rates)


def _dt_throughput(no_leak_config, rho, mode):
    cfg = no_leak_config.with_rho(rho)
    total = 0.0
    for s in (1, 2, 3, 4):
        idx = SignalIndex.for_signal(s)
        if s in (1, 3):
            total += ergodic_rate_strong_closed(cfg, idx, mode)
        else:
            total += ergodic_rate_weak_numeric(cfg, idx, mode)
    return total


def test_a09_throughput_ceilings(baseline, no_leakage):
    worst = 0.0
    for mode in MODES:
        dl50 = _dl_throughput(baseline, 1e5, mode)
        dl60 = _dl_throughput(baseline, 1e6, mode)
        worst = max(worst, abs(dl60 - dl50) / dl50)
        dt50 = _dt_throughput(no_leakage, 1e5, mode)
        dt60 = _dt_throughput(no_leakage, 1e6, mode)
        worst = max(worst, abs(dt60 - dt50) / dt50)
    ok = worst < 0.02
    assert _report("throughput ceilings", ok,
                   f"largest 50-to-60 dB change {worst:.2%} (band 2%)")


def test_a10_energy_efficiency_ordering(baseline, no_leakage):
    worst_gap = 0.0
    for db in GRID_DB:
        ip = energy_efficiency(_dl_throughput(baseline, _rho(db), "ipsic"),
                               baseline)
        p = energy_efficiency(_dl_throughput(baseline, _rho(db), "psic"),
                              baseline)
        worst_gap = max(worst_gap, abs(ip - p) / max(ip, p))
    ordered = True
    for db in (30.0, 35.0, 40.0, 45.0, 50.0, 55.0, 60.0):
        ip = energy_efficiency(_dt_throughput(no_leakage, _rho(db), "ipsic"),
                               baseline)
        p = energy_efficiency(_dt_throughput(no_leakage, _rho(db), "psic"),
                              baseline)
        ordered = ordered and p >= ip
    ok = worst_gap < 0.05 and ordered
    assert _report(
        "energy efficiency ordering", ok,
        f"delay-limited mode gap {worst_gap:.2%} (band 5%), "
        f"delay-tolerant ordering {'held' if ordered else 'violated'}")


def test_a11_sweep_determinism_across_worker_counts(baseline):
    spec = SweepSpec(snr=(0.0, 40.0, 5.0), metric="outage", signals=(1, 2),
                     modes=("ipsic", "psic"), mc_iterations=100_000,
                     master_seed=1729, with_asymptotic=True, with_oma=True)
    outputs = [render_csv(run_sweep(spec, baseline, workers=w))
               for w in (1, 4, 8)]
    ok = outputs[0] == outputs[1] == outputs[2]
    assert _report("sweep determinism", ok,
                   f"{len(outputs[0].splitlines())} CSV lines byte-identical "
                   f"under 1, 4 and 8 workers")
