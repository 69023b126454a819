"""Simulation engine: reproducibility, interval calibration, cross-checks."""

import math

import numpy as np
import pytest

import twrnoma.montecarlo as montecarlo
from twrnoma.analysis import outage_asymptotic, outage_probability
from twrnoma.ergodic import ergodic_rate_strong_closed, ergodic_rate_weak_numeric
from twrnoma.model import (ConfigError, SignalIndex, SystemConfig,
                           inverse_critical_snrs, sample_channel_draw)
from twrnoma.montecarlo import (BLOCK, CHUNK, McEstimate, _merge_moments, _moments,
                                chunk_generator, ci_bounds, mc_ergodic,
                                mc_grid, mc_oma_baseline, mc_outage,
                                oma_outage_exact, oma_threshold)


def test_estimate_invariant():
    with pytest.raises(ValueError, match="bracket"):
        McEstimate(mean=0.5, half_width_95=0.1, n=1000, seed=1,
                   ci_low=0.6, ci_high=0.7)


def test_ci_bounds_validation():
    with pytest.raises(ValueError):
        ci_bounds(5, 0)
    with pytest.raises(ValueError):
        ci_bounds(-1, 100)
    with pytest.raises(ValueError):
        ci_bounds(101, 100)


def test_ci_bounds_normal_case_width():
    lo, hi = ci_bounds(300, 1000)
    se = math.sqrt(0.3 * 0.7 / 1000)
    assert hi - lo == pytest.approx(2 * 1.959963984540054 * se, rel=1e-12)


def test_ci_bounds_edge_counts_stay_informative():
    """Rare events fall back to a score interval instead of collapsing."""
    lo, hi = ci_bounds(0, 10_000)
    assert lo == 0.0
    assert 0.0 < hi < 1e-3
    lo, hi = ci_bounds(10_000, 10_000)
    assert hi == 1.0
    assert 0.999 < lo < 1.0
    lo, hi = ci_bounds(3, 10_000)
    assert lo > 0.0 and hi > lo


def test_ci_bounds_calibration():
    """Coverage of the nominal 95 percent interval over many replicates."""
    rng = np.random.default_rng(2024)
    hits = 0
    trials = 500
    for _ in range(trials):
        k = rng.binomial(1000, 0.3)
        lo, hi = ci_bounds(int(k), 1000)
        hits += lo <= 0.3 <= hi
    assert hits / trials >= 0.93


def test_moment_merge_keeps_digits_at_a_large_mean():
    """Chunked (n, mean, M2) merge against the variance of the whole sample."""
    rng = np.random.default_rng(3)
    x = 1e6 + 1e-3 * rng.standard_normal(10_000)
    cuts = [0, 7, 1500, 1501, 6200, 10_000]
    n, mean, m2 = _merge_moments([_moments(x[a:b]) for a, b in zip(cuts, cuts[1:])])
    assert n == x.size
    assert mean == pytest.approx(np.mean(x), rel=1e-14)
    assert m2 / (n - 1) == pytest.approx(np.var(x, ddof=1), rel=1e-9)
    # the sum/sum-of-squares form keeps no correct digit at this spread
    naive = (np.sum(x * x) - n * np.mean(x) ** 2) / (n - 1)
    assert naive != pytest.approx(np.var(x, ddof=1), rel=0.5)


def test_substreams_look_independent():
    """Adjacent counter-derived streams should show negligible correlation."""
    a = chunk_generator(1729, 5, 0).random(100_000)
    b = chunk_generator(1729, 6, 0).random(100_000)
    c = chunk_generator(1729, 5, 1).random(100_000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.01
    assert abs(np.corrcoef(a, c)[0, 1]) < 0.01
    # identical coordinates reproduce the identical stream
    again = chunk_generator(1729, 5, 0).random(100_000)
    assert np.array_equal(a, again)


def test_run_shape_validation(baseline):
    with pytest.raises(ValueError, match="1000"):
        mc_outage(baseline, 1, "ipsic", 999, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        mc_outage(baseline, 1, "ipsic", 10_000, -3)


@pytest.mark.parametrize("metric", ["outage", "ergodic_rate"], ids=["outage", "rate"])
def test_a_subnormal_snr_is_refused(baseline, metric):
    """At rho = 1e-310, 1/rho overflows, so no SINR A / (B + 1/rho) exists:
    the grid refuses it, and so does a config copied to it."""
    with pytest.raises(ValueError, match="finite reciprocals"):
        montecarlo.mc_grid(baseline, [1.0, 1e-310], 1000, 1, metric=metric,
                           targets=(1,), modes=("ipsic",))
    with pytest.raises(ConfigError, match="finite reciprocal"):
        baseline.with_rho(1e-310)


def test_outage_estimator_is_deterministic(baseline):
    cfg = baseline.with_rho(10.0)
    one = mc_outage(cfg, 1, "ipsic", 50_000, 42, point_index=3)
    two = mc_outage(cfg, 1, "ipsic", 50_000, 42, point_index=3)
    assert one == two
    moved = mc_outage(cfg, 1, "ipsic", 50_000, 42, point_index=4)
    assert moved.mean != one.mean


def test_worker_count_does_not_change_results(baseline):
    cfg = baseline.with_rho(316.2)
    serial = mc_outage(cfg, 2, "ipsic", 300_000, 7, workers=1)
    pooled = mc_outage(cfg, 2, "ipsic", 300_000, 7, workers=5)
    assert serial == pooled
    r1 = mc_ergodic(cfg, 1, "ipsic", 200_000, 7, workers=1)
    r4 = mc_ergodic(cfg, 1, "ipsic", 200_000, 7, workers=4)
    assert r1 == r4


@pytest.mark.parametrize("signal", [1, 2])
@pytest.mark.parametrize("mode", ["ipsic", "psic"])
def test_outage_estimate_brackets_closed_form(signal, mode):
    cfg = SystemConfig(rho=10.0 ** 2.5)
    exact = outage_probability(cfg, signal, mode).p_exact
    est = mc_outage(cfg, signal, mode, 200_000, 11)
    sigma = math.sqrt(exact * (1.0 - exact) / est.n)
    assert abs(est.mean - exact) < max(4.0 * sigma, 1e-3)


def test_modes_share_the_channel_draws(baseline):
    """Common random numbers: the perfect-SIC run reuses the identical
    fading sample, so its failure set is a subset in expectation."""
    cfg = baseline.with_rho(10.0)
    ip = mc_outage(cfg, 1, "ipsic", 100_000, 99)
    p = mc_outage(cfg, 1, "psic", 100_000, 99)
    assert ip.seed == p.seed
    assert p.mean <= ip.mean


def test_ergodic_estimate_matches_quadrature(no_leakage):
    cfg = no_leakage.with_rho(100.0)
    closed = ergodic_rate_strong_closed(cfg, SignalIndex.for_signal(1), "ipsic")
    est = mc_ergodic(cfg, 1, "ipsic", 400_000, 23)
    assert abs(est.mean - closed) / closed < 0.01
    weak = ergodic_rate_weak_numeric(cfg, SignalIndex.for_signal(2), "ipsic")
    est2 = mc_ergodic(cfg, 2, "ipsic", 400_000, 23)
    assert abs(est2.mean - weak) / weak < 0.01


def test_ergodic_interval_brackets_mean(baseline):
    est = mc_ergodic(baseline.with_rho(10.0), 2, "ipsic", 50_000, 5)
    assert est.ci_low <= est.mean <= est.ci_high
    assert est.half_width_95 > 0.0


def test_oma_threshold_frozen():
    assert oma_threshold(0.1) == pytest.approx(0.41421356237309515, rel=1e-14)
    assert oma_threshold(0.01) == pytest.approx(0.03526492384137758, rel=1e-12)


def test_oma_exact_outage_values(baseline):
    assert oma_outage_exact(baseline.with_rho(10.0), "system") == pytest.approx(
        0.874235, abs=2e-6)
    assert oma_outage_exact(baseline.with_rho(10.0), 1) == pytest.approx(
        0.2820611278923062, rel=1e-12)
    assert oma_outage_exact(baseline.with_rho(10.0 ** 4), "system") == \
        pytest.approx(0.002071, abs=2e-6)


def test_oma_simulation_matches_exact(baseline):
    cfg = baseline.with_rho(10.0)
    for target in ("system", 1, 2):
        exact = oma_outage_exact(cfg, target)
        est, rate = mc_oma_baseline(cfg, target, 200_000, 31)
        sigma = math.sqrt(exact * (1.0 - exact) / est.n)
        assert abs(est.mean - exact) < max(4.0 * sigma, 1e-3)
        assert rate.mean > 0.0


@pytest.mark.parametrize("size", [1, BLOCK + 3, CHUNK])
def test_oma_fades_equal_per_link_exponentials(baseline, size):
    """The baseline fades are, bit for bit, min(uplink_i, downlink of i's
    partner) over eight per-link exponential(Omega, size) calls, the four
    uplinks first."""
    fades = montecarlo._oma_fades(baseline, chunk_generator(7, 1, 3), size)
    reference = chunk_generator(7, 1, 3)
    uplinks = [reference.exponential(baseline.omega(i), size) for i in (1, 2, 3, 4)]
    downlinks = [reference.exponential(baseline.omega(j), size) for j in (1, 2, 3, 4)]
    for i, partner in ((1, 3), (2, 4), (3, 1), (4, 2)):
        assert np.array_equal(fades[i], np.minimum(uplinks[i - 1],
                                                   downlinks[partner - 1]))


def test_oma_rejects_unknown_signal(baseline):
    with pytest.raises(ValueError, match="system"):
        oma_outage_exact(baseline, "x9")
    with pytest.raises(ValueError, match="system"):
        mc_oma_baseline(baseline, 7, 10_000, 1)


def test_oma_baseline_is_deterministic_across_workers(baseline):
    cfg = baseline.with_rho(100.0)
    a = mc_oma_baseline(cfg, "system", 150_000, 13, workers=1)
    b = mc_oma_baseline(cfg, "system", 150_000, 13, workers=6)
    assert a == b


@pytest.mark.parametrize("target", ["system", 1, 4])
def test_oma_pair_equals_the_two_kind_requests(baseline, target):
    """The pair is bit for bit the baseline estimates of an outage and an
    ergodic-rate request for the target on the same substream, at two point
    indices; the system needs no signal target."""
    cfg = baseline.with_rho(100.0)
    n, seed = 2 * CHUNK + 1000, 13
    targets = () if target == "system" else (target,)
    for point in (0, 2):
        pair = mc_oma_baseline(cfg, target, n, seed, point_index=point)
        assert pair == tuple(
            mc_grid(cfg, [100.0], n, seed, point, metric=metric, targets=targets,
                    modes=(), oma=True)[0]["oma", target]
            for metric in ("outage", "ergodic_rate"))


def test_oma_pair_reads_the_baseline_substream(baseline, monkeypatch):
    """Each estimate of the pair reads the chunks of the baseline
    substream 2 point_index + 1, the same fades."""
    streams = []
    original = montecarlo.chunk_generator

    def counting(*args):
        streams.append(args)
        return original(*args)

    monkeypatch.setattr(montecarlo, "chunk_generator", counting)
    mc_oma_baseline(baseline.with_rho(10.0), "system", 2 * CHUNK + 1000, 13,
                    point_index=2)
    assert streams == [(13, 5, 0), (13, 5, 1), (13, 5, 2)] * 2


@pytest.mark.parametrize("varpi", [0.0, 0.01])
def test_share_of_draws_that_never_decode_is_the_outage_floor(varpi):
    """A draw whose critical SNR is +inf (inverse critical SNR u <= 0) fails
    at every SNR, so their share is a Monte Carlo estimate of the error
    floor the asymptote states."""
    n = 1 << 18
    cfg = SystemConfig(varpi1=varpi, varpi2=varpi)
    draw = sample_channel_draw(cfg, chunk_generator(2024, 0, 0), size=n)
    modes = ("ipsic", "psic")
    for mode, margins in zip(modes, inverse_critical_snrs(
            cfg, draw, SignalIndex.for_signal(1), modes)):
        for s, u in zip((1, 2), margins):
            floor = outage_asymptotic(cfg, s, mode).floor
            sigma = math.sqrt(floor * (1.0 - floor) / n)
            assert floor > 0.0
            assert abs(np.count_nonzero(u <= 0.0) / n - floor) <= 4.0 * sigma
