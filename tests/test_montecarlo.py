"""Simulation engine: reproducibility, interval calibration, cross-checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twrnoma.montecarlo as montecarlo
from twrnoma.analysis import outage_asymptotic, outage_probability
from twrnoma.ergodic import ergodic_rate_strong_closed, ergodic_rate_weak_numeric
from twrnoma.metrics import analytic_grid
from twrnoma.model import (SIC_MODES, ChannelDraw, ConfigError, SignalIndex, SystemConfig,
                           inverse_threshold, margin_base, mode_margins,
                           sample_channel_draw)
from twrnoma.montecarlo import (BLOCK, CHUNK, McEstimate, _merge_moments, _moments,
                                chunk_generator, ci_bounds, mc_ergodic,
                                mc_grid, mc_oma_baseline, mc_outage,
                                oma_outage_exact, oma_threshold)
from twrnoma.sweep import SweepSpec, run_sweep


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
    """A chunk's NOMA and baseline streams, and adjacent chunks of one
    stream, should show negligible correlation."""
    a = chunk_generator(1729, 0, 0).random(100_000)
    b = chunk_generator(1729, 1, 0).random(100_000)
    c = chunk_generator(1729, 0, 1).random(100_000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.01
    assert abs(np.corrcoef(a, c)[0, 1]) < 0.01
    # identical coordinates reproduce the identical stream
    again = chunk_generator(1729, 0, 0).random(100_000)
    assert np.array_equal(a, again)


def test_run_shape_validation(baseline):
    with pytest.raises(ValueError, match="1000"):
        mc_outage(baseline, 1, "ipsic", 999, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        mc_outage(baseline, 1, "ipsic", 10_000, -3)


@pytest.mark.parametrize("kwargs, message", [
    ({"workers": 0}, "workers must be an int of at least 1, got 0"),
    ({"workers": -3}, "workers must be an int of at least 1, got -3"),
    ({"workers": 2.5}, "workers must be an int of at least 1, got 2.5"),
    ({"workers": True}, "workers must be an int of at least 1, got True"),
    ({"workers": None}, "workers must be an int of at least 1, got None"),
], ids=["workers=0", "workers=-3", "workers=2.5", "workers=True", "workers=None"])
def test_run_inputs_are_refused(baseline, kwargs, message):
    """A worker count other than an int >= 1 is a ConfigError before any
    draw, not a serial run, a run that reports a bool, or a numpy error;
    serial is spelt 1 alone."""
    with pytest.raises(ConfigError) as info:
        montecarlo.mc_grid(baseline, [1.0], 2000, 1, metric="outage", targets=(1,),
                           modes=("ipsic",), **kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("n, seed, message", [
    (2000.5, 1, "sample count must be an integer, got 2000.5"),
    (2000.0, 1, "sample count must be an integer, got 2000.0"),
    (2000, 1.5, "seed must be an integer, got 1.5"),
    (True, 1, "sample count must be an integer, got True"),
    (2000, True, "seed must be an integer, got True"),
], ids=["n=2000.5", "n=2000.0", "seed=1.5", "n=True", "seed=True"])
def test_non_integer_run_inputs_are_refused(baseline, n, seed, message):
    """A fractional sample count was drawn truncated but divided whole, a
    fractional seed failed inside numpy, and a bool seed ran and was
    reported as ``True``; all are ConfigErrors now."""
    with pytest.raises(ConfigError) as info:
        mc_grid(baseline, [1.0], n, seed, metric="outage", targets=(1,), modes=("ipsic",))
    assert str(info.value) == message


def test_numpy_integer_run_inputs_are_taken(baseline):
    request = dict(metric="outage", targets=(1,), modes=("ipsic",))
    assert (mc_grid(baseline, [1.0], np.int64(2000), np.uint32(1), **request)
            == mc_grid(baseline, [1.0], 2000, 1, **request))


_PAIRS = {SignalIndex.for_signal(1): [1, 2], SignalIndex.for_signal(3): [3, 4]}


def _bases(config, draw):
    return {idx: margin_base(config, draw, idx) for idx in _PAIRS}


def _margins(config, draw, mode):
    """The inverse critical SNRs of x1..x4 under ``mode``, in signal order."""
    margins = []
    for base in _bases(config, draw).values():
        (ours,) = mode_margins(base, draw.gI, (mode,))
        margins += ours
    return margins


def _comparison_failures(u, rhos):
    """count(u <= 1/rho) per grid SNR: one comparison pass per SNR."""
    return np.array([np.count_nonzero(u <= 1.0 / rho) for rho in rhos], dtype=np.int64)


def _minimum_co_counts(config, draw, mode, rhos):
    """The (4, 4, grid) success co-counts rebuilt per pair as
    n - count(min(u_i, u_j) <= 1/rho)."""
    margins = _margins(config, draw, mode)
    both = np.empty((4, 4, rhos.size), dtype=np.int64)
    for i in range(4):
        for j in range(4):
            u = np.minimum(margins[i], margins[j])
            both[i, j] = u.size - _comparison_failures(u, rhos)
    return both


_RATES = pytest.mark.parametrize("rates", [{}, {"r1": 0.0, "r2": 0.0, "r3": 0.0, "r4": 0.0}],
                                 ids=["default", "zero-rates"])
_SIZES = pytest.mark.parametrize("size", [1000, 8193, 2 * CHUNK + 1000])
_GRID = np.array([10.0 ** (db / 10.0) for db in range(-10, 45, 5)])


@_RATES
@_SIZES
def test_packed_co_counts_equal_the_minimum_rebuild(rates, size):
    """The system co-counts from packed failure bits are the integers the
    pairwise minimum of inverse critical SNRs gives, on ragged sizes and
    at zero target rates (infinite inverse thresholds), in both modes."""
    cfg = SystemConfig(**rates)
    draw = sample_channel_draw(cfg, chunk_generator(77, 0, 0), size=size)
    stats = montecarlo._counted_stats(draw, _PAIRS, SIC_MODES, True, _GRID,
                                      _bases(cfg, draw))
    assert set(stats) == {(mode, "system") for mode in SIC_MODES}
    for mode in SIC_MODES:
        assert stats[mode, "system"].dtype == np.int64
        np.testing.assert_array_equal(stats[mode, "system"],
                                      _minimum_co_counts(cfg, draw, mode, _GRID))


@_RATES
@_SIZES
def test_packed_failures_equal_the_comparison_counts(rates, size):
    """The per-signal failures and both baseline counts from packed failure
    bits are the integers of one comparison count per grid SNR, the
    baseline system's of the least of the four exchanges' margins, on
    ragged sizes and at zero target rates, in both modes."""
    cfg = SystemConfig(**rates)
    draw = sample_channel_draw(cfg, chunk_generator(77, 0, 0), size=size)
    stats = montecarlo._counted_stats(draw, _PAIRS, SIC_MODES, False, _GRID,
                                      _bases(cfg, draw))
    assert set(stats) == {(mode, s) for mode in SIC_MODES for s in (1, 2, 3, 4)}
    for mode in SIC_MODES:
        for s, u in zip((1, 2, 3, 4), _margins(cfg, draw, mode)):
            assert stats[mode, s].dtype == np.int64
            np.testing.assert_array_equal(stats[mode, s], _comparison_failures(u, _GRID))
    fades = montecarlo._oma_fades(cfg, chunk_generator(77, 1, 0), size)
    oma = montecarlo._oma_stats(cfg, fades, _GRID, True, (1, 2, 3, 4))
    margins = fades * np.array([[inverse_threshold(oma_threshold(cfg.rate(i)))]
                                for i in (1, 2, 3, 4)])
    for i in (1, 2, 3, 4):
        np.testing.assert_array_equal(oma["oma", i],
                                      _comparison_failures(margins[i - 1], _GRID))
    np.testing.assert_array_equal(oma["oma", "system"],
                                  _comparison_failures(margins.min(axis=0), _GRID))


def test_a_nan_baseline_margin_leaves_the_other_exchanges_counted():
    """A fade of exactly 0.0 against a zero target rate gives a NaN margin,
    0 times infinity.  It counts as a success of its own exchange, and the
    system still fails where another exchange does; a least margin taken
    over the four would carry the NaN and count the system a success."""
    cfg = SystemConfig(r1=0.0)
    fades = np.array([[0.0, 1.0], [1e-9, 1.0], [1.0, 1.0], [1.0, 1.0]])
    stats = montecarlo._oma_stats(cfg, fades, np.array([1.0]), True, (1, 2))
    assert stats["oma", 1].tolist() == [0]
    assert stats["oma", 2].tolist() == [1]
    assert stats["oma", "system"].tolist() == [1]


def test_a_zero_rate_against_a_zero_gain_counts_without_a_warning():
    """A zero target rate's inverse threshold is +inf, so a gain of exactly
    0.0 forms a NaN margin, 0 times inf, in the NOMA margin base and in the
    baseline's margins alike.  Neither route warns, which the suite's
    warning filter would turn into an error, and the NaN is a success of
    its own signal alone: x1 and x2 (zero rates, zero gains) succeed, x3
    and x4 (default rates, zero gains) fail, and the co-counts say so."""
    cfg = SystemConfig(r1=0.0, r2=0.0)
    draw = ChannelDraw(*np.array([[0.0]] * 4 + [[1.0]]))       # g1..g4 = 0, gI = 1
    rhos = np.array([1.0])
    base = margin_base(cfg, draw, SignalIndex.for_signal(1))
    assert all(np.isnan(margin).all() for margin in base)
    stats = montecarlo._counted_stats(draw, _PAIRS, SIC_MODES, False, rhos, _bases(cfg, draw))
    assert {key: count.tolist() for key, count in stats.items()} == {
        (mode, s): [int(s > 2)] for mode in SIC_MODES for s in (1, 2, 3, 4)}
    system = montecarlo._counted_stats(draw, _PAIRS, SIC_MODES, True, rhos, _bases(cfg, draw))
    both = np.zeros((4, 4, 1), dtype=np.int64)
    both[:2, :2] = 1                                  # x1 and x2 succeed together
    for mode in SIC_MODES:
        np.testing.assert_array_equal(system[mode, "system"], both)
    fades = np.array([[0.0], [0.0], [0.0], [1.0]])
    oma = montecarlo._oma_stats(cfg, fades, rhos, True, (1, 2, 3, 4))
    assert {key: count.tolist() for key, count in oma.items()} == {
        ("oma", 1): [0], ("oma", 2): [0], ("oma", 3): [1], ("oma", 4): [0],
        ("oma", "system"): [1]}


@pytest.mark.parametrize("n, workers, pools", [
    (16_384, 2, []), (2 * CHUNK + 1000, 1, []),
    (2 * CHUNK + 1000, 2, [2]), (CHUNK + 1000, 5, [2]),
], ids=["one-chunk", "workers=1", "three-chunks", "two-chunks"])
def test_a_thread_pool_only_where_two_chunks_meet_two_workers(baseline, monkeypatch, n,
                                                               workers, pools):
    """A run starts a pool only when it has more than one chunk and more
    than one worker, and never more threads than chunks."""
    started = []
    original = montecarlo.ThreadPoolExecutor

    def counting(max_workers):
        started.append(max_workers)
        return original(max_workers=max_workers)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", counting)
    mc_grid(baseline, [1.0], n, 1, workers=workers, metric="outage", targets=(1,),
            modes=("ipsic",))
    assert started == pools


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
    one = mc_outage(cfg, 1, "ipsic", 50_000, 42)
    two = mc_outage(cfg, 1, "ipsic", 50_000, 42)
    assert one == two
    moved = mc_outage(cfg, 1, "ipsic", 50_000, 43)
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


@pytest.mark.parametrize("config", [SystemConfig(), SystemConfig(d1=1.5, d2=30.0, alpha=3.0,
                                                                  r2=0.05, r3=0.2)],
                         ids=["default", "asymmetric"])
def test_oma_exact_is_the_baseline_cell_of_the_grid_and_the_csv(config):
    """The benchmark's presets gate checks a CSV's baseline rows against
    ``oma_outage_exact``, while the CSV ships ``analytic_grid``'s baseline
    cell: the two agree bit for bit at every SNR, per signal and system."""
    dbs = (-10.0, 0.0, 7.5, 10.0, 25.0, 40.0, 60.0)
    rhos = [10.0 ** (db / 10.0) for db in dbs]
    grid = analytic_grid(config, rhos, "outage", (1, 2, 3, 4), (), oma=True)
    for rho, point in zip(rhos, grid):
        for target in (1, 2, 3, 4, "system"):
            assert repr(oma_outage_exact(config.with_rho(rho), target)) == \
                repr(point["oma", target][0])
    spec = SweepSpec(signals=(1, 2, 3, 4), snr=(0.0, 40.0, 5.0), with_oma=True,
                     mc_iterations=1000, master_seed=3)
    rows = [row for row in run_sweep(spec, config) if row.mode == "oma"]
    assert len(rows) == 45
    for row in rows:
        target = "system" if row.signal == "oma:system" else int(row.signal[len("oma:x"):])
        exact = oma_outage_exact(config.with_rho(10.0 ** (row.snr_db / 10.0)), target)
        assert repr(row.analytic) == repr(exact)


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
    """Row i - 1 of the baseline fades is, bit for bit, min(uplink_i,
    downlink of i's partner) over eight per-link exponential(Omega, size)
    calls, the four uplinks first."""
    fades = montecarlo._oma_fades(baseline, chunk_generator(7, 1, 3), size)
    assert fades.shape == (4, size)
    reference = chunk_generator(7, 1, 3)
    uplinks = [reference.exponential(baseline.omega(i), size) for i in (1, 2, 3, 4)]
    downlinks = [reference.exponential(baseline.omega(j), size) for j in (1, 2, 3, 4)]
    for i, partner in ((1, 3), (2, 4), (3, 1), (4, 2)):
        assert np.array_equal(fades[i - 1], np.minimum(uplinks[i - 1],
                                                       downlinks[partner - 1]))


def test_oma_rejects_unknown_signal(baseline):
    with pytest.raises(ValueError, match="system"):
        oma_outage_exact(baseline, "x9")
    with pytest.raises(ValueError, match="system"):
        mc_oma_baseline(baseline, 7, 10_000, 1)


@pytest.mark.parametrize("signal", [7, "sys"])
def test_both_baseline_routes_refuse_an_unknown_signal_alike(baseline, monkeypatch,
                                                            signal):
    """The simulated baseline refuses a signal outside 1..4 and "system"
    before any draw, in the words of the closed form, not those of a metric
    the caller never named."""
    streams = []
    monkeypatch.setattr(montecarlo, "chunk_generator", lambda *args: streams.append(args))
    with pytest.raises(ValueError) as exact:
        oma_outage_exact(baseline, signal)
    with pytest.raises(ValueError) as simulated:
        mc_oma_baseline(baseline, signal, 10_000, 1)
    assert str(exact.value) == str(simulated.value) == (
        f"signal must be 1..4 or 'system', got {signal!r}")
    assert streams == []


def test_oma_baseline_is_deterministic_across_workers(baseline):
    cfg = baseline.with_rho(100.0)
    a = mc_oma_baseline(cfg, "system", 150_000, 13, workers=1)
    b = mc_oma_baseline(cfg, "system", 150_000, 13, workers=6)
    assert a == b


@pytest.mark.parametrize("target", ["system", 1, 4])
def test_oma_pair_equals_the_two_kind_requests(baseline, target):
    """The pair is bit for bit the baseline estimates of an outage and an
    ergodic-rate request for the target on the same substream, at two
    seeds; the system needs no signal target."""
    cfg = baseline.with_rho(100.0)
    n = 2 * CHUNK + 1000
    targets = () if target == "system" else (target,)
    for seed in (13, 14):
        pair = mc_oma_baseline(cfg, target, n, seed)
        assert pair == tuple(
            mc_grid(cfg, [100.0], n, seed, metric=metric, targets=targets,
                    modes=(), oma=True)[0]["oma", target]
            for metric in ("outage", "ergodic_rate"))


def test_oma_pair_reads_the_baseline_substream(baseline, monkeypatch):
    """A run reads its seed alone: each estimate of the pair reads stream 1
    of each chunk, the same fades, and the NOMA draw stream 0, one call per
    chunk and stream, whatever the worker count."""
    streams = []
    original = montecarlo.chunk_generator

    def counting(*args):
        streams.append(args)
        return original(*args)

    monkeypatch.setattr(montecarlo, "chunk_generator", counting)
    n, chunks = 2 * CHUNK + 1000, range(3)
    mc_oma_baseline(baseline.with_rho(10.0), "system", n, 13)
    assert streams == [(13, 1, k) for k in chunks] * 2
    streams.clear()
    mc_outage(baseline, 1, "ipsic", n, 13)
    assert streams == [(13, 0, k) for k in chunks]
    for workers in (1, 3):
        streams.clear()
        mc_grid(baseline, [10.0], n, 13, workers, metric="outage", targets=(1,),
                modes=("ipsic",), oma=True)
        assert sorted(streams) == [(13, s, k) for s in (0, 1) for k in chunks]


@pytest.mark.parametrize("varpi", [0.0, 0.01])
def test_share_of_draws_that_never_decode_is_the_outage_floor(varpi):
    """A draw whose critical SNR is +inf (inverse critical SNR u <= 0) fails
    at every SNR, so their share is a Monte Carlo estimate of the error
    floor the asymptote states."""
    n = 1 << 18
    cfg = SystemConfig(varpi1=varpi, varpi2=varpi)
    draw = sample_channel_draw(cfg, chunk_generator(2024, 0, 0), size=n)
    modes = ("ipsic", "psic")
    idx = SignalIndex.for_signal(1)
    for mode, margins in zip(modes, mode_margins(margin_base(cfg, draw, idx), draw.gI,
                                                 modes)):
        for s, u in zip((1, 2), margins):
            floor = outage_asymptotic(cfg, s, mode).floor
            sigma = math.sqrt(floor * (1.0 - floor) / n)
            assert floor > 0.0
            assert abs(np.count_nonzero(u <= 0.0) / n - floor) <= 4.0 * sigma


# one field of each kind a margin base or a request's draw reads
_SHARING_AXES = {"d1": {"d1": 3.0}, "alpha": {"alpha": 2.5},
                 "varpi": {"varpi1": 0.1, "varpi2": 0.1}, "rate": {"r2": 0.05},
                 "omega_I": {"omega_I": 1.0}}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [2000, 8193, 2 * CHUNK + 1000])
@pytest.mark.parametrize("overrides", list(_SHARING_AXES.values()), ids=list(_SHARING_AXES))
def test_a_pass_gives_each_request_the_bits_it_has_alone(overrides, n, workers):
    """Requests of one ``mc_grids`` pass that differ in one field, a g1..g4
    mean, the leakage, a target rate or Omega_I alone, each get the bits
    ``mc_grid`` gives them alone: a shared margin base or baseline fade is
    shared only where every input it reads is equal."""
    rhos = [1.0, 31.6, 1000.0]
    requests = [(config, rhos, metric, targets, SIC_MODES, oma)
                for config in (SystemConfig(), SystemConfig(**overrides))
                for metric, targets, oma in (("outage", (1, 2, 3, 4), True),
                                             ("throughput_dl", ("system",), False),
                                             ("ergodic_rate", (2,), True))]
    grids = montecarlo.mc_grids(requests, n, 11, workers=workers)
    for (config, rhos, metric, targets, modes, oma), grid in zip(requests, grids):
        alone = mc_grid(config, rhos, n, 11, workers=workers, metric=metric,
                        targets=targets, modes=modes, oma=oma)
        assert repr(grid) == repr(alone)


_DEFAULT = SystemConfig()
# (metric, targets, modes, oma) of a request, the baseline alone among them
_SHAPES = (("outage", (1, 2), SIC_MODES, False), ("ergodic_rate", (1, 2), SIC_MODES, False),
           ("outage", (), (), True), ("ergodic_rate", (3,), ("psic",), True),
           ("throughput_dl", ("system",), ("ipsic",), False),
           ("throughput_dt", ("system",), SIC_MODES, False))
_REQUESTS = st.builds(
    lambda config, snrs_db, shape: (config, [10.0 ** (db / 10.0) for db in snrs_db], *shape),
    st.sampled_from([_DEFAULT, _DEFAULT.without_leakage(), SystemConfig(omega_I=1.0)]),
    st.lists(st.sampled_from([-5.0, 10.0, 20.0, 25.0, 40.0]), min_size=1, max_size=3,
             unique=True),
    st.sampled_from(_SHAPES))
# the validate battery's pass: outage, leakage-free rate and baseline, three grids
_BATTERY = [(_DEFAULT, [10.0, 10.0 ** 2.5, 1e4], "outage", (1, 2), SIC_MODES, False),
            (_DEFAULT.without_leakage(), [100.0], "ergodic_rate", (1, 2), SIC_MODES, False),
            (_DEFAULT, [10.0], "outage", (), (), True)]


@given(requests=st.lists(_REQUESTS, min_size=1, max_size=4),
       n=st.sampled_from([1000, BLOCK + 5]), seed=st.sampled_from([11, 16]))
@example(requests=_BATTERY, n=2000, seed=11)
@settings(max_examples=25, deadline=None)
def test_requests_on_their_own_grids_get_the_bits_they_have_alone(requests, n, seed):
    """Each request of a pass, on its own grid, beside leaky and leakage-free
    configs and baseline-only requests, gets the bits ``mc_grid`` gives it
    alone at the same seed."""
    grids = montecarlo.mc_grids(requests, n, seed)
    for (config, rhos, metric, targets, modes, oma), grid in zip(requests, grids):
        alone = mc_grid(config, rhos, n, seed, metric=metric, targets=targets,
                        modes=modes, oma=oma)
        assert len(grid) == len(rhos) and repr(grid) == repr(alone)


def _delivered_moments_per_point(rates, both, n):
    """The per-point form the whole-array ``_delivered_moments`` replaced,
    on Python integers: the reference it must equal bit for bit."""
    c = [int(both[i, i]) for i in range(4)]
    mean = sum(r * ci for r, ci in zip(rates, c)) / n
    m2 = sum(rates[i] * rates[j] * (n * int(both[i, j]) - c[i] * c[j])
             for i in range(4) for j in range(4)) / n
    return mean, max(m2, 0.0)


def _synthetic_co_counts(n, seed):
    """(4, 4, grid) co-counts of n draws, as from 16-cell outcome tallies:
    random joint laws, then one where every draw succeeds and one where
    none does, the zero-variance cells."""
    rng = np.random.default_rng(seed)
    laws = [rng.dirichlet(np.full(16, 0.5)) for _ in range(6)] + [np.eye(16)[15],
                                                                  np.eye(16)[0]]
    bits = (np.arange(16)[:, None] >> np.arange(4)) & 1           # cell -> outcomes
    both = np.empty((4, 4, len(laws)), dtype=np.int64)
    for j, law in enumerate(laws):
        tally = rng.multinomial(n, law)
        both[..., j] = np.einsum("c,ci,cj->ij", tally, bits, bits)
    return both


@pytest.mark.parametrize("rates", [(0.1, 0.01, 0.1, 0.01), (0.0, 0.0, 0.0, 0.0),
                                   (0.0, 0.3, 1e-3, 0.0)],
                         ids=["default", "zero", "mixed"])
@pytest.mark.parametrize("n", [1000, 8193, 5 * 10 ** 9, 10 ** 10])
def test_delivered_moments_equal_the_per_point_integers(rates, n):
    """The whole-array delivered moments equal the per-point Python-integer
    form bit for bit, -0.0 terms and zero-variance cells included, and past
    n = 2^32, where n c_ij leaves int64.  A bracket is at most n^2/4 in
    magnitude, so int64 arithmetic that wraps still lands on it up to about
    6e9 draws; 10^10 is past that too."""
    both = _synthetic_co_counts(n, seed=n % 97)
    means, m2s = montecarlo._delivered_moments(list(rates), both, n)
    for j, (mean, m2) in enumerate(zip(means, m2s)):
        ref_mean, ref_m2 = _delivered_moments_per_point(rates, both[..., j], n)
        assert (mean.hex(), m2.hex()) == (ref_mean.hex(), ref_m2.hex())
