"""Sweep driver and output writers."""

import dataclasses
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twrnoma.montecarlo as montecarlo
from twrnoma.configio import PRESETS
from twrnoma.model import (ConfigError, SignalIndex, SystemConfig, gamma_threshold,
                           sample_channel_draw, sinr_set)
from twrnoma.montecarlo import CHUNK, chunk_generator
from twrnoma.sweep import (CSV_HEADER, MAX_GRID_POINTS, MetricPoint, OutputError,
                           SweepSpec, emit_outputs, emit_plot_script, render_csv,
                           run_sweep)


def small_spec(stop_db=40.0, start_db=0.0, step_db=5.0, **kw):
    base = dict(snr=(start_db, stop_db, step_db), metric="outage",
                signals=(1, 2), modes=("ipsic",), mc_iterations=2000,
                master_seed=11)
    base.update(kw)
    return SweepSpec(**base)


def test_grid_and_row_count(baseline):
    rows = run_sweep(small_spec(), baseline)
    # nine grid points, two signals, one mode
    assert len(rows) == 18
    assert [r.snr_db for r in rows[:2]] == [0.0, 0.0]
    assert {r.signal for r in rows} == {"x1", "x2"}
    assert rows == sorted(rows, key=lambda r: (r.snr_db, r.signal, r.metric,
                                               r.mode))


def test_spec_validation():
    with pytest.raises(ConfigError, match="start exceeds stop"):
        small_spec(start_db=50.0)
    with pytest.raises(ConfigError, match="step"):
        small_spec(step_db=0.0)
    with pytest.raises(ConfigError, match="not be empty"):
        small_spec(signals=())
    with pytest.raises(ConfigError, match="1..4"):
        small_spec(signals=(1, 9))
    with pytest.raises(ConfigError, match="1000"):
        small_spec(mc_iterations=10)
    with pytest.raises(ConfigError, match="metric"):
        small_spec(metric="latency")
    with pytest.raises(ConfigError, match="modes"):
        small_spec(modes=("off",))
    with pytest.raises(ConfigError, match="modes"):
        small_spec(modes=())
    with pytest.raises(ConfigError, match="start, stop, step"):
        small_spec(snr=(0.0, 40.0))
    with pytest.raises(ConfigError, match="baseline"):
        small_spec(metric="throughput_dl", with_oma=True)
    with pytest.raises(ConfigError, match="finite"):
        small_spec(stop_db=float("inf"))
    # the cap counts points with grid_db's own formula, without building them
    with pytest.raises(ConfigError, match=f"more than {MAX_GRID_POINTS} points"):
        small_spec(stop_db=1e9, step_db=1e-9)
    with pytest.raises(ConfigError, match=f"more than {MAX_GRID_POINTS} points"):
        small_spec(stop_db=float(MAX_GRID_POINTS), step_db=1.0)
    largest = small_spec(stop_db=float(MAX_GRID_POINTS - 1), step_db=1.0)
    assert len(largest.grid_db()) == MAX_GRID_POINTS


def test_metric_point_interval_invariant():
    with pytest.raises(ValueError, match="bracket"):
        MetricPoint(0.0, "x1", "outage", "ipsic", 0.5, None,
                    mc_mean=0.5, mc_ci_low=0.6, mc_ci_high=0.7, feasible=True)


def test_rerun_is_byte_identical(baseline):
    spec = small_spec(stop_db=10.0)
    a = render_csv(run_sweep(spec, baseline))
    b = render_csv(run_sweep(spec, baseline))
    c = render_csv(run_sweep(spec, baseline, workers=3))
    assert a == b == c


def test_csv_layout(baseline, tmp_path):
    spec = small_spec(stop_db=5.0, with_asymptotic=False)
    rows = run_sweep(spec, baseline)
    path = tmp_path / "out.csv"
    emit_outputs(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == ("snr_db,signal,metric,mode,analytic,asymptotic,"
                        "mc_mean,mc_ci_low,mc_ci_high,feasible")
    assert len(lines) == 1 + len(rows)
    # asymptotic was not requested: the field stays, the value is empty
    first = lines[1].split(",")
    assert len(first) == 10
    assert first[5] == ""
    assert first[9] == "true"
    # numeric fields survive a round trip at full precision
    assert float(first[4]) == rows[0].analytic


def test_infeasible_rows_are_reported_not_raised(tmp_path):
    cfg = SystemConfig(r1=3.0, r3=3.0)
    rows = run_sweep(small_spec(stop_db=0.0, signals=(1,)), cfg)
    assert len(rows) == 1
    assert rows[0].analytic == 1.0
    assert not rows[0].feasible
    text = render_csv(rows)
    assert text.rstrip().endswith("false")


def test_oma_rows_emitted_once_per_grid_point(baseline):
    spec = small_spec(stop_db=0.0, modes=("ipsic", "psic"), with_oma=True)
    rows = run_sweep(spec, baseline)
    oma = [r for r in rows if r.mode == "oma"]
    assert [r.signal for r in oma] == ["oma:system", "oma:x1", "oma:x2"]
    for r in oma:
        assert r.analytic is None and r.asymptotic is None
        assert r.mc_mean is not None
    # NOMA rows appear for both modes
    assert sum(1 for r in rows if r.mode == "ipsic") == 2
    assert sum(1 for r in rows if r.mode == "psic") == 2


def test_throughput_rows_collapse_to_system(baseline):
    spec = small_spec(metric="throughput_dl", stop_db=5.0,
                      modes=("ipsic", "psic"), signals=(1, 2, 3, 4),
                      with_asymptotic=True)
    rows = run_sweep(spec, baseline)
    assert len(rows) == 4  # two grid points, two modes
    assert all(r.signal == "system" for r in rows)
    assert all(r.asymptotic is not None for r in rows)


def test_empty_table_refused(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        emit_outputs([], str(tmp_path / "x.csv"))


def test_unwritable_path_reports_the_path(baseline):
    rows = run_sweep(small_spec(stop_db=0.0), baseline)
    bad = "/nonexistent_dir_for_test/out.csv"
    with pytest.raises(OutputError, match="nonexistent_dir_for_test"):
        emit_outputs(rows, bad)
    with pytest.raises(OutputError, match="nonexistent_dir_for_test"):
        emit_plot_script("out.csv", bad)


def test_plot_script_is_selfcontained(baseline, tmp_path):
    spec = small_spec(stop_db=10.0, modes=("ipsic", "psic"))
    rows = run_sweep(spec, baseline)
    csv_path = tmp_path / "curves.csv"
    script_path = tmp_path / "curves_plot.py"
    emit_outputs(rows, str(csv_path))
    emit_plot_script(str(csv_path), str(script_path))
    source = script_path.read_text()
    compile(source, str(script_path), "exec")  # syntactically sound
    # one curve per (signal, mode): 2 signals x 2 modes
    assert source.count("series.setdefault") == 1
    assert '"curves.csv"' in source and '"curves.png"' in source
    # running the script needs matplotlib in the test interpreter
    pytest.importorskip("matplotlib")
    env = dict(os.environ, MPLBACKEND="Agg")
    proc = subprocess.run([sys.executable, str(script_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "curves.png").exists()


def test_ee_rows_scale_with_power_budget(baseline):
    spec = small_spec(metric="ee_dt", stop_db=0.0, modes=("ipsic",),
                      signals=(1, 2, 3, 4))
    base_rows = run_sweep(spec, baseline)
    pricey = SystemConfig(pu_watts=20.0, pr_watts=20.0)
    dear_rows = run_sweep(spec, pricey)
    assert base_rows[0].analytic == pytest.approx(2.0 * dear_rows[0].analytic,
                                                  rel=1e-12)


@pytest.mark.parametrize("metric", ["outage", "ergodic_rate"])
def test_one_channel_draw_per_sweep(baseline, monkeypatch, metric):
    """Every grid point, signal and SIC mode read one NOMA draw per chunk,
    and the baseline one draw of its fades, for the whole sweep."""
    draws, streams = [], []
    original_draw = montecarlo.sample_channel_draw
    original_stream = montecarlo.chunk_generator

    def counting_draw(*args, **kwargs):
        draws.append(kwargs.get("size"))
        return original_draw(*args, **kwargs)

    def counting_stream(*args):
        streams.append(args)
        return original_stream(*args)

    monkeypatch.setattr(montecarlo, "sample_channel_draw", counting_draw)
    monkeypatch.setattr(montecarlo, "chunk_generator", counting_stream)
    spec = small_spec(metric=metric, stop_db=5.0, signals=(1, 2, 3, 4),
                      modes=("ipsic", "psic"), with_oma=True)
    rows = run_sweep(spec, baseline)
    assert len(rows) == 2 * (4 * 2 + 5)
    assert draws == [spec.mc_iterations]
    assert streams == [(spec.master_seed, 0, 0), (spec.master_seed, 1, 0)]


def test_outage_curves_fall_with_snr(baseline):
    """Every grid point reads the same draws, and a draw that decodes at one
    SNR decodes at every higher one, so each simulated outage curve (the
    baseline's too) is non-increasing, even at 2000 samples."""
    spec = small_spec(signals=(1, 2, 3, 4), modes=("ipsic", "psic"), with_oma=True)
    rows = run_sweep(spec, baseline)
    for curve in {(r.signal, r.mode) for r in rows}:
        means = [r.mc_mean for r in rows if (r.signal, r.mode) == curve]
        assert len(means) == 9
        assert means == sorted(means, reverse=True)


def _per_draw_samples(cfg, draw, s):
    """Independent rebuild of signal s's success mask and rate per draw."""
    idx = SignalIndex.for_signal(s)
    v = sinr_set(cfg, draw, idx)
    th_l = gamma_threshold(cfg.rate(idx.l))
    th_t = gamma_threshold(cfg.rate(idx.t))
    if s in (1, 3):
        ok = ((v.relay_strong > th_l) & (v.near_decodes_weak > th_t)
              & (v.near_decodes_own > th_l))
        eff = np.minimum(v.relay_strong, v.near_decodes_own)
    else:
        ok = ((v.relay_weak > th_t) & (v.relay_strong > th_l)
              & (v.near_decodes_weak > th_t) & (v.far_decodes_weak > th_t))
        eff = np.minimum(np.minimum(v.relay_weak, v.near_decodes_weak),
                         v.far_decodes_weak)
    return ok, 0.5 * np.log2(1.0 + eff)


def _per_draw_system_sum(cfg, draw, metric):
    """Independent rebuild of sum_i 1{ok_i} R_i or sum_i rate_i per draw."""
    total = np.zeros(draw.g1.shape)
    for s in (1, 2, 3, 4):
        ok, rate = _per_draw_samples(cfg, draw, s)
        if metric == "throughput_dl":
            total += np.where(ok, cfg.rate(s), 0.0)
        else:
            total += rate
    return total


@pytest.mark.parametrize("metric", ["throughput_dl", "throughput_dt"])
def test_system_interval_is_that_of_the_per_draw_sum(baseline, metric):
    """The four signals share draws, so the system row's interval comes from
    the per-draw sum, not from combining per-signal half-widths."""
    n, seed = 20_000, 5
    spec = small_spec(metric=metric, start_db=20.0, stop_db=20.0,
                      signals=(1, 2, 3, 4), modes=("ipsic", "psic"), mc_iterations=n,
                      master_seed=seed)
    rows = {r.mode: r for r in run_sweep(spec, baseline)}
    cfg = baseline.with_rho(100.0)
    # grid point 0, one chunk: the NOMA gains come from substream (0, 0)
    draw = sample_channel_draw(cfg, chunk_generator(seed, 0, 0), size=n)
    for mode in ("ipsic", "psic"):
        x = _per_draw_system_sum(cfg.with_mode(mode), draw, metric)
        assert x.std() > 0.0
        row = rows[mode]
        half = (row.mc_ci_high - row.mc_ci_low) / 2.0
        assert row.mc_mean == pytest.approx(x.mean(), rel=1e-12)
        assert half == pytest.approx(1.959963984540054 * x.std(ddof=1) / np.sqrt(n),
                                     rel=1e-12)


@pytest.mark.parametrize("metric, extra", [("outage", {"with_oma": True}),
                                           ("ee_dl", {"signals": (1, 2, 3, 4)})])
def test_worker_count_invariance_over_several_chunks(baseline, metric, extra):
    """Three chunks per estimate, so the pool really splits the work."""
    spec = small_spec(metric=metric, start_db=10.0, stop_db=10.0,
                      modes=("ipsic", "psic"), mc_iterations=2 * CHUNK + 1000, **extra)
    assert render_csv(run_sweep(spec, baseline, workers=1)) == \
        render_csv(run_sweep(spec, baseline, workers=3))


@pytest.mark.parametrize("kind", ["outage", "rate"])
def test_kernel_equals_the_per_mode_rebuild(baseline, kind):
    """Counts and (n, mean, M2) moments over three chunks, rebuilt one mode
    at a time from sinr_set, equal the kernel's bit for bit."""
    n, seed, point = 2 * CHUNK + 1000, 3, 2
    cfg = baseline.with_rho(10.0 ** 1.5)
    ests = montecarlo.mc_point(cfg, n, seed, point_index=point, kind=kind,
                               modes=("ipsic", "psic"))
    sizes = [CHUNK, CHUNK, 1000]
    draws = [sample_channel_draw(cfg, chunk_generator(seed, 2 * point, c), size=size)
             for c, size in enumerate(sizes)]
    assert len(ests) == 2 * 4
    for mode in ("ipsic", "psic"):
        for s in (1, 2, 3, 4):
            parts = [_per_draw_samples(cfg.with_mode(mode), draw, s) for draw in draws]
            est = ests[kind, mode, s]
            if kind == "outage":
                failures = sum(int(np.count_nonzero(~ok)) for ok, _ in parts)
                lo, hi = montecarlo.ci_bounds(failures, n)
                assert (est.mean, est.ci_low, est.ci_high) == (failures / n, lo, hi)
            else:
                total, mean, m2 = montecarlo._merge_moments(
                    [montecarlo._moments(rate) for _, rate in parts])
                assert total == n
                assert est.mean == mean
                assert est.half_width_95 == (1.959963984540054
                                             * np.sqrt(m2 / (n - 1) / n))


@settings(max_examples=30, deadline=None)
@given(varpi=st.sampled_from([0.0, 0.01, 0.3]), omega_I=st.sampled_from([1e-2, 1.0]),
       zero_rate=st.sampled_from([None, 1, 2, 3, 4]),
       dbs=st.lists(st.floats(-10.0, 60.0), min_size=1, max_size=5),
       seed=st.integers(0, 2 ** 32), point=st.integers(0, 3))
def test_critical_snr_counts_equal_per_point_rebuilds(varpi, omega_I, zero_rate,
                                                      dbs, seed, point):
    """On one shared draw, mc_grid's counts at every grid SNR, in any order,
    equal masks rebuilt from sinr_set at that SNR, both modes; the delivered
    throughput equals the per-draw sum's mean and interval."""
    n = 3000
    zero = {f"r{zero_rate}": 0.0} if zero_rate else {}
    cfg = SystemConfig(varpi1=varpi, varpi2=varpi, omega_I=omega_I, **zero)
    rhos = [10.0 ** (db / 10.0) for db in dbs]
    modes = ("ipsic", "psic")
    outage = montecarlo.mc_grid(cfg, rhos, n, seed, point, kind="outage", modes=modes)
    delivered = montecarlo.mc_grid(cfg, rhos, n, seed, point, kind="throughput_dl",
                                   modes=modes)
    draw = sample_channel_draw(cfg, chunk_generator(seed, 2 * point, 0), size=n)
    for rho, counts, system in zip(rhos, outage, delivered):
        for mode in modes:
            mcfg = cfg.with_rho(rho).with_mode(mode)
            for s in (1, 2, 3, 4):
                ok, _ = _per_draw_samples(mcfg, draw, s)
                assert counts["outage", mode, s].mean == np.count_nonzero(~ok) / n
            x = _per_draw_system_sum(mcfg, draw, "throughput_dl")
            est = system["throughput_dl", mode]
            assert est.mean == pytest.approx(x.mean(), rel=1e-12, abs=1e-15)
            assert est.half_width_95 == pytest.approx(
                1.959963984540054 * x.std(ddof=1) / np.sqrt(n), rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("kind", montecarlo.KINDS)
def test_grid_estimates_do_not_depend_on_the_worker_count(baseline, kind):
    """Three grid SNRs over three chunks: counts, co-counts and moments."""
    args = (baseline, [1.0, 10.0 ** 1.5, 1e3], 2 * CHUNK + 1000, 9)
    extra = dict(kind=kind, modes=("ipsic", "psic"),
                 oma=kind in ("outage", "rate"))
    serial = montecarlo.mc_grid(*args, workers=1, **extra)
    assert serial == montecarlo.mc_grid(*args, workers=3, **extra)
    assert len(serial) == 3 and serial[0] != serial[2]


def test_outage_request_returns_only_outage_estimates(baseline):
    ests = montecarlo.mc_point(baseline.with_rho(10.0), 2000, 1, kind="outage",
                               modes=("ipsic", "psic"), oma=True)
    assert {key[0] for key in ests} == {"outage", "oma_outage"}
    assert len(ests) == 2 * 4 + 5


@pytest.mark.parametrize("kind", ["throughput_dl", "throughput_dt"])
def test_system_kinds_always_sum_the_four_signals(baseline, kind):
    cfg = baseline.with_rho(10.0)
    whole = montecarlo.mc_point(cfg, 2000, 1, kind=kind, signals=(1, 2, 3, 4),
                                modes=("ipsic", "psic"))
    assert montecarlo.mc_point(cfg, 2000, 1, kind=kind, signals=(1, 2),
                               modes=("ipsic", "psic")) == whole
    assert set(whole) == {(kind, "ipsic"), (kind, "psic")}


def test_kind_requests_are_checked(baseline):
    with pytest.raises(ValueError, match="kind"):
        montecarlo.mc_point(baseline, 2000, 1, kind="latency")
    with pytest.raises(ValueError, match="modes"):
        montecarlo.mc_point(baseline, 2000, 1, kind="outage", modes=("sic",))
    for kind in ("throughput_dl", "throughput_dt"):
        with pytest.raises(ValueError, match="orthogonal baseline"):
            montecarlo.mc_point(baseline, 2000, 1, kind=kind, oma=True)
    for rhos in ([], [1.0, 0.0], [float("inf")], [[1.0]]):
        with pytest.raises(ValueError, match="rhos"):
            montecarlo.mc_grid(baseline, rhos, 2000, 1, kind="outage")


# sha256 over the mc_mean,mc_ci_low,mc_ci_high columns (header included) of
# every CSV of the preset, 2000 iterations, seed 11, default config.
# Recorded when a sweep began reading one substream for its whole grid;
# any kernel change that moves one byte of a Monte Carlo column fails here.
MC_COLUMN_DIGESTS = {
    "fig3": "17c1268a17b858f0002a76c15f8d5f2b70adc7fd9c2363c52664b1597245f26c",
    "fig8": "6377857e7bbe8094d82c919f99974ec2f2006eef975040e24a2e9903555540c4",
}


@pytest.mark.parametrize("name", sorted(MC_COLUMN_DIGESTS))
def test_monte_carlo_columns_are_frozen(name):
    preset = PRESETS[name]
    digest = hashlib.sha256()
    for variant in preset.variants:
        spec = dataclasses.replace(preset, metric=variant.metric or preset.metric,
                                   modes=("ipsic", "psic"), mc_iterations=2000,
                                   master_seed=11)
        cfg = dataclasses.replace(SystemConfig(), **variant.overrides)
        for line in render_csv(run_sweep(spec, cfg)).splitlines():
            digest.update((",".join(line.split(",")[6:9]) + "\n").encode())
    assert digest.hexdigest() == MC_COLUMN_DIGESTS[name]


# sha256 over the snr_db..asymptotic and feasible columns (header included)
# of every CSV of every preset, 2000 iterations, seed 11, asymptotes on,
# default config.  Recorded before metrics.analytic became the one route to
# the closed-form values; any change that moves one analytic byte fails here.
ANALYTIC_COLUMN_DIGESTS = {
    "fig2": "f92383b2a6a53df25a2b9b35a447b2704c4d6245a238081e981861ec361034fc",
    "fig3": "a12a45ba5ef9cddd82b9e1b06cc00df62285b07d066691063cd5da24e0441d42",
    "fig4": "aaacff51f61db58aaecefce87f61417b039d55505af87eb577d91c910c081290",
    "fig5": "0c284f6916253978ed9c81cc87206b6cbdca154187692eeeb249c88f56085f67",
    "fig6": "3df2c9a3da87fe28643724eef619028cc17e486fad15dfaf5bba5957b899bf09",
    "fig7": "4ce206b9dc9ce68b20b220d1c8c69de7e502edbb0013fdfde9501f6ff1d39be0",
    "fig8": "37821b6a516f6d70f8a4e7b8de3163096fb7eaca27244326faf4c54f132c5801",
}


@pytest.mark.parametrize("name", sorted(ANALYTIC_COLUMN_DIGESTS))
def test_analytic_columns_are_frozen(name):
    preset = PRESETS[name]
    digest = hashlib.sha256()
    for variant in preset.variants:
        spec = dataclasses.replace(preset, metric=variant.metric or preset.metric,
                                   modes=("ipsic", "psic"), mc_iterations=2000,
                                   master_seed=11, with_asymptotic=True)
        cfg = dataclasses.replace(SystemConfig(), **variant.overrides)
        for line in render_csv(run_sweep(spec, cfg)).splitlines():
            fields = line.split(",")
            digest.update((",".join(fields[0:6] + fields[9:10]) + "\n").encode())
    assert digest.hexdigest() == ANALYTIC_COLUMN_DIGESTS[name]
