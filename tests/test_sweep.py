"""Sweep driver and output writers."""

import dataclasses
import hashlib
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twrnoma.montecarlo as montecarlo
from twrnoma import cli
from twrnoma.configio import PRESETS
from twrnoma.metrics import METRICS, PER_SIGNAL, energy_efficiency
from twrnoma.model import (ConfigError, SignalIndex, SystemConfig, gamma_threshold,
                           sample_channel_draw, sinr_set)
from twrnoma.montecarlo import BLOCK, CHUNK, chunk_generator
from twrnoma.sweep import (CSV_HEADER, MAX_GRID_POINTS, MetricPoint, OutputError,
                           SweepSpec, emit_outputs, emit_plot_script, render_csv,
                           run_sweep, run_sweeps)
from twrnoma.validate import DEFAULT_VALIDATE_SEED, validate


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
    # a signal is an integer: none is truncated, parsed or read as a bool
    for signals, shown in (((1.7, 2), "1.7"), (("x1",), "'x1'"), ((True,), "True"),
                           ((1, 2.0), "2.0")):
        with pytest.raises(ConfigError,
                           match=re.escape(f"signals must be integers in 1..4, got {shown}")):
            small_spec(signals=signals)
    assert small_spec(signals=(np.int64(2), 1, 2)).signals == (1, 2)
    with pytest.raises(ConfigError, match="1000"):
        small_spec(mc_iterations=10)
    with pytest.raises(ConfigError, match="metric"):
        small_spec(metric="latency")
    with pytest.raises(ConfigError, match="SIC mode must be one of"):
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
    # the largest grid must also fit the float range of a linear SNR
    largest = small_spec(start_db=-2500.0, stop_db=2499.5, step_db=0.5)
    assert len(largest.grid_db()) == MAX_GRID_POINTS
    # the last grid point, not the stop, is what must fit that range
    edge = small_spec(start_db=3080.0, stop_db=3090.0, step_db=100.0)
    assert edge.grid_db() == [3080.0]
    with pytest.raises(ConfigError, match="3090.0 dB"):
        small_spec(start_db=3080.0, stop_db=3090.0, step_db=10.0)


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


def _preset_csvs(out_dir, preset, n, workers, *flags):
    """The CSVs one ``twrnoma sweep --preset`` command writes, by file name."""
    assert cli.main(["sweep", "--preset", preset, "--iterations", str(n),
                     "--workers", str(workers), "--seed", "5",
                     "--out", str(out_dir / f"{preset}.csv"), *flags]) == 0
    return {path.name: path.read_text(encoding="utf-8")
            for path in out_dir.glob(f"{preset}*.csv")}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [2000, 2 * CHUNK + 1000])
@pytest.mark.parametrize("preset, flags", [
    ("fig3", ()), ("fig3", ("--with-oma", "--with-asymptotic")),
    ("fig4", ()), ("fig5", ()), ("fig8", ()),
], ids=["fig3", "fig3-oma", "fig4", "fig5", "fig8"])
def test_a_preset_pass_gives_each_variant_its_own_bytes(tmp_path, capsys, preset,
                                                        flags, n, workers):
    """A preset's variants share each chunk's draw, yet every CSV has the
    bytes of its variant's sweep run alone: fig3's and fig8's variants share
    every mean, fig4's and fig5's differ in Omega_I, and with the baseline
    each variant reads its own fades."""
    shared = _preset_csvs(tmp_path, preset, n, workers, *flags)
    spec = dataclasses.replace(PRESETS[preset], mc_iterations=n, master_seed=5,
                               with_oma="--with-oma" in flags,
                               with_asymptotic="--with-asymptotic" in flags)
    assert len(shared) == len(spec.variants) > 1
    for variant in spec.variants:
        alone = run_sweep(dataclasses.replace(spec, metric=variant.metric or spec.metric),
                          dataclasses.replace(SystemConfig(), **variant.overrides),
                          workers=workers)
        assert shared[f"{preset}_{variant.suffix}.csv"] == render_csv(alone)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_one_channel_draw_per_preset(tmp_path, capsys, monkeypatch, preset):
    """All of a preset's CSVs read one NOMA draw per chunk, and a second
    command draws again: nothing is kept from one call to the next."""
    draws = []
    original = montecarlo.sample_channel_draw

    def counting(*args, **kwargs):
        draws.append(kwargs["size"])
        return original(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "sample_channel_draw", counting)
    for _ in range(2):
        _preset_csvs(tmp_path, preset, CHUNK + 1000, 1, "--snr", "0:5:5")
    assert draws == [CHUNK, 1000] * 2


@pytest.mark.parametrize("preset, pairings", [("fig4", 1), ("fig5", 2)])
def test_omega_i_variants_share_each_blocks_margin_base(tmp_path, capsys, monkeypatch,
                                                         preset, pairings):
    """fig4's three and fig5's two Omega_I variants read one margin base per
    pairing and block, not one per variant: the base reads no gI."""
    built = []
    original = montecarlo.margin_base

    def counting(config, draw, idx):
        built.append(draw.gI.size)
        return original(config, draw, idx)

    monkeypatch.setattr(montecarlo, "margin_base", counting)
    _preset_csvs(tmp_path, preset, CHUNK + 1000, 1, "--snr", "0:5:5")
    assert built == [BLOCK] * pairings * (CHUNK // BLOCK) + [1000] * pairings


def test_baseline_variants_share_each_chunks_fades(tmp_path, capsys, monkeypatch):
    """fig3's three leakage levels have equal link means, so the baseline
    draws its fades once per chunk for all of them."""
    drawn = []
    original = montecarlo._oma_fades

    def counting(config, stream, size):
        drawn.append(size)
        return original(config, stream, size)

    monkeypatch.setattr(montecarlo, "_oma_fades", counting)
    _preset_csvs(tmp_path, "fig3", CHUNK + 1000, 1, "--snr", "0:5:5", "--with-oma")
    assert drawn == [CHUNK, 1000]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [2000, 2 * CHUNK + 1000])
@pytest.mark.parametrize("preset, with_oma", [("fig3", True), ("fig4", False),
                                              ("fig8", False)],
                         ids=["fig3-oma", "fig4", "fig8"])
def test_one_spec_over_several_curves(preset, with_oma, n, workers):
    """``run_sweeps`` of a preset's (metric, config) curves gives each curve
    the bytes of ``run_sweep`` of that curve alone: fig3's leakage levels
    with the baseline, fig4's three Omega_I and fig8's ee_dl and ee_dt."""
    spec = dataclasses.replace(PRESETS[preset], mc_iterations=n, master_seed=5,
                               with_oma=with_oma)
    curves = [(variant.metric or spec.metric,
               dataclasses.replace(SystemConfig(), **variant.overrides))
              for variant in spec.variants]
    tables = run_sweeps(spec, curves, workers=workers)
    assert len(tables) == len(curves) > 1
    for (metric, config), table in zip(curves, tables):
        alone = run_sweep(dataclasses.replace(spec, metric=metric), config, workers=workers)
        assert render_csv(table) == render_csv(alone)


def test_no_curves_give_no_tables():
    assert run_sweeps(small_spec(), []) == []


def test_config_copies_do_not_grow_with_the_grid(baseline, monkeypatch):
    """A sweep reads every grid SNR as an argument, and the rate routes read
    no leakage field: fig6's 11 points and 3 points alike build no
    SystemConfig, neither a copy per point nor a leakage-free twin."""
    built = []
    original = SystemConfig.__post_init__

    def counting(self):
        built.append(self.rho)
        original(self)

    monkeypatch.setattr(SystemConfig, "__post_init__", counting)
    counts = []
    for snr in (PRESETS["fig6"].snr, (0.0, 10.0, 5.0)):
        spec = dataclasses.replace(PRESETS["fig6"], snr=snr, mc_iterations=2000,
                                   master_seed=11, with_asymptotic=True)
        built.clear()
        assert len(run_sweep(spec, baseline)) == 2 * 2 * len(spec.grid_db())
        counts.append(len(built))
    assert len(PRESETS["fig6"].grid_db()) == 11
    assert counts == [0, 0]


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


def _per_draw_samples(cfg, draw, s, mode):
    """Independent rebuild of signal s's success mask and rate per draw."""
    idx = SignalIndex.for_signal(s)
    v = sinr_set(cfg, draw, idx, mode)
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


def _per_draw_system_sum(cfg, draw, metric, mode):
    """Independent rebuild of sum_i 1{ok_i} R_i or sum_i rate_i per draw."""
    total = np.zeros(draw.g1.shape)
    for s in (1, 2, 3, 4):
        ok, rate = _per_draw_samples(cfg, draw, s, mode)
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
        x = _per_draw_system_sum(cfg, draw, metric, mode)
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


@pytest.mark.parametrize("metric, extra", [("outage", {"with_oma": True}),
                                           ("ergodic_rate", {"with_oma": True}),
                                           ("ee_dl", {"signals": (1, 2, 3, 4)}),
                                           ("throughput_dt", {"signals": (1, 2, 3, 4)})])
def test_worker_count_invariance_on_a_ragged_last_block(baseline, metric, extra):
    """The last of two chunks holds one whole block and a partial one; every
    metric's estimates, the baseline's included, keep their bytes at any
    worker count."""
    spec = small_spec(metric=metric, start_db=10.0, stop_db=20.0, step_db=10.0,
                      modes=("ipsic", "psic"), mc_iterations=CHUNK + BLOCK + 123,
                      **extra)
    assert render_csv(run_sweep(spec, baseline, workers=1)) == \
        render_csv(run_sweep(spec, baseline, workers=3))


@pytest.mark.parametrize("metric", ["outage", "ergodic_rate"], ids=["outage", "rate"])
def test_kernel_equals_the_per_mode_rebuild(baseline, metric):
    """Counts over three chunks, rebuilt one mode at a time from sinr_set,
    equal the kernel's bit for bit.  The (n, mean, M2) moments agree to
    round-off: the kernel forms each SINR as A / (B + 1/rho), sinr_set as
    rho A / (rho B + 1), and merges them per block, the rebuild per chunk."""
    _assert_kernel_equals_the_per_mode_rebuild(baseline, metric, 2 * CHUNK + 1000)


@pytest.mark.parametrize("metric", ["outage", "ergodic_rate"], ids=["outage", "rate"])
def test_kernel_equals_the_per_mode_rebuild_on_a_ragged_block(baseline, metric):
    """As above, with a last chunk of one whole block and a partial one."""
    _assert_kernel_equals_the_per_mode_rebuild(baseline, metric, CHUNK + BLOCK + 123)


def _assert_kernel_equals_the_per_mode_rebuild(baseline, metric, n):
    seed, point = 3, 2
    cfg = baseline.with_rho(10.0 ** 1.5)
    ests = montecarlo.mc_grid(cfg, [cfg.rho], n, seed, point_index=point, metric=metric,
                              targets=(1, 2, 3, 4), modes=("ipsic", "psic"))[0]
    sizes = [CHUNK] * (n // CHUNK) + [n % CHUNK]
    draws = [sample_channel_draw(cfg, chunk_generator(seed, 2 * point, c), size=size)
             for c, size in enumerate(sizes)]
    assert len(ests) == 2 * 4
    for mode in ("ipsic", "psic"):
        for s in (1, 2, 3, 4):
            parts = [_per_draw_samples(cfg, draw, s, mode) for draw in draws]
            est = ests[mode, s]
            if metric == "outage":
                failures = sum(int(np.count_nonzero(~ok)) for ok, _ in parts)
                lo, hi = montecarlo.ci_bounds(failures, n)
                assert (est.mean, est.ci_low, est.ci_high) == (failures / n, lo, hi)
            else:
                total, mean, m2 = montecarlo._merge_moments(
                    [montecarlo._moments(rate) for _, rate in parts])
                assert total == n
                assert est.mean == pytest.approx(mean, rel=1e-12)
                assert est.half_width_95 == pytest.approx(
                    1.959963984540054 * np.sqrt(m2 / (n - 1) / n), rel=1e-12)


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
    outage = montecarlo.mc_grid(cfg, rhos, n, seed, point, metric="outage",
                                targets=(1, 2, 3, 4), modes=modes)
    delivered = montecarlo.mc_grid(cfg, rhos, n, seed, point, metric="throughput_dl",
                                   targets=("system",), modes=modes)
    draw = sample_channel_draw(cfg, chunk_generator(seed, 2 * point, 0), size=n)
    for rho, counts, system in zip(rhos, outage, delivered):
        for mode in modes:
            mcfg = cfg.with_rho(rho)
            for s in (1, 2, 3, 4):
                ok, _ = _per_draw_samples(mcfg, draw, s, mode)
                assert counts[mode, s].mean == np.count_nonzero(~ok) / n
            x = _per_draw_system_sum(mcfg, draw, "throughput_dl", mode)
            est = system[mode, "system"]
            assert est.mean == pytest.approx(x.mean(), rel=1e-12, abs=1e-15)
            assert est.half_width_95 == pytest.approx(
                1.959963984540054 * x.std(ddof=1) / np.sqrt(n), rel=1e-9, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(varpi=st.sampled_from([0.0, 0.01, 0.3]), omega_I=st.sampled_from([1e-2, 1.0]),
       dbs=st.lists(st.sampled_from([-10.0, 0.0, 25.0, 60.0]) | st.floats(-10.0, 60.0),
                    min_size=1, max_size=5),
       seed=st.integers(0, 2 ** 32), point=st.integers(0, 3))
@example(varpi=0.0, omega_I=1e-2, dbs=[60.0, -10.0, 60.0], seed=0, point=0)
def test_rate_estimates_equal_per_point_rebuilds(varpi, omega_I, dbs, seed, point):
    """On one shared draw, mc_grid's rate and delay-tolerant throughput
    estimates at every grid SNR, in any order and with repeats, equal the
    means and intervals of per-draw samples rebuilt from sinr_set at that
    SNR, both modes.  At zero leakage under pSIC the relay's decode of x_t
    has B = 0, so its SINR is A / (1/rho)."""
    n = 3000
    cfg = SystemConfig(varpi1=varpi, varpi2=varpi, omega_I=omega_I)
    rhos = [10.0 ** (db / 10.0) for db in dbs]
    modes = ("ipsic", "psic")
    rates = montecarlo.mc_grid(cfg, rhos, n, seed, point, metric="ergodic_rate",
                               targets=(1, 2, 3, 4), modes=modes)
    sums = montecarlo.mc_grid(cfg, rhos, n, seed, point, metric="throughput_dt",
                              targets=("system",), modes=modes)
    draw = sample_channel_draw(cfg, chunk_generator(seed, 2 * point, 0), size=n)

    def assert_agrees(est, x):
        assert est.mean == pytest.approx(x.mean(), rel=1e-12)
        assert est.half_width_95 == pytest.approx(
            1.959963984540054 * x.std(ddof=1) / np.sqrt(n), rel=1e-12)

    for rho, per_signal, system in zip(rhos, rates, sums):
        for mode in modes:
            mcfg = cfg.with_rho(rho)
            for s in (1, 2, 3, 4):
                assert_agrees(per_signal[mode, s],
                              _per_draw_samples(mcfg, draw, s, mode)[1])
            assert_agrees(system[mode, "system"],
                          _per_draw_system_sum(mcfg, draw, "throughput_dt", mode))


# (alpha, SNR dB) -> {(metric, mode): mean}: 2000 draws, seed 1, recorded
# while the system rate was still a sum of four logarithms.
_FLOAT_RANGE_MEANS = {
    (60.0, 10.0): {("throughput_dt", "ipsic"): 597.6833219205828,
                   ("throughput_dt", "psic"): 597.7902518456804,
                   ("ee_dt", "ipsic"): 59.76833219205828,
                   ("ee_dt", "psic"): 59.77902518456804},
    (40.0, 1000.0): {("throughput_dt", "ipsic"): 402.9105528859659,
                     ("throughput_dt", "psic"): 727.3454475462877,
                     ("ee_dt", "ipsic"): 40.291055288596596,
                     ("ee_dt", "psic"): 72.73454475462877},
}


@pytest.mark.parametrize("alpha, db", sorted(_FLOAT_RANGE_MEANS))
@pytest.mark.parametrize("metric", ["throughput_dt", "ee_dt"])
def test_system_rate_past_the_float_range_of_a_product(alpha, db, metric):
    """A distance of 1e-3 at path loss 60 (or 40 at 1000 dB) makes each
    factor 1 + SINR of the strong signals 2^600 or more, so their product
    would overflow; the system rate is then the sum of the four logarithms,
    finite, equal to the per-draw rebuild and bit for bit the recorded
    value.  Warnings are errors here, so an overflow fails too."""
    n, seed = 2000, 1
    cfg = SystemConfig(varpi1=0.0, varpi2=0.0, d1=1e-3, d2=1e3, alpha=alpha)
    rho = 10.0 ** (db / 10.0)
    modes = ("ipsic", "psic")
    ests = montecarlo.mc_grid(cfg, [rho], n, seed, metric=metric,
                              targets=("system",), modes=modes)[0]
    draw = sample_channel_draw(cfg, chunk_generator(seed, 0, 0), size=n)
    scale = energy_efficiency(1.0, cfg) if metric == "ee_dt" else 1.0
    for mode in modes:
        est = ests[mode, "system"]
        assert np.isfinite([est.mean, est.ci_low, est.ci_high]).all()
        x = scale * _per_draw_system_sum(cfg.with_rho(rho), draw, "throughput_dt", mode)
        assert est.mean == pytest.approx(x.mean(), rel=1e-12)
        assert est.half_width_95 == pytest.approx(
            1.959963984540054 * x.std(ddof=1) / np.sqrt(n), rel=1e-12)
        assert est.mean == _FLOAT_RANGE_MEANS[alpha, db][metric, mode]


@pytest.mark.parametrize("metric, targets", [("ergodic_rate", (1, 2, 3, 4)),
                                             ("throughput_dt", ("system",))],
                         ids=["rate", "throughput_dt"])
def test_grid_entries_equal_one_point_runs_bit_for_bit(baseline, metric, targets):
    """Over two chunks, entry j of mc_grid is the one-SNR grid at rhos[j]
    exactly: a grid SNR's estimate reads nothing of the other grid SNRs."""
    rhos = [10.0 ** 3.2, 1.0, 10.0 ** 1.5, 1.0]
    n, seed = CHUNK + 1000, 4
    request = dict(metric=metric, targets=targets, modes=("ipsic", "psic"))
    grid = montecarlo.mc_grid(baseline, rhos, n, seed, 1, **request)
    for rho, ests in zip(rhos, grid):
        assert ests == montecarlo.mc_grid(baseline, [rho], n, seed, 1, **request)[0]


@pytest.mark.parametrize("metric", METRICS)
def test_grid_estimates_do_not_depend_on_the_worker_count(baseline, metric):
    """Three grid SNRs over three chunks: counts, co-counts and moments."""
    args = (baseline, [1.0, 10.0 ** 1.5, 1e3], 2 * CHUNK + 1000, 9)
    extra = dict(metric=metric, targets=_targets(metric), modes=("ipsic", "psic"),
                 oma=metric in PER_SIGNAL)
    serial = montecarlo.mc_grid(*args, workers=1, **extra)
    assert serial == montecarlo.mc_grid(*args, workers=3, **extra)
    assert len(serial) == 3 and serial[0] != serial[2]


def _targets(metric):
    return (1, 2, 3, 4) if metric in PER_SIGNAL else ("system",)


def test_outage_request_returns_only_outage_estimates(baseline):
    """The NOMA estimates are keyed (mode, signal), the baseline's ("oma",
    target), and an outage request builds no rate moments."""
    ests = montecarlo.mc_grid(baseline, [10.0], 2000, 1, metric="outage",
                              targets=(1, 2, 3, 4), modes=("ipsic", "psic"), oma=True)[0]
    assert {key[0] for key in ests} == {"ipsic", "psic", "oma"}
    assert len(ests) == 2 * 4 + 5
    rates = montecarlo.mc_grid(baseline, [10.0], 2000, 1, metric="ergodic_rate",
                               targets=(1, 2, 3, 4), modes=("ipsic", "psic"), oma=True)[0]
    assert set(rates) == set(ests) and rates != ests


@pytest.mark.parametrize("metric", ["throughput_dl", "throughput_dt"])
def test_system_kinds_always_sum_the_four_signals(baseline, metric):
    """A system target sums x1..x4, whatever signals a sweep names."""
    whole = montecarlo.mc_grid(baseline, [10.0], 2000, 1, metric=metric,
                               targets=("system",), modes=("ipsic", "psic"))[0]
    assert set(whole) == {("ipsic", "system"), ("psic", "system")}
    spec = small_spec(metric=metric, signals=(1, 2), start_db=10.0, stop_db=10.0,
                      modes=("ipsic", "psic"), master_seed=1)
    assert [(r.mc_mean, r.mc_ci_low, r.mc_ci_high) for r in run_sweep(spec, baseline)] \
        == [(est.mean, est.ci_low, est.ci_high) for est in whole.values()]


@pytest.mark.parametrize("service", ["dl", "dt"])
def test_efficiency_estimates_are_the_throughput_estimates_rescaled(service):
    """Bit for bit: every field of an ee_* estimate is that of the throughput
    estimate times energy_efficiency(1.0, config), over a grid and two
    chunks."""
    cfg = SystemConfig(t_slot=0.7, pu_watts=0.3, pr_watts=1.9)
    scale = energy_efficiency(1.0, cfg)
    args = (cfg, [1.0, 10.0 ** 1.5, 1e4], CHUNK + 1000, 5, 3)
    request = dict(targets=("system",), modes=("ipsic", "psic"))
    throughput = montecarlo.mc_grid(*args, metric=f"throughput_{service}", **request)
    efficiency = montecarlo.mc_grid(*args, metric=f"ee_{service}", **request)
    for tp, ee in zip(throughput, efficiency):
        assert set(ee) == set(tp)
        for key, est in tp.items():
            assert ee[key] == montecarlo.McEstimate(
                mean=est.mean * scale, half_width_95=est.half_width_95 * scale,
                n=est.n, seed=est.seed, ci_low=est.ci_low * scale,
                ci_high=est.ci_high * scale)


def test_kind_requests_are_checked(baseline):
    """mc_grid refuses a request analytic_grid refuses, with the same
    message, and a baseline for a system metric."""
    with pytest.raises(ValueError, match="unknown metric 'latency'"):
        montecarlo.mc_grid(baseline, [1.0], 2000, 1, metric="latency", targets=(1,),
                           modes=("ipsic",))
    with pytest.raises(ValueError, match="cannot take target 'system'"):
        montecarlo.mc_grid(baseline, [1.0], 2000, 1, metric="outage",
                           targets=("system",), modes=("ipsic",))
    with pytest.raises(ValueError, match="cannot take target 1"):
        montecarlo.mc_grid(baseline, [1.0], 2000, 1, metric="ee_dt", targets=(1,),
                           modes=("ipsic",))
    with pytest.raises(ValueError, match="SIC mode must be one of"):
        montecarlo.mc_grid(baseline, [1.0], 2000, 1, metric="outage", targets=(1,),
                           modes=("sic",))
    for metric in ("throughput_dl", "throughput_dt", "ee_dl", "ee_dt"):
        with pytest.raises(ValueError, match="orthogonal baseline"):
            montecarlo.mc_grid(baseline, [1.0], 2000, 1, metric=metric,
                               targets=("system",), modes=("ipsic",), oma=True)
    for rhos in ([], [1.0, 0.0], [float("inf")], [[1.0]]):
        with pytest.raises(ValueError, match="rhos"):
            montecarlo.mc_grid(baseline, rhos, 2000, 1, metric="outage", targets=(1,),
                               modes=("ipsic",))


def _mc_columns_digest(runs):
    """sha256 over the mc_mean,mc_ci_low,mc_ci_high columns (header
    included) of the CSV of each (spec, config) run, in order."""
    digest = hashlib.sha256()
    for spec, cfg in runs:
        for line in render_csv(run_sweep(spec, cfg)).splitlines():
            digest.update((",".join(line.split(",")[6:9]) + "\n").encode())
    return digest.hexdigest()


def _mc_column_digest(name, n):
    """The Monte Carlo columns' digest of every CSV of the preset, n
    iterations, seed 11, default config."""
    preset = PRESETS[name]
    return _mc_columns_digest(
        (dataclasses.replace(preset, metric=variant.metric or preset.metric,
                             modes=("ipsic", "psic"), mc_iterations=n, master_seed=11),
         dataclasses.replace(SystemConfig(), **variant.overrides))
        for variant in preset.variants)


# At 2000 iterations, one block of one chunk.  Recorded when a sweep began
# reading one substream for its whole grid, and fig8 again when rates became
# A / (B + 1/rho) (its ee_dt cells moved by at most 3.5e-16 relative) and
# when the system rate became one logarithm of a product (by at most
# 2.3e-16).  fig6, the per-signal rates, was recorded before the half of
# each rate moved onto the moments, and holds since.  Any kernel change that
# moves one byte of a Monte Carlo column fails here.
MC_COLUMN_DIGESTS = {
    "fig3": "17c1268a17b858f0002a76c15f8d5f2b70adc7fd9c2363c52664b1597245f26c",
    "fig6": "6be3c89df54164b219cac4d0876eab48c6a6ac50a7855d5032d0afd9ae537978",
    "fig8": "4d3a23d7d609654759a01ebe366ad15ebe39ebd7679d96bb79c654d94700d50f",
}


@pytest.mark.parametrize("name", sorted(MC_COLUMN_DIGESTS))
def test_monte_carlo_columns_are_frozen(name):
    assert _mc_column_digest(name, 2000) == MC_COLUMN_DIGESTS[name]


# At 2 CHUNK + 1000 iterations: three chunks, the first two of many blocks.
# fig2 (with its baseline rows), fig3 and fig5 are counted metrics, recorded
# before statistics were taken per block, and hold since.  fig7's rate
# moments merge per block, and were recorded after that change (cells moved
# by at most 4.0e-16 relative) and again when the system rate became one
# logarithm of a product (by at most 2.0e-16).  fig6's per-signal rates were
# recorded before the half of each rate moved onto the moments.  fig4 and
# fig8 were recorded before the baseline's fades became rows of the link
# array.
MC_COLUMN_DIGESTS_PAST_ONE_BLOCK = {
    "fig2": "f60c8ceac3797bfb97aa2906b946efa79335c6c154a6a27721f2bdab500bcc41",
    "fig3": "ca49a3b965f17e28f115821c66ebac08b429446d70cf3d2ff6bca51a89125903",
    "fig4": "f46710e1c48844766ea4438eac83df2c4d6b28889a29a088dd235dd73158b3a2",
    "fig5": "69b3c26c20daa31d931dd429be651efb9cf65f2fcc7ab1222a497a9f47b3b0d0",
    "fig6": "1f0af0840c9b1a66c1af7833fcc6da90eae44815d409876f7cc1bf8dc14a5ccc",
    "fig7": "4ce39c7c0423c4a0da5323858df90b0ab5ff05767964a1345bd6877b660894e6",
    "fig8": "1c02aee4c1be0283370fa5cec90a2616305629c5ec0befaedd6051cc7c2d5f98",
}


@pytest.mark.parametrize("name", sorted(MC_COLUMN_DIGESTS_PAST_ONE_BLOCK))
def test_monte_carlo_columns_past_one_block_are_frozen(name):
    assert _mc_column_digest(name, 2 * CHUNK + 1000) == \
        MC_COLUMN_DIGESTS_PAST_ONE_BLOCK[name]


# The Monte Carlo columns of an ergodic_rate sweep of all four signals with
# the baseline: its per-signal and system rates, which no preset reads.
# Recorded before the baseline's fades became rows of the link array and its
# rates one array operation per SNR.
OMA_RATE_DIGESTS = {
    2000: "d0299f8406804dde325629416e4fff97d2d87dbcf3cbcbe5c3c5d00bb3ab6b00",
    2 * CHUNK + 1000: "2b68387059576f80070bd56037b926b4a1cf5b50ee130618900524b828296c8e",
}


@pytest.mark.parametrize("n", sorted(OMA_RATE_DIGESTS))
def test_baseline_rate_columns_are_frozen(n):
    spec = SweepSpec(metric="ergodic_rate", signals=(1, 2, 3, 4), modes=("ipsic", "psic"),
                     snr=(0.0, 50.0, 5.0), with_oma=True, mc_iterations=n, master_seed=11)
    assert _mc_columns_digest([(spec, SystemConfig())]) == OMA_RATE_DIGESTS[n]


# sha256 over the snr_db..asymptotic and feasible columns (header included)
# of every CSV of every preset, 2000 iterations, seed 11, asymptotes on,
# default config.  Recorded before metrics.analytic became the one route to
# the closed-form values; any change that moves one analytic byte fails here.
# fig6, fig7 and fig8 re-pinned when the weak rate moved to the trapezoid
# rule in ln x (their analytic cells moved by at most 5.8e-11 relative).
ANALYTIC_COLUMN_DIGESTS = {
    "fig2": "f92383b2a6a53df25a2b9b35a447b2704c4d6245a238081e981861ec361034fc",
    "fig3": "a12a45ba5ef9cddd82b9e1b06cc00df62285b07d066691063cd5da24e0441d42",
    "fig4": "aaacff51f61db58aaecefce87f61417b039d55505af87eb577d91c910c081290",
    "fig5": "0c284f6916253978ed9c81cc87206b6cbdca154187692eeeb249c88f56085f67",
    "fig6": "ec05fffb06d64ae7bd641bad974cfc03069cb3de12d529e780ebbdd708b2c334",
    "fig7": "4e5a8836ab0d3e1efffc8c2af3118e19aac03e91068882ce2a2b3dcf383f546a",
    "fig8": "234e1f0b7b4dfbb8d550cae8a08f9a5fda096cc42fb4312ca4e0ecd7f45929de",
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


# sha256 of the default-profile battery's report lines, newline-terminated
# as ``twrnoma validate`` prints them, default config, iterations and seed.
# The report is the second program surface whose bytes must not move;
# recorded before the SIC mode left SystemConfig, and re-pinned when the
# quadrature reference became the trapezoid rule in ln x (only the observed
# value of strong_rate_closed_vs_quadrature moved, 3.475e-14 to 1.354e-15),
# and again when the rate and baseline simulations joined the outage check's
# pass of point index 0 (rate_closed_vs_mc 5.422e-03 to 2.233e-03,
# oma_baseline_mc_vs_exact 7.352e-04 to 3.302e-04).
VALIDATE_REPORT_DIGEST = "b12b5bb3e9c1db76da57a7996a1ef85c5726cabddba535a722ebcc86fec05f32"


def test_validate_report_is_frozen():
    report = validate(SystemConfig(), "default", seed=DEFAULT_VALIDATE_SEED)
    text = "".join(line + "\n" for line in report.lines())
    assert hashlib.sha256(text.encode()).hexdigest() == VALIDATE_REPORT_DIGEST
