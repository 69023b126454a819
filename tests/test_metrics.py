"""Throughput and energy-efficiency bookkeeping."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twrnoma import analysis, ergodic, montecarlo
from twrnoma.analysis import outage_probability
from twrnoma.configio import PRESETS
from twrnoma.ergodic import QuadratureError, ergodic_rate_weak_numeric
from twrnoma.metrics import (METRICS, PER_SIGNAL, SIGNALS, analytic_grid, energy_efficiency,
                             throughput_delay_limited,
                             throughput_delay_tolerant)
from twrnoma.model import SIC_MODES, SystemConfig
from twrnoma.montecarlo import mc_grid, mc_outage


def test_total_outage_means_zero_throughput():
    t = throughput_delay_limited((1.0, 1.0, 1.0, 1.0), (0.1, 0.01, 0.1, 0.01))
    assert t == 0.0


def test_no_outage_recovers_rate_sum(baseline):
    rates = (baseline.r1, baseline.r2, baseline.r3, baseline.r4)
    t = throughput_delay_limited((0.0, 0.0, 0.0, 0.0), rates)
    assert t == pytest.approx(0.22, rel=1e-12)
    assert energy_efficiency(t, baseline) == pytest.approx(0.022, rel=1e-12)


def test_energy_scales_inversely_with_power(baseline):
    t = throughput_delay_limited((0.0, 0.0, 0.0, 0.0),
                                 (0.1, 0.01, 0.1, 0.01))
    doubled = SystemConfig(pu_watts=20.0, pr_watts=20.0)
    assert energy_efficiency(t, baseline) == pytest.approx(
        2.0 * energy_efficiency(t, doubled), rel=1e-12)
    assert energy_efficiency(0.22, baseline) == pytest.approx(0.022, rel=1e-12)


def test_input_validation():
    with pytest.raises(ValueError, match="outage probabilities for"):
        throughput_delay_limited((0.1, 0.2), (0.1,))
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        throughput_delay_limited((1.2,), (0.1,))
    with pytest.raises(ValueError, match="negative"):
        throughput_delay_limited((0.5,), (-0.1,))
    with pytest.raises(ValueError, match="negative"):
        throughput_delay_tolerant((0.3, -0.2))
    with pytest.raises(ValueError, match="positive"):
        energy_efficiency(1.0, _bad_power())


def _bad_power():
    # sneak past construction-time validation to exercise the local guard
    cfg = SystemConfig()
    object.__setattr__(cfg, "pu_watts", 0.0)
    return cfg


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0),
                          st.floats(min_value=0.0, max_value=5.0)),
                min_size=1, max_size=6))
@settings(max_examples=120, deadline=None)
def test_outage_can_only_reduce_throughput(pairs):
    outages = [p for p, _ in pairs]
    rates = [r for _, r in pairs]
    t = throughput_delay_limited(outages, rates)
    assert t <= sum(rates) + 1e-12
    assert t >= 0.0
    assert t == pytest.approx(sum((1.0 - p) * r for p, r in pairs),
                              rel=1e-12, abs=1e-12)


def test_delay_tolerant_sums_rates():
    t = throughput_delay_tolerant((0.2, 0.01, 0.2, 0.01))
    assert t == pytest.approx(0.42, rel=1e-12)


def _dt_system(rho, mode):
    cfg = SystemConfig(rho=rho, varpi1=0.0, varpi2=0.0)
    from twrnoma.ergodic import ergodic_rate_strong_closed
    from twrnoma.model import SignalIndex
    total = 0.0
    for s in (1, 2, 3, 4):
        idx = SignalIndex.for_signal(s)
        if s in (1, 3):
            total += ergodic_rate_strong_closed(cfg, idx, mode)
        else:
            total += ergodic_rate_weak_numeric(cfg, idx, mode)
    return total


def test_delay_tolerant_throughput_saturates():
    """Both SIC modes flatten out in the interference-dominated region;
    between 50 and 60 dB the total moves by under two percent."""
    for mode in ("ipsic", "psic"):
        t50 = _dt_system(1e5, mode)
        t60 = _dt_system(1e6, mode)
        assert abs(t60 - t50) / t50 < 0.02


def test_high_snr_energy_ordering(baseline):
    """Perfect SIC can only help the delay-tolerant energy efficiency."""
    for rho in (1e3, 1e5):
        ip = energy_efficiency(_dt_system(rho, "ipsic"), baseline)
        p = energy_efficiency(_dt_system(rho, "psic"), baseline)
        assert p >= ip


def test_throughput_from_closed_outage_matches_simulation(baseline):
    """Cross-stack check at 30 dB: feed the delay-limited throughput once
    with closed-form outage and once with simulated outage."""
    cfg = baseline.with_rho(1e3)
    rates = (cfg.r1, cfg.r2, cfg.r3, cfg.r4)
    closed = [outage_probability(cfg, s, "ipsic").p_exact for s in (1, 2, 3, 4)]
    ests = [mc_outage(cfg, s, "ipsic", 200_000, 77) for s in (1, 2, 3, 4)]
    t_closed = throughput_delay_limited(closed, rates)
    t_mc = throughput_delay_limited([e.mean for e in ests], rates)
    budget = sum(r * e.half_width_95 for r, e in zip(rates, ests))
    assert abs(t_closed - t_mc) <= budget + 1e-4


def _one(config, rho, metric, target, mode, asymptotic=False):
    """(value, asymptote, feasible) of one target and mode at one SNR: a
    one-point ``analytic_grid`` call."""
    return analytic_grid(config, (rho,), metric, (target,), (mode,),
                         asymptotic)[0][mode, target]


@pytest.mark.parametrize("metric, target, match", [
    ("latency", 1, "unknown metric"),
    ("throughput_dl", 1, "'system'"),
    ("throughput_dt", 3, "'system'"),
    ("ee_dl", 2, "'system'"),
    ("ee_dt", 4, "'system'"),
    ("outage", "system", "signal 1..4"),
    ("ergodic_rate", "system", "signal 1..4"),
])
def test_analytic_rejects_a_target_the_metric_does_not_take(baseline, metric,
                                                             target, match):
    with pytest.raises(ValueError, match=match):
        _one(baseline, 10.0, metric, target, "ipsic")


def test_analytic_rate_is_the_leakage_free_closed_form(baseline):
    """The rate route ignores the configured leakage, and the
    delay-tolerant throughput sums exactly those four rates."""
    assert baseline.varpi1 > 0.0 and baseline.varpi2 > 0.0
    total = _one(baseline, 1e3, "throughput_dt", "system", "ipsic")[0]
    assert total == pytest.approx(_dt_system(1e3, "ipsic"), rel=1e-12)
    assert total == sum(_one(baseline, 1e3, "ergodic_rate", s, "ipsic")[0]
                        for s in (1, 2, 3, 4))


def test_analytic_energy_efficiency_rescales_throughput(baseline):
    for base, ee in (("throughput_dl", "ee_dl"), ("throughput_dt", "ee_dt")):
        t, t_asym, _ = _one(baseline, 1e2, base, "system", "ipsic", asymptotic=True)
        e, e_asym, _ = _one(baseline, 1e2, ee, "system", "ipsic", asymptotic=True)
        assert e == pytest.approx(energy_efficiency(t, baseline), rel=1e-14)
        assert e_asym == pytest.approx(energy_efficiency(t_asym, baseline), rel=1e-14)


def _targets(metric):
    return (1, 2, 3, 4) if metric in PER_SIGNAL else ("system",)


def _bits(value):
    """A cell's floats as their hex strings, so that == compares every bit."""
    return tuple(v.hex() if isinstance(v, float) else v for v in value)


def _per_point(config, rhos, metric, targets, modes, asymptotic):
    return [{(mode, t): _bits(_one(config, rho, metric, t, mode, asymptotic))
             for mode in modes for t in targets} for rho in rhos]


def _grid(config, rhos, metric, targets, modes, asymptotic):
    return [{key: _bits(value) for key, value in point.items()}
            for point in analytic_grid(config, rhos, metric, targets, modes, asymptotic)]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_analytic_grid_equals_the_per_point_route_bit_for_bit(name):
    """Every preset variant and metric, both modes, asymptotes on and off,
    over the preset grid and -30 and 90 dB, against one-point grids of one
    target and mode each: sharing intermediates across signals and modes
    and the weak integrals across the grid moves no bit."""
    preset = PRESETS[name]
    rhos = [10.0 ** (db / 10.0) for db in preset.grid_db() + [-30.0, 90.0]]
    for variant in preset.variants:
        cfg = dataclasses.replace(SystemConfig(), **variant.overrides)
        for metric in METRICS:
            for asymptotic in (False, True):
                args = (rhos, metric, _targets(metric), SIC_MODES, asymptotic)
                assert _grid(cfg, *args) == _per_point(cfg, *args), (metric, asymptotic)


@pytest.mark.parametrize("metric", METRICS)
def test_analytic_grid_does_not_read_the_config_rho(baseline, metric):
    rhos = [1.0, 10.0 ** 1.5, 1e4]
    args = (rhos, metric, _targets(metric), SIC_MODES, True)
    assert _grid(baseline.with_rho(123.4), *args) == _grid(baseline, *args)


def test_analytic_grid_reports_an_infeasible_power_split():
    """r1 = 3 sets gamma_th = 63, so den_tau = b1 - varpi2 gamma_th < 0: the
    strong x1 decode fails at every SNR, and so does the system."""
    cfg = SystemConfig(r1=3.0)
    rhos = [1.0, 1e3, 1e6]
    for point in analytic_grid(cfg, rhos, "outage", (1, 2), SIC_MODES, True):
        for mode in SIC_MODES:
            assert point[mode, 1] == (1.0, 1.0, False)
            assert point[mode, 2][2]
    for metric in ("throughput_dl", "ee_dl"):
        for point in analytic_grid(cfg, rhos, metric, ("system",), SIC_MODES):
            assert not any(point[mode, "system"][2] for mode in SIC_MODES)


@pytest.mark.parametrize("rhos, metric, targets, message", [
    *(pytest.param(rhos, "outage", (1,), "nonempty list of positive SNRs", id=f"rhos{i}")
      for i, rhos in enumerate([[], [1e-310], [0.0], [-1.0], [math.inf], [math.nan],
                                [10.0, 1e-310]])),
    pytest.param([10.0], "latency", (1,), "unknown metric 'latency'", id="metric"),
    pytest.param([10.0], "outage", ("system",), "cannot take target 'system'",
                 id="system_target"),
    pytest.param([10.0], "ee_dl", (2,), "cannot take target 2", id="signal_target"),
])
def test_analytic_grid_refuses_what_mc_grid_refuses(baseline, rhos, metric, targets,
                                                    message):
    """One request check serves both grids: the same refusal, word for word."""
    with pytest.raises(ValueError, match=message) as analytic:
        analytic_grid(baseline, rhos, metric, targets, ("ipsic",))
    with pytest.raises(ValueError, match=message) as simulated:
        mc_grid(baseline, rhos, 1000, 1, metric=metric, targets=targets,
                modes=("ipsic",))
    assert str(simulated.value) == str(analytic.value)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_mc_grid_keys_its_estimates_as_analytic_grid_does(name):
    """Every preset variant's request, with its baseline where the preset
    draws one: the two grids answer under the same (mode, target) keys, and
    the baseline adds ("oma", target) keys only."""
    preset = PRESETS[name]
    rhos = [10.0 ** (db / 10.0) for db in preset.grid_db()[:2]]
    for variant in preset.variants:
        cfg = dataclasses.replace(SystemConfig(), **variant.overrides)
        metric = variant.metric or preset.metric
        targets = preset.signals if metric in PER_SIGNAL else ("system",)
        oma = preset.with_oma and metric in PER_SIGNAL
        values = analytic_grid(cfg, rhos, metric, targets, preset.modes)
        ests = mc_grid(cfg, rhos, 1000, 1, metric=metric, targets=targets,
                       modes=preset.modes, oma=oma)
        for point_values, point_ests in zip(values, ests):
            noma = {key for key in point_ests if key[0] != "oma"}
            assert noma == set(point_values)
            assert (len(point_ests) > len(noma)) == oma


_MODE_SETS = [(), ("ipsic",), ("psic",), SIC_MODES]


@pytest.mark.parametrize("metric", METRICS)
def test_both_grids_answer_exactly_the_keys_asked_for(baseline, metric):
    """Every mode set and target set, the empty ones too: both grids answer
    (mode, target) for each mode and target and nothing else; the baseline
    adds ("oma", t) for each signal target and ("oma", "system")."""
    per_signal = metric in PER_SIGNAL
    rhos = [10.0, 1e3]
    for modes in _MODE_SETS:
        for targets in [(), (1,), (4, 2), (1, 2, 3, 4)] if per_signal else [(), ("system",)]:
            asked = {(mode, t) for mode in modes for t in targets}
            for point in analytic_grid(baseline, rhos, metric, targets, modes):
                assert set(point) == asked, (modes, targets)
            for oma in (False, True) if per_signal else (False,):
                extra = {("oma", t) for t in targets + ("system",)} if oma else set()
                for point in mc_grid(baseline, rhos, 1000, 1, metric=metric,
                                     targets=targets, modes=modes, oma=oma):
                    assert set(point) == asked | extra, (modes, targets, oma)


@pytest.mark.parametrize("metric", METRICS)
def test_a_repeated_target_or_mode_is_asked_once(baseline, metric):
    """Both grids answer a request that repeats a target and a mode as
    they answer it without the repeats; every grid SNR keeps its own
    estimate."""
    rhos = [1.0, 1e4]
    target = 1 if metric in PER_SIGNAL else "system"
    once = dict(metric=metric, targets=(target,), modes=("ipsic",))
    twice = dict(metric=metric, targets=(target, target), modes=("ipsic", "ipsic"))
    assert analytic_grid(baseline, rhos, **twice) == analytic_grid(baseline, rhos, **once)
    assert mc_grid(baseline, rhos, 1000, 1, **twice) == mc_grid(baseline, rhos, 1000, 1,
                                                                **once)


@pytest.mark.parametrize("metric", [m for m in METRICS if m not in PER_SIGNAL])
def test_a_system_metric_without_targets_draws_no_channel(baseline, metric, monkeypatch):
    """No "system" target, no answer: an empty dict per SNR from both grids,
    and no channel draw; the same request for "system" draws."""
    draws = []
    original = montecarlo.sample_channel_draw

    def counting(*args, **kwargs):
        draws.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "sample_channel_draw", counting)
    rhos = [1.0, 10.0, 100.0]
    assert analytic_grid(baseline, rhos, metric, (), SIC_MODES) == [{}, {}, {}]
    assert mc_grid(baseline, rhos, 1000, 1, metric=metric, targets=(),
                   modes=SIC_MODES) == [{}, {}, {}]
    assert draws == []
    mc_grid(baseline, rhos, 1000, 1, metric=metric, targets=("system",), modes=SIC_MODES)
    assert len(draws) == 1


@pytest.mark.parametrize("metric", PER_SIGNAL)
def test_a_baseline_for_two_signals_builds_no_statistics_of_the_others(metric,
                                                                      monkeypatch):
    """fig2's request names x1 and x2: every block's baseline statistics
    hold those two and the system, none of x3 or x4."""
    built = []
    original = montecarlo._oma_stats

    def recording(*args):
        stats = original(*args)
        built.append(set(stats))
        return stats

    monkeypatch.setattr(montecarlo, "_oma_stats", recording)
    preset = PRESETS["fig2"]
    mc_grid(SystemConfig(), [1.0, 10.0], 3 * montecarlo.BLOCK, 1, metric=metric,
            targets=preset.signals, modes=preset.modes, oma=True)
    assert preset.signals == (1, 2) and len(built) == 3
    assert all(keys == {("oma", 1), ("oma", 2), ("oma", "system")} for keys in built)


_shares = st.floats(min_value=0.05, max_value=1.0)


@st.composite
def _configs(draw):
    leak = st.sampled_from([0.0, 0.01, 0.1])
    return SystemConfig(
        a1=draw(_shares), a2=draw(_shares), a3=draw(_shares), a4=draw(_shares),
        b1=draw(st.floats(min_value=0.02, max_value=0.48)),
        b3=draw(st.floats(min_value=0.02, max_value=0.48)),
        varpi1=draw(leak), varpi2=draw(leak),
        omega_I=draw(st.floats(min_value=1e-3, max_value=1.0)),
        d1=draw(st.floats(min_value=0.5, max_value=5.0)),
        d2=draw(st.floats(min_value=1.0, max_value=20.0)),
        r1=draw(st.floats(min_value=0.0, max_value=0.5)),
        r2=draw(st.floats(min_value=0.0, max_value=0.5)),
        r3=draw(st.floats(min_value=0.0, max_value=0.5)),
        r4=draw(st.floats(min_value=0.0, max_value=0.5)))


@given(cfg=_configs(),
       dbs=st.lists(st.floats(min_value=-30.0, max_value=90.0), min_size=1, max_size=5),
       metric=st.sampled_from(METRICS),
       modes=st.sampled_from([("ipsic",), ("psic",), SIC_MODES]),
       asymptotic=st.booleans())
@settings(max_examples=60, deadline=None)
def test_analytic_grid_equals_the_per_point_route_on_random_configs(cfg, dbs, metric,
                                                                  modes, asymptotic):
    rhos = [10.0 ** (db / 10.0) for db in dbs]
    args = (rhos, metric, _targets(metric), modes, asymptotic)
    try:
        expected = _per_point(cfg, *args)
    except (ValueError, QuadratureError) as exc:
        with pytest.raises(type(exc)):
            analytic_grid(cfg, *args)
        return
    assert _grid(cfg, *args) == expected


_MIRROR_RHOS = [0.1, 10.0, 1e3, 1e5]


@pytest.mark.parametrize("metric", PER_SIGNAL)
@pytest.mark.parametrize("field, value", [("a3", 0.7), ("b3", 0.3), ("r3", 0.05)],
                         ids=["a1!=a3", "b1!=b3", "r1!=r3"])
def test_an_asymmetric_pairing_is_formed_not_copied(metric, field, value):
    """With x3/x4's pairing unlike x1/x2's, their cells are those of a grid
    that asks for x3 or x4 alone, and differ from x1's and x2's, except
    that no rate reads a target rate: there r3 leaves every rate as is."""
    config = SystemConfig(**{field: value})
    grid = analytic_grid(config, _MIRROR_RHOS, metric, SIGNALS, SIC_MODES, True)
    for s in (3, 4):
        alone = analytic_grid(config, _MIRROR_RHOS, metric, (s,), SIC_MODES, True)
        assert [[repr(p[mode, s]) for mode in SIC_MODES] for p in grid] == [
            [repr(p[mode, s]) for mode in SIC_MODES] for p in alone]
    mirrored = [p[mode, s] == p[mode, s - 2] for p in grid for mode in SIC_MODES
                for s in (3, 4)]
    assert all(mirrored) if (metric, field) == ("ergodic_rate", "r3") else not all(mirrored)


@pytest.mark.parametrize("metric", METRICS)
def test_mirror_reuse_changes_no_bit(metric, monkeypatch):
    """In the default config x3 and x4 equal x1 and x2 bit for bit, and the
    copied cells give every metric, the four system ones included, the bits
    of a grid that forms each signal itself."""
    config = SystemConfig()
    targets = SIGNALS if metric in PER_SIGNAL else ("system",)
    reused = analytic_grid(config, _MIRROR_RHOS, metric, targets, SIC_MODES, True)
    for module in (analysis, ergodic):
        monkeypatch.setattr(module, "mirror_sources",
                            lambda config, signals: {s: s for s in signals})
    formed = analytic_grid(config, _MIRROR_RHOS, metric, targets, SIC_MODES, True)
    assert repr(reused) == repr(formed)
    if metric in PER_SIGNAL:
        for point in formed:
            for mode in SIC_MODES:
                assert repr(point[mode, 3]) == repr(point[mode, 1])
                assert repr(point[mode, 4]) == repr(point[mode, 2])
