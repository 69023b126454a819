"""Throughput and energy-efficiency bookkeeping."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twrnoma.analysis import outage_probability
from twrnoma.configio import PRESETS
from twrnoma.ergodic import QuadratureError, ergodic_rate_weak_numeric
from twrnoma.metrics import (METRICS, analytic_grid, energy_efficiency,
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
    return (1, 2, 3, 4) if metric in ("outage", "ergodic_rate") else ("system",)


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


@pytest.mark.parametrize("rhos", [[], [1e-310], [0.0], [-1.0], [math.inf],
                                  [math.nan], [10.0, 1e-310]])
def test_analytic_grid_refuses_what_mc_grid_refuses(baseline, rhos):
    with pytest.raises(ValueError, match="nonempty list of positive SNRs"):
        analytic_grid(baseline, rhos, "outage", (1,), ("ipsic",))
    with pytest.raises(ValueError, match="nonempty list of positive SNRs"):
        mc_grid(baseline, rhos, 1000, 1, kind="outage", modes=("ipsic",))


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
