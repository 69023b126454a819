"""Throughput and energy-efficiency bookkeeping."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twrnoma.analysis import outage_probability
from twrnoma.ergodic import ergodic_rate_weak_numeric
from twrnoma.metrics import (analytic, energy_efficiency,
                             throughput_delay_limited,
                             throughput_delay_tolerant)
from twrnoma.model import SystemConfig
from twrnoma.montecarlo import mc_outage


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
        analytic(baseline, metric, target, "ipsic")


def test_analytic_rate_is_the_leakage_free_closed_form(baseline):
    """The rate route ignores the configured leakage, and the
    delay-tolerant throughput sums exactly those four rates."""
    cfg = baseline.with_rho(1e3)
    assert cfg.varpi1 > 0.0 and cfg.varpi2 > 0.0
    total = analytic(cfg, "throughput_dt", "system", "ipsic")[0]
    assert total == pytest.approx(_dt_system(1e3, "ipsic"), rel=1e-12)
    assert total == sum(analytic(cfg, "ergodic_rate", s, "ipsic")[0]
                        for s in (1, 2, 3, 4))


def test_analytic_energy_efficiency_rescales_throughput(baseline):
    cfg = baseline.with_rho(1e2)
    for base, ee in (("throughput_dl", "ee_dl"), ("throughput_dt", "ee_dt")):
        t, t_asym, _ = analytic(cfg, base, "system", "ipsic", asymptotic=True)
        e, e_asym, _ = analytic(cfg, ee, "system", "ipsic", asymptotic=True)
        assert e == pytest.approx(energy_efficiency(t, cfg), rel=1e-14)
        assert e_asym == pytest.approx(energy_efficiency(t_asym, cfg), rel=1e-14)
