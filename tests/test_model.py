"""Configuration invariants and the instantaneous SINR expressions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twrnoma.model import (ChannelDraw, ConfigError, SignalIndex, SinrSet,
                           SystemConfig, gamma_threshold, sample_channel_draw,
                           sinr_set, sinr_sets)


def test_gamma_threshold_frozen_values():
    # 2^(2R) - 1 at the three target rates that appear in the defaults
    assert gamma_threshold(0.5) == pytest.approx(1.0, rel=1e-15)
    assert gamma_threshold(0.1) == pytest.approx(0.1486983549970351, rel=1e-14)
    assert gamma_threshold(0.01) == pytest.approx(0.013959479790029095, rel=1e-13)


def test_default_config_variances_follow_distance_law(baseline):
    assert baseline.omega(1) == pytest.approx(0.25)
    assert baseline.omega(2) == pytest.approx(0.01)
    assert baseline.omega(3) == pytest.approx(0.25)
    assert baseline.omega(4) == pytest.approx(0.01)


@pytest.mark.parametrize("kwargs,name", [
    (dict(d1=1e-200), "d1"),       # d^-alpha overflows
    (dict(d2=1e200), "d2"),        # d^-alpha underflows to zero
    (dict(d1=1e-5, alpha=100.0), "d1"),
    (dict(d2=10.0, alpha=400.0), "d2"),
])
def test_distance_law_gain_must_be_positive_and_finite(kwargs, name):
    with pytest.raises(ConfigError, match=f"{name}\\^-alpha"):
        SystemConfig(**kwargs)


@pytest.mark.parametrize("kwargs,fragment", [
    # the far users' downlink shares are 1 - b1 and 1 - b3, so b1 and b3
    # must lie in (0, 0.5) for the far user to get more power
    (dict(b1=0.7), "b1 must lie in"),
    (dict(b3=0.5), "b3 must lie in"),
    (dict(b1=math.nan), "b1 must lie in"),
    (dict(rho=-1.0), "rho must be positive"),
    (dict(omega_I=0.0), "omega_I must be positive"),
    (dict(varpi1=1.5), "varpi1 must lie in"),
    (dict(r2=-0.1), "r2 must be a finite rate"),
    (dict(sic_mode="perfect"), "sic_mode must be"),
    (dict(b1=0.0), "b1 must lie in"),
    (dict(b1=0.5), "b1 must lie in"),
    (dict(b3=0.0), "b3 must lie in"),
    (dict(b3=0.7), "b3 must lie in"),
    (dict(b3=math.nan), "b3 must lie in"),
    # 2^(2 r) - 1 overflows past r = 512, the baseline's 2^(5 r) - 1 earlier
    (dict(r1=600.0), "r1 = 600.0 is too large"),
    (dict(r3=300.0), "r3 = 300.0 is too large"),
])
def test_bad_configs_are_rejected_by_name(kwargs, fragment):
    with pytest.raises(ConfigError, match=fragment):
        SystemConfig(**kwargs)


def test_signal_index_pairings():
    assert SignalIndex.for_signal(1) == SignalIndex(1, 3, 2, 4)
    assert SignalIndex.for_signal(2) == SignalIndex(1, 3, 2, 4)
    assert SignalIndex.for_signal(3) == SignalIndex(3, 1, 4, 2)
    assert SignalIndex.for_signal(4) == SignalIndex(3, 1, 4, 2)
    # a strong signal is its index's l, a weak one its t
    for s in (1, 3):
        assert SignalIndex.for_signal(s).l == s
    for s in (2, 4):
        assert SignalIndex.for_signal(s).t == s
    with pytest.raises(ValueError):
        SignalIndex.for_signal(5)


def test_relay_sinr_hand_value():
    """Spot check against an arithmetic evaluation done by hand.

    rho=10, strong gain 0.5 at weight 0.8, in-pair interferer gain 0.1 at
    weight 0.2, no cross-pair leakage: 4 / (0.2 + 1) at the relay.
    """
    cfg = SystemConfig(rho=10.0, varpi1=0.0)
    draw = ChannelDraw(g1=0.5, g2=0.1, g3=0.9, g4=0.9, gI=0.3)
    s = sinr_set(cfg, draw, SignalIndex.for_signal(1))
    assert s.relay_strong == pytest.approx(4.0 / 1.2, rel=1e-15)


def test_mode_switch_property(baseline):
    assert baseline.epsilon == 1.0
    assert baseline.with_mode("psic").epsilon == 0.0
    assert baseline.with_rho(100.0).rho == 100.0


gains = st.floats(min_value=1e-3, max_value=10.0)


@given(g1=gains, g2=gains, g3=gains, g4=gains, gi=gains,
       rho=st.floats(min_value=0.01, max_value=1e4),
       factor=st.floats(min_value=1.01, max_value=100.0))
@settings(max_examples=200, deadline=None)
def test_every_sinr_grows_with_transmit_snr(g1, g2, g3, g4, gi, rho, factor):
    """With the channel draw held fixed, raising rho helps every branch."""
    draw = ChannelDraw(g1, g2, g3, g4, gi)
    idx = SignalIndex.for_signal(1)
    lo = sinr_set(SystemConfig(rho=rho), draw, idx)
    hi = sinr_set(SystemConfig(rho=rho * factor), draw, idx)
    for name in ("relay_strong", "relay_weak", "near_decodes_weak",
                 "near_decodes_own", "far_decodes_weak"):
        assert getattr(hi, name) >= getattr(lo, name)


@given(g1=gains, g2=gains, g3=gains, g4=gains, gi=gains)
@settings(max_examples=100, deadline=None)
def test_residual_interference_only_hurts(g1, g2, g3, g4, gi):
    draw = ChannelDraw(g1, g2, g3, g4, gi)
    idx = SignalIndex.for_signal(1)
    ip = sinr_set(SystemConfig(rho=100.0, sic_mode="ipsic"), draw, idx)
    p = sinr_set(SystemConfig(rho=100.0, sic_mode="psic"), draw, idx)
    assert ip.relay_weak <= p.relay_weak
    assert ip.near_decodes_own <= p.near_decodes_own
    # branches that do not carry the residual term are untouched
    assert ip.relay_strong == p.relay_strong
    assert ip.far_decodes_weak == p.far_decodes_weak


def _reference_sinrs(config, draw, idx):
    """The five SINRs written out once per mode, as a reference."""
    rho, eps = config.rho, config.epsilon
    a_l, a_k, a_t, a_r = (config.a(idx.l), config.a(idx.k),
                          config.a(idx.t), config.a(idx.r))
    b_l, b_t = config.b(idx.l), config.b(idx.t)
    g_l, g_k, g_t, g_r = (draw.gain(idx.l), draw.gain(idx.k),
                          draw.gain(idx.t), draw.gain(idx.r))
    cross = rho * config.varpi1 * (a_k * g_k + a_r * g_r)
    w2 = config.varpi2
    return SinrSet(
        rho * a_l * g_l / (rho * a_t * g_t + cross + 1.0),
        rho * a_t * g_t / (eps * rho * draw.gI + cross + 1.0),
        rho * g_k * b_t / (rho * g_k * b_l + rho * w2 * g_k + 1.0),
        rho * g_k * b_l / (eps * rho * draw.gI + rho * w2 * g_k + 1.0),
        rho * g_r * b_t / (rho * g_r * b_l + rho * w2 * g_r + 1.0))


@pytest.mark.parametrize("signal", [1, 3])
def test_sinr_sets_equal_the_per_mode_formulas(signal):
    """Every mode's set matches its own evaluation bit for bit, and the
    fields no SIC mode changes are one shared array."""
    cfg = SystemConfig(rho=10.0 ** 2.5, varpi1=0.05, varpi2=0.02)
    rng = np.random.default_rng(8)
    draw = sample_channel_draw(cfg, rng, size=5000)
    idx = SignalIndex.for_signal(signal)
    ip, p = sinr_sets(cfg, draw, idx, ("ipsic", "psic"))
    for mode, got in (("ipsic", ip), ("psic", p)):
        want = _reference_sinrs(cfg.with_mode(mode), draw, idx)
        for name in ("relay_strong", "relay_weak", "near_decodes_weak",
                     "near_decodes_own", "far_decodes_weak"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
    for name in ("relay_strong", "near_decodes_weak", "far_decodes_weak"):
        assert getattr(ip, name) is getattr(p, name)


def test_group_exchange_symmetry():
    """Swapping the two user pairs relabels the draw but not the physics."""
    cfg = SystemConfig(rho=50.0)
    draw = ChannelDraw(g1=0.4, g2=0.02, g3=0.7, g4=0.05, gI=0.2)
    swapped = ChannelDraw(g1=0.7, g2=0.05, g3=0.4, g4=0.02, gI=0.2)
    s1 = sinr_set(cfg, draw, SignalIndex.for_signal(1))
    s3 = sinr_set(cfg, swapped, SignalIndex.for_signal(3))
    assert s1 == s3


def test_channel_draw_gain_accessor():
    draw = ChannelDraw(0.1, 0.2, 0.3, 0.4, 0.5)
    assert [draw.gain(i) for i in (1, 2, 3, 4)] == [0.1, 0.2, 0.3, 0.4]
    assert math.isclose(draw.gI, 0.5)
