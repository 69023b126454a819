"""Configuration invariants and the instantaneous SINR expressions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twrnoma.analysis import outage_asymptotic, outage_probability
from twrnoma.ergodic import ergodic_rate_strong_closed, ergodic_rate_weak_numeric
from twrnoma.metrics import analytic_grid
from twrnoma.model import (SIC_MODES, ChannelDraw, ConfigError, SignalIndex,
                           SinrSet, SystemConfig, gamma_threshold,
                           sample_channel_draw, sic_epsilon, sinr_coefficients,
                           sinr_set)
from twrnoma.montecarlo import BLOCK, CHUNK, chunk_generator, mc_grid
from twrnoma.sweep import SweepSpec


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
    # a subnormal SNR: its reciprocal, which every SINR reads, overflows
    (dict(rho=1e-310), "rho must be positive with a finite reciprocal"),
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
    # the two pairings are built once, not per call
    assert SignalIndex.for_signal(1) is SignalIndex.for_signal(2)
    assert SignalIndex.for_signal(3) is SignalIndex.for_signal(4)


@pytest.mark.parametrize("lktr", [(1, 3, 4, 2), (3, 1, 2, 4), (1, 1, 2, 4), (1, 3, 2, 2)])
def test_signal_index_admits_only_the_two_pairings(lktr):
    """A strong pair with the other group's weak pair is no pairing of the
    model: x4 would become in-pair interference of x1."""
    with pytest.raises(ValueError, match=r"\(l, k, t, r\) must be one of"):
        SignalIndex(*lktr)


def test_relay_sinr_hand_value():
    """Spot check against an arithmetic evaluation done by hand.

    rho=10, strong gain 0.5 at weight 0.8, in-pair interferer gain 0.1 at
    weight 0.2, no cross-pair leakage: 4 / (0.2 + 1) at the relay.
    """
    cfg = SystemConfig(rho=10.0, varpi1=0.0)
    draw = ChannelDraw(g1=0.5, g2=0.1, g3=0.9, g4=0.9, gI=0.3)
    s = sinr_set(cfg, draw, SignalIndex.for_signal(1), "ipsic")
    assert s.relay_strong == pytest.approx(4.0 / 1.2, rel=1e-15)


def test_mode_switch_property(baseline):
    assert SIC_MODES == ("ipsic", "psic")
    assert sic_epsilon("ipsic") == 1.0
    assert sic_epsilon("psic") == 0.0
    assert baseline.with_rho(100.0).rho == 100.0


_NO_LEAKAGE = SystemConfig(rho=100.0, varpi1=0.0, varpi2=0.0)
_DRAW = ChannelDraw(g1=0.5, g2=0.1, g3=0.9, g4=0.2, gI=0.3)


@pytest.mark.parametrize("route", [
    lambda mode: outage_probability(_NO_LEAKAGE, 1, mode),
    lambda mode: outage_asymptotic(_NO_LEAKAGE, 2, mode),
    lambda mode: analytic_grid(_NO_LEAKAGE, (100.0,), "outage", (1,), (mode,)),
    lambda mode: ergodic_rate_strong_closed(_NO_LEAKAGE, SignalIndex.for_signal(1), mode),
    lambda mode: ergodic_rate_weak_numeric(_NO_LEAKAGE, SignalIndex.for_signal(2), mode),
    lambda mode: sinr_set(_NO_LEAKAGE, _DRAW, SignalIndex.for_signal(1), mode),
    lambda mode: mc_grid(_NO_LEAKAGE, [1.0], 1000, 1, metric="outage", targets=(1,),
                         modes=(mode,)),
    lambda mode: SweepSpec(modes=(mode,)),
], ids=["outage_probability", "outage_asymptotic", "analytic_grid",
        "ergodic_rate_strong_closed", "ergodic_rate_weak_numeric", "sinr_set",
        "mc_grid", "SweepSpec"])
def test_every_route_refuses_an_unknown_sic_mode(route):
    """Every route that depends on the SIC mode takes it as an argument and
    refuses a name outside SIC_MODES with sic_epsilon's one message."""
    with pytest.raises(ConfigError) as info:
        route("perfect")
    assert str(info.value) == "SIC mode must be one of ('ipsic', 'psic'), got 'perfect'"


gains = st.floats(min_value=1e-3, max_value=10.0)


@given(g1=gains, g2=gains, g3=gains, g4=gains, gi=gains,
       rho=st.floats(min_value=0.01, max_value=1e4),
       factor=st.floats(min_value=1.01, max_value=100.0))
@settings(max_examples=200, deadline=None)
def test_every_sinr_grows_with_transmit_snr(g1, g2, g3, g4, gi, rho, factor):
    """With the channel draw held fixed, raising rho helps every branch."""
    draw = ChannelDraw(g1, g2, g3, g4, gi)
    idx = SignalIndex.for_signal(1)
    lo = sinr_set(SystemConfig(rho=rho), draw, idx, "ipsic")
    hi = sinr_set(SystemConfig(rho=rho * factor), draw, idx, "ipsic")
    for name in ("relay_strong", "relay_weak", "near_decodes_weak",
                 "near_decodes_own", "far_decodes_weak"):
        assert getattr(hi, name) >= getattr(lo, name)


@given(g1=gains, g2=gains, g3=gains, g4=gains, gi=gains)
@settings(max_examples=100, deadline=None)
def test_residual_interference_only_hurts(g1, g2, g3, g4, gi):
    draw = ChannelDraw(g1, g2, g3, g4, gi)
    idx = SignalIndex.for_signal(1)
    cfg = SystemConfig(rho=100.0)
    ip = sinr_set(cfg, draw, idx, "ipsic")
    p = sinr_set(cfg, draw, idx, "psic")
    assert ip.relay_weak <= p.relay_weak
    assert ip.near_decodes_own <= p.near_decodes_own
    # branches that do not carry the residual term are untouched
    assert ip.relay_strong == p.relay_strong
    assert ip.far_decodes_weak == p.far_decodes_weak


def _reference_sinrs(config, draw, idx, mode):
    """The five SINRs written out once per mode, as a reference."""
    rho, eps = config.rho, {"ipsic": 1.0, "psic": 0.0}[mode]
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
def test_sinr_set_equals_the_per_mode_formulas(signal):
    """Under each SIC mode the set matches its own written-out evaluation
    bit for bit."""
    cfg = SystemConfig(rho=10.0 ** 2.5, varpi1=0.05, varpi2=0.02)
    rng = np.random.default_rng(8)
    draw = sample_channel_draw(cfg, rng, size=5000)
    idx = SignalIndex.for_signal(signal)
    for mode in ("ipsic", "psic"):
        got = sinr_set(cfg, draw, idx, mode)
        want = _reference_sinrs(cfg, draw, idx, mode)
        for name in ("relay_strong", "relay_weak", "near_decodes_weak",
                     "near_decodes_own", "far_decodes_weak"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("varpi", [0.0, 0.05])
@pytest.mark.parametrize("signal", [1, 3])
def test_sinr_coefficients_give_each_chain_at_any_snr(signal, varpi):
    """A / (B + 1/rho), least over a chain's decodes, is that chain's SINR
    from sinr_set at every rho, both modes; the mode-free pairs and the
    arrays no mode changes are shared."""
    cfg = SystemConfig(varpi1=varpi, varpi2=varpi)
    draw = sample_channel_draw(cfg, np.random.default_rng(3), size=5000)
    idx = SignalIndex.for_signal(signal)
    modes = ("ipsic", "psic")
    mode_free, per_mode = sinr_coefficients(cfg, draw, idx, modes)
    assert per_mode[0][0][0] is per_mode[1][0][0]       # b_l g_k
    assert per_mode[0][1][0] is per_mode[1][1][0]       # a_t g_t
    for rho in (0.1, 10.0 ** 1.5, 1e6):
        for mode, decodes in zip(modes, per_mode):
            v = sinr_set(cfg.with_rho(rho), draw, idx, mode)
            wants = (np.minimum(v.relay_strong, v.near_decodes_own),
                     np.minimum(np.minimum(v.relay_weak, v.near_decodes_weak),
                                v.far_decodes_weak))
            for want, free, own in zip(wants, mode_free, decodes):
                got = np.minimum(*(a / (b + 1.0 / rho) for a, b in (free, own)))
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_group_exchange_symmetry():
    """Swapping the two user pairs relabels the draw but not the physics."""
    cfg = SystemConfig(rho=50.0)
    draw = ChannelDraw(g1=0.4, g2=0.02, g3=0.7, g4=0.05, gI=0.2)
    swapped = ChannelDraw(g1=0.7, g2=0.05, g3=0.4, g4=0.02, gI=0.2)
    s1 = sinr_set(cfg, draw, SignalIndex.for_signal(1), "ipsic")
    s3 = sinr_set(cfg, swapped, SignalIndex.for_signal(3), "ipsic")
    assert s1 == s3


@pytest.mark.parametrize("omega_I", [1e-2, 1e-1, 1.0])
@pytest.mark.parametrize("size", [1, BLOCK + 3, CHUNK])
def test_channel_draw_equals_per_gain_exponentials(omega_I, size):
    """One scaled standard-exponential call is, bit for bit, the five
    per-gain exponential(Omega, size) calls in gain order, at every Omega a
    preset uses, and leaves the stream where they leave it."""
    cfg = SystemConfig(omega_I=omega_I)
    stream, reference = chunk_generator(7, 0, 3), chunk_generator(7, 0, 3)
    draw = sample_channel_draw(cfg, stream, size)
    means = [cfg.omega(1), cfg.omega(2), cfg.omega(3), cfg.omega(4), omega_I]
    for gain, mean in zip((draw.g1, draw.g2, draw.g3, draw.g4, draw.gI), means):
        expected = reference.exponential(mean, size)
        assert type(gain) is type(expected)
        assert np.array_equal(gain, expected)
    assert stream.random() == reference.random()


def test_channel_draw_gain_accessor():
    draw = ChannelDraw(0.1, 0.2, 0.3, 0.4, 0.5)
    assert [draw.gain(i) for i in (1, 2, 3, 4)] == [0.1, 0.2, 0.3, 0.4]
    assert math.isclose(draw.gI, 0.5)
