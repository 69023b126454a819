"""Closed-form outage probabilities against frozen reference numbers.

The reference table was produced by an independent straight-line
evaluation of the outage expressions (moment generating function route)
before this module existed, then cross-checked against Monte Carlo at
10^6 draws.  Values are pinned to five decimals.
"""

import math

import mpmath
import pytest

from twrnoma.analysis import (compute_outage_intermediates,
                              diversity_order_estimate, outage_asymptotic,
                              outage_probability)
from twrnoma.model import SignalIndex, SystemConfig, gamma_threshold

# (snr_db, signal, SIC mode) -> outage probability
OUTAGE_TABLE = {
    (0, 1, "ipsic"): 0.97700, (0, 1, "psic"): 0.97631,
    (10, 1, "ipsic"): 0.33401, (10, 1, "psic"): 0.31406,
    (20, 1, "ipsic"): 0.06752, (20, 1, "psic"): 0.03958,
    (25, 1, "ipsic"): 0.04337, (25, 1, "psic"): 0.01470,
    (30, 1, "ipsic"): 0.03560, (30, 1, "psic"): 0.00670,
    (40, 1, "ipsic"): 0.03235, (40, 1, "psic"): 0.00335,
    (10, 2, "ipsic"): 0.64657, (10, 2, "psic"): 0.62186,
    (25, 2, "ipsic"): 0.10843, (25, 2, "psic"): 0.04611,
    (40, 2, "ipsic"): 0.08196, (40, 2, "psic"): 0.01778,
}

# residual outage floors in the infinite-SNR limit
FLOOR_TABLE = {
    (1, "ipsic"): 0.03199, (1, "psic"): 0.00298,
    (2, "ipsic"): 0.08108, (2, "psic"): 0.01685,
}


@pytest.mark.parametrize("key,expected", sorted(OUTAGE_TABLE.items()))
def test_outage_frozen_table(key, expected):
    snr_db, signal, mode = key
    cfg = SystemConfig(rho=10.0 ** (snr_db / 10.0))
    res = outage_probability(cfg, signal, mode)
    assert res.feasible
    assert res.p_exact == pytest.approx(expected, abs=2e-5)


@pytest.mark.parametrize("key,expected", sorted(FLOOR_TABLE.items()))
def test_outage_floor_frozen_table(key, expected):
    signal, mode = key
    cfg = SystemConfig(rho=1e4)
    asym = outage_asymptotic(cfg, signal, mode)
    assert asym.floor == pytest.approx(expected, abs=1e-4)
    assert asym.in_unit_interval


def test_stored_asymptote_matches_dedicated_entry_point(baseline):
    for signal in (1, 2):
        for mode in ("ipsic", "psic"):
            cfg = baseline.with_rho(316.0)
            res = outage_probability(cfg, signal, mode)
            assert res.p_asymptotic == outage_asymptotic(cfg, signal, mode).value


def test_group_relabeling_symmetry(baseline):
    """Signals 3 and 4 are the mirrored pair; identical parameters give
    identical outage."""
    for rho in (1.0, 100.0, 1e4):
        cfg = baseline.with_rho(rho)
        assert outage_probability(cfg, 3, "ipsic").p_exact == pytest.approx(
            outage_probability(cfg, 1, "ipsic").p_exact, rel=1e-12)
        assert outage_probability(cfg, 4, "ipsic").p_exact == pytest.approx(
            outage_probability(cfg, 2, "ipsic").p_exact, rel=1e-12)


def _raw_uplink_rates(cfg, idx):
    # rebuilt from the config fields, independent of the intermediates
    rho = cfg.rho
    return (1.0 / (rho * cfg.a(idx.t) * cfg.omega(idx.t)),
            1.0 / (rho * cfg.varpi1 * cfg.a(idx.k) * cfg.omega(idx.k)),
            1.0 / (rho * cfg.varpi1 * cfg.a(idx.r) * cfg.omega(idx.r)))


def _mgf_route(cfg, idx):
    s = gamma_threshold(cfg.rate(idx.l)) / (cfg.rho * cfg.a(idx.l) * cfg.omega(idx.l))
    mgf = math.exp(-s)
    for lam in _raw_uplink_rates(cfg, idx):
        mgf *= lam / (lam + s)
    return mgf


def test_uplink_factor_equals_mgf_product():
    """The uplink success factor is the hypoexponential MGF of the relay's
    interference; it must agree with the product built from the raw
    config, with well-separated rates and with the colliding defaults."""
    from twrnoma.analysis import _uplink_success

    idx = SignalIndex.for_signal(1)
    for cfg in (SystemConfig(rho=100.0, a2=0.3), SystemConfig(rho=100.0)):
        inter = compute_outage_intermediates(cfg, idx, cfg.rho)
        assert _uplink_success(cfg, idx, inter, with_exp=True) == pytest.approx(
            _mgf_route(cfg, idx), rel=1e-12)


def test_outage_decreases_with_snr(baseline):
    for signal in (1, 2):
        values = [outage_probability(baseline.with_rho(r), signal, "ipsic").p_exact
                  for r in (1.0, 10.0, 100.0, 1e3, 1e4)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_perfect_sic_never_worse(baseline):
    for signal in (1, 2):
        for rho in (1.0, 31.6, 1e3):
            ip = outage_probability(baseline.with_rho(rho), signal, "ipsic").p_exact
            p = outage_probability(baseline.with_rho(rho), signal, "psic").p_exact
            assert p <= ip + 1e-15


def test_infeasible_strong_target_reports_certain_outage():
    # downlink share 0.2 cannot carry 3 bits per channel use through the
    # leakage term: b_l <= varpi2 * gamma
    cfg = SystemConfig(rho=100.0, r1=3.0)
    res = outage_probability(cfg, 1, "ipsic")
    assert not res.feasible
    assert res.p_exact == 1.0
    assert not math.isfinite(res.intermediates.tau_l)


def test_infeasible_weak_target_reports_certain_outage():
    cfg = SystemConfig(rho=100.0, r2=2.0)
    res = outage_probability(cfg, 2, "ipsic")
    assert not res.feasible
    assert res.p_exact == 1.0


def test_intermediates_structure(baseline):
    cfg = baseline.with_rho(10.0)
    inter = compute_outage_intermediates(cfg, SignalIndex.for_signal(1), cfg.rho)
    assert inter.strong_feasible and inter.weak_feasible
    # rho * tau cancels the 1/rho, leaving a scale-free product
    assert cfg.rho * inter.tau_l == pytest.approx(0.749, abs=5e-4)
    assert inter.theta_l == max(inter.tau_l, inter.xi_t)
    assert inter.varphi_t == pytest.approx(
        compute_outage_intermediates(baseline, SignalIndex.for_signal(1),
                                     1e6).varphi_t,
        rel=1e-12)
    assert len(inter.uplink_rates) == 3
    assert len(inter.cross_rates) == 2
    assert inter.uplink_rates[1:] == inter.cross_rates
    no_cross = compute_outage_intermediates(SystemConfig(varpi1=0.0),
                                            SignalIndex.for_signal(1), 10.0)
    assert len(no_cross.uplink_rates) == 1
    assert no_cross.cross_rates == ()


def test_default_rates_collide_and_keep_the_exact_product(baseline):
    """With the default powers the in-pair and one cross-pair exponential
    rate coincide to round-off.  The rates are kept as they are, tie included,
    and the uplink factor equals the 30-digit product of their transforms."""
    from twrnoma.analysis import _uplink_success

    idx = SignalIndex.for_signal(1)
    cfg = baseline.with_rho(10.0)
    inter = compute_outage_intermediates(cfg, idx, cfg.rho)
    raw = _raw_uplink_rates(cfg, idx)
    assert inter.uplink_rates == raw
    assert raw[1] == pytest.approx(raw[0], rel=1e-15)
    with mpmath.workdps(30):
        s = mpmath.mpf(gamma_threshold(cfg.rate(idx.l))) / (
            mpmath.mpf(cfg.rho) * cfg.a(idx.l) * cfg.omega(idx.l))
        exact = mpmath.exp(-s)
        for lam in raw:
            exact *= mpmath.mpf(lam) / (lam + s)
        assert _uplink_success(cfg, idx, inter, with_exp=True) == pytest.approx(
            float(exact), rel=1e-14)


def test_perfect_sic_drops_residual_term(baseline):
    """Under perfect SIC the outage must not depend on the residual
    channel variance at all."""
    for signal in (1, 2):
        a = outage_probability(SystemConfig(rho=100.0, omega_I=0.01), signal, "psic")
        b = outage_probability(SystemConfig(rho=100.0, omega_I=10.0), signal, "psic")
        assert a.p_exact == b.p_exact


def test_diversity_estimate_validation():
    with pytest.raises(ValueError, match="align"):
        diversity_order_estimate([1.0, 2.0], [0.1])
    with pytest.raises(ValueError, match="two points"):
        diversity_order_estimate([1.0], [0.1])
    with pytest.raises(ValueError, match="positive and distinct"):
        diversity_order_estimate([1.0, 1.0], [0.1, 0.1])
    with pytest.raises(ValueError, match="positive"):
        diversity_order_estimate([1.0, 2.0], [0.1, 0.0])
    # a NaN is not positive, so it is refused, not carried into the slope
    for probs in ([math.nan, 0.1], [0.1, math.nan]):
        with pytest.raises(ValueError, match="outage values must be positive"):
            diversity_order_estimate([1e5, 1e6], probs)
    for rhos in ([math.nan, 1e6], [1e5, math.nan]):
        with pytest.raises(ValueError, match="positive and distinct"):
            diversity_order_estimate(rhos, [0.2, 0.1])
    # no slope exists at an infinite SNR or through an infinite outage value
    for rhos in ([1e5, math.inf], [math.inf, 1e6]):
        with pytest.raises(ValueError, match="finite, positive and distinct"):
            diversity_order_estimate(rhos, [0.2, 0.1])
    for probs in ([0.2, math.inf], [math.inf, 0.1]):
        with pytest.raises(ValueError, match="positive and finite"):
            diversity_order_estimate([1e5, 1e6], probs)


def test_diversity_estimate_recovers_slope():
    # p = 4 / rho gives diversity order exactly 1
    rhos = [1e3, 1e4]
    probs = [4.0 / r for r in rhos]
    assert diversity_order_estimate(rhos, probs) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "strong-user outage under leakage multiplies P(uplink ok) by P(near user "
    "ok) as if independent, but both depend on the near user's gain g_k "
    "(ROADMAP item 1): Monte Carlo 0.43020 against 0.41740, z = +13.3"))
def test_strong_outage_under_heavy_leakage_matches_simulation():
    from twrnoma.montecarlo import mc_grid

    n = 2 ** 18
    cfg = SystemConfig(rho=10.0, varpi1=0.3, varpi2=0.3)
    est = mc_grid(cfg, [cfg.rho], n, 99, metric="outage", targets=(1,),
                  modes=("ipsic",))[0]["ipsic", 1]
    p = outage_probability(cfg, 1, "ipsic").p_exact
    z = (est.mean - p) / math.sqrt(p * (1.0 - p) / n)
    assert abs(z) <= 4.0
