"""Ergodic-rate routes: closed forms, quadrature, and their limits.

Frozen values below come from an independent evaluation run before this
module was written (straight quadrature of the SINR CCDF with mpmath
spot checks), so the closed forms are being compared against a second
route, not against themselves.
"""

import dataclasses
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from twrnoma.ergodic import (_CONFLUENT, GAUSS_LEGENDRE_8, QuadratureError,
                             _confluent, _divided_difference,
                             _integrate_log_trapezoid_grid, _psi, _strong_ccdf,
                             compute_rate_intermediates,
                             ergodic_rate_strong_asymptotic,
                             ergodic_rate_strong_closed,
                             ergodic_rate_strong_numeric,
                             ergodic_rate_strong_quadrature,
                             ergodic_rate_weak_highsnr,
                             ergodic_rate_weak_numeric,
                             high_snr_slope_estimate, rate_grid,
                             strong_rate_ccdf_leakage)
from twrnoma.configio import PRESETS
from twrnoma.model import SIC_MODES, SignalIndex, SystemConfig

from reference_routes import leakage_ccdf_nested, leakage_rate_nested

IDX1 = SignalIndex.for_signal(1)
IDX2 = SignalIndex.for_signal(2)

# (snr_db, SIC mode) -> strong-user rate, leakage fractions at zero
STRONG_RATE_TABLE = {
    (10, "ipsic"): 0.20595218, (20, "ipsic"): 0.73770267,
    (30, "ipsic"): 1.19464182, (40, "ipsic"): 1.328598,
    (50, "ipsic"): 1.348525,
    (10, "psic"): 0.21825623, (20, "psic"): 0.94895142,
    (30, "psic"): 2.12206134, (40, "psic"): 2.979690,
    (50, "psic"): 3.281114,
}

WEAK_RATE_TABLE = {
    (10, "ipsic"): 0.010491, (20, "ipsic"): 0.066041,
    (30, "ipsic"): 0.180699, (40, "ipsic"): 0.2444098228167506,
    (50, "ipsic"): 0.25693662,
    (10, "psic"): 0.011256, (20, "psic"): 0.098953,
    (30, "psic"): 0.515484, (40, "psic"): 0.9999971,
    (50, "psic"): 1.1367636,
}


# a_2 Omega_2 = a_1 Omega_1: lambda2 sits exactly on the 1/(1+u) pole
UNIT_POLE = dict(a1=0.5, a2=0.5, d1=3.0, d2=3.0)


# the residual-SIC switch per mode, written out for the mpmath references
EPS = {"ipsic": 1, "psic": 0}


def _cfg(snr_db, **kw):
    return SystemConfig(rho=10.0 ** (snr_db / 10.0), varpi1=0.0, varpi2=0.0, **kw)


@pytest.mark.parametrize("key,expected", sorted(STRONG_RATE_TABLE.items()))
def test_strong_rate_frozen_table(key, expected):
    snr_db, mode = key
    assert ergodic_rate_strong_closed(_cfg(snr_db), IDX1, mode) == pytest.approx(
        expected, rel=2e-6)


@pytest.mark.parametrize("key,expected", sorted(WEAK_RATE_TABLE.items()))
def test_weak_rate_frozen_table(key, expected):
    # several reference entries were recorded to six figures only
    snr_db, mode = key
    assert ergodic_rate_weak_numeric(_cfg(snr_db), IDX2, mode) == pytest.approx(
        expected, rel=5e-5)


@pytest.mark.parametrize("mode", ["ipsic", "psic"])
@pytest.mark.parametrize("snr_db", [10, 30, 50])
def test_strong_closed_vs_quadrature(snr_db, mode):
    cfg = _cfg(snr_db)
    closed = ergodic_rate_strong_closed(cfg, IDX1, mode)
    quad = ergodic_rate_strong_quadrature(cfg, IDX1, mode)
    assert abs(closed - quad) / max(closed, quad) < 1e-8


def _segments(lo, hi, features):
    # mpmath integrates segment by segment, split where the integrand bends
    return [lo] + sorted(f for f in set(features) if lo < f < hi) + [hi]


def _mp_strong_rate_no_leakage(cfg, idx, mode):
    # 30-digit quadrature of the no-leakage CCDF against 1/(1+u), with the
    # rate constants rebuilt from the config fields, split at the poles and
    # at the decay length so that it holds at any SNR
    with mpmath.workdps(30):
        a_l, om_l = mpmath.mpf(cfg.a(idx.l)), mpmath.mpf(cfg.omega(idx.l))
        a_t, om_t = mpmath.mpf(cfg.a(idx.t)), mpmath.mpf(cfg.omega(idx.t))
        b_l, om_k = mpmath.mpf(cfg.b(idx.l)), mpmath.mpf(cfg.omega(idx.k))
        lam1 = EPS[mode] * mpmath.mpf(cfg.omega_I) / (b_l * om_k)
        lam2 = a_t * om_t / (a_l * om_l)
        psi = (a_l * om_l + b_l * om_k) / (cfg.rho * a_l * b_l * om_l * om_k)
        bends = [1, 1 / lam2, 1 / psi, 10 / psi] + ([1 / lam1] if lam1 else [])
        val = mpmath.quad(
            lambda u: mpmath.exp(-psi * u) / ((1 + u) * (1 + lam1 * u) * (1 + lam2 * u)),
            _segments(0, mpmath.inf, bends))
        return float(val / (2 * mpmath.log(2)))


@pytest.mark.parametrize("mode", ["ipsic", "psic"])
def test_strong_closed_at_the_unit_pole_matches_mpmath(mode):
    cfg = _cfg(20, **UNIT_POLE)
    assert compute_rate_intermediates(cfg, IDX1, mode).lambda2 == 1.0
    assert ergodic_rate_strong_closed(cfg, IDX1, mode) == pytest.approx(
        _mp_strong_rate_no_leakage(cfg, IDX1, mode), rel=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the closed form loses digits at low SNR: on the unit pole at -30 dB it is "
    "2.67e-11 (ipSIC) and 1.47e-11 (pSIC) off mpmath, 1.3e-14 at 0 dB; the "
    "suspected cause is the divided difference of K(x) = -e^{psi x} Ei(-psi x) "
    "at large psi"))
@pytest.mark.parametrize("mode", ["ipsic", "psic"])
def test_strong_closed_at_low_snr_matches_mpmath(mode):
    cfg = _cfg(-30, **UNIT_POLE)
    assert ergodic_rate_strong_closed(cfg, IDX1, mode) == pytest.approx(
        _mp_strong_rate_no_leakage(cfg, IDX1, mode), rel=1e-12, abs=0.0)


def _near_pole(delta):
    # a_2 Omega_2 = (1 + delta) a_1 Omega_1, so lambda2 = 1 + delta
    return dict(a1=0.5, a2=0.5 * (1.0 + delta), a3=0.5, a4=0.5 * (1.0 + delta),
                d1=3.0, d2=3.0)


@pytest.mark.parametrize("mode", ["ipsic", "psic"])
@pytest.mark.parametrize("delta", [2e-9, 1e-8, 1e-6, 1e-4, 1e-3])
def test_strong_closed_near_the_unit_pole_matches_mpmath(mode, delta):
    """Just off the pole simple-pole partial-fraction weights would cancel
    (6e-7 relative error at delta = 2e-9, 2e-11 at 1e-4); the divided
    difference keeps round-off."""
    cfg = _cfg(20, **_near_pole(delta))
    assert compute_rate_intermediates(cfg, IDX1, mode).lambda2 == pytest.approx(
        1.0 + delta, rel=1e-15)
    assert ergodic_rate_strong_closed(cfg, IDX1, mode) == pytest.approx(
        _mp_strong_rate_no_leakage(cfg, IDX1, mode), rel=1e-12)


@pytest.mark.parametrize("mode", ["ipsic", "psic"])
@pytest.mark.parametrize("snr_db", [20, 50])
@pytest.mark.parametrize("side", [1.0, -1.0])
def test_strong_rate_is_continuous_across_the_pair_window(mode, snr_db, side):
    """The confluent-pair mean and the divided-difference recurrence agree
    where the poles 1 and nu2 = 1/lambda2 cross the window edge, for the
    closed form and for its high-SNR expansion."""
    # |nu2 - 1| = _CONFLUENT max(1, nu2) at nu2 = 1 - _CONFLUENT (lambda2
    # above 1) and at nu2 = 1/(1 - _CONFLUENT) (lambda2 below 1)
    edge = 1.0 / (1.0 - _CONFLUENT) - 1.0 if side > 0 else -_CONFLUENT
    inside = _cfg(snr_db, **_near_pole(edge * (1.0 - 1e-12)))
    outside = _cfg(snr_db, **_near_pole(edge * (1.0 + 1e-12)))
    for cfg, confluent in ((inside, True), (outside, False)):
        nu2 = 1.0 / compute_rate_intermediates(cfg, IDX1, mode).lambda2
        assert _confluent(min(1.0, nu2), max(1.0, nu2)) is confluent
    for fn in (ergodic_rate_strong_closed, ergodic_rate_strong_asymptotic):
        assert fn(inside, IDX1, mode) == pytest.approx(fn(outside, IDX1, mode),
                                                       rel=1e-12)


def _poles(lam1, lam2):
    # equal distances put every Omega at 1/9, so lambda2 = a2/a1 and
    # lambda1 = Omega_I/(b1 Omega3) = 45 Omega_I
    return dict(a1=0.5, a2=0.5 * lam2, a3=0.5, a4=0.5 * lam2, d1=3.0, d2=3.0,
                omega_I=lam1 * 0.2 / 9.0)


@pytest.mark.parametrize("delta", [0.0, 1e-10, 1e-8, 1e-6])
def test_strong_closed_at_the_residual_unit_pole_matches_mpmath(delta):
    """lambda1 = 1 + delta on the default config: the residual pole meets
    the 1/(1+u) pole and is taken as it stands, not moved off it."""
    cfg = _cfg(20, omega_I=0.05 * (1.0 + delta))
    assert compute_rate_intermediates(cfg, IDX1, "ipsic").lambda1 == pytest.approx(
        1.0 + delta, rel=1e-15)
    assert ergodic_rate_strong_closed(cfg, IDX1, "ipsic") == pytest.approx(
        _mp_strong_rate_no_leakage(cfg, IDX1, "ipsic"), rel=1e-12)


@pytest.mark.parametrize("e1,e2", [(0.0, 0.0), (1e-7, -1e-7), (1e-9, 3e-9)])
def test_strong_closed_at_the_triple_pole_matches_mpmath(e1, e2):
    """lambda1 = 1 + e1 and lambda2 = 1 + e2: all three poles within the
    window, taken by Hermite-Genocchi over the triangle."""
    cfg = _cfg(20, **_poles(1.0 + e1, 1.0 + e2))
    inter = compute_rate_intermediates(cfg, IDX1, "ipsic")
    assert (inter.lambda1, inter.lambda2) == pytest.approx((1.0 + e1, 1.0 + e2),
                                                           rel=1e-15)
    assert ergodic_rate_strong_closed(cfg, IDX1, "ipsic") == pytest.approx(
        _mp_strong_rate_no_leakage(cfg, IDX1, "ipsic"), rel=1e-12)


@pytest.mark.parametrize("snr_db", [20, 50])
def test_strong_rate_is_continuous_across_the_triple_window(snr_db):
    """With lambda1 = 1 the three poles leave the window together with nu2;
    Hermite-Genocchi and the recurrence agree at the edge."""
    edge = -_CONFLUENT
    inside = _cfg(snr_db, **_poles(1.0, 1.0 + edge * (1.0 - 1e-12)))
    outside = _cfg(snr_db, **_poles(1.0, 1.0 + edge * (1.0 + 1e-12)))
    for cfg, confluent in ((inside, True), (outside, False)):
        inter = compute_rate_intermediates(cfg, IDX1, "ipsic")
        nodes = (1.0, 1.0 / inter.lambda1, 1.0 / inter.lambda2)
        assert _confluent(min(nodes), max(nodes)) is confluent
    for fn in (ergodic_rate_strong_closed, ergodic_rate_strong_asymptotic):
        assert fn(inside, IDX1, "ipsic") == pytest.approx(fn(outside, IDX1, "ipsic"),
                                                          rel=1e-12)


# rate constants on and near 1 and each other: a shared anchor, 1 or free,
# and two relative offsets that are often zero or tiny
_ANCHOR = st.one_of(st.just(1.0), st.floats(min_value=0.02, max_value=20.0))
_OFFSET = st.one_of(st.just(0.0),
                    st.sampled_from([1e-12, -1e-12, 1e-9, -1e-9, 3e-9, 1e-7, -1e-7, 1e-4]),
                    st.floats(min_value=-0.3, max_value=0.3))


@st.composite
def _tied_poles(draw):
    anchor = draw(_ANCHOR)
    return anchor * (1.0 + draw(_OFFSET)), anchor * (1.0 + draw(_OFFSET))


@given(poles=_tied_poles(), snr_db=st.sampled_from([0.0, 20.0, 40.0]),
       mode=st.sampled_from(["ipsic", "psic"]))
@example(poles=(1.0, 0.01), snr_db=40.0, mode="ipsic")
@example(poles=(0.01, 0.01), snr_db=40.0, mode="ipsic")
@example(poles=(1.0 + 1e-9, 1.0 + 3e-9), snr_db=20.0, mode="ipsic")
@settings(max_examples=120, deadline=None)
def test_strong_closed_at_tied_poles_matches_quadrature(poles, snr_db, mode):
    """The closed form holds validate's 1e-8 band against quadrature of the
    CCDF wherever the rate constants tie, and its expansion stays within
    5e-3 of it at 70 dB.  The examples are a residual pole on the unit
    pole, lambda1 = lambda2, and all three poles within 3e-9 of each other."""
    cfg = _cfg(snr_db, **_poles(*poles))
    closed = ergodic_rate_strong_closed(cfg, IDX1, mode)
    quad = ergodic_rate_strong_quadrature(cfg, IDX1, mode)
    assert abs(closed - quad) / quad < 1e-8
    high = cfg.with_rho(1e7)
    closed = ergodic_rate_strong_closed(high, IDX1, mode)
    assert abs(ergodic_rate_strong_asymptotic(high, IDX1, mode) - closed) / closed < 5e-3


def test_strong_quadrature_reference_at_a_tied_psic_pole():
    """lambda2 = 9.0625 under perfect SIC at 20 dB, where an adaptive
    Gauss-Kronrod reference once stopped 1.4e-8 off after one pass: the
    closed form and the quadrature reference both hold round-off."""
    cfg = _cfg(20.0, **_poles(9.0625, 9.0625))
    exact = _mp_strong_rate_no_leakage(cfg, IDX1, "psic")
    assert ergodic_rate_strong_closed(cfg, IDX1, "psic") == pytest.approx(exact, rel=1e-12)
    assert ergodic_rate_strong_quadrature(cfg, IDX1, "psic") == pytest.approx(exact,
                                                                              rel=1e-12)


def _mp_weak_rate(cfg, idx, mode):
    """20-digit quadrature of the weak user's SINR CCDF over its support
    (0, b_t/b_l), without the substitution the library makes, with the
    constants rebuilt from the config fields."""
    with mpmath.workdps(20):
        rho = mpmath.mpf(cfg.rho)
        den_t = rho * cfg.a(idx.t) * cfg.omega(idx.t)
        b_l, b_t = mpmath.mpf(cfg.b(idx.l)), mpmath.mpf(cfg.b(idx.t))
        inv_kr = 1 / (rho * cfg.omega(idx.k)) + 1 / (rho * cfg.omega(idx.r))
        lam3 = EPS[mode] * mpmath.mpf(cfg.omega_I) / (mpmath.mpf(cfg.a(idx.t))
                                                      * cfg.omega(idx.t))

        def ccdf_over_1px(x):
            rem = b_t - x * b_l
            if rem <= 0:
                return mpmath.mpf(0)
            return (mpmath.exp(-x / den_t - x * inv_kr / rem)
                    / ((1 + x) * (1 + x * lam3)))

        decay = 1 / (1 / den_t + inv_kr / b_t)
        bends = [1, decay / 10, decay, 10 * decay] + ([1 / lam3] if lam3 else [])
        val = mpmath.quad(ccdf_over_1px, _segments(0, b_t / b_l, bends))
        return float(val / (2 * mpmath.log(2)))


# the omega_I values of the fig4/fig5 presets, the unit pole, and the tied
# pole lambda1 = lambda2 = 9.0625
_RULE_GRID_CONFIGS = {"omega_I=0.01": {}, "omega_I=0.1": {"omega_I": 0.1},
                      "omega_I=1": {"omega_I": 1.0}, "unit_pole": UNIT_POLE,
                      "tied_9.0625": _poles(9.0625, 9.0625)}


@pytest.mark.parametrize("mode", ["ipsic", "psic"])
@pytest.mark.parametrize("name", sorted(_RULE_GRID_CONFIGS))
def test_rate_rules_match_mpmath_from_minus_30_to_90_db(name, mode):
    """The trapezoid rule in ln x holds 1e-12 for the weak rate and the
    strong quadrature reference wherever the decay length sits: on the
    default distances the weak rate's 1/c runs from 1e-5 to 1e7."""
    for snr_db in range(-30, 91, 20):
        cfg = _cfg(snr_db, **_RULE_GRID_CONFIGS[name])
        assert ergodic_rate_weak_numeric(cfg, IDX2, mode) == pytest.approx(
            _mp_weak_rate(cfg, IDX2, mode), rel=1e-12, abs=0.0), snr_db
        assert ergodic_rate_strong_quadrature(cfg, IDX1, mode) == pytest.approx(
            _mp_strong_rate_no_leakage(cfg, IDX1, mode), rel=1e-12, abs=0.0), snr_db


@pytest.mark.parametrize("snr_db,kw", [(-25, {}), (-20, {}), (-10, {"d2": 20.0}),
                                       (-10, {"d1": 1.0, "d2": 30.0})])
def test_weak_rate_at_low_snr_matches_mpmath(snr_db, kw):
    """Where the decay length 1/c is short the rate is tiny but not zero: an
    adaptive rule over the rationally mapped interval once missed the whole
    integrand and returned 2.75e-27 for 1.1449e-5 at -20 dB."""
    cfg = _cfg(snr_db, **kw)
    for mode in ("ipsic", "psic"):
        assert ergodic_rate_weak_numeric(cfg, IDX2, mode) == pytest.approx(
            _mp_weak_rate(cfg, IDX2, mode), rel=1e-12, abs=0.0)


def test_gauss_legendre_table_matches_numpy():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    rule = [(-t, w) for t, w in reversed(GAUSS_LEGENDRE_8)] + list(GAUSS_LEGENDRE_8)
    assert np.array_equal([t for t, _ in rule], nodes)
    assert np.array_equal([w for _, w in rule], weights)


def test_rate_intermediates_frozen(baseline):
    inter = compute_rate_intermediates(baseline, IDX1, "ipsic")
    assert inter.lambda1 == pytest.approx(0.2, rel=1e-12)
    assert inter.lambda2 == pytest.approx(0.01, rel=1e-12)
    assert inter.lambda3 == pytest.approx(5.0, rel=1e-12)
    assert _psi(baseline, IDX1, 100.0) == pytest.approx(0.25, rel=1e-12)
    # the rate constants are all there is: no weights, and nothing of rho
    assert [f.name for f in dataclasses.fields(inter)] == [
        "lambda1", "lambda2", "lambda3"]


def test_perfect_sic_zeroes_the_residual_pole(baseline):
    cfg = dataclasses.replace(baseline.with_rho(100.0), varpi1=0.0, varpi2=0.0)
    assert compute_rate_intermediates(cfg, IDX1, "psic").lambda1 == 0.0
    # the two-pole divided difference against the CCDF with lambda1 = 0
    assert ergodic_rate_strong_closed(cfg, IDX1, "psic") == pytest.approx(
        _mp_strong_rate_no_leakage(cfg, IDX1, "psic"), rel=1e-12)


def test_residual_pole_beyond_the_float_range_is_perfect_sic():
    """A residual power so small that 1/lambda1 overflows reads as the
    perfect-SIC rate, the limit as lambda1 goes to 0."""
    tiny = _cfg(20, omega_I=1e-310)
    assert compute_rate_intermediates(tiny, IDX1, "ipsic").lambda1 > 0.0
    assert ergodic_rate_strong_closed(tiny, IDX1, "ipsic") == pytest.approx(
        ergodic_rate_strong_closed(_cfg(20), IDX1, "psic"), rel=1e-12)


def _k_and_derivatives(psi):
    # K(x) = integral_0^inf e^{-psi u}/(u + x) du = -e^{psi x} Ei(-psi x)
    def k(x):
        return float(-mpmath.exp(psi * x) * mpmath.ei(-psi * x))

    return (k, lambda x: -(1.0 / x - psi * k(x)),
            lambda x: 1.0 / (x * x) - psi / x + psi * psi * k(x))


@given(psi=st.floats(min_value=1e-4, max_value=10.0),
       lam1=st.one_of(st.just(1.0), st.floats(min_value=0.01, max_value=5.0)),
       lam2=st.one_of(st.just(1.0), st.floats(min_value=0.01, max_value=5.0)),
       tie=st.sampled_from(["none", "lam1=lam2", "lam2=1"]))
@settings(max_examples=60, deadline=None)
def test_partial_fraction_identity(psi, lam1, lam2, tie):
    """The divided difference of K over the poles 1, 1/L1, 1/L2 is the
    integral the partial-fraction weights once split into simple poles:
    nu1 nu2 K[1, nu1, nu2] = integral_0^inf e^{-psi u} / ((1+u)(1+u L1)
    (1+u L2)) du, at distinct and at tied poles alike."""
    if tie == "lam1=lam2":
        lam2 = lam1
    elif tie == "lam2=1":
        lam2 = 1.0
    nu1, nu2 = 1.0 / lam1, 1.0 / lam2
    got = nu1 * nu2 * _divided_difference((1.0, nu1, nu2), *_k_and_derivatives(psi))
    direct, _ = integrate.quad(
        lambda u: math.exp(-psi * u) / ((1.0 + u) * (1.0 + lam1 * u) * (1.0 + lam2 * u)),
        0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    assert got == pytest.approx(direct, rel=1e-9)


def test_strong_ccdf_is_a_valid_survival_function(baseline):
    """Leakage on and off, under both SIC modes: 1 at zero, nonincreasing,
    and vanishing in the tail."""
    u = np.linspace(0.0, 200.0, 400)
    for cfg in (baseline, baseline.without_leakage()):
        for mode in ("ipsic", "psic"):
            ccdf, _ = _strong_ccdf(cfg, IDX1, mode, 100.0)
            vals = ccdf(u)
            assert vals[0] == 1.0
            assert np.all(np.diff(vals) <= 1e-15)
            assert vals[-1] < 1e-8
    with pytest.raises(ValueError):
        strong_rate_ccdf_leakage(baseline, IDX1, -1.0)


@pytest.mark.parametrize("mode", ["ipsic", "psic"])
def test_strong_ccdf_without_leakage_is_the_closed_form_integrand(baseline, mode):
    """At zero leakage the zero-power terms drop out, leaving
    exp(-u psi) / ((1 + u lambda1)(1 + u lambda2)) with the constants of
    compute_rate_intermediates (lambda1 = 0 under perfect SIC)."""
    cfg = baseline.without_leakage().with_rho(100.0)
    inter = compute_rate_intermediates(cfg, IDX1, mode)
    psi = _psi(cfg, IDX1, cfg.rho)
    ccdf, scale = _strong_ccdf(cfg, IDX1, mode, cfg.rho)
    assert scale == pytest.approx(1.0 / psi, rel=1e-15)
    for u in (0.0, 1e-3, 0.5, 2.0, 10.0, 60.0):
        expected = math.exp(-u * psi) / ((1.0 + u * inter.lambda1)
                                               * (1.0 + u * inter.lambda2))
        assert ccdf(u) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_leakage_ccdf_matches_transform_product(baseline):
    """The survival function must reproduce the Laplace-transform product
    of the two interference legs, built from the raw config rates (two of
    the default uplink rates tie)."""
    cfg = baseline.with_rho(100.0)
    rho = cfg.rho
    z_rates = (1.0 / (rho * cfg.a2 * cfg.omega(2)),
               1.0 / (rho * cfg.varpi1 * cfg.a3 * cfg.omega(3)),
               1.0 / (rho * cfg.varpi1 * cfg.a4 * cfg.omega(4)))
    w_rates = (1.0 / (rho * cfg.omega_I),
               1.0 / (rho * cfg.varpi2 * cfg.omega(1)))
    for x in (0.5, 2.0, 10.0):
        s_z = x / (rho * cfg.a1 * cfg.omega(1))
        s_w = x / (rho * cfg.b1 * cfg.omega(1))
        expected = math.exp(-s_z - s_w)
        for lam in z_rates:
            expected *= lam / (lam + s_z)
        for lam in w_rates:
            expected *= lam / (lam + s_w)
        got = strong_rate_ccdf_leakage(cfg, IDX1, x)
        assert got == pytest.approx(expected, rel=1e-12)
    assert strong_rate_ccdf_leakage(cfg, IDX1, 0.0) == 1.0
    with pytest.raises(ValueError):
        strong_rate_ccdf_leakage(cfg, IDX1, -0.1)


@pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 30.0])
def test_leakage_ccdf_matches_nested_quadrature(baseline, x):
    """The closed-form survival function against the average of each
    interference leg over its hypoexponential density."""
    cfg = baseline.with_rho(100.0)
    assert strong_rate_ccdf_leakage(cfg, IDX1, x) == pytest.approx(
        leakage_ccdf_nested(cfg, IDX1, x), rel=1e-7)


def test_strong_numeric_leakage_frozen_value(baseline):
    got = ergodic_rate_strong_numeric(baseline.with_rho(100.0), IDX1)
    assert got == pytest.approx(0.6835001190752693, rel=1e-9)


def _mp_leakage_rate(cfg, idx):
    # 30-digit quadrature of the transform-product CCDF against 1/(1+x),
    # rebuilt from the config fields
    with mpmath.workdps(30):
        rho = mpmath.mpf(cfg.rho)
        z_rates = [1 / (rho * cfg.a(idx.t) * cfg.omega(idx.t)),
                   1 / (rho * cfg.varpi1 * cfg.a(idx.k) * cfg.omega(idx.k)),
                   1 / (rho * cfg.varpi1 * cfg.a(idx.r) * cfg.omega(idx.r))]
        w_rates = [1 / (rho * cfg.omega_I),
                   1 / (rho * cfg.varpi2 * cfg.omega(idx.k))]
        cz = 1 / (rho * cfg.a(idx.l) * cfg.omega(idx.l))
        cw = 1 / (rho * cfg.b(idx.l) * cfg.omega(idx.k))

        def integrand(x):
            s_z, s_w = x * cz, x * cw
            out = mpmath.exp(-s_z - s_w) / (1 + x)
            for lam in z_rates:
                out *= lam / (lam + s_z)
            for lam in w_rates:
                out *= lam / (lam + s_w)
            return out

        breaks = [0] + [mpmath.mpf(10) ** k for k in range(-1, 7)] + [mpmath.inf]
        return float(mpmath.quad(integrand, breaks) / (2 * mpmath.log(2)))


@pytest.mark.parametrize("snr_db", [10, 20, 25, 40])
def test_strong_numeric_leakage_matches_mpmath(baseline, snr_db):
    cfg = baseline.with_rho(10.0 ** (snr_db / 10.0))
    assert ergodic_rate_strong_numeric(cfg, IDX1) == pytest.approx(
        _mp_leakage_rate(cfg, IDX1), rel=1e-10)


def test_strong_numeric_leakage_matches_nested_quadrature(baseline):
    cfg = baseline.with_rho(100.0)
    assert ergodic_rate_strong_numeric(cfg, IDX1) == pytest.approx(
        leakage_rate_nested(cfg, IDX1), rel=1e-8)


@pytest.mark.parametrize("field", ["varpi1", "varpi2", "omega_I"])
def test_strong_numeric_leakage_when_a_term_power_underflows(baseline, field):
    """A leakage or residual power of 1e-320 is subnormal: its term drops
    out, and the rate equals that at its 1e-300 neighbour, whose term is
    already too weak to move a digit."""
    cfg = baseline.with_rho(100.0)
    tiny, neighbour = (dataclasses.replace(cfg, **{field: v})
                       for v in (1e-320, 1e-300))
    assert (ergodic_rate_strong_numeric(tiny, IDX1)
            == ergodic_rate_strong_numeric(neighbour, IDX1))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the leakage CCDF treats the near user's gain g_k in W, Z and the decode "
    "numerator as independent draws (ROADMAP item 1): Monte Carlo "
    "0.87534 against 0.89662, z = +22.7"))
def test_strong_numeric_leakage_matches_simulation():
    from twrnoma.montecarlo import _Z95, mc_grid

    cfg = SystemConfig(rho=10.0 ** 2.5)
    est = mc_grid(cfg, [cfg.rho], 2 ** 18, 99, metric="ergodic_rate", targets=(1,),
                  modes=("ipsic",))[0]["ipsic", 1]
    z = (ergodic_rate_strong_numeric(cfg, IDX1) - est.mean) / (est.half_width_95 / _Z95)
    assert abs(z) <= 4.0


def test_strong_numeric_sits_below_no_leakage_rate(baseline):
    with_leak = ergodic_rate_strong_numeric(baseline.with_rho(100.0), IDX1)
    without = ergodic_rate_strong_closed(_cfg(20), IDX1, "ipsic")
    assert with_leak < without


def test_weak_mapped_integral_matches_raw_quadrature(baseline):
    """Undo the variable substitution: integrate the raw integrand over
    the finite SINR support and compare."""
    from scipy.integrate import quad

    cfg = _cfg(20)
    inter = compute_rate_intermediates(cfg, IDX2, "ipsic")
    a_t = cfg.a(IDX2.t)
    omega_t = cfg.omega(IDX2.t)
    omega_k = cfg.omega(IDX2.k)
    omega_r = cfg.omega(IDX2.r)
    b_l, b_t = cfg.b(IDX2.l), cfg.b(IDX2.t)
    rho = cfg.rho

    def raw(x):
        rem = b_t - x * b_l
        expo = (-x / (rho * a_t * omega_t)
                - x / (rho * rem * omega_k) - x / (rho * rem * omega_r))
        return math.exp(expo) / ((1.0 + x) * (1.0 + x * inter.lambda3))

    raw_val, _ = quad(raw, 0.0, b_t / b_l - 1e-12, limit=400)
    raw_val /= 2.0 * math.log(2.0)
    assert ergodic_rate_weak_numeric(cfg, IDX2, "ipsic") == pytest.approx(raw_val,
                                                                 rel=1e-6)


def test_weak_ceiling_frozen_values():
    ip = ergodic_rate_weak_highsnr(_cfg(40), IDX2, "ipsic")
    assert ip == pytest.approx(0.25879866598642474263, rel=1e-12)
    # the imperfect-SIC ceiling does not move with SNR
    assert ergodic_rate_weak_highsnr(_cfg(60), IDX2, "ipsic") == pytest.approx(
        ip, rel=1e-12)
    assert ergodic_rate_weak_highsnr(_cfg(40), IDX2, "psic") == pytest.approx(
        1.0795731712516655394, rel=1e-11)
    assert ergodic_rate_weak_highsnr(_cfg(50), IDX2, "psic") == pytest.approx(
        1.15239226130271, rel=1e-11)


def _mp_weak_psic_ceiling(c, b_l):
    with mpmath.workdps(30):
        c = mpmath.mpf(c)
        return float(mpmath.exp(c) * (mpmath.ei(-c / b_l) - mpmath.ei(-c))
                     / (2 * mpmath.log(2)))


@pytest.mark.parametrize("c", [1e-3, 0.1, 1.0, 10.0, 700.0, 1e3, 1e4])
def test_weak_psic_ceiling_matches_mpmath(c):
    """c = 1/(rho a_t Omega_t) past ~709 overflows e^c taken on its own."""
    cfg = SystemConfig(varpi1=0.0, varpi2=0.0)
    cfg = cfg.with_rho(1.0 / (c * cfg.a2 * cfg.omega(2)))
    assert ergodic_rate_weak_highsnr(cfg, IDX2, "psic") == pytest.approx(
        _mp_weak_psic_ceiling(c, cfg.b1), rel=1e-10)


def test_weak_ceiling_near_unity_interference_ratio():
    """Lambda3 -> 1 hits the removable singularity; the divided difference
    there must agree with the closed ratio evaluated just off it."""
    # lambda3 = eps*Omega_I/(a_t Omega_t): tune Omega_I for exact unity
    base = dict(rho=1e4, varpi1=0.0, varpi2=0.0)
    at_one = SystemConfig(omega_I=0.002, **base)
    near = SystemConfig(omega_I=0.002 * (1.0 + 5e-7), **base)
    v1 = ergodic_rate_weak_highsnr(at_one, IDX2, "ipsic")
    v2 = ergodic_rate_weak_highsnr(near, IDX2, "ipsic")
    assert v1 == pytest.approx(v2, rel=1e-5)
    assert math.isfinite(v1)


@pytest.mark.parametrize("gap", [1e-8, 1e-6, -1e-7])
def test_weak_ceiling_near_unity_matches_mpmath(gap):
    """1 - lambda3 = gap: the ceiling against a 30-digit quadrature of the
    limiting CCDF, integral_0^X dx / ((1 + x)(1 + x lambda3)) / (2 ln 2)."""
    cfg = SystemConfig(rho=1e4, varpi1=0.0, varpi2=0.0, omega_I=0.002 * (1.0 - gap))
    assert compute_rate_intermediates(cfg, IDX2, "ipsic").lambda3 == pytest.approx(
        1.0 - gap, rel=1e-15)
    with mpmath.workdps(30):
        lam3 = (mpmath.mpf(cfg.omega_I)
                / (mpmath.mpf(cfg.a(IDX2.t)) * mpmath.mpf(cfg.omega(IDX2.t))))
        cap = mpmath.mpf(cfg.b(IDX2.t)) / mpmath.mpf(cfg.b(IDX2.l))
        ref = float(mpmath.quad(lambda x: 1 / ((1 + x) * (1 + x * lam3)), [0, cap])
                    / (2 * mpmath.log(2)))
    assert ergodic_rate_weak_highsnr(cfg, IDX2, "ipsic") == pytest.approx(ref, rel=1e-12)


def test_strong_asymptote_frozen_values():
    assert ergodic_rate_strong_asymptotic(_cfg(50), IDX1, "ipsic") == \
        pytest.approx(1.3484742797548983, rel=1e-12)
    assert ergodic_rate_strong_asymptotic(_cfg(50), IDX1, "psic") == \
        pytest.approx(3.3002070208895367, rel=1e-12)


@pytest.mark.parametrize("omega_i", [1e-12, 1e-6, 0.01])
def test_strong_asymptote_matches_mpmath(omega_i):
    """The expansion -(1 + psi x)(ln(psi x) + gamma) of K taken over the
    three distinct poles at 40 digits.  A small residual power puts nu1 far
    from the other poles, where summing weighted simple-pole terms in
    double precision loses up to 1e-5 relative."""
    cfg = _cfg(20, omega_I=omega_i)
    with mpmath.workdps(40):
        idx = IDX1
        a_l, om_l = mpmath.mpf(cfg.a(idx.l)), mpmath.mpf(cfg.omega(idx.l))
        a_t, om_t = mpmath.mpf(cfg.a(idx.t)), mpmath.mpf(cfg.omega(idx.t))
        b_l, om_k = mpmath.mpf(cfg.b(idx.l)), mpmath.mpf(cfg.omega(idx.k))
        psi = (a_l * om_l + b_l * om_k) / (cfg.rho * a_l * b_l * om_l * om_k)
        nodes = (mpmath.mpf(1), b_l * om_k / mpmath.mpf(cfg.omega_I),
                 a_l * om_l / (a_t * om_t))
        dd = mpmath.fsum(
            -(1 + psi * x) * (mpmath.log(psi * x) + mpmath.euler)
            / mpmath.fprod(x - y for j, y in enumerate(nodes) if j != i)
            for i, x in enumerate(nodes))
        ref = float(nodes[1] * nodes[2] * dd / (2 * mpmath.log(2)))
    assert ergodic_rate_strong_asymptotic(cfg, IDX1, "ipsic") == pytest.approx(ref,
                                                                            rel=1e-12)


def test_asymptote_approaches_closed_form():
    for kw in ({}, UNIT_POLE):
        for mode in ("ipsic", "psic"):
            closed = ergodic_rate_strong_closed(_cfg(70, **kw), IDX1, mode)
            asym = ergodic_rate_strong_asymptotic(_cfg(70, **kw), IDX1, mode)
            assert abs(closed - asym) / closed < 5e-3


def test_psic_high_snr_rates_converge_to_their_limits():
    """Without the residual neither pSIC rate grows with rho.  The strong
    chain tends to a_l g_l / (a_t g_t), whose rate is c ln c / ((c - 1) 2 ln 2)
    with c = a_l Omega_l / (a_t Omega_t); the weak SINR to its cap b_t/b_l,
    whose rate is 1/2 log2(1 + b_t/b_l).  At 120 dB the expansion and the
    closed form, the ceiling and the integral, sit on those limits."""
    cfg = _cfg(120)
    c = cfg.a(IDX1.l) * cfg.omega(IDX1.l) / (cfg.a(IDX1.t) * cfg.omega(IDX1.t))
    strong = c * math.log(c) / ((c - 1.0) * 2.0 * math.log(2.0))
    weak = 0.5 * math.log2(1.0 + cfg.b(IDX2.t) / cfg.b(IDX2.l))
    assert (strong, weak) == pytest.approx((3.3554829241, 1.1609640474), rel=1e-10)
    assert ergodic_rate_strong_asymptotic(cfg, IDX1, "psic") == pytest.approx(strong,
                                                                             rel=1e-7)
    assert ergodic_rate_weak_highsnr(cfg, IDX2, "psic") == pytest.approx(weak, rel=1e-7)
    (point,) = rate_grid(cfg, [cfg.rho], (1, 2), ("psic",), asymptotic=True)
    assert point["psic", 1] == pytest.approx((strong, strong), rel=1e-7)
    assert point["psic", 2] == pytest.approx((weak, weak), rel=1e-7)


def test_high_snr_slope_estimate():
    rhos = [1e5, 1e6]
    # rate = log2(rho)/2 has slope 1/2 per octave of log2 rho
    rates = [math.log2(r) / 2.0 for r in rhos]
    assert high_snr_slope_estimate(rhos, rates) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        high_snr_slope_estimate([1e5], [1.0])
    # a NaN SNR is not positive, so it is refused, not carried into the slope
    for bad in ([math.nan, 1e6], [1e5, math.nan]):
        with pytest.raises(ValueError, match="positive and distinct"):
            high_snr_slope_estimate(bad, rates)


def test_preconditions_route_to_the_right_entry_point(baseline):
    cfg = baseline.with_rho(100.0)
    with pytest.raises(ValueError, match="leakage fractions at zero"):
        ergodic_rate_strong_closed(cfg, IDX1, "ipsic")
    with pytest.raises(ValueError, match="leakage fractions at zero"):
        ergodic_rate_weak_numeric(cfg, IDX2, "ipsic")
    with pytest.raises(ValueError, match="ergodic_rate_strong_closed"):
        ergodic_rate_strong_numeric(_cfg(20), IDX1)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_rate_grid_reads_no_leakage_field(name):
    """On every preset grid, with the leakage of each variant and at ten
    times it, the rates and asymptotes of a leaky config are those of its
    leakage-free twin, bit for bit, so the rate-style metrics need no twin."""
    preset = PRESETS[name]
    rhos = [10.0 ** (db / 10.0) for db in preset.grid_db()]
    for variant in preset.variants:
        cfg = dataclasses.replace(SystemConfig(), **variant.overrides)
        twin = rate_grid(cfg.without_leakage(), rhos, (1, 2, 3, 4), SIC_MODES, True)
        for leaky in (cfg, dataclasses.replace(cfg, varpi1=0.1, varpi2=0.1)):
            assert repr(rate_grid(leaky, rhos, (1, 2, 3, 4), SIC_MODES, True)) == repr(twin)


def test_rate_rules_at_the_largest_snr_a_config_takes(baseline):
    """rho at the top of the float range puts the decay length there too:
    the grid stops below it, and every route still reads its limit."""
    top = sys.float_info.max
    cfg = _cfg(0).with_rho(top)
    for mode in ("ipsic", "psic"):
        assert ergodic_rate_strong_quadrature(cfg, IDX1, mode) == pytest.approx(
            ergodic_rate_strong_closed(cfg, IDX1, mode), rel=1e-12)
    assert ergodic_rate_weak_numeric(cfg, IDX2, "ipsic") == pytest.approx(
        ergodic_rate_weak_highsnr(cfg, IDX2, "ipsic"), rel=1e-12)
    assert ergodic_rate_strong_numeric(baseline.with_rho(top), IDX1) == pytest.approx(
        ergodic_rate_strong_numeric(baseline.with_rho(1e300), IDX1), rel=1e-12)


def test_divergent_quadrature_raises_with_its_partial_estimate():
    """1/x is integrable at neither end of (0, inf): in s = ln x it is the
    constant 1, so the end terms are as large as any other, and the error
    carries the finite estimate and error bound the rule reached."""
    with pytest.raises(QuadratureError) as info:
        _integrate_log_trapezoid_grid(lambda x, _sizes: 1.0 / x, (1.0,))
    assert math.isfinite(info.value.estimate) and info.value.estimate > 0.0
    assert math.isfinite(info.value.abserr) and info.value.abserr > 0.0


def test_rate_constant_collision_is_kept_raw():
    """Forcing lambda1 == lambda2 leaves both rates as the config gives
    them, and the rate at the tie still matches mpmath."""
    # lambda1 = eps Omega_I/(b_l Omega_k), lambda2 = a_t Omega_t/(a_l Omega_l)
    cfg = SystemConfig(rho=100.0, varpi1=0.0, varpi2=0.0, omega_I=0.001)
    inter0 = compute_rate_intermediates(cfg, IDX1, "ipsic")
    assert inter0.lambda1 == pytest.approx(0.02, rel=1e-12)
    assert inter0.lambda2 == pytest.approx(0.01, rel=1e-12)
    collide = SystemConfig(rho=100.0, varpi1=0.0, varpi2=0.0, omega_I=0.0005)
    inter = compute_rate_intermediates(collide, IDX1, "ipsic")
    assert inter.lambda1 == collide.omega_I / (collide.b1 * collide.omega(3))
    assert inter.lambda2 == collide.a2 * collide.omega(2) / (collide.a1 * collide.omega(1))
    assert inter.lambda1 == pytest.approx(inter.lambda2, rel=1e-15)
    assert ergodic_rate_strong_closed(collide, IDX1, "ipsic") == pytest.approx(
        _mp_strong_rate_no_leakage(collide, IDX1, "ipsic"), rel=1e-12)
