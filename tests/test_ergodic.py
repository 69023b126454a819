"""Ergodic-rate routes: closed forms, quadrature, and their limits.

Frozen values below come from an independent evaluation run before this
module was written (straight quadrature of the SINR CCDF with mpmath
spot checks), so the closed forms are being compared against a second
route, not against themselves.
"""

import logging
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twrnoma.ergodic import (GAUSS_LEGENDRE_8, PAIR_WINDOW, QuadratureSpec,
                             compute_rate_intermediates,
                             ergodic_rate_strong_asymptotic,
                             ergodic_rate_strong_closed,
                             ergodic_rate_strong_numeric,
                             ergodic_rate_strong_quadrature,
                             ergodic_rate_weak_highsnr,
                             ergodic_rate_weak_numeric,
                             high_snr_slope_estimate, strong_rate_ccdf_leakage,
                             strong_sinr_ccdf, weak_highsnr_sinr_cdf)
from twrnoma.model import SignalIndex, SystemConfig

from reference_routes import leakage_ccdf_nested, leakage_rate_nested

IDX1 = SignalIndex.for_signal(1)
IDX2 = SignalIndex.for_signal(2)

# (snr_db, sic_mode) -> strong-user rate, leakage fractions at zero
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


def _cfg(snr_db, mode, **kw):
    return SystemConfig(rho=10.0 ** (snr_db / 10.0), sic_mode=mode,
                        varpi1=0.0, varpi2=0.0, **kw)


@pytest.mark.parametrize("key,expected", sorted(STRONG_RATE_TABLE.items()))
def test_strong_rate_frozen_table(key, expected):
    snr_db, mode = key
    assert ergodic_rate_strong_closed(_cfg(snr_db, mode), IDX1) == pytest.approx(
        expected, rel=2e-6)


@pytest.mark.parametrize("key,expected", sorted(WEAK_RATE_TABLE.items()))
def test_weak_rate_frozen_table(key, expected):
    # several reference entries were recorded to six figures only
    snr_db, mode = key
    assert ergodic_rate_weak_numeric(_cfg(snr_db, mode), IDX2) == pytest.approx(
        expected, rel=5e-5)


@pytest.mark.parametrize("mode", ["ipsic", "psic"])
@pytest.mark.parametrize("snr_db", [10, 30, 50])
def test_strong_closed_vs_quadrature(snr_db, mode):
    cfg = _cfg(snr_db, mode)
    closed = ergodic_rate_strong_closed(cfg, IDX1)
    quad = ergodic_rate_strong_quadrature(cfg, IDX1)
    assert abs(closed - quad) / max(closed, quad) < 1e-8


def _mp_strong_rate_no_leakage(cfg, idx):
    # 30-digit quadrature of the no-leakage CCDF against 1/(1+u), with the
    # rate constants rebuilt from the config fields
    with mpmath.workdps(30):
        a_l, om_l = mpmath.mpf(cfg.a(idx.l)), mpmath.mpf(cfg.omega(idx.l))
        a_t, om_t = mpmath.mpf(cfg.a(idx.t)), mpmath.mpf(cfg.omega(idx.t))
        b_l, om_k = mpmath.mpf(cfg.b(idx.l)), mpmath.mpf(cfg.omega(idx.k))
        lam1 = cfg.epsilon * mpmath.mpf(cfg.omega_I) / (b_l * om_k)
        lam2 = a_t * om_t / (a_l * om_l)
        psi = (a_l * om_l + b_l * om_k) / (cfg.rho * a_l * b_l * om_l * om_k)
        val = mpmath.quad(
            lambda u: mpmath.exp(-psi * u) / ((1 + u) * (1 + lam1 * u) * (1 + lam2 * u)),
            [0, 1, 10, 100, 1e3, mpmath.inf])
        return float(val / (2 * mpmath.log(2)))


@pytest.mark.parametrize("mode", ["ipsic", "psic"])
def test_strong_closed_at_the_unit_pole_matches_mpmath(mode):
    cfg = _cfg(20, mode, **UNIT_POLE)
    inter = compute_rate_intermediates(cfg, IDX1)
    assert inter.lambda2 == 1.0
    assert inter.c_coef == 0.0
    assert inter.a_coef + inter.b_coef + inter.d_coef == pytest.approx(1.0, rel=1e-12)
    assert ergodic_rate_strong_closed(cfg, IDX1) == pytest.approx(
        _mp_strong_rate_no_leakage(cfg, IDX1), rel=1e-12)


def _near_pole(delta):
    # a_2 Omega_2 = (1 + delta) a_1 Omega_1, so lambda2 = 1 + delta
    return dict(a1=0.5, a2=0.5 * (1.0 + delta), a3=0.5, a4=0.5 * (1.0 + delta),
                d1=3.0, d2=3.0)


@pytest.mark.parametrize("mode", ["ipsic", "psic"])
@pytest.mark.parametrize("delta", [2e-9, 1e-8, 1e-6, 1e-4, 1e-3])
def test_strong_closed_near_the_unit_pole_matches_mpmath(mode, delta):
    """Just off the pole the simple-pole weights cancel (6e-7 relative error
    at delta = 2e-9, 2e-11 at 1e-4); the pair form keeps round-off."""
    cfg = _cfg(20, mode, **_near_pole(delta))
    assert compute_rate_intermediates(cfg, IDX1).lambda2 == pytest.approx(
        1.0 + delta, rel=1e-15)
    assert ergodic_rate_strong_closed(cfg, IDX1) == pytest.approx(
        _mp_strong_rate_no_leakage(cfg, IDX1), rel=1e-12)


@pytest.mark.parametrize("mode", ["ipsic", "psic"])
@pytest.mark.parametrize("snr_db", [20, 50])
@pytest.mark.parametrize("side", [1.0, -1.0])
def test_strong_rate_is_continuous_across_the_pair_window(mode, snr_db, side):
    """The pair form and the simple-pole form agree at the window edge, for
    the closed form and for its high-SNR expansion."""
    edge = side * PAIR_WINDOW
    inside = _cfg(snr_db, mode, **_near_pole(edge * (1.0 - 1e-12)))
    outside = _cfg(snr_db, mode, **_near_pole(edge * (1.0 + 1e-12)))
    assert compute_rate_intermediates(inside, IDX1).d_coef != 0.0
    assert compute_rate_intermediates(outside, IDX1).d_coef == 0.0
    for fn in (ergodic_rate_strong_closed, ergodic_rate_strong_asymptotic):
        assert fn(inside, IDX1) == pytest.approx(fn(outside, IDX1), rel=1e-12)


def test_gauss_legendre_table_matches_numpy():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    rule = [(-t, w) for t, w in reversed(GAUSS_LEGENDRE_8)] + list(GAUSS_LEGENDRE_8)
    assert np.array_equal([t for t, _ in rule], nodes)
    assert np.array_equal([w for _, w in rule], weights)


def test_rate_intermediates_frozen(baseline):
    inter = compute_rate_intermediates(baseline.with_rho(100.0), IDX1)
    assert inter.lambda1 == pytest.approx(0.2, rel=1e-12)
    assert inter.lambda2 == pytest.approx(0.01, rel=1e-12)
    assert inter.lambda3 == pytest.approx(5.0, rel=1e-12)
    assert inter.psi == pytest.approx(0.25, rel=1e-12)
    assert inter.a_coef == pytest.approx(1.2626262626262625, rel=1e-12)
    assert inter.b_coef == pytest.approx(-0.2631578947368421, rel=1e-12)
    assert inter.c_coef == pytest.approx(0.0005316321105795496, rel=1e-9)
    assert inter.a_coef + inter.b_coef + inter.c_coef == pytest.approx(1.0,
                                                                       rel=1e-12)


def test_perfect_sic_zeroes_the_residual_pole(baseline):
    inter = compute_rate_intermediates(
        baseline.with_mode("psic").with_rho(100.0), IDX1)
    assert inter.lambda1 == 0.0
    assert inter.b_coef == 0.0
    assert math.isinf(inter.w_rate_residual)


@given(u=st.floats(min_value=1e-6, max_value=50.0),
       lam1=st.floats(min_value=0.0, max_value=2.0),
       lam2=st.floats(min_value=0.001, max_value=2.0))
@settings(max_examples=150, deadline=None)
def test_partial_fraction_identity(u, lam1, lam2):
    """1/((1+u)(1+u L1)(1+u L2)) splits into the three simple poles with
    the stored coefficients."""
    from hypothesis import assume
    assume(abs(lam1 - lam2) > 1e-3)
    assume(abs(lam1 - 1.0) > 1e-3 and abs(lam2 - 1.0) > 1e-3)
    # synthesize intermediates through a config is clumsy here; rebuild the
    # coefficients the way the module defines them
    a = 1.0 / ((lam1 * lam2) - lam2 - lam1 + 1.0)
    b = 0.0 if lam1 == 0.0 else (a * (lam1 - lam1 * lam2) - lam1) / (lam2 - lam1)
    c = 1.0 - a - b
    lhs = 1.0 / ((1.0 + u) * (1.0 + u * lam1) * (1.0 + u * lam2))
    rhs = a / (1.0 + u) + b / (1.0 + u * lam1) + c / (1.0 + u * lam2)
    assert rhs == pytest.approx(lhs, rel=1e-9, abs=1e-15)


def test_strong_ccdf_is_a_valid_survival_function(baseline):
    inter = compute_rate_intermediates(baseline.with_rho(100.0), IDX1)
    u = np.linspace(0.0, 200.0, 400)
    vals = strong_sinr_ccdf(inter, u)
    assert vals[0] == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.diff(vals) <= 1e-15)
    assert vals[-1] < 1e-8
    with pytest.raises(ValueError):
        strong_sinr_ccdf(inter, -1.0)


def test_leakage_ccdf_matches_transform_product(baseline):
    """The survival function must reproduce the Laplace-transform product
    of the two interference legs, built from the raw config rates (two of
    the default uplink rates tie)."""
    cfg = baseline.with_rho(100.0)
    rho = cfg.rho
    z_rates = (1.0 / (rho * cfg.a2 * cfg.omega2),
               1.0 / (rho * cfg.varpi1 * cfg.a3 * cfg.omega3),
               1.0 / (rho * cfg.varpi1 * cfg.a4 * cfg.omega4))
    w_rates = (1.0 / (rho * cfg.omega_I),
               1.0 / (rho * cfg.varpi2 * cfg.omega1))
    for x in (0.5, 2.0, 10.0):
        s_z = x / (rho * cfg.a1 * cfg.omega1)
        s_w = x / (rho * cfg.b1 * cfg.omega1)
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
        w_rates = [1 / (rho * cfg.epsilon * cfg.omega_I),
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


def test_strong_numeric_sits_below_no_leakage_rate(baseline):
    with_leak = ergodic_rate_strong_numeric(baseline.with_rho(100.0), IDX1)
    without = ergodic_rate_strong_closed(_cfg(20, "ipsic"), IDX1)
    assert with_leak < without


def test_weak_mapped_integral_matches_raw_quadrature(baseline):
    """Undo the variable substitution: integrate the raw integrand over
    the finite SINR support and compare."""
    from scipy.integrate import quad

    cfg = _cfg(20, "ipsic")
    inter = compute_rate_intermediates(cfg, IDX2)
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
    assert ergodic_rate_weak_numeric(cfg, IDX2) == pytest.approx(raw_val,
                                                                 rel=1e-6)


def test_weak_ceiling_frozen_values():
    ip = ergodic_rate_weak_highsnr(_cfg(40, "ipsic"), IDX2)
    assert ip == pytest.approx(0.25879866598642474263, rel=1e-12)
    # the imperfect-SIC ceiling does not move with SNR
    assert ergodic_rate_weak_highsnr(_cfg(60, "ipsic"), IDX2) == pytest.approx(
        ip, rel=1e-12)
    assert ergodic_rate_weak_highsnr(_cfg(40, "psic"), IDX2) == pytest.approx(
        1.0795731712516655394, rel=1e-11)
    assert ergodic_rate_weak_highsnr(_cfg(50, "psic"), IDX2) == pytest.approx(
        1.15239226130271, rel=1e-11)


def _mp_weak_psic_ceiling(c, b_l):
    with mpmath.workdps(30):
        c = mpmath.mpf(c)
        return float(mpmath.exp(c) * (mpmath.ei(-c / b_l) - mpmath.ei(-c))
                     / (2 * mpmath.log(2)))


@pytest.mark.parametrize("c", [1e-3, 0.1, 1.0, 10.0, 700.0, 1e3, 1e4])
def test_weak_psic_ceiling_matches_mpmath(c):
    """c = 1/(rho a_t Omega_t) past ~709 overflows e^c taken on its own."""
    cfg = SystemConfig(varpi1=0.0, varpi2=0.0, sic_mode="psic")
    cfg = cfg.with_rho(1.0 / (c * cfg.a2 * cfg.omega2))
    assert ergodic_rate_weak_highsnr(cfg, IDX2) == pytest.approx(
        _mp_weak_psic_ceiling(c, cfg.b1), rel=1e-10)


def test_weak_ceiling_near_unity_interference_ratio():
    """Lambda3 -> 1 hits the removable singularity; the series branch must
    agree with the closed ratio evaluated just outside the window."""
    # lambda3 = eps*Omega_I/(a_t Omega_t): tune Omega_I for exact unity
    base = dict(rho=1e4, varpi1=0.0, varpi2=0.0)
    at_one = SystemConfig(omega_I=0.002, **base)
    near = SystemConfig(omega_I=0.002 * (1.0 + 5e-7), **base)
    v1 = ergodic_rate_weak_highsnr(at_one, IDX2)
    v2 = ergodic_rate_weak_highsnr(near, IDX2)
    assert v1 == pytest.approx(v2, rel=1e-5)
    assert math.isfinite(v1)


def test_weak_highsnr_cdf_shape(baseline):
    cfg = baseline.with_rho(1e5)
    cap = cfg.b2 / cfg.b1
    xs = np.linspace(0.0, cap * 1.2, 50)
    cdf = weak_highsnr_sinr_cdf(cfg, IDX2, xs)
    assert cdf[0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.diff(cdf) >= -1e-12)
    assert cdf[-1] == 1.0
    # atom at the cap: the limit from the left stays strictly below one
    assert weak_highsnr_sinr_cdf(cfg, IDX2, cap * 0.999999) < 1.0
    with pytest.raises(ValueError, match="perfect SIC"):
        weak_highsnr_sinr_cdf(baseline.with_mode("psic"), IDX2, 1.0)


def test_weak_highsnr_cdf_against_simulation():
    """At very high SNR the weak user's end-to-end SINR (worst of the three
    decode branches) settles on the limiting law."""
    from twrnoma.model import sample_channel_draw, sinr_set
    import numpy.random as npr

    cfg = _cfg(80, "ipsic")
    rng = npr.Generator(npr.Philox(12345))
    draw = sample_channel_draw(cfg, rng, size=200_000)
    s = sinr_set(cfg, draw, IDX2)
    sinr = np.minimum(np.minimum(s.relay_weak, s.near_decodes_weak),
                      s.far_decodes_weak)
    for x in (0.5, 1.5, 3.0):
        emp = float(np.mean(sinr <= x))
        model = float(weak_highsnr_sinr_cdf(cfg, IDX2, x))
        sigma = math.sqrt(model * (1.0 - model) / sinr.size)
        assert abs(emp - model) < 4.0 * sigma + 1e-3


def test_strong_asymptote_frozen_values():
    assert ergodic_rate_strong_asymptotic(_cfg(50, "ipsic"), IDX1) == \
        pytest.approx(1.3484742797548983, rel=1e-12)
    assert ergodic_rate_strong_asymptotic(_cfg(50, "psic"), IDX1) == \
        pytest.approx(3.3002070208895367, rel=1e-12)


def test_asymptote_approaches_closed_form():
    for kw in ({}, UNIT_POLE):
        for mode in ("ipsic", "psic"):
            closed = ergodic_rate_strong_closed(_cfg(70, mode, **kw), IDX1)
            asym = ergodic_rate_strong_asymptotic(_cfg(70, mode, **kw), IDX1)
            assert abs(closed - asym) / closed < 5e-3


def test_high_snr_slope_estimate():
    rhos = [1e5, 1e6]
    # rate = log2(rho)/2 has slope 1/2 per octave of log2 rho
    rates = [math.log2(r) / 2.0 for r in rhos]
    assert high_snr_slope_estimate(rhos, rates) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        high_snr_slope_estimate([1e5], [1.0])


def test_preconditions_route_to_the_right_entry_point(baseline):
    cfg = baseline.with_rho(100.0)
    with pytest.raises(ValueError, match="leakage fractions at zero"):
        ergodic_rate_strong_closed(cfg, IDX1)
    with pytest.raises(ValueError, match="leakage fractions at zero"):
        ergodic_rate_weak_numeric(cfg, IDX2)
    with pytest.raises(ValueError, match="ergodic_rate_strong_closed"):
        ergodic_rate_strong_numeric(_cfg(20, "ipsic"), IDX1)
    with pytest.raises(ValueError, match="Monte Carlo"):
        ergodic_rate_strong_numeric(baseline.with_mode("psic").with_rho(100.0),
                                    IDX1)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError, match="transform"):
        QuadratureSpec(transform="spline")
    with pytest.raises(ValueError, match="subdivisions"):
        QuadratureSpec(max_subdivisions=0)
    spec = QuadratureSpec()
    assert spec.transform == "rational"


def test_rate_constant_collision_is_logged(caplog):
    """Forcing lambda1 == lambda2 must trigger the separation nudge."""
    # lambda1 = eps Omega_I/(b_l Omega_k), lambda2 = a_t Omega_t/(a_l Omega_l)
    cfg = SystemConfig(rho=100.0, varpi1=0.0, varpi2=0.0, omega_I=0.001)
    inter0 = compute_rate_intermediates(cfg, IDX1)
    assert inter0.lambda1 == pytest.approx(0.02, rel=1e-12)
    assert inter0.lambda2 == pytest.approx(0.01, rel=1e-12)
    with caplog.at_level(logging.DEBUG, logger="twrnoma.ergodic"):
        collide = SystemConfig(rho=100.0, varpi1=0.0, varpi2=0.0,
                               omega_I=0.0005)
        inter = compute_rate_intermediates(collide, IDX1)
    assert inter.lambda1 != inter.lambda2
    assert any("separat" in r.message or "nudg" in r.message.lower()
               for r in caplog.records)
