"""Exponential integral and sum-of-exponentials distribution checks.

The frozen reference values were produced with mpmath at 60 significant
digits and pasted here, so the tests run without mpmath except for the
wide-grid comparison which recomputes its oracle on the fly.
"""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twrnoma.specfun import (EULER_GAMMA, HypoExpParams, expei_neg, expint_ei,
                             hypoexp_cdf, hypoexp_laplace, hypoexp_pdf,
                             phi_weights, resolve_rates)

from reference_routes import laplace_by_density

# x -> Ei(x), mpmath mp.ei with mp.dps = 60
EI_TABLE = {
    -50.0: -3.7832640295504590187e-24,
    -6.0: -0.0003600824521626586593,
    -1.0: -0.21938393439552027368,
    -0.1: -1.8229239584193906661,
    1.0: 1.8951178163559367555,
    6.0: 85.989762142439204804,
    40.0: 6039718263611241.5784,
    50.0: 1.0585636897131690963e+20,
}


def test_euler_gamma_constant():
    assert EULER_GAMMA == pytest.approx(0.57721566490153286061, abs=1e-16)


@pytest.mark.parametrize("x,expected", sorted(EI_TABLE.items()))
def test_expint_frozen_table(x, expected):
    assert expint_ei(x) == pytest.approx(expected, rel=1e-12)


def test_expint_wide_grid_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    grid = np.logspace(-6, math.log10(50.0), 40)
    worst = 0.0
    for mag in grid:
        for x in (-mag, mag):
            ref = float(mp.ei(x))
            got = expint_ei(float(x))
            worst = max(worst, abs(got - ref) / abs(ref))
    assert worst < 1e-10


def test_expint_domain_errors():
    with pytest.raises(ValueError, match="singularity"):
        expint_ei(0.0)
    with pytest.raises(ValueError):
        expint_ei(float("nan"))
    with pytest.raises(OverflowError):
        expint_ei(710.0)


@given(st.floats(min_value=1e-6, max_value=49.0),
       st.floats(min_value=1.0001, max_value=1.5))
@settings(max_examples=150, deadline=None)
def test_expint_monotone_on_both_half_lines(x, step):
    # increasing on the positive axis, decreasing on the negative one
    assert expint_ei(x * step) > expint_ei(x)
    assert expint_ei(-x * step) > expint_ei(-x)


def test_expei_neg_matches_direct_product():
    for s in (0.001, 0.5, 2.0, 5.9):
        assert expei_neg(s) == pytest.approx(math.exp(s) * expint_ei(-s),
                                             rel=1e-12)


def test_expei_neg_survives_huge_arguments():
    """exp(s)*Ei(-s) ~ -1/s for large s; the plain product overflows."""
    for s in (1e3, 1e6, 1e12):
        got = expei_neg(s)
        assert got == pytest.approx(-1.0 / s, rel=1e-2)
        assert got > -1.0 / s  # the next asymptotic term is +1/s^2
    with pytest.raises(ValueError):
        expei_neg(0.0)
    with pytest.raises(ValueError):
        expei_neg(-1.0)


def test_hypoexp_params_validation():
    with pytest.raises(ValueError, match="2 or 3 rates"):
        HypoExpParams((1.0,))
    with pytest.raises(ValueError, match="positive and finite"):
        HypoExpParams((1.0, -2.0))
    with pytest.raises(ValueError, match="resolve_rates"):
        HypoExpParams((1.0, 1.0, 2.0))


def test_resolve_rates_perturbs_ties_and_logs(caplog):
    with caplog.at_level(logging.DEBUG, logger="twrnoma.specfun"):
        params = resolve_rates((2.0, 2.0, 5.0))
    assert any("separat" in r.message or "perturb" in r.message.lower()
               for r in caplog.records)
    lams = sorted(params.lambdas)
    assert lams[0] == pytest.approx(2.0 * (1.0 - 1e-7), rel=1e-12)
    assert lams[1] == 2.0
    # repeated application is stable: already-distinct rates pass through
    again = resolve_rates(params.lambdas)
    assert again.lambdas == params.lambdas


def test_resolve_rates_keeps_distinct_rates_verbatim():
    assert resolve_rates((1.0, 3.0, 9.0)).lambdas == (1.0, 3.0, 9.0)


def test_phi_weights_make_density_vanish_at_origin():
    params = HypoExpParams((1.0, 2.5, 7.0))
    p1, p2, p3 = phi_weights(params)
    l1, l2, l3 = params.lambdas
    assert l1 * l2 * l3 * (p1 - p2 + p3) == pytest.approx(0.0, abs=1e-12)
    assert hypoexp_pdf(params, 0.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="3-rate"):
        phi_weights(HypoExpParams((1.0, 2.0)))


def test_hypoexp_pdf_rejects_bad_support():
    params = HypoExpParams((1.0, 2.0))
    with pytest.raises(ValueError, match="z >= 0"):
        hypoexp_pdf(params, -0.5)
    with pytest.raises(ValueError, match="finite"):
        hypoexp_pdf(params, float("inf"))


@given(st.tuples(st.floats(min_value=0.05, max_value=20.0),
                 st.floats(min_value=0.05, max_value=20.0),
                 st.floats(min_value=0.05, max_value=20.0)))
@settings(max_examples=40, deadline=None)
def test_hypoexp_pdf_normalizes(rates):
    from hypothesis import assume
    from scipy.integrate import quad
    # near-coincident rates make the partial-fraction weights cancel at a
    # scale quadrature cannot resolve, so keep the rates apart
    lo, mid, hi = sorted(rates)
    assume(mid - lo > 0.02 * hi and hi - mid > 0.02 * hi)
    params = resolve_rates(rates)
    total, err = quad(lambda z: hypoexp_pdf(params, z), 0.0, np.inf, limit=300)
    assert total == pytest.approx(1.0, abs=max(1e-9, 10.0 * err))


@given(st.tuples(st.floats(min_value=0.05, max_value=20.0),
                 st.floats(min_value=0.05, max_value=20.0)))
@settings(max_examples=60, deadline=None)
def test_hypoexp_cdf_is_a_distribution(rates):
    params = resolve_rates(rates)
    zs = np.linspace(0.0, 40.0 / min(params.lambdas), 80)
    cdf = np.array([hypoexp_cdf(params, z) for z in zs])
    assert cdf[0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.diff(cdf) >= -1e-12)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-6)


def test_hypoexp_cdf_matches_pdf_numerically():
    from scipy.integrate import quad
    params = HypoExpParams((0.8, 2.0, 4.0))
    for z in (0.3, 1.0, 2.7):
        mass, _ = quad(lambda t: hypoexp_pdf(params, t), 0.0, z)
        assert hypoexp_cdf(params, z) == pytest.approx(mass, abs=1e-10)


def test_hypoexp_pdf_vectorizes():
    params = HypoExpParams((1.0, 2.0, 3.0))
    z = np.linspace(0.0, 5.0, 11)
    out = hypoexp_pdf(params, z)
    assert out.shape == z.shape
    assert np.all(out >= 0.0)


_RATE = st.floats(min_value=0.05, max_value=20.0)


@given(st.lists(_RATE, min_size=2, max_size=3),
       st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=40, deadline=None)
def test_hypoexp_laplace_matches_density_quadrature(rates, s):
    """The transform product against the quadrature of exp(-s z) over the
    density, for well-separated rates."""
    from hypothesis import assume
    ordered = sorted(rates)
    assume(all(b - a > 0.02 * ordered[-1] for a, b in zip(ordered, ordered[1:])))
    assert hypoexp_laplace(rates, s) == pytest.approx(
        laplace_by_density(rates, s), rel=1e-7, abs=1e-10)


@given(_RATE, _RATE, st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_hypoexp_laplace_is_continuous_across_ties(lam, mu, s):
    """An exact tie needs no nudge: the product takes the repeated-rate
    value, and rates split by d move it by at most d relative."""
    tied = hypoexp_laplace((lam, lam, mu), s)
    assert tied == pytest.approx((lam / (lam + s)) ** 2 * mu / (mu + s), rel=1e-14)
    for d in (1e-6, 1e-9, 1e-12):
        assert hypoexp_laplace((lam, lam * (1.0 + d), mu), s) == pytest.approx(
            tied, rel=d + 1e-15)


def test_hypoexp_laplace_of_no_terms_is_one():
    assert hypoexp_laplace((), 3.0) == 1.0
    assert hypoexp_laplace((2.0, 5.0), 0.0) == 1.0
