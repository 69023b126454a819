"""Nested-quadrature reference for the strong user's leakage-path rate.

The library closes each interference average of the leakage CCDF as a
Laplace-transform product.  The routes here take the long way instead:
each average is a quadrature of exp(-s z) against the hypoexponential
density, whose rates ``resolve_rates`` separates first, and the rate is a
quadrature of that CCDF.  Agreement between the two checks the product
against the density it stands for.
"""

import math

from scipy import integrate

from twrnoma.specfun import hypoexp_pdf, resolve_rates

_LN2 = math.log(2.0)


def _semi_infinite(fn):
    # x = t/(1-t) maps (0, 1) onto (0, inf); rel 1e-8, abs 1e-10
    def mapped(t):
        if t >= 1.0:
            return 0.0
        onemt = 1.0 - t
        return fn(t / onemt) / (onemt * onemt)

    value, _err = integrate.quad(mapped, 0.0, 1.0, epsabs=1e-10,
                                 epsrel=1e-8, limit=2000)
    return value


def laplace_by_density(rates, s):
    """E[exp(-s Z)] by quadrature over the density of Z."""
    params = resolve_rates(rates)
    return _semi_infinite(lambda z: hypoexp_pdf(params, z) * math.exp(-s * z))


def leakage_ccdf_nested(config, idx, x):
    """strong_rate_ccdf_leakage, an imperfect-SIC CCDF, with each leg
    averaged over its density."""
    rho = config.rho
    z_rates = (1.0 / (rho * config.a(idx.t) * config.omega(idx.t)),
               1.0 / (rho * config.varpi1 * config.a(idx.k) * config.omega(idx.k)),
               1.0 / (rho * config.varpi1 * config.a(idx.r) * config.omega(idx.r)))
    w_rates = (1.0 / (rho * config.omega_I),
               1.0 / (rho * config.varpi2 * config.omega(idx.k)))
    s_z = x / (rho * config.a(idx.l) * config.omega(idx.l))
    s_w = x / (rho * config.b(idx.l) * config.omega(idx.k))
    return (math.exp(-s_z - s_w) * laplace_by_density(z_rates, s_z)
            * laplace_by_density(w_rates, s_w))


def leakage_rate_nested(config, idx):
    """ergodic_rate_strong_numeric by quadrature over the nested CCDF."""
    return _semi_infinite(
        lambda x: leakage_ccdf_nested(config, idx, x) / (1.0 + x)) / (2.0 * _LN2)
