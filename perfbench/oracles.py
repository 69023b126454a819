"""Independent reference routes the correctness gates compare against.

Nothing here calls the library's analytic code: every rate constant is
rebuilt from the raw ``SystemConfig`` fields, so a defect in the library's
intermediates cannot cancel out of a comparison.
"""

from __future__ import annotations

import math

from scipy import integrate

_LN2 = math.log(2.0)

# Strong signal -> (l, k, t, r): its own uplink symbol, the near user of the
# receiving group, the weak symbol, the far user.  Same convention as the
# model's SignalIndex.
_INDEX = {1: (1, 3, 2, 4), 3: (3, 1, 4, 2)}


def _quad_semi_infinite(fn):
    value, _err = integrate.quad(fn, 0.0, math.inf, epsabs=1e-13,
                                 epsrel=1e-11, limit=400)
    return value


def _laplace_product(rates, s):
    out = 1.0
    for lam in rates:
        out *= lam / (lam + s)
    return out


def strong_rate_leakage(config, signal):
    """Strong-user ergodic rate with both leakage paths on (imperfect SIC).

    The two interference legs enter the survival function only through
    their Laplace transforms, E[exp(-s Z)] = prod lam_i / (lam_i + s), so a
    single quadrature over x replaces the library's nested one.
    """
    l, k, t, r = _INDEX[signal]
    rho = config.rho
    z_rates = (1.0 / (rho * config.a(t) * config.omega(t)),
               1.0 / (rho * config.varpi1 * config.a(k) * config.omega(k)),
               1.0 / (rho * config.varpi1 * config.a(r) * config.omega(r)))
    w_rates = (1.0 / (rho * config.omega_I),
               1.0 / (rho * config.varpi2 * config.omega(k)))
    cz = 1.0 / (rho * config.a(l) * config.omega(l))
    cw = 1.0 / (rho * config.b(l) * config.omega(k))

    def integrand(x):
        s_z, s_w = x * cz, x * cw
        return (math.exp(-s_z - s_w) * _laplace_product(z_rates, s_z)
                * _laplace_product(w_rates, s_w) / (1.0 + x))

    return _quad_semi_infinite(integrand) / (2.0 * _LN2)

