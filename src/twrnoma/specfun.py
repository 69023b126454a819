"""Special functions and distribution primitives behind the closed forms.

Two things live here.  The exponential integral Ei, needed by the no-leakage
ergodic-rate expressions, implemented to better than 1e-10 relative error on
|x| in [1e-8, 700].  And the hypoexponential family: sums of independent
exponentials, which is the distribution of the composite uplink interference

    Z  = rho a_t |h_t|^2 + rho w1 (a_k |h_k|^2 + a_r |h_r|^2)      (3 rates)
    Z' = rho w1 (a_k |h_k|^2 + a_r |h_r|^2)                        (2 rates)

appearing in the outage denominators.  The closed forms need only its
Laplace transform, ``hypoexp_laplace``, which is exact at tied rates.  The
density, with its partial fractions over distinct rates, has no library
caller.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass

log = logging.getLogger(__name__)

EULER_GAMMA = 0.5772156649015329

# Regime boundaries for expint_ei.  The convergent series is used for all
# negative arguments down to -6 and for positive arguments up to 40; the
# positive series has no cancellation, so it stays accurate far beyond the
# classical |x| <= 6 crossover, which matters because the optimally
# truncated asymptotic sum cannot reach 1e-10 until x is around 40.
_SERIES_NEG_LIMIT = 6.0
_SERIES_POS_LIMIT = 40.0


def _ei_series(x):
    # Ei(x) = gamma + ln|x| + sum_k x^k / (k k!), convergent everywhere,
    # numerically safe while the terms do not alternate destructively.
    total = 0.0
    term = 1.0
    for k in range(1, 500):
        term *= x / k
        contrib = term / k
        total += contrib
        if abs(contrib) < 1e-18 * max(1.0, abs(total)):
            break
    return EULER_GAMMA + math.log(abs(x)) + total


def _e1_continued_fraction(s):
    # Modified Lentz evaluation of the continued fraction for e^s E1(s),
    # s > 0.  Returns h with E1(s) = h e^-s, so callers can keep the
    # exponential factored out when s is huge.
    b = s + 1.0
    c = 1e308
    d = 1.0 / b
    h = d
    for i in range(1, 300):
        an = -float(i) * float(i)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h


def _ei_asymptotic_pos(x):
    # Optimally truncated divergent expansion e^x/x sum_k k!/x^k for large
    # positive x; terms shrink until k ~ x, far below 1e-10 once x > 40.
    total = 1.0
    term = 1.0
    for k in range(1, 200):
        new = term * k / x
        if new > term:
            break
        term = new
        total += term
        if term < 1e-17 * total:
            break
    return math.exp(x) / x * total


def expint_ei(x: float) -> float:
    """Exponential integral Ei(x), the Cauchy principal value of
    integral_{-inf}^{x} e^t / t dt.

    Strictly increasing on (0, inf), strictly decreasing on (-inf, 0), with
    Ei(x) -> 0- as x -> -inf and a logarithmic singularity at 0.
    """
    x = float(x)
    if x == 0.0:
        raise ValueError("Ei has a logarithmic singularity at x = 0")
    if math.isnan(x):
        raise ValueError("Ei is undefined for NaN")
    if x > 0:
        if x <= _SERIES_POS_LIMIT:
            return _ei_series(x)
        if x > 709.0:
            raise OverflowError(f"Ei({x}) overflows double precision")
        return _ei_asymptotic_pos(x)
    ax = -x
    if ax <= _SERIES_NEG_LIMIT:
        return _ei_series(x)
    # Ei(-ax) = -E1(ax)
    return -_e1_continued_fraction(ax) * math.exp(-ax)


def expei_neg(s: float) -> float:
    """Scaled combination e^s Ei(-s) for s > 0, stable for huge s.

    The closed-form rates need this product at arguments as large as
    Psi / Lambda_1 ~ 1e12 when the residual-interference variance is pushed
    toward zero, where computing e^s and Ei(-s) separately overflows and
    underflows.  For s beyond the series regime the continued fraction gives
    the product directly as -h without forming either factor.
    """
    s = float(s)
    if s <= 0.0:
        raise ValueError(f"expei_neg expects s > 0, got {s!r}")
    if s <= _SERIES_NEG_LIMIT:
        return math.exp(s) * _ei_series(-s)
    return -_e1_continued_fraction(s)


def hypoexp_laplace(rates, s: float) -> float:
    """Laplace transform E[exp(-s Z)] of a sum Z of independent exponentials.

    For positive rates lam_i and s >= 0 it is prod_i lam_i / (lam_i + s).
    The product is exact whether or not rates tie, so unlike the density it
    needs no partial fractions and no separation of near-equal rates.  An
    empty ``rates`` is the sum of no terms, Z = 0, with transform 1.
    """
    out = 1.0
    for lam in rates:
        out *= lam / (lam + s)
    return out


_SMALLEST_NORMAL = sys.float_info.min


def term_rates(*means) -> tuple:
    """Exponential rates 1/mean of interference terms with the given means.

    A term whose mean power is zero or subnormal (a leakage level of 0, or
    one so small that the product underflows) is no term at all: its rate
    would be infinite and its Laplace factor is 1, so it is dropped.
    """
    # a plain loop: this runs at every quadrature node of the leakage rate,
    # where it costs less than a comprehension
    rates = ()
    for mean in means:
        if mean >= _SMALLEST_NORMAL:
            rates += (1.0 / mean,)
    return rates


# The density family below has no library caller.  It stays in this module
# because perfbench/tracing.py patches hypoexp_pdf and resolve_rates here by
# name, and tests/reference_routes.py and the acceptance tests use the
# density as a route independent of the transform.
@dataclass(frozen=True)
class HypoExpParams:
    """Rates of a sum of 2 or 3 independent exponentials.

    Rates must be positive and pairwise distinct; ``resolve_rates`` enforces
    distinctness by nudging near-ties before construction.
    """

    lambdas: tuple

    def __post_init__(self):
        if len(self.lambdas) not in (2, 3):
            raise ValueError(f"expected 2 or 3 rates, got {len(self.lambdas)}")
        for lam in self.lambdas:
            if not (lam > 0) or not math.isfinite(lam):
                raise ValueError(f"rates must be positive and finite, got {self.lambdas!r}")
        for i in range(len(self.lambdas)):
            for j in range(i + 1, len(self.lambdas)):
                if self.lambdas[i] == self.lambdas[j]:
                    raise ValueError(
                        f"rates must be pairwise distinct, got {self.lambdas!r}; "
                        "pass them through resolve_rates first")


def resolve_rates(rates) -> HypoExpParams:
    """Separate near-degenerate rates, then build HypoExpParams.

    The partial-fraction weights blow up as two rates coincide, so any pair
    closer than 1e-9 relative gets the smaller member pulled down by a
    factor (1 - 1e-7).  For exact ties the later-indexed rate is treated as
    the smaller one, making the nudge deterministic.  The perturbation
    changes densities by far less than any validation band in use here.
    """
    work = [float(r) for r in rates]
    for r in work:
        if not (r > 0) or not math.isfinite(r):
            raise ValueError(f"rates must be positive and finite, got {rates!r}")
    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        if guard > 200:
            raise ValueError(f"could not separate degenerate rates {rates!r}")
        for i in range(len(work)):
            for j in range(i + 1, len(work)):
                hi, lo = max(work[i], work[j]), min(work[i], work[j])
                if hi - lo < 1e-9 * hi:
                    # index of the member to shrink: the strictly smaller
                    # one, or the later index on an exact tie
                    target = j if work[j] <= work[i] else i
                    old = work[target]
                    work[target] = old * (1.0 - 1e-7)
                    log.debug("separated near-degenerate rates %r: "
                              "rate[%d] %.17g -> %.17g", rates, target, old,
                              work[target])
                    changed = True
    return HypoExpParams(lambdas=tuple(work))


def hypoexp_pdf(params: HypoExpParams, z):
    """Density of the sum of independent exponentials at z >= 0.

    Vectorized over z.  Two rates use
    f(z) = l1 l2 (e^{-l1 z} - e^{-l2 z}) / (l2 - l1); three rates use the
    partial fractions f(z) = l1 l2 l3 (Phi_1 e^{-l1 z} - Phi_2 e^{-l2 z}
    + Phi_3 e^{-l3 z}), with Phi_1 = 1/((l2-l1)(l3-l1)),
    Phi_2 = 1/((l3-l2)(l2-l1)) and Phi_3 = 1/((l3-l1)(l3-l2)).  Mild
    negative round-off from cancellation between nearly equal rates is
    clipped at zero.
    """
    import numpy as np

    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("density evaluation points must be finite")
    if np.any(z < 0):
        raise ValueError("the sum of exponentials is supported on z >= 0")
    if len(params.lambdas) == 2:
        l1, l2 = params.lambdas
        out = l1 * l2 * (np.exp(-l1 * z) - np.exp(-l2 * z)) / (l2 - l1)
    else:
        l1, l2, l3 = params.lambdas
        p1 = 1.0 / ((l2 - l1) * (l3 - l1))
        p2 = 1.0 / ((l3 - l2) * (l2 - l1))
        p3 = 1.0 / ((l3 - l1) * (l3 - l2))
        out = l1 * l2 * l3 * (p1 * np.exp(-l1 * z) - p2 * np.exp(-l2 * z)
                              + p3 * np.exp(-l3 * z))
    out = np.maximum(out, 0.0)
    return float(out) if out.ndim == 0 else out

