"""Ergodic rates: exact integrals, closed forms, and high-SNR behavior.

The achievable rate of each exchange is (1/2) E[log2(1 + X)] with X the
minimum SINR along the surviving decode chain; the half is the two-slot
duplexing loss.  Writing the expectation as an integral of the SINR's
complementary CDF,

    R = 1/(2 ln 2) * integral_0^inf (1 - F_X(x)) / (1 + x) dx,

everything reduces to knowing 1 - F_X.  With the cross-group leakage off
the strong user's CCDF is exp(-x Psi) / ((1 + x L1)(1 + x L2)), which
integrates in closed form through e^s Ei(-s): the rate is a divided
difference of K(x) = -e^{Psi x} Ei(-Psi x) over the poles 1, 1/L1, 1/L2,
taken by one helper that is exact where poles tie.  The weak user's CCDF is
supported on (0, b_t/b_l) and is integrated numerically after a
substitution that absorbs the endpoint singularity.  With leakage on, the
strong user's CCDF is the product of the Laplace transforms of the two
composite interference terms, closed form, so its rate is one quadrature.

Every quadrature runs through one helper, ``_quad``, whose tolerances and
subdivision limit are module constants: one place pins them for all routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate

from .model import SignalIndex, SystemConfig
from .specfun import EULER_GAMMA, expei_neg, hypoexp_laplace, term_rates

_LN2 = math.log(2.0)


class QuadratureError(RuntimeError):
    """Adaptive integration failed to converge.

    Carries the partial estimate and its error bound so callers can decide
    whether the result is still usable.
    """

    def __init__(self, message, estimate, abserr):
        super().__init__(message)
        self.estimate = estimate
        self.abserr = abserr


_QUAD_ABS_TOL = 1e-10
_QUAD_REL_TOL = 1e-8
_QUAD_MAX_SUBDIVISIONS = 2000


def _quad(fn, a, b):
    out = integrate.quad(fn, a, b, epsabs=_QUAD_ABS_TOL, epsrel=_QUAD_REL_TOL,
                         limit=_QUAD_MAX_SUBDIVISIONS, full_output=1)
    if len(out) > 3:
        raise QuadratureError(out[3], estimate=out[0], abserr=out[1])
    return out[0]


def _integrate_semi_infinite(fn):
    """integral_0^inf fn(x) dx through the rational map x = t/(1-t).

    The map sends (0, 1) onto (0, inf) with Jacobian 1/(1-t)^2 and keeps
    exponentially decaying integrands well behaved at both ends.
    """

    def mapped(t):
        if t >= 1.0:
            return 0.0
        onemt = 1.0 - t
        return fn(t / onemt) / (onemt * onemt)

    return _quad(mapped, 0.0, 1.0)


@dataclass(frozen=True)
class RateIntermediates:
    """Constants of the strong user's no-leakage SINR distribution.

    lambda1 = eps Omega_I / (b_l Omega_k) and lambda2 = a_t Omega_t /
    (a_l Omega_l) shape the CCDF denominator; lambda3 = eps Omega_I /
    (a_t Omega_t) plays the same role for the weak user's high-SNR limit.
    psi is the exponential decay rate.  All four come from the raw config
    rates: the rate formulas take divided differences over the poles
    1/lambda, which stay exact when rates tie with each other or with 1.
    """

    lambda1: float
    lambda2: float
    lambda3: float
    psi: float


# 8-node Gauss-Legendre rule on [-1, 1] as (node, weight) for the nodes
# +-node; numpy.polynomial.legendre.leggauss(8) gives the same values
GAUSS_LEGENDRE_8 = ((0.18343464249564978, 0.36268378337836166),
                    (0.525532409916329, 0.3137066458778869),
                    (0.7966664774136267, 0.22238103445337443),
                    (0.9602898564975362, 0.10122853629037706))

# Nodes closer than this, relative to the larger, count as confluent.  Apart,
# the recurrence amplifies round-off by at most ~1/_CONFLUENT; within it the
# derivatives are smooth enough over the span for the 8-node rule to reach
# round-off.
_CONFLUENT = 0.1


def _gauss_mean(fn, a, b):
    """Mean of fn over the segment from a to b, by 8-node Gauss-Legendre."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return 0.5 * sum(w * (fn(mid - half * t) + fn(mid + half * t))
                     for t, w in GAUSS_LEGENDRE_8)


def _confluent(lo, hi):
    return hi - lo <= _CONFLUENT * max(abs(lo), abs(hi))


def _divided_difference(nodes, f, df, d2f=None):
    """f[x0, x1] or f[x0, x1, x2], exact at tied nodes.

    Apart, the nodes take the recurrence f[a, b, c] = (f[b, c] - f[a, b]) /
    (c - a) with a <= b <= c.  A confluent pair takes f[a, b], the mean of
    f' over [a, b]; three confluent nodes take the Hermite-Genocchi form
    f[a, b, c] = integral over the triangle s, t >= 0, s + t <= 1 of
    f''(a + s (b - a) + t (c - a)), with t = (1 - s) v mapping it onto the
    unit square.  Both reduce to derivatives at a tie, so no node is ever
    moved.
    """
    if len(nodes) == 2:
        a, b = sorted(nodes)
        if _confluent(a, b):
            return _gauss_mean(df, a, b)
        return (f(b) - f(a)) / (b - a)
    a, b, c = sorted(nodes)
    if _confluent(a, c):
        return _gauss_mean(
            lambda s: (1.0 - s) * _gauss_mean(d2f, a + s * (b - a), c + s * (b - c)),
            0.0, 1.0)
    return (_divided_difference((b, c), f, df)
            - _divided_difference((a, b), f, df)) / (c - a)


def compute_rate_intermediates(config: SystemConfig, idx: SignalIndex) -> RateIntermediates:
    a_l, omega_l = config.a(idx.l), config.omega(idx.l)
    a_t, omega_t = config.a(idx.t), config.omega(idx.t)
    b_l = config.b(idx.l)
    omega_k = config.omega(idx.k)
    eps = config.epsilon
    return RateIntermediates(
        lambda1=eps * config.omega_I / (b_l * omega_k),
        lambda2=a_t * omega_t / (a_l * omega_l),
        lambda3=eps * config.omega_I / (a_t * omega_t),
        psi=(a_l * omega_l + b_l * omega_k) / (config.rho * a_l * b_l * omega_l * omega_k))


def strong_sinr_ccdf(inter: RateIntermediates, u):
    """No-leakage CCDF of the strong user's end-to-end SINR.

    1 - F(u) = exp(-u psi) / ((1 + u lambda1)(1 + u lambda2)), valid on
    u >= 0.  This is the function whose weighted integral the closed form
    reproduces, so it doubles as the independent cross-check route.
    """
    import numpy as np

    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise ValueError("SINR argument must be nonnegative")
    out = np.exp(-u * inter.psi) / ((1.0 + u * inter.lambda1)
                                    * (1.0 + u * inter.lambda2))
    return float(out) if out.ndim == 0 else out


def _require_no_leakage(config, who):
    if config.varpi1 != 0.0 or config.varpi2 != 0.0:
        raise ValueError(
            f"{who} holds only with the leakage fractions at zero; "
            "with nonzero leakage use ergodic_rate_strong_numeric (imperfect "
            "SIC) or the Monte Carlo estimator")


def _strong_rate(inter: RateIntermediates, k, dk, d2k) -> float:
    # integral_0^inf e^{-psi u} / ((1+u)(1+lambda1 u)(1+lambda2 u)) du over
    # 2 ln 2, written through 1 + lambda u = lambda (u + nu), nu = 1/lambda,
    # as a divided difference of K(x) = integral_0^inf e^{-psi u}/(u+x) du
    # over its poles; k, dk, d2k are K (or an expansion of it) and its
    # first two derivatives
    nu1 = 1.0 / inter.lambda1 if inter.lambda1 > 0.0 else math.inf
    nu2 = 1.0 / inter.lambda2
    if nu1 == math.inf:
        # perfect SIC, or a residual pole beyond the float range: the limit
        # of nu1 K[1, nu1, nu2] as nu1 grows is -K[1, nu2]
        integral = -nu2 * _divided_difference((1.0, nu2), k, dk)
    else:
        integral = nu2 * (nu1 * _divided_difference((1.0, nu1, nu2), k, dk, d2k))
    return integral / (2.0 * _LN2)


def ergodic_rate_strong_closed(config: SystemConfig, idx: SignalIndex) -> float:
    """Closed-form strong-user ergodic rate, leakage off.

    With nu_i = 1/lambda_i and K(x) = -e^{psi x} Ei(-psi x),

        R = nu1 nu2 K[1, nu1, nu2] / (2 ln 2),

    the second divided difference of K over the three poles of the CCDF
    integrand: the paper's sum of e^s Ei(-s) terms with partial-fraction
    weights, evaluated without forming the weights, so it stays exact when
    lambda1, lambda2 and 1 tie in any combination.  Under perfect SIC
    lambda1 = 0, the residual pole is absent and R = -nu2 K[1, nu2] /
    (2 ln 2).
    """
    _require_no_leakage(config, "the closed-form strong-user rate")
    inter = compute_rate_intermediates(config, idx)
    psi = inter.psi
    return _strong_rate(
        inter,
        lambda x: -expei_neg(psi * x),
        lambda x: -(1.0 / x + psi * expei_neg(psi * x)),
        lambda x: 1.0 / (x * x) - psi / x - psi * psi * expei_neg(psi * x))


def ergodic_rate_strong_quadrature(config: SystemConfig, idx: SignalIndex) -> float:
    """Strong-user rate by direct quadrature of the no-leakage CCDF.

    Independent of the Ei evaluation; agreement with the closed form is
    the primary correctness check for both.
    """
    _require_no_leakage(config, "the quadrature strong-user rate")
    inter = compute_rate_intermediates(config, idx)

    def integrand(u):
        return strong_sinr_ccdf(inter, u) / (1.0 + u)

    return _integrate_semi_infinite(integrand) / (2.0 * _LN2)


def strong_rate_ccdf_leakage(config: SystemConfig, idx: SignalIndex, x) -> float:
    """CCDF of the strong user's SINR with both leakage paths active.

    Conditioning on the downlink interference W = eps rho |g|^2 +
    rho w2 |h_k|^2 and the uplink interference Z = rho a_t |h_t|^2 +
    rho w1 (a_k |h_k|^2 + a_r |h_r|^2), the two decode stages factor into
    exponential averages over W and Z, each a Laplace transform of a sum of
    independent exponentials:

      1 - F(x) = E[e^{-s_z (Z+1)}] E[e^{-s_w (W+1)}]
               = e^{-s_z - s_w} L_Z(s_z) L_W(s_w),

    with s_z = x/(rho a_l Omega_l), s_w = x/(rho b_l Omega_k) and
    L(s) = prod lam_i/(lam_i + s) over each term's rates.  The product is
    exact at tied rates, so the raw rates are used as they are; a term whose
    power underflows drops out (``term_rates``).

    The factorization treats the |h_k|^2 appearing inside W, Z, and the
    decode numerator as independent draws, the same simplification the
    closed analysis makes, so this is the right reference for it but is a
    biased (percent-level) approximation of the simulated system.
    """
    if x < 0:
        raise ValueError("SINR argument must be nonnegative")
    rho, omega_k = config.rho, config.omega(idx.k)
    z_rates = term_rates(rho * config.a(idx.t) * config.omega(idx.t),
                         rho * config.varpi1 * config.a(idx.k) * omega_k,
                         rho * config.varpi1 * config.a(idx.r) * config.omega(idx.r))
    w_rates = term_rates(config.epsilon * rho * config.omega_I,
                         rho * config.varpi2 * omega_k)
    s_z = x / (rho * config.a(idx.l) * config.omega(idx.l))
    s_w = x / (rho * config.b(idx.l) * omega_k)
    return (math.exp(-s_z - s_w) * hypoexp_laplace(z_rates, s_z)
            * hypoexp_laplace(w_rates, s_w))


def ergodic_rate_strong_numeric(config: SystemConfig, idx: SignalIndex) -> float:
    """Strong-user ergodic rate with leakage, by a single quadrature.

    R = 1/(2 ln 2) * integral_0^inf (1 - F(x)) / (1 + x) dx with the
    closed-form CCDF of ``strong_rate_ccdf_leakage``; QuadratureError if it
    does not converge.

    Only the imperfect-SIC chain is covered: under perfect SIC the
    residual leg of W degenerates and the leakage-on rate has no published
    reduction, so that combination is deliberately routed to Monte Carlo.
    """
    if config.varpi1 <= 0.0 or config.varpi2 <= 0.0:
        raise ValueError("the leakage-path rate needs both leakage fractions "
                         "positive; with them at zero use "
                         "ergodic_rate_strong_closed")
    if config.sic_mode != "ipsic":
        raise ValueError("the leakage-path rate is derived for imperfect SIC "
                         "only; under perfect SIC use the Monte Carlo "
                         "estimator")

    def integrand(x):
        return strong_rate_ccdf_leakage(config, idx, x) / (1.0 + x)

    return _integrate_semi_infinite(integrand) / (2.0 * _LN2)


def ergodic_rate_weak_numeric(config: SystemConfig, idx: SignalIndex) -> float:
    """Weak-user ergodic rate, leakage off, by stable quadrature.

    The SINR is capped at b_t/b_l, where the integrand has an essential
    singularity exp(-x (1/Omega_k + 1/Omega_r) / (rho (b_t - x b_l))).
    Substituting x = b_t v / (1 + b_l v) turns the cap into v -> inf and
    the singular exponent into exactly -v (1/Omega_k + 1/Omega_r)/rho:

      R = 1/(2 ln 2) * integral_0^inf
            e^{-x/(rho a_t Omega_t) - v/(rho Omega_k) - v/(rho Omega_r)}
            / ((1 + x)(1 + x lambda3)) * b_t/(1 + b_l v)^2 dv,

    with the (1 + x lambda3) factor present only under imperfect SIC.
    """
    _require_no_leakage(config, "the weak-user rate integral")
    inter = compute_rate_intermediates(config, idx)
    rho = config.rho
    a_t, omega_t = config.a(idx.t), config.omega(idx.t)
    b_l, b_t = config.b(idx.l), config.b(idx.t)
    omega_k, omega_r = config.omega(idx.k), config.omega(idx.r)
    lam3 = inter.lambda3

    def mapped(t):
        # fold the rational map and the SINR substitution together so the
        # two Jacobians cancel against each other near t = 1
        if t >= 1.0:
            return 0.0
        onemt = 1.0 - t
        v = t / onemt
        x = b_t * v / (1.0 + b_l * v)
        expo = (-x / (rho * a_t * omega_t)
                - v / (rho * omega_k) - v / (rho * omega_r))
        denom_map = onemt + b_l * t          # (1 - t)(1 + b_l v)
        val = math.exp(expo) * b_t / ((1.0 + x) * (denom_map * denom_map))
        if lam3 > 0.0:
            val /= 1.0 + x * lam3
        return val

    return _quad(mapped, 0.0, 1.0) / (2.0 * _LN2)


def ergodic_rate_weak_highsnr(config: SystemConfig, idx: SignalIndex) -> float:
    """Weak-user rate ceiling as rho grows without bound.

    Imperfect SIC: the SINR converges to min(a_t |h_t|^2 / |g|^2, b_t/b_l)
    and the ceiling is [ln(1 + X) - ln(1 + X lambda3)] / (2 (1 - lambda3)
    ln 2) with X = b_t/b_l, SNR-free.  The ratio is the divided difference
    f[lambda3, 1] of f(lam) = ln(1 + X lam), so it holds its digits as
    lambda3 approaches 1, where it tends to X / (2 (1 + X) ln 2).
    The direct integral approaches this ceiling from below, with a gap
    that shrinks like ln(rho)/rho: on the reference config without
    leakage the ceiling sits 5.9% above it at 40 dB (inside 5% from about
    41 dB) and 0.7% above it at 50 dB.

    Perfect SIC: the cap alone binds and the ceiling keeps a residual rho
    dependence, e^c (Ei(-c/b_l) - Ei(-c)) / (2 ln 2) with
    c = 1/(rho a_t Omega_t), growing like log(rho).  Both terms are formed
    as e^s Ei(-s) products, e^{c(1 - 1/b_l)} e^{c/b_l} Ei(-c/b_l) and
    e^c Ei(-c), so a large c (low SNR, weak power share) cannot overflow.
    """
    inter = compute_rate_intermediates(config, idx)
    cap = config.b(idx.t) / config.b(idx.l)
    if config.epsilon > 0.0:
        return _divided_difference(
            (inter.lambda3, 1.0),
            lambda lam: math.log1p(cap * lam),
            lambda lam: cap / (1.0 + cap * lam)) / (2.0 * _LN2)
    c = 1.0 / (config.rho * config.a(idx.t) * config.omega(idx.t))
    b_l = config.b(idx.l)
    return ((math.exp(c * (1.0 - 1.0 / b_l)) * expei_neg(c / b_l) - expei_neg(c))
            / (2.0 * _LN2))


def ergodic_rate_strong_asymptotic(config: SystemConfig, idx: SignalIndex) -> float:
    """High-SNR expansion of the strong user's closed-form rate.

    Replaces each e^s Ei(-s) factor by its small-argument expansion
    (1 + s)(ln s + gamma), that is K(x) by

      K~(x) = -(1 + psi x)(ln(psi x) + gamma),

    and takes the same divided differences as the closed form:
    nu1 nu2 K~[1, nu1, nu2] / (2 ln 2), or -nu2 K~[1, nu2] / (2 ln 2) under
    perfect SIC.  The residual channel keeps lambda1 > 0 and caps the rate;
    with it removed the expression grows like (1/2) log2(rho), unit
    multiplexing gain over the two slots.
    """
    inter = compute_rate_intermediates(config, idx)
    psi = inter.psi
    return _strong_rate(
        inter,
        lambda x: -(1.0 + psi * x) * (math.log(psi * x) + EULER_GAMMA),
        lambda x: -(1.0 / x + psi * (1.0 + math.log(psi * x) + EULER_GAMMA)),
        lambda x: 1.0 / (x * x) - psi / x)


def high_snr_slope_estimate(rho_grid, rate_values) -> float:
    """Rate gain per octave-of-SNR, d R / d log2(rho), over the last two points.

    Interference-limited links flatten toward zero; an interference-free
    half-duplex exchange tends to 1/2.
    """
    if len(rho_grid) != len(rate_values):
        raise ValueError("rho grid and rate values must align")
    if len(rho_grid) < 2:
        raise ValueError("need at least two points for a slope")
    r0, r1 = rho_grid[-2], rho_grid[-1]
    if r0 <= 0 or r1 <= 0 or r0 == r1:
        raise ValueError("SNR points must be positive and distinct")
    return (rate_values[-1] - rate_values[-2]) / (math.log2(r1) - math.log2(r0))
