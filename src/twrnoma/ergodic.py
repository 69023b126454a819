"""Ergodic rates: exact integrals, closed forms, and high-SNR behavior.

The achievable rate of each exchange is (1/2) E[log2(1 + X)] with X the
minimum SINR along the surviving decode chain; the half is the two-slot
duplexing loss.  Writing the expectation as an integral of the SINR's
complementary CDF,

    R = 1/(2 ln 2) * integral_0^inf (1 - F_X(x)) / (1 + x) dx,

everything reduces to knowing 1 - F_X.  The strong user's CCDF is one
expression at every leakage level and under both SIC modes, built by
``_strong_ccdf`` from the Laplace transforms of its two interference legs.
With the leakage off it is exp(-x Psi) / ((1 + x L1)(1 + x L2)), which
integrates in closed form through e^s Ei(-s): the rate is a divided
difference of K(x) = -e^{Psi x} Ei(-Psi x) over the poles 1, 1/L1, 1/L2,
taken by one helper that is exact where poles tie.  With leakage on the
rate is one quadrature of the same CCDF, and that quadrature at zero
leakage cross-checks the closed form.  The weak user's CCDF is supported on
(0, b_t/b_l) and is integrated numerically after a substitution that
absorbs the endpoint singularity.

Every rate integral runs through one rule, ``_integrate_log_trapezoid_grid``:
the trapezoid rule in s = ln x on a fixed step, with every node of the
integrand evaluated in one numpy pass, for one integral or for a whole
SNR grid of them.  Its step, reach and tolerance are module constants: one
place pins them for all three routes.

The rate kernels take the linear SNR rho as an argument.  The public
per-point routes read ``config.rho`` once and call them; ``rate_grid``
evaluates every closed form of a grid without reading it, or any leakage
field.  The closed form, its quadrature reference and the weak integral
refuse a leaky config; the two asymptote routes and ``rate_grid`` give, on
any config, the leakage-free values the rate-style metrics report.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import compute_outage_intermediates
from .model import SignalIndex, SystemConfig, mirror_sources, sic_epsilon
from .specfun import EULER_GAMMA, expei_neg, hypoexp_laplace, term_rates

_LN2 = math.log(2.0)


class QuadratureError(RuntimeError):
    """A rate integral did not reach its tolerance.

    Carries the partial estimate and its error bound so callers can decide
    whether the result is still usable.
    """

    def __init__(self, message, estimate, abserr):
        super().__init__(message)
        self.estimate = estimate
        self.abserr = abserr


# Step of the trapezoid rule in s = ln x, how far its grid reaches below
# min(ln scale, 0) and above ln scale, and the relative error it must reach.
# Below, the integrand in s is about e^s times its value at x = 0, so the
# tail left out is e^-34 = 1.7e-15 of the integral; above, the decay
# e^{-x/scale} has fallen to e^-40.  At this step the rate routes land
# within 2e-13 of mpmath from -60 to 150 dB.
_STEP = 0.3
_REACH_BELOW = 34.0
_REACH_ABOVE = math.log(40.0)
_REL_TOL = 1e-10
# no node beyond the float range, at any SNR a config takes
_S_TOP = math.log(sys.float_info.max) - _STEP


def _integrate_log_trapezoid_grid(fn, scales):
    """integral_0^inf fn_i(x) dx for each scale of ``scales``, by the
    trapezoid rule in s = ln x.

    ``scales[i]`` is the length on which the i-th integrand decays, like
    e^{-x/scale}.  ``fn(x, sizes)`` evaluates every integrand at once:
    ``x`` holds the nodes of all of them, the first sizes[0] those of the
    first integrand, the next sizes[1] those of the second, and so on.
    Returns the integrals in the order of ``scales``.

    In s the integrand g(s) = x fn(x) vanishes like e^s as s -> -inf and
    doubly exponentially as s -> inf, and it is analytic in a strip about
    the real axis: the poles of the rate integrands lie on the negative x
    axis, at Im s = pi.  On such a g the trapezoid rule converges like
    e^{-2 pi d/h} for a strip of half-width d (Trefethen and Weideman, SIAM
    Review 56, 2014), so one step h serves every scale and the grid only
    slides with ln scale.

    Every other node gives T_2h, whose error is about the square root of
    T_h's, so (T_h - T_2h)^2 / T_h estimates the step error of T_h; the end
    terms estimate what the grid leaves out.  QuadratureError if the two
    together exceed _REL_TOL of an integral.
    """
    spans = []
    for scale in scales:
        log_scale = math.log(scale)
        spans.append(np.arange(
            math.floor((min(log_scale, 0.0) - _REACH_BELOW) / _STEP),
            math.ceil(min(log_scale + _REACH_ABOVE, _S_TOP) / _STEP) + 1))
    x = np.exp(_STEP * np.concatenate(spans))
    sizes = [len(k) for k in spans]
    g = fn(x, sizes) * x
    totals, start = [], 0
    for size in sizes:
        gi = g[start:start + size]
        start += size
        total = _STEP * float(np.add.reduce(gi))
        gap = abs(total - 2.0 * _STEP * float(np.add.reduce(gi[::2])))
        abserr = ((gap * gap / total if total > 0.0 else gap)
                  + _STEP * float(abs(gi[0]) + abs(gi[-1])))
        if not abserr <= _REL_TOL * total:
            raise QuadratureError(
                f"trapezoid rule in ln x missed its tolerance: estimate {total!r}, "
                f"error {abserr!r}", estimate=total, abserr=abserr)
        totals.append(total)
    return totals


@dataclass(frozen=True)
class RateIntermediates:
    """Constants of the strong user's no-leakage SINR distribution.

    lambda1 = eps Omega_I / (b_l Omega_k) and lambda2 = a_t Omega_t /
    (a_l Omega_l) shape the CCDF denominator; lambda3 = eps Omega_I /
    (a_t Omega_t) plays the same role for the weak user's high-SNR limit.
    All three come from the raw config rates and are free of rho, so one
    set serves a whole SNR grid; the exponential decay rate, which is not,
    comes from ``_psi``.  The rate formulas take divided differences over
    the poles 1/lambda, which stay exact when rates tie with each other or
    with 1.
    """

    lambda1: float
    lambda2: float
    lambda3: float


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


def compute_rate_intermediates(config: SystemConfig, idx: SignalIndex,
                               mode: str) -> RateIntermediates:
    a_l, omega_l = config.a(idx.l), config.omega(idx.l)
    a_t, omega_t = config.a(idx.t), config.omega(idx.t)
    b_l = config.b(idx.l)
    omega_k = config.omega(idx.k)
    eps = sic_epsilon(mode)
    return RateIntermediates(
        lambda1=eps * config.omega_I / (b_l * omega_k),
        lambda2=a_t * omega_t / (a_l * omega_l),
        lambda3=eps * config.omega_I / (a_t * omega_t))


def _psi(config: SystemConfig, idx: SignalIndex, rho: float) -> float:
    """Decay rate psi = 1/(rho a_l Omega_l) + 1/(rho b_l Omega_k) of the
    strong user's no-leakage CCDF at linear SNR ``rho``."""
    a_l, omega_l = config.a(idx.l), config.omega(idx.l)
    b_l, omega_k = config.b(idx.l), config.omega(idx.k)
    return (a_l * omega_l + b_l * omega_k) / (rho * a_l * b_l * omega_l * omega_k)


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


def ergodic_rate_strong_closed(config: SystemConfig, idx: SignalIndex, mode: str) -> float:
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
    return _strong_closed(compute_rate_intermediates(config, idx, mode),
                          _psi(config, idx, config.rho))


def _strong_closed(inter, psi):
    return _strong_rate(
        inter,
        lambda x: -expei_neg(psi * x),
        lambda x: -(1.0 / x + psi * expei_neg(psi * x)),
        lambda x: 1.0 / (x * x) - psi / x - psi * psi * expei_neg(psi * x))


def _strong_ccdf(config: SystemConfig, idx: SignalIndex, mode: str, rho: float):
    """The strong user's SINR CCDF, x -> 1 - F(x), at any leakage and SIC mode.

    Conditioning on the uplink interference Z = rho a_t |h_t|^2 +
    rho w1 (a_k |h_k|^2 + a_r |h_r|^2) and the downlink interference
    W = eps rho |g|^2 + rho w2 |h_k|^2, the two decode stages factor into
    exponential averages, each a Laplace transform of a sum of exponentials:

      1 - F(x) = E[e^{-s_z (Z+1)}] E[e^{-s_w (W+1)}]
               = e^{-s_z - s_w} L_Z(s_z) L_W(s_w),

    with s_z = x/(rho a_l Omega_l), s_w = x/(rho b_l Omega_k) and
    L(s) = prod lam_i/(lam_i + s), exact at tied rates.  A term of zero
    power drops out (``term_rates``): with no leakage this is
    exp(-x psi) / ((1 + x lambda1)(1 + x lambda2)), and under perfect SIC
    the residual leg of W goes away.  Rates and scales are formed once; the
    returned function does only the per-x arithmetic, on a scalar or an
    array of x.  Also returned is the decay length 1/psi of the exponential
    factor, psi = 1/(rho a_l Omega_l) + 1/(rho b_l Omega_k).  ``rho`` is
    the linear SNR; ``config.rho`` is not read.
    """
    omega_k = config.omega(idx.k)
    z_rates = compute_outage_intermediates(config, idx, rho).uplink_rates
    w_rates = term_rates(sic_epsilon(mode) * rho * config.omega_I,
                         rho * config.varpi2 * omega_k)
    d_z = rho * config.a(idx.l) * config.omega(idx.l)
    d_w = rho * config.b(idx.l) * omega_k

    def ccdf(x):
        s_z = x / d_z
        s_w = x / d_w
        return (np.exp(-s_z - s_w) * hypoexp_laplace(z_rates, s_z)
                * hypoexp_laplace(w_rates, s_w))

    return ccdf, 1.0 / (1.0 / d_z + 1.0 / d_w)


def _strong_rate_by_quadrature(config, idx, mode):
    ccdf, scale = _strong_ccdf(config, idx, mode, config.rho)
    return _integrate_log_trapezoid_grid(lambda x, _sizes: ccdf(x) / (1.0 + x),
                                         (scale,))[0] / (2.0 * _LN2)


def ergodic_rate_strong_quadrature(config: SystemConfig, idx: SignalIndex,
                                   mode: str) -> float:
    """Strong-user rate by direct quadrature of the no-leakage CCDF.

    Reads neither the Ei evaluation nor ``compute_rate_intermediates``, so
    agreement with the closed form is the primary correctness check for both.
    """
    _require_no_leakage(config, "the quadrature strong-user rate")
    return _strong_rate_by_quadrature(config, idx, mode)


def strong_rate_ccdf_leakage(config: SystemConfig, idx: SignalIndex, x) -> float:
    """The ipSIC CCDF of ``_strong_ccdf``, which the leakage rate integrates,
    at x >= 0.  No library route calls it; it stays only because
    ``perfbench/tracing.py`` patches it."""
    if x < 0:
        raise ValueError("SINR argument must be nonnegative")
    return float(_strong_ccdf(config, idx, "ipsic", config.rho)[0](x))


def ergodic_rate_strong_numeric(config: SystemConfig, idx: SignalIndex) -> float:
    """Strong-user ergodic rate with leakage, by a single quadrature.

    R = 1/(2 ln 2) * integral_0^inf (1 - F(x)) / (1 + x) dx with the
    closed-form CCDF of ``_strong_ccdf``; QuadratureError if the rule
    misses its tolerance.

    Only the imperfect-SIC chain is covered, so the route takes no mode:
    under perfect SIC the residual leg of W degenerates and the leakage-on
    rate has no published reduction, so that combination is deliberately
    routed to Monte Carlo.

    The CCDF treats the near user's gain in W, Z and the decode numerator
    as independent draws, as the closed analysis does, which biases the
    rate above the simulated system: for x1 at 25 dB the simulator (2^18
    draws, seed 99) gives 0.87534 against 0.89662 at the default leakage
    0.01, z = +22.7, and the gap reaches z = +168 at leakage 0.1.
    """
    if config.varpi1 <= 0.0 or config.varpi2 <= 0.0:
        raise ValueError("the leakage-path rate needs both leakage fractions "
                         "positive; with them at zero use "
                         "ergodic_rate_strong_closed")
    return _strong_rate_by_quadrature(config, idx, "ipsic")


def ergodic_rate_weak_numeric(config: SystemConfig, idx: SignalIndex, mode: str) -> float:
    """Weak-user ergodic rate, leakage off, by quadrature.

    The SINR is capped at b_t/b_l, where the integrand has an essential
    singularity exp(-x (1/Omega_k + 1/Omega_r) / (rho (b_t - x b_l))).
    Substituting x = b_t v / (1 + b_l v) turns the cap into v -> inf and
    the singular exponent into exactly -c v, c = (1/Omega_k + 1/Omega_r)/rho:

      R = 1/(2 ln 2) * integral_0^inf
            e^{-x/(rho a_t Omega_t) - c v}
            / ((1 + x)(1 + x lambda3)) * b_t/(1 + b_l v)^2 dv,

    where lambda3 = 0 under perfect SIC.  The integrand decays like
    e^{-c v}, so the rule's scale is 1/c.
    """
    _require_no_leakage(config, "the weak-user rate integral")
    return _weak_rates(config, [(idx, compute_rate_intermediates(config, idx, mode),
                                 config.rho)])[0]


def _weak_rates(config, points):
    """The leakage-free rate of ``ergodic_rate_weak_numeric`` at each (idx,
    RateIntermediates, rho) of ``points``, with the nodes of every integral
    in one numpy pass.  Neither ``config.rho`` nor a leakage field is read."""
    if not points:
        return []
    params = []
    for idx, inter, rho in points:
        den_t = rho * config.a(idx.t) * config.omega(idx.t)
        c = 1.0 / (rho * config.omega(idx.k)) + 1.0 / (rho * config.omega(idx.r))
        params.append((config.b(idx.l), config.b(idx.t), den_t, c, inter.lambda3))
    columns = np.array(params).T

    def integrand(v, sizes):
        b_l, b_t, den_t, c, lam3 = np.repeat(columns, sizes, axis=1)
        w = 1.0 / (1.0 + b_l * v)
        x = b_t * v * w
        return (np.exp(-x / den_t - c * v) * b_t * w * w
                / ((1.0 + x) * (1.0 + x * lam3)))

    return [total / (2.0 * _LN2) for total in
            _integrate_log_trapezoid_grid(integrand, [1.0 / p[3] for p in params])]


def ergodic_rate_weak_highsnr(config: SystemConfig, idx: SignalIndex, mode: str) -> float:
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
    c = 1/(rho a_t Omega_t).  It does not grow without bound: as c -> 0 it
    rises to ln(1/b_l) / (2 ln 2) = (1/2) log2(1 + b_t/b_l), since
    b_l + b_t = 1; 1.1609640474 on the default config, which it reads
    within 1e-9 relative at 120 dB.  Both terms are formed
    as e^s Ei(-s) products, e^{c(1 - 1/b_l)} e^{c/b_l} Ei(-c/b_l) and
    e^c Ei(-c), so a large c (low SNR, weak power share) cannot overflow.
    """
    return _weak_ceiling(config, idx, mode, compute_rate_intermediates(config, idx, mode),
                         config.rho)


def _weak_ceiling(config, idx, mode, inter, rho):
    cap = config.b(idx.t) / config.b(idx.l)
    if sic_epsilon(mode) > 0.0:
        return _divided_difference(
            (inter.lambda3, 1.0),
            lambda lam: math.log1p(cap * lam),
            lambda lam: cap / (1.0 + cap * lam)) / (2.0 * _LN2)
    c = 1.0 / (rho * config.a(idx.t) * config.omega(idx.t))
    b_l = config.b(idx.l)
    return ((math.exp(c * (1.0 - 1.0 / b_l)) * expei_neg(c / b_l) - expei_neg(c))
            / (2.0 * _LN2))


def ergodic_rate_strong_asymptotic(config: SystemConfig, idx: SignalIndex,
                                   mode: str) -> float:
    """High-SNR expansion of the strong user's closed-form rate.

    Replaces each e^s Ei(-s) factor by its small-argument expansion
    (1 + s)(ln s + gamma), that is K(x) by

      K~(x) = -(1 + psi x)(ln(psi x) + gamma),

    and takes the same divided differences as the closed form:
    nu1 nu2 K~[1, nu1, nu2] / (2 ln 2), or -nu2 K~[1, nu2] / (2 ln 2) under
    perfect SIC.  The expansion converges in both modes.  Under imperfect
    SIC the residual channel (lambda1 > 0) caps the rate.  Under perfect
    SIC the chain's SINR tends to a_l g_l / (a_t g_t), a scaled ratio of
    two unit exponentials, and the rate to c ln c / ((c - 1) 2 ln 2) with
    c = a_l Omega_l / (a_t Omega_t), 1/(2 ln 2) at c = 1: 3.3554829241 on
    the default config (c = 100), which the expansion and the closed form
    read within 1.1e-8 relative at 120 dB.
    """
    return _strong_asymptotic(compute_rate_intermediates(config, idx, mode),
                              _psi(config, idx, config.rho))


def _strong_asymptotic(inter, psi):
    return _strong_rate(
        inter,
        lambda x: -(1.0 + psi * x) * (math.log(psi * x) + EULER_GAMMA),
        lambda x: -(1.0 / x + psi * (1.0 + math.log(psi * x) + EULER_GAMMA)),
        lambda x: 1.0 / (x * x) - psi / x)


def rate_grid(config: SystemConfig, rhos, signals, modes,
              asymptotic: bool = False) -> list:
    """The leakage-free rate of each signal and SIC mode at every linear SNR
    of ``rhos``.

    Returns one dict per entry of ``rhos``, keyed (mode, signal), with
    values (rate, asymptote); the asymptote is None unless ``asymptotic``
    is set.  A strong signal takes the closed form of
    ``ergodic_rate_strong_closed`` and the expansion of
    ``ergodic_rate_strong_asymptotic``, a weak one the integral of
    ``ergodic_rate_weak_numeric`` and the ceiling of
    ``ergodic_rate_weak_highsnr``.  The rate intermediates are formed once
    per pairing and mode, and the weak integrals of the whole grid share
    one numpy pass.  A signal whose pairing mirrors an earlier one's
    (``mirror_sources``) copies that signal's values, as in
    ``outage_grid``.  Neither ``config.rho`` nor a leakage field is read,
    and ``rhos`` are taken as given.
    """
    sources = mirror_sources(config, signals)
    keys = [(mode, s, SignalIndex.for_signal(s)) for mode in modes for s in signals]
    inters = {(mode, s): compute_rate_intermediates(config, idx, mode)
              for mode, s, idx in keys if sources[s] == s}
    weak = iter(_weak_rates(config, [(idx, inters[mode, s], rho) for rho in rhos
                                     for mode, s, idx in keys
                                     if idx.t == s and sources[s] == s]))
    table = []
    for rho in rhos:
        point = {}
        for mode, s, idx in keys:
            if sources[s] != s:
                point[mode, s] = point[mode, sources[s]]
                continue
            inter = inters[mode, s]
            if idx.l == s:
                psi = _psi(config, idx, rho)
                point[mode, s] = (_strong_closed(inter, psi),
                                  _strong_asymptotic(inter, psi) if asymptotic else None)
            else:
                point[mode, s] = (next(weak), _weak_ceiling(config, idx, mode, inter, rho)
                                  if asymptotic else None)
        table.append(point)
    return table


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
    if not (r0 > 0 and r1 > 0) or r0 == r1:
        raise ValueError("SNR points must be positive and distinct")
    return (rate_values[-1] - rate_values[-2]) / (math.log2(r1) - math.log2(r0))
