"""Ergodic rates: exact integrals, closed forms, and high-SNR behavior.

The achievable rate of each exchange is (1/2) E[log2(1 + X)] with X the
minimum SINR along the surviving decode chain; the half is the two-slot
duplexing loss.  Writing the expectation as an integral of the SINR's
complementary CDF,

    R = 1/(2 ln 2) * integral_0^inf (1 - F_X(x)) / (1 + x) dx,

everything reduces to knowing 1 - F_X.  With the cross-group leakage off
the strong user's CCDF is exp(-x Psi) / ((1 + x L1)(1 + x L2)), which
integrates in closed form through e^s Ei(-s); the weak user's CCDF is
supported on (0, b_t/b_l) and is integrated numerically after a
substitution that absorbs the endpoint singularity.  With leakage on, the
strong user's CCDF is the product of the Laplace transforms of the two
composite interference terms, closed form, so its rate is one quadrature.

All quadratures run through QuadratureSpec so tolerances and the variable
transform are pinned in one place.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from scipy import integrate

from .model import SignalIndex, SystemConfig, signal_role
from .specfun import EULER_GAMMA, expei_neg, hypoexp_laplace

log = logging.getLogger(__name__)

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


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 2000
    transform: str = "rational"

    def __post_init__(self):
        if self.transform not in ("rational", "none"):
            raise ValueError(f"unknown transform {self.transform!r}")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


def _quad(fn, a, b, spec):
    out = integrate.quad(fn, a, b, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                         limit=spec.max_subdivisions, full_output=1)
    if len(out) > 3:
        raise QuadratureError(out[3], estimate=out[0], abserr=out[1])
    return out[0]


def _integrate_semi_infinite(fn, spec):
    """integral_0^inf fn(x) dx under the configured transform.

    The rational map x = t/(1-t) sends (0, 1) onto (0, inf) with Jacobian
    1/(1-t)^2 and keeps exponentially decaying integrands well behaved at
    both ends.
    """
    if spec.transform == "none":
        return _quad(fn, 0.0, math.inf, spec)

    def mapped(t):
        if t >= 1.0:
            return 0.0
        onemt = 1.0 - t
        return fn(t / onemt) / (onemt * onemt)

    return _quad(mapped, 0.0, 1.0, spec)


@dataclass(frozen=True)
class RateIntermediates:
    """Constants of the strong user's no-leakage SINR distribution.

    lambda1 = eps Omega_I / (b_l Omega_k) and lambda2 = a_t Omega_t /
    (a_l Omega_l) shape the CCDF denominator; lambda3 = eps Omega_I /
    (a_t Omega_t) plays the same role for the weak user's high-SNR limit.
    psi is the exponential decay rate.  a_coef, b_coef, c_coef are the
    partial-fraction weights of 1/((1+u)(1+u lambda1)(1+u lambda2)) on
    1/(1+u), 1/(1+u lambda1) and 1/(1+u lambda2).  Near the unit pole,
    |lambda2 - 1| < PAIR_WINDOW, the weights on 1/(1+u) and 1/(1+u lambda2)
    grow like 1/(lambda2 - 1) and cancel, so the two poles are kept
    together: c_coef is 0 and d_coef weights the pair 1/((1+u)(1+u lambda2)),
    the repeated pole 1/(1+u)^2 at lambda2 = 1; elsewhere d_coef is 0.  The
    four sum to 1.
    w_rate_residual and w_rate_self are the residual and self interference
    rates of the leakage path (the first infinite under perfect SIC, where
    the residual leg vanishes).
    """

    lambda1: float
    lambda2: float
    lambda3: float
    psi: float
    a_coef: float
    b_coef: float
    c_coef: float
    d_coef: float
    w_rate_residual: float
    w_rate_self: float


def _on_unit_pole(lam):
    return abs(lam - 1.0) < 1e-9


# Outside this distance of the unit pole the simple-pole weights lose at
# most ~2e-15/|lambda2 - 1| of the rate to cancellation, 2e-14 at the edge;
# inside it the pair term's 8-node Gauss-Legendre mean is exact to round-off.
PAIR_WINDOW = 0.1
# 8-node Gauss-Legendre rule on [-1, 1] as (node, weight) for the nodes
# +-node; numpy.polynomial.legendre.leggauss(8) gives the same values
GAUSS_LEGENDRE_8 = ((0.18343464249564978, 0.36268378337836166),
                    (0.525532409916329, 0.3137066458778869),
                    (0.7966664774136267, 0.22238103445337443),
                    (0.9602898564975362, 0.10122853629037706))


def _separate(lam1, lam2):
    # The partial-fraction weights diverge when the two rates collide with
    # each other or lambda1 with the 1/(1+u) pole, so nudge those apart the
    # way the hypoexponential density's rates are; lambda2 on the unit pole
    # has an exact repeated-pole form instead.
    for _ in range(200):
        moved = False
        if abs(lam1 - lam2) < 1e-9 * max(abs(lam1), abs(lam2), 1e-300):
            if lam2 <= lam1:
                old, lam2 = lam2, lam2 * (1.0 - 1e-7)
                log.debug("separated rate constants: second %.17g -> %.17g", old, lam2)
            else:
                old, lam1 = lam1, lam1 * (1.0 - 1e-7)
                log.debug("separated rate constants: first %.17g -> %.17g", old, lam1)
            moved = True
        if _on_unit_pole(lam1):
            old, lam1 = lam1, lam1 * (1.0 - 1e-7)
            log.debug("moved rate constant off the unit pole: %.17g -> %.17g",
                      old, lam1)
            moved = True
        if not moved:
            return lam1, lam2
    raise ValueError(f"could not separate rate constants {lam1!r}, {lam2!r}")


def compute_rate_intermediates(config: SystemConfig, idx: SignalIndex) -> RateIntermediates:
    a_l, omega_l = config.a(idx.l), config.omega(idx.l)
    a_t, omega_t = config.a(idx.t), config.omega(idx.t)
    b_l = config.b(idx.l)
    omega_k = config.omega(idx.k)
    eps = config.epsilon

    lam1 = eps * config.omega_I / (b_l * omega_k)
    lam2 = a_t * omega_t / (a_l * omega_l)
    if lam1 > 0:
        lam1, lam2 = _separate(lam1, lam2)
    lam3 = eps * config.omega_I / (a_t * omega_t)
    psi = (a_l * omega_l + b_l * omega_k) / (config.rho * a_l * b_l * omega_l * omega_k)

    if abs(lam2 - 1.0) < PAIR_WINDOW:
        # 1/((1+u)(1+u lambda1)(1+u lambda2))
        #     = a/(1+u) + b/(1+u lambda1) + d/((1+u)(1+u lambda2))
        b_coef = lam1 * lam1 / ((lam1 - 1.0) * (lam1 - lam2))
        a_coef = -lam1 / ((lam1 - 1.0) * (lam1 - lam2))
        c_coef = 0.0
        d_coef = lam2 / (lam2 - lam1)
    else:
        a_coef = 1.0 / (lam1 * lam2 - lam2 - lam1 + 1.0)
        b_coef = (a_coef * (lam1 - lam1 * lam2) - lam1) / (lam2 - lam1)
        c_coef = 1.0 - a_coef - b_coef
        d_coef = 0.0

    rho = config.rho
    w_residual = 1.0 / (eps * rho * config.omega_I) if eps > 0 else math.inf
    w_self = (1.0 / (rho * config.varpi2 * omega_k)
              if config.varpi2 > 0 else math.inf)

    return RateIntermediates(lambda1=lam1, lambda2=lam2, lambda3=lam3, psi=psi,
                             a_coef=a_coef, b_coef=b_coef, c_coef=c_coef,
                             d_coef=d_coef, w_rate_residual=w_residual,
                             w_rate_self=w_self)


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


def _pair_integral(inter: RateIntermediates, j2) -> float:
    """integral_0^inf e^{-psi u} / ((1+u)(1+lambda2 u)) du, no cancellation.

    With nu = 1/lambda2 and K(x) = integral_0^inf e^{-psi u}/(u+x) du, the
    integral is nu (K(1) - K(nu))/(nu - 1): nu times the mean of
    j2 = -K' over [1, nu], taken by Gauss-Legendre.  j2 is smooth on that
    short interval, so the divided difference keeps its digits however
    close lambda2 sits to 1.  Passing the -K' of an expansion of K gives
    the same term of that expansion.
    """
    nu = 1.0 / inter.lambda2
    mid, half = 0.5 * (nu + 1.0), 0.5 * (nu - 1.0)
    mean = sum(w * (j2(mid - half * t) + j2(mid + half * t))
               for t, w in GAUSS_LEGENDRE_8)
    return nu * 0.5 * mean


def ergodic_rate_strong_closed(config: SystemConfig, idx: SignalIndex) -> float:
    """Closed-form strong-user ergodic rate, leakage off.

    R = -1/(2 ln 2) [ A e^psi Ei(-psi)
                      + (B/lambda1) e^{psi/lambda1} Ei(-psi/lambda1)
                      + (C/lambda2) e^{psi/lambda2} Ei(-psi/lambda2)
                      - D (1 + psi e^psi Ei(-psi)) ].

    Under perfect SIC lambda1 = 0 and its partial-fraction weight B
    vanishes with it, so that term is dropped rather than evaluated as
    0/0.  Near the unit pole (|lambda2 - 1| < PAIR_WINDOW, then C = 0) the
    D term is the pair integral_0^inf e^{-psi u}/((1+u)(1+lambda2 u)) du,
    1 + psi e^psi Ei(-psi) at lambda2 = 1; elsewhere D = 0.
    """
    _require_no_leakage(config, "the closed-form strong-user rate")
    inter = compute_rate_intermediates(config, idx)
    psi = inter.psi
    acc = inter.a_coef * expei_neg(psi)
    if inter.d_coef:
        # j2(x) = integral_0^inf e^{-psi u}/(u+x)^2 du = 1/x + psi e^{psi x} Ei(-psi x)
        acc -= inter.d_coef * _pair_integral(
            inter, lambda x: 1.0 / x + psi * expei_neg(psi * x))
    if inter.lambda1 > 0.0:
        acc += (inter.b_coef / inter.lambda1) * expei_neg(inter.psi / inter.lambda1)
    acc += (inter.c_coef / inter.lambda2) * expei_neg(inter.psi / inter.lambda2)
    return -acc / (2.0 * _LN2)


def ergodic_rate_strong_quadrature(config: SystemConfig, idx: SignalIndex,
                                   quad: QuadratureSpec | None = None) -> float:
    """Strong-user rate by direct quadrature of the no-leakage CCDF.

    Independent of the Ei evaluation; agreement with the closed form is
    the primary correctness check for both.
    """
    _require_no_leakage(config, "the quadrature strong-user rate")
    quad = quad or QuadratureSpec()
    inter = compute_rate_intermediates(config, idx)

    def integrand(u):
        return strong_sinr_ccdf(inter, u) / (1.0 + u)

    return _integrate_semi_infinite(integrand, quad) / (2.0 * _LN2)


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
    exact at tied rates, so the raw rates are used as they are.

    The factorization treats the |h_k|^2 appearing inside W, Z, and the
    decode numerator as independent draws, the same simplification the
    closed analysis makes, so this is the right reference for it but is a
    biased (percent-level) approximation of the simulated system.
    """
    if x < 0:
        raise ValueError("SINR argument must be nonnegative")
    rho = config.rho
    z_rates = (1.0 / (rho * config.a(idx.t) * config.omega(idx.t)),
               1.0 / (rho * config.varpi1 * config.a(idx.k) * config.omega(idx.k)),
               1.0 / (rho * config.varpi1 * config.a(idx.r) * config.omega(idx.r)))
    w_rates = (1.0 / (config.epsilon * rho * config.omega_I),
               1.0 / (rho * config.varpi2 * config.omega(idx.k)))
    s_z = x / (rho * config.a(idx.l) * config.omega(idx.l))
    s_w = x / (rho * config.b(idx.l) * config.omega(idx.k))
    return (math.exp(-s_z - s_w) * hypoexp_laplace(z_rates, s_z)
            * hypoexp_laplace(w_rates, s_w))


def ergodic_rate_strong_numeric(config: SystemConfig, idx: SignalIndex,
                                quad: QuadratureSpec | None = None) -> float:
    """Strong-user ergodic rate with leakage, by a single quadrature.

    R = 1/(2 ln 2) * integral_0^inf (1 - F(x)) / (1 + x) dx with the
    closed-form CCDF of ``strong_rate_ccdf_leakage``, under ``quad``;
    QuadratureError if it does not converge.

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
    quad = quad or QuadratureSpec()

    def integrand(x):
        return strong_rate_ccdf_leakage(config, idx, x) / (1.0 + x)

    return _integrate_semi_infinite(integrand, quad) / (2.0 * _LN2)


def ergodic_rate_weak_numeric(config: SystemConfig, idx: SignalIndex,
                              quad: QuadratureSpec | None = None) -> float:
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
    quad = quad or QuadratureSpec()
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

    return _quad(mapped, 0.0, 1.0, quad) / (2.0 * _LN2)


def ergodic_rate_weak_highsnr(config: SystemConfig, idx: SignalIndex) -> float:
    """Weak-user rate ceiling as rho grows without bound.

    Imperfect SIC: the SINR converges to min(a_t |h_t|^2 / |g|^2, b_t/b_l)
    and the ceiling is [ln(1 + X) - ln(1 + X lambda3)] / (2 (1 - lambda3)
    ln 2) with X = b_t/b_l, SNR-free.  Near lambda3 = 1 that ratio is a
    0/0 cancellation and switches to its power series in (1 - lambda3).
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
        d = 1.0 - inter.lambda3
        if abs(d) < 1e-9:
            base = cap / (1.0 + cap)
            total = 0.0
            term = 1.0
            for n in range(1, 60):
                term = term * base if n > 1 else base
                contrib = (d ** (n - 1)) * term / n
                total += contrib
                if abs(contrib) < 1e-18 * abs(total):
                    break
            return total / (2.0 * _LN2)
        return (math.log1p(cap) - math.log1p(cap * inter.lambda3)) / (2.0 * d * _LN2)
    c = 1.0 / (config.rho * config.a(idx.t) * config.omega(idx.t))
    b_l = config.b(idx.l)
    return ((math.exp(c * (1.0 - 1.0 / b_l)) * expei_neg(c / b_l) - expei_neg(c))
            / (2.0 * _LN2))


def weak_highsnr_sinr_cdf(config: SystemConfig, idx: SignalIndex, x):
    """Limiting CDF of the weak user's SINR under imperfect SIC.

    F(x) = 1 - 1/(1 + x lambda3) on 0 <= x < b_t/b_l, with the remaining
    mass 1/(1 + lambda3 b_t/b_l) landing as an atom at the cap.
    """
    import numpy as np

    inter = compute_rate_intermediates(config, idx)
    if inter.lambda3 <= 0.0:
        raise ValueError("the limiting distribution is degenerate at the cap "
                         "under perfect SIC")
    cap = config.b(idx.t) / config.b(idx.l)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("SINR argument must be nonnegative")
    out = np.where(x < cap, 1.0 - 1.0 / (1.0 + x * inter.lambda3), 1.0)
    return float(out) if out.ndim == 0 else out


def ergodic_rate_strong_asymptotic(config: SystemConfig, idx: SignalIndex) -> float:
    """High-SNR expansion of the strong user's closed-form rate.

    Replaces each e^s Ei(-s) factor by its small-argument expansion
    (1 + s)(ln s + gamma), leaving

      -1/(2 ln 2) [ A (1 + psi)(ln psi + gamma)
                    + (B/lambda1)(1 + psi/lambda1)(ln(psi/lambda1) + gamma)
                    + (C/lambda2)(1 + psi/lambda2)(ln(psi/lambda2) + gamma)
                    - D (1 + psi + psi (ln psi + gamma)) ],

    with the B term absent under perfect SIC and the D term, the pair
    integral over the same expansion, present only near the unit pole; at
    lambda2 = 1 it reads 1 + psi + psi (ln psi + gamma).  The D term equals
    the A and C terms it replaces, so the expansion is continuous across
    the window edge.  The residual channel
    keeps lambda1 > 0 and caps the rate; with it removed the expression
    grows like (1/2) log2(rho), unit multiplexing gain over the two slots.
    """
    inter = compute_rate_intermediates(config, idx)

    def piece(coef, lam):
        s = inter.psi / lam
        return (coef / lam) * (1.0 + s) * (math.log(s) + EULER_GAMMA)

    psi = inter.psi
    acc = inter.a_coef * (1.0 + psi) * (math.log(psi) + EULER_GAMMA)
    if inter.d_coef:
        # -d/dx of the expansion -(1 + psi x)(ln(psi x) + gamma) of K(x)
        acc -= inter.d_coef * _pair_integral(
            inter, lambda x: 1.0 / x + psi * (1.0 + math.log(psi * x) + EULER_GAMMA))
    if inter.lambda1 > 0.0:
        acc += piece(inter.b_coef, inter.lambda1)
    acc += piece(inter.c_coef, inter.lambda2)
    return -acc / (2.0 * _LN2)


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
