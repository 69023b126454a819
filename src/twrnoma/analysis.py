"""Closed-form outage probabilities for both user roles, with asymptotes.

A strong user's exchange survives when the relay decodes its uplink symbol
and the paired near user clears both downlink SIC stages.  A weak user's
exchange additionally needs the relay's own SIC stage and the far user's
direct decode.  Every stage is a Rayleigh SINR threshold test, so each
probability reduces to exponential averages over hypoexponential
interference, which close as products of its Laplace transform.

Residual interference from imperfect SIC leaves both probabilities floored
at high SNR; the asymptotic forms make the floor explicit and show the
diversity order is zero whenever any leakage path is active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (SignalIndex, SystemConfig, gamma_threshold, mirror_sources,
                    sic_epsilon)
from .specfun import hypoexp_laplace, term_rates

# the linear SNR at which an asymptote is read as the error floor
FLOOR_RHO = 1e12
_UNIT_SLACK = 1e-9


@dataclass(frozen=True)
class OutageIntermediates:
    """Threshold geometry shared by the exact and asymptotic forms.

    beta_l = gth_l / (rho a_l) and beta_t = gth_t / (rho a_t) rescale the
    SINR targets into channel-gain units.  tau_l and xi_t are the gain
    levels the near user needs for its own symbol and for the weak symbol
    it strips first; both exist only while the power split leaves the
    corresponding decode feasible, and are +inf otherwise.  theta_l is
    their maximum, varphi_t the composite rate of the far-user bound.
    uplink_rates are the exponential rates of the relay's interference on
    the strong uplink symbol, cross_rates those of its cross-antenna part
    alone; with the cross layer off (varpi1 = 0) the latter is empty and
    the former holds the in-pair rate only.  rho is the linear SNR they
    were formed at: one set serves both signals of a pairing and every SIC
    mode at that SNR.
    """

    rho: float
    beta_l: float
    beta_t: float
    tau_l: float
    xi_t: float
    theta_l: float
    varphi_t: float
    uplink_rates: tuple
    cross_rates: tuple
    strong_feasible: bool
    weak_feasible: bool


@dataclass(frozen=True)
class OutageResult:
    p_exact: float
    p_asymptotic: float
    feasible: bool
    intermediates: OutageIntermediates


@dataclass(frozen=True)
class AsymptoticOutage:
    """High-SNR approximation at the configured rho plus its limit value.

    value is the approximation evaluated as-is; it is not clamped and can
    leave [0, 1] at low SNR, which in_unit_interval reports.  floor is the
    same expression pushed to rho = FLOOR_RHO, the error floor both SIC
    modes converge to.
    """

    value: float
    floor: float
    in_unit_interval: bool


def compute_outage_intermediates(config: SystemConfig, idx: SignalIndex,
                                 rho: float) -> OutageIntermediates:
    """The intermediates of pairing ``idx`` at linear SNR ``rho``; ``config.rho``
    is not read."""
    a_t, omega_t = config.a(idx.t), config.omega(idx.t)
    a_k, omega_k = config.a(idx.k), config.omega(idx.k)
    a_r, omega_r = config.a(idx.r), config.omega(idx.r)
    omega_l = config.omega(idx.l)
    b_l, b_t = config.b(idx.l), config.b(idx.t)
    gth_l = gamma_threshold(config.rate(idx.l))
    gth_t = gamma_threshold(config.rate(idx.t))

    beta_l = gth_l / (rho * config.a(idx.l))
    beta_t = gth_t / (rho * a_t)

    # Downlink decodes are possible at any SNR only while the power split
    # dominates the self- and residual-interference scaled thresholds.
    den_tau = b_l - config.varpi2 * gth_l
    den_xi = b_t - (b_l + config.varpi2) * gth_t
    tau_l = gth_l / (rho * den_tau) if den_tau > 0 else math.inf
    xi_t = gth_t / (rho * den_xi) if den_xi > 0 else math.inf
    theta_l = max(tau_l, xi_t)

    varphi_t = (omega_l + rho * beta_l * a_t * omega_t) / (omega_l * omega_t)

    cross = term_rates(rho * config.varpi1 * a_k * omega_k,
                       rho * config.varpi1 * a_r * omega_r)
    uplink = term_rates(rho * a_t * omega_t) + cross

    return OutageIntermediates(
        rho=rho, beta_l=beta_l, beta_t=beta_t, tau_l=tau_l, xi_t=xi_t,
        theta_l=theta_l, varphi_t=varphi_t,
        uplink_rates=uplink, cross_rates=cross,
        strong_feasible=den_tau > 0 and den_xi > 0,
        weak_feasible=den_xi > 0)


def _checked(raw: float) -> float:
    if not (-_UNIT_SLACK <= raw <= 1.0 + _UNIT_SLACK):
        raise ValueError(f"closed-form outage fell outside [0, 1]: {raw!r}")
    return min(1.0, max(0.0, raw))


def _uplink_success(config, idx, inter, with_exp):
    """Probability the relay clears the strong user's uplink threshold.

    With s = beta_l/Omega_l this is E[exp(-s (Z + 1))] = exp(-s) L_Z(s),
    where Z is the composite interference and L_Z its Laplace transform.
    with_exp=False sends the exponential prefactor to 1; every remaining
    ratio is scale invariant in rho, so that already sits at the floor.
    """
    s = inter.beta_l / config.omega(idx.l)
    lead = math.exp(-s) if with_exp else 1.0
    return lead * hypoexp_laplace(inter.uplink_rates, s)


def _near_user_success(config, idx, inter, eps):
    """Probability the near user strips the weak symbol and decodes its own.

    Under perfect SIC (eps = 0) this is exp(-theta_l/Omega_k).  The residual
    channel subtracts a second term whose exponent is kept combined,
    exp(-theta_l/Omega_k - (theta_l - tau_l)/(eps rho tau_l Omega_I)),
    which stays bounded even when Omega_I is driven to zero.
    """
    omega_k = config.omega(idx.k)
    lead = math.exp(-inter.theta_l / omega_k)
    if eps == 0.0 or inter.tau_l == 0.0:
        # a zero target rate (tau_l = 0) has nothing left to subtract
        return lead
    c = eps * inter.rho * inter.tau_l * config.omega_I
    combined = math.exp(-inter.theta_l / omega_k
                        - (inter.theta_l - inter.tau_l) / c)
    return lead - (c / (omega_k + c)) * combined


def _weak_theta1(config, idx, inter, eps, with_exp):
    omega_l, omega_t = config.omega(idx.l), config.omega(idx.t)
    s = inter.beta_l / omega_l + inter.beta_t * inter.varphi_t
    scale = 1.0 + eps * inter.beta_t * inter.rho * inter.varphi_t * config.omega_I
    lead = math.exp(-s) if with_exp else 1.0
    return (lead * hypoexp_laplace(inter.cross_rates, s)
            / (inter.varphi_t * omega_t * scale))


def _outage(config, idx, inter, signal, mode, asymptotic):
    """(p_exact, p_asymptotic, feasible) of ``signal`` under ``mode`` from the
    intermediates of its pairing; p_asymptotic is None unless ``asymptotic``.

    The strong user needs the relay to clear its uplink threshold and the
    paired near user to clear both downlink SIC stages.  The weak symbol
    must clear its threshold at the relay, at the paired near user, and at
    the far user itself; the far-user and relay bounds fold into the single
    composite rate varphi_t, leaving
    1 - Theta_1 exp(-xi_t/Omega_k - xi_t/Omega_r).
    """
    eps = sic_epsilon(mode)
    if idx.l == signal:
        if not inter.strong_feasible:
            return 1.0, 1.0 if asymptotic else None, False
        raw = 1.0 - (_uplink_success(config, idx, inter, with_exp=True)
                     * _near_user_success(config, idx, inter, eps))
        asym = _asymptotic_strong_raw(config, idx, inter, eps) if asymptotic else None
    else:
        if not inter.weak_feasible:
            return 1.0, 1.0 if asymptotic else None, False
        theta1 = _weak_theta1(config, idx, inter, eps, with_exp=True)
        tail = math.exp(-inter.xi_t / config.omega(idx.k)
                        - inter.xi_t / config.omega(idx.r))
        raw = 1.0 - theta1 * tail
        asym = _asymptotic_weak_raw(config, idx, inter, eps) if asymptotic else None
    return _checked(raw), asym, True


def outage_grid(config: SystemConfig, rhos, signals, modes,
                asymptotic: bool = False) -> list:
    """Exact outage of each signal and SIC mode at every linear SNR of ``rhos``.

    Returns one dict per entry of ``rhos``, keyed (mode, signal), with
    values (p_exact, p_asymptotic, feasible); p_asymptotic is None unless
    ``asymptotic`` is set.  The intermediates are formed once per SNR and
    pairing, and serve both of its signals and every mode.  A signal whose
    pairing mirrors an earlier one's (``mirror_sources``: x3 and x4 in a
    symmetric config) copies that signal's values, which it equals bit for
    bit, and forms nothing.  ``config.rho`` is not read, and ``rhos`` are
    taken as given.
    """
    sources = mirror_sources(config, signals)
    table = []
    for rho in rhos:
        inters, point = {}, {}
        for s in signals:
            if sources[s] != s:
                for mode in modes:
                    point[mode, s] = point[mode, sources[s]]
                continue
            idx = SignalIndex.for_signal(s)
            if idx not in inters:
                inters[idx] = compute_outage_intermediates(config, idx, rho)
            for mode in modes:
                point[mode, s] = _outage(config, idx, inters[idx], s, mode, asymptotic)
        table.append(point)
    return table


def outage_probability(config: SystemConfig, signal: int, mode: str) -> OutageResult:
    """Exact outage probability of signal 1..4 under SIC mode ``mode`` at
    ``config.rho``, with its asymptote and the intermediates it used."""
    idx = SignalIndex.for_signal(signal)
    inter = compute_outage_intermediates(config, idx, config.rho)
    return OutageResult(*_outage(config, idx, inter, signal, mode, True), inter)


def _asymptotic_strong_raw(config, idx, inter, eps):
    up = _uplink_success(config, idx, inter, with_exp=False)
    if eps == 0.0 or inter.tau_l == 0.0:
        return 1.0 - up
    omega_k = config.omega(idx.k)
    c = eps * inter.rho * inter.tau_l * config.omega_I
    near = (1.0 - inter.theta_l / omega_k
            - (c / (omega_k + c)) * (1.0 - inter.theta_l * (omega_k + c) / (c * omega_k)))
    return 1.0 - up * near


def _asymptotic_weak_raw(config, idx, inter, eps):
    # Both trailing exponentials tend to 1; what is left of Theta_1 is
    # rho-free, so again value and floor coincide up to O(1/rho) terms.
    return 1.0 - _weak_theta1(config, idx, inter, eps, with_exp=False)


def outage_asymptotic(config: SystemConfig, signal: int, mode: str) -> AsymptoticOutage:
    """High-SNR outage approximation and the induced error floor.

    The exact expressions linearize around 1/rho = 0: exponential factors
    collapse to 1 (weak user, and the strong user under perfect SIC) or to
    their first-order expansion (strong user with residual interference).
    The approximation is reported unclamped; at low SNR the linearization
    can overshoot 1, and in_unit_interval flags that honestly rather than
    hiding it.
    """
    value, floor = (point[mode, signal][1] for point in
                    outage_grid(config, (config.rho, FLOOR_RHO), (signal,), (mode,), True))
    return AsymptoticOutage(value=value, floor=floor,
                            in_unit_interval=0.0 <= value <= 1.0)


def diversity_order_estimate(rho_grid, outage_values) -> float:
    """Negative log-log slope of outage versus SNR over the last two points.

    A strictly positive limit is the diversity order; residual interference
    pins it at zero once the floor dominates.
    """
    if len(rho_grid) != len(outage_values):
        raise ValueError("rho grid and outage values must align")
    if len(rho_grid) < 2:
        raise ValueError("need at least two points for a slope")
    r0, r1 = rho_grid[-2], rho_grid[-1]
    p0, p1 = outage_values[-2], outage_values[-1]
    if not (r0 > 0 and r1 > 0) or r0 == r1:
        raise ValueError("SNR points must be positive and distinct")
    if not (p0 > 0 and p1 > 0):
        raise ValueError("outage values must be positive to take logs")
    return -(math.log(p1) - math.log(p0)) / (math.log(r1) - math.log(r0))
