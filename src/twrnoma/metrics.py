"""The paper's six metrics, and the one route to each closed-form value.

Delay-limited mode sends each signal at its fixed target rate and loses
whatever lands in outage, so the system throughput is
sum_i (1 - P_i) R_i.  Delay-tolerant mode adapts to the channel and simply
accumulates the four ergodic rates.  Energy efficiency normalizes either
throughput by the energy spent across the two slots, 2 R / (T Pu + T Pr);
the transmit SNR of the statistical model and the Watt-level power budget
are independent knobs, matching how the curves are usually reported.

``analytic`` decides how every closed-form value is formed.  Rate-style
metrics follow the reporting convention of the reference curves: the
analytic value is the leakage-free closed form (strong signals by
``ergodic_rate_strong_closed``, weak ones by ``ergodic_rate_weak_numeric``)
while the simulation runs the configured leakage, making the gap between
the two the visible cost of cross-antenna interference.
"""

from __future__ import annotations

import functools

from .analysis import outage_probability
from .ergodic import (ergodic_rate_strong_asymptotic, ergodic_rate_strong_closed,
                      ergodic_rate_weak_highsnr, ergodic_rate_weak_numeric)
from .model import SignalIndex, SystemConfig

METRICS = ("outage", "ergodic_rate", "throughput_dl", "throughput_dt",
           "ee_dl", "ee_dt")

_SIGNALS = (1, 2, 3, 4)

# a sweep asks for every signal and SIC mode of one grid point in a row, so
# the leakage-free twin of that point's config is built once, not per row
_leakage_free = functools.lru_cache(maxsize=1)(SystemConfig.without_leakage)


def throughput_delay_limited(outages, rates) -> float:
    """Fixed-rate system throughput from per-signal outage probabilities.

    outages and rates align positionally, one entry per signal.
    """
    outages = tuple(float(p) for p in outages)
    rates = tuple(float(r) for r in rates)
    if len(outages) != len(rates):
        raise ValueError(f"got {len(outages)} outage probabilities for "
                         f"{len(rates)} rates")
    for p in outages:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"outage probability {p!r} outside [0, 1]")
    for r in rates:
        if r < 0.0:
            raise ValueError(f"target rate {r!r} is negative")
    return sum((1.0 - p) * r for p, r in zip(outages, rates))


def throughput_delay_tolerant(rates) -> float:
    """Rate-adaptive system throughput: the sum of ergodic rates."""
    rates = tuple(float(r) for r in rates)
    for r in rates:
        if r < 0.0:
            raise ValueError(f"ergodic rate {r!r} is negative")
    return sum(rates)


def energy_efficiency(throughput: float, config: SystemConfig) -> float:
    """Bits per channel use per unit energy over one two-slot exchange."""
    if config.t_slot <= 0 or config.pu_watts <= 0 or config.pr_watts <= 0:
        raise ValueError("slot duration and both powers must be positive")
    return 2.0 * throughput / (config.t_slot * config.pu_watts
                               + config.t_slot * config.pr_watts)


def _rate(config, signal, mode, asymptotic):
    idx = SignalIndex.for_signal(signal)
    if idx.l == signal:
        closed, limit = ergodic_rate_strong_closed, ergodic_rate_strong_asymptotic
    else:
        closed, limit = ergodic_rate_weak_numeric, ergodic_rate_weak_highsnr
    return closed(config, idx, mode), limit(config, idx, mode) if asymptotic else None


def analytic(config: SystemConfig, metric: str, target, mode: str,
             asymptotic: bool = False):
    """Closed-form value of ``metric`` for ``target`` at ``config`` under SIC
    mode ``mode``.

    ``target`` is a signal 1..4 for ``outage`` and ``ergodic_rate`` and
    ``"system"`` for the throughput and energy-efficiency metrics.  Returns
    (value, asymptote, feasible); the asymptote is None unless
    ``asymptotic`` is set, and feasible is False only where an outage
    target rate is out of reach for the power split.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
    if (metric in ("outage", "ergodic_rate")) != (target in _SIGNALS):
        raise ValueError(f"metric {metric!r} cannot take target {target!r}: "
                         "outage and ergodic_rate take a signal 1..4, the "
                         "throughput and efficiency metrics 'system'")
    if metric == "outage":
        res = outage_probability(config, target, mode)
        return res.p_exact, res.p_asymptotic if asymptotic else None, res.feasible
    if metric == "ergodic_rate":
        return (*_rate(_leakage_free(config), target, mode, asymptotic), True)
    if metric.endswith("_dl"):
        results = [outage_probability(config, s, mode) for s in _SIGNALS]
        rates = [config.rate(s) for s in _SIGNALS]
        value = throughput_delay_limited([r.p_exact for r in results], rates)
        asym = sum((1.0 - r.p_asymptotic) * rate
                   for r, rate in zip(results, rates)) if asymptotic else None
        feasible = all(r.feasible for r in results)
    else:
        zero = _leakage_free(config)
        pairs = [_rate(zero, s, mode, asymptotic) for s in _SIGNALS]
        value = throughput_delay_tolerant([v for v, _ in pairs])
        asym = sum(a for _, a in pairs) if asymptotic else None
        feasible = True
    if metric.startswith("ee_"):
        scale = energy_efficiency(1.0, config)
        value, asym = value * scale, None if asym is None else asym * scale
    return value, asym, feasible
