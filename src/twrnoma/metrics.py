"""The paper's six metrics, and the one route to each closed-form value.

Delay-limited mode sends each signal at its fixed target rate and loses
whatever lands in outage, so the system throughput is
sum_i (1 - P_i) R_i.  Delay-tolerant mode adapts to the channel and simply
accumulates the four ergodic rates.  Energy efficiency normalizes either
throughput by the energy spent across the two slots, 2 R / (T Pu + T Pr);
the transmit SNR of the statistical model and the Watt-level power budget
are independent knobs, matching how the curves are usually reported.

``analytic_grid`` decides how every closed-form value is formed, at every
SNR of a grid in one call; a one-point grid is the value at one SNR.
Rate-style metrics follow the reporting convention of the reference
curves: the analytic value is the leakage-free closed form (strong signals
by ``ergodic_rate_strong_closed``, weak ones by
``ergodic_rate_weak_numeric``, both through ``rate_grid``, which reads no
leakage field) while the simulation runs the configured leakage, making
the gap between the two the visible cost of cross-antenna interference.
"""

from __future__ import annotations

from .analysis import outage_grid
from .ergodic import rate_grid
from .model import SystemConfig, linear_snr_grid, sic_epsilon

METRICS = ("outage", "ergodic_rate", "throughput_dl", "throughput_dt",
           "ee_dl", "ee_dt")

_SIGNALS = (1, 2, 3, 4)


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


def analytic_grid(config: SystemConfig, rhos, metric: str, targets, modes,
                  asymptotic: bool = False) -> list:
    """Closed-form values of ``metric`` for each target and SIC mode at every
    linear SNR of ``rhos``.

    ``targets`` are signals 1..4 for ``outage`` and ``ergodic_rate`` and
    ``"system"`` for the throughput and energy-efficiency metrics.  Returns
    one dict per entry of ``rhos``, in that order, keyed (mode, target),
    with values (value, asymptote, feasible); the asymptote is None unless
    ``asymptotic`` is set, and feasible is False only where an outage
    target rate is out of reach for the power split.  As in ``mc_grid``,
    each entry of ``rhos`` must be positive with a finite reciprocal, and
    ``config.rho`` is not read.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
    per_signal = metric in ("outage", "ergodic_rate")
    targets, modes = tuple(targets), tuple(modes)
    for target in targets:
        if per_signal != (target in _SIGNALS):
            raise ValueError(f"metric {metric!r} cannot take target {target!r}: "
                             "outage and ergodic_rate take a signal 1..4, the "
                             "throughput and efficiency metrics 'system'")
    for mode in modes:
        sic_epsilon(mode)
    rhos = linear_snr_grid(rhos).tolist()
    signals = targets if per_signal else _SIGNALS
    if metric in ("outage", "throughput_dl", "ee_dl"):
        points = outage_grid(config, rhos, signals, modes, asymptotic)
    else:
        points = [{key: (value, asym, True) for key, (value, asym) in point.items()}
                  for point in rate_grid(config, rhos, signals, modes, asymptotic)]
    if per_signal:
        return points
    scale = energy_efficiency(1.0, config) if metric.startswith("ee_") else None
    return [{(mode, "system"): _system(config, metric, [point[mode, s] for s in _SIGNALS],
                                       asymptotic, scale)
             for mode in modes} for point in points]


def _system(config, metric, results, asymptotic, scale):
    """The system value of ``metric`` from the (value, asymptote, feasible)
    of x1..x4, rescaled to energy efficiency by ``scale`` unless it is None."""
    if metric.endswith("_dl"):
        rates = [config.rate(s) for s in _SIGNALS]
        value = throughput_delay_limited([p for p, _, _ in results], rates)
        asym = sum((1.0 - a) * rate
                   for (_, a, _), rate in zip(results, rates)) if asymptotic else None
    else:
        value = throughput_delay_tolerant([v for v, _, _ in results])
        asym = sum(a for _, a, _ in results) if asymptotic else None
    if scale is not None:
        value, asym = value * scale, None if asym is None else asym * scale
    return value, asym, all(feasible for _, _, feasible in results)

