"""The paper's six metrics, and the one route to each closed-form value.

Delay-limited mode sends each signal at its fixed target rate and loses
whatever lands in outage, so the system throughput is
sum_i (1 - P_i) R_i.  Delay-tolerant mode adapts to the channel and simply
accumulates the four ergodic rates.  Energy efficiency normalizes either
throughput by the energy spent across the two slots, 2 R / (T Pu + T Pr);
the transmit SNR of the statistical model and the Watt-level power budget
are independent knobs, matching how the curves are usually reported.

``analytic_grid`` decides how every closed-form value is formed, at every
SNR of a grid in one call; a one-point grid is the value at one SNR.  It
takes the request ``mc_grid`` takes and answers it key for key, the
orthogonal baseline's outage and rate included, and it alone decides which
signals mirror others (``mirror_sources``).  Rate-style metrics follow the reporting convention of the reference
curves: the analytic value is the leakage-free closed form (strong signals
by ``ergodic_rate_strong_closed``, weak ones by
``ergodic_rate_weak_numeric``, both through ``rate_grid``, which reads no
leakage field) while the simulation runs the configured leakage, making
the gap between the two the visible cost of cross-antenna interference.
"""

from __future__ import annotations

import math

from .analysis import outage_grid
from .ergodic import _LN2, rate_grid
from .model import (OMA_PARTNER, ConfigError, SystemConfig, linear_snr_grid, mirror_sources,
                    oma_threshold, sic_epsilon)
from .specfun import expei_neg

METRICS = ("outage", "ergodic_rate", "throughput_dl", "throughput_dt",
           "ee_dl", "ee_dt")

# the metrics that take a signal as target; the others take "system"
PER_SIGNAL = ("outage", "ergodic_rate")

# the metrics formed from outage events; the others from ergodic rates
COUNTED = ("outage", "throughput_dl", "ee_dl")

SIGNALS = (1, 2, 3, 4)


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


def check_request(metric: str, targets, modes, oma: bool = False):
    """``targets``, ``modes`` and the signals the request reads, as tuples
    without repeats, once ``metric`` is one of METRICS, each target suits
    it, each mode is a SIC mode and, with ``oma``, the metric has an
    orthogonal baseline; ConfigError otherwise.

    ``outage`` and ``ergodic_rate`` take signals 1..4 and have a baseline;
    the throughput and energy-efficiency metrics take ``"system"``.  A
    request reads its signal targets, all four for ``"system"``, and none
    without a mode.  Its answer holds exactly one (mode, target) key per
    mode and target, and with ``oma`` ("oma", target) per target and
    ("oma", "system").  The one request check of ``analytic_grid``,
    ``montecarlo.mc_grid`` and ``sweep.SweepSpec``.
    """
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}; choose from {METRICS}")
    if oma and metric not in PER_SIGNAL:
        raise ConfigError(f"the orthogonal baseline has outage and ergodic_rate "
                          f"estimates only, not {metric!r}")
    targets, modes = tuple(dict.fromkeys(targets)), tuple(dict.fromkeys(modes))
    for target in targets:
        if (metric in PER_SIGNAL) != (target in SIGNALS):
            raise ConfigError(f"metric {metric!r} cannot take target {target!r}: "
                              "outage and ergodic_rate take a signal 1..4, the "
                              "throughput and efficiency metrics 'system'")
    for mode in modes:
        sic_epsilon(mode)
    signals = (SIGNALS if "system" in targets else targets) if modes else ()
    return targets, modes, signals


def analytic_grid(config: SystemConfig, rhos, metric: str, targets, modes,
                  asymptotic: bool = False, *, oma: bool = False) -> list:
    """Closed-form values of ``metric`` for each target and SIC mode at every
    linear SNR of ``rhos``.

    ``metric``, ``targets``, ``modes`` and ``oma`` are those of
    ``check_request``.  Returns one dict per entry of ``rhos``, in that
    order, holding exactly the keys of the request, as ``mc_grid`` does,
    with values (value, asymptote, feasible); the asymptote is None unless
    ``asymptotic`` is set, and always for the baseline, and feasible is
    False only where an outage target rate is out of reach for the power
    split.  ``outage_grid`` or ``rate_grid`` forms only the signals
    ``mirror_sources`` maps to themselves; the others copy them.  As in
    ``mc_grid``, each entry of ``rhos`` must be positive with a finite
    reciprocal, and ``config.rho`` is not read.
    """
    targets, modes, signals = check_request(metric, targets, modes, oma)
    rhos = linear_snr_grid(rhos).tolist()
    sources = mirror_sources(config, signals)
    formed = (outage_grid if metric in COUNTED else rate_grid)(
        config, rhos, tuple(s for s in signals if sources[s] == s), modes, asymptotic)
    points = [{(mode, s): point[mode, sources[s]] for s in signals for mode in modes}
              for point in formed]
    if "system" in targets:
        scale = energy_efficiency(1.0, config) if metric.startswith("ee_") else None
        points = [{(mode, "system"): _system(config, metric, [point[mode, s] for s in SIGNALS],
                                             asymptotic, scale)
                   for mode in modes} for point in points]
    if oma:
        for point, rho in zip(points, rhos):
            point.update(_oma(config, rho, metric, targets))
    return points


def _oma(config, rho, metric, targets):
    """The baseline's (value, None, True) at linear SNR ``rho``, keyed ("oma",
    target) per signal target and ("oma", "system").  Signal i's end-to-end
    fade X is exponential with rate d = 1/Omega_i + 1/Omega_p, p its partner,
    so its outage is 1 - exp(-gth d / rho), gth its ``oma_threshold``, and its
    rate 0.2 E log2(1 + rho X) = -0.2 e^s Ei(-s) / ln 2, s = d / rho.  The
    system fails unless all four pass, and its rate is the sum of the four."""
    decay = [1.0 / config.omega(i) + 1.0 / config.omega(OMA_PARTNER[i]) for i in SIGNALS]
    if metric == "outage":
        exponents = [oma_threshold(config.rate(i)) * d / rho for i, d in zip(SIGNALS, decay)]
        values = [-math.expm1(-e) for e in exponents] + [-math.expm1(-sum(exponents))]
    else:
        values = [-0.2 * expei_neg(d / rho) / _LN2 for d in decay]
        values.append(sum(values))
    return {("oma", t): (values[-1 if t == "system" else t - 1], None, True)
            for t in targets + ("system",)}


def _system(config, metric, results, asymptotic, scale):
    """The system value of ``metric`` from the (value, asymptote, feasible)
    of x1..x4, rescaled to energy efficiency by ``scale`` unless it is None."""
    if metric in COUNTED:
        rates = [config.rate(s) for s in SIGNALS]
        value = throughput_delay_limited([p for p, _, _ in results], rates)
        asym = sum((1.0 - a) * rate
                   for (_, a, _), rate in zip(results, rates)) if asymptotic else None
    else:
        value = throughput_delay_tolerant([v for v, _, _ in results])
        asym = sum(a for _, a, _ in results) if asymptotic else None
    if scale is not None:
        value, asym = value * scale, None if asym is None else asym * scale
    return value, asym, all(feasible for _, _, feasible in results)

