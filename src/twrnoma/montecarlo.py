"""Seeded Monte Carlo estimators that cross-validate every closed form.

The simulator draws the five block-fading gains directly from their
exponential laws, evaluates the same SINR expressions the analysis
started from, and reduces threshold tests or rate samples to estimates
with 95% confidence intervals.  Nothing here reuses the analytical
manipulations, which is the point: agreement between the two routes is
the evidence either one is right.

One kernel, ``mc_grid``, serves a whole SNR grid: each chunk draws the
gains once for every grid SNR, signal, SIC mode and system sum (common
random numbers), and the orthogonal baseline's fades once for all of its
targets.  ``mc_point`` is its one-point view.  The caller names the one
estimate kind it reads, and the kernel builds only that.  Counted kinds
(outage, delay-limited throughput) read each draw's inverse critical SNR:
every SINR is rho A / (rho B + 1) with A and B free of rho, so one draw
decides its outcome at every grid SNR at once, and the failures at each
grid SNR are one comparison count.  Rate kinds evaluate the SINRs at each grid
SNR on the shared draw; per pairing, the terms no SIC mode changes are
evaluated once for all modes.

Every (point index, chunk) pair owns two counter-based substreams, NOMA
and baseline; a sweep reads those of point index 0.  Chunks have a fixed
size, counts are summed exactly and moments merge in fixed chunk order,
so results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import (SignalIndex, SystemConfig, inverse_critical_snrs,
                    inverse_threshold, oma_threshold, sample_channel_draw,
                    sinr_sets)

CHUNK = 1 << 17

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo point estimate with its 95% interval.

    half_width_95 is (ci_high - ci_low)/2; the interval always brackets
    the mean.
    """

    mean: float
    half_width_95: float
    n: int
    seed: int
    ci_low: float
    ci_high: float

    def __post_init__(self):
        if not (self.ci_low <= self.mean <= self.ci_high):
            raise ValueError("confidence interval must bracket the mean")


def ci_bounds(successes: int, n: int):
    """95% interval for a binomial proportion.

    Normal approximation away from the boundary; Wilson score interval
    once either count drops below 10, where the normal interval's coverage
    collapses.
    """
    if n <= 0:
        raise ValueError("need a positive sample count")
    if successes < 0 or successes > n:
        raise ValueError("success count must lie in [0, n]")
    p = successes / n
    if successes < 10 or n - successes < 10:
        z2 = _Z95 * _Z95
        center = (successes + z2 / 2.0) / (n + z2)
        hw = _Z95 / (n + z2) * math.sqrt(successes * (n - successes) / n + z2 / 4.0)
        lo, hi = center - hw, center + hw
    else:
        hw = _Z95 * math.sqrt(p * (1.0 - p) / n)
        lo, hi = p - hw, p + hw
    # The Wilson endpoints equal p exactly when every trial agrees, but the
    # arithmetic can land one ulp inside; keep the interval bracketing p.
    return max(0.0, min(lo, p)), min(1.0, max(hi, p))


def chunk_generator(master_seed: int, effective_point_index: int,
                    chunk_index: int) -> np.random.Generator:
    """Counter-based substream for one chunk at one effective point index."""
    seq = np.random.SeedSequence(master_seed,
                                 spawn_key=(effective_point_index, chunk_index))
    return np.random.Generator(np.random.Philox(seq))


def _chunk_sizes(n):
    sizes = []
    left = int(n)
    while left > 0:
        take = min(CHUNK, left)
        sizes.append(take)
        left -= take
    return sizes


def _map_chunks(sizes, worker_fn, workers):
    if workers is not None and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker_fn, range(len(sizes)), sizes))
    return [worker_fn(i, size) for i, size in enumerate(sizes)]


def _moments(x):
    """(n, mean, M2) of one chunk's samples; M2 sums squared deviations."""
    mean = float(np.mean(x))
    dev = x - mean
    return x.size, mean, float(np.dot(dev, dev))


def _merge_moments(parts):
    """Merge per-chunk (n, mean, M2) triples in the order given.

    The update of Chan, Golub and LeVeque (1979) forms no raw sum of squares,
    so the variance keeps its digits when the spread is tiny next to the mean.
    """
    n, mean, m2 = parts[0]
    for n_b, mean_b, m2_b in parts[1:]:
        total = n + n_b
        delta = mean_b - mean
        mean += delta * n_b / total
        m2 += m2_b + delta * delta * n * n_b / total
        n = total
    return n, mean, m2


# Orthogonal baseline.  The same exchange takes five slots: all four
# uplinks land at the relay in the first (each on its own orthogonal
# resource at full power), then the relay forwards one symbol per slot.
# Every transmission sees an independent fade of its link, so signal i's
# end-to-end SNR is the minimum of two independent exponentials and its
# threshold reflects the 5x bandwidth expansion, 2^{5 R} - 1.

_OMA_PARTNER = {1: 3, 2: 4, 3: 1, 4: 2}


def oma_outage_exact(config: SystemConfig, signal) -> float:
    """Closed-form orthogonal-baseline outage, per signal or whole system."""
    def exponent(i):
        gth = oma_threshold(config.rate(i))
        return gth * (1.0 / config.omega(i)
                      + 1.0 / config.omega(_OMA_PARTNER[i])) / config.rho

    if signal == "system":
        return -math.expm1(-sum(exponent(i) for i in (1, 2, 3, 4)))
    if signal not in (1, 2, 3, 4):
        raise ValueError(f"signal must be 1..4 or 'system', got {signal!r}")
    return -math.expm1(-exponent(signal))


KINDS = ("outage", "rate", "throughput_dl", "throughput_dt")


def _failures(margins, rhos):
    """Per grid SNR, the draws whose critical SNR is not below it.

    A draw fails at rho exactly when its inverse critical SNR u is at most
    1/rho.  One comparison pass per grid SNR is cheaper than a sort of the
    draws on grids of up to about two dozen points (no preset has more
    than 11), and cheaper than a binary search per draw on any grid, since
    random keys defeat branch prediction.
    """
    return np.array([np.count_nonzero(margins <= 1.0 / rho) for rho in rhos],
                    dtype=np.int64)


def _counted_stats(config, draw, pairs, modes, kind, rhos):
    """Failure counts per signal ("outage") or success co-counts of the four
    signals ("throughput_dl") at every grid SNR, every mode.

    For "throughput_dl" the entry of (kind, mode) is an int array of shape
    (4, 4, grid) whose [i, j] row counts draws where x_{i+1} and x_{j+1} both
    succeed; its diagonal holds the per-signal success counts.
    """
    margins = {}
    for idx, members in pairs.items():
        for mode, (strong, weak) in zip(modes, inverse_critical_snrs(config, draw,
                                                                     idx, modes)):
            for s in members:
                margins[mode, s] = strong if s == idx.l else weak
    if kind == "outage":
        return {("outage", mode, s): _failures(u, rhos)
                for (mode, s), u in margins.items()}
    stats = {}
    for mode in modes:
        both = np.empty((4, 4, rhos.size), dtype=np.int64)
        for i in range(4):
            for j in range(i, 4):
                u = np.minimum(margins[mode, i + 1], margins[mode, j + 1])
                both[i, j] = both[j, i] = draw.g1.size - _failures(u, rhos)
        stats[kind, mode] = both
    return stats


def _pairing_rates(config, draw, idx, members, modes, kind, totals):
    """Rate moments of one pairing's signals at config.rho, every mode.

    "rate" returns each signal's (n, mean, M2); "throughput_dt" returns
    none and adds each signal's rate sample into ``totals[mode]`` instead.
    The weak signal's mode-free decodes are formed once.  Peak memory is
    bounded by one pairing: its three mode-free SINRs, two per mode, and
    the mode-free floor, all freed on return.
    """
    stats = {}
    sets = sinr_sets(config, draw, idx, modes)
    if idx.t in members:                        # mode-free fields are shared
        weak_floor = np.minimum(sets[0].near_decodes_weak, sets[0].far_decodes_weak)
    for mode, sinrs in zip(modes, sets):
        for s in members:
            eff = (np.minimum(sinrs.relay_strong, sinrs.near_decodes_own)
                   if s == idx.l else np.minimum(sinrs.relay_weak, weak_floor))
            rate = 0.5 * np.log2(1.0 + eff)
            if kind == "rate":
                stats["rate", mode, s] = _moments(rate)
            else:
                totals[mode] += rate
    return stats


def _point_rates(config, draw, pairs, modes, kind):
    """Rate moments of every key at config.rho."""
    totals = ({m: np.zeros(draw.g1.size) for m in modes}
              if kind == "throughput_dt" else {})
    stats = {}
    for idx, members in pairs.items():
        stats.update(_pairing_rates(config, draw, idx, members, modes, kind, totals))
    for mode, total in totals.items():
        stats[kind, mode] = _moments(total)
    return stats


def _rate_stats(config, draw, pairs, modes, kind, rhos):
    """Per grid SNR, in grid order, the rate moments of every key."""
    stats = {}
    for rho in rhos:
        point = _point_rates(config.with_rho(float(rho)), draw, pairs, modes, kind)
        for key, value in point.items():
            stats.setdefault(key, []).append(value)
    return stats


def _oma_fades(config, stream, size):
    """Each baseline target's end-to-end fade: its uplink's or its partner's
    downlink's, whichever is weaker.  The four uplinks are drawn first, then
    the four downlinks, each folded into its partner's uplink as it comes."""
    fades = {i: stream.exponential(config.omega(i), size=size) for i in (1, 2, 3, 4)}
    for j in (1, 2, 3, 4):
        fade = fades[_OMA_PARTNER[j]]
        np.minimum(fade, stream.exponential(config.omega(j), size=size), out=fade)
    return fades


def _oma_stats(config, fades, rhos, kind):
    """Orthogonal-baseline failure counts, or per grid SNR rate moments, for
    every target from the fades it is handed."""
    if kind == "outage":
        # rho fade > thr exactly when fade / thr > 1/rho
        margins = {i: fade * inverse_threshold(oma_threshold(config.rate(i)))
                   for i, fade in fades.items()}
        stats = {("oma_outage", i): _failures(u, rhos) for i, u in margins.items()}
        # the system fails at rho when any exchange does
        stats["oma_outage", "system"] = _failures(
            np.minimum(np.minimum(margins[1], margins[2]),
                       np.minimum(margins[3], margins[4])), rhos)
        return stats
    stats = {("oma_rate", target): [] for target in (1, 2, 3, 4, "system")}
    for rho in rhos:
        total = np.zeros(fades[1].size)
        for i, fade in fades.items():
            rate = 0.2 * np.log2(1.0 + rho * fade)
            stats["oma_rate", i].append(_moments(rate))
            total += rate
        stats["oma_rate", "system"].append(_moments(total))
    return stats


def _count_estimate(failures, n, seed):
    lo, hi = ci_bounds(failures, n)
    return McEstimate(mean=failures / n, half_width_95=(hi - lo) / 2.0, n=n,
                      seed=seed, ci_low=lo, ci_high=hi)


def _moment_estimate(mean, m2, n, seed):
    hw = _Z95 * math.sqrt(m2 / (n - 1) / n)
    return McEstimate(mean=mean, half_width_95=hw, n=n, seed=seed,
                      ci_low=mean - hw, ci_high=mean + hw)


def _delivered_moments(rates, both, n):
    """(mean, M2) of sum_i 1{ok_i} R_i from exact success co-counts.

    With c_ij the draws where x_i and x_j both succeed (c_ii = c_i), the
    sum of squared deviations is sum_ij R_i R_j (n c_ij - c_i c_j) / n; the
    brackets are formed in integers, so no E[S^2] - E[S]^2 cancellation
    occurs.
    """
    c = [int(both[i, i]) for i in range(4)]
    mean = sum(r * ci for r, ci in zip(rates, c)) / n
    m2 = sum(rates[i] * rates[j] * (n * int(both[i, j]) - c[i] * c[j])
             for i in range(4) for j in range(4)) / n
    return mean, max(m2, 0.0)


def _reduce(config, parts, n, seed, grid_size):
    """One estimate dict per grid point from the chunks' statistics.

    Counts are integer sums, exact in any order; moments merge in chunk
    order.
    """
    grid = [{} for _ in range(grid_size)]
    rates = [config.rate(i) for i in (1, 2, 3, 4)]
    for key, first in parts[0].items():
        if isinstance(first, list):              # (n, mean, M2) per grid point
            for j, point in enumerate(grid):
                _, mean, m2 = _merge_moments([part[key][j] for part in parts])
                point[key] = _moment_estimate(mean, m2, n, seed)
            continue
        counts = sum(part[key] for part in parts)
        for j, point in enumerate(grid):
            point[key] = (_moment_estimate(*_delivered_moments(rates, counts[..., j], n),
                                           n, seed)
                          if key[0] == "throughput_dl"
                          else _count_estimate(int(counts[j]), n, seed))
    return grid


def _check_run(n, seed):
    if n < 1000:
        raise ValueError("Monte Carlo runs need at least 1000 samples")
    if seed < 0:
        raise ValueError("master seed must be nonnegative")


def mc_grid(config: SystemConfig, rhos, n: int, seed: int, point_index: int = 0,
            workers=None, *, kind, signals=(1, 2, 3, 4), modes=None,
            oma=False) -> list:
    """The Monte Carlo estimates of one estimate kind at every SNR of a grid.

    ``rhos`` are linear SNRs, in any order; ``config.rho`` is not read.
    Returns one dict per entry of ``rhos``, in that order.  ``kind`` is one
    of KINDS.  "outage" and "rate" give McEstimate values keyed (kind, mode,
    signal) for each signal in ``signals`` and each SIC mode in ``modes``,
    which defaults to the config's own.  "throughput_dl" and
    "throughput_dt" give (kind, mode): the per-draw system sums
    sum_i 1{ok_i} R_i and sum_i rate_i over x1..x4, each with the interval
    of that sum; ``signals`` does not apply to them.  With ``oma``
    (per-signal kinds only) the orthogonal baseline follows:
    ("oma_outage" | "oma_rate", target), target "system" or 1..4 as in
    ``mc_oma_baseline``.

    Each chunk draws the gains once, from the NOMA substream of
    ``point_index``, for every grid SNR, signal and mode, so calls that
    differ only in ``kind`` or in ``rhos`` share their draws.
    """
    _check_run(n, seed)
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    system = kind in ("throughput_dl", "throughput_dt")
    if system:
        if oma:
            raise ValueError(f"the orthogonal baseline has outage and rate "
                             f"estimates only, not {kind!r}")
        signals = (1, 2, 3, 4)
    pairs = {}                   # x1/x2 share one SignalIndex, x3/x4 the other
    for s in signals:
        pairs.setdefault(SignalIndex.for_signal(s), []).append(s)
    modes = (config.sic_mode,) if modes is None else tuple(modes)
    if not set(modes) <= {"ipsic", "psic"}:
        raise ValueError(f"modes must be 'ipsic' or 'psic', got {modes!r}")
    rhos = np.asarray(rhos, dtype=float)
    if rhos.ndim != 1 or rhos.size == 0 or not np.all((rhos > 0) & np.isfinite(rhos)):
        raise ValueError("rhos must be a nonempty list of positive finite SNRs")
    counted = kind in ("outage", "throughput_dl")

    def run(chunk_index, size):
        stats = {}
        if pairs:
            # the gains depend on neither rho nor the SIC mode: one draw serves all
            stream = chunk_generator(seed, 2 * point_index, chunk_index)
            draw = sample_channel_draw(config, stream, size=size)
            stats.update((_counted_stats if counted else _rate_stats)(
                config, draw, pairs, modes, kind, rhos))
        if oma:
            stream = chunk_generator(seed, 2 * point_index + 1, chunk_index)
            stats.update(_oma_stats(config, _oma_fades(config, stream, size),
                                    rhos, kind))
        return stats

    return _reduce(config, _map_chunks(_chunk_sizes(n), run, workers), n, seed,
                   rhos.size)


def mc_point(config: SystemConfig, n: int, seed: int, point_index: int = 0,
             workers=None, *, kind, signals=(1, 2, 3, 4), modes=None,
             oma=False) -> dict:
    """The Monte Carlo estimates of one point for one estimate kind.

    The one-point view of ``mc_grid`` at ``config.rho``: same arguments
    and keys, same substreams.
    """
    return mc_grid(config, (config.rho,), n, seed, point_index, workers,
                   kind=kind, signals=signals, modes=modes, oma=oma)[0]


def mc_outage(config: SystemConfig, signal: int, n: int, seed: int,
              point_index: int = 0, workers=None) -> McEstimate:
    """Simulated outage probability of one signal's exchange."""
    return mc_point(config, n, seed, point_index, workers, kind="outage",
                    signals=(signal,))["outage", config.sic_mode, signal]


def mc_ergodic(config: SystemConfig, signal: int, n: int, seed: int,
               point_index: int = 0, workers=None) -> McEstimate:
    """Simulated ergodic rate of one signal's exchange, bits/s/Hz."""
    return mc_point(config, n, seed, point_index, workers, kind="rate",
                    signals=(signal,))["rate", config.sic_mode, signal]


def mc_oma_baseline(config: SystemConfig, signal, n: int, seed: int,
                    point_index: int = 0, workers=None):
    """Simulated orthogonal baseline: (outage, rate) estimate pair.

    signal is 1..4 for a single exchange or "system" for all four jointly:
    system outage is the event any exchange fails, system rate the sum of
    the four per-slot-discounted rates.  Both estimates read one draw of
    the fades per chunk, the baseline substream of ``point_index``.
    """
    if signal != "system" and signal not in (1, 2, 3, 4):
        raise ValueError(f"signal must be 1..4 or 'system', got {signal!r}")
    _check_run(n, seed)
    rhos = np.array([config.rho])

    def run(chunk_index, size):
        stream = chunk_generator(seed, 2 * point_index + 1, chunk_index)
        fades = _oma_fades(config, stream, size)
        return {**_oma_stats(config, fades, rhos, "outage"),
                **_oma_stats(config, fades, rhos, "rate")}

    ests = _reduce(config, _map_chunks(_chunk_sizes(n), run, workers), n, seed, 1)[0]
    return ests["oma_outage", signal], ests["oma_rate", signal]
