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
targets; the estimates at one SNR are a one-point grid.  The caller names
one metric with its targets and SIC modes, as for ``metrics.analytic_grid``,
and the kernel builds only those estimates.  Counted metrics (outage and
the delay-limited ones) read each draw's inverse critical SNR: every SINR
is rho A / (rho B + 1) with A and B free of rho, so one draw decides its
outcome at every grid SNR at once, and the failures at each grid SNR are
one comparison count.  Rate metrics read the same A and B, formed once per
block: at each grid SNR a chain's SINR is the least A / (B + 1/rho) over
its decodes, and a decode no SIC mode changes is evaluated once.

Every (point index, chunk) pair owns two counter-based substreams, NOMA
and baseline; a sweep reads those of point index 0.  Each chunk draws its
gains in one call and hands the statistics one block of BLOCK draws at a
time, as views: every temporary is then a block long, small enough for the
allocator to reuse and for the cache to hold, where chunk-long ones would
be mapped in afresh each time.  Chunks and blocks have fixed sizes, counts
are summed exactly and moments merge in fixed (chunk, block) order, so
results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .metrics import COUNTED, PER_SIGNAL, SIGNALS, check_request, energy_efficiency
from .model import (ChannelDraw, ConfigError, SignalIndex, SystemConfig,
                    inverse_critical_snrs, inverse_threshold, linear_snr_grid,
                    oma_threshold, sample_channel_draw, sinr_coefficients)

CHUNK = 1 << 17
BLOCK = 1 << 13

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
    """(n, mean, M2) of one block's samples; M2 sums squared deviations."""
    mean = float(np.add.reduce(x)) / x.size     # np.mean's bits, without its dispatch
    dev = x - mean
    return x.size, mean, float(np.dot(dev, dev))


def _merge_moments(parts):
    """Merge per-block (n, mean, M2) triples in the order given.

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


def _counted_stats(config, draw, pairs, modes, system, rhos):
    """Failure counts per signal, or with ``system`` success co-counts of the
    four signals, at every grid SNR, every mode.

    A system entry (mode, "system") is an int array of shape (4, 4, grid)
    whose [i, j] row counts draws where x_{i+1} and x_{j+1} both succeed;
    its diagonal holds the per-signal success counts.
    """
    margins = {}
    for idx, members in pairs.items():
        for mode, (strong, weak) in zip(modes, inverse_critical_snrs(config, draw,
                                                                     idx, modes)):
            for s in members:
                margins[mode, s] = strong if s == idx.l else weak
    if not system:
        return {key: _failures(u, rhos) for key, u in margins.items()}
    stats = {}
    for mode in modes:
        both = np.empty((4, 4, rhos.size), dtype=np.int64)
        for i in range(4):
            for j in range(i, 4):
                u = np.minimum(margins[mode, i + 1], margins[mode, j + 1])
                both[i, j] = both[j, i] = draw.g1.size - _failures(u, rhos)
        stats[mode, "system"] = both
    return stats


def _rate_stats(config, draw, pairs, modes, system, rhos):
    """Per grid SNR, in grid order, the rate moments of each signal, or with
    ``system`` of the per-draw sum of all four; a chain's SINR is its least
    A / (B + 1/rho).  Peak memory beyond the draw: its coefficients, at most
    ten arrays per pairing, a mode-free SINR, a rate sample and one sum per
    mode, each the length of the draw, which ``mc_grid`` keeps to one block.
    """
    chains = {idx: sinr_coefficients(config, draw, idx, modes) for idx in pairs}
    size = draw.g1.size
    stats = {}
    for rho in rhos:
        u = 1.0 / rho
        totals = {m: np.zeros(size) for m in modes if system}
        for idx, members in pairs.items():
            mode_free, per_mode = chains[idx]
            for s in members:
                chain = 0 if s == idx.l else 1             # strong, weak
                free = _sinr(mode_free[chain], u)
                for mode, decodes in zip(modes, per_mode):
                    rate = _sinr(decodes[chain], u)
                    np.minimum(rate, free, out=rate)
                    rate += 1.0
                    np.log2(rate, out=rate)
                    rate *= 0.5                     # 0.5 log2(1 + SINR)
                    if system:
                        totals[mode] += rate
                    else:
                        stats.setdefault((mode, s), []).append(_moments(rate))
        for mode, total in totals.items():
            stats.setdefault((mode, "system"), []).append(_moments(total))
    return stats


def _sinr(coefficients, u):
    """A / (B + u): the SINR of one decode's (A, B) pair at 1/rho = u."""
    a, b = coefficients
    out = b + u
    return np.divide(a, out, out=out)


def _oma_fades(config, stream, size):
    """Each baseline target's end-to-end fade: its uplink's or its partner's
    downlink's, whichever is weaker.  One standard-exponential call draws
    the four uplinks, then the four downlinks; each row is scaled by its
    link's mean, and each downlink is folded into its partner's uplink in
    place.  The variates equal eight ``stream.exponential`` calls bit for
    bit, as in ``sample_channel_draw``."""
    scale = [config.omega(i) for i in (1, 2, 3, 4)] * 2
    links = stream.standard_exponential((8, size))
    links *= np.reshape(scale, (8, 1))
    fades = {i: links[i - 1] for i in (1, 2, 3, 4)}
    for j in (1, 2, 3, 4):
        fade = fades[_OMA_PARTNER[j]]
        np.minimum(fade, links[3 + j], out=fade)
    return fades


def _oma_stats(config, fades, rhos, counted, signals):
    """Orthogonal-baseline failure counts if ``counted``, else per grid SNR
    rate moments, for each of ``signals`` and for the system of all four,
    from the fades it is handed."""
    if counted:
        # rho fade > thr exactly when fade / thr > 1/rho
        margins = {i: fade * inverse_threshold(oma_threshold(config.rate(i)))
                   for i, fade in fades.items()}
        stats = {("oma", i): _failures(margins[i], rhos) for i in signals}
        # the system fails at rho when any exchange does
        stats["oma", "system"] = _failures(
            np.minimum(np.minimum(margins[1], margins[2]),
                       np.minimum(margins[3], margins[4])), rhos)
        return stats
    stats = {("oma", target): [] for target in signals + ("system",)}
    for rho in rhos:
        total = np.zeros(fades[1].size)
        for i, fade in fades.items():
            rate = 0.2 * np.log2(1.0 + rho * fade)
            if i in signals:
                stats["oma", i].append(_moments(rate))
            total += rate
        stats["oma", "system"].append(_moments(total))
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
    """One estimate dict per grid point from the blocks' statistics, given
    in (chunk, block) order.

    Counts are integer sums, exact in any order; moments merge in the order
    given.
    """
    grid = [{} for _ in range(grid_size)]
    rates = [config.rate(i) for i in SIGNALS]
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
                          if counts.ndim == 3            # success co-counts
                          else _count_estimate(int(counts[j]), n, seed))
    return grid


def _scaled(est, scale):
    """``est`` in units ``scale`` times its own, interval and all."""
    return McEstimate(mean=est.mean * scale, half_width_95=est.half_width_95 * scale,
                      n=est.n, seed=est.seed, ci_low=est.ci_low * scale,
                      ci_high=est.ci_high * scale)


def check_run(n, seed):
    """ConfigError unless ``n`` samples from master ``seed`` make a run: the
    one check of a sample count and a seed."""
    if n < 1000:
        raise ConfigError(f"a Monte Carlo run needs at least 1000 samples to "
                          f"state a confidence interval, got {n!r}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed!r}")


def mc_grid(config: SystemConfig, rhos, n: int, seed: int, point_index: int = 0,
            workers=None, *, metric, targets, modes, oma=False) -> list:
    """The Monte Carlo estimates of ``metric`` for each target and SIC mode at
    every SNR of a grid.

    ``metric``, ``targets`` and ``modes`` are those of
    ``metrics.check_request``; ``rhos`` are linear SNRs, in any order, each
    with a finite reciprocal, and ``config.rho`` is not read.  Returns one
    dict per entry of ``rhos``, in that order, holding exactly the keys
    (mode, target) of the request, as ``analytic_grid`` does, with
    McEstimate values.  A "system" target is the per-draw sum over x1..x4
    (sum_i 1{ok_i} R_i delay-limited, sum_i rate_i delay-tolerant) with the
    interval of that sum, in efficiency units for ``ee_dl`` and ``ee_dt``.
    With ``oma`` (outage and ergodic_rate only) the orthogonal baseline
    adds ("oma", target) for each target and ("oma", "system"), the event
    any exchange fails or the sum of the four rates, as in
    ``mc_oma_baseline``; no other baseline statistic is built.

    Each chunk draws the gains once, from the NOMA substream of
    ``point_index``, for every grid SNR, signal and mode, so calls that
    differ only in ``metric`` or in ``rhos`` share their draws.  The
    statistics read each chunk one block of BLOCK draws at a time.
    """
    check_run(n, seed)
    targets, modes, signals = check_request(metric, targets, modes, oma)
    system = "system" in targets
    pairs = {}                   # x1/x2 share one SignalIndex, x3/x4 the other
    for s in signals:
        pairs.setdefault(SignalIndex.for_signal(s), []).append(s)
    rhos = linear_snr_grid(rhos)
    counted = metric in COUNTED

    def run(chunk_index, size):
        """One stats dict per block of the chunk, the last block ragged;
        each block is a view of the chunk's draws."""
        blocks = [slice(start, start + BLOCK) for start in range(0, size, BLOCK)]
        parts = [{} for _ in blocks]
        if pairs:
            # one draw serves every rho and mode
            draw = sample_channel_draw(
                config, chunk_generator(seed, 2 * point_index, chunk_index), size=size)
            stats = _counted_stats if counted else _rate_stats
            for part, b in zip(parts, blocks):
                part.update(stats(config, ChannelDraw(draw.g1[b], draw.g2[b], draw.g3[b],
                                                      draw.g4[b], draw.gI[b]),
                                  pairs, modes, system, rhos))
        if oma:
            fades = _oma_fades(
                config, chunk_generator(seed, 2 * point_index + 1, chunk_index), size)
            for part, b in zip(parts, blocks):
                part.update(_oma_stats(config, {i: f[b] for i, f in fades.items()},
                                       rhos, counted, targets))
        return parts

    chunks = _map_chunks(_chunk_sizes(n), run, workers)
    grid = _reduce(config, [part for parts in chunks for part in parts], n, seed,
                   rhos.size)
    if not metric.startswith("ee_"):
        return grid
    scale = energy_efficiency(1.0, config)
    return [{key: _scaled(est, scale) for key, est in point.items()} for point in grid]


def mc_outage(config: SystemConfig, signal: int, mode: str, n: int, seed: int,
              point_index: int = 0, workers=None) -> McEstimate:
    """Simulated outage probability of one signal's exchange.  No library route
    calls it; it stays only because ``perfbench/tracing.py`` patches it."""
    return mc_grid(config, (config.rho,), n, seed, point_index, workers,
                   metric="outage", targets=(signal,), modes=(mode,))[0][mode, signal]


def mc_ergodic(config: SystemConfig, signal: int, mode: str, n: int, seed: int,
               point_index: int = 0, workers=None) -> McEstimate:
    """Simulated ergodic rate of one signal's exchange, bits/s/Hz.  No library route
    calls it; it stays only because ``perfbench/tracing.py`` patches it."""
    return mc_grid(config, (config.rho,), n, seed, point_index, workers,
                   metric="ergodic_rate", targets=(signal,),
                   modes=(mode,))[0][mode, signal]


def mc_oma_baseline(config: SystemConfig, signal, n: int, seed: int,
                    point_index: int = 0, workers=None):
    """Simulated orthogonal baseline: (outage, rate) estimate pair.

    signal is 1..4 for a single exchange or "system" for all four jointly:
    system outage is the event any exchange fails, system rate the sum of
    the four per-slot-discounted rates.  Both are the baseline estimates of
    ``mc_grid`` at ``config.rho`` and read the same fades, from the baseline
    substream of ``point_index``.  No library route calls it; it stays only because
    ``perfbench/tracing.py`` patches it.
    """
    targets = () if signal == "system" else (signal,)
    return tuple(mc_grid(config, (config.rho,), n, seed, point_index, workers,
                         metric=metric, targets=targets, modes=(),
                         oma=True)[0]["oma", signal]
                 for metric in PER_SIGNAL)
