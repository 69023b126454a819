"""Seeded Monte Carlo estimators that cross-validate every closed form.

The simulator draws the five block-fading gains directly from their
exponential laws, evaluates the same SINR expressions the analysis
started from, and reduces threshold tests or rate samples to estimates
with 95% confidence intervals.  Nothing here reuses the analytical
manipulations, which is the point: agreement between the two routes is
the evidence either one is right.

One kernel, ``mc_point``, serves a sweep point: each chunk draws the gains
once for every signal, SIC mode and system sum (common random numbers),
and the orthogonal baseline's fades once for all of its targets.  The
caller names the one estimate kind it reads, and the kernel builds only
that: failure masks for counted kinds, log2 rates for rate kinds.  Per
pairing, the terms no SIC mode changes are evaluated once for all modes.
Every (sweep point, chunk) pair owns two counter-based substreams, NOMA
and baseline; chunks have a fixed size and reductions run in fixed chunk
order, so results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import (SignalIndex, SystemConfig, gamma_threshold,
                    sample_channel_draw, sinr_sets)

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


def oma_threshold(rate_bpcu: float) -> float:
    return 2.0 ** (5.0 * rate_bpcu) - 1.0


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


def _pairing_stats(config, draw, idx, members, modes, kind, totals):
    """Failure counts or rate moments of one pairing's signals, every mode.

    Per draw, signal s succeeds when every decode along its chain clears
    its threshold; the relay's decode of x_l and the near user's decode of
    x_t (and, for the weak signal, the far user's) do not depend on the
    mode, so that half of each test is formed once.  "outage" and "rate"
    return their per-signal statistics; the system kinds return none and
    add each signal's delivered rate ("throughput_dl") or rate sample
    ("throughput_dt") into ``totals[mode]`` instead.

    Peak memory is bounded by one pairing: its three mode-free SINRs, two
    per mode, and the mode-free mask and rate terms, all freed on return
    before the next pairing is evaluated.
    """
    stats = {}
    counted = kind in ("outage", "throughput_dl")
    sets = sinr_sets(config, draw, idx, modes)
    free = sets[0]                              # mode-free fields are shared
    if counted:
        gth_l = gamma_threshold(config.rate(idx.l))
        gth_t = gamma_threshold(config.rate(idx.t))
        ok_pair = (free.relay_strong > gth_l) & (free.near_decodes_weak > gth_t)
        if idx.t in members:
            ok_weak = ok_pair & (free.far_decodes_weak > gth_t)
    elif idx.t in members:
        weak_floor = np.minimum(free.near_decodes_weak, free.far_decodes_weak)
    for mode, sinrs in zip(modes, sets):
        for s in members:
            strong = s == idx.l
            if counted:
                ok = (ok_pair & (sinrs.near_decodes_own > gth_l) if strong
                      else ok_weak & (sinrs.relay_weak > gth_t))
                if kind == "outage":
                    stats["outage", mode, s] = ok.size - int(np.count_nonzero(ok))
                else:
                    np.add(totals[mode], config.rate(s), out=totals[mode], where=ok)
            else:
                eff = (np.minimum(sinrs.relay_strong, sinrs.near_decodes_own)
                       if strong else np.minimum(sinrs.relay_weak, weak_floor))
                rate = 0.5 * np.log2(1.0 + eff)
                if kind == "rate":
                    stats["rate", mode, s] = _moments(rate)
                else:
                    totals[mode] += rate
    return stats


def _oma_stats(config, stream, size, kind):
    """Orthogonal-baseline failure counts or rate moments for every target."""
    stats = {}
    up = {i: stream.exponential(config.omega(i), size=size) for i in (1, 2, 3, 4)}
    down = {i: stream.exponential(config.omega(i), size=size) for i in (1, 2, 3, 4)}
    counted = kind == "outage"
    total = np.zeros(size, dtype=bool if counted else float)  # any fail | rate sum
    for i in (1, 2, 3, 4):
        snr = config.rho * np.minimum(up[i], down[_OMA_PARTNER[i]])
        if counted:
            fail = snr <= oma_threshold(config.rate(i))
            stats["oma_outage", i] = int(np.count_nonzero(fail))
            total |= fail
        else:
            rate = 0.2 * np.log2(1.0 + snr)
            stats["oma_rate", i] = _moments(rate)
            total += rate
    stats[f"oma_{kind}", "system"] = (int(np.count_nonzero(total)) if counted
                                      else _moments(total))
    return stats


def mc_point(config: SystemConfig, n: int, seed: int, point_index: int = 0,
             workers=None, *, kind, signals=(1, 2, 3, 4), modes=None,
             oma=False) -> dict:
    """The Monte Carlo estimates of one sweep point for one estimate kind.

    ``kind`` is one of KINDS.  "outage" and "rate" give McEstimate values
    keyed (kind, mode, signal) for each signal in ``signals`` and each
    SIC mode in ``modes``, which defaults to the config's own.
    "throughput_dl" and "throughput_dt" give (kind, mode): the per-draw
    system sums sum_i 1{ok_i} R_i and sum_i rate_i over x1..x4, each with
    the interval of that sum; ``signals`` does not apply to them.  With
    ``oma`` (per-signal kinds only) the orthogonal baseline follows:
    ("oma_outage" | "oma_rate", target), target "system" or 1..4 as in
    ``mc_oma_baseline``.

    Each chunk draws the gains once for every signal and mode, so calls
    that differ only in ``kind`` share their draws.
    """
    if n < 1000:
        raise ValueError("Monte Carlo runs need at least 1000 samples")
    if seed < 0:
        raise ValueError("master seed must be nonnegative")
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

    def run(chunk_index, size):
        stats = {}
        if pairs:
            # the gains depend on neither rho nor the SIC mode: one draw serves all
            stream = chunk_generator(seed, 2 * point_index, chunk_index)
            draw = sample_channel_draw(config, stream, size=size)
            totals = {m: np.zeros(size) for m in modes} if system else {}
            for idx, members in pairs.items():
                stats.update(_pairing_stats(config, draw, idx, members, modes,
                                            kind, totals))
            for mode, total in totals.items():            # system kinds only
                stats[kind, mode] = _moments(total)
        if oma:
            stream = chunk_generator(seed, 2 * point_index + 1, chunk_index)
            stats.update(_oma_stats(config, stream, size, kind))
        return stats

    parts = _map_chunks(_chunk_sizes(n), run, workers)
    estimates = {}
    for key, first in parts[0].items():          # fixed chunk order throughout
        if isinstance(first, int):               # failure count
            failures = sum(part[key] for part in parts)
            lo, hi = ci_bounds(failures, n)
            mean, hw = failures / n, (hi - lo) / 2.0
        else:                                    # (n, mean, M2) moments
            _, mean, m2 = _merge_moments([part[key] for part in parts])
            hw = _Z95 * math.sqrt(m2 / (n - 1) / n)
            lo, hi = mean - hw, mean + hw
        estimates[key] = McEstimate(mean=mean, half_width_95=hw, n=n, seed=seed,
                                    ci_low=lo, ci_high=hi)
    return estimates


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
    the four per-slot-discounted rates.
    """
    if signal != "system" and signal not in (1, 2, 3, 4):
        raise ValueError(f"signal must be 1..4 or 'system', got {signal!r}")
    # one call per kind on the same substream: both read the same fades
    return tuple(mc_point(config, n, seed, point_index, workers, kind=kind,
                          signals=(), oma=True)[f"oma_{kind}", signal]
                 for kind in ("outage", "rate"))
