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
and the kernel builds only those estimates.  ``mc_grids`` runs several such
requests, each on its own grid, in one pass (a preset's variants, or the
outage, rate and baseline checks of ``validate``): each chunk's one draw
serves them all, scaled to each request's means.  Counted metrics (outage
and the delay-limited ones) read each draw's inverse critical SNR: every
SINR is rho A / (rho B + 1) with A and B free of rho, so one draw decides its
outcome at every grid SNR at once.  Its residual-free part, a pairing's
margin base, reads no gI, so requests that differ only in Omega_I (fig4's
and fig5's variants) share one base per block, keyed on every input it
reads.  Every count, the baseline's too, is a population count of packed
failure bits, one 64-bit-word row per margin row and grid SNR: of a
signal's own words, of two signals' words ANDed (the delay-limited system
sums) or of the baseline's four rows ORed (any exchange fails).  Rate
metrics read the same A and B, formed once per block: at each grid SNR a
chain's SINR is the least A / (B + 1/rho) over its decodes, and a decode
no SIC mode changes is evaluated once.  The delay-tolerant system rate is
0.5 log2 of the product of the four factors 1 + SINR, one logarithm per
SNR and mode, except at an SNR where the product could leave the float
range, which sums four logarithms; the half of every rate is taken on the
moments, which is exact.

Every (point index, chunk) pair owns two counter-based substreams, NOMA
and baseline; a sweep reads those of point index 0.  Each chunk draws its
gains in one call and the baseline its fades in another, once for all
requests with the same link means, each set the rows of one array.  One
loop then walks the chunk a block of BLOCK draws at a time, as views, and
hands each block to every request in turn: every temporary is then a
block long, small enough for the allocator to reuse and for the cache to
hold, where chunk-long ones would be mapped in afresh each time, and a
block's margin bases live only while the requests read that block.
Chunks and blocks have fixed sizes, counts are summed exactly and
moments merge in fixed (chunk, block) order, so results are
bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .metrics import COUNTED, PER_SIGNAL, SIGNALS, check_request, energy_efficiency
from .model import (ChannelDraw, ConfigError, SignalIndex, SystemConfig, inverse_threshold,
                    linear_snr_grid, margin_base, mode_margins, oma_threshold,
                    sample_channel_draw, sinr_coefficients)

CHUNK = 1 << 17
BLOCK = 1 << 13

_Z95 = 1.959963984540054

# A product of factors whose log2 bounds sum below this stays finite, with
# room for the rounding of each bound, factor and product (doubles end at 2^1024).
_PRODUCT_LOG2_BOUND = 1000.0


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


def _map_chunks(n, worker_fn, workers):
    """``worker_fn(chunk_index, size)`` over the chunks of ``n`` draws, in order,
    on at most one thread per chunk, and inline where that is one thread."""
    n = int(n)
    sizes = [min(CHUNK, n - start) for start in range(0, n, CHUNK)]
    threads = min(workers or 1, len(sizes))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
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


def _check_oma_signal(signal):
    if signal != "system" and signal not in (1, 2, 3, 4):
        raise ValueError(f"signal must be 1..4 or 'system', got {signal!r}")


def oma_outage_exact(config: SystemConfig, signal) -> float:
    """Closed-form orthogonal-baseline outage, per signal or whole system."""
    _check_oma_signal(signal)

    def exponent(i):
        gth = oma_threshold(config.rate(i))
        return gth * (1.0 / config.omega(i)
                      + 1.0 / config.omega(_OMA_PARTNER[i])) / config.rho

    if signal == "system":
        return -math.expm1(-sum(exponent(i) for i in (1, 2, 3, 4)))
    return -math.expm1(-exponent(signal))


def _failure_words(rows, rhos):
    """The failure bits of each row of margins at every grid SNR, packed into
    uint64 words of shape (rows, grid, words) and padded with zero bits.

    A draw fails at rho exactly when its margin is at most 1/rho, so a NaN
    margin (a gain of exactly 0.0 against a zero target rate) never fails.
    """
    size = rows[0].size
    failed = np.zeros((rhos.size, -(-size // 64) * 64), dtype=bool)
    inverse = (1.0 / rhos)[:, None]
    packed = []
    for row in rows:
        np.less_equal(row, inverse, out=failed[:, :size])
        packed.append(np.packbits(failed, axis=-1))
    return np.stack(packed).view(np.uint64)


def _ones(words):
    """The set bits of ``words`` over its last axis, as int64 counts."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def _counted_stats(draw, pairs, modes, system, rhos, bases):
    """Failure counts per signal, or with ``system`` success co-counts of the
    four signals, at every grid SNR, every mode.

    Each signal's margins come from its pairing's base in ``bases``
    (pairing -> ``margin_base`` of this draw), which requests share; only
    the residual gI is this draw's own.  A system entry (mode, "system") is
    an int array of shape (4, 4, grid) whose [i, j] row counts draws where
    x_{i+1} and x_{j+1} both succeed, n - f_i - f_j + f_ij with f_ij the
    count of their failure words ANDed; its diagonal holds the per-signal
    success counts.  A NaN margin is a success of its own signal alone.
    """
    keys, rows = [], []
    for idx, members in pairs.items():
        for mode, (strong, weak) in zip(modes, mode_margins(bases[idx], draw.gI, modes)):
            for s in members:
                keys.append((mode, s))
                rows.append(strong if s == idx.l else weak)
    words = _failure_words(rows, rhos)
    if not system:
        return dict(zip(keys, _ones(words)))
    stats = {}
    for mode in modes:
        signals = words[[keys.index((mode, s)) for s in SIGNALS]]
        failed = _ones(signals)
        stats[mode, "system"] = (draw.gI.size - failed[:, None] - failed
                                 + _ones(signals[:, None] & signals))
    return stats


def _rate_stats(config, draw, pairs, modes, system, rhos):
    """Per grid SNR, in grid order, the rate moments of each signal, or with
    ``system`` of the per-draw sum of all four; a chain's SINR is its least
    A / (B + 1/rho).

    A rate is 0.5 log2(1 + SINR); its half is taken on each block's moments
    (mean times 0.5, M2 times 0.25), which is exact.  The system sum is 0.5
    log2 of the product of the four factors 1 + SINR, one logarithm per mode.
    As B >= 0, a factor is at most 1 + rho A of its chain's mode-free decode;
    at an SNR where the block's largest such bounds could carry the product
    past the float range, the sum is of the four logarithms instead, with the
    bits of a sum of rates.  Peak memory beyond the draw: its coefficients, at
    most ten arrays per pairing, a mode-free SINR, a factor and one product
    or sum per mode, each the length of the draw, which ``mc_grid`` keeps to
    one block.
    """
    chains = {idx: sinr_coefficients(config, draw, idx, modes) for idx in pairs}
    peaks = [float(a.max()) for mode_free, _ in chains.values()
             for a, _ in mode_free] if system else []
    stats = {}
    for rho in rhos:
        u = 1.0 / rho
        product = system and sum(math.log2(1.0 + rho * a)
                                 for a in peaks) < _PRODUCT_LOG2_BOUND
        fold = np.multiply if product else np.add
        totals = {}
        for idx, members in pairs.items():
            mode_free, per_mode = chains[idx]
            for s in members:
                chain = 0 if s == idx.l else 1             # strong, weak
                free = _sinr(mode_free[chain], u)
                for mode, decodes in zip(modes, per_mode):
                    term = _sinr(decodes[chain], u)
                    np.minimum(term, free, out=term)
                    term += 1.0                     # 1 + SINR
                    if not product:
                        np.log2(term, out=term)     # 2 x the rate
                    if not system:
                        stats.setdefault((mode, s), []).append(_half_moments(term))
                    elif mode in totals:
                        fold(totals[mode], term, out=totals[mode])
                    else:
                        totals[mode] = term
        for mode, total in totals.items():
            if product:
                np.log2(total, out=total)
            stats.setdefault((mode, "system"), []).append(_half_moments(total))
    return stats


def _half_moments(x):
    """The (n, mean, M2) of 0.5 x; halving is exact, so these are the bits
    the samples 0.5 x would give."""
    n, mean, m2 = _moments(x)
    return n, 0.5 * mean, 0.25 * m2


def _sinr(coefficients, u):
    """A / (B + u): the SINR of one decode's (A, B) pair at 1/rho = u."""
    a, b = coefficients
    out = b + u
    return np.divide(a, out, out=out)


def _oma_fades(config, stream, size):
    """The baseline's end-to-end fades, row i - 1 for signal i: its uplink's
    or its partner's downlink's, whichever is weaker.  One
    standard-exponential call draws the four uplinks, then the four
    downlinks; each row is scaled by its link's mean, and each downlink is
    folded into its partner's uplink in place.  Returns the first four rows
    of that (8, size) link array; the variates equal eight
    ``stream.exponential`` calls bit for bit, as in ``sample_channel_draw``."""
    scale = [config.omega(i) for i in SIGNALS] * 2
    links = stream.standard_exponential((8, size))
    links *= np.reshape(scale, (8, 1))
    for i, partner in _OMA_PARTNER.items():
        np.minimum(links[i - 1], links[3 + partner], out=links[i - 1])
    return links[:4]


def _oma_stats(config, fades, rhos, counted, signals):
    """Orthogonal-baseline failure counts if ``counted``, else per grid SNR
    rate moments, for each of ``signals`` and for the system of all four,
    from the (4, size) fades it is handed, row i - 1 for signal i."""
    if counted:
        # rho fade > thr exactly when fade / thr > 1/rho; a zero target's 1/thr
        # is +inf, and a fade of exactly 0.0 then a NaN margin, which never fails
        inverse = np.array([[inverse_threshold(oma_threshold(config.rate(i)))]
                            for i in SIGNALS])
        with np.errstate(invalid="ignore"):
            margins = fades * inverse
        words = _failure_words(margins, rhos)
        failed = _ones(words)
        stats = {("oma", i): failed[i - 1] for i in signals}
        # the system fails at rho when any exchange does
        stats["oma", "system"] = _ones(np.bitwise_or.reduce(words))
        return stats
    stats = {("oma", target): [] for target in signals + ("system",)}
    rates = np.empty(fades.shape)
    for rho in rhos:
        # 0.2 log2(1 + rho fade) in place; fresh four-row temporaries are slower
        np.multiply(fades, rho, out=rates)
        rates += 1.0
        np.log2(rates, out=rates)
        rates *= 0.2
        for i in signals:
            stats["oma", i].append(_moments(rates[i - 1]))
        stats["oma", "system"].append(_moments(rates[0] + rates[1] + rates[2] + rates[3]))
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
    """Per grid point, the (mean, M2) of sum_i 1{ok_i} R_i from exact success
    co-counts ``both`` of shape (4, 4, grid), as two lists of floats.

    With c_ij the draws where x_i and x_j both succeed (c_ii = c_i), the
    sum of squared deviations is sum_ij R_i R_j (n c_ij - c_i c_j) / n; the
    brackets are formed in integers, int64 while n^2 fits and Python
    integers past it, so no E[S^2] - E[S]^2 cancellation occurs.  Each sum
    starts from 0.0 and adds its terms in (i, j) order, as a Python ``sum``
    of the per-point terms would, and a negative M2 is clamped to 0.0.
    """
    n = int(n)
    c = both[range(4), range(4)]                                  # (4, grid)
    if n * n >= 1 << 63:               # n c_ij and c_i c_j reach n^2
        both, c = both.astype(object), c.astype(object)
    brackets = (n * both - c[:, None] * c).astype(float)
    counts = c.astype(float)
    mean = m2 = 0.0
    for i in range(4):
        mean = mean + rates[i] * counts[i]
        for j in range(4):
            m2 = m2 + rates[i] * rates[j] * brackets[i, j]
    m2 = m2 / float(n)
    return (mean / float(n)).tolist(), np.where(m2 < 0.0, 0.0, m2).tolist()


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
        if counts.ndim == 3:                     # success co-counts
            for point, mean, m2 in zip(grid, *_delivered_moments(rates, counts, n)):
                point[key] = _moment_estimate(mean, m2, n, seed)
        else:
            for point, failures in zip(grid, counts.tolist()):
                point[key] = _count_estimate(failures, n, seed)
    return grid


def _scaled(est, scale):
    """``est`` in units ``scale`` times its own, interval and all."""
    return McEstimate(mean=est.mean * scale, half_width_95=est.half_width_95 * scale,
                      n=est.n, seed=est.seed, ci_low=est.ci_low * scale,
                      ci_high=est.ci_high * scale)


def check_run(n, seed, point_index=0, workers=None):
    """ConfigError unless ``n`` samples from master ``seed`` at ``point_index``
    (integers, numpy's included, bools not) on ``workers`` threads (None or
    an int of at least 1, not a bool) make a run: the one check of a run's
    inputs."""
    for name, value in (("sample count", n), ("seed", seed), ("point index", point_index)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if n < 1000:
        raise ConfigError(f"a Monte Carlo run needs at least 1000 samples to "
                          f"state a confidence interval, got {n!r}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed!r}")
    if point_index < 0:
        raise ConfigError(f"point index must be nonnegative, got {point_index!r}")
    if workers is not None and (type(workers) is not int or workers < 1):
        raise ConfigError(f"workers must be None or an int of at least 1, got {workers!r}")


@dataclass(frozen=True)
class _Job:
    """One request of a pass, checked, with what its chunks read."""

    config: SystemConfig
    rhos: np.ndarray     # its own grid of linear SNRs
    metric: str
    targets: tuple
    modes: tuple
    oma: bool
    pairs: dict          # SignalIndex -> its requested signals
    means: tuple         # of the five gains, g1..g4 and gI
    base_key: tuple      # all a pairing's margin base reads but the draw's gains

    @classmethod
    def of(cls, config, rhos, metric, targets, modes, oma=False):
        rhos = linear_snr_grid(rhos)
        targets, modes, signals = check_request(metric, targets, modes, oma)
        pairs = {}               # x1/x2 share one SignalIndex, x3/x4 the other
        for s in signals:
            pairs.setdefault(SignalIndex.for_signal(s), []).append(s)
        means = tuple(config.omega(i) for i in SIGNALS) + (config.omega_I,)
        base_key = (means[:4] + tuple(config.a(i) for i in SIGNALS) + (config.b1, config.b3)
                    + tuple(config.rate(i) for i in SIGNALS) + (config.varpi1, config.varpi2))
        return cls(config, rhos, metric, targets, modes, oma, pairs, means, base_key)


def mc_grids(requests, n: int, seed: int, point_index: int = 0,
             workers=None) -> list:
    """``mc_grid`` for several requests in one pass: one list of per-SNR dicts
    per request, in order, each with the bits ``mc_grid`` gives it alone.

    ``requests`` holds (config, rhos, metric, targets, modes, oma) tuples,
    each with its own grid ``rhos``; they share ``n``, ``seed``,
    ``point_index`` and ``workers``.  Each chunk makes one NOMA draw for all
    of them, whatever their grids.  A gain row whose mean every request
    shares is scaled in the draw; a row whose mean differs (fig4's and
    fig5's gI) stays at unit mean, and each request scales it, a block at a
    time, into one block-long spare row that the requests take in turn.
    The chunk is walked a block at a time, each block serving every request
    in order, at the request's own grid SNRs: a counted request reads each
    pairing's ``margin_base`` of the block, formed once for all requests
    with the same g1..g4 means, a, b, r and leakage levels (fig4's and
    fig5's Omega_I variants share theirs), so only the residual gI is its
    own.  Baseline requests with the same link means share one fades draw
    per chunk.  Nothing is kept between calls.
    """
    check_run(n, seed, point_index, workers)
    jobs = [_Job.of(*request) for request in requests]
    drawn = [job for job in jobs if job.pairs]
    varying = [r for r in range(5) if len({job.means[r] for job in drawn}) > 1]

    def run(chunk_index, size):
        """Per job, one stats dict per block of the chunk, the last block
        ragged; each block is a view of the chunk's draws."""
        if drawn:            # one draw serves every job, rho and mode
            draw = sample_channel_draw(
                drawn[0].config, chunk_generator(seed, 2 * point_index, chunk_index),
                size=size, unit=varying)
            rows = (draw.g1, draw.g2, draw.g3, draw.g4, draw.gI)
            spare = np.empty((len(varying), min(size, BLOCK)))
        fades = {}           # baseline fades by link means, all of one substream
        for job in jobs:
            if job.oma and job.means[:4] not in fades:
                fades[job.means[:4]] = _oma_fades(job.config, chunk_generator(
                    seed, 2 * point_index + 1, chunk_index), size)
        chunk = [[] for _ in jobs]
        for start in range(0, size, BLOCK):
            b = slice(start, start + BLOCK)
            bases = {}       # this block's margin bases, by what they read
            for job, parts in zip(jobs, chunk):
                part = {}
                if job.pairs:
                    block = [row[b] for row in rows]
                    for out, r in zip(spare, varying):
                        block[r] = np.multiply(block[r], job.means[r],
                                               out=out[:block[r].size])
                    block = ChannelDraw(*block)
                    system = "system" in job.targets
                    if job.metric in COUNTED:
                        for idx in job.pairs:
                            if (job.base_key, idx) not in bases:
                                bases[job.base_key, idx] = margin_base(job.config, block, idx)
                        part = _counted_stats(block, job.pairs, job.modes, system, job.rhos,
                                              {idx: bases[job.base_key, idx]
                                               for idx in job.pairs})
                    else:
                        part = _rate_stats(job.config, block, job.pairs, job.modes, system,
                                           job.rhos)
                if job.oma:
                    part.update(_oma_stats(job.config, fades[job.means[:4]][:, b], job.rhos,
                                           job.metric in COUNTED, job.targets))
                parts.append(part)
        return chunk

    chunks = _map_chunks(n, run, workers)
    grids = []
    for k, job in enumerate(jobs):
        grid = _reduce(job.config, [part for chunk in chunks for part in chunk[k]], n,
                       seed, job.rhos.size)
        if job.metric.startswith("ee_"):
            scale = energy_efficiency(1.0, job.config)
            grid = [{key: _scaled(est, scale) for key, est in point.items()}
                    for point in grid]
        grids.append(grid)
    return grids


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
    differ only in ``metric`` or in ``rhos`` share their draws, and
    ``mc_grids`` runs several requests, each on its own grid, on one draw.
    The statistics read each chunk one block of BLOCK draws at a time.
    """
    return mc_grids([(config, rhos, metric, targets, modes, oma)], n, seed,
                    point_index, workers)[0]


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
    ``perfbench/tracing.py`` patches it.  A signal other than 1..4 or
    "system" is refused as ``oma_outage_exact`` refuses it, before any draw.
    """
    _check_oma_signal(signal)
    targets = () if signal == "system" else (signal,)
    return tuple(mc_grid(config, (config.rho,), n, seed, point_index, workers,
                         metric=metric, targets=targets, modes=(),
                         oma=True)[0]["oma", signal]
                 for metric in PER_SIGNAL)
