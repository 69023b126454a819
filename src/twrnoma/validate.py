"""Self-check battery: closed forms against simulation and known limits.

Each check compares an analytical quantity with an independent route
(Monte Carlo, quadrature, scipy, or a frozen limit) and reports one
pass/fail line.  The default profile is sized so a healthy build passes
with the pinned seed; the strict profile halves every tolerance band and
is expected to surface the checks that sit close to their band edge.
Every check yields (gap, band) pairs to one pass rule, ``_verdict``: it
reports the pair furthest outside its band, by gap/band, and passes when
that gap is at most its band; a NaN gap or band is furthest out and fails
as observed nan.  Each check returns (passed, tolerance, observed, detail)
and is named in ``validate``'s table, so a check that raises is reported
under its name, as observed nan.

The checks pass every SNR to ``analytic_grid`` and ``mc_grids``; only the
checks of a one-point route (the strong-rate quadrature reference and the
baseline's closed form) build a config at their SNR.
The three simulation checks read one ``mc_grids`` pass, each on its own
grid: the outage check at 10, 25 and 40 dB, the rate check, leakage off,
at 20 dB and the orthogonal-baseline check at 10 dB.  Each chunk draws the
NOMA gains once for the outage and the rate check, whose configs have
equal means (common random numbers), and the baseline's fades once.  Each
band is a floor or three standard errors, whichever is wider.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .analysis import FLOOR_RHO, diversity_order_estimate
from .ergodic import ergodic_rate_strong_closed, ergodic_rate_strong_quadrature
from .metrics import analytic_grid
from .model import SIC_MODES, SignalIndex, SystemConfig
from .montecarlo import _Z95, check_run, mc_grids, oma_outage_exact
from .specfun import expint_ei, hypoexp_laplace

PROFILES = {"default": 1.0, "strict": 0.5}

DEFAULT_VALIDATE_SEED = 424242


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    tolerance: float
    observed: float
    detail: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        text = (f"{status} {self.name}: observed {self.observed:.3e} "
                f"against tolerance {self.tolerance:.3e}")
        if self.detail:
            text += f" ({self.detail})"
        return text


@dataclass(frozen=True)
class ValidationReport:
    profile: str
    results: tuple

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def lines(self):
        body = [r.line() for r in self.results]
        verdict = "all checks passed" if self.passed else (
            f"{sum(1 for r in self.results if not r.passed)} check(s) failed")
        body.append(f"profile {self.profile}: {verdict}")
        return body


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _verdict(pairs):
    """(passed, band, gap) of the first (gap, band) pair holding a NaN, else
    of the first of largest gap/band, compared cross-multiplied."""
    worst = None
    for gap, band in pairs:
        if math.isnan(gap) or math.isnan(band):
            return False, band, gap
        if worst is None or gap * worst[1] > worst[0] * band:
            worst = gap, band
    gap, band = worst
    return gap <= band, band, gap


# the SNRs of the simulation checks: outage, rate and orthogonal baseline
_OUTAGE_RHOS = tuple(10.0 ** (db / 10.0) for db in (10.0, 25.0, 40.0))
_RATE_RHO = 100.0
_OMA_RHO = 10.0


def _simulate(config, iterations, seed, workers):
    """The Monte Carlo grids of the outage, rate and baseline checks, in that
    order, from one ``mc_grids`` pass."""
    return mc_grids([(config, _OUTAGE_RHOS, "outage", (1, 2), SIC_MODES, False),
                     (config.without_leakage(), (_RATE_RHO,), "ergodic_rate", (1, 2),
                      SIC_MODES, False),
                     (config, (_OMA_RHO,), "outage", (), (), True)],
                    iterations, seed, workers=workers)


def _check_outage_vs_mc(config, scale, grid):
    exacts = analytic_grid(config, _OUTAGE_RHOS, "outage", (1, 2), SIC_MODES)
    pairs = []
    for values, ests in zip(exacts, grid):
        for key, est in ests.items():
            exact = values[key][0]
            sigma = math.sqrt(max(exact * (1.0 - exact), 0.0) / est.n)
            pairs.append((abs(est.mean - exact), scale * max(3.0 * sigma, 0.005)))
    return (*_verdict(pairs),
            "worst |mc - exact| over 10/25/40 dB, x1/x2, both modes")


def _check_floor(config, scale):
    at60, at_floor = analytic_grid(config, (1e6, FLOOR_RHO), "outage", (1, 2),
                                   SIC_MODES, asymptotic=True)
    return (*_verdict((_rel(value, at_floor[key][1]), 0.05 * scale)
                      for key, (value, _, _) in at60.items()),
            "60 dB exact vs floor, x1/x2, both modes")


def _check_diversity(config, scale):
    rhos = [1e5, 1e6]
    values = analytic_grid(config, rhos, "outage", (1, 2), SIC_MODES)
    slopes = (diversity_order_estimate(rhos, [point[key][0] for point in values])
              for key in values[0])
    return (*_verdict((abs(slope), 0.1 * scale) for slope in slopes),
            "|slope| of log outage between 50 and 60 dB")


def _check_psic_limit(config, scale):
    pairs = []
    tiny = dataclasses.replace(config, omega_I=1e-12)
    for metric, rhos, signals in (("outage", (10.0, 1e3), (1, 2)),
                                  ("ergodic_rate", (100.0,), (1,))):
        ip = analytic_grid(tiny, rhos, metric, signals, ("ipsic",))
        p = analytic_grid(config, rhos, metric, signals, ("psic",))
        for ip_point, p_point in zip(ip, p):
            for s in signals:
                pairs.append((_rel(ip_point["ipsic", s][0], p_point["psic", s][0]),
                              1e-6 * scale))
    return (*_verdict(pairs), "residual power 1e-12 reproduces perfect SIC")


def _check_rate_quadrature(config, scale):
    idx = SignalIndex.for_signal(1)
    cfg = dataclasses.replace(config, rho=100.0, varpi1=0.0, varpi2=0.0)
    return (*_verdict((_rel(ergodic_rate_strong_closed(cfg, idx, mode),
                            ergodic_rate_strong_quadrature(cfg, idx, mode)), 1e-8 * scale)
                      for mode in SIC_MODES),
            "20 dB, leakage off, both modes")


def _check_rate_vs_mc(config, scale, grid):
    closed = analytic_grid(config, (_RATE_RHO,), "ergodic_rate", (1, 2), SIC_MODES)[0]
    pairs = []
    for key, est in grid[0].items():
        exact = closed[key][0]
        pairs.append((_rel(exact, est.mean),
                      scale * max(0.02, 3.0 * est.half_width_95 / _Z95 / exact)))
    return (*_verdict(pairs), "20 dB, leakage off, x1/x2, both modes")


def _check_laplace(scale, seed):
    # seeded sample means of exp(-s Z) at s = 1/4, 1 and 4 over E[Z], for
    # random rate triples, a tie (an Erlang stage) and the empty sum Z = 0;
    # the band is 8 standard errors of the mean, 4 under the strict profile,
    # and over seeds 0..299 the worst gap was 3.7 of them
    n = 1 << 16
    rng = np.random.default_rng(seed)
    cases = [tuple(float(v) for v in rng.uniform(0.05, 20.0, size=3))
             for _ in range(3)]
    cases += [(2.0, 2.0, 5.0), ()]
    pairs = []
    for rates in cases:
        z = np.zeros(n)
        for lam in rates:
            z += rng.exponential(1.0 / lam, size=n)
        mean_z = sum(1.0 / lam for lam in rates) or 1.0
        for c in (0.25, 1.0, 4.0):
            s = c / mean_z
            sample = np.exp(-s * z)
            pairs.append((abs(float(sample.mean()) - hypoexp_laplace(rates, s)),
                          scale * 8.0 * float(sample.std()) / math.sqrt(n)))
    return (*_verdict(pairs),
            "transform against sample means of exp(-sZ), random, tied "
            "and empty rate sets")


def _check_expint(scale):
    from scipy.special import expi
    grid = np.logspace(-6, math.log10(30.0), 60)
    return (*_verdict((_rel(expint_ei(float(x)), float(expi(x))), 1e-10 * scale)
                      for x in np.concatenate([-grid, grid])),
            "exponential integral against scipy.special.expi")


def _check_oma(config, scale, grid):
    exact = oma_outage_exact(config.with_rho(_OMA_RHO), "system")
    est = grid[0]["oma", "system"]
    sigma = math.sqrt(exact * (1.0 - exact) / est.n)
    return (*_verdict([(abs(est.mean - exact), scale * max(3.0 * sigma, 0.005))]),
            "orthogonal baseline system outage at 10 dB")


def _system_values(config, metric, rhos):
    """The closed-form system value of ``metric`` per SNR of ``rhos``, as a
    dict keyed by SIC mode."""
    return [{mode: point[mode, "system"][0] for mode in SIC_MODES}
            for point in analytic_grid(config, rhos, metric, ("system",), SIC_MODES)]


def _check_throughput_ceiling(config, scale):
    t50, t60 = _system_values(config, "throughput_dt", (1e5, 1e6))
    return (*_verdict((_rel(t50[mode], t60[mode]), 0.02 * scale) for mode in SIC_MODES),
            "delay tolerant throughput change from 50 to 60 dB")


def _check_ee(config, scale):
    rhos = [10.0 ** (db / 10.0) for db in (0.0, 10.0, 20.0, 30.0, 40.0)]
    passed, band, gap = _verdict((_rel(ee["ipsic"], ee["psic"]), 0.05 * scale)
                                 for ee in _system_values(config, "ee_dl", rhos))
    # perfect SIC can only raise the delay tolerant efficiency
    ordered = all(ee["psic"] >= ee["ipsic"]
                  for ee in _system_values(config, "ee_dt", (1e3, 1e5)))
    detail = "delay limited efficiency gap between SIC modes, 0 to 40 dB"
    if not ordered:
        detail += "; delay tolerant ordering violated"
    return ordered and passed, band, gap, detail


def validate(config: SystemConfig, profile: str = "default",
             iterations: int = 200_000, seed: int = DEFAULT_VALIDATE_SEED,
             workers: int = 1) -> ValidationReport:
    """Run every consistency check and collect one result per check.

    The outage, rate and baseline checks read one Monte Carlo pass, which
    the first of them makes; a pass that raises is reported under each of
    the three names.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; "
                         f"choose from {sorted(PROFILES)}")
    check_run(iterations, seed, workers=workers)
    scale = PROFILES[profile]
    simulated = functools.cache(lambda: _simulate(config, iterations, seed, workers))
    checks = (
        ("outage_closed_vs_mc",
         lambda: _check_outage_vs_mc(config, scale, simulated()[0])),
        ("outage_floor_vs_asymptote", lambda: _check_floor(config, scale)),
        ("diversity_order_zero", lambda: _check_diversity(config, scale)),
        ("psic_limit_recovery", lambda: _check_psic_limit(config, scale)),
        ("strong_rate_closed_vs_quadrature",
         lambda: _check_rate_quadrature(config, scale)),
        ("rate_closed_vs_mc", lambda: _check_rate_vs_mc(config, scale, simulated()[1])),
        ("hypoexp_laplace_vs_mc", lambda: _check_laplace(scale, seed)),
        ("expint_vs_scipy", lambda: _check_expint(scale)),
        ("oma_baseline_mc_vs_exact", lambda: _check_oma(config, scale, simulated()[2])),
        ("throughput_ceiling", lambda: _check_throughput_ceiling(config, scale)),
        ("energy_efficiency_modes", lambda: _check_ee(config, scale)),
    )
    results = []
    for name, check in checks:
        try:
            results.append(CheckResult(name, *check()))
        except Exception as exc:
            results.append(CheckResult(name, False, 0.0, math.nan,
                                       f"{type(exc).__name__}: {exc}"))
    return ValidationReport(profile, tuple(results))
