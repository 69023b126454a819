"""Self-check battery: closed forms against simulation and known limits.

Each check compares an analytical quantity with an independent route
(Monte Carlo, quadrature, scipy, or a frozen limit) and reports one
pass/fail line.  The default profile is sized so a healthy build passes
with the pinned seed; the strict profile halves every tolerance band and
is expected to surface the checks that sit close to their band edge.
Every check returns (passed, tolerance, observed, detail) and is named in
``validate``'s table, so a check that raises is reported under its name.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .analysis import diversity_order_estimate, outage_asymptotic, outage_probability
from .ergodic import ergodic_rate_strong_closed, ergodic_rate_strong_quadrature
from .metrics import analytic
from .model import ConfigError, SignalIndex, SystemConfig
from .montecarlo import mc_point, oma_outage_exact
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


def _check_outage_vs_mc(config, scale, iterations, seed, workers):
    worst, band = 0.0, math.inf
    for point, db in enumerate((10.0, 25.0, 40.0)):
        cfg = config.with_rho(10.0 ** (db / 10.0))
        ests = mc_point(cfg, iterations, seed, point_index=point, workers=workers,
                        kind="outage", signals=(1, 2), modes=("ipsic", "psic"))
        for mode in ("ipsic", "psic"):
            for s in (1, 2):
                exact = outage_probability(cfg.with_mode(mode), s).p_exact
                sigma = math.sqrt(max(exact * (1.0 - exact), 0.0) / iterations)
                allowed = scale * max(3.0 * sigma, 0.005)
                gap = abs(ests["outage", mode, s].mean - exact)
                if gap * band > worst * allowed:
                    worst, band = gap, allowed
    return (worst <= band, band, worst,
            "worst |mc - exact| over 10/25/40 dB, x1/x2, both modes")


def _check_floor(config, scale):
    tol = 0.05 * scale
    worst = 0.0
    cfg60 = config.with_rho(1e6)
    for mode in ("ipsic", "psic"):
        cfg = cfg60.with_mode(mode)
        for s in (1, 2):
            exact = outage_probability(cfg, s).p_exact
            asym = outage_asymptotic(cfg, s).floor
            worst = max(worst, _rel(exact, asym))
    return worst <= tol, tol, worst, "60 dB exact vs floor, x1/x2, both modes"


def _check_diversity(config, scale):
    tol = 0.1 * scale
    rhos = [1e5, 1e6]
    worst = 0.0
    for mode in ("ipsic", "psic"):
        for s in (1, 2):
            probs = [outage_probability(config.with_rho(r).with_mode(mode),
                                        s).p_exact for r in rhos]
            worst = max(worst, abs(diversity_order_estimate(rhos, probs)))
    return (worst <= tol, tol, worst,
            "|slope| of log outage between 50 and 60 dB")


def _check_psic_limit(config, scale):
    tol = 1e-6 * scale
    worst = 0.0
    tiny = dataclasses.replace(config, omega_I=1e-12)
    for db in (10.0, 30.0):
        rho = 10.0 ** (db / 10.0)
        ip = tiny.with_rho(rho).with_mode("ipsic")
        p = config.with_rho(rho).with_mode("psic")
        for s in (1, 2):
            worst = max(worst, _rel(outage_probability(ip, s).p_exact,
                                    outage_probability(p, s).p_exact))
    zip_cfg = tiny.without_leakage().with_rho(100.0).with_mode("ipsic")
    zp_cfg = config.without_leakage().with_rho(100.0).with_mode("psic")
    idx = SignalIndex.for_signal(1)
    worst = max(worst, _rel(ergodic_rate_strong_closed(zip_cfg, idx),
                            ergodic_rate_strong_closed(zp_cfg, idx)))
    return (worst <= tol, tol, worst,
            "residual power 1e-12 reproduces perfect SIC")


def _check_rate_quadrature(config, scale):
    tol = 1e-8 * scale
    worst = 0.0
    idx = SignalIndex.for_signal(1)
    for mode in ("ipsic", "psic"):
        cfg = config.without_leakage().with_rho(100.0).with_mode(mode)
        worst = max(worst, _rel(ergodic_rate_strong_closed(cfg, idx),
                                ergodic_rate_strong_quadrature(cfg, idx)))
    return worst <= tol, tol, worst, "20 dB, leakage off, both modes"


def _check_rate_vs_mc(config, scale, iterations, seed, workers):
    tol = 0.02 * scale
    worst = 0.0
    cfg = config.without_leakage().with_rho(100.0)
    ests = mc_point(cfg, iterations, seed, point_index=5, workers=workers,
                    kind="rate", signals=(1, 2), modes=("ipsic", "psic"))
    for mode in ("ipsic", "psic"):
        mcfg = cfg.with_mode(mode)
        for s in (1, 2):
            closed = analytic(mcfg, "ergodic_rate", s)[0]
            worst = max(worst, _rel(closed, ests["rate", mode, s].mean))
    return worst <= tol, tol, worst, "20 dB, leakage off, x1/x2, both modes"


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
    worst, band = 0.0, math.inf
    for rates in cases:
        z = np.zeros(n)
        for lam in rates:
            z += rng.exponential(1.0 / lam, size=n)
        mean_z = sum(1.0 / lam for lam in rates) or 1.0
        for c in (0.25, 1.0, 4.0):
            s = c / mean_z
            sample = np.exp(-s * z)
            allowed = scale * 8.0 * float(sample.std()) / math.sqrt(n)
            gap = abs(float(sample.mean()) - hypoexp_laplace(rates, s))
            if gap * band > worst * allowed:
                worst, band = gap, allowed
    return (worst <= band, band, worst,
            "transform against sample means of exp(-sZ), random, tied "
            "and empty rate sets")


def _check_expint(scale):
    from scipy.special import expi
    tol = 1e-10 * scale
    grid = np.logspace(-6, math.log10(30.0), 60)
    worst = 0.0
    for x in np.concatenate([-grid, grid]):
        worst = max(worst, _rel(expint_ei(float(x)), float(expi(x))))
    return (worst <= tol, tol, worst,
            "exponential integral against scipy.special.expi")


def _check_oma(config, scale, iterations, seed, workers):
    cfg = config.with_rho(10.0)
    exact = oma_outage_exact(cfg, "system")
    est = mc_point(cfg, iterations, seed, point_index=7, workers=workers,
                   kind="outage", signals=(), oma=True)["oma_outage", "system"]
    sigma = math.sqrt(exact * (1.0 - exact) / iterations)
    band = scale * max(3.0 * sigma, 0.005)
    gap = abs(est.mean - exact)
    return gap <= band, band, gap, "orthogonal baseline system outage at 10 dB"


def _system_value(config, metric, rho, mode):
    return analytic(config.with_rho(rho).with_mode(mode), metric, "system")[0]


def _check_throughput_ceiling(config, scale):
    tol = 0.02 * scale
    worst = 0.0
    for mode in ("ipsic", "psic"):
        cfg = config.with_mode(mode)
        t50, t60 = (analytic(cfg.with_rho(rho), "throughput_dt", "system")[0]
                    for rho in (1e5, 1e6))
        worst = max(worst, _rel(t50, t60))
    return (worst <= tol, tol, worst,
            "delay tolerant throughput change from 50 to 60 dB")


def _check_ee(config, scale):
    tol = 0.05 * scale
    worst = 0.0
    for db in (0.0, 10.0, 20.0, 30.0, 40.0):
        rho = 10.0 ** (db / 10.0)
        ip, p = (_system_value(config, "ee_dl", rho, mode)
                 for mode in ("ipsic", "psic"))
        worst = max(worst, _rel(ip, p))
    # perfect SIC can only raise the delay tolerant efficiency
    ordered = all(_system_value(config, "ee_dt", rho, "psic")
                  >= _system_value(config, "ee_dt", rho, "ipsic")
                  for rho in (1e3, 1e5))
    detail = "delay limited efficiency gap between SIC modes, 0 to 40 dB"
    if not ordered:
        detail += "; delay tolerant ordering violated"
    return ordered and worst <= tol, tol, worst, detail


def validate(config: SystemConfig, profile: str = "default",
             iterations: int = 200_000, seed: int = DEFAULT_VALIDATE_SEED,
             workers=None) -> ValidationReport:
    """Run every consistency check and collect one result per check."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; "
                         f"choose from {sorted(PROFILES)}")
    if iterations < 1000:
        raise ConfigError("iterations below 1000 are too few to state a "
                          "confidence interval")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed!r}")
    scale = PROFILES[profile]
    checks = (
        ("outage_closed_vs_mc",
         lambda: _check_outage_vs_mc(config, scale, iterations, seed, workers)),
        ("outage_floor_vs_asymptote", lambda: _check_floor(config, scale)),
        ("diversity_order_zero", lambda: _check_diversity(config, scale)),
        ("psic_limit_recovery", lambda: _check_psic_limit(config, scale)),
        ("strong_rate_closed_vs_quadrature",
         lambda: _check_rate_quadrature(config, scale)),
        ("rate_closed_vs_mc",
         lambda: _check_rate_vs_mc(config, scale, iterations, seed, workers)),
        ("hypoexp_laplace_vs_mc", lambda: _check_laplace(scale, seed)),
        ("expint_vs_scipy", lambda: _check_expint(scale)),
        ("oma_baseline_mc_vs_exact",
         lambda: _check_oma(config, scale, iterations, seed, workers)),
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
