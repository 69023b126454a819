"""SNR sweeps: one row per grid point and curve, with paired MC columns.

Every row carries the analytical value and a seeded Monte Carlo estimate
side by side; the CSV is the cross-validation record, not just plot
fodder.  Each grid point makes one ``mc_point`` call for the one estimate
kind its rows read: one channel draw per chunk serves every signal, SIC
mode and system sum of that point, and the orthogonal baseline draws its
own fades once for all of its rows.  The substreams derive from (master
seed, grid position), so reruns and different worker counts give
identical bytes.

Rate-style metrics follow the reporting convention of the reference
curves: the analytic column is the leakage-free closed form while the
simulation runs the configured leakage, making the gap between the two
columns the visible cost of cross-antenna interference.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

from . import metrics as metrics_mod
from .analysis import outage_probability
from .ergodic import (ergodic_rate_strong_asymptotic, ergodic_rate_strong_closed,
                      ergodic_rate_weak_highsnr, ergodic_rate_weak_numeric)
from .model import ConfigError, SignalIndex, SystemConfig, signal_role
from .montecarlo import mc_point

METRICS = ("outage", "ergodic_rate", "throughput_dl", "throughput_dt",
           "ee_dl", "ee_dt")

# the one Monte Carlo estimate kind each metric's rows read
_MC_KIND = {"outage": "outage", "ergodic_rate": "rate",
            "throughput_dl": "throughput_dl", "throughput_dt": "throughput_dt",
            "ee_dl": "throughput_dl", "ee_dt": "throughput_dt"}

CSV_HEADER = ("snr_db,signal,metric,mode,analytic,asymptotic,"
              "mc_mean,mc_ci_low,mc_ci_high,feasible")


class OutputError(RuntimeError):
    pass


@dataclass(frozen=True)
class SweepSpec:
    snr_start_db: float = 0.0
    snr_stop_db: float = 40.0
    snr_step_db: float = 5.0
    metric: str = "outage"
    signals: tuple = (1, 2)
    sic_mode: str = "both"
    mc_iterations: int = 1_000_000
    master_seed: int = 1729
    include_asymptotic: bool = False
    include_oma: bool = False
    out_path: str | None = None

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}; "
                              f"choose from {METRICS}")
        if self.snr_start_db > self.snr_stop_db:
            raise ConfigError("SNR grid start exceeds stop")
        if self.snr_step_db <= 0:
            raise ConfigError("SNR grid step must be positive")
        if self.mc_iterations < 1000:
            raise ConfigError("mc_iterations below 1000 is too coarse to "
                              "state a confidence interval")
        sigs = tuple(sorted(set(int(s) for s in self.signals)))
        if not sigs:
            raise ConfigError("signal set must not be empty")
        for s in sigs:
            if s not in (1, 2, 3, 4):
                raise ConfigError(f"signals must be in 1..4, got {s}")
        object.__setattr__(self, "signals", sigs)
        if self.sic_mode not in ("ipsic", "psic", "both"):
            raise ConfigError(f"sic_mode must be ipsic, psic or both, "
                              f"got {self.sic_mode!r}")
        if self.master_seed < 0:
            raise ConfigError("master seed must be nonnegative")
        if self.include_oma and self.metric not in ("outage", "ergodic_rate"):
            raise ConfigError("the orthogonal baseline is defined for outage "
                              "and ergodic_rate sweeps only")

    @property
    def modes(self):
        return ("ipsic", "psic") if self.sic_mode == "both" else (self.sic_mode,)

    def grid_db(self):
        count = int(math.floor((self.snr_stop_db - self.snr_start_db)
                               / self.snr_step_db + 1e-9)) + 1
        return [self.snr_start_db + i * self.snr_step_db for i in range(count)]


@dataclass(frozen=True)
class MetricPoint:
    snr_db: float
    signal: str
    metric: str
    mode: str
    analytic: float | None
    asymptotic: float | None
    mc_mean: float | None
    mc_ci_low: float | None
    mc_ci_high: float | None
    feasible: bool

    def __post_init__(self):
        if self.mc_mean is not None:
            if not (self.mc_ci_low <= self.mc_mean <= self.mc_ci_high):
                raise ValueError("confidence interval must bracket the mean")


def _no_leakage(config):
    if config.varpi1 == 0.0 and config.varpi2 == 0.0:
        return config
    return dataclasses.replace(config, varpi1=0.0, varpi2=0.0)


def _rate_closed(config, signal):
    idx = SignalIndex.for_signal(signal)
    if signal_role(signal) == "strong":
        return ergodic_rate_strong_closed(config, idx)
    return ergodic_rate_weak_numeric(config, idx)


def _rate_asymptote(config, signal):
    idx = SignalIndex.for_signal(signal)
    if signal_role(signal) == "strong":
        return ergodic_rate_strong_asymptotic(config, idx)
    return ergodic_rate_weak_highsnr(config, idx)


def _mc_columns(est, scale=1.0):
    return dict(mc_mean=est.mean * scale, mc_ci_low=est.ci_low * scale,
                mc_ci_high=est.ci_high * scale)


def _signal_rows(spec, cfg_point, db, ests):
    """Per-signal rows for every mode, then the baseline rows once."""
    outage = spec.metric == "outage"
    kind = _MC_KIND[spec.metric]
    rows = []
    for mode in spec.modes:
        cfg = cfg_point.with_mode(mode)
        zero = _no_leakage(cfg)
        for s in spec.signals:
            if outage:
                res = outage_probability(cfg, s)
                analytic, feasible = res.p_exact, res.feasible
                asym = res.p_asymptotic if spec.include_asymptotic else None
            else:
                analytic, feasible = _rate_closed(zero, s), True
                asym = _rate_asymptote(zero, s) if spec.include_asymptotic else None
            rows.append(MetricPoint(db, f"x{s}", spec.metric, mode, analytic, asym,
                                    feasible=feasible,
                                    **_mc_columns(ests[kind, mode, s])))
    if spec.include_oma:
        for target in ("system",) + spec.signals:
            name = "oma:system" if target == "system" else f"oma:x{target}"
            rows.append(MetricPoint(db, name, spec.metric, "oma", None, None,
                                    feasible=True,
                                    **_mc_columns(ests[f"oma_{kind}", target])))
    return rows


def _system_row(spec, cfg, db, mode, ests):
    targets = (1, 2, 3, 4)
    if spec.metric in ("throughput_dl", "ee_dl"):
        rates = [cfg.rate(s) for s in targets]
        results = [outage_probability(cfg, s) for s in targets]
        feasible = all(r.feasible for r in results)
        analytic = metrics_mod.throughput_delay_limited(
            [r.p_exact for r in results], rates).value
        asym = None
        if spec.include_asymptotic:
            asym = sum((1.0 - r.p_asymptotic) * rate
                       for r, rate in zip(results, rates))
    else:
        zero = _no_leakage(cfg)
        feasible = True
        analytic = metrics_mod.throughput_delay_tolerant(
            [_rate_closed(zero, s) for s in targets]).value
        asym = None
        if spec.include_asymptotic:
            asym = sum(_rate_asymptote(zero, s) for s in targets)
    scale = 1.0
    if spec.metric in ("ee_dl", "ee_dt"):
        scale = metrics_mod.energy_efficiency(1.0, cfg)
        analytic *= scale
        if asym is not None:
            asym *= scale
    return MetricPoint(db, "system", spec.metric, mode, analytic, asym,
                       feasible=feasible,
                       **_mc_columns(ests[_MC_KIND[spec.metric], mode], scale))


def run_sweep(spec: SweepSpec, config: SystemConfig, workers: int = 1):
    """Evaluate the sweep and return rows sorted by (snr, signal, metric, mode)."""
    per_signal = spec.metric in ("outage", "ergodic_rate")
    rows = []
    for point_index, db in enumerate(spec.grid_db()):
        cfg_point = config.with_rho(10.0 ** (db / 10.0))
        ests = mc_point(cfg_point, spec.mc_iterations, spec.master_seed,
                        point_index=point_index, workers=workers,
                        kinds=(_MC_KIND[spec.metric],),
                        signals=spec.signals if per_signal else (1, 2, 3, 4),
                        modes=spec.modes, oma=spec.include_oma)
        if per_signal:
            rows.extend(_signal_rows(spec, cfg_point, db, ests))
        else:
            rows.extend(_system_row(spec, cfg_point.with_mode(mode), db, mode, ests)
                        for mode in spec.modes)
    rows.sort(key=lambda r: (r.snr_db, r.signal, r.metric, r.mode))
    return rows


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(table) -> str:
    lines = [CSV_HEADER]
    for row in table:
        lines.append(",".join([
            _cell(float(row.snr_db)), row.signal, row.metric, row.mode,
            _cell(row.analytic), _cell(row.asymptotic), _cell(row.mc_mean),
            _cell(row.mc_ci_low), _cell(row.mc_ci_high), _cell(row.feasible)]))
    return "\n".join(lines) + "\n"


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Plot __CSV__: one curve per (signal, mode) pair."""
import csv
import os

import matplotlib
matplotlib.use(os.environ.get("MPLBACKEND", "Agg"))
import matplotlib.pyplot as plt

here = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(here, "__CSV__"), newline="") as fh:
    rows = list(csv.DictReader(fh))

metric = rows[0]["metric"] if rows else "metric"
series = {}
for row in rows:
    key = (row["signal"], row["mode"])
    bucket = series.setdefault(key, ([], []))
    value = row["mc_mean"] or row["analytic"]
    if value:
        bucket[0].append(float(row["snr_db"]))
        bucket[1].append(float(value))

fig, ax = plt.subplots(figsize=(7.0, 5.0))
for (signal, mode), (xs, ys) in sorted(series.items()):
    ax.plot(xs, ys, marker="o", label=f"{signal} ({mode})")
if metric == "outage":
    ax.set_yscale("log")
ax.set_xlabel("SNR (dB)")
ax.set_ylabel(metric.replace("_", " "))
ax.grid(True, which="both", alpha=0.3)
ax.legend(fontsize=8)
fig.savefig(os.path.join(here, "__PNG__"), dpi=150, bbox_inches="tight")
print("wrote __PNG__")
'''


def render_plot_script(csv_name: str) -> str:
    png_name = os.path.splitext(csv_name)[0] + ".png"
    return (_PLOT_TEMPLATE
            .replace("__CSV__", csv_name)
            .replace("__PNG__", png_name))


def emit_outputs(table, format: str, path, csv_path=None) -> str:
    """Write the table as CSV, or a plot script that reads that CSV."""
    if not table:
        raise ValueError("refusing to write an empty table")
    if format == "csv":
        content = render_csv(table)
    elif format == "plot-script":
        name = os.path.basename(csv_path) if csv_path else (
            os.path.splitext(os.path.basename(path))[0] + ".csv")
        content = render_plot_script(name)
    else:
        raise ValueError(f"unknown output format {format!r}")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
    except OSError as exc:
        raise OutputError(f"cannot write output file {path}: {exc}") from exc
    return str(path)
