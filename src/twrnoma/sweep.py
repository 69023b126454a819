"""SNR sweeps: one row per grid point and curve, with paired MC columns.

Every row carries the analytical value and a seeded Monte Carlo estimate
side by side; the CSV is the cross-validation record, not just plot
fodder.  ``run_sweeps`` runs one ``SweepSpec`` over several (metric,
config) curves, as a preset's variants are, in one ``mc_grids`` pass, and
``run_sweep`` is its one-curve form: one channel draw per chunk serves
every curve, grid point, signal, SIC mode and system sum, and the
orthogonal baseline draws its own fades once for all of a curve's rows.
The substreams derive from the master seed and point index 0 alone, so
every grid point reads the same draws (common random numbers), and reruns
and different worker counts give identical bytes.  Each curve's analytic
and asymptotic columns come from one ``metrics.analytic_grid`` call with
its request, which also owns the reporting convention for the rate-style
metrics.  The simulation and the closed forms answer exactly the
(mode, target) keys of the request, and the simulation adds the
baseline's ("oma", target) keys, so a row is one estimate and reads its
closed form under the same key.  Neither reads ``config.rho``, and the
sweep makes no per-point copy of the config.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass

from . import metrics
from .metrics import PER_SIGNAL, SIGNALS
from .model import SIC_MODES, ConfigError, SystemConfig, is_linear_snr
from .montecarlo import check_run, mc_grids

# more SNR points than any figure needs; a larger grid is refused unbuilt
MAX_GRID_POINTS = 10_000

CSV_HEADER = ("snr_db,signal,metric,mode,analytic,asymptotic,"
              "mc_mean,mc_ci_low,mc_ci_high,feasible")


class OutputError(RuntimeError):
    pass


@dataclass(frozen=True)
class SweepSpec:
    """Everything a sweep CSV depends on besides the SystemConfig.

    ``snr`` is the (start, stop, step) grid in dB, at most MAX_GRID_POINTS
    points; at each point the linear SNR and its reciprocal are finite
    floats.  ``modes`` are the SIC modes that get rows.  ``signals``,
    integers in 1..4 (bools not), apply only to the per-signal metrics
    (outage, ergodic_rate); the system metrics always sum x1..x4.  The
    defaults are the command line's.
    """

    metric: str = "outage"
    signals: tuple = (1, 2)
    modes: tuple = SIC_MODES
    snr: tuple = (0.0, 40.0, 5.0)
    with_oma: bool = False
    with_asymptotic: bool = False
    mc_iterations: int = 1_000_000
    master_seed: int = 1729

    def __post_init__(self):
        metrics.check_request(self.metric, (), self.modes, self.with_oma)
        if len(self.snr) != 3:
            raise ConfigError(f"SNR grid must be (start, stop, step) in dB, "
                              f"got {self.snr!r}")
        start, stop, step = (float(v) for v in self.snr)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ConfigError(f"SNR grid values must be finite, got {self.snr!r}")
        if start > stop:
            raise ConfigError("SNR grid start exceeds stop")
        if step <= 0:
            raise ConfigError("SNR grid step must be positive")
        # grid_db makes floor(steps) + 1 points: past the cap iff steps >= it
        if _steps(start, stop, step) >= MAX_GRID_POINTS:
            raise ConfigError(f"SNR grid from {start!r} to {stop!r} dB in steps "
                              f"of {step!r} has more than {MAX_GRID_POINTS} points")
        object.__setattr__(self, "snr", (start, stop, step))
        # the first and last points of grid_db, without building it
        for db in (start, start + math.floor(_steps(start, stop, step)) * step):
            if not is_linear_snr(_linear(db)):
                raise ConfigError(f"SNR grid point {db!r} dB is beyond the float "
                                  f"range of a linear SNR")
        check_run(self.mc_iterations, self.master_seed)
        for s in self.signals:
            if isinstance(s, bool) or not isinstance(s, numbers.Integral) or s not in SIGNALS:
                raise ConfigError(f"signals must be integers in 1..4, got {s!r}")
        sigs = tuple(sorted({int(s) for s in self.signals}))
        if not sigs:
            raise ConfigError("signal set must not be empty")
        object.__setattr__(self, "signals", sigs)
        if not self.modes:
            raise ConfigError("modes must name at least one SIC mode")
        object.__setattr__(self, "modes", tuple(sorted(set(self.modes))))

    def grid_db(self):
        start, stop, step = self.snr
        count = int(math.floor(_steps(start, stop, step))) + 1
        return [start + i * step for i in range(count)]


def _linear(db):
    """The linear SNR of db decibels; inf where it overflows."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def _steps(start, stop, step):
    """Steps from start to stop, with slack so a rounded stop still counts."""
    return (stop - start) / step + 1e-9


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


def run_sweep(spec: SweepSpec, config: SystemConfig, workers: int = 1):
    """Evaluate the sweep and return rows sorted by (snr, signal, metric, mode)."""
    return run_sweeps(spec, [(spec.metric, config)], workers)[0]


def run_sweeps(spec: SweepSpec, curves, workers: int = 1):
    """``run_sweep`` of each (metric, config) curve over ``spec``'s grid, in
    one Monte Carlo pass: one table per curve, in order, each with the bytes
    it has alone.

    A curve's metric replaces ``spec.metric``; every other field of ``spec``
    serves all curves, as a preset's variants share it, so each chunk's
    channel draw serves them all.
    """
    grid = spec.grid_db()
    rhos = [_linear(db) for db in grid]
    requests = [(config, rhos, metric, spec.signals if metric in PER_SIGNAL else ("system",),
                 spec.modes, spec.with_oma) for metric, config in curves]
    ests = mc_grids(requests, spec.mc_iterations, spec.master_seed, workers=workers)
    return [_table(spec.with_asymptotic, grid, request, est)
            for request, est in zip(requests, ests)]


def _table(asymptotic, grid, request, ests):
    """The sorted rows of one curve from its request and Monte Carlo grid."""
    config, rhos, metric, targets, modes, _ = request
    values = metrics.analytic_grid(config, rhos, metric, targets, modes, asymptotic)
    rows = []
    for db, point_values, point_ests in zip(grid, values, ests):
        # a row per estimate; the baseline's have no closed form
        for (mode, target), est in point_ests.items():
            value, asym, feasible = point_values.get((mode, target), (None, None, True))
            name = target if target == "system" else f"x{target}"
            rows.append(MetricPoint(db, f"oma:{name}" if mode == "oma" else name,
                                    metric, mode, value, asym, est.mean, est.ci_low,
                                    est.ci_high, feasible))
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


def _write(path, content) -> str:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
    except OSError as exc:
        raise OutputError(f"cannot write output file {path}: {exc}") from exc
    return str(path)


def emit_outputs(table, path) -> str:
    """Write the table as CSV to ``path`` and return the path."""
    if not table:
        raise ValueError("refusing to write an empty table")
    return _write(path, render_csv(table))


def emit_plot_script(csv_path, path) -> str:
    """Write a standalone script that plots the CSV at ``csv_path``.

    The script reads the CSV by its file name from its own directory, so
    the two files travel together.  Returns ``path``.
    """
    csv_name = os.path.basename(csv_path)
    png_name = os.path.splitext(csv_name)[0] + ".png"
    return _write(path, _PLOT_TEMPLATE.replace("__CSV__", csv_name)
                  .replace("__PNG__", png_name))
