"""The shipped preset CSVs, cell by cell, at the scale they ship.

Every preset runs as ``twrnoma sweep --preset`` runs it: one
``run_sweeps`` pass over its variants at its own sample count (1e6 draws)
and seed (1729), one worker.  Every feasible cell with an analytic value
must hold its closed form within 2.5 half-widths of the Monte Carlo mean,
about 4.9 standard errors: over the presets' 344 such cells an unbiased
simulator trips that band with a chance of at most about 3e-4.  A cell
whose half-width is 0 must match its closed form exactly.

The counted presets (fig2..fig5, fig8_dl) run at their configured leakage.
The rate-style metrics report the leakage-free closed form by convention
(``metrics`` docstring), so fig6, fig7 and fig8_dt run with both leakage
levels at 0, against which their analytic column is exact.
"""

import dataclasses
import functools
import math

import pytest

from twrnoma.configio import PRESETS
from twrnoma.metrics import COUNTED
from twrnoma.model import SystemConfig
from twrnoma.sweep import run_sweeps

HALF_WIDTHS = 2.5


@functools.cache
def _tables(preset_name):
    """The preset's tables as the command line builds them, by CSV name,
    with the rate-style variants' leakage off."""
    preset = PRESETS[preset_name]
    curves = []
    for variant in preset.variants:
        metric = variant.metric or preset.metric
        config = dataclasses.replace(SystemConfig(), **variant.overrides)
        curves.append((metric, config if metric in COUNTED else config.without_leakage()))
    return {_csv_name(preset_name, variant): table
            for variant, table in zip(preset.variants, run_sweeps(preset, curves))}


def _csv_name(preset_name, variant):
    return f"{preset_name}_{variant.suffix}" if variant.suffix else preset_name


def _half_widths_off(row):
    """|Monte Carlo mean - closed form| in half-widths of the row's interval;
    0 or inf for a zero-width interval, as they match exactly or not."""
    gap = abs(row.mc_mean - row.analytic)
    half_width = (row.mc_ci_high - row.mc_ci_low) / 2.0
    if half_width == 0.0:
        return 0.0 if gap == 0.0 else math.inf
    return gap / half_width


# the leakage closed form treats the near user's gain in the relay's cross
# term and in the user's own decode as independent draws (ROADMAP item 1)
LEAKAGE_BIAS = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "leakage outage treats the near user's gain as two independent draws "
    "(ROADMAP item 1): x1, ipSIC, 5 dB sits 4.17 half-widths off"))

CSVS = [pytest.param(preset_name, name, id=name,
                     marks=[LEAKAGE_BIAS] if name == "fig3_varpi_0.1" else [])
        for preset_name, preset in sorted(PRESETS.items())
        for name in (_csv_name(preset_name, variant) for variant in preset.variants)]


@pytest.mark.parametrize("preset_name, csv_name", CSVS)
def test_shipped_cells_hold_their_closed_forms(preset_name, csv_name):
    cells = [row for row in _tables(preset_name)[csv_name]
             if row.analytic is not None and row.feasible]
    assert cells
    worst = max(cells, key=_half_widths_off)
    figure = _half_widths_off(worst)
    print(f"{csv_name}: {len(cells)} cells, worst {figure:.2f} half-widths "
          f"({worst.signal}, {worst.mode}, {worst.snr_db:g} dB)")
    assert figure <= HALF_WIDTHS
