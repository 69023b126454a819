"""Every preset carries the fields the benchmark reads.

``perfbench/workloads.py`` reads each ``configio.PRESETS`` value's grid,
signals, modes, baseline flag and metric, and each variant's suffix,
config overrides and metric, to name and check the CSVs it times.  A
reshaped preset would only surface as a crash of ``perfbench/run.py``;
this check fails first.
"""

import dataclasses

import pytest

from twrnoma.configio import PRESETS
from twrnoma.model import SystemConfig


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_has_the_fields_the_benchmark_reads(name):
    preset = PRESETS[name]
    start, stop, step = preset.snr
    assert start <= stop and step > 0
    assert len(preset.signals) * len(preset.modes) > 0
    assert isinstance(preset.with_oma, bool)
    assert isinstance(preset.metric, str) and preset.metric
    assert preset.variants
    for variant in preset.variants:
        assert isinstance(variant.suffix, str)
        assert variant.metric is None or (isinstance(variant.metric, str)
                                          and variant.metric)
        dataclasses.replace(SystemConfig(), **variant.overrides)
