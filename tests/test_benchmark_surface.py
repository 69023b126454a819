"""Every library name the benchmark's workloads call must keep working.

``perfbench/workloads.py`` and ``perfbench/oracles.py`` call the library by
name and read fields of its records.  A name dropped or reshaped in the
library would only surface as a crash of ``perfbench/run.py``; these checks
fail first.  The workload file is parsed, not imported, and every call is
bound to its signature, not made.  The preset fields they read are checked
per preset in ``tests/test_preset_fields.py``.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

from twrnoma import cli, configio, ergodic, montecarlo, validate
from twrnoma.model import SignalIndex, SystemConfig

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_every_library_attribute_the_workloads_read_resolves():
    """Each ``module.name`` of a twrnoma module the workloads import."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    aliases = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name.startswith("twrnoma.")}
    # the module of the validate function, imported by importlib
    aliases["validate"] = "twrnoma.validate"
    used = {(aliases[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases}
    assert ("twrnoma.validate", "validate") in used
    missing = [(module, name) for module, name in sorted(used)
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


@pytest.mark.parametrize("fn, args, kwargs", [
    (cli.main, (["sweep"],), {}),
    (configio.parse_config, ("",), {}),
    (SignalIndex.for_signal, (1,), {}),
    (ergodic.ergodic_rate_strong_numeric, (SystemConfig(), SignalIndex.for_signal(1)), {}),
    (montecarlo.oma_outage_exact, (SystemConfig(), "system"), {}),
    (validate.validate, (SystemConfig(),),
     {"profile": "default", "iterations": 200_000, "seed": 1, "workers": 1}),
], ids=["cli.main", "configio.parse_config", "SignalIndex.for_signal",
        "ergodic.ergodic_rate_strong_numeric", "montecarlo.oma_outage_exact",
        "validate.validate"])
def test_the_workloads_calls_bind(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


def test_the_config_reads_of_the_workloads_and_oracles():
    """The default text parses to a config whose fields and per-user
    methods the oracles read, and ``with_rho`` moves its SNR."""
    config = configio.parse_config(configio.DEFAULT_CONFIG_TEXT)
    assert isinstance(config, SystemConfig)
    assert config.with_rho(10.0).rho == 10.0
    for field in ("varpi1", "varpi2", "omega_I"):
        assert isinstance(getattr(config, field), float)
    for i in (1, 2, 3, 4):
        assert all(isinstance(v, float) for v in (config.a(i), config.b(i), config.omega(i)))


def test_the_report_fields_the_workloads_read():
    assert {"name", "passed", "observed"} <= {
        f.name for f in dataclasses.fields(validate.CheckResult)}
    assert "results" in {f.name for f in dataclasses.fields(validate.ValidationReport)}
