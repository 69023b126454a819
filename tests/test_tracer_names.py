"""Every library name the benchmark tracer patches must exist.

``perfbench/tracing.py`` wraps public functions by (module, name).  A name
removed or renamed in the library would only surface as a crash of
``perfbench/run.py --trace 1``; this check fails first.  The tracer file
is loaded from its path and only read: nothing is installed or patched.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = _load_tracing()._targets()
    assert targets
    missing = [(module, name) for module, name, *_ in targets
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []


def test_traced_names_are_distinct_functions():
    """The tracer matches functions by identity, so two traced names bound
    to one function object would wrap it twice."""
    targets = _load_tracing()._targets()
    objects = [getattr(importlib.import_module(module), name)
               for module, name, *_ in targets]
    assert len({id(fn) for fn in objects}) == len(objects)


@pytest.mark.parametrize("name", ["mc_outage", "mc_ergodic", "mc_oma_baseline"])
def test_traced_estimators_keep_their_sample_count_parameter(name):
    """The tracer binds each estimator call to its signature and reads the
    sample count by the parameter name ``n``."""
    import twrnoma.montecarlo as montecarlo

    assert "n" in inspect.signature(getattr(montecarlo, name)).parameters


def test_sinr_set_takes_the_draw_second():
    """The tracer reads the channel draw of a ``sinr_set`` call as its
    second positional argument, or by the keyword ``draw``."""
    from twrnoma.model import sinr_set

    assert list(inspect.signature(sinr_set).parameters)[1] == "draw"
