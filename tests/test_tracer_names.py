"""Every library name the benchmark tracer patches must exist.

``perfbench/tracing.py`` wraps public functions by (module, name).  A name
removed or renamed in the library would only surface as a crash of
``perfbench/run.py --trace 1``; this check fails first.  The tracer file
is loaded from its path and only read: nothing is installed or patched.
"""

import importlib
import importlib.util
from pathlib import Path

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
