"""Every demo script runs to completion against the library in this tree."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# small Monte Carlo budgets keep the smoke run short
DEMOS = {
    "outage_floors.py": ["--iterations", "2000"],
    "rate_ceilings.py": [],
    "special_functions.py": [],
    "throughput_energy.py": [],
}


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name),
                           *DEMOS[name]], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_every_demo_is_smoke_tested():
    found = sorted(n for n in os.listdir(os.path.join(ROOT, "demos"))
                   if n.endswith(".py"))
    assert found == sorted(DEMOS)
