"""The library functions that read or set a config's own SNR are pinned.

The sweeps, the grid routes and the simulator take their linear SNRs as
arguments.  Only the one-point routes the benchmark calls, ``SystemConfig``
itself and two validation checks still read ``config.rho``, copy a config
with ``rho=`` or move it with ``with_rho``.  A new function that does so
would grow that one-point layer, so it fails here.  The outage
intermediates carry their own ``rho``, a grid SNR, and are not counted.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twrnoma"

RHO_READERS = {
    "analysis.outage_asymptotic", "analysis.outage_probability",
    "ergodic._strong_rate_by_quadrature", "ergodic.ergodic_rate_strong_asymptotic",
    "ergodic.ergodic_rate_strong_closed", "ergodic.ergodic_rate_weak_highsnr",
    "ergodic.ergodic_rate_weak_numeric", "ergodic.strong_rate_ccdf_leakage",
    "model.SystemConfig", "model.sinr_set",
    "montecarlo.mc_ergodic", "montecarlo.mc_oma_baseline", "montecarlo.mc_outage",
    "montecarlo.oma_outage_exact",
    "validate._check_oma", "validate._check_rate_quadrature",
}


def _touches_rho(node):
    if isinstance(node, ast.Attribute) and node.attr in ("rho", "with_rho"):
        return not (isinstance(node.value, ast.Name) and node.value.id == "inter")
    return (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("replace")
            and any(keyword.arg == "rho" for keyword in node.keywords))


def _rho_readers(source):
    """The top-level functions and classes of ``source`` that read ``.rho``,
    call ``with_rho`` or ``replace`` a config's ``rho``."""
    return {top.name for top in ast.parse(source).body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            and any(_touches_rho(node) for node in ast.walk(top))}


def test_the_check_sees_every_form():
    source = ("def a(config):\n    return config.rho\n"
              "def b(config):\n    return dataclasses.replace(config, rho=2.0)\n"
              "def c(config):\n    return config.with_rho(2.0)\n"
              "class D:\n    def e(self):\n        def f():\n            return self.rho\n"
              "def g(inter):\n    return inter.rho\n"
              "def h(rho):\n    return Intermediates(rho=rho)\n")
    assert _rho_readers(source) == {"a", "b", "c", "D"}


def test_no_new_function_reads_the_config_snr():
    found = {f"{path.stem}.{name}" for path in PACKAGE.glob("*.py")
             for name in _rho_readers(path.read_text(encoding="utf-8"))}
    assert found == RHO_READERS
