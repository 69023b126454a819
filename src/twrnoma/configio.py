"""Config-file parsing and the named figure presets.

The on-disk format is flat `key = value` text with dotted section prefixes
and # comments, diff-able and stable enough to check into a repo next to
the CSV it produced.  Values map one-to-one onto SystemConfig fields; the
only unit conversion, residual-interference dB to linear variance, happens
here so the model layer never sees decibels.  Transmit SNR and the SIC
mode are deliberately not config keys: they are sweep axes (``SweepSpec.snr``
and ``SweepSpec.modes``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ConfigError, SystemConfig
from .sweep import SweepSpec

SCHEMA_VERSION = 1

DEFAULT_CONFIG_TEXT = """\
# Two-way-relay NOMA baseline parameters.
# Transmit SNR and the SIC mode are not set here; sweeps supply them.
schema_version = 1

# uplink power allocation per signal
noma.a1 = 0.8
noma.a2 = 0.2
noma.a3 = 0.8
noma.a4 = 0.2
# downlink power share of x1 and x3, in (0, 0.5); the far user's share
# is 1 - b1 (and 1 - b3)
noma.b1 = 0.2
noma.b3 = 0.2

# cross-antenna leakage at the relay and at the users, and the
# residual-interference variance left by imperfect cancellation
noma.varpi1 = 0.01
noma.varpi2 = 0.01
noma.omega_i_db = -20

# geometry: each link's mean gain is d^-alpha of its user's distance
channel.alpha = 2
channel.d1 = 2
channel.d2 = 10

# target rates, bits per channel use
rates.r1 = 0.1
rates.r2 = 0.01
rates.r3 = 0.1
rates.r4 = 0.01

# energy-efficiency denominator
power.pu_watts = 10
power.pr_watts = 10
power.t = 1
"""


def _as_float(raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}") from None


def _db_to_linear(raw):
    try:
        return 10.0 ** (_as_float(raw) / 10.0)
    except OverflowError:
        raise ConfigError(f"{raw} dB overflows the linear scale") from None


# dotted key -> (SystemConfig field, converter)
_KEYS = {
    "noma.a1": ("a1", _as_float), "noma.a2": ("a2", _as_float),
    "noma.a3": ("a3", _as_float), "noma.a4": ("a4", _as_float),
    "noma.b1": ("b1", _as_float), "noma.b3": ("b3", _as_float),
    "noma.varpi1": ("varpi1", _as_float), "noma.varpi2": ("varpi2", _as_float),
    "noma.omega_i_db": ("omega_I", _db_to_linear),
    "channel.alpha": ("alpha", _as_float),
    "channel.d1": ("d1", _as_float), "channel.d2": ("d2", _as_float),
    "rates.r1": ("r1", _as_float), "rates.r2": ("r2", _as_float),
    "rates.r3": ("r3", _as_float), "rates.r4": ("r4", _as_float),
    "power.pu_watts": ("pu_watts", _as_float),
    "power.pr_watts": ("pr_watts", _as_float),
    "power.t": ("t_slot", _as_float),
}


def parse_config(text: str) -> SystemConfig:
    """Build a SystemConfig from config text; unknown keys are errors."""
    fields = {}
    seen = set()
    version = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        if key == "schema_version":
            version = raw
            continue
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        field, convert = _KEYS[key]
        try:
            fields[field] = convert(raw)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    if version is None:
        raise ConfigError("config text must declare schema_version = 1")
    if _as_float(version) != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}; "
                          f"this build reads version {SCHEMA_VERSION}")
    return SystemConfig(**fields)


def load_config(path) -> SystemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)


@dataclass(frozen=True)
class PresetVariant:
    """One parameterization within a preset; suffix names its output file."""

    suffix: str
    overrides: dict
    metric: str | None = None


@dataclass(frozen=True)
class Preset(SweepSpec):
    """A bundled sweep: its spec plus the config variants, one CSV each."""

    variants: tuple = (PresetVariant("", {}),)


PRESETS = {
    "fig2": Preset("outage", with_oma=True, with_asymptotic=True),
    "fig3": Preset("outage", variants=(
        PresetVariant("varpi_0", {"varpi1": 0.0, "varpi2": 0.0}),
        PresetVariant("varpi_0.01", {"varpi1": 0.01, "varpi2": 0.01}),
        PresetVariant("varpi_0.1", {"varpi1": 0.1, "varpi2": 0.1}),
    )),
    "fig4": Preset("outage", modes=("ipsic",), variants=(
        PresetVariant("omegaI_-20dB", {"varpi1": 0.0, "varpi2": 0.0, "omega_I": 1e-2}),
        PresetVariant("omegaI_-10dB", {"varpi1": 0.0, "varpi2": 0.0, "omega_I": 1e-1}),
        PresetVariant("omegaI_0dB", {"varpi1": 0.0, "varpi2": 0.0, "omega_I": 1.0}),
    )),
    "fig5": Preset("throughput_dl", variants=(
        PresetVariant("omegaI_-20dB", {"omega_I": 1e-2}),
        PresetVariant("omegaI_-10dB", {"omega_I": 1e-1}),
    )),
    "fig6": Preset("ergodic_rate", snr=(0.0, 50.0, 5.0)),
    "fig7": Preset("throughput_dt", snr=(0.0, 50.0, 5.0)),
    "fig8": Preset("ee_dl", snr=(0.0, 50.0, 5.0), variants=(
        PresetVariant("dl", {}, metric="ee_dl"),
        PresetVariant("dt", {}, metric="ee_dt"),
    )),
}
