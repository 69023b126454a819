"""Two-way relay NOMA link analysis.

Closed-form outage, ergodic rate, throughput and energy efficiency for a
pair-exchange relay network with imperfect successive interference
cancellation, cross-validated against seeded Monte Carlo simulation.
"""

from .analysis import (AsymptoticOutage, OutageResult, diversity_order_estimate,
                       outage_asymptotic, outage_probability)
from .ergodic import (QuadratureError, ergodic_rate_strong_asymptotic,
                      ergodic_rate_strong_closed, ergodic_rate_strong_numeric,
                      ergodic_rate_strong_quadrature, ergodic_rate_weak_highsnr,
                      ergodic_rate_weak_numeric, high_snr_slope_estimate)
from .configio import DEFAULT_CONFIG_TEXT, PRESETS, load_config, parse_config
from .metrics import (energy_efficiency, throughput_delay_limited,
                      throughput_delay_tolerant)
from .model import (SIC_MODES, ChannelDraw, ConfigError, SignalIndex, SystemConfig,
                    gamma_threshold, sample_channel_draw, sic_epsilon)
from .montecarlo import McEstimate, ci_bounds, mc_grid, mc_grids, oma_outage_exact
from .specfun import EULER_GAMMA, expei_neg, expint_ei, hypoexp_laplace
from .sweep import (CSV_HEADER, MetricPoint, SweepSpec, emit_outputs, run_sweep,
                    run_sweeps)
from .validate import CheckResult, ValidationReport

__version__ = "0.1.0"

__all__ = [
    "AsymptoticOutage", "ChannelDraw", "CheckResult", "ConfigError",
    "CSV_HEADER", "DEFAULT_CONFIG_TEXT", "EULER_GAMMA", "McEstimate",
    "MetricPoint", "OutageResult", "PRESETS", "QuadratureError",
    "SIC_MODES", "SignalIndex", "SweepSpec", "SystemConfig", "ValidationReport",
    "ci_bounds", "diversity_order_estimate", "emit_outputs",
    "energy_efficiency", "ergodic_rate_strong_asymptotic",
    "ergodic_rate_strong_closed", "ergodic_rate_strong_numeric",
    "ergodic_rate_strong_quadrature", "ergodic_rate_weak_highsnr",
    "ergodic_rate_weak_numeric", "expei_neg", "expint_ei", "gamma_threshold",
    "high_snr_slope_estimate", "hypoexp_laplace", "load_config", "mc_grid",
    "mc_grids", "oma_outage_exact", "outage_asymptotic", "outage_probability",
    "parse_config", "run_sweep", "run_sweeps", "sample_channel_draw", "sic_epsilon",
    "throughput_delay_limited", "throughput_delay_tolerant",
]
