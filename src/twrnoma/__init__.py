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
from .model import (ChannelDraw, ConfigError, SignalIndex, SinrSet, SystemConfig,
                    gamma_threshold, sample_channel_draw, signal_role, sinr_set,
                    sinr_sets)
from .montecarlo import (McEstimate, ci_bounds, mc_ergodic, mc_grid,
                         mc_oma_baseline, mc_outage, mc_point, oma_outage_exact)
from .specfun import (EULER_GAMMA, HypoExpParams, expei_neg, expint_ei,
                      hypoexp_cdf, hypoexp_laplace, hypoexp_pdf, phi_weights,
                      resolve_rates)
from .sweep import CSV_HEADER, MetricPoint, SweepSpec, emit_outputs, run_sweep
from .validate import CheckResult, ValidationReport, validate

__version__ = "0.1.0"

__all__ = [
    "AsymptoticOutage", "ChannelDraw", "CheckResult", "ConfigError",
    "CSV_HEADER", "DEFAULT_CONFIG_TEXT", "EULER_GAMMA", "HypoExpParams",
    "McEstimate", "MetricPoint", "OutageResult", "PRESETS", "QuadratureError",
    "SignalIndex", "SinrSet", "SweepSpec", "SystemConfig", "ValidationReport",
    "ci_bounds",
    "diversity_order_estimate", "energy_efficiency", "expei_neg", "expint_ei",
    "ergodic_rate_strong_asymptotic", "ergodic_rate_strong_closed",
    "ergodic_rate_strong_numeric", "ergodic_rate_strong_quadrature",
    "ergodic_rate_weak_highsnr", "ergodic_rate_weak_numeric",
    "gamma_threshold", "high_snr_slope_estimate", "hypoexp_cdf",
    "hypoexp_laplace", "hypoexp_pdf", "load_config",
    "mc_ergodic", "mc_grid", "mc_oma_baseline", "mc_outage", "mc_point",
    "oma_outage_exact",
    "outage_asymptotic", "outage_probability", "parse_config", "phi_weights",
    "resolve_rates", "run_sweep", "sample_channel_draw", "signal_role",
    "sinr_set", "sinr_sets", "throughput_delay_limited", "throughput_delay_tolerant",
    "validate", "emit_outputs",
]
