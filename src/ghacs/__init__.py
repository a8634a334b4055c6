"""Photon-number statistics of generalized Heisenberg algebra coherent states
for power-law potentials, evaluated overflow-safely in the log domain."""

from .core import PotentialParams, characteristic_exponent, log_g_increment, log_sum_exp
from .lab import (SweepRow, SweepSpec, ThresholdEstimateError, TruncationReport,
                  collapse_onset, estimate_threshold, run_sweep, sweep_row)
from .stats import (Classification, LogSeriesSums, LogTermWalk, StateStats,
                    TruncationMode, TruncationPolicy, VarianceConsistencyError,
                    WeightDistribution, accumulate_sums, classify, state_stats,
                    walk_sums, weight_distribution)

__version__ = "0.1.0"

__all__ = [
    "PotentialParams", "characteristic_exponent", "log_g_increment", "log_sum_exp",
    "TruncationMode", "TruncationPolicy", "LogSeriesSums", "LogTermWalk", "StateStats",
    "WeightDistribution", "Classification", "VarianceConsistencyError",
    "accumulate_sums", "walk_sums", "state_stats", "weight_distribution", "classify",
    "SweepSpec", "SweepRow", "TruncationReport", "ThresholdEstimateError",
    "estimate_threshold", "run_sweep", "sweep_row", "collapse_onset",
]
