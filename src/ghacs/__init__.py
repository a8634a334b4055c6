"""Photon-number statistics of generalized Heisenberg algebra coherent states
for power-law potentials, evaluated overflow-safely in the log domain."""

from .core import PotentialParams, log_g, log_g_increment, log_sum_exp
from .lab import (SweepRow, SweepSpec, ThresholdEstimateError, TruncationReport,
                  collapse_onset, estimate_threshold, run_sweep, sweep_row)
from .stats import (LogSeriesSums, LogTermWalk, StateStats, TruncationPolicy,
                    VarianceConsistencyError, WeightDistribution, accumulate_sums,
                    policy_sums, state_stats, weight_distribution)

__version__ = "0.1.0"

__all__ = [
    "PotentialParams", "log_g", "log_g_increment", "log_sum_exp",
    "TruncationPolicy", "LogSeriesSums", "LogTermWalk", "StateStats",
    "WeightDistribution", "VarianceConsistencyError",
    "accumulate_sums", "policy_sums", "state_stats", "weight_distribution",
    "SweepSpec", "SweepRow", "TruncationReport", "ThresholdEstimateError",
    "estimate_threshold", "run_sweep", "sweep_row", "collapse_onset",
]
