"""Truncation diagnostics: threshold estimation and fixed-vs-adaptive sweeps.

Truncating the series at a cutoff below the significance threshold starves
the moment sums of their dominant terms: the distribution piles up against
the cutoff, the variance collapses and Mandel Q plunges spuriously toward
-1.  This module estimates the threshold, runs cutoff families over a
|z| grid and locates the onset of that collapse for each cutoff.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .core import PotentialParams
from .stats import (DEFAULT_POLICY, LogTermWalk, StateStats, TruncationPolicy,
                    accumulate_sums, start_index, stats_from_sums, walk_sums)
# Not called here, but the benchmark's tracer (bench/tracing.py) wraps
# ghacs.lab.state_stats, so the name stays bound.
from .stats import state_stats  # noqa: F401

__all__ = [
    "SweepSpec",
    "SweepRow",
    "TruncationReport",
    "ThresholdEstimateError",
    "estimate_threshold",
    "run_sweep",
    "sweep_row",
    "collapse_onset",
]


class ThresholdEstimateError(RuntimeError):
    """Adaptive accumulation hit its hard cap before the tail criterion fired."""


class SweepSpec(namedtuple("SweepSpec", "k gamma z_grid cutoffs")):
    """Axes of a fixed-vs-adaptive comparison sweep."""

    __slots__ = ()

    def __new__(cls, k: float, gamma: float, z_grid: tuple[float, ...],
                cutoffs: tuple[int, ...] = ()):
        z_grid, cutoffs = tuple(z_grid), tuple(cutoffs)
        if any(b <= a for a, b in zip(z_grid, z_grid[1:])):
            raise ValueError("z_grid must be strictly increasing")
        if not all(math.isfinite(z) and z >= 0 for z in z_grid):
            raise ValueError("z_grid values must be finite and >= 0")
        if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
            raise ValueError("cutoffs must be strictly increasing")
        if any(c < 1 for c in cutoffs):
            raise ValueError("cutoffs must be >= 1")
        PotentialParams(k=k, gamma=gamma)  # rejects k and gamma out of range
        return super().__new__(cls, k, gamma, z_grid, cutoffs)

    @property
    def params(self) -> PotentialParams:
        return PotentialParams(k=self.k, gamma=self.gamma)


class SweepRow(namedtuple("SweepRow", "abs_z adaptive_stats fixed_stats")):
    """One amplitude: the adaptive reference and the stats of each fixed cutoff, by n_max."""

    __slots__ = ()

    @property
    def threshold_estimate(self) -> int | None:
        """The adaptive reference's threshold n_th; None when it did not converge."""
        return self.adaptive_stats.sums.estimated_threshold

    @property
    def flagged(self) -> bool:
        """True when the adaptive reference did not converge; kept, not dropped."""
        return not self.adaptive_stats.sums.converged


class TruncationReport(namedtuple("TruncationReport", "spec rows")):
    """A sweep's spec and its rows, one per grid amplitude in grid order."""

    __slots__ = ()


def estimate_threshold(abs_z: float, params: PotentialParams,
                       tail_tolerance: float = DEFAULT_POLICY.tail_tolerance,
                       quiet_run: int = DEFAULT_POLICY.quiet_run,
                       hard_cap: int = DEFAULT_POLICY.hard_cap) -> int:
    """First index of the sustained run of insignificant terms.

    Nondecreasing in abs_z for fixed parameters: larger amplitudes push
    the distribution peak, and with it the tail, to higher n.
    """
    if abs_z <= 0:
        raise ValueError(f"abs_z must be > 0, got {abs_z}")
    policy = TruncationPolicy.adaptive(tail_tolerance=tail_tolerance,
                                       quiet_run=quiet_run, hard_cap=hard_cap)
    sums = accumulate_sums(abs_z, params, policy)
    if not sums.converged:
        raise ThresholdEstimateError(
            f"no sustained quiet run within hard_cap={hard_cap} "
            f"for abs_z={abs_z}, k={params.k}, gamma={params.gamma}")
    return sums.estimated_threshold


def sweep_row(abs_z: float, params: PotentialParams, policy: TruncationPolicy,
              cutoffs: tuple[int, ...] = ()) -> SweepRow:
    """The adaptive reference and every fixed cutoff at one amplitude.

    Policies whose walks start at the same index (the peak, for the adaptive
    rule and every cutoff above it) share one walk; a cutoff below the peak
    starts its own at the cutoff.  Each result equals a standalone run.
    """
    walks = {}

    def stats_of(p: TruncationPolicy) -> StateStats:
        start = start_index(abs_z, params, p)
        if start not in walks:
            walks[start] = LogTermWalk(abs_z, params, start)
        return stats_from_sums(walk_sums(walks[start], p))

    adaptive = stats_of(policy)
    fixed = {n_max: stats_of(TruncationPolicy.fixed(n_max)) for n_max in cutoffs}
    return SweepRow(abs_z=abs_z, adaptive_stats=adaptive, fixed_stats=fixed)


def run_sweep(spec: SweepSpec, policy_defaults: TruncationPolicy) -> TruncationReport:
    """Adaptive reference plus every fixed cutoff, for each grid point.

    Rows are independent and emitted in grid order; a row whose adaptive
    run fails to converge is flagged in place rather than aborting the
    sweep.  Identical inputs produce an identical report.
    """
    params = spec.params
    rows = tuple(sweep_row(abs_z, params, policy_defaults, spec.cutoffs)
                 for abs_z in spec.z_grid)
    return TruncationReport(spec=spec, rows=rows)


def collapse_onset(report: TruncationReport, n_max: int,
                   drop: float = 0.5) -> float | None:
    """Smallest grid |z| where the fixed-cutoff Q has peeled off the adaptive Q by more than ``drop``.

    None when the cutoff tracks the adaptive reference over the whole grid.
    """
    if n_max not in report.spec.cutoffs:
        raise ValueError(f"n_max={n_max} is not one of the report cutoffs")
    if drop <= 0:
        raise ValueError("drop must be positive")
    for row in report.rows:
        q_adaptive = row.adaptive_stats.mandel_q
        q_fixed = row.fixed_stats[n_max].mandel_q
        if q_adaptive is None or q_fixed is None or row.flagged:
            continue
        if q_fixed < q_adaptive - drop:
            return row.abs_z
    return None
