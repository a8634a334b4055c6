"""Truncation diagnostics: threshold estimation and fixed-vs-adaptive sweeps.

Truncating the series at a cutoff below the significance threshold starves
the moment sums of their dominant terms: the distribution piles up against
the cutoff, the variance collapses and Mandel Q plunges spuriously toward
-1.  This module estimates the threshold, runs cutoff families over a
|z| grid and locates the onset of that collapse for each cutoff.
``sweep_rows`` yields a grid's rows one at a time, so that a caller may
drop each once used; ``run_sweep`` holds them all in a report.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .core import PotentialParams
from .stats import (DEFAULT_POLICY, TruncationPolicy, _count, accumulate_sums,
                    policy_sums, stats_from_sums)
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
    "sweep_rows",
    "collapse_onset",
]


class ThresholdEstimateError(RuntimeError):
    """Adaptive accumulation hit its hard cap before the tail criterion fired."""


class SweepSpec(namedtuple("SweepSpec", "k gamma z_grid cutoffs")):
    """Axes of a fixed-vs-adaptive comparison sweep."""

    __slots__ = ()

    def __new__(cls, k: float, gamma: float, z_grid: tuple[float, ...],
                cutoffs: tuple[int, ...] = ()):
        z_grid, cutoffs = tuple(z_grid), tuple(_count("cutoffs", c) for c in cutoffs)
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

    def collapsed(self, n_max: int, drop: float = 0.5) -> bool:
        """True when cutoff ``n_max``'s Q lies more than ``drop`` below a converged adaptive Q."""
        q, q_fixed = self.adaptive_stats.mandel_q, self.fixed_stats[n_max].mandel_q
        return None not in (q, q_fixed) and not self.flagged and q_fixed < q - drop


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

    The policies share their walks and head stops (``stats.policy_sums``);
    each result equals a standalone run.
    """
    cutoffs = tuple(cutoffs)
    return _sweep_row(abs_z, params, (policy, *map(TruncationPolicy.fixed, cutoffs)), cutoffs)


def _sweep_row(abs_z: float, params: PotentialParams, policies: tuple[TruncationPolicy, ...],
               cutoffs: tuple[int, ...]) -> SweepRow:
    """``sweep_row`` over ready-made policies: the adaptive one, then one per cutoff."""
    adaptive, *fixed = map(stats_from_sums, policy_sums(abs_z, params, policies))
    return SweepRow(abs_z=abs_z, adaptive_stats=adaptive, fixed_stats=dict(zip(cutoffs, fixed)))


def sweep_rows(spec: SweepSpec, policy_defaults: TruncationPolicy):
    """Adaptive reference plus every fixed cutoff, for each grid point: its
    ``SweepRow``, yielded in grid order.

    Rows are independent; a row whose adaptive run fails to converge is
    flagged in place rather than aborting the sweep.  Identical inputs
    produce identical rows.  The policies are built once, for every row.
    """
    params, cutoffs = spec.params, spec.cutoffs
    policies = (policy_defaults, *map(TruncationPolicy.fixed, cutoffs))
    for abs_z in spec.z_grid:
        yield _sweep_row(abs_z, params, policies, cutoffs)


def run_sweep(spec: SweepSpec, policy_defaults: TruncationPolicy) -> TruncationReport:
    """Every row of ``sweep_rows``, held in a report."""
    return TruncationReport(spec=spec, rows=tuple(sweep_rows(spec, policy_defaults)))


def collapse_onset(report: TruncationReport, n_max: int,
                   drop: float = 0.5) -> float | None:
    """Smallest grid |z| where the fixed-cutoff Q has peeled off the adaptive Q by more than ``drop``.

    None when the cutoff tracks the adaptive reference over the whole grid
    (``SweepRow.collapsed`` is the test at each point).
    """
    if n_max not in report.spec.cutoffs:
        raise ValueError(f"n_max={n_max} is not one of the report cutoffs")
    if not (drop > 0 and math.isfinite(drop)):
        raise ValueError(f"drop must be a positive finite number, got {drop}")
    return next((row.abs_z for row in report.rows if row.collapsed(n_max, drop)), None)
