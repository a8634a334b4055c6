"""Normalization, weighting distribution, moments and Mandel Q.

All quantities derive from three raw sums over the same term stream,

    S_m = sum_n n^m |z|^{2n} / g(n, k),   m = 0, 1, 2,

accumulated in the log domain.  The terms are walked once per amplitude
(``LogTermWalk``).  A truncation policy is a stopping rule over that walk,
either a fixed cutoff n_max, or adaptive stopping once the terms of the
m = 2 sum (the slowest to converge) stay below a relative significance
threshold for a sustained run, and the sums reduce the prefix it chose.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

from .core import PotentialParams, log_g_increment, log_sum_exp

__all__ = [
    "TruncationMode",
    "TruncationPolicy",
    "LogSeriesSums",
    "LogTermWalk",
    "StateStats",
    "WeightDistribution",
    "Classification",
    "VarianceConsistencyError",
    "accumulate_sums",
    "walk_sums",
    "state_stats",
    "weight_distribution",
    "classify",
]

# Rounding can push the computed variance slightly negative; anything below
# this floor is a logic error rather than noise.
_VARIANCE_FLOOR = -1e-9


class VarianceConsistencyError(RuntimeError):
    """Variance came out more negative than rounding can explain."""


class TruncationMode(enum.Enum):
    FIXED = "fixed"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class TruncationPolicy:
    """Fixed cutoff vs tolerance-driven adaptive truncation.

    Adaptive mode stops after ``quiet_run`` consecutive terms whose
    relative contribution falls below ``tail_tolerance``, with
    ``hard_cap`` as a safety bound on the number of terms.
    """

    mode: TruncationMode
    n_max: int | None = None
    tail_tolerance: float = 1e-16
    quiet_run: int = 10
    hard_cap: int = 10 ** 6

    def __post_init__(self):
        if self.mode is TruncationMode.FIXED:
            if self.n_max is None or self.n_max < 1:
                raise ValueError("fixed mode requires n_max >= 1")
        else:
            if not (0.0 < self.tail_tolerance < 1.0):
                raise ValueError("tail_tolerance must lie in (0, 1)")
            if self.quiet_run < 1:
                raise ValueError("quiet_run must be >= 1")
            if self.hard_cap < self.quiet_run:
                raise ValueError("hard_cap must be >= quiet_run")

    @classmethod
    def fixed(cls, n_max: int) -> "TruncationPolicy":
        return cls(mode=TruncationMode.FIXED, n_max=n_max)

    @classmethod
    def adaptive(cls, tail_tolerance: float = 1e-16, quiet_run: int = 10,
                 hard_cap: int = 10 ** 6) -> "TruncationPolicy":
        return cls(mode=TruncationMode.ADAPTIVE, tail_tolerance=tail_tolerance,
                   quiet_run=quiet_run, hard_cap=hard_cap)


@dataclass(frozen=True)
class LogSeriesSums:
    """The three log-domain raw sums plus the truncation record.

    log_s1/log_s2 are -inf when only the n = 0 term survives (|z| = 0).
    converged is True only for adaptive runs whose quiet-run criterion
    fired before the hard cap; estimated_threshold is the first index of
    that quiet run.
    """

    log_s0: float
    log_s1: float
    log_s2: float
    terms_used: int
    converged: bool
    estimated_threshold: int | None = None


@dataclass(frozen=True)
class StateStats:
    """Mean, variance, Mandel Q and normalization of the photon-number distribution.

    mandel_q is None (undefined) when the mean vanishes: at |z| = 0 the
    variance-to-mean ratio is 0/0 and no limit is defined.
    """

    mean: float
    variance: float
    mandel_q: float | None
    normalization: float
    sums: LogSeriesSums


@dataclass(frozen=True)
class WeightDistribution:
    """ln P_n for n = 0 .. support_bound, normalized over the truncated support.

    sums are the log sums of the same walk, convergence record included.
    """

    log_weights: list[float]
    support_bound: int
    sums: LogSeriesSums

    def weight(self, n: int) -> float:
        if 0 <= n <= self.support_bound:
            return math.exp(self.log_weights[n])
        return 0.0

    def weights(self) -> list[float]:
        return [math.exp(w) for w in self.log_weights]


class Classification(enum.Enum):
    POISSONIAN = "poissonian"
    SUPER_POISSONIAN = "super-poissonian"
    SUB_POISSONIAN = "sub-poissonian"
    UNDEFINED = "undefined"


class LogTermWalk:
    """ln term_n = ln(|z|^{2n} / g(n, k)) for n = 0, 1, ..., each computed once and kept.

    ``terms[n] = (terms[n - 1] + ln|z|^2) - ln[(n + gamma/4)^alpha - (gamma/4)^alpha]``,
    so a walk extended in steps holds exactly the terms of one extended at
    once, and every stopping rule and cutoff applied to it reads the same
    numbers.  At |z| = 0 the series is the single term n = 0 and the walk
    cannot be extended.  Iterating yields (n, ln term_n) for n >= 1: the
    stored terms first, then new ones for as long as the caller asks.
    """

    def __init__(self, abs_z: float, params: PotentialParams):
        if not (math.isfinite(abs_z) and abs_z >= 0.0):
            raise ValueError(f"abs_z must be a finite real >= 0, got {abs_z}")
        self.abs_z = abs_z
        self.params = params
        self.terms = [0.0]
        # The generator holds the list, not the walk, so that no reference
        # cycle keeps a long walk alive after its last use.
        self._steps = _grow(self.terms, abs_z, params)

    def __iter__(self):
        return itertools.chain(enumerate(self.terms[1:], 1), self._steps)

    def extend_to(self, n: int) -> None:
        for _ in range(n + 1 - len(self.terms)):
            next(self._steps)


def _grow(terms: list[float], abs_z: float, params: PotentialParams):
    """Append and yield (n, ln term_n) for n = len(terms), len(terms) + 1, ..."""
    if abs_z == 0.0:
        raise ValueError("the series at |z| = 0 ends at n = 0")
    log_z2 = 2.0 * math.log(abs_z)
    increment, append = log_g_increment, terms.append
    lt = terms[-1]
    for n in itertools.count(len(terms)):
        lt = lt + log_z2 - increment(n, params)
        append(lt)
        yield n, lt


def _stop_fixed(walk: LogTermWalk, n_max: int) -> int:
    """Fixed truncation: the walk runs to n_max, whatever the terms do."""
    walk.extend_to(n_max)
    return n_max


def _stop_adaptive(walk: LogTermWalk, policy: TruncationPolicy):
    """Adaptive truncation: (N, converged, threshold) for the walk.

    Stops once ``quiet_run`` consecutive terms of the m = 2 sum each add
    less than ``tail_tolerance`` of the running sum; threshold is the first
    index of that run.  Reaching ``hard_cap`` terms first stops the walk
    unconverged, without a threshold.
    """
    tol = policy.tail_tolerance
    running_log_s2 = -math.inf
    quiet = 0
    threshold = None
    for n, lt in walk:
        lt2 = lt + 2.0 * math.log(n)
        # The log-domain comparison decides first: exp of the difference
        # overflows once a term dwarfs the running sum (|z| near 1e300).
        significant = lt2 >= running_log_s2 or math.exp(lt2 - running_log_s2) >= tol
        hi, lo = (lt2, running_log_s2) if lt2 > running_log_s2 else (running_log_s2, lt2)
        running_log_s2 = hi + math.log1p(math.exp(lo - hi))
        if significant:
            quiet = 0
            threshold = None
        else:
            if quiet == 0:
                threshold = n
            quiet += 1
            if quiet >= policy.quiet_run:
                return n, True, threshold
        if n + 1 >= policy.hard_cap:
            return n, False, None


def _reduce(terms: list[float], n: int, converged: bool,
            threshold: int | None) -> LogSeriesSums:
    """The three log sums over the prefix terms[0..n] that a stopping rule chose."""
    log_s0 = log_sum_exp(itertools.islice(terms, n + 1))
    if n == 0:
        log_s1 = log_s2 = -math.inf
    else:
        log_s1 = log_sum_exp(lt + math.log(i) for i, lt
                             in enumerate(itertools.islice(terms, 1, n + 1), 1))
        log_s2 = log_sum_exp(lt + 2.0 * math.log(i) for i, lt
                             in enumerate(itertools.islice(terms, 1, n + 1), 1))
    return LogSeriesSums(log_s0=log_s0, log_s1=log_s1, log_s2=log_s2,
                         terms_used=n + 1, converged=converged,
                         estimated_threshold=threshold)


def walk_sums(walk: LogTermWalk, policy: TruncationPolicy) -> LogSeriesSums:
    """The sums of one truncation policy over ``walk``, extending it only as far as the policy needs.

    Policies applied one after another to the same walk share its terms, so
    a fixed cutoff read after the adaptive rule costs only its reduction.
    """
    adaptive = policy.mode is TruncationMode.ADAPTIVE
    if walk.abs_z == 0.0:
        # Only n = 0 survives: S0 = 1, S1 = S2 = 0.
        n, converged, threshold = 0, adaptive, 0 if adaptive else None
    elif adaptive:
        n, converged, threshold = _stop_adaptive(walk, policy)
    else:
        n, converged, threshold = _stop_fixed(walk, policy.n_max), False, None
    return _reduce(walk.terms, n, converged, threshold)


def accumulate_sums(abs_z: float, params: PotentialParams,
                    policy: TruncationPolicy) -> LogSeriesSums:
    """Accumulate S0, S1, S2 over one term stream under the truncation policy.

    An adaptive run that reaches hard_cap returns converged = False
    explicitly rather than a silently questionable number.
    """
    return walk_sums(LogTermWalk(abs_z, params), policy)


def state_stats(abs_z: float, params: PotentialParams,
                policy: TruncationPolicy) -> StateStats:
    """Mean, variance, Mandel Q and normalization from the accumulated sums."""
    sums = accumulate_sums(abs_z, params, policy)
    return stats_from_sums(sums)


def stats_from_sums(sums: LogSeriesSums) -> StateStats:
    mean = math.exp(sums.log_s1 - sums.log_s0) if sums.log_s1 != -math.inf else 0.0
    second = math.exp(sums.log_s2 - sums.log_s0) if sums.log_s2 != -math.inf else 0.0
    variance = second - mean * mean
    if variance < 0.0:
        if variance < _VARIANCE_FLOOR:
            raise VarianceConsistencyError(
                f"variance {variance} below rounding floor {_VARIANCE_FLOOR}")
        variance = 0.0
    mandel_q = variance / mean - 1.0 if mean > 0.0 else None
    normalization = math.exp(-0.5 * sums.log_s0)
    return StateStats(mean=mean, variance=variance, mandel_q=mandel_q,
                      normalization=normalization, sums=sums)


def weight_distribution(abs_z: float, params: PotentialParams,
                        policy: TruncationPolicy) -> WeightDistribution:
    """Normalized P_n over the truncated support: ln P_n = ln term_n - ln S0."""
    walk = LogTermWalk(abs_z, params)
    sums = walk_sums(walk, policy)
    log_weights = [lt - sums.log_s0 for lt in walk.terms]
    return WeightDistribution(log_weights=log_weights,
                              support_bound=len(log_weights) - 1, sums=sums)


def classify(stats: StateStats, tol: float) -> Classification:
    """Poissonian within tol of Q = 0, otherwise super/sub by sign; undefined Q maps through."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    q = stats.mandel_q
    if q is None:
        return Classification.UNDEFINED
    if abs(q) <= tol:
        return Classification.POISSONIAN
    return Classification.SUPER_POISSONIAN if q > 0 else Classification.SUB_POISSONIAN
