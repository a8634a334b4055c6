"""Normalization, weighting distribution, moments and Mandel Q.

All quantities derive from three raw sums over the same term stream,

    S_m = sum_n n^m t_n,   t_n = |z|^{2n} / g(n, k),   m = 0, 1, 2.

The terms rise to one peak, near n* = (|z|^2 + c^alpha)^(1/alpha) - c with
c = gamma/4, and fall after it, and at large |z| their mass sits in a few
standard deviations around it: at k = 0.5, |z| = 15 about 24k terms around
n* = 7.7e5.  So the walk (``LogTermWalk``) starts at the largest term of the
summed range, with ln t of that anchor in closed form (``core.log_g``), and
steps outward one factor at a time, keeping logs relative to the anchor
term.  A truncation policy is a stopping rule over the walk.  Downward it
stops once the skipped head is provably below ``tail_tolerance`` of the
largest term.  Upward it stops at a fixed cutoff n_max, or adaptively once
the terms of the m = 2 sum (the slowest to converge) stay below the
tolerance of its running value for a sustained run.  One compensated pass
reduces the window to ln S0 and the first two moments about its largest
term, so the variance is formed without cancellation.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

from .core import PotentialParams, log_g, log_g_increment, log_sum_exp

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
    "start_index",
    "walk_sums",
    "state_stats",
    "weight_distribution",
    "classify",
]

# Rounding leaves the variance m2 - m1^2 within a few ulps of m2 of its true,
# non-negative value; a deficit beyond this share of m2 is a logic error.
_VARIANCE_FLOOR = -1e-9

# A walk starts at n = 0 when the peak lies beyond this index, where n + c
# stops being exact in a double.
_MAX_START = 2 ** 52

# A fixed-cutoff walk drops the head below the peak once it weighs less than
# this share of the largest term: the adaptive default, held constant so that
# fixed-mode numbers depend on n_max alone.
_FIXED_HEAD_TOLERANCE = 1e-16


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
    ``hard_cap`` as a safety bound on the number of terms summed around the
    peak, terms_used - first_index.  Below the peak it drops the head once
    that weighs less than ``tail_tolerance`` of the largest term; a fixed
    cutoff drops it at 1e-16 of the largest term.
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
    """ln S0, the first two moments about an origin, and the truncation record.

    The moments are taken about ``origin``, the index of the largest summed
    term: m1 = S1/S0 - origin and m2 = sum_n (n - origin)^2 t_n / S0.  The
    mean is origin + m1 and the variance m2 - m1^2, free of the
    cancellation in S2/S0 - (S1/S0)^2.  The summed window is first_index ..
    terms_used - 1; the terms below it sum to less than the tail tolerance
    times the largest term.  converged is True only for adaptive runs whose
    quiet-run criterion fired before the hard cap; estimated_threshold is
    the first index of that quiet run.
    """

    log_s0: float
    origin: int
    m1: float
    m2: float
    terms_used: int
    converged: bool
    estimated_threshold: int | None = None
    first_index: int = 0

    @property
    def log_s1(self) -> float:
        """ln S1; -inf when only n = 0 carries weight (|z| = 0)."""
        return self.log_s0 + _log(self.origin + self.m1)

    @property
    def log_s2(self) -> float:
        """ln S2; -inf when only n = 0 carries weight (|z| = 0)."""
        return self.log_s0 + _log(self.m2 + self.origin * (self.origin + 2.0 * self.m1))


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


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


class WeightDistribution:
    """ln P_n for n = 0 .. support_bound, normalized over the summed window.

    sums are the sums of the walk, convergence record included.  The rows
    are read off the walk when first asked for, so that the sums and the
    support bound can be checked before paying for them.  The rows below
    the window (n < sums.first_index), which together weigh less than the
    tail tolerance, cost one factor each, and at large |z| they far
    outnumber the window: 3.2 million rows around a 50k-term window at
    k = 0.5, |z| = 20.
    """

    def __init__(self, walk: LogTermWalk, sums: LogSeriesSums):
        self.sums = sums
        self.support_bound = sums.terms_used - 1
        # ln S0 relative to the anchor term, summed again rather than taken
        # as log_s0 - log_anchor, which would cancel digits at large ln S0.
        self._log_mass = log_sum_exp(walk.window(sums.first_index, self.support_bound))
        self._walk = walk
        self._log_weights = None

    @property
    def log_weights(self) -> list[float]:
        if self._log_weights is None:
            self._walk.extend_to(0)
            self._log_weights = [r - self._log_mass
                                 for r in self._walk.window(0, self.support_bound)]
            self._walk = None  # the rows replace the walk's values
        return self._log_weights

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
    """r(n) = ln t_n - ln t_anchor over a contiguous span of n around an anchor index.

    ln t_anchor = 2 anchor ln|z| - ln g(anchor) comes in closed form
    (``log_anchor``).  Every other value is one factor away from its
    neighbour nearer the anchor, r(n) = r(n - 1) + (ln|z|^2 - ln factor_n),
    so a walk extended in steps, up or down, holds exactly the values of one
    extended at once, and every stopping rule and cutoff applied to it reads
    the same numbers.  At |z| = 0 the series is the single term n = 0 and the
    walk cannot be extended.
    """

    def __init__(self, abs_z: float, params: PotentialParams, anchor: int = 0):
        _check_amplitude(abs_z)
        if anchor < 0 or (abs_z == 0.0 and anchor > 0):
            raise ValueError(f"no term {anchor} to anchor a walk at |z| = {abs_z}")
        self.abs_z = abs_z
        self.params = params
        self.anchor = anchor
        self.log_anchor = (2.0 * anchor * math.log(abs_z) - log_g(anchor, params)
                           if anchor else 0.0)
        self._up = [0.0]  # r(anchor), r(anchor + 1), ...
        self._down = []   # r(anchor - 1), r(anchor - 2), ...
        # The generators hold the lists, not the walk, so that no reference
        # cycle keeps a long walk alive after its last use.
        self._grow_up = _grow(self._up, anchor + 1, 1, abs_z, params)
        self._grow_down = _grow(self._down, anchor - 1, -1, abs_z, params)

    @property
    def lo(self) -> int:
        return self.anchor - len(self._down)

    @property
    def hi(self) -> int:
        return self.anchor + len(self._up) - 1

    def r(self, n: int) -> float:
        if n >= self.anchor:
            return self._up[n - self.anchor]
        return self._down[self.anchor - 1 - n]

    def window(self, lo: int, hi: int) -> list[float]:
        """r(lo), ..., r(hi), for lo..hi inside the span (empty when hi < lo)."""
        a = self.anchor
        if hi < a:
            return self._down[a - 1 - hi:a - lo][::-1]
        if lo >= a:
            return self._up[lo - a:hi - a + 1]
        return self._down[:a - lo][::-1] + self._up[:hi - a + 1]

    def extend_to(self, n: int) -> None:
        """Extend the span to include n, one factor per new index."""
        if n < 0:
            raise ValueError(f"no term below n = 0, asked for {n}")
        for _ in range(n - self.hi):
            next(self._grow_up)
        for _ in range(self.lo - n):
            next(self._grow_down)

    def upward(self, start: int):
        """(n, r(n)) for n = start + 1, start + 2, ...: stored values, then new ones as asked.

        ``start`` lies inside the span, as it does for ``downward``.
        """
        stored = self.window(start + 1, self.hi)
        return itertools.chain(zip(itertools.count(start + 1), stored), self._grow_up)

    def downward(self, start: int):
        """(n, r(n)) for n = start - 1, ..., 0: stored values, then new ones as asked."""
        stored = self.window(self.lo, start - 1)[::-1]
        return itertools.chain(zip(itertools.count(start - 1, -1), stored), self._grow_down)


def _grow(values: list[float], first: int, step: int, abs_z: float,
          params: PotentialParams):
    """Append and yield (n, r(n)) for n = first, first + step, ..., from the anchor
    (r = 0) outward; downward the walk ends at n = 0."""
    if abs_z == 0.0:
        if step > 0:
            raise ValueError("the series at |z| = 0 ends at n = 0")
        return
    log_z2 = 2.0 * math.log(abs_z)
    # Bound when the walk first grows: tests and the benchmark's tracer wrap it.
    increment, append = log_g_increment, values.append
    r = 0.0
    if step > 0:
        for n in itertools.count(first):
            r += log_z2 - increment(n, params)
            append(r)
            yield n, r
    else:
        for n in range(first, -1, -1):
            r -= log_z2 - increment(n + 1, params)
            append(r)
            yield n, r


def _check_amplitude(abs_z: float) -> None:
    if not (math.isfinite(abs_z) and abs_z >= 0.0):
        raise ValueError(f"abs_z must be a finite real >= 0, got {abs_z}")


def _peak_index(abs_z: float, params: PotentialParams) -> int | None:
    """floor((|z|^2 + c^alpha)^(1/alpha) - c), the index of the largest term.

    t_n / t_{n-1} = |z|^2 / [(n + c)^alpha - c^alpha] is at least 1 up to this
    index and below 1 after it.  None when the index lies beyond 2^52.
    """
    a, c = params.alpha, params.offset
    x, y = 2.0 * math.log(abs_z), a * math.log(c)
    log_peak = (max(x, y) + math.log1p(math.exp(-abs(x - y)))) / a
    if log_peak > math.log(_MAX_START):
        return None
    return max(0, math.floor(math.exp(log_peak) - c))


def start_index(abs_z: float, params: PotentialParams, policy: TruncationPolicy) -> int:
    """Where a walk for ``policy`` starts: the largest term of the range it sums.

    That is the peak, or the cutoff n_max when it lies below the peak; an
    adaptive walk whose peak lies beyond 2^52 starts at n = 0.
    """
    _check_amplitude(abs_z)
    peak = _peak_index(abs_z, params) if abs_z > 0.0 else 0
    if policy.mode is TruncationMode.FIXED:
        return policy.n_max if peak is None else min(peak, policy.n_max)
    return 0 if peak is None else peak


def _stop_head(walk: LogTermWalk, start: int, log_tol: float, cap: int):
    """Walk down from ``start``: (first index of the window, whether the head closed).

    Stops at the first n with (n + 1) t_n < tol * (largest term so far):
    the terms rise up to the peak, so t_0 + ... + t_n is at most that.
    Reaching ``cap`` window terms first leaves the head open.
    """
    walk.extend_to(start)
    r_max = walk.r(start)
    lo = start
    for n, r in walk.downward(start):
        if math.log(n + 1) + r < log_tol + r_max:
            break
        if start - n + 1 >= cap:
            return lo, False
        lo = n
        if r > r_max:
            r_max = r
    return lo, True


def _stop_adaptive(walk: LogTermWalk, start: int, lo: int, policy: TruncationPolicy):
    """Adaptive truncation above ``start``: (last index, converged, threshold).

    Stops once ``quiet_run`` consecutive terms of the m = 2 sum each add
    less than ``tail_tolerance`` of its running value, which starts as the
    sum over the window lo..start; threshold is the first index of that run.
    Reaching ``hard_cap`` window terms first stops the walk unconverged,
    without a threshold.
    """
    tol = policy.tail_tolerance
    running_log_s2 = log_sum_exp(r + 2.0 * math.log(n) if n else -math.inf
                                 for n, r in enumerate(walk.window(lo, start), lo))
    quiet = 0
    threshold = None
    for n, r in walk.upward(start):
        lt2 = r + 2.0 * math.log(n)
        # The log-domain comparison decides first: exp of the difference
        # overflows once a term dwarfs the running sum (|z| near 1e300).
        significant = lt2 >= running_log_s2 or math.exp(lt2 - running_log_s2) >= tol
        big, small = (lt2, running_log_s2) if lt2 > running_log_s2 else (running_log_s2, lt2)
        running_log_s2 = big + math.log1p(math.exp(small - big))
        if significant:
            quiet = 0
            threshold = None
        else:
            if quiet == 0:
                threshold = n
            quiet += 1
            if quiet >= policy.quiet_run:
                return n, True, threshold
        if n + 1 - lo >= policy.hard_cap:
            return n, False, None


def _reduce(walk: LogTermWalk, lo: int, hi: int, converged: bool,
            threshold: int | None) -> LogSeriesSums:
    """ln S0 and the moments about the largest term, over the window lo..hi, in one pass.

    With weights w_n = t_n / t_max and d = n - origin, sum w, sum w d and
    sum w d^2 are summed exactly (math.fsum) and give S0, m1 and m2.
    """
    rs = walk.window(lo, hi)
    r_max = max(rs)
    origin = lo + rs.index(r_max)
    ds = range(lo - origin, hi + 1 - origin)
    ws = [math.exp(r - r_max) for r in rs]
    wd = [w * d for w, d in zip(ws, ds)]
    s0 = math.fsum(ws)
    return LogSeriesSums(
        log_s0=math.fsum((walk.log_anchor, r_max, math.log(s0))), origin=origin,
        m1=math.fsum(wd) / s0, m2=math.fsum(x * d for x, d in zip(wd, ds)) / s0,
        terms_used=hi + 1, converged=converged, estimated_threshold=threshold,
        first_index=lo)


def walk_sums(walk: LogTermWalk, policy: TruncationPolicy) -> LogSeriesSums:
    """The sums of one truncation policy over ``walk``, extending it only as far as the policy needs.

    The window starts at the walk's anchor, or at n_max when a fixed cutoff
    lies below it.  Policies applied one after another to the same walk
    share its values, so a fixed cutoff read after the adaptive rule costs
    only its reduction.
    """
    adaptive = policy.mode is TruncationMode.ADAPTIVE
    if walk.abs_z == 0.0:
        # Only n = 0 survives: S0 = 1, S1 = S2 = 0.
        return _reduce(walk, 0, 0, adaptive, 0 if adaptive else None)
    if adaptive:
        start = walk.anchor
        lo, closed = _stop_head(walk, start, math.log(policy.tail_tolerance), policy.hard_cap)
        if not closed:
            return _reduce(walk, lo, start, False, None)
        hi, converged, threshold = _stop_adaptive(walk, start, lo, policy)
        return _reduce(walk, lo, hi, converged, threshold)
    start = min(walk.anchor, policy.n_max)
    lo, _ = _stop_head(walk, start, math.log(_FIXED_HEAD_TOLERANCE), math.inf)
    walk.extend_to(policy.n_max)
    return _reduce(walk, lo, policy.n_max, False, None)


def accumulate_sums(abs_z: float, params: PotentialParams,
                    policy: TruncationPolicy) -> LogSeriesSums:
    """The sums of one term walk under the truncation policy, started at its largest term.

    An adaptive run that reaches hard_cap returns converged = False
    explicitly rather than a silently questionable number.
    """
    return walk_sums(LogTermWalk(abs_z, params, start_index(abs_z, params, policy)), policy)


def state_stats(abs_z: float, params: PotentialParams,
                policy: TruncationPolicy) -> StateStats:
    """Mean, variance, Mandel Q and normalization from the accumulated sums."""
    sums = accumulate_sums(abs_z, params, policy)
    return stats_from_sums(sums)


def stats_from_sums(sums: LogSeriesSums) -> StateStats:
    mean = sums.origin + sums.m1
    variance = sums.m2 - sums.m1 * sums.m1
    if variance < 0.0:
        if variance < _VARIANCE_FLOOR * sums.m2:
            raise VarianceConsistencyError(
                f"variance {variance} below the rounding floor "
                f"{_VARIANCE_FLOOR} x m2 = {_VARIANCE_FLOOR * sums.m2}")
        variance = 0.0
    mandel_q = variance / mean - 1.0 if mean > 0.0 else None
    normalization = math.exp(-0.5 * sums.log_s0)
    return StateStats(mean=mean, variance=variance, mandel_q=mandel_q,
                      normalization=normalization, sums=sums)


def weight_distribution(abs_z: float, params: PotentialParams,
                        policy: TruncationPolicy) -> WeightDistribution:
    """Normalized P_n for n = 0 .. N: ln P_n = ln t_n - ln S0.

    The sums are taken here; the walk is extended down to n = 0, for the
    rows below the summed window, only when the rows are first read.
    """
    walk = LogTermWalk(abs_z, params, start_index(abs_z, params, policy))
    return WeightDistribution(walk, walk_sums(walk, policy))


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
