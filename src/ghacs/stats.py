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
tolerance of its running value for a sustained run.  The policy's hard cap
bounds every window.  One compensated pass reduces the window to ln S0 and
the first two moments about its largest term, so the variance is formed
without cancellation.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple

from .core import MAX_BLOCK, PotentialParams, log_factors, log_g, log_sum_exp
# Not called here, but the benchmark's tracer (bench/tracing.py) wraps
# ghacs.stats.log_g_increment, so the name stays bound.
from .core import log_g_increment  # noqa: F401

__all__ = [
    "TruncationPolicy",
    "DEFAULT_POLICY",
    "LogSeriesSums",
    "LogTermWalk",
    "StateStats",
    "WeightDistribution",
    "VarianceConsistencyError",
    "accumulate_sums",
    "start_index",
    "walk_sums",
    "state_stats",
    "weight_distribution",
]

# Rounding leaves the variance m2 - m1^2 within a few ulps of m2 of its true,
# non-negative value; a deficit beyond this share of m2 is a logic error.
_VARIANCE_FLOOR = -1e-9

# A walk starts at n = 0 when the peak lies beyond this index, where n + c
# stops being exact in a double.
_MAX_START = 2 ** 52

# The smallest block of factors a walk evaluates at a time.
_MIN_BLOCK = 32


class VarianceConsistencyError(RuntimeError):
    """Variance came out more negative than rounding can explain."""


class TruncationPolicy(namedtuple("TruncationPolicy", "n_max tail_tolerance quiet_run hard_cap")):
    """A fixed cutoff n_max, or tolerance-driven adaptive truncation when n_max is None.

    Both drop the head below the peak once it weighs less than
    ``tail_tolerance`` of the largest term; ``fixed`` keeps the default, so
    that fixed-cutoff numbers depend on n_max alone.  Above the peak the
    adaptive rule stops after ``quiet_run`` consecutive terms whose relative
    contribution falls below ``tail_tolerance``.  ``hard_cap`` bounds the
    number of terms summed around the peak, terms_used - first_index, in
    both: an adaptive run stops there unconverged, and a fixed window wider
    than the cap is refused.  The field defaults are the adaptive defaults
    everywhere, the CLI's included; ``DEFAULT_POLICY`` holds them.
    """

    __slots__ = ()

    def __new__(cls, n_max: int | None = None, tail_tolerance: float = 1e-16,
                quiet_run: int = 10, hard_cap: int = 10 ** 6):
        if n_max is not None and n_max < 1:
            raise ValueError("fixed mode requires n_max >= 1")
        if not (0.0 < tail_tolerance < 1.0):
            raise ValueError("tail_tolerance must lie in (0, 1)")
        if quiet_run < 1:
            raise ValueError("quiet_run must be >= 1")
        if hard_cap < quiet_run:
            raise ValueError("hard_cap must be >= quiet_run")
        return super().__new__(cls, n_max, tail_tolerance, quiet_run, hard_cap)

    @classmethod
    def fixed(cls, n_max: int) -> TruncationPolicy:
        return cls(n_max=n_max)

    @classmethod
    def adaptive(cls, **tolerances) -> TruncationPolicy:
        """The adaptive policy; keyword ``tail_tolerance``, ``quiet_run`` and
        ``hard_cap`` replace the field defaults."""
        return cls(None, **tolerances)


DEFAULT_POLICY = TruncationPolicy()


class LogSeriesSums(namedtuple("LogSeriesSums", "log_s0 origin m1 m2 terms_used converged "
                                                "estimated_threshold first_index",
                               defaults=(None, 0))):
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

    __slots__ = ()

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


class StateStats(namedtuple("StateStats", "mean variance mandel_q normalization sums")):
    """Mean, variance, Mandel Q and normalization of the photon-number distribution.

    mandel_q is None (undefined) when the mean vanishes: at |z| = 0 the
    variance-to-mean ratio is 0/0 and no limit is defined.
    """

    __slots__ = ()


class WeightDistribution:
    """P_n for n = 0 .. support_bound, normalized over the summed window.

    sums are the sums of the walk, convergence record included.  The rows,
    exp(ln t_n - ln S0), are read off the walk in one pass when first asked
    for, so that the sums and the support bound can be checked before
    paying for them.  The rows below the window (n < sums.first_index),
    which together weigh less than the tail tolerance, cost one factor
    each, and at large |z| they far outnumber the window: 3.2 million rows
    around a 50k-term window at k = 0.5, |z| = 20.
    """

    def __init__(self, walk: LogTermWalk, sums: LogSeriesSums):
        self.sums = sums
        self.support_bound = sums.terms_used - 1
        # ln S0 relative to the anchor term, summed again rather than taken
        # as log_s0 - log_anchor, which would cancel digits at large ln S0.
        self._log_mass = log_sum_exp(walk.window(sums.first_index, self.support_bound))
        self._walk = walk
        self._rows = None

    def weights(self) -> list[float]:
        """P_0 .. P_N; the same list on every call."""
        if self._rows is None:
            self._walk.extend_to(0)
            rows = self._walk.window(0, self.support_bound)
            # Once the walk is dropped the rows hold its only values, and
            # each ln t_n is freed as its P_n takes its place.
            self._walk = None
            for n, r in enumerate(rows):
                rows[n] = math.exp(r - self._log_mass)
            self._rows = rows
        return self._rows

    def weight(self, n: int) -> float:
        return self.weights()[n] if 0 <= n <= self.support_bound else 0.0


class LogTermWalk:
    """r(n) = ln t_n - ln t_anchor over a contiguous span of n around an anchor index.

    ln t_anchor = 2 anchor ln|z| - ln g(anchor) comes in closed form
    (``log_anchor``).  Every other value is one factor away from its
    neighbour nearer the anchor, r(n) = r(n - 1) + (ln|z|^2 - ln factor_n),
    so a walk extended in steps, up or down, holds exactly the values of one
    extended at once, and every stopping rule and cutoff applied to it reads
    the same numbers.  The span grows by blocks of factors (``log_factors``).
    At |z| = 0 the series is the single term n = 0 and the walk cannot be
    extended.
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

    @property
    def lo(self) -> int:
        return self.anchor - len(self._down)

    @property
    def hi(self) -> int:
        return self.anchor + len(self._up) - 1

    def window(self, lo: int, hi: int) -> list[float]:
        """A new list of r(lo), ..., r(hi), for lo..hi inside the span (empty when hi < lo)."""
        a = self.anchor
        if hi < a:
            return self._down[a - 1 - hi:a - lo][::-1]
        if lo >= a:
            return self._up[lo - a:hi - a + 1]
        return self._down[:a - lo][::-1] + self._up[:hi - a + 1]

    def extend_to(self, n: int) -> None:
        """Extend the span to include n, in blocks of at most MAX_BLOCK factors."""
        if n < 0:
            raise ValueError(f"no term below n = 0, asked for {n}")
        if self.abs_z == 0.0:
            if n > 0:
                raise ValueError("the series at |z| = 0 ends at n = 0")
            return
        log_z2 = 2.0 * math.log(self.abs_z)
        while self.hi < n:
            # r(j) = r(j - 1) + (ln|z|^2 - ln factor_j), for j = hi + 1, ...
            factors = log_factors(self.hi + 1, min(n, self.hi + MAX_BLOCK) + 1, self.params)
            self._up.extend(itertools.islice(itertools.accumulate(
                map(operator.sub, itertools.repeat(log_z2), factors),
                initial=self._up[-1]), 1, None))
        while self.lo > n:
            # r(j - 1) = r(j) - (ln|z|^2 - ln factor_j), for j = lo, lo - 1, ...
            factors = log_factors(max(n, self.lo - MAX_BLOCK) + 1, self.lo + 1, self.params)
            last = self._down[-1] if self._down else self._up[0]
            self._down.extend(itertools.islice(itertools.accumulate(
                map(operator.sub, itertools.repeat(log_z2), reversed(factors)),
                operator.sub, initial=last), 1, None))

    def upward(self, last: float = math.inf):
        """(n, r(n)) for n = anchor + 1, ..., last.

        Stored values come first; past them the span grows by blocks as the
        values are asked for, never beyond ``last``.
        """
        up, a = self._up, self.anchor
        n = a  # the last index yielded
        while n < last:
            if n >= self.hi:
                self.extend_to(min(last, n + _block(len(up))))
            stop = min(last, self.hi)
            for m in range(n + 1, stop + 1):
                yield m, up[m - a]
            n = stop

    def downward(self, last: int = 0):
        """(n, r(n)) for n = anchor - 1, ..., last.

        As ``upward``, downward to ``last`` (n = 0 by default).
        """
        down, a = self._down, self.anchor
        n = a
        while n > last:
            if n <= self.lo:
                self.extend_to(max(last, n - _block(len(down))))
            stop = max(last, self.lo)
            for m in range(n - 1, stop - 1, -1):
                yield m, down[a - 1 - m]
            n = stop


def _block(span: int) -> int:
    """How many factors a walk that already holds ``span`` values on one side
    evaluates next: the span again, from 32 up to MAX_BLOCK, so a short walk
    overshoots where it stops by at most about as many values as it needed."""
    return min(MAX_BLOCK, max(_MIN_BLOCK, span))


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
    if policy.n_max is not None:
        return policy.n_max if peak is None else min(peak, policy.n_max)
    return 0 if peak is None else peak


def _stop_head(walk: LogTermWalk, log_tol: float, cap: int):
    """Walk down from the anchor: (first index of the window, whether the head closed).

    Stops at the first n with (n + 1) t_n < tol * (largest term so far):
    the terms rise up to the peak, so t_0 + ... + t_n is at most that.
    Reaching ``cap`` window terms first leaves the head open.
    """
    start = lo = walk.anchor
    r_max = 0.0  # r(anchor)
    for n, r in walk.downward(max(0, start + 1 - cap)):
        if math.log(n + 1) + r < log_tol + r_max:
            break
        if start - n + 1 >= cap:
            return lo, False
        lo = n
        if r > r_max:
            r_max = r
    return lo, True


def _stop_adaptive(walk: LogTermWalk, lo: int, policy: TruncationPolicy):
    """Adaptive truncation above the anchor: (last index, converged, threshold).

    Stops once ``quiet_run`` consecutive terms of the m = 2 sum each add
    less than ``tail_tolerance`` of its running value, which starts as the
    sum over the window lo..anchor; threshold is the first index of that run.
    Reaching ``hard_cap`` window terms first stops the walk unconverged,
    without a threshold.
    """
    tol = policy.tail_tolerance
    running_log_s2 = log_sum_exp(r + 2.0 * math.log(n) if n else -math.inf
                                 for n, r in enumerate(walk.window(lo, walk.anchor), lo))
    quiet = 0
    threshold = None
    for n, r in walk.upward(lo + policy.hard_cap - 1):
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

    The window grows out of the walk's anchor, which must not lie above a
    fixed cutoff (``start_index`` gives an anchor every policy accepts).
    A fixed window wider than ``hard_cap`` raises ValueError before the walk
    is extended to the cutoff.  Policies applied one after another to the
    same walk share its values, so a fixed cutoff read after the adaptive
    rule costs only its reduction.
    """
    adaptive = policy.n_max is None
    if walk.abs_z == 0.0:
        # Only n = 0 survives: S0 = 1, S1 = S2 = 0.
        return _reduce(walk, 0, 0, adaptive, 0 if adaptive else None)
    if not adaptive and policy.n_max < walk.anchor:
        raise ValueError(f"fixed cutoff n_max = {policy.n_max} lies below the "
                         f"walk's anchor {walk.anchor}")
    lo, closed = _stop_head(walk, math.log(policy.tail_tolerance), policy.hard_cap)
    if not adaptive:
        if not closed or policy.n_max + 1 - lo > policy.hard_cap:
            raise ValueError(f"fixed cutoff n_max = {policy.n_max} would sum more than "
                             f"hard_cap ({policy.hard_cap}) terms")
        walk.extend_to(policy.n_max)
        return _reduce(walk, lo, policy.n_max, False, None)
    if not closed:
        return _reduce(walk, lo, walk.anchor, False, None)
    hi, converged, threshold = _stop_adaptive(walk, lo, policy)
    return _reduce(walk, lo, hi, converged, threshold)


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

