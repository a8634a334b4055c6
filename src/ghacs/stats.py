"""Normalization, weighting distribution, moments and Mandel Q.

All quantities derive from three raw sums over the same term stream,

    S_m = sum_n n^m t_n,   t_n = |z|^{2n} / g(n, k),   m = 0, 1, 2.

The terms rise to one peak, near n* = (|z|^2 + c^alpha)^(1/alpha) - c with
c = gamma/4, and fall after it; at large |z| their mass sits in a few
standard deviations around it, about 24k terms around n* = 7.7e5 at
k = 0.5, |z| = 15.  So the walk (``LogTermWalk``) keeps the weights
w_n = t_n / t_anchor, about 1 at most, outward from the largest term of the
summed range, the anchor.  A truncation policy is a stopping rule over them:
a head rule below the anchor (``_stop_head``), a fixed cutoff n_max or a
quiet run above it (``_stop_adaptive``), and a hard cap on every window.
One kernel (``_moments``) reduces a window to three exact sums, which give
ln S0 and the first two moments about its largest term, so the variance is
formed without cancellation.

A run, one policy at one amplitude, is summed by the first of these paths
that serves it; each passes the others on, in this order (``_walks``):

- ``empty``: |z| = 0, the single term n = 0.  Passes on |z| > 0.
- ``lattice``: an adaptive run at a tolerance of at most
  ``_STRIDE_TOLERANCE`` on a peak at least ``_STRIDE_SIGMA`` wide: the whole
  series' sums off a lattice of terms, with the walk's window
  (``lattice.strided_sums``).  Passes on the rest, and the runs it leaves.
- ``certified``: a fixed cutoff past the end of its walk, as the runs before
  it grew it: the sums to that end, certified by a tail bound (``_tail_bound``).
  Passes on the rest.  A fixed window wider than the hard cap raises here.
- ``open-head``: an adaptive run whose head reaches the hard cap before it
  closes: it ends at the anchor, unconverged.  Passes on a closed head.
- ``past-2^52``: an adaptive run whose peak lies beyond 2^52: its walk
  starts at the top of its hard cap and ends there, unconverged.  Passes on
  fixed cutoffs and peaks below 2^52.
- ``walk``: every run left, walked to its cutoff, quiet run or hard cap.

``policy_sums`` tries all six; ``weight_distribution``, whose rows are read
off the walk, all but ``lattice``.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections import namedtuple

from .core import MAX_BLOCK, PotentialParams, factor_block, log_g
# Not called here: the benchmark's tracer (bench/tracing.py) wraps these names.
from .core import log_g_increment, log_sum_exp  # noqa: F401

__all__ = ["TruncationPolicy", "DEFAULT_POLICY", "LogSeriesSums", "LogTermWalk", "StateStats",
           "WeightDistribution", "VarianceConsistencyError", "accumulate_sums", "policy_sums",
           "state_stats", "weight_distribution"]

# Rounding leaves the variance m2 - m1^2 within a few ulps of m2 of its true,
# non-negative value; a deficit beyond this share of m2 is a logic error.
_VARIANCE_FLOOR = -1e-9

# _peak_index gives up beyond this index, where n + c stops being exact in
# a double.  An adaptive walk whose peak lies further out starts at the top
# of its hard cap, or just below this index, where the terms still rise.
_MAX_START = 2 ** 52

# The ``lattice`` path serves a peak at least this wide, sigma in terms, at a
# tail tolerance of at most the second: choices of cost, not bounds (README).
_STRIDE_SIGMA = 250.0
_STRIDE_TOLERANCE = 1e-8

# How far past the anchor a certified reduction serves, and the floor its
# tail bound adds (``_tail_bound``).
_TAIL_SPAN = 2 ** 53
_TAIL_FLOOR = 2.0 ** -840


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
        if n_max is not None and _count("n_max", n_max) < 1:
            raise ValueError("fixed mode requires n_max >= 1")
        if not (0.0 < tail_tolerance < 1.0):
            raise ValueError("tail_tolerance must lie in (0, 1)")
        if tail_tolerance < sys.float_info.min:
            # Subnormal: tail_tolerance times a weight loses its digits, and
            # the head rule could skip more than the tolerance allows.
            raise ValueError(f"tail_tolerance = {tail_tolerance!r} is subnormal, below the "
                             f"smallest normal double {sys.float_info.min!r}")
        if _count("quiet_run", quiet_run) < 1:
            raise ValueError("quiet_run must be >= 1")
        if _count("hard_cap", hard_cap) < quiet_run:
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


def _count(field: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{field} must be an integer, got {value!r}") from None


DEFAULT_POLICY = TruncationPolicy()


class LogSeriesSums(namedtuple("LogSeriesSums", "log_s0 origin m1 m2 terms_used converged "
                                                "estimated_threshold first_index",
                               defaults=(None, 0))):
    """ln S0, the first two moments about an origin, and the truncation record.

    The moments are taken about ``origin``, the walk's anchor, which is the
    largest summed term: m1 = S1/S0 - origin and
    m2 = sum_n (n - origin)^2 t_n / S0.  The mean is origin + m1 and the
    variance m2 - m1^2, free of the cancellation in S2/S0 - (S1/S0)^2.
    The summed window is first_index .. terms_used - 1; the terms below it
    sum to less than the tail tolerance times the largest term.  converged
    is True only for adaptive runs whose quiet-run criterion fired before
    the hard cap; estimated_threshold is the first index of that quiet run.
    The sums are the walk's over that window, or the ``lattice`` path's
    sums of the whole series, about 1e-15 from the converged series, where
    the walk's window leaves out 2.4e-12 of Q at k = 0.5, |z| = 15; or a
    shorter window's, certified equal to its own (``certified``).
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
    """P_n for n = 0 .. support_bound: the distribution the sums describe.

    sums are the sums of the walk, convergence record included.  Row n is
    w_n / s on the summed window, from ``zero_rows`` (the sums' first index)
    to ``support_bound``, s the sum of the window's weights, and 0.0 below
    it, where the head the sums leave out weighs less than the tail
    tolerance of the largest term.  So the rows sum to 1 to rounding, and
    their moments are ``state_stats``'; a smaller ``tail_tolerance`` brings
    more of the head into the window.  No row is held: ``rows`` reads them
    again on each call, from the walk's own lists, in place.  At large |z|
    the rows below the window are most of them: 97,002 of the 105,820 at
    k = 0.5, |z| = 10.  Rows below about 2.2e-308 are subnormal and keep
    fewer digits.
    """

    def __init__(self, walk: LogTermWalk, sums: LogSeriesSums):
        self.sums = sums
        self.zero_rows = sums.first_index
        self.support_bound = sums.terms_used - 1
        self._walk = walk
        # S0 / t_anchor, summed again rather than taken from log_s0 -
        # log_anchor, which would cancel digits at large ln S0.
        self._mass = math.fsum(walk.outward(self.zero_rows, self.support_bound))

    @property
    def total(self) -> float:
        """The sum of the rows, exact and rounded once (``math.fsum``)."""
        return math.fsum(self.rows())

    def rows(self):
        """An iterator over P_n for n = zero_rows .. support_bound, made again on each call."""
        walk = self._walk
        # The walk may reach below the window, to the edge of a block of factors.
        down = itertools.islice(reversed(walk._down), self.zero_rows - walk.lo, None)
        up = itertools.islice(walk._up, self.support_bound - walk.anchor + 1)
        return map(operator.truediv, itertools.chain(down, up), itertools.repeat(self._mass))

    def weight(self, n: int) -> float:
        """P_n, 0.0 outside zero_rows .. support_bound.  Each call reads the
        rows from ``zero_rows`` up to n: to read many, iterate over ``rows()``."""
        zeros = self.zero_rows
        if zeros <= n <= self.support_bound:
            return next(itertools.islice(self.rows(), n - zeros, None))
        return 0.0


class LogTermWalk:
    """w_n = t_n / t_anchor over a contiguous span of n around an anchor index.

    ln t_anchor = 2 anchor ln|z| - ln g(anchor) comes in closed form
    (``log_anchor``), since t_anchor itself overflows at large |z|; the
    weights, about 1 at most, do not.  Every other weight is one term ratio
    away from its neighbour nearer the anchor, w_n = w_{n-1} |z|^2 / factor_n,
    so a walk extended in steps, up or down, holds exactly the values of one
    extended at once, and every stopping rule and cutoff applied to it reads
    the same numbers.  It is grown by ``extend_to`` and read by index range,
    through ``window`` and ``outward``, by the stopping rules, the reduction
    and the distribution's sums; the distribution's rows read its lists in
    place.  Each side grows through the aligned blocks of factors
    (``core.factor_block``), one lookup per block, to the block's edge or to
    the index asked for.  At |z| = 0 the series is the single term n = 0
    and the walk cannot be extended.  It holds values only.
    """

    def __init__(self, abs_z: float, params: PotentialParams, anchor: int = 0):
        _check_amplitude(abs_z)
        if anchor < 0 or (abs_z == 0.0 and anchor > 0):
            raise ValueError(f"no term {anchor} to anchor a walk at |z| = {abs_z}")
        self.abs_z = abs_z
        self.params = params
        self.anchor = anchor
        self.log_anchor = _log_term(anchor, abs_z, params)
        self._up = [1.0]  # w(anchor), w(anchor + 1), ...
        self._down = []   # w(anchor - 1), w(anchor - 2), ...

    @property
    def lo(self) -> int:
        return self.anchor - len(self._down)

    @property
    def hi(self) -> int:
        return self.anchor + len(self._up) - 1

    def window(self, lo: int, hi: int) -> list[float]:
        """A new list of w(lo), ..., w(hi), for lo..hi inside the span (empty when hi < lo)."""
        a = self.anchor
        if hi < a:
            return self._down[a - 1 - hi:a - lo][::-1]
        if lo >= a:
            return self._up[lo - a:hi - a + 1]
        return self._down[:a - lo][::-1] + self._up[:hi - a + 1]

    def outward(self, lo: int, hi: int) -> list[float]:
        """A new list of w(anchor), ..., w(hi), then w(anchor - 1), ..., w(lo): the
        window lo..hi, which holds the anchor, in walk order.

        Each side falls from about 1, so ``math.fsum`` keeps few partials
        over it; ``_moments`` takes its offsets in this order.
        """
        a = self.anchor
        return self._up[:hi - a + 1] + self._down[:a - lo]

    def extend_to(self, n: int) -> None:
        """Extend the span to include n, one aligned block of factors at a time."""
        if n < 0:
            raise ValueError(f"no term below n = 0, asked for {n}")
        if self.abs_z == 0.0:
            if n > 0:
                raise ValueError("the series at |z| = 0 ends at n = 0")
            return
        z2 = self.abs_z * self.abs_z
        while self.hi < n:
            # w(j) = w(j - 1) (|z|^2 / factor_j), for j = hi + 1, ...
            # to the end of factor hi + 1's block, or to n.
            b, i = divmod(self.hi, MAX_BLOCK)
            factors = factor_block(b, self.params)[i:min(n - b * MAX_BLOCK, MAX_BLOCK)]
            self._up.extend(itertools.islice(itertools.accumulate(
                map(operator.truediv, itertools.repeat(z2), factors),
                operator.mul, initial=self._up[-1]), 1, None))
        while self.lo > n:
            # w(j - 1) = w(j) (factor_j / |z|^2), for j = lo, lo - 1, ...
            # to the start of factor lo's block, or to n + 1.
            b, i = divmod(self.lo - 1, MAX_BLOCK)
            factors = factor_block(b, self.params)[max(n - b * MAX_BLOCK, 0):i + 1]
            last = self._down[-1] if self._down else self._up[0]
            self._down.extend(itertools.islice(itertools.accumulate(
                map(operator.truediv, reversed(factors), itertools.repeat(z2)),
                operator.mul, initial=last), 1, None))


def _log_term(n: int, abs_z: float, params: PotentialParams) -> float:
    """ln t_n = 2 n ln|z| - ln g(n), in closed form."""
    return 2.0 * n * math.log(abs_z) - log_g(n, params) if n else 0.0


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


def _start_index(peak: int | None, policy: TruncationPolicy) -> int:
    """Where a walk for ``policy`` starts: the largest term of the range it sums.

    That is the peak, or the cutoff n_max when it lies below the peak.  When
    the peak lies beyond 2^52 (None) the terms rise through every index a
    window can reach, so an adaptive walk starts at the top of its hard cap
    (at most 2^52 - 1), and a fixed one at its cutoff.
    """
    if peak is None:
        return policy.n_max or min(policy.hard_cap, _MAX_START) - 1
    return peak if policy.n_max is None else min(peak, policy.n_max)


def _stop_head(walk: LogTermWalk, tol: float, cap: int):
    """Walk down from the anchor: (first index of the window, whether the head closed).

    The head closes above the largest n with (n + 1) w_n < tol: the terms
    rise up to the anchor, whose weight is 1, so t_0 + ... + t_n is at most
    (n + 1) t_n and below tol of the largest term.  A window that reaches
    ``cap`` terms above n = 0 first leaves the head open, holding exactly
    ``cap`` terms.  The walk grows down one aligned block at a time, and
    each block is tested at its lowest index only: below the anchor each
    step down multiplies w by factor_j / |z|^2 <= 1, and n w_{n-1} <=
    (n + 1) w_n follows, in rounded arithmetic too, since each rounding is
    monotone.  So (n + 1) w_n never rises as n falls.  (Where the anchor
    sits a rounding above the peak, the ratio exceeds 1 only next to it,
    where w is about 1 and the test fails on both sides for any tol < 1.)
    So the block whose lowest index passes holds the largest n that
    passes, and only that block is searched.
    """
    top = walk.anchor
    last = max(0, top + 1 - cap)
    while top > last:
        lo = max(last, (top - 1) // MAX_BLOCK * MAX_BLOCK)
        walk.extend_to(lo)
        ws = walk.window(lo, top - 1)
        if (lo + 1) * ws[0] < tol:
            return 1 + next(n for n in range(top - 1, lo - 1, -1)
                            if (n + 1) * ws[n - lo] < tol), True
        top = lo
    return last, last == 0


def _stop_adaptive(walk: LogTermWalk, lo: int, policy: TruncationPolicy):
    """Adaptive truncation above the anchor: (last index, converged, threshold).

    Stops once ``quiet_run`` consecutive terms w_n n^2 of the m = 2 sum
    each add at most ``tail_tolerance`` of its running value, which starts
    as the sum over the window lo..anchor (a term that underflows to 0
    against a sum still 0 is quiet); threshold is the first index of that
    run.  Reaching ``hard_cap`` window terms first stops the walk
    unconverged, without a threshold.  The walk grows up one aligned block
    at a time, and the test reads each block's terms in turn, since a
    quiet run counts consecutive terms against the running sum.
    """
    tol, quiet_run, hard_cap = policy.tail_tolerance, policy.quiet_run, policy.hard_cap
    s2 = math.fsum(n * n * w for n, w in zip(range(walk.anchor, lo - 1, -1),
                                              walk.outward(lo, walk.anchor)))
    quiet = 0
    top, last = walk.anchor, lo + hard_cap - 1
    while top < last:
        hi = min(last, (top // MAX_BLOCK + 1) * MAX_BLOCK)
        walk.extend_to(hi)
        for n, w in enumerate(walk.window(top + 1, hi), top + 1):
            t2 = n * n * w
            if t2 > tol * s2:
                quiet = 0
            else:
                if quiet == 0:
                    threshold = n
                quiet += 1
                if quiet >= quiet_run:
                    return n, True, threshold
            s2 += t2
        top = hi
    return last, False, None


def _tail_bound(walk: LogTermWalk, m: int):
    """(T_0, T_1, T_2), each at least the sum of the walk's own w_n d^p, d = n -
    anchor, over n > m, as the reduction rounds them; None where the walk's
    ratio at m + 1 is not below 1, or where m lies too far out to know that
    it never rises.  m lies at or past the anchor, on the peak, and the
    bound holds for the terms less than ``_TAIL_SPAN`` past the anchor.

    Past the peak the walk's ratio q_n = fl(|z|^2 / f_n) never rises, since
    the factors it reads do not fall: up to x = m + 2 + c of 2^48 alpha,
    x^alpha rises by more than 8 ulps from one index to the next, so a pow
    within an ulp, as C libraries give it, keeps every factor past m + 1
    at least f_(m+1).  So the walk's w_(m+j) is at most w_m rho^j with
    rho = q_(m+1) (1 + 2^-52), which covers each step's rounding while w
    stays above 2^-1000, and with d = m - anchor (Knopp, Theory and
    Application of Infinite Series, sections 14-16),

        sum_(n>m) w_n (n - anchor)^p <= w_m G_p,      G_0 = rho / (1 - rho),
        G_1 = d G_0 + rho / (1 - rho)^2,
        G_2 = d^2 G_0 + 2 d rho / (1 - rho)^2 + rho (1 + rho) / (1 - rho)^3.

    w_m G_p is inflated by 2^-44 of itself, for the rounding of the products
    w d and w d^2 and of the bound itself (about a dozen roundings), and
    ``_TAIL_FLOOR`` is added for the terms below 2^-1000, where a rounding
    is no longer relative: fewer than 2^53 of them lie within
    ``_TAIL_SPAN`` of the anchor, each below 2^-1000 (2^53)^2 = 2^-894 as a
    product w d^2, roundings included.

    A reduction of lo..m is certified where each of its three sums stays
    the same double with its T_p added (``_moments``): past the anchor every
    term is at least 0 and rounding to nearest is monotone, so each window
    lo..c with c >= m has exactly those sums, which the ``certified`` path
    gives the fixed cutoffs past the end of a walk.
    """
    if m + 2 + walk.params.offset >= 2.0 ** 48 * walk.params.alpha:
        return None
    b, i = divmod(m, MAX_BLOCK)
    rho = walk.abs_z * walk.abs_z / factor_block(b, walk.params)[i] * (1.0 + 2.0 ** -52)
    if not rho < 1.0:
        return None
    d, g = float(m - walk.anchor), 1.0 / (1.0 - rho)
    g0, h = rho * g, rho * g * g
    w = walk.window(m, m)[0] * (1.0 + 2.0 ** -44)
    return (w * g0 + _TAIL_FLOOR, w * (d * g0 + h) + _TAIL_FLOOR,
            w * (d * d * g0 + 2.0 * d * h + rho * (1.0 + rho) * g * g * g) + _TAIL_FLOOR)


def _moments(ws: list[float], up: int, step: int = 1, tail=None):
    """(sum w, sum w d, sum w d^2), each exact (math.fsum), over weights in
    walk order: the first ``up`` at d = 0, step, 2 step, ..., the rest at
    d = -step, -2 step, ....  Given ``tail``, the bounds past the last
    upward weight (``_tail_bound``), None unless they certify the sums as
    those of every longer window.
    """
    # A walk's weights are at most 1 to rounding, so S0 <= len(ws), and no
    # sum absorbs a bound above an ulp of it.
    if tail and tail[0] > len(ws) * 2.0 ** -51:
        return None
    ds = range(0, up * step, step), range(-step, (up - len(ws) - 1) * step, -step)
    s0 = math.fsum(ws)
    if tail and not _absorbs(ws, s0, tail[0]):
        return None
    wd = list(map(operator.mul, ws, itertools.chain(*ds)))
    s1 = math.fsum(wd)
    if tail and not _absorbs(wd, s1, tail[1]):
        return None
    wd2 = map(operator.mul, wd, itertools.chain(*ds))
    if tail:
        wd2 = list(wd2)
    s2 = math.fsum(wd2)
    if tail and not _absorbs(wd2, s2, tail[2]):
        return None
    return s0, s1, s2


def _record(log_anchor: float, origin: int, converged: bool, moments, lo: int, hi: int,
            threshold: int | None) -> LogSeriesSums:
    """The sums of the window lo..hi from ``_moments`` about ``origin``, of ln t ``log_anchor``."""
    s0, s1, s2 = moments
    return LogSeriesSums(
        log_s0=math.fsum((log_anchor, math.log(s0))), origin=origin,
        m1=s1 / s0, m2=s2 / s0, terms_used=hi + 1, converged=converged,
        estimated_threshold=threshold, first_index=lo)


def _reduce(walk: LogTermWalk, lo: int, hi: int, converged: bool,
            threshold: int | None, tail=None) -> LogSeriesSums | None:
    """The sums of the window lo..hi about the walk's anchor, its largest
    term; None where ``tail`` does not certify them (``_moments``)."""
    moments = _moments(walk.outward(lo, hi), hi - walk.anchor + 1, tail=tail)
    return moments and _record(walk.log_anchor, walk.anchor, converged, moments, lo, hi, threshold)


def _absorbs(terms: list, total: float, bound: float) -> bool:
    """Whether ``total``, the fsum of ``terms``, is still their fsum with ``bound`` added."""
    terms.append(bound)
    same = math.fsum(terms) == total
    terms.pop()
    return same


class _Run:
    """What the paths share at one amplitude: its peak, its walks by start,
    head stops by (anchor, tolerance, cap), and certified reductions by head."""

    def __init__(self, abs_z: float, params: PotentialParams):
        _check_amplitude(abs_z)
        self.abs_z, self.params = abs_z, params
        self.peak = _peak_index(abs_z, params) if abs_z > 0.0 else 0
        self.walks, self.heads, self.tails = {}, {}, {}

    def walk(self, policy: TruncationPolicy) -> LogTermWalk:
        """The walk from the largest term of the policy's range (``_start_index``)."""
        start = _start_index(self.peak, policy)
        if start not in self.walks:
            self.walks[start] = LogTermWalk(self.abs_z, self.params, start)
        return self.walks[start]

    def head(self, policy: TruncationPolicy):
        """(walk, first index of the window, whether the head closed); a fixed
        window whose head stays open, or wider than ``hard_cap``, raises ValueError."""
        walk, n_max, cap = self.walk(policy), policy.n_max, policy.hard_cap
        key = walk.anchor, policy.tail_tolerance, cap
        if key not in self.heads:
            self.heads[key] = _stop_head(walk, *key[1:])
        lo, closed = self.heads[key]
        if n_max is not None and (not closed or n_max + 1 - lo > cap):
            raise ValueError(f"fixed cutoff n_max = {n_max} would sum more than "
                             f"hard_cap ({cap}) terms")
        return walk, lo, closed


def _path(name: str):
    """Name a summation path: ``_walks`` yields the name beside the runs it serves."""
    return lambda path: setattr(path, "name", name) or path


@_path("empty")
def _empty(run: _Run, policy: TruncationPolicy) -> LogSeriesSums | None:
    """|z| = 0, where only n = 0 survives: S0 = 1, S1 = S2 = 0."""
    if run.abs_z != 0.0:
        return None
    adaptive = policy.n_max is None
    return _reduce(run.walk(policy), 0, 0, adaptive, 0 if adaptive else None)


@_path("lattice")
def _lattice(run: _Run, policy: TruncationPolicy) -> LogSeriesSums | None:
    """A wide adaptive peak, sigma^-2 = alpha (n* + c)^(alpha - 1) / f_(n*)."""
    peak, params = run.peak, run.params
    if policy.n_max is not None or not peak or policy.tail_tolerance > _STRIDE_TOLERANCE:
        return None
    a, c = params.alpha, params.offset
    var = (peak + c - c ** a * (peak + c) ** (1.0 - a)) / a
    if var < _STRIDE_SIGMA * _STRIDE_SIGMA:
        return None
    # Imported here, so that only a process that sums a wide peak compiles it.
    from .lattice import strided_sums
    found = strided_sums(run.abs_z, params, policy, peak, var)
    return found and _record(_log_term(peak, run.abs_z, params), peak, True, *found)


@_path("certified")
def _certified(run: _Run, policy: TruncationPolicy) -> LogSeriesSums | None:
    """Tried by a head stop's first cutoff past its walk; its window ends past the walk."""
    n_max = policy.n_max
    if n_max is None:
        return None
    walk, lo, _ = run.head(policy)
    if not n_max > walk.hi > walk.anchor:
        return None
    key = walk.anchor, policy.tail_tolerance, policy.hard_cap
    if key not in run.tails:
        tail = _tail_bound(walk, walk.hi)
        run.tails[key] = tail and _reduce(walk, lo, walk.hi, False, None, tail)
    if run.tails[key] and n_max < walk.anchor + _TAIL_SPAN:
        return run.tails[key]._replace(terms_used=n_max + 1)
    return None


@_path("open-head")
def _open_head(run: _Run, policy: TruncationPolicy) -> LogSeriesSums | None:
    """An adaptive open head; ``certified`` read a fixed cutoff's head, and raised if open."""
    if policy.n_max is not None:
        return None
    walk, lo, closed = run.head(policy)
    return None if closed else _reduce(walk, lo, walk.anchor, False, None)


@_path("past-2^52")
def _past_2_52(run: _Run, policy: TruncationPolicy) -> LogSeriesSums | None:
    """An adaptive peak beyond 2^52, whose walk starts as high as a window may reach."""
    if run.peak is not None or policy.n_max is not None:
        return None
    walk, lo, _ = run.head(policy)
    return _reduce(walk, lo, walk.anchor, False, None)


@_path("walk")
def _walk(run: _Run, policy: TruncationPolicy) -> LogSeriesSums:
    """Every run, walked up to its cutoff, or to its quiet run or hard cap."""
    walk, lo, _ = run.head(policy)
    if policy.n_max is not None:
        walk.extend_to(policy.n_max)
        return _reduce(walk, lo, policy.n_max, False, None)
    hi, converged, threshold = _stop_adaptive(walk, lo, policy)
    return _reduce(walk, lo, hi, converged, threshold)


def _walks(abs_z: float, params: PotentialParams, policies, paths):
    """(path, walk, sums) of each policy in turn: the name of the first of
    ``paths`` that serves it, the walk from its start if one was made, and its sums."""
    run = _Run(abs_z, params)
    for policy in policies:
        for path in paths:
            sums = path(run, policy)
            if sums is not None:
                break
        yield path.name, run.walks.get(_start_index(run.peak, policy)), sums


def policy_sums(abs_z: float, params: PotentialParams, policies):
    """The sums of each truncation policy at one amplitude, in order, as they
    are asked for, by the first of the six paths that serves each: one walk
    and head stop serve every policy that starts there with equal tolerances
    and caps (the peak, for the adaptive rule and every cutoff above it)."""
    return (sums for _, _, sums in _walks(abs_z, params, policies, (
        _empty, _lattice, _certified, _open_head, _past_2_52, _walk)))


def accumulate_sums(abs_z: float, params: PotentialParams,
                    policy: TruncationPolicy) -> LogSeriesSums:
    """The sums of one truncation policy (``policy_sums``).  An adaptive run that reaches
    hard_cap returns converged = False explicitly rather than a silently questionable number."""
    return next(policy_sums(abs_z, params, (policy,)))


def state_stats(abs_z: float, params: PotentialParams,
                policy: TruncationPolicy) -> StateStats:
    """Mean, variance, Mandel Q and normalization from the accumulated sums."""
    return stats_from_sums(accumulate_sums(abs_z, params, policy))


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
    """Normalized P_n = t_n / S0 for n = 0 .. N, S0 the sum over the summed window
    and P_n 0.0 below it: the distribution whose moments ``state_stats`` gives
    wherever both walk, by ``policy_sums``' paths but ``lattice``."""
    _, walk, sums = next(_walks(abs_z, params, (policy,), (
        _empty, _certified, _open_head, _past_2_52, _walk)))
    return WeightDistribution(walk, sums)
