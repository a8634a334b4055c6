"""Sums of an adaptive run on a wide peak, from a lattice of its terms.

On a peak sigma terms wide the walk sums about 18 sigma terms, one multiply
each.  Here each term comes in closed form instead, ln(t_n / t_anchor) from
``core.log_g_delta``, at a cost that does not grow with n - anchor, and only
on the lattice anchor + i h, h = floor(sigma / 4).  Over a smooth bell
h sum_i t_(anchor + i h) is the whole series to within about
exp(-2 pi^2 sigma^2 / h^2) (the trapezoid rule; Trefethen and Weideman,
SIAM Rev. 56 (2014) 385-458), far below rounding at this stride, so the
lattice out to negligible weights, about a hundred terms, gives S0, S1 and
S2 of the whole series.  The window is the walk's: its first index, the
quiet-run threshold and the last index come from bisection with the closed
form on the monotone flanks, each head test and quiet-run test made as the
walk makes it, and the stride-1 walks below the first index and above the
last (where the quiet run still leaves about 1e-12 of Q) are taken off the
lattice's sums.  ``stats`` decides which runs come here, and imports this
module only for them.
"""

from __future__ import annotations

import itertools
import math
import operator

from .core import MAX_BLOCK, PotentialParams, log_g_delta
from .stats import LogSeriesSums, LogTermWalk, TruncationPolicy, _log_term

# The lattice, and the stride-1 sums below and above the window, stop at the
# first weight below this (the anchor's is 1): what they leave out is below
# 1e-17 of S0 and of the variance.
_NEGLIGIBLE = 2.0 ** -60


def _bisect(pred, lo: int, hi: int) -> int:
    """The least n in lo..hi with pred(n), for pred false and then true over
    the range, and true at hi, which it does not test."""
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _run_out(abs_z: float, params: PotentialParams, start: int, weight: float, up: bool):
    """Lists of w_n from n = start outward, up or down to n = 0, given w_start
    = weight: [w_start], then the weights of each aligned block of factors
    in turn, read off a walk of its own anchored at start."""
    yield [weight]
    walk = LogTermWalk(abs_z, params, start)
    n = start
    while up or n > 0:
        edge = (n // MAX_BLOCK + 1) * MAX_BLOCK if up else (n - 1) // MAX_BLOCK * MAX_BLOCK
        walk.extend_to(edge)
        ws = walk.window(n + 1, edge) if up else walk.window(edge, n - 1)[::-1]
        yield [w * weight for w in ws]
        n = edge


def _until_negligible(blocks) -> list[float]:
    """The blocks joined, up to the first that ends below ``_NEGLIGIBLE``."""
    ws = []
    for block in blocks:
        ws += block
        if block[-1] < _NEGLIGIBLE:
            break
    return ws


def _moments(ws, d: int, step: int) -> list[float]:
    """[sum w, sum w d, sum w d^2] over weights at d, d + step, d + 2 step, ..."""
    ds = range(d, d + step * len(ws), step)
    wd = list(map(operator.mul, ws, ds))
    return [math.fsum(ws), math.fsum(wd), math.fsum(map(operator.mul, wd, ds))]


def strided_sums(abs_z: float, params: PotentialParams, policy: TruncationPolicy,
                 peak: int, var: float) -> LogSeriesSums | None:
    """The sums of an adaptive run over the walk's window, off the lattice
    of stride floor(sigma / 4) around the peak, with sigma^2 = var; None
    where the run stays on the walk: its head stays open or reaches n = 0,
    its window would pass the hard cap, or its lattice would reach below
    n = 1000, where ``log_g_delta`` is not checked.
    """
    a, c = params.alpha, params.offset
    h = int(math.sqrt(var) / 4.0)
    tol, quiet_run = policy.tail_tolerance, policy.quiet_run
    log_z2, log_tol, log_negligible = math.log(abs_z * abs_z), math.log(tol), math.log(_NEGLIGIBLE)
    last = max(0, peak + 1 - policy.hard_cap)

    def log_w(n):
        return -log_g_delta(peak, n - peak, params, log_z2)

    def head_open(n):
        # The head rule's test, (n + 1) w_n < tol, fails at n.
        return math.log(n + 1) + log_w(n) >= log_tol

    # The lattice: ln w at peak + i h out to a negligible weight, and below
    # the peak on past the highest node where the head rule passes.
    up = [0.0]
    while up[-1] >= log_negligible:
        up.append(log_w(peak + len(up) * h))
    down, n, passed = [], peak, None
    while passed is None or down[-1] >= log_negligible:
        n -= h
        if n < 1000 or (c / (n + c)) ** a > 0.75:
            return None
        down.append(log_w(n))
        if passed is None and math.log(n + 1) + down[-1] < log_tol:
            passed = n
    lo = _bisect(head_open, max(passed + 1, last), min(passed + h, peak))
    if lo <= last:
        return None
    head = _until_negligible(_run_out(abs_z, params, lo - 1, math.exp(log_w(lo - 1)), up=False))
    parts = [_moments([h * math.exp(lw) for lw in up], 0, h),
             _moments([h * math.exp(lw) for lw in down], -h, -h),
             [-x for x in _moments(head, lo - 1 - peak, -1)]]
    s0, s1, s2 = map(math.fsum, zip(*parts))
    # sum of n^2 t_n / t_anchor from lo on, above every partial sum the
    # quiet-run rule compares with: a term quiet against it may be loud for
    # the walk, but a term loud against it is loud for the walk too.
    log_s2 = math.log(math.fsum((peak * peak * s0, 2 * peak * s1, s2)))

    def quiet(n):
        return 2.0 * math.log(n) + log_w(n) <= log_tol + log_s2

    # n^2 w_n peaks within 2 sigma^2 / n* above the anchor and falls after.
    start = peak + 3 + 4 * math.ceil(var / peak)
    top = lo + policy.hard_cap - 1
    loud = start
    for i, lw in enumerate(up):
        n = peak + i * h
        if n > start:
            if 2.0 * math.log(n) + lw <= log_tol + log_s2:
                break
            loud = n
    else:
        n = top
    if n <= start or quiet(start) or not quiet(n):
        return None
    # Two terms below the first quiet one, the walk is loud.
    start = _bisect(quiet, loud + 1, n) - 2
    # The quiet-run rule from ``start`` on, as the walk runs it, on a
    # stride-1 walk out to a negligible weight and, if the run needs it, on.
    blocks = _run_out(abs_z, params, start, math.exp(log_w(start)), up=True)
    ws = _until_negligible(blocks)
    run_s2 = math.fsum((peak * peak * s0, 2 * peak * s1, s2,
                        -math.fsum(map(operator.mul, ws, (n * n for n in itertools.count(start))))))
    count = 0
    for n in itertools.count(start):
        if n > top:
            return None
        if n - start == len(ws):
            ws += next(blocks)
        t2 = n * n * ws[n - start]
        if t2 > tol * run_s2:
            count = 0
        else:
            if count == 0:
                threshold = n
            count += 1
            if count >= quiet_run:
                break
        run_s2 += t2
    tail = _moments(ws[n + 1 - start:], n + 1 - peak, 1)
    s0, s1, s2 = s0 - tail[0], s1 - tail[1], s2 - tail[2]
    return LogSeriesSums(
        log_s0=math.fsum((_log_term(peak, abs_z, params), math.log(s0))), origin=peak,
        m1=s1 / s0, m2=s2 / s0, terms_used=n + 1, converged=True,
        estimated_threshold=threshold, first_index=lo)
