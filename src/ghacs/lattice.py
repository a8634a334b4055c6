"""Sums of an adaptive run on a wide peak, from a lattice of its terms.

On a peak sigma terms wide the walk sums about 18 sigma terms, one multiply
each.  Here each term comes in closed form instead, ln(t_n / t_anchor) from
``core.log_g_delta``, at a cost that does not grow with n - anchor, and only
on the lattice anchor + i h, h = floor(sigma / 4).  Over a smooth bell
h sum_i t_(anchor + i h) is the whole series to within about
exp(-2 pi^2 sigma^2 / h^2) (the trapezoid rule; Trefethen and Weideman,
SIAM Rev. 56 (2014) 385-458), far below rounding at this stride, so the
lattice out to negligible weights, about a hundred terms, gives S0, S1 and
S2 of the whole series, each one exact sum over every node, up from the
anchor and then down, by the walk's kernel (``stats._moments``) at offsets
a stride apart.  Those are the sums returned: at k = 0.5 their Q is within
about 1e-15 of the converged series from |z| = 8 to 30, where the walk's
window, cut by its quiet-run rule, leaves out 2.4e-12 of it at |z| = 15
and 1.4e-11 at |z| = 30.  The window reported is still the walk's:
its first index and its quiet-run threshold come from bisection with the
closed form on the monotone flanks, and it ends quiet_run - 1 terms past
the threshold.  The head test is the walk's; the quiet-run test is made
against the whole S2, and a threshold that the walk, testing against its
running sum, might not find quiet is left to the walk.  ``stats`` decides
which runs come here, and imports this module only for them.
"""

from __future__ import annotations

import bisect
import math

from .core import _SERIES_RATIO, PotentialParams, log_g_delta
from .stats import TruncationPolicy, _moments

# The lattice stops on each side at the first weight below this (the anchor's
# is 1): what it leaves out of the whole series is below 1e-17 of S0 and of
# the variance.
_NEGLIGIBLE = 2.0 ** -60


def strided_sums(abs_z: float, params: PotentialParams, policy: TruncationPolicy,
                 peak: int, var: float) -> tuple | None:
    """(moments, lo, hi, threshold): the ``_moments`` of the whole series
    about the peak, off the lattice of stride floor(sigma / 4) around it,
    with sigma^2 = var, and the window lo..hi and threshold of the adaptive
    run's walk, which converges; None where the run stays on the walk: its
    head stays open or reaches n = 0, its window would pass the hard cap,
    its threshold lies too near the edge of the quiet-run rule to be surely
    the walk's, or its lattice would reach below n = 1000, where
    ``log_g_delta`` is not checked.
    """
    a, c = params.alpha, params.offset
    h = int(math.sqrt(var) / 4.0)
    log_z2, log_negligible = math.log(abs_z * abs_z), math.log(_NEGLIGIBLE)
    log_tol = math.log(policy.tail_tolerance)
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
        if n < 1000 or (c / (n + c)) ** a > _SERIES_RATIO:
            return None
        down.append(log_w(n))
        if passed is None and math.log(n + 1) + down[-1] < log_tol:
            passed = n
    # The head's first index, bisected: below it the head test passes, and
    # from it on, up to the end of the range, which is not tested, it fails.
    first = max(passed + 1, last)
    lo = first + bisect.bisect_left(range(first, min(passed + h, peak)), True, key=head_open)
    if lo <= last:
        return None
    # The nodes in walk order, up from the peak and then down.
    s0, s1, s2 = moments = _moments([h * math.exp(lw) for lw in up + down], len(up), h)
    # S2 of the whole series, which the quiet-run tests below are made
    # against; the walk makes them against its running sum, smaller by the
    # head below lo and by the tail from the term tested on.
    s2_whole = math.fsum((peak * peak * s0, 2 * peak * s1, s2))
    log_s2 = math.log(s2_whole)

    def log_t2(n):
        return 2.0 * math.log(n) + log_w(n)

    def quiet(n):
        return log_t2(n) <= log_tol + log_s2

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
    # Every term from the first quiet one on is quiet: the quiet run starts
    # there and ends quiet_run - 1 terms on.
    threshold = loud + 1 + bisect.bisect_left(range(loud + 1, n), True, key=quiet)
    terms_used = threshold + policy.quiet_run
    if terms_used - 1 > top:
        return None
    # A term quiet for the walk is quiet here; the threshold must be quiet
    # for the walk too.  Its running sum there is above S2 less lo^2 tol,
    # a bound on the head by the head rule, and less the tail's first term
    # over 1 - r, r the ratio of consecutive terms, which falls past the
    # peak.  (At k = 0.5, tol = 1e-8 this leaves |z| = 60 to the walk: the
    # threshold against S2 lies 2 terms early there.)
    lt2 = log_t2(threshold)
    fall = -math.expm1(log_t2(threshold + 1) - lt2)
    room = s2_whole - lo * lo * policy.tail_tolerance - math.exp(lt2) / fall if fall > 0.0 else 0.0
    if room <= 0.0 or lt2 > log_tol + math.log(room):
        return None
    return moments, lo, terms_used - 1, threshold
