"""Overflow-safe evaluation of the structure function and series terms.

The coherent-state series for a power-law potential with exponent ``k`` is
built from the structure function

    g(n, k) = prod_{j=1}^{n} [(j + gamma/4)^alpha - (gamma/4)^alpha],
    alpha = 2k / (k + 2),

which replaces n! of the harmonic-oscillator case (k = 2 gives alpha = 1
and g = n! exactly).  Terms |z|^{2n} / g(n, k) overflow native floats long
before the series converges for large |z|, so a term is known here only by
its logarithm.  This module gives the factors g(j) / g(j - 1), an aligned
block of consecutive indices per call, ln g(n, k) itself in closed form, at
a cost independent of n, so that the term walk in ``stats`` can start at
any index (the largest term) and step outward from it by ratios of terms,
and ln g(a + d) - ln g(a) at a cost independent of d, so that ``stats`` can
read a wide peak's terms a stride apart.
Both are pure functions of their arguments, kept in small bounded memos, so
that the walks of a sweep evaluate each factor and each anchor's ln g once.
A factor has one formula, (j + c)^alpha - c^alpha with c = gamma/4,
evaluated as written.  It uses the standard library only.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

__all__ = [
    "PotentialParams",
    "factor_block",
    "log_g",
    "log_g_delta",
    "log_g_increment",
    "log_sum_exp",
]

# Factors are evaluated in aligned blocks of this many, so that memory stays
# bounded however far a sum or a walk runs.  64 pointers fill 512 bytes, the
# largest request the small-object allocator serves; blocks of 1024 measured
# no faster and raised the peak RSS of a deep-tail run by fragmenting the heap.
MAX_BLOCK = 64
# How many factor blocks, and how many ln g values, are kept for reuse: a
# sweep's walks at neighbouring amplitudes, and its cutoffs below the peak,
# read the same ones again.  64 blocks hold about 135 KB however long a walk
# runs.
_MEMO_SIZE = 64

# log_g sums at least this many factors directly, and more where needed to
# bring the ratio of its correction series, (c / (m + 1 + c))^alpha, down to
# _SERIES_RATIO; that takes more only for k < 0.1 or gamma > 10.
_DIRECT_FACTORS = 64
_SERIES_RATIO = 0.75
# log_g refuses to sum more factors directly than this, about 0.4 s of work:
# that many are needed only for k below about 0.02 at gamma <= 10 (0.19 at
# gamma = 1e6), where a term near the peak would otherwise take hours.
_MAX_DIRECT_FACTORS = 2 ** 20
# Above this gamma the direct factors (j + c)^alpha - c^alpha cancel digits:
# at gamma = 1e8 the mean is off by a relative 1e-9 (k = 10), and c^alpha
# overflows by gamma = 1e300.
_MAX_GAMMA = 1e6
# B_{2i} / (2i)! for i = 1..4, the Euler-Maclaurin coefficients.  From
# x = 65 on, the first term left out is below 1e-18 of the sum.
_EULER_MACLAURIN = tuple(b / math.factorial(2 * i) for i, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30), 1))


class PotentialParams(namedtuple("PotentialParams", "k gamma")):
    """Physics inputs: power-law exponent k and spectral offset gamma.

    gamma enters only through gamma/4; the default gamma = 2 puts the
    offset at 1/2 (the standard two-turning-point value).  gamma is capped
    at 1e6, beyond which the factors lose digits to cancellation.  A gamma
    whose gamma/4 underflows to 0, or a k so small that (1 + gamma/4)^alpha
    and (gamma/4)^alpha round to the same double (k below about 8e-17 at
    gamma = 2), is refused: the first factor would be 0.
    """

    __slots__ = ()

    def __new__(cls, k: float, gamma: float = 2.0):
        if not (k > 0 and math.isfinite(k)):
            raise ValueError(f"k must be a positive finite real, got {k}")
        if not (gamma > 0 and math.isfinite(gamma)):
            raise ValueError(f"gamma must be a positive finite real, got {gamma}")
        if gamma > _MAX_GAMMA:
            raise ValueError(f"gamma must be at most {_MAX_GAMMA:g}, where the structure "
                             f"function's factors still keep their digits; got {gamma}")
        self = super().__new__(cls, k, gamma)
        c, a = self.offset, self.alpha
        if c == 0.0:
            raise ValueError(f"gamma = {gamma} is too small: gamma/4 underflows to 0")
        if (1.0 + c) ** a - c ** a <= 0.0:
            raise ValueError(f"k = {k} is too small at gamma = {gamma}: the structure "
                             f"function's first factor (1 + gamma/4)^alpha - (gamma/4)^alpha "
                             f"rounds to 0")
        return self

    @property
    def alpha(self) -> float:
        """alpha = 2k / (k + 2), strictly increasing in k with range (0, 2).

        Written as k / (k/2 + 1), which rounds to the same double wherever
        2k is finite and stays finite (2.0) for k up to the largest double.
        """
        return self.k / (0.5 * self.k + 1.0)

    @property
    def offset(self) -> float:
        return 0.25 * self.gamma


def log_g_increment(j: int, params: PotentialParams) -> float:
    """ln of the j-th product factor, ln[(j + gamma/4)^alpha - (gamma/4)^alpha].

    The factor is strictly positive for every j >= 1, so the result is
    always finite.  It is the log of the entry of the ``factor_block``
    holding j.
    """
    if j < 1:
        raise ValueError(f"factor index must be >= 1, got {j}")
    b, i = divmod(j - 1, MAX_BLOCK)
    return math.log(factor_block(b, params)[i])


@functools.lru_cache(maxsize=_MEMO_SIZE)
def factor_block(b: int, params: PotentialParams) -> tuple[float, ...]:
    """factor_j for the b-th aligned block, j = b MAX_BLOCK + 1, ..., (b + 1) MAX_BLOCK.

    The block is ``_factors`` over its span, evaluated once while it
    stays among the last ``_MEMO_SIZE`` used.
    """
    if b < 0:
        raise ValueError(f"factor block index must be >= 0, got {b}")
    return tuple(_factors(b * MAX_BLOCK + 1, (b + 1) * MAX_BLOCK + 1, params))


def _factors(lo: int, hi: int, params: PotentialParams) -> list[float]:
    """The factor kernel: (j + c)^alpha - c^alpha for j = lo, ..., hi - 1,
    with alpha and c^alpha computed once.

    Up to j = 2^52 the logs of its factors measured within 1.1e-16 relative
    of 40-digit values.
    """
    a = params.alpha
    c = params.offset
    small = c ** a
    return [(j + c) ** a - small for j in range(lo, hi)]


@functools.lru_cache(maxsize=_MEMO_SIZE)
def log_g(n: int, params: PotentialParams) -> float:
    """ln g(n, k) in closed form, without walking the product.

    ln g(n) = sum_{j<=M} ln factor_j + alpha [lnGamma(n + c + 1) - lnGamma(M + c + 1)]
              + sum_{j=M+1}^{n} log1p(-(c / (j + c))^alpha),    c = gamma/4,

    with M = min(n, 64) factors summed directly (more for k < 0.1 or
    gamma > 10, see _SERIES_RATIO).  The last sum is expanded
    in powers of (c / (j + c))^alpha, and each power is summed over j by
    Euler-Maclaurin, so the cost does not grow with n.  Raises ValueError
    when M exceeds 2^20, which only k below about 0.02 needs at gamma <= 10.
    The last ``_MEMO_SIZE`` values asked for are kept: the walks of a sweep
    anchor at the same index again and again.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    a = params.alpha
    c = params.offset
    # Enough direct factors that (c / (m + 1 + c))^alpha <= _SERIES_RATIO;
    # e^60 exceeds every index a walk can start at.
    log_x = math.log(c) - math.log(_SERIES_RATIO) / a
    m = min(n, max(_DIRECT_FACTORS, math.ceil(math.exp(min(log_x, 60.0)) - c)))
    if m > _MAX_DIRECT_FACTORS:
        raise ValueError(f"ln g({n}) at k = {params.k}, gamma = {params.gamma} needs {m} directly "
                         f"summed factors, more than {_MAX_DIRECT_FACTORS}: k is too small "
                         f"(or gamma too large) for this amplitude")
    direct = math.fsum(map(math.log, itertools.islice(itertools.chain.from_iterable(
        factor_block(b, params) for b in itertools.count()), m)))
    if n == m:
        return direct
    gamma_part = a * (math.lgamma(n + c + 1.0) - math.lgamma(m + c + 1.0))
    xa, xb = m + 1 + c, n + c
    return math.fsum((direct, gamma_part, _log1p_tail(xa, xb, math.log(xb / xa), a, c)))


def log_g_delta(a: int, d: int, params: PotentialParams, log_z2: float = 0.0) -> float:
    """ln g(a + d) - ln g(a) - d log_z2, for a + d >= 0, at a cost independent of d.

    With x = a + c + 1 and t = d / x, ln g(a + d) - ln g(a) is

        alpha [d ln x + x phi(t) - log1p(t) / 2 + S(x + d) - S(x)]
        + sum_{j} log1p(-(c / (j + c))^alpha),    phi(t) = (1 + t) log1p(t) - t,

    over the factors j between a and a + d: Stirling's series for
    lnGamma(x + d) - lnGamma(x), with S its 1/x tail, and the corrections
    summed by ``_log1p_tail``.  The terms linear in d are one product,
    d (alpha ln x - log_z2), so that the rounding of that slope tilts the
    result by a multiple of d, which moves a mean by a few ulps and leaves
    a variance alone; phi is summed as its power series while |t| <= 0.1,
    where the closed form cancels.  From a + d and a of 1000 on, the result
    measured within 1e-13 + 8 eps |d| ln x of 40-digit values.  With
    log_z2 = ln |z|^2 it is ln(t_a / t_(a + d)).
    """
    if min(a, a + d) < 0:
        raise ValueError(f"no factor below n = 0: a = {a}, d = {d}")
    if d == 0:
        return 0.0
    al, c = params.alpha, params.offset
    x = a + c + 1.0
    y = x + d
    t = d / x
    if d > 0:
        tail = _log1p_tail(x, y - 1.0, math.log1p((d - 1) / x), al, c)
    else:
        tail = -_log1p_tail(y, x - 1.0, math.log1p((-d - 1) / y), al, c)
    if abs(t) > 0.1:
        phi = (1.0 + t) * math.log1p(t) - t
    else:
        # sum_{m >= 2} (-t)^m / (m (m - 1)), from its largest term down.
        power, phi, m = t * t, 0.5 * t * t, 2
        while abs(power) > 2.0 ** -56 * m * m * phi:
            m += 1
            power *= -t
            phi += power / (m * (m - 1))
    stirling = -t / (12.0 * y) - (y ** -3 - x ** -3) / 360.0 + (y ** -5 - x ** -5) / 1260.0
    return d * (al * math.log(x) - log_z2) + al * (x * phi - 0.5 * math.log1p(t) + stirling) + tail


def _log1p_tail(xa: float, xb: float, span: float, a: float, c: float) -> float:
    """sum over x = xa, xa + 1, ..., xb of log1p(-(c/x)^a), for xa > c, with
    span = ln(xb / xa).

    log1p(-u) = -sum_p u^p / p, and for s = a p each sum over x of
    f(x) = (c/x)^s is its integral, the end-point half weights and the
    Euler-Maclaurin corrections, whose derivatives are
    f^(2i-1)(x) = -(s)_(2i-1) f(x) / x^(2i-1).  The integral is written
    through expm1 so that it stays exact as s passes 1, and takes the span
    from the caller, who can form it without cancellation when xb is near xa.
    """
    ua, ub = (c / xa) ** a, (c / xb) ** a
    fa = fb = 1.0
    terms = []
    p = 0
    while True:
        p += 1
        fa *= ua
        fb *= ub
        s = a * p
        t = (1.0 - s) * span
        h = xa * fa * span * (math.expm1(t) / t if t else 1.0) + 0.5 * (fa + fb)
        rising, da, db = s, fa / xa, fb / xb
        for i, coefficient in enumerate(_EULER_MACLAURIN, 1):
            h += coefficient * rising * (da - db)
            rising *= (s + 2 * i - 1) * (s + 2 * i)
            da /= xa * xa
            db /= xb * xb
        terms.append(h / p)
        # The powers fall geometrically, by (c/xa)^a <= 0.75 per step.
        if terms[-1] <= 2.0 ** -60 * terms[0]:
            return -math.fsum(terms)


def log_sum_exp(values) -> float:
    """ln of the sum of exp(x) over the inputs, via running-maximum rescaling.

    The rescaled exponentials are accumulated with compensated summation
    (math.fsum), so the result is permutation-invariant and exact to within
    the final rounding.  -inf inputs are treated as exp(x) = 0.
    """
    xs = [x for x in values]
    if not xs:
        raise ValueError("log_sum_exp of an empty stream")
    m = max(xs)
    if m == -math.inf:
        return -math.inf
    if math.isinf(m):
        return m
    return m + math.log(math.fsum(math.exp(x - m) for x in xs))
