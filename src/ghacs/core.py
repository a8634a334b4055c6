"""Overflow-safe evaluation of the structure function and series terms.

The coherent-state series for a power-law potential with exponent ``k`` is
built from the structure function

    g(n, k) = prod_{j=1}^{n} [(j + gamma/4)^alpha - (gamma/4)^alpha],
    alpha = 2k / (k + 2),

which replaces n! of the harmonic-oscillator case (k = 2 gives alpha = 1
and g = n! exactly).  Terms |z|^{2n} / g(n, k) overflow native floats long
before the series converges for large |z|, so everything works with
logarithms.  This module gives the factor logarithms ln g(j) - ln g(j - 1),
a block of consecutive indices per call, and ln g(n, k) itself in closed
form, at a cost independent of n, so that the term walk in ``stats`` can
start at any index (the largest term) and step outward from it.  It uses
the standard library only.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

__all__ = [
    "PotentialParams",
    "log_g",
    "log_factors",
    "log_g_increment",
    "log_sum_exp",
]

# Below this ratio of (gamma/4)^alpha to (j + gamma/4)^alpha the subtraction
# inside ln is replaced by an explicit log1p correction.
_DIRECT_RATIO_FLOOR = 1e-17

# Factors are evaluated in lists of at most this many, so that memory stays
# bounded however far a sum or a walk runs.  64 pointers fill 512 bytes, the
# largest request the small-object allocator serves; blocks of 1024 measured
# no faster and raised the peak RSS of a deep-tail run by fragmenting the heap.
MAX_BLOCK = 64

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
    at 1e6, beyond which the factors lose digits to cancellation.
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
        return super().__new__(cls, k, gamma)

    @property
    def alpha(self) -> float:
        """alpha = 2k / (k + 2), strictly increasing in k with range (0, 2)."""
        return 2.0 * self.k / (self.k + 2.0)

    @property
    def offset(self) -> float:
        return 0.25 * self.gamma


def log_g_increment(j: int, params: PotentialParams) -> float:
    """ln of the j-th product factor, ln[(j + gamma/4)^alpha - (gamma/4)^alpha].

    The factor is strictly positive for every j >= 1, so the result is
    always finite.  It is the one-index case of ``log_factors``.
    """
    return log_factors(j, j + 1, params)[0]


def log_factors(lo: int, hi: int, params: PotentialParams) -> list[float]:
    """ln factor_j for j = lo, ..., hi - 1, with alpha and c^alpha computed once.

    When the subtrahend c^alpha is negligible the subtraction is rewritten
    through log1p to keep full precision.  (j + c)^alpha grows with j, so
    when the last index still takes the direct form, every index does.
    """
    if lo < 1:
        raise ValueError(f"factor index must be >= 1, got {lo}")
    a = params.alpha
    c = params.offset
    small = c ** a
    log = math.log
    if small >= _DIRECT_RATIO_FLOOR * (hi - 1 + c) ** a:
        return [log((j + c) ** a - small) for j in range(lo, hi)]
    out = []
    for j in range(lo, hi):
        big = (j + c) ** a
        if small >= _DIRECT_RATIO_FLOOR * big:
            out.append(log(big - small))
        else:
            out.append(a * log(j + c) + math.log1p(-small / big))
    return out


def log_g(n: int, params: PotentialParams) -> float:
    """ln g(n, k) in closed form, without walking the product.

    ln g(n) = sum_{j<=M} ln factor_j + alpha [lnGamma(n + c + 1) - lnGamma(M + c + 1)]
              + sum_{j=M+1}^{n} log1p(-(c / (j + c))^alpha),    c = gamma/4,

    with M = min(n, 64) factors summed directly (more for k < 0.1 or
    gamma > 10, see _SERIES_RATIO).  The last sum is expanded
    in powers of (c / (j + c))^alpha, and each power is summed over j by
    Euler-Maclaurin, so the cost does not grow with n.  Raises ValueError
    when M exceeds 2^20, which only k below about 0.02 needs at gamma <= 10.
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
    direct = math.fsum(itertools.chain.from_iterable(
        log_factors(j, min(j + MAX_BLOCK, m + 1), params) for j in range(1, m + 1, MAX_BLOCK)))
    if n == m:
        return direct
    gamma_part = a * (math.lgamma(n + c + 1.0) - math.lgamma(m + c + 1.0))
    return math.fsum((direct, gamma_part, _log1p_tail(m + 1 + c, n + c, a, c)))


def _log1p_tail(xa: float, xb: float, a: float, c: float) -> float:
    """sum over x = xa, xa + 1, ..., xb of log1p(-(c/x)^a), for xa > c.

    log1p(-u) = -sum_p u^p / p, and for s = a p each sum over x of
    f(x) = (c/x)^s is its integral, the end-point half weights and the
    Euler-Maclaurin corrections, whose derivatives are
    f^(2i-1)(x) = -(s)_(2i-1) f(x) / x^(2i-1).  The integral is written
    through expm1 so that it stays exact as s passes 1.
    """
    span = math.log(xb / xa)
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
