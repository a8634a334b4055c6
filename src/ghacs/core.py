"""Overflow-safe evaluation of the structure function and series terms.

The coherent-state series for a power-law potential with exponent ``k`` is
built from the structure function

    g(n, k) = prod_{j=1}^{n} [(j + gamma/4)^alpha - (gamma/4)^alpha],
    alpha = 2k / (k + 2),

which replaces n! of the harmonic-oscillator case (k = 2 gives alpha = 1
and g = n! exactly).  Terms |z|^{2n} / g(n, k) overflow native floats long
before the series converges for large |z|, so everything works with
logarithms: this module gives the factor logarithms ln g(j) - ln g(j - 1),
and the term walk in ``stats`` accumulates them into
ln term = 2n ln|z| - ln g(n, k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PotentialParams",
    "characteristic_exponent",
    "log_g_increment",
    "log_sum_exp",
]

# Below this ratio of (gamma/4)^alpha to (j + gamma/4)^alpha the subtraction
# inside ln is replaced by an explicit log1p correction.
_DIRECT_RATIO_FLOOR = 1e-17


@dataclass(frozen=True)
class PotentialParams:
    """Physics inputs: power-law exponent k and spectral offset gamma.

    gamma enters only through gamma/4; the default gamma = 2 puts the
    offset at 1/2 (the standard two-turning-point value).
    """

    k: float
    gamma: float = 2.0

    def __post_init__(self):
        if not (self.k > 0 and math.isfinite(self.k)):
            raise ValueError(f"k must be a positive finite real, got {self.k}")
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be a positive finite real, got {self.gamma}")

    @property
    def alpha(self) -> float:
        return characteristic_exponent(self)

    @property
    def offset(self) -> float:
        return 0.25 * self.gamma


def characteristic_exponent(params: PotentialParams) -> float:
    """alpha = 2k / (k + 2), strictly increasing in k with range (0, 2)."""
    return 2.0 * params.k / (params.k + 2.0)


def log_g_increment(j: int, params: PotentialParams) -> float:
    """ln of the j-th product factor, ln[(j + gamma/4)^alpha - (gamma/4)^alpha].

    The factor is strictly positive for every j >= 1, so the result is
    always finite.  When the subtrahend is negligible the subtraction is
    rewritten through log1p to keep full precision.
    """
    if j < 1:
        raise ValueError(f"factor index must be >= 1, got {j}")
    a = characteristic_exponent(params)
    c = params.offset
    big = (j + c) ** a
    small = c ** a
    if small >= _DIRECT_RATIO_FLOOR * big:
        return math.log(big - small)
    return a * math.log(j + c) + math.log1p(-small / big)


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
