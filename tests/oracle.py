"""Extended-precision reference implementation used to cross-check the engine.

Everything here is computed by direct summation in mpmath (default 60
significant digits): the structure function as an explicit product, the
series term-by-term without any log-domain tricks.  The one exception,
``log_g_shift``, spans up to millions of factors and sums them through
lnGamma and the Hurwitz zeta function instead.  It deliberately shares no
code with the package under test.
"""

from mpmath import digamma, loggamma, mp, mpf, log, zeta

DPS = 60


def structure_function(n, k, gamma, dps=DPS):
    """g(n, k) as the explicit product of n factors."""
    with mp.workdps(dps):
        a = mpf(2) * mpf(k) / (mpf(k) + 2)
        c = mpf(gamma) / 4
        g = mpf(1)
        for j in range(1, n + 1):
            g *= (j + c) ** a - c ** a
        return g


def term_ratio(abs_z, k, gamma, anchor, n, dps=DPS):
    """t_n / t_anchor as the product of the term ratios |z|^2 / factor_j between them."""
    with mp.workdps(dps):
        a = mpf(2) * mpf(k) / (mpf(k) + 2)
        c = mpf(gamma) / 4
        z2 = mpf(abs_z) ** 2
        small = c ** a
        ratio = mpf(1)
        for j in range(min(n, anchor) + 1, max(n, anchor) + 1):
            ratio *= z2 / ((j + c) ** a - small)
        return ratio if n >= anchor else 1 / ratio


def direct_sums(abs_z, k, gamma, n_max, dps=DPS):
    """Raw sums S_m = sum_{n=0}^{n_max} n^m |z|^{2n} / g(n,k) for m = 0, 1, 2."""
    with mp.workdps(dps):
        a = mpf(2) * mpf(k) / (mpf(k) + 2)
        c = mpf(gamma) / 4
        z2 = mpf(abs_z) ** 2
        term = mpf(1)
        s0, s1, s2 = mpf(0), mpf(0), mpf(0)
        for n in range(n_max + 1):
            if n > 0:
                term = term * z2 / ((n + c) ** a - c ** a)
            s0 += term
            s1 += n * term
            s2 += n * n * term
        return s0, s1, s2


def direct_log_sums(abs_z, k, gamma, n_max, dps=DPS):
    """(ln S0, ln S1, ln S2) as floats, for comparison with the log-domain engine."""
    s0, s1, s2 = direct_sums(abs_z, k, gamma, n_max, dps=dps)
    with mp.workdps(dps):
        return float(log(s0)), float(log(s1)), float(log(s2))


def direct_stats(abs_z, k, gamma, n_max, dps=DPS):
    """(mean, variance, Q) from the direct sums."""
    s0, s1, s2 = direct_sums(abs_z, k, gamma, n_max, dps=dps)
    with mp.workdps(dps):
        mean = s1 / s0
        var = s2 / s0 - mean ** 2
        return float(mean), float(var), float(var / mean - 1)


def direct_weights(abs_z, k, gamma, n_max, dps=DPS):
    """Normalized weighting distribution P_0 .. P_{n_max} as floats."""
    with mp.workdps(dps):
        a = mpf(2) * mpf(k) / (mpf(k) + 2)
        c = mpf(gamma) / 4
        z2 = mpf(abs_z) ** 2
        term = mpf(1)
        terms = [term]
        for n in range(1, n_max + 1):
            term = term * z2 / ((n + c) ** a - c ** a)
            terms.append(term)
        s0 = sum(terms)
        return [float(t / s0) for t in terms]


def log_g_shift(a, d, k, gamma, dps=DPS):
    """ln g(a + d) - ln g(a), as the sum of the factor logs between a and a + d.

    ln factor_j = alpha ln(j + c) + ln(1 - u_j), u_j = (c / (j + c))^alpha,
    and -ln(1 - u) = sum_p u^p / p: the first part sums to a lnGamma
    difference, each power p to a difference of Hurwitz zeta values at
    s = alpha p (of digamma values where s = 1).
    """
    if d == 0:
        return mpf(0)
    with mp.workdps(dps):
        a_, c = mpf(2) * mpf(k) / (mpf(k) + 2), mpf(gamma) / 4
        lo, hi = min(a, a + d), max(a, a + d)  # factors lo + 1 .. hi
        total = a_ * (loggamma(hi + c + 1) - loggamma(lo + c + 1))
        p = 0
        while True:
            p += 1
            s = a_ * p
            if s == 1:
                part = digamma(hi + c + 1) - digamma(lo + c + 1)
            else:
                part = zeta(s, lo + c + 1) - zeta(s, hi + c + 1)
            term = c ** s * part / p
            total -= term
            if abs(term) < mpf(10) ** -(dps + 5) * abs(total):
                return total if d >= 0 else -total
