import math
import sys

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ghacs import core, lab, stats
from ghacs.core import (MAX_BLOCK, PotentialParams, factor_block, log_g, log_g_delta,
                        log_g_increment, log_sum_exp)
from ghacs.stats import LogTermWalk

from oracle import log_g_shift, structure_function, term_ratio

K15 = PotentialParams(k=1.5, gamma=2.0)
K05 = PotentialParams(k=0.5, gamma=2.0)

# Extended-precision reference values (60-digit direct evaluation, see oracle.py).
INC_J3_K15 = 0.8647552963623345
LOG_G_10_K15 = 12.299655564638958
LOG_TERM_400_Z15 = 454.51278412000094
# ln g(n) at k = 0.5, gamma = 2: 45-digit mpmath sums of the n factor logarithms.
LOG_G_K05 = {
    10 ** 5: 419246.4281504807429534374486691809081652,
    776287: 3896439.475133226492135594926355959371335,
}


def walk_to(n, abs_z, params, anchor=0):
    walk = LogTermWalk(abs_z, params, anchor)
    walk.extend_to(n)
    return walk


def factor(j, params):
    """factor_j, read from the aligned block that holds it."""
    return factor_block((j - 1) // MAX_BLOCK, params)[(j - 1) % MAX_BLOCK]


def log_term(n, abs_z, params):
    return 2 * n * math.log(abs_z) - log_g(n, params)


params_st = st.builds(
    PotentialParams,
    k=st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
    gamma=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)


class TestPotentialParams:
    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            PotentialParams(k=0.0)
        with pytest.raises(ValueError):
            PotentialParams(k=-1.5)

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            PotentialParams(k=1.5, gamma=0.0)

    @pytest.mark.parametrize("gamma", [1.000001e6, 1e50, 1e300])
    def test_rejects_gamma_above_1e6(self, gamma):
        with pytest.raises(ValueError, match="gamma must be at most"):
            PotentialParams(k=1.5, gamma=gamma)
        assert PotentialParams(k=1.5, gamma=1e6).gamma == 1e6

    @pytest.mark.parametrize("k", [1e-20, 1e-300, 5e-324])
    def test_rejects_k_whose_first_factor_rounds_to_zero(self, k):
        # (1 + gamma/4)^alpha and (gamma/4)^alpha round to the same double,
        # so ln of the first factor would be ln 0.
        with pytest.raises(ValueError, match=f"k = {k} is too small at gamma = 2.0"):
            PotentialParams(k=k)
        assert math.isfinite(log_g_increment(1, PotentialParams(k=1e-15)))

    @pytest.mark.parametrize("gamma", [5e-324, 1e-323])
    def test_rejects_gamma_whose_quarter_underflows(self, gamma):
        with pytest.raises(ValueError, match=f"gamma = {gamma} is too small"):
            PotentialParams(k=1.5, gamma=gamma)
        assert PotentialParams(k=1.5, gamma=2e-323).offset > 0.0

    @given(params_st)
    def test_alpha_in_open_interval(self, params):
        assert 0.0 < params.alpha < 2.0

    @given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    @example(k=5e-324)
    @example(k=8.99e307)
    @example(k=1.7976931348623157e308)
    def test_alpha_finite_for_every_finite_k(self, k):
        # 2k / (k + 2) overflows to inf for k above about 8.99e307; alpha
        # stays finite there and rounds as that form wherever 2k is finite.
        # Below about 8e-17 the first factor rounds to 0 and k is refused.
        try:
            alpha = PotentialParams(k=k).alpha
        except ValueError as exc:
            assert k < 1e-16 and f"k = {k} is too small" in str(exc)
            return
        assert 0.0 < alpha <= 2.0
        if math.isfinite(2.0 * k):
            assert alpha == 2.0 * k / (k + 2.0)


class TestCharacteristicExponent:
    def test_harmonic_case(self):
        assert PotentialParams(k=2.0).alpha == 1.0

    def test_large_k_limit(self):
        assert abs(PotentialParams(k=1e9).alpha - 2.0) < 1e-8

    def test_k_three_halves(self):
        assert K15.alpha == pytest.approx(6.0 / 7.0, abs=1e-15)

    def test_increasing_in_k(self):
        ks = [0.5, 1.0, 2.0, 5.0, 50.0]
        alphas = [PotentialParams(k=k).alpha for k in ks]
        assert alphas == sorted(alphas)


class TestLogGIncrement:
    def test_first_factor_is_one_at_harmonic(self):
        for gamma in (1.0, 2.0, 7.3):
            assert log_g_increment(1, PotentialParams(k=2.0, gamma=gamma)) == pytest.approx(0.0, abs=1e-15)

    def test_harmonic_factor_is_j(self):
        assert log_g_increment(5, PotentialParams(k=2.0, gamma=3.0)) == pytest.approx(math.log(5), abs=1e-14)

    def test_frozen_reference_value(self):
        assert log_g_increment(3, K15) == pytest.approx(INC_J3_K15, rel=1e-14)

    def test_rejects_j_below_one(self):
        with pytest.raises(ValueError):
            log_g_increment(0, K15)

    @given(params_st, st.integers(min_value=1, max_value=10 ** 6))
    def test_always_finite(self, params, j):
        assert math.isfinite(log_g_increment(j, params))


# The factor kernel once switched to a log1p form, a * ln(j + c) + log1p(-c^a /
# (j + c)^a), where (j + c)^a exceeded this multiple of c^a.  That form was the
# less accurate of the two: 2.0e-16 relative at worst, against 1.1e-16.
LOG1P_RATIO = 1e17
# Near 2^52 the offset c is no longer exact in j + c; the walk starts no higher.
MAX_J = 2 ** 52


def first_log1p_index(params):
    """The smallest j with (j + c)^a > LOG1P_RATIO c^a, where the log1p form took over."""
    a, c = params.alpha, params.offset
    lo, hi = 1, 2
    while (hi + c) ** a <= LOG1P_RATIO * c ** a:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (mid + c) ** a <= LOG1P_RATIO * c ** a:
            lo = mid
        else:
            hi = mid
    return hi


def mp_log_factor(j, params):
    """ln[(j + c)^a - c^a] in 40-digit arithmetic, at the double alpha and c."""
    with mpmath.workdps(40):
        a, c = mpmath.mpf(params.alpha), mpmath.mpf(params.offset)
        return mpmath.log((j + c) ** a - c ** a)


def block_span(b):
    """The factor indices of the b-th aligned block, as a (lo, hi) span."""
    return b * MAX_BLOCK + 1, (b + 1) * MAX_BLOCK + 1


class TestLogFactors:
    """factor_j: the kernel, its memoised aligned blocks and log_g_increment."""

    @given(params_st, st.integers(min_value=1, max_value=10 ** 9),
           st.integers(min_value=0, max_value=200))
    @example(params=K15, lo=60, length=140)  # across the block edges at 65, 129 and 193
    @settings(max_examples=60)
    def test_block_equals_one_index_calls_bitwise(self, params, lo, length):
        # A span of the kernel, its one-index calls, and the log of
        # log_g_increment, which reads memoised aligned blocks, agree bitwise;
        # so does each block with the kernel over its own span, evaluated fresh.
        hi = lo + length
        span = core._factors(lo, hi, params)
        assert span == [core._factors(j, j + 1, params)[0] for j in range(lo, hi)]
        assert list(map(math.log, span)) == [log_g_increment(j, params) for j in range(lo, hi)]
        for b in range((lo - 1) // MAX_BLOCK, (hi - 2) // MAX_BLOCK + 1):
            assert factor_block(b, params) == tuple(core._factors(*block_span(b), params))

    def test_block_across_log1p_crossover(self):
        # At k = 100 the old log1p form took over near j = 2.3e8; the one
        # direct formula spans it with no seam.
        params = PotentialParams(k=100.0, gamma=2.0)
        x = first_log1p_index(params)
        assert 2e8 < x < 3e8
        span = core._factors(x - 10, x + 10, params)
        assert span == [core._factors(j, j + 1, params)[0] for j in range(x - 10, x + 10)]
        assert list(map(math.log, span)) == [log_g_increment(j, params)
                                             for j in range(x - 10, x + 10)]
        for b in {(j - 1) // MAX_BLOCK for j in (x - 10, x + 9)}:
            assert factor_block(b, params) == tuple(core._factors(*block_span(b), params))
        with mpmath.workdps(40):
            a = mpmath.mpf(2 * 100.0) / (100.0 + 2)
            c = mpmath.mpf(0.5)
            for j, value in zip(range(x - 10, x + 10), map(math.log, span)):
                expected = float(mpmath.log((j + c) ** a - c ** a))
                assert value == pytest.approx(expected, rel=1e-15, abs=0.0)

    @given(k=st.one_of(st.floats(min_value=math.log10(4.0), max_value=6.0).map(
               lambda log_k: 10.0 ** log_k), st.just(1e300)),
           gamma=st.floats(min_value=-1.0, max_value=6.0).map(lambda log_gamma: 10.0 ** log_gamma),
           u=st.floats(min_value=0.0, max_value=1.0))
    @example(k=100.0, gamma=2.0, u=0.0)
    @example(k=10.0 ** 3.9375, gamma=1000.0, u=0.25)  # 1.8e-16 in the log1p form
    @settings(max_examples=300, deadline=None)
    def test_large_index_factors_match_mpmath(self, k, gamma, u):
        # Where the old log1p form took over, up to 2^52, the direct formula
        # is within 1.5e-16 relative of 40-digit values; it measured 1.1e-16
        # at worst, the log1p form 2.0e-16.
        params = PotentialParams(k=k, gamma=gamma)
        x = first_log1p_index(params)
        assume(x < MAX_J)
        j = x + round(u * (MAX_J - x))
        value = math.log(*core._factors(j, j + 1, params))
        expected = mp_log_factor(j, params)
        assert abs(value - expected) <= 1.5e-16 * abs(expected)

    def test_empty_span(self):
        assert core._factors(7, 7, K15) == []

    def test_blocks_are_memoised_within_a_bound(self):
        # Each aligned block is evaluated once while it stays among the last
        # _MEMO_SIZE used; a walk far longer than that keeps only that many.
        factor_block.cache_clear()
        for b in range(4):
            factor_block(b, K15)
        for j in range(60, 140):
            log_g_increment(j, K15)
        assert factor_block.cache_info().misses == 4
        for b in range(100):
            factor_block(b, K15)
        info = factor_block.cache_info()
        assert info.misses == 100 and info.currsize == info.maxsize == core._MEMO_SIZE

    def test_rejects_index_below_one(self):
        with pytest.raises(ValueError):
            factor_block(-1, K15)
        with pytest.raises(ValueError):
            log_g_increment(0, K15)


class TestLogG:
    def test_empty_product(self):
        assert log_g(0, K15) == 0.0
        assert log_g(0, PotentialParams(k=50.0, gamma=0.3)) == 0.0

    def test_harmonic_reduces_to_factorial(self):
        assert log_g(5, PotentialParams(k=2.0, gamma=9.9)) == pytest.approx(math.log(120), abs=1e-12)

    def test_factorial_reduction_sweep(self):
        for gamma in (1.0, 2.0, 3.0):
            params = PotentialParams(k=2.0, gamma=gamma)
            for n in range(21):
                assert abs(log_g(n, params) - math.lgamma(n + 1)) < 1e-10

    def test_frozen_reference_value(self):
        assert log_g(10, K15) == pytest.approx(LOG_G_10_K15, rel=1e-12)

    def test_against_extended_precision_product(self):
        expected = float(mpmath.log(structure_function(10, 1.5, 2.0)))
        assert log_g(10, K15) == pytest.approx(expected, rel=1e-12)

    @given(params_st, st.integers(min_value=0, max_value=300))
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_oracle(self, params, n):
        # Past the 64 direct factors the lnGamma and correction-series parts
        # take over; ln g crosses 0 for small k, hence the absolute floor.
        expected = float(mpmath.log(structure_function(n, params.k, params.gamma)))
        assert log_g(n, params) == pytest.approx(expected, rel=1e-13, abs=1e-12)

    @pytest.mark.parametrize("n", sorted(LOG_G_K05))
    def test_frozen_deep_tail_values(self, n):
        expected = LOG_G_K05[n]
        assert abs(log_g(n, K05) - expected) <= 2 * math.ulp(expected)

    @given(params_st, st.integers(min_value=0, max_value=200),
           st.lists(st.integers(min_value=0, max_value=400), max_size=5))
    @settings(max_examples=50)
    def test_incremental_matches_scratch_bitwise(self, params, anchor, stops):
        # Random steps up and down from the anchor hold exactly the values of
        # one extension to the same span, each one factor from its neighbour.
        abs_z = 1.0
        walk = LogTermWalk(abs_z, params, anchor)
        for stop in stops:
            walk.extend_to(stop)
        lo, hi = walk.lo, walk.hi
        once = walk_to(lo, abs_z, params, anchor)
        once.extend_to(hi)
        assert walk.window(lo, hi) == once.window(lo, hi)
        z2 = abs_z * abs_z
        scratch = 1.0
        for j in range(anchor + 1, hi + 1):
            scratch *= z2 / factor(j, params)
            assert walk.window(j, j)[0] == scratch
        scratch = 1.0
        for j in range(anchor, lo, -1):
            scratch *= factor(j, params) / z2
            assert walk.window(j - 1, j - 1)[0] == scratch

    def test_direct_factor_budget(self):
        # At k = 0.01 the correction series needs about 1.8e12 direct factors
        # before its ratio falls to 0.75: refused at once, not summed for an hour.
        params = PotentialParams(k=0.01)
        assert math.isfinite(log_g(core._MAX_DIRECT_FACTORS, params))
        with pytest.raises(ValueError, match="k is too small"):
            log_g(core._MAX_DIRECT_FACTORS + 1, params)

    def test_monotone_once_increments_positive(self):
        # increments exceed 1 from small j on, so the cumulative sum grows
        values = [log_g(n, K15) for n in range(2, 40)]
        assert all(b >= a for a, b in zip(values, values[1:]))


def shift_bound(a, d, params):
    """The kernel's error bound: 1e-13, plus the rounding of its slope, which
    is linear in d and so only tilts ln g."""
    return 1e-13 + 8 * 2.0 ** -52 * abs(d) * math.log(a + params.offset + 1)


def peak_width(a, params):
    """sigma at a peak on index a: sigma^-2 = alpha (a + c)^(alpha - 1) / factor_a."""
    al, c = params.alpha, params.offset
    return math.sqrt((a + c - c ** al * (a + c) ** (1 - al)) / al)


class TestLogGDelta:
    @given(k=st.floats(min_value=0.3, max_value=2.0), gamma=st.floats(min_value=0.1, max_value=10.0),
           log_a=st.floats(min_value=3.0, max_value=9.0), u=st.floats(min_value=-1.0, max_value=1.0))
    @example(k=0.5, gamma=2.0, log_a=math.log10(765785), u=-0.9)  # the deep-tail peak
    @example(k=2.0, gamma=2.0, log_a=3.0, u=1.0)  # alpha = 1: a digamma term in the oracle
    @example(k=0.3, gamma=10.0, log_a=3.0, u=-1.0)  # down to n = 1000
    @settings(max_examples=40, deadline=None)
    def test_matches_40_digit_sums(self, k, gamma, log_a, u):
        # |d| up to 20 sigma of a peak at a, and a + d >= 1000.
        params = PotentialParams(k=k, gamma=gamma)
        a = round(10.0 ** log_a)
        d = max(round(u * 20 * peak_width(a, params)), 1000 - a)
        expected = log_g_shift(a, d, k, gamma, dps=40)
        with mpmath.workdps(40):
            error = abs(log_g_delta(a, d, params) - expected)
        assert error <= shift_bound(a, d, params)

    @given(k=st.floats(min_value=0.3, max_value=2.0), gamma=st.floats(min_value=0.1, max_value=10.0),
           log_a=st.floats(min_value=3.0, max_value=7.0),
           d=st.integers(min_value=-5 * 10 ** 4, max_value=5 * 10 ** 4))
    @example(k=0.5, gamma=2.0, log_a=math.log10(765785), d=-12000)
    @example(k=1.5, gamma=2.0, log_a=4.0, d=1)
    @example(k=1.5, gamma=2.0, log_a=4.0, d=-1)
    @settings(max_examples=40, deadline=None)
    def test_matches_the_factor_blocks(self, k, gamma, log_a, d):
        params = PotentialParams(k=k, gamma=gamma)
        a = round(10.0 ** log_a)
        d = max(d, 1000 - a)
        lo, hi = min(a, a + d), max(a, a + d)
        logs = math.fsum(math.log(factor(j, params)) for j in range(lo + 1, hi + 1))
        assert abs(log_g_delta(a, d, params) - (logs if d > 0 else -logs)) <= shift_bound(a, d, params)

    def test_slope_is_the_log_term_ratio(self):
        # With log_z2 = ln |z|^2 the kernel is ln(t_a / t_(a + d)).
        params, z = PotentialParams(k=0.5), 15.0
        a = 765785
        for d in (-9000, -1, 0, 1, 9000):
            direct = log_g(a + d, params) - log_g(a, params) - 2 * d * math.log(z)
            assert log_g_delta(a, d, params, math.log(z * z)) == pytest.approx(direct, abs=1e-8)

    def test_rejects_indices_below_zero(self):
        with pytest.raises(ValueError):
            log_g_delta(10, -11, K15)


class TestLogTerm:
    def test_zeroth_term_is_unity(self):
        walk = LogTermWalk(3.7, K15)
        assert walk.window(0, walk.hi) == [1.0]
        assert walk.log_anchor == 0.0

    def test_harmonic_unit_amplitude(self):
        assert log_term(5, 1.0, PotentialParams(k=2.0)) == pytest.approx(-math.log(120), abs=1e-12)

    def test_huge_power_no_overflow(self):
        # |z|^800 ~ 1e940 overflows a double; the log form does not care.
        value = log_term(400, 15.0, K15)
        assert math.isfinite(value)
        assert value == pytest.approx(LOG_TERM_400_Z15, rel=1e-13)

    def test_finite_at_n_one_million(self):
        assert math.isfinite(log_term(10 ** 6, 15.0, K15))

    def test_zero_amplitude_rejected_for_positive_n(self):
        walk = LogTermWalk(0.0, K15)
        walk.extend_to(0)
        with pytest.raises(ValueError):
            walk.extend_to(1)

    def test_sequence_recurrence_matches_closed_form(self):
        for anchor in (0, 30):
            walk = walk_to(60, 2.5, K15, anchor)
            walk.extend_to(0)
            for n in (0, 1, 7, 30, 60):
                closed_form = 2 * n * math.log(2.5) - log_g(n, K15)
                log_weight = math.log(walk.window(n, n)[0])
                assert walk.log_anchor + log_weight == pytest.approx(closed_form, rel=1e-12)

    @given(k=st.sampled_from([0.5, 1.5, 5.0]), gamma=st.sampled_from([0.1, 2.0, 10.0]),
           abs_z=st.floats(min_value=0.0, max_value=15.0),
           u=st.floats(min_value=0.0, max_value=1.0))
    @example(k=0.5, gamma=2.0, abs_z=15.0, u=0.0)  # the ends of a 24,325-term window
    @example(k=0.5, gamma=2.0, abs_z=15.0, u=1.0)
    @example(k=1.5, gamma=10.0, abs_z=0.7, u=1.0)  # the first factors cancel digits
    @settings(max_examples=30, deadline=None)
    def test_walk_matches_40_digit_term_ratios(self, k, gamma, abs_z, u):
        # Each step's ratio carries its factor's rounding (up to 5.3 ulps at
        # j = 1, k = 1.5, gamma = 10, where (1 + c)^alpha - c^alpha cancels,
        # and about alpha ln j ulps from alpha's own rounding, 2.7 at k = 0.5
        # near n = 7.7e5), and half an ulp each for |z|^2, the division and
        # the product.  So w_n is within 8 ulps per step of t_n / t_anchor,
        # where that is a normal double: below 2.2e-308 a weight is subnormal
        # or 0.0 (at |z| near 1e-113, t_2 / t_0 already underflows).
        params = PotentialParams(k=k, gamma=gamma)
        walked = (stats._empty, stats._certified, stats._open_head, stats._past_2_52, stats._walk)
        _, walk, sums = next(stats._walks(abs_z, params, (stats.DEFAULT_POLICY,), walked))
        n = sums.first_index + round(u * (sums.terms_used - 1 - sums.first_index))
        expected = term_ratio(abs_z, k, gamma, walk.anchor, n, dps=40)
        assume(expected >= sys.float_info.min)
        with mpmath.workdps(40):
            error = abs(walk.window(n, n)[0] / expected - 1)
        assert error <= 8 * 2.0 ** -53 * abs(n - walk.anchor)

    @pytest.mark.parametrize("abs_z", [-1.0, math.nan, math.inf])
    def test_rejects_amplitude_not_finite_and_nonnegative(self, abs_z):
        with pytest.raises(ValueError):
            LogTermWalk(abs_z, K15)


class TestLogSumExp:
    def test_single_zero(self):
        assert log_sum_exp([0.0]) == 0.0

    def test_two_plus_three(self):
        assert log_sum_exp([math.log(2), math.log(3)]) == pytest.approx(math.log(5), abs=1e-14)

    def test_identical_large_inputs(self):
        assert log_sum_exp([700.0] * 1000) == pytest.approx(700.0 + math.log(1000), abs=1e-12)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            log_sum_exp([])

    def test_all_neg_inf(self):
        assert log_sum_exp([-math.inf, -math.inf]) == -math.inf

    @given(st.lists(st.floats(min_value=-600, max_value=600), min_size=1, max_size=50),
           st.randoms(use_true_random=False))
    def test_permutation_invariant(self, xs, rng):
        shuffled = list(xs)
        rng.shuffle(shuffled)
        a, b = log_sum_exp(xs), log_sum_exp(shuffled)
        assert a == pytest.approx(b, rel=1e-12)

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=30),
           st.floats(min_value=-500, max_value=500))
    def test_shift_invariant(self, xs, s):
        assert log_sum_exp([x + s for x in xs]) == pytest.approx(log_sum_exp(xs) + s, abs=1e-10)


@pytest.mark.parametrize("module", [core, stats, lab], ids=lambda m: m.__name__)
def test_every_public_name_resolves(module):
    for name in module.__all__:
        assert hasattr(module, name), name
