import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghacs import core
from ghacs.core import (PotentialParams, characteristic_exponent, log_factors, log_g,
                        log_g_increment, log_sum_exp)
from ghacs.stats import LogTermWalk

from oracle import structure_function

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

    @given(params_st)
    def test_alpha_in_open_interval(self, params):
        assert 0.0 < params.alpha < 2.0


class TestCharacteristicExponent:
    def test_harmonic_case(self):
        assert characteristic_exponent(PotentialParams(k=2.0)) == 1.0

    def test_large_k_limit(self):
        assert abs(characteristic_exponent(PotentialParams(k=1e9)) - 2.0) < 1e-8

    def test_k_three_halves(self):
        assert characteristic_exponent(K15) == pytest.approx(6.0 / 7.0, abs=1e-15)

    def test_increasing_in_k(self):
        ks = [0.5, 1.0, 2.0, 5.0, 50.0]
        alphas = [characteristic_exponent(PotentialParams(k=k)) for k in ks]
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


def first_log1p_index(params):
    """The smallest j whose factor takes the log1p form: c^a < floor (j + c)^a."""
    a, c = params.alpha, params.offset
    lo, hi = 1, 2
    while c ** a >= core._DIRECT_RATIO_FLOOR * (hi + c) ** a:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if c ** a >= core._DIRECT_RATIO_FLOOR * (mid + c) ** a:
            lo = mid
        else:
            hi = mid
    return hi


class TestLogFactors:
    @given(params_st, st.integers(min_value=1, max_value=10 ** 9),
           st.integers(min_value=0, max_value=200))
    @settings(max_examples=60)
    def test_block_equals_one_index_calls_bitwise(self, params, lo, length):
        hi = lo + length
        assert log_factors(lo, hi, params) == [log_factors(j, j + 1, params)[0]
                                               for j in range(lo, hi)]

    def test_block_across_log1p_crossover(self):
        # At k = 100 the log1p form takes over near j = 2.3e8; a block whose
        # last index is past it evaluates every index the per-index way.
        params = PotentialParams(k=100.0, gamma=2.0)
        x = first_log1p_index(params)
        assert 2e8 < x < 3e8
        block = log_factors(x - 10, x + 10, params)
        assert block == [log_factors(j, j + 1, params)[0] for j in range(x - 10, x + 10)]
        assert block == [log_g_increment(j, params) for j in range(x - 10, x + 10)]
        with mpmath.workdps(40):
            a = mpmath.mpf(2 * 100.0) / (100.0 + 2)
            c = mpmath.mpf(0.5)
            for j, value in zip(range(x - 10, x + 10), block):
                expected = float(mpmath.log((j + c) ** a - c ** a))
                assert value == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_empty_span(self):
        assert log_factors(7, 7, K15) == []

    def test_rejects_index_below_one(self):
        with pytest.raises(ValueError):
            log_factors(0, 5, K15)


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
        walk = LogTermWalk(1.0, params, anchor)
        for stop in stops:
            walk.extend_to(stop)
        lo, hi = walk.lo, walk.hi
        once = walk_to(lo, 1.0, params, anchor)
        once.extend_to(hi)
        assert walk.window(lo, hi) == once.window(lo, hi)
        scratch = 0.0
        for j in range(anchor + 1, hi + 1):
            scratch += log_g_increment(j, params)
            assert walk.r(j) == -scratch
        scratch = 0.0
        for j in range(anchor, lo, -1):
            scratch += log_g_increment(j, params)
            assert walk.r(j - 1) == scratch

    def test_monotone_once_increments_positive(self):
        # increments exceed 1 from small j on, so the cumulative sum grows
        values = [log_g(n, K15) for n in range(2, 40)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestLogTerm:
    def test_zeroth_term_is_unity(self):
        walk = LogTermWalk(3.7, K15)
        assert walk.window(0, walk.hi) == [0.0]
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
                assert walk.log_anchor + walk.r(n) == pytest.approx(closed_form, rel=1e-12)

    def test_iteration_replays_stored_terms_then_extends(self):
        walk = walk_to(7, 2.5, K15, anchor=5)
        walk.extend_to(3)
        up = []
        for n, r in walk.upward(5):
            up.append((n, r))
            if n == 9:
                break
        down = list(walk.downward(5))
        once = walk_to(9, 2.5, K15, anchor=5)
        once.extend_to(0)
        assert up == list(zip(range(6, 10), once.window(6, 9)))
        assert down == list(zip(range(4, -1, -1), once.window(0, 4)[::-1]))
        # The span grows by blocks, so it may reach past the last index read.
        assert walk.lo == 0 and walk.hi >= 9

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
