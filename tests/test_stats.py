import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghacs.stats
from ghacs.core import PotentialParams
from ghacs.stats import (DEFAULT_POLICY, LogSeriesSums, LogTermWalk, TruncationPolicy,
                         VarianceConsistencyError, accumulate_sums, start_index,
                         state_stats, stats_from_sums, walk_sums, weight_distribution)

from oracle import direct_log_sums, direct_stats, direct_weights

K15 = PotentialParams(k=1.5, gamma=2.0)
ADAPTIVE = TruncationPolicy.adaptive()

# 60-digit direct summation at z=5, k=1.5, gamma=2, n_max=200 (oracle.py).
ORACLE_LOG_SUMS_Z5 = (38.377429848722890, 42.148685839618742, 45.946129665911731)
# 40-digit mpmath moments over terms 0..776287 at k=0.5, gamma=2, |z|=15:
# oracle.direct_stats(15, 0.5, 2.0, 776287, dps=40), about 40 s.
DEEP_TAIL_MEAN_Z15 = 765785.83938257258882
DEEP_TAIL_Q_Z15 = 1.49160681816661


class TestTruncationPolicy:
    def test_fixed_requires_nmax(self):
        with pytest.raises(ValueError):
            TruncationPolicy(n_max=0)
        with pytest.raises(ValueError):
            TruncationPolicy.fixed(0)

    def test_a_policy_without_a_cutoff_is_adaptive(self):
        assert TruncationPolicy() == TruncationPolicy.adaptive()
        assert TruncationPolicy.adaptive().n_max is None

    def test_adaptive_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy.adaptive(tail_tolerance=0.0)
        with pytest.raises(ValueError):
            TruncationPolicy.adaptive(tail_tolerance=1.5)
        with pytest.raises(ValueError):
            TruncationPolicy.adaptive(quiet_run=0)
        with pytest.raises(ValueError):
            TruncationPolicy.adaptive(quiet_run=50, hard_cap=10)

    def test_fixed_mode_validates_the_head_tolerance(self):
        # A fixed cutoff drops its head at tail_tolerance too.
        with pytest.raises(ValueError):
            TruncationPolicy(n_max=5, tail_tolerance=2.0)
        assert TruncationPolicy.fixed(5).tail_tolerance == DEFAULT_POLICY.tail_tolerance


class TestAccumulateSums:
    def test_zero_amplitude(self):
        sums = accumulate_sums(0.0, K15, ADAPTIVE)
        assert sums.log_s0 == 0.0
        assert sums.log_s1 == -math.inf
        assert sums.log_s2 == -math.inf
        assert sums.terms_used == 1
        assert sums.converged

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            accumulate_sums(-1.0, K15, ADAPTIVE)

    @pytest.mark.parametrize("z", [math.nan, math.inf])
    def test_non_finite_amplitude_rejected(self, z):
        with pytest.raises(ValueError):
            accumulate_sums(z, K15, ADAPTIVE)

    def test_huge_amplitude_reaches_hard_cap_without_overflow(self):
        # Every term dwarfs the running sum, so the significance test must
        # decide in the log domain instead of overflowing exp().
        sums = accumulate_sums(1e300, K15, TruncationPolicy.adaptive(hard_cap=50))
        assert not sums.converged
        assert sums.terms_used == 50

    def test_fixed_mode_includes_nmax(self):
        sums = accumulate_sums(1.0, K15, TruncationPolicy.fixed(5))
        assert sums.terms_used == 6
        assert not sums.converged
        assert sums.estimated_threshold is None

    def test_hard_cap_yields_explicit_nonconvergence(self):
        # The cap bounds the terms evaluated around the peak, not the index.
        policy = TruncationPolicy.adaptive(quiet_run=10, hard_cap=20)
        sums = accumulate_sums(10.0, K15, policy)
        assert not sums.converged
        assert sums.estimated_threshold is None
        assert sums.terms_used - sums.first_index <= policy.hard_cap

    def test_hard_cap_counts_terms_evaluated_in_the_deep_tail(self):
        # The peak sits near n = 1150; the cap stops the walk 100 terms into it.
        policy = TruncationPolicy.adaptive(hard_cap=100)
        sums = accumulate_sums(4.0, PotentialParams(k=0.5), policy)
        assert not sums.converged
        assert sums.terms_used - sums.first_index <= 100
        assert sums.terms_used > 1000

    def test_hard_cap_bounds_the_factors_evaluated(self, monkeypatch):
        # The walk evaluates factors by blocks, clamped where the cap fires:
        # from the peak at n = 1149 down to n = 1050, where the window would
        # reach 100 terms, i.e. factors 1051..1149 and not one more.
        covered = []
        factors = ghacs.stats.log_factors

        def recorded(lo, hi, params):
            covered.extend(range(lo, hi))
            return factors(lo, hi, params)

        monkeypatch.setattr(ghacs.stats, "log_factors", recorded)
        sums = accumulate_sums(4.0, PotentialParams(k=0.5), TruncationPolicy.adaptive(hard_cap=100))
        assert (sums.origin, sums.first_index, sums.converged) == (1149, 1051, False)
        assert sorted(covered) == list(range(1051, 1150))

    def test_deep_tail_matches_frozen_oracle(self):
        sums = accumulate_sums(15.0, PotentialParams(k=0.5), ADAPTIVE)
        st_ = stats_from_sums(sums)
        assert sums.converged
        assert (sums.terms_used, sums.estimated_threshold) == (776288, 776278)
        assert st_.mean == pytest.approx(DEEP_TAIL_MEAN_Z15, rel=1e-13)
        assert st_.mandel_q == pytest.approx(DEEP_TAIL_Q_Z15, abs=1e-12)

    def test_matches_oracle_frozen(self):
        sums = accumulate_sums(5.0, K15, TruncationPolicy.fixed(200))
        for got, want in zip((sums.log_s0, sums.log_s1, sums.log_s2),
                             ORACLE_LOG_SUMS_Z5):
            assert abs(got - want) < 1e-10

    @pytest.mark.parametrize("k,z", [(1.5, 1.0), (2.0, 3.0), (5.0, 5.0)])
    def test_matches_oracle_live(self, k, z):
        params = PotentialParams(k=k, gamma=2.0)
        sums = accumulate_sums(z, params, TruncationPolicy.fixed(200))
        for got, want in zip((sums.log_s0, sums.log_s1, sums.log_s2),
                             direct_log_sums(z, k, 2.0, 200)):
            assert abs(got - want) < 1e-10

    @given(st.floats(min_value=0.1, max_value=8.0),
           st.floats(min_value=0.3, max_value=20.0),
           st.floats(min_value=0.2, max_value=8.0))
    @settings(max_examples=60, deadline=None)
    def test_cauchy_schwarz(self, z, k, gamma):
        params = PotentialParams(k=k, gamma=gamma)
        sums = accumulate_sums(z, params, TruncationPolicy.fixed(80))
        assert sums.log_s2 + sums.log_s0 >= 2 * sums.log_s1 - 1e-12

    def test_deterministic(self):
        a = accumulate_sums(7.5, K15, ADAPTIVE)
        b = accumulate_sums(7.5, K15, ADAPTIVE)
        assert a == b

    def test_fixed_cutoff_below_the_anchor_rejected(self):
        # The window grows out of the anchor; a cutoff below it has no head to measure.
        with pytest.raises(ValueError, match="anchor"):
            walk_sums(LogTermWalk(7.5, K15, 40), TruncationPolicy.fixed(5))

    def test_fixed_window_of_exactly_hard_cap_terms(self):
        # At k = 1.5, |z| = 5 the head closes at n = 0, so n_max = 99 sums
        # 100 terms and n_max = 100 one more.
        policy = TruncationPolicy(n_max=99, hard_cap=100)
        sums = accumulate_sums(5.0, K15, policy)
        assert (sums.first_index, sums.terms_used) == (0, 100)
        walk = LogTermWalk(5.0, K15, start_index(5.0, K15, TruncationPolicy.fixed(100)))
        with pytest.raises(ValueError, match="hard_cap"):
            walk_sums(walk, TruncationPolicy(n_max=100, hard_cap=100))
        # Refused before the walk is extended to the cutoff.
        assert walk.hi < 100

    def test_fixed_window_whose_head_stays_open_rejected(self):
        # At k = 0.5, |z| = 4 the peak sits near n = 1150, and the head
        # below it does not close within 100 terms.
        params = PotentialParams(k=0.5)
        policy = TruncationPolicy(n_max=1200, hard_cap=100)
        walk = LogTermWalk(4.0, params, start_index(4.0, params, policy))
        with pytest.raises(ValueError, match="hard_cap"):
            walk_sums(walk, policy)
        assert walk.hi < 1200

    def test_fixed_cutoff_at_the_anchor(self):
        walk = LogTermWalk(7.5, K15, 40)
        assert walk_sums(walk, TruncationPolicy.fixed(40)) == accumulate_sums(
            7.5, K15, TruncationPolicy.fixed(40))

    @pytest.mark.parametrize("k", [0.5, 1.5, 10.0])
    def test_largest_gamma_matches_oracle(self, k):
        # gamma = 1e6 is the largest accepted; the oracle sums 200 terms past the window.
        st_ = state_stats(1.0, PotentialParams(k=k, gamma=1e6), ADAPTIVE)
        mean, _, q = direct_stats(1.0, k, 1e6, st_.sums.terms_used + 200, dps=40)
        assert st_.sums.converged
        assert st_.mean == pytest.approx(mean, rel=1e-10)
        assert st_.mandel_q == pytest.approx(q, abs=1e-10)


class TestStateStats:
    def test_zero_amplitude_q_undefined(self):
        st_ = state_stats(0.0, K15, ADAPTIVE)
        assert st_.mean == 0.0
        assert st_.variance == 0.0
        assert st_.mandel_q is None
        assert st_.normalization == 1.0

    def test_harmonic_is_poissonian(self):
        st_ = state_stats(3.7, PotentialParams(k=2.0, gamma=1.7), ADAPTIVE)
        assert st_.mean == pytest.approx(3.7 ** 2, rel=1e-10)
        assert abs(st_.mandel_q) < 1e-10

    def test_moments_match_oracle(self):
        mean, var, q = direct_stats(2.5, 1.5, 2.0, 300)
        st_ = state_stats(2.5, K15, ADAPTIVE)
        assert st_.mean == pytest.approx(mean, rel=1e-12)
        assert st_.variance == pytest.approx(var, rel=1e-10)
        assert st_.mandel_q == pytest.approx(q, rel=1e-9)

    def test_truncated_collapse_toward_minus_one(self):
        st_ = state_stats(12.5, K15, TruncationPolicy.fixed(150))
        assert st_.mandel_q == pytest.approx(-0.98950, abs=1e-4)

    def test_normalization_is_inverse_sqrt_s0(self):
        st_ = state_stats(2.0, K15, ADAPTIVE)
        assert st_.normalization == pytest.approx(math.exp(-0.5 * st_.sums.log_s0))
        assert 0.0 < st_.normalization <= 1.0

    @given(st.floats(min_value=0.01, max_value=12.0),
           st.floats(min_value=0.8, max_value=30.0))
    @settings(max_examples=40, deadline=None)
    def test_q_above_minus_one_when_converged(self, z, k):
        st_ = state_stats(z, PotentialParams(k=k), ADAPTIVE)
        assert st_.sums.converged
        assert st_.mandel_q > -1.0

    def test_monotone_convergence_of_cutoffs(self):
        adaptive = state_stats(5.0, K15, ADAPTIVE)
        threshold = adaptive.sums.estimated_threshold
        for m in (threshold, threshold + 25):
            fixed = state_stats(5.0, K15, TruncationPolicy.fixed(m))
            assert abs(fixed.mandel_q - adaptive.mandel_q) < 1e-9

    def test_variance_clamped_within_floor(self):
        # second moment a hair below m1^2: a rounding-scale deficit clamps to
        # 0, at any scale of the moments
        for m1 in (1.0, 1e6):
            sums = LogSeriesSums(log_s0=0.0, origin=0, m1=m1, m2=m1 * m1 * (1 - 1e-13),
                                 terms_used=3, converged=False)
            assert stats_from_sums(sums).variance == 0.0

    def test_variance_error_below_floor(self):
        for m1 in (1.0, 1e6):
            sums = LogSeriesSums(log_s0=0.0, origin=0, m1=m1, m2=0.9 * m1 * m1,
                                 terms_used=3, converged=False)
            with pytest.raises(VarianceConsistencyError):
                stats_from_sums(sums)


class TestWeightDistribution:
    def test_zero_amplitude(self):
        wd = weight_distribution(0.0, K15, ADAPTIVE)
        assert wd.support_bound == 0
        assert wd.weights() == [1.0]
        assert wd.weight(5) == 0.0

    def test_harmonic_is_poisson(self):
        wd = weight_distribution(1.0, PotentialParams(k=2.0), ADAPTIVE)
        e1 = math.exp(-1.0)
        assert wd.weight(0) == pytest.approx(e1, abs=1e-12)
        assert wd.weight(1) == pytest.approx(e1, abs=1e-12)
        assert wd.weight(2) == pytest.approx(e1 / 2, abs=1e-12)

    def test_normalized_when_converged(self):
        for z in (0.5, 2.5, 7.5):
            wd = weight_distribution(z, K15, ADAPTIVE)
            assert math.fsum(wd.weights()) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("policy", [ADAPTIVE, TruncationPolicy.fixed(40),
                                        TruncationPolicy.adaptive(hard_cap=20)])
    def test_carries_the_sums_of_its_walk(self, policy):
        wd = weight_distribution(7.5, K15, policy)
        assert wd.sums == accumulate_sums(7.5, K15, policy)
        assert wd.support_bound == wd.sums.terms_used - 1

    def test_every_weight_in_unit_interval(self):
        wd = weight_distribution(5.0, K15, ADAPTIVE)
        assert all(0.0 <= w <= 1.0 for w in wd.weights())

    def test_matches_oracle(self):
        wd = weight_distribution(2.5, K15, TruncationPolicy.fixed(100))
        expected = direct_weights(2.5, 1.5, 2.0, 100)
        for got, want in zip(wd.weights(), expected):
            assert got == pytest.approx(want, abs=1e-12)

    def test_moments_consistent_with_stats(self):
        z = 2.5
        wd = weight_distribution(z, K15, ADAPTIVE)
        st_ = state_stats(z, K15, ADAPTIVE)
        weights = wd.weights()
        mean = math.fsum(n * w for n, w in enumerate(weights))
        second = math.fsum(n * n * w for n, w in enumerate(weights))
        assert mean == pytest.approx(st_.mean, rel=1e-10)
        assert second - mean ** 2 == pytest.approx(st_.variance, rel=1e-8)

