import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ghacs.stats
from ghacs.core import PotentialParams
from ghacs.lab import (SweepSpec, ThresholdEstimateError, collapse_onset,
                       estimate_threshold, run_sweep)
from ghacs.stats import TruncationPolicy, start_index, state_stats

K15 = PotentialParams(k=1.5, gamma=2.0)
TABLE_GRID = (2.5, 5.0, 7.5, 10.0, 12.5, 15.0)


class TestSweepSpec:
    def test_rejects_unordered_grid(self):
        with pytest.raises(ValueError):
            SweepSpec(k=1.5, gamma=2.0, z_grid=(1.0, 1.0), cutoffs=(50,))
        with pytest.raises(ValueError):
            SweepSpec(k=1.5, gamma=2.0, z_grid=(2.0, 1.0), cutoffs=(50,))

    @pytest.mark.parametrize("z", [math.nan, math.inf, -1.0])
    def test_rejects_amplitude_not_finite_and_nonnegative(self, z):
        with pytest.raises(ValueError):
            SweepSpec(k=1.5, gamma=2.0, z_grid=(z,), cutoffs=(50,))

    def test_rejects_unordered_cutoffs(self):
        with pytest.raises(ValueError):
            SweepSpec(k=1.5, gamma=2.0, z_grid=(1.0,), cutoffs=(100, 50))


class TestEstimateThreshold:
    def test_rejects_zero_amplitude(self):
        with pytest.raises(ValueError):
            estimate_threshold(0.0, K15, 1e-16)

    def test_tiny_amplitude_below_quiet_run(self):
        assert estimate_threshold(1e-6, K15, 1e-16) <= 10

    def test_nondecreasing_in_amplitude(self):
        grid = [0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0]
        thresholds = [estimate_threshold(z, K15, 1e-16) for z in grid]
        assert all(b >= a for a, b in zip(thresholds, thresholds[1:]))

    def test_exponent_sensitivity(self):
        # the threshold at a given amplitude grows steeply as k shrinks
        thresholds = {k: estimate_threshold(10.0, PotentialParams(k=k), 1e-8)
                      for k in (0.5, 1.5, 5.0)}
        assert thresholds[0.5] > thresholds[1.5] > thresholds[5.0]

    def test_hard_cap_raises(self):
        with pytest.raises(ThresholdEstimateError):
            estimate_threshold(10.0, K15, 1e-16, hard_cap=20)


@pytest.fixture(scope="module")
def table_report():
    spec = SweepSpec(k=1.5, gamma=2.0, z_grid=TABLE_GRID, cutoffs=(150,))
    return run_sweep(spec, TruncationPolicy.adaptive())


class TestRunSweep:
    def test_rows_in_grid_order(self, table_report):
        assert tuple(r.abs_z for r in table_report.rows) == TABLE_GRID

    def test_adaptive_rows_converged(self, table_report):
        assert not any(r.flagged for r in table_report.rows)

    def test_truncated_below_adaptive_beyond_threshold(self, table_report):
        for row in table_report.rows:
            if row.abs_z < 10.0:
                continue
            fixed = row.fixed_stats[150]
            adaptive = row.adaptive_stats
            assert fixed.mean < adaptive.mean
            assert fixed.variance < adaptive.variance
            assert fixed.mandel_q < adaptive.mandel_q

    def test_saturation_bound(self, table_report):
        for row in table_report.rows:
            assert row.fixed_stats[150].mean < 151.0

    def test_agreement_where_cutoff_exceeds_threshold(self, table_report):
        for row in table_report.rows:
            if row.threshold_estimate <= 150:
                diff = abs(row.fixed_stats[150].mandel_q - row.adaptive_stats.mandel_q)
                assert diff < 1e-6

    def test_harmonic_grid_all_poissonian(self):
        spec = SweepSpec(k=2.0, gamma=2.0, z_grid=(0.5, 2.0, 5.0), cutoffs=(200,))
        report = run_sweep(spec, TruncationPolicy.adaptive())
        for row in report.rows:
            assert abs(row.adaptive_stats.mandel_q) < 1e-10
            if row.threshold_estimate <= 200:
                assert abs(row.fixed_stats[200].mandel_q) < 1e-10

    def test_nonconverged_row_flagged_not_dropped(self):
        spec = SweepSpec(k=1.5, gamma=2.0, z_grid=(1.0, 10.0), cutoffs=())
        report = run_sweep(spec, TruncationPolicy.adaptive(hard_cap=20))
        assert len(report.rows) == 2
        assert report.rows[1].flagged

    def test_deterministic(self, table_report):
        spec = SweepSpec(k=1.5, gamma=2.0, z_grid=TABLE_GRID, cutoffs=(150,))
        again = run_sweep(spec, TruncationPolicy.adaptive())
        assert again == table_report


    @given(st.lists(st.floats(min_value=0.0, max_value=6.0), min_size=1, max_size=4, unique=True),
           st.lists(st.integers(min_value=1, max_value=250), max_size=3, unique=True),
           st.floats(min_value=0.8, max_value=10.0))
    @example(z_grid=[0.0, 0.5, 3.0], cutoffs=[1, 40, 300], k=1.5)
    @settings(max_examples=30, deadline=None)
    def test_shared_walk_equals_standalone_runs(self, z_grid, cutoffs, k):
        # |z| = 0 keeps one term under every policy; cutoffs above the
        # adaptive stopping index extend the shared walk past it.
        spec = SweepSpec(k=k, gamma=2.0, z_grid=sorted(z_grid), cutoffs=sorted(cutoffs))
        policy = TruncationPolicy.adaptive()
        for row in run_sweep(spec, policy).rows:
            assert row.adaptive_stats == state_stats(row.abs_z, spec.params, policy)
            for c in spec.cutoffs:
                assert row.fixed_stats[c] == state_stats(row.abs_z, spec.params,
                                                         TruncationPolicy.fixed(c))

    def test_one_walk_per_amplitude(self, monkeypatch):
        calls = []
        increment = ghacs.stats.log_g_increment

        def counted(j, params):
            calls.append(j)
            return increment(j, params)

        monkeypatch.setattr(ghacs.stats, "log_g_increment", counted)
        spec = SweepSpec(k=1.5, gamma=2.0, z_grid=(0.0, 2.5, 15.0), cutoffs=(50, 150, 400))
        policy = TruncationPolicy.adaptive()
        report = run_sweep(spec, policy)
        longest = [max(st_.sums.terms_used for st_ in (r.adaptive_stats, *r.fixed_stats.values()))
                   for r in report.rows]
        assert longest[0] == 1 and longest[1] == 401 and longest[2] > 401
        # One walk per start index (the peak, or a cutoff below it); each
        # spans the union of its windows, and each of its factor indices is
        # evaluated once: index j steps between terms j - 1 and j.
        spans = {}
        for row in report.rows:
            policies = [(policy, row.adaptive_stats)] + [
                (TruncationPolicy.fixed(c), row.fixed_stats[c]) for c in spec.cutoffs]
            for p, st_ in policies:
                key = (row.abs_z, start_index(row.abs_z, spec.params, p))
                lo, hi = spans.get(key, (st_.sums.first_index, st_.sums.terms_used - 1))
                spans[key] = (min(lo, st_.sums.first_index), max(hi, st_.sums.terms_used - 1))
        assert len(spans) == 1 + 1 + 4
        expected = [j for lo, hi in spans.values() for j in range(max(lo, 1), hi + 1)]
        assert sorted(calls) == sorted(expected)


class TestCollapseOnset:
    def test_onset_of_nmax_150(self, table_report):
        assert collapse_onset(table_report, 150, drop=0.5) == 10.0

    def test_no_onset_when_cutoff_ample(self):
        spec = SweepSpec(k=1.5, gamma=2.0, z_grid=TABLE_GRID, cutoffs=(700,))
        report = run_sweep(spec, TruncationPolicy.adaptive())
        assert collapse_onset(report, 700, drop=0.5) is None

    def test_no_onset_on_small_grid(self):
        spec = SweepSpec(k=1.5, gamma=2.0, z_grid=(0.5,), cutoffs=(150,))
        report = run_sweep(spec, TruncationPolicy.adaptive())
        assert collapse_onset(report, 150, drop=0.5) is None

    def test_unknown_cutoff_rejected(self, table_report):
        with pytest.raises(ValueError):
            collapse_onset(table_report, 999)

    def test_bad_drop_rejected(self, table_report):
        with pytest.raises(ValueError):
            collapse_onset(table_report, 150, drop=0.0)
