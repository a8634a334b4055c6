import contextlib
import io
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ghacs.core
import ghacs.lab
import ghacs.stats
from ghacs.cli import _z_grid, main
from ghacs.core import MAX_BLOCK, PotentialParams
from ghacs.lab import (SweepSpec, ThresholdEstimateError, collapse_onset,
                       estimate_threshold, run_sweep, sweep_row, sweep_rows)
from ghacs.stats import TruncationPolicy, state_stats

K15 = PotentialParams(k=1.5, gamma=2.0)
TABLE_GRID = (2.5, 5.0, 7.5, 10.0, 12.5, 15.0)


def clear_memos():
    ghacs.core.factor_block.cache_clear()
    ghacs.core.log_g.cache_clear()


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

    @pytest.mark.parametrize("k,gamma", [(0.0, 2.0), (1.5, -1.0), (math.nan, 2.0)])
    def test_rejects_physics_out_of_range(self, k, gamma):
        with pytest.raises(ValueError):
            SweepSpec(k=k, gamma=gamma, z_grid=(1.0,), cutoffs=(50,))

    def test_rejects_unordered_cutoffs(self):
        with pytest.raises(ValueError):
            SweepSpec(k=1.5, gamma=2.0, z_grid=(1.0,), cutoffs=(100, 50))

    @pytest.mark.parametrize("cutoffs", [(50.5,), (50, 100.0), (None,)])
    def test_rejects_cutoffs_that_are_not_integers(self, cutoffs):
        # 50.5 was accepted and failed deep in the walk, as a slice index.
        with pytest.raises(ValueError, match="^cutoffs must be an integer, got "):
            SweepSpec(k=1.5, gamma=2.0, z_grid=(1.0,), cutoffs=cutoffs)


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

    @pytest.mark.parametrize("policy", [
        TruncationPolicy.adaptive(), TruncationPolicy.adaptive(hard_cap=20)])
    def test_report_holds_the_rows_yielded(self, policy):
        # |z| = 0, converged and (at a cap of 20 terms) unconverged rows.
        spec = SweepSpec(k=1.5, gamma=2.0, z_grid=(0.0, 1.0, 2.5, 10.0), cutoffs=(3, 50, 150))
        rows = sweep_rows(spec, policy)
        assert iter(rows) is rows
        assert run_sweep(spec, policy).rows == tuple(rows)

    def test_deterministic(self, table_report):
        spec = SweepSpec(k=1.5, gamma=2.0, z_grid=TABLE_GRID, cutoffs=(150,))
        again = run_sweep(spec, TruncationPolicy.adaptive())
        assert again == table_report


    @given(st.lists(st.floats(min_value=0.0, max_value=6.0), min_size=1, max_size=4, unique=True),
           st.lists(st.integers(min_value=1, max_value=250), max_size=3, unique=True),
           st.floats(min_value=0.8, max_value=10.0),
           st.floats(min_value=-300.0, max_value=math.log10(0.5)),
           st.sampled_from([10, 50, 1000, 10 ** 6]))
    @example(z_grid=[0.0, 0.5, 3.0], cutoffs=[1, 40, 300], k=1.5, log_tol=-16.0, hard_cap=10 ** 6)
    @example(z_grid=[0.0, 1e300], cutoffs=[1, 40, 300], k=1.5, log_tol=-16.0, hard_cap=50)
    @example(z_grid=[0.1, 2.0, 4.5], cutoffs=[50, 100, 200, 300], k=1.5, log_tol=-16.0,
             hard_cap=10 ** 6)
    @example(z_grid=[0.1, 2.0, 4.5], cutoffs=[50, 100, 200, 300], k=1.5, log_tol=-8.0,
             hard_cap=1000)
    @settings(max_examples=30, deadline=None)
    def test_shared_walk_equals_standalone_runs(self, z_grid, cutoffs, k, log_tol, hard_cap):
        # |z| = 0 keeps one term under every policy; cutoffs past the end of
        # the adaptive walk take its certified reduction, or extend the
        # shared walk where the certificate fails (at |z| = 0.1, 2 and 4.5
        # it holds), and where the adaptive tolerance or cap differs from
        # the cutoffs' defaults, two head stops share that walk.  At
        # |z| = 1e300 the peak lies beyond 2^52.  Once with the factor-block
        # and ln g memos cleared before every run, so that each result is
        # computed afresh, and once with them left warm.
        spec = SweepSpec(k=k, gamma=2.0, z_grid=sorted(z_grid), cutoffs=sorted(cutoffs))
        policy = TruncationPolicy.adaptive(tail_tolerance=10.0 ** log_tol, hard_cap=hard_cap)
        for fresh in (clear_memos, lambda: None):
            fresh()
            for row in run_sweep(spec, policy).rows:
                fresh()
                assert row.adaptive_stats == state_stats(row.abs_z, spec.params, policy)
                for c in spec.cutoffs:
                    fresh()
                    assert row.fixed_stats[c] == state_stats(row.abs_z, spec.params,
                                                             TruncationPolicy.fixed(c))

    def test_one_walk_per_amplitude(self, walks_made, factor_reads):
        spec = SweepSpec(k=1.5, gamma=2.0, z_grid=(0.0, 2.5, 15.0), cutoffs=(50, 150, 400))
        policy = TruncationPolicy.adaptive()
        report = run_sweep(spec, policy)
        longest = [max(st_.sums.terms_used for st_ in (r.adaptive_stats, *r.fixed_stats.values()))
                   for r in report.rows]
        assert longest[0] == 1 and longest[1] == 401 and longest[2] > 401
        # One walk per start index (the peak, or a cutoff below it), and each
        # spans every window read from it, but a fixed window served by a
        # certified reduction of the peak's walk, which ends past the span.
        spans = {(w.abs_z, w.anchor): (w.lo, w.hi) for w in walks_made}
        assert len(spans) == len(walks_made) == 1 + 1 + 4
        served = []
        for row in report.rows:
            policies = [(policy, row.adaptive_stats)] + [
                (TruncationPolicy.fixed(c), row.fixed_stats[c]) for c in spec.cutoffs]
            peak = ghacs.stats._peak_index(row.abs_z, spec.params) if row.abs_z else 0
            for p, st_ in policies:
                lo, hi = spans[row.abs_z, ghacs.stats._start_index(peak, p)]
                assert lo <= st_.sums.first_index
                if st_.sums.terms_used - 1 > hi:
                    served.append((row.abs_z, p.n_max, hi))
        assert [(z, c) for z, c, _ in served] == [(2.5, 150), (2.5, 400)]
        # Each walk evaluates each factor index of its span once: index j
        # steps between terms j - 1 and j.  The tail bound reads the factor
        # past the span it certifies, once.
        expected = [j for lo, hi in spans.values() for j in range(lo + 1, hi + 1)]
        assert sorted(factor_reads.indices) == sorted(expected + [served[0][2] + 1])
        # A served window's sums are those of the window that ends with the
        # span, as a standalone run gives them.
        for z, c, hi in served:
            alone = state_stats(z, spec.params, TruncationPolicy.fixed(hi)).sums
            assert report.rows[1].fixed_stats[c].sums == alone._replace(terms_used=c + 1)

    def test_sweep_row_reads_cutoffs_from_any_iterable(self):
        row = sweep_row(7.5, K15, TruncationPolicy.adaptive(), iter([50, 400]))
        assert row == sweep_row(7.5, K15, TruncationPolicy.adaptive(), (50, 400))
        assert list(row.fixed_stats) == [50, 400]

    def test_peak_found_once_per_amplitude(self, monkeypatch):
        # The reference sweep: 150 amplitudes, each with the adaptive rule
        # and four cutoffs, which found the peak 759 times when each policy
        # looked for its own.
        calls, peak_index = [], ghacs.stats._peak_index

        def counted(abs_z, params):
            calls.append(abs_z)
            return peak_index(abs_z, params)

        monkeypatch.setattr(ghacs.stats, "_peak_index", counted)
        spec = SweepSpec(k=1.5, gamma=2.0, z_grid=_z_grid(0.1, 15.0, 0.1),
                         cutoffs=(50, 100, 200, 300))
        run_sweep(spec, TruncationPolicy.adaptive())
        assert calls == list(spec.z_grid) and len(calls) == 150

    def test_cutoffs_past_a_certified_tail_share_one_reduction(self, monkeypatch, walks_made):
        # Walking each fixed window of the reference sweep to its cutoff
        # takes 750 reductions, over walks of 72,636 terms.  A cutoff past
        # the end of the adaptive walk takes the reduction its tail bound
        # certified instead, without walking further.
        reductions, reduce_ = [], ghacs.stats._reduce

        def counted(*args, **kwargs):
            reductions.append(reduce_(*args, **kwargs))
            return reductions[-1]

        monkeypatch.setattr(ghacs.stats, "_reduce", counted)
        spec = SweepSpec(k=1.5, gamma=2.0, z_grid=_z_grid(0.1, 15.0, 0.1),
                         cutoffs=(50, 100, 200, 300))
        report = run_sweep(spec, TruncationPolicy.adaptive())
        ends = {(w.abs_z, w.anchor): w.hi for w in walks_made}
        served = [c for row in report.rows for c, st_ in row.fixed_stats.items()
                  if st_.sums.terms_used - 1 > ends[row.abs_z, st_.sums.origin]]
        assert None not in reductions  # every certificate held
        assert len(reductions) < 750 and len(served) >= 150
        assert sum(w.hi - w.lo + 1 for w in walks_made) < 72636


class TestSweepReuse:
    """One sweep evaluates each factor block, head stop and anchor once."""

    def test_shared_work_evaluated_once(self, monkeypatch, walks_made):
        blocks, heads = [], []
        kernel, stop_head = ghacs.core._factors, ghacs.stats._stop_head

        def recorded_kernel(lo, hi, params):
            blocks.append((lo, hi, params))
            return kernel(lo, hi, params)

        def recorded_head(walk, log_tol, cap):
            heads.append((walk, log_tol, cap))
            return stop_head(walk, log_tol, cap)

        monkeypatch.setattr(ghacs.core, "_factors", recorded_kernel)
        monkeypatch.setattr(ghacs.stats, "_stop_head", recorded_head)
        clear_memos()
        spec = SweepSpec(k=1.5, gamma=2.0, z_grid=(0.0, 2.5, 5.0, 10.0, 12.0, 12.1, 15.0),
                         cutoffs=(50, 150, 400))
        run_sweep(spec, TruncationPolicy.adaptive())
        # Factors by aligned blocks, each once, fewer than the walks hold.
        assert len(set(blocks)) == len(blocks)
        assert all((lo - 1) % MAX_BLOCK == 0 and hi - lo == MAX_BLOCK for lo, hi, _ in blocks)
        assert len(blocks) * MAX_BLOCK < sum(w.hi - w.lo for w in walks_made)
        # One head stop per walk: at the default tolerance and cap the
        # adaptive rule and every cutoff above the peak share it.  |z| = 0
        # has no head to stop.
        assert len(set(heads)) == len(heads) == sum(1 for w in walks_made if w.abs_z > 0.0)
        assert len(heads) < (len(spec.z_grid) - 1) * (1 + len(spec.cutoffs))
        # ln g once per distinct anchor, though cutoffs below the peak
        # anchor at the same index at every amplitude above it.
        anchors = [w.anchor for w in walks_made if w.anchor]
        assert ghacs.core.log_g.cache_info().misses == len(set(anchors)) < len(anchors)

    def test_memos_stay_within_their_bound(self):
        clear_memos()
        with contextlib.redirect_stdout(io.StringIO()):
            # dist walks its window, where stats reads a lattice of terms.
            assert main(["dist", "--k", "0.5", "--z", "15", "--format", "csv"]) == 0
        for memo in (ghacs.core.factor_block, ghacs.core.log_g):
            info = memo.cache_info()
            assert info.maxsize == ghacs.core._MEMO_SIZE and info.currsize <= info.maxsize
        # The walk ran through far more blocks than are kept.
        assert ghacs.core.factor_block.cache_info().misses > 5 * ghacs.core._MEMO_SIZE


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

    @pytest.mark.parametrize("drop", [math.nan, math.inf])
    def test_drop_not_positive_and_finite_rejected(self, table_report, drop):
        # A NaN drop compared False with every Q and returned None.
        with pytest.raises(ValueError, match=f"^drop must be a positive finite number, got {drop}"):
            collapse_onset(table_report, 150, drop=drop)
