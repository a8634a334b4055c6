import math
import operator
import sys

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import ghacs.core
import ghacs.stats
from ghacs.core import MAX_BLOCK, PotentialParams, log_sum_exp
from ghacs.lab import SweepSpec, run_sweep
from ghacs.stats import (DEFAULT_POLICY, LogSeriesSums, LogTermWalk, TruncationPolicy,
                         VarianceConsistencyError, accumulate_sums, policy_sums,
                         state_stats, stats_from_sums, weight_distribution)

from oracle import direct_log_sums, direct_stats, direct_weights

K15 = PotentialParams(k=1.5, gamma=2.0)
ADAPTIVE = TruncationPolicy.adaptive()

# 60-digit direct summation at z=5, k=1.5, gamma=2, n_max=200 (oracle.py).
ORACLE_LOG_SUMS_Z5 = (38.377429848722890, 42.148685839618742, 45.946129665911731)
# 40-digit mpmath moments of the whole series at k=0.5, gamma=2, |z|=15,
# summed over terms 0..800000 (the adaptive window ends at 776287; the terms
# past 800000 move neither value in 40 digits), from the repository root:
#   python -c "import sys; sys.path.insert(0, 'tests'); import oracle;
#              print(oracle.direct_stats(15, 0.5, 2.0, 800000, dps=40))"
# about 40 s.
DEEP_TAIL_MEAN_Z15 = 765785.83938257276547
DEEP_TAIL_Q_Z15 = 1.4916068181690362638
# (k, |z|, Q) of the whole series at gamma=2, in 40-digit mpmath summed
# outward from the peak; bench/checks.peak_window_stats(|z|, k, 2.0, None)
# sums them the same way in 30 digits and gives the same doubles.
CONVERGED_Q = [(0.5, 8.0, 1.4707252084859065534), (0.5, 20.0, 1.4952721504828614904),
               (0.5, 30.0, 1.4978965837393712751), (1.0, 40.0, 0.49941550188184114747)]


def start_of(abs_z, params, policy):
    """The index a walk for ``policy`` starts at: the largest term of its range."""
    peak = ghacs.stats._peak_index(abs_z, params) if abs_z > 0.0 else 0
    return ghacs.stats._start_index(peak, policy)


def log_weights(ws):
    """ln w for each weight, -inf for a weight that underflowed to 0.0."""
    return [math.log(w) if w else -math.inf for w in ws]


def outward(walk, last):
    """(n, ln w(n)) for n from the anchor outward to ``last``, the anchor left
    out, one term at a time: upward when ``last`` lies above the anchor, else
    downward.  The walk grows one aligned block at a time, to the block's
    edge or to ``last``, as the stopping rules grow it."""
    n = walk.anchor
    while n < last:
        walk.extend_to(min(last, (n // MAX_BLOCK + 1) * MAX_BLOCK))
        hi = min(last, walk.hi)
        yield from enumerate(log_weights(walk.window(n + 1, hi)), n + 1)
        n = hi
    while n > last:
        walk.extend_to(max(last, (n - 1) // MAX_BLOCK * MAX_BLOCK))
        lo = max(last, walk.lo)
        yield from zip(range(n - 1, lo - 1, -1), reversed(log_weights(walk.window(lo, n - 1))))
        n = lo


def reference_stop_head(walk, log_tol, cap):
    """The head rule on logarithms, term by term, as it stood before the rules
    moved to weights and the head rule to one test per block.  A head that
    reaches ``cap`` terms above n = 0 stays open."""
    start = lo = walk.anchor
    r_max = 0.0  # ln w(anchor)
    log = math.log
    for n, r in outward(walk, max(0, start + 1 - cap)):
        if log(n + 1) + r < log_tol + r_max:
            return lo, True
        lo = n
        if r > r_max:
            r_max = r
    return lo, lo == 0


def reference_stop_adaptive(walk, lo, policy):
    """The adaptive rule on a running ln S2, as it stood before the rules moved to weights."""
    tol, quiet_run, hard_cap = policy.tail_tolerance, policy.quiet_run, policy.hard_cap
    log, exp, log1p = math.log, math.exp, math.log1p
    running_log_s2 = log_sum_exp(r + 2.0 * log(n) if n else -math.inf for n, r in enumerate(
        log_weights(walk.window(lo, walk.anchor)), lo))
    quiet = 0
    threshold = None
    for n, r in outward(walk, lo + hard_cap - 1):
        lt2 = r + 2.0 * log(n)
        if lt2 == running_log_s2 == -math.inf:
            # A term that underflows to 0 against a sum still 0 is quiet,
            # and leaves the sum 0.
            significant = False
        else:
            # The log-domain comparison decides first: exp of the difference
            # overflows once a term dwarfs the running sum (|z| near 1e300).
            significant = lt2 >= running_log_s2 or exp(lt2 - running_log_s2) >= tol
            if lt2 > running_log_s2:
                running_log_s2 = lt2 + log1p(exp(running_log_s2 - lt2))
            else:
                running_log_s2 += log1p(exp(lt2 - running_log_s2))
        if math.isnan(running_log_s2):
            raise ArithmeticError(f"the running ln S2 turned NaN at n = {n}")
        if significant:
            quiet = 0
            threshold = None
        else:
            if quiet == 0:
                threshold = n
            quiet += 1
            if quiet >= quiet_run:
                return n, True, threshold
        if n + 1 - lo >= hard_cap:
            return n, False, None
    # A cap of one term leaves nothing above the anchor to read.
    return lo + hard_cap - 1, False, None


def reference_window(abs_z, params, policy):
    """(first_index, terms_used, converged, estimated_threshold) of an adaptive
    run at |z| > 0 under the log-domain rules, on a walk of its own.

    An open head, or a peak beyond 2^52, ends the run at the anchor."""
    walk = LogTermWalk(abs_z, params, start_of(abs_z, params, policy))
    lo, closed = reference_stop_head(walk, math.log(policy.tail_tolerance), policy.hard_cap)
    if not closed or ghacs.stats._peak_index(abs_z, params) is None:
        return lo, walk.anchor + 1, False, None
    hi, converged, threshold = reference_stop_adaptive(walk, lo, policy)
    return lo, hi + 1, converged, threshold


def reference_weights(abs_z, params, policy):
    """w_n / s for n = 0 .. N, s the sum over the summed window, off a walk
    extended all the way down to n = 0."""
    walk, sums = next(ghacs.stats._walks(abs_z, params, (policy,)))
    mass = math.fsum(walk.window(sums.first_index, sums.terms_used - 1))
    walk.extend_to(0)
    return [w / mass for w in walk.window(0, sums.terms_used - 1)]


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

    @pytest.mark.parametrize("tol", [5e-324, 1e-310, math.nextafter(sys.float_info.min, 0.0)])
    def test_subnormal_tolerance_rejected(self, tol):
        # Below the smallest normal double, tail_tolerance times a weight
        # loses its digits and the head rule's bound no longer holds.
        with pytest.raises(ValueError, match=f"tail_tolerance = {tol!r} is subnormal.*"
                                             f"{sys.float_info.min!r}"):
            TruncationPolicy.adaptive(tail_tolerance=tol)

    def test_smallest_normal_tolerance_accepted(self):
        tol = sys.float_info.min
        assert TruncationPolicy.adaptive(tail_tolerance=tol).tail_tolerance == tol

    @pytest.mark.parametrize("field,value", [("n_max", 50.5), ("n_max", 50.0),
                                             ("quiet_run", 2.0), ("hard_cap", math.inf),
                                             ("hard_cap", 1e6)])
    def test_counts_must_be_integers(self, field, value):
        # A float count was accepted and failed deep in the walk (a slice
        # index), or, as an infinite hard cap, removed the cap.
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            TruncationPolicy(**{field: value})

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
        # The peak lies beyond 2^52 and the terms rise all the way to it, so
        # the walk starts at the top of the cap, n = 49, and ends there.
        sums = accumulate_sums(1e300, K15, TruncationPolicy.adaptive(hard_cap=50))
        assert not sums.converged
        assert sums.terms_used == 50
        # Each term below n = 49 weighs less than e^-1300 of the next: the
        # head closes at once, and a rule that read the terms above the
        # anchor as quiet at this loose a tolerance would report convergence.
        sums = accumulate_sums(1e300, K15, TruncationPolicy.adaptive(
            tail_tolerance=0.9, quiet_run=1, hard_cap=50))
        assert (sums.first_index, sums.terms_used, sums.converged) == (49, 50, False)
        assert sums.estimated_threshold is None

    def test_term_that_underflows_against_a_zero_sum_is_quiet(self):
        # t_1 / t_0 underflows to 0 below |z| of about 1e-162, and the m = 2
        # sum over the window 0..0 is 0: n = 1 opens the quiet run, in the
        # log-domain reference too, ln 0 against ln 0.
        sums = accumulate_sums(1e-200, K15, ADAPTIVE)
        assert (sums.terms_used, sums.estimated_threshold, sums.converged) == (11, 1, True)
        assert stats_from_sums(sums).mean == 0.0
        assert reference_window(1e-200, K15, ADAPTIVE) == (0, 11, True, 1)

    @given(z=st.floats(min_value=1e-3, max_value=40.0),
           k=st.floats(min_value=0.1, max_value=100.0),
           gamma=st.floats(min_value=0.1, max_value=10.0),
           log_tol=st.floats(min_value=-300.0, max_value=math.log10(0.99)),
           quiet_run=st.integers(min_value=1, max_value=20),
           hard_cap=st.sampled_from([1, 2, 3, 50, 64, 65, 1000, 10 ** 6]))
    # k = 2 puts the anchor at 63 and 64, next to and on a block edge; at
    # |z| = 2.5 the anchor is 8, so a cap of 9 ends the head at n = 1 and a
    # cap of 10 reaches n = 0.
    @example(z=8.0, k=2.0, gamma=2.0, log_tol=-16.0, quiet_run=10, hard_cap=10 ** 6)
    @example(z=math.sqrt(65.0), k=2.0, gamma=2.0, log_tol=-16.0, quiet_run=10, hard_cap=10 ** 6)
    @example(z=math.sqrt(65.0), k=2.0, gamma=2.0, log_tol=-16.0, quiet_run=10, hard_cap=65)
    @example(z=2.5, k=1.5, gamma=2.0, log_tol=-16.0, quiet_run=1, hard_cap=9)
    @example(z=2.5, k=1.5, gamma=2.0, log_tol=-16.0, quiet_run=1, hard_cap=10)
    @example(z=1.5, k=1.5, gamma=2.0, log_tol=math.log10(0.99), quiet_run=1, hard_cap=1000)
    @settings(max_examples=60, deadline=None)
    def test_linear_rules_match_the_log_domain_reference(self, z, k, gamma, log_tol,
                                                         quiet_run, hard_cap):
        params = PotentialParams(k=k, gamma=gamma)
        policy = TruncationPolicy.adaptive(tail_tolerance=10.0 ** log_tol,
                                           quiet_run=min(quiet_run, hard_cap),
                                           hard_cap=hard_cap)
        sums = accumulate_sums(z, params, policy)
        assert (sums.first_index, sums.terms_used, sums.converged,
                sums.estimated_threshold) == reference_window(z, params, policy)

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

    def test_hard_cap_bounds_the_factors_evaluated(self, factor_reads):
        # The walk reads factors by aligned blocks, clamped where the cap
        # fires: from the peak at n = 1149 down to n = 1050, where the window
        # holds 100 terms, i.e. factors 1051..1149 and not one more, from the
        # two blocks that hold them (1089..1152, then 1025..1088).
        sums = accumulate_sums(4.0, PotentialParams(k=0.5), TruncationPolicy.adaptive(hard_cap=100))
        assert (sums.origin, sums.first_index, sums.converged) == (1149, 1050, False)
        assert sorted(factor_reads.indices) == list(range(1051, 1150))
        assert factor_reads.blocks == [17, 16]

    def test_one_lookup_per_block_and_side(self, walks_made, factor_reads):
        # Each side of the walk grows a whole aligned block at a time, so the
        # memo sees one lookup per block it spans on that side, and one more
        # for the 64 factors ln g of the anchor sums directly: 383 here,
        # where growth by unaligned spans made 765.  The distribution's sums
        # walk the window that ``accumulate_sums`` reads off a lattice.
        ghacs.core.factor_block.cache_clear()
        ghacs.core.log_g.cache_clear()
        weight_distribution(15.0, PotentialParams(k=0.5), ADAPTIVE)
        (walk,) = walks_made
        assert factor_reads.blocks == factor_reads.spanned(walk)
        info = ghacs.core.factor_block.cache_info()
        assert info.hits + info.misses == len(factor_reads.blocks) + 1 == 383

    @pytest.mark.parametrize("z,k", [(1e300, 1.5), (30.0, 0.1)])
    def test_peak_past_2_52_reads_one_block(self, walks_made, factor_reads, z, k):
        # The walk starts at the top of the default cap, n = 999,999, and its
        # head closes within the block that holds it.  Started at n = 0, it
        # walked the cap and read all 15,625 blocks.
        sums = accumulate_sums(z, PotentialParams(k=k), ADAPTIVE)
        (walk,) = walks_made
        assert walk.anchor == sums.origin == sums.terms_used - 1 == 999_999
        assert not sums.converged
        assert factor_reads.blocks == [999_998 // MAX_BLOCK]

    @given(z=st.one_of(st.floats(min_value=0.0, max_value=40.0),
                       st.sampled_from([1e10, 1e20, 1e300])),
           k=st.floats(min_value=-1.0, max_value=2.0).map(lambda log_k: 10.0 ** log_k),
           gamma=st.floats(min_value=0.1, max_value=10.0),
           policies=st.lists(st.one_of(
               st.tuples(st.floats(min_value=-300.0, max_value=math.log10(0.5)),
                         st.sampled_from([50, 1000])).map(
                   lambda t: TruncationPolicy.adaptive(tail_tolerance=10.0 ** t[0],
                                                       hard_cap=t[1])),
               st.integers(min_value=1, max_value=3000).map(TruncationPolicy.fixed)),
               min_size=1, max_size=3))
    @example(z=30.0, k=0.1, gamma=2.0, policies=[ADAPTIVE])
    @example(z=1e300, k=1.5, gamma=2.0, policies=[ADAPTIVE, TruncationPolicy.fixed(40)])
    @example(z=1.0, k=2.0, gamma=2.0, policies=[ADAPTIVE])
    @example(z=12.0, k=0.15295299865873557, gamma=9.786045567176172,
             policies=[TruncationPolicy.adaptive(tail_tolerance=1.32744245590724e-177,
                                                 hard_cap=20000)])
    @settings(max_examples=100, deadline=None)
    def test_every_window_tops_at_its_anchor(self, z, k, gamma, policies):
        # The head rule and the reduction take the anchor as the largest
        # term of the window, past 2^52 too, and ties included (k = 2 at
        # integer |z|^2, where a neighbour of the anchor weighs 1.0 too).
        # Where the peak is flat, past n of about 10^14, the rounded walk and
        # peak index leave w up to a few 1e-15 above 1: 2.7e-15 at k = 0.153,
        # gamma = 9.79, |z| = 12, where _peak_index lands 11 above the peak.
        # A fixed window served by a certified reduction ends past its walk,
        # so each walk is extended to the end of each window once every
        # policy has run; extended in steps, it holds the same values.
        for walk, sums in list(ghacs.stats._walks(z, PotentialParams(k=k, gamma=gamma), policies)):
            lo, hi = sums.first_index, sums.terms_used - 1
            walk.extend_to(hi)
            ws = walk.window(lo, hi)
            assert sums.origin == walk.anchor
            assert max(ws) <= 1 + 1e-12
            # The reduction, the distribution's mass and its total read the
            # window in walk order: up from the anchor, then down below it;
            # the kernel's offsets pair each weight with its n - anchor.
            assert walk.outward(lo, hi) == (walk.window(walk.anchor, hi)
                                            + walk.window(lo, walk.anchor - 1)[::-1])
            ds = [n - walk.anchor for n in range(lo, hi + 1)]
            assert ghacs.stats._moments(walk.outward(lo, hi), hi - walk.anchor + 1) == (
                math.fsum(ws), math.fsum(w * d for w, d in zip(ws, ds)),
                math.fsum(w * d * d for w, d in zip(ws, ds)))

    @given(z=st.one_of(st.floats(min_value=1e-3, max_value=40.0),
                       st.sampled_from([1e10, 1e300])),
           k=st.floats(min_value=-1.0, max_value=2.0).map(lambda log_k: 10.0 ** log_k),
           gamma=st.floats(min_value=0.1, max_value=10.0),
           log_tol=st.floats(min_value=-300.0, max_value=math.log10(0.99)),
           below=st.integers(min_value=0, max_value=3))
    @example(z=12.0, k=0.15295299865873557, gamma=9.786045567176172,
             log_tol=math.log10(1.32744245590724e-177), below=0)
    @example(z=math.sqrt(65.0), k=2.0, gamma=2.0, log_tol=-16.0, below=1)
    @settings(max_examples=100, deadline=None)
    def test_head_test_never_rises_below_the_anchor(self, z, k, gamma, log_tol, below):
        # _stop_head tests each block at its lowest index only.  That finds
        # the head's first index as a per-term test would because, below the
        # anchor, (n + 1) w_n never rises as n falls wherever it is below 1:
        # here on the adaptive walk, and on walks anchored at fixed cutoffs
        # on the peak and just below it, each read a block past its head.
        params = PotentialParams(k=k, gamma=gamma)
        peak = ghacs.stats._peak_index(z, params)
        policies = [TruncationPolicy.adaptive(tail_tolerance=10.0 ** log_tol, hard_cap=20000)]
        if peak is not None and peak > below:
            policies.append(TruncationPolicy(n_max=peak - below, hard_cap=20000))
        for policy in policies:
            try:
                walk, _ = next(ghacs.stats._walks(z, params, (policy,)))
            except ValueError:  # a fixed window wider than the cap
                event("fixed head wider than the cap")
                continue
            walk.extend_to(max(0, walk.lo - MAX_BLOCK))
            v = [(n + 1) * w for n, w in enumerate(walk.window(walk.lo, walk.anchor - 1), walk.lo)]
            assert not [n for n, (low, high) in enumerate(zip(v, v[1:]), walk.lo + 1)
                        if high < 1.0 and low > high]

    @given(k=st.floats(min_value=0.8, max_value=10.0), gamma=st.sampled_from([0.1, 2.0, 10.0]),
           z=st.floats(min_value=1e-3, max_value=30.0), past=st.floats(min_value=0.0, max_value=40.0))
    @example(k=0.8, gamma=0.1, z=30.0, past=40.0)
    @example(k=0.5, gamma=2.0, z=4.0, past=0.0)
    @example(k=0.5, gamma=2.0, z=4.0, past=40.0)
    @settings(max_examples=40, deadline=None)
    def test_tail_bound_covers_the_walks_own_tail(self, k, gamma, z, past):
        # T_p bounds the sum of the walk's own products w_n d^p past m, as
        # the reduction forms them, out to the first weight that is 0.0,
        # for m from the peak to 40 sigma past it.  At k = 0.8, |z| = 30 the
        # weights stall at the smallest subnormal for about 3e5 terms,
        # which the bound's floor covers.  k = 0.5 is the paper's deep-tail
        # case, where alpha is small and the ratio falls slowest.
        params = PotentialParams(k=k, gamma=gamma)
        peak = ghacs.stats._peak_index(z, params)
        a, c = params.alpha, params.offset
        sigma = math.sqrt(max(0.0, (peak + c - c ** a * (peak + c) ** (1.0 - a)) / a))
        m = peak + int(past * sigma)
        walk = LogTermWalk(z, params, peak)
        walk.extend_to(m)
        while walk.window(walk.hi, walk.hi)[0] != 0.0:
            walk.extend_to(walk.hi + 16 * MAX_BLOCK)
        bounds = ghacs.stats._tail_bound(walk, m)
        if bounds is None:
            event("ratio at m + 1 not below 1")
            return
        ds = range(m + 1 - peak, walk.hi + 1 - peak)
        w = walk.window(m + 1, walk.hi)
        wd = [x * d for x, d in zip(w, ds)]
        wd2 = [x * d for x, d in zip(wd, ds)]
        for bound, tail in zip(bounds, (w, wd, wd2)):
            assert math.fsum(tail) <= bound

    def test_tail_bound_refuses_where_the_ratio_may_not_fall(self):
        # No bound below the peak, where the ratio at m + 1 is above 1, nor
        # where m + 2 + c reaches 2^48 alpha, past which the factors are not
        # shown never to fall; the ratio there is far below 1.
        peak = ghacs.stats._peak_index(4.5, K15)
        assert ghacs.stats._tail_bound(LogTermWalk(4.5, K15, peak - 5), peak - 5) is None
        edge = math.ceil(2.0 ** 48 * K15.alpha - 2 - K15.offset)
        assert ghacs.stats._tail_bound(LogTermWalk(4.5, K15, edge - 1), edge - 1) is not None
        assert ghacs.stats._tail_bound(LogTermWalk(4.5, K15, edge), edge) is None

    @given(k=st.floats(min_value=0.8, max_value=10.0), z=st.floats(min_value=1e-3, max_value=30.0))
    @settings(max_examples=40, deadline=None)
    def test_early_refusal_only_where_s0_cannot_absorb(self, k, z):
        # _reduce refuses, before it sums, a T_0 above (m - lo + 1) 2^-51,
        # more than an ulp of S0, which S0 would not absorb; a T_0 that S0
        # absorbs goes on to the sums.
        walk, sums = next(ghacs.stats._walks(z, PotentialParams(k=k), [ADAPTIVE]))
        lo, m = sums.first_index, walk.hi
        ws = walk.outward(lo, m)
        s0 = math.fsum(ws)
        absorbed = [t for t in (math.ulp(s0) * f for f in (1.0, 0.5, 0.25, 2.0 ** -10))
                    if math.fsum(ws + [t]) == s0]
        assume(absorbed)  # none where the exact S0 lies just below a rounding midpoint
        assert (ghacs.stats._reduce(walk, lo, m, False, None, (absorbed[0], 0.0, 0.0))
                == ghacs.stats._reduce(walk, lo, m, False, None))
        assert math.fsum(ws + [math.nextafter((m - lo + 1) * 2.0 ** -51, math.inf)]) != s0

    @pytest.mark.parametrize("tail", [(1e300,) * 3, (0.0, 0.0, 1e300)],
                             ids=["refused-before-summing", "fails-on-s2"])
    def test_failed_certificate_walks_each_cutoff(self, monkeypatch, tail):
        # A bound that a sum does not absorb fails the certificate, before
        # any sum is formed where T_0 is too large for S0, or after all
        # three: each cutoff past the adaptive walk's end extends the walk
        # to itself and reduces its own window, with the sums of a
        # standalone run.  The certificate is tried once.
        bounds = []

        def too_large(walk, m):
            bounds.append(m)
            return tail

        monkeypatch.setattr(ghacs.stats, "_tail_bound", too_large)
        cutoffs = (50, 100, 200, 300)
        runs = list(ghacs.stats._walks(4.5, K15, [ADAPTIVE, *map(TruncationPolicy.fixed, cutoffs)]))
        walk = runs[0][0]
        assert all(w is walk for w, _ in runs) and walk.hi == 300
        assert len(bounds) == 1 and bounds[0] < 200
        for c, (_, sums) in zip(cutoffs, runs[1:]):
            assert sums == accumulate_sums(4.5, K15, TruncationPolicy.fixed(c))

    def test_fixed_cutoffs_share_a_certificate_without_an_adaptive_run(self):
        # The certificate needs only a walk past its peak, however it grew:
        # the 300 cutoff takes the reduction to the end the 100 cutoff left,
        # so the walk stops at 100, and each run has a standalone run's sums.
        policies = [TruncationPolicy.fixed(100), TruncationPolicy.fixed(300)]
        runs = list(ghacs.stats._walks(2.0, K15, policies))
        walk = runs[0][0]
        assert all(w is walk for w, _ in runs) and walk.hi == 100
        for policy, (_, sums) in zip(policies, runs):
            assert sums == accumulate_sums(2.0, K15, policy)

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

    def test_fixed_window_of_exactly_hard_cap_terms(self, walks_made):
        # At k = 1.5, |z| = 5 the head closes at n = 0, so n_max = 99 sums
        # 100 terms and n_max = 100 one more.
        policy = TruncationPolicy(n_max=99, hard_cap=100)
        sums = accumulate_sums(5.0, K15, policy)
        assert (sums.first_index, sums.terms_used) == (0, 100)
        with pytest.raises(ValueError, match="hard_cap"):
            accumulate_sums(5.0, K15, TruncationPolicy(n_max=100, hard_cap=100))
        # Refused before the walk is extended to the cutoff.
        assert walks_made[-1].hi < 100

    def test_fixed_window_whose_head_stays_open_rejected(self, walks_made):
        # At k = 0.5, |z| = 4 the peak sits near n = 1150, and the head
        # below it does not close within 100 terms.
        with pytest.raises(ValueError, match="hard_cap"):
            accumulate_sums(4.0, PotentialParams(k=0.5), TruncationPolicy(n_max=1200, hard_cap=100))
        (walk,) = walks_made
        assert walk.hi < 1200
        # A cap of 1 above n = 0 holds the anchor alone, with its head untested.
        with pytest.raises(ValueError, match="hard_cap"):
            accumulate_sums(5.0, K15, TruncationPolicy(n_max=40, quiet_run=1, hard_cap=1))

    def test_fixed_cutoff_at_the_anchor(self, walks_made):
        # A cutoff below the peak (near n = 110) anchors its walk at the
        # cutoff, the largest term of its range, and sums up to it.
        sums = accumulate_sums(7.5, K15, TruncationPolicy.fixed(40))
        (walk,) = walks_made
        assert walk.anchor == sums.origin == sums.terms_used - 1 == 40
        assert start_of(7.5, K15, ADAPTIVE) > 100

    def test_policy_sums_runs_each_policy_when_asked(self, walks_made):
        # The sums come in policy order, each equal to a run of its own.  The
        # peak, n = 43, and the cutoff 40 below it each get one walk, and the
        # last policy's error surfaces only when its sums are asked for,
        # before its cutoff extends the shared walk.
        policies = [ADAPTIVE, TruncationPolicy.fixed(40), TruncationPolicy.fixed(60),
                    TruncationPolicy(n_max=200, hard_cap=100)]
        sums = policy_sums(5.0, K15, policies)
        got = [next(sums) for _ in policies[:3]]
        assert [w.anchor for w in walks_made] == [43, 40]
        with pytest.raises(ValueError, match="hard_cap"):
            next(sums)
        assert len(walks_made) == 2 and walks_made[0].hi < 200
        assert got == [accumulate_sums(5.0, K15, p) for p in policies[:3]]

    @pytest.mark.parametrize("k", [0.5, 1.5, 10.0])
    def test_largest_gamma_matches_oracle(self, k):
        # gamma = 1e6 is the largest accepted; the oracle sums 200 terms past the window.
        st_ = state_stats(1.0, PotentialParams(k=k, gamma=1e6), ADAPTIVE)
        mean, _, q = direct_stats(1.0, k, 1e6, st_.sums.terms_used + 200, dps=40)
        assert st_.sums.converged
        assert st_.mean == pytest.approx(mean, rel=1e-10)
        assert st_.mandel_q == pytest.approx(q, abs=1e-10)


def amplitude_of_width(sigma, params):
    """The |z| whose peak has width sigma: sigma^2 = f(n*) (n* + c)^(1 - alpha) / alpha."""
    a, c = params.alpha, params.offset
    n = a * sigma * sigma
    for _ in range(60):
        n *= sigma * sigma * a / (n + c - c ** a * (n + c) ** (1 - a))
    return math.sqrt((n + c) ** a - c ** a)


class Unread(list):
    """Weights that fail the test if anything iterates over them."""

    def __iter__(self):
        raise AssertionError("the weights were read")


class TestMoments:
    @given(ws=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200),
           step=st.sampled_from([1, 2, 7, 64]), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_exact_sums_at_the_stated_offsets(self, ws, step, data):
        # The first `up` weights sit at 0, step, 2 step, ..., the rest at
        # -step, -2 step, ...: a walk's window (step 1) or a lattice's nodes.
        up = data.draw(st.integers(min_value=1, max_value=len(ws)))
        ds = [i * step for i in range(up)] + [-i * step for i in range(1, len(ws) - up + 1)]
        want = (math.fsum(ws), math.fsum(w * d for w, d in zip(ws, ds)),
                math.fsum(w * d * d for w, d in zip(ws, ds)))
        kept = list(ws)
        assert ghacs.stats._moments(ws, up, step) == want
        # A tail of nothing is absorbed by every sum, and leaves the weights
        # as they were.
        assert ghacs.stats._moments(ws, up, step, (0.0, 0.0, 0.0)) == want
        assert ws == kept
        # S0 <= len(ws) for weights of at most 1, so a T_0 above an ulp of
        # that is refused before a weight is read.
        least = math.nextafter(len(ws) * 2.0 ** -51, math.inf)
        t0 = data.draw(st.floats(min_value=least, max_value=1e300))
        assert ghacs.stats._moments(Unread(ws), up, step, (t0, 0.0, 0.0)) is None


def walked(abs_z, params, policy):
    """The sums of the walk over its window, as ``weight_distribution`` takes them."""
    return next(ghacs.stats._walks(abs_z, params, (policy,)))[1]


def window_of(sums):
    return sums.first_index, sums.terms_used, sums.estimated_threshold, sums.converged


class TestStridedSums:
    @given(k=st.floats(min_value=0.3, max_value=2.0), gamma=st.floats(min_value=0.1, max_value=10.0),
           log_sigma=st.floats(min_value=math.log10(ghacs.stats._STRIDE_SIGMA),
                               max_value=math.log10(6000.0)),
           log_tol=st.floats(min_value=-300.0, max_value=math.log10(0.5)),
           quiet_run=st.integers(min_value=1, max_value=64))
    @example(k=0.5, gamma=2.0, log_sigma=math.log10(1381.0), log_tol=-300.0, quiet_run=10)
    @example(k=0.5, gamma=2.0, log_sigma=math.log10(1381.0), log_tol=-8.0, quiet_run=1)
    @example(k=2.0, gamma=0.1, log_sigma=math.log10(ghacs.stats._STRIDE_SIGMA), log_tol=-16.0,
             quiet_run=64)
    # Against the whole S2 the threshold lies a term early here; the lattice
    # leaves the run to the walk.
    @example(k=0.5, gamma=2.0, log_sigma=math.log10(40000.0), log_tol=-8.0, quiet_run=10)
    # Past 2^24 the factors' rounding drifts the walk (``whole_series``).
    @example(k=1.9636952112706627, gamma=1.0, log_sigma=3.6477298667048235, log_tol=-8.0,
             quiet_run=1)
    @settings(max_examples=60, deadline=None)
    def test_lattice_matches_the_walk(self, k, gamma, log_sigma, log_tol, quiet_run):
        # The same window, threshold and convergence as the walk; Q within
        # 1e-13 and the mean within a relative 1e-14 of the whole series.
        params = PotentialParams(k=k, gamma=gamma)
        z = amplitude_of_width(10.0 ** log_sigma, params)
        policy = TruncationPolicy.adaptive(tail_tolerance=10.0 ** log_tol, quiet_run=quiet_run)
        sums = ghacs.stats._strided_sums(z, params, policy, ghacs.stats._peak_index(z, params))
        event("walked" if sums is None else "strided")
        assume(sums is not None)
        assert_same_run(sums, walked(z, params, policy), z, params)
        assert accumulate_sums(z, params, policy) == sums

    @pytest.mark.parametrize("z", [14.97, 15.0, 15.03, 20.0])
    def test_deep_tail_points(self, z):
        params = PotentialParams(k=0.5)
        sums = accumulate_sums(z, params, ADAPTIVE)
        assert sums == ghacs.stats._strided_sums(z, params, ADAPTIVE, ghacs.stats._peak_index(z, params))
        assert_same_run(sums, walked(z, params, ADAPTIVE), z, params)

    def test_sweep_across_the_break_even(self):
        # sigma passes 250 near |z| = 7.55; each row equals its standalone runs.
        params, cutoffs = PotentialParams(k=0.5), (30000, 40000)
        spec = SweepSpec(k=0.5, gamma=2.0, z_grid=(7.0, 7.5, 8.0, 8.5), cutoffs=cutoffs)
        rows = run_sweep(spec, ADAPTIVE).rows
        widths = [ghacs.stats._strided_sums(z, params, ADAPTIVE, ghacs.stats._peak_index(z, params))
                  is not None for z in spec.z_grid]
        assert widths == [False, False, True, True]
        for row in rows:
            assert row.adaptive_stats.sums == accumulate_sums(row.abs_z, params, ADAPTIVE)
            for c in cutoffs:
                assert row.fixed_stats[c].sums == accumulate_sums(
                    row.abs_z, params, TruncationPolicy.fixed(c))

    @pytest.mark.parametrize("policy", [TruncationPolicy.fixed(780000),
                                        TruncationPolicy.adaptive(tail_tolerance=1e-6),
                                        TruncationPolicy.adaptive(hard_cap=20000)])
    def test_runs_that_stay_on_the_walk(self, policy):
        # Fixed cutoffs, loose tolerances and windows past the hard cap walk.
        params = PotentialParams(k=0.5)
        assert ghacs.stats._strided_sums(15.0, params, policy, 765785) is None
        assert accumulate_sums(15.0, params, policy) == walked(15.0, params, policy)

    def test_window_one_term_past_the_hard_cap_walks(self):
        # At k = 0.5, |z| = 15 the window 751963..776287 holds 24,325 terms.
        # A cap one term short fits the head but not the quiet run's end:
        # the lattice leaves the run to the walk, which stops at the cap,
        # unconverged.  One term more, and the lattice serves it.
        params = PotentialParams(k=0.5)
        peak = ghacs.stats._peak_index(15.0, params)
        short = TruncationPolicy.adaptive(hard_cap=24324)
        assert ghacs.stats._strided_sums(15.0, params, short, peak) is None
        sums = accumulate_sums(15.0, params, short)
        assert sums == walked(15.0, params, short)
        assert window_of(sums) == (751963, 776287, None, False)
        fits = TruncationPolicy.adaptive(hard_cap=24325)
        assert window_of(ghacs.stats._strided_sums(15.0, params, fits, peak)) == (
            751963, 776288, 776278, True)

    def test_threshold_the_walk_might_not_share_walks(self):
        # Against the whole S2 the threshold is 778172033, two terms before
        # the walk's.
        params, policy = PotentialParams(k=0.5), TruncationPolicy.adaptive(tail_tolerance=1e-8)
        assert ghacs.stats._strided_sums(60.0, params, policy, ghacs.stats._peak_index(60.0, params)) is None
        assert window_of(accumulate_sums(60.0, params, policy)) == (777620416, 778172045, 778172035, True)

    @pytest.mark.parametrize("k,z,q", CONVERGED_Q)
    def test_q_of_the_whole_series(self, k, z, q):
        # The walk's window leaves out 4.0e-13 of Q at k = 0.5, |z| = 8, and
        # 5.1e-12 at |z| = 20.
        got = state_stats(z, PotentialParams(k=k), ADAPTIVE).mandel_q
        assert abs(got - q) <= 4e-15 * max(1.0, abs(q))

    def test_wide_peak_converges_in_a_lattice_pass(self):
        # The walk's window at |z| = 50 spans 497,292 terms.
        sums = accumulate_sums(50.0, PotentialParams(k=0.5), ADAPTIVE)
        assert window_of(sums) == (312440002, 312937294, 312937284, True)


def whole_series(abs_z, params):
    """(mean, Q) of the whole series, walked out from the peak to weights
    below 2^-110 of it, each factor (j + c)^alpha - c^alpha carried with the
    rounding error of its subtraction.  That error has one value wherever
    (j + c)^alpha keeps its binade, so the walk's weights, which drop it,
    drift by about half an ulp a term: at k = 1.96, |z| = 4096 the fixed
    walk's Q is 1.8e-13 off a 40-digit sum, and this one's 9e-16."""
    a, c = params.alpha, params.offset
    small, z2, peak = c ** a, abs_z * abs_z, ghacs.stats._peak_index(abs_z, params)

    def factor(j):
        x = (j + c) ** a
        f = x - small
        return f, (x - f) - small

    ws, ds, w, j = [], [], 1.0, peak
    while w >= 2.0 ** -110:
        ws.append(w)
        ds.append(j - peak)
        j += 1
        f, e = factor(j)
        r = z2 / f
        w *= r - r * e / f
    w, j = 1.0, peak
    while j > 0:
        f, e = factor(j)
        w *= f / z2 + e / z2
        if w < 2.0 ** -110:
            break
        j -= 1
        ws.append(w)
        ds.append(j - peak)
    s0 = math.fsum(ws)
    m1 = math.fsum(map(operator.mul, ws, ds)) / s0
    var = math.fsum(w * d * d for w, d in zip(ws, ds)) / s0 - m1 * m1
    return peak + m1, var / (peak + m1) - 1.0


def assert_same_run(sums, walk, abs_z, params):
    """The walk's window, threshold and convergence, with the moments of the
    whole series (``whole_series``)."""
    assert window_of(sums) == window_of(walk)
    got, (mean, q) = stats_from_sums(sums), whole_series(abs_z, params)
    assert abs(got.mandel_q - q) <= 1e-13 * max(1.0, abs(q))
    assert got.mean == pytest.approx(mean, rel=1e-14, abs=0)


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
        assert (wd.zero_rows, list(wd.rows()), wd.total) == (0, [1.0], 1.0)
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
            assert math.fsum(wd.rows()) == wd.total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("policy", [ADAPTIVE, TruncationPolicy.fixed(40),
                                        TruncationPolicy.adaptive(hard_cap=20)])
    def test_carries_the_sums_of_its_walk(self, policy):
        wd = weight_distribution(7.5, K15, policy)
        assert wd.sums == accumulate_sums(7.5, K15, policy)
        assert wd.support_bound == wd.sums.terms_used - 1

    def test_every_weight_in_unit_interval(self):
        wd = weight_distribution(5.0, K15, ADAPTIVE)
        assert all(0.0 <= w <= 1.0 for w in wd.rows())

    def test_matches_oracle(self):
        wd = weight_distribution(2.5, K15, TruncationPolicy.fixed(100))
        expected = direct_weights(2.5, 1.5, 2.0, 100)
        for n, want in zip(range(wd.support_bound + 1), expected):
            assert wd.weight(n) == pytest.approx(want, abs=1e-12)

    def test_moments_consistent_with_stats(self):
        # The rows are the distribution the sums describe, at any tolerance:
        # they sum to 1, and their moments are stats'.  With the head below
        # the window printed, they summed to 1.0000546 at 1e-3 and 1.0119 at
        # 0.9.
        for z, tail_tolerance in ((2.5, 1e-16), (3.0, 1e-3), (3.0, 0.9)):
            policy = TruncationPolicy.adaptive(tail_tolerance=tail_tolerance)
            wd = weight_distribution(z, K15, policy)
            st_ = state_stats(z, K15, policy)
            assert abs(wd.total - 1.0) <= 4 * math.ulp(1.0)
            rows = list(enumerate(wd.rows(), wd.zero_rows))
            mean = math.fsum(n * w for n, w in rows)
            variance = math.fsum((n - mean) ** 2 * w for n, w in rows)
            assert mean == pytest.approx(st_.mean, rel=1e-13, abs=0)
            assert variance == pytest.approx(st_.variance, rel=1e-13, abs=0)

    @given(z=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=12.0)),
           k=st.floats(min_value=-1.0, max_value=2.0).map(lambda log_k: 10.0 ** log_k),
           gamma=st.floats(min_value=0.1, max_value=10.0),
           policy=st.one_of(
               st.floats(min_value=-300.0, max_value=math.log10(0.5)).map(
                   lambda log_tol: TruncationPolicy.adaptive(tail_tolerance=10.0 ** log_tol)),
               st.integers(min_value=1, max_value=3000).map(TruncationPolicy.fixed)))
    @example(z=10.0, k=0.5, gamma=2.0, policy=ADAPTIVE)
    @example(z=5.0, k=0.5, gamma=2.0, policy=TruncationPolicy.fixed(2000))
    @settings(max_examples=200, deadline=None)
    def test_rows_match_the_full_walk_bitwise(self, z, k, gamma, policy):
        # The rows from the summed window's first index on are the full
        # walk's doubles, and the rows below it are 0.0.
        params = PotentialParams(k=k, gamma=gamma)
        assume(start_of(z, params, policy) <= 3 * 10 ** 5)
        wd = weight_distribution(z, params, policy)
        assume(wd.support_bound <= 3 * 10 ** 5)
        rows, zeros = list(wd.rows()), wd.zero_rows
        weights = reference_weights(z, params, policy)
        event("zero prefix" if zeros else "no zero prefix")
        assert zeros == wd.sums.first_index
        assert list(map(float.hex, rows)) == list(map(float.hex, weights[zeros:]))
        assert [wd.weight(n) for n in (0, zeros - 1, wd.support_bound + 1)] == [
            weights[0] if zeros == 0 else 0.0, 0.0, 0.0]
        assert wd.total == math.fsum(rows)

    def test_zero_rows_are_the_walks_lowest_row(self):
        # At k = 0.5, |z| = 10 the summed window, and so the rows that are
        # made, start at n = 97002; the walk's lowest row is 96960, at the
        # edge of the head rule's last block of factors.
        wd = weight_distribution(10.0, PotentialParams(k=0.5), ADAPTIVE)
        assert wd.zero_rows == wd.sums.first_index == 97002
        rows = list(wd.rows())
        assert len(rows) == wd.support_bound + 1 - 97002
        assert rows[0] > 0.0
        assert [wd.weight(n) for n in (0, 97001, 97002, wd.support_bound)] == [
            0.0, 0.0, rows[0], rows[-1]]
