import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdpctl.core import (CriticalConstants, Gamma, TruthLabels, exceeds_counts,
                         exceeds_gamma)
from fdpctl.engine import annotate_truth, step_counts, step_down, step_up


def cc(*values):
    return CriticalConstants(values=np.array(values))


class TestStepDown:
    def test_rejects_two_smallest(self):
        res = step_down([0.01, 0.02, 0.5], cc(0.025, 0.05, 0.075))
        assert res.r == 2 and set(res.rejected) == {0, 1}

    def test_rejects_none_when_smallest_fails(self):
        assert step_down([0.9, 0.8, 0.7], cc(0.025, 0.05, 0.075)).r == 0

    def test_scan_stops_at_first_failure(self):
        res = step_down([0.01, 0.06, 0.07], cc(0.02, 0.05, 0.075))
        assert res.r == 1 and res.rejected == (0,)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            step_down([0.1, 0.2], cc(0.05))

    def test_bad_pvalues(self):
        with pytest.raises(ValueError):
            step_down([0.1, 1.2], cc(0.05, 0.06))


@pytest.mark.parametrize("proc", [step_down, step_up])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.2])
def test_out_of_range_pvalues_rejected(proc, bad):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        proc([0.1, bad], cc(0.05, 0.06))


@pytest.mark.parametrize("proc", [step_down, step_up])
def test_closed_interval_endpoints_accepted(proc):
    assert proc([0.0, 1.0], cc(0.05, 0.06)).rejected == (0,)


class TestStepUp:
    def test_last_passing_rank_rejects_all_below(self):
        assert step_up([0.01, 0.06, 0.07], cc(0.02, 0.05, 0.075)).r == 3

    def test_rejects_none(self):
        assert step_up([0.9, 0.8, 0.7], cc(0.025, 0.05, 0.075)).r == 0

    def test_middle_rank(self):
        assert step_up([0.01, 0.02, 0.5], cc(0.025, 0.05, 0.075)).r == 2


class TestAnnotate:
    def test_counts(self):
        res = step_up([0.01, 0.02, 0.9], cc(0.025, 0.05, 0.075))
        res = annotate_truth(res, TruthLabels((True, False, True)))
        assert (res.r, res.v, res.s) == (2, 1, 1)

    def test_empty_rejections(self):
        res = annotate_truth(step_down([0.9], cc(0.1)), TruthLabels((True,)))
        assert (res.v, res.s) == (0, 0)

    def test_all_null_rejections(self):
        res = step_up([0.01, 0.01, 0.01], cc(0.05, 0.05, 0.05))
        res = annotate_truth(res, TruthLabels((True, True, True)))
        assert (res.v, res.s) == (3, 0)


def pvec(n):
    return st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n)


constants_strategy = st.integers(2, 8).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(0.001, 0.999), min_size=n, max_size=n),
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
    )
)


def brute_force_counts(p, values):
    """Rejection counts straight from the defining max-sets."""
    sp = sorted(p)
    n = len(sp)
    sd_ranks = [i for i in range(1, n + 1)
                if all(sp[j - 1] <= values[j - 1] for j in range(1, i + 1))]
    su_ranks = [i for i in range(1, n + 1) if sp[i - 1] <= values[i - 1]]
    return (max(sd_ranks, default=0), max(su_ranks, default=0))


class TestAgainstDefinition:
    @given(constants_strategy)
    @settings(max_examples=300)
    def test_counts_match_brute_force(self, data):
        raw_c, p = data
        values = sorted(raw_c)
        r_sd, r_su = brute_force_counts(p, values)
        c = cc(*values)
        assert step_down(p, c).r == r_sd
        assert step_up(p, c).r == r_su

    def test_rejected_are_the_smallest_pvalues(self):
        p = [0.9, 0.01, 0.5, 0.02, 0.03]
        c = cc(0.02, 0.03, 0.04, 0.05, 0.06)
        for proc in (step_down, step_up):
            res = proc(p, c)
            rejected = sorted(p[i] for i in res.rejected)
            assert rejected == sorted(p)[: res.r]


class TestProperties:
    @given(constants_strategy)
    @settings(max_examples=200)
    def test_stepup_dominates_stepdown(self, data):
        raw_c, p = data
        c = cc(*sorted(raw_c))
        sd = step_down(p, c)
        su = step_up(p, c)
        assert set(sd.rejected) <= set(su.rejected)

    @given(constants_strategy, st.integers(0, 7), st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_raising_one_pvalue_never_adds_rejections(self, data, idx, bump):
        raw_c, p = data
        c = cc(*sorted(raw_c))
        idx %= len(p)
        higher = list(p)
        higher[idx] = max(p[idx], bump)
        for proc in (step_down, step_up):
            assert proc(higher, c).r <= proc(p, c).r

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
           st.floats(0.05, 0.95))
    @settings(max_examples=200)
    def test_single_step_threshold(self, p, t):
        c = cc(*([t] * len(p)))
        expect = {i for i, v in enumerate(p) if v <= t}
        assert set(step_down(p, c).rejected) == expect
        assert set(step_up(p, c).rejected) == expect

    @given(st.sets(st.floats(0.0, 1.0), min_size=2, max_size=8),
           st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_permutation_equivariance(self, pset, rnd):
        # tie-free by construction: with ties only R is permutation-invariant
        p = sorted(pset)
        n = len(p)
        c = cc(*[(i + 1) / (n + 2) for i in range(n)])
        labels = [i % 2 == 0 for i in range(n)]
        perm = list(range(n))
        rnd.shuffle(perm)
        p_perm = [p[j] for j in perm]
        labels_perm = [labels[j] for j in perm]
        for proc in (step_down, step_up):
            base = annotate_truth(proc(p, c), TruthLabels(tuple(labels)))
            moved = annotate_truth(proc(p_perm, c), TruthLabels(tuple(labels_perm)))
            assert (base.r, base.v, base.s) == (moved.r, moved.v, moved.s)
            assert {perm[i] for i in moved.rejected} == set(base.rejected)

    def test_tie_groups_are_atomic(self):
        # with nondecreasing constants a group of equal p-values is rejected
        # entirely or not at all, so ties cannot change the rejected set
        c = cc(0.03, 0.04, 0.05)
        for proc in (step_down, step_up):
            assert set(proc([0.03, 0.03, 0.5], c).rejected) == {0, 1}
            assert set(proc([0.5, 0.03, 0.03], c).rejected) == {1, 2}

    def test_tied_rejections_keep_original_index_order(self):
        res = step_down([0.03, 0.03, 0.5], cc(0.03, 0.04, 0.05))
        assert res.rejected == (0, 1)


# 10**12 keeps the exceedance products in int64; 10**20 overflows them
GAMMAS = (Gamma(0, 1), Gamma(1, 10), Gamma(1, 4), Gamma(1, 2),
          Gamma(1, 10**12), Gamma(10**12 - 1, 10**12), Gamma(1, 10**20))


@st.composite
def count_cases(draw):
    n = draw(st.integers(1, 8))
    values = sorted(draw(st.lists(st.floats(0.001, 0.999), min_size=n, max_size=n)))
    # p-values that tie each other, sit on a constant or on the ends of [0, 1]
    pool = st.sampled_from([0.0, 1.0] + values) | st.floats(0.0, 1.0)
    p = draw(st.lists(st.lists(pool, min_size=n, max_size=n),
                      min_size=1, max_size=5))
    is_null = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return (values, p, is_null, draw(st.integers(1, n)),
            draw(st.sampled_from(GAMMAS)))


class TestStepCounts:
    @given(count_cases())
    @settings(max_examples=300)
    def test_rows_match_single_vector_runs(self, case):
        values, p, is_null, k, gamma = case
        c = cc(*values)
        labels = TruthLabels(tuple(is_null))
        counts = step_counts(p, is_null, [("sd", c), ("su", c)])
        for proc, (r, v) in zip((step_down, step_up), counts):
            exceed = exceeds_counts(v, r, k, gamma)
            for i, row in enumerate(p):
                res = annotate_truth(proc(row, c), labels)
                assert (r[i], v[i]) == (res.r, res.v)
                assert exceed[i] == exceeds_gamma(res, k, gamma)

    @pytest.mark.parametrize("r", [[0], [0, 0], []])
    def test_huge_denominator_with_zero_or_no_counts(self, r):
        r = np.array(r, dtype=np.int64)
        exceed = exceeds_counts(r, r, 1, Gamma(1, 10**20))
        assert exceed.shape == r.shape and not exceed.any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.2])
    def test_out_of_range_pvalues_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            step_counts([[0.1, 0.2], [0.1, bad]], [True, False],
                        [("sd", cc(0.05, 0.06))])

    def test_zero_row_block(self):
        c = cc(0.05, 0.06)
        counts = step_counts(np.empty((0, 2)), [True, False],
                             [("sd", c), ("su", c)])
        assert len(counts) == 2
        for r, v in counts:
            assert r.shape == v.shape == (0,)
            assert r.dtype == v.dtype == np.int64

    def test_shape_and_direction_checked(self):
        labels = [True, False]
        with pytest.raises(ValueError, match="shape"):
            step_counts([0.1, 0.2], labels, [("sd", cc(0.05, 0.06))])
        with pytest.raises(ValueError, match="critical constants"):
            step_counts([[0.1, 0.2]], labels, [("sd", cc(0.05))])
        with pytest.raises(ValueError, match="direction"):
            step_counts([[0.1, 0.2]], labels, [("up", cc(0.05, 0.06))])
