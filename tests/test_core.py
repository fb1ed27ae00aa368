import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdpctl.core import (CriticalConstants, Gamma, RejectionResult,
                         TruthLabels, exceeds_gamma, kfdp_value)


class TestGamma:
    @pytest.mark.parametrize("text,num,den", [
        ("1/10", 1, 10), ("3/10", 3, 10), ("0.1", 1, 10), ("0.25", 1, 4),
        ("0", 0, 1), ("2/20", 1, 10),
    ])
    def test_parse(self, text, num, den):
        g = Gamma.parse(text)
        assert (g.num, g.den) == (num, den)

    def test_parse_float_snaps(self):
        assert Gamma.parse(0.1) == Gamma(1, 10)
        assert Gamma.parse(1 / 3) == Gamma(1, 3)

    @pytest.mark.parametrize("bad", ["1", "3/2", "-1/10", 1.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            Gamma.parse(bad)

    @pytest.mark.parametrize("bad", ["1/0", "0/0", " 3/0 "])
    def test_rejects_zero_denominator(self, bad):
        with pytest.raises(ValueError, match="zero denominator"):
            Gamma.parse(bad)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_float(self, bad):
        with pytest.raises(ValueError, match="gamma must be finite"):
            Gamma.parse(bad)

    @pytest.mark.parametrize("g,i,expected", [
        (Gamma(1, 10), 10, 1),   # exact boundary 0.1 * 10
        (Gamma(1, 10), 9, 0),    # 0.9 floors to 0
        (Gamma(3, 10), 7, 2),    # 21 div 10
        (Gamma(0, 1), 1000, 0),
    ])
    def test_floor_mul(self, g, i, expected):
        assert g.floor_mul(i) == expected

    def test_floor_mul_matches_rational_eval_exhaustive(self):
        for g in (Gamma(1, 10), Gamma(1, 4), Gamma(3, 10), Gamma(1, 2)):
            f = g.fraction
            for i in range(20000):
                assert g.floor_mul(i) == math.floor(f * i)

    @pytest.mark.parametrize("g", [Gamma(0, 1), Gamma(1, 10), Gamma(1, 4),
                                   Gamma(1, 10**20), Gamma(10**18 + 1, 10**19)],
                             ids=str)
    def test_array_floors_match_scalar(self, g):
        # j up to 8 keeps num * j inside int64 for every g; up to 299 does not
        for j in (np.arange(9), np.arange(300), np.arange(12).reshape(3, 4)):
            for floor in (g.floor_mul, g.floor_odds_mul):
                got = floor(j)
                assert got.dtype == np.int64 and got.shape == j.shape
                assert got.ravel().tolist() == [floor(int(x)) for x in j.flat]

    def test_array_odds_floor_beyond_int64_names_gamma(self):
        g = Gamma(10**18, 10**18 + 1)  # odds 10**18: j = 9 fits, j = 10 not
        j = np.arange(10)
        assert g.floor_odds_mul(j).tolist() == [10**18 * x for x in range(10)]
        with pytest.raises(ValueError, match=(
                r"^gamma 1000000000000000000/1000000000000000001 is too close "
                r"to 1: floor\(j \* 1000000000000000000/1\) exceeds int64 "
                r"at j = 10$")):
            g.floor_odds_mul(np.arange(11))

    @pytest.mark.parametrize("value", [-1, np.int64(-1)], ids=["int", "int64"])
    def test_scalar_floors_reject_negative(self, value):
        with pytest.raises(ValueError, match="^i must be nonnegative, got -1$"):
            Gamma(1, 10).floor_mul(value)
        with pytest.raises(ValueError, match="^j must be nonnegative, got -1$"):
            Gamma(1, 10).floor_odds_mul(value)

    def test_array_floors_reject_negative(self):
        with pytest.raises(ValueError, match="i must be nonnegative, got -1"):
            Gamma(1, 10).floor_mul(np.array([3, -1]))
        with pytest.raises(ValueError, match="j must be nonnegative, got -2"):
            Gamma(1, 10).floor_odds_mul(np.array([-2]))

    @given(st.integers(0, 10**6), st.sampled_from([(1, 10), (1, 4), (3, 10), (1, 2), (7, 13)]))
    @settings(max_examples=300)
    def test_floor_mul_matches_rational_eval_random(self, i, nd):
        g = Gamma(*nd)
        assert g.floor_mul(i) == math.floor(g.fraction * i)

    @given(st.integers(0, 10**6), st.sampled_from([(1, 10), (1, 4), (3, 10), (0, 1)]))
    @settings(max_examples=300)
    def test_floor_odds_mul_matches_rational_eval(self, j, nd):
        g = Gamma(*nd)
        assert g.floor_odds_mul(j) == math.floor(g.fraction * j / (1 - g.fraction))


class TestKfdp:
    def _res(self, v, r, n=60):
        return RejectionResult(rejected=tuple(range(r)), n=n, v=v, s=r - v)

    @pytest.mark.parametrize("v,r,k,expected", [
        (3, 5, 3, Fraction(3, 5)),   # v >= k branch
        (2, 5, 3, Fraction(0)),      # v < k branch
        (0, 0, 1, Fraction(0)),      # r = 0 convention
    ])
    def test_value(self, v, r, k, expected):
        assert kfdp_value(self._res(v, r), k) == expected

    @pytest.mark.parametrize("v,r,k,g,expected", [
        (1, 10, 1, Gamma(1, 10), False),  # 1/10 not > 1/10
        (2, 10, 1, Gamma(1, 10), True),
        (2, 10, 3, Gamma(1, 10), False),  # v < k
    ])
    def test_exceeds(self, v, r, k, g, expected):
        assert exceeds_gamma(self._res(v, r), k, g) is expected

    def test_exceeds_equivalent_to_value_comparison_exhaustive(self):
        # v > max(gamma r, k-1) must coincide with kfdp > gamma for all
        # counts up to n = 50
        for g in (Gamma(0, 1), Gamma(1, 10), Gamma(1, 4), Gamma(1, 2)):
            for r in range(51):
                for v in range(r + 1):
                    res = self._res(v, r)
                    for k in (1, 2, 5):
                        assert exceeds_gamma(res, k, g) == (
                            kfdp_value(res, k) > g.fraction
                        )

    def test_k1_matches_plain_fdp(self):
        for r in range(1, 30):
            for v in range(r + 1):
                got = kfdp_value(self._res(v, r), 1)
                assert got == (Fraction(v, r) if v >= 1 else Fraction(0))


class TestContainers:
    def test_truth_labels_counts(self):
        t = TruthLabels((True, False, True, True))
        assert (t.n, t.n0, t.n1) == (4, 3, 1)
        assert TruthLabels.nulls_first(5, 2).is_null == (True, True, False, False, False)

    def test_rejection_result_validates(self):
        with pytest.raises(ValueError):
            RejectionResult(rejected=(0, 0), n=3)
        with pytest.raises(ValueError):
            RejectionResult(rejected=(5,), n=3)
        for bad in ((-1,), (3,), (2, -1)):
            with pytest.raises(ValueError, match="out of range"):
                RejectionResult(rejected=bad, n=3)
        with pytest.raises(ValueError):
            RejectionResult(rejected=(0, 1), n=3, v=2, s=1)
        assert RejectionResult(rejected=(2, 0), n=3).rejected == (2, 0)

    def test_constants_validation(self):
        CriticalConstants(values=np.array([0.01, 0.02, 0.02]))
        with pytest.raises(ValueError):
            CriticalConstants(values=np.array([0.02, 0.01]))
        with pytest.raises(ValueError):
            CriticalConstants(values=np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            CriticalConstants(values=np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match="^every constant below rank 3 "
                           "must equal the constant at rank 3$"):
            CriticalConstants(values=np.array([0.1, 0.2, 0.3]), k=3)
        # flattened head passes
        CriticalConstants(values=np.array([0.2, 0.2, 0.3]), k=2)
