import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdpctl import constants as cmod
from fdpctl import oracle, simlab
from fdpctl.core import Gamma
from fdpctl.pairdist import EquicorrelatedPairs, PairwiseNull

G10 = Gamma(1, 10)
G4 = Gamma(1, 4)
INDEP = EquicorrelatedPairs(0.0)  # independence, exact


class TestTemplates:
    def test_lr_hand_values(self):
        tpl = cmod.lr_template(10, G10, 0.05)
        assert tpl[1] == pytest.approx(0.005, abs=1e-15)     # 1*0.05/10
        assert tpl[10] == pytest.approx(0.05, abs=1e-15)     # 2*0.05/(10+2-10)

    @pytest.mark.parametrize("g", [Gamma(0, 1), G10, G4, Gamma(1, 10**20),
                                   Gamma(10**18 + 1, 10**19)], ids=str)
    def test_lr_matches_scalar_floor_loop(self, g):
        # the template as it was computed with one floor_mul call per rank
        for n in (1, 7, 60, 200):
            i = np.arange(n + 1)
            floors = np.array([g.floor_mul(int(j)) for j in i])
            want = (floors + 1) * 0.05 / (n + floors + 1 - i)
            want[0] = 0.0
            assert np.array_equal(cmod.lr_template(n, g, 0.05), want)

    def test_lr_gamma_zero_gives_holm(self):
        tpl = cmod.lr_template(100, Gamma(0, 1), 0.05)
        i = np.arange(1, 101)
        assert np.allclose(tpl[1:], 0.05 / (101 - i), rtol=0, atol=1e-17)

    @pytest.mark.parametrize("kind", ["lr", "bh", "gbs"])
    def test_nondecreasing_in_rank_and_increasing_in_beta(self, kind):
        t = cmod.make_template(kind, 17, gamma=G4)
        prev = None
        for beta in (0.01, 0.05, 0.3, 0.9):
            vals = t.values(beta)
            assert vals[0] == 0.0
            assert np.all(np.diff(vals) >= 0)
            if prev is not None:
                assert np.all(vals[1:] > prev[1:])
            prev = vals

    def test_custom_template(self):
        t = cmod.make_template("custom", 3, custom=[0.2, 0.4, 0.9])
        assert np.allclose(t.values(0.5), [0.0, 0.1, 0.2, 0.45])
        with pytest.raises(ValueError):
            cmod.make_template("custom", 3, custom=[0.4, 0.2, 0.9])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="template values must be finite"):
            cmod.make_template("custom", 3, custom=[bad, 0.2, 0.3])
        with pytest.raises(ValueError, match="template values must be finite"):
            cmod.make_template("custom", 3, custom=[0.1, 0.2, bad])
        vec = np.array([0.0, 0.01, bad, 0.03])
        for report in (cmod.posdep_sd_report, cmod.posdep_su_report,
                       cmod.arbdep_sd_report, cmod.arbdep_su_report):
            with pytest.raises(ValueError,
                               match="template values must be finite"):
                report(vec, G10, 1, 0.05)

    def test_beta_domain(self):
        with pytest.raises(ValueError):
            cmod.make_template("bh", 5).values(1.0)

    def test_make_template_is_the_constructor(self):
        assert cmod.make_template is cmod.Template
        assert np.allclose(cmod.Template("bh", 4).values(0.5),
                           [0.0, 0.125, 0.25, 0.375, 0.5], rtol=0, atol=1e-16)
        # i beta / (n - i (1-beta) + 1) at n = 4, beta = 1/2
        assert np.allclose(cmod.Template("gbs", 4).values(0.5),
                           [0.0, 1 / 9, 1 / 4, 3 / 7, 2 / 3], rtol=0, atol=1e-16)

    @pytest.mark.parametrize("args, kwargs", [
        (("bh", 0), {}), (("gbs", 0), {}), (("lr", -3, G10), {}),
        (("custom", 0), {"custom": []}),
    ], ids=["bh", "gbs", "lr", "custom"])
    def test_n_below_one_rejected(self, args, kwargs):
        with pytest.raises(ValueError, match=r"template needs n >= 1, got n="):
            cmod.Template(*args, **kwargs)

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("build", [
        lambda n: cmod.lr_template(n, G10, 0.05),
        lambda n: cmod.lr_constants(n, G10, 0.05),
    ], ids=["lr_template", "lr_constants"])
    def test_lr_n_below_one_names_n(self, build, n):
        with pytest.raises(ValueError) as err:
            build(n)
        assert str(err.value) == f"lr template needs n >= 1, got n={n}"

    @pytest.mark.parametrize("kind", ["lr", "bh", "gbs"])
    def test_custom_values_need_custom_kind(self, kind):
        with pytest.raises(ValueError,
                           match=f"{kind} template takes no custom values"):
            cmod.Template(kind, 3, gamma=G10, custom=[0.2, 0.4, 0.9])


def levels(mbar):
    """M of one mbar row: the count of increases, as the row is flat past M."""
    return int(np.count_nonzero(np.diff(mbar)))


def maps_at(n, n0, gamma, k):
    """Whole mbar and mt rows for one n0 from _rank_maps, m(0..M) and m*."""
    mbar = cmod._rank_maps("sd", n, gamma, k)[n0 - k]
    mt = cmod._rank_maps("su", n, gamma, k)[n0 - k]
    i = np.arange(levels(mbar) + 1)
    slack = np.where(i > 0, mbar[i] - np.maximum(i, k), 0)
    return mbar, slack, cmod._su_rank_raw(n, gamma)[: n0 + 1], mt


class TestIndexMaps:
    def test_hand_example(self):
        mbar, slack, raw, mt = maps_at(10, 7, G10, 1)
        assert levels(mbar) == 1      # M = 1 level
        assert slack[1] == 3          # all j <= 3 satisfy floor(j/9)+1 = 1
        assert raw[1] == 9            # floor(0.1 j) = 0 up to j = 9
        assert mt[1] == 4             # min(9, 1 + 3)
        assert mbar.size == mt.size == 11

    def test_gamma_zero(self):
        mbar, slack, raw, _ = maps_at(12, 5, Gamma(0, 1), 1)
        assert levels(mbar) == 1
        assert slack[1] == 7          # m(1) = n1
        assert np.all(raw[1:] == 12)

    def test_matches_naive_maps(self):
        # every row: M, mbar on 1..M and mt on 0..n0 match the literal maps,
        # and the row repeats its last rank after that
        for n in range(1, 31):
            for g in (Gamma(0, 1), G10, G4, Gamma(1, 3), Gamma(1, 2),
                      Gamma(1, 10**20), Gamma(10**18 + 1, 10**19)):
                for k in sorted({1, 2, 3, n} & set(range(1, n + 1))):
                    mbars = cmod._rank_maps("sd", n, g, k)
                    mts = cmod._rank_maps("su", n, g, k)
                    assert mbars.shape == mts.shape == (n - k + 1, n + 1)
                    for n0, mbar, mt in zip(range(k, n + 1), mbars, mts):
                        n1 = n - n0
                        m_cap = levels(mbar)
                        assert m_cap == oracle.naive_levels(n0, n1, g)
                        assert mbar[0] == 0
                        for i in range(1, m_cap + 1):
                            m = oracle.naive_sd_slack(i, n1, g)
                            assert mbar[i] == max(i, k) + m
                        assert np.all(mbar[m_cap:] == mbar[m_cap])
                        for i in range(n0 + 1):
                            assert mt[i] == oracle.naive_su_rank(i, n, n1, g)
                        assert np.all(mt[n0:] == mt[n0])

    def test_structural_invariants(self):
        for n, n0, k in [(15, 6, 1), (15, 15, 2), (20, 11, 5)]:
            mbar, slack, _, mt = maps_at(n, n0, G4, k)
            n1 = n - n0
            assert 1 <= levels(mbar) <= n0
            assert slack[0] == 0 and mbar[0] == 0
            assert np.all(np.diff(mbar) >= 0)
            assert np.all(np.diff(slack) >= 0)
            assert np.all(slack <= n1)
            assert np.all(mt <= n)
            assert mt[0] == 0
            assert np.all(np.diff(mt) >= 0)

    def test_su_rows_strictly_increase(self):
        # pair_su_bound's rectangle product reads s > i as mt_s > mt_i
        for n in range(1, 41):
            for g in (Gamma(0, 1), G10, G4, Gamma(1, 3), Gamma(1, 2),
                      Gamma(2, 3), Gamma(9, 10)):
                for k in sorted({1, 2, 3, n} & set(range(1, n + 1))):
                    mts = cmod._rank_maps("su", n, g, k)
                    for n0, mt in enumerate(mts, k):
                        assert mt[0] == 0
                        assert np.all(np.diff(mt[:n0 + 1]) > 0)
                        # mt_n0 = min(m*(n0), n) reaches n once n0 > floor(g n)
                        assert (mt[n0] == n) == (n0 > g.floor_mul(n))

    def test_skipped_levels_rejected(self):
        # gamma = 3/4 jumps the stepdown level map past integers
        with pytest.raises(ValueError, match="gamma <= 1/2"):
            cmod._rank_maps("sd", 10, Gamma(3, 4), 1)

    def test_preconditions(self):
        for direction in ("sd", "su"):
            with pytest.raises(ValueError, match="need 1 <= k <= n"):
                cmod._rank_maps(direction, 5, G10, 6)


class TestMarginalFamilies:
    def test_lr_scale_identity_small(self):
        for g in (Gamma(1, 20), G10, G4, Gamma(3, 10)):
            for n in (2, 7, 23, 64):
                tpl = cmod.lr_template(n, g, 0.05)
                assert cmod.posdep_sd_report(tpl, g, 1, 0.05).scale == \
                    pytest.approx(0.05, rel=1e-13)
                assert cmod.posdep_su_report(tpl, g, 1, 0.05).scale == \
                    pytest.approx(0.05, rel=1e-13)

    def test_termwise_bound_for_lr_template(self):
        # each stepdown enumeration term n0 tpl[i + m(i)] / i stays <= alpha
        alpha = 0.05
        for n in (5, 12, 30):
            tpl = cmod.lr_template(n, G10, alpha)
            for n0, mbar in enumerate(cmod._rank_maps("sd", n, G10, 1), 1):
                for i in range(1, mbar.size):
                    term = n0 * tpl[mbar[i]] / i
                    assert term <= alpha + 1e-15

    def test_regression_baselines(self):
        # frozen from the literal-loop implementation before optimization
        tpl_bh = cmod.make_template("bh", 10).values(0.05)
        assert cmod.posdep_sd_report(tpl_bh, G10, 1, 0.05).scale == \
            pytest.approx(0.15, rel=1e-12)
        tpl_gbs = cmod.make_template("gbs", 10).values(0.05)
        assert cmod.posdep_su_report(tpl_gbs, G10, 1, 0.05).scale == \
            pytest.approx(0.36734693877551006, rel=1e-12)
        tpl_lr = cmod.lr_template(10, G10, 0.05)
        assert cmod.arbdep_sd_report(tpl_lr, G10, 2, 0.05).scale == \
            pytest.approx(0.05, rel=1e-12)
        assert cmod.arbdep_su_report(tpl_lr, G10, 2, 0.05).scale == \
            pytest.approx(0.08052248677248677, rel=1e-12)

    def test_k_equals_n_collapses_to_single_term(self):
        n = 9
        tpl = cmod.make_template("bh", n).values(0.05)
        rep = cmod.posdep_sd_report(tpl, G10, n, 0.05)
        (mbar,) = cmod._rank_maps("sd", n, G10, n)
        (mt,) = cmod._rank_maps("su", n, G10, n)
        assert rep.scale == pytest.approx(n * tpl[mbar[1]] / n, rel=1e-14)
        rep_su = cmod.posdep_su_report(tpl, G10, n, 0.05)
        assert rep_su.scale == pytest.approx(tpl[mt[n]], rel=1e-14)

    def test_sd_families_coincide_when_single_level(self):
        # gamma n1/(1-gamma) < 1 for every n0 makes the telescope one term
        n, g = 5, G10
        tpl = cmod.lr_template(n, g, 0.05)
        for k in (1, 2):
            a = cmod.posdep_sd_report(tpl, g, k, 0.05).scale
            b = cmod.arbdep_sd_report(tpl, g, k, 0.05).scale
            assert a == pytest.approx(b, rel=1e-14)

    def test_su_constant_template_collapse(self):
        # constant base values make the stepup telescope vanish: C = n t / k
        n, t = 8, 0.4
        tpl = cmod.make_template("custom", n, custom=[t] * n).values(0.5)
        for k in (1, 2, 3):
            rep = cmod.arbdep_su_report(tpl, G10, k, 0.01)
            assert rep.scale == pytest.approx(n * 0.5 * t / k, rel=1e-14)

    def test_k1_matches_worst_case_bound_functionals(self):
        for n in (6, 11):
            for g in (G10, G4):
                tpl = cmod.lr_template(n, g, 0.05)
                assert cmod.arbdep_sd_report(tpl, g, 1, 0.05).scale == \
                    pytest.approx(oracle.naive_arbdep_sd_scale(tpl, n, g, 1), rel=1e-13)
                assert cmod.sd_marginal_bound(tpl, g) == \
                    pytest.approx(oracle.naive_arbdep_sd_scale(tpl, n, g, 1), rel=1e-13)
                assert cmod.su_marginal_bound(tpl, g) == \
                    pytest.approx(oracle.naive_arbdep_su_scale(tpl, n, g, 1), rel=1e-13)

    def test_report_reproduces_constants_from_scale(self):
        tpl = cmod.make_template("bh", 12).values(0.05)
        for fn, k in ((cmod.posdep_sd_report, 2), (cmod.posdep_su_report, 3),
                      (cmod.arbdep_sd_report, 1), (cmod.arbdep_su_report, 2)):
            rep = fn(tpl, G10, k, 0.05)
            ranks = np.maximum(np.arange(1, 13), k)
            expect = 0.05 * tpl[ranks] / rep.scale
            assert np.allclose(rep.constants.values, expect, rtol=1e-12, atol=0)
            assert rep.constants.k == k

    def test_positively_homogeneous_in_alpha(self):
        tpl = cmod.lr_template(15, G4, 0.05)
        for fn in (cmod.posdep_sd_report, cmod.posdep_su_report,
                   cmod.arbdep_sd_report, cmod.arbdep_su_report):
            lo = fn(tpl, G4, 2, 0.02).constants.values
            hi = fn(tpl, G4, 2, 0.04).constants.values
            assert np.allclose(hi, 2 * lo, rtol=1e-12, atol=0)

    def test_degenerate_template_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            cmod.posdep_sd_report(np.zeros(11), G10, 1, 0.05)

    @pytest.mark.parametrize("k", [0, -1, 6])
    def test_direct_calls_reject_k_outside_one_to_n(self, k):
        tmpl = cmod.make_template("lr", 5, gamma=G10)
        tpl = tmpl.values(0.05)
        F = EquicorrelatedPairs(0.3)
        calls = [lambda: cmod.posdep_sd_report(tpl, G10, k, 0.05),
                 lambda: cmod.posdep_su_report(tpl, G10, k, 0.05),
                 lambda: cmod.arbdep_sd_report(tpl, G10, k, 0.05),
                 lambda: cmod.arbdep_su_report(tpl, G10, k, 0.05),
                 lambda: cmod.pair_sd_bound(tmpl, G10, k, F, 0.05),
                 lambda: cmod.pair_su_bound(tmpl, G10, k, F, 0.05)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValueError, match="need 1 <= k <= n"):
                    call()

    def test_worst_n0_is_first_argmax(self):
        # values[j] is the bound at n0 = k + j
        assert cmod._worst_over_n0([1.0, 3.0, 3.0, 2.0], 1) == (3.0, 2)
        assert cmod._worst_over_n0([1.0, 3.0, 3.0, 2.0], 3) == (3.0, 4)

    def test_worst_case_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN at n0=3"):
            cmod._worst_over_n0([1.0, 3.0, math.nan, math.nan], 1)
        with pytest.raises(ValueError, match="NaN at n0=1"):
            cmod._worst_over_n0([math.nan] * 4, 1)


@st.composite
def marginal_problems(draw):
    """(n, gamma, k, template kind, custom base values), n <= 12, gamma <= 1/2."""
    n = draw(st.integers(1, 12))
    den = draw(st.integers(2, 20))
    gamma = Gamma(draw(st.integers(0, den // 2)), den)
    k = draw(st.integers(1, n))
    kind = draw(st.sampled_from(["lr", "bh", "gbs", "custom"]))
    custom = None
    if kind == "custom":
        custom = sorted(draw(st.lists(st.floats(0.01, 1.0), min_size=n,
                                      max_size=n)))
    return n, gamma, k, kind, custom


class TestMarginalDifferential:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(marginal_problems())
    @example((12, Gamma(1, 2), 1, "lr", None))
    @example((9, Gamma(1, 2), 4, "custom", [0.1] * 4 + [0.5] * 5))
    def test_reports_and_bounds_match_naive_twins(self, problem):
        n, g, k, kind, custom = problem
        tpl = cmod.make_template(kind, n, gamma=g, custom=custom).values(0.05)
        pairs = ((cmod.posdep_sd_report, oracle.naive_posdep_sd_scale),
                 (cmod.posdep_su_report, oracle.naive_posdep_su_scale),
                 (cmod.arbdep_sd_report, oracle.naive_arbdep_sd_scale),
                 (cmod.arbdep_su_report, oracle.naive_arbdep_su_scale))
        for report, naive in pairs:
            # a small alpha keeps steep custom templates below 1 after rescaling
            got = report(tpl, g, k, 1e-4).scale
            assert got == pytest.approx(naive(tpl, n, g, k), rel=1e-12)
        assert cmod.sd_marginal_bound(tpl, g) == pytest.approx(
            oracle.naive_arbdep_sd_scale(tpl, n, g, 1), rel=1e-12)
        assert cmod.su_marginal_bound(tpl, g) == pytest.approx(
            oracle.naive_arbdep_su_scale(tpl, n, g, 1), rel=1e-12)


class TestFamilyRegistry:
    N, K, ALPHA = 12, 2, 0.05
    F = EquicorrelatedPairs(0.3)

    def direct(self, family, template):
        n, k, alpha, F = self.N, self.K, self.ALPHA, self.F
        tmpl = cmod.make_template(template, n, gamma=G10)
        tpl = tmpl.values(alpha)
        builders = {
            "lr": lambda: cmod.lr_constants(n, G10, alpha),
            "thm32": lambda: cmod.posdep_sd_report(tpl, G10, k, alpha),
            "thm33": lambda: cmod.posdep_su_report(tpl, G10, k, alpha),
            "thm34": lambda: cmod.pairwise_lr_report(n, G10, k, alpha, F),
            "thm35": lambda: cmod.arbdep_sd_report(tpl, G10, k, alpha),
            "thm36": lambda: cmod.arbdep_su_report(tpl, G10, k, alpha),
            "thm37": lambda: cmod.calibrate_pair_scale("sd", tmpl, G10, k,
                                                       alpha, F),
            "thm38": lambda: cmod.calibrate_pair_scale("su", tmpl, G10, k,
                                                       alpha, F),
        }
        assert set(builders) == set(cmod.FAMILIES)
        return builders[family]().constants.values

    @pytest.mark.parametrize("template", ["lr", "bh"])
    def test_family_report_matches_direct_call(self, template):
        for family in cmod.FAMILIES:
            got = cmod.family_report(family, self.N, G10, self.K, self.ALPHA,
                                     template=template, F=self.F)
            assert np.array_equal(got.constants.values,
                                  self.direct(family, template))

    def test_scale_is_a_plain_float(self):
        # a numpy scalar would print as np.float64(...) in the CLI's C row
        for family in cmod.FAMILIES:
            rep = cmod.family_report(family, self.N, G10, self.K, self.ALPHA,
                                     F=self.F)
            assert rep.scale is None or type(rep.scale) is float, family
            assert rep.beta_star is None or type(rep.beta_star) is float

    def test_procedure_tokens_resolve_through_registry(self):
        for token, (family, direction) in simlab.PROCEDURE_TOKENS.items():
            spec = simlab.build_procedure(token, k=self.K, template="bh")
            assert spec.family == family and spec.direction == direction
            assert cmod.FAMILIES[family].direction in (None, direction)
            assert spec.uses_pairwise == cmod.FAMILIES[family].pairwise
            got = simlab.procedure_constants(spec, self.N, G10, self.ALPHA,
                                             F=self.F)
            assert np.array_equal(got.values, self.direct(family, "bh"))

    def test_unknown_family_and_missing_model(self):
        with pytest.raises(ValueError, match="unknown constants family"):
            cmod.family_report("thm99", 10, G10, 1, 0.05)
        with pytest.raises(ValueError, match="pairwise null model"):
            cmod.family_report("thm37", 10, G10, 1, 0.05)

    @pytest.mark.parametrize("n, k", [(0, 1), (10, 0), (5, 6)])
    def test_k_outside_one_to_n_rejected(self, n, k):
        for family in cmod.FAMILIES:
            with pytest.raises(ValueError, match="need 1 <= k <= n"):
                cmod.family_report(family, n, G10, k, 0.05, F=self.F)


class FlatCopula(PairwiseNull):
    """F(u, v) = 0.01 min(u, v): little mass, so pairwise LR inflates a lot."""

    def cdf(self, u, v):
        return 0.01 * np.minimum(u, v)


@pytest.mark.parametrize("build, top", [
    (lambda: cmod.posdep_sd_report(np.array([0, .024, .066, .164, .964]),
                                   Gamma(1, 2), 2, 0.99), "3.87951"),
    (lambda: cmod.arbdep_sd_report(np.array([0, .024, .066, .164, .964]),
                                   Gamma(1, 2), 2, 0.99), "3.87951"),
    (lambda: cmod.pairwise_lr_report(10, G10, 2, 0.5, FlatCopula()),
     "5.55556"),
    (lambda: cmod.lr_constants(5, G10, 1.2), "1.2"),
], ids=["posdep_sd", "arbdep_sd", "pairwise_lr", "lr"])
def test_constants_reaching_one_ask_for_lower_alpha(build, top):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == f"constants reach {top} >= 1; lower alpha"


@pytest.mark.parametrize("report", [cmod.posdep_sd_report,
                                    cmod.arbdep_sd_report],
                         ids=["posdep_sd", "arbdep_sd"])
def test_zero_worst_case_scale_names_the_template(report):
    # at gamma 1/2 every stepdown rank the bound reads is below 4, where
    # this template is 0, so C = 0 and alpha / C is undefined
    with pytest.raises(ValueError) as err:
        report(np.array([0, 0, 0, 0, 0.5]), Gamma(1, 2), 1, 0.05)
    assert str(err.value) == (
        "degenerate template: worst-case C = 0 <= 0, so the template is "
        "zero at every rank the bound reads")


@pytest.mark.parametrize("report", [cmod.posdep_su_report,
                                    cmod.arbdep_su_report],
                         ids=["posdep_su", "arbdep_su"])
def test_zero_prefix_template_names_the_rank(report):
    # stepup reads rank 4 at gamma 1/2, so C > 0, but the rescaled
    # constants are 0 at ranks 1-3
    with pytest.raises(ValueError) as err:
        report(np.array([0, 0, 0, 0, 0.5]), Gamma(1, 2), 1, 0.05)
    assert str(err.value) == (
        "degenerate template: the constant at rank 1 is 0 <= 0; the "
        "template must be positive at every rank >= k = 1")


class TestPairwiseLr:
    def test_independence_hand_expansion(self):
        # with F(u|v) = u the inner bracket telescopes to
        # (alpha/n0) (1 + H_{n0-1}) for k = 2
        n, alpha = 10, 0.05
        rep = cmod.pairwise_lr_report(n, G10, 2, alpha, INDEP)
        best = max(
            (n0 - 1) * (alpha / n0) * (1.0 + sum(1.0 / l for l in range(1, n0)))
            for n0 in range(2, n + 1)
        )
        assert rep.scale == pytest.approx(best, rel=1e-12)
        assert rep.scale == pytest.approx(
            oracle.naive_pairwise_lr_scale(n, 2, alpha, INDEP), rel=1e-12)

    def test_comonotone_clamps_to_plain_lr(self):
        n, k, alpha = 8, 2, 0.05
        rep = cmod.pairwise_lr_report(n, G10, k, alpha,
                                      EquicorrelatedPairs(1.0))
        assert rep.scale >= (n - 1) / (k - 1) - 1e-12
        base = cmod.lr_template(n, G10, alpha)
        expect = base[np.maximum(np.arange(1, n + 1), k)]
        assert np.allclose(rep.constants.values, expect, rtol=0, atol=0)

    def test_small_scale_inflates_constants(self):
        n, k, alpha = 10, 2, 0.05
        rep = cmod.pairwise_lr_report(n, G10, k, alpha, INDEP)
        assert rep.scale < 1.0
        base = cmod.lr_template(n, G10, alpha)
        flattened = base[np.maximum(np.arange(1, n + 1), k)]
        assert np.all(rep.constants.values > flattened)

    def test_k1_rejected(self):
        with pytest.raises(ValueError, match="k >= 2"):
            cmod.pairwise_lr_report(10, G10, 1, 0.05, INDEP)
        with pytest.raises(ValueError, match="need 1 <= k <= n"):
            cmod.pairwise_lr_report(10, G10, 11, 0.05, INDEP)

    def test_degenerate_model_rejected(self):
        class Countermonotone(PairwiseNull):
            def cdf(self, u, v):
                return np.maximum(np.asarray(u) + np.asarray(v) - 1.0, 0.0)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no lower-tail mass"):
                cmod.pairwise_lr_report(10, G10, 2, 0.05, Countermonotone())


class NanAtRanks(PairwiseNull):
    """Independence, except NaN at the ranks (a, b) of template vector tpl."""

    def __init__(self, tpl, a, b):
        self.pair = (tpl[a], tpl[b])

    def cdf(self, u, v):
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        a, b = self.pair
        hit = ((u == a) & (v == b)) | ((u == b) & (v == a))
        return np.where(hit, np.nan, u * v)


class TestPairBounds:
    def test_matches_naive_on_small_instances(self):
        for n in (4, 6):
            for g in (G10, G4):
                for k in (1, 2):
                    tmpl = cmod.make_template("lr", n, gamma=g)
                    for F in (INDEP, EquicorrelatedPairs(0.5)):
                        for beta in (0.05, 0.3):
                            got = cmod.pair_sd_bound(tmpl, g, k, F, beta).value
                            want = oracle.naive_pair_sd_bound(tmpl, g, k, F, beta)
                            assert got == pytest.approx(want, rel=1e-12)
                            got = cmod.pair_su_bound(tmpl, g, k, F, beta).value
                            want = oracle.naive_pair_su_bound(tmpl, g, k, F, beta)
                            assert got == pytest.approx(want, rel=1e-12)

    def test_never_exceeds_marginal_only_bounds(self):
        for n in (8, 15):
            tmpl = cmod.make_template("lr", n, gamma=G10)
            for F in (INDEP, EquicorrelatedPairs(0.5)):
                for beta in (0.02, 0.05):
                    vals = tmpl.values(beta)
                    assert cmod.pair_sd_bound(tmpl, G10, 1, F, beta).value <= \
                        cmod.sd_marginal_bound(vals, G10)
                    assert cmod.pair_su_bound(tmpl, G10, 1, F, beta).value <= \
                        cmod.su_marginal_bound(vals, G10)

    def test_vanishes_as_beta_to_zero(self):
        tmpl = cmod.make_template("lr", 8, gamma=G10)
        F = INDEP
        assert cmod.pair_sd_bound(tmpl, G10, 1, F, 1e-9).value < 1e-6
        assert cmod.pair_su_bound(tmpl, G10, 1, F, 1e-9).value < 1e-6

    def test_nan_from_F_is_not_dropped(self):
        # F is NaN where an argument exceeds 0.004; the worst case used to
        # skip those n0 (su: 0.0042 at n0 = 1, against 0.0747 at n0 = 12
        # under independence) and calibration then claimed beta* = 0.6
        class NanAbove(PairwiseNull):
            def cdf(self, u, v):
                u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
                return np.where(np.maximum(u, v) > 0.004, np.nan, u * v)

        tmpl = cmod.make_template("lr", 20, gamma=G10)
        F = NanAbove()
        with pytest.raises(ValueError, match=r"NaN at n0=\d+"):
            cmod.pair_sd_bound(tmpl, G10, 1, F, 0.05)
        with pytest.raises(ValueError, match="NaN at n0=2$"):
            cmod.pair_su_bound(tmpl, G10, 1, F, 0.05)
        with pytest.raises(ValueError, match=r"NaN at n0=\d+"):
            cmod.calibrate_pair_scale("su", tmpl, G10, 1, 0.05, F)
        # one NaN pair reaches only the rows that read it (first at n0 = 12),
        # not every row that holds rank 9 or 10
        F = NanAtRanks(tmpl.values(0.05), 9, 10)
        with pytest.raises(ValueError, match="NaN at n0=12$"):
            cmod.pair_su_bound(tmpl, G10, 1, F, 0.05)

    @pytest.mark.parametrize("d", ["sd", "su"])
    def test_nan_rows_are_those_the_naive_twin_reads(self, d):
        # one NaN rank pair at a time: the bound raises exactly when the
        # literal twin, which reads F only where the bound's terms do, is NaN
        tmpl = cmod.make_template("lr", 7, gamma=G4)
        bound = getattr(cmod, f"pair_{d}_bound")
        naive = getattr(oracle, f"naive_pair_{d}_bound")
        raised = 0
        for k in (1, 2, 3):
            for a in range(8):
                for b in range(a, 8):
                    F = NanAtRanks(tmpl.values(0.05), a, b)
                    if math.isnan(naive(tmpl, G4, k, F, 0.05)):
                        raised += 1
                        with pytest.raises(ValueError, match="NaN at n0="):
                            bound(tmpl, G4, k, F, 0.05)
                    else:
                        bound(tmpl, G4, k, F, 0.05)
        assert raised > 0

    @pytest.mark.parametrize("d, ranks", [("sd", (9, 11)), ("su", (1, 2))])
    def test_naive_twins_return_nan(self, d, ranks):
        # Python's min and max skip a NaN total: the su twin returned 0.0747
        tmpl = cmod.make_template("lr", 20, gamma=G10)
        F = NanAtRanks(tmpl.values(0.05), *ranks)
        assert math.isnan(getattr(oracle, f"naive_pair_{d}_bound")(
            tmpl, G10, 1, F, 0.05))
        with pytest.raises(ValueError, match=r"NaN at n0=\d+"):
            getattr(cmod, f"pair_{d}_bound")(tmpl, G10, 1, F, 0.05)

    def test_product_rectangle_mass(self):
        # under independence the rectangle mass factorizes into increments
        tmpl = cmod.make_template("bh", 5)
        vals = tmpl.values(0.4)
        grid = cmod._pair_matrix(INDEP, vals, *np.triu_indices(vals.size))
        rect = grid[1:, 1:] - grid[:-1, 1:] - grid[1:, :-1] + grid[:-1, :-1]
        d = np.diff(vals)
        assert np.allclose(rect, np.outer(d, d), rtol=1e-12, atol=1e-18)


# (beta, direction, gamma, k) -> (value, worst_n0) of pair_{sd,su}_bound with
# the lr template.  The gamma 1/10, k 1 cells are frozen from the full-grid
# evaluation (one F.cdf per ordered pair, 48-node bvn panels, reversed-cumsum
# stepup); the k 3 cells at gamma 1/4 and 1/2, which reach the M-boundary
# terms of the stepdown bound, from the per-n0 rank-map evaluation
PAIR_BOUNDS_FROZEN = {
    (60, "independence"): {
        (0.01, "sd", "1/10", 1): (0.01000184766214178, 51),
        (0.01, "su", "1/10", 1): (0.013297684596820711, 52),
        (0.024, "sd", "1/10", 1): (0.0246567963800905, 51),
        (0.024, "su", "1/10", 1): (0.03314401922073761, 43),
        (0.05, "sd", "1/10", 1): (0.053892345399698345, 51),
        (0.05, "su", "1/10", 1): (0.07399993181539596, 43),
        (0.01, "sd", "1/2", 3): (0.006810734463276837, 59),
        (0.01, "su", "1/2", 3): (0.01236708456377863, 56),
        (0.05, "sd", "1/2", 3): (0.03782488939734967, 54),
        (0.05, "su", "1/2", 3): (0.07147189439072801, 55),
        (0.01, "sd", "1/4", 3): (0.006783625730994152, 58),
        (0.01, "su", "1/4", 3): (0.0116678100824576, 52),
        (0.05, "sd", "1/4", 3): (0.03575784157363105, 55),
        (0.05, "su", "1/4", 3): (0.0646062681100245, 49),
    },
    (60, 0.3): {
        (0.01, "sd", "1/10", 1): (0.012744170028481812, 51),
        (0.01, "su", "1/10", 1): (0.015396402662961592, 43),
        (0.024, "sd", "1/10", 1): (0.03508200763759192, 51),
        (0.024, "su", "1/10", 1): (0.04084673174438862, 43),
        (0.05, "sd", "1/10", 1): (0.08293765097088998, 42),
        (0.05, "su", "1/10", 1): (0.09433405381783791, 43),
        (0.01, "sd", "1/2", 3): (0.009211188361202254, 54),
        (0.01, "su", "1/2", 3): (0.01436481385675972, 55),
        (0.05, "sd", "1/2", 3): (0.06985749903556356, 52),
        (0.05, "su", "1/2", 3): (0.09189368593394942, 54),
        (0.01, "sd", "1/4", 3): (0.008313514506916163, 55),
        (0.01, "su", "1/4", 3): (0.012945388228395126, 49),
        (0.05, "sd", "1/4", 3): (0.05947352054177969, 48),
        (0.05, "su", "1/4", 3): (0.07885196060729811, 46),
    },
    (60, 0.9): {
        (0.01, "sd", "1/10", 1): (0.018157687046195935, 33),
        (0.01, "su", "1/10", 1): (0.026555141978698286, 34),
        (0.024, "sd", "1/10", 1): (0.04357844891087025, 33),
        (0.024, "su", "1/10", 1): (0.06479368782713349, 34),
        (0.05, "sd", "1/10", 1): (0.0907884352309797, 33),
        (0.05, "su", "1/10", 1): (0.13702011802815725, 34),
    },
    (200, "independence"): {
        (0.01, "sd", "1/10", 1): (0.010146348712914486, 191),
        (0.01, "su", "1/10", 1): (0.014118042120265906, 174),
        (0.024, "sd", "1/10", 1): (0.025017968586387437, 191),
        (0.024, "su", "1/10", 1): (0.035506520438080946, 174),
        (0.05, "sd", "1/10", 1): (0.05470038448952879, 191),
        (0.05, "su", "1/10", 1): (0.08102511247747363, 165),
        (0.01, "sd", "1/2", 3): (0.00681645357178279, 195),
        (0.05, "sd", "1/2", 3): (0.042274678736354626, 182),
        (0.01, "sd", "1/4", 3): (0.006747200312377977, 195),
        (0.05, "sd", "1/4", 3): (0.03841234304958224, 182),
        (0.01, "su", "1/2", 3): (0.012940474222448787, 191),
        (0.05, "su", "1/2", 3): (0.08215947954391752, 185),
        (0.01, "su", "1/4", 3): (0.012008990437225829, 180),
        (0.05, "su", "1/4", 3): (0.07187102698318687, 171),
    },
    (200, 0.3): {
        (0.01, "sd", "1/10", 1): (0.016272682186502414, 173),
        (0.01, "su", "1/10", 1): (0.01884042788568783, 156),
        (0.024, "sd", "1/10", 1): (0.049264916921931336, 164),
        (0.024, "su", "1/10", 1): (0.051360869397628156, 156),
        (0.05, "sd", "1/10", 1): (0.11592911844132926, 146),
        (0.05, "su", "1/10", 1): (0.12024159510208228, 147),
        (0.01, "sd", "1/2", 3): (0.013146563312763117, 185),
        (0.05, "sd", "1/2", 3): (0.11517429406806685, 181),
        (0.01, "sd", "1/4", 3): (0.011732981139375091, 176),
        (0.05, "sd", "1/4", 3): (0.10034077349326137, 170),
        (0.01, "su", "1/2", 3): (0.018135802498859748, 186),
        (0.05, "su", "1/2", 3): (0.1331186987858453, 182),
        (0.01, "su", "1/4", 3): (0.015751336644311546, 171),
        (0.05, "su", "1/4", 3): (0.11249292048162811, 162),
    },
    (200, 0.9): {
        (0.01, "sd", "1/10", 1): (0.02394110389481093, 119),
        (0.01, "su", "1/10", 1): (0.03336903147749044, 129),
        (0.024, "sd", "1/10", 1): (0.057458649347546235, 119),
        (0.024, "su", "1/10", 1): (0.08121417214710897, 129),
        (0.05, "sd", "1/10", 1): (0.11970551947405464, 119),
        (0.05, "su", "1/10", 1): (0.17133598782653495, 129),
    },
}


class TestPairBoundsFrozen:
    """The differential tests stop at n <= 9; these pin n = 60 and 200."""

    @pytest.mark.parametrize("n, model", list(PAIR_BOUNDS_FROZEN))
    def test_value_and_worst_n0(self, n, model):
        F = EquicorrelatedPairs(0.0 if model == "independence" else model)
        for (beta, d, g, k), (value, worst_n0) in \
                PAIR_BOUNDS_FROZEN[n, model].items():
            gamma = Gamma.parse(g)
            tmpl = cmod.make_template("lr", n, gamma=gamma)
            got = getattr(cmod, f"pair_{d}_bound")(tmpl, gamma, k, F, beta)
            assert got.value == pytest.approx(value, rel=1e-13, abs=0)
            assert got.worst_n0 == worst_n0


# (report, template, k) -> (scale, worst_n0) of the marginal families at
# n = 200, gamma = 1/10, template scale 0.05, frozen from the per-n0 loop
MARGINAL_FROZEN = {
    ("posdep_sd", "lr", 1): (0.05000000000000002, 152),
    ("posdep_sd", "lr", 3): (0.05000000000000002, 152),
    ("posdep_sd", "bh", 1): (0.4346250000000001, 183),
    ("posdep_sd", "bh", 3): (0.4205000000000001, 174),
    ("posdep_sd", "gbs", 1): (0.874267782426777, 21),
    ("posdep_sd", "gbs", 3): (0.874267782426777, 21),
    ("posdep_su", "lr", 1): (0.05000000000000002, 152),
    ("posdep_su", "lr", 3): (0.05000000000000002, 152),
    ("posdep_su", "bh", 1): (0.4346250000000001, 183),
    ("posdep_su", "bh", 3): (0.4205000000000001, 174),
    ("posdep_su", "gbs", 1): (0.9090909090909092, 23),
    ("posdep_su", "gbs", 3): (0.9090909090909092, 23),
    ("arbdep_sd", "lr", 1): (0.11970551947405464, 119),
    ("arbdep_sd", "lr", 3): (0.09507401411042042, 101),
    ("arbdep_sd", "bh", 1): (0.8681785714285715, 146),
    ("arbdep_sd", "bh", 3): (0.5997827380952382, 137),
    ("arbdep_sd", "gbs", 1): (1.148974948572179, 110),
    ("arbdep_sd", "gbs", 3): (1.076380191921677, 21),
    ("arbdep_su", "lr", 1): (0.18915975970538942, 129),
    ("arbdep_su", "lr", 3): (0.16166403321764433, 111),
    ("arbdep_su", "bh", 1): (0.982030661667432, 156),
    ("arbdep_su", "bh", 3): (0.6970647479603264, 143),
    ("arbdep_su", "gbs", 1): (2.303676448776793, 120),
    ("arbdep_su", "gbs", 3): (2.0749067532441345, 102),
}


class TestMarginalFrozen:
    """The naive twins stop at n <= 12; these pin n = 200 bit for bit."""

    @pytest.mark.parametrize("report, kind, k", list(MARGINAL_FROZEN))
    def test_scale_and_worst_n0(self, report, kind, k):
        tpl = cmod.make_template(kind, 200, gamma=G10).values(0.05)
        got = getattr(cmod, f"{report}_report")(tpl, G10, k, 0.05)
        assert (got.scale, got.worst_n0) == MARGINAL_FROZEN[report, kind, k]


@st.composite
def pair_problems(draw):
    """marginal_problems at n <= 9, plus a pairwise model and a scale beta."""
    n, gamma, k, kind, custom = draw(marginal_problems().filter(
        lambda p: p[0] <= 9))
    model = draw(st.sampled_from(["independence", "comonotone", "equicorr"]))
    if model == "independence":
        F = INDEP
    elif model == "comonotone":
        F = EquicorrelatedPairs(1.0)
    else:
        F = EquicorrelatedPairs(draw(st.floats(-0.9, 0.95, exclude_min=True,
                                               exclude_max=True)))
    beta = draw(st.floats(0.005, 0.5))
    return n, gamma, k, kind, custom, F, beta


class TestPairDifferential:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(pair_problems())
    @example((9, Gamma(1, 2), 1, "lr", None, EquicorrelatedPairs(0.5), 0.05))
    @example((9, Gamma(1, 2), 3, "custom", [0.1] * 4 + [0.5] * 5,
              EquicorrelatedPairs(-1.0), 0.3))
    def test_pair_bounds_match_naive_twins(self, problem):
        n, g, k, kind, custom, F, beta = problem
        tmpl = cmod.make_template(kind, n, gamma=g, custom=custom)
        for bound, naive in ((cmod.pair_sd_bound, oracle.naive_pair_sd_bound),
                             (cmod.pair_su_bound, oracle.naive_pair_su_bound)):
            got = bound(tmpl, g, k, F, beta).value
            assert got == pytest.approx(naive(tmpl, g, k, F, beta), rel=1e-12)


class TestPairPlan:
    CASES = [(d, n, g, k) for n in (12, 60) for k in (1, 3)
             for g in (G10, G4) for d in ("sd", "su")]
    F = EquicorrelatedPairs(0.3)

    def bound(self, d, n, g, k):
        tmpl = cmod.make_template("lr", n, gamma=g)
        got = getattr(cmod, f"pair_{d}_bound")(tmpl, g, k, self.F, 0.05)
        return got.value.hex(), got.worst_n0

    def test_warm_plans_give_the_cold_bits(self):
        cold = {}
        for case in self.CASES:
            cmod._pair_plan.cache_clear()
            cold[case] = self.bound(*case)
        cmod._pair_plan.cache_clear()
        # runs of four that alternate direction and gamma at one (n, k),
        # forward, back and forward: the two-entry memo serves every case
        # warm at least once, next to plans of the other gamma
        warm = set()
        for at in range(0, len(self.CASES), 4):
            run = self.CASES[at:at + 4]
            for case in run + run[::-1] + run:
                hits = cmod._pair_plan.cache_info().hits
                assert self.bound(*case) == cold[case], case
                if cmod._pair_plan.cache_info().hits > hits:
                    warm.add(case)
        assert warm == set(self.CASES)

    @pytest.mark.parametrize("d, n, g, k", CASES)
    def test_plan_arrays_are_read_only(self, d, n, g, k):
        for arr in cmod._pair_plan(d, n, g, k):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 0

    @pytest.mark.parametrize("d", ["sd", "su"])
    def test_calibration_builds_its_plan_once(self, d):
        cmod._pair_plan.cache_clear()
        tmpl = cmod.make_template("lr", 30, gamma=G10)
        cmod.calibrate_pair_scale(d, tmpl, G10, 2, 0.05, self.F)
        info = cmod._pair_plan.cache_info()
        assert info.misses == 1 and info.hits > 2


@st.composite
def calibration_problems(draw):
    """(family, n, gamma, k, rho, template) for a small calibrated table."""
    n = draw(st.integers(2, 12))
    den = draw(st.integers(2, 20))
    gamma = Gamma(draw(st.integers(0, den // 2)), den)
    return (draw(st.sampled_from(["thm37", "thm38"])), n, gamma,
            draw(st.integers(1, n)),
            draw(st.floats(-0.9, 0.95, exclude_min=True, exclude_max=True)),
            draw(st.sampled_from(["lr", "bh", "gbs"])))


class TestCalibration:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(calibration_problems())
    @example(("thm37", 12, Gamma(1, 2), 1, 0.5, "lr"))
    @example(("thm38", 12, Gamma(1, 10), 12, 0.95, "bh"))
    def test_level_claim_and_dominance(self, problem):
        family, n, g, k, rho, template = problem
        alpha = 0.05
        rep = cmod.family_report(family, n, g, k, alpha, template=template,
                                 F=EquicorrelatedPairs(rho))
        assert alpha - 5e-10 <= rep.scale <= alpha
        if template == "gbs":
            # gbs(beta) is not linear in beta: thm35/thm36 rescale gbs(alpha)
            # while thm37/thm38 move along gbs(beta), so the shapes differ
            # (n = 2, gamma = 0: 0.01299 against 0.01341 at rank 1)
            return
        marginal = "thm35" if family == "thm37" else "thm36"
        base = cmod.family_report(marginal, n, g, k, alpha, template=template)
        assert np.all(rep.constants.values >=
                      base.constants.values * (1 - 1e-8))

    def test_reference_calibration_evaluation_count(self, monkeypatch):
        # n = 200 took 33 evaluations per direction under plain bisection
        calls = {"sd": 0, "su": 0}
        for d in calls:
            bound = getattr(cmod, f"pair_{d}_bound")

            def counted(*args, _d=d, _bound=bound, **kwargs):
                calls[_d] += 1
                return _bound(*args, **kwargs)

            monkeypatch.setattr(cmod, f"pair_{d}_bound", counted)
        F = EquicorrelatedPairs(0.3)
        for family in ("thm37", "thm38"):
            rep = cmod.family_report(family, 200, G10, 1, 0.05, F=F)
            assert 0.05 - 5e-10 <= rep.scale <= 0.05
        assert 0 < calls["sd"] <= 16 and 0 < calls["su"] <= 16

    def test_linear_functional_closed_form(self):
        beta = cmod.bisect_scale(lambda b: 3.0 * b, 0.05)
        assert beta == pytest.approx(0.05 / 3.0, abs=1e-9)
        assert 3.0 * beta <= 0.05

    def test_unattainable_target(self):
        with pytest.raises(cmod.CalibrationError, match="unattainable"):
            cmod.bisect_scale(lambda b: 2.0 + b, 0.05)

    def test_non_monotone_trajectory_detected(self):
        # crosses the target but oscillates on the way
        with pytest.raises(cmod.CalibrationError, match="not monotone"):
            cmod.bisect_scale(lambda b: b + 0.3 * math.sin(6 * math.pi * b), 0.05)

    @pytest.mark.parametrize("lo, hi", [(0.4, 0.6), (0.01, 0.02)])
    def test_nan_value_rejected(self, lo, hi):
        with pytest.raises(cmod.CalibrationError, match="NaN at beta"):
            cmod.bisect_scale(lambda b: math.nan if lo < b < hi else b, 0.05)

    def test_solves_bound_to_target(self):
        tmpl = cmod.make_template("lr", 10, gamma=G10)
        for d in ("sd", "su"):
            rep = cmod.calibrate_pair_scale(d, tmpl, G10, 1, 0.05, INDEP)
            assert 0.05 - 1e-9 <= rep.scale <= 0.05
            assert 0.0 < rep.beta_star < 1.0
            # constants are the template at beta*, flattened at k
            expect = tmpl.values(rep.beta_star)[1:]
            assert np.allclose(rep.constants.values, expect, rtol=0, atol=0)

    @pytest.mark.parametrize("d", ["sd", "su"])
    def test_debug_record_gives_calibration_evidence(self, d, caplog):
        tmpl = cmod.make_template("lr", 30, gamma=G10)
        F = EquicorrelatedPairs(0.3)
        with caplog.at_level(logging.DEBUG, logger="fdpctl"):
            rep = cmod.calibrate_pair_scale(d, tmpl, G10, 1, 0.05, F)
        (record,) = caplog.records
        assert record.name == "fdpctl" and record.levelno == logging.DEBUG
        fields = dict(item.split("=") for item in
                      record.getMessage().split()[1:])
        assert fields["direction"] == d and fields["n"] == "30"
        assert 0 < int(fields["bound_evals"]) <= 16
        assert float(fields["beta_star"]) == rep.beta_star
        residual = float(fields["residual"])
        assert 0.0 <= residual <= 5e-10
        assert residual == pytest.approx(0.05 - rep.scale, rel=1e-3)
        assert int(fields["worst_n0"]) == rep.worst_n0

    @pytest.mark.parametrize("d", ["sd", "su"])
    def test_each_evaluation_calls_the_module_bound(self, d, monkeypatch,
                                                    caplog):
        # the benchmark tracer and the oracle's NaN row wrap the module
        # attribute, so calibration must look it up once per evaluation
        calls = []
        bound = getattr(cmod, f"pair_{d}_bound")

        def counted(*args, **kwargs):
            calls.append(args[-1])
            return bound(*args, **kwargs)

        monkeypatch.setattr(cmod, f"pair_{d}_bound", counted)
        tmpl = cmod.make_template("lr", 20, gamma=G10)
        with caplog.at_level(logging.DEBUG, logger="fdpctl"):
            rep = cmod.calibrate_pair_scale(d, tmpl, G10, 2, 0.05,
                                            EquicorrelatedPairs(0.3))
        (record,) = caplog.records
        fields = dict(item.split("=") for item in
                      record.getMessage().split()[1:])
        assert len(calls) == int(fields["bound_evals"]) > 2
        assert rep.beta_star in calls

    def test_calibrated_dominates_marginal_only_family(self):
        # 1e-8 relative slack covers the 5e-10 calibration window at alpha = 0.05
        n = 10
        tmpl = cmod.make_template("lr", n, gamma=G10)
        tpl_ref = tmpl.values(0.05)
        for d, marginal in (("sd", cmod.arbdep_sd_report),
                            ("su", cmod.arbdep_su_report)):
            for F in (INDEP, EquicorrelatedPairs(0.5)):
                pair = cmod.calibrate_pair_scale(d, tmpl, G10, 1, 0.05, F)
                base = marginal(tpl_ref, G10, 1, 0.05)
                assert np.all(pair.constants.values >=
                              base.constants.values * (1 - 1e-8))
