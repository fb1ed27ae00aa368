import numpy as np
import pytest

from fdpctl import oracle
from fdpctl.core import Gamma

G10 = Gamma(1, 10)
G4 = Gamma(1, 4)


def inst(p, nulls, constants, gamma=G10, k=1):
    return oracle.SmallInstance(p=tuple(p), is_null=tuple(nulls),
                                constants=tuple(constants), gamma=gamma, k=k)


class TestInstanceChecks:
    def test_no_rejections_is_trivially_fine(self):
        it = inst([0.9, 0.8], [True, False], [0.05, 0.1])
        assert oracle.check_sd_exceedance_bound(it) is None
        assert oracle.check_su_exceedance_bound(it) is None

    def test_constructed_exceedance_witness(self):
        # three tiny null p-values force V = R = 3, far above gamma R, so
        # the left side of each bound is 1 and the checks exercise the
        # nontrivial branch
        import numpy as np

        from fdpctl.core import CriticalConstants, TruthLabels
        from fdpctl.engine import annotate_truth, step_down

        it = inst([0.001, 0.001, 0.001, 0.99], [True] * 4,
                  [0.1, 0.2, 0.3, 0.4])
        res = annotate_truth(
            step_down(np.array(it.p), CriticalConstants(np.array(it.constants))),
            TruthLabels(it.is_null))
        assert res.v == 3 and res.v * it.gamma.den > res.r * it.gamma.num
        assert oracle.check_sd_exceedance_bound(it) is None
        assert oracle.check_su_exceedance_bound(it) is None
        assert oracle.check_exceedance_containment(it) is None

    def test_small_exhaustive_slice(self):
        count = 0
        for it in oracle._exhaustive_instances(3, G4, 2):
            assert oracle.check_sd_exceedance_bound(it) is None
            assert oracle.check_su_exceedance_bound(it) is None
            count += 1
        assert count == 680 * 8

    def test_violation_is_reported_not_raised(self):
        # a deliberately wrong "bound" cannot happen through the public
        # checks, so probe the reporting path with k > n0 exceedance
        it = inst([0.001, 0.001], [True, False], [0.1, 0.2], k=2)
        # V <= n0 = 1 < k, lhs = 0: fine
        assert oracle.check_sd_exceedance_bound(it) is None

    def test_order_stat_checks(self):
        assert oracle.check_order_stat_markov([0.2, 0.5, 0.9], 1, 0.3) is None
        assert oracle.check_order_stat_markov([0.2, 0.5, 0.9], 3, 0.01) is None
        assert oracle.check_order_stat_pairwise([0.2, 0.21, 0.9], 2, 0.25) is None
        with pytest.raises(ValueError):
            oracle.check_order_stat_pairwise([0.2], 1, 0.5)

    def test_index_identities_across_cells(self):
        for g in (G10, G4, Gamma(1, 2), Gamma(0, 1)):
            for n in range(1, 15):
                for n0 in range(1, n + 1):
                    assert oracle.check_level_identity(n, n0, g) is None
                    assert oracle.check_rank_inequality(n, n0, g) is None


class TestNaiveConstants:
    def test_lr_identity(self):
        tpl = np.concatenate([[0.0], oracle.naive_lr_values(14, G10, 0.05)])
        assert oracle.naive_posdep_sd_scale(tpl, 14, G10, 1) == \
            pytest.approx(0.05, rel=1e-12)
        assert oracle.naive_posdep_su_scale(tpl, 14, G10, 1) == \
            pytest.approx(0.05, rel=1e-12)

    def test_constant_template_stepup_collapse(self):
        tpl = np.concatenate([[0.0], np.full(9, 0.3)])
        for k in (1, 2, 3):
            assert oracle.naive_arbdep_su_scale(tpl, 9, G10, k) == \
                pytest.approx(9 * 0.3 / k, rel=1e-13)

    def test_lattice(self):
        lat = oracle.p_lattice()
        assert lat[0] == 0.01 and lat[-1] <= 0.99
        assert all(b - a == pytest.approx(0.07, abs=1e-12)
                   for a, b in zip(lat, lat[1:]))


class TestSuite:
    def test_smoke_run_all(self):
        report = oracle.run_suite(suites=("constants", "pairdist"),
                                  fuzz_count=50)
        assert report.ok
        names = [row.name for row in report.rows]
        assert "lr_scale_identity" in names
        assert "dual_implementation_equivalence" in names
        assert "pairwise_kernel" in names

    def test_fuzz_slice(self):
        report = oracle.SuiteReport()
        rng = np.random.default_rng(0)
        report.run("fuzz", map(oracle.check_su_exceedance_bound,
                               oracle._fuzz_instances(300, rng)))
        assert report.ok and report.rows[0].instances == 300

    def test_run_counts_every_violation(self):
        report = oracle.SuiteReport()
        outcomes = [f"failure {i}" for i in range(8)] + [None]
        report.run("row", iter(outcomes))
        row = report.rows[0]
        assert (row.name, row.instances, row.violations) == ("row", 9, 8)
        assert row.first_failure == "failure 0"
        assert not report.ok

    def test_rows_record_elapsed(self, monkeypatch):
        # empty exhaustive grids keep this fast; every row is still timed
        monkeypatch.setattr(oracle, "_exhaustive_instances",
                            lambda n, gamma, k: iter(()))
        report = oracle.run_suite(suites=("lemmas",), fuzz_count=20)
        assert len(report.rows) == 8
        assert all(row.elapsed > 0.0 for row in report.rows)

    def test_nan_is_never_a_match(self):
        nan = float("nan")
        assert oracle._mismatch(1.0, 1.0, "x") is None
        assert oracle._mismatch(nan, 1.0, "x") == "x: nan vs 1.0"
        assert oracle._mismatch(1.0, nan, "x") is not None
        assert oracle._mismatch(nan, nan, "x") is not None

    def test_nan_pair_bound_fails_dual_row(self, monkeypatch):
        monkeypatch.setattr(oracle.cmod, "pair_sd_bound",
                            lambda *a, **kw: oracle.cmod.BoundValue(np.nan, 1))
        report = oracle.run_suite(suites=("constants",))
        row = report.rows[-1]
        assert row.name == "dual_implementation_equivalence"
        # 18 (n, gamma, k) cells x 2 models x 2 scales
        assert row.violations == 72 and not report.ok

    def test_nan_kernel_fails_pairdist_row(self, monkeypatch):
        monkeypatch.setattr(oracle, "bvn_cdf", lambda *a: np.nan)
        report = oracle.run_suite(suites=("pairdist",))
        # the quadrant check and the 200 reflection checks; the model
        # checks call pairdist's own kernel and still pass
        assert report.rows[0].violations == 201
