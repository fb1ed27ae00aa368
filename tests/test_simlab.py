import logging
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fdpctl import simlab
from fdpctl.core import Gamma, TruthLabels, exceeds_gamma
from fdpctl.engine import annotate_truth, step_down, step_up
from fdpctl.pairdist import EquicorrelatedPairs, IndependentPairs
from fdpctl.simlab import (DependenceModel, MonteCarloConfig, ProcedureSpec,
                           build_procedure, generate_sample, generate_samples,
                           procedure_constants, run_cell, run_grid,
                           two_sided_pvalues)

G10 = Gamma(1, 10)


def draws(model, n, count, seed=9):
    """Rows r = 0..count-1 from default_rng((seed, r)), drawn in blocks.

    A row does not depend on its block, so these are the lone draws of
    generate_sample; blocks of 10,000 rows bound the generators alive at
    once (about 1 kB each).
    """
    block = 10_000
    return np.concatenate([
        generate_samples(model, np.zeros(n), [
            np.random.default_rng((seed, r))
            for r in range(lo, min(lo + block, count))])
        for lo in range(0, count, block)
    ])


class TestGenerators:
    def test_independent_case(self):
        z = draws(DependenceModel("uniform", 0.0), 10, 40000)
        c = np.corrcoef(z.T)
        assert abs(np.mean(z)) < 0.01
        assert abs(np.std(z) - 1.0) < 0.01
        assert np.max(np.abs(c[np.triu_indices(10, 1)])) < 0.03

    def test_uniform_pairwise_correlation(self):
        z = draws(DependenceModel("uniform", 0.5), 20, 100000)
        off = np.corrcoef(z.T)[np.triu_indices(20, 1)]
        assert abs(off.mean() - 0.5) < 0.01

    def test_ar1_lag_two_correlation(self):
        z = draws(DependenceModel("ar1", 0.8), 30, 100000)
        lag2 = np.mean([np.corrcoef(z[:, i], z[:, i + 2])[0, 1]
                        for i in range(28)])
        assert abs(lag2 - 0.64) < 0.01

    def test_block_structure(self):
        z = draws(DependenceModel("block", 0.6, block_size=3), 6, 60000)
        c = np.corrcoef(z.T)
        assert abs(c[0, 1] - 0.6) < 0.02    # same block
        assert abs(c[0, 3]) < 0.02          # across blocks

    def test_block_size_must_divide_n(self):
        with pytest.raises(ValueError, match="divide"):
            generate_sample(DependenceModel("block", 0.5, block_size=4),
                            np.zeros(6), np.random.default_rng(0))

    def test_mean_shift(self):
        mu = np.array([0.0, 3.0])
        z = np.array([generate_sample(DependenceModel("uniform", 0.2), mu,
                                      np.random.default_rng((3, r)))
                      for r in range(20000)])
        assert np.allclose(z.mean(axis=0), mu, atol=0.05)


class TestTwoSidedPvalues:
    def test_zero_stat(self):
        assert two_sided_pvalues(np.array([0.0]))[0] == 1.0

    def test_alpha_quantile(self):
        assert two_sided_pvalues(np.array([1.959964]))[0] == \
            pytest.approx(0.05, abs=1e-6)

    def test_sign_symmetry(self):
        z = np.array([0.7, -0.7, 2.3, -2.3])
        p = two_sided_pvalues(z)
        assert p[0] == p[1] and p[2] == p[3]


class TestRunMonteCarlo:
    def test_level_under_complete_null(self):
        for token in ("lr-sd", "lr-su"):
            cfg = MonteCarloConfig(n=100, pi0=1.0, gamma=G10, reps=2000, seed=11)
            (rep,) = run_grid(cfg, [build_procedure(token)])
            assert rep.exceedance <= 0.05 + 3 * rep.exceedance_se
            assert rep.power is None and rep.power_se is None

    def test_tiny_constants_reject_nothing(self):
        cfg = MonteCarloConfig(n=20, pi0=0.5, gamma=G10, alpha=1e-12,
                               reps=200, seed=5)
        (rep,) = run_grid(cfg, [build_procedure("lr-su")])
        assert rep.exceedance == 0.0
        assert rep.power == 0.0

    def test_stepup_power_dominates_stepdown_pointwise(self):
        cfg = MonteCarloConfig(n=100, pi0=0.5, gamma=G10, reps=500, seed=17,
                               model=DependenceModel("uniform", 0.8))
        out = run_cell(cfg, [build_procedure("lr-sd"), build_procedure("lr-su")])
        _, power_sd = out["lr-sd"]
        _, power_su = out["lr-su"]
        assert np.all(power_su >= power_sd)

    def test_pairwise_aware_families_dominate_marginal_only(self):
        # within a coupled cell the calibrated pairwise procedures' larger
        # constants reject supersets, so the power ordering is pointwise;
        # at rho = 0.5 the stepdown bound coincides with the marginal one
        # (zero gap) while the stepup gains outright
        cfg = MonteCarloConfig(n=50, pi0=0.5, gamma=G10, reps=500, seed=29,
                               model=DependenceModel("uniform", 0.5))
        out = run_cell(cfg, [build_procedure(t) for t in
                             ("thm35", "thm36", "thm37", "thm38")])
        assert np.all(out["thm37"][1] >= out["thm35"][1])
        assert np.all(out["thm38"][1] >= out["thm36"][1])
        assert out["thm38"][1].mean() > out["thm36"][1].mean()

    def test_seed_determinism(self):
        cfg = MonteCarloConfig(n=50, pi0=0.5, gamma=G10, reps=100, seed=23,
                               model=DependenceModel("uniform", 0.4))
        (a,) = run_grid(cfg, [build_procedure("lr-su")])
        (b,) = run_grid(cfg, [build_procedure("lr-su")])
        assert a.exceedance == b.exceedance and a.power == b.power

    def test_pi0_must_make_n0_integral(self):
        with pytest.raises(ValueError, match="integral"):
            MonteCarloConfig(n=10, pi0=0.55, gamma=G10)

    @pytest.mark.parametrize("n", [0, -3])
    def test_n_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            MonteCarloConfig(n=n, pi0=0.5, gamma=G10)

    @pytest.mark.parametrize("pi0", [math.nan, 1.5, -0.5, math.inf])
    def test_pi0_outside_unit_interval_rejected(self, pi0):
        with pytest.raises(ValueError, match=r"pi0 must lie in \[0, 1\]"):
            MonteCarloConfig(n=10, pi0=pi0, gamma=G10)

    def test_all_families_control_level_under_independence(self):
        # pi0 = 1, rho = 0: every family's guarantee applies
        tokens = ("lr-sd", "lr-su", "thm32", "thm33", "thm34-sd", "thm34-su",
                  "thm35", "thm36", "thm37", "thm38")
        cfg = MonteCarloConfig(n=20, pi0=1.0, gamma=G10, reps=400, seed=31)
        procs = [build_procedure(t, k=2 if t.startswith("thm34") else 1)
                 for t in tokens]
        out = run_cell(cfg, procs)
        for name, (exceed, _) in out.items():
            rate = exceed.mean()
            se = math.sqrt(max(rate * (1 - rate), 1e-12) / exceed.size)
            assert rate <= 0.05 + 3 * se, name


class TestLevelUnderDependence:
    # thm35/thm36 hold under any dependence, so under all three models;
    # thm37/thm38 are calibrated to a common pairwise law, which only the
    # uniform model has.  Each cell must meet alpha + 3 se; the seed is
    # fixed once.
    def test_arbitrary_dependence_families_control_level(self):
        base = MonteCarloConfig(n=50, pi0=0.5, gamma=G10, reps=4000, seed=4242)
        marginal = [build_procedure("thm35"), build_procedure("thm36")]
        grids = {"uniform": marginal + [build_procedure("thm37"),
                                        build_procedure("thm38")],
                 "block:10": marginal, "ar1": marginal}
        reports = [rep for text, procs in grids.items()
                   for rep in run_grid(
                       replace(base, model=DependenceModel.parse(text)), procs,
                       rhos=[0.3, 0.8], pi0s=[0.5, 0.9, 1.0])]
        assert len(reports) == 6 * 8
        ratio = {}
        for rep in reports:
            ratio[rep.procedure] = max(ratio.get(rep.procedure, 0.0),
                                       rep.exceedance / base.alpha)
        failed = [f"{rep.procedure}@{rep.config.model.kind},"
                  f"rho={rep.config.model.rho},pi0={rep.config.pi0}: "
                  f"{rep.exceedance}" for rep in reports
                  if rep.exceedance > base.alpha + 3 * rep.exceedance_se]
        assert not failed, (failed, {name: f"{value:.3f}"
                                     for name, value in ratio.items()})


def literal_cell(cfg, procedures):
    """run_cell as a plain loop over replications and procedures."""
    n1 = cfg.n - cfg.n0
    labels = TruthLabels.nulls_first(cfg.n, cfg.n0)
    mu = np.where(labels.as_array(), 0.0, cfg.effect)
    rho = cfg.model.rho
    F = IndependentPairs() if rho == 0.0 else EquicorrelatedPairs(rho)
    resolved = [(spec, procedure_constants(spec, cfg.n, cfg.gamma, cfg.alpha,
                                           F if spec.uses_pairwise else None),
                 step_down if spec.direction == "sd" else step_up)
                for spec in procedures]
    out = {spec.name: (np.zeros(cfg.reps, dtype=bool), np.full(cfg.reps, np.nan))
           for spec in procedures}
    for rep in range(cfg.reps):
        rng = np.random.default_rng((cfg.seed, rep))
        p = two_sided_pvalues(generate_sample(cfg.model, mu, rng))
        for spec, constants, runner in resolved:
            res = annotate_truth(runner(p, constants), labels)
            exceed, power = out[spec.name]
            exceed[rep] = exceeds_gamma(res, spec.k, cfg.gamma)
            if n1 > 0:
                power[rep] = res.s / n1
    return out


MARGINAL_TOKENS = ("lr-sd", "lr-su", "thm32", "thm33", "thm35", "thm36")
LITERAL_MODELS = (DependenceModel("uniform", 0.3),
                  DependenceModel("block", 0.5, block_size=5),
                  DependenceModel("ar1", 0.5))


def assert_cells_equal(got, want):
    assert list(got) == list(want)
    for name, (exceed, power) in want.items():
        assert np.array_equal(got[name][0], exceed), name
        assert np.array_equal(got[name][1], power, equal_nan=True), name


class TestAgainstLiteralLoop:
    @pytest.mark.parametrize("gamma", [Gamma(0, 1), G10])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("pi0", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("model", LITERAL_MODELS, ids=lambda m: m.kind)
    def test_cell_matches_literal_loop(self, model, pi0, k, gamma):
        tokens = MARGINAL_TOKENS
        if model.kind == "uniform":
            tokens += ("thm37", "thm38") + (("thm34-sd", "thm34-su") if k > 1 else ())
        procs = [build_procedure(t, k=k) for t in tokens]
        cfg = MonteCarloConfig(n=20, pi0=pi0, gamma=gamma, reps=60, seed=37,
                               model=model)
        assert_cells_equal(run_cell(cfg, procs), literal_cell(cfg, procs))

    @pytest.mark.parametrize("model", [DependenceModel("uniform", 0.0),
                                       DependenceModel("ar1", 0.4)],
                             ids=lambda m: m.kind)
    def test_many_replications_match_literal_loop(self, model):
        procs = [build_procedure("lr-sd"), build_procedure("lr-su")]
        cfg = MonteCarloConfig(n=200, pi0=0.9, gamma=G10, reps=1500, seed=41,
                               model=model)
        assert cfg.n * cfg.reps > simlab._BLOCK_VALUES
        assert_cells_equal(run_cell(cfg, procs), literal_cell(cfg, procs))


class TestRunCell:
    def test_duplicate_procedure_names_rejected(self):
        cfg = MonteCarloConfig(n=20, pi0=0.5, gamma=G10, reps=20, seed=3,
                               model=DependenceModel("uniform", 0.5))
        with pytest.raises(ValueError, match="thm32"):
            run_cell(cfg, [build_procedure("thm32", k=2),
                           build_procedure("thm32", k=5)])

    @pytest.mark.parametrize("effect", [math.nan, math.inf, -math.inf])
    def test_non_finite_effect_rejected(self, effect):
        with pytest.raises(ValueError, match="effect must be finite"):
            MonteCarloConfig(n=10, pi0=0.5, gamma=G10, effect=effect)

    def test_debug_record_gives_layer_seconds(self, caplog):
        cfg = MonteCarloConfig(n=200, pi0=0.5, gamma=G10, reps=1500, seed=1)
        with caplog.at_level(logging.DEBUG, logger="fdpctl"):
            run_cell(cfg, [build_procedure("lr-sd"), build_procedure("lr-su")])
        (record,) = caplog.records
        assert record.name == "fdpctl" and record.levelno == logging.DEBUG
        text = record.getMessage()
        assert "reps=1500" in text and "blocks=2" in text
        for layer in ("simlab.constants_s", "simlab.generate_s",
                      "simlab.pvalues_s", "engine.step_s"):
            assert f"{layer}=" in text

    def test_peak_memory_is_per_block(self):
        n = 1000
        rows = simlab._BLOCK_VALUES // n
        procs = [build_procedure("lr-sd"), build_procedure("lr-su")]

        def peak(reps):
            cfg = MonteCarloConfig(n=n, pi0=0.5, gamma=G10, reps=reps, seed=2,
                                   model=DependenceModel("ar1", 0.5))
            tracemalloc.start()
            try:
                run_cell(cfg, procs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8 * rows) < 2 * peak(rows)


class TestExpectationBounds:
    # The exceedance bounds are expectation-level statements, not pointwise
    # ones, so they are validated here as Monte Carlo upper bounds:
    # estimated rate <= bound + 3 se under a model where the bound applies.
    @pytest.mark.parametrize("rho", [0.0, 0.5])
    @pytest.mark.parametrize("k", [1, 2])
    def test_rate_below_pairwise_bound_functionals(self, rho, k):
        from fdpctl import constants as cmod
        from fdpctl.core import CriticalConstants, TruthLabels
        from fdpctl.engine import annotate_truth, step_down, step_up
        from fdpctl.pairdist import EquicorrelatedPairs, IndependentPairs

        n, beta, reps = 20, 0.02, 2000
        tmpl = cmod.make_template("lr", n, gamma=G10)
        F = IndependentPairs() if rho == 0.0 else EquicorrelatedPairs(rho)
        vals = tmpl.values(beta)
        constants = CriticalConstants(
            values=vals[np.maximum(np.arange(1, n + 1), k)], k=k)
        labels = TruthLabels.nulls_first(n, n)  # complete null
        model = DependenceModel("uniform", rho)
        bounds = {
            step_down: min(cmod.pair_sd_bound(tmpl, G10, k, F, beta).value, 1.0),
            step_up: min(cmod.pair_su_bound(tmpl, G10, k, F, beta).value, 1.0),
        }
        hits = {step_down: 0, step_up: 0}
        for rep in range(reps):
            rng = np.random.default_rng((4040, rep))
            p = two_sided_pvalues(generate_sample(model, np.zeros(n), rng))
            for proc in (step_down, step_up):
                res = annotate_truth(proc(p, constants), labels)
                if res.v >= k and res.v * G10.den > res.r * G10.num:
                    hits[proc] += 1
        for proc, bound in bounds.items():
            rate = hits[proc] / reps
            se = math.sqrt(max(rate * (1 - rate), 1e-12) / reps)
            assert rate <= bound + 3 * se, (proc.__name__, rate, bound)

    def test_rate_below_marginal_bound_functionals(self):
        from fdpctl import constants as cmod
        from fdpctl.core import CriticalConstants, TruthLabels
        from fdpctl.engine import annotate_truth, step_down, step_up

        n, beta, reps = 20, 0.02, 2000
        vals = cmod.make_template("lr", n, gamma=G10).values(beta)
        constants = CriticalConstants(values=vals[1:])
        labels = TruthLabels.nulls_first(n, n)
        model = DependenceModel("uniform", 0.5)
        bounds = {step_down: min(cmod.sd_marginal_bound(vals, G10), 1.0),
                  step_up: min(cmod.su_marginal_bound(vals, G10), 1.0)}
        hits = {step_down: 0, step_up: 0}
        for rep in range(reps):
            rng = np.random.default_rng((5050, rep))
            p = two_sided_pvalues(generate_sample(model, np.zeros(n), rng))
            for proc in (step_down, step_up):
                res = annotate_truth(proc(p, constants), labels)
                if res.v >= 1 and res.v * G10.den > res.r * G10.num:
                    hits[proc] += 1
        for proc, bound in bounds.items():
            rate = hits[proc] / reps
            se = math.sqrt(max(rate * (1 - rate), 1e-12) / reps)
            assert rate <= bound + 3 * se, (proc.__name__, rate, bound)


class TestRunGrid:
    def test_axes_default_to_the_base_cell(self):
        proc = build_procedure("lr-su")
        base = MonteCarloConfig(n=20, pi0=0.5, gamma=G10, reps=100, seed=5,
                                model=DependenceModel("uniform", 0.4))
        (default,) = run_grid(base, [proc])
        (explicit,) = run_grid(base, [proc], rhos=[0.4], pi0s=[0.5])
        assert default.config.model.rho == 0.4
        assert (default.exceedance, default.power) == \
            (explicit.exceedance, explicit.power)

    def test_each_procedure_keeps_its_own_k(self):
        # one cell, three lr-su procedures that differ only in k
        cfg = MonteCarloConfig(n=20, pi0=0.5, gamma=G10, reps=400, seed=1,
                               model=DependenceModel("uniform", 0.5))
        procs = [replace(build_procedure("lr-su", k=k), name=f"lr-su k={k}")
                 for k in (1, 2, 3)]
        reports = run_grid(cfg, procs)
        assert [rep.exceedance for rep in reports] == [0.0225, 0.0125, 0.0075]
        for spec, rep in zip(procs, reports):
            (exceed, _), = run_cell(cfg, [spec]).values()
            assert rep.exceedance == float(exceed.mean()), spec.name

    def test_pairwise_generalization_runs_at_its_own_k(self):
        cfg = MonteCarloConfig(n=20, pi0=0.5, gamma=G10, reps=50, seed=2,
                               model=DependenceModel("uniform", 0.3))
        (rep,) = run_grid(cfg, [build_procedure("thm34-su", k=2)])
        assert rep.procedure == "thm34-su" and 0.0 <= rep.exceedance <= 1.0

    def test_one_replication_has_no_standard_errors(self):
        cfg = MonteCarloConfig(n=20, pi0=0.5, gamma=G10, reps=1, seed=3)
        (rep,) = run_grid(cfg, [build_procedure("lr-su")])
        assert rep.power is not None
        assert rep.exceedance_se is None and rep.power_se is None

    def test_thread_count_does_not_change_results(self):
        base = MonteCarloConfig(n=30, pi0=0.5, gamma=G10, reps=200, seed=19)
        procs = [build_procedure("lr-sd"), build_procedure("lr-su")]
        serial = run_grid(base, procs, rhos=[0.0, 0.5], pi0s=[0.2, 0.5])
        threaded = run_grid(base, procs, rhos=[0.0, 0.5], pi0s=[0.2, 0.5],
                            threads=4)
        assert [(r.procedure, r.exceedance, r.power) for r in serial] == \
            [(r.procedure, r.exceedance, r.power) for r in threaded]

    def test_empty_sweep_rejected(self):
        base = MonteCarloConfig(n=10, pi0=0.5, gamma=G10, reps=10, seed=1)
        with pytest.raises(ValueError):
            run_grid(base, [], rhos=[0.1])
        with pytest.raises(ValueError):
            run_grid(base, [build_procedure("lr-sd")], rhos=[])


class TestProcedureResolution:
    def test_pairwise_procedures_need_model(self):
        spec = build_procedure("thm34-su", k=2)
        with pytest.raises(ValueError, match="pairwise"):
            procedure_constants(spec, 10, G10, 0.05, F=None)

    def test_non_equicorrelated_dependence_rejected_for_pairwise(self):
        cfg = MonteCarloConfig(n=12, pi0=0.5, gamma=G10, reps=10, seed=1,
                               model=DependenceModel("ar1", 0.5))
        with pytest.raises(ValueError, match="equicorrelated"):
            run_cell(cfg, [build_procedure("thm34-su", k=2)])

    def test_unknown_token(self):
        with pytest.raises(ValueError, match="unknown procedure"):
            build_procedure("thm99")

    # the theorems prove thm32/33/35/36/37/38 in one direction only
    @pytest.mark.parametrize("family, direction", [
        ("thm32", "su"), ("thm33", "sd"), ("thm35", "su"),
        ("thm36", "sd"), ("thm37", "su"), ("thm38", "sd"),
        ("thm99", "sd"), ("lr", "up"),
    ])
    def test_pair_outside_the_tokens_is_rejected(self, family, direction):
        with pytest.raises(ValueError, match=f"family '{family}' in "
                                             f"direction '{direction}'"):
            ProcedureSpec(name="x", direction=direction, family=family)

    def test_constants_cover_all_tokens(self):
        from fdpctl.pairdist import EquicorrelatedPairs
        for token in ("lr-sd", "lr-su", "thm32", "thm33", "thm34-sd",
                      "thm34-su", "thm35", "thm36", "thm37", "thm38"):
            spec = build_procedure(token, k=2 if "34" in token else 1)
            cc = procedure_constants(spec, 12, G10, 0.05,
                                     F=EquicorrelatedPairs(0.3))
            assert cc.n == 12
