"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines as they complete.  Monte Carlo criteria use fixed seeds, so
the whole suite is deterministic.
"""

import math
import time

import numpy as np
import pytest

from fdpctl import constants as cmod
from fdpctl import oracle
from fdpctl.core import Gamma
from fdpctl.pairdist import (EquicorrelatedPairs, bvn_cdf,
                             two_sided_equicorr_cdf, validate_pairwise)
from fdpctl.simlab import (DependenceModel, MonteCarloConfig, build_procedure,
                           run_cell)

G10 = Gamma(1, 10)
ALPHA = 0.05


def verdict(tag, ok, detail=""):
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


def rate_bound_ok(exceed):
    rate = exceed.mean()
    se = math.sqrt(max(rate * (1.0 - rate), 0.0) / exceed.size)
    return rate <= ALPHA + 3 * se, rate


def paired_gap(a, b):
    d = a - b
    gap = float(d.mean())
    se = float(d.std(ddof=1) / math.sqrt(d.size))
    return gap, se


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_scale_identity_for_lr_template():
    start = time.monotonic()
    worst = 0.0
    for g in (Gamma(1, 20), Gamma(1, 10), Gamma(1, 4), Gamma(3, 10)):
        for n in range(2, 201):
            tpl = cmod.lr_template(n, g, ALPHA)
            for fn in (cmod.posdep_sd_report, cmod.posdep_su_report):
                worst = max(worst, abs(fn(tpl, g, 1, ALPHA).scale - ALPHA) / ALPHA)
    elapsed = time.monotonic() - start
    verdict("1 worst-case scale equals alpha for the LR family (k=1)",
            worst <= 1e-12 and elapsed < 5.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s"
            + (", over 5 s budget" if elapsed >= 5.0 else ""))


# -- criteria 2 and 3 share the level/power grid ------------------------------

@pytest.fixture(scope="module")
def lr_grid():
    start = time.monotonic()
    cells = {}
    procs = [build_procedure("lr-sd"), build_procedure("lr-su")]
    for rho in (0.0, 0.2, 0.5, 0.8):
        for pi0 in (0.2, 0.5, 0.8):
            cfg = MonteCarloConfig(n=100, pi0=pi0, gamma=G10, reps=2000,
                                   seed=1202, model=DependenceModel("uniform", rho))
            cells[(rho, pi0)] = run_cell(cfg, procs)
    return cells, time.monotonic() - start


def test_criterion_2_level_control_at_desk_scale(lr_grid):
    cells, elapsed = lr_grid
    worst = ("", -1.0)
    ok = True
    for (rho, pi0), out in cells.items():
        for name, (exceed, _) in out.items():
            cell_ok, rate = rate_bound_ok(exceed)
            ok &= cell_ok
            if rate > worst[1]:
                worst = (f"{name}@rho={rho},pi0={pi0}", rate)
    verdict("2 exceedance rate within alpha + 3se on the 12-cell grid",
            ok and elapsed < 120.0,
            f"max rate {worst[1]:.4f} at {worst[0]}, grid in {elapsed:.1f}s"
            + (", over 120 s budget" if elapsed >= 120.0 else ""))


def test_criterion_3_stepup_power_dominance(lr_grid):
    cells, _ = lr_grid
    pointwise_ok = True
    for out in cells.values():
        _, p_sd = out["lr-sd"]
        _, p_su = out["lr-su"]
        pointwise_ok &= bool(np.all(p_su >= p_sd))
    gap, se = paired_gap(cells[(0.8, 0.5)]["lr-su"][1],
                         cells[(0.8, 0.5)]["lr-sd"][1])
    verdict("3 stepup power dominates stepdown (pointwise; gap at rho=0.8)",
            pointwise_ok and gap > 2 * se and gap > 0,
            f"gap {gap:.4f} vs 2se {2 * se:.4f}")


# -- criterion 4 --------------------------------------------------------------

def test_criterion_4_generalized_exceedance_control():
    tokens = ("thm32", "thm33", "thm34-sd", "thm34-su")
    level_ok = True
    gaps = []
    worst = ("", -1.0)
    for k in (2, 5, 10):
        procs = [build_procedure(t, k=k) for t in tokens]
        for rho in (0.0, 0.1, 0.5):
            for pi0 in (0.5, 0.8):
                cfg = MonteCarloConfig(n=100, pi0=pi0, gamma=G10,
                                       reps=2000, seed=7001,
                                       model=DependenceModel("uniform", rho))
                out = run_cell(cfg, procs)
                for name, (exceed, _) in out.items():
                    cell_ok, rate = rate_bound_ok(exceed)
                    level_ok &= cell_ok
                    if rate > worst[1]:
                        worst = (f"{name}@k={k},rho={rho},pi0={pi0}", rate)
                if rho == 0.1 and pi0 == 0.8:
                    gaps.append(paired_gap(out["thm34-sd"][1], out["thm32"][1]))
                    gaps.append(paired_gap(out["thm34-su"][1], out["thm33"][1]))
    gaps_ok = all(gap > 2 * se for gap, se in gaps)
    verdict("4 generalized-FDP control and pairwise power gain at rho=0.1",
            level_ok and gaps_ok,
            f"max rate {worst[1]:.4f} at {worst[0]}; "
            f"min gap {min(g for g, _ in gaps):.4f}")


# -- criterion 5 --------------------------------------------------------------

def test_criterion_5_pairwise_bounds_improve_marginal_bounds():
    bound_ok = True
    dominance_ok = True
    for n in (10, 25, 50):
        for g in (Gamma(1, 10), Gamma(1, 4)):
            tmpl = cmod.make_template("lr", n, gamma=g)
            tpl_ref = tmpl.values(ALPHA)
            for F in (EquicorrelatedPairs(0.0), EquicorrelatedPairs(0.5)):
                for beta in (0.02, ALPHA):
                    vals = tmpl.values(beta)
                    bound_ok &= (cmod.pair_sd_bound(tmpl, g, 1, F, beta).value
                                 <= cmod.sd_marginal_bound(vals, g))
                    bound_ok &= (cmod.pair_su_bound(tmpl, g, 1, F, beta).value
                                 <= cmod.su_marginal_bound(vals, g))
                for d, marginal in (("sd", cmod.arbdep_sd_report),
                                    ("su", cmod.arbdep_su_report)):
                    pair = cmod.calibrate_pair_scale(d, tmpl, g, 1, ALPHA, F)
                    base = marginal(tpl_ref, g, 1, ALPHA)
                    # 1e-8 relative slack covers the 5e-10 calibration window
                    dominance_ok &= bool(np.all(
                        pair.constants.values >=
                        base.constants.values * (1 - 1e-8)))
    verdict("5 pairwise bounds never exceed marginal bounds; calibrated "
            "constants dominate", bound_ok and dominance_ok)


# -- criterion 6 --------------------------------------------------------------

def test_criterion_6_oracle_suite_clean():
    start = time.monotonic()
    report = oracle.run_suite(suites=("lemmas",), fuzz_count=100_000,
                              seed=20240901)
    elapsed = time.monotonic() - start
    bad = [row.name for row in report.rows if row.violations]
    verdict("6 pointwise inequality oracle: zero violations",
            report.ok and elapsed < 60.0,
            f"{sum(r.instances for r in report.rows)} instances, "
            f"{elapsed:.1f}s" + (f", failing: {bad}" if bad else "")
            + (", over 60 s budget" if elapsed >= 60.0 else ""))


# -- criterion 7 --------------------------------------------------------------

def test_criterion_7_pairwise_kernel():
    ok = abs(bvn_cdf(0.0, 0.0, 0.5) - 1.0 / 3.0) <= 1e-9
    u = np.linspace(0.0, 1.0, 50)
    g1, g2 = np.meshgrid(u, u)
    ok &= bool(np.max(np.abs(two_sided_equicorr_cdf(g1, g2, 0.0) - g1 * g2))
               <= 1e-9)
    try:
        for rho in (0.0, 0.1, 0.5, 0.9):
            validate_pairwise(EquicorrelatedPairs(rho))
    except ValueError:
        ok = False
    verdict("7 bivariate-normal kernel identities and copula validity", ok)


# -- criterion 8 --------------------------------------------------------------

def test_criterion_8_dual_implementation_equivalence():
    worst = 0.0

    def close(a, b):
        nonlocal worst
        rel = abs(a - b) / max(abs(b), 1e-300)
        worst = max(worst, rel)
        return rel <= 1e-12

    ok = True
    models = (EquicorrelatedPairs(0.0), EquicorrelatedPairs(0.5))
    for n in (5, 8, 12):
        for g in (Gamma(1, 10), Gamma(1, 4)):
            lr_vals = cmod.lr_constants(n, g, ALPHA).constants.values
            naive_lr = oracle.naive_lr_values(n, g, ALPHA)
            ok &= all(close(a, b) for a, b in zip(lr_vals, naive_lr))
            for k in (1, 2, 3):
                tpl = cmod.lr_template(n, g, ALPHA)
                ok &= close(cmod.posdep_sd_report(tpl, g, k, ALPHA).scale,
                            oracle.naive_posdep_sd_scale(tpl, n, g, k))
                ok &= close(cmod.posdep_su_report(tpl, g, k, ALPHA).scale,
                            oracle.naive_posdep_su_scale(tpl, n, g, k))
                ok &= close(cmod.arbdep_sd_report(tpl, g, k, ALPHA).scale,
                            oracle.naive_arbdep_sd_scale(tpl, n, g, k))
                ok &= close(cmod.arbdep_su_report(tpl, g, k, ALPHA).scale,
                            oracle.naive_arbdep_su_scale(tpl, n, g, k))
                tmpl = cmod.make_template("lr", n, gamma=g)
                for F in models:
                    if k >= 2:
                        ok &= close(
                            cmod.pairwise_lr_report(n, g, k, ALPHA, F).scale,
                            oracle.naive_pairwise_lr_scale(n, k, ALPHA, F))
                    for beta in (0.02, ALPHA):
                        ok &= close(cmod.pair_sd_bound(tmpl, g, k, F, beta).value,
                                    oracle.naive_pair_sd_bound(tmpl, g, k, F, beta))
                        ok &= close(cmod.pair_su_bound(tmpl, g, k, F, beta).value,
                                    oracle.naive_pair_su_bound(tmpl, g, k, F, beta))
    # calibrated scale solves the naive functional too
    tmpl = cmod.make_template("lr", 8, gamma=G10)
    for d, naive in (("sd", oracle.naive_pair_sd_bound),
                     ("su", oracle.naive_pair_su_bound)):
        rep = cmod.calibrate_pair_scale(d, tmpl, G10, 1, ALPHA,
                                        EquicorrelatedPairs(0.0))
        ok &= abs(naive(tmpl, G10, 1, EquicorrelatedPairs(0.0), rep.beta_star)
                  - ALPHA) <= 1e-9 + 1e-12
    verdict("8 optimized constants match the literal-loop implementations",
            ok, f"worst rel diff {worst:.2e}")
