"""The benchmark's workloads: inputs from a seed, one timed round, checks.

Each workload builds its inputs in ``__init__`` from ``--seed``, runs one
round of identical operations per ``run_round`` call through fdpctl's
public functions, and judges a round's outputs in ``check`` against the
independent computations in ``reference`` or against properties the method
must have.  ``check`` returns a list of error strings, empty when every
output is correct.  Workloads call fdpctl through module attributes
(``simlab.run_cell``, ``cmod.calibrate_pair_scale``, ...) so the traced run
can put its span wrappers there.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

import numpy as np

from fdpctl import Gamma, oracle, pairdist, simlab
from fdpctl import constants as cmod

import reference as ref

ALPHA = 0.05


@dataclass
class Round:
    outputs: list
    attempted: int
    failed: int


def _rel_err(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))


# ---------------------------------------------------------------------------
# montecarlo

MC_PROCEDURES = ("lr-sd", "lr-su", "thm35", "thm36")
MC_MODELS = (("uniform", 0.3, None), ("block", 0.5, 10), ("ar1", 0.5, None))
MC_PI0S = (0.5, 0.8, 0.9)


class MonteCarlo:
    """``simlab.run_cell`` on a grid of n = 100 cells, lr-sd/su, thm35/36.

    Cell i of seed s draws replication r from ``default_rng((1000 s + i, r))``.
    An operation is one procedure applied to one replication.
    """

    name = "montecarlo"

    def __init__(self, seed: int, n: int = 100, reps: int = 400,
                 models=MC_MODELS, pi0s=MC_PI0S):
        self.specs = [simlab.build_procedure(t) for t in MC_PROCEDURES]
        gamma = Gamma(1, 10)
        self.cells = []
        for kind, rho, block in models:
            model = simlab.DependenceModel(kind=kind, rho=rho, block_size=block)
            for pi0 in pi0s:
                self.cells.append(simlab.MonteCarloConfig(
                    n=n, pi0=pi0, gamma=gamma, alpha=ALPHA, reps=reps,
                    seed=1000 * seed + len(self.cells), model=model))
        self.ops = len(self.cells) * reps * len(self.specs)

    def pairwise_models(self):
        return []

    def warm_up(self):
        cfg = self.cells[0]
        simlab.run_cell(simlab.MonteCarloConfig(
            n=cfg.n, pi0=cfg.pi0, gamma=cfg.gamma, reps=2, model=cfg.model),
            self.specs)

    def run_round(self) -> Round:
        return Round([simlab.run_cell(cfg, self.specs) for cfg in self.cells],
                     self.ops, 0)

    def digest(self, outputs) -> bytes:
        return b"".join(e.tobytes() + p.tobytes()
                        for out in outputs for e, p in out.values())

    def check(self, outputs) -> list:
        errors = []
        for cfg, out in zip(self.cells, outputs):
            errors += self._check_cell(cfg, out)
        return errors

    def _check_cell(self, cfg, out) -> list:
        tag = f"{cfg.model.kind} pi0={cfg.pi0}"
        n, n0, g = cfg.n, cfg.n0, cfg.gamma
        n1 = n - n0
        is_null = [True] * n0 + [False] * n1
        mu = [0.0] * n0 + [cfg.effect] * n1
        if set(out) != {s.name for s in self.specs}:
            return [f"{tag}: procedures {sorted(out)}"]
        errors = []
        constants = {}
        for spec in self.specs:
            values = simlab.procedure_constants(spec, n, g, cfg.alpha).values
            constants[spec.name] = values.tolist()
            if spec.family == "lr" and _rel_err(
                    values, ref.lr_constants(n, g.num, g.den, cfg.alpha)) > 1e-15:
                errors.append(f"{tag}: {spec.name} constants differ from the "
                              "Lehmann-Romano formula")
            exceed, power = out[spec.name]
            if exceed.shape != (cfg.reps,) or power.shape != (cfg.reps,):
                errors.append(f"{tag}: {spec.name} has {exceed.size} "
                              f"replications, expected {cfg.reps}")
        if errors:
            return errors

        for rep in range(cfg.reps):
            z = ref.regenerate_sample(cfg.model.kind, cfg.model.rho,
                                      cfg.model.block_size, mu, cfg.seed, rep)
            p = ref.two_sided_p(z)
            if _rel_err(simlab.two_sided_pvalues(z), p) > 1e-12:
                errors.append(f"{tag} rep {rep}: p-values differ from "
                              "erfc(|z|/sqrt 2)")
            for spec in self.specs:
                r, v, s = ref.rejection_counts(p, constants[spec.name],
                                               spec.direction, is_null)
                exceed, power = out[spec.name]
                want_power = s / n1 if n1 else math.nan
                if bool(exceed[rep]) != ref.exceeds(v, r, spec.k, g.num, g.den):
                    errors.append(f"{tag} rep {rep}: {spec.name} exceedance "
                                  f"{bool(exceed[rep])}, reference R={r} V={v}")
                if not (power[rep] == want_power
                        or (math.isnan(want_power) and math.isnan(power[rep]))):
                    errors.append(f"{tag} rep {rep}: {spec.name} power "
                                  f"{power[rep]}, reference {want_power}")
            if len(errors) > 20:
                return errors

        if n1 and (out["lr-su"][1] < out["lr-sd"][1]).any():
            errors.append(f"{tag}: lr-su power below lr-sd on some replication")
        for spec in self.specs:
            # the positive-dependence LR guarantee covers equicorrelation only
            if spec.family == "lr" and cfg.model.kind != "uniform":
                continue
            rate = float(out[spec.name][0].mean())
            se = math.sqrt(rate * (1.0 - rate) / cfg.reps)
            if rate > cfg.alpha + 3.0 * se:
                errors.append(f"{tag}: {spec.name} exceedance rate {rate} above "
                              f"alpha + 3 se = {cfg.alpha + 3.0 * se}")
        return errors


# ---------------------------------------------------------------------------
# pairtables

PAIR_SMALL = tuple((n, g, rho, d) for n in (10, 20, 50) for g in ("1/10", "1/4")
                   for rho in (0.1, 0.3, 0.5) for d in ("sd", "su"))
PAIR_LARGE = ((200, "1/10", 0.3, "sd"), (200, "1/10", 0.3, "su"))

# (a, b, rho) spot points for the bivariate normal kernel
BVN_POINTS = ((-1.2, 0.4, 0.3), (0.5, -0.7, -0.6), (-2.5, -2.0, 0.9),
              (1.0, 1.5, 0.95), (-0.3, 0.8, -0.95), (-3.0, -0.2, 0.1))


class PairTables:
    """Calibrated thm37/thm38 tables, as ``fdpctl constants`` builds them.

    Two n = 200 tables (rho = 0.3) and 36 small ones.  An operation is one
    table; a table whose final bound ``ConstantsReport.scale`` lies above
    alpha breaks the level claim and counts as failed.  The seed only
    shuffles the order of the tables: which tables fail must not depend
    on it.
    """

    name = "pairtables"

    def __init__(self, seed: int, cells=PAIR_LARGE + PAIR_SMALL):
        self.cells = [(n, Gamma.parse(g), rho, d) for n, g, rho, d in cells]
        random.Random(seed).shuffle(self.cells)
        self.models = {rho: pairdist.EquicorrelatedPairs(rho)
                       for _, _, rho, _ in self.cells}

    def pairwise_models(self):
        return list(self.models.values())

    def table(self, cell):
        n, g, rho, d = cell
        template = cmod.make_template("lr", n, gamma=g)
        return cmod.calibrate_pair_scale(d, template, g, 1, ALPHA,
                                         self.models[rho])

    def warm_up(self):
        self.table((5, Gamma(1, 10), self.cells[0][2], "su"))

    def run_round(self) -> Round:
        outputs = [self.table(cell) for cell in self.cells]
        failed = sum(1 for rep in outputs if rep.scale > ALPHA)
        return Round(outputs, len(outputs), failed)

    def digest(self, outputs):
        return [(rep.beta_star, rep.scale) for rep in outputs]

    def check(self, outputs) -> list:
        errors = []
        for a, b, rho in BVN_POINTS:
            got = pairdist.bvn_cdf(a, b, rho)
            if abs(got - ref.bvn_quad(a, b, rho)) > 1e-12:
                errors.append(f"bvn_cdf({a}, {b}, {rho}) = {got} differs from "
                              "the 1-d quadrature")
            if abs(pairdist.bvn_cdf(0.0, 0.0, rho) - ref.bvn_origin(rho)) > 1e-12:
                errors.append(f"bvn_cdf(0, 0, {rho}) differs from Sheppard's formula")
        if len(outputs) != len(self.cells):
            return errors + [f"{len(outputs)} tables for {len(self.cells)} cells"]
        for cell, rep in zip(self.cells, outputs):
            errors += self._check_table(cell, rep)
        return errors

    def _check_table(self, cell, rep) -> list:
        n, g, rho, d = cell
        tag = f"thm{37 if d == 'sd' else 38} n={n} gamma={g} rho={rho}"
        F = self.models[rho]
        template = cmod.make_template("lr", n, gamma=g)
        beta = rep.beta_star
        errors = []
        if not (rep.constants.values == template.values(beta)[1:]).all():
            errors.append(f"{tag}: constants are not the template at beta*")
        bound = cmod.pair_sd_bound if d == "sd" else cmod.pair_su_bound
        value = bound(template, g, 1, F, beta).value
        if abs(value - ALPHA) > 1e-9:
            errors.append(f"{tag}: bound at beta* is {value!r}, not alpha")
        marginal = cmod.arbdep_sd_report if d == "sd" else cmod.arbdep_su_report
        base = marginal(template.values(ALPHA), g, 1, ALPHA).constants.values
        # slack covers the documented 1e-9 calibration residual
        if (rep.constants.values < base * (1.0 - 1e-8)).any():
            errors.append(f"{tag}: calibrated constants fall below thm"
                          f"{35 if d == 'sd' else 36}")
        if n <= 12:
            naive = oracle.naive_pair_sd_bound if d == "sd" \
                else oracle.naive_pair_su_bound
            value = naive(template, g, 1, F, beta)
            if abs(value - ALPHA) > 1e-9 + 1e-12:
                errors.append(f"{tag}: literal bound at beta* is {value!r}")
        return errors


# ---------------------------------------------------------------------------
# directtables

DIRECT_NS = (8, 12, 50, 100, 200)
DIRECT_GAMMAS = ("1/10", "1/4")
DIRECT_TEMPLATES = ("lr", "bh", "gbs")
MARGINAL = {"posdep_sd": "posdep_sd_report", "posdep_su": "posdep_su_report",
            "arbdep_sd": "arbdep_sd_report", "arbdep_su": "arbdep_su_report"}
NAIVE = {"posdep_sd": "naive_posdep_sd_scale", "posdep_su": "naive_posdep_su_scale",
         "arbdep_sd": "naive_arbdep_sd_scale", "arbdep_su": "naive_arbdep_su_scale"}
DIRECT_FAMILIES = ("lr", *MARGINAL, "pairwise_lr")


@dataclass(frozen=True)
class DirectCell:
    family: str
    n: int
    gamma: Gamma
    alpha: float
    template: str = "lr"
    k: int = 1
    rho: float | None = None


class DirectTables:
    """The directly enumerated families over n <= 200, one table per op.

    For every (n, gamma): the LR constants; posdep/arbdep sd/su tables on
    the lr, bh and gbs templates for k = 1, 2, 3; and pairwise-LR tables
    for k = 2, 3.  The seed draws each (n, gamma)'s alpha and pairwise
    rho, which leave the work per table unchanged, and the table order.
    """

    name = "directtables"

    def __init__(self, seed: int, ns=DIRECT_NS, gammas=DIRECT_GAMMAS):
        rng = random.Random(seed)
        self.cells = []
        for n in ns:
            for g in map(Gamma.parse, gammas):
                alpha = round(rng.uniform(0.02, 0.08), 4)
                rho = round(rng.uniform(0.1, 0.6), 2)
                self.cells.append(DirectCell("lr", n, g, alpha))
                for family in MARGINAL:
                    for template in DIRECT_TEMPLATES:
                        for k in (1, 2, 3):
                            self.cells.append(
                                DirectCell(family, n, g, alpha, template, k))
                for k in (2, 3):
                    self.cells.append(
                        DirectCell("pairwise_lr", n, g, alpha, k=k, rho=rho))
        rng.shuffle(self.cells)
        self.models = {c.rho: pairdist.EquicorrelatedPairs(c.rho)
                       for c in self.cells if c.rho is not None}

    def pairwise_models(self):
        return list(self.models.values())

    def table(self, c: DirectCell):
        if c.family == "lr":
            return cmod.lr_constants(c.n, c.gamma, c.alpha)
        if c.family == "pairwise_lr":
            return cmod.pairwise_lr_report(c.n, c.gamma, c.k, c.alpha,
                                           self.models[c.rho])
        tpl = cmod.make_template(c.template, c.n, gamma=c.gamma).values(c.alpha)
        return getattr(cmod, MARGINAL[c.family])(tpl, c.gamma, c.k, c.alpha)

    def warm_up(self):
        seen = set()
        for c in self.cells:
            if c.family not in seen:
                seen.add(c.family)
                self.table(replace(c, n=8))

    def run_round(self) -> Round:
        outputs = [self.table(c) for c in self.cells]
        return Round(outputs, len(outputs), 0)

    def digest(self, outputs):
        return [(rep.scale, rep.constants.values.tobytes()) for rep in outputs]

    def check(self, outputs) -> list:
        if len(outputs) != len(self.cells):
            return [f"{len(outputs)} tables for {len(self.cells)} cells"]
        errors = []
        scales = {}
        for c, rep in zip(self.cells, outputs):
            errors += self._check_table(c, rep)
            scales[c] = rep.scale
        for c, scale in scales.items():
            if c.family.startswith("arbdep"):
                twin = DirectCell("posdep" + c.family[6:], c.n, c.gamma, c.alpha,
                                  c.template, c.k)
                if scale < scales[twin] * (1.0 - 1e-12):
                    errors.append(f"{c}: arbdep scale {scale!r} below posdep "
                                  f"scale {scales[twin]!r}")
        return errors

    def _check_table(self, c: DirectCell, rep) -> list:
        values = rep.constants.values
        if c.family == "lr":
            want = ref.lr_constants(c.n, c.gamma.num, c.gamma.den, c.alpha)
            if _rel_err(values, want) > 1e-12:
                return [f"{c}: LR constants differ from the formula"]
            return []
        ranks = np.maximum(np.arange(1, c.n + 1), c.k)
        if c.family == "pairwise_lr":
            tpl = np.array([0.0] + ref.lr_constants(c.n, c.gamma.num,
                                                    c.gamma.den, c.alpha))
            want = tpl[ranks] / min(rep.scale, 1.0)
            naive = (oracle.naive_pairwise_lr_scale, (c.n, c.k, c.alpha,
                                                      self.models[c.rho]))
        else:
            tpl = cmod.make_template(c.template, c.n,
                                     gamma=c.gamma).values(c.alpha)
            want = c.alpha * tpl[ranks] / rep.scale
            naive = (getattr(oracle, NAIVE[c.family]), (tpl, c.n, c.gamma, c.k))
        errors = []
        if _rel_err(values, want) > 1e-12:
            errors.append(f"{c}: constants are not the template rescaled by "
                          "the reported scale")
        if c.family.startswith("posdep") and c.template == "lr" and c.k == 1 \
                and abs(rep.scale - c.alpha) > 1e-12 * c.alpha:
            errors.append(f"{c}: scale {rep.scale!r} on the LR template is "
                          "not alpha")
        if c.n <= 12:
            fn, args = naive
            want_scale = fn(*args)
            if abs(rep.scale - want_scale) > 1e-12 * abs(want_scale):
                errors.append(f"{c}: scale {rep.scale!r}, literal loops give "
                              f"{want_scale!r}")
        return errors


# ---------------------------------------------------------------------------
# oracle

ORACLE_ROWS = {
    "stepdown_exceedance_bound[exhaustive]": "exhaustive",
    "stepup_exceedance_bound[exhaustive]": "exhaustive",
    "exceedance_containment[exhaustive]": "containment",
    "stepdown_exceedance_bound[fuzz]": "fuzz",
    "stepup_exceedance_bound[fuzz]": "fuzz",
    "exceedance_containment[fuzz]": "fuzz",
    "order_stat_bounds[fuzz]": "order_stat",
    "index_map_identities": "index_maps",
}


def row_metric(row: str) -> str:
    """Metric name of an oracle row: brackets become a dotted suffix."""
    return "oracle.row_s." + row.replace("[", ".").replace("]", "")


class OracleSuite:
    """``oracle.run_suite(("lemmas",))``, acceptance criterion 6 made smaller.

    The seed is the suite's fuzz seed.  An operation is one checked
    instance.
    """

    name = "oracle"

    def __init__(self, seed: int, fuzz_count: int = 20_000):
        self.seed = seed
        self.fuzz_count = fuzz_count

    def pairwise_models(self):
        return []

    def warm_up(self):
        inst = oracle.SmallInstance(p=(0.01, 0.5), is_null=(True, False),
                                    constants=(0.3, 0.6), gamma=Gamma(1, 10))
        oracle.check_sd_exceedance_bound(inst)
        oracle.check_su_exceedance_bound(inst)
        oracle.check_exceedance_containment(inst)

    def run_round(self) -> Round:
        report = oracle.run_suite(("lemmas",), fuzz_count=self.fuzz_count,
                                  seed=self.seed)
        return Round([report], sum(r.instances for r in report.rows), 0)

    def digest(self, outputs):
        return [(r.name, r.instances, r.violations) for r in outputs[0].rows]

    def expected_count(self, kind: str) -> int | None:
        """Instances a row must check; None where only bounds are known."""
        lattice = len(oracle.p_lattice())
        if kind == "exhaustive":
            return ref.exhaustive_count(lattice)
        if kind == "containment":
            # the containment event ignores k: one sweep per gamma
            return ref.exhaustive_count(lattice, combos=2)
        if kind == "fuzz":
            return self.fuzz_count
        if kind == "index_maps":
            return 6 * sum(range(1, 13))
        return None

    def check(self, outputs) -> list:
        report = outputs[0]
        errors = []
        names = [r.name for r in report.rows]
        if sorted(names) != sorted(ORACLE_ROWS):
            errors.append(f"rows {names}, expected {list(ORACLE_ROWS)}")
        for row in report.rows:
            if row.violations:
                errors.append(f"{row.name}: {row.violations} violations, first "
                              f"{row.first_failure}")
            kind = ORACLE_ROWS.get(row.name)
            want = self.expected_count(kind)
            if kind == "order_stat":
                # one Markov check per draw, plus a pairwise one when n0 >= 2
                if not self.fuzz_count <= row.instances <= 2 * self.fuzz_count:
                    errors.append(f"{row.name}: {row.instances} instances for "
                                  f"{self.fuzz_count} draws")
            elif want is not None and row.instances != want:
                errors.append(f"{row.name}: {row.instances} instances, "
                              f"expected {want}")
        return errors


WORKLOADS = {w.name: w for w in (MonteCarlo, PairTables, DirectTables,
                                 OracleSuite)}
