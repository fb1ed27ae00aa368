"""Monte Carlo harness: correlated normal data, two-sided tests, error rates.

Data model: n dependent N(mu_i, 1) variables with pi0*n of the means zero
and the rest equal to the effect size d, under one of three correlation
structures (uniform pairwise, block, AR(1)), each generated by its O(n)
factor/recursive construction rather than a dense Cholesky.

Reproducibility contract: replication r draws from a generator seeded by
(seed, r) only, so results are bit-identical regardless of execution order,
block boundaries or worker count.  Within a grid cell every procedure sees
the same sample per replication (common random numbers), which makes
stepup-vs-stepdown power comparisons pointwise rather than merely in
distribution.

``run_cell`` is the one simulation path: ``run_grid`` sweeps a rho x pi0
grid of cells through it and summarizes each procedure, at its own k, as
a ``MonteCarloReport``.  A cell runs its replications in blocks of at most
``_BLOCK_VALUES`` sampled values: each block is generated, converted to
p-values and scanned by every procedure with array operations, so peak
memory is O(block) whatever the number of replications.

Conventions (the data model leaves them open): the signal means occupy the
last (1-pi0)n positions, which matters only under AR(1); two-sided
p-values are the equal-tailed 2(1 - Phi(|z|)).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from .core import CriticalConstants, Gamma, TruthLabels, exceeds_counts
from .engine import step_counts
# unused here; perfbench's traced run patches these names on this module
from .engine import annotate_truth, step_down, step_up  # noqa: F401
from . import constants as cmod
from .pairdist import EquicorrelatedPairs, PairwiseNull

__all__ = [
    "DependenceModel",
    "ProcedureSpec",
    "PROCEDURE_TOKENS",
    "build_procedure",
    "MonteCarloConfig",
    "MonteCarloReport",
    "generate_sample",
    "generate_samples",
    "two_sided_pvalues",
    "run_cell",
    "run_grid",
]

DEFAULT_EFFECT = math.sqrt(10.0)

# sampled values (rows x n) per block of a cell; bounds run_cell's temporaries
_BLOCK_VALUES = 1 << 18

_log = logging.getLogger("fdpctl")


@dataclass(frozen=True)
class DependenceModel:
    """Correlation structure: uniform(rho), block(rho, s with s | n), ar1(rho)."""

    kind: str
    rho: float
    block_size: int | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "block", "ar1"):
            raise ValueError(f"unknown dependence kind {self.kind!r}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if self.kind == "block" and (self.block_size is None or self.block_size < 1):
            raise ValueError("block dependence needs a positive block size")

    @classmethod
    def parse(cls, text: str) -> "DependenceModel":
        """'uniform', 'ar1', or 'block:<size>' (rho supplied separately)."""
        kind, _, arg = text.partition(":")
        if kind == "block":
            if not (arg.isdecimal() and int(arg) >= 1):
                raise ValueError(f"block size must be a positive integer, got {arg!r}")
            return cls(kind="block", rho=0.0, block_size=int(arg))
        if arg:
            raise ValueError(f"unexpected argument in dependence {text!r}")
        return cls(kind=kind, rho=0.0)


def generate_sample(model: DependenceModel, mu, rng) -> np.ndarray:
    """One draw of n correlated N(mu_i, 1) variables: generate_samples' one-row case."""
    return generate_samples(model, mu, [rng])[0]


def generate_samples(model: DependenceModel, mu, rngs) -> np.ndarray:
    """Row i is one draw of n correlated N(mu_j, 1) variables from rngs[i].

    Each row consumes its generator exactly as a lone draw does (the shared
    factors first, then n innovations; uniform dependence is one block of
    size n), and the O(n) factor and AR(1) constructions run on whole
    columns with the same float operations, so a row does not depend on the
    block it is drawn in.
    """
    mu = np.asarray(mu, dtype=float)
    n = mu.size
    rho = model.rho
    rows = len(rngs)
    z = np.empty((rows, n))
    if model.kind == "ar1":
        for row, rng in zip(z, rngs):
            rng.standard_normal(out=row)
        z[:, 1:] *= math.sqrt(1.0 - rho * rho)
        for i in range(1, n):
            z[:, i] += rho * z[:, i - 1]
    else:
        s = n if model.kind == "uniform" else model.block_size
        if n % s:
            raise ValueError(f"block size {s} does not divide n={n}")
        shared = np.empty((rows, n // s))
        for i, rng in enumerate(rngs):
            rng.standard_normal(out=shared[i])
            rng.standard_normal(out=z[i])
        z *= math.sqrt(1.0 - rho)
        blocks = z.reshape(rows, n // s, s)
        blocks += math.sqrt(rho) * shared[:, :, None]
    z += mu
    return z


def two_sided_pvalues(z) -> np.ndarray:
    """Equal-tailed two-sided p-values 2(1 - Phi(|z|))."""
    return 2.0 * ndtr(-np.abs(np.asarray(z, dtype=float)))


# ---------------------------------------------------------------------------
# procedures

@dataclass(frozen=True)
class ProcedureSpec:
    """Direction + constant family + (k, gamma, alpha) + optional pairwise F.

    ``family`` is a key of ``constants.FAMILIES``; ``direction`` picks the
    stepwise engine and ``template`` the base constants for the rescaled
    and calibrated families.  The pair must be one of
    ``PROCEDURE_TOKENS``: a family with its own direction runs only in it.
    """

    name: str
    direction: str            # 'su' | 'sd'
    family: str
    k: int = 1
    template: str = "lr"

    def __post_init__(self):
        if (self.family, self.direction) not in PROCEDURE_TOKENS.values():
            raise ValueError(f"no procedure runs family {self.family!r} in "
                             f"direction {self.direction!r}")

    @property
    def uses_pairwise(self) -> bool:
        return cmod.FAMILIES[self.family].pairwise


# CLI tokens for --procedures, mapped to (family, direction): a family with
# its own direction is named as is, lr and thm34 as <family>-sd / <family>-su.
PROCEDURE_TOKENS = {
    (name if fam.direction else f"{name}-{d}"): (name, d)
    for name, fam in cmod.FAMILIES.items()
    for d in ((fam.direction,) if fam.direction else ("sd", "su"))
}


def build_procedure(token: str, k: int = 1, template: str = "lr") -> ProcedureSpec:
    if token not in PROCEDURE_TOKENS:
        raise ValueError(f"unknown procedure token {token!r}; "
                         f"known: {', '.join(sorted(PROCEDURE_TOKENS))}")
    family, direction = PROCEDURE_TOKENS[token]
    return ProcedureSpec(name=token, direction=direction, family=family,
                         k=k, template=template)


def procedure_constants(spec: ProcedureSpec, n: int, gamma: Gamma, alpha: float,
                        F: PairwiseNull | None = None) -> CriticalConstants:
    """Resolve a procedure's critical constants (data-independent)."""
    return cmod.family_report(spec.family, n, gamma, spec.k, alpha,
                              template=spec.template, F=F).constants


# ---------------------------------------------------------------------------
# configuration and reports

@dataclass(frozen=True)
class MonteCarloConfig:
    n: int
    pi0: float
    gamma: Gamma
    alpha: float = 0.05
    effect: float = DEFAULT_EFFECT
    reps: int = 2000
    seed: int = 0
    model: DependenceModel = DependenceModel(kind="uniform", rho=0.0)

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not math.isfinite(self.effect):
            raise ValueError(f"effect must be finite, got {self.effect}")
        if not self.n >= 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0.0 <= self.pi0 <= 1.0:
            raise ValueError(f"pi0 must lie in [0, 1], got {self.pi0}")
        n0 = self.pi0 * self.n
        if abs(n0 - round(n0)) > 1e-9:
            raise ValueError(f"pi0*n must be integral, got {n0}")

    @property
    def n0(self) -> int:
        return round(self.pi0 * self.n)


@dataclass(frozen=True)
class MonteCarloReport:
    """Exceedance rate and power; each standard error is None at one replication."""

    procedure: str
    exceedance: float
    exceedance_se: float | None
    power: float | None
    power_se: float | None
    config: MonteCarloConfig


def _pairwise_for(model: DependenceModel) -> PairwiseNull:
    if model.kind != "uniform" and model.rho != 0.0:
        raise ValueError(
            "pairwise-aware procedures need a common pairwise correlation; "
            f"dependence kind {model.kind!r} is not equicorrelated"
        )
    return EquicorrelatedPairs(model.rho)


def run_cell(config: MonteCarloConfig, procedures) -> dict:
    """Run every procedure on the cell's replications, block by block.

    Returns {procedure name: (exceed indicators, power per rep)} with power
    entries NaN when there are no false nulls; procedure names must be
    distinct.  Constants are resolved once per procedure; the per-rep RNG
    depends only on (seed, rep).  Each block of replications is drawn,
    converted to p-values and scanned by all procedures at once, so memory
    is O(block) and every replication gets the numbers of a lone
    step_down/step_up run.  Each procedure's exceedance indicator uses its
    own generalization order spec.k, so mixed-k cells estimate each
    procedure's own error rate.  One DEBUG
    record on the "fdpctl" logger gives the cell's per-layer seconds.
    """
    procedures = list(procedures)
    names = [spec.name for spec in procedures]
    if len(set(names)) != len(names):
        dup = sorted({name for name in names if names.count(name) > 1})
        raise ValueError(f"procedure names must be distinct in a cell, "
                         f"got {', '.join(dup)} more than once")
    n, n0 = config.n, config.n0
    n1 = n - n0
    is_null = TruthLabels.nulls_first(n, n0).as_array()
    mu = np.where(is_null, 0.0, config.effect)
    gamma = config.gamma
    clock = time.perf_counter

    start = clock()
    runs = []
    for spec in procedures:
        F = _pairwise_for(config.model) if spec.uses_pairwise else None
        runs.append((spec.direction,
                     procedure_constants(spec, n, gamma, config.alpha, F)))
    constants_s = clock() - start

    out = {name: (np.zeros(config.reps, dtype=bool), np.full(config.reps, np.nan))
           for name in names}
    generate_s = pvalues_s = engine_s = 0.0
    rows = max(1, _BLOCK_VALUES // n)
    blocks = range(0, config.reps, rows)
    for lo in blocks:
        hi = min(lo + rows, config.reps)
        t0 = clock()
        z = generate_samples(config.model, mu, [
            np.random.default_rng((config.seed, rep)) for rep in range(lo, hi)])
        t1 = clock()
        p = two_sided_pvalues(z)
        t2 = clock()
        for spec, (r, v) in zip(procedures, step_counts(p, is_null, runs)):
            exceed, power = out[spec.name]
            exceed[lo:hi] = exceeds_counts(v, r, spec.k, gamma)
            if n1 > 0:
                power[lo:hi] = (r - v) / n1
        t3 = clock()
        generate_s += t1 - t0
        pvalues_s += t2 - t1
        engine_s += t3 - t2
    _log.debug("run_cell n=%d reps=%d blocks=%d simlab.constants_s=%.6f "
               "simlab.generate_s=%.6f simlab.pvalues_s=%.6f engine.step_s=%.6f",
               n, config.reps, len(blocks), constants_s, generate_s,
               pvalues_s, engine_s)
    return out


def _summarize(name: str, exceed: np.ndarray, power: np.ndarray,
               config: MonteCarloConfig) -> MonteCarloReport:
    reps = exceed.size
    rate = float(exceed.mean())
    rate_se = math.sqrt(rate * (1.0 - rate) / reps) if reps > 1 else None
    if np.isnan(power).all():
        pw, pw_se = None, None
    else:
        pw = float(np.mean(power))
        pw_se = float(np.std(power, ddof=1) / math.sqrt(reps)) if reps > 1 else None
    return MonteCarloReport(procedure=name, exceedance=rate, exceedance_se=rate_se,
                            power=pw, power_se=pw_se, config=config)


def run_grid(base: MonteCarloConfig, procedures, rhos=None, pi0s=None,
             threads: int = 1) -> list:
    """Sweep rho x pi0, rho-major; one report per (cell, procedure).

    An axis left as None holds the base cell's value; each procedure keeps
    its own k.  With threads > 1 the cells run on a thread pool; per-cell
    work is pure and reports are collected in sweep order, so the output
    does not depend on the worker count.  Two threads never beat one, so
    the CLI offers none; the pool stays only for perfbench's ``figures.py
    threads`` and the public-name test, and goes together with them.
    """
    procedures = list(procedures)
    if not procedures:
        raise ValueError("empty procedure list")
    rhos = [base.model.rho] if rhos is None else list(rhos)
    pi0s = [base.pi0] if pi0s is None else list(pi0s)
    if not (rhos and pi0s):
        raise ValueError("empty sweep axis")
    cells = [replace(base, pi0=pi0, model=replace(base.model, rho=float(rho)))
             for rho in rhos for pi0 in pi0s]

    def work(cfg):
        return [_summarize(name, *out, cfg)
                for name, out in run_cell(cfg, procedures).items()]

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(work, cells))
    else:
        chunks = [work(cfg) for cfg in cells]
    return [report for chunk in chunks for report in chunk]
