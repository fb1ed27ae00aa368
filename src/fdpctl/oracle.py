"""Brute-force ground truth: pointwise inequality checks and naive constants.

Everything in this module is deliberately literal.  The naive_* functions
re-implement the critical-constant formulas as plain nested loops over the
displayed expressions, with floors done in exact rational arithmetic, so
they can arbitrate the optimized implementations in ``constants``.  Their
memos hold pure reads only, so none can change a result: the index maps
``naive_levels``, ``naive_sd_slack`` and ``naive_su_rank`` are exact
integer functions of integers and the immutable gamma, and a pair bound
reads F once per distinct scalar (u, v) of one call, where a repeat scalar
call would give the same bits.  The check_* functions verify, pointwise on
a concrete instance, the deterministic inequalities that underpin the
exceedance bounds; the probabilistic (expectation-level) statements are
*not* checked here because pointwise truth does not hold for them, they
are validated as Monte Carlo upper bounds in the simulation tests instead.

Exhaustive grids enumerate sorted p-value multisets times all truth
labelings; every check is invariant under jointly permuting p-values and
labels (the engine tests verify that equivariance), so this covers the full
product grid at a fraction of the cost.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import ndtri

from . import constants as cmod
from .core import CriticalConstants, Gamma, TruthLabels, exceeds_gamma
from .engine import annotate_truth, step_down, step_up
from .pairdist import (EquicorrelatedPairs, PairwiseNull, bvn_cdf,
                       two_sided_equicorr_cdf, validate_pairwise)

__all__ = [
    "SmallInstance",
    "check_sd_exceedance_bound",
    "check_su_exceedance_bound",
    "check_order_stat_markov",
    "check_order_stat_pairwise",
    "check_exceedance_containment",
    "check_level_identity",
    "check_rank_inequality",
    "naive_lr_values",
    "naive_levels",
    "naive_sd_slack",
    "naive_su_rank",
    "naive_posdep_sd_scale",
    "naive_posdep_su_scale",
    "naive_arbdep_sd_scale",
    "naive_arbdep_su_scale",
    "naive_pairwise_lr_scale",
    "naive_pair_sd_bound",
    "naive_pair_su_bound",
    "run_suite",
    "SuiteReport",
    "p_lattice",
]

# Lattice step chosen to straddle the critical values of the tested
# constants without alignment artifacts.
LATTICE_START = 0.01
LATTICE_STEP = 0.07


def p_lattice() -> tuple:
    vals = []
    x = LATTICE_START
    while x < 1.0:
        vals.append(round(x, 2))
        x += LATTICE_STEP
    return tuple(vals)


@dataclass(frozen=True)
class SmallInstance:
    """One concrete testing problem small enough for brute force."""

    p: tuple
    is_null: tuple
    constants: tuple
    gamma: Gamma
    k: int = 1

    @property
    def n(self):
        return len(self.p)

    def null_p_sorted(self):
        return sorted(pv for pv, h in zip(self.p, self.is_null) if h)


# ---------------------------------------------------------------------------
# naive index maps (literal definitions, exact rational floors)

def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


@lru_cache(maxsize=None)
def naive_levels(n0: int, n1: int, gamma: Gamma) -> int:
    g = gamma.fraction
    return min(n0, _floor(g * n1 / (1 - g)) + 1)


@lru_cache(maxsize=None)
def naive_sd_slack(i: int, n1: int, gamma: Gamma):
    """m(i): largest 0 <= j <= n1 with floor(g j/(1-g)) + 1 = i, else None."""
    if i == 0:
        return 0
    g = gamma.fraction
    js = [j for j in range(n1 + 1) if _floor(g * j / (1 - g)) + 1 == i]
    return max(js) if js else None


@lru_cache(maxsize=None)
def naive_su_rank(i: int, n: int, n1: int, gamma: Gamma) -> int:
    """mt(i) = min(m*(i), i + n1) with m*(i) = max{j <= n : floor(g j)+1 <= i}."""
    if i == 0:
        return 0
    g = gamma.fraction
    m_star = max(j for j in range(1, n + 1) if _floor(g * j) + 1 <= i)
    return min(m_star, i + n1)


def naive_lr_values(n: int, gamma: Gamma, beta) -> list:
    g = gamma.fraction
    return [float(Fraction(_floor(g * i) + 1) * Fraction(str(beta))
                  / (n + _floor(g * i) + 1 - i)) for i in range(1, n + 1)]


@lru_cache(maxsize=256)
def _lr_tuple(n: int, gamma: Gamma, alpha: float) -> tuple:
    return tuple(naive_lr_values(n, gamma, alpha))


# ---------------------------------------------------------------------------
# naive worst-case scales (triple loops; only the index maps are memoized)

def naive_posdep_sd_scale(tpl, n: int, gamma: Gamma, k: int) -> float:
    best = -np.inf
    for n0 in range(k, n + 1):
        n1 = n - n0
        for i in range(1, naive_levels(n0, n1, gamma) + 1):
            m = naive_sd_slack(i, n1, gamma)
            best = max(best, n0 * tpl[max(i, k) + m] / max(i, k))
    return best


def naive_posdep_su_scale(tpl, n: int, gamma: Gamma, k: int) -> float:
    best = -np.inf
    for n0 in range(k, n + 1):
        for i in range(k, n0 + 1):
            best = max(best, n0 * tpl[naive_su_rank(i, n, n - n0, gamma)] / i)
    return best


def naive_arbdep_sd_scale(tpl, n: int, gamma: Gamma, k: int) -> float:
    best = -np.inf
    for n0 in range(k, n + 1):
        n1 = n - n0
        total = 0.0
        prev = 0.0
        for i in range(1, naive_levels(n0, n1, gamma) + 1):
            cur = tpl[max(i, k) + naive_sd_slack(i, n1, gamma)]
            total += (cur - prev) / max(i, k)
            prev = cur
        best = max(best, n0 * total)
    return best


def naive_arbdep_su_scale(tpl, n: int, gamma: Gamma, k: int) -> float:
    best = -np.inf
    for n0 in range(k, n + 1):
        n1 = n - n0
        total = tpl[naive_su_rank(k, n, n1, gamma)] / k
        for i in range(k + 1, n0 + 1):
            total += (tpl[naive_su_rank(i, n, n1, gamma)]
                      - tpl[naive_su_rank(i - 1, n, n1, gamma)]) / i
        best = max(best, n0 * total)
    return best


def naive_pairwise_lr_scale(n: int, k: int, alpha: float, F: PairwiseNull) -> float:
    if k < 2:
        raise ValueError("pairwise generalization needs k >= 2")
    best = -np.inf
    for n0 in range(k, n + 1):
        b = [i * alpha / n0 for i in range(n0 + 1)]
        cond = lambda u: min(max(float(F.cdf(u, b[k])) / b[k], 0.0), 1.0)
        inner = cond(b[k]) / (k - 1)
        for l in range(k, n0):
            inner += (cond(b[l + 1]) - cond(b[l])) / l
        best = max(best, (n0 - 1) * inner)
    return best


def _memo_cdf(F: PairwiseNull):
    """F(u, v) as a float, computed once per distinct (u, v) of one call."""
    return lru_cache(maxsize=None)(lambda u, v: float(F.cdf(u, v)))


def naive_pair_sd_bound(template, gamma: Gamma, k: int, F: PairwiseNull,
                        beta: float) -> float:
    """Literal max-min evaluation of the pairwise stepdown bound.

    NaN once a total is NaN: Python's min and max would skip it.
    """
    n = template.n
    tpl = template.values(beta)
    Fv = _memo_cdf(F)
    best = -np.inf
    for n0 in range(k, n + 1):
        n1 = n - n0
        m_cap = naive_levels(n0, n1, gamma)
        mbar = [0] + [max(i, k) + naive_sd_slack(i, n1, gamma)
                      for i in range(1, m_cap + 1)]
        av = [tpl[r] for r in mbar]
        vmin = np.inf
        for K in range(1, m_cap + 1):
            total = 0.0
            for i in range(1, K + 1):
                total += n0 * (av[i] - av[i - 1]) / max(i, k)
            for i in range(K + 2, m_cap + 1):
                d = max(i, k) * (max(i, k) - 1)
                total += n0 * (n0 - 1) * (Fv(av[i], av[i]) - Fv(av[i - 1], av[i - 1])) / d
            if m_cap >= K + 1:
                kk = max(K + 1, k)
                total += n0 * (n0 - 1) * Fv(av[K + 1], av[K + 1]) / (kk * (kk - 1))
                total -= n0 * Fv(av[K], av[K + 1]) / kk
            if total != total:
                return np.nan
            vmin = min(vmin, total)
        best = max(best, vmin)
    return best


def naive_pair_su_bound(template, gamma: Gamma, k: int, F: PairwiseNull,
                        beta: float) -> float:
    """Literal max-min evaluation of the pairwise stepup bound.

    NaN once a total is NaN: Python's min and max would skip it.
    """
    n = template.n
    tpl = template.values(beta)
    Fv = _memo_cdf(F)
    best = -np.inf
    for n0 in range(k, n + 1):
        n1 = n - n0
        av = [tpl[naive_su_rank(i, n, n1, gamma)] for i in range(n0 + 1)]
        vmin = np.inf
        for K in range(k, n0 + 1):
            total = n0 * av[k - 1] / k
            for r in range(k, K + 1):
                total += n0 * (av[r] - av[r - 1]) / r
            for r in range(K + 1, n0 + 1):
                total += n0 * (av[r] - av[r - 1]) / r**2
                total += n0 * (n0 - 1) * (Fv(av[r], av[r]) - Fv(av[r], av[r - 1])) / r**2
                for s in range(r + 1, n0 + 1):
                    g = (Fv(av[r], av[s]) - Fv(av[r - 1], av[s])
                         - Fv(av[r], av[s - 1]) + Fv(av[r - 1], av[s - 1]))
                    total += n0 * (n0 - 1) * g / (r * s)
            if total != total:
                return np.nan
            vmin = min(vmin, total)
        best = max(best, vmin)
    return best


# ---------------------------------------------------------------------------
# pointwise inequality checks

@lru_cache(maxsize=4096)
def _cc(values: tuple) -> CriticalConstants:
    return CriticalConstants(np.array(values))


@lru_cache(maxsize=4096)
def _labels(is_null: tuple) -> TruthLabels:
    return TruthLabels(is_null)


@lru_cache(maxsize=4096)
def _run(proc, p: tuple, constants: tuple):
    """Rejection set of one engine run; it ignores labels, gamma and k."""
    return proc(np.array(p), _cc(constants))


@lru_cache(maxsize=256)
def _annotated(result, labels):
    """``annotate_truth`` of one engine run, looked up when it is called.

    Sorted lattice p-vectors reject a prefix of their order, so an
    exhaustive n-row holds at most (n + 1) 2^n distinct (result, labels)
    keys.
    """
    return annotate_truth(result, labels)


def check_sd_exceedance_bound(inst: SmallInstance):
    """Stepdown: I(V > max(gamma R, k-1)) <= the slack-indexed indicator sum.

    Returns None when the bound holds, otherwise a description string.
    """
    labels = _labels(inst.is_null)
    n0, n1 = labels.n0, labels.n1
    res = _annotated(_run(step_down, inst.p, inst.constants), labels)
    lhs = int(exceeds_gamma(res, inst.k, inst.gamma))
    if inst.k > n0:
        return None if lhs == 0 else f"exceedance with k > n0 on {inst}"
    nulls = inst.null_p_sorted()
    level = inst.gamma.floor_odds_mul(res.s) + 1
    rhs = 0
    for i in range(1, naive_levels(n0, n1, inst.gamma) + 1):
        m = naive_sd_slack(i, n1, inst.gamma)
        if nulls[max(i, inst.k) - 1] <= inst.constants[max(i, inst.k) + m - 1] \
                and level == i:
            rhs += 1
    if lhs > rhs:
        return f"stepdown bound violated: lhs={lhs} rhs={rhs} on {inst}"
    return None


def check_su_exceedance_bound(inst: SmallInstance):
    """Stepup: exceedance indicator <= both rank-mapped indicator sums.

    The reference rejection count on the null p-values alone is computed
    from its literal definition (largest i with the i-th smallest null
    p-value under the mapped constant); the indicator sums are accumulated
    in integer arithmetic over a common denominator, so the comparisons
    are exact.
    """
    labels = _labels(inst.is_null)
    n0, n1 = labels.n0, labels.n1
    res = _annotated(_run(step_up, inst.p, inst.constants), labels)
    lhs = int(exceeds_gamma(res, inst.k, inst.gamma))
    if inst.k > n0:
        return None if lhs == 0 else f"exceedance with k > n0 on {inst}"
    nulls = inst.null_p_sorted()
    mapped = [inst.constants[naive_su_rank(i, inst.n, n1, inst.gamma) - 1]
              for i in range(1, n0 + 1)]
    r2 = max((i for i in range(1, n0 + 1) if nulls[i - 1] <= mapped[i - 1]),
             default=0)
    lcm = math.lcm(*range(1, n0 + 1))
    mid = 0
    rhs = 0
    for j in range(n0):
        for i in range(inst.k, n0 + 1):
            if nulls[j] <= mapped[i - 1] and r2 == i:
                mid += lcm // i
        if nulls[j] <= mapped[inst.k - 1] and r2 >= inst.k:
            rhs += lcm // inst.k
        for i in range(inst.k + 1, n0 + 1):
            if mapped[i - 2] < nulls[j] <= mapped[i - 1] and r2 >= i:
                rhs += lcm // i
    if not (lhs * lcm <= mid <= rhs):
        return (f"stepup bound violated: lhs={lhs} mid={mid}/{lcm} "
                f"rhs={rhs}/{lcm} on {inst}")
    return None


def check_order_stat_markov(null_p, i: int, t: float):
    """I(P_(i) <= t) <= (1/i) sum_j I(P_j <= t) for null p-values."""
    nulls = sorted(null_p)
    if not 1 <= i <= len(nulls):
        raise ValueError("order index out of range")
    lhs = int(nulls[i - 1] <= t)
    count = sum(1 for pv in nulls if pv <= t)
    if Fraction(lhs) > Fraction(count, i):
        return f"order-stat bound violated at i={i}, t={t}, p={nulls}"
    return None


def check_order_stat_pairwise(null_p, i: int, t: float):
    """I(P_(i) <= t) <= sum over ordered pairs of I(max <= t) / (i (i-1))."""
    nulls = sorted(null_p)
    if not 2 <= i <= len(nulls):
        raise ValueError("order index must be in [2, n0]")
    lhs = int(nulls[i - 1] <= t)
    count = sum(1 for pv in nulls if pv <= t)
    pairs = count * (count - 1)
    if Fraction(lhs) > Fraction(pairs, i * (i - 1)):
        return f"pairwise order-stat bound violated at i={i}, t={t}, p={nulls}"
    return None


def check_exceedance_containment(inst: SmallInstance, alpha: float = 0.05):
    """Whenever V >= floor(gamma R) + 1, some null p-value P_(v) <= v alpha/n0.

    Runs both stepwise directions with the Lehmann-Romano constants at
    level alpha (the instance's own constants are ignored here).
    """
    labels = _labels(inst.is_null)
    n0 = labels.n0
    if n0 == 0:
        return None
    lr = _lr_tuple(inst.n, inst.gamma, alpha)
    nulls = inst.null_p_sorted()
    for proc in (step_down, step_up):
        res = _annotated(_run(proc, inst.p, lr), labels)
        if res.r > 0 and res.v >= inst.gamma.floor_mul(res.r) + 1:
            if not any(nulls[v - 1] <= v * alpha / n0 for v in range(1, n0 + 1)):
                return (f"containment violated for {proc.__name__} on {inst}: "
                        f"V={res.v}, R={res.r}")
    return None


def check_level_identity(n: int, n0: int, gamma: Gamma):
    """floor(gamma (i + m(i))) + 1 = i for every level i in [1, M]."""
    n1 = n - n0
    for i in range(1, naive_levels(n0, n1, gamma) + 1):
        m = naive_sd_slack(i, n1, gamma)
        if gamma.floor_mul(i + m) + 1 != i:
            return f"level identity fails at n={n}, n0={n0}, gamma={gamma}, i={i}"
    return None


def check_rank_inequality(n: int, n0: int, gamma: Gamma):
    """floor(gamma mt(i)) + 1 <= i for every i in [1, n0]."""
    n1 = n - n0
    for i in range(1, n0 + 1):
        if gamma.floor_mul(naive_su_rank(i, n, n1, gamma)) + 1 > i:
            return f"rank inequality fails at n={n}, n0={n0}, gamma={gamma}, i={i}"
    return None


# ---------------------------------------------------------------------------
# suite driver

@dataclass
class SuiteRow:
    name: str
    instances: int
    violations: int
    first_failure: str | None = None
    elapsed: float = 0.0  # wall-clock seconds spent on the row


@dataclass
class SuiteReport:
    rows: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(row.violations == 0 for row in self.rows)

    def add(self, name, instances, failures, elapsed=0.0):
        self.rows.append(SuiteRow(
            name=name, instances=instances, violations=len(failures),
            first_failure=failures[0] if failures else None, elapsed=elapsed,
        ))

    def run(self, name, outcomes):
        """Check one row and append it.

        ``outcomes`` yields one item per instance: its failure message, or
        None when the instance passes.  Every failing instance counts as a
        violation; the first message is kept.
        """
        start = time.perf_counter()
        instances = violations = 0
        first = None
        for msg in outcomes:
            instances += 1
            if msg is not None:
                violations += 1
                if first is None:
                    first = msg
        self.rows.append(SuiteRow(name, instances, violations, first,
                                  time.perf_counter() - start))


@lru_cache(maxsize=None)
def _spread_constants(n: int) -> tuple:
    return tuple((i + 1) / (n + 2) for i in range(n))


def _exhaustive_instances(n: int, gamma: Gamma, k: int):
    """Sorted p-multisets x all truth labelings, spread constants."""
    lattice = p_lattice()
    constants = _spread_constants(n)
    labelings = list(itertools.product((False, True), repeat=n))
    for p in itertools.combinations_with_replacement(lattice, n):
        for labels in labelings:
            yield SmallInstance(p=p, is_null=labels, constants=constants,
                                gamma=gamma, k=k)


_FUZZ_BLOCK = 1024  # instances drawn per batch of whole-array calls


def _fuzz_instances(count: int, rng, n_max: int = 8):
    """``count`` random instances, drawn ``_FUZZ_BLOCK`` at a time.

    Per instance: n uniform on 1..n_max, iid uniform p-values rounded to
    one decimal with probability 0.3 (to provoke ties), nulls iid with a
    uniform per-instance rate, with probability 0.5 own sorted constants
    uniform on [0.01, 0.99] (else the spread constants), gamma 1/10 or 1/4
    and k uniform on 1..3.
    """
    gammas = (Gamma(1, 10), Gamma(1, 4))
    for start in range(0, count, _FUZZ_BLOCK):
        size = min(_FUZZ_BLOCK, count - start)
        ns = rng.integers(1, n_max + 1, size=size)
        ends = np.cumsum(ns).tolist()
        owner = np.repeat(np.arange(size), ns)
        p = rng.uniform(size=ends[-1])
        ties = rng.uniform(size=size) < 0.3
        p = np.where(ties[owner], p.round(1), p).tolist()
        labels = (rng.uniform(size=ends[-1])
                  < rng.uniform(size=size)[owner]).tolist()
        own = rng.uniform(size=size) < 0.5
        mine = own[owner]
        raw = rng.uniform(0.01, 0.99, size=int(mine.sum()))
        own_sorted = iter(raw[np.lexsort((raw, owner[mine]))].tolist())
        g_index = rng.integers(2, size=size).tolist()
        ks = rng.integers(1, 4, size=size).tolist()
        lo = 0
        for j, hi in enumerate(ends):
            n = hi - lo
            constants = (tuple(itertools.islice(own_sorted, n)) if own[j]
                         else _spread_constants(n))
            yield SmallInstance(
                p=tuple(p[lo:hi]), is_null=tuple(labels[lo:hi]),
                constants=constants, gamma=gammas[g_index[j]], k=ks[j],
            )
            lo = hi


def _order_stat_outcomes(count: int, rng):
    """Markov check per draw, plus the pairwise one when n0 >= 2."""
    lattice = p_lattice()
    for _ in range(count):
        n0 = int(rng.integers(1, 9))
        nulls = rng.uniform(size=n0)
        i = int(rng.integers(1, n0 + 1))
        t = float(lattice[int(rng.integers(len(lattice)))])
        yield check_order_stat_markov(nulls, i, t)
        if n0 >= 2:
            yield check_order_stat_pairwise(nulls, max(i, 2), t)


def _lemma_suite(report: SuiteReport, fuzz_count: int, seed: int):
    gammas = (Gamma(1, 10), Gamma(1, 4))
    combos = [(g, k) for g in gammas for k in (1, 2, 3)]

    for check, name in ((check_sd_exceedance_bound, "stepdown_exceedance_bound"),
                        (check_su_exceedance_bound, "stepup_exceedance_bound")):
        insts = (inst for n in (2, 3, 4) for g, k in combos
                 for inst in _exhaustive_instances(n, g, k))
        report.run(f"{name}[exhaustive]", map(check, insts))
    # the containment event does not involve k, so one sweep per gamma
    insts = (inst for n in (2, 3, 4) for g in gammas
             for inst in _exhaustive_instances(n, g, 1))
    report.run("exceedance_containment[exhaustive]",
               map(check_exceedance_containment, insts))

    rng = np.random.default_rng(seed)
    for check, name in ((check_sd_exceedance_bound, "stepdown_exceedance_bound"),
                        (check_su_exceedance_bound, "stepup_exceedance_bound"),
                        (check_exceedance_containment, "exceedance_containment")):
        report.run(f"{name}[fuzz]", map(check, _fuzz_instances(fuzz_count, rng)))

    report.run("order_stat_bounds[fuzz]",
               _order_stat_outcomes(fuzz_count, np.random.default_rng(seed + 1)))
    report.run("index_map_identities",
               (check_level_identity(n, n0, g) or check_rank_inequality(n, n0, g)
                for g, _ in combos for n in range(1, 13) for n0 in range(1, n + 1)))


def _mismatch(got, want, what):
    """None when got equals want to 1e-12 relative, else a message (NaN fails)."""
    if not abs(got - want) <= 1e-12 * abs(want):
        return f"{what}: {got!r} vs {want!r}"
    return None


def _scale_identity_outcomes():
    """The LR template rescaled by thm32/thm33 at k = 1 has scale alpha."""
    for g in (Gamma(1, 20), Gamma(1, 10), Gamma(1, 4), Gamma(3, 10)):
        for n in range(2, 41):
            tpl = cmod.lr_template(n, g, 0.05)
            for fn, tag in ((cmod.posdep_sd_report, "sd"),
                            (cmod.posdep_su_report, "su")):
                yield _mismatch(fn(tpl, g, 1, 0.05).scale, 0.05,
                                f"lr scale identity fails ({tag}, n={n}, gamma={g})")


def _dual_outcomes():
    """Each optimized constant family against its literal-loop twin."""
    cells = [(n, g, k) for n in (5, 8, 12)
             for g in (Gamma(1, 10), Gamma(1, 4)) for k in (1, 2, 3)]
    for n, g, k in cells:
        for kind in ("lr", "bh", "gbs"):
            tpl = cmod.make_template(kind, n, gamma=g).values(0.05)
            what = f"scale mismatch n={n} gamma={g} k={k} {kind}"
            for opt, naive in ((cmod.posdep_sd_report, naive_posdep_sd_scale),
                               (cmod.posdep_su_report, naive_posdep_su_scale),
                               (cmod.arbdep_sd_report, naive_arbdep_sd_scale),
                               (cmod.arbdep_su_report, naive_arbdep_su_scale)):
                yield _mismatch(opt(tpl, g, k, 0.05).scale,
                                naive(tpl, n, g, k), what)
    for n, g, k in cells:
        for F in (EquicorrelatedPairs(0.0), EquicorrelatedPairs(0.5)):
            if k >= 2:
                yield _mismatch(cmod.pairwise_lr_report(n, g, k, 0.05, F).scale,
                                naive_pairwise_lr_scale(n, k, 0.05, F),
                                f"pairwise scale mismatch n={n} k={k} {F.name}")
            template = cmod.make_template("lr", n, gamma=g)
            for beta in (0.02, 0.05):
                for opt, naive in ((cmod.pair_sd_bound, naive_pair_sd_bound),
                                   (cmod.pair_su_bound, naive_pair_su_bound)):
                    yield _mismatch(opt(template, g, k, F, beta).value,
                                    naive(template, g, k, F, beta),
                                    f"pair bound mismatch n={n} gamma={g} "
                                    f"k={k} {F.name} beta={beta}")


def _pairdist_outcomes():
    """bvn_cdf kernel identities, and validate_pairwise at six rho."""
    err = abs(bvn_cdf(0.0, 0.0, 0.5) - 1.0 / 3.0)
    yield "quadrant probability at rho=1/2 is off" if not err <= 1e-9 else None
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b = rng.normal(size=2) * 2
        rho = float(rng.uniform(-0.99, 0.99))
        resid = bvn_cdf(a, b, rho) + bvn_cdf(-a, b, -rho) - 0.5 * math.erfc(-b / math.sqrt(2))
        yield (f"reflection identity off by {resid:.2e} at a={a}, b={b}, rho={rho}"
               if not abs(resid) <= 1e-9 else None)
    for model in (EquicorrelatedPairs(0.0), EquicorrelatedPairs(1.0),
                  EquicorrelatedPairs(-1.0), EquicorrelatedPairs(0.1),
                  EquicorrelatedPairs(0.5), EquicorrelatedPairs(0.9)):
        try:
            validate_pairwise(model)
        except ValueError as exc:
            yield str(exc)
        else:
            yield None


def _composition_outcomes():
    """The fused two-sided kernel against its four-quadrant composition
    2 (Phi2(a, b, rho) + Phi2(a, b, -rho)), a = ndtri(u/2), at 200 seeded
    points, to 1e-15 absolute; |rho| reaches 1 - 1e-7."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        u, v = rng.uniform(size=2) ** 3
        rho = math.copysign(1.0 - 10.0 ** -rng.uniform(0.0, 7.0),
                            rng.uniform(-1.0, 1.0))
        a, b = ndtri(u / 2.0), ndtri(v / 2.0)
        want = 2.0 * (bvn_cdf(a, b, rho) + bvn_cdf(a, b, -rho))
        err = abs(two_sided_equicorr_cdf(u, v, rho) - want)
        yield (f"two-sided F off its composition by {err:.2e} at u={u}, v={v}, "
               f"rho={rho}" if not err <= 1e-15 else None)


def run_suite(suites=("lemmas", "constants", "pairdist"), fuzz_count: int = 100_000,
              seed: int = 20240901) -> SuiteReport:
    """Run the requested verification suites and collect a pass/fail table."""
    report = SuiteReport()
    if "lemmas" in suites:
        if fuzz_count < 1:
            raise ValueError(f"fuzz_count must be >= 1, got {fuzz_count}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        _lemma_suite(report, fuzz_count, seed)
    if "constants" in suites:
        report.run("lr_scale_identity", _scale_identity_outcomes())
        report.run("dual_implementation_equivalence", _dual_outcomes())
    if "pairdist" in suites:
        report.run("pairwise_kernel", _pairdist_outcomes())
        report.run("two_sided_composition", _composition_outcomes())
    return report
