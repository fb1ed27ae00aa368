"""Critical-constant families for exceedance control of the generalized FDP.

Every family here produces a nondecreasing vector alpha_1 <= ... <= alpha_n
from a template of base constants.  The marginal-only families rescale the
template by a worst-case constant obtained by enumerating the unknown
number of true nulls n0; the pairwise-aware families additionally consume
the common joint CDF F(u, v) of two null p-values, either to inflate the
Lehmann-Romano constants directly or through a scale calibration that
solves bound(beta) = alpha.

Combinatorial index maps
------------------------
For gamma = num/den, n1 = n - n0 and generalization order k, the bounds are
driven by integer maps evaluated in exact arithmetic:

* M       = min(n0, floor(gamma n1 / (1-gamma)) + 1), the stepdown levels
* m(i)    = max{0 <= j <= n1 : floor(gamma j / (1-gamma)) + 1 = i}
* mbar(i) = (i v k) + m(i) for i = 1..M, mbar(0) = 0
* m*(i)   = max{1 <= j <= n : floor(gamma j) + 1 <= i}, m*(0) = 0
* mt(i)   = min(m*(i), i + n1) for i = 0..n0

``_rank_maps`` is the one source of mbar (stepdown), mt (stepup) and M: row
n0 - k of its int matrix holds the ranks at i = 0..n and repeats its last
rank past M (mbar) or n0 (mt), so M is the count of increases along a row.

m(i) exists for every i in [1, M] exactly when gamma <= 1/2 (the scan
f(j) = floor(gamma j/(1-gamma)) + 1 then advances in unit steps); larger
gamma would skip levels, which the stepdown families do not support.

A stepdown family and its stepup twin differ only in the rank map they read;
each pair bound's last admissible split reads its marginal telescope's last
entry, so pair <= marginal holds bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import CriticalConstants, Gamma
from .pairdist import PairwiseNull, conditional_cdf

__all__ = [
    "Template",
    "make_template",
    "lr_template",
    "ConstantsReport",
    "BoundValue",
    "CalibrationError",
    "lr_constants",
    "posdep_sd_report",
    "posdep_su_report",
    "arbdep_sd_report",
    "arbdep_su_report",
    "pairwise_lr_report",
    "pair_sd_bound",
    "pair_su_bound",
    "bisect_scale",
    "calibrate_pair_scale",
    "sd_marginal_bound",
    "su_marginal_bound",
    "Family",
    "FAMILIES",
    "family_report",
]


_log = logging.getLogger("fdpctl")


class CalibrationError(RuntimeError):
    """Scale calibration failed: unattainable target or non-monotone bound."""


# ---------------------------------------------------------------------------
# templates

def lr_template(n: int, gamma: Gamma, beta: float) -> np.ndarray:
    """Lehmann-Romano base constants (floor(g i)+1) beta / (n+floor(g i)+1-i).

    Returned with a leading 0 entry so that integer ranks 0..n index
    directly; gamma = 0 reduces to the Holm constants beta/(n+1-i).
    """
    if n < 1:
        raise ValueError(f"lr template needs n >= 1, got n={n}")
    num, denom = _lr_parts(n, gamma)
    vals = num * beta / denom
    vals[0] = 0.0
    return vals


@lru_cache(maxsize=64)
def _lr_parts(n: int, gamma: Gamma) -> tuple:
    """The beta-free integer arrays floor(g i) + 1 and n + floor(g i) + 1 - i
    of ``lr_template``, read-only: a calibration evaluates the template at
    every bound evaluation, and only the final multiply depends on beta."""
    i = np.arange(n + 1)
    g = gamma.floor_mul(i)
    denom = n + g + 1 - i
    assert np.all(denom[1:] >= 1), "denominator cannot drop below 1 for i <= n"
    parts = (g + 1, denom)
    for arr in parts:
        arr.setflags(write=False)
    return parts


_NON_FINITE = "template values must be finite (no NaN or inf)"


@dataclass(frozen=True)
class Template:
    """Base-constant family evaluated at a scale beta in (0, 1).

    At rank i: lr is ``lr_template``, bh is i beta / n, gbs is the GBS
    stepdown i beta / (n - i (1-beta) + 1), and ``custom`` vectors are
    taken at unit scale and multiplied by beta, so every kind is
    nondecreasing in the rank and strictly increasing in beta.
    """

    kind: str
    n: int
    gamma: Gamma | None = None
    custom: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("lr", "bh", "gbs", "custom"):
            raise ValueError(f"unknown template kind {self.kind!r}")
        if self.n < 1:
            raise ValueError(f"template needs n >= 1, got n={self.n}")
        if self.kind == "lr" and self.gamma is None:
            raise ValueError("lr template needs a gamma threshold")
        if self.kind != "custom" and self.custom is not None:
            raise ValueError(f"{self.kind} template takes no custom values")
        if self.kind == "custom":
            if self.custom is None or len(self.custom) != self.n:
                raise ValueError("custom template needs n base values")
            base = np.asarray(self.custom, dtype=float)
            if not np.isfinite(base).all():
                raise ValueError(_NON_FINITE)
            if base[0] <= 0 or np.any(np.diff(base) < 0):
                raise ValueError("custom base values must be positive nondecreasing")
            object.__setattr__(self, "custom", tuple(float(v) for v in base))

    def values(self, beta: float) -> np.ndarray:
        """Template vector at scale beta, length n+1 with entry 0 at rank 0."""
        if not 0.0 < beta < 1.0:
            raise ValueError(f"scale beta must lie in (0, 1), got {beta}")
        if self.kind == "lr":
            return lr_template(self.n, self.gamma, beta)
        if self.kind == "custom":
            return np.concatenate([[0.0], beta * np.asarray(self.custom)])
        i = np.arange(self.n + 1)
        if self.kind == "bh":
            return i * beta / self.n
        return i * beta / (self.n - i * (1.0 - beta) + 1.0)


make_template = Template


def _check_template_vector(tpl: np.ndarray) -> int:
    tpl = np.asarray(tpl, dtype=float)
    n = tpl.size - 1
    if n < 1:
        raise ValueError("template vector must cover ranks 0..n with n >= 1")
    if not np.isfinite(tpl).all():
        raise ValueError(_NON_FINITE)
    if tpl[0] != 0.0:
        raise ValueError("template vector must start with 0 at rank 0")
    if np.any(np.diff(tpl) < 0):
        raise ValueError("template vector must be nondecreasing")
    if tpl[-1] <= 0.0:
        raise ValueError("degenerate template: all base constants are zero")
    return n


# ---------------------------------------------------------------------------
# index maps

def _su_rank_raw(n: int, gamma: Gamma) -> np.ndarray:
    """m*(i) for i = 0..n: count of j in [1, n] with floor(gamma j) + 1 <= i."""
    return np.searchsorted(gamma.floor_mul(np.arange(1, n + 1)) + 1,
                           np.arange(n + 1), side="right")


def _rank_maps(direction: str, n: int, gamma: Gamma, k: int) -> np.ndarray:
    """mbar ('sd') or mt ('su'): row n0 - k holds the ranks at i = 0..n.

    Past M (mbar) or n0 (mt) a row repeats its last rank.  Raises if a
    stepdown level in [1, M] is skipped, as it is for gamma > 1/2.
    """
    _check_k(n, k)
    n0 = np.arange(k, n + 1)[:, None]
    n1 = n - n0
    i = np.arange(n + 1)
    if direction == "su":
        level = np.minimum(i, n0)
        return np.minimum(_su_rank_raw(n, gamma)[level], level + n1)
    f = gamma.floor_odds_mul(np.arange(n + 1)) + 1  # f(j), j = 0..n
    level = np.minimum(i[1:], np.minimum(n0, f[n1]))  # 1..M, then M again
    slack = np.minimum(f.searchsorted(level, side="right") - 1, n1)  # m(i)
    if (f[slack] != level).any():
        raise ValueError(
            "stepdown index map skips exceedance levels; this family "
            "requires gamma <= 1/2"
        )
    return np.hstack([np.zeros_like(n0), np.maximum(level, k) + slack])


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class ConstantsReport:
    """Constants plus the enumeration evidence that produced them."""

    constants: CriticalConstants
    scale: float | None = None      # worst-case rescaling constant
    worst_n0: int | None = None     # n0 attaining the maximum
    beta_star: float | None = None  # calibrated template scale


@dataclass(frozen=True)
class BoundValue:
    """One evaluation of a pairwise exceedance bound at a fixed scale."""

    value: float
    worst_n0: int


def _check_k(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")


def _report(values: np.ndarray, k: int, **evidence) -> ConstantsReport:
    """Ranks 1..n of the rank-0..n ``values``, flattened below rank k.

    Raises once the top constant reaches 1, or once a constant at a rank
    >= k is not positive.  ``evidence`` holds the other ``ConstantsReport``
    fields.
    """
    if values[-1] >= 1.0:
        raise ValueError(f"constants reach {values[-1]:.6g} >= 1; lower alpha")
    low = values[k:] <= 0.0
    if low.any():
        rank = k + int(low.argmax())
        raise ValueError(f"degenerate template: the constant at rank {rank} "
                         f"is {values[rank]:.6g} <= 0; the template must be "
                         f"positive at every rank >= k = {k}")
    ranks = np.maximum(np.arange(1, values.size), k)
    constants = CriticalConstants(values=values[ranks], k=k)
    return ConstantsReport(constants=constants, **evidence)


def _worst_over_n0(values, k: int):
    """(max of values, first argmax + k): values[j] is the bound at n0 = k + j.

    A NaN value raises: skipping it would report the max over the other n0.
    """
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        raise ValueError("worst case over n0 is undefined: the bound is NaN "
                         f"at n0={k + int(np.isnan(values).argmax())}")
    worst = int(values.argmax())
    return float(values[worst]), k + worst


# ---------------------------------------------------------------------------
# marginal-only families: C = max over n0 of value(av, k, n0), av = tpl[row]
# of mbar (stepdown) or mt (stepup): the direction picks only the rank map.
# Padded posdep terms never exceed the real ones and padded telescope
# increments are +0.0: rows read as unpadded.  The pair bounds read the same
# telescope, so pair <= marginal holds exactly.

def _posdep_value(av: np.ndarray, k: int, n0: int) -> float:
    # ranks i < k would read n0 av[i] / k <= n0 av[k] / k: av is nondecreasing
    return float((n0 * av[k:] / np.arange(k, av.size)).max())


def _marginal_prefix(av: np.ndarray, k: int, n0) -> np.ndarray:
    """A[..., K] = sum_{i<=K} n0 (av[i]-av[i-1]) / (i v k), on the last axis;
    av[0] = 0, so A[K] = n0 av[k] / k + sum_{k<i<=K} ... for K >= k."""
    i = np.arange(1, av.shape[-1])
    out = np.zeros(av.shape)
    np.cumsum(n0 * (av[..., 1:] - av[..., :-1]) / np.maximum(i, k, out=i),
              axis=-1, out=out[..., 1:])
    return out


def _arbdep_value(av: np.ndarray, k: int, n0: int) -> float:
    # levels past n0 only add +0.0, so the row is cut there
    return float(_marginal_prefix(av[:n0 + 1], k, n0)[-1])


def _marginal_scale(direction: str, value, tpl: np.ndarray, gamma: Gamma,
                    k: int):
    """(C, worst n0) with C = max over n0 of value(tpl[rank map], k, n0)."""
    tpl = np.asarray(tpl, dtype=float)
    avs = tpl[_rank_maps(direction, _check_template_vector(tpl), gamma, k)]
    return _worst_over_n0([value(av, k, n0) for n0, av in enumerate(avs, k)], k)


def _marginal_report(direction: str, value, tpl, gamma: Gamma, k: int,
                     alpha: float) -> ConstantsReport:
    """Template flattened at rank k and rescaled by alpha / C."""
    tpl = np.asarray(tpl, dtype=float)
    scale, worst_n0 = _marginal_scale(direction, value, tpl, gamma, k)
    if not scale > 0.0:
        raise ValueError(
            f"degenerate template: worst-case C = {scale:.6g} <= 0, so the "
            "template is zero at every rank the bound reads"
        )
    return _report(alpha * tpl / scale, k, scale=scale, worst_n0=worst_n0)


def posdep_sd_report(tpl, gamma: Gamma, k: int, alpha: float) -> ConstantsReport:
    """Stepdown constants valid under positive dependence (marginal-only).

    Rescales the template by C = max over n0 and levels i of
    n0 * tpl[mbar(i)] / (i v k).
    """
    return _marginal_report("sd", _posdep_value, tpl, gamma, k, alpha)


def posdep_su_report(tpl, gamma: Gamma, k: int, alpha: float) -> ConstantsReport:
    """Stepup analog of ``posdep_sd_report``: C = max n0 * tpl[mt(i)] / i."""
    return _marginal_report("su", _posdep_value, tpl, gamma, k, alpha)


def arbdep_sd_report(tpl, gamma: Gamma, k: int, alpha: float) -> ConstantsReport:
    """Stepdown constants valid under arbitrary dependence (marginal-only).

    C = max over n0 of the telescoping sum
    n0 * sum_i (tpl[mbar(i)] - tpl[mbar(i-1)]) / (i v k).
    """
    return _marginal_report("sd", _arbdep_value, tpl, gamma, k, alpha)


def arbdep_su_report(tpl, gamma: Gamma, k: int, alpha: float) -> ConstantsReport:
    """Stepup analog of ``arbdep_sd_report`` built on the mt(i) ranks."""
    return _marginal_report("su", _arbdep_value, tpl, gamma, k, alpha)


def sd_marginal_bound(tpl, gamma: Gamma) -> float:
    """Worst-case stepdown exceedance bound of a constants vector (k = 1).

    max over n0 in [1, n] of n0 * sum_i (v[mbar(i)] - v[mbar(i-1)]) / i,
    the quantity the pairwise stepdown bound can only improve on: the
    arbdep stepdown scale at k = 1.
    """
    return _marginal_scale("sd", _arbdep_value, tpl, gamma, 1)[0]


def su_marginal_bound(tpl, gamma: Gamma) -> float:
    """Stepup analog of ``sd_marginal_bound`` (mt for mbar), the quantity
    ``pair_su_bound`` can only improve on: the arbdep stepup scale at k = 1."""
    return _marginal_scale("su", _arbdep_value, tpl, gamma, 1)[0]


# ---------------------------------------------------------------------------
# Lehmann-Romano family and its pairwise-aware generalization

def lr_constants(n: int, gamma: Gamma, alpha: float) -> ConstantsReport:
    """The Lehmann-Romano critical constants at level alpha (k = 1 family)."""
    return _report(lr_template(n, gamma, alpha), 1)


def pairwise_lr_report(n: int, gamma: Gamma, k: int, alpha: float,
                       F: PairwiseNull) -> ConstantsReport:
    """Lehmann-Romano constants inflated by pairwise-correlation information.

    For k >= 2 the exceedance bound of the plain constants is at most
    C = max over n0 of (n0-1) [ F(b_k | b_k)/(k-1)
        + sum_{l=k}^{n0-1} (F(b_{l+1} | b_k) - F(b_l | b_k)) / l ],
    with b_i = i alpha / n0 and F(u | v) = F(u, v)/v, so dividing the
    constants by min(C, 1) keeps control while enlarging every threshold
    whenever C < 1.  C <= 0 means F puts no mass on the lower tail, and
    the model is rejected as degenerate.
    """
    if k < 2:
        raise ValueError("the pairwise generalization needs k >= 2")
    _check_k(n, k)

    def value_at(n0):
        b = np.arange(n0 + 1) * (alpha / n0)
        cond = conditional_cdf(F, b[k:], b[k])
        inner = cond[0] / (k - 1)
        if n0 > k:
            inner += float(np.sum(np.diff(cond) / np.arange(k, n0)))
        return float((n0 - 1) * inner)

    best, best_n0 = _worst_over_n0([value_at(n0) for n0 in range(k, n + 1)], k)
    if not best > 0.0:
        raise ValueError(
            f"degenerate pairwise model: worst-case C = {best:.6g} <= 0, so F "
            "has no lower-tail mass at the Lehmann-Romano thresholds"
        )
    return _report(lr_template(n, gamma, alpha) / min(best, 1.0), k,
                   scale=best, worst_n0=best_n0)


# ---------------------------------------------------------------------------
# pairwise-aware bounds under arbitrary dependence, and their calibration

# points per F.cdf call in _pair_matrix; bounds the kernel's temporaries
_PAIR_CHUNK = 65536


def _pair_matrix(F: PairwiseNull, tpl: np.ndarray, rows, cols) -> np.ndarray:
    """F(tpl[i], tpl[j]) at distinct (rows, cols) in key order rows*(n+1)+cols.

    rows <= cols and F is symmetric (a ``PairwiseNull`` precondition), so
    F.cdf runs once per pair, in chunks of _PAIR_CHUNK, and the result is
    mirrored into the (n+1)^2 matrix; pairs not asked for read NaN.
    """
    vals = np.empty(rows.size)
    for lo in range(0, rows.size, _PAIR_CHUNK):
        hi = lo + _PAIR_CHUNK
        vals[lo:hi] = np.asarray(F.cdf(tpl[rows[lo:hi]], tpl[cols[lo:hi]]))
    out = np.full((tpl.size, tpl.size), np.nan)
    out[rows, cols] = vals
    out[cols, rows] = vals
    return out


@lru_cache(maxsize=2)
def _pair_plan(direction: str, n: int, gamma: Gamma, k: int) -> tuple:
    """What ``pair_sd_bound`` ('sd') or ``pair_su_bound`` ('su') reads
    without beta, as read-only arrays shared by every evaluation.

    sd: (mbar, rows, cols, diag_at, next_at, n0, real, pd_on, pd_den, k1);
    su: (mt, rows, cols, diag_at, sup_at, n0, z, below, keep).  rows/cols
    are the distinct rank pairs F is read at, and the ``*_at`` arrays the
    flat positions in the (n+1)^2 grid of the pairs each term reads.
    Calibration looks the bound up on the module at every evaluation, so
    the plan outlives the call: two entries hold the stepdown and stepup
    plans of one (n, gamma, k), O(n^2) each.
    """
    ranks = _rank_maps(direction, n, gamma, k)
    n0 = np.arange(k, n + 1)[:, None]
    levels = np.arange(1, n + 1)            # i (sd) or r (su), and the split K
    if direction == "sd":
        # F is read at (mbar_i, mbar_i) and (mbar_i, mbar_{i+1}); past M these
        # repeat (mbar_M, mbar_M), so the distinct pairs are those of i <= M
        at = (ranks * (n + 2), ranks[:, 1:-1] * (n + 1) + ranks[:, 2:])
        rows, cols = np.divmod(np.unique(np.hstack(at)), n + 1)
        # real: i <= M, as M is the count of increases along a row
        real = levels <= np.count_nonzero(np.diff(ranks), axis=1)[:, None]
        iok = np.maximum(levels, k)
        plan = (ranks, rows, cols, *at, n0, real, real & (iok >= 2),
                np.maximum(iok * (iok - 1), 1), np.maximum(levels[1:], k))
    else:
        rows, cols = np.triu_indices(n + 1)
        # (r, r) and (r - 1, r)
        at = (ranks[:, 1:] * (n + 2), ranks[:, :-1] * (n + 1) + ranks[:, 1:])
        below = levels < n0
        # past n0, where mt repeats mt_n0, q repeats q_n0 = 1/n0
        q = np.where(below, 1.0 / levels - 1.0 / (levels + 1), 1.0 / n0)
        z = np.zeros(ranks.shape)
        np.put_along_axis(z, ranks[:, 1:], q, axis=1)  # z[n0, mt_s] = q_s
        plan = (ranks, rows, cols, *at, n0, z, below, levels[k - 1:] <= n0)
    for arr in plan:
        arr.setflags(write=False)
    return plan


def pair_sd_bound(template: Template, gamma: Gamma, k: int, F: PairwiseNull,
                  beta: float) -> BoundValue:
    """Stepdown exceedance bound mixing marginal and pairwise information.

    For each n0 the bound splits the level sum at K: levels i <= K use the
    marginal telescope, levels i >= K+2 use the pairwise diagonal telescope,
    and two boundary terms (one additive, one subtractive) join the parts
    when M >= K+1.  The reported value is max over n0 of min over K, taken
    over the (n0, level) matrix of every n0 at once.  The rank map, the
    distinct pairs and the masks come from ``_pair_plan``, built once per
    (n, gamma, k); each call evaluates the template, F on those pairs and
    the arithmetic.
    """
    tpl = template.values(beta)
    mbar, rows, cols, diag_at, next_at, n0, real, pd_on, pd_den, k1 = \
        _pair_plan("sd", template.n, gamma, k)
    grid = _pair_matrix(F, tpl, rows, cols)
    fdiag = grid.take(diag_at)                        # F(av_i, av_i), 0..n
    fnext = grid.take(next_at)                        # F(av_K, av_K+1)
    prefix = _marginal_prefix(tpl[mbar], k, n0)       # A[0..n]
    # past M the increments are exactly +0.0, also where F is NaN there
    pd = np.where(pd_on, n0 * (n0 - 1) * np.diff(fdiag) / pd_den, 0.0)
    tail = np.zeros_like(pd)                          # sum_{i >= K+2} pd_i
    tail[:, :-2] = np.cumsum(pd[:, :1:-1], axis=1)[:, ::-1]
    # expr(K) = A[K] + sum_{i >= K+2} pd_i + boundary terms if M >= K+1;
    # k1 = (K+1) v k for K = 1..n-1
    expr = prefix[:, 1:] + tail
    expr[:, :-1] += np.where(real[:, 1:], n0 * (n0 - 1) * fdiag[:, 2:]
                             / (k1 * (k1 - 1)) - n0 * fnext / k1, 0.0)
    values = np.where(real, expr, np.inf).min(axis=1)
    return BoundValue(*_worst_over_n0(values, k))


def pair_su_bound(template: Template, gamma: Gamma, k: int, F: PairwiseNull,
                  beta: float) -> BoundValue:
    """Stepup exceedance bound mixing marginal and pairwise information.

    Ranks r <= K contribute the marginal telescope; ranks r > K contribute
    an r^-2 marginal term, the diagonal pairwise increment, and the
    rectangle masses G over consecutive threshold pairs (r, s), s > r.
    The reported value is max over n0 of min over K in [k, n0], taken over
    the (n0, rank) matrix of every n0 at once.  The bound at n0 is NaN when
    F is NaN at a pair it reads: (mt_a, mt_b) with k <= a <= b <= n0, b > k.
    The rank map, the weight matrix z and the masks come from
    ``_pair_plan``, built once per (n, gamma, k); each call evaluates the
    template, F on the upper-triangle pairs and the arithmetic.
    """
    n = template.n
    tpl = template.values(beta)
    mt, rows, cols, diag_at, sup_at, n0, z, below, keep = _pair_plan(
        "su", n, gamma, k)
    grid = _pair_matrix(F, tpl, rows, cols)
    nan = np.isnan(grid)
    grid[nan] = 0.0                         # NaN * 0 would poison the product
    r = np.arange(1, n + 1)                 # r, s, and the split K
    av = tpl[mt]                            # mt strictly increasing on 0..n0
    d = np.diff(av)                         # +0.0 past n0
    diag = grid.take(diag_at)               # F(av_r, av_r)
    sup = grid.take(sup_at)                 # F(av_r-1, av_r)
    # sum_{s>r} G(r, s) / s by parts in s: U(r) - U(r-1) + sup_r / r
    # - diag_r / (r+1) for r < n0, 0 at n0.  U(i) = sum_{s>i} F(av_i, av_s)
    # q_s for every n0 is one product with z, as s > i exactly when
    # mt_s > mt_i
    u = np.take_along_axis(z @ np.tril(grid, -1), mt, axis=1)
    by_parts = np.where(below, u[:, 1:] - u[:, :-1] + sup / r
                        - diag / (r + 1), 0.0)
    pdiag = n0 * (n0 - 1) * (diag - sup) / r**2
    row = n0 * d / r**2 + pdiag + n0 * (n0 - 1) / r * by_parts  # 0 past n0
    tail = np.zeros(av.shape)
    tail[:, :-1] = np.cumsum(row[:, ::-1], axis=1)[:, ::-1]
    # A[K] + sum_{r>K} row_r; at K = n0 the tail is +0.0, so the marginal C
    expr = _marginal_prefix(av, k, n0)[:, k:] + tail[:, k:]
    values = np.where(keep, expr, np.inf).min(axis=1)
    if nan.any():  # NaN at (mt_a, mt_b), a in [k, n0] and b in (k, n0]
        lo = np.zeros(av.shape)
        np.put_along_axis(lo, mt[:, k:], 1.0, axis=1)
        hi = lo - (np.arange(n + 1) == mt[:, k:k + 1])
        values[((lo @ nan) * hi).any(axis=1)] = np.nan
    return BoundValue(*_worst_over_n0(values, k))


_VALUE_TOL = 5e-10
_WIDTH_TOL = 1e-12


def bisect_scale(value_fn, target: float) -> float:
    """Find beta in (0, 1) with value_fn(beta) = target on a kept bracket.

    After both ends, midpoint steps narrow the bracket to width 1/8; from
    there regula falsi aims at the middle of the window [target -
    _VALUE_TOL, target], falling back to the midpoint when the secant
    leaves the bracket.  When two secant steps running move the same end,
    the kept end's secant weight is scaled by the Anderson-Bjorck factor
    m = 1 - g_new / g_old (g is the value minus the aim, old the replaced
    end), or by 1/2 when m <= 0; midpoint steps leave the weights alone.
    A thm37/thm38 table at n 10 to 200 takes about nine evaluations.
    Returns the first evaluated beta whose value lies in that window, or,
    once the bracket is narrower than _WIDTH_TOL, its lower end, where the
    value is below target.  Either way value_fn(beta) <= target.
    value_fn is assumed increasing; that is checked on the trajectory of
    evaluated points (the coarse midpoint samples span (0, 1)) and a
    violation aborts with ``CalibrationError`` rather than silently picking
    a root.
    """
    trace = []

    def value(beta: float) -> float:
        v = value_fn(beta)
        if v != v:
            raise CalibrationError(f"value function is NaN at beta={beta!r}")
        trace.append((beta, v))
        return v

    lo, hi = 1e-12, 1.0 - 1e-12
    v_lo, v_hi = value(lo), value(hi)
    if not (v_lo - target) * (v_hi - target) < 0:
        raise CalibrationError(
            f"target {target} unattainable: values span [{v_lo:.3g}, {v_hi:.3g}]"
        )
    aim = target - 0.5 * _VALUE_TOL
    # secant weights; a secant step that moves the end the secant step
    # before moved scales the kept end's weight (Anderson-Bjorck)
    g_lo, g_hi = v_lo - aim, v_hi - aim
    moved = None
    while hi - lo > _WIDTH_TOL:
        beta = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        secant = hi - lo <= 0.125 and lo < beta < hi
        if not secant:
            beta = 0.5 * (lo + hi)
        v = value(beta)
        if target - _VALUE_TOL <= v <= target:
            break
        g = v - aim
        side = "lo" if (v - target) * (v_lo - target) > 0 else "hi"
        if secant and side == moved:
            m = 1.0 - g / (g_lo if side == "lo" else g_hi)
            m = m if m > 0 else 0.5
            if side == "lo":
                g_hi *= m
            else:
                g_lo *= m
        if side == "lo":
            lo, g_lo = beta, g
        else:
            hi, g_hi = beta, g
        moved = side if secant else None
    else:
        beta = lo

    trace.sort()
    vals = [t[1] for t in trace]
    if any(b - a < -1e-12 for a, b in zip(vals[:-1], vals[1:])):
        raise CalibrationError(
            "value function is not monotone on the solver trajectory; "
            f"evaluated points: {trace}"
        )
    return beta


def calibrate_pair_scale(direction: str, template: Template, gamma: Gamma,
                         k: int, alpha: float,
                         F: PairwiseNull) -> ConstantsReport:
    """Solve bound(beta) = alpha for the template scale with ``bisect_scale``.

    Returns the calibrated constants tpl(beta*) flattened at rank k, with
    alpha - 5e-10 <= bound(beta*) <= alpha: the level claim holds for the
    computed bound.  For a template linear in beta (lr, bh) the calibrated
    constants dominate the marginal-only family (thm35/thm36) up to a
    relative slack of 5e-10 / alpha, 1e-8 at alpha = 0.05.  gbs is not
    linear in beta, so thm37 can fall below thm35 there: at n = 2,
    gamma = 0 rank 1 gets 0.012987 against 0.013415.  One DEBUG record on
    the "fdpctl" logger gives the direction, n, the number of bound
    evaluations, beta*, the residual alpha - bound(beta*) and the
    worst-case n0.
    """
    if direction not in ("sd", "su"):
        raise ValueError(f"direction must be 'sd' or 'su', got {direction!r}")
    bound = pair_sd_bound if direction == "sd" else pair_su_bound
    evaluated = []

    def value(beta: float) -> float:
        evaluated.append((beta, bound(template, gamma, k, F, beta)))
        return evaluated[-1][1].value

    beta_star = bisect_scale(value, alpha)
    final = dict(evaluated)[beta_star]
    _log.debug("calibrate_pair_scale direction=%s n=%d bound_evals=%d "
               "beta_star=%r residual=%.3e worst_n0=%d", direction,
               template.n, len(evaluated), beta_star, alpha - final.value,
               final.worst_n0)
    return _report(template.values(beta_star), k, scale=final.value,
                   worst_n0=final.worst_n0, beta_star=beta_star)


# ---------------------------------------------------------------------------
# family registry

@dataclass(frozen=True)
class Family:
    """How a ``FAMILIES`` entry is built."""

    kind: str              # lr | posdep | arbdep | pairwise-lr | pair
    direction: str | None  # 'sd' | 'su' for the direction-specific kinds
    pairwise: bool         # needs the pairwise null CDF F


FAMILIES = {
    "lr": Family("lr", None, False),
    "thm32": Family("posdep", "sd", False),
    "thm33": Family("posdep", "su", False),
    "thm34": Family("pairwise-lr", None, True),
    "thm35": Family("arbdep", "sd", False),
    "thm36": Family("arbdep", "su", False),
    "thm37": Family("pair", "sd", True),
    "thm38": Family("pair", "su", True),
}


def family_report(family: str, n: int, gamma: Gamma, k: int, alpha: float,
                  template: str = "lr",
                  F: PairwiseNull | None = None) -> ConstantsReport:
    """Build one ``FAMILIES`` entry; lr and thm34 ignore ``template``.

    Every family needs 1 <= k <= n, also those that do not use k, and
    0 < alpha < 1.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown constants family {family!r}; "
                         f"known: {', '.join(FAMILIES)}")
    _check_k(n, k)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    fam = FAMILIES[family]
    if fam.pairwise and F is None:
        raise ValueError(f"family {family} needs a pairwise null model")
    if fam.kind == "lr":
        return lr_constants(n, gamma, alpha)
    if fam.kind == "pairwise-lr":
        return pairwise_lr_report(n, gamma, k, alpha, F)
    tpl = make_template(template, n, gamma=gamma)
    if fam.kind == "pair":
        return calibrate_pair_scale(fam.direction, tpl, gamma, k, alpha, F)
    # looked up on each call, so a wrapper on the module attribute sees it
    report = globals()[f"{fam.kind}_{fam.direction}_report"]
    return report(tpl.values(alpha), gamma, k, alpha)
