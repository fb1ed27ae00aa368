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

``_rank_maps`` is the one source of mbar (stepdown) and mt (stepup) for
every n0 in [k, n]; the marginal families and both pair bounds read them
there.

m(i) exists for every i in [1, M] exactly when gamma <= 1/2 (the scan
f(j) = floor(gamma j/(1-gamma)) + 1 then advances in unit steps); larger
gamma would skip levels, which the stepdown families do not support.
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
    "bh_template",
    "gbs_template",
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
    i = np.arange(n + 1)
    g = np.array([gamma.floor_mul(int(j)) for j in i], dtype=np.int64)
    denom = n + g + 1 - i
    assert np.all(denom[1:] >= 1), "denominator cannot drop below 1 for i <= n"
    vals = (g + 1) * beta / denom
    vals[0] = 0.0
    return vals


def bh_template(n: int, beta: float) -> np.ndarray:
    """Benjamini-Hochberg base constants i beta / n, with leading 0."""
    return np.arange(n + 1) * beta / n


def gbs_template(n: int, beta: float) -> np.ndarray:
    """GBS stepdown base constants i beta / (n - i (1-beta) + 1), leading 0."""
    i = np.arange(n + 1)
    return i * beta / (n - i * (1.0 - beta) + 1.0)


_NON_FINITE = "template values must be finite (no NaN or inf)"


@dataclass(frozen=True)
class Template:
    """Base-constant family evaluated at a scale beta in (0, 1).

    ``custom`` vectors are taken at unit scale and multiplied by beta, so
    every kind is nondecreasing in the rank and strictly increasing in beta.
    """

    kind: str
    n: int
    gamma: Gamma | None = None
    custom: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("lr", "bh", "gbs", "custom"):
            raise ValueError(f"unknown template kind {self.kind!r}")
        if self.kind == "lr" and self.gamma is None:
            raise ValueError("lr template needs a gamma threshold")
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
        if self.kind == "bh":
            return bh_template(self.n, beta)
        if self.kind == "gbs":
            return gbs_template(self.n, beta)
        return np.concatenate([[0.0], beta * np.asarray(self.custom)])


def make_template(kind: str, n: int, gamma: Gamma | None = None,
                  custom=None) -> Template:
    return Template(kind=kind, n=n, gamma=gamma,
                    custom=None if custom is None else tuple(custom))


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

@lru_cache(maxsize=1024)
def _floor_odds_plus1(n: int, gamma: Gamma) -> np.ndarray:
    """f(j) = floor(gamma j / (1-gamma)) + 1 for j = 0..n, exact."""
    out = np.array([gamma.floor_odds_mul(j) + 1 for j in range(n + 1)],
                   dtype=np.int64)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=1024)
def _su_rank_raw(n: int, gamma: Gamma) -> np.ndarray:
    """m*(i) for i = 0..n: count of j in [1, n] with floor(gamma j) + 1 <= i."""
    g = np.array([gamma.floor_mul(j) + 1 for j in range(1, n + 1)],
                 dtype=np.int64)
    out = np.concatenate(
        [[0], np.searchsorted(g, np.arange(1, n + 1), side="right")]
    ).astype(np.int64)
    out.setflags(write=False)
    return out


def _sd_rank(n0: int, n1: int, k: int, f_all: np.ndarray) -> np.ndarray:
    """mbar(0..M) for one n0; raises if a level in [1, M] is skipped."""
    f = f_all[: n1 + 1]
    m_cap = min(n0, int(f[-1]))
    levels = np.arange(1, m_cap + 1)
    slack = f.searchsorted(levels, side="right") - 1
    if (slack < 0).any() or (f[slack] != levels).any():
        raise ValueError(
            "stepdown index map skips exceedance levels; this family "
            "requires gamma <= 1/2"
        )
    mbar = np.zeros(m_cap + 1, dtype=np.int64)
    mbar[1:] = np.maximum(levels, k) + slack
    return mbar


def _su_rank(n0: int, n1: int, raw: np.ndarray) -> np.ndarray:
    """mt(0..n0) for one n0, from raw = _su_rank_raw(n, gamma)."""
    return np.minimum(raw[: n0 + 1], np.arange(n0 + 1) + n1)


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


def _worst_over_n0(value_at, n: int, k: int):
    """(max of value_at(n0) over every n0 in [k, n], first argmax).

    A NaN value raises: skipping it would report the max over the other n0.
    """
    _check_k(n, k)
    best, best_n0 = -np.inf, -1
    for n0 in range(k, n + 1):
        val = value_at(n0)
        if val != val:
            raise ValueError(f"worst case over n0 is undefined: the bound "
                             f"is NaN at n0={n0}")
        if val > best:
            best, best_n0 = val, n0
    return best, best_n0


def _rank_maps(direction: str, n: int, gamma: Gamma, k: int) -> list:
    """mbar (direction 'sd') or mt ('su') for n0 = k..n, entry n0 - k."""
    _check_k(n, k)
    if direction == "sd":
        f_all = _floor_odds_plus1(n, gamma)
        return [_sd_rank(n0, n - n0, k, f_all) for n0 in range(k, n + 1)]
    raw = _su_rank_raw(n, gamma)
    return [_su_rank(n0, n - n0, raw) for n0 in range(k, n + 1)]


# ---------------------------------------------------------------------------
# marginal-only families: C = max over n0 of value(av, k, n0), where av is
# the template read through the rank map mbar (stepdown) or mt (stepup)

def _posdep_sd_value(av: np.ndarray, k: int, n0: int) -> float:
    return float((n0 * av[1:] / np.maximum(np.arange(1, av.size), k)).max())


def _posdep_su_value(av: np.ndarray, k: int, n0: int) -> float:
    return float((n0 * av[k:] / np.arange(k, av.size)).max())


def _sd_marginal_prefix(av: np.ndarray, k: int, n0: int) -> np.ndarray:
    """Prefix sums A[K] = sum_{i<=K} n0 (av[i]-av[i-1]) / (i v k), K = 0..M."""
    iok = np.maximum(np.arange(1, av.size), k)
    return np.concatenate([[0.0], np.cumsum(n0 * np.diff(av) / iok)])


def _arbdep_sd_value(av: np.ndarray, k: int, n0: int) -> float:
    return float(_sd_marginal_prefix(av, k, n0)[-1])


def _arbdep_su_value(av: np.ndarray, k: int, n0: int) -> float:
    """n0 * (av[k]/k + sum_{i=k+1}^{n0} (av[i]-av[i-1]) / i)."""
    i = np.arange(k + 1, n0 + 1)
    return float(n0 * (av[k] / k + np.sum((av[k + 1:] - av[k:-1]) / i)))


def _marginal_scale(direction: str, value, tpl: np.ndarray, gamma: Gamma,
                    k: int):
    """(C, worst n0) with C = max over n0 of value(tpl[rank map], k, n0)."""
    n = _check_template_vector(tpl)
    maps = _rank_maps(direction, n, gamma, k)
    return _worst_over_n0(lambda n0: value(tpl[maps[n0 - k]], k, n0), n, k)


def _marginal_report(direction: str, value, tpl, gamma: Gamma, k: int,
                     alpha: float) -> ConstantsReport:
    """Template flattened at rank k and rescaled by alpha / C."""
    tpl = np.asarray(tpl, dtype=float)
    scale, worst_n0 = _marginal_scale(direction, value, tpl, gamma, k)
    ranks = np.maximum(np.arange(1, tpl.size), k)
    values = alpha * tpl[ranks] / scale
    if values[-1] >= 1.0:
        raise ValueError(
            f"rescaled constants reach {values[-1]:.6g} >= 1; lower alpha"
        )
    return ConstantsReport(scale=scale, worst_n0=worst_n0,
                           constants=CriticalConstants(values=values, k=k))


def posdep_sd_report(tpl, gamma: Gamma, k: int, alpha: float) -> ConstantsReport:
    """Stepdown constants valid under positive dependence (marginal-only).

    Rescales the template by C = max over n0 and levels i of
    n0 * tpl[mbar(i)] / (i v k).
    """
    return _marginal_report("sd", _posdep_sd_value, tpl, gamma, k, alpha)


def posdep_su_report(tpl, gamma: Gamma, k: int, alpha: float) -> ConstantsReport:
    """Stepup analog of ``posdep_sd_report``: C = max n0 * tpl[mt(i)] / i."""
    return _marginal_report("su", _posdep_su_value, tpl, gamma, k, alpha)


def arbdep_sd_report(tpl, gamma: Gamma, k: int, alpha: float) -> ConstantsReport:
    """Stepdown constants valid under arbitrary dependence (marginal-only).

    C = max over n0 of the telescoping sum
    n0 * sum_i (tpl[mbar(i)] - tpl[mbar(i-1)]) / (i v k).
    """
    return _marginal_report("sd", _arbdep_sd_value, tpl, gamma, k, alpha)


def arbdep_su_report(tpl, gamma: Gamma, k: int, alpha: float) -> ConstantsReport:
    """Stepup analog of ``arbdep_sd_report`` built on the mt(i) ranks."""
    return _marginal_report("su", _arbdep_su_value, tpl, gamma, k, alpha)


def sd_marginal_bound(tpl, gamma: Gamma) -> float:
    """Worst-case stepdown exceedance bound of a constants vector (k = 1).

    max over n0 in [1, n] of n0 * sum_i (v[mbar(i)] - v[mbar(i-1)]) / i,
    the quantity the pairwise stepdown bound can only improve on: the
    arbdep stepdown scale at k = 1.
    """
    tpl = np.asarray(tpl, dtype=float)
    return _marginal_scale("sd", _arbdep_sd_value, tpl, gamma, 1)[0]


def su_marginal_bound(tpl, gamma: Gamma) -> float:
    """Stepup analog of ``sd_marginal_bound``: the arbdep stepup scale at k = 1."""
    tpl = np.asarray(tpl, dtype=float)
    return _marginal_scale("su", _arbdep_su_value, tpl, gamma, 1)[0]


# ---------------------------------------------------------------------------
# Lehmann-Romano family and its pairwise-aware generalization

def lr_constants(n: int, gamma: Gamma, alpha: float) -> ConstantsReport:
    """The Lehmann-Romano critical constants at level alpha (k = 1 family)."""
    vals = lr_template(n, gamma, alpha)[1:]
    return ConstantsReport(constants=CriticalConstants(values=vals, k=1))


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

    def value_at(n0):
        b = np.arange(n0 + 1) * (alpha / n0)
        cond = conditional_cdf(F, b[k:], b[k])
        inner = cond[0] / (k - 1)
        if n0 > k:
            inner += float(np.sum(np.diff(cond) / np.arange(k, n0)))
        return float((n0 - 1) * inner)

    best, best_n0 = _worst_over_n0(value_at, n, k)
    if not best > 0.0:
        raise ValueError(
            f"degenerate pairwise model: worst-case C = {best:.6g} <= 0, so F "
            "has no lower-tail mass at the Lehmann-Romano thresholds"
        )
    base = lr_template(n, gamma, alpha)
    ranks = np.maximum(np.arange(1, n + 1), k)
    values = base[ranks] / min(best, 1.0)
    if values[-1] >= 1.0:
        raise ValueError(
            f"inflated constants reach {values[-1]:.6g} >= 1; lower alpha"
        )
    return ConstantsReport(scale=best, worst_n0=best_n0,
                           constants=CriticalConstants(values=values, k=k))


# ---------------------------------------------------------------------------
# pairwise-aware bounds under arbitrary dependence, and their calibration

# points per F.cdf call in _pair_matrix; bounds the kernel's temporaries
_PAIR_CHUNK = 65536


def _pair_matrix(F: PairwiseNull, tpl: np.ndarray, rows, cols) -> np.ndarray:
    """F(tpl[i], tpl[j]) at the rank pairs (rows, cols), rows <= cols.

    F is symmetric (a ``PairwiseNull`` precondition), so F.cdf runs once per
    distinct pair, in key order and chunks of _PAIR_CHUNK, and the result is
    mirrored into the (n+1)^2 matrix; pairs not asked for read NaN.
    """
    size = tpl.size
    rows, cols = np.divmod(np.unique(rows * size + cols), size)
    vals = np.empty(rows.size)
    for lo in range(0, rows.size, _PAIR_CHUNK):
        hi = lo + _PAIR_CHUNK
        vals[lo:hi] = np.asarray(F.cdf(tpl[rows[lo:hi]], tpl[cols[lo:hi]]))
    out = np.full((size, size), np.nan)
    out[rows, cols] = vals
    out[cols, rows] = vals
    return out


def pair_sd_bound(template: Template, gamma: Gamma, k: int, F: PairwiseNull,
                  beta: float) -> BoundValue:
    """Stepdown exceedance bound mixing marginal and pairwise information.

    For each n0 the bound splits the level sum at K: levels i <= K use the
    marginal telescope, levels i >= K+2 use the pairwise diagonal telescope,
    and two boundary terms (one additive, one subtractive) join the parts
    when M >= K+1.  The reported value is max over n0 of min over K.
    """
    n = template.n
    tpl = template.values(beta)
    mbars = _rank_maps("sd", n, gamma, k)
    # F is read only at (mbar_i, mbar_i), i = 0..M, and (mbar_i, mbar_{i+1}),
    # i = 1..M-1, of every n0
    rows = np.concatenate(mbars + [m[1:-1] for m in mbars])
    cols = np.concatenate(mbars + [m[2:] for m in mbars])
    grid = _pair_matrix(F, tpl, rows, cols)

    def value_at(n0):
        mbar = mbars[n0 - k]
        m_cap = mbar.size - 1
        fdiag = grid[mbar, mbar]                         # F(av_i, av_i), 0..M
        fnext = grid[mbar[1:-1], mbar[2:]]               # F(av_K, av_K+1)
        av = tpl[mbar]
        prefix = _sd_marginal_prefix(av, k, n0)          # A[0..M]
        iok = np.maximum(np.arange(1, m_cap + 1), k)
        denom = np.where(iok >= 2, iok * (iok - 1), 1)
        pd = np.where(iok >= 2,
                      n0 * (n0 - 1) * np.diff(fdiag) / denom, 0.0)
        suffix = np.concatenate([np.cumsum(pd[::-1])[::-1], [0.0, 0.0]])
        # expr(K) = A[K] + sum_{i >= K+2} pd_i + boundary terms if M >= K+1
        kk = np.arange(1, m_cap + 1)
        expr = prefix[1:] + suffix[np.minimum(kk + 1, m_cap + 1)]
        if m_cap >= 2:
            kb = kk[:-1]                                  # K = 1..M-1
            k1 = np.maximum(kb + 1, k)
            expr[:-1] += (
                n0 * (n0 - 1) * fdiag[kb + 1] / (k1 * (k1 - 1))
                - n0 * fnext / k1
            )
        return float(expr.min())

    return BoundValue(*_worst_over_n0(value_at, n, k))


def pair_su_bound(template: Template, gamma: Gamma, k: int, F: PairwiseNull,
                  beta: float) -> BoundValue:
    """Stepup exceedance bound mixing marginal and pairwise information.

    Ranks r <= K contribute the marginal telescope; ranks r > K contribute
    an r^-2 marginal term, the diagonal pairwise increment, and the
    rectangle masses G over consecutive threshold pairs (r, s), s > r.
    The reported value is max over n0 of min over K in [k, n0].
    """
    n = template.n
    tpl = template.values(beta)
    mts = _rank_maps("su", n, gamma, k)
    grid = _pair_matrix(F, tpl, *np.triu_indices(n + 1))
    r_all = np.arange(1, n + 1)
    q_all = np.concatenate([[0.0], 1.0 / r_all[:-1] - 1.0 / r_all[1:], [0.0]])
    strict_upper = np.triu(np.ones((n + 1, n + 1)), 1)

    def value_at(n0):
        mt = mts[n0 - k]
        av = tpl[mt]
        d = np.diff(av)
        r = r_all[:n0]
        head = n0 * d / r
        pref = np.concatenate([[0.0], np.cumsum(head)])  # pref[j] = sum_{r<=j}
        fmm = grid[mt[:, None], mt]
        diag = fmm.diagonal()[1:]                        # F(av_r, av_r)
        sup = fmm.diagonal(1)                            # F(av_r-1, av_r)
        # sum_{s>r} G(r, s) / s, G the rectangle mass, summed by parts in s:
        # U(r) - U(r-1) + sup_r / r - diag_r / (r+1) for r < n0, 0 at n0,
        # with U(i) = sum_{s>i} fmm[i, s] q_s, q_s = 1/s - 1/(s+1), q_n0 = 1/n0
        q = q_all[:n0 + 1].copy()
        q[n0] = 1.0 / n0
        u = (fmm * strict_upper[:n0 + 1, :n0 + 1]) @ q
        by_parts = u[1:] - u[:-1] + sup / r - diag / (r + 1)
        by_parts[-1] = 0.0
        cross = (n0 * (n0 - 1) / r) * by_parts
        pdiag = n0 * (n0 - 1) * (diag - sup) / r**2
        row = n0 * d / r**2 + pdiag + cross
        tail = np.concatenate([np.cumsum(row[::-1])[::-1], [0.0]])
        kk = r_all[k - 1:n0]
        expr = n0 * av[k - 1] / k + (pref[kk] - pref[k - 1]) + tail[kk]
        return float(expr.min())

    return BoundValue(*_worst_over_n0(value_at, n, k))


_VALUE_TOL = 5e-10
_WIDTH_TOL = 1e-12


def bisect_scale(value_fn, target: float) -> float:
    """Find beta in (0, 1) with value_fn(beta) = target on a kept bracket.

    Midpoint steps narrow the bracket to width 1/8; from there Illinois
    regula falsi aims at the middle of the window [target - _VALUE_TOL,
    target], falling back to the midpoint when the secant leaves the
    bracket.  Returns the first evaluated beta whose value lies in that
    window, or, once the bracket is narrower than _WIDTH_TOL, its lower end,
    where the value is below target.  Either way value_fn(beta) <= target.
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
    # secant weights; the one whose endpoint is kept twice running is halved
    g_lo, g_hi = v_lo - aim, v_hi - aim
    moved = None
    while hi - lo > _WIDTH_TOL:
        beta = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        if hi - lo > 0.125 or not lo < beta < hi:
            beta = 0.5 * (lo + hi)
        v = value(beta)
        if target - _VALUE_TOL <= v <= target:
            break
        if (v - target) * (v_lo - target) > 0:  # on the side of lo
            lo, g_lo = beta, v - aim
            if moved == "lo":
                g_hi *= 0.5
            moved = "lo"
        else:
            hi, g_hi = beta, v - aim
            if moved == "hi":
                g_lo *= 0.5
            moved = "hi"
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
    tpl_star = template.values(beta_star)
    ranks = np.maximum(np.arange(1, template.n + 1), k)
    constants = CriticalConstants(values=tpl_star[ranks], k=k)
    return ConstantsReport(constants=constants, scale=final.value,
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
