"""Common pairwise joint null distributions F(u, v) and their normal kernel.

The procedures that exploit correlation information need the joint CDF
F(u, v) = Pr(P_i <= u, P_j <= v) shared by every pair of null p-values.
This module provides the abstract interface plus one concrete model, the
two-sided p-values of equicorrelated normals, built on a bivariate normal
CDF kernel.  It is exact at rho = 0 (independence, u v) and at rho = +-1
(perfect dependence, min(u, v)).  Other models subclass ``PairwiseNull``
and are spot-checked by ``validate_pairwise``.

The kernel integrates the classic identity d(Phi2)/d(rho) = bvn density,
i.e. Phi2(a, b, rho) = Phi(a) Phi(b) + (1/2pi) * int_0^rho
exp(-(a^2 - 2 t a b + b^2) / (2 (1 - t^2))) / sqrt(1 - t^2) dt, with the
substitution t = sin(theta) that removes the endpoint singularity.  The
first Gauss-Legendre panel, [0, min(|rho|, 0.925)], takes Genz's node
counts (A. Genz, Stat. Comput. 14 (2004)): 6 nodes for |rho| < 0.3, 12 for
|rho| < 0.75 and 20 above.  Panels of 48 nodes refine geometrically from
0.925 toward |rho| = 1, so the absolute error stays below ~1e-15 on the
whole open interval; rho = +-1 is handled analytically, never by
quadrature.
"""

from __future__ import annotations

import math
from functools import lru_cache, wraps

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = [
    "bvn_cdf",
    "two_sided_equicorr_cdf",
    "conditional_cdf",
    "PairwiseNull",
    "EquicorrelatedPairs",
    "validate_pairwise",
]

# Correlation band edges: one quadrature panel per band below |rho|.  The
# first panel, [0, min(|rho|, 0.925)], reaches ~2e-16 with Genz's 6, 12 or
# 20 nodes (by |rho| band); the geometric refinement above 0.925 keeps that
# accuracy as |rho| -> 1 with 48 nodes per panel.
_BAND_EDGES = (0.925,) + tuple(1.0 - 10.0**-j for j in range(2, 16))
_NODES_PER_BAND = 48
# points per (nodes x points) block of the kernel: the block stays in
# cache and each row is a long, contiguous ufunc loop
_KERNEL_BLOCK = 4096
# validate_pairwise's grid points per axis and its tolerance
_VALIDATE_GRID = 21
_VALIDATE_TOL = 1e-8


@lru_cache(maxsize=256)
def _theta_rule(rho_abs: float):
    """Banded Gauss-Legendre rule on [0, asin(rho_abs)], as the exponent
    coefficients c = -1 / (2 cos^2 theta) and c sin theta of each node, and
    its weight; read-only, since every caller shares them."""
    # Genz's count for the first panel; the edges matter: 6 nodes at
    # |rho| = 0.5 are off by ~6e-13, 12 at |rho| = 0.9 by ~2e-12
    first = 6 if rho_abs < 0.3 else 12 if rho_abs < 0.75 else 20
    cuts = [0.0] + [c for c in _BAND_EDGES if c < rho_abs] + [rho_abs]
    nodes, weights = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        x, w = np.polynomial.legendre.leggauss(
            first if lo == 0.0 else _NODES_PER_BAND)
        t0, t1 = math.asin(lo), math.asin(hi)
        half = 0.5 * (t1 - t0)
        nodes.append(half * (x + 1.0) + t0)
        weights.append(half * w)
    theta = np.concatenate(nodes)
    c = -0.5 / np.cos(theta) ** 2
    rule = (c, c * np.sin(theta), np.concatenate(weights))
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _pointwise(kernel):
    """The kernels' shared preamble: check rho, broadcast the two arguments
    and run ``kernel`` on 1-d views of them; scalar inputs return a float."""
    @wraps(kernel)
    def run(x, y, rho: float):
        if not -1.0 <= rho <= 1.0:
            raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                                   np.asarray(y, dtype=float))
        out = kernel(np.atleast_1d(x), np.atleast_1d(y), rho)
        return float(out[0]) if x.ndim == 0 else out
    return run


@_pointwise
def bvn_cdf(a, b, rho: float):
    """P(Z1 <= a, Z2 <= b) for standard bivariate normal with correlation rho.

    a and b broadcast as numpy arrays (+-inf allowed); rho is a scalar in
    [-1, 1].  Scalar inputs return a float.
    """
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("bounds must not be NaN")
    if rho == 1.0:
        return ndtr(np.minimum(a, b))
    if rho == -1.0:
        return np.maximum(ndtr(a) + ndtr(b) - 1.0, 0.0)
    out = ndtr(a) * ndtr(b)
    if rho == 0.0:
        return out
    finite = np.isfinite(a) & np.isfinite(b)
    if not finite.any():
        return out
    af = a[finite]
    bf = b[finite]
    c, c_sin, w = _theta_rule(abs(rho))
    # sign folded into the cross term: the rho < 0 integral mirrors onto
    # [0, asin|rho|] with a*b -> -a*b.
    two_hk = math.copysign(2.0, rho) * af * bf
    sq = af * af + bf * bf
    corr = np.empty(af.size)
    for lo in range(0, af.size, _KERNEL_BLOCK):
        hi = lo + _KERNEL_BLOCK
        expo = np.multiply.outer(c, sq[lo:hi])
        expo -= np.multiply.outer(c_sin, two_hk[lo:hi])
        np.exp(expo, out=expo)
        corr[lo:hi] = w @ expo
    corr /= 2.0 * math.pi
    out[finite] += math.copysign(1.0, rho) * corr
    return out


@_pointwise
def two_sided_equicorr_cdf(u, v, rho: float):
    """Joint CDF of two-sided normal p-values under equicorrelation rho.

    With z_q the upper-q standard normal quantile, this is
    P(|Z1| >= z_{u/2}, |Z2| >= z_{v/2}) for (Z1, Z2) standard bivariate
    normal with correlation rho, assembled from four quadrant evaluations
    of ``bvn_cdf``.  Symmetric in the sign of rho because the statistics
    enter through their absolute values.  rho = 0 and |rho| = 1 take their
    exact forms u v and min(u, v).
    """
    # one pass per argument; NaN fails both comparisons
    if not (((u >= 0) & (u <= 1)).all() and ((v >= 0) & (v <= 1)).all()):
        raise ValueError("p-value arguments must lie in [0, 1]")
    if rho == 0.0:
        return u * v
    if abs(rho) == 1.0:
        return np.minimum(u, v)
    with np.errstate(divide="ignore"):
        neg_a = ndtri(u / 2.0)  # = -z_{u/2}; -inf at u = 0
        neg_b = ndtri(v / 2.0)
    return 2.0 * (bvn_cdf(neg_a, neg_b, rho) + bvn_cdf(neg_a, neg_b, -rho))


def conditional_cdf(F: "PairwiseNull", u, v):
    """F(u | v) = F(u, v) / v, clamped into [0, 1] against rounding."""
    v_arr = np.asarray(v, dtype=float)
    if not (v_arr > 0.0).all():  # NaN fails too
        raise ValueError("conditioning level v must be positive")
    return np.clip(np.asarray(F.cdf(u, v), dtype=float) / v_arr, 0.0, 1.0)


class PairwiseNull:
    """Common pairwise joint CDF of two null p-values.

    Any subclass (or user-supplied object) must provide a ``cdf(u, v)``
    accepting scalars or broadcastable arrays in [0, 1] and behaving like a
    bivariate distribution function with uniform margins; see
    ``validate_pairwise`` for the spot checks applied to custom models.

    F must be symmetric, F(u, v) = F(v, u): it is the common CDF of every
    ordered pair (P_i, P_j), so also of (P_j, P_i).  The stepup bound relies
    on this and evaluates F only for u <= v on its template grid, mirroring
    the rest; ``EquicorrelatedPairs`` is symmetric bit for bit.
    """

    name = "pairwise"

    def cdf(self, u, v):
        raise NotImplementedError


class EquicorrelatedPairs(PairwiseNull):
    """Two-sided p-values from equicorrelated standard normals.

    rho = 0 is independence and rho = +-1 perfect (comonotone) dependence,
    both in exact form (see ``two_sided_equicorr_cdf``).
    """

    def __init__(self, rho: float):
        if not -1.0 <= rho <= 1.0:
            raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
        self.rho = float(rho)
        self.name = f"equicorr({self.rho:g})"

    def cdf(self, u, v):
        return two_sided_equicorr_cdf(u, v, self.rho)


def validate_pairwise(F: PairwiseNull) -> None:
    """Spot-check distribution-function behaviour on a fixed grid.

    Raises ValueError on the first violated property: zero/one boundary
    values, symmetry, uniform margins, Frechet bounds, and nonnegative
    rectangle mass (2-increasingness).
    """
    tol = _VALIDATE_TOL
    u = np.linspace(0.0, 1.0, _VALIDATE_GRID)
    g1, g2 = np.meshgrid(u, u, indexing="ij")
    vals = np.asarray(F.cdf(g1, g2), dtype=float)
    if abs(vals[-1, -1] - 1.0) > tol:
        raise ValueError(f"{F.name}: F(1, 1) = {vals[-1, -1]}, expected 1")
    if np.max(np.abs(vals[0, :])) > tol or np.max(np.abs(vals[:, 0])) > tol:
        raise ValueError(f"{F.name}: F must vanish when either argument is 0")
    if np.max(np.abs(vals - vals.T)) > tol:
        raise ValueError(f"{F.name}: F is not symmetric")
    if np.max(np.abs(vals[:, -1] - u)) > tol:
        raise ValueError(f"{F.name}: margins are not uniform")
    upper = np.minimum(g1, g2)
    lower = np.maximum(g1 + g2 - 1.0, 0.0)
    if np.max(vals - upper) > tol or np.max(lower - vals) > tol:
        raise ValueError(f"{F.name}: Frechet bounds violated")
    rect = vals[1:, 1:] - vals[:-1, 1:] - vals[1:, :-1] + vals[:-1, :-1]
    if np.min(rect) < -tol:
        raise ValueError(f"{F.name}: negative rectangle mass {np.min(rect)}")
