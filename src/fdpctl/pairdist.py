"""Common pairwise joint null distributions F(u, v) and their normal kernel.

The procedures that exploit correlation information need the joint CDF
F(u, v) = Pr(P_i <= u, P_j <= v) shared by every pair of null p-values.
This module provides the abstract interface plus three concrete models:
independence, perfect (comonotone) dependence, and the two-sided
equicorrelated-normal model, all built on a bivariate normal CDF kernel.

The kernel integrates the classic identity d(Phi2)/d(rho) = bvn density,
i.e. Phi2(a, b, rho) = Phi(a) Phi(b) + (1/2pi) * int_0^rho
exp(-(a^2 - 2 t a b + b^2) / (2 (1 - t^2))) / sqrt(1 - t^2) dt, with the
substitution t = sin(theta) that removes the endpoint singularity.  The
quadrature panels refine geometrically toward |rho| = 1 so the absolute
error stays below ~1e-13 on the whole open interval; rho = +-1 is handled
analytically, never by quadrature.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = [
    "bvn_cdf",
    "two_sided_equicorr_cdf",
    "conditional_cdf",
    "PairwiseNull",
    "IndependentPairs",
    "ComonotonePairs",
    "EquicorrelatedPairs",
    "make_pairwise",
    "validate_pairwise",
]

# Correlation band edges: one quadrature panel per band below |rho|.  A
# single 48-node panel already reaches ~1e-15 for |rho| <= 0.925; the
# geometric refinement keeps that accuracy as |rho| -> 1.
_BAND_EDGES = (0.925,) + tuple(1.0 - 10.0**-j for j in range(2, 16))
_NODES_PER_PANEL = 48


@lru_cache(maxsize=256)
def _theta_rule(rho_abs: float):
    """Gauss-Legendre nodes/weights on [0, asin(rho_abs)], banded panels."""
    x, w = np.polynomial.legendre.leggauss(_NODES_PER_PANEL)
    cuts = [0.0] + [c for c in _BAND_EDGES if c < rho_abs] + [rho_abs]
    nodes, weights = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        t0, t1 = math.asin(lo), math.asin(hi)
        half = 0.5 * (t1 - t0)
        nodes.append(half * (x + 1.0) + t0)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def bvn_cdf(a, b, rho: float):
    """P(Z1 <= a, Z2 <= b) for standard bivariate normal with correlation rho.

    a and b broadcast as numpy arrays (+-inf allowed); rho is a scalar in
    [-1, 1].  Scalar inputs return a float.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    a_arr, b_arr = np.broadcast_arrays(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    )
    scalar = a_arr.ndim == 0
    a_arr = np.atleast_1d(a_arr)
    b_arr = np.atleast_1d(b_arr)
    if np.isnan(a_arr).any() or np.isnan(b_arr).any():
        raise ValueError("bounds must not be NaN")

    if rho == 1.0:
        out = ndtr(np.minimum(a_arr, b_arr))
    elif rho == -1.0:
        out = np.maximum(ndtr(a_arr) + ndtr(b_arr) - 1.0, 0.0)
    elif rho == 0.0:
        out = ndtr(a_arr) * ndtr(b_arr)
    else:
        out = ndtr(a_arr) * ndtr(b_arr)
        finite = np.isfinite(a_arr) & np.isfinite(b_arr)
        if finite.any():
            af = a_arr[finite]
            bf = b_arr[finite]
            theta, w = _theta_rule(abs(rho))
            sin_t = np.sin(theta)
            cos2_t = np.cos(theta) ** 2
            # sign folded into the cross term: the rho < 0 integral mirrors
            # onto [0, asin|rho|] with a*b -> -a*b.
            hk = math.copysign(1.0, rho) * af * bf
            expo = -(
                af[:, None] ** 2
                + bf[:, None] ** 2
                - 2.0 * hk[:, None] * sin_t[None, :]
            ) / (2.0 * cos2_t[None, :])
            corr = (np.exp(expo) @ w) / (2.0 * math.pi)
            out = out.copy()
            out[finite] += math.copysign(1.0, rho) * corr
    return float(out[0]) if scalar else out


def two_sided_equicorr_cdf(u, v, rho: float):
    """Joint CDF of two-sided normal p-values under equicorrelation rho.

    With z_q the upper-q standard normal quantile, this is
    P(|Z1| >= z_{u/2}, |Z2| >= z_{v/2}) for (Z1, Z2) standard bivariate
    normal with correlation rho, assembled from four quadrant evaluations
    of ``bvn_cdf``.  Symmetric in the sign of rho because the statistics
    enter through their absolute values.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    u_arr, v_arr = np.broadcast_arrays(
        np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    )
    scalar = u_arr.ndim == 0
    u_arr = np.atleast_1d(u_arr).copy()
    v_arr = np.atleast_1d(v_arr).copy()
    if (u_arr < 0).any() or (u_arr > 1).any() or (v_arr < 0).any() or (v_arr > 1).any():
        raise ValueError("p-value arguments must lie in [0, 1]")

    if abs(rho) == 1.0:
        out = np.minimum(u_arr, v_arr)
    else:
        with np.errstate(divide="ignore"):
            neg_a = ndtri(u_arr / 2.0)  # = -z_{u/2}; -inf at u = 0
            neg_b = ndtri(v_arr / 2.0)
        out = 2.0 * (
            np.atleast_1d(bvn_cdf(neg_a, neg_b, rho))
            + np.atleast_1d(bvn_cdf(neg_a, neg_b, -rho))
        )
    return float(out[0]) if scalar else out


def conditional_cdf(F: "PairwiseNull", u, v):
    """F(u | v) = F(u, v) / v, clamped into [0, 1] against rounding."""
    v_arr = np.asarray(v, dtype=float)
    if np.any(v_arr <= 0.0):
        raise ValueError("conditioning level v must be positive")
    return np.clip(np.asarray(F.cdf(u, v), dtype=float) / v_arr, 0.0, 1.0)


class PairwiseNull:
    """Common pairwise joint CDF of two null p-values.

    Any subclass (or user-supplied object) must provide a ``cdf(u, v)``
    accepting scalars or broadcastable arrays in [0, 1] and behaving like a
    bivariate distribution function with uniform margins; see
    ``validate_pairwise`` for the spot checks applied to custom models.
    """

    name = "pairwise"

    def cdf(self, u, v):
        raise NotImplementedError


class IndependentPairs(PairwiseNull):
    name = "independence"

    def cdf(self, u, v):
        return np.asarray(u, dtype=float) * np.asarray(v, dtype=float)


class ComonotonePairs(PairwiseNull):
    name = "comonotone"

    def cdf(self, u, v):
        return np.minimum(np.asarray(u, dtype=float), np.asarray(v, dtype=float))


class EquicorrelatedPairs(PairwiseNull):
    """Two-sided p-values from equicorrelated standard normals."""

    def __init__(self, rho: float):
        if not -1.0 <= rho <= 1.0:
            raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
        self.rho = float(rho)
        self.name = f"equicorr({self.rho:g})"

    def cdf(self, u, v):
        return two_sided_equicorr_cdf(u, v, self.rho)


def make_pairwise(spec) -> PairwiseNull:
    """Build a pairwise model from 'independence', 'comonotone', or a rho."""
    if isinstance(spec, PairwiseNull):
        return spec
    if isinstance(spec, str):
        s = spec.strip().lower()
        if s in ("independence", "independent", "indep"):
            return IndependentPairs()
        if s in ("comonotone", "perfect"):
            return ComonotonePairs()
        try:
            return EquicorrelatedPairs(float(s))
        except ValueError:
            raise ValueError(f"unknown pairwise model {spec!r}") from None
    if isinstance(spec, (int, float)):
        return EquicorrelatedPairs(float(spec))
    raise TypeError(f"cannot interpret {spec!r} as a pairwise model")


def validate_pairwise(F: PairwiseNull, grid: int = 11, tol: float = 1e-6) -> None:
    """Spot-check distribution-function behaviour on a coarse grid.

    Raises ValueError on the first violated property: zero/one boundary
    values, symmetry, uniform margins, Frechet bounds, and nonnegative
    rectangle mass (2-increasingness).
    """
    u = np.linspace(0.0, 1.0, grid)
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
