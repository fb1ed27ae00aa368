"""Independent computations the workload checkers compare fdpctl against.

Nothing here calls fdpctl: the stepwise scan, the sample generator, the
p-values, the bivariate normal integral and the oracle's instance counts are
written from their definitions, so a fault in the package cannot cancel out
of a comparison.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special


def sort_and_scan(p, constants, direction: str) -> list:
    """Indices rejected by the stepdown ('sd') or stepup ('su') procedure.

    The p-values are ranked by a stable sort, so ties keep their original
    order; rank i (1-based) is compared with constants[i - 1].  Stepdown
    rejects the ranks before the first p-value above its constant; stepup
    rejects every rank up to the last p-value at or below its constant.
    """
    if len(p) != len(constants):
        raise ValueError(f"{len(p)} p-values but {len(constants)} constants")
    order = sorted(range(len(p)), key=p.__getitem__)
    count = 0
    if direction == "sd":
        for rank, idx in enumerate(order):
            if p[idx] > constants[rank]:
                break
            count = rank + 1
    elif direction == "su":
        for rank, idx in enumerate(order):
            if p[idx] <= constants[rank]:
                count = rank + 1
    else:
        raise ValueError(f"direction must be 'sd' or 'su', got {direction!r}")
    return order[:count]


def rejection_counts(p, constants, direction: str, is_null) -> tuple:
    """(R, V, S): rejections, false rejections and true rejections."""
    rejected = sort_and_scan(p, constants, direction)
    v = sum(1 for i in rejected if is_null[i])
    return len(rejected), v, len(rejected) - v


def exceeds(v: int, r: int, k: int, gamma_num: int, gamma_den: int) -> bool:
    """V >= k and V/R > gamma, decided in integers."""
    return v >= k and v * gamma_den > r * gamma_num


def regenerate_sample(kind: str, rho: float, block_size, mu, seed: int,
                      rep: int) -> np.ndarray:
    """Replication `rep` of a Monte Carlo cell, from the (seed, rep) contract.

    Replication r draws from ``numpy.random.default_rng((seed, r))``: a
    shared factor (uniform), one factor per block (block) or nothing (AR(1)),
    then n independent standard normals.
    """
    rng = np.random.default_rng((seed, rep))
    n = len(mu)
    if kind == "uniform":
        shared = np.full(n, rng.standard_normal())
    elif kind == "block":
        shared = np.repeat(rng.standard_normal(n // block_size), block_size)
    elif kind == "ar1":
        shared = None
    else:
        raise ValueError(f"unknown dependence kind {kind!r}")
    eps = rng.standard_normal(n).tolist()
    if shared is None:
        c = math.sqrt(1.0 - rho * rho)
        z = [eps[0]]
        for e in eps[1:]:
            z.append(rho * z[-1] + c * e)
    else:
        a, b = math.sqrt(rho), math.sqrt(1.0 - rho)
        z = [a * s + b * e for s, e in zip(shared.tolist(), eps)]
    return np.array(z) + np.asarray(mu, dtype=float)


def two_sided_p(z) -> list:
    """Two-sided normal p-values erfc(|z| / sqrt 2)."""
    return [math.erfc(abs(x) / math.sqrt(2.0)) for x in np.asarray(z).tolist()]


def lr_constants(n: int, gamma_num: int, gamma_den: int, alpha: float) -> list:
    """Lehmann-Romano constants (floor(g i) + 1) alpha / (n + floor(g i) + 1 - i)."""
    out = []
    for i in range(1, n + 1):
        g = gamma_num * i // gamma_den
        out.append((g + 1) * alpha / (n + g + 1 - i))
    return out


def bvn_quad(a: float, b: float, rho: float) -> float:
    """P(Z1 <= a, Z2 <= b) as the 1-d integral of phi(x) Phi((b - rho x)/s)."""
    s = math.sqrt(1.0 - rho * rho)

    def integrand(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) \
            * special.ndtr((b - rho * x) / s)

    value, _ = integrate.quad(integrand, -np.inf, a, epsabs=1e-14,
                              epsrel=1e-13, limit=200)
    return value


def bvn_origin(rho: float) -> float:
    """Sheppard's formula Phi2(0, 0, rho) = 1/4 + asin(rho) / (2 pi)."""
    return 0.25 + math.asin(rho) / (2.0 * math.pi)


def exhaustive_count(lattice_size: int, sizes=(2, 3, 4), combos: int = 6) -> int:
    """Instances of one exhaustive oracle row.

    Sorted p-value multisets of each size n from the lattice, times the 2^n
    truth labelings, times the number of (gamma, k) combinations.
    """
    return sum(math.comb(lattice_size + n - 1, n) * 2**n for n in sizes) * combos
