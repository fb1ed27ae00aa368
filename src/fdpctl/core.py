"""Exact-arithmetic domain types shared by every other module.

The exceedance threshold gamma is kept as an exact rational so that the
floor expressions appearing in the critical-constant formulas and in the
"FDP exceeds gamma" decision are evaluated in integer arithmetic.  A float
gamma makes those floors discontinuous in the last ulp and the outcome
order-dependent; a rational gamma makes them deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

__all__ = [
    "Gamma",
    "TruthLabels",
    "RejectionResult",
    "CriticalConstants",
    "kfdp_value",
    "exceeds_gamma",
    "exceeds_counts",
]

# Floats are snapped to a rational only when they sit within this distance
# of one; farther away the input is considered genuinely non-rational.
FLOAT_SNAP_TOL = 1e-12


@dataclass(frozen=True)
class Gamma:
    """Exceedance threshold gamma = num/den with 0 <= gamma < 1, gcd-reduced."""

    num: int
    den: int

    def __post_init__(self):
        if self.den <= 0:
            raise ValueError(f"denominator must be positive, got {self.den}")
        if not 0 <= self.num < self.den:
            raise ValueError(
                f"gamma must lie in [0, 1), got {self.num}/{self.den}"
            )
        g = math.gcd(self.num, self.den)
        if g != 1:
            object.__setattr__(self, "num", self.num // g)
            object.__setattr__(self, "den", self.den // g)

    @classmethod
    def parse(cls, value) -> "Gamma":
        """Build from 'p/q' or decimal strings, Fractions, ints or floats.

        Strings and Fractions convert exactly.  Floats are snapped to the
        closest continued-fraction rational; if no rational within
        ``FLOAT_SNAP_TOL`` exists the input is rejected.
        """
        if isinstance(value, Gamma):
            return value
        if isinstance(value, str):
            frac = Fraction(value.strip())
        elif isinstance(value, Fraction):
            frac = value
        elif isinstance(value, int):
            frac = Fraction(value)
        elif isinstance(value, float):
            if not math.isfinite(value):
                raise ValueError(f"gamma must be finite, got {value!r}")
            frac = Fraction(value).limit_denominator(10**12)
            if abs(frac - Fraction(value)) > FLOAT_SNAP_TOL:
                raise ValueError(
                    f"float gamma {value!r} has no rational within {FLOAT_SNAP_TOL}"
                )
        else:
            raise TypeError(f"cannot interpret {value!r} as a gamma threshold")
        return cls(frac.numerator, frac.denominator)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def floor_mul(self, i: int) -> int:
        """Exact floor(gamma * i) for integer i >= 0."""
        if i < 0:
            raise ValueError(f"i must be nonnegative, got {i}")
        return (self.num * i) // self.den

    def floor_odds_mul(self, j: int) -> int:
        """Exact floor(gamma * j / (1 - gamma)) for integer j >= 0."""
        if j < 0:
            raise ValueError(f"j must be nonnegative, got {j}")
        return (self.num * j) // (self.den - self.num)

    def __float__(self) -> float:
        return self.num / self.den

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


@dataclass(frozen=True)
class TruthLabels:
    """Which hypotheses are true nulls; n0 true nulls, n1 = n - n0 signals."""

    is_null: tuple

    def __post_init__(self):
        object.__setattr__(self, "is_null", tuple(bool(b) for b in self.is_null))

    @classmethod
    def nulls_first(cls, n: int, n0: int) -> "TruthLabels":
        """n0 true nulls in the leading positions, signals in the rest."""
        if not 0 <= n0 <= n:
            raise ValueError(f"need 0 <= n0 <= n, got n0={n0}, n={n}")
        return cls(tuple([True] * n0 + [False] * (n - n0)))

    @property
    def n(self) -> int:
        return len(self.is_null)

    @cached_property
    def n0(self) -> int:
        return sum(self.is_null)

    @property
    def n1(self) -> int:
        return self.n - self.n0

    def as_array(self) -> np.ndarray:
        return np.asarray(self.is_null, dtype=bool)


@dataclass(frozen=True)
class RejectionResult:
    """Outcome of one stepwise run: rejected original indices plus counts.

    v (false rejections) and s (true rejections) are filled in once truth
    labels are supplied; they stay None on real data.
    """

    rejected: tuple
    n: int
    v: int | None = None
    s: int | None = None

    def __post_init__(self):
        rej = tuple(map(int, self.rejected))
        object.__setattr__(self, "rejected", rej)
        if rej and not (0 <= min(rej) and max(rej) < self.n):
            raise ValueError("rejected indices out of range")
        if len(set(rej)) != len(rej):
            raise ValueError("rejected indices must be distinct")
        if self.v is not None and self.s is not None:
            if self.v + self.s != len(rej):
                raise ValueError("v + s must equal the rejection count")

    @property
    def r(self) -> int:
        return len(self.rejected)


@dataclass(frozen=True, eq=False)
class CriticalConstants:
    """Nondecreasing critical values alpha_1 <= ... <= alpha_n in (0, 1).

    For a generalization order k > 1 the first k - 1 entries equal the k-th
    one; below rank k the choice cannot change the controlled error rate, so
    the constants are flattened there.
    """

    values: np.ndarray
    k: int = 1

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        n = vals.size
        if n == 0:
            raise ValueError("constants vector is empty")
        if not 1 <= self.k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={n}")
        if not np.isfinite(vals).all():
            raise ValueError("constants must be finite")
        if vals[0] <= 0.0 or vals[-1] >= 1.0:
            raise ValueError("constants must lie strictly inside (0, 1)")
        if (vals[1:] < vals[:-1]).any():
            raise ValueError("constants must be nondecreasing")
        if self.k > 1 and (vals[: self.k - 1] != vals[self.k - 1]).any():
            raise ValueError(
                f"the first {self.k - 1} constants must equal the {self.k}-th"
            )

    @property
    def n(self) -> int:
        return self.values.size


def kfdp_value(result: RejectionResult, k: int = 1) -> Fraction:
    """Generalized FDP: V/R when V >= k, else 0 (and 0 when R = 0).

    Returned as an exact rational so callers can compare against a rational
    gamma without float thresholds in the decision path.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if result.v is None:
        raise ValueError("result carries no false-rejection count; annotate first")
    if result.r == 0 or result.v < k:
        return Fraction(0)
    return Fraction(result.v, result.r)


def exceeds_gamma(result: RejectionResult, k: int, gamma: Gamma) -> bool:
    """True iff the generalized FDP exceeds gamma, in exact arithmetic."""
    if result.v is None:
        raise ValueError("result carries no false-rejection count; annotate first")
    return exceeds_counts(result.v, result.r, k, gamma)


def exceeds_counts(v, r, k: int, gamma: Gamma):
    """V > max(gamma * R, k - 1) for counts V <= R, in exact arithmetic.

    For integer V the condition V >= k is the same as V > k - 1, and V/R >
    gamma is V*den > R*num.  Works on ints and elementwise on integer
    arrays; arrays whose int64 products could overflow are compared as
    Python ints.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # den itself must fit in int64 even when every count is 0 or r is empty
    if isinstance(r, np.ndarray) and (
            max(int(r.max(initial=0)), 1) * gamma.den > np.iinfo(np.int64).max):
        v, r = v.astype(object), r.astype(object)
    return (v >= k) & (r > 0) & (v * gamma.den > r * gamma.num)
