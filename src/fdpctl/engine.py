"""Generic stepdown/stepup execution over a p-value vector.

Both procedures sort the p-values once (stable, so ties break by original
index) and scan the ordered values against the critical constants:

* stepdown rejects the i* smallest p-values where i* is the largest i such
  that P_(j) <= alpha_j for every j <= i (nothing if P_(1) > alpha_1);
* stepup rejects the i* smallest where i* is the largest i with
  P_(i) <= alpha_i (nothing if no such i).

Comparisons are exact <=; the constants are exact decimals produced by the
constants module, so no epsilon slop is wanted here.

``step_counts`` runs the same scans on every row of a p-value block at
once and returns only the counts R and V, which is all a Monte Carlo
replication needs; the single-vector functions serve everything else.
"""

from __future__ import annotations

import numpy as np

from .core import CriticalConstants, RejectionResult, TruthLabels

__all__ = ["step_down", "step_up", "annotate_truth", "step_counts"]


def _checked(p: np.ndarray) -> np.ndarray:
    """p itself, after checking every value lies in [0, 1]."""
    # min and max carry NaN; the initial values make an empty block pass
    if not (0.0 <= np.minimum.reduce(p, axis=None, initial=0.0)
            and np.maximum.reduce(p, axis=None, initial=1.0) <= 1.0):
        raise ValueError("p-values must lie in [0, 1]")
    return p


def _count(p_sorted, direction: str, constants: CriticalConstants):
    """Rejection count along the last axis of sorted p-values.

    Stepdown scans up from rank 1 to the first failing rank, stepup down
    from rank n to the first passing one.  A scan that never stops also
    reads 0, and the first scanned rank's flag tells the two apart.  The
    flag enters by arithmetic: a reduction or np.where would cost a 1-d call
    about a microsecond more.
    """
    n = p_sorted.shape[-1]
    if constants.n != n:
        raise ValueError(f"{n} p-values but {constants.n} critical constants")
    if direction == "sd":
        ok = p_sorted <= constants.values
        stop = ok.argmin(axis=-1)
        return stop + (n - stop) * ((stop == 0) & ok.take(0, axis=-1))
    if direction == "su":
        ok = p_sorted[..., ::-1] <= constants.values[::-1]
        stop = ok.argmax(axis=-1)
        return (n - stop) * ((stop > 0) | ok.take(0, axis=-1))
    raise ValueError(f"direction must be sd or su, got {direction!r}")


def _step(p, direction: str, constants: CriticalConstants) -> RejectionResult:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError("p-values must form a 1-d vector")
    order = _checked(p).argsort(kind="stable")
    count = _count(p[order], direction, constants)
    return RejectionResult(rejected=order[:count].tolist(), n=p.size)


def step_down(p, constants: CriticalConstants) -> RejectionResult:
    """Run the stepdown procedure; returns the rejected original indices."""
    return _step(p, "sd", constants)


def step_up(p, constants: CriticalConstants) -> RejectionResult:
    """Run the stepup procedure; returns the rejected original indices."""
    return _step(p, "su", constants)


def annotate_truth(result: RejectionResult, labels: TruthLabels) -> RejectionResult:
    """Fill in the false/true rejection counts V and S from truth labels."""
    if labels.n != result.n:
        raise ValueError(f"{labels.n} labels for {result.n} hypotheses")
    v = sum(labels.is_null[i] for i in result.rejected)
    return RejectionResult(
        rejected=result.rejected, n=result.n, v=v, s=result.r - v
    )


def step_counts(p, is_null, runs) -> list:
    """Rejection count R and false-rejection count V per row of a block.

    ``p`` is a (rows, n) block of p-value vectors, ``is_null`` the n truth
    labels and ``runs`` a sequence of (direction, constants) pairs with
    direction 'sd' or 'su'.  Returns one (R, V) pair of int64 arrays of
    shape (rows,) per run; row i equals the r and v of
    ``annotate_truth(step_*(p[i], constants), labels)``.  One stable sort
    per row serves every run, and V is read from the running count of true
    nulls along the sorted order.
    """
    p = np.asarray(p, dtype=float)
    is_null = np.asarray(is_null, dtype=bool)
    if p.ndim != 2 or is_null.shape != p.shape[1:]:
        raise ValueError(f"p-value block of shape {p.shape} does not match "
                         f"{is_null.size} truth labels")
    rows, n = p.shape
    order = _checked(p).argsort(axis=1, kind="stable")
    p_sorted = np.take_along_axis(p, order, axis=1)
    nulls = np.zeros((rows, n + 1), dtype=np.int64)
    np.cumsum(is_null[order], axis=1, out=nulls[:, 1:])
    row = np.arange(rows)
    out = []
    for direction, constants in runs:
        r = _count(p_sorted, direction, constants)
        out.append((r, nulls[row, r]))
    return out
