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


def _ordered(p, constants: CriticalConstants):
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError("p-values must form a 1-d vector")
    if p.size != constants.n:
        raise ValueError(
            f"{p.size} p-values but {constants.n} critical constants"
        )
    # one pass: NaN fails both comparisons and +-inf fails one
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise ValueError("p-values must lie in [0, 1]")
    order = p.argsort(kind="stable")
    return p, order


def step_down(p, constants: CriticalConstants) -> RejectionResult:
    """Run the stepdown procedure; returns the rejected original indices."""
    p, order = _ordered(p, constants)
    ok = p[order] <= constants.values
    count = int(ok.size if ok.all() else ok.argmin())
    return RejectionResult(rejected=tuple(order[:count].tolist()), n=p.size)


def step_up(p, constants: CriticalConstants) -> RejectionResult:
    """Run the stepup procedure; returns the rejected original indices."""
    p, order = _ordered(p, constants)
    ok = (p[order] <= constants.values).nonzero()[0]
    count = int(ok[-1] + 1) if ok.size else 0
    return RejectionResult(rejected=tuple(order[:count].tolist()), n=p.size)


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
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise ValueError("p-values must lie in [0, 1]")
    order = p.argsort(axis=1, kind="stable")
    p_sorted = np.take_along_axis(p, order, axis=1)
    nulls = np.zeros((rows, n + 1), dtype=np.int64)
    np.cumsum(is_null[order], axis=1, out=nulls[:, 1:])
    row = np.arange(rows)
    out = []
    for direction, constants in runs:
        if constants.n != n:
            raise ValueError(f"{n} p-values but {constants.n} critical constants")
        ok = p_sorted <= constants.values
        if direction == "sd":      # the first failing rank
            r = np.where(ok.all(axis=1), n, ok.argmin(axis=1))
        elif direction == "su":    # the last passing rank
            r = np.where(ok.any(axis=1), n - ok[:, ::-1].argmax(axis=1), 0)
        else:
            raise ValueError(f"direction must be sd or su, got {direction!r}")
        out.append((r, nulls[row, r]))
    return out
