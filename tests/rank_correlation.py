"""Spearman rank correlation, with ties at their average rank.

No command reports a rank correlation, so the package does not ship
one; this is the function it once exported, kept with the tests that
pin it to ``scipy.stats.spearmanr``.
"""
import numpy as np


def _average_ranks(values):
    """1-based ranks; tied values share the mean of the ranks they span."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    # a run of c ties after s smaller values spans ranks s+1 .. s+c
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def spearman(x, y):
    """Spearman rank correlation, or None when it is undefined.

    Tied values get the average of the ranks they span; the result is
    the Pearson correlation of the two rank vectors, computed on centred
    ranks (it agrees with scipy's ``spearmanr`` to rounding).  None
    when either input is constant or holds a NaN.  Raises ``ValueError``
    on inputs of unequal length or shorter than two.
    """
    if len(x) != len(y):
        raise ValueError("inputs must have equal length")
    if len(x) < 2:
        raise ValueError("need at least two observations")
    xs = np.asarray(x, dtype=np.float64)
    ys = np.asarray(y, dtype=np.float64)
    if np.isnan(xs).any() or np.isnan(ys).any():
        return None
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    denominator = np.sqrt((rx @ rx) * (ry @ ry))
    if denominator == 0.0:
        return None
    return float(np.clip((rx @ ry) / denominator, -1.0, 1.0))
