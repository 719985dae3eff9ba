"""The runs-based exact spread, the oracle of the difference-array one.

``ExpectedCitations.spread`` once summed an interval-coded table over
*runs*: each interval cut at its exclusions and each explicit member a
run of one, sorted once by start and once by end.  A position's sum of
one fixed-point limb was the prefix sum of that limb over the runs
started at or before it less the one over the runs ended there, in
int64.  :func:`runs_spread` is that sum, with the same limbs and the same
top-limb-first rounding.
"""
import numpy as np

from citegap.refmodels import _LIMB_BITS, _LIMBS, fixed_point_limbs


def runs(ec):
    """The members of ``ec`` as runs of consecutive positions in
    ``order``: the group of each run in order of its start and in order
    of its end, and per position how many runs start at or before it and
    how many end at or before it."""
    groups, n_excluded = len(ec.citing), np.diff(ec.excluded_ptr)
    first = np.arange(groups) + ec.excluded_ptr[:-1]
    # exclusion x of group g ends run g + x and starts the next one
    cut = np.repeat(np.arange(groups), n_excluded) + np.arange(ec.excluded.size)
    start = np.empty(groups + ec.excluded.size, dtype=np.int64)
    end = np.empty_like(start)
    start[first] = ec.lo
    end[first + n_excluded] = ec.hi
    end[cut] = ec.excluded
    start[cut + 1] = ec.excluded + 1
    group = np.repeat(np.arange(groups), n_excluded + 1)
    keep = start < end
    single = ec._position[ec.indices]
    start = np.concatenate((start[keep], single))
    end = np.concatenate((end[keep], single + 1))
    group = np.concatenate((group[keep], np.repeat(np.arange(groups), np.diff(ec.indptr))))
    by_start, by_end = np.argsort(start, kind="stable"), np.argsort(end, kind="stable")
    positions = np.arange(ec.n_papers)
    return (group[by_start], group[by_end],
            np.searchsorted(start[by_start], positions, side="right"),
            np.searchsorted(end[by_end], positions, side="right"))


def runs_spread(ec, y):
    """``W.T @ y`` of an interval-coded table, summed exactly over its
    runs in int64 limbs and rounded from the top limb down."""
    by_start, by_end, started, ended = runs(ec)
    mass = ec.weight * y
    sign = np.sign(mass)
    total = np.zeros(ec.n_papers)
    for limb, exponent in fixed_point_limbs(np.abs(mass), _LIMB_BITS, _LIMBS):
        limb = (sign * limb).astype(np.int64)
        limb_sum = (np.concatenate(([0], np.cumsum(limb[by_start])))[started]
                    - np.concatenate(([0], np.cumsum(limb[by_end])))[ended])
        total += np.ldexp(limb_sum.astype(np.float64), exponent)
    out = np.empty(ec.n_papers)
    out[ec.order] = total
    return out


def assert_matches_oracle(ec, y):
    """``ec.spread(y)`` equals :func:`runs_spread` bit for bit, values and
    sign bits."""
    got, want = ec.spread(y), runs_spread(ec, y)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert got.tobytes() == want.tobytes()
