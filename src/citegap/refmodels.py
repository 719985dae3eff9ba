"""Draw-based reference models for citation networks.

Each model redraws every observed citation from an eligible set and
yields, in closed form, the probability that paper i cites paper j and
the expected in-citations per paper:

* random draws (RD): uniform over everything the citer could cite,
  preserving only each paper's out-citation count;
* homophilic draws (HD): uniform within the observed target's attribute
  category, additionally preserving attribute-pair citation counts;
* preferential draws (PD): HD further restricted, in publication-date
  order, to papers whose running expected in-citation count equals the
  observed target's, approximately preserving in-citation heterogeneity.

Probabilities are piecewise uniform, so a model's output is a table of
groups instead of a dense N x N matrix: one group per citer (RD) or per
merged citation bundle (HD/PD).  Group g puts the uniform mass
``weight[g]`` on each of its members and represents the observed
citations of ``citing[g]`` listed in its targets.

Eligible sets come from one index per model, the *eligibility index*:
the papers sorted by (category code under the model's attributes, date,
index), one code for RD.  A citer's candidates in a category are the
papers from its ten-year window floor up to its own date, one slice
``[lo, hi)`` of the index found by binary search.  Inside a slice the
only papers the citer may not cite are those whose first and last
authors are both among its own; they are found by binary search too, in
the papers sorted by author pair, and :meth:`CitationNetwork.citable`
confirms each.  So an RD or HD group is stored as an interval of the
index, minus a short list of excluded positions, plus an explicit part:
the target of an HD citation to a later-dated paper, the one case in
which a target lies outside its slice.  An RD or HD table is
O(N + M + exclusions), however large the eligible sets are.

A PD group, narrowed by running counts, and an observed-edge group are
explicit member lists only.  The *base* a PD citation is narrowed from,
its HD set, is read from the index as an HD group is: one slice and its
exclusions, plus the target when that is later-dated.  A category's
counts change only through citations into it, so PD walks the
categories in lockstep: step t takes the t-th citer of every category in
date order, concatenates the slices of its citations, compares their
running counts, masks their exclusions, merges identical narrowed sets
into bundles and adds their mass, in float and exact mode alike.  The
members are sorted once, after the walk.

Each downstream sum is one of two reductions over the table, in plain
numpy, with ``W`` the G x N matrix holding ``weight[g]`` at (g, j) for
every member j: ``W.T @ y`` (expected in-citations, the PageRank
operator) with :meth:`ExpectedCitations.spread`, and ``W`` times a
category indicator (gender expectations, pairwise counts) with
:meth:`ExpectedCitations.category_sums`.  Each reads the intervals
without their exclusions, and the explicit parts; on a table with
intervals ``spread`` sums exactly, by a difference array over the index,
so papers held by the same groups get the same expected count.  The
package needs numpy only; the tests check the tables against the
explicit member lists RD and HD once stored, PD against a per-citer
mask path, and the reductions against ``scipy.sparse``.

This module also owns the stored table: :func:`write_groups` writes it
and :func:`read_groups` reads it back, checked against its network.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import (
    ARCHIVE_ERRORS,
    ATTRIBUTE_ORDER,
    GENDER_CODE,
    CitationNetwork,
    canonical_attributes,
    open_arrays,
    write_arrays,
)

#: default tolerance when comparing running expected counts in PD
DEFAULT_COUNT_TOL = 1e-9

#: the most explicit member entries and exclusions, and the most group
#: rows x categories, that one block of a reduction over a group table
#: holds; bounds the temporaries of every blocked reduction whatever the
#: table's size
BLOCK_ENTRIES = 1 << 16

_INT32_MAX = np.iinfo(np.int32).max

#: the arrays :func:`write_groups` stores, one ``<name>.npy`` entry each
TABLE_ARRAYS = ("citing", "lo", "hi", "excluded_ptr", "excluded", "indptr", "indices",
                "target_ptr", "targets")
#: the arrays of the interval parts, left out of a table that has none
INTERVAL_ARRAYS = ("lo", "hi", "excluded_ptr", "excluded")
#: the format number of the interval-coded tables :func:`write_groups` stores
GROUPS_FORMAT = 2
#: the sizes of a table, as :attr:`ExpectedCitations.table_counts` names them
TABLE_COUNTS = ("groups", "member_entries", "intervals", "exclusions", "stored_entries")

#: the fixed point of the exact sums of ``spread``: five limbs of 30 bits,
#: 150 bits below the largest mass; a float sum of fewer than 2^23 of
#: them stays below 2^53, so it is exact
_LIMB_BITS, _LIMBS = 30, 5


class ModelError(ValueError):
    """A reference model cannot be computed on this network."""


@dataclass(frozen=True)
class ContributionGroup:
    """One row of a model's group table, as a read-only view.

    ``weight`` is the expected number of citations each member receives
    from this group; ``weight * len(members)`` equals ``len(targets)``,
    the number of observed citations the group represents.
    """

    citing: int
    members: np.ndarray
    targets: tuple[int, ...]
    weight: float


@dataclass(frozen=True, eq=False)
class ExpectedCitations:
    """A reference model's output on one network: its group table.

    ``order`` (N,) is the model's eligibility index
    (:func:`eligibility_index`).  ``citing`` (G,) is ascending and
    ``weight`` (G,) is each group's mass per member.  The members of
    group g are

    * its interval part: the papers ``order[lo[g]:hi[g]]`` (none when
      ``lo[g] == hi[g]``), except those at the ascending positions
      ``excluded[excluded_ptr[g]:excluded_ptr[g + 1]]``;
    * its explicit part: ``indices[indptr[g]:indptr[g + 1]]``, ascending
      and outside the interval.

    Its observed targets are ``targets[target_ptr[g]:target_ptr[g + 1]]``.
    Citations from one citer with identical member sets share a group.
    Build it through :func:`compute_model` or one of the model functions,
    or from stored arrays through :func:`group_table`.  ``c_bar``
    defaults to the column sums of ``W``.
    """

    model: str
    attributes: tuple[str, ...]
    order: np.ndarray
    citing: np.ndarray
    weight: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    excluded_ptr: np.ndarray
    excluded: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    target_ptr: np.ndarray
    targets: np.ndarray
    c_bar: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.c_bar is None:
            object.__setattr__(self, "c_bar", self.spread(np.ones(len(self.citing))))
        for name in ("order", "citing", "weight", "lo", "hi", "excluded_ptr", "excluded",
                     "indptr", "indices", "target_ptr", "targets", "c_bar"):
            getattr(self, name).setflags(write=False)

    @property
    def n_papers(self) -> int:
        return self.order.size

    @property
    def n_citations(self) -> int:
        return self.targets.size

    @cached_property
    def sizes(self) -> np.ndarray:
        """Member count of each group."""
        return _sizes(self.lo, self.hi, self.excluded_ptr, self.indptr)

    @cached_property
    def intervals(self) -> int:
        """Number of groups with an interval part."""
        return int(np.count_nonzero(self.hi > self.lo))

    @property
    def member_entries(self) -> int:
        """Sum of the group sizes: the entries of the explicit member lists
        the table stands for."""
        return int(self.sizes.sum())

    @property
    def stored_entries(self) -> int:
        """Integers the table stores for its members: two bounds per
        interval, the exclusions and the explicit members."""
        return 2 * self.intervals + self.excluded.size + self.indices.size

    @property
    def table_counts(self) -> dict[str, int]:
        """The table's sizes, by their :data:`TABLE_COUNTS` names."""
        return dict(zip(TABLE_COUNTS, (len(self.citing), self.member_entries, self.intervals,
                                       self.excluded.size, self.stored_entries)))

    def spread(self, y: np.ndarray) -> np.ndarray:
        """``W.T @ y``: per paper, the sum of ``weight[g] * y[g]`` over the
        groups g it is a member of.  A table without intervals adds in
        table order; one with intervals sums exactly (:meth:`_exact_spread`),
        in O(G + E + M' + N) per call with nothing cached per table.  So for
        ``y >= 0`` a paper no group holds gets exactly 0, none gets a
        negative sum, and papers held by the same groups get equal sums."""
        mass = self.weight * y
        if self.intervals:
            return self._exact_spread(mass)
        return _spread(self.indptr, self.indices, mass, self.n_papers)

    def _exact_spread(self, mass: np.ndarray) -> np.ndarray:
        """Per paper, the sum of ``mass[g]`` over the groups g that hold
        it, summed exactly in fixed point and then rounded.  Each mass is
        cut into ``_LIMBS`` integer limbs of ``_LIMB_BITS`` bits at one
        scale by :func:`fixed_point_limbs` (bits below 2^-150 of the
        largest mass are dropped).  A position's sum of one limb is the
        prefix sum over the positions of the limbs of the intervals
        starting less those ending there, less the limbs of the groups
        excluding it, plus those of the groups holding it explicitly; every
        partial sum is an integer below 2^53, so exact, while fewer than
        2^23 groups start, end, exclude or explicitly hold a member at one
        position, or cover it.  The limb sums are added into a float from
        the top limb down, so the result depends on the groups holding a
        paper, not on their order, and is within four roundings of the
        true sum.  O(G + E + M' + N) per call, for E exclusions and M'
        explicit members."""
        n = self.n_papers
        n_excluded, n_explicit = np.diff(self.excluded_ptr), np.diff(self.indptr)
        explicit = self._position[self.indices]
        sign = np.sign(mass)
        total = np.zeros(n)
        for limb, exponent in fixed_point_limbs(np.abs(mass), _LIMB_BITS, _LIMBS):
            limb = sign * limb
            limb_sum = np.cumsum(np.bincount(self.lo, limb, minlength=n + 1)
                                 - np.bincount(self.hi, limb, minlength=n + 1))[:n]
            limb_sum -= np.bincount(self.excluded, np.repeat(limb, n_excluded), minlength=n)
            limb_sum += np.bincount(explicit, np.repeat(limb, n_explicit), minlength=n)
            total += np.ldexp(limb_sum, exponent)
        out = np.empty(n)
        out[self.order] = total
        return out

    def category_sums(self, codes: np.ndarray, size: int, *, weighted: bool = False
                      ) -> Iterator[tuple[int, int, np.ndarray]]:
        """``W @ onehot(codes)`` in blocks of consecutive groups: yields
        ``(a, b, sums)`` where ``sums[g - a, c]`` is the number of members
        of group g with code c (int64), or with ``weighted`` their mass
        (float64): ``weight[g]`` added once per explicit member in member
        order, plus ``weight[g]`` times the interval members' count.  An
        interval of at most ``size`` papers is counted paper by paper, a
        longer one by two binary searches per code in the positions sorted
        by (code, position); its exclusions' codes are then taken off."""
        n = self.n_papers
        n_explicit, entries = np.diff(self.indptr), self.indptr
        if self.intervals:
            n_excluded = np.diff(self.excluded_ptr)
            entries = self.indptr + self.excluded_ptr
            by_code = np.sort(codes[self.order] * (n + 1) + np.arange(n))
            code_start = np.arange(size) * (n + 1)
        for a, b in _blocks(entries, size):
            rows, cells = np.arange(b - a) * size, (b - a) * size
            key = np.repeat(rows, n_explicit[a:b])
            key += codes[self.indices[self.indptr[a]:self.indptr[b]]]
            mass = np.repeat(self.weight[a:b], n_explicit[a:b]) if weighted else None
            sums = np.bincount(key, mass, minlength=cells)
            if self.intervals:
                lo, hi = self.lo[a:b], self.hi[a:b]
                listed = np.where(hi - lo <= size, hi - lo, 0)
                first = np.cumsum(listed) - listed
                positions = np.arange(listed.sum()) + np.repeat(lo - first, listed)
                counts = np.bincount(np.repeat(rows, listed) + codes[self.order[positions]],
                                     minlength=cells)
                excluded = self.excluded[self.excluded_ptr[a]:self.excluded_ptr[b]]
                counts -= np.bincount(np.repeat(rows, n_excluded[a:b])
                                      + codes[self.order[excluded]], minlength=cells)
                counts = counts.reshape(b - a, size)
                long = np.flatnonzero(hi - lo > size)
                counts[long] += (np.searchsorted(by_code, code_start + hi[long, None])
                                 - np.searchsorted(by_code, code_start + lo[long, None]))
                counts = counts.ravel()
                if weighted:
                    counts = np.repeat(self.weight[a:b], size) * counts
                sums = sums + counts
            yield a, b, sums.reshape(b - a, size)

    @cached_property
    def _position(self) -> np.ndarray:
        """Per paper, its position in ``order``."""
        position = np.empty(self.n_papers, dtype=np.int64)
        position[self.order] = np.arange(self.n_papers)
        return position

    def holds(self, g: int, j: int) -> bool:
        """Whether paper j is a member of group g."""
        p = self._position[j]
        if self.lo[g] <= p < self.hi[g]:
            return p not in self.excluded[self.excluded_ptr[g]:self.excluded_ptr[g + 1]]
        return j in self.indices[self.indptr[g]:self.indptr[g + 1]]

    def members(self, g: int) -> np.ndarray:
        """The ascending members of group g."""
        members = self.indices[self.indptr[g]:self.indptr[g + 1]]
        lo, hi = self.lo[g], self.hi[g]
        if lo < hi:
            excluded = self.excluded[self.excluded_ptr[g]:self.excluded_ptr[g + 1]]
            interval = np.delete(self.order[lo:hi], excluded - lo)
            members = np.sort(np.concatenate((interval, members)))
        return members

    @cached_property
    def groups(self) -> tuple[ContributionGroup, ...]:
        """The table as one :class:`ContributionGroup` per row, for tests
        and diagnostics; reductions use the arrays."""
        return tuple(
            ContributionGroup(int(self.citing[g]), self.members(g),
                              tuple(self.targets[a:b].tolist()), float(self.weight[g]))
            for g, (a, b) in enumerate(zip(self.target_ptr[:-1], self.target_ptr[1:])))

    def check_network(self, net: CitationNetwork) -> None:
        if self.n_papers != net.n or self.n_citations != net.m:
            raise ModelError(
                f"expectations were computed on a {self.n_papers}-paper/"
                f"{self.n_citations}-citation network, got {net.n}/{net.m}"
            )


def _blocks(indptr: np.ndarray, width: int = 1) -> Iterator[tuple[int, int]]:
    """Consecutive group ranges [a, b) covering a table, each of at least
    one group and otherwise of at most ``BLOCK_ENTRIES`` entries of
    ``indptr`` and ``BLOCK_ENTRIES // width`` groups: the blocks of every
    blocked pass over a table, ``BLOCK_ENTRIES`` read at each call."""
    n_groups, total = len(indptr) - 1, int(indptr[-1])
    rows = max(1, BLOCK_ENTRIES // max(width, 1))
    a = 0
    while a < n_groups:
        last = min(int(indptr[a]) + BLOCK_ENTRIES, total)
        b = int(np.searchsorted(indptr, last, side="right")) - 1
        b = max(a + 1, min(b, a + rows))
        yield a, b
        a = b


def fixed_point_limbs(values: np.ndarray, bits: int, count: int
                      ) -> Iterator[tuple[np.ndarray, int]]:
    """Cut the nonnegative ``values`` into ``count`` limbs of ``bits``
    bits at one scale, the largest value filling the top limb: yields
    each limb, integer-valued float64 below ``2**bits``, with its
    exponent e, top limb first.  ``sum(limb * 2**e)`` is each value less
    its bits below the last limb's ``2**e``; every step is exact."""
    rest = np.array(values, dtype=np.float64)
    top = int(np.frexp(rest.max(initial=0.0))[1])
    for exponent in range(top - bits, top - bits * (count + 1), -bits):
        limb = np.floor(np.ldexp(rest, -exponent))
        rest -= np.ldexp(limb, exponent)
        yield limb, exponent


def _spread(indptr: np.ndarray, indices: np.ndarray, mass: np.ndarray,
            n_papers: int) -> np.ndarray:
    """Per paper, the sum of ``mass[g]`` over the groups g it is an
    explicit member of, added in table order (as ``np.bincount(indices,
    np.repeat(mass, sizes))`` adds, without its table-sized temporaries)."""
    out = np.zeros(n_papers)
    sizes = np.diff(indptr)
    for a, b in _blocks(indptr):
        np.add.at(out, indices[indptr[a]:indptr[b]], np.repeat(mass[a:b], sizes[a:b]))
    return out


def _index_dtype(n_groups: int, n_papers: int, n_entries: int) -> type:
    """Dtype of a table's position and member arrays: int32 when every
    value fits, which halves them, else int64."""
    return np.int32 if max(n_groups, n_papers, n_entries) <= _INT32_MAX else np.int64


def _sizes(lo: np.ndarray, hi: np.ndarray, excluded_ptr: np.ndarray,
           indptr: np.ndarray) -> np.ndarray:
    """Member count of each group: its interval without its exclusions,
    plus its explicit members."""
    return (hi - lo).astype(np.int64) - np.diff(excluded_ptr) + np.diff(indptr)


def group_table(model: str, attributes: tuple[str, ...], order: np.ndarray,
                citing: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                excluded_ptr: np.ndarray, excluded: np.ndarray,
                indptr: np.ndarray, indices: np.ndarray,
                target_ptr: np.ndarray, targets: np.ndarray,
                c_bar: np.ndarray | None = None) -> ExpectedCitations:
    """Derive ``weight`` from the stored arrays of a group table over the
    eligibility index ``order``.  The position and member arrays are kept
    in :func:`_index_dtype`."""
    sizes = _sizes(lo, hi, excluded_ptr, indptr)
    dtype = _index_dtype(len(citing), order.size, max(indices.size, excluded.size))
    lo, hi, excluded_ptr, excluded, indptr, indices = (
        a.astype(dtype, copy=False)
        for a in (lo, hi, excluded_ptr, excluded, indptr, indices))
    if c_bar is not None:
        c_bar = np.asarray(c_bar, np.float64)
    return ExpectedCitations(model, attributes, order, citing, np.diff(target_ptr) / sizes,
                             lo, hi, excluded_ptr, excluded, indptr, indices, target_ptr,
                             targets, c_bar)


def write_groups(ec: ExpectedCitations, path: str | os.PathLike) -> None:
    """Store the table's :data:`TABLE_ARRAYS` at ``path`` as numpy's
    uncompressed array archive, each zip entry with the same fixed date,
    so the bytes depend on the arrays alone; without intervals the
    :data:`INTERVAL_ARRAYS`, all zeros, are left out."""
    write_arrays(path, {name: getattr(ec, name) for name in TABLE_ARRAYS
                        if ec.intervals or name not in INTERVAL_ARRAYS})


def read_groups(path: str | os.PathLike, net: CitationNetwork, model: str,
                attributes: Sequence[str]) -> ExpectedCitations:
    """The table of ``model`` over ``attributes`` that :func:`write_groups`
    stored at ``path``, checked to form a table over the papers of ``net``
    and its eligibility index, and whose (citer, target) pairs are the
    edges of ``net``; raises :class:`ModelError`, naming ``path``, if it
    does not."""
    order, categories = eligibility_index(net, attributes)
    try:
        with open_arrays(path) as npz:
            intervals = not set(INTERVAL_ARRAYS).isdisjoint(npz.files)
            stored = {name: npz[name] for name in TABLE_ARRAYS
                      if intervals or name not in INTERVAL_ARRAYS}
    except ARCHIVE_ERRORS as exc:
        raise ModelError(f"{path} is not a readable group table: {exc}") from exc
    # a 0-d citing has a size too, and fails the 1-D check below
    groups = stored["citing"].size
    if not intervals:
        zeros = np.zeros(groups + 1, np.int64)
        stored.update(lo=zeros[1:], hi=zeros[1:], excluded_ptr=zeros, excluded=zeros[:0])
    arrays = [stored[name] for name in TABLE_ARRAYS]
    citing, lo, hi, excluded_ptr, excluded, indptr, indices, target_ptr, targets = arrays

    def check(ok: bool, what: str) -> None:
        if not ok:
            raise ModelError(f"{path}: {what}")

    check(all(a.ndim == 1 and a.dtype.kind == "i" for a in arrays),
          f"{', '.join(TABLE_ARRAYS)} must be 1-D signed integer arrays")
    check(len(lo) == len(hi) == groups
          and len(excluded_ptr) == len(indptr) == len(target_ptr) == groups + 1,
          "lo and hi need one entry per group, excluded_ptr, indptr and target_ptr "
          "one more")
    # comparisons rather than differences, which could overflow
    for name, ptr, data, what in (("excluded_ptr", excluded_ptr, excluded, "exclusions"),
                                  ("indptr", indptr, indices, "members"),
                                  ("target_ptr", target_ptr, targets, "targets")):
        check(ptr[0] == 0 and ptr[-1] == data.size and (ptr[1:] >= ptr[:-1]).all(),
              f"{name} must start at 0, never decrease and end at the number "
              f"of {what}")
    check((target_ptr[1:] > target_ptr[:-1]).all(), "a group has no targets")
    n = net.n
    check(((lo >= 0) & (lo <= hi) & (hi <= n)).all(),
          f"intervals must satisfy 0 <= lo <= hi <= {n}")
    check((_sizes(lo, hi, excluded_ptr, indptr) > 0).all(), "a group has no members")
    spans = hi > lo
    check((categories[lo[spans]] == categories[hi[spans] - 1]).all(),
          "an interval spans more than one category of the eligibility index")
    # values below n rise within each group iff ``owner * n + value`` rises
    owner = np.repeat(np.arange(groups), np.diff(excluded_ptr))
    check(((excluded >= lo[owner]) & (excluded < hi[owner])).all(),
          "every exclusion must lie inside its group's interval")
    check((np.diff(owner * n + excluded) > 0).all(),
          "exclusions must be strictly increasing within each group")
    owner = np.repeat(np.arange(groups), np.diff(indptr))
    check(indices.size == 0 or (indices.min() >= 0 and indices.max() < n
                                and (np.diff(owner * n + indices) > 0).all()),
          f"members must be paper indices below {n}, strictly increasing "
          "within each group")
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    check(not ((position[indices] >= lo[owner]) & (position[indices] < hi[owner])).any(),
          "explicit members must lie outside their group's interval")
    check((citing[1:] >= citing[:-1]).all(), "citing must be ascending")
    citers = np.repeat(citing, np.diff(target_ptr))
    sort = np.lexsort((targets, citers))
    check(np.array_equal(citers[sort], net.edges[:, 0])
          and np.array_equal(targets[sort], net.edges[:, 1]),
          "its (citer, target) pairs are not the archive's citations")
    return group_table(model, tuple(attributes), order, *arrays)


def _key_codes(net: CitationNetwork, attributes: tuple[str, ...]) -> np.ndarray:
    """Integer code per paper for its category key under ``attributes``:
    two papers share a code exactly when they agree on every attribute.

    An empty attribute set gives every paper the same code, so HD
    degenerates toward RD grouping.  The codes number the keys in sorted
    order of their tuples of value codes.  The key is built one attribute
    at a time as a mixed-radix integer, the code so far times the
    attribute's number of values plus its value code, which sorts as the
    tuples do; it is ranked to a code below N after each attribute.
    """
    key = np.zeros(net.n, dtype=np.int64)
    for attribute in attributes:
        codes, labels = net.attribute_codes(attribute)
        key = np.unique(key * len(labels) + codes, return_inverse=True)[1].reshape(-1)
    return key


def _index(net: CitationNetwork, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eligibility index over the category ``codes``: the paper
    indices sorted by (code, date, index); and per paper its date as a
    day number counted from the earliest date."""
    if net.n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    day = (net.dates - net.dates.min()).astype(np.int64)
    return np.lexsort((day, codes)), day


def eligibility_index(net: CitationNetwork, attributes: Iterable[str] = ()
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The eligibility index of a model over ``attributes`` (none for RD):
    the paper indices sorted by (category code, date, index), and the
    category code of each in that order.  The codes number the distinct
    attribute combinations in sorted order of their value codes."""
    codes = _key_codes(net, canonical_attributes(attributes))
    order = _index(net, codes)[0]
    return order, codes[order]


def _slices(net: CitationNetwork, codes: np.ndarray, citers: np.ndarray,
            cats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The eligibility index ``order`` of ``codes`` and, for each (citer,
    category) pair, the slice ``[lo, hi)`` of it holding that category's
    papers from the citer's window floor up to its date: two
    ``searchsorted`` calls find every slice at once, with floors before
    the earliest date clamped to it."""
    order, day = _index(net, codes)
    if len(citers) == 0:
        return order, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    span = int(day.max()) + 1
    keys = (codes * span + day)[order]
    floor = np.maximum((net.window_floors[citers] - net.dates.min()).astype(np.int64), 0)
    lo = np.searchsorted(keys, cats * span + floor)
    hi = np.searchsorted(keys, cats * span + day[citers], side="right")
    return order, lo, hi


def _exclusions(net: CitationNetwork, order: np.ndarray, citers: np.ndarray,
                lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each slice ``[lo[k], hi[k])`` of the eligibility index
    ``order``, the ascending positions of the papers ``citers[k]`` may
    not cite, as a pointer array and the positions.

    A slice only holds papers in the citer's window, so only the author
    rule of :meth:`CitationNetwork.citable` can reject one, and only a
    paper whose (first, last) author pair is one of the four pairs the
    citer's own first and last author form.  Those papers are found by
    binary search in the papers sorted by (author pair, position), and
    ``citable`` confirms each: O(log N) per slice and pair, plus the
    papers found.
    """
    if len(citers) == 0:
        return np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    n = net.n
    firsts, lasts = net.author_codes
    n_authors = int(max(firsts.max(), lasts.max())) + 1
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    pairs, pair_of = np.unique(firsts * n_authors + lasts, return_inverse=True)
    by_pair = np.sort(pair_of.reshape(-1) * n + position)
    fi, li = firsts[citers], lasts[citers]
    owners, found = [], []
    for role, (a, b) in enumerate(((fi, fi), (fi, li), (li, fi), (li, li))):
        # a citer whose first and last author agree forms a single pair
        ask = np.arange(len(citers)) if role == 0 else np.flatnonzero(fi != li)
        wanted = a[ask] * n_authors + b[ask]
        pair = np.minimum(np.searchsorted(pairs, wanted), pairs.size - 1)
        hit = pairs[pair] == wanted
        ask, pair = ask[hit], pair[hit] * n
        start = np.searchsorted(by_pair, pair + lo[ask])
        count = np.searchsorted(by_pair, pair + hi[ask]) - start
        ptr = np.concatenate(([0], np.cumsum(count)))
        owners.append(np.repeat(ask, count))
        found.append(by_pair[np.arange(ptr[-1]) + np.repeat(start - ptr[:-1], count)] % n)
    # ascending positions within each slice
    key = np.sort(np.concatenate(owners) * n + np.concatenate(found))
    owner, found = np.divmod(key, n)
    keep = ~net.citable(citers[owner], order[found])
    counts = np.bincount(owner[keep], minlength=len(citers))
    return np.concatenate(([0], np.cumsum(counts))), found[keep]


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted, as :func:`np.unique` gives them, by a
    sort and a neighbour compare: numpy 2.x runs a bare ``np.unique``
    through a hash table, many times slower on int64 keys."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _eligible(net: CitationNetwork, codes: np.ndarray, i: int, cat: int) -> np.ndarray:
    """Sorted indices of the papers of category ``cat`` under ``codes``
    that paper i may cite and that are not dated after it: its slice of
    the eligibility index without its exclusions."""
    citer = np.array([i])
    order, lo, hi = _slices(net, codes, citer, np.array([cat]))
    excluded = _exclusions(net, order, citer, lo, hi)[1]
    return np.sort(np.delete(order[lo[0]:hi[0]], excluded - lo[0]))


def eligible_set_rd(net: CitationNetwork, i: int) -> np.ndarray:
    """Sorted indices of papers that paper i could cite under RD."""
    return _eligible(net, np.zeros(net.n, dtype=np.int64), i, 0)


def eligible_set_hd(
    net: CitationNetwork,
    i: int,
    i_prime: int,
    attributes: Iterable[str] = ATTRIBUTE_ORDER,
) -> np.ndarray:
    """Sorted indices of the RD-eligible papers sharing the observed
    target's category, always including the target itself."""
    codes = _key_codes(net, canonical_attributes(attributes))
    return np.union1d(_eligible(net, codes, i, codes[i_prime]), [i_prime])


def random_draws(net: CitationNetwork) -> ExpectedCitations:
    """Expected citations when every citation is redrawn uniformly from
    the citer's eligible set.  One group per citing paper, its interval
    the citer's slice of the one-category index; raises
    :class:`ModelError` for a citer with an empty eligible set."""
    citers = np.flatnonzero(net.out_degree)
    codes = np.zeros(net.n, dtype=np.int64)
    order, lo, hi = _slices(net, codes, citers, codes[citers])
    excluded_ptr, excluded = _exclusions(net, order, citers, lo, hi)
    empty = np.flatnonzero(hi - lo == np.diff(excluded_ptr))
    if empty.size:
        i = citers[empty[0]]
        raise ModelError(
            f"paper {str(net.ids[i])!r} makes {net.out_degree[i]} citation(s) "
            "but its eligible set is empty"
        )
    no_explicit = np.zeros(len(citers) + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return group_table("RD", (), order, citers, lo, hi, excluded_ptr, excluded,
                       *no_explicit, np.concatenate(([0], np.cumsum(net.out_degree[citers]))),
                       net.edges[:, 1])


def homophilic_draws(
    net: CitationNetwork, attributes: Iterable[str] = ATTRIBUTE_ORDER
) -> ExpectedCitations:
    """Expected citations when each observed citation is redrawn
    uniformly within the target's category inside the eligible set.

    Citations from the same paper into the same member set merge into a
    single group with summed multiplicity, listed in the order of its
    first citation.  A group's interval is the citer's slice of the
    target category; a citation to a later-dated paper has that paper as
    the explicit member of a group of its own.
    """
    attrs = canonical_attributes(attributes)
    codes = _key_codes(net, attrs)
    citing, cited = net.edges[:, 0], net.edges[:, 1]
    later = net.dates[cited] > net.dates[citing]
    # the member set is fixed by the citer and the target's category, or
    # by the target itself when it is later-dated
    n_codes = int(codes.max(initial=0)) + 1
    key = citing * (n_codes + net.n) + np.where(later, n_codes + cited, codes[cited])
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    # groups in order of their first citation (``lead``): by citer, then
    # as the citer lists its targets
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    group = rank[inverse.reshape(-1)]
    lead = np.sort(first)
    order, lo, hi = _slices(net, codes, citing[lead], codes[cited[lead]])
    excluded_ptr, excluded = _exclusions(net, order, citing[lead], lo, hi)
    forced = later[lead]
    n_targets = np.bincount(group, minlength=lead.size)
    return group_table("HD", attrs, order, citing[lead], lo, hi, excluded_ptr, excluded,
                       np.concatenate(([0], np.cumsum(forced))), cited[lead][forced],
                       np.concatenate(([0], np.cumsum(n_targets))),
                       cited[np.argsort(group, kind="stable")])


def date_order(net: CitationNetwork) -> np.ndarray:
    """Paper indices by ascending publication date, ties broken by id."""
    return np.lexsort((net.ids, net.dates))


def preferential_draws(
    net: CitationNetwork,
    attributes: Iterable[str] = ATTRIBUTE_ORDER,
    *,
    count_tol: float = DEFAULT_COUNT_TOL,
    exact: bool = False,
) -> ExpectedCitations:
    """Expected citations under the sequential preferential-draws model.

    Papers are processed in ascending publication-date order (ties by
    id).  For each observed citation the HD member set is restricted to
    papers whose running expected in-citation count equals the observed
    target's; all citations of one paper read the state frozen before
    that paper, then their contributions are applied together.

    Count equality is ``|a - b| <= count_tol``, a number >= 0, in float
    mode.  With ``exact=True`` the running counts are exact rationals
    compared for true equality: no float drift, at the cost of speed.

    A citation reads and adds to the counts of its target's category
    only, and two categories never share a paper, so each category is a
    sequence of its own.  The walk runs them in lockstep: step t handles
    the t-th citer of every category, in date order, and every paper
    receives the same additions in the same order as in a walk over the
    citers one at a time.
    """
    if not count_tol >= 0:
        raise ValueError(f"the count tolerance must be a number >= 0, got {count_tol}")
    attrs = canonical_attributes(attributes)
    codes = _key_codes(net, attrs)
    citing, cited = net.edges[:, 0], net.edges[:, 1]
    later = net.dates[cited] > net.dates[citing]
    when = np.empty(net.n, dtype=np.int64)
    when[date_order(net)] = np.arange(net.n)
    # one unit per distinct base, by citer in date order: a citation's base
    # is fixed by its citer and its target's category, or also by the
    # target itself when that is dated after the citer
    n_codes = int(codes.max(initial=0)) + 1
    _, lead, unit = np.unique(when[citing] * (n_codes + net.n)
                              + np.where(later, n_codes + cited, codes[cited]),
                              return_index=True, return_inverse=True)
    unit = unit.reshape(-1)
    category = codes[cited[lead]]
    order, lo, hi = _slices(net, codes, citing[lead], category)
    excluded_ptr, excluded = _exclusions(net, order, citing[lead], lo, hi)
    position = np.empty(net.n, dtype=np.int64)
    position[order] = np.arange(net.n)

    # a unit's step is the rank of its citer among its category's citers
    pair, pair_of = np.unique(category * net.n + when[citing[lead]], return_inverse=True)
    pair_cat = pair // net.n
    step = (np.arange(pair.size) - np.searchsorted(pair_cat, pair_cat))[pair_of.reshape(-1)]

    # the citations by (step, edge), and what each step reads, set up once:
    # per citation its base's length and its offset in the step's
    # concatenated bases, whence the shift from offsets to index positions;
    # per later-dated target the offset and position it is written to; per
    # exclusion its offset; and the citations of units that hold several
    by_step = np.argsort(step[unit], kind="stable")
    u, later_e = unit[by_step], later[by_step]
    step_ptr = np.searchsorted(step[u], np.arange(int(step.max(initial=-1)) + 2))
    length = hi[u] - lo[u] + later_e
    start = np.cumsum(length) - length
    start -= np.repeat(start[step_ptr[:-1]], np.diff(step_ptr))
    shift = lo[u] - start
    target = position[cited[by_step]]
    extra = np.flatnonzero(later_e)
    extra_at, extra_to = (start + length - 1)[extra], target[extra]
    extra_ptr = np.searchsorted(extra, step_ptr)
    n_excluded = np.diff(excluded_ptr)[u]
    owned = np.arange(n_excluded.sum())
    owned += np.repeat(excluded_ptr[u] - (np.cumsum(n_excluded) - n_excluded), n_excluded)
    excluded_at = excluded[owned] - np.repeat(shift, n_excluded)
    excluded_at_ptr = np.concatenate(([0], np.cumsum(n_excluded)))[step_ptr]
    shared = np.flatnonzero(np.bincount(unit)[u] > 1)
    shared_ptr = np.searchsorted(shared, step_ptr)
    shared = shared - np.repeat(step_ptr[:-1], np.diff(step_ptr))[shared]

    # the running counts by position in ``order``
    if exact:
        # imported here: every other path runs in float
        from fractions import Fraction
        running, one = np.full(net.n, Fraction(0), dtype=object), Fraction(1)
    else:
        running, one = np.zeros(net.n), 1.0
    scratch = np.arange((start + length).max(initial=0))
    # per bundle, in step order: its members' positions, its size and its
    # first citation; per citation the first citation of its bundle
    index_dtype = _index_dtype(0, net.n, 0)
    members, sizes, firsts = [np.zeros(0, index_dtype)], [np.zeros(0, np.int64)], [by_step[:0]]
    bundle_of = np.arange(net.m)
    bounds = [p.tolist() for p in (step_ptr, extra_ptr, excluded_at_ptr, shared_ptr)]
    for a, b, e0, e1, x0, x1, s0, s1 in zip(*(q for p in bounds for q in (p[:-1], p[1:]))):
        n = length[a:b]
        pos = np.repeat(shift[a:b], n)
        pos += scratch[:pos.size]
        if e0 < e1:
            pos[extra_at[e0:e1]] = extra_to[e0:e1]
        # every citation is narrowed against the state frozen before its
        # citer; a target always survives, as its count equals itself
        values, count = running[pos], running[target[a:b]].repeat(n)
        if exact:
            keep = values == count
        else:
            values -= count
            keep = np.abs(values, out=values) <= count_tol
        if x0 < x1:
            # the author rule excludes papers of the slices only
            keep[excluded_at[x0:x1]] = False
        kept = np.add.reduceat(keep, start[a:b])
        m, edges, n_t = pos[keep], by_step[a:b], 1
        if s0 < s1:
            # citations of one unit with identical member sets merge into one
            # bundle, in the place of the first; the sets of two units differ
            # in a category or a later-dated target
            end, kept_list = kept.cumsum().tolist(), kept.tolist()
            bundle, seen = np.arange(b - a), {}
            for c in shared[s0:s1].tolist():
                bundle[c] = seen.setdefault(m[end[c] - kept_list[c]:end[c]].tobytes(), c)
            if len(seen) < s1 - s0:
                lead_here = bundle == np.arange(b - a)
                bundle_of[edges] = edges[bundle]
                n_t = np.bincount(bundle, minlength=b - a)[lead_here]
                m, kept, edges = m[lead_here.repeat(kept)], kept[lead_here], edges[lead_here]
        mass = one * n_t / kept
        np.add.at(running, m, mass.repeat(kept))
        members.append(m.astype(index_dtype))
        sizes.append(kept)
        firsts.append(edges)

    # the bundles by first citation: by citer, then by first target; each
    # one's members ascending, a block of bundles at a time
    sizes, firsts, members = map(np.concatenate, (sizes, firsts, members))
    rows = np.argsort(firsts)
    indptr = np.concatenate(([0], np.cumsum(sizes[rows])))
    source = (np.cumsum(sizes) - sizes)[rows] - indptr[:-1]
    sizes = sizes[rows]
    indices = np.empty(indptr[-1], dtype=index_dtype)
    for a, b in _blocks(indptr):
        row = np.repeat(np.arange(b - a), sizes[a:b])
        block = np.arange(indptr[a], indptr[b])
        offset = row * net.n
        indices[indptr[a]:indptr[b]] = np.sort(order[members[block + source[a:b][row]]]
                                               + offset) - offset
    firsts = firsts[rows]
    zeros = np.zeros(firsts.size + 1, dtype=np.int64)
    return group_table("PD", attrs, order, citing[firsts], zeros[1:], zeros[1:], zeros,
                       zeros[:0], indptr, indices,
                       np.concatenate(([0], np.cumsum(np.bincount(bundle_of)[firsts]))),
                       cited[np.argsort(bundle_of, kind="stable")],
                       running[position].astype(np.float64))


def compute_model(
    net: CitationNetwork,
    model: str,
    attributes: Iterable[str] = ATTRIBUTE_ORDER,
    *,
    count_tol: float = DEFAULT_COUNT_TOL,
    exact: bool = False,
) -> ExpectedCitations:
    """Dispatch on the model name (``RD``, ``HD``, or ``PD``)."""
    name = model.upper()
    if name == "RD":
        return random_draws(net)
    if name == "HD":
        return homophilic_draws(net, attributes)
    if name == "PD":
        return preferential_draws(net, attributes, count_tol=count_tol, exact=exact)
    raise ValueError(f"unknown model {model!r}")


def observed_as_expectations(net: CitationNetwork) -> ExpectedCitations:
    """Degenerate expectations putting unit mass on each observed edge.

    Useful as a consistency anchor: reference-model machinery applied to
    these groups must reproduce observed statistics exactly.
    """
    ptr, zeros = np.arange(net.m + 1), np.zeros(net.m + 1, dtype=np.int64)
    return group_table("observed", (), eligibility_index(net)[0], net.edges[:, 0].copy(),
                       zeros[1:], zeros[1:], zeros, zeros[:0], ptr, net.edges[:, 1], ptr,
                       net.edges[:, 1].copy(), net.in_degree.astype(float))


def citation_probability(ec: ExpectedCitations, i: int, j: int) -> float:
    """Probability mass the model puts on a citation from i to j."""
    lo, hi = np.searchsorted(ec.citing, [i, i + 1])
    return float(sum(ec.weight[g] for g in range(lo, hi) if ec.holds(g, j)))


def expected_out(ec: ExpectedCitations) -> np.ndarray:
    """Per-paper total probability mass placed on outgoing citations."""
    return np.bincount(ec.citing, ec.weight * ec.sizes, minlength=ec.n_papers)


# ---------------------------------------------------------------------------
# structural comparison of a model against the observed network


@dataclass(frozen=True)
class SurvivalCurve:
    """P(value >= x) evaluated at each distinct threshold x."""

    thresholds: np.ndarray
    fraction: np.ndarray


@dataclass(frozen=True)
class PairwiseCounts:
    """Citation counts between categories of one attribute."""

    attribute: str
    labels: tuple[str, ...]
    observed: np.ndarray
    expected: np.ndarray


@dataclass(frozen=True)
class StructuralReport:
    """Which structural properties the model preserved."""

    model: str
    out_degree_hist: dict[int, int]
    pairwise: dict[str, PairwiseCounts]
    survival_observed: SurvivalCurve
    survival_expected: SurvivalCurve
    survival_by_gender: dict[str, tuple[SurvivalCurve, SurvivalCurve]]
    ks_in_degree: float


def survival_points(values: Sequence[float] | np.ndarray) -> SurvivalCurve:
    """Empirical survival function of ``values`` (always includes x=0)."""
    vals = np.sort(np.asarray(values, dtype=np.float64))
    thresholds = _distinct(np.concatenate(([0.0], vals)))
    fraction = (len(vals) - np.searchsorted(vals, thresholds, side="left")) / len(vals)
    return SurvivalCurve(thresholds, fraction)


def ks_distance(observed: np.ndarray, expected: np.ndarray) -> float:
    """Two-sample KS statistic between two per-paper value vectors.

    The largest gap between the two empirical CDFs over every sample
    value; a CDF at a value counts all copies of it, so ties step at
    once.  The gap is found exactly in integers, ``|c1*n2 - c2*n1|`` for
    the counts ``c1``/``c2`` at or below each value, and divided by
    ``n1*n2`` once, so the result is the correctly rounded
    ``h / lcm(n1, n2)``.  That equals the statistic of scipy's
    ``ks_2samp`` whenever both sizes are at most 10000; above that scipy
    subtracts two float CDFs and may be one ulp off.  Raises
    ``ValueError`` on an empty sample.
    """
    a = np.sort(np.ravel(observed))
    b = np.sort(np.ravel(expected))
    n1, n2 = a.size, b.size
    if n1 == 0 or n2 == 0:
        raise ValueError("ks_distance needs two non-empty samples")
    values = np.concatenate((a, b))
    c1 = np.searchsorted(a, values, side="right")
    c2 = np.searchsorted(b, values, side="right")
    return int(np.abs(c1 * n2 - c2 * n1).max()) / (n1 * n2)


def structural_report(net: CitationNetwork, ec: ExpectedCitations) -> StructuralReport:
    """Observed-vs-expected bundle: out-degree histogram, per-attribute
    pairwise citation matrices, and in-citation survival functions
    (overall and per gender category)."""
    ec.check_network(net)
    degrees, counts = np.unique(net.out_degree, return_counts=True)
    hist = {int(d): int(c) for d, c in zip(degrees, counts)}

    pairwise: dict[str, PairwiseCounts] = {}
    for attribute in ATTRIBUTE_ORDER:
        codes, labels = net.attribute_codes(attribute)
        size = len(labels)
        observed = np.zeros((size, size))
        np.add.at(observed, (codes[net.edges[:, 0]], codes[net.edges[:, 1]]), 1.0)
        expected = np.zeros((size, size))
        for a, b, mass in ec.category_sums(codes, size, weighted=True):
            # row-major cells, so each cell adds its groups in group order
            cells = (codes[ec.citing[a:b], None] * size + np.arange(size)).ravel()
            np.add.at(expected.reshape(-1), cells, mass.ravel())
        pairwise[attribute] = PairwiseCounts(attribute, labels, observed, expected)

    c_obs = net.in_degree.astype(float)
    by_gender: dict[str, tuple[SurvivalCurve, SurvivalCurve]] = {}
    for category, code in GENDER_CODE.items():
        sel = net.gender_codes == code
        if not sel.any():
            continue
        by_gender[category.value] = (
            survival_points(c_obs[sel]),
            survival_points(ec.c_bar[sel]),
        )
    return StructuralReport(
        model=ec.model,
        out_degree_hist=hist,
        pairwise=pairwise,
        survival_observed=survival_points(c_obs),
        survival_expected=survival_points(ec.c_bar),
        survival_by_gender=by_gender,
        ks_in_degree=ks_distance(c_obs, ec.c_bar),
    )
