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
exclusions, plus the target when that is later-dated.  PD walks the
citers in date order; a citer's step concatenates the slices of its
citations, compares their running counts, masks its exclusions, merges
identical narrowed sets into bundles and adds their mass, in float and
exact mode alike.  The members are sorted once, after the walk.

Each downstream sum is one of two reductions over the table, in plain
numpy, with ``W`` the G x N matrix holding ``weight[g]`` at (g, j) for
every member j: ``W.T @ y`` (expected in-citations, the PageRank
operator) with :meth:`ExpectedCitations.spread`, and ``W`` times a
category indicator (gender expectations, pairwise counts) with
:meth:`ExpectedCitations.category_sums`.  Each reads the intervals
without their exclusions, and the explicit parts; on a table with
intervals ``spread`` sums exactly, so papers held by the same groups get
the same expected count.  The package needs numpy only; the tests check
the tables against the explicit member lists RD and HD once stored, PD
against a per-citer mask path, and the reductions against
``scipy.sparse``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import (
    ATTRIBUTE_ORDER,
    GENDER_CODE,
    CitationNetwork,
    canonical_attributes,
)

#: default tolerance when comparing running expected counts in PD
DEFAULT_COUNT_TOL = 1e-9

#: the most explicit member entries and exclusions, and the most group
#: rows x categories, that one block of a reduction over a group table
#: holds; bounds the temporaries of every blocked reduction whatever the
#: table's size
BLOCK_ENTRIES = 1 << 16

_INT32_MAX = np.iinfo(np.int32).max

#: the fixed point of the exact sums of ``spread``: limbs of 30 bits, so a
#: prefix sum of up to 2^32 of them fits in int64, and five of them, 150
#: bits below the largest mass
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

    def spread(self, y: np.ndarray) -> np.ndarray:
        """``W.T @ y``: per paper, the sum of ``weight[g] * y[g]`` over the
        groups g it is a member of.  A table without intervals adds in
        table order; one with intervals sums exactly (:meth:`_exact_spread`),
        so for ``y >= 0`` a paper no group holds gets exactly 0, none gets
        a negative sum, and papers held by the same groups get equal sums."""
        mass = self.weight * y
        if self.intervals:
            return self._exact_spread(mass)
        return _spread(self.indptr, self.indices, mass, self.n_papers)

    @cached_property
    def _runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The members as runs of consecutive positions in ``order``: each
        interval cut at its exclusions, and each explicit member a run of
        one.  Returns the group of each run in order of its start and in
        order of its end, and per position how many runs start at or
        before it and how many end at or before it."""
        groups, n_excluded = len(self.citing), np.diff(self.excluded_ptr)
        first = np.arange(groups) + self.excluded_ptr[:-1]
        # exclusion x of group g ends run g + x and starts the next one
        cut = np.repeat(np.arange(groups), n_excluded) + np.arange(self.excluded.size)
        start = np.empty(groups + self.excluded.size, dtype=np.int64)
        end = np.empty_like(start)
        start[first] = self.lo
        end[first + n_excluded] = self.hi
        end[cut] = self.excluded
        start[cut + 1] = self.excluded + 1
        group = np.repeat(np.arange(groups), n_excluded + 1)
        keep = start < end
        single = self._position[self.indices]
        start = np.concatenate((start[keep], single))
        end = np.concatenate((end[keep], single + 1))
        group = np.concatenate((group[keep], np.repeat(np.arange(groups),
                                                       np.diff(self.indptr))))
        by_start, by_end = np.argsort(start, kind="stable"), np.argsort(end, kind="stable")
        position = np.arange(self.n_papers)
        return (group[by_start], group[by_end],
                np.searchsorted(start[by_start], position, side="right"),
                np.searchsorted(end[by_end], position, side="right"))

    def _exact_spread(self, mass: np.ndarray) -> np.ndarray:
        """Per paper, the sum of ``mass[g]`` over the groups g that hold
        it, summed exactly in fixed point over :attr:`_runs` and then
        rounded.  Each mass is cut into ``_LIMBS`` integer limbs of
        ``_LIMB_BITS`` bits at one scale by :func:`fixed_point_limbs`
        (bits below 2^-150 of the largest mass are dropped).  A
        position's sum of one limb is the prefix sum of that limb over
        the runs started at or before it less the one over the runs
        ended there: exact in int64, and exact as a float while fewer
        than 2^23 runs hold the paper.  The limb sums are added into a
        float from the top limb down, so the result depends on the
        groups holding a paper, not on their order, and is within four
        roundings of the true sum.
        O(R log R + N) per table and O(G + R + N) per call, for R runs."""
        by_start, by_end, started, ended = self._runs
        sign = np.sign(mass)
        total = np.zeros(self.n_papers)
        for limb, exponent in fixed_point_limbs(np.abs(mass), _LIMB_BITS, _LIMBS):
            limb = (sign * limb).astype(np.int64)
            limb_sum = (np.concatenate(([0], np.cumsum(limb[by_start])))[started]
                        - np.concatenate(([0], np.cumsum(limb[by_end])))[ended])
            total += np.ldexp(limb_sum.astype(np.float64), exponent)
        out = np.empty(self.n_papers)
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


def _key_codes(net: CitationNetwork, attributes: tuple[str, ...]) -> np.ndarray:
    """Integer code per paper for its category key under ``attributes``:
    two papers share a code exactly when they agree on every attribute.

    An empty attribute set gives every paper the same code, so HD
    degenerates toward RD grouping.
    """
    if not attributes:
        return np.zeros(net.n, dtype=np.int64)
    stacked = np.stack([net.attribute_codes(a)[0] for a in attributes], axis=1)
    return np.unique(stacked, axis=0, return_inverse=True)[1].reshape(-1)


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
    """
    if not count_tol >= 0:
        raise ValueError(f"the count tolerance must be a number >= 0, got {count_tol}")
    attrs = canonical_attributes(attributes)
    codes = _key_codes(net, attrs)
    citing, cited = net.edges[:, 0], net.edges[:, 1]
    later = net.dates[cited] > net.dates[citing]
    # one unit per distinct base, by citer in date order: a citation's base
    # is fixed by its citer and its target's category, or also by the
    # target itself when that is dated after the citer
    n_codes = int(codes.max(initial=0)) + 1
    _, lead, unit = np.unique(np.argsort(date_order(net))[citing] * (n_codes + net.n)
                              + np.where(later, n_codes + cited, codes[cited]),
                              return_index=True, return_inverse=True)
    order, lo, hi = _slices(net, codes, citing[lead], codes[cited[lead]])
    excluded_ptr, excluded = _exclusions(net, order, citing[lead], lo, hi)
    unit_ptr = [*np.flatnonzero(np.diff(citing[lead], prepend=-1)).tolist(), lead.size]
    citers = citing[lead[unit_ptr[:-1]]]
    # per citer the papers its author rule excludes; per citation its base's
    # size; per unit its slice and the target its base adds after it, or -1
    excluded, excluded_ptr = order[excluded], excluded_ptr[unit_ptr].tolist()
    size = (hi - lo + later[lead])[unit]
    lo, hi, extra = lo.tolist(), hi.tolist(), np.where(later[lead], cited[lead], -1).tolist()
    edge_ptr = np.concatenate(([0], np.cumsum(net.out_degree))).tolist()

    running = np.full(net.n, Fraction(0), dtype=object) if exact else np.zeros(net.n)
    blocked = np.zeros(net.n, dtype=bool)
    # per citer, in date order: its bundles' members, sizes, targets and
    # target counts, each bundle's after the one before
    rows, member_dtype = [], _index_dtype(0, net.n, 0)
    for p, x in enumerate(citers.tolist()):
        e0, e1 = edge_ptr[x], edge_ptr[x + 1]
        t, n = cited[e0:e1], size[e0:e1]
        base = np.concatenate([order[lo[k]:hi[k]] if extra[k] < 0
                               else np.append(order[lo[k]:hi[k]], extra[k])
                               for k in unit[e0:e1].tolist()])
        # every citation is narrowed against the state frozen before x; a
        # target always survives, as its count equals itself
        values, count = running[base], running[t].repeat(n)
        if exact:
            keep = values == count
        else:
            values -= count
            keep = np.abs(values, out=values) <= count_tol
        # the author rule excludes the same papers from every base of x, and
        # never a later-dated target
        own = excluded[excluded_ptr[p]:excluded_ptr[p + 1]]
        if own.size:
            blocked[own] = True
            keep[blocked[base]] = False
            blocked[own] = False
        kept = np.add.reduceat(keep, n.cumsum() - n)
        m, n_t = base[keep], np.ones(e1 - e0, dtype=np.int64)
        if unit_ptr[p + 1] - unit_ptr[p] < e1 - e0:
            # citations with identical member sets merge into one bundle,
            # in the place of the first: only those of one unit can, and they
            # keep its base's order; the others differ in a category or target
            merged: dict[bytes, list[int]] = {}
            end = kept.cumsum()
            for c, (a, b) in enumerate(zip((end - kept).tolist(), end.tolist())):
                merged.setdefault(m[a:b].tobytes(), []).append(c)
            if len(merged) < e1 - e0:
                first = [c[0] for c in merged.values()]
                m = m[np.bincount(first, minlength=e1 - e0).astype(bool).repeat(kept)]
                n_t = np.array([len(c) for c in merged.values()])
                t, kept = t[[c for cs in merged.values() for c in cs]], kept[first]
        mass = (np.array([Fraction(a, b) for a, b in zip(n_t.tolist(), kept.tolist())])
                if exact else n_t / kept)
        np.add.at(running, m, mass.repeat(kept))
        rows.append((m.astype(member_dtype), kept, t, n_t))

    # the rows by citer, each citer's bundles in the order of their first
    # targets; a leading empty row types the arrays when no paper cites
    rows = [rows[p] for p in np.argsort(citers).tolist()]
    citing = np.sort(citers).repeat([row[1].size for row in rows])
    members, sizes, targets, n_targets = map(np.concatenate, zip(
        (np.zeros(0, member_dtype), *[np.zeros(0, np.int64)] * 3), *rows))
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    # each row's members ascending, a block of rows at a time
    for a, b in _blocks(indptr):
        offset = np.repeat(np.arange(b - a) * net.n, sizes[a:b])
        members[indptr[a]:indptr[b]] = np.sort(members[indptr[a]:indptr[b]] + offset) - offset
    zeros = np.zeros(citing.size + 1, dtype=np.int64)
    return group_table("PD", attrs, order, citing, zeros[1:], zeros[1:], zeros, zeros[:0],
                       indptr, members, np.concatenate(([0], np.cumsum(n_targets))), targets,
                       running.astype(np.float64))


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
