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
citations of ``citing[g]`` listed in its targets.  The members are stored
in compressed-row form (``indptr``/``indices``), the rows of a G x N
matrix ``W`` holding ``weight[g]`` at (g, j) for every member j, and each
downstream sum (expected out-citations, pairwise counts, gender
expectations, the PageRank operator) is one reduction over those arrays
in plain numpy: ``W.T @ y`` with :meth:`ExpectedCitations.spread`, ``W``
times a category indicator with :meth:`ExpectedCitations.category_sums`.
The package needs numpy only; the tests check these reductions against
``scipy.sparse`` as an independent oracle.

Eligible sets are slices of one index per model call: the papers sorted
by (category, date, index).  A citer's candidates in a category are the
papers from its ten-year window floor up to its own date, one slice found
by binary search, so each (citer, category) pair costs
O(log N + |slice|) instead of a pass over all N papers;
:meth:`CitationNetwork.citable` screens the slice.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
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

#: the most member entries, and the most group rows x categories, that one
#: block of a reduction over a group table holds; bounds the temporaries
#: of every reduction whatever the table's size
BLOCK_ENTRIES = 1 << 16

_INT32_MAX = np.iinfo(np.int32).max


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

    ``citing`` (G,) is ascending and ``weight`` (G,) is each group's mass
    per member.  The members of group g are
    ``indices[indptr[g]:indptr[g + 1]]``, ascending, and its observed
    targets are ``targets[target_ptr[g]:target_ptr[g + 1]]``.  Citations
    from one citer with identical member sets share a group.  Build it
    through :func:`compute_model` or one of the model functions, or from
    stored arrays through :func:`group_table`.
    """

    model: str
    attributes: tuple[str, ...]
    citing: np.ndarray
    weight: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    target_ptr: np.ndarray
    targets: np.ndarray
    c_bar: np.ndarray

    def __post_init__(self) -> None:
        for name in ("citing", "weight", "indptr", "indices", "target_ptr",
                     "targets", "c_bar"):
            getattr(self, name).setflags(write=False)

    @property
    def n_papers(self) -> int:
        return self.c_bar.size

    @property
    def n_citations(self) -> int:
        return self.targets.size

    @cached_property
    def sizes(self) -> np.ndarray:
        """Member count of each group."""
        return np.diff(self.indptr)

    def spread(self, y: np.ndarray) -> np.ndarray:
        """``W.T @ y``: per paper, the sum of ``weight[g] * y[g]`` over the
        groups g it is a member of."""
        return _spread(self.indptr, self.indices, self.weight * y, self.n_papers)

    def category_sums(self, codes: np.ndarray, size: int, *, weighted: bool = False
                      ) -> Iterator[tuple[int, int, np.ndarray]]:
        """``W @ onehot(codes)`` in blocks of consecutive groups: yields
        ``(a, b, sums)`` where ``sums[g - a, c]`` is the number of members
        of group g with code c (int64), or with ``weighted`` their mass,
        ``weight[g]`` added once per member in member order (float64)."""
        for a, b in _blocks(self.indptr, size):
            lo, hi = self.indptr[a], self.indptr[b]
            key = np.repeat(np.arange(b - a) * size, self.sizes[a:b])
            key += codes[self.indices[lo:hi]]
            mass = np.repeat(self.weight[a:b], self.sizes[a:b]) if weighted else None
            yield a, b, np.bincount(key, mass, minlength=(b - a) * size).reshape(b - a, size)

    @cached_property
    def groups(self) -> tuple[ContributionGroup, ...]:
        """The table as one :class:`ContributionGroup` per row, for tests
        and diagnostics; reductions use the arrays."""
        views = []
        for g, (lo, hi) in enumerate(zip(self.indptr[:-1], self.indptr[1:])):
            targets = self.targets[self.target_ptr[g]:self.target_ptr[g + 1]]
            views.append(ContributionGroup(int(self.citing[g]), self.indices[lo:hi],
                                           tuple(targets.tolist()),
                                           float(self.weight[g])))
        return tuple(views)

    @cached_property
    def groups_by_citing(self) -> dict[int, tuple[ContributionGroup, ...]]:
        citers, starts = np.unique(self.citing, return_index=True)
        ends = [*starts[1:], len(self.citing)]
        return {int(i): self.groups[a:b] for i, a, b in zip(citers, starts, ends)}

    def check_network(self, net: CitationNetwork) -> None:
        if self.n_papers != net.n or self.n_citations != net.m:
            raise ModelError(
                f"expectations were computed on a {self.n_papers}-paper/"
                f"{self.n_citations}-citation network, got {net.n}/{net.m}"
            )


def _blocks(indptr: np.ndarray, width: int = 1, entries: int | None = None
            ) -> Iterator[tuple[int, int]]:
    """Consecutive group ranges [a, b) covering a table, each of at least
    one group and otherwise of at most ``entries`` (by default
    ``BLOCK_ENTRIES``) member entries and ``BLOCK_ENTRIES // width``
    groups."""
    n_groups, total = len(indptr) - 1, int(indptr[-1])
    rows = max(1, BLOCK_ENTRIES // max(width, 1))
    entries = entries or BLOCK_ENTRIES
    a = 0
    while a < n_groups:
        last = min(int(indptr[a]) + entries, total)
        b = int(np.searchsorted(indptr, last, side="right")) - 1
        b = max(a + 1, min(b, a + rows))
        yield a, b
        a = b


def _spread(indptr: np.ndarray, indices: np.ndarray, mass: np.ndarray,
            n_papers: int) -> np.ndarray:
    """Per paper, the sum of ``mass[g]`` over the groups g it is a member
    of, added in table order (as ``np.bincount(indices, np.repeat(mass,
    sizes))`` adds, without its table-sized temporaries)."""
    out = np.zeros(n_papers)
    sizes = np.diff(indptr)
    for a, b in _blocks(indptr):
        np.add.at(out, indices[indptr[a]:indptr[b]], np.repeat(mass[a:b], sizes[a:b]))
    return out


#: one group before packing: citer, sorted member ids, observed targets
Row = tuple[int, np.ndarray, Sequence[int]]


def _index_dtype(n_groups: int, n_papers: int, n_entries: int) -> type:
    """Dtype of a table's member arrays ``indptr``/``indices``: int32 when
    every value fits, which halves the table, else int64."""
    return np.int32 if max(n_groups, n_papers, n_entries) <= _INT32_MAX else np.int64


def group_table(model: str, attributes: tuple[str, ...], n_papers: int,
                citing: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
                target_ptr: np.ndarray, targets: np.ndarray,
                c_bar: np.ndarray | None = None) -> ExpectedCitations:
    """Derive ``weight`` from the stored arrays of a group table.  The
    member arrays are kept in :func:`_index_dtype`.  ``c_bar`` defaults to
    the column sums of ``W``, added in group order."""
    weight = np.diff(target_ptr) / np.diff(indptr)
    if c_bar is None:
        c_bar = _spread(indptr, indices, weight, n_papers)
    index_dtype = _index_dtype(len(citing), n_papers, indices.size)
    return ExpectedCitations(model, attributes, citing, weight,
                             indptr.astype(index_dtype, copy=False),
                             indices.astype(index_dtype, copy=False), target_ptr,
                             targets, np.asarray(c_bar, np.float64))


def _table(model: str, attributes: tuple[str, ...], net: CitationNetwork,
           rows: Sequence[Row], c_bar: np.ndarray | None = None) -> ExpectedCitations:
    """Pack rows, ordered by citer, into the arrays of :func:`group_table`,
    concatenating the members straight into their stored dtype."""
    sizes = np.array([row[1].size for row in rows], dtype=np.int64)
    n_targets = np.array([len(row[2]) for row in rows], dtype=np.int64)
    index_dtype = _index_dtype(len(rows), net.n, int(sizes.sum()))
    return group_table(
        model, attributes, net.n, np.array([row[0] for row in rows], dtype=np.int64),
        np.concatenate(([0], np.cumsum(sizes)), dtype=index_dtype),
        np.concatenate([np.zeros(0, index_dtype)] + [row[1] for row in rows],
                       dtype=index_dtype),
        np.concatenate(([0], np.cumsum(n_targets))),
        np.fromiter(chain.from_iterable(row[2] for row in rows), np.int64,
                    n_targets.sum()), c_bar,
    )


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


def _bases(net: CitationNetwork, codes: np.ndarray, citers: np.ndarray,
           cats: np.ndarray) -> Iterator[np.ndarray]:
    """For each (citer, category) pair, in order, the ascending papers of
    that category the citer may cite and that are not dated after it.

    The papers are sorted once by (category, date, index), so a pair's
    candidates are the slice from the citer's window floor to its date:
    two ``searchsorted`` calls find every slice at once, with floors
    before the earliest date clamped to it.  :meth:`CitationNetwork.citable`
    then screens the candidates, which are built in blocks of consecutive
    pairs holding at most ``BLOCK_ENTRIES // 8`` of them (or a single
    pair).
    """
    if len(citers) == 0:
        return
    origin = net.dates.min()
    day = (net.dates - origin).astype(np.int64)
    floor = np.maximum((net.window_floors[citers] - origin).astype(np.int64), 0)
    span = int(day.max()) + 1
    order = np.lexsort((day, codes))
    keys = (codes * span + day)[order]
    lo = np.searchsorted(keys, cats * span + floor)
    hi = np.searchsorted(keys, cats * span + day[citers], side="right")
    ptr = np.concatenate(([0], np.cumsum(hi - lo)))
    # screening holds about eight candidate-sized temporaries at once
    for a, b in _blocks(ptr, entries=max(1, BLOCK_ENTRIES // 8)):
        sizes = np.diff(ptr[a:b + 1])
        cand = order[np.arange(ptr[a], ptr[b]) + np.repeat(lo[a:b] - ptr[a:b], sizes)]
        keep = net.citable(np.repeat(citers[a:b], sizes), cand)
        # sort each pair's survivors by index: offset pair k by k * N
        offset = np.repeat(np.arange(b - a) * net.n, sizes)[keep]
        key = np.sort(offset + cand[keep])
        yield from _pieces(key - offset,
                           np.searchsorted(key, np.arange(1, b - a) * net.n).tolist())


def _pieces(a: Sequence, stops: list[int]) -> list:
    """``a`` cut before each of the ascending positions ``stops``."""
    bounds = [0, *stops, len(a)]
    return [a[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _citation_bases(net: CitationNetwork, codes: np.ndarray, citers: np.ndarray
                    ) -> Iterator[tuple[int, np.ndarray, list[np.ndarray]]]:
    """For each citer, in the order given (which must list every paper
    that cites), its targets and each one's base: the :func:`_bases` entry
    of the target's category, plus the target when it is dated after the
    citer.  Every edge is citable, so that is the one case in which a
    target lies outside its slice."""
    n_codes = int(codes.max(initial=0)) + 1
    position = np.zeros(net.n, dtype=np.int64)
    position[citers] = np.arange(len(citers))
    pairs = np.unique(position[net.edges[:, 0]] * n_codes + codes[net.edges[:, 1]])
    pos, cats = np.divmod(pairs, n_codes)
    bases = _bases(net, codes, citers[pos], cats)
    ends = np.cumsum(np.bincount(pos, minlength=len(citers)))[:-1].tolist()
    later = (net.dates[net.edges[:, 1]] > net.dates[net.edges[:, 0]]).tolist()
    first = (np.cumsum(net.out_degree) - net.out_degree).tolist()
    for i, own in zip(citers.tolist(), _pieces(cats.tolist(), ends)):
        base = {c: next(bases) for c in own}
        targets = net.out_targets[i]
        yield i, targets, [
            _with_member(base[c], t) if late else base[c]
            for c, t, late in zip(codes[targets].tolist(), targets.tolist(),
                                  later[first[i]:first[i] + targets.size])
        ]


def eligible_set_rd(net: CitationNetwork, i: int) -> np.ndarray:
    """Sorted indices of papers that paper i could cite under RD."""
    return next(_bases(net, np.zeros(net.n, dtype=np.int64), np.array([i]),
                       np.zeros(1, dtype=np.int64)))


def eligible_set_hd(
    net: CitationNetwork,
    i: int,
    i_prime: int,
    attributes: Iterable[str] = ATTRIBUTE_ORDER,
) -> np.ndarray:
    """Sorted indices of the RD-eligible papers sharing the observed
    target's category, always including the target itself."""
    codes = _key_codes(net, canonical_attributes(attributes))
    base = next(_bases(net, codes, np.array([i]), codes[[i_prime]]))
    return _with_member(base, i_prime)


def _with_member(members: np.ndarray, j: int) -> np.ndarray:
    """Sorted member array guaranteed to contain j."""
    pos = np.searchsorted(members, j)
    if pos < len(members) and members[pos] == j:
        return members
    return np.insert(members, pos, j)


def _bundles(targets: np.ndarray, members: Sequence[np.ndarray]
             ) -> list[tuple[np.ndarray, list[int]]]:
    """One citer's citations as (members, targets) bundles: citations
    with identical member sets merge into one bundle."""
    merged: dict[bytes, tuple[np.ndarray, list[int]]] = {}
    for t, m in zip(targets.tolist(), members):
        merged.setdefault(m.tobytes(), (m, []))[1].append(t)
    return list(merged.values())


def random_draws(net: CitationNetwork) -> ExpectedCitations:
    """Expected citations when every citation is redrawn uniformly from
    the citer's eligible set.  One group per citing paper; raises
    :class:`ModelError` for a citer with an empty eligible set."""
    citers = np.flatnonzero(net.out_degree)
    zeros = np.zeros(net.n, dtype=np.int64)
    rows: list[Row] = []
    for i, members in zip(citers.tolist(), _bases(net, zeros, citers, zeros[citers])):
        targets = net.out_targets[i]
        if members.size == 0:
            raise ModelError(
                f"paper {str(net.ids[i])!r} makes {targets.size} citation(s) "
                "but its eligible set is empty"
            )
        rows.append((i, members, targets))
    return _table("RD", (), net, rows)


def homophilic_draws(
    net: CitationNetwork, attributes: Iterable[str] = ATTRIBUTE_ORDER
) -> ExpectedCitations:
    """Expected citations when each observed citation is redrawn
    uniformly within the target's category inside the eligible set.

    Citations from the same paper into the same member set merge into a
    single group with summed multiplicity.
    """
    attrs = canonical_attributes(attributes)
    codes = _key_codes(net, attrs)
    rows: list[Row] = []
    for i, targets, bases in _citation_bases(net, codes, np.flatnonzero(net.out_degree)):
        rows.extend((i, m, tlist) for m, tlist in _bundles(targets, bases))
    return _table("HD", attrs, net, rows)


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

    Count equality is ``|a - b| <= count_tol`` in float mode.  With
    ``exact=True`` the running counts are exact rationals compared for
    true equality, which removes float drift at the cost of speed.
    """
    attrs = canonical_attributes(attributes)
    codes = _key_codes(net, attrs)
    order = date_order(net)
    running = np.full(net.n, Fraction(0), dtype=object) if exact else np.zeros(net.n)
    rows: list[Row] = []
    for x, targets, bases in _citation_bases(net, codes, order[net.out_degree[order] > 0]):
        # one comparison narrows every citation against the frozen state;
        # a target always survives, as its count equals itself
        sizes = [b.size for b in bases]
        values = running[np.concatenate(bases)]
        count = np.repeat(running[targets], sizes)
        keep = values == count if exact else np.abs(values - count) <= count_tol
        narrowed = [b[k] for b, k in zip(bases, _pieces(keep, list(accumulate(sizes[:-1]))))]
        for m, tlist in _bundles(targets, narrowed):
            running[m] += Fraction(len(tlist), m.size) if exact else len(tlist) / m.size
            rows.append((x, m, tlist))

    rows.sort(key=lambda row: row[0])
    return _table("PD", attrs, net, rows, running.astype(np.float64))


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
    rows = [(int(i), np.array([j]), (int(j),)) for i, j in net.edges]
    return _table("observed", (), net, rows, net.in_degree.astype(float))


def citation_probability(ec: ExpectedCitations, i: int, j: int) -> float:
    """Probability mass the model puts on a citation from i to j."""
    lo, hi = np.searchsorted(ec.citing, [i, i + 1])
    return float(sum(ec.weight[g] for g in range(lo, hi)
                     if j in ec.indices[ec.indptr[g]:ec.indptr[g + 1]]))


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
    thresholds = np.unique(np.concatenate(([0.0], vals)))
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
