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
citations of ``citing[g]`` listed in its targets.  The members are the
rows of one sparse G x N matrix ``W`` holding ``weight[g]`` at (g, j)
for every member j, so each downstream sum (expected out-citations,
pairwise counts, gender expectations, the PageRank operator) is one
product over ``W``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import sparse, stats

from .corpus import (
    ATTRIBUTE_ORDER,
    CitationNetwork,
    GenderCategory,
    canonical_attributes,
    category_key,
)

#: default tolerance when comparing running expected counts in PD
DEFAULT_COUNT_TOL = 1e-9


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
    per member.  Row g of the G x N CSR matrix ``W`` holds ``weight[g]``
    at each member of group g.  The observed targets of group g are
    ``targets[target_ptr[g]:target_ptr[g + 1]]``.  Citations from one
    citer with identical member sets share a group.  Build it through
    :func:`compute_model` or one of the model functions, or from stored
    arrays through :func:`group_table`.
    """

    model: str
    attributes: tuple[str, ...]
    citing: np.ndarray
    weight: np.ndarray
    W: sparse.csr_matrix
    target_ptr: np.ndarray
    targets: np.ndarray
    c_bar: np.ndarray

    def __post_init__(self) -> None:
        for name in ("citing", "weight", "target_ptr", "targets", "c_bar"):
            getattr(self, name).setflags(write=False)

    @property
    def n_papers(self) -> int:
        return self.W.shape[1]

    @property
    def n_citations(self) -> int:
        return self.targets.size

    @cached_property
    def groups(self) -> tuple[ContributionGroup, ...]:
        """The table as one :class:`ContributionGroup` per row, for tests
        and diagnostics; reductions use the arrays."""
        views = []
        for g, (lo, hi) in enumerate(zip(self.W.indptr[:-1], self.W.indptr[1:])):
            members = self.W.indices[lo:hi]
            members.setflags(write=False)
            targets = self.targets[self.target_ptr[g]:self.target_ptr[g + 1]]
            views.append(ContributionGroup(int(self.citing[g]), members,
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


#: one group before packing: citer, sorted member ids, observed targets
Row = tuple[int, np.ndarray, Sequence[int]]


def group_table(model: str, attributes: tuple[str, ...], n_papers: int,
                citing: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
                target_ptr: np.ndarray, targets: np.ndarray,
                c_bar: np.ndarray | None = None) -> ExpectedCitations:
    """Derive ``weight`` and ``W`` from the stored arrays of a group table
    (``indptr``/``indices`` are the member CSR of ``W``).  ``c_bar``
    defaults to the column sums of ``W``, added in row order."""
    sizes = np.diff(indptr)
    weight = np.diff(target_ptr) / sizes
    W = sparse.csr_matrix((np.repeat(weight, sizes), indices, indptr),
                          shape=(len(citing), n_papers))
    if c_bar is None:
        # the column sums of W, from ``indices``: bincount would copy W's
        # own (often int32) indices to int64 first
        c_bar = np.bincount(indices, W.data, minlength=n_papers)
    return ExpectedCitations(model, attributes, citing, weight, W, target_ptr,
                             targets, np.asarray(c_bar, np.float64))


def _table(model: str, attributes: tuple[str, ...], net: CitationNetwork,
           rows: Sequence[Row], c_bar: np.ndarray | None = None) -> ExpectedCitations:
    """Pack rows, ordered by citer, into the arrays of :func:`group_table`."""
    empty = [np.zeros(0, dtype=np.int64)]
    sizes = np.array([row[1].size for row in rows], dtype=np.int64)
    n_targets = np.array([len(row[2]) for row in rows], dtype=np.int64)
    return group_table(
        model, attributes, net.n, np.array([row[0] for row in rows], dtype=np.int64),
        np.concatenate(([0], np.cumsum(sizes))),
        np.concatenate(empty + [row[1] for row in rows]),
        np.concatenate(([0], np.cumsum(n_targets))),
        np.fromiter(chain.from_iterable(row[2] for row in rows), np.int64,
                    n_targets.sum()), c_bar,
    )


def _eligible(net: CitationNetwork, i: int) -> np.ndarray:
    """Boolean mask over the papers paper i could cite: the corpus rule
    (:meth:`CitationNetwork.citable`) minus later-dated papers."""
    return net.citable(i) & (net.dates <= net.dates[i])


def _key_codes(net: CitationNetwork, attributes: tuple[str, ...]) -> np.ndarray:
    """Integer code per paper for its category key under ``attributes``.

    An empty attribute set gives every paper the same code, so HD
    degenerates toward RD grouping.
    """
    codes = np.empty(net.n, dtype=np.int64)
    seen: dict[tuple, int] = {}
    for i, p in enumerate(net.papers):
        key = category_key(p, attributes)
        codes[i] = seen.setdefault(key, len(seen))
    return codes


def eligible_set_rd(net: CitationNetwork, i: int) -> np.ndarray:
    """Sorted indices of papers that paper i could cite under RD."""
    return np.flatnonzero(_eligible(net, i))


def eligible_set_hd(
    net: CitationNetwork,
    i: int,
    i_prime: int,
    attributes: Iterable[str] = ATTRIBUTE_ORDER,
) -> np.ndarray:
    """Sorted indices of the RD-eligible papers sharing the observed
    target's category, always including the target itself."""
    attrs = canonical_attributes(attributes)
    codes = _key_codes(net, attrs)
    members = np.flatnonzero(_eligible(net, i) & (codes == codes[i_prime]))
    return _with_member(members, i_prime)


def _with_member(members: np.ndarray, j: int) -> np.ndarray:
    """Sorted member array guaranteed to contain j."""
    pos = np.searchsorted(members, j)
    if pos < len(members) and members[pos] == j:
        return members
    return np.insert(members, pos, j)


def _bundles(
    targets: np.ndarray,
    mask: np.ndarray,
    codes: np.ndarray,
    narrow: Callable[[np.ndarray, int], np.ndarray] | None = None,
) -> list[tuple[np.ndarray, list[int]]]:
    """One citer's citations as (members, targets) bundles.

    A citation's members are the papers of its target's category inside
    ``mask``, optionally narrowed, always including the target.
    Citations with identical member sets merge into one bundle.
    """
    base_cache: dict[int, np.ndarray] = {}
    merged: dict[bytes, tuple[np.ndarray, list[int]]] = {}
    for t in targets:
        t = int(t)
        code = codes[t]
        base = base_cache.get(code)
        if base is None:
            base = base_cache[code] = np.flatnonzero(mask & (codes == code))
        members = _with_member(base if narrow is None else narrow(base, t), t)
        merged.setdefault(members.tobytes(), (members, []))[1].append(t)
    return list(merged.values())


def random_draws(net: CitationNetwork) -> ExpectedCitations:
    """Expected citations when every citation is redrawn uniformly from
    the citer's eligible set.  One group per citing paper; raises
    :class:`ModelError` for a citer with an empty eligible set."""
    rows: list[Row] = []
    for i in range(net.n):
        targets = net.out_targets[i]
        if targets.size == 0:
            continue
        members = np.flatnonzero(_eligible(net, i))
        if members.size == 0:
            raise ModelError(
                f"paper {net.papers[i].id!r} makes {targets.size} citation(s) "
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
    for i in np.flatnonzero(net.out_degree):
        bundles = _bundles(net.out_targets[i], _eligible(net, i), codes)
        rows.extend((i, members, tlist) for members, tlist in bundles)
    return _table("HD", attrs, net, rows)


def date_order(net: CitationNetwork) -> list[int]:
    """Paper indices by ascending publication date, ties broken by id."""
    return sorted(range(net.n), key=lambda i: (net.papers[i].pub_date, net.papers[i].id))


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
    rows: list[Row] = []
    running: list[Fraction] | np.ndarray
    if exact:
        running = [Fraction(0)] * net.n

        def narrow(base: np.ndarray, t: int) -> np.ndarray:
            count = running[t]
            return np.asarray([m for m in base.tolist() if running[m] == count],
                              dtype=np.int64)
    else:
        running = np.zeros(net.n)

        def narrow(base: np.ndarray, t: int) -> np.ndarray:
            return base[np.abs(running[base] - running[t]) <= count_tol]

    for x in date_order(net):
        targets = net.out_targets[x]
        if targets.size == 0:
            continue
        # freeze: every bundle reads the state before this paper
        for members, tlist in _bundles(targets, _eligible(net, x), codes, narrow):
            if exact:
                frac = Fraction(len(tlist), members.size)
                for m in members.tolist():
                    running[m] += frac
            else:
                running[members] += len(tlist) / members.size
            rows.append((x, members, tlist))

    c_bar = np.array([float(v) for v in running]) if exact else running
    rows.sort(key=lambda row: row[0])
    return _table("PD", attrs, net, rows, c_bar)


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
    return float(ec.W[lo:hi, j].sum())


def expected_out(ec: ExpectedCitations) -> np.ndarray:
    """Per-paper total probability mass placed on outgoing citations."""
    return np.bincount(ec.citing, ec.weight * np.diff(ec.W.indptr),
                       minlength=ec.n_papers)


def onehot(codes: np.ndarray, size: int) -> sparse.csr_matrix:
    """``len(codes) x size`` indicator matrix with a 1 at (i, codes[i])."""
    n = len(codes)
    return sparse.csr_matrix((np.ones(n), (np.arange(n), codes)), shape=(n, size))


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
    """Two-sample KS statistic between two per-paper value vectors."""
    return float(stats.ks_2samp(observed, expected).statistic)


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
        expected = (
            onehot(codes[ec.citing], size).T @ (ec.W @ onehot(codes, size))
        ).toarray()
        pairwise[attribute] = PairwiseCounts(attribute, labels, observed, expected)

    c_obs = net.in_degree.astype(float)
    by_gender: dict[str, tuple[SurvivalCurve, SurvivalCurve]] = {}
    for category in GenderCategory:
        sel = net.gender_codes == list(GenderCategory).index(category)
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
