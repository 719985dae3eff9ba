"""Citation-count and PageRank impact scores, and top-share curves.

Every score is read from a group table, a reference model's or the
observed network's own (:func:`observed_as_expectations`): citation
scores are its expected in-citations and PageRank walks its transition
operator, so the observed ranking is the ranking of that table.  Scores
are normalized by the mean score of papers sharing publication year and
subfield (the year of the network's ``dates``, its subfield codes).
Each PageRank result records its iterations, final residual and whether
it converged.  The group-share curve reports, for a grid of d values,
the fraction of papers with a woman as first and/or last author among
the top d% of papers (from the gender codes), ties broken by paper id.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import GENDER_CODE, W_CATEGORIES, CitationNetwork, write_table
from .refmodels import ExpectedCitations, observed_as_expectations

log = logging.getLogger(__name__)

DEFAULT_ALPHA = 0.85
DEFAULT_EPS = 1e-6
DEFAULT_T_MAX = 100


@dataclass(frozen=True, eq=False)
class RankingResult:
    """Per-paper impact scores from one metric and one source."""

    metric: str
    source: str
    raw_score: np.ndarray
    normalized_score: np.ndarray
    alpha: float | None
    iterations_used: int
    converged: bool
    #: mean absolute change of the last PageRank step; None when no step
    #: ran (citation counts, or a zero step limit)
    final_residual: float | None


def normalized_scores(raw: np.ndarray, net: CitationNetwork) -> np.ndarray:
    """Score divided by the mean score of papers published in the same
    year and subfield.  All-zero strata normalize to 0 with a warning."""
    raw = np.asarray(raw, dtype=np.float64)
    out = np.zeros(net.n)
    years = net.dates.astype("datetime64[Y]").astype(np.int64) + 1970
    subfields, labels = net.attribute_codes("subfield")
    # one mixed-radix key per (year, subfield), in the order of the pairs
    keys = years * len(labels) + subfields
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True)
    # each stratum's papers in ascending index order, so its mean sums them
    # in that order; strata in the order of their first papers
    members = np.split(np.argsort(inverse.reshape(-1), kind="stable"),
                       np.cumsum(counts)[:-1])
    for s in np.argsort(first):
        idx = members[s]
        mean = raw[idx].mean()
        if mean == 0:
            log.warning(
                "stratum (%s, %s) has zero mean score; normalized scores set to 0",
                years[first[s]], labels[subfields[first[s]]],
            )
            continue
        out[idx] = raw[idx] / mean
    return out


def check_pagerank_parameters(alpha: float, eps: float, t_max: int) -> None:
    """Raise ``ValueError`` unless alpha is in [0, 1], eps >= 0 and t_max >= 0."""
    if not (0 <= alpha <= 1 and eps >= 0 and t_max >= 0):
        raise ValueError("PageRank needs alpha in [0, 1], eps >= 0 and t_max >= 0, got "
                         f"alpha={alpha}, eps={eps}, t_max={t_max}")


def _power_iteration(
    flow,
    teleport: np.ndarray,
    dangling: np.ndarray,
    alpha: float,
    eps: float,
    t_max: int,
) -> tuple[np.ndarray, int, bool, float | None]:
    """Iterate p <- alpha*(flow(p) + dangling_mass*teleport) + (1-alpha)*teleport
    from p(0) = teleport until the mean absolute update (the residual)
    drops below eps; returns p, the steps taken, whether it converged, and
    the last residual (None if no step ran)."""
    check_pagerank_parameters(alpha, eps, t_max)
    p = teleport.copy()
    residual = None
    for t in range(1, t_max + 1):
        new = alpha * (flow(p) + p[dangling].sum() * teleport) + (1 - alpha) * teleport
        residual = float(np.abs(new - p).mean())
        p = new
        if residual < eps:
            return p, t, True, residual
    return p, t_max, False, residual


def _pagerank(
    ec: ExpectedCitations, net: CitationNetwork, alpha: float, eps: float, t_max: int
) -> RankingResult:
    """PageRank under a group table's transition probabilities.

    Citer rows move mass with probability (citation probability)/k_i;
    teleport and dangling rows are proportional to expected in-citations.
    Each step spreads every group's share p[citer]/k_citer over its
    members (``W.T @ y``), so the dense transition matrix is never
    materialized.
    """
    ec.check_network(net)
    if net.m == 0:
        raise ValueError("PageRank needs at least one citation (teleport "
                         "distribution is proportional to citations received)")
    k = net.out_degree
    k_citing = k[ec.citing]
    flow = lambda p: ec.spread(p[ec.citing] / k_citing)
    p, used, converged, residual = _power_iteration(
        flow, ec.c_bar / net.m, k == 0, alpha, eps, t_max
    )
    return RankingResult("pagerank", ec.model, p, normalized_scores(p, net),
                         alpha, used, converged, residual)


def pagerank_observed(
    net: CitationNetwork,
    alpha: float = DEFAULT_ALPHA,
    eps: float = DEFAULT_EPS,
    t_max: int = DEFAULT_T_MAX,
) -> RankingResult:
    """PageRank of the observed network: the PageRank of its own group
    table (:func:`observed_as_expectations`).

    Random walk follows one of the citer's references uniformly with
    probability alpha and otherwise teleports to a paper drawn
    proportionally to its in-citations; papers making no citations
    always teleport.
    """
    return _pagerank(observed_as_expectations(net), net, alpha, eps, t_max)


def pagerank_reference(
    ec: ExpectedCitations,
    net: CitationNetwork,
    alpha: float = DEFAULT_ALPHA,
    eps: float = DEFAULT_EPS,
    t_max: int = DEFAULT_T_MAX,
) -> RankingResult:
    """PageRank under a reference model's transition probabilities."""
    return _pagerank(ec, net, alpha, eps, t_max)


def citation_scores(
    net: CitationNetwork, ec: ExpectedCitations | None = None
) -> RankingResult:
    """Expected citation counts ``c_bar`` of a model's table, or of the
    observed network's own table (its citation counts) when ``ec`` is None."""
    if ec is None:
        ec = observed_as_expectations(net)
    ec.check_network(net)
    raw = ec.c_bar.copy()
    return RankingResult("citations", ec.model, raw, normalized_scores(raw, net),
                         None, 0, True, None)


def ranking_order(scores: np.ndarray, net: CitationNetwork) -> np.ndarray:
    """Paper indices by descending score; ties broken by paper id."""
    return np.lexsort((net.ids, -np.asarray(scores)))


def _top_shares(scores: np.ndarray, net: CitationNetwork, d_grid: Sequence[float]
                ) -> list[float]:
    """Fraction of papers with a woman as first and/or last author among
    the ceil(d*N/100) papers with the highest scores, for each d."""
    if any(not 0 < d <= 100 for d in d_grid):
        raise ValueError("d values must be in (0, 100]")
    woman = np.isin(net.gender_codes, [GENDER_CODE[g] for g in W_CATEGORIES])
    hits = np.cumsum(woman[ranking_order(scores, net)])
    takes = [math.ceil(d * net.n / 100) for d in d_grid]
    return [int(hits[take - 1]) / take for take in takes]


@dataclass(frozen=True)
class SharePoint:
    d: float
    source: str
    metric: str
    ww_share: float


def share_points(results: Iterable[RankingResult], net: CitationNetwork,
                 d_grid: Sequence[float]) -> list[SharePoint]:
    """Top-share curve of each ranking, from its normalized scores."""
    return [
        SharePoint(float(d), result.source, result.metric, share)
        for result in results
        for d, share in zip(d_grid, _top_shares(result.normalized_score, net, d_grid))
    ]


def share_curve(
    net: CitationNetwork,
    metric: str,
    models: Mapping[str, ExpectedCitations],
    d_grid: Sequence[float],
    *,
    alpha: float = DEFAULT_ALPHA,
    eps: float = DEFAULT_EPS,
    t_max: int = DEFAULT_T_MAX,
) -> list[SharePoint]:
    """Top-share curve for the observed network plus each model, using
    normalized scores throughout."""
    if metric == "citations":
        results = [citation_scores(net), *(citation_scores(net, ec) for ec in models.values())]
    elif metric == "pagerank":
        results = [pagerank_observed(net, alpha, eps, t_max),
                   *(pagerank_reference(ec, net, alpha, eps, t_max) for ec in models.values())]
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return share_points(results, net, d_grid)


def write_ranking_csv(result: RankingResult, net: CitationNetwork, path: str | Path) -> None:
    """CSV export ``paper_id,raw,normalized,rank`` with ranks from the
    normalized scores (descending, id tiebreak)."""
    position = np.empty(net.n, dtype=np.int64)
    position[ranking_order(result.normalized_score, net)] = np.arange(1, net.n + 1)
    write_table(path, ("paper_id", "raw", "normalized", "rank"),
                (net.ids.tolist(), list(map(repr, result.raw_score.tolist())),
                 list(map(repr, result.normalized_score.tolist())),
                 list(map(str, position.tolist()))), ",")


def write_share_csv(points: Iterable[SharePoint], path: str | Path) -> None:
    rows = [(repr(pt.d), pt.source, pt.metric, repr(pt.ww_share)) for pt in points]
    write_table(path, ("d", "source", "metric", "ww_share"), zip(*rows), ",")
