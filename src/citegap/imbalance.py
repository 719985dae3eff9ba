"""Observed vs expected citations per gender category.

Counts citations received by each gender category within a from/to
paper selection, compares them against a reference model's expectations,
and attaches percentile bootstrap confidence intervals obtained by
resampling citing papers with replacement.  Citations whose target has
an unknown gender category are tallied separately and excluded from
both the observed counts and the expectations.

A selection (:class:`PaperFilter`) is a boolean mask over the network's
attribute codes (:meth:`CitationNetwork.attribute_codes`); strata are
the labels of the rank or subfield codes.  The per-group gender member
counts are one pass over the model's group table, shared by every
selection and stratum.
"""
from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import (
    GENDER_CODE,
    KNOWN_CATEGORIES,
    SELECTABLE_FIELDS,
    CitationNetwork,
    GenderCategory,
)
from .refmodels import ExpectedCitations

#: stratifier -> the paper attribute whose values are its strata
STRATIFIERS = {"conference_rank": "rank", "subfield": "subfield"}

_UNKNOWN = GENDER_CODE[GenderCategory.UNKNOWN]

#: a comma that begins the next ``field=`` clause of a filter
_CLAUSE_BREAK = re.compile(r",(?=\s*(?:%s)\s*=)" % "|".join(SELECTABLE_FIELDS))
#: fields whose values are fixed labels, none of which holds a comma
_LABEL_FIELDS = ("gender", "rank")


@dataclass(frozen=True)
class PaperFilter:
    """Selection of papers, parseable from ``field=value`` descriptors.

    ``"all"`` selects everything; ``"gender=WW,rank=A*"`` is a
    conjunction.  Valid fields: gender, rank, country, topic, subfield.
    A comma separates clauses where the next ``field=`` begins; any other
    comma belongs to a country, topic or subfield value
    (``"subfield=ML, theory"``).  A value no paper carries selects nothing.
    """

    description: str
    criteria: tuple[tuple[str, str], ...]

    @classmethod
    def parse(cls, text: str) -> "PaperFilter":
        text = text.strip()
        if text in ("", "all"):
            return ALL_PAPERS
        criteria = []
        for part in _CLAUSE_BREAK.split(text):
            name, sep, value = part.partition("=")
            name, value = name.strip(), value.strip()
            if not sep or name not in SELECTABLE_FIELDS:
                raise ValueError(f"bad filter clause {part!r}")
            if name in _LABEL_FIELDS and "," in value:
                raise ValueError(f"bad filter clause {value.partition(',')[2]!r}")
            criteria.append((name, value))
        return cls(text, tuple(criteria))

    def mask(self, net: CitationNetwork) -> np.ndarray:
        """Per paper, whether it meets every criterion."""
        keep = np.ones(net.n, dtype=bool)
        for name, value in self.criteria:
            codes, labels = net.attribute_codes(name)
            keep &= codes == (labels.index(value) if value in labels else -1)
        return keep


ALL_PAPERS = PaperFilter("all", ())


def observed_by_gender(
    net: CitationNetwork,
    from_filter: PaperFilter = ALL_PAPERS,
    to_filter: PaperFilter = ALL_PAPERS,
) -> dict[GenderCategory, int]:
    """Citations from the from-set into the to-set, counted by the
    target's gender category.  The UNKNOWN entry is the separate tally of
    citations whose target category is unknown."""
    keep = from_filter.mask(net)[net.edges[:, 0]] & to_filter.mask(net)[net.edges[:, 1]]
    counts = np.bincount(
        net.gender_codes[net.edges[keep, 1]], minlength=len(GenderCategory)
    )
    return {g: int(counts[k]) for k, g in enumerate(GenderCategory)}


def expected_by_gender(
    net: CitationNetwork,
    ec: ExpectedCitations,
    from_filter: PaperFilter = ALL_PAPERS,
    to_filter: PaperFilter = ALL_PAPERS,
) -> dict[GenderCategory, float]:
    """Reference-model expectation of the counts in
    :func:`observed_by_gender`.

    Every contribution group whose citer passes the from-filter adds
    (citations into the to-set) x (fraction of its members in each
    category).  Citations to UNKNOWN-gender targets are excluded; the
    UNKNOWN entry reports the mass falling on UNKNOWN-gender members for
    the same citations.
    """
    ec.check_network(net)
    _, m_to, counts, sizes = _counted_groups(net, ec, from_filter.mask(net),
                                             to_filter.mask(net))
    totals = (m_to[:, None] * counts / sizes[:, None]).sum(axis=0)
    return {g: float(totals[k]) for k, g in enumerate(GenderCategory)}


def over_under(n_obs: float, n_expected: float) -> float | None:
    """Signed fraction (observed - expected) / expected, or None when the
    expectation is zero (undefined marker, never silently 0)."""
    if n_expected == 0:
        return None
    return (n_obs - n_expected) / n_expected


@lru_cache(maxsize=1)
def _gender_counts(net: CitationNetwork, ec: ExpectedCitations) -> np.ndarray:
    """Per group, its member count in each gender category: one pass over
    the table, kept for the last (network, model) pair, whose every
    selection and stratum reads it (both objects are immutable)."""
    size = len(GenderCategory)
    counts = np.concatenate([np.zeros((0, size), np.int64)] + [
        sums for _, _, sums in ec.category_sums(net.gender_codes, size)
    ])
    counts.setflags(write=False)
    return counts


def _counted_groups(
    net: CitationNetwork,
    ec: ExpectedCitations,
    from_mask: np.ndarray,
    to_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The groups with a citer in the from-set and citations to known-gender
    papers in the to-set: their citers, those citation counts, their
    member counts per gender category, and their sizes."""
    known = net.gender_codes != _UNKNOWN
    counted = np.concatenate(([0], np.cumsum(to_mask[ec.targets] & known[ec.targets])))
    m_to = counted[ec.target_ptr[1:]] - counted[ec.target_ptr[:-1]]
    keep = from_mask[ec.citing] & (m_to > 0)
    return ec.citing[keep], m_to[keep], _gender_counts(net, ec)[keep], ec.sizes[keep]


class BootstrapCIs(dict):
    """:func:`bootstrap_ci`'s CI (or None) per known category, with
    ``defined``: per category, how many resamples gave it a value."""

    def __init__(self, cis: dict[GenderCategory, tuple[float, float] | None],
                 defined: dict[GenderCategory, int]) -> None:
        super().__init__(cis)
        self.defined = defined


def bootstrap_ci(
    net: CitationNetwork,
    ec: ExpectedCitations,
    from_filter: PaperFilter = ALL_PAPERS,
    to_filter: PaperFilter = ALL_PAPERS,
    resamples: int = 500,
    seed: int = 0,
) -> BootstrapCIs:
    """95% percentile bootstrap CI of over/under-citation per category.

    Each resample draws N papers with replacement; a paper drawn m times
    contributes its outgoing citations and its group fractions m times.
    Group member sets stay those of the full-network model.  Resamples
    with zero expected mass for a category are undefined and dropped;
    the CI itself is None when fewer than two defined resamples remain.
    The result's ``defined`` counts, per category, the defined resamples.
    """
    if resamples < 2:
        raise ValueError("resamples must be at least 2")
    ec.check_network(net)
    fm = from_filter.mask(net)
    tm = to_filter.mask(net)
    gcodes = net.gender_codes
    known = gcodes != _UNKNOWN

    # per-citer observed counts per category, restricted to from/to
    obs = np.zeros((len(KNOWN_CATEGORIES), net.n))
    keep = fm[net.edges[:, 0]] & tm[net.edges[:, 1]] & known[net.edges[:, 1]]
    np.add.at(obs, (gcodes[net.edges[keep, 1]], net.edges[keep, 0]), 1.0)

    citing, m_to, counts, sizes = _counted_groups(net, ec, fm, tm)
    fractions = (counts[:, : len(KNOWN_CATEGORIES)] / sizes[:, None]).T

    values = np.full((resamples, len(KNOWN_CATEGORIES)), np.nan)
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(resamples)):
        rng = np.random.default_rng(child)
        mult = np.bincount(rng.integers(0, net.n, net.n), minlength=net.n)
        observed = obs @ mult
        expected = fractions @ (mult[citing] * m_to)
        defined = expected > 0
        values[r, defined] = (observed[defined] - expected[defined]) / expected[defined]

    out: dict[GenderCategory, tuple[float, float] | None] = {}
    for k, g in enumerate(KNOWN_CATEGORIES):
        column = values[:, k]
        column = column[~np.isnan(column)]
        if column.size < 2:
            out[g] = None
        else:
            low, high = np.percentile(column, [2.5, 97.5])
            out[g] = (float(low), float(high))
    defined = (~np.isnan(values)).sum(axis=0).tolist()
    return BootstrapCIs(out, dict(zip(KNOWN_CATEGORIES, defined)))


@dataclass(frozen=True)
class ImbalanceReport:
    """Observed/expected citations and over/under-citation for one
    gender category under one model and from/to selection;
    ``resamples_defined`` of the bootstrap resamples gave a value (0
    without a bootstrap)."""

    gender: GenderCategory
    n_obs: int
    n_expected: float
    over_under: float | None
    ci_low: float | None
    ci_high: float | None
    model: str
    from_filter: str
    to_filter: str
    stratum: str | None = None
    resamples_defined: int = 0

    @property
    def status(self) -> str:
        return "ok" if self.over_under is not None else "undefined"


def imbalance_report(
    net: CitationNetwork,
    ec: ExpectedCitations,
    from_filter: PaperFilter = ALL_PAPERS,
    to_filter: PaperFilter = ALL_PAPERS,
    resamples: int = 500,
    seed: int = 0,
    stratum: str | None = None,
) -> list[ImbalanceReport]:
    """Full per-category report: counts, expectations, over/under, CI.

    ``resamples=0`` skips the bootstrap (CIs reported as None).
    """
    observed = observed_by_gender(net, from_filter, to_filter)
    expected = expected_by_gender(net, ec, from_filter, to_filter)
    cis: dict[GenderCategory, tuple[float, float] | None]
    if resamples:
        cis = bootstrap_ci(net, ec, from_filter, to_filter, resamples, seed)
        defined = cis.defined
    else:
        cis = {g: None for g in KNOWN_CATEGORIES}
        defined = dict.fromkeys(KNOWN_CATEGORIES, 0)
    reports = []
    for g in KNOWN_CATEGORIES:
        ci = cis[g]
        reports.append(
            ImbalanceReport(
                gender=g,
                n_obs=observed[g],
                n_expected=expected[g],
                over_under=over_under(observed[g], expected[g]),
                ci_low=None if ci is None else ci[0],
                ci_high=None if ci is None else ci[1],
                model=ec.model,
                from_filter=from_filter.description,
                to_filter=to_filter.description,
                stratum=stratum,
                resamples_defined=defined[g],
            )
        )
    return reports


def stratified_imbalance(
    net: CitationNetwork,
    ec: ExpectedCitations,
    stratifier: str,
    resamples: int = 500,
    seed: int = 0,
) -> list[ImbalanceReport]:
    """Per-stratum reports with to = papers in the stratum, from = all.

    ``stratifier`` is ``conference_rank`` or ``subfield``; strata are the
    labels of that attribute's codes (ranks present in prestige order,
    subfields sorted).
    """
    field = STRATIFIERS.get(stratifier)
    if field is None:
        raise ValueError(f"unknown stratifier {stratifier!r} (use {tuple(STRATIFIERS)})")
    reports: list[ImbalanceReport] = []
    for value in net.attribute_codes(field)[1]:
        to_filter = PaperFilter(f"{field}={value}", ((field, value),))
        reports.extend(
            imbalance_report(
                net, ec, ALL_PAPERS, to_filter, resamples, seed, stratum=value
            )
        )
    return reports


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    # a run of c ties after s smaller values spans ranks s+1 .. s+c
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def spearman(x: Sequence[float], y: Sequence[float]) -> float | None:
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


# ---------------------------------------------------------------------------
# export

_CSV_COLUMNS = (
    "model",
    "from",
    "to",
    "gender",
    "n_obs",
    "n_expected",
    "over_under",
    "ci_low",
    "ci_high",
    "status",
    "stratum",
)


def report_rows(reports: Iterable[ImbalanceReport]) -> list[dict[str, object]]:
    rows = []
    for r in reports:
        rows.append(
            {
                "model": r.model,
                "from": r.from_filter,
                "to": r.to_filter,
                "gender": r.gender.value,
                "n_obs": r.n_obs,
                "n_expected": r.n_expected,
                "over_under": r.over_under,
                "ci_low": r.ci_low,
                "ci_high": r.ci_high,
                "status": r.status,
                "stratum": r.stratum,
                "resamples_defined": r.resamples_defined,
            }
        )
    return rows


def write_report_csv(reports: Iterable[ImbalanceReport], path: str | Path) -> None:
    """CSV export; undefined markers become empty fields plus status."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for row in report_rows(reports):
            writer.writerow(
                ["" if row[c] is None else _format(row[c]) for c in _CSV_COLUMNS]
            )


def write_report_json(reports: Iterable[ImbalanceReport], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_rows(reports), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _format(value: object) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)
