"""Observed vs expected citations per gender category.

Counts citations received by each gender category within a from/to
paper selection, compares them against a reference model's expectations,
and attaches percentile bootstrap confidence intervals obtained by
resampling citing papers with replacement.  Citations whose target has
an unknown gender category are tallied separately and excluded from
both the observed counts and the expectations.

A selection (:class:`PaperFilter`) is a boolean mask over the network's
attribute codes (:meth:`CitationNetwork.attribute_codes`); strata are
the labels of the rank or subfield codes.  A report is one
:func:`bootstrap_ci` call: one mask per filter, one pass over the
model's group table for the per-group gender member counts, and one fold
per selection, whose sums are the point estimates; every selection and
stratum shares the table pass and the bootstrap draws.

The bootstrap turns each fold into rows over the N papers: per citer,
its observed citations into each category and its expected ones, the
latter cut into integer limbs.  The multiplicities of a block of
``_BLOCK`` resamples take one product with the rows of every selection,
exact in float64, so the CIs do not depend on the BLAS, its threads or
the block size, and the memory beyond the rows is one ``_BLOCK x N``
block.  With no resamples it builds no rows and draws nothing.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import (
    GENDER_CODE,
    KNOWN_CATEGORIES,
    SELECTABLE_FIELDS,
    CitationNetwork,
    GenderCategory,
    write_table,
)
from .refmodels import ExpectedCitations, fixed_point_limbs

#: the paper attributes whose values can be the strata of a report
STRATIFIERS = ("rank", "subfield")

_UNKNOWN = GENDER_CODE[GenderCategory.UNKNOWN]

#: resamples whose multiplicities share one product in :func:`bootstrap_ci`
_BLOCK = 16
#: the most multiply-adds of one BLAS call in :func:`bootstrap_ci`:
#: OpenBLAS runs a product of at most 2^18 on the calling thread and
#: splits a larger one with a worker thread, which every call then waits
#: for whenever another process holds the other cores (8 ms against
#: 0.3 ms per pd-ties block on 2 cores)
_PANEL_WORK = 1 << 18

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
    counts = np.bincount(net.gender_codes[net.edges[keep, 1]], minlength=len(GenderCategory))
    return dict(zip(GenderCategory, counts.tolist()))


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
    return bootstrap_ci(net, ec, from_filter, [to_filter], 0)[0].expected


def over_under(n_obs: float, n_expected: float) -> float | None:
    """Signed fraction (observed - expected) / expected, or None when the
    expectation is zero (undefined marker, never silently 0)."""
    if n_expected == 0:
        return None
    return (n_obs - n_expected) / n_expected


def _fold(net: CitationNetwork, ec: ExpectedCitations, counts: np.ndarray,
          from_mask: np.ndarray, to_mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """One selection, folded once: per gender category, its observed and
    expected citations; and per known category and paper, the paper's
    citations, as a citer in the from-set, into the category's papers of
    the to-set, then its expected ones.  Each group with a citer in the
    from-set expects, per category, its citations to known-gender papers
    of the to-set x the category's share of its members (``counts`` holds
    their count per group and category), summed in table order."""
    n, k, size = net.n, len(KNOWN_CATEGORIES), len(GenderCategory)
    citers, cited = net.edges[:, 0], net.edges[:, 1]
    keep = from_mask[citers] & to_mask[cited]
    observed = np.bincount(net.gender_codes[cited[keep]] * n + citers[keep],
                           minlength=size * n).reshape(size, n)
    known = net.gender_codes != _UNKNOWN
    counted = np.concatenate(([0], np.cumsum(to_mask[ec.targets] & known[ec.targets])))
    m_to = counted[ec.target_ptr[1:]] - counted[ec.target_ptr[:-1]]
    keep = from_mask[ec.citing] & (m_to > 0)
    expected = m_to[keep, None] * counts[keep] / ec.sizes[keep, None]
    rows = np.empty((2 * k, n))
    rows[:k] = observed[:k]
    for c in range(k):
        rows[k + c] = np.bincount(ec.citing[keep], expected[:, c], minlength=n)
    return observed.sum(axis=1), expected.sum(axis=0), rows


def _limb_count(values: np.ndarray, bits: int) -> int:
    """How many limbs of ``bits`` bits :func:`fixed_point_limbs` needs to
    cut the nonnegative ``values`` without dropping a bit: they span from
    the top exponent of the largest value down to the last bit of the
    smallest positive one, 53 bits below its top exponent."""
    positive = values[values > 0]
    if not positive.size:
        return 0
    span = np.frexp(positive.max())[1] - np.frexp(positive.min())[1] + 53
    return int(-(-span // bits))


class BootstrapCIs(dict):
    """:func:`bootstrap_ci`'s CI (or None) per known category, with
    ``defined``: per category, how many resamples gave it a value; and the
    point estimates ``observed`` and ``expected`` per gender category, as
    :func:`observed_by_gender` and :func:`expected_by_gender` give them."""

    def __init__(self, cis: dict[GenderCategory, tuple[float, float] | None],
                 defined: dict[GenderCategory, int], observed: dict[GenderCategory, int],
                 expected: dict[GenderCategory, float]) -> None:
        super().__init__(cis)
        self.defined, self.observed, self.expected = defined, observed, expected


def _percentiles(values: np.ndarray, q: Sequence[float]) -> np.ndarray:
    """``np.percentile(values, q)`` of NaN-free values by numpy's default
    ``linear`` method, to the bit, without the ``np.unique`` call through
    which ``np.percentile`` imports ``numpy.ma``.  For ``h = (n - 1) * q /
    100``, the order statistics at ``floor(h)`` and the next index (both
    the last one when ``h >= n - 1``) come from the partition numpy
    makes, so of two equal values, 0.0 and -0.0, the one numpy takes is
    taken; they are interpolated as numpy's ``_lerp`` does, from the
    upper one when the weight is 0.5 or more."""
    h = (values.size - 1) * np.true_divide(q, 100)
    below = np.floor(h)
    above = below + 1
    top = h >= values.size - 1
    below[top] = above[top] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    weight = h - below
    ordered = np.array(values, dtype=np.float64)
    ordered.partition(np.array(sorted({0, -1, *below.tolist(), *above.tolist()})))
    low, high = ordered[below], ordered[above]
    step = high - low
    return np.where(weight >= 0.5, high - step * (1 - weight), low + step * weight)


def bootstrap_ci(
    net: CitationNetwork,
    ec: ExpectedCitations,
    from_filter: PaperFilter = ALL_PAPERS,
    to_filters: Sequence[PaperFilter] = (ALL_PAPERS,),
    resamples: int = 500,
    seed: int = 0,
) -> list[BootstrapCIs]:
    """95% percentile bootstrap CI of over/under-citation per category,
    with the point estimates, one result per to-selection.

    Each filter's mask is evaluated once, and each selection folded once
    (:func:`_fold`); a result's ``observed`` and ``expected`` are the
    sums of its fold, the expected ones over the groups in table order.
    With ``resamples=0`` the call ends there: every CI is None and
    ``defined`` is 0.

    Each resample draws N papers with replacement; a paper drawn m times
    contributes its outgoing citations and its group fractions m times.
    Every selection reads the same draws: its result is that of a call
    with it alone.  Group member sets stay those of the full-network
    model.  Resamples with zero expected mass for a category are
    undefined and dropped; the CI itself is None when fewer than two
    defined resamples remain.  A result's ``defined`` counts, per
    category, the defined resamples.

    The bootstrap reads each fold as rows over the N papers: per citer,
    its observed citations into each category, and its expected
    citations of each category cut into integer limbs at one scale of
    the selection, as many as drop no bit (:func:`fixed_point_limbs`).
    A limb holds ``53 - N.bit_length()`` bits, so its dot product with a
    resample's multiplicities, which sum to N, is exact in float64.  The
    multiplicities of ``_BLOCK`` resamples fill a ``_BLOCK x N`` block,
    and one product of every selection's rows with the block gives their
    observed counts and expected limbs, exactly; it is summed over panels
    of papers of at most ``_PANEL_WORK`` multiply-adds each, which the
    BLAS runs on the calling thread.  The limbs are added into a float
    from the top one down.  So the result does not depend on the BLAS,
    its threads or the block size, and the memory beyond the rows,
    ``k (1 + limbs)`` of them per selection, is the block's.
    """
    if resamples < 0 or resamples == 1:
        raise ValueError(f"resamples must be 0 (no CIs) or at least 2, got {resamples}")
    ec.check_network(net)
    masks = {f: f.mask(net) for f in dict.fromkeys((from_filter, *to_filters))}
    # per group, its member count in each category: one pass over the
    # table; a count is at most N, which the dtype of its positions holds
    size = len(GenderCategory)
    counts = np.concatenate([np.zeros((0, size), ec.lo.dtype)] + [
        sums for _, _, sums in ec.category_sums(net.gender_codes, size)], dtype=ec.lo.dtype)
    points, rows = [], []
    for f in to_filters:
        *point, selection = _fold(net, ec, counts, masks[from_filter], masks[f])
        points.append(point)
        rows.append(selection)
    results = []
    for (observed, expected), values in zip(points, _resampled(net, rows, resamples, seed)):
        columns = [column[~np.isnan(column)] for column in values.T]
        cis = [tuple(_percentiles(c, (2.5, 97.5)).tolist()) if c.size >= 2 else None
               for c in columns]
        results.append(BootstrapCIs(dict(zip(KNOWN_CATEGORIES, cis)),
                                    dict(zip(KNOWN_CATEGORIES, [c.size for c in columns])),
                                    dict(zip(GenderCategory, observed.tolist())),
                                    dict(zip(GenderCategory, expected.tolist()))))
    return results


def _resampled(net: CitationNetwork, folded: list[np.ndarray], resamples: int,
               seed: int) -> np.ndarray:
    """Per selection, resample and known category, the over/under-citation
    of the resample (NaN where undefined), from the rows :func:`_fold`
    gives each selection, which leave ``folded`` once in the table."""
    n, k = net.n, len(KNOWN_CATEGORIES)
    values = np.full((len(folded), resamples, k), np.nan)
    if not (resamples and folded):
        return values
    bits = 53 - n.bit_length()
    # per selection, how many limbs cut its expected rows
    limbs = [_limb_count(selection[k:], bits) for selection in folded]

    # the table: per selection, its observed rows, then its limbs' rows;
    # layout holds a selection's first row and its limbs' exponents
    table = np.empty((k * (len(folded) + sum(limbs)), n))
    layout, row = [], 0
    for count in limbs:
        selection = folded.pop(0)
        rows = table[row:row + k * (1 + count)].reshape(1 + count, k, n)
        rows[0] = selection[:k]
        exponents = []
        for limb, exponent in fixed_point_limbs(selection[k:], bits, count):
            rows[1 + len(exponents)] = limb
            exponents.append(exponent)
        layout.append((row, exponents))
        row += k * (1 + count)

    block = np.empty((_BLOCK, n))
    panel = max(1, _PANEL_WORK // (len(table) * _BLOCK))
    sequence = np.random.SeedSequence(seed)
    for start in range(0, resamples, _BLOCK):
        size = min(_BLOCK, resamples - start)
        # the children of successive spawns are those of one spawn
        for r, child in enumerate(sequence.spawn(size)):
            rng = np.random.default_rng(child)
            block[r] = np.bincount(rng.integers(0, n, n), minlength=n)
        # the product over panels of papers, each an exact integer sum
        product = np.zeros((len(table), size))
        for a in range(0, n, panel):
            product += table[:, a:a + panel] @ block[:size, a:a + panel].T
        for s, (first, exponents) in enumerate(layout):
            rows = product[first:first + k * (1 + len(exponents))].reshape(-1, k, size)
            observed, expected = rows[0], np.zeros((k, size))
            for limb, exponent in zip(rows[1:], exponents):
                expected += np.ldexp(limb, exponent)
            ratio = np.full((k, size), np.nan)
            np.divide(observed - expected, expected, out=ratio, where=expected > 0)
            values[s, start:start + size] = ratio.T
    return values


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
) -> list[ImbalanceReport]:
    """Full per-category report: counts, expectations, over/under, CI.

    ``resamples=0`` skips the bootstrap (CIs reported as None).
    """
    return _reports(net, ec, from_filter, [to_filter], [None], resamples, seed)


def stratified_imbalance(
    net: CitationNetwork,
    ec: ExpectedCitations,
    field: str,
    resamples: int = 500,
    seed: int = 0,
) -> list[ImbalanceReport]:
    """Per-stratum reports with to = papers in the stratum, from = all.

    ``field`` is ``rank`` or ``subfield``; strata are the labels of that
    attribute's codes (ranks present in prestige order, subfields
    sorted).  The strata share the bootstrap draws.
    """
    if field not in STRATIFIERS:
        raise ValueError(f"unknown stratifier {field!r} (use {STRATIFIERS})")
    strata = net.attribute_codes(field)[1]
    to_filters = [PaperFilter(f"{field}={value}", ((field, value),)) for value in strata]
    return _reports(net, ec, ALL_PAPERS, to_filters, strata, resamples, seed)


def _reports(net: CitationNetwork, ec: ExpectedCitations, from_filter: PaperFilter,
             to_filters: Sequence[PaperFilter], strata: Sequence[str | None],
             resamples: int, seed: int) -> list[ImbalanceReport]:
    """The reports of every to-selection, each labelled with its stratum,
    from one :func:`bootstrap_ci` call over all of them."""
    reports = []
    cis = bootstrap_ci(net, ec, from_filter, to_filters, resamples, seed)
    for to_filter, stratum, ci in zip(to_filters, strata, cis):
        for g in KNOWN_CATEGORIES:
            low, high = ci[g] or (None, None)
            n_obs, n_expected = ci.observed[g], ci.expected[g]
            reports.append(ImbalanceReport(
                gender=g, n_obs=n_obs, n_expected=n_expected,
                over_under=over_under(n_obs, n_expected), ci_low=low, ci_high=high,
                model=ec.model, from_filter=from_filter.description,
                to_filter=to_filter.description, stratum=stratum,
                resamples_defined=ci.defined[g]))
    return reports


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
    rows = [["" if row[c] is None else _format(row[c]) for c in _CSV_COLUMNS]
            for row in report_rows(reports)]
    write_table(path, _CSV_COLUMNS, zip(*rows), ",")


def write_report_json(reports: Iterable[ImbalanceReport], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_rows(reports), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _format(value: object) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)
