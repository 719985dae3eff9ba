"""Paper tables, citation filtering, and cross-source record matching.

The corpus layer turns raw paper/citation tables into an immutable
:class:`CitationNetwork`: papers indexed 0..N-1, de-duplicated directed
edges that survive the date-window and self-citation rules, and no
isolated papers.  Everything downstream (reference models, imbalance,
rankings) reads this structure and never mutates it.

Input formats (UTF-8, tab-delimited, header row):

* paper table: ``id pub_date gender rank country topic subfield
  first_author last_author`` with ISO dates (``YYYY-MM-DD`` or ``YYYY``;
  a bare year maps to January 1 of that year);
* citation table: ``citing_id cited_id``;
* record-match table: ``title year last_names`` with ``;``-joined last names.
"""
from __future__ import annotations

import csv
import logging
from collections import Counter
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, NoReturn, Sequence

import numpy as np

log = logging.getLogger(__name__)

PAPER_COLUMNS = (
    "id",
    "pub_date",
    "gender",
    "rank",
    "country",
    "topic",
    "subfield",
    "first_author",
    "last_author",
)
CITATION_COLUMNS = ("citing_id", "cited_id")
RECORD_COLUMNS = ("title", "year", "last_names")

#: attributes usable for homophilic grouping, in canonical order
ATTRIBUTE_ORDER = ("rank", "country", "topic")

#: paper attributes a selection can test, each encoded by
#: :meth:`CitationNetwork.attribute_codes`
SELECTABLE_FIELDS = ("gender", "rank", "country", "topic", "subfield")

#: citations reaching more than this many calendar years into the past are dropped
CITATION_WINDOW_YEARS = 10

#: title edit-distance ratio above which two records do not match
TITLE_DISTANCE_RATIO = 0.25


class ParseError(ValueError):
    """Malformed row in an input table; the message names the line."""


class IngestError(ValueError):
    """Citation edges reference unknown paper ids, or paper ids collide."""


class GenderCategory(str, Enum):
    """First/last-author gender combination of a paper."""

    MM = "MM"
    MW = "MW"
    WM = "WM"
    WW = "WW"
    UNKNOWN = "UNKNOWN"


#: categories with a woman as first and/or last author
W_CATEGORIES = frozenset(
    {GenderCategory.MW, GenderCategory.WM, GenderCategory.WW}
)

#: the four known categories, in reporting order
KNOWN_CATEGORIES = (
    GenderCategory.MM,
    GenderCategory.MW,
    GenderCategory.WM,
    GenderCategory.WW,
)


class ConferenceRank(str, Enum):
    A_STAR = "A*"
    A = "A"
    B = "B"
    C = "C"
    UNRANKED = "Unranked"


#: ranks from most to least prestigious
RANK_ORDER = (
    ConferenceRank.A_STAR,
    ConferenceRank.A,
    ConferenceRank.B,
    ConferenceRank.C,
    ConferenceRank.UNRANKED,
)

#: the code of each category in :attr:`CitationNetwork.gender_codes`
GENDER_CODE = {g: i for i, g in enumerate(GenderCategory)}


@dataclass(frozen=True)
class Paper:
    """One paper (node) with the metadata the models condition on."""

    id: str
    pub_date: date
    gender: GenderCategory
    rank: ConferenceRank
    country: str
    topic: str
    subfield: str
    first_author: str
    last_author: str


@dataclass(frozen=True)
class PublicationRecord:
    """Minimal view of a publication used for cross-source matching."""

    title: str
    year: int
    author_last_names: tuple[str, ...]


def gender_category(
    first: str | None, last: str | None, sole_author: bool = False
) -> GenderCategory:
    """Combine first/last author genders into a paper category.

    ``first`` / ``last`` are ``"M"``, ``"W"``, or anything else for
    unknown.  Sole-author papers take the category from the single
    author; any unknown input yields :data:`GenderCategory.UNKNOWN`.
    """
    f = first if first in ("M", "W") else None
    if sole_author:
        if f == "M":
            return GenderCategory.MM
        if f == "W":
            return GenderCategory.WW
        return GenderCategory.UNKNOWN
    l = last if last in ("M", "W") else None
    if f is None or l is None:
        return GenderCategory.UNKNOWN
    return GenderCategory(f + l)


def levenshtein(a: str, b: str) -> int:
    """Minimum number of single-character edits (insert, delete,
    substitute) transforming ``a`` into ``b``."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + (ca != cb),
                )
            )
        previous = current
    return previous[-1]


def _normalize_title(title: str) -> str:
    # case-fold and collapse runs of whitespace; raw-byte comparison would
    # break on trivial formatting differences between sources
    return " ".join(title.casefold().split())


def match_records(a: PublicationRecord, b: PublicationRecord) -> bool:
    """True iff the two records describe the same publication.

    Requires equal years, equal author-last-name multisets, and
    normalized titles whose edit distance is at most 25% of the longer
    title's length.  Two empty titles never match (the ratio is
    undefined).
    """
    if a.year != b.year:
        return False
    if Counter(a.author_last_names) != Counter(b.author_last_names):
        return False
    ta, tb = _normalize_title(a.title), _normalize_title(b.title)
    longer = max(len(ta), len(tb))
    if longer == 0:
        return False
    return levenshtein(ta, tb) / longer <= TITLE_DISTANCE_RATIO


def last_name(author: str) -> str:
    """Final whitespace-separated token of an author name string."""
    parts = author.split()
    return parts[-1] if parts else ""


def citation_window_floor(d: date) -> date:
    """Earliest publication date still citable from a paper dated ``d``."""
    try:
        return d.replace(year=d.year - CITATION_WINDOW_YEARS)
    except ValueError:
        # Feb 29 mapped into a non-leap year
        return d.replace(year=d.year - CITATION_WINDOW_YEARS, day=28)


def citation_window_floors(dates: np.ndarray) -> np.ndarray:
    """:func:`citation_window_floor` of each ``datetime64[D]`` date: the
    same day of the month ten years back, clamped to that month's last
    day (so Feb 29 maps to Feb 28)."""
    months = dates.astype("datetime64[M]")
    day = dates - months.astype("datetime64[D]")
    floor_month = months - 12 * CITATION_WINDOW_YEARS
    first = floor_month.astype("datetime64[D]")
    last = (floor_month + 1).astype("datetime64[D]") - np.timedelta64(1, "D")
    return np.minimum(first + day, last)


def category_key(paper: Paper, attributes: Iterable[str]) -> tuple:
    """Projection of a paper onto an attribute subset, in canonical order."""
    return tuple(getattr(paper, a) for a in canonical_attributes(attributes))


def canonical_attributes(attributes: Iterable[str]) -> tuple[str, ...]:
    """Attribute subset as a tuple in canonical order, validated."""
    selected = frozenset(attributes)
    unknown = selected - set(ATTRIBUTE_ORDER)
    if unknown:
        raise ValueError(f"unknown attributes: {sorted(unknown)}")
    return tuple(a for a in ATTRIBUTE_ORDER if a in selected)


def parse_pub_date(text: str) -> date:
    """ISO date or bare year (mapped to January 1)."""
    text = text.strip()
    if len(text) == 4 and text.isdigit():
        return date(int(text), 1, 1)
    return date.fromisoformat(text)


def _rows(
    stream: Iterable[str], columns: Sequence[str], what: str
) -> Iterator[tuple[int, list[str]]]:
    """Validated (line number, fields) pairs from a tab-delimited stream."""
    reader = csv.reader(stream, delimiter="\t")
    header = next(reader, None)
    if header is None or tuple(h.strip() for h in header) != tuple(columns):
        raise ParseError(
            f"line 1: expected {what} header {' '.join(columns)!r}"
        )
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(columns):
            raise ParseError(
                f"line {lineno}: expected {len(columns)} columns, got {len(row)}"
            )
        yield lineno, row


def parse_papers(stream: Iterable[str]) -> list[Paper]:
    """Parse the paper table.  Unknown gender/rank tokens fall back to
    UNKNOWN/Unranked with a logged warning; bad dates or column counts
    raise :class:`ParseError` naming the line."""
    papers = []
    for lineno, row in _rows(stream, PAPER_COLUMNS, "paper"):
        pid, raw_date, raw_gender, raw_rank, country, topic, subfield, first, last_ = (
            field.strip() for field in row
        )
        try:
            pub = parse_pub_date(raw_date)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad pub_date {raw_date!r}: {exc}") from exc
        try:
            gender = GenderCategory(raw_gender)
        except ValueError:
            log.warning(
                "line %d: unknown gender token %r for paper %s, using UNKNOWN",
                lineno, raw_gender, pid,
            )
            gender = GenderCategory.UNKNOWN
        try:
            rank = ConferenceRank(raw_rank)
        except ValueError:
            log.warning(
                "line %d: unknown rank token %r for paper %s, using Unranked",
                lineno, raw_rank, pid,
            )
            rank = ConferenceRank.UNRANKED
        papers.append(
            Paper(pid, pub, gender, rank, country, topic, subfield, first, last_)
        )
    return papers


def parse_citations(stream: Iterable[str]) -> list[tuple[str, str]]:
    """Parse the citation table into (citing_id, cited_id) pairs."""
    return [
        (row[0].strip(), row[1].strip())
        for _, row in _rows(stream, CITATION_COLUMNS, "citation")
    ]


def parse_publication_records(stream: Iterable[str]) -> list[PublicationRecord]:
    """Parse the record-match table (last names ``;``-joined)."""
    records = []
    for lineno, row in _rows(stream, RECORD_COLUMNS, "record"):
        title, raw_year, raw_names = (field.strip() for field in row)
        try:
            year = int(raw_year)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad year {raw_year!r}") from exc
        names = tuple(n.strip() for n in raw_names.split(";") if n.strip())
        if not names:
            raise ParseError(f"line {lineno}: empty last_names")
        records.append(PublicationRecord(title, year, names))
    return records


@dataclass(frozen=True, eq=False)
class CitationNetwork:
    """Immutable filtered citation network.

    ``papers`` are indexed 0..N-1; ``edges`` is an (M, 2) integer array of
    (citing, cited) index pairs, lexicographically sorted, without
    duplicates or self-loops.  Construct through :func:`filter_citations`,
    which establishes the invariants (every edge :meth:`citable`, no
    isolated papers) and records in ``filter_counts`` what each rule
    dropped.
    """

    papers: tuple[Paper, ...]
    edges: np.ndarray
    filter_counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)

    @property
    def n(self) -> int:
        return len(self.papers)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def out_degree(self) -> np.ndarray:
        return np.bincount(self.edges[:, 0], minlength=self.n)

    @cached_property
    def in_degree(self) -> np.ndarray:
        return np.bincount(self.edges[:, 1], minlength=self.n)

    @cached_property
    def out_targets(self) -> tuple[np.ndarray, ...]:
        """Per paper, the cited indices in edge order (read-only views
        into ``edges``, which are sorted by citer)."""
        return tuple(np.split(self.edges[:, 1], np.cumsum(self.out_degree))[:-1])

    @cached_property
    def index_of(self) -> dict[str, int]:
        return {p.id: i for i, p in enumerate(self.papers)}

    @cached_property
    def ids(self) -> np.ndarray:
        """Per paper, its id (a numpy string array)."""
        return np.array([p.id for p in self.papers], dtype=str)

    @cached_property
    def dates(self) -> np.ndarray:
        return np.array([p.pub_date for p in self.papers], dtype="datetime64[D]")

    @cached_property
    def window_floors(self) -> np.ndarray:
        return citation_window_floors(self.dates)

    @cached_property
    def gender_codes(self) -> np.ndarray:
        """Per paper, :data:`GENDER_CODE` of its category."""
        return np.array([GENDER_CODE[p.gender] for p in self.papers], dtype=np.int64)

    @cached_property
    def author_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, last) author ids encoded over a shared vocabulary."""
        vocab: dict[str, int] = {}
        firsts = np.empty(self.n, dtype=np.int64)
        lasts = np.empty(self.n, dtype=np.int64)
        for i, p in enumerate(self.papers):
            firsts[i] = vocab.setdefault(p.first_author, len(vocab))
            lasts[i] = vocab.setdefault(p.last_author, len(vocab))
        return firsts, lasts

    def in_window(self, citing, cited=slice(None)) -> np.ndarray:
        """Whether ``cited`` is at most ten calendar years older than
        ``citing``; index arrays broadcast, the default ``cited`` is every
        paper."""
        return self.dates[cited] >= self.window_floors[citing]

    def citable(self, citing, cited=slice(None)) -> np.ndarray:
        """Whether ``citing`` may cite ``cited`` under the corpus rules.

        ``cited`` must be :meth:`in_window`, and not both of its first and
        last authors may be among ``citing``'s first/last authors (the
        self-citation rule; a paper never cites itself, as a special
        case).  Later-dated papers pass.  Index arrays broadcast; the
        default ``cited`` is every paper.
        """
        firsts, lasts = self.author_codes
        fi, li = firsts[citing], lasts[citing]
        fj, lj = firsts[cited], lasts[cited]
        shared = ((fj == fi) | (fj == li)) & ((lj == fi) | (lj == li))
        return self.in_window(citing, cited) & ~shared

    @cached_property
    def _attribute_codes(self) -> dict[str, tuple[np.ndarray, tuple[str, ...]]]:
        return {}

    def attribute_codes(self, field: str) -> tuple[np.ndarray, tuple[str, ...]]:
        """Per-paper integer codes for one of :data:`SELECTABLE_FIELDS`, and
        the label of each code; computed once per network.

        Gender codes are :attr:`gender_codes`, labelled with every
        category; ranks present are labelled in prestige order, the values
        of other fields in sorted order.
        """
        cached = self._attribute_codes.get(field)
        if cached is not None:
            return cached
        if field not in SELECTABLE_FIELDS:
            raise ValueError(f"unknown attribute {field!r}")
        if field == "gender":
            result = self.gender_codes, tuple(g.value for g in GenderCategory)
        else:
            if field == "rank":
                values = [p.rank.value for p in self.papers]
                present = set(values)
                labels = tuple(r.value for r in RANK_ORDER if r.value in present)
            else:
                values = [getattr(p, field) for p in self.papers]
                labels = tuple(sorted(set(values)))
            index = {label: i for i, label in enumerate(labels)}
            codes = np.array([index[v] for v in values], dtype=np.int64)
            codes.setflags(write=False)
            result = codes, labels
        self._attribute_codes[field] = result
        return result


def filter_citations(
    papers: Sequence[Paper], raw_edges: Iterable[tuple[str, str]]
) -> CitationNetwork:
    """Apply the corpus filtering rules and build the network.

    De-duplicates edges, removes edges that are not
    :meth:`CitationNetwork.citable`, drops papers left without any
    citation in either direction, and reindexes the survivors (original
    paper order preserved, edges sorted).  The returned network's
    ``filter_counts`` holds ``duplicates``, ``out_of_window``,
    ``self_citations`` (in-window edges only, so each dropped edge counts
    once), ``isolated_papers`` and ``later_dated_kept`` (kept citations to
    later-dated papers).  The returned network's ``dates``,
    ``window_floors`` and ``author_codes`` are taken from the ones the
    rules were evaluated on, not rebuilt.  Idempotent: re-filtering a
    network's own papers/edges is a no-op.
    """
    index: dict[str, int] = {}
    for pos, p in enumerate(papers):
        if p.id in index:
            raise IngestError(f"duplicate paper id {p.id!r}")
        index[p.id] = pos
    n = len(index)

    def unknown(u: str, v: str) -> NoReturn:
        which, bad = ("citing", u) if u not in index else ("cited", v)
        raise IngestError(f"citation ({u!r}, {v!r}): unknown {which} id {bad!r}")

    # one key i*N + j per raw pair; np.unique dedups and sorts by (i, j)
    keys = np.fromiter(
        (index[u] * n + index[v] if u in index and v in index else unknown(u, v)
         for u, v in raw_edges),
        dtype=np.int64,
    )
    unique = np.unique(keys)
    raw = CitationNetwork(tuple(papers), np.stack(np.divmod(unique, n), axis=1))
    citing, cited = raw.edges.T
    in_window = raw.in_window(citing, cited)
    keep = raw.citable(citing, cited)
    kept = raw.edges[keep]
    survivors = np.unique(kept)
    counts = {
        "duplicates": int(keys.size - unique.size),
        "out_of_window": int(np.count_nonzero(~in_window)),
        "self_citations": int(np.count_nonzero(in_window & ~keep)),
        "isolated_papers": int(n - survivors.size),
        "later_dated_kept": int(np.count_nonzero(
            raw.dates[kept[:, 1]] > raw.dates[kept[:, 0]])),
    }
    net = CitationNetwork(tuple(papers[k] for k in survivors.tolist()),
                          np.searchsorted(survivors, kept), counts)
    # the survivors' rule arrays are rows of the ones just built; author
    # codes keep the raw vocabulary, which preserves their equalities
    firsts, lasts = raw.author_codes
    vars(net).update(
        dates=raw.dates[survivors],
        window_floors=raw.window_floors[survivors],
        author_codes=(firsts[survivors], lasts[survivors]),
    )
    return net


def read_papers(path: str | Path) -> list[Paper]:
    with open(path, encoding="utf-8", newline="") as fh:
        return parse_papers(fh)


def read_citations(path: str | Path) -> list[tuple[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return parse_citations(fh)


def load_network(papers_path: str | Path, citations_path: str | Path) -> CitationNetwork:
    """Parse both tables and run the filter."""
    return filter_citations(read_papers(papers_path), read_citations(citations_path))


def write_papers(papers: Iterable[Paper], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(PAPER_COLUMNS)
        for p in papers:
            writer.writerow(
                [
                    p.id,
                    p.pub_date.isoformat(),
                    p.gender.value,
                    p.rank.value,
                    p.country,
                    p.topic,
                    p.subfield,
                    p.first_author,
                    p.last_author,
                ]
            )


def write_citations(net: CitationNetwork, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(CITATION_COLUMNS)
        ids = net.ids
        writer.writerows(zip(ids[net.edges[:, 0]].tolist(), ids[net.edges[:, 1]].tolist()))
