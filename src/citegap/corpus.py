"""Paper tables, citation filtering, and cross-source record matching.

The corpus layer turns raw paper/citation tables into an immutable
:class:`CitationNetwork`: papers indexed 0..N-1, de-duplicated directed
edges that survive the date-window and self-citation rules, and no
isolated papers.  Everything downstream (reference models, imbalance,
rankings) reads this structure and never mutates it.

A network is columnar: a :class:`PaperTable` of ids, ``datetime64[D]``
dates and integer codes per attribute, plus the edges.  Loading a file
builds no per-paper record.  Each table is read once and split into
fields.  The paper table becomes one array per column; dates,
gender/rank tokens and ids are checked and encoded as arrays, with a
per-row fallback only for non-canonical dates and a loop only over the
rows that draw a warning.  Citation ids stay ``str`` objects and resolve
to paper rows through one dict.  Every table is written by
:func:`write_table`, as :mod:`csv` writes it.  ``Paper`` records
remain where a record is the API (:mod:`citegap.synth`, record matching)
and as :attr:`PaperTable.papers`, a view built on first use.

Input formats (UTF-8, tab-delimited, header row):

* paper table: ``id pub_date gender rank country topic subfield
  first_author last_author`` with ISO dates (``YYYY-MM-DD`` or ``YYYY``;
  a bare year maps to January 1 of that year);
* citation table: ``citing_id cited_id``;
* record-match table: ``title year last_names`` with ``;``-joined last names.

Fields are stripped of surrounding whitespace.  Fields may be quoted as
:mod:`csv` quotes them (holding tabs, quotes or newlines); CRLF line
endings and blank lines are accepted.  A row :mod:`csv` rejects (a
quoted field past its 131,072-character limit) raises
:class:`ParseError` naming the line.
"""
from __future__ import annotations

import csv
import io
import logging
from collections import Counter
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from functools import cached_property
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Sequence, TextIO

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


def _split_fields(text: str, width: int) -> list[str] | None:
    """Every field of ``text``, row after row, split at each tab and
    newline; ``None`` unless each line holds exactly ``width`` fields (so
    no line is blank) and the text holds no quote, carriage return or NUL,
    the characters :mod:`csv` treats specially."""
    body = text[:-1] if text.endswith("\n") else text
    if not body or '"' in body or "\r" in body or "\x00" in body:
        return None
    # tabs and newlines are single bytes in UTF-8, never part of another
    # character; row by row, the separators must read width - 1 tabs and
    # a newline (the last line's newline appended)
    raw = np.frombuffer(body.encode("utf-8"), dtype=np.uint8)
    separators = np.append(raw[(raw == 9) | (raw == 10)], 10)
    if separators.size % width:
        return None
    expected = np.array([9] * (width - 1) + [10], dtype=np.uint8)
    if not (separators.reshape(-1, width) == expected).all():
        return None
    return body.replace("\n", "\t").split("\t")


def _csv_rows(text: str, width: int
              ) -> tuple[list[str], list[list[str]], list[int], Exception | None]:
    """The header, the rows and their line numbers, read with :mod:`csv`
    (quoted fields, CRLF, blank lines), stopping at the first row without
    ``width`` fields or that :mod:`csv` rejects; that error, a
    :class:`ParseError`, comes last, ``None`` if every row was read.  A
    header :mod:`csv` rejects raises at once."""
    reader = csv.reader(io.StringIO(text, newline=""), delimiter="\t")
    try:
        header = next(reader, [])
    except csv.Error as exc:
        raise ParseError(f"line 1: {exc}") from exc
    rows: list[list[str]] = []
    lines: list[int] = []
    lineno = 1
    try:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ParseError(
                    f"line {lineno}: expected {width} columns, got {len(row)}"
                )
            rows.append(row)
            lines.append(lineno)
    except ParseError as exc:
        return header, rows, lines, exc
    except csv.Error as exc:
        # the row after the last one read
        return header, rows, lines, ParseError(f"line {lineno + 1}: {exc}")
    return header, rows, lines, None


def _table(stream: TextIO, columns: Sequence[str], what: str
           ) -> tuple[list[str], np.ndarray, Exception | None]:
    """Read a tab-delimited table with a ``columns`` header row.

    Returns the fields of the rows, row after row and not stripped, the
    line number of each row, and the error of the first malformed row (the
    rows before it are returned; callers raise it once those rows have
    raised their own errors), ``None`` if there is none.  Text that
    :func:`_split_fields` accepts is split at once; any other goes row by
    row through :mod:`csv`, which names a malformed line.  The stream is
    read as a file opened with ``newline=""`` presents it.
    """
    text = stream.read()
    width = len(columns)
    fields = _split_fields(text, width)
    if fields is None:
        header, rows, lines, error = _csv_rows(text, width)
        fields = [f for row in rows for f in row]
    else:
        header, fields, error = fields[:width], fields[width:], None
        lines = range(2, 2 + len(fields) // width)
    if [h.strip() for h in header] != list(columns):
        raise ParseError(f"line 1: expected {what} header {' '.join(columns)!r}")
    return fields, np.array(lines, dtype=np.int64), error


def _columns(fields: list[str], columns: Sequence[str]) -> dict[str, np.ndarray]:
    """One array of stripped ``str`` fields per column of the rows
    ``fields``."""
    width = len(columns)
    return {name: np.char.strip(np.array(fields[k::width], dtype=str))
            for k, name in enumerate(columns)}


def _parse_dates(texts: np.ndarray) -> tuple[np.ndarray, tuple[int, ValueError] | None]:
    """:func:`parse_pub_date` of each field as ``datetime64[D]``, and the
    row and error of the first that does not parse (``None`` if all do).

    ``YYYY-MM-DD`` and ``YYYY`` in ASCII digits with a year of at least 1
    are read as arrays; any other text (``0000``, ``20100105``, non-ASCII
    digits, a day past the month's end) goes to :func:`parse_pub_date`.
    """
    width = max(texts.dtype.itemsize // 4, 10)
    chars = texts.astype(f"U{width}").view(np.uint32).reshape(texts.size, width)
    digit = (chars >= ord("0")) & (chars <= ord("9"))
    d = chars[:, :10].astype(np.int64) - ord("0")
    year = d[:, 0] * 1000 + d[:, 1] * 100 + d[:, 2] * 10 + d[:, 3]
    bare_year = digit[:, :4].all(axis=1) & ~chars[:, 4:].any(axis=1)
    iso = (digit[:, [0, 1, 2, 3, 5, 6, 8, 9]].all(axis=1) & (chars[:, 4] == ord("-"))
           & (chars[:, 7] == ord("-")) & ~chars[:, 10:].any(axis=1))
    month = np.where(iso, d[:, 5] * 10 + d[:, 6], 1)
    day = np.where(iso, d[:, 8] * 10 + d[:, 9], 1)
    months = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    dates = months.astype("datetime64[D]") + (day - 1)
    # a day past the month's end spills into the next month
    valid = ((bare_year | iso) & (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
             & (dates.astype("datetime64[M]") == months))
    for k in np.flatnonzero(~valid).tolist():
        try:
            dates[k] = parse_pub_date(texts[k].item())
        except ValueError as exc:
            return dates, (k, exc)
    return dates, None


#: the gender tokens, each at its :data:`GENDER_CODE`
_GENDER_TOKENS = np.array([g.value for g in GenderCategory])
#: the rank tokens in prestige order
_RANK_TOKENS = np.array([r.value for r in RANK_ORDER])
#: columns labelled with the values present, not a fixed vocabulary
_PRESENT_LABELS = ("rank", "country", "topic", "subfield")


def _lookup(values: np.ndarray, tokens: np.ndarray, default: int) -> np.ndarray:
    """Index of each value in ``tokens``, ``default`` where it is absent;
    one dict lookup per distinct value."""
    distinct, inverse = np.unique(values, return_inverse=True)
    index = {token: code for code, token in enumerate(tokens.tolist())}
    found = [index.get(v, default) for v in distinct.tolist()]
    return np.array(found, dtype=np.int64)[inverse.reshape(-1)]


def _present(codes: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``codes`` renumbered over the labels that occur, in label order."""
    used, inverse = np.unique(codes, return_inverse=True)
    return inverse.reshape(-1), labels[used]


def _encode(values: dict[str, np.ndarray], dates: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """The :class:`PaperTable` columns of the str ``values`` of each
    :data:`PAPER_COLUMNS` entry but the date; unknown gender and rank
    tokens become UNKNOWN and Unranked."""
    unknown = GENDER_CODE[GenderCategory.UNKNOWN]
    unranked = RANK_ORDER.index(ConferenceRank.UNRANKED)
    codes = {
        "gender": (_lookup(values["gender"], _GENDER_TOKENS, unknown), _GENDER_TOKENS),
        "rank": _present(_lookup(values["rank"], _RANK_TOKENS, unranked), _RANK_TOKENS),
    }
    for name in ("country", "topic", "subfield"):
        labels, inverse = np.unique(values[name], return_inverse=True)
        codes[name] = inverse.reshape(-1), labels
    # one vocabulary for both roles, so the author rule compares codes
    n = dates.size
    authors, inverse = np.unique(
        np.concatenate((values["first_author"], values["last_author"])),
        return_inverse=True)
    inverse = inverse.reshape(-1)
    codes["first_author"] = inverse[:n], authors
    codes["last_author"] = inverse[n:], authors
    return values["id"], dates, codes


@dataclass(frozen=True, eq=False)
class PaperTable:
    """The paper table as columns, one row per paper.

    ``ids`` is a ``str`` array and ``dates`` a ``datetime64[D]`` array;
    ``codes`` maps each other column of :data:`PAPER_COLUMNS` to per-paper
    integer codes and the label of each code (a ``str`` array):

    * gender codes are :data:`GENDER_CODE`, labelled with every category;
    * rank, country, topic and subfield are labelled with the values
      present, ranks in prestige order and the others sorted;
    * first_author and last_author share one sorted vocabulary of names.

    Every array is read-only.  The corpus rules (:meth:`in_window`,
    :meth:`citable`) read these columns.
    """

    ids: np.ndarray
    dates: np.ndarray
    codes: dict[str, tuple[np.ndarray, np.ndarray]]

    def __post_init__(self) -> None:
        for array in (self.ids, self.dates, *chain.from_iterable(self.codes.values())):
            array.setflags(write=False)

    @classmethod
    def from_columns(cls, values: dict[str, np.ndarray], dates: np.ndarray,
                     *args, **kwargs):
        """The table of one ``str`` array per :data:`PAPER_COLUMNS` entry
        but the date, and the ``datetime64[D]`` dates; further arguments
        go to the constructor."""
        return cls(*_encode(values, dates), *args, **kwargs)

    @classmethod
    def from_papers(cls, papers: Sequence[Paper], *args, **kwargs):
        """The table of ``Paper`` records; further arguments go to the
        constructor, so ``CitationNetwork.from_papers(papers, edges)``
        builds a network."""
        values = {name: [getattr(p, name) for p in papers] for name in PAPER_COLUMNS}
        dates = np.array(values.pop("pub_date"), dtype="datetime64[D]")
        for name in ("gender", "rank"):
            values[name] = [v.value for v in values[name]]
        columns = {name: np.array(v, dtype=str) for name, v in values.items()}
        return cls.from_columns(columns, dates, *args, **kwargs)

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def gender_codes(self) -> np.ndarray:
        """Per paper, :data:`GENDER_CODE` of its category."""
        return self.codes["gender"][0]

    @property
    def author_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, last) author ids encoded over a shared vocabulary."""
        return self.codes["first_author"][0], self.codes["last_author"][0]

    @cached_property
    def index_of(self) -> dict[str, int]:
        """The row of each id (the last row holding it, if several do)."""
        return dict(zip(self.ids.tolist(), range(self.n)))

    @cached_property
    def window_floors(self) -> np.ndarray:
        return citation_window_floors(self.dates)

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

    def attribute_codes(self, field: str) -> tuple[np.ndarray, tuple[str, ...]]:
        """Per-paper integer codes for one of :data:`SELECTABLE_FIELDS`, and
        the label of each code.

        Gender codes are :attr:`gender_codes`, labelled with every
        category; ranks present are labelled in prestige order, the values
        of other fields in sorted order.
        """
        if field not in SELECTABLE_FIELDS:
            raise ValueError(f"unknown attribute {field!r}")
        codes, labels = self.codes[field]
        return codes, tuple(labels.tolist())

    def _text(self) -> list[list]:
        """Per column of :data:`PAPER_COLUMNS`, its values (dates as
        ``date`` objects)."""
        return [self.ids.tolist(), self.dates.tolist(),
                *(labels[codes].tolist() for codes, labels in self.codes.values())]

    @cached_property
    def papers(self) -> tuple[Paper, ...]:
        """The rows as ``Paper`` records, built on first use; the corpus,
        the models and the CLI read the columns instead."""
        return tuple(
            Paper(pid, day, GenderCategory(gender), ConferenceRank(rank), *rest)
            for pid, day, gender, rank, *rest in zip(*self._text())
        )

    def _subset(self, rows: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, dict[str, tuple[np.ndarray, np.ndarray]]]:
        """The columns of the papers ``rows`` (ascending), labels
        narrowed to the values they hold."""
        codes = {}
        for name, (column, labels) in self.codes.items():
            codes[name] = (_present(column[rows], labels) if name in _PRESENT_LABELS
                           else (column[rows], labels))
        return self.ids[rows], self.dates[rows], codes


def parse_papers(stream: TextIO) -> PaperTable:
    """Parse the paper table.  Unknown gender/rank tokens fall back to
    UNKNOWN/Unranked with a logged warning; bad dates or column counts
    raise :class:`ParseError` naming the line (after the warnings of the
    lines before it)."""
    fields, lines, error = _table(stream, PAPER_COLUMNS, "paper")
    values = _columns(fields, PAPER_COLUMNS)
    dates, failed = _parse_dates(values["pub_date"])
    stop = len(lines) if failed is None else failed[0]
    bad_gender = ~np.isin(values["gender"], _GENDER_TOKENS)
    bad_rank = ~np.isin(values["rank"], _RANK_TOKENS)
    # only the rows with an unknown token are visited
    for k in np.flatnonzero((bad_gender | bad_rank)[:stop]).tolist():
        lineno, pid = int(lines[k]), values["id"][k].item()
        if bad_gender[k]:
            log.warning(
                "line %d: unknown gender token %r for paper %s, using UNKNOWN",
                lineno, values["gender"][k].item(), pid,
            )
        if bad_rank[k]:
            log.warning(
                "line %d: unknown rank token %r for paper %s, using Unranked",
                lineno, values["rank"][k].item(), pid,
            )
    if failed is not None:
        k, exc = failed
        raw_date = values["pub_date"][k].item()
        raise ParseError(f"line {lines[k]}: bad pub_date {raw_date!r}: {exc}") from exc
    if error is not None:
        raise error
    return PaperTable.from_columns(values, dates)


def parse_citations(stream: TextIO) -> np.ndarray:
    """Parse the citation table into an (M, 2) ``object`` array of
    stripped (citing_id, cited_id) ``str`` rows."""
    fields, _, error = _table(stream, CITATION_COLUMNS, "citation")
    if error is not None:
        raise error
    ids = np.fromiter(map(str.strip, fields), dtype=object, count=len(fields))
    if "\x00" in "".join(fields):
        # read as the paper ids are: a str array drops trailing NULs
        ids = np.char.strip(np.array(fields, dtype=str)).astype(object)
    return ids.reshape(-1, 2)


def parse_publication_records(stream: TextIO) -> list[PublicationRecord]:
    """Parse the record-match table (last names ``;``-joined)."""
    fields, lines, error = _table(stream, RECORD_COLUMNS, "record")
    values = _columns(fields, RECORD_COLUMNS)
    records = []
    for lineno, title, raw_year, raw_names in zip(
            lines.tolist(), *(values[name].tolist() for name in RECORD_COLUMNS)):
        try:
            year = int(raw_year)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad year {raw_year!r}") from exc
        names = tuple(n.strip() for n in raw_names.split(";") if n.strip())
        if not names:
            raise ParseError(f"line {lineno}: empty last_names")
        records.append(PublicationRecord(title, year, names))
    if error is not None:
        raise error
    return records


@dataclass(frozen=True, eq=False)
class CitationNetwork(PaperTable):
    """Immutable filtered citation network: a :class:`PaperTable` of the
    papers, indexed 0..N-1, and their citations.

    ``edges`` is an (M, 2) integer array of (citing, cited) index pairs,
    lexicographically sorted, without duplicates or self-loops.  Construct
    through :func:`filter_citations`, which establishes the invariants
    (every edge :meth:`citable`, no isolated papers) and records in
    ``filter_counts`` what each rule dropped.
    """

    edges: np.ndarray
    filter_counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)

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


def filter_citations(
    papers: PaperTable | Sequence[Paper],
    raw_edges: np.ndarray | Iterable[tuple[str, str]],
) -> CitationNetwork:
    """Resolve citation ids to paper rows and apply :func:`filter_edges`.

    ``papers`` is a :class:`PaperTable` or a sequence of ``Paper``
    records, ``raw_edges`` an (M, 2) array of ``str`` ids (as
    :func:`parse_citations` returns it) or (citing_id, cited_id) pairs.
    Ids are resolved through :attr:`PaperTable.index_of`.  Raises
    :class:`IngestError` naming the first paper whose id an earlier paper
    holds, else the first citation with an unknown id (its citing id
    first).
    """
    table = papers if isinstance(papers, PaperTable) else PaperTable.from_papers(papers)
    if not isinstance(raw_edges, np.ndarray):
        raw_edges = np.array(list(raw_edges), dtype=str)
    tokens = raw_edges.ravel().tolist()
    index = table.index_of
    if len(index) < table.n:
        seen = set()
        for pid in table.ids.tolist():
            if pid in seen:
                raise IngestError(f"duplicate paper id {pid!r}")
            seen.add(pid)
    try:
        rows = np.fromiter(map(index.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    except KeyError:
        known = np.fromiter(map(index.__contains__, tokens), dtype=bool,
                            count=len(tokens)).reshape(-1, 2)
        row = int(np.argmin(known.all(axis=1)))
        u, v = tokens[2 * row:2 * row + 2]
        which, bad = ("citing", u) if not known[row, 0] else ("cited", v)
        raise IngestError(f"citation ({u!r}, {v!r}): unknown {which} id {bad!r}") from None
    return filter_edges(table, rows.reshape(-1, 2))


def filter_edges(table: PaperTable, edges: np.ndarray) -> CitationNetwork:
    """Apply the corpus filtering rules to the (M, 2) (citing, cited) row
    pairs ``edges`` of ``table`` and build the network.

    De-duplicates edges, removes edges that are not
    :meth:`CitationNetwork.citable`, drops papers left without any
    citation in either direction, and reindexes the survivors (original
    paper order preserved, edges sorted).  The returned network's
    ``filter_counts`` holds ``duplicates``, ``out_of_window``,
    ``self_citations`` (in-window edges only, so each dropped edge counts
    once), ``isolated_papers`` and ``later_dated_kept`` (kept citations to
    later-dated papers).  Its ``window_floors`` are the rows of the ones
    the rules were evaluated on.  Idempotent: re-filtering a network's own
    papers/edges is a no-op.
    """
    n = table.n
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    # one key i*N + j per raw pair, sorted by (i, j), each kept once
    keys = np.sort(edges[:, 0] * n + edges[:, 1])
    unique = keys[np.diff(keys, prepend=-1) != 0]
    citing, cited = np.divmod(unique, max(n, 1))
    in_window = table.in_window(citing, cited)
    keep = table.citable(citing, cited)
    kept = np.stack((citing[keep], cited[keep]), axis=1)
    cites = np.zeros(n, dtype=bool)
    cites[kept] = True
    survivors = np.flatnonzero(cites)
    counts = {
        "duplicates": int(keys.size - unique.size),
        "out_of_window": int(np.count_nonzero(~in_window)),
        "self_citations": int(np.count_nonzero(in_window & ~keep)),
        "isolated_papers": int(n - survivors.size),
        "later_dated_kept": int(np.count_nonzero(
            table.dates[kept[:, 1]] > table.dates[kept[:, 0]])),
    }
    net = CitationNetwork(*table._subset(survivors), (np.cumsum(cites) - 1)[kept], counts)
    # the survivors' floors are rows of the ones the rules just read
    vars(net)["window_floors"] = table.window_floors[survivors]
    return net


def read_papers(path: str | Path) -> PaperTable:
    with open(path, encoding="utf-8", newline="") as fh:
        return parse_papers(fh)


def read_citations(path: str | Path) -> np.ndarray:
    with open(path, encoding="utf-8", newline="") as fh:
        return parse_citations(fh)


def load_network(papers_path: str | Path, citations_path: str | Path) -> CitationNetwork:
    """Parse both tables and run the filter."""
    return filter_citations(read_papers(papers_path), read_citations(citations_path))


#: rows written per block, so a table's text is never held whole
_BLOCK_ROWS = 1 << 14


def _quoted(fields: Sequence[str], delimiter: str) -> Sequence[str]:
    """``fields`` as a :mod:`csv` writer with ``delimiter`` writes them.

    The few fields holding the delimiter, a quote, ``\n``, ``\r`` or NUL
    go through :mod:`csv` itself, whose rules for the last two differ
    between Python versions (3.11 leaves a ``\r`` bare under a ``\n``
    line end); the joined fields are searched once, so a list holding none
    of them is returned as it is.
    """
    special = (delimiter, '"', "\n", "\r", "\x00")
    joined = "".join(fields)
    if not any(c in joined for c in special):
        return fields
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter, lineterminator="\n")

    def field(value: str) -> str:
        if not any(c in value for c in special):
            return value
        buffer.seek(0)
        buffer.truncate()
        writer.writerow([value])
        return buffer.getvalue()[:-1]

    return [field(v) for v in fields]


def write_table(path: str | Path, header: Sequence[str],
                columns: Iterable[Sequence[str]], delimiter: str = "\t") -> None:
    """Write the ``header`` row and the rows of ``columns`` (one sequence
    of ``str`` fields per column) as a :mod:`csv` writer with
    ``delimiter`` and ``\n`` line ends writes them, a block of rows at a
    time."""
    rows = map(delimiter.join, zip(*(_quoted(c, delimiter) for c in columns)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(delimiter.join(_quoted(header, delimiter)) + "\n")
        while block := list(islice(rows, _BLOCK_ROWS)):
            fh.write("\n".join(block) + "\n")


def write_papers(table: PaperTable, path: str | Path) -> None:
    """Write the paper table (dates in ISO format), quoted as :mod:`csv`
    quotes."""
    columns = table._text()
    columns[1] = np.datetime_as_string(table.dates, unit="D").tolist()
    write_table(path, PAPER_COLUMNS, columns)


def write_citations(net: CitationNetwork, path: str | Path) -> None:
    ids = net.ids.tolist()
    write_table(path, CITATION_COLUMNS,
                (list(map(ids.__getitem__, end.tolist())) for end in net.edges.T))
