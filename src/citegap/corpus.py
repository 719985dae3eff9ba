"""Paper tables, citation filtering, and cross-source record matching.

The corpus layer turns raw paper/citation tables into an immutable
:class:`CitationNetwork`: papers indexed 0..N-1, de-duplicated directed
edges that survive the date-window and self-citation rules, and no
isolated papers.  Everything downstream (reference models, imbalance,
rankings) reads this structure and never mutates it.

A network is columnar: a :class:`PaperTable` of ids, ``datetime64[D]``
dates and integer codes per attribute, plus the edges.  Loading a file
builds no per-paper record and no ``str`` per field, and keeps no
table-sized copy it does not use.  Each table is read once into one
array of its code points, and every field is a ``[start, end)`` range
of it (:class:`_Fields`): a plain table is cut at its tabs and newlines
at once, any other is read by :mod:`csv` and its fields joined into one
text.  Columns are coded by integer keys packed big-endian from each
field's characters, whose order is code-point order (:func:`_codes`);
dates are parsed as arrays from the fields' characters, with a per-row
fallback only for non-canonical dates, and a loop runs only over the
rows that draw a warning.  Citation ids stay ranges of their table's text
(:class:`CitationIds`) and resolve to paper rows through codes taken
over the paper ids and the citation ids together (:func:`_find`).  Every
table is written by :func:`write_table`, as :mod:`csv` writes it, with
one quoting rule (:func:`_quoted`): a column is given as its fields or
as codes and labels, each label is quoted once, and the archive's rows
are gathered from the network's codes and edges a block at a time.
An archive also stores the network parsed from its tables
(:func:`write_network`), which :func:`read_network` loads and filters
again without parsing the text, when the tables' digests still match.
``Paper`` records remain where a record is the API
(:mod:`citegap.synth`, record matching) and as
:attr:`PaperTable.papers`, a view built on first use.

Input formats (UTF-8, tab-delimited, header row):

* paper table: ``id pub_date gender rank country topic subfield
  first_author last_author`` with ISO dates (``YYYY-MM-DD`` or ``YYYY``;
  a bare year maps to January 1 of that year);
* citation table: ``citing_id cited_id``;
* record-match table: ``title year last_names`` with ``;``-joined last names.

Fields are stripped of whitespace on the left and of whitespace and NUL
on the right, as numpy 2 strips a ``str`` array.  Fields may be quoted as
:mod:`csv` quotes them (holding tabs, quotes or newlines); CRLF line
endings and blank lines are accepted.  A row :mod:`csv` rejects (a
quoted field past its 131,072-character limit) raises
:class:`ParseError` naming the line.
"""
from __future__ import annotations

import csv
import io
import logging
import lzma
import zipfile
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

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


#: the text codec of each code-point array dtype :func:`_chars` makes
_CODECS = {np.dtype(np.uint8): "latin-1", np.dtype(">u4"): "utf-32-be"}

#: per number of characters in a 64-bit word, the mask that keeps the
#: first r characters of a word, at index r
_MASKS = {per: np.array([(1 << 64) - (1 << (64 - 64 // per * r)) for r in range(per + 1)],
                        dtype=np.uint64)
          for per in (2, 8)}

#: whether str.isspace() holds for each code point below 256 (255, which
#: is not a space, stands for any code point above it)
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32, 0x85, 0xA0]] = True
#: the characters stripped from the right of a field: whitespace and NUL
_SPACE_OR_NUL = _SPACE.copy()
_SPACE_OR_NUL[0] = True
#: the code points from 256 up for which str.isspace() holds
_WIDE_SPACES = np.array([0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F,
                         0x3000], dtype=np.uint32)


def _chars(text: str) -> np.ndarray:
    """The code points of ``text``, read-only: one byte each when all are
    below 256, else four big-endian bytes each.  A text shorter than a word
    (8 bytes) is followed by a word of zeros; a longer one is not copied to
    pad it (see :meth:`_Fields.words`).  A lone surrogate, which a ``str``
    given by a caller may hold, is a code point like any other."""
    try:
        data, dtype = text.encode("latin-1"), np.uint8
    except UnicodeEncodeError:
        data, dtype = text.encode("utf-32-be", "surrogatepass"), ">u4"
    return np.frombuffer(data if len(data) >= 8 else data + bytes(8), dtype=dtype)


@dataclass(frozen=True, eq=False)
class _Fields:
    """Text fields as ``[start, end)`` ranges of one :func:`_chars` array.

    A table is read into one such array, and its columns, the paper ids
    and the citation ids are ranges of it: no ``str`` is built per field.
    Fields read from a numpy ``str`` array keep it as ``source``, one
    value per field, so :meth:`strings` gives its values back uncopied.
    """

    chars: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    source: np.ndarray | None = None

    @classmethod
    def joined(cls, values: Sequence[str]) -> _Fields:
        """The fields ``values``, as ranges of their concatenation."""
        lengths = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
        ends = np.cumsum(lengths)
        return cls(_chars("".join(values)), ends - lengths, ends)

    @classmethod
    def of_array(cls, values: np.ndarray) -> _Fields:
        """The values of a numpy ``str`` array, as ranges of its rows."""
        values = np.ascontiguousarray(values, dtype=str).reshape(-1)
        width = values.itemsize // 4
        matrix = values.view(np.uint32).reshape(values.size, width)
        # the rows are padded with NULs: a value ends at its last other character
        lengths = np.zeros(values.size, dtype=np.int64)
        for k in range(width):
            lengths[matrix[:, k] != 0] = k + 1
        dtype = np.dtype(np.uint8 if matrix.max(initial=0) < 256 else ">u4")
        chars = np.zeros(matrix.size + 8 // dtype.itemsize, dtype=dtype)
        chars[:matrix.size] = matrix.reshape(-1)
        starts = np.arange(values.size, dtype=np.int64) * width
        return cls(chars, starts, starts + lengths, values)

    def __len__(self) -> int:
        return self.starts.size

    def __getitem__(self, rows) -> _Fields:
        return _Fields(self.chars, self.starts[rows], self.ends[rows],
                       None if self.source is None else self.source[rows])

    def text(self, k: int) -> str:
        """Field ``k`` as a ``str``."""
        return self.chars[self.starts[k]:self.ends[k]].tobytes().decode(
            _CODECS[self.chars.dtype], "surrogatepass")

    def tolist(self) -> list[str]:
        """Every field as a ``str``."""
        if not len(self):
            return []
        lo = int(self.starts.min())
        text = self.chars[lo:self.ends.max()].tobytes().decode(_CODECS[self.chars.dtype],
                                                                "surrogatepass")
        return [text[s:e] for s, e in zip((self.starts - lo).tolist(), (self.ends - lo).tolist())]

    def strings(self) -> np.ndarray:
        """The fields as a numpy ``str`` array."""
        if self.source is not None:
            return self.source
        lengths = self.ends - self.starts
        width = max(int(lengths.max(initial=0)), 1)
        chars, size = self.chars, self.chars.itemsize
        if self.starts.max(initial=0) + width > chars.size:
            chars = np.concatenate((chars, np.zeros(width, dtype=chars.dtype)))
        # the width characters from each start, zeroed past the field's end
        rows = np.ndarray((chars.size - width + 1, width), chars.dtype, chars,
                          strides=(size, size))[self.starts]
        rows[np.arange(width) >= lengths[:, None]] = 0
        return rows.astype(np.uint32).view(f"U{width}").reshape(-1)

    def words(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Each field's characters packed big-endian into 64-bit words, the
        last one padded with zeros (at least one word per field, so the
        empty field is the word 0), and the index of each field's first
        word followed by their number (``None`` when every field is one
        word).  A field ends in a character other than NUL (see
        :func:`_strip`), so two fields hold the same value exactly when
        their words are equal, and their words compare as their values do
        in code-point order."""
        size = self.chars.itemsize
        per = 8 // size
        first, left, ptr = self.starts, self.ends - self.starts, None
        if left.max(initial=0) > per:
            count = np.maximum(-(-left // per), 1)
            ptr = np.concatenate(([0], np.cumsum(count)))
            # the k-th word of a field starts k * per characters into it
            first = np.repeat(self.starts - ptr[:-1] * per, count)
            first += np.arange(0, ptr[-1] * per, per)
            left = np.repeat(self.ends, count)
            left -= first
            np.minimum(left, per, out=left)
        # the word at each character, read from the bytes as they lie, in
        # native byte order; a word starting less than a word from the end
        # is read from the last one and shifted into place
        last = self.chars.size - per
        at = np.ndarray((last + 1,), ">u8", self.chars, strides=(size,))
        index = np.minimum(first, last)
        words = at[index]
        words = words.byteswap(inplace=True).view(words.dtype.newbyteorder())
        late = np.flatnonzero(first > last)
        words[late] <<= ((first[late] - last) * (64 // per)).astype(np.uint64)
        # each word's first `left` characters; the masks reuse the spent index
        words &= np.take(_MASKS[per], left, out=index.view(np.uint64), mode="clip")
        return words, ptr


def _concat(a: _Fields, b: _Fields) -> _Fields:
    """The fields of ``a``, then those of ``b``, as ranges of one array."""
    if a.chars is b.chars:
        chars, shift = a.chars, 0
    else:
        dtype = a.chars.dtype if a.chars.dtype == b.chars.dtype else np.dtype(">u4")
        chars, shift = np.concatenate((a.chars, b.chars)).astype(dtype, copy=False), a.chars.size
    return _Fields(chars, np.concatenate((a.starts, b.starts + shift)),
                   np.concatenate((a.ends, b.ends + shift)))


def _stripped(chars: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Whether each code point of ``chars`` is one that ``table``
    (:data:`_SPACE` or :data:`_SPACE_OR_NUL`) strips."""
    found = table[np.minimum(chars, 255)]
    if chars.dtype.itemsize > 1:
        found |= np.isin(chars, _WIDE_SPACES)
    return found


def _strip(fields: _Fields) -> _Fields:
    """``fields`` stripped as numpy 2 strips a ``str`` array: whitespace
    (as ``str.isspace`` tells it) from the left, whitespace and NUL from
    the right, one character of every field still holding one at a time;
    only the fields with such a character at an edge are visited, and
    ``fields`` is returned as it is when there are none."""
    chars, starts, ends = fields.chars, fields.starts, fields.ends
    # each field's first and last characters less 33, in their unsigned
    # type: the characters below 33 wrap past those from 0x85 up, and only
    # these may be stripped (an empty field may start at the end of the text)
    edge = chars.take(starts, mode="clip") - 33
    np.maximum(edge, chars[ends - 1] - 33, out=edge)
    rows = np.flatnonzero((edge >= 0x85 - 33) & (starts < ends))
    rows = rows[_stripped(chars[starts[rows]], _SPACE)
                | _stripped(chars[ends[rows] - 1], _SPACE_OR_NUL)]
    if not rows.size:
        return fields
    starts, ends = starts.copy(), ends.copy()
    for edge, step, table in ((starts, 1, _SPACE), (ends, -1, _SPACE_OR_NUL)):
        todo = rows
        while todo.size:
            todo = todo[starts[todo] < ends[todo]]
            todo = todo[_stripped(chars[edge[todo] - (step < 0)], table)]
            edge[todo] += step
    return _Fields(chars, starts, ends)


def _split(text: str, width: int) -> _Fields | None:
    """Every field of ``text``, row after row, cut at each tab and newline;
    ``None`` unless each line holds exactly ``width`` fields (so no line is
    blank) and the text holds no quote, carriage return or NUL, the
    characters :mod:`csv` treats specially."""
    if not text.endswith("\n"):
        text += "\n"
    if len(text) == 1 or '"' in text or "\r" in text or "\x00" in text:
        return None
    chars = _chars(text)
    # each field ends at the tab or newline that follows it; another
    # control character below the newline fails the check below, and such
    # a text goes through csv
    ends = np.flatnonzero(chars[:len(text)] <= 10)
    if ends.size % width:
        return None
    # row by row, the separators must read width - 1 tabs and a newline
    separators = chars[ends].reshape(-1, width)
    if not ((separators[:, :-1] == 9).all() and (separators[:, -1] == 10).all()):
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    return _Fields(chars, starts, ends)


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
           ) -> tuple[_Fields, np.ndarray, Exception | None]:
    """Read a tab-delimited table with a ``columns`` header row.

    Returns the stripped fields of the rows, row after row, the line
    number of each row, and the error of the first malformed row (the
    rows before it are returned; callers raise it once those rows have
    raised their own errors), ``None`` if there is none.  Text that
    :func:`_split` accepts is cut at once; any other goes row by row
    through :mod:`csv`, which names a malformed line, and the fields it
    reads are joined into one text, so both give ranges of one array.
    The stream is read as a file opened with ``newline=""`` presents it.
    """
    text = stream.read()
    width = len(columns)
    fields = _split(text, width)
    if fields is None:
        header, rows, lines, error = _csv_rows(text, width)
        fields = _Fields.joined([f for row in rows for f in row])
    else:
        header, fields, error = fields[:width].tolist(), fields[width:], None
        lines = np.arange(2, 2 + len(fields) // width)
    if [h.strip() for h in header] != list(columns):
        raise ParseError(f"line 1: expected {what} header {' '.join(columns)!r}")
    return _strip(fields), np.asarray(lines, dtype=np.int64), error


def _columns(fields: _Fields, columns: Sequence[str]) -> dict[str, _Fields]:
    """The fields of each column of the rows ``fields``."""
    width = len(columns)
    return {name: fields[k::width] for k, name in enumerate(columns)}


def _parse_dates(fields: _Fields) -> tuple[np.ndarray, tuple[int, ValueError] | None]:
    """:func:`parse_pub_date` of each field as ``datetime64[D]``, and the
    row and error of the first that does not parse (``None`` if all do).

    ``YYYY-MM-DD`` and ``YYYY`` in ASCII digits with a year of at least 1
    are read as arrays, from the first ten characters of each field; any
    other text (``0000``, ``20100105``, non-ASCII digits, a day past the
    month's end) goes to :func:`parse_pub_date`.
    """
    lengths = fields.ends - fields.starts
    d = np.empty((len(fields), 10), dtype=np.int32)
    for k in range(10):
        d[:, k] = fields.chars.take(fields.starts + k, mode="clip")
    d[np.arange(10) >= lengths[:, None]] = 0
    d -= ord("0")
    digit = (d >= 0) & (d <= 9)
    year = d[:, 0].astype(np.int64) * 1000 + d[:, 1] * 100 + d[:, 2] * 10 + d[:, 3]
    bare_year = digit[:, :4].all(axis=1) & (lengths == 4)
    iso = (digit[:, [0, 1, 2, 3, 5, 6, 8, 9]].all(axis=1) & (d[:, 4] == ord("-") - ord("0"))
           & (d[:, 7] == ord("-") - ord("0")) & (lengths == 10))
    month = np.where(iso, d[:, 5] * 10 + d[:, 6], 1)
    day = np.where(iso, d[:, 8] * 10 + d[:, 9], 1)
    months = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    dates = months.astype("datetime64[D]") + (day - 1)
    # a day past the month's end spills into the next month
    valid = ((bare_year | iso) & (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
             & (dates.astype("datetime64[M]") == months))
    for k in np.flatnonzero(~valid).tolist():
        try:
            dates[k] = parse_pub_date(fields.text(k))
        except ValueError as exc:
            return dates, (k, exc)
    return dates, None


def _sort(words: np.ndarray, ptr: np.ndarray, rows: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray]:
    """The fields ``rows`` in the code-point order of their values, and
    whether each holds another value than the one before it.

    The fields are sorted by their first words, then the runs still tied
    by their second words (zero past a field's end), and so on, so the
    work follows the length of the prefixes that values share: a run
    whose fields have all ended holds one value and is not read again."""
    rows = rows[np.argsort(words[ptr[rows]])]
    new = _new(words[ptr[rows]])
    # the places still tied: at first all, then runs of several fields not all ended
    tied = np.arange(rows.size)
    for k in range(1, int((ptr[rows + 1] - ptr[rows]).max(initial=1))):
        run = np.cumsum(new[tied])
        going_on = ptr[rows[tied] + 1] - ptr[rows[tied]] > k
        keep = (np.bincount(run)[run] > 1) & (np.bincount(run, going_on)[run] > 0)
        tied, run = tied[keep], run[keep]
        if not tied.size:
            break
        at = ptr[rows[tied]] + k
        key = np.where(at < ptr[rows[tied] + 1], words[np.minimum(at, words.size - 1)], 0)
        # runs of equal values, as most citation ids are, are already in order
        if not ((key[1:] >= key[:-1]) | (run[1:] != run[:-1])).all():
            # by run, then by key: each key's rank, offset by its run's
            rank = np.empty(tied.size, dtype=np.int64)
            rank[np.argsort(key)] = np.arange(tied.size)
            order = np.argsort(run * tied.size + rank)
            rows[tied], key = rows[tied][order], key[order]
        new[tied[1:]] |= key[1:] != key[:-1]
    return rows, new


def _words(parts: Sequence[_Fields]) -> tuple[np.ndarray, np.ndarray | None]:
    """The :meth:`_Fields.words` of the fields of every part in turn, and
    the index of each field's first word followed by their number (``None``
    when every field is one word); parts of one- and four-byte characters
    are all read with four."""
    if len({part.chars.itemsize for part in parts}) > 1:
        parts = [_Fields(part.chars.astype(">u4"), part.starts, part.ends) for part in parts]
    words, ptrs = zip(*(part.words() for part in parts))
    if all(p is None for p in ptrs):
        return np.concatenate(words), None
    shift = np.cumsum([0, *(w.size for w in words)])
    ptrs = [np.arange(w.size + 1) if p is None else p for p, w in zip(ptrs, words)]
    return (np.concatenate(words),
            np.concatenate([p[:-1] + s for p, s in zip(ptrs, shift)] + [shift[-1:]]))


def _new(key: np.ndarray) -> np.ndarray:
    """Whether each value of the sorted ``key`` differs from the one before
    it (the first always does)."""
    new = np.empty(key.size, dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    return new


def _codes(words: np.ndarray, ptr: np.ndarray | None) -> np.ndarray:
    """The code of each field's value (0..K-1, in the values' code-point
    order, as ``sorted`` orders ``str`` values), from the fields' words
    (see :func:`_words`): fields of one word each are sorted by it, longer
    ones by :func:`_sort`."""
    if ptr is None:
        rows = words.argsort()
        new = _new(words[rows])
    else:
        rows, new = _sort(words, ptr, np.arange(ptr.size - 1))
    run = np.cumsum(new)
    run -= 1
    codes = np.empty(rows.size, dtype=np.int64)
    codes[rows] = run
    return codes


def _find(fields: _Fields, needles: _Fields) -> tuple[np.ndarray, np.ndarray]:
    """For each of ``needles``, the first field of ``fields`` holding its
    value (-1 if none does), and for each of ``fields`` the first field
    holding its value; values are matched by their :func:`_codes`."""
    codes = _codes(*_words((fields, needles)))
    n = len(fields)
    held, first = np.unique(codes[:n], return_index=True)
    row = np.full(codes.max(initial=-1) + 1, -1, dtype=np.int64)
    row[held] = first
    return row[codes[n:]], row[codes[:n]]


def _token_codes(fields: _Fields, tokens: _Fields, default: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Per field, the index of its value among ``tokens`` (``default`` if
    none holds it), and whether one does."""
    found, _ = _find(tokens, fields)
    return np.where(found >= 0, found, default), found >= 0


def _labelled(fields: _Fields) -> tuple[np.ndarray, np.ndarray]:
    """The code of each field's value in sorted order, and the value of
    each code (a ``str`` array)."""
    codes = _codes(*fields.words())
    held = np.empty(codes.max(initial=-1) + 1, dtype=np.int64)
    held[codes] = np.arange(codes.size)
    return codes, fields[held].strings()


#: the gender tokens, each at its :data:`GENDER_CODE`
_GENDER_TOKENS = np.array([g.value for g in GenderCategory])
#: the rank tokens in prestige order
_RANK_TOKENS = np.array([r.value for r in RANK_ORDER])
#: columns labelled with the values present, not a fixed vocabulary
_PRESENT_LABELS = ("rank", "country", "topic", "subfield")


def _present(labels: np.ndarray, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each column's codes renumbered over the labels some column holds,
    then those labels, in label order; all returned as they are when
    every label is held."""
    used = np.zeros(len(labels), dtype=bool)
    for codes in columns:
        used[codes] = True
    if used.all():
        return (*columns, labels)
    position = np.cumsum(used)
    position -= 1
    return (*(position[codes] for codes in columns), labels[used])


def _encode(column: Callable[[str], _Fields], dates: np.ndarray
            ) -> tuple[tuple[np.ndarray, np.ndarray, dict[str, tuple[np.ndarray, np.ndarray]]],
                       dict[str, np.ndarray]]:
    """The :class:`PaperTable` columns of the fields ``column(name)`` of
    each :data:`PAPER_COLUMNS` entry but the date, and for gender and rank
    the rows whose token is unknown; those become UNKNOWN and Unranked.
    Each column is asked for when it is coded, so it may be built then."""
    gender, known_gender = _token_codes(column("gender"), _Fields.of_array(_GENDER_TOKENS),
                                        GENDER_CODE[GenderCategory.UNKNOWN])
    rank, known_rank = _token_codes(column("rank"), _Fields.of_array(_RANK_TOKENS),
                                    RANK_ORDER.index(ConferenceRank.UNRANKED))
    codes = {"gender": (gender, _GENDER_TOKENS), "rank": _present(_RANK_TOKENS, rank)}
    for name in ("country", "topic", "subfield"):
        codes[name] = _labelled(column(name))
    # one vocabulary for both roles, so the author rule compares codes
    n = dates.size
    authors, labels = _labelled(_concat(column("first_author"), column("last_author")))
    codes["first_author"] = authors[:n], labels
    codes["last_author"] = authors[n:], labels
    return ((column("id").strings(), dates, codes),
            {"gender": ~known_gender, "rank": ~known_rank})


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

    "Sorted" is code-point order, as ``sorted`` orders ``str`` values.
    Loading a table builds ``ids`` and the labels from ranges of its text
    and the codes from integer keys of those ranges (:func:`_codes`).
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
        columns, _ = _encode(lambda name: _Fields.of_array(values[name]), dates)
        return cls(*columns, *args, **kwargs)

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
    def window_floors(self) -> np.ndarray:
        return citation_window_floors(self.dates)

    def in_window(self, citing, cited=slice(None)) -> np.ndarray:
        """Whether ``cited`` is at most ten calendar years older than
        ``citing``; index arrays broadcast, the default ``cited`` is every
        paper."""
        return self.dates[cited] >= self.window_floors[citing]

    def self_cites(self, citing, cited=slice(None)) -> np.ndarray:
        """Whether both the first and the last author of ``cited`` are
        among ``citing``'s first/last authors (the self-citation rule,
        which holds for a paper and itself).  Index arrays broadcast, as in
        :meth:`in_window`."""
        firsts, lasts = self.author_codes
        fi, li = firsts[citing], lasts[citing]
        fj, lj = firsts[cited], lasts[cited]
        return ((fj == fi) | (fj == li)) & ((lj == fi) | (lj == li))

    def citable(self, citing, cited=slice(None)) -> np.ndarray:
        """Whether ``citing`` may cite ``cited`` under the corpus rules:
        ``cited`` is :meth:`in_window` and not :meth:`self_cites`.
        Later-dated papers pass.  Index arrays broadcast; the default
        ``cited`` is every paper.
        """
        return self.in_window(citing, cited) & ~self.self_cites(citing, cited)

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
        """Per column of :data:`PAPER_COLUMNS`, its values, dates as
        ``date`` objects."""
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
            codes[name] = (_present(labels, column[rows]) if name in _PRESENT_LABELS
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
    columns, unknown = _encode(values.__getitem__, dates)
    stop = len(lines) if failed is None else failed[0]
    # only the rows with an unknown token are visited
    for k in np.flatnonzero((unknown["gender"] | unknown["rank"])[:stop]).tolist():
        lineno, pid = int(lines[k]), values["id"].text(k)
        if unknown["gender"][k]:
            log.warning(
                "line %d: unknown gender token %r for paper %s, using UNKNOWN",
                lineno, values["gender"].text(k), pid,
            )
        if unknown["rank"][k]:
            log.warning(
                "line %d: unknown rank token %r for paper %s, using Unranked",
                lineno, values["rank"].text(k), pid,
            )
    if failed is not None:
        k, exc = failed
        raw_date = values["pub_date"].text(k)
        raise ParseError(f"line {lines[k]}: bad pub_date {raw_date!r}: {exc}") from exc
    if error is not None:
        raise error
    return PaperTable(*columns)


@dataclass(frozen=True, eq=False)
class CitationIds:
    """The (citing_id, cited_id) rows of a citation table, held as ranges
    of its text; :func:`filter_citations` resolves them without a ``str``
    per id."""

    fields: _Fields

    def __len__(self) -> int:
        return len(self.fields) // 2

    def tolist(self) -> list[list[str]]:
        """The rows as ``[citing_id, cited_id]`` lists of ``str``."""
        ids = self.fields.tolist()
        return [ids[k:k + 2] for k in range(0, len(ids), 2)]


def parse_citations(stream: TextIO) -> CitationIds:
    """Parse the citation table into its rows of stripped (citing_id,
    cited_id) fields; ``len`` counts the rows and ``tolist()`` gives them
    as ``str`` pairs."""
    fields, _, error = _table(stream, CITATION_COLUMNS, "citation")
    if error is not None:
        raise error
    return CitationIds(fields)


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
    raw_edges: CitationIds | np.ndarray | Iterable[tuple[str, str]],
) -> CitationNetwork:
    """Resolve citation ids to paper rows and apply :func:`filter_edges`.

    ``papers`` is a :class:`PaperTable` or a sequence of ``Paper``
    records, ``raw_edges`` the :class:`CitationIds` of
    :func:`parse_citations`, an (M, 2) array of ``str`` ids or any
    iterable of (citing_id, cited_id) pairs.  Ids given as ``str`` objects
    lose their trailing NULs (as a numpy ``str`` array drops them) and are
    joined into one text.  The citation ids are coded together with the
    paper ids, and each resolves to the first paper with its code
    (:func:`_find`), with no dict and, for ids read from a file, no
    ``str`` per id.  Raises :class:`IngestError` naming the first paper
    whose id an earlier paper holds, else the first citation with an
    unknown id (its citing id first).
    """
    table = papers if isinstance(papers, PaperTable) else PaperTable.from_papers(papers)
    if isinstance(raw_edges, CitationIds):
        tokens = raw_edges.fields
    else:
        pairs = (raw_edges.ravel().tolist() if isinstance(raw_edges, np.ndarray)
                 else [pid for pair in raw_edges for pid in pair])
        tokens = _Fields.joined([pid.rstrip("\x00") for pid in pairs])
    rows, first = _find(_Fields.of_array(table.ids), tokens)
    repeated = np.flatnonzero(first != np.arange(table.n))
    if repeated.size:
        raise IngestError(f"duplicate paper id {table.ids[repeated[0]].item()!r}")
    rows = rows.reshape(-1, 2)
    if rows.min(initial=0) < 0:
        unknown = rows < 0
        k = int(np.argmax(unknown.any(axis=1)))
        u, v = tokens.text(2 * k), tokens.text(2 * k + 1)
        which, bad = ("citing", u) if unknown[k, 0] else ("cited", v)
        raise IngestError(f"citation ({u!r}, {v!r}): unknown {which} id {bad!r}")
    # the ids' text is not read again: the filter need not hold it
    del raw_edges, tokens
    return filter_edges(table, rows)


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
    # one key i*N + j per raw pair, sorted by (i, j), each kept once; the
    # keys are let go before the rules run
    keys = edges[:, 0] * n
    keys += edges[:, 1]
    keys.sort()
    unique = keys[_new(keys)]
    duplicates = keys.size - unique.size
    citing, cited = np.divmod(unique, max(n, 1))
    del keys, unique
    # the two rules of citable, each evaluated once
    in_window = table.in_window(citing, cited)
    keep = in_window & ~table.self_cites(citing, cited)
    citing, cited = citing[keep], cited[keep]
    cites = np.zeros(n, dtype=bool)
    cites[citing] = True
    cites[cited] = True
    survivors = np.flatnonzero(cites)
    counts = {
        "duplicates": duplicates,
        "out_of_window": int(np.count_nonzero(~in_window)),
        "self_citations": int(np.count_nonzero(in_window) - citing.size),
        "isolated_papers": int(n - survivors.size),
        "later_dated_kept": int(np.count_nonzero(table.dates[cited] > table.dates[citing])),
    }
    position = np.cumsum(cites) - 1
    kept = np.stack((position[citing], position[cited]), axis=1)
    net = CitationNetwork(*table._subset(survivors), kept, counts)
    # the survivors' floors are rows of the ones the rules just read
    vars(net)["window_floors"] = table.window_floors[survivors]
    return net


def read_papers(path: str | Path) -> PaperTable:
    with open(path, encoding="utf-8", newline="") as fh:
        return parse_papers(fh)


def read_citations(path: str | Path) -> CitationIds:
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
                columns: Iterable[Sequence[str] | tuple[np.ndarray, Sequence[str]]],
                delimiter: str = "\t") -> None:
    """Write the ``header`` row and the rows of ``columns`` as a :mod:`csv`
    writer with ``delimiter`` and ``\n`` line ends writes them.

    A column is a sequence of ``str`` fields, one per row, or a pair
    ``(codes, labels)``: an integer array holding a code per row, and the
    ``str`` label of each code.  Each label, and each field of a plain
    column, is quoted by :func:`_quoted` once.  The rows are then joined
    :data:`_BLOCK_ROWS` at a time, a coded column's fields gathered from
    its codes as references to its quoted labels, and each block is
    encoded as UTF-8 and written: no ``str`` is built per field of a coded
    column, and the text of the table is never held whole.
    """
    cells, coded = [], {}
    for column in columns:
        if isinstance(column, tuple) and len(column) == 2 and isinstance(column[0], np.ndarray):
            codes, labels = column
            # columns sharing their labels, as a table's two author columns
            # do, quote them once
            if id(labels) not in coded:
                quoted = _quoted(np.asarray(labels, dtype=object), delimiter)
                coded[id(labels)] = np.asarray(quoted, dtype=object)
            cells.append((codes, coded[id(labels)]))
        else:
            cells.append((None, _quoted(column, delimiter)))
    rows = min((len(quoted if codes is None else codes) for codes, quoted in cells), default=0)
    with open(path, "wb") as fh:
        fh.write((delimiter.join(_quoted(header, delimiter)) + "\n").encode())
        for start in range(0, rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, rows)
            block = [quoted[start:stop] if codes is None else quoted[codes[start:stop]].tolist()
                     for codes, quoted in cells]
            fh.write(("\n".join(map(delimiter.join, zip(*block))) + "\n").encode())


def write_papers(table: PaperTable, path: str | Path) -> None:
    """Write the paper table (dates in ISO format), quoted as :mod:`csv`
    quotes, from its codes: each distinct id, date and label is quoted once."""
    dates, day = np.unique(table.dates, return_inverse=True)
    write_table(path, PAPER_COLUMNS, (table.ids.tolist(),
                                      (day.reshape(-1), np.datetime_as_string(dates, unit="D")),
                                      *table.codes.values()))


def write_citations(net: CitationNetwork, path: str | Path) -> None:
    """Write the citation table from the edges; each id is quoted once."""
    ids = net.ids.tolist()
    write_table(path, CITATION_COLUMNS, ((net.edges[:, 0], ids), (net.edges[:, 1], ids)))


# ---------------------------------------------------------------------------
# array archives, and the parsed network stored in one beside its tables

#: what reading a damaged array archive raises: numpy's errors for a bad
#: entry and zipfile's for a bad archive, an unsupported, encrypted or
#: corrupt compressed entry
ARCHIVE_ERRORS = (OSError, EOFError, KeyError, ValueError, MemoryError, NotImplementedError,
                  RuntimeError, zipfile.BadZipFile, zlib.error, lzma.LZMAError)


@contextmanager
def open_arrays(path: str | Path) -> Iterator[np.lib.npyio.NpzFile]:
    """The array archive at ``path``, for reading with pickles refused.
    Raises one of :data:`ARCHIVE_ERRORS` if it is not one."""
    # np.load leaks its own handle when a zip turns out to be broken, and
    # takes a file that is neither a zip nor an .npy for a pickle
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":
            raise ValueError("not an .npz archive")
        fh.seek(0)
        with np.load(fh, allow_pickle=False) as npz:
            yield npz


def write_arrays(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    """Store ``arrays`` at ``path`` as numpy's uncompressed array archive,
    one ``<name>.npy`` entry each, every entry with the same fixed date,
    so the bytes depend on the arrays alone."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, array in arrays.items():
            with zf.open(zipfile.ZipInfo(f"{name}.npy"), "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, array, allow_pickle=False)


#: the format number of the networks :func:`write_network` stores
NETWORK_FORMAT = 1
#: the columns a paper table holds as codes and labels
_CODED_COLUMNS = PAPER_COLUMNS[2:]
#: the name of each coded column's labels in a stored network: the two
#: author columns share one vocabulary
_LABELS = {name: "author" if name.endswith("_author") else name for name in _CODED_COLUMNS}
#: columns labelled with fixed tokens, not with their values as read
_TOKEN_LABELS = ("gender", "rank")
#: the dates a paper table can hold: those of years 1 to 9999
_DATE_RANGE = (np.datetime64("0001-01-01"), np.datetime64("9999-12-31"))


class NetworkFileError(ValueError):
    """A stored network that cannot be read or fails a structural check;
    the message names the file."""


def _narrow(values: np.ndarray) -> np.ndarray:
    """A ``str`` array as wide as its longest value (at least one
    character), as the load builds one (:meth:`_Fields.strings`); returned
    as it is when it is."""
    width = values.itemsize // 4
    chars = np.ascontiguousarray(values).view(np.uint32).reshape(values.size, width)
    held = np.flatnonzero(chars.any(axis=0))
    fit = int(held[-1]) + 1 if held.size else 1
    return values if fit == width else values.astype(f"U{fit}")


def write_network(net: CitationNetwork, path: str | Path, papers_sha256: str,
                  citations_sha256: str) -> None:
    """Store ``net`` at ``path`` as :func:`read_papers` and
    :func:`read_citations` parse the tables that :func:`write_papers` and
    :func:`write_citations` write of it, whose SHA-256 digests are given:
    the paper columns, labels narrowed to the values present and each
    ``str`` array as wide as its longest value, and the citations as pairs
    of paper rows, not yet filtered (:func:`read_network` filters them).
    Codes and rows are stored as int32 when they fit."""
    dtype = np.int32 if net.n <= np.iinfo(np.int32).max else np.int64
    arrays = {"format": np.array(NETWORK_FORMAT),
              "papers_sha256": np.array(papers_sha256),
              "citations_sha256": np.array(citations_sha256),
              "ids": _narrow(net.ids), "dates": net.dates}
    columns = dict(net.codes)
    first, last, vocabulary = _present(columns["first_author"][1], *net.author_codes)
    columns.update(first_author=(first, vocabulary), last_author=(last, vocabulary))
    for name, (codes, labels) in columns.items():
        if name in _PRESENT_LABELS:
            codes, labels = _present(labels, codes)
        arrays[f"{name}_codes"] = codes.astype(dtype)
        arrays[f"{_LABELS[name]}_labels"] = labels if name in _TOKEN_LABELS else _narrow(labels)
    arrays["edges"] = net.edges.astype(dtype)
    write_arrays(path, arrays)


def read_network(path: str | Path, papers_sha256: str, citations_sha256: str
                 ) -> CitationNetwork | None:
    """The network :func:`write_network` stored at ``path``, run through
    :func:`filter_edges` as :func:`load_network` runs the parsed tables,
    or ``None`` if it was stored for tables with other SHA-256 digests
    than those given.

    Raises :class:`NetworkFileError`, naming ``path``, if the file is not
    a readable array archive of :data:`NETWORK_FORMAT`, or fails a
    structural check: 1-D native ``str`` ids and labels, one native
    ``datetime64[D]`` date of the years 1 to 9999 per paper, one integer
    code per paper inside its labels' range, every gender category and
    only ranks in prestige order as labels, and citations as (M, 2)
    integer rows in ``[0, N)``.
    """
    def check(ok: bool, what: str) -> None:
        if not ok:
            raise NetworkFileError(f"{path}: {what}")

    def text(a: np.ndarray) -> str | None:
        return a.item() if a.shape == () and a.dtype.kind == "U" else None

    names = ("ids", "dates", "edges", *(f"{name}_codes" for name in _CODED_COLUMNS),
             *dict.fromkeys(f"{name}_labels" for name in _LABELS.values()))
    try:
        with open_arrays(path) as npz:
            form = npz["format"]
            known = form.shape == () and form.dtype.kind == "i" and form == NETWORK_FORMAT
            fresh = known and (text(npz["papers_sha256"]), text(npz["citations_sha256"])
                               ) == (papers_sha256, citations_sha256)
            stored = {name: npz[name] for name in names} if fresh else None
    except ARCHIVE_ERRORS as exc:
        raise NetworkFileError(f"{path} is not a readable network: {exc}") from exc
    found = (repr(form.item()) if form.shape == () and form.dtype.kind == "i"
             else f"a {form.dtype} array of shape {form.shape}")
    check(known, f"format {found}, not {NETWORK_FORMAT}: the file was written by another "
                 "citegap version")
    if stored is None:
        return None
    ids, dates, edges = stored["ids"], stored["dates"], stored["edges"]
    n = ids.size
    codes = [stored[f"{name}_codes"] for name in _CODED_COLUMNS]
    labels = [stored[f"{_LABELS[name]}_labels"] for name in _CODED_COLUMNS]
    check(all(a.ndim == 1 and a.dtype.kind == "U" and a.dtype.isnative for a in (ids, *labels)),
          "ids and labels must be 1-D native str arrays")
    check(dates.shape == (n,) and dates.dtype == np.dtype("datetime64[D]")
          and bool(((dates >= _DATE_RANGE[0]) & (dates <= _DATE_RANGE[1])).all()),
          "dates must hold one native datetime64[D] date of the years 1 to 9999 per paper")
    check(all(c.shape == (n,) and c.dtype.kind == "i"
              and (c.min(initial=0) >= 0) and c.max(initial=-1) < len(l)
              for c, l in zip(codes, labels)),
          "each column must hold one integer code per paper, inside its labels' range")
    check(labels[0].dtype == _GENDER_TOKENS.dtype and np.array_equal(labels[0], _GENDER_TOKENS),
          "gender must be labelled with every category")
    rank = np.flatnonzero(np.isin(_RANK_TOKENS, labels[1]))
    check(labels[1].dtype == _RANK_TOKENS.dtype and np.array_equal(_RANK_TOKENS[rank], labels[1]),
          "ranks must be labelled in prestige order")
    check(edges.ndim == 2 and edges.shape[1] == 2 and edges.dtype.kind == "i"
          and edges.min(initial=0) >= 0 and edges.max(initial=-1) < n,
          f"citations must be (M, 2) integer rows below {n}")
    table = PaperTable(ids, dates, {name: (c.astype(np.int64, copy=False), l)
                                    for name, c, l in zip(_CODED_COLUMNS, codes, labels)})
    return filter_edges(table, edges)
