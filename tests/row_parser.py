"""The row-wise corpus load, the oracle of the columnar one.

The corpus layer once read each table row by row with :mod:`csv` into
``Paper`` records, resolved citation ids through a dict and wrote the
archive paper by paper.  :func:`parse_papers`, :func:`parse_citations`,
:func:`filter_rows` and :func:`write_papers` keep that path, written out
per row and per edge, to check the columnar load against.
"""
import csv
import logging

from citegap.corpus import (
    CITATION_COLUMNS,
    PAPER_COLUMNS,
    ConferenceRank,
    GenderCategory,
    IngestError,
    Paper,
    ParseError,
    citation_window_floor,
    parse_pub_date,
)

# the corpus module's logger, so warning records compare as they are
log = logging.getLogger("citegap.corpus")


def _rows(stream, columns, what):
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


def parse_papers(stream):
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


def parse_citations(stream):
    return [
        (row[0].strip(), row[1].strip())
        for _, row in _rows(stream, CITATION_COLUMNS, "citation")
    ]


def allowed(citing, cited):
    """The per-edge filter predicate, written out."""
    if cited.pub_date < citation_window_floor(citing.pub_date):
        return False
    authors = (citing.first_author, citing.last_author)
    return not (cited.first_author in authors and cited.last_author in authors)


def filter_rows(papers, raw_edges):
    """The surviving papers, the edges as index pairs in sorted order and
    the drop counts, with the ingest errors of ``filter_citations``."""
    index = {}
    for pos, p in enumerate(papers):
        if p.id in index:
            raise IngestError(f"duplicate paper id {p.id!r}")
        index[p.id] = pos
    resolved = {}
    for u, v in raw_edges:
        if u not in index or v not in index:
            which, bad = ("citing", u) if u not in index else ("cited", v)
            raise IngestError(f"citation ({u!r}, {v!r}): unknown {which} id {bad!r}")
        resolved[index[u], index[v]] = None
    in_window = [(i, j) for i, j in resolved
                 if papers[j].pub_date >= citation_window_floor(papers[i].pub_date)]
    kept = [(i, j) for i, j in resolved if allowed(papers[i], papers[j])]
    ends = {k for edge in kept for k in edge}
    survivors = [k for k in range(len(papers)) if k in ends]
    remap = {old: new for new, old in enumerate(survivors)}
    counts = {
        "duplicates": len(raw_edges) - len(resolved),
        "out_of_window": len(resolved) - len(in_window),
        "self_citations": len(in_window) - len(kept),
        "isolated_papers": len(papers) - len(survivors),
        "later_dated_kept": sum(papers[j].pub_date > papers[i].pub_date
                                for i, j in kept),
    }
    edges = sorted((remap[i], remap[j]) for i, j in kept)
    return [papers[k] for k in survivors], edges, counts


def write_papers(papers, path):
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
