"""Differential tests: ``write_table`` against :mod:`csv`'s writer, and
the archive writers against the per-row writers of ``row_parser``.

Every table the program writes goes through ``write_table``, which quotes
each distinct label once, leaves only the fields that need quoting to
:mod:`csv`, and gathers the rows of coded columns from their codes.  For
the tab and the comma delimiter its bytes must equal those of a
``csv.writer`` with ``lineterminator="\\n"`` on the same rows (or both
must raise the same error), on the values of the columnar load sweep, on
hand-picked edge cases and on generated text.  ``write_papers`` and
``write_citations``, which write from a network's codes and edges, must
write the bytes the per-row writers write from its ``Paper`` records, on
generated networks, on tables longer than a block and on a synth corpus
with daily dates.
"""
import csv
from datetime import date

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from citegap.corpus import (
    PAPER_COLUMNS,
    CitationNetwork,
    _BLOCK_ROWS,
    write_citations,
    write_papers,
    write_table,
)
from citegap.synth import SynthConfig, generate_network
from conftest import make_paper
import row_parser
from test_columnar_load import QUOTED, VALUES

DELIMITERS = ("\t", ",")
EDGES = ("", " ", "\r", "a\rb", "\r\n", "\n", "x\x00y", "  padded  ", "\u3000wide\u3000",
         "Zürich", "東京", "é,\t\"", "'single'", "trailing\\", "\ufeffbom")
HEADER = ("first", "second", "third")


def outcome(write, path, *args):
    """The bytes ``write(path, *args)`` writes, or the error it raises: a
    :mod:`csv` error with its message, an encoding error by its type (its
    message names a position in what each writer encodes at once)."""
    try:
        write(path, *args)
    except csv.Error as exc:
        return type(exc), str(exc)
    except UnicodeEncodeError as exc:
        return type(exc)
    return path.read_bytes()


def with_csv(path, rows, delimiter):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(HEADER)
        writer.writerows(rows)


def with_write_table(path, rows, delimiter):
    write_table(path, HEADER, zip(*rows), delimiter)


def assert_same_bytes(tmp_path, rows, delimiter):
    expected = outcome(with_csv, tmp_path / "csv.txt", rows, delimiter)
    assert outcome(with_write_table, tmp_path / "table.txt", rows, delimiter) == expected


def rows_of(values):
    """Each value once in every column, beside plain fields."""
    return [row for v in values for row in ((v, "plain", "x"), ("p", v, "y"), ("q", "z", v))]


@pytest.mark.parametrize("delimiter", DELIMITERS)
@pytest.mark.parametrize("values", [VALUES + QUOTED, EDGES], ids=["sweep", "edges"])
def test_matches_csv_writer(tmp_path, delimiter, values):
    assert_same_bytes(tmp_path, rows_of(values), delimiter)
    # a column holding no character csv quotes is written as it is
    assert_same_bytes(tmp_path, [("a", v, "b") for v in ("x", "y", "", " z ")], delimiter)


@pytest.mark.parametrize("delimiter", DELIMITERS)
def test_empty_table_is_the_header(tmp_path, delimiter):
    assert_same_bytes(tmp_path, [], delimiter)


def test_blocks_join_without_a_seam(tmp_path):
    rows = [(f"P{k}", "a,b" if k % 7 == 0 else "c", str(k)) for k in range(40_000)]
    for delimiter in DELIMITERS:
        assert_same_bytes(tmp_path, rows, delimiter)


fields = st.text(alphabet=st.sampled_from('ab ,\t"\r\n\x00\\é東'), max_size=6) | st.text(max_size=8)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(fields, fields, fields), max_size=6),
       delimiter=st.sampled_from(DELIMITERS))
def test_generated_text_matches_csv_writer(tmp_path, rows, delimiter):
    assert_same_bytes(tmp_path, rows, delimiter)


def test_lone_surrogate_raises_as_the_csv_writer_does(tmp_path):
    rows = [("a", "b\ud800", "c")]
    assert outcome(with_csv, tmp_path / "csv.txt", rows, "\t") is UnicodeEncodeError
    assert_same_bytes(tmp_path, rows, "\t")


def assert_archive_matches_rows(net, tmp_path):
    """Both archive tables of ``net`` hold the per-row writers' bytes."""
    papers, edges = net.papers, net.edges.tolist()
    for write, oracle in ((lambda path: write_papers(net, path),
                           lambda path: row_parser.write_papers(papers, path)),
                          (lambda path: write_citations(net, path),
                           lambda path: row_parser.write_citations(papers, edges, path))):
        expected = outcome(oracle, tmp_path / "rows.tsv")
        assert outcome(write, tmp_path / "table.tsv") == expected


#: ids and labels holding what csv quotes, non-ASCII and astral characters
#: and characters of one, two and four bytes, of several widths
labels = st.text(alphabet=st.sampled_from('ab \t"\n\r,é東\U0001F600'), max_size=10)


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ids=st.lists(labels | st.text(max_size=30), min_size=1, max_size=8, unique=True),
       values=st.lists(labels, min_size=5, max_size=5), data=st.data())
def test_generated_archives_match_the_row_writers(tmp_path, ids, values, data):
    rows = st.integers(0, len(ids) - 1)
    papers = [make_paper(pid, date(1990 + 7 * k % 30, 1 + k % 12, 1 + 3 * k % 28),
                         country=values[k % 5], topic=values[(k + 1) % 5],
                         subfield=values[(k + 2) % 5], first=values[(k + 3) % 5],
                         last=values[(k + 4) % 5])
              for k, pid in enumerate(ids)]
    edges = data.draw(st.lists(st.tuples(rows, rows), max_size=12))
    net = CitationNetwork.from_papers(papers, np.array(edges, dtype=np.int64))
    assert_archive_matches_rows(net, tmp_path)


def test_lone_surrogate_in_an_id_raises_as_the_row_writers_do(tmp_path):
    net = CitationNetwork.from_papers(
        [make_paper("A", date(2010, 1, 1)), make_paper("\ud800B", date(2011, 1, 1))],
        np.array([[1, 0]]))
    assert outcome(lambda path: write_citations(net, path), tmp_path / "c.tsv") is (
        UnicodeEncodeError)
    assert_archive_matches_rows(net, tmp_path)


def test_tables_longer_than_a_block(tmp_path):
    # odd ids and labels on each side of every block seam, daily dates
    n = 2 * _BLOCK_ROWS + 7
    rng = np.random.default_rng(3)
    ids = np.array([f"P{k}" for k in range(n)], dtype=object)
    seams = [k for b in range(_BLOCK_ROWS, n, _BLOCK_ROWS) for k in (b - 1, b)]
    ids[seams] = [f'id,"{k}"\t東\n' for k in seams]
    columns = {name: np.array([VALUES[k % len(VALUES)] for k in range(n)])
               for name in PAPER_COLUMNS if name not in ("id", "pub_date")}
    columns["id"] = ids.astype(str)
    columns["gender"] = np.array(["MM", "WW", "MW", "WM", "UNKNOWN"] * n)[:n]
    columns["rank"] = np.array(["A*", "A", "B", "C", "Unranked"] * n)[:n]
    dates = np.datetime64("1990-01-01") + rng.integers(0, 40 * 365, n)
    edges = rng.integers(0, n, (n + 5, 2))
    edges[seams] = seams[0]
    net = CitationNetwork.from_columns(columns, dates, edges)
    assert net.n > _BLOCK_ROWS and net.m > _BLOCK_ROWS
    assert_archive_matches_rows(net, tmp_path)


def test_synth_archive_with_daily_dates(tmp_path):
    net = generate_network(SynthConfig(n_papers=600, seed=7, date_start=date(1980, 1, 1),
                                       date_end=date(2019, 12, 31)))
    assert np.unique(net.dates).size > net.n // 2
    assert_archive_matches_rows(net, tmp_path)
