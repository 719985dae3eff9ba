"""Differential test: ``write_table`` against :mod:`csv`'s writer.

Every table the program writes goes through ``write_table``, which joins
whole columns and leaves only the fields that need quoting to :mod:`csv`.
For the tab and the comma delimiter its bytes must equal those of a
``csv.writer`` with ``lineterminator="\\n"`` on the same rows (or both
must raise the same error), on the values of the columnar load sweep, on
hand-picked edge cases and on generated text.
"""
import csv

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from citegap.corpus import write_table
from test_columnar_load import QUOTED, VALUES

DELIMITERS = ("\t", ",")
EDGES = ("", " ", "\r", "a\rb", "\r\n", "\n", "x\x00y", "  padded  ", "\u3000wide\u3000",
         "Zürich", "東京", "é,\t\"", "'single'", "trailing\\", "\ufeffbom")
HEADER = ("first", "second", "third")


def outcome(write, path, rows, delimiter):
    try:
        write(path, rows, delimiter)
    except csv.Error as exc:
        return type(exc), str(exc)
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
