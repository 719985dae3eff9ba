"""The loader's integer keys against the row-wise load (``row_parser``).

The columnar load reads each table into one array of code points, keeps
every field as a range of it and codes columns and citation ids by
integer keys packed from the fields' characters.  Each case here is a
pair of tables written once with ``\\n`` line ends, which the loader cuts
at once, and once with ``\\r\\n``, which it reads through :mod:`csv`; both
must load as the row-wise oracle does.  The cases reach what one-word keys
cannot tell apart: ids sharing their first 8 or 16 characters, Latin-1
and CJK values in one column, Unicode spaces and NULs at a field's edge,
and long ids named in the errors.
"""
import csv
import io
import logging
import random
import tracemalloc
from datetime import date

import numpy as np
import pytest

from citegap import corpus
from citegap.corpus import (
    CITATION_COLUMNS,
    PAPER_COLUMNS,
    IngestError,
    _Fields,
    _labelled,
    _split,
    filter_citations,
    parse_citations,
    parse_papers,
)
from conftest import make_paper
from test_columnar_load import load_columns, load_rows, network, outcome, token

#: ids sharing their first 8 or 16 characters, around word boundaries
LONG_IDS = ("ABCDEFGH", "ABCDEFGHI", "ABCDEFGHIJKLMNOP", "ABCDEFGHIJKLMNOPQ",
            "ABCDEFGHIJKLMNOQ", "10.1145/3442188.3445922", "10.1145/3442188.3445923",
            "10.1145/3442188.344592", "Zürich-2010", "東京-1", "東京-10")
#: values that sort differently by bytes, by first word or by length
VALUES = ("US", "Zürich", "東京", "ÿ", "Ā", "a", "aa", "ab", "ABCDEFGH", "ABCDEFGH0",
          "ABCDEFGHA", "ABCDEFGHIJKLMNOPQ", "ABCDEFGHIJKLMNOP", "é" * 9, "e" * 9)


def paper_rows(ids, rng, values=VALUES):
    return [[pid, f"{2000 + k % 9}", rng.choice(("MM", "WW", "MW")), rng.choice(("A*", "B")),
             rng.choice(values), rng.choice(values), rng.choice(values),
             rng.choice(values), rng.choice(values)]
            for k, pid in enumerate(ids)]


def citation_rows(ids, rng, count=40):
    return [[rng.choice(ids), rng.choice(ids)] for _ in range(count)]


def texts(papers, citations, end):
    """Both tables with ``end`` line ends; no field is quoted."""
    def table(header, rows):
        return "".join("\t".join(row) + end for row in [list(header), *rows])
    return table(PAPER_COLUMNS, papers), table(CITATION_COLUMNS, citations)


def assert_loads_as_rows(papers, citations, caplog):
    """Both line ends load as the row-wise oracle loads them, the first
    through the cut, the second through csv, and every label column of a
    network that loads is in ``sorted`` order; returns the result."""
    caplog.set_level(logging.WARNING, logger="citegap.corpus")
    results = []
    for end, split in (("\n", True), ("\r\n", False)):
        pair = texts(papers, citations, end)
        assert (_split(pair[0], len(PAPER_COLUMNS)) is not None) == split
        expected = outcome(load_rows, pair, caplog)
        assert outcome(load_columns, pair, caplog) == expected
        if not isinstance(expected[0][0], type):
            assert_labels_sorted(network(*pair))
        results.append(expected[0])
    assert results[0] == results[1]
    return results[0]


def assert_labels_sorted(net):
    for name in ("country", "topic", "subfield", "first_author", "last_author"):
        codes, labels = net.codes[name]
        values = [token(p, name) for p in net.papers]
        present = set(values)
        if name.endswith("_author"):
            present = {p.first_author for p in net.papers} | {p.last_author for p in net.papers}
        assert labels.tolist() == sorted(present)
        assert labels[codes].tolist() == values


def test_ids_sharing_their_first_words(caplog):
    rng = random.Random(1)
    papers = paper_rows(LONG_IDS, rng)
    result = assert_loads_as_rows(papers, citation_rows(LONG_IDS, rng), caplog)
    assert result[1], "the table should keep some citations"
    assert {p.id for p in result[0]} <= set(LONG_IDS)


def test_latin1_and_cjk_values_in_one_column(caplog):
    rng = random.Random(2)
    ids = [f"P{k}" for k in range(30)]
    result = assert_loads_as_rows(paper_rows(ids, rng), citation_rows(ids, rng, 80), caplog)
    assert {"Zürich", "東京"} <= {p.country for p in result[0]} | {p.topic for p in result[0]}


@pytest.mark.parametrize("values", [VALUES, ("US", "DE", "Zürich", "ÿ"), ("東京", "US")],
                         ids=["all", "latin-1", "cjk"])
def test_labels_in_sorted_order(values, caplog):
    rng = random.Random(3)
    ids = [f"P{k}" for k in range(40)]
    result = assert_loads_as_rows(paper_rows(ids, rng, values), citation_rows(ids, rng, 120),
                                  caplog)
    assert len({p.country for p in result[0]}) > 1


@pytest.mark.parametrize("space", ["\u3000", "\xa0", "\u2003", "\x85", " \u3000 ", "\x1f",
                                   "\u2000\u200a", "\u1680\u2028\u2029\u202f\u205f"])
def test_unicode_space_at_an_edge(space, caplog):
    rng = random.Random(4)
    ids = [f"P{k}" for k in range(12)]
    papers = paper_rows(ids, rng)
    padded = lambda value: f"{space}{value}{space}"
    for row in papers[::2]:
        row[0], row[4], row[7] = padded(row[0]), padded(row[4]), padded(row[7])
    citations = [[padded(u), v] for u, v in citation_rows(ids, rng)]
    result = assert_loads_as_rows(papers, citations, caplog)
    assert result[1] and {p.id for p in result[0]} <= set(ids)


@pytest.mark.parametrize("char", ["\u200b", "\u180e", "\xff", "\x1b"])
def test_other_character_at_an_edge_is_kept(char, caplog):
    # none of them is a space to str.isspace
    rng = random.Random(4)
    ids = [f"P{k}" for k in range(12)]
    papers = paper_rows(ids, rng)
    for row in papers[::2]:
        row[4] = f"{char}{row[4]}{char}"
    result = assert_loads_as_rows(papers, citation_rows(ids, rng), caplog)
    assert any(p.country.startswith(char) and p.country.endswith(char) for p in result[0])


@pytest.mark.parametrize("nul", ["\x00", "\x00\x00", " \x00", "\x00 ", "　\x00"])
def test_trailing_nul_loads_as_if_absent(nul, caplog):
    try:
        list(csv.reader(["a\x00"]))
    except csv.Error:
        pytest.skip("this Python's csv reader rejects NUL")
    rng = random.Random(5)
    ids = [f"P{k}" for k in range(12)] + ["10.1145/3442188.3445922"]
    papers = paper_rows(ids, rng)
    citations = citation_rows(ids, rng)
    expected = assert_loads_as_rows(papers, citations, caplog)
    # a NUL sends the text through csv; a numpy str array drops trailing
    # NULs, so the fields load as if the NULs were not there
    with_nul = [[v + nul if k % 2 else v for k, v in enumerate(row)] for row in papers]
    cited = [[u, v + nul] for u, v in citations]
    for end in ("\n", "\r\n"):
        pair = texts(with_nul, cited, end)
        assert _split(pair[0], len(PAPER_COLUMNS)) is None
        assert outcome(load_columns, pair, caplog)[0] == expected


def test_duplicate_long_id_is_named(caplog):
    rng = random.Random(6)
    ids = list(LONG_IDS) + ["10.1145/3442188.3445922"]
    result = assert_loads_as_rows(paper_rows(ids, rng), citation_rows(ids, rng), caplog)
    assert result == (IngestError, "duplicate paper id '10.1145/3442188.3445922'")


@pytest.mark.parametrize("bad", ["10.1145/3442188.3445929", "ABCDEFGHIJKLMNOPR", "東京-2",
                                 "ABCDEFGHIJ"])
def test_unknown_long_id_is_named(bad, caplog):
    rng = random.Random(7)
    citations = citation_rows(LONG_IDS, rng)
    citations.insert(5, [LONG_IDS[1], bad])
    result = assert_loads_as_rows(paper_rows(LONG_IDS, rng), citations, caplog)
    assert result == (IngestError, f"citation ({LONG_IDS[1]!r}, {bad!r}): unknown cited id {bad!r}")


def test_ids_given_as_str_may_hold_a_lone_surrogate():
    papers = [make_paper("A", date(2010, 1, 1)), make_paper("\ud800B", date(2011, 1, 1))]
    net = filter_citations(papers, [("\ud800B", "A")])
    assert net.ids.tolist() == ["A", "\ud800B"] and net.m == 1
    with pytest.raises(IngestError) as info:
        filter_citations(papers, [("\ud800", "A")])
    assert str(info.value) == "citation ('\\ud800', 'A'): unknown citing id '\\ud800'"


# ---------------------------------------------------------------------------
# the codes themselves


def random_values(rng, count, alphabet):
    return [rng.choice(("", "a", "ab")) + "".join(
                rng.choice(alphabet) for _ in range(rng.choice((0, 1, 7, 8, 9, 15, 16, 17, 30))))
            + rng.choice(("", "a", alphabet[-1])) for _ in range(count)]


def assert_codes_match_unique(values):
    # trailing NULs are not part of a loaded value
    values = [v.rstrip("\x00") for v in values]
    expected_labels, expected = np.unique(np.array(values, dtype=str), return_inverse=True)
    for fields in (_Fields.joined(values), _Fields.of_array(np.array(values, dtype=str))):
        codes, labels = _labelled(fields)
        assert codes.tolist() == expected.reshape(-1).tolist()
        assert labels.tolist() == expected_labels.tolist() == sorted(set(values))


#: characters for random values: Latin-1 only (one byte each), and any
ALPHABETS = {"latin-1": "ab\x00\x01z é\xff", "any": "ab\x00\x01z é\xffĀ東"}


@pytest.mark.parametrize("alphabet", ALPHABETS)
@pytest.mark.parametrize("seed", range(4))
def test_codes_follow_sorted_order(seed, alphabet):
    assert_codes_match_unique(random_values(random.Random(seed), 300, ALPHABETS[alphabet]))


@pytest.mark.parametrize("alphabet", ALPHABETS)
@pytest.mark.parametrize("seed", range(4))
def test_find_gives_the_first_row_holding_each_value(seed, alphabet):
    # ids resolve through the codes of paper ids and citation ids together
    rng = random.Random(seed)
    values, others = ([v.rstrip("\x00") for v in random_values(rng, count, ALPHABETS[alphabet])]
                      for count in (200, 100))
    needles = others + values[::3]
    first = {}
    for k, value in enumerate(values):
        first.setdefault(value, k)
    found, firsts = corpus._find(_Fields.joined(values), _Fields.joined(needles))
    assert found.tolist() == [first.get(value, -1) for value in needles]
    assert firsts.tolist() == [first[value] for value in values]


def test_long_id_loads_in_memory_that_follows_the_text():
    # a 2,000-row citation table with one 100,000-character id: no array
    # is as wide as the id for every row
    long_id = "X" * 100_000
    rows = [f"P{k}\tP{(k * 7) % 2000}" for k in range(2000)]
    rows[1000] = f"P1\t{long_id}"
    text = "citing_id\tcited_id\n" + "\n".join(rows) + "\n"
    papers = parse_papers(io.StringIO("\t".join(PAPER_COLUMNS) + "\n" + "".join(
        f"P{k}\t2010\tMM\tA\tUS\tT\tS\ta{k}\tb{k}\n" for k in range(2000))))
    # csv reads its text from a StringIO, four bytes a character, and
    # builds a list per row, as the row-wise load does
    for source, bound in ((text, 8), (text.replace("\n", "\r\n"), 20)):
        stream = io.StringIO(source, newline="")
        tracemalloc.start()
        try:
            citations = parse_citations(stream)
            with pytest.raises(IngestError) as info:
                filter_citations(papers, citations)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(citations) == 2000
        assert str(info.value) == f"citation ('P1', {long_id!r}): unknown cited id {long_id!r}"
        assert peak < bound * len(source), peak / len(source)


class CountingNumpy:
    """numpy, counting the calls of ``cumsum``."""

    def __init__(self):
        self.cumsums = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def cumsum(self, *args, **kwargs):
        self.cumsums += 1
        return np.cumsum(*args, **kwargs)


def test_sort_passes_follow_the_longest_shared_prefix(monkeypatch):
    # each pass of _sort numbers its tied runs with one cumsum.  Values
    # held by several fields are read to their end, distinct values to
    # the word that tells them apart; a long value no other field shares
    # costs no pass of its own
    values = ["X" * 100_000, "Q" * 40 + "a", "Q" * 40 + "b", "R" * 60, "R" * 60,
              *(f"P{k % 10}" for k in range(50))]
    words, ptr = _Fields.joined(values).words()
    counting = CountingNumpy()
    monkeypatch.setattr(corpus, "np", counting)
    rows, new = corpus._sort(words, ptr, np.arange(len(values)))
    monkeypatch.undo()
    assert [values[r] for r in rows] == sorted(values)
    assert new.sum() == len(set(values))
    # the longest prefix two fields share is "R" * 60: 8 words of 8
    # characters, and one more pass finds every run ended
    assert counting.cumsums <= 8 + 1


def test_from_columns_gives_back_the_arrays_it_was_given():
    # a table built from str arrays reads its ids and labels from them
    values = {name: np.array([f"{name[0]}{k % 3}" for k in range(6)]) for name in PAPER_COLUMNS}
    values["id"] = np.array([f"P{k}" for k in range(6)])
    values.pop("pub_date")
    values["gender"], values["rank"] = np.array(["MM"] * 6), np.array(["A"] * 6)
    table = corpus.PaperTable.from_columns(values, np.array(["2010-01-01"] * 6, "datetime64[D]"))
    assert np.shares_memory(table.ids, values["id"])
    codes, labels = table.codes["country"]
    assert labels.dtype == values["country"].dtype and labels[codes].tolist() == values[
        "country"].tolist()
