"""Differential sweep: the columnar corpus load against the row-wise one
(``row_parser``) on generated tables.

Each seed writes a paper and a citation table, plain (every line split
at once) or messy (quoted fields holding quotes, tabs, commas and
newlines, CRLF line endings, blank lines), with padded and non-ASCII
values, unknown gender/rank tokens and, by seed, one fault: an odd date,
a duplicate paper id, an unknown citing or cited id, a row with a column
missing, or a bad header.  Both loads must agree on the network, the
error and the warnings.
"""
import csv
import io
import logging
import random
from datetime import date

import numpy as np
import pytest

from citegap import cli, refmodels
from citegap.corpus import (
    CITATION_COLUMNS,
    PAPER_COLUMNS,
    RANK_ORDER,
    SELECTABLE_FIELDS,
    CitationNetwork,
    GenderCategory,
    Paper,
    ParseError,
    _csv_rows,
    _parse_dates,
    _split_fields,
    filter_citations,
    parse_citations,
    parse_papers,
    parse_pub_date,
    read_papers,
    write_citations,
    write_papers,
)
from conftest import build_toy_pd, make_paper
import row_parser

SEEDS = range(64)
FAULTS = (None, None, "odd_date", "duplicate_id", "unknown_citing", "unknown_cited",
          "columns", "header")
GENDERS = ("MM", "MW", "WM", "WW", "UNKNOWN", "MM", "WW", "XX", " mw ")
RANKS = ("A*", "A", "B", "C", "Unranked", "A*", "B", "Z", "a*")
DATES = ("2010-01-05", "2011", "2012-02-29", "2005-12-31", "2003", "2009-07-14",
         "1990", " 2008 ", "2008-02-29")
ODD_DATES = ("2011-02-29", "0000", "20100105", "２０１０", "2010-13-01", "201O",
             "0001-01-01", "١٩٩٩")
VALUES = ("US", "DE", "Zürich", "東京", "x,y", " padded ", "　wide　")
QUOTED = ('say "hi"', "tab\there", "line\nbreak", '"', '""', "a,b")


def _text(header, rows, rng, messy):
    """A table as csv writes it, with CRLF endings and blank lines when
    ``messy``."""
    end = "\r\n" if messy and rng.random() < 0.5 else "\n"
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, delimiter="\t", lineterminator=end)
    writer.writerow(header)
    for row in rows:
        if messy and rng.random() < 0.1:
            buf.write(end)
        writer.writerow(row)
    return buf.getvalue()


def tables(seed, messy=None):
    """The (papers, citations) texts of one seed; ``messy`` defaults to
    every other pair of seeds."""
    rng = random.Random(seed)
    fault = FAULTS[seed % len(FAULTS)]
    if messy is None:
        messy = (seed // len(FAULTS)) % 2 == 1
    values = VALUES + QUOTED if messy else VALUES
    n = rng.randrange(5, 12)
    papers = [[f"P{k}", rng.choice(DATES), rng.choice(GENDERS), rng.choice(RANKS),
               rng.choice(values), f"T{rng.randrange(3)}", rng.choice(values),
               f"a{rng.randrange(5)}", rng.choice((f"a{rng.randrange(5)}", "Ünal"))]
              for k in range(n)]
    ids = [row[0] for row in papers]
    citations = [[rng.choice(ids), rng.choice(ids)] for _ in range(rng.randrange(n, 3 * n))]
    header = list(PAPER_COLUMNS)
    if fault == "odd_date":
        papers[rng.randrange(n)][1] = rng.choice(ODD_DATES)
    elif fault == "duplicate_id":
        # two ids repeat; the error names the one repeated first
        first, second, *repeats = sorted(rng.sample(range(n), 4))
        rng.shuffle(repeats)
        papers[repeats[0]][0], papers[repeats[1]][0] = ids[first], ids[second]
    elif fault in ("unknown_citing", "unknown_cited"):
        # the first bad row names its citing id when both are unknown
        known = rng.choice(ids)
        bad = ["GHOST", rng.choice((known, "PHANTOM"))] if fault == "unknown_citing" \
            else [known, "GHOST"]
        at = rng.randrange(len(citations))
        citations[at:at] = [bad, rng.choice(([known, "LATE"], ["LATE", known]))]
    elif fault == "columns":
        table = rng.choice((papers, citations))
        del rng.choice(table)[-1]
    elif fault == "header":
        header[rng.randrange(len(header))] = "bogus"
    return (_text(header, papers, rng, messy),
            _text(list(CITATION_COLUMNS), citations, rng, messy))


def network(papers_text, citations_text):
    return filter_citations(parse_papers(io.StringIO(papers_text, newline="")),
                            parse_citations(io.StringIO(citations_text, newline="")))


def load_columns(papers_text, citations_text):
    net = network(papers_text, citations_text)
    return net.papers, net.edges.tolist(), net.filter_counts


def load_rows(papers_text, citations_text):
    papers = row_parser.parse_papers(io.StringIO(papers_text, newline=""))
    edges = row_parser.parse_citations(io.StringIO(citations_text, newline=""))
    kept, pairs, counts = row_parser.filter_rows(papers, edges)
    return tuple(kept), [list(e) for e in pairs], counts


def outcome(load, texts, caplog):
    """The load's result or (exception type, message), and its warnings."""
    caplog.clear()
    try:
        result = load(*texts)
    except (ValueError, csv.Error) as exc:
        result = (type(exc), str(exc))
    return result, [(r.name, r.levelname, r.getMessage()) for r in caplog.records]


def token(paper, name):
    value = getattr(paper, name)
    return value.value if name in ("gender", "rank") else value


@pytest.mark.parametrize("seed", SEEDS)
def test_load_matches_row_parser(seed, caplog):
    caplog.set_level(logging.WARNING, logger="citegap.corpus")
    texts = tables(seed)
    expected = outcome(load_rows, texts, caplog)
    assert outcome(load_columns, texts, caplog) == expected
    if isinstance(expected[0][0], type):
        return
    net = network(*texts)
    assert net.ids.tolist() == [p.id for p in net.papers]
    assert net.dates.tolist() == [p.pub_date for p in net.papers]
    # labels: every gender category; present ranks by prestige; others sorted
    for name in SELECTABLE_FIELDS:
        codes, labels = net.attribute_codes(name)
        present = {token(p, name) for p in net.papers}
        assert labels == (tuple(g.value for g in GenderCategory) if name == "gender"
                          else tuple(r.value for r in RANK_ORDER if r.value in present)
                          if name == "rank" else tuple(sorted(present)))
        assert [labels[c] for c in codes.tolist()] == [token(p, name) for p in net.papers]


def test_sweep_reaches_every_case(caplog):
    caplog.set_level(logging.WARNING, logger="citegap.corpus")
    errors = ("expected 9 columns", "expected 2 columns", "bad pub_date", "header",
              "duplicate paper id", "unknown citing id", "unknown cited id")
    seen = set()
    for seed in SEEDS:
        texts = tables(seed)
        result, warnings = outcome(load_rows, texts, caplog)
        if isinstance(result[0], type):
            seen.update(case for case in errors if case in result[1])
        else:
            seen.update(rule for rule, count in result[2].items() if count)
        seen.update(f"{kind} warning" for kind in ("gender", "rank")
                    if any(f"unknown {kind} token" in w[2] for w in warnings))
        joined = "".join(texts)
        seen.update(feature for feature, present in (
            ("crlf", "\r\n" in joined), ("quote", '"' in joined),
            ("blank", "\n\n" in joined or "\r\n\r\n" in joined),
            ("split", _split_fields(texts[0], len(PAPER_COLUMNS)) is not None)) if present)
    assert seen == {*errors, "duplicates", "out_of_window", "self_citations",
                    "isolated_papers", "later_dated_kept", "gender warning",
                    "rank warning", "crlf", "quote", "blank", "split"}


@pytest.mark.parametrize("seed", SEEDS)
def test_split_and_csv_tokenizers_agree(seed):
    compared = 0
    for messy in (False, True):
        for text, width in zip(tables(seed, messy), (len(PAPER_COLUMNS), 2)):
            fields = _split_fields(text, width)
            if fields is None:
                continue
            header, rows, lines, error = _csv_rows(text, width)
            assert error is None
            assert fields == header + [f for row in rows for f in row]
            assert lines == list(range(2, 2 + len(rows)))
            compared += 1
    # a plain table without a faulty row always splits
    assert compared or FAULTS[seed % len(FAULTS)] == "columns"


@pytest.mark.parametrize("text", [
    'id\tx\n"a"\tb\n', "id\tx\r\na\tb\r\n", "id\tx\n\na\tb\n", "id\tx\na\tb\tc\n",
    "id\tx\na\n", "", "\n", "id\tx\na\x00\tb\n", "\nid\tx\na\tb\n",
])
def test_split_declines_what_csv_must_read(text):
    assert _split_fields(text, 2) is None


def test_split_reads_a_table_without_final_newline():
    assert _split_fields("id\tx\n a \tb", 2) == ["id", "x", " a ", "b"]


@pytest.mark.parametrize("text", [
    "2012-02-29", "2011-02-29", "2010", "0000", "20100105", "２０１０", "١٩٩٩",
    "0001-01-01", "9999-12-31", "2010-1-05", "2010-01-5", "2010-00-10", "2010-13-01",
    "2010-04-31", "2010-04-30", "201O", "", "10000", "2010-01-01T00", "-2010",
    "2010-01-0١", "2010/01/05", "2010-01/05", "2010.01.05", "20100-1-05",
])
def test_dates_match_parse_pub_date(text):
    try:
        expected = np.datetime64(parse_pub_date(text), "D")
    except ValueError as exc:
        expected = (type(exc), str(exc))
    dates, failed = _parse_dates(np.array(["2000", text, "2001-02-03"]))
    if failed is None:
        assert dates.tolist() == [date(2000, 1, 1), expected.item(), date(2001, 2, 3)]
    else:
        row, exc = failed
        assert (row, (type(exc), str(exc))) == (1, expected)


def test_warnings_before_a_malformed_row_are_logged_first(caplog):
    caplog.set_level(logging.WARNING, logger="citegap.corpus")
    text = ("\t".join(PAPER_COLUMNS) + "\nP1\t2010\tXX\tZ\tUS\tT\tS\ta\tb\n"
            "P2\t2011\tMM\tA\tUS\n")
    for parse in (row_parser.parse_papers, parse_papers):
        caplog.clear()
        with pytest.raises(ParseError) as info:
            parse(io.StringIO(text, newline=""))
        assert str(info.value) == "line 3: expected 9 columns, got 5"
        assert [r.getMessage()[:28] for r in caplog.records] == [
            "line 2: unknown gender token", "line 2: unknown rank token '"]


# ---------------------------------------------------------------------------
# the archive writer and the paper records


def _columns(table):
    return table._text(), [table.attribute_codes(f) for f in SELECTABLE_FIELDS]


def assert_round_trip(net, tmp_path):
    """``write_papers`` writes the old writer's bytes, and reading them
    back gives the same columns and, written again, the same bytes."""
    written, old, again = (tmp_path / name for name in ("new.tsv", "old.tsv", "again.tsv"))
    write_papers(net, written)
    row_parser.write_papers(net.papers, old)
    assert written.read_bytes() == old.read_bytes()
    table = read_papers(written)
    write_papers(table, again)
    assert again.read_bytes() == written.read_bytes()
    text, codes = _columns(table)
    expected_text, expected_codes = _columns(net)
    assert text == expected_text
    for (c, labels), (e, expected_labels) in zip(codes, expected_codes):
        assert labels == expected_labels and c.tolist() == e.tolist()


@pytest.mark.parametrize("seed", [s for s in SEEDS if FAULTS[s % len(FAULTS)] is None])
def test_archive_round_trip(seed, tmp_path):
    net = network(*tables(seed))
    assert_round_trip(net, tmp_path)


def test_round_trip_of_values_holding_quotes(tmp_path):
    odd = ['"', '""', 'say "hi"', '"lead', 'trail"', "tab\tin", "new\nline", "a,b"]
    papers = [make_paper(f"Q{k}", date(2010 + k % 3, 1, 1), country=v, topic=v,
                         subfield=v, first=f"f{v}", last=f"{v}l")
              for k, v in enumerate(odd)]
    edges = [(papers[k + 1].id, papers[k].id) for k in range(len(papers) - 1)]
    net = filter_citations(papers, edges)
    assert net.n == len(odd)
    assert_round_trip(net, tmp_path)


def test_archive_load_builds_no_paper(tmp_path, monkeypatch):
    archive = tmp_path / "archive"
    archive.mkdir()
    net = build_toy_pd()
    expected = net.papers
    write_papers(net, archive / cli.PAPERS_FILE)
    write_citations(net, archive / cli.CITATIONS_FILE)
    built = []
    init = Paper.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0] if args else kwargs.get("id"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Paper, "__init__", counting_init)
    loaded = cli._load_archive(archive)
    # the raw tables of the csv path build none either
    network(*tables(0, messy=True))
    assert built == []
    assert (loaded.n, loaded.m) == (net.n, net.m)
    # the record view builds one per paper, on first use
    assert loaded.papers == expected and len(built) == net.n


@pytest.mark.parametrize("seed", [s for s in SEEDS if FAULTS[s % len(FAULTS)] is None])
def test_ids_and_index_match_a_network_of_papers(seed):
    net = network(*tables(seed))
    fresh = CitationNetwork.from_papers(net.papers, net.edges)
    assert net.ids.tolist() == fresh.ids.tolist()
    assert net.index_of == fresh.index_of
    assert net.index_of == {p.id: k for k, p in enumerate(net.papers)}


def test_key_codes_once_per_pd_call(toy_pd, monkeypatch):
    calls = []
    key_codes = refmodels._key_codes

    def counting(net, attributes):
        calls.append(attributes)
        return key_codes(net, attributes)

    expected = refmodels.compute_model(toy_pd, "PD", ("rank", "topic"))
    monkeypatch.setattr(refmodels, "_key_codes", counting)
    ec = refmodels.compute_model(toy_pd, "PD", ("rank", "topic"))
    assert calls == [("rank", "topic")]
    for name in ("order", "c_bar", *cli.GROUP_ARRAYS):
        a, b = getattr(ec, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
