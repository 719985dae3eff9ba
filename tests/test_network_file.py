"""The parsed network an archive stores beside its tables (``network.npz``).

``ingest`` and ``synth`` write it; ``model``, ``imbalance`` and ``rank``
read it instead of parsing the tables when it was stored for the tables'
current digests.  Differential tests: the stored network, filtered again,
equals the one parsed from the tables (ids, dates, edges, filter counts,
every column's codes and labels, dtypes included) on fixtures with Feb 29,
year-only date ties, later-dated citations and unknown tokens, on ids that
need quoting or are not ASCII, on a synth corpus with daily dates and on
rawgen archives.  Skip cases: tables edited after ``ingest`` are read
without a warning; a file that cannot be read or fails a check draws one
warning and the tables are read; an archive without it is read as before.
"""
import csv
import io
import json
import logging
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from citegap import cli
from citegap.corpus import (
    CITATION_COLUMNS,
    NETWORK_FORMAT,
    CitationNetwork,
    PAPER_COLUMNS,
    load_network,
    read_network,
    write_arrays,
)
from citegap.synth import SynthConfig, generate_network
from conftest import raw_entry, unsupported_compression
from test_columnar_load import FAULTS, SEEDS, tables
from test_table_writer import labels

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SYNTH_CONFIG = """n_papers=60
seed=5
date_start=2000-01-01
date_end=2004-12-31
out_degree=uniform:1,3
topics=4
"""


def run(*argv):
    return cli.main([str(a) for a in argv])


def stored(archive):
    """The network ``archive``'s network.npz stores for its tables."""
    inputs = cli._archive_inputs(archive)
    return read_network(archive / cli.NETWORK_FILE, inputs["papers"]["sha256"],
                        inputs["citations"]["sha256"])


def assert_same_network(net, expected):
    for name in ("ids", "dates", "edges", "window_floors"):
        a, b = getattr(net, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        np.testing.assert_array_equal(a, b)
    assert net.filter_counts == expected.filter_counts
    assert list(net.codes) == list(expected.codes)
    for name, (codes, labels) in expected.codes.items():
        got_codes, got_labels = net.codes[name]
        assert got_codes.dtype == codes.dtype and got_labels.dtype == labels.dtype, name
        np.testing.assert_array_equal(got_codes, codes)
        np.testing.assert_array_equal(got_labels, labels)


def assert_archive_stores_its_tables(archive):
    net = stored(archive)
    assert net is not None
    assert_same_network(net, load_network(archive / cli.PAPERS_FILE,
                                          archive / cli.CITATIONS_FILE))
    return net


def ingest(tmp_path, papers_text, citations_text, name="archive"):
    """Run ``ingest`` on the raw tables; its exit code and archive."""
    papers, citations = tmp_path / f"{name}-papers.tsv", tmp_path / f"{name}-citations.tsv"
    papers.write_text(papers_text, encoding="utf-8", newline="")
    citations.write_text(citations_text, encoding="utf-8", newline="")
    return run("ingest", papers, citations, tmp_path / name), tmp_path / name


# ---------------------------------------------------------------------------
# the stored network is the parsed one


@pytest.mark.parametrize("seed", [s for s in SEEDS if FAULTS[s % len(FAULTS)] is None])
def test_ingested_fixtures(seed, tmp_path):
    code, archive = ingest(tmp_path, *tables(seed))
    assert code == 0
    assert_archive_stores_its_tables(archive)


def test_fixtures_reach_every_case(tmp_path):
    """Over the fixture seeds: Feb 29, papers sharing a year-only date,
    kept citations to later-dated papers, UNKNOWN and Unranked tokens."""
    seen = set()
    for seed in (s for s in SEEDS if FAULTS[s % len(FAULTS)] is None):
        code, archive = ingest(tmp_path, *tables(seed), name=f"a{seed}")
        net = assert_archive_stores_its_tables(archive)
        days = net.dates.astype(object)
        seen.update(("feb29",) * any((d.month, d.day) == (2, 29) for d in days))
        _, counts = np.unique(net.dates[net.dates.astype("datetime64[Y]")
                                        == net.dates], return_counts=True)
        seen.update(("year tie",) * bool((counts > 1).any()))
        seen.update(("later",) * (net.filter_counts["later_dated_kept"] > 0))
        for field, token in (("gender", "UNKNOWN"), ("rank", "Unranked")):
            codes, names = net.attribute_codes(field)
            if token in names and (codes == names.index(token)).any():
                seen.add(token)
    assert seen == {"feb29", "year tie", "later", "UNKNOWN", "Unranked"}


def _raw_text(header, rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, delimiter="\t", lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ids=st.lists(labels | st.text(max_size=30), min_size=2, max_size=8, unique=True),
       values=st.lists(labels, min_size=5, max_size=5), data=st.data())
def test_generated_ids_and_labels(tmp_path, ids, values, data):
    # ids and labels needing csv quoting, non-ASCII and astral, as the
    # table writer's tests generate them, through ingest's own parse
    rows = [[pid, f"{1990 + 7 * k % 30}-{1 + k % 12:02d}-{1 + 3 * k % 28:02d}", "MM",
             "A*", values[k % 5], values[(k + 1) % 5], values[(k + 2) % 5],
             values[(k + 3) % 5], values[(k + 4) % 5]] for k, pid in enumerate(ids)]
    index = st.integers(0, len(ids) - 1)
    edges = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=12))
    code, archive = ingest(tmp_path, _raw_text(PAPER_COLUMNS, rows),
                           _raw_text(CITATION_COLUMNS, [(ids[u], ids[v]) for u, v in edges]))
    # ids equal once stripped, or no citation left, end ingest
    assume(code == 0)
    assert_archive_stores_its_tables(archive)


def test_synth_corpus_with_daily_dates(tmp_path):
    config = tmp_path / "synth.cfg"
    config.write_text("n_papers=600\nseed=7\ndate_start=1980-01-01\n"
                      "date_end=2019-12-31\ntopics=30\n")
    assert run("synth", config, tmp_path / "corpus") == 0
    net = assert_archive_stores_its_tables(tmp_path / "corpus")
    assert np.unique(net.dates).size > net.n // 2


def test_network_with_unused_labels_and_unfiltered_citations(tmp_path):
    # the file holds the tables' parse, labels narrowed to the values they
    # hold, and the filter runs on its citations as on the table's
    net = generate_network(SynthConfig(n_papers=80, seed=3))
    codes = dict(net.codes)
    for name in ("topic", "first_author"):
        column, names = codes[name]
        codes[name] = column, np.append(names, "\uffff unused")
    codes["last_author"] = codes["last_author"][0], codes["first_author"][1]
    edges = np.concatenate((net.edges, net.edges[:5], [[0, 0]]))
    archive = tmp_path / "archive"
    archive.mkdir()
    cli._write_archive(CitationNetwork(net.ids, net.dates, codes, edges), archive)
    counts = assert_archive_stores_its_tables(archive).filter_counts
    assert counts["duplicates"] == 5 and counts["self_citations"] == 1


@pytest.mark.parametrize("seed", [1, 7])
def test_rawgen_archives(seed, tmp_path):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import rawgen
    finally:
        sys.path.remove(str(PERFBENCH))
    rawgen.generate(2000, 30, seed).write(tmp_path / "papers.tsv", tmp_path / "citations.tsv")
    assert run("ingest", tmp_path / "papers.tsv", tmp_path / "citations.tsv",
               tmp_path / "archive") == 0
    net = assert_archive_stores_its_tables(tmp_path / "archive")
    assert net.m > 5000


def test_two_ingests_write_the_same_bytes(tmp_path):
    _, first = ingest(tmp_path, *tables(0), name="first")
    _, second = ingest(tmp_path, *tables(0), name="second")
    assert (first / cli.NETWORK_FILE).read_bytes() == (second / cli.NETWORK_FILE).read_bytes()


# ---------------------------------------------------------------------------
# the commands read it, and skip it when they must


@pytest.fixture
def archive(tmp_path):
    config = tmp_path / "synth.cfg"
    config.write_text(SYNTH_CONFIG)
    assert run("synth", config, tmp_path / "corpus") == 0
    assert run("ingest", tmp_path / "corpus" / cli.PAPERS_FILE,
               tmp_path / "corpus" / cli.CITATIONS_FILE, tmp_path / "archive") == 0
    return tmp_path / "archive"


def outputs(tmp_path, archive, name):
    """Every file that model, imbalance and rank write from ``archive``
    (their manifests but the input paths and argv), by name."""
    out = tmp_path / name
    assert run("model", archive, out / "model", "--model", "pd") == 0
    assert run("imbalance", archive, out / "model", out / "imbalance", "--bootstrap", 20,
               "--stratify", "rank") == 0
    assert run("rank", archive, out / "rank", "--model-artifact", out / "model",
               "--metric", "pagerank") == 0
    files = {}
    for path in sorted(out.rglob("*")):
        if path.name == cli.MANIFEST_FILE:
            manifest = json.loads(path.read_text())
            for key in ("command", "inputs", "timestamp"):
                manifest.pop(key)
            files[str(path.relative_to(out))] = manifest
        elif path.is_file():
            files[str(path.relative_to(out))] = path.read_bytes()
    return files


def warnings(caplog):
    return [r.getMessage() for r in caplog.records
            if r.levelno >= logging.WARNING and r.name == "citegap"]


def test_commands_read_the_stored_network(archive, tmp_path, monkeypatch):
    def no_parse(*args):
        raise AssertionError("the tables were parsed")

    monkeypatch.setattr(cli, "load_network", no_parse)
    outputs(tmp_path, archive, "stored")


def test_archive_without_the_file(archive, tmp_path, caplog):
    expected = outputs(tmp_path, archive, "stored")
    (archive / cli.NETWORK_FILE).unlink()
    caplog.clear()
    assert outputs(tmp_path, archive, "tables") == expected
    assert warnings(caplog) == []


def test_tables_edited_after_ingest(archive, tmp_path, caplog):
    papers = archive / cli.PAPERS_FILE
    rows = papers.read_text(encoding="utf-8").split("\n")
    fields = rows[1].split("\t")
    fields[4] = "EDITED"
    rows[1] = "\t".join(fields)
    papers.write_text("\n".join(rows), encoding="utf-8")
    caplog.clear()
    got = outputs(tmp_path, archive, "edited")
    assert warnings(caplog) == []
    # a fresh ingest of the edited tables writes them to the same bytes
    assert run("ingest", papers, archive / cli.CITATIONS_FILE, tmp_path / "fresh") == 0
    assert (tmp_path / "fresh" / cli.PAPERS_FILE).read_bytes() == papers.read_bytes()
    assert outputs(tmp_path, tmp_path / "fresh", "from-fresh") == got
    assert stored(archive) is None
    assert "EDITED" in load_network(papers, archive / cli.CITATIONS_FILE).attribute_codes(
        "country")[1]


def read_arrays(path):
    with np.load(path) as npz:
        return {name: npz[name] for name in npz.files}


def rewrite(**changes):
    """A mutation that stores the arrays with ``changes`` applied: a
    callable of the array gives its new value, ``None`` drops it."""
    def mutate(path):
        arrays = read_arrays(path)
        for name, change in changes.items():
            if change is None:
                del arrays[name]
            else:
                arrays[name] = change(arrays[name])
        write_arrays(path, arrays)
    return mutate


def flip_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 3] ^= 0xFF
    path.write_bytes(bytes(data))


def set_first(value, dtype=None):
    def change(a):
        a = a.astype(dtype or a.dtype)
        a.reshape(-1)[0] = value
        return a
    return change


BROKEN = {
    "garbage": lambda path: path.write_bytes(b"not a zip archive"),
    "empty": lambda path: path.write_bytes(b""),
    "truncated": lambda path: path.write_bytes(path.read_bytes()[:path.stat().st_size // 2]),
    "flipped byte": flip_byte,
    "unknown compression": unsupported_compression,
    "no dates": rewrite(dates=None),
    "no format": rewrite(format=None),
    "no digest": rewrite(papers_sha256=None),
    "format 2": rewrite(format=lambda a: np.array(NETWORK_FORMAT + 1)),
    "format as text": rewrite(format=lambda a: np.array("1")),
    "format in 1-D": rewrite(format=lambda a: np.array([NETWORK_FORMAT])),
    "format as uint8": rewrite(format=lambda a: np.array(NETWORK_FORMAT, np.uint8)),
    "format as float": rewrite(format=lambda a: np.array(float(NETWORK_FORMAT))),
    "dates as integers": rewrite(dates=lambda a: a.astype(np.int64)),
    "NaT date": rewrite(dates=set_first(np.datetime64("NaT"))),
    "ids as integers": rewrite(ids=lambda a: np.arange(a.size)),
    "ids as bytes": rewrite(ids=lambda a: a.astype("S")),
    "ids in 2-D": rewrite(ids=lambda a: a.reshape(1, -1)),
    "codes as floats": rewrite(topic_codes=lambda a: a.astype(float)),
    "a code short": rewrite(country_codes=lambda a: a[:-1]),
    "code past its labels": rewrite(topic_codes=set_first(4)),
    "negative code": rewrite(first_author_codes=set_first(-1)),
    "gender past its labels": rewrite(gender_codes=set_first(5)),
    "gender labels short": rewrite(gender_labels=lambda a: a[:3]),
    "ranks out of order": rewrite(rank_labels=lambda a: a[::-1].copy()),
    "edges flat": rewrite(edges=lambda a: a.reshape(-1)),
    "edge row past N": rewrite(edges=set_first(10**6)),
    "edge row at 2**31": rewrite(edges=set_first(2**31, np.int64)),
    # numpy returns an entry that is not an .npy as bytes
    "format not an .npy": lambda path: raw_entry(path, "format"),
    "ids not an .npy": lambda path: raw_entry(path, "ids", b"not an array"),
}


@pytest.mark.parametrize("mutation", list(BROKEN))
def test_broken_file_draws_one_warning(mutation, archive, tmp_path, caplog):
    expected = outputs(tmp_path, archive, "clean")
    path = archive / cli.NETWORK_FILE
    BROKEN[mutation](path)
    caplog.clear()
    cli._load_inputs(archive)
    found = warnings(caplog)
    assert len(found) == 1 and str(path) in found[0] and "reading the tables" in found[0]
    # a stored 1 that is not a 0-d signed integer is named by its dtype and
    # shape, not as the very format it fails to be
    for value in (NETWORK_FORMAT, float(NETWORK_FORMAT)):
        assert f"format {value}, not {NETWORK_FORMAT}" not in found[0]
    assert outputs(tmp_path, archive, "broken") == expected

