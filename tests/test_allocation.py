"""Allocation bounds of the corpus text I/O and of the model artifact
reader, as multiples of the files they read or write.

On a year-only ``perfbench/rawgen.py`` archive of about 3,000 papers, the
``tracemalloc`` peak of ``load_network`` and that of ``write_papers`` plus
``write_citations`` must stay under a fixed multiple of the bytes of the
two tables.  The load keeps each table as one code-point array and its
fields as ranges of it, and drops every table-sized temporary it does not
keep; the writers quote each distinct label once and gather the rows from
the network's codes and edges.  The bounds were set from this code with a
margin: a load that copies the text and its field ranges on the way, or
writers that build a ``str`` per field, go past them.

The peak of ``read_groups`` on the archive's pd ``--attrs rank`` table
must stay under a multiple of the bytes of its ``groups.npz``: it checks
the members against their bases a block of groups at a time, so a check
that builds int64 arrays over every member entry goes past it.
"""
import sys
import tracemalloc
from pathlib import Path

import pytest

from citegap.corpus import load_network, write_citations, write_papers
from citegap.refmodels import preferential_draws, read_groups, write_groups

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: tracemalloc peak over the bytes of papers.tsv and citations.tsv
LOAD_BOUND = 7.5
WRITE_BOUND = 6.0
#: tracemalloc peak of read_groups over the bytes of groups.npz
READ_GROUPS_BOUND = 7.0


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import rawgen
    finally:
        sys.path.remove(str(PERFBENCH))
    directory = tmp_path_factory.mktemp("allocation")
    rawgen.generate(3000, 20, 1).write(directory / "raw_papers.tsv",
                                       directory / "raw_citations.tsv")
    net = load_network(directory / "raw_papers.tsv", directory / "raw_citations.tsv")
    write_papers(net, directory / "papers.tsv")
    write_citations(net, directory / "citations.tsv")
    return directory


def table_bytes(directory):
    return sum((directory / name).stat().st_size for name in ("papers.tsv", "citations.tsv"))


def traced_peak(work):
    """The tracemalloc peak of ``work()``, and its result."""
    tracemalloc.start()
    try:
        result = work()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_load_peak_follows_the_tables(archive):
    peak, net = traced_peak(lambda: load_network(archive / "papers.tsv",
                                                 archive / "citations.tsv"))
    assert net.n > 2500
    assert peak < LOAD_BOUND * table_bytes(archive), peak / table_bytes(archive)


def test_write_peak_follows_the_tables(archive, tmp_path):
    net = load_network(archive / "papers.tsv", archive / "citations.tsv")

    def write():
        write_papers(net, tmp_path / "papers.tsv")
        write_citations(net, tmp_path / "citations.tsv")

    peak, _ = traced_peak(write)
    assert table_bytes(tmp_path) == table_bytes(archive)
    assert peak < WRITE_BOUND * table_bytes(archive), peak / table_bytes(archive)


def test_read_groups_peak_follows_the_table(archive, tmp_path):
    net = load_network(archive / "papers.tsv", archive / "citations.tsv")
    path = tmp_path / "groups.npz"
    write_groups(preferential_draws(net, ("rank",)), path, "papers", "citations")
    peak, ec = traced_peak(lambda: read_groups(path, net, "papers", "citations"))
    assert ec.attributes == ("rank",) and ec.member_entries > 100_000
    assert peak < READ_GROUPS_BOUND * path.stat().st_size, peak / path.stat().st_size
