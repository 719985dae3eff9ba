import struct
import zipfile
from datetime import date

import pytest

from citegap import (
    CitationNetwork,
    ConferenceRank,
    GenderCategory,
    Paper,
    filter_citations,
)


def index_of(table):
    """The row of each id of a paper table (the last row holding it, if
    several do); the corpus resolves ids without such a dict."""
    return dict(zip(table.ids.tolist(), range(table.n)))


def unsupported_compression(path):
    """Mark every entry of the zip archive at ``path``, in its central
    directory, as compressed by a method zipfile does not know (99)."""
    with zipfile.ZipFile(path) as zf:
        at, count = zf.start_dir, len(zf.infolist())
    data = bytearray(path.read_bytes())
    for _ in range(count):
        data[at + 10:at + 12] = (99).to_bytes(2, "little")
        at += 46 + sum(struct.unpack("<HHH", data[at + 28:at + 34]))
    path.write_bytes(bytes(data))


def raw_entry(path, name, data=b""):
    """Rewrite the zip archive at ``path`` with its entry ``name.npy``
    holding the bytes ``data``, which are not an .npy."""
    with zipfile.ZipFile(path) as zf:
        entries = {info.filename: zf.read(info) for info in zf.infolist()}
    entries[f"{name}.npy"] = data
    with zipfile.ZipFile(path, "w") as zf:
        for filename, held in entries.items():
            zf.writestr(filename, held)


def make_paper(
    pid,
    pub_date,
    gender=GenderCategory.MM,
    rank=ConferenceRank.A_STAR,
    country="US",
    topic="T1",
    subfield="S1",
    first=None,
    last=None,
):
    return Paper(
        id=pid,
        pub_date=pub_date,
        gender=gender,
        rank=rank,
        country=country,
        topic=topic,
        subfield=subfield,
        first_author=first if first is not None else f"{pid}_f",
        last_author=last if last is not None else f"{pid}_l",
    )


def build_toy4() -> CitationNetwork:
    """Four papers, three citations, all authors distinct.

    P3 (2011) cites P1; P4 (2012) cites P1 and P2.  P1/P2/P4 share the
    category key (A*, US, T1); P3 has topic T2.
    """
    papers = [
        make_paper("P1", date(2010, 1, 1), GenderCategory.MM),
        make_paper("P2", date(2010, 1, 1), GenderCategory.WW),
        make_paper("P3", date(2011, 1, 1), GenderCategory.MM, topic="T2"),
        make_paper("P4", date(2012, 1, 1), GenderCategory.WW),
    ]
    return filter_citations(papers, [("P3", "P1"), ("P4", "P1"), ("P4", "P2")])


def build_toy_pd() -> CitationNetwork:
    """The sequential-model contrast fixture.

    P1 and P2 share a key; P3 carries P2's author pair (so P2 is outside
    P3's eligible set) and cites P1; P4 cites P1 later.  P0 is an anchor
    with a different key that P2 cites, keeping P2 in the network without
    touching the P1/P2 expectations.  Homophilic draws put (1.5, 0.5) on
    (P1, P2); preferential draws put (2, 0) because P1's running count
    has already diverged from P2's when P4 cites.
    """
    papers = [
        make_paper("P0", date(2009, 1, 1), GenderCategory.MM,
                   rank=ConferenceRank.B, topic="T9"),
        make_paper("P1", date(2010, 1, 1), GenderCategory.MM),
        make_paper("P2", date(2010, 6, 1), GenderCategory.WW,
                   first="shared_f", last="shared_l"),
        make_paper("P3", date(2011, 1, 1), GenderCategory.MM, topic="T2",
                   first="shared_f", last="shared_l"),
        make_paper("P4", date(2012, 1, 1), GenderCategory.WW),
    ]
    return filter_citations(
        papers, [("P2", "P0"), ("P3", "P1"), ("P4", "P1")]
    )


@pytest.fixture
def toy4() -> CitationNetwork:
    return build_toy4()


@pytest.fixture
def toy_pd() -> CitationNetwork:
    return build_toy_pd()
