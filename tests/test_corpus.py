import csv
import io
import logging
import random
from datetime import date
from functools import lru_cache

import numpy as np
import pytest

from citegap import (
    ConferenceRank,
    GenderCategory,
    IngestError,
    PaperTable,
    ParseError,
    PublicationRecord,
    category_key,
    filter_citations,
    gender_category,
    levenshtein,
    match_records,
)
from citegap.corpus import (
    citation_window_floor,
    citation_window_floors,
    last_name,
    parse_citations,
    parse_papers,
    parse_pub_date,
    parse_publication_records,
)
from conftest import make_paper

PAPER_HEADER = "id\tpub_date\tgender\trank\tcountry\ttopic\tsubfield\tfirst_author\tlast_author"


def paper_table(*rows):
    return io.StringIO("\n".join([PAPER_HEADER, *rows]) + "\n")


class TestParsePapers:
    def test_direct_field_mapping(self):
        table = parse_papers(paper_table("P1\t2010-01-01\tMM\tA*\tUS\tT1\tS1\ta1\ta2"))
        assert table.n == 1
        p = table.papers[0]
        assert p.id == "P1"
        assert p.pub_date == date(2010, 1, 1)
        assert p.gender is GenderCategory.MM
        assert p.rank is ConferenceRank.A_STAR
        assert (p.country, p.topic, p.subfield) == ("US", "T1", "S1")
        assert (p.first_author, p.last_author) == ("a1", "a2")

    def test_unknown_gender_token_falls_back(self, caplog):
        with caplog.at_level(logging.WARNING):
            table = parse_papers(paper_table("P1\t2010-01-01\tXX\tA*\tUS\tT1\tS1\ta1\ta2"))
        assert table.papers[0].gender is GenderCategory.UNKNOWN
        assert any("XX" in r.message for r in caplog.records)

    def test_unknown_rank_token_falls_back(self, caplog):
        with caplog.at_level(logging.WARNING):
            table = parse_papers(paper_table("P1\t2010-01-01\tMM\tZ\tUS\tT1\tS1\ta1\ta2"))
        assert table.papers[0].rank is ConferenceRank.UNRANKED

    def test_invalid_month_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_papers(paper_table("P1\t2010-13-01\tMM\tA*\tUS\tT1\tS1\ta1\ta2"))

    def test_wrong_column_count_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_papers(
                paper_table(
                    "P1\t2010-01-01\tMM\tA*\tUS\tT1\tS1\ta1\ta2",
                    "P2\t2010-01-01\tMM\tA*",
                )
            )

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_papers(io.StringIO("P1\t2010-01-01\tMM\tA*\tUS\tT1\tS1\ta1\ta2\n"))

    def test_year_only_date_maps_to_january_first(self):
        table = parse_papers(paper_table("P1\t2010\tMM\tA*\tUS\tT1\tS1\ta1\ta2"))
        assert table.papers[0].pub_date == date(2010, 1, 1)


def test_parse_pub_date_rejects_garbage():
    with pytest.raises(ValueError):
        parse_pub_date("201O")


def test_parse_citations_roundtrip():
    stream = io.StringIO("citing_id\tcited_id\nP3\tP1\nP4\tP2\n")
    assert parse_citations(stream).tolist() == [["P3", "P1"], ["P4", "P2"]]


class TestGenderCategory:
    @pytest.mark.parametrize(
        "first,last,sole,expected",
        [
            ("M", "M", False, GenderCategory.MM),
            ("M", "W", False, GenderCategory.MW),
            ("W", "M", False, GenderCategory.WM),
            ("W", "W", False, GenderCategory.WW),
            ("M", None, True, GenderCategory.MM),
            ("W", None, True, GenderCategory.WW),
            (None, "M", False, GenderCategory.UNKNOWN),
            ("M", None, False, GenderCategory.UNKNOWN),
            (None, None, True, GenderCategory.UNKNOWN),
        ],
    )
    def test_mapping(self, first, last, sole, expected):
        assert gender_category(first, last, sole) is expected


class TestLevenshtein:
    def test_kitten_sitting(self):
        # classic DP table: two substitutions plus one insertion
        assert levenshtein("kitten", "sitting") == 3

    def test_identical(self):
        assert levenshtein("a", "a") == 0

    def test_empty_source(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_against_recursive_oracle(self):
        @lru_cache(maxsize=None)
        def reference(a, b):
            if not a:
                return len(b)
            if not b:
                return len(a)
            return min(
                reference(a[1:], b) + 1,
                reference(a, b[1:]) + 1,
                reference(a[1:], b[1:]) + (a[0] != b[0]),
            )

        rng = random.Random(1234)
        for _ in range(200):
            a = "".join(rng.choice("abc") for _ in range(rng.randint(0, 7)))
            b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 7)))
            assert levenshtein(a, b) == reference(a, b)

    def test_symmetry_and_triangle_inequality(self):
        rng = random.Random(99)
        words = [
            "".join(rng.choice("abcd") for _ in range(rng.randint(0, 6)))
            for _ in range(30)
        ]
        for a in words[:10]:
            for b in words[10:20]:
                assert levenshtein(a, b) == levenshtein(b, a)
                for c in words[20:]:
                    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


class TestMatchRecords:
    def test_close_titles_match(self):
        a = PublicationRecord("Deep Learning", 2015, ("Goodfellow", "Bengio"))
        b = PublicationRecord("Deep Learnin", 2015, ("Bengio", "Goodfellow"))
        # distance 1 over longer length 13 is about 0.077
        assert match_records(a, b)

    def test_year_mismatch(self):
        a = PublicationRecord("Deep Learning", 2010, ("Goodfellow",))
        b = PublicationRecord("Deep Learning", 2011, ("Goodfellow",))
        assert not match_records(a, b)

    def test_distance_ratio_above_threshold(self):
        a = PublicationRecord("aaaaaaaaaa", 2010, ("X",))
        b = PublicationRecord("aaaaabbbbb", 2010, ("X",))
        assert levenshtein("aaaaaaaaaa", "aaaaabbbbb") == 5
        assert not match_records(a, b)

    def test_last_name_multiset_requires_multiplicity(self):
        a = PublicationRecord("Title", 2010, ("Li", "Li"))
        b = PublicationRecord("Title", 2010, ("Li",))
        assert not match_records(a, b)

    def test_case_and_whitespace_folding(self):
        a = PublicationRecord("Deep  LEARNING", 2010, ("X",))
        b = PublicationRecord("deep learning", 2010, ("X",))
        assert match_records(a, b)

    def test_both_titles_empty_never_match(self):
        a = PublicationRecord("", 2010, ("X",))
        b = PublicationRecord("", 2010, ("X",))
        assert not match_records(a, b)

    def test_symmetry(self):
        rng = random.Random(7)
        for _ in range(50):
            a = PublicationRecord(
                "".join(rng.choice("abc ") for _ in range(rng.randint(0, 10))),
                rng.randint(2000, 2002),
                tuple(rng.choice(["x", "y"]) for _ in range(rng.randint(1, 3))),
            )
            b = PublicationRecord(
                "".join(rng.choice("abc ") for _ in range(rng.randint(0, 10))),
                rng.randint(2000, 2002),
                tuple(rng.choice(["x", "y"]) for _ in range(rng.randint(1, 3))),
            )
            assert match_records(a, b) == match_records(b, a)


def test_last_name_is_final_token():
    assert last_name("Yann LeCun") == "LeCun"
    assert last_name("  Grace  Brewster Hopper ") == "Hopper"
    assert last_name("") == ""


def test_parse_publication_records():
    stream = io.StringIO("title\tyear\tlast_names\nDeep Learning\t2015\tGoodfellow;Bengio\n")
    records = parse_publication_records(stream)
    assert records == [PublicationRecord("Deep Learning", 2015, ("Goodfellow", "Bengio"))]


class TestCitationWindow:
    def test_floor_is_ten_calendar_years(self):
        assert citation_window_floor(date(2012, 1, 1)) == date(2002, 1, 1)

    def test_leap_day_floor(self):
        assert citation_window_floor(date(2012, 2, 29)) == date(2002, 2, 28)

    def test_vectorized_floors_match_every_day(self):
        # every day of 1990-2030, ten Feb 29s among them
        days = np.arange("1990-01-01", "2031-01-01", dtype="datetime64[D]")
        assert days.size == 14975
        oracle = [citation_window_floor(d) for d in days.astype(object)]
        np.testing.assert_array_equal(citation_window_floors(days),
                                      np.array(oracle, dtype="datetime64[D]"))


class TestFilterCitations:
    def test_old_citation_removed(self):
        papers = [
            make_paper("OLD", date(2000, 1, 1)),
            make_paper("NEW", date(2012, 1, 1)),
            make_paper("MID", date(2011, 1, 1)),
        ]
        net = filter_citations(papers, [("NEW", "OLD"), ("NEW", "MID")])
        assert [p.id for p in net.papers] == ["NEW", "MID"]
        assert net.m == 1

    def test_exactly_ten_years_kept(self):
        papers = [
            make_paper("A", date(2002, 1, 1)),
            make_paper("B", date(2012, 1, 1)),
        ]
        net = filter_citations(papers, [("B", "A")])
        assert net.m == 1

    def test_author_overlap_removed(self):
        citing = make_paper("C", date(2011, 1, 1), first="a1", last="a2")
        cited = make_paper("D", date(2010, 1, 1), first="a1", last="a2")
        other = make_paper("E", date(2010, 1, 1))
        net = filter_citations([citing, cited, other], [("C", "D"), ("C", "E")])
        assert [p.id for p in net.papers] == ["C", "E"]

    def test_partial_author_overlap_kept(self):
        citing = make_paper("C", date(2011, 1, 1), first="a1", last="a2")
        cited = make_paper("D", date(2010, 1, 1), first="a1", last="a9")
        net = filter_citations([citing, cited], [("C", "D")])
        assert net.m == 1

    def test_sole_author_cited_by_coauthor_removed(self):
        citing = make_paper("C", date(2011, 1, 1), first="a1", last="a2")
        cited = make_paper("D", date(2010, 1, 1), first="a2", last="a2")
        other = make_paper("E", date(2010, 1, 1))
        net = filter_citations([citing, cited, other], [("C", "D"), ("C", "E")])
        assert [p.id for p in net.papers] == ["C", "E"]

    def test_self_loop_removed(self):
        papers = [make_paper("A", date(2010, 1, 1)), make_paper("B", date(2011, 1, 1))]
        net = filter_citations(papers, [("A", "A"), ("B", "A")])
        assert net.m == 1

    def test_duplicate_edges_collapse(self):
        papers = [make_paper("A", date(2010, 1, 1)), make_paper("B", date(2011, 1, 1))]
        net = filter_citations(papers, [("B", "A"), ("B", "A")])
        assert net.m == 1

    def test_isolated_paper_dropped(self, toy4):
        papers = [make_paper("Z", date(2010, 1, 1))] + list(toy4.papers)
        net = filter_citations(papers, [("P3", "P1")])
        assert "Z" not in {p.id for p in net.papers}

    def test_unknown_endpoint_names_edge(self):
        papers = [make_paper("A", date(2010, 1, 1))]
        with pytest.raises(IngestError, match="'GHOST'"):
            filter_citations(papers, [("A", "GHOST")])

    def test_duplicate_paper_id_rejected(self):
        papers = [make_paper("A", date(2010, 1, 1)), make_paper("A", date(2011, 1, 1))]
        with pytest.raises(IngestError, match="duplicate"):
            filter_citations(papers, [])

    def test_future_citation_survives_filtering(self):
        # the window bounds only how much older the cited paper may be
        papers = [make_paper("A", date(2010, 1, 1)), make_paper("B", date(2012, 1, 1))]
        net = filter_citations(papers, [("A", "B")])
        assert net.m == 1

    def test_filter_counts_one_per_rule(self):
        # one duplicate, one too-old edge that also shares its authors
        # (counted by the window rule only), one in-window self-citation,
        # one self-loop, one isolated paper, one later-dated citation kept
        papers = [
            make_paper("OLD", date(2000, 1, 1), first="a1", last="a2"),
            make_paper("A", date(2010, 1, 1)),
            make_paper("SELF", date(2011, 1, 1), first="a1", last="a2"),
            make_paper("C", date(2012, 1, 1), first="a1", last="a2"),
            make_paper("LONE", date(2012, 1, 1)),
            make_paper("LATER", date(2013, 1, 1)),
        ]
        raw = [("C", "A"), ("C", "A"), ("C", "OLD"), ("C", "SELF"),
               ("C", "C"), ("A", "LATER")]
        net = filter_citations(papers, raw)
        assert net.filter_counts == {
            "duplicates": 1,
            "out_of_window": 1,
            "self_citations": 2,
            "isolated_papers": 3,
            "later_dated_kept": 1,
        }
        assert [p.id for p in net.papers] == ["A", "C", "LATER"]
        assert net.edges.tolist() == [[0, 2], [1, 0]]

    def test_window_rule_evaluated_once(self, monkeypatch):
        calls = []
        in_window = PaperTable.in_window

        def counting(self, *args):
            calls.append(args)
            return in_window(self, *args)

        monkeypatch.setattr(PaperTable, "in_window", counting)
        self.test_filter_counts_one_per_rule()
        assert len(calls) == 1

    def test_degree_identity(self, toy4):
        assert toy4.out_degree.sum() == toy4.in_degree.sum() == toy4.m

    def test_idempotent(self, toy4):
        edge_ids = [
            (toy4.papers[i].id, toy4.papers[j].id) for i, j in toy4.edges
        ]
        again = filter_citations(list(toy4.papers), edge_ids)
        assert again.papers == toy4.papers
        assert np.array_equal(again.edges, toy4.edges)

    def test_surviving_edges_satisfy_predicates(self, toy_pd):
        for i, j in toy_pd.edges:
            citing, cited = toy_pd.papers[i], toy_pd.papers[j]
            assert cited.pub_date >= citation_window_floor(citing.pub_date)
            citers = {citing.first_author, citing.last_author}
            assert not (
                cited.first_author in citers and cited.last_author in citers
            )


class TestIdResolution:
    """Citation ids resolve to the first paper holding them; the errors
    name the first offending paper or citation row."""

    @staticmethod
    def load(paper_rows, citation_text):
        return filter_citations(parse_papers(paper_table(*paper_rows)),
                                parse_citations(io.StringIO(citation_text, newline="")))

    PAPERS = ("A\t2010\tMM\tA\tUS\tT\tS\ta1\ta2", "B\t2011\tWW\tB\tDE\tT\tS\ta3\ta4")

    @pytest.mark.parametrize("text", [
        "citing_id\tcited_id\n  B \t A\n",
        'citing_id\tcited_id\r\n" B "\t"A  "\r\n',
    ], ids=["split", "csv"])
    def test_padded_citation_ids_resolve_after_the_strip(self, text):
        net = self.load(self.PAPERS, text)
        assert net.ids.tolist() == ["A", "B"] and net.edges.tolist() == [[1, 0]]

    def test_ids_equal_after_the_strip_are_duplicates(self):
        rows = (self.PAPERS[0], " A \t2012\tMM\tA\tUS\tT\tS\ta5\ta6")
        with pytest.raises(IngestError) as info:
            self.load(rows, "citing_id\tcited_id\n")
        assert str(info.value) == "duplicate paper id 'A'"

    def test_duplicate_error_names_the_first_repeated_row(self):
        # A is held first, but B repeats first
        papers = [make_paper(pid, date(2010 + k, 1, 1)) for k, pid in enumerate("ABBA")]
        with pytest.raises(IngestError) as info:
            filter_citations(papers, [("A", "GHOST")])
        assert str(info.value) == "duplicate paper id 'B'"

    def test_empty_paper_table_names_the_citing_id(self):
        with pytest.raises(IngestError) as info:
            self.load((), "citing_id\tcited_id\nP1\tP2\n")
        assert str(info.value) == "citation ('P1', 'P2'): unknown citing id 'P1'"

    @pytest.mark.parametrize("pairs,message", [
        ([("B", "A"), ("X", "Y"), ("B", "Z")], "citation ('X', 'Y'): unknown citing id 'X'"),
        ([("B", "A"), ("B", "Z"), ("X", "Y")], "citation ('B', 'Z'): unknown cited id 'Z'"),
        ([("B", "A"), ("X", "A")], "citation ('X', 'A'): unknown citing id 'X'"),
    ])
    def test_unknown_id_error_names_the_first_bad_row(self, pairs, message):
        papers = [make_paper("A", date(2010, 1, 1)), make_paper("B", date(2011, 1, 1))]
        for raw in (pairs, np.array(pairs, dtype=object)):
            with pytest.raises(IngestError) as info:
                filter_citations(papers, raw)
            assert str(info.value) == message

    def test_array_and_pairs_give_equal_networks(self):
        rng = random.Random(3)
        papers = [make_paper(f"P{k}", date(2000 + rng.randrange(15), 1 + k % 12, 1),
                             first=f"a{rng.randrange(6)}", last=f"a{rng.randrange(6)}")
                  for k in range(40)]
        pairs = [(f"P{rng.randrange(40)}", f"P{rng.randrange(40)}") for _ in range(150)]
        text = "citing_id\tcited_id\n" + "".join(f"{u}\t{v}\n" for u, v in pairs)
        expected = filter_citations(papers, pairs)
        assert expected.m > 0
        for raw in (np.array(pairs, dtype=object), np.array(pairs, dtype=str),
                    parse_citations(io.StringIO(text)), iter(pairs)):
            net = filter_citations(papers, raw)
            assert net.ids.tolist() == expected.ids.tolist()
            assert net.edges.tolist() == expected.edges.tolist()
            assert net.filter_counts == expected.filter_counts
            assert net.window_floors.tolist() == expected.window_floors.tolist()

    def test_trailing_nul_resolves_as_the_paper_ids_hold_it(self):
        try:
            list(csv.reader(["a\x00"]))
        except csv.Error:
            pytest.skip("this Python's csv reader rejects NUL")
        rows = ("A\x00\t2010\tMM\tA\tUS\tT\tS\ta1\ta2", self.PAPERS[1])
        net = self.load(rows, "citing_id\tcited_id\nB\tA\x00 \n")
        assert net.ids.tolist() == ["A", "B"] and net.m == 1


class TestCategoryKey:
    def test_full_projection(self):
        p = make_paper("P1", date(2010, 1, 1))
        assert category_key(p, ("rank", "country", "topic")) == (
            ConferenceRank.A_STAR,
            "US",
            "T1",
        )

    def test_single_attribute(self):
        p = make_paper("P1", date(2010, 1, 1))
        assert category_key(p, ("rank",)) == (ConferenceRank.A_STAR,)

    def test_empty_set(self):
        p = make_paper("P1", date(2010, 1, 1))
        assert category_key(p, ()) == ()

    def test_canonical_order_ignores_input_order(self):
        p = make_paper("P1", date(2010, 1, 1))
        assert category_key(p, ("topic", "rank")) == (ConferenceRank.A_STAR, "T1")

    def test_unknown_attribute_rejected(self):
        p = make_paper("P1", date(2010, 1, 1))
        with pytest.raises(ValueError):
            category_key(p, ("venue",))
