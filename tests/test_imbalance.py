import csv
import json
import warnings
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from scipy import stats

from citegap import (
    ConferenceRank,
    GenderCategory,
    ModelError,
    PaperFilter,
    SynthConfig,
    bootstrap_ci,
    expected_by_gender,
    filter_citations,
    generate_network,
    homophilic_draws,
    imbalance_report,
    observed_by_gender,
    over_under,
    random_draws,
    spearman,
    stratified_imbalance,
)
from citegap.imbalance import ALL_PAPERS, write_report_csv, write_report_json
from citegap.refmodels import ExpectedCitations
from conftest import make_paper

MM, MW, WM, WW = (
    GenderCategory.MM,
    GenderCategory.MW,
    GenderCategory.WM,
    GenderCategory.WW,
)


class TestObservedByGender:
    def test_toy4_totals(self, toy4):
        counts = observed_by_gender(toy4)
        assert counts[MM] == 2
        assert counts[WW] == 1
        assert counts[MW] == counts[WM] == 0

    def test_from_restriction(self, toy4):
        counts = observed_by_gender(toy4, PaperFilter.parse("gender=WW"))
        assert counts[MM] == 1
        assert counts[WW] == 1

    def test_empty_from_set_gives_zeros(self, toy4):
        counts = observed_by_gender(toy4, PaperFilter.parse("country=XX"))
        assert all(v == 0 for v in counts.values())

    def test_unknown_targets_tallied_separately(self):
        papers = [
            make_paper("A", date(2010, 1, 1), GenderCategory.UNKNOWN),
            make_paper("B", date(2011, 1, 1)),
        ]
        net = filter_citations(papers, [("B", "A")])
        counts = observed_by_gender(net)
        assert counts[GenderCategory.UNKNOWN] == 1
        assert sum(counts[g] for g in (MM, MW, WM, WW)) == 0


class TestExpectedByGender:
    def test_toy4_rd(self, toy4):
        expected = expected_by_gender(toy4, random_draws(toy4))
        assert expected[MM] == pytest.approx(11 / 6)

    def test_toy4_hd(self, toy4):
        expected = expected_by_gender(toy4, homophilic_draws(toy4))
        assert expected[MM] == pytest.approx(1.5)
        assert expected[WW] == pytest.approx(1.5)

    def test_to_excluding_everything_gives_zero(self, toy4):
        expected = expected_by_gender(
            toy4, random_draws(toy4), ALL_PAPERS, PaperFilter.parse("country=XX")
        )
        assert all(v == 0 for v in expected.values())

    def test_category_totals_match_restricted_out_citations(self, toy4):
        # summed over categories, expectations equal the citations the
        # from-set makes into the to-set, when genders are all known
        ec = random_draws(toy4)
        to = PaperFilter.parse("gender=MM")
        expected = expected_by_gender(toy4, ec, ALL_PAPERS, to)
        total_known = sum(expected[g] for g in (MM, MW, WM, WW))
        total_known += expected[GenderCategory.UNKNOWN]
        n_into_to = sum(1 for i, j in toy4.edges if toy4.papers[j].gender is MM)
        assert total_known == pytest.approx(n_into_to, abs=1e-9)

    def test_unknown_gender_members_excluded_from_buckets(self):
        papers = [
            make_paper("A", date(2010, 1, 1), MM),
            make_paper("B", date(2010, 1, 1), GenderCategory.UNKNOWN),
            make_paper("C", date(2011, 1, 1), WW),
        ]
        net = filter_citations(papers, [("C", "A"), ("C", "B")])
        ec = random_draws(net)
        expected = expected_by_gender(net, ec)
        # citation to B (unknown gender) adds nothing; C's eligible set
        # is {A, B}, so the one counted citation puts 1/2 on MM
        assert expected[MM] == pytest.approx(0.5)
        assert expected[GenderCategory.UNKNOWN] == pytest.approx(0.5)
        assert observed_by_gender(net)[MM] == 1

    def test_network_mismatch_rejected(self, toy4, toy_pd):
        with pytest.raises(ModelError):
            expected_by_gender(toy4, random_draws(toy_pd))

    @pytest.mark.parametrize("model", ["RD", "HD", "PD"])
    def test_unrestricted_totals_equal_citation_count(self, toy4, toy_pd, model):
        # with from/to = all and every category known, both observed and
        # expected counts sum to M
        from citegap.refmodels import compute_model

        for net in (toy4, toy_pd):
            ec = compute_model(net, model)
            observed = observed_by_gender(net)
            expected = expected_by_gender(net, ec)
            assert sum(observed[g] for g in (MM, MW, WM, WW)) == net.m
            assert sum(expected[g] for g in (MM, MW, WM, WW)) == pytest.approx(
                net.m, abs=1e-9
            )


class TestOverUnder:
    def test_toy4_value(self):
        assert over_under(2, 11 / 6) == pytest.approx(1 / 11)

    def test_exact_match_is_zero(self):
        assert over_under(5, 5.0) == 0.0

    def test_vacuous_category_is_undefined(self):
        assert over_under(0, 0.0) is None

    def test_observed_without_expectation_is_undefined(self):
        assert over_under(3, 0.0) is None


class TestBootstrap:
    def test_degenerate_network_zero_width(self):
        papers = [make_paper(f"A{k}", date(2010, 1, 1)) for k in range(3)]
        papers += [make_paper(f"B{k}", date(2011, 1, 1)) for k in range(3)]
        edges = [(f"B{k}", f"A{j}") for k in range(3) for j in range(3)]
        net = filter_citations(papers, edges)
        ci = bootstrap_ci(net, random_draws(net), resamples=200, seed=0)[0][MM]
        assert ci == (0.0, 0.0)

    def test_fixed_seed_is_deterministic(self, toy4):
        ec = random_draws(toy4)
        first = bootstrap_ci(toy4, ec, resamples=100, seed=42)[0]
        second = bootstrap_ci(toy4, ec, resamples=100, seed=42)[0]
        assert first == second

    def test_point_estimate_covered_across_seeds(self, toy4):
        # frozen empirical check: the full-sample estimate sits inside its
        # own percentile CI in at least 95 of 100 reseeded runs
        ec = random_draws(toy4)
        point = over_under(
            observed_by_gender(toy4)[MM], expected_by_gender(toy4, ec)[MM]
        )
        covered = 0
        for seed in range(100):
            ci = bootstrap_ci(toy4, ec, resamples=500, seed=seed)[0][MM]
            if ci is not None and ci[0] <= point <= ci[1]:
                covered += 1
        assert covered >= 95

    def test_defined_counts_resamples_with_expected_mass(self, toy4):
        # a resample defines a category when its expectation is positive:
        # on toy4, when it draws a citer at all (every group holds the MM
        # P1 and the WW P2); replay the resamples' draws to count them
        ec = random_draws(toy4)
        cis = bootstrap_ci(toy4, ec, resamples=60, seed=3)[0]
        citers = np.flatnonzero(toy4.out_degree)
        drawn = 0
        for child in np.random.SeedSequence(3).spawn(60):
            picks = np.random.default_rng(child).integers(0, toy4.n, toy4.n)
            drawn += bool(np.isin(picks, citers).any())
        assert 0 < drawn < 60
        assert cis.defined == {MM: drawn, MW: 0, WM: 0, WW: drawn}

    def test_every_resample_defined_when_every_paper_cites(self):
        # four same-day papers citing in a ring: any draw holds a citer,
        # and each citer's eligible set holds both MM and WW papers
        papers = [make_paper(pid, date(2010, 1, 1), gender)
                  for pid, gender in zip("ABCD", (MM, WW, MM, WW))]
        net = filter_citations(papers, [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")])
        cis = bootstrap_ci(net, random_draws(net), resamples=30, seed=0)[0]
        assert cis.defined == {MM: 30, MW: 0, WM: 0, WW: 30}

    def test_requires_two_resamples(self, toy4):
        with pytest.raises(ValueError):
            bootstrap_ci(toy4, random_draws(toy4), resamples=1, seed=0)


class TestImbalanceReport:
    def test_toy4_rd_report(self, toy4):
        reports = imbalance_report(toy4, random_draws(toy4), resamples=100, seed=0)
        by_gender = {r.gender: r for r in reports}
        mm = by_gender[MM]
        assert mm.n_obs == 2
        assert mm.n_expected == pytest.approx(11 / 6)
        assert mm.over_under == pytest.approx(1 / 11)
        assert mm.ci_low <= mm.over_under <= mm.ci_high
        assert mm.status == "ok"

    def test_undefined_marker(self, toy4):
        reports = imbalance_report(
            toy4,
            random_draws(toy4),
            to_filter=PaperFilter.parse("country=XX"),
            resamples=10,
            seed=0,
        )
        assert all(r.status == "undefined" for r in reports)
        assert all(r.over_under is None for r in reports)


def _biased_rank_network():
    """Citers avoid WW targets only when the target is A*-ranked."""
    rng = np.random.default_rng(3)
    papers = []
    for i in range(240):
        rank = ConferenceRank.A_STAR if i % 2 == 0 else ConferenceRank.B
        gender = WW if (i // 2) % 2 == 0 else MM
        papers.append(
            make_paper(
                f"P{i:03d}",
                date(2000, 1, 1) + timedelta(days=i * 10),
                gender,
                rank=rank,
            )
        )
    edges = []
    for i in range(40, 240):
        weights = np.ones(i)
        for j in range(i):
            if papers[j].rank is ConferenceRank.A_STAR and papers[j].gender is WW:
                weights[j] = 0.25
        targets = rng.choice(np.arange(i), size=3, replace=False, p=weights / weights.sum())
        edges.extend((papers[i].id, papers[int(t)].id) for t in targets)
    return filter_citations(papers, edges)


class TestStratified:
    def test_bias_shows_in_the_right_stratum(self):
        net = _biased_rank_network()
        reports = stratified_imbalance(
            net, random_draws(net), "rank", resamples=0
        )
        ou = {(r.stratum, r.gender): r.over_under for r in reports}
        assert abs(ou[("A*", WW)]) > abs(ou[("B", WW)])
        assert ou[("A*", WW)] < 0

    def test_subfield_strata_partition_targets(self, toy4):
        # a stratum value may hold the comma that separates filter clauses
        papers = [
            make_paper("A", date(2010, 1, 1), MM, subfield="S1"),
            make_paper("B", date(2010, 1, 1), WW, subfield="S2, theory"),
            make_paper("C", date(2011, 1, 1), MM, subfield="S1"),
        ]
        net = filter_citations(papers, [("C", "A"), ("C", "B")])
        reports = stratified_imbalance(net, random_draws(net), "subfield", resamples=0)
        total = sum(r.n_obs for r in reports)
        assert total == net.m
        assert {r.stratum for r in reports} == {"S1", "S2, theory"}
        assert {r.to_filter for r in reports} == {"subfield=S1", "subfield=S2, theory"}

    def test_stratum_without_citations_is_undefined(self):
        papers = [
            make_paper("A", date(2010, 1, 1), MM, rank=ConferenceRank.B),
            make_paper("C", date(2011, 1, 1), MM, rank=ConferenceRank.C),
        ]
        net = filter_citations(papers, [("C", "A")])
        reports = stratified_imbalance(
            net, random_draws(net), "rank", resamples=0
        )
        c_rows = [r for r in reports if r.stratum == "C"]
        assert c_rows and all(r.status == "undefined" for r in c_rows)

    def test_unknown_stratifier_rejected(self, toy4):
        with pytest.raises(ValueError):
            stratified_imbalance(toy4, random_draws(toy4), "venue")

    def test_one_table_pass_for_every_stratum(self, monkeypatch):
        # every stratum and bootstrap of one (network, model) pair reads the
        # same per-group gender counts; another model needs its own pass
        net = _biased_rank_network()
        passes = []
        category_sums = ExpectedCitations.category_sums

        def counted(self, *args, **kwargs):
            passes.append(self.model)
            return category_sums(self, *args, **kwargs)

        monkeypatch.setattr(ExpectedCitations, "category_sums", counted)
        reports = stratified_imbalance(net, random_draws(net), "rank",
                                       resamples=20)
        assert [r.stratum for r in reports[::4]] == ["A*", "B"]
        assert all(r.ci_low is not None for r in reports if r.gender in (MM, WW))
        assert passes == ["RD"]
        stratified_imbalance(net, homophilic_draws(net, ("rank",)), "rank",
                             resamples=20)
        assert passes == ["RD", "HD"]

    @pytest.mark.parametrize("field", ["rank", "subfield"])
    def test_strata_equal_plain_reports(self, field):
        # the strata share the bootstrap draws, so each stratum's rows are
        # those of a plain report on its selection, bit for bit
        net = generate_network(SynthConfig(n_papers=300, seed=4, homophily={"rank": 0.5}))
        ec = homophilic_draws(net, ("rank",))
        reports = stratified_imbalance(net, ec, field, resamples=40, seed=9)
        labels = net.attribute_codes(field)[1]
        assert len(labels) == 4 and len(reports) == 16
        assert all(r.ci_low is not None for r in reports if r.gender is MM)
        for k, value in enumerate(labels):
            plain = imbalance_report(net, ec, to_filter=PaperFilter.parse(f"{field}={value}"),
                                     resamples=40, seed=9)
            assert reports[4 * k:4 * k + 4] == [replace(r, stratum=value) for r in plain]

    def test_one_draw_per_resample_for_every_stratum(self, monkeypatch):
        net = generate_network(SynthConfig(n_papers=300, seed=4))
        ec = random_draws(net)
        assert len(net.attribute_codes("rank")[1]) == 4
        draws = []
        default_rng = np.random.default_rng

        def counted(*args, **kwargs):
            draws.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counted)
        reports = stratified_imbalance(net, ec, "rank", resamples=20)
        assert len(reports) == 16
        assert len(draws) == 20


class TestHomophilyAttenuation:
    def test_hd_explains_topic_driven_imbalance(self):
        # gender tracks topic and all citations are within-topic, so the
        # injected bias is purely attribute homophily: RD sees a large
        # imbalance, HD none at all
        rng = np.random.default_rng(17)
        papers, edges = [], []
        for i in range(200):
            mm = i % 5 < 3
            papers.append(
                make_paper(
                    f"P{i:03d}",
                    date(2002, 1, 1) + timedelta(days=i * 12),
                    MM if mm else WW,
                    topic="T1" if mm else "T2",
                )
            )
        for i in range(20, 200):
            same = [j for j in range(i) if papers[j].topic == papers[i].topic]
            k = 3 if papers[i].topic == "T1" else 1
            targets = rng.choice(same, size=min(k, len(same)), replace=False)
            edges.extend((papers[i].id, papers[int(t)].id) for t in targets)
        net = filter_citations(papers, edges)
        rd = random_draws(net)
        hd = homophilic_draws(net)
        observed = observed_by_gender(net)
        for g in (MM, WW):
            ou_rd = over_under(observed[g], expected_by_gender(net, rd)[g])
            ou_hd = over_under(observed[g], expected_by_gender(net, hd)[g])
            assert abs(ou_hd) <= abs(ou_rd)
        ou_ww_rd = over_under(observed[WW], expected_by_gender(net, rd)[WW])
        assert ou_ww_rd < -0.3


class TestSpearman:
    def test_monotone(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_antitone(self):
        assert spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)

    def test_hand_ranked_value(self):
        assert spearman([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6)

    def test_constant_input_undefined(self):
        assert spearman([1, 1, 1], [1, 2, 3]) is None

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2, 3])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            spearman([1], [2])

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_scipy_on_tied_integers(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 200))
        x = rng.integers(0, int(rng.integers(2, 10)), n).tolist()
        y = (np.asarray(x) * rng.integers(-1, 2) + rng.integers(0, 4, n)).tolist()
        rho, reference = spearman(x, y), scipy_spearman(x, y)
        if np.isnan(reference):
            assert rho is None
        else:
            assert rho == pytest.approx(reference, rel=0, abs=1e-12)

    @pytest.mark.parametrize("x, y", [
        ([3, 3], [1, 2]),
        ([1, 2, 3], [7, 7, 7]),
        ([0.5] * 5, [0.5] * 5),
        ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]),
    ])
    def test_undefined_exactly_where_scipy_is_nan(self, x, y):
        assert np.isnan(scipy_spearman(x, y))
        assert spearman(x, y) is None


def scipy_spearman(x, y):
    # scipy warns on a constant input and returns nan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return stats.spearmanr(x, y).correlation


class TestExports:
    def test_csv_round_trip(self, toy4, tmp_path):
        reports = imbalance_report(toy4, random_draws(toy4), resamples=10, seed=0)
        path = tmp_path / "imbalance.csv"
        write_report_csv(reports, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert rows[0]["model"] == "RD"
        assert rows[0]["gender"] == "MM"
        assert float(rows[0]["n_expected"]) == pytest.approx(11 / 6)

    def test_undefined_serializes_empty_with_status(self, toy4, tmp_path):
        reports = imbalance_report(
            toy4,
            random_draws(toy4),
            to_filter=PaperFilter.parse("country=XX"),
            resamples=10,
            seed=0,
        )
        path = tmp_path / "imbalance.csv"
        write_report_csv(reports, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["over_under"] == "" for r in rows)
        assert all(r["status"] == "undefined" for r in rows)

    def test_json_mirror(self, toy4, tmp_path):
        reports = imbalance_report(toy4, random_draws(toy4), resamples=10, seed=0)
        path = tmp_path / "imbalance.json"
        write_report_json(reports, path)
        data = json.loads(path.read_text())
        assert len(data) == 4
        assert data[0]["gender"] == "MM"
        assert data[0]["n_obs"] == 2


class TestPaperFilter:
    def test_parse_all(self):
        assert PaperFilter.parse("all") is ALL_PAPERS

    def test_parse_conjunction(self, toy4):
        f = PaperFilter.parse("gender=WW,rank=A*")
        assert toy4.ids[f.mask(toy4)].tolist() == ["P2", "P4"]

    def test_bad_clause_rejected(self):
        with pytest.raises(ValueError):
            PaperFilter.parse("venue=ICML")

    def test_comma_inside_value_selects_its_papers(self):
        papers = [make_paper(f"P{k}", date(2010, 1, 1), subfield=s)
                  for k, s in enumerate(["ML, theory", "ML", "ML, theory"])]
        net = filter_citations(papers, [("P1", "P0"), ("P2", "P1")])
        f = PaperFilter.parse("subfield=ML, theory")
        assert f.criteria == (("subfield", "ML, theory"),)
        assert net.ids[f.mask(net)].tolist() == ["P0", "P2"]

    @pytest.mark.parametrize("text", ["rank=A,country=US", "rank=A, country = US"])
    def test_comma_before_a_field_separates_clauses(self, text):
        assert PaperFilter.parse(text).criteria == (("rank", "A"), ("country", "US"))

    @pytest.mark.parametrize("text", ["rank=A,bogus", "gender=WW,rank", "rank=A,"])
    def test_stray_text_after_a_comma_rejected(self, text):
        # gender and rank labels hold no comma, so what follows one must
        # be a clause
        with pytest.raises(ValueError, match="bad filter clause"):
            PaperFilter.parse(text)
