import math
import sys
import tracemalloc
import warnings
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse, stats

from citegap import (
    CitationNetwork,
    ConferenceRank,
    GenderCategory,
    ModelError,
    SynthConfig,
    citation_probability,
    eligible_set_hd,
    eligible_set_rd,
    expected_by_gender,
    filter_citations,
    generate_network,
    homophilic_draws,
    load_network,
    observed_as_expectations,
    preferential_draws,
    random_draws,
    structural_report,
)
from citegap import cli, refmodels
from citegap.imbalance import ALL_PAPERS, PaperFilter, _counted_groups
from citegap.ranking import (
    DEFAULT_ALPHA,
    DEFAULT_EPS,
    DEFAULT_T_MAX,
    _power_iteration,
    pagerank_observed,
    pagerank_reference,
)
from citegap.refmodels import (
    DEFAULT_COUNT_TOL,
    ExpectedCitations,
    compute_model,
    date_order,
    expected_out,
    ks_distance,
    survival_points,
)
from conftest import build_toy_pd, make_paper
from explicit_tables import table_from_rows

ATTRS = ("rank", "country", "topic")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def ids(net, *names):
    return [net.index_of[name] for name in names]


def assert_group_invariants(net, ec: ExpectedCitations):
    # per-group mass equals the citations it represents; c_bar matches the
    # group sum; totals conserve out-degrees and M
    rebuilt = np.zeros(net.n)
    for g in ec.groups:
        assert g.members.size > 0
        assert g.weight * g.members.size == pytest.approx(len(g.targets), abs=1e-12)
        rebuilt[g.members] += g.weight
    np.testing.assert_allclose(rebuilt, ec.c_bar, atol=1e-9)
    np.testing.assert_allclose(expected_out(ec), net.out_degree, atol=1e-9)
    assert ec.c_bar.sum() == pytest.approx(net.m, abs=1e-9)


class TestEligibleSets:
    def test_toy4_rd_sets(self, toy4):
        p1, p2, p3, p4 = ids(toy4, "P1", "P2", "P3", "P4")
        assert list(eligible_set_rd(toy4, p3)) == [p1, p2]
        assert list(eligible_set_rd(toy4, p4)) == [p1, p2, p3]

    def test_author_sharing_candidate_excluded(self, toy_pd):
        p3 = toy_pd.index_of["P3"]
        p2 = toy_pd.index_of["P2"]
        assert p2 not in eligible_set_rd(toy_pd, p3)

    def test_same_date_papers_are_mutually_eligible(self):
        papers = [
            make_paper("A", date(2010, 1, 1)),
            make_paper("B", date(2010, 1, 1)),
            make_paper("C", date(2011, 1, 1)),
        ]
        net = filter_citations(papers, [("C", "A"), ("C", "B")])
        a, b = net.index_of["A"], net.index_of["B"]
        assert b in eligible_set_rd(net, a)
        assert a in eligible_set_rd(net, b)

    def test_hd_set_filters_by_key(self, toy4):
        p1, p2, p3, p4 = ids(toy4, "P1", "P2", "P3", "P4")
        assert list(eligible_set_hd(toy4, p3, p1, ATTRS)) == [p1, p2]
        assert list(eligible_set_hd(toy4, p4, p2, ATTRS)) == [p1, p2]

    def test_hd_empty_attribute_set_equals_rd(self, toy4):
        p1, p4 = ids(toy4, "P1", "P4")
        assert list(eligible_set_hd(toy4, p4, p1, ())) == list(
            eligible_set_rd(toy4, p4)
        )

    def test_hd_always_contains_target(self):
        # a citation to a later-dated paper: the target is outside the
        # RD-eligible set but must still be in its own HD set
        papers = [
            make_paper("A", date(2010, 1, 1)),
            make_paper("B", date(2012, 1, 1), topic="T2"),
        ]
        net = filter_citations(papers, [("A", "B")])
        a, b = net.index_of["A"], net.index_of["B"]
        assert b not in eligible_set_rd(net, a)
        assert list(eligible_set_hd(net, a, b, ATTRS)) == [b]


class TestRandomDraws:
    def test_toy4_probabilities(self, toy4):
        p1, p2, p3, p4 = ids(toy4, "P1", "P2", "P3", "P4")
        ec = random_draws(toy4)
        assert citation_probability(ec, p3, p1) == pytest.approx(0.5)
        for j in (p1, p2, p3):
            assert citation_probability(ec, p4, j) == pytest.approx(2 / 3)
        assert citation_probability(ec, p4, p4) == 0.0

    def test_toy4_expected_citations(self, toy4):
        ec = random_draws(toy4)
        np.testing.assert_allclose(ec.c_bar, [7 / 6, 7 / 6, 2 / 3, 0.0], atol=1e-12)
        assert_group_invariants(toy4, ec)

    def test_no_citations_no_group(self, toy4):
        ec = random_draws(toy4)
        citers = {g.citing for g in ec.groups}
        assert toy4.index_of["P1"] not in citers
        assert toy4.index_of["P2"] not in citers

    def test_singleton_eligible_set_forces_unit_mass(self):
        papers = [make_paper("A", date(2010, 1, 1)), make_paper("B", date(2011, 1, 1))]
        net = filter_citations(papers, [("B", "A")])
        ec = random_draws(net)
        assert citation_probability(ec, net.index_of["B"], net.index_of["A"]) == 1.0

    def test_empty_eligible_set_raises(self):
        # the only citation goes to a later-dated paper, so the citer's
        # eligible set is empty and the probability mass is undefinable
        papers = [make_paper("A", date(2010, 1, 1)), make_paper("B", date(2012, 1, 1))]
        net = filter_citations(papers, [("A", "B")])
        with pytest.raises(ModelError, match="'A'"):
            random_draws(net)


class TestHomophilicDraws:
    def test_toy4_expected_citations(self, toy4):
        ec = homophilic_draws(toy4, ATTRS)
        np.testing.assert_allclose(ec.c_bar, [1.5, 1.5, 0.0, 0.0], atol=1e-12)
        assert_group_invariants(toy4, ec)

    def test_same_member_set_citations_merge(self, toy4):
        p4 = toy4.index_of["P4"]
        ec = homophilic_draws(toy4, ATTRS)
        p4_groups = [g for g in ec.groups if g.citing == p4]
        assert len(p4_groups) == 1
        assert sorted(p4_groups[0].targets) == sorted(
            ids(toy4, "P1", "P2")
        )
        assert p4_groups[0].weight == pytest.approx(1.0)

    def test_singleton_group_gets_full_unit(self, toy_pd):
        ec = homophilic_draws(toy_pd, ATTRS)
        p0 = toy_pd.index_of["P0"]
        assert ec.c_bar[p0] == pytest.approx(1.0)

    def test_empty_attribute_set_matches_rd_for_single_citation_citers(self, toy_pd):
        # every citer in the fixture makes exactly one citation, so HD over
        # the whole eligible set coincides with RD
        hd = homophilic_draws(toy_pd, ())
        rd = random_draws(toy_pd)
        np.testing.assert_allclose(hd.c_bar, rd.c_bar, atol=1e-12)

    def test_future_target_gets_an_hd_group(self):
        papers = [
            make_paper("A", date(2010, 1, 1)),
            make_paper("B", date(2012, 1, 1)),
            make_paper("C", date(2011, 1, 1)),
        ]
        net = filter_citations(papers, [("A", "B"), ("C", "A")])
        ec = homophilic_draws(net, ATTRS)
        assert_group_invariants(net, ec)


class TestPreferentialDraws:
    def test_contrast_fixture(self, toy_pd):
        p1, p2 = ids(toy_pd, "P1", "P2")
        hd = homophilic_draws(toy_pd, ATTRS)
        pd_ = preferential_draws(toy_pd, ATTRS)
        assert (hd.c_bar[p1], hd.c_bar[p2]) == pytest.approx((1.5, 0.5))
        assert (pd_.c_bar[p1], pd_.c_bar[p2]) == pytest.approx((2.0, 0.0))
        assert_group_invariants(toy_pd, pd_)

    def test_exact_mode_matches(self, toy_pd):
        exact = preferential_draws(toy_pd, ATTRS, exact=True)
        floats = preferential_draws(toy_pd, ATTRS)
        np.testing.assert_allclose(exact.c_bar, floats.c_bar, atol=1e-12)

    def test_exact_mode_keeps_groups_at_scale(self):
        # one coarse attribute: large member sets whose running counts tie
        # often, where float drift would split or merge groups first
        net = generate_network(SynthConfig(n_papers=2000, seed=3, n_ranks=3,
                                           pa_strength=1.0))
        floats = preferential_draws(net, ("rank",))
        exact = preferential_draws(net, ("rank",), exact=True)
        for name in ("citing", "target_ptr", "targets"):
            np.testing.assert_array_equal(getattr(floats, name), getattr(exact, name))
        np.testing.assert_array_equal(floats.indptr, exact.indptr)
        np.testing.assert_array_equal(floats.indices, exact.indices)
        assert np.abs(floats.c_bar - exact.c_bar).max() <= 1e-11

    def test_toy4_pd_equals_hd(self, toy4):
        # member counts stay tied throughout, so no group ever shrinks
        hd = homophilic_draws(toy4, ATTRS)
        pd_ = preferential_draws(toy4, ATTRS)
        np.testing.assert_allclose(pd_.c_bar, hd.c_bar, atol=1e-12)

    def test_earliest_paper_citing_uses_zero_counts(self):
        # the first paper in date order can only cite later-dated papers;
        # its groups read the all-zero state and equal the HD groups
        papers = [
            make_paper("A", date(2010, 1, 1)),
            make_paper("B", date(2012, 1, 1), topic="T2"),
            make_paper("C", date(2011, 1, 1)),
        ]
        net = filter_citations(papers, [("A", "B"), ("C", "A")])
        hd = homophilic_draws(net, ATTRS)
        pd_ = preferential_draws(net, ATTRS)
        np.testing.assert_allclose(pd_.c_bar, hd.c_bar, atol=1e-12)
        assert_group_invariants(net, pd_)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("count_tol", [float("nan"), -1e-9, -math.inf])
    def test_rejects_bad_count_tol(self, toy_pd, count_tol, exact):
        # no target would survive its own narrowing
        with pytest.raises(ValueError, match="^the count tolerance must be a number >= 0"):
            preferential_draws(toy_pd, ATTRS, count_tol=count_tol, exact=exact)

    def test_date_order_breaks_ties_by_id(self, toy4):
        order = date_order(toy4)
        assert [toy4.papers[i].id for i in order] == ["P1", "P2", "P3", "P4"]


@pytest.fixture(scope="module")
def synth_net():
    cfg = SynthConfig(
        n_papers=250,
        seed=11,
        n_ranks=3,
        n_countries=4,
        n_topics=6,
        out_degree="uniform:1,4",
        homophily={"rank": 0.5, "country": 0.3, "topic": 1.0},
        pa_strength=1.0,
    )
    return generate_network(cfg)


class TestModelInvariantsOnSynthetic:
    @pytest.mark.parametrize("model", ["RD", "HD", "PD"])
    def test_conservation(self, synth_net, model):
        ec = compute_model(synth_net, model, ATTRS)
        assert_group_invariants(synth_net, ec)

    @pytest.mark.parametrize("model", ["HD", "PD"])
    def test_pairwise_attribute_counts_preserved(self, synth_net, model):
        ec = compute_model(synth_net, model, ATTRS)
        report = structural_report(synth_net, ec)
        for attribute in ATTRS:
            pairs = report.pairwise[attribute]
            np.testing.assert_allclose(
                pairs.expected, pairs.observed, atol=1e-9
            )

    def test_rd_destroys_topic_homophily(self, synth_net):
        report = structural_report(synth_net, random_draws(synth_net))
        pairs = report.pairwise["topic"]
        assert np.trace(pairs.expected) < np.trace(pairs.observed)

    def test_probability_rows_sum_to_out_degree(self, synth_net):
        ec = homophilic_draws(synth_net, ATTRS)
        for i in range(0, synth_net.n, 25):
            total = sum(
                g.weight * g.members.size
                for g in ec.groups[slice(*np.searchsorted(ec.citing, [i, i + 1]))]
            )
            assert total == pytest.approx(synth_net.out_degree[i], abs=1e-9)


class TestStructuralReport:
    def test_toy4_hd_rank_matrix_matches(self, toy4):
        report = structural_report(toy4, homophilic_draws(toy4, ATTRS))
        pairs = report.pairwise["rank"]
        assert pairs.labels == ("A*",)
        np.testing.assert_allclose(pairs.observed, [[3.0]])
        np.testing.assert_allclose(pairs.expected, [[3.0]], atol=1e-12)

    def test_toy4_rd_topic_matrix_by_hand(self, toy4):
        # P3 (T2) spreads 1 citation over {P1, P2} (both T1); P4 (T1)
        # spreads 2 citations over {P1, P2, P3} = two T1 papers + one T2
        report = structural_report(toy4, random_draws(toy4))
        pairs = report.pairwise["topic"]
        assert pairs.labels == ("T1", "T2")
        np.testing.assert_allclose(pairs.observed, [[2.0, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(
            pairs.expected, [[4 / 3, 2 / 3], [1.0, 0.0]], atol=1e-12
        )

    def test_survival_at_zero_is_one(self, toy4):
        report = structural_report(toy4, random_draws(toy4))
        assert report.survival_observed.thresholds[0] == 0.0
        assert report.survival_observed.fraction[0] == 1.0
        assert report.survival_expected.fraction[0] == 1.0

    def test_survival_points_fractions(self):
        curve = survival_points([0, 1, 1, 3])
        assert list(curve.thresholds) == [0.0, 1.0, 3.0]
        assert list(curve.fraction) == [1.0, 0.75, 0.25]

    @pytest.mark.parametrize("seed", range(6))
    def test_distinct_matches_unique(self, seed):
        r = np.random.default_rng(seed)
        size = int(r.integers(0, 3000))
        keys = r.integers(0, 1 + size // (1 + seed % 3), size)
        values = np.round(r.exponential(2.0, size), seed % 4) + r.choice([0.0, np.inf], size,
                                                                         p=[0.95, 0.05])
        for a in (keys, values):
            got, expected = refmodels._distinct(a), np.unique(a)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_gender_survival_series_present(self, toy4):
        report = structural_report(toy4, random_draws(toy4))
        assert set(report.survival_by_gender) == {"MM", "WW"}

    def test_out_degree_hist(self, toy4):
        report = structural_report(toy4, random_draws(toy4))
        assert report.out_degree_hist == {0: 2, 1: 1, 2: 1}

    def test_identity_model_has_zero_ks(self, toy4):
        report = structural_report(toy4, observed_as_expectations(toy4))
        assert report.ks_in_degree == 0.0


def ks_samples(seed):
    """Two samples for the KS differential test: sizes 1..400, often
    equal, drawn log-uniformly so tiny sizes occur; integer values with
    heavy ties, continuous floats, or one of each."""
    rng = np.random.default_rng(seed)
    n1, n2 = (int(k) for k in np.exp(rng.uniform(0, np.log(401), 2)))
    if seed % 10 == 1:
        n1 = (1, 400)[seed % 20 // 10]
    if seed % 4 == 0:
        n2 = n1
    ints = lambda n: rng.integers(0, int(rng.integers(1, 12)), n)
    floats = lambda n: rng.gamma(2.0, 1.5, n)
    kind = seed % 3
    a = ints(n1) if kind in (0, 2) else floats(n1)
    b = ints(n2) if kind == 0 else floats(n2)
    return a, b


def scipy_ks(a, b):
    # scipy warns when its exact p-value fails; the statistic is still h/lcm
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return stats.ks_2samp(a, b).statistic


class TestKsDistance:
    @pytest.mark.parametrize("seed", range(300))
    def test_matches_scipy_exactly(self, seed):
        a, b = ks_samples(seed)
        assert ks_distance(a, b) == scipy_ks(a, b)

    def test_sweep_covers_sizes_and_ties(self):
        sizes = [tuple(len(s) for s in ks_samples(seed)) for seed in range(300)]
        assert {1, 400} <= {n for pair in sizes for n in pair}
        assert sum(n1 == n2 for n1, n2 in sizes) >= 75
        assert sum(n1 != n2 for n1, n2 in sizes) >= 150

    def test_large_equal_sizes_within_one_ulp(self):
        # above 10000 scipy subtracts two float CDFs instead of rounding
        # h / lcm: here it gives 0.35700000000000004 for h / lcm = 0.357
        rng = np.random.default_rng(1)
        n = 12_000
        a = rng.integers(0, 40, n).astype(float)
        b = rng.gamma(2.0, 6.0, n)
        d = ks_distance(a, b)
        reference = scipy_ks(a, b)
        assert d == round(reference * n) / n
        assert abs(d - reference) <= math.ulp(d)

    @pytest.mark.parametrize("a, b", [([], [1.0]), ([1.0], []), ([], [])])
    def test_empty_sample_rejected(self, a, b):
        with pytest.raises(ValueError):
            ks_distance(np.array(a), np.array(b))


class TestObservedAsExpectations:
    def test_reproduces_observed_statistics(self, toy4):
        ec = observed_as_expectations(toy4)
        np.testing.assert_array_equal(ec.c_bar, toy4.in_degree)
        for i, j in toy4.edges:
            assert citation_probability(ec, int(i), int(j)) == 1.0
        assert_group_invariants(toy4, ec)


def naive_preferential_draws(net, attrs, author_rule=True):
    """Dict-based transcription of the sequential recursion, independent
    of the vectorized implementation: c_bar, and per (citer, target) the
    ascending member set of the citation's draw.  ``author_rule=False``
    drops the exclusion of papers by the citer's author pair."""
    from citegap.corpus import category_key, citation_window_floor

    order = sorted(
        range(net.n), key=lambda i: (net.papers[i].pub_date, net.papers[i].id)
    )
    c_run = [0.0] * net.n
    c_bar = [0.0] * net.n
    members_of = {}
    for x in order:
        targets = [int(t) for t in net.out_targets[x]]
        if not targets:
            continue
        citer = net.papers[x]
        floor = citation_window_floor(citer.pub_date)
        authors = (citer.first_author, citer.last_author)
        eligible = [
            j
            for j, p in enumerate(net.papers)
            if j != x
            and floor <= p.pub_date <= citer.pub_date
            and not (author_rule and p.first_author in authors
                     and p.last_author in authors)
        ]
        updates = []
        for t in targets:
            key = category_key(net.papers[t], attrs)
            members = [
                j for j in eligible if category_key(net.papers[j], attrs) == key
            ]
            if t not in members:
                members.append(t)
            cls = [j for j in members if abs(c_run[j] - c_run[t]) <= 1e-9]
            members_of[x, t] = sorted(cls)
            updates.append((cls, 1.0 / len(cls)))
        for cls, w in updates:
            for j in cls:
                c_run[j] += w
                c_bar[j] += w
    return np.array(c_bar), members_of


def assert_matches_naive(net, attrs):
    # c_bar, and per citation the members of the bundle that holds it, in
    # the table's order
    ec = preferential_draws(net, attrs)
    c_bar, members_of = naive_preferential_draws(net, attrs)
    np.testing.assert_allclose(ec.c_bar, c_bar, atol=1e-12)
    table = {(g.citing, t): g.members.tolist() for g in ec.groups for t in g.targets}
    assert table == members_of
    return ec, members_of


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_pd_matches_naive_recursion(seed):
    cfg = SynthConfig(
        n_papers=50,
        seed=seed,
        n_ranks=3,
        n_countries=5,
        n_topics=10,
        out_degree="uniform:1,3",
        pa_strength=0.5,
        homophily={"rank": 0.2, "country": 0.2, "topic": 0.8},
        date_start=date(2000, 1, 1),
        date_end=date(2006, 12, 31),
    )
    net = generate_network(cfg)
    mine = assert_matches_naive(net, ATTRS)[0].c_bar
    exact = preferential_draws(net, ATTRS, exact=True).c_bar
    np.testing.assert_allclose(mine, exact, atol=1e-12)


@pytest.mark.parametrize("corpus", ["toy_pd", "rawgen-1", "rawgen-7"])
def test_pd_matches_naive_recursion_under_author_rule(corpus, tmp_path):
    # toy_pd's P3 meets P2, excluded by the author rule with the running
    # count of P3's target; the year-only rawgen corpora reuse author pairs,
    # so many citers meet excluded papers tied with their targets, and hold
    # citations to later-dated papers
    if corpus == "toy_pd":
        net, attrs = build_toy_pd(), ATTRS
    else:
        sys.path.insert(0, str(PERFBENCH))
        try:
            import rawgen
        finally:
            sys.path.remove(str(PERFBENCH))
        papers, citations = tmp_path / "papers.tsv", tmp_path / "citations.tsv"
        rawgen.generate(300, 12, int(corpus[-1])).write(papers, citations)
        # rows out of date order, so the eligibility index is not index order
        header, *rows = papers.read_text().splitlines(keepends=True)
        papers.write_text("".join([header, *np.random.default_rng(0).permutation(rows)]))
        net, attrs = load_network(papers, citations), ("rank",)
    members_of = assert_matches_naive(net, attrs)[1]
    # the author rule changes some citation's draw
    assert naive_preferential_draws(net, attrs, author_rule=False)[1] != members_of


def test_check_network_rejects_mismatch(toy4, toy_pd):
    ec = random_draws(toy4)
    with pytest.raises(ModelError):
        ec.check_network(toy_pd)


def test_compute_model_rejects_unknown_name(toy4):
    with pytest.raises(ValueError):
        compute_model(toy4, "XX")


# ---------------------------------------------------------------------------
# differential tests: every reduction over the group table against a plain
# loop over the groups view


def year_tie_network(seed, n_papers=120, n_years=6):
    """Year-only dates (every paper of a year on January 1), a small author
    pool so the author exclusion fires, UNKNOWN genders, and citations up
    to two years into the future."""
    rng = np.random.default_rng(seed)
    genders = list(GenderCategory)
    ranks = [ConferenceRank.A_STAR, ConferenceRank.A, ConferenceRank.B]
    years = 2000 + rng.integers(0, n_years, n_papers)
    papers = [
        make_paper(
            f"Q{k:03d}", date(int(years[k]), 1, 1),
            gender=genders[rng.integers(len(genders))],
            rank=ranks[rng.integers(len(ranks))],
            country=f"C{rng.integers(3)}", topic=f"T{rng.integers(4)}",
            subfield=f"S{rng.integers(2)}",
            first=f"a{rng.integers(15)}", last=f"a{rng.integers(15)}",
        )
        for k in range(n_papers)
    ]
    edges = []
    for k in range(n_papers):
        window = np.flatnonzero(years <= years[k] + 2)
        for j in rng.choice(window, size=min(int(rng.integers(1, 5)), window.size),
                            replace=False):
            if j != k:
                edges.append((papers[k].id, papers[j].id))
    return filter_citations(papers, edges)


def synth_network(seed):
    return generate_network(SynthConfig(
        n_papers=150, seed=seed, n_ranks=3, n_countries=4, n_topics=5,
        out_degree="uniform:1,4", pa_strength=1.0,
        homophily={"rank": 0.3, "country": 0.3, "topic": 0.8},
    ))


TABLE_MODELS = {
    "RD": lambda net: random_draws(net),
    "HD-rank": lambda net: homophilic_draws(net, ("rank",)),
    "HD": lambda net: homophilic_draws(net, ATTRS),
    "PD": lambda net: preferential_draws(net, ATTRS),
    "PD-exact": lambda net: preferential_draws(net, ATTRS, exact=True),
    "observed": observed_as_expectations,
}


def loop_expected_out(ec):
    out = np.zeros(ec.n_papers)
    for g in ec.groups:
        out[g.citing] += g.weight * g.members.size
    return out


def loop_pairwise(net, ec, attribute):
    codes, labels = net.attribute_codes(attribute)
    expected = np.zeros((len(labels), len(labels)))
    for g in ec.groups:
        expected[codes[g.citing]] += g.weight * np.bincount(
            codes[g.members], minlength=len(labels)
        )
    return expected


def selected(net, paper_filter):
    """Per paper, whether its attributes meet every criterion of the filter
    (gender and rank are str enums, so they equal their raw tokens)."""
    return np.array([all(getattr(p, name) == value for name, value in paper_filter.criteria)
                     for p in net.papers], dtype=bool)


def loop_expected_by_gender(net, ec, from_filter, to_filter):
    fm = selected(net, from_filter)
    tm = selected(net, to_filter)
    gcodes = net.gender_codes
    known = gcodes != list(GenderCategory).index(GenderCategory.UNKNOWN)
    totals = np.zeros(len(GenderCategory))
    for g in ec.groups:
        if not fm[g.citing]:
            continue
        targets = np.asarray(g.targets)
        m_to = int(np.count_nonzero(tm[targets] & known[targets]))
        member_counts = np.bincount(gcodes[g.members], minlength=len(GenderCategory))
        totals += m_to * member_counts / g.members.size
    return totals


@pytest.mark.parametrize("model", sorted(TABLE_MODELS))
@pytest.mark.parametrize("corpus", ["synth", "year-ties"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_table_reductions_match_group_loops(seed, corpus, model, tmp_path):
    net = (synth_network if corpus == "synth" else year_tie_network)(seed)
    ec = TABLE_MODELS[model](net)
    assert_group_invariants(net, ec)

    # the table a model artifact stores loads back bit-identical
    archive, artifact = tmp_path / "archive", tmp_path / "model"
    archive.mkdir()
    artifact.mkdir()
    cli._write_archive(net, archive)
    cli._write_model_artifact(net, ec, archive, artifact, exact=model == "PD-exact",
                              count_tol=DEFAULT_COUNT_TOL)
    reloaded_net, loaded, _ = cli._load_inputs(archive, artifact)
    np.testing.assert_array_equal(reloaded_net.edges, net.edges)
    for name in ("order", "citing", "weight", "lo", "hi", "excluded_ptr", "excluded",
                 "indptr", "indices", "target_ptr", "targets", "c_bar"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(ec, name))
    # position and member arrays are int32 whenever they fit, in memory
    # and on disk
    for name in ("lo", "hi", "excluded_ptr", "excluded", "indptr", "indices"):
        assert getattr(ec, name).dtype == getattr(loaded, name).dtype == np.int32
    # rd/hd groups are intervals of the eligibility index, the others
    # explicit member lists
    assert (ec.intervals > 0) == (model in ("RD", "HD-rank", "HD"))

    assert list(ec.citing) == sorted(ec.citing)
    if model in ("RD", "HD-rank", "HD"):
        # c_bar sums the same masses as the loop, in another order
        rebuilt = np.zeros(net.n)
        for g in ec.groups:
            rebuilt[g.members] += g.weight
        np.testing.assert_allclose(ec.c_bar, rebuilt, rtol=1e-12, atol=0)

    # same operations in the same order as the loops: equal to the bit
    np.testing.assert_array_equal(expected_out(ec), loop_expected_out(ec))
    for from_filter, to_filter in [
        (ALL_PAPERS, ALL_PAPERS),
        (PaperFilter.parse("gender=WW"), ALL_PAPERS),
        (ALL_PAPERS, PaperFilter.parse("rank=A")),
    ]:
        table = expected_by_gender(net, ec, from_filter, to_filter)
        np.testing.assert_array_equal(
            [table[g] for g in GenderCategory],
            loop_expected_by_gender(net, ec, from_filter, to_filter),
        )
    # the pairwise sums run in another order: equal to a few ulps
    report = structural_report(net, ec)
    for attribute in report.pairwise:
        np.testing.assert_allclose(report.pairwise[attribute].expected,
                                   loop_pairwise(net, ec, attribute), rtol=1e-12, atol=0)
    for i, j in net.edges[::7]:
        groups = ec.groups[slice(*np.searchsorted(ec.citing, [i, i + 1]))]
        direct = sum(g.weight for g in groups if j in g.members)
        assert citation_probability(ec, int(i), int(j)) == pytest.approx(direct, rel=1e-12)
    assert_reductions_match_scipy(net, ec)


def onehot(codes, size):
    n = len(codes)
    return sparse.csr_matrix((np.ones(n), (np.arange(n), codes)), shape=(n, size))


def assert_reductions_match_scipy(net, ec):
    """Every reduction over the table equals the same product over a
    ``scipy.sparse`` matrix W holding the members of ``ec.groups``.  For
    an explicit table that is bit for bit (same additions, same order);
    an interval table adds its floats in another order, so they agree to
    1e-12 relative, and exactly where W's product is 0."""
    members = [g.members for g in ec.groups]
    W = sparse.csr_matrix((np.repeat(ec.weight, ec.sizes),
                           np.concatenate([np.zeros(0, np.int64)] + members),
                           np.concatenate(([0], np.cumsum(ec.sizes)))),
                          shape=(len(ec.citing), net.n))
    if ec.intervals:
        def assert_equal(got, want):
            want = np.asarray(want)
            assert (np.abs(got - want) <= 1e-12 * np.abs(want)).all()
    else:
        assert_equal = np.testing.assert_array_equal
    ones = np.ones(len(ec.citing))
    assert_equal(ec.spread(ones), W.T @ ones)
    if ec.model in ("RD", "HD"):
        assert_equal(ec.c_bar, W.T @ ones)
    y = np.random.default_rng(len(ec.citing)).random(len(ec.citing))
    assert_equal(ec.spread(y), W.T @ y)

    # member counts per gender: the mass W puts on a category over weight
    everything = np.ones(net.n, dtype=bool)
    citing, m_to, counts, sizes = _counted_groups(net, ec, everything, everything)
    mass = (W @ onehot(net.gender_codes, len(GenderCategory))).toarray()
    known = net.gender_codes != list(GenderCategory).index(GenderCategory.UNKNOWN)
    keep = np.add.reduceat(known[ec.targets], ec.target_ptr[:-1]) > 0
    np.testing.assert_array_equal(counts, np.rint(mass / ec.weight[:, None])[keep])
    np.testing.assert_array_equal(sizes, W.getnnz(axis=1)[keep])
    np.testing.assert_array_equal(citing, ec.citing[keep])

    report = structural_report(net, ec)
    for attribute, pairs in report.pairwise.items():
        codes, labels = net.attribute_codes(attribute)
        size = len(labels)
        expected = onehot(codes[ec.citing], size).T @ (W @ onehot(codes, size))
        assert_equal(pairs.expected, expected.toarray())

    # both PageRank flows, iterated to the end
    k = net.out_degree
    citing, cited = net.edges[:, 0], net.edges[:, 1]
    transition = sparse.csr_matrix((1.0 / k[citing], (cited, citing)),
                                   shape=(net.n, net.n))
    for result, flow, teleport in [
        (pagerank_observed(net), transition.dot, net.in_degree / net.m),
        (pagerank_reference(ec, net), lambda p: W.T @ (p[ec.citing] / k[ec.citing]),
         ec.c_bar / net.m),
    ]:
        p, used, _, residual = _power_iteration(flow, teleport, k == 0, DEFAULT_ALPHA,
                                                DEFAULT_EPS, DEFAULT_T_MAX)
        assert_equal(result.raw_score, p)
        assert result.iterations_used == used
        if ec.intervals:
            # a mean of differences between nearly equal iterates, which
            # magnifies the last-ulp differences of the scores
            assert result.final_residual == pytest.approx(residual, rel=1e-9)
        else:
            assert result.final_residual == residual


@pytest.mark.parametrize("model", ["RD", "HD-rank", "PD"])
def test_reductions_span_several_blocks(model, monkeypatch):
    # a block is bounded by its explicit members and exclusions and by
    # its rows: RD and HD-rank blocks mix groups with more exclusions than
    # a block with runs of groups with fewer; PD blocks hold many one- or
    # two-member groups
    monkeypatch.setattr(refmodels, "BLOCK_ENTRIES", 64)
    net = synth_network(1)
    ec = TABLE_MODELS[model](net)
    entries = ec.indptr + ec.excluded_ptr
    blocks = list(refmodels._blocks(entries, 5))
    assert len(blocks) > 1
    assert [a for a, _ in blocks[1:]] == [b for _, b in blocks[:-1]]
    assert blocks[0][0] == 0 and blocks[-1][1] == len(ec.citing)
    for a, b in blocks:
        assert b - a == 1 or (b - a <= 64 // 5 and entries[b] - entries[a] <= 64)
    assert_group_invariants(net, ec)
    assert_reductions_match_scipy(net, ec)


def test_table_packs_members_once_in_the_stored_dtype():
    # 2,000 citers with 1,000 int64 members each: the int32 member array
    # is 8 MB, and packing may hold little beyond it (an int64
    # intermediate alone would be 16 MB)
    n = 2000
    net = CitationNetwork.from_papers([make_paper(f"P{k}", date(2000, 1, 1)) for k in range(n)],
                                      np.zeros((0, 2)))
    rows = [(i, np.arange(0, n, 2), [i]) for i in range(n)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ec = table_from_rows("RD", (), net, rows)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert ec.indices.dtype == np.int32 and ec.indices.nbytes == 8_000_000
    assert peak <= 1.25 * ec.indices.nbytes
