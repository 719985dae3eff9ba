import logging
import re
from datetime import date

import numpy as np
import pytest

from citegap import (
    GenderCategory,
    SynthConfig,
    citation_scores,
    filter_citations,
    generate_network,
    homophilic_draws,
    normalized_scores,
    observed_as_expectations,
    pagerank_observed,
    pagerank_reference,
    random_draws,
    share_curve,
)
from citegap.ranking import _top_shares, ranking_order, write_ranking_csv, write_share_csv
from conftest import index_of, make_paper

MM, WW = GenderCategory.MM, GenderCategory.WW


def dense_pagerank(net, alpha=0.85, eps=1e-6, t_max=100):
    """Independent dense oracle: explicit transition matrix, transposed
    matrix-vector products, same stopping rule."""
    c = net.in_degree / net.m
    k = net.out_degree
    T = np.zeros((net.n, net.n))
    for i, j in net.edges:
        T[i, j] = 1.0 / k[i]
    for i in range(net.n):
        if k[i] == 0:
            T[i] = c
    p = c.copy()
    for _ in range(t_max):
        new = (1 - alpha) * c + alpha * (T.T @ p)
        if np.abs(new - p).mean() < eps:
            return new
        p = new
    return p


def two_paper_chain():
    papers = [make_paper("A", date(2010, 1, 1)), make_paper("B", date(2011, 1, 1))]
    return filter_citations(papers, [("B", "A")])


def symmetric_pair():
    papers = [
        make_paper("A", date(2010, 1, 1)),
        make_paper("B", date(2010, 1, 1)),
    ]
    return filter_citations(papers, [("A", "B"), ("B", "A")])


class TestNormalizedScores:
    def test_divide_by_stratum_mean(self):
        papers = [
            make_paper("A", date(2010, 1, 1)),
            make_paper("B", date(2010, 6, 1)),
            make_paper("C", date(2011, 1, 1)),
        ]
        net = filter_citations(papers, [("C", "A"), ("C", "B")])
        scored = normalized_scores(np.array([4.0, 0.0, 1.0]), net)
        # A and B share (2010, S1) with mean 2; C is alone
        assert scored[index_of(net)["A"]] == pytest.approx(2.0)
        assert scored[index_of(net)["B"]] == pytest.approx(0.0)
        assert scored[index_of(net)["C"]] == pytest.approx(1.0)

    def test_singleton_stratum_normalizes_to_one(self):
        net = two_paper_chain()
        scored = normalized_scores(np.array([7.0, 3.0]), net)
        assert list(scored) == [1.0, 1.0]

    def test_zero_stratum_warns_and_zeroes(self, caplog):
        net = symmetric_pair()
        with caplog.at_level(logging.WARNING):
            scored = normalized_scores(np.zeros(2), net)
        assert list(scored) == [0.0, 0.0]
        assert any("zero mean" in r.message for r in caplog.records)

    def test_stratum_means_are_one(self):
        net = generate_network(SynthConfig(n_papers=120, seed=4))
        scored = normalized_scores(net.in_degree.astype(float), net)
        strata = {}
        for i, p in enumerate(net.papers):
            strata.setdefault((p.pub_date.year, p.subfield), []).append(i)
        for indices in strata.values():
            if net.in_degree[indices].sum() > 0:
                assert scored[indices].mean() == pytest.approx(1.0)


class TestPagerankObserved:
    def test_two_paper_chain_fixed_point(self):
        result = pagerank_observed(two_paper_chain())
        np.testing.assert_allclose(result.raw_score, [1.0, 0.0], atol=1e-12)
        assert result.converged

    def test_symmetric_pair(self):
        result = pagerank_observed(symmetric_pair())
        np.testing.assert_allclose(result.raw_score, [0.5, 0.5], atol=1e-9)

    def test_scores_sum_to_one(self):
        net = generate_network(SynthConfig(n_papers=150, seed=9, pa_strength=1.0))
        result = pagerank_observed(net)
        assert result.raw_score.sum() == pytest.approx(1.0, abs=1e-6)
        assert result.converged
        assert (result.raw_score >= 0).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_oracle(self, seed):
        cfg = SynthConfig(
            n_papers=18, seed=seed, out_degree="uniform:1,3",
            date_start=date(2000, 1, 1), date_end=date(2004, 12, 31),
        )
        net = generate_network(cfg)
        assert net.n <= 20
        mine = pagerank_observed(net, eps=1e-13, t_max=2000).raw_score
        oracle = dense_pagerank(net, eps=1e-13, t_max=2000)
        np.testing.assert_allclose(mine, oracle, atol=1e-8)

    def test_empty_network_rejected(self):
        net = filter_citations([], [])
        with pytest.raises(ValueError):
            pagerank_observed(net)

    @pytest.mark.parametrize("params, shown", [
        ({"alpha": 1.5}, "alpha=1.5, eps=1e-06, t_max=100"),
        ({"alpha": -0.1}, "alpha=-0.1, eps=1e-06, t_max=100"),
        ({"alpha": float("nan")}, "alpha=nan, eps=1e-06, t_max=100"),
        ({"eps": float("nan")}, "alpha=0.85, eps=nan, t_max=100"),
        ({"eps": -1e-6}, "alpha=0.85, eps=-1e-06, t_max=100"),
        ({"t_max": -1}, "alpha=0.85, eps=1e-06, t_max=-1"),
    ])
    def test_bad_parameters_rejected(self, params, shown):
        message = f"PageRank needs alpha in [0, 1], eps >= 0 and t_max >= 0, got {shown}"
        for rank in (lambda net: pagerank_observed(net, **params),
                     lambda net: pagerank_reference(random_draws(net), net, **params)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                rank(two_paper_chain())

    def test_parameter_bounds_accepted(self):
        # the ends of each range: no damping, all damping, no step
        for params in ({"alpha": 0.0}, {"alpha": 1.0}, {"eps": 0.0, "t_max": 3},
                       {"t_max": 0}):
            assert pagerank_observed(two_paper_chain(), **params).raw_score.sum() \
                == pytest.approx(1.0)


class TestPagerankReference:
    def test_edge_exact_model_equals_observed(self, toy4):
        observed = pagerank_observed(toy4, eps=1e-12, t_max=500)
        degenerate = pagerank_reference(
            observed_as_expectations(toy4), toy4, eps=1e-12, t_max=500
        )
        np.testing.assert_allclose(
            degenerate.raw_score, observed.raw_score, atol=1e-9
        )

    def test_reference_scores_sum_to_one(self, toy4):
        result = pagerank_reference(random_draws(toy4), toy4)
        assert result.raw_score.sum() == pytest.approx(1.0, abs=1e-6)

    def test_alpha_zero_is_pure_teleportation(self, toy4):
        ec = random_draws(toy4)
        result = pagerank_reference(ec, toy4, alpha=0.0)
        np.testing.assert_allclose(result.raw_score, ec.c_bar / toy4.m, atol=1e-12)

    def test_row_stochastic_operator(self):
        # applying the full transition (flow + dangling + teleport rows)
        # to the all-ones vector must give all ones back
        net = generate_network(SynthConfig(n_papers=80, seed=13, n_topics=3))
        for ec in (random_draws(net), homophilic_draws(net)):
            row_sums = np.zeros(net.n)
            for g in ec.groups:
                row_sums[g.citing] += g.weight * g.members.size / net.out_degree[g.citing]
            dangling = net.out_degree == 0
            row_sums[dangling] = ec.c_bar.sum() / net.m
            np.testing.assert_allclose(row_sums, 1.0, atol=1e-9)


class TestTopShare:
    def build(self, categories):
        # the last paper is the citer, so N equals len(categories)
        papers = [
            make_paper(f"P{k}", date(2010 + (k == len(categories) - 1), 1, 1), g)
            for k, g in enumerate(categories)
        ]
        edges = [(papers[-1].id, p.id) for p in papers[:-1]]
        return filter_citations(papers, edges)

    def test_quartile_cuts(self):
        net = self.build([MM, WW, MM, WW])
        scores = np.array([5.0, 3.0, 2.0, 1.0])
        assert _top_shares(scores, net, [25])[0] == 0.0
        assert _top_shares(scores, net, [50])[0] == 0.5

    def test_full_population_gives_global_fraction(self):
        net = self.build([MM, WW, MM, WW])
        scores = np.array([5.0, 3.0, 2.0, 1.0])
        assert _top_shares(scores, net, [100])[0] == pytest.approx(2 / 4)

    def test_all_w_corpus(self):
        net = self.build([WW, WW, WW, WW])
        scores = np.arange(net.n, dtype=float)
        for d in (10, 40, 100):
            assert _top_shares(scores, net, [d])[0] == 1.0

    def test_invariant_under_increasing_transforms(self):
        net = generate_network(SynthConfig(n_papers=60, seed=2))
        scores = net.in_degree.astype(float)
        for d in (5, 25, 80):
            base = _top_shares(scores, net, [d])[0]
            assert _top_shares(3.0 * scores + 7.0, net, [d])[0] == base
            assert _top_shares(np.exp(scores / 4.0), net, [d])[0] == base

    def test_ties_break_by_paper_id(self):
        net = self.build([MM, WW, MM])
        order = ranking_order(np.zeros(net.n), net)
        assert [net.papers[i].id for i in order] == ["P0", "P1", "P2"]

    def test_d_out_of_range_rejected(self, toy4):
        with pytest.raises(ValueError):
            _top_shares(np.zeros(toy4.n), toy4, [0])[0]
        with pytest.raises(ValueError):
            _top_shares(np.zeros(toy4.n), toy4, [101])[0]


class TestShareCurve:
    def test_d_100_same_for_all_sources(self, toy4):
        points = share_curve(
            toy4, "citations", {"RD": random_draws(toy4)}, [100.0]
        )
        values = {pt.ww_share for pt in points}
        assert len(values) == 1

    def test_sources_and_grid_shape(self, toy4):
        points = share_curve(
            toy4, "pagerank", {"RD": random_draws(toy4)}, [50.0, 100.0]
        )
        assert {(pt.source, pt.d) for pt in points} == {
            ("observed", 50.0),
            ("observed", 100.0),
            ("RD", 50.0),
            ("RD", 100.0),
        }

    def test_bad_metric_rejected(self, toy4):
        with pytest.raises(ValueError):
            share_curve(toy4, "hindex", {}, [10.0])

    def test_bad_grid_rejected(self, toy4):
        with pytest.raises(ValueError):
            share_curve(toy4, "citations", {}, [0.0])


class TestShareCalibration:
    def test_unbiased_networks_agree_within_noise(self):
        # on networks whose citations literally follow the uniform-draw
        # process, observed and RD top-share curves track each other;
        # bounds frozen from a 10-seed measurement with ample margin
        diffs = {20.0: [], 50.0: []}
        for seed in range(10):
            cfg = SynthConfig(
                n_papers=1000,
                seed=seed,
                out_degree="uniform:1,5",
                category_weights={
                    GenderCategory.MM: 0.5,
                    GenderCategory.MW: 0.1,
                    GenderCategory.WM: 0.2,
                    GenderCategory.WW: 0.2,
                },
            )
            net = generate_network(cfg)
            points = share_curve(net, "citations", {"RD": random_draws(net)},
                                 [20.0, 50.0])
            shares = {(p.source, p.d): p.ww_share for p in points}
            for d in diffs:
                diffs[d].append(shares[("observed", d)] - shares[("RD", d)])
        for d, bound_mean, bound_each in ((20.0, 0.05, 0.2), (50.0, 0.03, 0.1)):
            values = np.asarray(diffs[d])
            assert abs(values.mean()) <= bound_mean
            assert np.abs(values).max() <= bound_each


class TestConvergenceAccounting:
    def test_iterations_used_marks_the_converged_step(self):
        net = generate_network(SynthConfig(n_papers=200, seed=21, pa_strength=1.0))
        result = pagerank_observed(net)
        assert result.converged
        # stopping exactly at iterations_used reproduces the same vector;
        # one step fewer has not yet met the residual threshold
        same = pagerank_observed(net, t_max=result.iterations_used)
        assert same.converged
        np.testing.assert_array_equal(same.raw_score, result.raw_score)
        earlier = pagerank_observed(net, t_max=result.iterations_used - 1)
        assert not earlier.converged


class TestExports:
    def test_ranking_csv(self, toy4, tmp_path):
        result = citation_scores(toy4)
        path = tmp_path / "rankings.csv"
        write_ranking_csv(result, toy4, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "paper_id,raw,normalized,rank"
        assert len(lines) == toy4.n + 1

    def test_share_csv(self, toy4, tmp_path):
        points = share_curve(toy4, "citations", {}, [100.0])
        path = tmp_path / "share.csv"
        write_share_csv(points, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "d,source,metric,ww_share"
        assert len(lines) == 2
