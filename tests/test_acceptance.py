"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints one PASS line (visible with ``pytest -s``); under
``pytest -v`` the per-test verdicts serve as the pass/fail lines.
Statistical criteria run on frozen fixture seeds chosen with margin;
tolerances and thresholds are asserted exactly as stated.
"""
import hashlib
import math
import time
from datetime import date

import numpy as np
import pytest

from citegap import (
    GenderCategory,
    SynthConfig,
    bootstrap_ci,
    generate_network,
    homophilic_draws,
    monte_carlo_oracle,
    observed_as_expectations,
    pagerank_observed,
    pagerank_reference,
    preferential_draws,
    random_draws,
    share_curve,
)
from citegap.cli import main
from citegap.refmodels import compute_model, ks_distance, structural_report
from conftest import build_toy4, build_toy_pd, index_of
from explicit_tables import expected_out

ATTRS = ("rank", "country", "topic")
KNOWN = (
    GenderCategory.MM,
    GenderCategory.MW,
    GenderCategory.WM,
    GenderCategory.WW,
)


def report(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {message}", flush=True)


def attribute_rich_config(seed: int = 7) -> SynthConfig:
    # 3 ranks x 5 countries x 10 topics, as criterion 2 prescribes
    return SynthConfig(
        n_papers=2000,
        seed=seed,
        n_ranks=3,
        n_countries=5,
        n_topics=10,
        out_degree="uniform:1,5",
        pa_strength=1.5,
        homophily={"rank": 0.3, "country": 0.3, "topic": 0.8},
    )


def heterogeneity_config(seed: int = 7) -> SynthConfig:
    # sparse category keys relative to N, like the empirical corpus the
    # sequential model is meant for
    return SynthConfig(
        n_papers=2000,
        seed=seed,
        n_ranks=3,
        n_countries=10,
        n_topics=100,
        out_degree="uniform:1,5",
        pa_strength=1.5,
        homophily={"rank": 0.3, "country": 0.3, "topic": 0.8},
    )


def small_net(n_papers: int, seed: int):
    return generate_network(
        SynthConfig(
            n_papers=n_papers,
            seed=seed,
            n_ranks=3,
            n_countries=5,
            n_topics=10,
            out_degree="uniform:1,3",
            pa_strength=0.5,
            homophily={"rank": 0.2, "country": 0.2, "topic": 0.8},
            date_start=date(2000, 1, 1),
            date_end=date(2004, 12, 31),
        )
    )


@pytest.fixture(scope="module")
def attribute_rich_net():
    return generate_network(attribute_rich_config())


def test_criterion_01_out_degree_conservation(attribute_rich_net):
    started = time.perf_counter()
    worst_row = 0.0
    worst_total = 0.0
    for net in (build_toy4(), build_toy_pd(), attribute_rich_net):
        for model in ("RD", "HD", "PD"):
            ec = compute_model(net, model, ATTRS if model != "RD" else ())
            worst_row = max(
                worst_row, np.abs(expected_out(ec) - net.out_degree).max()
            )
            worst_total = max(worst_total, abs(ec.c_bar.sum() - net.m))
    elapsed = time.perf_counter() - started
    assert worst_row <= 1e-9
    assert worst_total <= 1e-9
    assert elapsed < 10.0
    report(1, f"out-degree conservation (max row error {worst_row:.2e}, "
              f"max total error {worst_total:.2e}, {elapsed:.1f}s)")


def test_criterion_02_homophily_preservation(attribute_rich_net):
    started = time.perf_counter()
    net = attribute_rich_net
    worst = 0.0
    for model in ("HD", "PD"):
        ec = compute_model(net, model, ATTRS)
        rep = structural_report(net, ec)
        for attribute in ATTRS:
            pairs = rep.pairwise[attribute]
            worst = max(worst, np.abs(pairs.expected - pairs.observed).max())
    elapsed = time.perf_counter() - started
    assert worst <= 1e-9
    assert elapsed < 30.0
    report(2, f"pairwise citation matrices preserved (max error {worst:.2e}, "
              f"{elapsed:.1f}s)")


def test_criterion_03_heterogeneity_preservation():
    started = time.perf_counter()
    net = generate_network(heterogeneity_config())
    observed = net.in_degree.astype(float)
    ks_hd = ks_distance(observed, homophilic_draws(net, ATTRS).c_bar)
    ks_pd = ks_distance(observed, preferential_draws(net, ATTRS).c_bar)
    elapsed = time.perf_counter() - started
    assert ks_pd < ks_hd
    assert ks_pd <= 0.1
    assert elapsed < 60.0
    report(3, f"in-citation heterogeneity (KS PD {ks_pd:.4f} < KS HD "
              f"{ks_hd:.4f}, {elapsed:.1f}s)")


def test_criterion_04_monte_carlo_oracle():
    started = time.perf_counter()
    samples = 100_000
    fixtures = [
        build_toy4(),
        build_toy_pd(),
        small_net(18, 37),
        small_net(24, 41),
    ]
    worst_z = 0.0
    worst_pd_z = 0.0
    for net in fixtures:
        assert net.n <= 50
        for model in ("RD", "HD"):
            attrs = () if model == "RD" else ATTRS
            ec = compute_model(net, model, attrs)
            est = monte_carlo_oracle(net, model, attrs, samples, seed=5)
            analytic = np.zeros((net.n, net.n))
            for g in ec.groups:
                analytic[g.citing, g.members] += g.weight
            for i in range(net.n):
                k = net.out_degree[i]
                if k == 0:
                    assert not est.w_mean[i].any()
                    continue
                for g in ec.groups[slice(*np.searchsorted(ec.citing, [i, i + 1]))]:
                    p = g.weight / k
                    se = math.sqrt(k * p * (1 - p) / samples)
                    gaps = np.abs(est.w_mean[i, g.members] - g.weight)
                    if se == 0:
                        assert gaps.max() == 0
                    else:
                        worst_z = max(worst_z, gaps.max() / se)
                        assert gaps.max() <= 3 * se
                untouched = analytic[i] == 0
                assert not est.w_mean[i, untouched].any()
        pd_ec = compute_model(net, "PD", ATTRS)
        est = monte_carlo_oracle(net, "PD", ATTRS, samples, seed=5)
        gaps = np.abs(est.c_mean - pd_ec.c_bar)
        deterministic = est.c_se == 0
        assert gaps[deterministic].max(initial=0.0) <= 1e-9
        if (~deterministic).any():
            z = (gaps[~deterministic] / est.c_se[~deterministic]).max()
            worst_pd_z = max(worst_pd_z, z)
            assert z <= 4.0
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(4, f"sampling oracle agrees (RD/HD max z {worst_z:.2f} <= 3, "
              f"PD max z {worst_pd_z:.2f} <= 4, {elapsed:.1f}s)")


def test_criterion_05_null_calibration():
    started = time.perf_counter()
    seeds = range(30, 50)
    passing = 0
    for seed in seeds:
        cfg = SynthConfig(
            n_papers=2000,
            seed=seed,
            out_degree="uniform:1,5",
            category_weights={
                GenderCategory.MM: 0.4,
                GenderCategory.MW: 0.2,
                GenderCategory.WM: 0.2,
                GenderCategory.WW: 0.2,
            },
        )
        net = generate_network(cfg)
        ec = random_draws(net)
        cis = bootstrap_ci(net, ec, resamples=500, seed=seed)[0]
        if all(
            cis[g] is not None and cis[g][0] <= 0 <= cis[g][1] for g in KNOWN
        ):
            passing += 1
    elapsed = time.perf_counter() - started
    assert passing >= 17
    assert elapsed < 300.0
    report(5, f"null calibration ({passing}/20 seeds cover zero for every "
              f"category, {elapsed:.1f}s)")


def biased_config(seed: int, n_papers: int = 2000) -> SynthConfig:
    return SynthConfig(
        n_papers=n_papers,
        seed=seed,
        out_degree="uniform:1,5",
        gender_bias=0.5,
        category_weights={
            GenderCategory.MM: 0.5,
            GenderCategory.MW: 0.0,
            GenderCategory.WM: 0.0,
            GenderCategory.WW: 0.5,
        },
    )


def test_criterion_06_bias_recovery():
    # with multiplier beta on papers with a woman as first and/or last
    # author and W|W eligible-set share q, each citation lands on such a
    # paper with probability beta*q / (beta*q + 1 - q), so the over/under
    # against the uniform expectation q is (beta-1)(1-q) / (1 + (beta-1)q);
    # here beta = 0.5 and q = 0.5 give exactly -1/3
    beta, q = 0.5, 0.5
    closed_form = (beta - 1) * (1 - q) / (1 + (beta - 1) * q)
    assert closed_form == pytest.approx(-1 / 3)
    started = time.perf_counter()
    covering = 0
    for seed in range(20):
        net = generate_network(biased_config(seed))
        ec = random_draws(net)
        ci = bootstrap_ci(net, ec, resamples=500, seed=seed)[0][GenderCategory.WW]
        if ci is not None and ci[0] <= closed_form <= ci[1]:
            covering += 1
    elapsed = time.perf_counter() - started
    assert covering >= 17
    report(6, f"bias recovery ({covering}/20 CIs cover the closed form "
              f"{closed_form:.4f}, {elapsed:.1f}s)")


def dense_pagerank(net, alpha=0.85, eps=1e-6, t_max=100):
    teleport = net.in_degree / net.m
    k = net.out_degree
    transition = np.zeros((net.n, net.n))
    for i, j in net.edges:
        transition[i, j] = 1.0 / k[i]
    for i in range(net.n):
        if k[i] == 0:
            transition[i] = teleport
    p = teleport.copy()
    for _ in range(t_max):
        new = (1 - alpha) * teleport + alpha * (transition.T @ p)
        if np.abs(new - p).mean() < eps:
            return new
        p = new
    return p


def test_criterion_07_pagerank_correctness(attribute_rich_net):
    worst_oracle = 0.0
    for seed in (0, 1, 2):
        net = generate_network(
            SynthConfig(
                n_papers=18,
                seed=seed,
                out_degree="uniform:1,3",
                date_start=date(2000, 1, 1),
                date_end=date(2004, 12, 31),
            )
        )
        assert net.n <= 20
        mine = pagerank_observed(net, eps=1e-13, t_max=2000).raw_score
        oracle = dense_pagerank(net, eps=1e-13, t_max=2000)
        worst_oracle = max(worst_oracle, np.abs(mine - oracle).max())
        assert np.abs(mine - oracle).max() <= 1e-8

    sums = []
    for net in (build_toy4(), build_toy_pd(), attribute_rich_net):
        sums.append(pagerank_observed(net).raw_score.sum())
        sums.append(pagerank_reference(random_draws(net), net).raw_score.sum())
    assert max(abs(s - 1.0) for s in sums) <= 1e-6

    worst_degenerate = 0.0
    for net in (build_toy4(), small_net(24, 41)):
        observed = pagerank_observed(net, eps=1e-12, t_max=500).raw_score
        degenerate = pagerank_reference(
            observed_as_expectations(net), net, eps=1e-12, t_max=500
        ).raw_score
        worst_degenerate = max(worst_degenerate, np.abs(observed - degenerate).max())
    assert worst_degenerate <= 1e-9
    report(7, f"PageRank (dense-oracle error {worst_oracle:.2e} <= 1e-8, "
              f"sums within 1e-6, degenerate-model error "
              f"{worst_degenerate:.2e} <= 1e-9)")


def test_criterion_08_ranking_imbalance_direction():
    started = time.perf_counter()
    grid = [1.0, 5.0, 10.0]
    passing = {"citations": 0, "pagerank": 0}
    for seed in range(20):
        net = generate_network(biased_config(seed, n_papers=1000))
        ec = random_draws(net)
        for metric in passing:
            points = share_curve(net, metric, {"RD": ec}, grid)
            shares = {(pt.source, pt.d): pt.ww_share for pt in points}
            if all(shares[("observed", d)] <= shares[("RD", d)] for d in grid):
                passing[metric] += 1
    elapsed = time.perf_counter() - started
    assert passing["citations"] >= 17
    assert passing["pagerank"] >= 17
    report(8, f"top-share direction (citations {passing['citations']}/20, "
              f"pagerank {passing['pagerank']}/20 seeds, {elapsed:.1f}s)")


def test_criterion_09_hand_traced_fixtures():
    toy4 = build_toy4()
    rd = random_draws(toy4).c_bar
    np.testing.assert_allclose(rd, [7 / 6, 7 / 6, 2 / 3, 0.0], atol=1e-12)
    hd = homophilic_draws(toy4, ATTRS).c_bar
    np.testing.assert_allclose(hd, [1.5, 1.5, 0.0, 0.0], atol=1e-12)

    toy_pd = build_toy_pd()
    p1, p2 = index_of(toy_pd)["P1"], index_of(toy_pd)["P2"]
    hd_pd = homophilic_draws(toy_pd, ATTRS).c_bar
    exact = preferential_draws(toy_pd, ATTRS, exact=True).c_bar
    assert abs(hd_pd[p1] - 1.5) <= 1e-12 and abs(hd_pd[p2] - 0.5) <= 1e-12
    assert abs(exact[p1] - 2.0) <= 1e-12 and abs(exact[p2] - 0.0) <= 1e-12
    exact4 = preferential_draws(toy4, ATTRS, exact=True).c_bar
    np.testing.assert_allclose(exact4, [1.5, 1.5, 0.0, 0.0], atol=1e-12)
    report(9, "hand-traced fixtures reproduced exactly")


def test_criterion_10_cli_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    config = tmp_path / "synth.cfg"
    config.write_text(
        "n_papers=300\nseed=12\nout_degree=uniform:1,4\ntopics=20\n"
        "pa_strength=1.0\nhomophily_topic=0.8\n"
    )
    base = tmp_path / "work"

    def tree_hashes():
        return {
            str(p.relative_to(base)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(base.rglob("*"))
            if p.is_file()
        }

    def pipeline():
        argv = ["--output-dir", str(base)]
        assert main(argv + ["synth", str(config), "corpus"]) == 0
        assert main(argv + ["ingest", str(base / "corpus" / "papers.tsv"),
                            str(base / "corpus" / "citations.tsv"), "archive"]) == 0
        assert main(argv + ["model", str(base / "archive"), "pd",
                            "--model", "pd"]) == 0
        assert main(argv + ["--seed", "4", "imbalance", str(base / "archive"),
                            str(base / "pd"), "imbalance",
                            "--bootstrap", "100", "--stratify", "rank"]) == 0
        assert main(argv + ["rank", str(base / "archive"), "rank",
                            "--model-artifact", str(base / "pd"),
                            "--metric", "pagerank", "--d-grid", "1,5,10"]) == 0
        return tree_hashes()

    first = pipeline()
    second = pipeline()
    assert first == second
    assert len(first) >= 15
    report(10, f"CLI pipeline rerun is byte-identical ({len(first)} files)")
