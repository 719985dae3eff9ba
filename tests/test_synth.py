import functools
import os
import random
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import citegap
from citegap import (
    GenderCategory,
    GenerationError,
    SynthConfig,
    citation_probability,
    expected_by_gender,
    filter_citations,
    generate_network,
    monte_carlo_oracle,
    observed_by_gender,
    over_under,
    preferential_draws,
    random_draws,
    synth,
)
from citegap.cli import main
from citegap.corpus import KNOWN_CATEGORIES, Paper, citation_window_floor
from citegap.synth import _choice, load_config
import synth_oracle

ATTRS = ("rank", "country", "topic")
MM, WW = GenderCategory.MM, GenderCategory.WW


class TestGenerateNetwork:
    def test_seed_determinism(self):
        cfg = SynthConfig(n_papers=120, seed=5, pa_strength=1.0)
        a = generate_network(cfg)
        b = generate_network(cfg)
        assert a.papers == b.papers
        assert np.array_equal(a.edges, b.edges)

    def test_refiltering_is_noop(self):
        net = generate_network(SynthConfig(n_papers=150, seed=8, pa_strength=0.5))
        again = filter_citations(
            list(net.papers),
            [(net.papers[i].id, net.papers[j].id) for i, j in net.edges],
        )
        assert again.papers == net.papers
        assert np.array_equal(again.edges, net.edges)

    def test_edges_respect_window_and_order(self):
        net = generate_network(
            SynthConfig(
                n_papers=200,
                seed=3,
                date_start=date(2000, 1, 1),
                date_end=date(2014, 12, 31),
            )
        )
        for i, j in net.edges:
            citing, cited = net.papers[i], net.papers[j]
            assert cited.pub_date < citing.pub_date
            assert cited.pub_date >= citation_window_floor(citing.pub_date)

    def test_distinct_dates_and_authors(self):
        net = generate_network(SynthConfig(n_papers=80, seed=1))
        dates = [p.pub_date for p in net.papers]
        assert len(set(dates)) == len(dates)
        authors = [p.first_author for p in net.papers] + [
            p.last_author for p in net.papers
        ]
        assert len(set(authors)) == len(authors)

    def test_neutral_config_draws_uniformly(self):
        # with all knobs neutral, the last paper's single citation is a
        # uniform draw over its 24 predecessors; chi-square over 400 seeds
        counts = np.zeros(24)
        for seed in range(400):
            cfg = SynthConfig(
                n_papers=25,
                seed=seed,
                out_degree="fixed:1",
                date_start=date(2000, 1, 1),
                date_end=date(2000, 12, 31),
            )
            net = generate_network(cfg)
            last = net.index_of.get("P25")
            if last is None or net.out_degree[last] == 0:
                continue
            target_id = net.papers[int(net.out_targets[last][0])].id
            counts[int(target_id[1:]) - 1] += 1
        assert counts.sum() == 400
        assert stats.chisquare(counts).pvalue > 0.001

    def test_gender_bias_produces_under_citation(self):
        cfg = SynthConfig(
            n_papers=800,
            seed=2,
            gender_bias=0.5,
            category_weights={MM: 0.5, GenderCategory.MW: 0.0,
                              GenderCategory.WM: 0.0, WW: 0.5},
        )
        net = generate_network(cfg)
        rd = random_draws(net)
        ou = over_under(
            observed_by_gender(net)[WW], expected_by_gender(net, rd)[WW]
        )
        assert ou < -0.2

    def test_homophily_concentrates_topics(self):
        neutral = generate_network(SynthConfig(n_papers=300, seed=6, n_topics=4))
        homophilous = generate_network(
            SynthConfig(
                n_papers=300, seed=6, n_topics=4,
                homophily={"rank": 0.0, "country": 0.0, "topic": 2.0},
            )
        )

        def same_topic_fraction(net):
            same = sum(
                1 for i, j in net.edges
                if net.papers[i].topic == net.papers[j].topic
            )
            return same / net.m

        assert same_topic_fraction(homophilous) > same_topic_fraction(neutral) + 0.2

    def test_preferential_attachment_skews_in_degree(self):
        flat = generate_network(SynthConfig(n_papers=500, seed=4))
        skewed = generate_network(SynthConfig(n_papers=500, seed=4, pa_strength=3.0))
        assert skewed.in_degree.max() > 2 * flat.in_degree.max()

    def test_out_degree_demand_exceeding_corpus_rejected(self):
        with pytest.raises(GenerationError, match="out-degree"):
            generate_network(SynthConfig(n_papers=4, out_degree="fixed:10")).m

    def test_single_paper_rejected(self):
        with pytest.raises(GenerationError):
            generate_network(SynthConfig(n_papers=1))

    def test_window_smaller_than_papers_rejected(self):
        cfg = SynthConfig(
            n_papers=40, date_start=date(2000, 1, 1), date_end=date(2000, 1, 20)
        )
        with pytest.raises(GenerationError, match="window"):
            generate_network(cfg)

    def test_zero_total_weight_rejected(self):
        cfg = SynthConfig(
            n_papers=10,
            seed=0,
            gender_bias=0.0,
            category_weights={MM: 0.0, GenderCategory.MW: 0.0,
                              GenderCategory.WM: 0.0, WW: 1.0},
        )
        with pytest.raises(GenerationError, match="weight"):
            generate_network(cfg)

    def test_bad_out_degree_spec_rejected(self):
        with pytest.raises(GenerationError):
            SynthConfig(n_papers=10, out_degree="zipf:2").validate()

    @pytest.mark.parametrize("spec", ["fixed:-1", "uniform:-2,1", "uniform:3,2",
                                      "poisson:-1"])
    def test_negative_or_empty_degree_range_rejected(self, spec):
        with pytest.raises(GenerationError, match="bad out_degree spec"):
            SynthConfig(n_papers=10, out_degree=spec).validate()


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text(
            "# null-model testbed\n"
            "n_papers=50\n"
            "seed=9\n"
            "date_start=2001-01-01\n"
            "date_end=2003-12-31\n"
            "weight_mm=0.7\n"
            "weight_ww=0.3\n"
            "weight_mw=0\n"
            "weight_wm=0\n"
            "ranks=2\n"
            "topics=3\n"
            "out_degree=uniform:1,2\n"
            "homophily_topic=1.5\n"
            "pa_strength=0.5\n"
            "gender_bias=0.8\n"
        )
        cfg = load_config(path)
        assert cfg.n_papers == 50
        assert cfg.seed == 9
        assert cfg.date_start == date(2001, 1, 1)
        assert cfg.category_weights[MM] == 0.7
        assert cfg.n_ranks == 2
        assert cfg.n_topics == 3
        assert cfg.homophily["topic"] == 1.5
        assert cfg.gender_bias == 0.8
        generate_network(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text("n_papers=50\nvelocity=3\n")
        with pytest.raises(GenerationError, match="velocity"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text("n_papers=lots\n")
        with pytest.raises(GenerationError):
            load_config(path)

    def test_missing_n_papers_rejected(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text("seed=1\n")
        with pytest.raises(GenerationError, match="n_papers"):
            load_config(path)


class TestMonteCarloOracle:
    def test_rd_matches_hand_value_within_three_ses(self, toy4):
        est = monte_carlo_oracle(toy4, "RD", samples=100_000, seed=5)
        p4, p3 = toy4.index_of["P4"], toy4.index_of["P3"]
        k, size = 2, 3  # P4 makes two draws over three eligible papers
        se = k * np.sqrt((1 / size) * (1 - 1 / size) / (est.samples * k))
        assert abs(est.w_mean[p4, p3] - 2 / 3) <= 3 * se

    def test_hd_expected_citations_within_three_ses(self, toy4):
        est = monte_carlo_oracle(toy4, "HD", ATTRS, samples=100_000, seed=5)
        p1 = toy4.index_of["P1"]
        assert abs(est.c_mean[p1] - 1.5) <= 3 * max(est.c_se[p1], 1e-12)

    def test_singleton_group_frequency_is_exact(self, toy_pd):
        est = monte_carlo_oracle(toy_pd, "PD", ATTRS, samples=2_000, seed=5)
        p3, p1 = toy_pd.index_of["P3"], toy_pd.index_of["P1"]
        assert est.w_mean[p3, p1] == 1.0

    def test_pd_is_deterministic_on_the_contrast_fixture(self, toy_pd):
        est = monte_carlo_oracle(toy_pd, "PD", ATTRS, samples=2_000, seed=5)
        expected = preferential_draws(toy_pd, ATTRS)
        np.testing.assert_allclose(est.c_mean, expected.c_bar, atol=1e-12)
        np.testing.assert_allclose(est.c_se, 0.0, atol=1e-12)

    def test_zero_probability_pairs_never_drawn(self, toy4):
        est = monte_carlo_oracle(toy4, "RD", samples=20_000, seed=1)
        rd = random_draws(toy4)
        for i in range(toy4.n):
            for j in range(toy4.n):
                if citation_probability(rd, i, j) == 0.0:
                    assert est.w_mean[i, j] == 0.0

    def test_seed_determinism(self, toy4):
        a = monte_carlo_oracle(toy4, "HD", ATTRS, samples=5_000, seed=3)
        b = monte_carlo_oracle(toy4, "HD", ATTRS, samples=5_000, seed=3)
        np.testing.assert_array_equal(a.w_mean, b.w_mean)
        np.testing.assert_array_equal(a.c_mean, b.c_mean)

    def test_desk_scale_guard(self):
        net = generate_network(SynthConfig(n_papers=201, seed=0))
        with pytest.raises(ValueError, match="at most"):
            monte_carlo_oracle(net, "RD", samples=10, seed=0)

    def test_bad_inputs_rejected(self, toy4):
        with pytest.raises(ValueError):
            monte_carlo_oracle(toy4, "RD", samples=0, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_oracle(toy4, "XX", samples=10, seed=0)


# ---------------------------------------------------------------------------
# the array draw loop against the per-paper one (``synth_oracle``)

DEGREES = ("fixed:0", "fixed:1", "fixed:3", "uniform:0,2", "uniform:1,5",
           "poisson:0.5", "poisson:3")
SIZES = (2, 3, 25, 120, 400, 1000)
#: (first date, days beyond n_papers): barely larger windows, a window
#: starting on Feb 29, year ends, and spans past the ten-year window
WINDOWS = ((date(2000, 1, 1), 0), (date(2004, 2, 29), 1), (date(1999, 12, 31), 3),
           (date(1996, 2, 28), 5000), (date(2003, 12, 31), 9000))
W_ONLY = {GenderCategory.MM: 0.0, GenderCategory.MW: 0.3,
          GenderCategory.WM: 0.0, GenderCategory.WW: 0.7}
SWEEP = range(48)


def sweep_config(c):
    """Config ``c`` of the sweep: the homophily subset cycles over all
    eight, the other knobs over their own periods."""
    r = random.Random(c)
    n = SIZES[c % len(SIZES)]
    start, extra = WINDOWS[c // 2 % len(WINDOWS)]
    cfg = SynthConfig(
        n_papers=n, seed=c, date_start=start,
        date_end=start + timedelta(days=n + extra - 1),
        out_degree=DEGREES[c % len(DEGREES)],
        # exp(0.1 + 0.2 + 0.3) and exp(0.3 + 0.2 + 0.1) differ by an ulp
        homophily={a: (0.1, 0.2, 0.3)[bit] if c >> bit & 1 else 0.0
                   for bit, a in enumerate(ATTRS)},
        pa_strength=(0.0, 1.0, 3.5)[c % 3],
        gender_bias=(1.0, 0.0, 0.8, 2.5)[c // 8 % 4],
        n_ranks=r.randint(1, 5), n_countries=r.randint(1, 12),
        n_topics=r.randint(1, 60), n_subfields=r.randint(1, 4),
    )
    if c % 5 == 4:
        cfg.category_weights = W_ONLY
    return cfg


#: a dense eleven-year window: 2008-02-29 cites back to 1998-02-28
FEB29_CONFIG = SynthConfig(n_papers=3650, seed=3, date_start=date(1998, 2, 27),
                           date_end=date(2008, 3, 5), pa_strength=1.0,
                           homophily={"rank": 0.0, "country": 0.0, "topic": 0.8},
                           gender_bias=0.8)


def outcome(generate, cfg):
    """The network's columns, edges and filter counts, or the error."""
    try:
        net = generate(cfg)
    except ValueError as exc:
        return type(exc), str(exc)
    codes = {name: (c.tolist(), labels.tolist()) for name, (c, labels) in net.codes.items()}
    return (net.ids.tolist(), net.dates.tolist(), codes, net.edges.tolist(),
            net.filter_counts)


@functools.lru_cache(maxsize=None)
def sweep_outcome(c):
    cfg = FEB29_CONFIG if c is None else sweep_config(c)
    return outcome(synth_oracle.generate_network, cfg), outcome(generate_network, cfg)


@pytest.mark.parametrize("c", [*SWEEP, None])
def test_generator_matches_per_paper_loop(c):
    expected, got = sweep_outcome(c)
    assert got == expected


@pytest.mark.parametrize("c", [22, 23, 29, 47])
def test_draw_probabilities_match_per_paper_loop_bit_for_bit(c, monkeypatch):
    # equal corpora miss a weight that moved by an ulp; equal p do not
    seen = {"loop": [], "slices": []}
    default_rng = np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def choice(self, a, size=None, replace=True, p=None):
            if p is not None and not replace:
                seen["loop"].append(p.tobytes())
            return self.rng.choice(a, size=size, replace=replace, p=p)

        def __getattr__(self, name):
            return getattr(self.rng, name)

    choice = synth._choice

    def recording_choice(rng, k, p):
        seen["slices"].append(p.tobytes())
        return choice(rng, k, p)

    monkeypatch.setattr(synth.np.random, "default_rng", Recording)
    monkeypatch.setattr(synth, "_choice", recording_choice)
    synth_oracle.generate_network(sweep_config(c))
    generate_network(sweep_config(c))
    assert len(seen["loop"]) > 100
    assert seen["slices"] == seen["loop"]


def test_sweep_reaches_every_case():
    results = [sweep_outcome(c)[1] for c in SWEEP]
    errors = {r[1].split(" has ")[-1] for r in results if r[0] is GenerationError}
    assert errors >= {"configuration generated no citations",
                      "out-degree minimum 3 exceeds the 1 papers ever available to cite",
                      "1 eligible predecessors but zero total citation weight"}
    assert (ValueError, "Fewer non-zero entries in p than size") in results
    nets = {c: r for c, r in zip(SWEEP, results) if not isinstance(r[0], type)}
    assert len(nets) >= 20
    assert {len(nets[c][0]) for c in nets} >= {2, 1000}
    assert {sweep_config(c).pa_strength for c in nets} == {0.0, 1.0, 3.5}
    assert {sweep_config(c).gender_bias for c in nets} == {0.0, 0.8, 1.0, 2.5}
    assert {sweep_config(c).out_degree for c in nets} == set(DEGREES) - {"fixed:0"}
    assert {tuple(h > 0 for h in sweep_config(c).homophily.values()) for c in nets} \
        == {tuple(c >> bit & 1 == 1 for bit in range(3)) for c in range(8)}
    # a drawn degree of 0 for a paper with predecessors, in a surviving corpus
    assert any(0 in np.bincount(np.array(nets[c][3])[:, 0], minlength=len(nets[c][0]))[1:]
               for c in nets)
    ids, dates, *_ = sweep_outcome(None)[1]
    assert date(2008, 2, 29) in dates and date(1998, 2, 28) in dates
    assert any(d.month == 12 and d.day == 31 for c in nets for d in nets[c][1])


def test_draw_loop_calls_no_choice_and_builds_no_paper(monkeypatch):
    calls = []
    default_rng = np.random.default_rng

    class Counting:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def __getattr__(self, name):
            if name == "choice":
                calls.append(name)
            return getattr(self.rng, name)

    built = []
    init = Paper.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    cfg = sweep_config(13)
    expected = outcome(generate_network, cfg)
    monkeypatch.setattr(synth.np.random, "default_rng", Counting)
    monkeypatch.setattr(Paper, "__init__", counting_init)
    assert outcome(generate_network, cfg) == expected
    # the dates and the gender categories; none in the draw loop
    assert calls == ["choice", "choice"]
    assert built == []


def test_dates_before_year_eleven_accepted(tmp_path, capsys):
    # the window floor of a year-5 paper lies in year -5, which a
    # ``date`` cannot hold and ``datetime64`` can
    cfg = SynthConfig(n_papers=300, seed=1, date_start=date(5, 1, 1),
                      date_end=date(25, 12, 31), out_degree="uniform:1,4")
    with pytest.raises(ValueError, match="year -5 is out of range"):
        synth_oracle.generate_network(cfg)
    net = generate_network(cfg)
    assert net.dates.min() < np.datetime64("0011-01-01")
    floors = net.window_floors
    for i, j in net.edges.tolist():
        assert floors[i] <= net.dates[j] < net.dates[i]
    config = tmp_path / "synth.cfg"
    config.write_text("n_papers=300\nseed=1\ndate_start=0005-01-01\n"
                      "date_end=0025-12-31\nout_degree=uniform:1,4\n")
    corpus, archive = tmp_path / "corpus", tmp_path / "archive"
    assert main(["synth", str(config), str(corpus)]) == 0
    assert main(["ingest", str(corpus / "papers.tsv"), str(corpus / "citations.tsv"),
                 str(archive)]) == 0
    for name in ("papers.tsv", "citations.tsv"):
        assert (archive / name).read_bytes() == (corpus / name).read_bytes()
    assert (corpus / "papers.tsv").read_text().splitlines()[1].split("\t")[1].startswith("0005-")


# ---------------------------------------------------------------------------
# the ``Generator.choice`` replica


def _choice_outcome(draw, seed, k, p):
    """The draw's indices and the generator's next uniform, or the error."""
    rng = np.random.default_rng(seed)
    try:
        return draw(rng, k, p).tolist(), rng.random()
    except ValueError as exc:
        return str(exc)


def numpy_choice(rng, k, p):
    return rng.choice(p.size, k, replace=False, p=p)


def random_case(r):
    m = r.integers(1, 40) if r.random() < 0.8 else r.integers(40, 1500)
    kind = r.integers(0, 5)
    w = r.random(m)
    if kind == 1:
        w[r.random(m) < 0.5] = 0.0
    elif kind == 2:
        w = np.exp(r.normal(0.0, 30.0, m))
    elif kind == 3:
        w = r.random(m) ** 40
    elif kind == 4:
        w = np.where(r.random(m) < 0.1, 1e12, 1.0)
    w[r.integers(0, m)] += 1.0
    k = m if r.random() < 0.1 else int(r.integers(1, m + 1))
    return k, w / w.sum()


def test_choice_matches_numpy():
    r = np.random.default_rng(2024)
    errors = 0
    for case in range(2500):
        k, p = random_case(r)
        expected = _choice_outcome(numpy_choice, case, k, p)
        assert _choice_outcome(_choice, case, k, p.copy()) == expected, case
        errors += isinstance(expected, str)
    assert 100 < errors < 2000


def test_choice_draws_no_zero_weight_index_at_a_uniform_of_zero():
    # a uniform on a step of the cumulative sum goes past the step, as in
    # Generator.choice, so a zero-weight index is never drawn
    class Zeros:
        def random(self, size):
            return np.zeros(size)

    assert _choice(Zeros(), 2, np.array([0.0, 0.5, 0.5])).tolist() == [1, 2]


@pytest.mark.parametrize("p, k", [
    ([0.5, np.nan, 0.5], 1),
    ([0.5, -0.1, 0.6], 1),
    ([0.5, 0.4], 1),
    ([0.5, 0.5 + 1e-7], 1),
    ([np.inf, 0.0, 1.0], 1),
    ([1.0, 0.0, np.inf], 1),
    ([0.0, 1.0], 2),
    ([-0.0, 1.0], 3),
    ([1.0], 1),
    ([0.3, 0.7, 1e-30], 3),
])
def test_choice_rejects_what_numpy_rejects(p, k):
    p = np.array(p)
    expected = _choice_outcome(numpy_choice, 0, k, p)
    assert _choice_outcome(_choice, 0, k, p) == expected


# ---------------------------------------------------------------------------
# non-finite knobs and weights


@pytest.mark.parametrize("knob, value", [
    ("pa_strength", np.inf), ("pa_strength", np.nan), ("gender_bias", np.inf),
    ("gender_bias", np.nan), ("homophily", np.nan), ("homophily", np.inf),
    ("category_weights", np.inf), ("category_weights", np.nan),
    ("category_weights", 1e308),
    ("out_degree", "poisson:inf"), ("out_degree", "poisson:nan"),
])
def test_non_finite_knobs_rejected(knob, value):
    cfg = SynthConfig(n_papers=50)
    if knob == "homophily":
        value = {"rank": 0.0, "country": 0.0, "topic": value}
    elif knob == "category_weights":
        # 1e308 is finite; the sum of two is not
        value = {g: (value if g in (MM, WW) else 0.1) for g in KNOWN_CATEGORIES}
    setattr(cfg, knob, value)
    with pytest.raises(GenerationError):
        cfg.validate()


@pytest.mark.parametrize("knobs", [
    {"pa_strength": 1e308},
    {"homophily": {"rank": 0.0, "country": 0.0, "topic": 1000.0}},
    {"homophily": {"rank": 0.0, "country": 0.0, "topic": 1000.0}, "gender_bias": 0.0},
])
def test_non_finite_total_weight_names_the_paper(knobs):
    cfg = SynthConfig(n_papers=300, seed=1, **knobs)
    with pytest.raises(GenerationError,
                       match=r"^paper \d+ has a non-finite total citation weight"):
        generate_network(cfg)


@pytest.mark.parametrize("line, message", [
    ("pa_strength=inf", "pa_strength and gender_bias must be finite"),
    ("homophily_topic=nan", "bad homophily entry topic=nan"),
    ("homophily_topic=1000", "paper 3 has a non-finite total citation weight"),
    ("pa_strength=1e308", "paper 3 has a non-finite total citation weight"),
])
def test_cli_reports_non_finite_weights_without_warning(tmp_path, line, message):
    config = tmp_path / "synth.cfg"
    config.write_text(f"n_papers=300\nseed=1\n{line}\n")
    src = str(Path(citegap.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "citegap", "synth", str(config), "corpus"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: {message}")
    assert result.stderr.count("\n") == 1
