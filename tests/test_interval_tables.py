"""Interval-coded rd/hd tables on corpora the size of the benchmark's:
the rd-dense synth corpus (N=5,000 over 40 years of daily dates) and the
pd-ties rawgen corpus (N=5,000 over 30 years, year-only dates), at seeds
1 and 7, against the explicit tables of ``explicit_tables``; the PD
tables of the pd-ties corpora against the mask path bit for bit; and the
memory a model and its reductions take, which grows with N + M and not
with the member lists' N^2 entries."""
import sys
import tracemalloc
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from citegap import SynthConfig, compute_model, generate_network, load_network
from citegap.corpus import ATTRIBUTE_ORDER, GenderCategory
from explicit_tables import assert_matches_explicit, explicit_model
from test_eligibility import assert_same_table, mask_model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def rd_dense(seed):
    return generate_network(SynthConfig(
        n_papers=5000, seed=seed, date_start=date(1980, 1, 1),
        date_end=date(2019, 12, 31), out_degree="uniform:1,5", n_topics=50,
        pa_strength=1.0, homophily={"topic": 0.8}, gender_bias=0.8))


def pd_ties(seed, directory):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import rawgen
    finally:
        sys.path.remove(str(PERFBENCH))
    rawgen.generate(5000, 30, seed).write(directory / "papers.tsv",
                                          directory / "citations.tsv")
    return load_network(directory / "papers.tsv", directory / "citations.tsv")


@pytest.fixture(scope="module", params=[("rd-dense", 1), ("rd-dense", 7),
                                        ("pd-ties", 1), ("pd-ties", 7)],
                ids=lambda p: f"{p[0]}-{p[1]}")
def corpus(request, tmp_path_factory):
    name, seed = request.param
    if name == "rd-dense":
        return rd_dense(seed)
    return pd_ties(seed, tmp_path_factory.mktemp(f"{name}-{seed}"))


@pytest.mark.parametrize("model, attrs", [("RD", ()), ("HD", ("rank",))],
                         ids=["rd", "hd-rank"])
def test_interval_tables_match_explicit(corpus, model, attrs):
    # the largest tables; HD over every attribute subset is swept on tiny
    # corpora in test_eligibility
    ec = compute_model(corpus, model, attrs)
    assert_matches_explicit(corpus, ec, explicit_model(corpus, model, attrs), pairs=50)


@pytest.mark.parametrize("corpus, attrs, exact", [
    (("pd-ties", 1), ATTRIBUTE_ORDER, False),
    (("pd-ties", 1), ATTRIBUTE_ORDER, True),
    (("pd-ties", 1), ("rank",), False),
    (("pd-ties", 7), ATTRIBUTE_ORDER, False),
    (("pd-ties", 7), ("rank",), False),
], indirect=["corpus"], ids=["pd-ties-1", "pd-ties-1-exact", "pd-ties-1-rank", "pd-ties-7",
                             "pd-ties-7-rank"])
def test_pd_matches_mask_path(corpus, attrs, exact):
    assert_same_table(compute_model(corpus, "PD", attrs, exact=exact),
                      mask_model(corpus, "PD", attrs, exact=exact))


def traced_peak(fn):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("model, attrs", [("RD", ()), ("HD", ("rank",))])
def test_model_memory_is_linear(model, attrs):
    # on the rd-dense corpus RD's member lists hold 5.4 M entries (22 MB as
    # int32), HD-rank's 3.0 M; building the table, its c_bar and PageRank
    # spread and its gender counts peak at a few hundred bytes per paper
    # and citation
    net = rd_dense(1)
    for prop in ("out_targets", "dates", "window_floors", "author_codes", "gender_codes"):
        getattr(net, prop)
    net.attribute_codes("rank")
    size = net.n + net.m
    ec, peak = traced_peak(lambda: compute_model(net, model, attrs))
    assert ec.member_entries * 4 > 2 * 256 * size
    assert peak <= 256 * size
    _, peak = traced_peak(lambda: (ec.spread(np.ones(len(ec.citing))),
                                   list(ec.category_sums(net.gender_codes,
                                                         len(GenderCategory)))))
    assert peak <= 256 * size
