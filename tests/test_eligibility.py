"""Differential sweep: the vectorized corpus filter and model eligibility
against plain per-edge / per-paper loops on tiny random corpora.

Each corpus has year-only dates (many ties), a Feb 29 citer whose window
floor falls on Feb 28, citations to later-dated papers, papers sharing
author pairs from a small name pool, self-loops and duplicate raw edges.
"""
from collections import Counter
from datetime import date

import numpy as np
import pytest

from citegap import CitationNetwork, eligible_set_hd, eligible_set_rd, filter_citations
from citegap.corpus import citation_window_floor, parse_pub_date
from citegap.synth import _eligible_bruteforce, _hd_members_bruteforce
from conftest import make_paper

SEEDS = range(25)
ATTRS = ("rank", "country", "topic")

#: full dates around the Feb 29 citer's ten-year floor (2002-02-28)
EDGE_DATES = (date(2002, 2, 27), date(2002, 2, 28), date(2002, 3, 1),
              date(2012, 2, 28), date(2012, 3, 1))


def random_corpus(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 16))
    dates = [date(2012, 2, 29)] + [
        EDGE_DATES[rng.integers(len(EDGE_DATES))] if rng.random() < 0.3
        else parse_pub_date(str(rng.integers(1999, 2016)))
        for _ in range(n - 1)
    ]
    papers = [
        make_paper(f"X{k}", d, topic=f"T{rng.integers(2)}",
                   first=f"a{rng.integers(4)}", last=f"a{rng.integers(4)}")
        for k, d in enumerate(dates)
    ]
    ids = [p.id for p in papers]
    pairs = [(0, int(j)) for j in rng.choice(n, 4, replace=False)]
    pairs += [tuple(int(k) for k in rng.integers(0, n, 2))
              for _ in range(int(rng.integers(n, 3 * n)))]
    pairs += [pairs[int(k)] for k in rng.integers(0, len(pairs), 3)]
    return papers, [(ids[i], ids[j]) for i, j in pairs]


def allowed(citing, cited):
    """The per-edge filter predicate, written out."""
    if cited.pub_date < citation_window_floor(citing.pub_date):
        return False
    authors = (citing.first_author, citing.last_author)
    return not (cited.first_author in authors and cited.last_author in authors)


def filter_oracle(papers, raw_edges):
    """Surviving paper ids, edges as id pairs in index order, drop counts."""
    index = {p.id: k for k, p in enumerate(papers)}
    resolved = dict.fromkeys((index[u], index[v]) for u, v in raw_edges)
    in_window = [(i, j) for i, j in resolved
                 if papers[j].pub_date >= citation_window_floor(papers[i].pub_date)]
    kept = [(i, j) for i, j in resolved if allowed(papers[i], papers[j])]
    ends = {k for edge in kept for k in edge}
    survivors = [k for k in range(len(papers)) if k in ends]
    remap = {old: new for new, old in enumerate(survivors)}
    counts = {
        "duplicates": len(raw_edges) - len(resolved),
        "out_of_window": len(resolved) - len(in_window),
        "self_citations": len(in_window) - len(kept),
        "isolated_papers": len(papers) - len(survivors),
        "later_dated_kept": sum(papers[j].pub_date > papers[i].pub_date
                                for i, j in kept),
    }
    edges = sorted((remap[i], remap[j]) for i, j in kept)
    return [papers[k].id for k in survivors], edges, counts


@pytest.mark.parametrize("seed", SEEDS)
def test_filter_matches_per_edge_oracle(seed):
    papers, raw = random_corpus(seed)
    net = filter_citations(papers, raw)
    ids, edges, counts = filter_oracle(papers, raw)
    assert [p.id for p in net.papers] == ids
    assert net.edges.tolist() == [list(e) for e in edges]
    assert net.filter_counts == counts
    buckets = [[] for _ in range(net.n)]
    for i, j in edges:
        buckets[i].append(j)
    assert [t.tolist() for t in net.out_targets] == buckets


@pytest.mark.parametrize("seed", SEEDS)
def test_rule_arrays_match_a_fresh_network(seed):
    # the filter hands its survivors the arrays it evaluated the rules on
    net = filter_citations(*random_corpus(seed))
    assert {"dates", "window_floors", "author_codes"} <= vars(net).keys()
    fresh = CitationNetwork(net.papers, net.edges)
    np.testing.assert_array_equal(net.dates, fresh.dates)
    np.testing.assert_array_equal(net.window_floors, fresh.window_floors)
    # codes may differ; citable reads only which of them are equal
    seeded, built = (np.concatenate(codes) for codes in (net.author_codes,
                                                          fresh.author_codes))
    np.testing.assert_array_equal(np.equal.outer(seeded, seeded),
                                  np.equal.outer(built, built))


@pytest.mark.parametrize("seed", SEEDS)
def test_eligible_sets_match_bruteforce(seed):
    net = filter_citations(*random_corpus(seed))
    for i in range(net.n):
        eligible = _eligible_bruteforce(net, i)
        assert eligible_set_rd(net, i).tolist() == eligible
        for t in net.out_targets[i].tolist():
            np.testing.assert_array_equal(
                eligible_set_hd(net, i, t, ATTRS),
                _hd_members_bruteforce(net, eligible, t, ATTRS))


def test_sweep_reaches_every_case():
    # the corpora exercise each rule and both sides of the Feb 29 floor
    totals = Counter()
    leap_cited = set()
    for seed in SEEDS:
        papers, raw = random_corpus(seed)
        totals.update(filter_citations(papers, raw).filter_counts)
        leap_cited |= {papers[int(v[1:])].pub_date for u, v in raw if u == "X0"}
    assert len(totals) == 5 and all(totals.values()), totals
    assert {date(2002, 2, 27), date(2002, 2, 28)} <= leap_cited
