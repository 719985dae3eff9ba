"""The exact ``ExpectedCitations.spread`` of interval-coded tables, a
difference array over the positions of the eligibility index, against
the runs-based sum it replaced (``spread_oracle``), bit for bit in values
and sign bits: on the sweep corpora of ``test_eligibility`` and the
benchmark-sized corpora of ``test_interval_tables`` under RD and HD, and
on hand-built tables at a difference array's seams."""
import numpy as np
import pytest

from citegap import ModelError, compute_model, filter_citations
from citegap.corpus import ATTRIBUTE_ORDER
from citegap.refmodels import group_table
from spread_oracle import assert_matches_oracle
from test_eligibility import SEEDS, random_corpus
from test_interval_tables import pd_ties, rd_dense

MODELS = [("RD", ()), ("HD", ()), ("HD", ("rank",)), ("HD", ATTRIBUTE_ORDER)]


def masses(groups, seed):
    """Per-group ``y`` of each kind: ones, uniform, spread over 20
    decades, normal (some negative) and half exact zeros."""
    rng = np.random.default_rng(seed)
    half = rng.normal(size=groups)
    half[rng.random(groups) < 0.5] = 0.0
    return {"ones": np.ones(groups), "uniform": rng.random(groups),
            "decades": 10.0 ** rng.uniform(-20, 0, groups),
            "normal": rng.normal(size=groups), "half-zeros": half}


def assert_models_match(net, seed):
    checked = 0
    for model, attrs in MODELS:
        try:
            ec = compute_model(net, model, attrs)
        except ModelError:
            continue
        assert ec.intervals
        for y in masses(len(ec.citing), seed).values():
            assert_matches_oracle(ec, y)
        checked += 1
    assert checked >= len(MODELS) - 1


@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_corpora_match_runs(seed):
    assert_models_match(filter_citations(*random_corpus(seed)), seed)


@pytest.mark.parametrize("name, seed", [("pd-ties", 1), ("pd-ties", 7), ("rd-dense", 1)])
def test_benchmark_corpora_match_runs(name, seed, tmp_path):
    net = rd_dense(seed) if name == "rd-dense" else pd_ties(seed, tmp_path)
    assert_models_match(net, seed)


def hand_table(n, groups, seed):
    """A table over a shuffled index of ``n`` papers from ``(lo, hi,
    excluded positions, explicit positions)`` per group, one target each."""
    order = np.random.default_rng(seed).permutation(n)
    lo, hi, excluded, explicit = zip(*groups)
    members = [np.sort(order[list(p)]) for p in explicit]
    count = len(groups)

    def csr(parts):
        return (np.cumsum([0, *map(len, parts)]),
                np.concatenate([np.asarray(p, np.int64) for p in parts]))

    return group_table("HD", (), order, np.arange(count), np.array(lo), np.array(hi),
                       *csr(excluded), *csr(members), np.arange(count + 1),
                       np.zeros(count, np.int64))


SEAMS = {
    "whole index": (6, [(0, 6, [], []), (0, 6, [0, 5], []), (2, 6, [], [0, 1])]),
    "shared lo": (7, [(1, hi, [], []) for hi in (2, 3, 3, 5, 7, 7)] + [(1, 4, [1], [0])]),
    "adjacent exclusions": (8, [(0, 7, [2, 3, 4], []), (1, 5, [1, 4], [7]),
                                (3, 8, [6, 7], [])]),
    "interval wholly excluded": (6, [(2, 4, [2, 3], [1, 4]), (0, 6, [], []),
                                     (1, 5, [1, 2, 3, 4], [0])]),
    "empty intervals": (5, [(0, 0, [], [0]), (2, 2, [], [1, 2, 3]), (5, 5, [], [4]),
                            (1, 4, [], [])]),
}


@pytest.mark.parametrize("case", list(SEAMS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seams_match_runs(case, seed):
    n, groups = SEAMS[case]
    ec = hand_table(n, groups, seed)
    for y in masses(len(groups), seed).values():
        assert_matches_oracle(ec, y)
