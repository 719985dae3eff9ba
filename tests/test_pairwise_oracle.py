"""The structural report's pairwise matrices against ``loop_pairwise``,
a loop over the groups, bit for bit.

The loop walks ``ec.groups`` in table order and adds, for each group,
its weight times the number of its members in category c into cell
(the citer's category, c).  ``structural_report`` weights each group's
integer member counts the same way, once per group and category, and
adds them into each cell in group order, so every cell is the same
float.  Summing the weight once per member instead, ``w + ... + w``,
differs from ``w * n`` in the last bits: the hand-built group and the pd
``topic`` table of the 5k pd-ties corpus below read such sums.
"""
from datetime import date

import numpy as np
import pytest

from citegap import ModelError, compute_model, filter_citations, structural_report
from citegap.corpus import ATTRIBUTE_ORDER
from conftest import index_of, make_paper
from explicit_tables import table_from_rows
from test_eligibility import SEEDS, SUBSETS, random_corpus
from test_interval_tables import pd_ties
from test_refmodels import assert_reductions_match_scipy, loop_pairwise


def assert_pairwise_match_loop(net, ec):
    report = structural_report(net, ec)
    assert set(report.pairwise) == set(ATTRIBUTE_ORDER)
    for attribute, pairs in report.pairwise.items():
        want = loop_pairwise(net, ec, attribute)
        assert pairs.expected.tobytes() == want.tobytes(), attribute


@pytest.mark.parametrize("seed", SEEDS)
def test_pairwise_matches_group_loop_on_sweep_corpora(seed):
    net = filter_citations(*random_corpus(seed))
    try:
        assert_pairwise_match_loop(net, compute_model(net, "RD"))
    except ModelError:
        pass
    for attrs in SUBSETS:
        assert_pairwise_match_loop(net, compute_model(net, "HD", attrs))
        for exact in (False, True):
            assert_pairwise_match_loop(net, compute_model(net, "PD", attrs, exact=exact))


def test_weight_times_count_is_not_a_repeated_sum():
    # Q cites P0 with the ten papers P0..P9 as members, weight 0.1: ten
    # additions of 0.1 make 0.9999999999999999.  Q alone is from DE, so
    # its group alone fills the country cell (DE, US); each Pk cites P(k-1)
    # with that paper as its only member
    papers = [make_paper("Q", date(2010, 1, 1), country="DE")]
    papers += [make_paper(f"P{k}", date(2000 + k, 1, 1)) for k in range(10)]
    net = filter_citations(papers, [("Q", "P0")] + [(f"P{k}", f"P{k - 1}")
                                                    for k in range(1, 10)])
    row = index_of(net)
    p = [row[f"P{k}"] for k in range(10)]
    rows = [(row["Q"], np.sort(p), [p[0]])] + [(p[k], np.array([p[k - 1]]), [p[k - 1]])
                                               for k in range(1, 10)]
    ec = table_from_rows("PD", (), net, sorted(rows, key=lambda r: r[0]))
    assert sum([ec.weight[np.searchsorted(ec.citing, row["Q"])]] * 10) != 1.0
    assert_pairwise_match_loop(net, ec)
    assert_reductions_match_scipy(net, ec)
    country = structural_report(net, ec).pairwise["country"]
    de, us = (country.labels.index(label) for label in ("DE", "US"))
    assert country.expected[de, us] == country.observed[de, us] == 1.0


def test_pd_topic_table_of_pd_ties_matches_group_loop(tmp_path):
    net = pd_ties(1, tmp_path)
    ec = compute_model(net, "PD", ("topic",))
    assert_pairwise_match_loop(net, ec)
    # drawn within the target's topic, every topic cell is its observed
    # count up to rounding
    topic = structural_report(net, ec).pairwise["topic"]
    np.testing.assert_allclose(topic.expected, topic.observed, rtol=1e-12, atol=0)
