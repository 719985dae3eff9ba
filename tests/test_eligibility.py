"""Differential sweep: the vectorized corpus filter, model eligibility and
the per-paper attribute columns against plain per-edge / per-paper loops
on tiny random corpora, and the rd/hd/pd group tables built from the
sorted eligibility index against the per-citer mask path it replaced:
pd bit for bit, the interval-coded rd/hd tables through
``explicit_tables.assert_matches_explicit``, once the explicit rd/hd
tables of ``explicit_tables`` are checked bit for bit against the mask
path; the lockstep pd against the per-citer walk of ``pd_oracle``, bit
for bit; and the 1-D category and stratum keys against the
``np.unique(axis=0)`` rows they replaced.

Each corpus has year-only dates (many ties), a Feb 29 citer whose window
floor falls on Feb 28, citations to later-dated papers, papers sharing
author pairs from a small name pool, self-loops and duplicate raw edges,
UNKNOWN genders and Unranked papers.
"""
import logging
import re
from collections import Counter
from datetime import date
from enum import Enum
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from citegap import (
    CitationNetwork,
    ConferenceRank,
    GenderCategory,
    ModelError,
    PaperFilter,
    compute_model,
    filter_citations,
    homophilic_draws,
    normalized_scores,
    observed_as_expectations,
    random_draws,
    stratified_imbalance,
)
from citegap.cli import _network_summary
from citegap.corpus import (
    RANK_ORDER,
    SELECTABLE_FIELDS,
    category_key,
    citation_window_floor,
    parse_pub_date,
)
from citegap import refmodels
from citegap.refmodels import _key_codes, date_order
from citegap.synth import _eligible_bruteforce, _hd_members_bruteforce
from conftest import make_paper
from explicit_tables import (
    assert_matches_explicit,
    category_codes,
    explicit_model,
    group_members,
    table_from_rows,
)
from pd_oracle import assert_same_pd, per_citer_preferential_draws
from row_parser import filter_rows

SEEDS = range(25)
ATTRS = ("rank", "country", "topic")
GENDERS = tuple(GenderCategory)
#: A sorts before A* but follows it in prestige; C never occurs, so a
#: selection of it is empty
RANKS = (ConferenceRank.A_STAR, ConferenceRank.A, ConferenceRank.B,
         ConferenceRank.UNRANKED)

#: full dates around the Feb 29 citer's ten-year floor (2002-02-28)
EDGE_DATES = (date(2002, 2, 27), date(2002, 2, 28), date(2002, 3, 1),
              date(2012, 2, 28), date(2012, 3, 1))


def random_corpus(seed):
    rng = np.random.default_rng(seed)
    # attributes come from their own stream, so dates, authors and edges
    # are the same as without them
    attrs = np.random.default_rng([seed, 1])
    n = int(rng.integers(6, 16))
    dates = [date(2012, 2, 29)] + [
        EDGE_DATES[rng.integers(len(EDGE_DATES))] if rng.random() < 0.3
        else parse_pub_date(str(rng.integers(1999, 2016)))
        for _ in range(n - 1)
    ]
    papers = [
        make_paper(f"X{k}", d, gender=GENDERS[attrs.integers(len(GENDERS))],
                   rank=RANKS[attrs.integers(len(RANKS))], country=f"C{attrs.integers(2)}",
                   topic=f"T{rng.integers(2)}", subfield=f"S{attrs.integers(3)}",
                   first=f"a{rng.integers(4)}", last=f"a{rng.integers(4)}")
        for k, d in enumerate(dates)
    ]
    ids = [p.id for p in papers]
    pairs = [(0, int(j)) for j in rng.choice(n, 4, replace=False)]
    pairs += [tuple(int(k) for k in rng.integers(0, n, 2))
              for _ in range(int(rng.integers(n, 3 * n)))]
    pairs += [pairs[int(k)] for k in rng.integers(0, len(pairs), 3)]
    return papers, [(ids[i], ids[j]) for i, j in pairs]


@pytest.mark.parametrize("seed", SEEDS)
def test_filter_matches_per_edge_oracle(seed):
    papers, raw = random_corpus(seed)
    net = filter_citations(papers, raw)
    kept, edges, counts = filter_rows(papers, raw)
    assert net.papers == tuple(kept)
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
    assert "window_floors" in vars(net)
    fresh = CitationNetwork.from_papers(net.papers, net.edges)
    np.testing.assert_array_equal(net.dates, fresh.dates)
    np.testing.assert_array_equal(net.window_floors, fresh.window_floors)
    # codes may differ; citable reads only which of them are equal
    seeded, built = (np.concatenate(codes) for codes in (net.author_codes,
                                                          fresh.author_codes))
    np.testing.assert_array_equal(np.equal.outer(seeded, seeded),
                                  np.equal.outer(built, built))


@pytest.mark.parametrize("seed", SEEDS)
def test_eligible_sets_match_bruteforce(seed):
    # a citer's RD group is its eligible set, and the HD group of each of
    # its citations that set's papers in the target's category, plus the
    # target; with no attributes that is the whole set plus the target,
    # which checks the rule where RD refuses a citer with an empty set
    net = filter_citations(*random_corpus(seed))
    citers = np.flatnonzero(net.out_degree).tolist()
    eligible = {i: _eligible_bruteforce(net, i) for i in citers}
    try:
        rd = random_draws(net)
    except ModelError as err:
        empty = next(i for i in citers if not eligible[i])
        assert str(err).startswith(f"paper {str(net.ids[empty])!r} makes ")
        rd = None
    hd = {attrs: homophilic_draws(net, attrs) for attrs in ((), ATTRS)}
    for i in citers:
        for t in net.out_targets[i].tolist():
            if rd is not None:
                assert group_members(rd, i, t).tolist() == eligible[i]
            for attrs, ec in hd.items():
                np.testing.assert_array_equal(
                    group_members(ec, i, t),
                    _hd_members_bruteforce(net, eligible[i], t, attrs))


def sweep_cases(net):
    """How often one network meets each eligibility edge case, counted
    with per-paper loops over dates and author names."""
    cases = Counter()
    papers = net.papers
    earliest = min(p.pub_date for p in papers)
    for i, citer in enumerate(papers):
        if not net.out_targets[i].size:
            continue
        floor = citation_window_floor(citer.pub_date)
        authors = (citer.first_author, citer.last_author)
        cases["floor_before_earliest"] += floor < earliest
        if (citer.pub_date.month, citer.pub_date.day) == (2, 29):
            cases["feb29_floor_paper"] += any(p.pub_date == floor for p in papers)
        cases["author_excluded"] += any(
            j != i and floor <= p.pub_date <= citer.pub_date
            and p.first_author in authors and p.last_author in authors
            for j, p in enumerate(papers))
        for t in net.out_targets[i].tolist():
            target = papers[t]
            cases["later_dated_target"] += target.pub_date > citer.pub_date
            key = category_key(target, ATTRS)
            cases["empty_slice"] += not any(
                floor <= p.pub_date <= citer.pub_date and category_key(p, ATTRS) == key
                for p in papers)
    return cases


def test_sweep_reaches_every_case():
    # the corpora exercise each rule and both sides of the Feb 29 floor
    totals = Counter()
    leap_cited = set()
    kept = set()
    cases = Counter()
    for seed in SEEDS:
        papers, raw = random_corpus(seed)
        net = filter_citations(papers, raw)
        totals.update(net.filter_counts)
        leap_cited |= {papers[int(v[1:])].pub_date for u, v in raw if u == "X0"}
        kept |= {p.gender for p in net.papers} | {p.rank for p in net.papers}
        cases.update(sweep_cases(net))
    assert len(totals) == 5 and all(totals.values()), totals
    assert {date(2002, 2, 27), date(2002, 2, 28)} <= leap_cited
    # the columns meet every gender category and an Unranked paper
    assert {*GenderCategory, ConferenceRank.UNRANKED} <= kept
    # the eligibility index meets each of its edge cases
    assert set(cases) == {"floor_before_earliest", "feb29_floor_paper", "author_excluded",
                          "later_dated_target", "empty_slice"}
    assert all(cases.values()), cases


# ---------------------------------------------------------------------------
# the group tables, against the per-citer O(N) mask path


def mask_eligible(net, i):
    """Boolean mask over the papers paper i could cite, later-dated ones
    excluded: one pass over all N papers."""
    return net.citable(i) & (net.dates <= net.dates[i])


def mask_bundles(targets, mask, codes, narrow=None):
    """One citer's (members, targets) bundles from N-wide category masks."""
    merged = {}
    for t in targets.tolist():
        base = np.flatnonzero(mask & (codes == codes[t]))
        members = base if narrow is None else narrow(base, t)
        if t not in members:
            members = np.sort(np.append(members, t))
        merged.setdefault(members.tobytes(), (members, []))[1].append(t)
    return list(merged.values())


def mask_model(net, model, attrs=(), *, exact=False, count_tol=1e-9):
    """RD/HD/PD group tables as the mask path built them."""
    citers = np.flatnonzero(net.out_degree)
    if model == "RD":
        rows = []
        for i in citers:
            members = np.flatnonzero(mask_eligible(net, i))
            if members.size == 0:
                raise ModelError(f"paper {str(net.ids[i])!r} makes "
                                 f"{net.out_targets[i].size} citation(s) "
                                 "but its eligible set is empty")
            rows.append((i, members, net.out_targets[i]))
        return table_from_rows("RD", (), net, rows)
    codes = category_codes(net, attrs)
    if model == "HD":
        rows = [(i, members, tlist) for i in citers
                for members, tlist in mask_bundles(net.out_targets[i],
                                                   mask_eligible(net, i), codes)]
        return table_from_rows("HD", attrs, net, rows)
    running = [Fraction(0)] * net.n if exact else np.zeros(net.n)

    def narrow(base, t):
        if exact:
            return np.asarray([m for m in base.tolist() if running[m] == running[t]],
                              dtype=np.int64)
        return base[np.abs(running[base] - running[t]) <= count_tol]

    rows = []
    for x in date_order(net).tolist():
        if not net.out_degree[x]:
            continue
        bundles = mask_bundles(net.out_targets[x], mask_eligible(net, x), codes, narrow)
        for members, tlist in bundles:
            for m in members.tolist():
                running[m] += Fraction(len(tlist), members.size) if exact \
                    else len(tlist) / members.size
            rows.append((x, members, tlist))
    rows.sort(key=lambda row: row[0])
    return table_from_rows("PD", attrs, net, rows, np.array([float(v) for v in running]))


def assert_same_table(ec, ref):
    for name in ("citing", "indptr", "indices", "target_ptr", "targets", "c_bar"):
        got, want = getattr(ec, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


SUBSETS = [attrs for size in range(len(ATTRS) + 1) for attrs in combinations(ATTRS, size)]


@pytest.mark.parametrize("block", [None, 3])
@pytest.mark.parametrize("seed", SEEDS)
def test_models_match_mask_path(seed, block, monkeypatch):
    # block=3 cuts the candidates into blocks of a few entries, so pairs
    # and citers straddle block edges
    if block is not None:
        monkeypatch.setattr(refmodels, "BLOCK_ENTRIES", block)
    net = filter_citations(*random_corpus(seed))
    try:
        ref = mask_model(net, "RD")
    except ModelError as err:
        for build in (compute_model, explicit_model):
            with pytest.raises(ModelError, match=f"^{re.escape(str(err))}$"):
                build(net, "RD")
    else:
        assert_same_table(explicit_model(net, "RD"), ref)
        assert_matches_explicit(net, compute_model(net, "RD"), ref)
    for attrs in SUBSETS:
        ref = mask_model(net, "HD", attrs)
        assert_same_table(explicit_model(net, "HD", attrs), ref)
        assert_matches_explicit(net, compute_model(net, "HD", attrs), ref)
        for exact in (False, True):
            assert_same_table(compute_model(net, "PD", attrs, exact=exact),
                              mask_model(net, "PD", attrs, exact=exact))


@pytest.mark.parametrize("seed", SEEDS)
def test_pd_lockstep_matches_per_citer_walk(seed):
    # a tolerance of 0.5 makes overlapping narrowed sets, and identical ones
    # from unequal target counts
    net = filter_citations(*random_corpus(seed))
    for attrs in SUBSETS:
        for exact, count_tol in ((False, 1e-9), (False, 0.5), (True, 1e-9)):
            assert_same_pd(
                refmodels.preferential_draws(net, attrs, count_tol=count_tol, exact=exact),
                per_citer_preferential_draws(net, attrs, count_tol=count_tol, exact=exact))


# ---------------------------------------------------------------------------
# the attribute columns every layer reads, against per-paper oracles


def token(paper, field):
    """A paper's value of one selectable field, as written in the tables."""
    value = getattr(paper, field)
    return value.value if isinstance(value, Enum) else value


def selection_oracle(net, criteria):
    return [all(token(p, f) == v for f, v in criteria) for p in net.papers]


@pytest.mark.parametrize("seed", SEEDS)
def test_filter_masks_match_per_paper_selection(seed):
    net = filter_citations(*random_corpus(seed))
    assert net.ids.tolist() == [p.id for p in net.papers]
    # every value present, every enum member, and a value no paper has
    clauses = [(f, v) for f in SELECTABLE_FIELDS
               for v in sorted({token(p, f) for p in net.papers}
                               | {m.value for m in {"gender": GenderCategory,
                                                    "rank": ConferenceRank}.get(f, ())}
                               | {"ZZ"})]
    rng = np.random.default_rng(seed)
    conjunctions = [[c] for c in clauses] + [
        [clauses[k] for k in rng.choice(len(clauses), size, replace=False)]
        for size in (2, 3) for _ in range(20)
    ]
    for criteria in conjunctions:
        f = PaperFilter.parse(",".join(f"{name}={value}" for name, value in criteria))
        assert f.mask(net).tolist() == selection_oracle(net, criteria), criteria
    assert PaperFilter.parse("all").mask(net).all()


@pytest.mark.parametrize("seed", SEEDS)
def test_key_codes_partition_like_category_keys(seed):
    net = filter_citations(*random_corpus(seed))
    for size in range(len(ATTRS) + 1):
        for attrs in combinations(ATTRS, size):
            codes = _key_codes(net, attrs)
            keys = [category_key(p, attrs) for p in net.papers]
            np.testing.assert_array_equal(np.equal.outer(codes, codes),
                                          [[a == b for b in keys] for a in keys])


def loop_normalized_scores(raw, net):
    """The per-paper (year, subfield) dict loop, with its zero-mean strata."""
    out = np.zeros(net.n)
    strata = {}
    for i, p in enumerate(net.papers):
        strata.setdefault((p.pub_date.year, p.subfield), []).append(i)
    zero = []
    for key, indices in strata.items():
        idx = np.asarray(indices)
        mean = raw[idx].mean()
        if mean == 0:
            zero.append(key)
            continue
        out[idx] = raw[idx] / mean
    return out, zero


def wide_network(n_papers=600):
    """Two years by two subfields, each stratum far above the 128 values
    under which numpy's pairwise sum runs sequentially."""
    papers = [make_paper(f"W{k}", date(2000 + k % 2, 1, 1), subfield=f"S{k // 2 % 2}")
              for k in range(n_papers)]
    return filter_citations(papers, [(p.id, q.id) for p, q in zip(papers[2:], papers)])


@pytest.mark.parametrize("seed", [*SEEDS, "wide"])
def test_normalized_scores_match_dict_loop(seed, caplog):
    net = wide_network() if seed == "wide" else filter_citations(*random_corpus(seed))
    rng = np.random.default_rng(7 if seed == "wide" else seed)
    # some papers score 0, so small strata may have a zero mean
    raw = rng.random(net.n) * (rng.random(net.n) < 0.6)
    expected, zero = loop_normalized_scores(raw, net)
    with caplog.at_level(logging.WARNING, logger="citegap.ranking"):
        np.testing.assert_array_equal(normalized_scores(raw, net), expected)
    assert [r.getMessage() for r in caplog.records] == [
        f"stratum ({year}, {subfield}) has zero mean score; normalized scores set to 0"
        for year, subfield in zero
    ]


def row_unique_normalized_scores(raw, net):
    """``normalized_scores`` with its strata from ``np.unique(axis=0)`` over
    the stacked (year, subfield) rows, the form the 1-D keys replaced:
    the scores, and the (year, label) of each zero-mean stratum in the
    order it warns of them."""
    out = np.zeros(net.n)
    years = net.dates.astype("datetime64[Y]").astype(np.int64) + 1970
    subfields, labels = net.attribute_codes("subfield")
    strata, first, inverse, counts = np.unique(
        np.stack((years, subfields), axis=1), axis=0, return_index=True,
        return_inverse=True, return_counts=True)
    members = np.split(np.argsort(inverse.reshape(-1), kind="stable"), np.cumsum(counts)[:-1])
    zero = []
    for s in np.argsort(first):
        mean = raw[members[s]].mean()
        if mean == 0:
            zero.append((strata[s][0], labels[strata[s][1]]))
            continue
        out[members[s]] = raw[members[s]] / mean
    return out, zero


@pytest.mark.parametrize("seed", [*SEEDS, "wide"])
def test_normalized_scores_match_row_unique(seed, caplog):
    net = wide_network() if seed == "wide" else filter_citations(*random_corpus(seed))
    rng = np.random.default_rng(7 if seed == "wide" else seed)
    raw = rng.random(net.n) * (rng.random(net.n) < 0.6)
    expected, zero = row_unique_normalized_scores(raw, net)
    with caplog.at_level(logging.WARNING, logger="citegap.ranking"):
        assert normalized_scores(raw, net).tobytes() == expected.tobytes()
    assert [r.getMessage() for r in caplog.records] == [
        f"stratum ({year}, {subfield}) has zero mean score; normalized scores set to 0"
        for year, subfield in zero
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_key_codes_match_row_unique(seed):
    # one mixed-radix key per paper numbers the categories as the unique
    # rows of the stacked value codes did
    net = filter_citations(*random_corpus(seed))
    for attrs in SUBSETS:
        rows = np.stack([net.attribute_codes(a)[0] for a in attrs]
                        or [np.zeros(net.n, dtype=np.int64)], axis=1)
        expected = np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)
        codes = _key_codes(net, attrs)
        assert codes.dtype == expected.dtype and codes.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_strata_match_per_paper_values(seed):
    net = filter_citations(*random_corpus(seed))
    ec = observed_as_expectations(net)
    for field, labels in [
        ("rank", [r.value for r in RANK_ORDER if r in {p.rank for p in net.papers}]),
        ("subfield", sorted({p.subfield for p in net.papers})),
    ]:
        assert list(net.attribute_codes(field)[1]) == labels
        reports = stratified_imbalance(net, ec, field, resamples=0)
        assert [r.stratum for r in reports[::4]] == labels
        for r in reports:
            assert r.to_filter == f"{field}={r.stratum}"
            assert r.n_obs == sum(token(net.papers[j], field) == r.stratum
                                  and net.papers[j].gender is r.gender
                                  for _, j in net.edges)


@pytest.mark.parametrize("seed", SEEDS)
def test_network_summary_matches_per_paper_counts(seed):
    net = filter_citations(*random_corpus(seed))
    genders = Counter(p.gender for p in net.papers)
    ranks = Counter(p.rank for p in net.papers)
    summary = _network_summary(net)
    assert summary == {
        "papers": net.n,
        "citations": net.m,
        "by_gender": {g.value: genders[g] for g in GenderCategory},
        "by_rank": {r.value: ranks[r] for r in ConferenceRank},
    }
    # ingest prints the gender counts in this order
    assert list(summary["by_gender"]) == [g.value for g in GenderCategory]


@pytest.mark.parametrize("seed", SEEDS)
def test_date_order_matches_sorted(seed):
    net = filter_citations(*random_corpus(seed))
    assert date_order(net).tolist() == sorted(
        range(net.n), key=lambda i: (net.papers[i].pub_date, net.papers[i].id))
