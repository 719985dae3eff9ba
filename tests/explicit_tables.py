"""The explicit group tables, the oracle of the interval-coded rd/hd ones,
and the packer of every oracle's rows.

RD and HD once stored every member of every group: each (citer,
category) base, the papers of that category the citer may cite and that
are not dated after it, as a sorted member list; an HD target dated
after its citer added to its citation's base; and a citer's citations
with identical member sets merged into one group.
:func:`explicit_random_draws` and :func:`explicit_homophilic_draws` build
those tables here, from the papers sorted by (category, date) and
:meth:`CitationNetwork.citable`, without the package's eligibility index;
:func:`table_from_rows` packs any oracle's rows as the package packed
them; :func:`assert_matches_explicit` checks any table against one.
"""
import numpy as np

from citegap.corpus import ATTRIBUTE_ORDER, GenderCategory, canonical_attributes
from citegap.refmodels import ModelError, citation_probability, eligibility_index, group_table

#: relative tolerance of every float reduction against the oracle's
RTOL = 1e-12


def category_codes(net, attributes):
    """Per paper, its category code under ``attributes``: two papers share
    a code exactly when they agree on every attribute."""
    order, codes = eligibility_index(net, attributes)
    out = np.empty(net.n, dtype=np.int64)
    out[order] = codes
    return out


def table_from_rows(model, attributes, net, rows, c_bar=None):
    """Pack explicit rows (citer, sorted member ids, observed targets),
    ordered by citer, into the arrays of ``group_table``, concatenating the
    members straight into their stored dtype: int32 when every value
    fits, else int64.  No group has an interval part."""
    sizes = np.array([row[1].size for row in rows], dtype=np.int64)
    n_targets = np.array([len(row[2]) for row in rows], dtype=np.int64)
    fits = max(len(rows), net.n, int(sizes.sum())) <= np.iinfo(np.int32).max
    index_dtype = np.int32 if fits else np.int64
    none = np.zeros(len(rows), dtype=index_dtype)
    return group_table(
        model, attributes, eligibility_index(net, attributes)[0],
        np.array([row[0] for row in rows], dtype=np.int64), none, none,
        np.zeros(len(rows) + 1, dtype=index_dtype), np.zeros(0, dtype=index_dtype),
        np.concatenate(([0], np.cumsum(sizes)), dtype=index_dtype),
        np.concatenate([np.zeros(0, index_dtype)] + [row[1] for row in rows],
                       dtype=index_dtype),
        np.concatenate(([0], np.cumsum(n_targets))),
        np.fromiter((t for row in rows for t in row[2]), np.int64, n_targets.sum()), c_bar,
    )


class Bases:
    """Per (citer, category), the ascending papers of that category the
    citer may cite and that are not dated after it: the category's papers
    from the citer's window floor to its date, found by binary search in
    the papers sorted by (category, date), filtered by ``citable``."""

    def __init__(self, net, codes):
        self.net, self.order = net, np.lexsort((net.dates, codes))
        self.codes, self.dates = codes[self.order], net.dates[self.order]

    def __call__(self, i, category):
        a, b = np.searchsorted(self.codes, [category, category + 1])
        lo = a + np.searchsorted(self.dates[a:b], self.net.window_floors[i])
        hi = a + np.searchsorted(self.dates[a:b], self.net.dates[i], side="right")
        candidates = self.order[lo:hi]
        return np.sort(candidates[self.net.citable(i, candidates)])


def bundles(targets, members):
    """One citer's citations as (members, targets) bundles: citations
    with identical member sets merge into one bundle."""
    merged = {}
    for t, m in zip(targets.tolist(), members):
        merged.setdefault(m.tobytes(), (m, []))[1].append(t)
    return list(merged.values())


def explicit_random_draws(net):
    bases = Bases(net, np.zeros(net.n, dtype=np.int64))
    rows = []
    for i in np.flatnonzero(net.out_degree).tolist():
        members = bases(i, 0)
        targets = net.out_targets[i]
        if members.size == 0:
            raise ModelError(
                f"paper {str(net.ids[i])!r} makes {targets.size} citation(s) "
                "but its eligible set is empty"
            )
        rows.append((i, members, targets))
    return table_from_rows("RD", (), net, rows)


def explicit_homophilic_draws(net, attributes=ATTRIBUTE_ORDER):
    attrs = canonical_attributes(attributes)
    codes = category_codes(net, attrs)
    bases = Bases(net, codes)
    rows = []
    for i in np.flatnonzero(net.out_degree).tolist():
        targets = net.out_targets[i]
        base = {c: bases(i, c) for c in set(codes[targets].tolist())}
        members = [np.union1d(base[codes[t]], [t]) if net.dates[t] > net.dates[i]
                   else base[codes[t]] for t in targets.tolist()]
        rows.extend((i, m, tlist) for m, tlist in bundles(targets, members))
    return table_from_rows("HD", attrs, net, rows)


def explicit_model(net, model, attributes=ATTRIBUTE_ORDER):
    if model == "RD":
        return explicit_random_draws(net)
    return explicit_homophilic_draws(net, attributes)


def assert_close(got, want, what=""):
    """Elementwise within RTOL of ``want``, so exactly 0 where it is 0."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    bad = np.abs(got - want) > RTOL * np.abs(want)
    assert not bad.any(), (what, got[bad][:5], want[bad][:5])


def category_table(ec, codes, size, weighted=False):
    return np.concatenate([np.zeros((0, size), np.float64 if weighted else np.int64)]
                          + [s for _, _, s in ec.category_sums(codes, size,
                                                               weighted=weighted)])


def assert_matches_explicit(net, ec, ref, pairs=200):
    """``ec`` holds the groups of the explicit table ``ref``: the same rows,
    members, targets, sizes and integer category counts, and spreads,
    weighted category sums and c_bar within RTOL (exactly 0 where the
    oracle's are, never negative); ``pairs`` sampled (citer, paper) pairs
    get the same citation probability."""
    assert ref.intervals == 0 and ref.excluded.size == 0
    for name in ("citing", "target_ptr", "targets", "sizes", "weight"):
        np.testing.assert_array_equal(getattr(ec, name), getattr(ref, name), name)
    assert ec.member_entries == ref.indices.size
    # sizes are equal, so equal concatenations mean equal member lists
    groups = range(len(ref.citing))
    assert np.array_equal(np.concatenate([ec.members(g) for g in groups] or [[]]),
                          np.concatenate([ref.members(g) for g in groups] or [[]]))
    codes = [(net.gender_codes, len(GenderCategory))]
    codes += [(c, len(labels)) for c, labels in
              (net.attribute_codes(a) for a in ("rank", "country", "topic"))]
    for c, size in codes:
        np.testing.assert_array_equal(category_table(ec, c, size),
                                      category_table(ref, c, size))
        assert_close(category_table(ec, c, size, True), category_table(ref, c, size, True),
                     "weighted category sums")
    assert_close(ec.c_bar, ref.c_bar, "c_bar")
    assert (ec.c_bar >= 0).all()
    rng = np.random.default_rng(len(ec.citing))
    # papers held by the same groups: equal (count, sum of random group
    # keys) per paper, sorted next to each other
    keys = rng.integers(0, 1 << 62, len(ref.citing))
    signature = np.zeros(net.n, dtype=np.int64)
    np.add.at(signature, ref.indices, np.repeat(keys, ref.sizes))
    count = np.bincount(ref.indices, minlength=net.n)
    by_signature = np.lexsort((count, signature))
    alike = ((signature[by_signature][1:] == signature[by_signature][:-1])
             & (count[by_signature][1:] == count[by_signature][:-1]))
    # masses over twenty orders of magnitude, as PageRank scores may span
    for y in (np.ones(len(ec.citing)), rng.random(len(ec.citing)),
              10.0 ** rng.uniform(-20, 0, len(ec.citing))):
        got = ec.spread(y)
        assert_close(got, ref.spread(y), "spread")
        # an exact sum depends on the groups, not on where the paper sits
        ordered = got[by_signature]
        assert (ordered[1:] == ordered[:-1])[alike].all()
    if len(ec.citing):
        for g in rng.integers(0, len(ec.citing), pairs):
            i = int(ec.citing[g])
            for j in (int(rng.integers(0, net.n)), int(rng.choice(ref.members(g)))):
                assert citation_probability(ec, i, j) == citation_probability(ref, i, j)
