"""The per-resample bootstrap, the oracle of the blocked one.

``bootstrap_ci`` once drew each resample's multiplicities and, for every
selection, took two products with them: the per-citer observed counts
(built with ``np.add.at``) and the member fractions of the counted groups
times the drawn citers' citation counts.  :func:`per_resample_bootstrap`
is that loop, over the groups :func:`counted_groups` finds one by one;
:func:`assert_matches_oracle` checks a blocked result against it.
"""
import numpy as np

from citegap.corpus import KNOWN_CATEGORIES, GenderCategory
from citegap.imbalance import _UNKNOWN, ALL_PAPERS

#: largest error of a CI bound against the oracle: relative, or absolute
#: when the bound's magnitude is below 1
TOL = 1e-12


def counted_groups(net, ec, from_mask, to_mask):
    """The groups with a citer in the from-set and citations to
    known-gender papers in the to-set, found by a loop over the table's
    groups: their citers, those citation counts, and their member counts
    per gender category."""
    counted = (to_mask & (net.gender_codes != _UNKNOWN)).tolist()
    size = len(GenderCategory)
    rows = [(g.citing, m_to, np.bincount(net.gender_codes[g.members], minlength=size))
            for g in ec.groups
            if from_mask[g.citing] and (m_to := sum(counted[t] for t in g.targets))]
    citing, m_to, counts = zip(*rows) if rows else ((), (), ())
    return np.array(citing, np.int64), np.array(m_to, np.int64), np.reshape(counts, (-1, size))


def per_resample_bootstrap(net, ec, from_filter=ALL_PAPERS, to_filters=(ALL_PAPERS,),
                           resamples=500, seed=0):
    """Per to-selection, ``(cis, defined)``: the 95% percentile CI (or
    None) and the number of defined resamples per known category, from
    one float product per resample and selection."""
    fm = from_filter.mask(net)
    known = net.gender_codes != _UNKNOWN
    citers, cited = net.edges[:, 0], net.edges[:, 1]
    k = len(KNOWN_CATEGORIES)

    selections = []
    for to_filter in to_filters:
        tm = to_filter.mask(net)
        keep = fm[citers] & tm[cited] & known[cited]
        obs = np.zeros((k, net.n))
        np.add.at(obs, (net.gender_codes[cited[keep]], citers[keep]), 1.0)
        citing, m_to, counts = counted_groups(net, ec, fm, tm)
        selections.append((obs, citing, m_to, (counts[:, :k] / counts.sum(axis=1)[:, None]).T))

    values = np.full((len(selections), resamples, k), np.nan)
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(resamples)):
        rng = np.random.default_rng(child)
        mult = np.bincount(rng.integers(0, net.n, net.n), minlength=net.n)
        for s, (obs, citing, m_to, fractions) in enumerate(selections):
            observed = obs @ mult
            expected = fractions @ (mult[citing] * m_to)
            defined = expected > 0
            values[s, r, defined] = (observed[defined] - expected[defined]) / expected[defined]

    results = []
    for block in values:
        columns = [column[~np.isnan(column)] for column in block.T]
        cis = [tuple(np.percentile(c, [2.5, 97.5]).tolist()) if c.size >= 2 else None
               for c in columns]
        results.append((dict(zip(KNOWN_CATEGORIES, cis)),
                        dict(zip(KNOWN_CATEGORIES, [c.size for c in columns]))))
    return results


def assert_matches_oracle(results, oracle):
    """Equal ``defined`` counts, the same CIs present, and every bound
    within :data:`TOL` of the oracle's."""
    assert len(results) == len(oracle)
    for result, (cis, defined) in zip(results, oracle):
        assert result.defined == defined
        for g in KNOWN_CATEGORIES:
            assert (result[g] is None) == (cis[g] is None), g
            for mine, theirs in zip(result[g] or (), cis[g] or ()):
                assert abs(mine - theirs) <= TOL * max(abs(theirs), 1.0), (g, mine, theirs)
