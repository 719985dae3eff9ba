"""The per-citer preferential draws, the oracle of the lockstep ones.

``preferential_draws`` once walked the citers one at a time in date
order: each citer's step concatenated the bases of its citations,
compared their running counts with its targets' counts, masked the
papers its author rule excludes, merged identical narrowed sets into
bundles and added their mass.  :func:`per_citer_preferential_draws` is
that loop; :func:`assert_same_pd` checks a table against it bit for bit.
"""
from fractions import Fraction

import numpy as np

from citegap.corpus import ATTRIBUTE_ORDER, canonical_attributes
from citegap.refmodels import (
    DEFAULT_COUNT_TOL,
    _blocks,
    _exclusions,
    _index_dtype,
    _key_codes,
    _slices,
    date_order,
    group_table,
)


def per_citer_preferential_draws(net, attributes=ATTRIBUTE_ORDER, *,
                                 count_tol=DEFAULT_COUNT_TOL, exact=False):
    """The PD group table, one iteration per citer in date order."""
    attrs = canonical_attributes(attributes)
    codes = _key_codes(net, attrs)
    citing, cited = net.edges[:, 0], net.edges[:, 1]
    later = net.dates[cited] > net.dates[citing]
    n_codes = int(codes.max(initial=0)) + 1
    _, lead, unit = np.unique(np.argsort(date_order(net))[citing] * (n_codes + net.n)
                              + np.where(later, n_codes + cited, codes[cited]),
                              return_index=True, return_inverse=True)
    unit = unit.reshape(-1)
    order, lo, hi = _slices(net, codes, citing[lead], codes[cited[lead]])
    excluded_ptr, excluded = _exclusions(net, order, citing[lead], lo, hi)
    unit_ptr = [*np.flatnonzero(np.diff(citing[lead], prepend=-1)).tolist(), lead.size]
    citers = citing[lead[unit_ptr[:-1]]]
    excluded, excluded_ptr = order[excluded], excluded_ptr[unit_ptr].tolist()
    size = (hi - lo + later[lead])[unit]
    lo, hi, extra = lo.tolist(), hi.tolist(), np.where(later[lead], cited[lead], -1).tolist()
    edge_ptr = np.concatenate(([0], np.cumsum(net.out_degree))).tolist()

    running = np.full(net.n, Fraction(0), dtype=object) if exact else np.zeros(net.n)
    blocked = np.zeros(net.n, dtype=bool)
    rows, member_dtype = [], _index_dtype(0, net.n, 0)
    for p, x in enumerate(citers.tolist()):
        e0, e1 = edge_ptr[x], edge_ptr[x + 1]
        t, n = cited[e0:e1], size[e0:e1]
        base = np.concatenate([order[lo[k]:hi[k]] if extra[k] < 0
                               else np.append(order[lo[k]:hi[k]], extra[k])
                               for k in unit[e0:e1].tolist()])
        values, count = running[base], running[t].repeat(n)
        if exact:
            keep = values == count
        else:
            values -= count
            keep = np.abs(values, out=values) <= count_tol
        own = excluded[excluded_ptr[p]:excluded_ptr[p + 1]]
        if own.size:
            blocked[own] = True
            keep[blocked[base]] = False
            blocked[own] = False
        kept = np.add.reduceat(keep, n.cumsum() - n)
        m, n_t = base[keep], np.ones(e1 - e0, dtype=np.int64)
        if unit_ptr[p + 1] - unit_ptr[p] < e1 - e0:
            merged = {}
            end = kept.cumsum()
            for c, (a, b) in enumerate(zip((end - kept).tolist(), end.tolist())):
                merged.setdefault(m[a:b].tobytes(), []).append(c)
            if len(merged) < e1 - e0:
                first = [c[0] for c in merged.values()]
                m = m[np.bincount(first, minlength=e1 - e0).astype(bool).repeat(kept)]
                n_t = np.array([len(c) for c in merged.values()])
                t, kept = t[[c for cs in merged.values() for c in cs]], kept[first]
        mass = (np.array([Fraction(a, b) for a, b in zip(n_t.tolist(), kept.tolist())])
                if exact else n_t / kept)
        np.add.at(running, m, mass.repeat(kept))
        rows.append((m.astype(member_dtype), kept, t, n_t))

    rows = [rows[p] for p in np.argsort(citers).tolist()]
    citing = np.sort(citers).repeat([row[1].size for row in rows])
    members, sizes, targets, n_targets = map(np.concatenate, zip(
        (np.zeros(0, member_dtype), *[np.zeros(0, np.int64)] * 3), *rows))
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    for a, b in _blocks(indptr):
        offset = np.repeat(np.arange(b - a) * net.n, sizes[a:b])
        members[indptr[a]:indptr[b]] = np.sort(members[indptr[a]:indptr[b]] + offset) - offset
    zeros = np.zeros(citing.size + 1, dtype=np.int64)
    return group_table("PD", attrs, order, citing, zeros[1:], zeros[1:], zeros, zeros[:0],
                       indptr, members, np.concatenate(([0], np.cumsum(n_targets))), targets,
                       running.astype(np.float64))


def assert_same_pd(ec, ref):
    """Every stored array and ``c_bar`` of two PD tables agree in dtype
    and bytes."""
    for name in ("citing", "weight", "lo", "hi", "excluded_ptr", "excluded", "indptr",
                 "indices", "target_ptr", "targets", "c_bar"):
        got, want = getattr(ec, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
