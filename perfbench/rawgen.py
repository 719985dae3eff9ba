"""Seeded raw-corpus generator for the benchmark (numpy only).

It writes the two raw input tables of ``citegap ingest`` with bare-year
dates, so many papers share one publication date, as in year-granular
real corpora.  Base citations are drawn year by year with preferential
attachment on in-citations, topic homophily and a multiplier on papers
with a woman as first and/or last author.  Authors come from a shared
pool and some papers reuse an earlier paper's author pair, so both the
filter's self-citation rule and the models' author exclusion fire.

On top of the base citations the generator injects rows that the
ingest filter must drop (duplicates, citations older than the 10-year
window, first+last-author self-citations) and rows it must keep
(citations to later-dated papers).  Every injected class is disjoint
from the others and from the base, so :class:`RawCorpus.record` states
exactly how many rows the filter keeps and how many papers survive.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GENDERS = ("MM", "MW", "WM", "WW")
GENDER_WEIGHTS = (0.6, 0.15, 0.15, 0.1)
RANKS = ("A*", "A", "B", "C")
RANK_WEIGHTS = (0.15, 0.3, 0.35, 0.2)
WINDOW_YEARS = 10
FIRST_YEAR = 1980
N_TOPICS = 50
N_COUNTRIES = 10
N_SUBFIELDS = 5
MEAN_OUT_DEGREE = 5.0
PA_STRENGTH = 1.0
#: share of draws restricted to the citer's own topic
TOPIC_HOMOPHILY = 0.6
#: weight multiplier on papers with a woman as first and/or last author
GENDER_BIAS = 0.8
#: share of papers that reuse a recent paper's author pair
PAIR_REUSE = 0.2
#: injected rows per base citation, for each injected class
DUPLICATE_RATE = 0.03
OUT_OF_WINDOW_RATE = 0.02
SELF_CITATION_RATE = 0.02
LATER_DATED_RATE = 0.02

PAPER_HEADER = ("id", "pub_date", "gender", "rank", "country", "topic",
                "subfield", "first_author", "last_author")


@dataclass(frozen=True, eq=False)
class RawCorpus:
    """Generated papers (sorted by year) and raw citation rows."""

    years: np.ndarray
    genders: np.ndarray
    ranks: np.ndarray
    countries: np.ndarray
    topics: np.ndarray
    subfields: np.ndarray
    firsts: np.ndarray
    lasts: np.ndarray
    citing: np.ndarray
    cited: np.ndarray
    record: dict

    @property
    def ids(self) -> list[str]:
        width = len(str(len(self.years)))
        return [f"R{i + 1:0{width}d}" for i in range(len(self.years))]

    def write(self, papers_path: Path, citations_path: Path) -> None:
        ids = self.ids
        with open(papers_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
            writer.writerow(PAPER_HEADER)
            for i in range(len(ids)):
                writer.writerow([
                    ids[i], str(self.years[i]), GENDERS[self.genders[i]],
                    RANKS[self.ranks[i]], f"C{self.countries[i] + 1}",
                    f"T{self.topics[i] + 1}", f"F{self.subfields[i] + 1}",
                    f"au{self.firsts[i]}", f"au{self.lasts[i]}",
                ])
        with open(citations_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
            writer.writerow(("citing_id", "cited_id"))
            writer.writerows((ids[u], ids[v]) for u, v in zip(self.citing, self.cited))


def _author_overlap(firsts, lasts, u, v) -> np.ndarray:
    """Filter's self-citation rule: v's first and last author both among
    u's first/last authors."""
    fu, lu = firsts[u], lasts[u]
    return (((firsts[v] == fu) | (firsts[v] == lu))
            & ((lasts[v] == fu) | (lasts[v] == lu)))


def _unique_pairs(u: np.ndarray, v: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    keys = np.unique(u.astype(np.int64) * n + v)
    return keys // n, keys % n


def _weighted_draws(rng, weights: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """One draw per row from positions [lo, hi) of ``weights``,
    proportional to weight; every range must be non-empty."""
    cum = np.concatenate(([0.0], np.cumsum(weights)))
    u = cum[lo] + rng.random(len(lo)) * (cum[hi] - cum[lo])
    pos = np.searchsorted(cum, u, side="right") - 1
    return np.clip(pos, lo, hi - 1)


def generate(n_papers: int, n_years: int, seed: int) -> RawCorpus:
    """``n_papers`` papers over ``n_years`` years; deterministic under ``seed``."""
    rng = np.random.default_rng(seed)
    n = n_papers
    years = np.sort(rng.integers(FIRST_YEAR, FIRST_YEAR + n_years, n))
    genders = rng.choice(len(GENDERS), n, p=GENDER_WEIGHTS)
    ranks = rng.choice(len(RANKS), n, p=RANK_WEIGHTS)
    countries = rng.integers(0, N_COUNTRIES, n)
    topics = rng.integers(0, N_TOPICS, n)
    subfields = rng.integers(0, N_SUBFIELDS, n)
    pool = max(4, n // 2)
    firsts = rng.integers(0, pool, n)
    lasts = rng.integers(0, pool, n)
    # a research group publishing again: copy a recent paper's author pair
    recent = max(1, 3 * n // n_years)
    reuse_src = np.full(n, -1)
    for i in np.flatnonzero(rng.random(n) < PAIR_REUSE):
        if i == 0:
            continue
        src = i - 1 - int(rng.integers(0, min(i, recent)))
        firsts[i], lasts[i] = firsts[src], lasts[src]
        reuse_src[i] = src

    # per year y: papers [start[y], start[y + 1]) in index order
    year_index = years - FIRST_YEAR
    start = np.searchsorted(year_index, np.arange(n_years + 1), side="left")
    demand = rng.poisson(MEAN_OUT_DEGREE, n)
    is_w = genders != GENDERS.index("MM")
    bias = np.where(is_w, GENDER_BIAS, 1.0)
    indeg = np.zeros(n)

    base_u, base_v = [], []
    for y in range(n_years):
        a, b = start[y], start[y + 1]
        if a == b:
            continue
        lo = start[max(0, y - WINDOW_YEARS)]
        pool_idx = np.arange(lo, b)
        citers = np.repeat(np.arange(a, b), demand[a:b])
        if citers.size == 0:
            continue
        weights = (1.0 + PA_STRENGTH * indeg[pool_idx]) * bias[pool_idx]
        # order the pool by topic so each topic is one contiguous range
        order = np.argsort(topics[pool_idx], kind="stable")
        sorted_topics = topics[pool_idx][order]
        t_lo = np.searchsorted(sorted_topics, topics[citers], side="left")
        t_hi = np.searchsorted(sorted_topics, topics[citers], side="right")
        own_topic = (rng.random(citers.size) < TOPIC_HOMOPHILY) & (t_hi > t_lo)
        r_lo = np.where(own_topic, t_lo, 0)
        r_hi = np.where(own_topic, t_hi, pool_idx.size)
        targets = pool_idx[order][_weighted_draws(rng, weights[order], r_lo, r_hi)]
        ok = (targets != citers) & ~_author_overlap(firsts, lasts, citers, targets)
        u, v = _unique_pairs(citers[ok], targets[ok], n)
        base_u.append(u)
        base_v.append(v)
        np.add.at(indeg, v, 1.0)
    bu = np.concatenate(base_u)
    bv = np.concatenate(base_v)
    m = bu.size

    # duplicates of base rows (dropped)
    pick = rng.integers(0, m, int(DUPLICATE_RATE * m))
    dup_u, dup_v = bu[pick], bv[pick]

    # targets strictly more than 10 years older than the citer (dropped)
    old_citers = np.arange(start[min(WINDOW_YEARS + 1, n_years)], n)
    ou = (rng.choice(old_citers, int(OUT_OF_WINDOW_RATE * m)) if old_citers.size
          else np.zeros(0, np.int64))
    limit = start[np.maximum(year_index[ou] - WINDOW_YEARS, 0)]
    ov = (rng.random(ou.size) * limit).astype(np.int64)
    has = limit > 0  # no paper old enough when the first years are empty
    ou, ov = _unique_pairs(ou[has], ov[has], n)

    # citations into a paper carrying the citer's own author pair, plus a
    # few self-loops (dropped by the author rule)
    reusers = np.flatnonzero(reuse_src >= 0)
    k = min(reusers.size, int(SELF_CITATION_RATE * m))
    su = rng.choice(reusers, k, replace=False)
    sv = reuse_src[su]
    loops = rng.integers(0, n, max(1, k // 10))
    su, sv = _unique_pairs(np.concatenate((su, loops)), np.concatenate((sv, loops)), n)

    # citations to papers from one to three years later (kept)
    lu = rng.integers(0, n, int(LATER_DATED_RATE * m))
    l_lo = start[np.minimum(year_index[lu] + 1, n_years)]
    l_hi = start[np.minimum(year_index[lu] + 4, n_years)]
    has = l_hi > l_lo
    lu, l_lo, l_hi = lu[has], l_lo[has], l_hi[has]
    lv = l_lo + (rng.random(lu.size) * (l_hi - l_lo)).astype(np.int64)
    keep = ~_author_overlap(firsts, lasts, lu, lv)
    lu, lv = _unique_pairs(lu[keep], lv[keep], n)

    citing = np.concatenate((bu, dup_u, ou, su, lu))
    cited = np.concatenate((bv, dup_v, ov, sv, lv))
    order = rng.permutation(citing.size)
    kept_ends = np.concatenate((bu, bv, lu, lv))
    papers_kept = int(np.unique(kept_ends).size)
    record = {
        "papers": n,
        "raw_rows": int(citing.size),
        "base": int(m),
        "duplicates": int(dup_u.size),
        "out_of_window": int(ou.size),
        "self_citations": int(su.size),
        "later_dated": int(lu.size),
        "kept": int(m + lu.size),
        "papers_kept": papers_kept,
        "isolated": n - papers_kept,
    }
    return RawCorpus(years, genders, ranks, countries, topics, subfields,
                     firsts, lasts, citing[order], cited[order], record)
