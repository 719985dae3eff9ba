"""The per-paper synth loop, the oracle of the array one.

``generate_network`` once grew its corpus one paper at a time: the
paper's window floor from its ``date``, its eligible predecessors as an
``np.arange`` pool gathered from every column, the homophily factor as
``np.exp`` over the pool, ``Generator.choice`` for the draws, and the
result as ``Paper`` records handed to ``filter_citations`` with id
pairs.  :func:`generate_network` keeps that loop, to check the array
path against: the same seed must give the same corpus, or the same
error.
"""
from datetime import timedelta

import numpy as np

from citegap.corpus import (
    KNOWN_CATEGORIES,
    RANK_ORDER,
    W_CATEGORIES,
    Paper,
    citation_window_floor,
    filter_citations,
)
from citegap.synth import GenerationError, _parse_out_degree


def generate_network(cfg):
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_papers
    span = (cfg.date_end - cfg.date_start).days + 1

    offsets = np.sort(rng.choice(span, size=n, replace=False))
    dates = [cfg.date_start + timedelta(days=int(o)) for o in offsets]

    weights = np.array([cfg.category_weights.get(g, 0.0) for g in KNOWN_CATEGORIES])
    genders = rng.choice(len(KNOWN_CATEGORIES), size=n, p=weights / weights.sum())
    ranks = rng.integers(0, cfg.n_ranks, size=n)
    countries = rng.integers(0, cfg.n_countries, size=n)
    topics = rng.integers(0, cfg.n_topics, size=n)
    subfields = rng.integers(0, cfg.n_subfields, size=n)
    is_w = np.array([KNOWN_CATEGORIES[g] in W_CATEGORIES for g in genders])

    kind, params = _parse_out_degree(cfg.out_degree)
    if kind == "fixed":
        demand = np.full(n, int(params[0]))
    elif kind == "uniform":
        demand = rng.integers(int(params[0]), int(params[1]) + 1, size=n)
    else:
        demand = rng.poisson(params[0], size=n)

    h_rank = cfg.homophily.get("rank", 0.0)
    h_country = cfg.homophily.get("country", 0.0)
    h_topic = cfg.homophily.get("topic", 0.0)

    running = np.zeros(n)
    edges = []
    for i in range(1, n):
        lo = int(np.searchsorted(
            offsets, (citation_window_floor(dates[i]) - cfg.date_start).days, "left"
        ))
        pool = np.arange(lo, i)
        k = min(int(demand[i]), pool.size)
        if k == 0:
            continue
        w = 1.0 + cfg.pa_strength * running[pool]
        if h_rank or h_country or h_topic:
            w = w * np.exp(
                h_rank * (ranks[pool] == ranks[i])
                + h_country * (countries[pool] == countries[i])
                + h_topic * (topics[pool] == topics[i])
            )
        if cfg.gender_bias != 1.0:
            w = w * np.where(is_w[pool], cfg.gender_bias, 1.0)
        total = w.sum()
        if total <= 0:
            raise GenerationError(
                f"paper {i} has {pool.size} eligible predecessors but zero "
                "total citation weight"
            )
        targets = rng.choice(pool, size=k, replace=False, p=w / total)
        edges.extend((i, int(t)) for t in targets)
        running[targets] += 1

    if not edges:
        raise GenerationError("configuration generated no citations")

    width = len(str(n))
    papers = [
        Paper(
            id=f"P{i + 1:0{width}d}",
            pub_date=dates[i],
            gender=KNOWN_CATEGORIES[genders[i]],
            rank=RANK_ORDER[ranks[i]],
            country=f"C{countries[i] + 1}",
            topic=f"T{topics[i] + 1}",
            subfield=f"F{subfields[i] + 1}",
            first_author=f"a{2 * i + 1}",
            last_author=f"a{2 * i + 2}",
        )
        for i in range(n)
    ]
    return filter_citations(
        papers, [(papers[i].id, papers[j].id) for i, j in edges]
    )
