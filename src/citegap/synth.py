"""Synthetic citation networks and a sampling oracle for the models.

The generator grows a corpus in publication-date order.  Each new paper
draws its citations from the eligible predecessors with weights shaped
by three knobs: preferential attachment on current in-citations,
per-attribute homophily, and a multiplier on papers with a woman as
first and/or last author.  With all knobs neutral the draw is uniform
over the eligible set, i.e. exactly the random-draws process, which is
what the null-calibration checks rely on.

A paper's eligible predecessors are a slice of the date-sorted papers,
its weights are products of per-paper arrays over that slice, and its
draw without replacement is :func:`_choice`, which makes the draws of
``Generator.choice`` from the same stream (the tests pin the two against
each other); the corpus is built as columns, not ``Paper`` records.
Knobs must be finite, and a paper whose weights sum to a non-finite
total ends generation with a :class:`GenerationError`.  Dates before
year 11 are accepted: window floors are ``datetime64``.

The oracle replays a model's literal stochastic draw process many times
and reports empirical citation frequencies, independently of the
closed-form expectation code (eligible sets are recomputed here by
brute force).  For the preferential-draws model the oracle drives the
equality classes with realized drawn counts, not expectations, so it
checks the analytic recursion as a mean-field description.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Iterable

import numpy as np

from .corpus import (
    ATTRIBUTE_ORDER,
    KNOWN_CATEGORIES,
    RANK_ORDER,
    W_CATEGORIES,
    CitationNetwork,
    GenderCategory,
    PaperTable,
    canonical_attributes,
    category_key,
    citation_window_floor,
    citation_window_floors,
    filter_edges,
)
from .refmodels import date_order

#: hard cap for the sampling oracle; it tabulates dense N x N frequencies
ORACLE_MAX_PAPERS = 200


class GenerationError(ValueError):
    """The synthetic configuration cannot produce a valid network."""


def _parse_out_degree(spec: str) -> tuple[str, tuple[float, ...]]:
    kind, sep, rest = spec.partition(":")
    try:
        if kind == "fixed" and sep:
            k = int(rest)
            if k < 0:
                raise ValueError
            return "fixed", (k,)
        if kind == "uniform" and sep:
            lo, hi = (int(v) for v in rest.split(","))
            if not 0 <= lo <= hi:
                raise ValueError
            return "uniform", (lo, hi)
        if kind == "poisson" and sep:
            lam = float(rest)
            if not 0 <= lam < math.inf:
                raise ValueError
            return "poisson", (lam,)
    except ValueError:
        pass
    raise GenerationError(
        f"bad out_degree spec {spec!r} (use fixed:K, uniform:LO,HI, or poisson:LAMBDA)"
    )


@dataclass
class SynthConfig:
    """Knobs for :func:`generate_network`."""

    n_papers: int
    seed: int = 0
    date_start: date = date(2000, 1, 1)
    date_end: date = date(2009, 12, 31)
    category_weights: dict[GenderCategory, float] = field(
        default_factory=lambda: {
            GenderCategory.MM: 0.6,
            GenderCategory.MW: 0.15,
            GenderCategory.WM: 0.15,
            GenderCategory.WW: 0.1,
        }
    )
    n_ranks: int = 4
    n_countries: int = 5
    n_topics: int = 10
    n_subfields: int = 4
    out_degree: str = "uniform:1,5"
    homophily: dict[str, float] = field(
        default_factory=lambda: {a: 0.0 for a in ATTRIBUTE_ORDER}
    )
    pa_strength: float = 0.0
    gender_bias: float = 1.0

    def validate(self) -> None:
        if self.n_papers < 2:
            raise GenerationError("n_papers must be at least 2")
        if self.date_end < self.date_start:
            raise GenerationError("date_end precedes date_start")
        span = (self.date_end - self.date_start).days + 1
        if span < self.n_papers:
            raise GenerationError(
                "date window too small to give every paper a distinct date"
            )
        weights = [self.category_weights.get(g, 0.0) for g in KNOWN_CATEGORIES]
        if min(weights) < 0 or sum(weights) <= 0:
            raise GenerationError("category weights must be nonnegative and sum > 0")
        if not math.isfinite(sum(weights)):
            raise GenerationError("category weights must have a finite sum")
        if not 1 <= self.n_ranks <= len(RANK_ORDER):
            raise GenerationError(f"n_ranks must be in 1..{len(RANK_ORDER)}")
        for name in ("n_countries", "n_topics", "n_subfields"):
            if getattr(self, name) < 1:
                raise GenerationError(f"{name} must be at least 1")
        for a, h in self.homophily.items():
            if a not in ATTRIBUTE_ORDER or not 0 <= h < math.inf:
                raise GenerationError(f"bad homophily entry {a}={h}")
        if self.pa_strength < 0 or self.gender_bias < 0:
            raise GenerationError("pa_strength and gender_bias must be nonnegative")
        if not (math.isfinite(self.pa_strength) and math.isfinite(self.gender_bias)):
            raise GenerationError("pa_strength and gender_bias must be finite")
        kind, params = _parse_out_degree(self.out_degree)
        minimum = {"fixed": lambda p: p[0], "uniform": lambda p: p[0],
                   "poisson": lambda p: 0}[kind](params)
        if minimum > self.n_papers - 1:
            raise GenerationError(
                f"out-degree minimum {minimum} exceeds the {self.n_papers - 1} "
                "papers ever available to cite"
            )


_CONFIG_KEYS = {
    "n_papers": int,
    "seed": int,
    "date_start": date.fromisoformat,
    "date_end": date.fromisoformat,
    "weight_mm": float,
    "weight_mw": float,
    "weight_wm": float,
    "weight_ww": float,
    "ranks": int,
    "countries": int,
    "topics": int,
    "subfields": int,
    "out_degree": str,
    "homophily_rank": float,
    "homophily_country": float,
    "homophily_topic": float,
    "pa_strength": float,
    "gender_bias": float,
}


def load_config(path: str | Path) -> SynthConfig:
    """Flat ``key=value`` config file; ``#`` starts a comment."""
    values: dict[str, object] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if not sep or key not in _CONFIG_KEYS:
                raise GenerationError(f"{path}: line {lineno}: bad config entry {line!r}")
            try:
                values[key] = _CONFIG_KEYS[key](raw)
            except ValueError as exc:
                raise GenerationError(
                    f"{path}: line {lineno}: bad value for {key}: {raw!r}"
                ) from exc
    if "n_papers" not in values:
        raise GenerationError(f"{path}: n_papers is required")

    cfg = SynthConfig(n_papers=int(values.pop("n_papers")))
    weights = dict(cfg.category_weights)
    for token, g in (("mm", GenderCategory.MM), ("mw", GenderCategory.MW),
                     ("wm", GenderCategory.WM), ("ww", GenderCategory.WW)):
        key = f"weight_{token}"
        if key in values:
            weights[g] = float(values.pop(key))
    cfg.category_weights = weights
    homophily = dict(cfg.homophily)
    for a in ATTRIBUTE_ORDER:
        key = f"homophily_{a}"
        if key in values:
            homophily[a] = float(values.pop(key))
    cfg.homophily = homophily
    renames = {"ranks": "n_ranks", "countries": "n_countries",
               "topics": "n_topics", "subfields": "n_subfields"}
    for key, value in values.items():
        setattr(cfg, renames.get(key, key), value)
    cfg.validate()
    return cfg


#: ``Generator.choice``'s tolerance on the sum of the probabilities
_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _kahan_sum(values: list[float]) -> float:
    """Compensated sum in list order, as ``Generator.choice`` sums ``p``."""
    total, carry = values[0], 0.0
    for v in values[1:]:
        y = v - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def _choice(rng: np.random.Generator, k: int, p: np.ndarray) -> np.ndarray:
    """``rng.choice(p.size, k, replace=False, p=p)``: the same indices,
    the same draws from ``rng`` and the same ``ValueError`` texts.

    Each round draws one uniform per index still missing, maps it through
    the normalized cumulative sum of ``p`` with the indices found so far
    zeroed, and keeps each new index at its first occurrence.  ``p`` is
    validated as numpy validates it; the compensated sum runs only when
    the plain cumulative sum is not within half the tolerance of 1 or
    ``p`` has a negative (or NaN) entry.
    """
    cdf = p.cumsum()
    # below 2**24 entries the cumulative and compensated sums of
    # nonnegative p lie well within atol / 2 of each other
    if not (p.size < 2**24 and abs(cdf[-1] - 1.0) <= _ATOL / 2 and p.min() >= 0):
        total = _kahan_sum(p.tolist())
        if np.isnan(total):
            raise ValueError("Probabilities contain NaN")
        if (p < 0).any():
            raise ValueError("Probabilities are not non-negative")
        if abs(total - 1.0) > _ATOL:
            raise ValueError("Probabilities do not sum to 1. See Notes "
                             "section of docstring for more information.")
    if k > p.size:
        raise ValueError("Cannot take a larger sample than population when "
                         "replace is False")
    if np.count_nonzero(p) < k:
        raise ValueError("Fewer non-zero entries in p than size")
    found = list(dict.fromkeys((cdf / cdf[-1]).searchsorted(rng.random(k), "right").tolist()))
    if len(found) < k:
        p = p.copy()
    while len(found) < k:
        x = rng.random(k - len(found))
        p[found] = 0
        cdf = p.cumsum()
        # a zeroed entry spans an empty interval, so no round repeats one
        found.extend(dict.fromkeys((cdf / cdf[-1]).searchsorted(x, "right").tolist()))
    return np.array(found, dtype=np.int64)


def _labels(prefix: str, count: int) -> np.ndarray:
    """``prefix`` followed by 1..count, the label of each code."""
    return np.array([f"{prefix}{c}" for c in range(1, count + 1)])


def generate_network(cfg: SynthConfig) -> CitationNetwork:
    """Grow a synthetic corpus and return it filtered.

    Deterministic under ``cfg.seed``.  Papers get distinct dates and
    distinct author pairs, so the output passes corpus filtering by
    construction; drawn out-degrees are capped at the size of the
    eligible-predecessor pool (the earliest papers naturally cite less).
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_papers
    span = (cfg.date_end - cfg.date_start).days + 1

    offsets = np.sort(rng.choice(span, size=n, replace=False))
    start = np.datetime64(cfg.date_start, "D")
    dates = start + offsets

    weights = np.array([cfg.category_weights.get(g, 0.0) for g in KNOWN_CATEGORIES])
    genders = rng.choice(len(KNOWN_CATEGORIES), size=n, p=weights / weights.sum())
    ranks = rng.integers(0, cfg.n_ranks, size=n)
    countries = rng.integers(0, cfg.n_countries, size=n)
    topics = rng.integers(0, cfg.n_topics, size=n)
    subfields = rng.integers(0, cfg.n_subfields, size=n)

    kind, params = _parse_out_degree(cfg.out_degree)
    if kind == "fixed":
        demand = np.full(n, int(params[0]))
    elif kind == "uniform":
        demand = rng.integers(int(params[0]), int(params[1]) + 1, size=n)
    else:
        demand = rng.poisson(params[0], size=n)

    # paper i draws from its predecessors [lo[i], i), the ones in its window
    floors = (citation_window_floors(dates) - start).astype(np.int64)
    lo = np.searchsorted(offsets, floors, "left")
    draws = np.minimum(demand, np.arange(n) - lo)

    # the homophily factor exp(sum of h * [attribute matches]) takes one
    # of 2**len(matched) values, summed in attribute order; a term whose
    # h is 0 adds exactly 0.0 and is left out
    matched = [(h, column) for h, column in (
        (cfg.homophily.get("rank", 0.0), ranks),
        (cfg.homophily.get("country", 0.0), countries),
        (cfg.homophily.get("topic", 0.0), topics)) if h]
    sums = [sum(h * float(code >> bit & 1) for bit, (h, _) in enumerate(matched))
            for code in range(2 ** len(matched))]
    with np.errstate(over="ignore"):
        factor = np.exp(np.array(sums))
    columns = [column for _, column in matched]
    bias = None
    if cfg.gender_bias != 1.0:
        is_w = np.array([g in W_CATEGORIES for g in KNOWN_CATEGORIES])[genders]
        bias = np.where(is_w, cfg.gender_bias, 1.0)

    # base[j] = 1 + pa_strength * (citations j has drawn so far)
    base = np.ones(n)
    running = np.zeros(n)
    targets = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in np.flatnonzero(draws).tolist():
            first = int(lo[i])
            w = base[first:i]
            if columns:
                code = columns[0][first:i] == columns[0][i]
                for bit, c in enumerate(columns[1:], start=1):
                    code = code | (c[first:i] == c[i]) << bit
                w = w * factor.take(code)
            if bias is not None:
                w = w * bias[first:i]
            total = w.sum()
            if not math.isfinite(total):
                raise GenerationError(
                    f"paper {i} has a non-finite total citation weight over its "
                    f"{i - first} eligible predecessors"
                )
            if total <= 0:
                raise GenerationError(
                    f"paper {i} has {i - first} eligible predecessors but zero "
                    "total citation weight"
                )
            drawn = first + _choice(rng, int(draws[i]), w / total)
            running[drawn] += 1
            base[drawn] = 1.0 + cfg.pa_strength * running[drawn]
            targets.append(drawn)

    if not targets:
        raise GenerationError("configuration generated no citations")

    width = len(str(n))
    authors = np.array([f"a{i}" for i in range(1, 2 * n + 1)])
    values = {
        "id": np.array([f"P{i:0{width}d}" for i in range(1, n + 1)]),
        "gender": np.array([g.value for g in KNOWN_CATEGORIES])[genders],
        "rank": np.array([r.value for r in RANK_ORDER])[ranks],
        "country": _labels("C", cfg.n_countries)[countries],
        "topic": _labels("T", cfg.n_topics)[topics],
        "subfield": _labels("F", cfg.n_subfields)[subfields],
        "first_author": authors[0::2],
        "last_author": authors[1::2],
    }
    edges = np.stack((np.repeat(np.arange(n), draws), np.concatenate(targets)), axis=1)
    return filter_edges(PaperTable.from_columns(values, dates), edges)


# ---------------------------------------------------------------------------
# sampling oracle


@dataclass(frozen=True, eq=False)
class OracleEstimate:
    """Empirical draw frequencies from replaying a model's process."""

    model: str
    attributes: tuple[str, ...]
    samples: int
    w_mean: np.ndarray
    c_mean: np.ndarray
    c_se: np.ndarray


def _eligible_bruteforce(net: CitationNetwork, i: int) -> list[int]:
    # plain-loop re-derivation of the eligibility rules, kept independent of
    # the vectorized model path
    citer = net.papers[i]
    floor = citation_window_floor(citer.pub_date)
    authors = (citer.first_author, citer.last_author)
    out = []
    for j, p in enumerate(net.papers):
        if j == i:
            continue
        if p.pub_date < floor or p.pub_date > citer.pub_date:
            continue
        if p.first_author in authors and p.last_author in authors:
            continue
        out.append(j)
    return out


def _hd_members_bruteforce(
    net: CitationNetwork, eligible: list[int], target: int, attrs: tuple[str, ...]
) -> np.ndarray:
    key = category_key(net.papers[target], attrs)
    members = [j for j in eligible if category_key(net.papers[j], attrs) == key]
    if target not in members:
        members.append(target)
    return np.asarray(sorted(members), dtype=np.int64)


def monte_carlo_oracle(
    net: CitationNetwork,
    model: str,
    attributes: Iterable[str] = ATTRIBUTE_ORDER,
    samples: int = 100_000,
    seed: int = 0,
) -> OracleEstimate:
    """Replay the chosen model's stochastic process ``samples`` times.

    Returns per-(i, j) mean citation counts and per-paper mean
    in-citations with their empirical standard errors.  Refuses networks
    with more than ORACLE_MAX_PAPERS papers; this is a desk-scale tool.
    """
    if net.n > ORACLE_MAX_PAPERS:
        raise ValueError(
            f"oracle supports at most {ORACLE_MAX_PAPERS} papers, got {net.n}"
        )
    if samples < 1:
        raise ValueError("samples must be positive")
    name = model.upper()
    if name not in ("RD", "HD", "PD"):
        raise ValueError(f"unknown model {model!r}")
    attrs = canonical_attributes(attributes) if name != "RD" else ()

    rng = np.random.default_rng(seed)
    rows = np.arange(samples)
    counts = np.zeros((samples, net.n), dtype=np.int32)
    w_sum = np.zeros((net.n, net.n))

    if name == "RD":
        for i in range(net.n):
            k = int(net.out_degree[i])
            if k == 0:
                continue
            members = np.asarray(_eligible_bruteforce(net, i), dtype=np.int64)
            if members.size == 0:
                raise ValueError(
                    f"paper {net.papers[i].id!r} cites with an empty eligible set"
                )
            for _ in range(k):
                chosen = members[rng.integers(0, members.size, samples)]
                counts[rows, chosen] += 1
                w_sum[i] += np.bincount(chosen, minlength=net.n)
    elif name == "HD":
        for i in range(net.n):
            eligible = None
            for t in net.out_targets[i]:
                if eligible is None:
                    eligible = _eligible_bruteforce(net, i)
                members = _hd_members_bruteforce(net, eligible, int(t), attrs)
                chosen = members[rng.integers(0, members.size, samples)]
                counts[rows, chosen] += 1
                w_sum[i] += np.bincount(chosen, minlength=net.n)
    else:
        for x in date_order(net):
            targets = net.out_targets[x]
            if targets.size == 0:
                continue
            eligible = _eligible_bruteforce(net, x)
            pending = []
            for t in targets:
                members = _hd_members_bruteforce(net, eligible, int(t), attrs)
                # realized counts, frozen before this paper's own draws
                eq = counts[:, members] == counts[:, int(t)][:, None]
                sizes = eq.sum(axis=1)
                pick = (rng.random(samples) * sizes).astype(np.int64)
                position = (eq.cumsum(axis=1) > pick[:, None]).argmax(axis=1)
                chosen = members[position]
                pending.append(chosen)
                w_sum[x] += np.bincount(chosen, minlength=net.n)
            for chosen in pending:
                counts[rows, chosen] += 1

    c_mean = counts.mean(axis=0)
    if samples > 1:
        c_se = counts.std(axis=0, ddof=1) / np.sqrt(samples)
    else:
        c_se = np.zeros(net.n)
    return OracleEstimate(name, attrs, samples, w_sum / samples, c_mean, c_se)
