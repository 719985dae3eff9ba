"""The blocked bootstrap against the per-resample loop it replaced
(``bootstrap_oracle``), on synth and year-only rawgen corpora, for every
model and selection the CLI runs; the point estimates, which do not
depend on the resamples; its independence from the block and panel
sizes; the exactness of the fixed-point limbs its expectations
are cut into; and its percentiles against ``np.percentile``."""
import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from citegap import (
    SynthConfig,
    bootstrap_ci,
    compute_model,
    expected_by_gender,
    generate_network,
    imbalance_report,
    load_network,
    observed_by_gender,
    stratified_imbalance,
)
from citegap import imbalance
from citegap.imbalance import (
    ALL_PAPERS,
    STRATIFIERS,
    PaperFilter,
    _limb_count,
    _percentiles,
)
from citegap.refmodels import fixed_point_limbs
from bootstrap_oracle import assert_matches_oracle, per_resample_bootstrap

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: the model tables of the CLI's ``model`` runs: name -> (model, attributes
#: or None for the default, exact)
MODELS = {
    "rd": ("RD", (), False),
    "hd-rank": ("HD", ("rank",), False),
    "pd": ("PD", None, False),
    "pd-exact": ("PD", None, True),
}


@pytest.fixture(scope="module", params=["synth-1", "synth-7", "rawgen-1", "rawgen-7"])
def corpus(request, tmp_path_factory):
    name, seed = request.param.split("-")
    if name == "synth":
        return generate_network(SynthConfig(n_papers=300, seed=int(seed)))
    sys.path.insert(0, str(PERFBENCH))
    try:
        import rawgen
    finally:
        sys.path.remove(str(PERFBENCH))
    directory = tmp_path_factory.mktemp(request.param)
    rawgen.generate(300, 12, int(seed)).write(directory / "papers.tsv",
                                              directory / "citations.tsv")
    return load_network(directory / "papers.tsv", directory / "citations.tsv")


@lru_cache(maxsize=None)
def model(net, name):
    kind, attrs, exact = MODELS[name]
    if attrs is None:
        return compute_model(net, kind, exact=exact)
    return compute_model(net, kind, attrs, exact=exact)


def selection(net, name):
    """The from-filter and to-filters of a plain, a ``--from gender=WW``,
    a ``--from gender=WW --to rank=A`` and a ``--stratify rank|subfield``
    report."""
    if name == "plain":
        return ALL_PAPERS, [ALL_PAPERS]
    if name == "from-ww":
        return PaperFilter.parse("gender=WW"), [ALL_PAPERS]
    if name == "from-to":
        return PaperFilter.parse("gender=WW"), [PaperFilter.parse("rank=A")]
    strata = net.attribute_codes(name)[1]
    return ALL_PAPERS, [PaperFilter(f"{name}={value}", ((name, value),)) for value in strata]


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("chosen", ["plain", "from-ww", "rank", "subfield"])
@pytest.mark.parametrize("model_name", list(MODELS))
def test_matches_per_resample_oracle(corpus, model_name, chosen, seed):
    ec = model(corpus, model_name)
    from_filter, to_filters = selection(corpus, chosen)
    results = bootstrap_ci(corpus, ec, from_filter, to_filters, resamples=200, seed=seed)
    assert any(ci is not None for result in results for ci in result.values())
    assert_matches_oracle(results, per_resample_bootstrap(corpus, ec, from_filter, to_filters,
                                                          resamples=200, seed=seed))


@lru_cache(maxsize=None)
def synth(seed):
    return generate_network(SynthConfig(n_papers=300, seed=seed))


@pytest.mark.parametrize("chosen", ["plain", "from-to", "rank", "subfield"])
@pytest.mark.parametrize("model_name", ["rd", "hd-rank", "pd"])
def test_point_estimates_do_not_depend_on_the_bootstrap(model_name, chosen):
    # the point estimates are the sums of the fold the bootstrap reads:
    # with no resamples nothing is drawn, and every field but the CIs and
    # the defined resamples stays; they are the counts and expectations
    # of each selection taken alone
    net = synth(1)
    ec = model(net, model_name)
    from_filter, to_filters = selection(net, chosen)

    def reports(resamples):
        if chosen in STRATIFIERS:
            return stratified_imbalance(net, ec, chosen, resamples, seed=5)
        return imbalance_report(net, ec, from_filter, to_filters[0], resamples, seed=5)

    drawn, none = reports(20), reports(0)
    assert any(r.ci_low is not None for r in drawn)
    assert none == [replace(r, ci_low=None, ci_high=None, resamples_defined=0) for r in drawn]
    for r in none:
        to_filter = PaperFilter.parse(r.to_filter)
        assert r.n_obs == observed_by_gender(net, from_filter, to_filter)[r.gender]
        assert r.n_expected == expected_by_gender(net, ec, from_filter, to_filter)[r.gender]


@pytest.mark.parametrize("model_name", ["rd", "pd"])
def test_block_and_panel_sizes_change_nothing(corpus, model_name, monkeypatch):
    # 50 resamples fill no block of 7 or of the default size exactly; a
    # panel work of 1 takes one paper per panel, 1000 a few dozen
    ec = model(corpus, model_name)
    from_filter, to_filters = selection(corpus, "rank")
    default = bootstrap_ci(corpus, ec, from_filter, to_filters, resamples=50, seed=3)
    for size, work in ((1, imbalance._PANEL_WORK), (7, imbalance._PANEL_WORK),
                       (imbalance._BLOCK, 1), (7, 1000)):
        monkeypatch.setattr(imbalance, "_BLOCK", size)
        monkeypatch.setattr(imbalance, "_PANEL_WORK", work)
        blocked = bootstrap_ci(corpus, ec, from_filter, to_filters, resamples=50, seed=3)
        assert blocked == default
        assert [r.defined for r in blocked] == [r.defined for r in default]


def _spread_values():
    # per-citer expectations of a 5000-paper corpus lie between 1/N and N:
    # random mantissas over 2 log2(N) binades, with zeros among them
    rng = np.random.default_rng(0)
    values = rng.random((4, 5000)) * np.ldexp(1.0, rng.integers(-13, 13, (4, 5000)))
    values[rng.random((4, 5000)) < 0.1] = 0.0
    values[0, :2] = [4999.0, 1 / 5000]
    return values


@pytest.mark.parametrize("values", [
    np.array([[0.0, 1.5, 0.0, 3.25], [0.1, 0.0, 0.0, 7.0]]),
    np.zeros((4, 10)),
    np.array([[0.7], [0.0], [2.0], [1 / 3]]),
    _spread_values(),
    np.array([[1e-300, 3e-301, 0.0]]),
], ids=["zeros", "all-zero-rows", "single-paper", "spread-binades", "tiny"])
def test_limbs_cut_without_loss(values):
    # the limbs of a bootstrap table: sum(limb * 2^e) is every value
    # exactly, and each limb's dot product with multiplicities summing to
    # N is the exact integer
    n = values.shape[1]
    bits = 53 - n.bit_length()
    count = _limb_count(values, bits)
    limbs = list(fixed_point_limbs(values, bits, count))
    assert len(limbs) == count
    total = np.full(values.shape, Fraction(0), dtype=object)
    mult = np.bincount(np.random.default_rng(1).integers(0, n, n), minlength=n)
    for limb, exponent in limbs:
        assert ((limb >= 0) & (limb < 2.0 ** bits) & (limb == np.floor(limb))).all()
        total += np.vectorize(lambda v: Fraction(int(v)) * Fraction(2) ** exponent,
                              otypes=[object])(limb)
        exact = [sum(int(v) * int(m) for v, m in zip(row, mult)) for row in limb]
        assert (limb @ mult.astype(np.float64)).tolist() == exact
    assert (total == np.vectorize(Fraction, otypes=[object])(values)).all()
    if values.any():
        assert count >= 1
    else:
        assert count == 0


@pytest.mark.parametrize("kind", ["spread", "ties", "signed-zeros"])
def test_percentiles_match_numpy_bit_for_bit(kind):
    # the CI bounds, both ends of the range and points in between, on
    # values of both signs; equal values of opposite zero sign tell which
    # element the partition put at an index
    rng = np.random.default_rng(["spread", "ties", "signed-zeros"].index(kind))
    for n in range(2, 501):
        if kind == "spread":
            values = rng.normal(size=n) * 10.0 ** rng.integers(-6, 6)
        elif kind == "ties":
            values = rng.integers(-3, 4, n) / 4
        else:
            values = np.round(rng.normal(size=n), 1)
        for q in ((2.5, 97.5), (0, 50, 100), (100, 33.3, 99.9, 0.1)):
            got, want = _percentiles(values, q), np.percentile(values, list(q))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (n, q)
