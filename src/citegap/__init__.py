"""citegap: group imbalance in citation networks against draw-based
reference models.

Pipeline: parse and filter a corpus into a :class:`CitationNetwork`,
compute expected citations under the random-, homophilic-, or
preferential-draws model, then compare observed counts and rankings
against those expectations.

The public names below are imported on first access (PEP 562), so
``import citegap`` loads neither a submodule nor numpy, and
``from citegap import load_network`` loads ``citegap.corpus`` alone.
"""
from importlib import import_module

__version__ = "0.1.0"

#: every public name, and the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "corpus": (
            "ATTRIBUTE_ORDER", "CitationNetwork", "ConferenceRank", "GenderCategory",
            "IngestError", "Paper", "PaperTable", "ParseError", "PublicationRecord",
            "category_key", "filter_citations", "gender_category", "levenshtein",
            "load_network", "match_records",
        ),
        "imbalance": (
            "ImbalanceReport", "PaperFilter", "bootstrap_ci", "expected_by_gender",
            "imbalance_report", "observed_by_gender", "over_under", "stratified_imbalance",
        ),
        "ranking": (
            "RankingResult", "SharePoint", "citation_scores", "normalized_scores",
            "pagerank_observed", "pagerank_reference", "share_curve",
        ),
        "refmodels": (
            "ContributionGroup", "ExpectedCitations", "ModelError", "compute_model",
            "homophilic_draws", "ks_distance", "observed_as_expectations",
            "preferential_draws", "random_draws", "structural_report",
        ),
        "synth": (
            "GenerationError", "OracleEstimate", "SynthConfig", "generate_network",
            "monte_carlo_oracle",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
