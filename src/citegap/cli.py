"""Command-line front end: corpus -> models -> imbalance / rankings.

Archives and model artifacts are plain directories of the documented
text formats plus a manifest, so every intermediate stays inspectable.
Two files are binary, numpy's uncompressed array archives (read with
``numpy.load``), each written once and loaded by the later commands:

* an archive's ``network.npz``, the network parsed from its tables with
  their digests: ``model``, ``imbalance`` and ``rank`` load it instead of
  parsing the tables when it holds the digests the tables have now, and
  read the tables otherwise (after one warning when it cannot be read);
  its format and checks belong to :mod:`citegap.corpus`
  (``write_network``, ``read_network``);
* a model artifact's ``groups.npz``: ``model`` computes the model once
  and stores its group table there with its name, attributes, archive
  digests and ``c_bar``; it is all ``imbalance`` and ``rank`` read of
  the artifact, instead of recomputing the model.  Its format and checks
  belong to :mod:`citegap.refmodels` (``write_groups``, ``read_groups``).
  ``c_bar.tsv``, ``model.json`` and the structural report beside it are
  reports, written by ``model`` and read by no command.

This module owns the file names and ``model.json``.  Every command is a
pure function of its inputs, flags, and seed; reruns produce identical
outputs (manifests stamp SOURCE_DATE_EPOCH when set, wall-clock time
otherwise).

Subcommands: ingest, model, imbalance, rank, synth.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (
    ATTRIBUTE_ORDER,
    CitationNetwork,
    ConferenceRank,
    GenderCategory,
    NetworkFileError,
    load_network,
    read_network,
    write_citations,
    write_network,
    write_papers,
    write_table,
)
from .imbalance import (
    ALL_PAPERS,
    STRATIFIERS,
    PaperFilter,
    imbalance_report,
    stratified_imbalance,
    write_report_csv,
    write_report_json,
)
from .ranking import (
    DEFAULT_ALPHA,
    DEFAULT_EPS,
    DEFAULT_T_MAX,
    check_pagerank_parameters,
    citation_scores,
    pagerank_observed,
    pagerank_reference,
    share_points,
    write_ranking_csv,
    write_share_csv,
)
from .refmodels import (
    DEFAULT_COUNT_TOL,
    GROUPS_FORMAT,
    ExpectedCitations,
    StructuralReport,
    compute_model,
    read_groups,
    structural_report,
    write_groups,
)
from .synth import generate_network, load_config

log = logging.getLogger("citegap")

OUTPUT_DIR_ENV = "CITEGAP_OUTPUT_DIR"
#: when set, the whole seconds since 1970 that every manifest stamps
EPOCH_ENV = "SOURCE_DATE_EPOCH"

PAPERS_FILE = "papers.tsv"
CITATIONS_FILE = "citations.tsv"
SUMMARY_FILE = "summary.json"
MANIFEST_FILE = "manifest.json"
CBAR_FILE = "c_bar.tsv"
MODEL_META_FILE = "model.json"
GROUPS_FILE = "groups.npz"
NETWORK_FILE = "network.npz"


class CliError(Exception):
    """Fatal command error; the message goes to stderr, exit code 2."""


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _timestamp() -> str:
    """The manifests' timestamp: EPOCH_ENV when set, the time now otherwise.
    EPOCH_ENV holds an integer in ASCII digits, with an optional minus."""
    epoch = os.environ.get(EPOCH_ENV)
    if epoch is None:
        return datetime.now(tz=timezone.utc).isoformat()
    try:
        if not re.fullmatch("-?[0-9]+", epoch):
            raise ValueError(epoch)
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError) as exc:
        raise CliError(f"{EPOCH_ENV} must be whole seconds since 1970-01-01 "
                       f"within the years 1 to 9999, got {epoch!r}") from exc


def _inputs(**paths: Path) -> dict[str, dict[str, str]]:
    """The manifest's record of each input file: its path and SHA-256.  A
    command hashes each of its inputs once, here, and reads the digests of
    its archive from these records."""
    return {name: {"path": str(p), "sha256": _sha256(p)} for name, p in paths.items()}


def _write_manifest(out_dir: Path, header: dict[str, object],
                    inputs: dict[str, dict[str, str]], seed: int | None,
                    **extra: object) -> None:
    """``header`` holds the keys every command's manifest shares (see main);
    ``inputs`` are the records of :func:`_inputs`."""
    manifest = {
        **header,
        "inputs": dict(sorted(inputs.items())),
        "seed": seed,
        **extra,
    }
    with open(out_dir / MANIFEST_FILE, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(args: argparse.Namespace, out: str) -> Path:
    base = Path(args.output_dir)
    path = Path(out)
    if not path.is_absolute():
        path = base / path
    path.mkdir(parents=True, exist_ok=True)
    return path


def _archive_inputs(archive: Path) -> dict[str, dict[str, str]]:
    """The :func:`_inputs` records of the archive's tables, which must exist."""
    tables = {"papers": archive / PAPERS_FILE, "citations": archive / CITATIONS_FILE}
    for p in tables.values():
        if not p.is_file():
            raise CliError(f"archive {archive} is missing {p.name}")
    return _inputs(**tables)


def _load_archive(archive: Path, inputs: dict[str, dict[str, str]]) -> CitationNetwork:
    """The archive's network: the one its ``network.npz`` stores when that
    was stored for the tables the records ``inputs`` (of
    :func:`_archive_inputs`) digest, else the tables parsed.  A
    ``network.npz`` that cannot be read draws a warning."""
    if (archive / NETWORK_FILE).is_file():
        try:
            net = read_network(archive / NETWORK_FILE, inputs["papers"]["sha256"],
                               inputs["citations"]["sha256"])
        except NetworkFileError as exc:
            log.warning("%s; reading the tables instead", exc)
        else:
            if net is not None:
                return net
    return load_network(archive / PAPERS_FILE, archive / CITATIONS_FILE)


def _load_inputs(archive: Path, artifact: Path | None = None
                 ) -> tuple[CitationNetwork, ExpectedCitations | None, dict[str, dict[str, str]]]:
    """The archive's network, the model artifact's expectations if an
    artifact is given, and the records of the files both were read from
    (manifest inputs, see :func:`_inputs`).  Of an artifact only
    ``groups.npz`` is read, checked against the archive by
    :func:`read_groups`."""
    inputs = _archive_inputs(archive)
    net = _load_archive(archive, inputs)
    if artifact is None:
        return net, None, inputs
    groups = artifact / GROUPS_FILE
    if not groups.is_file():
        raise CliError(f"model artifact {artifact} is missing {GROUPS_FILE}")
    ec = read_groups(groups, net, inputs["papers"]["sha256"], inputs["citations"]["sha256"])
    inputs.update(_inputs(groups=groups))
    return net, ec, inputs


def _network_summary(net: CitationNetwork) -> dict[str, object]:
    genders = np.bincount(net.gender_codes, minlength=len(GenderCategory))
    by_gender = {g.value: int(c) for g, c in zip(GenderCategory, genders)}
    codes, labels = net.attribute_codes("rank")
    by_rank = dict.fromkeys((r.value for r in ConferenceRank), 0)
    by_rank.update(zip(labels, np.bincount(codes, minlength=len(labels)).tolist()))
    return {
        "papers": net.n,
        "citations": net.m,
        "by_gender": by_gender,
        "by_rank": by_rank,
    }


def _write_archive(net: CitationNetwork, out: Path,
                   **extra: object) -> dict[str, object]:
    """Write the archive's tables, ``network.npz`` (the network parsed
    from them, with their digests) and ``summary.json``."""
    write_papers(net, out / PAPERS_FILE)
    write_citations(net, out / CITATIONS_FILE)
    write_network(net, out / NETWORK_FILE, _sha256(out / PAPERS_FILE),
                  _sha256(out / CITATIONS_FILE))
    summary = {**_network_summary(net), **extra}
    with open(out / SUMMARY_FILE, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def cmd_ingest(args: argparse.Namespace, header: dict[str, object]) -> int:
    papers_path, citations_path = Path(args.papers), Path(args.citations)
    net = load_network(papers_path, citations_path)
    if net.m == 0:
        raise CliError("empty network: no citations survived filtering")
    out = _out_dir(args, args.out)
    summary = _write_archive(net, out, filter=net.filter_counts)
    _write_manifest(out, header, _inputs(papers=papers_path, citations=citations_path),
                    args.seed)
    print(f"papers: {summary['papers']}")
    print(f"citations: {summary['citations']}")
    for g, count in summary["by_gender"].items():
        print(f"gender {g}: {count}")
    for rule, count in net.filter_counts.items():
        print(f"filter {rule}: {count}")
    return 0


def _parse_attrs(text: str | None) -> tuple[str, ...]:
    if text is None:
        return ATTRIBUTE_ORDER
    return tuple(a.strip() for a in text.split(",") if a.strip())


def _write_structural(report: StructuralReport, out: Path) -> None:
    hist = sorted(report.out_degree_hist.items())
    write_table(out / "report_degree_hist.csv", ("out_degree", "papers"),
                zip(*((str(k), str(c)) for k, c in hist)), ",")
    for attribute, pairs in report.pairwise.items():
        cells = [(la, lb, repr(float(pairs.observed[a, b])), repr(float(pairs.expected[a, b])))
                 for a, la in enumerate(pairs.labels) for b, lb in enumerate(pairs.labels)]
        write_table(out / f"report_pairs_{attribute}.csv",
                    ("from_value", "to_value", "observed", "expected"), zip(*cells), ",")
    series = [("observed", report.survival_observed),
              ("expected", report.survival_expected)]
    for g, (obs, exp) in sorted(report.survival_by_gender.items()):
        series.append((f"observed_{g}", obs))
        series.append((f"expected_{g}", exp))
    points = [(name, repr(float(x)), repr(float(fraction)))
              for name, curve in series
              for x, fraction in zip(curve.thresholds, curve.fraction)]
    write_table(out / "report_survival.csv", ("series", "threshold", "fraction"),
                zip(*points), ",")


def _write_model_artifact(net: CitationNetwork, ec: ExpectedCitations,
                          archive: dict[str, dict[str, str]], out: Path, *, exact: bool,
                          count_tol: float) -> None:
    """Write the artifact of ``ec``: ``groups.npz``, all that ``imbalance``
    and ``rank`` read of it, and ``c_bar.tsv``, ``model.json`` and the
    structural report as reports.  ``archive`` holds the :func:`_inputs`
    records of the archive's papers and citations, whose digests
    ``groups.npz`` and ``model.json`` keep."""
    digests = {f"{name}_sha256": archive[name]["sha256"] for name in ("papers", "citations")}
    write_table(out / CBAR_FILE, ("paper_id", "c_bar"),
                (net.ids.tolist(), list(map(repr, ec.c_bar.tolist()))))
    report = structural_report(net, ec)
    meta = {
        "format": GROUPS_FORMAT,
        "model": ec.model,
        "attributes": list(ec.attributes),
        "exact": exact,
        "count_tol": count_tol,
        "n_papers": ec.n_papers,
        "n_citations": ec.n_citations,
        **ec.table_counts,
        "ks_in_degree": report.ks_in_degree,
        "archive": digests,
    }
    with open(out / MODEL_META_FILE, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_structural(report, out)
    write_groups(ec, out / GROUPS_FILE, **digests)


def cmd_model(args: argparse.Namespace, header: dict[str, object]) -> int:
    net, _, inputs = _load_inputs(Path(args.archive))
    model = args.model.upper()
    # model.json records every flag, also those this model does not read
    ignored = [flag for flag, unread in (
        ("--attrs", model == "RD" and args.attrs is not None),
        ("--exact", model != "PD" and args.exact),
        ("--count-tol", model != "PD" and args.count_tol != DEFAULT_COUNT_TOL)) if unread]
    if ignored:
        log.warning("%s ignored by the %s model", " and ".join(ignored), model)
    attrs = () if model == "RD" else _parse_attrs(args.attrs)
    ec = compute_model(net, model, attrs, count_tol=args.count_tol, exact=args.exact)
    out = _out_dir(args, args.out)
    _write_model_artifact(net, ec, inputs, out, exact=args.exact,
                          count_tol=args.count_tol)
    _write_manifest(out, header, inputs, args.seed, model=model,
                    attributes=list(attrs))
    print(f"model {model} on {net.n} papers / {net.m} citations")
    for name, count in ec.table_counts.items():
        print(f"{name.replace('_', ' ')}: {count}")
    return 0


def cmd_imbalance(args: argparse.Namespace, header: dict[str, object]) -> int:
    if args.bootstrap < 0 or args.bootstrap == 1:
        raise CliError("--bootstrap must be 0 (no CIs) or at least 2, "
                       f"got {args.bootstrap}")
    from_filter = PaperFilter.parse(args.from_)
    to_filter = PaperFilter.parse(args.to)
    if args.stratify != "none" and (from_filter, to_filter) != (ALL_PAPERS, ALL_PAPERS):
        raise CliError("--stratify cannot be combined with --from or --to: each "
                       "stratum is the cited selection, over all citing papers")
    net, ec, inputs = _load_inputs(Path(args.archive), Path(args.model_artifact))
    for name, f in (("--from", from_filter), ("--to", to_filter)):
        if not f.mask(net).any():
            log.warning("%s %r selects no papers; reports will be undefined",
                        name, f.description)
    seed = args.seed if args.seed is not None else 0
    if args.stratify == "none":
        reports = imbalance_report(net, ec, from_filter, to_filter,
                                   args.bootstrap, seed)
    else:
        reports = stratified_imbalance(net, ec, args.stratify, args.bootstrap, seed)
    out = _out_dir(args, args.out)
    write_report_csv(reports, out / "imbalance.csv")
    write_report_json(reports, out / "imbalance.json")
    # per category (and stratum, when stratified), the defined resamples
    defined: dict[str, object] = {}
    for r in reports:
        block = defined if r.stratum is None else defined.setdefault(r.stratum, {})
        block[r.gender.value] = r.resamples_defined
    _write_manifest(out, header, inputs, seed, model=ec.model,
                    from_filter=from_filter.description,
                    to_filter=to_filter.description,
                    stratify=args.stratify, bootstrap=args.bootstrap,
                    resamples_defined=defined)
    for r in reports:
        label = f"{r.gender.value}" + (f" [{r.stratum}]" if r.stratum else "")
        if r.over_under is None:
            print(f"{label}: undefined (expected 0)")
        else:
            ci = ""
            if r.ci_low is not None:
                ci = f" (95% CI [{r.ci_low:+.4f}, {r.ci_high:+.4f}])"
            print(f"{label}: {r.over_under:+.4%}{ci}")
    return 0


def _parse_d_grid(text: str) -> list[float]:
    try:
        grid = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise CliError(f"bad --d-grid {text!r}") from exc
    if not grid or any(not 0 < d <= 100 for d in grid):
        raise CliError("--d-grid values must be in (0, 100]")
    if len(set(grid)) < len(grid):
        raise CliError(f"--d-grid values must be distinct, got {text!r}")
    return grid


def cmd_rank(args: argparse.Namespace, header: dict[str, object]) -> int:
    # checked for either metric, so no bad value is written to a manifest
    check_pagerank_parameters(args.alpha, args.eps, args.t_max)
    grid = _parse_d_grid(args.d_grid)
    artifact = None if args.model_artifact is None else Path(args.model_artifact)
    net, ec, inputs = _load_inputs(Path(args.archive), artifact)
    # the observed ranking, then the model's; rankings.csv holds the last
    if args.metric == "pagerank":
        results = [pagerank_observed(net, args.alpha, args.eps, args.t_max)]
        if ec is not None:
            results.append(pagerank_reference(ec, net, args.alpha, args.eps, args.t_max))
    else:
        results = [citation_scores(net)] + ([] if ec is None else [citation_scores(net, ec)])
    result = results[-1]
    points = share_points(results, net, grid)
    out = _out_dir(args, args.out)
    write_ranking_csv(result, net, out / "rankings.csv")
    write_share_csv(points, out / "share_curve.csv")
    # per ranking, keyed "observed" and "model": how its scores were reached
    roles = dict(zip(("observed", "model"), results))
    _write_manifest(out, header, inputs, args.seed, metric=args.metric,
                    source=result.source, d_grid=grid,
                    iterations={k: r.iterations_used for k, r in roles.items()},
                    final_residual={k: r.final_residual for k, r in roles.items()},
                    converged={k: r.converged for k, r in roles.items()})
    print(f"{args.metric} ranking for source {result.source}: "
          f"converged={result.converged} iterations={result.iterations_used}")
    return 0


def cmd_synth(args: argparse.Namespace, header: dict[str, object]) -> int:
    config_path = Path(args.config)
    cfg = load_config(config_path)
    if args.seed is not None:
        cfg.seed = args.seed
    net = generate_network(cfg)
    out = _out_dir(args, args.out)
    summary = _write_archive(net, out)
    _write_manifest(out, header, _inputs(config=config_path), cfg.seed)
    print(f"papers: {summary['papers']}")
    print(f"citations: {summary['citations']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citegap",
        description="Quantify group imbalance in citation networks against "
                    "draw-based reference models.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for stochastic steps (default 0; overrides "
                             "the synth config seed)")
    parser.add_argument("--output-dir",
                        default=os.environ.get(OUTPUT_DIR_ENV, "."),
                        help=f"base directory for relative outputs "
                             f"(default: ${OUTPUT_DIR_ENV} or '.')")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="filter raw tables into a network archive")
    p.add_argument("papers")
    p.add_argument("citations")
    p.add_argument("out")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("model", help="compute a reference model on an archive, "
                                     "with its structural report")
    p.add_argument("archive")
    p.add_argument("out")
    p.add_argument("--model", required=True, choices=["rd", "hd", "pd"])
    p.add_argument("--attrs", default=None,
                   help="comma-joined attribute set for hd/pd "
                        f"(default {','.join(ATTRIBUTE_ORDER)})")
    p.add_argument("--exact", action="store_true",
                   help="exact-rational running counts for pd")
    p.add_argument("--count-tol", type=float, default=DEFAULT_COUNT_TOL,
                   help="pd count-equality tolerance in float mode")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("imbalance", help="observed vs expected citations per "
                                         "gender category")
    p.add_argument("archive")
    p.add_argument("model_artifact")
    p.add_argument("out")
    p.add_argument("--from", dest="from_", default="all",
                   help="citing-paper filter, e.g. gender=WW")
    p.add_argument("--to", default="all", help="cited-paper filter")
    p.add_argument("--bootstrap", type=int, default=500,
                   help="bootstrap resamples (0 disables CIs)")
    p.add_argument("--stratify", choices=["none", *STRATIFIERS],
                   default="none")
    p.set_defaults(func=cmd_imbalance)

    p = sub.add_parser("rank", help="impact scores and top-share curves")
    p.add_argument("archive")
    p.add_argument("out")
    p.add_argument("--model-artifact", default=None)
    p.add_argument("--metric", choices=["citations", "pagerank"],
                   default="citations")
    p.add_argument("--d-grid", default="1,5,10,20,50,100")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--t-max", type=int, default=DEFAULT_T_MAX)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("config")
    p.add_argument("out")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # read before any work, so a bad epoch leaves no output behind
        header = {"command": list(argv), "version": __version__,
                  "timestamp": _timestamp()}
        return args.func(args, header)
    except (CliError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
