"""Command-line front end: corpus -> models -> imbalance / rankings.

Archives and model artifacts are plain directories of the documented
text formats plus a manifest, so every intermediate stays inspectable.
The one binary file is a model artifact's group table, ``groups.npz``
(numpy's uncompressed array archive, read with ``numpy.load``): ``model``
computes the table once and ``imbalance``, ``rank`` and ``report`` load
it instead of recomputing it.  Every command is a pure function of its
inputs, flags, and seed; reruns produce identical outputs (manifests
stamp SOURCE_DATE_EPOCH when set, wall-clock time otherwise).

Subcommands: ingest, model, imbalance, rank, synth, report.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
import zipfile
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (
    CitationNetwork,
    ConferenceRank,
    GenderCategory,
    IngestError,
    ParseError,
    load_network,
    write_citations,
    write_papers,
)
from .imbalance import (
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
    citation_scores,
    pagerank_observed,
    pagerank_reference,
    share_points,
    write_ranking_csv,
    write_share_csv,
)
from .refmodels import (
    DEFAULT_COUNT_TOL,
    ExpectedCitations,
    ModelError,
    StructuralReport,
    compute_model,
    group_table,
    structural_report,
)
from .synth import GenerationError, generate_network, load_config

log = logging.getLogger("citegap")

OUTPUT_DIR_ENV = "CITEGAP_OUTPUT_DIR"

PAPERS_FILE = "papers.tsv"
CITATIONS_FILE = "citations.tsv"
SUMMARY_FILE = "summary.json"
MANIFEST_FILE = "manifest.json"
CBAR_FILE = "c_bar.tsv"
MODEL_META_FILE = "model.json"
GROUPS_FILE = "groups.npz"
#: the arrays stored in GROUPS_FILE, one ``<name>.npy`` entry each
GROUP_ARRAYS = ("citing", "indptr", "indices", "target_ptr", "targets")


class CliError(Exception):
    """Fatal command error; the message goes to stderr, exit code 2."""


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        moment = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    else:
        moment = datetime.now(tz=timezone.utc)
    return moment.isoformat()


def _write_manifest(out_dir: Path, argv: list[str], inputs: dict[str, Path],
                    seed: int | None, **extra: object) -> None:
    manifest = {
        "command": argv,
        "inputs": {name: {"path": str(p), "sha256": _sha256(p)}
                   for name, p in sorted(inputs.items())},
        "seed": seed,
        "version": __version__,
        "timestamp": _timestamp(),
    }
    manifest.update(extra)
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


def _load_archive(path: str | Path) -> CitationNetwork:
    archive = Path(path)
    papers = archive / PAPERS_FILE
    citations = archive / CITATIONS_FILE
    for p in (papers, citations):
        if not p.is_file():
            raise CliError(f"archive {archive} is missing {p.name}")
    return load_network(papers, citations)


def _load_inputs(archive: Path, artifact: Path | None = None
                 ) -> tuple[CitationNetwork, ExpectedCitations | None, dict[str, Path]]:
    """The archive's network, the model artifact's expectations if an
    artifact is given, and the files both were read from (manifest inputs)."""
    net = _load_archive(archive)
    inputs = {"papers": archive / PAPERS_FILE, "citations": archive / CITATIONS_FILE}
    if artifact is None:
        return net, None, inputs
    ec = _load_model_artifact(archive, artifact, net)
    inputs.update(c_bar=artifact / CBAR_FILE, groups=artifact / GROUPS_FILE)
    return net, ec, inputs


def _network_summary(net: CitationNetwork) -> dict[str, object]:
    by_gender = {g.value: 0 for g in GenderCategory}
    by_rank = {r.value: 0 for r in ConferenceRank}
    for p in net.papers:
        by_gender[p.gender.value] += 1
        by_rank[p.rank.value] += 1
    return {
        "papers": net.n,
        "citations": net.m,
        "by_gender": by_gender,
        "by_rank": by_rank,
    }


def _write_archive(net: CitationNetwork, out: Path,
                   **extra: object) -> dict[str, object]:
    write_papers(net.papers, out / PAPERS_FILE)
    write_citations(net, out / CITATIONS_FILE)
    summary = {**_network_summary(net), **extra}
    with open(out / SUMMARY_FILE, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def cmd_ingest(args: argparse.Namespace, argv: list[str]) -> int:
    papers_path, citations_path = Path(args.papers), Path(args.citations)
    net = load_network(papers_path, citations_path)
    if net.m == 0:
        raise CliError("empty network: no citations survived filtering")
    out = _out_dir(args, args.out)
    summary = _write_archive(net, out, filter=net.filter_counts)
    _write_manifest(out, argv,
                    {"papers": papers_path, "citations": citations_path},
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
        return ("rank", "country", "topic")
    return tuple(a.strip() for a in text.split(",") if a.strip())


def _write_structural(report: StructuralReport, out: Path) -> None:
    with open(out / "report_degree_hist.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["out_degree", "papers"])
        for k, c in sorted(report.out_degree_hist.items()):
            writer.writerow([k, c])
    for attribute, pairs in report.pairwise.items():
        with open(out / f"report_pairs_{attribute}.csv", "w", encoding="utf-8",
                  newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["from_value", "to_value", "observed", "expected"])
            for a, la in enumerate(pairs.labels):
                for b, lb in enumerate(pairs.labels):
                    writer.writerow([la, lb, repr(float(pairs.observed[a, b])),
                                     repr(float(pairs.expected[a, b]))])
    with open(out / "report_survival.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["series", "threshold", "fraction"])
        series = [("observed", report.survival_observed),
                  ("expected", report.survival_expected)]
        for g, (obs, exp) in sorted(report.survival_by_gender.items()):
            series.append((f"observed_{g}", obs))
            series.append((f"expected_{g}", exp))
        for name, curve in series:
            for x, fraction in zip(curve.thresholds, curve.fraction):
                writer.writerow([name, repr(float(x)), repr(float(fraction))])


def _write_model_artifact(net: CitationNetwork, ec: ExpectedCitations,
                          archive: Path, out: Path, *, exact: bool,
                          count_tol: float) -> None:
    with open(out / CBAR_FILE, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(["paper_id", "c_bar"])
        for i, p in enumerate(net.papers):
            writer.writerow([p.id, repr(float(ec.c_bar[i]))])
    report = structural_report(net, ec)
    meta = {
        "model": ec.model,
        "attributes": list(ec.attributes),
        "exact": exact,
        "count_tol": count_tol,
        "n_papers": ec.n_papers,
        "n_citations": ec.n_citations,
        "ks_in_degree": report.ks_in_degree,
        "archive": {
            "papers_sha256": _sha256(archive / PAPERS_FILE),
            "citations_sha256": _sha256(archive / CITATIONS_FILE),
        },
    }
    with open(out / MODEL_META_FILE, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_structural(report, out)
    _write_groups(ec, out / GROUPS_FILE)


def _write_groups(ec: ExpectedCitations, path: Path) -> None:
    """Store the table's arrays uncompressed, each zip entry with the same
    fixed date, so the bytes depend on the arrays alone."""
    arrays = (ec.citing, ec.W.indptr, ec.W.indices, ec.target_ptr, ec.targets)
    with zipfile.ZipFile(path, "w") as zf:
        for name, array in zip(GROUP_ARRAYS, arrays):
            with zf.open(zipfile.ZipInfo(f"{name}.npy"), "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, array, allow_pickle=False)


def cmd_model(args: argparse.Namespace, argv: list[str]) -> int:
    archive = Path(args.archive)
    net, _, inputs = _load_inputs(archive)
    model = args.model.upper()
    if model == "RD" and args.attrs is not None:
        log.warning("--attrs is ignored by the random-draws model")
    attrs = () if model == "RD" else _parse_attrs(args.attrs)
    ec = compute_model(net, model, attrs, count_tol=args.count_tol, exact=args.exact)
    out = _out_dir(args, args.out)
    _write_model_artifact(net, ec, archive, out, exact=args.exact,
                          count_tol=args.count_tol)
    _write_manifest(out, argv, inputs, args.seed, model=model,
                    attributes=list(attrs))
    print(f"model {model} on {net.n} papers / {net.m} citations")
    return 0


def _read_model_meta(path: Path) -> dict:
    """model.json, schema-checked: the archive digests its artifact must
    match, and the model and attributes its group table is labelled with
    (``exact`` and ``count_tol`` record how the table was computed)."""
    try:
        with open(path, encoding="utf-8") as fh:
            meta = json.load(fh)
    except ValueError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc
    fields = meta if isinstance(meta, dict) else {}
    archive = fields.get("archive")
    attributes = fields.get("attributes")
    count_tol = fields.get("count_tol", DEFAULT_COUNT_TOL)
    if not (
        isinstance(archive, dict)
        and all(isinstance(archive.get(f"{name}_sha256"), str)
                for name in ("papers", "citations"))
        and isinstance(fields.get("model"), str)
        and isinstance(attributes, list)
        and all(isinstance(a, str) for a in attributes)
        and isinstance(fields.get("exact", False), bool)
        and isinstance(count_tol, (int, float)) and not isinstance(count_tol, bool)
    ):
        raise CliError(f"{path} needs string archive.papers_sha256, archive."
                       "citations_sha256 and model, a list of string attributes, "
                       "and optionally a boolean exact and a numeric count_tol")
    return meta


def _read_groups(path: Path, net: CitationNetwork) -> list[np.ndarray]:
    """The arrays of a stored group table, checked to form a table over
    the archive's papers whose (citer, target) pairs are its edges."""
    try:
        # np.load leaks its own handle when a zip turns out to be broken
        with open(path, "rb") as fh:
            npz = np.load(fh, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            with npz:
                arrays = [npz[name] for name in GROUP_ARRAYS]
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise CliError(f"{path} is not a readable group table: {exc}") from exc
    citing, indptr, indices, target_ptr, targets = arrays

    def check(ok: bool, what: str) -> None:
        if not ok:
            raise CliError(f"{path}: {what}")

    check(all(a.ndim == 1 and a.dtype.kind == "i" for a in arrays),
          f"{', '.join(GROUP_ARRAYS)} must be 1-D signed integer arrays")
    check(len(indptr) == len(target_ptr) == len(citing) + 1,
          "indptr and target_ptr need one entry per group plus one")
    # comparisons rather than differences, which could overflow
    for name, ptr, data, what in (("indptr", indptr, indices, "members"),
                                  ("target_ptr", target_ptr, targets, "targets")):
        check(ptr[0] == 0 and ptr[-1] == data.size and (ptr[1:] >= ptr[:-1]).all(),
              f"{name} must start at 0, never decrease and end at the number "
              f"of {what}")
        check((ptr[1:] > ptr[:-1]).all(), f"a group has no {what}")
    rising = indices[1:] > indices[:-1]
    rising[indptr[1:-1] - 1] = True  # a new group may start lower
    check(indices.size == 0 or (indices.min() >= 0 and indices.max() < net.n
                                and rising.all()),
          f"members must be paper indices below {net.n}, strictly increasing "
          "within each group")
    check((citing[1:] >= citing[:-1]).all(), "citing must be ascending")
    citers = np.repeat(citing, np.diff(target_ptr))
    order = np.lexsort((targets, citers))
    check(np.array_equal(np.column_stack((citers, targets))[order], net.edges),
          "its (citer, target) pairs are not the archive's citations")
    return arrays


def _read_c_bar(path: Path) -> dict[str, float]:
    stored = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter="\t")
        next(reader, None)
        for row in reader:
            if len(row) != 2:
                raise CliError(f"{path} line {reader.line_num}: expected 2 "
                               f"columns, got {len(row)}")
            try:
                stored[row[0]] = float(row[1])
            except ValueError as exc:
                raise CliError(f"{path} line {reader.line_num}: {exc}") from exc
    return stored


def _load_model_artifact(archive: Path, artifact: Path,
                         net: CitationNetwork) -> ExpectedCitations:
    """Load the group table of a model artifact, verified against the
    archive and against the stored c_bar, which it then carries."""
    for name in (MODEL_META_FILE, GROUPS_FILE, CBAR_FILE):
        if not (artifact / name).is_file():
            raise CliError(f"model artifact {artifact} is missing {name}")
    meta = _read_model_meta(artifact / MODEL_META_FILE)
    for name, digest in (("papers", meta["archive"]["papers_sha256"]),
                         ("citations", meta["archive"]["citations_sha256"])):
        actual = _sha256(archive / f"{name}.tsv")
        if actual != digest:
            raise CliError(
                f"model artifact {artifact} was built from a different archive "
                f"({name}.tsv digest mismatch)"
            )
    ec = group_table(meta["model"], tuple(meta["attributes"]), net.n,
                     *_read_groups(artifact / GROUPS_FILE, net))
    stored = _read_c_bar(artifact / CBAR_FILE)
    c_bar = np.array([stored.get(p.id, np.nan) for p in net.papers])
    if len(stored) != net.n or not (np.abs(c_bar - ec.c_bar) <= 1e-9).all():
        raise CliError(f"model artifact {artifact} is inconsistent with the archive "
                       f"({CBAR_FILE} is not the column sums of {GROUPS_FILE})")
    return replace(ec, c_bar=c_bar)


def cmd_imbalance(args: argparse.Namespace, argv: list[str]) -> int:
    net, ec, inputs = _load_inputs(Path(args.archive), Path(args.model_artifact))
    from_filter = PaperFilter.parse(args.from_)
    to_filter = PaperFilter.parse(args.to)
    for name, f in (("--from", from_filter), ("--to", to_filter)):
        if not any(f(p) for p in net.papers):
            log.warning("%s %r selects no papers; reports will be undefined",
                        name, f.description)
    seed = args.seed if args.seed is not None else 0
    if args.stratify == "none":
        reports = imbalance_report(net, ec, from_filter, to_filter,
                                   args.bootstrap, seed)
    else:
        stratifier = "conference_rank" if args.stratify == "rank" else "subfield"
        reports = stratified_imbalance(net, ec, stratifier, args.bootstrap, seed)
    out = _out_dir(args, args.out)
    write_report_csv(reports, out / "imbalance.csv")
    write_report_json(reports, out / "imbalance.json")
    _write_manifest(out, argv, inputs, seed, model=ec.model,
                    from_filter=from_filter.description,
                    to_filter=to_filter.description,
                    stratify=args.stratify, bootstrap=args.bootstrap)
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
    return grid


def cmd_rank(args: argparse.Namespace, argv: list[str]) -> int:
    artifact = None if args.model_artifact is None else Path(args.model_artifact)
    net, ec, inputs = _load_inputs(Path(args.archive), artifact)

    grid = _parse_d_grid(args.d_grid)
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
    _write_manifest(out, argv, inputs, args.seed, metric=args.metric,
                    source=result.source, d_grid=grid)
    print(f"{args.metric} ranking for source {result.source}: "
          f"converged={result.converged} iterations={result.iterations_used}")
    return 0


def cmd_synth(args: argparse.Namespace, argv: list[str]) -> int:
    config_path = Path(args.config)
    cfg = load_config(config_path)
    if args.seed is not None:
        cfg.seed = args.seed
    net = generate_network(cfg)
    out = _out_dir(args, args.out)
    summary = _write_archive(net, out)
    _write_manifest(out, argv, {"config": config_path}, cfg.seed)
    print(f"papers: {summary['papers']}")
    print(f"citations: {summary['citations']}")
    return 0


def cmd_report(args: argparse.Namespace, argv: list[str]) -> int:
    net, ec, inputs = _load_inputs(Path(args.archive), Path(args.model_artifact))
    report = structural_report(net, ec)
    out = _out_dir(args, args.out)
    _write_structural(report, out)
    _write_manifest(out, argv, inputs, args.seed, model=ec.model,
                    ks_in_degree=report.ks_in_degree)
    print(f"structural report for {ec.model}: KS(in-citations) = "
          f"{report.ks_in_degree:.4f}")
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

    p = sub.add_parser("model", help="compute a reference model on an archive")
    p.add_argument("archive")
    p.add_argument("out")
    p.add_argument("--model", required=True, choices=["rd", "hd", "pd"])
    p.add_argument("--attrs", default=None,
                   help="comma-joined attribute set for hd/pd "
                        "(default rank,country,topic)")
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
    p.add_argument("--stratify", choices=["none", "rank", "subfield"],
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

    p = sub.add_parser("report", help="structural comparison for a model artifact")
    p.add_argument("archive")
    p.add_argument("model_artifact")
    p.add_argument("out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, list(argv))
    except (CliError, ParseError, IngestError, ModelError, GenerationError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
