"""Command-line front end: corpus -> models -> imbalance / rankings.

Archives and model artifacts are plain directories of the documented
text formats plus a manifest, so every intermediate stays inspectable.
The one binary file is a model artifact's group table, ``groups.npz``
(numpy's uncompressed array archive, read with ``numpy.load``): ``model``
computes the table once, with its structural report, and ``imbalance``
and ``rank`` load it instead of recomputing it.  Its intervals are
positions in the model's eligibility index, which the loader rebuilds
from the archive and the attributes in ``model.json``.  Every command is
a pure function of its inputs, flags, and seed; reruns produce identical
outputs (manifests stamp SOURCE_DATE_EPOCH when set, wall-clock time
otherwise).

Subcommands: ingest, model, imbalance, rank, synth.
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
    ATTRIBUTE_ORDER,
    CitationNetwork,
    ConferenceRank,
    GenderCategory,
    IngestError,
    ParseError,
    load_network,
    write_citations,
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
    ExpectedCitations,
    ModelError,
    StructuralReport,
    compute_model,
    eligibility_index,
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
GROUP_ARRAYS = ("citing", "lo", "hi", "excluded_ptr", "excluded", "indptr", "indices",
                "target_ptr", "targets")
#: the arrays of the interval parts, left out of a table that has none
INTERVAL_ARRAYS = ("lo", "hi", "excluded_ptr", "excluded")
#: model.json ``format`` of the interval-coded GROUPS_FILE; artifacts
#: without the key hold explicit member lists only
GROUPS_FORMAT = 2
#: the table sizes model.json records, each checked against GROUPS_FILE
TABLE_COUNTS = ("groups", "member_entries", "intervals", "exclusions", "stored_entries")


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
    write_papers(net, out / PAPERS_FILE)
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
                          archive: Path, out: Path, *, exact: bool,
                          count_tol: float) -> None:
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
        **_table_counts(ec),
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


def _table_counts(ec: ExpectedCitations) -> dict[str, int]:
    """The TABLE_COUNTS of a group table."""
    return {"groups": len(ec.citing), "member_entries": ec.member_entries,
            "intervals": ec.intervals, "exclusions": ec.excluded.size,
            "stored_entries": ec.stored_entries}


def _write_groups(ec: ExpectedCitations, path: Path) -> None:
    """Store the table's arrays uncompressed, each zip entry with the same
    fixed date, so the bytes depend on the arrays alone; without intervals
    the INTERVAL_ARRAYS, all zeros, are left out."""
    with zipfile.ZipFile(path, "w") as zf:
        for name in GROUP_ARRAYS:
            if name in INTERVAL_ARRAYS and not ec.intervals:
                continue
            with zf.open(zipfile.ZipInfo(f"{name}.npy"), "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, getattr(ec, name), allow_pickle=False)


def cmd_model(args: argparse.Namespace, argv: list[str]) -> int:
    archive = Path(args.archive)
    net, _, inputs = _load_inputs(archive)
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
    _write_model_artifact(net, ec, archive, out, exact=args.exact,
                          count_tol=args.count_tol)
    _write_manifest(out, argv, inputs, args.seed, model=model,
                    attributes=list(attrs))
    print(f"model {model} on {net.n} papers / {net.m} citations")
    for name, count in _table_counts(ec).items():
        print(f"{name.replace('_', ' ')}: {count}")
    return 0


def _read_model_meta(path: Path) -> dict:
    """model.json, schema-checked: the archive digests its artifact must
    match, the model and attributes its group table is labelled with, and
    the table's format and sizes (``exact`` and ``count_tol`` record how
    the table was computed)."""
    try:
        with open(path, encoding="utf-8") as fh:
            meta = json.load(fh)
    except ValueError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc
    fields = meta if isinstance(meta, dict) else {}
    if fields.get("format") != GROUPS_FORMAT:
        found = f"format {fields['format']!r}" if "format" in fields else "no format"
        raise CliError(f"{path} has {found}, not format {GROUPS_FORMAT}: the artifact "
                       "was written by another citegap version; rerun model")
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
        and all(isinstance(fields.get(name), int) and not isinstance(fields[name], bool)
                for name in TABLE_COUNTS)
        and isinstance(fields.get("exact", False), bool)
        and isinstance(count_tol, (int, float)) and not isinstance(count_tol, bool)
    ):
        raise CliError(f"{path} needs string archive.papers_sha256, archive."
                       "citations_sha256 and model, a list of string attributes, "
                       f"integer {', '.join(TABLE_COUNTS)}, and optionally a "
                       "boolean exact and a numeric count_tol")
    return meta


def _rising(values: np.ndarray, ptr: np.ndarray) -> bool:
    """Whether ``values`` strictly increase within each group of ``ptr``."""
    rising = values[1:] > values[:-1]
    # a new group may start lower
    starts = ptr[1:-1]
    rising[starts[(starts > 0) & (starts < values.size)] - 1] = True
    return bool(rising.all())


def _read_groups(path: Path, net: CitationNetwork, order: np.ndarray,
                 categories: np.ndarray) -> list[np.ndarray]:
    """The arrays of a stored group table, checked to form a table over
    the archive's papers and the eligibility index ``order`` (whose
    category codes are ``categories``), and whose (citer, target) pairs
    are the archive's edges."""
    try:
        # np.load leaks its own handle when a zip turns out to be broken
        with open(path, "rb") as fh:
            npz = np.load(fh, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            with npz:
                intervals = not set(INTERVAL_ARRAYS).isdisjoint(npz.files)
                stored = {name: npz[name] for name in GROUP_ARRAYS
                          if intervals or name not in INTERVAL_ARRAYS}
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise CliError(f"{path} is not a readable group table: {exc}") from exc
    if not intervals:
        groups = len(stored["citing"])
        stored.update(lo=np.zeros(groups, np.int64), hi=np.zeros(groups, np.int64),
                      excluded_ptr=np.zeros(groups + 1, np.int64),
                      excluded=np.zeros(0, np.int64))
    arrays = [stored[name] for name in GROUP_ARRAYS]
    citing, lo, hi, excluded_ptr, excluded, indptr, indices, target_ptr, targets = arrays

    def check(ok: bool, what: str) -> None:
        if not ok:
            raise CliError(f"{path}: {what}")

    check(all(a.ndim == 1 and a.dtype.kind == "i" for a in arrays),
          f"{', '.join(GROUP_ARRAYS)} must be 1-D signed integer arrays")
    groups = len(citing)
    check(len(lo) == len(hi) == groups
          and len(excluded_ptr) == len(indptr) == len(target_ptr) == groups + 1,
          "lo and hi need one entry per group, excluded_ptr, indptr and target_ptr "
          "one more")
    # comparisons rather than differences, which could overflow
    for name, ptr, data, what in (("excluded_ptr", excluded_ptr, excluded, "exclusions"),
                                  ("indptr", indptr, indices, "members"),
                                  ("target_ptr", target_ptr, targets, "targets")):
        check(ptr[0] == 0 and ptr[-1] == data.size and (ptr[1:] >= ptr[:-1]).all(),
              f"{name} must start at 0, never decrease and end at the number "
              f"of {what}")
    check((target_ptr[1:] > target_ptr[:-1]).all(), "a group has no targets")
    n = net.n
    check(((lo >= 0) & (lo <= hi) & (hi <= n)).all(),
          f"intervals must satisfy 0 <= lo <= hi <= {n}")
    n_excluded = np.diff(excluded_ptr)
    check((hi - lo - n_excluded + np.diff(indptr) > 0).all(), "a group has no members")
    spans = hi > lo
    check((categories[lo[spans]] == categories[hi[spans] - 1]).all(),
          "an interval spans more than one category of the eligibility index")
    owner = np.repeat(np.arange(groups), n_excluded)
    check(((excluded >= lo[owner]) & (excluded < hi[owner])).all(),
          "every exclusion must lie inside its group's interval")
    check(_rising(excluded, excluded_ptr),
          "exclusions must be strictly increasing within each group")
    check(indices.size == 0 or (indices.min() >= 0 and indices.max() < n
                                and _rising(indices, indptr)),
          f"members must be paper indices below {n}, strictly increasing "
          "within each group")
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    owner = np.repeat(np.arange(groups), np.diff(indptr))
    check(not ((position[indices] >= lo[owner]) & (position[indices] < hi[owner])).any(),
          "explicit members must lie outside their group's interval")
    check((citing[1:] >= citing[:-1]).all(), "citing must be ascending")
    citers = np.repeat(citing, np.diff(target_ptr))
    sort = np.lexsort((targets, citers))
    check(np.array_equal(np.column_stack((citers, targets))[sort], net.edges),
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
    order, categories = eligibility_index(net, meta["attributes"])
    ec = group_table(meta["model"], tuple(meta["attributes"]), order,
                     *_read_groups(artifact / GROUPS_FILE, net, order, categories))
    for name, count in _table_counts(ec).items():
        if meta[name] != count:
            raise CliError(f"model artifact {artifact}: {MODEL_META_FILE} records "
                           f"{meta[name]} {name}, {GROUPS_FILE} holds {count}")
    stored = _read_c_bar(artifact / CBAR_FILE)
    c_bar = np.array([stored.get(pid, np.nan) for pid in net.ids.tolist()])
    if len(stored) != net.n or not (np.abs(c_bar - ec.c_bar) <= 1e-9).all():
        raise CliError(f"model artifact {artifact} is inconsistent with the archive "
                       f"({CBAR_FILE} is not the column sums of {GROUPS_FILE})")
    return replace(ec, c_bar=c_bar)


def cmd_imbalance(args: argparse.Namespace, argv: list[str]) -> int:
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
    _write_manifest(out, argv, inputs, seed, model=ec.model,
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
    return grid


def cmd_rank(args: argparse.Namespace, argv: list[str]) -> int:
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
    _write_manifest(out, argv, inputs, args.seed, metric=args.metric,
                    source=result.source, d_grid=grid,
                    iterations={k: r.iterations_used for k, r in roles.items()},
                    final_residual={k: r.final_residual for k, r in roles.items()},
                    converged={k: r.converged for k, r in roles.items()})
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
        return args.func(args, list(argv))
    except (CliError, ParseError, IngestError, ModelError, GenerationError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
