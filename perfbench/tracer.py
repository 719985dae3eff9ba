"""Traced in-process pipeline runs and the per-layer metrics they give.

The tracer wraps public functions of ``citegap``'s modules from the
outside: each original function is replaced, at its module attribute and
at every other ``citegap`` module attribute bound to it (for example the
names ``citegap.cli`` imports), by a wrapper that records a span.  So a
nested call such as ``share_curve -> pagerank_reference`` is caught.
Spans are kept in memory and written once, when the run ends; self
times are derived from them afterwards.

Run as a script, this module is the traced child process: it imports
``citegap`` from the given source tree, runs the pipeline alternately
untraced and traced through ``citegap.cli.main(argv)`` until its time is
up, measures the first access of the network's lazy index once, and
writes everything to a JSON file.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

#: functions wrapped, per module; the cli layer is traced per command
TRACED = {
    "corpus": ("read_papers", "read_citations", "filter_citations", "load_network"),
    "refmodels": ("compute_model", "structural_report"),
    "imbalance": ("imbalance_report", "stratified_imbalance", "observed_by_gender",
                  "expected_by_gender", "bootstrap_ci"),
    "ranking": ("pagerank_observed", "pagerank_reference", "citation_scores",
                "normalized_scores", "share_curve", "write_ranking_csv",
                "write_share_csv"),
    "synth": ("load_config", "generate_network"),
}

#: lazy per-network index built on first access (corpus.index_s)
INDEX_PROPERTIES = ("out_targets", "dates", "window_floors", "author_codes",
                    "gender_codes")

COMMANDS = ("synth", "ingest", "model", "imbalance", "rank")

# name, unit, better.  Every *_s metric of a function is its self time,
# summed over the pipeline; counts are per pipeline.
PER_LAYER = (
    ("corpus.parse_s", "s", "lower"),
    ("corpus.filter_s", "s", "lower"),
    ("corpus.edges_per_s", "1/s", "higher"),
    ("corpus.index_s", "s", "lower"),
    ("corpus.raw_edges", "count", "higher"),
    ("corpus.kept_edges", "count", "higher"),
    ("corpus.kept_ratio", "ratio", "higher"),
    ("corpus.papers_kept", "count", "higher"),
    ("corpus.self_s", "s", "lower"),
    ("refmodels.rd_s", "s", "lower"),
    ("refmodels.hd_s", "s", "lower"),
    ("refmodels.pd_s", "s", "lower"),
    ("refmodels.structural_s", "s", "lower"),
    ("refmodels.model_calls", "count", "lower"),
    ("refmodels.groups", "count", "lower"),
    ("refmodels.member_entries", "count", "lower"),
    ("refmodels.member_mb", "MB", "lower"),
    ("refmodels.entries_per_citation", "ratio", "lower"),
    ("refmodels.self_s", "s", "lower"),
    ("imbalance.observed_s", "s", "lower"),
    ("imbalance.expected_s", "s", "lower"),
    ("imbalance.bootstrap_s", "s", "lower"),
    ("imbalance.resamples", "count", "higher"),
    ("imbalance.resamples_per_s", "1/s", "higher"),
    ("imbalance.group_passes", "count", "lower"),
    ("imbalance.self_s", "s", "lower"),
    ("ranking.pagerank_reference_s", "s", "lower"),
    ("ranking.pagerank_observed_s", "s", "lower"),
    ("ranking.pagerank_calls", "count", "lower"),
    ("ranking.pagerank_iterations", "count", "lower"),
    ("ranking.pagerank_converged", "count", "higher"),
    ("ranking.normalize_s", "s", "lower"),
    ("ranking.share_curve_s", "s", "lower"),
    ("ranking.write_s", "s", "lower"),
    ("ranking.self_s", "s", "lower"),
    ("synth.generate_s", "s", "lower"),
    ("synth.self_s", "s", "lower"),
    *((f"cli.{c}.{m}", u, "lower") for c in COMMANDS
      for m, u in (("total_s", "s"), ("self_s", "s"), ("output_bytes", "B"))),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Spans as ``[name, start, end, parent, pipeline, attrs]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.pipeline = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.pipeline, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec[5]
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
            # observed after the span ends, so its cost is not counted
            if observe is not None:
                attrs.update(observe(fn, args, kwargs, result))
            return result
        return wrapper


def _network(fn, args, kwargs, net):
    return {"papers": net.n, "edges": net.m}


def _model(fn, args, kwargs, ec):
    return {"model": ec.model, "groups": len(ec.groups),
            "member_entries": sum(g.members.size for g in ec.groups),
            "citations": ec.n_citations}


def _bootstrap(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"resamples": bound.arguments["resamples"]}


def _pagerank(fn, args, kwargs, result):
    return {"iterations": result.iterations_used, "converged": bool(result.converged)}


OBSERVERS = {
    "corpus.read_citations": lambda fn, a, k, rows: {"rows": len(rows)},
    "corpus.filter_citations": _network,
    "refmodels.compute_model": _model,
    "imbalance.bootstrap_ci": _bootstrap,
    "ranking.pagerank_observed": _pagerank,
    "ranking.pagerank_reference": _pagerank,
}


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every TRACED function wherever a citegap module binds it;
    returns what :func:`uninstall` needs to put the originals back."""
    wrappers = {}
    for module, names in TRACED.items():
        mod = sys.modules[f"citegap.{module}"]
        for name in names:
            fn = getattr(mod, name)
            span = f"{module}.{name}"
            wrappers[id(fn)] = (fn, tracer.wrap(fn, span, OBSERVERS.get(span)))
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "citegap" and not modname.startswith("citegap."):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                setattr(mod, attr, wrappers[id(value)][1])
                patched.append((mod, attr, value))
    return patched


def uninstall(patched) -> None:
    for mod, attr, original in patched:
        setattr(mod, attr, original)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_pipeline(main, commands: list[dict], pipe_dir: Path, seed: int,
                 tracer: Tracer | None = None) -> list[dict]:
    """Run each command in-process through ``citegap.cli.main``."""
    pipe_dir.mkdir(parents=True)
    os.chdir(pipe_dir)
    results = []
    for cmd in commands:
        argv = ["--seed", str(seed), *cmd["argv"]]
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                if tracer is None:
                    code = main(argv)
                else:
                    with tracer.span(f"cli.{cmd['name']}"):
                        code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed operation, not a crash
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - start
        target = pipe_dir / cmd["out"]
        results.append({"name": cmd["name"], "code": code, "stdout": out.getvalue(),
                        "wall": wall,
                        "bytes": dir_bytes(target) if target.is_dir() else 0})
    return results


def self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def pipeline_metrics(spans: list[list], traced: list[dict], plain: list[dict],
                     index_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline (``spans`` holds only its
    spans, indexed from 0)."""
    selfs = self_times(spans)

    def top(i: int) -> str:
        while spans[i][3] >= 0:
            i = spans[i][3]
        return spans[i][0]

    def self_of(*names: str) -> float:
        return sum(t for s, t in zip(spans, selfs) if s[0] in names)

    def layer_self(layer: str) -> float:
        return sum(t for s, t in zip(spans, selfs) if s[0].startswith(layer + "."))

    def calls(name: str, command: str | None = None) -> list[dict]:
        return [s[5] for i, s in enumerate(spans)
                if s[0] == name and (command is None or top(i) == f"cli.{command}")]

    m: dict[str, float] = {}
    parse_s = self_of("corpus.read_papers", "corpus.read_citations")
    filter_s = self_of("corpus.filter_citations")
    rows = sum(a["rows"] for a in calls("corpus.read_citations"))
    ingest_rows = sum(a["rows"] for a in calls("corpus.read_citations", "ingest"))
    ingest_net = calls("corpus.filter_citations", "ingest")
    kept = ingest_net[0]["edges"] if ingest_net else 0
    m["corpus.parse_s"] = parse_s
    m["corpus.filter_s"] = filter_s
    m["corpus.edges_per_s"] = rows / (parse_s + filter_s) if parse_s + filter_s else 0.0
    m["corpus.index_s"] = index_s
    m["corpus.raw_edges"] = ingest_rows
    m["corpus.kept_edges"] = kept
    m["corpus.kept_ratio"] = kept / ingest_rows if ingest_rows else 0.0
    m["corpus.papers_kept"] = ingest_net[0]["papers"] if ingest_net else 0
    m["corpus.self_s"] = layer_self("corpus")

    models = [(s, t) for s, t in zip(spans, selfs) if s[0] == "refmodels.compute_model"]
    for name in ("RD", "HD", "PD"):
        m[f"refmodels.{name.lower()}_s"] = sum(
            s[2] - s[1] for s, _ in models if s[5]["model"] == name)
    m["refmodels.structural_s"] = self_of("refmodels.structural_report")
    m["refmodels.model_calls"] = len(models)
    built = calls("refmodels.compute_model", "model")
    entries = built[0]["member_entries"] if built else 0
    m["refmodels.groups"] = built[0]["groups"] if built else 0
    m["refmodels.member_entries"] = entries
    # int64 member ids, computed rather than measured
    m["refmodels.member_mb"] = entries * 8 / 1e6
    m["refmodels.entries_per_citation"] = entries / built[0]["citations"] if built else 0.0
    m["refmodels.self_s"] = layer_self("refmodels")

    bootstrap_s = self_of("imbalance.bootstrap_ci")
    resamples = sum(a["resamples"] for a in calls("imbalance.bootstrap_ci"))
    m["imbalance.observed_s"] = self_of("imbalance.observed_by_gender")
    m["imbalance.expected_s"] = self_of("imbalance.expected_by_gender")
    m["imbalance.bootstrap_s"] = bootstrap_s
    m["imbalance.resamples"] = resamples
    m["imbalance.resamples_per_s"] = resamples / bootstrap_s if bootstrap_s else 0.0
    m["imbalance.group_passes"] = (len(calls("imbalance.expected_by_gender"))
                                   + len(calls("imbalance.bootstrap_ci")))
    m["imbalance.self_s"] = layer_self("imbalance")

    ranks = calls("ranking.pagerank_reference") + calls("ranking.pagerank_observed")
    m["ranking.pagerank_reference_s"] = self_of("ranking.pagerank_reference")
    m["ranking.pagerank_observed_s"] = self_of("ranking.pagerank_observed")
    m["ranking.pagerank_calls"] = len(ranks)
    m["ranking.pagerank_iterations"] = sum(a["iterations"] for a in ranks)
    m["ranking.pagerank_converged"] = sum(a["converged"] for a in ranks)
    m["ranking.normalize_s"] = self_of("ranking.normalized_scores")
    m["ranking.share_curve_s"] = self_of("ranking.share_curve")
    m["ranking.write_s"] = self_of("ranking.write_ranking_csv", "ranking.write_share_csv")
    m["ranking.self_s"] = layer_self("ranking")

    m["synth.generate_s"] = self_of("synth.generate_network")
    m["synth.self_s"] = layer_self("synth")

    for c in COMMANDS:
        ran = [r for r in traced if r["name"] == c]
        m[f"cli.{c}.total_s"] = sum(r["wall"] for r in ran)
        m[f"cli.{c}.self_s"] = self_of(f"cli.{c}")
        m[f"cli.{c}.output_bytes"] = sum(r["bytes"] for r in ran)
    m["trace.overhead_s"] = (sum(r["wall"] for r in traced)
                             - sum(r["wall"] for r in plain))
    return m


def layer_metrics(result: dict) -> tuple[dict[str, float], list[str]]:
    """Median of each per-layer metric over the traced pipelines, plus
    the names of counts that did not repeat exactly."""
    per_pipeline = []
    for k, it in enumerate(result["iterations"]):
        # one pipeline's spans are contiguous; re-base their parent indices
        mine = [i for i, s in enumerate(result["spans"]) if s[4] == k]
        offset = mine[0] if mine else 0
        local = [[n, a, b, p - offset if p >= 0 else -1, q, attrs]
                 for n, a, b, p, q, attrs in (result["spans"][i] for i in mine)]
        per_pipeline.append(pipeline_metrics(local, it["traced"], it["plain"],
                                             result["index_s"]))
    merged = {name: statistics.median(pm[name] for pm in per_pipeline)
              for name, _, _ in PER_LAYER}
    unstable = [name for name, unit, _ in PER_LAYER
                if unit == "count" and len({pm[name] for pm in per_pipeline}) > 1]
    return merged, unstable


def child(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import citegap.cli
    from citegap import load_network

    root = Path(spec["root"])
    tracer = Tracer()
    iterations = []
    began = time.perf_counter()
    while True:
        k = len(iterations)
        plain = run_pipeline(citegap.cli.main, spec["commands"], root / f"plain-{k}",
                             spec["seed"])
        tracer.pipeline = k
        patched = install(tracer)
        try:
            traced = run_pipeline(citegap.cli.main, spec["commands"],
                                  root / f"traced-{k}", spec["seed"], tracer)
        finally:
            uninstall(patched)
        iterations.append({"plain": plain, "traced": traced})
        elapsed = time.perf_counter() - began
        # at least two pairs, so counts can be compared between them; then
        # stop when another pair would end more than half a pair late
        if k >= 1 and elapsed * (k + 1.5) / (k + 1) > spec["seconds"]:
            break

    archive = root / "plain-0" / "archive"
    net = load_network(archive / "papers.tsv", archive / "citations.tsv")
    start = time.perf_counter()
    for prop in INDEX_PROPERTIES:
        getattr(net, prop)
    index_s = time.perf_counter() - start

    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "iterations": iterations,
                   "index_s": index_s}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(child(sys.argv[1]))
