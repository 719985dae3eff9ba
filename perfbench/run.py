"""End-to-end benchmark of the citegap command-line pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rd-dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload
    python3 perfbench/run.py --smoke                       # toy sizes, seconds

With ``--trace 0`` each pipeline command runs as its own
``python -m citegap`` process, timed from outside (wall time, and CPU
and peak RSS from the child's ``wait4`` rusage); the pipeline repeats
until ``--seconds`` is used up and medians are reported.  A fixed
reference process (``reference.py``) runs before each pipeline and after
the last; every time metric is divided by the reference's median wall
time, so it reads in seconds on a machine where the reference takes 1 s,
and most of the machine's speed drift between runs cancels out.  With
``--trace 1`` a child process runs the same commands in-process through
``citegap.cli.main``, alternately untraced and traced, and the per-layer
metrics come from the trace (see ``tracer.py``).  Every command's output
is checked (``checks.py``) and a failed check counts as a failed
operation.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Inputs are generated from ``--seed`` before anything is timed.  All
intermediate files go to ``.perfbench_work/`` in the checkout and are
removed at the end; the full result (environment, samples, spans) is
written to ``.perfbench_results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import checks
import tracer
import workloads

# name, unit, better.  Per-command wall times (ingest_s, rank_s, ...) are
# printed too but not gated: a single ~2 s command varies more between
# runs than a whole pipeline, and not every workload runs every command.
END_TO_END = (
    ("pipeline_s", "s", "lower"),
    ("pipeline_cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)
UNITS = {n: u for n, u, _ in END_TO_END + tracer.PER_LAYER}

#: fresh-process archive loads per run; setup_s is their median
SETUP_REPEATS = 3
#: fixed work that is run between pipelines; time metrics are scaled by it
REFERENCE = Path(__file__).resolve().parent / "reference.py"
#: pipelines per measured run, at least, outside smoke mode
MIN_PIPELINES = 2
#: seconds before a single command is killed and counted as failed
COMMAND_TIMEOUT = 150

SETUP_CODE = (
    "import sys\n"
    "from citegap import load_network\n"
    "load_network(sys.argv[1], sys.argv[2])\n"
)

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment() -> dict:
    def version(pkg: str) -> str | None:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    def sysconf(name: str) -> int | None:
        try:
            return os.sysconf(name)
        except (ValueError, OSError):
            return None

    def l3_bytes() -> int | None:
        size = sysconf("SC_LEVEL3_CACHE_SIZE")
        if size:
            return size
        try:  # glibc may not know the cache geometry; sysfs does
            text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text()
        except OSError:
            return None
        scale = {"K": 1 << 10, "M": 1 << 20}.get(text.strip()[-1:], 1)
        return int(text.strip().rstrip("KM")) * scale

    pages, page_size = sysconf("SC_PHYS_PAGES"), sysconf("SC_PAGE_SIZE")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "ram_bytes": pages * page_size if pages and page_size else None,
        "l3_bytes": l3_bytes(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "limits": {
            "cpu_shared_with_other_tenants": True,
            "page_cache_droppable": False,
            "cores_pinned": False,
        },
    }


def run_process(argv: list[str], cwd: Path, env: dict, logs: Path,
                timeout: float = COMMAND_TIMEOUT) -> dict:
    """Run one process to completion; wall time from outside, CPU and
    peak RSS from its rusage.  Killed after ``timeout`` seconds."""
    stdout_path, stderr_path = logs.with_suffix(".out"), logs.with_suffix(".err")
    with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return {
        "code": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "stdout": stdout_path.read_text(encoding="utf-8", errors="replace"),
        "stderr": stderr_path.read_text(encoding="utf-8", errors="replace"),
    }


class Checker:
    """Checks one pipeline's outputs, command by command, and compares
    each output tree with the first pipeline's (reruns are identical)."""

    def __init__(self, prepared: workloads.Prepared):
        self.prepared = prepared
        self.digests: dict[str, str] = {}
        model = [c for c in prepared.commands if c.name == "model"]
        self.sources = ("observed",) + (
            (model[0].argv[model[0].argv.index("--model") + 1].upper(),) if model else ())

    def expect(self, pipe: Path) -> dict:
        record = self.prepared.record
        if record is None:  # ingest re-filters synth's already filtered output
            record = {"kept": len(checks.read_rows(pipe / "corpus" / "citations.tsv")),
                      "papers_kept": len(checks.read_rows(pipe / "corpus" / "papers.tsv"))}
        return {"kept": record["kept"], "papers_kept": record["papers_kept"],
                "sources": self.sources, "d_grid": workloads.D_GRID}

    def check(self, pipe: Path, results: list[dict]) -> list[list[str]]:
        """Failure messages per command (empty list: it passed)."""
        arch = None
        out = []
        for cmd, res in zip(self.prepared.commands, results):
            if res["code"] != 0:
                tail = res.get("stderr", "").strip().splitlines()[-1:]
                out.append([f"{cmd.name} exited {res['code']}: {' '.join(tail)}"])
                continue
            target = pipe / cmd.out
            try:
                if cmd.name == "synth":
                    fails = checks.check_corpus(target)
                elif cmd.name == "ingest":
                    arch = checks.Archive.read(target)
                    e = self.expect(pipe)
                    fails = checks.check_archive(target, arch, e["kept"], e["papers_kept"])
                elif arch is None:
                    fails = [f"{cmd.name}: no archive to check against"]
                elif cmd.name == "model":
                    fails = checks.check_model(target, arch)
                elif cmd.name == "imbalance":
                    fails = checks.check_imbalance(target, arch)
                else:
                    fails = checks.check_rank(target, arch, res["stdout"], self.sources,
                                              workloads.D_GRID)
                digest = checks.tree_digest(target)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                out.append([f"{cmd.name}: unreadable output: {exc!r}"])
                continue
            if self.digests.setdefault(cmd.name, digest) != digest:
                fails.append(f"{cmd.name}: output differs from the first pipeline's")
            out.append([f"{cmd.name}: {f}" for f in fails])
        return out


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, per_command: list[list[str]]) -> None:
        self.attempted += len(per_command)
        self.failures += [f for fails in per_command for f in fails[:1]]


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path,
            smoke: bool = False) -> dict:
    src = root / "src"
    work = root / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    logs = work / "logs"
    logs.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["SOURCE_DATE_EPOCH"] = "0"
    env.pop("CITEGAP_OUTPUT_DIR", None)
    try:
        (work / "inputs").mkdir()
        prepared = workloads.WORKLOADS[name](work / "inputs", seed, smoke)
        checker = Checker(prepared)
        tally = Tally()
        if trace:
            metrics, samples = _measure_traced(prepared, checker, tally, seed, seconds,
                                               work, env)
        else:
            metrics, samples = _measure_untraced(prepared, checker, tally, seed, seconds,
                                                 work, env, smoke)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"workload": name, "seed": seed, "trace": int(trace),
            "attempted": tally.attempted, "failures": tally.failures,
            "metrics": metrics, "samples": samples}


def _measure_untraced(prepared, checker, tally, seed, seconds, work, env, smoke):
    iterations: list[list[dict]] = []
    setup: list[float] = []
    reference: list[float] = []

    def run_reference() -> None:
        res = run_process([sys.executable, str(REFERENCE)], work, env,
                          work / "logs" / f"reference-{len(reference)}")
        if res["code"] != 0:
            raise RuntimeError(f"reference exited {res['code']}:\n{res['stderr'][-2000:]}")
        reference.append(res["wall"])

    # untimed: fill the page cache with the interpreter's and the
    # package's files, as they are for a user running command after command
    run_process([sys.executable, "-c", "import citegap.cli"], work, env,
                work / "logs" / "warm-up")
    began = time.perf_counter()
    setup_cost = 0.0
    while True:
        run_reference()
        k = len(iterations)
        pipe = work / f"pipeline-{k}"
        pipe.mkdir()
        results = [
            run_process([sys.executable, "-m", "citegap", "--seed", str(seed), *c.argv],
                        pipe, env, work / "logs" / f"{k}-{c.name}")
            for c in prepared.commands
        ]
        tally.add(checker.check(pipe, results))
        iterations.append(results)
        if k == 0:
            setup_began = time.perf_counter()
            archive = pipe / "archive"
            for r in range(SETUP_REPEATS):
                res = run_process([sys.executable, "-c", SETUP_CODE,
                                   str(archive / "papers.tsv"),
                                   str(archive / "citations.tsv")],
                                  work, env, work / "logs" / f"setup-{r}")
                tally.add([[] if res["code"] == 0 else
                            [f"setup load exited {res['code']}"]])
                setup.append(res["wall"])
            tally.failures += [f"checker missed: {m}"
                               for m in _self_test(checker, pipe, work)]
            setup_cost = time.perf_counter() - setup_began
        shutil.rmtree(pipe)
        elapsed = time.perf_counter() - began
        per_pipeline = (elapsed - setup_cost) / (k + 1)
        if smoke or (k + 1 >= MIN_PIPELINES and elapsed + per_pipeline / 2 > seconds):
            break

    run_reference()

    walls = [sum(r["wall"] for r in it) for it in iterations]
    cpus = [sum(r["cpu"] for r in it) for it in iterations]
    rss = [max(r["rss_mb"] for r in it) for it in iterations]
    per_command = {
        f"{c.name}_s": [it[i]["wall"] for it in iterations]
        for i, c in enumerate(prepared.commands)
    }
    samples = {"pipeline_s": walls, "pipeline_cpu_s": cpus, "peak_rss_mb": rss,
               "setup_s": setup, **per_command, "reference_s": reference}
    # times in seconds at reference speed: on a machine where the
    # reference run takes 1 s.  This cancels most of the machine's speed drift.
    scale = 1.0 / statistics.median(reference)
    metrics = {name: statistics.median(values) * (1.0 if name == "peak_rss_mb" else scale)
               for name, values in samples.items() if name != "reference_s"}
    return metrics, samples


def _self_test(checker: Checker, pipe: Path, work: Path) -> list[str]:
    """The checks must flag deliberately corrupted copies of outputs."""
    scratch = work / "self-test"
    try:
        return checks.self_test(pipe, scratch, checker.expect(pipe))
    except (OSError, ValueError, IndexError) as exc:
        return [f"self-test could not run: {exc!r}"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure_traced(prepared, checker, tally, seed, seconds, work, env):
    spec = {
        "src": env["PYTHONPATH"].split(os.pathsep)[0],
        "root": str(work),
        "seed": seed,
        "seconds": seconds,
        "commands": [{"name": c.name, "argv": list(c.argv), "out": c.out}
                     for c in prepared.commands],
        "result": str(work / "trace.json"),
    }
    spec_path = work / "trace-spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    res = run_process([sys.executable, str(Path(tracer.__file__).resolve()),
                       str(spec_path)], work, env, work / "logs" / "tracer",
                      timeout=COMMAND_TIMEOUT + seconds)
    if res["code"] != 0:
        raise RuntimeError(f"traced run exited {res['code']}:\n{res['stderr'][-2000:]}")
    with open(spec["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    for k, it in enumerate(result["iterations"]):
        for mode in ("plain", "traced"):
            tally.add(checker.check(work / f"{mode}-{k}", it[mode]))
    first = work / "plain-0"
    tally.failures += [f"checker missed: {m}" for m in _self_test(checker, first, work)]
    metrics, unstable = tracer.layer_metrics(result)
    tally.failures += [f"count {name} differs between traced pipelines"
                       for name in unstable]
    samples = {
        "command_walls": [{r["name"]: (r["wall"], t["wall"])
                           for r, t in zip(it["plain"], it["traced"])}
                          for it in result["iterations"]],
        "spans": result["spans"],
    }
    return metrics, samples


def report(result: dict) -> None:
    name, seed = result["workload"], result["seed"]
    mode = "traced, in-process" if result["trace"] else "untraced, one process per command"
    print(f"== {name} seed={seed} ({mode}): {result['attempted']} operations, "
          f"{len(result['failures'])} failed")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    samples = result["samples"]
    if "reference_s" in samples:
        ref = samples["reference_s"]
        print(f"   reference run: median {statistics.median(ref):.4f} s of {len(ref)} "
              f"(min {min(ref):.4f}, max {max(ref):.4f}); times below are scaled "
              "to a 1 s reference, measured values follow")
    for metric, value in result["metrics"].items():
        unit = UNITS.get(metric, "s")  # per-command wall times are in s
        values = samples.get(metric) if isinstance(samples.get(metric), list) else None
        spread = (f"  measured median {statistics.median(values):.4f} of {len(values)} "
                  f"(min {min(values):.4f}, max {max(values):.4f})" if values else "")
        print(f"   {metric:34s} {value:14.6g} {unit:6s}{spread}")
    rate = len(result["failures"]) / max(result["attempted"], 1)
    print(f"   {'error_rate':34s} {rate:14.6g} ratio")


def result_line(results: list[dict], names: list[tuple[str, str]], prefix: bool) -> dict:
    metrics = {}
    for res in results:
        for name, unit in names:
            key = f"{res['workload']}.{name}" if prefix else name
            metrics[key] = {"value": res["metrics"][name], "unit": unit}
    return {
        "correct": all(not r["failures"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(len(r["failures"]) for r in results),
        "metrics": metrics,
    }


def smoke(root: Path) -> int:
    """Every workload at toy size, both modes; every metric name of
    BENCHMARK.json must be reported, and every check must pass."""
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        0: [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]],
        1: [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
    }
    problems = []
    if declared[0] != list(END_TO_END) or declared[1] != list(tracer.PER_LAYER):
        problems.append("BENCHMARK.json metrics differ from run.py/tracer.py")
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            res = measure(name, 1, 0, bool(trace), root, smoke=True)
            report(res)
            missing = {n for n, _, _ in declared[trace]} - set(res["metrics"])
            if missing:
                problems.append(f"{name} trace={trace}: missing {sorted(missing)}")
            problems += [f"{name} trace={trace}: {f}" for f in res["failures"]]
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print("smoke: ok" if not problems else "smoke: failed")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, one pipeline, both modes, every workload")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "citegap" / "cli.py").is_file():
        print(f"error: {root} holds no citegap source tree (src/citegap); run "
              "from the root of a checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required")

    chosen = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    results = []
    for name in chosen:
        res = measure(name, args.seed, args.seconds, bool(args.trace), root)
        report(res)
        results.append(res)
        out_dir = root / ".perfbench_results"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json",
                  "w", encoding="utf-8") as fh:
            json.dump({"environment": env, **res}, fh)
    names = [(n, u) for n, u, _ in (tracer.PER_LAYER if args.trace else END_TO_END)]
    print(json.dumps(result_line(results, names, prefix=args.workload == "all")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
