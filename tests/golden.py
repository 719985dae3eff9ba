"""Pinned digests of the command-line outputs.

Runs a fixed list of ``citegap`` commands on two small corpora in a
temporary directory, with relative paths and ``SOURCE_DATE_EPOCH=0``,
and takes the SHA-256 of every file the run leaves there and of each
command's stdout, stderr and exit code.  ``golden.sha256`` beside this
file holds them, one ``digest  path`` line each, sorted by path; the
streams of the command writing ``<corpus>/<out>`` are the paths
``<corpus>/<out>:stdout``, ``:stderr`` and ``:exit``.

    python tests/golden.py           # compare; exit 1 naming what differs
    python tests/golden.py --update  # rewrite golden.sha256

The corpora are the 300-paper synth config of acceptance criterion 10
and a 300-paper year-only ``perfbench/rawgen.py`` archive, whose raw
tables hold date ties, citations to later-dated papers, duplicates and
self-citations.  The commands run in this process, through
``citegap.cli.main``, so the whole list costs one interpreter start.
A change that moves an output rewrites the file in the same commit.
"""
import argparse
import contextlib
import hashlib
import io
import logging
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "perfbench")]

import rawgen  # noqa: E402
from citegap import cli  # noqa: E402

DIGESTS = HERE / "golden.sha256"

SYNTH_CONFIG = ("n_papers=300\nseed=12\nout_degree=uniform:1,4\ntopics=20\n"
                "pa_strength=1.0\nhomophily_topic=0.8\n")

#: artifact name -> flags of its ``model`` command
MODELS = {
    "rd": ("--model", "rd"),
    "hd-rank": ("--model", "hd", "--attrs", "rank"),
    "pd": ("--model", "pd"),
    "pd-exact": ("--model", "pd", "--exact"),
    "pd-rank": ("--model", "pd", "--attrs", "rank"),
}

#: out -> flags of the ``imbalance`` commands on the pd artifact
SELECTIONS = {
    "imb-from-to": ("--from", "gender=WW", "--to", "rank=A", "--bootstrap", "20"),
    "imb-rank": ("--stratify", "rank", "--bootstrap", "20"),
    "imb-subfield": ("--stratify", "subfield", "--bootstrap", "20"),
    "imb-none": ("--bootstrap", "0"),
    "imb-rank-none": ("--stratify", "rank", "--bootstrap", "0"),
}

#: out -> flags of the ``rank`` commands
RANKINGS = {
    "rank-citations": (),
    "rank-citations-pd": ("--model-artifact", "pd"),
    "rank-pagerank": ("--metric", "pagerank"),
    "rank-pagerank-pd": ("--metric", "pagerank", "--model-artifact", "pd"),
    "rank-pagerank-hd": ("--metric", "pagerank", "--model-artifact", "hd-rank"),
}


def commands(ingest: tuple[str, ...]) -> list[tuple[str, tuple[str, ...]]]:
    """``(out, argv)`` of every command on one corpus, after its ``ingest``."""
    runs = [("archive", ingest)]
    runs += [(name, ("model", "archive", name, *flags)) for name, flags in MODELS.items()]
    runs += [(f"imb-{name}", ("imbalance", "archive", name, f"imb-{name}", "--bootstrap", "20"))
             for name in MODELS]
    runs += [(out, ("imbalance", "archive", "pd", out, *flags))
             for out, flags in SELECTIONS.items()]
    runs += [(out, ("rank", "archive", out, *flags)) for out, flags in RANKINGS.items()]
    return runs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: tuple[str, ...]) -> tuple[str, str, str]:
    """One command's stdout, stderr and exit code."""
    out, err = io.StringIO(), io.StringIO()
    # cli.main's logging.basicConfig binds a handler to the stderr of its call
    logging.root.handlers.clear()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return out.getvalue(), err.getvalue(), str(code)


def digests(work: Path) -> dict[str, str]:
    """Run every command under ``work``; path -> SHA-256 of each file
    left there and of each command's streams."""
    os.environ["SOURCE_DATE_EPOCH"] = "0"
    os.environ.pop(cli.OUTPUT_DIR_ENV, None)
    synth, raw = work / "synth", work / "raw"
    synth.mkdir()
    raw.mkdir()
    (synth / "synth.cfg").write_text(SYNTH_CONFIG, encoding="utf-8")
    rawgen.generate(300, 12, 1).write(raw / "papers.tsv", raw / "citations.tsv")
    runs = {
        synth: [("corpus", ("synth", "synth.cfg", "corpus"))]
        + commands(("ingest", "corpus/papers.tsv", "corpus/citations.tsv", "archive")),
        raw: commands(("ingest", "papers.tsv", "citations.tsv", "archive")),
    }
    result = {}
    cwd = os.getcwd()
    try:
        for directory, argvs in runs.items():
            os.chdir(directory)
            for out, argv in argvs:
                for name, text in zip(("stdout", "stderr", "exit"), _run(argv)):
                    result[f"{directory.name}/{out}:{name}"] = _sha256(text.encode())
    finally:
        os.chdir(cwd)
    for path in work.rglob("*"):
        if path.is_file():
            result[path.relative_to(work).as_posix()] = _sha256(path.read_bytes())
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--update", action="store_true", help=f"rewrite {DIGESTS.name}")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        found = digests(Path(tmp))
    if args.update:
        DIGESTS.write_text("".join(f"{found[p]}  {p}\n" for p in sorted(found)),
                           encoding="utf-8")
        print(f"wrote {len(found)} digests to {DIGESTS}")
        return 0
    pinned = dict(line.split("  ", 1)[::-1]
                  for line in DIGESTS.read_text(encoding="utf-8").splitlines())
    paths = sorted(found.keys() | pinned.keys())
    differ = [p for p in paths if found.get(p) != pinned.get(p)]
    for p in differ:
        print("new" if p not in pinned else "missing" if p not in found else "changed", p)
    print(f"{len(differ)} of {len(paths)} digests differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
