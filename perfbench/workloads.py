"""The benchmark's workloads: inputs made from a seed, and the sequence
of ``citegap`` commands a user would run on them.

Every command runs with the working directory set to one pipeline
directory; inputs live one level up in ``../inputs``.  Sizes are scaled
so one pipeline takes a few seconds on a 2-core machine, which lets a
30-second run repeat it and report medians.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import rawgen

#: d grid of every ``rank`` command (the CLI default)
D_GRID = (1.0, 5.0, 10.0, 20.0, 50.0, 100.0)


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    #: output directory the command writes, relative to the pipeline dir
    out: str


@dataclass(frozen=True)
class Prepared:
    commands: tuple[Command, ...]
    #: generator record of what ingest must keep; None when ingest reads
    #: the output of ``synth``, which is filtered already
    record: dict | None


def rd_dense(inputs: Path, seed: int, smoke: bool) -> Prepared:
    config = inputs / "synth.cfg"
    config.write_text(
        f"n_papers={300 if smoke else 5000}\n"
        f"seed={seed}\n"
        "date_start=1980-01-01\n"
        "date_end=2019-12-31\n"
        "out_degree=uniform:1,5\n"
        "topics=50\n"
        "pa_strength=1\n"
        "homophily_topic=0.8\n"
        "gender_bias=0.8\n",
        encoding="utf-8",
    )
    commands = (
        Command("synth", ("synth", "../inputs/synth.cfg", "corpus"), "corpus"),
        Command("ingest", ("ingest", "corpus/papers.tsv", "corpus/citations.tsv",
                           "archive"), "archive"),
        Command("model", ("model", "archive", "model", "--model", "rd"), "model"),
        Command("imbalance", ("imbalance", "archive", "model", "imbalance",
                              "--bootstrap", "20" if smoke else "200"), "imbalance"),
        Command("rank", ("rank", "archive", "rank", "--model-artifact", "model",
                         "--metric", "pagerank"), "rank"),
    )
    return Prepared(commands, None)


def _raw_ingest(inputs: Path, seed: int, n_papers: int, n_years: int
                ) -> tuple[Command, dict]:
    """Write a ``rawgen`` corpus; the ingest command and the generator's record."""
    corpus = rawgen.generate(n_papers, n_years, seed)
    corpus.write(inputs / "papers.tsv", inputs / "citations.tsv")
    ingest = Command("ingest", ("ingest", "../inputs/papers.tsv",
                                "../inputs/citations.tsv", "archive"), "archive")
    return ingest, corpus.record


def pd_ties(inputs: Path, seed: int, smoke: bool) -> Prepared:
    ingest, record = _raw_ingest(inputs, seed, 400 if smoke else 5000, 30)
    commands = (
        ingest,
        Command("model", ("model", "archive", "model", "--model", "pd",
                          "--attrs", "rank,country,topic"), "model"),
        Command("imbalance", ("imbalance", "archive", "model", "imbalance",
                              "--bootstrap", "50" if smoke else "1000",
                              "--stratify", "rank"), "imbalance"),
        Command("rank", ("rank", "archive", "rank", "--model-artifact", "model",
                         "--metric", "pagerank"), "rank"),
    )
    return Prepared(commands, record)


def observed_large(inputs: Path, seed: int, smoke: bool) -> Prepared:
    ingest, record = _raw_ingest(inputs, seed, 2000 if smoke else 30000, 40)
    rank = Command("rank", ("rank", "archive", "rank", "--metric", "pagerank"), "rank")
    return Prepared((ingest, rank), record)


#: workload name -> function that writes the inputs for a seed (never
#: timed) and returns the commands plus what the checks need to know;
#: why each workload is there is stated in BENCHMARK.json
WORKLOADS = {
    "rd-dense": rd_dense,
    "pd-ties": pd_ties,
    "observed-large": observed_large,
}
