"""Output checks, re-derived in plain Python from the files each command
writes.  Nothing here imports ``citegap``: the rules are encoded a second
time so that a defect in the program cannot hide itself.

Each ``check_*`` returns a list of failure messages; an empty list means
the output passed.
"""
from __future__ import annotations

import csv
import hashlib
import json
import shutil
from dataclasses import dataclass
from datetime import date
from pathlib import Path

WINDOW_YEARS = 10
KNOWN_GENDERS = ("MM", "MW", "WM", "WW")
W_GENDERS = frozenset({"MW", "WM", "WW"})
RANK_ORDER = ("A*", "A", "B", "C", "Unranked")
#: relative tolerance of the float identities (sum of c_bar, sum of n_expected)
REL_TOL = 1e-9


def read_rows(path: Path, delimiter: str = "\t") -> list[list[str]]:
    """Rows of a delimited table, header dropped."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh, delimiter=delimiter))
    return rows[1:]


def _parse_date(text: str) -> date:
    if len(text) == 4 and text.isdigit():
        return date(int(text), 1, 1)
    return date.fromisoformat(text)


def _window_floor(d: date) -> date:
    try:
        return d.replace(year=d.year - WINDOW_YEARS)
    except ValueError:  # Feb 29 into a non-leap year
        return d.replace(year=d.year - WINDOW_YEARS, day=28)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


@dataclass
class Archive:
    """A network archive as written by ``ingest``."""

    ids: list[str]
    dates: list[date]
    genders: list[str]
    ranks: list[str]
    firsts: list[str]
    lasts: list[str]
    edges: list[tuple[int, int]]

    @classmethod
    def read(cls, directory: Path) -> "Archive":
        papers = read_rows(directory / "papers.tsv")
        index = {row[0]: i for i, row in enumerate(papers)}
        edges = [(index[u], index[v]) for u, v in read_rows(directory / "citations.tsv")]
        return cls(
            ids=[r[0] for r in papers],
            dates=[_parse_date(r[1]) for r in papers],
            genders=[r[2] for r in papers],
            ranks=[r[3] for r in papers],
            firsts=[r[7] for r in papers],
            lasts=[r[8] for r in papers],
            edges=edges,
        )

    @property
    def w_share(self) -> float:
        return sum(g in W_GENDERS for g in self.genders) / len(self.genders)


def check_archive(directory: Path, arch: Archive, kept: int,
                  papers_kept: int) -> list[str]:
    """The filter's rules hold on the archive read from ``directory``, and
    it kept exactly the rows and papers the input generator said it would."""
    failures = []
    if len(set(arch.edges)) != len(arch.edges):
        failures.append("duplicate citations in archive")
    floors = [_window_floor(d) for d in arch.dates]
    late = sum(arch.dates[j] < floors[i] for i, j in arch.edges)
    if late:
        failures.append(f"{late} citations older than the {WINDOW_YEARS}-year window")
    selfcites = 0
    for i, j in arch.edges:
        authors = (arch.firsts[i], arch.lasts[i])
        if arch.firsts[j] in authors and arch.lasts[j] in authors:
            selfcites += 1
    if selfcites:
        failures.append(f"{selfcites} first+last-author self-citations kept")
    touched = {i for e in arch.edges for i in e}
    if len(touched) != len(arch.ids):
        failures.append(f"{len(arch.ids) - len(touched)} isolated papers kept")
    if len(arch.edges) != kept:
        failures.append(f"kept {len(arch.edges)} citations, generator says {kept}")
    if len(arch.ids) != papers_kept:
        failures.append(f"kept {len(arch.ids)} papers, generator says {papers_kept}")
    failures += _check_summary(directory, len(arch.ids), len(arch.edges))
    return failures


def _check_summary(directory: Path, papers: int, citations: int) -> list[str]:
    try:
        with open(directory / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable summary.json: {exc!r}"]
    if (summary.get("papers"), summary.get("citations")) != (papers, citations):
        return [f"summary.json says {summary.get('papers')}/{summary.get('citations')}, "
                f"files hold {papers}/{citations}"]
    return []


def check_corpus(directory: Path) -> list[str]:
    """``synth`` output: both tables present and counted in its summary."""
    try:
        papers = len(read_rows(directory / "papers.tsv"))
        citations = len(read_rows(directory / "citations.tsv"))
    except OSError as exc:
        return [f"unreadable corpus: {exc!r}"]
    return _check_summary(directory, papers, citations)


def check_model(directory: Path, arch: Archive) -> list[str]:
    """Sum of c_bar equals the citation count; one row per paper."""
    try:
        rows = read_rows(directory / "c_bar.tsv")
        c_bar = [float(v) for _, v in rows]
    except (OSError, ValueError) as exc:
        return [f"unreadable c_bar.tsv: {exc!r}"]
    failures = []
    if [r[0] for r in rows] != arch.ids:
        failures.append("c_bar.tsv paper ids differ from the archive")
    if min(c_bar, default=0.0) < 0:
        failures.append("negative c_bar")
    if not _close(sum(c_bar), len(arch.edges)):
        failures.append(f"sum of c_bar {sum(c_bar)!r} != m = {len(arch.edges)}")
    return failures


def check_imbalance(directory: Path, arch: Archive) -> list[str]:
    """Observed counts recomputed from the archive; expectations sum to
    the citations into known-gender targets; CIs ordered.  Every workload
    runs imbalance with from = to = all, stratified by rank or not."""
    try:
        with open(directory / "imbalance.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return [f"unreadable imbalance.csv: {exc!r}"]
    failures = []
    by_stratum: dict[str, list[dict]] = {}
    for row in rows:
        by_stratum.setdefault(row["stratum"], []).append(row)
    if list(by_stratum) == [""]:
        strata = {"": set(range(len(arch.ids)))}
    else:
        present = [r for r in RANK_ORDER if r in set(arch.ranks)]
        strata = {r: {i for i, x in enumerate(arch.ranks) if x == r} for r in present}
        if list(by_stratum) != present:
            failures.append(f"strata {list(by_stratum)} != ranks present {present}")
    for stratum, to_set in strata.items():
        block = by_stratum.get(stratum, [])
        if [r["gender"] for r in block] != list(KNOWN_GENDERS):
            failures.append(f"stratum {stratum!r}: rows {[r['gender'] for r in block]}")
            continue
        observed = dict.fromkeys(KNOWN_GENDERS, 0)
        for _, j in arch.edges:
            if j in to_set and arch.genders[j] in observed:
                observed[arch.genders[j]] += 1
        try:
            for r in block:
                if int(r["n_obs"]) != observed[r["gender"]]:
                    failures.append(f"stratum {stratum!r} {r['gender']}: n_obs "
                                    f"{r['n_obs']} != {observed[r['gender']]}")
                if r["ci_low"] and float(r["ci_low"]) > float(r["ci_high"]):
                    failures.append(f"stratum {stratum!r} {r['gender']}: ci_low > ci_high")
            expected = sum(float(r["n_expected"]) for r in block)
        except ValueError as exc:
            failures.append(f"stratum {stratum!r}: bad number {exc}")
            continue
        if not _close(expected, sum(observed.values())):
            failures.append(f"stratum {stratum!r}: sum of n_expected {expected!r} != "
                            f"{sum(observed.values())} citations to known genders")
    return failures


def check_rank(directory: Path, arch: Archive, stdout: str,
               sources: tuple[str, ...], d_grid: tuple[float, ...]) -> list[str]:
    """PageRank converged; ranks are a permutation of 1..N; the share
    curve has every (source, d) point and its d=100 share is the corpus
    share of papers with a woman first and/or last author."""
    failures = []
    if "converged=True" not in stdout:
        failures.append("pagerank did not report converged=True")
    try:
        rankings = read_rows(directory / "rankings.csv", ",")
        shares = read_rows(directory / "share_curve.csv", ",")
        ranks = sorted(int(r[3]) for r in rankings)
        points = {(r[1], float(r[0])): float(r[3]) for r in shares}
    except (OSError, ValueError, IndexError) as exc:
        return failures + [f"unreadable ranking outputs: {exc!r}"]
    if [r[0] for r in rankings] != arch.ids:
        failures.append("rankings.csv paper ids differ from the archive")
    if ranks != list(range(1, len(arch.ids) + 1)):
        failures.append("rankings.csv ranks are not a permutation of 1..N")
    wanted = {(s, d) for s in sources for d in d_grid}
    if set(points) != wanted or len(shares) != len(wanted):
        failures.append(f"share_curve.csv points {sorted(points)} != {sorted(wanted)}")
    for s in sources:
        got = points.get((s, 100.0))
        if got is None or abs(got - arch.w_share) > 1e-12:
            failures.append(f"{s} d=100 share {got!r} != corpus share {arch.w_share!r}")
    return failures


def tree_digest(directory: Path) -> str:
    """sha256 over every file's relative path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def self_test(pipeline: Path, scratch: Path, expect: dict) -> list[str]:
    """Corrupt copies of a pipeline's checked outputs and confirm the
    checks flag each one.  Returns the corruptions that went unnoticed."""
    missed = []
    archive = scratch / "archive"
    shutil.copytree(pipeline / "archive", archive)
    citing, cited = read_rows(archive / "citations.tsv")[0]
    with open(archive / "citations.tsv", "a", encoding="utf-8") as fh:
        fh.write(f"{citing}\t{cited}\n")
    if not check_archive(archive, Archive.read(archive), expect["kept"],
                         expect["papers_kept"]):
        missed.append("duplicated citation row in the archive")
    arch = Archive.read(pipeline / "archive")
    rank = scratch / "rank"
    shutil.copytree(pipeline / "rank", rank)
    lines = (rank / "rankings.csv").read_text(encoding="utf-8").splitlines()
    first = lines[1].rsplit(",", 1)[0]
    second_rank = lines[2].rsplit(",", 1)[1]
    lines[1] = f"{first},{second_rank}"
    (rank / "rankings.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if not check_rank(rank, arch, "converged=True", expect["sources"], expect["d_grid"]):
        missed.append("repeated rank in rankings.csv")
    return missed
