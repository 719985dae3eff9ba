import csv
import gc
import hashlib
import importlib
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import citegap
from citegap import cli
from citegap.__main__ import BLAS_THREAD_ENV, run as cli_entry
from citegap.cli import main
from conftest import raw_entry, unsupported_compression

TOY4_PAPERS = """id\tpub_date\tgender\trank\tcountry\ttopic\tsubfield\tfirst_author\tlast_author
P1\t2010-01-01\tMM\tA*\tUS\tT1\tS1\ta1\ta2
P2\t2010-01-01\tWW\tA*\tUS\tT1\tS1\ta3\ta4
P3\t2011-01-01\tMM\tA*\tUS\tT2\tS1\ta5\ta6
P4\t2012-01-01\tWW\tA*\tUS\tT1\tS1\ta7\ta8
"""

TOY4_CITATIONS = """citing_id\tcited_id
P3\tP1
P4\tP1
P4\tP2
"""

SYNTH_CONFIG = """n_papers=60
seed=5
date_start=2000-01-01
date_end=2004-12-31
out_degree=uniform:1,3
topics=4
"""


@pytest.fixture
def toy_inputs(tmp_path):
    papers = tmp_path / "papers.tsv"
    citations = tmp_path / "citations.tsv"
    papers.write_text(TOY4_PAPERS)
    citations.write_text(TOY4_CITATIONS)
    return papers, citations


def run(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def tree_hashes(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# integers past every range of the toy tables, written over the first entry
# of one array of groups.npz: the values int64 holds, and int32's extremes
# with the array stored as int32; each row names the check that rejects it,
# for rd the comparison with the table rd builds
NOT_RD = "its table is not the RD table of the archive"
OVERSIZED = [(np.int64, 2**31, "2**31"), (np.int64, 2**62, "2**62"),
             (np.int64, -2**63, "-2**63"), (np.int32, 2**31 - 1, "int32-max"),
             (np.int32, -2**31, "int32-min")]
OVERSIZED_ARRAYS = [
    ("rd", "lo", NOT_RD, NOT_RD),
    ("pd", "indptr", "end at the number of members", "end at the number of members"),
    ("pd", "indices", "below 4", "below 4"),
    ("rd", "excluded", NOT_RD, NOT_RD),
    ("rd", "citing", NOT_RD, NOT_RD),
    ("rd", "targets", NOT_RD, NOT_RD),
]
OVERSIZED_GROUPS = [
    (model, lambda path, name=name, value=value, dtype=dtype:
     rewrite_groups(path, name, 0, value, dtype), above if value > 0 else below)
    for model, name, above, below in OVERSIZED_ARRAYS for dtype, value, _ in OVERSIZED]
OVERSIZED_IDS = [f"oversized-{name}-{label}"
                 for _, name, _, _ in OVERSIZED_ARRAYS for _, _, label in OVERSIZED]


class TestIngest:
    def test_summary_counts(self, toy_inputs, tmp_path, capsys):
        papers, citations = toy_inputs
        assert run("ingest", papers, citations, tmp_path / "archive") == 0
        out = capsys.readouterr().out
        assert "papers: 4" in out
        assert "citations: 3" in out
        assert "filter duplicates: 0" in out
        summary = json.loads((tmp_path / "archive" / "summary.json").read_text())
        assert summary["papers"] == 4
        assert summary["by_gender"]["WW"] == 2
        assert summary["filter"] == {"duplicates": 0, "out_of_window": 0,
                                     "self_citations": 0, "isolated_papers": 0,
                                     "later_dated_kept": 0}

    def test_archive_files_present(self, toy_inputs, tmp_path):
        papers, citations = toy_inputs
        run("ingest", papers, citations, tmp_path / "archive")
        names = {p.name for p in (tmp_path / "archive").iterdir()}
        assert names == {"papers.tsv", "citations.tsv", "network.npz", "summary.json",
                         "manifest.json"}

    def test_empty_network_errors(self, tmp_path, capsys):
        papers = tmp_path / "papers.tsv"
        citations = tmp_path / "citations.tsv"
        papers.write_text(
            TOY4_PAPERS.replace("P1\t2010-01-01", "P1\t1990-01-01")
            .replace("P2\t2010-01-01", "P2\t1990-01-01")
        )
        citations.write_text("citing_id\tcited_id\nP3\tP1\nP4\tP2\n")
        code = run("ingest", papers, citations, tmp_path / "archive")
        assert code == 2
        assert "empty network" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        papers = tmp_path / "papers.tsv"
        citations = tmp_path / "citations.tsv"
        papers.write_text(TOY4_PAPERS.replace("2010-01-01", "2010-13-01"))
        citations.write_text(TOY4_CITATIONS)
        assert run("ingest", papers, citations, tmp_path / "archive") == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("table, line", [("papers", 3), ("citations", 2),
                                             ("header", 1)])
    def test_field_over_csv_limit_exit_code(self, tmp_path, capsys, table, line):
        # csv rejects a quoted field past its 131,072-character limit
        big = '"' + "x" * 200_000 + '"'
        papers = tmp_path / "papers.tsv"
        citations = tmp_path / "citations.tsv"
        papers.write_text(TOY4_PAPERS.replace("\tS1\ta3", f"\t{big}\ta3")
                          if table == "papers" else TOY4_PAPERS)
        citations.write_text(
            TOY4_CITATIONS.replace("P3\tP1", f"P3\t{big}") if table == "citations"
            else TOY4_CITATIONS.replace("citing_id", big) if table == "header"
            else TOY4_CITATIONS)
        assert run("ingest", papers, citations, tmp_path / "archive") == 2
        assert capsys.readouterr().err == (
            f"error: line {line}: field larger than field limit (131072)\n")

    def test_unknown_edge_id_exit_code(self, tmp_path, capsys):
        papers = tmp_path / "papers.tsv"
        citations = tmp_path / "citations.tsv"
        papers.write_text(TOY4_PAPERS)
        citations.write_text("citing_id\tcited_id\nP3\tGHOST\n")
        assert run("ingest", papers, citations, tmp_path / "archive") == 2
        assert "GHOST" in capsys.readouterr().err


@pytest.fixture
def archive(toy_inputs, tmp_path):
    papers, citations = toy_inputs
    path = tmp_path / "archive"
    run("ingest", papers, citations, path)
    return path


class TestModel:
    def test_hd_c_bar_values(self, archive, tmp_path):
        out = tmp_path / "hd"
        assert run("model", archive, out, "--model", "hd") == 0
        rows = {}
        with open(out / "c_bar.tsv", newline="") as fh:
            reader = csv.reader(fh, delimiter="\t")
            next(reader)
            for pid, value in reader:
                rows[pid] = float(value)
        assert rows == {"P1": 1.5, "P2": 1.5, "P3": 0.0, "P4": 0.0}

    @pytest.mark.parametrize("model, flags", [
        ("rd", ("--attrs", "rank,topic")),
        ("rd", ("--exact",)),
        ("hd", ("--exact",)),
        ("rd", ("--count-tol", "0.5")),
        ("hd", ("--count-tol", "0")),
    ], ids=["rd-attrs", "rd-exact", "hd-exact", "rd-count-tol", "hd-count-tol"])
    def test_rd_warns_on_attrs_without_failing(self, archive, tmp_path, caplog,
                                               model, flags):
        # a flag the model does not read is recorded in model.json, with
        # one warning, and changes no output
        run("model", archive, tmp_path / "plain", "--model", model)
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            code = run("model", archive, tmp_path / model, "--model", model, *flags)
        assert code == 0
        warnings = [r.message for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "ignored" in warnings[0]
        for name in ("groups.npz", "c_bar.tsv"):
            assert (tmp_path / model / name).read_bytes() == \
                (tmp_path / "plain" / name).read_bytes()

    def test_pd_reads_exact_and_count_tol_without_warning(self, archive, tmp_path, caplog):
        with caplog.at_level(logging.WARNING):
            assert run("model", archive, tmp_path / "pd", "--model", "pd", "--exact",
                       "--count-tol", "0") == 0
        assert not [r for r in caplog.records if r.levelno == logging.WARNING]

    def test_structural_report_files(self, archive, tmp_path):
        out = tmp_path / "hd"
        run("model", archive, out, "--model", "hd")
        names = {p.name for p in out.iterdir()}
        assert {"report_degree_hist.csv", "report_pairs_rank.csv",
                "report_pairs_country.csv", "report_pairs_topic.csv",
                "report_survival.csv", "model.json"} <= names

    def test_groups_table(self, archive, tmp_path, capsys):
        out = tmp_path / "hd"
        run("model", archive, out, "--model", "hd")
        with np.load(out / "groups.npz", allow_pickle=False) as groups:
            assert sorted(groups.files) == ["attributes", "c_bar", "citations_sha256",
                                            "citing", "excluded", "excluded_ptr",
                                            "format", "hi", "indices", "indptr", "lo",
                                            "model", "papers_sha256", "target_ptr",
                                            "targets"]
            assert (groups["format"].item(), groups["model"].item()) == (3, "HD")
            assert groups["attributes"].tolist() == ["rank", "country", "topic"]
            assert groups["c_bar"].tolist() == [1.5, 1.5, 0.0, 0.0]
            # two groups (P3's and P4's merged pair)
            assert groups["citing"].tolist() == [2, 3]
            assert groups["target_ptr"].tolist() == [0, 1, 3]
            # the eligibility index holds P1, P2, P4 (topic T1), then P3:
            # P3's group is positions [0, 2), P4's [0, 3) without P4 itself
            assert groups["lo"].tolist() == [0, 0]
            assert groups["hi"].tolist() == [2, 3]
            assert groups["excluded_ptr"].tolist() == [0, 0, 1]
            assert groups["excluded"].tolist() == [2]
            assert groups["indptr"].tolist() == [0, 0, 0]
            assert groups["indices"].size == 0
        meta = json.loads((out / "model.json").read_text())
        assert {k: meta[k] for k in ("format", "groups", "member_entries", "intervals",
                                     "exclusions", "stored_entries")} == {
            "format": 3, "groups": 2, "member_entries": 4, "intervals": 2,
            "exclusions": 1, "stored_entries": 5}
        assert ("groups: 2\nmember entries: 4\nintervals: 2\nexclusions: 1\n"
                "stored entries: 5\n") in capsys.readouterr().out
        # pd groups are explicit: its table leaves the interval arrays out
        run("model", archive, tmp_path / "pd", "--model", "pd")
        with np.load(tmp_path / "pd" / "groups.npz", allow_pickle=False) as groups:
            assert sorted(groups.files) == ["attributes", "c_bar", "citations_sha256",
                                            "citing", "format", "indices", "indptr",
                                            "model", "papers_sha256", "target_ptr",
                                            "targets"]
            assert groups["indices"].tolist() == [0, 1, 0, 1]

    @pytest.mark.parametrize("flags", [("rd",), ("hd", "--attrs", "rank"), ("pd",),
                                       ("pd", "--exact")],
                             ids=["rd", "hd-rank", "pd", "pd-exact"])
    def test_groups_c_bar_is_c_bar_tsv(self, tmp_path, flags):
        # groups.npz stores the c_bar that c_bar.tsv reports, bit for bit:
        # for pd its running vector, not the table's column sums
        config = tmp_path / "synth.cfg"
        config.write_text(SYNTH_CONFIG)
        run("synth", config, tmp_path / "corpus")
        out = tmp_path / "model"
        assert run("model", tmp_path / "corpus", out, "--model", *flags) == 0
        with open(out / "c_bar.tsv", newline="") as fh:
            reported = np.array([float(v) for _, v in list(csv.reader(fh, delimiter="\t"))[1:]])
        with np.load(out / "groups.npz", allow_pickle=False) as groups:
            assert groups["c_bar"].dtype == np.float64
            assert groups["c_bar"].tobytes() == reported.tobytes()

    def test_rerun_identical(self, archive, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        out = tmp_path / "pd"
        run("model", archive, out, "--model", "pd")
        before = tree_hashes(out)
        run("model", archive, out, "--model", "pd")
        assert tree_hashes(out) == before

    @pytest.mark.parametrize("exact", [(), ("--exact",)], ids=["float", "exact"])
    @pytest.mark.parametrize("count_tol", ["nan", "-1e-9"])
    def test_bad_count_tol_exit_code(self, archive, tmp_path, capsys, count_tol, exact):
        out = tmp_path / "pd"
        # the = form, as argparse reads "-1e-9" alone as an option
        assert run("model", archive, out, "--model", "pd", f"--count-tol={count_tol}",
                   *exact) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: the count tolerance must be a number >= 0, got {float(count_tol)}"]
        assert not out.exists()

    def test_empty_eligible_set_exit_code(self, tmp_path, capsys):
        # the only citer cites a later-dated paper, so its rd eligible set
        # is empty and the model is undefinable
        papers = tmp_path / "papers.tsv"
        citations = tmp_path / "citations.tsv"
        papers.write_text(
            "id\tpub_date\tgender\trank\tcountry\ttopic\tsubfield\tfirst_author\tlast_author\n"
            "A\t2010-01-01\tMM\tA\tUS\tT1\tS1\ta1\ta2\n"
            "B\t2012-01-01\tWW\tA\tUS\tT1\tS1\ta3\ta4\n"
        )
        citations.write_text("citing_id\tcited_id\nA\tB\n")
        archive = tmp_path / "arch"
        run("ingest", papers, citations, archive)
        assert run("model", archive, tmp_path / "rd", "--model", "rd") == 2
        assert "eligible set" in capsys.readouterr().err
        # pd's base of that citation is the later-dated target: a pd table
        # relabelled rd names its file
        assert run("model", archive, tmp_path / "pd", "--model", "pd") == 0
        relabel(tmp_path / "pd" / "groups.npz", model="RD", attributes=[])
        capsys.readouterr()
        assert run("rank", archive, tmp_path / "rank", "--model-artifact", tmp_path / "pd") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "pd/groups.npz: its RD table cannot be built" in err[0]
        assert "eligible set is empty" in err[0]


class TestImbalance:
    def test_toy4_rd_over_under(self, archive, tmp_path):
        model_dir = tmp_path / "rd"
        run("model", archive, model_dir, "--model", "rd")
        out = tmp_path / "imb"
        assert run("--seed", "0", "imbalance", archive, model_dir, out) == 0
        rows = {r["gender"]: r for r in read_csv(out / "imbalance.csv")}
        assert float(rows["MM"]["over_under"]) == pytest.approx(1 / 11)
        assert rows["MM"]["status"] == "ok"
        data = json.loads((out / "imbalance.json").read_text())
        assert len(data) == 4

    def test_defined_resamples_recorded(self, archive, tmp_path):
        # no paper is MW or WM, so no resample defines them; MM and WW
        # (P1 and P2, in every group) are defined unless a resample draws
        # neither citer, which has probability (1/2)^4 = 1/16
        run("model", archive, tmp_path / "rd", "--model", "rd")
        out = tmp_path / "imb"
        assert run("--seed", "4", "imbalance", archive, tmp_path / "rd", out,
                   "--to", "gender=MM", "--bootstrap", "40") == 0
        rows = json.loads((out / "imbalance.json").read_text())
        defined = {r["gender"]: r["resamples_defined"] for r in rows}
        assert defined["MW"] == defined["WM"] == 0
        assert defined["MM"] == defined["WW"] and 30 <= defined["MM"] < 40
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resamples_defined"] == defined
        # the CSV keeps its columns
        assert "resamples_defined" not in read_csv(out / "imbalance.csv")[0]
        assert run("imbalance", archive, tmp_path / "rd", tmp_path / "none",
                   "--stratify", "rank", "--bootstrap", "0") == 0
        manifest = json.loads((tmp_path / "none" / "manifest.json").read_text())
        assert manifest["resamples_defined"] == {"A*": dict.fromkeys(defined, 0)}

    def test_from_filter_restricts_citers(self, archive, tmp_path):
        model_dir = tmp_path / "rd"
        run("model", archive, model_dir, "--model", "rd")
        out = tmp_path / "imb"
        run("imbalance", archive, model_dir, out, "--from", "gender=WW",
            "--bootstrap", "10")
        rows = {r["gender"]: r for r in read_csv(out / "imbalance.csv")}
        # only P4's two citations are in scope
        assert int(rows["MM"]["n_obs"]) == 1
        assert int(rows["WW"]["n_obs"]) == 1

    def test_to_filter_value_with_comma(self, tmp_path):
        papers = tmp_path / "papers.tsv"
        citations = tmp_path / "citations.tsv"
        papers.write_text(TOY4_PAPERS.replace("T1\tS1", "T1\tML, theory"))
        citations.write_text(TOY4_CITATIONS)
        run("ingest", papers, citations, tmp_path / "archive")
        run("model", tmp_path / "archive", tmp_path / "rd", "--model", "rd")
        out = tmp_path / "imb"
        assert run("imbalance", tmp_path / "archive", tmp_path / "rd", out,
                   "--to", "subfield=ML, theory", "--bootstrap", "10") == 0
        rows = {r["gender"]: r for r in read_csv(out / "imbalance.csv")}
        # P1 (MM) and P2 (WW) carry that subfield; all three citations hit them
        assert int(rows["MM"]["n_obs"]) == 2
        assert int(rows["WW"]["n_obs"]) == 1

    def test_stratify_rank_emits_blocks(self, archive, tmp_path):
        model_dir = tmp_path / "rd"
        run("model", archive, model_dir, "--model", "rd")
        out = tmp_path / "imb"
        run("imbalance", archive, model_dir, out, "--stratify", "rank",
            "--bootstrap", "10")
        rows = read_csv(out / "imbalance.csv")
        assert {r["stratum"] for r in rows} == {"A*"}
        assert len(rows) == 4

    @pytest.mark.parametrize("resamples", ["-3", "1"])
    def test_bad_bootstrap_rejected_before_loading(self, tmp_path, capsys, resamples):
        # the archive and model do not exist: the count is checked first
        out = tmp_path / "imb"
        assert run("imbalance", tmp_path / "missing", tmp_path / "rd", out,
                   f"--bootstrap={resamples}") == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --bootstrap must be 0 (no CIs) or at least 2, got {resamples}"]
        assert not out.exists()

    def test_unallocatable_bootstrap_exit_code(self, archive, tmp_path, capsys):
        # numpy refuses the draws' petabytes at once, before anything is
        # written
        run("model", archive, tmp_path / "rd", "--model", "rd")
        capsys.readouterr()
        out = tmp_path / "imb"
        assert run("imbalance", archive, tmp_path / "rd", out,
                   "--bootstrap", str(10**15)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: Unable to allocate")
        assert not out.exists()

    @pytest.mark.parametrize("selection", [("--from", "gender=WW"), ("--to", "rank=A*"),
                                           ("--from", "country=XX")])
    def test_stratify_rejects_from_and_to(self, archive, tmp_path, capsys, selection):
        # a stratum is the cited selection over all citers, so a --from or
        # --to would be dropped without a word
        model_dir = tmp_path / "rd"
        run("model", archive, model_dir, "--model", "rd")
        capsys.readouterr()
        out = tmp_path / "imb"
        assert run("imbalance", archive, model_dir, out, "--stratify", "rank",
                   *selection) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --stratify cannot be combined with --from or --to")
        assert not out.exists()
        assert run("imbalance", archive, model_dir, out, "--stratify", "rank",
                   "--from", "all", "--to", "all", "--bootstrap", "0") == 0

    @pytest.mark.parametrize("edit, message", [
        (lambda path: drop_array(path, "format"), "no format, not format 3"),
        (lambda path: edit_entry(path, "format", lambda a: np.array(1)),
         "format 1, not format 3"),
        (lambda path: edit_entry(path, "format", lambda a: np.array(2)),
         "format 2, not format 3"),
        (lambda path: edit_entry(path, "format", lambda a: np.array([3])),
         "shape (1,) as its format, not format 3"),
        (lambda path: edit_entry(path, "format", lambda a: np.array(3.0)),
         "a float64 array of shape () as its format, not format 3"),
    ], ids=["no-format", "format-1", "format-2", "format-1-d", "format-float"])
    def test_artifact_of_another_format_asks_for_rerun(self, archive, tmp_path, capsys,
                                                      edit, message):
        # a groups.npz written before it held its labels and c_bar has no
        # format entry
        model_dir = tmp_path / "rd"
        run("model", archive, model_dir, "--model", "rd")
        edit(model_dir / "groups.npz")
        capsys.readouterr()
        assert run("rank", archive, tmp_path / "rank", "--model-artifact", model_dir) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "groups.npz" in err
        assert message in err and "rerun model" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tamper, message", [
        (lambda c: np.array([float(f"9{float(c[0])!r}"), *c[1:]]), "inconsistent"),
        (lambda c: np.array([np.nan, *c[1:]]), "inconsistent"),
        (lambda c: np.array([np.inf, *c[1:]]), "inconsistent"),
        (None, "not a readable group table"),
        (lambda c: c[:, None], "float64 array of 4 entries"),
        (lambda c: c[:-1], "float64 array of 4 entries"),
        (lambda c: np.array([c[0] + 2e-9, *c[1:]]), "inconsistent"),
        (lambda c: c.astype(np.float32), "float64 array of 4 entries"),
        (lambda c: c.astype(">f8"), "float64 array of 4 entries"),
    ], ids=["9-prefix", "nan", "inf", "empty-file", "one-column", "short", "nudged",
            "float32", "big-endian"])
    def test_tampered_artifact_rejected(self, archive, tmp_path, capsys,
                                        tamper, message):
        # the c_bar entry of groups.npz; "empty-file" leaves its .npy empty
        model_dir = tmp_path / "rd"
        run("model", archive, model_dir, "--model", "rd")
        path = model_dir / "groups.npz"
        if tamper is None:
            raw_entry(path, "c_bar")
        else:
            edit_entry(path, "c_bar", tamper)
        code = run("imbalance", archive, model_dir, tmp_path / "imb")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "groups.npz" in err and message in err
        assert "Traceback" not in err

    def test_c_bar_within_tolerance_is_the_stored_one(self, archive, tmp_path):
        # a c_bar within 1e-9 of the column sums passes, and is the one used
        model_dir = tmp_path / "rd"
        run("model", archive, model_dir, "--model", "rd")
        edit_entry(model_dir / "groups.npz", "c_bar", lambda c: c + 5e-10)
        nudged = cli._load_inputs(archive, model_dir)[1].c_bar
        with np.load(model_dir / "groups.npz") as npz:
            assert nudged.tobytes() == npz["c_bar"].tobytes()

    def test_artifact_of_another_archive_rejected(self, archive, toy_inputs, tmp_path,
                                                  capsys):
        model_dir = tmp_path / "rd"
        run("model", archive, model_dir, "--model", "rd")
        papers, citations = toy_inputs
        papers.write_text(TOY4_PAPERS.replace("\tT2\t", "\tT3\t"))
        other = tmp_path / "other"
        run("ingest", papers, citations, other)
        capsys.readouterr()
        assert run("rank", other, tmp_path / "rank", "--model-artifact", model_dir) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "groups.npz" in err
        assert "built from a different archive" in err and "Traceback" not in err

    def test_artifact_reads_only_groups(self, archive, tmp_path):
        # imbalance and rank read groups.npz and nothing else of the
        # artifact: without model.json, c_bar.tsv and the structural
        # report every output but the manifest keeps its bytes
        model_dir, bare = tmp_path / "pd", tmp_path / "bare"
        run("model", archive, model_dir, "--model", "pd")
        bare.mkdir()
        shutil.copy(model_dir / "groups.npz", bare)
        for artifact in (model_dir, bare):
            assert run("imbalance", archive, artifact, artifact / "imb",
                       "--bootstrap", "20") == 0
            assert run("rank", archive, artifact / "rank", "--model-artifact", artifact,
                       "--metric", "pagerank") == 0
        for name in ("imb", "rank"):
            full, stripped = tree_hashes(model_dir / name), tree_hashes(bare / name)
            # the manifests name the artifact's path
            assert full.pop("manifest.json") != stripped.pop("manifest.json")
            assert full == stripped and len(full) == 2

    @pytest.mark.parametrize("model, tamper, message", [
        ("rd", lambda path: path.unlink(), "is missing groups.npz"),
        ("rd", lambda path: path.write_bytes(path.read_bytes()[:path.stat().st_size // 2]),
         "not a readable group table"),
        ("rd", lambda path: rewrite_groups(path, "citing", slice(None), None, object),
         "not a readable group table"),
        # explicit members, which pd lists: [P1, P2] for P3 and for P4
        ("pd", lambda path: rewrite_groups(path, "indices", -1, 4), "below 4"),
        ("pd", lambda path: rewrite_groups(path, "indices", 1, 0), "strictly increasing"),
        ("pd", lambda path: rewrite_groups(path, "indptr", -1, 3), "end at the number"),
        ("pd", lambda path: rewrite_groups(path, "indptr", 1, 0), "a group has no members"),
        ("rd", lambda path: rewrite_groups(path, "targets", 0, 1), NOT_RD),
        # P2 moved to P4, which is dated after the citer P3
        ("pd", lambda path: rewrite_groups(path, "indices", 1, 3), "outside its group's base"),
        ("rd", lambda path: edit_entry(path, "citing", lambda a: np.append(a, a[-1])), NOT_RD),
        # intervals: rd's index is P1..P4, P3's group positions [0, 3)
        # without 2, P4's [0, 4) without 3; hd's index is P1, P2, P4
        # (topic T1), P3 (topic T2); rd and hd tables are compared with
        # the table the model builds
        ("rd", lambda path: rewrite_groups(path, "hi", -1, 5), NOT_RD),
        ("rd", lambda path: rewrite_groups(path, "lo", 0, 4), NOT_RD),
        ("hd", lambda path: rewrite_groups(path, "hi", 1, 4),
         "its table is not the HD table of the archive"),
        ("rd", lambda path: (rewrite_groups(path, "lo", 0, 1),
                             rewrite_groups(path, "hi", 0, 4)), NOT_RD),
        ("rd", lambda path: rewrite_groups(path, "excluded_ptr", -1, 1), NOT_RD),
        ("rd", lambda path: rewrite_groups(path, "excluded", 0, 3), NOT_RD),
        ("rd", lambda path: (rewrite_groups(path, "excluded_ptr", 1, 0),
                             rewrite_groups(path, "excluded", 0, 3)), NOT_RD),
        ("pd", lambda path: add_interval(path, 0, 1), "PD no intervals"),
        ("rd", lambda path: drop_array(path, "lo"), "not a readable group table"),
        ("rd", lambda path: raw_entry(path, "targets", b"not an array"),
         "targets is not an .npy entry"),
        ("pd", unsupported_compression, "compression method is not supported"),
        ("rd", lambda path: scalar_array(path, "citing"), "1-D signed integer arrays"),
        ("pd", lambda path: scalar_array(path, "citing"), "1-D signed integer arrays"),
        ("rd", lambda path: edit_entry(path, "hi", lambda a: a[:-1]), NOT_RD),
        ("rd", lambda path: edit_entry(path, "excluded", lambda a: np.append(a, 3)), NOT_RD),
        ("pd", lambda path: edit_entry(path, "indices", lambda a: np.append(a, 3)),
         "end at the number of members"),
        # the entries that label the table
        *[("rd", lambda path, name=name: drop_array(path, name), "not a readable group table")
          for name in ("model", "attributes", "papers_sha256", "citations_sha256", "c_bar")],
        ("rd", lambda path: edit_entry(path, "model", lambda a: np.array(3)),
         "model must be a 0-d str array"),
        ("rd", lambda path: edit_entry(path, "model", lambda a: np.array(["RD"])),
         "model must be a 0-d str array"),
        ("hd", lambda path: edit_entry(path, "attributes",
                                       lambda a: np.array(["rank", "colour"])),
         "attributes must be a 1-D str array of distinct names"),
        ("hd", lambda path: edit_entry(path, "attributes", lambda a: a[::-1]),
         "attributes must be a 1-D str array of distinct names"),
        ("hd", lambda path: edit_entry(path, "attributes", lambda a: np.append(a, a[0])),
         "attributes must be a 1-D str array of distinct names"),
        ("hd", lambda path: edit_entry(path, "attributes", lambda a: np.array(a[0])),
         "attributes must be a 1-D str array of distinct names"),
        ("hd", lambda path: edit_entry(path, "attributes", lambda a: np.arange(3)),
         "attributes must be a 1-D str array of distinct names"),
        ("rd", lambda path: edit_entry(path, "papers_sha256", lambda a: np.array("0" * 64)),
         "built from a different archive"),
        ("rd", lambda path: edit_entry(path, "citations_sha256",
                                       lambda a: np.array(str(a)[::-1])),
         "built from a different archive"),
        ("rd", lambda path: edit_entry(path, "papers_sha256", lambda a: np.array([a])),
         "built from a different archive"),
        ("rd", lambda path: edit_entry(path, "citations_sha256",
                                       lambda a: np.array(str(a).encode())),
         "built from a different archive"),
        # the labels: an rd or hd table is compared with the table its labels
        # give, a pd table's members must lie in their bases; the toy's pd
        # rank table is its pd table, so the synth archive shows those edits
        ("synth pd --attrs rank", lambda path: relabel(path, attributes=["topic"]),
         "outside its group's base"),
        ("synth pd --attrs rank", lambda path: relabel(path, attributes=["rank", "country"]),
         "outside its group's base"),
        ("rd", lambda path: relabel(path, model="XYZ"), "model 'XYZ' must be RD, HD or PD"),
        ("pd", lambda path: relabel(path, model="RD"), "RD has no attributes"),
        ("pd", lambda path: relabel(path, model="RD", attributes=[]), NOT_RD),
        ("pd", lambda path: relabel(path, model="HD"), "its table is not the HD table"),
        ("hd", lambda path: relabel(path, model="PD"), "PD no intervals"),
        ("rd", lambda path: relabel(path, attributes=["rank"]), "RD has no attributes"),
        ("hd", lambda path: relabel(path, attributes=["rank"]), "its table is not the HD table"),
        # P2 moved, in P4's group, to P3 of topic T2, and to P4, which P4
        # may not cite
        ("pd", lambda path: rewrite_groups(path, "indices", 3, 2), "outside its group's base"),
        ("pd", lambda path: rewrite_groups(path, "indices", 3, 3), "outside its group's base"),
        *OVERSIZED_GROUPS,
    ], ids=["missing", "truncated", "object-array", "member-out-of-range",
            "member-repeated", "indptr-short", "empty-group", "target-not-an-edge",
            "member-moved", "group-count-mismatch", "interval-past-end",
            "interval-reversed", "interval-across-categories", "interval-moved",
            "excluded-ptr-short", "exclusion-outside-interval", "exclusion-twice",
            "member-inside-interval", "interval-array-missing", "targets-not-npy",
            "unknown-compression", "citing-0-d", "citing-0-d-no-intervals",
            "interval-count-mismatch",
            "exclusion-count-mismatch", "stored-count-mismatch",
            *(f"{name}-missing" for name in ("model", "attributes", "papers-digest",
                                              "citations-digest", "c-bar")),
            "model-not-string", "model-1-d", "attribute-unknown",
            "attributes-reversed", "attribute-repeated", "attributes-0-d",
            "attributes-not-str", "papers-digest-other", "citations-digest-other",
            "papers-digest-1-d", "citations-digest-bytes", "pd-rank-relabelled-topic",
            "pd-rank-relabelled-rank-country", "model-unknown", "pd-relabelled-rd",
            "pd-relabelled-rd-no-attributes", "pd-relabelled-hd", "hd-relabelled-pd",
            "rd-with-attributes", "hd-other-attributes", "member-other-category",
            "member-not-citable",
            *OVERSIZED_IDS])
    def test_tampered_groups_rejected(self, archive, tmp_path, capsys,
                                      model, tamper, message):
        flags = model.split()
        if flags[0] == "synth":
            config, archive = tmp_path / "synth.cfg", tmp_path / "synth"
            config.write_text(SYNTH_CONFIG)
            run("synth", config, archive)
            flags = flags[1:]
        model_dir = tmp_path / flags[0]
        run("model", archive, model_dir, "--model", *flags)
        tamper(model_dir / "groups.npz")
        capsys.readouterr()
        assert run("imbalance", archive, model_dir, tmp_path / "imb") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "groups.npz" in err and message in err
        assert "Traceback" not in err and len(err.splitlines()) == 1


def rewrite_groups(path, name, index, value, dtype=None):
    """Rewrite groups.npz with ``arrays[name][index] = value``, optionally
    cast to ``dtype`` first."""
    with np.load(path) as npz:
        arrays = {k: npz[k] for k in npz.files}
    arrays[name] = arrays[name].astype(dtype or arrays[name].dtype)
    arrays[name][index] = value
    np.savez(path, **arrays)


def relabel(path, model=None, attributes=None):
    """Rewrite groups.npz with another model name or attributes."""
    if model is not None:
        edit_entry(path, "model", lambda a: np.array(model))
    if attributes is not None:
        edit_entry(path, "attributes", lambda a: np.array(attributes, dtype=str))


def drop_array(path, name):
    with np.load(path) as npz:
        arrays = {k: npz[k] for k in npz.files if k != name}
    np.savez(path, **arrays)


def scalar_array(path, name):
    """Rewrite groups.npz with ``arrays[name]`` the 0-d array of its first entry."""
    edit_entry(path, name, lambda a: np.array(a[0]))


def edit_entry(path, name, change):
    """Rewrite groups.npz with ``arrays[name]`` replaced by ``change`` of it."""
    with np.load(path) as npz:
        arrays = {k: npz[k] for k in npz.files}
    arrays[name] = change(arrays[name])
    np.savez(path, **arrays)


def add_interval(path, group, hi):
    """Give a table without intervals the interval [0, hi) in one group."""
    with np.load(path) as npz:
        arrays = {k: npz[k] for k in npz.files}
    groups = len(arrays["citing"])
    arrays.update(lo=np.zeros(groups, np.int64), hi=np.zeros(groups, np.int64),
                  excluded_ptr=np.zeros(groups + 1, np.int64),
                  excluded=np.zeros(0, np.int64))
    arrays["hi"][group] = hi
    np.savez(path, **arrays)


BAD_PAGERANK_PARAMETERS = [
    ("--alpha", "nan", "alpha=nan, eps=1e-06, t_max=100"),
    ("--alpha", "1.5", "alpha=1.5, eps=1e-06, t_max=100"),
    ("--alpha", "-0.5", "alpha=-0.5, eps=1e-06, t_max=100"),
    ("--eps", "nan", "alpha=0.85, eps=nan, t_max=100"),
    ("--eps", "-1e-06", "alpha=0.85, eps=-1e-06, t_max=100"),
    ("--t-max", "-1", "alpha=0.85, eps=1e-06, t_max=-1"),
]


def assert_rank_rejected(archive, tmp_path, capsys, shown, *flags):
    out = tmp_path / "rank"
    assert run("rank", archive, out, *flags) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: PageRank needs alpha in [0, 1], eps >= 0 and t_max >= 0, got {shown}"]
    assert captured.out == "" and not out.exists()


class TestRank:
    def test_two_paper_chain_pagerank(self, tmp_path):
        papers = tmp_path / "papers.tsv"
        citations = tmp_path / "citations.tsv"
        papers.write_text(
            "id\tpub_date\tgender\trank\tcountry\ttopic\tsubfield\tfirst_author\tlast_author\n"
            "A\t2010-01-01\tMM\tA\tUS\tT1\tS1\ta1\ta2\n"
            "B\t2011-01-01\tWW\tA\tUS\tT1\tS1\ta3\ta4\n"
        )
        citations.write_text("citing_id\tcited_id\nB\tA\n")
        archive = tmp_path / "arch"
        run("ingest", papers, citations, archive)
        out = tmp_path / "rank"
        assert run("rank", archive, out, "--metric", "pagerank") == 0
        rows = {r["paper_id"]: r for r in read_csv(out / "rankings.csv")}
        assert float(rows["A"]["raw"]) == pytest.approx(1.0)
        assert float(rows["B"]["raw"]) == pytest.approx(0.0)
        assert rows["A"]["rank"] == "1"
        # the manifest states how the ranking's power iteration ended
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["iterations"]) == {"observed"}
        assert manifest["converged"] == {"observed": True}
        assert 0 <= manifest["final_residual"]["observed"] < 1e-6

    def test_citations_metric_without_model(self, archive, tmp_path):
        out = tmp_path / "rank"
        run("rank", archive, out, "--metric", "citations", "--d-grid", "100")
        points = read_csv(out / "share_curve.csv")
        assert {p["source"] for p in points} == {"observed"}
        assert float(points[0]["ww_share"]) == pytest.approx(0.5)

    def test_model_artifact_adds_source(self, archive, tmp_path):
        model_dir = tmp_path / "rd"
        run("model", archive, model_dir, "--model", "rd")
        out = tmp_path / "rank"
        run("rank", archive, out, "--model-artifact", model_dir,
            "--metric", "citations", "--d-grid", "100")
        points = read_csv(out / "share_curve.csv")
        assert {p["source"] for p in points} == {"observed", "RD"}
        shares = {p["source"]: float(p["ww_share"]) for p in points}
        # at d=100 every source ranks the whole corpus
        assert shares["observed"] == shares["RD"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["iterations"] == {"observed": 0, "model": 0}
        assert manifest["final_residual"] == {"observed": None, "model": None}
        assert manifest["converged"] == {"observed": True, "model": True}
        # with eps 0 neither PageRank converges: both stop at --t-max
        run("rank", archive, out, "--model-artifact", model_dir, "--metric", "pagerank",
            "--eps", "0", "--t-max", "2")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["iterations"] == {"observed": 2, "model": 2}
        assert manifest["converged"] == {"observed": False, "model": False}
        assert all(isinstance(r, float) and r >= 0
                   for r in manifest["final_residual"].values())

    @pytest.mark.parametrize("flag, value, shown", BAD_PAGERANK_PARAMETERS)
    def test_bad_pagerank_parameters_exit_code(self, archive, tmp_path, capsys,
                                               flag, value, shown):
        assert_rank_rejected(archive, tmp_path, capsys, shown,
                             "--metric", "pagerank", f"{flag}={value}")

    @pytest.mark.parametrize("flag, value, shown", BAD_PAGERANK_PARAMETERS)
    def test_citations_metric_checks_pagerank_parameters(self, archive, tmp_path, capsys,
                                                         flag, value, shown):
        # the default metric never iterates, but rejects the same values
        assert_rank_rejected(archive, tmp_path, capsys, shown, f"{flag}={value}")

    def test_bad_d_grid_rejected(self, archive, tmp_path, capsys):
        assert run("rank", archive, tmp_path / "r", "--d-grid", "0,5") == 2
        assert "d-grid" in capsys.readouterr().err
        # the grid is checked before any input is read
        assert run("rank", tmp_path / "missing", tmp_path / "r", "--d-grid", "0,5") == 2
        assert capsys.readouterr().err == "error: --d-grid values must be in (0, 100]\n"
        # a repeated value would write a share-curve row twice
        assert run("rank", archive, tmp_path / "r", "--d-grid", "5,5,100") == 2
        assert capsys.readouterr().err == \
            "error: --d-grid values must be distinct, got '5,5,100'\n"
        assert run("rank", archive, tmp_path / "r", "--d-grid", "5,5.0") == 2
        assert "distinct" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


class TestSynth:
    def test_generates_archive(self, tmp_path, capsys):
        config = tmp_path / "synth.cfg"
        config.write_text(SYNTH_CONFIG)
        out = tmp_path / "corpus"
        assert run("synth", config, out) == 0
        assert (out / "papers.tsv").is_file()
        assert (out / "citations.tsv").is_file()
        assert "papers:" in capsys.readouterr().out

    def test_seed_flag_overrides_config(self, tmp_path):
        config = tmp_path / "synth.cfg"
        config.write_text(SYNTH_CONFIG)
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        run("synth", config, a)
        run("--seed", "99", "synth", config, b)
        run("--seed", "99", "synth", config, c)
        assert (b / "papers.tsv").read_bytes() == (c / "papers.tsv").read_bytes()
        assert (a / "papers.tsv").read_bytes() != (b / "papers.tsv").read_bytes()

    def test_infeasible_config_exit_code(self, tmp_path, capsys):
        config = tmp_path / "synth.cfg"
        config.write_text("n_papers=4\nout_degree=fixed:10\n")
        assert run("synth", config, tmp_path / "x") == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("epoch", ["99999999999999999999", "abc", "1e3",
                                       "-99999999999999", "1_000", " 7 ", "\u0663", "+5"])
    def test_bad_source_date_epoch_rejected_before_work(self, tmp_path, capsys,
                                                        monkeypatch, epoch):
        # read once before dispatch, so no archive is left without a manifest;
        # int() would take the last four, but the variable is an ASCII integer
        config = tmp_path / "synth.cfg"
        config.write_text(SYNTH_CONFIG)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        out = tmp_path / "corpus"
        assert run("synth", config, out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: SOURCE_DATE_EPOCH must be whole seconds since "
                                f"1970-01-01 within the years 1 to 9999, got {epoch!r}\n")
        assert not out.exists()


class TestReport:
    def test_report_files(self, archive, tmp_path, capsys):
        # the model artifact carries the structural report and the table's size
        model_dir = tmp_path / "hd"
        assert run("model", archive, model_dir, "--model", "hd") == 0
        assert (model_dir / "report_survival.csv").is_file()
        meta = json.loads((model_dir / "model.json").read_text())
        assert meta["ks_in_degree"] >= 0.0
        assert (meta["groups"], meta["member_entries"]) == (2, 4)
        out = capsys.readouterr().out
        assert "groups: 2" in out and "member entries: 4" in out
        with pytest.raises(SystemExit):
            run("report", archive, model_dir, tmp_path / "rep")


class TestOutputDir:
    def test_env_var_sets_default_base(self, toy_inputs, tmp_path, monkeypatch):
        papers, citations = toy_inputs
        monkeypatch.setenv("CITEGAP_OUTPUT_DIR", str(tmp_path / "base"))
        assert run("ingest", papers, citations, "archive") == 0
        assert (tmp_path / "base" / "archive" / "papers.tsv").is_file()

    def test_flag_overrides_env_var(self, toy_inputs, tmp_path, monkeypatch):
        papers, citations = toy_inputs
        monkeypatch.setenv("CITEGAP_OUTPUT_DIR", str(tmp_path / "ignored"))
        assert run("--output-dir", tmp_path / "flag", "ingest", papers,
                   citations, "archive") == 0
        assert (tmp_path / "flag" / "archive" / "papers.tsv").is_file()
        assert not (tmp_path / "ignored").exists()


class TestDeterminism:
    def test_full_pipeline_rerun_is_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        config = tmp_path / "synth.cfg"
        config.write_text(SYNTH_CONFIG)
        base = tmp_path / "work"

        def pipeline():
            run("--output-dir", base, "synth", config, "corpus")
            run("--output-dir", base, "ingest", base / "corpus" / "papers.tsv",
                base / "corpus" / "citations.tsv", "archive")
            run("--output-dir", base, "model", base / "archive", "hd",
                "--model", "hd")
            run("--output-dir", base, "--seed", "3", "imbalance",
                base / "archive", base / "hd", "imb", "--bootstrap", "50")
            run("--output-dir", base, "rank", base / "archive", "rank",
                "--model-artifact", base / "hd", "--metric", "pagerank",
                "--d-grid", "5,25,100")
            return tree_hashes(base)

        first = pipeline()
        second = pipeline()
        assert first == second
        assert len(first) > 10

    def test_each_input_is_hashed_once_per_command(self, archive, tmp_path, monkeypatch):
        # the archive digests of groups.npz and model.json and the manifest
        # read one record per input file
        hashed = []
        sha256 = cli._sha256
        monkeypatch.setattr(cli, "_sha256", lambda path: hashed.append(str(path)) or sha256(path))
        model_dir = tmp_path / "pd"
        archive_files = {"papers": archive / "papers.tsv", "citations": archive / "citations.tsv"}
        model_files = {**archive_files, "groups": model_dir / "groups.npz"}
        commands = [
            (("model", archive, model_dir, "--model", "pd"), model_dir, archive_files),
            (("imbalance", archive, model_dir, tmp_path / "imb", "--bootstrap", "10"),
             tmp_path / "imb", model_files),
            (("rank", archive, tmp_path / "rank", "--model-artifact", model_dir),
             tmp_path / "rank", model_files),
            (("rank", archive, tmp_path / "observed"), tmp_path / "observed", archive_files),
        ]
        for argv, out, inputs in commands:
            hashed.clear()
            assert run(*argv) == 0
            assert sorted(hashed) == sorted(map(str, inputs.values())), argv[0]
            manifest = json.loads((out / "manifest.json").read_text())
            assert {name: record["path"] for name, record in manifest["inputs"].items()} == {
                name: str(path) for name, path in inputs.items()}
        digests = {f"{name}_sha256": manifest["inputs"][name]["sha256"]
                   for name in archive_files}
        assert json.loads((model_dir / "model.json").read_text())["archive"] == digests
        with np.load(model_dir / "groups.npz", allow_pickle=False) as groups:
            assert {name: groups[name].item() for name in digests} == digests


def test_pipeline_runs_with_scipy_blocked(tmp_path):
    # the package needs numpy only: with every scipy import failing, no
    # scipy module loads with the CLI and the whole pipeline still runs;
    # a fresh interpreter is needed because this test session imports scipy
    (tmp_path / "synth.cfg").write_text(SYNTH_CONFIG)
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from citegap.cli import main\n"
        "loaded = [m for m in sys.modules if m.startswith('scipy') and sys.modules[m]]\n"
        "assert not loaded, loaded\n"
        "steps = [['synth', 'synth.cfg', 'corpus'],\n"
        "         ['ingest', 'corpus/papers.tsv', 'corpus/citations.tsv', 'archive']]\n"
        "for model in ('rd', 'hd', 'pd'):\n"
        "    steps += [['model', 'archive', model, '--model', model],\n"
        "              ['imbalance', 'archive', model, f'imb-{model}', '--bootstrap', '20'],\n"
        "              ['rank', 'archive', f'rank-{model}', '--model-artifact', model,\n"
        "               '--metric', 'pagerank']]\n"
        "for argv in steps:\n"
        "    assert main(argv) == 0, argv\n"
    )
    src = str(Path(citegap.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "rank-pd" / "share_curve.csv").is_file()


def run_fresh(code, **env):
    """Run ``code`` in a fresh interpreter on this package, with none of the
    BLAS thread variables set apart from ``env``; returns its stdout."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_ENV}
    base["PYTHONPATH"] = str(Path(citegap.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_loads_no_submodule_and_no_numpy():
    # the package's names are resolved on first access, each from the one
    # submodule that defines it
    code = (
        "import sys\n"
        "import citegap\n"
        "print(sorted(m for m in sys.modules if m.startswith(('citegap.', 'numpy'))))\n"
        "from citegap import load_network\n"
        "print(sorted(m for m in sys.modules if m.startswith('citegap.')))\n"
        "from citegap import *\n"
        "print(set(citegap.__all__) <= set(globals()))\n"
    )
    assert run_fresh(code).splitlines() == ["[]", "['citegap.corpus']", "True"]


#: command lines that cover every command and every bootstrap path
COMMAND_LINES = [
    ["synth", "synth.cfg", "synth-out"],
    ["ingest", "corpus/papers.tsv", "corpus/citations.tsv", "ingest-out"],
    ["model", "archive", "model-out", "--model", "pd"],
    ["imbalance", "archive", "pd", "imbalance-out", "--bootstrap", "20"],
    ["imbalance", "archive", "pd", "strata-out", "--bootstrap", "20", "--stratify", "rank"],
    ["rank", "archive", "rank-out", "--metric", "pagerank"],
    ["rank", "archive", "rank-pd-out", "--model-artifact", "pd"],
]


def run_commands_fresh(tmp_path, check):
    """Run each of ``COMMAND_LINES`` as ``citegap`` does, in a fresh
    interpreter per command, all started at once, on inputs built in
    ``tmp_path``; ``check`` is code run once the command has returned.
    Returns the last line each run wrote to stderr."""
    (tmp_path / "synth.cfg").write_text(SYNTH_CONFIG)
    assert run("--output-dir", tmp_path, "synth", tmp_path / "synth.cfg", "corpus") == 0
    assert run("--output-dir", tmp_path, "ingest", tmp_path / "corpus" / "papers.tsv",
               tmp_path / "corpus" / "citations.tsv", "archive") == 0
    assert run("--output-dir", tmp_path, "model", tmp_path / "archive", "pd",
               "--model", "pd") == 0
    code = (
        "import runpy, sys\n"
        "sys.argv = ['citegap', *sys.argv[1:]]\n"
        "try:\n"
        "    runpy.run_module('citegap', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code in (None, 0), exc.code\n"
    ) + check
    env = {**os.environ, "PYTHONPATH": str(Path(citegap.__file__).resolve().parents[1])}
    procs = [subprocess.Popen([sys.executable, "-c", code, *argv], cwd=tmp_path, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
             for argv in COMMAND_LINES]
    lines = []
    for proc, argv in zip(procs, COMMAND_LINES):
        err = proc.communicate()[1]
        assert proc.returncode == 0, (argv, err)
        lines.append(err.splitlines()[-1])
    return lines


def test_no_command_loads_numpy_ma(tmp_path):
    # np.percentile and a bare np.unique import numpy.ma, and a module-level
    # Fraction imports fractions and decimal, which costs each process time;
    # only PD's --exact counts in Fractions
    check = "print([m for m in ('numpy.ma', 'fractions') if m in sys.modules], file=sys.stderr)\n"
    for argv, loaded in zip(COMMAND_LINES, run_commands_fresh(tmp_path, check)):
        assert loaded == "[]", argv


#: the most objects a command may leave in reference cycles: its argument
#: parser and closures, 684-772 for ``COMMAND_LINES``
CYCLIC_GARBAGE_BOUND = 1500


def test_commands_leave_no_array_in_reference_cycles(tmp_path):
    # the entry runs each command without the cyclic collector, which costs
    # no memory only while what a command leaves in reference cycles is
    # small and holds no array; the collector does not track numpy arrays,
    # so what the cyclic garbage refers to is searched too
    check = (
        "import gc\n"
        "import numpy as np\n"
        "gc.unfreeze()\n"
        "gc.set_debug(gc.DEBUG_SAVEALL)\n"
        "gc.collect()\n"
        "held = gc.garbage + gc.get_referents(*gc.garbage)\n"
        "arrays = sum(isinstance(o, np.ndarray) for o in held)\n"
        "print(len(gc.garbage), arrays, file=sys.stderr)\n"
    )
    for argv, line in zip(COMMAND_LINES, run_commands_fresh(tmp_path, check)):
        garbage, arrays = map(int, line.split())
        assert arrays == 0, argv
        assert 0 < garbage < CYCLIC_GARBAGE_BOUND, (argv, garbage)


def test_archive_commands_load_no_numpy_char(tmp_path):
    # the loader reads tables as ranges of code points, not as numpy str
    # arrays stripped by numpy.char
    (tmp_path / "synth.cfg").write_text(SYNTH_CONFIG)
    assert run("--output-dir", tmp_path, "synth", tmp_path / "synth.cfg", "corpus") == 0
    code = (
        "import runpy, sys\n"
        "sys.argv = ['citegap', *sys.argv[1:]]\n"
        "try:\n"
        "    runpy.run_module('citegap', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code in (None, 0), exc.code\n"
        "print('numpy.char' in sys.modules, file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(citegap.__file__).resolve().parents[1])}
    for argv in (["ingest", "corpus/papers.tsv", "corpus/citations.tsv", "archive"],
                 ["rank", "archive", "rank-out", "--metric", "pagerank"]):
        result = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        assert result.returncode == 0, (argv, result.stderr)
        assert result.stderr.splitlines()[-1] == "False", argv


def test_every_export_resolves():
    for name in citegap.__all__:
        value = getattr(citegap, name)
        owner = importlib.import_module(f"citegap.{citegap._EXPORTS[name]}")
        assert value is getattr(owner, name)
        assert name in dir(citegap)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        citegap.no_such_name


def test_public_names_are_pinned():
    assert citegap.__all__ == [
        "ATTRIBUTE_ORDER", "CitationNetwork", "ConferenceRank", "ContributionGroup",
        "ExpectedCitations", "GenderCategory", "GenerationError", "ImbalanceReport",
        "IngestError", "ModelError", "OracleEstimate", "Paper", "PaperFilter", "PaperTable",
        "ParseError", "PublicationRecord", "RankingResult", "SharePoint", "SynthConfig",
        "bootstrap_ci", "category_key", "citation_scores", "compute_model",
        "expected_by_gender", "filter_citations", "gender_category", "generate_network",
        "homophilic_draws", "imbalance_report", "ks_distance", "levenshtein", "load_network",
        "match_records", "monte_carlo_oracle", "normalized_scores", "observed_as_expectations",
        "observed_by_gender", "over_under", "pagerank_observed", "pagerank_reference",
        "preferential_draws", "random_draws", "share_curve", "stratified_imbalance",
        "structural_report",
    ]
    # no command used these; tests keep their own versions
    for name in ("spearman", "top_share", "eligible_set_rd", "eligible_set_hd",
                 "citation_probability"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(citegap, name)


@pytest.mark.parametrize("env, expected", [
    ({}, {"OPENBLAS_NUM_THREADS": "1"}),
    ({"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2"}),
    ({"GOTO_NUM_THREADS": "2"}, {"GOTO_NUM_THREADS": "2"}),
    ({"OMP_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}),
], ids=["unset", "openblas", "goto", "omp"])
def test_cli_entry_starts_one_blas_thread_unless_told(env, expected):
    # the entry sets OpenBLAS's thread count before numpy loads, and only
    # when the user has chosen none
    code = (
        "import json, os, runpy, sys\n"
        "sys.argv = ['citegap', '--version']\n"
        "try:\n"
        "    runpy.run_module('citegap', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        f"names = {BLAS_THREAD_ENV!r}\n"
        "print(json.dumps({k: os.environ[k] for k in names if k in os.environ}))\n"
    )
    version, blas = run_fresh(code, **env).splitlines()
    assert version == citegap.__version__
    assert json.loads(blas) == expected


@pytest.mark.parametrize("argv", [["--version"], ["synth", "synth.cfg", "corpus"]],
                         ids=["exit", "return"])
def test_cli_entry_runs_without_the_cyclic_collector_and_freezes_at_exit(tmp_path, argv):
    # whether the command returns or exits, it leaves the heap frozen, so the
    # collection at shutdown has nothing to traverse
    (tmp_path / "synth.cfg").write_text(SYNTH_CONFIG)
    code = (
        "import gc, os, runpy, sys\n"
        f"os.chdir({str(tmp_path)!r})\n"
        f"sys.argv = ['citegap', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('citegap', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code in (None, 0), exc.code\n"
        "print(gc.isenabled(), gc.get_freeze_count() > 0)\n"
    )
    assert run_fresh(code).splitlines()[-1] == "False True"


@pytest.mark.parametrize("enabled", [True, False])
def test_cli_main_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    # the entry's policy is the process's; a library caller keeps its own
    (tmp_path / "synth.cfg").write_text(SYNTH_CONFIG)
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        frozen = gc.get_freeze_count()
        assert run("--output-dir", tmp_path, "synth", tmp_path / "synth.cfg", "corpus") == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_freezing_at_exit_loses_no_output(tmp_path, monkeypatch, capsys):
    # the toy pipeline through the entry, a fresh interpreter per command,
    # writes the same files and stdout as through cli.main in-process
    steps = [["synth", "synth.cfg", "corpus"],
             ["ingest", "corpus/papers.tsv", "corpus/citations.tsv", "archive"],
             ["model", "archive", "pd", "--model", "pd"],
             ["imbalance", "archive", "pd", "imb", "--bootstrap", "20"],
             ["rank", "archive", "rank", "--model-artifact", "pd", "--metric", "pagerank"]]
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    entry, in_process = tmp_path / "entry", tmp_path / "in-process"
    for root in (entry, in_process):
        root.mkdir()
        (root / "synth.cfg").write_text(SYNTH_CONFIG)
    # stdout buffered, as a pipe's is by default, so an exit that skipped
    # the final flush would lose it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(citegap.__file__).resolve().parents[1])
    entry_out = []
    for argv in steps:
        result = subprocess.run([sys.executable, "-m", "citegap", *argv], cwd=entry, env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, (argv, result.stderr)
        entry_out.append(result.stdout)
    monkeypatch.chdir(in_process)
    capsys.readouterr()
    in_process_out = []
    for argv in steps:
        assert main(argv) == 0, argv
        in_process_out.append(capsys.readouterr().out)
    assert (in_process / "rank" / "share_curve.csv").is_file()
    assert tree_hashes(entry) == tree_hashes(in_process)
    assert entry_out == in_process_out
    assert all(entry_out)


def test_console_script_is_the_module_entry():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = pyproject.read_text().split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    target = dict(re.findall(r'^(\S+) = "(\S+)"$', scripts, re.M))["citegap"]
    module, func = target.split(":")
    assert getattr(importlib.import_module(module), func) is cli_entry
