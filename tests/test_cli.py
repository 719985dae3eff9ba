import csv
import hashlib
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import citegap
from citegap.cli import main

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
        assert names == {"papers.tsv", "citations.tsv", "summary.json", "manifest.json"}

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
            assert sorted(groups.files) == ["citing", "excluded", "excluded_ptr", "hi",
                                            "indices", "indptr", "lo", "target_ptr",
                                            "targets"]
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
            "format": 2, "groups": 2, "member_entries": 4, "intervals": 2,
            "exclusions": 1, "stored_entries": 5}
        assert ("groups: 2\nmember entries: 4\nintervals: 2\nexclusions: 1\n"
                "stored entries: 5\n") in capsys.readouterr().out
        # pd groups are explicit: its table leaves the interval arrays out
        run("model", archive, tmp_path / "pd", "--model", "pd")
        with np.load(tmp_path / "pd" / "groups.npz", allow_pickle=False) as groups:
            assert sorted(groups.files) == ["citing", "indices", "indptr", "target_ptr",
                                            "targets"]
            assert groups["indices"].tolist() == [0, 1, 0, 1]

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

    @pytest.mark.parametrize("broken", [
        lambda meta: {k: v for k, v in meta.items() if k != "archive"},
        lambda meta: {**meta, "attributes": None},
        lambda meta: [meta],
        lambda meta: {**meta, "archive": {"papers_sha256": "0" * 64}},
        lambda meta: {**meta, "model": 3},
        lambda meta: {**meta, "exact": "yes"},
        lambda meta: {**meta, "count_tol": "1e-9"},
        lambda meta: {**meta, "member_entries": float(meta["member_entries"])},
        lambda meta: {**meta, "intervals": None},
        lambda meta: {**meta, "stored_entries": True},
    ], ids=["no-archive", "null-attributes", "top-level-array", "no-digest",
            "model-not-string", "exact-not-bool", "count-tol-not-number",
            "member-entries-not-int", "intervals-not-int", "stored-entries-bool"])
    def test_malformed_model_json_rejected(self, archive, tmp_path, capsys, broken):
        model_dir = tmp_path / "rd"
        run("model", archive, model_dir, "--model", "rd")
        meta_path = model_dir / "model.json"
        meta_path.write_text(json.dumps(broken(json.loads(meta_path.read_text()))))
        capsys.readouterr()
        assert run("imbalance", archive, model_dir, tmp_path / "imb") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: {k: v for k, v in meta.items() if k != "format"},
         "has no format, not format 2"),
        (lambda meta: {**meta, "format": 1}, "has format 1, not format 2"),
    ], ids=["no-format", "format-1"])
    def test_artifact_of_another_format_asks_for_rerun(self, archive, tmp_path, capsys,
                                                      edit, message):
        # an artifact written before groups were interval-coded has no format
        model_dir = tmp_path / "rd"
        run("model", archive, model_dir, "--model", "rd")
        meta_path = model_dir / "model.json"
        meta_path.write_text(json.dumps(edit(json.loads(meta_path.read_text()))))
        capsys.readouterr()
        assert run("rank", archive, tmp_path / "rank", "--model-artifact", model_dir) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "rerun model" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tamper, message", [
        (lambda text: text.replace("P1\t", "P1\t9"), "inconsistent"),
        (lambda text: re.sub(r"P1\t\S+", "P1\tnan", text), "inconsistent"),
        (lambda text: re.sub(r"P1\t\S+", "P1\tinf", text), "inconsistent"),
        (lambda text: "", "inconsistent"),
        (lambda text: re.sub(r"P1\t\S+", "P1", text),
         "c_bar.tsv line 2: expected 2 columns, got 1"),
    ], ids=["9-prefix", "nan", "inf", "empty-file", "one-column"])
    def test_tampered_artifact_rejected(self, archive, tmp_path, capsys,
                                        tamper, message):
        model_dir = tmp_path / "rd"
        run("model", archive, model_dir, "--model", "rd")
        cbar = model_dir / "c_bar.tsv"
        cbar.write_text(tamper(cbar.read_text()))
        code = run("imbalance", archive, model_dir, tmp_path / "imb")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err

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
        ("rd", lambda path: rewrite_groups(path, "targets", 0, 1), "archive's citations"),
        ("pd", lambda path: rewrite_groups(path, "indices", 1, 3), "inconsistent"),
        ("rd", lambda path: rewrite_meta(path.with_name("model.json"), groups=3),
         "records 3 groups"),
        # intervals: rd's index is P1..P4, P3's group positions [0, 3)
        # without 2, P4's [0, 4) without 3; hd's index is P1, P2, P4
        # (topic T1), P3 (topic T2)
        ("rd", lambda path: rewrite_groups(path, "hi", -1, 5), "0 <= lo <= hi <= 4"),
        ("rd", lambda path: rewrite_groups(path, "lo", 0, 4), "0 <= lo <= hi <= 4"),
        ("hd", lambda path: rewrite_groups(path, "hi", 1, 4), "more than one category"),
        ("rd", lambda path: (rewrite_groups(path, "lo", 0, 1),
                             rewrite_groups(path, "hi", 0, 4)), "inconsistent"),
        ("rd", lambda path: rewrite_groups(path, "excluded_ptr", -1, 1),
         "end at the number of exclusions"),
        ("rd", lambda path: rewrite_groups(path, "excluded", 0, 3),
         "inside its group's interval"),
        ("rd", lambda path: (rewrite_groups(path, "excluded_ptr", 1, 0),
                             rewrite_groups(path, "excluded", 0, 3)),
         "exclusions must be strictly increasing"),
        ("pd", lambda path: add_interval(path, 0, 1), "outside their group's interval"),
        ("rd", lambda path: drop_array(path, "lo"), "not a readable group table"),
        ("rd", lambda path: rewrite_meta(path.with_name("model.json"), intervals=1),
         "records 1 intervals"),
        ("rd", lambda path: rewrite_meta(path.with_name("model.json"), exclusions=0),
         "records 0 exclusions"),
        ("rd", lambda path: rewrite_meta(path.with_name("model.json"), stored_entries=9),
         "records 9 stored_entries"),
    ], ids=["missing", "truncated", "object-array", "member-out-of-range",
            "member-repeated", "indptr-short", "empty-group", "target-not-an-edge",
            "member-moved", "group-count-mismatch", "interval-past-end",
            "interval-reversed", "interval-across-categories", "interval-moved",
            "excluded-ptr-short", "exclusion-outside-interval", "exclusion-twice",
            "member-inside-interval", "interval-array-missing", "interval-count-mismatch",
            "exclusion-count-mismatch", "stored-count-mismatch"])
    def test_tampered_groups_rejected(self, archive, tmp_path, capsys,
                                      model, tamper, message):
        model_dir = tmp_path / model
        run("model", archive, model_dir, "--model", model)
        tamper(model_dir / "groups.npz")
        capsys.readouterr()
        assert run("imbalance", archive, model_dir, tmp_path / "imb") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "groups.npz" in err and message in err
        assert "Traceback" not in err


def rewrite_groups(path, name, index, value, dtype=None):
    """Rewrite groups.npz with ``arrays[name][index] = value``, optionally
    cast to ``dtype`` first."""
    with np.load(path) as npz:
        arrays = {k: npz[k] for k in npz.files}
    arrays[name] = arrays[name].astype(dtype or arrays[name].dtype)
    arrays[name][index] = value
    np.savez(path, **arrays)


def drop_array(path, name):
    with np.load(path) as npz:
        arrays = {k: npz[k] for k in npz.files if k != name}
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


def rewrite_meta(path, **fields):
    path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))


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
