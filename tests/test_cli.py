import csv
import hashlib
import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest

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

    def test_rd_warns_on_attrs_without_failing(self, archive, tmp_path, caplog):
        with caplog.at_level(logging.WARNING):
            code = run("model", archive, tmp_path / "rd", "--model", "rd",
                       "--attrs", "rank,topic")
        assert code == 0
        assert any("ignored" in r.message for r in caplog.records)

    def test_structural_report_files(self, archive, tmp_path):
        out = tmp_path / "hd"
        run("model", archive, out, "--model", "hd")
        names = {p.name for p in out.iterdir()}
        assert {"report_degree_hist.csv", "report_pairs_rank.csv",
                "report_pairs_country.csv", "report_pairs_topic.csv",
                "report_survival.csv", "model.json"} <= names

    def test_groups_table(self, archive, tmp_path):
        out = tmp_path / "hd"
        run("model", archive, out, "--model", "hd")
        with np.load(out / "groups.npz", allow_pickle=False) as groups:
            assert sorted(groups.files) == ["citing", "indices", "indptr",
                                            "target_ptr", "targets"]
            # two groups (P3's and P4's merged pair)
            assert groups["citing"].tolist() == [2, 3]
            assert groups["target_ptr"].tolist() == [0, 1, 3]

    def test_rerun_identical(self, archive, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        out = tmp_path / "pd"
        run("model", archive, out, "--model", "pd")
        before = tree_hashes(out)
        run("model", archive, out, "--model", "pd")
        assert tree_hashes(out) == before

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

    def test_stratify_rank_emits_blocks(self, archive, tmp_path):
        model_dir = tmp_path / "rd"
        run("model", archive, model_dir, "--model", "rd")
        out = tmp_path / "imb"
        run("imbalance", archive, model_dir, out, "--stratify", "rank",
            "--bootstrap", "10")
        rows = read_csv(out / "imbalance.csv")
        assert {r["stratum"] for r in rows} == {"A*"}
        assert len(rows) == 4

    @pytest.mark.parametrize("broken", [
        lambda meta: {k: v for k, v in meta.items() if k != "archive"},
        lambda meta: {**meta, "attributes": None},
        lambda meta: [meta],
        lambda meta: {**meta, "archive": {"papers_sha256": "0" * 64}},
        lambda meta: {**meta, "model": 3},
        lambda meta: {**meta, "exact": "yes"},
        lambda meta: {**meta, "count_tol": "1e-9"},
    ], ids=["no-archive", "null-attributes", "top-level-array", "no-digest",
            "model-not-string", "exact-not-bool", "count-tol-not-number"])
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

    @pytest.mark.parametrize("tamper, message", [
        (lambda path: path.unlink(), "is missing groups.npz"),
        (lambda path: path.write_bytes(path.read_bytes()[:path.stat().st_size // 2]),
         "not a readable group table"),
        (lambda path: rewrite_groups(path, "citing", slice(None), None, object),
         "not a readable group table"),
        (lambda path: rewrite_groups(path, "indices", -1, 4), "below 4"),
        (lambda path: rewrite_groups(path, "indices", 1, 0), "strictly increasing"),
        (lambda path: rewrite_groups(path, "indptr", -1, 4), "end at the number"),
        (lambda path: rewrite_groups(path, "indptr", 1, 0), "a group has no members"),
        (lambda path: rewrite_groups(path, "targets", 0, 1), "archive's citations"),
        (lambda path: rewrite_groups(path, "indices", 1, 3), "inconsistent"),
    ], ids=["missing", "truncated", "object-array", "member-out-of-range",
            "member-repeated", "indptr-short", "empty-group", "target-not-an-edge",
            "member-moved"])
    def test_tampered_groups_rejected(self, archive, tmp_path, capsys,
                                      tamper, message):
        model_dir = tmp_path / "rd"
        run("model", archive, model_dir, "--model", "rd")
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

    def test_bad_d_grid_rejected(self, archive, tmp_path, capsys):
        assert run("rank", archive, tmp_path / "r", "--d-grid", "0,5") == 2
        assert "d-grid" in capsys.readouterr().err


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
        model_dir = tmp_path / "hd"
        run("model", archive, model_dir, "--model", "hd")
        out = tmp_path / "rep"
        assert run("report", archive, model_dir, out) == 0
        assert (out / "report_survival.csv").is_file()
        assert "KS(in-citations)" in capsys.readouterr().out


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
