"""Tests of the benchmark itself.  Run from the checkout root:

    python -m pytest perfbench
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import rawgen  # noqa: E402
import tracer  # noqa: E402

N_PAPERS, N_YEARS = 600, 25


def test_generator_is_seeded():
    a, b, c = (rawgen.generate(N_PAPERS, N_YEARS, s) for s in (4, 4, 5))
    assert np.array_equal(a.citing, b.citing) and np.array_equal(a.cited, b.cited)
    assert a.record == b.record
    assert not np.array_equal(a.citing[:50], c.citing[:50])


def test_generator_record_matches_the_filter(tmp_path):
    from citegap import load_network

    corpus = rawgen.generate(N_PAPERS, N_YEARS, 7)
    corpus.write(tmp_path / "papers.tsv", tmp_path / "citations.tsv")
    rec = corpus.record
    for injected in ("duplicates", "out_of_window", "self_citations", "later_dated"):
        assert rec[injected] > 0, injected
    assert rec["raw_rows"] == (rec["base"] + rec["duplicates"] + rec["out_of_window"]
                               + rec["self_citations"] + rec["later_dated"])
    net = load_network(tmp_path / "papers.tsv", tmp_path / "citations.tsv")
    assert (net.m, net.n) == (rec["kept"], rec["papers_kept"])
    assert len({p.pub_date for p in net.papers}) <= N_YEARS


def test_archive_check_flags_each_rule(tmp_path):
    corpus = rawgen.generate(N_PAPERS, N_YEARS, 3)
    corpus.write(tmp_path / "papers.tsv", tmp_path / "citations.tsv")
    rows = (tmp_path / "citations.tsv").read_text().splitlines()
    (tmp_path / "summary.json").write_text(
        f'{{"papers": {N_PAPERS}, "citations": {len(rows) - 1}}}')
    arch = checks.Archive.read(tmp_path)
    fails = checks.check_archive(tmp_path, arch, len(rows) - 1, N_PAPERS)
    # the raw table breaks every filter rule the generator injected
    assert any("duplicate" in f for f in fails)
    assert any("window" in f for f in fails)
    assert any("self-citations" in f for f in fails)


def test_self_times_subtract_children():
    spans = [
        ["cli.rank", 0.0, 10.0, -1, 0, {}],
        ["ranking.share_curve", 1.0, 7.0, 0, 0, {}],
        ["ranking.pagerank_observed", 2.0, 4.0, 1, 0, {}],
        ["ranking.normalized_scores", 3.0, 3.5, 2, 0, {}],
    ]
    assert tracer.self_times(spans) == [4.0, 4.0, 1.5, 0.5]


def test_install_wraps_imported_names_and_uninstall_restores():
    import citegap.cli
    import citegap.ranking

    original = citegap.ranking.pagerank_reference
    t = tracer.Tracer()
    patched = tracer.install(t)
    try:
        assert citegap.cli.pagerank_reference is citegap.ranking.pagerank_reference
        assert citegap.cli.pagerank_reference is not original
    finally:
        tracer.uninstall(patched)
    assert citegap.cli.pagerank_reference is original
    assert citegap.ranking.pagerank_reference is original


def test_smoke_reports_every_metric_and_passes_checks():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "smoke: ok" in proc.stdout


def test_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                           "pd-ties", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
