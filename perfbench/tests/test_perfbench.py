"""Tests of the benchmark's own machinery.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import json
import sys
import time
from pathlib import Path

import pytest

import checks
import hooks
from child import Spawner, run_child
from flowline_risk import synth
from flowline_risk.ingest import parse_descriptive, parse_operational
from flowline_risk.matcher import match_flowlines, write_audit_log
from spans import SpanTable, Tracer

ROOT = Path(__file__).resolve().parents[2]


# self time -------------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = SpanTable.from_rows([
        ("pipeline.merge", 0.0, 10.0, -1),
        ("matcher.match", 1.0, 4.0, 0),
        ("crs.project", 2.0, 3.0, 1),
        ("ingest.parse", 5.0, 6.0, 0),
    ])
    assert spans.self_times().tolist() == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert spans.layer_self_times() == pytest.approx(
        {"pipeline": 6.0, "matcher": 2.0, "crs": 1.0, "ingest": 1.0})


def test_self_time_counts_overlapping_and_straddling_children_once():
    overlapping = SpanTable.from_rows([
        ("a", 0.0, 10.0, -1), ("b", 1.0, 5.0, 0), ("c", 3.0, 7.0, 0),
    ])
    assert overlapping.self_times()[0] == pytest.approx(4.0)
    straddling = SpanTable.from_rows([("a", 0.0, 10.0, -1), ("b", 8.0, 12.0, 0)])
    assert straddling.self_times()[0] == pytest.approx(8.0)


def test_tracer_records_parents_and_values():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("spatial_index.query_radius", lambda: {1, 2, 3}, lambda a, r: len(r))
    outer = tracer.wrap("matcher.match_flowlines", lambda: (leaf(), leaf()))
    outer()
    spans = tracer.spans()
    assert [spans.names[i] for i in spans.name] == [
        "matcher.match_flowlines", "spatial_index.query_radius", "spatial_index.query_radius"]
    assert spans.parent.tolist() == [-1, 0, 0]
    assert spans.value[1:].tolist() == [3.0, 3.0]
    # clock reads: outer 0..5, leaves 1..2 and 3..4
    assert spans.self_times().tolist() == pytest.approx([3.0, 1.0, 1.0])
    assert spans.outermost("spatial_index.query_radius").tolist() == [1, 2]
    assert spans.under("matcher.match_flowlines").tolist() == [False, True, True]


def test_span_tables_round_trip_and_concatenate(tmp_path):
    a = SpanTable.from_rows([("x", 0.0, 2.0, -1), ("y", 0.5, 1.0, 0)])
    b = SpanTable.from_rows([("y", 0.0, 3.0, -1), ("z", 1.0, 2.0, 0)])
    a.save(tmp_path / "a.npz", missing=["m.gone"])
    loaded = SpanTable.load(tmp_path / "a.npz")
    both = SpanTable.concat([loaded, b])
    assert both.parent.tolist() == [-1, 0, -1, 2]
    assert [both.names[i] for i in both.name] == ["x", "y", "y", "z"]
    assert both.missing == ["m.gone"]
    assert both.self_times().tolist() == pytest.approx([1.5, 0.5, 2.0, 1.0])


def test_hooks_restore_originals_and_report_missing_names():
    from flowline_risk import numerics

    original = numerics.sym_eigen
    tracer = Tracer()
    missing, undo = hooks.install(tracer, [
        ("flowline_risk.numerics", "sym_eigen", "numerics.sym_eigen", hooks._first_arg_len),
        ("flowline_risk.numerics", "no_such_name", "numerics.nothing", None),
    ])
    try:
        numerics.pca_fit([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]], k=1)
    finally:
        hooks.uninstall(undo)
    assert missing == ["flowline_risk.numerics.no_such_name"]
    assert numerics.sym_eigen is original
    spans = tracer.spans()
    assert [spans.names[i] for i in spans.name] == ["numerics.sym_eigen"]
    assert spans.value.tolist() == [2.0]


# recall checker ----------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_network(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    cfg = synth.SynthConfig(n_lines=12, spill_rate=0.5, seed=5)
    result = synth.generate(cfg, out)
    desc = parse_descriptive(result.descriptive_path).records
    ops = parse_operational(result.operational_path, reference_date=synth.REFERENCE_DATE).records
    _, _, audit = match_flowlines(ops, desc)
    audit_csv = out / "merge_audit.csv"
    write_audit_log(audit_csv, audit)
    return out, synth.load_ground_truth(result.ground_truth_path), audit_csv


def _rewrite(src: Path, dst: Path, column: str, mutate) -> None:
    with open(src, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    mutate(rows, column)
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _swap_first_two(rows, column):
    rows[0][column], rows[1][column] = rows[1][column], rows[0][column]


def test_merge_recall_rejects_a_wrong_mapping(tiny_network, tmp_path):
    _, truth, audit_csv = tiny_network
    assert checks.merge_recall(audit_csv, truth.line_matches) == 1.0
    wrong = tmp_path / "merge_audit.csv"
    _rewrite(audit_csv, wrong, "chosen_id", _swap_first_two)
    recall = checks.merge_recall(wrong, truth.line_matches)
    assert recall == pytest.approx(10 / 12)
    assert any("merge_recall" in p for p in checks.recall_problems("a", recall, 1.0))
    assert checks.recall_problems("b", recall, 1.0) == []


def test_spill_recall_rejects_a_wrong_mapping(tiny_network, tmp_path):
    _, truth, _ = tiny_network
    assert len(truth.spill_matches) >= 2
    right = tmp_path / "right.csv"
    with open(right, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["spill_id", "matched_flowline_id", "distance", "tolerance_used"])
        for spill_id, op_id in truth.spill_matches.items():
            writer.writerow([spill_id, op_id, "1.0", "5"])
    assert checks.spill_recall(right, truth.spill_matches) == 1.0
    wrong = tmp_path / "wrong.csv"
    _rewrite(right, wrong, "matched_flowline_id", lambda rows, c: rows[0].update({c: "OP99999"}))
    recall = checks.spill_recall(wrong, truth.spill_matches)
    assert recall == pytest.approx(1 - 1 / len(truth.spill_matches))
    assert any("spill_recall" in p for p in checks.recall_problems("a", 1.0, recall))


# artifact digest -----------------------------------------------------------------

def test_digest_ignores_volatile_fields_only(tmp_path):
    def make(root: Path, created_at: str, metric: float) -> Path:
        (root / "artifacts").mkdir(parents=True)
        report = {"run_id": "0" * 12, "created_at": created_at, "timings": {"merge": metric},
                  "metrics": {"rows": [metric]}}
        (root / "report.json").write_text(json.dumps(report), encoding="utf-8")
        (root / "artifacts" / "run_log.jsonl").write_text(created_at, encoding="utf-8")
        manifest = {"report": {"path": "report.json", "sha256": created_at, "stage": "report"}}
        (root / "artifacts" / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        return root

    first = checks.artifact_digest(make(tmp_path / "a", "t1", 0.5))
    assert checks.artifact_digest(make(tmp_path / "b", "t2", 0.5)) == first
    assert checks.artifact_digest(make(tmp_path / "c", "t1", 0.25)) != first


# child processes -------------------------------------------------------------------

def test_wait4_reports_the_childs_own_peak_rss(tmp_path):
    block_mb = 120
    code = f"import sys; b = b'x' * ({block_mb} * 10**6); sys.exit(len(b) % 7)"
    # This process's own high-water mark must not leak into the children.
    ballast = b"y" * (2 * block_mb * 10**6)
    with Spawner() as spawner:
        big = spawner.run([sys.executable, "-c", code], tmp_path, {}, tmp_path / "big.log", 60)
        small = spawner.run([sys.executable, "-c", "pass"], tmp_path, {}, tmp_path / "small.log", 60)
    del ballast
    assert big.returncode == (block_mb * 10**6) % 7
    assert small.returncode == 0
    assert small.maxrss_mb < block_mb / 2
    assert big.maxrss_mb - small.maxrss_mb == pytest.approx(block_mb, rel=0.1)


def test_a_hung_child_is_killed_at_its_timeout(tmp_path):
    started = time.perf_counter()
    result = run_child([sys.executable, "-c", "import time; time.sleep(60)"],
                       tmp_path, {}, tmp_path / "hang.log", 0.5)
    assert result.returncode < 0
    assert time.perf_counter() - started < 30


# contract ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    catalogue = json.loads((ROOT / "perfbench" / "metrics.json").read_text(encoding="utf-8"))
    for group in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[group]]
        assert declared == [(m["name"], m["unit"], m["better"]) for m in catalogue[group]]
