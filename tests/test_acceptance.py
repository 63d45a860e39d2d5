"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`."""

import json
import math
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from flowline_risk.cli import EXIT_OK, main
from flowline_risk.crs import GeoPoint, project, unproject
from flowline_risk.evaluation import f1_score, metric_rows, silhouette_sweep
from flowline_risk.features import ColumnMeta, Dataset, stratified_split
from flowline_risk.geometry import Point2D
from flowline_risk.ingest import SPILL_COLUMNS, Table, parse_descriptive, parse_operational, parse_spills
from flowline_risk.matcher import match_flowlines, match_spills
from flowline_risk.ml import (
    DecisionTreeClassifier,
    GBDTClassifier,
    LogisticRegressionGD,
    RandomForestClassifier,
    fit_kmeans,
    logistic_loss_and_grad,
)
from flowline_risk.numerics import covariance, pca_fit, sym_eigen
from flowline_risk.report import validate_report
from flowline_risk.spatial_index import SpatialIndex
from flowline_risk.synth import REFERENCE_DATE, config_a, config_b, generate

from conftest import random_multiline, three_blobs, two_blobs
from geometry_oracle import bbox_area, bounding_box, line_count, multiline_length, naive_length
from rundiff import comparable_files, differing
from test_spatial_index import near, random_boxes, scan_radius

ACCEPT_SEED = 42


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} [{name}] failed{suffix}"


def materialize(cfg, out_dir):
    result = generate(cfg, out_dir)
    desc = parse_descriptive(result.descriptive_path)
    ops = parse_operational(result.operational_path, reference_date=REFERENCE_DATE)
    spills = parse_spills(result.spills_path, reference_date=REFERENCE_DATE)
    return result, desc.records, ops.records, spills.records


def test_criterion_01_spatial_index_oracle(capsys):
    rng = np.random.default_rng(ACCEPT_SEED)
    started = time.perf_counter()
    boxes = random_boxes(rng, 1000)
    index = SpatialIndex.build(boxes)
    exact = True
    for _ in range(200):
        p = Point2D(rng.uniform(-50, 1050), rng.uniform(-50, 1050))
        r = rng.uniform(0.0, 80.0)
        if near(index, p, r) != scan_radius(boxes, p, r):
            exact = False
            break
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        verdict(1, "spatial-index-oracle", exact and elapsed < 2.0,
                f"exact={exact}, {elapsed:.2f}s")


def test_criterion_02_matcher_ground_truth(tmp_path, capsys):
    result_a, desc_a, ops_a, _ = materialize(config_a(seed=ACCEPT_SEED), tmp_path / "a")
    result_b, desc_b, ops_b, _ = materialize(config_b(seed=ACCEPT_SEED), tmp_path / "b")

    started = time.perf_counter()
    _, unmatched_a, audit_a = match_flowlines(ops_a, desc_a)
    _, _, audit_b = match_flowlines(ops_b, desc_b)
    elapsed = time.perf_counter() - started

    # Chosen ids come from the audit, as the benchmark's merge_recall reads them.
    truth_a = result_a.ground_truth.line_matches
    chosen_a = {a.record_id: a.chosen_id for a in audit_a}
    correct_a = sum(1 for op_id, want in truth_a.items() if chosen_a.get(op_id) == want)
    perfect_a = correct_a == len(ops_a) and not unmatched_a

    truth_b = result_b.ground_truth.line_matches
    chosen_b = {a.record_id: a.chosen_id for a in audit_b}
    errors_b = {op_id for op_id, want in truth_b.items() if chosen_b.get(op_id) != want}
    errors_logged = all(op_id in chosen_b for op_id in errors_b)
    ambiguous_b = 0 < len(errors_b)

    ok = perfect_a and ambiguous_b and errors_logged and elapsed < 10.0
    with capsys.disabled():
        verdict(2, "matcher-ground-truth", ok,
                f"A {correct_a}/{len(ops_a)}, B errors={len(errors_b)} logged={errors_logged}, "
                f"{elapsed:.2f}s")


def test_criterion_03_spill_attribution(tmp_path, capsys):
    result, desc, ops, spills = materialize(config_a(seed=ACCEPT_SEED), tmp_path)
    merged, _, _ = match_flowlines(ops, desc)
    attributions = match_spills(spills, merged)
    truth = result.ground_truth.spill_matches
    correct = sum(1 for a in attributions
                  if a.matched and truth[a.spill_id] == a.matched_flowline_id)
    rate = correct / len(attributions)

    # spills beyond 25 m of every line: far corner of the generated area
    x, y = merged.geometry.xy[0].tolist()  # the first vertex of the first line
    far_geo = unproject(Point2D(x - 50_000.0, y - 50_000.0))
    far = Table.from_rows(SPILL_COLUMNS, [("FAR1", merged.operational["operator_name"][0],
                                            [far_geo.latitude, far_geo.longitude], "UNKNOWN",
                                            REFERENCE_DATE.isoformat())])
    far_att = match_spills(far, merged)
    far_unmatched = far_att[0].matched_flowline_id is None

    ok = rate >= 0.95 and far_unmatched
    with capsys.disabled():
        verdict(3, "spill-attribution", ok,
                f"{correct}/{len(attributions)} correct, far spill unmatched={far_unmatched}")


def test_criterion_04_geometry_crs_numerics(capsys):
    rng = np.random.default_rng(ACCEPT_SEED)
    geometry_ok = True
    for _ in range(100):
        g = random_multiline(rng)
        if not math.isclose(multiline_length(g), naive_length(g), rel_tol=1e-9, abs_tol=1e-12):
            geometry_ok = False
        xs = [p.x for line in g.lines for p in line.vertices]
        ys = [p.y for line in g.lines for p in line.vertices]
        box = bounding_box(g)
        if (box.min_x, box.min_y, box.max_x, box.max_y) != (min(xs), min(ys), max(xs), max(ys)):
            geometry_ok = False
        if bbox_area(box) != (max(xs) - min(xs)) * (max(ys) - min(ys)):
            geometry_ok = False
        if line_count(g) != len(g.lines):
            geometry_ok = False

    worst_round_trip = 0.0
    for _ in range(1000):
        lat = rng.uniform(37.0, 41.0)
        lon = rng.uniform(-109.0, -102.0)
        p = project(GeoPoint(lat, lon))
        q = project(unproject(p))
        worst_round_trip = max(worst_round_trip, math.hypot(p.x - q.x, p.y - q.y))

    easting_ok = all(
        abs(project(GeoPoint(lat, -105.0)).x - 500000.0) <= 1e-6
        for lat in np.linspace(0.0, 70.0, 50)
    )

    ok = geometry_ok and worst_round_trip < 1e-3 and easting_ok
    with capsys.disabled():
        verdict(4, "geometry-crs-numerics", ok,
                f"round-trip max {worst_round_trip:.2e} m, CM easting exact={easting_ok}")


def test_criterion_05_pca(capsys):
    rng = np.random.default_rng(ACCEPT_SEED)
    recon_ok = True
    for _ in range(20):
        A = rng.normal(size=(6, 6))
        A = (A + A.T) / 2.0
        values, vectors = sym_eigen(A)
        if np.linalg.norm(A - vectors @ np.diag(values) @ vectors.T) >= 1e-8:
            recon_ok = False

    values2, _ = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    closed_ok = abs(values2[0] - 3.0) < 1e-10 and abs(values2[1] - 1.0) < 1e-10

    X = rng.normal(size=(120, 7)) * rng.uniform(0.2, 4.0, size=7)
    model = pca_fit(X, 7)
    trace_ok = abs(np.sum(model.explained_variance) - np.trace(covariance(X))) < 1e-8

    ok = recon_ok and closed_ok and trace_ok
    with capsys.disabled():
        verdict(5, "pca-eigen", ok,
                f"reconstruction<1e-8={recon_ok}, closed-form={closed_ok}, trace={trace_ok}")


def test_criterion_06_model_correctness(capsys):
    rng = np.random.default_rng(ACCEPT_SEED)

    X = rng.normal(size=(80, 5))
    y = (rng.random(80) < 0.4).astype(int)
    grad_ok = True
    h = 1e-6
    for _ in range(10):
        w = rng.normal(size=5)
        b = float(rng.normal())
        _, grad_w, _ = logistic_loss_and_grad(w, b, X, y, 1e-3)
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            numeric = (logistic_loss_and_grad(w + e, b, X, y, 1e-3)[0]
                       - logistic_loss_and_grad(w - e, b, X, y, 1e-3)[0]) / (2 * h)
            if abs(numeric - grad_w[i]) / max(1e-8, abs(grad_w[i])) >= 1e-6:
                grad_ok = False

    Xg = rng.normal(size=(200, 4))
    yg = ((Xg[:, 0] - Xg[:, 2] + 0.3 * Xg[:, 1]) > 0).astype(int)
    gbdt = GBDTClassifier(n_trees=60, max_depth=3).fit(Xg, yg)
    gbdt_monotone = all(b2 <= a2 + 1e-12
                        for a2, b2 in zip(gbdt.stage_losses, gbdt.stage_losses[1:]))

    km = fit_kmeans(rng.normal(size=(400, 3)), 4, seed=ACCEPT_SEED)
    kmeans_monotone = all(b2 <= a2 + 1e-9
                          for a2, b2 in zip(km.inertia_history, km.inertia_history[1:]))

    Xr = rng.normal(size=(150, 6))
    yr = ((Xr[:, 1] + Xr[:, 4]) > 0).astype(int)
    rf = RandomForestClassifier(n_trees=1, max_depth=6, mtry=6, seed=1, bootstrap=False).fit(Xr, yr)
    cart = DecisionTreeClassifier(max_depth=6, min_leaf=2).fit(Xr, yr)
    probe = rng.normal(size=(300, 6))
    rf_equals_cart = bool(np.array_equal(rf.predict(probe), cart.predict(probe)))

    xor_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    xor_y = np.array([0, 1, 1, 0])
    tree_acc = float(np.mean(
        DecisionTreeClassifier(max_depth=2, min_leaf=1).fit(xor_X, xor_y).predict(xor_X) == xor_y))
    gbdt_acc = float(np.mean(
        GBDTClassifier(n_trees=10, max_depth=2, shrinkage=0.5, min_leaf=1)
        .fit(xor_X, xor_y).predict(xor_X) == xor_y))
    lr_acc = float(np.mean(LogisticRegressionGD().fit(xor_X, xor_y).predict(xor_X) == xor_y))
    xor_ok = tree_acc == 1.0 and gbdt_acc == 1.0 and lr_acc <= 0.6

    ok = grad_ok and gbdt_monotone and kmeans_monotone and rf_equals_cart and xor_ok
    with capsys.disabled():
        verdict(6, "model-correctness", ok,
                f"grad={grad_ok}, gbdt-monotone={gbdt_monotone}, kmeans-monotone={kmeans_monotone}, "
                f"rf==cart={rf_equals_cart}, xor tree/gbdt/lr={tree_acc}/{gbdt_acc}/{lr_acc}")


def test_criterion_07_metric_arithmetic(capsys):
    knn_f1_ok = round(f1_score(0.80, 0.33), 2) == 0.47

    y_true = np.array([0] * 990 + [1] * 10)
    y_pred = np.zeros(1000, dtype=int)
    rows = {r.averaging: r for r in metric_rows("MAJORITY", y_true, y_pred)}
    majority = rows["positive-class"]
    majority_ok = majority.accuracy == pytest.approx(0.990) and majority.recall == 0.0

    ok = knn_f1_ok and majority_ok
    with capsys.disabled():
        verdict(7, "metric-arithmetic", ok,
                f"f1(0.80,0.33)->{f1_score(0.80, 0.33):.2f}, majority acc={majority.accuracy:.3f} "
                f"recall={majority.recall}")


def test_criterion_08_clustering(capsys):
    X2, _ = two_blobs(seed=ACCEPT_SEED)
    best2, scores2, _, _ = silhouette_sweep(X2, range(2, 6), seed=ACCEPT_SEED)
    two_ok = best2 == 2 and scores2[2] >= 0.9

    X3, _ = three_blobs(seed=ACCEPT_SEED)
    best3, _, _, _ = silhouette_sweep(X3, range(2, 6), seed=ACCEPT_SEED)
    three_ok = best3 == 3

    ok = two_ok and three_ok
    with capsys.disabled():
        verdict(8, "clustering-sweep", ok,
                f"two-blob k*={best2} s={scores2[2]:.3f}, three-blob k*={best3}")


def _write_run_config(path: Path) -> Path:
    path.write_text("\n".join([
        "seed = %d" % ACCEPT_SEED,
        "synth_preset = a",
        "synth_n_lines = 1000",
        "drop_id_like = true",
        "reference_date = 2024-06-30",
    ]) + "\n")
    return path


def test_criterion_09_end_to_end(tmp_path, capsys):
    cfg = _write_run_config(tmp_path / "run.cfg")

    started = time.perf_counter()
    code = main(["run-all", "--config", str(cfg), "--out", str(tmp_path / "one")])
    elapsed = time.perf_counter() - started

    report_path = tmp_path / "one" / "report.json"
    report = json.loads(report_path.read_text())
    validate_report(report)
    rows_ok = len(report["metrics"]["rows"]) == 36

    svgs = sorted((tmp_path / "one" / "figures").glob("*.svg"))
    figures_ok = len(svgs) == 8
    for svg in svgs:
        ET.parse(svg)  # raises on malformed XML

    code2 = main(["run-all", "--config", str(cfg), "--out", str(tmp_path / "two")])
    one = comparable_files(tmp_path / "one")
    differ = differing(tmp_path / "one", tmp_path / "two")

    ok = (code == EXIT_OK and code2 == EXIT_OK and elapsed < 60.0 and rows_ok
          and figures_ok and not differ)
    with capsys.disabled():
        verdict(9, "end-to-end", ok,
                f"exit={code}, {elapsed:.1f}s, rows=36:{rows_ok}, figures=8:{figures_ok}, "
                f"{len(one)} files, differing={differ}")


def test_criterion_10_split_integrity(capsys):
    rng = np.random.default_rng(ACCEPT_SEED)
    metas = [ColumnMeta(f"c{i}", "numeric") for i in range(3)]
    ok = True
    for trial in range(100):
        n0 = int(rng.integers(4, 150))
        n1 = int(rng.integers(2, 60))
        n = n0 + n1
        ds = Dataset(rng.normal(size=(n, 3)),
                     np.array([0] * n0 + [1] * n1),
                     metas, [f"r{i}" for i in range(n)])
        pair = stratified_split(ds, 0.7, seed=int(rng.integers(1 << 30)))

        if sorted(pair.train.row_ids + pair.test.row_ids) != sorted(ds.row_ids):
            ok = False
        if set(pair.train.row_ids) & set(pair.test.row_ids):
            ok = False
        for side in (pair.train, pair.test):
            share = len(side.row_ids) / n
            for cls, total in ((0, n0), (1, n1)):
                got = int(np.sum(side.y == cls))
                if abs(got - total * share) > 1.0 + 1e-9:
                    ok = False
    with capsys.disabled():
        verdict(10, "split-integrity", ok, "100 random datasets")
