"""The model stages: train, evaluate and cluster.

They read the featurize stage's design matrix through the manifest and
write models, metrics and clusters next to it. They live apart from
pipeline.py so that a process running an earlier stage never loads the
classifiers, the eigensolver, the metrics or the worker pool.
"""

from __future__ import annotations

import csv
import logging
import time

import numpy as np

from .config import ConfigError, RunConfig
from .evaluation import (
    NO_STRUCTURE_SILHOUETTE,
    REPORT_ORDER,
    metric_table,
    silhouette_sweep,
    structure_found,
)
from .features import (
    DegenerateClass,
    Dataset,
    apply_scaler,
    load_dataset,
    standardize,
    stratified_split,
)
from .fileio import write_array, write_json
from .ml import (
    AdaBoostClassifier,
    GBDTClassifier,
    KNNClassifier,
    LinearSVM,
    LogisticRegressionGD,
    RandomForestClassifier,
    model_from_dict,
    save_model,
    schema_hash,
)
from .numerics import PCAModel, choose_k_by_variance, pca_fit, pca_transform
from .pipeline import Manifest, RunPaths, SchemaHashMismatch
from .workers import map_jobs, worker_count

log = logging.getLogger(__name__)


def _load_features(manifest: Manifest) -> Dataset:
    """The design matrix; a features.csv that does not parse as its sidecar
    describes raises InconsistentArtifact."""
    sidecar = manifest.read_json("features_meta")
    try:
        return load_dataset(manifest.require("features"), sidecar)
    except (ValueError, csv.Error) as exc:  # UnicodeDecodeError is a ValueError
        raise manifest.inconsistent("features", exc) from exc


def _build_models(cfg: RunConfig) -> dict:
    mtry = cfg.rf_mtry if cfg.rf_mtry > 0 else None
    return {
        "LR": LogisticRegressionGD(cfg.lr_rate, cfg.lr_epochs, cfg.lr_l2),
        "SVM": LinearSVM(cfg.svm_c, cfg.svm_epochs),
        "GBDT": GBDTClassifier(cfg.gbdt_trees, cfg.gbdt_depth, cfg.gbdt_shrinkage),
        "ADABOOST": AdaBoostClassifier(cfg.adaboost_stumps),
        "RF": RandomForestClassifier(cfg.rf_trees, cfg.rf_depth, mtry, seed=cfg.seed),
    }


# The train stage's fits, largest first, so that the shortest start last.
_FIT_ORDER = ("RF", "GBDT", "ADABOOST", "LR", "SVM")


def _timed_fit(job):
    """A (model, X, y) job's fitted model and its fit's seconds."""
    model, X, y = job
    started = time.perf_counter()
    model.fit(X, y)
    return model, time.perf_counter() - started


def _pca_by_config(cfg: RunConfig, Z: np.ndarray, min_k: int = 1) -> tuple[PCAModel, np.ndarray]:
    """PCA of Z cut to k components, and Z's full variance spectrum, from one
    eigendecomposition; k is cfg.pca_k, else the variance rule, at least min_k.

    With fewer rows than columns PCA finds at most n - 1 components (see
    pca_fit), and a k above what it found raises BadK naming both."""
    full = pca_fit(Z)
    k = cfg.pca_k if cfg.pca_k > 0 else choose_k_by_variance(
        full.explained_variance, cfg.pca_variance_threshold)
    return full.truncated(max(k, min_k)), full.explained_variance


def _require_splittable(y: np.ndarray) -> None:
    """Refuse, before any model fit, labels whose stratified split would leave
    train or test with one class. stratified_split puts each class with two or
    more rows on both sides and a one-row class in train only, so every class
    needs two rows."""
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) < 2 or counts.min() < 2:
        per_class = ", ".join(f"class {c}: {n}" for c, n in zip(classes.tolist(), counts.tolist()))
        raise DegenerateClass(
            "the train/test split needs at least two rows of each of the two classes; "
            f"the featurized rows have {per_class}")


def stage_train(cfg: RunConfig, paths: RunPaths, manifest: Manifest) -> dict:
    ds = _load_features(manifest)
    _require_splittable(ds.y)
    train_rows, test_rows = stratified_split(ds.y, cfg.train_fraction, cfg.seed)
    train_z, means, sds = standardize(ds.X[train_rows])
    train_y = ds.y[train_rows]

    lanes = {"raw": train_z}
    pca_info = None
    if cfg.pca:
        pca, spectrum = _pca_by_config(cfg, train_z)
        lanes["pca"] = pca_transform(pca, train_z)
        pca_info = {
            "k": pca.n_components,
            "means": pca.means.tolist(),
            "explained_variance": pca.explained_variance.tolist(),
            "total_variance": float(np.sum(spectrum)),
        }

    for lane, X_train in lanes.items():
        if cfg.rf_mtry > X_train.shape[1]:
            raise ConfigError(f"rf_mtry = {cfg.rf_mtry} exceeds the {X_train.shape[1]} "
                              f"columns of the {lane} lane")
    # Every fit is a job of its own; the models are saved in _build_models order.
    models = {lane: _build_models(cfg) for lane in lanes}
    jobs = [(kind, lane) for kind in _FIT_ORDER for lane in lanes]
    fits = dict(zip(jobs, map_jobs(_timed_fit, [
        (models[lane][kind], lanes[lane], train_y) for kind, lane in jobs])))
    fit_s = {}
    for lane in lanes:
        for kind in models[lane]:
            model, seconds = fits[kind, lane]
            fit_s[f"{kind}_{lane}"] = seconds
            path = paths.models / f"{kind}_{lane}.json"
            save_model(model, path, seed=cfg.seed, column_meta=ds.column_meta)
            manifest.record(f"model_{kind}_{lane}", path, "train")

    if pca_info is not None:
        components_path = paths.artifacts / "pca_components.npy"
        write_array(components_path, pca.components)
        manifest.record("pca_components", components_path, "train")
    training_path = paths.artifacts / "training.json"
    write_json(training_path, {
        "split": {
            "seed": cfg.seed,
            "train_fraction": cfg.train_fraction,
            "train_ids": [ds.row_ids[i] for i in train_rows],
            "test_ids": [ds.row_ids[i] for i in test_rows],
        },
        "scaler": {"means": means.tolist(), "sds": sds.tolist()},
        "pca": pca_info,
        "lanes": sorted(lanes),
    })
    manifest.record("training", training_path, "train")
    return {
        "lanes": sorted(lanes),
        "train_rows": len(train_rows),
        "test_rows": len(test_rows),
        "pca_k": None if pca_info is None else pca_info["k"],
        "fit_s": fit_s,
        "workers": worker_count(len(jobs)),
    }


def _pca_model(manifest: Manifest, training: dict) -> PCAModel | None:
    """The PCA model train fitted: its means and variances from training.json,
    its components from pca_components.npy; None when train ran without PCA."""
    pca = training["pca"]
    if pca is None:
        return None
    components = manifest.read_array("pca_components", 2, part_of="training",
                                     inlined="components" in pca)
    means = np.asarray(pca["means"])
    if components.shape != (len(means), pca["k"]):
        raise manifest.inconsistent("pca_components", (
            f"its shape is {components.shape}, but training.json has {len(means)} means "
            f"and k = {pca['k']}"))
    return PCAModel(means, components, np.asarray(pca["explained_variance"]))


def _lane_matrices(ds: Dataset, training: dict, pca: PCAModel | None,
                   ids: list[str]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Rebuild the rows named by ids as per-lane standardized (and projected)
    matrices with labels; for the train ids these are the bits train fitted on."""
    by_id = {rid: i for i, rid in enumerate(ds.row_ids)}
    rows = [by_id[rid] for rid in ids]
    scaler = training["scaler"]
    z = apply_scaler(ds.X[rows], np.asarray(scaler["means"]), np.asarray(scaler["sds"]))
    y = ds.y[rows]

    lanes = {"raw": (z, y)}
    if pca is not None:
        lanes["pca"] = (pca_transform(pca, z), y)
    return lanes


def _load_fitted_model(manifest: Manifest, key: str, features_schema: str, width: int):
    """Load a model, refusing one fitted against other feature columns, and
    one whose state does not fit a lane of `width` columns (InconsistentArtifact)."""
    doc = manifest.read_json(key)
    if doc.get("schema_hash") != features_schema:
        raise SchemaHashMismatch(
            f"model {key!r} was fitted against feature schema {doc.get('schema_hash')}, "
            f"but the features now have schema {features_schema}; rerun train")
    try:
        return model_from_dict(doc, width)
    except (ValueError, TypeError) as exc:
        raise manifest.inconsistent(key, exc) from exc


def stage_evaluate(cfg: RunConfig, paths: RunPaths, manifest: Manifest) -> dict:
    ds = _load_features(manifest)
    features_schema = schema_hash(ds.column_meta)
    training = manifest.read_json("training")
    models_by_lane = {
        lane: {
            kind: _load_fitted_model(manifest, f"model_{kind}_{lane}", features_schema,
                                     ds.n_cols if lane == "raw" else training["pca"]["k"])
            for kind in REPORT_ORDER if f"model_{kind}_{lane}" in manifest.entries
        }
        for lane in training["lanes"]
    }
    pca = _pca_model(manifest, training)
    train_lanes = _lane_matrices(ds, training, pca, training["split"]["train_ids"])
    test_lanes = _lane_matrices(ds, training, pca, training["split"]["test_ids"])

    rows = []
    for lane, models in models_by_lane.items():
        # KNN is lazy: its fitted state is the train lane itself, so it is
        # fitted here instead of being stored by train.
        models["KNN"] = KNNClassifier(cfg.knn_k).fit(*train_lanes[lane])
        X_test, y_test = test_lanes[lane]
        for row in metric_table(models, X_test, y_test):
            doc = row.to_dict()
            doc["pca"] = lane == "pca"
            rows.append(doc)

    metrics_path = paths.artifacts / "metrics.json"
    write_json(metrics_path, {"rows": rows})
    manifest.record("metrics", metrics_path, "evaluate")
    return {"metric_rows": len(rows)}


def stage_cluster(cfg: RunConfig, paths: RunPaths, manifest: Manifest) -> dict:
    ds = _load_features(manifest)
    full_z, _, _ = standardize(ds.X)

    model, _ = _pca_by_config(cfg, full_z, min_k=2)
    scores = pca_transform(model, full_z)

    k_range = range(cfg.cluster_k_min, cfg.cluster_k_max + 1)
    best_k, sweep, fits, fit_s = silhouette_sweep(scores, k_range, seed=cfg.seed)
    km = fits[best_k]
    found = structure_found(sweep)
    if not found:
        log.warning("no cluster structure: every silhouette score is at or below %g, "
                    "so best_k = %d is decided by noise", NO_STRUCTURE_SILHOUETTE, best_k)

    clustering_path = paths.artifacts / "clustering.json"
    write_json(clustering_path, {
        "k_range": [int(k) for k in k_range],
        "scores": {str(k): sweep[k] for k in sweep},
        "best_k": best_k,
        "structure_found": found,
        "pca_k": model.n_components,
        "inertia": km.inertia,
        "inertia_history": km.inertia_history,
        "pc_scores": scores[:, :2].tolist(),
        "assignments": km.assignments.tolist(),
        "actual": ds.y.tolist(),
    })
    manifest.record("clustering", clustering_path, "cluster")
    return {"best_k": best_k, "scores": sweep, "fit_s": fit_s,
            "workers": worker_count(len(k_range))}
