"""Pipeline stages and their on-disk artifacts.

Every stage writes its outputs under the run directory and records a
content hash in the manifest; consumers re-hash their inputs and refuse to
run against files that changed since they were produced. That keeps stale
artifact mixes loud instead of silently wrong.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import logging
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .crs import GeoPoint
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
    FeatureConfig,
    apply_scaler,
    assemble,
    load_dataset,
    save_dataset,
    standardize,
    stratified_split,
)
from .fileio import read_json, write_csv, write_json
from .geometry import MultiLine, Point2D, PolyLine
from .ingest import (
    OperationalFlowline,
    parse_descriptive,
    parse_operational,
    parse_spills,
    write_diagnostics,
)
from .matcher import (
    MergedFlowline,
    SpillAttribution,
    assign_risk,
    match_flowlines,
    match_spills,
    write_audit_log,
)
from .ml import (
    AdaBoostClassifier,
    GBDTClassifier,
    KNNClassifier,
    LinearSVM,
    LogisticRegressionGD,
    RandomForestClassifier,
    load_model,
    save_model,
    schema_hash,
)
from .numerics import PCAModel, choose_k_by_variance, pca_fit, pca_transform
from .synth import generate
from .workers import map_jobs, worker_count

log = logging.getLogger(__name__)


class MissingArtifact(FileNotFoundError):
    pass


class SchemaHashMismatch(RuntimeError):
    pass


class UnreadableManifest(RuntimeError):
    pass


@dataclass
class RunPaths:
    root: Path

    @property
    def data(self) -> Path:
        return self.root / "data"

    @property
    def artifacts(self) -> Path:
        return self.root / "artifacts"

    @property
    def models(self) -> Path:
        return self.artifacts / "models"

    @property
    def figures(self) -> Path:
        return self.root / "figures"

    @property
    def tables(self) -> Path:
        return self.root / "tables"

    @property
    def manifest(self) -> Path:
        return self.artifacts / "manifest.json"

    def ensure(self) -> "RunPaths":
        for p in (self.data, self.artifacts, self.models, self.figures, self.tables):
            p.mkdir(parents=True, exist_ok=True)
        return self


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Manifest:
    def __init__(self, paths: RunPaths):
        self.paths = paths
        self.entries: dict[str, dict] = {}
        if paths.manifest.exists():
            try:
                self.entries = read_json(paths.manifest)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise UnreadableManifest(
                    f"{paths.manifest} is unreadable ({exc}); rerun the pipeline from its first stage"
                ) from exc

    def record(self, name: str, path: Path, stage: str) -> None:
        self.entries[name] = {
            "path": str(path.relative_to(self.paths.root)),
            "sha256": _sha256(path),
            "stage": stage,
        }
        write_json(self.paths.manifest, self.entries)

    def require(self, name: str) -> Path:
        entry = self.entries.get(name)
        if entry is None:
            raise MissingArtifact(f"artifact {name!r} not produced yet; run its stage first")
        path = self.paths.root / entry["path"]
        if not path.exists():
            raise MissingArtifact(f"artifact file {path} is gone")
        if _sha256(path) != entry["sha256"]:
            raise SchemaHashMismatch(
                f"artifact {name!r} changed on disk since stage {entry['stage']!r} wrote it"
            )
        return path


def run_id_for(cfg: RunConfig) -> str:
    payload = json.dumps(cfg.echo(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# serialization of merged flowlines


def _geometry_to_coords(g: MultiLine) -> list:
    return [[[p.x, p.y] for p in member.vertices] for member in g.lines]


def _geometry_from_coords(coords) -> MultiLine:
    return MultiLine(tuple(
        PolyLine(tuple(Point2D(float(x), float(y)) for x, y in member))
        for member in coords
    ))


# merged.json keys of the OperationalFlowline fields stored under another name
_RENAMED_KEYS = {
    "source_row_id": "row_id",
    "diameter_inches": "diameter_in",
    "length_feet": "length_ft",
    "max_operating_pressure": "max_op_pressure",
}


def _operational_to_dict(op: OperationalFlowline) -> dict:
    d = {_RENAMED_KEYS.get(f.name, f.name): getattr(op, f.name) for f in fields(op)}
    d["construction_date"] = op.construction_date.isoformat()
    d["start"] = [op.start.latitude, op.start.longitude]
    d["end"] = [op.end.latitude, op.end.longitude]
    return d


def _operational_from_dict(d: dict) -> OperationalFlowline:
    values = {f.name: d[_RENAMED_KEYS.get(f.name, f.name)] for f in fields(OperationalFlowline)}
    values["construction_date"] = datetime.date.fromisoformat(d["construction_date"])
    values["start"] = GeoPoint(*d["start"])
    values["end"] = GeoPoint(*d["end"])
    return OperationalFlowline(**values)


def merged_to_dict(m: MergedFlowline) -> dict:
    return {
        "operational": _operational_to_dict(m.operational),
        "descriptive_id": m.descriptive_id,
        "geometry": _geometry_to_coords(m.geometry),
        "operator_name": m.operator_name,
        "match_tolerance": m.match_tolerance,
        "endpoint_distances": list(m.endpoint_distances),
    }


def merged_from_dict(d: dict) -> MergedFlowline:
    return MergedFlowline(
        operational=_operational_from_dict(d["operational"]),
        descriptive_id=d["descriptive_id"],
        geometry=_geometry_from_coords(d["geometry"]),
        operator_name=d["operator_name"],
        match_tolerance=float(d["match_tolerance"]),
        endpoint_distances=tuple(d["endpoint_distances"]),
    )


# ---------------------------------------------------------------------------
# stages


def stage_synth(cfg: RunConfig, paths: RunPaths, manifest: Manifest) -> dict:
    synth_cfg = cfg.synth_config()
    result = generate(synth_cfg, paths.data, cfg.projection_params())
    manifest.record("descriptive", result.descriptive_path, "synth")
    manifest.record("operational", result.operational_path, "synth")
    manifest.record("spills", result.spills_path, "synth")
    manifest.record("ground_truth", result.ground_truth_path, "synth")
    return {
        "n_lines": synth_cfg.n_lines,
        "preset": cfg.synth_preset.lower(),
        "placement_attempts": result.attempts,
        "rejected_before_snap": result.rejected_before_snap,
        "rejected_after_snap": result.rejected_after_snap,
    }


def _input_paths(cfg: RunConfig, paths: RunPaths, manifest: Manifest) -> tuple[Path, Path, Path]:
    if cfg.descriptive_path:
        return Path(cfg.descriptive_path), Path(cfg.operational_path), Path(cfg.spills_path)
    return (
        manifest.require("descriptive"),
        manifest.require("operational"),
        manifest.require("spills"),
    )


def stage_merge(cfg: RunConfig, paths: RunPaths, manifest: Manifest) -> dict:
    desc_path, op_path, _ = _input_paths(cfg, paths, manifest)
    params = cfg.projection_params()
    reference = cfg.resolve_reference_date()

    desc = parse_descriptive(desc_path, geographic=cfg.descriptive_geographic, params=params)
    operational = parse_operational(op_path, params=params, reference_date=reference)
    diagnostics = desc.diagnostics + operational.diagnostics
    diag_path = paths.artifacts / "diagnostics.csv"
    write_diagnostics(diag_path, diagnostics)

    merged, unmatched, audit = match_flowlines(
        operational.records, desc.records, cfg.tolerance_ladder(), params,
        whole_geometry=cfg.match_whole_geometry,
    )

    merged_path = paths.artifacts / "merged.json"
    write_json(merged_path, {
        "records": [merged_to_dict(m) for m in merged],
        "unmatched": unmatched,
    })
    audit_path = paths.artifacts / "merge_audit.csv"
    write_audit_log(audit_path, audit)

    manifest.record("merged", merged_path, "merge")
    manifest.record("merge_audit", audit_path, "merge")
    manifest.record("diagnostics", diag_path, "merge")

    by_step: dict[str, int] = {}
    for a in audit:
        if a.chosen_id is not None:
            key = f"{a.step_reached:g}"
            by_step[key] = by_step.get(key, 0) + 1
    return {
        "descriptive_total": desc.accepted + desc.rejected,
        "descriptive_accepted": desc.accepted,
        "operational_total": operational.accepted + operational.rejected,
        "operational_accepted": operational.accepted,
        "rejected_rows": len(diagnostics),
        "matched": len(merged),
        "unmatched": len(unmatched),
        "matched_by_step": by_step,
    }


def stage_attribute(cfg: RunConfig, paths: RunPaths, manifest: Manifest) -> dict:
    params = cfg.projection_params()
    merged_doc = read_json(manifest.require("merged"))
    merged = [merged_from_dict(d) for d in merged_doc["records"]]

    _, _, spills_path = _input_paths(cfg, paths, manifest)
    spills = parse_spills(spills_path, params=params, reference_date=cfg.resolve_reference_date())

    attributions = match_spills(spills.records, merged, cfg.tolerance_ladder(), params)

    attr_path = paths.artifacts / "attributions.csv"
    write_csv(attr_path, ["spill_id", "matched_flowline_id", "distance", "tolerance_used"], (
        [
            a.spill_id,
            a.matched_flowline_id or "",
            "" if a.matched_flowline_id is None else f"{a.distance:.6f}",
            f"{a.tolerance_used:g}",
        ]
        for a in attributions
    ))

    manifest.record("attributions", attr_path, "attribute")
    matched = sum(1 for a in attributions if a.matched)
    return {
        "spills_total": spills.accepted + spills.rejected,
        "spills_attributed": matched,
        "spills_unattributed": len(attributions) - matched,
        "high_risk_lines": sum(m.risk for m in assign_risk(merged, attributions)),
    }


def load_labeled(manifest: Manifest) -> list[MergedFlowline]:
    """Merged flowlines with their risk label from the spill attributions."""
    merged = [merged_from_dict(d) for d in read_json(manifest.require("merged"))["records"]]
    with open(manifest.require("attributions"), newline="", encoding="utf-8") as fh:
        attributions = [
            SpillAttribution(row["spill_id"], row["matched_flowline_id"] or None,
                             float(row["distance"] or "nan"), float(row["tolerance_used"]))
            for row in csv.DictReader(fh)
        ]
    return assign_risk(merged, attributions)


def _feature_config(cfg: RunConfig) -> FeatureConfig:
    return FeatureConfig(
        drop_id_like=cfg.drop_id_like,
        reference_date=cfg.resolve_reference_date(),
        count_segments=cfg.count_segments,
    )


def stage_featurize(cfg: RunConfig, paths: RunPaths, manifest: Manifest) -> dict:
    ds = assemble(load_labeled(manifest), _feature_config(cfg))

    csv_path = paths.artifacts / "features.csv"
    meta_path = paths.artifacts / "features.meta.json"
    save_dataset(ds, csv_path, meta_path, seed=cfg.seed,
                 extra={"drop_id_like": cfg.drop_id_like})
    manifest.record("features", csv_path, "featurize")
    manifest.record("features_meta", meta_path, "featurize")
    return {
        "rows": ds.n_rows,
        "columns": ds.n_cols,
        "positives": int(np.sum(ds.y)),
        "positive_rate": float(np.mean(ds.y)),
    }


def _load_features(manifest: Manifest) -> Dataset:
    return load_dataset(manifest.require("features"), manifest.require("features_meta"))


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
    eigendecomposition; k is cfg.pca_k, else the variance rule, at least min_k."""
    full = pca_fit(Z, k=Z.shape[1])
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
    split = stratified_split(ds, cfg.train_fraction, cfg.seed)
    train_z, _, means, sds = standardize(split.train.X)

    lanes = {"raw": train_z}
    pca_info = None
    if cfg.pca:
        model, spectrum = _pca_by_config(cfg, train_z)
        lanes["pca"] = pca_transform(model, train_z)
        pca_info = {
            "k": model.n_components,
            "means": model.means.tolist(),
            "components": model.components.tolist(),
            "explained_variance": model.explained_variance.tolist(),
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
        (models[lane][kind], lanes[lane], split.train.y) for kind, lane in jobs])))
    fit_s = {}
    for lane in lanes:
        for kind in models[lane]:
            model, seconds = fits[kind, lane]
            fit_s[f"{kind}_{lane}"] = seconds
            path = paths.models / f"{kind}_{lane}.json"
            save_model(model, path, seed=cfg.seed, column_meta=ds.column_meta)
            manifest.record(f"model_{kind}_{lane}", path, "train")

    training_path = paths.artifacts / "training.json"
    write_json(training_path, {
        "split": {
            "seed": cfg.seed,
            "train_fraction": cfg.train_fraction,
            "train_ids": split.train.row_ids,
            "test_ids": split.test.row_ids,
        },
        "scaler": {"means": means.tolist(), "sds": sds.tolist()},
        "pca": pca_info,
        "lanes": sorted(lanes),
    })
    manifest.record("training", training_path, "train")
    return {
        "lanes": sorted(lanes),
        "train_rows": split.train.n_rows,
        "test_rows": split.test.n_rows,
        "pca_k": None if pca_info is None else pca_info["k"],
        "fit_s": fit_s,
        "workers": worker_count(len(jobs)),
    }


def _lane_matrices(ds: Dataset, training: dict,
                   ids: list[str]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Rebuild the rows named by ids as per-lane standardized (and projected)
    matrices with labels; for the train ids these are the bits train fitted on."""
    by_id = {rid: i for i, rid in enumerate(ds.row_ids)}
    rows = ds.subset(np.array([by_id[rid] for rid in ids]))
    scaler = training["scaler"]
    z = apply_scaler(rows.X, np.asarray(scaler["means"]), np.asarray(scaler["sds"]))

    lanes = {"raw": (z, rows.y)}
    pca = training["pca"]
    if pca is not None:
        model = PCAModel(np.asarray(pca["means"]), np.asarray(pca["components"]),
                         np.asarray(pca["explained_variance"]))
        lanes["pca"] = (pca_transform(model, z), rows.y)
    return lanes


def _load_fitted_model(manifest: Manifest, key: str, features_schema: str):
    """Load a model, refusing one fitted against other feature columns."""
    model = load_model(manifest.require(key))
    if model.schema_hash != features_schema:
        raise SchemaHashMismatch(
            f"model {key!r} was fitted against feature schema {model.schema_hash}, "
            f"but the features now have schema {features_schema}; rerun train")
    return model


def stage_evaluate(cfg: RunConfig, paths: RunPaths, manifest: Manifest) -> dict:
    ds = _load_features(manifest)
    features_schema = schema_hash(ds.column_meta)
    training = read_json(manifest.require("training"))
    models_by_lane = {
        lane: {
            kind: _load_fitted_model(manifest, f"model_{kind}_{lane}", features_schema)
            for kind in REPORT_ORDER if f"model_{kind}_{lane}" in manifest.entries
        }
        for lane in training["lanes"]
    }
    train_lanes = _lane_matrices(ds, training, training["split"]["train_ids"])
    test_lanes = _lane_matrices(ds, training, training["split"]["test_ids"])

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
    full_z, _, _, _ = standardize(ds.X)

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
