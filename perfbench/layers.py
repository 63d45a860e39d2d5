"""Per-layer metrics from the traced pass.

Times named `<span>_s` are inclusive: the summed duration of the outermost
spans of that name. `self.<layer>_s` is self time (span minus child
coverage) summed over a layer's spans in the CLI processes. Counters come
from the spans' values (query result sizes, matrix widths, k-means
histories) and from public outputs (the merge audit, artifact sizes).
"""

from __future__ import annotations

import numpy as np

from spans import SpanTable
from workloads import PIPELINE_STAGES

LADDER_STEPS = (0, 1, 2, 5, 10, 15, 20, 25)   # the CLI's default tolerance ladder
MODEL_KINDS = ("LR", "KNN", "SVM", "GBDT", "ADABOOST", "RF")
LAYERS = ("pipeline", "artifacts", "ingest", "crs", "spatial_index", "geometry", "matcher",
          "features", "numerics", "ml", "evaluation", "report", "figures")


def _ids(t: SpanTable, name: str) -> np.ndarray:
    return t.name == t.names.index(name) if name in t.names else np.zeros(len(t), dtype=bool)


def inclusive_s(t: SpanTable, name: str) -> float:
    return float(t.durations()[t.outermost(name)].sum())


def calls(t: SpanTable, name: str) -> int:
    return int(np.count_nonzero(_ids(t, name)))


def values(t: SpanTable, name: str, mask=None) -> np.ndarray:
    sel = _ids(t, name) if mask is None else _ids(t, name) & mask
    return t.value[sel]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(cli: SpanTable, setup: SpanTable, outputs: dict) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s, which needs the untraced wall."""
    m: dict[str, float] = {}
    for stage in PIPELINE_STAGES:
        m[f"pipeline.{stage}_s"] = inclusive_s(cli, f"pipeline.{stage}")
        rss = values(cli, f"pipeline.{stage}")
        m[f"pipeline.{stage}.rss_mb"] = float(rss.max()) if rss.size else 0.0

    m["synth.generate_s"] = inclusive_s(setup, "synth.generate")
    m["crs.unproject.calls"] = calls(setup, "crs.unproject")
    m["crs.unproject_s"] = inclusive_s(setup, "crs.unproject")

    m["ingest.parse_s"] = inclusive_s(cli, "ingest.parse")
    m["crs.project.calls"] = calls(cli, "crs.project")
    m["crs.project_s"] = inclusive_s(cli, "crs.project")

    query = "spatial_index.query_radius"
    m["spatial_index.build_s"] = inclusive_s(cli, "spatial_index.build")
    m[f"{query}.calls"] = calls(cli, query)
    m[f"{query}_s"] = inclusive_s(cli, query)
    m["spatial_index.ids_per_query"] = _ratio(float(values(cli, query).sum()), calls(cli, query))

    p2ml = "geometry.point_to_multiline_distance"
    m[f"{p2ml}.calls"] = calls(cli, p2ml)
    m[f"{p2ml}_s"] = inclusive_s(cli, p2ml)

    in_merge = cli.under("matcher.match_flowlines")
    in_matcher = in_merge | cli.under("matcher.match_spills")
    records = float(values(cli, "matcher.match_flowlines").sum() + values(cli, "matcher.match_spills").sum())
    m["matcher.match_flowlines_s"] = inclusive_s(cli, "matcher.match_flowlines")
    m["matcher.match_spills_s"] = inclusive_s(cli, "matcher.match_spills")
    m["matcher.queries_per_record"] = _ratio(values(cli, query, in_matcher).size, records)
    m["matcher.candidate_yield"] = _ratio(outputs["audit_candidates"],
                                          float(values(cli, query, in_merge).sum()))
    for step in LADDER_STEPS:
        m[f"matcher.records_at_step_{step}"] = outputs["records_at_step"].get(step, 0)

    m["features.assemble_s"] = inclusive_s(cli, "features.assemble")
    m["features.save_dataset_s"] = inclusive_s(cli, "features.save_dataset")
    m["features.load_dataset_s"] = inclusive_s(cli, "features.load_dataset")
    m["features.load_dataset.calls"] = calls(cli, "features.load_dataset")
    m["pipeline.merged_json_mb"] = outputs["merged_json_mb"]
    m["pipeline.labeled_json_mb"] = outputs["labeled_json_mb"]

    widths = values(cli, "numerics.sym_eigen")
    m["numerics.sym_eigen_s"] = inclusive_s(cli, "numerics.sym_eigen")
    m["numerics.sym_eigen.calls"] = int(widths.size)
    m["numerics.sym_eigen.p_max"] = float(widths.max()) if widths.size else 0.0
    m["numerics.pca_fit_s"] = inclusive_s(cli, "numerics.pca_fit")

    for kind in MODEL_KINDS:
        m[f"ml.{kind}.fit_s"] = inclusive_s(cli, f"ml.{kind}.fit")
        m[f"ml.{kind}.predict_s"] = inclusive_s(cli, f"ml.{kind}.predict")
    m["ml.save_model_s"] = inclusive_s(cli, "ml.save_model")
    m["ml.load_model_s"] = inclusive_s(cli, "ml.load_model")
    m["ml.models_mb"] = outputs["models_mb"]
    m["ml.fit_kmeans_s"] = inclusive_s(cli, "ml.fit_kmeans")
    m["ml.fit_kmeans.calls"] = calls(cli, "ml.fit_kmeans")
    m["ml.kmeans.lloyd_iters"] = float(values(cli, "ml.fit_kmeans").sum())

    m["evaluation.silhouette_s"] = inclusive_s(cli, "evaluation.silhouette")
    m["evaluation.silhouette.calls"] = calls(cli, "evaluation.silhouette")
    m["evaluation.metric_table_s"] = inclusive_s(cli, "evaluation.metric_table")
    m["report.validate_s"] = inclusive_s(cli, "report.validate")
    m["figures.render_s"] = inclusive_s(cli, "figures.render")

    self_by_layer = cli.layer_self_times()
    for layer in LAYERS:
        m[f"self.{layer}_s"] = self_by_layer.get(layer, 0.0)
    return m


def rationale_shares(m: dict[str, float]) -> dict[str, float]:
    """The shares each workload was chosen for, from one traced run's metrics."""
    stage_s = sum(m[f"pipeline.{s}_s"] for s in PIPELINE_STAGES)
    spatial = sum(m[f"self.{layer}_s"] for layer in ("ingest", "crs", "spatial_index", "matcher"))
    return {
        "tall: ml+evaluation self / stage time":
            _ratio(m["self.ml_s"] + m["self.evaluation_s"], stage_s),
        "wide: sym_eigen / (train + cluster)":
            _ratio(m["numerics.sym_eigen_s"], m["pipeline.train_s"] + m["pipeline.cluster_s"]),
        "integrate: ingest+crs+spatial_index+matcher self / stage time": _ratio(spatial, stage_s),
    }
