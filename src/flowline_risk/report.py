"""Run report: one schema-validated JSON document plus figures and tables.

The report is deterministic given inputs and seed except for the fields
listed in VOLATILE_FIELDS, which carry wall-clock information only.
"""

from __future__ import annotations

import csv
import datetime
import json

import numpy as np

from . import figures
from .config import RunConfig
from .evaluation import eda_summaries
from .fileio import write_csv, write_json
from .matcher import MergedFlowlines
from .pipeline import (
    Manifest,
    RunPaths,
    attribute_stats,
    featurize_stats,
    load_labeled,
    run_id_for,
)

VOLATILE_FIELDS = ("created_at", "timings")

REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "run_id", "created_at", "config", "match_stats", "eda", "metrics",
        "clustering", "figures", "tables", "timings",
    ],
    "properties": {
        "run_id": {"type": "string", "pattern": "^[0-9a-f]{12}$"},
        "created_at": {"type": "string"},
        "config": {"type": "object"},
        "match_stats": {"type": "object"},
        "eda": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["name", "rows"],
                "properties": {
                    "name": {"type": "string"},
                    "rows": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["label", "risk", "count", "proportion"],
                            "properties": {
                                "label": {"type": "string"},
                                "risk": {"type": "integer", "enum": [0, 1]},
                                "count": {"type": "integer", "minimum": 0},
                                "proportion": {"type": "number", "minimum": 0, "maximum": 1},
                            },
                        },
                    },
                },
            },
        },
        "metrics": {
            "type": "object",
            "required": ["rows"],
            "properties": {
                "rows": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": [
                            "classifier", "averaging", "pca",
                            "accuracy", "precision", "recall", "f1",
                        ],
                        "properties": {
                            "classifier": {"type": "string"},
                            "averaging": {
                                "type": "string",
                                "enum": ["positive-class", "macro", "weighted"],
                            },
                            "pca": {"type": "boolean"},
                            "accuracy": {"type": "number", "minimum": 0, "maximum": 1},
                            "precision": {"type": "number", "minimum": 0, "maximum": 1},
                            "recall": {"type": "number", "minimum": 0, "maximum": 1},
                            "f1": {"type": "number", "minimum": 0, "maximum": 1},
                            "undefined": {"type": "array", "items": {"type": "string"}},
                        },
                    },
                },
            },
        },
        "clustering": {
            "type": "object",
            "required": ["k_range", "scores", "best_k", "pc_scores", "assignments", "actual"],
            "properties": {
                "k_range": {"type": "array", "items": {"type": "integer", "minimum": 2}},
                "scores": {"type": "object"},
                "best_k": {"type": "integer", "minimum": 2},
                "structure_found": {"type": "boolean"},
                "pc_scores": {"type": "array"},
                "assignments": {"type": "array"},
                "actual": {"type": "array"},
            },
        },
        "figures": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["file", "payload_ref"],
                "properties": {
                    "file": {"type": "string"},
                    "payload_ref": {"type": "string"},
                },
            },
        },
        "tables": {"type": "array", "items": {"type": "string"}},
        "timings": {"type": "object"},
    },
}


class UnreadableRunLog(RuntimeError):
    pass


def validate_report(report: dict) -> None:
    # Imported here: only the report stage pays for loading jsonschema.
    import jsonschema

    jsonschema.validate(report, REPORT_SCHEMA)
    for fig in report["figures"]:
        _resolve_ref(report, fig["payload_ref"])


def _resolve_ref(report: dict, ref: str):
    node = report
    for part in ref.split("."):
        if not isinstance(node, dict) or part not in node:
            raise ValueError(f"figure payload_ref {ref!r} does not resolve in the report")
        node = node[part]
    return node


def _read_timings(paths: RunPaths) -> dict:
    """Latest elapsed seconds per stage from the run log.

    A missing log reads as no stages; a line that is not a UTF-8 JSON stage
    entry raises UnreadableRunLog naming the file and the line.
    """
    timings: dict[str, float] = {}
    log_path = paths.artifacts / "run_log.jsonl"
    if not log_path.exists():
        return timings
    for line_no, raw in enumerate(log_path.read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            entry = json.loads(line)
            stage = entry["stage"]
            timings[stage] = entry.get("elapsed_s", 0.0)
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise UnreadableRunLog(
                f"{log_path} line {line_no} is unreadable ({type(exc).__name__}: {exc}); "
                "rerun the pipeline from its first stage"
            ) from exc
    return timings


def _match_stats(manifest: Manifest, attributions: list, merge_stats: dict, high_risk: int) -> dict:
    """The stats the merge, attribute and featurize stages returned, rebuilt
    from the hashed artifacts they wrote rather than from the run log."""
    with open(manifest.require("spill_diagnostics"), newline="", encoding="utf-8") as fh:
        rejected = sum(1 for _ in csv.DictReader(fh))
    meta = manifest.read_json("features_meta")
    return {
        "merge": merge_stats,
        "attribute": attribute_stats(attributions, rejected, high_risk),
        "featurize": featurize_stats(meta["n_rows"], len(meta["columns"]), high_risk),
    }


def risk_map_payload(merged: MergedFlowlines, risk: np.ndarray) -> list[dict]:
    """figures.render_risk_map's input: each line's risk and member vertices."""
    return [{"risk": r, "lines": lines} for r, lines in zip(risk.tolist(), merged.geometry.coordinates())]


def stage_report(cfg: RunConfig, paths: RunPaths, manifest: Manifest) -> dict:
    merged, risk, attributions, merge_stats = load_labeled(manifest)
    match_stats = _match_stats(manifest, attributions, merge_stats, int(risk.sum()))
    metrics = manifest.read_json("metrics")
    clustering = manifest.read_json("clustering")
    timings = _read_timings(paths)

    eda = {
        name: table.to_dict()
        for name, table in eda_summaries(merged, risk, cfg.resolve_reference_date()).items()
    }

    figure_specs = [
        ("risk_map.svg", "match_stats"),
        ("risk_by_line_age.svg", "eda.line_age"),
        ("risk_by_diameter.svg", "eda.diameter"),
        ("risk_by_fluid_type.svg", "eda.fluid_type"),
        ("risk_by_material.svg", "eda.material"),
        ("risk_by_operator_number.svg", "eda.operator_number"),
        ("silhouette.svg", "clustering.scores"),
        ("pca_clusters.svg", "clustering.pc_scores"),
    ]

    table_files = ["tables/metrics.csv"] + [f"tables/eda_{name}.csv" for name in sorted(eda)]

    report = {
        "run_id": run_id_for(cfg),
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": cfg.echo(),
        "match_stats": match_stats,
        "eda": eda,
        "metrics": metrics,
        "clustering": clustering,
        "figures": [
            {"file": f"figures/{name}", "payload_ref": ref} for name, ref in figure_specs
        ],
        "tables": table_files,
        "timings": timings,
    }
    validate_report(report)

    # figures
    figures.render_risk_map(risk_map_payload(merged, risk), paths.figures / "risk_map.svg")
    figures.render_bar_chart(eda["line_age"], "Risk by line age (years)",
                             paths.figures / "risk_by_line_age.svg")
    figures.render_bar_chart(eda["diameter"], "Risk by diameter (inches)",
                             paths.figures / "risk_by_diameter.svg")
    figures.render_bar_chart(eda["fluid_type"], "Risk by fluid type",
                             paths.figures / "risk_by_fluid_type.svg")
    figures.render_bar_chart(eda["material"], "Risk by pipe material",
                             paths.figures / "risk_by_material.svg")
    figures.render_bar_chart(eda["operator_number"], "Risk by operator number",
                             paths.figures / "risk_by_operator_number.svg")
    figures.render_silhouette_chart(
        {int(k): v for k, v in clustering["scores"].items()},
        paths.figures / "silhouette.svg",
    )
    figures.render_pca_clusters(
        clustering["pc_scores"], clustering["assignments"], clustering["actual"],
        paths.figures / "pca_clusters.svg",
    )

    # tables
    metrics_header = ["classifier", "pca", "averaging", "accuracy", "precision", "recall", "f1", "undefined"]
    write_csv(paths.tables / "metrics.csv", metrics_header, (
        [
            r["classifier"], int(r["pca"]), r["averaging"],
            f"{r['accuracy']:.6f}", f"{r['precision']:.6f}",
            f"{r['recall']:.6f}", f"{r['f1']:.6f}",
            ";".join(r.get("undefined", [])),
        ]
        for r in metrics["rows"]
    ))
    for name, table in eda.items():
        write_csv(paths.tables / f"eda_{name}.csv", ["label", "risk", "count", "proportion"], (
            [row["label"], row["risk"], row["count"], f"{row['proportion']:.8f}"]
            for row in table["rows"]
        ))

    report_path = paths.root / "report.json"
    write_json(report_path, report)
    manifest.record("report", report_path, "report")
    return {
        "report": str(report_path),
        "figures": len(figure_specs),
        "metric_rows": len(metrics["rows"]),
    }
