"""Where the traced pass wraps the program, without editing it.

Every hook replaces a name at the site it is looked up from: the pipeline,
matcher, ingest, report and evaluation modules import by name, pca_fit calls
the module-global sym_eigen, and classes are patched on the class itself.
A hook whose name no longer exists is skipped and reported, so the trace
degrades instead of failing when the program is refactored.
"""

from __future__ import annotations

import importlib
import inspect
import resource

from spans import Tracer

_ABSENT = object()


def _maxrss_mb(args, result) -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _result_size(args, result) -> float:
    return float(len(result))


def _first_arg_len(args, result) -> float:
    # records passed to a matcher; matrix width passed to sym_eigen
    return float(len(args[0]))


def _lloyd_iters(args, result) -> float:
    return float(len(result.inertia_history))


MODEL_CLASSES = {
    "LR": "LogisticRegressionGD",
    "KNN": "KNNClassifier",
    "SVM": "LinearSVM",
    "GBDT": "GBDTClassifier",
    "ADABOOST": "AdaBoostClassifier",
    "RF": "RandomForestClassifier",
}

# (module, attribute path, span name, value read from the call)
CLI_HOOKS = (
    ("flowline_risk.pipeline", "parse_descriptive", "ingest.parse", None),
    ("flowline_risk.pipeline", "parse_operational", "ingest.parse", None),
    ("flowline_risk.pipeline", "parse_spills", "ingest.parse", None),
    ("flowline_risk.ingest", "project", "crs.project", None),
    ("flowline_risk.matcher", "project", "crs.project", None),
    ("flowline_risk.spatial_index", "SpatialIndex.build", "spatial_index.build", None),
    ("flowline_risk.spatial_index", "SpatialIndex.query_radius", "spatial_index.query_radius",
     _result_size),
    ("flowline_risk.matcher", "point_to_multiline_distance",
     "geometry.point_to_multiline_distance", None),
    ("flowline_risk.pipeline", "write_diagnostics", "ingest.write_diagnostics", None),
    ("flowline_risk.pipeline", "match_flowlines", "matcher.match_flowlines", _first_arg_len),
    ("flowline_risk.pipeline", "match_spills", "matcher.match_spills", _first_arg_len),
    ("flowline_risk.pipeline", "assign_risk", "matcher.assign_risk", None),
    ("flowline_risk.pipeline", "write_audit_log", "matcher.write_audit_log", None),
    ("flowline_risk.pipeline", "assemble", "features.assemble", None),
    ("flowline_risk.pipeline", "save_dataset", "features.save_dataset", None),
    ("flowline_risk.pipeline", "load_dataset", "features.load_dataset", None),
    ("flowline_risk.pipeline", "_dump_json", "artifacts.dump_json", None),
    ("flowline_risk.pipeline", "_load_json", "artifacts.load_json", None),
    ("flowline_risk.report", "_load_json", "artifacts.load_json", None),
    ("flowline_risk.pipeline", "merged_to_dict", "artifacts.merged_to_dict", None),
    ("flowline_risk.pipeline", "merged_from_dict", "artifacts.merged_from_dict", None),
    ("flowline_risk.report", "merged_from_dict", "artifacts.merged_from_dict", None),
    ("flowline_risk.numerics", "sym_eigen", "numerics.sym_eigen", _first_arg_len),
    ("flowline_risk.pipeline", "pca_fit", "numerics.pca_fit", None),
    ("flowline_risk.pipeline", "save_model", "ml.save_model", None),
    ("flowline_risk.pipeline", "load_model", "ml.load_model", None),
    ("flowline_risk.pipeline", "fit_kmeans", "ml.fit_kmeans", _lloyd_iters),
    ("flowline_risk.evaluation", "fit_kmeans", "ml.fit_kmeans", _lloyd_iters),
    ("flowline_risk.evaluation", "silhouette", "evaluation.silhouette", None),
    ("flowline_risk.pipeline", "metric_table", "evaluation.metric_table", None),
    ("flowline_risk.report", "validate_report", "report.validate", None),
    ("flowline_risk.figures", "render_risk_map", "figures.render", None),
    ("flowline_risk.figures", "render_bar_chart", "figures.render", None),
    ("flowline_risk.figures", "render_silhouette_chart", "figures.render", None),
    ("flowline_risk.figures", "render_pca_clusters", "figures.render", None),
) + tuple(
    ("flowline_risk.ml", f"{cls}.{method}", f"ml.{kind}.{method}", None)
    for kind, cls in MODEL_CLASSES.items()
    for method in ("fit", "predict")
)

SETUP_HOOKS = (
    ("flowline_risk.synth", "unproject", "crs.unproject", None),
)


def install(tracer: Tracer, hooks) -> tuple[list[str], list[tuple]]:
    """Wrap each hook's target; returns (missing targets, undo records)."""
    missing: list[str] = []
    undo: list[tuple] = []
    for module_name, path, span_name, value_of in hooks:
        *owner_path, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{path}")
            continue
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(tracer.wrap(span_name, raw.__func__, value_of))
        else:
            wrapped = tracer.wrap(span_name, getattr(owner, attr), value_of)
        undo.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, wrapped)
    return missing, undo


def install_stages(tracer: Tracer) -> list[str]:
    """Wrap every CLI stage; each span's value is the RSS high-water mark after it."""
    try:
        from flowline_risk import cli
        stages = cli.STAGES
    except (ImportError, AttributeError):
        return ["flowline_risk.cli.STAGES"]
    for name, fn in list(stages.items()):
        stages[name] = tracer.wrap(f"pipeline.{name}", fn, _maxrss_mb)
    return []


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        if original is _ABSENT:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)

