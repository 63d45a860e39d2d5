"""Run configuration: a flat key=value file plus command-line overrides.

The flat format keeps run provenance diffable; every knob the pipeline
honors lives here, echoed verbatim into the report.
"""

from __future__ import annotations

import datetime
import math
import types
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .crs import ProjectionParams
from .matcher import DEFAULT_LADDER_STEPS, ToleranceLadder
from .synth_settings import BadSynthSetting, SynthConfig, config_a, config_b


class ConfigError(ValueError):
    pass


# SynthConfig field -> the run setting a custom preset takes it from.
_SYNTH_KEYS = {
    "n_lines": "synth_n_lines",
    "area": "synth_area",
    "min_separation": "synth_min_separation",
    "endpoint_jitter_sigma": "synth_jitter_sigma",
    "spill_rate": "synth_spill_rate",
    "spill_lateral_sigma": "synth_spill_lateral_sigma",
    "n_operators": "synth_n_operators",
    "operator_reuse_clustering": "synth_operator_clustering",
}


@dataclass
class RunConfig:
    seed: int | None = None
    out_dir: str = "runs/latest"

    # inputs; empty means "synthesize via the synth stage"
    descriptive_path: str = ""
    operational_path: str = ""
    spills_path: str = ""

    # synth
    synth_preset: str = "a"            # a | b | custom
    synth_n_lines: int = 1000
    synth_area: float = SynthConfig.area
    synth_min_separation: float = SynthConfig.min_separation
    synth_jitter_sigma: float = SynthConfig.endpoint_jitter_sigma
    synth_spill_rate: float = SynthConfig.spill_rate
    synth_spill_lateral_sigma: float = SynthConfig.spill_lateral_sigma
    synth_n_operators: int = SynthConfig.n_operators
    synth_operator_clustering: float = SynthConfig.operator_reuse_clustering

    # matching
    ladder: tuple[float, ...] = DEFAULT_LADDER_STEPS
    match_whole_geometry: bool = False

    # projection: the fields of ProjectionParams
    central_meridian: float = ProjectionParams.central_meridian
    scale_factor: float = ProjectionParams.scale_factor
    false_easting: float = ProjectionParams.false_easting
    false_northing: float = ProjectionParams.false_northing
    semi_major_axis: float = ProjectionParams.semi_major_axis
    flattening: float = ProjectionParams.flattening
    descriptive_geographic: bool = False

    # features
    drop_id_like: bool = False
    count_segments: bool = False       # complexity as segments instead of members
    reference_date: str = ""           # YYYY-MM-DD; empty means the run date
    train_fraction: float = 0.7

    # models
    pca: bool = True                   # train the PCA lane next to the raw lane
    pca_k: int = 0                     # 0 means the 95% variance rule
    pca_variance_threshold: float = 0.95
    lr_rate: float = 0.1
    lr_epochs: int = 500
    lr_l2: float = 1e-4
    knn_k: int = 5
    svm_c: float = 1.0
    svm_epochs: int = 200
    gbdt_trees: int = 100
    gbdt_depth: int = 3
    gbdt_shrinkage: float = 0.1
    adaboost_stumps: int = 100
    rf_trees: int = 100
    rf_depth: int = 8
    rf_mtry: int = 0                   # 0 means ceil(sqrt(p))

    # clustering
    cluster_k_min: int = 2
    cluster_k_max: int = 5

    def validate(self) -> None:
        if self.seed is None:
            raise ConfigError("seed is mandatory; set it in the config file or pass --seed")
        for key in ("descriptive_path", "operational_path", "spills_path"):
            value = getattr(self, key)
            if value and not Path(value).exists():
                raise ConfigError(f"{key} {value!r} does not exist")
        if self.cluster_k_min < 2 or self.cluster_k_max < self.cluster_k_min:
            raise ConfigError("cluster k range must satisfy 2 <= k_min <= k_max")
        try:
            ToleranceLadder(tuple(self.ladder))
        except ValueError as exc:
            raise ConfigError(f"bad ladder: {exc}") from exc
        try:
            self.projection_params()
        except ValueError as exc:
            raise ConfigError(f"bad projection: {exc}") from exc
        if not 0 < self.train_fraction < 1:
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        for key in ("lr_epochs", "knn_k", "svm_epochs", "gbdt_trees", "gbdt_depth",
                    "adaboost_stumps", "rf_trees", "rf_depth"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key in ("lr_rate", "svm_c", "gbdt_shrinkage"):
            if not 0 < getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be finite and > 0, got {getattr(self, key)}")
        if not 0 <= self.lr_l2 < math.inf:
            raise ConfigError(f"lr_l2 must be finite and >= 0, got {self.lr_l2}")
        if self.pca_k < 0:
            raise ConfigError(f"pca_k must be >= 0 (0 means the variance rule), got {self.pca_k}")
        if not 0 < self.pca_variance_threshold <= 1:
            raise ConfigError("pca_variance_threshold must be in (0, 1], "
                              f"got {self.pca_variance_threshold}")
        if self.rf_mtry < 0:
            raise ConfigError(f"rf_mtry must be >= 0 (0 means ceil(sqrt(p))), got {self.rf_mtry}")
        if self.synth_preset.lower() not in ("a", "b", "custom"):
            raise ConfigError(f"synth_preset must be a, b or custom, got {self.synth_preset!r}")
        try:
            self.synth_config()
        except BadSynthSetting as exc:
            key = _SYNTH_KEYS[exc.name]
            raise ConfigError(f"{key} must be {exc.requirement}, got {exc.value!r}") from exc
        try:
            self.resolve_reference_date()
        except ValueError as exc:
            raise ConfigError(f"bad reference_date: {exc}") from exc

    def synth_config(self) -> SynthConfig:
        """The generator settings the synth stage runs with."""
        preset = self.synth_preset.lower()
        if preset == "a":
            return config_a(seed=self.seed, n_lines=self.synth_n_lines)
        if preset == "b":
            return config_b(seed=self.seed, n_lines=self.synth_n_lines)
        return SynthConfig(
            seed=self.seed,
            **{field: getattr(self, key) for field, key in _SYNTH_KEYS.items()},
        )

    def tolerance_ladder(self) -> ToleranceLadder:
        return ToleranceLadder(tuple(self.ladder))

    def projection_params(self) -> ProjectionParams:
        return ProjectionParams(**{f.name: getattr(self, f.name) for f in fields(ProjectionParams)})

    def resolve_reference_date(self) -> datetime.date:
        if self.reference_date:
            return datetime.date.fromisoformat(self.reference_date)
        return datetime.date.today()

    def echo(self) -> dict:
        # out_dir is where the report lands, not part of what it describes;
        # leaving it out keeps reruns into fresh directories comparable.
        out = {}
        for f in fields(self):
            if f.name == "out_dir":
                continue
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {raw!r}")


def _declared_type(hint):
    # "int | None" (the seed) parses as int
    if isinstance(hint, types.UnionType):
        (hint,) = (t for t in get_args(hint) if t is not type(None))
    return hint


_FIELD_TYPES = {name: _declared_type(hint) for name, hint in get_type_hints(RunConfig).items()}


def _coerce(key: str, raw: str):
    raw = raw.strip()
    kind = _FIELD_TYPES[key]
    try:
        if kind is bool:
            return _parse_bool(raw, key)
        if kind in (int, float):
            return kind(raw)
        if get_origin(kind) is tuple:
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"cannot parse {key}={raw!r}")
    return raw


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional file and CLI-style overrides."""
    cfg = RunConfig()

    def apply(key: str, raw):
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, _coerce(key, str(raw)))

    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        for line_no, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{line_no}: expected key = value")
            key, _, raw = stripped.partition("=")
            apply(key, raw)

    for key, raw in (overrides or {}).items():
        if raw is not None:
            apply(key, raw)
    return cfg
