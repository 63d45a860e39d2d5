"""The run directory and the stages up to the design matrix.

The run directory is its paths, the manifest, the run log and the artifact
errors; the stages are synth, merge, attribute and featurize. The model
stages are in modeling.py and the report stage in report.py.

Every stage writes its outputs under the run directory and records a
content hash in the manifest; consumers re-hash their inputs and refuse to
run against files that changed on disk since their stage wrote them. The
hashes do not record which run of one stage an artifact was built from, so
re-running an earlier stage alone is not caught by them; an attributions
file naming a flowline the merged flowlines lack is refused as
inconsistent, and other mixes are not detected.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig
from .features import FeatureConfig, assemble, save_dataset
from .fileio import read_array, read_json, write_array, write_json
from .ingest import (
    DIAGNOSTICS_HEADER,
    parse_descriptive,
    parse_operational,
    parse_spills,
    write_diagnostics,
)
from .matcher import (
    ATTRIBUTIONS_HEADER,
    DanglingReference,
    MergedFlowlines,
    SpillAttribution,
    assign_risk,
    match_flowlines,
    match_spills,
    write_attributions,
    write_audit_log,
)


class MissingArtifact(FileNotFoundError):
    pass


class SchemaHashMismatch(RuntimeError):
    pass


class UnreadableManifest(RuntimeError):
    pass


class StaleArtifact(KeyError):
    """An artifact lacks a key or a companion array its reader needs: another
    version of its stage wrote it in another layout."""

    def __str__(self) -> str:
        return self.args[0]


def _stale(name: str, stage: str, key: str) -> StaleArtifact:
    return StaleArtifact(f"artifact {name!r} has no {key!r}: it was written in another layout; "
                         f"rerun stage {stage!r} and the stages after it")


class InconsistentArtifact(ValueError):
    """An artifact does not decode, or has every key its reader needs but
    values that contradict each other."""


class ArtifactObject(dict):
    """A JSON object read from a run artifact; a missing key raises
    StaleArtifact naming the artifact and the stage that writes it."""

    __slots__ = ("_source",)

    def __init__(self, items: dict, source: tuple[str, str]):
        super().__init__(items)
        self._source = source

    def __missing__(self, key):
        raise _stale(*self._source, key)


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


def _check_entries(entries) -> None:
    """Raise ValueError unless entries maps names to {path, sha256, stage}
    objects of strings, as Manifest.record writes them."""
    if not isinstance(entries, dict):
        raise ValueError(f"it holds a JSON {type(entries).__name__}, not an object")
    for name, entry in entries.items():
        if not (isinstance(entry, dict)
                and all(isinstance(entry.get(key), str) for key in ("path", "sha256", "stage"))):
            raise ValueError(f"entry {name!r} is not an object of path, sha256 and stage strings")


class Manifest:
    def __init__(self, paths: RunPaths):
        self.paths = paths
        self.entries: dict[str, dict] = {}
        if paths.manifest.exists():
            try:
                self.entries = read_json(paths.manifest)
                _check_entries(self.entries)
            except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
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

    def read_json(self, name: str):
        """Artifact `name` as JSON, checked as require() checks it; each of
        its objects is an ArtifactObject. Bytes that are not UTF-8 JSON, or
        hold a NaN or an infinity, raise InconsistentArtifact."""
        path = self.require(name)
        source = (name, self.entries[name]["stage"])
        try:
            return read_json(path, object_hook=lambda d: ArtifactObject(d, source), finite=True)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError or a non-finite number
            raise self.inconsistent(name, exc) from exc

    def read_csv(self, name: str, header: list[str], parse) -> list:
        """parse(*fields) of each row of CSV artifact `name`, checked as
        require() checks it. Bytes that are not UTF-8 CSV, a first row other
        than header, or a row with another number of fields or that parse
        raises ValueError on, raise InconsistentArtifact."""
        with open(self.require(name), newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                found = next(reader, None)
                if found != header:
                    raise self.inconsistent(name, "it is empty" if found is None
                                            else f"its header is {found}, not {header}")
                rows = []
                for fields in reader:
                    try:
                        if len(fields) != len(header):
                            raise ValueError(f"{len(fields)} fields, not {len(header)}")
                        rows.append(parse(*fields))
                    except ValueError as exc:
                        raise self.inconsistent(name, f"line {reader.line_num}: {exc}") from exc
            except (UnicodeDecodeError, csv.Error) as exc:
                raise self.inconsistent(name, exc) from exc
        return rows

    def read_array(self, name: str, ndim: int, part_of: str | None = None,
                   inlined: bool = False) -> np.ndarray:
        """Float64 array artifact `name` of rank ndim, checked as require()
        checks it. A file that does not load as one raises
        InconsistentArtifact.

        part_of names the JSON artifact the array belongs to. When the
        manifest records no array, or inlined says that part_of holds the
        values itself, another version of part_of's stage wrote it, and
        StaleArtifact names that stage; a recorded array is then left from
        an earlier run."""
        if part_of is not None and (inlined or name not in self.entries):
            raise _stale(part_of, self.entries[part_of]["stage"], name)
        path = self.require(name)
        try:
            a = read_array(path)
            if a.dtype != np.float64 or a.ndim != ndim:
                raise ValueError(f"it holds a {a.shape} array of {a.dtype}")
        except ValueError as exc:
            raise self.inconsistent(name, f"cannot load a rank-{ndim} float64 array: {exc}") from exc
        return a

    def inconsistent(self, name: str, problem) -> InconsistentArtifact:
        """The error for artifact `name` with a problem its writer cannot
        have left, naming the stage to rerun."""
        return InconsistentArtifact(
            f"artifact {name!r} is inconsistent ({problem}); "
            f"rerun stage {self.entries[name]['stage']!r} and the stages after it")


def run_id_for(cfg: RunConfig) -> str:
    payload = json.dumps(cfg.echo(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def append_run_log(paths: RunPaths, stage: str, stats: dict, elapsed_s: float) -> None:
    log_path = paths.artifacts / "run_log.jsonl"
    entry = {
        "stage": stage,
        "stats": stats,
        "elapsed_s": round(elapsed_s, 6),
        "at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(log_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# stages


def stage_synth(cfg: RunConfig, paths: RunPaths, manifest: Manifest) -> dict:
    from .synth import generate  # only this stage loads the generator

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
        "rejected_attempts": result.rejected,
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

    stats = {
        "descriptive_total": desc.accepted + desc.rejected,
        "descriptive_accepted": desc.accepted,
        "operational_total": operational.accepted + operational.rejected,
        "operational_accepted": operational.accepted,
        "rejected_rows": len(diagnostics),
        "matched": len(merged),
        "unmatched": len(unmatched),
        "matched_by_step": Counter(f"{a.step_reached:g}" for a in audit if a.chosen_id is not None),
    }

    merged_path = paths.artifacts / "merged.json"
    write_json(merged_path, {**merged.to_json(), "stats": stats})
    xy_path = paths.artifacts / "merged_xy.npy"
    write_array(xy_path, merged.geometry.xy)
    audit_path = paths.artifacts / "merge_audit.csv"
    write_audit_log(audit_path, audit)

    manifest.record("merged", merged_path, "merge")
    manifest.record("merged_xy", xy_path, "merge")
    manifest.record("merge_audit", audit_path, "merge")
    manifest.record("diagnostics", diag_path, "merge")
    return stats


def stage_attribute(cfg: RunConfig, paths: RunPaths, manifest: Manifest) -> dict:
    params = cfg.projection_params()
    merged = load_merged(manifest)[0]

    _, _, spills_path = _input_paths(cfg, paths, manifest)
    spills = parse_spills(spills_path, params=params, reference_date=cfg.resolve_reference_date())
    diag_path = paths.artifacts / "spill_diagnostics.csv"
    write_diagnostics(diag_path, spills.diagnostics)

    attributions = match_spills(spills.records, merged, cfg.tolerance_ladder(), params)

    attr_path = paths.artifacts / "attributions.csv"
    write_attributions(attr_path, attributions)

    manifest.record("attributions", attr_path, "attribute")
    manifest.record("spill_diagnostics", diag_path, "attribute")
    return attribute_stats(attributions, spills.rejected,
                            int(assign_risk(merged, attributions).sum()))


def attribute_stats(attributions: list[SpillAttribution], rejected: int, high_risk: int) -> dict:
    """The attribute stage's stats, from its attributions, the number of spill
    rows the parser rejected and the number of lines labeled high risk."""
    matched = sum(1 for a in attributions if a.matched)
    return {
        "spills_total": len(attributions) + rejected,
        "spills_attributed": matched,
        "spills_unattributed": len(attributions) - matched,
        "high_risk_lines": high_risk,
    }


def featurize_stats(rows: int, columns: int, positives: int) -> dict:
    """The featurize stage's stats, from the shape of its design matrix and
    the number of rows labeled high risk."""
    return {
        "rows": rows,
        "columns": columns,
        "positives": positives,
        "positive_rate": positives / rows,
    }


def load_merged(manifest: Manifest) -> tuple[MergedFlowlines, dict]:
    """The merge stage's flowlines, from merged.json and the vertices in
    merged_xy.npy, and the whole merged.json document.

    A column or geometry offset that does not fit the rest raises
    InconsistentArtifact naming the artifact and the stage that writes it.
    """
    doc = manifest.read_json("merged")
    xy = manifest.read_array("merged_xy", 2, part_of="merged",
                             inlined="xy" in doc.get("geometry", ()))
    try:
        merged = MergedFlowlines.from_json(doc, xy)
    except (ValueError, TypeError) as exc:
        raise manifest.inconsistent("merged", exc) from exc
    return merged, doc


def _attribution(spill_id: str, line_id: str, distance: str, step: str) -> SpillAttribution:
    """One row of attributions.csv, as write_attributions wrote it."""
    return SpillAttribution(spill_id, line_id or None, float(distance or "nan"), float(step))


def load_labeled(manifest: Manifest) -> tuple[MergedFlowlines, np.ndarray, list[SpillAttribution], dict]:
    """Merged flowlines, their risk labels, the spill attributions that
    label them, and the merge stage's stats."""
    merged, doc = load_merged(manifest)
    attributions = manifest.read_csv("attributions", ATTRIBUTIONS_HEADER, _attribution)
    try:
        risk = assign_risk(merged, attributions)
    except DanglingReference as exc:
        raise manifest.inconsistent("attributions", (
            f"it names flowline {exc.args[0]!r}, which the merged flowlines do not hold")) from exc
    return merged, risk, attributions, doc["stats"]


def _feature_config(cfg: RunConfig) -> FeatureConfig:
    return FeatureConfig(
        drop_id_like=cfg.drop_id_like,
        reference_date=cfg.resolve_reference_date(),
        count_segments=cfg.count_segments,
    )


def stage_featurize(cfg: RunConfig, paths: RunPaths, manifest: Manifest) -> dict:
    merged, risk, _, _ = load_labeled(manifest)
    ds = assemble(merged, risk, _feature_config(cfg))

    csv_path = paths.artifacts / "features.csv"
    meta_path = paths.artifacts / "features.meta.json"
    save_dataset(ds, csv_path, meta_path, seed=cfg.seed,
                 extra={"drop_id_like": cfg.drop_id_like})
    manifest.record("features", csv_path, "featurize")
    manifest.record("features_meta", meta_path, "featurize")
    return featurize_stats(ds.n_rows, ds.n_cols, int(np.sum(ds.y)))
