"""Output checks: recall against the generator's ground truth, report
validation, and a digest of every artifact that must not vary between runs."""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import jsonschema
from flowline_risk.report import VOLATILE_FIELDS, validate_report

RUN_LOG = "run_log.jsonl"
REPORT = "report.json"
MANIFEST = "manifest.json"

# Acceptance criteria 02 and 03 on the well-separated preset.
PRESET_A_MERGE_RECALL = 1.0
PRESET_A_SPILL_RECALL = 0.95


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def merge_recall(audit_csv: Path, line_truth: dict[str, str]) -> float:
    """Share of true operational-to-descriptive pairs the merge reproduced."""
    chosen = {r["record_id"]: r["chosen_id"] for r in read_rows(audit_csv)}
    hits = sum(1 for op_id, desc_id in line_truth.items() if chosen.get(op_id) == desc_id)
    return hits / len(line_truth)


def spill_recall(attributions_csv: Path, spill_truth: dict[str, str]) -> float:
    """Share of spills attributed to the line that really produced them."""
    chosen = {r["spill_id"]: r["matched_flowline_id"] for r in read_rows(attributions_csv)}
    hits = sum(1 for spill_id, op_id in spill_truth.items() if chosen.get(spill_id) == op_id)
    return hits / len(spill_truth)


def recall_problems(preset: str, merge: float, spill: float) -> list[str]:
    if preset != "a":
        return []
    problems = []
    if merge != PRESET_A_MERGE_RECALL:
        problems.append(f"merge_recall {merge:.6f} != {PRESET_A_MERGE_RECALL} on preset a")
    if spill < PRESET_A_SPILL_RECALL:
        problems.append(f"spill_recall {spill:.6f} < {PRESET_A_SPILL_RECALL} on preset a")
    return problems


def report_problems(run_dir: Path) -> list[str]:
    path = run_dir / REPORT
    if not path.is_file():
        return [f"{REPORT} missing"]
    try:
        validate_report(json.loads(path.read_text(encoding="utf-8")))
    except (ValueError, jsonschema.ValidationError) as exc:
        return [f"{REPORT} invalid: {type(exc).__name__}: {exc}"]
    return []


def _artifact_files(run_dir: Path) -> list[Path]:
    return sorted(p for p in run_dir.rglob("*") if p.is_file() and p.name != RUN_LOG)


def artifact_bytes(run_dir: Path) -> int:
    return sum(p.stat().st_size for p in _artifact_files(run_dir))


def _canonical_report(data: bytes) -> bytes:
    doc = json.loads(data)
    for key in VOLATILE_FIELDS:
        doc.pop(key, None)
    return json.dumps(doc, sort_keys=True).encode()


def _canonical_manifest(data: bytes) -> bytes:
    # The report's entry hashes report.json verbatim, volatile fields and all.
    doc = json.loads(data)
    for entry in doc.values():
        if Path(entry.get("path", "")).name == REPORT:
            entry.pop("sha256", None)
    return json.dumps(doc, sort_keys=True).encode()


def artifact_digest(run_dir: Path) -> str:
    """sha256 over every artifact's relative path and stable content.

    Excluded: run_log.jsonl, the report's volatile fields, and the manifest's
    hash of the report, which changes with those fields.
    """
    digest = hashlib.sha256()
    for path in _artifact_files(run_dir):
        data = path.read_bytes()
        if path.name == REPORT:
            data = _canonical_report(data)
        elif path.name == MANIFEST:
            data = _canonical_manifest(data)
        rel = path.relative_to(run_dir).as_posix()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def tree_digest(root: Path, pattern: str = "*") -> str:
    """sha256 over the relative paths and bytes of files under root."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()
