"""Which files two run directories differ in, less what may differ between
reruns of one config: the run log, the report's volatile fields and the
manifest's hash of the report.

    python tests/rundiff.py RUN_A RUN_B

prints each differing path (one that only one run has included) and exits 1
if there is any, 0 if there is none.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def comparable_files(root) -> dict[str, bytes]:
    """Every file of a run directory by relative path, less what may differ
    between reruns: the run log, the report's volatile fields and the
    manifest's hash of the report."""
    root = Path(root)
    files = {path.relative_to(root).as_posix(): path.read_bytes()
             for path in root.rglob("*") if path.is_file()}
    files.pop("artifacts/run_log.jsonl", None)
    if "report.json" in files:
        report = json.loads(files["report.json"])
        for volatile in ("created_at", "timings"):
            report.pop(volatile, None)
        files["report.json"] = json.dumps(report, sort_keys=True).encode()
    if "artifacts/manifest.json" in files:
        manifest = json.loads(files["artifacts/manifest.json"])
        manifest.get("report", {}).pop("sha256", None)
        files["artifacts/manifest.json"] = json.dumps(manifest, sort_keys=True).encode()
    return files


def differing(a, b) -> list[str]:
    """Sorted relative paths whose comparable bytes differ between run
    directories a and b, or that only one of them has."""
    one, two = comparable_files(a), comparable_files(b)
    return sorted(name for name in one.keys() | two.keys() if one.get(name) != two.get(name))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/rundiff.py RUN_A RUN_B", file=sys.stderr)
        return 2
    paths = differing(*argv)
    for path in paths:
        print(path)
    return 1 if paths else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
