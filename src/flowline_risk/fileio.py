"""The one codec for run artifacts, written so an interrupted run cannot
leave a file half done.

JSON artifacts are one line with sorted keys and no padding, which the C
encoder writes in one pass; CSV artifacts use the csv module's defaults.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def open_atomic(path, newline: str | None = None):
    """Text file handle whose contents replace path only when the block ends.

    Writes go to a sibling temporary file that os.replace moves over path,
    so readers see either the previous file or the complete new one, never
    a prefix, even when the process is killed mid-write. An exception in
    the block leaves path untouched and removes the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_text_atomic(path, text: str) -> None:
    """Write text to path through open_atomic."""
    with open_atomic(path) as fh:
        fh.write(text)


def write_json(path, obj) -> None:
    """Write obj as one line of JSON with sorted keys and a trailing newline."""
    write_text_atomic(path, json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_csv(path, header, rows) -> None:
    """Write a header row, then every row of the iterable rows."""
    with open_atomic(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
