"""The one codec for run artifacts, written so an interrupted run cannot
leave a file half done.

JSON artifacts are one line with sorted keys and no padding, which the C
encoder writes one second-level value at a time; CSV artifacts use the csv
module's defaults.
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


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _json_pieces(obj, depth: int):
    """The text json.dumps(obj, sort_keys=True, separators=(",", ":"))
    gives, in pieces: down to `depth` levels, each value of a dict with
    string keys and each item of a list is encoded on its own."""
    if depth and isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        yield "{"
        for n, key in enumerate(sorted(obj)):
            yield ("," if n else "") + _ENCODER.encode(key) + ":"
            yield from _json_pieces(obj[key], depth - 1)
        yield "}"
    elif depth and isinstance(obj, list):
        yield "["
        for n, item in enumerate(obj):
            if n:
                yield ","
            yield from _json_pieces(item, depth - 1)
        yield "]"
    else:
        yield _ENCODER.encode(obj)


def write_json(path, obj) -> None:
    """Write obj as one line of JSON with sorted keys and a trailing newline.

    The document is written piece by piece, each item of a top-level list
    and each value of a top-level object's objects, such as merged.json's
    columns, on its own, so it never sits in memory as one string next to
    its encoded copy; for merged.json that pair would set the merge stage's
    peak.
    """
    with open_atomic(path) as fh:
        fh.writelines(_json_pieces(obj, 2))
        fh.write("\n")


def read_json(path, object_hook=None):
    return json.loads(Path(path).read_text(encoding="utf-8"), object_hook=object_hook)


def write_csv(path, header, rows) -> None:
    """Write a header row, then every row of the iterable rows."""
    with open_atomic(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
