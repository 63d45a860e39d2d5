"""Artifact writes that an interrupted run cannot leave half done."""

from __future__ import annotations

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
