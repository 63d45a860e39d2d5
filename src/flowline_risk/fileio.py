"""Artifact writes that an interrupted run cannot leave half done."""

from __future__ import annotations

import os
from pathlib import Path


def write_text_atomic(path, text: str) -> None:
    """Write text to path through a sibling temporary file and os.replace.

    Readers see either the previous file or the complete new one, never a
    prefix, even when the process is killed mid-write.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
