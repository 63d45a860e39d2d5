"""The one codec for run artifacts, written so an interrupted run cannot
leave a file half done.

JSON artifacts are one line with sorted keys and no padding, which the C
encoder writes one second-level value at a time; CSV artifacts use the csv
module's defaults, and the float block of one (features.csv) is parsed by
read_float_rows; float matrices are NPY files (NumPy NEP 1), their values'
bytes after a short text header, so they need no parsing.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tokenize
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np


@contextmanager
def open_atomic(path, newline: str | None = None, binary: bool = False):
    """File handle whose contents replace path only when the block ends; a
    text handle, or a bytes handle when binary is true.

    Writes go to a sibling temporary file that os.replace moves over path,
    so readers see either the previous file or the complete new one, never
    a prefix, even when the process is killed mid-write. An exception in
    the block leaves path untouched and removes the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with (open(tmp, "wb") if binary
              else open(tmp, "w", encoding="utf-8", newline=newline)) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_text_atomic(path, text: str) -> None:
    """Write text to path through open_atomic."""
    with open_atomic(path) as fh:
        fh.write(text)


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


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
    peak. A NaN or an infinity in obj raises ValueError: JSON has none.
    """
    with open_atomic(path) as fh:
        fh.writelines(_json_pieces(obj, 2))
        fh.write("\n")


def _refuse_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def read_json(path, object_hook=None, finite: bool = False):
    """The JSON document at path. With finite, the NaN and Infinity tokens
    json would accept raise ValueError, since write_json writes none."""
    return json.loads(Path(path).read_text(encoding="utf-8"), object_hook=object_hook,
                      parse_constant=_refuse_constant if finite else None)


def write_csv(path, header, rows) -> None:
    """Write a header row, then every row of the iterable rows."""
    with open_atomic(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_float_rows(lines, n_rows: int) -> np.ndarray:
    """The comma-separated floats of an iterable of text lines (at most
    n_rows of them) as a float64 matrix of one row per line, parsed in C by
    np.loadtxt, which reads each field as Python's float() does. The matrix
    is allocated once for n_rows; fewer lines give fewer rows, and none a
    matrix of no rows."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, max_rows=n_rows)


def write_array(path, a) -> None:
    """Write a as an NPY format 1.0 file of C-ordered little-endian float64
    values, whose bytes depend on nothing but the array."""
    with open_atomic(path, binary=True) as fh:
        np.lib.format.write_array(fh, np.asarray(a, dtype="<f8", order="C"),
                                  version=(1, 0), allow_pickle=False)


def read_array(path) -> np.ndarray:
    """The array of NPY format 1.0 file path, loaded without unpickling, so
    an object array is refused.

    Anything that is not such a file, including one whose size differs from
    what its header describes, raises ValueError before the data is read.
    """
    with open(path, "rb") as fh:
        version = np.lib.format.read_magic(fh)
        if version != (1, 0):
            raise ValueError(f"NPY format version {version[0]}.{version[1]}, not 1.0")
        # numpy's header parser raises any of these on damaged text, and
        # warns when only its fallback for Python 2 files can parse it
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)
                shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
        except (ValueError, SyntaxError, TypeError, UserWarning, tokenize.TokenError) as exc:
            raise ValueError(f"unreadable NPY header ({type(exc).__name__}: {exc})") from exc
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if not dtype.hasobject and size != math.prod(shape) * dtype.itemsize:
            raise ValueError(f"{size} bytes of data, but its header describes a {shape} "
                             f"array of {dtype.itemsize}-byte values")
        fh.seek(0)
        return np.lib.format.read_array(fh, allow_pickle=False)
