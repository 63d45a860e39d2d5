"""Span recording and self-time arithmetic for the traced benchmark pass.

A span is one call into a layer: name, start, end, parent span and an
optional value (a count or size read from the call's arguments or result).
Spans live in parallel arrays, about 30 bytes each, so a run with a few
hundred thousand index queries stays a few megabytes; they are written out
once when the traced process exits.
"""

from __future__ import annotations

import functools
import math
import time
from array import array

import numpy as np

NO_PARENT = -1


class Tracer:
    """Records spans of one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._open: list[int] = []

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else NO_PARENT)
        self.end.append(math.nan)
        self.value.append(math.nan)
        self._open.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int, value: float = math.nan) -> None:
        self.end[idx] = self.clock()
        self.value[idx] = value
        if self._open.pop() != idx:
            raise RuntimeError("spans must close in the order they opened")

    def wrap(self, name: str, fn, value_of=None):
        """fn with a span around every call; value_of(args, result) sets its value."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                raise
            self.close(idx, math.nan if value_of is None else value_of(args, result))
            return result

        return traced

    def spans(self) -> "SpanTable":
        return SpanTable(
            list(self.names),
            np.frombuffer(self.name, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            np.frombuffer(self.value, dtype=np.float64).copy(),
        )


class SpanTable:
    """Column view of recorded spans; row i is span i, parents precede children."""

    def __init__(self, names, name, parent, start, end, value, missing=()):
        self.names = list(names)
        self.missing = list(missing)  # hooks the traced process could not install
        self.name = np.asarray(name, dtype=np.int32)
        self.parent = np.asarray(parent, dtype=np.int32)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.value = np.asarray(value, dtype=np.float64)

    @classmethod
    def from_rows(cls, rows) -> "SpanTable":
        """Build from (name, start, end, parent_index) or (..., value) tuples."""
        names: list[str] = []
        ids: dict[str, int] = {}
        cols = ([], [], [], [], [])
        for row in rows:
            name, start, end, parent = row[:4]
            value = row[4] if len(row) > 4 else math.nan
            if name not in ids:
                ids[name] = len(names)
                names.append(name)
            for col, v in zip(cols, (ids[name], parent, start, end, value)):
                col.append(v)
        return cls(names, *cols)

    def __len__(self) -> int:
        return self.name.size

    def save(self, path, missing=()) -> None:
        np.savez(path, names=np.array(self.names, dtype=str), name=self.name,
                 parent=self.parent, start=self.start, end=self.end, value=self.value,
                 missing=np.array(list(missing), dtype=str))

    @classmethod
    def load(cls, path) -> "SpanTable":
        with np.load(path) as z:
            return cls([str(n) for n in z["names"]], z["name"], z["parent"],
                       z["start"], z["end"], z["value"], [str(m) for m in z["missing"]])

    @classmethod
    def concat(cls, tables) -> "SpanTable":
        """One table from several processes' tables; parents stay within their table."""
        names: list[str] = []
        cols = ([np.zeros(0, np.int32)], [np.zeros(0, np.int32)], [np.zeros(0)], [np.zeros(0)],
                [np.zeros(0)])
        missing: list[str] = []
        offset = 0
        for t in tables:
            remap = np.array([_intern(names, n) for n in t.names] or [0], dtype=np.int32)
            parent = np.where(t.parent == NO_PARENT, NO_PARENT, t.parent + offset)
            for col, v in zip(cols, (remap[t.name], parent, t.start, t.end, t.value)):
                col.append(v)
            missing += [m for m in t.missing if m not in missing]
            offset += len(t)
        return cls(names, *(np.concatenate(c) for c in cols), missing)

    def layer_self_times(self) -> dict[str, float]:
        """Self time summed per layer, the span name up to its first dot."""
        totals: dict[str, float] = {}
        self_t = self.self_times()
        for name_id, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + float(self_t[self.name == name_id].sum())
        return totals

    def durations(self) -> np.ndarray:
        return self.end - self.start

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the part of it its children cover.

        Children are clipped to the parent interval and their union is
        taken, so overlapping or straddling children are not counted twice.
        """
        self_t = self.durations().copy()
        order = np.argsort(self.parent, kind="stable")
        parents = self.parent[order]
        bounds = np.flatnonzero(np.diff(parents)) + 1
        for group in np.split(order, bounds):
            p = int(self.parent[group[0]])
            if p == NO_PARENT:
                continue
            lo_p, hi_p = self.start[p], self.end[p]
            lo = np.clip(self.start[group], lo_p, hi_p)
            hi = np.clip(self.end[group], lo_p, hi_p)
            self_t[p] -= _union_length(lo, hi)
        return self_t

    def outermost(self, name: str) -> np.ndarray:
        """Indices of spans called `name` with no ancestor of the same name."""
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        target = self.names.index(name)
        picked = []
        for i in np.flatnonzero(self.name == target):
            a = self.parent[i]
            while a != NO_PARENT and self.name[a] != target:
                a = self.parent[a]
            if a == NO_PARENT:
                picked.append(i)
        return np.asarray(picked, dtype=np.int64)

    def under(self, name: str) -> np.ndarray:
        """Boolean mask: span has an ancestor called `name`."""
        mask = np.zeros(len(self), dtype=bool)
        if name not in self.names:
            return mask
        target = self.names.index(name)
        # Parents precede children, so one forward pass propagates the flag.
        for i in range(len(self)):
            p = self.parent[i]
            if p != NO_PARENT and (self.name[p] == target or mask[p]):
                mask[i] = True
        return mask


def _intern(names: list[str], name: str) -> int:
    if name not in names:
        names.append(name)
    return names.index(name)


def _union_length(lo: np.ndarray, hi: np.ndarray) -> float:
    order = np.argsort(lo, kind="stable")
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in zip(lo[order], hi[order]):
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return float(total)
