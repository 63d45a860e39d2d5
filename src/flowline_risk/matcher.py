"""Spatial joins: operational-to-descriptive merging and spill attribution.

Both joins bind each record at the smallest step of an ascending tolerance
ladder that has a candidate whose normalized operator name agrees. One index
query per record at the ladder maximum, made for a block of records at a
time, finds every candidate, and each one's exact distance gives the first
step it qualifies at. A nearer candidate of another
operator never consumes a match. Records with no candidate up to the ladder
maximum are excluded, which is a result, not an error.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .crs import ProjectionParams, project
from .fileio import write_csv
from .geometry import MultiLineArray, expand_ranges
from .ingest import MERGED_COLUMNS, DescriptiveFlowlines, Table, normalize_operator
from .spatial_index import SpatialIndex

DEFAULT_LADDER_STEPS = (0.0, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 25.0)

# Records per batched index query: every numpy transient of a join is
# bounded by one block of queries and their candidates.
QUERY_BLOCK = 256


class DanglingReference(KeyError):
    """An attribution points at a flowline id that is not in the merge output."""


@dataclass(frozen=True)
class ToleranceLadder:
    """Ascending match radii in meters; the last step is the maximum."""

    steps: tuple[float, ...] = DEFAULT_LADDER_STEPS

    def __post_init__(self):
        if not self.steps:
            raise ValueError("ladder needs at least one step")
        if not all(map(math.isfinite, self.steps)):
            raise ValueError(f"ladder steps must be finite, got {', '.join(map(str, self.steps))}")
        if self.steps[0] < 0:
            raise ValueError("first ladder step must be >= 0")
        if any(b <= a for a, b in zip(self.steps, self.steps[1:])):
            raise ValueError("ladder steps must be strictly ascending")

    @property
    def maximum(self) -> float:
        return self.steps[-1]

    @staticmethod
    def parse(text: str) -> "ToleranceLadder":
        return ToleranceLadder(tuple(float(tok) for tok in text.split(",") if tok.strip()))


@dataclass(frozen=True)
class MergedFlowlines:
    """Operational attributes bound to descriptive geometry, as columns.

    Row i is the operational row whose fields are operational[c][i] (the
    columns of ingest.parse_operational's table except its endpoints, which
    only the merge reads: ingest.MERGED_COLUMNS) bound to geometry i. How it
    was matched is in its AuditRecord only. The descriptive operator normalizes
    to the operational one, or the record would not have bound."""

    operational: dict[str, list]
    geometry: MultiLineArray

    def __post_init__(self):
        for name, values in self.operational.items():
            if not isinstance(values, list) or len(values) != len(self.geometry):
                raise ValueError(f"operational column {name!r} does not have one value per "
                                 f"geometry ({len(self.geometry)})")

    def __len__(self) -> int:
        return len(self.geometry)

    def to_json(self) -> dict:
        """The columns and the geometry offsets as merged.json stores them;
        the vertices, geometry.xy, are stored apart as an array."""
        return {"operational": self.operational, "geometry": self.geometry.to_json()}

    @classmethod
    def from_json(cls, doc, xy: np.ndarray) -> "MergedFlowlines":
        """The value to_json wrote, with vertices xy; raises ValueError or
        TypeError when its columns, offsets and vertices do not fit together."""
        return cls(doc["operational"], MultiLineArray.from_json(doc["geometry"], xy))


@dataclass(frozen=True)
class SpillAttribution:
    spill_id: str
    matched_flowline_id: str | None
    distance: float
    tolerance_used: float

    @property
    def matched(self) -> bool:
        return self.matched_flowline_id is not None


@dataclass(frozen=True)
class AuditRecord:
    """One row of the merge audit trail."""

    record_id: str
    step_reached: float
    n_candidates: int
    chosen_id: str | None
    d_start: float
    d_end: float


def project_points(points: list, params: ProjectionParams = ProjectionParams()) -> tuple[np.ndarray, np.ndarray]:
    """x and y arrays of [latitude, longitude] points, projected in one call."""
    lat_lon = np.array(points, dtype=np.float64).reshape(-1, 2)
    return project(lat_lon[:, 0], lat_lon[:, 1], params)


def segment_distances(px: np.ndarray, py: np.ndarray, segments: np.ndarray, first: np.ndarray,
                      shape: np.ndarray) -> np.ndarray:
    """Distance from each point (px[j], py[j]) to geometry shape[j], whose
    segments are rows first[shape[j]]:first[shape[j] + 1] of `segments`.

    Bit for bit what geometry_oracle.point_to_multiline_distance returns:
    each segment's distance takes the float operations of
    point_to_segment_distance in the same order, then math.hypot.
    """
    if not len(shape):
        return np.zeros(0)
    pair, rows = expand_ranges(first[shape], first[shape + 1])
    x, y = px[pair], py[pair]
    ax, ay, bx, by = segments[rows].T
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    ux, uy = x - ax, y - ay
    with np.errstate(all="ignore"):
        t = (ux * dx + uy * dy) / seg2
        to_a = (seg2 == 0.0) | (t <= 0.0)
        to_b = ~to_a & (t >= 1.0)
        ux = np.where(to_a, ux, np.where(to_b, x - bx, x - (ax + t * dx)))
        uy = np.where(to_a, uy, np.where(to_b, y - by, y - (ay + t * dy)))
    d = np.fromiter(map(math.hypot, ux.tolist(), uy.tolist()), np.float64, len(ux))
    counts = first[shape + 1] - first[shape]
    return np.minimum.reduceat(d, np.cumsum(counts) - counts)


def _candidate_pairs(index: SpatialIndex, owner: np.ndarray | None, n_shapes: int,
                     xs: np.ndarray, ys: np.ndarray, r: float):
    """Per block of QUERY_BLOCK points, the distinct (point, geometry) pairs
    with an index entry in the point's closed square of half-width r, in
    ascending point position. owner maps index entries to geometries; None
    means entry i is geometry i."""
    for lo in range(0, len(xs), QUERY_BLOCK):
        q, e = index.query_points(xs[lo:lo + QUERY_BLOCK], ys[lo:lo + QUERY_BLOCK], r)
        if owner is not None:
            q, e = np.divmod(_distinct(q * n_shapes + owner[e]), n_shapes)
        yield q + lo, e


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys in ascending order, as np.unique returns them;
    np.unique imports numpy.ma on its first call, which nothing else in a
    merge process needs."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _first_per_point(q: np.ndarray, *keys: np.ndarray) -> np.ndarray:
    """Position of each point's least pair by keys, most significant first."""
    order = np.lexsort((*reversed(keys), q))
    q = q[order]
    return order[np.r_[True, q[1:] != q[:-1]]] if len(q) else order


def _ranks(keys: list) -> np.ndarray:
    """Each key's position among the distinct keys in sorted order."""
    rank = {k: r for r, k in enumerate(sorted(set(keys)))}
    return np.array([rank[k] for k in keys], dtype=np.int64)


def _operator_codes(names, codes: dict) -> np.ndarray:
    """Normalized operator names as integers; a new name gets the next code."""
    return np.array([codes.setdefault(normalize_operator(n), len(codes)) for n in names],
                    dtype=np.int64)


def match_flowlines(
    operational: Table,
    descriptive: DescriptiveFlowlines,
    ladder: ToleranceLadder = ToleranceLadder(),
    params: ProjectionParams = ProjectionParams(),
    whole_geometry: bool = False,
) -> tuple[MergedFlowlines, list[str], list[AuditRecord]]:
    """Merge operational attributes onto descriptive geometry.

    A descriptive line is a candidate at step t when it has a point within
    t of the operational start and a point within t of the operational end;
    by default "point" means the descriptive endpoint set, with
    whole_geometry=True any point of the geometry: from the first step at or
    above max(d_start, d_end). The row binds at the smallest step with a
    candidate whose normalized operator agrees; there the minimal d_start +
    d_end wins, ties to the smaller descriptive row id, then to the earlier
    descriptive file position (row ids need not be unique). A row whose
    projected endpoints lie within 1e-6 m of each other has no candidate.

    Returns (merged flowlines in input order, without the endpoint columns,
    unmatched operational ids, audit trail counting candidates of any
    operator at the bound step).
    """
    segments, first = descriptive.geometry.segments(endpoints_only=not whole_geometry)
    if whole_geometry:
        index, owner = SpatialIndex.build(descriptive.geometry.bounding_boxes()), None
    else:
        # An endpoint's index box is its zero-length segment.
        index, owner = SpatialIndex.build(segments), np.repeat(np.arange(len(descriptive)), np.diff(first))
    codes: dict = {}
    desc_ops = _operator_codes(descriptive.operator_names, codes)
    row_ranks = _ranks(descriptive.row_ids)
    steps = ladder.steps

    columns = operational.columns
    sx, sy = project_points(columns["start"], params)
    ex, ey = project_points(columns["end"], params)
    length = np.fromiter(map(math.hypot, (sx - ex).tolist(), (sy - ey).tolist()), np.float64, len(sx))
    lines = np.flatnonzero(length >= 1e-6)  # rows whose projected endpoints stay apart
    sx, sy, ex, ey = sx[lines], sy[lines], ex[lines], ey[lines]
    line_ops = _operator_codes((columns["operator_name"][n] for n in lines.tolist()), codes)

    # Per operational row; a degenerate row keeps no candidate.
    hit = np.full(len(operational), -1)
    k_bind = np.full(len(operational), len(steps) - 1)
    n_candidates = np.zeros(len(operational), dtype=np.int64)
    d_start = np.full(len(operational), math.nan)
    d_end = np.full(len(operational), math.nan)
    for q, i in _candidate_pairs(index, owner, len(descriptive), sx, sy, ladder.maximum):
        ds = segment_distances(sx[q], sy[q], segments, first, i)
        de = segment_distances(ex[q], ey[q], segments, first, i)
        k = np.searchsorted(steps, np.maximum(ds, de))
        ok = k < len(steps)
        q, i, ds, de, k = q[ok], i[ok], ds[ok], de[ok], k[ok]
        gated = np.flatnonzero(desc_ops[i] == line_ops[q])
        best = gated[_first_per_point(q[gated], k[gated], (ds + de)[gated], row_ranks[i[gated]], i[gated])]
        r, b = lines[q], lines[q[best]]
        hit[b], k_bind[b], d_start[b], d_end[b] = i[best], k[best], ds[best], de[best]
        n_candidates += np.bincount(r[k <= k_bind[r]], minlength=len(operational))

    unmatched: list[str] = []
    audit: list[AuditRecord] = []
    for row_id, i, k, count, ds, de in zip(columns["row_id"], hit.tolist(), k_bind.tolist(),
                                           n_candidates.tolist(), d_start.tolist(), d_end.tolist()):
        if i < 0:
            unmatched.append(row_id)
            audit.append(AuditRecord(row_id, ladder.maximum, count, None, math.nan, math.nan))
        else:
            audit.append(AuditRecord(row_id, steps[k], count, descriptive.row_ids[i], ds, de))
    bound = np.flatnonzero(hit >= 0)
    attributes = Table({name: columns[name] for name in MERGED_COLUMNS})
    merged = MergedFlowlines(attributes.take(bound.tolist()).columns, descriptive.geometry.take(hit[bound]))
    return merged, unmatched, audit


def match_spills(
    spills: Table,
    merged: MergedFlowlines,
    ladder: ToleranceLadder = ToleranceLadder(),
    params: ProjectionParams = ProjectionParams(),
) -> list[SpillAttribution]:
    """Attribute each spill to the nearest operator-verified merged flowline.

    Distance is point-to-geometry: a spill can surface anywhere along a
    line, not just at its ends. The nearest flowline wins, ties to the
    smaller flowline id, then to the earlier merged record; the tolerance
    used is the first ladder step at or above its distance. Nothing within
    the ladder maximum means the spill stays unattributed.
    """
    segments, first = merged.geometry.segments()
    index = SpatialIndex.build(merged.geometry.bounding_boxes())
    codes: dict = {}
    merged_ops = _operator_codes(merged.operational["operator_name"], codes)
    flowline_ids = merged.operational["row_id"]
    id_ranks = _ranks(flowline_ids)

    px, py = project_points(spills.columns["location"], params)
    spill_ops = _operator_codes(spills.columns["operator_name"], codes)

    nearest = np.full(len(spills), -1)
    distance = np.full(len(spills), math.inf)
    for q, i in _candidate_pairs(index, None, len(merged), px, py, ladder.maximum):
        gated = merged_ops[i] == spill_ops[q]
        q, i = q[gated], i[gated]
        d = segment_distances(px[q], py[q], segments, first, i)
        best = _first_per_point(q, d, id_ranks[i], i)
        nearest[q[best]], distance[q[best]] = i[best], d[best]

    attributions: list[SpillAttribution] = []
    for spill_id, i, d in zip(spills.columns["spill_id"], nearest.tolist(), distance.tolist()):
        k = bisect_left(ladder.steps, d)
        if k == len(ladder.steps):
            attributions.append(SpillAttribution(spill_id, None, math.nan, ladder.maximum))
        else:
            attributions.append(SpillAttribution(spill_id, flowline_ids[i], d, ladder.steps[k]))
    return attributions


def assign_risk(merged: MergedFlowlines, attributions: list[SpillAttribution]) -> np.ndarray:
    """Each merged flowline's risk label: 1 when at least one attribution
    names it, else 0."""
    flowline_ids = merged.operational["row_id"]
    known = set(flowline_ids)
    hit_ids = set()
    for a in attributions:
        if a.matched_flowline_id is None:
            continue
        if a.matched_flowline_id not in known:
            raise DanglingReference(a.matched_flowline_id)
        hit_ids.add(a.matched_flowline_id)
    return np.array([fid in hit_ids for fid in flowline_ids], dtype=np.int64)


ATTRIBUTIONS_HEADER = ["spill_id", "matched_flowline_id", "distance", "tolerance_used"]


def write_attributions(path, attributions: list[SpillAttribution]) -> None:
    write_csv(path, ATTRIBUTIONS_HEADER, (
        [
            a.spill_id,
            a.matched_flowline_id or "",
            "" if a.matched_flowline_id is None else f"{a.distance:.6f}",
            f"{a.tolerance_used:g}",
        ]
        for a in attributions
    ))


def write_audit_log(path, audit: list[AuditRecord]) -> None:
    write_csv(path, ["record_id", "step_reached", "n_candidates", "chosen_id", "d_start", "d_end"], (
        [
            a.record_id,
            f"{a.step_reached:g}",
            a.n_candidates,
            a.chosen_id or "",
            "" if math.isnan(a.d_start) else f"{a.d_start:.6f}",
            "" if math.isnan(a.d_end) else f"{a.d_end:.6f}",
        ]
        for a in audit
    ))
