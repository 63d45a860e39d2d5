"""Spatial joins: operational-to-descriptive merging and spill attribution.

Both joins bind each record at the smallest step of an ascending tolerance
ladder that has a candidate whose normalized operator name agrees. One index
query at the ladder maximum finds every candidate, and each one's exact
distance gives the first step it qualifies at. A nearer candidate of another
operator never consumes a match. Records with no candidate up to the ladder
maximum are excluded, which is a result, not an error.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace

from .crs import ProjectionParams, project
from .fileio import write_csv
from .geometry import (
    BoundingBox,
    MultiLine,
    Point2D,
    PolyLine,
    bounding_box,
    endpoint_set,
    point_to_multiline_distance,
)
from .ingest import DescriptiveFlowline, OperationalFlowline, SpillRecord, normalize_operator
from .spatial_index import IndexEntry, SpatialIndex

DEFAULT_LADDER_STEPS = (0.0, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 25.0)


class DegenerateLine(ValueError):
    """Operational endpoints coincide after projection."""


class DanglingReference(KeyError):
    """An attribution points at a flowline id that is not in the merge output."""


@dataclass(frozen=True)
class ToleranceLadder:
    """Ascending match radii in meters; the last step is the maximum."""

    steps: tuple[float, ...] = DEFAULT_LADDER_STEPS

    def __post_init__(self):
        if not self.steps:
            raise ValueError("ladder needs at least one step")
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
class MergedFlowline:
    """Operational attributes bound to descriptive geometry.

    How the record was matched is in its AuditRecord only. The descriptive
    operator normalizes to the operational one, or the record would not
    have bound."""

    operational: OperationalFlowline
    geometry: MultiLine
    risk: int = 0

    @property
    def flowline_id(self) -> str:
        return self.operational.source_row_id


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


def interpolate_line(
    rec: OperationalFlowline, params: ProjectionParams = ProjectionParams()
) -> PolyLine:
    """Straight two-vertex polyline between the projected endpoints."""
    start = project(rec.start, params)
    end = project(rec.end, params)
    if start.distance_to(end) < 1e-6:
        raise DegenerateLine(
            f"record {rec.source_row_id}: projected endpoints coincide within 1e-6 m"
        )
    return PolyLine((start, end))


def _endpoint_index(endpoints: list[list[Point2D]]) -> SpatialIndex:
    # One degenerate box per endpoint-set point; item_id is the record index.
    entries = []
    for i, points in enumerate(endpoints):
        for p in points:
            entries.append(IndexEntry(i, BoundingBox(p.x, p.y, p.x, p.y)))
    return SpatialIndex.build(entries)


def _geometry_index(items: list[MultiLine]) -> SpatialIndex:
    return SpatialIndex.build(
        [IndexEntry(i, bounding_box(g)) for i, g in enumerate(items)]
    )


def _min_endpoint_distance(p: Point2D, endpoints: list[Point2D]) -> float:
    return min(p.distance_to(q) for q in endpoints)


def match_flowlines(
    operational: list[OperationalFlowline],
    descriptive: list[DescriptiveFlowline],
    ladder: ToleranceLadder = ToleranceLadder(),
    params: ProjectionParams = ProjectionParams(),
    whole_geometry: bool = False,
) -> tuple[list[MergedFlowline], list[str], list[AuditRecord]]:
    """Merge operational attributes onto descriptive geometry.

    A descriptive line is a candidate at step t when it has a point within
    t of the operational start and a point within t of the operational end;
    by default "point" means the descriptive endpoint set, with
    whole_geometry=True any point of the geometry: from the first step at or
    above max(d_start, d_end). The record binds at the smallest step with a
    candidate whose normalized operator agrees; there the minimal d_start +
    d_end wins, ties to the smaller descriptive row id, then to the earlier
    descriptive file position (row ids need not be unique).

    Returns (merged records in input order, unmatched operational ids,
    audit trail counting candidates of any operator at the bound step).
    """
    if whole_geometry:
        shapes = [d.geometry for d in descriptive]
        index = _geometry_index(shapes)
        distance_fn = point_to_multiline_distance
    else:
        shapes = [endpoint_set(d.geometry) for d in descriptive]
        index = _endpoint_index(shapes)
        distance_fn = _min_endpoint_distance
    desc_ops = [normalize_operator(d.operator_name) for d in descriptive]
    steps = ladder.steps

    merged: list[MergedFlowline] = []
    unmatched: list[str] = []
    audit: list[AuditRecord] = []

    for rec in operational:
        try:
            start, end = interpolate_line(rec, params).vertices
        except DegenerateLine:
            unmatched.append(rec.source_row_id)
            audit.append(AuditRecord(rec.source_row_id, ladder.maximum, 0, None, math.nan, math.nan))
            continue
        op_norm = normalize_operator(rec.operator_name)

        # (first admissible step index, d_start, d_end, descriptive index)
        candidates = []
        for i in index.query_radius(start, ladder.maximum):
            d_start = distance_fn(start, shapes[i])
            d_end = distance_fn(end, shapes[i])
            k = bisect_left(steps, max(d_start, d_end))
            if k < len(steps):
                candidates.append((k, d_start, d_end, i))
        hit = min((c for c in candidates if desc_ops[c[3]] == op_norm), default=None,
                  key=lambda c: (c[0], c[1] + c[2], descriptive[c[3]].source_row_id, c[3]))
        k_bind = len(steps) - 1 if hit is None else hit[0]
        n_candidates = sum(1 for c in candidates if c[0] <= k_bind)

        if hit is None:
            unmatched.append(rec.source_row_id)
            audit.append(AuditRecord(rec.source_row_id, ladder.maximum, n_candidates, None, math.nan, math.nan))
            continue
        _, d_start, d_end, i = hit
        merged.append(MergedFlowline(rec, descriptive[i].geometry))
        audit.append(AuditRecord(rec.source_row_id, steps[k_bind], n_candidates,
                                 descriptive[i].source_row_id, d_start, d_end))

    return merged, unmatched, audit


def match_spills(
    spills: list[SpillRecord],
    merged: list[MergedFlowline],
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
    index = _geometry_index([m.geometry for m in merged])
    merged_ops = [normalize_operator(m.operational.operator_name) for m in merged]

    attributions: list[SpillAttribution] = []
    for spill in spills:
        p = project(spill.location, params)
        spill_op = normalize_operator(spill.operator_name)
        candidates = [
            (point_to_multiline_distance(p, merged[i].geometry), merged[i].flowline_id, i)
            for i in index.query_radius(p, ladder.maximum)
            if merged_ops[i] == spill_op
        ]
        d, flowline_id, _ = min(candidates, default=(math.inf, None, None))
        k = bisect_left(ladder.steps, d)
        if k == len(ladder.steps):
            attributions.append(SpillAttribution(spill.spill_id, None, math.nan, ladder.maximum))
        else:
            attributions.append(SpillAttribution(spill.spill_id, flowline_id, d, ladder.steps[k]))
    return attributions


def assign_risk(
    merged: list[MergedFlowline], attributions: list[SpillAttribution]
) -> list[MergedFlowline]:
    """Risk 1 for every flowline named by at least one attribution, else 0."""
    known = {m.flowline_id for m in merged}
    hit_ids = set()
    for a in attributions:
        if a.matched_flowline_id is None:
            continue
        if a.matched_flowline_id not in known:
            raise DanglingReference(a.matched_flowline_id)
        hit_ids.add(a.matched_flowline_id)
    return [replace(m, risk=1 if m.flowline_id in hit_ids else 0) for m in merged]


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
