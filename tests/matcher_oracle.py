"""Step-by-step ladder joins, kept as a reference for `matcher`.

These are the package's original spatial joins: at every ladder step the
index is queried again (around both endpoints for merging), the candidates
are re-sorted and their distances recomputed, and the first step with an
operator-matching candidate binds. Slow but simple to audit, so the tests
check that the one-query joins produce the same merged records, audit rows
and spill attributions. The endpoint helpers below are the original ones,
which rebuild a line's endpoint set on every distance call, and each
operational record's chord is a PolyLine between its projected endpoints.
"""

from __future__ import annotations

import math

import numpy as np

from flowline_risk.crs import ProjectionParams
from flowline_risk.ingest import normalize_operator
from flowline_risk.matcher import AuditRecord, SpillAttribution, ToleranceLadder
from flowline_risk.spatial_index import SpatialIndex

from crs_oracle import project_point
from geometry_oracle import MultiLine, Point2D, PolyLine, bounding_box, endpoint_set, point_to_multiline_distance
from merged_oracle import DescriptiveFlowline, MergedFlowline, OperationalFlowline, SpillRecord


class DegenerateLine(ValueError):
    """Operational endpoints coincide after projection."""


def interpolate_line(
    rec: OperationalFlowline, params: ProjectionParams = ProjectionParams()
) -> PolyLine:
    """Straight two-vertex polyline between the projected endpoints."""
    start = project_point(rec.start, params)
    end = project_point(rec.end, params)
    if start.distance_to(end) < 1e-6:
        raise DegenerateLine(
            f"record {rec.source_row_id}: projected endpoints coincide within 1e-6 m"
        )
    return PolyLine((start, end))


def _endpoint_index(descriptive: list[DescriptiveFlowline]) -> tuple[SpatialIndex, list[int]]:
    # One degenerate box per endpoint-set point, and the record index of each.
    points = [(i, p) for i, rec in enumerate(descriptive) for p in endpoint_set(rec.geometry)]
    boxes = np.array([(p.x, p.y, p.x, p.y) for _, p in points], dtype=np.float64).reshape(-1, 4)
    return SpatialIndex.build(boxes), [i for i, _ in points]


def _geometry_index(items: list[MultiLine]) -> tuple[SpatialIndex, list[int]]:
    # One bounding box per geometry, and the geometry's index.
    boxes = np.array([(b.min_x, b.min_y, b.max_x, b.max_y) for b in map(bounding_box, items)],
                     dtype=np.float64).reshape(-1, 4)
    return SpatialIndex.build(boxes), list(range(len(items)))


def _near(index: tuple[SpatialIndex, list[int]], p: Point2D, r: float) -> set[int]:
    # The items with an entry box in the closed square of half-width r about p.
    spatial, owner = index
    _, found = spatial.query_points(np.array([p.x]), np.array([p.y]), r)
    return {owner[e] for e in found.tolist()}


def _min_endpoint_distance(p: Point2D, g: MultiLine) -> float:
    return min(p.distance_to(q) for q in endpoint_set(g))


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
    whole_geometry=True any point of the geometry. Candidates whose
    normalized operator differs are discarded and the search continues.
    Among survivors at the first non-empty step the minimal d_start + d_end
    wins, ties to the smaller descriptive row id.

    Returns (merged records in input order, unmatched operational ids,
    audit trail).
    """
    index = _geometry_index([d.geometry for d in descriptive]) if whole_geometry \
        else _endpoint_index(descriptive)
    desc_ops = [normalize_operator(d.operator_name) for d in descriptive]
    distance_fn = point_to_multiline_distance if whole_geometry else _min_endpoint_distance

    merged: list[MergedFlowline] = []
    unmatched: list[str] = []
    audit: list[AuditRecord] = []

    for rec in operational:
        try:
            chord = interpolate_line(rec, params)
        except DegenerateLine:
            unmatched.append(rec.source_row_id)
            audit.append(AuditRecord(rec.source_row_id, ladder.maximum, 0, None, math.nan, math.nan))
            continue
        start, end = chord.vertices
        op_norm = normalize_operator(rec.operator_name)

        hit = None
        n_candidates = 0
        step_reached = ladder.maximum
        for t in ladder.steps:
            ids = _near(index, start, t) & _near(index, end, t)
            candidates = []
            for i in sorted(ids, key=lambda i: descriptive[i].source_row_id):
                d_start = distance_fn(start, descriptive[i].geometry)
                d_end = distance_fn(end, descriptive[i].geometry)
                if d_start <= t and d_end <= t:
                    candidates.append((i, d_start, d_end))
            step_reached = t
            n_candidates = len(candidates)
            survivors = [c for c in candidates if desc_ops[c[0]] == op_norm]
            if survivors:
                hit = min(survivors, key=lambda c: (c[1] + c[2], descriptive[c[0]].source_row_id))
                break

        if hit is None:
            unmatched.append(rec.source_row_id)
            audit.append(AuditRecord(rec.source_row_id, step_reached, n_candidates, None, math.nan, math.nan))
        else:
            i, d_start, d_end = hit
            desc = descriptive[i]
            merged.append(MergedFlowline(operational=rec, geometry=desc.geometry))
            audit.append(AuditRecord(rec.source_row_id, step_reached, n_candidates, desc.source_row_id, d_start, d_end))

    return merged, unmatched, audit


def match_spills(
    spills: list[SpillRecord],
    merged: list[MergedFlowline],
    ladder: ToleranceLadder = ToleranceLadder(),
    params: ProjectionParams = ProjectionParams(),
) -> list[SpillAttribution]:
    """Attribute each spill to the nearest operator-verified merged flowline.

    Distance is point-to-geometry: a spill can surface anywhere along a
    line, not just at its ends. No survivor up to the ladder maximum means
    the spill stays unattributed.
    """
    index = _geometry_index([m.geometry for m in merged])
    merged_ops = [normalize_operator(m.operational.operator_name) for m in merged]

    attributions: list[SpillAttribution] = []
    for spill in spills:
        p = project_point(spill.location, params)
        spill_op = normalize_operator(spill.operator_name)
        hit = None
        for t in ladder.steps:
            candidates = []
            for i in sorted(_near(index, p, t), key=lambda i: merged[i].flowline_id):
                if merged_ops[i] != spill_op:
                    continue
                d = point_to_multiline_distance(p, merged[i].geometry)
                if d <= t:
                    candidates.append((i, d))
            if candidates:
                hit = min(candidates, key=lambda c: (c[1], merged[c[0]].flowline_id))
                break
        if hit is None:
            attributions.append(SpillAttribution(spill.spill_id, None, math.nan, ladder.maximum))
        else:
            i, d = hit
            attributions.append(SpillAttribution(spill.spill_id, merged[i].flowline_id, d, t))
    return attributions
