import csv
import math
from contextlib import contextmanager, nullcontext
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from flowline_risk.crs import ProjectionParams
from flowline_risk.ingest import parse_descriptive, parse_operational, parse_spills
from flowline_risk.matcher import (
    DanglingReference,
    SpillAttribution,
    ToleranceLadder,
    assign_risk,
    match_flowlines,
    match_spills,
    project_points,
    segment_distances,
    write_audit_log,
    _distinct,
)
from flowline_risk.spatial_index import SpatialIndex
from flowline_risk.synth import REFERENCE_DATE, config_a, generate

import matcher_oracle
from conftest import make_operational
from crs_oracle import GeoPoint, project_point, unproject_point
from geometry_oracle import Point2D, endpoint_set, multiline, point_to_multiline_distance
from matcher_oracle import interpolate_line
from merged_oracle import (
    DescriptiveFlowline,
    MergedFlowline,
    SpillRecord,
    descriptive_flowlines,
    descriptive_records,
    merged_flowlines,
    merged_records,
    multiline_array,
    operational_records,
    operational_table,
    spill_records,
    spill_table,
    without_endpoints,
)

BASE = Point2D(500000.0, 4320000.0)


def geo(dx: float, dy: float) -> GeoPoint:
    return unproject_point(Point2D(BASE.x + dx, BASE.y + dy))


def operational(row_id, dx0, dy0, dx1, dy1, operator="Acme Energy LLC"):
    a, b = geo(dx0, dy0), geo(dx1, dy1)
    return make_operational(row_id=row_id, lat=a.latitude, lon=a.longitude,
                            lat2=b.latitude, lon2=b.longitude, operator=operator)


def descriptive(row_id, coords, operator="Acme Energy LLC"):
    chains = [[(BASE.x + dx, BASE.y + dy) for dx, dy in chain] for chain in coords]
    return DescriptiveFlowline(row_id, operator, multiline(*chains))


def spill(spill_id, dx, dy, operator="Acme Energy LLC"):
    g = geo(dx, dy)
    return SpillRecord(spill_id, operator, g, "CORROSION", REFERENCE_DATE)


@given(st.lists(st.integers(-2**40, 2**40) | st.integers(-3, 3), max_size=40))
def test_distinct_is_np_unique(values):
    keys = np.array(values, dtype=np.int64)
    assert _distinct(keys).tobytes() == np.unique(keys).tobytes()


class TestToleranceLadder:
    def test_default_ladder(self):
        ladder = ToleranceLadder()
        assert ladder.steps[0] == 0.0
        assert ladder.maximum == 25.0

    def test_must_ascend(self):
        with pytest.raises(ValueError):
            ToleranceLadder((0.0, 5.0, 5.0))
        with pytest.raises(ValueError):
            ToleranceLadder((-1.0, 5.0))

    @pytest.mark.parametrize("steps", [(math.nan,), (0.0, math.nan), (math.inf,), (1.0, math.inf)])
    def test_must_be_finite(self, steps):
        with pytest.raises(ValueError, match="must be finite"):
            ToleranceLadder(steps)

    def test_parse(self):
        assert ToleranceLadder.parse("0,1,2,5").steps == (0.0, 1.0, 2.0, 5.0)


class TestInterpolate:
    """Each operational row's chord runs between its projected endpoints."""

    def test_straight_chord(self):
        table = operational_table([operational("OP1", 0.0, 0.0, 100.0, 0.0)])
        (sx,), (sy,) = project_points(table.columns["start"])
        (ex,), (ey,) = project_points(table.columns["end"])
        assert math.hypot(sx - ex, sy - ey) == pytest.approx(100.0, abs=1e-5)

    def test_degenerate(self):
        # OP1's endpoints coincide on D1's first endpoint; it is excluded
        # before the index query, so it has no candidate even at step 0.
        ops = [operational("OP1", 0.0, 0.0, 0.0, 0.0), operational("OP2", 0.0, 0.0, 100.0, 0.0)]
        desc = descriptive_flowlines([descriptive("D1", [[(0.0, 0.0), (100.0, 0.0)]])])
        merged, unmatched, audit = match_flowlines(operational_table(ops), desc)
        assert unmatched == ["OP1"]
        assert merged.operational["row_id"] == ["OP2"]
        assert (audit[0].record_id, audit[0].step_reached, audit[0].n_candidates, audit[0].chosen_id) \
            == ("OP1", 25.0, 0, None)
        assert math.isnan(audit[0].d_start) and math.isnan(audit[0].d_end)
        assert audit[1].chosen_id == "D1"

    @staticmethod
    def _chord_ends(run) -> list[list[float]]:
        columns = run.operational.columns
        ends = (*project_points(columns["start"]), *project_points(columns["end"]))
        return [list(row) for row in zip(*(a.tolist() for a in ends))]

    def test_generator_projected_pair(self, synth_a):
        # The batch gives each written endpoint the bits it gets alone.
        columns = synth_a.operational.columns
        for start, end, got in zip(columns["start"], columns["end"], self._chord_ends(synth_a)):
            a, b = project_point(GeoPoint(*start)), project_point(GeoPoint(*end))
            assert [v.hex() for v in got] == [v.hex() for v in (a.x, a.y, b.x, b.y)]

    def test_generator_projected_pair_without_jitter(self, synth_a_unjittered):
        # The generator writes coordinates that parse back to the floats it
        # projected, so unjittered chord ends are the descriptive line's
        # ends exactly.
        run = synth_a_unjittered
        geometry = {row_id: k for k, row_id in enumerate(run.descriptive.row_ids)}
        xy, parts, geoms = (run.descriptive.geometry.xy, run.descriptive.geometry.parts,
                            run.descriptive.geometry.geoms)
        for row_id, got in zip(run.operational.columns["row_id"], self._chord_ends(run)):
            k = geometry[run.truth.line_matches[row_id]]
            first, last = xy[parts[geoms[k]]], xy[parts[geoms[k + 1]] - 1]
            assert [v.hex() for v in got] == [v.hex() for v in (*first.tolist(), *last.tolist())]


class TestMatchFlowlines:
    def test_exact_coincidence_binds_at_step_zero(self):
        ops = [operational("OP1", 0.0, 0.0, 100.0, 0.0)]
        desc = [descriptive("D1", [[(0.0, 0.0), (100.0, 0.0)]])]
        # exact same geographic text on both sides: regenerate descriptive
        # from the operational record's projected endpoints
        chord = interpolate_line(ops[0])
        desc = [DescriptiveFlowline("D1", "Acme Energy LLC", multiline(
            [(chord.vertices[0].x, chord.vertices[0].y),
             (chord.vertices[1].x, chord.vertices[1].y)]))]
        merged, unmatched, audit = match_flowlines(operational_table(ops), descriptive_flowlines(desc))
        assert len(merged) == 1 and not unmatched
        assert (audit[0].chosen_id, audit[0].step_reached) == ("D1", 0.0)
        assert (audit[0].d_start, audit[0].d_end) == (0.0, 0.0)

    def test_operator_mismatch_excludes_sole_candidate(self):
        ops = [operational("OP1", 0.0, 0.0, 100.0, 0.0)]
        desc = [descriptive("D1", [[(3.0, 0.0), (103.0, 0.0)]], operator="Rival Oil Co")]
        merged, unmatched, audit = match_flowlines(operational_table(ops), descriptive_flowlines(desc))
        assert len(merged) == 0
        assert unmatched == ["OP1"]
        assert audit[0].chosen_id is None
        assert audit[0].step_reached == 25.0

    def test_search_continues_past_nearer_wrong_operator(self):
        ops = [operational("OP1", 0.0, 0.0, 100.0, 0.0)]
        desc = [
            descriptive("D1", [[(0.0, 3.0), (100.0, 3.0)]], operator="Rival Oil Co"),
            descriptive("D2", [[(0.0, 10.0), (100.0, 10.0)]]),
        ]
        merged, unmatched, audit = match_flowlines(operational_table(ops), descriptive_flowlines(desc))
        assert len(merged) == 1
        assert (audit[0].chosen_id, audit[0].step_reached) == ("D2", 10.0)

    def test_min_summed_distance_wins_then_row_id(self):
        ops = [operational("OP1", 0.0, 0.0, 100.0, 0.0)]
        desc = [
            descriptive("D2", [[(0.0, 4.0), (100.0, 4.0)]]),
            descriptive("D1", [[(0.0, 2.0), (100.0, 2.0)]]),
        ]
        _, _, audit = match_flowlines(operational_table(ops), descriptive_flowlines(desc))
        assert audit[0].chosen_id == "D1"

        # exact tie on summed distance: smaller row id wins
        desc_tie = [
            descriptive("D9", [[(0.0, 2.0), (100.0, 2.0)]]),
            descriptive("D3", [[(0.0, -2.0), (100.0, -2.0)]]),
        ]
        _, _, audit = match_flowlines(operational_table(ops), descriptive_flowlines(desc_tie))
        assert audit[0].chosen_id == "D3"

    def test_duplicate_row_id_tie_goes_to_file_order(self):
        # Two features share row id D1 and tie on summed distance; the one
        # earlier in the descriptive file wins. With the pair at positions 0
        # and 8, a set of their indices iterates position 8 first.
        ops = [operational("OP1", 0.0, 0.0, 100.0, 0.0)]
        above = descriptive("D1", [[(0.0, 2.0), (100.0, 2.0)]])
        below = descriptive("D1", [[(0.0, -2.0), (100.0, -2.0)]])
        far = [descriptive(f"F{k}", [[(5000.0 + 100 * k, 5000.0), (5050.0 + 100 * k, 5000.0)]])
               for k in range(7)]
        for first, last in ((above, below), (below, above)):
            merged, _, audit = match_flowlines(operational_table(ops), descriptive_flowlines([first, *far, last]))
            assert merged_records(merged)[0].geometry == first.geometry
            assert audit[0].n_candidates == 2

    def test_endpoint_semantics_ignores_interior(self):
        # descriptive endpoints far away; only its interior passes nearby
        ops = [operational("OP1", 0.0, 0.0, 100.0, 0.0)]
        desc = descriptive_flowlines([descriptive("D1", [[(-500.0, 5.0), (50.0, 5.0), (600.0, 5.0)]])])
        merged, unmatched, _ = match_flowlines(operational_table(ops), desc)
        assert unmatched == ["OP1"]

        merged, unmatched, _ = match_flowlines(operational_table(ops), desc, whole_geometry=True)
        assert len(merged) == 1  # the flag switches to whole-geometry distance

    def test_one_to_many_is_allowed(self):
        ops = [operational("OP1", 0.0, 0.0, 100.0, 0.0),
               operational("OP2", 1.0, 1.0, 101.0, 1.0)]
        desc = [descriptive("D1", [[(0.0, 0.0), (100.0, 0.0)]])]
        merged, unmatched, _ = match_flowlines(operational_table(ops), descriptive_flowlines(desc))
        assert len(merged) == 2 and not unmatched

    def test_invariants_on_config_a(self, synth_a):
        merged, unmatched, audit = match_flowlines(synth_a.operational, synth_a.descriptive)
        assert len(audit) == len(synth_a.operational)
        chosen = [a for a in audit if a.chosen_id is not None]
        assert [a.record_id for a in chosen] == merged.operational["row_id"]
        for a in chosen:
            assert a.d_start <= a.step_reached and a.d_end <= a.step_reached
        ops = dict(zip(synth_a.descriptive.row_ids, synth_a.descriptive.operator_names))
        from flowline_risk.ingest import normalize_operator
        for operator, a in zip(merged.operational["operator_name"], chosen):
            assert normalize_operator(operator) == normalize_operator(ops[a.chosen_id])

    def test_ladder_extension_monotonicity(self, synth_b):
        short = ToleranceLadder((0.0, 1.0, 2.0, 5.0, 10.0))
        extended = ToleranceLadder((0.0, 1.0, 2.0, 5.0, 10.0, 15.0, 25.0))
        ops = synth_b.operational.take(range(300))
        _, _, audit_short = match_flowlines(ops, synth_b.descriptive, short)
        _, _, audit_ext = match_flowlines(ops, synth_b.descriptive, extended)
        chosen_short = {a.record_id: a.chosen_id for a in audit_short if a.chosen_id is not None}
        chosen_ext = {a.record_id: a.chosen_id for a in audit_ext}
        for op_id, desc_id in chosen_short.items():
            assert chosen_ext[op_id] == desc_id  # never unmatched, never changed

    def test_determinism(self, synth_b):
        ops = synth_b.operational.take(range(200))
        a = match_flowlines(ops, synth_b.descriptive)
        b = match_flowlines(ops, synth_b.descriptive)
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert a[2] == b[2]


class TestMatchSpills:
    def _merged(self, desc, op_row="OP1"):
        ops = [operational(op_row, 0.0, 0.0, 100.0, 0.0, operator=desc.operator_name)]
        merged, _, _ = match_flowlines(operational_table(ops), descriptive_flowlines([desc]))
        return merged

    def test_spill_on_line_binds_at_zero(self):
        desc = descriptive("D1", [[(0.0, 0.0), (100.0, 0.0)]])
        merged = merged_flowlines([MergedFlowline(make_operational(row_id="OP1", operator=desc.operator_name),
                                                  desc.geometry)])
        att = match_spills(spill_table([spill("S1", 50.0, 0.0)]), merged)
        assert att[0].matched_flowline_id == "OP1"
        assert att[0].tolerance_used == 0.0
        assert att[0].distance < 1e-6

    def test_far_spill_unmatched(self):
        desc = descriptive("D1", [[(0.0, 0.0), (100.0, 0.0)]])
        merged = merged_flowlines([MergedFlowline(make_operational(row_id="OP1", operator=desc.operator_name),
                                                  desc.geometry)])
        att = match_spills(spill_table([spill("S1", 50.0, 30.0)]), merged)
        assert att[0].matched_flowline_id is None

    def test_operator_gate(self):
        desc = descriptive("D1", [[(0.0, 0.0), (100.0, 0.0)]])
        merged = merged_flowlines([MergedFlowline(make_operational(row_id="OP1", operator=desc.operator_name),
                                                  desc.geometry)])
        att = match_spills(spill_table([spill("S1", 50.0, 5.0, operator="Rival Oil Co")]), merged)
        assert att[0].matched_flowline_id is None

    def test_config_a_attribution_rate(self, synth_a):
        merged, _, _ = match_flowlines(synth_a.operational, synth_a.descriptive)
        att = match_spills(synth_a.spills, merged)
        truth = synth_a.truth
        correct = sum(1 for a in att
                      if a.matched and truth.spill_matches[a.spill_id] == a.matched_flowline_id)
        assert correct / len(att) >= 0.95


class TestOneQueryPerRecord:
    @pytest.fixture
    def query_radii(self, monkeypatch):
        """The radius of every point query, one entry per queried point."""
        radii = []
        real = SpatialIndex.query_points

        def counting(index, xs, ys, r):
            radii.extend([r] * len(xs))
            return real(index, xs, ys, r)
        monkeypatch.setattr(SpatialIndex, "query_points", counting)
        return radii

    def test_match_flowlines(self, query_radii):
        ops = [
            operational("OP1", 0.0, 0.0, 100.0, 0.0),
            operational("OP2", 0.0, 9.0, 100.0, 9.0),
            operational("OP3", 0.0, 0.0, 100.0, 0.0, operator="Rival Oil Co"),
            make_operational(row_id="OP4", lat=39.0, lon=-105.0, lat2=39.0, lon2=-105.0),
        ]
        desc = [descriptive("D1", [[(0.0, 0.0), (100.0, 0.0)]])]
        merged, unmatched, audit = match_flowlines(operational_table(ops), descriptive_flowlines(desc))
        assert [(a.chosen_id, a.step_reached) for a in audit[:2]] == [("D1", 1.0), ("D1", 10.0)]
        assert merged.operational["row_id"] == ["OP1", "OP2"]
        assert unmatched == ["OP3", "OP4"]
        # one query per non-degenerate record, at the ladder maximum
        assert query_radii == [25.0, 25.0, 25.0]

    def test_match_spills(self, query_radii):
        desc = descriptive("D1", [[(0.0, 0.0), (100.0, 0.0)]])
        merged = merged_flowlines([MergedFlowline(make_operational(row_id="OP1", operator=desc.operator_name),
                                                  desc.geometry)])
        spills = [spill("S1", 50.0, 0.0), spill("S2", 50.0, 12.0), spill("S3", 50.0, 60.0)]
        att = match_spills(spill_table(spills), merged, ToleranceLadder((0.0, 5.0, 15.0)))
        assert [a.tolerance_used for a in att] == [0.0, 15.0, 15.0]
        assert [a.matched for a in att] == [True, True, False]
        assert query_radii == [15.0, 15.0, 15.0]


LADDER_POOL = (0.0, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 10.0, 15.0, 20.0, 25.0, 40.0)
OPERATORS = ("Acme Energy LLC", "  ACME  energy llc ", "Rival Oil Co")
# (projection, base latitude, base longitude): UTM 13N at 39N, where nearby
# coordinates share a binade and their differences are exact, and a frame
# whose projected coordinates straddle zero, where a difference can round.
UTM, NEAR_ORIGIN = (ProjectionParams(), 39.0, -105.0), (ProjectionParams(false_easting=0.0), 0.0, -105.0)
# Offsets in meters: small integers (exact ties), exact ladder steps along
# an axis (distances landing on a step), and arbitrary floats.
_COORD = st.one_of(
    st.integers(-30, 30).map(float),
    st.sampled_from(LADDER_POOL + tuple(-t for t in LADDER_POOL)),
    st.floats(-30.0, 30.0),
)
OFFSETS = st.tuples(_COORD, _COORD)
LADDERS = st.lists(st.sampled_from(LADDER_POOL), min_size=1, max_size=6) \
    .map(lambda steps: ToleranceLadder(tuple(sorted(set(steps)))))


# One draw, shrinking to 0; three in seven leave a coordinate on its grid
# point, where distances can land exactly on a ladder step.
ULP_OFFSETS = st.sampled_from((0, 0, 0, -1, 1, -2, 2))


def nudged(draw, x: float, ulps: bool) -> float:
    """x, or with ulps set, x moved a drawn number of ulps, at most two either way.

    The offset is one small integer, drawn in every frame, so the shrinker
    can walk it to 0 and can change the frame without shifting later draws.
    """
    offset = draw(ULP_OFFSETS)
    for _ in range(abs(offset) if ulps else 0):
        x = math.nextafter(x, math.copysign(math.inf, offset))
    return x


@st.composite
def networks(draw, frames=(UTM, NEAR_ORIGIN), nudge_frames=(UTM,)):
    """Operational records (some degenerate) and descriptive lines near them.

    Descriptive vertices sit at drawn offsets from the projected chord
    endpoints, so candidates land near, on and across ladder steps; in
    nudge_frames they may also sit an ulp or two off such a point. Row ids
    are distinct and their string order differs from file order.
    """
    frame = draw(st.sampled_from(frames))
    params, lat, lon = frame
    ulps = frame in nudge_frames
    base = project_point(GeoPoint(lat, lon), params)
    ops, anchors = [], [base]
    for j in range(draw(st.integers(1, 4))):
        sx, sy = draw(OFFSETS)
        ex, ey = draw(st.one_of(st.just((0, 0)), st.tuples(st.integers(-100, 100), st.integers(-100, 100))))
        a = unproject_point(Point2D(base.x + sx, base.y + sy), params)
        b = unproject_point(Point2D(base.x + sx + ex, base.y + sy + ey), params)
        rec = make_operational(row_id=f"OP{j}", lat=a.latitude, lon=a.longitude,
                               lat2=b.latitude, lon2=b.longitude,
                               operator=draw(st.sampled_from(OPERATORS)))
        ops.append(rec)
        # The projected chord endpoints, degenerate or not, so every record
        # adds two anchors and a drawn anchor index keeps its meaning.
        anchors.extend((project_point(rec.start, params), project_point(rec.end, params)))
    near_anchor = st.sampled_from(anchors)
    desc = []
    # Ids from a permutation rather than a unique list, which redraws on a
    # collision and so shifts every later draw while shrinking; "D10" sorts
    # before "D6", so string order and file order differ.
    for k in draw(st.permutations(range(6, 6 + draw(st.integers(0, 8))))):
        chains = []
        for _ in range(draw(st.integers(1, 2))):
            chain = []
            for _ in range(draw(st.integers(2, 3))):
                a = draw(near_anchor)
                dx, dy = draw(OFFSETS)
                chain.append((nudged(draw, a.x + dx, ulps), nudged(draw, a.y + dy, ulps)))
            chains.append(chain)
        desc.append(DescriptiveFlowline(f"D{k}", draw(st.sampled_from(OPERATORS)), multiline(*chains)))
    return params, ops, desc


@st.composite
def spill_scenes(draw, **network_kw):
    """Merged flowlines (several may share a geometry) and spills near them."""
    params, _, desc = draw(networks(**network_kw))
    lines = draw(st.lists(st.sampled_from(desc), max_size=6)) if desc else []
    flowline_ids = draw(st.permutations(range(6, 6 + len(lines))))
    merged = [MergedFlowline(make_operational(row_id=f"OP{k}", operator=d.operator_name), d.geometry)
              for d, k in zip(lines, flowline_ids)]
    anchors = [v for m in merged for line in m.geometry.lines for v in line.vertices] \
        or [project_point(GeoPoint(39.0, -105.0), params)]
    spills = []
    for s in range(draw(st.integers(1, 5))):
        a = draw(st.sampled_from(anchors))
        dx, dy = draw(OFFSETS)
        spills.append(SpillRecord(f"S{s}", draw(st.sampled_from(OPERATORS)),
                                  unproject_point(Point2D(a.x + dx, a.y + dy), params),
                                  "CORROSION", REFERENCE_DATE))
    return params, spills, merged


def assert_same_records(got, want):
    """Field-by-field equality of two dataclass lists, NaN equal to NaN."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for f in fields(g):
            a, b = getattr(g, f.name), getattr(w, f.name)
            assert a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b)), (f.name, g, w)


def assert_same_merge(got, want):
    assert merged_records(got[0]) == without_endpoints(want[0])
    assert got[1] == want[1]
    assert_same_records(got[2], want[2])


@contextmanager
def no_box_prefilter():
    """Make every point query return the whole index, so only distances decide."""
    everywhere = np.array([-math.inf, -math.inf, math.inf, math.inf])
    with mock.patch.object(SpatialIndex, "query_points",
                           lambda index, xs, ys, r: index.query_boxes(np.tile(everywhere, (len(xs), 1)))):
        yield


def ladder_oracle_box(params):
    """The ladder oracle's box prefilter where it cannot round a point out,
    else none.

    In UTM nearby coordinates share a binade, so the box edges and the
    distances the joins compare are exact. Near the origin they round, and
    not only for nudged coordinates: spill locations go through unproject
    and project, and descriptive vertices are sums of an anchor and an
    offset. There a point can measure exactly a step yet fall outside the
    oracle's box at that step, so the oracle runs without its prefilter.
    """
    return nullcontext() if params == UTM[0] else no_box_prefilter()


# S0 measures exactly 2.0 m from OP6's end (0.0, -0.5), as the package finds,
# but its y, about 1.5, minus 2 rounds to just above -0.5, so the prefiltered
# oracle's 2 m box misses the line and it attributes S0 at 3.0.
ROUNDED_OUT_SPILL = (
    NEAR_ORIGIN[0],
    [SpillRecord("S0", "Rival Oil Co", GeoPoint(1.3570970544419904e-05, -105.00000000000001),
                 "CORROSION", REFERENCE_DATE)],
    [MergedFlowline(make_operational(row_id="OP6", operator="Rival Oil Co"),
                    multiline([(-1.5813123325892052e-09, -0.9999999999999998), (0.0, -0.5)]))],
)


# Hypothesis's explain phase re-runs a shrunk failure hundreds of times to
# annotate it; here that took two thirds of the time to report one.
ORACLE_SETTINGS = settings(max_examples=200, deadline=None,
                           phases=[p for p in Phase if p is not Phase.explain])


class TestMatchesLadderOracle:
    """The one-query joins against the step-by-step ladder joins."""

    @ORACLE_SETTINGS
    @given(networks(), LADDERS, st.booleans())
    def test_match_flowlines(self, network, ladder, whole_geometry):
        params, ops, desc = network
        got = match_flowlines(operational_table(ops), descriptive_flowlines(desc), ladder, params, whole_geometry)
        with ladder_oracle_box(params):
            want = matcher_oracle.match_flowlines(ops, desc, ladder, params, whole_geometry)
        assert_same_merge(got, want)

    @ORACLE_SETTINGS
    @given(spill_scenes(), LADDERS)
    @example(ROUNDED_OUT_SPILL, ToleranceLadder((2.0, 3.0)))
    def test_match_spills(self, scene, ladder):
        params, spills, merged = scene
        got = match_spills(spill_table(spills), merged_flowlines(merged), ladder, params)
        with ladder_oracle_box(params):
            want = matcher_oracle.match_spills(spills, merged, ladder, params)
        assert_same_records(got, want)

    # Near the origin the per-step box can round a point out that still
    # measures exactly the step; the one-query joins then bind at that step
    # and the ladder oracle one step later. Without its box prefilter the
    # oracle agrees everywhere, so the box is the only source of difference.
    @ORACLE_SETTINGS
    @given(networks(nudge_frames=(UTM, NEAR_ORIGIN)), LADDERS, st.booleans())
    def test_match_flowlines_differs_only_by_box_rounding(self, network, ladder, whole_geometry):
        params, ops, desc = network
        got = match_flowlines(operational_table(ops), descriptive_flowlines(desc), ladder, params, whole_geometry)
        with no_box_prefilter():
            want = matcher_oracle.match_flowlines(ops, desc, ladder, params, whole_geometry)
        assert_same_merge(got, want)

    @ORACLE_SETTINGS
    @given(spill_scenes(nudge_frames=(UTM, NEAR_ORIGIN)), LADDERS)
    def test_match_spills_differs_only_by_box_rounding(self, scene, ladder):
        params, spills, merged = scene
        got = match_spills(spill_table(spills), merged_flowlines(merged), ladder, params)
        with no_box_prefilter():
            want = matcher_oracle.match_spills(spills, merged, ladder, params)
        assert_same_records(got, want)

    def test_sub_ulp_box_rounding_example(self):
        # Start x is about 0.7 m; a vertex one ulp below the computed box edge
        # start.x - 2 still measures exactly 2.0 m, because start.x - vertex
        # rounds. The one-query join binds at 2; the ladder oracle's 2 m box
        # misses the vertex and it binds at 5 with the same distances.
        params = NEAR_ORIGIN[0]
        a, b = (unproject_point(Point2D(x, 0.5), params) for x in (0.7, 60.7))
        rec = make_operational(lat=a.latitude, lon=a.longitude, lat2=b.latitude, lon2=b.longitude)
        start, end = interpolate_line(rec, params).vertices
        edge = math.nextafter(start.x - 2.0, -math.inf)
        desc = [DescriptiveFlowline("D1", rec.operator_name,
                                    multiline([(edge, start.y), (end.x, end.y)]))]
        (got,) = match_flowlines(operational_table([rec]), descriptive_flowlines(desc), params=params)[2]
        (want,) = matcher_oracle.match_flowlines([rec], desc, params=params)[2]
        assert (got.step_reached, got.d_start, got.d_end) == (2.0, 2.0, 0.0)
        assert (want.step_reached, want.d_start, want.d_end) == (5.0, 2.0, 0.0)
        with no_box_prefilter():
            assert matcher_oracle.match_flowlines([rec], desc, params=params)[2] == [got]

    def test_synthetic_networks(self, synth_a, synth_b):
        for run in (synth_a, synth_b):
            ops = run.operational.take(range(300))
            for whole_geometry in (False, True):
                got = match_flowlines(ops, run.descriptive, whole_geometry=whole_geometry)
                assert_same_merge(got, matcher_oracle.match_flowlines(
                    operational_records(ops), descriptive_records(run.descriptive), whole_geometry=whole_geometry))
            assert_same_records(match_spills(run.spills, got[0]),
                                matcher_oracle.match_spills(spill_records(run.spills), merged_records(got[0])))


# Grid coordinates make zero-length segments, vertex queries and feet of
# perpendiculars exactly at a segment end (t == 0 or t == 1) common; the
# float ones exercise rounding in the projection onto the segment.
GRID_COORD = st.integers(-6, 6).map(float)
ANY_COORD = st.one_of(GRID_COORD, st.floats(-7.0, 7.0, allow_nan=False))
GEOMETRY = st.lists(st.lists(st.tuples(GRID_COORD, ANY_COORD), min_size=2, max_size=5),
                    min_size=1, max_size=3).map(lambda chains: multiline(*chains))


def kernel_distances(points, geometries, endpoints_only=False):
    """segment_distances over every (point, geometry) pair, point-major."""
    segments, first = multiline_array(geometries).segments(endpoints_only)
    q, shape = np.divmod(np.arange(len(points) * len(geometries)), len(geometries))
    px = np.array([p.x for p in points])
    py = np.array([p.y for p in points])
    return segment_distances(px[q], py[q], segments, first, shape).tolist()


class TestSegmentDistances:
    """The array distance kernel against the scalar reference, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(GEOMETRY, min_size=1, max_size=5),
           st.lists(st.builds(Point2D, ANY_COORD, ANY_COORD), min_size=1, max_size=8))
    def test_equals_point_to_multiline_distance(self, geometries, points):
        want = [point_to_multiline_distance(p, g) for p in points for g in geometries]
        assert [d.hex() for d in kernel_distances(points, geometries)] == [d.hex() for d in want]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(GEOMETRY, min_size=1, max_size=5),
           st.lists(st.builds(Point2D, ANY_COORD, ANY_COORD), min_size=1, max_size=8))
    def test_endpoints_only_equals_nearest_endpoint(self, geometries, points):
        want = [min(p.distance_to(e) for e in endpoint_set(g)) for p in points for g in geometries]
        assert [d.hex() for d in kernel_distances(points, geometries, endpoints_only=True)] \
            == [d.hex() for d in want]

    def test_branches(self):
        # A zero-length segment, feet of perpendiculars at t == 0 and
        # t == 1, a vertex, an interior foot, and a point past both ends.
        g = multiline([(0.0, 0.0), (0.0, 0.0), (4.0, 0.0)], [(9.0, 9.0), (9.0, 9.0)])
        points = [Point2D(0.0, 3.0), Point2D(4.0, 3.0), Point2D(4.0, 0.0), Point2D(2.5, -1.5),
                  Point2D(-3.0, -4.0), Point2D(9.0, 12.0)]
        got = kernel_distances(points, [g])
        assert got == [3.0, 3.0, 0.0, 1.5, 5.0, 3.0]
        assert got == [point_to_multiline_distance(p, g) for p in points]

    def test_no_pairs(self):
        segments, first = multiline_array([multiline([(0.0, 0.0), (1.0, 0.0)])]).segments()
        empty = np.zeros(0)
        assert segment_distances(empty, empty, segments, first, np.zeros(0, dtype=np.int64)).size == 0


class TestAssignRisk:
    def _merged_pair(self):
        g = multiline([(0.0, 0.0), (100.0, 0.0)])
        return merged_flowlines([
            MergedFlowline(make_operational(row_id="OP1", operator="Acme"), g),
            MergedFlowline(make_operational(row_id="OP2", operator="Acme"), g),
        ])

    def test_no_attributions(self):
        labeled = assign_risk(self._merged_pair(), [])
        assert labeled.tolist() == [0, 0]

    def test_two_spills_one_line_idempotent(self):
        atts = [SpillAttribution("S1", "OP1", 1.0, 5.0),
                SpillAttribution("S2", "OP1", 2.0, 5.0)]
        labeled = assign_risk(self._merged_pair(), atts)
        assert labeled.tolist() == [1, 0]

    def test_dangling_reference(self):
        with pytest.raises(DanglingReference):
            assign_risk(self._merged_pair(), [SpillAttribution("S1", "NOPE", 1.0, 5.0)])

    def test_duplicate_operational_id_cannot_mislabel(self, tmp_path):
        # Labels go by flowline id, so a spill-free line carrying a high-risk
        # line's id would be labelled high risk too; the parser rejects it.
        result = generate(replace(config_a(seed=3, n_lines=200), spill_rate=0.2), tmp_path)
        with open(result.operational_path, newline="") as fh:
            rows = list(csv.reader(fh))
        risky = set(result.ground_truth.spill_matches.values())
        high = next(n for n, row in enumerate(rows[1:], 1) if row[0] in risky)
        low = next(n for n, row in enumerate(rows[high + 1:], high + 1) if row[0] not in risky)
        rows[low][0] = rows[high][0]
        edited = tmp_path / "edited.csv"
        with open(edited, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)

        def high_risk_lines(operational_path):
            ops = parse_operational(operational_path, reference_date=REFERENCE_DATE)
            merged, _, _ = match_flowlines(ops.records, parse_descriptive(result.descriptive_path).records)
            spills = parse_spills(result.spills_path, reference_date=REFERENCE_DATE).records
            return int(assign_risk(merged, match_spills(spills, merged)).sum()), ops.diagnostics

        clean, _ = high_risk_lines(result.operational_path)
        count, diagnostics = high_risk_lines(edited)
        assert count == clean == len(risky)
        assert [(d.row, d.reason) for d in diagnostics] == [
            (low, f"duplicate row_id {rows[high][0]!r}, first at row {high}")]

    def test_unmatched_attribution_is_ignored(self):
        labeled = assign_risk(self._merged_pair(),
                              [SpillAttribution("S1", None, math.nan, 25.0)])
        assert labeled.tolist() == [0, 0]


class TestAuditLog:
    def test_csv_shape(self, tmp_path, synth_a):
        merged, _, audit = match_flowlines(synth_a.operational.take(range(20)), synth_a.descriptive)
        path = tmp_path / "audit.csv"
        write_audit_log(path, audit)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "record_id,step_reached,n_candidates,chosen_id,d_start,d_end"
        assert len(lines) == 21
