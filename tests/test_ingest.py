import datetime
import json
import math

import pytest

from flowline_risk.ingest import (
    CategoryMap,
    Diagnostic,
    FileUnreadable,
    MissingColumn,
    OPERATIONAL_HEADER,
    SPILL_HEADER,
    SchemaViolation,
    UnknownColumn,
    default_category_map,
    normalize_category,
    normalize_operator,
    parse_descriptive,
    parse_operational,
    parse_spills,
    write_diagnostics,
)

from flowline_risk.synth import REFERENCE_DATE

from merged_oracle import operational_table, parse_operational_records, parse_spill_records, spill_table

REF = datetime.date(2024, 6, 30)


def write_geojson(path, features):
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    return path


def feature(fid, coords, operator="Acme Energy LLC"):
    return {
        "type": "Feature",
        "id": fid,
        "properties": {"operator_name": operator},
        "geometry": {"type": "MultiLineString", "coordinates": coords},
    }


OP_ROW = {
    "row_id": "OP1", "operator_number": "98216", "flowline_id": "F1",
    "location_id": "L1", "status": "Active", "flowline_action": "In Service",
    "location_type": "Well Site", "fluid_type": "Crude Oil", "material": "Steel",
    "diameter_in": "8", "length_ft": "120.5", "max_op_pressure": "350",
    "construction_date": "2005-06-01", "operator_name": "Acme Energy LLC",
    "start_lat": "39.0", "start_lon": "-105.0", "end_lat": "39.001", "end_lon": "-105.0",
}


def write_operational(path, rows):
    lines = [",".join(OPERATIONAL_HEADER)]
    for row in rows:
        lines.append(",".join(row[c] for c in OPERATIONAL_HEADER))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestDescriptive:
    def test_three_valid_features(self, tmp_path):
        path = write_geojson(tmp_path / "d.geojson", [
            feature("D1", [[[0.0, 0.0], [10.0, 0.0]]]),
            feature("D2", [[[0.0, 5.0], [10.0, 5.0], [12.0, 6.0]]]),
            feature("D3", [[[0.0, 9.0], [4.0, 9.0]], [[4.0, 9.0], [8.0, 13.0]]]),
        ])
        result = parse_descriptive(path)
        assert result.accepted == 3 and result.rejected == 0
        assert result.records.row_ids == ["D1", "D2", "D3"]
        assert result.records.geometry.line_counts().tolist() == [1, 1, 2]

    def test_degenerate_member_rejected(self, tmp_path):
        path = write_geojson(tmp_path / "d.geojson", [
            feature("D1", [[[0.0, 0.0], [10.0, 0.0]]]),
            feature("D2", [[[1.0, 1.0]]]),
        ])
        result = parse_descriptive(path)
        assert result.accepted == 1
        assert result.rejected == 1
        assert result.diagnostics[0].reason == "degenerate member"

    def test_missing_operator_rejected(self, tmp_path):
        path = write_geojson(tmp_path / "d.geojson",
                             [feature("D1", [[[0.0, 0.0], [1.0, 1.0]]], operator=" ")])
        result = parse_descriptive(path)
        assert result.rejected == 1

    def test_unreadable(self, tmp_path):
        with pytest.raises(FileUnreadable):
            parse_descriptive(tmp_path / "missing.geojson")
        bad = tmp_path / "bad.geojson"
        bad.write_text("{not json")
        with pytest.raises(FileUnreadable):
            parse_descriptive(bad)

    def test_geographic_coordinates_projected(self, tmp_path):
        path = write_geojson(tmp_path / "d.geojson",
                             [feature("D1", [[[-105.0, 0.0], [-105.0, 0.001]]])])
        table = parse_descriptive(path, geographic=True).records
        assert table.geometry.xy[0, 0] == pytest.approx(500000.0, abs=1e-6)

    @pytest.mark.parametrize("coord, geographic, reason", [
        ([math.nan, 0.0], False, "non-finite coordinate [nan, 0.0]"),
        ([0.0, math.inf], False, "non-finite coordinate [0.0, inf]"),
        ([-95.0, 39.0], True, "coordinate [-95.0, 39.0]: longitude -95.0 is 10.000 deg from the "
                              "central meridian -105.0"),
        ([-105.0, 90.5], True, "coordinate [-105.0, 90.5]: latitude 90.5 outside [-90, 90]"),
        ([-105.0, math.nan], True, "coordinate [-105.0, nan]: non-finite geographic coordinates"),
        ([10**400, 0.0], False, f"non-finite coordinate [{10**400}, 0.0]"),  # an int float() refuses
    ])
    def test_bad_coordinate_is_a_row_diagnostic(self, tmp_path, coord, geographic, reason):
        # json writes NaN and Infinity, which json and the parser read back
        good = [-105.0, 39.0] if geographic else [0.0, 0.0]
        path = write_geojson(tmp_path / "d.geojson", [
            feature("D1", [[good, coord]]),
            feature("D2", [[good, [c + 0.001 for c in good]]]),
        ])
        result = parse_descriptive(path, geographic=geographic)
        assert result.records.row_ids == ["D2"]
        assert result.diagnostics == [Diagnostic(str(path), 0, reason)]

    @pytest.mark.parametrize("bad, reason", [
        (feature("D1", 5), "bad coordinates 5"),
        (feature("D1", None), "bad coordinates None"),
        (feature("D1", [[[0.0, 0.0], [1.0, 1.0]], 7]), "bad member 7"),
        (feature("D1", [[{"x": 0.0}, [1.0, 1.0]]]), "bad coordinate {'x': 0.0}"),
        ("D1", "not a Feature"),
        (dict(feature("D1", [[[0.0, 0.0], [1.0, 1.0]]]), geometry=[1]), "geometry is not an object"),
        (dict(feature("D1", [[[0.0, 0.0], [1.0, 1.0]]]), properties=["x"]), "properties is not an object"),
        # a coordinate is a list whose first two items are JSON numbers
        (feature("D1", [["12", [5.0, 5.0]]]), "bad coordinate '12'"),
        (feature("D1", [[["1", "2"], [5.0, 5.0]]]), "bad coordinate ['1', '2']"),
        (feature("D1", [[[True, False], [5.0, 5.0]]]), "bad coordinate [True, False]"),
        (feature("D1", [[{"0": 1.0, "1": 2.0}, [5.0, 5.0]]]), "bad coordinate {'0': 1.0, '1': 2.0}"),
        (feature("D1", [[[1.0], [5.0, 5.0]]]), "bad coordinate [1.0]"),
    ])
    def test_malformed_structure_is_a_row_diagnostic(self, tmp_path, bad, reason):
        path = write_geojson(tmp_path / "d.geojson", [bad, feature("D2", [[[0.0, 0.0], [1.0, 1.0]]])])
        result = parse_descriptive(path)
        assert result.records.row_ids == ["D2"]
        assert result.diagnostics == [Diagnostic(str(path), 0, reason)]

    def test_integer_and_3d_coordinates_are_read_as_floats(self, tmp_path):
        path = write_geojson(tmp_path / "d.geojson", [feature("D1", [[[0, 1], [2.5, 3, 100]]])])
        result = parse_descriptive(path)
        assert result.diagnostics == []
        assert result.records.geometry.xy.tolist() == [[0.0, 1.0], [2.5, 3.0]]

    @pytest.mark.parametrize("doc", [[], "features", {"type": "FeatureCollection", "features": {}},
                                     {"type": "FeatureCollection", "features": None}])
    def test_malformed_document_is_a_file_level_violation(self, tmp_path, doc):
        path = tmp_path / "d.geojson"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaViolation):
            parse_descriptive(path)

    def test_coordinate_round_trip(self, synth_a):
        # re-parsing the generated file must reproduce coordinates exactly
        raw = json.loads(open(synth_a.result.descriptive_path).read())
        by_id = {rec.source_row_id: rec for rec in synth_a.descriptive_records}
        for f in raw["features"][:50]:
            rec = by_id[f["id"]]
            for member, line in zip(f["geometry"]["coordinates"], rec.geometry.lines):
                for (x, y), p in zip(member, line.vertices):
                    assert p.x == x and p.y == y


class TestOperational:
    def test_typed_row(self, tmp_path):
        result = parse_operational(write_operational(tmp_path / "op.csv", [OP_ROW]),
                                   reference_date=REF)
        assert result.accepted == 1
        columns = result.records.columns
        assert columns["diameter_in"] == [8.0]
        assert columns["fluid_type"] == ["CRUDE_OIL"]
        assert columns["material"] == ["STEEL"]
        assert columns["construction_date"] == ["2005-06-01"]
        assert columns["start"] == [[39.0, -105.0]] and columns["end"] == [[39.001, -105.0]]

    def test_construction_date_stored_as_iso_text(self, tmp_path):
        # fromisoformat also reads the basic form; the column holds the date's ISO text
        row = dict(OP_ROW, construction_date="20050601")
        result = parse_operational(write_operational(tmp_path / "op.csv", [row]), reference_date=REF)
        assert result.records.columns["construction_date"] == ["2005-06-01"]

    def test_missing_construction_date_rejected(self, tmp_path):
        row = dict(OP_ROW, construction_date="")
        result = parse_operational(write_operational(tmp_path / "op.csv", [row]),
                                   reference_date=REF)
        assert result.rejected == 1
        assert "missing construction_date" in result.diagnostics[0].reason

    def test_future_date_rejected(self, tmp_path):
        row = dict(OP_ROW, construction_date="2031-01-01")
        result = parse_operational(write_operational(tmp_path / "op.csv", [row]),
                                   reference_date=REF)
        assert result.rejected == 1

    def test_nonpositive_diameter_rejected(self, tmp_path):
        row = dict(OP_ROW, diameter_in="0")
        result = parse_operational(write_operational(tmp_path / "op.csv", [row]),
                                   reference_date=REF)
        assert result.rejected == 1

    def test_missing_column(self, tmp_path):
        path = tmp_path / "op.csv"
        path.write_text("row_id,operator_number\nOP1,98216\n")
        with pytest.raises(MissingColumn):
            parse_operational(path, reference_date=REF)

    def test_header_order_enforced(self, tmp_path):
        path = tmp_path / "op.csv"
        path.write_text(",".join(reversed(OPERATIONAL_HEADER)) + "\n")
        with pytest.raises(SchemaViolation):
            parse_operational(path, reference_date=REF)

    @pytest.mark.parametrize("column", ["diameter_in", "length_ft", "max_op_pressure"])
    @pytest.mark.parametrize("raw", ["inf", "1e999", "Infinity"])
    def test_non_finite_number_rejected(self, tmp_path, column, raw):
        rows = [dict(OP_ROW, **{column: raw}), dict(OP_ROW, row_id="OP2")]
        result = parse_operational(write_operational(tmp_path / "op.csv", rows), reference_date=REF)
        assert result.records.columns["row_id"] == ["OP2"]
        assert [(d.row, d.reason) for d in result.diagnostics] == [(1, f"{column} must be finite, got {raw}")]

    def test_parsing_is_total(self, tmp_path):
        rows = [OP_ROW, dict(OP_ROW, row_id="OP2", diameter_in="oops"),
                dict(OP_ROW, row_id="OP3")]
        result = parse_operational(write_operational(tmp_path / "op.csv", rows),
                                   reference_date=REF)
        assert result.accepted + result.rejected == 3

    def test_generator_round_trip(self, synth_a):
        assert len(synth_a.operational) == 1000

    def test_missing_or_duplicate_row_id_rejected(self, tmp_path):
        rows = [OP_ROW, dict(OP_ROW, row_id=" "), dict(OP_ROW, row_id="OP2"), dict(OP_ROW, row_id=" OP1 "),
                dict(OP_ROW, row_id="OP2")]
        result = parse_operational(write_operational(tmp_path / "op.csv", rows), reference_date=REF)
        assert result.records.columns["row_id"] == ["OP1", "OP2"]
        assert [(d.row, d.reason) for d in result.diagnostics] == [
            (2, "missing row_id"),
            (4, "duplicate row_id 'OP1', first at row 1"),
            (5, "duplicate row_id 'OP2', first at row 3"),
        ]

    def test_rejected_row_does_not_claim_its_id(self, tmp_path):
        rows = [dict(OP_ROW, diameter_in="0"), OP_ROW]
        result = parse_operational(write_operational(tmp_path / "op.csv", rows), reference_date=REF)
        assert result.records.columns["row_id"] == ["OP1"]
        assert [d.row for d in result.diagnostics] == [1]

    def test_each_reason_names_the_first_failing_check(self, tmp_path):
        # Every rejected row fails two checks. The reason names the earlier
        # field in CSV order, except that operator_name, then row_id, are
        # checked before the typed fields.
        rows = [
            OP_ROW,
            dict(OP_ROW, row_id="OP2", diameter_in="oops", construction_date=""),
            dict(OP_ROW, row_id="OP3", length_ft="-1", end_lat="x"),
            dict(OP_ROW, row_id="OP4", max_op_pressure="inf", start_lon="-60.0"),
            dict(OP_ROW, row_id="OP5", construction_date="2031-01-01", start_lat="95"),
            dict(OP_ROW, row_id="OP6", start_lat="95", end_lon="-60.0"),
            dict(OP_ROW, row_id="OP7", start_lon="-60.0", end_lat="x"),
            dict(OP_ROW, row_id="OP8", operator_name=" ", diameter_in="0"),
            dict(OP_ROW, row_id="", diameter_in="0"),
            dict(OP_ROW, construction_date=""),
        ]
        path = write_operational(tmp_path / "op.csv", rows)
        with path.open("a") as fh:
            fh.write(",".join(OP_ROW[c] for c in OPERATIONAL_HEADER[:-1]) + "\n")
        result = parse_operational(path, reference_date=REF)
        reasons = [
            (2, "bad diameter_in 'oops'"),
            (3, "length_ft must be >= 0.0, got -1"),
            (4, "max_op_pressure must be finite, got inf"),
            (5, "construction_date 2031-01-01 is in the future"),
            (6, "start: latitude 95.0 outside [-90, 90]"),
            (7, "start longitude -60.0 outside the projection window"),
            (8, "missing operator_name"),
            (9, "missing row_id"),
            (10, "duplicate row_id 'OP1', first at row 1"),
            (11, "expected 18 fields, got 17"),
        ]
        assert result.records.columns["row_id"] == ["OP1"]
        assert [(d.row, d.reason) for d in result.diagnostics] == reasons
        # The per-record parse has no row id checks, so there rows 9 and 10
        # fail their second check; every other reason is the same.
        oracle = parse_operational_records(path, reference_date=REF)
        want = {**dict(reasons), 9: "diameter_in must be > 0.0, got 0", 10: "missing construction_date"}
        assert [(d.row, d.reason) for d in oracle.diagnostics] == sorted(want.items())


class TestRecordParseOracle:
    """The columnar parse against the per-record parse it replaced."""

    @pytest.mark.parametrize("run", ["synth_a", "synth_b"])
    def test_synthetic_inputs(self, request, run):
        result = request.getfixturevalue(run).result
        ops = parse_operational(result.operational_path, reference_date=REFERENCE_DATE)
        want = parse_operational_records(result.operational_path, reference_date=REFERENCE_DATE)
        assert ops.records == operational_table(want.records)
        assert ops.diagnostics == want.diagnostics
        spills = parse_spills(result.spills_path, reference_date=REFERENCE_DATE)
        want = parse_spill_records(result.spills_path, reference_date=REFERENCE_DATE)
        assert spills.records == spill_table(want.records)
        assert spills.diagnostics == want.diagnostics


class TestSpills:
    def test_valid_and_out_of_window(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("\n".join([
            ",".join(SPILL_HEADER),
            "S1,Acme Energy LLC,39.5,-104.9,CORROSION,2020-05-01",
            "S2,Acme Energy LLC,39.5,-60.0,CORROSION,2020-05-01",
        ]) + "\n")
        result = parse_spills(path, reference_date=REF)
        assert result.accepted == 1
        assert result.rejected == 1
        assert "projection window" in result.diagnostics[0].reason

    def test_determinism(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(",".join(SPILL_HEADER) + "\nS1,Op,39.0,-105.0,UNKNOWN,2019-01-01\n")
        a = parse_spills(path, reference_date=REF)
        b = parse_spills(path, reference_date=REF)
        assert a.records == b.records


class TestNormalization:
    def test_exact_pattern(self):
        cmap = default_category_map()
        assert normalize_category(" crude oil", "fluid_type", cmap) == "CRUDE_OIL"

    def test_misspelling_pattern(self):
        cmap = default_category_map()
        assert normalize_category("Crud Oil", "fluid_type", cmap) == "CRUDE_OIL"

    def test_unmapped_falls_back_to_other(self, caplog):
        cmap = default_category_map()
        with caplog.at_level("WARNING"):
            assert normalize_category("slurry", "fluid_type", cmap) == "OTHER"
        assert any("slurry" in r.message for r in caplog.records)

    def test_unknown_column(self):
        with pytest.raises(UnknownColumn):
            normalize_category("x", "nope", default_category_map())

    def test_idempotent(self):
        cmap = default_category_map()
        for raw in ("Crude Oil", "HDPE", "pvc", "slurry", "multi phase"):
            for column in ("fluid_type", "material"):
                once = normalize_category(raw, column, cmap)
                assert normalize_category(once, column, cmap) == once

    def test_first_match_wins(self):
        cmap = CategoryMap({"c": [("x", "ONE"), ("x", "TWO")]})
        assert cmap.normalize("X ", "c") == "ONE"

    def test_operator_normalization(self):
        assert normalize_operator("  ACME  Energy LLC ") == normalize_operator("Acme Energy llc")


class TestDiagnosticsSidecar:
    def test_write(self, tmp_path):
        path = tmp_path / "diag.csv"
        write_diagnostics(path, [Diagnostic("f.csv", 3, "bad row")])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "file,row,reason"
        assert lines[1] == "f.csv,3,bad row"
