"""Operational rows, spills and merged flowlines as per-record objects,
kept as a reference for the columnar path.

The operational and spill CSVs parsed into one frozen record per row
(parse_operational_records, parse_spill_records), which the ladder oracle
in matcher_oracle still reads. Each merged flowline is a MergedFlowline
record: an OperationalFlowline and a scalar MultiLine of Point2D vertices.
merged.json held one dict per record (merged_to_dict), now without the
record's endpoints, which only the merge reads, and attribute,
featurize and report rebuilt the records from it (merged_from_dict) before
labelling them (assign_risk), building the design matrix (assemble),
tabulating them (eda_summaries) and drawing the risk map
(risk_map_payload). The tests check that the package, which keeps all of
these as columns and one MultiLineArray, reads and writes the same values
and bytes. The conversions at the end move record fixtures into the
package's column types and back.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, fields, replace

import numpy as np

from flowline_risk.crs import ProjectionParams
from flowline_risk.evaluation import FrequencyTable, _frequency_table
from flowline_risk.features import (
    NUMERIC_COLUMNS,
    ColumnMeta,
    Dataset,
    EmptyInput,
    FeatureConfig,
    FutureDate,
    one_hot,
)
from flowline_risk.geometry import MultiLineArray
from flowline_risk.ingest import (
    MERGED_COLUMNS,
    OPERATIONAL_COLUMNS,
    OPERATIONAL_HEADER,
    SPILL_COLUMNS,
    SPILL_HEADER,
    CategoryMap,
    DescriptiveFlowlines,
    Diagnostic,
    ParseResult,
    SchemaViolation,
    Table,
    _parse_date,
    _parse_geopoint,
    _parse_number,
    _read_csv,
    default_category_map,
)
from flowline_risk.matcher import DanglingReference, MergedFlowlines, SpillAttribution

from crs_oracle import GeoPoint
from geometry_oracle import MultiLine, Point2D, PolyLine, bounding_box, line_count, multiline_length


@dataclass(frozen=True)
class OperationalFlowline:
    source_row_id: str
    operator_number: str
    flowline_id: str
    location_id: str
    status: str
    flowline_action: str
    location_type: str
    fluid_type: str
    material: str
    diameter_inches: float
    length_feet: float
    max_operating_pressure: float
    construction_date: datetime.date
    operator_name: str
    start: GeoPoint
    end: GeoPoint


@dataclass(frozen=True)
class SpillRecord:
    spill_id: str
    operator_name: str
    location: GeoPoint
    root_cause_type: str
    report_date: datetime.date


@dataclass(frozen=True)
class DescriptiveFlowline:
    source_row_id: str
    operator_name: str
    geometry: MultiLine


@dataclass(frozen=True)
class MergedFlowline:
    """Operational attributes bound to descriptive geometry."""

    operational: OperationalFlowline
    geometry: MultiLine
    risk: int = 0

    @property
    def flowline_id(self) -> str:
        return self.operational.source_row_id


# ---------------------------------------------------------------------------
# the per-record parse of the operational and spill CSVs


def parse_operational_records(path, category_map: CategoryMap | None = None,
                              params: ProjectionParams = ProjectionParams(),
                              reference_date: datetime.date | None = None) -> ParseResult:
    """The operational CSV as one OperationalFlowline per accepted row."""
    cmap = category_map if category_map is not None else default_category_map()
    today = reference_date or datetime.date.today()
    records, diagnostics = [], []
    for row_num, row in _read_csv(path, OPERATIONAL_HEADER):
        try:
            if len(row) != len(OPERATIONAL_HEADER):
                raise SchemaViolation(row_num, f"expected {len(OPERATIONAL_HEADER)} fields, got {len(row)}")
            r = dict(zip(OPERATIONAL_HEADER, row))
            operator_name = r["operator_name"].strip()
            if not operator_name:
                raise SchemaViolation(row_num, "missing operator_name")
            records.append(OperationalFlowline(
                source_row_id=r["row_id"].strip(),
                operator_number=r["operator_number"].strip(),
                flowline_id=r["flowline_id"].strip(),
                location_id=r["location_id"].strip(),
                status=r["status"].strip().upper(),
                flowline_action=r["flowline_action"].strip().upper(),
                location_type=r["location_type"].strip().upper(),
                fluid_type=cmap.normalize(r["fluid_type"], "fluid_type"),
                material=cmap.normalize(r["material"], "material"),
                diameter_inches=_parse_number(r["diameter_in"], "diameter_in", row_num, 0.0, strict=True),
                length_feet=_parse_number(r["length_ft"], "length_ft", row_num, 0.0, strict=False),
                max_operating_pressure=_parse_number(r["max_op_pressure"], "max_op_pressure", row_num, 0.0,
                                                     strict=False),
                construction_date=_parse_date(r["construction_date"], "construction_date", row_num, today),
                operator_name=operator_name,
                start=GeoPoint(*_parse_geopoint(r["start_lat"], r["start_lon"], "start", row_num, params)),
                end=GeoPoint(*_parse_geopoint(r["end_lat"], r["end_lon"], "end", row_num, params)),
            ))
        except SchemaViolation as exc:
            diagnostics.append(Diagnostic(str(path), row_num, exc.reason))
    return ParseResult(records, diagnostics)


def parse_spill_records(path, params: ProjectionParams = ProjectionParams(),
                        reference_date: datetime.date | None = None) -> ParseResult:
    """The spill CSV as one SpillRecord per accepted row."""
    today = reference_date or datetime.date.today()
    records, diagnostics = [], []
    for row_num, row in _read_csv(path, SPILL_HEADER):
        try:
            if len(row) != len(SPILL_HEADER):
                raise SchemaViolation(row_num, f"expected {len(SPILL_HEADER)} fields, got {len(row)}")
            r = dict(zip(SPILL_HEADER, row))
            operator_name = r["operator_name"].strip()
            if not operator_name:
                raise SchemaViolation(row_num, "missing operator_name")
            records.append(SpillRecord(
                spill_id=r["spill_id"].strip(),
                operator_name=operator_name,
                location=GeoPoint(*_parse_geopoint(r["lat"], r["lon"], "spill", row_num, params)),
                root_cause_type=r["root_cause_type"].strip().upper(),
                report_date=_parse_date(r["report_date"], "report_date", row_num, today),
            ))
        except SchemaViolation as exc:
            diagnostics.append(Diagnostic(str(path), row_num, exc.reason))
    return ParseResult(records, diagnostics)


# ---------------------------------------------------------------------------
# the per-record codec of merged.json


def _geometry_to_coords(g: MultiLine) -> list:
    return [[[p.x, p.y] for p in member.vertices] for member in g.lines]


def _geometry_from_coords(coords) -> MultiLine:
    return MultiLine(tuple(
        PolyLine(tuple(Point2D(float(x), float(y)) for x, y in member))
        for member in coords
    ))


# merged.json keys of the OperationalFlowline fields stored under another name
_RENAMED_KEYS = {
    "source_row_id": "row_id",
    "diameter_inches": "diameter_in",
    "length_feet": "length_ft",
    "max_operating_pressure": "max_op_pressure",
}


def _operational_to_dict(op: OperationalFlowline) -> dict:
    """The record's merged.json columns: every field but the endpoints."""
    d = {_RENAMED_KEYS.get(f.name, f.name): getattr(op, f.name) for f in fields(op)
         if f.name not in ("start", "end")}
    d["construction_date"] = op.construction_date.isoformat()
    return d


def _operational_from_dict(d: dict) -> OperationalFlowline:
    """The record; without "start" and "end" in d, as merged.json stores it,
    its endpoints are None."""
    values = {f.name: d[_RENAMED_KEYS.get(f.name, f.name)] for f in fields(OperationalFlowline)
              if f.name not in ("start", "end")}
    values["construction_date"] = datetime.date.fromisoformat(d["construction_date"])
    for end in ("start", "end"):
        values[end] = GeoPoint(*d[end]) if end in d else None
    return OperationalFlowline(**values)


def merged_to_dict(m: MergedFlowline) -> dict:
    """The record as merged.json stores it: no endpoints."""
    return {
        "operational": _operational_to_dict(m.operational),
        "geometry": _geometry_to_coords(m.geometry),
    }


def without_endpoints(merged: list[MergedFlowline]) -> list[MergedFlowline]:
    """The records as merged_from_dict reads them back from merged_to_dict."""
    return [replace(m, operational=replace(m.operational, start=None, end=None)) for m in merged]


def merged_from_dict(d: dict) -> MergedFlowline:
    return MergedFlowline(
        operational=_operational_from_dict(d["operational"]),
        geometry=_geometry_from_coords(d["geometry"]),
    )


# ---------------------------------------------------------------------------
# the stages' per-record work


def assign_risk(merged: list[MergedFlowline], attributions: list[SpillAttribution]) -> list[MergedFlowline]:
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


def line_age(construction_date: datetime.date, reference_date: datetime.date) -> float:
    """Age in fractional years, day count over 365.25."""
    if construction_date > reference_date:
        raise FutureDate(f"construction date {construction_date} is after {reference_date}")
    return (reference_date - construction_date).days / 365.25


def geometry_features(g: MultiLine, count_segments: bool = False) -> tuple[float, int, float]:
    """(total length m, member count, bounding box area m2)."""
    return (
        multiline_length(g),
        line_count(g, count_segments=count_segments),
        bounding_box(g).area(),
    )


def assemble(merged: list[MergedFlowline], config: FeatureConfig | None = None) -> Dataset:
    """Numeric design matrix plus binary risk target from merged flowlines."""
    if not merged:
        raise EmptyInput("no merged flowlines to featurize")
    cfg = config or FeatureConfig()
    encoded = cfg.encoded_columns()

    numeric = np.empty((len(merged), len(NUMERIC_COLUMNS)))
    for i, m in enumerate(merged):
        op = m.operational
        geom_len, n_lines, box_area = geometry_features(m.geometry, cfg.count_segments)
        numeric[i] = (
            op.diameter_inches,
            op.length_feet,
            op.max_operating_pressure,
            line_age(op.construction_date, cfg.reference_date),
            geom_len,
            float(n_lines),
            box_area,
        )
    metas = [ColumnMeta(name, "numeric") for name in NUMERIC_COLUMNS]

    table = {column: [getattr(m.operational, column) for m in merged] for column in encoded}
    hot, hot_metas = one_hot(table, encoded)
    X = np.hstack([numeric, hot])
    metas.extend(hot_metas)

    y = np.array([m.risk for m in merged], dtype=int)
    return Dataset(X, y, metas, [m.flowline_id for m in merged])


def eda_summaries(
    merged: list[MergedFlowline],
    reference_date: datetime.date,
    age_bin_years: int = 5,
) -> dict[str, FrequencyTable]:
    """Risk frequency overall and by age bin, diameter, fluid, material,
    operator number."""
    risks = [m.risk for m in merged]

    def age_bin(m: MergedFlowline) -> str:
        years = (reference_date - m.operational.construction_date).days / 365.25
        lo = int(years // age_bin_years) * age_bin_years
        return f"{lo}-{lo + age_bin_years}"

    return {
        "overall": _frequency_table("overall", ["all"] * len(merged), risks),
        "line_age": _frequency_table("line_age", [age_bin(m) for m in merged], risks),
        "diameter": _frequency_table(
            "diameter", [f"{m.operational.diameter_inches:g}" for m in merged], risks),
        "fluid_type": _frequency_table(
            "fluid_type", [m.operational.fluid_type for m in merged], risks),
        "material": _frequency_table(
            "material", [m.operational.material for m in merged], risks),
        "operator_number": _frequency_table(
            "operator_number", [m.operational.operator_number for m in merged], risks),
    }


def risk_map_payload(merged: list[MergedFlowline]) -> list[dict]:
    """figures.render_risk_map's input: each line's risk and member vertices."""
    return [
        {"risk": m.risk, "lines": [[[p.x, p.y] for p in mem.vertices] for mem in m.geometry.lines]}
        for m in merged
    ]


# ---------------------------------------------------------------------------
# records to the package's columns and back


def multiline_array(geometries: list[MultiLine]) -> MultiLineArray:
    return MultiLineArray.from_coordinates(_geometry_to_coords(g) for g in geometries)


def descriptive_flowlines(records: list[DescriptiveFlowline]) -> DescriptiveFlowlines:
    return DescriptiveFlowlines([r.source_row_id for r in records], [r.operator_name for r in records],
                                multiline_array([r.geometry for r in records]))


def descriptive_records(table: DescriptiveFlowlines) -> list[DescriptiveFlowline]:
    return [DescriptiveFlowline(row_id, operator, _geometry_from_coords(coords)) for row_id, operator, coords
            in zip(table.row_ids, table.operator_names, table.geometry.coordinates())]


def operational_table(records: list[OperationalFlowline]) -> Table:
    """The records as the package's operational Table: merged.json's columns
    and the endpoints."""
    rows = [{**_operational_to_dict(r), "start": [r.start.latitude, r.start.longitude],
             "end": [r.end.latitude, r.end.longitude]} for r in records]
    return Table({name: [row[name] for row in rows] for name in OPERATIONAL_COLUMNS})


def operational_records(table: Table) -> list[OperationalFlowline]:
    columns = table.columns
    return [_operational_from_dict({name: values[i] for name, values in columns.items()})
            for i in range(len(table))]


def spill_table(records: list[SpillRecord]) -> Table:
    return Table.from_rows(SPILL_COLUMNS, [
        (s.spill_id, s.operator_name, [s.location.latitude, s.location.longitude], s.root_cause_type,
         s.report_date.isoformat())
        for s in records
    ])


def spill_records(table: Table) -> list[SpillRecord]:
    return [SpillRecord(spill_id, operator, GeoPoint(*location), cause, datetime.date.fromisoformat(reported))
            for spill_id, operator, location, cause, reported
            in zip(*(table.columns[name] for name in SPILL_COLUMNS))]


def merged_flowlines(records: list[MergedFlowline]) -> MergedFlowlines:
    rows = [_operational_to_dict(m.operational) for m in records]
    return MergedFlowlines({name: [row[name] for row in rows] for name in MERGED_COLUMNS},
                           multiline_array([m.geometry for m in records]))


def merged_records(merged: MergedFlowlines, risk=None) -> list[MergedFlowline]:
    """Each row of merged as the record merged_from_dict reads from its
    per-record dict, labelled with risk when given."""
    columns = merged.operational
    records = [
        merged_from_dict({"operational": {name: values[i] for name, values in columns.items()},
                          "geometry": coords})
        for i, coords in enumerate(merged.geometry.coordinates())
    ]
    if risk is None:
        return records
    return [replace(m, risk=int(r)) for m, r in zip(records, risk)]
