"""Readers for the three input datasets and categorical normalization.

Parsing is total: every input row becomes either an accepted row or a
row-level diagnostic, never a silent drop. Descriptive geometry travels as
GeoJSON MultiLineString features and parses into columns with one flat
MultiLineArray; the operational and spill datasets are headed CSV and parse
into one Table each. merged.json stores the operational table's columns
except the two endpoints.
"""

from __future__ import annotations

import csv
import datetime
import json
import logging
import math
from dataclasses import dataclass, field

from .crs import GeoPoint, ProjectionParams, ZONE_HALF_WIDTH_DEG, project
from .fileio import read_json, write_csv
from .geometry import MultiLineArray

log = logging.getLogger(__name__)

OPERATIONAL_HEADER = [
    "row_id", "operator_number", "flowline_id", "location_id", "status",
    "flowline_action", "location_type", "fluid_type", "material",
    "diameter_in", "length_ft", "max_op_pressure", "construction_date",
    "operator_name", "start_lat", "start_lon", "end_lat", "end_lon",
]

SPILL_HEADER = ["spill_id", "operator_name", "lat", "lon", "root_cause_type", "report_date"]

# The operational columns merged.json keeps: every attribute, but not the
# endpoints, which only the merge reads.
MERGED_COLUMNS = OPERATIONAL_HEADER[:14]
# The parsed tables' columns: start, end and location are [latitude, longitude].
OPERATIONAL_COLUMNS = [*MERGED_COLUMNS, "start", "end"]
SPILL_COLUMNS = ["spill_id", "operator_name", "location", "root_cause_type", "report_date"]


# What json reads a number as; bool is a subclass of int, so types are
# compared exactly.
_JSON_NUMBERS = (int, float)


class FileUnreadable(OSError):
    pass


class MissingColumn(ValueError):
    pass


class SchemaViolation(ValueError):
    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


class UnknownColumn(KeyError):
    pass


@dataclass(frozen=True)
class Diagnostic:
    """One rejected row: which file, which row, why."""

    file: str
    row: int
    reason: str


@dataclass(frozen=True)
class Table:
    """Rows as columns: row i's value in column c is columns[c][i]."""

    columns: dict[str, list]

    @classmethod
    def from_rows(cls, names: list[str], rows: list[tuple]) -> "Table":
        return cls({name: [row[k] for row in rows] for k, name in enumerate(names)})

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def take(self, rows) -> "Table":
        """The given rows, in the given order."""
        return Table({name: [values[i] for i in rows] for name, values in self.columns.items()})


@dataclass
class ParseResult:
    records: Table | DescriptiveFlowlines
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def accepted(self) -> int:
        return len(self.records)

    @property
    def rejected(self) -> int:
        return len(self.diagnostics)


@dataclass(frozen=True)
class DescriptiveFlowlines:
    """The accepted descriptive features as columns: feature i has row id
    row_ids[i], operator operator_names[i] and geometry i of geometry."""

    row_ids: list[str]
    operator_names: list[str]
    geometry: MultiLineArray

    def __len__(self) -> int:
        return len(self.row_ids)


def normalize_operator(name: str) -> str:
    """Trim, collapse internal whitespace, casefold. Used for all operator equality."""
    return " ".join(name.split()).casefold()


class CategoryMap:
    """Column-wise raw-to-canonical mappings for messy categorical text.

    Patterns match case-insensitively after whitespace trimming, first match
    wins. Every canonical value maps to itself so normalization is
    idempotent; anything unmatched becomes "OTHER" with a logged warning.
    """

    def __init__(self, columns: dict[str, list[tuple[str, str]]]):
        self._patterns: dict[str, list[tuple[str, str]]] = {}
        for column, pairs in columns.items():
            seen_canonical = []
            compiled = []
            for raw, canonical in pairs:
                if canonical not in seen_canonical:
                    seen_canonical.append(canonical)
                    compiled.append((self._fold(canonical), canonical))
                compiled.append((self._fold(raw), canonical))
            self._patterns[column] = compiled

    @staticmethod
    def _fold(s: str) -> str:
        return s.strip().casefold()

    @property
    def columns(self) -> list[str]:
        return list(self._patterns)

    def normalize(self, raw: str, column: str) -> str:
        if column not in self._patterns:
            raise UnknownColumn(column)
        folded = self._fold(raw)
        for pattern, canonical in self._patterns[column]:
            if folded == pattern:
                return canonical
        log.warning("unmapped %s value %r, using OTHER", column, raw)
        return "OTHER"


def normalize_category(raw: str, column: str, category_map: CategoryMap) -> str:
    return category_map.normalize(raw, column)


def default_category_map() -> CategoryMap:
    """Fluid and material vocabularies with common misspellings folded in."""
    return CategoryMap({
        "fluid_type": [
            ("crude oil", "CRUDE_OIL"),
            ("crud oil", "CRUDE_OIL"),
            ("crude", "CRUDE_OIL"),
            ("multiphase", "MULTIPHASE"),
            ("multi-phase", "MULTIPHASE"),
            ("multi phase", "MULTIPHASE"),
            ("natural gas", "NATURAL_GAS"),
            ("nat gas", "NATURAL_GAS"),
            ("gas", "NATURAL_GAS"),
            ("other", "OTHER"),
            ("produced water", "PRODUCED_WATER"),
            ("produce water", "PRODUCED_WATER"),
            ("prod water", "PRODUCED_WATER"),
        ],
        "material": [
            ("carbon steel", "CARBON_STEEL"),
            ("carbonsteel", "CARBON_STEEL"),
            ("fiberglass", "FIBERGLASS"),
            ("fibreglass", "FIBERGLASS"),
            ("hdpe", "HDPE"),
            ("other", "OTHER"),
            ("pvc", "PVC"),
            ("steel", "STEEL"),
        ],
    })


def parse_descriptive(
    path,
    geographic: bool = False,
    params: ProjectionParams = ProjectionParams(),
) -> ParseResult:
    """Read a GeoJSON FeatureCollection of MultiLineString flowlines; the
    result's records are one DescriptiveFlowlines.

    With geographic=True the coordinates are (lon, lat) pairs and are
    projected on load; otherwise they are already metric (x, y).
    """
    try:
        doc = read_json(path)
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileUnreadable(f"not valid JSON: {path}: {exc}") from exc

    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection" \
            or not isinstance(doc.get("features"), list):
        raise SchemaViolation(0, "expected a GeoJSON FeatureCollection")

    fname = str(path)
    row_ids: list[str] = []
    operators: list[str] = []
    geometries: list[list] = []
    diagnostics: list[Diagnostic] = []
    for i, feature in enumerate(doc["features"]):
        try:
            row_id, operator, members = _parse_feature(feature, i, geographic, params)
        except SchemaViolation as exc:
            diagnostics.append(Diagnostic(fname, i, exc.reason))
            continue
        row_ids.append(row_id)
        operators.append(operator)
        geometries.append(members)
    table = DescriptiveFlowlines(row_ids, operators, MultiLineArray.from_coordinates(geometries))
    return ParseResult(table, diagnostics)


def _parse_feature(feature, i, geographic, params) -> tuple[str, str, list]:
    """(row id, operator, members as lists of projected (x, y) pairs)."""
    if not isinstance(feature, dict) or feature.get("type") != "Feature":
        raise SchemaViolation(i, "not a Feature")
    geom = feature.get("geometry") or {}
    if not isinstance(geom, dict):
        raise SchemaViolation(i, "geometry is not an object")
    if geom.get("type") != "MultiLineString":
        raise SchemaViolation(i, f"geometry type {geom.get('type')!r}, expected MultiLineString")
    props = feature.get("properties") or {}
    if not isinstance(props, dict):
        raise SchemaViolation(i, "properties is not an object")
    operator = str(props.get("operator_name", "")).strip()
    if not operator:
        raise SchemaViolation(i, "missing operator_name")
    row_id = str(feature.get("id", props.get("row_id", f"feature_{i}")))

    chains = geom.get("coordinates", [])
    if not isinstance(chains, list):
        raise SchemaViolation(i, f"bad coordinates {chains!r}")
    members = []
    for chain in chains:
        if not isinstance(chain, list):
            raise SchemaViolation(i, f"bad member {chain!r}")
        if len(chain) < 2:
            raise SchemaViolation(i, "degenerate member")
        points = []
        for coord in chain:
            if type(coord) is not list or len(coord) < 2 \
                    or type(coord[0]) not in _JSON_NUMBERS or type(coord[1]) not in _JSON_NUMBERS:
                raise SchemaViolation(i, f"bad coordinate {coord!r}")
            try:
                cx, cy = float(coord[0]), float(coord[1])
            except OverflowError:  # an integer beyond the float range
                raise SchemaViolation(i, f"non-finite coordinate {coord!r}")
            if geographic:
                try:
                    p = project(GeoPoint(cy, cx), params)
                except ValueError as exc:  # out of range, or OutOfZone
                    raise SchemaViolation(i, f"coordinate {coord!r}: {exc}")
                cx, cy = p.x, p.y
            if not (math.isfinite(cx) and math.isfinite(cy)):
                raise SchemaViolation(i, f"non-finite coordinate {coord!r}")
            points.append((cx, cy))
        members.append(points)
    if not members:
        raise SchemaViolation(i, "empty MultiLineString")
    return row_id, operator, members


def _read_csv(path, expected_header: list[str]):
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaViolation(0, "empty file")
        missing = [c for c in expected_header if c not in header]
        if missing:
            raise MissingColumn(missing[0])
        if header != expected_header:
            raise SchemaViolation(0, f"header must be exactly {','.join(expected_header)}")
        yield from enumerate(reader, start=1)


def _parse_date(raw: str, field_name: str, row: int, reference_date: datetime.date) -> datetime.date:
    raw = raw.strip()
    if not raw:
        raise SchemaViolation(row, f"missing {field_name}")
    try:
        value = datetime.date.fromisoformat(raw)
    except ValueError:
        raise SchemaViolation(row, f"bad {field_name} {raw!r}, want YYYY-MM-DD")
    if value > reference_date:
        raise SchemaViolation(row, f"{field_name} {raw} is in the future")
    return value


def _parse_number(raw: str, field_name: str, row: int, minimum: float, strict: bool) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise SchemaViolation(row, f"bad {field_name} {raw!r}")
    if not math.isfinite(value):
        raise SchemaViolation(row, f"{field_name} must be finite, got {raw}")
    if not (value > minimum if strict else value >= minimum):
        op = ">" if strict else ">="
        raise SchemaViolation(row, f"{field_name} must be {op} {minimum}, got {raw}")
    return value


def _parse_geopoint(lat_raw: str, lon_raw: str, label: str, row: int, params: ProjectionParams) -> list[float]:
    """[latitude, longitude] of a point inside the projection window."""
    try:
        lat, lon = float(lat_raw), float(lon_raw)
    except ValueError:
        raise SchemaViolation(row, f"bad {label} coordinates ({lat_raw!r}, {lon_raw!r})")
    try:
        GeoPoint(lat, lon)
    except ValueError as exc:
        raise SchemaViolation(row, f"{label}: {exc}")
    if abs(lon - params.central_meridian) >= ZONE_HALF_WIDTH_DEG:
        raise SchemaViolation(row, f"{label} longitude {lon} outside the projection window")
    return [lat, lon]


def parse_operational(
    path,
    category_map: CategoryMap | None = None,
    params: ProjectionParams = ProjectionParams(),
    reference_date: datetime.date | None = None,
) -> ParseResult:
    """Read the operational flowline CSV into a Table of OPERATIONAL_COLUMNS,
    typed and normalized. Row ids must be present and unique."""
    cmap = category_map if category_map is not None else default_category_map()
    today = reference_date or datetime.date.today()
    rows: list[tuple] = []
    first_row: dict[str, int] = {}  # accepted row id -> its CSV row
    diagnostics: list[Diagnostic] = []
    fname = str(path)
    for row_num, row in _read_csv(path, OPERATIONAL_HEADER):
        try:
            if len(row) != len(OPERATIONAL_HEADER):
                raise SchemaViolation(row_num, f"expected {len(OPERATIONAL_HEADER)} fields, got {len(row)}")
            (row_id, operator_number, flowline_id, location_id, status, flowline_action, location_type,
             fluid_type, material, diameter, length, pressure, built, operator_name,
             start_lat, start_lon, end_lat, end_lon) = row
            operator_name, row_id = operator_name.strip(), row_id.strip()
            if not operator_name:
                raise SchemaViolation(row_num, "missing operator_name")
            if not row_id:
                raise SchemaViolation(row_num, "missing row_id")
            if row_id in first_row:
                raise SchemaViolation(row_num, f"duplicate row_id {row_id!r}, first at row {first_row[row_id]}")
            rows.append((
                row_id, operator_number.strip(), flowline_id.strip(), location_id.strip(),
                status.strip().upper(), flowline_action.strip().upper(), location_type.strip().upper(),
                cmap.normalize(fluid_type, "fluid_type"),
                cmap.normalize(material, "material"),
                _parse_number(diameter, "diameter_in", row_num, 0.0, strict=True),
                _parse_number(length, "length_ft", row_num, 0.0, strict=False),
                _parse_number(pressure, "max_op_pressure", row_num, 0.0, strict=False),
                _parse_date(built, "construction_date", row_num, today).isoformat(),
                operator_name,
                _parse_geopoint(start_lat, start_lon, "start", row_num, params),
                _parse_geopoint(end_lat, end_lon, "end", row_num, params),
            ))
            first_row[row_id] = row_num
        except SchemaViolation as exc:
            diagnostics.append(Diagnostic(fname, row_num, exc.reason))
    return ParseResult(Table.from_rows(OPERATIONAL_COLUMNS, rows), diagnostics)


def parse_spills(
    path,
    params: ProjectionParams = ProjectionParams(),
    reference_date: datetime.date | None = None,
) -> ParseResult:
    """Read the spill CSV into a Table of SPILL_COLUMNS."""
    today = reference_date or datetime.date.today()
    rows: list[tuple] = []
    diagnostics: list[Diagnostic] = []
    fname = str(path)
    for row_num, row in _read_csv(path, SPILL_HEADER):
        try:
            if len(row) != len(SPILL_HEADER):
                raise SchemaViolation(row_num, f"expected {len(SPILL_HEADER)} fields, got {len(row)}")
            spill_id, operator_name, lat, lon, root_cause_type, reported = row
            operator_name = operator_name.strip()
            if not operator_name:
                raise SchemaViolation(row_num, "missing operator_name")
            rows.append((
                spill_id.strip(),
                operator_name,
                _parse_geopoint(lat, lon, "spill", row_num, params),
                root_cause_type.strip().upper(),
                _parse_date(reported, "report_date", row_num, today).isoformat(),
            ))
        except SchemaViolation as exc:
            diagnostics.append(Diagnostic(fname, row_num, exc.reason))
    return ParseResult(Table.from_rows(SPILL_COLUMNS, rows), diagnostics)


def write_diagnostics(path, diagnostics: list[Diagnostic]) -> None:
    """Quarantine rejected rows to a sidecar CSV instead of aborting the run."""
    write_csv(path, ["file", "row", "reason"], ([d.file, d.row, d.reason] for d in diagnostics))
