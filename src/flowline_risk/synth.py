"""Ground-truth synthetic flowline network generator.

Emits the three input files in their external formats plus the true
operational-to-descriptive and spill-to-line mappings, so every pipeline
stage can be scored against a known answer. Deterministic under seed:
regenerating with the same config is byte-identical.

Not a statistically faithful model of any real network; it is a test
harness whose knobs reproduce the two regimes that matter: well-separated
lines that must merge perfectly, and clustered same-operator bundles where
ambiguous matches are expected.
"""

from __future__ import annotations

import csv
import datetime
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .crs import GeoPoint, ProjectionParams, project, unproject
from .fileio import write_csv, write_json
from .geometry import Point2D

REFERENCE_DATE = datetime.date(2024, 6, 30)
SPILL_ERA_START = datetime.date(2014, 1, 1)

_OPERATOR_NAMES = (
    "Acme Energy LLC", "Bluestem Petroleum", "Cottonwood Resources",
    "Dry Creek Operating", "Elkhorn Production Co", "Front Range Midstream",
    "Greenhorn Oil & Gas", "High Plains Energy", "Ironwood Operating LLC",
    "Juniper Basin Partners", "Kiowa Creek Resources", "Longs Peak Petroleum",
    "Mesa Verde Energy", "North Platte Operating", "Owl Canyon Production",
    "Pawnee Buttes Energy",
)

_STATUS = ("Active", "Inactive", "Abandoned")
_ACTIONS = ("In Service", "Repaired", "Pending Inspection")
_LOCATION_TYPES = ("Well Site", "Tank Battery", "Compressor Station")
_FLUIDS = ("Crude Oil", "crude oil", "Crud Oil", "Produced Water", "prod water",
           "Natural Gas", "Multiphase", "Other")
_MATERIALS = ("Carbon Steel", "carbonsteel", "STEEL", "HDPE", "Fiberglass", "PVC", "Other")
_ROOT_CAUSES = ("CORROSION", "EQUIPMENT_FAILURE", "HUMAN_ERROR", "NATURAL_FORCE", "UNKNOWN")
_DIAMETERS = (2.0, 3.0, 4.0, 6.0, 8.0, 12.0)

_PLACEMENT_ATTEMPTS = 10_000
# Member-count probabilities (1, 2, 3 members) by min(max_members, 3).
_MEMBER_PROBS = {1: (1.0,), 2: (0.65, 0.35), 3: (0.6, 0.25, 0.15)}

# Snapping a point through its written degrees (unproject, 12-decimal
# rounding, project) moves it by under 1e-7 m within 100 km of the central
# meridian and by under 5 cm anywhere in the projection zone. A junction
# moves with both ends, and its swing turns with the chain, so it moves by
# up to (1 + 10 / length) times as much. For chains of _SLACK_MIN_LENGTH or
# more that stays far below _SNAP_SLACK (tests/test_synth.py measures the
# margin); shorter chains skip the separation test before snapping.
_SNAP_SLACK = 1.0
_SLACK_MIN_LENGTH = 10.0


class InfeasiblePacking(RuntimeError):
    """min_separation cannot be honored inside the area."""


class BadSynthSetting(ValueError):
    """A SynthConfig value out of range; `name` is the field."""

    def __init__(self, name: str, requirement: str, value):
        super().__init__(f"{name} must be {requirement}, got {value!r}")
        self.name = name
        self.requirement = requirement
        self.value = value


@dataclass(frozen=True)
class SynthConfig:
    n_lines: int
    area: float = 20000.0
    min_separation: float = 60.0
    endpoint_jitter_sigma: float = 5.0
    spill_rate: float = 0.01
    spill_lateral_sigma: float = 8.0
    n_operators: int = 12
    operator_reuse_clustering: float = 0.0
    seed: int = 0
    length_range: tuple[float, float] = (80.0, 300.0)
    max_members: int = 3

    def __post_init__(self):
        lo, hi = self.length_range if len(self.length_range) == 2 else (math.nan, math.nan)
        checks = (
            ("n_lines", self.n_lines >= 1, ">= 1"),
            ("area", math.isfinite(self.area) and self.area > 0, "finite and > 0"),
            ("min_separation", _finite_non_negative(self.min_separation), "finite and >= 0"),
            ("endpoint_jitter_sigma", _finite_non_negative(self.endpoint_jitter_sigma),
             "finite and >= 0"),
            ("spill_rate", 0.0 <= self.spill_rate <= 1.0, "in [0, 1]"),
            ("spill_lateral_sigma", _finite_non_negative(self.spill_lateral_sigma),
             "finite and >= 0"),
            ("n_operators", 1 <= self.n_operators <= len(_OPERATOR_NAMES),
             f"in [1, {len(_OPERATOR_NAMES)}]"),
            ("operator_reuse_clustering", 0.0 <= self.operator_reuse_clustering <= 1.0,
             "in [0, 1]"),
            ("length_range", 0.0 < lo <= hi < math.inf, "(low, high) with 0 < low <= high"),
            ("max_members", self.max_members >= 1, ">= 1"),
        )
        for name, ok, requirement in checks:
            if not ok:
                raise BadSynthSetting(name, requirement, getattr(self, name))


def _finite_non_negative(value: float) -> bool:
    return math.isfinite(value) and value >= 0


def config_a(seed: int = 0, n_lines: int = 1000) -> SynthConfig:
    """Well-separated regime: merge recovery should be perfect."""
    return SynthConfig(
        n_lines=n_lines, area=20000.0, min_separation=60.0,
        endpoint_jitter_sigma=5.0, spill_rate=0.01, spill_lateral_sigma=8.0,
        n_operators=12, operator_reuse_clustering=0.0, seed=seed,
    )


def config_b(seed: int = 0, n_lines: int = 1000) -> SynthConfig:
    """Dense same-operator bundles: ambiguous matches are expected."""
    return SynthConfig(
        n_lines=n_lines, area=4000.0, min_separation=10.0,
        endpoint_jitter_sigma=5.0, spill_rate=0.01, spill_lateral_sigma=8.0,
        n_operators=6, operator_reuse_clustering=0.8, seed=seed,
    )


@dataclass
class GroundTruth:
    """True mappings plus the generator-side values derived tests check."""

    line_matches: dict[str, str] = field(default_factory=dict)   # op id -> desc id
    spill_matches: dict[str, str] = field(default_factory=dict)  # spill id -> op id
    projected_endpoints: dict[str, tuple[Point2D, Point2D]] = field(default_factory=dict)
    junctions: dict[str, list[Point2D]] = field(default_factory=dict)
    member_counts: dict[str, int] = field(default_factory=dict)


@dataclass
class SynthResult:
    descriptive_path: Path
    operational_path: Path
    spills_path: Path
    ground_truth_path: Path
    ground_truth: GroundTruth
    attempts: int                 # placement attempts, placed ones included
    rejected_before_snap: int     # outside the area, or too close with the snap slack
    rejected_after_snap: int      # too close once snapped


@dataclass
class _Line:
    desc_id: str
    op_id: str
    operator_idx: int
    location_id: str
    vertices: list[tuple[float, float]]   # full chain, start to end
    junction_idx: list[int]               # chain indices where members split
    start_geo: tuple[float, float]        # lat, lon of the true start
    end_geo: tuple[float, float]
    length_m: float
    direction: float


class _Grid:
    """Uniform bucket grid for minimum-separation lookups."""

    def __init__(self, cell: float):
        self.cell = max(cell, 1.0)
        self.buckets: dict[tuple[int, int], list[tuple[float, float]]] = {}

    def _key(self, x, y):
        return int(x // self.cell), int(y // self.cell)

    def too_close(self, points, min_sep: float) -> bool:
        for x, y in points:
            kx, ky = self._key(x, y)
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for px, py in self.buckets.get((kx + dx, ky + dy), ()):
                        if math.hypot(px - x, py - y) < min_sep:
                            return True
        return False

    def add(self, points):
        for x, y in points:
            self.buckets.setdefault(self._key(x, y), []).append((x, y))


def _truncated_normal(rng: np.random.Generator, sigma: float, size=None):
    if sigma == 0.0:
        return 0.0 if size is None else np.zeros(size)
    return np.clip(rng.normal(0.0, sigma, size=size), -3.0 * sigma, 3.0 * sigma)


def _round_geo(lat: float, lon: float) -> tuple[float, float]:
    # Parse back the exact text that lands in the CSV so ground truth and
    # pipeline see bit-identical coordinates.
    return float(f"{lat:.12f}"), float(f"{lon:.12f}")


def generate(cfg: SynthConfig, out_dir, params: ProjectionParams = ProjectionParams()) -> SynthResult:
    """Write descriptive/operational/spill/ground-truth files into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)

    center = project(GeoPoint(39.0, params.central_meridian), params)
    origin_x = center.x - cfg.area / 2.0
    origin_y = center.y - cfg.area / 2.0
    margin = max(3.0 * cfg.endpoint_jitter_sigma + 3.0 * cfg.spill_lateral_sigma + 10.0, 50.0)

    lines, counts = _place_lines(cfg, rng, origin_x, origin_y, margin, params)
    spills = _place_spills(cfg, rng, lines)

    truth = GroundTruth()
    for line in lines:
        truth.line_matches[line.op_id] = line.desc_id
        truth.junctions[line.desc_id] = [
            Point2D(*line.vertices[j]) for j in line.junction_idx
        ]
        truth.member_counts[line.desc_id] = len(line.junction_idx) + 1
    for spill in spills:
        truth.spill_matches[spill.spill_id] = spill.op_id

    desc_path = out / "descriptive.geojson"
    op_path = out / "operational.csv"
    spill_path = out / "spills.csv"
    gt_path = out / "ground_truth.csv"

    _write_descriptive(desc_path, lines)
    _write_operational(op_path, cfg, lines, rng, truth, params)
    _write_spills(spill_path, spills, params)
    _write_ground_truth(gt_path, truth)

    return SynthResult(desc_path, op_path, spill_path, gt_path, truth, *counts)


def _place_lines(cfg, rng, origin_x, origin_y, margin, params):
    """Place every line; returns the lines and the counts of attempts, of
    rejections before snapping and of rejections after it."""
    grid = _Grid(cell=max(cfg.min_separation, 25.0))
    lines: list[_Line] = []
    lo, hi = margin, cfg.area - margin
    if hi <= lo:
        raise InfeasiblePacking("area too small for the required margins")
    min_length, max_length = cfg.length_range
    member_cdf = _member_cdf(cfg.max_members)

    attempts = rejected_before_snap = rejected_after_snap = 0
    for i in range(cfg.n_lines):
        for _ in range(_PLACEMENT_ATTEMPTS):
            attempts += 1
            bundled = lines and rng.random() < cfg.operator_reuse_clustering
            if bundled:
                parent = lines[int(rng.integers(len(lines)))]
                radius = cfg.min_separation + rng.uniform(0.0, 20.0)
                angle = rng.uniform(0.0, 2.0 * math.pi)
                sx = parent.vertices[0][0] + radius * math.cos(angle)
                sy = parent.vertices[0][1] + radius * math.sin(angle)
                direction = parent.direction + math.radians(rng.uniform(-10.0, 10.0))
                length = parent.length_m * rng.uniform(0.85, 1.15)
                length = float(min(max(length, min_length), max_length))
                operator_idx = parent.operator_idx
                location_id = parent.location_id
            else:
                sx = origin_x + rng.uniform(lo, hi)
                sy = origin_y + rng.uniform(lo, hi)
                direction = rng.uniform(0.0, 2.0 * math.pi)
                length = rng.uniform(min_length, max_length)
                operator_idx = int(rng.integers(cfg.n_operators))
                location_id = f"L{i:05d}"

            ex = sx + length * math.cos(direction)
            ey = sy + length * math.sin(direction)
            if not (origin_x + lo <= sx <= origin_x + hi and origin_y + lo <= sy <= origin_y + hi
                    and origin_x + lo <= ex <= origin_x + hi and origin_y + lo <= ey <= origin_y + hi):
                rejected_before_snap += 1
                continue

            # Every draw of the attempt comes before its separation test, so
            # a rejected attempt leaves the stream where the old order did.
            ts, swings = _chain_draws(rng)
            n_members = 1 + bisect_right(member_cdf, rng.random())
            junction_idx = _pick_junctions(rng, len(ts) + 2, n_members)

            # Snapping moves each key point by less than _SNAP_SLACK, so an
            # attempt already that close fails the exact test below as well.
            if length >= _SLACK_MIN_LENGTH and grid.too_close(
                    _key_points(_chain(sx, sy, ex, ey, ts, swings), junction_idx),
                    cfg.min_separation - _SNAP_SLACK):
                rejected_before_snap += 1
                continue

            # Snap endpoints through the geographic representation that will
            # be written, so files and ground truth agree to the last bit.
            start_geo = _round_geo(*_unproject_xy(sx, sy, params))
            end_geo = _round_geo(*_unproject_xy(ex, ey, params))
            p_start = project(GeoPoint(*start_geo), params)
            p_end = project(GeoPoint(*end_geo), params)

            vertices = _chain(p_start.x, p_start.y, p_end.x, p_end.y, ts, swings)
            key_points = _key_points(vertices, junction_idx)
            if grid.too_close(key_points, cfg.min_separation):
                rejected_after_snap += 1
                continue

            grid.add(key_points)
            lines.append(_Line(
                desc_id=f"D{i:05d}", op_id=f"OP{i:05d}",
                operator_idx=operator_idx, location_id=location_id,
                vertices=vertices, junction_idx=junction_idx,
                start_geo=start_geo, end_geo=end_geo,
                length_m=length, direction=direction,
            ))
            break
        else:
            raise InfeasiblePacking(
                f"could not place line {i} after {_PLACEMENT_ATTEMPTS} attempts"
            )
    return lines, (attempts, rejected_before_snap, rejected_after_snap)


def _member_cdf(max_members: int) -> list[float]:
    """The cumulative sum that Generator.choice(p=) bisects with one uniform
    draw, so 1 + bisect_right(cdf, rng.random()) is its member-count draw."""
    cdf = np.cumsum(_MEMBER_PROBS[min(max_members, 3)])
    cdf /= cdf[-1]
    return cdf.tolist()


def _unproject_xy(x, y, params) -> tuple[float, float]:
    g = unproject(Point2D(x, y), params)
    return g.latitude, g.longitude


def _chain_draws(rng) -> tuple[np.ndarray, list[float]]:
    """Interior positions along a chain and the sideways swing at each."""
    n_interior = int(rng.integers(1, 4))
    ts = np.sort(rng.uniform(0.15, 0.85, size=n_interior))
    return ts, [rng.uniform(-2.5, 2.5) for _ in ts]


def _chain(ax, ay, bx, by, ts, swings) -> list[tuple[float, float]]:
    """Vertex chain from start to end with a gentle interior zigzag."""
    dx, dy = bx - ax, by - ay
    length = math.hypot(dx, dy)
    nx, ny = -dy / length, dx / length
    chain = [(ax, ay)]
    for t, swing in zip(ts, swings):
        chain.append((ax + t * dx + swing * nx, ay + t * dy + swing * ny))
    chain.append((bx, by))
    return chain


def _key_points(vertices, junction_idx) -> list[tuple[float, float]]:
    """The points the minimum separation holds between: ends and junctions."""
    return [vertices[0], vertices[-1]] + [vertices[j] for j in junction_idx]


def _pick_junctions(rng, n_vertices: int, n_members: int) -> list[int]:
    interior = list(range(1, n_vertices - 1))
    n_junctions = min(n_members - 1, len(interior))
    if n_junctions == 0:
        return []
    picks = rng.choice(len(interior), size=n_junctions, replace=False)
    return sorted(interior[k] for k in picks)


def _members_from_chain(vertices, junction_idx) -> list[list[tuple[float, float]]]:
    cuts = [0] + junction_idx + [len(vertices) - 1]
    members = []
    for a, b in zip(cuts, cuts[1:]):
        members.append(vertices[a:b + 1])
    return members


@dataclass
class _Spill:
    spill_id: str
    op_id: str
    xy: tuple[float, float]
    operator_name: str
    root_cause: str
    report_date: datetime.date


def _place_spills(cfg, rng, lines) -> list[_Spill]:
    if cfg.spill_rate == 0.0:
        return []
    n_sources = max(1, int(round(cfg.spill_rate * cfg.n_lines)))
    source_idx = rng.choice(len(lines), size=n_sources, replace=False)
    era_days = (REFERENCE_DATE - SPILL_ERA_START).days

    spills = []
    counter = 0
    for li in sorted(source_idx.tolist()):
        line = lines[li]
        n_here = 1 + int(rng.random() < 0.3)
        for _ in range(n_here):
            seg = int(rng.integers(len(line.vertices) - 1))
            (x0, y0), (x1, y1) = line.vertices[seg], line.vertices[seg + 1]
            t = rng.uniform(0.1, 0.9)
            px, py = x0 + t * (x1 - x0), y0 + t * (y1 - y0)
            seg_len = math.hypot(x1 - x0, y1 - y0)
            nx, ny = -(y1 - y0) / seg_len, (x1 - x0) / seg_len
            offset = float(_truncated_normal(rng, cfg.spill_lateral_sigma))
            report = SPILL_ERA_START + datetime.timedelta(days=int(rng.integers(era_days)))
            spills.append(_Spill(
                spill_id=f"S{counter:04d}",
                op_id=line.op_id,
                xy=(px + offset * nx, py + offset * ny),
                operator_name=_operator_name(line.operator_idx),
                root_cause=_ROOT_CAUSES[int(rng.integers(len(_ROOT_CAUSES)))],
                report_date=report,
            ))
            counter += 1
    return spills


def _operator_name(idx: int) -> str:
    return _OPERATOR_NAMES[idx]


def _operator_number(idx: int) -> str:
    return str(98216 + 2 * idx)


def _write_descriptive(path, lines: list[_Line]) -> None:
    features = []
    for line in lines:
        members = _members_from_chain(line.vertices, line.junction_idx)
        features.append({
            "type": "Feature",
            "id": line.desc_id,
            "properties": {
                # Descriptive files shout; operator verification must not care.
                "operator_name": _operator_name(line.operator_idx).upper(),
            },
            "geometry": {
                "type": "MultiLineString",
                "coordinates": [[[x, y] for x, y in member] for member in members],
            },
        })
    write_json(path, {"type": "FeatureCollection", "features": features})


def _write_operational(path, cfg, lines, rng, truth: GroundTruth, params) -> None:
    from .ingest import OPERATIONAL_HEADER

    construction_window = (datetime.date(1975, 1, 1), datetime.date(2020, 12, 31))
    window_days = (construction_window[1] - construction_window[0]).days

    def rows():
        for line in lines:
            # The chain's end vertices are the projections of the written
            # endpoints (see _place_lines).
            p_start, p_end = Point2D(*line.vertices[0]), Point2D(*line.vertices[-1])
            if cfg.endpoint_jitter_sigma > 0.0:
                jx, jy = _truncated_normal(rng, cfg.endpoint_jitter_sigma, size=2)
                kx, ky = _truncated_normal(rng, cfg.endpoint_jitter_sigma, size=2)
                start_geo = _round_geo(*_unproject_xy(p_start.x + jx, p_start.y + jy, params))
                end_geo = _round_geo(*_unproject_xy(p_end.x + kx, p_end.y + ky, params))
                truth.projected_endpoints[line.op_id] = (
                    project(GeoPoint(*start_geo), params),
                    project(GeoPoint(*end_geo), params),
                )
            else:
                start_geo, end_geo = line.start_geo, line.end_geo
                truth.projected_endpoints[line.op_id] = (p_start, p_end)

            length_m = sum(
                math.hypot(x1 - x0, y1 - y0)
                for (x0, y0), (x1, y1) in zip(line.vertices, line.vertices[1:])
            )
            construction = construction_window[0] + datetime.timedelta(
                days=int(rng.integers(window_days))
            )
            yield [
                line.op_id,
                _operator_number(line.operator_idx),
                f"F{line.desc_id[1:]}",
                line.location_id,
                _STATUS[int(rng.integers(len(_STATUS)))],
                _ACTIONS[int(rng.integers(len(_ACTIONS)))],
                _LOCATION_TYPES[int(rng.integers(len(_LOCATION_TYPES)))],
                _FLUIDS[int(rng.integers(len(_FLUIDS)))],
                _MATERIALS[int(rng.integers(len(_MATERIALS)))],
                f"{_DIAMETERS[int(rng.integers(len(_DIAMETERS)))]:g}",
                f"{length_m * 3.28084:.1f}",
                f"{rng.uniform(50.0, 1500.0):.0f}",
                construction.isoformat(),
                _operator_name(line.operator_idx),
                f"{start_geo[0]:.12f}", f"{start_geo[1]:.12f}",
                f"{end_geo[0]:.12f}", f"{end_geo[1]:.12f}",
            ]

    write_csv(path, OPERATIONAL_HEADER, rows())


def _write_spills(path, spills: list[_Spill], params: ProjectionParams) -> None:
    from .ingest import SPILL_HEADER

    def rows():
        for spill in spills:
            lat, lon = _round_geo(*_unproject_xy(*spill.xy, params))
            yield [
                spill.spill_id,
                spill.operator_name,
                f"{lat:.12f}", f"{lon:.12f}",
                spill.root_cause,
                spill.report_date.isoformat(),
            ]

    write_csv(path, SPILL_HEADER, rows())


def _write_ground_truth(path, truth: GroundTruth) -> None:
    rows = [["line_match", op_id, desc_id] for op_id, desc_id in truth.line_matches.items()]
    rows += [["spill_match", spill_id, op_id] for spill_id, op_id in truth.spill_matches.items()]
    write_csv(path, ["kind", "source_id", "true_target_id"], rows)


def load_ground_truth(path) -> GroundTruth:
    """Read back the 3-column ground truth file."""
    truth = GroundTruth()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for kind, source_id, target_id in reader:
            if kind == "line_match":
                truth.line_matches[source_id] = target_id
            elif kind == "spill_match":
                truth.spill_matches[source_id] = target_id
    return truth
