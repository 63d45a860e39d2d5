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

from .crs import ProjectionParams, project, unproject
from .fileio import write_csv, write_json
# The settings are the generator's API too: synth.SynthConfig, synth.config_a, ...
from .synth_settings import _OPERATOR_NAMES, BadSynthSetting, SynthConfig, config_a, config_b

REFERENCE_DATE = datetime.date(2024, 6, 30)
SPILL_ERA_START = datetime.date(2014, 1, 1)

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
# rounding, project) moves it by under 1e-7 m anywhere in the projection
# zone. A junction moves with both ends, and its swing turns with the chain,
# so it moves by up to (1 + 10 / length) times as much. Attempts are tested
# unsnapped, against min_separation plus a slack that is at least four times
# the largest move of the config's shortest chains (see _separation_radius;
# tests/test_synth.py measures the margin), so the snapped key points keep
# min_separation.
_SNAP_SLACK = 1e-3
_SLACK_MIN_LENGTH = 10.0


class InfeasiblePacking(RuntimeError):
    """min_separation cannot be honored inside the area."""


@dataclass
class GroundTruth:
    """The true mappings."""

    line_matches: dict[str, str] = field(default_factory=dict)   # op id -> desc id
    spill_matches: dict[str, str] = field(default_factory=dict)  # spill id -> op id


@dataclass
class SynthResult:
    descriptive_path: Path
    operational_path: Path
    spills_path: Path
    ground_truth_path: Path
    ground_truth: GroundTruth
    attempts: int                 # placement attempts, placed ones included
    rejected: int                 # outside the area, or too close with the snap slack


@dataclass
class _Line:
    desc_id: str
    op_id: str
    operator_idx: int
    location_id: str
    start: tuple[float, float]            # the placed ends, before the snap
    end: tuple[float, float]
    ts: np.ndarray                        # the chain's draws, see _chain
    swings: list[float]
    junction_idx: list[int]               # chain indices where members split
    length_m: float
    direction: float
    # Set by _snap:
    start_geo: tuple[float, float] = ()   # lat, lon of the true start, as written
    end_geo: tuple[float, float] = ()
    vertices: list[tuple[float, float]] = field(default_factory=list)  # start to end


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


def _round_geo(degrees: np.ndarray) -> list[float]:
    # Parse back the exact text that lands in the CSV so ground truth and
    # pipeline see bit-identical coordinates.
    return [float(f"{d:.12f}") for d in degrees.tolist()]


def generate(cfg: SynthConfig, out_dir, params: ProjectionParams = ProjectionParams()) -> SynthResult:
    """Write descriptive/operational/spill/ground-truth files into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)

    center_x, center_y = project(39.0, params.central_meridian, params)
    origin_x = float(center_x) - cfg.area / 2.0
    origin_y = float(center_y) - cfg.area / 2.0
    margin = max(3.0 * cfg.endpoint_jitter_sigma + 3.0 * cfg.spill_lateral_sigma + 10.0, 50.0)

    lines, counts = _place_lines(cfg, rng, origin_x, origin_y, margin, params)
    spills = _place_spills(cfg, rng, lines)

    truth = GroundTruth({line.op_id: line.desc_id for line in lines},
                        {spill.spill_id: spill.op_id for spill in spills})

    desc_path = out / "descriptive.geojson"
    op_path = out / "operational.csv"
    spill_path = out / "spills.csv"
    gt_path = out / "ground_truth.csv"

    _write_descriptive(desc_path, lines)
    _write_operational(op_path, cfg, lines, rng, params)
    _write_spills(spill_path, spills, params)
    _write_ground_truth(gt_path, truth)

    return SynthResult(desc_path, op_path, spill_path, gt_path, truth, *counts)


def _place_lines(cfg, rng, origin_x, origin_y, margin, params):
    """Place every line, then snap them all; returns the lines and the counts
    of attempts and of rejected attempts."""
    separation = _separation_radius(cfg)
    grid = _Grid(cell=max(separation, 25.0))
    lines: list[_Line] = []
    lo, hi = margin, cfg.area - margin
    if hi <= lo:
        raise InfeasiblePacking("area too small for the required margins")
    min_length, max_length = cfg.length_range
    member_cdf = _member_cdf(cfg.max_members)

    attempts = rejected = 0
    for i in range(cfg.n_lines):
        for _ in range(_PLACEMENT_ATTEMPTS):
            attempts += 1
            bundled = lines and rng.random() < cfg.operator_reuse_clustering
            if bundled:
                parent = lines[int(rng.integers(len(lines)))]
                radius = cfg.min_separation + rng.uniform(0.0, 20.0)
                angle = rng.uniform(0.0, 2.0 * math.pi)
                sx = parent.start[0] + radius * math.cos(angle)
                sy = parent.start[1] + radius * math.sin(angle)
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
                rejected += 1
                continue

            ts, swings = _chain_draws(rng)
            n_members = 1 + bisect_right(member_cdf, rng.random())
            junction_idx = _pick_junctions(rng, len(ts) + 2, n_members)
            key_points = _key_points(_chain(sx, sy, ex, ey, ts, swings), junction_idx)
            if grid.too_close(key_points, separation):
                rejected += 1
                continue

            grid.add(key_points)
            lines.append(_Line(
                desc_id=f"D{i:05d}", op_id=f"OP{i:05d}",
                operator_idx=operator_idx, location_id=location_id,
                start=(sx, sy), end=(ex, ey), ts=ts, swings=swings,
                junction_idx=junction_idx, length_m=length, direction=direction,
            ))
            break
        else:
            raise InfeasiblePacking(
                f"could not place line {i} after {_PLACEMENT_ATTEMPTS} attempts"
            )
    _snap(lines, params)
    return lines, (attempts, rejected)


def _separation_radius(cfg) -> float:
    """The distance an attempt's unsnapped key points must keep from those
    placed: min_separation plus the snap slack, which grows for configs whose
    chains can be shorter than _SLACK_MIN_LENGTH. A min_separation of 0
    accepts every attempt."""
    if cfg.min_separation == 0.0:
        return 0.0
    return cfg.min_separation + _SNAP_SLACK * max(1.0, _SLACK_MIN_LENGTH / cfg.length_range[0])


def _snap(lines: list[_Line], params) -> None:
    """Set each line's written degrees, its ends rounded to 12 decimals, and
    its chain between those degrees projected back, so files and chains
    agree to the last bit. One unproject and one project serve every line."""
    ends = np.array([line.start + line.end for line in lines]).reshape(-1, 2)
    lat, lon = unproject(ends[:, 0], ends[:, 1], params)
    lat, lon = _round_geo(lat), _round_geo(lon)
    x, y = (v.tolist() for v in project(lat, lon, params))
    for k, line in enumerate(lines):
        line.start_geo, line.end_geo = (lat[2 * k], lon[2 * k]), (lat[2 * k + 1], lon[2 * k + 1])
        line.vertices = _chain(x[2 * k], y[2 * k], x[2 * k + 1], y[2 * k + 1], line.ts, line.swings)


def _member_cdf(max_members: int) -> list[float]:
    """The cumulative sum that Generator.choice(p=) bisects with one uniform
    draw, so 1 + bisect_right(cdf, rng.random()) is its member-count draw."""
    cdf = np.cumsum(_MEMBER_PROBS[min(max_members, 3)])
    cdf /= cdf[-1]
    return cdf.tolist()


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


def _write_operational(path, cfg, lines, rng, params) -> None:
    from .ingest import OPERATIONAL_HEADER

    construction_window = (datetime.date(1975, 1, 1), datetime.date(2020, 12, 31))
    window_days = (construction_window[1] - construction_window[0]).days

    # Each line draws its jitter, then its attributes; the jittered ends of
    # every line are unprojected afterwards, in one call.
    jittered, rows = [], []
    for line in lines:
        (x0, y0), (x1, y1) = line.vertices[0], line.vertices[-1]
        if cfg.endpoint_jitter_sigma > 0.0:
            jx, jy = _truncated_normal(rng, cfg.endpoint_jitter_sigma, size=2)
            kx, ky = _truncated_normal(rng, cfg.endpoint_jitter_sigma, size=2)
            jittered.append((x0 + jx, y0 + jy, x1 + kx, y1 + ky))
        length_m = sum(
            math.hypot(xb - xa, yb - ya)
            for (xa, ya), (xb, yb) in zip(line.vertices, line.vertices[1:])
        )
        construction = construction_window[0] + datetime.timedelta(
            days=int(rng.integers(window_days))
        )
        rows.append([
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
        ])
    if jittered:
        xy = np.array(jittered).reshape(-1, 2)
        lat, lon = (_round_geo(v) for v in unproject(xy[:, 0], xy[:, 1], params))
        geo = [(lat[k], lon[k], lat[k + 1], lon[k + 1]) for k in range(0, len(lat), 2)]
    else:
        # Unjittered ends are the snapped ones, whose degrees are known.
        geo = [line.start_geo + line.end_geo for line in lines]
    write_csv(path, OPERATIONAL_HEADER,
              (row + [f"{v:.12f}" for v in degrees] for row, degrees in zip(rows, geo)))


def _write_spills(path, spills: list[_Spill], params: ProjectionParams) -> None:
    from .ingest import SPILL_HEADER

    xy = np.array([spill.xy for spill in spills]).reshape(-1, 2)
    lat, lon = (_round_geo(v) for v in unproject(xy[:, 0], xy[:, 1], params))
    write_csv(path, SPILL_HEADER, (
        [spill.spill_id, spill.operator_name, f"{la:.12f}", f"{lo:.12f}",
         spill.root_cause, spill.report_date.isoformat()]
        for spill, la, lo in zip(spills, lat, lon)
    ))


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
