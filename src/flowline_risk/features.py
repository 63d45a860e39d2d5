"""Design-matrix assembly from merged flowlines, splitting, and scaling.

Numeric columns come straight from the operational columns of the merged
flowlines plus the derived line age and the three geometry measurements;
nominal attributes expand through one-hot encoding. The spill root cause is
never a predictor: it only exists for positive rows, so admitting it would
leak the label.
"""

from __future__ import annotations

import csv
import datetime
import itertools
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fileio import read_float_rows, write_csv, write_json
from .matcher import MergedFlowlines

log = logging.getLogger(__name__)

NUMERIC_COLUMNS = (
    "diameter_in", "length_ft", "max_op_pressure", "line_age",
    "geom_length_m", "n_lines", "bbox_area_m2",
)
CATEGORICAL_COLUMNS = (
    "operator_number", "flowline_id", "location_id", "status",
    "flowline_action", "location_type", "fluid_type", "material",
)
ID_LIKE_COLUMNS = ("flowline_id", "location_id")


class FutureDate(ValueError):
    pass


class EmptyColumn(ValueError):
    pass


class EmptyInput(ValueError):
    pass


class DegenerateClass(ValueError):
    pass


@dataclass(frozen=True)
class ColumnMeta:
    """Name plus provenance of one design-matrix column."""

    name: str
    kind: str                  # "numeric" or "one-hot"
    source: str | None = None  # one-hot: the categorical column encoded
    category: str | None = None

    def to_dict(self) -> dict:
        d = {"name": self.name, "kind": self.kind}
        if self.kind == "one-hot":
            d["source"] = self.source
            d["category"] = self.category
        return d

    @staticmethod
    def from_dict(d: dict) -> "ColumnMeta":
        return ColumnMeta(d["name"], d["kind"], d.get("source"), d.get("category"))


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    column_meta: list[ColumnMeta]
    row_ids: list[str]

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=int)
        if self.X.shape[0] != len(self.y) or self.X.shape[0] != len(self.row_ids):
            raise ValueError("X, y and row_ids disagree on row count")
        if self.X.shape[1] != len(self.column_meta):
            raise ValueError("X and column_meta disagree on column count")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("design matrix contains non-finite entries")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_cols(self) -> int:
        return self.X.shape[1]

    def column_names(self) -> list[str]:
        return [c.name for c in self.column_meta]


@dataclass
class FeatureConfig:
    drop_id_like: bool = False
    reference_date: datetime.date = field(default_factory=datetime.date.today)
    count_segments: bool = False

    def encoded_columns(self) -> list[str]:
        if self.drop_id_like:
            return [c for c in CATEGORICAL_COLUMNS if c not in ID_LIKE_COLUMNS]
        return list(CATEGORICAL_COLUMNS)


def line_age(construction_date, reference_date: datetime.date):
    """Age in fractional years, day count over 365.25; elementwise over a
    sequence of construction dates (date objects or ISO text)."""
    dates = np.asarray(construction_date, dtype="datetime64[D]")
    days = (np.datetime64(reference_date, "D") - dates).astype(np.int64)
    if np.any(days < 0):
        raise FutureDate(f"construction date {np.max(dates)} is after {reference_date}")
    return days / 365.25


def one_hot(table: dict[str, list[str]], columns: list[str]) -> tuple[np.ndarray, list[ColumnMeta]]:
    """One binary column per category of each column, in order of first appearance."""
    blocks = []
    metas: list[ColumnMeta] = []
    for column in columns:
        values = table[column]
        if not values:
            raise EmptyColumn(column)
        lookup = {c: j for j, c in enumerate(dict.fromkeys(values))}
        block = np.zeros((len(values), len(lookup)))
        block[np.arange(len(values)), [lookup[v] for v in values]] = 1.0
        blocks.append(block)
        metas.extend(ColumnMeta(f"{column}={c}", "one-hot", column, c) for c in lookup)
    if not blocks:
        return np.zeros((0, 0)), []
    return np.hstack(blocks), metas


def assemble(merged: MergedFlowlines, risk: np.ndarray, config: FeatureConfig | None = None) -> Dataset:
    """Numeric design matrix from merged flowlines, and their risk labels as
    the binary target."""
    if not len(merged):
        raise EmptyInput("no merged flowlines to featurize")
    cfg = config or FeatureConfig()

    encoded = cfg.encoded_columns()
    if not cfg.drop_id_like:
        log.warning(
            "one-hot encoding id-like columns %s; near-unique keys blow up the "
            "matrix width and can leak identity, pass drop_id_like=True to omit them",
            list(ID_LIKE_COLUMNS),
        )

    op, geometry = merged.operational, merged.geometry
    numeric = np.column_stack((
        np.array(op["diameter_in"], dtype=float),
        np.array(op["length_ft"], dtype=float),
        np.array(op["max_op_pressure"], dtype=float),
        line_age(op["construction_date"], cfg.reference_date),
        geometry.lengths(),
        geometry.line_counts(cfg.count_segments).astype(float),
        geometry.bbox_areas(),
    ))
    metas = [ColumnMeta(name, "numeric") for name in NUMERIC_COLUMNS]

    hot, hot_metas = one_hot({column: op[column] for column in encoded}, encoded)
    X = np.hstack([numeric, hot])
    metas.extend(hot_metas)
    return Dataset(X, np.asarray(risk, dtype=int), metas, list(op["row_id"]))


def stratified_split(y: np.ndarray, train_fraction: float = 0.7,
                     seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Seeded per-class 70/30 partition of the rows labelled y, with
    largest-remainder rounding, as sorted train and test row positions.

    Every class needs two members, and contributes at least one row to each
    side; with less than one positive per hundred rows, naive rounding could
    otherwise empty the test positives and leave recall undefined. Labels of
    one class, or a class of one row, raise DegenerateClass.
    """
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    y = np.asarray(y)
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) < 2 or counts.min() < 2:
        per_class = ", ".join(f"class {c}: {n}" for c, n in zip(classes.tolist(), counts.tolist()))
        raise DegenerateClass(
            "the train/test split needs at least two rows of each of the two classes; "
            f"the featurized rows have {per_class}")
    count_of = dict(zip(classes.tolist(), counts.tolist()))

    rng = np.random.default_rng(seed)
    total_train = int(round(train_fraction * len(y)))

    # Largest-remainder allocation of the train budget.
    targets = {c: train_fraction * n for c, n in count_of.items()}
    alloc = {c: int(np.floor(t)) for c, t in targets.items()}
    leftover = total_train - sum(alloc.values())
    by_remainder = sorted(count_of, key=lambda c: (-(targets[c] - alloc[c]), c))
    for c in by_remainder[:max(leftover, 0)]:
        alloc[c] += 1
    for c in count_of:
        alloc[c] = min(max(alloc[c], 1), count_of[c] - 1)  # both sides non-empty

    train_rows, test_rows = [], []
    for c in classes:
        members = np.flatnonzero(y == c)
        members = members[rng.permutation(len(members))]
        train_rows.append(members[:alloc[c]])
        test_rows.append(members[alloc[c]:])
    return np.sort(np.concatenate(train_rows)), np.sort(np.concatenate(test_rows))


def standardize(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X z-scored with its own mean and population sd, and those means and
    sds; apply_scaler scales other rows with them.

    Zero-variance columns pass through unscaled with a warning.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[0] == 0:
        raise ValueError("empty training matrix")
    means = X.mean(axis=0)
    sds = X.std(axis=0)
    flat = int(np.sum(sds == 0.0))
    if flat:
        log.warning("%d zero-variance columns left unscaled", flat)
    return apply_scaler(X, means, sds), means, sds


def apply_scaler(X: np.ndarray, means: np.ndarray, sds: np.ndarray) -> np.ndarray:
    """Z-score X with stored means and sds; zero-sd columns are only centered."""
    z = np.asarray(X, dtype=float) - means
    z /= np.where(sds == 0.0, 1.0, sds)  # in place: one n x p temporary, not two
    return z


def save_dataset(ds: Dataset, csv_path, meta_path, seed: int | None = None, extra: dict | None = None) -> None:
    """Write the matrix as CSV plus a JSON sidecar with column provenance.

    The csv module writes each Python float as its repr, which reads back to
    the same bits. Rows become Python floats one at a time, so the matrix is
    never held as Python objects whole."""
    write_csv(csv_path, ["row_id", *ds.column_names(), "risk"], (
        [rid, *row.tolist(), y] for rid, row, y in zip(ds.row_ids, ds.X, ds.y.tolist())
    ))
    sidecar = {
        "columns": [c.to_dict() for c in ds.column_meta],
        "n_rows": ds.n_rows,
        "seed": seed,
    }
    if extra:
        sidecar.update(extra)
    write_json(meta_path, sidecar)


def _float_fields(fh, width: int, row_ids: list[str], labels: list[int]):
    """Each data line of a features CSV read from fh, as the text of its
    float fields, for read_float_rows; the line's row id and label go to
    row_ids and labels. A line without quotes is split at its first and last
    comma; one with quotes (a row id holding a comma, a quote or a line
    break) is read by the csv module, over as many lines as its record spans.
    A record of other than `width` fields, or whose one float field is
    empty, raises ValueError naming its line."""
    line_num = 1  # the header's
    for line in fh:
        line_num += 1
        if '"' in line:
            reader = csv.reader(itertools.chain([line], fh))
            row = next(reader)
            line_num += reader.line_num - 1
            count = len(row)
            if count == width:
                rid, floats, label = row[0], ",".join(row[1:-1]), row[-1]
        else:
            count = line.count(",") + 1 if line.rstrip("\r\n") else 0
            if count == width:
                rid, _, rest = line.partition(",")
                floats, _, label = rest.rpartition(",")
        if count != width:
            raise ValueError(f"line {line_num}: {count} fields, not {width}")
        if width > 2 and not floats.strip():  # read_float_rows would skip it as a blank line
            raise ValueError(f"line {line_num}: an empty float field")
        row_ids.append(rid)
        labels.append(int(label))
        yield floats


def load_dataset(csv_path, sidecar: dict) -> Dataset:
    """The matrix save_dataset wrote, given its CSV and its JSON sidecar as read.

    fileio.read_float_rows parses the floats in C, as Python's float()
    does, from the lines the open file yields, so the file is never held
    whole; each line's row id and label are split off first (_float_fields)."""
    metas = [ColumnMeta.from_dict(d) for d in sidecar["columns"]]
    n_rows = sidecar["n_rows"]
    row_ids: list[str] = []
    ys: list[int] = []
    with open(csv_path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        expected = ["row_id", *[c.name for c in metas], "risk"]
        if header != expected:
            raise ValueError("it is empty" if header is None
                             else "feature CSV header does not match its sidecar")
        lines = _float_fields(fh, len(expected), row_ids, ys)
        X = read_float_rows(lines, n_rows)
        for _ in lines:  # rows past n_rows are checked and counted, not parsed
            pass
    if len(row_ids) != n_rows:
        raise ValueError(f"{Path(csv_path).name} has {len(row_ids)} rows, but its sidecar "
                         f"says {n_rows}")
    return Dataset(X.reshape(n_rows, len(metas)), np.array(ys, dtype=int), metas, row_ids)
