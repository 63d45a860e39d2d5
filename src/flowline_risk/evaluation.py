"""Classification metrics, silhouette analysis, and risk frequency tables.

Every ratio with a zero denominator evaluates to 0 and raises a visible
flag instead of being dropped: on data this imbalanced, an undefined
precision or recall is the finding, not a nuisance.
"""

from __future__ import annotations

import datetime
import time
from dataclasses import dataclass

import numpy as np

from .matcher import MergedFlowlines
from .ml.kmeans import KMeansModel, fit_kmeans
from .workers import map_jobs

AVERAGING_MODES = ("positive-class", "macro", "weighted")

SINGLE_CLASSIFIER_ORDER = ("LR", "KNN", "SVM")
ENSEMBLE_CLASSIFIER_ORDER = ("GBDT", "ADABOOST", "RF")
REPORT_ORDER = SINGLE_CLASSIFIER_ORDER + ENSEMBLE_CLASSIFIER_ORDER


class LengthMismatch(ValueError):
    pass


class SingleClassTest(ValueError):
    pass


class SingleCluster(ValueError):
    pass


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricRow:
    classifier: str
    averaging: str
    accuracy: float
    precision: float
    recall: float
    f1: float
    undefined: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "classifier": self.classifier,
            "averaging": self.averaging,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "undefined": list(self.undefined),
        }


def confusion(y_true, y_pred) -> ConfusionMatrix:
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    if y_true.shape != y_pred.shape:
        raise LengthMismatch(f"{y_true.shape} vs {y_pred.shape}")
    if not (np.isin(y_true, (0, 1)).all() and np.isin(y_pred, (0, 1)).all()):
        raise ValueError("labels must be 0 or 1")
    return ConfusionMatrix(
        tp=int(np.sum((y_true == 1) & (y_pred == 1))),
        fp=int(np.sum((y_true == 0) & (y_pred == 1))),
        fn=int(np.sum((y_true == 1) & (y_pred == 0))),
        tn=int(np.sum((y_true == 0) & (y_pred == 0))),
    )


def _ratio(num: float, den: float, name: str, undefined: list[str]) -> float:
    if den == 0:
        undefined.append(name)
        return 0.0
    return num / den


def _per_class(cm: ConfusionMatrix, positive: int, undefined: list[str]):
    if positive == 1:
        tp, fp, fn = cm.tp, cm.fp, cm.fn
    else:
        tp, fp, fn = cm.tn, cm.fn, cm.fp
    precision = _ratio(tp, tp + fp, f"precision[{positive}]", undefined)
    recall = _ratio(tp, tp + fn, f"recall[{positive}]", undefined)
    f1 = _ratio(2 * precision * recall, precision + recall, f"f1[{positive}]", undefined)
    return precision, recall, f1


def metric_rows(classifier: str, y_true, y_pred) -> list[MetricRow]:
    """One MetricRow per averaging mode for a single model's predictions."""
    cm = confusion(y_true, y_pred)
    accuracy = (cm.tp + cm.tn) / cm.n

    undefined0: list[str] = []
    undefined1: list[str] = []
    p0, r0, f0 = _per_class(cm, 0, undefined0)
    p1, r1, f1 = _per_class(cm, 1, undefined1)
    both = tuple(undefined0 + undefined1)
    n0 = cm.tn + cm.fp
    n1 = cm.tp + cm.fn
    positive_class, macro, weighted = AVERAGING_MODES
    return [
        MetricRow(classifier, positive_class, accuracy, p1, r1, f1, tuple(undefined1)),
        MetricRow(classifier, macro, accuracy,
                  (p0 + p1) / 2, (r0 + r1) / 2, (f0 + f1) / 2, both),
        MetricRow(classifier, weighted, accuracy,
                  (n0 * p0 + n1 * p1) / cm.n, (n0 * r0 + n1 * r1) / cm.n,
                  (n0 * f0 + n1 * f1) / cm.n, both),
    ]


def metric_table(models: dict, X_test, y_test) -> list[MetricRow]:
    """Rows for every fitted model, single classifiers before ensembles,
    all averaging modes."""
    y_test = np.asarray(y_test, dtype=int)
    if np.unique(y_test).size < 2:
        raise SingleClassTest("test labels contain a single class")
    known = [k for k in REPORT_ORDER if k in models]
    extras = [k for k in models if k not in REPORT_ORDER]
    rows: list[MetricRow] = []
    for kind in known + extras:
        rows.extend(metric_rows(kind, y_test, models[kind].predict(X_test)))
    return rows


# Bytes for one B x n float64 block of the silhouette distances; B follows
# from n, so the working set stays O(n) however many rows there are.
_SILHOUETTE_BLOCK_BYTES = 2 << 20

# Kaufman & Rousseeuw (1990): an average silhouette at or below 0.25 means
# no substantial cluster structure was found.
NO_STRUCTURE_SILHOUETTE = 0.25


def silhouettes(X, assignment_sets) -> list[float]:
    """Mean silhouette score of each assignment of the rows of X.

    Singleton clusters score 0. The distances are walked in blocks of rows:
    each B x n block is computed once, and one product with the stacked
    one-hot indicators of every assignment gives each row's distance sum to
    each cluster of each assignment, so memory is O(B n + n sum(k)).
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    codes, sizes = [], []
    for assignments in assignment_sets:
        labels, code = np.unique(np.asarray(assignments, dtype=int), return_inverse=True)
        if labels.size < 2:
            raise SingleCluster("silhouette needs at least two clusters")
        codes.append(code.reshape(-1))
        sizes.append(np.bincount(codes[-1], minlength=labels.size))
    offsets = np.cumsum([0] + [s.size for s in sizes])
    onehot = np.zeros((n, offsets[-1]))
    for code, offset in zip(codes, offsets):
        onehot[np.arange(n), offset + code] = 1.0

    # Pairwise distances via the Gram identity, one block of rows at a time.
    sq = np.sum(X * X, axis=1)
    sums = np.empty((n, offsets[-1]))
    rows = max(1, _SILHOUETTE_BLOCK_BYTES // (8 * max(n, 1)))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        d2 = sq[lo:hi, None] + sq[None, :] - 2.0 * (X[lo:hi] @ X.T)
        dist = np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)
        dist[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
        sums[lo:hi] = dist @ onehot

    result = []
    for code, size, offset in zip(codes, sizes, offsets):
        own = size[code]
        cluster_sums = sums[:, offset:offset + size.size]
        a = cluster_sums[np.arange(n), code] / np.maximum(own - 1, 1)
        means = cluster_sums / size
        means[np.arange(n), code] = np.inf
        b = means.min(axis=1)
        scores = np.zeros(n)  # singletons keep 0 by convention
        np.divide(b - a, np.maximum(a, b), out=scores, where=own > 1)
        result.append(float(np.mean(scores)))
    return result


def silhouette(X, assignments) -> float:
    """Mean silhouette score over all points; singleton clusters score 0."""
    return silhouettes(X, [assignments])[0]


def structure_found(scores: dict[int, float]) -> bool:
    """Whether any swept k scores above the no-structure threshold."""
    return any(s > NO_STRUCTURE_SILHOUETTE for s in scores.values())


def _timed_kmeans(job):
    """An (X, k, seed) job's k-means model and its fit's seconds."""
    X, k, seed = job
    started = time.perf_counter()
    model = fit_kmeans(X, k, seed=seed)
    return model, time.perf_counter() - started


def silhouette_sweep(
    X, k_range=range(2, 6), seed: int = 0
) -> tuple[int, dict[int, float], dict[int, KMeansModel], dict[int, float]]:
    """Best k, silhouette per k, fitted k-means model per k and seconds per
    fit; ties go to the smaller k. The fits are independent jobs
    (workers.map_jobs), largest k first, since it takes longest."""
    X = np.asarray(X, dtype=float)
    by_size = sorted(k_range, reverse=True)
    fits = dict(zip(by_size, map_jobs(_timed_kmeans, [(X, k, seed) for k in by_size])))
    models = {k: fits[k][0] for k in k_range}
    scores = dict(zip(models, silhouettes(X, [m.assignments for m in models.values()])))
    best_k = max(sorted(scores), key=lambda k: (scores[k], -k))
    return best_k, scores, models, {k: fits[k][1] for k in k_range}


@dataclass(frozen=True)
class FrequencyTable:
    """Counts and overall proportions of risk by one grouping column."""

    name: str
    rows: tuple[tuple[str, int, int, float], ...]  # (label, risk, count, proportion)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "rows": [
                {"label": label, "risk": risk, "count": count, "proportion": prop}
                for label, risk, count, prop in self.rows
            ],
        }


def _label_sort_key(label: str):
    # Numeric-looking labels (diameters, "15-20" age bins) sort by value.
    head = label.split("-")[0]
    try:
        return (0, float(head), label)
    except ValueError:
        return (1, 0.0, label)


def _frequency_table(name: str, labels: list[str], risks: list[int]) -> FrequencyTable:
    total = len(labels)
    counts: dict[tuple[str, int], int] = {}
    order: list[tuple[str, int]] = []
    for label, risk in zip(labels, risks):
        key = (label, risk)
        if key not in counts:
            counts[key] = 0
            order.append(key)
        counts[key] += 1
    order.sort(key=lambda k: (_label_sort_key(k[0]), k[1]))
    rows = tuple((label, risk, counts[(label, risk)], counts[(label, risk)] / total)
                 for label, risk in order)
    return FrequencyTable(name, rows)


def eda_summaries(
    merged: MergedFlowlines,
    risk: np.ndarray,
    reference_date: datetime.date | None = None,
    age_bin_years: int = 5,
) -> dict[str, FrequencyTable]:
    """Risk frequency overall and by age bin, diameter, fluid, material,
    operator number."""
    reference = reference_date or datetime.date.today()
    op = merged.operational
    risks = np.asarray(risk).tolist()
    days = np.datetime64(reference, "D") - np.array(op["construction_date"], dtype="datetime64[D]")
    lo = (days.astype(np.int64) / 365.25 // age_bin_years).astype(np.int64) * age_bin_years

    return {
        "overall": _frequency_table("overall", ["all"] * len(merged), risks),
        "line_age": _frequency_table(
            "line_age", [f"{a}-{a + age_bin_years}" for a in lo.tolist()], risks),
        "diameter": _frequency_table("diameter", [f"{d:g}" for d in op["diameter_in"]], risks),
        "fluid_type": _frequency_table("fluid_type", op["fluid_type"], risks),
        "material": _frequency_table("material", op["material"], risks),
        "operator_number": _frequency_table("operator_number", op["operator_number"], risks),
    }
