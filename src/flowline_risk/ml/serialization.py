"""JSON round trips for fitted models, tagged with the feature schema."""

from __future__ import annotations

import hashlib
import json

from ..fileio import write_json
from .base import Classifier
from .ensembles import AdaBoostClassifier, GBDTClassifier, RandomForestClassifier
from .linear import LinearSVM, LogisticRegressionGD
from .neighbors import KNNClassifier
from .trees import DecisionTreeClassifier

CLASSIFIER_KINDS: dict[str, type] = {
    "LR": LogisticRegressionGD,
    "KNN": KNNClassifier,
    "SVM": LinearSVM,
    "TREE": DecisionTreeClassifier,
    "GBDT": GBDTClassifier,
    "ADABOOST": AdaBoostClassifier,
    "RF": RandomForestClassifier,
}


def schema_hash(column_meta) -> str:
    """Stable digest of the feature columns a model was fitted against."""
    payload = json.dumps(
        [getattr(c, "to_dict", lambda c=c: c)() for c in column_meta],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def model_to_dict(model: Classifier, seed: int | None = None, column_meta=None) -> dict:
    return {
        "kind": model.kind,
        "hyperparameters": model.hyperparameters(),
        "parameters": model.state_dict(),
        "seed": seed,
        "schema_hash": schema_hash(column_meta) if column_meta is not None else None,
    }


def model_from_dict(doc: dict, width: int | None = None) -> Classifier:
    """The model model_to_dict wrote; a state that check_state refuses (for
    one fitted on `width` columns, when given) raises ValueError."""
    kind = doc["kind"]
    if kind not in CLASSIFIER_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    model = CLASSIFIER_KINDS[kind](**doc["hyperparameters"])
    model.load_state(doc["parameters"])
    model.check_state(width)
    model.schema_hash = doc.get("schema_hash")
    return model


def save_model(model: Classifier, path, seed=None, column_meta=None) -> None:
    write_json(path, model_to_dict(model, seed, column_meta))
