"""From-scratch classifiers and clustering behind one train/predict contract."""

from .base import Classifier, KTooLarge, NotFitted, SingleClass
from .ensembles import AdaBoostClassifier, GBDTClassifier, RandomForestClassifier
from .kmeans import KMeansModel, fit_kmeans
from .linear import LinearSVM, LogisticRegressionGD, logistic_loss_and_grad, sigmoid
from .neighbors import KNNClassifier
from .serialization import (
    CLASSIFIER_KINDS,
    model_from_dict,
    model_to_dict,
    save_model,
    schema_hash,
)
from .trees import DecisionTreeClassifier, RegressionTree

__all__ = [
    "AdaBoostClassifier",
    "CLASSIFIER_KINDS",
    "Classifier",
    "DecisionTreeClassifier",
    "GBDTClassifier",
    "KMeansModel",
    "KNNClassifier",
    "KTooLarge",
    "LinearSVM",
    "LogisticRegressionGD",
    "NotFitted",
    "RandomForestClassifier",
    "RegressionTree",
    "SingleClass",
    "fit_kmeans",
    "logistic_loss_and_grad",
    "model_from_dict",
    "model_to_dict",
    "save_model",
    "schema_hash",
    "sigmoid",
]
