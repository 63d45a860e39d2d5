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
from .trees import DecisionTreeClassifier, RegressionTree, best_gini_split, gini_impurity

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
    "best_gini_split",
    "fit_kmeans",
    "gini_impurity",
    "logistic_loss_and_grad",
    "model_from_dict",
    "model_to_dict",
    "save_model",
    "schema_hash",
    "sigmoid",
]
