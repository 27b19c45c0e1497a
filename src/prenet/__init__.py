"""Weakly-supervised anomaly detection by ordinal regression over
random instance pairs, with a two-stream shared-weight scorer and
ensemble pair scoring.

The package root exports the public API that the README's Python API
section lists, and nothing else; the internals stay importable from
their modules."""

__version__ = "0.1.0"

from .dataset import (
    LabeledDataset,
    WeakSupervisionSplit,
    build_weak_supervision,
    load_csv,
    save_csv,
    standardize_split,
    stratified_split,
)
from .engine import Scorer, TrainConfig, TrainReport, load_checkpoint, save_checkpoint, train
from .harness import (
    ExperimentSpec,
    SyntheticSpec,
    generate_synthetic,
    run_experiment,
    run_grid,
    run_single,
)
from .metrics import AggregateReport, MetricsReport, auc_pr, auc_roc, evaluate
from .model import VARIANTS, Model, ModelConfig
from .ndcore import make_rng, matmul
from .pairgen import OrdinalLabels

__all__ = [
    "ExperimentSpec",
    "SyntheticSpec",
    "generate_synthetic",
    "run_experiment",
    "run_grid",
    "run_single",
    "LabeledDataset",
    "WeakSupervisionSplit",
    "load_csv",
    "save_csv",
    "stratified_split",
    "build_weak_supervision",
    "standardize_split",
    "TrainConfig",
    "TrainReport",
    "train",
    "Scorer",
    "save_checkpoint",
    "load_checkpoint",
    "MetricsReport",
    "AggregateReport",
    "evaluate",
    "auc_roc",
    "auc_pr",
    "ModelConfig",
    "Model",
    "VARIANTS",
    "OrdinalLabels",
    "make_rng",
    "matmul",
]
