"""Weakly-supervised anomaly detection by ordinal regression over
random instance pairs, with a two-stream shared-weight scorer and
ensemble pair scoring."""

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
from .engine import (
    TrainConfig,
    TrainReport,
    score_dataset,
    train,
)
from .harness import (
    ExperimentSpec,
    SyntheticSpec,
    generate_synthetic,
    run_experiment,
    run_grid,
)
from .metrics import (
    AggregateReport,
    MetricsReport,
    aggregate_runs,
    auc_pr,
    auc_roc,
    evaluate,
)
from .model import (
    Model,
    ModelConfig,
    OptimizerState,
    PReNetParams,
    VARIANTS,
    build_variant,
    forward,
    load_checkpoint,
    rmsprop_step,
    save_checkpoint,
)
from .ndcore import finite_diff_grad, glorot_uniform, make_rng, matmul, relu
from .pairgen import (
    Batch,
    OrdinalLabels,
    PairClass,
    expected_scores,
    expected_true_relation_proportions,
    mislabel_fraction,
    sample_instance_batch,
    sample_pair_batch,
)

__all__ = [name for name in dir() if not name.startswith("_")]
