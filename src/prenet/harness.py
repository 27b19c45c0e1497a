"""Synthetic fixtures and multi-run experiment orchestration.

One run: stratified 80/20 split -> :func:`fit` on the train side
(weak-supervision world -> optional standardization -> train -> a
:class:`~prenet.engine.Scorer`) -> score the test side -> metrics. Run
i of an experiment uses seed ``base_seed + i``, so any run is
reproducible in isolation; the split construction consumes the seeded
generator first, so every variant sees identical worlds under shared
seeds. A grid (:func:`run_grid`) repeats one experiment per value of
one spec field: the ablation over ``variant``, the sweep over
``contamination``, the data-efficiency curve over ``n_labeled``.
``prenet train`` is the same :func:`fit` on the whole file.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from itertools import repeat
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .dataset import (
    LabeledDataset,
    build_weak_supervision,
    load_csv,
    standardize_split,
    stratified_split,
)
from .engine import Scorer, TrainConfig, TrainReport, train
from .metrics import AggregateReport, MetricsReport, aggregate_runs, evaluate
from .model import VARIANTS, Model, ModelConfig
from .ndcore import make_rng
from .pairgen import OrdinalLabels


@dataclass(frozen=True)
class SyntheticSpec:
    """Two isotropic unit-variance Gaussians: normals at the origin,
    anomalies at distance ``separation`` along the first axis."""

    n_normal: int = 1000
    n_anomaly: int = 50
    dim: int = 2
    separation: float = 6.0
    seed: int = 0

    def __post_init__(self):
        if self.n_normal < 1 or self.n_anomaly < 1 or self.dim < 1:
            raise ValueError("counts and dim must be >= 1")
        if not 0 <= self.separation < np.inf:
            raise ValueError(f"separation must be finite and >= 0, got {self.separation}")


def generate_synthetic(spec: SyntheticSpec) -> LabeledDataset:
    """Sample the two-Gaussian fixture (normals first, then anomalies)."""
    rng = make_rng(spec.seed)
    normals = rng.standard_normal((spec.n_normal, spec.dim))
    anomalies = rng.standard_normal((spec.n_anomaly, spec.dim))
    anomalies[:, 0] += spec.separation
    features = np.concatenate([normals, anomalies])
    labels = np.concatenate(
        [np.zeros(spec.n_normal, dtype=np.int64), np.ones(spec.n_anomaly, dtype=np.int64)]
    )
    return LabeledDataset(features, labels)


@dataclass
class ExperimentSpec:
    """Everything one multi-run experiment needs."""

    source: str | SyntheticSpec
    variant: str = "prenet"
    n_runs: int = 10
    base_seed: int = 0
    n_labeled: int = 60
    contamination: float = 0.02
    train_fraction: float = 0.8
    standardize: bool = True
    label_column: str = "label"
    anomaly_value: str | None = None
    labels: OrdinalLabels = field(default_factory=OrdinalLabels)
    hidden_dims: tuple[int, ...] | None = None
    l2_lambda: float = 0.01
    n_epochs: int = 50
    n_batches_per_epoch: int = 20
    batch_size: int = 512
    learning_rate: float = 0.001
    ensemble_size: int = 30

    def __post_init__(self):
        # range checks that need no data: a bad value fails before any run starts
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.n_runs < 1:
            raise ValueError(f"n_runs must be >= 1, got {self.n_runs}")
        if self.ensemble_size < 1:
            raise ValueError(f"ensemble_size must be >= 1, got {self.ensemble_size}")
        if self.n_labeled < 2:
            raise ValueError(f"n_labeled must be >= 2, got {self.n_labeled}")
        if not 0.0 <= self.contamination < 0.5:
            raise ValueError(f"contamination must be in [0, 0.5), got {self.contamination}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        train_config_for(self, 1, self.base_seed)  # the model and training checks

    def dataset_name(self) -> str:
        if isinstance(self.source, SyntheticSpec):
            return f"synthetic({self.source.n_normal}+{self.source.n_anomaly}d{self.source.dim})"
        return Path(self.source).name


def load_source(spec: ExperimentSpec) -> LabeledDataset:
    if isinstance(spec.source, SyntheticSpec):
        return generate_synthetic(spec.source)
    return load_csv(spec.source, spec.label_column, spec.anomaly_value)


@dataclass
class RunOutput:
    """Full artifacts of one run, for inspection beyond the metrics;
    ``scores`` and ``labels`` are per test row."""

    metrics: MetricsReport
    train_report: TrainReport
    model: Model
    scores: np.ndarray
    labels: np.ndarray


def train_config_for(spec: ExperimentSpec, input_dim: int, seed: int) -> TrainConfig:
    model_cfg = ModelConfig(
        variant=spec.variant,
        input_dim=input_dim,
        hidden_dims=spec.hidden_dims,
        l2_lambda=spec.l2_lambda,
        labels=spec.labels,
    )
    return TrainConfig(
        model=model_cfg,
        n_epochs=spec.n_epochs,
        n_batches_per_epoch=spec.n_batches_per_epoch,
        batch_size=spec.batch_size,
        learning_rate=spec.learning_rate,
        seed=seed,
    )


def fit(
    train_ds: LabeledDataset, spec: ExperimentSpec, seed: int, rng: np.random.Generator
) -> tuple[Scorer, TrainReport]:
    """Build the weak-supervision world of ``train_ds``, z-score it by its
    own statistics when ``spec.standardize`` is set, train on it, and
    return the trained model as a :class:`Scorer` with the world's A and
    U pools and the standardization map."""
    split = build_weak_supervision(train_ds, spec.n_labeled, spec.contamination, rng)
    mean = scale = None
    if spec.standardize:
        split, mean, scale = standardize_split(split)
    model, report = train(split, train_config_for(spec, train_ds.dim, seed), rng=rng)
    return Scorer(model, split.a_features, split.u_features, mean, scale), report


def run_single(ds: LabeledDataset, spec: ExperimentSpec, seed: int) -> RunOutput:
    """One end-to-end run with a single run-owned generator; the test
    rows go to the scorer only."""
    rng = make_rng(seed)
    train_ds, test_ds = stratified_split(ds, spec.train_fraction, rng)
    scorer, report = fit(train_ds, spec, seed, rng)
    scores = scorer.score(test_ds.features, spec.ensemble_size, rng)
    metrics = evaluate(scores, test_ds.labels, seed=seed)
    return RunOutput(metrics, report, scorer.model, scores, test_ds.labels)


def _run_metrics(ds: LabeledDataset, spec: ExperimentSpec, seed: int) -> MetricsReport:
    return run_single(ds, spec, seed).metrics


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> AggregateReport:
    """Aggregate metrics over ``n_runs`` runs seeded base_seed + i.

    With ``jobs > 1`` runs execute in worker processes; each run owns its
    generator via the seed ladder, so results are identical to the
    sequential path.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    ds = load_source(spec)
    seeds = [spec.base_seed + i for i in range(spec.n_runs)]
    workers = min(jobs, spec.n_runs)
    reports: list[MetricsReport] = []
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        run_map = pool.map if workers > 1 else map
        try:
            for report in run_map(_run_metrics, repeat(ds), repeat(spec), seeds):
                reports.append(report)
        except Exception as exc:
            i = len(reports)
            exc.args = (f"run {i} (seed {seeds[i]}): {exc}",)
            raise
    return aggregate_runs(reports)


def run_grid(
    spec: ExperimentSpec, field: str, values: Iterable, jobs: int = 1
) -> dict[object, AggregateReport]:
    """One experiment per value of the spec field ``field``, under shared
    base seeds (hence identical splits: the world is drawn before any
    field-specific randomness). Every value's spec is built, and so
    checked, before the first experiment runs."""
    values = list(values)
    if len(set(values)) != len(values):
        raise ValueError(f"{field} values must be distinct, got {values}")
    specs = {v: replace(spec, **{field: v}) for v in values}
    return {v: run_experiment(s, jobs=jobs) for v, s in specs.items()}


def train_report_json(report: TrainReport) -> dict:
    """Machine-readable training report: every field of the report."""
    return asdict(report)


def experiment_report_json(
    spec: ExperimentSpec, agg: AggregateReport, extra: Mapping | None = None
) -> dict:
    """Machine-readable experiment report."""
    doc = {
        "variant": spec.variant,
        "dataset": spec.dataset_name(),
        "seeds": [spec.base_seed + i for i in range(spec.n_runs)],
        "auc_roc": {
            "mean": agg.auc_roc_mean,
            "std": agg.auc_roc_std,
            "runs": [r.auc_roc for r in agg.runs],
        },
        "auc_pr": {
            "mean": agg.auc_pr_mean,
            "std": agg.auc_pr_std,
            "runs": [r.auc_pr for r in agg.runs],
        },
        "config": {
            "n_labeled": spec.n_labeled,
            "contamination": spec.contamination,
            "train_fraction": spec.train_fraction,
            "standardize": spec.standardize,
            "labels": [spec.labels.aa, spec.labels.au, spec.labels.uu],
            "hidden_dims": list(spec.hidden_dims) if spec.hidden_dims else None,
            "l2_lambda": spec.l2_lambda,
            "n_epochs": spec.n_epochs,
            "n_batches_per_epoch": spec.n_batches_per_epoch,
            "batch_size": spec.batch_size,
            "learning_rate": spec.learning_rate,
            "ensemble_size": spec.ensemble_size,
        },
    }
    if extra:
        doc.update(extra)
    return doc


def grid_report_json(
    spec: ExperimentSpec,
    field: str,
    results: Mapping[object, AggregateReport],
    extra: Mapping | None = None,
) -> dict:
    """Machine-readable grid report: one experiment report per value of
    ``field``, keyed by ``str(value)``, each with the spec the value ran
    under."""
    return {
        "dataset": spec.dataset_name(),
        "field": field,
        **(extra or {}),
        "values": {
            str(v): experiment_report_json(replace(spec, **{field: v}), agg)
            for v, agg in results.items()
        },
    }


def parse_spec_file(path) -> dict[str, str]:
    """Read a flat ``key = value`` experiment file.

    Keys mirror CLI flag names (dashes or underscores); blank lines and
    ``#`` comments are ignored. Values stay strings; the CLI applies
    them as overridable defaults.
    """
    values: dict[str, str] = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values
