"""Training loop and ensemble scoring.

Training repeats (sample stratified batch, objective + gradients,
RMSprop step) for a fixed schedule. Scoring pairs each instance with
randomly drawn partners from the anomaly pool A and the unlabeled pool
U and averages the pair scores; the instance sits on the right of
anomaly partners and on the left of unlabeled partners.

Scoring is factored. The head is linear in the concatenated features,
so a pair score is ``c_l(left) + c_r(right) + b`` with
``c_l = f(.)·w_l`` and ``c_r = f(.)·w_r``. The shared stack f runs
once on the stacked rows ``[x; A rows; U rows]``, one head product
gives both columns ``c_l`` and ``c_r``, and the pair scores are
gathered from them. For n instances and ensemble size E, each pool
contributes all of its rows when it has at most n·E rows, and only its
n·E drawn rows otherwise; the choice follows from shapes alone. So at
most ``n + min(|A|, n·E) + min(|U|, n·E)`` rows go through the stack,
instead of ``4·n·E``. Every matmul output entry is computed on its own
in ascending k, and the elementwise steps are per row, so the scores
are byte-identical to scoring each pair with
:func:`prenet.model.forward`.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from .dataset import WeakSupervisionSplit
from .errors import NumericError, SchemaError
from .model import (
    Model,
    ModelConfig,
    OptimizerState,
    build_variant,
    features,
    forward,
    head_matrix,
    objective_and_gradients,
    rmsprop_step,
)
from .ndcore import make_rng, matmul
from .pairgen import sample_instance_batch, sample_pair_batch


@dataclass
class TrainConfig:
    model: ModelConfig
    n_epochs: int = 50
    n_batches_per_epoch: int = 20
    batch_size: int = 512
    learning_rate: float = 0.001
    rmsprop_rho: float = 0.9
    rmsprop_eps: float = 1e-7
    ensemble_size: int = 30
    seed: int = 0

    def __post_init__(self):
        if min(self.n_epochs, self.n_batches_per_epoch, self.batch_size) < 1:
            raise ValueError("epochs, batches per epoch and batch size must be positive")
        if self.ensemble_size < 1:
            raise ValueError(f"ensemble_size must be >= 1, got {self.ensemble_size}")
        divisor = 4 if self.model.is_pairwise else 2
        if self.batch_size % divisor:
            raise ValueError(
                f"batch_size must be divisible by {divisor} for variant "
                f"{self.model.variant!r}, got {self.batch_size}"
            )


@dataclass
class TrainReport:
    objective_trace: list[float]
    seed: int
    wall_seconds: float
    n_epochs: int
    n_batches_per_epoch: int

    def epoch_means(self) -> list[float]:
        per = self.n_batches_per_epoch
        return [
            float(np.mean(self.objective_trace[i * per : (i + 1) * per]))
            for i in range(self.n_epochs)
        ]


def train(
    split: WeakSupervisionSplit,
    cfg: TrainConfig,
    rng: np.random.Generator | None = None,
) -> tuple[Model, TrainReport]:
    """Train a freshly initialized variant on the split.

    Deterministic given ``cfg.seed`` (or the state of an explicitly
    passed generator). Only the feature store and the A/U index lists
    are read; test data riding on the split is never touched.
    """
    if cfg.model.input_dim != split.dim:
        raise ValueError(
            f"model input_dim {cfg.model.input_dim} != data dim {split.dim}"
        )
    if rng is None:
        rng = make_rng(cfg.seed)
    started = time.perf_counter()
    model = build_variant(cfg.model, rng)
    state = OptimizerState.for_params(
        model.params, cfg.learning_rate, cfg.rmsprop_rho, cfg.rmsprop_eps
    )
    sample = sample_pair_batch if cfg.model.is_pairwise else sample_instance_batch
    trace: list[float] = []
    for _ in range(cfg.n_epochs):
        for _ in range(cfg.n_batches_per_epoch):
            batch = sample(split, cfg.batch_size, cfg.model.labels, rng)
            objective, grads = objective_and_gradients(model, batch)
            rmsprop_step(model.params, grads, state)
            if not model.params.all_finite():
                raise NumericError(
                    f"non-finite parameters after step {len(trace) + 1}"
                )
            trace.append(objective)
    report = TrainReport(
        objective_trace=trace,
        seed=cfg.seed,
        wall_seconds=time.perf_counter() - started,
        n_epochs=cfg.n_epochs,
        n_batches_per_epoch=cfg.n_batches_per_epoch,
    )
    return model, report


def draw_partner_indices(
    n_anomaly: int,
    n_unlabeled: int,
    n_rows: int,
    ensemble_size: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-draw scoring partners for n_rows instances, in row order.

    Returns positions into the anomaly and unlabeled pools (each
    ``n_rows x ensemble_size``), uniform with replacement. Pre-drawing
    makes per-row scores independent of evaluation order, so rows may
    be scored in parallel or in any order once the draw is fixed.
    """
    if n_anomaly < 1 or n_unlabeled < 1:
        raise ValueError("both A and U must be nonempty for scoring")
    if ensemble_size < 1:
        raise ValueError(f"ensemble_size must be >= 1, got {ensemble_size}")
    a_pos = rng.integers(0, n_anomaly, size=(n_rows, ensemble_size))
    u_pos = rng.integers(0, n_unlabeled, size=(n_rows, ensemble_size))
    return a_pos, u_pos


def _stack_rows(pool: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``pool`` to run through the stack, and the position of
    each draw among them: the whole pool unless it has more rows than
    there are draws, in which case only the drawn rows."""
    if len(pool) <= pos.size:
        return pool, pos
    return pool[pos.ravel()], np.arange(pos.size).reshape(pos.shape)


def score_with_partners(
    model: Model,
    x: np.ndarray,
    anomaly_pool: np.ndarray,
    unlabeled_pool: np.ndarray,
    a_pos: np.ndarray,
    u_pos: np.ndarray,
) -> np.ndarray:
    """Ensemble scores of the rows of ``x`` with fixed partner draws:
    ``a_pos``/``u_pos`` index the rows of ``anomaly_pool``/``unlabeled_pool``."""
    if not model.config.is_pairwise:
        raise ValueError(f"variant {model.config.variant!r} does not score pairs")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n, e = a_pos.shape
    if x.shape[0] != n or u_pos.shape != a_pos.shape:
        raise ValueError(
            f"partner draws of shapes {a_pos.shape} and {u_pos.shape} "
            f"for {x.shape[0]} instances"
        )
    p = model.params
    a_rows, a_at = _stack_rows(anomaly_pool, a_pos)
    u_rows, u_at = _stack_rows(unlabeled_pool, u_pos)
    z = features(p, np.concatenate([x, a_rows, u_rows]))
    c_l, c_r = matmul(z, head_matrix(model)).T
    s_a = (c_l[n:][a_at] + c_r[:n, None]) + p.output_bias
    s_u = (c_l[:n, None] + c_r[n + len(a_rows) :][u_at]) + p.output_bias
    return (s_a.sum(axis=1) + s_u.sum(axis=1)) / (2.0 * e)


def score_dataset(
    model: Model,
    x: np.ndarray,
    split: WeakSupervisionSplit,
    ensemble_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Ensemble score per row of ``x``, with partners from the split's A and U.

    The one-stream variant evaluates each instance directly (its score
    is the mean of identical single-instance evaluations, so no partner
    randomness is consumed).
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if not model.config.is_pairwise:
        return forward(model, (x,))[0]
    a_pos, u_pos = draw_partner_indices(
        split.n_labeled, split.n_unlabeled, x.shape[0], ensemble_size, rng
    )
    return score_with_partners(model, x, split.a_features, split.u_features, a_pos, u_pos)


def write_scores_csv(path, scores: np.ndarray, true_labels: np.ndarray | None = None) -> None:
    """Write ``row_index,score[,true_label]`` with full float precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if true_labels is None:
            writer.writerow(["row_index", "score"])
            for i, s in enumerate(scores):
                writer.writerow([i, repr(float(s))])
        else:
            writer.writerow(["row_index", "score", "true_label"])
            for i, (s, y) in enumerate(zip(scores, true_labels)):
                writer.writerow([i, repr(float(s)), int(y)])


def read_scores_csv(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read a scores CSV; returns (scores, labels or None). Raises
    :class:`SchemaError` for a row without a finite score, or with a
    true label other than 0 or 1."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty scores file") from None
        has_labels = "true_label" in header
        scores, labels = [], []
        for row_no, record in enumerate(reader, start=2):
            if not record:
                continue
            try:
                score = float(record[1])
                label = float(record[2]) if has_labels else 0.0
                ok = math.isfinite(score) and label in (0.0, 1.0)
            except (IndexError, ValueError):
                ok = False
            if not ok:
                raise SchemaError(
                    f"{path}: malformed scores row {row_no} (a finite score and a "
                    f"0/1 label expected): {record!r}"
                )
            scores.append(score)
            labels.append(int(label))
    return np.asarray(scores), (np.asarray(labels) if has_labels else None)
