"""Training loop and ensemble scoring.

Training repeats (sample stratified batch, objective + gradients,
RMSprop step) for a fixed schedule. Scoring pairs each instance with
randomly drawn partners from the anomaly pool A and the unlabeled pool
U and averages the pair scores; the instance sits on the right of
anomaly partners and on the left of unlabeled partners.

Scoring is factored. The head is linear in the concatenated features,
so a pair score is ``c_l(left) + c_r(right) + b`` with
``c_l = f(.)·w_l`` and ``c_r = f(.)·w_r``. The shared stack f runs
once per row on the stacked rows ``[x; A rows; U rows]``, one head
product gives both columns ``c_l`` and ``c_r``, and the pair scores are
gathered from them. For n instances and ensemble size E, each pool
runs all of its rows when it has at most n·E rows, and only its n·E
drawn rows otherwise; the choice follows from shapes alone. So at most
``n + min(|A|, n·E) + min(|U|, n·E)`` rows go through the stack,
instead of ``4·n·E``. The rows of x are scored in blocks of 2048, each
block gathering and summing its own pair scores. A pool that runs whole
joins the first block's stack pass; a pool that runs drawn rows adds
each block's own draws to that block's pass. So a call's transient
memory is its partner draws, one block with at most 2048·E drawn rows
per pool, and the stack pass over any pool that runs whole, which grows
with that pool's size but not with n. Every matmul output entry is
computed on its own in ascending k, and the elementwise steps are per
row, so the scores are byte-identical to scoring each pair with
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

    Returns int32 positions into the anomaly and unlabeled pools (each
    ``n_rows x ensemble_size``), uniform with replacement; they equal
    the default int64 draws and consume the generator alike. Pre-drawing
    makes per-row scores independent of evaluation order, so rows may
    be scored in parallel or in any order once the draw is fixed.
    """
    if n_anomaly < 1 or n_unlabeled < 1:
        raise ValueError("both A and U must be nonempty for scoring")
    if ensemble_size < 1:
        raise ValueError(f"ensemble_size must be >= 1, got {ensemble_size}")
    a_pos = rng.integers(0, n_anomaly, size=(n_rows, ensemble_size), dtype=np.int32)
    u_pos = rng.integers(0, n_unlabeled, size=(n_rows, ensemble_size), dtype=np.int32)
    return a_pos, u_pos


# Rows of x gathered and summed per block of score_with_partners: the
# block's (rows, E) pair-score arrays and stack activations stay small,
# so one call's transient memory does not grow with the number of rows.
_SCORE_BLOCK_ROWS = 2048


def _stack_rows(
    pool: np.ndarray, pos: np.ndarray, r0: int, r1: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``pool`` for the stack pass of the block of x rows
    ``r0:r1``, and the position of each of the block's draws among them.
    A pool with no more rows than there are draws runs whole in the
    first block and in no later one; a larger pool runs the block's
    drawn rows only."""
    block = pos[r0:r1]
    if len(pool) > pos.size:
        return pool[block.ravel()], np.arange(block.size).reshape(block.shape)
    return pool[: len(pool) if r0 == 0 else 0], block


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
    head = head_matrix(model)
    scores = np.empty(n)
    for r0 in range(0, n, _SCORE_BLOCK_ROWS):
        r1 = min(r0 + _SCORE_BLOCK_ROWS, n)
        a_rows, a_at = _stack_rows(anomaly_pool, a_pos, r0, r1)
        u_rows, u_at = _stack_rows(unlabeled_pool, u_pos, r0, r1)
        c = matmul(features(p, np.concatenate([x[r0:r1], a_rows, u_rows])), head)
        c_l, c_r = c[: r1 - r0].T
        # a pool that ran whole in the first block keeps its columns
        if r0 == 0 or len(a_rows):
            c_a = c[r1 - r0 : r1 - r0 + len(a_rows), 0]
        if r0 == 0 or len(u_rows):
            c_u = c[r1 - r0 + len(a_rows) :, 1]
        s_a = (c_a[a_at] + c_r[:, None]) + p.output_bias
        s_u = (c_l[:, None] + c_u[u_at]) + p.output_bias
        scores[r0:r1] = (s_a.sum(axis=1) + s_u.sum(axis=1)) / (2.0 * e)
    return scores


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
