"""Training loop, ensemble scoring and scores files.

Training repeats (sample stratified batch, objective + gradients,
RMSprop step) for a fixed schedule. Scoring pairs each instance with
randomly drawn partners from the anomaly pool A and the unlabeled pool
U and averages the pair scores; the instance sits on the right of
anomaly partners and on the left of unlabeled partners. Scores files
go through the one CSV reader and writer of :mod:`prenet.dataset`.

Scoring is factored. The head is linear in the concatenated features,
so a pair score is ``c_l(left) + c_r(right) + b`` with
``c_l = f(.)·w_l`` and ``c_r = f(.)·w_r``. For n instances and ensemble
size E, one rule decided per call from shapes alone picks the rows to
stack: a pool with at most n·E rows is stacked whole, a larger pool its
n·E drawn rows in draw order. The shared stack f runs once per row of
``[x; A part; U part]``, so ``n + min(|A|, n·E) + min(|U|, n·E)`` rows
instead of ``4·n·E``, in passes of 2048 rows that may span parts, and
one head product per pass gives both columns. The pair scores are then
gathered and summed per block of 2048 rows of x. A call's transient
memory is its draws, its drawn rows, the two head columns and one pass
or block: 7.3 MB for 20 000 rows at E = 30 against pools of 30 and 1633
rows. Every matmul output entry is computed on its own in ascending k,
and the elementwise steps are per row, so the scores are byte-identical
to scoring each pair with :func:`prenet.model.forward`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .dataset import WeakSupervisionSplit, load_feature_csv, write_csv
from .errors import NumericError, SchemaError
from .model import (
    Model,
    ModelConfig,
    OptimizerState,
    PReNetParams,
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
    seed: int = 0

    def __post_init__(self):
        if min(self.n_epochs, self.n_batches_per_epoch, self.batch_size) < 1:
            raise ValueError("epochs, batches per epoch and batch size must be positive")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
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
    passed generator). Only the feature store and its U/A boundary
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
    state = OptimizerState.for_params(model.params, cfg.learning_rate)
    sample = sample_pair_batch if cfg.model.is_pairwise else sample_instance_batch
    trace: list[float] = []
    for _ in range(cfg.n_epochs):
        for _ in range(cfg.n_batches_per_epoch):
            objective, grads = objective_and_gradients(model, sample(split, cfg.batch_size, rng))
            if not math.isfinite(objective):
                raise NumericError(f"non-finite objective at step {len(trace) + 1}")
            rmsprop_step(model.params, grads, state)
            if not np.isfinite(model.params.vector).all():
                raise NumericError(f"non-finite parameters after step {len(trace) + 1}")
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


# Rows per stack pass and per block of x gathered and summed in
# score_with_partners, so a pass's activations and a block's (rows, E)
# pair-score arrays stay small however many rows a call scores.
_SCORE_BLOCK_ROWS = 2048


def _head_product(params: PReNetParams, head: np.ndarray, parts: list[np.ndarray]) -> np.ndarray:
    """``f(rows)·head`` for the rows of ``parts`` stacked in order, run
    through the stack in passes of ``_SCORE_BLOCK_ROWS`` rows; a pass
    may span part boundaries, and takes its rows as slices of the parts."""
    starts = list(accumulate(map(len, parts), initial=0))
    out = np.empty((starts[-1], head.shape[1]))
    for r0 in range(0, starts[-1], _SCORE_BLOCK_ROWS):
        r1 = r0 + _SCORE_BLOCK_ROWS
        rows = np.concatenate(
            [part[max(r0 - s, 0) : max(r1 - s, 0)] for part, s in zip(parts, starts)]
        )
        out[r0:r1] = matmul(features(params, rows), head)
    return out


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
    # a pool with more rows than draws stacks its drawn rows in draw order
    if len(anomaly_pool) > a_pos.size:
        anomaly_pool, a_pos = anomaly_pool[a_pos.ravel()], np.arange(n * e).reshape(n, e)
    if len(unlabeled_pool) > u_pos.size:
        unlabeled_pool, u_pos = unlabeled_pool[u_pos.ravel()], np.arange(n * e).reshape(n, e)
    b = model.params.output_bias
    c = _head_product(model.params, head_matrix(model), [x, anomaly_pool, unlabeled_pool])
    c_l, c_r = c[:n].T
    c_a = c[n : n + len(anomaly_pool), 0]
    c_u = c[n + len(anomaly_pool) :, 1]
    scores = np.empty(n)
    for r0 in range(0, n, _SCORE_BLOCK_ROWS):
        blk = slice(r0, r0 + _SCORE_BLOCK_ROWS)
        s_a = (c_a[a_pos[blk]] + c_r[blk, None]) + b
        s_u = (c_l[blk, None] + c_u[u_pos[blk]]) + b
        scores[blk] = (s_a.sum(axis=1) + s_u.sum(axis=1)) / (2.0 * e)
    return scores


def score_rows(
    model: Model,
    x: np.ndarray,
    anomaly_pool: np.ndarray,
    unlabeled_pool: np.ndarray,
    ensemble_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Ensemble score per row of ``x``, with ``ensemble_size`` partners
    per side drawn from the anomaly and unlabeled pools.

    The one-stream variant evaluates each instance directly (its score
    is the mean of identical single-instance evaluations, so no partner
    randomness is consumed and the pools are not read).
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if ensemble_size < 1:
        raise ValueError(f"ensemble_size must be >= 1, got {ensemble_size}")
    if not model.config.is_pairwise:
        return forward(model, x, [np.arange(len(x))])[0]
    a_pos, u_pos = draw_partner_indices(
        len(anomaly_pool), len(unlabeled_pool), x.shape[0], ensemble_size, rng
    )
    return score_with_partners(model, x, anomaly_pool, unlabeled_pool, a_pos, u_pos)


def score_dataset(
    model: Model,
    x: np.ndarray,
    split: WeakSupervisionSplit,
    ensemble_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """:func:`score_rows` with partners from the split's A and U."""
    return score_rows(model, x, split.a_features, split.u_features, ensemble_size, rng)


def write_scores_csv(path, scores: np.ndarray, true_labels: np.ndarray | None = None) -> None:
    """Write ``row_index,score[,true_label]`` with full float precision."""
    columns = [range(len(scores)), map(repr, np.asarray(scores, dtype=np.float64).tolist())]
    if true_labels is not None:
        columns.append(map(int, true_labels))
    write_csv(path, ["row_index", "score", "true_label"][: len(columns)], zip(*columns))


def read_scores_csv(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read a scores CSV by the dataset-CSV rules of :func:`load_feature_csv`,
    ``true_label`` being the label column; returns (scores, labels or None).
    Raises :class:`SchemaError` also for a header without ``score``."""
    values, labels, names = load_feature_csv(path, "true_label")
    if "score" not in names:
        raise SchemaError(f"{path}: scores header has no 'score' column, only {names!r}")
    return np.ascontiguousarray(values[:, names.index("score")]), labels
