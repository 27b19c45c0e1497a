"""Training loop, ensemble scoring, the checkpoint container and
scores files.

Training repeats (sample stratified batch, objective + gradients,
RMSprop step) for a fixed schedule. A :class:`Scorer` pairs each
instance with randomly drawn partners from the anomaly pool A and the
unlabeled pool U and averages the pair scores; the instance sits on the
right of anomaly partners and on the left of unlabeled partners. A
checkpoint file is one saved :class:`Scorer`. Scores files go through
the one CSV reader and writer of :mod:`prenet.dataset`.

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

import base64
import json
import math
import time
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .dataset import WeakSupervisionSplit, apply_standardization, load_feature_csv, write_csv
from .errors import CheckpointError, NumericError, SchemaError
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
from .pairgen import OrdinalLabels, sample_instance_batch, sample_pair_batch


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


@dataclass(frozen=True, eq=False)
class Scorer:
    """A trained model with all that scoring new rows needs, and what a
    checkpoint holds: the A and U partner pools (standardized, if the
    model is) and the standardization map for raw rows, if any. The
    arrays are shared, not copied, and the pools are not scanned (the
    checkpoint loader checks them). A pairwise model needs both pools;
    the one-stream variant reads neither."""

    model: Model
    anomaly_pool: np.ndarray | None = None
    unlabeled_pool: np.ndarray | None = None
    mean: np.ndarray | None = None
    scale: np.ndarray | None = None

    def __post_init__(self):
        cfg = self.model.config
        if cfg.is_pairwise and (self.anomaly_pool is None or self.unlabeled_pool is None):
            raise ValueError(f"variant {cfg.variant!r} scores pairs and needs both partner pools")

    def score(self, x: np.ndarray, ensemble_size: int, rng: np.random.Generator) -> np.ndarray:
        """Ensemble score per row of ``x``, standardized first if the scorer
        has a map, with ``ensemble_size`` partners per side drawn from the
        pools. The one-stream variant scores each row directly (the mean of
        identical evaluations), so it draws nothing and reads no pool."""
        if ensemble_size < 1:
            raise ValueError(f"ensemble_size must be >= 1, got {ensemble_size}")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if self.mean is not None:
            x = apply_standardization(x, self.mean, self.scale)
        if not self.model.config.is_pairwise:
            return forward(self.model, x, [np.arange(len(x))])[0]
        pools = self.anomaly_pool, self.unlabeled_pool
        a_pos, u_pos = draw_partner_indices(*map(len, pools), len(x), ensemble_size, rng)
        return score_with_partners(self.model, x, *pools, a_pos, u_pos)


def score_dataset(
    model: Model,
    x: np.ndarray,
    split: WeakSupervisionSplit,
    ensemble_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """:meth:`Scorer.score` with the split's A and U and no standardization map."""
    return Scorer(model, split.a_features, split.u_features).score(x, ensemble_size, rng)


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


# -- checkpoint container ---------------------------------------------------

_CHECKPOINT_FORMAT = "prenet-checkpoint"
_CHECKPOINT_VERSION = 1


def _encode_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype="<f8")
    return {
        "shape": list(a.shape),
        "dtype": "<f8",
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def _decode_array(d: dict) -> np.ndarray:
    raw = np.frombuffer(base64.b64decode(d["data"]), dtype=d["dtype"])
    return raw.reshape(d["shape"]).astype(np.float64)


def _encode_arrays(**arrays) -> dict | None:
    """The named arrays encoded, or None for a scorer that has none."""
    if next(iter(arrays.values())) is None:
        return None
    return {name: _encode_array(a) for name, a in arrays.items()}


def save_checkpoint(path, scorer: Scorer) -> None:
    """Write a scorer as a self-describing JSON checkpoint.

    Arrays are stored as base64-encoded little-endian float64 bytes, so
    save -> load round-trips bit-exactly and repeated saves of the same
    scorer are byte-identical. The standardization map and the A/U
    pools are embedded when the scorer has them, so a checkpoint alone
    suffices to score new data.
    """
    cfg, params = scorer.model.config, scorer.model.params
    doc = {
        "format": _CHECKPOINT_FORMAT,
        "version": _CHECKPOINT_VERSION,
        "variant": cfg.variant,
        "input_dim": cfg.input_dim,
        "hidden_dims": list(cfg.hidden_dims),
        "l2_lambda": cfg.l2_lambda,
        "labels": [cfg.labels.aa, cfg.labels.au, cfg.labels.uu],
        "standardization": _encode_arrays(mean=scorer.mean, scale=scorer.scale),
        "pools": _encode_arrays(anomaly=scorer.anomaly_pool, unlabeled=scorer.unlabeled_pool),
        "params": {
            "hidden_weights": [_encode_array(w) for w in params.hidden_weights],
            "hidden_biases": [_encode_array(b) for b in params.hidden_biases],
            "output_weights": _encode_array(params.output_weights),
            "output_bias": params.output_bias,
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_checkpoint(path) -> Scorer:
    """Read a checkpoint back into the :class:`Scorer` it was saved from.

    Raises :class:`CheckpointError` for a file that is not valid JSON,
    lacks an entry, has another format or version, holds non-finite
    parameters, an empty or non-finite pool, or a non-finite mean or a
    non-finite or non-positive scale, holds arrays whose shapes
    disagree with ``input_dim``/``hidden_dims``, or holds a pairwise
    variant without pools.
    """
    with open(path) as fh:
        try:
            return _from_document(json.load(fh))
        except KeyError as exc:
            detail = f"no {exc} entry"
        except (TypeError, ValueError) as exc:
            detail = str(exc)
    raise CheckpointError(f"{path}: malformed checkpoint: {detail}")


def _expect_shape(name: str, a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if a.shape != shape:
        raise CheckpointError(f"{name} has shape {a.shape}, the config implies {shape}")
    return a


def _from_document(doc) -> Scorer:
    if not isinstance(doc, dict) or doc.get("format") != _CHECKPOINT_FORMAT:
        raise CheckpointError(f"not a {_CHECKPOINT_FORMAT} file")
    if doc.get("version") != _CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported version {doc.get('version')!r}, expected {_CHECKPOINT_VERSION}"
        )
    cfg = ModelConfig(
        variant=doc["variant"],
        input_dim=doc["input_dim"],
        hidden_dims=tuple(doc["hidden_dims"]),
        l2_lambda=doc["l2_lambda"],
        labels=OrdinalLabels(*doc["labels"]),
    )
    dims = (cfg.input_dim, *cfg.hidden_dims)
    pd = doc["params"]
    n_layers = len(cfg.hidden_dims)
    if len(pd["hidden_weights"]) != n_layers or len(pd["hidden_biases"]) != n_layers:
        raise CheckpointError(f"layer count differs from hidden_dims {cfg.hidden_dims}")
    params = PReNetParams(
        [
            _expect_shape(f"hidden weight {i}", _decode_array(w), (dims[i], dims[i + 1]))
            for i, w in enumerate(pd["hidden_weights"])
        ],
        [
            _expect_shape(f"hidden bias {i}", _decode_array(b), (dims[i + 1],))
            for i, b in enumerate(pd["hidden_biases"])
        ],
        _expect_shape("output weights", _decode_array(pd["output_weights"]), (cfg.head_dim,)),
        float(pd["output_bias"]),
    )
    if not np.isfinite(params.vector).all():
        raise CheckpointError("parameters contain NaN or Inf")
    mean = scale = None
    if doc.get("standardization"):
        mean, scale = (
            _expect_shape(
                f"standardization {key}",
                _decode_array(doc["standardization"][key]),
                (cfg.input_dim,),
            )
            for key in ("mean", "scale")
        )
        if not (np.isfinite(mean).all() and np.isfinite(scale).all() and (scale > 0).all()):
            raise CheckpointError("standardization needs a finite mean and a finite scale > 0")
    pools = [None, None]
    if doc.get("pools"):
        for i, key in enumerate(("anomaly", "unlabeled")):
            pool = _decode_array(doc["pools"][key])
            pools[i] = _expect_shape(f"{key} pool", pool, (len(pool), cfg.input_dim))
            if len(pool) == 0 or not np.isfinite(pool).all():
                raise CheckpointError(f"{key} pool is empty or holds NaN or Inf")
    return Scorer(Model(cfg, params), *pools, mean, scale)
