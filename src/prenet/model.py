"""Two-stream ordinal regression scorer and its ablation variants.

A shared feature stack maps each pair member to a hidden representation;
a linear head scores the concatenated pair. Variants:

- ``prenet``: ternary targets (aa/au/uu), one hidden layer.
- ``bor``: same network, binary targets (aa and au merged to au).
- ``osnet``: one stream, single instances, targets au (from A) / uu.
- ``ldm``: no hidden layers, linear map on the concatenated raw pair.
- ``a2h``: ternary targets, three hidden layers.

A batch is its distinct store rows plus a ``streams x batch`` array of
slot positions into them, so the stack runs once per distinct row, and
each slot's pair class, which :func:`batch_targets` alone maps to its
regression target.
Gradients are exact analytic subgradients of the batch objective
(mean absolute error plus L2 on weights), summed per row first and then
over the rows in the order :func:`objective_and_gradients` defines.
Parameters, gradients and the RMSprop accumulator are each one
contiguous vector with per-layer views, and RMSprop is one elementwise
rule over it, the output bias included. A trained model is saved and
scored as part of a :class:`prenet.engine.Scorer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .ndcore import glorot_uniform, matmul, relu
from .pairgen import Batch, OrdinalLabels

VARIANTS = ("prenet", "bor", "osnet", "ldm", "a2h")
PAIR_VARIANTS = frozenset({"prenet", "bor", "ldm", "a2h"})

# RMSprop decay of the squared-gradient average, and the denominator's
# guard term (the Keras defaults)
RMSPROP_RHO = 0.9
RMSPROP_EPS = 1e-7


def _default_hidden_dims(variant: str) -> tuple[int, ...]:
    return {"prenet": (20,), "bor": (20,), "osnet": (20,), "ldm": (), "a2h": (20, 20, 20)}[
        variant
    ]


@dataclass(frozen=True)
class ModelConfig:
    variant: str
    input_dim: int
    hidden_dims: tuple[int, ...] | None = None
    l2_lambda: float = 0.01
    labels: OrdinalLabels = field(default_factory=OrdinalLabels)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        dims = self.hidden_dims
        if dims is None:
            dims = _default_hidden_dims(self.variant)
        dims = tuple(int(d) for d in dims)
        expected = len(_default_hidden_dims(self.variant))
        if len(dims) != expected:
            raise ValueError(
                f"variant {self.variant!r} requires exactly {expected} hidden "
                f"layer(s), got dims {dims}"
            )
        if any(d < 1 for d in dims):
            raise ValueError(f"hidden dims must be >= 1, got {dims}")
        if not 0 <= self.l2_lambda < np.inf:
            raise ValueError(f"l2_lambda must be finite and >= 0, got {self.l2_lambda}")
        object.__setattr__(self, "hidden_dims", dims)

    @property
    def is_pairwise(self) -> bool:
        return self.variant in PAIR_VARIANTS

    @property
    def feature_dim(self) -> int:
        """Width of one stream's representation fed to the linear head."""
        return self.hidden_dims[-1] if self.hidden_dims else self.input_dim

    @property
    def head_dim(self) -> int:
        return 2 * self.feature_dim if self.is_pairwise else self.feature_dim


class PReNetParams:
    """All trainable parameters, held in one contiguous float64
    ``vector``: the hidden weights layer by layer (row-major), the hidden
    biases, the output weights, then the output bias.
    ``hidden_weights``, ``hidden_biases`` and ``output_weights`` are
    read-only properties that return views into it, and ``output_bias``
    reads and writes its last entry, so the vector is the only state:
    an update of it updates every layer, and a copy or an unpickled
    model holds no layer array apart from it. The hidden stack is
    stored once and shared by both streams; there is no second copy to
    drift."""

    def __init__(
        self,
        hidden_weights: list[np.ndarray],
        hidden_biases: list[np.ndarray],
        output_weights: np.ndarray,
        output_bias: float,
    ):
        arrays = (*hidden_weights, *hidden_biases, output_weights)
        self.vector = np.concatenate([*map(np.ravel, arrays), [output_bias]], dtype=np.float64)
        self._layout, start = [], 0
        for a in arrays:
            self._layout.append((start, start + np.size(a), np.shape(a)))
            start += np.size(a)
        self._n_layers = len(hidden_weights)

    def _views(self, first: int, stop: int | None) -> list[np.ndarray]:
        return [self.vector[a:b].reshape(shape) for a, b, shape in self._layout[first:stop]]

    @property
    def hidden_weights(self) -> list[np.ndarray]:
        return self._views(0, self._n_layers)

    @property
    def hidden_biases(self) -> list[np.ndarray]:
        return self._views(self._n_layers, -1)

    @property
    def output_weights(self) -> np.ndarray:
        return self._views(-1, None)[0]

    @property
    def output_bias(self) -> float:
        return float(self.vector[-1])

    @output_bias.setter
    def output_bias(self, value: float) -> None:
        self.vector[-1] = value

    def with_vector(self, vector: np.ndarray) -> "PReNetParams":
        """Parameters shaped like these that hold a copy of ``vector``."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != self.vector.shape:
            raise ValueError(f"expected {self.vector.size} entries, got shape {vector.shape}")
        out = PReNetParams(self.hidden_weights, self.hidden_biases, self.output_weights, 0.0)
        out.vector[:] = vector
        return out


@dataclass
class Model:
    config: ModelConfig
    params: PReNetParams


def build_variant(config: ModelConfig, rng: np.random.Generator) -> Model:
    """Initialize a variant: Glorot-uniform weights (hidden stack in
    order, then output head), zero biases."""
    dims = (config.input_dim, *config.hidden_dims)
    hidden_weights = [
        glorot_uniform(dims[i], dims[i + 1], rng) for i in range(len(config.hidden_dims))
    ]
    hidden_biases = [np.zeros(d) for d in config.hidden_dims]
    output_weights = glorot_uniform(config.head_dim, 1, rng).ravel()
    params = PReNetParams(hidden_weights, hidden_biases, output_weights, 0.0)
    return Model(config, params)


def _forward_stack(
    params: PReNetParams, x: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Run the shared stack; returns (activations incl. input, preacts)."""
    acts = [x]
    pres = []
    for w, b in zip(params.hidden_weights, params.hidden_biases):
        pre = matmul(acts[-1], w) + b
        pres.append(pre)
        acts.append(relu(pre))
    return acts, pres


def features(params: PReNetParams, x: np.ndarray) -> np.ndarray:
    """Shared feature map applied to a batch of rows (identity when the
    stack has no hidden layers)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return _forward_stack(params, x)[0][-1]


def head_matrix(model: Model) -> np.ndarray:
    """The linear head as a ``feature_dim x streams`` view of the output
    weights: column s weighs stream s's features."""
    return model.params.output_weights.reshape(-1, model.config.feature_dim).T


def forward(
    model: Model, rows: np.ndarray, positions: np.ndarray
) -> tuple[np.ndarray, tuple[list[np.ndarray], list[np.ndarray]]]:
    """Scores of a batch given as distinct rows and a ``streams x batch``
    array of positions into them: slot i of stream s is row
    ``positions[s, i]``. The pairwise variants take two streams (left,
    right), the one-stream variant one.

    The shared stack runs once per row, and one head product gives every
    row's contribution ``c[r, s] = f(row r)·w_s`` to each stream. The
    score of slot i is ``0.0 + c[positions[0, i], 0] + c[positions[1, i],
    1] + b``, added in that order. Returns the scores and the stack's
    (activations incl. input, preactivations) over the rows.
    """
    head = head_matrix(model)
    positions = np.asarray(positions)
    if len(positions) != head.shape[1]:
        raise ValueError(
            f"variant {model.config.variant!r} takes {head.shape[1]} stream(s), "
            f"got {len(positions)}"
        )
    stack = _forward_stack(model.params, np.atleast_2d(np.asarray(rows, dtype=np.float64)))
    c = matmul(stack[0][-1], head)
    scores = np.zeros(positions.shape[1])
    for s, pos in enumerate(positions):
        scores += c[pos, s]
    scores += model.params.output_bias
    return scores, stack


def batch_targets(config: ModelConfig, batch: Batch) -> np.ndarray:
    """Regression target of each slot of a batch, from its pair class:
    aa/au/uu by class, except that the binary variant merges both
    anomaly-bearing classes down to au. The one-stream variant's slots
    are AU (from A) or UU (from U), so they get au/uu."""
    labels = config.labels
    aa = labels.au if config.variant == "bor" else labels.aa
    return np.array([aa, labels.au, labels.uu])[batch.classes]


def _weight_square_sum(params: PReNetParams) -> float:
    total = 0.0
    for w in params.hidden_weights:
        total += float(np.sum(w * w))
    total += float(np.sum(params.output_weights * params.output_weights))
    return total


def objective_and_gradients(model: Model, batch: Batch) -> tuple[float, PReNetParams]:
    """One forward/backward pass over a batch. The objective is the mean
    absolute error of the scores against :func:`batch_targets` plus
    l2_lambda times the sum of squared weights (biases excluded).
    Returns its value and exact subgradients shaped like the parameters.

    Subgradient conventions: d|r|/dr = 0 at r = 0 and relu' = 0 at 0.

    Gradient order. The stack ran once per distinct row, so the slots
    are first summed per row: ``G[r, s]`` is the net count of
    ``sign(residual)`` over stream s's slots at row r, divided by the
    batch size n. The count is an exact integer, so its order does not
    matter. Every other sum is one :func:`~prenet.ndcore.matmul` over the
    rows, in ascending row order: the head gradient is ``G.T @ F`` (F
    the last activations), the deltas start at ``(G @ head.T) ⊙ relu'``
    and go down ``delta @ W.T ⊙ relu'``, each layer's weight gradient
    is ``X.T @ delta`` and its bias gradient ``ones(1, rows) @ delta``.
    The output bias gradient is ``(Σ sign) / n``. The L2 term ``2·l2·W``
    is added to each weight gradient last.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    cfg = model.config
    p = model.params
    scores, (acts, pres) = forward(model, batch.rows, batch.positions)
    residual = scores - batch_targets(cfg, batch)
    with np.errstate(over="ignore"):  # an overflow reads inf, which train rejects
        mae = float(np.mean(np.abs(residual)))
    objective = mae + cfg.l2_lambda * _weight_square_sum(p)
    sign = np.sign(residual)
    n, n_rows = residual.shape[0], acts[0].shape[0]
    g_rows = np.stack(
        [np.bincount(pos, weights=sign, minlength=n_rows) for pos in batch.positions], axis=1
    ) / n

    lam2 = 2.0 * cfg.l2_lambda
    g_out_w = matmul(g_rows.T, acts[-1]).ravel() + lam2 * p.output_weights
    g_hidden_w, g_hidden_b, weights = [], [], p.hidden_weights
    if weights:
        ones = np.ones((1, n_rows))
        delta = matmul(g_rows, head_matrix(model).T) * (pres[-1] > 0.0)
        for layer in range(len(weights) - 1, -1, -1):
            w = weights[layer]
            g_hidden_w.insert(0, matmul(acts[layer].T, delta) + lam2 * w)
            g_hidden_b.insert(0, matmul(ones, delta).ravel())
            if layer > 0:
                delta = matmul(delta, w.T) * (pres[layer - 1] > 0.0)

    grads = PReNetParams(g_hidden_w, g_hidden_b, g_out_w, float(np.sum(sign) / n))
    return objective, grads


@dataclass
class OptimizerState:
    """RMSprop state: the running average of squared gradients, laid out
    like the parameters."""

    accumulator: PReNetParams
    learning_rate: float = 0.001

    @classmethod
    def for_params(
        cls, params: PReNetParams, learning_rate: float = 0.001
    ) -> "OptimizerState":
        if not 0 < learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {learning_rate}")
        return cls(params.with_vector(np.zeros_like(params.vector)), learning_rate)


def rmsprop_step(
    params: PReNetParams, grads: PReNetParams, state: OptimizerState
) -> None:
    """Apply one RMSprop update in place, one elementwise rule over the
    whole vector, the output bias included:
    acc <- rho*acc + ((1-rho)*g)*g; p <- p - (lr*g) / (sqrt(acc) + eps).
    """
    g = grads.vector
    if not np.isfinite(g).all():
        raise NumericError("non-finite gradient; aborting optimization")
    acc = state.accumulator.vector
    acc *= RMSPROP_RHO
    acc += (1.0 - RMSPROP_RHO) * g * g
    params.vector -= state.learning_rate * g / (np.sqrt(acc) + RMSPROP_EPS)

