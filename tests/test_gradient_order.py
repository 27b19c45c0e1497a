"""The training step's summation order, pinned by an independent
reimplementation.

``scalar_objective_and_gradients`` redoes one objective-and-gradient
pass in plain Python floats with explicit loops, following the order
the ``prenet.model`` docstring defines: per-row sign counts over the
batch size, then every product summed over the distinct rows in
ascending order onto 0.0. Its gradients must equal NumPy's byte for
byte. Batches are sampled from a four-row store, so slots share rows,
and a batch of 12 makes ``1/n`` round. The RMSprop rule is redone the
same way, one parameter at a time over the flat vector.
"""

import math
import struct

import numpy as np
import pytest

from prenet import model as model_module
from prenet.dataset import WeakSupervisionSplit
from prenet.model import (
    RMSPROP_EPS,
    RMSPROP_RHO,
    ModelConfig,
    OptimizerState,
    batch_targets,
    build_variant,
    forward,
    objective_and_gradients,
    rmsprop_step,
)
from prenet.ndcore import make_rng
from prenet.pairgen import sample_instance_batch, sample_pair_batch

HIDDEN = {"prenet": (3,), "a2h": (3, 3, 3), "osnet": (3,)}


def four_row_split(rng) -> WeakSupervisionSplit:
    """Store rows 0 and 1 form U and rows 2 and 3 form A, so ascending
    store order puts last the A rows that a batch's first slots use."""
    return WeakSupervisionSplit(
        features=rng.standard_normal((4, 2)),
        true_labels=np.array([0, 0, 1, 1]),
        n_unlabeled=2,
    )


def sampled(variant, batch_size, seed):
    rng = make_rng(seed)
    split = four_row_split(rng)
    model = build_variant(ModelConfig(variant, 2, hidden_dims=HIDDEN[variant]), rng)
    model.params.output_bias = 0.25
    for b in model.params.hidden_biases:
        b[:] = rng.uniform(-0.5, 0.5, size=b.shape)
    sample = sample_pair_batch if model.config.is_pairwise else sample_instance_batch
    return model, sample(split, batch_size, rng)


def dot(terms) -> float:
    """Sum of products onto 0.0, one rounded product at a time, in order."""
    acc = 0.0
    for a, b in terms:
        acc += a * b
    return acc


def relu_mask(v: float) -> float:
    return 1.0 if v > 0.0 else 0.0


def scalar_objective_and_gradients(model, batch):
    """One objective-and-gradient pass over plain Python floats."""
    cfg, p = model.config, model.params
    weights = [w.tolist() for w in p.hidden_weights]
    biases = [b.tolist() for b in p.hidden_biases]
    out_w = p.output_weights.tolist()
    rows = batch.rows.tolist()
    pos = batch.positions.tolist()
    n_streams, n, n_rows = len(pos), len(pos[0]), len(rows)
    width = len(out_w) // n_streams
    head = [[out_w[s * width + j] for s in range(n_streams)] for j in range(width)]

    acts, pres = [rows], []
    for w, b in zip(weights, biases):
        x = acts[-1]
        pre = [
            [dot((x[r][k], w[k][j]) for k in range(len(w))) + b[j] for j in range(len(b))]
            for r in range(n_rows)
        ]
        pres.append(pre)
        acts.append([[max(v, 0.0) for v in row] for row in pre])
    f = acts[-1]
    c = [
        [dot((f[r][j], head[j][s]) for j in range(width)) for s in range(n_streams)]
        for r in range(n_rows)
    ]
    scores = []
    for i in range(n):
        total = 0.0
        for s in range(n_streams):
            total += c[pos[s][i]][s]
        scores.append(total + p.output_bias)
    labels = [cfg.labels.aa, cfg.labels.au, cfg.labels.uu]
    residual = [sc - labels[c] for sc, c in zip(scores, batch.classes.tolist())]
    # The mean absolute error and the weight-square sum are NumPy
    # reductions whose order this reimplementation does not redefine.
    square_sum = sum(float(np.sum(w * w)) for w in p.hidden_weights)
    square_sum += float(np.sum(p.output_weights * p.output_weights))
    objective = float(np.mean(np.abs(np.array(residual)))) + cfg.l2_lambda * square_sum

    sign = [1.0 if v > 0.0 else -1.0 if v < 0.0 else 0.0 for v in residual]
    g = [[0.0] * n_streams for _ in range(n_rows)]
    for s in range(n_streams):
        for i in range(n):
            g[pos[s][i]][s] += sign[i]
    g = [[v / n for v in row] for row in g]
    sign_count = 0.0
    for v in sign:
        sign_count += v

    lam2 = 2.0 * cfg.l2_lambda
    g_out = [
        dot((g[r][s], f[r][j]) for r in range(n_rows)) + lam2 * out_w[s * width + j]
        for s in range(n_streams)
        for j in range(width)
    ]
    g_w, g_b = [None] * len(weights), [None] * len(weights)
    if weights:
        delta = [
            [
                dot((g[r][s], head[j][s]) for s in range(n_streams)) * relu_mask(pres[-1][r][j])
                for j in range(width)
            ]
            for r in range(n_rows)
        ]
        for layer in range(len(weights) - 1, -1, -1):
            x, w = acts[layer], weights[layer]
            fan_in, fan_out = len(w), len(w[0])
            g_w[layer] = [
                [
                    dot((x[r][k], delta[r][j]) for r in range(n_rows)) + lam2 * w[k][j]
                    for j in range(fan_out)
                ]
                for k in range(fan_in)
            ]
            g_b[layer] = [dot((1.0, delta[r][j]) for r in range(n_rows)) for j in range(fan_out)]
            if layer > 0:
                delta = [
                    [
                        dot((delta[r][j], w[k][j]) for j in range(fan_out))
                        * relu_mask(pres[layer - 1][r][k])
                        for k in range(fan_in)
                    ]
                    for r in range(n_rows)
                ]
    return objective, g_w, g_b, g_out, sign_count / n


def float_bytes(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("batch_size", [8, 12])
@pytest.mark.parametrize("variant", sorted(HIDDEN))
def test_gradients_bytes_equal_scalar_reimplementation(variant, batch_size, seed):
    model, batch = sampled(variant, batch_size, seed)
    assert len(batch.rows) <= 4 < batch_size  # slots share rows
    objective, grads = objective_and_gradients(model, batch)
    ref_objective, ref_w, ref_b, ref_out, ref_bias = scalar_objective_and_gradients(
        model, batch
    )
    assert float_bytes([objective]) == float_bytes([ref_objective])
    for got, ref in zip(grads.hidden_weights, ref_w):
        assert got.astype("<f8").tobytes() == float_bytes([v for row in ref for v in row])
    for got, ref in zip(grads.hidden_biases, ref_b):
        assert got.astype("<f8").tobytes() == float_bytes(ref)
    assert grads.output_weights.astype("<f8").tobytes() == float_bytes(ref_out)
    assert float_bytes([grads.output_bias]) == float_bytes([ref_bias])


# Cases whose output-bias gradient g has (1-rho)*g**2 != ((1-rho)*g)*g
# in float64, so a bias squared apart from the weights shows.
@pytest.mark.parametrize(
    "variant, batch_size, seed", [("prenet", 20, 0), ("a2h", 36, 5), ("osnet", 36, 2)]
)
def test_rmsprop_steps_bytes_equal_scalar_rule(variant, batch_size, seed):
    """Two steps, each parameter updated on its own in plain floats by
    ``a = rho*a + ((1-rho)*g)*g`` and ``p = p - (lr*g) / (sqrt(a) + eps)``,
    the output bias by the same rule as every weight."""
    model, batch = sampled(variant, batch_size, seed)
    state = OptimizerState.for_params(model.params)
    lr, rho, eps = state.learning_rate, RMSPROP_RHO, RMSPROP_EPS
    params = model.params.vector.tolist()
    acc = [0.0] * len(params)
    for _ in range(2):
        grads = objective_and_gradients(model, batch)[1]
        rmsprop_step(model.params, grads, state)
        for i, g in enumerate(grads.vector.tolist()):
            acc[i] = rho * acc[i] + ((1.0 - rho) * g) * g
            params[i] = params[i] - (lr * g) / (math.sqrt(acc[i]) + eps)
        assert state.accumulator.vector.astype("<f8").tobytes() == float_bytes(acc)
        assert model.params.vector.astype("<f8").tobytes() == float_bytes(params)


@pytest.mark.parametrize("variant", ["prenet", "osnet"])
def test_training_step_runs_the_stack_once_per_distinct_row(monkeypatch, variant):
    rng = make_rng(30)
    store = rng.standard_normal((400, 3))
    split = WeakSupervisionSplit(
        features=store, true_labels=np.zeros(400, dtype=np.int64), n_unlabeled=390
    )
    model = build_variant(ModelConfig(variant, 3), rng)
    sample = sample_pair_batch if model.config.is_pairwise else sample_instance_batch
    batch = sample(split, 256, rng)
    slots = batch.slot_index.ravel()
    rows = []
    real_stack = model_module._forward_stack

    def counting_stack(params, x):
        rows.append(len(x))
        return real_stack(params, x)

    monkeypatch.setattr(model_module, "_forward_stack", counting_stack)
    objective_and_gradients(model, batch)
    assert rows == [len(np.unique(slots))]
    assert rows[0] < len(slots)


@pytest.mark.parametrize("batch_size", [8, 12])
@pytest.mark.parametrize("variant", sorted(HIDDEN))
def test_objective_bytes_equal_per_slot_scores(variant, batch_size):
    """The objective is the MAE of each slot scored on its own through
    forward, plus the L2 term."""
    model, batch = sampled(variant, batch_size, 5)
    streams = np.arange(len(batch.positions))[:, None]
    scores = np.array(
        [
            forward(model, batch.rows[batch.positions[:, i]], streams)[0][0]
            for i in range(len(batch))
        ]
    )
    p = model.params
    square_sum = sum(float(np.sum(w * w)) for w in p.hidden_weights)
    square_sum += float(np.sum(p.output_weights * p.output_weights))
    mae = float(np.mean(np.abs(scores - batch_targets(model.config, batch))))
    expect = mae + model.config.l2_lambda * square_sum
    assert float_bytes([objective_and_gradients(model, batch)[0]]) == float_bytes([expect])
