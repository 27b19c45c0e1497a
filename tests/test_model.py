import copy
import pickle

import numpy as np
import pytest

import prenet.model as model_module
from prenet.dataset import WeakSupervisionSplit
from prenet.errors import NumericError
from prenet.model import (
    Model,
    ModelConfig,
    OptimizerState,
    PReNetParams,
    VARIANTS,
    batch_targets,
    build_variant,
    features,
    forward,
    load_checkpoint,
    objective_and_gradients,
    rmsprop_step,
    save_checkpoint,
)
from prenet.ndcore import finite_diff_grad, make_rng
from prenet.pairgen import (
    Batch,
    OrdinalLabels,
    PairClass,
    sample_instance_batch,
    sample_pair_batch,
)

# Target of a slot by how many of its members come from A, per variant,
# for labels 9,5,1 (none of them a default, so a hard-coded 8/4/0 fails)
TARGETS_BY_A_MEMBERS = {
    "prenet": [1.0, 5.0, 9.0],
    "a2h": [1.0, 5.0, 9.0],
    "ldm": [1.0, 5.0, 9.0],
    "bor": [1.0, 5.0, 5.0],
    "osnet": [1.0, 5.0],
}


def pair_score(model, a, b):
    """Score of one ordered pair of 1-D rows."""
    return float(forward(model, np.stack([a, b]), [[0], [1]])[0][0])


def objective(model, batch):
    return objective_and_gradients(model, batch)[0]


def make_pair_batch(n_aa, n_au, n_uu, dim, rng):
    """A batch of all-distinct random rows: slot i pairs row i with row b + i."""
    b = n_aa + n_au + n_uu
    return Batch(
        rows=rng.standard_normal((2 * b, dim)),
        row_index=np.arange(2 * b),
        positions=np.arange(2 * b).reshape(2, b),
        classes=np.repeat(np.array(list(PairClass), np.uint8), [n_aa, n_au, n_uu]),
    )


def make_instance_batch(n, dim, rng):
    """A batch of n distinct random rows, the first half from A."""
    return Batch(
        rows=rng.standard_normal((n, dim)),
        row_index=np.arange(n),
        positions=np.arange(n)[None, :],
        classes=np.repeat(np.array([PairClass.AU, PairClass.UU], np.uint8), [n // 2, n - n // 2]),
    )


def batch_for(config, dim, rng):
    if config.variant == "osnet":
        return make_instance_batch(8, dim, rng)
    return make_pair_batch(2, 2, 4, dim, rng)


def sampled_batch_for(config, dim, rng):
    """A sampled batch of 8 slots from a store whose A pool has 2 rows
    and whose U pool has 6, so slots repeat rows."""
    split = WeakSupervisionSplit(
        features=rng.standard_normal((8, dim)),
        true_labels=np.array([0, 0, 0, 0, 0, 0, 1, 1]),
        n_unlabeled=6,
    )
    sample = sample_pair_batch if config.is_pairwise else sample_instance_batch
    batch = sample(split, 8, rng)
    assert len(batch.rows) < 8 * len(batch.positions)
    return batch


class TestConfig:
    def test_layer_count_per_variant(self):
        ModelConfig("prenet", 5)
        ModelConfig("ldm", 5)
        ModelConfig("a2h", 5, hidden_dims=(6, 5, 4))
        with pytest.raises(ValueError):
            ModelConfig("ldm", 5, hidden_dims=(20,))
        with pytest.raises(ValueError):
            ModelConfig("a2h", 5, hidden_dims=(20,))
        with pytest.raises(ValueError):
            ModelConfig("prenet", 5, hidden_dims=())

    def test_default_dims(self):
        assert ModelConfig("prenet", 5).hidden_dims == (20,)
        assert ModelConfig("a2h", 5).hidden_dims == (20, 20, 20)
        assert ModelConfig("ldm", 5).hidden_dims == ()

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            ModelConfig("mystery", 5)


class TestBuildVariant:
    def test_parameter_counts(self):
        rng = make_rng(0)
        # 21*20 + 20 + 40 + 1
        assert build_variant(ModelConfig("prenet", 21), rng).params.vector.size == 481
        # 2*21 + 1
        assert build_variant(ModelConfig("ldm", 21), rng).params.vector.size == 43
        # 21*20 + 20 + 20 + 1
        assert build_variant(ModelConfig("osnet", 21), rng).params.vector.size == 461
        # (21*20+20) + (20*20+20) + (20*20+20) + (40+1)
        assert build_variant(ModelConfig("a2h", 21), rng).params.vector.size == 1321

    def test_biases_zero_weights_in_glorot_bound(self):
        model = build_variant(ModelConfig("prenet", 10), make_rng(3))
        assert np.array_equal(model.params.hidden_biases[0], np.zeros(20))
        assert model.params.output_bias == 0.0
        assert np.all(np.abs(model.params.hidden_weights[0]) < np.sqrt(6.0 / 30.0))
        assert np.all(np.abs(model.params.output_weights) < np.sqrt(6.0 / 41.0))

    def test_same_seed_identical(self):
        m1 = build_variant(ModelConfig("a2h", 7), make_rng(9))
        m2 = build_variant(ModelConfig("a2h", 7), make_rng(9))
        assert np.array_equal(m1.params.vector, m2.params.vector)


class TestForward:
    def test_zero_params_zero_feature(self):
        model = build_variant(ModelConfig("prenet", 4), make_rng(0))
        model.params.hidden_weights[0][:] = 0.0
        z = features(model.params, np.ones(4))[0]
        assert np.array_equal(z, np.zeros(20))

    def test_hand_computed_single_unit(self):
        cfg = ModelConfig("prenet", 1, hidden_dims=(1,))
        model = build_variant(cfg, make_rng(0))
        model.params.hidden_weights[0][:] = np.array([[2.0]])
        model.params.hidden_biases[0][:] = np.array([-1.0])
        assert features(model.params, np.array([1.0]))[0, 0] == 1.0  # relu(2*1-1)
        assert features(model.params, np.array([0.0]))[0, 0] == 0.0  # relu(-1)

    def test_feature_matches_straight_line_reimplementation(self):
        rng = make_rng(4)
        model = build_variant(ModelConfig("a2h", 6, hidden_dims=(5, 4, 3)), rng)
        x = rng.standard_normal((7, 6))
        z = features(model.params, x)
        # independent duplicate path: plain loops, no shared code
        expect = np.empty((7, 3))
        for r in range(7):
            v = x[r]
            for w, bias in zip(model.params.hidden_weights, model.params.hidden_biases):
                out = np.zeros(w.shape[1])
                for j in range(w.shape[1]):
                    acc = 0.0
                    for i in range(w.shape[0]):
                        acc += v[i] * w[i, j]
                    out[j] = max(acc + bias[j], 0.0)
                v = out
            expect[r] = v
        assert np.allclose(z, expect, rtol=0, atol=1e-12)

    def test_zero_params_score_zero(self):
        model = build_variant(ModelConfig("prenet", 3), make_rng(1))
        for w in model.params.hidden_weights:
            w[:] = 0.0
        model.params.output_weights[:] = 0.0
        rng = make_rng(2)
        assert pair_score(model, rng.standard_normal(3), rng.standard_normal(3)) == 0.0

    def test_bias_only_network_is_constant(self):
        model = build_variant(ModelConfig("prenet", 3), make_rng(1))
        model.params.output_weights[:] = 0.0
        model.params.output_bias = 4.0
        rng = make_rng(3)
        s, _ = forward(model, rng.standard_normal((10, 3)), np.arange(10).reshape(2, 5))
        assert np.array_equal(s, np.full(5, 4.0))

    def test_stream_swap_symmetry(self):
        rng = make_rng(5)
        model = build_variant(ModelConfig("prenet", 4), rng)
        swapped = Model(model.config, model.params.with_vector(model.params.vector))
        m = model.config.feature_dim
        swapped.params.output_weights[:] = np.concatenate(
            [model.params.output_weights[m:], model.params.output_weights[:m]]
        )
        for _ in range(10):
            a = rng.standard_normal(4)
            b = rng.standard_normal(4)
            assert pair_score(model, a, b) == pair_score(swapped, b, a)

    def test_ldm_is_linear_in_concatenated_pair(self):
        rng = make_rng(6)
        model = build_variant(ModelConfig("ldm", 3), rng)
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        w = model.params.output_weights
        expect = w[:3] @ a + w[3:] @ b + model.params.output_bias
        assert pair_score(model, a, b) == pytest.approx(expect, rel=1e-12)

    def test_variant_stream_guards(self):
        pair_model = build_variant(ModelConfig("prenet", 3), make_rng(0))
        single_model = build_variant(ModelConfig("osnet", 3), make_rng(0))
        with pytest.raises(ValueError, match="takes 2 stream"):
            forward(pair_model, np.ones((2, 3)), [[0, 1]])
        with pytest.raises(ValueError, match="takes 1 stream"):
            forward(single_model, np.ones((2, 3)), [[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="takes 1 stream"):
            objective_and_gradients(single_model, make_pair_batch(1, 1, 2, 3, make_rng(1)))


class TestLossAndObjective:

    def test_zero_params_objective_is_mean_target(self):
        # 1 aa + 1 au + 2 uu with zero params: MAE = (8+4+0+0)/4 = 3, R = 0
        cfg = ModelConfig("prenet", 3)
        model = build_variant(cfg, make_rng(0))
        model.params.hidden_weights[0][:] = 0.0
        model.params.output_weights[:] = 0.0
        batch = make_pair_batch(1, 1, 2, 3, make_rng(1))
        assert objective(model, batch) == 3.0

    def test_lambda_zero_is_pure_mae(self):
        rng = make_rng(2)
        cfg = ModelConfig("prenet", 3, l2_lambda=0.0)
        model = build_variant(cfg, rng)
        batch = make_pair_batch(2, 2, 4, 3, rng)
        scores, _ = forward(model, batch.rows, batch.positions)
        assert objective(model, batch) == pytest.approx(
            np.mean(np.abs(batch_targets(cfg, batch) - scores)), rel=1e-15
        )

    def test_objective_linear_in_lambda(self):
        rng = make_rng(3)
        batch = make_pair_batch(2, 2, 4, 3, rng)
        base = build_variant(ModelConfig("prenet", 3, l2_lambda=0.0), make_rng(7))
        single = Model(ModelConfig("prenet", 3, l2_lambda=0.01), base.params)
        double = Model(ModelConfig("prenet", 3, l2_lambda=0.02), base.params)
        r = sum(float(np.sum(w * w)) for w in base.params.hidden_weights) + float(
            np.sum(base.params.output_weights ** 2)
        )
        o0 = objective(base, batch)
        o1 = objective(single, batch)
        o2 = objective(double, batch)
        assert o1 - o0 == pytest.approx(0.01 * r, rel=1e-12)
        assert o2 - o1 == pytest.approx(0.01 * r, rel=1e-12)

    def test_bor_targets_merge_anomaly_classes(self):
        cfg = ModelConfig("bor", 3)
        batch = make_pair_batch(2, 2, 4, 3, make_rng(0))
        t = batch_targets(cfg, batch)
        assert list(t) == [4.0, 4.0, 4.0, 4.0, 0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_class_to_target_table(self, variant):
        """Each variant's sampler and batch_targets give a slot the target
        of its number of members drawn from A."""
        split = WeakSupervisionSplit(
            features=np.zeros((8, 2)), true_labels=np.zeros(8, dtype=np.int64), n_unlabeled=5
        )
        cfg = ModelConfig(variant, 2, labels=OrdinalLabels(9.0, 5.0, 1.0))
        sample = sample_pair_batch if cfg.is_pairwise else sample_instance_batch
        batch = sample(split, 64, make_rng(0))
        from_a = (batch.slot_index >= split.n_unlabeled).sum(axis=0)
        expect = np.array(TARGETS_BY_A_MEMBERS[variant])[from_a]
        assert np.array_equal(batch_targets(cfg, batch), expect)
        assert set(from_a) == set(range(len(TARGETS_BY_A_MEMBERS[variant])))

    def test_empty_batch_rejected(self):
        model = build_variant(ModelConfig("prenet", 3), make_rng(0))
        batch = make_pair_batch(0, 0, 0, 3, make_rng(0))
        with pytest.raises(ValueError):
            objective(model, batch)


def relative_error(analytic, numeric):
    denom = np.maximum(1e-6, np.maximum(np.abs(analytic), np.abs(numeric)))
    return np.max(np.abs(analytic - numeric) / denom)


def far_from_kinks(model, batch, margin):
    """Reject draws where a |.| or relu kink sits within `margin`."""
    scores, (_, pres) = forward(model, batch.rows, batch.positions)
    targets = batch_targets(model.config, batch)
    if np.min(np.abs(scores - targets)) < margin:
        return False
    for pre in pres:
        if pre.size and np.min(np.abs(pre)) < margin:
            return False
    return True


class TestGradients:
    dims = {"prenet": (3,), "bor": (3,), "osnet": (3,), "ldm": (), "a2h": (4, 3, 2)}

    def check_variant(self, variant, seed, make_batch=batch_for):
        rng = make_rng(seed)
        cfg = ModelConfig(variant, 5, hidden_dims=self.dims[variant], l2_lambda=0.01)
        model = build_variant(cfg, rng)
        batch = make_batch(cfg, 5, rng)
        if not far_from_kinks(model, batch, 1e-3):
            return None
        analytic = objective_and_gradients(model, batch)[1].vector

        def f(vec):
            probe = Model(cfg, model.params.with_vector(vec))
            return objective_and_gradients(probe, batch)[0]

        numeric = finite_diff_grad(f, model.params.vector, h=1e-5)
        return relative_error(analytic, numeric)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gradients_match_finite_differences(self, variant):
        checked = 0
        seed = 0
        while checked < 4:
            err = self.check_variant(variant, seed)
            seed += 1
            if err is None:
                continue
            assert err < 1e-4, f"{variant} seed {seed - 1}: rel err {err}"
            checked += 1

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gradients_match_finite_differences_on_repeated_rows(self, variant):
        """Sampled batches whose A pool has two rows, so several slots
        share a row and its gradient terms are summed per row first."""
        checked = 0
        seed = 0
        while checked < 4:
            err = self.check_variant(variant, seed, sampled_batch_for)
            seed += 1
            if err is None:
                continue
            assert err < 1e-4, f"{variant} seed {seed - 1}: rel err {err}"
            checked += 1

    def test_zero_residual_zero_lambda_gives_zero_gradients(self, monkeypatch):
        cfg = ModelConfig("prenet", 3, l2_lambda=0.0)
        model = build_variant(cfg, make_rng(0))
        batch = make_pair_batch(1, 1, 2, 3, make_rng(1))
        scores, _ = forward(model, batch.rows, batch.positions)
        # every pair already perfectly fitted
        monkeypatch.setattr(model_module, "batch_targets", lambda config, b: scores.copy())
        grads = objective_and_gradients(model, batch)[1]
        assert np.array_equal(grads.vector, np.zeros_like(model.params.vector))

    def test_lambda_only_gradient_is_2_lambda_w(self, monkeypatch):
        lam = 0.05
        cfg = ModelConfig("prenet", 3, l2_lambda=lam)
        model = build_variant(cfg, make_rng(2))
        batch = make_pair_batch(1, 1, 2, 3, make_rng(3))
        scores, _ = forward(model, batch.rows, batch.positions)
        monkeypatch.setattr(model_module, "batch_targets", lambda config, b: scores.copy())
        grads = objective_and_gradients(model, batch)[1]
        assert np.allclose(grads.hidden_weights[0], 2 * lam * model.params.hidden_weights[0])
        assert np.allclose(grads.output_weights, 2 * lam * model.params.output_weights)
        assert np.array_equal(grads.hidden_biases[0], np.zeros(20))
        assert grads.output_bias == 0.0

    def test_objective_from_gradient_pass_matches_objective(self):
        rng = make_rng(8)
        for variant in VARIANTS:
            cfg = ModelConfig(variant, 5, hidden_dims=self.dims[variant])
            model = build_variant(cfg, rng)
            batch = batch_for(cfg, 5, rng)
            obj, _ = objective_and_gradients(model, batch)
            scores, _ = forward(model, batch.rows, batch.positions)
            mae = float(np.mean(np.abs(batch_targets(cfg, batch) - scores)))
            r = sum(float(np.sum(w * w)) for w in model.params.hidden_weights)
            r += float(np.sum(model.params.output_weights ** 2))
            assert obj == mae + cfg.l2_lambda * r


class TestRmsprop:
    def test_zero_gradient_decays_accumulator(self):
        model = build_variant(ModelConfig("prenet", 3), make_rng(0))
        params_before = model.params.vector.copy()
        state = OptimizerState.for_params(model.params)
        state.accumulator.output_weights[:] = 1.0
        zero = PReNetParams(
            [np.zeros_like(w) for w in model.params.hidden_weights],
            [np.zeros_like(b) for b in model.params.hidden_biases],
            np.zeros_like(model.params.output_weights),
            0.0,
        )
        rmsprop_step(model.params, zero, state)
        assert np.array_equal(model.params.vector, params_before)
        assert np.all(state.accumulator.output_weights == 0.9)

    def test_first_step_hand_computed(self):
        # acc = 0.1, delta = -lr / (sqrt(0.1) + eps)
        cfg = ModelConfig("ldm", 1)
        model = build_variant(cfg, make_rng(0))
        model.params.output_weights[:] = 0.0
        state = OptimizerState.for_params(model.params, learning_rate=0.001)
        grads = PReNetParams([], [], np.array([1.0, 0.0]), 0.0)
        rmsprop_step(model.params, grads, state)
        expect = -0.001 / (np.sqrt(0.1) + 1e-7)
        assert model.params.output_weights[0] == pytest.approx(expect, rel=1e-12)
        assert abs(expect) == pytest.approx(0.0031622766, abs=1e-9)
        assert model.params.output_weights[1] == 0.0

    def test_constant_gradient_step_approaches_lr(self):
        cfg = ModelConfig("ldm", 1)
        model = build_variant(cfg, make_rng(0))
        model.params.output_weights[:] = 0.0
        state = OptimizerState.for_params(model.params, learning_rate=0.001)
        g = PReNetParams([], [], np.array([2.5, 0.0]), 0.0)
        prev = 0.0
        for _ in range(200):
            prev = model.params.output_weights[0]
            rmsprop_step(model.params, g, state)
        # acc -> g^2, so |delta| -> lr
        delta = model.params.output_weights[0] - prev
        assert delta == pytest.approx(-0.001, rel=1e-3)

    def test_non_finite_gradient_raises(self):
        model = build_variant(ModelConfig("ldm", 1), make_rng(0))
        state = OptimizerState.for_params(model.params)
        bad = PReNetParams([], [], np.array([np.nan, 0.0]), 0.0)
        with pytest.raises(NumericError):
            rmsprop_step(model.params, bad, state)

    def test_full_batch_descent_halves_objective(self):
        rng = make_rng(12)
        cfg = ModelConfig("prenet", 4)
        model = build_variant(cfg, rng)
        batch = make_pair_batch(4, 4, 8, 4, rng)
        state = OptimizerState.for_params(model.params, learning_rate=0.01)
        start = objective(model, batch)
        for _ in range(200):
            _, grads = objective_and_gradients(model, batch)
            rmsprop_step(model.params, grads, state)
        end = objective(model, batch)
        assert end <= 0.5 * start


class TestVectorRoundTrip:
    def test_round_trip(self):
        model = build_variant(ModelConfig("a2h", 6, hidden_dims=(5, 4, 3)), make_rng(0))
        vec = model.params.vector
        back = model.params.with_vector(vec)
        assert np.array_equal(back.vector, vec)
        assert not np.shares_memory(back.vector, vec)
        # the per-layer arrays and the bias read and write the one vector
        back.vector[:] = np.arange(vec.size)
        assert back.hidden_weights[0][0, 1] == 1.0
        assert back.hidden_biases[0][0] == sum(w.size for w in back.hidden_weights)
        assert back.output_weights[0] == vec.size - 1 - model.params.output_weights.size
        assert back.output_bias == vec.size - 1
        back.output_bias = -2.5
        assert back.vector[-1] == -2.5

    def test_size_check(self):
        model = build_variant(ModelConfig("prenet", 3), make_rng(0))
        with pytest.raises(ValueError):
            model.params.with_vector(np.zeros(3))


class TestParameterViews:
    """The per-layer arrays are views of the vector that cannot be
    detached from it."""

    def test_layer_arrays_cannot_be_rebound(self):
        params = build_variant(ModelConfig("prenet", 3), make_rng(0)).params
        for name in ("hidden_weights", "hidden_biases", "output_weights"):
            with pytest.raises(AttributeError):
                setattr(params, name, getattr(params, name))
        params.output_weights[:] = 2.0
        assert np.all(params.vector[-41:-1] == 2.0)

    @pytest.mark.parametrize(
        "duplicate",
        [copy.deepcopy, lambda params: pickle.loads(pickle.dumps(params))],
        ids=["deepcopy", "pickle"],
    )
    def test_a_copy_reads_its_own_vector(self, duplicate):
        params = build_variant(ModelConfig("a2h", 4, hidden_dims=(3, 2, 2)), make_rng(1)).params
        original = params.vector.copy()
        twin = duplicate(params)
        twin.vector[:] = np.arange(twin.vector.size)
        assert np.array_equal(params.vector, original)
        assert twin.hidden_weights[0][0, 1] == 1.0
        assert twin.hidden_biases[0][0] == sum(w.size for w in twin.hidden_weights)
        assert twin.output_weights[-1] == twin.vector.size - 2
        assert twin.output_bias == twin.vector.size - 1


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = make_rng(7)
        model = build_variant(ModelConfig("a2h", 5, hidden_dims=(4, 3, 2)), rng)
        mean = rng.standard_normal(5)
        scale = np.abs(rng.standard_normal(5)) + 0.5
        a_pool = rng.standard_normal((3, 5))
        u_pool = rng.standard_normal((9, 5))
        path = tmp_path / "m.json"
        save_checkpoint(path, model, mean, scale, a_pool, u_pool)
        back, extras = load_checkpoint(path)
        assert back.config == model.config
        assert np.array_equal(back.params.vector, model.params.vector)
        assert np.array_equal(extras["mean"], mean)
        assert np.array_equal(extras["scale"], scale)
        assert np.array_equal(extras["anomaly_pool"], a_pool)
        assert np.array_equal(extras["unlabeled_pool"], u_pool)

    def test_repeated_saves_byte_identical(self, tmp_path):
        model = build_variant(ModelConfig("prenet", 4), make_rng(1))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(p1, model)
        save_checkpoint(p2, model)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_checkpoint(path)
