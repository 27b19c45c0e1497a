import tracemalloc

import numpy as np
import pytest

from prenet import engine
from prenet.dataset import LabeledDataset, WeakSupervisionSplit, build_weak_supervision
from prenet.engine import (
    TrainConfig,
    draw_partner_indices,
    read_scores_csv,
    score_dataset,
    score_with_partners,
    train,
    write_scores_csv,
)
from prenet.errors import SchemaError
from prenet.harness import SyntheticSpec, generate_synthetic
from prenet.model import (
    ModelConfig,
    build_variant,
    features,
    forward,
)
from prenet.ndcore import make_rng


def small_split(n_normal=60, n_anomaly=20, n_labeled=5, eps=0.0, dim=3, seed=0, with_test=False):
    rng = make_rng(seed)
    features = rng.standard_normal((n_normal + n_anomaly, dim))
    features[n_normal:, 0] += 4.0
    labels = np.concatenate([np.zeros(n_normal, int), np.ones(n_anomaly, int)])
    ds = LabeledDataset(features, labels)
    test = None
    if with_test:
        test = LabeledDataset(rng.standard_normal((10, dim)), np.array([1] * 3 + [0] * 7))
    return build_weak_supervision(ds, n_labeled, eps, rng, test=test)


def pair_score(model, a, b):
    """Score of one ordered pair of 1-D rows."""
    return float(forward(model, np.stack([a, b]), [[0], [1]])[0][0])


def tiny_cfg(variant="prenet", dim=3, **kw):
    defaults = dict(n_epochs=2, n_batches_per_epoch=3, batch_size=8, seed=0)
    defaults.update(kw)
    return TrainConfig(model=ModelConfig(variant, dim), **defaults)


class TestTrain:
    def test_single_step_trace(self):
        split = small_split()
        model, report = train(split, tiny_cfg(n_epochs=1, n_batches_per_epoch=1))
        assert len(report.objective_trace) == 1

    def test_trace_length(self):
        split = small_split()
        model, report = train(split, tiny_cfg(n_epochs=3, n_batches_per_epoch=4))
        assert len(report.objective_trace) == 12
        assert len(report.epoch_means()) == 3

    def test_same_seed_bitwise_identical(self):
        split = small_split()
        m1, r1 = train(split, tiny_cfg(seed=11))
        m2, r2 = train(split, tiny_cfg(seed=11))
        assert np.array_equal(m1.params.vector, m2.params.vector)
        assert r1.objective_trace == r2.objective_trace

    def test_different_seed_differs(self):
        split = small_split()
        m1, _ = train(split, tiny_cfg(seed=1))
        m2, _ = train(split, tiny_cfg(seed=2))
        assert not np.array_equal(m1.params.vector, m2.params.vector)

    def test_dim_mismatch_rejected(self):
        split = small_split(dim=3)
        with pytest.raises(ValueError):
            train(split, tiny_cfg(dim=5))

    def test_never_touches_test_fields(self):
        split = small_split(with_test=False)
        assert split.test_labels is None  # training must not need them
        model, _ = train(split, tiny_cfg())
        assert np.isfinite(model.params.vector).all()

    def test_batch_divisibility_validation(self):
        with pytest.raises(ValueError):
            tiny_cfg(batch_size=10)  # pair variant needs %4
        tiny_cfg("osnet", batch_size=10)  # one-stream needs only %2
        with pytest.raises(ValueError):
            tiny_cfg("osnet", batch_size=9)

    @pytest.mark.parametrize("rate", [0.0, -0.001, float("inf"), float("nan")])
    def test_learning_rate_validation(self, rate):
        with pytest.raises(ValueError, match="learning_rate"):
            tiny_cfg(learning_rate=rate)

    @pytest.mark.parametrize("variant", ["prenet", "bor", "osnet", "ldm", "a2h"])
    def test_all_variants_train(self, variant):
        split = small_split()
        model, report = train(split, tiny_cfg(variant))
        assert np.isfinite(model.params.vector).all()
        assert all(np.isfinite(v) for v in report.objective_trace)

    def test_objective_decreases_on_separable_fixture(self):
        # seed-fixed smoke: full default schedule on separable Gaussians
        ds = generate_synthetic(SyntheticSpec(1000, 50, 2, 6.0, seed=7))
        rng = make_rng(2)
        from prenet.dataset import standardize_split, stratified_split

        train_ds, test_ds = stratified_split(ds, 0.8, rng)
        split = build_weak_supervision(train_ds, 15, 0.02, rng, test=test_ds)
        split, _, _ = standardize_split(split)
        cfg = TrainConfig(model=ModelConfig("prenet", 2), seed=2)
        model, report = train(split, cfg, rng=rng)
        means = report.epoch_means()
        assert means[-1] < 0.25 * means[0]


class TestScoring:
    def test_constant_network_scores_bias(self):
        split = small_split()
        model = build_variant(ModelConfig("prenet", 3), make_rng(0))
        model.params.output_weights[:] = 0.0
        model.params.output_bias = 2.5
        scores = score_dataset(model, split.features[:7], split, 4, make_rng(1))
        assert np.array_equal(scores, np.full(7, 2.5))

    def test_degenerate_ensemble_no_variance(self):
        split = small_split()
        tiny = WeakSupervisionSplit(split.features[[0, -1]], split.true_labels[[0, -1]], 1)
        model = build_variant(ModelConfig("prenet", 3), make_rng(3))
        x = make_rng(4).standard_normal(3)
        u, a = tiny.features
        expect = (pair_score(model, a, x) + pair_score(model, x, u)) / 2.0
        for seed in range(3):
            got = score_dataset(model, x[None, :], tiny, 1, make_rng(seed))[0]
            assert got == pytest.approx(expect, rel=1e-12)

    def test_single_row_vector_matches_matrix(self):
        split = small_split()
        model = build_variant(ModelConfig("prenet", 3), make_rng(5))
        x = make_rng(6).standard_normal(3)
        s_one = score_dataset(model, x, split, 8, make_rng(42))[0]
        s_mat = score_dataset(model, x[None, :], split, 8, make_rng(42))
        assert s_mat.shape == (1,)
        assert s_one == s_mat[0]

    def test_anchor_sides_follow_partner_roles(self):
        # anomaly partners sit left of the anchor, unlabeled partners right
        split = small_split()
        model = build_variant(ModelConfig("prenet", 3), make_rng(7))
        x = make_rng(8).standard_normal(3)
        a_pos = np.array([[2]])
        u_pos = np.array([[5]])
        a = split.features[split.n_unlabeled + 2]
        u = split.features[5]
        got = score_with_partners(
            model, x[None, :], split.a_features, split.u_features, a_pos, u_pos
        )[0]
        expect = (pair_score(model, a, x) + pair_score(model, x, u)) / 2.0
        assert got == pytest.approx(expect, rel=1e-12)

    def test_keyed_partners_make_order_irrelevant(self):
        split = small_split()
        model = build_variant(ModelConfig("prenet", 3), make_rng(9))
        x = make_rng(10).standard_normal((12, 3))
        pools = split.a_features, split.u_features
        a_pos, u_pos = draw_partner_indices(
            split.n_labeled, split.n_unlabeled, 12, 5, make_rng(11)
        )
        base = score_with_partners(model, x, *pools, a_pos, u_pos)
        perm = make_rng(12).permutation(12)
        permuted = score_with_partners(model, x[perm], *pools, a_pos[perm], u_pos[perm])
        assert np.array_equal(permuted, base[perm])

    def test_variance_shrinks_with_ensemble_size(self):
        split = small_split(n_normal=200, n_anomaly=50, n_labeled=20)
        model = build_variant(ModelConfig("prenet", 3), make_rng(13))
        x = make_rng(14).standard_normal(3)
        rng = make_rng(15)
        variances = {}
        for e in (1, 10, 100):
            draws = np.array(
                [score_dataset(model, x[None, :], split, e, rng)[0] for _ in range(300)]
            )
            variances[e] = draws.var()
        assert variances[10] < variances[1] / 4
        assert variances[100] < variances[10] / 4
        # rough 1/E scaling: ratios within a factor ~3 of 10x
        assert 3 < variances[1] / variances[10] < 30
        assert 3 < variances[10] / variances[100] < 30

    def test_score_vectors_deterministic(self):
        split = small_split()
        model, _ = train(split, tiny_cfg(seed=21))
        x = make_rng(22).standard_normal((15, 3))
        s1 = score_dataset(model, x, split, 6, make_rng(23))
        s2 = score_dataset(model, x, split, 6, make_rng(23))
        assert np.array_equal(s1, s2)

    def test_scoring_survives_checkpoint_round_trip(self, tmp_path):
        from prenet.model import load_checkpoint, save_checkpoint

        split = small_split()
        model, _ = train(split, tiny_cfg(seed=30))
        x = make_rng(31).standard_normal((9, 3))
        pools = split.a_features, split.u_features
        a_pos, u_pos = draw_partner_indices(
            split.n_labeled, split.n_unlabeled, 9, 5, make_rng(32)
        )
        before = score_with_partners(model, x, *pools, a_pos, u_pos)
        path = tmp_path / "ck.json"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        after = score_with_partners(loaded, x, *pools, a_pos, u_pos)
        assert np.array_equal(before, after)

    def test_both_streams_share_one_feature_stack(self):
        split = small_split()
        model = build_variant(ModelConfig("prenet", 3), make_rng(40))
        x = make_rng(41).standard_normal(3)
        z_before = features(model.params, x)[0].copy()
        active = int(np.flatnonzero(z_before > 0)[0])
        model.params.hidden_biases[0][active] += 0.25
        z_after = features(model.params, x)[0]
        # one stored stack: a perturbation moves the representation seen
        # by both pair positions identically
        m = model.config.feature_dim
        w = model.params.output_weights
        s = pair_score(model, x, x)
        expect = float(w[:m] @ z_after + w[m:] @ z_after + model.params.output_bias)
        assert s == pytest.approx(expect, rel=1e-12)
        assert not np.array_equal(z_before, z_after)

    def test_osnet_ignores_pairs_entirely(self):
        split = small_split()
        model = build_variant(ModelConfig("osnet", 3), make_rng(16))
        x = make_rng(17).standard_normal((6, 3))
        scores = score_dataset(model, x, split, 30, make_rng(18))
        assert np.array_equal(scores, forward(model, x, [np.arange(6)])[0])
        # no randomness consumed: any seed gives the same result
        assert np.array_equal(scores, score_dataset(model, x, split, 30, make_rng(99)))

    def test_osnet_rejects_an_empty_ensemble(self):
        split = small_split()
        model = build_variant(ModelConfig("osnet", 3), make_rng(16))
        with pytest.raises(ValueError, match="ensemble_size"):
            score_dataset(model, np.ones((2, 3)), split, 0, make_rng(18))

    def test_one_stream_model_rejected_by_pair_scoring(self):
        split = small_split()
        model = build_variant(ModelConfig("osnet", 3), make_rng(16))
        a_pos, u_pos = draw_partner_indices(split.n_labeled, split.n_unlabeled, 2, 3, make_rng(0))
        with pytest.raises(ValueError, match="does not score pairs"):
            score_with_partners(
                model, np.ones((2, 3)), split.a_features, split.u_features, a_pos, u_pos
            )

    def test_empty_pool_rejected(self):
        split = small_split()
        model = build_variant(ModelConfig("prenet", 3), make_rng(19))
        with pytest.raises(ValueError):
            draw_partner_indices(split.n_labeled, split.n_unlabeled, 3, 0, make_rng(0))
        with pytest.raises(ValueError):
            draw_partner_indices(0, split.n_unlabeled, 3, 4, make_rng(0))


def unfactored_scores(model, x, anomaly_pool, unlabeled_pool, a_pos, u_pos):
    """Reference: every pair scored on its own through forward,
    each anchor repeated once per partner."""
    n, e = a_pos.shape
    anchors = np.repeat(x, e, axis=0)
    pairs = np.arange(2 * n * e).reshape(2, n * e)
    s_a = forward(model, np.concatenate([anomaly_pool[a_pos.ravel()], anchors]), pairs)[0]
    s_u = forward(model, np.concatenate([anchors, unlabeled_pool[u_pos.ravel()]]), pairs)[0]
    return (s_a.reshape(n, e).sum(axis=1) + s_u.reshape(n, e).sum(axis=1)) / (2.0 * e)


_BLOCK = engine._SCORE_BLOCK_ROWS

# variant, input_dim, n rows, ensemble size, |A|, |U|, feature values, output bias
FACTORED_CASES = {
    "prenet_pools_smaller_than_draw": ("prenet", 3, 20, 6, 5, 40, "normal", 0.0),
    "prenet_pools_larger_than_draw": ("prenet", 3, 4, 3, 30, 200, "normal", 0.0),
    "prenet_pools_either_side": ("prenet", 40, 10, 5, 12, 400, "normal", 1.5),
    "bor_dim_40": ("bor", 40, 7, 4, 50, 50, "normal", -0.75),
    "ldm_dim_3": ("ldm", 3, 9, 5, 20, 80, "normal", 2.0),
    "ldm_dim_40": ("ldm", 40, 9, 5, 20, 80, "normal", 0.0),
    "a2h_dim_3": ("a2h", 3, 6, 8, 10, 300, "normal", 0.5),
    "a2h_dim_40": ("a2h", 40, 6, 8, 100, 30, "normal", 0.0),
    "one_row": ("prenet", 3, 1, 30, 8, 300, "normal", 0.25),
    "one_partner": ("a2h", 40, 12, 1, 3, 300, "normal", 0.0),
    "one_row_one_partner": ("ldm", 40, 1, 1, 1, 1, "normal", -3.0),
    "signed_zeros": ("ldm", 3, 8, 4, 6, 60, "negative_zero", 0.0),
    "signed_zeros_hidden": ("prenet", 40, 8, 4, 60, 6, "negative_zero", 0.0),
    "huge_values": ("prenet", 40, 5, 6, 10, 100, "huge", 1.0),
    "tiny_values": ("ldm", 40, 5, 6, 100, 10, "tiny", 1.0),
    "huge_values_deep": ("a2h", 3, 5, 6, 10, 100, "huge", 0.0),
    # rows of x around and past the stack passes and scoring blocks; in the
    # last two cases a pool outnumbers the draws, so it stacks its drawn rows
    "x_block_minus_one": ("prenet", 3, _BLOCK - 1, 2, 5, 50, "normal", 0.5),
    "x_block": ("prenet", 3, _BLOCK, 2, 5, 50, "normal", 0.5),
    "x_block_plus_one": ("prenet", 3, _BLOCK + 1, 2, 5, 50, "normal", 0.5),
    "x_two_blocks_plus_one": ("prenet", 3, 2 * _BLOCK + 1, 2, 5, 50, "normal", 0.5),
    "x_blocks_drawn_pool": ("prenet", 3, _BLOCK + 1, 1, 3, 3 * _BLOCK, "normal", 0.5),
    "x_blocks_drawn_pools": ("ldm", 3, 2 * _BLOCK + 1, 1, 3 * _BLOCK, 3 * _BLOCK, "normal", 0.5),
    # pools that are stacked whole and span several stack passes
    "x_whole_pools_own_passes": ("prenet", 3, 150, 30, 2 * _BLOCK + 37, _BLOCK + 50, "normal", 0.5),
}


def _factored_rows(rng, n_rows, dim, values):
    x = rng.standard_normal((n_rows, dim))
    if values == "negative_zero":
        x[rng.random(x.shape) < 0.5] = -0.0
        x[::2] = -0.0
    elif values == "huge":
        x *= 1e300
    elif values == "tiny":
        x *= 1e-300
    return x


@pytest.mark.parametrize("case", sorted(FACTORED_CASES))
def test_factored_scoring_bytes_equal_pairwise_reference(case):
    variant, dim, n, e, n_a, n_u, values, bias = FACTORED_CASES[case]
    rng = make_rng(sorted(FACTORED_CASES).index(case))
    model = build_variant(ModelConfig(variant, dim), rng)
    model.params.output_bias = bias
    x, a_pool, u_pool = (_factored_rows(rng, rows, dim, values) for rows in (n, n_a, n_u))
    a_pos, u_pos = draw_partner_indices(n_a, n_u, n, e, rng)
    with np.errstate(over="ignore", invalid="ignore"):
        got = score_with_partners(model, x, a_pool, u_pool, a_pos, u_pos)
        expect = unfactored_scores(model, x, a_pool, u_pool, a_pos, u_pos)
    assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("n, e, n_a, n_u", [(8, 30, 5, 1650), (50, 4, 300, 150), (1, 1, 2, 2)])
def test_factored_scoring_runs_each_distinct_row_once(monkeypatch, n, e, n_a, n_u):
    rng = make_rng(50)
    model = build_variant(ModelConfig("prenet", 3), rng)
    x, a_pool, u_pool = (rng.standard_normal((rows, 3)) for rows in (n, n_a, n_u))
    a_pos, u_pos = draw_partner_indices(n_a, n_u, n, e, rng)
    rows = []
    real_features = engine.features

    def counting_features(params, batch):
        rows.append(len(batch))
        return real_features(params, batch)

    monkeypatch.setattr(engine, "features", counting_features)
    score_with_partners(model, x, a_pool, u_pool, a_pos, u_pos)
    assert sum(rows) <= n + min(n_a, n * e) + min(n_u, n * e)


@pytest.mark.parametrize(
    "n, e, n_a, n_u",
    [
        pytest.param(8, 30, 30, 1633, id="online_shape"),  # one 278-row pass
        pytest.param(2 * _BLOCK + 1, 2, 5, 5 * _BLOCK, id="x_blocks_drawn_pool"),
        pytest.param(150, 30, 2 * _BLOCK + 1, 30, id="whole_pool_of_passes"),
        pytest.param(4, 2000, _BLOCK + 100, 3 * _BLOCK, id="whole_pools_past_one_pass"),
    ],
)
def test_scoring_stack_passes(monkeypatch, n, e, n_a, n_u):
    """One stack over ``[x; A part; U part]`` per call, run in passes of
    ``_BLOCK`` rows that may span parts: a pool of at most n·E rows is
    stacked whole, a larger one stacks its n·E drawn rows."""
    rng = make_rng(51)
    model = build_variant(ModelConfig("prenet", 3), rng)
    x, a_pool, u_pool = (rng.standard_normal((rows, 3)) for rows in (n, n_a, n_u))
    a_pos, u_pos = draw_partner_indices(n_a, n_u, n, e, rng)
    rows = []
    real_features = engine.features

    def counting_features(params, batch):
        rows.append(len(batch))
        return real_features(params, batch)

    monkeypatch.setattr(engine, "features", counting_features)
    score_with_partners(model, x, a_pool, u_pool, a_pos, u_pos)
    total = n + min(n_a, n * e) + min(n_u, n * e)
    assert rows == [min(_BLOCK, total - r0) for r0 in range(0, total, _BLOCK)]


@pytest.mark.parametrize(
    "n,e,n_a,n_u",
    [
        pytest.param(20_000, 30, 30, 1633, id="pools_run_whole"),
        pytest.param(20_000, 2, 50_000, 50_000, id="pools_larger_than_draws"),
        pytest.param(4000, 30, 100_000, 100_000, id="large_pools_run_whole"),
    ],
)
def test_bulk_scoring_memory_is_bounded(n, e, n_a, n_u):
    """One call, partner draws included, stays under 16 MB of transient
    allocations. It peaks at 7.3, 10.4 and 6.2 MB, the second case
    holding its 2·40 000 drawn rows at once; it was 27.9 MB and 47.8 MB
    for the first two cases when the pair scores of all rows were
    gathered at once with int64 draws, and 81.9 MB for the third when
    the stack ran in one pass however large."""
    rng = make_rng(60)
    model = build_variant(ModelConfig("prenet", 10), rng)
    x, a_pool, u_pool = (rng.standard_normal((rows, 10)) for rows in (n, n_a, n_u))
    tracemalloc.start()
    try:
        a_pos, u_pos = draw_partner_indices(n_a, n_u, n, e, rng)
        score_with_partners(model, x, a_pool, u_pool, a_pos, u_pos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("pool_size", [7, 30, 1633, 2**31 - 1])
def test_partner_draws_are_int32_and_consume_the_generator_like_int64(pool_size):
    rng, reference = make_rng(70), make_rng(70)
    a_pos, u_pos = draw_partner_indices(pool_size, pool_size, 500, 30, rng)
    assert a_pos.dtype == u_pos.dtype == np.int32
    assert np.array_equal(a_pos, reference.integers(0, pool_size, size=(500, 30)))
    assert np.array_equal(u_pos, reference.integers(0, pool_size, size=(500, 30)))
    assert rng.bit_generator.state == reference.bit_generator.state


class TestScoresCsv:
    def test_round_trip_with_labels(self, tmp_path):
        scores = make_rng(0).standard_normal(9)
        labels = (make_rng(1).standard_normal(9) > 0).astype(int)
        path = tmp_path / "s.csv"
        write_scores_csv(path, scores, labels)
        s2, l2 = read_scores_csv(path)
        assert np.array_equal(s2, scores)  # repr round-trips float64 exactly
        assert np.array_equal(l2, labels)

    def test_round_trip_without_labels(self, tmp_path):
        scores = make_rng(2).standard_normal(4)
        path = tmp_path / "s.csv"
        write_scores_csv(path, scores)
        s2, l2 = read_scores_csv(path)
        assert np.array_equal(s2, scores)
        assert l2 is None

    @pytest.mark.parametrize(
        "text, scores, labels",
        [
            ("score,row_index\n0.25,0\n0.75,1\n", [0.25, 0.75], None),
            # 0/1 scores after the labels are not taken for labels
            ("row_index,true_label,score\n0,1,0\n1,0,1\n2,0,1\n", [0.0, 1.0, 1.0], [1, 0, 0]),
        ],
    )
    def test_columns_are_found_by_name(self, tmp_path, text, scores, labels):
        path = tmp_path / "s.csv"
        path.write_text(text)
        got_scores, got_labels = read_scores_csv(path)
        assert list(got_scores) == scores
        assert (got_labels if labels is None else list(got_labels)) == labels

    def test_header_without_score_column_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,b\n0.5,1\n")
        with pytest.raises(SchemaError, match="no 'score' column"):
            read_scores_csv(path)
