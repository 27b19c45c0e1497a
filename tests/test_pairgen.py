import numpy as np
import pytest

from prenet.dataset import LabeledDataset, build_weak_supervision
from prenet.model import ModelConfig, batch_targets
from prenet.ndcore import make_rng
from prenet.pairgen import (
    OrdinalLabels,
    PairClass,
    expected_scores,
    expected_true_relation_proportions,
    mislabel_fraction,
    sample_instance_batch,
    sample_pair_batch,
)

LABELS = OrdinalLabels()
PRENET = ModelConfig("prenet", 3)


def make_split(n_normal=100, n_anomaly=40, n_labeled=10, eps=0.0, dim=3, seed=0):
    rng = make_rng(seed)
    features = rng.standard_normal((n_normal + n_anomaly, dim))
    labels = np.concatenate([np.zeros(n_normal, int), np.ones(n_anomaly, int)])
    ds = LabeledDataset(features, labels)
    return build_weak_supervision(ds, n_labeled, eps, rng)


class TestOrdinalLabels:
    def test_defaults(self):
        assert (LABELS.aa, LABELS.au, LABELS.uu) == (8.0, 4.0, 0.0)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            OrdinalLabels(4.0, 8.0, 0.0)
        with pytest.raises(ValueError):
            OrdinalLabels(8.0, 4.0, -1.0)
        OrdinalLabels(2.0, 1.0, 0.0)  # any decreasing nonnegative triple is fine

    @pytest.mark.parametrize("aa", [np.inf, np.nan])
    def test_non_finite_rejected(self, aa):
        with pytest.raises(ValueError, match="finite"):
            OrdinalLabels(aa, 4.0, 0.0)


class TestSamplePairBatch:
    def test_composition_exact(self):
        split = make_split()
        batch = sample_pair_batch(split, 512, make_rng(0))
        assert len(batch) == 512
        assert (batch.classes == PairClass.AA).sum() == 128
        assert (batch.classes == PairClass.AU).sum() == 128
        assert (batch.classes == PairClass.UU).sum() == 256

    def test_targets_follow_classes(self):
        split = make_split()
        batch = sample_pair_batch(split, 64, make_rng(1))
        for cls, want in [(PairClass.AA, 8.0), (PairClass.AU, 4.0), (PairClass.UU, 0.0)]:
            assert np.all(batch_targets(PRENET, batch)[batch.classes == cls] == want)

    def test_block_order(self):
        split = make_split()
        batch = sample_pair_batch(split, 16, make_rng(2))
        assert list(batch.classes) == [PairClass.AA] * 4 + [PairClass.AU] * 4 + [PairClass.UU] * 8

    def test_au_left_side_always_from_labeled_pool(self):
        split = make_split()
        for seed in range(5):
            batch = sample_pair_batch(split, 64, make_rng(seed))
            au = batch.classes == PairClass.AU
            assert np.all(batch.slot_index[0][au] >= split.n_unlabeled)  # A rows
            assert np.all(batch.slot_index[1][au] < split.n_unlabeled)  # U rows

    def test_indices_match_features(self):
        split = make_split()
        batch = sample_pair_batch(split, 32, make_rng(3))
        assert np.array_equal(batch.rows, split.features[batch.row_index])
        assert np.all(np.diff(batch.row_index) > 0)  # distinct, ascending store order
        assert batch.positions.shape == (2, 32)
        assert np.array_equal(batch.rows[batch.positions[0]], split.features[batch.slot_index[0]])
        assert np.array_equal(batch.rows[batch.positions[1]], split.features[batch.slot_index[1]])
        used = np.union1d(batch.slot_index[0], batch.slot_index[1])
        assert np.array_equal(batch.row_index, used)

    def test_slot_indices_equal_direct_draws(self):
        """Deduplication leaves the drawn pairs and the generator as they
        were: slot i pairs the store rows that six draws indexing each
        pool's row range give."""
        split = make_split(n_labeled=3)
        rng, reference = make_rng(4), make_rng(4)
        batch = sample_pair_batch(split, 16, rng)
        a = np.arange(split.n_unlabeled, len(split.features))
        u = np.arange(split.n_unlabeled)
        draws = [
            pool[reference.integers(0, pool.size, size=n)]
            for pool, n in ((a, 4), (a, 4), (a, 4), (u, 4), (u, 8), (u, 8))
        ]
        assert np.array_equal(batch.slot_index[0], np.concatenate(draws[0::2]))
        assert np.array_equal(batch.slot_index[1], np.concatenate(draws[1::2]))
        assert len(batch.rows) < 32  # three A rows fill eight A slots
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_singleton_pools(self):
        split = make_split()
        tiny = type(split)(split.features[[0, -1]], split.true_labels[[0, -1]], n_unlabeled=1)
        batch = sample_pair_batch(tiny, 4, make_rng(0))
        a, u = 1, 0
        assert list(batch.slot_index[0]) == [a, a, u, u]
        assert list(batch.slot_index[1]) == [a, u, u, u]

    def test_batch_size_validation(self):
        split = make_split()
        with pytest.raises(ValueError):
            sample_pair_batch(split, 6, make_rng(0))
        with pytest.raises(ValueError):
            sample_pair_batch(split, 0, make_rng(0))

    def test_aa_left_uniform_over_pool(self):
        split = make_split(n_labeled=3)
        counts = np.zeros(3)
        rng = make_rng(11)
        n_batches = 10_000
        for _ in range(n_batches):
            batch = sample_pair_batch(split, 4, rng)
            pos = batch.slot_index[0, 0] - split.n_unlabeled
            counts[pos] += 1
        freq = counts / n_batches
        assert np.all(np.abs(freq - 1.0 / 3.0) < 0.02)


class TestSampleInstanceBatch:
    def test_balance_and_targets(self):
        split = make_split()
        batch = sample_instance_batch(split, 64, make_rng(0))
        assert list(batch.classes) == [PairClass.AU] * 32 + [PairClass.UU] * 32
        targets = batch_targets(ModelConfig("osnet", 3), batch)
        assert list(targets) == [4.0] * 32 + [0.0] * 32

    def test_pool_membership(self):
        split = make_split()
        batch = sample_instance_batch(split, 32, make_rng(1))
        for i, cls in zip(batch.slot_index[0], batch.classes):
            assert (i >= split.n_unlabeled) == (cls == PairClass.AU)
        assert batch.positions.shape == (1, 32)
        assert np.all(np.diff(batch.row_index) > 0)
        assert np.array_equal(batch.rows[batch.positions[0]], split.features[batch.slot_index[0]])

    def test_odd_batch_rejected(self):
        with pytest.raises(ValueError):
            sample_instance_batch(make_split(), 3, make_rng(0))


class TestTheoryCalculators:
    def test_proportions_eps_zero(self):
        assert expected_true_relation_proportions(0.0) == (0.25, 0.25, 0.5)

    def test_proportions_eps_005(self):
        p_aa, p_an, p_nn = expected_true_relation_proportions(0.05)
        assert p_aa == pytest.approx(0.26375, abs=1e-12)
        assert p_an == pytest.approx(0.285, abs=1e-12)
        assert p_nn == pytest.approx(0.45125, abs=1e-12)

    def test_proportions_sum_to_one(self):
        for eps in np.linspace(0.0, 0.99, 23):
            assert sum(expected_true_relation_proportions(eps)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_mislabel_values(self):
        assert mislabel_fraction(0.0) == 0.0
        assert mislabel_fraction(0.05) == pytest.approx(0.0975, abs=1e-12)
        assert mislabel_fraction(0.02) == pytest.approx(0.0396, abs=1e-12)

    def test_expected_scores_defaults(self):
        anom, norm = expected_scores(LABELS, 0.05)
        assert anom == pytest.approx(5.808, abs=5e-4)
        assert norm == pytest.approx(1.818, abs=5e-4)

    def test_expected_scores_eps_zero(self):
        anom, norm = expected_scores(OrdinalLabels(8, 4, 0), 0.0)
        assert (anom, norm) == (6.0, 2.0)

    def test_separation_for_any_valid_labels(self):
        # both are means of targets, and a normal's pairs hold fewer
        # anomalies: uu < normal < anomaly < aa for every valid triple
        rng = make_rng(5)
        for _ in range(50):
            uu = float(rng.uniform(0, 2))
            au = uu + float(rng.uniform(0.1, 3))
            aa = au + float(rng.uniform(0.1, 3))
            labels = OrdinalLabels(aa, au, uu)
            for eps in (0.0, 0.1, 0.49, 0.9):
                anom, norm = expected_scores(labels, eps)
                assert uu < norm < anom < aa

    def test_default_separation_gap(self):
        # contamination pulls the two means together: the gap is 4 at
        # eps = 0 and shrinks as eps grows
        gaps = [np.subtract(*expected_scores(LABELS, eps)) for eps in np.linspace(0.0, 0.5, 11)]
        assert gaps[0] == 4.0
        assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))
        assert gaps[-1] > 0

    def test_eps_validation(self):
        for fn in (expected_true_relation_proportions, mislabel_fraction):
            with pytest.raises(ValueError):
                fn(-0.1)
            with pytest.raises(ValueError):
                fn(1.0)


class TestEmpiricalProportions:
    def test_monte_carlo_matches_formulas(self):
        # unlabeled pool with exactly 5% true anomalies
        split = make_split(n_normal=1900, n_anomaly=200, n_labeled=60, eps=0.05, seed=4)
        u_true = split.true_labels[: split.n_unlabeled]
        assert u_true.mean() == pytest.approx(0.05)
        rng = make_rng(99)
        n_pairs = 0
        counts = {"aa": 0, "an": 0, "nn": 0}
        uu_total = 0
        uu_mislabeled = 0
        for _ in range(196):  # 196 * 512 > 1e5 pairs
            batch = sample_pair_batch(split, 512, rng)
            lt = split.true_labels[batch.slot_index[0]]
            rt = split.true_labels[batch.slot_index[1]]
            both = lt + rt
            counts["aa"] += int((both == 2).sum())
            counts["an"] += int((both == 1).sum())
            counts["nn"] += int((both == 0).sum())
            n_pairs += len(batch)
            uu = batch.classes == PairClass.UU
            uu_total += int(uu.sum())
            uu_mislabeled += int((both[uu] > 0).sum())
        p_aa, p_an, p_nn = expected_true_relation_proportions(0.05)
        assert counts["aa"] / n_pairs == pytest.approx(p_aa, abs=0.01)
        assert counts["an"] / n_pairs == pytest.approx(p_an, abs=0.01)
        assert counts["nn"] / n_pairs == pytest.approx(p_nn, abs=0.01)
        assert uu_mislabeled / uu_total == pytest.approx(mislabel_fraction(0.05), abs=0.01)

    def test_monte_carlo_matches_expected_scores(self):
        """A fit that sees only the members' true classes scores each
        ordered pair of them by its mean target over sampled batches; the
        ensemble means of true anomalies and true normals then match."""
        split = make_split(n_normal=1900, n_anomaly=200, n_labeled=60, eps=0.05, seed=4)
        true = split.true_labels
        rng = make_rng(7)
        total, count = np.zeros((2, 2)), np.zeros((2, 2))
        for _ in range(400):
            batch = sample_pair_batch(split, 512, rng)
            cell = (true[batch.slot_index[0]], true[batch.slot_index[1]])
            np.add.at(total, cell, batch_targets(PRENET, batch))
            np.add.at(count, cell, 1)
        fit = total / count
        # pair every true anomaly and true normal of the store with drawn partners
        a = split.n_unlabeled + rng.choice(split.n_labeled, size=(len(true), 30))
        u = rng.choice(split.n_unlabeled, size=(len(true), 30))
        x = true[:, None]
        score = np.concatenate([fit[true[a], x], fit[x, true[u]]], axis=1).mean(axis=1)
        anom, norm = expected_scores(LABELS, 0.05)
        assert score[true == 1].mean() == pytest.approx(anom, abs=0.02)
        assert score[true == 0].mean() == pytest.approx(norm, abs=0.02)
        assert fit[0, 0] == fit[0, 1] == LABELS.uu
