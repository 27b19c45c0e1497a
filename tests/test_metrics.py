import numpy as np
import pytest

from prenet.metrics import (
    MetricsReport,
    aggregate_runs,
    auc_pr,
    auc_roc,
    evaluate,
)
from prenet.ndcore import make_rng


def brute_force_auc_roc(scores, labels):
    """Count anomaly-normal pairs won, half credit for ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def brute_force_auc_pr(scores, labels):
    """Walk every distinct score as a threshold, accumulating step areas."""
    n_pos = sum(labels)
    thresholds = sorted(set(scores), reverse=True)
    ap = 0.0
    prev_tp = 0
    for t in thresholds:
        tp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 1)
        kept = sum(1 for s in scores if s >= t)
        ap += (tp - prev_tp) * (tp / kept)
        prev_tp = tp
    return ap / n_pos


def random_instance(rng, allow_all_pos=False):
    n = int(rng.integers(2, 21))
    if rng.random() < 0.5:
        scores = rng.integers(0, 4, size=n).astype(float)  # heavy ties
    else:
        scores = np.round(rng.standard_normal(n), 2)
    while True:
        labels = (rng.random(n) < 0.4).astype(int)
        if labels.sum() == 0:
            continue
        if not allow_all_pos and labels.sum() == n:
            continue
        return scores, labels


class TestAucRoc:
    def test_perfect_separation(self):
        assert auc_roc([5.0, 4.0, 1.0, 0.0], [1, 1, 0, 0]) == 1.0

    def test_all_ties_is_half(self):
        assert auc_roc([2.0, 2.0, 2.0, 2.0], [1, 0, 1, 0]) == 0.5

    def test_hand_example(self):
        # anomaly pairs: (.9>.8), (.9>.6), (.7<.8), (.7>.6) -> 3/4
        assert auc_roc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == 0.75

    def test_matches_brute_force_exactly(self):
        rng = make_rng(101)
        for _ in range(500):
            scores, labels = random_instance(rng)
            assert auc_roc(scores, labels) == brute_force_auc_roc(
                scores.tolist(), labels.tolist()
            )

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc_roc([1.0, 2.0], [1, 1])
        with pytest.raises(ValueError):
            auc_roc([1.0, 2.0], [0, 0])

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValueError):
            auc_roc([1.0, float("nan")], [1, 0])
        with pytest.raises(ValueError):
            auc_pr([float("inf"), 1.0], [1, 0])

    def test_complement_under_negation(self):
        rng = make_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            scores = rng.standard_normal(n)  # continuous, no ties
            labels = (rng.random(n) < 0.5).astype(int)
            if labels.sum() in (0, n):
                continue
            total = auc_roc(scores, labels) + auc_roc(-scores, labels)
            assert total == pytest.approx(1.0, abs=1e-12)


class TestAucPr:
    def test_perfect_ranking(self):
        assert auc_pr([4.0, 3.0, 1.0, 0.5], [1, 1, 0, 0]) == 1.0

    @pytest.mark.parametrize("n_pos", [1, 6, 9, 21, 27, 100])
    def test_perfect_ranking_is_exactly_one(self, n_pos):
        # summing n_pos terms of 1/n_pos drifts off 1.0 for these counts
        scores = np.arange(n_pos + 5, 0, -1, dtype=float)
        labels = [1] * n_pos + [0] * 5
        assert auc_pr(scores, labels) == 1.0
        assert auc_pr(np.ones(n_pos), [1] * n_pos) == 1.0

    def test_hand_example(self):
        # thresholds .9/.8/.7: precision 0, 1/2, 2/3 at recall 0, 1/2, 1 -> 7/12
        assert auc_pr([0.9, 0.8, 0.7], [0, 1, 1]) == pytest.approx(7.0 / 12.0, abs=1e-15)

    def test_all_tied_equals_prevalence(self):
        assert auc_pr([1.0, 1.0, 1.0, 1.0], [1, 0, 0, 1]) == 0.5
        assert auc_pr([3.0] * 5, [1, 0, 0, 0, 0]) == pytest.approx(0.2)

    def test_matches_exhaustive_threshold_oracle_exactly(self):
        rng = make_rng(202)
        for _ in range(500):
            scores, labels = random_instance(rng, allow_all_pos=True)
            assert auc_pr(scores, labels) == brute_force_auc_pr(
                scores.tolist(), labels.tolist()
            )

    def test_no_anomalies_rejected(self):
        with pytest.raises(ValueError):
            auc_pr([1.0, 2.0], [0, 0])


class TestMonotoneInvariance:
    def test_both_metrics_invariant(self):
        rng = make_rng(33)
        for _ in range(100):
            scores, labels = random_instance(rng)
            r0, p0 = auc_roc(scores, labels), auc_pr(scores, labels)
            for transform in (lambda s: 3.0 * s - 7.0, np.arctan):
                t = transform(scores)
                assert auc_roc(t, labels) == r0
                assert auc_pr(t, labels) == p0


class TestAggregate:
    def test_single_run(self):
        rep = MetricsReport(0.9, 0.5, 10, 2, seed=0)
        agg = aggregate_runs([rep])
        assert agg.auc_roc_mean == 0.9 and agg.auc_roc_std == 0.0
        assert agg.n_runs == 1

    def test_two_values_population_std(self):
        reps = [MetricsReport(0.2, 0.2, 5, 1), MetricsReport(0.4, 0.4, 5, 1)]
        agg = aggregate_runs(reps)
        assert agg.auc_roc_mean == pytest.approx(0.3)
        assert agg.auc_roc_std == pytest.approx(0.1)  # population, not sample

    def test_identical_runs_zero_std(self):
        reps = [MetricsReport(0.7, 0.3, 5, 1)] * 10
        agg = aggregate_runs(reps)
        assert agg.auc_roc_std == 0.0
        assert agg.auc_pr_std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([])

    def test_mean_recomputable_from_runs(self):
        rng = make_rng(4)
        reps = [
            MetricsReport(float(rng.random()), float(rng.random()), 5, 1)
            for _ in range(7)
        ]
        agg = aggregate_runs(reps)
        assert agg.auc_pr_mean == pytest.approx(
            np.mean([r.auc_pr for r in agg.runs]), rel=1e-15
        )
        assert agg.auc_pr_std == pytest.approx(
            np.std([r.auc_pr for r in agg.runs]), rel=1e-12
        )


class TestEvaluate:
    def test_report_fields(self):
        rep = evaluate([3.0, 2.0, 1.0, 0.0], [1, 0, 1, 0], seed=9)
        assert rep.n_test == 4 and rep.n_anomalies == 2 and rep.seed == 9
        assert rep.auc_roc == 0.75

    def test_cross_check_against_sklearn(self):
        sklearn = pytest.importorskip("sklearn.metrics")
        rng = make_rng(77)
        for _ in range(100):
            scores, labels = random_instance(rng)
            assert auc_roc(scores, labels) == pytest.approx(
                sklearn.roc_auc_score(labels, scores), abs=1e-12
            )
            assert auc_pr(scores, labels) == pytest.approx(
                sklearn.average_precision_score(labels, scores), abs=1e-12
            )
