"""Ranking metrics (AUC-ROC, AUC-PR) and multi-run aggregation.

AUC-ROC is the Mann-Whitney statistic with midrank tie handling: the
probability that a random anomaly outscores a random normal, counting
ties as half. AUC-PR is non-interpolated average precision with tied
scores sharing one threshold, which prevents optimistic within-tie
orderings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _validate(scores, labels, need_normals: bool) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape[0] != labels.shape[0]:
        raise ValueError(f"{scores.shape[0]} scores for {labels.shape[0]} labels")
    if scores.shape[0] == 0:
        raise ValueError("empty inputs")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores contain NaN or Inf")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 or 1")
    if labels.sum() == 0:
        raise ValueError("metric undefined without anomalies")
    if need_normals and labels.sum() == labels.shape[0]:
        raise ValueError("metric undefined without normal instances")
    return scores, labels.astype(np.int64)


def _group_ends(sorted_scores: np.ndarray) -> np.ndarray:
    """Indices of the last element of each tie group."""
    n = sorted_scores.shape[0]
    change = np.flatnonzero(np.diff(sorted_scores))
    return np.concatenate([change, [n - 1]])


def auc_roc(scores, labels) -> float:
    """Probability that an anomaly outranks a normal, ties counted half."""
    scores, labels = _validate(scores, labels, need_normals=True)
    n = scores.shape[0]
    order = np.argsort(scores, kind="stable")
    s_sorted = scores[order]
    ends = _group_ends(s_sorted)
    starts = np.concatenate([[0], ends[:-1] + 1])
    # midrank of a group spanning 1-based ranks [start+1, end+1]
    group_rank = (starts + ends + 2) / 2.0
    ranks = np.empty(n)
    ranks[order] = np.repeat(group_rank, ends - starts + 1)
    n_pos = int(labels.sum())
    n_neg = n - n_pos
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_pr(scores, labels) -> float:
    """Average precision over the anomaly class.

    Every distinct score is one threshold; the area accumulates
    (true-positive increment) * (precision at threshold) with no
    interpolation and is divided by the anomaly count once at the end.
    Each term is at most its integer increment, so the sum never exceeds
    the anomaly count: the result lies in [0, 1], and a perfect ranking
    gives exactly 1.0.
    """
    scores, labels = _validate(scores, labels, need_normals=False)
    order = np.argsort(-scores, kind="stable")
    y = labels[order]
    ends = _group_ends(scores[order])
    tp_at = np.cumsum(y)[ends]
    n_at = ends + 1
    n_pos = int(labels.sum())
    ap = 0.0
    prev_tp = 0
    for tp, total in zip(tp_at.tolist(), n_at.tolist()):
        ap += (tp - prev_tp) * (tp / total)
        prev_tp = tp
    return ap / n_pos


@dataclass
class MetricsReport:
    auc_roc: float
    auc_pr: float
    n_test: int
    n_anomalies: int
    seed: int | None = None

    def as_dict(self) -> dict:
        return {
            "auc_roc": self.auc_roc,
            "auc_pr": self.auc_pr,
            "n_test": self.n_test,
            "n_anomalies": self.n_anomalies,
            "seed": self.seed,
        }


@dataclass
class AggregateReport:
    auc_roc_mean: float
    auc_roc_std: float
    auc_pr_mean: float
    auc_pr_std: float
    n_runs: int
    runs: list[MetricsReport]


def evaluate(scores, labels, seed: int | None = None) -> MetricsReport:
    """Both ranking metrics for one scored test set."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    return MetricsReport(
        auc_roc=auc_roc(scores, labels),
        auc_pr=auc_pr(scores, labels),
        n_test=int(labels.shape[0]),
        n_anomalies=int(labels.sum()),
        seed=seed,
    )


def _population_std(values: np.ndarray) -> float:
    # exactly 0 for identical runs (determinism regression guard)
    if np.all(values == values[0]):
        return 0.0
    return float(values.std())


def aggregate_runs(reports: list[MetricsReport]) -> AggregateReport:
    """Mean and population standard deviation over repeated runs."""
    if not reports:
        raise ValueError("no runs to aggregate")
    rocs = np.asarray([r.auc_roc for r in reports])
    prs = np.asarray([r.auc_pr for r in reports])
    return AggregateReport(
        auc_roc_mean=float(rocs.mean()),
        auc_roc_std=_population_std(rocs),
        auc_pr_mean=float(prs.mean()),
        auc_pr_std=_population_std(prs),
        n_runs=len(reports),
        runs=list(reports),
    )
