"""Pairing-based data augmentation: stratified batches of instance
pairs with ordinal targets, plus closed-form calculators for the
behavior of the augmented training stream under contamination.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .dataset import WeakSupervisionSplit


class PairClass(IntEnum):
    """Source classes of a sampled pair: both labeled anomalies, one
    labeled anomaly plus one unlabeled, or two unlabeled instances."""

    AA = 0
    AU = 1
    UU = 2


@dataclass(frozen=True)
class OrdinalLabels:
    """Ordinal regression targets per pair class, decreasing with the
    number of labeled anomalies in the pair: aa > au > uu >= 0."""

    aa: float = 8.0
    au: float = 4.0
    uu: float = 0.0

    def __post_init__(self):
        if not (self.aa > self.au > self.uu >= 0.0):
            raise ValueError(
                f"ordinal labels must satisfy aa > au > uu >= 0, "
                f"got ({self.aa}, {self.au}, {self.uu})"
            )


@dataclass
class PairBatch:
    """Stratified mini-batch of ordered instance pairs, held as its
    distinct store rows.

    ``rows`` holds each store row the batch uses once, in ascending
    store order (``row_index``); ``positions`` is the ``2 x batch``
    array of each slot's position among them, row 0 for the left stream
    and row 1 for the right. Slot layout is the AA block, then AU, then
    UU. AU slots always carry the labeled anomaly on the left.
    """

    rows: np.ndarray
    row_index: np.ndarray
    positions: np.ndarray
    targets: np.ndarray
    classes: np.ndarray

    def __len__(self) -> int:
        return self.targets.shape[0]

    @property
    def left_index(self) -> np.ndarray:
        """Store index of each slot's left member."""
        return self.row_index[self.positions[0]]

    @property
    def right_index(self) -> np.ndarray:
        """Store index of each slot's right member."""
        return self.row_index[self.positions[1]]


@dataclass
class InstanceBatch:
    """Single-instance mini-batch for the one-stream ablation: half
    labeled anomalies (target au), half unlabeled (target uu). Held like
    :class:`PairBatch`, with a ``1 x batch`` ``positions`` array."""

    rows: np.ndarray
    row_index: np.ndarray
    positions: np.ndarray
    targets: np.ndarray
    from_anomaly_pool: np.ndarray

    def __len__(self) -> int:
        return self.targets.shape[0]

    @property
    def index(self) -> np.ndarray:
        """Store index of each slot."""
        return self.row_index[self.positions[0]]


def _distinct_rows(
    split: WeakSupervisionSplit, slot_index: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct store rows of a ``streams x batch`` array of slot
    indices, in ascending store order, their store indices, and each
    slot's position among them. Sorting the slots costs the same
    whatever the size of the store."""
    row_index, positions = np.unique(slot_index.ravel(), return_inverse=True)
    rows = split.features.take(row_index, axis=0)
    return rows, row_index, positions.reshape(slot_index.shape)


def _pick(pool: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    return pool[rng.integers(0, pool.size, size=n)]


def sample_pair_batch(
    split: WeakSupervisionSplit,
    batch_size: int,
    labels: OrdinalLabels,
    rng: np.random.Generator,
) -> PairBatch:
    """Draw a stratified pair batch: b/4 AA, b/4 AU, b/2 UU.

    Sampling is uniform with replacement within each pool (self-pairs
    allowed), so the batch is well defined even for tiny pools. The
    composition is exact for every batch, not just in expectation.
    """
    if batch_size < 4 or batch_size % 4:
        raise ValueError(f"batch_size must be a positive multiple of 4, got {batch_size}")
    if split.n_labeled < 1 or split.n_unlabeled < 1:
        raise ValueError("both A and U must be nonempty for pair sampling")
    n_aa = batch_size // 4
    n_au = batch_size // 4
    n_uu = batch_size // 2
    aa_l = _pick(split.labeled_idx, n_aa, rng)
    aa_r = _pick(split.labeled_idx, n_aa, rng)
    au_l = _pick(split.labeled_idx, n_au, rng)
    au_r = _pick(split.unlabeled_idx, n_au, rng)
    uu_l = _pick(split.unlabeled_idx, n_uu, rng)
    uu_r = _pick(split.unlabeled_idx, n_uu, rng)
    slot_index = np.stack(
        [np.concatenate([aa_l, au_l, uu_l]), np.concatenate([aa_r, au_r, uu_r])]
    )
    counts = [n_aa, n_au, n_uu]
    classes = np.repeat(np.array([PairClass.AA, PairClass.AU, PairClass.UU], np.uint8), counts)
    targets = np.repeat([labels.aa, labels.au, labels.uu], counts)
    return PairBatch(*_distinct_rows(split, slot_index), targets=targets, classes=classes)


def sample_instance_batch(
    split: WeakSupervisionSplit,
    batch_size: int,
    labels: OrdinalLabels,
    rng: np.random.Generator,
) -> InstanceBatch:
    """Draw a balanced single-instance batch: b/2 from A, b/2 from U."""
    if batch_size < 2 or batch_size % 2:
        raise ValueError(f"batch_size must be a positive multiple of 2, got {batch_size}")
    half = batch_size // 2
    a_idx = _pick(split.labeled_idx, half, rng)
    u_idx = _pick(split.unlabeled_idx, half, rng)
    slot_index = np.concatenate([a_idx, u_idx])[None, :]
    targets = np.concatenate([np.full(half, labels.au), np.full(half, labels.uu)])
    from_anomaly = np.concatenate(
        [np.ones(half, dtype=bool), np.zeros(half, dtype=bool)]
    )
    return InstanceBatch(
        *_distinct_rows(split, slot_index), targets=targets, from_anomaly_pool=from_anomaly
    )


def _check_eps(eps: float) -> float:
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"contamination rate must be in [0, 1), got {eps}")
    return float(eps)


def expected_true_relation_proportions(eps: float) -> tuple[float, float, float]:
    """Expected fractions of sampled pairs whose *true* relation is
    anomaly-anomaly, anomaly-normal, and normal-normal, when the
    unlabeled pool carries anomaly fraction ``eps``.

    The three components sum to 1 for any eps.
    """
    eps = _check_eps(eps)
    p_aa = 0.25 + 0.25 * eps + 0.5 * eps * eps
    p_an = 0.25 + 0.75 * eps - eps * eps
    p_nn = 0.5 - eps + 0.5 * eps * eps
    return p_aa, p_an, p_nn


def mislabel_fraction(eps: float) -> float:
    """Expected fraction of unlabeled-unlabeled pairs containing at
    least one true anomaly, i.e. pairs whose ordinal target understates
    their true relation: 2*eps - eps**2."""
    eps = _check_eps(eps)
    return 2.0 * eps - eps * eps


def expected_scores(labels: OrdinalLabels, eps: float) -> tuple[float, float]:
    """Expected ensemble score of a true anomaly and of a true normal.

    Assumes a perfect fit that cannot tell labeled anomalies from the
    anomalies contaminating U: a pair scores the mean target of the
    sampled pairs whose members have its true classes, ``f_aa`` for two
    anomalies, ``f_an`` for an anomaly left of a normal and ``uu`` for a
    normal on the left. A scored row meets an anomaly from A on the left
    and, with probability eps, an anomaly from U on the right.
    """
    eps = _check_eps(eps)
    f_aa = (labels.aa + eps * labels.au + 2.0 * eps * eps * labels.uu) / (
        1.0 + eps + 2.0 * eps * eps
    )
    f_an = (labels.au + 2.0 * eps * labels.uu) / (1.0 + 2.0 * eps)
    anomaly_mean = ((1.0 + eps) * f_aa + (1.0 - eps) * f_an) / 2.0
    normal_mean = (f_an + labels.uu) / 2.0
    return anomaly_mean, normal_mean
