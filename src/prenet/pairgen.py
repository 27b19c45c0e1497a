"""Pairing-based data augmentation: stratified batches of instance
pairs (or single instances) that carry each slot's pair class, the
ordinal targets per class, and closed-form calculators for the behavior
of the augmented training stream under contamination.
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
    number of labeled anomalies in the pair: aa > au > uu >= 0, all
    finite."""

    aa: float = 8.0
    au: float = 4.0
    uu: float = 0.0

    def __post_init__(self):
        if not (np.inf > self.aa > self.au > self.uu >= 0.0):
            raise ValueError(
                f"ordinal labels must be finite with aa > au > uu >= 0, "
                f"got ({self.aa}, {self.au}, {self.uu})"
            )


@dataclass
class Batch:
    """Stratified mini-batch of pair or instance slots, held as its
    distinct store rows.

    ``rows`` holds each store row the batch uses once, in ascending
    store order (``row_index``); ``positions`` is the ``streams x
    batch`` array of each slot's position among them: row 0 for the
    left stream and row 1 for the right in a pair batch, one row in an
    instance batch. ``classes`` holds each slot's :class:`PairClass`;
    an instance from A is ``AU`` and one from U is ``UU``. Only
    :func:`prenet.model.batch_targets` turns classes into targets.
    """

    rows: np.ndarray
    row_index: np.ndarray
    positions: np.ndarray
    classes: np.ndarray

    def __len__(self) -> int:
        return self.classes.shape[0]

    @property
    def slot_index(self) -> np.ndarray:
        """Store index of each slot, ``streams x batch``."""
        return self.row_index[self.positions]


def _batch(
    split: WeakSupervisionSplit, slot_index: np.ndarray, counts: list[int], classes: list
) -> Batch:
    """The batch of a ``streams x batch`` array of slot indices whose slots
    run in blocks of ``counts`` slots of each of ``classes``. Sorting the
    slots costs the same whatever the size of the store."""
    row_index, positions = np.unique(slot_index.ravel(), return_inverse=True)
    rows = split.features.take(row_index, axis=0)
    slot_classes = np.repeat(np.array(classes, np.uint8), counts)
    return Batch(rows, row_index, positions.reshape(slot_index.shape), slot_classes)


def _pick(start: int, stop: int, n: int, rng: np.random.Generator) -> np.ndarray:
    return start + rng.integers(0, stop - start, size=n)


def sample_pair_batch(
    split: WeakSupervisionSplit, batch_size: int, rng: np.random.Generator
) -> Batch:
    """Draw a stratified pair batch: b/4 AA, b/4 AU, b/2 UU, in that
    block order. AU slots carry the labeled anomaly on the left.

    Sampling is uniform with replacement within each pool (self-pairs
    allowed), so the batch is well defined even for tiny pools. The
    composition is exact for every batch, not just in expectation.
    """
    if batch_size < 4 or batch_size % 4:
        raise ValueError(f"batch_size must be a positive multiple of 4, got {batch_size}")
    n_aa = n_au = batch_size // 4
    n_uu = batch_size // 2
    u, end = split.n_unlabeled, len(split.features)  # U is [0, u), A is [u, end)
    aa_l = _pick(u, end, n_aa, rng)
    aa_r = _pick(u, end, n_aa, rng)
    au_l = _pick(u, end, n_au, rng)
    au_r = _pick(0, u, n_au, rng)
    uu_l = _pick(0, u, n_uu, rng)
    uu_r = _pick(0, u, n_uu, rng)
    slot_index = np.stack([np.concatenate([aa_l, au_l, uu_l]), np.concatenate([aa_r, au_r, uu_r])])
    return _batch(split, slot_index, [n_aa, n_au, n_uu], list(PairClass))


def sample_instance_batch(
    split: WeakSupervisionSplit, batch_size: int, rng: np.random.Generator
) -> Batch:
    """Draw a balanced single-instance batch: b/2 from A (class AU), b/2
    from U (class UU)."""
    if batch_size < 2 or batch_size % 2:
        raise ValueError(f"batch_size must be a positive multiple of 2, got {batch_size}")
    half = batch_size // 2
    u, end = split.n_unlabeled, len(split.features)
    a_idx = _pick(u, end, half, rng)
    u_idx = _pick(0, u, half, rng)
    slot_index = np.concatenate([a_idx, u_idx])[None, :]
    return _batch(split, slot_index, [half, half], [PairClass.AU, PairClass.UU])


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
    # weighted averages with weights summing to 1, so no value exceeds aa
    d_aa, d_an = 1.0 + eps + 2.0 * eps * eps, 1.0 + 2.0 * eps
    f_aa = labels.aa / d_aa + eps / d_aa * labels.au + 2.0 * eps * eps / d_aa * labels.uu
    f_an = labels.au / d_an + 2.0 * eps / d_an * labels.uu
    anomaly_mean = (1.0 + eps) / 2.0 * f_aa + (1.0 - eps) / 2.0 * f_an
    normal_mean = f_an / 2.0 + labels.uu / 2.0
    return anomaly_mean, normal_mean
