"""The one CSV reader and writer, for dataset and scores files, and
the construction of the weak-supervision world: a small labeled anomaly
pool A and a large contaminated unlabeled pool U.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, DataError, SchemaError


@dataclass
class LabeledDataset:
    """Feature matrix with binary labels (1 = anomaly, 0 = normal)."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: list[str] | None = None

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64).ravel()
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape[0] != self.features.shape[0]:
            raise ValueError(
                f"{self.labels.shape[0]} labels for {self.features.shape[0]} rows"
            )
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise ValueError("labels must be 0 or 1")
        if not np.all(np.isfinite(self.features)):
            raise DataError("features contain NaN or Inf")
        if self.feature_names is not None and len(self.feature_names) != self.dim:
            raise ValueError("feature_names length does not match feature count")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_anomalies(self) -> int:
        return int(self.labels.sum())

    def subset(self, idx) -> "LabeledDataset":
        return LabeledDataset(
            self.features[idx], self.labels[idx], self.feature_names
        )


@dataclass
class WeakSupervisionSplit:
    """Training-time world state.

    ``features`` is the training feature store: rows ``[:n_unlabeled]``
    are the unlabeled pool U and the rest the labeled anomaly pool A, so
    the two pools are disjoint by construction and both are nonempty.
    ``true_labels`` keeps the ground truth of every store row for
    diagnostics only; training must not consult it. ``seed`` and the
    test fields (``build_weak_supervision``'s ``seed=``/``test=``) remain
    only for the benchmark's scoring set-up; no other module of the
    package names the test fields, so training and scoring never read
    test data off a split.
    """

    features: np.ndarray
    true_labels: np.ndarray
    n_unlabeled: int
    seed: int | None = None
    test_features: np.ndarray | None = None
    test_labels: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.true_labels = np.asarray(self.true_labels, dtype=np.int64).ravel()
        if not 1 <= self.n_unlabeled < len(self.features):
            raise ValueError(f"n_unlabeled {self.n_unlabeled} leaves U or A empty")

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_labeled(self) -> int:
        return len(self.features) - self.n_unlabeled

    @property
    def a_features(self) -> np.ndarray:
        return self.features[self.n_unlabeled :]

    @property
    def u_features(self) -> np.ndarray:
        return self.features[: self.n_unlabeled]


def load_feature_csv(
    path, label_column: str = "label", anomaly_value: str | None = None
) -> tuple[np.ndarray, np.ndarray | None, list[str]]:
    """Parse a headered CSV; the one reader of dataset and scores files.

    Header and label cells are stripped and blank lines skipped. Every row
    must be as wide as the header, and every column but the label column
    (optional, at any position) must hold finite numbers, or
    :class:`SchemaError` is raised. Returns ``(features, labels_or_None,
    feature_names)``, the labels mapped by :func:`binary_labels`.
    """
    with open(path, newline="") as fh:
        reader = _records(fh, path)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        label_pos = header.index(label_column) if label_column in header else None
        feature_names = [h for i, h in enumerate(header) if i != label_pos]
        if not feature_names:
            raise SchemaError(f"{path}: no feature column besides {label_column!r}")
        raw_labels: list[str] = []
        last = [0, []]  # number and feature cells of the row yielded last

        def feature_cells():
            for row_no, record in enumerate(reader, start=2):
                if not record or (len(record) == 1 and not record[0].strip()):
                    continue
                if len(record) != len(header):
                    raise SchemaError(
                        f"row {row_no} has {len(record)} cells, header has {len(header)}"
                    )
                if label_pos is not None:
                    raw_labels.append(record.pop(label_pos).strip())
                last[:] = row_no, record
                yield record

        # each cell goes straight into the array; no row is kept as Python floats
        try:
            values = np.fromiter(map(float, chain.from_iterable(feature_cells())), np.float64)
        except ValueError:
            for cell, name in zip(last[1], feature_names):
                try:
                    float(cell)
                except ValueError:
                    raise SchemaError(
                        f"non-numeric value {cell.strip()!r} at row {last[0]}, column {name!r}"
                    ) from None
            raise
    if not values.size:
        raise SchemaError(f"{path}: no data rows")
    features = values.reshape(-1, len(feature_names))
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        row, col = bad[0]
        raise SchemaError(
            f"{path}: non-finite value {float(features[row, col])!r} in data row {row + 1}, "
            f"column {feature_names[col]!r}"
        )
    labels = None if label_pos is None else binary_labels(raw_labels, anomaly_value)
    return features, labels, feature_names


def _records(fh, path):
    """The CSV records of ``fh``; a record the csv module rejects (say, a
    quoted field past its size limit) is a :class:`SchemaError`."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise SchemaError(f"{path}: {exc} at line {reader.line_num}") from None


def load_csv(
    path, label_column: str = "label", anomaly_value: str | None = None
) -> LabeledDataset:
    """Load a labeled CSV into a :class:`LabeledDataset`."""
    features, labels, feature_names = load_feature_csv(path, label_column, anomaly_value)
    if labels is None:
        raise SchemaError(f"label column {label_column!r} not found in {path}")
    return LabeledDataset(features, labels, feature_names)


def _not_binary(raw: str) -> SchemaError:
    return SchemaError(f"label value {raw!r} is not 0/1; pass an explicit anomaly value")


def binary_labels(raw_labels: Sequence[str], anomaly_value: str | None = None) -> np.ndarray:
    """Map the raw cells of a label column to 1 (anomaly) / 0 (normal).

    Without ``anomaly_value`` the column must hold only values
    numerically equal to 0 or 1, in any spelling. With it, cells equal
    to ``anomaly_value`` become anomalies and the rest normals. More
    than two distinct labels (numbers without ``anomaly_value``, cells
    with it) is rejected either way.
    """
    distinct = sorted(set(raw_labels))
    if anomaly_value is None:
        number = {}
        for v in distinct:
            try:
                number[v] = float(v)
            except ValueError:
                raise _not_binary(v) from None
        distinct = sorted(set(number.values()))
    if len(distinct) > 2:
        raise SchemaError(
            f"label column has {len(distinct)} distinct values {distinct[:5]}, "
            "expected at most 2"
        )
    if anomaly_value is not None:
        if anomaly_value not in distinct:
            raise SchemaError(
                f"anomaly value {anomaly_value!r} not present in label column "
                f"(found {distinct})"
            )
        return np.asarray([1 if v == anomaly_value else 0 for v in raw_labels])
    for v, num in number.items():
        if num not in (0.0, 1.0):
            raise _not_binary(v)
    return np.asarray([int(number[v]) for v in raw_labels])


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a headered CSV; the one writer of dataset and scores files."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_csv(ds: LabeledDataset, path, label_column: str = "label") -> None:
    """Write a dataset as a headered CSV with the label in the last column."""
    names = ds.feature_names or [f"f{i + 1}" for i in range(ds.dim)]
    rows = ([*map(repr, x.tolist()), y] for x, y in zip(ds.features, ds.labels.tolist()))
    write_csv(path, [*names, label_column], rows)


def stratified_split(
    ds: LabeledDataset, train_fraction: float, rng: np.random.Generator
) -> tuple[LabeledDataset, LabeledDataset]:
    """Split into train/test preserving per-class proportions.

    Each class contributes ``round(train_fraction * count)`` rows to the
    train side, clamped so both sides keep at least one instance of each
    class. Original row order is preserved within each side.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    train_parts, test_parts = [], []
    for cls in (0, 1):
        idx = np.flatnonzero(ds.labels == cls)
        if idx.size < 2:
            raise DataError(
                f"class {cls} has {idx.size} instance(s); need at least 2 to split"
            )
        perm = rng.permutation(idx)
        n_train = int(round(train_fraction * idx.size))
        n_train = min(max(n_train, 1), idx.size - 1)
        train_parts.append(perm[:n_train])
        test_parts.append(perm[n_train:])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    return ds.subset(train_idx), ds.subset(test_idx)


def build_weak_supervision(
    train: LabeledDataset,
    n_labeled: int,
    contamination_rate: float,
    rng: np.random.Generator,
    test: LabeledDataset | None = None,
    anomaly_types: Sequence | None = None,
    known_types: set | None = None,
    seed: int | None = None,
) -> WeakSupervisionSplit:
    """Assemble the weak-supervision world from training data.

    U receives every normal training instance plus m randomly chosen
    anomalies, where m solves m / (n_normal + m) = contamination_rate;
    A receives ``n_labeled`` further anomalies, disjoint from the
    injected ones. Anomalies left over are discarded. When
    ``anomaly_types``/``known_types`` are given, only anomalies of a
    known type are eligible for A and for injection.
    """
    if n_labeled < 2:
        raise ValueError(f"n_labeled must be >= 2, got {n_labeled}")
    if not 0.0 <= contamination_rate < 0.5:
        raise ValueError(
            f"contamination_rate must be in [0, 0.5), got {contamination_rate}"
        )
    normal_idx = np.flatnonzero(train.labels == 0)
    anom_idx = np.flatnonzero(train.labels == 1)
    if anomaly_types is not None:
        if known_types is None:
            raise ValueError("known_types required when anomaly_types is given")
        types = np.asarray(anomaly_types)
        if types.shape[0] != train.n:
            raise ValueError("anomaly_types length does not match dataset")
        keep = np.isin(types[anom_idx], list(known_types))
        anom_idx = anom_idx[keep]
    n_normal = normal_idx.size
    if n_normal < 2:
        raise DataError(f"need at least 2 normal instances, got {n_normal}")
    m = int(round(contamination_rate * n_normal / (1.0 - contamination_rate)))
    needed = n_labeled + m
    if anom_idx.size < needed:
        raise CapacityError(
            f"need {needed} anomalies ({n_labeled} labeled + {m} injected), "
            f"only {anom_idx.size} available"
        )
    perm = rng.permutation(anom_idx)
    a_src = perm[:n_labeled]
    inject_src = perm[n_labeled : n_labeled + m]
    # The store: U = [normals | injected anomalies], then A.
    store = np.concatenate(
        [train.features[normal_idx], train.features[inject_src], train.features[a_src]]
    )
    true_labels = np.concatenate(
        [np.zeros(n_normal, dtype=np.int64), np.ones(m + n_labeled, dtype=np.int64)]
    )
    return WeakSupervisionSplit(
        features=store,
        true_labels=true_labels,
        n_unlabeled=n_normal + m,
        seed=seed,
        test_features=None if test is None else test.features.copy(),
        test_labels=None if test is None else test.labels.copy(),
    )


def apply_standardization(
    features: np.ndarray, mean: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """Apply a previously fitted standardization map."""
    return (np.asarray(features, dtype=np.float64) - mean) / scale


def standardize_split(
    split: WeakSupervisionSplit,
) -> tuple[WeakSupervisionSplit, np.ndarray, np.ndarray]:
    """Standardize a split's store and its test data by the mean and
    (population) std of the store, which is U then A; a feature with std
    below 1e-12 is centered only. Returns ``(split, mean, scale)``,
    ``scale`` being the divisor used; the labels are shared with
    ``split``, which nothing mutates."""
    std = split.features.std(axis=0)
    mean, scale = split.features.mean(axis=0), np.where(std < 1e-12, 1.0, std)
    test = split.test_features
    new = replace(
        split,
        features=apply_standardization(split.features, mean, scale),
        test_features=None if test is None else apply_standardization(test, mean, scale),
    )
    return new, mean, scale
