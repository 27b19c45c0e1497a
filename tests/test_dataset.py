import ast
import re
from pathlib import Path

import numpy as np
import pytest

import prenet
from prenet.dataset import (
    LabeledDataset,
    WeakSupervisionSplit,
    build_weak_supervision,
    load_csv,
    save_csv,
    standardize_split,
    stratified_split,
)
from prenet.engine import read_scores_csv
from prenet.errors import CapacityError, DataError, SchemaError
from prenet.ndcore import make_rng


def write(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def toy_dataset(n_normal=100, n_anomaly=10, dim=3, seed=0):
    rng = make_rng(seed)
    features = rng.standard_normal((n_normal + n_anomaly, dim))
    labels = np.concatenate([np.zeros(n_normal, int), np.ones(n_anomaly, int)])
    return LabeledDataset(features, labels)


class TestLoadCsv:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "f1,f2,label\n1,2,0\n3,4,1\n5,6,0\n")
        ds = load_csv(path)
        assert ds.n == 3 and ds.dim == 2
        assert ds.feature_names == ["f1", "f2"]
        assert list(ds.labels) == [0, 1, 0]
        assert np.array_equal(ds.features, [[1, 2], [3, 4], [5, 6]])

    def test_label_column_anywhere(self, tmp_path):
        path = write(tmp_path, "label,f1\n1,9\n0,8\n")
        ds = load_csv(path)
        assert list(ds.labels) == [1, 0]
        assert np.array_equal(ds.features, [[9], [8]])

    def test_string_labels_need_mapping(self, tmp_path):
        path = write(tmp_path, "f1,label\n1,normal\n2,anomaly\n")
        with pytest.raises(SchemaError, match="anomaly value"):
            load_csv(path)
        ds = load_csv(path, anomaly_value="anomaly")
        assert list(ds.labels) == [0, 1]

    def test_float_zero_one_labels(self, tmp_path):
        path = write(tmp_path, "f1,label\n1,0.0\n2,1.0\n")
        assert list(load_csv(path).labels) == [0, 1]

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = write(tmp_path, "f1,f2,label\n1,2,0\n1,oops,1\n")
        with pytest.raises(SchemaError, match=r"row 3.*'f2'"):
            load_csv(path)

    def test_empty_and_header_only_files(self, tmp_path):
        with pytest.raises(SchemaError, match="empty"):
            load_csv(write(tmp_path, "", "e.csv"))
        with pytest.raises(SchemaError, match="no data rows"):
            load_csv(write(tmp_path, "f1,label\n", "h.csv"))

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "f1,f2,label\n1,2,0\n1,2\n")
        with pytest.raises(SchemaError, match="row 3"):
            load_csv(path)

    def test_three_labels_rejected(self, tmp_path):
        path = write(tmp_path, "f1,label\n1,0\n2,1\n3,2\n")
        with pytest.raises(SchemaError, match="distinct"):
            load_csv(path)

    def test_label_spellings_of_one_class_are_one_class(self, tmp_path):
        path = write(tmp_path, "f1,label\n1,0\n2,0.0\n3,1\n4,1.0\n")
        assert list(load_csv(path).labels) == [0, 0, 1, 1]

    def test_no_feature_column_rejected(self, tmp_path):
        path = write(tmp_path, "label\n0\n1\n")
        with pytest.raises(SchemaError, match="no feature column"):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = write(tmp_path, "f1,f2\n1,2\n")
        with pytest.raises(SchemaError, match="label"):
            load_csv(path)

    def test_round_trip_through_save(self, tmp_path):
        ds = toy_dataset(20, 5, 4)
        path = tmp_path / "rt.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)


ROWS = [(1, 2.5, 1), (3, 4, 0)]
# CSV text with two number columns {a} and {b} and the label column {y},
# and what both readers make of it: ROWS as (a, b, label), or the error
AWKWARD_CSV = [
    ("plain", "{a},{b},{y}\n1,2.5,1\n3,4,0\n", ROWS),
    ("quoted_cells", '"{a}",{b},"{y}"\n"1",2.5,"1"\n3,"4",0\n', ROWS),
    ("crlf", "{a},{b},{y}\r\n1,2.5,1\r\n3,4,0\r\n", ROWS),
    ("no_final_newline", "{a},{b},{y}\n1,2.5,1\n3,4,0", ROWS),
    ("blank_lines", "{a},{b},{y}\n\n1,2.5,1\n   \n\t\n3,4,0\n\n", ROWS),
    ("padded_cells", " {a} ,\t{b},{y} \n 1 ,2.5 , 1\n3,  4,0 \n", ROWS),
    ("label_first", "{y},{a},{b}\n1,1,2.5\n0,3,4\n", ROWS),
    ("label_middle", "{a},{y},{b}\n1,1,2.5\n3,0,4\n", ROWS),
    ("short_row", "{a},{b},{y}\n1,2.5,1\n3,4\n", "row 3 has 2 cells, header has 3"),
    ("long_row", "{a},{b},{y}\n1,2.5,1,7\n3,4,0\n", "row 2 has 4 cells, header has 3"),
    ("quoted_comma", '{a},{b},{y}\n"1,5",2.5,1\n',
     "non-numeric value '1,5' at row 2, column '{a}'"),
    ("non_numeric", "{a},{b},{y}\n1,2.5,1\n3, x ,0\n",
     "non-numeric value 'x' at row 3, column '{b}'"),
    ("nan", "{a},{b},{y}\n1,nan,1\n3,4,0\n", "non-finite value nan in data row 1, column '{b}'"),
    ("inf", "{a},{b},{y}\n1,2.5,1\n-inf,4,0\n",
     "non-finite value -inf in data row 2, column '{a}'"),
]


def _read_dataset(path):
    ds = load_csv(path)
    return ds.features.tolist(), ds.labels.tolist()


def _read_scores(path):
    scores, labels = read_scores_csv(path)
    return scores.tolist(), labels.tolist()


# each reader with its names for {a}, {b} and {y}, and its result for rows (a, b, label)
READERS = {
    "dataset": (_read_dataset, dict(a="f1", b="f2", y="label"),
                lambda rows: ([[a, b] for a, b, _ in rows], [y for *_, y in rows])),
    "scores": (_read_scores, dict(a="row_index", b="score", y="true_label"),
               lambda rows: ([b for _, b, _ in rows], [y for *_, y in rows])),
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("text, result", [row[1:] for row in AWKWARD_CSV],
                         ids=[row[0] for row in AWKWARD_CSV])
def test_both_readers_share_the_csv_rules(reader, text, result, tmp_path):
    read, names, expect = READERS[reader]
    path = tmp_path / "d.csv"
    path.write_bytes(text.format(**names).encode())
    if isinstance(result, str):
        with pytest.raises(SchemaError, match=re.escape(result.format(**names))):
            read(path)
    else:
        assert read(path) == expect(result)


def _imported_modules(path):
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    return modules


def test_dataset_is_the_one_module_that_imports_csv():
    package = Path(prenet.__file__).parent
    importers = [p.name for p in sorted(package.glob("*.py")) if "csv" in _imported_modules(p)]
    assert importers == ["dataset.py"]


class TestLabeledDataset:
    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.ones((2, 2)), np.array([0, 2]))

    def test_rejects_nan_features(self):
        with pytest.raises(DataError):
            LabeledDataset(np.array([[np.nan, 1.0]]), np.array([0]))


class TestStratifiedSplit:
    def test_exact_proportions(self):
        ds = toy_dataset(100, 10)
        train, test = stratified_split(ds, 0.8, make_rng(0))
        assert train.n == 88 and test.n == 22
        assert train.n_anomalies == 8 and test.n_anomalies == 2

    def test_partition_exact(self):
        ds = toy_dataset(50, 7)
        train, test = stratified_split(ds, 0.7, make_rng(1))
        assert train.n + test.n == ds.n
        combined = np.sort(np.concatenate([train.features[:, 0], test.features[:, 0]]))
        assert np.array_equal(combined, np.sort(ds.features[:, 0]))

    def test_same_seed_identical(self):
        ds = toy_dataset(60, 8)
        t1, s1 = stratified_split(ds, 0.8, make_rng(5))
        t2, s2 = stratified_split(ds, 0.8, make_rng(5))
        assert np.array_equal(t1.features, t2.features)
        assert np.array_equal(s1.labels, s2.labels)

    def test_each_side_keeps_both_classes(self):
        ds = toy_dataset(4, 2)
        train, test = stratified_split(ds, 0.9, make_rng(2))
        for side in (train, test):
            assert side.n_anomalies >= 1
            assert side.n - side.n_anomalies >= 1

    def test_degenerate_class_rejected(self):
        ds = toy_dataset(10, 1)
        with pytest.raises(DataError, match="class 1"):
            stratified_split(ds, 0.8, make_rng(0))

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            stratified_split(toy_dataset(), 1.0, make_rng(0))


class TestBuildWeakSupervision:
    def test_zero_contamination(self):
        ds = toy_dataset(200, 80)
        split = build_weak_supervision(ds, 60, 0.0, make_rng(0))
        assert split.n_labeled == 60
        assert split.true_labels[: split.n_unlabeled].sum() == 0
        assert split.n_unlabeled == 200

    def test_injection_count_formula(self):
        # m = round(eps * n_normal / (1 - eps)) = round(4900*0.02/0.98) = 100
        ds = toy_dataset(4900, 200)
        split = build_weak_supervision(ds, 60, 0.02, make_rng(0))
        u_true = split.true_labels[: split.n_unlabeled]
        assert split.n_unlabeled == 5000
        assert u_true.sum() == 100
        assert u_true.sum() / split.n_unlabeled == pytest.approx(0.02)

    def test_contamination_within_one_instance(self):
        ds = toy_dataset(777, 300)
        for eps in (0.01, 0.05, 0.1):
            split = build_weak_supervision(ds, 30, eps, make_rng(3))
            frac = split.true_labels[: split.n_unlabeled].mean()
            assert abs(frac - eps) <= 1.0 / split.n_unlabeled

    def test_disjoint_and_labeled_are_anomalies(self):
        ds = toy_dataset(100, 50)
        split = build_weak_supervision(ds, 20, 0.05, make_rng(1))
        # U is the store's first n_unlabeled rows and A the rest
        assert (split.n_unlabeled, split.n_labeled) == (105, 20)
        assert len(split.u_features) + len(split.a_features) == len(split.features)
        assert np.all(split.true_labels[split.n_unlabeled :] == 1)

    def test_capacity_error_names_counts(self):
        ds = toy_dataset(100, 10)
        with pytest.raises(CapacityError, match="60"):
            build_weak_supervision(ds, 60, 0.0, make_rng(0))

    def test_same_seed_identical(self):
        ds = toy_dataset(300, 90)
        s1 = build_weak_supervision(ds, 40, 0.02, make_rng(7))
        s2 = build_weak_supervision(ds, 40, 0.02, make_rng(7))
        assert np.array_equal(s1.features, s2.features)
        assert s1.n_unlabeled == s2.n_unlabeled

    def test_pools_are_views_of_the_store(self):
        ds = toy_dataset(100, 50)
        split = build_weak_supervision(ds, 20, 0.05, make_rng(1))
        assert np.array_equal(split.u_features, split.features[: split.n_unlabeled])
        assert np.array_equal(split.a_features, split.features[split.n_unlabeled :])
        assert np.shares_memory(split.u_features, split.features)
        assert np.shares_memory(split.a_features, split.features)

    @pytest.mark.parametrize("n_unlabeled", [0, 3, -1])
    def test_boundary_leaves_both_pools_nonempty(self, n_unlabeled):
        with pytest.raises(ValueError, match="n_unlabeled"):
            WeakSupervisionSplit(np.zeros((3, 2)), np.zeros(3), n_unlabeled)

    def test_test_set_rides_along_untouched(self):
        ds = toy_dataset(300, 90)
        train, test = stratified_split(ds, 0.8, make_rng(0))
        split = build_weak_supervision(train, 30, 0.02, make_rng(0), test=test)
        assert np.array_equal(split.test_features, test.features)
        assert np.array_equal(split.test_labels, test.labels)

    def test_no_store_row_appears_in_test(self):
        # (A ∪ U) and the test set partition distinct rows
        ds = toy_dataset(120, 40)
        train, test = stratified_split(ds, 0.8, make_rng(6))
        split = build_weak_supervision(train, 10, 0.05, make_rng(6), test=test)
        store_keys = {row.tobytes() for row in split.features}
        test_keys = {row.tobytes() for row in split.test_features}
        assert not store_keys & test_keys

    def test_known_type_filter(self):
        ds = toy_dataset(100, 40)
        # anomaly rows carry types; only type "x" may enter A or U
        types = np.array([""] * 100 + ["x"] * 25 + ["y"] * 15)
        split = build_weak_supervision(
            ds, 10, 0.05, make_rng(2), anomaly_types=types, known_types={"x"}
        )
        # all anomalies placed anywhere must come from the 25 "x" rows
        n_placed = split.true_labels.sum()
        assert n_placed <= 25
        x_rows = ds.features[100:125]
        placed = split.features[split.true_labels == 1]
        for row in placed:
            assert any(np.array_equal(row, xr) for xr in x_rows)

    def test_known_type_capacity(self):
        ds = toy_dataset(100, 40)
        types = np.array([""] * 100 + ["x"] * 5 + ["y"] * 35)
        with pytest.raises(CapacityError):
            build_weak_supervision(
                ds, 10, 0.0, make_rng(2), anomaly_types=types, known_types={"x"}
            )


def hand_split(store, test=None):
    """A split of ``store`` whose U is row 0 and whose A is the rest."""
    return WeakSupervisionSplit(np.array(store), np.zeros(len(store)), 1, test_features=test)


class TestStandardize:
    def test_constant_column_centered_only(self):
        out, mean, scale = standardize_split(hand_split([[5.0, 1.0], [5.0, 3.0]]))
        assert np.array_equal(out.features[:, 0], [0.0, 0.0])
        assert scale[0] == 1.0

    def test_two_point_column(self):
        out, mean, scale = standardize_split(hand_split([[0.0], [2.0]]))
        assert np.array_equal(out.features.ravel(), [-1.0, 1.0])  # population std = 1

    def test_other_matrices_use_train_stats(self):
        # fit on the store only: the test row is mapped by (x - 1) / 1,
        # not by statistics that include it
        out, mean, scale = standardize_split(hand_split([[0.0], [2.0]], [[4.0]]))
        assert (mean[0], scale[0]) == (1.0, 1.0)
        assert out.test_features.ravel()[0] == 3.0

    def test_standardize_split_transforms_store_and_test(self):
        ds = toy_dataset(50, 20)
        train, test = stratified_split(ds, 0.8, make_rng(0))
        split = build_weak_supervision(train, 5, 0.1, make_rng(0), test=test)
        std_split, mean, scale = standardize_split(split)
        used = std_split.features
        assert np.allclose(used.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(used.std(axis=0), 1.0, atol=1e-12)
        assert std_split.test_features.shape == test.features.shape
        assert not np.allclose(std_split.test_features, test.features)
