import dataclasses
import json

import numpy as np
import pytest

from prenet import engine, harness
from prenet.dataset import build_weak_supervision, standardize_split, stratified_split
from prenet.harness import (
    ExperimentSpec,
    SyntheticSpec,
    experiment_report_json,
    generate_synthetic,
    load_source,
    parse_spec_file,
    run_experiment,
    run_grid,
    run_single,
)
from prenet.model import VARIANTS
from prenet.ndcore import make_rng


def fast_spec(**kw):
    defaults = dict(
        source=SyntheticSpec(n_normal=150, n_anomaly=60, dim=3, separation=5.0, seed=3),
        n_runs=2,
        base_seed=10,
        n_labeled=8,
        contamination=0.02,
        n_epochs=2,
        n_batches_per_epoch=3,
        batch_size=16,
        ensemble_size=4,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestGenerateSynthetic:
    def test_counts_labels_and_shift(self):
        spec = SyntheticSpec(500, 100, 4, 6.0, seed=1)
        ds = generate_synthetic(spec)
        assert ds.n == 600 and ds.dim == 4 and ds.n_anomalies == 100
        normals = ds.features[ds.labels == 0]
        anomalies = ds.features[ds.labels == 1]
        assert abs(normals[:, 0].mean()) < 0.2
        assert abs(anomalies[:, 0].mean() - 6.0) < 0.4
        assert abs(normals[:, 1].mean()) < 0.2
        assert abs(anomalies[:, 1].mean()) < 0.4

    def test_same_seed_bitwise(self):
        spec = SyntheticSpec(50, 10, 2, 3.0, seed=9)
        d1, d2 = generate_synthetic(spec), generate_synthetic(spec)
        assert np.array_equal(d1.features, d2.features)

    def test_nearly_separable_at_high_separation(self):
        ds = generate_synthetic(SyntheticSpec(1000, 50, 2, 6.0, seed=7))
        # nearest-class-mean on the first axis classifies almost everything
        pred = (ds.features[:, 0] > 3.0).astype(int)
        accuracy = (pred == ds.labels).mean()
        assert accuracy > 0.99

    def test_zero_separation_identical_distributions(self):
        ds = generate_synthetic(SyntheticSpec(2000, 2000, 3, 0.0, seed=5))
        normals = ds.features[ds.labels == 0]
        anomalies = ds.features[ds.labels == 1]
        assert abs(normals.mean() - anomalies.mean()) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_normal=0)
        with pytest.raises(ValueError):
            SyntheticSpec(separation=-1.0)


class TestRunExperiment:
    def test_single_run_zero_std(self):
        agg = run_experiment(fast_spec(n_runs=1))
        assert agg.n_runs == 1
        assert agg.auc_roc_std == 0.0 and agg.auc_pr_std == 0.0

    def test_deterministic(self):
        spec = fast_spec()
        a1 = run_experiment(spec)
        a2 = run_experiment(spec)
        assert a1.auc_roc_mean == a2.auc_roc_mean
        assert [r.auc_pr for r in a1.runs] == [r.auc_pr for r in a2.runs]

    def test_seed_ladder_reproducible_in_isolation(self):
        spec = fast_spec(n_runs=3)
        agg = run_experiment(spec)
        ds = load_source(spec)
        for i in (0, 2):
            solo = run_single(ds, spec, spec.base_seed + i)
            assert solo.metrics.auc_roc == agg.runs[i].auc_roc
            assert solo.metrics.auc_pr == agg.runs[i].auc_pr

    def test_failure_names_run_index(self):
        spec = fast_spec(n_labeled=1000)  # capacity error inside run 0
        with pytest.raises(Exception, match="run 0"):
            run_experiment(spec)

    def test_csv_source(self, tmp_path):
        from prenet.dataset import save_csv

        ds = generate_synthetic(SyntheticSpec(100, 40, 2, 5.0, seed=0))
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        agg = run_experiment(fast_spec(source=str(path), n_runs=1))
        assert 0.0 <= agg.auc_pr_mean <= 1.0

    def test_parallel_runs_match_sequential(self):
        spec = fast_spec(n_runs=3)
        seq = run_experiment(spec, jobs=1)
        par = run_experiment(spec, jobs=3)
        assert [r.auc_roc for r in par.runs] == [r.auc_roc for r in seq.runs]
        assert [r.auc_pr for r in par.runs] == [r.auc_pr for r in seq.runs]

    def test_labeled_anomaly_budget_sweep_is_expressible(self):
        # the data-efficiency curve is a grid over the labeled budget
        source = SyntheticSpec(n_normal=150, n_anomaly=80, dim=3, separation=5.0, seed=3)
        results = run_grid(fast_spec(source=source, n_runs=1), "n_labeled", (4, 8, 16))
        assert list(results) == [4, 8, 16]
        for agg in results.values():
            assert 0.0 <= agg.auc_pr_mean <= 1.0


class TestAblationSuite:
    def test_all_variants_report(self):
        results = run_grid(fast_spec(n_runs=1), "variant", VARIANTS)
        assert set(results) == {"prenet", "bor", "osnet", "ldm", "a2h"}
        for agg in results.values():
            assert 0.0 <= agg.auc_roc_mean <= 1.0

    def test_variants_share_identical_splits(self):
        spec = fast_spec()
        ds = load_source(spec)
        seed = spec.base_seed
        worlds = []
        for _ in range(2):  # same construction chain as run_single, twice
            rng = make_rng(seed)
            tr, te = stratified_split(ds, spec.train_fraction, rng)
            split = build_weak_supervision(
                tr, spec.n_labeled, spec.contamination, rng, test=te, seed=seed
            )
            worlds.append(split)
        assert np.array_equal(worlds[0].features, worlds[1].features)
        assert worlds[0].n_unlabeled == worlds[1].n_unlabeled
        assert np.array_equal(worlds[0].test_features, worlds[1].test_features)

    def test_variant_scores_same_test_rows(self):
        spec = fast_spec(n_runs=1)
        ds = load_source(spec)
        outs = {
            v: run_single(ds, dataclasses.replace(spec, variant=v), spec.base_seed)
            for v in ("prenet", "ldm", "osnet")
        }
        labels = [o.labels for o in outs.values()]
        for lab in labels[1:]:
            assert np.array_equal(lab, labels[0])


class TestContaminationSweep:
    def test_rates_reported(self):
        spec = fast_spec(
            source=SyntheticSpec(n_normal=200, n_anomaly=100, dim=3, separation=5.0, seed=3),
            n_runs=1,
        )
        results = run_grid(spec, "contamination", [0.0, 0.05])
        assert set(results) == {0.0, 0.05}

    def test_duplicate_rates_identical_reports(self):
        spec = fast_spec(
            source=SyntheticSpec(n_normal=200, n_anomaly=100, dim=3, separation=5.0, seed=3),
            n_runs=1,
        )
        results = run_grid(spec, "contamination", [0.02])
        again = run_grid(spec, "contamination", [0.02])
        assert results[0.02].auc_pr_mean == again[0.02].auc_pr_mean

    def test_zero_rate_gives_clean_pool(self):
        spec = fast_spec(contamination=0.0)
        ds = load_source(spec)
        rng = make_rng(spec.base_seed)
        tr, te = stratified_split(ds, spec.train_fraction, rng)
        split = build_weak_supervision(tr, spec.n_labeled, 0.0, rng, test=te)
        assert split.true_labels[: split.n_unlabeled].sum() == 0


@pytest.mark.parametrize(
    "field, values", [("variant", ("ldm", "prenet", "ldm")), ("contamination", [0.02, 0.0, 0.020])]
)
def test_grid_rejects_repeated_values(field, values):
    with pytest.raises(ValueError, match=f"{field} values must be distinct"):
        run_grid(fast_spec(n_runs=1), field, values)


class TestReportJson:
    def test_schema(self):
        spec = fast_spec(n_runs=2)
        agg = run_experiment(spec)
        doc = experiment_report_json(spec, agg)
        assert doc["variant"] == "prenet"
        assert doc["seeds"] == [10, 11]
        assert set(doc["auc_roc"]) == {"mean", "std", "runs"}
        assert len(doc["auc_pr"]["runs"]) == 2
        assert doc["config"]["n_labeled"] == 8
        assert doc["config"]["labels"] == [8.0, 4.0, 0.0]

    def test_mean_matches_runs(self):
        spec = fast_spec(n_runs=2)
        agg = run_experiment(spec)
        doc = experiment_report_json(spec, agg)
        assert doc["auc_roc"]["mean"] == pytest.approx(
            np.mean(doc["auc_roc"]["runs"]), rel=1e-15
        )

    def test_relative_and_absolute_source_give_identical_bytes(self, tmp_path, monkeypatch):
        from prenet.dataset import save_csv

        save_csv(generate_synthetic(SyntheticSpec(100, 40, 2, 5.0, seed=0)), tmp_path / "d.csv")
        monkeypatch.chdir(tmp_path)
        reports = []
        for source in ("d.csv", str(tmp_path / "d.csv")):
            spec = fast_spec(source=source, n_runs=1)
            doc = experiment_report_json(spec, run_experiment(spec))
            reports.append(json.dumps(doc, sort_keys=True, indent=1).encode())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["dataset"] == "d.csv"


class TestSpecFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# experiment defaults\n"
            "data = d.csv\n"
            "runs = 3\n"
            "contamination = 0.05   # inline comment\n"
            "\n"
            "n-labeled = 20\n"
        )
        values = parse_spec_file(path)
        assert values == {
            "data": "d.csv",
            "runs": "3",
            "contamination": "0.05",
            "n_labeled": "20",
        }

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("runs 3\n")
        with pytest.raises(ValueError, match="bad.cfg:1"):
            parse_spec_file(path)


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        fast_spec(variant="nope")
    with pytest.raises(ValueError):
        fast_spec(n_runs=0)


@pytest.mark.parametrize(
    "field, value",
    [("ensemble_size", 0), ("n_labeled", 1), ("contamination", -0.01), ("contamination", 0.5),
     ("contamination", float("nan")), ("train_fraction", 0.0), ("train_fraction", 1.0)],
)
def test_experiment_spec_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        fast_spec(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("batch_size", 6), ("n_epochs", 0), ("hidden_dims", (0,)), ("hidden_dims", (20, 20)),
     ("learning_rate", 0.0), ("l2_lambda", -1.0)],
)
def test_experiment_spec_checks_the_model_and_training_config(field, value):
    # the same checks as ModelConfig and TrainConfig, before any data is read
    with pytest.raises(ValueError):
        fast_spec(**{field: value})


def no_training(*args, **kwargs):
    raise AssertionError("a run started training")


def test_grid_checks_every_value_before_the_first_run(monkeypatch):
    monkeypatch.setattr(harness, "train", no_training)
    with pytest.raises(ValueError, match="contamination"):
        run_grid(fast_spec(n_runs=1), "contamination", [0.0, 0.02, 0.6])


@pytest.mark.parametrize("standardize", [True, False])
@pytest.mark.parametrize("variant", ["prenet", "osnet", "a2h"])
def test_run_single_scores_equal_the_split_path(variant, standardize):
    # the scoring set-up of the benchmark: the test rows ride on the split
    spec = fast_spec(variant=variant, standardize=standardize)
    ds, seed = load_source(spec), 11
    rng = make_rng(seed)
    train_ds, test_ds = stratified_split(ds, spec.train_fraction, rng)
    split = build_weak_supervision(
        train_ds, spec.n_labeled, spec.contamination, rng, test=test_ds, seed=seed
    )
    if standardize:
        split, _, _ = standardize_split(split)
    model, _ = engine.train(split, harness.train_config_for(spec, ds.dim, seed), rng=rng)
    expect = engine.score_dataset(model, split.test_features, split, spec.ensemble_size, rng)
    out = run_single(ds, spec, seed)
    assert out.scores.tobytes() == expect.tobytes()
    assert np.array_equal(out.labels, split.test_labels)


def test_run_output_carries_artifacts():
    spec = fast_spec(n_runs=1)
    ds = load_source(spec)
    out = run_single(ds, spec, 10)
    assert out.scores.shape[0] == out.labels.shape[0]
    assert len(out.train_report.objective_trace) == 6
    assert np.isfinite(out.model.params.vector).all()
    assert dataclasses.is_dataclass(out.metrics)
