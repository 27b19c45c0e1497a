"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The real-data reproduction (criterion 6) needs data/thyroid.csv (or
$PRENET_THYROID_CSV) and is skipped with a notice when the file is
absent; everything else runs from synthetic fixtures.
"""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from prenet.cli import main as cli_main
from prenet.dataset import LabeledDataset, build_weak_supervision, load_csv
from prenet.harness import (
    ExperimentSpec,
    SyntheticSpec,
    load_source,
    run_experiment,
    run_grid,
    run_single,
)
from prenet.metrics import auc_pr, auc_roc
from prenet.model import (
    Model,
    ModelConfig,
    VARIANTS,
    batch_targets,
    build_variant,
    forward,
    objective_and_gradients,
)
from prenet.ndcore import finite_diff_grad, make_rng
from prenet.pairgen import (
    Batch,
    PairClass,
    expected_true_relation_proportions,
    mislabel_fraction,
    sample_pair_batch,
)

PRENET = ModelConfig("prenet", 4)

# two-Gaussian end-to-end fixture; the robustness check uses the same
# family with more anomalies so a 5% injection stays within capacity
FIXTURE = SyntheticSpec(n_normal=2000, n_anomaly=100, dim=10, separation=4.0, seed=1)
SWEEP_FIXTURE = SyntheticSpec(n_normal=2000, n_anomaly=250, dim=10, separation=4.0, seed=1)

THYROID_PATH = Path(os.environ.get("PRENET_THYROID_CSV", "data/thyroid.csv"))


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def fixture_spec(**kw) -> ExperimentSpec:
    defaults = dict(
        source=FIXTURE, n_labeled=30, contamination=0.02, base_seed=1, n_runs=5
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestCriterion1Gradients:
    variant_dims = {
        "prenet": (3,),
        "bor": (3,),
        "osnet": (3,),
        "ldm": (),
        "a2h": (4, 3, 2),
    }

    def _one_draw(self, variant, seed):
        rng = make_rng(seed)
        cfg = ModelConfig(variant, 5, hidden_dims=self.variant_dims[variant])
        model = build_variant(cfg, rng)
        if variant == "osnet":
            batch = _instance_batch(8, 5, rng)
        else:
            batch = _pair_batch(2, 2, 4, 5, rng)
        # exclude draws with any |.| or relu kink near the base point
        scores, (_, pres) = forward(model, batch.rows, batch.positions)
        if np.min(np.abs(scores - batch_targets(cfg, batch))) < 1e-3:
            return None
        if any(p.size and np.min(np.abs(p)) < 1e-3 for p in pres):
            return None
        analytic = objective_and_gradients(model, batch)[1].vector
        numeric = finite_diff_grad(
            lambda v: objective_and_gradients(
                Model(cfg, model.params.with_vector(v)), batch
            )[0],
            model.params.vector,
            h=1e-5,
        )
        denom = np.maximum(1e-6, np.maximum(np.abs(analytic), np.abs(numeric)))
        return float(np.max(np.abs(analytic - numeric) / denom))

    def test_criterion_1(self):
        started = time.perf_counter()
        errors = []
        for variant in VARIANTS:
            seed, done = 0, 0
            while done < 4:
                err = self._one_draw(variant, seed)
                seed += 1
                if err is None:
                    continue
                errors.append((variant, err))
                done += 1
        elapsed = time.perf_counter() - started
        worst = max(e for _, e in errors)
        ok = len(errors) >= 20 and worst < 1e-4 and elapsed < 10.0
        report(
            1,
            "analytic gradients match central finite differences",
            ok,
            f"{len(errors)} draws, max rel err {worst:.2e}, {elapsed:.1f}s",
        )


def _pair_batch(n_aa, n_au, n_uu, dim, rng):
    b = n_aa + n_au + n_uu
    return Batch(
        rows=rng.standard_normal((2 * b, dim)),
        row_index=np.arange(2 * b),
        positions=np.arange(2 * b).reshape(2, b),
        classes=np.repeat(np.array(list(PairClass), np.uint8), [n_aa, n_au, n_uu]),
    )


def _instance_batch(n, dim, rng):
    return Batch(
        rows=rng.standard_normal((n, dim)),
        row_index=np.arange(n),
        positions=np.arange(n)[None, :],
        classes=np.repeat(np.array([PairClass.AU, PairClass.UU], np.uint8), [n // 2, n - n // 2]),
    )


def _world(n_normal, n_anomaly, n_labeled, eps, dim=4, seed=0):
    rng = make_rng(seed)
    features = rng.standard_normal((n_normal + n_anomaly, dim))
    labels = np.concatenate([np.zeros(n_normal, int), np.ones(n_anomaly, int)])
    return build_weak_supervision(LabeledDataset(features, labels), n_labeled, eps, rng)


class TestCriterion2BatchComposition:
    def test_criterion_2(self):
        split = _world(300, 60, 20, 0.02)
        rng = make_rng(8)
        ok = True
        for _ in range(1000):
            batch = sample_pair_batch(split, 512, rng)
            targets = batch_targets(PRENET, batch)
            aa = batch.classes == PairClass.AA
            au = batch.classes == PairClass.AU
            uu = batch.classes == PairClass.UU
            if not (
                aa.sum() == 128
                and au.sum() == 128
                and uu.sum() == 256
                and np.all(targets[aa] == 8.0)
                and np.all(targets[au] == 4.0)
                and np.all(targets[uu] == 0.0)
            ):
                ok = False
                break
        report(2, "every 512-batch is exactly 128/128/256 with targets 8/4/0", ok,
               "1000 batches checked")


class TestCriterion3TheoryVsMonteCarlo:
    def test_criterion_3(self):
        started = time.perf_counter()
        # unlabeled pool with exactly 5% true anomalies:
        # m = round(0.05*1900/0.95) = 100, |U| = 2000
        split = _world(1900, 200, 60, 0.05, seed=4)
        u_true = split.true_labels[: split.n_unlabeled]
        assert u_true.mean() == pytest.approx(0.05)
        rng = make_rng(99)
        totals = np.zeros(3)
        n_pairs = 0
        uu_total = uu_hit = 0
        for _ in range(196):  # 196*512 = 100352 pairs
            batch = sample_pair_batch(split, 512, rng)
            both = split.true_labels[batch.slot_index].sum(axis=0)
            totals += [(both == 2).sum(), (both == 1).sum(), (both == 0).sum()]
            n_pairs += len(batch)
            uu = batch.classes == PairClass.UU
            uu_total += int(uu.sum())
            uu_hit += int((both[uu] > 0).sum())
        emp = totals / n_pairs
        expect = expected_true_relation_proportions(0.05)
        emp_mis = uu_hit / uu_total
        elapsed = time.perf_counter() - started
        ok = (
            np.all(np.abs(emp - expect) < 0.01)
            and abs(emp_mis - mislabel_fraction(0.05)) < 0.01
            and elapsed < 10.0
        )
        report(
            3,
            "closed-form pair-relation proportions match Monte Carlo",
            ok,
            f"empirical ({emp[0]:.4f}, {emp[1]:.4f}, {emp[2]:.4f}) vs "
            f"(0.26375, 0.285, 0.45125); mislabel {emp_mis:.4f} vs 0.0975; {elapsed:.1f}s",
        )


class TestCriterion4MetricOracles:
    def test_criterion_4(self):
        from test_metrics import brute_force_auc_pr, brute_force_auc_roc, random_instance

        rng = make_rng(314)
        ok = True
        for _ in range(500):
            scores, labels = random_instance(rng)
            if auc_roc(scores, labels) != brute_force_auc_roc(scores.tolist(), labels.tolist()):
                ok = False
                break
            if auc_pr(scores, labels) != brute_force_auc_pr(scores.tolist(), labels.tolist()):
                ok = False
                break
        report(4, "auc_roc/auc_pr equal brute-force oracles exactly", ok,
               "500 random instances with ties")


class TestCriterion5SyntheticEndToEnd:
    def test_criterion_5(self):
        spec = fixture_spec()
        ds = load_source(spec)
        rocs, prs, gaps, durations = [], [], [], []
        for i in range(spec.n_runs):
            t0 = time.perf_counter()
            out = run_single(ds, spec, spec.base_seed + i)
            durations.append(time.perf_counter() - t0)
            rocs.append(out.metrics.auc_roc)
            prs.append(out.metrics.auc_pr)
            gaps.append(
                out.scores[out.labels == 1].mean()
                - out.scores[out.labels == 0].mean()
            )
        ok = (
            np.mean(rocs) >= 0.95
            and np.mean(prs) >= 0.80
            and np.mean(gaps) >= 2.0
            and max(durations) < 60.0
        )
        report(
            5,
            "synthetic end-to-end quality",
            ok,
            f"mean auc_roc {np.mean(rocs):.4f} (>=0.95), mean auc_pr {np.mean(prs):.4f} "
            f"(>=0.80), mean score gap {np.mean(gaps):.2f} (>=2.0), "
            f"slowest run {max(durations):.1f}s (<60s)",
        )


class TestCriterion6ThyroidReproduction:
    def test_criterion_6(self):
        if not THYROID_PATH.exists():
            print(
                f"\n[criterion 6] thyroid benchmark reproduction: SKIP  "
                f"({THYROID_PATH} not present; place the 7200x21 thyroid CSV "
                f"there or set PRENET_THYROID_CSV)"
            )
            pytest.skip(f"thyroid dataset not available at {THYROID_PATH}")
        started = time.perf_counter()
        ds = load_csv(THYROID_PATH)
        assert ds.n == 7200 and ds.dim == 21
        assert ds.n_anomalies / ds.n == pytest.approx(0.074, abs=0.002)
        spec = ExperimentSpec(source=str(THYROID_PATH), n_runs=10, base_seed=1)
        agg = run_experiment(spec)
        elapsed = time.perf_counter() - started
        ok = (
            abs(agg.auc_pr_mean - 0.298) <= 0.07
            and abs(agg.auc_roc_mean - 0.781) <= 0.05
            and elapsed < 300.0
        )
        report(
            6,
            "thyroid benchmark reproduction",
            ok,
            f"auc_pr {agg.auc_pr_mean:.3f} (0.298±0.07), "
            f"auc_roc {agg.auc_roc_mean:.3f} (0.781±0.05), {elapsed:.0f}s (<300s)",
        )


class TestCriterion7ContaminationRobustness:
    def test_criterion_7(self):
        spec = fixture_spec(source=SWEEP_FIXTURE, n_runs=3)
        results = run_grid(spec, "contamination", [0.0, 0.05])
        pr0 = results[0.0].auc_pr_mean
        pr5 = results[0.05].auc_pr_mean
        rel = abs(pr5 - pr0) / pr0
        ok = rel <= 0.20
        report(
            7,
            "auc_pr stable under 5% contamination",
            ok,
            f"auc_pr {pr0:.4f} at 0% vs {pr5:.4f} at 5%, relative change {rel:.1%} (<=20%)",
        )


class TestCriterion8AblationSanity:
    def test_criterion_8(self):
        spec = fixture_spec(n_runs=1)
        ds = load_source(spec)
        details, ok = [], True
        for variant in VARIANTS:
            out = run_single(ds, replace(spec, variant=variant), spec.base_seed)
            means = out.train_report.epoch_means()
            decreased = means[-1] < means[0]
            ranked = out.metrics.auc_roc > 0.5
            ok = ok and decreased and ranked
            details.append(f"{variant}: obj {means[0]:.2f}->{means[-1]:.2f} roc {out.metrics.auc_roc:.3f}")
        report(8, "all five variants train and rank on shared splits", ok,
               "; ".join(details))


class TestCriterion9Determinism:
    def test_criterion_9(self, tmp_path):
        data = tmp_path / "d.csv"
        assert cli_main([
            "synth", "--n-normal", "200", "--n-anomaly", "60", "--dim", "3",
            "--separation", "5", "--seed", "3", "-o", str(data),
        ]) == 0
        fast = [
            "--seed", "4", "--n-labeled", "8", "--epochs", "2",
            "--batches-per-epoch", "2", "--batch-size", "16",
        ]
        fast_experiment = [*fast, "--runs", "2", "--ensemble-size", "4"]
        c1, c2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert cli_main(["train", "--data", str(data), *fast, "-o", str(c1)]) == 0
        assert cli_main(["train", "--data", str(data), *fast, "-o", str(c2)]) == 0
        checkpoints_identical = c1.read_bytes() == c2.read_bytes()

        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli_main(["experiment", "--data", str(data), *fast_experiment, "-o", str(r1)]) == 0
        assert cli_main(["experiment", "--data", str(data), *fast_experiment, "-o", str(r2)]) == 0
        d1, d2 = json.loads(r1.read_text()), json.loads(r2.read_text())
        d1.pop("generated_at"), d2.pop("generated_at")
        reports_identical = json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

        agg1 = run_experiment(fixture_spec(n_runs=1, n_epochs=2, n_batches_per_epoch=2, batch_size=16))
        agg2 = run_experiment(fixture_spec(n_runs=1, n_epochs=2, n_batches_per_epoch=2, batch_size=16))
        api_identical = (
            agg1.auc_roc_mean == agg2.auc_roc_mean and agg1.auc_pr_mean == agg2.auc_pr_mean
        )
        ok = checkpoints_identical and reports_identical and api_identical
        report(
            9,
            "repeated commands are bitwise deterministic",
            ok,
            f"checkpoints {'==' if checkpoints_identical else '!='}, "
            f"reports {'==' if reports_identical else '!='}, "
            f"api metrics {'==' if api_identical else '!='}",
        )
