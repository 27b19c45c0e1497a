"""The benchmark's workloads.

Each workload has a set-up, which builds its inputs from the workload
seed, and an operation, the timed section, which a closed loop with one
client repeats. ``run`` is timed; ``finish`` turns its raw result into an
``Outcome`` outside the timing. Every call into prenet goes through a
module attribute (``engine.score_dataset``, not a name bound at import
time), so the tracer's rebinding sees it.

Why each workload exists, and what it sets up and times: bench/README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

import numpy as np

from prenet import cli, dataset, engine, harness, metrics, ndcore

ENSEMBLE_SIZE = 30
ONLINE_SLICE_ROWS = 8


@dataclass(frozen=True)
class Sizes:
    """Input sizes. The defaults are the benchmark; tests shrink them."""

    n_normal: int = 2000
    n_anomaly: int = 100
    dim: int = 10
    n_labeled: int = 30
    train_epochs: int = 50
    setup_epochs: int = 5
    bulk_rows: int = 20_000
    online_calls: int = 1050
    cli_rows: int = 50_000
    cli_epochs: int = 5


TINY = Sizes(
    n_normal=200,
    n_anomaly=50,
    n_labeled=10,
    train_epochs=1,
    setup_epochs=1,
    bulk_rows=300,
    online_calls=25,
    cli_rows=300,
    cli_epochs=1,
)


@dataclass
class Outcome:
    """What one operation produced, in the form the checks need. The
    timing loop fills in ``wall_s``, and the two latency lists when the
    operation is a single request: ``latencies_s`` on the calling
    thread's CPU clock, ``wall_latencies_s`` on the wall clock."""

    scores: np.ndarray
    auc_roc: float
    auc_pr: float
    latencies_s: list[float] = field(default_factory=list)
    wall_latencies_s: list[float] = field(default_factory=list)
    exit_codes: list[int] = field(default_factory=list)
    digest: str = ""
    wall_s: float = 0.0

    def __post_init__(self):
        if not self.digest:
            self.digest = hashlib.sha256(
                np.ascontiguousarray(self.scores, dtype="<f8").tobytes()
            ).hexdigest()

    @property
    def rows_scored(self) -> int:
        return self.scores.size


def fixture(sizes: Sizes, seed: int, rows: int | None = None) -> harness.SyntheticSpec:
    """The acceptance fixture (two Gaussians, separation 4), or ``rows``
    rows drawn from the same distribution with the same anomaly share."""
    n_normal, n_anomaly = sizes.n_normal, sizes.n_anomaly
    if rows is not None:
        n_anomaly = round(rows * sizes.n_anomaly / (sizes.n_normal + sizes.n_anomaly))
        n_normal = rows - n_anomaly
    return harness.SyntheticSpec(
        n_normal=n_normal, n_anomaly=n_anomaly, dim=sizes.dim, separation=4.0, seed=seed
    )


def experiment_spec(sizes: Sizes, seed: int, n_epochs: int) -> harness.ExperimentSpec:
    return harness.ExperimentSpec(
        source=fixture(sizes, seed),
        n_labeled=sizes.n_labeled,
        contamination=0.02,
        base_seed=seed,
        n_runs=1,
        n_epochs=n_epochs,
    )


def other_seed(seed: int) -> int:
    """Seed of the rows scored by a model trained on fixture ``seed``."""
    return seed + 10_000


class Workload:
    name = ""
    work_unit = ""

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> str:
        """Build the inputs; returns a digest of them, equal on every repeat."""
        raise NotImplementedError

    def run(self):
        """The timed section."""
        raise NotImplementedError

    def finish(self, raw) -> Outcome:
        raise NotImplementedError

    def work_items(self, outcome: Outcome) -> int:
        """Units of work in one operation, for ``items_per_s``."""
        return outcome.rows_scored

    def requests_per_op(self) -> int:
        """Client requests in one operation, each timed as a latency sample."""
        return 1


class TrainDefault(Workload):
    name = "train_default"
    work_unit = "trained pairs"

    def setup(self) -> str:
        self.spec = experiment_spec(self.sizes, self.seed, self.sizes.train_epochs)
        self.ds = harness.generate_synthetic(self.spec.source)
        return _digest(self.ds.features, self.ds.labels)

    def run(self):
        return harness.run_single(self.ds, self.spec, self.seed)

    def finish(self, out) -> Outcome:
        return Outcome(out.scores, out.metrics.auc_roc, out.metrics.auc_pr)

    def work_items(self, outcome: Outcome) -> int:
        spec = self.spec
        return spec.n_epochs * spec.n_batches_per_epoch * spec.batch_size


class _TrainedModel(Workload):
    """Set-up shared by the scoring workloads: the run_single pipeline on
    the fixture with a short training schedule, keeping the split and
    its standardization map for scoring new rows."""

    def setup(self) -> str:
        spec = experiment_spec(self.sizes, self.seed, self.sizes.setup_epochs)
        ds = harness.generate_synthetic(spec.source)
        rng = ndcore.make_rng(self.seed)
        train_ds, test_ds = dataset.stratified_split(ds, spec.train_fraction, rng)
        split = dataset.build_weak_supervision(
            train_ds, spec.n_labeled, spec.contamination, rng, test=test_ds, seed=self.seed
        )
        self.split, mean, scale = dataset.standardize_split(split)
        cfg = harness.train_config_for(spec, ds.dim, self.seed)
        self.model, _ = engine.train(self.split, cfg, rng=rng)
        self.prepare(mean, scale)
        p = self.model.params
        return _digest(*p.hidden_weights, *p.hidden_biases, p.output_weights, self.scored_inputs())

    def prepare(self, mean, scale) -> None:
        raise NotImplementedError

    def scored_inputs(self) -> np.ndarray:
        raise NotImplementedError


class ScoreBulk(_TrainedModel):
    name = "score_bulk"
    work_unit = "scored rows"

    def prepare(self, mean, scale) -> None:
        bulk = harness.generate_synthetic(
            fixture(self.sizes, other_seed(self.seed), self.sizes.bulk_rows)
        )
        self.x = dataset.apply_standardization(bulk.features, mean, scale)
        self.labels = bulk.labels

    def scored_inputs(self) -> np.ndarray:
        return self.x

    def run(self):
        rng = ndcore.make_rng(self.seed)
        scores = engine.score_dataset(self.model, self.x, self.split, ENSEMBLE_SIZE, rng)
        return scores, metrics.evaluate(scores, self.labels)

    def finish(self, raw) -> Outcome:
        scores, report = raw
        return Outcome(scores, report.auc_roc, report.auc_pr)


class ScoreOnline(_TrainedModel):
    """Consecutive 8-row slices of the test split, wrapping around, so
    the default 1050 calls score each of the 420 test rows 20 times."""

    name = "score_online"
    work_unit = "scored rows"

    def prepare(self, mean, scale) -> None:
        x, labels = self.split.test_features, self.split.test_labels
        rows = np.arange(self.sizes.online_calls * ONLINE_SLICE_ROWS) % labels.size
        self.slices = [x[r] for r in rows.reshape(-1, ONLINE_SLICE_ROWS)]
        self.labels = labels[rows]

    def scored_inputs(self) -> np.ndarray:
        return np.concatenate(self.slices)

    def requests_per_op(self) -> int:
        return len(self.slices)

    def run(self):
        rng = ndcore.make_rng(self.seed)
        cpu, wall, parts = [], [], []
        for x in self.slices:
            t0 = perf_counter()
            c0 = thread_time()
            parts.append(engine.score_dataset(self.model, x, self.split, ENSEMBLE_SIZE, rng))
            cpu.append(thread_time() - c0)
            wall.append(perf_counter() - t0)
        return cpu, wall, parts

    def finish(self, raw) -> Outcome:
        cpu, wall, parts = raw
        scores = np.concatenate(parts)
        report = metrics.evaluate(scores, self.labels)
        return Outcome(scores, report.auc_roc, report.auc_pr, cpu, wall)


class CliPipeline(Workload):
    name = "cli_pipeline"
    work_unit = "scored rows"

    def setup(self) -> str:
        self.train_csv = self.workdir / "train.csv"
        self.score_csv = self.workdir / "score.csv"
        train_ds = harness.generate_synthetic(fixture(self.sizes, self.seed))
        score_ds = harness.generate_synthetic(
            fixture(self.sizes, other_seed(self.seed), self.sizes.cli_rows)
        )
        dataset.save_csv(train_ds, self.train_csv)
        dataset.save_csv(score_ds, self.score_csv)
        return hashlib.sha256(self.train_csv.read_bytes() + self.score_csv.read_bytes()).hexdigest()

    def commands(self) -> list[list[str]]:
        ckpt, scores, report = (
            str(self.workdir / name) for name in ("model.json", "scores.csv", "eval.json")
        )
        seed = str(self.seed)
        return [
            ["train", "--data", str(self.train_csv), "--variant", "osnet",
             "--n-labeled", str(self.sizes.n_labeled), "--epochs", str(self.sizes.cli_epochs),
             "--seed", seed, "-o", ckpt],
            ["score", "--checkpoint", ckpt, "--data", str(self.score_csv), "--seed", seed,
             "-o", scores],
            ["eval", "--scores", scores, "-o", report],
        ]

    def run(self):
        codes = []
        # The commands print one summary line each; keep them off the
        # benchmark's stdout, whose last line is the result.
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in self.commands():
                codes.append(cli.main(argv))
        return codes

    def finish(self, codes) -> Outcome:
        scores_path = self.workdir / "scores.csv"
        scores, _ = engine.read_scores_csv(scores_path)
        report = json.loads((self.workdir / "eval.json").read_text())
        return Outcome(
            scores, report["auc_roc"], report["auc_pr"],
            exit_codes=codes,
            digest=hashlib.sha256(scores_path.read_bytes()).hexdigest(),
        )


WORKLOADS = {w.name: w for w in (TrainDefault, ScoreBulk, ScoreOnline, CliPipeline)}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()

