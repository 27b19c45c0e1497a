"""Tests of the benchmark itself: span arithmetic, the tracer's rebinding
and kernel oracle, the correctness checks, and a tiny-size smoke run of
every workload in both modes.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import prenet  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],  # overlaps a: [1, 6] is covered once
        ["a.child", 2.0, 3.0, 1, 0],
        ["late", 9.0, 12.0, 0, 0],  # runs past its parent: only [9, 10] counts
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_table_keeps_only_the_requested_operations():
    spans = [
        ["op", 0.0, 4.0, -1, 1],
        ["leaf", 1.0, 2.0, 0, 1],
        ["leaf", 5.0, 8.0, -1, "setup"],
    ]
    table = tracing.layer_table(spans, {1})
    assert table["leaf"] == {"calls": 1, "self_s": 1.0, "total_s": 1.0}
    assert table["op"]["self_s"] == pytest.approx(3.0)
    assert tracing.layer_table(spans, {"setup"})["leaf"]["self_s"] == pytest.approx(3.0)


def test_tracer_rebinds_every_import_site_and_restores_them():
    originals = {
        (prenet.model, "matmul"): prenet.ndcore.matmul,
        (prenet.engine, "objective_and_gradients"): prenet.model.objective_and_gradients,
        (prenet.harness, "train"): prenet.engine.train,
        (prenet.cli, "train"): prenet.engine.train,
        (prenet, "matmul"): prenet.ndcore.matmul,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, attr), original in originals.items():
            bound = getattr(module, attr)
            assert bound is not original and bound.__wrapped__ is original
        assert prenet.harness.train is prenet.cli.train
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original


def test_matmul_spans_split_by_shared_dimension_and_count_work():
    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        rng = np.random.default_rng(0)
        prenet.model.matmul(rng.standard_normal((3, 512)), rng.standard_normal((512, 2)))
        prenet.model.matmul(rng.standard_normal((4, 10)), rng.standard_normal((10, 20)))
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert names[0] == "ndcore.matmul.k_large" and "ndcore.matmul.k_small" in names
    counts = tracer.counts[0]
    assert counts["ndcore.matmul.k_large.flops"] == 2 * 3 * 512 * 2
    assert counts["ndcore.matmul.k_small.bytes"] == 8 * (4 * 10 + 10 * 20 + 4 * 20)


def test_matmul_oracle_catches_a_one_ulp_difference():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((5, 64)), rng.standard_normal((64, 3))
    out = prenet.ndcore.matmul(a, b)
    tracer = tracing.Tracer()
    tracer.check_matmul(a, b, out)
    assert tracer.counts[None]["ndcore.matmul.oracle_checks"] == 3
    assert tracer.counts[None]["ndcore.matmul.oracle_mismatches"] == 0
    out[0, 0] = np.nextafter(out[0, 0], np.inf)
    tracer.check_matmul(a, b, out)
    assert tracer.counts[None]["ndcore.matmul.oracle_mismatches"] == 1


def _outcome(**overrides):
    fields = dict(scores=np.array([0.5, 1.5]), auc_roc=0.9, auc_pr=0.8)
    fields.update(overrides)
    return workloads.Outcome(**fields)


def test_checks_flag_each_kind_of_bad_output():
    good = _outcome()
    assert run.check(good, None) == []
    assert run.check(good, good.digest) == []
    assert run.check(_outcome(scores=np.array([np.nan, 1.0])), None)
    assert run.check(_outcome(auc_pr=1.01), None)
    assert run.check(_outcome(auc_pr=1.0 + 2**-52), None) == []  # summation rounding
    assert run.check(_outcome(auc_pr=1.0 + 2**-49), None)
    assert run.check(_outcome(auc_roc=-0.1), None)
    assert run.check(_outcome(exit_codes=[0, 3, 0]), None)
    assert run.check(good, "0" * 64)


def test_nearest_rank_percentile():
    values = list(range(1, 201))
    assert run.percentile(values, 99) == 198
    assert run.percentile(values, 50) == 100
    assert run.percentile([7.0], 99) == 7.0


class _Sleeper(workloads.Workload):
    """One request per operation that waits without using the CPU."""

    name = "sleeper"

    def run(self):
        import time

        time.sleep(0.05)

    def finish(self, raw):
        return _outcome()


def test_latency_is_cpu_time_and_wall_time_is_kept_apart():
    [(_, _, outcome)] = run.run_ops(_Sleeper(workloads.TINY, 1, ROOT), 0.0, run.Tally())
    assert outcome.wall_s >= 0.05 and outcome.wall_latencies_s == [outcome.wall_s]
    assert outcome.latencies_s[0] < 0.01
    assert run.latency_ms([outcome], 99) == 1000.0 * outcome.latencies_s[0]
    assert run.latency_ms([outcome], 99, "wall_latencies_s") == 1000.0 * outcome.wall_s


def test_declared_metrics_match_benchmark_json():
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert declared == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _run_tiny(capsys, workload: str, trace: int) -> tuple[int, dict, dict]:
    code = run.main(
        ["--workload", workload, "--seconds", "0", "--trace", str(trace)], sizes=workloads.TINY
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_declared_metric(capsys, workload, trace):
    code, detail, result = _run_tiny(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert detail["error_rate"] == 0.0
    assert detail["provenance"]["workload_seed"] == 1
    if trace:
        assert result["metrics"]["ndcore.matmul.oracle_mismatches"]["value"] == 0
        assert result["metrics"]["ndcore.matmul.oracle_checks"]["value"] > 0
        assert (ROOT / detail["trace_file"]).is_file()
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_scoring_runs_the_stack_on_four_rows_per_pair_member_draw(capsys):
    _, _, result = _run_tiny(capsys, "score_bulk", 1)
    metrics = result["metrics"]
    e = workloads.ENSEMBLE_SIZE
    assert metrics["model.forward_pairs.rows_per_scored_row"]["value"] == 2 * e
    assert metrics["model.features.rows_per_scored_row"]["value"] == 4 * e


def test_without_the_package_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "score_bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_comparison_verdicts_follow_the_nine_in_ten_rule():
    import suite

    lower = -1  # for a time, lower is better
    parent = [2.0, 2.1] * 5
    assert suite.verdict([1.0] * 10, parent, lower, 0.25) == "gain"
    # nine wins of ten suffice, eight do not
    assert suite.verdict([1.0] * 9 + [3.0], parent, lower, 0.25) == "gain"
    assert suite.verdict([1.0] * 8 + [3.0] * 2, parent, lower, 0.25) != "gain"
    assert suite.verdict([2.7] * 10, parent, lower, 0.25) == "regression"
    assert suite.verdict([2.0, 2.1] * 5, parent, lower, 0.25) == "within bound"
    assert suite.verdict([1.0, 3.0] * 5, parent, lower, 0.25) == "unresolved"
