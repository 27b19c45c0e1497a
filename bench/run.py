"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload train_default --seed 1 --seconds 25 --trace 0

The workload's set-up runs several times (its median is ``setup_s``);
then a closed loop with one client repeats the workload's timed section
for about ``--seconds``, checking every output. With
``--trace 0`` the last line of stdout is the end-to-end result; with
``--trace 1`` the loop alternates untraced and traced operations, the
last line holds the per-layer metrics, and the spans are written to
``.bench_out/trace-<workload>-seed<seed>.json``. The line before the last
is a detail record: provenance, sample counts and directions.

The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import os

# One process, single-threaded: pin any threaded numerical library
# before NumPy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import ROW_COUNTED, Tracer, layer_table

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 5
SETUP_MIN_S = 1.0

# name -> (unit, direction). Every workload reports every one of these.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "latency_ms_p50": ("ms", "lower"),
    "latency_ms_p99": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Layers whose calls and self time the traced run reports.
LAYERS = (
    "ndcore.matmul.k_large",
    "ndcore.matmul.k_small",
    "ndcore.relu",
    "pairgen.sample_pair_batch",
    "pairgen.sample_instance_batch",
    "model.features",
    "model.forward_pairs",
    "model.forward_singles",
    "model.objective_and_gradients",
    "model.rmsprop_step",
    "model.save_checkpoint",
    "model.load_checkpoint",
    "engine.train",
    "engine.draw_partner_indices",
    "engine.score_with_partners",
    "engine.score_dataset",
    "engine.write_scores_csv",
    "engine.read_scores_csv",
    "dataset.load_feature_csv",
    "dataset.load_csv",
    "dataset.save_csv",
    "dataset.stratified_split",
    "dataset.build_weak_supervision",
    "dataset.standardize_split",
    "dataset.apply_standardization",
    "metrics.auc_roc",
    "metrics.auc_pr",
    "metrics.evaluate",
    "harness.run_single",
    "cli.main",
    "cli.cmd_train",
    "cli.cmd_score",
    "cli.cmd_eval",
)

# Layers that run only while setting up; their figures are per set-up.
SETUP_LAYERS = frozenset({"dataset.save_csv"})

MATMUL_KINDS = ("ndcore.matmul.k_large", "ndcore.matmul.k_small")


def _per_layer_metrics() -> dict[str, tuple[str, str]]:
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = ("count", "lower")
        metrics[f"{layer}.self_s"] = ("s", "lower")
    for kind in MATMUL_KINDS:
        metrics[f"{kind}.flops"] = ("flop", "lower")
        metrics[f"{kind}.bytes"] = ("byte", "lower")
        metrics[f"{kind}.gflops_per_s"] = ("GFLOP/s", "higher")
    metrics["ndcore.matmul.oracle_checks"] = ("count", "higher")
    metrics["ndcore.matmul.oracle_mismatches"] = ("count", "lower")
    for layer in ROW_COUNTED:
        metrics[f"{layer}.rows"] = ("count", "lower")
        metrics[f"{layer}.rows_per_scored_row"] = ("ratio", "lower")
    metrics["trace_overhead_frac"] = ("ratio", "lower")
    return metrics


# name -> (unit, direction), reported by the traced run.
PER_LAYER = _per_layer_metrics()

# metrics.auc_pr adds one term per distinct score, so a perfect ranking
# can come out a unit in the last place above 1 (1 + 2**-52 on the
# acceptance fixture, seed 7). The upper end of the range check allows
# four such units and no more; the lower end is exact.
AUC_MAX = 1.0 + 4 * np.finfo(float).eps


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``
    percent of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def check(outcome, reference_digest: str | None) -> list[str]:
    """What is wrong with one operation's output, if anything."""
    problems = []
    if outcome.scores.size == 0 or not np.all(np.isfinite(outcome.scores)):
        problems.append("scores missing or not finite")
    for name in ("auc_roc", "auc_pr"):
        value = getattr(outcome, name)
        if not 0.0 <= value <= AUC_MAX:
            problems.append(
                f"{name} = {value!r} outside [0, 1] (summation rounding of up to 4 ulp above 1 allowed)"
            )
    if any(code != 0 for code in outcome.exit_codes):
        problems.append(f"CLI exit codes {outcome.exit_codes}")
    if reference_digest is not None and outcome.digest != reference_digest:
        problems.append("scores differ from the first operation with the same seed")
    return problems


class Tally:
    """Operations attempted and failed; failures are reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, n: int, problems: list[str], what: str) -> None:
        self.attempted += n
        if problems:
            self.failed += n
            for problem in problems:
                print(f"FAILED {what}: {problem}", file=sys.stderr)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args) -> dict:
    import prenet

    return {
        "git_commit": git_commit(),
        "prenet_version": prenet.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, one single-threaded process",
    }


def run_setup(workload, tally: Tally, tracer=None) -> list[float]:
    """Set up once when tracing; otherwise at least SETUP_REPEATS times
    and for at least SETUP_MIN_S, so that a set-up of a millisecond has
    a steady median too. Every repeat must build the same inputs."""
    times, digests = [], []
    while not times or (
        tracer is None and (len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S)
    ):
        if tracer is not None:
            tracer.op = "setup"
            tracer.install()
        t0 = time.perf_counter()
        try:
            digests.append(workload.setup())
        finally:
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.uninstall()
    problems = [] if len(set(digests)) == 1 else ["set-up inputs differ between repeats"]
    tally.record(1, problems, f"{workload.name} set-up")
    return times


def run_ops(workload, seconds: float, tally: Tally, tracer=None):
    """Repeat the timed section for about ``seconds``: no operation
    starts when less than half a typical operation's time is left. With
    a tracer, odd-numbered operations are traced. Returns the operations
    that passed their checks, as (index, traced, outcome)."""
    results, walls = [], []
    reference = None
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        what = f"{workload.name} operation {i}"
        # Start every operation from the same collector state, so a full
        # collection of the previous operation's garbage is not timed.
        gc.collect()
        try:
            if traced:
                tracer.op = i
                tracer.install()
            try:
                t0 = time.perf_counter()
                c0 = time.thread_time()
                with tracer.span("bench.operation") if traced else contextlib.nullcontext():
                    raw = workload.run()
                cpu = time.thread_time() - c0
                wall = time.perf_counter() - t0
            finally:
                if traced:
                    tracer.uninstall()
            walls.append(wall)
            outcome = workload.finish(raw)
            outcome.wall_s = wall
            outcome.latencies_s = outcome.latencies_s or [cpu]
            outcome.wall_latencies_s = outcome.wall_latencies_s or [wall]
        except Exception:
            tally.record(workload.requests_per_op(), [traceback.format_exc()], what)
        else:
            problems = check(outcome, reference)
            reference = reference or outcome.digest
            tally.record(len(outcome.latencies_s), problems, what)
            if not problems:
                results.append((i, traced, outcome))
        i += 1
        left = deadline - time.perf_counter()
        if tracer is not None and i < 2:
            continue
        if left <= 0 or (walls and left < statistics.median(walls) / 2):
            return results


def latency_ms(outcomes, q: float, clock: str = "latencies_s") -> float:
    """The ``q``-th percentile of request latency within each operation
    (the 99th of one 1050-call sequence has ten samples beyond it),
    median over the operations, in milliseconds."""
    return 1000.0 * statistics.median(percentile(getattr(o, clock), q) for o in outcomes)


def end_to_end_metrics(workload, setup_times, results) -> tuple[dict, dict]:
    """End-to-end figures. Request latency is the calling thread's CPU
    time: on a shared host the wall-clock tail of a 1 ms call is the
    host descheduling the process (tail calls took 2-10 ms of wall time
    for 1.2 ms of CPU time), which no change to the program moves. The
    wall-clock percentiles go to the detail record."""
    outcomes = [o for _, _, o in results]
    wall = statistics.median(o.wall_s for o in outcomes)
    n = len(outcomes)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "items_per_s": workload.work_items(outcomes[0]) / wall,
        "latency_ms_p50": latency_ms(outcomes, 50),
        "latency_ms_p99": latency_ms(outcomes, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    samples = {
        "setup_s": len(setup_times),
        "wall_s": n,
        "items_per_s": n,
        "latency_ms_p50": sum(len(o.latencies_s) for o in outcomes),
        "latency_ms_p99": sum(len(o.latencies_s) for o in outcomes),
        "peak_rss_mb": 1,
    }
    return values, samples


def per_layer_metrics(tracer, results, n_setups: int):
    """Per-layer figures per traced operation (per set-up for set-up
    layers), with sample counts and the layer tables they came from."""
    traced = [o for _, t, o in results if t]
    untraced = [o for _, t, o in results if not t]
    ops = {i for i, t, _ in results if t}
    n_ops = len(ops)
    per_op = layer_table(tracer.spans, ops)
    per_setup = layer_table(tracer.spans, {"setup"})
    counts: dict[str, float] = {}
    for op in ops:
        for name, value in tracer.counts[op].items():
            counts[name] = counts.get(name, 0.0) + value
    values: dict[str, float] = {}
    for layer in LAYERS:
        table, n = (per_setup, n_setups) if layer in SETUP_LAYERS else (per_op, n_ops)
        row = table.get(layer, {"calls": 0, "self_s": 0.0})
        values[f"{layer}.calls"] = row["calls"] / n
        values[f"{layer}.self_s"] = row["self_s"] / n
    for kind in MATMUL_KINDS:
        flops = counts.get(f"{kind}.flops", 0.0) / n_ops
        self_s = values[f"{kind}.self_s"]
        values[f"{kind}.flops"] = flops
        values[f"{kind}.bytes"] = counts.get(f"{kind}.bytes", 0.0) / n_ops
        values[f"{kind}.gflops_per_s"] = flops / self_s / 1e9 if self_s > 0 else 0.0
    for name in ("ndcore.matmul.oracle_checks", "ndcore.matmul.oracle_mismatches"):
        values[name] = sum(c.get(name, 0.0) for c in tracer.counts.values())
    for layer in ROW_COUNTED:
        rows = counts.get(f"{layer}.rows", 0.0) / n_ops
        values[f"{layer}.rows"] = rows
        values[f"{layer}.rows_per_scored_row"] = rows / traced[0].rows_scored
    values["trace_overhead_frac"] = (
        statistics.median(o.wall_s for o in traced)
        / statistics.median(o.wall_s for o in untraced)
        - 1.0
    )
    samples = {name: n_ops for name in values}
    samples["dataset.save_csv.calls"] = samples["dataset.save_csv.self_s"] = n_setups
    samples["trace_overhead_frac"] = len(results)
    return values, samples, per_op, per_setup


def write_trace(path: Path, tracer, per_op, per_setup, detail) -> None:
    """Write the detail record, layer tables, counts and every span; a
    span's name is an index into ``span_names`` and its times are integer
    nanoseconds from the first span's start."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    names: dict[str, int] = {}
    spans = [
        [names.setdefault(n, len(names)), round((s - origin) * 1e9), round((e - origin) * 1e9), p, op]
        for n, s, e, p, op in tracer.spans
    ]
    doc = {
        "detail": detail,
        "layers_per_traced_operation_total": per_op,
        "layers_per_setup_total": per_setup,
        "counts": {str(op): dict(c) for op, c in tracer.counts.items()},
        "span_names": list(names),
        "span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
        "spans": spans,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def measure(args, workload) -> tuple[dict, dict]:
    """Run the workload; returns (result line, detail record)."""
    tally = Tally()
    tracer = Tracer() if args.trace else None
    setup_times = run_setup(workload, tally, tracer)
    results = run_ops(workload, args.seconds, tally, tracer)
    detail = {"provenance": provenance(args)}
    metrics: dict = {}
    if results and tally.failed == 0:
        if tracer is None:
            values, samples = end_to_end_metrics(workload, setup_times, results)
            declared = END_TO_END
        else:
            values, samples, per_op, per_setup = per_layer_metrics(tracer, results, len(setup_times))
            declared = PER_LAYER
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in declared.items()}
        detail["metrics"] = {
            name: {"value": values[name], "unit": unit, "better": better, "samples": samples[name]}
            for name, (unit, better) in declared.items()
        }
        detail["work_unit"] = workload.work_unit
        first = results[0][2]
        detail["quality"] = {
            name: {"value": getattr(first, name), "unit": "ratio", "better": "higher"}
            for name in ("auc_roc", "auc_pr")
        }
        detail["wall_s_samples"] = [o.wall_s for _, _, o in results]
        outcomes = [o for _, _, o in results]
        detail["wall_clock_latency_ms"] = {
            f"p{q}": latency_ms(outcomes, q, "wall_latencies_s") for q in (50, 99)
        }
        if tracer is not None:
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            detail["trace_file"] = str(trace_path.relative_to(ROOT))
            write_trace(trace_path, tracer, per_op, per_setup, detail)
    detail["attempted"] = tally.attempted
    detail["failed"] = tally.failed
    detail["error_rate"] = tally.failed / max(tally.attempted, 1)
    result = {
        "correct": tally.failed == 0 and bool(results),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, detail


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, default=1, help="workload seed; 1 is the acceptance fixture")
    p.add_argument("--seconds", type=float, default=25.0, help="how long the timed loop runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 for the traced run")
    return p.parse_args(argv)


def main(argv=None, sizes=None) -> int:
    src = ROOT / "src"
    if not (src / "prenet" / "__init__.py").is_file():
        print(f"error: no prenet sources under {src}", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import workloads  # imports prenet, so only once src/ is on the path

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        workload_class = workloads.WORKLOADS[args.workload]
        workload = workload_class(sizes or workloads.Sizes(), args.seed, Path(workdir))
        try:
            result, detail = measure(args, workload)
        except Exception:
            traceback.print_exc()
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            detail = {"error_rate": 1.0}
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
