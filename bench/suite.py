"""Run workloads in separate processes and summarise their metrics.

    python3 bench/suite.py                       # every workload, seed 1, untraced
    python3 bench/suite.py --seeds 1-10          # steadiness: spread per metric
    python3 bench/suite.py --baseline ../parent --seeds 1-10

Each run is ``bench/run.py`` in its own process, untraced and for
BENCHMARK.json's ``run_seconds``, one after another (one client,
single-threaded; never two runs at once). For every workload and
metric the summary gives the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) /
median, next to the metric's bound from BENCHMARK.json.

With ``--baseline DIR`` (a checkout of the parent commit) every seed runs
once on each side, alternating which side goes first, and the summary
adds the parent's median and quartiles, how many pairs the change won,
and the verdict of the rule in bench/README.md: ``gain``, ``regression``
(median worse than the parent's by more than the bound), ``unresolved``
(spread wider than the bound) or ``within bound``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _value(run: dict, metric: str) -> float:
    if metric in run["metrics"]:
        return run["metrics"][metric]["value"]
    return run["detail"]["quality"][metric]["value"]


def summarise(name: str, runs: list[dict], bounds: dict, base_runs: list[dict] | None) -> None:
    print(f"\n{name}: {len(runs)} runs, error_rate "
          f"{sum(r['failed'] for r in runs) / sum(r['attempted'] for r in runs):.4g}")
    header = (f"  {'metric':42s} {'unit':8s} {'better':6s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
    if base_runs:
        header += f" {'parent':>12s} {'parent q1':>12s} {'parent q3':>12s} {'wins':7s} verdict"
    print(header)
    meta = {**runs[0]["detail"]["metrics"], **runs[0]["detail"].get("quality", {})}
    for metric, info in meta.items():
        values = [_value(r, metric) for r in runs]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(metric)
        line = (f"  {metric:42s} {info['unit']:8s} {str(info['better'] or '-'):6s} "
                f"{med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.2%} "
                f"{'' if bound is None else format(bound, '.0%'):>6s}")
        if base_runs:
            base = [_value(r, metric) for r in base_runs]
            b1, bmed, b3 = quartiles(base)
            sign = 1 if info["better"] == "higher" else -1
            wins = sum(1 for new, old in zip(values, base) if sign * (new - old) > 0)
            line += (f" {bmed:12.6g} {b1:12.6g} {b3:12.6g} {wins:>3d}/{len(values):<3d} "
                     f"{verdict(values, base, sign, bound)}")
        print(line)


def verdict(values: list[float], base: list[float], sign: int, bound: float | None) -> str:
    """The comparison rule of bench/README.md, for one metric and workload."""
    q1, med, q3 = quartiles(values)
    b1, bmed, b3 = quartiles(base)
    wins = sum(1 for new, old in zip(values, base) if sign * (new - old) > 0)
    if wins >= 0.9 * len(values) and sign * (med - bmed) > b3 - b1:
        return "gain"
    if bound is None:
        return "-"
    if -sign * (med - bmed) > bound * abs(bmed):
        return "regression"
    all_better = min(sign * v for v in values) > max(sign * b for b in base)
    if (q3 - q1) > bound * abs(med) and not all_better:
        return "unresolved"
    return "within bound"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--workloads", default=",".join(names), help="comma-separated workload names")
    p.add_argument("--seeds", default="1", help="e.g. 1-10 or 1,4,7")
    p.add_argument("--baseline", type=Path, default=None,
                   help="checkout of the parent commit to compare against")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        runs, base_runs = [], []
        for i, seed in enumerate(parse_seeds(args.seeds)):
            sides = [(ROOT, runs)]
            if args.baseline:
                sides.append((args.baseline.resolve(), base_runs))
                if i % 2:
                    sides.reverse()
            for root, sink in sides:
                sink.append(run_once(root, workload, seed, spec["run_seconds"]))
        summarise(workload, runs, bounds, base_runs or None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
