#!/usr/bin/env python3
"""Benchmark of the magnon_gk package: three workloads, end to end and per
layer.

    python3 perfbench/run.py                       # all workloads, both runs
    python3 perfbench/run.py --workload chain_ensemble --seed 3 --trace 0
    python3 perfbench/run.py --workload generic_pipeline --trace 1

Each workload runs in its own worker process (worker.py).  The last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` it holds the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run.  Without ``--trace``, each workload gets
an untraced run and then a separate traced run, and the line holds both.  Set-up time is the median over the worker and
further set-up-only processes.  Full records (environment, every pass,
check failures) go to ``.bench_out/``.  This script imports no numpy, so
that the workers pin their thread pools before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("chain_ensemble", "generic_pipeline", "closedform_certify")
SETUP_PROBES = 4          # set-up-only processes besides the worker itself
BUDGET_S = 170.0          # a run must end within 180 s

END_TO_END = {"wall_s": "s", "ops_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}
class BenchError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    left = deadline - time.monotonic()
    if left <= 1.0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT,
                              capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {args} printed nothing")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 size: str, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--size", size]
    rec = _worker(common + ["--seconds", str(seconds), "--trace", str(trace)],
                  deadline)
    if trace:
        metrics = rec["per_layer"]
    else:
        samples = [rec["setup_s"]] + [
            _worker(common + ["--setup-only"], deadline)["setup_s"]
            for _ in range(SETUP_PROBES)]
        rec["setup_samples"] = samples
        rec["setup_s"] = statistics.median(samples)
        metrics = {k: {"value": rec[k], "unit": u}
                   for k, u in END_TO_END.items()}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{name}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(rec, fh, indent=1, default=float)
    return {"correct": rec["failed"] == 0, "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics, "record": rec}


def summary(name: str, res: dict) -> list[str]:
    """Human-readable lines; throughput under its workload-specific name."""
    rec = res["record"]
    kind = "traced" if "per_layer" in rec else "untraced"
    lines = [f"== {name}, {kind} run (seed {rec['seed']}, "
             f"{len(rec['passes'])} passes)"]
    if "per_layer" in rec:
        for k, v in res["metrics"].items():
            lines.append(f"  {k:<44} {v['value']:.6g} {v['unit']}")
    else:
        thr = ("evals_per_s" if name == "closedform_certify"
               else "events_per_s")
        rows = [("wall_s", rec["wall_s"], "s"),
                (thr, rec["ops_per_s"], "1/s"),
                ("setup_s", rec["setup_s"], "s"),
                ("peak_rss_mb", rec["peak_rss_mb"], "MB"),
                ("error_rate", rec["failed"] / rec["attempted"], "1")]
        lines += [f"  {k:<14} {v:.6g} {u}" for k, v, u in rows]
    for msg in rec["failures"][:5]:
        lines.append(f"  FAILED {msg}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few-second smoke size used by the tests")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "magnon_gk",
                                       "__init__.py")):
        print("perfbench: src/magnon_gk not found next to perfbench/; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)
    runs = [(n, t) for n in names for t in traces]
    deadline = time.monotonic() + BUDGET_S * len(runs)
    results = []
    try:
        for name, trace in runs:
            results.append(run_workload(name, args.seed, args.seconds, trace,
                                        args.size, deadline))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(json.dumps({"env": results[0]["record"]["env"]}))
    for (name, _), res in zip(runs, results):
        print("\n".join(summary(name, res)))
    prefix = len(names) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{n}.{k}" if prefix else k): v
                    for (n, _), r in zip(runs, results)
                    for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
