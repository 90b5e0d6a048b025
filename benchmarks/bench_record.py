#!/usr/bin/env python3
"""Record a BENCH file: the perfbench workloads over a few seeds.

    python3 benchmarks/bench_record.py TAG

Runs ``perfbench/run.py --workload W --seed S --trace 0`` for every workload
of BENCHMARK.json and seeds 0 .. SEEDS-1, with the run length BENCHMARK.json
sets.  Writes ``benchmarks/BENCH_<TAG>.json`` with the environment (python,
numpy, scipy, cores, thread variables), the commit measured, every result
line and, per workload and end-to-end metric, the median and quartiles over
the seeds.  Then prints the change of each median against the newest BENCH
file committed to git, marking a metric that is worse by more than its
BENCHMARK.json bound, and that file's ``note``, if it has one.  The diff
is of unpaired medians and so only advisory.  Imports no numpy, so that the
perfbench workers pin their thread pools before numpy loads.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "benchmarks")
SCHEMA = "bench-record-1"
SEEDS = 3
ENV_KEYS = ("python", "numpy", "scipy", "machine", "nproc", "cpus_usable",
            "MAGNON_GK_THREADS", "threads")


def git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def run_perfbench(workload: str, seed: int, seconds: float,
                  root: str = ROOT):
    """(environment, result line) of one untraced perfbench run of the
    source tree at root."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_record: {' '.join(cmd)} exited {proc.returncode}:"
                 f"\n{proc.stderr[-2000:]}")
    lines = [json.loads(ln) for ln in proc.stdout.splitlines()
             if ln.startswith("{")]
    env = next(ln["env"] for ln in lines if "env" in ln)
    return env, lines[-1]


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def newest_committed(exclude: str) -> str | None:
    """Path of the BENCH file with the latest commit, other than exclude."""
    best, best_time = None, -1
    for rel in git("ls-files", "benchmarks/BENCH_*.json").splitlines():
        path = os.path.join(ROOT, rel)
        stamp = git("log", "-1", "--format=%ct", "--", rel)
        if path != exclude and stamp and int(stamp) > best_time:
            best, best_time = path, int(stamp)
    return best


def print_diff(old: dict, new: dict, bounds: dict, old_name: str):
    print(f"against {old_name} ({old.get('commit', '?')[:12]}); unpaired "
          "medians, so advisory: a regression check needs alternating "
          "parent/change pairs")
    if old.get("note"):
        print(f"  note on {old_name}: {old['note']}")
    for wl, metrics in new["summary"].items():
        for name, cur in metrics.items():
            prev = old.get("summary", {}).get(wl, {}).get(name)
            if prev is None or not prev["median"]:
                print(f"  {wl:<20} {name:<12} {cur['median']:.6g} (new)")
                continue
            rel = cur["median"] / prev["median"] - 1.0
            better, bound = bounds.get(name, ("lower", None))
            worse = rel if better == "lower" else -rel
            flag = ("  WORSE than bound" if bound is not None
                    and worse > bound else "")
            print(f"  {wl:<20} {name:<12} {prev['median']:.6g} -> "
                  f"{cur['median']:.6g} ({rel:+.1%}){flag}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tag", help="names the file BENCH_<tag>.json")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = float(bench["run_seconds"])
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: (m["better"], m["bound"])
              for m in bench["end_to_end"]}

    env, runs = None, []
    for wl in workloads:
        for seed in range(SEEDS):
            env, line = run_perfbench(wl, seed, seconds)
            runs.append({"workload": wl, "seed": seed, "result": line})
            print(f"{wl} seed {seed}: "
                  + ", ".join(f"{k} {v['value']:.6g}"
                              for k, v in line["metrics"].items()),
                  flush=True)
    summary = {wl: {name: spread([r["result"]["metrics"][name]["value"]
                                  for r in runs if r["workload"] == wl])
                    for name in bounds}
               for wl in workloads}
    record = {
        "schema": SCHEMA,
        "tag": args.tag,
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "commit": git("rev-parse", "HEAD"),
        # true when the measured src/ or perfbench/ differ from that commit
        "uncommitted_changes": bool(git("status", "--porcelain", "--",
                                        "src", "perfbench")),
        "command": "perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "env": {k: env.get(k) for k in ENV_KEYS},
        "failed": sum(r["result"]["failed"] for r in runs),
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "runs": runs,
        "summary": summary,
    }
    path = os.path.join(OUT_DIR, f"BENCH_{args.tag}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    prev = newest_committed(path)
    if prev is None:
        print("no committed BENCH file to compare with")
    else:
        with open(prev) as fh:
            print_diff(json.load(fh), record, bounds,
                       os.path.relpath(prev, ROOT))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
