#!/usr/bin/env python3
"""Compare two commits on the perfbench workloads in alternating pairs.

    python3 benchmarks/bench_pair.py PARENT CHANGE [--workload W] \\
        [--pairs K] [--seed S] [--tag TAG]

Extracts each commit with ``git archive`` into its own temporary directory,
then, per workload, runs K pairs of ``perfbench/run.py --workload W --seed S
--trace 0`` on the two trees, seeds S .. S+K-1, with the run length
BENCHMARK.json sets. Pair i runs the parent first when i is even and the
change first when i is odd, so that a drift of the host's speed falls on
both sides. Per workload and end-to-end metric it prints the median of the
per-pair ratio change/parent, the interquartile range of that ratio, the
pairs the change won (better in the metric's direction of BENCHMARK.json),
a verdict (``verdict``: gain, worse, unresolved or within bound, against
the metric's BENCHMARK.json bound) and failed/attempted operations on each
side, flagging a higher failed share in the change. Writes every result
line and that summary, with the environment and both commits, to
``benchmarks/PAIRS_<TAG>.json`` (TAG defaults to the two short hashes). A
tool, not a gate: it exits 0 whatever the ratios are. Imports no numpy, so
that the perfbench workers pin their thread pools before numpy loads.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
import tarfile
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_record as br  # noqa: E402

SCHEMA = "bench-pairs-1"
SIDES = ("parent", "change")


def extract(commit: str, dest: str) -> str:
    """Full hash of commit, whose tree is written into dest."""
    sha = br.git("rev-parse", "--verify", f"{commit}^{{commit}}")
    if not sha:
        sys.exit(f"bench_pair: not a commit: {commit}")
    tar = dest + ".tar"
    subprocess.run(["git", "archive", "-o", tar, sha], cwd=br.ROOT,
                   check=True)
    with tarfile.open(tar) as fh:
        fh.extractall(dest, filter="data")
    os.remove(tar)
    return sha


def verdict(m: dict, pairs: int) -> str:
    """The verdict on one metric's summary m over the pairs: "gain" if the
    change won at least 9 pairs in 10 and its median is better than the
    parent's by more than the parent's interquartile range; else "worse" if
    its median is worse by more than the relative bound m["bound"]; else
    "unresolved" if the parent's interquartile range exceeds that bound;
    else "within bound"."""
    parent, change, bound = m["parent"], m["change"], m["bound"]
    sign = 1.0 if m["better"] == "lower" else -1.0
    gap = sign * (parent["median"] - change["median"])
    if 10 * m["won"] >= 9 * pairs and gap > parent["q3"] - parent["q1"]:
        return "gain"
    if -gap > bound * abs(parent["median"]):
        return "worse"
    if parent["q3"] - parent["q1"] > bound * abs(parent["median"]):
        return "unresolved"
    return "within bound"


def pair_summary(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Failed and attempted operations per side, whether the change failed
    a larger share, and per end-to-end metric of ``end_to_end`` (the
    BENCHMARK.json entries: name, better "lower" | "higher", bound) the
    median and quartiles of change/parent over the pairs, the pairs the
    change won, each side's median and quartiles, and the ``verdict``.
    Each pair maps "parent" and "change" to a perfbench result line."""
    metrics = {}
    for entry in end_to_end:
        name, direction = entry["name"], entry["better"]
        vals = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                for side in SIDES}
        ratios = [c / a for a, c in zip(vals["parent"], vals["change"])]
        ratio = br.spread(ratios)
        m = metrics[name] = {
            "ratio": ratio, "ratio_iqr": ratio["q3"] - ratio["q1"],
            "won": sum(r < 1.0 if direction == "lower" else r > 1.0
                       for r in ratios),
            "better": direction, "bound": entry["bound"],
            **{side: br.spread(vals[side]) for side in SIDES}}
        m["verdict"] = verdict(m, len(pairs))
    counts = {k: {side: sum(p[side][k] for p in pairs) for side in SIDES}
              for k in ("failed", "attempted")}
    share = {side: counts["failed"][side] / max(1, counts["attempted"][side])
             for side in SIDES}
    return {"pairs": len(pairs), **counts,
            "failed_share_higher": share["change"] > share["parent"],
            "metrics": metrics}


def print_summary(workload: str, summ: dict) -> None:
    fails = ", ".join(f"{side} {summ['failed'][side]}/"
                      f"{summ['attempted'][side]}" for side in SIDES)
    flag = ("  HIGHER failed share in the change"
            if summ["failed_share_higher"] else "")
    print(f"{workload}: {summ['pairs']} pairs, failed/attempted "
          f"{fails}{flag}")
    for name, m in summ["metrics"].items():
        print(f"  {name:<12} {m['parent']['median']:.6g} -> "
              f"{m['change']['median']:.6g}  ratio median "
              f"{m['ratio']['median']:.3f} IQR {m['ratio_iqr']:.3f}  "
              f"won {m['won']}/{summ['pairs']} ({m['better']} is better)"
              f"  {m['verdict']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="commit measured as the parent")
    ap.add_argument("change", help="commit measured as the change")
    ap.add_argument("--workload", action="append",
                    help="workload to run; repeat for several (default: all "
                         "of BENCHMARK.json)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0, help="seed of pair 0")
    ap.add_argument("--tag", help="names the file PAIRS_<tag>.json "
                    "(default: the two short hashes)")
    args = ap.parse_args()
    with open(os.path.join(br.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = float(bench["run_seconds"])
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    end_to_end = bench["end_to_end"]
    names = [m["name"] for m in end_to_end]

    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        commits = {side: extract(getattr(args, side), trees[side])
                   for side in SIDES}
        env, runs, summary = None, [], {}
        for wl in workloads:
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                pair = {}
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    env, pair[side] = br.run_perfbench(wl, seed, seconds,
                                                       trees[side])
                pairs.append(pair)
                runs.append({"workload": wl, "seed": seed,
                             "first": "parent" if i % 2 == 0 else "change",
                             **pair})
                print(f"{wl} seed {seed}: " + ", ".join(
                    f"{k} {pair['parent']['metrics'][k]['value']:.4g} -> "
                    f"{pair['change']['metrics'][k]['value']:.4g}"
                    for k in names), flush=True)
            summary[wl] = pair_summary(pairs, end_to_end)
    for wl, summ in summary.items():
        print_summary(wl, summ)
    tag = args.tag or f"{commits['parent'][:8]}-{commits['change'][:8]}"
    record = {
        "schema": SCHEMA,
        "tag": tag,
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "commits": commits,
        "command": "perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "env": {k: env.get(k) for k in br.ENV_KEYS},
        "runs": runs,
        "summary": summary,
    }
    path = os.path.join(br.OUT_DIR, f"PAIRS_{tag}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, br.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
