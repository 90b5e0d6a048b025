"""Tests of the benchmark itself, at its tiny size.

    python3 -m pytest perfbench/tests

They check the output contract (every metric named in BENCHMARK.json is
emitted with its unit), that a corrupted program output is counted as a
failed operation, that traced spans are self-consistent, and that the
benchmark refuses to run without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ("chain_ensemble", "generic_pipeline", "closedform_certify")
TIMEOUT = 170

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workload_names_match():
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    res = last_json(run_bench(workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_layers_and_consistent_spans(workload):
    res = last_json(run_bench(workload, 1))
    assert res["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == want
    with open(os.path.join(ROOT, ".bench_out",
                           f"result-{workload}-seed3-trace1.json")) as fh:
        rec = json.load(fh)
    with open(rec["spans_file"]) as fh:
        spans = json.load(fh)["spans"]
    assert spans and all(s["op"] is not None for s in spans)
    traced_wall = sum(p["wall_s"] for p in rec["passes"] if p["traced"])
    self_sum = sum(s["self_s"] for s in spans)
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] < 0)
    assert all(s["self_s"] >= -1e-9 for s in spans)
    assert self_sum == pytest.approx(roots, rel=1e-9)
    assert 0.9 * traced_wall <= self_sum <= traced_wall


# each corruption damages one output that the workload's checks cover
CORRUPT = {
    "chain_ensemble": (
        "dynamics", "simulate_current_series",
        "def bad(*a, **k):\n"
        "    t, js, fin = orig(*a, **k)\n"
        "    fin.vel *= 1.001\n"
        "    return t, js, fin\n"),
    "generic_pipeline": (
        "dynamics", "load_trajectory",
        "def bad(*a, **k):\n"
        "    tr = orig(*a, **k)\n"
        "    tr.pos[-1, 0, 0] += 1e-3\n"
        "    return tr\n"),
    "closedform_certify": (
        "spectral", "kappa_gk_closed",
        "def bad(t, **k):\n"
        "    return orig(t, **k) * t ** 0.1\n"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_raises_error_rate(workload):
    mod, attr, body = CORRUPT[workload]
    code = (
        f"import sys, json\nsys.path.insert(0, {BENCH!r})\n"
        "import worker\n"
        f"from magnon_gk import {mod} as m\n"
        f"orig = m.{attr}\n{body}"
        f"m.{attr} = bad\n"
        f"rec = worker.measure({workload!r}, 3, 0.5, False, 'tiny')\n"
        "print(json.dumps([rec['attempted'], rec['failed']]))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=TIMEOUT)
    attempted, failed = last_json(proc)
    assert attempted >= 1 and failed / attempted > 0


def test_missing_entry_point_is_tolerated():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH)
    try:
        import tracer as trc
        from magnon_gk import dynamics as dy
        from magnon_gk.lattice import LatticeSpec
        orig = dy.draw_events
        tr = trc.Tracer()
        entries = trc.ENTRIES + [
            ("gone", "dynamics:no_such_function", None),
            ("gone", "no_such_module:f", None)]
        with tr.installed(entries):
            assert dy.draw_events is not orig
            dy.draw_events(LatticeSpec(d=1, dstar=2, n=8, b=1.0, gamma=1.0),
                           1.0, 0)
        assert dy.draw_events is orig
        assert tr.missing == ["dynamics:no_such_function",
                              "no_such_module:f"]
        assert [s[0] for s in tr.spans] == ["dynamics.draw_events"]
        assert tr.counts["dynamics.draw_events.events"] > 0
    finally:
        sys.path.remove(BENCH)
        sys.path.remove(os.path.join(ROOT, "src"))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain_ensemble",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
