"""One workload in its own process: set-up, timed passes, checks.

Started by run.py; prints one JSON object as its last stdout line.
``--setup-only`` stops after set-up and reports only its time.

Thread pools are pinned to one thread here, before numpy is imported:
``MAGNON_GK_THREADS`` is applied by the package's CLI only after numpy has
loaded, so the benchmark does not rely on it.
"""

from __future__ import annotations

import os
import time

T0 = time.perf_counter()

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
OUT_DIR = os.path.join(ROOT, ".bench_out")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer as trc  # noqa: E402
from workloads import WORKLOADS, Checker  # noqa: E402

# a worker stops starting passes after this long even if its workload
# wants more, so that run.py ends well inside its 180 s budget
HARD_STOP_S = 110.0


def environment() -> dict:
    import importlib.util
    import platform
    from magnon_gk import _kernels as kn
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "numba_kernel": bool(kn.HAVE_NUMBA),
        "MAGNON_GK_NUMBA": os.environ.get("MAGNON_GK_NUMBA"),
        "MAGNON_GK_THREADS": os.environ.get("MAGNON_GK_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": cpus,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "fft": "numpy.fft (pocketfft, single-threaded)",
        "machine": platform.machine(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str) -> dict:
    """Set up, then run passes until ``seconds`` is used up; return the
    result record.  In a traced run, odd passes are traced and even passes
    are not, so both kinds are measured in the same process."""
    tmpdir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    try:
        wl = WORKLOADS[workload](size, seed, tmpdir)
        wl.setup()
        setup_s = time.perf_counter() - T0
        tracer = trc.Tracer()
        null = trc.NullTracer()
        ck = Checker()
        passes = []
        start = time.perf_counter()
        k = 0
        while True:
            traced = trace and k % 2 == 1
            tr = tracer if traced else null
            tr.op = f"pass{k}"
            with tracer.installed(trc.ENTRIES) if traced else nullcontext():
                t = time.perf_counter()
                with tr.span("pass"):
                    out = wl.run_pass(k, tr, ck)
                wall = time.perf_counter() - t
            ops = wl.check_pass(k, out, ck)
            parts = out.get("parts", {})
            ops_wall = parts[wl.ops_part] if wl.ops_part else wall
            passes.append({"wall_s": wall, "ops": ops,
                           "ops_per_s": ops / ops_wall, "traced": traced,
                           "parts": parts})
            k += 1
            elapsed = time.perf_counter() - start
            done = wl.enough(k) and (not trace or k >= 2)
            if elapsed > HARD_STOP_S or (done and elapsed + wall > seconds):
                break
        # the high-water mark of set-up and passes, before the final checks
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        info = wl.final_checks(ck)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    rec = {
        "workload": workload, "seed": seed, "size": size,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "ops_per_s": statistics.median(p["ops_per_s"] for p in plain),
        "attempted": ck.attempted, "failed": ck.failed,
        "failures": ck.failures, "checks": info, "passes": passes,
        "env": environment(),
    }
    if trace:
        traced = [p for p in passes if p["traced"]]
        rec["per_layer"] = layer_metrics(tracer, traced, plain)
        rec["missing_entry_points"] = tracer.missing
        path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
        tracer.dump(path)
        rec["spans_file"] = path
    return rec


COUNT_SUFFIXES = (".calls", ".cases", ".events", ".mode_updates", ".spans",
                  ".missing_entry_points")


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(".ns_per_mode_update"):
        return "ns"
    if name.endswith((".us_per_event", ".us_per_eval")):
        return "us"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    return "1"


def layer_metrics(tr: trc.Tracer, traced: list, plain: list) -> dict:
    """Per-layer metrics as ``{name: {"value", "unit"}}``, means per traced
    pass.  Layers a workload does not reach read 0."""
    n = len(traced)
    busy, selfs, calls, c = tr.busy(), tr.self_by_name(), tr.calls(), tr.counts

    def per(v):
        return v / n

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    m = {}
    rl = busy["kernels.run_loop"]
    m["kernels.run_loop.busy_s"] = per(rl)
    m["kernels.run_loop.self_s"] = per(selfs["kernels.run_loop"])
    m["kernels.run_loop.events_per_s"] = ratio(c["kernels.run_loop.events"],
                                               rl)
    m["kernels.run_loop.mode_updates"] = per(
        c["kernels.run_loop.mode_updates"])
    m["kernels.run_loop.ns_per_mode_update"] = ratio(
        rl, c["kernels.run_loop.mode_updates"], 1e9)
    m["kernels.mode_tables.busy_s"] = per(busy["kernels.mode_tables"])
    m["kernels.mode_tables.bytes"] = per(c["kernels.mode_tables.bytes"])
    for key in ("fourier_total", "fourier_bonds", "dense_bonds"):
        m[f"dynamics.simulate.{key}.us_per_event"] = ratio(
            c[f"dynamics.simulate.{key}.busy_s"],
            c[f"dynamics.simulate.{key}.events"], 1e6)
    m["dynamics.propagate.calls"] = per(calls["dynamics.propagate"])
    m["dynamics.propagate_batch.calls"] = per(
        calls["dynamics.propagate_batch"])
    m["dynamics.propagate_batch.busy_s"] = per(
        busy["dynamics.propagate_batch"])
    m["dynamics.propagate_batch.self_s"] = per(
        selfs["dynamics.propagate_batch"])
    m["dynamics.quadrature.panels_per_segment"] = ratio(
        calls["dynamics.propagate_batch"], c["dynamics.simulate.segments"])
    m["dynamics.io.busy_s"] = per(busy["dynamics.io"])
    m["dynamics.io.bytes"] = per(c["dynamics.io.bytes"])
    for name in ("greenkubo.estimate_kappa", "greenkubo.estimate_correlation",
                 "spectral.fit_exponent", "spectral.d_closed",
                 "resolvent.run_certification", "sampling",
                 "dynamics.draw_events", "lattice.checks"):
        m[f"{name}.busy_s"] = per(busy[name])
    for name in ("spectral.kappa_gk_closed", "spectral.d_closed",
                 "observables.apply_generator", "sampling"):
        m[f"{name}.calls"] = per(calls[name])
    m["spectral.kappa_gk_closed.us_per_eval"] = ratio(
        busy["spectral.kappa_gk_closed"], calls["spectral.kappa_gk_closed"],
        1e6)
    m["resolvent.run_certification.cases"] = per(
        c["resolvent.run_certification.cases"])
    m["dynamics.draw_events.events"] = per(c["dynamics.draw_events.events"])
    m["generic.part_a.wall_s"] = per(busy["generic.part_a"])
    m["generic.part_b.wall_s"] = per(busy["generic.part_b"])
    m["generic.part_a.propagate_batch_self_s"] = per(
        tr.self_under("dynamics.propagate_batch", "generic.part_a"))
    m["bench.self_s"] = per(sum(selfs[k] for k in (
        "pass", "generic.part_a", "generic.part_b", "closedform.scan",
        "closedform.certify")))
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    m["trace.traced_wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = plain_wall
    m["trace.overhead_s"] = traced_wall - plain_wall
    m["trace.overhead_pct"] = 100.0 * (traced_wall - plain_wall) / plain_wall
    m["trace.spans"] = per(len(tr.spans))
    m["trace.missing_entry_points"] = float(len(tr.missing))
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in m.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if args.setup_only:
        WORKLOADS[args.workload](args.size, args.seed, OUT_DIR).setup()
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return
    rec = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.size)
    print(json.dumps(rec, default=float))


if __name__ == "__main__":
    main()
