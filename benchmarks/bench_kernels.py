#!/usr/bin/env python3
"""Timing of the Fourier-space chain event loop.

Replays a short canonical-chain trajectory through the fast path and the
generic simulator and asserts that the current series and the final state
agree to 1e-10; then times the fast path on the full horizon and reports
wall time and events/second.  For the benchmark with per-layer timings and
correctness gates, use perfbench/run.py.
"""

import argparse
import statistics
import time

import numpy as np

from magnon_gk import dynamics as dy
from magnon_gk.lattice import LatticeSpec, total_current
from magnon_gk.rng import stream
from magnon_gk.sampling import sample_canonical

REPLAY_T = 1.0   # horizon of the check against generic simulate
REPEAT = 3       # timed runs; the median is reported


def check_against_generic(s0, t_end, dt_out, seed):
    ts, js, fin = dy.simulate_current_series(s0, t_end, dt_out, seed)
    traj = dy.simulate(s0, t_end, dt_out, seed, track="none")
    ref = np.array([total_current(traj.state(k)) for k in range(len(ts))])
    last = traj.state(len(ts) - 1)
    err = max(np.abs(js - ref).max(),
              np.abs(fin.flatten() - last.flatten()).max())
    assert err < 1e-10, f"fast path deviates from simulate by {err:.2e}"
    return err


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=256)
    ap.add_argument("--t-end", type=float, default=16.0)
    ap.add_argument("--dt-out", type=float, default=0.25)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = LatticeSpec(d=1, dstar=2, n=args.n, b=1.0, gamma=1.0,
                       coords="deformation")
    s0 = sample_canonical(spec, 1.0, rng=stream(args.seed, "init"))
    err = check_against_generic(s0, REPLAY_T, args.dt_out, args.seed)
    nev = len(dy.draw_events(spec, args.t_end, args.seed)[0])
    walls = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        dy.simulate_current_series(s0, args.t_end, args.dt_out, args.seed)
        walls.append(time.perf_counter() - t0)
    wall = statistics.median(walls)

    print(f"chain N={args.n}, t_end={args.t_end}, {nev} events; "
          f"agrees with simulate to {err:.1e} over t={REPLAY_T}")
    print(f"{'wall [s]':>10}{'events/s':>14}   (median of {REPEAT})")
    print(f"{wall:>10.3f}{nev / wall:>14.0f}")


if __name__ == "__main__":
    main()
