#!/usr/bin/env python3
"""Timing of the Fourier-space chain event loop and of generic ``simulate``.

Replays a short canonical-chain trajectory through the fast path and the
generic simulator and asserts that the current series and the final state
agree to 1e-10; then times the fast path on the full horizon and reports
wall time and events/second.  It also asserts that the closed-form segment
integral of the total current (``modes(state).current_integral``) matches
adaptive quadrature to 1e-12 relative on both backends, and reports
``simulate``'s cost per event for ``track`` none and total at d=2, N=16 and
for bonds at d=1, N=8.  For the benchmark with per-layer timings and
correctness gates, use perfbench/run.py.
"""

import argparse
import statistics
import time

import numpy as np

from magnon_gk import dynamics as dy
from magnon_gk.lattice import LatticeSpec, bond_currents, total_current
from magnon_gk.rng import stream
from magnon_gk.sampling import sample_canonical, sample_microcanonical

REPLAY_T = 1.0   # horizon of the check against generic simulate
REPEAT = 3       # timed runs; the median is reported
PLANE = LatticeSpec(d=2, dstar=2, n=16, b=1.0, gamma=1.0)
CHAIN8 = LatticeSpec(d=1, dstar=2, n=8, b=1.0, gamma=1.0)
ALT8 = LatticeSpec(d=1, dstar=2, n=8, b=-2.0, gamma=0.5, charge="alternate",
                   coords="deformation")
# (label, spec, track, expected events) of the simulate timings
SIMULATE_CASES = (("d=2 N=16 none", PLANE, "none", 512),
                  ("d=2 N=16 total", PLANE, "total", 512),
                  ("d=1 N=8 bonds", CHAIN8, "bonds", 750))


def check_against_generic(s0, t_end, dt_out, seed):
    ts, js, fin = dy.simulate_current_series(s0, t_end, dt_out, seed)
    traj = dy.simulate(s0, t_end, dt_out, seed, track="none")
    ref = np.array([total_current(traj.state(k)) for k in range(len(ts))])
    last = traj.state(len(ts) - 1)
    err = max(np.abs(js - ref).max(),
              np.abs(fin.flatten() - last.flatten()).max())
    assert err < 1e-10, f"fast path deviates from simulate by {err:.2e}"
    return err


def start_state(spec, seed):
    rng = stream(seed, "init")
    if spec.coords == "position":
        return sample_microcanonical(spec, 1.0, rng)
    return sample_canonical(spec, 1.0, rng=rng)


def check_current_integral(seed):
    """Largest relative deviation of the closed-form segment integral of
    the total current from adaptive quadrature along the same flow."""
    worst = 0.0
    for spec in (PLANE, ALT8):
        s = start_state(spec, seed)
        backend = dy.make_backend(spec)
        for T in (0.05, 0.5, 2.0):
            ref = dy._adaptive_integral(
                lambda taus: bond_currents(
                    spec, *backend.propagate_batch(s, taus)).sum(axis=-1),
                0.0, T, 1e-13)
            got = backend.modes(s).current_integral(T)
            worst = max(worst, np.abs(got - ref).max() / np.abs(ref).max())
    assert worst < 1e-12, f"current_integral deviates by {worst:.2e}"
    return worst


def time_simulate(spec, track, events, seed):
    """Median over REPEAT runs of simulate's wall time per event [us]."""
    s0 = start_state(spec, seed)
    backend = dy.make_backend(spec)
    t_end = events / (spec.gamma * spec.dstar * spec.d * spec.nsites)
    per_event = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        traj = dy.simulate(s0, t_end, t_end / 2, seed, backend=backend,
                           track=track)
        per_event.append((time.perf_counter() - t0)
                         / max(traj.event_count, 1))
    return 1e6 * statistics.median(per_event)


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

    cerr = check_current_integral(args.seed)
    print(f"simulate: current_integral agrees with quadrature to {cerr:.1e} "
          f"(relative)")
    print(f"{'case':>16}{'us/event':>12}   (median of {REPEAT})")
    for label, sp, track, events in SIMULATE_CASES:
        us = time_simulate(sp, track, events, args.seed)
        print(f"{label:>16}{us:>12.1f}")


if __name__ == "__main__":
    main()
