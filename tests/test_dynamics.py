import re

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import kstest

from magnon_gk.lattice import (LatticeSpec, PhaseState, bond_currents,
                               conserved_snapshot, total_current,
                               total_energy)
from magnon_gk import _kernels as kn
from magnon_gk import dynamics as dy
from magnon_gk import spectral as sp
from magnon_gk.observables import drift_matrix
from magnon_gk.rng import stream
from magnon_gk.sampling import sample_canonical, sample_microcanonical


UNIFORM = LatticeSpec(d=1, dstar=2, n=8, b=1.0, gamma=1.0)
DEFORM = LatticeSpec(d=1, dstar=2, n=16, b=1.0, gamma=1.0,
                     coords="deformation")
# B=0 specs whose k=0 mode has a double root: a Jordan block in position
# coords, the zero matrix in deformation coords
FREE = LatticeSpec(d=1, dstar=2, n=8, b=0.0, gamma=1.0)
NEUTRAL = LatticeSpec(d=1, dstar=2, n=16, b=0.0, gamma=1.0,
                      coords="deformation")
ALT = LatticeSpec(d=1, dstar=2, n=8, b=-2.0, gamma=0.5, charge="alternate",
                  coords="deformation")
# bounds of test_simulate_long_horizon_conservation (2e5 events at N=8):
# measured relative energy drift 2.0e-12 (fourier) and 2.7e-12 (dense),
# invariant drift 3.2e-11 and 5.0e-11, over seeds 13-15
LONG_ENERGY = 1e-11
LONG_INVARIANTS = 2e-10


def micro_state(spec, e=2.0, key=0):
    return sample_microcanonical(spec, e, stream(key, "init"))


# ---------------------------------------------------------------------------
# backends


def test_dt_zero_is_identity_and_negative_rejected():
    s = micro_state(UNIFORM)
    for be in (dy.FourierBlock(UNIFORM), dy.DenseEigen(UNIFORM)):
        out = be.propagate(s, 0.0)
        assert np.array_equal(out.pos, s.pos)
        assert np.array_equal(out.vel, s.vel)
        with pytest.raises(Exception):
            be.propagate(s, -0.1)


def test_single_mode_harmonic_closed_form():
    spec = LatticeSpec(d=1, dstar=2, n=8, b=0.0, gamma=1.0)
    s = micro_state(spec, 1.0)
    t = 0.9
    out = dy.FourierBlock(spec).propagate(s, t)
    om = np.sqrt(4 * np.sin(np.pi * np.arange(8) / 8) ** 2)
    for j in range(2):
        qh, vh = np.fft.fft(s.pos[j]), np.fft.fft(s.vel[j])
        sin_over = np.divide(np.sin(om * t), om, out=np.full(8, t),
                             where=om > 0)
        want = np.cos(om * t) * qh + sin_over * vh
        assert np.abs(np.fft.fft(out.pos[j]) - want).max() < 1e-12


def test_zero_mode_velocity_rotation():
    # uncentered state: the mean velocity rotates with angular frequency B
    s = micro_state(UNIFORM)
    s.vel[0] += 0.3
    s.vel[1] -= 0.1
    t = 1.234
    out = dy.FourierBlock(UNIFORM).propagate(s, t)
    th = UNIFORM.b * t
    rot = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
    vbar = out.vel.mean(axis=1)
    assert np.abs(vbar - rot @ np.array([0.3, -0.1])).max() < 1e-12
    assert np.linalg.norm(vbar) == pytest.approx(np.hypot(0.3, 0.1),
                                                 rel=1e-12)


# d >= 2 and dstar != 2; the uncoupled components have a Jordan k=0 mode
D2 = LatticeSpec(d=2, dstar=3, n=4, b=1.0, gamma=1.0)
D3 = LatticeSpec(d=3, dstar=3, n=4, b=-0.7, gamma=1.0)
SCALAR = LatticeSpec(d=1, dstar=1, n=8, b=0.0, gamma=1.0)
# no field in position coords: both components uncoupled (Jordan k=0); at
# n=8 this would be FREE again
ZERO = LatticeSpec(d=1, dstar=2, n=6, b=0.0, gamma=1.0)


@pytest.mark.parametrize("spec", [UNIFORM, DEFORM, NEUTRAL, FREE, D2, D3,
                                  SCALAR])
def test_backend_cross_agreement(spec):
    s = (micro_state(spec) if spec.coords == "position"
         else sample_canonical(spec, 1.0, rng=stream(1, "init")))
    # these drifts have a Jordan k=0 mode, which DenseEigen rejects or
    # resolves only to about 1e-8; microcanonical states have no k=0
    # component, so a drifting centre of mass makes the mode move
    jordan = spec in (FREE, D2, D3, SCALAR)
    if jordan:
        s.vel += np.linspace(0.3, -0.2, spec.dstar)[:, None]
    fb = dy.FourierBlock(spec)
    de = None if jordan else dy.DenseEigen(spec)
    M = drift_matrix(spec)
    for dt in (0.1, 0.73):
        a = fb.propagate(s, dt).flatten()
        c = expm(M * dt) @ s.flatten()  # independent oracle
        assert np.abs(a - c).max() < 1e-8
        if de is not None:
            b = de.propagate(s, dt).flatten()
            assert np.abs(a - b).max() < 1e-8


@pytest.mark.parametrize("spec", [FREE, D2, D3, SCALAR, ZERO])
def test_dense_rejects_jordan_specs(spec):
    # position coords with an uncoupled component (B = 0 or dstar != 2):
    # rejected on structure, whatever the eig round-off
    for _ in range(3):
        with pytest.raises(dy.BackendError, match="Jordan"):
            dy.DenseEigen(spec)


@pytest.mark.parametrize("spec", [UNIFORM, DEFORM, NEUTRAL, ALT])
def test_dense_accepts_diagonalizable_specs(spec):
    assert dy.DenseEigen(spec).kind == "dense"


def test_energy_preserved_per_call():
    for spec, s in ((UNIFORM, micro_state(UNIFORM)),
                    (DEFORM, sample_canonical(DEFORM, 1.0,
                                              rng=stream(2, "init")))):
        e0 = total_energy(s)
        for be in (dy.FourierBlock(spec), dy.DenseEigen(spec)):
            out = be.propagate(s, 2.7)
            assert abs(total_energy(out) - e0) <= 1e-12 * e0


def test_fourier_rejects_alternate_charge():
    with pytest.raises(dy.BackendError):
        dy.FourierBlock(ALT)
    dy.DenseEigen(ALT)  # dense handles it


def test_make_backend_picks_by_charge():
    assert dy.make_backend(UNIFORM).kind == "fourier"
    assert dy.make_backend(NEUTRAL).kind == "fourier"
    assert dy.make_backend(ALT).kind == "dense"


@pytest.mark.parametrize("spec", [UNIFORM, DEFORM, ALT, D2])
def test_propagate_batch_matches_sequential(spec):
    s = (micro_state(spec) if spec.coords == "position"
         else sample_canonical(spec, 1.0, rng=stream(3, "init")))
    be = dy.make_backend(spec)
    dts = np.array([0.0, 0.05, 0.31, 1.2])
    pos, vel = be.propagate_batch(s, dts)
    for k, dt in enumerate(dts):
        ref = be.propagate(s, float(dt))
        assert np.abs(pos[k] - ref.pos).max() < 1e-12
        assert np.abs(vel[k] - ref.vel).max() < 1e-12


def test_d2_propagation_conserves_energy():
    spec = LatticeSpec(d=2, dstar=2, n=6, b=1.0, gamma=1.0)
    s = micro_state(spec, 1.0)
    out = dy.FourierBlock(spec).propagate(s, 3.3)
    assert abs(total_energy(out) - total_energy(s)) < 1e-11


# ---------------------------------------------------------------------------
# exchange events


def test_apply_exchange_examples():
    s = dy.PhaseState if False else None  # noqa: F841
    from magnon_gk.lattice import zero_state
    st = zero_state(UNIFORM)
    # equal velocities: no-op
    st.vel[0, :] = 1.5
    out, tr = dy.apply_exchange(st, 0, 0, 0)
    assert tr == 0.0
    assert np.array_equal(out.vel, st.vel)
    # v_x = 0, v_y = 2: site energies change by +-2, transported 2
    st2 = zero_state(UNIFORM)
    st2.vel[0, 1] = 2.0
    out2, tr2 = dy.apply_exchange(st2, 0, 0, 0)
    assert tr2 == 2.0
    assert out2.vel[0, 0] == 2.0 and out2.vel[0, 1] == 0.0
    assert total_energy(out2) == total_energy(st2)


def test_exchange_preserves_energy_random():
    s = micro_state(UNIFORM)
    out, _ = dy.apply_exchange(s, 1, 5, 0)
    assert total_energy(out) == pytest.approx(total_energy(s), rel=1e-14)
    with pytest.raises(Exception):
        dy.apply_exchange(s, 2, 0, 0)


# ---------------------------------------------------------------------------
# event statistics


def test_event_count_poisson_mean():
    rate = UNIFORM.gamma * 2 * 1 * 8
    t_end = 5.0
    counts = [len(dy.draw_events(UNIFORM, t_end, seed)[0])
              for seed in range(40)]
    mean = rate * t_end
    assert abs(np.mean(counts) - mean) <= 3 * np.sqrt(mean / len(counts))


def test_interevent_gaps_are_exponential():
    spec = LatticeSpec(d=1, dstar=2, n=16, b=1.0, gamma=1.0)
    rate = spec.gamma * 2 * 1 * 16
    times, _, r = dy.draw_events(spec, 100000.0 / rate, seed=8)
    assert r == rate
    assert len(times) > 90000
    gaps = np.diff(times)
    assert kstest(gaps, "expon", args=(0, 1.0 / rate)).pvalue > 0.01


def test_decode_triple_roundtrip():
    spec = LatticeSpec(d=2, dstar=3, n=4, b=0.0, gamma=1.0)
    seen = set()
    for trip in range(3 * 2 * 16):
        j, a, x = dy.decode_triple(spec, trip)
        assert 0 <= j < 3 and 0 <= a < 2 and 0 <= x < 16
        seen.add((j, a, x))
    assert len(seen) == 3 * 2 * 16


# ---------------------------------------------------------------------------
# full trajectories


def test_simulate_replay_is_bitwise():
    s0 = micro_state(UNIFORM)
    t1 = dy.simulate(s0, 5.0, 0.5, seed=5, track="bonds")
    t2 = dy.simulate(s0, 5.0, 0.5, seed=5, track="bonds")
    assert np.array_equal(t1.pos, t2.pos)
    assert np.array_equal(t1.det_current, t2.det_current)
    assert np.array_equal(t1.bond_jump, t2.bond_jump)
    t3 = dy.simulate(s0, 5.0, 0.5, seed=5, index=1)
    assert not np.array_equal(t1.vel, t3.vel)


@pytest.mark.parametrize("spec,key", [(UNIFORM, 0), (DEFORM, 1), (ALT, 2),
                                      (UNIFORM, 3)])
def test_conservation_and_continuity(spec, key):
    # key 3: dt_out does not divide t_end, so the bond integrals must stop
    # at the last output time (2.8), where the last state is stored
    t_end, dt_out = (3.0, 0.7) if key == 3 else (10.0, 1.0)
    s0 = (micro_state(spec) if spec.coords == "position"
          else sample_canonical(spec, 1.0, rng=stream(key, "init")))
    traj = dy.simulate(s0, t_end, dt_out, seed=key, track="bonds")
    ev_times = dy.draw_events(spec, t_end, key)[0]
    assert traj.event_count == np.sum(ev_times <= traj.times[-1])
    last = len(traj.times) - 1
    e0, e1 = total_energy(traj.state(0)), total_energy(traj.state(last))
    assert abs(e1 - e0) <= 1e-11 * e0
    c0 = conserved_snapshot(traj.state(0)).as_vector()
    c1 = conserved_snapshot(traj.state(last)).as_vector()
    assert np.abs(c1 - c0).max() < 1e-10
    assert dy.continuity_residual(traj) < 1e-9


def test_b0_chain_records_and_conserves_total_velocity():
    # without a field nothing rotates the velocities, so their sum is
    # conserved alongside the total deformation
    s0 = sample_canonical(NEUTRAL, 1.0, rng=stream(4, "init"))
    traj = dy.simulate(s0, 10.0, 1.0, seed=4, track="none")
    assert traj.event_count > 0
    v0 = conserved_snapshot(traj.state(0)).total_velocity
    v1 = conserved_snapshot(traj.state(len(traj.times) - 1)).total_velocity
    assert v0 is not None and v0.shape == (2,)
    assert np.abs(v1 - v0).max() < 1e-12


def oracle_state(spec, key):
    """Start state; Jordan specs get a centre-of-mass velocity, since
    microcanonical states have no k=0 component."""
    s0 = (micro_state(spec, key=key) if spec.coords == "position"
          else sample_canonical(spec, 1.0, rng=stream(key, "init")))
    if spec in (FREE, D2, D3, SCALAR, ZERO):
        s0.vel += np.linspace(0.3, -0.2, spec.dstar)[:, None]
    return s0


# 4-point Gauss-Legendre panel on [0, 1] and its two halves, for the
# recursive reference quadrature below
_X, _W = np.polynomial.legendre.leggauss(4)
GL_NODES = np.concatenate([0.5 + 0.5 * _X, 0.25 + 0.25 * _X,
                           0.75 + 0.25 * _X])
GL_WHOLE, GL_HALVES = 0.5 * _W, 0.25 * np.concatenate([_W, _W])


def recursive_integral(f_batch, a, b, tol, depth=0):
    """Independent reference quadrature, with a rule of its own: a
    vector-valued f over one interval [a, b] as a recursion, one 4-point
    Gauss-Legendre panel against its two halves, splitting with half the
    tolerance down to depth 14."""
    h = b - a
    vals = f_batch(a + h * GL_NODES).reshape(12, -1)
    coarse = h * (GL_WHOLE @ vals[:4])
    fine = h * (GL_HALVES @ vals[4:])
    if np.abs(fine - coarse).max() <= tol:
        return fine
    if depth >= 14:
        raise dy.QuadratureError(f"unconverged at depth {depth}")
    m = 0.5 * (a + b)
    return (recursive_integral(f_batch, a, m, 0.5 * tol, depth + 1)
            + recursive_integral(f_batch, m, b, 0.5 * tol, depth + 1))


def stepwise_oracle(s0, t_end, dt_out, seed, backend, track):
    """The event loop re-projected from real space on every segment:
    ``propagate`` to each output time and event, ``apply_exchange`` at the
    event, and the recursive quadrature of ``bond_currents`` along
    ``propagate_batch`` from the segment's start state.  Outputs due at
    an event time are taken before the event, and the run stops at the
    last output time.  Returns (output states, cumulative det_current,
    bond_det at the last output time)."""
    spec = s0.spec
    ev_times, triples, _ = dy.draw_events(spec, t_end, seed)
    n_out = int(np.floor(t_end / dt_out + 1e-9)) + 1
    t_stop = (n_out - 1) * dt_out
    marks = sorted([(o * dt_out, 0, o) for o in range(1, n_out)]
                   + [(t, 1, i) for i, t in enumerate(ev_times)
                      if t <= t_stop])
    state = s0.copy()
    state.time = 0.0
    det = np.zeros(spec.d)
    bond_det = np.zeros((spec.d, spec.nsites))
    states, dets = [state.copy()], [det.copy()]

    def advance(state, to_t):
        seg = to_t - state.time
        if seg <= 0:
            return state
        if track != "none":
            integral = recursive_integral(
                lambda taus: bond_currents(
                    spec, *backend.propagate_batch(state, taus)),
                0.0, seg, 1e-13).reshape(spec.d, spec.nsites)
            det[:] += integral.sum(axis=1)
            bond_det[:] += integral
        return backend.propagate(state, seg)

    for t, kind, k in marks:
        state = advance(state, t)
        if kind == 0:
            states.append(state.copy())
            dets.append(det.copy())
        else:
            j, a, x = dy.decode_triple(spec, triples[k])
            state, _ = dy.apply_exchange(state, j, x, a)
    advance(state, t_stop)
    return states, np.array(dets), bond_det


BACKENDS = {"fourier": dy.FourierBlock, "dense": dy.DenseEigen}
ORACLE_CASES = [(UNIFORM, "fourier"), (UNIFORM, "dense"),
                (DEFORM, "fourier"), (DEFORM, "dense"),
                (NEUTRAL, "fourier"), (NEUTRAL, "dense"),
                (FREE, "fourier"), (ZERO, "fourier"), (D2, "fourier"),
                (D3, "fourier"), (SCALAR, "fourier"), (ALT, "dense")]


@pytest.mark.parametrize("track", ["none", "total", "bonds"])
@pytest.mark.parametrize("spec,kind", ORACLE_CASES)
def test_simulate_matches_stepwise_oracle(spec, kind, track):
    # about 120 events in four output intervals
    rate = spec.gamma * spec.dstar * spec.d * spec.nsites
    t_end = 120.0 / rate
    s0 = oracle_state(spec, 41)
    backend = BACKENDS[kind](spec)
    traj = dy.simulate(s0, t_end, t_end / 4, seed=41, backend=backend,
                       track=track)
    states, dets, bond_det = stepwise_oracle(s0, t_end, t_end / 4, 41,
                                             backend, track)
    assert len(states) == len(traj.times) == 5
    for k, st in enumerate(states):
        assert np.abs(traj.pos[k] - st.pos).max() < 1e-10
        assert np.abs(traj.vel[k] - st.vel).max() < 1e-10
    if track == "none":
        assert not traj.det_current.any()
    else:
        assert np.abs(traj.det_current - dets).max() < 1e-10
    if track == "bonds":
        assert np.abs(traj.bond_det - bond_det).max() < 1e-10
        assert np.abs(traj.det_current[-1]
                      - traj.bond_det.sum(axis=1)).max() < 1e-12
    else:
        assert traj.bond_det is None


def test_simulate_writes_an_output_rounded_past_t_end():
    # 3 * 0.1 = 0.30000000000000004 > 0.3: the last output is still due
    s0 = micro_state(UNIFORM)
    traj = dy.simulate(s0, 0.3, 0.1, seed=2, track="total")
    states, dets, _ = stepwise_oracle(s0, 0.3, 0.1, 2,
                                      dy.make_backend(UNIFORM), "total")
    assert len(traj.times) == len(states) == 4
    assert np.abs(traj.pos[-1] - states[-1].pos).max() < 1e-10
    assert np.abs(traj.vel[-1] - states[-1].vel).max() < 1e-10
    assert np.abs(traj.det_current - dets).max() < 1e-10


@pytest.mark.parametrize("spec", [UNIFORM, ALT, D2])
def test_simulate_does_not_depend_on_the_block_size(spec, monkeypatch):
    # about 120 events in four output intervals, in blocks of the default
    # size, of one segment, of seven and in a single block
    rate = spec.gamma * spec.dstar * spec.d * spec.nsites
    t_end = 120.0 / rate
    s0 = oracle_state(spec, 45)
    amps = dy.make_backend(spec).amplitudes(s0).size
    for track in ("none", "total", "bonds"):
        seven = 7 * (dy._GK_NODES.size if track == "bonds" else 1) * amps
        runs = []
        for budget in (dy._BLOCK, 1, seven, 1 << 40):
            monkeypatch.setattr(dy, "_BLOCK", budget)
            runs.append(dy.simulate(s0, t_end, t_end / 4, seed=45,
                                    track=track))
        for traj in runs[1:]:
            for name in ("pos", "vel", "det_current", "jump_current",
                         "bond_det", "bond_jump"):
                a, b = getattr(runs[0], name), getattr(traj, name)
                assert (a is None and b is None) or np.array_equal(a, b)
            assert traj.event_count == runs[0].event_count


@pytest.mark.parametrize("spec,kind", ORACLE_CASES)
def test_current_integral_matches_quadrature(spec, kind):
    s = oracle_state(spec, 43)
    backend = BACKENDS[kind](spec)
    amp = backend.amplitudes(s)
    backend.advance(amp, 0.37)
    mid = backend.propagate(s, 0.37)
    lengths = np.array([0.03, 0.4, 2.5])
    # one batch: the same snapshot over three lengths
    got = backend.current_integral(np.stack([amp] * 3), lengths)
    assert got.shape == (3, spec.d)
    for T, row in zip(lengths, got):
        ref = recursive_integral(
            lambda taus: bond_currents(
                spec, *backend.propagate_batch(mid, taus)).sum(axis=-1),
            0.0, T, 1e-14)
        assert np.abs(row - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("spec", [UNIFORM, D2])
def test_current_integral_rows_do_not_depend_on_the_batch(spec):
    # numpy picks its loops by array layout and size: a stack of thousands
    # of snapshots must give each row the bits of that snapshot alone
    backend = dy.FourierBlock(spec)
    rng = np.random.default_rng(3)
    amp = backend.amplitudes(oracle_state(spec, 46))
    amps = amp * (1.0 + 0.1 * rng.normal(size=(5000,) + amp.shape))
    lengths = rng.uniform(0.0, 0.3, size=5000)
    rows = [backend.current_integral(amps[p:p + 1], lengths[p:p + 1])[0]
            for p in range(5000)]
    assert np.array_equal(backend.current_integral(amps, lengths), rows)


@pytest.mark.parametrize("spec,kind", [(UNIFORM, "fourier"), (ALT, "dense"),
                                       (D2, "fourier")])
def test_batched_quadrature_matches_recursion(spec, kind):
    # bond currents from one snapshot per segment, over mixed lengths
    backend = BACKENDS[kind](spec)
    amp, t = backend.amplitudes(oracle_state(spec, 44)), 0.0
    lengths = np.array([1e-3, 0.05, 0.3, 1.0, 2.5, 0.7])
    snaps, starts, refs = [], [], []
    for T in lengths:
        snaps.append(amp.copy())
        starts.append(t)
        mid = PhaseState(spec, *(f[0, 0] for f in backend.states(
            amp[None], np.array([t]), np.zeros((1, 1)))))
        refs.append(recursive_integral(
            lambda taus: bond_currents(
                spec, *backend.propagate_batch(mid, taus)),
            0.0, T, 1e-13).reshape(spec.d, spec.nsites))
        backend.advance(amp, 0.2)
        t += 0.2
    snaps, starts = np.array(snaps), np.array(starts)
    got = dy._adaptive_integral(
        lambda r, taus: bond_currents(
            spec, *backend.states(snaps[r], starts[r], taus)),
        starts, lengths, 1e-13)
    assert got.shape == (len(lengths), spec.d, spec.nsites)
    for row, ref in zip(got, refs):
        assert np.abs(row - ref).max() <= 1e-14 * np.abs(ref).max()


def test_quadrature_depth_cap_is_loud():
    # a step at t = 1.3 in the middle segment of three; its smooth batch
    # mates converge at once and must not hide it
    starts, lengths = np.array([0.0, 1.0, 2.0]), np.ones(3)

    def f(rows, taus):
        t = starts[rows][:, None] + taus
        vals = np.cos(t)
        vals[rows == 1] = t[rows == 1] > 1.3
        return vals[..., None]
    with pytest.raises(dy.QuadratureError, match="depth 14") as err:
        dy._adaptive_integral(f, starts, lengths, 1e-13)
    # the message names the failing panel in absolute time
    lo, hi = map(float, re.search(r"on \[(\S+), (\S+)\]",
                                  str(err.value)).groups())
    assert lo <= 1.3 <= hi and hi - lo < 1e-4
    # one error class for the closed forms and the current quadrature
    assert sp.QuadratureError is dy.QuadratureError
    assert issubclass(dy.QuadratureError, dy.SpecError)
    with pytest.raises(dy.QuadratureError, match="laplace_micro"):
        sp.laplace_micro(0.5, 1, 2, 1.0, 1.0, 1.0, n=8, tol=1e-15)
    smooth = dy._adaptive_integral(lambda r, t: np.cos(t)[..., None],
                                   np.zeros(2), np.array([2.0, 1.0]), 1e-13)
    assert np.abs(smooth[:, 0] - np.sin([2.0, 1.0])).max() < 1e-13


def test_gauss_kronrod_panel_constants():
    nodes, (gauss, kronrod) = dy._GK_NODES, dy._GK_PANELS
    assert nodes.shape == (15,) and np.all(np.diff(nodes) > 0)
    # the Gauss rule sits on 7 of the 15 nodes: leggauss(7) on [0, 1]
    x, w = np.polynomial.legendre.leggauss(7)
    on = gauss != 0
    assert on.sum() == 7
    assert np.abs(nodes[on] - 0.5 * (1.0 + x)).max() < 1e-15
    assert np.abs(gauss[on] - 0.5 * w).max() < 1e-15
    # exact on monomials up to degree 13 (Gauss) and 22 (Kronrod)
    for rule, degree in ((gauss, 13), (kronrod, 22)):
        for k in range(degree + 1):
            assert abs(rule @ nodes ** k * (k + 1) - 1.0) < 1e-14
    assert abs(gauss @ nodes ** 14 * 15 - 1.0) > 1e-9


def recursive_gk(f_batch, a, b, tol, depth=0):
    """The rule of ``dy._adaptive_integral`` as a recursion over one
    interval [a, b]: the 15-point Kronrod sum, certified against the
    7-point Gauss sum, splitting with half the tolerance down to depth
    14."""
    h = b - a
    vals = f_batch(a + h * dy._GK_NODES).reshape(15, -1)
    gauss, kronrod = h * (dy._GK_PANELS @ vals)
    if np.abs(kronrod - gauss).max() <= tol:
        return kronrod
    if depth >= 14:
        raise dy.QuadratureError(f"unconverged at depth {depth}")
    m = 0.5 * (a + b)
    return (recursive_gk(f_batch, a, m, 0.5 * tol, depth + 1)
            + recursive_gk(f_batch, m, b, 0.5 * tol, depth + 1))


@pytest.mark.parametrize("spec,kind", [(UNIFORM, "fourier"), (ALT, "dense"),
                                       (D2, "fourier")])
def test_batched_quadrature_matches_its_rule_as_a_recursion(spec, kind):
    # bond currents from one snapshot per segment, over mixed lengths, the
    # longest split several times
    backend = BACKENDS[kind](spec)
    amp = backend.amplitudes(oracle_state(spec, 48))
    lengths = np.array([1e-3, 0.05, 0.3, 1.0, 2.5, 6.0])
    starts = 0.2 * np.arange(len(lengths))
    snaps = []
    for _ in lengths:
        snaps.append(amp.copy())
        backend.advance(amp, 0.2)
    snaps = np.array(snaps)

    def f(rows, taus):
        return bond_currents(spec, *backend.states(snaps[rows],
                                                   starts[rows], taus))
    got = dy._adaptive_integral(f, starts, lengths, 1e-13)
    for p, (row, T) in enumerate(zip(got, lengths)):
        ref = recursive_gk(lambda taus: f(np.array([p]), taus[None])[0],
                           0.0, T, 1e-13).reshape(row.shape)
        assert np.abs(row - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("spec", [spec for spec, kind in ORACLE_CASES
                                  if kind == "fourier"])
def test_current_matches_total_current(spec):
    s = oracle_state(spec, 47)
    block = dy.FourierBlock(spec)
    amp, t = block.amplitudes(s), 0.0
    for tau in (0.0, 0.4, 2.5):
        block.advance(amp, tau - t)
        t = tau
        pos, vel = block.states(amp[None], np.array([t]), np.zeros((1, 1)))
        state = PhaseState(spec, pos[0, 0], vel[0, 0], tau)
        ref = np.array([total_current(state, a) for a in range(spec.d)])
        got = block.current(amp)
        assert got.shape == (spec.d,)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("spec", [D2, SCALAR, D3, DEFORM])
def test_fourier_exchange_matches_apply_exchange(spec):
    # every (component, direction), at sites that wrap around the lattice,
    # at a time where the field's frame has turned
    block = dy.FourierBlock(spec)
    amp, t = block.amplitudes(oracle_state(spec, 49)), 0.37
    block.advance(amp, t)
    pos, vel = block.states(amp[None], np.array([t]), np.zeros((1, 1)))
    state = PhaseState(spec, pos[0, 0], vel[0, 0], t)
    for j in range(spec.dstar):
        for a in range(spec.d):
            for x in (0, 5, spec.nsites - 1):
                kicked = amp.copy()
                got = block.exchange(kicked, t, j, a, x)
                ref, want = dy.apply_exchange(state, j, x, a)
                assert abs(got - want) <= 1e-12
                pos, vel = block.states(kicked[None], np.array([t]),
                                        np.zeros((1, 1)))
                assert np.abs(pos[0, 0] - ref.pos).max() <= 1e-12
                assert np.abs(vel[0, 0] - ref.vel).max() <= 1e-12


@pytest.mark.parametrize("spec,kind", [(UNIFORM, "fourier"), (ALT, "dense")])
def test_simulate_long_horizon_conservation(spec, kind):
    # about 2e5 events at N=8 with the amplitudes carried throughout
    rate = spec.gamma * spec.dstar * spec.d * spec.nsites
    t_end = 2.0e5 / rate
    s0 = oracle_state(spec, 13)
    traj = dy.simulate(s0, t_end, t_end / 4, seed=13,
                       backend=BACKENDS[kind](spec), track="none")
    assert traj.event_count >= 1.99e5
    last = traj.state(len(traj.times) - 1)
    e0 = total_energy(s0)
    assert abs(total_energy(last) - e0) / e0 <= LONG_ENERGY
    c0 = conserved_snapshot(s0).as_vector()
    c1 = conserved_snapshot(last).as_vector()
    assert np.abs(c1 - c0).max() <= LONG_INVARIANTS


def test_invalid_simulate_arguments():
    s0 = micro_state(UNIFORM)
    with pytest.raises(Exception):
        dy.simulate(s0, -1.0, 0.5, seed=0)
    with pytest.raises(Exception):
        dy.simulate(s0, 1.0, 2.0, seed=0)
    with pytest.raises(Exception):
        dy.simulate(s0, 1.0, 0.5, seed=0, track="everything")


@pytest.mark.parametrize("t_end,dt_out,name", [
    (np.inf, 0.5, "t_end"), (np.nan, 0.5, "t_end"), (1.0, np.nan, "dt_out"),
    (1.0, -np.inf, "dt_out")])
def test_simulate_rejects_non_finite_times_by_name(t_end, dt_out, name):
    # before, t_end = inf raised OverflowError and NaN a conversion error
    s0 = micro_state(UNIFORM)
    with pytest.raises(dy.SpecError, match=f"^{name} must be finite"):
        dy.simulate(s0, t_end, dt_out, seed=0)
    with pytest.raises(dy.SpecError, match=f"^{name} must be finite"):
        dy.simulate_current_series(s0, t_end, dt_out, seed=0)


def test_simulate_rejects_a_backend_of_another_spec():
    # before, an N=16 backend on an N=8 state failed inside a reshape
    s0 = micro_state(UNIFORM)
    other = LatticeSpec(d=1, dstar=2, n=16, b=1.0, gamma=1.0)
    for backend in (dy.FourierBlock(other), dy.DenseEigen(ALT)):
        with pytest.raises(dy.SpecError, match="another spec"):
            dy.simulate(s0, 1.0, 0.5, seed=0, backend=backend)


def test_canonical_stationarity_moments():
    # marginal second moments are time invariant under the full dynamics
    beta = 1.0
    vals_t0, vals_t2 = [], []
    for idx in range(40):
        s0 = sample_canonical(DEFORM, beta, rng=stream(21, "init", idx))
        traj = dy.simulate(s0, 2.0, 1.0, seed=21, index=idx, track="none")
        vals_t0.append(np.mean(traj.vel[0] ** 2))
        vals_t2.append(np.mean(traj.vel[-1] ** 2))
    for vals in (vals_t0, vals_t2):
        m, se = np.mean(vals), np.std(vals, ddof=1) / np.sqrt(len(vals))
        assert abs(m - 1.0 / beta) <= 3 * se


def test_mean_current_vanishes_under_canonical_start():
    spec = LatticeSpec(d=1, dstar=2, n=64, b=0.0, gamma=1.0,
                       coords="deformation")
    means = []
    for idx in range(40):
        s0 = sample_canonical(spec, 1.0, rng=stream(31, "init", idx))
        _, js, _ = dy.simulate_current_series(s0, 8.0, 0.5, seed=31,
                                              index=idx)
        means.append(js.mean())
    m, se = np.mean(means), np.std(means, ddof=1) / np.sqrt(len(means))
    assert abs(m) <= 3 * se


# ---------------------------------------------------------------------------
# fast kernel


@pytest.mark.parametrize("spec,key", [(UNIFORM, 3), (DEFORM, 4),
                                      (FREE, 5), (NEUTRAL, 6), (DEFORM, 8)])
def test_fast_path_matches_generic(spec, key):
    # key 8: dt_out does not divide t_end, so events after the last output
    # time (2.8) must not reach the returned state
    t_end, dt_out = (3.0, 0.7) if key == 8 else (4.0, 0.5)
    s0 = (micro_state(spec) if spec.coords == "position"
          else sample_canonical(spec, 1.0, rng=stream(key, "init")))
    if spec is FREE:
        # microcanonical states have no k=0 component; a drifting centre of
        # mass makes the Jordan mode move
        s0.vel += np.array([[0.3], [-0.2]])
    ts, js, fin = dy.simulate_current_series(s0, t_end, dt_out, seed=key)
    traj = dy.simulate(s0, t_end, dt_out, seed=key, track="none")
    ref = np.array([total_current(traj.state(k)) for k in range(len(ts))])
    assert np.abs(js - ref).max() < 1e-10
    assert fin.time == pytest.approx(ts[-1])
    last = traj.state(len(ts) - 1)
    assert np.abs(fin.flatten() - last.flatten()).max() < 1e-10


def test_fast_path_conserves_energy():
    s0 = micro_state(UNIFORM)
    _, _, fin = dy.simulate_current_series(s0, 10.0, 1.0, seed=9)
    assert total_energy(fin) == pytest.approx(total_energy(s0), rel=1e-12)


def test_fast_path_long_horizon_conservation():
    # about 1e6 events at N=8; measured relative energy drift 2.2e-12 and
    # invariant drift 3.4e-11, bounds about five times that
    rate = UNIFORM.gamma * UNIFORM.dstar * UNIFORM.nsites
    t_end = 1.0e6 / rate
    s0 = micro_state(UNIFORM, key=12)
    _, js, fin = dy.simulate_current_series(s0, t_end, t_end / 4, seed=12)
    assert len(dy.draw_events(UNIFORM, t_end, 12)[0]) >= 0.999e6
    assert np.all(np.isfinite(js))
    e0 = total_energy(s0)
    assert abs(total_energy(fin) - e0) / e0 <= 1e-11
    c0 = conserved_snapshot(s0).as_vector()
    c1 = conserved_snapshot(fin).as_vector()
    assert np.abs(c1 - c0).max() <= 2e-10


def test_mode_tables_are_cached_and_read_only():
    first = kn.mode_tables(DEFORM)
    again = kn.mode_tables(LatticeSpec(d=1, dstar=2, n=16, b=1.0, gamma=1.0,
                                       coords="deformation"))
    assert again.keys() == first.keys()
    for key, arr in first.items():
        assert again[key] is arr
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        first["dphase"][0, 0] = 0.0


def test_fast_path_rejects_alternate():
    s0 = sample_canonical(ALT, 1.0, rng=stream(7, "init"))
    with pytest.raises(Exception):
        dy.simulate_current_series(s0, 1.0, 0.5, seed=0)


# ---------------------------------------------------------------------------
# files


def test_trajectory_roundtrip(tmp_path):
    s0 = micro_state(UNIFORM)
    traj = dy.simulate(s0, 3.0, 0.5, seed=12, track="bonds")
    path = str(tmp_path / "t.bin")
    dy.save_trajectory(traj, path)
    back = dy.load_trajectory(path)
    assert back.spec == traj.spec
    assert back.event_count == traj.event_count
    for name in ("times", "pos", "vel", "det_current", "jump_current",
                 "bond_det", "bond_jump"):
        assert np.array_equal(getattr(back, name), getattr(traj, name))


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a trajectory")
    with pytest.raises(Exception):
        dy.load_trajectory(str(path))


@pytest.fixture(scope="module")
def saved_bytes(tmp_path_factory):
    traj = dy.simulate(micro_state(UNIFORM), 1.0, 0.5, seed=12,
                       track="bonds")
    path = tmp_path_factory.mktemp("traj") / "t.bin"
    dy.save_trajectory(traj, str(path))
    return path.read_bytes()


@pytest.mark.parametrize("keep", [6, 40, -8, -1])
def test_load_rejects_a_truncated_file(tmp_path, saved_bytes, keep):
    # cut in the header length, the header, the last array, its last byte;
    # before, a cut array raised numpy's buffer-size error
    path = tmp_path / "cut.bin"
    path.write_bytes(saved_bytes[:keep])
    with pytest.raises(dy.SpecError, match="truncated") as err:
        dy.load_trajectory(str(path))
    assert str(path) in str(err.value)


@pytest.mark.parametrize("extra", [1, 8])
def test_load_rejects_bytes_after_the_last_array(tmp_path, saved_bytes,
                                                 extra):
    # before, they were ignored
    path = tmp_path / "long.bin"
    path.write_bytes(saved_bytes + bytes(extra))
    with pytest.raises(dy.SpecError, match="after the last array") as err:
        dy.load_trajectory(str(path))
    assert str(path) in str(err.value)
