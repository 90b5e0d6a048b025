"""Event-driven trajectory generation.

Between exchange events the state follows the linear deterministic flow,
which is solved exactly: either mode-by-mode in Fourier space (translation
invariant charges) or through one dense eigendecomposition of the drift.
Exchange events arrive as a Poisson process of total rate
gamma * dstar * d * N^d; each event swaps one velocity component across one
bond.  Bond currents are accumulated pathwise: the deterministic part by
adaptive Gauss-Legendre quadrature along the exact flow, the jump part from
the swapped kinetic energies, so the per-site continuity equation holds to
quadrature accuracy on every trajectory.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .lattice import (LatticeSpec, PhaseState, SpecError, currents_all,
                      neighbor_tables, site_energies, site_index)
from .observables import drift_matrix
from .rng import stream


class BackendError(SpecError):
    """Evolution backend cannot handle the requested model."""


# ---------------------------------------------------------------------------
# deterministic flow backends


def _pair_propagate(F, W, g, h, m, dt):
    """Advance (F' = g W, W' = h F + m W) by dt, exactly, per mode.

    F, W, g, h are complex arrays over modes; m is a complex scalar.  The
    characteristic roots s^2 - m s - g h = 0 are distinct except where
    m = 0 and g h = 0 simultaneously (handled by the linear-drift limit).
    ``dt`` may be a scalar or a column vector (k, 1) to evolve to several
    horizons at once; outputs broadcast accordingly.
    """
    disc = np.sqrt(m * m + 4.0 * g * h + 0j)
    deg = np.abs(disc) < 1e-13
    safe = np.where(deg, 1.0, disc)
    sp = 0.5 * (m + safe)
    sm = 0.5 * (m - safe)
    ep = np.exp(sp * dt)
    em = np.exp(sm * dt)
    inv = 1.0 / safe
    Fn = (F * (sp * em - sm * ep) + g * W * (ep - em)) * inv
    Wn = (F * h * (ep - em) + W * (sp * ep - sm * em)) * inv
    if np.any(deg):
        # double root at s = 0 (only m = 0, g h = 0 occurs in this model)
        Fd = F + dt * g * W
        Wd = W + dt * h * F
        Fn = np.where(deg, Fd, Fn)
        Wn = np.where(deg, Wd, Wn)
    return Fn, Wn


def mode_coupling_arrays(spec: LatticeSpec):
    """(g, h) complex mode arrays of the first-order system in Fourier space.

    Position coords: d(qhat)/dt = vhat, d(vhat)/dt = -omega^2 qhat + field,
    so g = 1 and h = -omega^2.  Deformation coords (d=1): g = e^{i phi} - 1,
    h = 1 - e^{-i phi} with phi = 2 pi xi / N; note g h = -omega^2.
    """
    n, d, ns = spec.n, spec.d, spec.nsites
    if spec.coords == "position":
        axes = np.meshgrid(*([np.arange(n) / n] * d), indexing="ij")
        om2 = sum(4.0 * np.sin(np.pi * a) ** 2 for a in axes)
        g = np.ones(ns, dtype=complex)
        h = -om2.ravel().astype(complex)
    else:
        phi = 2.0 * np.pi * np.arange(n) / n
        g = np.exp(1j * phi) - 1.0
        h = 1.0 - np.exp(-1j * phi)
    return g, h


class FourierBlock:
    """Exact per-mode evolution; requires a translation-invariant charge."""

    kind = "fourier"

    def __init__(self, spec: LatticeSpec):
        if spec.charge == "alternate":
            raise BackendError(
                "alternating charge couples modes xi and xi + N/2; "
                "use the dense backend")
        self.spec = spec
        self.g, self.h = mode_coupling_arrays(spec)
        self.coupled = (spec.dstar >= 2 and spec.b != 0.0
                        and spec.charge == "uniform")
        self._axes = tuple(range(1, spec.d + 1))
        self._shape = (spec.dstar,) + (spec.n,) * spec.d

    def _fft(self, arr):
        return np.fft.fftn(arr.reshape(self._shape),
                           axes=self._axes).reshape(self.spec.dstar, -1)

    def _ifft(self, arr):
        return np.fft.ifftn(arr.reshape(self._shape),
                            axes=self._axes).real.reshape(self.spec.dstar, -1)

    def propagate(self, state: PhaseState, dt: float) -> PhaseState:
        if dt < 0:
            raise SpecError("dt must be >= 0")
        if dt == 0.0:
            return state.copy()
        F = self._fft(state.pos)
        W = self._fft(state.vel)
        g, h = self.g, self.h
        b = self.spec.b
        if self.coupled:
            # circular polarizations a = f1 + i f2 (m = -iB), b = f1 - i f2
            aF, aW = F[0] + 1j * F[1], W[0] + 1j * W[1]
            bF, bW = F[0] - 1j * F[1], W[0] - 1j * W[1]
            aF, aW = _pair_propagate(aF, aW, g, h, -1j * b, dt)
            bF, bW = _pair_propagate(bF, bW, g, h, 1j * b, dt)
            F[0], W[0] = 0.5 * (aF + bF), 0.5 * (aW + bW)
            F[1], W[1] = (aF - bF) / 2j, (aW - bW) / 2j
            lo = 2
        else:
            lo = 0
        for j in range(lo, self.spec.dstar):
            F[j], W[j] = _pair_propagate(F[j], W[j], g, h, 0.0 + 0j, dt)
        return PhaseState(self.spec, self._ifft(F), self._ifft(W),
                          state.time + dt)

    def propagate_batch(self, state: PhaseState, dts):
        """States at several horizons from one anchor: (pos, vel) arrays
        of shape (k, dstar, nsites)."""
        dts = np.asarray(dts, dtype=float)[:, None]
        k = dts.shape[0]
        ds, ns = self.spec.dstar, self.spec.nsites
        F = self._fft(state.pos)
        W = self._fft(state.vel)
        Fo = np.empty((k, ds, ns), dtype=complex)
        Wo = np.empty((k, ds, ns), dtype=complex)
        g, h, b = self.g, self.h, self.spec.b
        if self.coupled:
            aF, aW = _pair_propagate(F[0] + 1j * F[1], W[0] + 1j * W[1],
                                     g, h, -1j * b, dts)
            bF, bW = _pair_propagate(F[0] - 1j * F[1], W[0] - 1j * W[1],
                                     g, h, 1j * b, dts)
            Fo[:, 0], Wo[:, 0] = 0.5 * (aF + bF), 0.5 * (aW + bW)
            Fo[:, 1], Wo[:, 1] = (aF - bF) / 2j, (aW - bW) / 2j
            lo = 2
        else:
            lo = 0
        for j in range(lo, ds):
            Fo[:, j], Wo[:, j] = _pair_propagate(F[j], W[j], g, h,
                                                 0.0 + 0j, dts)
        shape = (k * ds,) + (self.spec.n,) * self.spec.d
        axes = tuple(range(1, self.spec.d + 1))
        pos = np.fft.ifftn(Fo.reshape(shape), axes=axes).real
        vel = np.fft.ifftn(Wo.reshape(shape), axes=axes).real
        return pos.reshape(k, ds, ns), vel.reshape(k, ds, ns)


class DenseEigen:
    """One-time eigendecomposition of the full linear drift (any charge)."""

    kind = "dense"

    def __init__(self, spec: LatticeSpec):
        self.spec = spec
        M = drift_matrix(spec)  # enforces the dense size cap
        self.vals, self.vecs = np.linalg.eig(M)
        self.vinv = np.linalg.inv(self.vecs)
        resid = np.abs((self.vecs * self.vals) @ self.vinv - M).max()
        if resid > 1e-8:
            raise BackendError(
                "drift matrix is not cleanly diagonalizable here "
                f"(reconstruction error {resid:.2e}); use fourier or rk4")

    def propagate(self, state: PhaseState, dt: float) -> PhaseState:
        if dt < 0:
            raise SpecError("dt must be >= 0")
        if dt == 0.0:
            return state.copy()
        z = state.flatten().astype(complex)
        z = self.vecs @ (np.exp(self.vals * dt) * (self.vinv @ z))
        return PhaseState.from_flat(self.spec, z.real, state.time + dt)

    def propagate_batch(self, state: PhaseState, dts):
        dts = np.asarray(dts, dtype=float)
        c = self.vinv @ state.flatten().astype(complex)
        Z = (np.exp(np.outer(dts, self.vals)) * c) @ self.vecs.T
        ds, ns = self.spec.dstar, self.spec.nsites
        half = ds * ns
        Zr = Z.real
        return (Zr[:, :half].reshape(-1, ds, ns),
                Zr[:, half:].reshape(-1, ds, ns))


class RK4:
    """Fixed-step classical Runge-Kutta fallback (not exact)."""

    kind = "rk4"

    def __init__(self, spec: LatticeSpec, step: float = 1e-3):
        if step <= 0:
            raise SpecError("step must be > 0")
        self.spec = spec
        self.M = drift_matrix(spec)
        self.step = step

    def propagate(self, state: PhaseState, dt: float) -> PhaseState:
        if dt < 0:
            raise SpecError("dt must be >= 0")
        if dt == 0.0:
            return state.copy()
        z = state.flatten()
        nsub = max(1, int(np.ceil(dt / self.step)))
        hh = dt / nsub
        M = self.M
        for _ in range(nsub):
            k1 = M @ z
            k2 = M @ (z + 0.5 * hh * k1)
            k3 = M @ (z + 0.5 * hh * k2)
            k4 = M @ (z + hh * k3)
            z = z + (hh / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return PhaseState.from_flat(self.spec, z, state.time + dt)

    def propagate_batch(self, state: PhaseState, dts):
        ds, ns = self.spec.dstar, self.spec.nsites
        pos = np.empty((len(dts), ds, ns))
        vel = np.empty((len(dts), ds, ns))
        for k, dt in enumerate(dts):
            out = self.propagate(state, float(dt))
            pos[k], vel[k] = out.pos, out.vel
        return pos, vel


def make_backend(spec: LatticeSpec, kind: str | None = None):
    if kind is None:
        kind = "fourier" if spec.charge != "alternate" else "dense"
    if kind == "fourier":
        return FourierBlock(spec)
    if kind == "dense":
        return DenseEigen(spec)
    if kind == "rk4":
        return RK4(spec)
    raise BackendError(f"unknown backend kind {kind!r}")


# ---------------------------------------------------------------------------
# exchange noise


def apply_exchange(state: PhaseState, j: int, x, a: int = 0):
    """Swap v_x^j and v_{x+e_a}^j; return (new state, transported).

    ``transported`` is the kinetic energy gained by site x, evaluated
    pre-swap: (1/2)((v_{x+e_a}^j)^2 - (v_x^j)^2).  The contribution to the
    bond current J_{x,x+e_a} that makes the continuity equation exact is
    ``-transported`` (energy flowing out of x across the bond is positive).
    """
    spec = state.spec
    if not (0 <= j < spec.dstar and 0 <= a < spec.d):
        raise SpecError("component or direction out of range")
    ix = x if isinstance(x, (int, np.integer)) else site_index(spec, x)
    plus, _ = neighbor_tables(spec)
    iy = plus[a][ix]
    out = state.copy()
    vx, vy = out.vel[j, ix], out.vel[j, iy]
    out.vel[j, ix], out.vel[j, iy] = vy, vx
    return out, 0.5 * (vy * vy - vx * vx)


def draw_events(spec: LatticeSpec, t_end: float, seed: int, index: int = 0):
    """Poisson event times on (0, t_end] and uniform (j, a, x) triples.

    Returns (times, triples, rate); the draw is a pure function of
    (spec, t_end, seed, index) so trajectories replay bitwise.
    """
    rate = spec.gamma * spec.dstar * spec.d * spec.nsites
    ev = stream(seed, "events", index)
    si = stream(seed, "sites", index)
    mean = rate * t_end
    chunk = int(mean + 10.0 * np.sqrt(mean + 1.0)) + 16
    gaps = ev.exponential(1.0 / rate, size=chunk)
    times = np.cumsum(gaps)
    while times[-1] < t_end:
        gaps = np.concatenate([gaps, ev.exponential(1.0 / rate, size=chunk)])
        times = np.cumsum(gaps)
    k = int(np.searchsorted(times, t_end, side="right"))
    triples = si.integers(0, spec.dstar * spec.d * spec.nsites, size=k)
    return times[:k], triples, rate


def decode_triple(spec: LatticeSpec, trip: int):
    """Inverse of the flat (j, a, x) encoding used by draw_events."""
    ns = spec.nsites
    j, rem = divmod(int(trip), spec.d * ns)
    a, x = divmod(rem, ns)
    return j, a, x


# ---------------------------------------------------------------------------
# pathwise current quadrature

_GL_X = 0.5 * (1.0 + np.array([-0.8611363115940526, -0.3399810435848563,
                               0.3399810435848563, 0.8611363115940526]))
_GL_W = 0.5 * np.array([0.3478548451374538, 0.6521451548625461,
                        0.6521451548625461, 0.3478548451374538])


def _adaptive_integral(f_batch, a: float, b: float, tol: float,
                       depth: int = 0):
    """Integral of a vector-valued f over [a, b], certified by comparing one
    4-point panel against its two half-panels (all 12 nodes in one batched
    evaluation)."""
    m = 0.5 * (a + b)
    taus = np.concatenate([a + (b - a) * _GL_X, a + (m - a) * _GL_X,
                           m + (b - m) * _GL_X])
    vals = f_batch(taus)
    coarse = (b - a) * np.tensordot(_GL_W, vals[:4], axes=1)
    fine = ((m - a) * np.tensordot(_GL_W, vals[4:8], axes=1)
            + (b - m) * np.tensordot(_GL_W, vals[8:12], axes=1))
    if depth >= 14 or np.max(np.abs(fine - coarse)) <= tol:
        return fine
    return (_adaptive_integral(f_batch, a, m, 0.5 * tol, depth + 1)
            + _adaptive_integral(f_batch, m, b, 0.5 * tol, depth + 1))


def _bond_rates_batch(spec: LatticeSpec, pos, vel):
    """Deterministic bond currents for a batch of states.

    pos, vel: (k, dstar, nsites) -> (k, d, nsites), direction-major.
    """
    k = pos.shape[0]
    out = np.empty((k, spec.d, spec.nsites))
    if spec.coords == "position":
        plus, _ = neighbor_tables(spec)
        for a in range(spec.d):
            dq = pos[:, :, plus[a]] - pos
            vs = vel[:, :, plus[a]] + vel
            out[:, a] = -0.5 * np.sum(dq * vs, axis=1)
    else:
        vplus = np.roll(vel, -1, axis=2)
        out[:, 0] = -0.5 * np.sum(pos * (vplus + vel), axis=1)
    return out


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    spec: LatticeSpec
    seed: int
    index: int
    t_end: float
    dt_out: float
    times: np.ndarray          # (n_out,)
    pos: np.ndarray            # (n_out, dstar, nsites)
    vel: np.ndarray            # (n_out, dstar, nsites)
    det_current: np.ndarray    # (n_out, d): cumulative integral of sum_x j^a
    jump_current: np.ndarray   # (n_out, d): cumulative jump part
    event_count: int
    bond_det: np.ndarray | None = None   # (d, nsites) at t_end
    bond_jump: np.ndarray | None = None  # (d, nsites) at t_end

    def state(self, k: int) -> PhaseState:
        return PhaseState(self.spec, self.pos[k].copy(), self.vel[k].copy(),
                          float(self.times[k]))


def simulate(s0: PhaseState, t_end: float, dt_out: float, seed: int,
             backend=None, index: int = 0, track: str = "total") -> Trajectory:
    """Run one exact event-driven trajectory from s0.

    track: "none" (states only), "total" (cumulative integrated total current
    per direction), or "bonds" (additionally per-bond integrals at t_end,
    needed for continuity checks).
    """
    spec = s0.spec
    if t_end <= 0:
        raise SpecError("t_end must be > 0")
    if dt_out <= 0 or dt_out > t_end:
        raise SpecError("dt_out must be in (0, t_end]")
    if track not in ("none", "total", "bonds"):
        raise SpecError(f"unknown track mode {track!r}")
    if backend is None:
        backend = make_backend(spec)
    d, ns = spec.d, spec.nsites

    ev_times, triples, _ = draw_events(spec, t_end, seed, index)
    n_out = int(np.floor(t_end / dt_out + 1e-9)) + 1
    out_times = np.arange(n_out) * dt_out

    pos = np.empty((n_out, spec.dstar, ns))
    vel = np.empty((n_out, spec.dstar, ns))
    det_cum = np.zeros((n_out, d))
    jump_cum = np.zeros((n_out, d))
    bond_det = np.zeros((d, ns)) if track == "bonds" else None
    bond_jump = np.zeros((d, ns)) if track == "bonds" else None

    state = s0.copy()
    state.time = 0.0
    pos[0], vel[0] = state.pos, state.vel
    det_run = np.zeros(d)
    jump_run = np.zeros(d)

    def advance(to_t: float):
        nonlocal state, det_run, bond_det
        seg = to_t - state.time
        if seg <= 0:
            return
        if track != "none":
            anchor = state

            def f_batch(taus):
                pb, vb = backend.propagate_batch(anchor, taus)
                return _bond_rates_batch(spec, pb, vb)

            integral = _adaptive_integral(f_batch, 0.0, seg, 1e-13)
            det_run = det_run + integral.sum(axis=1)
            if bond_det is not None:
                bond_det += integral
        state = backend.propagate(state, seg)

    i, o = 0, 1
    nev = len(ev_times)
    while True:
        t_ev = ev_times[i] if i < nev else np.inf
        t_next = min(t_ev, t_end)
        while o < n_out and out_times[o] <= t_next:
            advance(out_times[o])
            pos[o], vel[o] = state.pos, state.vel
            det_cum[o] = det_run
            jump_cum[o] = jump_run
            o += 1
        if i >= nev:
            advance(t_end)
            break
        advance(t_ev)
        j, a, x = decode_triple(spec, triples[i])
        state, transported = apply_exchange(state, j, x, a)
        jump_run[a] -= transported
        if bond_jump is not None:
            bond_jump[a, x] -= transported
        i += 1

    return Trajectory(spec, seed, index, t_end, dt_out, out_times, pos, vel,
                      det_cum, jump_cum, nev, bond_det, bond_jump)


def continuity_residual(traj: Trajectory) -> float:
    """Max per-site defect of E_x(t_end) - E_x(0) vs accumulated bond flow."""
    if traj.bond_det is None:
        raise SpecError("trajectory was not run with track='bonds'")
    spec = traj.spec
    _, minus = neighbor_tables(spec)
    J = traj.bond_det + traj.bond_jump
    de = site_energies(traj.state(len(traj.times) - 1)) \
        - site_energies(traj.state(0))
    flow = np.zeros(spec.nsites)
    for a in range(spec.d):
        flow += J[a][minus[a]] - J[a]
    return float(np.abs(de - flow).max())


def simulate_current_series(s0: PhaseState, t_end: float, dt_out: float,
                            seed: int, index: int = 0):
    """Fast chain trajectory recording only the total current j^1(t).

    Same event statistics as :func:`simulate` (identical RNG consumption),
    but the state stays in Fourier space throughout, so cost per event is
    O(N) with no transforms.  Requires d=1, dstar=2 and a zero or uniform
    charge.  Returns (times, current series, PhaseState at times[-1]).
    """
    from . import _kernels as kn
    spec = s0.spec
    if t_end <= 0:
        raise SpecError("t_end must be > 0")
    if dt_out <= 0 or dt_out > t_end:
        raise SpecError("dt_out must be in (0, t_end]")
    tables = kn.mode_tables(spec)
    ev_times, triples, _ = draw_events(spec, t_end, seed, index)
    n_out = int(np.floor(t_end / dt_out + 1e-9)) + 1
    aF, aW, bF, bW = kn.state_to_polarized(spec, s0)
    (aF, aW, bF, bW), series = kn.run_loop(
        aF, aW, bF, bW, ev_times, triples, t_end, dt_out, n_out, tables)
    final = kn.polarized_to_state(spec, aF, aW, bF, bW,
                                  time=(n_out - 1) * dt_out)
    return np.arange(n_out) * dt_out, series, final


# ---------------------------------------------------------------------------
# trajectory files

_MAGIC = b"MGKT"


def save_trajectory(traj: Trajectory, path: str):
    """Header {spec JSON, seed, ...} + flat little-endian float64 arrays."""
    arrays = {"times": traj.times, "pos": traj.pos, "vel": traj.vel,
              "det_current": traj.det_current,
              "jump_current": traj.jump_current}
    if traj.bond_det is not None:
        arrays["bond_det"] = traj.bond_det
        arrays["bond_jump"] = traj.bond_jump
    header = {"spec": json.loads(traj.spec.to_json()), "seed": traj.seed,
              "index": traj.index, "t_end": traj.t_end,
              "dt_out": traj.dt_out, "event_count": traj.event_count,
              "arrays": [[k, list(arrays[k].shape)] for k in arrays]}
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for k in arrays:
            fh.write(np.ascontiguousarray(arrays[k], dtype="<f8").tobytes())


def load_trajectory(path: str) -> Trajectory:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise SpecError(f"{path}: not a trajectory file")
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen))
        arrays = {}
        for name, shape in header["arrays"]:
            count = int(np.prod(shape))
            arrays[name] = np.frombuffer(
                fh.read(8 * count), dtype="<f8").reshape(shape).copy()
    spec = LatticeSpec.from_json(json.dumps(header["spec"]))
    return Trajectory(spec, header["seed"], header["index"],
                      header["t_end"], header["dt_out"], arrays["times"],
                      arrays["pos"], arrays["vel"], arrays["det_current"],
                      arrays["jump_current"], header["event_count"],
                      arrays.get("bond_det"), arrays.get("bond_jump"))
