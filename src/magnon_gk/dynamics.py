"""Event-driven trajectory generation.

Between exchange events the state follows the linear deterministic flow,
which is solved exactly: either mode-by-mode in Fourier space (translation
invariant charges), on the eigen-amplitude tables of ``_kernels`` that the
chain loop also uses, or through one dense eigendecomposition of the drift.
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

from . import _kernels as kn
from .lattice import (LatticeSpec, PhaseState, SpecError, bond_currents,
                      neighbor_tables, site_energies, site_index)
from .observables import drift_matrix
from .rng import stream


class BackendError(SpecError):
    """Evolution backend cannot handle the requested model."""


# ---------------------------------------------------------------------------
# deterministic flow backends


class FourierBlock:
    """Exact per-mode evolution; requires a translation-invariant charge.

    The field is carried as complex channels: f1 + i f2, whose modes follow
    the flow at the field B (at 0 for zero charge), then f3, f4, ... at
    B = 0; with dstar = 1 the single component is the only channel.  Each
    channel runs on the eigen-amplitude tables of ``_kernels.eigen_tables``,
    and ifft of the first channel is f1 + i f2 directly.
    """

    kind = "fourier"

    def __init__(self, spec: LatticeSpec):
        if spec.charge == "alternate":
            raise BackendError(
                "alternating charge couples modes xi and xi + N/2; "
                "use the dense backend")
        self.spec = spec
        g, om2 = kn.mode_coupling(spec)
        free = kn.eigen_tables(g, om2, 0.0)
        b = spec.b if spec.charge == "uniform" else 0.0   # b = 0 if dstar = 1
        tabs = [kn.eigen_tables(g, om2, b) if b else free]
        tabs += [free] * (spec.dstar - 2)
        # per channel: (..., channel, mode) tables and the frame rate -ib/2
        self._tab = {k: np.stack([t[k] for t in tabs], axis=-2)
                     for k in free}
        self._half_b = np.array([-0.5j * b] + [0.0] * (len(tabs) - 1))
        self._axes = tuple(range(1, spec.d + 1))
        self._grid = (spec.n,) * spec.d

    def _evolve_modes(self, state: PhaseState, dts):
        """Fields (pos, vel), each (k, dstar, nsites), at the horizons of
        the 1-d array ``dts``."""
        ds = self.spec.dstar
        fields = np.stack([state.pos, state.vel])
        if ds >= 2:
            fields = np.concatenate(
                [fields[:, :1] + 1j * fields[:, 1:2], fields[:, 2:]], axis=1)
        FW = np.fft.fftn(fields.reshape((-1,) + self._grid),
                         axes=self._axes).reshape(fields.shape)
        tab = self._tab
        amp = (tab["Vinv"] * FW).sum(axis=1)           # (2, channels, modes)
        tau = dts[:, None, None]
        rot = np.exp(tab["iom"] * tau)
        amp = np.stack([amp[0] * rot, amp[1] * rot.conj()])
        F, W = (tab["V"][:, :, None] * amp).sum(axis=1) \
            * np.exp(self._half_b[:, None] * tau)
        F += tau * tab["shear"] * W     # Jordan flow of a double-root mode
        out = np.fft.ifftn(np.stack([F, W]).reshape((-1,) + self._grid),
                           axes=self._axes).reshape((2,) + F.shape)
        if ds >= 2:
            out = np.concatenate([out[:, :, :1].real, out[:, :, :1].imag,
                                  out[:, :, 1:].real], axis=2)
        else:
            out = out.real
        return out[0], out[1]

    def propagate(self, state: PhaseState, dt: float) -> PhaseState:
        if dt < 0:
            raise SpecError("dt must be >= 0")
        if dt == 0.0:
            return state.copy()
        pos, vel = self._evolve_modes(state, np.array([dt], dtype=float))
        return PhaseState(self.spec, pos[0], vel[0], state.time + dt)

    def propagate_batch(self, state: PhaseState, dts):
        """States at several horizons from one anchor: (pos, vel) arrays
        of shape (k, dstar, nsites)."""
        return self._evolve_modes(state, np.asarray(dts, dtype=float))


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
                f"(reconstruction error {resid:.2e})")

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


def make_backend(spec: LatticeSpec, kind: str | None = None):
    if kind is None:
        kind = "fourier" if spec.charge != "alternate" else "dense"
    if kind == "fourier":
        return FourierBlock(spec)
    if kind == "dense":
        return DenseEigen(spec)
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
                return bond_currents(spec, pb, vb)

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
    spec = s0.spec
    if t_end <= 0:
        raise SpecError("t_end must be > 0")
    if dt_out <= 0 or dt_out > t_end:
        raise SpecError("dt_out must be in (0, t_end]")
    tables = kn.mode_tables(spec)
    ev_times, triples, _ = draw_events(spec, t_end, seed, index)
    n_out = int(np.floor(t_end / dt_out + 1e-9)) + 1
    aF, aW = kn.state_to_polarized(s0)
    (aF, aW), series = kn.run_loop(
        aF, aW, None, None, ev_times, triples, t_end, dt_out, n_out, tables)
    final = kn.polarized_to_state(spec, aF, aW, time=(n_out - 1) * dt_out)
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
