"""Event-driven trajectory generation.

Between exchange events the state follows the linear deterministic flow,
which is solved exactly: either mode-by-mode in Fourier space (translation
invariant charges), on the eigen-amplitude tables of ``_kernels`` that the
chain loop also uses, or through one dense eigendecomposition of the drift.
Exchange events arrive as a Poisson process of total rate
gamma * dstar * d * N^d; each event swaps one velocity component across one
bond.  ``simulate`` carries each trajectory as an array of the backend's
eigen-amplitudes and a clock from start to end: the backend advances the
array over a segment between events by one complex exp per mode, applies an
exchange as a rank-one kick, and forms real space only at output times.
Currents are accumulated pathwise.  The integral of the total current over
a segment is exact in closed form; per-bond integrals (``track="bonds"``)
use adaptive Gauss-Kronrod (7,15) quadrature along the exact flow, the only
place quadrature is used.  Both are deferred: the event loop records each
segment's start amplitudes, start time and length, and integrates a bounded
block of segments (``_BLOCK``) in one batched call, so the quadrature makes
one real-space evaluation per depth of a block rather than one per panel.
The jump part comes from the swapped kinetic energies, so the per-site
continuity equation holds to quadrature accuracy on every trajectory.
"""

from __future__ import annotations

import cmath
import json
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels as kn
from .lattice import (LatticeSpec, PhaseState, QuadratureError, SpecError,
                      bond_currents, flat_slice, lattice_fft,
                      neighbor_tables, site_coords, site_energies,
                      site_index)
from .observables import drift_matrix, total_current_observable
from .rng import stream


class BackendError(SpecError):
    """Evolution backend cannot handle the requested model."""


# ---------------------------------------------------------------------------
# deterministic flow backends
#
# A backend keeps a trajectory's state as eigen-amplitudes, an array that
# the caller holds together with its clock t: ``amplitudes(state)`` forms
# them, ``advance(amp, dt)`` moves them on by dt in place (one complex exp
# per mode) and ``exchange(amp, t, j, a, x)`` applies a rank-one kick.  The
# other methods work on stacks of amplitude snapshots: ``states`` goes to
# real space only where asked, and ``current_integral`` is the exact
# integral of the total current over each snapshot's next T.


class _Exact:
    """``propagate`` and ``propagate_batch``: one ``states`` call each."""

    def propagate(self, state: PhaseState, dt: float) -> PhaseState:
        if dt < 0:
            raise SpecError("dt must be >= 0")
        if dt == 0.0:
            return state.copy()
        pos, vel = self.states(self.amplitudes(state)[None], np.zeros(1),
                               np.array([[dt]], dtype=float))
        return PhaseState(self.spec, pos[0, 0], vel[0, 0], state.time + dt)

    def propagate_batch(self, state: PhaseState, dts):
        """States at several horizons from one anchor: (pos, vel) arrays
        of shape (k, dstar, nsites)."""
        pos, vel = self.states(self.amplitudes(state)[None], np.zeros(1),
                               np.asarray(dts, dtype=float)[None])
        return pos[0], vel[0]


class FourierBlock(_Exact):
    """Exact per-mode evolution; requires a translation-invariant charge.

    The field is carried as complex channels: f1 + i f2, whose modes follow
    the flow at the field B, then f3, f4, ... at B = 0; with dstar = 1 the
    single component is the only channel.  Each channel runs on the
    eigen-amplitude tables of ``_kernels.eigen_tables``, and ifft of the
    first channel is f1 + i f2 directly.
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
        b = spec.b   # b = 0 if dstar = 1
        tabs = [kn.eigen_tables(g, om2, b) if b else free]
        tabs += [free] * (spec.dstar - 2)
        # per channel: (..., channel, mode) tables and the frame rate: the
        # physical modes are e^{frame_rate t} times the stored ones
        self._tab = {k: np.stack([t[k] for t in tabs], axis=-2)
                     for k in free}
        self.frame_rate = np.array([-0.5j * b] + [0.0] * (len(tabs) - 1))
        # ``advance``'s scratch for e^{±iΩdt} per mode
        self._fac = np.empty((2,) + self._tab["iom"].shape, dtype=complex)
        # exchanges: the integer wavevectors k (row-major; the same array
        # holds the site coordinates), so that the phase row e^{2πik·x/N} of
        # a site and its conjugate are one lookup each in a root table
        self._k = site_coords(spec)
        self._root = np.exp(2j * np.pi * np.arange(spec.n) / spec.n)
        self._root_conj = self._root.conj()
        step = self._root[self._k.T]          # e^{2πik_a/N}, (d, modes)
        pair = np.stack([np.ones_like(step), step], axis=-1)
        V, Vinv = self._tab["V"], self._tab["Vinv"]
        # per (channel, direction): the velocity rows of V times the columns
        # [1, e^{2πik_a/N}], (2 modes, 2), whose product with a site's
        # phase-shifted amplitudes gives (v_x, v_{x+e_a}) in one call
        self._vpair = [[np.concatenate([V[1, 0, c, :, None] * p,
                                        V[1, 1, c, :, None] * p])
                        for p in pair] for c in range(len(tabs))]
        # per channel: the velocity column of Vinv, the amplitude kick of a
        # unit kick to the velocity modes
        self.vel_kick = [Vinv[:, 1, c] for c in range(len(tabs))]
        # per (channel, direction): vel_kick conj(e^{2πik_a/N} - 1), the
        # amplitude kick of a unit swap across a bond of the origin
        self._kick = [[kick * (s - 1.0).conj() for s in step]
                      for kick in self.vel_kick]
        self._frame_rate = self.frame_rate.tolist()
        # total current J_a = Re sum_k w_a(k) F conj(W) per channel.  In
        # amplitudes F conj(W) is |c+|^2 V00 conj(V10) + |c-|^2 V01 conj(V11)
        # + c+ conj(c-) V00 conj(V11) + conj(c+ conj(c-)) V01 conj(V10), and
        # c+ conj(c-) turns with e^{2iΩτ}.  A double-root mode has w = 0
        # wherever its shear is nonzero (k = 0 in position coords).
        phi = 2.0 * np.pi * self._k.T / spec.n
        if spec.coords == "position":
            w = -1j * np.sin(phi) / spec.nsites
        else:
            w = -(1.0 + np.exp(-1j * phi)) / (2.0 * spec.n)
        w = w[:, None, None, :]
        self._w_abs = (w * np.stack([V[0, 0] * V[1, 0].conj(),
                                     V[0, 1] * V[1, 1].conj()])
                       ).real.reshape(spec.d, -1)
        self._w_turn = (w * V[0, 0] * V[1, 1].conj()
                        + (w * V[0, 1] * V[1, 0].conj()).conj()
                        ).reshape(spec.d, -1)
        iom2 = 2.0 * self._tab["iom"]
        self._still = iom2 == 0
        self._iom2 = np.where(self._still, 1.0, iom2)

    def amplitudes(self, state: PhaseState) -> np.ndarray:
        """Eigen-amplitudes (2, chan, modes) of a state, at time 0.

        Physical channel modes at time t are (F, W) = e^{frame_rate t} V amp,
        plus the Jordan shear F += t g W on a double-root mode (k = 0, which
        no exchange touches).
        """
        fields = np.stack([state.pos, state.vel])
        if self.spec.dstar >= 2:
            fields = np.concatenate(
                [fields[:, :1] + 1j * fields[:, 1:2], fields[:, 2:]], axis=1)
        FW = lattice_fft(self.spec, fields)
        return (self._tab["Vinv"] * FW).sum(axis=1)

    def advance(self, amp, dt: float):
        """Move the amplitudes amp on by dt, in place."""
        fac = self._fac
        np.multiply(self._tab["iom"], dt, out=fac[0])
        np.exp(fac[0], out=fac[0])
        np.conjugate(fac[0], out=fac[1])
        amp *= fac

    def exchange(self, amp, t: float, j: int, a: int, x: int) -> float:
        """Swap v_x^j and v_{x+e_a}^j (x a flat site index) in the
        amplitudes amp at time t, in place; return the kinetic energy gained
        by site x, as ``apply_exchange`` does."""
        c = max(j - 1, 0)               # components 0 and 1 share channel 0
        unit = 1j if j == 1 else 1.0    # component 1 is the imaginary part
        amp = amp[:, c]
        frame = cmath.exp(self._frame_rate[c] * t)
        # the site's phase row e^{2πik·x/N} is root[phase]
        phase = (self._k @ self._k[x]) % self.spec.n
        u = self._root[phase] * amp
        scale = frame / (unit * amp.shape[1])
        sx, sy = (u.reshape(-1) @ self._vpair[c][a]).tolist()
        vx, vy = (sx * scale).real, (sy * scale).real
        # v_x gains delta = vy - vx and v_{x+e_a} loses it, so W gains
        # -delta * unit * conj(row) conj(step - 1), the last factor in the
        # kick table; amplitudes are W / frame
        dW = self._root_conj[phase]
        dW *= (vx - vy) * unit / frame
        amp += self._kick[c][a] * dW
        return 0.5 * (vy * vy - vx * vx)

    def current(self, amp) -> np.ndarray:
        """Total current per direction of the amplitudes amp: the integrand
        of ``current_integral`` at τ = 0."""
        a0, a1 = amp
        absq = (amp.real ** 2 + amp.imag ** 2).ravel()
        return (self._w_abs @ absq
                + (self._w_turn @ (a0 * a1.conj()).ravel()).real)

    def states(self, amp, t, taus):
        """Fields (pos, vel), each (P, k, dstar, nsites), of P amplitude
        snapshots amp (P, 2, chan, modes) taken at times t (P,), at the
        times t + taus for taus (P, k)."""
        tab = self._tab
        tau = taus[..., None, None]
        rot = np.exp(tab["iom"] * tau)
        A0 = amp[:, None, 0] * rot
        A1 = amp[:, None, 1] * rot.conj()
        t = t[:, None, None, None] + tau
        V = tab["V"][:, :, None, None]
        FW = V[:, 0] * A0
        FW += V[:, 1] * A1
        FW *= np.exp(self.frame_rate[:, None] * t)
        FW[0] += t * tab["shear"] * FW[1]
        out = lattice_fft(self.spec, FW, np.fft.ifft)
        if self.spec.dstar >= 2:
            out = np.concatenate([out[..., :1, :].real, out[..., :1, :].imag,
                                  out[..., 1:, :].real], axis=-2)
        else:
            out = out.real
        return out[0], out[1]

    def current_integral(self, amp, T) -> np.ndarray:
        """Exact integrals of the total current per direction, (P, d), over
        the next T[p] from each snapshot amp[p] (the frame factor has
        modulus one and drops out)."""
        T = T[:, None, None]
        E = np.where(self._still, T, np.expm1(self._iom2 * T) / self._iom2)
        absq = (amp.real ** 2 + amp.imag ** 2).reshape(len(amp), -1, 1)
        # a contiguous copy of c+ and one matrix-vector product per
        # snapshot: numpy picks its multiply loop by layout, and a row must
        # not depend on its batch mates
        turn = (amp[:, 0].copy() * amp[:, 1].conj() * E).reshape(
            len(amp), -1, 1)
        return (T[:, 0] * (self._w_abs @ absq)[..., 0]
                + (self._w_turn @ turn)[..., 0].real)


class DenseEigen(_Exact):
    """One-time eigendecomposition of the full linear drift (any charge).

    Position-coordinate specs with an uncoupled component (B = 0 or
    dstar != 2) are rejected: their k=0 mode is a Jordan block, which an
    eigendecomposition does not resolve.
    """

    kind = "dense"

    def __init__(self, spec: LatticeSpec):
        if spec.coords == "position" and not (
                spec.b != 0 and spec.dstar == 2):
            raise BackendError(
                "drift has a Jordan k=0 block (an uncoupled component in "
                "position coords); use the fourier backend")
        self.spec = spec
        self._fields = flat_slice(spec, "pos"), flat_slice(spec, "vel")
        # exchanges: flat row of v_0^j, and the right neighbours of each site
        self._vel_rows = [flat_slice(spec, "vel", j).start
                          for j in range(spec.dstar)]
        self._plus = neighbor_tables(spec)[0]
        M = drift_matrix(spec)  # enforces the dense size cap
        self.vals, self.vecs = np.linalg.eig(M)
        self.vinv = np.linalg.inv(self.vecs)
        resid = np.abs((self.vecs * self.vals) @ self.vinv - M).max()
        if resid > 1e-8:
            raise BackendError(
                "drift matrix is not cleanly diagonalizable here "
                f"(reconstruction error {resid:.2e})")

    @cached_property
    def _gcur(self):
        """vecs^T K_a vecs for the total-current kernel K_a of each
        direction a; built on the first ``current_integral``."""
        return np.stack([
            self.vecs.T @ total_current_observable(self.spec, a).kernel
            @ self.vecs for a in range(self.spec.d)])

    def amplitudes(self, state: PhaseState) -> np.ndarray:
        """Eigen-amplitudes vinv z (M,) of a state."""
        return self.vinv @ state.flatten()

    def advance(self, amp, dt: float):
        amp *= np.exp(self.vals * dt)

    def exchange(self, amp, t: float, j: int, a: int, x: int) -> float:
        base = self._vel_rows[j]
        rx, ry = base + x, base + int(self._plus[a][x])
        vx, vy = (self.vecs[[rx, ry]] @ amp).real
        amp += (vy - vx) * (self.vinv[:, rx] - self.vinv[:, ry])
        return float(0.5 * (vy * vy - vx * vx))

    def states(self, amp, t, taus):
        """Fields (pos, vel), each (P, k, dstar, nsites), of P amplitude
        snapshots amp (P, M) at the elapsed times taus (P, k) after them
        (the flow has no frame, so the snapshot times t do not enter)."""
        Z = np.exp(taus[..., None] * self.vals)
        Z *= amp[:, None]
        Z = (Z @ self.vecs.T).real
        shape = Z.shape[:-1] + (self.spec.dstar, self.spec.nsites)
        pos, vel = self._fields
        return Z[..., pos].reshape(shape), Z[..., vel].reshape(shape)

    def current_integral(self, amp, T) -> np.ndarray:
        """c^T (G_a ∘ E(T)) c with E_ij = int_0^T e^{(λ_i+λ_j)τ} dτ, for
        each snapshot c = amp[p] and T = T[p]: (P, d).  One snapshot at a
        time, since E is M×M."""
        s = self.vals[:, None] + self.vals
        still = s == 0
        out = np.empty((len(amp), self.spec.d))
        for p, (c, T_p) in enumerate(zip(amp, T)):
            E = np.where(still, T_p,
                         np.expm1(s * T_p) / np.where(still, 1.0, s))
            out[p] = np.tensordot(self._gcur, E * np.outer(c, c),
                                  axes=2).real
        return out


def make_backend(spec: LatticeSpec):
    """The per-mode backend, or the dense one for the alternate charge,
    which couples modes xi and xi + N/2."""
    if spec.charge == "alternate":
        return DenseEigen(spec)
    return FourierBlock(spec)


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

# Gauss-Kronrod (7,15) panel.  On [-1, 1] from 0 outwards: the Kronrod
# nodes (every even-numbered one, 0 included, is a 7-point Gauss node), the
# Kronrod weights and the Gauss weights (0 off the Gauss nodes).
_XK = np.array([0.0, 0.207784955007898467600689403773245,
                0.405845151377397166906606412076961,
                0.586087235467691130294144845693013,
                0.741531185599394439863864773280788,
                0.864864423359769072789712788640926,
                0.949107912342758524526189684047851,
                0.991455371120812639206854697526329])
_WK = np.array([0.209482141084727828012999174891714,
                0.204432940075298892414161999234649,
                0.190350578064785409913256402421014,
                0.169004726639267902826583426598550,
                0.140653259715525918745189590510238,
                0.104790010322250183839876322541518,
                0.063092092629978553290700663189204,
                0.022935322010529224963732008058970])
_WG = np.array([0.417959183673469387755102040816327, 0.0,
                0.381830050505118944950369775488975, 0.0,
                0.279705391489276667901467771423780, 0.0,
                0.129484966168869693270611432679082, 0.0])
# the 15 nodes on [0, 1] in ascending order, and the weights of the Gauss
# rule (row 0) and of the Kronrod rule (row 1) on them
_GK_NODES = 0.5 + 0.5 * np.concatenate([-_XK[:0:-1], _XK])
_GK_PANELS = 0.5 * np.stack([np.concatenate([w[:0:-1], w])
                             for w in (_WG, _WK)])
_MAX_DEPTH = 14


def _adaptive_integral(f_batch, starts, lengths, tol: float):
    """Integrals of a vector-valued f over the segments
    [starts[p], starts[p] + lengths[p]], all of them in one batch.

    ``f_batch(rows, taus)`` evaluates f on the segments ``rows`` (P,) at
    the offsets ``taus`` (P, 15) from their starts and returns (P, 15, ...).
    A panel's integral is its 15-point Kronrod sum, certified by its
    distance from the 7-point Gauss sum on the same nodes (one evaluation);
    a panel that misses its tolerance splits in two, each half with half the
    tolerance, and all panels of one depth are evaluated together.  The
    halves of a split panel are added as a recursion would add them, so a
    segment's integral does not depend on its batch mates.  Raises
    ``QuadratureError`` if a panel at depth 14 still misses its share of
    the tolerance.
    """
    b = np.asarray(lengths, dtype=float)
    a = np.zeros_like(b)
    rows = np.arange(len(b))
    levels = []
    for depth in range(_MAX_DEPTH + 1):
        vals = f_batch(rows, a[:, None] + (b - a)[:, None] * _GK_NODES)
        est = (b - a)[:, None, None] * (
            _GK_PANELS @ vals.reshape(len(rows), _GK_NODES.size, -1))
        coarse, fine = est[:, 0], est[:, 1]
        err = np.abs(fine - coarse).max(axis=1)
        split = ~(err <= tol)
        levels.append((fine, split))
        if not split.any():
            break
        if depth == _MAX_DEPTH:
            p = np.flatnonzero(split)[0]
            t0 = starts[rows[p]]
            raise QuadratureError(
                f"current quadrature unconverged on [{t0 + a[p]:.6g}, "
                f"{t0 + b[p]:.6g}] at depth {depth} (error {err[p]:.2e}, "
                f"tolerance {tol:.2e})")
        a, b, rows = a[split], b[split], rows[split]
        m = 0.5 * (a + b)
        # the two halves of each split panel, left then right
        a, b = (np.stack([a, m], axis=1).ravel(),
                np.stack([m, b], axis=1).ravel())
        rows = np.repeat(rows, 2)
        tol = 0.5 * tol
    total = fine
    for fine, split in reversed(levels[:-1]):
        fine[split] = total[0::2] + total[1::2]
        total = fine
    return total.reshape((len(lengths),) + vals.shape[2:])


# ---------------------------------------------------------------------------
# trajectories

# bound on the node arrays of one block of deferred segment integrals, in
# elements: a block holds _BLOCK // (nodes * amplitudes) segments, with 15
# nodes a segment for track="bonds" and 1 for "total" (34 segments of the
# uniform N=8 chain's bonds).  Larger blocks save little more call overhead
# and raise the peak memory.
_BLOCK = 1 << 13


@dataclass
class Trajectory:
    spec: LatticeSpec
    seed: int
    index: int
    t_end: float               # as requested; the run stops at times[-1]
    dt_out: float
    times: np.ndarray          # (n_out,)
    pos: np.ndarray            # (n_out, dstar, nsites)
    vel: np.ndarray            # (n_out, dstar, nsites)
    det_current: np.ndarray    # (n_out, d): cumulative integral of sum_x j^a
    jump_current: np.ndarray   # (n_out, d): cumulative jump part
    event_count: int
    bond_det: np.ndarray | None = None   # (d, nsites) at times[-1]
    bond_jump: np.ndarray | None = None  # (d, nsites) at times[-1]

    def state(self, k: int) -> PhaseState:
        return PhaseState(self.spec, self.pos[k].copy(), self.vel[k].copy(),
                          float(self.times[k]))


def _schedule(spec: LatticeSpec, t_end: float, dt_out: float, seed: int,
              index: int):
    """Output times o * dt_out <= t_end and the events a trajectory applies.

    A trajectory stops at its last output time: events are drawn on
    (0, t_end] as ``draw_events`` does, but those after that time are not
    applied and nothing is integrated past it.  Returns (output times,
    event times, event triples).
    """
    for name, value in (("t_end", t_end), ("dt_out", dt_out)):
        if not np.isfinite(value):
            raise SpecError(f"{name} must be finite, got {value}")
    if t_end <= 0:
        raise SpecError("t_end must be > 0")
    if dt_out <= 0 or dt_out > t_end:
        raise SpecError("dt_out must be in (0, t_end]")
    out_times = np.arange(int(np.floor(t_end / dt_out + 1e-9)) + 1) * dt_out
    ev_times, triples, _ = draw_events(spec, t_end, seed, index)
    nev = int(np.searchsorted(ev_times, out_times[-1], side="right"))
    return out_times, ev_times[:nev], triples[:nev]


def simulate(s0: PhaseState, t_end: float, dt_out: float, seed: int,
             backend=None, index: int = 0, track: str = "total") -> Trajectory:
    """Run one exact event-driven trajectory from s0 to its last output
    time (o * dt_out <= t_end).

    track: "none" (states only), "total" (cumulative integrated total current
    per direction, exact per segment), or "bonds" (additionally per-bond
    integrals over the run, needed for continuity checks, by adaptive
    quadrature; det_current is then the sum of the bond integrals).
    ``event_count`` counts the events applied.
    """
    spec = s0.spec
    if track not in ("none", "total", "bonds"):
        raise SpecError(f"unknown track mode {track!r}")
    out_times, ev_times, triples = _schedule(spec, t_end, dt_out, seed,
                                             index)
    if backend is None:
        backend = make_backend(spec)
    elif backend.spec != spec:
        raise SpecError("backend was built for another spec than the state's")
    d, ns = spec.d, spec.nsites
    n_out, nev = len(out_times), len(ev_times)

    pos = np.empty((n_out, spec.dstar, ns))
    vel = np.empty((n_out, spec.dstar, ns))
    det_cum = np.zeros((n_out, d))
    jump_cum = np.zeros((n_out, d))
    bond_det = np.zeros((d, ns)) if track == "bonds" else None
    bond_jump = np.zeros((d, ns)) if track == "bonds" else None

    amp, t = backend.amplitudes(s0), 0.0
    now = np.zeros((1, 1))
    pos[0], vel[0] = s0.pos, s0.vel
    jump_run = np.zeros(d)
    # Segment integrals are deferred: a segment records its start
    # amplitudes, start time and length, and each full block, then the rest,
    # is integrated in one call.  Outputs wait for the block that ends them.
    # A run has at most nev + n_out segments; track="none" records none.
    nodes = _GK_NODES.size if track == "bonds" else 1
    cap = max(1, min(nev + n_out, _BLOCK // (nodes * amp.size)))
    cap = 0 if track == "none" else cap
    snaps = np.empty((cap,) + amp.shape, dtype=amp.dtype)
    starts, lengths = np.empty(cap), np.empty(cap)
    det_run = np.zeros(d)
    due = []      # (output, segments of the block before it)
    held = 0      # segments in the block

    def integrate_block():
        nonlocal held
        if track == "total":
            rows = backend.current_integral(snaps[:held], lengths[:held])
        else:
            integrals = _adaptive_integral(
                lambda r, taus: bond_currents(
                    spec, *backend.states(snaps[r], starts[r], taus)),
                starts[:held], lengths[:held], 1e-13)
            rows = integrals.sum(axis=2)
            for integral in integrals:
                bond_det[:] += integral
        # running sums in segment order, as one segment at a time would add
        run = np.cumsum(np.concatenate([det_run[None], rows]), axis=0)
        for o, k in due:
            det_cum[o] = run[k]
        det_run[:] = run[-1]
        due.clear()
        held = 0

    def advance(to_t: float):
        nonlocal held, t
        seg = to_t - t
        if seg <= 0:
            return
        if track != "none":
            if held == cap:
                integrate_block()
            snaps[held], starts[held], lengths[held] = amp, t, seg
            held += 1
        backend.advance(amp, seg)
        t += seg

    i, o = 0, 1
    while True:
        # after the last event every remaining output is due, including one
        # that rounding puts just past t_end (t_end=0.3, dt_out=0.1)
        t_ev = ev_times[i] if i < nev else np.inf
        while o < n_out and out_times[o] <= t_ev:
            advance(out_times[o])
            (pos[o],), (vel[o],) = backend.states(amp[None], np.array([t]),
                                                  now)
            due.append((o, held))
            jump_cum[o] = jump_run
            o += 1
        if i >= nev:
            break
        advance(t_ev)
        j, a, x = decode_triple(spec, triples[i])
        transported = backend.exchange(amp, t, j, a, x)
        jump_run[a] -= transported
        if bond_jump is not None:
            bond_jump[a, x] -= transported
        i += 1
    if track != "none":
        integrate_block()

    return Trajectory(spec, seed, index, t_end, dt_out, out_times, pos, vel,
                      det_cum, jump_cum, nev, bond_det, bond_jump)


def continuity_residual(traj: Trajectory) -> float:
    """Max per-site defect of E_x(times[-1]) - E_x(0) vs the bond flow."""
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

    Same events and stop rule as :func:`simulate`, on the same
    ``FourierBlock`` amplitudes, but it records the instantaneous current
    rather than its integral and applies each exchange through
    ``_kernels.run_loop``'s bond-difference rows: no quadrature and no
    transform inside the loop, O(N) per event.  Requires d=1, dstar=2 and
    the uniform charge.  Returns (times, current series, PhaseState at
    times[-1]).
    """
    spec = s0.spec
    tables = kn.mode_tables(spec)
    times, ev_times, triples = _schedule(spec, t_end, dt_out, seed, index)
    block = FourierBlock(spec)
    amp = block.amplitudes(s0)
    series = np.empty(len(times))
    t = kn.run_loop(tables["dphase"], block, amp, 0.0, ev_times, triples,
                    series, dt_out, len(times))
    pos, vel = block.states(amp[None], np.array([t]), np.zeros((1, 1)))
    return times, series, PhaseState(spec, pos[0, 0], vel[0, 0],
                                     float(times[-1]))


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


def _read(fh, size: int, path: str) -> bytes:
    """The next size bytes of fh; SpecError naming path if it ends first."""
    buf = fh.read(size)
    if len(buf) != size:
        raise SpecError(f"{path}: truncated trajectory file")
    return buf


def load_trajectory(path: str) -> Trajectory:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise SpecError(f"{path}: not a trajectory file")
        (hlen,) = struct.unpack("<I", _read(fh, 4, path))
        header = json.loads(_read(fh, hlen, path))
        arrays = {}
        for name, shape in header["arrays"]:
            count = int(np.prod(shape))
            arrays[name] = np.frombuffer(
                _read(fh, 8 * count, path), dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise SpecError(f"{path}: bytes after the last array")
    spec = LatticeSpec.from_json(json.dumps(header["spec"]))
    return Trajectory(spec, header["seed"], header["index"],
                      header["t_end"], header["dt_out"], arrays["times"],
                      arrays["pos"], arrays["vel"], arrays["det_current"],
                      arrays["jump_current"], header["event_count"],
                      arrays.get("bond_det"), arrays.get("bond_jump"))
