"""Lattice model description, states, energies, currents and coordinate maps.

A ``LatticeSpec`` describes a d-dimensional periodic lattice of side ``n``
whose sites carry a position (or bond deformation) and a velocity in
``dstar``-dimensional space.  The first two velocity components are coupled by
a magnetic field of signed strength ``b``; a conservative exchange noise of
rate ``gamma`` swaps velocity components across bonds.

Sites are stored in row-major order: ``index = x[0]*n**(d-1) + ... + x[d-1]``.
State arrays have shape ``(dstar, n**d)``; the flat coordinate vector is
(pos ‖ vel), each field component by component (``flat_slice``).  The
charge is uniform or alternate; the model without a field is b = 0.  The
wavenumber of a mode is ``site_coords(spec) / n``, and ``omega2`` its squared
frequency.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

CHARGES = ("uniform", "alternate")
FIELDS = ("pos", "vel")
COORDS = ("position", "deformation")


class SpecError(ValueError):
    """Invalid model description."""


class QuadratureError(SpecError):
    """A quadrature missed its tolerance: the closed-form refinement in
    ``spectral`` or the adaptive current quadrature in ``dynamics``."""


@dataclass(frozen=True)
class LatticeSpec:
    d: int
    dstar: int
    n: int
    b: float
    gamma: float
    charge: str = "uniform"
    coords: str = "position"

    def __post_init__(self):
        if self.d < 1:
            raise SpecError("d must be >= 1")
        if self.n < 3:
            raise SpecError("n must be >= 3")
        if not 0 < self.gamma < np.inf:
            raise SpecError(f"gamma must be finite and > 0, got {self.gamma}")
        if not np.isfinite(self.b):
            raise SpecError(f"b must be finite, got {self.b}")
        if self.charge not in CHARGES:
            raise SpecError(f"charge must be one of {CHARGES}, not "
                            f"{self.charge!r}; the model without a field "
                            "is b = 0")
        if self.coords not in COORDS:
            raise SpecError(f"coords must be one of {COORDS}")
        if self.b != 0.0 and self.dstar < 2:
            raise SpecError("dstar must be >= 2 when b != 0")
        if self.dstar < 1:
            raise SpecError("dstar must be >= 1")
        if self.charge == "alternate":
            if not (self.d == 1 and self.dstar == 2
                    and self.coords == "deformation" and self.n % 2 == 0):
                raise SpecError(
                    "alternate charge requires d=1, dstar=2, deformation "
                    "coords and even n")
        if self.coords == "deformation" and not (self.d == 1 and self.dstar == 2):
            raise SpecError("deformation coords require d=1 and dstar=2")

    @property
    def nsites(self) -> int:
        return self.n ** self.d

    @property
    def flat_size(self) -> int:
        """Length of the flattened (pos ‖ vel) coordinate vector."""
        return 2 * self.dstar * self.nsites

    def site_charges(self) -> np.ndarray:
        """Per-site charge factor multiplying the magnetic coupling."""
        if self.charge == "uniform":
            return np.ones(self.nsites)
        # alternate: d=1 guaranteed by the invariants
        return np.array([(-1.0) ** x for x in range(self.n)])

    def to_json(self) -> str:
        return json.dumps({"d": self.d, "dstar": self.dstar, "n": self.n,
                           "b": self.b, "gamma": self.gamma,
                           "charge": self.charge, "coords": self.coords})

    @classmethod
    def from_json(cls, s: str) -> "LatticeSpec":
        obj = json.loads(s)
        return cls(d=int(obj["d"]), dstar=int(obj["dstar"]), n=int(obj["n"]),
                   b=float(obj["b"]), gamma=float(obj["gamma"]),
                   charge=obj["charge"], coords=obj["coords"])


def flat_slice(spec: LatticeSpec, field: str, j: int | None = None) -> slice:
    """Slice of component j of ``field`` ("pos" or "vel") in the flat
    (pos ‖ vel) vector, or of the whole field if j is None: pos^0 ...
    pos^{dstar-1}, then vel^0 ... vel^{dstar-1}, each nsites long."""
    size = spec.dstar * spec.nsites
    start = FIELDS.index(field) * size
    if j is None:
        return slice(start, start + size)
    start += j * spec.nsites
    return slice(start, start + spec.nsites)


def omega2(theta):
    """Squared mode frequency 4 sum_a sin^2(pi theta^a) at wavenumbers
    theta whose last axis runs over the d directions; a scalar theta is
    one point of d=1."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    return 4.0 * np.sum(np.sin(np.pi * th) ** 2, axis=-1)


def site_index(spec: LatticeSpec, x) -> int:
    """Row-major site index of lattice point x (iterable of length d)."""
    x = np.atleast_1d(np.asarray(x, dtype=np.int64)) % spec.n
    idx = 0
    for a in range(spec.d):
        idx = idx * spec.n + int(x[a])
    return idx


@lru_cache(maxsize=64)
def _neighbor_tables_cached(n: int, d: int):
    shape = (n,) * d
    idx = np.arange(n ** d).reshape(shape)
    plus = np.empty((d, n ** d), dtype=np.int64)
    minus = np.empty((d, n ** d), dtype=np.int64)
    for a in range(d):
        plus[a] = np.roll(idx, -1, axis=a).ravel()
        minus[a] = np.roll(idx, 1, axis=a).ravel()
    plus.setflags(write=False)
    minus.setflags(write=False)
    return plus, minus


def neighbor_tables(spec: LatticeSpec):
    """(plus, minus) index tables of shape (d, nsites) for periodic shifts.

    ``plus[a][i]`` is the site index of ``x + e_a`` where ``i`` indexes ``x``.
    The returned arrays are cached and read-only.
    """
    return _neighbor_tables_cached(spec.n, spec.d)


@lru_cache(maxsize=64)
def _site_coords_cached(n: int, d: int):
    coords = np.stack(np.unravel_index(np.arange(n ** d), (n,) * d), axis=-1)
    coords.setflags(write=False)
    return coords


def site_coords(spec: LatticeSpec) -> np.ndarray:
    """Lattice point of every site index: shape (nsites, d), row-major.

    The same integers are the wavevectors of the modes in FFT order.  The
    returned array is cached and read-only.
    """
    return _site_coords_cached(spec.n, spec.d)


@dataclass
class PhaseState:
    spec: LatticeSpec
    pos: np.ndarray  # shape (dstar, nsites); q_x or r_x
    vel: np.ndarray  # shape (dstar, nsites)
    time: float = 0.0

    def copy(self) -> "PhaseState":
        return PhaseState(self.spec, self.pos.copy(), self.vel.copy(), self.time)

    def flatten(self) -> np.ndarray:
        """Flattened coordinate vector (pos block then vel block)."""
        return np.concatenate([self.pos.ravel(), self.vel.ravel()])

    @classmethod
    def from_flat(cls, spec: LatticeSpec, z: np.ndarray, time: float = 0.0):
        shape = (spec.dstar, spec.nsites)
        return cls(spec, z[flat_slice(spec, "pos")].reshape(shape).copy(),
                   z[flat_slice(spec, "vel")].reshape(shape).copy(), time)


def zero_state(spec: LatticeSpec) -> PhaseState:
    return PhaseState(spec, np.zeros((spec.dstar, spec.nsites)),
                      np.zeros((spec.dstar, spec.nsites)))


def site_energies(state: PhaseState) -> np.ndarray:
    """Vector of per-site energies."""
    spec = state.spec
    if spec.coords == "position":
        plus, minus = neighbor_tables(spec)
        e = 0.5 * np.sum(state.vel ** 2, axis=0)
        for a in range(spec.d):
            e += 0.25 * np.sum((state.pos[:, plus[a]] - state.pos) ** 2, axis=0)
            e += 0.25 * np.sum((state.pos[:, minus[a]] - state.pos) ** 2, axis=0)
        return e
    # deformation: bond r_x stored at its left endpoint
    r2 = np.sum(state.pos ** 2, axis=0)
    return (0.5 * np.sum(state.vel ** 2, axis=0)
            + 0.25 * r2 + 0.25 * np.roll(r2, 1))


def site_energy(state: PhaseState, x) -> float:
    """Energy of the oscillator at lattice point x."""
    return float(site_energies(state)[site_index(state.spec, x)])


def total_energy(state: PhaseState) -> float:
    return float(np.sum(site_energies(state)))


def bond_currents(spec: LatticeSpec, pos, vel) -> np.ndarray:
    """Deterministic currents j_{x,x+e_a} of states with leading batch axes.

    pos, vel: (..., dstar, nsites) -> (..., d, nsites), indexed by the
    direction a and the left site x of the bond.
    """
    plus, _ = neighbor_tables(spec)
    if spec.coords == "position":
        return np.stack([((pos[..., p] - pos) * (vel[..., p] + vel))
                         .sum(axis=-2) for p in plus], axis=-2) * -0.5
    return (pos * (vel[..., plus[0]] + vel)).sum(axis=-2)[..., None, :] * -0.5


def currents_all(state: PhaseState, a: int = 0):
    """(ja, js) arrays over all bonds (x, x+e_a), indexed by left site x."""
    spec = state.spec
    ja = bond_currents(spec, state.pos, state.vel)[a]
    vplus = state.vel[:, neighbor_tables(spec)[0][a]]
    js = -0.5 * spec.gamma * np.sum(vplus ** 2 - state.vel ** 2, axis=0)
    return ja, js


def instantaneous_current(state: PhaseState, x, a: int = 0):
    """(ja, js) across the bond from x to x+e_a (0-based direction a)."""
    if not 0 <= a < state.spec.d:
        raise SpecError(f"direction {a} out of range for d={state.spec.d}")
    ja, js = currents_all(state, a)
    i = site_index(state.spec, x)
    return float(ja[i]), float(js[i])


def total_current(state: PhaseState, a: int = 0) -> float:
    """Sum over bonds of the deterministic current in direction a."""
    ja, _ = currents_all(state, a)
    return float(np.sum(ja))


@dataclass
class ConservedSnapshot:
    total_energy: float
    pseudomomentum: np.ndarray | None = None   # position coords, b != 0
    total_deformation: np.ndarray | None = None  # deformation coords
    total_velocity: np.ndarray | None = None   # b = 0 (both coords)
    alt_invariants: np.ndarray | None = None   # alternate charge, 2-vector

    def as_vector(self) -> np.ndarray:
        parts = [np.array([self.total_energy])]
        for p in (self.pseudomomentum, self.total_deformation,
                  self.total_velocity, self.alt_invariants):
            if p is not None:
                parts.append(np.asarray(p, dtype=float).ravel())
        return np.concatenate(parts)


def conserved_snapshot(state: PhaseState) -> ConservedSnapshot:
    spec = state.spec
    snap = ConservedSnapshot(total_energy=total_energy(state))
    if spec.b == 0.0:
        snap.total_velocity = np.sum(state.vel, axis=1)
    if spec.coords == "position":
        if spec.b != 0.0:   # uniform charge and dstar >= 2 here
            # pseudomomentum: v + B sigma q in the coupled plane, v elsewhere
            p = np.sum(state.vel, axis=1)
            sq = np.sum(state.pos, axis=1)
            p = p.astype(float)
            p[0] += spec.b * (-sq[1])
            p[1] += spec.b * sq[0]
            snap.pseudomomentum = p
    else:
        snap.total_deformation = np.sum(state.pos, axis=1)
        if spec.charge == "alternate":
            even = np.arange(0, spec.n, 2)
            v, r = state.vel, state.pos
            inv1 = np.sum(v[0, even] + v[0, (even + 1) % spec.n]
                          + spec.b * r[1, even])
            inv2 = np.sum(v[1, even] + v[1, (even + 1) % spec.n]
                          - spec.b * r[0, even])
            snap.alt_invariants = np.array([inv1, inv2])
    return snap


def q_to_r(qstate: PhaseState) -> PhaseState:
    """Map positions to bond deformations r_x = q_{x+1} - q_x (d=1)."""
    spec = qstate.spec
    if spec.coords != "position" or spec.d != 1:
        raise SpecError("q_to_r requires position coords and d=1")
    rspec = replace(spec, coords="deformation")
    r = np.roll(qstate.pos, -1, axis=1) - qstate.pos
    return PhaseState(rspec, r, qstate.vel.copy(), qstate.time)


def r_to_q(rstate: PhaseState) -> PhaseState:
    """Inverse deformation map: q_x = -sum_{y=x}^{N} (r_y - rbar).

    Sites are 1-based in the defining sum; with 0-based storage site ``x``
    corresponds to label x+1, and the output satisfies
    q_{x+1} - q_x = r_x - rbar and sum_x q_x = 0.
    """
    spec = rstate.spec
    if spec.coords != "deformation":
        raise SpecError("r_to_q requires deformation coords")
    qspec = replace(spec, coords="position")
    rc = rstate.pos - rstate.pos.mean(axis=1, keepdims=True)
    # q (0-based x, i.e. label x+1) = -sum_{y >= x+1, 1-based} rc[y]
    #   = -(suffix sum of rc starting at 0-based index x)
    suffix = np.cumsum(rc[:, ::-1], axis=1)[:, ::-1]
    q = -suffix
    q -= q.mean(axis=1, keepdims=True)  # fix the free global shift: Σq = 0
    return PhaseState(qspec, q, rstate.vel.copy(), rstate.time)
