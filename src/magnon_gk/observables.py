"""Degree-2 observables and the exact action of the evolution generators.

An observable is ``u(z) = z^T K z + b.z + c`` over the flattened coordinate
vector ``z = (pos ‖ vel)``.  The generator is ``L = drift + gamma S``: the
drift is the linear flow of a drift matrix (``drift_matrix``, A + B G for the
harmonic part A and the field term B G) and S is the sum over bonds and
components of velocity swaps.  Both map degree-2 observables to degree-2
observables exactly, which makes this module the brute-force oracle for every
resolvent identity: no discretization, no sampling.

Dense kernels only; intended for desk-scale certification work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import (LatticeSpec, PhaseState, SpecError, flat_slice,
                      frozen, neighbor_tables)

DENSE_CAP = 4096  # max dstar * N^d


def _check_cap(spec: LatticeSpec):
    if spec.dstar * spec.nsites > DENSE_CAP:
        raise SpecError(
            f"dense observables capped at dstar*N^d <= {DENSE_CAP}")


@dataclass
class QuadraticObservable:
    """u(z) = z^T kernel z + linear.z + constant."""

    spec: LatticeSpec
    kernel: np.ndarray
    linear: np.ndarray
    constant: float = 0.0

    @classmethod
    def zeros(cls, spec: LatticeSpec) -> "QuadraticObservable":
        _check_cap(spec)
        m = spec.flat_size
        return cls(spec, np.zeros((m, m)), np.zeros(m), 0.0)

    def __post_init__(self):
        self._check_shape()
        if np.max(np.abs(self.kernel - self.kernel.T)) > 1e-12:
            raise SpecError("kernel must be symmetric")

    def _check_shape(self):
        m = self.spec.flat_size
        if self.kernel.shape != (m, m) or self.linear.shape != (m,):
            raise SpecError("observable dimensions do not match spec")

    @classmethod
    def _combined(cls, spec, kernel, linear, constant):
        """A sum or scaling of observables whose kernels were checked: it is
        symmetric by construction, so only the shapes are checked."""
        u = cls.__new__(cls)
        u.spec, u.kernel, u.linear, u.constant = spec, kernel, linear, constant
        u._check_shape()
        return u

    def __add__(self, other: "QuadraticObservable") -> "QuadraticObservable":
        if other.spec != self.spec:
            raise SpecError("spec mismatch")
        return self._combined(self.spec, self.kernel + other.kernel,
                              self.linear + other.linear,
                              self.constant + other.constant)

    def __mul__(self, a: float) -> "QuadraticObservable":
        return self._combined(self.spec, a * self.kernel, a * self.linear,
                              a * self.constant)

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + (-1.0) * other

    def add_sym(self, rows, cols, block):
        """Add block/2 at (rows, cols) and its transpose at (cols, rows)."""
        self.kernel[rows, cols] += 0.5 * block
        self.kernel[cols, rows] += 0.5 * block.T


def eval_observable(u: QuadraticObservable, s: PhaseState) -> float:
    if s.spec != u.spec:
        raise SpecError("spec mismatch")
    z = s.flatten()
    return float(z @ u.kernel @ z + u.linear @ z + u.constant)


def _hopping(spec: LatticeSpec) -> np.ndarray:
    """sum_a (S_a + S_a^T) over sites, S_a[x, x + e_a] = 1: the graph
    Laplacian of the lattice is this minus 2d."""
    eye = np.eye(spec.nsites)
    plus, minus = neighbor_tables(spec)
    return sum(eye[p] + eye[m] for p, m in zip(plus, minus))


def harmonic_drift_matrix(spec: LatticeSpec) -> np.ndarray:
    """Field-free drift A as a matrix over flattened coordinates."""
    _check_cap(spec)
    m = spec.flat_size
    A = np.zeros((m, m))
    eye = np.eye(spec.nsites)
    if spec.coords == "position":
        # q' = v, v' = (hopping - 2d) q
        pv, vp = eye, _hopping(spec) - 2.0 * spec.d * eye
    else:
        # r_x' = v_{x+1} - v_x, v_x' = r_x - r_{x-1}
        pv = eye[neighbor_tables(spec)[0][0]] - eye
        vp = -pv.T
    for j in range(spec.dstar):
        P, V = flat_slice(spec, "pos", j), flat_slice(spec, "vel", j)
        A[P, V] = pv
        A[V, P] = vp
    return A


def field_generator_matrix(spec: LatticeSpec) -> np.ndarray:
    """G: the charge-weighted velocity rotation in the (1,2) plane.

    The field contributes B*G to the drift; G is independent of B itself.
    """
    _check_cap(spec)
    m = spec.flat_size
    G = np.zeros((m, m))
    if spec.dstar < 2:
        return G
    c = np.diag(spec.site_charges())
    V0, V1 = flat_slice(spec, "vel", 0), flat_slice(spec, "vel", 1)
    G[V0, V1] = c
    G[V1, V0] = -c
    return G


def drift_matrix(spec: LatticeSpec) -> np.ndarray:
    """Full deterministic drift M with dz/dt = M z."""
    return harmonic_drift_matrix(spec) + spec.b * field_generator_matrix(spec)


def apply_drift(u: QuadraticObservable, M: np.ndarray) -> QuadraticObservable:
    """Lie action of the linear flow z' = Mz on the observable."""
    return QuadraticObservable(u.spec, u.kernel @ M + M.T @ u.kernel,
                               M.T @ u.linear, 0.0)


def swap_pairs(spec: LatticeSpec) -> np.ndarray:
    """All (i1, i2) flattened-index pairs the exchange noise can swap, as
    rows of an array: by direction, then component, then site."""
    plus, _ = neighbor_tables(spec)
    site = np.arange(spec.nsites)
    return np.concatenate([np.stack([site, p], axis=1)
                           + flat_slice(spec, "vel", j).start
                           for p in plus for j in range(spec.dstar)])


@lru_cache(maxsize=16)
def _swap_indices(spec: LatticeSpec):
    """i1, i2 of ``swap_pairs``, the pair range, and the row and column
    indices (i1, i2, i1, i2), (i1, i2, i2, i1) at which ``apply_swap_sum``
    scatters the e e^T terms; read-only, as they are shared."""
    i1, i2 = swap_pairs(spec).T
    return frozen(i1.copy(), i2.copy(), np.arange(len(i1)),
                  np.concatenate([i1, i2, i1, i2]),
                  np.concatenate([i1, i2, i2, i1]))


def apply_swap_sum(u: QuadraticObservable) -> QuadraticObservable:
    """S u = sum over bonds and components of (u after swap) - u.

    A swap is z -> P z with P = I - e e^T, e = e_i1 - e_i2, so it changes
    the kernel by -e v^T - v e^T + (e.v) e e^T with v = K e, and the linear
    part by -e (e.b).
    """
    K, lin = u.kernel, u.linear
    i1, i2, p, at_rows, at_cols = _swap_indices(u.spec)
    v = K[i1] - K[i2]  # v = K e of each pair, as a row (K is symmetric)
    ev = v[p, i1] - v[p, i2]
    rows = np.zeros_like(K)
    np.add.at(rows, i1, v)
    np.add.at(rows, i2, -v)
    Kout = -(rows + rows.T)
    np.add.at(Kout, (at_rows, at_cols), np.concatenate([ev, ev, -ev, -ev]))
    eb = lin[i1] - lin[i2]
    bout = np.zeros_like(lin)
    np.add.at(bout, at_rows[:2 * len(p)], np.concatenate([-eb, eb]))
    return QuadraticObservable(u.spec, Kout, bout, 0.0)


def apply_generator(u: QuadraticObservable,
                    drift: np.ndarray) -> QuadraticObservable:
    """L u = drift u + gamma S u, exactly, with gamma of u's spec."""
    return apply_drift(u, drift) + u.spec.gamma * apply_swap_sum(u)


def residual_norm(lam: float, u: QuadraticObservable,
                  rhs: QuadraticObservable, drift: np.ndarray) -> float:
    """Size of (lam - L)u - rhs: kernel Frobenius + linear + constant parts."""
    if not 0 < lam < np.inf:
        raise SpecError(f"lam must be finite and > 0, got {lam}")
    res = lam * u - apply_generator(u, drift) - rhs
    return (float(np.linalg.norm(res.kernel))
            + float(np.linalg.norm(res.linear)) + abs(res.constant))


def total_energy_observable(spec: LatticeSpec) -> QuadraticObservable:
    u = QuadraticObservable.zeros(spec)
    eye = np.eye(spec.nsites)
    if spec.coords == "position":
        # 1/4 sum over bonds, both ends, of (q_y - q_x)^2
        pp = spec.d * eye - 0.5 * _hopping(spec)
    else:
        pp = 0.5 * eye
    for j in range(spec.dstar):
        P, V = flat_slice(spec, "pos", j), flat_slice(spec, "vel", j)
        u.kernel[P, P] = pp
        u.kernel[V, V] = 0.5 * eye
    return u


def _add_bond_current(u: QuadraticObservable, x, a: int):
    """Add the deterministic current across the bond (x, x+e_a) to u, for a
    site index x or an array of them: -1/2 sum_j (q_y - q_x)(v_x + v_y), or
    -1/2 sum_j r_x (v_x + v_y) in deformation coords, with y = x + e_a."""
    spec = u.spec
    x = np.atleast_1d(x)
    y = neighbor_tables(spec)[0][a][x]
    for j in range(spec.dstar):
        q = flat_slice(spec, "pos", j).start
        v = flat_slice(spec, "vel", j).start
        if spec.coords == "position":
            pos = ((q + y, -0.25), (q + x, 0.25))
        else:
            pos = ((q + x, -0.25),)
        for p, c in pos:
            for w in (v + x, v + y):
                np.add.at(u.kernel, (p, w), c)
                np.add.at(u.kernel, (w, p), c)


def total_current_observable(spec: LatticeSpec, a: int = 0) -> QuadraticObservable:
    """Sum over bonds of the deterministic energy current in direction a."""
    u = QuadraticObservable.zeros(spec)
    _add_bond_current(u, np.arange(spec.nsites), a)
    return u


def linear_observable(spec: LatticeSpec, vec: np.ndarray) -> QuadraticObservable:
    u = QuadraticObservable.zeros(spec)
    u.linear[:] = vec
    return u


def bond_current_observable(spec: LatticeSpec, x: int = 0,
                            a: int = 0) -> QuadraticObservable:
    """Deterministic current across the single bond (x, x+e_a)."""
    u = QuadraticObservable.zeros(spec)
    _add_bond_current(u, x, a)
    return u


def gaussian_pair_expectation(u: QuadraticObservable, w: QuadraticObservable,
                              var: float) -> float:
    """E[u(z) w(z)] for z with i.i.d. centered Gaussian entries of variance var.

    Exact via Wick's theorem: cross terms of odd degree vanish, so
    E[uw] = (var*tr Ku + cu)(var*tr Kw + cw) + 2 var^2 tr(Ku Kw)
            + var * bu.bw.
    """
    if u.spec != w.spec:
        raise SpecError("spec mismatch")
    mu = var * np.trace(u.kernel) + u.constant
    mw = var * np.trace(w.kernel) + w.constant
    return float(mu * mw + 2.0 * var * var * np.sum(u.kernel * w.kernel.T)
                 + var * (u.linear @ w.linear))
