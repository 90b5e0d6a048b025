"""Explicit solutions of the resolvent equation and their certification.

The equation (lam - L)u = sum_x j^a admits closed-form solutions built from
convolution kernels whose Fourier transforms solve small linear systems at
each lattice wavenumber.  This module constructs those kernels at finite N,
assembles the quadratic observable u, pushes it forward through the
position->deformation change of variables, and certifies every identity with
the exact generator algebra of the observables module: one case per charge
pattern, lam, B and gamma builds u once and checks all of them.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .lattice import (LatticeSpec, SpecError, flat_slice, lattice_fft,
                      omega2, site_coords)
from .observables import (
    QuadraticObservable, drift_matrix, field_generator_matrix,
    harmonic_drift_matrix, residual_norm, total_current_observable,
)


class SingularKernelError(SpecError):
    """The per-wavenumber linear system is singular (unexpected for lam>0)."""


def ghat_scalar(theta, lam: float, gamma: float) -> complex:
    """Fourier kernel for the magnetically decoupled components.

    theta: points of [0,1]^d with the axis last (a scalar is one point of
    d=1).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    om2 = omega2(theta)
    return 1j * np.sin(2 * np.pi * theta[..., 0]) / (lam + gamma * om2)


def _uniform_matrix(om2, b: float, gamma: float, lam: float) -> np.ndarray:
    """Batched 4x4 coefficient matrix of the coupled-plane kernel system."""
    om2 = np.asarray(om2, dtype=float)
    m = np.zeros(om2.shape + (4, 4))
    lg = lam + gamma * om2
    m[..., 0, 0] = lam
    m[..., 0, 2] = 2.0 * om2
    m[..., 1, 1] = lg
    m[..., 1, 2] = b
    m[..., 2, 0] = -1.0
    m[..., 2, 1] = -b
    m[..., 2, 2] = lg
    m[..., 2, 3] = om2
    m[..., 3, 2] = -2.0
    m[..., 3, 3] = lam + 2.0 * gamma * om2
    return m


def ghat_uniform(theta, lam: float, b: float, gamma: float) -> np.ndarray:
    """(g^1..g^4) Fourier values for the uniformly charged coupled plane."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    om2 = omega2(theta)
    rhs = np.zeros(np.shape(om2) + (4,), dtype=complex)
    rhs[..., 1] = 1j * np.sin(2 * np.pi * theta[..., 0])
    try:
        return np.linalg.solve(_uniform_matrix(om2, b, gamma, lam),
                               rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as e:  # pragma: no cover
        raise SingularKernelError(str(e)) from e


def _alternate_matrix(cos2t, b: float, gamma: float, lam: float) -> np.ndarray:
    c = np.asarray(cos2t, dtype=float)
    lb = lam + 2.0 * gamma
    m = np.zeros(c.shape + (4, 4))
    m[..., 0, 0] = lb
    m[..., 0, 1] = -2.0 * gamma * c
    m[..., 0, 2] = b
    m[..., 1, 0] = -2.0 * gamma * c
    m[..., 1, 1] = lb
    m[..., 1, 3] = b
    m[..., 2, 0] = -b
    m[..., 2, 2] = lb
    m[..., 2, 3] = 2.0 * c * (gamma - 2.0 / (lb + 2.0 * gamma))
    m[..., 3, 1] = -b
    m[..., 3, 2] = 2.0 * c * (gamma + 2.0 / (lb - 2.0 * gamma))
    m[..., 3, 3] = lb * (1.0 + 8.0 / (lb * lb - 4.0 * gamma * gamma))
    return m


def hhat_alternate(theta, lam: float, b: float, gamma: float) -> np.ndarray:
    """(h^3_odd, h^3_even, h^4_odd, h^4_even) Fourier values, alternate charge.

    The even-sector kernels follow from these:
    h^1_even = (4/lam)(-h^4_even - cos(2 pi theta) h^4_odd),
    h^2_even = (2/(lam+4 gamma)) h^4_even.
    """
    theta = np.asarray(theta, dtype=float)
    c = np.cos(2 * np.pi * theta)
    rhs = np.zeros(np.shape(theta) + (4,), dtype=complex)
    rhs[..., 0] = 1j * np.sin(2 * np.pi * theta)
    try:
        return np.linalg.solve(_alternate_matrix(c, b, gamma, lam),
                               rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as e:
        raise SingularKernelError(str(e)) from e


# ---------------------------------------------------------------------------
# real-space kernels at the lattice wavenumbers xi/N, flattened row-major

def scalar_kernel(spec: LatticeSpec, lam: float) -> np.ndarray:
    """Real-space antisymmetric kernel g on the lattice."""
    ghat = ghat_scalar(site_coords(spec) / spec.n, lam, spec.gamma)
    return lattice_fft(spec, ghat, np.fft.ifft).real


def uniform_kernels(spec: LatticeSpec, lam: float) -> list[np.ndarray]:
    """Real-space kernels (g^1, g^2, g^3, g^4) of the coupled plane."""
    ghat = ghat_uniform(site_coords(spec) / spec.n, lam, spec.b, spec.gamma)
    return list(lattice_fft(spec, ghat.T, np.fft.ifft).real)


def alternate_kernels(n: int, lam: float, b: float,
                      gamma: float) -> list[np.ndarray]:
    """Real-space kernels (h^1, h^2, h^3, h^4); h^1, h^2 live on even sites."""
    if n % 2:
        raise SpecError("alternate kernels require even n")
    theta = np.arange(n) / n
    h = hhat_alternate(theta, lam, b, gamma)
    h3 = h[:, 0] + h[:, 1]
    h4 = h[:, 2] + h[:, 3]
    c = np.cos(2 * np.pi * theta)
    h1 = (4.0 / lam) * (-h[:, 3] - c * h[:, 2])
    h2 = (2.0 / (lam + 4.0 * gamma)) * h[:, 3]
    return [np.fft.ifft(x).real for x in (h1, h2, h3, h4)]


def _diff_table(spec: LatticeSpec) -> np.ndarray:
    """Index table t[x, y] = site index of (x - y) mod N."""
    n, d = spec.n, spec.d
    coords = site_coords(spec)
    diff = (coords[:, None, :] - coords[None, :, :]) % n
    return np.ravel_multi_index(np.moveaxis(diff, -1, 0), (n,) * d)


def position_observable(spec: LatticeSpec, lam: float) -> QuadraticObservable:
    """The resolvent solution u over (q, v) coordinates.

    The returned observable lives on the field-free (b = 0) position spec of
    the same size; the charge pattern and field of ``spec`` select the
    kernels.
    """
    if not 0 < lam < np.inf:
        raise SpecError(f"lam must be finite and > 0, got {lam}")
    u = QuadraticObservable.zeros(replace(spec, coords="position",
                                          charge="uniform", b=0.0))
    ds = spec.dstar
    tbl = _diff_table(spec)
    P = [flat_slice(spec, "pos", j) for j in range(ds)]
    V = [flat_slice(spec, "vel", j) for j in range(ds)]
    if spec.charge == "uniform":
        # components 0 and 1 form the coupled plane, the rest are free
        # (as is the one component of dstar = 1, where b = 0)
        plane = 2 if ds >= 2 else 0
        if plane:
            g1, g2, g3, g4 = (g[tbl] for g in uniform_kernels(spec, lam))
            u.add_sym(P[0], P[1], g1)
            u.add_sym(P[0], V[0], g2)
            u.add_sym(P[1], V[1], g2)
            u.add_sym(P[0], V[1], g3)
            u.add_sym(P[1], V[0], -g3)
            u.add_sym(V[0], V[1], g4)
        if ds > plane:
            G = scalar_kernel(spec, lam)[tbl]
            for j in range(plane, ds):
                u.add_sym(P[j], V[j], G)
    else:  # alternate
        h1, h2, h3, h4 = (h[tbl] for h in
                          alternate_kernels(spec.n, lam, spec.b, spec.gamma))
        sy = (-1.0) ** np.arange(spec.n)  # (-1)^y column weights
        u.add_sym(P[0], P[1], h1 * sy)
        u.add_sym(V[0], V[1], h2 * sy)
        u.add_sym(P[0], V[0], h3)
        u.add_sym(P[1], V[1], h3)
        u.add_sym(P[0], V[1], h4 * sy)
        u.add_sym(P[1], V[0], -h4 * sy)
    return u


def _qv_residual(spec: LatticeSpec, lam: float,
                 u: QuadraticObservable) -> float:
    """Residual of (lam - L)u = sum_x j^a in (q, v) coordinates.

    u is ``position_observable(spec, lam)``, stored on the field-free
    position spec; L carries the charge pattern of ``spec`` through its field
    matrix, which depends only on the charges and sizes (the alternate
    pattern has no position-coordinate LatticeSpec of its own).
    """
    drift = (harmonic_drift_matrix(u.spec)
             + spec.b * field_generator_matrix(spec))
    return residual_norm(lam, u, total_current_observable(u.spec, 0), drift)


def position_residual(spec: LatticeSpec, lam: float) -> float:
    """Residual of (lam - L)u = sum_x j^a for the (q, v) solution u."""
    return _qv_residual(spec, lam, position_observable(spec, lam))


def phi_matrix(spec: LatticeSpec) -> np.ndarray:
    """Linear map (r ‖ v) -> (q ‖ v) with q_x = -sum_{y>=x}(r_y - rbar)."""
    if spec.coords != "deformation":
        raise SpecError("phi_matrix requires deformation coords")
    ns = spec.nsites
    x = np.arange(ns)
    block = -(x[None, :] >= x[:, None]).astype(float) + \
        (ns - x[:, None]) / ns
    t = np.eye(spec.flat_size)
    for j in range(spec.dstar):
        P = flat_slice(spec, "pos", j)
        t[P, P] = block
    return t


def _on_spec(spec: LatticeSpec,
             u: QuadraticObservable) -> QuadraticObservable:
    """The (q, v) solution u as an observable over ``spec`` itself.

    Position coords: u directly.  Deformation coords: the pushforward u∘Φ
    (the * part of the canonical resolvent solution).
    """
    if spec.coords == "position":
        return QuadraticObservable(spec, u.kernel, u.linear, u.constant)
    t = phi_matrix(spec)
    return QuadraticObservable(spec, t.T @ u.kernel @ t, t.T @ u.linear,
                               u.constant)


def build_u(spec: LatticeSpec, lam: float) -> QuadraticObservable:
    """Resolvent solution as an observable over ``spec`` itself."""
    return _on_spec(spec, position_observable(spec, lam))


def rbar_vbar_observable(spec: LatticeSpec) -> QuadraticObservable:
    """N * sum_j rbar^j vbar^j as a quadratic observable (deformation)."""
    u = QuadraticObservable.zeros(spec)
    ns = spec.nsites
    flat = np.full((ns, ns), 1.0 / ns)
    for j in range(spec.dstar):
        u.add_sym(flat_slice(spec, "pos", j), flat_slice(spec, "vel", j),
                  flat)
    return u


def vstarstar(spec: LatticeSpec, lam: float) -> QuadraticObservable:
    """Closed-form solution of (lam - L_r)v = N sum_j rbar^j vbar^j."""
    if spec.coords != "deformation":
        raise SpecError("vstarstar requires deformation coords")
    ns = spec.nsites
    b, gamma = spec.b, spec.gamma
    u = QuadraticObservable.zeros(spec)
    R = [flat_slice(spec, "pos", j) for j in range(spec.dstar)]
    V = [flat_slice(spec, "vel", j) for j in range(spec.dstar)]
    # coef * flat at (rows of f, columns of g) adds coef/N (sum_x f_x)(sum_y
    # g_y) to u; alt weighs the second sum by (-1)^y
    flat = np.full((ns, ns), 1.0 / ns)
    alt = flat * (-1.0) ** np.arange(ns)
    if spec.charge == "uniform":
        # overall sign fixed against the defining equation; at B=0 this is
        # (1/lam) N sum_j rbar^j vbar^j
        den = lam * lam + b * b
        u.add_sym(R[0], V[0], lam / den * flat)
        u.add_sym(R[1], V[0], -b / den * flat)
        u.add_sym(R[0], V[1], b / den * flat)
        u.add_sym(R[1], V[1], lam / den * flat)
    else:  # alternate
        p = lam * lam + 4.0 * gamma * lam + 4.0
        den = lam * (p + b * b)
        u.add_sym(R[0], V[0], p / den * flat)
        u.add_sym(R[1], V[0], -b * lam / den * alt)
        u.add_sym(R[0], V[1], b * lam / den * alt)
        u.add_sym(R[1], V[1], p / den * flat)
        u.add_sym(R[0], R[1], 2.0 * b / den * alt)
        u.add_sym(R[1], R[0], -2.0 * b / den * alt)
    return u


TOL_RESIDUAL = 1e-10
TOL_VSTAR = 1e-12


def certify_reduction(spec: LatticeSpec, lam: float) -> dict:
    """Certify the resolvent solution and its position->deformation reduction.

    Checks, for a deformation-coordinate spec:
      a) the built (q, v) observable solves (lam - L)u = Σ j^a in (q, v)
         coordinates and has zero net position derivative,
      b) its pushforward solves (lam - L_r)(u∘Φ) = Σ j^a + N Σ rbar vbar,
      c) the closed-form v** solves (lam - L_r)v** = N Σ rbar vbar.
    """
    if spec.coords != "deformation" or spec.d != 1 or spec.dstar != 2:
        raise SpecError("certify_reduction requires d=1, dstar=2, "
                        "deformation coords")
    uq = position_observable(spec, lam)
    row = 0.0
    for j in range(spec.dstar):
        sl = flat_slice(spec, "pos", j)
        row = max(row, float(np.linalg.norm(uq.kernel[sl].sum(axis=0))),
                  abs(float(uq.linear[sl].sum())))
    qv = _qv_residual(spec, lam, uq)
    drift = drift_matrix(spec)
    rbv = rbar_vbar_observable(spec)
    push = residual_norm(lam, _on_spec(spec, uq),
                         total_current_observable(spec, 0) + rbv, drift)
    vss = residual_norm(lam, vstarstar(spec, lam), rbv, drift)
    return {
        "spec": spec.to_json(), "lambda": lam, "row_sum": row,
        "qv_residual": qv, "pushforward_residual": push,
        "vstarstar_residual": vss,
        "pass": (row <= TOL_RESIDUAL and qv <= TOL_RESIDUAL
                 and push <= TOL_RESIDUAL and vss <= TOL_VSTAR),
    }


def run_certification(n: int = 8) -> dict:
    """Full certification matrix: both charge patterns, in deformation
    coords, at each lam, B and gamma, on lattices of size n.  (A uniform
    position-coords case would only repeat a qv_residual, bit for bit.)"""
    cases = []
    for lam in (0.5, 1.0, 2.0):
        for b in (0.0, 1.0, -2.0):
            for gamma in (0.5, 1.0):
                for charge in ("uniform", "alternate"):
                    spec = LatticeSpec(d=1, dstar=2, n=n, b=b, gamma=gamma,
                                       charge=charge, coords="deformation")
                    cases.append(certify_reduction(spec, lam))
    return {"n": n, "cases": cases, "pass": all(c["pass"] for c in cases)}
