"""Explicit solutions of the resolvent equation and their certification.

The equation (lam - L)u = sum_x j^a admits closed-form solutions built from
convolution kernels whose Fourier transforms solve small linear systems at
each lattice wavenumber.  This module constructs those kernels at finite N,
assembles the quadratic observable u, pushes it forward through the
position->deformation change of variables, and certifies every identity with
the exact generator algebra of the observables module.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .lattice import LatticeSpec, SpecError
from .observables import (
    GeneratorSpec, QuadraticObservable, apply_drift, apply_swap_sum,
    harmonic_drift_matrix, residual_norm, total_current_observable,
)


class SingularKernelError(SpecError):
    """The per-wavenumber linear system is singular (unexpected for lam>0)."""


def _omega2_theta(theta: np.ndarray) -> np.ndarray:
    """omega^2 summed over axes; theta has the axis index last."""
    return np.sum(4.0 * np.sin(np.pi * theta) ** 2, axis=-1)


def ghat_scalar(theta, lam: float, gamma: float) -> complex:
    """Fourier kernel for the magnetically decoupled components.

    theta is a point of [0,1]^d (scalar accepted for d=1).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    om2 = _omega2_theta(theta)
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
    om2 = _omega2_theta(theta)
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
# real-space kernels at the lattice wavenumbers xi/N

def _theta_grid(n: int, d: int) -> np.ndarray:
    """Array of shape (n,)*d + (d,) with theta = xi/N at each wavenumber."""
    axes = np.meshgrid(*([np.arange(n) / n] * d), indexing="ij")
    return np.stack(axes, axis=-1)


def scalar_kernel(n: int, d: int, lam: float, gamma: float) -> np.ndarray:
    """Real-space antisymmetric kernel g on the lattice, flattened row-major."""
    ghat = ghat_scalar(_theta_grid(n, d), lam, gamma)
    return np.fft.ifftn(ghat).real.ravel()


def uniform_kernels(n: int, d: int, lam: float, b: float,
                    gamma: float) -> list[np.ndarray]:
    ghat = ghat_uniform(_theta_grid(n, d), lam, b, gamma)
    return [np.fft.ifftn(ghat[..., i]).real.ravel() for i in range(4)]


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
    n, d, ns = spec.n, spec.d, spec.nsites
    coords = np.stack(np.unravel_index(np.arange(ns), (n,) * d), axis=-1)
    diff = (coords[:, None, :] - coords[None, :, :]) % n
    return np.ravel_multi_index(np.moveaxis(diff, -1, 0), (n,) * d)


def _shape_spec(spec: LatticeSpec) -> LatticeSpec:
    """Position-coordinate spec of the same size, zero charge (shape only)."""
    return replace(spec, coords="position", charge="zero")


def position_observable(spec: LatticeSpec, lam: float) -> QuadraticObservable:
    """The resolvent solution u over (q, v) coordinates.

    The returned observable lives on a zero-charge position spec of the same
    size; the charge pattern of ``spec`` selects which kernel set is used.
    """
    if lam <= 0:
        raise SpecError("lam must be > 0")
    shape = _shape_spec(spec)
    u = QuadraticObservable.zeros(shape)
    ns, ds, n, d = spec.nsites, spec.dstar, spec.n, spec.d
    tbl = _diff_table(shape)
    P = lambda j: slice(j * ns, (j + 1) * ns)
    V = lambda j: slice(ds * ns + j * ns, ds * ns + (j + 1) * ns)

    def add(rows, cols, gmat):
        u.kernel[rows, cols] += 0.5 * gmat
        u.kernel[cols, rows] += 0.5 * gmat.T

    if spec.charge == "zero":
        G = scalar_kernel(n, d, lam, spec.gamma)[tbl]
        for j in range(ds):
            add(P(j), V(j), G)
    elif spec.charge == "uniform":
        g1, g2, g3, g4 = (g[tbl] for g in
                          uniform_kernels(n, d, lam, spec.b, spec.gamma))
        add(P(0), P(1), g1)
        add(P(0), V(0), g2)
        add(P(1), V(1), g2)
        add(P(0), V(1), g3)
        add(P(1), V(0), -g3)
        add(V(0), V(1), g4)
        if ds > 2:
            G = scalar_kernel(n, d, lam, spec.gamma)[tbl]
            for j in range(2, ds):
                add(P(j), V(j), G)
    else:  # alternate
        h1, h2, h3, h4 = (h[tbl] for h in
                          alternate_kernels(n, lam, spec.b, spec.gamma))
        sy = (-1.0) ** np.arange(n)  # (-1)^y column weights
        add(P(0), P(1), h1 * sy)
        add(V(0), V(1), h2 * sy)
        add(P(0), V(0), h3)
        add(P(1), V(1), h3)
        add(P(0), V(1), h4 * sy)
        add(P(1), V(0), -h4 * sy)
    return u


def _alternate_field_matrix(shape: LatticeSpec) -> np.ndarray:
    """Velocity rotation G with charges (-1)^x, as a dense drift matrix."""
    ns, ds = shape.nsites, shape.dstar
    m = np.zeros((shape.flat_size, shape.flat_size))
    c = (-1.0) ** np.arange(ns)
    for i in range(ns):
        m[ds * ns + i, ds * ns + ns + i] = c[i]
        m[ds * ns + ns + i, ds * ns + i] = -c[i]
    return m


def position_residual(spec: LatticeSpec, lam: float) -> float:
    """Residual of (lam - L)u = sum_x j^a in (q, v) coordinates.

    L carries the charge pattern of ``spec`` even though the observable is
    stored on a zero-charge shape spec (the alternate pattern has no
    position-coordinate LatticeSpec of its own).
    """
    u = position_observable(spec, lam)
    shape = u.spec
    rhs = total_current_observable(shape, 0)
    if spec.charge == "alternate":
        M = (harmonic_drift_matrix(shape)
             + spec.b * _alternate_field_matrix(shape))
        lu = apply_drift(u, M) + spec.gamma * apply_swap_sum(u)
        res = lam * u - lu - rhs
        return (float(np.linalg.norm(res.kernel))
                + float(np.linalg.norm(res.linear)) + abs(res.constant))
    if spec.charge == "zero":
        return residual_norm(lam, u, rhs, GeneratorSpec.for_spec(shape))
    uni = replace(spec, coords="position", charge="uniform")
    u2 = QuadraticObservable(uni, u.kernel, u.linear, u.constant)
    rhs2 = QuadraticObservable(uni, rhs.kernel, rhs.linear, rhs.constant)
    return residual_norm(lam, u2, rhs2, GeneratorSpec.for_spec(uni))


def phi_matrix(spec: LatticeSpec) -> np.ndarray:
    """Linear map (r ‖ v) -> (q ‖ v) with q_x = -sum_{y>=x}(r_y - rbar)."""
    if spec.coords != "deformation":
        raise SpecError("phi_matrix requires deformation coords")
    ns, ds = spec.nsites, spec.dstar
    x = np.arange(ns)
    block = -(x[None, :] >= x[:, None]).astype(float) + \
        (ns - x[:, None]) / ns
    t = np.eye(spec.flat_size)
    for j in range(ds):
        t[j * ns:(j + 1) * ns, j * ns:(j + 1) * ns] = block
    return t


def build_u(spec: LatticeSpec, lam: float) -> QuadraticObservable:
    """Resolvent solution as an observable over ``spec`` itself.

    Position coords: the (q, v) solution directly.  Deformation coords: the
    pushforward u∘Φ (the * part of the canonical resolvent solution).
    """
    u = position_observable(spec, lam)
    if spec.coords == "position":
        return QuadraticObservable(spec, u.kernel, u.linear, u.constant)
    t = phi_matrix(spec)
    return QuadraticObservable(spec, t.T @ u.kernel @ t, t.T @ u.linear,
                               u.constant)


def rbar_vbar_observable(spec: LatticeSpec) -> QuadraticObservable:
    """N * sum_j rbar^j vbar^j as a quadratic observable (deformation)."""
    u = QuadraticObservable.zeros(spec)
    ns, ds = spec.nsites, spec.dstar
    for j in range(ds):
        u.kernel[j * ns:(j + 1) * ns,
                 ds * ns + j * ns:ds * ns + (j + 1) * ns] += 0.5 / ns
        u.kernel[ds * ns + j * ns:ds * ns + (j + 1) * ns,
                 j * ns:(j + 1) * ns] += 0.5 / ns
    return u


def vstarstar(spec: LatticeSpec, lam: float) -> QuadraticObservable:
    """Closed-form solution of (lam - L_r)v = N sum_j rbar^j vbar^j."""
    if spec.coords != "deformation":
        raise SpecError("vstarstar requires deformation coords")
    ns, ds = spec.nsites, spec.dstar
    b, gamma = spec.b, spec.gamma
    u = QuadraticObservable.zeros(spec)
    ones = np.ones(ns)
    alt = (-1.0) ** np.arange(ns)

    def add_pair(jr, jv, coef, vel_weights=None, pos_weights=None):
        # coef * (1/N) * (sum_x wr r_x^jr)(sum_y wv v_y^jv)
        wr = ones if pos_weights is None else pos_weights
        wv = ones if vel_weights is None else vel_weights
        rows = slice(jr * ns, (jr + 1) * ns)
        cols = slice(ds * ns + jv * ns, ds * ns + (jv + 1) * ns)
        blk = 0.5 * coef / ns * np.outer(wr, wv)
        u.kernel[rows, cols] += blk
        u.kernel[cols, rows] += blk.T

    def add_rr(j1, j2, coef, w2):
        rows = slice(j1 * ns, (j1 + 1) * ns)
        cols = slice(j2 * ns, (j2 + 1) * ns)
        blk = 0.5 * coef / ns * np.outer(ones, w2)
        u.kernel[rows, cols] += blk
        u.kernel[cols, rows] += blk.T

    if spec.charge == "zero":
        for j in range(ds):
            add_pair(j, j, 1.0 / lam)
    elif spec.charge == "uniform":
        # overall sign fixed against the defining equation (the B=0 limit
        # must agree with the zero-charge form)
        den = lam * lam + b * b
        add_pair(0, 0, lam / den)
        add_pair(1, 0, -b / den)
        add_pair(0, 1, b / den)
        add_pair(1, 1, lam / den)
    else:  # alternate
        p = lam * lam + 4.0 * gamma * lam + 4.0
        den = lam * (p + b * b)
        add_pair(0, 0, p / den)
        add_pair(1, 0, -b * lam / den, vel_weights=alt)
        add_pair(0, 1, b * lam / den, vel_weights=alt)
        add_pair(1, 1, p / den)
        add_rr(0, 1, 2.0 * b / den, alt)
        add_rr(1, 0, -2.0 * b / den, alt)
    return u


TOL_RESIDUAL = 1e-10
TOL_VSTAR = 1e-12


def certify_reduction(spec: LatticeSpec, lam: float) -> dict:
    """Certify the position->deformation reduction of the resolvent solution.

    Checks, for a deformation-coordinate spec:
      a) the built (q, v) observable has zero net position derivative,
      b) its pushforward solves (lam - L_r)(u∘Φ) = Σ j^a + N Σ rbar vbar,
      c) the closed-form v** solves (lam - L_r)v** = N Σ rbar vbar.
    """
    if spec.coords != "deformation" or spec.d != 1 or spec.dstar != 2:
        raise SpecError("certify_reduction requires d=1, dstar=2, "
                        "deformation coords")
    uq = position_observable(spec, lam)
    ns, ds = spec.nsites, spec.dstar
    row = 0.0
    for j in range(ds):
        sl = slice(j * ns, (j + 1) * ns)
        row = max(row, float(np.linalg.norm(uq.kernel[sl].sum(axis=0))),
                  abs(float(uq.linear[sl].sum())))
    gen = GeneratorSpec.for_spec(spec)
    rhs_star = (total_current_observable(spec, 0)
                + rbar_vbar_observable(spec))
    push = residual_norm(lam, build_u(spec, lam), rhs_star, gen)
    vss = residual_norm(lam, vstarstar(spec, lam),
                        rbar_vbar_observable(spec), gen)
    report = {
        "spec": spec.to_json(), "lambda": lam,
        "row_sum": row, "qv_residual": position_residual(spec, lam),
        "pushforward_residual": push, "vstarstar_residual": vss,
    }
    report["pass"] = (row <= TOL_RESIDUAL
                     and report["qv_residual"] <= TOL_RESIDUAL
                     and push <= TOL_RESIDUAL and vss <= TOL_VSTAR)
    return report


def run_certification(n: int = 8, lams=(0.5, 1.0, 2.0), bs=(0.0, 1.0, -2.0),
                      gammas=(0.5, 1.0)) -> dict:
    """Full certification matrix over variants and parameters."""
    cases = []
    ok = True
    for lam in lams:
        for b in bs:
            for gamma in gammas:
                specs = [
                    LatticeSpec(d=1, dstar=2, n=n, b=b, gamma=gamma),
                    LatticeSpec(d=1, dstar=2, n=n, b=0.0, gamma=gamma,
                                charge="zero", coords="deformation"),
                    LatticeSpec(d=1, dstar=2, n=n, b=b, gamma=gamma,
                                coords="deformation"),
                    LatticeSpec(d=1, dstar=2, n=n, b=b, gamma=gamma,
                                charge="alternate", coords="deformation"),
                ]
                for spec in specs:
                    if spec.coords == "position":
                        res = position_residual(spec, lam)
                        case = {"spec": spec.to_json(), "lambda": lam,
                                "qv_residual": res,
                                "pass": res <= TOL_RESIDUAL}
                    else:
                        case = certify_reduction(spec, lam)
                    ok = ok and case["pass"]
                    cases.append(case)
    return {"n": n, "cases": cases, "pass": ok}
