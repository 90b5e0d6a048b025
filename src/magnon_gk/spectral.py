"""Closed-form analytics for the current autocorrelation of the noisy
charged harmonic lattice.

Everything here is deterministic quadrature over the Brillouin zone
[0,1]^d: Laplace transforms of the infinite-volume correlation functions,
their explicit inverse-Laplace decompositions, the spectral coefficient
functions (alpha/beta pairs for the uniform charge, the cubic-root sextet
for the alternating charge), finite-time Green-Kubo integrals assembled
from analytically time-integrated terms, and log-log exponent fitting.

Conventions: omega2 = 4 sum_a sin^2(pi theta^a); the uniformly charged
integrand carries the weight sin^2(2 pi theta^1)/omega2 (equal to
cos^2(pi theta) in one dimension), the canonical ones cos^2(pi theta).
Canonical variants "0" and "i" are therefore the uniform-charge forms at
d=1, dstar=2 with E = 2/beta (variant "0" at B=0), and are computed by them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class QuadratureError(RuntimeError):
    """A quadrature failed to reach its requested tolerance."""


class ComplexRootRegime(RuntimeError):
    """Alternating-charge cubic has complex roots (noise rate > 1)."""


# ---------------------------------------------------------------------------
# basic dispersion quantities


def omega2(theta) -> float:
    """4 sum_a sin^2(pi theta^a); theta scalar (d=1) or length-d point."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    return float(4.0 * np.sum(np.sin(np.pi * th) ** 2))


def _omega2_arr(thetas: np.ndarray) -> np.ndarray:
    """Vectorized omega2 for points of shape (m, d) or (m,)."""
    th = np.asarray(thetas, dtype=float)
    if th.ndim == 1:
        return 4.0 * np.sin(np.pi * th) ** 2
    return 4.0 * np.sum(np.sin(np.pi * th) ** 2, axis=-1)


def dispersion(theta, b: float):
    """Mode frequencies sqrt(omega2 + (B/2)^2) +- B/2 of the coupled plane."""
    om2 = omega2(theta)
    root = np.sqrt(om2 + 0.25 * b * b)
    return root + 0.5 * b, root - 0.5 * b


# ---------------------------------------------------------------------------
# quadrature grids


@functools.lru_cache(maxsize=64)
def _axis_nodes(n: int, power: int, scale: float):
    """Graded Gauss-Legendre nodes on [0, scale], clustered at 0."""
    x, w = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    theta = scale * u ** power
    wt = wu * scale * power * u ** (power - 1)
    return theta, wt


@functools.lru_cache(maxsize=32)
def _tensor_grid(d: int, n: int, power: int):
    """Graded tensor grid on [0,1/2]^d with the 2^d symmetry factor folded in.

    Returns (points of shape (m, d), weights of shape (m,)).
    """
    t1, w1 = _axis_nodes(n, power, 0.5)
    axes = np.meshgrid(*([t1] * d), indexing="ij")
    pts = np.stack([a.ravel() for a in axes], axis=-1)
    waxes = np.meshgrid(*([w1] * d), indexing="ij")
    wts = waxes[0].ravel().copy()
    for wa in waxes[1:]:
        wts *= wa.ravel()
    return pts, wts * (2.0 ** d)


def _integrate_sym(fvec, d: int, n: int, power: int = 3) -> float:
    """Integral over [0,1]^d of an integrand symmetric per axis about 1/2."""
    pts, wts = _tensor_grid(d, n, power)
    return float(np.dot(fvec(pts), wts))


def _refine(valfun, n: int, tol: float | None, what: str):
    v1 = valfun(n)
    v2 = valfun(int(n * 1.5) + 1)
    err = abs(v1 - v2)
    if tol is not None and err > tol * max(1.0, abs(v2)):
        raise QuadratureError(f"{what}: error estimate {err:.3e} over tol")
    return v2, err


# ---------------------------------------------------------------------------
# uniform-charge spectral coefficients


@dataclass
class SpectralCoeffs:
    theta: object
    omega2: float
    alpha1: float = 0.0
    alpha2: float = 0.0
    beta1: float = 0.0
    beta2: float = 0.0
    cubic_roots: np.ndarray | None = None   # alternating charge, descending
    alphas456: np.ndarray | None = None     # (alpha1, alpha2, alpha3)
    betas1to6: np.ndarray | None = None
    complex_regime: bool = False


def _uniform_arrays(om2: np.ndarray, b: float, gamma: float) -> dict:
    """Vectorized alpha/beta functions with cancellation-safe branches.

    Returns gw = gamma*omega2, a1, a2, b1, b2 and the decay rates
    z2 = gw + a2, z3 = gw - a2 (z3 computed in a subtraction-free form).
    """
    om2 = np.asarray(om2, dtype=float)
    gw = gamma * om2
    g2w4 = gw * gw
    D = b * b - g2w4 + 4.0 * om2
    if b == 0.0:
        if np.any(om2 == 0.0):
            raise ZeroDivisionError("degenerate mode: B = 0 and omega = 0")
        a1sq = np.maximum(D, 0.0)
        a2sq = np.maximum(-D, 0.0)
        b1 = np.where(D < 0.0, 1.0, 0.0)
        b2 = np.where(D > 0.0, 0.5, 0.0)
        disc = np.abs(D)
    else:
        disc = np.sqrt(D * D + 4.0 * g2w4 * b * b)
        # whichever of a1sq/a2sq comes from "disc -/+ D" with opposite signs
        # cancels; take it from the product identity instead
        half_sum = 0.5 * (disc + np.abs(D))
        ratio = np.divide(g2w4 * b * b, half_sum,
                          out=np.zeros_like(half_sum), where=half_sum > 0)
        a1sq = np.where(D >= 0.0, half_sum, ratio)
        a2sq = np.where(D >= 0.0, ratio, half_sum)
        ssum = a1sq + a2sq
        b1 = (a2sq + b * b) / ssum
        # a1sq - b^2 = 8 B^2 om2 / (disc + 2B^2 - D); denominator >= 2B^2
        b2 = (8.0 * b * b * om2 / (disc + 2.0 * b * b - D)) / (2.0 * ssum)
    a1 = np.sqrt(a1sq)
    a2 = np.sqrt(a2sq)
    # gw - a2 = 8 gamma^2 om2^3 / ((W + disc)(gw + a2)), W = B^2+g2w4+4om2
    W = b * b + g2w4 + 4.0 * om2
    denom = (W + disc) * (gw + a2)
    z3 = np.divide(8.0 * gamma * gamma * om2 ** 3, denom,
                   out=np.zeros_like(om2), where=denom > 0)
    return dict(gw=gw, a1=a1, a2=a2, b1=b1, b2=b2, z2=gw + a2, z3=z3)


def uniform_coeffs(theta, b: float, gamma: float) -> SpectralCoeffs:
    om2 = omega2(theta)
    if b == 0.0 and om2 == 0.0:
        raise ZeroDivisionError("degenerate mode: B = 0 and omega = 0")
    u = _uniform_arrays(np.array([om2]), b, gamma)
    return SpectralCoeffs(theta=theta, omega2=om2,
                          alpha1=float(u["a1"][0]), alpha2=float(u["a2"][0]),
                          beta1=float(u["b1"][0]), beta2=float(u["b2"][0]))


def _weight_micro(pts: np.ndarray, om2: np.ndarray) -> np.ndarray:
    """sin^2(2 pi theta^1)/omega2, with the finite continuation at 0."""
    th1 = pts[:, 0] if pts.ndim == 2 else pts
    s = np.sin(2.0 * np.pi * th1) ** 2
    return np.divide(s, om2, out=np.ones_like(s), where=om2 > 1e-28)


# ---------------------------------------------------------------------------
# Laplace transforms


def _pq_ratio(lam: float, om2: np.ndarray, b: float, gamma: float):
    gw = gamma * om2
    p = (lam + gw) * (lam * lam + 2.0 * lam * gw + 4.0 * om2)
    q = (lam + gw) * p + b * b * lam * (lam + 2.0 * gw)
    return p / q


def laplace_micro(lam: float, d: int, dstar: int, b: float, gamma: float,
                  e: float, n: int = 400, tol: float | None = 1e-8) -> float:
    """Laplace transform of the infinite-volume current autocorrelation."""
    if lam <= 0:
        raise ValueError("lam must be > 0")

    def val(nn):
        def f(pts):
            om2 = _omega2_arr(pts)
            w = _weight_micro(pts, om2)
            out = 2.0 * w * _pq_ratio(lam, om2, b, gamma)
            if dstar > 2:
                out = out + (dstar - 2) * w / (lam + gamma * om2)
            return out
        return _integrate_sym(f, d, nn) * e * e / dstar ** 2

    v, _ = _refine(val, n, tol, "laplace_micro")
    return v


def _rs_ratio(lam: float, theta: np.ndarray, b: float, gamma: float):
    """R(lam)/S(lam) for the alternating charge (order 5 over order 6)."""
    lb = lam + 2.0 * gamma
    c = np.cos(2.0 * np.pi * theta)
    g = gamma
    lb2 = lb * lb
    A = (b * b + lb2) * (8.0 - 4.0 * g * g + lb2) - 8.0 * b * b
    E = 4.0 + 4.0 * g ** 4 - g * g * (8.0 + lb2)
    R = (lb * A
         + 2.0 * (b * b * (2.0 * lb + g * (4.0 - 4.0 * g * g + lb2))
                  + g * lb2 * (8.0 - 4.0 * g * g + lb2)) * c
         + E * (4.0 * lb * c * c + 8.0 * g * c ** 3))
    S = ((b * b + lb2) * A
         + 8.0 * (-b * b * g * g * (4.0 - 4.0 * g * g + lb2)
                  + lb2 * (2.0 + 4.0 * g ** 4 - g * g * (8.0 + lb2))) * c * c
         - 16.0 * g * g * E * c ** 4)
    return R / S


def laplace_canonical(lam: float, variant: str, b: float, gamma: float,
                      beta: float, n: int = 400,
                      tol: float | None = 1e-8) -> float:
    """Laplace transform of the canonical current autocorrelation."""
    if lam <= 0:
        raise ValueError("lam must be > 0")
    if variant not in ("0", "i", "ii"):
        raise ValueError("variant must be '0', 'i' or 'ii'")
    if variant != "ii":
        return laplace_micro(lam, 1, 2, b if variant == "i" else 0.0, gamma,
                             2.0 / beta, n, tol)

    def val(nn):
        def f(pts):
            th = pts[:, 0]
            return np.cos(np.pi * th) ** 2 * _rs_ratio(lam, th, b, gamma)
        return _integrate_sym(f, 1, nn) * 2.0 / beta ** 2

    v, _ = _refine(val, n, tol, "laplace_canonical")
    return v


# ---------------------------------------------------------------------------
# oscillatory panel quadrature (for the cos(alpha t) terms)


def _panel_nodes(phase_fn, t: float, lo: float, hi: float,
                 coarse: int = 512, per_panel: int = 10,
                 rad_per_panel: float = np.pi / 4):
    """Nodes/weights on [lo,hi] with panel density following the phase."""
    g = np.linspace(lo, hi, coarse + 1)
    ph = phase_fn(g) * t
    arc = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(ph)))])
    # add a uniform floor so flat-phase regions still get panels
    arc = arc + np.linspace(0.0, max(16.0 * rad_per_panel, 1e-9), coarse + 1)
    n_panels = max(16, int(arc[-1] / rad_per_panel) + 1)
    levels = np.linspace(0.0, arc[-1], n_panels + 1)
    edges = np.interp(levels, arc, g)
    x, w = np.polynomial.legendre.leggauss(per_panel)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return nodes, wts


def _damping_cutoff(gamma: float, t: float, scale: float = 0.5,
                    logcut: float = 45.0) -> float:
    """theta above which exp(-gamma*omega2*t) is numerically zero."""
    if t <= 0:
        return scale
    s2 = logcut / (4.0 * gamma * t)
    if s2 >= 1.0:
        return scale
    return min(scale, np.arcsin(np.sqrt(s2)) / np.pi)


def _beta1_integral(kernel, t: float, d: int, b: float, gamma: float,
                    n: int) -> float:
    """Integral over [0,1]^d of weight * beta1 * Re kernel(-gw + i a1).

    This is the oscillatory cos(a1 t) family (B != 0).  In d=1 the nodes sit
    on panels that follow the phase a1*t up to the damping cutoff of
    exp(-gw t); in d > 1 the graded tensor grid is used.
    """
    def f(pts):
        om2 = _omega2_arr(pts)
        u = _uniform_arrays(om2, b, gamma)
        return (_weight_micro(pts, om2) * u["b1"]
                * kernel(-u["gw"] + 1j * u["a1"]).real)

    if d > 1:
        return _integrate_sym(f, d, n)

    def phase(th):
        return _uniform_arrays(_omega2_arr(th), b, gamma)["a1"]

    nodes, wq = _panel_nodes(phase, t, 0.0, _damping_cutoff(gamma, t))
    return 2.0 * float(f(nodes) @ wq)


# ---------------------------------------------------------------------------
# inverse Laplace components (uniform charge)


def c_components(t: float, d: int, b: float, gamma: float,
                 n: int = 500):
    """The four theta-integral components of the correlation at time t.

    c1: oscillatory term (weight * beta1 * exp(-gw t) cos(a1 t));
    c2/c3: the exp(-(gw +- a2) t) pair with weight * beta2;
    c4: the uncoupled-component term (weight * exp(-gw t)).
    At B=0 the coupled plane reduces to p/q = 1/(lam + gw), so c1 = 0 and
    c2 = c3 = c4/2.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    pts, wts = _tensor_grid(d, n, 3)
    om2 = _omega2_arr(pts)
    w = _weight_micro(pts, om2)
    c4 = float((w * np.exp(-gamma * om2 * t)) @ wts)
    if b == 0.0:
        return 0.0, 0.5 * c4, 0.5 * c4, c4
    u = _uniform_arrays(om2, b, gamma)
    c2 = float((w * u["b2"] * np.exp(-u["z2"] * t)) @ wts)
    c3 = float((w * u["b2"] * np.exp(-u["z3"] * t)) @ wts)
    c1 = _beta1_integral(lambda z: np.exp(z * t), t, d, b, gamma, n)
    return c1, c2, c3, c4


def c_infty(t: float, d: int = 1, dstar: int = 2, b: float = 1.0,
            gamma: float = 1.0, e: float = 1.0, n: int = 500) -> float:
    """Infinite-volume current autocorrelation assembled from components."""
    c1, c2, c3, c4 = c_components(t, d, b, gamma, n)
    return ((2.0 * e * e / dstar ** 2) * (c1 + c2 + c3)
            + (dstar - 2) * (e * e / dstar ** 2) * c4)


# ---------------------------------------------------------------------------
# triangular-window time integral


def triangular_window_integral(z, T: float):
    """int_0^T (1 - t/T) e^{z t} dt, stable for small |z T| (vectorized)."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    small = np.abs(z) * T < 0.1
    zb = z[~small]
    out[~small] = -1.0 / zb - (1.0 - np.exp(zb * T)) / (zb * zb * T)
    zs = z[small]
    acc = np.zeros_like(zs)
    term = np.ones_like(zs) * T
    for k in range(14):
        acc = acc + term / ((k + 1) * (k + 2))
        term = term * zs * T / (k + 1)
    out[small] = acc
    return out if out.shape else complex(out)


def _tw_smooth(z, T: float):
    """Triangular window without its e^{zT} part (use for oscillatory z)."""
    z = np.asarray(z, dtype=complex)
    return -1.0 / z - 1.0 / (z * z * T)


def _tw_tail(z, T: float):
    return np.exp(np.asarray(z, dtype=complex) * T) / (z * z * T)


# ---------------------------------------------------------------------------
# Green-Kubo closed forms


def _kappa_micro(T: float, d: int, dstar: int, b: float, gamma: float,
                 n: int = 500) -> float:
    if b == 0.0:
        # every component decays as exp(-gw t) (see c_components)
        def free(pts):
            om2 = _omega2_arr(pts)
            return _weight_micro(pts, om2) * triangular_window_integral(
                -gamma * om2, T).real
        return _integrate_sym(free, d, n) / dstar + gamma / (2.0 * dstar)

    def smooth_part(pts):
        om2 = _omega2_arr(pts)
        w = _weight_micro(pts, om2)
        u = _uniform_arrays(om2, b, gamma)
        tw2 = triangular_window_integral(-u["z2"], T).real
        tw3 = triangular_window_integral(-u["z3"], T).real
        # in d=1 the e^{z1 T} piece of the beta1 term is added on panels
        window = _tw_smooth if d == 1 else triangular_window_integral
        tw1 = window(-u["gw"] + 1j * u["a1"], T).real
        out = 2.0 * w * (u["b2"] * (tw2 + tw3) + u["b1"] * tw1)
        if dstar > 2:
            out = out + (dstar - 2) * w * triangular_window_integral(
                -u["gw"], T).real
        return out / dstar ** 2

    total = _integrate_sym(smooth_part, d, n) + gamma / (2.0 * dstar)
    if d == 1:
        total += (2.0 / dstar ** 2) * _beta1_integral(
            lambda z: _tw_tail(z, T), T, d, b, gamma, n)
    return total


# ---------------------------------------------------------------------------
# alternating charge: cubic roots and partial fractions

_LD = np.longdouble
_CLD = np.clongdouble


def _cubic_T_coeffs(theta, b, gamma):
    """Coefficients (c2, c1, c0) of Y^3 + c2 Y^2 + c1 Y + c0 (longdouble)."""
    th = np.asarray(theta, dtype=_LD)
    bt = _LD(b) / 2
    gt = _LD(gamma) * np.sin(2 * np.pi * th)
    c2pi = np.cos(2 * np.pi * th)
    c2 = 2 * (1 + bt * bt + gt * gt)
    c1 = (bt ** 4 + 2 * (1 + gt * gt) * bt * bt + c2pi * c2pi
          + 4 * gt * gt + gt ** 4)
    c0 = 2 * bt * bt * gt * gt + gt * gt * c2pi * c2pi + 2 * gt ** 4
    return c2, c1, c0


def _cubic_eval(Y, c2, c1, c0):
    return ((Y + c2) * Y + c1) * Y + c0


def _cubic_roots(theta, b, gamma):
    """Roots of the alternating-charge cubic, descending; longdouble.

    Returns (roots[3, m], any_complex). Real case uses the trigonometric
    three-real-root formula plus two Newton polish sweeps.
    """
    c2, c1, c0 = _cubic_T_coeffs(theta, b, gamma)
    p = c1 - c2 * c2 / 3
    q = 2 * c2 ** 3 / 27 - c2 * c1 / 3 + c0
    disc = -4 * p ** 3 - 27 * q * q
    m = np.shape(c2) if np.ndim(c2) else (1,)
    c2a, c1a, c0a = (np.broadcast_to(np.asarray(x), m).astype(_LD)
                     for x in (c2, c1, c0))
    pa = np.broadcast_to(np.asarray(p), m).astype(_LD)
    qa = np.broadcast_to(np.asarray(q), m).astype(_LD)
    da = np.broadcast_to(np.asarray(disc), m).astype(_LD)
    if np.all(da >= 0):
        rr = np.sqrt(-pa / 3)
        arg = np.clip(3 * qa / (2 * pa) / rr, -1, 1)
        phi = np.arccos(arg)
        ks = np.arange(3).reshape(3, 1)
        roots = 2 * rr * np.cos(phi / 3 - 2 * np.pi * ks / 3) - c2a / 3
        for _ in range(2):  # Newton polish in extended precision
            f = _cubic_eval(roots, c2a, c1a, c0a)
            fp = (3 * roots + 2 * c2a) * roots + c1a
            roots = roots - np.where(np.abs(fp) > 0, f / fp, 0 * f)
        roots = np.sort(roots, axis=0)[::-1]
        return roots, False
    # complex-root regime: per-point companion solve in double precision
    roots = np.empty((3,) + m, dtype=_CLD)
    flat2, flat1, flat0 = c2a.ravel(), c1a.ravel(), c0a.ravel()
    out = roots.reshape(3, -1)
    for i in range(flat2.size):
        r = np.roots([1.0, float(flat2[i]), float(flat1[i]), float(flat0[i])])
        out[:, i] = np.sort_complex(r)[::-1]
    return roots, True


def _alt_partial_fractions(theta, b, gamma):
    """Per-theta data for the alternating-charge inverse Laplace transform.

    For each root gives s_i = sqrt(4 gamma^2 + 4 root_i) (complex in
    general) and the residues rU1_i, rU2_i of the two numerator families.
    """
    # floor theta away from 0 where two roots merge; the [0, 1e-6] sliver
    # is handled by continuity of the summed partial fractions
    th = np.maximum(np.asarray(theta, dtype=_LD), _LD(1e-6))
    roots, is_complex = _cubic_roots(th, b, gamma)
    c2pi2 = np.cos(2 * np.pi * th) ** 2
    g = _LD(gamma)
    bb = _LD(b) * _LD(b)

    def U1(Y):
        return ((bb + Y + 4 * g * g) * (8 + Y) - 8 * bb
                + 4 * (4 + bb - 8 * g * g - g * g * Y) * c2pi2)

    def U2(Y):
        return ((2 * bb * g * (4 + Y) + 2 * g * (Y + 4 * g * g) * (Y + 8))
                * c2pi2 + 8 * g * (4 - 8 * g * g - g * g * Y) * c2pi2 ** 2)

    dt = _CLD if is_complex else _LD
    rU1 = np.empty_like(roots, dtype=dt)
    rU2 = np.empty_like(roots, dtype=dt)
    for i in range(3):
        denom = np.ones_like(roots[i])
        for j in range(3):
            if j != i:
                denom = denom * 4 * (roots[i] - roots[j])
        rU1[i] = U1(4 * roots[i]) / denom
        rU2[i] = U2(4 * roots[i]) / denom
    s = np.sqrt((4 * g * g + 4 * roots).astype(_CLD))
    return roots, s, rU1, rU2, is_complex


def cubic_coeffs(theta: float, b: float, gamma: float) -> SpectralCoeffs:
    """Spectral data of the alternating charge at a single wavenumber."""
    roots, s, rU1, rU2, is_complex = _alt_partial_fractions(
        np.array([theta]), b, gamma)
    coeffs = SpectralCoeffs(theta=theta, omega2=omega2(theta),
                            complex_regime=is_complex)
    coeffs.cubic_roots = np.asarray(roots[:, 0],
                                    dtype=complex if is_complex else float)
    if not is_complex:
        a1 = float(np.sqrt(max(4 * gamma ** 2 + 4 * roots[0, 0], 0.0)))
        a2 = float(np.sqrt(max(-4 * gamma ** 2 - 4 * roots[1, 0], 0.0)))
        a3 = float(np.sqrt(max(-4 * gamma ** 2 - 4 * roots[2, 0], 0.0)))
        coeffs.alphas456 = np.array([a1, a2, a3])
        b123 = [float(rU1[i, 0]) for i in range(3)]
        b456 = [float(rU2[i, 0]) for i in range(3)]
        coeffs.betas1to6 = np.array(b123 + b456)
    return coeffs


@functools.lru_cache(maxsize=16)
def _quarter_grid(n: int, power: int = 3):
    t1, w1 = _axis_nodes(n, power, 0.25)
    return t1, w1


def _alt_time_integrand(theta, t, b, gamma):
    """L^{-1}[R/S](t) pointwise in theta (longdouble), its e^{-2 gamma t}
    included (R/S is a function of lam + 2 gamma)."""
    roots, s, rU1, rU2, _ = _alt_partial_fractions(theta, b, gamma)
    tt = _LD(t)
    total = np.zeros(np.shape(s[0]), dtype=_CLD)
    for i in range(3):
        # exponents s_i - 2 gamma <= 0 up to roundoff; clip to avoid blowup
        ep = np.exp(np.minimum((s[i] - 2 * _LD(gamma)).real, 0)
                    * tt + 1j * s[i].imag * tt)
        # exp(-(s_i + 2 gamma) t), real exponent clipped like ep's
        em = np.exp(np.minimum((-s[i] - 2 * _LD(gamma)).real, 0) * tt
                    - 1j * s[i].imag * tt)
        cosh_t = 0.5 * (ep + em)
        sinh_t = 0.5 * (ep - em)
        total = total + rU1[i] * cosh_t + rU2[i] * sinh_t / s[i]
    return total.real.astype(float)


def d_closed(t: float, variant: str, b: float, gamma: float, beta: float,
             n: int = 500) -> float:
    """Closed-form canonical current autocorrelation at time t."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if variant not in ("0", "i", "ii"):
        raise ValueError("variant must be '0', 'i' or 'ii'")
    if variant != "ii" or b == 0.0:
        return c_infty(t, 1, 2, b if variant != "0" else 0.0, gamma,
                       2.0 / beta, n)
    if gamma > 1.0:
        # complex-root regime: experimental, dense uniform grid
        th = (np.arange(4 * n) + 0.5) / (4 * n) * 0.25
        vals = _alt_time_integrand(th, t, b, gamma)
        return float(np.mean(vals) * 0.25 * 4.0 / beta ** 2)

    # smooth (growing-exponential) part: i = 1 root, graded grid near 0;
    # its decay enters through the combined exponent s_1 - 2 gamma <= 0
    th, wq = _quarter_grid(n)
    roots, s, rU1, rU2, _ = _alt_partial_fractions(th, b, gamma)
    tt = _LD(t)
    g2 = 2 * _LD(gamma)
    ep = np.exp(np.minimum(s[0].real - g2, 0) * tt)
    em = np.exp((-s[0].real - g2) * tt)
    smooth = (rU1[0].real * 0.5 * (ep + em)
              + rU2[0].real * 0.5 * (ep - em) / s[0].real)
    total = float(np.asarray(smooth, dtype=float) @ wq)

    # oscillatory part: i = 2,3 roots on phase-adapted panels; it carries
    # an exact e^{-2 gamma t} factor, so skip it once that underflows
    if float(g2) * t < 500.0:
        def phase(thx):
            _, sx, *_ = _alt_partial_fractions(np.asarray(thx), b, gamma)
            return (np.abs(sx[1].imag) + np.abs(sx[2].imag)).astype(float)

        nodes, wp = _panel_nodes(phase, t, 0.0, 0.25)
        _, sn, rU1n, rU2n, _ = _alt_partial_fractions(nodes, b, gamma)
        osc = np.zeros(len(nodes), dtype=_LD)
        for i in (1, 2):
            al = sn[i].imag
            osc = osc + rU1n[i].real * np.cos(al * tt) \
                + rU2n[i].real * np.sin(al * tt) / al
        total += float(np.exp(-g2 * tt) * (np.asarray(osc, dtype=float) @ wp))
    return total * 4.0 / beta ** 2


def _kappa_canonical_alt(T: float, b: float, gamma: float,
                         n: int = 500) -> float:
    """Variant-ii Green-Kubo integral via windowed partial fractions."""
    if gamma > 1.0:
        raise ComplexRootRegime(
            "gamma > 1: alternating-charge closed form is experimental; "
            "use d_closed + numerical time integration")
    th, wq = _quarter_grid(n)
    roots, s, rU1, rU2, _ = _alt_partial_fractions(th, b, gamma)
    g2 = 2.0 * gamma
    bracket = np.zeros(len(th))
    # i = 1: real pair e^{(s-2g)t}, e^{-(s+2g)t}
    s1 = np.asarray(s[0].real, dtype=float)
    twp = triangular_window_integral(s1 - g2, T).real
    twm = triangular_window_integral(-s1 - g2, T).real
    bracket += (np.asarray(rU1[0].real, dtype=float) * 0.5 * (twp + twm)
                + np.asarray(rU2[0].real, dtype=float) * 0.5 * (twp - twm) / s1)
    # i = 2,3: oscillatory, z = -2g + i alpha
    for i in (1, 2):
        al = np.asarray(s[i].imag, dtype=float)
        z = -g2 + 1j * al
        tw = triangular_window_integral(z, T)
        bracket += (np.asarray(rU1[i].real, dtype=float) * tw.real
                    + np.asarray(rU2[i].real, dtype=float) * tw.imag / al)
    return float(bracket @ wq) + gamma / 4.0


def kappa_gk_closed(t: float, *, kind: str = "micro", d: int = 1,
                    dstar: int = 2, b: float = 1.0, gamma: float = 1.0,
                    variant: str = "i", n: int = 500) -> float:
    """Finite-time Green-Kubo integral assembled from closed forms.

    kind="micro": (1/E^2) int_0^t (1-s/t) C(s) ds + gamma/(2 dstar);
    kind="canonical": (beta^2/4) int (1-s/t) D(s) ds + gamma/4.
    Both are independent of E and beta.  All time integrals are done
    analytically per wavenumber (triangular window), so only the theta
    quadrature is numerical.
    """
    if t <= 0:
        raise ValueError("t must be > 0")
    if kind == "micro":
        return _kappa_micro(t, d, dstar, b, gamma, n)
    if kind != "canonical":
        raise ValueError("kind must be 'micro' or 'canonical'")
    if variant not in ("0", "i", "ii"):
        raise ValueError("variant must be '0', 'i' or 'ii'")
    if variant != "ii" or b == 0.0:  # as in d_closed
        return _kappa_micro(t, 1, 2, b if variant != "0" else 0.0, gamma, n)
    return _kappa_canonical_alt(t, b, gamma, n)


# ---------------------------------------------------------------------------
# exponent fitting


def fit_exponent(times, values, window=None):
    """Least-squares slope of log(value) vs log(t); returns (slope, stderr)."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if window is not None:
        keep = (times >= window[0]) & (times <= window[1])
        times, values = times[keep], values[keep]
    if len(times) < 8:
        raise ValueError("need at least 8 points in the fit window")
    if np.any(values <= 0):
        raise ValueError("values must be positive for a log-log fit")
    from scipy.stats import linregress
    res = linregress(np.log(times), np.log(values))
    return float(res.slope), float(res.stderr)
