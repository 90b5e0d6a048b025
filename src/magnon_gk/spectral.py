"""Closed-form analytics for the current autocorrelation of the noisy
charged harmonic lattice.

Everything here is deterministic quadrature over the Brillouin zone
[0,1]^d: Laplace transforms of the infinite-volume correlation functions,
the spectral coefficient functions (alpha/beta pairs for the uniform charge,
cubic roots and partial fractions for the alternating charge), the closed
forms in time, and log-log exponent fitting.

Every closed form is one zone integral of sum_k Re c_k(theta) K(z_k(theta)).
Each charge has one term table: its rows (c_k, z_k), oscillating rows first,
on its zone grid, and its panel cut-off.  The grid rows do not depend on t,
so a table is built once per configuration and cached; t enters only
through the kernel, the cut-off and the panel nodes.  ``_assemble``
integrates a table for a kernel K: K(z) = e^{zt} gives the correlation
(``c_components``, ``c_infty``, ``d_closed``), the triangular window
int_0^t (1 - s/t) e^{zs} ds the finite-time Green-Kubo integral
(``kappa_gk_closed``).  The Laplace transforms do not use the tables; tests
compare the two.  The oscillating rows of d=1 go on 10-node Gauss-Legendre
panels that follow their phase, pi rad per panel.  A row its caller weights
by zero is not evaluated: at dstar=2 the uniform charge's uncoupled row.

The zone grid of d >= 3 is folded over permutations of the axes 2..d: every
integrand sees those axes only through sum_a sin^2(pi theta^a), so
``_tensor_grid`` keeps theta^2 <= ... <= theta^d and weights each kept point
by its number of orderings (about half the points at d=3).

Conventions: omega2 = 4 sum_a sin^2(pi theta^a) (``lattice.omega2``); the
zone grids are graded as u^3 toward theta = 0; the uniformly charged
integrand carries the weight sin^2(2 pi theta^1)/omega2 (equal to
cos^2(pi theta) in one dimension), the canonical ones cos^2(pi theta).
Canonical variants "0" and "i" are therefore the uniform-charge forms at
d=1, dstar=2 with E = 2/beta (variant "0" at B=0), and are computed by them.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from typing import Callable, NamedTuple

import numpy as np

from .lattice import QuadratureError, omega2


class ComplexRootRegime(RuntimeError):
    """Alternating-charge cubic has complex roots (noise rate > 1)."""


# ---------------------------------------------------------------------------
# quadrature grids


def _frozen(*arrays) -> tuple:
    """The arrays, made read-only: cached results are shared by callers."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    return _frozen(*np.polynomial.legendre.leggauss(n))


@functools.lru_cache(maxsize=64)
def _axis_nodes(n: int, scale: float):
    """Gauss-Legendre nodes on [0, scale] graded as u^3, clustered at 0."""
    x, w = _gauss_legendre(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    theta = scale * u ** 3
    wt = wu * scale * 3 * u ** 2
    return _frozen(theta, wt)


@functools.lru_cache(maxsize=32)
def _tensor_grid(d: int, n: int):
    """Graded tensor grid on [0,1/2]^d with the 2^d symmetry factor folded in,
    and folded over permutations of the axes 2..d.

    Every integrand on it depends on theta^2..theta^d only through
    sum_a sin^2(pi theta^a), so only the points with theta^2 <= ... <=
    theta^d are kept, each weighted by its number of orderings,
    (d-1)!/prod(count!) over its runs of equal nodes: n C(n+d-2, d-1)
    points instead of n^d (133,120 instead of 262,144 at d=3, n=64).  For
    d <= 2 nothing folds and the grid is the full tensor grid.

    Returns (points of shape (m, d), weights of shape (m,)), theta^1 the
    outer index.
    """
    t1, w1 = _axis_nodes(n, 0.5)
    tail = np.array(list(itertools.combinations_with_replacement(
        range(n), d - 1)), dtype=np.intp)
    # prod(count!) over the runs of equal nodes in a (sorted) tail: the
    # product of every node's position within its run
    run = np.ones(len(tail))
    repeats = np.ones(len(tail))
    for a in range(1, d - 1):
        run = np.where(tail[:, a] == tail[:, a - 1], run + 1.0, 1.0)
        repeats *= run
    tail_w = math.factorial(d - 1) / repeats * np.prod(w1[tail], axis=1)
    pts = np.concatenate([np.repeat(t1, len(tail))[:, None],
                          np.tile(t1[tail], (n, 1))], axis=1)
    wts = np.outer(w1, tail_w).ravel()
    return _frozen(pts, wts * (2.0 ** d))


def _integrate_sym(fvec, d: int, n: int) -> float:
    """Integral over [0,1]^d of an integrand symmetric per axis about 1/2
    that sees theta^2..theta^d only through sum_a sin^2(pi theta^a)."""
    pts, wts = _tensor_grid(d, n)
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


def _uniform_arrays(om2: np.ndarray, b: float, gamma: float) -> dict:
    """Vectorized alpha/beta functions with cancellation-safe branches.

    Returns gw = gamma*omega2, a1, a2, b1, b2 and the decay rates
    z2 = gw + a2, z3 = gw - a2 (z3 computed in a subtraction-free form).
    Needs B != 0; at B=0 the modes are the free decay e^{-gw t}.
    """
    if b == 0.0:
        raise ValueError("B = 0 has no alpha/beta split: use the free decay")
    om2 = np.asarray(om2, dtype=float)
    gw = gamma * om2
    g2w4 = gw * gw
    D = b * b - g2w4 + 4.0 * om2
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


def _weight_micro(pts: np.ndarray, om2: np.ndarray) -> np.ndarray:
    """sin^2(2 pi theta^1)/omega2 at points (m, d), with the finite
    continuation at 0."""
    s = np.sin(2.0 * np.pi * pts[:, 0]) ** 2
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
    _check_args(b, gamma, lam, "lam")
    _check_dims(d, dstar, b)

    def val(nn):
        def f(pts):
            om2 = omega2(pts)
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


def _check_args(b: float, gamma: float, t, name: str = "t",
                zero_ok: bool = False):
    """Reject a field b that is not finite, a noise rate gamma that is not
    finite and > 0, and a time (or Laplace variable) that is not finite or
    is below its range; an array t is rejected if any of its elements is."""
    if not np.isfinite(b):
        raise ValueError(f"b must be finite, got {b}")
    if not 0.0 < gamma < np.inf:
        raise ValueError(f"gamma must be finite and > 0, got {gamma}")
    ts = np.asarray(t, dtype=float)
    bad = ~(((0.0 <= ts) if zero_ok else (0.0 < ts)) & (ts < np.inf))
    if bad.any():
        raise ValueError(f"{name} must be finite and "
                         f"{'>=' if zero_ok else '>'} 0, got {ts[bad][0]}")


def _check_dims(d: int, dstar: int = 2, b: float = 0.0):
    """Reject what ``LatticeSpec`` rejects: a d or dstar that is not an
    integer >= 1, and a field b != 0 with dstar < 2."""
    for name, v in (("d", d), ("dstar", dstar)):
        if not (isinstance(v, numbers.Integral) and v >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
    if b != 0.0 and dstar < 2:
        raise ValueError(f"dstar must be >= 2 when b != 0, got {dstar}")


def _check_variant(variant: str):
    if variant not in ("0", "i", "ii"):
        raise ValueError("variant must be '0', 'i' or 'ii'")


def laplace_canonical(lam: float, variant: str, b: float, gamma: float,
                      beta: float, n: int = 400,
                      tol: float | None = 1e-8) -> float:
    """Laplace transform of the canonical current autocorrelation."""
    _check_args(b, gamma, lam, "lam")
    _check_variant(variant)
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


# intervals of the grid on which _panel_nodes follows the phase, the phase
# one panel spans and its Gauss-Legendre nodes.  A 10-node rule over phi rad
# of a pure phase errs by about (phi/2)^20 (10!)^4 / (21 (20!)^3), 5e-27 at
# phi = pi: the values are limited by the rounding of the phase a1 t, not
# by the rule, so a panel spans pi.  (At 2 pi the rule's error shows.)
_COARSE = 128
_RAD_PER_PANEL = np.pi
_PER_PANEL = 10


def _panel_nodes(profile: tuple, t: float, hi: float):
    """Nodes/weights on [0, hi] with panel density following the phase,
    t times the phase rate ``profile`` interpolated on a coarse grid."""
    g = np.linspace(0.0, hi, _COARSE + 1)
    ph = np.interp(g, *profile) * t
    arc = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(ph)))])
    # add a uniform floor so flat-phase regions still get panels
    arc = arc + np.linspace(0.0, 16.0 * _RAD_PER_PANEL, _COARSE + 1)
    n_panels = max(16, int(arc[-1] / _RAD_PER_PANEL) + 1)
    levels = np.linspace(0.0, arc[-1], n_panels + 1)
    edges = np.interp(levels, arc, g)
    x, w = _gauss_legendre(_PER_PANEL)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return nodes, wts


def _damping_cutoff(gamma: float, t: float) -> float:
    """theta in [0, 1/2] above which exp(-gamma*omega2*t) is below e^-45,
    numerically zero."""
    if t <= 0:
        return 0.5
    s2 = 45.0 / (4.0 * gamma * t)
    if s2 >= 1.0:
        return 0.5
    return min(0.5, np.arcsin(np.sqrt(s2)) / np.pi)


# ---------------------------------------------------------------------------
# triangular-window time integral


# coefficients of sum_k x^k/(k+2)!, highest power first
_WINDOW_SERIES = 1.0 / np.array([math.factorial(k + 2)
                                 for k in range(13, -1, -1)], dtype=float)


def triangular_window_integral(z, T):
    """int_0^T (1 - t/T) e^{z t} dt (vectorized, z and T broadcast together);
    real for real z.

    It is T W(zT) with W(x) = int_0^1 (1 - u) e^{xu} du.  The closed form
    W(x) = -1/x - (1 - e^x)/x^2 is taken on the whole array, with e^x
    evaluated only where Re x > -746: below that it underflows to 0, and 0
    is what the mask leaves there.  The closed form cancels at small |x|
    (4e-14 relative at |x| = 0.1, 2e-15 at 0.5), so the points with
    |x| < 0.5 are overwritten by the series sum_k x^k/(k+2)!, summed in
    Horner form to k = 13.
    """
    z = np.asarray(z, dtype=np.result_type(z, float))
    x = z * np.asarray(T, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    ex = np.exp(x, out=np.zeros_like(x), where=x.real > -746.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = -1.0 / x - (1.0 - ex) / (x * x)
    small = np.abs(x) < 0.5
    if small.any():
        xs = x[small]
        y = np.zeros_like(xs)
        for c in _WINDOW_SERIES:
            y *= xs
            y += c
        w[small] = y
    out = T * w
    return out[0] if scalar else out


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


# ---------------------------------------------------------------------------
# term tables and the zone-integral assembly


class _Table(NamedTuple):
    """A charge's term table for one configuration (charge, d, B, gamma, n).

    ``c``/``z`` are the row arrays on the zone grid with weights ``wts``,
    real where the row does not oscillate; they do not depend on t and are
    read-only.  The first ``n_panel`` rows are split: the grid takes the
    part of the kernel without e^{zt}, and panels that follow the phase over
    [0, cut(t)] take the rest (a cut-off of 0 drops it).  ``panel`` maps
    panel nodes to those rows there; the panel weights are multiplied by
    ``fold``, the symmetry factor the grid weights carry.  ``profile`` is
    the phase rate sum_k |Im z_k| of the panel rows on a theta grid, built
    with the table and read-only: the phase at time t is t times its
    interpolant.
    """

    c: tuple
    z: tuple
    wts: np.ndarray
    n_panel: int = 0
    panel: Callable | None = None
    cut: Callable[[float], float] | None = None
    fold: float = 1.0
    profile: tuple = ()


def _phase_profile(panel: Callable, hi: float, refine: int) -> tuple:
    """(theta, sum_k |Im z_k(theta)|) of the panel rows on [0, hi], on a
    grid that holds every point of ``_panel_nodes``' coarse grid over
    [0, hi]: where the cut-off is hi the interpolant is exact there."""
    th = np.linspace(0.0, hi, refine * _COARSE + 1)
    return _frozen(th, sum(np.abs(zk.imag) for zk in panel(th)[1]))


def _uniform_rows(pts, b: float, gamma: float, panel: bool = False):
    """Uniform charge, weight w = sin^2(2 pi theta^1)/omega2:
    (w b1, -gw + i a1), (w b2, -z2), (w b2, -z3), (w, -gw), the last one the
    uncoupled components; ``panel`` keeps only the first.  At B=0 the
    coupled plane reduces to p/q = 1/(lam + gw), so the rows are the free
    decay (0, w/2, w/2, w), all at one z = -gw.
    """
    om2 = omega2(pts)
    w = _weight_micro(pts, om2)
    if b == 0.0:
        z = -gamma * om2
        half = 0.5 * w
        return [0.0 * w, half, half, w], [z, z, z, z]
    u = _uniform_arrays(om2, b, gamma)
    c, z = [w * u["b1"]], [-u["gw"] + 1j * u["a1"]]
    if not panel:
        wb2 = w * u["b2"]
        c += [wb2, wb2, w]
        z += [-u["z2"], -u["z3"], -u["gw"]]
    return c, z


# The tables are bounded caches: one d=3, n=64 entry holds about 10 MB.
@functools.lru_cache(maxsize=8)
def _uniform_table(d: int, b: float, gamma: float, n: int) -> _Table:
    pts, wts = _tensor_grid(d, n)
    c, z = _uniform_rows(pts, b, gamma)
    if d != 1 or b == 0.0:
        return _Table(_frozen(*c), _frozen(*z), wts)

    def panel(th):
        return _uniform_rows(th[:, None], b, gamma, panel=True)
    return _Table(_frozen(*c), _frozen(*z), wts, n_panel=1, panel=panel,
                  cut=lambda t: _damping_cutoff(gamma, t), fold=2.0,
                  profile=_phase_profile(panel, 0.5, 16))


def _alternate_rows(th, b: float, gamma: float, panel: bool = False):
    """Alternate charge on theta in [0, 1/4], from the partial fractions of
    R/S: (rU1_i + rU2_i/s_i, s_i - 2 gamma) for the two oscillating roots
    (s_i = i alpha_i, the conjugate row folded in), then
    ((rU1 +- rU2/s)/2, +-s - 2 gamma) for the real root, the growing
    exponent clipped at 0; ``panel`` keeps only the oscillating rows.  For
    gamma > 1 the roots are complex: six +-s rows for the three roots,
    clipped alike.
    """
    cx = gamma > 1.0
    _, s, rU1, rU2, _ = _alt_partial_fractions(th, b, gamma)
    g2 = 2 * _LD(gamma)
    osc = () if cx else (1, 2)
    c = [rU1[i] + rU2[i] / s[i] for i in osc]
    z = [s[i] - g2 for i in osc]
    for i in () if panel else ((0, 1, 2) if cx else (0,)):
        si = s[i] if cx else s[i].real
        for sign in (1, -1):
            zi = sign * si - g2
            c.append((rU1[i] + sign * rU2[i] / si) / 2)
            z.append(np.minimum(zi.real, 0) + (1j * zi.imag if cx else 0))

    def double(xs):
        return [x.astype(complex if np.iscomplexobj(x) else float)
                for x in xs]
    return double(c), double(z)


@functools.lru_cache(maxsize=8)
def _alternate_table(b: float, gamma: float, n: int) -> _Table:
    """For gamma > 1 a uniform midpoint grid and no panels."""
    if gamma > 1.0:
        m = 4 * n
        c, z = _alternate_rows((np.arange(m) + 0.5) / m * 0.25, b, gamma)
        wts, = _frozen(np.full(m, 0.25 / m))
        return _Table(_frozen(*c), _frozen(*z), wts)
    th, wts = _axis_nodes(n, 0.25)
    c, z = _alternate_rows(th, b, gamma)

    def panel(th):
        return _alternate_rows(th, b, gamma, panel=True)
    # the oscillating rows carry an exact e^{-2 gamma t}: once that
    # underflows their panel part is dropped.  The cut-off is 1/4 or 0, so
    # the profile needs only the coarse grid.
    return _Table(_frozen(*c), _frozen(*z), wts, n_panel=2, panel=panel,
                  cut=lambda t: 0.25 if 2.0 * gamma * t < 500.0 else 0.0,
                  profile=_phase_profile(panel, 0.25, 1))


# Kernels as (K(z, t), K without its e^{zt} part, the factor of e^{zt} in K).
_EXP = (lambda z, t: np.exp(z * t), lambda z, t: 0.0, lambda z, t: 1.0)
_WINDOW = (triangular_window_integral,
           lambda z, t: -1.0 / z - 1.0 / (z * z * t),
           lambda z, t: 1.0 / (z * z * t))


# values per row and block of times in ``_assemble``: bounds its temporaries
# for a long series (one d=3, n=64 grid column is 133,120 complex values);
# a panel row is budgeted _PANEL_NODES nodes per time (1,000-2,500 for
# t >~ 100)
_GRID_CHUNK = 1 << 17
_PANEL_NODES = 2048


def _assemble(table: _Table, kernel, t, weights=None) -> np.ndarray:
    """Zone integrals of Re c_k K(z_k) at the times t, flattened (a scalar
    is a series of one time): rows x times.

    The times go in blocks: the grid kernel is evaluated on grid x block,
    and the panel rows once on the panel nodes of the whole block.  A row
    whose entry in ``weights`` (the caller's weights of the rows, if given)
    is zero is left at 0 and its kernel is not evaluated.
    """
    full, smooth, tail = kernel
    split = table.n_panel
    t = np.asarray(t, dtype=float).ravel()
    out = np.zeros((len(table.c), len(t)))
    skip = np.zeros(len(out), bool) if weights is None else weights == 0.0
    step = max(1, _GRID_CHUNK // (len(table.wts) + _PANEL_NODES * split))
    for j in range(0, len(t), step):
        tj = t[j:j + step]
        kz = {}  # rows that share a z array share its kernel values
        for k, (ck, zk) in enumerate(zip(table.c, table.z)):
            if skip[k]:
                continue
            key = (id(zk), k < split)
            if key not in kz:
                kz[key] = (smooth if k < split else full)(zk[:, None], tj)
            out[k, j:j + step] = table.wts @ (ck[:, None] * kz[key]).real
        if split:
            out[:split, j:j + step] += _panel_sums(table, tail, tj)
    out[skip] = 0.0
    return out


def _panel_sums(table: _Table, tail, t: np.ndarray) -> np.ndarray:
    """The panel parts of a table's first ``n_panel`` rows at the times t:
    Re c_k tail(z_k) e^{z_k t} over [0, cut(t)], rows x times."""
    sums = np.zeros((table.n_panel, len(t)))
    nodes, wq, at = [], [], []
    for i, ti in enumerate(t):
        cut = table.cut(ti)
        if cut > 0.0:
            x, w = _panel_nodes(table.profile, ti, cut)
            nodes.append(x)
            wq.append(w)
            at.append(np.full(len(x), i))
    if not nodes:
        return sums
    at = np.concatenate(at)
    tn = t[at]
    c, z = table.panel(np.concatenate(nodes))
    wq = table.fold * np.concatenate(wq)
    for k in range(table.n_panel):
        vals = (c[k] * tail(z[k], tn) * np.exp(z[k] * tn)).real * wq
        sums[k] = np.bincount(at, vals, minlength=len(t))
    return sums


def _shaped(values: np.ndarray, t):
    """Values over the flattened t in the shape of t: a float for scalar t."""
    out = values.reshape(np.shape(t))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# closed forms


def c_components(t, d: int, b: float, gamma: float, n: int = 500):
    """The four theta-integral components of the correlation at time t.

    One per row of the uniform-charge table: c1 the oscillatory cos(a1 t)
    term, c2/c3 the exp(-z2 t), exp(-z3 t) pair, c4 the uncoupled-component
    term.  At B=0, c1 = 0 and c2 = c3 = c4/2.  Each has the shape of t (a
    scalar or an array of times).
    """
    _check_args(b, gamma, t, zero_ok=True)
    _check_dims(d)
    rows = _assemble(_uniform_table(d, b, gamma, n), _EXP, t)
    return tuple(_shaped(r, t) for r in rows)


def _uniform_weights(dstar: int) -> np.ndarray:
    """Weights of the uniform-charge rows in C/E^2 and in kappa."""
    return np.array([2.0, 2.0, 2.0, dstar - 2.0]) / dstar ** 2


def c_infty(t, d: int = 1, dstar: int = 2, b: float = 1.0,
            gamma: float = 1.0, e: float = 1.0, n: int = 500):
    """Infinite-volume current autocorrelation assembled from components;
    a float for scalar t, an array of t's shape for an array."""
    _check_args(b, gamma, t, zero_ok=True)
    _check_dims(d, dstar, b)
    wts = _uniform_weights(dstar)
    rows = _assemble(_uniform_table(d, b, gamma, n), _EXP, t, wts)
    return _shaped(e * e * (wts @ rows), t)


def d_closed(t, variant: str, b: float, gamma: float, beta: float,
             n: int = 500):
    """Closed-form canonical current autocorrelation at time t (a scalar or
    an array of times, as ``c_infty``)."""
    _check_args(b, gamma, t, zero_ok=True)
    _check_variant(variant)
    if variant != "ii" or b == 0.0:
        return c_infty(t, 1, 2, b if variant != "0" else 0.0, gamma,
                       2.0 / beta, n)
    rows = _assemble(_alternate_table(b, gamma, n), _EXP, t)
    return _shaped(rows.sum(axis=0) * 4.0 / beta ** 2, t)


def kappa_gk_closed(t, *, kind: str = "micro", d: int = 1,
                    dstar: int = 2, b: float = 1.0, gamma: float = 1.0,
                    variant: str = "i", n: int = 500):
    """Finite-time Green-Kubo integral assembled from closed forms.

    kind="micro": (1/E^2) int_0^t (1-s/t) C(s) ds + gamma/(2 dstar);
    kind="canonical": (beta^2/4) int (1-s/t) D(s) ds + gamma/4.
    Both are independent of E and beta.  All time integrals are done
    analytically per wavenumber (triangular window), so only the theta
    quadrature is numerical.  t is a scalar (the result is a float) or an
    array of times evaluated in one pass (the result has its shape).
    """
    _check_args(b, gamma, t)
    if kind not in ("micro", "canonical"):
        raise ValueError("kind must be 'micro' or 'canonical'")
    _check_dims(d, dstar, b)
    if kind == "canonical":
        _check_variant(variant)
        if (d, dstar) != (1, 2):
            raise ValueError(f"the canonical closed forms are for d=1, "
                             f"dstar=2, got d={d}, dstar={dstar}")
        if variant == "ii" and b != 0.0:  # as in d_closed
            if gamma > 1.0:
                raise ComplexRootRegime(
                    "gamma > 1: alternating-charge closed form is "
                    "experimental; use d_closed + numerical time "
                    "integration")
            rows = _assemble(_alternate_table(b, gamma, n), _WINDOW, t)
            return _shaped(rows.sum(axis=0) + gamma / 4.0, t)
        b = b if variant != "0" else 0.0
    wts = _uniform_weights(dstar)
    rows = _assemble(_uniform_table(d, b, gamma, n), _WINDOW, t, wts)
    return _shaped(wts @ rows + gamma / (2.0 * dstar), t)


# ---------------------------------------------------------------------------
# exponent fitting


def fit_exponent(times, values):
    """Least-squares slope of log(value) vs log(t); returns (slope, stderr).

    Centred sums; the standard error comes from the residuals,
    sqrt(sum r^2 / (n - 2) / sum (x - xbar)^2), which does not cancel when
    the fit is close to exact.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) < 8:
        raise ValueError("need at least 8 points to fit")
    if not np.all((times > 0) & (times < np.inf)):
        raise ValueError("times must be finite and > 0 for a log-log fit")
    if not np.all((values > 0) & (values < np.inf)):
        raise ValueError("values must be finite and > 0 for a log-log fit")
    x, y = np.log(times), np.log(values)
    x, y = x - x.mean(), y - y.mean()
    sxx = x @ x
    slope = (x @ y) / sxx
    resid = y - slope * x
    return float(slope), float(np.sqrt(resid @ resid / (len(x) - 2) / sxx))
