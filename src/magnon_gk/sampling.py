"""Exact sampling from the microcanonical and canonical equilibrium measures.

The microcanonical measure is uniform on the energy sphere.  In the rescaled
Fourier coordinates

    q~(xi) = omega^N(xi) qhat(xi),   v~(xi) = N^{-d/2} vhat(xi),
    omega^N(xi) = 2 N^{-d/2} sqrt(sum_a sin^2(pi xi^a / N)),

the total energy is half the squared Euclidean norm over the nonzero modes, so
the real and imaginary parts over one representative of each {xi, -xi} class
(self-conjugate modes scaled by 1/sqrt(2)) are uniform on the sphere of radius
sqrt(N^d E) in dimension 2 dstar (N^d - 1).  Sampling is a normalized Gaussian
draw in those coordinates followed by an inverse DFT.

Closed-form sphere moments make every ensemble fact exactly checkable at
finite N; ``ensemble_checks`` compares Monte Carlo estimates against them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .lattice import (LatticeSpec, PhaseState, SpecError, omega2,
                      site_coords, site_index)

_SQRT2 = np.sqrt(2.0)


@lru_cache(maxsize=64)
def _mode_tables(spec: LatticeSpec):
    """(pairs, partners, selfs, omega) of the spec's lattice, cached and
    read-only.

    ``pairs`` are the flat indices of the {xi,-xi} representatives with
    xi != -xi, ``partners`` their -xi; ``selfs`` are the self-conjugate modes
    (2 xi = 0 mod N, xi != 0).  ``omega`` is omega(theta) at each lattice
    wavenumber (flat, row-major), 0 at xi = 0.
    """
    n, coords = spec.n, site_coords(spec)
    idx = np.arange(spec.nsites)
    neg = np.ravel_multi_index(np.moveaxis(-coords % n, -1, 0),
                               (n,) * spec.d)
    pairs = idx[(idx < neg)]
    tables = (pairs, neg[pairs], idx[(idx == neg) & (idx != 0)],
              np.sqrt(omega2(coords / n)))
    for a in tables:
        a.setflags(write=False)
    return tables


def sphere_dimension(spec: LatticeSpec) -> int:
    return 2 * spec.dstar * (spec.nsites - 1)


def sample_microcanonical(spec: LatticeSpec, e: float,
                          rng: np.random.Generator) -> PhaseState:
    """One exact draw from the energy-per-site-E microcanonical measure."""
    if spec.coords != "position":
        raise SpecError("microcanonical sampling requires position coords")
    if not 0 < e < np.inf:
        raise SpecError(f"e must be finite and > 0, got {e}")
    ns, ds, n, d = spec.nsites, spec.dstar, spec.n, spec.d
    pairs, partners, selfs, omega = _mode_tables(spec)
    m = sphere_dimension(spec)
    g = rng.standard_normal(m)
    g *= np.sqrt(ns * e) / np.linalg.norm(g)

    pos = np.empty((ds, ns))
    vel = np.empty((ds, ns))
    per = 4 * len(pairs) + 2 * len(selfs)
    for j in range(ds):
        block = g[j * per:(j + 1) * per]
        npair = len(pairs)
        qt = np.zeros(ns, dtype=complex)
        vt = np.zeros(ns, dtype=complex)
        qt[pairs] = block[0:npair] + 1j * block[npair:2 * npair]
        vt[pairs] = block[2 * npair:3 * npair] + 1j * block[3 * npair:4 * npair]
        qt[partners] = np.conj(qt[pairs])
        vt[partners] = np.conj(vt[pairs])
        rest = block[4 * npair:]
        qt[selfs] = _SQRT2 * rest[:len(selfs)]
        vt[selfs] = _SQRT2 * rest[len(selfs):]
        # undo the rescaling: qhat = N^{d/2} q~ / omega, vhat = N^{d/2} v~
        qhat = np.zeros(ns, dtype=complex)
        nz = omega > 0
        qhat[nz] = np.sqrt(ns) * qt[nz] / omega[nz]
        vhat = np.sqrt(ns) * vt
        pos[j] = np.fft.ifftn(qhat.reshape((n,) * d)).real.ravel()
        vel[j] = np.fft.ifftn(vhat.reshape((n,) * d)).real.ravel()
    return PhaseState(spec, pos, vel)


def sample_canonical(spec: LatticeSpec, beta: float, tau=None,
                     rng: np.random.Generator | None = None) -> PhaseState:
    """i.i.d. Gaussian draw from the (possibly tilted) canonical measure.

    ``tau`` is the tilt, a sequence of dstar finite numbers by which the
    deformations of each component are shifted down; zero by default.
    """
    if spec.coords != "deformation":
        raise SpecError("canonical sampling requires deformation coords")
    if not 0 < beta < np.inf:
        raise SpecError(f"beta must be finite and > 0, got {beta}")
    if rng is None:
        raise SpecError("rng is required")
    ns, ds = spec.nsites, spec.dstar
    tau = [0.0] * ds if tau is None else tau
    try:
        ok = (not isinstance(tau, str) and len(tau) == ds and all(
            isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, bool) and np.isfinite(float(v))
            for v in tau))
    except (TypeError, OverflowError):   # no length, or an int past float
        ok = False
    if not ok:
        raise SpecError(f"tau must be a sequence of {ds} finite numbers, "
                        f"got {tau!r}")
    sd = 1.0 / np.sqrt(beta)
    pos = rng.normal(0.0, sd, size=(ds, ns))
    for j in range(ds):
        pos[j] -= tau[j]
    vel = rng.normal(0.0, sd, size=(ds, ns))
    return PhaseState(spec, pos, vel)


# ---------------------------------------------------------------------------
# exact sphere moments

def _sphere_pair(a: np.ndarray, b: np.ndarray, r2: float, m: int) -> float:
    """E[(a.x)(b.x)] under the uniform measure on the radius-sqrt(r2) sphere."""
    return float(r2 / m * (a @ b))


def _sphere_quartic(a, b, c, d, r2: float, m: int) -> float:
    """E[(a.x)(b.x)(c.x)(d.x)] on the sphere (isotropy + exchangeability)."""
    coef = r2 * r2 / (m * (m + 2))
    return float(coef * ((a @ b) * (c @ d) + (a @ c) * (b @ d)
                         + (a @ d) * (b @ c)))


def _coefficient_vector(spec: LatticeSpec, kind: str, j: int,
                        x) -> np.ndarray:
    """Sphere-coordinate coefficients of q_x^j or v_x^j.

    The field value is a linear form in the sphere coordinates; this returns
    its coefficient vector in the same layout the sampler consumes.
    """
    ns, ds, n = spec.nsites, spec.dstar, spec.n
    pairs, _, selfs, omega = _mode_tables(spec)
    x = np.atleast_1d(np.asarray(x)) % n
    phase = 2 * np.pi * (site_coords(spec) @ x) / n  # 2 pi xi . x / N
    npair, nself = len(pairs), len(selfs)
    per = 4 * npair + 2 * nself
    out = np.zeros(ds * per)
    blk = np.zeros(per)
    wp = np.ones(npair)
    ws = np.ones(nself)
    if kind == "q":
        wp = 1.0 / omega[pairs]
        ws = 1.0 / omega[selfs]
    # f_x = N^{-d/2} sum_xi f~(xi) e^{i phase(xi)} with conjugate symmetry:
    # each pair contributes 2(Re cos - Im sin); self-conj modes are real with
    # the sqrt(2) coordinate scaling.
    scale = 1.0 / np.sqrt(ns)
    re = slice(0, npair) if kind == "q" else slice(2 * npair, 3 * npair)
    im = slice(npair, 2 * npair) if kind == "q" else slice(3 * npair,
                                                           4 * npair)
    blk[re] = scale * 2.0 * np.cos(phase[pairs]) * wp
    blk[im] = -scale * 2.0 * np.sin(phase[pairs]) * wp
    base = 4 * npair if kind == "q" else 4 * npair + nself
    blk[base:base + nself] = scale * _SQRT2 * np.cos(phase[selfs]) * ws
    out[j * per:(j + 1) * per] = blk
    return out


def microcanonical_moments(spec: LatticeSpec, e: float, x=None) -> dict:
    """Exact finite-N values of the equivalence-of-ensembles quantities.

    Returns E[(v_0^j)^2], E[(v_0^j)^4], E[(v_0^j)^2 (v_x^j)^2] and
    E[(q_x^j - q_{-x}^j)(q_{e1}^j - q_{-e1}^j)(v_0^j)^2] for component j=1
    and the given site x (default e_1).
    """
    if x is None:
        x = np.zeros(spec.d, dtype=int)
        x[0] = 1
    m = sphere_dimension(spec)
    r2 = spec.nsites * e
    v0 = _coefficient_vector(spec, "v", 0, np.zeros(spec.d, dtype=int))
    vx = _coefficient_vector(spec, "v", 0, x)
    qx = _coefficient_vector(spec, "q", 0, x)
    qmx = _coefficient_vector(spec, "q", 0, -np.atleast_1d(np.asarray(x)))
    e1 = np.zeros(spec.d, dtype=int)
    e1[0] = 1
    qe = _coefficient_vector(spec, "q", 0, e1)
    qme = _coefficient_vector(spec, "q", 0, -e1)
    return {
        "v2": _sphere_pair(v0, v0, r2, m),
        "v4": _sphere_quartic(v0, v0, v0, v0, r2, m),
        "v2v2": _sphere_quartic(v0, v0, vx, vx, r2, m),
        "qqvv": _sphere_quartic(qx - qmx, qe - qme, v0, v0, r2, m),
    }


def lemma_fourier_sum(spec: LatticeSpec, e: float, x) -> float:
    """Asymptotic form of the qqvv moment: the explicit wavenumber sum."""
    n, ns = spec.n, spec.nsites
    coords = site_coords(spec)
    x = np.atleast_1d(np.asarray(x))
    num = (np.sin(2 * np.pi * (coords @ x) / n)
           * np.sin(2 * np.pi * coords[:, 0] / n))
    om2 = omega2(coords / n)
    total = 4.0 * np.sum(num[1:] / om2[1:])
    return float(e * e / spec.dstar ** 2 / ns * total)


def ensemble_checks(spec: LatticeSpec, e: float, samples: int,
                    rng: np.random.Generator) -> dict:
    """Monte Carlo estimates of the ensemble facts vs their exact values,
    at the site x = e_1."""
    x = np.zeros(spec.d, dtype=int)
    x[0] = 1
    ix, imx = site_index(spec, x), site_index(spec, -x)
    acc = np.zeros((samples, 4))
    for k in range(samples):
        s = sample_microcanonical(spec, e, rng)
        v0 = s.vel[0, 0]
        acc[k, 0] = v0 * v0
        acc[k, 1] = v0 ** 4
        acc[k, 2] = v0 * v0 * s.vel[0, ix] ** 2
        dq = s.pos[0, ix] - s.pos[0, imx]
        acc[k, 3] = dq * dq * v0 * v0
    exact = microcanonical_moments(spec, e, x)
    keys = ("v2", "v4", "v2v2", "qqvv")
    report = {"n": spec.n, "samples": samples}
    ok = True
    for i, key in enumerate(keys):
        mean = acc[:, i].mean()
        se = acc[:, i].std(ddof=1) / np.sqrt(samples)
        within = abs(mean - exact[key]) <= 3.0 * se + 1e-12
        ok = ok and within
        report[key] = {"mc": mean, "stderr": se, "exact": exact[key],
                       "pass": bool(within)}
    report["qqvv_fourier_sum"] = lemma_fourier_sum(spec, e, x)
    report["pass"] = ok
    return report
