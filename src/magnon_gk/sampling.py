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

import numpy as np

from ._kernels import mode_coupling
from .lattice import LatticeSpec, PhaseState, SpecError

_SQRT2 = np.sqrt(2.0)


def _mode_classes(spec: LatticeSpec):
    """(pairs, selfs): flat indices of {xi,-xi} representatives, xi != 0.

    ``pairs`` are modes with xi != -xi (stored with their partner index);
    ``selfs`` are the self-conjugate modes (2 xi = 0 mod N, xi != 0).
    """
    n, d, ns = spec.n, spec.d, spec.nsites
    idx = np.arange(ns)
    coords = np.stack(np.unravel_index(idx, (n,) * d), axis=-1)
    neg = np.ravel_multi_index(np.moveaxis((-coords) % n, -1, 0), (n,) * d)
    pairs = idx[(idx < neg)]
    selfs = idx[(idx == neg) & (idx != 0)]
    return pairs, neg[pairs], selfs


def _omega_n(spec: LatticeSpec) -> np.ndarray:
    """omega(theta) at each lattice wavenumber (flat, row-major); 0 at xi=0."""
    return np.sqrt(mode_coupling(spec)[1])


def sphere_dimension(spec: LatticeSpec) -> int:
    return 2 * spec.dstar * (spec.nsites - 1)


def sample_microcanonical(spec: LatticeSpec, e: float,
                          rng: np.random.Generator) -> PhaseState:
    """One exact draw from the energy-per-site-E microcanonical measure."""
    if spec.coords != "position":
        raise SpecError("microcanonical sampling requires position coords")
    if e <= 0:
        raise SpecError("e must be > 0")
    ns, ds, n, d = spec.nsites, spec.dstar, spec.n, spec.d
    pairs, partners, selfs = _mode_classes(spec)
    m = sphere_dimension(spec)
    g = rng.standard_normal(m)
    g *= np.sqrt(ns * e) / np.linalg.norm(g)

    omega = _omega_n(spec)
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


def sample_canonical(spec: LatticeSpec, beta: float, tau=(0.0, 0.0),
                     rng: np.random.Generator | None = None) -> PhaseState:
    """i.i.d. Gaussian draw from the (possibly tilted) canonical measure."""
    if spec.coords != "deformation":
        raise SpecError("canonical sampling requires deformation coords")
    if beta <= 0:
        raise SpecError("beta must be > 0")
    if rng is None:
        raise SpecError("rng is required")
    ns, ds = spec.nsites, spec.dstar
    sd = 1.0 / np.sqrt(beta)
    pos = rng.normal(0.0, sd, size=(ds, ns))
    for j in range(min(ds, len(tau))):
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
    ns, ds, n, d = spec.nsites, spec.dstar, spec.n, spec.d
    pairs, _, selfs = _mode_classes(spec)
    omega = _omega_n(spec)
    coords = np.stack(np.unravel_index(np.arange(ns), (n,) * d), axis=-1)
    x = np.atleast_1d(np.asarray(x)) % n
    phase = 2 * np.pi * (coords @ x) / n  # 2 pi xi . x / N
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
    n, d, ns = spec.n, spec.d, spec.nsites
    coords = np.stack(np.unravel_index(np.arange(ns), (n,) * d), axis=-1)
    x = np.atleast_1d(np.asarray(x))
    num = (np.sin(2 * np.pi * (coords @ x) / n)
           * np.sin(2 * np.pi * coords[:, 0] / n))
    den = np.sum(np.sin(np.pi * coords / n) ** 2, axis=1)
    total = np.sum(num[1:] / den[1:])
    return float(e * e / spec.dstar ** 2 / ns * total)


def ensemble_checks(spec: LatticeSpec, e: float, samples: int,
                    rng: np.random.Generator, x=None) -> dict:
    """Monte Carlo estimates of the ensemble facts vs their exact values."""
    if x is None:
        x = np.zeros(spec.d, dtype=int)
        x[0] = 1
    from .lattice import site_index
    ix = site_index(spec, x)
    imx = site_index(spec, -np.atleast_1d(np.asarray(x)))
    e1 = np.zeros(spec.d, dtype=int)
    e1[0] = 1
    ie, ime = site_index(spec, e1), site_index(spec, -e1)
    acc = np.zeros((samples, 4))
    for k in range(samples):
        s = sample_microcanonical(spec, e, rng)
        v0 = s.vel[0, 0]
        acc[k, 0] = v0 * v0
        acc[k, 1] = v0 ** 4
        acc[k, 2] = v0 * v0 * s.vel[0, ix] ** 2
        acc[k, 3] = ((s.pos[0, ix] - s.pos[0, imx])
                     * (s.pos[0, ie] - s.pos[0, ime]) * v0 * v0)
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
