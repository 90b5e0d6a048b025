"""Exact sampling from the microcanonical and canonical equilibrium measures.

The microcanonical measure is uniform on the energy sphere.  In the rescaled
Fourier coordinates

    q~(xi) = omega^N(xi) qhat(xi),   v~(xi) = N^{-d/2} vhat(xi),
    omega^N(xi) = 2 N^{-d/2} sqrt(sum_a sin^2(pi xi^a / N)),

the total energy is half the squared Euclidean norm over the nonzero modes, so
the real and imaginary parts over one representative of each {xi, -xi} class
(self-conjugate modes scaled by 1/sqrt(2)) are uniform on the sphere of radius
sqrt(N^d E) in dimension 2 dstar (N^d - 1).  Sampling is a normalized Gaussian
draw in those coordinates followed by an inverse DFT.  One array code path,
``_sphere_states``, maps a block of S Gaussian rows to S states with one
inverse FFT over the lattice axes; a single draw is the block S = 1.

Closed-form sphere moments make every ensemble fact exactly checkable at
finite N; ``ensemble_checks`` compares Monte Carlo estimates against them.
It draws its samples in blocks of at most ``_CHUNK`` sphere coordinates, so
its memory does not grow with the sample count beyond four moments per
sample, and the blocks are bitwise the states that one draw at a time from
the same generator gives.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .lattice import (LatticeSpec, PhaseState, SpecError, omega2,
                      site_coords, site_index)

_SQRT2 = np.sqrt(2.0)
_CHUNK = 1 << 14   # sphere coordinates per block of ensemble_checks' draws


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


def _check_micro(spec: LatticeSpec, e: float) -> None:
    if spec.coords != "position":
        raise SpecError("microcanonical sampling requires position coords")
    if not 0 < e < np.inf:
        raise SpecError(f"e must be finite and > 0, got {e}")


def _sphere_states(spec: LatticeSpec, e: float, g: np.ndarray):
    """(pos, vel), each of shape (S, dstar, N^d): the phase points that the
    rows of the standard normals ``g`` (shape (S, m)) map to.

    Each row is scaled in place to the sphere of radius sqrt(N^d E) and read
    in the layout of ``_coefficient_vector``; one inverse FFT over the
    lattice axes then forms every sample and component at once.  Row by row
    this is the arithmetic of a single draw, so a block of rows gives
    bitwise the states of drawing them one at a time.
    """
    ns, ds, n, d = spec.nsites, spec.dstar, spec.n, spec.d
    pairs, partners, selfs, omega = _mode_tables(spec)
    s, npair = len(g), len(pairs)
    # vecdot is the same dot product as np.linalg.norm of one row
    g *= (np.sqrt(ns * e) / np.sqrt(np.vecdot(g, g)))[:, None]
    blk = g.reshape(s, ds, -1)
    pair = blk[..., :4 * npair].reshape(s, ds, 2, 2, npair)  # q|v, re|im
    tilde = np.zeros((s, ds, 2, ns), dtype=complex)          # q~ | v~
    tilde[..., pairs] = pair[..., 0, :] + 1j * pair[..., 1, :]
    tilde[..., partners] = np.conj(tilde[..., pairs])
    tilde[..., selfs] = _SQRT2 * blk[..., 4 * npair:].reshape(s, ds, 2, -1)
    # undo the rescaling: qhat = N^{d/2} q~ / omega, vhat = N^{d/2} v~
    hat = np.sqrt(ns) * tilde
    nz = omega > 0
    hat[..., 0, nz] /= omega[nz]
    x = np.fft.ifftn(hat.reshape((s, ds, 2) + (n,) * d),
                     axes=range(3, 3 + d)).real.reshape(s, ds, 2, ns)
    return x[:, :, 0], x[:, :, 1]


def sample_microcanonical(spec: LatticeSpec, e: float,
                          rng: np.random.Generator) -> PhaseState:
    """One exact draw from the energy-per-site-E microcanonical measure."""
    _check_micro(spec, e)
    pos, vel = _sphere_states(
        spec, e, rng.standard_normal(sphere_dimension(spec))[None])
    return PhaseState(spec, pos[0].copy(), vel[0].copy())


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
    at the site x = e_1.

    The samples are drawn in blocks of at most ``_CHUNK`` sphere coordinates
    (one sample, if it is larger), bitwise the states of ``samples`` calls
    of ``sample_microcanonical`` on the same generator; only the four moment
    columns are kept per sample.
    """
    _check_micro(spec, e)
    if samples < 2:
        raise SpecError(f"samples must be at least 2, got {samples}")
    x = np.zeros(spec.d, dtype=int)
    x[0] = 1
    ix, imx = site_index(spec, x), site_index(spec, -x)
    m = sphere_dimension(spec)
    step = max(1, _CHUNK // m)
    acc = np.empty((samples, 4))
    for k0 in range(0, samples, step):
        k1 = min(k0 + step, samples)
        pos, vel = _sphere_states(spec, e,
                                  rng.standard_normal((k1 - k0, m)))
        v0 = vel[:, 0, 0]
        dq = pos[:, 0, ix] - pos[:, 0, imx]
        acc[k0:k1, 0] = v0 * v0
        # scalar pow, as one draw at a time takes it: numpy's vector pow
        # can differ from it in the last bit
        acc[k0:k1, 1] = [v ** 4 for v in v0.tolist()]
        acc[k0:k1, 2] = v0 * v0 * vel[:, 0, ix] ** 2
        acc[k0:k1, 3] = dq * dq * v0 * v0
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
