"""Per-mode flow between noise events, and the hot loop for long chains.

For a translation-invariant charge each Fourier mode (F, W) of a position
and velocity component follows a two-by-two linear flow, F' = g W,
W' = h F + m W with g h = -omega^2.  The circular polarization a = f1 + i f2
of the charged plane closes on itself with m = -iB; every other component
has m = 0.  For real fields the mirror polarization f1 - i f2 is
conj(a(-k)), so it is never evolved: ifft(a) is f1 + i f2 itself.  The
roots s± = -iB/2 ± iΩ are imaginary, so in eigen-amplitudes in the frame
rotating with e^{-iBt/2} advancing by dt multiplies them by e^{±iΩdt}: one
complex exp per mode.  ``eigen_tables`` builds that basis; ``FourierBlock``
in ``dynamics`` and the chain loop below both run on it.

``run_loop`` evolves a chain (d=1, dstar=2) through its exchange events: an
exchange is an O(N) rank-one update of the velocity modes, with no FFT
inside the loop, and the instantaneous total energy current is recorded on a
fixed output grid.
"""

from __future__ import annotations

import cmath
from functools import lru_cache

import numpy as np

# Read by the benchmark's environment record; there is no compiled loop.
HAVE_NUMBA = False


def mode_coupling(spec):
    """(g, omega^2) per Fourier mode, flat in row-major order.

    Position coords: g = 1 and h = -omega^2 with
    omega^2 = sum_a 4 sin^2(pi xi_a / N).  Deformation coords (d=1):
    g = e^{i phi} - 1 and h = 1 - e^{-i phi} with phi = 2 pi xi / N.
    """
    n = spec.n
    axes = np.meshgrid(*([np.arange(n) / n] * spec.d), indexing="ij")
    om2 = sum(4.0 * np.sin(np.pi * a) ** 2 for a in axes).ravel()
    if spec.coords == "position":
        g = np.ones(spec.nsites, dtype=complex)
    else:
        g = np.exp(2j * np.pi * axes[0]) - 1.0
    return g, om2


def eigen_tables(g, om2, b):
    """Eigen-amplitude basis of the per-mode flow at field b (m = -ib).

    Returns a dict of arrays: ``iom`` (iΩ per mode), ``V`` and ``Vinv``
    (shape (2, 2) + g.shape: columns of V are the eigenvectors (F, W) of
    the roots s± = -ib/2 ± iΩ, W-component 1 for a nonzero root) and
    ``shear`` (g on the modes with a double root, else 0).  Physical
    (F, W) at time t are e^{-ibt/2} V (c+ e^{iΩt}, c- e^{-iΩt}), plus the
    Jordan shear F += t g W on a double-root mode, whose basis is the
    identity.
    """
    om = np.hypot(0.5 * b, np.sqrt(om2))  # exactly |b|/2 where om2 = 0
    V = np.empty((2, 2) + om.shape, dtype=complex)
    for c, s in enumerate((1j * (om - 0.5 * b), -1j * (om + 0.5 * b))):
        # eigenvector (g/s, 1); a zero root (only where h=0) has (1, 0)
        zero = s == 0
        V[0, c] = np.where(zero, 1.0, g / np.where(zero, 1.0, s))
        V[1, c] = ~zero
    # b=0, omega=0: double root 0, kept as the identity basis
    deg = om == 0
    V[:, :, deg] = np.eye(2)[:, :, None]
    det = V[0, 0] * V[1, 1] - V[0, 1] * V[1, 0]
    Vinv = np.array([[V[1, 1], -V[0, 1]], [-V[1, 0], V[0, 0]]]) / det
    return {"iom": 1j * om, "V": V, "Vinv": Vinv,
            "shear": np.where(deg, g, 0.0)}


@lru_cache(maxsize=8)
def mode_tables(spec):
    """Read-only tables of the chain loop, cached per spec.

    The ``eigen_tables`` of the a polarization, plus the bond-difference
    table ``dphase[x, k] = e^{2πi(x+1)k/N} - e^{2πixk/N}``, the output
    weights ``wgt`` of the total current and the field ``b``.
    """
    if spec.d != 1 or spec.dstar != 2 or spec.charge == "alternate":
        raise ValueError("fast kernel requires d=1, dstar=2, "
                         "translation-invariant charge")
    n = spec.n
    k = np.arange(n)
    phi = 2.0 * np.pi * k / n
    if spec.coords == "position":
        wgt = -0.5j * np.sin(phi) / n
    else:
        wgt = -(1.0 + np.exp(-1j * phi)) / (4.0 * n)
    b = spec.b if spec.charge == "uniform" else 0.0
    dphase = np.exp((2j * np.pi / n) * ((k[:, None] * k) % n))
    dphase *= dphase[1] - 1.0   # e^{2πixk/N} (e^{2πik/N} - 1)
    tables = eigen_tables(*mode_coupling(spec), b)
    tables.update(dphase=dphase, wgt=wgt, b=np.float64(b))
    for v in tables.values():
        v.setflags(write=False)
    return tables


def state_to_polarized(state):
    """Fourier amplitudes (aF, aW) of the a polarization f1 + i f2."""
    return (np.fft.fft(state.pos[0] + 1j * state.pos[1]),
            np.fft.fft(state.vel[0] + 1j * state.vel[1]))


def polarized_to_state(spec, aF, aW, time=0.0):
    from .lattice import PhaseState
    pos, vel = np.fft.ifft(aF), np.fft.ifft(aW)
    return PhaseState(spec, np.stack([pos.real, pos.imag]),
                      np.stack([vel.real, vel.imag]), time)


def run_loop(aF, aW, bF, bW, ev_times, triples, t_end, dt_out, n_out,
             tables):
    """Evolve the polarized chain state (aF, aW) through the exchange events
    up to the last output time (n_out - 1) * dt_out <= t_end; mutates
    nothing.

    ``bF``, ``bW`` and ``t_end`` are not read; they keep their positions
    because the benchmark's tracer reads arguments 0, 4 and 8 by position.
    Returns ((aF, aW) at the last output time, current series on the grid
    o * dt_out).
    """
    V, iom, D, wgt = tables["V"], tables["iom"], tables["dphase"], \
        tables["wgt"]
    kap = tables["Vinv"][:, 1]          # amplitude kick per unit W kick
    half_b = -0.5j * float(tables["b"])
    n = aF.shape[0]
    amp = (tables["Vinv"] * np.stack([aF, aW])).sum(axis=1)
    fac = np.empty_like(amp)
    kick = np.empty_like(amp)
    out = np.empty(n_out)
    t_stop = (n_out - 1) * dt_out
    t = 0.0

    def advance(dt):
        np.multiply(iom, dt, out=fac[0])
        np.exp(fac[0], out=fac[0])
        np.conjugate(fac[0], out=fac[1])
        np.multiply(amp, fac, out=amp)

    def record(o):
        F, W = (V * amp).sum(axis=1)
        out[o] = 2.0 * np.vdot(W, wgt * F).real

    o = 0
    for t_ev, trip in zip(ev_times.tolist(), triples.tolist()):
        if t_ev > t_stop:
            break
        while o * dt_out <= t_ev:
            advance(o * dt_out - t)
            t = o * dt_out
            record(o)
            o += 1
        advance(t_ev - t)
        t = t_ev
        # Exchange of velocity component j across the bond (x, x+1).  With
        # v0 + i v1 = ifft(W), c = (v0 + i v1)(x+1) - (v0 + i v1)(x); the
        # swap moves delta = Re c (or i Im c) from site x+1 to site x, so W
        # gains -delta * conj(dphase[x]) = delta * dphase[N-1-x].  W is
        # amp[0] + amp[1] except at k=0, where dphase vanishes.
        j, x = divmod(trip, n)
        rot = cmath.exp(half_b * t)     # physical W = rot * stored W
        w0, w1 = (amp @ D[x]).tolist()
        c = rot * (w0 + w1) / n
        coef = (c.real if j == 0 else 1j * c.imag) / rot
        np.multiply(kap, D[n - 1 - x], out=kick)
        kick *= coef
        amp += kick
    while o < n_out:
        advance(o * dt_out - t)
        t = o * dt_out
        record(o)
        o += 1
    F, W = cmath.exp(half_b * t) * (V * amp).sum(axis=1)
    # A double-root mode (k=0 at B=0) sat still in the identity basis:
    # exchanges never touch it and it carries no current when g != 0, so
    # the shear F += t g W of its Jordan flow is applied once, here.
    F += t * tables["shear"] * W
    return (F, W), out
