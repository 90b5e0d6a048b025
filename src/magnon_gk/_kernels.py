"""Hot loop for long chain trajectories (d=1, dstar=2).

The state lives in Fourier space in circularly polarized form, a = f1 + i f2
(field term -iB).  For real fields the other polarization is its mirror
image, b(k) = conj(a(-k)), so only a is evolved.  Per mode, (aF, aW) obeys a
two-by-two linear flow whose roots s± = -iB/2 ± iΩ are imaginary; the loop
stores the two eigen-amplitudes in the frame rotating with e^{-iBt/2}, so
advancing by dt multiplies them by e^{±iΩdt}: one complex exp per mode.  An
exchange event is an O(N) rank-one update of the velocity modes, with no FFT
inside the loop.  The loop records the instantaneous total energy current on
a fixed output grid.
"""

from __future__ import annotations

import cmath

import numpy as np

# Read by the benchmark's environment record; there is no compiled loop.
HAVE_NUMBA = False


def mode_tables(spec):
    """Per-mode constants of the eigen-amplitude evolution.

    Returns a dict of arrays: ``iom`` (iΩ per mode), ``V`` and ``Vinv``
    (shape (2, 2, N): columns of V are the eigenvectors (F, W) of the two
    roots, W-component 1 for k != 0), ``shear`` (g on the modes with a
    double root, else 0), the bond-difference table ``dphase[x, k] =
    e^{2πi(x+1)k/N} - e^{2πixk/N}``, the output weights ``wgt`` of the
    total current and the field ``b``.
    """
    if spec.d != 1 or spec.dstar != 2 or spec.charge == "alternate":
        raise ValueError("fast kernel requires d=1, dstar=2, "
                         "translation-invariant charge")
    n = spec.n
    k = np.arange(n)
    phi = 2.0 * np.pi * k / n
    lam = 4.0 * np.sin(0.5 * phi) ** 2   # -g h in both coordinate systems
    if spec.coords == "position":
        g = np.ones(n, dtype=complex)
        wgt = -0.5j * np.sin(phi) / n
    else:
        g = np.exp(1j * phi) - 1.0
        wgt = -(1.0 + np.exp(-1j * phi)) / (4.0 * n)
    b = spec.b if spec.charge == "uniform" else 0.0
    om = np.hypot(0.5 * b, np.sqrt(lam))  # exactly |B|/2 at k=0
    V = np.empty((2, 2, n), dtype=complex)
    for c, s in enumerate((1j * (om - 0.5 * b), -1j * (om + 0.5 * b))):
        # eigenvector (g/s, 1); a zero root (k=0 only, where h=0) has (1, 0)
        zero = s == 0
        V[0, c] = np.where(zero, 1.0, g / np.where(zero, 1.0, s))
        V[1, c] = ~zero
    # B=0, k=0: double root 0, kept as the identity basis (see run_loop)
    deg = om == 0
    V[:, :, deg] = np.eye(2)[:, :, None]
    det = V[0, 0] * V[1, 1] - V[0, 1] * V[1, 0]
    Vinv = np.array([[V[1, 1], -V[0, 1]], [-V[1, 0], V[0, 0]]]) / det
    dphase = np.exp((2j * np.pi / n) * ((k[:, None] * k) % n))
    dphase *= dphase[1] - 1.0   # e^{2πixk/N} (e^{2πik/N} - 1)
    return {"iom": 1j * om, "V": V, "Vinv": Vinv,
            "shear": np.where(deg, g, 0.0), "dphase": dphase, "wgt": wgt,
            "b": np.float64(b)}


def state_to_polarized(spec, state):
    F = np.fft.fft(state.pos, axis=1)
    W = np.fft.fft(state.vel, axis=1)
    return (F[0] + 1j * F[1], W[0] + 1j * W[1],
            F[0] - 1j * F[1], W[0] - 1j * W[1])


def polarized_to_state(spec, aF, aW, bF, bW, time=0.0):
    from .lattice import PhaseState
    pos = np.stack([np.fft.ifft(0.5 * (aF + bF)).real,
                    np.fft.ifft((aF - bF) / 2j).real])
    vel = np.stack([np.fft.ifft(0.5 * (aW + bW)).real,
                    np.fft.ifft((aW - bW) / 2j).real])
    return PhaseState(spec, pos, vel, time)


def _mirror(z):
    """k -> conj(z(-k)): the b polarization of a real field from its a."""
    return np.conj(np.roll(z[::-1], 1))


def run_loop(aF, aW, bF, bW, ev_times, triples, t_end, dt_out, n_out,
             tables):
    """Evolve the polarized chain state through the exchange events up to
    the last output time (n_out - 1) * dt_out <= t_end; mutates nothing.

    Only (aF, aW) is read: bF and bW must be its mirror images (real
    fields) and are rebuilt from the final a.  ``t_end`` is not read; it
    stays in the signature because perfbench/tracer.py reads the arguments
    by position.  Returns (final polarized state tuple, current series on
    the grid o * dt_out).
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
    return (F, W, _mirror(F), _mirror(W)), out
