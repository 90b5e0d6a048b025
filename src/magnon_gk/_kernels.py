"""Per-mode flow between noise events, and the exchange loop of long chains.

For a translation-invariant charge each Fourier mode (F, W) of a position
and velocity component follows a two-by-two linear flow, F' = g W,
W' = h F + m W with g h = -omega^2.  The circular polarization a = f1 + i f2
of the charged plane closes on itself with m = -iB; every other component
has m = 0.  For real fields the mirror polarization f1 - i f2 is
conj(a(-k)), so it is never evolved: ifft(a) is f1 + i f2 itself.  The
roots s± = -iB/2 ± iΩ are imaginary, so in eigen-amplitudes in the frame
rotating with e^{-iBt/2} advancing by dt multiplies them by e^{±iΩdt}: one
complex exp per mode.  ``eigen_tables`` builds that basis, and
``FourierBlock`` in ``dynamics`` runs every channel on it.

``run_loop`` drives a chain (d=1, dstar=2) through its exchange events on
an amplitude array of ``FourierBlock``: the block's ``advance`` moves it
between events and its ``current`` gives the total energy current on a
fixed output grid.  The loop keeps the clock and only the exchange itself,
an O(N) rank-one update of the f1 + i f2 velocity modes through the cached
bond-difference table ``dphase``, so no FFT runs inside the loop.
"""

from __future__ import annotations

import cmath
from functools import lru_cache

import numpy as np

from .lattice import omega2, site_coords

# Read by the benchmark's environment record; there is no compiled loop.
HAVE_NUMBA = False


def mode_coupling(spec):
    """(g, omega^2) per Fourier mode, flat in row-major order.

    Position coords: g = 1 and h = -omega^2 with
    omega^2 = sum_a 4 sin^2(pi xi_a / N).  Deformation coords (d=1):
    g = e^{i phi} - 1 and h = 1 - e^{-i phi} with phi = 2 pi xi / N.
    """
    theta = site_coords(spec) / spec.n
    if spec.coords == "position":
        g = np.ones(spec.nsites, dtype=complex)
    else:
        g = np.exp(2j * np.pi * theta[:, 0]) - 1.0
    return g, omega2(theta)


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
    """Read-only bond-difference table of the chain loop, cached per spec:
    ``dphase[x, k] = e^{2πi(x+1)k/N} - e^{2πixk/N}``."""
    if spec.d != 1 or spec.dstar != 2 or spec.charge == "alternate":
        raise ValueError("fast kernel requires d=1, dstar=2, "
                         "translation-invariant charge")
    n = spec.n
    k = np.arange(n)
    dphase = np.exp((2j * np.pi / n) * ((k[:, None] * k) % n))
    dphase *= dphase[1] - 1.0   # e^{2πixk/N} (e^{2πik/N} - 1)
    dphase.setflags(write=False)
    return {"dphase": dphase}


def run_loop(dphase, block, amps, t, ev_times, triples, series, dt_out,
             n_out):
    """Run a chain's ``FourierBlock`` amplitudes ``amps`` at time t, in
    place, through the exchange events (times ``ev_times``, flat (j, x)
    codes ``triples``), writing the total current at o * dt_out, o < n_out,
    into ``series``; return the clock at the end.

    Outputs due at an event time are taken before the event.  The order of
    the arguments keeps the table first, the event times fifth and n_out
    ninth, where the benchmark's tracer reads them.
    """
    advance, current = block.advance, block.current
    # the f1 + i f2 channel: a view of its amplitudes, their kick per unit
    # kick of the velocity modes, and its frame rate -ib/2
    amp = amps[:, 0]
    kap, half_b = block.vel_kick[0], block.frame_rate[0]
    n = len(dphase)
    kick = np.empty_like(amp)
    o = 0
    for t_ev, trip in zip(ev_times.tolist(), triples.tolist()):
        while o * dt_out <= t_ev:
            dt = o * dt_out - t
            advance(amps, dt)
            t += dt
            series[o] = current(amps)[0]
            o += 1
        dt = t_ev - t
        advance(amps, dt)
        t += dt
        # Exchange of velocity component j across the bond (x, x+1).  With
        # v0 + i v1 = ifft(W), c = (v0 + i v1)(x+1) - (v0 + i v1)(x); the
        # swap moves delta = Re c (or i Im c) from site x+1 to site x, so W
        # gains -delta * conj(dphase[x]) = delta * dphase[N-1-x].  W is
        # amp[0] + amp[1] except at k=0, where dphase vanishes.
        j, x = divmod(trip, n)
        rot = cmath.exp(half_b * t)     # physical W = rot * stored W
        w0, w1 = (amp @ dphase[x]).tolist()
        c = rot * (w0 + w1) / n
        coef = (c.real if j == 0 else 1j * c.imag) / rot
        np.multiply(kap, dphase[n - 1 - x], out=kick)
        kick *= coef
        amp += kick
    while o < n_out:
        dt = o * dt_out - t
        advance(amps, dt)
        t += dt
        series[o] = current(amps)[0]
        o += 1
    return t
