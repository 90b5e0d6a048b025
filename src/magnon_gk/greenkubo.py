"""Monte Carlo estimators for current autocorrelations and conductivity.

Two routes to the finite-time conductivity kappa(t):

* direct: the variance of the deterministically integrated total current,
  scaled by 1/(2 N^d E^2 t) (microcanonical) or beta^2/(8 N^d t) (canonical),
  plus the exact exchange-noise constant gamma/(2 dstar) -- the noise part
  is never estimated statistically, it is known in closed form and the
  cross term with the deterministic part averages to zero;
* via the autocorrelation: the triangular-window integral of the estimated
  C(s) series with the same additive constant.

Errors are jackknife over trajectories: samples are correlated in time
within a trajectory but trajectories are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import SpecError, bond_currents


@dataclass
class CorrelationSeries:
    times: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.stderr = np.asarray(self.stderr, dtype=float)
        if not (len(self.times) == len(self.values) == len(self.stderr)):
            raise SpecError("series arrays must have equal length")
        if not np.all(np.isfinite(self.stderr)):
            raise SpecError("stderr must be finite")


def jackknife(samples: np.ndarray):
    """Leave-one-out mean and standard error along axis 0."""
    samples = np.asarray(samples, dtype=float)
    m = samples.shape[0]
    if m < 2:
        return samples.mean(axis=0), np.zeros(samples.shape[1:])
    total = samples.sum(axis=0)
    loo = (total - samples) / (m - 1)
    center = loo.mean(axis=0)
    var = (m - 1) / m * np.sum((loo - center) ** 2, axis=0)
    return samples.mean(axis=0), np.sqrt(var)


def _check_directions(spec, *dirs):
    for a in dirs:
        if not 0 <= a < spec.d:
            raise SpecError(f"direction {a} out of range for d={spec.d}")


def trajectory_current_series(traj, a: int = 0) -> np.ndarray:
    """Instantaneous total current at the output grid of one trajectory."""
    _check_directions(traj.spec, a)
    return bond_currents(traj.spec, traj.pos, traj.vel)[:, a].sum(axis=-1)


def estimate_correlation(trajectories, nsites: int, dt_out: float,
                         a: int = 0, estimator: str = "stationary",
                         max_lag: int | None = None) -> CorrelationSeries:
    """C(s) (or D(s) in deformation coords) from an ensemble of trajectories.

    ``trajectories`` may be Trajectory objects or precomputed total-current
    series (1-d arrays on the shared output grid); for Trajectory objects
    the direction a must lie in 0..d-1.  The value at lag s is
    E[sum_x j_x(s) j_bond(0)] = E[J_tot(s) J_tot(0)] / N^d by translation
    invariance.  ``stationary`` averages the lag product over all start
    times; ``initial`` uses only t=0 (plain ensemble average).
    """
    if estimator not in ("stationary", "initial"):
        raise SpecError(f"unknown estimator {estimator!r}")
    series = [tr if isinstance(tr, np.ndarray)
              else trajectory_current_series(tr, a) for tr in trajectories]
    if not series:
        raise SpecError("empty trajectory ensemble")
    npts = len(series[0])
    if any(len(s) != npts for s in series):
        raise SpecError("trajectories must share the output grid")
    if max_lag is None:
        max_lag = npts - 1
    if max_lag >= npts:
        raise SpecError("lag exceeds the trajectory horizon")
    js = np.array(series, dtype=float)     # (trajectories, npts)
    if estimator == "initial":
        per = js[:, :max_lag + 1] * js[:, :1]
    else:
        # full autocorrelation via FFT, then normalize per lag count
        mfft = 1 << int(np.ceil(np.log2(2 * npts)))
        fj = np.fft.rfft(js, mfft)
        raw = np.fft.irfft(fj * np.conj(fj), mfft)[:, :max_lag + 1]
        per = raw / (npts - np.arange(max_lag + 1))
    per /= nsites
    mean, err = jackknife(per)
    return CorrelationSeries(
        np.arange(max_lag + 1) * dt_out, mean, err,
        {"estimator": estimator, "n_samples": len(series),
         "nsites": nsites, "dt_out": dt_out, "direction": a})


def estimate_kappa(trajectories, a: int = 0, b: int = 0, *,
                   e: float | None = None, beta: float | None = None,
                   gamma: float | None = None) -> CorrelationSeries:
    """Direct finite-time conductivity estimate on the trajectory grid.

    Uses the cumulative deterministic current integrals stored by
    ``simulate(track="total")``; the trajectories must share their spec and
    output grid.  Exactly one of ``e`` (microcanonical, energy per site) or
    ``beta`` (canonical) must be given; ``gamma`` adds the exchange-noise
    constant gamma/(2 dstar) when a == b (pass the model's gamma).  The
    directions a and b must lie in 0..d-1.  The grid point t=0, where the
    estimate divides by t, is left out.
    """
    trajs = list(trajectories)
    if not trajs:
        raise SpecError("empty trajectory ensemble")
    if (e is None) == (beta is None):
        raise SpecError("give exactly one of e (micro) or beta (canonical)")
    for name, v in (("e", e), ("beta", beta)):
        if v is not None and not 0 < v < np.inf:
            raise SpecError(f"{name} must be finite and > 0, got {v}")
    spec, grid = trajs[0].spec, trajs[0].times
    _check_directions(spec, a, b)
    if any(tr.spec != spec or not np.array_equal(tr.times, grid)
           for tr in trajs):
        raise SpecError("trajectories must share the spec and output grid")
    times = grid[1:]
    if len(times) == 0:
        raise SpecError("no grid points after t=0")
    det = np.array([tr.det_current[1:] for tr in trajs])  # (R, T, d)
    mean, err = jackknife(det[..., a] * det[..., b])
    if e is not None:
        pref = 1.0 / (2.0 * spec.nsites * e * e * times)
    else:
        pref = beta * beta / (8.0 * spec.nsites * times)
    const = 0.0
    if a == b and gamma is not None:
        const = gamma / (2.0 * spec.dstar)
    return CorrelationSeries(
        times, pref * mean + const, pref * err,
        {"kind": "kappa", "a": a, "b": b,
         "ensemble": "micro" if e is not None else "canonical",
         "n_samples": len(trajs), "noise_constant": const})


def gk_integral_of_series(c: CorrelationSeries, t: float, *,
                          e: float | None = None, beta: float | None = None,
                          dstar: int = 2, gamma: float = 0.0) -> float:
    """Triangular-window integral of a correlation series up to time t,
    plus the exchange-noise constant.

    Microcanonical: (1/E^2) int_0^t (1 - s/t) C(s) ds + gamma/(2 dstar).
    Canonical: (beta^2/4) int_0^t (1 - s/t) D(s) ds + gamma/(2 dstar).
    """
    if (e is None) == (beta is None):
        raise SpecError("give exactly one of e (micro) or beta (canonical)")
    ts = c.times
    if t <= 0 or t > ts[-1] + 1e-12:
        raise SpecError("t must lie within the series grid")
    keep = ts <= t + 1e-12
    s = ts[keep]
    w = (1.0 - s / t) * c.values[keep]
    integral = math.fsum(np.diff(s) * 0.5 * (w[1:] + w[:-1]))
    noise = gamma / (2.0 * dstar)
    if e is not None:
        return integral / (e * e) + noise
    return beta * beta / 4.0 * integral + noise
