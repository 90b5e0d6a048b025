"""The three workloads: what one pass runs and how its outputs are checked.

A pass is a fixed amount of work; the worker repeats passes back to back
(closed loop, one process, one thread) until its time is used up and reports
medians over passes.  ``run_pass`` is the timed region.  ``check_pass`` runs
after it, untimed, and turns the pass outputs into checked operations; it
also returns the pass's unit of work (exchange events or closed-form
evaluations).  ``final_checks`` runs once on everything the run produced.

Calls into the package go through module attributes (``dy.simulate``, not a
name imported from ``dynamics``) so that the traced run's wrappers see them.
See README.md for why each workload exists and what it should show.
"""

from __future__ import annotations

import os
import traceback
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from magnon_gk import _kernels as kn
from magnon_gk import dynamics as dy
from magnon_gk import greenkubo as gk
from magnon_gk import lattice as lat
from magnon_gk import resolvent as rs
from magnon_gk import sampling as sa
from magnon_gk import spectral as sp
from magnon_gk.lattice import LatticeSpec
from magnon_gk.rng import stream

# bounds shared with tests/test_acceptance.py (criteria 1, 2, 6)
ENERGY_DRIFT_PER_1E4 = 1e-10
INVARIANTS = 1e-10
CONTINUITY = 1e-9
SLOPE_TOL = 0.03
CERT_RESIDUAL = 1e-10
CERT_VSTAR = 1e-12
# bound of the fast-path replay (tests/test_dynamics.py)
REPLAY = 1e-10
# Statistical gates.  Every run draws fresh ensembles from its seed and a
# comparison runs dozens of seeds, so the gates are set for a false-alarm
# rate of about 1e-4 per run rather than at the 3-SE level of the
# fixed-seed acceptance tests.  The chain bounds are Student-t quantiles:
# with R trajectories the jackknife SE has R-1 degrees of freedom, and the
# max over L lags takes a Bonferroni factor L.
FALSE_ALARM = 1e-4
MOMENT_SE = 5.0         # ensemble_checks moments (2000 samples: normal)


class Checker:
    """Counts operations and the ones that raised or failed their check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, what: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(f"{what}: {detail}")

    @contextmanager
    def attempt(self, what: str):
        """Run one operation; if the program raises, count it as failed."""
        try:
            yield
        except Exception:  # any program error is a failed operation
            self.record(what, False, traceback.format_exc(limit=3))


def _drift_per_1e4(e0: float, e1: float, events: int) -> float:
    return abs(e1 - e0) / e0 * 1e4 / max(events, 1)


def _invariants(s0, s1) -> float:
    c0 = lat.conserved_snapshot(s0).as_vector()
    c1 = lat.conserved_snapshot(s1).as_vector()
    return float(np.abs(c1 - c0).max())


# ---------------------------------------------------------------------------


class ChainEnsemble:
    """Criterion-5 pipeline at reduced size: canonical chain, fast kernel."""

    name = "chain_ensemble"
    ops_part = None     # throughput is events per pass wall second
    SIZES = {
        "full": dict(n=256, t_end=32.0, dt_out=0.25, max_lag=64, min_traj=12,
                     replay_t=2.0),
        "tiny": dict(n=16, t_end=4.0, dt_out=0.25, max_lag=8, min_traj=4,
                     replay_t=1.0),
    }
    BETA = 1.0
    REPLAY_INDEX = 999_999

    def __init__(self, size: str, seed: int, tmpdir: str):
        self.p = self.SIZES[size]
        self.seed = seed
        self.spec = LatticeSpec(d=1, dstar=2, n=self.p["n"], b=1.0,
                                gamma=1.0, coords="deformation")
        self.series: list[np.ndarray] = []
        self.ref = None

    def setup(self):
        kn.mode_tables(self.spec)
        sp.d_closed(self.p["dt_out"], "i", 1.0, 1.0, self.BETA)

    def enough(self, n_passes: int) -> bool:
        # one trajectory per pass; the pooled check wants min_traj of them
        return n_passes >= self.p["min_traj"]

    def run_pass(self, k: int, tr, ck: Checker) -> dict:
        """Trajectory k, then the estimator and reference on it."""
        p, spec = self.p, self.spec
        out = {"js": None, "corr": None, "ref": None}
        tr.op = f"traj{k}"
        with ck.attempt(f"trajectory {k}"):
            s0 = sa.sample_canonical(spec, self.BETA,
                                     rng=stream(self.seed, "init", k))
            _, js, fin = dy.simulate_current_series(
                s0, p["t_end"], p["dt_out"], self.seed, index=k)
            out.update(js=js, e0=lat.total_energy(s0),
                       e1=lat.total_energy(fin))
            out["corr"] = gk.estimate_correlation(
                [js], spec.nsites, p["dt_out"], max_lag=p["max_lag"])
            out["ref"] = np.array([sp.d_closed(t, "i", 1.0, 1.0, self.BETA)
                                   for t in out["corr"].times])
        return out

    def check_pass(self, k: int, out: dict, ck: Checker) -> int:
        p, spec = self.p, self.spec
        if out["ref"] is None:
            return 0
        js = out["js"]
        nev = len(dy.draw_events(spec, p["t_end"], self.seed, k)[0])
        drift = _drift_per_1e4(out["e0"], out["e1"], nev)
        ref = _stationary_reference(js, spec.nsites, p["max_lag"])
        ok = (np.all(np.isfinite(js)) and drift <= ENERGY_DRIFT_PER_1E4
              and np.allclose(out["corr"].values, ref, rtol=1e-9,
                              atol=1e-9 * abs(ref[0]))
              and abs(out["ref"][0] - 1.0 / self.BETA ** 2) <= 1e-6)
        ck.record(f"trajectory {k}", bool(ok),
                  f"energy drift {drift:.2e} per 1e4 events, or estimator "
                  f"or D(0) reference off")
        self.series.append(js)
        self.ref = out["ref"]
        return nev

    def final_checks(self, ck: Checker) -> dict:
        # imported here so that its import time stays out of setup_s
        from scipy.stats import t as student_t
        p, spec = self.p, self.spec
        info = {}
        with ck.attempt("replay fast path vs simulate"):
            s0 = sa.sample_canonical(
                spec, self.BETA, rng=stream(self.seed, "init",
                                            self.REPLAY_INDEX))
            ts, js, fin = dy.simulate_current_series(
                s0, p["replay_t"], p["dt_out"], self.seed,
                index=self.REPLAY_INDEX)
            traj = dy.simulate(s0, p["replay_t"], p["dt_out"], self.seed,
                               index=self.REPLAY_INDEX, track="none")
            gen = np.array([lat.total_current(traj.state(i))
                            for i in range(len(ts))])
            last = traj.state(len(ts) - 1).flatten()
            err = max(np.abs(js - gen).max(),
                      np.abs(fin.flatten() - last).max())
            info["replay_err"] = float(err)
            ck.record("replay fast path vs simulate", err < REPLAY,
                      f"max deviation {err:.2e}")
        if len(self.series) >= 2 and self.ref is not None:
            with ck.attempt("pooled D_N vs d_closed"):
                c = gk.estimate_correlation(self.series, spec.nsites,
                                            p["dt_out"], max_lag=p["max_lag"])
                se = np.where(c.stderr > 0, c.stderr, np.inf)
                dev = float(np.max(np.abs(c.values - self.ref) / se))
                z0 = float(abs(c.values[0] - 1.0 / self.BETA ** 2) / se[0])
                dof = len(self.series) - 1
                max_bound = student_t.ppf(
                    1.0 - FALSE_ALARM / (2 * len(self.ref)), dof)
                d0_bound = student_t.ppf(1.0 - FALSE_ALARM / 2, dof)
                info.update(pooled_trajectories=len(self.series),
                            max_dev_se=dev, max_dev_bound=max_bound,
                            d0_dev_se=z0, d0_dev_bound=d0_bound,
                            d0_rel_err=float(abs(c.values[0] * self.BETA ** 2
                                                 - 1.0)))
                ck.record("pooled D_N vs d_closed",
                          dev <= max_bound and z0 <= d0_bound,
                          f"max {dev:.2f} SE (bound {max_bound:.2f}), D(0) "
                          f"{z0:.2f} SE (bound {d0_bound:.2f}) over "
                          f"{len(self.series)} trajectories")
        return info


def _stationary_reference(js, nsites: int, max_lag: int) -> np.ndarray:
    """Direct lag sums: mean over start times of J(t+s) J(t) / N."""
    npts = len(js)
    return np.array([np.dot(js[s:], js[:npts - s]) / (npts - s)
                     for s in range(max_lag + 1)]) / nsites


# ---------------------------------------------------------------------------


class GenericPipeline:
    """Generic ``simulate``: criterion 8 (part a) and criterion 6 (part b)."""

    name = "generic_pipeline"
    ops_part = None
    SIZES = {
        "full": dict(n_a=16, t_a=0.5, dt_a=0.25, events_b=750),
        "tiny": dict(n_a=4, t_a=0.25, dt_a=0.125, events_b=100),
    }
    E = 1.0
    PART_B_INDEX = 500_000   # keeps part b's random streams apart from a's

    def __init__(self, size: str, seed: int, tmpdir: str):
        self.p = self.SIZES[size]
        self.seed = seed
        self.tmpdir = tmpdir
        self.spec_a = LatticeSpec(d=2, dstar=2, n=self.p["n_a"], b=1.0,
                                  gamma=1.0)
        self.specs_b = [
            LatticeSpec(d=1, dstar=2, n=8, b=1.0, gamma=1.0),
            LatticeSpec(d=1, dstar=2, n=8, b=-2.0, gamma=0.5,
                        charge="alternate", coords="deformation"),
        ]

    def setup(self):
        for spec in [self.spec_a] + self.specs_b:
            dy.make_backend(spec)
            lat.neighbor_tables(spec)

    def enough(self, n_passes: int) -> bool:
        return n_passes >= 1

    def _state(self, spec, idx):
        rng = stream(self.seed, "init", idx)
        if spec.coords == "position":
            return sa.sample_microcanonical(spec, self.E, rng)
        return sa.sample_canonical(spec, 1.0, rng=rng)

    def run_pass(self, k: int, tr, ck: Checker) -> dict:
        p = self.p
        out = {"a": None, "b": []}
        t0 = perf_counter()
        with tr.span("generic.part_a"):
            tr.op = f"traj{k}"
            with ck.attempt(f"part a trajectory {k}"):
                s0 = self._state(self.spec_a, k)
                traj = dy.simulate(s0, p["t_a"], p["dt_a"], self.seed,
                                   index=k, track="total")
                last = traj.state(len(traj.times) - 1)
                drift = _drift_per_1e4(lat.total_energy(traj.state(0)),
                                       lat.total_energy(last),
                                       traj.event_count)
                inv = _invariants(traj.state(0), last)
                path = os.path.join(self.tmpdir, "a.mgkt")
                dy.save_trajectory(traj, path)
                back = dy.load_trajectory(path)
                kappa = gk.estimate_kappa([back], a=0, b=1, e=self.E)
                out["a"] = (traj, back, kappa, drift, inv)
        t1 = perf_counter()
        with tr.span("generic.part_b"):
            for j, spec in enumerate(self.specs_b):
                idx = self.PART_B_INDEX + k * len(self.specs_b) + j
                tr.op = f"case{idx}"
                with ck.attempt(f"part b {spec.charge} {idx}"):
                    rate = spec.gamma * spec.dstar * spec.d * spec.nsites
                    t_end = p["events_b"] / rate
                    s0 = self._state(spec, idx)
                    traj = dy.simulate(s0, t_end, t_end / 8, self.seed,
                                       index=idx, track="bonds")
                    last = traj.state(len(traj.times) - 1)
                    drift = _drift_per_1e4(lat.total_energy(traj.state(0)),
                                           lat.total_energy(last),
                                           traj.event_count)
                    out["b"].append((spec.charge, traj.event_count, drift,
                                     _invariants(traj.state(0), last),
                                     dy.continuity_residual(traj)))
        out["parts"] = {"part_a": t1 - t0, "part_b": perf_counter() - t1}
        return out

    def check_pass(self, k: int, out: dict, ck: Checker) -> int:
        events = 0
        if out["a"] is not None:
            traj, back, kappa, drift, inv = out["a"]
            events += traj.event_count
            ref = _kappa_reference(back, 0, 1, self.E)
            ck.record(f"part a trajectory {k}",
                      drift <= ENERGY_DRIFT_PER_1E4 and inv <= INVARIANTS,
                      f"energy drift {drift:.2e}/1e4 ev, invariants {inv:.2e}")
            ck.record(f"part a io {k}", _same_trajectory(traj, back),
                      "loaded trajectory differs from the saved one")
            ck.record(f"part a estimate_kappa {k}",
                      bool(np.all(np.isfinite(kappa.values))
                           and np.allclose(kappa.values, ref, rtol=1e-12,
                                           atol=1e-12 * np.abs(ref).max())),
                      "kappa differs from the direct product mean")
        for charge, nev, drift, inv, cont in out["b"]:
            events += nev
            ck.record(f"part b {charge}",
                      (drift <= ENERGY_DRIFT_PER_1E4 and inv <= INVARIANTS
                       and cont <= CONTINUITY),
                      f"drift {drift:.2e}/1e4 ev, invariants {inv:.2e}, "
                      f"continuity {cont:.2e}")
        return events

    def final_checks(self, ck: Checker) -> dict:
        return {}


def _same_trajectory(a, b) -> bool:
    fields = ("times", "pos", "vel", "det_current", "jump_current")
    same = all(np.array_equal(getattr(a, f), getattr(b, f)) for f in fields)
    for f in ("bond_det", "bond_jump"):
        x, y = getattr(a, f), getattr(b, f)
        same = same and ((x is None and y is None)
                         or (x is not None and y is not None
                             and np.array_equal(x, y)))
    return bool(same and a.spec == b.spec and a.seed == b.seed
                and a.index == b.index and a.t_end == b.t_end
                and a.dt_out == b.dt_out and a.event_count == b.event_count)


def _kappa_reference(traj, a: int, b: int, e: float) -> np.ndarray:
    """estimate_kappa's micro value for one trajectory without the noise
    constant (a != b): J_a J_b / (2 N E^2 t), grid point 0 skipped."""
    t = traj.times[1:]
    prod = traj.det_current[1:, a] * traj.det_current[1:, b]
    return prod / (2.0 * traj.spec.nsites * e * e * t)


# ---------------------------------------------------------------------------


class ClosedformCertify:
    """Closed-form kappa(t) scan with exponent fits, then certification."""

    name = "closedform_certify"
    ops_part = "scan"   # throughput is evaluations per second of the scan
    SIZES = {
        "full": dict(points=16, pairs=((1.0, 1.0), (2.0, 0.5), (0.5, 1.0)),
                     cert_n=8, samples=2000),
        "tiny": dict(points=8, pairs=((1.0, 1.0),), cert_n=4, samples=200),
    }
    # (label, expected slope, kappa_gk_closed keywords); b and gamma are
    # filled per pair.  gamma <= 1 keeps variant ii out of ComplexRootRegime.
    SERIES = (
        ("micro d*=2", 0.25, dict(kind="micro")),
        ("micro d*=3", 0.50, dict(kind="micro", dstar=3)),
        ("canonical i", 0.25, dict(kind="canonical", variant="i")),
        ("canonical ii", 0.50, dict(kind="canonical", variant="ii")),
    )
    B0 = ("micro B=0", 0.50, dict(kind="micro", b=0.0, gamma=1.0))
    D2 = dict(kind="micro", d=2, n=160)
    D3 = dict(kind="micro", d=3, n=64)

    def __init__(self, size: str, seed: int, tmpdir: str):
        self.p = self.SIZES[size]
        self.seed = seed
        self.ts = np.logspace(4, 7, self.p["points"])
        self.series = [(f"{lab} B={b} g={g}", exp, dict(kw, b=b, gamma=g))
                       for b, g in self.p["pairs"]
                       for lab, exp, kw in self.SERIES] + [self.B0]

    def setup(self):
        # fill the quadrature-node caches of every configuration the scan uses
        for kw in (dict(kind="micro"), dict(kind="canonical", variant="i"),
                   dict(kind="canonical", variant="ii")):
            sp.kappa_gk_closed(self.ts[0], **kw)
        sp.kappa_gk_closed(1e11, **self.D2)
        sp.kappa_gk_closed(1e6, **self.D3)
        # fit_exponent imports scipy.stats on its first call
        sp.fit_exponent(self.ts, self.ts ** 0.5)

    def enough(self, n_passes: int) -> bool:
        return n_passes >= 1

    def run_pass(self, k: int, tr, ck: Checker) -> dict:
        out = {"series": [], "d2": None, "d3": None, "cert": None,
               "ens": None}
        t0 = perf_counter()
        with tr.span("closedform.scan"):
            for lab, exp, kw in self.series:
                tr.op = lab
                vals = []
                for t in self.ts:
                    with ck.attempt(f"kappa {lab} t={t:.3g}"):
                        vals.append(sp.kappa_gk_closed(t, **kw))
                slope = None
                if len(vals) == len(self.ts):
                    with ck.attempt(f"fit {lab}"):
                        slope = sp.fit_exponent(self.ts, vals)[0]
                out["series"].append((lab, exp, vals, slope))
            tr.op = "d=2"
            with ck.attempt("kappa d=2"):
                out["d2"] = [sp.kappa_gk_closed(t, **self.D2)
                             for t in (1e11, 1e12)]
            tr.op = "d=3"
            with ck.attempt("kappa d=3"):
                out["d3"] = [sp.kappa_gk_closed(t, **self.D3)
                             for t in (1e6, 1e7)]
        t1 = perf_counter()
        with tr.span("closedform.certify"):
            tr.op = "certification"
            with ck.attempt("run_certification"):
                out["cert"] = rs.run_certification(self.p["cert_n"])
            tr.op = "ensemble"
            with ck.attempt("ensemble_checks"):
                out["ens"] = sa.ensemble_checks(
                    LatticeSpec(d=1, dstar=2, n=9, b=1.0, gamma=1.0), 2.0,
                    self.p["samples"], stream(self.seed, "init", k))
        out["parts"] = {"scan": t1 - t0, "certify": perf_counter() - t1}
        return out

    def check_pass(self, k: int, out: dict, ck: Checker) -> int:
        evals = 0
        for lab, exp, vals, slope in out["series"]:
            evals += len(vals)
            for t, v in zip(self.ts, vals):
                ck.record(f"kappa {lab} t={t:.3g}",
                          bool(np.isfinite(v) and v > 0), f"value {v}")
            if slope is not None:
                ck.record(f"fit {lab}", abs(slope - exp) <= SLOPE_TOL,
                          f"slope {slope:.4f}, want {exp}±{SLOPE_TOL}")
        if out["d2"] is not None:
            evals += 2
            r = [v / np.log(t) for v, t in zip(out["d2"], (1e11, 1e12))]
            drift = abs(r[1] / r[0] - 1.0)
            ck.record("kappa d=2", drift <= 0.05,
                      f"log-ratio drift {drift:.3f}")
        if out["d3"] is not None:
            evals += 2
            inc = abs(out["d3"][1] / out["d3"][0] - 1.0)
            ck.record("kappa d=3", inc <= 0.01,
                      f"decade increment {inc:.2e}")
        if out["cert"] is not None:
            for i, case in enumerate(out["cert"]["cases"]):
                res = max(v for key, v in case.items()
                          if key.endswith("residual") or key == "row_sum")
                vss = case.get("vstarstar_residual", 0.0)
                ck.record(f"certification case {i}",
                          bool(case["pass"] and res <= CERT_RESIDUAL
                               and vss <= CERT_VSTAR),
                          f"residual {res:.2e}, v** {vss:.2e}")
        if out["ens"] is not None:
            for key in ("v2", "v4", "v2v2", "qqvv"):
                m = out["ens"][key]
                z = abs(m["mc"] - m["exact"]) / m["stderr"]
                ck.record(f"ensemble {key}", bool(z <= MOMENT_SE),
                          f"{z:.2f} SE")
        return evals

    def final_checks(self, ck: Checker) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (ChainEnsemble, GenericPipeline,
                                 ClosedformCertify)}
