"""End-to-end acceptance checks for the whole package.

Each test prints one `CRITERION k: PASS/FAIL` line summarising the check it
performs, then asserts.  Run with `pytest -v -s tests/test_acceptance.py` to
see the lines as they are produced.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from magnon_gk import dynamics as dy
from magnon_gk import greenkubo as gk
from magnon_gk import spectral as sp
from magnon_gk.lattice import (LatticeSpec, conserved_snapshot, total_energy)
from magnon_gk.resolvent import run_certification
from magnon_gk.rng import stream
from magnon_gk.sampling import (ensemble_checks, lemma_fourier_sum,
                                microcanonical_moments, sample_canonical,
                                sample_microcanonical)


_CAPMAN = None


@pytest.fixture(autouse=True)
def _capture_manager(request):
    # let the CRITERION lines reach the terminal even under output capture
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def report(k, ok, summary):
    line = f"CRITERION {k}: {'PASS' if ok else 'FAIL'} — {summary}"
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(f"\n{line}", flush=True)
    else:
        print(line, flush=True)
    assert ok, f"criterion {k}: {summary}"


def test_criterion_1_resolvent_certification():
    t0 = time.perf_counter()
    rep = run_certification(8)
    wall = time.perf_counter() - t0
    res = [v for c in rep["cases"] for k, v in c.items()
           if k.endswith("residual") or k == "row_sum"]
    vss = [c["vstarstar_residual"] for c in rep["cases"]]
    ok = (rep["pass"] and max(res) <= 1e-10 and max(vss) <= 1e-12
          and wall < 30.0)
    report(1, ok, f"{len(rep['cases'])} cases, max residual "
           f"{max(res):.2e}, max closed-form residual {max(vss):.2e}, "
           f"{wall:.1f}s")


def _slope(expect, tol, **kw):
    ts = np.logspace(4, 7, 16)
    slope, _ = sp.fit_exponent(ts, sp.kappa_gk_closed(ts, **kw))
    return slope, abs(slope - expect) <= tol


def test_criterion_2_growth_exponents():
    cases = [
        ("micro d=1 d*=2", 0.25, dict(kind="micro")),
        ("micro d=1 d*=3", 0.50, dict(kind="micro", dstar=3)),
        ("micro B=0", 0.50, dict(kind="micro", b=0.0)),
        ("canonical i", 0.25, dict(kind="canonical", variant="i")),
        ("canonical ii", 0.50, dict(kind="canonical", variant="ii",
                                    gamma=0.5)),
    ]
    msgs, ok = [], True
    for name, expect, kw in cases:
        slope, good = _slope(expect, 0.03, **kw)
        ok = ok and good
        msgs.append(f"{name} slope {slope:.3f} (want {expect}±0.03)")
    # d=2: kappa grows like log t, so kappa/log t flattens out
    t2 = np.array([1e11, 1e12])
    r = sp.kappa_gk_closed(t2, kind="micro", d=2, n=160) / np.log(t2)
    drift2 = abs(r[1] / r[0] - 1.0)
    ok = ok and drift2 <= 0.05
    msgs.append(f"d=2 log-ratio drift {drift2:.3f} (≤0.05)")
    # d=3: kappa converges, so the relative increment across a decade is tiny
    k6, k7 = sp.kappa_gk_closed(np.array([1e6, 1e7]), kind="micro", d=3,
                                n=64)
    inc3 = abs(k7 / k6 - 1.0)
    ok = ok and inc3 <= 0.01
    msgs.append(f"d=3 decade increment {inc3:.1e} (≤0.01)")
    report(2, ok, "; ".join(msgs))


def test_criterion_3_component_tails():
    msgs, ok = [], True
    # rescaled correlation components approach positive constants
    for name, power, col in (("t^1.5 C2", 1.5, 1), ("t^0.75 C3", 0.75, 2),
                             ("t^0.5 C4", 0.5, 3)):
        vals = [sp.c_components(t, 1, 1.0, 1.0)[col] * t ** power
                for t in (1e3, 1e4, 1e5)]
        good = vals[-1] > 0 and abs(vals[0] / vals[-1] - 1.0) < 0.10
        ok = ok and good
        msgs.append(f"{name} drift {abs(vals[0] / vals[-1] - 1):.3f}")
    vals = [sp.d_closed(t, "ii", 1.0, 0.5, 1.0) * np.sqrt(t)
            for t in (1e2, 1e3, 1e4)]
    good = vals[-1] > 0 and abs(vals[0] / vals[-1] - 1.0) < 0.10
    ok = ok and good
    msgs.append(f"t^0.5 D_ii drift {abs(vals[0] / vals[-1] - 1):.3f}")
    report(3, ok, "; ".join(msgs) + " (all ≤0.10 over two decades)")


def test_criterion_4_laplace_consistency():
    msgs, ok = [], True
    for lam in (0.5, 1.0, 2.0):
        num, _ = quad(lambda s: sp.c_infty(s, 1, 2, 1.0, 1.0, 1.0, n=300)
                      * np.exp(-lam * s), 0, 120, limit=400)
        direct = sp.laplace_micro(lam, 1, 2, 1.0, 1.0, 1.0)
        rel = abs(num / direct - 1.0)
        ok = ok and rel <= 1e-5
        msgs.append(f"micro λ={lam}: {rel:.1e}")
    for lam in (0.5, 1.0, 2.0):
        num, _ = quad(lambda s: sp.d_closed(s, "ii", 1.0, 0.5, 1.0, n=300)
                      * np.exp(-lam * s), 0, 80, limit=300)
        direct = sp.laplace_canonical(lam, "ii", 1.0, 0.5, 1.0)
        rel = abs(num / direct - 1.0)
        ok = ok and rel <= 1e-5
        msgs.append(f"canonical ii λ={lam}: {rel:.1e}")
    report(4, ok, "relative errors " + ", ".join(msgs) + " (all ≤1e-5)")


def test_criterion_5_monte_carlo_vs_closed_form():
    spec = LatticeSpec(d=1, dstar=2, n=256, b=1.0, gamma=1.0,
                       coords="deformation")
    beta, seed, n_traj = 1.0, 101, 200
    t0 = time.perf_counter()
    series = []
    for idx in range(n_traj):
        s0 = sample_canonical(spec, beta, rng=stream(seed, "init", idx))
        _, js, _ = dy.simulate_current_series(s0, 64.0, 0.25, seed=seed,
                                              index=idx)
        series.append(js)
    c = gk.estimate_correlation(series, spec.nsites, 0.25, max_lag=64)
    wall = time.perf_counter() - t0
    ref = sp.d_closed(c.times, "i", 1.0, 1.0, beta)
    dev = np.abs(c.values - ref) / np.where(c.stderr > 0, c.stderr, 1.0)
    rel0 = abs(c.values[0] - 1.0 / beta ** 2) * beta ** 2
    ok = dev.max() <= 3.0 and rel0 <= 0.01 and wall <= 900.0
    report(5, ok, f"{n_traj} trajectories N=256: max |D_N - D|/SE "
           f"{dev.max():.2f} (≤3) on s∈[0,16], D_N(0) error "
           f"{rel0:.4f} (≤0.01), {wall:.0f}s (≤900)")


def test_criterion_6_conservation_and_continuity():
    cases = [
        LatticeSpec(d=1, dstar=2, n=8, b=1.0, gamma=1.0),
        LatticeSpec(d=1, dstar=2, n=8, b=-2.0, gamma=0.5,
                    charge="alternate", coords="deformation"),
    ]
    msgs, ok = [], True
    for spec in cases:
        rate = spec.gamma * spec.dstar * spec.d * spec.nsites
        t_end = 1.05e4 / rate  # a little over 1e4 events in expectation
        if spec.coords == "position":
            s0 = sample_microcanonical(spec, 1.0, stream(11, "init"))
        else:
            s0 = sample_canonical(spec, 1.0, rng=stream(11, "init"))
        traj = dy.simulate(s0, t_end, t_end / 8, seed=11, track="bonds")
        last = len(traj.times) - 1
        e0 = total_energy(traj.state(0))
        drift = abs(total_energy(traj.state(last)) - e0) / e0
        per4 = drift * 1e4 / max(traj.event_count, 1)
        c0 = conserved_snapshot(traj.state(0)).as_vector()
        c1 = conserved_snapshot(traj.state(last)).as_vector()
        inv = np.abs(c1 - c0).max()
        cont = dy.continuity_residual(traj)
        good = per4 <= 1e-10 and inv <= 1e-10 and cont <= 1e-9
        ok = ok and good
        msgs.append(f"{spec.charge}/{spec.coords}: {traj.event_count} events,"
                    f" energy drift {per4:.1e}/1e4 ev, invariants {inv:.1e},"
                    f" continuity {cont:.1e}")
    report(6, ok, "; ".join(msgs))


def test_criterion_7_ensemble_facts():
    spec9 = LatticeSpec(d=1, dstar=2, n=9, b=1.0, gamma=1.0)
    rep = ensemble_checks(spec9, 2.0, 3000, stream(21, "sites"))
    ok = rep["pass"]
    # the sharp moments approach their large-N limits monotonically
    e, ds = 2.0, 2
    errs_v4, errs_v2v2 = [], []
    for n in (9, 33, 129):
        m = microcanonical_moments(
            LatticeSpec(d=1, dstar=2, n=n, b=1.0, gamma=1.0), e)
        errs_v4.append(abs(m["v4"] - 3.0 * (e / ds) ** 2))
        errs_v2v2.append(abs(m["v2v2"] - (e / ds) ** 2))
    dec = (errs_v4[0] > errs_v4[1] > errs_v4[2]
           and errs_v2v2[0] > errs_v2v2[1] > errs_v2v2[2])
    ok = ok and dec
    # sampled qqvv moment vs its explicit wavenumber-sum form at N=9
    q = rep["qqvv"]
    four = lemma_fourier_sum(spec9, 2.0, [1])
    qok = abs(q["mc"] - four) <= 3.0 * q["stderr"]
    ok = ok and qok
    report(7, ok, f"N=9 moments within 3 SE ({rep['pass']}); finite-N "
           f"errors decrease over N=9,33,129 ({dec}); qqvv vs wavenumber "
           f"sum |Δ|/SE {abs(q['mc'] - four) / q['stderr']:.2f} (≤3)")


def test_criterion_8_property_suites():
    # root-ordering chain of the decay-rate cubic on a fine grid
    rng = np.random.default_rng(7)
    th = np.linspace(0, 0.25, 1001)[1:]
    chain_ok = True
    for _ in range(5):
        b = rng.uniform(0.1, 10.0)
        g = rng.uniform(0.2, 1.0)
        roots, is_complex = sp._cubic_roots(th.astype(np.longdouble), b, g)
        r = np.asarray(roots, dtype=float)
        bt2 = (b / 2) ** 2
        chain_ok = chain_ok and (not is_complex
                                 and np.all((-g * g < r[0]) & (r[0] < 0))
                                 and np.all((-bt2 - 1 < r[1]) & (r[1] < -g * g))
                                 and np.all(r[2] < -bt2 - 1))
    # cross-direction conductivity vanishes by symmetry (d=2)
    spec = LatticeSpec(d=2, dstar=2, n=16, b=1.0, gamma=1.0)
    trajs = []
    for idx in range(16):
        s0 = sample_microcanonical(spec, 1.0, stream(31, "init", idx))
        trajs.append(dy.simulate(s0, 1.0, 0.5, seed=31, index=idx,
                                 track="total"))
    kap = gk.estimate_kappa(trajs, a=0, b=1, e=1.0)
    z = abs(kap.values[-1]) / kap.stderr[-1]
    ok = chain_ok and z <= 3.0
    report(8, ok, f"cubic root ordering on 1000-point grids x 5 random "
           f"fields ({chain_ok}); d=2 N=16 cross-current kappa^(1,2) "
           f"|value|/SE {z:.2f} (≤3)")
