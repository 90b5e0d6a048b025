import numpy as np
import pytest

from magnon_gk.lattice import LatticeSpec, SpecError
from magnon_gk import dynamics as dy
from magnon_gk import greenkubo as gk
from magnon_gk.rng import stream
from magnon_gk.sampling import sample_canonical, sample_microcanonical
from magnon_gk.spectral import c_infty, kappa_gk_closed

DEFORM = LatticeSpec(d=1, dstar=2, n=32, b=1.0, gamma=1.0,
                     coords="deformation")


def canonical_ensemble(n_traj=30, t_end=16.0, dt_out=0.5, beta=1.0,
                       seed=50, spec=DEFORM):
    out = []
    for idx in range(n_traj):
        s0 = sample_canonical(spec, beta, rng=stream(seed, "init", idx))
        _, js, _ = dy.simulate_current_series(s0, t_end, dt_out, seed,
                                              index=idx)
        out.append(js)
    return out


def test_jackknife_of_mean_matches_plain_stderr():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 3))
    mean, err = gk.jackknife(x)
    assert np.allclose(mean, x.mean(axis=0))
    assert np.allclose(err, x.std(axis=0, ddof=1) / np.sqrt(40), rtol=1e-12)
    m1, e1 = gk.jackknife(x[:1])
    assert np.allclose(e1, 0.0)


def test_series_validation():
    with pytest.raises(Exception):
        gk.CorrelationSeries([0, 1], [1.0], [0.0, 0.0])
    with pytest.raises(Exception):
        gk.CorrelationSeries([0.0], [1.0], [np.inf])


def test_estimate_correlation_errors():
    with pytest.raises(Exception):
        gk.estimate_correlation([], 8, 0.5)
    with pytest.raises(Exception):
        gk.estimate_correlation([np.zeros(4)], 8, 0.5, max_lag=10)
    with pytest.raises(Exception):
        gk.estimate_correlation([np.zeros(4)], 8, 0.5, estimator="median")


def test_canonical_d0_is_inverse_beta_squared():
    beta = 1.0
    series = canonical_ensemble(beta=beta)
    c = gk.estimate_correlation(series, DEFORM.nsites, 0.5)
    assert abs(c.values[0] - 1.0 / beta ** 2) <= 3 * c.stderr[0]


def test_estimators_agree_and_bounded_by_c0():
    series = canonical_ensemble()
    st = gk.estimate_correlation(series, DEFORM.nsites, 0.5, max_lag=16)
    init = gk.estimate_correlation(series, DEFORM.nsites, 0.5,
                                   estimator="initial", max_lag=16)
    comb = np.sqrt(st.stderr ** 2 + init.stderr ** 2)
    assert np.all(np.abs(st.values - init.values) <= 3 * comb + 1e-12)
    # stationarity + Cauchy-Schwarz: |C(s)| bounded by the C(0) estimate
    bound = st.values[0] + 3 * st.stderr[0]
    assert np.all(st.values <= bound + 3 * st.stderr)


def test_correlation_matches_closed_form_in_window():
    from magnon_gk.spectral import d_closed
    series = canonical_ensemble(n_traj=40)
    c = gk.estimate_correlation(series, DEFORM.nsites, 0.5, max_lag=16)
    safe = c.times <= DEFORM.n / 4  # inside the sound cone
    ref = d_closed(c.times, "i", 1.0, 1.0, 1.0)
    dev = np.abs(c.values - ref) / np.where(c.stderr > 0, c.stderr, 1.0)
    assert np.all(dev[safe] <= 3.0)


def test_trajectory_current_series_consistency():
    spec = LatticeSpec(d=1, dstar=2, n=8, b=1.0, gamma=1.0)
    s0 = sample_microcanonical(spec, 2.0, stream(1, "init"))
    traj = dy.simulate(s0, 2.0, 0.5, seed=1, track="none")
    js = gk.trajectory_current_series(traj)
    from magnon_gk.lattice import total_current
    assert js[2] == pytest.approx(total_current(traj.state(2)))


def _fake_traj(spec, times, det):
    n_out = len(times)
    return dy.Trajectory(spec, 0, 0, float(times[-1]),
                         float(times[1] - times[0]), np.asarray(times),
                         np.zeros((n_out, spec.dstar, spec.nsites)),
                         np.zeros((n_out, spec.dstar, spec.nsites)),
                         det, np.zeros((n_out, spec.d)), 0)


def test_kappa_zero_current_gives_noise_constant_only():
    spec = LatticeSpec(d=1, dstar=2, n=8, b=1.0, gamma=1.0)
    times = np.arange(5) * 0.5
    trajs = [_fake_traj(spec, times, np.zeros((5, 1))) for _ in range(3)]
    kap = gk.estimate_kappa(trajs, e=2.0, gamma=spec.gamma)
    assert np.allclose(kap.values, spec.gamma / 4.0)
    kap_cross = gk.estimate_kappa(trajs, a=0, b=0, e=2.0)  # no gamma passed
    assert np.allclose(kap_cross.values, 0.0)


def test_kappa_noise_constant_follows_the_spec_dstar():
    # gamma / (2 dstar) for both ensembles, with dstar from the trajectories
    times = np.arange(5) * 0.5
    for spec, ens in (
            (LatticeSpec(d=1, dstar=3, n=8, b=1.0, gamma=1.5), {"e": 2.0}),
            (LatticeSpec(d=2, dstar=3, n=4, b=1.0, gamma=1.5),
             {"beta": 1.0})):
        trajs = [_fake_traj(spec, times, np.zeros((5, spec.d)))
                 for _ in range(3)]
        kap = gk.estimate_kappa(trajs, gamma=spec.gamma, **ens)
        assert np.array_equal(kap.values, np.full(4, spec.gamma / 6.0))
        assert kap.meta["noise_constant"] == spec.gamma / 6.0


def test_kappa_refuses_a_mixed_ensemble():
    spec = LatticeSpec(d=1, dstar=2, n=8, b=1.0, gamma=1.0)
    times = np.arange(3) * 0.5
    same = _fake_traj(spec, times, np.zeros((3, 1)))
    for other in (
            _fake_traj(LatticeSpec(d=1, dstar=3, n=8, b=1.0, gamma=1.0),
                       times, np.zeros((3, 1))),
            _fake_traj(spec, times * 1.5, np.zeros((3, 1)))):
        with pytest.raises(SpecError, match="share the spec"):
            gk.estimate_kappa([same, other], e=1.0)


def test_kappa_requires_exactly_one_ensemble():
    spec = LatticeSpec(d=1, dstar=2, n=8, b=1.0, gamma=1.0)
    times = np.arange(3) * 0.5
    trajs = [_fake_traj(spec, times, np.zeros((3, 1)))]
    with pytest.raises(Exception):
        gk.estimate_kappa(trajs)
    with pytest.raises(Exception):
        gk.estimate_kappa(trajs, e=1.0, beta=1.0)
    with pytest.raises(Exception):
        gk.estimate_kappa([], e=1.0)


def test_kappa_small_time_approaches_noise_constant():
    # micro ensemble, small t: kappa(t) ~ gamma/(2 dstar) + O(t)
    spec = LatticeSpec(d=1, dstar=2, n=16, b=1.0, gamma=1.0)
    trajs = []
    for idx in range(25):
        s0 = sample_microcanonical(spec, 1.0, stream(60, "init", idx))
        trajs.append(dy.simulate(s0, 0.5, 0.25, seed=60, index=idx,
                                 track="total"))
    kap = gk.estimate_kappa(trajs, e=1.0, gamma=spec.gamma)
    c0 = 2.0 * 1.0  # C(0)/E^2 order-one correction bound
    assert abs(kap.values[0] - 0.25) <= 3 * kap.stderr[0] + c0 * 0.25


def test_gk_integral_trivial_inputs():
    ts = np.linspace(0, 4, 33)
    zero = gk.CorrelationSeries(ts, np.zeros_like(ts), np.zeros_like(ts))
    assert gk.gk_integral_of_series(zero, 4.0, e=1.0, gamma=1.0,
                                    dstar=2) == pytest.approx(0.25)
    assert gk.gk_integral_of_series(zero, 4.0, beta=2.0,
                                    gamma=1.0) == pytest.approx(0.25)
    cval = 0.7
    const = gk.CorrelationSeries(ts, np.full_like(ts, cval),
                                 np.zeros_like(ts))
    # (1 - s/t) * c is linear, so the trapezoid is exact: c t / 2 / E^2
    want = cval * 4.0 / 2.0 / 4.0 + 1.0 / 4.0
    got = gk.gk_integral_of_series(const, 4.0, e=2.0, gamma=1.0, dstar=2)
    assert got == pytest.approx(want, rel=1e-12)
    with pytest.raises(Exception):
        gk.gk_integral_of_series(const, 8.0, e=1.0)
    with pytest.raises(Exception):
        gk.gk_integral_of_series(const, 4.0)


def test_gk_integral_noise_constant_follows_dstar():
    # gamma/(2 dstar) in both ensembles, as estimate_kappa adds it; the
    # canonical branch used to add gamma/4 whatever dstar was
    ts = np.linspace(0, 4, 33)
    zero = gk.CorrelationSeries(ts, np.zeros_like(ts), np.zeros_like(ts))
    for kw in (dict(e=1.0), dict(beta=2.0)):
        got = gk.gk_integral_of_series(zero, 4.0, gamma=1.0, dstar=3, **kw)
        assert got == pytest.approx(1.0 / 6.0, rel=1e-15)


def test_gk_integral_reproduces_closed_form_kappa():
    t = 1.0
    h = 2e-3
    ts = np.arange(0.0, t + h / 2, h)
    cs = c_infty(ts)
    series = gk.CorrelationSeries(ts, cs, np.zeros_like(ts))
    got = gk.gk_integral_of_series(series, t, e=1.0, gamma=1.0, dstar=2)
    want = kappa_gk_closed(t, kind="micro", d=1, dstar=2, b=1.0, gamma=1.0)
    assert got == pytest.approx(want, abs=1e-6)
