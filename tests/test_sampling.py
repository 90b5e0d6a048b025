import numpy as np
import pytest
from scipy.stats import ks_2samp

from magnon_gk.lattice import (LatticeSpec, SpecError, site_index,
                               total_energy)
from magnon_gk import sampling as sa
from magnon_gk.rng import stream


def test_streams_are_independent_and_reproducible():
    a1 = stream(42, "events").standard_normal(8)
    a2 = stream(42, "events").standard_normal(8)
    b = stream(42, "sites").standard_normal(8)
    c = stream(43, "events").standard_normal(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)
    d = stream(42, "events", index=1).standard_normal(8)
    assert not np.array_equal(a1, d)


@pytest.mark.parametrize("n,d", [(9, 1), (8, 1), (5, 2), (4, 2)])
def test_microcanonical_energy_and_centering(n, d):
    spec = LatticeSpec(d=d, dstar=2, n=n, b=1.0, gamma=1.0)
    rng = stream(1, "init")
    for _ in range(5):
        s = sa.sample_microcanonical(spec, 2.0, rng)
        assert total_energy(s) == pytest.approx(spec.nsites * 2.0, rel=1e-12)
        assert np.abs(s.pos.sum(axis=1)).max() < 1e-9
        assert np.abs(s.vel.sum(axis=1)).max() < 1e-9


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_samplers_reject_non_finite_energy_or_beta(value):
    with pytest.raises(SpecError, match="^e must be finite"):
        sa.sample_microcanonical(
            LatticeSpec(d=1, dstar=2, n=8, b=1.0, gamma=1.0), value,
            stream(0, "init"))
    with pytest.raises(SpecError, match="^beta must be finite"):
        sa.sample_canonical(
            LatticeSpec(d=1, dstar=2, n=8, b=1.0, gamma=1.0,
                        coords="deformation"), value, rng=stream(0, "init"))


def test_microcanonical_requires_position_and_positive_energy():
    spec = LatticeSpec(d=1, dstar=2, n=8, b=1.0, gamma=1.0,
                       coords="deformation")
    with pytest.raises(Exception):
        sa.sample_microcanonical(spec, 1.0, stream(0, "init"))
    with pytest.raises(Exception):
        sa.sample_microcanonical(
            LatticeSpec(d=1, dstar=2, n=8, b=1.0, gamma=1.0), -1.0,
            stream(0, "init"))


def test_sphere_dimension():
    spec = LatticeSpec(d=1, dstar=3, n=9, b=1.0, gamma=1.0)
    assert sa.sphere_dimension(spec) == 2 * 3 * 8


def test_exact_second_moment_is_e_over_dstar():
    # holds at every N, odd or even
    for n in (6, 9):
        for dstar in (2, 3):
            spec = LatticeSpec(d=1, dstar=dstar, n=n, b=1.0, gamma=1.0)
            mom = sa.microcanonical_moments(spec, 2.5)
            assert mom["v2"] == pytest.approx(2.5 / dstar, rel=1e-12)


def test_exact_fourth_moment_formula_and_limit():
    # closed form: 3 E^2 (M-1) / (dstar (dstar (M-1) + 1)), M = N^d
    e, dstar = 2.0, 2
    errs = []
    for n in (9, 33, 129):
        spec = LatticeSpec(d=1, dstar=dstar, n=n, b=1.0, gamma=1.0)
        mom = sa.microcanonical_moments(spec, e)
        M = spec.nsites
        want = 3 * e * e * (M - 1) / (dstar * (dstar * (M - 1) + 1))
        assert mom["v4"] == pytest.approx(want, rel=1e-12)
        errs.append(abs(mom["v4"] - 3 * e * e / dstar ** 2))
    assert errs[0] > errs[1] > errs[2]


def test_pair_moment_approaches_squared_mean():
    e = 2.0
    errs = []
    for n in (9, 33, 129):
        spec = LatticeSpec(d=1, dstar=2, n=n, b=1.0, gamma=1.0)
        errs.append(abs(sa.microcanonical_moments(spec, e)["v2v2"]
                        - e * e / 4))
    assert errs[0] > errs[1] > errs[2]


def test_qqvv_matches_fourier_sum_asymptotically():
    e, x = 2.0, [2]
    for n in (9, 33, 129):
        spec = LatticeSpec(d=1, dstar=2, n=n, b=1.0, gamma=1.0)
        exact = sa.microcanonical_moments(spec, e, x)["qqvv"]
        fsum = sa.lemma_fourier_sum(spec, e, x)
        # agreement up to the O(N^{-d}) prefactor correction
        assert exact == pytest.approx(fsum, rel=3.0 / n)


def test_mc_moments_within_three_se():
    spec = LatticeSpec(d=1, dstar=2, n=9, b=1.0, gamma=1.0)
    rep = sa.ensemble_checks(spec, 2.0, 3000, stream(7, "init"))
    assert rep["pass"], rep


def test_mc_moments_within_three_se_even_n_d2():
    spec = LatticeSpec(d=2, dstar=2, n=4, b=0.0, gamma=1.0)
    rep = sa.ensemble_checks(spec, 1.0, 2000, stream(8, "init"))
    assert rep["pass"], rep


def _reference_draw(spec, e, rng):
    """One microcanonical draw written out component by component, with
    two inverse FFTs per component: the sampler's arithmetic, kept here as
    the reference that the batched draw must reproduce bitwise."""
    ns, ds, n, d = spec.nsites, spec.dstar, spec.n, spec.d
    pairs, partners, selfs, omega = sa._mode_tables(spec)
    g = rng.standard_normal(sa.sphere_dimension(spec))
    g *= np.sqrt(ns * e) / np.linalg.norm(g)
    pos, vel = np.empty((ds, ns)), np.empty((ds, ns))
    npair, nself = len(pairs), len(selfs)
    per = 4 * npair + 2 * nself
    for j in range(ds):
        blk = g[j * per:(j + 1) * per]
        qt = np.zeros(ns, dtype=complex)
        vt = np.zeros(ns, dtype=complex)
        qt[pairs] = blk[0:npair] + 1j * blk[npair:2 * npair]
        vt[pairs] = blk[2 * npair:3 * npair] + 1j * blk[3 * npair:4 * npair]
        qt[partners] = np.conj(qt[pairs])
        vt[partners] = np.conj(vt[pairs])
        qt[selfs] = np.sqrt(2.0) * blk[4 * npair:4 * npair + nself]
        vt[selfs] = np.sqrt(2.0) * blk[4 * npair + nself:]
        qhat = np.zeros(ns, dtype=complex)
        nz = omega > 0
        qhat[nz] = np.sqrt(ns) * qt[nz] / omega[nz]
        vhat = np.sqrt(ns) * vt
        pos[j] = np.fft.ifftn(qhat.reshape((n,) * d)).real.ravel()
        vel[j] = np.fft.ifftn(vhat.reshape((n,) * d)).real.ravel()
    return pos, vel


def _reference_moments(spec, e, samples, rng):
    """ensemble_checks' four moment columns, one reference draw at a time."""
    x = np.zeros(spec.d, dtype=int)
    x[0] = 1
    ix = site_index(spec, x)
    imx = site_index(spec, -x)
    acc = np.zeros((samples, 4))
    for k in range(samples):
        pos, vel = _reference_draw(spec, e, rng)
        v0 = vel[0, 0]
        dq = pos[0, ix] - pos[0, imx]
        acc[k] = (v0 * v0, v0 ** 4, v0 * v0 * vel[0, ix] ** 2,
                  dq * dq * v0 * v0)
    return acc


BATCH_SPECS = [dict(d=1, dstar=2, n=9, b=1.0), dict(d=2, dstar=2, n=4, b=0.0),
               dict(d=1, dstar=3, n=8, b=1.0)]


@pytest.mark.parametrize("kw", BATCH_SPECS)
def test_microcanonical_draw_matches_the_reference(kw):
    spec = LatticeSpec(gamma=1.0, **kw)
    r1, r2 = stream(2, "init"), stream(2, "init")
    for _ in range(20):
        s = sa.sample_microcanonical(spec, 1.5, r1)
        pos, vel = _reference_draw(spec, 1.5, r2)
        assert np.array_equal(s.pos, pos) and np.array_equal(s.vel, vel)


@pytest.mark.parametrize("kw", BATCH_SPECS)
def test_batched_draws_equal_sequential_draws(kw):
    spec = LatticeSpec(gamma=1.0, **kw)
    r1, r2 = stream(4, "init"), stream(4, "init")
    seq = [sa.sample_microcanonical(spec, 2.0, r1) for _ in range(37)]
    pos, vel = sa._sphere_states(
        spec, 2.0, r2.standard_normal((37, sa.sphere_dimension(spec))))
    assert pos.shape == vel.shape == (37, spec.dstar, spec.nsites)
    for k, s in enumerate(seq):
        assert np.array_equal(s.pos, pos[k]) and np.array_equal(s.vel, vel[k])


@pytest.mark.parametrize("kw", BATCH_SPECS)
def test_ensemble_checks_does_not_depend_on_the_chunk(monkeypatch, kw):
    spec = LatticeSpec(gamma=1.0, **kw)
    m = sa.sphere_dimension(spec)
    want = sa.ensemble_checks(spec, 2.0, 1200, stream(6, "init"))
    assert 1200 * m > sa._CHUNK >= m    # the default chunk splits them
    for per_chunk in (1, 7):
        monkeypatch.setattr(sa, "_CHUNK", per_chunk * m)
        assert sa.ensemble_checks(spec, 2.0, 1200, stream(6, "init")) == want


@pytest.mark.parametrize("kw", BATCH_SPECS)
def test_ensemble_checks_matches_a_per_sample_loop(kw):
    spec = LatticeSpec(gamma=1.0, **kw)
    samples = 700
    rep = sa.ensemble_checks(spec, 2.0, samples, stream(9, "init"))
    acc = _reference_moments(spec, 2.0, samples, stream(9, "init"))
    for i, key in enumerate(("v2", "v4", "v2v2", "qqvv")):
        assert rep[key]["mc"] == pytest.approx(acc[:, i].mean(), rel=1e-14)
        se = acc[:, i].std(ddof=1) / np.sqrt(samples)
        assert rep[key]["stderr"] == pytest.approx(se, rel=1e-14)


@pytest.mark.parametrize("samples", [1, 0, -3])
def test_ensemble_checks_needs_two_samples(samples):
    spec = LatticeSpec(d=1, dstar=2, n=9, b=1.0, gamma=1.0)
    with pytest.raises(SpecError, match="samples must be at least 2"):
        sa.ensemble_checks(spec, 2.0, samples, stream(0, "init"))


def test_component_symmetry_ks():
    # (v_0^1)^2 and (v_0^2)^2 identically distributed
    spec = LatticeSpec(d=1, dstar=2, n=9, b=1.0, gamma=1.0)
    rng = stream(11, "init")
    a, b = [], []
    for _ in range(1500):
        s = sa.sample_microcanonical(spec, 2.0, rng)
        a.append(s.vel[0, 0] ** 2)
        b.append(s.vel[1, 0] ** 2)
    assert ks_2samp(a, b).pvalue > 0.01


def test_canonical_marginals_and_tau_shift():
    spec = LatticeSpec(d=1, dstar=2, n=64, b=1.0, gamma=1.0,
                       coords="deformation")
    rng = stream(3, "init")
    beta = 2.0
    rs, vs = [], []
    for _ in range(200):
        s = sa.sample_canonical(spec, beta, rng=rng)
        rs.append(s.pos.ravel())
        vs.append(s.vel.ravel())
    rs, vs = np.concatenate(rs), np.concatenate(vs)
    se = np.sqrt(2.0) / beta / np.sqrt(len(rs))
    assert abs(rs.var() - 1 / beta) < 3 * se
    assert abs(vs.var() - 1 / beta) < 3 * se
    assert abs(rs.mean()) < 3 / np.sqrt(beta * len(rs))
    s = sa.sample_canonical(spec, 100.0, tau=(1.5, -0.5), rng=rng)
    assert s.pos[0].mean() == pytest.approx(-1.5, abs=0.1)
    assert s.pos[1].mean() == pytest.approx(0.5, abs=0.1)


@pytest.mark.parametrize("tau", ["ab", [0.5], [0.5, 0.0, 0.0], 0.5,
                                 [float("nan"), 0.0], [True, 0.0],
                                 [10 ** 400, 0.0]])
def test_canonical_rejects_a_malformed_tilt(tau):
    spec = LatticeSpec(d=1, dstar=2, n=8, b=1.0, gamma=1.0,
                       coords="deformation")
    with pytest.raises(SpecError, match="tau"):
        sa.sample_canonical(spec, 1.0, tau=tau, rng=stream(0, "init"))


def test_canonical_default_tilt_is_zero():
    spec = LatticeSpec(d=1, dstar=2, n=8, b=1.0, gamma=1.0,
                       coords="deformation")
    plain = sa.sample_canonical(spec, 1.0, rng=stream(0, "init"))
    zero = sa.sample_canonical(spec, 1.0, tau=[0, 0], rng=stream(0, "init"))
    assert np.array_equal(plain.pos, zero.pos)


def test_canonical_mean_current_vanishes():
    from magnon_gk.lattice import total_current
    spec = LatticeSpec(d=1, dstar=2, n=16, b=1.0, gamma=1.0,
                       coords="deformation")
    rng = stream(5, "init")
    vals = [total_current(sa.sample_canonical(spec, 1.0, rng=rng))
            for _ in range(2000)]
    vals = np.asarray(vals)
    assert abs(vals.mean()) < 3 * vals.std(ddof=1) / np.sqrt(len(vals))


def test_canonical_rbar_vbar_current_identity():
    # E[rbar^j vbar^k j^a_{0,1}] = -delta_{jk}/(N^2 beta^2), via the exact
    # Gaussian pairing rather than Monte Carlo
    from magnon_gk.observables import (bond_current_observable,
                                       gaussian_pair_expectation,
                                       QuadraticObservable)
    n, beta = 16, 1.5
    spec = LatticeSpec(d=1, dstar=2, n=n, b=1.0, gamma=1.0,
                       coords="deformation")
    j = bond_current_observable(spec, 0)
    for jr in range(2):
        for jv in range(2):
            u = QuadraticObservable.zeros(spec)
            rows = slice(jr * n, (jr + 1) * n)
            cols = slice(2 * n + jv * n, 2 * n + (jv + 1) * n)
            u.kernel[rows, cols] += 0.5 / n ** 2
            u.kernel[cols, rows] += 0.5 / n ** 2
            got = gaussian_pair_expectation(u, j, 1.0 / beta)
            want = -(jr == jv) / (n * n * beta * beta)
            assert got == pytest.approx(want, abs=1e-15)


def test_canonical_requires_deformation():
    with pytest.raises(Exception):
        sa.sample_canonical(LatticeSpec(d=1, dstar=2, n=8, b=1.0, gamma=1.0),
                            1.0, rng=stream(0, "init"))
