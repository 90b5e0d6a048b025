import numpy as np
import pytest

from magnon_gk.lattice import LatticeSpec, PhaseState, SpecError
from magnon_gk.observables import (
    QuadraticObservable, apply_drift, apply_generator, apply_swap_sum,
    bond_current_observable, drift_matrix, eval_observable,
    field_generator_matrix, linear_observable, residual_norm, swap_pairs,
    total_current_observable, total_energy_observable,
)

SPECS = [
    LatticeSpec(d=1, dstar=2, n=6, b=1.5, gamma=0.7),
    LatticeSpec(d=1, dstar=2, n=6, b=0.0, gamma=0.7),
    LatticeSpec(d=2, dstar=3, n=4, b=-2.0, gamma=1.0),
    LatticeSpec(d=1, dstar=2, n=6, b=0.0, gamma=1.0, coords="deformation"),
    LatticeSpec(d=1, dstar=2, n=6, b=1.0, gamma=0.5, coords="deformation"),
    LatticeSpec(d=1, dstar=2, n=6, b=1.0, gamma=0.5, charge="alternate",
                coords="deformation"),
]


def random_obs(spec, rng, with_linear=True):
    m = spec.flat_size
    K = rng.standard_normal((m, m))
    K = 0.5 * (K + K.T)
    b = rng.standard_normal(m) if with_linear else np.zeros(m)
    return QuadraticObservable(spec, K, b, float(rng.standard_normal()))


def random_state(spec, rng):
    return PhaseState(spec,
                      rng.standard_normal((spec.dstar, spec.nsites)),
                      rng.standard_normal((spec.dstar, spec.nsites)))


def test_eval_matches_naive_double_loop():
    spec = SPECS[0]
    rng = np.random.default_rng(0)
    u = random_obs(spec, rng)
    s = random_state(spec, rng)
    z = s.flatten()
    naive = u.constant + sum(u.linear[i] * z[i] for i in range(len(z)))
    for i in range(len(z)):
        for j in range(len(z)):
            naive += z[i] * u.kernel[i, j] * z[j]
    assert eval_observable(u, s) == pytest.approx(naive, rel=1e-12)


def brute_swap_sum(u):
    """Oracle: sum over swaps of u(Pz) - u(z) using explicit permutations."""
    m = u.spec.flat_size
    Kout = np.zeros((m, m))
    bout = np.zeros(m)
    for i1, i2 in swap_pairs(u.spec):
        P = np.eye(m)
        P[[i1, i2]] = P[[i2, i1]]
        Kout += P.T @ u.kernel @ P - u.kernel
        bout += P.T @ u.linear - u.linear
    return Kout, bout


@pytest.mark.parametrize("spec", SPECS)
def test_swap_sum_matches_permutation_oracle(spec):
    rng = np.random.default_rng(13)
    u = random_obs(spec, rng)
    su = apply_swap_sum(u)
    Kref, bref = brute_swap_sum(u)
    assert np.allclose(su.kernel, Kref, atol=1e-12)
    assert np.allclose(su.linear, bref, atol=1e-12)
    assert su.constant == 0.0


def test_kernel_symmetry_checked_to_1e12_absolute():
    # a relative tolerance would let this kernel through; apply_swap_sum
    # relies on K = K^T
    spec = SPECS[0]
    m = spec.flat_size
    K = np.zeros((m, m))
    K[0, 1], K[1, 0] = 1.0, 1.0 + 5e-6
    with pytest.raises(SpecError):
        QuadraticObservable(spec, K, np.zeros(m))
    K[1, 0] = 1.0 + 5e-13
    QuadraticObservable(spec, K, np.zeros(m))


def test_symmetry_checked_where_kernels_come_in(monkeypatch):
    # the generator's kernels are checked where they are built; the sums and
    # scalings in between are symmetric by construction
    spec = SPECS[0]
    rng = np.random.default_rng(2)
    u = random_obs(spec, rng)
    checks = []
    post_init = QuadraticObservable.__post_init__
    monkeypatch.setattr(QuadraticObservable, "__post_init__",
                        lambda self: checks.append(1) or post_init(self))
    residual_norm(0.7, u, 2.0 * u, drift_matrix(spec))
    assert len(checks) == 2  # apply_drift and apply_swap_sum
    # a sum or scaling still checks its shapes
    with pytest.raises(SpecError):
        u * np.ones((2, 1, 1))


@pytest.mark.parametrize("spec", SPECS)
def test_drift_matches_finite_difference_flow(spec):
    # (u(e^{eps M} z) - u(e^{-eps M} z)) / (2 eps) ~ (Mu)(z)
    rng = np.random.default_rng(4)
    u = random_obs(spec, rng)
    M = drift_matrix(spec)
    du = apply_drift(u, M)
    z = random_state(spec, rng).flatten()
    eps = 1e-6
    from scipy.linalg import expm
    zp = expm(eps * M) @ z
    zm = expm(-eps * M) @ z
    def ev(zz):
        return zz @ u.kernel @ zz + u.linear @ zz + u.constant
    fd = (ev(zp) - ev(zm)) / (2 * eps)
    assert fd == pytest.approx(
        z @ du.kernel @ z + du.linear @ z, rel=1e-7, abs=1e-7)


@pytest.mark.parametrize("spec", SPECS)
def test_generator_annihilates_total_energy(spec):
    lu = apply_generator(total_energy_observable(spec), drift_matrix(spec))
    assert np.linalg.norm(lu.kernel) < 1e-12
    assert np.linalg.norm(lu.linear) < 1e-12


def test_field_term_on_linear_velocity_sum():
    spec = SPECS[0]
    ns, ds = spec.nsites, spec.dstar
    vec = np.zeros(spec.flat_size)
    vec[ds * ns: ds * ns + ns] = 1.0  # sum of first velocity components
    u = linear_observable(spec, vec)
    gu = apply_drift(u, field_generator_matrix(spec))
    want = np.zeros(spec.flat_size)
    want[ds * ns + ns: ds * ns + 2 * ns] = 1.0
    assert np.allclose(gu.linear, want)


def test_swap_of_single_site_velocity_square():
    # u = (v_0^1)^2 in d=1: two bonds touch site 0
    spec = LatticeSpec(d=1, dstar=2, n=5, b=0.0, gamma=1.0)
    u = QuadraticObservable.zeros(spec)
    i0 = spec.dstar * spec.nsites
    u.kernel[i0, i0] = 1.0
    su = apply_swap_sum(u)
    want = np.zeros_like(u.kernel)
    want[i0, i0] = -2.0
    want[i0 + 1, i0 + 1] = 1.0
    want[i0 + 4, i0 + 4] = 1.0
    assert np.allclose(su.kernel, want)


def test_generator_is_linear():
    spec = SPECS[4]
    M = drift_matrix(spec)
    rng = np.random.default_rng(8)
    u, w = random_obs(spec, rng), random_obs(spec, rng)
    lhs = apply_generator(2.5 * u + (-1.25) * w, M)
    rhs = 2.5 * apply_generator(u, M) + (-1.25) * apply_generator(w, M)
    assert np.allclose(lhs.kernel, rhs.kernel, atol=1e-10)
    assert np.allclose(lhs.linear, rhs.linear, atol=1e-10)


def test_pseudomomentum_annihilated_by_micro_generator():
    spec = SPECS[0]
    ns, ds = spec.nsites, spec.dstar
    b = spec.b
    for j, sgn in ((0, -1.0), (1, 1.0)):
        vec = np.zeros(spec.flat_size)
        vec[ds * ns + j * ns: ds * ns + (j + 1) * ns] = 1.0
        vec[(1 - j) * ns: (2 - j) * ns] = sgn * b
        lu = apply_generator(linear_observable(spec, vec), drift_matrix(spec))
        assert np.linalg.norm(lu.linear) < 1e-12
        assert np.linalg.norm(lu.kernel) < 1e-12


def test_alternate_invariants_annihilated():
    spec = SPECS[5]
    ns, ds = spec.nsites, spec.dstar
    M = drift_matrix(spec)
    even = np.arange(0, ns, 2)
    for j, sgn in ((0, 1.0), (1, -1.0)):
        vec = np.zeros(spec.flat_size)
        vec[ds * ns + j * ns: ds * ns + (j + 1) * ns] = 1.0  # all sites
        vec[(1 - j) * ns + even] = sgn * spec.b
        lu = apply_generator(linear_observable(spec, vec), M)
        assert np.linalg.norm(lu.linear) < 1e-12
        assert np.linalg.norm(lu.kernel) < 1e-12


def test_total_deformation_annihilated():
    spec = SPECS[4]
    ns, ds = spec.nsites, spec.dstar
    vec = np.zeros(spec.flat_size)
    vec[:ns] = 1.0
    lu = apply_generator(linear_observable(spec, vec), drift_matrix(spec))
    assert np.linalg.norm(lu.linear) < 1e-12


def test_residual_norm_zero_case_and_perturbation():
    spec = SPECS[0]
    M = drift_matrix(spec)
    zero = QuadraticObservable.zeros(spec)
    assert residual_norm(1.0, zero, zero, M) == 0.0
    lam = 2.0
    u = QuadraticObservable.zeros(spec)
    u.kernel[0, 0] = 1e-3
    # (lam - L)u picks up at least lam * the perturbation in Frobenius norm
    assert residual_norm(lam, u, zero, M) >= lam * 1e-3 - 1e-12


def test_residual_norm_rejects_nonpositive_lambda():
    spec = SPECS[0]
    zero = QuadraticObservable.zeros(spec)
    with pytest.raises(Exception):
        residual_norm(0.0, zero, zero, drift_matrix(spec))


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_residual_norm_rejects_a_non_finite_lambda(lam):
    # inf printed RuntimeWarnings and returned nan
    spec = SPECS[0]
    zero = QuadraticObservable.zeros(spec)
    with pytest.raises(SpecError, match="^lam must be finite"):
        residual_norm(lam, zero, zero, drift_matrix(spec))


def test_total_current_observable_matches_pointwise_sum():
    from magnon_gk.lattice import total_current
    rng = np.random.default_rng(31)
    for spec in (SPECS[0], SPECS[2], SPECS[4]):
        u = total_current_observable(spec, 0)
        s = random_state(spec, rng)
        assert eval_observable(u, s) == pytest.approx(
            total_current(s, 0), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("spec", SPECS)
def test_bond_current_observable_matches_lattice(spec):
    from magnon_gk.lattice import bond_currents
    rng = np.random.default_rng(33)
    states = [random_state(spec, rng) for _ in range(3)]
    for a in range(spec.d):
        for x in range(spec.nsites):
            u = bond_current_observable(spec, x, a)
            for s in states:
                want = bond_currents(spec, s.pos, s.vel)[a, x]
                assert eval_observable(u, s) == pytest.approx(
                    want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("spec", SPECS)
def test_total_current_kernel_is_sum_of_bond_kernels(spec):
    for a in range(spec.d):
        total = QuadraticObservable.zeros(spec)
        for x in range(spec.nsites):
            total = total + bond_current_observable(spec, x, a)
        u = total_current_observable(spec, a)
        assert np.array_equal(u.kernel, total.kernel)
        assert not u.linear.any() and u.constant == 0.0


def test_energy_observable_matches_lattice_energy():
    from magnon_gk.lattice import total_energy
    rng = np.random.default_rng(32)
    for spec in SPECS:
        u = total_energy_observable(spec)
        s = random_state(spec, rng)
        assert eval_observable(u, s) == pytest.approx(total_energy(s),
                                                      rel=1e-12)


def test_symmetry_of_noise_antisymmetry_of_drift_under_gaussian():
    """E[u Sw] = E[w Su] and E[u Aw] = -E[w Au] for the product Gaussian."""
    spec = SPECS[4]
    rng = np.random.default_rng(99)
    u, w = random_obs(spec, rng, with_linear=False), \
        random_obs(spec, rng, with_linear=False)
    su, sw = apply_swap_sum(u), apply_swap_sum(w)
    M = drift_matrix(spec)
    au, aw = apply_drift(u, M), apply_drift(w, M)
    n = 40000
    m = spec.flat_size
    z = rng.standard_normal((n, m))

    def ev(obs, zz):
        return np.einsum("ni,ij,nj->n", zz, obs.kernel, zz) + obs.constant

    def pair(a, b):
        prod = ev(a, z) * ev(b, z)
        return prod.mean(), prod.std() / np.sqrt(n)

    m1, e1 = pair(u, sw)
    m2, e2 = pair(w, su)
    assert abs(m1 - m2) < 3 * np.hypot(e1, e2)
    m3, e3 = pair(u, aw)
    m4, e4 = pair(w, au)
    assert abs(m3 + m4) < 3 * np.hypot(e3, e4)
