import numpy as np
import pytest

from magnon_gk.lattice import LatticeSpec, SpecError
from magnon_gk import resolvent as rv
from magnon_gk.observables import (
    bond_current_observable, gaussian_pair_expectation,
    total_current_observable,
)
from magnon_gk.spectral import laplace_canonical, laplace_micro

DEF = dict(d=1, dstar=2, n=8)

VARIANT_SPECS = [
    LatticeSpec(**DEF, b=1.0, gamma=1.0),
    LatticeSpec(**DEF, b=0.0, gamma=1.0),
    LatticeSpec(**DEF, b=0.0, gamma=0.5, coords="deformation"),
    LatticeSpec(**DEF, b=1.0, gamma=1.0, coords="deformation"),
    LatticeSpec(**DEF, b=-2.0, gamma=0.5, charge="alternate",
                coords="deformation"),
    LatticeSpec(d=1, dstar=1, n=8, b=0.0, gamma=1.0),
]


def kernel_spec(n, d, b, gamma):
    return LatticeSpec(d=d, dstar=2, n=n, b=b, gamma=gamma)


def test_ghat_scalar_values():
    assert rv.ghat_scalar(0.0, 1.0, 1.0) == 0.0
    # omega^2 = 2 at theta = 1/4 -> i/3
    assert rv.ghat_scalar(0.25, 1.0, 1.0) == pytest.approx(1j / 3)
    # d=2 point: omega^2 = 4 sin^2(pi/4) + 4 sin^2(pi/2) = 6
    got = rv.ghat_scalar((0.25, 0.5), 2.0, 0.5)
    assert got == pytest.approx(1j * 1.0 / (2.0 + 0.5 * 6.0))


def test_scalar_kernel_solves_discrete_equation():
    n, lam, g = 16, 1.0, 1.0
    ker = rv.scalar_kernel(kernel_spec(n, 1, 0.0, g), lam)
    lap = np.roll(ker, -1) - 2 * ker + np.roll(ker, 1)
    rhs = np.zeros(n)
    rhs[-1], rhs[1] = 0.5, -0.5
    assert np.abs(lam * ker - g * lap - rhs).max() < 1e-12


@pytest.mark.parametrize("maker,args", [
    (rv.scalar_kernel, (kernel_spec(12, 1, 0.0, 0.9), 0.7)),
    (lambda *a: rv.uniform_kernels(*a)[1], (kernel_spec(12, 1, 1.3, 0.9),
                                            0.7)),
    (lambda *a: rv.alternate_kernels(*a)[2], (12, 0.7, 1.3, 0.9)),
])
def test_kernel_antisymmetry_and_zero_sum(maker, args):
    ker = maker(*args)
    n = 12
    rev = ker[(-np.arange(n)) % n]
    assert np.abs(ker + rev).max() < 1e-12
    assert abs(ker.sum()) < 1e-12


def test_uniform_kernels_b0_decouple():
    n = 10
    spec = kernel_spec(n, 1, 0.0, 0.8)
    g1, g2, g3, g4 = rv.uniform_kernels(spec, 1.0)
    assert np.allclose(g2, rv.scalar_kernel(spec, 1.0), atol=1e-13)
    for k in (g1, g3, g4):
        assert np.abs(k).max() < 1e-13


def test_ghat_uniform_closed_form():
    # solved values match the explicit P/Q expressions
    rng = np.random.default_rng(3)
    for _ in range(50):
        th, lam = rng.uniform(0.01, 0.49), rng.uniform(0.2, 3.0)
        b, g = rng.uniform(-3, 3), rng.uniform(0.2, 2.0)
        om2 = 4 * np.sin(np.pi * th) ** 2
        lg = lam + g * om2
        P = lg * (lam * lam + 2 * lam * g * om2 + 4 * om2)
        Q = lg * P + b * b * lam * (lam + 2 * g * om2)
        pref = 1j * np.sin(2 * np.pi * th) / Q
        want = pref * np.array([-2 * b * om2 * (lam + 2 * g * om2), P,
                                b * lam * (lam + 2 * g * om2), 2 * b * lam])
        got = rv.ghat_uniform(th, lam, b, g)
        assert np.allclose(got, want, rtol=1e-10)


def test_ghat_uniform_g2_gives_laplace_integrand():
    # -i g^2 sin / omega^2 is the coupled-plane Laplace weight; integrating it
    # over theta reproduces the infinite-lattice transform
    from scipy.integrate import quad
    lam, b, g = 1.0, 1.0, 1.0

    def f(th):
        g2 = rv.ghat_uniform(th, lam, b, g)[1]
        om2 = 4 * np.sin(np.pi * th) ** 2
        return (-1j * g2 * np.sin(2 * np.pi * th) / om2).real

    val, _ = quad(f, 0, 1, limit=200)
    # laplace_micro = (2 E^2/dstar^2) I_pq + 0 for dstar=2; here E=1, I_pq=val/2...
    # direct relation: micro transform = (E^2/2) * val with E=dstar* per-site energy 1
    assert laplace_micro(lam, 1, 2, b, g, 1.0) == pytest.approx(0.5 * val,
                                                                rel=1e-9)


def test_hhat_alternate_system_residual():
    rng = np.random.default_rng(4)
    for _ in range(50):
        th, lam = rng.uniform(0, 0.5), rng.uniform(0.2, 3.0)
        b, g = rng.uniform(-3, 3), rng.uniform(0.2, 2.0)
        sol = rv.hhat_alternate(th, lam, b, g)
        m = rv._alternate_matrix(np.cos(2 * np.pi * th), b, g, lam)
        rhs = np.array([1j * np.sin(2 * np.pi * th), 0, 0, 0])
        assert np.abs(m @ sol - rhs).max() < 1e-12


def test_hhat_alternate_b0_reduces_to_scalar():
    for th in (0.1, 0.3, 0.45):
        sol = rv.hhat_alternate(th, 1.0, 0.0, 0.7)
        assert sol[0] + sol[1] == pytest.approx(
            complex(rv.ghat_scalar(th, 1.0, 0.7)), abs=1e-13)


def test_hhat_alternate_rs_identity():
    # -i h^3 sin/omega^2 = cos^2(pi theta) R/S
    from magnon_gk.spectral import _rs_ratio
    rng = np.random.default_rng(5)
    for _ in range(30):
        th, lam = rng.uniform(0.02, 0.48), rng.uniform(0.3, 2.5)
        b, g = rng.uniform(0.2, 3), rng.uniform(0.2, 2.0)
        sol = rv.hhat_alternate(th, lam, b, g)
        h3 = sol[0] + sol[1]
        om2 = 4 * np.sin(np.pi * th) ** 2
        lhs = (-1j * h3 * np.sin(2 * np.pi * th) / om2).real
        want = np.cos(np.pi * th) ** 2 * _rs_ratio(lam, np.array([th]), b, g)[0]
        assert lhs == pytest.approx(want, rel=1e-10)


def test_alternate_even_kernels_supported_on_even_sites():
    h1, h2, h3, h4 = rv.alternate_kernels(12, 0.8, 1.5, 0.6)
    assert np.abs(h1[1::2]).max() < 1e-13
    assert np.abs(h2[1::2]).max() < 1e-13


def test_alternate_kernels_odd_n_rejected():
    with pytest.raises(Exception):
        rv.alternate_kernels(9, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("spec", VARIANT_SPECS)
def test_position_residual_machine_zero(spec):
    for lam in (0.5, 2.0):
        assert rv.position_residual(spec, lam) < 1e-12


def test_position_residual_d2():
    spec = LatticeSpec(d=2, dstar=2, n=6, b=-2.0, gamma=1.0)
    assert rv.position_residual(spec, 1.0) < 1e-12


def test_residual_sensitive_to_kernel_perturbation():
    spec = LatticeSpec(**DEF, b=1.0, gamma=1.0)
    u = rv.build_u(spec, 1.0)
    eps = 1e-4
    u.kernel[0, 1] += eps / 2
    u.kernel[1, 0] += eps / 2
    from magnon_gk.observables import drift_matrix, residual_norm
    res = residual_norm(1.0, u, total_current_observable(spec, 0),
                        drift_matrix(spec))
    assert eps / 2 < res < 100 * eps  # linear response, not swallowed


def test_phi_matrix_defining_identity():
    spec = LatticeSpec(**DEF, b=1.0, gamma=1.0, coords="deformation")
    t = rv.phi_matrix(spec)
    rng = np.random.default_rng(0)
    z = rng.standard_normal(spec.flat_size)
    q = (t @ z)[:spec.nsites]
    r = z[:spec.nsites]
    rbar = r.mean()
    assert np.allclose(np.roll(q, -1) - q, r - rbar)
    assert abs(q[0]) < 1e-12  # the suffix sum over the whole ring vanishes
    # velocities pass through untouched
    assert np.allclose((t @ z)[2 * spec.nsites:], z[2 * spec.nsites:])


@pytest.mark.parametrize("spec", [s for s in VARIANT_SPECS
                                  if s.coords == "deformation"])
def test_certify_reduction_all_variants(spec):
    for lam in (0.5, 1.0, 2.0):
        rep = rv.certify_reduction(spec, lam)
        assert rep["pass"], rep
        assert rep["qv_residual"] < 1e-12
        assert rep["pushforward_residual"] < 1e-12
        assert rep["vstarstar_residual"] < 1e-13
        assert rep["row_sum"] < 1e-13


def test_run_certification_matrix():
    rep = rv.run_certification(n=6)
    assert rep["pass"]
    assert len(rep["cases"]) == 3 * 3 * 2 * 2


def test_run_certification_cases_have_one_shape():
    keys = {"spec", "lambda", "row_sum", "qv_residual",
            "pushforward_residual", "vstarstar_residual", "pass"}
    for case in rv.run_certification(n=4)["cases"]:
        assert set(case) == keys


def test_uniform_case_qv_residual_is_the_position_residual():
    # the (q, v) residual of the uniform deformation case is the position
    # spec's, bit for bit: that is why the matrix runs no position case
    checked = 0
    for case in rv.run_certification(n=6)["cases"]:
        spec = LatticeSpec.from_json(case["spec"])
        if spec.charge == "uniform":
            pos = LatticeSpec(d=1, dstar=2, n=6, b=spec.b, gamma=spec.gamma)
            assert case["qv_residual"] == rv.position_residual(
                pos, case["lambda"])
            checked += 1
    assert checked == 3 * 3 * 2


def test_run_certification_has_no_repeated_case():
    cases = rv.run_certification(n=4)["cases"]
    keys = {(c["spec"], c["lambda"]) for c in cases}
    assert len(keys) == len(cases)


@pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
def test_position_observable_rejects_lambda_by_name(lam):
    # nan ended in "SingularKernelError: Singular matrix"
    with pytest.raises(SpecError, match="^lam must be finite and > 0"):
        rv.position_observable(LatticeSpec(**DEF, b=1.0, gamma=1.0), lam)


def test_certify_reduction_rejects_position_coords():
    with pytest.raises(Exception):
        rv.certify_reduction(LatticeSpec(**DEF, b=1.0, gamma=1.0), 1.0)


@pytest.mark.parametrize("charge,variant,b,g", [
    ("uniform", "0", 0.0, 1.0),
    ("uniform", "i", 1.0, 1.0),
    ("alternate", "ii", 1.0, 0.5),
])
def test_finite_n_expectation_converges_to_laplace(charge, variant, b, g):
    """Wick-exact E[(u.Phi - v**) j] at finite N vs the closed-form transform."""
    beta, lam = 1.0, 1.0
    target = laplace_canonical(lam, variant, b, g, beta)
    diffs = []
    for n in (32, 128):
        spec = LatticeSpec(d=1, dstar=2, n=n, b=b, gamma=g, charge=charge,
                           coords="deformation")
        v = rv.build_u(spec, lam) - rv.vstarstar(spec, lam)
        dn = gaussian_pair_expectation(v, bond_current_observable(spec, 0),
                                       1.0 / beta)
        diffs.append(abs(dn - target))
    assert diffs[1] <= diffs[0] + 1e-12
    assert diffs[1] < 1e-10


def test_vstarstar_expectation_vanishes_like_one_over_n():
    # E[rbar^j vbar^k j] = -delta_{jk}/(N^2 beta^2), so
    # E[v** j^a_{0,1}] = -2 lam / (N (lam^2 + B^2) beta^2) -> 0
    lam, beta, b = 1.0, 1.0, 1.0
    for n in (16, 64):
        spec = LatticeSpec(d=1, dstar=2, n=n, b=b, gamma=1.0,
                           coords="deformation")
        got = gaussian_pair_expectation(
            rv.vstarstar(spec, lam), bond_current_observable(spec, 0),
            1.0 / beta)
        assert got == pytest.approx(-2 * lam / (n * (lam ** 2 + b ** 2)),
                                    rel=1e-12)
