import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ive

from magnon_gk import spectral as sp
from magnon_gk._kernels import eigen_tables
from magnon_gk.lattice import LatticeSpec, neighbor_tables, omega2
from magnon_gk.observables import _swap_indices
from magnon_gk.sampling import _mode_tables


def test_omega2_values():
    assert omega2(0.0) == 0.0
    assert omega2(0.5) == pytest.approx(4.0)
    assert omega2((0.5, 0.5)) == pytest.approx(8.0)
    # vectorised with the axis last
    assert np.allclose(omega2(np.array([[0.5, 0.5], [0.0, 0.25]])), [8.0, 2.0])


def dispersion(theta, b):
    """The mode frequencies Omega +- B/2 that the backends run, with Omega
    from ``_kernels.eigen_tables`` at the wavenumber theta."""
    om2 = np.atleast_1d(omega2(theta))
    om = eigen_tables(np.ones_like(om2, dtype=complex), om2, b)["iom"].imag
    return om[0] + 0.5 * b, om[0] - 0.5 * b


def test_dispersion_limits():
    p, m = dispersion(0.3, 0.0)
    assert p == pytest.approx(m) and p == pytest.approx(np.sqrt(omega2(0.3)))
    p, m = dispersion(0.0, 2.0)
    assert (p, m) == (pytest.approx(2.0), pytest.approx(0.0))


def test_dispersion_flat_at_origin():
    # derivative in theta^1 vanishes at 0 for both branches
    h = 1e-4
    for b in (1.0, 3.0):
        for branch in (0, 1):
            slope = (dispersion(2 * h, b)[branch]
                     - dispersion(h, b)[branch]) / h
            assert abs(slope) < 1e-2 * 4  # ~ O(h), not O(1)
        # compare against an acoustic chain where the slope is order 1
    acoustic = (np.sqrt(omega2(2 * h)) - np.sqrt(omega2(h))) / h
    assert acoustic > 3.0


def _uniform_at(theta, b, g):
    """Uniform-charge coefficients at one wavenumber, as floats."""
    u = sp._uniform_arrays(np.array([omega2(theta)]), b, g)
    return {k: float(v[0]) for k, v in u.items()}


def test_uniform_coeffs_zero_mode_with_field():
    c = _uniform_at(0.0, 3.0, 1.0)
    assert c["a1"] == pytest.approx(3.0)
    assert c["a2"] == pytest.approx(0.0)
    assert c["b1"] == pytest.approx(1.0)
    assert c["b2"] == pytest.approx(0.0, abs=1e-14)


def test_uniform_coeffs_degenerate_rejected():
    # B=0 has no alpha/beta split; the closed forms use the free decay
    with pytest.raises(ValueError):
        sp._uniform_arrays(np.array([0.0]), 0.0, 1.0)


def test_uniform_coeffs_defining_equations():
    # alpha1^2 - alpha2^2 and alpha1^2 alpha2^2 residuals (self-oracle)
    rng = np.random.default_rng(1)
    for _ in range(200):
        th = rng.uniform(1e-4, 0.5)
        b = rng.uniform(-3, 3)
        g = rng.uniform(0.2, 2.0)
        c = _uniform_at(th, b, g)
        om2 = omega2(th)
        d = b * b - g * g * om2 * om2 + 4 * om2
        scale = max(1.0, abs(d))
        assert abs(c["a1"] ** 2 - c["a2"] ** 2 - d) <= 1e-10 * scale
        assert abs(c["a1"] ** 2 * c["a2"] ** 2
                   - g * g * b * b * om2 * om2) <= 1e-10 * scale
        # decay-rate ordering: alpha2 <= gamma omega^2 everywhere
        assert c["a2"] <= g * om2 + 1e-12


def test_uniform_small_theta_ratios():
    # alpha2/(gamma omega^2) -> 1 and beta2 B^2/omega^2 -> 2 as theta -> 0
    b, g = 1.7, 0.9
    for th, tol in ((1e-3, 2e-4), (1e-5, 2e-8), (1e-7, 2e-11)):
        c = _uniform_at(th, b, g)
        om2 = omega2(th)
        assert c["a2"] / (g * om2) == pytest.approx(1.0, abs=tol)
        assert c["b2"] * b * b / om2 == pytest.approx(2.0, abs=tol)


def test_laplace_micro_b0_reduction():
    # with B=0 the coupled-plane ratio collapses to the scalar one
    lam, g = 1.0, 0.7
    full = sp.laplace_micro(lam, 1, 2, 0.0, g, 1.0)

    def scalar(th):
        om2 = omega2(th)
        w = np.cos(np.pi * th) ** 2
        return w / (lam + g * om2)

    ref, _ = quad(scalar, 0, 1)
    assert full == pytest.approx(ref / 2.0, rel=1e-10)


def test_laplace_micro_abelian_limit():
    # lam * transform -> value at t=0
    c0 = sp.c_infty(0.0, 1, 2, 1.0, 1.0, 1.0)
    for lam in (1e3, 1e4):
        assert lam * sp.laplace_micro(lam, 1, 2, 1.0, 1.0, 1.0) == \
            pytest.approx(c0, rel=5e-3)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_laplace_consistency_micro(lam):
    # numeric transform of the assembled inverse matches the direct formula
    num, _ = quad(lambda s: sp.c_infty(s, 1, 2, 1.0, 1.0, 1.0, n=300)
                  * np.exp(-lam * s), 0, 120, limit=400)
    assert num == pytest.approx(sp.laplace_micro(lam, 1, 2, 1.0, 1.0, 1.0),
                                rel=1e-5)


def test_laplace_canonical_matches_micro_reweighted():
    # d=1 identity sin^2(2 pi t)/omega^2 = cos^2(pi t) ties the two forms
    for lam in (0.5, 2.0):
        a = sp.laplace_micro(lam, 1, 2, 1.0, 1.0, 1.0)
        c = sp.laplace_canonical(lam, "i", 1.0, 1.0, 1.0)
        assert a == pytest.approx(c / 4.0, rel=1e-10)


def test_laplace_canonical_variant_ii_b0_collapses():
    a = sp.laplace_canonical(1.0, "ii", 0.0, 0.5, 1.0)
    b = sp.laplace_canonical(1.0, "0", 0.0, 0.5, 1.0)
    assert a == pytest.approx(b, rel=1e-8)


def test_denominator_positivity_scan():
    # the variant-ii denominator stays positive on the whole wavenumber range
    lam, b, g = 0.8, 1.5, 0.9
    th = np.linspace(0, 1, 2001)
    lb = lam + 2 * g
    c = np.cos(2 * np.pi * th)
    A = (b * b + lb ** 2) * (8 - 4 * g * g + lb ** 2) - 8 * b * b
    E = 4 + 4 * g ** 4 - g * g * (8 + lb ** 2)
    S = ((b * b + lb ** 2) * A
         + 8 * (-b * b * g * g * (4 - 4 * g * g + lb ** 2)
                + lb ** 2 * (2 + 4 * g ** 4 - g * g * (8 + lb ** 2))) * c ** 2
         - 16 * g * g * E * c ** 4)
    Y = lam * lam + 4 * lam * g
    assert np.all(S >= Y ** 3 - 1e-9)


def test_c4_bessel_closed_form():
    # d=1: C4(t) = e^{-2 gamma t}(I0 + I1)(2 gamma t)/2
    g = 1.0
    for t in (0.0, 0.5, 3.0, 50.0, 1e4):
        c4 = sp.c_components(t, 1, 1.0, g)[3]
        assert c4 == pytest.approx(0.5 * (ive(0, 2 * g * t)
                                          + ive(1, 2 * g * t)), rel=1e-10)


def test_c_components_t0_pair_equality():
    c1, c2, c3, c4 = sp.c_components(0.0, 1, 1.0, 1.0)
    assert c2 == pytest.approx(c3, rel=1e-12)
    # and the sum reconstructs the t=0 weight integral: sum = c4 exactly
    # (beta1 + 2 beta2 = 1 pointwise)
    assert c1 + c2 + c3 == pytest.approx(c4, rel=1e-10)


@pytest.mark.parametrize("power,col,scale", [
    (1.5, 1, 1.0),   # t^{3/2} C2
    (0.75, 2, 1.0),  # t^{3/4} C3
    (0.5, 3, 1.0),   # t^{1/2} C4
])
def test_component_tails_stabilize(power, col, scale):
    vals = [sp.c_components(t, 1, 1.0, 1.0)[col] * t ** power
            for t in (1e3, 1e4, 1e5)]
    assert vals[-1] > 0
    assert abs(vals[0] / vals[-1] - 1) < 0.10


def test_d_closed_initial_value_all_variants():
    assert sp.d_closed(0.0, "0", 0.0, 1.0, 2.0) == pytest.approx(0.25, rel=1e-8)
    assert sp.d_closed(0.0, "i", 1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-8)
    assert sp.d_closed(0.0, "ii", 1.0, 0.5, 1.0) == pytest.approx(1.0, rel=1e-8)


def test_d_closed_variant0_bessel():
    beta = 1.3
    for g, t in ((0.8, 0.7), (0.8, 12.0), (1.5, 0.7), (1.5, 12.0)):
        want = np.exp(0.0) * (ive(0, 2 * g * t) + ive(1, 2 * g * t)) / beta ** 2
        assert sp.d_closed(t, "0", 0.0, g, beta) == pytest.approx(want,
                                                                  rel=1e-9)


def _window(a, T):
    """int_0^T (1 - s/T) e^{-a s} ds for a >= 0, free of cancellation."""
    x = a * T
    out = np.empty_like(x)
    small = x < 1.0
    out[small] = sum((-x[small]) ** k / math.factorial(k + 2)
                     for k in range(20))
    xl = x[~small]
    out[~small] = (xl - 1.0 + np.exp(-xl)) / xl ** 2
    return T * out


@pytest.mark.parametrize("t", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("g", [0.5, 1.0, 1.5, 3.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_b0_closed_forms_are_free_decay(d, g, t):
    # at B=0 every mode decays as e^{-gamma omega2 t}, also where
    # omega2 (4 - gamma^2 omega2) < 0 (gamma > 1 in d=1, gamma >= 1 in d >= 2)
    n = 40
    pts, wts = sp._tensor_grid(d, n)
    om2 = 4.0 * np.sum(np.sin(np.pi * pts) ** 2, axis=1)
    w = np.sin(2.0 * np.pi * pts[:, 0]) ** 2 / om2 * wts
    for dstar in (2, 3):
        want = float(w @ np.exp(-g * om2 * t)) / dstar
        assert sp.c_infty(t, d, dstar, 0.0, g, 1.0, n=n) == pytest.approx(
            want, rel=1e-12)
        if t > 0:
            want = float(w @ _window(g * om2, t)) / dstar + g / (2 * dstar)
            got = sp.kappa_gk_closed(t, kind="micro", d=d, dstar=dstar,
                                     b=0.0, gamma=g, n=n)
            assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("g", [0.5, 1.0, 1.5])
def test_canonical_variants_coincide_at_b0(g):
    # without a field the charge pattern does not enter
    for t in (0.5, 10.0, 1e4):
        want = sp.kappa_gk_closed(t, kind="canonical", variant="0", gamma=g)
        for v in ("i", "ii"):
            got = sp.kappa_gk_closed(t, kind="canonical", variant=v, b=0.0,
                                     gamma=g)
            assert got == pytest.approx(want, rel=1e-13)
            assert sp.d_closed(t, v, 0.0, g, 1.3) == pytest.approx(
                sp.d_closed(t, "0", 0.0, g, 1.3), rel=1e-13)


def _micro_case(d, dstar, b, n=500):
    return pytest.param(
        dict(kind="micro", d=d, dstar=dstar, b=b, gamma=1.0, n=n),
        lambda s: sp.c_infty(s, d, dstar, b, 1.0, 1.0, n), 1.0 / (2 * dstar),
        id=f"micro-d{d}-dstar{dstar}-B{b:g}")


def _canonical_case(variant, b, g):
    # beta = 2 makes the prefactor beta^2/4 of kappa one
    return pytest.param(
        dict(kind="canonical", variant=variant, b=b, gamma=g),
        lambda s: sp.d_closed(s, variant, b, g, 2.0), g / 4.0,
        id=f"canonical-{variant}-B{b:g}-g{g:g}")


@pytest.mark.parametrize("t", [0.5, 4.0, 16.0])
@pytest.mark.parametrize("kw,corr,noise", [
    _micro_case(1, 2, 0.0), _micro_case(1, 3, 0.0), _micro_case(1, 2, 1.0),
    _micro_case(1, 3, 1.0), _micro_case(2, 2, 1.0, n=100),
    _canonical_case("i", 1.0, 1.0), _canonical_case("ii", 1.0, 0.5),
    _canonical_case("ii", 2.0, 1.0)])
def test_kappa_is_windowed_integral_of_correlation(kw, corr, noise, t):
    # kappa minus its noise constant is int_0^t (1 - s/t) C(s) ds
    want, _ = quad(lambda s: (1.0 - s / t) * corr(s), 0.0, t, epsabs=0.0,
                   epsrel=1e-13, limit=200)
    got = sp.kappa_gk_closed(t, **kw) - noise
    assert got == pytest.approx(want, rel=1e-10)


def test_d_closed_variant_ii_tail():
    vals = [sp.d_closed(t, "ii", 1.0, 0.5, 1.0) * np.sqrt(t)
            for t in (1e2, 1e3, 1e4)]
    assert vals[-1] > 0
    assert abs(vals[0] / vals[-1] - 1) < 0.10


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_laplace_consistency_variant_ii(lam):
    num, _ = quad(lambda s: sp.d_closed(s, "ii", 1.0, 0.5, 1.0, n=300)
                  * np.exp(-lam * s), 0, 80, limit=300)
    assert num == pytest.approx(
        sp.laplace_canonical(lam, "ii", 1.0, 0.5, 1.0), rel=1e-5)


def test_triangular_window_against_quadrature():
    rng = np.random.default_rng(5)
    for _ in range(40):
        z = complex(rng.uniform(-2, 0.05), rng.uniform(-3, 3))
        T = 10 ** rng.uniform(-3, 2)
        if z.real * T > 30:
            continue
        re, _ = quad(lambda t: ((1 - t / T) * np.exp(z * t)).real, 0, T,
                     limit=400)
        im, _ = quad(lambda t: ((1 - t / T) * np.exp(z * t)).imag, 0, T,
                     limit=400)
        got = sp.triangular_window_integral(np.array([z]), T)[0]
        assert got.real == pytest.approx(re, rel=1e-8, abs=1e-12)
        assert got.imag == pytest.approx(im, rel=1e-8, abs=1e-12)


def _window_mp(z, T):
    """The triangular window at the double z in 40-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        zm, tm = mpmath.mpc(z), mpmath.mpf(T)
        if zm == 0:
            return complex(tm / 2)
        return complex(-1 / zm - (1 - mpmath.exp(zm * tm)) / (zm * zm * tm))


@pytest.mark.parametrize("T", [1e-3, 3.0, 1e4])
def test_triangular_window_against_mpmath(T):
    # Re(zT) around the underflow of e^{zT} (-745.13), |zT| on both sides
    # of 0.1 and of the series cut-off 0.5, and z = 0
    edges = [r * s for r in (0.1, 0.5) for s in (1 - 1e-9, 1 + 1e-9)]
    real = [-700.0, -745.0, -746.0, -800.0, 0.0] + edges + [-e for e in edges]
    cplx = ([complex(x, y) for x in (-700.0, -745.0, -746.0, -800.0)
             for y in (1.0, -40.0)] + [0j]
            + [r * np.exp(1j * phi) for r in edges
               for phi in np.linspace(0.1, 2 * np.pi, 12)])
    for zts in (real, cplx):
        zs = np.array(zts) / T
        arr = sp.triangular_window_integral(zs, T)
        assert arr.shape == zs.shape and arr.dtype == zs.dtype
        for z, got in zip(zs, arr):
            want = _window_mp(z, T)
            scalar = sp.triangular_window_integral(z.item(), T)
            assert np.ndim(scalar) == 0
            assert np.iscomplexobj(scalar) == np.iscomplexobj(zs)
            for v in (got, scalar):
                assert abs(v - want) <= 1e-14 * abs(want), (z * T, v, want)


def test_cubic_coeffs_theta0_double_root():
    for b in (1.0, 2.5):
        roots = sp._alt_partial_fractions(np.array([0.0]), b, 0.7)[0]
        roots = np.asarray(roots[:, 0], dtype=float)
        bt2 = (b / 2) ** 2
        assert roots[0] == pytest.approx(0.0, abs=1e-8)
        assert roots[1] == pytest.approx(-bt2 - 1, abs=1e-5)
        assert roots[2] == pytest.approx(-bt2 - 1, abs=1e-5)


def test_cubic_root_ordering_chain():
    rng = np.random.default_rng(7)
    th = np.linspace(0, 0.25, 1001)[1:]
    for _ in range(5):
        b = rng.uniform(0.1, 10.0)
        g = rng.uniform(0.2, 1.0)
        roots, is_complex = sp._cubic_roots(th.astype(np.longdouble), b, g)
        assert not is_complex
        bt2 = (b / 2) ** 2
        r = np.asarray(roots, dtype=float)
        assert np.all(r[0] < 0)
        assert np.all(r[0] > -g * g)
        assert np.all(r[1] < -g * g)
        assert np.all(r[1] > -bt2 - 1)
        assert np.all(r[2] < -bt2 - 1)


@pytest.mark.parametrize("g", [1.2, 1.5, 3.0])
def test_complex_cubic_roots_match_np_roots_per_point(g):
    # the batched companion eigenvalues are what np.roots finds point by
    # point, bit for bit
    b = 1.0
    th = np.concatenate([[1e-6], (np.arange(400) + 0.5) / 400 * 0.25])
    th = th.astype(np.longdouble)
    roots, is_complex = sp._cubic_roots(th, b, g)
    assert is_complex and roots.dtype == np.clongdouble
    c2, c1, c0 = sp._cubic_T_coeffs(th, b, g)
    want = np.array([np.sort_complex(np.roots(
        [1.0, float(c2[i]), float(c1[i]), float(c0[i])]))[::-1]
        for i in range(len(th))]).T
    assert np.array_equal(roots, want.astype(np.clongdouble))


def test_cubic_small_theta_limits():
    b, g = 1.0, 0.7
    roots, s, rU1, rU2, _ = sp._alt_partial_fractions(np.array([1e-4]), b, g)
    root0, s0, b1, b4 = (float(x[0, 0].real) for x in (roots, s, rU1, rU2))
    s2 = np.sin(2 * np.pi * 1e-4) ** 2
    assert root0 / s2 == pytest.approx(
        -8 * g * g * (b * b + 2) / (b * b + 4) ** 2, rel=1e-2)
    assert b1 == pytest.approx(4 * (b * b + 4) / (b * b + 4) ** 2, rel=1e-2)
    assert b1 + b4 / s0 == pytest.approx(8 / (b * b + 4), rel=1e-2)


def test_partial_fraction_reconstruction():
    rng = np.random.default_rng(0)
    th = rng.uniform(1e-3, 0.25, 50)
    b, g = 1.3, 0.8
    roots, s, rU1, rU2, cx = sp._alt_partial_fractions(th, b, g)
    assert not cx
    for lam in (0.7, 1.9):
        lb = lam + 2 * g
        recon = np.zeros(len(th), dtype=np.longdouble)
        S = np.ones(len(th), dtype=np.longdouble)
        for i in range(3):
            recon = recon + (lb * rU1[i] + rU2[i]) / (lb * lb - 4 * g * g
                                                      - 4 * roots[i])
            S = S * (lb * lb - 4 * g * g - 4 * roots[i])
        c2 = np.cos(2 * np.pi * th) ** 2
        Y = lb * lb - 4 * g * g
        bb = b * b
        U1 = (bb + Y + 4 * g * g) * (8 + Y) - 8 * bb \
            + 4 * (4 + bb - 8 * g * g - g * g * Y) * c2
        U2 = (2 * bb * g * (4 + Y) + 2 * g * (Y + 4 * g * g) * (Y + 8)) * c2 \
            + 8 * g * (4 - 8 * g * g - g * g * Y) * c2 ** 2
        err = np.abs(recon - (lb * U1 + U2) / S) / np.abs(recon)
        assert float(np.max(err)) < 1e-9


def test_every_cache_is_bounded():
    import importlib
    import pkgutil

    import magnon_gk
    caches = {f"{m.name}.{name}": f
              for m in pkgutil.iter_modules(magnon_gk.__path__)
              for name, f in vars(importlib.import_module(
                  f"magnon_gk.{m.name}")).items()
              if hasattr(f, "cache_parameters")}
    assert {"spectral._uniform_table", "spectral._alternate_table"} \
        <= caches.keys()
    for name, f in caches.items():
        assert f.cache_parameters()["maxsize"] is not None, name


@pytest.mark.parametrize("table", [
    lambda: sp._uniform_table(1, 1.0, 1.0, 40),
    lambda: sp._uniform_table(2, 0.0, 1.0, 20),
    lambda: sp._alternate_table(1.0, 0.5, 40),
    lambda: sp._alternate_table(1.0, 1.5, 10)],
    ids=["uniform-d1-B1", "uniform-d2-B0", "alternate", "alternate-complex"])
def test_cached_tables_are_read_only(table):
    tab = table()
    arrays = [*tab.c, *tab.z, tab.wts, *tab.profile,
              *sp._tensor_grid(1, 40),
              *sp._tensor_grid(3, 6),
              *sp._axis_nodes(40, 0.25), *sp._gauss_legendre(10),
              *_swap_indices(LatticeSpec(d=2, dstar=3, n=4, b=1.0,
                                         gamma=1.0)),
              *_mode_tables(LatticeSpec(d=2, dstar=2, n=6, b=1.0, gamma=1.0)),
              *neighbor_tables(LatticeSpec(d=2, dstar=2, n=5, b=1.0,
                                           gamma=1.0))]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 1.0


@pytest.mark.parametrize("f", [
    lambda t: sp.c_components(t, 1, 1.0, 1.0),
    lambda t: sp.d_closed(t, "ii", 1.0, 0.5, 1.0),
    lambda t: sp.kappa_gk_closed(t, kind="micro", b=0.0),
    lambda t: sp.kappa_gk_closed(t, kind="micro", b=1.0),
    lambda t: sp.kappa_gk_closed(t, kind="micro", d=3, b=0.0, n=24),
    lambda t: sp.kappa_gk_closed(t, kind="micro", d=3, b=1.0, n=24),
    lambda t: sp.kappa_gk_closed(t, kind="canonical", variant="ii")],
    ids=["c_components", "d_closed-ii", "micro-d1-B0", "micro-d1-B1",
         "micro-d3-B0", "micro-d3-B1", "canonical-ii"])
def test_cold_and_warm_tables_agree_bitwise(f):
    # a table built at one t must serve every other t unchanged
    cold = []
    for t in (3.0, 1e5):
        for cache in vars(sp).values():
            if hasattr(cache, "cache_clear"):
                cache.cache_clear()
        cold.append(f(t))
    f(40.0)
    assert [f(t) for t in (3.0, 1e5)] == cold


def _full_tensor_grid(d, n):
    """The unfolded n^d tensor grid: every axis takes every node."""
    t1, w1 = sp._axis_nodes(n, 0.5)
    axes = np.meshgrid(*([t1] * d), indexing="ij")
    pts = np.stack([a.ravel() for a in axes], axis=-1)
    waxes = np.meshgrid(*([w1] * d), indexing="ij")
    wts = waxes[0].ravel().copy()
    for wa in waxes[1:]:
        wts *= wa.ravel()
    return pts, wts * 2.0 ** d


@pytest.mark.parametrize("d,n", [(1, 1), (1, 2), (1, 7), (1, 40), (1, 500),
                                 (2, 1), (2, 2), (2, 7), (2, 40), (2, 160)])
def test_grids_below_d3_are_the_full_tensor_grid(d, n):
    for got, want in zip(sp._tensor_grid(d, n), _full_tensor_grid(d, n)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("d,n", [(3, 1), (3, 2), (3, 7), (3, 24), (4, 2),
                                 (4, 5), (4, 12)])
def test_folded_grid_integrates_like_the_full_grid(d, n):
    # theta^2..theta^d enter only through sum_a sin^2(pi theta^a)
    def f(pts):
        s = np.sum(np.sin(np.pi * pts[:, 1:]) ** 2, axis=1)
        return np.cos(3.0 * pts[:, 0]) * np.exp(-s) + pts[:, 0] ** 2 / (1 + s)

    pts, wts = sp._tensor_grid(d, n)
    assert len(wts) == n * math.comb(n + d - 2, d - 1)
    if d == 3:
        assert len(wts) == n * n * (n + 1) // 2
    assert np.all(np.diff(pts[:, 1:], axis=1) >= 0)
    if n >= 2:  # the graded nodes integrate a constant exactly from n = 2
        assert wts.sum() == pytest.approx(1.0, abs=1e-14)
    full_pts, full_wts = _full_tensor_grid(d, n)
    assert f(pts) @ wts == pytest.approx(f(full_pts) @ full_wts, abs=1e-13)


def test_complex_root_regime_flagged():
    with pytest.raises(sp.ComplexRootRegime):
        sp.kappa_gk_closed(10.0, kind="canonical", variant="ii", b=1.0,
                           gamma=1.5)
    # d_closed still evaluates (experimental path) and decays
    v = sp.d_closed(5.0, "ii", 1.0, 1.5, 1.0)
    assert np.isfinite(v)


def test_kappa_c1_term_bounded():
    # the oscillatory time integral admits a t-independent bound
    b, g = 1.0, 1.0

    def bound_integrand(th):
        c = _uniform_at(th, b, g)
        gw = g * omega2(th)
        return (np.cos(np.pi * th) ** 2 * abs(c["b1"]) * gw
                / (gw * gw + c["a1"] ** 2))

    bound, _ = quad(bound_integrand, 0, 1, limit=200)
    for T in (10.0, 1e3, 1e6):
        # isolate the C1 contribution: kappa minus the same without C1
        full = sp.kappa_gk_closed(T, kind="micro", d=1, dstar=2, b=b, gamma=g)
        pts = np.linspace(1e-6, 1 - 1e-6, 20001)
        u = sp._uniform_arrays(omega2(pts[:, None]), b, g)
        w = np.cos(np.pi * pts) ** 2
        tw2 = sp.triangular_window_integral(-u["z2"], T).real
        tw3 = sp.triangular_window_integral(-u["z3"], T).real
        rest = np.trapezoid(2 * w * u["b2"] * (tw2 + tw3), pts) / 4 + g / 4
        part = full - rest
        assert abs(part) <= bound  # bounded uniformly in T
        if T >= 1e3:  # and converging to half the bound (prefactor 1/2)
            assert part == pytest.approx(bound / 2, rel=1e-2)


def test_fit_exponent_power_law_and_log():
    ts = np.logspace(2, 5, 40)
    slope, err = sp.fit_exponent(ts, 3.0 * ts ** 0.25)
    assert slope == pytest.approx(0.25, abs=1e-12)
    # ts[:14] is [1e2, 1e3] and ts[26:] is [1e4, 1e5]
    s1, _ = sp.fit_exponent(ts[:14], 2.0 * np.log(ts[:14]))
    s2, _ = sp.fit_exponent(ts[26:], 2.0 * np.log(ts[26:]))
    assert s2 < s1  # slope drifts toward zero for log growth


# the five series of acceptance criterion 2
CRITERION_2 = [dict(kind="micro"), dict(kind="micro", dstar=3),
               dict(kind="micro", b=0.0), dict(kind="canonical", variant="i"),
               dict(kind="canonical", variant="ii", gamma=0.5)]


@pytest.mark.parametrize("kw", CRITERION_2,
                         ids=["micro", "micro-dstar3", "micro-B0",
                              "canonical-i", "canonical-ii"])
def test_fit_exponent_matches_linregress(kw):
    from scipy.stats import linregress
    ts = np.logspace(4, 7, 16)
    vals = sp.kappa_gk_closed(ts, **kw)
    slope, err = sp.fit_exponent(ts, vals)
    assert slope == pytest.approx(linregress(np.log(ts), np.log(vals)).slope,
                                  rel=1e-12, abs=0)
    # linregress takes the stderr from 1 - r^2, which cancels when r ~ 1;
    # the residual form in extended precision is the reference
    x, y = np.log(ts).astype(np.longdouble), np.log(vals).astype(np.longdouble)
    x, y = x - x.mean(), y - y.mean()
    b = (x @ y) / (x @ x)
    r = y - b * x
    want = np.sqrt(r @ r / (len(ts) - 2) / (x @ x))
    assert err == pytest.approx(float(want), rel=1e-12, abs=0)


def test_fit_exponent_preconditions():
    ts = np.logspace(1, 2, 10)
    with pytest.raises(ValueError):
        sp.fit_exponent(ts[:5], ts[:5])
    with pytest.raises(ValueError):
        sp.fit_exponent(ts, np.concatenate([[-1.0], ts[1:]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_exponent_rejects_non_finite_values(bad):
    ts = np.logspace(1, 2, 10)
    with pytest.raises(ValueError, match="^values must be finite"):
        sp.fit_exponent(ts, np.concatenate([[bad], ts[1:]]))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_fit_exponent_rejects_times_off_the_log_scale(bad):
    ts = np.logspace(1, 2, 10)
    with pytest.raises(ValueError, match="^times must be finite"):
        sp.fit_exponent(np.concatenate([[bad], ts[1:]]), ts)


@pytest.mark.parametrize("gamma,t", [
    (0.0, 10.0), (-1.0, 10.0), (np.nan, 10.0), (np.inf, 10.0),
    (1.0, np.inf), (1.0, np.nan), (1.0, -1.0),
    pytest.param(1.0, np.array([10.0, np.nan]), id="1.0-array-nan"),
    pytest.param(1.0, np.array([[1.0, 2.0], [np.inf, 3.0]]),
                 id="1.0-array-inf"),
    pytest.param(1.0, [5.0, -1.0, 7.0], id="1.0-list-negative")])
@pytest.mark.parametrize("call", [
    lambda g, t: sp.c_components(t, 1, 1.0, g),
    lambda g, t: sp.c_infty(t, 3, 2, 1.0, g, n=8),
    lambda g, t: sp.d_closed(t, "i", 1.0, g, 1.0),
    lambda g, t: sp.d_closed(t, "ii", 1.0, g, 1.0),
    lambda g, t: sp.kappa_gk_closed(t, kind="micro", gamma=g),
    lambda g, t: sp.kappa_gk_closed(np.float64(t), kind="micro", gamma=g),
    lambda g, t: sp.kappa_gk_closed(t, kind="canonical", variant="ii",
                                    gamma=g),
    lambda g, t: sp.laplace_micro(t, 3, 2, 1.0, g, 1.0, n=8),
    lambda g, t: sp.laplace_canonical(t, "ii", 1.0, g, 1.0, n=8)],
    ids=["c_components", "c_infty", "d_closed-i", "d_closed-ii",
         "kappa-micro", "kappa-micro-numpy-t", "kappa-canonical-ii",
         "laplace_micro", "laplace_canonical"])
def test_closed_forms_reject_bad_rate_and_time(call, gamma, t):
    # checked before any table or panel is built: with gamma <= 0 the
    # damping cut-off divides by zero or the modes grow without bound
    with pytest.raises(ValueError, match=r"^(gamma|t|lam) must be finite"):
        call(gamma, t)


@pytest.mark.parametrize("b", [np.nan, np.inf])
@pytest.mark.parametrize("call", [
    lambda b: sp.c_components(1.0, 1, b, 1.0),
    lambda b: sp.c_infty(1.0, 1, 2, b, 1.0),
    lambda b: sp.d_closed(1.0, "ii", b, 0.5, 1.0),
    lambda b: sp.kappa_gk_closed(1.0, kind="micro", b=b),
    lambda b: sp.kappa_gk_closed(1.0, kind="canonical", variant="ii", b=b),
    lambda b: sp.laplace_micro(0.5, 1, 2, b, 1.0, 1.0, n=8),
    lambda b: sp.laplace_canonical(0.5, "ii", b, 1.0, 1.0, n=8)],
    ids=["c_components", "c_infty", "d_closed-ii", "kappa-micro",
         "kappa-canonical-ii", "laplace_micro", "laplace_canonical"])
def test_closed_forms_reject_a_non_finite_field(call, b):
    with pytest.raises(ValueError, match="^b must be finite"):
        call(b)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("name,call", [
    ("beta", lambda x: sp.d_closed(1.0, "i", 1.0, 1.0, x)),
    ("beta", lambda x: sp.d_closed(1.0, "ii", 1.0, 0.5, x)),
    ("beta", lambda x: sp.laplace_canonical(0.5, "i", 1.0, 1.0, x, n=8)),
    ("beta", lambda x: sp.laplace_canonical(0.5, "ii", 1.0, 1.0, x, n=8)),
    ("e", lambda x: sp.c_infty(1.0, 1, 2, 1.0, 1.0, x)),
    ("e", lambda x: sp.laplace_micro(0.5, 1, 2, 1.0, 1.0, x, n=8))],
    ids=["d_closed-i", "d_closed-ii", "laplace_canonical-i",
         "laplace_canonical-ii", "c_infty", "laplace_micro"])
def test_closed_forms_reject_bad_energy_and_temperature(name, call, bad):
    # beta=-1 gave the beta=1 value and beta=0 a ZeroDivisionError; e=-1
    # gave the e=1 value
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
        call(bad)


@pytest.mark.parametrize("call", [
    lambda t: sp.c_infty(t, 1, 2, 1.0, 1.0),
    lambda t: sp.c_infty(t, 3, 3, 0.5, 1.0, n=8),
    lambda t: sp.d_closed(t, "i", 1.0, 1.0, 1.0),
    lambda t: sp.d_closed(t, "ii", 1.0, 0.5, 1.0),
    lambda t: sp.kappa_gk_closed(t, kind="micro", b=0.0),
    lambda t: sp.kappa_gk_closed(t, kind="micro", dstar=3, b=2.0),
    lambda t: sp.kappa_gk_closed(t, kind="canonical", variant="ii"),
    lambda t: sp.c_components(t, 1, 1.0, 1.0)[0],
    lambda t: sp.c_components(t, 2, 1.0, 1.0, n=20)[3]],
    ids=["c_infty", "c_infty-d3", "d_closed-i", "d_closed-ii", "micro-B0",
         "micro-dstar3", "canonical-ii", "c_components-c1",
         "c_components-d2-c4"])
def test_scalar_t_gives_float_array_t_gives_array(call):
    ts = np.array([[0.5, 3.0, 16.0], [40.0, 200.0, 1e3]])
    got = call(ts)
    assert isinstance(got, np.ndarray) and got.shape == ts.shape
    for t, v in zip(ts.ravel(), got.ravel()):
        one = call(t)
        assert type(one) is float
        assert one == pytest.approx(v, rel=1e-12, abs=0)
    assert call(ts[:1, :1]).shape == (1, 1)


@pytest.mark.parametrize("call", [
    lambda t: sp.kappa_gk_closed(t, kind="micro"),
    lambda t: sp.kappa_gk_closed(t, kind="canonical", variant="ii"),
    lambda t: sp.c_infty(t, 2, 2, 1.0, 1.0, n=60)],
    ids=["micro-d1", "canonical-ii", "c_infty-d2"])
def test_series_split_into_blocks(monkeypatch, call):
    # blocks of 5, 3 and 3 times for these tables: the last block is short
    ts = np.array([0.5, 3.0, 16.0, 40.0, 200.0, 1e3, 1e4])
    monkeypatch.setattr(sp, "_GRID_CHUNK", 3 * (500 + 2 * sp._PANEL_NODES))
    got = call(ts)
    for t, v in zip(ts, got):
        assert call(t) == pytest.approx(v, rel=1e-12, abs=0)


@pytest.mark.parametrize("call", [
    lambda: sp.kappa_gk_closed(100.0, dstar=1),
    lambda: sp.kappa_gk_closed(100.0, dstar=0),
    lambda: sp.kappa_gk_closed(100.0, d=0),
    lambda: sp.kappa_gk_closed(100.0, d=1.5),
    lambda: sp.kappa_gk_closed(100.0, d=2.0),
    lambda: sp.kappa_gk_closed(100.0, kind="canonical", d=2, dstar=3),
    lambda: sp.kappa_gk_closed(100.0, kind="canonical", variant="ii",
                               dstar=3),
    lambda: sp.c_infty(1.0, 1, 1, 1.0, 1.0),
    lambda: sp.c_infty(1.0, 0, 2, 1.0, 1.0),
    lambda: sp.c_components(1.0, 0, 1.0, 1.0),
    lambda: sp.laplace_micro(0.5, 1, 1, 1.0, 1.0, 1.0, n=8)],
    ids=["kappa-dstar1-field", "kappa-dstar0", "kappa-d0", "kappa-d-float",
         "kappa-d-integral-float", "canonical-d2-dstar3", "canonical-ii-dstar3",
         "c_infty-dstar1-field", "c_infty-d0", "c_components-d0",
         "laplace_micro-dstar1-field"])
def test_closed_forms_reject_dimensions_the_model_rejects(call):
    # kappa_gk_closed(100, dstar=1) was -1.155 and canonical d=2, dstar=3
    # was the d=1, dstar=2 value
    with pytest.raises(ValueError, match="must be|are for d=1"):
        call()


def test_scalar_velocities_without_a_field_are_accepted():
    # the model admits dstar=1 at b=0; there the correlation and the noise
    # term both scale as 1/dstar, so kappa is twice its dstar=2 value
    kap = sp.kappa_gk_closed(100.0, dstar=1, b=0.0)
    assert kap == pytest.approx(
        2.0 * sp.kappa_gk_closed(100.0, dstar=2, b=0.0), rel=1e-12)


def _clear_table_caches():
    for cache in vars(sp).values():
        if hasattr(cache, "cache_clear"):
            cache.cache_clear()


FIELDS = [(1.0, 1.0), (2.0, 0.5), (-2.0, 0.5), (0.5, 1.0), (1.0, 0.1)]


@pytest.fixture
def quarter_panels(monkeypatch):
    """The panel rule at pi/4 rad per panel on a 512-interval coarse grid,
    with the table caches, which hold the phase profile, cleared around."""
    def values(f):
        _clear_table_caches()
        with monkeypatch.context() as m:
            m.setattr(sp, "_RAD_PER_PANEL", np.pi / 4)
            m.setattr(sp, "_COARSE", 512)
            try:
                return f()
            finally:
                _clear_table_caches()
    return values


@pytest.mark.parametrize("b,g", FIELDS)
def test_pi_panels_match_quarter_pi_panels(quarter_panels, b, g):
    ts = np.array([0.5, 10.0, 100.0, 1e3])
    c = sp.c_infty(ts, 1, 2, b, g)
    c1 = sp.c_components(ts, 1, b, g)[0]
    ref_c, ref_c1 = quarter_panels(lambda: (
        sp.c_infty(ts, 1, 2, b, g), sp.c_components(ts, 1, b, g)[0]))
    assert np.all(np.abs(c - ref_c) <= 1e-12 * np.abs(ref_c))
    assert np.all(np.abs(c1 - ref_c1) <= 1e-12 * np.abs(ref_c))


@pytest.mark.parametrize("kw", [dict(b=b, gamma=g) for b, g in FIELDS]
                         + [dict(kind="canonical", variant="ii", gamma=0.5),
                            dict(kind="canonical", variant="ii", b=2.0,
                                 gamma=1.0)],
                         ids=[f"micro-B{b:g}-g{g:g}" for b, g in FIELDS]
                         + ["canonical-ii-B1-g0.5", "canonical-ii-B2-g1"])
def test_pi_panels_match_quarter_pi_panels_in_kappa(quarter_panels, kw):
    ts = np.array([10.0, 1e3, 1e5, 1e7])
    got = sp.kappa_gk_closed(ts, **kw)
    want = quarter_panels(lambda: sp.kappa_gk_closed(ts, **kw))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("d,b,n", [(1, 1.0, 500), (1, 0.0, 500),
                                   (2, 1.0, 40), (3, 2.0, 12)])
def test_zero_weight_row_is_skipped_without_changing_values(monkeypatch, d,
                                                            b, n):
    ts = np.array([0.5, 10.0, 1e3])
    wts = sp._uniform_weights(2)
    table = sp._uniform_table(d, b, 1.0, n)
    assert wts[3] == 0.0  # the uncoupled components at dstar=2
    c = sp.c_infty(ts, d, 2, b, 1.0, n=n)
    assert np.array_equal(c, wts @ sp._assemble(table, sp._EXP, ts))
    kap = sp.kappa_gk_closed(ts, d=d, b=b, n=n)
    assert np.array_equal(
        kap, wts @ sp._assemble(table, sp._WINDOW, ts) + 0.25)
    # and the row's kernel is not evaluated: one grid call fewer, unless
    # its z array is shared (at B=0 every row has z = -gamma omega2)
    calls = []
    full, smooth, tail = sp._WINDOW
    monkeypatch.setattr(sp, "_WINDOW", (
        lambda z, t: calls.append(1) or full(z, t), smooth, tail))
    sp.kappa_gk_closed(ts, d=d, b=b, n=n)
    with_skip = len(calls)
    calls.clear()
    sp._assemble(table, sp._WINDOW, ts)
    assert with_skip == len(calls) - (b != 0.0)
