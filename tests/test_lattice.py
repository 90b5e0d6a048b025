import numpy as np
import pytest

from magnon_gk.lattice import (
    LatticeSpec, PhaseState, SpecError, conserved_snapshot, currents_all,
    neighbor_tables, site_coords, site_energies, site_index,
    total_current, total_energy, zero_state,
)


def random_state(spec, rng):
    return PhaseState(spec,
                      rng.standard_normal((spec.dstar, spec.nsites)),
                      rng.standard_normal((spec.dstar, spec.nsites)))


def dense_hamiltonian(spec):
    """Independent dense quadratic-form oracle for the total energy.

    Built from scratch off the neighbor tables: H = (1/2)Σ|v|² +
    (1/4)Σ_{x,a}|q_{x+e_a}−q_x|²·2 (each bond counted from both endpoints).
    """
    m = spec.flat_size
    K = np.zeros((m, m))
    half = spec.dstar * spec.nsites
    for j in range(spec.dstar):
        for i in range(spec.nsites):
            K[half + j * spec.nsites + i, half + j * spec.nsites + i] = 0.5
    plus, _ = neighbor_tables(spec)
    for a in range(spec.d):
        for j in range(spec.dstar):
            for i in range(spec.nsites):
                p = j * spec.nsites + i
                q = j * spec.nsites + plus[a][i]
                # two quarter-terms (one from each endpoint) per bond
                K[p, p] += 0.5
                K[q, q] += 0.5
                K[p, q] -= 0.5
                K[q, p] -= 0.5
    return K


def test_zero_state_zero_energy():
    spec = LatticeSpec(d=1, dstar=2, n=5, b=1.0, gamma=0.7)
    assert site_energies(zero_state(spec))[0] == 0.0


def test_single_kinetic_site():
    spec = LatticeSpec(d=1, dstar=2, n=3, b=0.0, gamma=1.0)
    s = zero_state(spec)
    s.vel[0, 0] = 1.0
    assert site_energies(s)[0] == pytest.approx(0.5)
    assert site_energies(s)[1] == 0.0


@pytest.mark.parametrize("d,n", [(1, 7), (2, 5), (3, 4)])
def test_total_energy_matches_dense_quadratic_form(d, n):
    spec = LatticeSpec(d=d, dstar=2, n=n, b=1.0, gamma=0.5)
    rng = np.random.default_rng(42 + d)
    s = random_state(spec, rng)
    z = s.flatten()
    K = dense_hamiltonian(spec)
    assert total_energy(s) == pytest.approx(z @ K @ z, rel=1e-12)


def test_deformation_energy_matches_definition():
    spec = LatticeSpec(d=1, dstar=2, n=6, b=1.0, gamma=1.0,
                       coords="deformation")
    rng = np.random.default_rng(7)
    s = random_state(spec, rng)
    e = site_energies(s)
    for x in range(spec.n):
        want = (0.5 * np.sum(s.vel[:, x] ** 2)
                + 0.25 * np.sum(s.pos[:, x] ** 2)
                + 0.25 * np.sum(s.pos[:, (x - 1) % spec.n] ** 2))
        assert e[x] == pytest.approx(want, rel=1e-13)


def test_noise_current_telescopes_to_zero():
    rng = np.random.default_rng(3)
    for d in (1, 2):
        spec = LatticeSpec(d=d, dstar=3, n=5, b=1.0, gamma=0.9)
        s = random_state(spec, rng)
        for a in range(d):
            _, js = currents_all(s, a)
            assert abs(np.sum(js)) < 1e-12


def test_total_current_two_form_identity():
    # Σ_x ja over bonds equals −(1/2)Σ_j Σ_x v_x^j (q_{x+e1}^j − q_{x−e1}^j)
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        spec = LatticeSpec(d=d, dstar=2, n=4 if d == 3 else 6, b=2.0, gamma=1.0)
        s = random_state(spec, rng)
        plus, minus = neighbor_tables(spec)
        alt = -0.5 * np.sum(s.vel * (s.pos[:, plus[0]] - s.pos[:, minus[0]]))
        assert total_current(s, 0) == pytest.approx(alt, rel=1e-12, abs=1e-12)


def test_currents_zero_when_velocities_zero():
    spec = LatticeSpec(d=1, dstar=2, n=5, b=1.0, gamma=1.0)
    s = zero_state(spec)
    s.pos += np.random.default_rng(0).standard_normal(s.pos.shape)
    ja, js = currents_all(s, 0)
    assert ja[2] == 0.0 and js[2] == 0.0


def test_conserved_snapshot_zero_state():
    spec = LatticeSpec(d=1, dstar=2, n=5, b=1.0, gamma=1.0)
    snap = conserved_snapshot(zero_state(spec))
    assert np.all(snap.as_vector() == 0.0)


def test_pseudomomentum_components():
    spec = LatticeSpec(d=1, dstar=3, n=5, b=2.0, gamma=1.0)
    rng = np.random.default_rng(5)
    s = random_state(spec, rng)
    p = conserved_snapshot(s).pseudomomentum
    sq = np.sum(s.pos, axis=1)
    sv = np.sum(s.vel, axis=1)
    assert p[0] == pytest.approx(sv[0] - 2.0 * sq[1])
    assert p[1] == pytest.approx(sv[1] + 2.0 * sq[0])
    assert p[2] == pytest.approx(sv[2])


def test_alternate_invariants_fields():
    spec = LatticeSpec(d=1, dstar=2, n=6, b=1.5, gamma=1.0,
                       charge="alternate", coords="deformation")
    rng = np.random.default_rng(9)
    s = random_state(spec, rng)
    snap = conserved_snapshot(s)
    even = range(0, 6, 2)
    want1 = sum(s.vel[0, x] + s.vel[0, x + 1] + 1.5 * s.pos[1, x] for x in even)
    want2 = sum(s.vel[1, x] + s.vel[1, x + 1] - 1.5 * s.pos[0, x] for x in even)
    assert snap.alt_invariants[0] == pytest.approx(want1)
    assert snap.alt_invariants[1] == pytest.approx(want2)
    assert snap.total_deformation is not None


def test_flatten_round_trip():
    spec = LatticeSpec(d=2, dstar=2, n=4, b=1.0, gamma=1.0)
    rng = np.random.default_rng(1)
    s = random_state(spec, rng)
    s2 = PhaseState.from_flat(spec, s.flatten())
    assert np.array_equal(s2.pos, s.pos) and np.array_equal(s2.vel, s.vel)


def test_json_round_trip():
    spec = LatticeSpec(d=1, dstar=2, n=6, b=-2.0, gamma=0.5,
                       charge="alternate", coords="deformation")
    assert LatticeSpec.from_json(spec.to_json()) == spec


def test_site_index_row_major():
    spec = LatticeSpec(d=2, dstar=2, n=5, b=0.0, gamma=1.0)
    assert site_index(spec, (1, 2)) == 7
    assert site_index(spec, (-1, 0)) == 20  # periodic wrap
    coords = site_coords(spec)
    assert coords.shape == (25, 2) and not coords.flags.writeable
    assert [site_index(spec, x) for x in coords] == list(range(25))


@pytest.mark.parametrize("kwargs", [
    dict(d=1, dstar=2, n=2, b=0.0, gamma=1.0),          # n too small
    dict(d=1, dstar=2, n=5, b=0.0, gamma=0.0),          # gamma
    dict(d=1, dstar=1, n=5, b=1.0, gamma=1.0),          # dstar with field
    dict(d=1, dstar=2, n=5, b=1.0, gamma=1.0, charge="alternate"),
    dict(d=1, dstar=2, n=5, b=1.0, gamma=1.0, charge="alternate",
         coords="deformation"),                          # odd n
    dict(d=2, dstar=2, n=5, b=1.0, gamma=1.0, coords="deformation"),
    dict(d=1, dstar=2, n=5, b=np.nan, gamma=1.0),       # non-finite b
    dict(d=1, dstar=2, n=5, b=np.inf, gamma=1.0),
    dict(d=1, dstar=2, n=5, b=-np.inf, gamma=1.0),
    dict(d=1, dstar=2, n=5, b=1.0, gamma=np.nan),       # non-finite gamma
    dict(d=1, dstar=2, n=5, b=1.0, gamma=np.inf),
])
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(SpecError):
        LatticeSpec(**kwargs)


@pytest.mark.parametrize("field,value", [
    ("d", 1.5), ("dstar", 2.0), ("n", 8.5), ("n", 8.0), ("d", "1")])
def test_sizes_must_be_integers(field, value):
    # d=1.5 gave nsites 22.6; n=8.5 and dstar=2.0 were accepted
    kwargs = dict(d=1, dstar=2, n=8, b=1.0, gamma=1.0)
    kwargs[field] = value
    with pytest.raises(SpecError, match=f"^{field} must be an integer"):
        LatticeSpec(**kwargs)
    kwargs[field] = np.int64(int(float(value)))   # numpy integers are fine
    assert LatticeSpec(**kwargs).nsites == kwargs["n"] ** kwargs["d"]


def test_stored_zero_charge_points_to_b0():
    # the charge is uniform or alternate; the no-field model is b = 0
    stored = LatticeSpec(d=1, dstar=2, n=5, b=0.0, gamma=1.0).to_json()
    with pytest.raises(SpecError, match="b = 0"):
        LatticeSpec.from_json(stored.replace('"uniform"', '"zero"'))
