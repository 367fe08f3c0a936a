import numpy as np
import pytest
from numpy.testing import assert_allclose

from gyrostat.controlled import flat_dynamical_field
from gyrostat.integrate import run
from gyrostat.lie import SE3, SO3, Ad_star, coalgebra, random_group
from gyrostat.poisson import (ScalarField, casimir_fields,
                              flat_hamiltonian_field, point_like,
                              reduced_point)
from gyrostat.systems import (HeavyTopParams, HeavyTopRotorParams,
                              HJCandidate, RigidBodyRotorParams,
                              heavy_top_field, heavy_top_free_system,
                              heavy_top_hj_lhs, heavy_top_lp_hj_lhs,
                              heavy_top_reduced_h, heavy_top_system,
                              rigid_body_field, rigid_body_hj_lhs,
                              rigid_body_reduced_h, rigid_body_system)
from test_controlled import field_at

RB = RigidBodyRotorParams(ibar=(1.0, 2.0, 3.0), j=(0.5, 0.4, 0.3))
HT = HeavyTopRotorParams(ibar=(2.0, 1.5, 1.0), j=(0.4, 0.3), m=1.2, g=9.8,
                         h=0.5, chi=np.array([1.0, 1.0, 1.0]) / np.sqrt(3))
FREE = HeavyTopParams(i=(2.0, 1.5, 1.0), m=1.2, g=9.8, h=0.5,
                      chi=np.array([0.0, 0.0, 1.0]))


def random_rb_point(rng, with_theta=True):
    return reduced_point(SO3, rng.standard_normal(3),
                         theta=rng.standard_normal(3) if with_theta else (),
                         l=rng.standard_normal(3))


def random_ht_point(rng, with_theta=True):
    return reduced_point(SE3, rng.standard_normal(3),
                         rng.standard_normal(3),
                         theta=rng.standard_normal(2) if with_theta else (),
                         l=rng.standard_normal(2))


def random_free_point(rng):
    return reduced_point(SE3, rng.standard_normal(3), rng.standard_normal(3))


def free_top_h(params, p):
    """The point formula of the rotor-free heavy top's Hamiltonian."""
    return (0.5 * float(p.nu[:3] @ (p.nu[:3] / params.i))
            + params.mgh * float(p.nu[3:] @ params.chi))


def casimir(kind, name):
    return dict(casimir_fields(kind))[name]


# case -> (field, its formula on one point, point sampler)
BATCHED_VALUES = {
    "rigid body": (rigid_body_system(RB).hamiltonian,
                   lambda p: rigid_body_reduced_h(RB, p), random_rb_point),
    "rigid body, no angles": (
        rigid_body_system(RB).hamiltonian,
        lambda p: rigid_body_reduced_h(RB, p),
        lambda rng: random_rb_point(rng, with_theta=False)),
    "heavy top": (heavy_top_system(HT).hamiltonian,
                  lambda p: heavy_top_reduced_h(HT, p), random_ht_point),
    "heavy top, no angles": (
        heavy_top_system(HT).hamiltonian,
        lambda p: heavy_top_reduced_h(HT, p),
        lambda rng: random_ht_point(rng, with_theta=False)),
    "free heavy top": (heavy_top_free_system(FREE).hamiltonian,
                       lambda p: free_top_h(FREE, p), random_free_point),
    "pi_sq": (casimir(SO3, "pi_sq"), lambda p: float(p.nu @ p.nu),
              random_rb_point),
    "pi_dot_gamma": (casimir(SE3, "pi_dot_gamma"),
                     lambda p: float(p.nu[:3] @ p.nu[3:]), random_ht_point),
    "gamma_sq": (casimir(SE3, "gamma_sq"),
                 lambda p: float(p.nu[3:] @ p.nu[3:]), random_ht_point),
}


@pytest.mark.parametrize("case", sorted(BATCHED_VALUES))
def test_batched_value_rounds_as_the_point_formula(case):
    # exact equality: the invariant series of a run are read from
    # eval_batch and must keep the bits of the one-point formulas
    field, formula, draw = BATCHED_VALUES[case]
    rng = np.random.default_rng(200)
    points = [draw(rng) for _ in range(2000)]
    states = np.array([p.flat() for p in points])
    want = np.array([formula(p) for p in points])
    got = field.eval_batch(states)
    assert got.shape == want.shape
    assert np.array_equal(got, want), \
        f"{np.count_nonzero(got != want)} of 2000 rows differ"
    layout = points[0].layout
    assert [field.eval(point_like(layout, x)) for x in states] \
        == want.tolist()


@pytest.mark.parametrize("case", sorted(BATCHED_VALUES))
def test_row_gradient_equals_the_batched_gradient_bitwise(case):
    # one componentwise formula gives both: the row of Python floats that
    # each RK4 stage reads and the (n, d) batch must keep the same bits
    field, _, draw = BATCHED_VALUES[case]
    rng = np.random.default_rng(201)
    states = np.array([draw(rng).flat() for _ in range(1000)])
    rows = [field.grad_row(x) for x in states.tolist()]
    assert all(type(v) is float for row in rows for v in row)
    batch = field.grad_batch(states)
    assert batch.shape == states.shape
    assert np.array_equal(np.array(rows), batch)
    assert np.array_equal(np.signbit(rows), np.signbit(batch))


def test_flat_field_without_gradient_takes_finite_differences():
    h = heavy_top_system(HT).hamiltonian
    rows = []

    def counted(x):
        rows.append(len(x))
        return h.eval_batch(x)

    fd = ScalarField(h.eval, eval_batch=counted)
    p = random_ht_point(np.random.default_rng(202))
    x = p.flat().tolist()
    got = flat_hamiltonian_field(fd, p.layout)(x)
    assert rows == [2 * len(x)]
    want = flat_hamiltonian_field(h, p.layout)(x)
    assert_allclose(got, want, rtol=0, atol=1e-6)
    assert got != want


class TestParams:
    def test_rigid_body_from_raw_augments_inertias(self):
        body = np.array([1.0, 2.0, 3.0])
        rot = np.array([[0.1, 0.2, 0.3],
                        [0.4, 0.5, 0.6],
                        [0.7, 0.8, 0.9]])
        p = RigidBodyRotorParams.from_raw(body, rot)
        # ibar_i = I_i + sum over rotors - own axial entry
        assert_allclose(p.ibar, [1.0 + 1.2 - 0.1, 2.0 + 1.5 - 0.5,
                                 3.0 + 1.8 - 0.9])
        assert_allclose(p.j, [0.1, 0.5, 0.9])

    def test_heavy_top_from_raw_augments_inertias(self):
        body = np.array([1.0, 2.0, 3.0])
        rot = np.array([[0.1, 0.2, 0.3],
                        [0.4, 0.5, 0.6]])
        p = HeavyTopRotorParams.from_raw(body, rot, 1.0, 9.8, 0.2,
                                         (0.0, 0.0, 1.0))
        assert_allclose(p.ibar, [1.0 + 0.4, 2.0 + 0.2, 3.0 + 0.3 + 0.6])
        assert_allclose(p.j, [0.1, 0.5])

    @pytest.mark.parametrize("bad", [(1.0, 0.0, 2.0), (1.0, -1.0, 2.0),
                                     (1.0, np.nan, 2.0)])
    def test_nonpositive_inertia_rejected(self, bad):
        with pytest.raises(ValueError, match="positive"):
            RigidBodyRotorParams(ibar=bad, j=(1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="positive"):
            RigidBodyRotorParams(ibar=(1.0, 1.0, 1.0), j=bad)

    def test_chi_must_be_unit(self):
        with pytest.raises(ValueError, match="unit"):
            HeavyTopRotorParams(ibar=(1, 1, 1), j=(1, 1), m=1, g=1, h=1,
                                chi=(0.0, 0.0, 1.1))
        with pytest.raises(ValueError, match="unit"):
            HeavyTopParams(i=(1, 1, 1), m=1, g=1, h=1, chi=(1.0, 1.0, 0.0))

    def test_non_finite_chi_rejected(self):
        # a NaN norm compares False against UNIT_TOL
        with pytest.raises(ValueError, match="unit"):
            HeavyTopRotorParams(ibar=(1, 1, 1), j=(1, 1), m=1, g=1, h=1,
                                chi=(np.nan, 0.0, 1.0))
        with pytest.raises(ValueError, match="unit"):
            HeavyTopParams(i=(1, 1, 1), m=1, g=1, h=1,
                           chi=(np.nan, 0.0, 1.0))

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            RigidBodyRotorParams(ibar=(1.0, 2.0), j=(1, 1, 1))
        with pytest.raises(ValueError):
            HeavyTopRotorParams(ibar=(1, 1, 1), j=(1, 1, 1), m=1, g=1, h=1,
                                chi=(0, 0, 1))
        with pytest.raises(ValueError):
            RigidBodyRotorParams.from_raw((1, 1, 1), np.eye(2))
        with pytest.raises(ValueError, match="rotor_inertia must be 2x3"):
            HeavyTopRotorParams.from_raw((1, 1, 1), np.eye(3), 1, 1, 1,
                                         (0, 0, 1))
        with pytest.raises(ValueError, match="i must be a 3-vector"):
            HeavyTopParams(i=(1, 1), m=1, g=1, h=1, chi=(0, 0, 1))


class TestReducedHamiltonians:
    def test_rigid_body_unit_inertia_value(self):
        params = RigidBodyRotorParams(ibar=(1.0, 1.0, 1.0), j=(1, 1, 1))
        p = reduced_point(SO3, (1.0, 2.0, 3.0), theta=(0, 0, 0), l=(0, 0, 0))
        assert rigid_body_reduced_h(params, p) == pytest.approx(7.0)

    def test_rigid_body_locked_state_leaves_rotor_energy(self):
        l = np.array([0.6, -0.2, 0.9])
        p = reduced_point(SO3, l, theta=(0, 0, 0), l=l)
        expected = 0.5 * np.sum(l**2 / RB.j)
        assert rigid_body_reduced_h(RB, p) == pytest.approx(expected,
                                                            rel=1e-13)

    def test_heavy_top_rest_at_potential(self):
        p = reduced_point(SE3, (0, 0, 0), HT.chi, theta=(0, 0), l=(0, 0))
        assert heavy_top_reduced_h(HT, p) == pytest.approx(HT.mgh, rel=1e-13)

    def test_heavy_top_axial_spin_value(self):
        params = HeavyTopRotorParams(ibar=(1.0, 1.0, 2.0), j=(1, 1),
                                     m=1, g=1, h=1, chi=(1.0, 0.0, 0.0))
        # gamma orthogonal to chi kills the potential; only pi_3 remains
        p = reduced_point(SE3, (0, 0, 1.0), (0, 1.0, 0), theta=(0, 0),
                          l=(0, 0))
        assert heavy_top_reduced_h(params, p) == pytest.approx(0.25)

    def test_system_hamiltonians_match_plain_functions(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = random_rb_point(rng)
            assert rigid_body_system(RB).hamiltonian.eval(p) == \
                rigid_body_reduced_h(RB, p)
            q = random_ht_point(rng)
            assert heavy_top_system(HT).hamiltonian.eval(q) == \
                heavy_top_reduced_h(HT, q)


class TestExplicitFields:
    def test_rigid_body_matches_bracket_path(self):
        rng = np.random.default_rng(10)
        sys = rigid_body_system(RB)
        worst = 0.0
        for k in range(1000):
            p = random_rb_point(rng, with_theta=(k % 2 == 0))
            a = rigid_body_field(RB, p).flat()
            b = field_at(sys, p)
            worst = max(worst, float(np.max(np.abs(a - b))))
        assert worst <= 1e-10

    def test_heavy_top_matches_bracket_path(self):
        rng = np.random.default_rng(11)
        sys = heavy_top_system(HT)
        worst = 0.0
        for k in range(1000):
            p = random_ht_point(rng, with_theta=(k % 2 == 0))
            a = heavy_top_field(HT, p).flat()
            b = field_at(sys, p)
            worst = max(worst, float(np.max(np.abs(a - b))))
        assert worst <= 1e-10

    def test_rotor_momenta_are_constant(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            assert np.all(rigid_body_field(RB, random_rb_point(rng)).d_l
                          == 0.0)
            assert np.all(heavy_top_field(HT, random_ht_point(rng)).d_l
                          == 0.0)

    def test_casimirs_are_stationary(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            p = random_rb_point(rng)
            v = rigid_body_field(RB, p)
            assert abs(2.0 * p.nu @ v.d_pi) <= 1e-10
            q = random_ht_point(rng)
            w = heavy_top_field(HT, q)
            pi, gamma = q.nu[:3], q.nu[3:]
            assert abs(w.d_pi @ gamma + pi @ w.d_gamma) <= 1e-10
            assert abs(2.0 * gamma @ w.d_gamma) <= 1e-10

    def test_principal_axis_spin_is_equilibrium(self):
        for axis in range(3):
            pi = np.zeros(3)
            pi[axis] = 2.5
            p = reduced_point(SO3, pi, theta=(0, 0, 0), l=(0, 0, 0))
            assert_allclose(rigid_body_field(RB, p).d_pi, 0.0, atol=1e-15)

    def test_upright_spin_is_equilibrium(self):
        params = HeavyTopRotorParams(ibar=(2.0, 1.5, 1.0), j=(0.4, 0.3),
                                     m=1.2, g=9.8, h=0.5, chi=(0, 0, 1.0))
        p = reduced_point(SE3, (0, 0, 3.0), (0, 0, 1.0), theta=(0, 0),
                          l=(0, 0))
        v = heavy_top_field(params, p)
        assert_allclose(v.d_pi, 0.0, atol=1e-15)
        assert_allclose(v.d_gamma, 0.0, atol=1e-15)

    def test_axis_aligned_rotors_reduce_to_free_body(self):
        # Thin rotors mounted along the principal axes cancel out of the
        # locked inertia, and with the rotors at rest the orbit equation
        # is the free rigid body's.
        body = np.array([1.0, 2.0, 3.0])
        params = RigidBodyRotorParams.from_raw(body, np.eye(3))
        assert_allclose(params.ibar, body)
        rng = np.random.default_rng(14)
        for _ in range(100):
            pi = rng.standard_normal(3)
            p = reduced_point(SO3, pi, theta=(0, 0, 0), l=(0, 0, 0))
            assert_allclose(rigid_body_field(params, p).d_pi,
                            np.cross(pi, pi / body), rtol=0, atol=1e-14)


class TestCandidates:
    def test_orbit_membership_accepted_along_group_motion(self):
        rng = np.random.default_rng(20)
        mu = coalgebra(SE3, (1.0, 2.0, 3.0), (0.0, 0.0, 2.0))
        moved = Ad_star(random_group(rng, SE3), mu)
        HJCandidate(np.concatenate([moved[:3], np.zeros(4)]), np.zeros(10),
                    advected=moved[3:], orbit=mu)

    def test_off_orbit_candidate_rejected(self):
        mu = coalgebra(SO3, (3.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="Casimir defect"):
            HJCandidate(np.array([3.1, 0, 0, 0, 0, 0, 0, 0, 0]),
                        np.zeros(9), orbit=mu)

    def test_orbit_kind_must_match_layout(self):
        mu = coalgebra(SE3, (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="layout"):
            HJCandidate(np.zeros(9), np.zeros(9), orbit=mu)
        # an so(3)* orbit on the heavy-top layout, which carries advected
        with pytest.raises(ValueError, match="layout"):
            HJCandidate(np.zeros(7), np.zeros(10), advected=np.zeros(3),
                        orbit=coalgebra(SO3, (1.0, 0.0, 0.0)))
        # the orbit's kind is read from its length
        with pytest.raises(ValueError, match=r"shape \(3,\) or \(6,\)"):
            HJCandidate(np.zeros(9), np.zeros(9), orbit=np.zeros(4))

    def test_non_finite_orbit_rejected(self):
        # a NaN Casimir defect compares False against ORBIT_TOL
        with pytest.raises(ValueError, match="orbit has non-finite"):
            HJCandidate(np.zeros(9), np.zeros(9), orbit=[np.nan, 0.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            HJCandidate(np.array([1.0, np.inf, 0.0]), np.zeros(0),
                        advected=np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            HJCandidate(np.zeros(3), np.zeros(0),
                        advected=np.array([0.0, np.nan, 1.0]))

    def test_short_gamma_bar_rejected(self):
        with pytest.raises(ValueError, match="at least the 3 orbit"):
            HJCandidate(np.zeros(2), np.zeros(0))

    def test_advected_shape_checked(self):
        with pytest.raises(ValueError, match="3-vector"):
            HJCandidate(np.zeros(7), np.zeros(10), advected=np.zeros(2))

    def test_two_dimensional_gamma_bar_rejected_at_construction(self):
        for shape in ((9, 1), (1, 9), (3, 3)):
            with pytest.raises(ValueError, match="gamma_bar must be a 1-d"):
                HJCandidate(np.zeros(shape), np.zeros(9))


def rb_scales(params):
    ib, jj = params.ibar, params.j
    return np.array([ib[1] * ib[2], ib[2] * ib[0], ib[0] * ib[1],
                     ib[0] * jj[0], ib[1] * jj[1], ib[2] * jj[2],
                     1.0, 1.0, 1.0])


def ht_scales(params):
    ib, jj = params.ibar, params.j
    orbit = [ib[1] * ib[2], ib[2] * ib[0], ib[0] * ib[1]]
    return np.array(orbit + orbit + [ib[0] * jj[0], ib[1] * jj[1],
                                     1.0, 1.0])


class TestRigidBodyHJ:
    def test_rows_scale_the_dynamical_field(self):
        rng = np.random.default_rng(30)
        sys = rigid_body_system(RB)
        for _ in range(100):
            g = rng.standard_normal(9)
            u = rng.standard_normal(9)
            cand = HJCandidate(g, u)
            state = reduced_point(SO3, g[:3], theta=g[3:6], l=g[6:9])
            expected = rb_scales(RB) * (field_at(sys, state) + u)
            assert_allclose(rigid_body_hj_lhs(RB, cand, "SO3"), expected,
                            rtol=0, atol=1e-10)

    def test_six_row_variant_scales_the_field(self):
        rng = np.random.default_rng(31)
        sys = rigid_body_system(RB)
        scales = np.array([RB.ibar[1] * RB.ibar[2],
                           RB.ibar[2] * RB.ibar[0],
                           RB.ibar[0] * RB.ibar[1], 1.0, 1.0, 1.0])
        for _ in range(100):
            g = rng.standard_normal(6)
            u = rng.standard_normal(6)
            cand = HJCandidate(g, u)
            state = reduced_point(SO3, g[:3], l=g[3:6])
            expected = scales * (field_at(sys, state) + u)
            assert_allclose(rigid_body_hj_lhs(RB, cand, "SO3xR3"), expected,
                            rtol=0, atol=1e-10)

    def test_matched_momenta_kill_orbit_rows(self):
        rng = np.random.default_rng(32)
        g = np.concatenate([np.array([0.7, -0.3, 1.1]),
                            rng.standard_normal(3),
                            np.array([0.7, -0.3, 1.1])])
        u = np.concatenate([np.zeros(3), rng.standard_normal(6)])
        rows = rigid_body_hj_lhs(RB, HJCandidate(g, u), "SO3")
        assert_allclose(rows[:3], 0.0, atol=1e-15)

    def test_each_control_row_is_exactly_its_control(self):
        for k in range(6, 9):
            u = np.zeros(9)
            u[k] = 0.8
            rows = rigid_body_hj_lhs(RB, HJCandidate(np.zeros(9), u), "SO3")
            expected = np.zeros(9)
            expected[k] = 0.8
            assert_allclose(rows, expected, atol=1e-15)

    def test_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="layout"):
            rigid_body_hj_lhs(RB, HJCandidate(np.zeros(6), np.zeros(6)),
                              "SO3")
        with pytest.raises(ValueError, match="layout"):
            rigid_body_hj_lhs(RB, HJCandidate(np.zeros(9), np.zeros(9)),
                              "SO3xR3")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            rigid_body_hj_lhs(RB, HJCandidate(np.zeros(9), np.zeros(9)),
                              "SE3")


class TestHeavyTopHJ:
    def test_rows_scale_the_dynamical_field(self):
        rng = np.random.default_rng(33)
        sys = heavy_top_system(HT)
        for _ in range(100):
            g = rng.standard_normal(7)
            adv = rng.standard_normal(3)
            u = rng.standard_normal(10)
            cand = HJCandidate(g, u, advected=adv)
            state = reduced_point(SE3, g[:3], adv, theta=(0.0, 0.0),
                                  l=g[5:7])
            expected = ht_scales(HT) * (field_at(sys, state) + u)
            assert_allclose(heavy_top_hj_lhs(HT, cand), expected, rtol=0,
                            atol=1e-10)

    def test_aligned_zero_candidate_solves(self):
        params = HeavyTopRotorParams(ibar=(2.0, 1.5, 1.0), j=(0.4, 0.3),
                                     m=1.2, g=9.8, h=0.5, chi=(0, 0, 1.0))
        cand = HJCandidate(np.zeros(7), np.zeros(10),
                           advected=np.array([0.0, 0.0, 1.0]))
        assert_allclose(heavy_top_hj_lhs(params, cand), 0.0, atol=1e-15)

    def test_last_rows_pin_the_momentum_controls(self):
        rng = np.random.default_rng(34)
        u = rng.standard_normal(10)
        cand = HJCandidate(np.zeros(7), u, advected=np.zeros(3))
        rows = heavy_top_hj_lhs(HT, cand)
        assert rows[8] == u[8]
        assert rows[9] == u[9]

    def test_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="layout"):
            heavy_top_hj_lhs(HT, HJCandidate(np.zeros(9), np.zeros(9)))
        with pytest.raises(ValueError, match="layout"):
            heavy_top_hj_lhs(HT, HJCandidate(np.zeros(7), np.zeros(10)))


class TestFreeTopHJ:
    def test_rows_scale_the_dynamical_field(self):
        rng = np.random.default_rng(35)
        sys = heavy_top_free_system(FREE)
        ii = FREE.i
        scales = np.array([ii[1] * ii[2], ii[2] * ii[0], ii[0] * ii[1]] * 2)
        for _ in range(100):
            g = rng.standard_normal(3)
            adv = rng.standard_normal(3)
            cand = HJCandidate(g, np.zeros(0), advected=adv)
            state = reduced_point(SE3, g, adv)
            expected = scales * field_at(sys, state)
            assert_allclose(heavy_top_lp_hj_lhs(FREE, cand), expected,
                            rtol=0, atol=1e-10)

    def test_aligned_axial_state_solves(self):
        cand = HJCandidate(np.array([0.0, 0.0, 1.7]), np.zeros(0),
                           advected=np.array([0.0, 0.0, 1.0]))
        assert_allclose(heavy_top_lp_hj_lhs(FREE, cand), 0.0, atol=1e-15)

    def test_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="layout"):
            heavy_top_lp_hj_lhs(FREE, HJCandidate(np.zeros(3), np.zeros(6),
                                                  advected=np.zeros(3)))


class TestLongRuns:
    def test_intermediate_axis_spin_is_unstable(self):
        sys = rigid_body_system(RB)
        near_mid = reduced_point(SO3, (1e-3, 3.0, 1e-3), l=(0, 0, 0))
        traj = run(flat_dynamical_field(sys, near_mid.layout), near_mid,
                   2e-3, 12.0)
        mid = traj.states[:, 1]
        assert np.max(np.abs(mid - 3.0)) > 1.0

    def test_long_axis_spin_stays_put(self):
        sys = rigid_body_system(RB)
        near_long = reduced_point(SO3, (1e-3, 1e-3, 3.0), l=(0, 0, 0))
        traj = run(flat_dynamical_field(sys, near_long.layout), near_long,
                   2e-3, 12.0)
        axial = traj.states[:, 2]
        assert np.max(np.abs(axial - 3.0)) < 0.1
