import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gyrostat import hamilton_jacobi as hj
from gyrostat import lie, systems
from gyrostat.controlled import RCHSystem
from gyrostat.poisson import (ScalarField, gradient, reduced_point,
                              tangent_like)

RB = systems.RigidBodyRotorParams((1.0, 2.0, 3.0), (0.5, 0.4, 0.3))
HT = systems.HeavyTopRotorParams((2.0, 1.5, 1.0), (0.4, 0.3), 1.2, 9.8, 0.5,
                                 np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0))


def rb_system():
    return systems.rigid_body_system(RB)


def ht_system():
    return systems.heavy_top_system(HT)


def spin_equilibrium(c=1.3):
    """Constant-body section that solves the rotor equations: spin about
    the third axis with the rotor momentum that parks the rotor."""
    ib, jj = np.asarray(RB.ibar), np.asarray(RB.j)
    l3 = jj[2] * c / (ib[2] + jj[2])
    nu = lie.coalgebra(lie.SO3, (0.0, 0.0, c))
    return hj.constant_body_section(nu, (0.0, 0.0, l3)), nu


def relatedness(*args):
    return hj.section_residuals(*args).relatedness


def hj_norm(*args):
    return float(np.linalg.norm(hj.section_residuals(*args).hj_components))


def tilted_gravity_data():
    """Heavy-top level set mu = (0, e3) whose plumb line is not aligned
    with the rotor-free symmetry axis chi."""
    a = np.array([0.0, 0.0, 1.0])
    mu = lie.coalgebra(lie.SE3, np.zeros(3), a)
    return hj.constant_body_section(mu, np.zeros(2)), mu, a


class TestConfigurations:
    def test_fields_and_sizes(self):
        q = hj.configuration(lie.identity(lie.SO3), (0.1, 0.2))
        assert q.kind == lie.SO3
        assert q.n_theta == 2
        assert q.theta.shape == (2,)

    def test_rejects_non_finite_angles(self):
        with pytest.raises(ValueError, match="finite"):
            hj.configuration(lie.identity(lie.SO3), (np.nan,))

    def test_random_configuration_shapes(self):
        rng = np.random.default_rng(0)
        q = hj.random_configuration(rng, lie.SE3, 2)
        assert q.kind == lie.SE3
        assert q.n_theta == 2

    def test_isotropy_samples_fix_the_momentum(self):
        rng = np.random.default_rng(1)
        mu = lie.coalgebra(lie.SO3, (0.4, -0.2, 0.9))
        for q in hj.isotropy_configurations(rng, mu, 8, 3):
            assert_allclose(lie.Ad_star(q.g, mu).flat(), mu.flat(),
                            atol=1e-12)

    def test_isotropy_samples_se3_aligned(self):
        rng = np.random.default_rng(2)
        mu = lie.coalgebra(lie.SE3, (0.0, 0.6, 0.0), (0.0, 3.0, 0.0))
        for q in hj.isotropy_configurations(rng, mu, 8, 2):
            assert_allclose(lie.Ad_star(q.g, mu).flat(), mu.flat(),
                            atol=1e-12)

    def test_isotropy_rejects_skew_se3_momentum(self):
        rng = np.random.default_rng(3)
        mu = lie.coalgebra(lie.SE3, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="parallel"):
            hj.isotropy_configurations(rng, mu, 2, 2)

    def test_zero_so3_momentum_samples_whole_group(self):
        rng = np.random.default_rng(4)
        mu = lie.coalgebra(lie.SO3, np.zeros(3))
        qs = hj.isotropy_configurations(rng, mu, 2, 0)
        assert qs[0].g.rot.shape == (3, 3)


def _reference_rows(rng, mu, n, k):
    """Samples as drawn one Configuration at a time before they were
    stacked: per-sample flat_exp, and compose of the angle and slide
    factors on se(3)*."""
    rows = []
    for _ in range(n):
        if not np.any(mu.flat()):
            x = lie.random_algebra(rng, mu.kind).flat()
            g = lie.GroupElement(mu.kind, *lie.flat_exp(x))
        elif mu.kind == lie.SO3:
            norm = float(np.linalg.norm(mu.pi))
            angle = rng.uniform(-np.pi, np.pi)
            g = lie.GroupElement(lie.SO3,
                                 *lie.flat_exp(angle * mu.pi / norm))
        else:
            axis = mu.gamma / np.linalg.norm(mu.gamma)
            angle = rng.uniform(-np.pi, np.pi)
            slide = rng.standard_normal()
            turn = lie.flat_exp(np.concatenate([angle * axis, np.zeros(3)]))
            shift = lie.flat_exp(np.concatenate([np.zeros(3), slide * axis]))
            g = lie.compose(lie.GroupElement(lie.SE3, *turn),
                            lie.GroupElement(lie.SE3, *shift))
        rows.append((g.rot, g.trans, rng.standard_normal(k)))
    return rows


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                   np.signbit(b))


ISOTROPY_LEVELS = {
    "so3-level": lie.coalgebra(lie.SO3, (0.4, -0.2, 0.9)),
    "so3-zero": lie.coalgebra(lie.SO3, np.zeros(3)),
    "se3-axis": lie.coalgebra(lie.SE3, np.zeros(3), (0.0, 0.0, 1.0)),
    "se3-off-axis": lie.coalgebra(lie.SE3, (0.6, -0.8, 2.4),
                                  (0.3, -0.4, 1.2)),
}


class TestStackedSamples:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2027])
    @pytest.mark.parametrize("level", sorted(ISOTROPY_LEVELS))
    def test_isotropy_stack_is_bitwise_the_per_sample_loop(self, level,
                                                           seed):
        mu = ISOTROPY_LEVELS[level]
        stack = hj.isotropy_configurations(np.random.default_rng(seed), mu,
                                           60, 3)
        want = _reference_rows(np.random.default_rng(seed), mu, 60, 3)
        assert _same_bits(stack.g.rot, np.array([r[0] for r in want]))
        if mu.kind == lie.SE3:
            assert _same_bits(stack.g.trans, np.array([r[1] for r in want]))
        else:
            assert stack.g.trans is None
        assert _same_bits(stack.theta, np.array([r[2] for r in want]))

    @pytest.mark.parametrize("seed", [0, 5, 2027])
    @pytest.mark.parametrize("kind", [lie.SO3, lie.SE3])
    def test_default_samples_are_bitwise_random_configuration(self, kind,
                                                               seed):
        gamma = hj.zero_section(kind, 2)
        stack = hj._default_samples(gamma, 40, seed)
        rng = np.random.default_rng(seed)
        want = [hj.random_configuration(rng, kind, 2) for _ in range(40)]
        assert _same_bits(stack.g.rot, np.array([q.g.rot for q in want]))
        if kind == lie.SE3:
            assert _same_bits(stack.g.trans,
                              np.array([q.g.trans for q in want]))
        assert _same_bits(stack.theta, np.array([q.theta for q in want]))

    def test_rotations_are_checked_once_over_the_stack(self, monkeypatch):
        calls = []
        check = lie._check_rotations
        monkeypatch.setattr(lie, "_check_rotations",
                            lambda rot: calls.append(rot.shape) or check(rot))
        mu = ISOTROPY_LEVELS["se3-off-axis"]
        stack = hj.isotropy_configurations(np.random.default_rng(3), mu,
                                           50, 2)
        assert calls == [(50, 3, 3)]
        views = list(stack)
        assert calls == [(50, 3, 3)]
        assert len(stack) == len(views) == 50
        q = views[17]
        assert isinstance(q, hj.Configuration) and q.kind == lie.SE3
        assert np.shares_memory(q.g.rot, stack.g.rot)
        assert np.array_equal(q.g.trans, stack.g.trans[17])
        assert np.array_equal(q.theta, stack.theta[17])
        assert stack[-1].theta.shape == (2,)

    def test_corrupted_row_is_rejected_by_index(self):
        mu = ISOTROPY_LEVELS["so3-level"]
        stack = hj.isotropy_configurations(np.random.default_rng(4), mu,
                                           8, 3)
        rot = stack.g.rot.copy()
        rot[5] *= 1.01
        with pytest.raises(ValueError, match=r"rot\[5\] is not orthonormal"):
            hj.ConfigurationStack(lie.GroupPath(lie.SO3, rot), stack.theta)

    def test_angles_are_checked(self):
        path = lie.GroupPath(lie.SO3, np.stack([np.eye(3)] * 3))
        with pytest.raises(ValueError, match=r"\(3, k\)"):
            hj.ConfigurationStack(path, np.zeros((2, 1)))
        with pytest.raises(ValueError, match="finite"):
            hj.ConfigurationStack(path, [[0.0], [np.inf], [0.0]])
        with pytest.raises(ValueError, match="at least one"):
            hj.isotropy_configurations(np.random.default_rng(0),
                                       ISOTROPY_LEVELS["so3-level"], 0, 1)


class TestSections:
    def test_constant_body_value_covers(self):
        nu = lie.coalgebra(lie.SO3, (0.1, 0.2, 0.3))
        sec = hj.constant_body_section(nu, (0.4, 0.5))
        rng = np.random.default_rng(5)
        q = hj.random_configuration(rng, lie.SO3, 2)
        assert_allclose(hj.fiber(sec, q), [0.1, 0.2, 0.3, 0.4, 0.5])

    def test_zero_section_is_zero(self):
        sec = hj.zero_section(lie.SE3, 2)
        q = hj.configuration(lie.identity(lie.SE3), (0.3, -0.1))
        assert_allclose(hj.fiber(sec, q), np.zeros(8))

    def test_rotor_quadratic_components(self):
        sec = hj.rotor_quadratic_section()
        assert sec.family == "exact_dW"
        q = hj.configuration(lie.identity(lie.SO3), (0.2, -0.7, 1.1))
        row = hj.fiber(sec, q)
        assert_allclose(row[:3], np.zeros(3))
        assert_allclose(row[3:], q.theta + np.array([3.0, 0.0, 0.0]))

    def test_fiber_rejects_a_row_of_the_wrong_shape(self):
        q = hj.configuration(lie.identity(lie.SO3), (0.0, 0.0))
        for row in (np.zeros(4), np.zeros(6), np.zeros((1, 5))):
            sec = hj.exact_section(lie.SO3, 2, lambda q, row=row: row)
            with pytest.raises(ValueError,
                               match=r"shape \(.*\), expected a \(5,\)"):
                hj.fiber(sec, q)

    def test_fiber_rejects_a_non_finite_row(self):
        q = hj.configuration(lie.identity(lie.SO3), (0.0, 0.0))
        for bad in (np.nan, np.inf):
            row = np.zeros(5)
            row[1] = bad
            sec = hj.exact_section(lie.SO3, 2, lambda q, row=row: row)
            with pytest.raises(ValueError, match="not finite"):
                hj.fiber(sec, q)

    def test_fiber_rejects_a_configuration_of_the_wrong_kind(self):
        sec = hj.zero_section(lie.SO3, 2)
        q = hj.configuration(lie.identity(lie.SE3), (0.0, 0.0))
        with pytest.raises(ValueError, match=r"\(SE3, 2 angles\) is not on "
                           r"the section's base \(SO3, 2 angles\)"):
            hj.fiber(sec, q)
        with pytest.raises(ValueError, match=r"\(SE3, 2 angles\)"):
            hj.section_residuals(rb_system(), sec, q)

    def test_fiber_rejects_the_wrong_angle_count(self):
        sec = hj.zero_section(lie.SO3, 2)
        for theta in ((), (0.0,), (0.0, 0.0, 0.0)):
            q = hj.configuration(lie.identity(lie.SO3), theta)
            with pytest.raises(ValueError,
                               match=rf"\(SO3, {len(theta)} angles\) is "
                                     r"not on the section's base \(SO3, 2"):
                hj.fiber(sec, q)

    def test_family_tag_is_checked(self):
        with pytest.raises(ValueError, match="family"):
            hj.OneFormSection(lambda q: None, lie.SO3, 0, family="best")

    def test_shear_needs_two_rotors(self):
        with pytest.raises(ValueError, match="two rotor"):
            hj.shear_section(lie.SO3, 1)

    def test_jacobian_matches_finite_differences(self):
        def grad_w(q):
            return np.concatenate([np.zeros(3),
                                   q.theta + np.array([3.0, 0.0, 0.0])])

        with_jac = hj.rotor_quadratic_section()
        without = hj.exact_section(lie.SO3, 3, grad_w)
        rng = np.random.default_rng(6)
        q = hj.random_configuration(rng, lie.SO3, 3)
        v = rng.standard_normal(6)
        assert_allclose(hj.fiber_derivative(with_jac, q, v),
                        hj.fiber_derivative(without, q, v), atol=1e-9)

    def test_fiber_derivative_checks_the_direction_shape(self):
        # both paths: the analytic jacobian and finite differences
        q = hj.configuration(lie.identity(lie.SO3), (0.0, 0.0))
        for sec in (hj.zero_section(lie.SO3, 2),
                    hj.shear_section(lie.SO3, 2)):
            for shape in ((4,), (6,), (1, 5)):
                with pytest.raises(ValueError, match="5-component base"):
                    hj.fiber_derivative(sec, q, np.zeros(shape))


class TestClosedness:
    def test_zero_section_exactly_closed(self):
        assert hj.closedness_defect(hj.zero_section(lie.SO3, 3), 10) == 0.0

    def test_constant_body_exactly_closed(self):
        nu = lie.coalgebra(lie.SE3, (0.3, -0.2, 0.5), (0.1, 0.4, -0.2))
        sec = hj.constant_body_section(nu, (0.2, -0.1))
        assert hj.closedness_defect(sec, 10) == 0.0

    def test_exact_section_closed_through_finite_differences(self):
        def grad_w(q):
            # differential of theta_1^2 theta_2 / 2
            return np.array([0.0, 0.0, 0.0, q.theta[0] * q.theta[1],
                             0.5 * q.theta[0] ** 2])

        sec = hj.exact_section(lie.SO3, 2, grad_w)
        assert hj.closedness_defect(sec, 10) <= 1e-6

    def test_shear_section_reports_unit_coefficient(self):
        defect = hj.closedness_defect(hj.shear_section(lie.SO3, 3), 10)
        assert abs(defect - 1.0) <= 0.1
        assert abs(defect - 1.0) <= 1e-8

    def test_spatial_section_is_not_closed_in_the_body_frame(self):
        mu = lie.coalgebra(lie.SO3, (0.0, 0.0, 2.0))
        assert hj.closedness_defect(hj.spatial_section(mu, 2), 10) > 1.0

    def test_deterministic_for_fixed_seed(self):
        sec = hj.shear_section(lie.SE3, 2)
        a = hj.closedness_defect(sec, 6, seed=7)
        b = hj.closedness_defect(sec, 6, seed=7)
        assert a == b


class TestPullbackIdentity:
    @pytest.mark.parametrize("factory", [
        lambda: hj.rotor_quadratic_section(),
        lambda: hj.constant_body_section(
            lie.coalgebra(lie.SO3, (0.7, -0.4, 0.2)), (0.1, 0.0, -0.2)),
        lambda: hj.constant_body_section(
            lie.coalgebra(lie.SE3, (0.3, 0.1, -0.2), (0.0, 0.0, 1.0)),
            (0.2, -0.3)),
    ])
    def test_pullback_equals_minus_exterior_derivative(self, factory):
        assert hj.pullback_identity_defect(factory(), 10) <= 1e-5

    def test_identity_holds_even_for_non_closed_sections(self):
        sec = hj.shear_section(lie.SO3, 3)
        assert hj.pullback_identity_defect(sec, 10) <= 1e-5
        assert hj.closedness_defect(sec, 10) > 0.5


class TestXGamma:
    def test_zero_section_is_stationary(self):
        rng = np.random.default_rng(8)
        q = hj.random_configuration(rng, lie.SO3, 3)
        x = hj.section_residuals(rb_system(), hj.zero_section(lie.SO3, 3),
                                 q).x_gamma
        assert x.shape == (6,)
        assert np.linalg.norm(x) == 0.0

    def test_constant_body_group_part_is_the_momentum_gradient(self):
        nu = lie.coalgebra(lie.SO3, (0.7, -0.4, 0.2))
        l0 = np.array([0.1, 0.0, -0.2])
        sec = hj.constant_body_section(nu, l0)
        sys = rb_system()
        rng = np.random.default_rng(9)
        q = hj.random_configuration(rng, lie.SO3, 3)
        x = hj.section_residuals(sys, sec, q).x_gamma
        ref = gradient(sys.hamiltonian,
                       reduced_point(lie.SO3, nu.pi, theta=q.theta, l=l0))
        assert_allclose(x[:3], ref.d_pi, atol=1e-15)
        assert_allclose(x[3:], ref.d_l, atol=1e-15)

    def test_zero_hamiltonian_with_vertical_control_stays_put(self):
        def torque(x):
            return [0.1, -0.2, 0.3] + [0.0] * (len(x) - 6) + [0.05, 0.0, 0.0]

        sys = RCHSystem(ScalarField(lambda p: 0.0, lambda p: tangent_like(
                            p, np.zeros(p.flat().size))),
                        lie.SO3, 3, control=torque)
        nu = lie.coalgebra(lie.SO3, (0.7, -0.4, 0.2))
        sec = hj.constant_body_section(nu, (0.1, 0.0, -0.2))
        rng = np.random.default_rng(10)
        q = hj.random_configuration(rng, lie.SO3, 3)
        assert np.linalg.norm(hj.section_residuals(sys, sec, q).x_gamma) \
            == 0.0


class TestRelatedness:
    def test_zero_section_on_the_rigid_body_is_related(self):
        rng = np.random.default_rng(11)
        sec = hj.zero_section(lie.SO3, 3)
        mu = lie.coalgebra(lie.SO3, np.zeros(3))
        for _ in range(5):
            q = hj.random_configuration(rng, lie.SO3, 3)
            assert relatedness(rb_system(), sec, q) <= 1e-10
            assert relatedness(rb_system(), sec, q, mu) <= 1e-10

    def test_gravity_breaks_the_zero_candidate(self):
        sec, mu, a = tilted_gravity_data()
        rng = np.random.default_rng(12)
        q = hj.isotropy_configurations(rng, mu, 1, 2)[0]
        residual = relatedness(ht_system(), sec, q, mu)
        expected = HT.mgh * np.linalg.norm(np.cross(a, HT.chi))
        assert_allclose(residual, expected, rtol=1e-12)
        assert residual > 1.0

    def test_perturbation_scales_linearly(self):
        rng = np.random.default_rng(13)
        sys = rb_system()
        ib, jj = np.asarray(RB.ibar), np.asarray(RB.j)
        c = 1.3
        l3 = jj[2] * c / (ib[2] + jj[2])
        ratios = []
        for eps in (1e-2, 1e-3, 1e-4):
            nu = lie.coalgebra(lie.SO3, (eps, 0.0, c))
            sec = hj.constant_body_section(nu, (0.0, 0.0, l3))
            qs = hj.isotropy_configurations(rng, nu, 3, 3)
            rel = max(relatedness(sys, sec, q, nu) for q in qs)
            res = max(hj_norm(sys, sec, q, nu) for q in qs)
            ratios.append((rel / eps, res / eps))
        flat = np.asarray(ratios)
        assert np.max(flat, axis=0) / np.min(flat, axis=0) == \
            pytest.approx([1.0, 1.0], abs=5e-2)

    def test_membership_is_enforced(self):
        nu = lie.coalgebra(lie.SO3, (0.5, 0.0, 0.0))
        sec = hj.constant_body_section(nu, np.zeros(3))
        g = lie.exp_group(lie.algebra(lie.SO3, (0.0, 0.0, 1.0)))
        q = hj.configuration(g, np.zeros(3))
        with pytest.raises(hj.MembershipError,
                           match=r"level set \(defect 4\.794e-01\)"):
            hj.section_residuals(rb_system(), sec, q, nu)


class TestHJResidual:
    def test_zero_section_solves_the_torque_free_equations(self):
        rng = np.random.default_rng(14)
        sec = hj.zero_section(lie.SO3, 3)
        mu = lie.coalgebra(lie.SO3, np.zeros(3))
        q = hj.random_configuration(rng, lie.SO3, 3)
        assert hj_norm(rb_system(), sec, q) == 0.0
        assert hj_norm(rb_system(), sec, q, mu) == 0.0

    def test_gravity_rows_survive_for_the_zero_candidate(self):
        sec, mu, a = tilted_gravity_data()
        rng = np.random.default_rng(15)
        q = hj.isotropy_configurations(rng, mu, 1, 2)[0]
        residual = hj_norm(ht_system(), sec, q, mu)
        assert_allclose(residual,
                        HT.mgh * np.linalg.norm(np.cross(a, HT.chi)),
                        rtol=1e-12)

    def test_components_match_rigid_body_assembly(self):
        rng = np.random.default_rng(16)
        sys = rb_system()
        ib, jj = np.asarray(RB.ibar), np.asarray(RB.j)
        scales = np.array([ib[1] * ib[2], ib[2] * ib[0], ib[0] * ib[1],
                           ib[0] * jj[0], ib[1] * jj[1], ib[2] * jj[2],
                           1.0, 1.0, 1.0])
        for _ in range(20):
            pi = rng.standard_normal(3)
            l0 = rng.standard_normal(3)
            theta = rng.standard_normal(3)
            nu = lie.coalgebra(lie.SO3, pi)
            sec = hj.constant_body_section(nu, l0)
            q = hj.configuration(lie.identity(lie.SO3), theta)
            comp = hj.section_residuals(sys, sec, q, nu).hj_components
            cand = systems.HJCandidate(
                np.concatenate([pi, theta, l0]), np.zeros(9))
            rows = systems.rigid_body_hj_lhs(RB, cand)
            assert_allclose(rows, scales * comp, atol=1e-10)

    def test_components_match_heavy_top_assembly(self):
        rng = np.random.default_rng(17)
        sys = ht_system()
        ib, jj = np.asarray(HT.ibar), np.asarray(HT.j)
        scales = np.array([ib[1] * ib[2], ib[2] * ib[0], ib[0] * ib[1],
                           ib[1] * ib[2], ib[2] * ib[0], ib[0] * ib[1],
                           ib[0] * jj[0], ib[1] * jj[1], 1.0, 1.0])
        for _ in range(20):
            pi = rng.standard_normal(3)
            gamma = rng.standard_normal(3)
            l0 = rng.standard_normal(2)
            theta = rng.standard_normal(2)
            nu = lie.coalgebra(lie.SE3, pi, gamma)
            sec = hj.constant_body_section(nu, l0)
            q = hj.configuration(lie.identity(lie.SE3), theta)
            comp = hj.section_residuals(sys, sec, q, nu).hj_components
            cand = systems.HJCandidate(
                np.concatenate([pi, theta, l0]), np.zeros(10),
                advected=gamma)
            rows = systems.heavy_top_hj_lhs(HT, cand)
            assert_allclose(rows, scales * comp, atol=1e-10)

    def test_components_match_free_top_assembly(self):
        rng = np.random.default_rng(18)
        free = systems.HeavyTopParams((2.0, 1.5, 1.0), 1.2, 9.8, 0.5,
                                      (0.0, 0.0, 1.0))
        sys = systems.heavy_top_free_system(free)
        i = np.asarray(free.i)
        scales = np.array([i[1] * i[2], i[2] * i[0], i[0] * i[1]] * 2)
        for _ in range(20):
            pi = rng.standard_normal(3)
            gamma = rng.standard_normal(3)
            nu = lie.coalgebra(lie.SE3, pi, gamma)
            sec = hj.constant_body_section(nu)
            q = hj.configuration(lie.identity(lie.SE3), ())
            comp = hj.section_residuals(sys, sec, q, nu).hj_components
            cand = systems.HJCandidate(pi, np.zeros(0), advected=gamma)
            rows = systems.heavy_top_lp_hj_lhs(free, cand)
            assert_allclose(rows, scales * comp, atol=1e-10)

    def test_components_include_the_lifted_control(self):
        rng = np.random.default_rng(25)
        u_pi = rng.standard_normal(3)
        u_l = rng.standard_normal(3)

        def control(x):
            return u_pi.tolist() + [0.0] * 3 + u_l.tolist()

        sys = RCHSystem(systems.rigid_body_hamiltonian(RB), lie.SO3, 3,
                        control=control)
        ib, jj = np.asarray(RB.ibar), np.asarray(RB.j)
        scales = np.array([ib[1] * ib[2], ib[2] * ib[0], ib[0] * ib[1],
                           ib[0] * jj[0], ib[1] * jj[1], ib[2] * jj[2],
                           1.0, 1.0, 1.0])
        pi = rng.standard_normal(3)
        l0 = rng.standard_normal(3)
        nu = lie.coalgebra(lie.SO3, pi)
        sec = hj.constant_body_section(nu, l0)
        q = hj.configuration(lie.identity(lie.SO3), rng.standard_normal(3))
        comp = hj.section_residuals(sys, sec, q, nu).hj_components
        u_rows = np.concatenate([u_pi, np.zeros(3), u_l])
        cand = systems.HJCandidate(
            np.concatenate([pi, q.theta, l0]), u_rows)
        rows = systems.rigid_body_hj_lhs(RB, cand)
        assert_allclose(rows, scales * comp, atol=1e-10)

    def test_full_flavor_differentiates_the_restricted_hamiltonian(self):
        sys = rb_system()
        sec = hj.rotor_quadratic_section()
        rng = np.random.default_rng(19)
        q = hj.random_configuration(rng, lie.SO3, 3)
        comp = hj.section_residuals(sys, sec, q).hj_components
        l = q.theta + np.array([3.0, 0.0, 0.0])
        rate = l * (1.0 / np.asarray(RB.ibar) + 1.0 / np.asarray(RB.j))
        assert_allclose(comp, np.concatenate([np.zeros(3), -rate]),
                        atol=1e-7)


class TestProbe:
    def test_spun_up_rotor_equilibrium_passes(self):
        sec, mu = spin_equilibrium()
        rng = np.random.default_rng(20)
        qs = hj.isotropy_configurations(rng, mu, 6, 3)
        res = hj.theorem_equivalence_probe(rb_system(), sec, qs, mu)
        assert res.verdict == "PASS"
        assert res.labels == ("PASS",) * 6
        assert_allclose(res.x_norm,
                        1.3 / (np.asarray(RB.ibar)[2] + np.asarray(RB.j)[2]),
                        rtol=1e-12)

    def test_tilted_gravity_fails_coherently(self):
        sec, mu, _ = tilted_gravity_data()
        rng = np.random.default_rng(21)
        qs = hj.isotropy_configurations(rng, mu, 6, 2)
        res = hj.theorem_equivalence_probe(ht_system(), sec, qs, mu)
        assert res.verdict == "FAIL"
        assert res.labels == ("FAIL",) * 6

    def test_rotor_quadratic_fails_on_the_unit_box(self):
        rng = np.random.default_rng(22)
        qs = [hj.configuration(lie.random_group(rng, lie.SO3),
                               rng.uniform(-1.0, 1.0, 3))
              for _ in range(8)]
        res = hj.theorem_equivalence_probe(rb_system(),
                                           hj.rotor_quadratic_section(), qs)
        assert res.verdict == "FAIL"
        assert res.hj.min() > 1.0

    def test_gate_rejects_non_closed_sections(self):
        mu = lie.coalgebra(lie.SO3, (0.0, 0.0, 2.0))
        rng = np.random.default_rng(23)
        qs = [hj.random_configuration(rng, lie.SO3, 2) for _ in range(3)]
        with pytest.raises(hj.GateRejection, match="closedness gate"):
            hj.theorem_equivalence_probe(rb_system(),
                                         hj.spatial_section(mu, 2), qs, mu)

    def test_probe_needs_samples(self):
        sec, mu = spin_equilibrium()
        with pytest.raises(ValueError, match="sample"):
            hj.theorem_equivalence_probe(rb_system(), sec, [], mu)

    @pytest.mark.parametrize("rel,res,label", [
        (1e-9, 1e-8, "PASS"),
        (0.5, 2.0, "FAIL"),
        (1e-9, 0.5, "INCONSISTENT"),
        (0.5, 1e-9, "INCONSISTENT"),
        (1e-5, 1e-5, "INCONSISTENT"),
    ])
    def test_classification_bands(self, rel, res, label):
        assert hj._classify(rel, res) == label

    def test_verdict_aggregation(self):
        assert zero_result("PASS", "FAIL").verdict == "MIXED"
        assert zero_result("PASS", "INCONSISTENT").verdict == "INCONSISTENT"
        assert zero_result("PASS", "PASS").verdict == "PASS"
        assert zero_result("FAIL").verdict == "FAIL"


def zero_result(*labels, gate=0.0):
    zeros = np.zeros(len(labels))
    return hj.ProbeResult(zeros, zeros, zeros, labels, gate)


def constant_torque(x):
    return [0.1, -0.2, 0.3] + [0.0] * 3 + [0.05, 0.0, -0.1]


class TestProbeRowsAreTheWrappers:
    """Every probe column entry holds exactly what section_residuals, the
    one per-sample entry point, returns at its sample, in both flavours,
    with and without a section jacobian and with and without a vertical
    control."""

    @pytest.mark.parametrize("reduced", [False, True])
    @pytest.mark.parametrize("with_jacobian", [True, False])
    @pytest.mark.parametrize("control", [None, constant_torque])
    def test_rows_equal_wrappers(self, reduced, with_jacobian, control):
        sys = RCHSystem(rb_system().hamiltonian, lie.SO3, 3,
                        control=control)
        rng = np.random.default_rng(26)
        if with_jacobian:
            nu = lie.coalgebra(lie.SO3, (0.7, -0.4, 0.2))
            sec = hj.constant_body_section(nu, (0.1, 0.0, -0.2))
            qs = hj.isotropy_configurations(rng, nu, 4, 3)
        else:
            # rotor_quadratic_section's grad_w alone, differenced
            sec = hj.exact_section(lie.SO3, 3,
                                   hj.rotor_quadratic_section().value)
            nu = lie.coalgebra(lie.SO3, np.zeros(3))
            qs = [hj.random_configuration(rng, lie.SO3, 3)
                  for _ in range(4)]
        assert (sec.jacobian is not None) == with_jacobian
        mu = nu if reduced else None
        res = hj.theorem_equivalence_probe(sys, sec, qs, mu)
        for column in (res.relatedness, res.hj, res.x_norm):
            assert column.dtype == np.float64 and column.shape == (4,)
        assert len(res.labels) == 4
        for i, q in enumerate(qs):
            r = hj.section_residuals(sys, sec, q, mu)
            assert res.relatedness[i] == r.relatedness
            assert res.hj[i] == np.linalg.norm(r.hj_components)
            assert res.x_norm[i] == np.linalg.norm(r.x_gamma)
            assert res.x_norm[i] > 0.0
            assert res.labels[i] == hj._classify(r.relatedness,
                                                 hj_norm(sys, sec, q, mu))

    def test_off_level_sample_raises_from_probe_and_wrappers(self):
        nu = lie.coalgebra(lie.SO3, (0.5, 0.0, 0.0))
        sec = hj.constant_body_section(nu, np.zeros(3))
        g = lie.exp_group(lie.algebra(lie.SO3, (0.0, 0.0, 1.0)))
        q = hj.configuration(g, np.zeros(3))
        sys = rb_system()
        with pytest.raises(hj.MembershipError, match="level set"):
            hj.section_residuals(sys, sec, q, nu)
        with pytest.raises(hj.MembershipError, match="level set"):
            hj.theorem_equivalence_probe(sys, sec, [q], nu)


class TestProbeResult:
    def test_aggregates_match_single_calls(self):
        sec, mu, a = tilted_gravity_data()
        rng = np.random.default_rng(24)
        qs = hj.isotropy_configurations(rng, mu, 5, 2)
        res = hj.theorem_equivalence_probe(ht_system(), sec, qs, mu)
        assert len(res.labels) == 5
        expected = HT.mgh * np.linalg.norm(np.cross(a, HT.chi))
        assert_allclose(res.relatedness.max(), expected, rtol=1e-12)
        assert_allclose(res.hj.max(), expected, rtol=1e-12)
        assert res.gate_defect == 0.0
        assert 0 <= np.argmax(res.relatedness) < 5
        assert 0 <= np.argmax(res.hj) < 5

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="non-negative"):
            zero_result("PASS", gate=-1.0)
        with pytest.raises(ValueError, match="non-negative"):
            hj.ProbeResult(np.array([np.nan]), np.zeros(1), np.zeros(1),
                           ("PASS",), 0.0)
        with pytest.raises(ValueError, match="non-negative"):
            hj.ProbeResult(np.zeros(1), np.array([-1e-300]), np.zeros(1),
                           ("PASS",), 0.0)

    def test_retained_bytes_per_sample(self):
        # the result keeps three float64 columns and one tuple slot per
        # sample, about 33 B at 1000 samples of the heavy-top level; one
        # frozen row object per sample kept about 185 B
        sec, mu, _ = tilted_gravity_data()
        n = 1000
        qs = hj.isotropy_configurations(np.random.default_rng(27), mu, n, 2)
        sys = ht_system()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = hj.theorem_equivalence_probe(sys, sec, qs, mu)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(res.labels) == n
        assert retained / n <= 64.0
