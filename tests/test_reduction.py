from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gyrostat import lie
from gyrostat.controlled import (RCHSystem, dynamical_field,
                                 flat_dynamical_field)
from gyrostat.integrate import Trajectory, run
from gyrostat.poisson import (ReducedTangent, ScalarField, casimirs,
                              hamiltonian_field, reduced_point, tangent_like)
from gyrostat.reduction import (PhasePoint, as_reduced,
                                commutation_residual, full_dynamical_field,
                                momentum_drift, momentum_fiber_point,
                                momentum_map, phase_point, project_reduced,
                                reconstruct, reduced_hamiltonian_check)
from gyrostat.systems import (HeavyTopRotorParams, RigidBodyRotorParams,
                              heavy_top_reduced_h, heavy_top_system,
                              rigid_body_reduced_h, rigid_body_system)

RB = RigidBodyRotorParams((1.0, 2.0, 3.0), (0.5, 0.4, 0.3))
HT = HeavyTopRotorParams((2.0, 1.5, 1.0), (0.4, 0.3), m=1.0, g=9.8, h=0.3,
                         chi=(0.0, 0.0, 1.0))


def constant_trajectory(q, n, dt):
    """n + 1 copies of the state q on the grid i * dt."""
    return Trajectory(np.arange(n + 1) * dt, np.tile(q.flat(), (n + 1, 1)),
                      {}, q.layout)


def random_phase_point(rng, kind, k=3):
    return phase_point(lie.random_group(rng, kind),
                       lie.random_coalgebra(rng, kind),
                       theta=rng.standard_normal(k),
                       l=rng.standard_normal(k))


class TestMomentumMap:
    def test_identity_group_returns_body_momentum(self):
        p = lie.coalgebra(lie.SO3, (1.0, -2.0, 0.5))
        pt = phase_point(lie.identity(lie.SO3), p)
        assert_allclose(momentum_map(pt).flat(), p.flat())

    def test_quarter_turn_rotates_momentum(self):
        g = lie.exp_group(lie.algebra(lie.SO3, (0.0, 0.0, np.pi / 2)))
        pt = phase_point(g, lie.coalgebra(lie.SO3, (1.0, 0.0, 0.0)))
        assert_allclose(momentum_map(pt).flat(), [0.0, 1.0, 0.0],
                        atol=1e-15)

    @pytest.mark.parametrize("kind", [lie.SO3, lie.SE3])
    def test_fiber_point_hits_the_level_set(self, kind):
        rng = np.random.default_rng(1)
        for _ in range(100):
            g = lie.random_group(rng, kind)
            mu = lie.random_coalgebra(rng, kind)
            pt = momentum_fiber_point(g, mu)
            assert_allclose(momentum_map(pt).flat(), mu.flat(), rtol=0,
                            atol=1e-12)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError, match="different groups"):
            phase_point(lie.identity(lie.SO3),
                        lie.coalgebra(lie.SE3, (1, 0, 0), (0, 0, 1)))

    def test_rotor_slots_must_pair(self):
        with pytest.raises(ValueError, match="pair"):
            phase_point(lie.identity(lie.SO3),
                        lie.coalgebra(lie.SO3, (1, 0, 0)),
                        theta=(0.0,), l=(0.0, 0.0))


class TestProjection:
    def test_identity_point_projects_to_mu(self):
        mu = lie.coalgebra(lie.SO3, (0.3, -1.2, 0.7))
        pt = phase_point(lie.identity(lie.SO3), mu, theta=(0.1,), l=(0.2,))
        q = project_reduced(pt, mu)
        assert_allclose(q.nu.flat(), mu.flat())
        assert_allclose(q.theta, [0.1])
        assert_allclose(q.l, [0.2])

    @pytest.mark.parametrize("kind", [lie.SO3, lie.SE3])
    def test_lifted_points_stay_on_the_orbit(self, kind):
        rng = np.random.default_rng(2)
        mu = lie.random_coalgebra(rng, kind)
        want = dict(casimirs(reduced_point(kind, mu.pi, mu.gamma)))
        for _ in range(50):
            pt = momentum_fiber_point(lie.random_group(rng, kind), mu)
            q = project_reduced(pt, mu)
            for name, value in casimirs(q):
                assert abs(value - want[name]) <= 1e-8

    def test_membership_violation_reports_defect(self):
        mu = lie.coalgebra(lie.SO3, (1.0, 0.0, 0.0))
        off = lie.coalgebra(lie.SO3, (1.0, 0.5, 0.0))
        pt = phase_point(lie.identity(lie.SO3), off)
        with pytest.raises(ValueError, match="defect 5.000e-01"):
            project_reduced(pt, mu)


class TestReducedHamiltonian:
    def test_rigid_body_defect_is_rounding(self):
        rng = np.random.default_rng(3)
        h_red = rigid_body_system(RB).hamiltonian

        def h_full(pt):
            return rigid_body_reduced_h(RB, as_reduced(pt))

        samples = [random_phase_point(rng, lie.SO3) for _ in range(50)]
        assert reduced_hamiltonian_check(h_full, h_red, samples) <= 1e-10

    def test_heavy_top_defect_is_rounding(self):
        rng = np.random.default_rng(4)
        h_red = heavy_top_system(HT).hamiltonian

        def h_full(pt):
            return heavy_top_reduced_h(HT, as_reduced(pt))

        samples = [random_phase_point(rng, lie.SE3, k=2) for _ in range(50)]
        assert reduced_hamiltonian_check(h_full, h_red, samples) <= 1e-12

    def test_perturbed_reduced_hamiltonian_is_detected(self):
        rng = np.random.default_rng(5)
        base = rigid_body_system(RB).hamiltonian
        bumped = ScalarField(lambda p: base.eval(p) + 0.5, base.grad)

        def h_full(pt):
            return rigid_body_reduced_h(RB, as_reduced(pt))

        samples = [random_phase_point(rng, lie.SO3) for _ in range(20)]
        assert reduced_hamiltonian_check(h_full, bumped, samples) == \
            pytest.approx(0.5, abs=1e-12)


class TestCommutation:
    def test_builtin_rigid_body_two_paths_agree(self):
        rng = np.random.default_rng(6)
        sys = rigid_body_system(RB)
        for _ in range(100):
            g = lie.random_group(rng, lie.SO3)
            mu = lie.random_coalgebra(rng, lie.SO3)
            pt = momentum_fiber_point(g, mu, theta=rng.standard_normal(3),
                                      l=rng.standard_normal(3))
            assert commutation_residual(sys, pt, mu) <= 1e-8

    def test_identity_point_residual_is_zero(self):
        mu = lie.coalgebra(lie.SO3, (1.0, -0.5, 0.2))
        pt = phase_point(lie.identity(lie.SO3), mu, theta=np.zeros(3),
                         l=np.full(3, 0.1))
        assert commutation_residual(rigid_body_system(RB), pt, mu) == 0.0

    def test_corrupted_reduced_field_is_measured(self):
        sys = rigid_body_system(RB)
        mu = lie.coalgebra(lie.SO3, (1.0, -0.5, 0.2))
        pt = phase_point(lie.identity(lie.SO3), mu, theta=np.zeros(3),
                         l=np.zeros(3))
        eps = 1e-3

        def corrupted(q):
            bump = ReducedTangent(np.array([eps, 0.0, 0.0]), None,
                                  np.zeros(q.n_theta), np.zeros(q.n_l))
            return tangent_like(q, dynamical_field(sys, q).flat()
                                + bump.flat())

        res = commutation_residual(sys, pt, mu, reduced_field_fn=corrupted)
        assert res == pytest.approx(eps, abs=1e-15)

    def test_membership_checked_first(self):
        sys = rigid_body_system(RB)
        pt = phase_point(lie.identity(lie.SO3),
                         lie.coalgebra(lie.SO3, (1.0, 0.0, 0.0)),
                         theta=np.zeros(3), l=np.zeros(3))
        with pytest.raises(ValueError, match="defect"):
            commutation_residual(sys, pt,
                                 lie.coalgebra(lie.SO3, (0.0, 1.0, 0.0)))

    def test_angle_moving_control_rejected(self):
        def sideways(x):
            return [0.0] * 3 + [1.0] * (len(x) - 6) + [0.0] * 3

        sys = RCHSystem(rigid_body_system(RB).hamiltonian, lie.SO3, 3,
                        control=sideways)
        mu = lie.coalgebra(lie.SO3, (1.0, 0.0, 0.0))
        pt = phase_point(lie.identity(lie.SO3), mu, theta=np.zeros(3),
                         l=np.zeros(3))
        with pytest.raises(ValueError, match="vertical"):
            full_dynamical_field(sys, pt)

    def test_body_and_lift_read_from_one_field_evaluation(self):
        # body is the controlled field and lift is body minus the
        # Hamiltonian field, bit for bit, with a force and a control
        def force(x):
            return [0.3 * v for v in x[:3]] + [0.0] * (len(x) - 3)

        def control(x):
            return (np.sin(x[:3]).tolist() + [0.0] * (len(x) - 6)
                    + [0.7 * v for v in x[-3:]])

        sys = RCHSystem(rigid_body_system(RB).hamiltonian, lie.SO3, 3,
                        force=force, control=control)
        rng = np.random.default_rng(12)
        for _ in range(20):
            pt = random_phase_point(rng, lie.SO3)
            q = as_reduced(pt)
            v = full_dynamical_field(sys, pt)
            body = dynamical_field(sys, q).flat()
            assert np.array_equal(v.body.flat(), body)
            assert np.array_equal(
                v.lift, body - hamiltonian_field(sys.hamiltonian, q).flat())

    def test_vertical_control_passes_through(self):
        def torque(x):
            return [0.1] + [0.0] * (len(x) - 1)

        sys = RCHSystem(rigid_body_system(RB).hamiltonian, lie.SO3, 3,
                        control=torque)
        mu = lie.coalgebra(lie.SO3, (1.0, 0.0, 0.0))
        pt = phase_point(lie.identity(lie.SO3), mu, theta=np.zeros(3),
                         l=np.zeros(3))
        v = full_dynamical_field(sys, pt)
        plain = full_dynamical_field(rigid_body_system(RB), pt)
        assert_allclose(v.body.d_pi - plain.body.d_pi, [0.1, 0.0, 0.0],
                        atol=1e-15)
        assert_allclose(v.xi.flat(), plain.xi.flat())


class TestReconstruct:
    def test_zero_field_keeps_the_group_fixed(self):
        h = ScalarField(lambda p: 0.0,
                        lambda p: ReducedTangent(np.zeros(3), None,
                                                 np.zeros(p.n_theta),
                                                 np.zeros(p.n_l)))
        g0 = lie.exp_group(lie.algebra(lie.SO3, (0.3, -0.1, 0.8)))
        traj = constant_trajectory(reduced_point(lie.SO3, (1.0, 2.0, 3.0)),
                                   49, 0.01)
        groups = reconstruct(traj, g0, RCHSystem(h, lie.SO3, 0))
        for rot in groups.rot:
            assert_allclose(rot, g0.rot, atol=1e-15)

    def test_constant_velocity_matches_closed_form(self):
        omega = np.array([0.4, -0.2, 0.9])
        h = ScalarField(lambda p: float(omega @ p.nu.pi),
                        lambda p: ReducedTangent(omega.copy(), None,
                                                 np.zeros(p.n_theta),
                                                 np.zeros(p.n_l)))
        g0 = lie.identity(lie.SO3)
        n, dt = 1000, 1e-3
        traj = constant_trajectory(reduced_point(lie.SO3, (0.0, 0.0, 1.0)),
                                   n, dt)
        groups = reconstruct(traj, g0, RCHSystem(h, lie.SO3, 0))
        want = lie.exp_group(lie.algebra(lie.SO3, n * dt * omega))
        assert_allclose(groups.rot[-1], want.rot, atol=1e-9)
        # output stays a rotation to tight tolerance
        final = groups.rot[-1]
        assert_allclose(final @ final.T, np.eye(3), atol=1e-12)

    def test_argument_validation(self):
        h = ScalarField(lambda p: 0.0)
        sys = RCHSystem(h, lie.SO3, 0)
        q = reduced_point(lie.SO3, (1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="positive"):
            reconstruct(constant_trajectory(q, 1, -0.1),
                        lie.identity(lie.SO3), sys)
        with pytest.raises(ValueError, match="non-empty"):
            reconstruct(constant_trajectory(q, -1, 0.1),
                        lie.identity(lie.SO3), sys)
        with pytest.raises(ValueError, match="order"):
            reconstruct(constant_trajectory(q, 0, 0.1),
                        lie.identity(lie.SO3), sys, order=2)
        for order in (1, 4):
            # a layout without rotors against a system with three
            with pytest.raises(ValueError, match="rotor_count"):
                reconstruct(constant_trajectory(q, 1, 0.1),
                            lie.identity(lie.SO3), RCHSystem(h, lie.SO3, 3),
                            order=order)
        with pytest.raises(ValueError, match="kind mismatch"):
            reconstruct(constant_trajectory(q, 1, 0.1),
                        lie.identity(lie.SE3), sys)

    @pytest.mark.parametrize("order, per_step", [(1, 1), (4, 4)])
    def test_one_gradient_per_stage_point(self, order, per_step):
        # order 4 takes the gradient once per RK4 stage point and feeds it
        # to both the controlled rates and the body velocity
        sys = rigid_body_system(RB)
        p0 = reduced_point(lie.SO3, (1.0, 0.4, -0.7), theta=(0, 0, 0),
                           l=(0.1, -0.2, 0.3))
        traj = run(flat_dynamical_field(sys, p0.layout), p0, 1e-3, 0.1)
        calls = []
        grad_row = sys.hamiltonian.grad_row

        def counted(x):
            calls.append(1)
            return grad_row(x)

        counted_sys = replace(
            sys, hamiltonian=replace(sys.hamiltonian, grad_row=counted))
        reconstruct(traj, lie.identity(lie.SO3), counted_sys, order=order)
        assert len(calls) == per_step * (len(traj.states) - 1)

    def test_rigid_body_momentum_drift_by_order(self):
        sys = rigid_body_system(RB)
        p0 = reduced_point(lie.SO3, (1.0, 0.4, -0.7), theta=(0, 0, 0),
                           l=(0.1, -0.2, 0.3))
        traj = run(flat_dynamical_field(sys, p0.layout), p0, 1e-3, 2.5)
        coarse = reconstruct(traj, lie.identity(lie.SO3), sys)
        fine = reconstruct(traj, lie.identity(lie.SO3), sys, order=4)
        d1 = momentum_drift(traj, coarse)
        d4 = momentum_drift(traj, fine)
        assert d4 <= 1e-6
        assert d4 < d1 <= 5e-3

    def test_heavy_top_momentum_drift_fourth_order(self):
        sys = heavy_top_system(HT)
        gamma0 = np.array([0.2, -0.1, 0.97])
        gamma0 /= np.linalg.norm(gamma0)
        q0 = reduced_point(lie.SE3, (0.4, -0.2, 0.8), gamma0,
                           theta=(0.0, 0.0), l=(0.05, -0.04))
        traj = run(flat_dynamical_field(sys, q0.layout), q0, 1e-3, 2.5)
        groups = reconstruct(traj, lie.identity(lie.SE3), sys, order=4)
        assert momentum_drift(traj, groups) <= 1e-6

    def test_drift_requires_matching_lengths(self):
        q = reduced_point(lie.SO3, (1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="equal length"):
            momentum_drift(constant_trajectory(q, 1, 0.1),
                           lie.GroupPath(lie.SO3, np.eye(3)[None]))


class TestBodyVelocity:
    def test_se3_velocity_collects_both_gradients(self):
        sys = heavy_top_system(HT)
        q = reduced_point(lie.SE3, (0.5, 0.0, 1.0), (0.0, 0.0, 1.0),
                          theta=(0.0, 0.0), l=(0.1, 0.0))
        pt = phase_point(lie.identity(lie.SE3), q.nu, q.theta, q.l)
        xi = full_dynamical_field(sys, pt).xi
        assert xi.kind == lie.SE3
        assert_allclose(xi.vel, HT.mgh * HT.chi)
