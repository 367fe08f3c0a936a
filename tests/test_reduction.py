from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gyrostat import lie
from gyrostat.controlled import (RCHSystem, dynamical_field,
                                 flat_dynamical_field)
from gyrostat.integrate import Trajectory, run
from gyrostat.poisson import (ReducedTangent, ScalarField,
                              hamiltonian_field, reduced_point)
from gyrostat.reduction import (full_dynamical_field, momentum_drift,
                                reconstruct)
from gyrostat.systems import (HeavyTopRotorParams, RigidBodyRotorParams,
                              heavy_top_system, rigid_body_system)

RB = RigidBodyRotorParams((1.0, 2.0, 3.0), (0.5, 0.4, 0.3))
HT = HeavyTopRotorParams((2.0, 1.5, 1.0), (0.4, 0.3), m=1.0, g=9.8, h=0.3,
                         chi=(0.0, 0.0, 1.0))


def constant_trajectory(q, n, dt):
    """n + 1 copies of the state q on the grid i * dt."""
    return Trajectory(np.arange(n + 1) * dt, np.tile(q.flat(), (n + 1, 1)),
                      {}, q.layout)


def full_field_at(sys, q):
    return full_dynamical_field(sys, q.layout, q.flat().tolist())


class TestCommutation:
    def test_angle_moving_control_rejected(self):
        def sideways(x):
            return [0.0] * 3 + [1.0] * (len(x) - 6) + [0.0] * 3

        sys = RCHSystem(rigid_body_system(RB).hamiltonian, lie.SO3, 3,
                        control=sideways)
        q = reduced_point(lie.SO3, (1.0, 0.0, 0.0), theta=np.zeros(3),
                          l=np.zeros(3))
        with pytest.raises(ValueError, match="vertical"):
            full_field_at(sys, q)

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
            q = reduced_point(lie.SO3, rng.standard_normal(3),
                              theta=rng.standard_normal(3),
                              l=rng.standard_normal(3))
            v = full_field_at(sys, q)
            body = dynamical_field(sys, q).flat()
            assert np.array_equal(v.body, body)
            assert np.array_equal(
                v.lift, body - hamiltonian_field(sys.hamiltonian, q).flat())

    def test_vertical_control_passes_through(self):
        def torque(x):
            return [0.1] + [0.0] * (len(x) - 1)

        sys = RCHSystem(rigid_body_system(RB).hamiltonian, lie.SO3, 3,
                        control=torque)
        q = reduced_point(lie.SO3, (1.0, 0.0, 0.0), theta=np.zeros(3),
                          l=np.zeros(3))
        v = full_field_at(sys, q)
        plain = full_field_at(rigid_body_system(RB), q)
        assert_allclose(v.body[:3] - plain.body[:3], [0.1, 0.0, 0.0],
                        atol=1e-15)
        assert_allclose(v.xi, plain.xi)


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
        xi = full_dynamical_field(sys, q.layout, q.flat().tolist()).xi
        assert xi.shape == (6,)
        assert_allclose(xi[3:], HT.mgh * HT.chi)
