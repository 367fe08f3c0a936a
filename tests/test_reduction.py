from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gyrostat import lie
from gyrostat.config import CATALOGUE
from gyrostat.controlled import (RCHSystem, dynamical_field,
                                 flat_dynamical_field)
from gyrostat.integrate import Trajectory, run
from gyrostat.poisson import (Layout, ScalarField, flat_gradient,
                              flat_hamiltonian_field, random_polynomial_field,
                              reduced_point)
from gyrostat.reduction import (full_dynamical_field, momentum_drift,
                                reconstruct)
from gyrostat.systems import (HeavyTopRotorParams, RigidBodyRotorParams,
                              heavy_top_system, rigid_body_system)

RB = RigidBodyRotorParams((1.0, 2.0, 3.0), (0.5, 0.4, 0.3))
HT = HeavyTopRotorParams((2.0, 1.5, 1.0), (0.4, 0.3), m=1.0, g=9.8, h=0.3,
                         chi=(0.0, 0.0, 1.0))


def constant_trajectory(q, n, dt):
    """n + 1 copies of the state q on the grid i * dt."""
    return Trajectory(dt, np.tile(q.flat(), (n + 1, 1)), {}, q.layout)


def full_field_at(sys, q):
    """The full field at the one flat state of q, as 1-d rows."""
    full = full_dynamical_field(sys, q.layout, q.flat()[None])
    return type(full)(*(part[0] for part in full))


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
            rates = flat_hamiltonian_field(sys.hamiltonian, q.layout)(
                q.flat().tolist())
            assert np.array_equal(v.lift, body - rates)

    def test_stack_rows_equal_single_states(self):
        # each row of a stacked evaluation is the one-state evaluation of
        # that row, bit for bit
        sys = RCHSystem(heavy_top_system(HT).hamiltonian, lie.SE3, 2,
                        control=lambda x: [0.2] * 6 + [0.0] * 2 + [-0.1] * 2)
        rng = np.random.default_rng(13)
        layout = Layout(lie.SE3, 2, 2)
        states = rng.standard_normal((5, 10))
        full = full_dynamical_field(sys, layout, states)
        assert [a.shape for a in full] == [(5, 6), (5, 10), (5, 10)]
        for i, x in enumerate(states):
            one = full_dynamical_field(sys, layout, x[None])
            for stacked, single in zip(full, one):
                assert np.array_equal(stacked[i], single[0])

    @pytest.mark.parametrize("shape", [(9,), (2, 8), (0, 9), (1, 2, 9)])
    def test_states_must_be_a_stack_of_flat_states(self, shape):
        with pytest.raises(ValueError, match=r"\(n, 9\) array"):
            full_dynamical_field(rigid_body_system(RB), Layout(lie.SO3, 3, 3),
                                 np.zeros(shape))

    def test_angle_moving_lift_anywhere_in_the_stack_is_rejected(self):
        def late(x):
            # moves the angles only at the state whose first entry is 2
            return [0.0] * 3 + [x[0] == 2.0] * 3 + [0.0] * 3

        sys = RCHSystem(rigid_body_system(RB).hamiltonian, lie.SO3, 3,
                        control=late)
        states = np.zeros((4, 9))
        assert not full_dynamical_field(sys, Layout(lie.SO3, 3, 3),
                                        states).lift.any()
        states[3, 0] = 2.0
        with pytest.raises(ValueError, match="vertical"):
            full_dynamical_field(sys, Layout(lie.SO3, 3, 3), states)

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


def list_path(sys, layout, states):
    """full_dynamical_field's three outputs built one state at a time on
    the list path: xi from the flat_gradient row, body from
    flat_dynamical_field and lift as body minus flat_hamiltonian_field."""
    nc = lie.algebra_dim(layout.kind)
    grad = flat_gradient(sys.hamiltonian, layout)
    field = flat_dynamical_field(sys, layout)
    hamiltonian = flat_hamiltonian_field(sys.hamiltonian, layout)
    rows = states.tolist()
    body = np.array([field(x) for x in rows])
    return (np.array([grad(x)[:nc] for x in rows]), body,
            body - np.array([hamiltonian(x) for x in rows]))


def with_lifts(h, kind, rotors):
    """h with a state-dependent force on the momenta and a constant
    control, both vertical."""
    nc = lie.algebra_dim(kind)

    def force(x):
        return ([a * b for a, b in zip(x[:3], x[-3:])]
                + [0.0] * (len(x) - 3))

    return RCHSystem(h, kind, rotors, force=force,
                     control=lambda x: [0.2] * nc + [0.0] * rotors
                     + [-0.1] * rotors)


class TestColumnPass:
    """full_dynamical_field evaluates the list path's formulas once on the
    columns of its stack, so each of its rows is the list path's state."""

    @pytest.mark.parametrize("name", sorted(CATALOGUE))
    def test_catalogue_systems_equal_the_list_path(self, name):
        kind = CATALOGUE[name]
        rng = np.random.default_rng(31)
        values = {key: rng.uniform(0.5, 2.0, size)
                  for key, size in kind.keys.items()}
        if "chi" in values:
            values["chi"] /= np.linalg.norm(values["chi"])
        params = kind.params(*values.values())
        layout = Layout(kind.algebra, kind.rotors, kind.rotors)
        sys = with_lifts(kind.build(params).hamiltonian, kind.algebra,
                         kind.rotors)
        states = rng.standard_normal(
            (73, lie.algebra_dim(kind.algebra) + 2 * kind.rotors))
        full = full_dynamical_field(sys, layout, states)
        for got, want in zip(full, list_path(sys, layout, states)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("source", ["eval_batch", "eval"])
    def test_finite_difference_gradients_equal_the_list_path(self, source):
        # the catalogue systems above read grad_row; these read central
        # differences of the heavy top's batched or pointwise value
        h = heavy_top_system(HT).hamiltonian
        h = {"eval_batch": ScalarField(h.eval, eval_batch=h.eval_batch),
             "eval": ScalarField(h.eval)}[source]
        sys, layout = with_lifts(h, lie.SE3, 2), Layout(lie.SE3, 2, 2)
        states = np.random.default_rng(32).standard_normal((23, 10))
        full = full_dynamical_field(sys, layout, states)
        for got, want in zip(full, list_path(sys, layout, states)):
            assert np.array_equal(got, want)

    def test_grad_batch_field_reads_the_batched_rows(self):
        # a polynomial's grad_batch rounds its matmul by the height of the
        # stack (the axiom suite's tests pin that), so its rows may differ
        # from its one-row calls, the list path's gradient, in the last
        # bit; the column pass reads the batched rows themselves
        h = random_polynomial_field(np.random.default_rng(33), 10)
        sys, layout = with_lifts(h, lie.SE3, 2), Layout(lie.SE3, 2, 2)
        states = np.random.default_rng(34).standard_normal((23, 10))
        full = full_dynamical_field(sys, layout, states)
        assert np.array_equal(full.xi, h.grad_batch(states)[:, :6])
        for got, want in zip(full, list_path(sys, layout, states)):
            assert_allclose(got, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("source", ["grad_row", "eval"])
    def test_non_finite_gradient_is_rejected(self, source):
        h = heavy_top_system(HT).hamiltonian
        h = {"grad_row": h,
             "eval": ScalarField(
                 lambda p: float("nan") if p.nu[0] < 0 else 0.0)}[source]
        states = np.ones((5, 10))
        states[3, 0] = {"grad_row": np.inf, "eval": -1.0}[source]
        with pytest.raises(ValueError, match="^non-finite gradient$"):
            full_dynamical_field(RCHSystem(h, lie.SE3, 2),
                                 Layout(lie.SE3, 2, 2), states)


def reconstruction_drifts():
    """dt -> order -> momentum drift of the order-1 and order-4
    reconstructions over the heavy top with two rotors, run to T = 2.5
    at dt = 4e-3, 2e-3 and 1e-3."""
    sys = heavy_top_system(HT)
    gamma0 = np.array([0.2, -0.1, 0.97])
    gamma0 /= np.linalg.norm(gamma0)
    q0 = reduced_point(lie.SE3, (0.4, -0.2, 0.8), gamma0,
                       theta=(0.0, 0.0), l=(0.05, -0.04))
    drifts = {}
    for dt in (4e-3, 2e-3, 1e-3):
        traj = run(flat_dynamical_field(sys, q0.layout), q0, dt, 2.5)
        drifts[dt] = {order: momentum_drift(traj, reconstruct(
            traj, lie.identity(lie.SE3), sys, order=order))
            for order in (1, 4)}
    return drifts


@pytest.fixture(scope="module")
def heavy_top_drifts():
    return reconstruction_drifts()


class TestReconstruct:
    def test_zero_field_keeps_the_group_fixed(self):
        h = ScalarField(lambda p: 0.0, grad_row=lambda x: [0.0] * len(x))
        g0 = lie.exp_group((0.3, -0.1, 0.8))
        traj = constant_trajectory(reduced_point(lie.SO3, (1.0, 2.0, 3.0)),
                                   49, 0.01)
        groups = reconstruct(traj, g0, RCHSystem(h, lie.SO3, 0))
        for rot in groups.rot:
            assert_allclose(rot, g0.rot, atol=1e-15)

    def test_constant_velocity_matches_closed_form(self):
        omega = np.array([0.4, -0.2, 0.9])
        grad = omega.tolist()
        h = ScalarField(lambda p: float(omega @ p.nu[:3]),
                        grad_row=lambda x: grad + [0.0] * (len(x) - 3))
        g0 = lie.identity(lie.SO3)
        n, dt = 1000, 1e-3
        traj = constant_trajectory(reduced_point(lie.SO3, (0.0, 0.0, 1.0)),
                                   n, dt)
        groups = reconstruct(traj, g0, RCHSystem(h, lie.SO3, 0))
        want = lie.exp_group(n * dt * omega)
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

    def test_heavy_top_momentum_drift_fourth_order(self, heavy_top_drifts):
        assert heavy_top_drifts[1e-3][4] <= 1e-6

    def test_heavy_top_momentum_drift_observed_orders(self, heavy_top_drifts):
        # log2 of the drift ratio per halving of dt is the observed order,
        # 4.00 for the RKMK step and 1.00 for the Lie-Euler step here, as
        # Hairer, Lubich and Wanner (Geometric Numerical Integration,
        # sec. IV.8) and Munthe-Kaas (BIT 38, 1998) predict. A dexpinv
        # double-bracket coefficient of 1/6 for 1/12 reads 2.98 at order 4
        drifts = np.array([[heavy_top_drifts[dt][order] for order in (4, 1)]
                           for dt in (4e-3, 2e-3, 1e-3)])
        orders = np.log2(drifts[:-1] / drifts[1:])
        assert (orders[:, 0] >= 3.5).all(), orders
        assert (abs(orders[:, 1] - 1.0) <= 0.2).all(), orders

    def test_drift_requires_matching_lengths(self):
        q = reduced_point(lie.SO3, (1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="equal length"):
            momentum_drift(constant_trajectory(q, 1, 0.1),
                           lie.GroupPath(lie.SO3, np.eye(3)[None]))

    def test_drift_requires_matching_kinds(self):
        # SE(3) elements over an SO(3) state with rotors would read the
        # rotor angles as gamma: here a drift of 8.77 where it is 0
        states = np.zeros((3, 9))
        states[:, 0] = 1.0
        states[1:, 3:6] = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        traj = Trajectory(0.1, states, {}, Layout(lie.SO3, 3, 3))
        groups = lie.GroupPath(lie.SE3, np.tile(np.eye(3), (3, 1, 1)),
                               np.zeros((3, 3)))
        with pytest.raises(ValueError, match="kind mismatch: SE3 vs SO3"):
            momentum_drift(traj, groups)
        assert momentum_drift(traj, lie.GroupPath(
            lie.SO3, groups.rot)) == 0.0


class TestBodyVelocity:
    def test_se3_velocity_collects_both_gradients(self):
        sys = heavy_top_system(HT)
        q = reduced_point(lie.SE3, (0.5, 0.0, 1.0), (0.0, 0.0, 1.0),
                          theta=(0.0, 0.0), l=(0.1, 0.0))
        xi = full_field_at(sys, q).xi
        assert xi.shape == (6,)
        assert_allclose(xi[3:], HT.mgh * HT.chi)
