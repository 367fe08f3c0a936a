from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gyrostat import lie
from gyrostat.config import CATALOGUE
from gyrostat.controlled import RCHSystem, flat_dynamical_field
from gyrostat.integrate import Trajectory, run
from gyrostat.poisson import (Layout, ScalarField, _gradient_rows,
                              flat_gradient, flat_hamiltonian_field,
                              random_polynomial_field, reduced_point)
from gyrostat.reduction import (full_dynamical_field, momentum_drift,
                                reconstruct)
from gyrostat.systems import (HeavyTopRotorParams, RigidBodyRotorParams,
                              heavy_top_system, rigid_body_system)
from test_controlled import field_at

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
            body = field_at(sys, q)
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
    grad = flat_gradient(sys.hamiltonian)
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

    def test_finite_difference_gradients_equal_the_list_path(self):
        # the catalogue systems above read grad_row; this reads central
        # differences of the heavy top's batched value
        h = heavy_top_system(HT).hamiltonian
        h = ScalarField(h.eval, h.eval_batch)
        sys, layout = with_lifts(h, lie.SE3, 2), Layout(lie.SE3, 2, 2)
        states = np.random.default_rng(32).standard_normal((23, 10))
        full = full_dynamical_field(sys, layout, states)
        for got, want in zip(full, list_path(sys, layout, states)):
            assert np.array_equal(got, want)

    def test_polynomial_field_reads_its_stacked_rows(self):
        # a polynomial's grad_row on columns rounds its matmul by the
        # height of the stack (the axiom suite's tests pin that), so its
        # rows may differ from its one-row calls, the list path's gradient,
        # in the last bit; the column pass reads the stacked rows themselves
        h = random_polynomial_field(np.random.default_rng(33), 10)
        sys, layout = with_lifts(h, lie.SE3, 2), Layout(lie.SE3, 2, 2)
        states = np.random.default_rng(34).standard_normal((23, 10))
        full = full_dynamical_field(sys, layout, states)
        assert np.array_equal(full.xi,
                              _gradient_rows(h, states)[:, :6])
        for got, want in zip(full, list_path(sys, layout, states)):
            assert_allclose(got, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("source", ["grad_row", "eval_batch"])
    def test_non_finite_gradient_is_rejected(self, source):
        h = heavy_top_system(HT).hamiltonian
        h = {"grad_row": h,
             "eval_batch": ScalarField(
                 lambda p: float("nan") if p.nu[0] < 0 else 0.0,
                 lambda x: np.where(x[:, 0] < 0, np.nan, 0.0))}[source]
        states = np.ones((5, 10))
        states[3, 0] = {"grad_row": np.inf, "eval_batch": -1.0}[source]
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
        h = ScalarField(lambda p: 0.0, lambda x: np.zeros(len(x)),
                        grad_row=lambda x: [0.0] * len(x))
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
                        lambda x: x[:, :3] @ omega,
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

    def test_se3_constant_velocity_matches_closed_form(self):
        # a linear h on the heavy-top layout: pi and gamma move, but the
        # body velocity xi = dh/dnu stays constant, so the order-4 steps,
        # whose joint field runs the se(3)* rates kernel, must give
        # g(t) = g0 exp(t xi) to rounding. A Casimir shift of h, such as
        # 0.3 (pi . gamma), keeps the reduced flow and moves xi
        w = np.array([0.4, -0.2, 0.9, 0.3, 0.1, -0.5, 0.2, -0.3, 0.6, 0.1])
        grad = w.tolist()
        h = ScalarField(lambda p: float(w @ p.flat()), lambda x: x @ w,
                        grad_row=lambda x: grad)
        q0 = reduced_point(lie.SE3, (0.4, -0.2, 0.8), (0.2, -0.1, 0.97),
                           theta=(0.0, 0.0), l=(0.05, -0.04))
        g0 = lie.exp_group((0.3, -0.1, 0.8, 0.5, 0.2, -0.4))
        traj = run(flat_hamiltonian_field(h, q0.layout), q0, 1e-3, 1.0)
        assert np.ptp(traj.states[:, :6], axis=0).min() > 0.01
        groups = reconstruct(traj, g0, RCHSystem(h, lie.SE3, 2), order=4)
        # reads 2.6e-14 in the rotations and 1.3e-14 in the translations
        rot, trans = lie.flat_exp(np.outer(traj.times, w[:6]))
        assert_allclose(groups.rot, g0.rot @ rot, rtol=0, atol=1e-12)
        assert_allclose(groups.trans, (g0.rot @ trans[..., None])[..., 0]
                        + g0.trans, rtol=0, atol=1e-12)

    def test_argument_validation(self):
        h = ScalarField(lambda p: 0.0, lambda x: np.zeros(len(x)))
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


# The free axisymmetric gyrostat, ibar = (I1, I1, I3) and l = (0, 0, l3),
# in closed form (Landau and Lifshitz, Mechanics, sec. 33, for the
# symmetric top). With Omega = (pi_3 - l3) / I3 - pi_3 / I1 the body
# velocity is pi / I1 + Omega e3, so, with J = R0 pi0:
# - pi(t) = exp(-t Omega e3^) pi0;
# - theta_1,2(t) = -(e3 x (pi(t) - pi0))_1,2 / (Omega I1), the integral
#   of -pi_1,2 / I1, and theta_3(t) = t (l3 / j3 - (pi_3 - l3) / I3);
# - R(t) = exp(t J^ / I1) R0 exp(t Omega e3^), which keeps R pi = J.
GYROSTAT = RigidBodyRotorParams((1.0, 1.0, 3.0), (0.5, 0.4, 0.3))
GYROSTAT_PI0, GYROSTAT_L3 = np.array([1.0, 0.4, -0.7]), 0.7
GYROSTAT_G0 = lie.exp_group((0.3, -0.1, 0.8))


def gyrostat_exact(t):
    """The closed-form flat states (n, 9) and attitudes (n, 3, 3) of the
    free axisymmetric gyrostat at the times t."""
    (i1, _, i3), j3 = GYROSTAT.ibar, GYROSTAT.j[2]
    pi0, l3, r0 = GYROSTAT_PI0, GYROSTAT_L3, GYROSTAT_G0.rot
    omega = (pi0[2] - l3) / i3 - pi0[2] / i1
    spin = np.outer(t, [0.0, 0.0, omega])
    pi = lie.flat_exp(-spin)[0] @ pi0
    theta = np.cross([0.0, 0.0, 1.0], pi - pi0) / (-omega * i1)
    theta[:, 2] = t * (l3 / j3 - (pi0[2] - l3) / i3)
    l = np.broadcast_to([0.0, 0.0, l3], pi.shape)
    rot = (lie.flat_exp(np.outer(t, r0 @ pi0) / i1)[0] @ r0
           @ lie.flat_exp(spin)[0])
    return np.hstack([pi, theta, l]), rot


@pytest.fixture(scope="module")
def gyrostat_runs():
    """The system and dt -> its run to T = 10, at dt = 4e-3, 2e-3, 1e-3."""
    sys = rigid_body_system(GYROSTAT)
    q0 = reduced_point(lie.SO3, GYROSTAT_PI0, theta=(0.0, 0.0, 0.0),
                       l=(0.0, 0.0, GYROSTAT_L3))
    field = flat_dynamical_field(sys, q0.layout)
    return sys, {dt: run(field, q0, dt, 10.0) for dt in (4e-3, 2e-3, 1e-3)}


class TestFreeSymmetricGyrostat:
    def test_run_matches_the_closed_form(self, gyrostat_runs):
        # reads 1.4e-14 in pi and 1.3e-13 relative in theta, which grows
        # to 28 by T = 10
        for traj in gyrostat_runs[1].values():
            want = gyrostat_exact(traj.times)[0]
            err = np.abs(traj.states - want) / np.maximum(1.0, np.abs(want))
            assert err.max() <= 1e-12

    def test_order_4_attitude_matches_the_closed_form(self, gyrostat_runs):
        # at the coarsest step, where the truncation error is largest;
        # reads 3.2e-13, and 3.4e-10 with the dexpinv double-bracket
        # coefficient 1/6 for 1/12. An attitude error about the conserved
        # momentum keeps the momentum map constant; this check sees it
        sys, runs = gyrostat_runs
        traj = runs[4e-3]
        groups = reconstruct(traj, GYROSTAT_G0, sys, order=4)
        assert np.abs(groups.rot - gyrostat_exact(traj.times)[1]).max() \
            <= 1e-10

    def test_order_1_attitude_error_halves_with_dt(self, gyrostat_runs):
        # reads 7.5e-4 and 3.7e-4, an observed order of 1.0002
        sys, runs = gyrostat_runs
        coarse, fine = (np.abs(reconstruct(runs[dt], GYROSTAT_G0, sys).rot
                               - gyrostat_exact(runs[dt].times)[1]).max()
                        for dt in (4e-3, 2e-3))
        assert abs(np.log2(coarse / fine) - 1.0) <= 0.05, (coarse, fine)


# The sleeping top: pi, gamma and chi along e3 on an axisymmetric heavy top
# with resting rotors, a steady spin about the vertical. The state stays
# put and the body velocity is xi = (0, 0, pi3 / I3, 0, 0, m g h), so the
# attitude from the identity is g(t) = exp(t xi).
SLEEPING = HeavyTopRotorParams((2.0, 2.0, 1.0), (0.4, 0.3), m=1.0, g=9.8,
                               h=0.3, chi=(0.0, 0.0, 1.0))


@pytest.fixture(scope="module")
def sleeping_run():
    """The system and its run to T = 1 at dt = 1e-3 from the sleeping
    state, rotor angles included."""
    sys = heavy_top_system(SLEEPING)
    q0 = reduced_point(lie.SE3, (0.0, 0.0, 1.7), (0.0, 0.0, 1.0),
                       theta=(0.3, -1.2), l=(0.0, 0.0))
    return sys, run(flat_dynamical_field(sys, q0.layout), q0, 1e-3, 1.0)


class TestSleepingTop:
    def test_run_keeps_the_state(self, sleeping_run):
        # reads exactly 0
        traj = sleeping_run[1]
        assert np.array_equal(traj.states, np.broadcast_to(
            traj.states[0], traj.states.shape))

    @pytest.mark.parametrize("order", [1, 4])
    def test_attitude_is_the_steady_spin(self, sleeping_run, order):
        # the body velocity is constant, so both orders are exact: each
        # reads 5.0e-14 in the rotations and 1.4e-14 in the translations
        sys, traj = sleeping_run
        xi = [0.0, 0.0, 1.7 / SLEEPING.ibar[2], 0.0, 0.0, SLEEPING.mgh]
        groups = reconstruct(traj, lie.identity(lie.SE3), sys, order=order)
        for got, want in zip((groups.rot, groups.trans),
                             lie.flat_exp(np.outer(traj.times, xi))):
            err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            assert err.max() <= 1e-12


class TestBodyVelocity:
    def test_se3_velocity_collects_both_gradients(self):
        sys = heavy_top_system(HT)
        q = reduced_point(lie.SE3, (0.5, 0.0, 1.0), (0.0, 0.0, 1.0),
                          theta=(0.0, 0.0), l=(0.1, 0.0))
        xi = full_field_at(sys, q).xi
        assert xi.shape == (6,)
        assert_allclose(xi[3:], HT.mgh * HT.chi)
