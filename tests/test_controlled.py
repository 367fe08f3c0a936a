from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from gyrostat import lie, systems
from gyrostat.controlled import (RCHSystem, fiber_map_lift,
                                 flat_dynamical_field, matching_control)
from gyrostat.lie import SO3, SE3
from gyrostat.poisson import (Layout, ReducedPoint, ScalarField,
                              flat_hamiltonian_field,
                              random_polynomial_field)
from gyrostat.reduction import full_dynamical_field


def random_point(rng, kind=SO3, nt=3, nl=3):
    return ReducedPoint(lie.random_algebra(rng, kind),
                        rng.standard_normal(nt), rng.standard_normal(nl))


def field_at(sys, p):
    """The dynamical field of sys at the point p, as a flat array."""
    return np.array(flat_dynamical_field(sys, p.layout)(p.flat().tolist()))


def hamiltonian_at(h, p):
    """The Hamiltonian field of h at the point p, as a flat array."""
    return np.array(flat_hamiltonian_field(h, p.layout)(p.flat().tolist()))


def quadratic_h(dim):
    rng = np.random.default_rng(99)
    return random_polynomial_field(rng, dim, cubic_terms=0)


# -------------------------------------------------------------- vertical lifts

def test_identity_fiber_map_contributes_nothing():
    h = quadratic_h(9)
    sys = RCHSystem(h, SO3, 3, force=fiber_map_lift(lambda x: x),
                    control=fiber_map_lift(lambda x: x))
    p = random_point(np.random.default_rng(0))
    npt.assert_array_equal(field_at(sys, p), hamiltonian_at(h, p))


def test_constant_rotor_torque_shifts_momentum_rate_only():
    h = quadratic_h(9)
    delta = np.array([0.2, 0.0, -1.1])

    def torque(x):
        return x[:6] + [a + b for a, b in zip(x[6:], delta)]

    sys = RCHSystem(h, SO3, 3, control=fiber_map_lift(torque))
    p = random_point(np.random.default_rng(3))
    base = hamiltonian_at(h, p)
    out = field_at(sys, p)
    npt.assert_array_equal(out[:6], base[:6])
    npt.assert_allclose(out[6:], base[6:] + delta, atol=1e-15)


def test_zero_hamiltonian_gives_purely_vertical_field():
    zero = ScalarField(lambda p: 0.0, lambda x: np.zeros(len(x)),
                       grad_row=lambda x: [0.0] * len(x))
    delta = np.array([1.0, 2.0, 3.0])
    sys = RCHSystem(zero, SO3, 3, control=fiber_map_lift(
        lambda x: x[:6] + [a + b for a, b in zip(x[6:], delta)]))
    p = random_point(np.random.default_rng(4))
    npt.assert_array_equal(field_at(sys, p), np.r_[np.zeros(6), delta])


def test_field_minus_hamiltonian_part_is_the_lift():
    rng = np.random.default_rng(5)
    h = quadratic_h(9)
    for _ in range(20):
        shift = rng.standard_normal(9)
        sys = RCHSystem(h, SO3, 3, force=fiber_map_lift(
            lambda x, s=shift: [a + b for a, b in zip(x, s)]))
        p = random_point(rng)
        residue = field_at(sys, p) - hamiltonian_at(h, p)
        npt.assert_allclose(residue, shift, atol=1e-15)


def test_vertical_field_form_equals_fiber_map_form():
    h = quadratic_h(9)
    delta = np.array([0.5, -0.2, 0.1])

    def as_map(x):
        return x[:6] + [a + b for a, b in zip(x[6:], delta)]

    def as_field(x):
        return [0.0] * 6 + delta.tolist()

    p = random_point(np.random.default_rng(6))
    a = field_at(RCHSystem(h, SO3, 3, control=fiber_map_lift(as_map)), p)
    b = field_at(RCHSystem(h, SO3, 3, control=as_field), p)
    # the map form computes (l + delta) - l, one rounding away from delta
    npt.assert_allclose(a, b, atol=1e-15)


def test_force_lift_is_added_before_the_control_lift():
    # (rates + force) + control rounds differently from the other order
    h = quadratic_h(9)
    p = random_point(np.random.default_rng(17))
    force, control = [1.0] * 9, [2.0 ** 53] * 9
    sys = RCHSystem(h, SO3, 3, force=lambda x: force,
                    control=lambda x: control)
    base = hamiltonian_at(h, p).tolist()
    want = [(r + f) + c for r, f, c in zip(base, force, control)]
    assert want != [(r + c) + f for r, f, c in zip(base, force, control)]
    assert flat_dynamical_field(sys, p.layout)(p.flat().tolist()) == want


# ------------------------------------------------------------------ validation

def test_fiber_map_changing_layout_rejected():
    h = quadratic_h(9)
    sys = RCHSystem(h, SO3, 3, force=fiber_map_lift(lambda x: x[:-1]))
    with pytest.raises(ValueError, match="fiber-preserving"):
        field_at(sys, random_point(np.random.default_rng(7)))


def test_point_layout_must_match_system():
    h = quadratic_h(9)
    sys = RCHSystem(h, SO3, 3)
    with pytest.raises(ValueError, match="rotor"):
        field_at(sys, random_point(np.random.default_rng(8), nl=2, nt=2))
    with pytest.raises(ValueError, match="kind"):
        field_at(sys, random_point(np.random.default_rng(8), SE3, 3, 3))


def test_lift_of_another_length_rejected():
    # zip would drop the extra components or the missing rates silently
    h = quadratic_h(9)
    p = random_point(np.random.default_rng(9))
    for n in (8, 18):
        sys = RCHSystem(h, SO3, 3, control=lambda x, n=n: [0.0] * n)
        with pytest.raises(ValueError,
                           match=f"returned {n} lift components for 9 rates"):
            field_at(sys, p)


def test_bad_kind_and_rotor_count_rejected():
    h = quadratic_h(9)
    with pytest.raises(ValueError, match="kind"):
        RCHSystem(h, "SU2", 3)
    with pytest.raises(ValueError, match="rotor_count"):
        RCHSystem(h, SO3, -1)


def test_fiber_map_lift_requires_same_fiber():
    x = random_point(np.random.default_rng(10)).flat().tolist()
    lift = fiber_map_lift(lambda y: y[:4] + y[6:])
    with pytest.raises(ValueError, match="fiber-preserving"):
        lift(x)


# ------------------------------------------------------------ matching control

LAYOUT = Layout(SO3, 3, 3)


def same(x):
    return x


def linear_transport(scale):
    """Flat B-states (pi, theta, l) correspond to flat A-states
    (pi, theta, scale*l)."""
    stretch = [1.0] * 6 + [scale] * 3

    def pullback(y):
        return [a * s for a, s in zip(y, stretch)]

    def pullback_inverse(x):
        return [a / s for a, s in zip(x, stretch)]

    def push(v):
        return [a * s for a, s in zip(v, stretch)]

    return pullback, push, pullback_inverse


def test_matching_identical_systems_gives_zero_control():
    h = quadratic_h(9)
    sys = RCHSystem(h, SO3, 3)
    v = matching_control(sys, sys, LAYOUT, LAYOUT, same, same, same)
    rng = np.random.default_rng(11)
    for _ in range(10):
        out = v(random_point(rng).flat().tolist())
        npt.assert_allclose(out, np.zeros(9), atol=1e-15)


def test_matching_control_reproduces_transported_field():
    rng = np.random.default_rng(12)
    ha = random_polynomial_field(rng, 9)
    hb = random_polynomial_field(rng, 9)
    sys_a = RCHSystem(ha, SO3, 3)
    sys_b = RCHSystem(hb, SO3, 3)
    pullback, push, inverse = linear_transport(2.0)
    v = matching_control(sys_a, sys_b, LAYOUT, LAYOUT, pullback, push,
                         inverse)
    controlled = RCHSystem(ha, SO3, 3, control=v)
    field_b = flat_dynamical_field(sys_b, LAYOUT)
    for _ in range(100):
        p = random_point(rng)
        got = field_at(controlled, p)
        want = push(field_b(inverse(p.flat().tolist())))
        assert np.max(np.abs(got - want)) <= 1e-10


def test_matching_control_covers_forced_target():
    # B carries a force of its own; the transported field includes it
    rng = np.random.default_rng(13)
    ha = random_polynomial_field(rng, 9)
    hb = random_polynomial_field(rng, 9)
    kick = np.concatenate([np.zeros(6), [0.4, -0.3, 0.9]])
    sys_b = RCHSystem(hb, SO3, 3, force=fiber_map_lift(
        lambda x: [a + b for a, b in zip(x, kick)]))
    sys_a = RCHSystem(ha, SO3, 3)
    pullback, push, inverse = linear_transport(0.5)
    v = matching_control(sys_a, sys_b, LAYOUT, LAYOUT, pullback, push,
                         inverse)
    controlled = RCHSystem(ha, SO3, 3, control=v)
    field_b = flat_dynamical_field(sys_b, LAYOUT)
    for _ in range(20):
        p = random_point(rng)
        got = field_at(controlled, p)
        want = push(field_b(inverse(p.flat().tolist())))
        assert np.max(np.abs(got - want)) <= 1e-10


def test_scaling_target_hamiltonian_doubles_transported_term():
    rng = np.random.default_rng(14)
    ha = random_polynomial_field(rng, 9)
    hb = random_polynomial_field(rng, 9)
    hb2 = ScalarField(lambda p: 2.0 * hb.eval(p),
                      lambda x: 2.0 * hb.eval_batch(x),
                      grad_batch=lambda x: 2.0 * hb.grad_batch(x))
    pullback, push, inverse = linear_transport(1.0)
    sys_a = RCHSystem(ha, SO3, 3)
    v1 = matching_control(sys_a, RCHSystem(hb, SO3, 3), LAYOUT, LAYOUT,
                          pullback, push, inverse)
    v2 = matching_control(sys_a, RCHSystem(hb2, SO3, 3), LAYOUT, LAYOUT,
                          pullback, push, inverse)
    p = random_point(rng)
    xa = hamiltonian_at(ha, p)
    t1 = np.array(v1(p.flat().tolist())) + xa
    t2 = np.array(v2(p.flat().tolist())) + xa
    npt.assert_allclose(t2, 2.0 * t1, atol=1e-12)


def test_non_invertible_pullback_raises():
    h = quadratic_h(9)
    sys = RCHSystem(h, SO3, 3)

    def collapse(y):
        return y[:6] + [0.0 * v for v in y[6:]]

    v = matching_control(sys, sys, LAYOUT, LAYOUT, collapse, same, same)
    p = random_point(np.random.default_rng(15))
    with pytest.raises(ValueError, match="invertible"):
        v(p.flat().tolist())


def test_pullback_changing_length_rejected():
    # a round trip that drops or adds a component names the pullback and
    # both lengths
    h = quadratic_h(9)
    sys = RCHSystem(h, SO3, 3)
    x = random_point(np.random.default_rng(17)).flat().tolist()
    for pullback, k in ((lambda y: y[:-1], 8), (lambda y: y + [0.0], 10)):
        v = matching_control(sys, sys, LAYOUT, LAYOUT, pullback, same, same)
        with pytest.raises(ValueError, match=f"^pullback returned {k} "
                                             "components for a state of 9$"):
            v(x)


def test_control_rejects_points_of_another_layout():
    # (SO3, 0, 3) fits the system, but the control was built for (SO3, 3, 3)
    h = quadratic_h(9)
    sys = RCHSystem(h, SO3, 3)
    v = matching_control(sys, sys, LAYOUT, LAYOUT, same, same, same)
    p = random_point(np.random.default_rng(16), nt=0)
    with pytest.raises(ValueError, match="layout"):
        v(p.flat().tolist())


def test_control_rejects_the_columns_of_a_stack():
    # the control takes one state, so the column pass of
    # full_dynamical_field gets a clear error rather than numpy's
    h = quadratic_h(9)
    sys = RCHSystem(h, SO3, 3)
    v = matching_control(sys, sys, LAYOUT, LAYOUT, same, same, same)
    states = np.random.default_rng(18).standard_normal((4, 9))
    with pytest.raises(TypeError, match="one flat state, not columns"):
        full_dynamical_field(RCHSystem(h, SO3, 3, control=v), LAYOUT, states)


# ------------------------------------- a non-identity equivalence (cyclic)

def axis_permutation(perm):
    """Flat maps of one axis permutation applied to the pi, theta and l
    blocks alike: B-state component i is A-state component perm[i]."""
    index = [3 * block + p for block in range(3) for p in perm]
    inverse = list(np.argsort(index))

    def pullback(y):
        return [y[i] for i in inverse]

    def pullback_inverse(x):
        return [x[i] for i in index]

    return pullback, pullback, pullback_inverse


def rigid_body(ibar, j):
    return systems.rigid_body_system(systems.RigidBodyRotorParams(ibar, j))


RB_A = rigid_body((1.0, 2.0, 3.0), (0.5, 0.4, 0.3))


class TestCyclicAxisPermutation:
    """The cyclic permutation (0, 1, 2) -> (1, 2, 0) preserves the cross
    product, so it is a Lie-Poisson automorphism of so(3)*. Applied to
    the pi, theta and l blocks it maps the rigid body ibar = 1 2 3,
    j = 0.5 0.4 0.3 onto ibar = 2 3 1, j = 0.4 0.3 0.5."""

    def states(self, seed, n=200):
        return np.random.default_rng(seed).standard_normal((n, 9)).tolist()

    def test_control_toward_the_permuted_body_is_zero(self):
        permuted = rigid_body((2.0, 3.0, 1.0), (0.4, 0.3, 0.5))
        v = matching_control(RB_A, permuted, LAYOUT, LAYOUT,
                             *axis_permutation((1, 2, 0)))
        for x in self.states(40):
            assert v(x) == [0.0] * 9

    def test_control_toward_a_third_body_transports_its_field(self):
        third = rigid_body((1.5, 2.5, 0.8), (0.2, 0.6, 0.35))
        pullback, push, inverse = axis_permutation((1, 2, 0))
        v = matching_control(RB_A, third, LAYOUT, LAYOUT, pullback, push,
                             inverse)
        controlled = flat_dynamical_field(replace(RB_A, control=v), LAYOUT)
        field = flat_dynamical_field(third, LAYOUT)
        for x in self.states(41):
            want = push(field(inverse(x)))
            npt.assert_allclose(controlled(x), want, rtol=1e-12,
                                atol=1e-12)
            assert max(map(abs, v(x))) > 1e-3

    def test_swap_is_anti_poisson_and_leaves_a_control(self):
        swapped = rigid_body((2.0, 1.0, 3.0), (0.4, 0.5, 0.3))
        v = matching_control(RB_A, swapped, LAYOUT, LAYOUT,
                             *axis_permutation((1, 0, 2)))
        worst = max(max(map(abs, v(x))) for x in self.states(42))
        assert worst > 1.0
