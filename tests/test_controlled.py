import ast
import importlib
from dataclasses import replace
from operator import add, sub
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from gyrostat import config as cfgmod
from gyrostat import controlled
from gyrostat import lie, systems
from gyrostat.controlled import (MatchingControl, RCHSystem, fiber_map_lift,
                                 flat_dynamical_field, matching_control)
from gyrostat.integrate import run
from gyrostat.lie import SO3, SE3
from gyrostat.poisson import (Layout, ReducedPoint, ScalarField,
                              flat_hamiltonian_field,
                              random_polynomial_field)
from gyrostat.reduction import full_dynamical_field

ROOT = Path(__file__).resolve().parent.parent


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
                      grad_row=lambda x: [2.0 * g for g in hb.grad_row(x)])
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


@pytest.mark.parametrize("slot", [0, 8])
def test_nan_round_trip_raises(slot):
    # max over the defects keeps a NaN only when it comes first, and a
    # NaN defect compares below any tolerance; either slot must raise
    h = quadratic_h(9)
    sys = RCHSystem(h, SO3, 3)

    def poisoned(y):
        return y[:slot] + [float("nan")] + y[slot + 1:]

    v = matching_control(sys, sys, LAYOUT, LAYOUT, poisoned, same, same)
    x = random_point(np.random.default_rng(20)).flat().tolist()
    for call in (v, flat_dynamical_field(replace(sys, control=v), LAYOUT)):
        with pytest.raises(ValueError, match=r"not invertible at this point "
                                             r"\(round-trip defect nan\)$"):
            call(x)


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


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize("which, message", [
    ("pullback_inverse", "pullback_inverse returned {} components for a "
                         "target state of 9"),
    ("push_tangent", "push_tangent returned {} rates, not 9")])
def test_map_changing_length_rejected(which, message, delta):
    # each map's result is checked against its own layout, so a push that
    # adds a component is not truncated and an inverse of another length
    # is named, by the control and by the engaged field alike
    h = quadratic_h(9)
    sys = RCHSystem(h, SO3, 3)
    maps = {"pullback": same, "push_tangent": same, "pullback_inverse": same,
            which: lambda y: y[:-1] if delta < 0 else y + [0.0]}
    v = matching_control(sys, sys, LAYOUT, LAYOUT, **maps)
    x = random_point(np.random.default_rng(19)).flat().tolist()
    for call in (v, flat_dynamical_field(replace(sys, control=v), LAYOUT)):
        with pytest.raises(ValueError, match=f"^{message.format(9 + delta)}$"):
            call(x)


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


def flat_states(seed, n=200):
    return np.random.default_rng(seed).standard_normal((n, 9)).tolist()


class TestCyclicAxisPermutation:
    """The cyclic permutation (0, 1, 2) -> (1, 2, 0) preserves the cross
    product, so it is a Lie-Poisson automorphism of so(3)*. Applied to
    the pi, theta and l blocks it maps the rigid body ibar = 1 2 3,
    j = 0.5 0.4 0.3 onto ibar = 2 3 1, j = 0.4 0.3 0.5."""

    def test_control_toward_the_permuted_body_is_zero(self):
        permuted = rigid_body((2.0, 3.0, 1.0), (0.4, 0.3, 0.5))
        v = matching_control(RB_A, permuted, LAYOUT, LAYOUT,
                             *axis_permutation((1, 2, 0)))
        for x in flat_states(40):
            assert v(x) == [0.0] * 9

    def test_control_toward_a_third_body_transports_its_field(self):
        third = rigid_body((1.5, 2.5, 0.8), (0.2, 0.6, 0.35))
        pullback, push, inverse = axis_permutation((1, 2, 0))
        v = matching_control(RB_A, third, LAYOUT, LAYOUT, pullback, push,
                             inverse)
        controlled = flat_dynamical_field(replace(RB_A, control=v), LAYOUT)
        field = flat_dynamical_field(third, LAYOUT)
        for x in flat_states(41):
            want = push(field(inverse(x)))
            npt.assert_allclose(controlled(x), want, rtol=1e-12,
                                atol=1e-12)
            assert max(map(abs, v(x))) > 1e-3

    def test_swap_is_anti_poisson_and_leaves_a_control(self):
        swapped = rigid_body((2.0, 1.0, 3.0), (0.4, 0.5, 0.3))
        v = matching_control(RB_A, swapped, LAYOUT, LAYOUT,
                             *axis_permutation((1, 0, 2)))
        worst = max(max(map(abs, v(x))) for x in flat_states(42))
        assert worst > 1.0


# ---------------------------------- one evaluation of A's field per state

def wrapped(sys):
    """sys with its control behind a lambda, as the span recorder wraps
    it: the generic path, which calls the whole control as a lift."""
    return replace(sys, control=lambda x: sys.control(x))


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


THIRD = rigid_body((1.5, 2.5, 0.8), (0.2, 0.6, 0.35))


def test_engaged_field_evaluates_its_hamiltonian_field_once():
    calls = []
    grad = RB_A.hamiltonian.grad_row
    h = replace(RB_A.hamiltonian,
                grad_row=lambda x: calls.append(x) or grad(x))
    sys_a = replace(RB_A, hamiltonian=h)
    v = matching_control(sys_a, THIRD, LAYOUT, LAYOUT,
                         *axis_permutation((1, 2, 0)))
    x = flat_states(43, 1)[0]
    for sys, evaluations in ((replace(sys_a, control=v), 1),
                             (wrapped(replace(sys_a, control=v)), 2)):
        calls.clear()
        flat_dynamical_field(sys, LAYOUT)(x)
        assert len(calls) == evaluations


def test_sum_kernel_is_generated_once_per_length():
    controlled._generated_sum.cache_clear()
    for dim, rotors, layout in ((9, 3, LAYOUT), (6, 3, Layout(SO3, 0, 3)),
                                (9, 3, LAYOUT), (3, 0, Layout(SO3, 0, 0)),
                                (6, 3, Layout(SO3, 0, 3))):
        sys = RCHSystem(quadratic_h(dim), SO3, rotors)
        v = matching_control(sys, sys, layout, layout, same, same, same)
        flat_dynamical_field(replace(sys, control=v), layout)
    info = controlled._generated_sum.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 2, 3)


def test_sum_kernel_is_bitwise_the_mapped_sum():
    # every length of a state with at most three rotor pairs
    rng = np.random.default_rng(46)
    for n in range(13):
        r, t = (rng.standard_normal((2, n)) * 1e3).tolist()
        want = list(map(add, r, map(sub, t, r)))
        got = controlled._generated_sum(n)(r, t)
        assert np.array_equal(bits(got), bits(want))
        with pytest.raises(ValueError):
            controlled._generated_sum(n)(r + [0.0], t)


@pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
def test_engaged_field_adds_lifts_only_under_a_force(forced, monkeypatch):
    # a free A sums its matched rates in the kernel alone; a forced A runs
    # the generic path, one _add_lifts call per state
    calls = []
    add_lifts = controlled._add_lifts
    monkeypatch.setattr(controlled, "_add_lifts",
                        lambda *args: calls.append(1) or add_lifts(*args))
    kick = fiber_map_lift(lambda x: [v + 0.25 for v in x])
    sys_a = replace(RB_A, force=kick if forced else None)
    v = matching_control(sys_a, THIRD, LAYOUT, LAYOUT,
                         *axis_permutation((1, 2, 0)))
    field = flat_dynamical_field(replace(sys_a, control=v), LAYOUT)
    for x in flat_states(47, 3):
        field(x)
    assert len(calls) == (3 if forced else 0)


def transport_cases() -> dict:
    """The transport workload's perfbench seeds 0-9, and the scenario text
    of demo 05."""
    demo = ast.parse((ROOT / "demos" / "05_matched_transport.py").read_text())
    text = next(ast.literal_eval(node.value) for node in demo.body
                if isinstance(node, ast.Assign)
                and node.targets[0].id == "SCENARIO")
    return {**{f"seed {seed}": seed for seed in range(10)}, "demo 05": text}


TRANSPORT_CASES = transport_cases()


@pytest.mark.parametrize("case", TRANSPORT_CASES.values(),
                         ids=TRANSPORT_CASES.keys())
def test_engaged_transport_run_is_bitwise_the_generic_sum(case, tmp_path,
                                                          monkeypatch):
    if isinstance(case, int):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        argv = importlib.import_module("workloads").prepare("transport", case,
                                                            tmp_path)
        cfg = cfgmod.load_config(argv[argv.index("--config") + 1])
    else:
        cfg = cfgmod.parse_config(case)
    sys = cfgmod.build_system(cfg)
    assert isinstance(sys.control, MatchingControl)
    p0 = cfgmod.build_initial(cfg)
    fast, generic = (run(flat_dynamical_field(s, p0.layout), p0,
                         cfg.run["dt"], cfg.run["t_final"]).states
                     for s in (sys, wrapped(sys)))
    assert np.array_equal(bits(fast), bits(generic))


def test_forced_system_adds_its_force_to_the_matched_sum():
    # v subtracts X_{h_A} alone, so the engaged field of a forced A is the
    # transported field plus the force lift; a forced A skips the matched
    # sum, so its rates are bit for bit those of a wrapped control
    kick = [0.0] * 6 + [0.4, -0.3, 0.9]
    forced = replace(RB_A, force=fiber_map_lift(
        lambda x: list(map(add, x, kick))))
    pullback, push, inverse = axis_permutation((1, 2, 0))
    v = matching_control(forced, THIRD, LAYOUT, LAYOUT, pullback, push,
                         inverse)
    sys = replace(forced, control=v)
    fast, generic = (flat_dynamical_field(s, LAYOUT)
                     for s in (sys, wrapped(sys)))
    target = flat_dynamical_field(THIRD, LAYOUT)
    for x in flat_states(44):
        assert np.array_equal(bits(fast(x)), bits(generic(x)))
        want = np.array(push(target(inverse(x)))) + kick
        npt.assert_allclose(fast(x), want, rtol=1e-12, atol=1e-12)


def test_control_on_another_hamiltonian_is_added_as_a_lift():
    v = matching_control(RB_A, THIRD, LAYOUT, LAYOUT,
                         *axis_permutation((1, 2, 0)))
    other = rigid_body((1.2, 0.9, 2.2), (0.3, 0.1, 0.6))
    field = flat_dynamical_field(replace(other, control=v), LAYOUT)
    own = flat_hamiltonian_field(other.hamiltonian, LAYOUT)
    for x in flat_states(45):
        assert np.array_equal(bits(field(x)),
                              bits(list(map(add, own(x), v(x)))))
