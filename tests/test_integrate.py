import math

import numpy as np
import numpy.testing as npt
import pytest

from gyrostat import integrate, lie
from gyrostat.integrate import (Trajectory, rk4_step, run, standard_invariants,
                                step_count)
from gyrostat.lie import SO3
from gyrostat.poisson import ScalarField, point_like, reduced_point


def zero_field(x):
    return [0.0] * len(x)


def linear_field(x):
    # x_dot = x componentwise
    return list(x)


def start():
    return reduced_point(SO3, [0.3, -0.4, 0.8], theta=[0.1], l=[0.2])


def _reference_step(field, x, dt):
    """The RK4 step as comprehensions over zip, the reference whose
    arithmetic and evaluation order the generated kernel keeps."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    n, half = len(x), 0.5 * dt
    k1 = field(x)
    if len(k1) != n:
        raise integrate._rate_count_error(k1, n)
    k2 = field([a + half * k for a, k in zip(x, k1)])
    if len(k2) != n:
        raise integrate._rate_count_error(k2, n)
    k3 = field([a + half * k for a, k in zip(x, k2)])
    if len(k3) != n:
        raise integrate._rate_count_error(k3, n)
    k4 = field([a + dt * k for a, k in zip(x, k3)])
    if len(k4) != n:
        raise integrate._rate_count_error(k4, n)
    sixth = dt / 6.0
    y = [a + sixth * (p + 2.0 * q + 2.0 * r + s)
         for a, p, q, r, s in zip(x, k1, k2, k3, k4)]
    if not all(map(math.isfinite, y)):
        raise ValueError("integration step produced a non-finite state")
    return y


def bits(states) -> np.ndarray:
    """The float64 bit patterns of states, so that -0.0 differs from 0.0."""
    return np.asarray(states, dtype=float).view(np.int64)


def rigid_body_with_rotors():
    """The rigid body with three rotors of the long runs below: the
    system, its list field and the start point."""
    from gyrostat.controlled import flat_dynamical_field
    from gyrostat.systems import RigidBodyRotorParams, rigid_body_system

    sys = rigid_body_system(RigidBodyRotorParams((1.0, 2.0, 3.0),
                                                 (0.5, 0.4, 0.3)))
    p0 = reduced_point(SO3, (1.0, 0.4, -0.7), theta=(0.0, 0.0, 0.0),
                       l=(0.1, -0.2, 0.3))
    return sys, flat_dynamical_field(sys, p0.layout), p0


# ------------------------------------------------------------------- stepping

def test_zero_field_leaves_state_unchanged():
    x = start().flat()
    y = rk4_step(zero_field, x, 0.1)
    npt.assert_array_equal(y, x)


def test_linear_field_matches_exponential():
    x = start().flat()
    y = rk4_step(linear_field, x, 0.1)
    npt.assert_allclose(y, x * np.exp(0.1), atol=2.1e-8)


def test_step_requires_positive_dt():
    with pytest.raises(ValueError, match="dt"):
        rk4_step(zero_field, start().flat(), 0.0)


def test_step_halving_order_on_smooth_field():
    # Richardson estimate of the convergence order on x_dot = x
    x = start().flat()
    exact = x * np.exp(0.2)

    def err(dt):
        y = x
        for _ in range(int(round(0.2 / dt))):
            y = rk4_step(linear_field, y, dt)
        return np.max(np.abs(y - exact))

    order = np.log2(err(0.02) / err(0.01))
    assert order == pytest.approx(4.0, abs=0.1)


def test_non_finite_step_rejected():
    def bad(x):
        return [float("nan")] * len(x)

    with pytest.raises(ValueError, match="non-finite"):
        rk4_step(bad, start().flat(), 0.1)


def test_finite_state_whose_sum_overflows_is_kept():
    # the guard's sum overflows to inf, so the exact per-entry test
    # decides: every entry is finite, and a zero field keeps the state
    x = [1e308, 1e308]
    assert bits(rk4_step(zero_field, x, 0.1)).tolist() == bits(x).tolist()


@pytest.mark.parametrize("rates", [
    *(row for bad in (math.nan, math.inf, -math.inf)
      for row in ([bad, 0.0], [0.0, bad])),
    [math.inf, -math.inf]], ids=lambda r: ",".join(map(str, r)))
def test_non_finite_state_in_any_slot_rejected(rates):
    with pytest.raises(ValueError, match="^integration step produced a "
                                         "non-finite state$"):
        rk4_step(lambda x: rates, [0.5, -0.5], 0.1)


def nonlinear_field(x):
    # couples each component to its neighbours, so that a change in the
    # rounding of any stage sum shows in the result
    n = len(x)
    return [math.sin(x[(i + 1) % n]) * x[i] - 0.3 * x[i - 1] * x[i - 1]
            + 0.1 * (i % 3 - 1) for i in range(n)]


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "ndarray"])
@pytest.mark.parametrize("n", [0, 1, 3, 6, 9, 10, 12, 40])
def test_step_equals_the_comprehension_bit_for_bit(n, as_array):
    x = np.random.default_rng(n).standard_normal(n)
    x = x if as_array else x.tolist()
    # dt = 0.01 is one where dt * (1 / 6) and dt / 6 round apart
    for dt in (1e-3, 0.01, 0.1, 0.7):
        npt.assert_array_equal(
            bits(rk4_step(nonlinear_field, x, dt)),
            bits(_reference_step(nonlinear_field, x, dt)))


def test_long_run_equals_the_comprehension_bit_for_bit(monkeypatch):
    _, field, p0 = rigid_body_with_rotors()
    states = run(field, p0, 1e-3, 10.0).states
    monkeypatch.setattr(integrate, "rk4_step", _reference_step)
    npt.assert_array_equal(bits(states),
                           bits(run(field, p0, 1e-3, 10.0).states))


def test_step_kernel_is_generated_once_per_length(monkeypatch):
    made = []

    def counted(n):
        made.append(n)
        return generate(n)

    generate = integrate._generated_step
    monkeypatch.setattr(integrate, "_STEPS", {})
    monkeypatch.setattr(integrate, "_generated_step", counted)
    assert rk4_step(zero_field, [], 0.1) == []
    for n in (3, 9, 3, 0, 9, 3):
        rk4_step(nonlinear_field, [0.5] * n, 0.1)
    assert made == [0, 3, 9]
    assert sorted(integrate._STEPS) == [0, 3, 9]


@pytest.mark.parametrize("field", [lambda x: x[:-1], lambda x: 2 * x],
                         ids=["d-1 rates", "2d rates"])
def test_step_rejects_rates_of_another_length(field):
    # the count is checked before the rates are unpacked, so the error
    # names both counts
    x = start().flat().tolist()
    n = len(field(x))
    with pytest.raises(ValueError,
                       match=f"returned {n} rates for a state of 5 "):
        rk4_step(field, x, 0.1)


@pytest.mark.parametrize("stage", [2, 3, 4], ids=lambda s: f"stage {s}")
@pytest.mark.parametrize("delta", [-1, 1], ids=["d-1 rates", "d+1 rates"])
def test_step_checks_each_stage_before_using_it(stage, delta):
    # a stage that returns the wrong count must be caught before its rates
    # enter the next stage's state or the final sum
    x = start().flat().tolist()
    calls = []

    def field(y):
        calls.append(len(y))
        rates = [0.5] * len(y)
        if len(calls) == stage:
            return rates[:-1] if delta < 0 else rates + [0.5]
        return rates

    with pytest.raises(ValueError, match=f"field returned {5 + delta} "
                                         "rates for a state of 5 "):
        rk4_step(field, x, 0.1)
    assert calls == [5] * stage


# ----------------------------------------------------------------------- runs

def test_run_grid_and_lengths():
    traj = run(zero_field, start(), 0.1, 1.0)
    assert len(traj.states) == 11
    assert traj.dt == 0.1
    npt.assert_array_equal(traj.times, np.arange(11) * 0.1)


@pytest.mark.parametrize("dt,t_final,n", [
    (0.1, 1.0, 10), (1e-3, 10.0, 10000), (0.3, 1.0, 0), (0.5, 0.2, 0),
    # the tolerance 1e-9 * max(1, |t_final|) from both sides: 1000 steps
    # miss t_final = 100 by 0.9e-7 and 1.1e-7 against 1e-7
    (0.10000000009, 100.0, 1000), (0.10000000011, 100.0, 0)])
def test_step_count_counts_whole_steps_or_none(dt, t_final, n):
    # the one whole-steps rule shared by run and the [run] parser
    assert step_count(dt, t_final) == n


def test_run_rejects_non_dividing_step():
    with pytest.raises(ValueError, match="divide"):
        run(zero_field, start(), 0.3, 1.0)


@pytest.mark.parametrize("dt", [0.0, -0.1])
def test_run_requires_positive_dt(dt):
    with pytest.raises(ValueError, match="^dt must be positive$"):
        run(zero_field, start(), dt, 1.0)


def test_run_rejects_an_overflowing_step_count():
    with pytest.raises(ValueError, match="not finite"):
        run(zero_field, start(), 1e-300, 1e300)


def test_run_reports_blowup_time():
    p = reduced_point(SO3, [1e3, 0.0, 0.0])

    def explosive(x):
        return [40.0 * v for v in x]

    with pytest.raises(ValueError, match="blew up at t"):
        run(explosive, p, 0.1, 10.0)


def test_time_reversal_returns_to_start():
    def spiral(x):
        out = np.empty_like(x)
        out[0] = -x[1]
        out[1] = x[0]
        out[2:] = np.sin(x[2:])
        return out

    def backward(x):
        return -spiral(x)

    p0 = start()
    fwd = run(spiral, p0, 1e-3, 1.0)
    back = run(backward, point_like(fwd.layout, fwd.states[-1]), 1e-3, 1.0)
    assert np.max(np.abs(back.states[-1] - p0.flat())) <= 1e-6


def test_invariant_drift_series():
    # x_dot = x: a genuinely conserved quantity stays at zero drift while
    # a growing one accumulates (e - 1) I(0) by t = 1, relative to
    # max(1, |I(0)|); "first" starts at 0.3, under that floor, "large"
    # at 6, above it
    traj = run(linear_field, start(), 0.01, 1.0,
               invariants={"first": lambda x: x[:, 0],
                           "large": lambda x: 20.0 * x[:, 0],
                           "ratio": lambda x: x[:, 0] / x[:, 1]})
    assert list(traj.series) == ["first", "large", "ratio"]
    assert traj.max_drift("ratio") <= 1e-12
    assert traj.max_drift("first") == pytest.approx((np.e - 1) * 0.3,
                                                    rel=1e-8)
    assert traj.max_drift("large") == pytest.approx(np.e - 1, rel=1e-8)


def test_standard_invariants_names():
    h = ScalarField(lambda p: 0.0, eval_batch=lambda x: np.zeros(len(x)))
    assert set(standard_invariants(h, SO3)) == {"energy", "pi_sq"}
    assert set(standard_invariants(h, lie.SE3)) == {"energy", "pi_dot_gamma",
                                                    "gamma_sq"}


@pytest.mark.parametrize("shape", [(11, 1), (11, 2)])
def test_series_must_hold_one_value_per_time(shape):
    with pytest.raises(ValueError, match="'bad'.*shape"):
        run(zero_field, start(), 0.1, 1.0,
            invariants={"bad": lambda x: np.zeros(shape)})


# ----------------------------------------------------------------- container

@pytest.mark.parametrize("dt", [0.0, -0.1, np.nan, np.inf])
def test_trajectory_rejects_a_step_that_is_not_positive_and_finite(dt):
    p = start()
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        Trajectory(dt, np.tile(p.flat(), (2, 1)), {}, p.layout)


def test_single_sample_trajectory_keeps_its_step():
    p = start()
    traj = Trajectory(0.1, p.flat()[None, :], {}, p.layout)
    assert traj.dt == 0.1
    npt.assert_array_equal(traj.times, [0.0])


def test_trajectory_rejects_length_mismatch():
    p = start()
    with pytest.raises(ValueError, match="drift"):
        Trajectory(0.1, np.tile(p.flat(), (2, 1)), {"x": np.zeros(3)},
                   p.layout)


def test_trajectory_rejects_states_off_layout():
    p = start()
    with pytest.raises(ValueError, match="layout"):
        Trajectory(0.1, np.zeros((2, 4)), {}, p.layout)


# --------------------------------------------------- long physical runs

def test_rigid_body_invariants_over_long_run():
    sys, field, p0 = rigid_body_with_rotors()
    traj = run(field, p0, 1e-3, 10.0,
               standard_invariants(sys.hamiltonian, SO3))
    assert traj.max_drift("pi_sq") <= 1e-8
    assert traj.max_drift("energy") <= 1e-8


def test_rk4_observed_order_on_a_rigid_body_run():
    # RK4 is order 4 (Hairer, Lubich and Wanner, Geometric Numerical
    # Integration, 2nd ed., II.1): halving dt twice, the end states'
    # differences shrink by 2^4. Reads 4.01; a stage weight of
    # dt / 6.000001 instead of dt / 6 reads 2.32, and a q weight of
    # 2.0001 instead of 2 in the generated kernel 1.01.
    _, field, p0 = rigid_body_with_rotors()
    a, b, c = (run(field, p0, dt, 2.0).states[-1] for dt in (0.04, 0.02, 0.01))
    order = np.log2(np.max(np.abs(a - b)) / np.max(np.abs(b - c)))
    assert order >= 3.5


def test_heavy_top_invariants_over_long_run():
    from gyrostat.controlled import flat_dynamical_field
    from gyrostat.systems import HeavyTopRotorParams, heavy_top_system

    sys = heavy_top_system(HeavyTopRotorParams(
        (2.0, 1.5, 1.0), (0.4, 0.3), m=1.0, g=9.8, h=0.3,
        chi=(0.0, 0.0, 1.0)))
    gamma0 = np.array([0.2, -0.1, 0.97])
    gamma0 /= np.linalg.norm(gamma0)
    p0 = reduced_point(lie.SE3, (0.4, -0.2, 0.8), gamma0,
                       theta=(0.0, 0.0), l=(0.05, -0.04))
    traj = run(flat_dynamical_field(sys, p0.layout), p0, 1e-3, 10.0,
               standard_invariants(sys.hamiltonian, lie.SE3))
    for name in ("pi_dot_gamma", "gamma_sq", "energy"):
        assert traj.max_drift(name) <= 1e-8
