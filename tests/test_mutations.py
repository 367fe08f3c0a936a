"""Planted defects: each row patches one kernel or constant of the package
through pytest's monkeypatch and runs the semantic check that must catch
it, a test of its own module that passes there unpatched; under the
patch it must fail. A golden comparison never counts as that check: a
golden records what the code did, not what is right, and regenerating it
hides the change. This is mutation analysis (DeMillo, Lipton and Sayward,
IEEE Computer 11(4), 1978) kept as a table, so a check that loses its
teeth fails here.

Each row patches the name that the checked path looks up at call time,
in the module that looks it up. The first row is the bracket sign error
that ``test_cli``, ``test_poisson`` and ``test_golden`` also plant, through
:func:`plant_bracket_sign_error`. The table ends with one test that
every patched attribute is its original object again.
"""

from operator import add, neg
from typing import Callable, NamedTuple

import numpy as np
import pytest

import test_acceptance
import test_hj
import test_integrate
import test_poisson
import test_reduction
from gyrostat import config, integrate, lie, poisson, reduction
from gyrostat import hamilton_jacobi as hj


def _sign_error(bracket):
    """bracket with an antisymmetric corruption of its first structure
    constant: it breaks the Jacobi identity and Casimir commutation while
    keeping antisymmetry."""
    def corrupted(a, b):
        out = bracket(a, b)
        out[0] = out[0] + 0.5 * (a[0] * b[1] - a[1] * b[0])
        return out
    return corrupted


def plant_bracket_sign_error(monkeypatch) -> None:
    """Corrupt the bracket kernel of the axiom suite, poisson's
    ``_bracket_list``; lie's, which reconstruction reads, stays right."""
    monkeypatch.setattr(poisson, "_bracket_list",
                        _sign_error(lie._bracket_list))


def _dexpinv_sixth(dexpinv):
    """dexpinv with 1/6 for the double bracket's 1/12."""
    def mutated(sigma, xi):
        c2 = lie._bracket_list(sigma, lie._bracket_list(sigma, xi))
        return [a + c / 12.0 for a, c in zip(dexpinv(sigma, xi), c2)]
    return mutated


def _drift_floor_ten(_):
    return lambda s: (s - s[0]) / max(10.0, abs(s[0]))


def _lift_dropped(field):
    """The full field without its force-plus-control part, which only the
    full-flavor residual reads."""
    def mutated(*args):
        full = field(*args)
        return full._replace(lift=np.zeros_like(full.lift))
    return mutated


def _rk4_weight(step):
    """rk4_step with dt / 6.000001 for dt / 6: its increment scaled."""
    def mutated(field, x, dt):
        return [a + (6.0 / 6.000001) * (b - a)
                for a, b in zip(x, step(field, x, dt))]
    return mutated


def _on_se3(edit):
    """_hamiltonian_rates with ``edit(x, g, rates)`` applied to the
    rates of se(3)* layouts."""
    def mutant(kernel):
        def mutated(layout):
            rates = kernel(layout)
            if layout.kind != lie.SE3:
                return rates
            return lambda x, g: edit(x, g, rates(x, g))
        return mutated
    return mutant


def _omega_x_gamma(x, g, out):
    """gamma_dot = omega x gamma for gamma x omega."""
    return [*out[:3], *map(neg, out[3:6]), *out[6:]]


def _gamma_x_vel_dropped(x, g, out):
    """pi_dot = pi x omega, without gamma x vel."""
    return [x[1] * g[2] - x[2] * g[1], x[2] * g[0] - x[0] * g[2],
            x[0] * g[1] - x[1] * g[0], *out[3:]]


def _loose(value):
    return lambda _: value


def _level_in_the_body_frame(_):
    """The membership check without the coadjoint transport: the body
    momentum against mu."""
    def mutated(stack, rows, mu):
        defect = hj._row_norms(rows[:, :len(mu)] - mu)
        if (defect > hj.MEMBERSHIP_TOL).any():
            raise hj.MembershipError("section image is off the momentum "
                                     "level set")
    return mutated


def _relatedness_squared(residuals):
    """The relatedness residual as a squared norm, its root forgotten."""
    def mutated(*args):
        rel, comp, x = residuals(*args)
        return rel * rel, comp, x
    return mutated


def _se3_pi_sq(casimirs):
    """The se(3)* Casimirs with |pi|^2, so(3)*'s, as pi . gamma."""
    def mutated(kind):
        if kind == lie.SO3:
            return casimirs(kind)
        return [("pi_dot_gamma", poisson._slot_product(0, 0)),
                casimirs(kind)[1]]
    return mutated


def _gamma_sq_dropped(casimirs):
    return lambda kind: casimirs(kind)[:1]


def _own_field_kept(matching):
    """matching_control without the -X_{h_A} term: A's own field is not
    cancelled."""
    def mutated(sys_a, sys_b, layout_a, *rest):
        control = matching(sys_a, sys_b, layout_a, *rest)
        field_a = poisson.flat_hamiltonian_field(sys_a.hamiltonian, layout_a)
        return lambda x: list(map(add, control(x), field_a(x)))
    return mutated


class Row(NamedTuple):
    """One planted defect: ``module.name`` becomes ``mutant(original)``
    and ``check()`` must then fail."""

    module: object
    name: str
    mutant: Callable
    check: Callable[[], None]


ROWS = {
    "bracket-sign-error": Row(
        poisson, "_bracket_list", _sign_error,
        lambda: test_poisson.test_axiom_suite_small_sweep(
            "se3_product", 60, 11)),
    "dexpinv-sixth": Row(
        reduction, "_dexpinv", _dexpinv_sixth,
        lambda: test_reduction.TestReconstruct()
        .test_heavy_top_momentum_drift_observed_orders(
            test_reduction.reconstruction_drifts())),
    "drift-floor-ten": Row(
        integrate, "_relative_drift", _drift_floor_ten,
        test_integrate.test_invariant_drift_series),
    "full-flavor-lift-dropped": Row(
        hj, "full_dynamical_field", _lift_dropped,
        lambda: test_hj.TestHJResidual()
        .test_full_flavor_shifts_by_a_constant_control(
            test_hj.rb_system, lie.SO3, 3)),
    "rk4-stage-weight": Row(
        integrate, "rk4_step", _rk4_weight,
        test_integrate.test_rk4_observed_order_on_a_rigid_body_run),
    "se3-omega-x-gamma": Row(
        poisson, "_hamiltonian_rates", _on_se3(_omega_x_gamma),
        lambda: test_poisson.test_field_components_equal_coordinate_brackets(
            lie.SE3, 2, 2)),
    "se3-gamma-x-vel-dropped": Row(
        poisson, "_hamiltonian_rates", _on_se3(_gamma_x_vel_dropped),
        lambda: test_poisson.test_field_components_equal_coordinate_brackets(
            lie.SE3, 2, 2)),
    "gate-tolerance-1e-3": Row(
        hj, "GATE_TOL", _loose(1e-3),
        lambda: test_hj.TestProbe().test_gate_sits_at_its_tolerance()),
    "membership-in-the-body-frame": Row(
        hj, "_check_level", _level_in_the_body_frame,
        lambda: test_hj.TestRelatedness().test_membership_is_enforced()),
    "membership-tolerance-1e-5": Row(
        hj, "MEMBERSHIP_TOL", _loose(1e-5),
        lambda: test_hj.TestRelatedness()
        .test_membership_sits_at_its_tolerance()),
    "casimir-se3-pi-sq": Row(
        poisson, "casimir_fields", _se3_pi_sq,
        lambda: test_poisson.test_casimirs_commute_with_random_observables(
            lie.SE3, 2, 2)),
    "casimir-gamma-sq-dropped": Row(
        integrate, "casimir_fields", _gamma_sq_dropped,
        test_integrate.test_standard_invariants_names),
    "relatedness-squared": Row(
        hj, "_residuals", _relatedness_squared,
        lambda: test_hj.TestRelatedness()
        .test_gravity_breaks_the_zero_candidate()),
    "matching-control-keeps-own-field": Row(
        config, "matching_control", _own_field_kept,
        test_acceptance.test_criterion_7_matching_control_transport),
}

ORIGINALS = {(row.module, row.name): getattr(row.module, row.name)
             for row in ROWS.values()}


@pytest.mark.parametrize("row", ROWS)
def test_planted_defect_fails_its_check(row, monkeypatch):
    module, name, mutant, check = ROWS[row]
    monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        check()


def test_every_patched_attribute_is_restored():
    # the last test of the table: a defect leaked from a row, or from a
    # test that plants one, would otherwise pass silently into later tests
    for (module, name), original in ORIGINALS.items():
        assert getattr(module, name) is original, (module.__name__, name)
