"""Controlled Hamiltonian systems on reduced phase spaces.

A controlled system couples a Hamiltonian with an external force and a
feedback control. Both enter the dynamics only through their vertical
lifts: on a vector-bundle fiber, the lift of a fiber displacement is
the tangent vector with those fiber components and no base motion. The
reduced spaces here have a trivial base (the group part has been
quotiented away, and rotor angles and momenta are themselves fiber
coordinates), so every reduced tangent is vertical.

Forces and controls share one protocol, a flat vertical field: it maps
the d components of flat states, floats of one state or equal-length
columns of a stack, to their d lift components. The paper's fiber-map
form, a fiber-preserving map F of flat states, enters through
:func:`fiber_map_lift`, whose lift is F(x) - x; the identity map lifts
to zero. :func:`matching_control` returns its lift, on one state only.

The integrator steps :func:`flat_dynamical_field`, a map from a flat
state to its d rates; at one point p the field is
``flat_dynamical_field(sys, p.layout)(p.flat().tolist())``. It evaluates
the Hamiltonian field once per state, under its own matching control too
on a force-free system; there a kernel cached per state length sums the rates.

Admissibility of controls is not constrained here: any vertical field
is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import isnan, nan
from operator import add, sub
from typing import NamedTuple

from .lie import SE3, SO3, algebra_dim
from .poisson import (FlatField, Layout, ReducedPoint, ScalarField,
                      flat_hamiltonian_field)


@dataclass(frozen=True)
class RCHSystem:
    """Hamiltonian plus optional force and control on a reduced space.

    ``force`` and ``control`` are flat vertical fields, on floats or
    columns (see the module docstring); ``None`` means absent.
    ``rotor_count`` fixes the size of the rotor momentum slot of points.
    """

    hamiltonian: ScalarField
    kind: str
    rotor_count: int
    force: FlatField | None = None
    control: FlatField | None = None

    def __post_init__(self):
        if self.kind not in (SO3, SE3):
            raise ValueError(f"unknown algebra kind {self.kind!r}")
        if self.rotor_count < 0:
            raise ValueError("rotor_count must be nonnegative")


def _check_point(sys: RCHSystem, p: ReducedPoint | Layout):
    if p.kind != sys.kind:
        raise ValueError(f"point kind {p.kind} does not match system "
                         f"kind {sys.kind}")
    if p.n_l != sys.rotor_count or p.n_theta not in (0, sys.rotor_count):
        raise ValueError(
            f"point rotor slots (theta {p.n_theta}, l {p.n_l}) do not "
            f"match system rotor_count {sys.rotor_count}")


def fiber_map_lift(fmap: FlatField) -> FlatField:
    """The vertical lift of a fiber map of flat states: x -> fmap(x) - x,
    the velocity of the straight fiber line s -> x + s (fmap(x) - x) at
    s = 0. Zero where fmap fixes x, so an identity fiber map contributes
    nothing to the dynamics."""

    def lift(x: list) -> list:
        y = fmap(x)
        if len(y) != len(x):
            raise ValueError("fiber map is not fiber-preserving: it changed "
                             f"the state length from {len(x)} to {len(y)}")
        return [b - a for a, b in zip(x, y)]

    return lift


@cache
def _generated_sum(n: int):
    """(r, t) -> r + (t - r) on lists of n floats, generated once from n
    alone, so no outside text reaches ``exec``: bracketed unpacking and
    one list display, bitwise ``list(map(add, r, map(sub, t, r)))``."""
    r, t = (f"[{', '.join(f'{v}{i}' for i in range(n))}] = {v}" for v in "rt")
    namespace: dict = {}
    exec(f"def total(r, t):\n    {r}\n    {t}\n    return ["
         f"{', '.join(f'r{i} + (t{i} - r{i})' for i in range(n))}]", namespace)
    return namespace["total"]


def flat_dynamical_field(sys: RCHSystem, layout: Layout) -> FlatField:
    """The full vector field of the controlled system on flat states of
    ``layout``, lists of d floats to their d rates: Hamiltonian part
    plus the vertical lifts of force and control. With both absent this
    is exactly the Hamiltonian field. A force-free system under a
    :class:`MatchingControl` built for ``sys.hamiltonian`` on ``layout``
    reuses its rates r, bit for bit: the :func:`_generated_sum` kernel
    returns r + (t - r), t the transported rates. Under a force the
    lifts are added one by one, as for any other control."""
    _check_point(sys, layout)
    field = flat_hamiltonian_field(sys.hamiltonian, layout)
    if sys.force is None and sys.control is None:
        return field
    c = sys.control
    if (sys.force is None and isinstance(c, MatchingControl)
            and c.layout == layout and c.hamiltonian is sys.hamiltonian):
        total = _generated_sum(algebra_dim(layout.kind) + layout.n_theta
                               + layout.n_l)
        transported = c.transported
        return lambda x: total(field(x), transported(x))
    return lambda x: _add_lifts(sys, x, field(x))


def _add_lifts(sys: RCHSystem, x: list, out: list) -> list:
    """out plus the vertical lifts of the force and then the control at
    the flat states x, floats or columns."""
    for lift in (sys.force, sys.control):
        if lift is not None:
            v = lift(x)
            if len(v) != len(out):
                raise ValueError(f"force/control returned {len(v)} lift "
                                 f"components for {len(out)} rates")
            out = list(map(add, out, v))
    return out


INVERSE_TOL = 1e-9


class MatchingControl(NamedTuple):
    """The lift transported(x) - field_a(x) of :func:`matching_control`."""

    hamiltonian: ScalarField
    layout: Layout
    field_a: FlatField
    transported: FlatField

    def __call__(self, x: list) -> list:
        return list(map(sub, self.transported(x), self.field_a(x)))


def matching_control(sys_a: RCHSystem, sys_b: RCHSystem,
                     layout_a: Layout, layout_b: Layout,
                     pullback: FlatField, push_tangent: FlatField,
                     pullback_inverse: FlatField) -> MatchingControl:
    """Control law under which system A shadows system B through a
    diffeomorphism of their reduced spaces.

    The maps take and return lists of floats: ``pullback`` maps B-states in
    ``layout_b`` to A-states in ``layout_a``, ``pullback_inverse`` undoes
    it, and ``push_tangent`` carries tangents at a B-state to tangents
    at its image. The returned flat vertical field is

        v(x) = -X_{h_A}(x) + push(X_B(pullback_inverse(x)))

    where X_B is B's full dynamical field (its Hamiltonian field when B
    carries no force or control of its own). Installing v as the
    control of a force-free A makes A's dynamical field agree with the
    transported B-field at every state; a force on A stays in the
    controlled field on top of that. Each evaluation takes one state
    (columns raise TypeError), checks the lengths of it and of each map's
    result, round-trips it and raises where the maps do not invert.
    """
    _check_point(sys_a, layout_a)
    field_a = flat_hamiltonian_field(sys_a.hamiltonian, layout_a)
    field_b = flat_dynamical_field(sys_b, layout_b)
    d, d_b = (algebra_dim(k) + t + n for k, t, n in (layout_a, layout_b))

    def transported(x: list) -> list:
        if len(x) != d:
            raise ValueError(f"state of length {len(x)} does not match the "
                             f"control's layout {layout_a}")
        if not isinstance(x[0], float):
            raise TypeError("the control takes one flat state, not columns")
        if len(y := pullback_inverse(x)) != d_b:
            raise ValueError(f"pullback_inverse returned {len(y)} components "
                             f"for a target state of {d_b}")
        if len(back := pullback(y)) != d:
            raise ValueError(f"pullback returned {len(back)} components for "
                             f"a state of {d}")
        if back != x:
            diffs = list(map(abs, map(sub, back, x)))
            # max keeps a NaN only when it comes first; the sum keeps any
            defect = nan if isnan(sum(diffs)) else max(diffs)
            if not defect <= INVERSE_TOL:
                raise ValueError("pullback is not invertible at this point "
                                 f"(round-trip defect {defect:.3e})")
        if len(v := push_tangent(field_b(y))) != d:
            raise ValueError(f"push_tangent returned {len(v)} rates, not {d}")
        return v

    return MatchingControl(sys_a.hamiltonian, layout_a, field_a, transported)
