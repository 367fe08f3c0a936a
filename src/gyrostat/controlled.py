"""Controlled Hamiltonian systems on reduced phase spaces.

A controlled system couples a Hamiltonian with an external force and a
feedback control. Both enter the dynamics through vertical lifts: on a
vector-bundle fiber, the lift of a fiber displacement is the tangent
vector with those fiber components and no base motion. The reduced
spaces here have a trivial base (the group part has been quotiented
away, and rotor angles and momenta are themselves fiber coordinates),
so every reduced tangent is vertical; :data:`VerticalVector` is an
alias that marks intent at call sites.

Forces and controls come in two interchangeable forms:

* a fiber map ``p -> ReducedPoint`` returning the displaced point,
  with the identity map meaning "no force", or
* a vertical field ``p -> ReducedTangent`` giving the lift directly,
  which is the form :func:`matching_control` produces.

The integrator steps :func:`flat_dynamical_field`, a map from a flat
state (a list of d floats) to its d rates; :func:`dynamical_field` is
its view at one point. Forces and controls are called on a point view
of the flat state; :func:`matching_control` composes flat array maps
into a point-form control.

Admissibility of controls is not constrained here: any vertical field
is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lie import SE3, SO3
from .poisson import (FlatField, Layout, ReducedPoint, ReducedTangent,
                      ScalarField, flat_hamiltonian_field, point_like,
                      tangent_like)

# On the reduced space the bundle base is a single point, so a vertical
# vector is an ordinary reduced tangent.
VerticalVector = ReducedTangent

FiberMap = Callable[[ReducedPoint], ReducedPoint]
VerticalField = Callable[[ReducedPoint], ReducedTangent]
#: A map between flat states or tangents as (d,) float64 arrays.
FlatMap = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class RCHSystem:
    """Hamiltonian plus optional force and control on a reduced space.

    ``force`` and ``control`` accept either force form described in the
    module docstring; ``None`` means absent. ``rotor_count`` fixes the
    size of the rotor momentum slot that points of this system carry.
    """

    hamiltonian: ScalarField
    kind: str
    rotor_count: int
    force: FiberMap | VerticalField | None = None
    control: FiberMap | VerticalField | None = None

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


def fiber_displacement(q: ReducedPoint, p: ReducedPoint) -> VerticalVector:
    """Vertical vector from p toward q = fmap(p): the velocity of the
    straight fiber line s -> p + s (q - p) at s = 0. Zero when q == p,
    so an identity fiber map contributes nothing to the dynamics."""
    if q.layout != p.layout:
        raise ValueError("fiber map is not fiber-preserving: it changed "
                         f"the point layout from {p.layout} to {q.layout}")
    return tangent_like(p, q.flat() - p.flat())


def _as_vertical(fmap, p: ReducedPoint) -> np.ndarray:
    val = fmap(p)
    if isinstance(val, ReducedPoint):
        return fiber_displacement(val, p).flat()
    if isinstance(val, ReducedTangent):
        flat = val.flat()
        if flat.size != p.flat().size:
            raise ValueError("vertical field output does not match the "
                             "point layout")
        return flat
    raise TypeError("force/control must return a ReducedPoint (fiber "
                    "map) or a ReducedTangent (vertical field), got "
                    f"{type(val).__name__}")


def flat_dynamical_field(sys: RCHSystem, layout: Layout) -> FlatField:
    """The full vector field of the controlled system on flat states of
    ``layout`` (checked here, once), lists of d floats to their d rates:
    Hamiltonian part plus the vertical lifts of force and control. With
    both absent (or the identity map) this is exactly the Hamiltonian
    field."""
    _check_point(sys, layout)
    hamiltonian = flat_hamiltonian_field(sys.hamiltonian, layout)
    if sys.force is None and sys.control is None:
        return hamiltonian
    return lambda x: _add_lifts(sys, layout, x, hamiltonian(x))


def _add_lifts(sys: RCHSystem, layout: Layout, x: list, out: list) -> list:
    """out plus the vertical lifts of the force and then the control at
    the flat state x: the one place the lifts are summed."""
    lifts = [fmap for fmap in (sys.force, sys.control) if fmap is not None]
    if lifts:
        p = point_like(layout, x)
        for fmap in lifts:
            out = [a + b for a, b in zip(out, _as_vertical(fmap, p).tolist())]
    return out


def dynamical_field(sys: RCHSystem, p: ReducedPoint) -> ReducedTangent:
    """:func:`flat_dynamical_field` at the point p."""
    return tangent_like(
        p, flat_dynamical_field(sys, p.layout)(p.flat().tolist()))


INVERSE_TOL = 1e-9


def matching_control(sys_a: RCHSystem, sys_b: RCHSystem,
                     layout_a: Layout, layout_b: Layout,
                     pullback: FlatMap, push_tangent: FlatMap,
                     pullback_inverse: FlatMap) -> VerticalField:
    """Control law under which system A shadows system B through a
    diffeomorphism of their reduced spaces.

    The maps act on flat arrays: ``pullback`` maps B-states in
    ``layout_b`` to A-states in ``layout_a``, ``pullback_inverse`` undoes
    it, and ``push_tangent`` carries tangents at a B-state to tangents
    at its image. The returned vertical field is

        v(p) = -X_{h_A}(p) + push(X_B(pullback_inverse(p)))

    where X_B is B's full dynamical field (its Hamiltonian field when B
    carries no force or control of its own). Installing v as the
    control of a force-free A makes A's dynamical field agree with the
    transported B-field at every point; a force on A stays in the
    controlled field on top of that. Each evaluation checks that p is
    in ``layout_a``, round-trips it through both maps and raises if they
    fail to invert each other there.
    """
    _check_point(sys_a, layout_a)
    field_a = flat_hamiltonian_field(sys_a.hamiltonian, layout_a)
    field_b = flat_dynamical_field(sys_b, layout_b)

    def control(p: ReducedPoint) -> VerticalVector:
        if p.layout != layout_a:
            raise ValueError(f"point layout {p.layout} does not match the "
                             f"control's layout {layout_a}")
        x = p.flat()
        y = pullback_inverse(x)
        defect = float(np.max(np.abs(pullback(y) - x)))
        if defect > INVERSE_TOL:
            raise ValueError("pullback is not invertible at this point "
                             f"(round-trip defect {defect:.3e})")
        rates_b = np.array(field_b(y.tolist()))
        return tangent_like(layout_a, push_tangent(rates_b)
                            - np.array(field_a(x.tolist())))

    return control
