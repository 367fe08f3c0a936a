"""Momentum maps, projection to body coordinates, and reconstruction.

The full phase space is modeled in left trivialization as tuples
(g, p, theta, l): a group element, a body momentum, and the rotor angle
and momentum vectors. The momentum map of the lifted left action sends
such a point to its spatial momentum Ad*_{g^-1} p; its level sets
project onto the reduced space by simply dropping g. Reconstruction
inverts that projection along a trajectory of a controlled system by
integrating g_dot = g hat(xi) with xi = dh/dnu evaluated on the flat
states of a :class:`~gyrostat.integrate.Trajectory`, stepping at order
4 the system's controlled field jointly with g, one gradient per stage
point, into a stacked :class:`~gyrostat.lie.GroupPath`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import lie
from .controlled import (RCHSystem, _add_lifts, _check_point,
                         _controlled_rates, dynamical_field)
from .integrate import Trajectory, rk4_step
from .lie import AlgebraVector, CoalgebraVector, GroupElement, GroupPath
from .poisson import (ReducedPoint, ReducedTangent, ScalarField,
                      _hamiltonian_rates, _row_dot, _vec, flat_gradient,
                      tangent_like)

MEMBERSHIP_TOL = 1e-8


@dataclass(frozen=True)
class PhasePoint:
    """Point of the full phase space in left trivialization."""

    g: GroupElement
    p: CoalgebraVector
    theta: np.ndarray
    l: np.ndarray

    def __post_init__(self):
        if self.g.kind != self.p.kind:
            raise ValueError("group element and momentum belong to "
                             "different groups")
        theta, momenta = _vec(self.theta, "theta"), _vec(self.l, "l")
        if theta.shape != momenta.shape:
            raise ValueError("rotor angles and momenta must pair up")
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(momenta))):
            raise ValueError("rotor components must be finite")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "l", momenta)

    @property
    def kind(self) -> str:
        return self.g.kind


@dataclass(frozen=True)
class FullTangent:
    """Velocity of a PhasePoint: body velocity of g plus the tangent of
    the remaining coordinates; ``lift`` is the flat force-plus-control
    part of ``body``."""

    xi: AlgebraVector
    body: ReducedTangent
    lift: np.ndarray


def phase_point(g: GroupElement, p: CoalgebraVector, theta=(),
                l=()) -> PhasePoint:
    return PhasePoint(g, p, theta, l)


def momentum_map(pt: PhasePoint) -> CoalgebraVector:
    """Spatial momentum Ad*_{g^-1} p of the lifted left action."""
    return lie.Ad_star(pt.g, pt.p)


def momentum_fiber_point(g: GroupElement, mu: CoalgebraVector, theta=(),
                         l=()) -> PhasePoint:
    """The point over g on the level set momentum_map = mu."""
    return PhasePoint(g, lie.Ad_star(lie.inverse(g), mu), theta, l)


def _membership_defect(pt: PhasePoint, mu: CoalgebraVector) -> float:
    return float(np.linalg.norm(momentum_map(pt).flat() - mu.flat()))


def _require_member(pt: PhasePoint, mu: CoalgebraVector):
    defect = _membership_defect(pt, mu)
    if defect > MEMBERSHIP_TOL:
        raise ValueError("point is not on the requested momentum level "
                         f"set (defect {defect:.3e})")


def project_reduced(pt: PhasePoint, mu: CoalgebraVector) -> ReducedPoint:
    """Drop g: the reduced coordinates of a level-set point are its body
    momentum together with the rotor pair."""
    _require_member(pt, mu)
    return ReducedPoint(pt.p, pt.theta.copy(), pt.l.copy())


def as_reduced(pt: PhasePoint) -> ReducedPoint:
    """Body coordinates of pt, with no level-set check."""
    return ReducedPoint(pt.p, pt.theta.copy(), pt.l.copy())


def reduced_hamiltonian_check(h_full: Callable[[PhasePoint], float],
                              h_red: ScalarField,
                              samples: Sequence[PhasePoint]) -> float:
    """Max over samples of |h_full(pt) - h_red(projection of pt)|.

    Each sample is projected on its own momentum level, so membership
    holds by construction and the defect isolates the two Hamiltonians.
    """
    worst = 0.0
    for pt in samples:
        q = project_reduced(pt, momentum_map(pt))
        worst = max(worst, abs(h_full(pt) - h_red.eval(q)))
    return worst


def full_dynamical_field(sys: RCHSystem, pt: PhasePoint) -> FullTangent:
    """Field on the full space: the reduced field plus the group
    velocity that reconstruction integrates.

    Forces and controls are vertical, so they may move momenta but never
    the rotor angles; a lift that does is rejected here because the
    angle velocity on the full space is pinned to dh/dl. The gradient
    of h is evaluated once and gives both the rates and the body
    velocity.
    """
    q = as_reduced(pt)
    _check_point(sys, q.layout)
    x = q.flat().tolist()
    grad = flat_gradient(sys.hamiltonian, q.layout)(x)
    hamiltonian = _hamiltonian_rates(q.layout)(x, grad)
    body = _add_lifts(sys, x, hamiltonian)
    lift = np.subtract(body, hamiltonian)
    nc = lie.algebra_dim(q.kind)
    if np.any(lift[nc:nc + q.n_theta] != 0.0):
        raise ValueError("force/control must be vertical: it cannot move "
                         "the rotor angles")
    return FullTangent(lie.algebra_from_flat(q.kind, grad[:nc]),
                       tangent_like(q, body), lift)


def commutation_residual(sys: RCHSystem, pt: PhasePoint,
                         mu: CoalgebraVector,
                         reduced_field_fn=None) -> float:
    """Norm of (reduced field at the projection) minus (projection of
    the full field), a two-path consistency check of the reduction."""
    q = project_reduced(pt, mu)
    fn = reduced_field_fn or (lambda state: dynamical_field(sys, state))
    a = fn(q).flat()
    b = full_dynamical_field(sys, pt).body.flat()
    return float(np.linalg.norm(a - b))


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def _dexpinv(sigma: list, xi: list) -> list:
    """Inverse differential of exp for the body-velocity equation
    g_dot = g hat(xi), on flat algebra vectors as lists: the exponential
    coordinate obeys
    sigma_dot = xi + [sigma, xi]/2 + [sigma, [sigma, xi]]/12 + ...,
    truncated at the double bracket, which is exact enough for
    fourth-order steps where sigma is O(dt)."""
    c1 = lie._bracket_list(sigma, xi)
    c2 = lie._bracket_list(sigma, c1)
    return [a + 0.5 * b + c / 12.0 for a, b, c in zip(xi, c1, c2)]


def reconstruct(traj: Trajectory, g0: GroupElement, sys: RCHSystem,
                order: int = 1) -> GroupPath:
    """Recover the group trajectory over a reduced trajectory of the
    controlled system ``sys``, whose layout must fit it.

    order=1 steps g_{n+1} = g_n exp(dt xi_n) with xi_n = dh/dnu at
    the n-th state. order=4 is the Runge-Kutta-Munthe-Kaas step: one
    :func:`~gyrostat.integrate.rk4_step` of the state under the field of
    ``sys`` jointly with sigma_dot = dexpinv(sigma, xi(y)) from (x_n, 0),
    one gradient per stage point for both, then g_{n+1} = g_n exp(sigma).
    It keeps the recovered momentum map constant to integrator accuracy.
    """
    if len(traj.states) == 0:
        raise ValueError("states must be non-empty")
    if len(traj.states) > 1 and traj.dt <= 0:
        raise ValueError("dt must be positive")
    if order not in (1, 4):
        raise ValueError(f"order must be 1 or 4, got {order}")
    if g0.kind != traj.layout.kind:
        raise ValueError(f"kind mismatch: {g0.kind} vs {traj.layout.kind}")
    n, d = traj.states.shape
    nc = lie.algebra_dim(traj.layout.kind)
    rates = _controlled_rates(sys, traj.layout)
    grad = flat_gradient(sys.hamiltonian, traj.layout)

    def joint(z: list) -> list:
        y = z[:d]
        g = grad(y)
        return rates(y, g) + _dexpinv(z[d:], g[:nc])

    rot, trans = np.empty((n, 3, 3)), np.zeros((n, 3))
    rot[0] = g0.rot
    if g0.trans is not None:
        trans[0] = g0.trans
    for i, x in enumerate(traj.states[:-1].tolist()):
        if order == 1:
            sigma = traj.dt * np.array(grad(x)[:nc])
        else:
            sigma = np.array(rk4_step(joint, x + [0.0] * nc, traj.dt)[d:])
        e_rot, e_trans = lie.flat_exp(sigma)
        if e_trans is not None:
            trans[i + 1] = rot[i] @ e_trans + trans[i]
        rot[i + 1] = rot[i] @ e_rot
    return GroupPath(g0.kind, rot, None if g0.trans is None else trans)


def momentum_drift(traj: Trajectory, groups: GroupPath) -> float:
    """Max deviation of the recovered spatial momentum Ad*_{g^-1} p from
    its initial value along a reconstructed trajectory."""
    if len(traj.states) != len(groups.rot):
        raise ValueError("states and groups must have equal length")
    j = (groups.rot @ traj.states[:, :3, None])[:, :, 0]
    if groups.kind == lie.SE3:
        ag = (groups.rot @ traj.states[:, 3:6, None])[:, :, 0]
        j = np.concatenate([j + np.cross(groups.trans, ag), ag], axis=1)
    dev = j[1:] - j[0]
    return float(np.max(np.sqrt(_row_dot(dev, dev)), initial=0.0))
