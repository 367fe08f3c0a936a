"""The full dynamical field over a flat reduced state, reconstruction
and momentum drift.

In left trivialization the momentum map of the lifted left action sends
a group element g and a body momentum p to the spatial momentum
Ad*_{g^-1} p (:func:`gyrostat.lie.coadjoint`), and its level sets
project onto the reduced space by dropping g. Reconstruction inverts
that projection along a trajectory of a controlled system by
integrating g_dot = g hat(xi) with xi = dh/dnu evaluated on the flat
states of a :class:`~gyrostat.integrate.Trajectory`, stepping at order
4 the system's controlled field jointly with g, one gradient per stage
point, into a stacked :class:`~gyrostat.lie.GroupPath`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import lie
from .controlled import RCHSystem, _add_lifts, _check_point
from .integrate import Trajectory, rk4_step
from .lie import GroupElement, GroupPath
from .poisson import (Layout, _from_columns, _gradient_rows,
                      _hamiltonian_rates, _row_dot, flat_gradient)


class FullTangent(NamedTuple):
    """Velocities over n flat reduced states, the same at every g: the
    (n, 3|6) body velocities ``xi`` of g, the (n, d) controlled rates
    ``body`` of the states, and ``lift``, their force-plus-control
    part."""

    xi: np.ndarray
    body: np.ndarray
    lift: np.ndarray


def full_dynamical_field(sys: RCHSystem, layout: Layout,
                         states: np.ndarray) -> FullTangent:
    """Field on the full space over the (n, d) flat reduced states of
    ``layout``: the reduced field plus the group velocity that
    reconstruction integrates. Neither depends on g; one gradient read
    over the stack gives both, and the list path's formulas run once on
    its d columns, so each row is the one-state field bit for bit.

    Forces and controls are vertical, so they may move momenta but never
    the rotor angles; a lift that does is rejected here, in one check
    over the stack, because the angle velocity on the full space is
    pinned to dh/dl.
    """
    _check_point(sys, layout)
    nc = lie.algebra_dim(layout.kind)
    states = np.asarray(states, dtype=float)
    d = nc + layout.n_theta + layout.n_l
    if states.ndim != 2 or states.shape[1] != d or not len(states):
        raise ValueError(f"expected an (n, {d}) array of flat states, got "
                         f"shape {states.shape}")
    g = _gradient_rows(sys.hamiltonian, states)
    x = list(states.T)
    hamiltonian = _hamiltonian_rates(layout)(x, list(g.T))
    body = _from_columns(_add_lifts(sys, x, hamiltonian), states.shape)
    lift = body - _from_columns(hamiltonian, states.shape)
    if lift[:, nc:nc + layout.n_theta].any():
        raise ValueError("force/control must be vertical: it cannot move "
                         "the rotor angles")
    return FullTangent(g[:, :nc], body, lift)


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
    if order not in (1, 4):
        raise ValueError(f"order must be 1 or 4, got {order}")
    if g0.kind != traj.layout.kind:
        raise ValueError(f"kind mismatch: {g0.kind} vs {traj.layout.kind}")
    n, d = traj.states.shape
    nc = lie.algebra_dim(traj.layout.kind)
    _check_point(sys, traj.layout)
    rates = _hamiltonian_rates(traj.layout)
    grad = flat_gradient(sys.hamiltonian, traj.layout)

    def joint(z: list) -> list:
        y = z[:d]
        g = grad(y)
        return _add_lifts(sys, y, rates(y, g)) + _dexpinv(z[d:], g[:nc])

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
    if groups.kind != traj.layout.kind:
        raise ValueError(f"kind mismatch: {groups.kind} vs {traj.layout.kind}")
    j = lie.coadjoint(groups.rot, groups.trans, traj.states)
    dev = j[1:] - j[0]
    return float(np.max(np.sqrt(_row_dot(dev, dev)), initial=0.0))
