"""Worked systems: rigid bodies and heavy tops carrying internal rotors.

Each system exposes its reduced Hamiltonian (as a plain function and as
a :class:`~gyrostat.poisson.ScalarField` with batched value and an
analytic gradient written once, componentwise, which gives both the row
gradient and the batched one), an explicit closed-form vector field,
and the left-hand sides of its Hamilton-Jacobi equations assembled row
by row. The explicit forms are deliberately independent of the generic
bracket machinery so the tests can compare the two paths. Each gradient
is one list display over parameters unpacked at build time: it runs at
every field evaluation, where on Python 3.11 a comprehension costs a
frame.

Conventions: pi is the body angular momentum, gamma the advected unit
vertical (heavy top), theta/l the rotor angles and momenta. A rotor
about axis i contributes its axial inertia j_i; ibar is the locked
inertia of the assembly corrected so that the kinetic energy splits as

    h = 1/2 [ sum_i (pi_i - l_i)^2 / ibar_i + sum_i l_i^2 / j_i ]

with the heavy top adding the potential m g h (gamma . chi) and having
rotors on the first two axes only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controlled import RCHSystem
from . import lie
from .lie import SE3, SO3
from .poisson import (ReducedPoint, ReducedTangent, ScalarField, _row_dot,
                      _vec, analytic_field, casimir_fields)

UNIT_TOL = 1e-12
ORBIT_TOL = 1e-8


def _positive(v, name: str) -> np.ndarray:
    a = np.atleast_1d(np.asarray(v, dtype=float))
    if not (np.all(np.isfinite(a)) and np.all(a > 0)):
        raise ValueError(f"{name} entries must be finite and strictly "
                         f"positive, got {a}")
    return a


@dataclass(frozen=True)
class RigidBodyRotorParams:
    """Rigid body with one rotor on each principal axis.

    ibar: augmented principal inertias; j: rotor axial inertias.
    """

    ibar: np.ndarray
    j: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ibar", _positive(self.ibar, "ibar"))
        object.__setattr__(self, "j", _positive(self.j, "j"))
        if self.ibar.shape != (3,) or self.j.shape != (3,):
            raise ValueError("ibar and j must be 3-vectors")

    @classmethod
    def from_raw(cls, body_inertia, rotor_inertia) -> "RigidBodyRotorParams":
        """Build from the body's principal inertias and the 3x3 matrix of
        rotor inertias (row k = inertia vector of rotor k about the body
        axes): ibar_i = I_i + sum_k J_ki - J_ii, j_i = J_ii."""
        body = np.asarray(body_inertia, dtype=float)
        rot = np.asarray(rotor_inertia, dtype=float)
        if rot.shape != (3, 3):
            raise ValueError("rotor_inertia must be 3x3")
        ibar = body + rot.sum(axis=0) - np.diag(rot)
        return cls(ibar, np.diag(rot).copy())


@dataclass(frozen=True)
class HeavyTopRotorParams:
    """Heavy top with rotors on the first and second principal axes.

    chi is the unit vector from the fixed point toward the center of
    mass, h the lever arm, m the mass, g the gravitational acceleration.
    """

    ibar: np.ndarray
    j: np.ndarray
    m: float
    g: float
    h: float
    chi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ibar", _positive(self.ibar, "ibar"))
        object.__setattr__(self, "j", _positive(self.j, "j"))
        object.__setattr__(self, "chi",
                           np.asarray(self.chi, dtype=float))
        _positive([self.m, self.g, self.h], "m, g, h")
        if self.ibar.shape != (3,) or self.j.shape != (2,):
            raise ValueError("ibar must be a 3-vector and j a 2-vector")
        if self.chi.shape != (3,) \
                or not abs(np.linalg.norm(self.chi) - 1.0) <= UNIT_TOL:
            raise ValueError("chi must be a unit 3-vector")

    @property
    def mgh(self) -> float:
        return self.m * self.g * self.h

    @classmethod
    def from_raw(cls, body_inertia, rotor_inertia, m, g, h,
                 chi) -> "HeavyTopRotorParams":
        """ibar_i = I_i + J_1i + J_2i - J_ii for i = 1, 2 and
        ibar_3 = I_3 + J_13 + J_23; j_i = J_ii."""
        body = np.asarray(body_inertia, dtype=float)
        rot = np.asarray(rotor_inertia, dtype=float)
        if rot.shape != (2, 3):
            raise ValueError("rotor_inertia must be 2x3")
        ibar = body + rot.sum(axis=0)
        ibar[0] -= rot[0, 0]
        ibar[1] -= rot[1, 1]
        return cls(ibar, np.array([rot[0, 0], rot[1, 1]]), m, g, h, chi)


@dataclass(frozen=True)
class HeavyTopParams:
    """Heavy top without rotors (raw principal inertias)."""

    i: np.ndarray
    m: float
    g: float
    h: float
    chi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "i", _positive(self.i, "i"))
        object.__setattr__(self, "chi", np.asarray(self.chi, dtype=float))
        _positive([self.m, self.g, self.h], "m, g, h")
        if self.i.shape != (3,):
            raise ValueError("i must be a 3-vector")
        if self.chi.shape != (3,) \
                or not abs(np.linalg.norm(self.chi) - 1.0) <= UNIT_TOL:
            raise ValueError("chi must be a unit 3-vector")

    @property
    def mgh(self) -> float:
        return self.m * self.g * self.h


# ---------------------------------------------------------------------------
# Hamilton-Jacobi candidates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HJCandidate:
    """One evaluation of a momentum-section candidate and its lifted
    control components.

    gamma_bar holds the section's components in the layout the equation
    system expects (orbit part first); advected carries the advected
    vector for the heavy-top assemblies; u holds the lifted control
    components, one per equation row that carries one. When ``orbit``, a
    flat (3,) or (6,) momentum, is supplied, the orbit part of gamma_bar
    (plus advected) must lie on that coadjoint orbit: every Casimir must
    match within 1e-8.
    """

    gamma_bar: np.ndarray
    u: np.ndarray
    advected: np.ndarray | None = None
    orbit: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "gamma_bar", _vec(self.gamma_bar,
                                                   "gamma_bar"))
        object.__setattr__(self, "u", _vec(self.u, "u"))
        if self.advected is not None:
            adv = np.asarray(self.advected, dtype=float)
            if adv.shape != (3,):
                raise ValueError("advected part must be a 3-vector")
            object.__setattr__(self, "advected", adv)
        if not all(np.isfinite(a).all() for a in
                   (self.gamma_bar, self.u, self.advected) if a is not None):
            raise ValueError("candidate has non-finite components")
        if self.gamma_bar.size < 3:
            raise ValueError("gamma_bar needs at least the 3 orbit "
                             "components")
        if self.orbit is not None:
            self._check_orbit()

    def _check_orbit(self):
        orbit, kind = lie._flat_algebra(self.orbit)
        if not np.isfinite(orbit).all():
            raise ValueError("candidate orbit has non-finite components")
        object.__setattr__(self, "orbit", orbit)
        if (kind == SE3) != (self.advected is not None):
            raise ValueError("orbit kind does not match the candidate "
                             "layout")
        have = self.gamma_bar[:3]
        if self.advected is not None:
            have = np.concatenate([have, self.advected])
        rows = np.array([have, orbit])
        defect = max(abs(v[0] - v[1]) for v in
                     (c.eval_batch(rows) for _, c in casimir_fields(kind)))
        if defect > ORBIT_TOL:
            raise ValueError("candidate orbit components are off the "
                             f"declared orbit (Casimir defect {defect:.3e})")


def _require_counts(cand: HJCandidate, n_gamma: int, n_u: int,
                    advected: bool, label: str):
    ok = (cand.gamma_bar.size == n_gamma and cand.u.size == n_u
          and (cand.advected is not None) == advected)
    if not ok:
        raise ValueError(
            f"candidate layout does not match the {label} equations: "
            f"expected gamma_bar[{n_gamma}], u[{n_u}], advected "
            f"{'present' if advected else 'absent'}; got "
            f"gamma_bar[{cand.gamma_bar.size}], u[{cand.u.size}], advected "
            f"{'present' if cand.advected is not None else 'absent'}")


# ---------------------------------------------------------------------------
# rigid body with rotors
# ---------------------------------------------------------------------------

def rigid_body_reduced_h(params: RigidBodyRotorParams,
                         p: ReducedPoint) -> float:
    """1/2 [ sum (pi_i - l_i)^2 / ibar_i + sum l_i^2 / j_i ]."""
    rel = p.nu[:3] - p.l
    return 0.5 * float(rel @ (rel / params.ibar) + p.l @ (p.l / params.j))


def rigid_body_hamiltonian(params: RigidBodyRotorParams) -> ScalarField:
    def eval_batch(x):
        l = x[:, -3:]
        rel = x[:, :3] - l
        return 0.5 * (_row_dot(rel, rel / params.ibar)
                      + _row_dot(l, l / params.j))

    (i0, i1, i2), (j0, j1, j2) = params.ibar.tolist(), params.j.tolist()

    def grad(x):
        l0, l1, l2 = x[-3:]
        r0, r1, r2 = (x[0] - l0) / i0, (x[1] - l1) / i1, (x[2] - l2) / i2
        return [r0, r1, r2, *[0.0] * (len(x) - 6),
                -r0 + l0 / j0, -r1 + l1 / j1, -r2 + l2 / j2]

    return analytic_field(eval_batch, grad)


def rigid_body_field(params: RigidBodyRotorParams,
                     p: ReducedPoint) -> ReducedTangent:
    """Closed form: pi_dot = pi x (pi - l)/ibar,
    theta_dot_i = -(pi_i - l_i)/ibar_i + l_i/j_i, l_dot = 0."""
    rel = (p.nu[:3] - p.l) / params.ibar
    d_pi = np.cross(p.nu[:3], rel)
    d_theta = (-rel + p.l / params.j) if p.n_theta else np.zeros(0)
    return ReducedTangent(d_pi, None, d_theta, np.zeros(3))


def rigid_body_system(params: RigidBodyRotorParams) -> RCHSystem:
    return RCHSystem(rigid_body_hamiltonian(params), SO3, 3)


def rigid_body_hj_lhs(params: RigidBodyRotorParams, cand: HJCandidate,
                      variant: str = "SO3") -> np.ndarray:
    """Left-hand sides of the rigid-body Hamilton-Jacobi equations.

    variant "SO3" is the nine-row system over (orbit, angle, momentum)
    components; variant "SO3xR3" is the six-row form whose candidate
    carries only (orbit, momentum) components. All rows vanish exactly
    when the candidate solves the system at this state.
    """
    ib = params.ibar
    jj = params.j
    g = cand.gamma_bar
    u = cand.u
    if variant == "SO3":
        _require_counts(cand, 9, 9, False, "nine-row rigid-body")
        lo = 6
    elif variant == "SO3xR3":
        _require_counts(cand, 6, 6, False, "six-row rigid-body")
        lo = 3
    else:
        raise ValueError(f"unknown variant {variant!r}; expected 'SO3' or "
                         "'SO3xR3'")
    rows = np.empty(g.size)
    rows[0] = (ib[1] * g[1] * (g[2] - g[lo + 2])
               - ib[2] * g[2] * (g[1] - g[lo + 1]) + ib[1] * ib[2] * u[0])
    rows[1] = (ib[2] * g[2] * (g[0] - g[lo])
               - ib[0] * g[0] * (g[2] - g[lo + 2]) + ib[2] * ib[0] * u[1])
    rows[2] = (ib[0] * g[0] * (g[1] - g[lo + 1])
               - ib[1] * g[1] * (g[0] - g[lo]) + ib[0] * ib[1] * u[2])
    if variant == "SO3":
        for i in range(3):
            rows[3 + i] = (-jj[i] * (g[i] - g[6 + i]) + ib[i] * g[6 + i]
                           + ib[i] * jj[i] * u[3 + i])
        rows[6:9] = u[6:9]
    else:
        rows[3:6] = u[3:6]
    return rows


# ---------------------------------------------------------------------------
# heavy top with rotors
# ---------------------------------------------------------------------------

def _heavy_top_grad(params: HeavyTopRotorParams):
    """The gradient of the heavy top with rotors, componentwise: maps the
    d components of a flat state (pi, gamma [, theta], l) to the d
    components of dh/dx."""
    (i0, i1, i2), (j0, j1) = params.ibar.tolist(), params.j.tolist()
    dh_dgamma = (params.mgh * params.chi).tolist()

    def grad(x):
        l0, l1 = x[-2:]
        w0, w1 = (x[0] - l0) / i0, (x[1] - l1) / i1
        return [w0, w1, x[2] / i2, *dh_dgamma, *[0.0] * (len(x) - 8),
                -w0 + l0 / j0, -w1 + l1 / j1]

    return grad


def heavy_top_reduced_h(params: HeavyTopRotorParams,
                        p: ReducedPoint) -> float:
    """Kinetic part with rotors on axes 1 and 2 plus the potential
    m g h (gamma . chi)."""
    pi, l = p.nu[:3], p.l
    kin = ((pi[0] - l[0]) ** 2 / params.ibar[0]
           + (pi[1] - l[1]) ** 2 / params.ibar[1]
           + pi[2] ** 2 / params.ibar[2]
           + l[0] ** 2 / params.j[0] + l[1] ** 2 / params.j[1])
    return 0.5 * kin + params.mgh * float(p.nu[3:] @ params.chi)


def heavy_top_hamiltonian(params: HeavyTopRotorParams) -> ScalarField:
    def eval_batch(x):
        # float_power calls pow per element, as the scalar ** of
        # heavy_top_reduced_h does; an array ** 2 multiplies instead
        # and rounds some rows differently
        pi, l, sq = x[:, :3], x[:, -2:], np.float_power
        kin = (sq(pi[:, 0] - l[:, 0], 2) / params.ibar[0]
               + sq(pi[:, 1] - l[:, 1], 2) / params.ibar[1]
               + sq(pi[:, 2], 2) / params.ibar[2]
               + sq(l[:, 0], 2) / params.j[0] + sq(l[:, 1], 2) / params.j[1])
        return 0.5 * kin + params.mgh * _row_dot(x[:, 3:6], params.chi)

    return analytic_field(eval_batch, _heavy_top_grad(params))


def heavy_top_field(params: HeavyTopRotorParams,
                    p: ReducedPoint) -> ReducedTangent:
    """Closed form: pi_dot = pi x grad_pi h + m g h (gamma x chi),
    gamma_dot = gamma x grad_pi h, theta_dot as for the rigid body on
    the first two axes, l_dot = 0."""
    grad = _heavy_top_grad(params)(p.flat().tolist())
    grad_pi = np.array(grad[:3])
    d_pi = (np.cross(p.nu[:3], grad_pi)
            + params.mgh * np.cross(p.nu[3:], params.chi))
    d_gamma = np.cross(p.nu[3:], grad_pi)
    d_theta = np.array(grad[-2:]) if p.n_theta else np.zeros(0)
    return ReducedTangent(d_pi, d_gamma, d_theta, np.zeros(2))


def heavy_top_system(params: HeavyTopRotorParams) -> RCHSystem:
    return RCHSystem(heavy_top_hamiltonian(params), SE3, 2)


def heavy_top_hj_lhs(params: HeavyTopRotorParams,
                     cand: HJCandidate) -> np.ndarray:
    """Left-hand sides of the ten heavy-top Hamilton-Jacobi rows: three
    orbit rows with the gravity torque, three advected rows, two rotor
    angle rows, and the two momentum rows that pin the last lifted
    controls to zero."""
    _require_counts(cand, 7, 10, True, "heavy-top")
    ib = params.ibar
    jj = params.j
    mgh = params.mgh
    chi = params.chi
    g = cand.gamma_bar
    gm = cand.advected
    u = cand.u
    rows = np.empty(10)
    rows[0] = (ib[1] * g[1] * g[2] - ib[2] * g[2] * (g[1] - g[6])
               + mgh * ib[1] * ib[2] * (gm[1] * chi[2] - gm[2] * chi[1])
               + ib[1] * ib[2] * u[0])
    rows[1] = (ib[2] * g[2] * (g[0] - g[5]) - ib[0] * g[0] * g[2]
               + mgh * ib[2] * ib[0] * (gm[2] * chi[0] - gm[0] * chi[2])
               + ib[2] * ib[0] * u[1])
    rows[2] = (ib[0] * g[0] * (g[1] - g[6]) - ib[1] * g[1] * (g[0] - g[5])
               + mgh * ib[0] * ib[1] * (gm[0] * chi[1] - gm[1] * chi[0])
               + ib[0] * ib[1] * u[2])
    rows[3] = (ib[1] * gm[1] * g[2] - ib[2] * gm[2] * (g[1] - g[6])
               + ib[1] * ib[2] * u[3])
    rows[4] = (ib[2] * gm[2] * (g[0] - g[5]) - ib[0] * gm[0] * g[2]
               + ib[2] * ib[0] * u[4])
    rows[5] = (ib[0] * gm[0] * (g[1] - g[6]) - ib[1] * gm[1] * (g[0] - g[5])
               + ib[0] * ib[1] * u[5])
    rows[6] = -jj[0] * (g[0] - g[5]) + ib[0] * g[5] + ib[0] * jj[0] * u[6]
    rows[7] = -jj[1] * (g[1] - g[6]) + ib[1] * g[6] + ib[1] * jj[1] * u[7]
    rows[8] = u[8]
    rows[9] = u[9]
    return rows


# ---------------------------------------------------------------------------
# heavy top without rotors
# ---------------------------------------------------------------------------

def heavy_top_free_hamiltonian(params: HeavyTopParams) -> ScalarField:
    """1/2 sum pi_i^2 / I_i + m g h (gamma . chi), no rotor slots."""

    def eval_batch(x):
        pi = x[:, :3]
        return (0.5 * _row_dot(pi, pi / params.i)
                + params.mgh * _row_dot(x[:, 3:6], params.chi))

    i0, i1, i2 = params.i.tolist()
    dh_dgamma = (params.mgh * params.chi).tolist()

    def grad(x):
        return [x[0] / i0, x[1] / i1, x[2] / i2, *dh_dgamma]

    return analytic_field(eval_batch, grad)


def heavy_top_free_system(params: HeavyTopParams) -> RCHSystem:
    return RCHSystem(heavy_top_free_hamiltonian(params), SE3, 0)


def heavy_top_lp_hj_lhs(params: HeavyTopParams,
                        cand: HJCandidate) -> np.ndarray:
    """Left-hand sides of the six rotor-free heavy-top rows (orbit rows
    with gravity, then advected rows); the candidate carries no lifted
    control components."""
    _require_counts(cand, 3, 0, True, "rotor-free heavy-top")
    ii = params.i
    mgh = params.mgh
    chi = params.chi
    g = cand.gamma_bar
    gm = cand.advected
    rows = np.empty(6)
    rows[0] = (ii[1] * g[1] * g[2] - ii[2] * g[2] * g[1]
               + mgh * ii[1] * ii[2] * (gm[1] * chi[2] - gm[2] * chi[1]))
    rows[1] = (ii[2] * g[2] * g[0] - ii[0] * g[0] * g[2]
               + mgh * ii[2] * ii[0] * (gm[2] * chi[0] - gm[0] * chi[2]))
    rows[2] = (ii[0] * g[0] * g[1] - ii[1] * g[1] * g[0]
               + mgh * ii[0] * ii[1] * (gm[0] * chi[1] - gm[1] * chi[0]))
    rows[3] = ii[1] * gm[1] * g[2] - ii[2] * gm[2] * g[1]
    rows[4] = ii[2] * gm[2] * g[0] - ii[0] * gm[0] * g[2]
    rows[5] = ii[0] * gm[0] * g[1] - ii[1] * gm[1] * g[0]
    return rows
