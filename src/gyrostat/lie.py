"""Lie group and algebra kernel for SO(3) and SE(3).

All quantities live in body (left-trivialized) coordinates. Algebra
elements of so(3) are identified with 3-vectors through the hat map,
elements of se(3) with pairs (omega, vel) of 3-vectors, and the duals
so(3)*, se(3)* with 3-vectors / pairs of 3-vectors through the dot
product pairing. No abstract dual type exists; a momentum is just a
vector whose pairing with an algebra vector is the dot product of
matching parts.

Conventions fixed here and relied on everywhere else:

* ``bracket`` on se(3) is the semidirect-product bracket
  ``[(w1, u1), (w2, u2)] = (w1 x w2, w1 x u2 - w2 x u1)``.
* ``coadjoint_ad_star`` satisfies
  ``pairing(ad*_xi(mu), eta) = pairing(mu, [xi, eta])``, which for
  so(3) gives ``ad*_xi(mu) = pi x omega``. Under this choice the
  minus Lie-Poisson equations come out as ``pi_dot = pi x grad_h``.
* ``Ad_star`` is the coadjoint *action*
  ``mu -> Ad*_{g^{-1}} mu`` (a left action, composing covariantly),
  which for a rotation R sends ``pi -> R pi``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SO3 = "SO3"
SE3 = "SE3"

#: below this angle the exponential's Rodrigues coefficients switch to
#: 2-term Taylor expansions to avoid 0/0
SMALL_ANGLE = 1e-8

_ORTHO_TOL = 1e-10


def _vec3(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {a.shape}")
    return a


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b for two 3-vectors: np.cross's formula and rounding, without
    its per-call overhead. The package's one cross product of single
    3-vectors."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                     a0 * b1 - a1 * b0])


def _check_kind(kind: str) -> str:
    if kind not in (SO3, SE3):
        raise ValueError(f"kind must be {SO3!r} or {SE3!r}, got {kind!r}")
    return kind


def _same_kind(a, b) -> str:
    if a.kind != b.kind:
        raise ValueError(f"kind mismatch: {a.kind} vs {b.kind}")
    return a.kind


@dataclass(frozen=True)
class AlgebraVector:
    """Element of so(3) or se(3) in vector coordinates.

    ``omega`` is the angular part; ``vel`` is the translational part and
    exists exactly when ``kind == SE3``.
    """

    kind: str
    omega: np.ndarray
    vel: np.ndarray | None = None

    def __post_init__(self):
        _check_kind(self.kind)
        object.__setattr__(self, "omega", _vec3(self.omega, "omega"))
        if self.kind == SO3:
            if self.vel is not None:
                raise ValueError("SO3 algebra vectors carry no vel part")
        else:
            if self.vel is None:
                raise ValueError("SE3 algebra vectors need a vel part")
            object.__setattr__(self, "vel", _vec3(self.vel, "vel"))

    def flat(self) -> np.ndarray:
        if self.kind == SO3:
            return self.omega.copy()
        return np.concatenate([self.omega, self.vel])


@dataclass(frozen=True)
class CoalgebraVector:
    """Element of so(3)* or se(3)*: momentum ``pi`` plus, for SE3, the
    advected vector ``gamma``."""

    kind: str
    pi: np.ndarray
    gamma: np.ndarray | None = None

    def __post_init__(self):
        _check_kind(self.kind)
        object.__setattr__(self, "pi", _vec3(self.pi, "pi"))
        if self.kind == SO3:
            if self.gamma is not None:
                raise ValueError("SO3 momenta carry no gamma part")
        else:
            if self.gamma is None:
                raise ValueError("SE3 momenta need a gamma part")
            object.__setattr__(self, "gamma", _vec3(self.gamma, "gamma"))

    def flat(self) -> np.ndarray:
        if self.kind == SO3:
            return self.pi.copy()
        return np.concatenate([self.pi, self.gamma])


@dataclass(frozen=True)
class GroupElement:
    """SO(3) rotation or SE(3) (rotation, translation) pair.

    The rotation block must be orthonormal with unit determinant within
    1e-10; construction fails otherwise.
    """

    kind: str
    rot: np.ndarray
    trans: np.ndarray | None = None

    def __post_init__(self):
        _check_kind(self.kind)
        r = np.asarray(self.rot, dtype=float)
        if r.shape != (3, 3):
            raise ValueError(f"rot must be 3x3, got shape {r.shape}")
        if not np.all(np.isfinite(r)):
            raise ValueError("rot has non-finite entries")
        if np.max(np.abs(r.T @ r - np.eye(3))) > _ORTHO_TOL:
            raise ValueError("rot is not orthonormal within 1e-10")
        if abs(np.linalg.det(r) - 1.0) > _ORTHO_TOL:
            raise ValueError("rot determinant differs from 1 by more than 1e-10")
        object.__setattr__(self, "rot", r)
        if self.kind == SO3:
            if self.trans is not None:
                raise ValueError("SO3 elements carry no translation")
        else:
            if self.trans is None:
                raise ValueError("SE3 elements need a translation")
            object.__setattr__(self, "trans", _vec3(self.trans, "trans"))


def algebra(kind: str, omega, vel=None) -> AlgebraVector:
    """Convenience constructor; fills ``vel = 0`` for SE3 when omitted."""
    if kind == SE3 and vel is None:
        vel = np.zeros(3)
    return AlgebraVector(kind, omega, vel)


def coalgebra(kind: str, pi, gamma=None) -> CoalgebraVector:
    if kind == SE3 and gamma is None:
        gamma = np.zeros(3)
    return CoalgebraVector(kind, pi, gamma)


def algebra_dim(kind: str) -> int:
    return 3 if kind == SO3 else 6


def algebra_from_flat(kind: str, arr) -> AlgebraVector:
    arr = np.asarray(arr, dtype=float)
    if kind == SO3:
        return AlgebraVector(SO3, arr)
    return AlgebraVector(SE3, arr[:3], arr[3:6])


def coalgebra_from_flat(kind: str, arr) -> CoalgebraVector:
    arr = np.asarray(arr, dtype=float)
    if kind == SO3:
        return CoalgebraVector(SO3, arr)
    return CoalgebraVector(SE3, arr[:3], arr[3:6])


def skew(w) -> np.ndarray:
    """3x3 skew matrix of a 3-vector: skew(w) @ x == w x x."""
    w = np.asarray(w, dtype=float)
    return np.array([
        [0.0, -w[2], w[1]],
        [w[2], 0.0, -w[0]],
        [-w[1], w[0], 0.0],
    ])


def hat(x: AlgebraVector) -> np.ndarray:
    """Matrix form of an algebra vector: 3x3 skew for so(3), the 4x4
    homogeneous block matrix [[skew(omega), vel], [0, 0]] for se(3)."""
    if x.kind == SO3:
        return skew(x.omega)
    m = np.zeros((4, 4))
    m[:3, :3] = skew(x.omega)
    m[:3, 3] = x.vel
    return m


def vee(m) -> AlgebraVector:
    """Inverse of :func:`hat`; the kind is inferred from the shape."""
    m = np.asarray(m, dtype=float)
    if m.shape == (3, 3):
        return AlgebraVector(SO3, np.array([m[2, 1], m[0, 2], m[1, 0]]))
    if m.shape == (4, 4):
        w = np.array([m[2, 1], m[0, 2], m[1, 0]])
        return AlgebraVector(SE3, w, m[:3, 3].copy())
    raise ValueError(f"expected a 3x3 or 4x4 matrix, got shape {m.shape}")


def bracket(x: AlgebraVector, y: AlgebraVector) -> AlgebraVector:
    """Lie bracket. Cross product on so(3); on se(3) the semidirect
    bracket (w1 x w2, w1 x u2 - w2 x u1)."""
    kind = _same_kind(x, y)
    w = _cross(x.omega, y.omega)
    if kind == SO3:
        return AlgebraVector(SO3, w)
    u = _cross(x.omega, y.vel) - _cross(y.omega, x.vel)
    return AlgebraVector(SE3, w, u)


def pairing(mu: CoalgebraVector, xi: AlgebraVector) -> float:
    """Dual pairing: dot product of matching parts."""
    kind = _same_kind(mu, xi)
    v = float(mu.pi @ xi.omega)
    if kind == SE3:
        v += float(mu.gamma @ xi.vel)
    return v


def _rodrigues_coeffs(theta_sq: float) -> tuple[float, float, float]:
    # a = sin t / t, b = (1 - cos t) / t^2, c = (t - sin t) / t^3
    if theta_sq < SMALL_ANGLE * SMALL_ANGLE:
        return (1.0 - theta_sq / 6.0,
                0.5 - theta_sq / 24.0,
                1.0 / 6.0 - theta_sq / 120.0)
    t = np.sqrt(theta_sq)
    return (np.sin(t) / t,
            (1.0 - np.cos(t)) / theta_sq,
            (t - np.sin(t)) / (theta_sq * t))


def exp_group(x: AlgebraVector) -> GroupElement:
    """Group exponential: Rodrigues formula on SO(3); on SE(3) the
    closed form with the translation kernel
    V = I + b*skew + c*skew^2 applied to the vel part."""
    w = x.omega
    s = skew(w)
    a, b, c = _rodrigues_coeffs(float(w @ w))
    rot = np.eye(3) + a * s + b * (s @ s)
    if x.kind == SO3:
        return GroupElement(SO3, rot)
    v_mat = np.eye(3) + b * s + c * (s @ s)
    return GroupElement(SE3, rot, v_mat @ x.vel)


def identity(kind: str) -> GroupElement:
    _check_kind(kind)
    if kind == SO3:
        return GroupElement(SO3, np.eye(3))
    return GroupElement(SE3, np.eye(3), np.zeros(3))


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    kind = _same_kind(g, h)
    rot = g.rot @ h.rot
    if kind == SO3:
        return GroupElement(SO3, rot)
    return GroupElement(SE3, rot, g.rot @ h.trans + g.trans)


def inverse(g: GroupElement) -> GroupElement:
    if g.kind == SO3:
        return GroupElement(SO3, g.rot.T)
    return GroupElement(SE3, g.rot.T, -(g.rot.T @ g.trans))


def adjoint(g: GroupElement, xi: AlgebraVector) -> AlgebraVector:
    """Adjoint action Ad_g. For SE(3) with g = (A, b):
    (omega, vel) -> (A omega, b x A omega + A vel)."""
    kind = _same_kind(g, xi)
    w = g.rot @ xi.omega
    if kind == SO3:
        return AlgebraVector(SO3, w)
    u = _cross(g.trans, w) + g.rot @ xi.vel
    return AlgebraVector(SE3, w, u)


def coadjoint_ad_star(xi: AlgebraVector, mu: CoalgebraVector) -> CoalgebraVector:
    """Infinitesimal coadjoint map with the convention
    pairing(ad*_xi(mu), eta) = pairing(mu, [xi, eta]).

    so(3):  pi -> pi x omega.
    se(3):  (pi, gamma) -> (pi x omega + gamma x vel, gamma x omega).
    """
    kind = _same_kind(xi, mu)
    if kind == SO3:
        return CoalgebraVector(SO3, _cross(mu.pi, xi.omega))
    p = _cross(mu.pi, xi.omega) + _cross(mu.gamma, xi.vel)
    g = _cross(mu.gamma, xi.omega)
    return CoalgebraVector(SE3, p, g)


def Ad_star(g: GroupElement, mu: CoalgebraVector) -> CoalgebraVector:
    """Coadjoint action mu -> Ad*_{g^{-1}} mu.

    This is a left action: Ad_star(compose(g, h), mu) equals
    Ad_star(g, Ad_star(h, mu)). For SO(3) it is pi -> R pi; for SE(3)
    with g = (A, b) it is (pi, gamma) -> (A pi + b x A gamma, A gamma).
    """
    kind = _same_kind(g, mu)
    p = g.rot @ mu.pi
    if kind == SO3:
        return CoalgebraVector(SO3, p)
    ag = g.rot @ mu.gamma
    return CoalgebraVector(SE3, p + _cross(g.trans, ag), ag)


def random_algebra(rng: np.random.Generator, kind: str, scale: float = 1.0) -> AlgebraVector:
    _check_kind(kind)
    if kind == SO3:
        return AlgebraVector(SO3, scale * rng.standard_normal(3))
    return AlgebraVector(SE3, scale * rng.standard_normal(3), scale * rng.standard_normal(3))


def random_coalgebra(rng: np.random.Generator, kind: str, scale: float = 1.0) -> CoalgebraVector:
    _check_kind(kind)
    if kind == SO3:
        return CoalgebraVector(SO3, scale * rng.standard_normal(3))
    return CoalgebraVector(SE3, scale * rng.standard_normal(3), scale * rng.standard_normal(3))


def random_group(rng: np.random.Generator, kind: str, scale: float = 1.0) -> GroupElement:
    """Random group element via the exponential of a random algebra vector."""
    return exp_group(random_algebra(rng, kind, scale))
