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
* ``coadjoint`` is the coadjoint *action* ``mu -> Ad*_{g^{-1}} mu``
  on flat arrays, for one element or a stack; ``Ad_star`` is its
  one-element view on dataclasses.
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
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False
# a x b = a[_ROLL1] * b[_ROLL2] - a[_ROLL2] * b[_ROLL1] on stacked 3-vectors;
# index arrays built once cost less per call than index lists
_ROLL1, _ROLL2 = np.array([1, 2, 0]), np.array([2, 0, 1])
_ROLL1.flags.writeable = _ROLL2.flags.writeable = False


def _vec3(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {a.shape}")
    return a


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


def _check_rotations(rot: np.ndarray) -> None:
    """Raise unless every trailing 3x3 block of rot, one matrix or an
    (n, 3, 3) stack, is finite and orthonormal with unit determinant
    within 1e-10. Each test is one whole-array max; the first failing
    block of a stack is located only to name it in the error."""
    r = rot.reshape(-1, 3, 3)
    stacked = rot.ndim == 3
    if not np.isfinite(r).all():
        _reject("rot", stacked, ~np.isfinite(r), "has non-finite entries")
    ortho = abs(r.mT @ r - _EYE3)
    if ortho.max() > _ORTHO_TOL:
        _reject("rot", stacked, ortho > _ORTHO_TOL,
                "is not orthonormal within 1e-10")
    det = abs(np.linalg.det(r) - 1.0)
    if det.max() > _ORTHO_TOL:
        _reject("rot", stacked, det > _ORTHO_TOL,
                "determinant differs from 1 by more than 1e-10")


def _reject(name: str, stacked: bool, bad: np.ndarray, what: str):
    where = f"[{np.argwhere(bad)[0, 0]}]" if stacked else ""
    raise ValueError(f"{name}{where} {what}")


def _set_group_parts(g, lead: tuple) -> None:
    """Check g and store its rot and trans as float arrays of shapes
    lead + (3, 3) and, for SE3 only, lead + (3,)."""
    _check_kind(g.kind)
    r = np.asarray(g.rot, dtype=float)
    if r.shape != lead + (3, 3) or 0 in lead:
        want = "a non-empty (n, 3, 3) stack" if lead else "3x3"
        raise ValueError(f"rot must be {want}, got shape {r.shape}")
    _check_rotations(r)
    object.__setattr__(g, "rot", r)
    if g.kind == SO3:
        if g.trans is not None:
            raise ValueError("SO3 elements carry no translation")
    elif g.trans is None or np.shape(g.trans) != lead + (3,):
        raise ValueError(f"SE3 elements need a translation of shape "
                         f"{lead + (3,)}")
    else:
        t = np.asarray(g.trans, dtype=float)
        if not np.isfinite(t).all():
            _reject("trans", bool(lead), ~np.isfinite(t),
                    "has non-finite entries")
        object.__setattr__(g, "trans", t)


@dataclass(frozen=True)
class GroupElement:
    """SO(3) rotation or SE(3) (rotation, translation) pair.

    The rotation block must be orthonormal with unit determinant within
    1e-10 and the translation finite; construction fails otherwise.
    """

    kind: str
    rot: np.ndarray
    trans: np.ndarray | None = None

    def __post_init__(self):
        _set_group_parts(self, ())


@dataclass(frozen=True)
class GroupPath:
    """n group elements as stacked (n, 3, 3) rotations and, for SE3,
    (n, 3) translations: the attitudes that reconstruction recovers.
    Every element passes the :class:`GroupElement` checks, run once over
    the stack."""

    kind: str
    rot: np.ndarray
    trans: np.ndarray | None = None

    def __post_init__(self):
        _set_group_parts(self, np.shape(self.rot)[:1])

    def element(self, i: int) -> GroupElement:
        """Element i as a :class:`GroupElement` on views of row i. Its
        rotation passed the check over the stack, so none runs again."""
        g = object.__new__(GroupElement)
        object.__setattr__(g, "kind", self.kind)
        object.__setattr__(g, "rot", self.rot[i])
        object.__setattr__(g, "trans",
                           None if self.trans is None else self.trans[i])
        return g


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
    w0, w1, w2 = np.asarray(w, dtype=float).tolist()
    return np.array([
        [0.0, -w2, w1],
        [w2, 0.0, -w0],
        [-w1, w0, 0.0],
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


def _cross_list(a: list, b: list) -> list:
    # the first three entries of a and b; np.cross's formula and rounding
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


def _bracket_list(a: list, b: list) -> list:
    """Lie bracket of flat algebra vectors given as lists of floats: the
    cross product of 3-component so(3) vectors; on 6-component se(3)
    vectors (omega, vel) the semidirect bracket
    (w1 x w2, w1 x u2 - w2 x u1)."""
    if len(a) == 3:
        return _cross_list(a, b)
    u1, u2 = _cross_list(a, b[3:]), _cross_list(b, a[3:])
    return _cross_list(a, b) + [p - q for p, q in zip(u1, u2)]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b for two 3-vectors, the so(3) case of :func:`_bracket_list`,
    without the per-call overhead of np.cross."""
    return np.array(_cross_list(a.tolist(), b.tolist()))


def bracket(x: AlgebraVector, y: AlgebraVector) -> AlgebraVector:
    """:func:`_bracket_list` of two algebra vectors of one kind, read from
    their parts as lists, which costs less than building flat arrays."""
    if _same_kind(x, y) == SO3:
        return AlgebraVector(SO3, np.array(_bracket_list(x.omega.tolist(),
                                                         y.omega.tolist())))
    v = _bracket_list(x.omega.tolist() + x.vel.tolist(),
                      y.omega.tolist() + y.vel.tolist())
    return AlgebraVector(SE3, np.array(v[:3]), np.array(v[3:]))


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


def flat_exp(x: np.ndarray) -> tuple:
    """Group exponential of a flat algebra vector as (rot, trans): the
    Rodrigues formula on (3,) so(3) vectors, with trans None; on (6,)
    se(3) vectors also the translation V vel, with the kernel
    V = I + b*skew + c*skew^2."""
    w = x[:3]
    s = skew(w)
    a, b, c = _rodrigues_coeffs(float(w @ w))
    rot = np.eye(3) + a * s + b * (s @ s)
    if x.size == 3:
        return rot, None
    return rot, (np.eye(3) + b * s + c * (s @ s)) @ x[3:]


def exp_group(x: AlgebraVector) -> GroupElement:
    """:func:`flat_exp` of an algebra vector."""
    return GroupElement(x.kind, *flat_exp(x.flat()))


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


def coadjoint(rot: np.ndarray, trans, mu: np.ndarray) -> np.ndarray:
    """Coadjoint action mu -> Ad*_{g^{-1}} mu of g = (rot, trans) on flat
    arrays: rot (3, 3), trans (3,) or None on SO(3) and mu (>= d,) for
    one element, each with a leading n for a stack; only the first d = 3
    or 6 entries of mu are read. A left action: pi -> R pi on SO(3), and
    (pi, gamma) -> (A pi + b x A gamma, A gamma) on SE(3), g = (A, b).
    """
    p = (rot @ mu[..., :3, None])[..., 0]
    if trans is None:
        return p
    ag = (rot @ mu[..., 3:6, None])[..., 0]
    cross = (trans[..., _ROLL1] * ag[..., _ROLL2]
             - trans[..., _ROLL2] * ag[..., _ROLL1])
    return np.concatenate([p + cross, ag], axis=-1)


def Ad_star(g: GroupElement, mu: CoalgebraVector) -> CoalgebraVector:
    """:func:`coadjoint` of one group element and momentum of one kind."""
    return coalgebra_from_flat(_same_kind(g, mu),
                               coadjoint(g.rot, g.trans, mu.flat()))


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
