"""Lie group and algebra kernel for SO(3) and SE(3).

All quantities live in body (left-trivialized) coordinates. An algebra
element is a flat float array: a (3,) vector omega of so(3), identified
with a skew matrix through the hat map, or a (6,) vector (omega, vel) of
se(3). A momentum of the dual so(3)* or se(3)* is a flat array of the
same shapes, pi or (pi, gamma), paired with an algebra vector by the dot
product. The kind is read from the length; any other shape is rejected.

The bracket is written once, as a private kernel on flat lists of
floats: :func:`_bracket_list` is the bracket behind the
exponential-coordinate reconstruction and the axiom suite's stacked
brackets. The ad* below is written straight into the Hamiltonian rate
kernels of :mod:`gyrostat.poisson`, one per layout.

Conventions fixed here and relied on everywhere else:

* the bracket on se(3) is the semidirect-product bracket
  ``[(w1, u1), (w2, u2)] = (w1 x w2, w1 x u2 - w2 x u1)``, the matrix
  commutator of the :func:`hat` images.
* ad* satisfies ``<ad*_xi(mu), eta> = <mu, [xi, eta]>``, which for
  so(3) gives ``ad*_xi(mu) = pi x omega``. Under this choice the
  minus Lie-Poisson equations come out as ``pi_dot = pi x grad_h``.
* ``coadjoint`` is the coadjoint *action* ``mu -> Ad*_{g^{-1}} mu``
  on flat arrays, for one element or a stack; ``Ad_star`` is its
  one-element view on a group element and a momentum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SO3 = "SO3"
SE3 = "SE3"

#: rows per block when a stack is checked or built a block at a time; the
#: blocks' temporaries are a fixed peak (0.6 MB on a heavy-top hj-check)
CHUNK = 256

#: below this angle the exponential's Rodrigues coefficients are their
#: limits at 0, to avoid 0/0: their next Taylor terms are below half an
#: ulp of those limits there
SMALL_ANGLE = 1e-8

_ORTHO_TOL = 1e-10
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False
# a x b = a[_ROLL1] * b[_ROLL2] - a[_ROLL2] * b[_ROLL1] on stacked 3-vectors;
# index arrays built once cost less per call than index lists
_ROLL1, _ROLL2 = np.array([1, 2, 0]), np.array([2, 0, 1])
_ROLL1.flags.writeable = _ROLL2.flags.writeable = False
# the entries of skew(w), row-major, as indices into (w, -w, 0)
_SKEW = np.array([6, 5, 1, 2, 6, 3, 4, 0, 6])
_SKEW.flags.writeable = False


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


def _flat_algebra(x, kind: str | None = None) -> tuple[np.ndarray, str]:
    """x as a flat algebra vector or momentum and its kind: a (3,) float
    array is so(3) or so(3)*, a (6,) one se(3) or se(3)*. Raises on any
    other shape, and when x is not of ``kind`` if that is given."""
    a = np.asarray(x, dtype=float)
    if a.shape not in ((3,), (6,)):
        raise ValueError(f"algebra vectors and momenta have shape (3,) or "
                         f"(6,), got {a.shape}")
    own = SO3 if a.size == 3 else SE3
    if kind is not None and own != kind:
        raise ValueError(f"kind mismatch: {kind} vs {own}")
    return a, own


def _check_rotations(rot: np.ndarray) -> None:
    """Raise unless every trailing 3x3 block of rot, one matrix or an
    (n, 3, 3) stack, is finite and orthonormal with unit determinant
    within 1e-10. A stack is tested CHUNK blocks at a time, so the
    temporaries keep a fixed size; the error names the first failing
    block by its index in the whole stack."""
    r = rot.reshape(-1, 3, 3)
    stacked = rot.ndim == 3
    for lo in range(0, len(r), CHUNK):
        part = r[lo:lo + CHUNK]
        if not np.isfinite(part).all():
            _reject("rot", stacked, ~np.isfinite(part),
                    "has non-finite entries", lo)
        ortho = abs(part.mT @ part - _EYE3)
        if ortho.max() > _ORTHO_TOL:
            _reject("rot", stacked, ortho > _ORTHO_TOL,
                    "is not orthonormal within 1e-10", lo)
        det = abs(np.linalg.det(part) - 1.0)
        if det.max() > _ORTHO_TOL:
            _reject("rot", stacked, det > _ORTHO_TOL,
                    "determinant differs from 1 by more than 1e-10", lo)


def _reject(name: str, stacked: bool, bad: np.ndarray, what: str,
            offset: int = 0):
    where = f"[{offset + np.argwhere(bad)[0, 0]}]" if stacked else ""
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

    def rows(self, b: slice) -> GroupPath:
        """The rows of a non-empty slice b as a path of views, which run no
        second check."""
        if not isinstance(b, slice):
            raise TypeError(f"rows takes a slice, got {type(b).__name__}")
        g = object.__new__(GroupPath)
        g.__dict__.update(kind=self.kind, rot=self.rot[b],
                          trans=None if self.trans is None else self.trans[b])
        return g


def coalgebra(kind: str, pi, gamma=None) -> np.ndarray:
    """The flat momentum of kind: pi on so(3)*, which carries no gamma
    part, and (pi, gamma) on se(3)*, gamma defaulting to zero."""
    _check_kind(kind)
    parts = [_vec3(pi, "pi")]
    if kind == SO3:
        if gamma is not None:
            raise ValueError("SO3 momenta carry no gamma part")
    else:
        parts.append(np.zeros(3) if gamma is None else _vec3(gamma, "gamma"))
    return np.concatenate(parts)


def algebra_dim(kind: str) -> int:
    # compared before checked: the probe asks once per fiber derivative
    if kind == SO3:
        return 3
    if kind != SE3:
        _check_kind(kind)  # raises
    return 6


def skew(w) -> np.ndarray:
    """Skew matrix of a 3-vector, or the (n, 3, 3) stack of an (n, 3)
    stack: skew(w) @ x == w x x."""
    w = np.asarray(w, dtype=float)
    lead = w.shape[:-1]
    padded = np.zeros(lead + (7,))
    padded[..., :3], padded[..., 3:6] = w, -w
    return padded.take(_SKEW, axis=-1).reshape(lead + (3, 3))


def hat(x) -> np.ndarray:
    """Matrix form of a flat algebra vector: 3x3 skew for so(3), the 4x4
    homogeneous block matrix [[skew(omega), vel], [0, 0]] for se(3)."""
    x, kind = _flat_algebra(x)
    if kind == SO3:
        return skew(x)
    m = np.zeros((4, 4))
    m[:3, :3] = skew(x[:3])
    m[:3, 3] = x[3:]
    return m


def vee(m) -> np.ndarray:
    """Inverse of :func:`hat`; the kind is inferred from the shape."""
    m = np.asarray(m, dtype=float)
    if m.shape not in ((3, 3), (4, 4)):
        raise ValueError(f"expected a 3x3 or 4x4 matrix, got shape {m.shape}")
    w = [m[2, 1], m[0, 2], m[1, 0]]
    return np.array(w if m.shape == (3, 3) else w + m[:3, 3].tolist())


def _cross_list(a: list, b: list) -> list:
    # the first three entries of a and b; np.cross's formula and rounding
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


def _bracket_list(a: list, b: list) -> list:
    """Lie bracket of flat algebra vectors given as lists, of floats or
    of equal-shape arrays (a stack of vectors as its columns): the cross
    product of 3-component so(3) vectors; on 6-component se(3) vectors
    (omega, vel) the semidirect bracket (w1 x w2, w1 x u2 - w2 x u1)."""
    if len(a) == 3:
        return _cross_list(a, b)
    u1, u2 = _cross_list(a, b[3:]), _cross_list(b, a[3:])
    return _cross_list(a, b) + [p - q for p, q in zip(u1, u2)]


def _rodrigues_coeffs(theta_sq):
    # a = sin t / t, b = (1 - cos t) / t^2, c = (t - sin t) / t^3 of
    # t^2 = theta_sq elementwise, as scalars or (n, 1, 1) stacks; where
    # small, their limits 1, 1/2 and 1/6 replace them, and t^2 + 1
    # avoids 0/0
    small = theta_sq < SMALL_ANGLE * SMALL_ANGLE
    sq = theta_sq + small
    t = np.sqrt(sq)
    sin = np.sin(t)
    closed = (sin / t, (1.0 - np.cos(t)) / sq, (t - sin) / (sq * t))
    if not (small.ndim or small):
        return closed
    limits = (1.0, 0.5, 1.0 / 6.0)
    if not small.ndim:
        return limits
    return tuple(np.where(small, s, c)[..., None, None]
                 for s, c in zip(limits, closed))


def flat_exp(x: np.ndarray) -> tuple:
    """Group exponential of one flat algebra vector or of an (n, 3|6)
    stack of them, as (rot, trans): the Rodrigues formula on so(3)
    vectors, with trans None; on se(3) vectors also the translation
    V vel, with the kernel V = I + b*skew + c*skew^2. Row i of a stack
    equals the one-vector call on x[i] bit for bit."""
    w = x[..., :3]
    s = skew(w)
    ss = s @ s
    a, b, c = _rodrigues_coeffs(np.vecdot(w, w))
    rot = _EYE3 + a * s + b * ss
    if x.shape[-1] == 3:
        return rot, None
    return rot, ((_EYE3 + b * s + c * ss) @ x[..., 3:, None])[..., 0]


def exp_group(x) -> GroupElement:
    """:func:`flat_exp` of a flat algebra vector."""
    x, kind = _flat_algebra(x)
    return GroupElement(kind, *flat_exp(x))


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


def Ad_star(g: GroupElement, mu) -> np.ndarray:
    """:func:`coadjoint` of one group element and a flat momentum of its
    kind."""
    mu, _ = _flat_algebra(mu, g.kind)
    return coadjoint(g.rot, g.trans, mu)


def random_algebra(rng: np.random.Generator, kind: str,
                   scale: float = 1.0) -> np.ndarray:
    """Flat algebra vector of independent normal entries times scale."""
    return scale * rng.standard_normal(algebra_dim(kind))


def random_group(rng: np.random.Generator, kind: str, scale: float = 1.0) -> GroupElement:
    """Random group element via the exponential of a random algebra vector."""
    return exp_group(random_algebra(rng, kind, scale))
