"""Poisson brackets and Hamiltonian vector fields on reduced spaces.

The reduced phase spaces handled here are products of a dual Lie algebra
(so(3)* or se(3)*, carrying the Lie-Poisson structure) with a canonical
rotor factor V x V* of angle/momentum pairs. Points are
:class:`ReducedPoint` at the API and flat states in a :class:`Layout`
inside fields: one state is a row of d Python floats (a
:data:`FlatField` maps it to d rates), and batched work takes (n, d)
float64 arrays. A momentum nu is a flat (3,) or (6,) array (see
:mod:`gyrostat.lie`). Scalar observables are :class:`ScalarField` values,
each read through its batched value, whose gradients are one analytic
``grad_row`` on a state's floats or a stack's columns, or central
differences of that value (:func:`central_difference`, the package's one
stencil); :func:`_gradient_rows` and :func:`flat_gradient` read them.

The bracket is the minus Lie-Poisson bracket plus the canonical rotor
pairs, the one under which the body-frame equations take their usual
form (pi_dot = pi x grad_pi h and, on se(3)*, the advected vector
equation gamma_dot = gamma x grad_pi h). It is evaluated in one place,
:func:`_flat_bracket`, on stacked gradient rows; :func:`product_bracket`
is its one-point view.

A reduced point may also carry rotor momenta without conjugate angles
(``theta`` empty while ``l`` is not). In that case the rotor factor is
Poisson-trivial: the canonical part of the bracket is empty and the
momenta are constants of motion of every Hamiltonian flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from math import isfinite
from typing import Callable, NamedTuple

import numpy as np

from . import lie
from .lie import SE3, SO3, _bracket_list

FD_STEP = 1e-6


def _vec(x, name: str) -> np.ndarray:
    a = np.atleast_1d(np.asarray(x, dtype=float))
    if a.ndim != 1:
        raise ValueError(f"{name} must be a 1-d array, got shape {a.shape}")
    return a


class Layout(NamedTuple):
    """Slot sizes of a flat state: pi(3) [, gamma(3)], theta, l."""

    kind: str
    n_theta: int
    n_l: int


#: A vector field on flat states: a list of d Python floats to its d
#: rates, as a list.
FlatField = Callable[[list], list]


@dataclass(frozen=True)
class ReducedPoint:
    """Point (nu, theta, l) of O_mu x V x V* in body coordinates; nu is
    a flat (3,) so(3)* or (6,) se(3)* momentum, which gives the kind."""

    nu: np.ndarray
    theta: np.ndarray
    l: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nu", lie._flat_algebra(self.nu)[0])
        object.__setattr__(self, "theta", _vec(self.theta, "theta"))
        object.__setattr__(self, "l", _vec(self.l, "l"))
        if not (np.all(np.isfinite(self.nu))
                and np.all(np.isfinite(self.theta))
                and np.all(np.isfinite(self.l))):
            raise ValueError("reduced point has non-finite components")

    @property
    def kind(self) -> str:
        return SO3 if self.nu.size == 3 else SE3

    @property
    def n_theta(self) -> int:
        return self.theta.size

    @property
    def n_l(self) -> int:
        return self.l.size

    @property
    def layout(self) -> Layout:
        return Layout(self.kind, self.n_theta, self.n_l)

    def flat(self) -> np.ndarray:
        """Layout: pi(3) [, gamma(3)], theta, l."""
        return np.concatenate([self.nu, self.theta, self.l])


def reduced_point(kind: str, pi, gamma=None, theta=(), l=()) -> ReducedPoint:
    return ReducedPoint(lie.coalgebra(kind, pi, gamma), np.asarray(theta, float),
                        np.asarray(l, float))


def point_like(p: ReducedPoint | Layout, arr) -> ReducedPoint:
    """Point view of flat arr in the layout of p (a point or Layout)."""
    arr = np.asarray(arr, dtype=float)
    nc = lie.algebra_dim(p.kind)
    return ReducedPoint(arr[:nc], arr[nc:nc + p.n_theta], arr[nc + p.n_theta:])


@dataclass(frozen=True)
class ReducedTangent:
    """Tangent (or, via the dot pairing, gradient) components at a
    reduced point: the layout mirrors :class:`ReducedPoint`."""

    d_pi: np.ndarray
    d_gamma: np.ndarray | None
    d_theta: np.ndarray
    d_l: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d_pi", _vec(self.d_pi, "d_pi"))
        if self.d_gamma is not None:
            object.__setattr__(self, "d_gamma", _vec(self.d_gamma, "d_gamma"))
        object.__setattr__(self, "d_theta", _vec(self.d_theta, "d_theta"))
        object.__setattr__(self, "d_l", _vec(self.d_l, "d_l"))

    def flat(self) -> np.ndarray:
        parts = [self.d_pi]
        if self.d_gamma is not None:
            parts.append(self.d_gamma)
        parts.extend([self.d_theta, self.d_l])
        return np.concatenate(parts)


@dataclass(frozen=True)
class ScalarField:
    """Observable on reduced points.

    eval_batch, required, maps an (n, dim) array of flat states to their
    n values; it is the one way the package reads a value. eval, its
    view at one ReducedPoint, serves the API boundary; grad, a point
    view of the gradient, is set by no builder. grad_row, when given, is
    the componentwise gradient: the dim floats of one flat state, or the
    dim equal-length columns of a stack, to dim components, floats or
    columns. :func:`flat_gradient` and :func:`_gradient_rows` read
    grad_row, else central differences of eval_batch. The four are
    plain callables that wrappers may replace, so code must not rely on
    attributes attached to them.
    """

    eval: Callable[[ReducedPoint], float]
    eval_batch: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[ReducedPoint], ReducedTangent] | None = None
    grad_row: Callable[[list], list] | None = None


def analytic_field(eval_batch: Callable[[np.ndarray], np.ndarray],
                   grad: Callable[[list], list]) -> ScalarField:
    """Field whose value is given once, batched on flat states, and
    whose analytic gradient is written once, componentwise: ``grad``
    maps the d components of a flat state to the d components of its
    gradient with elementwise operations only. On a list of d Python
    floats it is the row gradient ``grad_row``; on the d columns of an
    (n, d) array, as :func:`_gradient_rows` passes them, it gives the
    batched gradients, the same numbers bit for bit. ``eval`` is the
    one-row view of ``eval_batch``."""
    return ScalarField(
        lambda p: float(eval_batch(p.flat()[None, :])[0]), eval_batch,
        grad_row=grad)


def _from_columns(columns: list, shape: tuple) -> np.ndarray:
    """The array of ``shape`` whose columns are ``columns``, (n,) or float."""
    out = np.empty(shape)
    for i, column in enumerate(columns):
        out[:, i] = column
    return out


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (n, k) arrays (b may be one (k,) row),
    rounded as the 1-d ``a[i] @ b[i]``: the stacked matmul does that,
    einsum, ``sum(axis=1)`` and a plain ``a @ b`` do not."""
    b = np.broadcast_to(b, a.shape)
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def central_difference(fn: Callable[[np.ndarray], np.ndarray],
                       pts: np.ndarray) -> np.ndarray:
    """Central finite-difference Jacobian of ``fn`` at each row of the
    (m, d) array ``pts``, with step ``FD_STEP * max(1, |x_i|)`` per
    coordinate.

    ``fn`` maps an (n, d) array of points to n values, or to an (n, k)
    array of vector values, in one call. The result has shape (m, d),
    or (m, d, k): entry [j, i] is the derivative along coordinate i at
    point j.
    """
    pts = np.asarray(pts, dtype=float)
    m, d = pts.shape
    h = FD_STEP * np.maximum(1.0, np.abs(pts))
    per = np.repeat(pts[:, None, :], 2 * d, axis=1)
    i = np.arange(d)
    per[:, 2 * i, i] += h
    per[:, 2 * i + 1, i] -= h
    v = np.asarray(fn(per.reshape(-1, d)), dtype=float)
    v = v.reshape((m, 2 * d) + v.shape[1:])
    h = h.reshape(h.shape + (1,) * (v.ndim - 2))
    return (v[:, 0::2] - v[:, 1::2]) / (2.0 * h)


def _gradient_rows(h: ScalarField, pts: np.ndarray) -> np.ndarray:
    """The (n, d) gradient rows of h at the flat states ``pts``, checked
    finite once: grad_row on the columns of pts, else
    :func:`central_difference` over eval_batch."""
    if h.grad_row is not None:
        g = _from_columns(h.grad_row(list(pts.T)), pts.shape)
    else:
        g = central_difference(h.eval_batch, pts)
    if not np.isfinite(g).all():
        raise ValueError("non-finite gradient")
    return g


def flat_gradient(h: ScalarField) -> Callable[[list], list]:
    """Row gradient of h on one flat state, d floats: its grad_row, else
    the one-row view of :func:`_gradient_rows`, a central difference."""
    if h.grad_row is not None:
        return h.grad_row
    return lambda x: _gradient_rows(h, np.array([x]))[0].tolist()


def product_bracket(f: ScalarField, k: ScalarField, p: ReducedPoint) -> float:
    """Bracket on g* x V x V* at p: the minus Lie-Poisson part
    -<nu, [df/dnu, dk/dnu]> plus the canonical rotor part
    sum_i (df/dtheta_i dk/dl_i - dk/dtheta_i df/dl_i), through
    :func:`_flat_bracket` on the :func:`_gradient_rows` rows of f and k.

    The canonical part requires theta and l slots of equal size; with an
    empty theta slot the rotor momenta sit in a Poisson-trivial factor
    and only the Lie-Poisson part remains. Raises on a non-finite
    gradient.
    """
    x = p.flat()[None]
    gf, gk = (_gradient_rows(h, x) for h in (f, k))
    return float(_flat_bracket(p.layout)(gf, gk, x)[0])


@cache
def _hamiltonian_rates(layout: Layout) -> Callable[[list, list], list]:
    """(x, g) -> the rates of :func:`flat_hamiltonian_field` at flat
    states x, d floats or d equal-length columns, given the gradient g of
    h there, unchecked but for its length. A kernel generated once per
    layout from its slot sizes alone, so no outside text reaches
    ``exec``: bracketed targets unpack x and g, rejecting a gradient of
    another length, and one list display gives the rates. Its Lie-Poisson
    part is ad*_g(x) in the pairing of :mod:`gyrostat.lie`, pi x omega or
    (pi x omega + gamma x vel, gamma x omega), each cross product in
    np.cross's formula and term order; a paired rotor slot reads its
    conjugate gradient, the momentum's negated, an unpaired one is 0.0."""
    kind, n_theta, n_l = layout
    nc = lie.algebra_dim(kind)
    lo, d = nc + n_theta, nc + n_theta + n_l
    rates = ["x1 * g2 - x2 * g1", "x2 * g0 - x0 * g2", "x0 * g1 - x1 * g0"]
    if nc == 6:
        rates = [f"{a} + ({b})" for a, b in zip(rates, (
            "x4 * g5 - x5 * g4", "x5 * g3 - x3 * g5", "x3 * g4 - x4 * g3"))]
        rates += ["x4 * g2 - x5 * g1", "x5 * g0 - x3 * g2",
                  "x3 * g1 - x4 * g0"]
    if 0 < n_theta == n_l:
        rates += [f"g{i}" for i in range(lo, d)]
        rates += [f"-g{i}" for i in range(nc, lo)]
    else:
        rates += ["0.0"] * (n_theta + n_l)
    x, g = (f"[{', '.join(f'{v}{i}' for i in range(d))}] = {v}" for v in "xg")
    namespace: dict = {}
    exec(f"def rates(x, g):\n    {x}\n    {g}\n"
         f"    return [{', '.join(rates)}]", namespace)
    return namespace["rates"]


def flat_hamiltonian_field(h: ScalarField, layout: Layout) -> FlatField:
    """Minus-bracket Hamiltonian vector field of h on flat states of
    ``layout``, lists of d floats, in closed form:

    so(3)*:  pi_dot = pi x grad_pi h
    se(3)*:  pi_dot = pi x grad_pi h + gamma x grad_gamma h,
             gamma_dot = gamma x grad_pi h
    rotors:  theta_dot = grad_l h, l_dot = -grad_theta h (canonical
             pairs only; an unpaired momentum slot is constant)

    Every component equals the minus bracket of its coordinate function
    with h, which the tests verify against :func:`product_bracket`. The
    rates are the :func:`_hamiltonian_rates` kernel of ``layout``.
    Raises on a non-finite gradient, the row path's one check, made as
    isfinite(sum(g)) or all(map(isfinite, g)): a sum with an inf or nan
    term is never finite, and a finite gradient whose sum overflows
    falls through to the exact per-entry test.
    """
    grad, rates = flat_gradient(h), _hamiltonian_rates(layout)

    def field(x: list) -> list:
        g = grad(x)
        if not (isfinite(sum(g)) or all(map(isfinite, g))):
            raise ValueError("non-finite gradient")
        return rates(x, g)

    return field


def _slot_product(a: int, b: int) -> ScalarField:
    """x_a . x_b for the two 3-slots of the flat state that start at a
    and b, batched."""
    def grad(x):
        g = [0.0] * len(x)
        for i in range(3):
            g[b + i] = x[a + i]
            g[a + i] = 2.0 * x[a + i] if a == b else x[b + i]
        return g

    return analytic_field(
        lambda x: _row_dot(x[:, a:a + 3], x[:, b:b + 3]), grad)


def casimir_fields(kind: str) -> list[tuple[str, ScalarField]]:
    """Casimirs of the Lie-Poisson factor as scalar fields with batched
    values and analytic gradients: |pi|^2 on so(3)*, pi . gamma and
    |gamma|^2 on se(3)*. Each Poisson-commutes with every observable."""
    if kind == SO3:
        return [("pi_sq", _slot_product(0, 0))]
    return [("pi_dot_gamma", _slot_product(0, 3)),
            ("gamma_sq", _slot_product(3, 3))]


# ---------------------------------------------------------------------------
# polynomial test fields and the bracket axiom suite
# ---------------------------------------------------------------------------

class _Polynomials(NamedTuple):
    """n polynomials c0 + a.x + x.b.x/2 + sum_q coef_q x_i x_j x_k with
    (i, j, k) = idx_q on flat states, polynomial j at its own points:
    ``value`` and ``grad`` map (n, m, d) points to (n, m) and (n, m, d).
    Three steps fix the rounding the goldens print: the BLAS calls on
    (n, m, d) stacks, the sequential (i, j) sum of (x_i * b_ij) * x_j,
    and the contiguous-row dots of :func:`_flat_bracket`. Any memory
    layout that keeps these is free."""

    c0: np.ndarray
    a: np.ndarray
    b: np.ndarray
    idx: np.ndarray
    coef: np.ndarray

    def value(self, pts: np.ndarray) -> np.ndarray:
        # coordinate-major copies: the same (i, j) order, inner loop over n
        xt = np.ascontiguousarray(pts.transpose(2, 1, 0))
        bt = np.ascontiguousarray(self.b.transpose(1, 2, 0))
        v = (self.c0[:, None] + (pts @ self.a[:, :, None])[..., 0]
             + 0.5 * np.einsum("imn,ijn,jmn->nm", xt, bt, xt))
        # BLAS rounds the matvec by block layout: column-major (m, q)
        # blocks, gathered as (n, q, m), give the stored golden figures
        rows = np.arange(len(pts))[:, None]
        x = [pts[rows, :, self.idx[:, :, s]] for s in range(3)]
        cubic = (x[0] * x[1] * x[2]).swapaxes(1, 2) @ self.coef[:, :, None]
        return v + cubic[..., 0]

    def grad(self, pts: np.ndarray) -> np.ndarray:
        g = pts @ self.b
        g += self.a[:, None, :]
        rows = np.arange(len(pts))
        for i, j, k, t in zip(*self.idx.transpose(2, 1, 0),
                              self.coef.T[:, :, None]):
            xi, xj, xk = (pts[rows, :, s] for s in (i, j, k))
            g[rows, :, i] += t * xj * xk
            g[rows, :, j] += t * xi * xk
            g[rows, :, k] += t * xi * xj
        return g


def _polynomials(idx: np.ndarray, z: np.ndarray) -> _Polynomials:
    """The polynomials of n raw draws: cubic indices idx (n, q, 3) and
    standard normals z (n, q + 1 + d(d + 1)), which give coef, c0, a and
    b in this order. The scales keep values O(1) on standard-normal
    points."""
    q = idx.shape[1]
    d = math.isqrt(z.shape[1] - q - 1)
    a = (0.4 / np.sqrt(d)) * z[:, q + 1:q + 1 + d]
    b = (0.6 / d) * z[:, q + 1 + d:].reshape(-1, d, d)
    return _Polynomials(0.3 * z[:, q], a, 0.5 * (b + b.swapaxes(1, 2)), idx,
                        0.1 * z[:, :q])


def polynomial_field(c0: float, a: np.ndarray, b: np.ndarray,
                     cubic_idx: np.ndarray | None = None,
                     cubic_coef: np.ndarray | None = None) -> ScalarField:
    """c0 + a.x + x.B.x/2 plus optional sparse cubic terms, on the flat
    coordinate layout (B is symmetrised). eval, eval_batch and grad_row
    are views of one :class:`_Polynomials` row, grad_row through one
    (1, n, d) stack of its d floats or columns. Each rounds by its row
    count, which picks the BLAS kernel: a stack differs from its one-row
    calls in the last bits (2.2e-16 in grad_row, 8.9e-16 in eval_batch
    seen on random fields of 3, 9 and 10 components)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    idx = np.asarray(np.zeros((0, 3), int) if cubic_idx is None else cubic_idx)
    coef = np.asarray(() if cubic_coef is None else cubic_coef, dtype=float)
    d, q = a.size, len(idx)
    if a.shape != (d,) or b.shape != (d, d):
        raise ValueError(f"a and b must have shapes (d,) and (d, d), got "
                         f"{a.shape} and {b.shape}")
    if (idx.shape != (q, 3) or not np.issubdtype(idx.dtype, np.integer)
            or np.any((idx < 0) | (idx >= d))):
        raise ValueError(f"cubic_idx must be (q, 3) integers in [0, {d}), "
                         f"got {idx.tolist()}")
    if coef.shape != (q,):
        raise ValueError(f"cubic_coef must have shape ({q},), got "
                         f"{coef.shape}")
    one = _Polynomials(np.array([c0], dtype=float), a[None],
                       0.5 * (b + b.T)[None], idx[None], coef[None])

    def grad(x: list) -> list:
        s = np.stack(x, axis=-1)
        g = one.grad(s[None] if s.ndim == 2 else s[None, None])[0]
        return list(g.T) if s.ndim == 2 else g[0].tolist()

    return ScalarField(
        lambda p: float(one.value(p.flat()[None, None])[0, 0]),
        lambda pts: one.value(pts[None])[0], grad_row=grad)


def random_polynomial_field(rng: np.random.Generator, dim: int,
                            cubic_terms: int = 2) -> ScalarField:
    """Random cubic polynomial with coefficients scaled so field values
    stay O(1) on standard-normal points. Keeping products of two such
    fields at O(1) keeps the rounding floor of their finite-difference
    gradients (roughly eps * |f| / step), which the Leibniz sweep of
    :func:`bracket_axiom_suite` differences, below its tolerance."""
    idx = rng.integers(0, dim, size=(1, cubic_terms, 3))
    z = rng.standard_normal((1, cubic_terms + 1 + dim * (dim + 1)))
    return polynomial_field(*(c[0] for c in _polynomials(idx, z)))


BRACKET_SPACES = {
    # bracket name -> the layout of its flat states
    "so3_lie_poisson": Layout(SO3, 0, 0),
    "so3_product": Layout(SO3, 3, 3),
    "se3_product": Layout(SE3, 2, 2),
}


def _flat_bracket(layout: Layout):
    """Vectorized minus bracket on flat states of ``layout``: maps the
    gradients of two fields at a stack of points, as (..., d) arrays,
    and the points to the (...) bracket values. The axiom suite runs
    every instance through it at once; :func:`product_bracket` runs one
    row."""
    kind, n_theta, n_l = layout
    nc = lie.algebra_dim(kind)
    paired = n_theta == n_l and n_l > 0

    def alg_br(w1, w2):
        # the bracket kernel on whole columns; contiguous columns keep
        # its elementwise operations fast
        a, b = (list(np.ascontiguousarray(w.T)) for w in (w1, w2))
        return np.stack(_bracket_list(a, b), axis=1)

    def bk_vals(gf, gk, pts):
        # contiguous rows: einsum's row dots round by operand layout
        lead = pts.shape[:-1]
        gf, gk, pts = (np.ascontiguousarray(x).reshape(-1, x.shape[-1])
                       for x in (gf, gk, pts))
        val = -np.einsum("mi,mi->m", pts[:, :nc],
                         alg_br(gf[:, :nc], gk[:, :nc]))
        if paired:
            tf, lf = gf[:, nc:nc + n_theta], gf[:, nc + n_theta:]
            tk, lk = gk[:, nc:nc + n_theta], gk[:, nc + n_theta:]
            val = val + (np.einsum("mi,mi->m", tf, lk)
                         - np.einsum("mi,mi->m", tk, lf))
        return val.reshape(lead)

    return bk_vals


def bracket_axiom_suite(name: str, n_instances: int = 1000,
                        seed: int = 0) -> dict:
    """Seeded property sweep for one bracket over random cubic
    polynomial fields f, g, k: antisymmetry and Casimir commutation with
    analytic gradients, Leibniz with finite-difference gradients of f,
    g, k and f*g, and Jacobi as the finite difference of the brackets
    built from analytic gradients (:func:`central_difference`, step
    ``FD_STEP``). All instances are drawn first, each quantity in one
    call: the (n_instances, d) points, then the cubic indices of f, g
    and k, then their standard normals. Then each axiom runs over all
    instances as (n_instances, ...) array operations. Returns max
    defects plus the worst instance index (a row of the drawn arrays)
    per axiom.
    """
    if n_instances < 1:
        raise ValueError(f"n_instances must be at least 1, got {n_instances}")
    layout = BRACKET_SPACES[name]
    kind, n_theta, n_l = layout
    n, d = n_instances, lie.algebra_dim(kind) + n_theta + n_l
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    idx = rng.integers(0, d, size=(3, n, 2, 3))
    z = rng.standard_normal((3, n, 3 + d * (d + 1)))
    f, g, k = map(_polynomials, idx, z)
    bk = _flat_bracket(layout)

    def values(rows):
        pts = rows.reshape(n, -1, d)
        vf, vg, vk = (h.value(pts) for h in (f, g, k))
        return np.stack([vf, vg, vk, vf * vg], axis=-1).reshape(-1, 4)

    def brackets(rows):
        pts = rows.reshape(n, -1, d)
        gf, gg, gk = (h.grad(pts) for h in (f, g, k))
        return np.stack([bk(gf, gg, pts), bk(gg, gk, pts), bk(gk, gf, pts)],
                        axis=-1).reshape(-1, 3)

    fd_f, fd_g, fd_k, fd_fg = np.moveaxis(central_difference(values, x), 2, 0)
    d_fg, d_gk, d_kf = np.moveaxis(central_difference(brackets, x), 2, 0)
    vf, vg = (h.value(x[:, None])[:, 0] for h in (f, g))
    gf, gg, gk = (h.grad(x[:, None])[:, 0] for h in (f, g, k))
    defects = {
        "antisymmetry": bk(gf, gk, x) + bk(gk, gf, x),
        "leibniz": bk(fd_fg, fd_k, x) - (vf * bk(fd_g, fd_k, x)
                                         + vg * bk(fd_f, fd_k, x)),
        "jacobi": bk(d_fg, gk, x) + bk(d_gk, gf, x) + bk(d_kf, gg, x),
        "casimir": np.max([np.abs(bk(_gradient_rows(c, x), gk, x))
                           for _, c in casimir_fields(kind)], axis=0),
    }
    report = {"bracket": name, "instances": n_instances, "seed": seed}
    for axiom, v in defects.items():
        # first instance at the maximum (a NaN counts); -1 if all are 0
        report[f"max_{axiom}"] = top = float(np.max(np.abs(v)))
        report[f"worst_{axiom}_sample"] = (
            -1 if top == 0.0 else int(np.argmax(np.abs(v))))
    return report


AXIOM_BOUNDS = {"max_antisymmetry": 1e-12, "max_leibniz": 1e-8,
                "max_jacobi": 2e-5, "max_casimir": 1e-8}


def axiom_suite_passes(report: dict) -> bool:
    return all(report[key] <= bound for key, bound in AXIOM_BOUNDS.items())
