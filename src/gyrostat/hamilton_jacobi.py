"""One-form sections of the phase bundle and Hamilton-Jacobi residuals.

A section assigns momenta to configurations: value(q) is its fiber row
at q, the flat (d + k,) body covector components then the k rotor
momenta, read through the one check :func:`fiber`. Everything
differential here is computed in the
left-trivialized frame: a base direction is a flat (d + k,) array of
algebra components then angle rates, the row (xi, dtheta) stands for
(g exp(xi), theta + dtheta), and component derivatives are central
finite differences
(:func:`gyrostat.poisson.central_difference`, step ``FD_STEP``) of the
section's body components in these exponential coordinates centred at
the base point. Closedness, the canonical two-form, and the residuals
are all stated in that trivialization, so a section with constant body
components is closed for these evaluators by construction.

:func:`section_residuals` reads three residuals of a sample from one
evaluation of the full dynamical field, in a full-space and a reduced
flavor (pass ``mu`` for the reduced one):

* ``x_gamma``: the base projection of the dynamical field along the
  section, the vector field a solution would steer the base by.
* ``relatedness``: how far the section fails to intertwine the base
  field with the phase-space field.
* ``hj_components``: the Hamilton-Jacobi left-hand side itself;
  reduced, it is the controlled reduced field at the section's image,
  matching the componentwise equation assemblies in
  :mod:`gyrostat.systems` up to their inertia row scales.

``theorem_equivalence_probe`` sets the latter two side by side: they
must vanish together or stay apart together, never disagree. It runs in
passes over a :class:`ConfigurationStack`, ``lie.CHUNK`` samples at a
time: the samplers draw every sample's raw numbers in RNG order and then
exponentiate them a block at a time; the gate stacks a block's frame
partials into one array; the probe reads every fiber row once into an
(N, d + k) array, checks a block's membership with one coadjoint call,
and takes all three columns from one field pass over a block. Per
sample there remain a view and the section and field calls.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable, Sequence

import numpy as np

from . import lie
from .controlled import RCHSystem
from .lie import GroupElement
from .poisson import FD_STEP, Layout, _vec, central_difference, point_like
from .reduction import full_dynamical_field

GATE_TOL = 1e-5
MEMBERSHIP_TOL = 1e-8
FAMILIES = ("exact_dW", "constant_body", "custom")


class GateRejection(ValueError):
    """A section failed the closedness prerequisite of a probe;
    ``closedness_defect`` is the gate value it failed with."""

    closedness_defect: float | None = None


class MembershipError(ValueError):
    """A section image left the momentum level set it was declared on.
    Raised by :func:`theorem_equivalence_probe`, it carries the gate
    value the section passed as ``closedness_defect``."""

    closedness_defect: float | None = None


@dataclass(frozen=True)
class Configuration:
    """Base point: group element plus rotor angles."""

    g: GroupElement
    theta: np.ndarray

    def __post_init__(self):
        theta = _vec(self.theta, "theta")
        if not np.all(np.isfinite(theta)):
            raise ValueError("rotor angles must be finite")
        object.__setattr__(self, "theta", theta)

    @property
    def kind(self) -> str:
        return self.g.kind

    @property
    def n_theta(self) -> int:
        return self.theta.size


def configuration(g: GroupElement, theta=()) -> Configuration:
    return Configuration(g, theta)


def random_configuration(rng: np.random.Generator, kind: str,
                         n_theta: int = 0,
                         scale: float = 1.0) -> Configuration:
    return Configuration(lie.random_group(rng, kind, scale),
                         scale * rng.standard_normal(n_theta))


def isotropy_sampleable(mu) -> bool:
    """Whether :func:`isotropy_configurations` can sample the flat
    momentum mu: any so(3)* value, and on se(3)* pi parallel to gamma
    (or pi = 0) with gamma nonzero, |pi x gamma| <= 1e-12 max(1, |gamma|)."""
    mu, kind = lie._flat_algebra(mu)
    if kind == lie.SO3:
        return True
    norm = float(np.linalg.norm(mu[3:]))
    return not (norm == 0.0 or np.linalg.norm(np.cross(mu[:3], mu[3:]))
                > 1e-12 * max(1.0, norm))


@dataclass(frozen=True)
class ConfigurationStack:
    """n configurations stacked: a :class:`lie.GroupPath` of their group
    parts and an (n, k) array of their rotor angles, each checked once.
    Indexing, iteration and :meth:`views` give one-sample
    :class:`Configuration` views, whose group elements run no second
    rotation check."""

    g: lie.GroupPath
    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        n = self.g.rot.shape[0]
        if theta.ndim != 2 or theta.shape[0] != n:
            raise ValueError(f"theta must be an ({n}, k) array, got shape "
                             f"{theta.shape}")
        if not np.isfinite(theta).all():
            raise ValueError("rotor angles must be finite")
        object.__setattr__(self, "theta", theta)

    def __len__(self) -> int:
        return self.theta.shape[0]

    def __getitem__(self, i: int) -> Configuration:
        # row i passed the stack's checks, so the view skips them; a
        # slice would give one Configuration of stacked rows, so only
        # integer indices are taken
        i = operator.index(i)
        q = object.__new__(Configuration)
        object.__setattr__(q, "g", self.g.element(i))
        object.__setattr__(q, "theta", self.theta[i])
        return q

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def views(self, rows: slice) -> list:
        """The views of a slice of the stack's rows, as a list."""
        return list(map(self.__getitem__, range(len(self))[rows]))


def _as_stack(samples) -> ConfigurationStack:
    """samples as a :class:`ConfigurationStack`, a sequence stacked once."""
    if isinstance(samples, ConfigurationStack):
        return samples
    if len({(q.kind, q.n_theta) for q in samples}) != 1:
        raise ValueError("probe needs sample configurations, all of one "
                         "group kind and angle count")
    trans = None if samples[0].kind == lie.SO3 else \
        [q.g.trans for q in samples]
    return ConfigurationStack(lie.GroupPath(
        samples[0].kind, [q.g.rot for q in samples], trans),
        [q.theta for q in samples])


def _stack(kind: str, n: int, rotor_count: int, width: int,
           draw: Callable[[], tuple],
           group: Callable[[np.ndarray], tuple]) -> ConfigurationStack:
    """n samples drawn one at a time, so the RNG order is the per-sample
    one: draw() returns a sample's width raw numbers and its angles,
    written into preallocated arrays; then group maps each block of
    lie.CHUNK raw rows to its rotations and translations (None on
    SO(3))."""
    if n < 1:
        raise ValueError("need at least one sample configuration")
    raw, theta = np.empty((n, width)), np.empty((n, rotor_count))
    for i in range(n):
        raw[i], theta[i] = draw()
    rot = np.empty((n, 3, 3))
    trans = None if kind == lie.SO3 else np.empty((n, 3))
    for lo in range(0, n, lie.CHUNK):
        b = slice(lo, lo + lie.CHUNK)
        rot[b], t = group(raw[b])
        if trans is not None:
            trans[b] = t
    return ConfigurationStack(lie.GroupPath(kind, rot, trans), theta)


def random_configurations(rng: np.random.Generator, kind: str, n: int,
                          rotor_count: int,
                          angles: Callable[[], np.ndarray]
                          ) -> ConfigurationStack:
    """n configurations over the whole configuration space, each drawn as
    :func:`lie.random_group` draws its group part, then angles()."""

    def draw():
        return lie.random_algebra(rng, kind), angles()

    return _stack(kind, n, rotor_count, lie.algebra_dim(kind), draw,
                  lie.flat_exp)


def isotropy_configurations(rng: np.random.Generator, mu, n: int,
                            rotor_count: int,
                            theta_scale: float = 1.0) -> ConfigurationStack:
    """n configurations, stacked, whose group part fixes the flat spatial
    momentum mu under the coadjoint action, so constant-body sections at
    mu sit exactly on the mu level set there.

    Supports any so(3)* value and the aligned se(3)* values (pi parallel
    to gamma, including pi = 0); a generic se(3)* momentum has a
    stabilizer this sampler does not parameterize. Each sample draws its
    angle about the axis, then on se(3)* its slide along the axis, then
    its rotor angles.
    """

    def angles():
        return theta_scale * rng.standard_normal(rotor_count)

    mu, kind = lie._flat_algebra(mu)
    if kind == lie.SO3:
        norm = float(np.linalg.norm(mu))
        if norm == 0.0:
            return random_configurations(rng, lie.SO3, n, rotor_count,
                                         angles)
        return _stack(lie.SO3, n, rotor_count, 1,
                      lambda: (rng.uniform(-np.pi, np.pi), angles()),
                      lambda angle: lie.flat_exp(angle * mu / norm))
    if not isotropy_sampleable(mu):
        raise ValueError("isotropy sampling needs pi parallel to gamma "
                         "(or pi = 0) with gamma nonzero")
    axis = mu[3:] / np.linalg.norm(mu[3:])

    def slide_draw():
        return (rng.uniform(-np.pi, np.pi), rng.standard_normal()), angles()

    def slide_group(raw):
        # exp(angle axis, 0) composed with exp(0, slide axis): the second
        # factor's rotation is the identity and the first one's
        # translation zero, so the product is (R, R slide axis)
        rot = lie.flat_exp(raw[:, :1] * axis)[0]
        return rot, (rot @ (raw[:, 1:] * axis)[..., None])[..., 0]

    return _stack(lie.SE3, n, rotor_count, 2, slide_draw, slide_group)


@dataclass(frozen=True)
class OneFormSection:
    """Assignment of momenta over configurations.

    value(q) returns the fiber row at q: a flat (d + k,) array of the
    body covector components followed by the k rotor momenta, checked
    by :func:`fiber`. jacobian, when given, maps (q, flat base
    direction) to the derivative of that row along the direction and
    replaces finite differences.
    """

    value: Callable[[Configuration], np.ndarray]
    kind: str
    rotor_count: int
    jacobian: Callable | None = None
    family: str = "custom"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown section family {self.family!r}")
        if self.kind not in (lie.SO3, lie.SE3):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.rotor_count < 0:
            raise ValueError("rotor_count must be non-negative")


def _check_base(gamma: OneFormSection, kind: str, n_theta: int) -> None:
    if (kind, n_theta) != (gamma.kind, gamma.rotor_count):
        raise ValueError(f"configuration ({kind}, {n_theta} angles) is "
                         f"not on the section's base ({gamma.kind}, "
                         f"{gamma.rotor_count} angles)")


def _check_rows(rows: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    """rows (one fiber row or a stack) checked to be finite, of shape."""
    if rows.shape != shape:
        raise ValueError(f"{what} has shape {rows.shape[len(shape) - 1:]}, "
                         f"expected a ({shape[-1]},) fiber row")
    if not np.isfinite(rows).all():
        raise ValueError(f"{what} is not finite")
    return rows


def fiber(gamma: OneFormSection, q: Configuration) -> np.ndarray:
    """The fiber row of gamma at q, checked: q must lie on the section's
    base (its group kind and angle count) and the row must be a finite
    (d + k,) array."""
    _check_base(gamma, q.kind, q.n_theta)
    return _check_rows(np.asarray(gamma.value(q), dtype=float),
                       (lie.algebra_dim(gamma.kind) + gamma.rotor_count,),
                       "section value")


def _exp_chart(q: Configuration, fn: Callable[[Configuration], object]):
    """fn in exponential coordinates centred at q, batched for
    central_difference: row (xi, dtheta) of the argument stands for the
    configuration (g exp(xi), theta + dtheta)."""
    d = lie.algebra_dim(q.kind)
    return lambda pts: np.array([
        fn(Configuration(lie.compose(q.g, GroupElement(
            q.kind, *lie.flat_exp(row[:d]))), q.theta + row[d:]))
        for row in pts])


def fiber_derivative(gamma: OneFormSection, q: Configuration,
                     v: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Derivative of the fiber row along the flat v, checked as
    :func:`fiber` checks a row."""
    v = np.asarray(v, dtype=float)
    dim = lie.algebra_dim(gamma.kind) + gamma.rotor_count
    if v.shape != (dim,):
        raise ValueError(f"expected a {dim}-component base direction")
    if gamma.jacobian is not None:
        return _fiber_derivatives(gamma, [(q, v)])[0]
    speed = float(np.linalg.norm(v))
    if speed == 0.0:
        return np.zeros(dim)
    unit = v / speed
    chart = _exp_chart(q, partial(fiber, gamma))
    return speed * central_difference(lambda s: chart(s * unit),
                                      np.zeros((1, 1)), step)[0, 0]


def _fiber_derivatives(gamma: OneFormSection, pairs) -> np.ndarray:
    """:func:`fiber_derivative` at each (q, v) of pairs, stacked and
    checked once; the directions v must already have the right shape."""
    derivative = gamma.jacobian if gamma.jacobian is not None else \
        partial(fiber_derivative, gamma)
    rows = np.array([derivative(q, v) for q, v in pairs], dtype=float)
    return _check_rows(rows, (len(rows), lie.algebra_dim(gamma.kind)
                              + gamma.rotor_count), "section jacobian")


# ---------------------------------------------------------------------------
# section families
# ---------------------------------------------------------------------------

def constant_body_section(nu0, l0=()) -> OneFormSection:
    """Section with fixed flat body momentum nu0 and rotor momenta l0."""
    nu0, kind = lie._flat_algebra(nu0)
    l0 = _vec(l0, "l0")
    row = np.concatenate([nu0, l0])
    return OneFormSection(lambda q: row.copy(), kind, l0.size,
                          jacobian=lambda q, v: np.zeros(row.size),
                          family="constant_body")


def zero_section(kind: str, rotor_count: int = 0) -> OneFormSection:
    return constant_body_section(np.zeros(lie.algebra_dim(kind)),
                                 np.zeros(rotor_count))


def exact_section(kind: str, rotor_count: int,
                  grad_w: Callable[[Configuration], np.ndarray],
                  jacobian: Callable | None = None) -> OneFormSection:
    """Differential of a scalar on the base: grad_w(q) is the fiber row,
    the stacked frame components (body derivatives, then angle
    partials)."""
    return OneFormSection(grad_w, kind, rotor_count, jacobian=jacobian,
                          family="exact_dW")


def rotor_quadratic_section(kind: str = lie.SO3,
                            offset=(3.0, 0.0, 0.0)) -> OneFormSection:
    """Exact section of the scalar |theta|^2 / 2 + offset . theta: zero
    body momentum and l = theta + offset."""
    offset = np.asarray(offset, dtype=float)
    k = offset.size
    d = lie.algebra_dim(kind)

    def grad_w(q: Configuration) -> np.ndarray:
        return np.concatenate([np.zeros(d), q.theta + offset])

    def jacobian(q: Configuration, v: np.ndarray) -> np.ndarray:
        return np.concatenate([np.zeros(d), v[d:]])

    return exact_section(kind, k, grad_w, jacobian=jacobian)


def affine_rotor_section(nu0, l0, coupling) -> OneFormSection:
    """Constant flat body momentum nu0 with rotor momenta affine in the
    angles: l(theta) = l0 + C theta.

    In the trivialized frame the only nonzero derivative block is C, so
    the section is closed exactly when C is symmetric; an asymmetric C
    plants a known closedness defect of max |C - C^T|.
    """
    l0 = _vec(l0, "l0")
    k = l0.size
    coupling = np.asarray(coupling, dtype=float).reshape(k, k)
    nu0, kind = lie._flat_algebra(nu0)
    d = nu0.size

    def value(q: Configuration) -> np.ndarray:
        return np.concatenate([nu0, l0 + coupling @ q.theta])

    def jacobian(q: Configuration, v: np.ndarray) -> np.ndarray:
        return np.concatenate([np.zeros(d), coupling @ v[d:]])

    return OneFormSection(value, kind, k, jacobian=jacobian,
                          family="custom")


def shear_section(kind: str, rotor_count: int) -> OneFormSection:
    """Deliberately non-closed section: l_2 = theta_1, so its exterior
    derivative carries a unit d theta_1 ^ d theta_2 coefficient. A
    negative control for the closedness test."""
    if rotor_count < 2:
        raise ValueError("shear_section needs at least two rotor slots")
    d = lie.algebra_dim(kind)

    def value(q: Configuration) -> np.ndarray:
        row = np.zeros(d + rotor_count)
        row[d + 1] = q.theta[0]
        return row

    return OneFormSection(value, kind, rotor_count, family="custom")


def spatial_section(mu, rotor_count: int = 0, l0=()) -> OneFormSection:
    """Section with constant flat spatial momentum mu; its body
    components rotate with the configuration, so it is not closed in the
    body frame and probe gates reject it for nonzero mu."""
    mu, kind = lie._flat_algebra(mu)
    l0 = np.atleast_1d(np.asarray(l0, dtype=float)) if np.size(l0) \
        else np.zeros(rotor_count)

    def value(q: Configuration) -> np.ndarray:
        return np.concatenate([lie.Ad_star(lie.inverse(q.g), mu), l0])

    return OneFormSection(value, kind, rotor_count, family="custom")


# ---------------------------------------------------------------------------
# closedness and the pullback identity
# ---------------------------------------------------------------------------

def _default_samples(gamma: OneFormSection, n_samples: int,
                     seed: int) -> ConfigurationStack:
    """n_samples configurations in :func:`random_configuration`'s order."""
    rng = np.random.default_rng(seed)
    k = gamma.rotor_count
    return random_configurations(rng, gamma.kind, n_samples, k,
                                 lambda: rng.standard_normal(k))


def _frame_partials(gamma: OneFormSection, samples, n_samples: int,
                    seed: int):
    """Per lie.CHUNK block of samples (n_samples default ones if None),
    whose base is checked once, its views and (b, m, m) partials D:
    D[j, i] is the derivative of the fiber row at sample j along row i
    of the identity, so D[j] - D[j]^T is d gamma on the frame pairs."""
    stack = _default_samples(gamma, n_samples, seed) if samples is None \
        else _as_stack(samples)
    _check_base(gamma, stack.g.kind, stack.theta.shape[1])
    frame = np.eye(lie.algebra_dim(gamma.kind) + gamma.rotor_count)
    for lo in range(0, len(stack), lie.CHUNK):
        views = stack.views(slice(lo, lo + lie.CHUNK))
        yield views, _fiber_derivatives(gamma, product(views, frame)
                                        ).reshape(len(views), *frame.shape)


def closedness_defect(gamma: OneFormSection, n_samples: int = 20,
                      seed: int = 0, samples=None) -> float:
    """Max |d gamma(e_i, e_j)| over sampled configurations and frame
    pairs. Exact sections stay at finite-difference noise; the shear
    section reports its unit coefficient. Samples off the section's base
    raise as :func:`fiber` does."""
    worst = 0.0
    for _, partials in _frame_partials(gamma, samples, n_samples, seed):
        worst = max(worst, float(np.max(np.abs(partials - partials.mT))))
    return worst


def pullback_identity_defect(gamma: OneFormSection, n_samples: int = 20,
                             seed: int = 0, samples=None) -> float:
    """Max defect of (pullback of the canonical two-form) = -(d gamma)
    on random unit tangent pairs.

    The left side pushes the pair through the section's tangent map and
    evaluates the two-form; the right side expands d gamma bilinearly
    from frame partials. The two sides difference the section at
    different points, so their agreement is a genuine two-path check.
    Samples off the section's base raise as :func:`fiber` does.
    """
    rng = np.random.default_rng(seed + 1)
    d = lie.algebra_dim(gamma.kind)
    worst = 0.0
    for views, partials in _frame_partials(gamma, samples, n_samples, seed):
        for q, curl in zip(views, partials - partials.mT):
            v, w = rng.standard_normal((2, len(curl)))
            v, w = v / np.linalg.norm(v), w / np.linalg.norm(w)
            dv, dw = _fiber_derivatives(gamma, [(q, v), (q, w)])
            # the trivialization's canonical two-form on the pushed pair
            lhs = (float(dw[:d] @ v[:d]) - float(dv[:d] @ w[:d])
                   + float(dw[d:] @ v[d:]) - float(dv[d:] @ w[d:]))
            worst = max(worst, abs(lhs + float(v @ curl @ w)))
    return worst


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectionResiduals:
    """The residuals of one section sample; x_gamma is a flat base
    direction."""

    relatedness: float
    hj_components: np.ndarray
    x_gamma: np.ndarray


def section_residuals(sys: RCHSystem, gamma: OneFormSection,
                      q: Configuration, mu=None) -> SectionResiduals:
    """The residuals of gamma at q from one full dynamical field
    evaluation: full-space flavor when mu is None, else reduced-space
    flavor, with a :class:`MembershipError` off the mu level set. This is
    the one-sample pass of :func:`theorem_equivalence_probe`, bit for bit.

    Reduced, hj_components is the controlled reduced field at the
    section's image, which matches the equation assemblies of
    :mod:`gyrostat.systems` up to their row scales. Full, it is minus the
    base differential of the hamiltonian restricted to the section plus
    the fiber components of force and control.
    """
    row = fiber(gamma, q)
    if mu is not None:
        _check_level(q.g.rot, q.g.trans, row, mu)
    relatedness, hj_components, x = _residuals(sys, gamma, [q],
                                               q.theta[None], row[None], mu)
    return SectionResiduals(float(relatedness[0]), hj_components[0], x[0])


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # np.vecdot rounds each row as np.linalg.norm's 1-d dot does
    return np.sqrt(np.vecdot(rows, rows))


def _check_level(rot, trans, rows, mu, gate: float | None = None) -> None:
    """Raise a :class:`MembershipError` carrying gate at the first of the
    fiber rows (one or a stack) whose body momentum p is off the mu level
    at its group part: |Ad*_{g^-1} p - mu| > MEMBERSHIP_TOL."""
    defect = _row_norms(lie.coadjoint(rot, trans, rows) - mu).reshape(-1)
    bad = np.flatnonzero(defect > MEMBERSHIP_TOL)
    if bad.size:
        exc = MembershipError("section image is off the momentum level "
                              f"set (defect {defect[bad[0]]:.3e})")
        exc.closedness_defect = gate
        raise exc


def _residuals(sys: RCHSystem, gamma: OneFormSection, views: list,
               theta: np.ndarray, rows: np.ndarray, mu) -> tuple:
    """The residuals of gamma at the b configurations views, from their
    (b, k) angles and checked (b, d + k) fiber rows: the relatedness
    column and the (b, .) hj components and X_gamma."""
    dim = lie.algebra_dim(gamma.kind)
    layout = Layout(gamma.kind, gamma.rotor_count, gamma.rotor_count)
    angles = slice(dim, dim + layout.n_theta)
    # the flat reduced states: body momenta, angles, rotor momenta
    full = full_dynamical_field(sys, layout, np.concatenate(
        [rows[:, :dim], theta, rows[:, dim:]], axis=1))
    x = np.concatenate([full.xi, full.body[:, angles]], axis=1)
    d_fiber = _fiber_derivatives(gamma, zip(views, x))
    if mu is not None:
        pushed = np.concatenate([d_fiber[:, :dim], x[:, dim:],
                                 d_fiber[:, dim:]], axis=1)
        return _row_norms(pushed - full.body), full.body, x

    def h_on_section(cfg: Configuration) -> float:
        row = fiber(gamma, cfg)
        return sys.hamiltonian.eval(point_like(layout, np.concatenate(
            [row[:dim], cfg.theta, row[dim:]])))

    d_h = np.array([central_difference(_exp_chart(q, h_on_section),
                                       np.zeros((1, x.shape[1])))[0]
                    for q in views])
    return (_row_norms(d_fiber - np.delete(full.body, angles, axis=1)),
            -d_h + np.delete(full.lift, angles, axis=1), x)


# ---------------------------------------------------------------------------
# the equivalence probe
# ---------------------------------------------------------------------------

PASS_TOL = 1e-6
FAIL_FLOOR = 1e-3


@dataclass(frozen=True)
class ProbeResult:
    """A probe's per-sample columns, each an (N,) float64 array: the
    relatedness residual, the norm of the HJ components and |X_gamma|;
    the N sample labels; and the gate value the section passed."""

    relatedness: np.ndarray
    hj: np.ndarray
    x_norm: np.ndarray
    labels: tuple
    gate_defect: float

    def __post_init__(self):
        values = np.concatenate([self.relatedness, self.hj, self.x_norm,
                                 [self.gate_defect]])
        if not (np.isfinite(values).all() and (values >= 0).all()):
            raise ValueError("residuals must be non-negative and finite")

    @property
    def verdict(self) -> str:
        labels = set(self.labels)
        if labels == {"PASS"}:
            return "PASS"
        if labels == {"FAIL"}:
            return "FAIL"
        if "INCONSISTENT" in labels:
            return "INCONSISTENT"
        return "MIXED"


def _classify(relatedness: float, hj: float) -> str:
    if relatedness <= PASS_TOL and hj <= PASS_TOL:
        return "PASS"
    if relatedness >= FAIL_FLOOR and hj >= FAIL_FLOOR:
        return "FAIL"
    return "INCONSISTENT"


def theorem_equivalence_probe(sys: RCHSystem, gamma: OneFormSection,
                              samples: Sequence[Configuration],
                              mu=None) -> ProbeResult:
    """Evaluate the two residuals side by side on each sample.

    The two residual notions are equivalent in exact arithmetic, so
    every sample must land PASS (both below 1e-6) or FAIL (both above
    1e-3); a sample with one small and one large residual is reported
    INCONSISTENT. Sections failing the closedness prerequisite are
    rejected with :class:`GateRejection`, and the first off-level sample
    with :class:`MembershipError` before any residual is computed. Either
    error carries the gate value as ``closedness_defect``. A plain
    sequence of samples is stacked once.
    """
    samples = _as_stack(samples)
    gate = closedness_defect(gamma, samples=samples)
    if gate > GATE_TOL:
        exc = GateRejection("section fails the closedness gate "
                            f"(defect {gate:.3e} > {GATE_TOL:g})")
        exc.closedness_defect = gate
        raise exc
    n, g = len(samples), samples.g
    rows = np.empty((n, lie.algebra_dim(gamma.kind) + gamma.rotor_count))
    for i, q in enumerate(samples):
        rows[i] = fiber(gamma, q)
    blocks = [slice(lo, lo + lie.CHUNK) for lo in range(0, n, lie.CHUNK)]
    if mu is not None:
        for b in blocks:
            _check_level(g.rot[b], None if g.trans is None else g.trans[b],
                         rows[b], mu, gate)
    relatedness, hj, x_norm = np.empty(n), np.empty(n), np.empty(n)
    for b in blocks:
        relatedness[b], h, x = _residuals(sys, gamma, samples.views(b),
                                          samples.theta[b], rows[b], mu)
        hj[b], x_norm[b] = _row_norms(h), _row_norms(x)
    labels = map(_classify, relatedness, hj)
    return ProbeResult(relatedness, hj, x_norm, tuple(labels), gate)
