"""One-form sections of the phase bundle and Hamilton-Jacobi residuals.

A section assigns momenta to configurations: value(q) is a full phase
point over q. Everything differential here is computed in the
left-trivialized frame: a base direction is an (algebra vector, angle
velocity) pair, a base move follows (g exp(t xi), theta + t dtheta), and
component derivatives are central finite differences
(:func:`gyrostat.poisson.central_difference`, step ``FD_STEP``) of the
section's body components in these exponential coordinates centred at
the base point. Closedness, the canonical two-form, and the residuals
are all stated in that trivialization, so a section with constant body
components is closed for these evaluators by construction.

Three residual notions are provided, each in a full-space and a reduced
flavor (pass ``mu`` for the reduced one):

* ``x_gamma``: the base projection of the dynamical field along the
  section, the vector field a solution would steer the base by.
* ``relatedness_residual``: how far the section fails to intertwine the
  base field with the phase-space field.
* ``hj_residual``: the Hamilton-Jacobi left-hand side itself; reduced,
  it is the norm of the controlled reduced field at the section's
  image, matching the componentwise equation assemblies in
  :mod:`gyrostat.systems` up to their inertia row scales.

All three are read from one evaluation of the full dynamical field per
sample. ``theorem_equivalence_probe`` sets the latter two side by side:
they must vanish together or stay apart together, never disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import lie
from .controlled import RCHSystem
from .lie import AlgebraVector, GroupElement
from .poisson import FD_STEP, _vec, central_difference
from .reduction import (MEMBERSHIP_TOL, PhasePoint, _membership_defect,
                        as_reduced, full_dynamical_field)

GATE_TOL = 1e-5
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
    """Whether :func:`isotropy_configurations` can sample mu: any so(3)*
    value, and on se(3)* pi parallel to gamma (or pi = 0) with gamma
    nonzero, |pi x gamma| <= 1e-12 max(1, |gamma|)."""
    if mu.kind == lie.SO3:
        return True
    norm = float(np.linalg.norm(mu.gamma))
    return not (norm == 0.0 or np.linalg.norm(np.cross(mu.pi, mu.gamma))
                > 1e-12 * max(1.0, norm))


@dataclass(frozen=True)
class ConfigurationStack:
    """n configurations stacked: a :class:`lie.GroupPath` of their group
    parts and an (n, k) array of their rotor angles, each checked once.
    Indexing and iteration give one-sample :class:`Configuration` views,
    whose group elements run no second rotation check."""

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
        # row i passed the stack's checks, so the view skips them
        q = object.__new__(Configuration)
        object.__setattr__(q, "g", self.g.element(i))
        object.__setattr__(q, "theta", self.theta[i])
        return q

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _stack(kind: str, n: int, rotor_count: int,
           draw: Callable[[], tuple]) -> ConfigurationStack:
    """n samples drawn one at a time, so the RNG order is the per-sample
    one: draw() returns a sample's rotation, translation (None on SO(3))
    and angles, which are written into preallocated stacks."""
    if n < 1:
        raise ValueError("need at least one sample configuration")
    rot = np.empty((n, 3, 3))
    trans = None if kind == lie.SO3 else np.empty((n, 3))
    theta = np.empty((n, rotor_count))
    for i in range(n):
        rot[i], t, theta[i] = draw()
        if trans is not None:
            trans[i] = t
    return ConfigurationStack(lie.GroupPath(kind, rot, trans), theta)


def random_configurations(rng: np.random.Generator, kind: str, n: int,
                          rotor_count: int,
                          angles: Callable[[], np.ndarray]
                          ) -> ConfigurationStack:
    """n configurations over the whole configuration space, each drawn as
    :func:`lie.random_group` draws its group part, then angles()."""

    def draw():
        return *lie.flat_exp(lie.random_algebra(rng, kind).flat()), angles()

    return _stack(kind, n, rotor_count, draw)


def isotropy_configurations(rng: np.random.Generator, mu, n: int,
                            rotor_count: int,
                            theta_scale: float = 1.0) -> ConfigurationStack:
    """n configurations, stacked, whose group part fixes the spatial
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

    if mu.kind == lie.SO3:
        norm = float(np.linalg.norm(mu.pi))
        if norm == 0.0:
            return random_configurations(rng, lie.SO3, n, rotor_count,
                                         angles)

        def draw():
            angle = rng.uniform(-np.pi, np.pi)
            return lie.flat_exp(angle * mu.pi / norm)[0], None, angles()

        return _stack(lie.SO3, n, rotor_count, draw)
    if not isotropy_sampleable(mu):
        raise ValueError("isotropy sampling needs pi parallel to gamma "
                         "(or pi = 0) with gamma nonzero")
    axis = mu.gamma / np.linalg.norm(mu.gamma)

    def slide_draw():
        # exp(angle axis, 0) composed with exp(0, slide axis): the second
        # factor's rotation is the identity and the first one's
        # translation zero, so the product is (R, R slide axis)
        rot = lie.flat_exp(rng.uniform(-np.pi, np.pi) * axis)[0]
        return rot, rot @ (rng.standard_normal() * axis), angles()

    return _stack(lie.SE3, n, rotor_count, slide_draw)


@dataclass(frozen=True)
class BaseTangent:
    """Tangent to the configuration space in the body frame."""

    xi: AlgebraVector
    d_theta: np.ndarray

    def flat(self) -> np.ndarray:
        return np.concatenate([self.xi.flat(), self.d_theta])

    def norm(self) -> float:
        return float(np.linalg.norm(self.flat()))


def base_tangent_from_flat(kind: str, n_theta: int, arr) -> BaseTangent:
    arr = np.asarray(arr, dtype=float)
    d = lie.algebra_dim(kind)
    if arr.shape != (d + n_theta,):
        raise ValueError(f"expected a {d + n_theta}-component base tangent")
    return BaseTangent(lie.algebra_from_flat(kind, arr[:d]),
                       arr[d:].copy())


def base_frame(kind: str, n_theta: int) -> list:
    dim = lie.algebra_dim(kind) + n_theta
    return [base_tangent_from_flat(kind, n_theta, row)
            for row in np.eye(dim)]


def move(q: Configuration, v: BaseTangent, t: float) -> Configuration:
    """Flow q for time t along the frozen-body-components direction v."""
    xi = lie.algebra_from_flat(q.kind, t * v.xi.flat())
    return Configuration(lie.compose(q.g, lie.exp_group(xi)),
                         q.theta + t * v.d_theta)


@dataclass(frozen=True)
class OneFormSection:
    """Assignment of momenta over configurations.

    value(q) must cover q exactly (same group element and angles).
    jacobian, when given, maps (q, base tangent) to the derivative of
    the stacked fiber components (momentum flat followed by l) along
    that direction and replaces finite differences.
    """

    value: Callable[[Configuration], PhasePoint]
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


def section_point(gamma: OneFormSection, q: Configuration) -> PhasePoint:
    pt = gamma.value(q)
    if pt.kind != q.kind or not (np.array_equal(pt.g.rot, q.g.rot)
                                 and (q.kind == lie.SO3
                                      or np.array_equal(pt.g.trans,
                                                        q.g.trans))
                                 and np.array_equal(pt.theta, q.theta)):
        raise ValueError("section value does not cover its configuration")
    return pt


def fiber_flat(gamma: OneFormSection, q: Configuration) -> np.ndarray:
    pt = section_point(gamma, q)
    return np.concatenate([pt.p.flat(), pt.l])


def _exp_chart(q: Configuration, fn: Callable[[Configuration], object]):
    """fn in exponential coordinates centred at q, batched for
    central_difference: row (xi, dtheta) of the argument stands for the
    configuration (g exp(xi), theta + dtheta)."""
    return lambda pts: np.array([
        fn(move(q, base_tangent_from_flat(q.kind, q.n_theta, row), 1.0))
        for row in pts])


def fiber_derivative(gamma: OneFormSection, q: Configuration,
                     v: BaseTangent, step: float = FD_STEP) -> np.ndarray:
    """Derivative of the stacked fiber components along v."""
    if gamma.jacobian is not None:
        return np.asarray(gamma.jacobian(q, v), dtype=float)
    speed = v.norm()
    if speed == 0.0:
        return np.zeros(lie.algebra_dim(gamma.kind) + gamma.rotor_count)
    unit = v.flat() / speed
    fiber = _exp_chart(q, partial(fiber_flat, gamma))
    return speed * central_difference(lambda s: fiber(s * unit),
                                      np.zeros((1, 1)), step)[0, 0]


# ---------------------------------------------------------------------------
# section families
# ---------------------------------------------------------------------------

def constant_body_section(nu0, l0=()) -> OneFormSection:
    """Section with fixed body momentum nu0 and rotor momenta l0."""
    l0 = _vec(l0, "l0")
    dim = lie.algebra_dim(nu0.kind) + l0.size

    def value(q: Configuration) -> PhasePoint:
        return PhasePoint(q.g, nu0, q.theta, l0.copy())

    return OneFormSection(value, nu0.kind, l0.size,
                          jacobian=lambda q, v: np.zeros(dim),
                          family="constant_body")


def zero_section(kind: str, rotor_count: int = 0) -> OneFormSection:
    if kind == lie.SO3:
        nu0 = lie.coalgebra(lie.SO3, np.zeros(3))
    else:
        nu0 = lie.coalgebra(lie.SE3, np.zeros(3), np.zeros(3))
    return constant_body_section(nu0, np.zeros(rotor_count))


def exact_section(kind: str, rotor_count: int,
                  grad_w: Callable[[Configuration], np.ndarray],
                  jacobian: Callable | None = None) -> OneFormSection:
    """Differential of a scalar on the base: grad_w(q) returns the
    stacked frame components (body derivatives, then angle partials)."""
    d = lie.algebra_dim(kind)

    def value(q: Configuration) -> PhasePoint:
        comp = np.asarray(grad_w(q), dtype=float)
        if comp.shape != (d + rotor_count,):
            raise ValueError("grad_w returned the wrong number of "
                             "components")
        return PhasePoint(q.g, lie.coalgebra_from_flat(kind, comp[:d]),
                          q.theta, comp[d:])

    return OneFormSection(value, kind, rotor_count, jacobian=jacobian,
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

    def jacobian(q: Configuration, v: BaseTangent) -> np.ndarray:
        return np.concatenate([np.zeros(d), v.d_theta])

    return exact_section(kind, k, grad_w, jacobian=jacobian)


def affine_rotor_section(nu0, l0, coupling) -> OneFormSection:
    """Constant body momentum with rotor momenta affine in the angles:
    l(theta) = l0 + C theta.

    In the trivialized frame the only nonzero derivative block is C, so
    the section is closed exactly when C is symmetric; an asymmetric C
    plants a known closedness defect of max |C - C^T|.
    """
    l0 = _vec(l0, "l0")
    k = l0.size
    coupling = np.asarray(coupling, dtype=float).reshape(k, k)
    d = lie.algebra_dim(nu0.kind)

    def value(q: Configuration) -> PhasePoint:
        return PhasePoint(q.g, nu0, q.theta, l0 + coupling @ q.theta)

    def jacobian(q: Configuration, v: BaseTangent) -> np.ndarray:
        return np.concatenate([np.zeros(d), coupling @ v.d_theta])

    return OneFormSection(value, nu0.kind, k, jacobian=jacobian,
                          family="custom")


def shear_section(kind: str, rotor_count: int) -> OneFormSection:
    """Deliberately non-closed section: l_2 = theta_1, so its exterior
    derivative carries a unit d theta_1 ^ d theta_2 coefficient. A
    negative control for the closedness test."""
    if rotor_count < 2:
        raise ValueError("shear_section needs at least two rotor slots")
    d = lie.algebra_dim(kind)

    def value(q: Configuration) -> PhasePoint:
        l = np.zeros(rotor_count)
        l[1] = q.theta[0]
        return PhasePoint(q.g, lie.coalgebra_from_flat(kind, np.zeros(d)),
                          q.theta, l)

    return OneFormSection(value, kind, rotor_count, family="custom")


def spatial_section(mu, rotor_count: int = 0, l0=()) -> OneFormSection:
    """Section with constant spatial momentum mu; its body components
    rotate with the configuration, so it is not closed in the body
    frame and probe gates reject it for nonzero mu."""
    l0 = np.atleast_1d(np.asarray(l0, dtype=float)) if np.size(l0) \
        else np.zeros(rotor_count)

    def value(q: Configuration) -> PhasePoint:
        return PhasePoint(q.g, lie.Ad_star(lie.inverse(q.g), mu), q.theta,
                          l0.copy())

    return OneFormSection(value, mu.kind, rotor_count, family="custom")


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


def _exterior_derivative(gamma: OneFormSection, q: Configuration,
                         frame: list) -> np.ndarray:
    """Antisymmetric matrix D - D^T of d gamma on the pairs of frame, the
    :func:`base_frame` of gamma, at q: D[i] is the derivative of the
    fiber components along frame[i]."""
    partials = np.stack([fiber_derivative(gamma, q, e) for e in frame])
    return partials - partials.T


def closedness_defect(gamma: OneFormSection, n_samples: int = 20,
                      seed: int = 0, samples=None) -> float:
    """Max |d gamma(e_i, e_j)| over sampled configurations and frame
    pairs. Exact sections stay at finite-difference noise; the shear
    section reports its unit coefficient."""
    configs = samples if samples is not None else \
        _default_samples(gamma, n_samples, seed)
    frame = base_frame(gamma.kind, gamma.rotor_count)
    worst = 0.0
    for q in configs:
        worst = max(worst, float(np.max(np.abs(
            _exterior_derivative(gamma, q, frame)))))
    return worst


def _two_form(dp_v, dp_w, v: BaseTangent, w: BaseTangent,
              dl_v, dl_w) -> float:
    """Canonical two-form of the trivialization on the pushed pair."""
    term = float(dp_w @ v.xi.flat()) - float(dp_v @ w.xi.flat())
    return term + float(dl_w @ v.d_theta) - float(dl_v @ w.d_theta)


def pullback_identity_defect(gamma: OneFormSection, n_samples: int = 20,
                             seed: int = 0, samples=None) -> float:
    """Max defect of (pullback of the canonical two-form) = -(d gamma)
    on random unit tangent pairs.

    The left side pushes the pair through the section's tangent map and
    evaluates the two-form; the right side expands d gamma bilinearly
    from frame partials. The two sides difference the section at
    different points, so their agreement is a genuine two-path check.
    """
    configs = samples if samples is not None else \
        _default_samples(gamma, n_samples, seed)
    rng = np.random.default_rng(seed + 1)
    d = lie.algebra_dim(gamma.kind)
    dim = d + gamma.rotor_count
    frame = base_frame(gamma.kind, gamma.rotor_count)
    worst = 0.0
    for q in configs:
        raw = rng.standard_normal((2, dim))
        v = base_tangent_from_flat(gamma.kind, gamma.rotor_count,
                                   raw[0] / np.linalg.norm(raw[0]))
        w = base_tangent_from_flat(gamma.kind, gamma.rotor_count,
                                   raw[1] / np.linalg.norm(raw[1]))
        dv = fiber_derivative(gamma, q, v)
        dw = fiber_derivative(gamma, q, w)
        lhs = _two_form(dv[:d], dw[:d], v, w, dv[d:], dw[d:])
        dmat = _exterior_derivative(gamma, q, frame)
        rhs = -float(v.flat() @ dmat @ w.flat())
        worst = max(worst, abs(lhs - rhs))
    return worst


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SectionSample:
    """The residuals of one section sample, read from one field evaluation."""

    relatedness: float
    hj_components: np.ndarray
    x: BaseTangent


def _evaluate(sys: RCHSystem, gamma: OneFormSection, q: Configuration,
              mu=None) -> _SectionSample:
    """The section point at q, its level-set check when mu is given, and
    one full dynamical field evaluation there, from which the relatedness
    residual, the HJ components and X_gamma are all read."""
    pt = section_point(gamma, q)
    defect = 0.0 if mu is None else _membership_defect(pt, mu)
    if defect > MEMBERSHIP_TOL:
        raise MembershipError("section image is off the momentum level set "
                              f"(defect {defect:.3e})")
    full = full_dynamical_field(sys, pt)
    x = BaseTangent(full.xi, full.body.d_theta)
    d_fiber = fiber_derivative(gamma, q, x)
    body = full.body.flat()
    dim = lie.algebra_dim(gamma.kind)
    if mu is not None:
        pushed = np.concatenate([d_fiber[:dim], x.d_theta, d_fiber[dim:]])
        return _SectionSample(float(np.linalg.norm(pushed - body)), body, x)
    angles = slice(dim, dim + q.n_theta)
    restricted = _exp_chart(q, lambda cfg: sys.hamiltonian.eval(
        as_reduced(section_point(gamma, cfg))))
    d_h = central_difference(restricted, np.zeros((1, dim + q.n_theta)))[0]
    return _SectionSample(
        float(np.linalg.norm(d_fiber - np.delete(body, angles))),
        -d_h + np.delete(full.lift, angles), x)


def x_gamma(sys: RCHSystem, gamma: OneFormSection,
            q: Configuration) -> BaseTangent:
    """Base projection of the dynamical field evaluated on the section."""
    return _evaluate(sys, gamma, q).x


def relatedness_residual(sys: RCHSystem, gamma: OneFormSection,
                         q: Configuration, mu=None) -> float:
    """How far the section fails to intertwine its base field with the
    phase-space field: full-space flavor when mu is None, reduced-space
    flavor (with level-set membership enforced) otherwise."""
    return _evaluate(sys, gamma, q, mu).relatedness


def hj_residual_components(sys: RCHSystem, gamma: OneFormSection,
                           q: Configuration, mu=None) -> np.ndarray:
    """Componentwise Hamilton-Jacobi left-hand side at the section.

    Reduced flavor: the controlled reduced field at the section's image;
    its entries match the explicit equation assemblies of
    :mod:`gyrostat.systems` up to their constant row scales. Full
    flavor: minus the base differential of (hamiltonian restricted to
    the section) plus the fiber components of force and control.
    """
    return _evaluate(sys, gamma, q, mu).hj_components


def hj_residual(sys: RCHSystem, gamma: OneFormSection, q: Configuration,
                mu=None) -> float:
    return float(np.linalg.norm(hj_residual_components(sys, gamma, q, mu)))


# ---------------------------------------------------------------------------
# the equivalence probe and reporting
# ---------------------------------------------------------------------------

PASS_TOL = 1e-6
FAIL_FLOOR = 1e-3


@dataclass(frozen=True)
class ProbeSample:
    relatedness: float
    hj: float
    x_norm: float
    label: str


@dataclass(frozen=True)
class ProbeResult:
    samples: tuple
    gate_defect: float

    @property
    def verdict(self) -> str:
        labels = {s.label for s in self.samples}
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
    rejected with :class:`GateRejection`. Either error carries the gate
    value as ``closedness_defect``.
    """
    if not samples:
        raise ValueError("probe needs at least one sample configuration")
    gate = closedness_defect(gamma, samples=samples)
    if gate > GATE_TOL:
        exc = GateRejection("section fails the closedness gate "
                            f"(defect {gate:.3e} > {GATE_TOL:g})")
        exc.closedness_defect = gate
        raise exc
    rows = []
    for q in samples:
        try:
            ev = _evaluate(sys, gamma, q, mu)
        except MembershipError as exc:
            exc.closedness_defect = gate
            raise
        h = float(np.linalg.norm(ev.hj_components))
        rows.append(ProbeSample(ev.relatedness, h, ev.x.norm(),
                                _classify(ev.relatedness, h)))
    return ProbeResult(tuple(rows), gate)


@dataclass(frozen=True)
class ResidualReport:
    """Aggregate of the three defect measures over a sample set."""

    closedness_defect: float
    relatedness_residual: float
    hj_residual: float
    sample_count: int
    worst_relatedness_index: int
    worst_hj_index: int

    def __post_init__(self):
        values = (self.closedness_defect, self.relatedness_residual,
                  self.hj_residual)
        if not all(np.isfinite(v) and v >= 0 for v in values):
            raise ValueError("residuals must be non-negative and finite")
        if self.sample_count < 1:
            raise ValueError("report needs at least one sample")


def residual_report(probe: ProbeResult) -> ResidualReport:
    """The probe's gate defect and, for each residual, its largest value
    over the samples with the index where it occurred."""
    rel = [s.relatedness for s in probe.samples]
    hj = [s.hj for s in probe.samples]
    return ResidualReport(probe.gate_defect, max(rel), max(hj),
                          len(probe.samples), int(np.argmax(rel)),
                          int(np.argmax(hj)))
