"""One-form sections of the phase bundle and Hamilton-Jacobi residuals.

Base points come in stacks: a section maps a :class:`ConfigurationStack`
of n samples to their (n, d + k) fiber rows (body covector, then rotor
momenta), read through the one check :func:`fiber`, and one sample is a
one-row stack. Everything differential is in the left-trivialized
frame: a base direction is a flat (d + k,) row of algebra components
then angle rates, (xi, dtheta) stands for (g exp(xi), theta + dtheta), and
derivatives are :func:`gyrostat.poisson.central_difference` quotients
in these exponential coordinates centred at each sample. Closedness,
the canonical two-form, and the residuals are all stated in that
trivialization, so a section with constant body components is closed
for these evaluators by construction.

:func:`section_residuals` reads three residuals per sample of a stack,
from one evaluation of the full dynamical field per block, in a
full-space and a reduced flavor (pass ``mu`` for the reduced one):

* ``x_gamma``: the base projection of the dynamical field along the
  section, the vector field a solution would steer the base by.
* ``relatedness``: how far the section fails to intertwine the base
  field with the phase-space field.
* ``hj_components``: the Hamilton-Jacobi left-hand side itself;
  reduced, it is the controlled reduced field at the section's image,
  matching the componentwise equation assemblies in
  :mod:`gyrostat.systems` up to their inertia row scales.

``theorem_equivalence_probe`` sets the latter two side by side: they
must vanish together or stay apart together, never disagree. Per block
of ``lie.CHUNK`` samples it makes the gate's derivative passes (one per
frame direction); then it reads all N fiber rows in one section call
and per block makes one membership check, one field pass and one
derivative pass; the field pass evaluates the field once on the columns
of the block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import lie
from .controlled import RCHSystem
from .poisson import Layout, _row_dot, _vec, central_difference
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
    Raised through :func:`theorem_equivalence_probe`, it carries the
    gate value the section passed as ``closedness_defect``."""

    closedness_defect: float | None = None


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
    Sections read it whole; :meth:`rows` gives a block of it."""

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

    def rows(self, b: slice) -> ConfigurationStack:
        """The samples of a non-empty slice b as a stack of views."""
        stack = object.__new__(ConfigurationStack)
        stack.__dict__.update(g=self.g.rows(b), theta=self.theta[b])
        return stack


def _stack(kind: str, raw: np.ndarray, theta: np.ndarray,
           group: Callable[[np.ndarray], tuple]) -> ConfigurationStack:
    """The stack of the drawn rows raw, one per sample, and the rotor
    angles theta: group maps each block of lie.CHUNK rows of raw to their
    rotations and translations (None on SO(3))."""
    n = len(raw)
    if n < 1:
        raise ValueError("need at least one sample configuration")
    rot = np.empty((n, 3, 3))
    trans = None if kind == lie.SO3 else np.empty((n, 3))
    for lo in range(0, n, lie.CHUNK):
        b = slice(lo, lo + lie.CHUNK)
        rot[b], t = group(raw[b])
        if trans is not None:
            trans[b] = t
    return ConfigurationStack(lie.GroupPath(kind, rot, trans), theta)


def random_configurations(rng: np.random.Generator, kind: str,
                          theta) -> ConfigurationStack:
    """Configurations over the whole configuration space with the (n, k)
    rotor angles theta that the caller drew: the group parts are the
    exponentials of one (n, d) standard normal draw, so row i is the
    element :func:`lie.random_group` draws from row i's normals. theta
    is never broadcast: anything but an (n, k) array is rejected."""
    n = len(np.atleast_1d(theta))
    return _stack(kind, rng.standard_normal((n, lie.algebra_dim(kind))),
                  theta, lie.flat_exp)


def isotropy_configurations(rng: np.random.Generator, mu, n: int,
                            rotor_count: int) -> ConfigurationStack:
    """n configurations, stacked, whose group part fixes the flat spatial
    momentum mu under the coadjoint action, so constant-body sections at
    mu sit exactly on the mu level set there.

    Supports any so(3)* value and the aligned se(3)* values (pi parallel
    to gamma, including pi = 0); a generic se(3)* momentum has a
    stabilizer this sampler does not parameterize. It draws the n angles
    about the axis, uniform in [-pi, pi), then on se(3)* the n standard
    normal slides along it, then the (n, rotor_count) standard normal
    rotor angles: one call each. On the zero so(3)* level it samples the
    whole group with :func:`random_configurations`.
    """
    mu, kind = lie._flat_algebra(mu)
    if kind == lie.SO3:
        norm = float(np.linalg.norm(mu))
        if norm == 0.0:
            return random_configurations(
                rng, lie.SO3, rng.standard_normal((n, rotor_count)))
        return _stack(lie.SO3, rng.uniform(-np.pi, np.pi, (n, 1)),
                      rng.standard_normal((n, rotor_count)),
                      lambda angle: lie.flat_exp(angle * mu / norm))
    if not isotropy_sampleable(mu):
        raise ValueError("isotropy sampling needs pi parallel to gamma "
                         "(or pi = 0) with gamma nonzero")
    axis = mu[3:] / np.linalg.norm(mu[3:])

    def slide_group(raw):
        # exp(angle axis, 0) composed with exp(0, slide axis): the second
        # factor's rotation is the identity and the first one's
        # translation zero, so the product is (R, R slide axis)
        rot = lie.flat_exp(raw[:, :1] * axis)[0]
        return rot, (rot @ (raw[:, 1:] * axis)[..., None])[..., 0]

    raw = np.column_stack([rng.uniform(-np.pi, np.pi, n),
                           rng.standard_normal(n)])
    return _stack(lie.SE3, raw, rng.standard_normal((n, rotor_count)),
                  slide_group)


@dataclass(frozen=True)
class OneFormSection:
    """Assignment of momenta over configurations, a stack at a time.

    value maps a :class:`ConfigurationStack` of n samples to their
    (n, d + k) fiber rows, checked by :func:`fiber`. jacobian, when
    given, maps the stack and (n, d + k) base directions, one per
    sample, to the rows' derivatives along them, replacing finite
    differences.
    """

    value: Callable[[ConfigurationStack], np.ndarray]
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


def _check_base(gamma: OneFormSection, stack) -> None:
    """stack as a :class:`ConfigurationStack` on the section's base."""
    if not isinstance(stack, ConfigurationStack):
        raise TypeError("samples must be a ConfigurationStack, got "
                        f"{type(stack).__name__}")
    kind, n_theta = stack.g.kind, stack.theta.shape[1]
    if (kind, n_theta) != (gamma.kind, gamma.rotor_count):
        raise ValueError(f"configuration ({kind}, {n_theta} angles) is "
                         f"not on the section's base ({gamma.kind}, "
                         f"{gamma.rotor_count} angles)")


def _check_rows(rows, shape: tuple, what: str) -> np.ndarray:
    """rows as a finite float array of the (n, m) shape, never broadcast."""
    rows = np.asarray(rows, dtype=float)
    if rows.shape[:1] != shape[:1]:
        raise ValueError(f"{what} has shape {rows.shape} for {shape[0]} "
                         f"samples, expected a ({shape[1]},) fiber row each")
    if rows.shape != shape:
        raise ValueError(f"{what} has shape {rows.shape[1:]}, expected a "
                         f"({shape[1]},) fiber row")
    if not np.isfinite(rows).all():
        raise ValueError(f"{what} is not finite")
    return rows


def fiber(gamma: OneFormSection, q: ConfigurationStack) -> np.ndarray:
    """The fiber rows of gamma at the stack q, checked: q must lie on the
    section's base (group kind and angle count) and the rows must be a
    finite (n, d + k) array."""
    _check_base(gamma, q)
    return _check_rows(gamma.value(q), (len(q), lie.algebra_dim(gamma.kind)
                                        + gamma.rotor_count), "section value")


def _chart(stack: ConfigurationStack, pts: np.ndarray) -> ConfigurationStack:
    """The configurations at pts in exponential coordinates centred at
    each sample of stack: the rows of pts fall to the samples in equal
    runs, row (xi, dtheta) of sample j's run standing for
    (g_j exp(xi), theta_j + dtheta)."""
    g, d, run = stack.g, lie.algebra_dim(stack.g.kind), len(pts) // len(stack)
    rot, e_rot, e_trans = np.repeat(g.rot, run, 0), *lie.flat_exp(pts[:, :d])
    trans = None if e_trans is None else \
        (rot @ e_trans[..., None])[..., 0] + np.repeat(g.trans, run, 0)
    return ConfigurationStack(lie.GroupPath(g.kind, rot @ e_rot, trans),
                              np.repeat(stack.theta, run, 0) + pts[:, d:])


def fiber_derivative(gamma: OneFormSection, stack: ConfigurationStack,
                     v: np.ndarray) -> np.ndarray:
    """The derivatives of the fiber rows of stack along its (n, d + k)
    base directions v, one per sample, checked as :func:`fiber` checks
    rows: one jacobian call, else a central difference along each unit
    direction from one value call on 2n configurations (zero along a
    zero direction)."""
    _check_base(gamma, stack)
    v = np.asarray(v, dtype=float)
    shape = (len(stack), lie.algebra_dim(gamma.kind) + gamma.rotor_count)
    if v.shape != shape:
        raise ValueError(f"expected {shape} base directions, got {v.shape}")
    if gamma.jacobian is None:
        speed = _row_norms(v)
        still = speed == 0.0
        unit = np.repeat(v / np.where(still, 1.0, speed)[:, None], 2, axis=0)
        rows = speed[:, None] * central_difference(lambda s: fiber(
            gamma, _chart(stack, s * unit)), np.zeros((len(v), 1)))[:, 0]
        rows[still] = 0.0
    else:
        rows = gamma.jacobian(stack, v)
    return _check_rows(rows, v.shape, "section jacobian")


# ---------------------------------------------------------------------------
# section families
# ---------------------------------------------------------------------------

def constant_body_section(nu0, l0=()) -> OneFormSection:
    """Section with fixed flat body momentum nu0 and rotor momenta l0."""
    nu0, kind = lie._flat_algebra(nu0)
    l0 = _vec(l0, "l0")
    row = np.concatenate([nu0, l0])
    return OneFormSection(lambda q: np.tile(row, (len(q), 1)), kind, l0.size,
                          jacobian=lambda q, v: np.zeros((len(q), row.size)),
                          family="constant_body")


def zero_section(kind: str, rotor_count: int = 0) -> OneFormSection:
    return constant_body_section(np.zeros(lie.algebra_dim(kind)),
                                 np.zeros(rotor_count))


def exact_section(kind: str, rotor_count: int,
                  grad_w: Callable[[ConfigurationStack], np.ndarray],
                  jacobian: Callable | None = None) -> OneFormSection:
    """Differential of a scalar on the base: grad_w(stack) is the fiber
    rows, the stacked frame components (body derivatives, then angle
    partials) of each sample."""
    return OneFormSection(grad_w, kind, rotor_count, jacobian=jacobian,
                          family="exact_dW")


def rotor_quadratic_section(kind: str = lie.SO3,
                            offset=(3.0, 0.0, 0.0)) -> OneFormSection:
    """Exact section of the scalar |theta|^2 / 2 + offset . theta: zero
    body momentum and l = theta + offset."""
    offset = _vec(offset, "offset")
    d = lie.algebra_dim(kind)

    def grad_w(q: ConfigurationStack) -> np.ndarray:
        return np.hstack([np.zeros((len(q), d)), q.theta + offset])

    def jacobian(q: ConfigurationStack, v: np.ndarray) -> np.ndarray:
        return np.hstack([np.zeros((len(v), d)), v[:, d:]])

    return exact_section(kind, offset.size, grad_w, jacobian=jacobian)


def affine_rotor_section(nu0, l0, coupling) -> OneFormSection:
    """Constant flat body momentum nu0 with rotor momenta affine in the
    angles: l(theta) = l0 + C theta, C of shape (k, k) for k rotors.

    In the trivialized frame the only nonzero derivative block is C, so
    the section is closed exactly when C is symmetric; an asymmetric C
    plants a known closedness defect of max |C - C^T|.
    """
    l0 = _vec(l0, "l0")
    k = l0.size
    coupling = np.asarray(coupling, dtype=float)
    if coupling.shape != (k, k):
        raise ValueError(f"coupling must be a ({k}, {k}) matrix for {k} "
                         f"rotor momenta, got shape {coupling.shape}")
    nu0, kind = lie._flat_algebra(nu0)
    d = nu0.size

    # the stacked matvecs round each row as coupling @ theta does
    def value(q: ConfigurationStack) -> np.ndarray:
        return np.hstack([np.tile(nu0, (len(q), 1)),
                          l0 + (coupling @ q.theta[..., None])[..., 0]])

    def jacobian(q: ConfigurationStack, v: np.ndarray) -> np.ndarray:
        return np.hstack([np.zeros((len(v), d)),
                          (coupling @ v[:, d:, None])[..., 0]])

    return OneFormSection(value, kind, k, jacobian=jacobian,
                          family="custom")


def shear_section(kind: str, rotor_count: int) -> OneFormSection:
    """Deliberately non-closed section: l_2 = theta_1, so its exterior
    derivative carries a unit d theta_1 ^ d theta_2 coefficient. A
    negative control for the closedness test."""
    if rotor_count < 2:
        raise ValueError("shear_section needs at least two rotor slots")
    d = lie.algebra_dim(kind)

    def value(q: ConfigurationStack) -> np.ndarray:
        rows = np.zeros((len(q), d + rotor_count))
        rows[:, d + 1] = q.theta[:, 0]
        return rows

    return OneFormSection(value, kind, rotor_count, family="custom")


def spatial_section(mu, rotor_count: int = 0, l0=()) -> OneFormSection:
    """Section with constant flat spatial momentum mu and rotor_count
    rotor momenta l0 (zero by default); its body components rotate with
    the configuration, so it is not closed in the body frame and probe
    gates reject it for nonzero mu."""
    mu, kind = lie._flat_algebra(mu)
    l0 = _vec(l0, "l0") if np.size(l0) else np.zeros(rotor_count)
    if l0.size != rotor_count:
        raise ValueError(f"l0 has {l0.size} rotor momenta, expected "
                         f"rotor_count = {rotor_count}")

    def value(q: ConfigurationStack) -> np.ndarray:
        rot = q.g.rot.mT  # coadjoint action of g^-1 = (R^T, -R^T t)
        trans = None if q.g.trans is None else \
            -(rot @ q.g.trans[..., None])[..., 0]
        return np.hstack([lie.coadjoint(rot, trans, mu),
                          np.tile(l0, (len(q), 1))])

    return OneFormSection(value, kind, rotor_count, family="custom")


# ---------------------------------------------------------------------------
# closedness and the pullback identity
# ---------------------------------------------------------------------------

def _default_samples(gamma: OneFormSection, n_samples: int,
                     seed: int) -> ConfigurationStack:
    """n_samples configurations of :func:`random_configurations` with
    standard normal rotor angles, drawn first."""
    rng = np.random.default_rng(seed)
    return random_configurations(rng, gamma.kind, rng.standard_normal(
        (n_samples, gamma.rotor_count)))


def _frame_partials(gamma: OneFormSection, samples, n_samples: int,
                    seed: int):
    """Per lie.CHUNK block of samples (n_samples default ones if None),
    the block and its (b, m, m) partials D, one derivative pass per frame
    row: D[j, i] is the derivative of the fiber row at sample j along
    row i of the identity, so D[j] - D[j]^T is d gamma on the frame
    pairs."""
    stack = _default_samples(gamma, n_samples, seed) if samples is None \
        else samples
    _check_base(gamma, stack)
    m = lie.algebra_dim(gamma.kind) + gamma.rotor_count
    # frame row i repeated over a block, for each i
    frames = np.repeat(np.eye(m)[:, None], lie.CHUNK, axis=1)
    for lo in range(0, len(stack), lie.CHUNK):
        block = stack.rows(slice(lo, lo + lie.CHUNK))
        yield block, np.stack([fiber_derivative(gamma, block, e[:len(block)])
                               for e in frames], 1)


def closedness_defect(gamma: OneFormSection, n_samples: int = 20,
                      seed: int = 0,
                      samples: ConfigurationStack | None = None) -> float:
    """Max |d gamma(e_i, e_j)| over sampled configurations and frame
    pairs. Exact sections stay at finite-difference noise; the shear
    section reports its unit coefficient. Samples off the section's base
    raise as :func:`fiber` does."""
    worst = 0.0
    for _, partials in _frame_partials(gamma, samples, n_samples, seed):
        worst = max(worst, float(np.max(np.abs(partials - partials.mT))))
    return worst


def pullback_identity_defect(gamma: OneFormSection, n_samples: int = 20,
                             seed: int = 0,
                             samples: ConfigurationStack | None = None
                             ) -> float:
    """Max defect of (pullback of the canonical two-form) = -(d gamma)
    on random unit tangent pairs, one (v, w) pair drawn per sample.

    The left side pushes the pair through the section's tangent map and
    evaluates the two-form; the right side expands d gamma bilinearly
    from frame partials. The two sides difference the section at
    different points, so their agreement is a genuine two-path check.
    Samples off the section's base raise as :func:`fiber` does.
    """
    rng = np.random.default_rng(seed + 1)
    d = lie.algebra_dim(gamma.kind)
    worst = 0.0
    for block, partials in _frame_partials(gamma, samples, n_samples, seed):
        # the stream of one (2, m) draw per sample
        v, w = rng.standard_normal((len(block), 2, d + gamma.rotor_count)
                                   ).swapaxes(0, 1)
        v, w = v / _row_norms(v)[:, None], w / _row_norms(w)[:, None]
        dv, dw = (fiber_derivative(gamma, block, u) for u in (v, w))
        # the trivialization's canonical two-form on the pushed pairs
        lhs = (_row_dot(dw[:, :d], v[:, :d]) - _row_dot(dv[:, :d], w[:, :d])
               + _row_dot(dw[:, d:], v[:, d:])
               - _row_dot(dv[:, d:], w[:, d:]))
        curl = v[:, None] @ (partials - partials.mT) @ w[..., None]
        worst = max(worst, float(np.max(np.abs(lhs + curl[:, 0, 0]))))
    return worst


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def _row_norms(rows: np.ndarray) -> np.ndarray:
    # np.vecdot rounds each row as np.linalg.norm's 1-d dot does
    return np.sqrt(np.vecdot(rows, rows))


def _check_level(stack: ConfigurationStack, rows, mu) -> None:
    """Raise a :class:`MembershipError` at the first of the fiber rows of
    stack whose body momentum p is off the mu level at its group part:
    |Ad*_{g^-1} p - mu| > MEMBERSHIP_TOL."""
    defect = _row_norms(lie.coadjoint(stack.g.rot, stack.g.trans, rows) - mu)
    bad = np.flatnonzero(defect > MEMBERSHIP_TOL)
    if bad.size:
        raise MembershipError("section image is off the momentum level "
                              f"set (defect {defect[bad[0]]:.3e})")


def _residuals(sys: RCHSystem, gamma: OneFormSection,
               block: ConfigurationStack, rows: np.ndarray, mu) -> tuple:
    """The residuals of gamma at the b configurations of block, from their
    checked (b, d + k) fiber rows: the relatedness column and the (b, .)
    hj components and X_gamma. One field pass and one derivative pass;
    the full flavor adds one difference pass of h along the section."""
    dim = lie.algebra_dim(gamma.kind)
    layout = Layout(gamma.kind, gamma.rotor_count, gamma.rotor_count)
    angles = slice(dim, dim + layout.n_theta)

    def states(stack, rows):
        # the flat reduced states: body momenta, angles, rotor momenta
        return np.hstack([rows[:, :dim], stack.theta, rows[:, dim:]])

    full = full_dynamical_field(sys, layout, states(block, rows))
    x = np.hstack([full.xi, full.body[:, angles]])
    d_fiber = fiber_derivative(gamma, block, x)
    if mu is not None:
        pushed = np.hstack([d_fiber[:, :dim], x[:, dim:], d_fiber[:, dim:]])
        return _row_norms(pushed - full.body), full.body, x
    # h on the section at the chart points: every ScalarField has eval_batch
    d_h = central_difference(lambda pts: sys.hamiltonian.eval_batch(states(
        (q := _chart(block, pts)), fiber(gamma, q))), np.zeros(x.shape))
    return (_row_norms(d_fiber - np.delete(full.body, angles, axis=1)),
            -d_h + np.delete(full.lift, angles, axis=1), x)


def _block_residuals(sys: RCHSystem, gamma: OneFormSection,
                     stack: ConfigurationStack, mu):
    """Each block of lie.CHUNK samples of stack as a slice and its
    :func:`_residuals`, after one checked :func:`fiber` read of all
    samples and, with mu (checked finite and of gamma's kind), the
    membership check of every sample."""
    if mu is not None:
        mu, dim = np.asarray(mu, dtype=float), lie.algebra_dim(gamma.kind)
        if mu.shape != (dim,) or not np.isfinite(mu).all():
            raise ValueError(f"mu must be {dim} finite numbers for a "
                             f"{gamma.kind} section, got {mu}")
    rows = fiber(gamma, stack)
    blocks = [slice(lo, lo + lie.CHUNK)
              for lo in range(0, len(stack), lie.CHUNK)]
    if mu is not None:
        for b in blocks:
            _check_level(stack.rows(b), rows[b], mu)
    for b in blocks:
        yield b, _residuals(sys, gamma, stack.rows(b), rows[b], mu)


def section_residuals(sys: RCHSystem, gamma: OneFormSection,
                      stack: ConfigurationStack, mu=None) -> tuple:
    """The residuals of gamma at the n samples of stack, bit for bit the
    probe's: the (n,) relatedness column and the (n, .) hj_components and
    X_gamma rows. Full-space flavor when mu is None, else reduced, with a
    :class:`MembershipError` at the first sample off the mu level set.

    Reduced, hj_components is the controlled reduced field at the
    section's image, which matches the equation assemblies of
    :mod:`gyrostat.systems` up to their row scales. Full, it is minus the
    base differential of the hamiltonian restricted to the section plus
    the fiber components of force and control."""
    parts = [part for _, part in _block_residuals(sys, gamma, stack, mu)]
    return tuple(np.concatenate(column) for column in zip(*parts))


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
                              samples: ConfigurationStack,
                              mu=None) -> ProbeResult:
    """Evaluate the two residuals side by side on each sample.

    The two residual notions are equivalent in exact arithmetic, so
    every sample must land PASS (both below 1e-6) or FAIL (both above
    1e-3); a sample with one small and one large residual is reported
    INCONSISTENT. Sections failing the closedness prerequisite are
    rejected with :class:`GateRejection`, and the first off-level sample
    with :class:`MembershipError` before any residual is computed. Either
    error carries the gate value as ``closedness_defect``.
    """
    gate = closedness_defect(gamma, samples=samples)
    if gate > GATE_TOL:
        exc = GateRejection("section fails the closedness gate "
                            f"(defect {gate:.3e} > {GATE_TOL:g})")
        exc.closedness_defect = gate
        raise exc
    relatedness, hj, x_norm = np.empty((3, len(samples)))
    try:
        # block by block, so no (N, d + k) residual rows are kept
        for b, (rel, h, x) in _block_residuals(sys, gamma, samples, mu):
            relatedness[b], hj[b] = rel, _row_norms(h)
            x_norm[b] = _row_norms(x)
    except MembershipError as exc:
        exc.closedness_defect = gate
        raise
    labels = map(_classify, relatedness, hj)
    return ProbeResult(relatedness, hj, x_norm, tuple(labels), gate)
