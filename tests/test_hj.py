import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gyrostat import hamilton_jacobi as hj
from gyrostat import lie, systems
from gyrostat.config import CATALOGUE
from gyrostat.controlled import RCHSystem
from gyrostat.poisson import ScalarField, analytic_field, reduced_point

RB = systems.RigidBodyRotorParams((1.0, 2.0, 3.0), (0.5, 0.4, 0.3))
HT = systems.HeavyTopRotorParams((2.0, 1.5, 1.0), (0.4, 0.3), 1.2, 9.8, 0.5,
                                 np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0))


def rb_system():
    return systems.rigid_body_system(RB)


def ht_system():
    return systems.heavy_top_system(HT)


# the block size the block tests run at: small, so their per-row reference
# loops cover full and partial blocks in a few dozen samples
CHUNK = 8


@pytest.fixture
def small_chunk(monkeypatch):
    monkeypatch.setattr(lie, "CHUNK", CHUNK)


def spin_equilibrium(c=1.3):
    """Constant-body section that solves the rotor equations: spin about
    the third axis with the rotor momentum that parks the rotor."""
    ib, jj = np.asarray(RB.ibar), np.asarray(RB.j)
    l3 = jj[2] * c / (ib[2] + jj[2])
    nu = lie.coalgebra(lie.SO3, (0.0, 0.0, c))
    return hj.constant_body_section(nu, (0.0, 0.0, l3)), nu


def one_row(g, theta=()):
    """The one-row stack of the group element g and the angles theta."""
    trans = None if g.trans is None else g.trans[None]
    return hj.ConfigurationStack(lie.GroupPath(g.kind, g.rot[None], trans),
                                 np.reshape(theta, (1, -1)))


def one_row_views(stack):
    """The samples of a stack as its one-row views."""
    return [stack.rows(slice(i, i + 1)) for i in range(len(stack))]


def element(q):
    """The group element of the one-row stack q."""
    trans = None if q.g.trans is None else q.g.trans[0]
    return lie.GroupElement(q.g.kind, q.g.rot[0], trans)


def one_sample(*args):
    """section_residuals at a one-row stack: its relatedness,
    hj_components and x_gamma."""
    return tuple(column[0] for column in hj.section_residuals(*args))


def relatedness(*args):
    return float(one_sample(*args)[0])


def hj_norm(*args):
    return float(np.linalg.norm(one_sample(*args)[1]))


def random_stack(rng, kind, n, k):
    """n configurations over the whole group with k standard normal
    angles, drawn first."""
    return hj.random_configurations(rng, kind, rng.standard_normal((n, k)))


def tilted_gravity_data():
    """Heavy-top level set mu = (0, e3) whose plumb line is not aligned
    with the rotor-free symmetry axis chi."""
    a = np.array([0.0, 0.0, 1.0])
    mu = lie.coalgebra(lie.SE3, np.zeros(3), a)
    return hj.constant_body_section(mu, np.zeros(2)), mu, a


class TestConfigurations:
    def test_fields_and_sizes(self):
        q = one_row(lie.identity(lie.SO3), (0.1, 0.2))
        assert q.g.kind == lie.SO3
        assert len(q) == 1
        assert q.theta.shape == (1, 2)
        assert q.theta.dtype == np.float64

    def test_rejects_non_finite_angles(self):
        for bad in (np.nan, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                one_row(lie.identity(lie.SO3), (bad,))

    def test_random_configuration_shapes(self):
        rng = np.random.default_rng(0)
        q = random_stack(rng, lie.SE3, 3, 2)
        assert q.g.kind == lie.SE3
        assert len(q) == 3
        assert q.g.rot.shape == (3, 3, 3) and q.g.trans.shape == (3, 3)
        assert q.theta.shape == (3, 2)

    def test_isotropy_samples_fix_the_momentum(self):
        rng = np.random.default_rng(1)
        mu = lie.coalgebra(lie.SO3, (0.4, -0.2, 0.9))
        stack = hj.isotropy_configurations(rng, mu, 8, 3)
        for q in one_row_views(stack):
            assert_allclose(lie.Ad_star(element(q), mu), mu,
                            atol=1e-12)

    def test_isotropy_samples_se3_aligned(self):
        rng = np.random.default_rng(2)
        mu = lie.coalgebra(lie.SE3, (0.0, 0.6, 0.0), (0.0, 3.0, 0.0))
        stack = hj.isotropy_configurations(rng, mu, 8, 2)
        for q in one_row_views(stack):
            assert_allclose(lie.Ad_star(element(q), mu), mu,
                            atol=1e-12)

    def test_isotropy_rejects_skew_se3_momentum(self):
        rng = np.random.default_rng(3)
        mu = lie.coalgebra(lie.SE3, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="parallel"):
            hj.isotropy_configurations(rng, mu, 2, 2)

    def test_zero_so3_momentum_samples_whole_group(self):
        rng = np.random.default_rng(4)
        mu = lie.coalgebra(lie.SO3, np.zeros(3))
        qs = hj.isotropy_configurations(rng, mu, 2, 0)
        assert qs.g.rot.shape == (2, 3, 3) and qs.theta.shape == (2, 0)
        assert not np.array_equal(qs.g.rot[0], qs.g.rot[1])


def _reference_rows(rng, mu, n, k):
    """The isotropy sampler's draws, one array call each (the n turn
    angles, on se(3)* the n slides, then the (n, k) rotor angles), made
    into group elements one sample at a time: per-sample flat_exp, and
    compose of the angle and slide factors on se(3)*. On the zero level
    the rotor angles come first, then one lie.random_group per sample."""
    kind = lie.SO3 if mu.size == 3 else lie.SE3
    if not np.any(mu):
        theta = rng.standard_normal((n, k))
        return [(g.rot, g.trans, t) for g, t in zip(
            [lie.random_group(rng, kind) for _ in range(n)], theta)]
    angles = rng.uniform(-np.pi, np.pi, n)
    slides = rng.standard_normal(n) if kind == lie.SE3 else [None] * n
    theta, rows = rng.standard_normal((n, k)), []
    for angle, slide, t in zip(angles, slides, theta):
        if kind == lie.SO3:
            norm = float(np.linalg.norm(mu))
            g = lie.GroupElement(lie.SO3, *lie.flat_exp(angle * mu / norm))
        else:
            axis = mu[3:] / np.linalg.norm(mu[3:])
            turn = lie.flat_exp(np.concatenate([angle * axis, np.zeros(3)]))
            shift = lie.flat_exp(np.concatenate([np.zeros(3), slide * axis]))
            g = lie.compose(lie.GroupElement(lie.SE3, *turn),
                            lie.GroupElement(lie.SE3, *shift))
        rows.append((g.rot, g.trans, t))
    return rows


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                   np.signbit(b))


ISOTROPY_LEVELS = {
    "so3-level": lie.coalgebra(lie.SO3, (0.4, -0.2, 0.9)),
    "so3-zero": lie.coalgebra(lie.SO3, np.zeros(3)),
    "se3-axis": lie.coalgebra(lie.SE3, np.zeros(3), (0.0, 0.0, 1.0)),
    "se3-off-axis": lie.coalgebra(lie.SE3, (0.6, -0.8, 2.4),
                                  (0.3, -0.4, 1.2)),
}


class TestStackedSamples:
    @pytest.mark.parametrize("k", [0, 3])
    @pytest.mark.parametrize("seed", [0, 7, 2027])
    @pytest.mark.parametrize("level", sorted(ISOTROPY_LEVELS))
    def test_isotropy_stack_is_the_array_draws(self, level, seed, k):
        # the stack is bit for bit the per-sample group elements of the
        # array draws, and the generator ends where those draws leave it
        mu = ISOTROPY_LEVELS[level]
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        stack = hj.isotropy_configurations(rng, mu, 60, k)
        want = _reference_rows(ref, mu, 60, k)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert _same_bits(stack.g.rot, np.array([r[0] for r in want]))
        if mu.size == 6:
            assert _same_bits(stack.g.trans, np.array([r[1] for r in want]))
        else:
            assert stack.g.trans is None
        assert _same_bits(stack.theta, np.array([r[2] for r in want])
                          .reshape(60, k))

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("kind", [lie.SO3, lie.SE3])
    def test_zero_level_sampler_draws_the_group_after_the_angles(self, kind,
                                                                 k):
        # config's zero level: uniform angles, then one (n, d) normal
        # draw whose rows the group exponential maps
        rng, ref = np.random.default_rng(12), np.random.default_rng(12)
        stack = hj.random_configurations(rng, kind,
                                         rng.uniform(-1.0, 1.0, (37, k)))
        theta = ref.uniform(-1.0, 1.0, (37, k))
        rot, trans = lie.flat_exp(ref.standard_normal(
            (37, lie.algebra_dim(kind))))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert _same_bits(stack.theta, theta)
        assert _same_bits(stack.g.rot, rot)
        assert trans is None or _same_bits(stack.g.trans, trans)

    @pytest.mark.parametrize("theta", [
        0.25, np.zeros(3), np.zeros((4, 3, 1))], ids=["scalar", "flat",
                                                      "deep"])
    def test_angles_of_another_shape_are_not_broadcast(self, theta):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError, match=r"theta must be an \(\d, k\) "
                                             r"array, got shape"):
            hj.random_configurations(rng, lie.SO3, theta)

    @pytest.mark.parametrize("seed", [0, 5, 2027])
    @pytest.mark.parametrize("kind", [lie.SO3, lie.SE3])
    def test_default_samples_are_bitwise_random_group_draws(self, kind,
                                                             seed):
        # two standard normal angles per sample, then one
        # lie.random_group per sample
        gamma = hj.zero_section(kind, 2)
        stack = hj._default_samples(gamma, 40, seed)
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal((40, 2))
        want = [lie.random_group(rng, kind) for _ in range(40)]
        assert _same_bits(stack.g.rot, np.array([g.rot for g in want]))
        if kind == lie.SE3:
            assert _same_bits(stack.g.trans,
                              np.array([g.trans for g in want]))
        assert _same_bits(stack.theta, theta)

    def test_rotations_are_checked_once_over_the_stack(self, monkeypatch):
        calls = []
        check = lie._check_rotations
        monkeypatch.setattr(lie, "_check_rotations",
                            lambda rot: calls.append(rot.shape) or check(rot))
        mu = ISOTROPY_LEVELS["se3-off-axis"]
        stack = hj.isotropy_configurations(np.random.default_rng(3), mu,
                                           50, 2)
        assert calls == [(50, 3, 3)]
        block = stack.rows(slice(10, 30))
        assert calls == [(50, 3, 3)]
        assert len(stack) == 50 and len(block) == 20
        assert isinstance(block, hj.ConfigurationStack)
        assert block.g.kind == lie.SE3
        assert np.shares_memory(block.g.rot, stack.g.rot)
        assert np.array_equal(block.g.trans, stack.g.trans[10:30])
        assert np.array_equal(block.theta, stack.theta[10:30])
        assert stack.rows(slice(49, 50)).theta.shape == (1, 2)

    def test_views_of_a_slice_are_the_indexed_views(self):
        mu = ISOTROPY_LEVELS["se3-off-axis"]
        stack = hj.isotropy_configurations(np.random.default_rng(6), mu,
                                           7, 2)
        for rows in (slice(2, 5), slice(5, 70), slice(None)):
            block = stack.rows(rows)
            assert len(block) == len(range(7)[rows])
            assert np.shares_memory(block.g.rot, stack.g.rot)
            assert _same_bits(block.g.rot, stack.g.rot[rows])
            assert _same_bits(block.g.trans, stack.g.trans[rows])
            assert _same_bits(block.theta, stack.theta[rows])
            for j, i in enumerate(range(7)[rows]):
                assert _same_bits(block.g.rot[j], stack.g.rot[i])
                assert _same_bits(block.g.trans[j], stack.g.trans[i])
                assert _same_bits(block.theta[j], stack.theta[i])

    def test_slices_are_rejected(self):
        # a slice stands for a block of rows, never for one group element:
        # its (2, 3, 3) rotations fail the element check
        mu = ISOTROPY_LEVELS["se3-off-axis"]
        stack = hj.isotropy_configurations(np.random.default_rng(5), mu,
                                           4, 3)
        block = stack.rows(slice(1, 3))
        with pytest.raises(ValueError, match="rot must be 3x3"):
            lie.GroupElement(lie.SE3, block.g.rot, block.g.trans)
        # and an integer or list index would drop or copy the stack axis
        # past every check, so rows takes slices only
        for index in (3, np.int64(3), [0, 1], 1.0):
            with pytest.raises(TypeError, match="slice"):
                stack.rows(index)
            with pytest.raises(TypeError, match="slice"):
                stack.g.rows(index)

    def test_corrupted_row_is_rejected_by_index(self):
        mu = ISOTROPY_LEVELS["so3-level"]
        stack = hj.isotropy_configurations(np.random.default_rng(4), mu,
                                           8, 3)
        rot = stack.g.rot.copy()
        rot[5] *= 1.01
        with pytest.raises(ValueError, match=r"rot\[5\] is not orthonormal"):
            hj.ConfigurationStack(lie.GroupPath(lie.SO3, rot), stack.theta)

    def test_angles_are_checked(self):
        path = lie.GroupPath(lie.SO3, np.stack([np.eye(3)] * 3))
        with pytest.raises(ValueError, match=r"\(3, k\)"):
            hj.ConfigurationStack(path, np.zeros((2, 1)))
        with pytest.raises(ValueError, match="finite"):
            hj.ConfigurationStack(path, [[0.0], [np.inf], [0.0]])
        with pytest.raises(ValueError, match="at least one"):
            hj.isotropy_configurations(np.random.default_rng(0),
                                       ISOTROPY_LEVELS["so3-level"], 0, 1)


class TestSections:
    def test_constant_body_value_covers(self):
        nu = lie.coalgebra(lie.SO3, (0.1, 0.2, 0.3))
        sec = hj.constant_body_section(nu, (0.4, 0.5))
        rng = np.random.default_rng(5)
        q = random_stack(rng, lie.SO3, 3, 2)
        assert_allclose(hj.fiber(sec, q), [[0.1, 0.2, 0.3, 0.4, 0.5]] * 3)

    def test_zero_section_is_zero(self):
        sec = hj.zero_section(lie.SE3, 2)
        q = one_row(lie.identity(lie.SE3), (0.3, -0.1))
        assert_allclose(hj.fiber(sec, q), np.zeros((1, 8)))

    def test_zero_section_rejects_an_unknown_kind(self):
        # a misspelt kind used to build an SE(3) section
        with pytest.raises(ValueError, match="kind must be"):
            hj.zero_section("so3", 3)
        with pytest.raises(ValueError, match="kind must be"):
            lie.algebra_dim("bogus")

    def test_rotor_quadratic_components(self):
        sec = hj.rotor_quadratic_section()
        assert sec.family == "exact_dW"
        q = one_row(lie.identity(lie.SO3), (0.2, -0.7, 1.1))
        row = hj.fiber(sec, q)[0]
        assert_allclose(row[:3], np.zeros(3))
        assert_allclose(row[3:], q.theta[0] + np.array([3.0, 0.0, 0.0]))

    def test_fiber_rejects_a_row_of_the_wrong_shape(self):
        q = one_row(lie.identity(lie.SO3), (0.0, 0.0))
        for row in (np.zeros(4), np.zeros(6), np.zeros((1, 5))):
            sec = hj.exact_section(lie.SO3, 2, lambda q, row=row:
                                   np.array([row] * len(q)))
            with pytest.raises(ValueError,
                               match=r"shape \(.*\), expected a \(5,\)"):
                hj.fiber(sec, q)

    def test_fiber_rejects_a_non_finite_row(self):
        q = one_row(lie.identity(lie.SO3), (0.0, 0.0))
        for bad in (np.nan, np.inf):
            row = np.zeros(5)
            row[1] = bad
            sec = hj.exact_section(lie.SO3, 2, lambda q, row=row:
                                   np.array([row] * len(q)))
            with pytest.raises(ValueError, match="not finite"):
                hj.fiber(sec, q)

    def test_fiber_rejects_a_configuration_of_the_wrong_kind(self):
        sec = hj.zero_section(lie.SO3, 2)
        q = one_row(lie.identity(lie.SE3), (0.0, 0.0))
        with pytest.raises(ValueError, match=r"\(SE3, 2 angles\) is not on "
                           r"the section's base \(SO3, 2 angles\)"):
            hj.fiber(sec, q)
        with pytest.raises(ValueError, match=r"\(SE3, 2 angles\)"):
            hj.section_residuals(rb_system(), sec, q)

    def test_fiber_rejects_the_wrong_angle_count(self):
        sec = hj.zero_section(lie.SO3, 2)
        for theta in ((), (0.0,), (0.0, 0.0, 0.0)):
            q = one_row(lie.identity(lie.SO3), theta)
            with pytest.raises(ValueError,
                               match=rf"\(SO3, {len(theta)} angles\) is "
                                     r"not on the section's base \(SO3, 2"):
                hj.fiber(sec, q)

    def test_family_tag_is_checked(self):
        with pytest.raises(ValueError, match="family"):
            hj.OneFormSection(lambda q: None, lie.SO3, 0, family="best")

    @pytest.mark.parametrize("kind, k, match", [
        ("SU2", 0, "unknown group kind 'SU2'"),
        (lie.SO3, -1, "rotor_count must be non-negative"),
    ])
    def test_kind_and_rotor_count_are_checked(self, kind, k, match):
        with pytest.raises(ValueError, match=match):
            hj.OneFormSection(lambda q: None, kind, k)

    def test_shear_needs_two_rotors(self):
        with pytest.raises(ValueError, match="two rotor"):
            hj.shear_section(lie.SO3, 1)

    def test_jacobian_matches_finite_differences(self):
        def grad_w(q):
            return np.concatenate([np.zeros((len(q), 3)),
                                   q.theta + np.array([3.0, 0.0, 0.0])],
                                  axis=1)

        with_jac = hj.rotor_quadratic_section()
        without = hj.exact_section(lie.SO3, 3, grad_w)
        rng = np.random.default_rng(6)
        q = random_stack(rng, lie.SO3, 5, 3)
        v = rng.standard_normal((5, 6))
        assert_allclose(hj.fiber_derivative(with_jac, q, v),
                        hj.fiber_derivative(without, q, v), atol=1e-9)

    def test_affine_rotor_jacobian_matches_its_value(self):
        # the jacobian C v against central differences of the value
        # l0 + C theta, read through a copy of the section without it
        mu = lie.coalgebra(lie.SE3, (0.2, 0.1, -0.3), (0.0, 0.5, 0.8))
        sec = hj.affine_rotor_section(mu, (0.4, -0.6),
                                      [[0.7, -0.3], [0.4, 1.1]])
        rng = np.random.default_rng(41)
        q = random_stack(rng, lie.SE3, 6, 2)
        v = rng.standard_normal((6, 8))
        assert_allclose(hj.fiber_derivative(sec, q, v),
                        hj.fiber_derivative(replace(sec, jacobian=None), q,
                                            v), rtol=0, atol=1e-8)

    def test_se3_derivative_follows_the_translation(self):
        # with gamma != 0 the spatial section's body momentum
        # Ad*_{g^-1} mu depends on the translation of g: fiber_derivative
        # against a central difference over g exp(s xi) built with
        # lie.compose and lie.exp_group, one sample at a time
        mu = lie.coalgebra(lie.SE3, (0.3, -0.5, 0.2), (0.4, 0.0, 1.1))
        sec = hj.spatial_section(mu, 2)
        rng = np.random.default_rng(42)
        q = random_stack(rng, lie.SE3, 5, 2)
        v = rng.standard_normal((5, 8))
        step = 1e-5
        for row, one, vj in zip(hj.fiber_derivative(sec, q, v),
                                one_row_views(q), v):
            def at(s):
                g = lie.compose(element(one), lie.exp_group(s * vj[:6]))
                return hj.fiber(sec, one_row(g, one.theta[0] + s * vj[6:]))
            assert_allclose(row, (at(step) - at(-step))[0] / (2 * step),
                            rtol=0, atol=1e-7)

    def test_fiber_derivative_checks_the_direction_shape(self):
        # both paths: the analytic jacobian and finite differences; one
        # (d + k,) row per sample, never a flat row or a broadcast one
        q = random_stack(np.random.default_rng(7), lie.SO3, 3, 2)
        for sec in (hj.zero_section(lie.SO3, 2),
                    hj.shear_section(lie.SO3, 2)):
            for shape in ((5,), (1, 5), (3, 4), (3, 6), (3, 5, 1)):
                with pytest.raises(ValueError, match=r"expected \(3, 5\) "
                                   r"base directions, got"):
                    hj.fiber_derivative(sec, q, np.zeros(shape))


class TestClosedness:
    def test_zero_section_exactly_closed(self):
        assert hj.closedness_defect(hj.zero_section(lie.SO3, 3), 10) == 0.0

    def test_constant_body_exactly_closed(self):
        nu = lie.coalgebra(lie.SE3, (0.3, -0.2, 0.5), (0.1, 0.4, -0.2))
        sec = hj.constant_body_section(nu, (0.2, -0.1))
        assert hj.closedness_defect(sec, 10) == 0.0

    def test_exact_section_closed_through_finite_differences(self):
        def grad_w(q):
            # differential of theta_1^2 theta_2 / 2
            t1, t2 = q.theta.T
            zero = np.zeros(len(q))
            return np.stack([zero, zero, zero, t1 * t2, 0.5 * t1 ** 2],
                            axis=1)

        sec = hj.exact_section(lie.SO3, 2, grad_w)
        assert hj.closedness_defect(sec, 10) <= 1e-6

    def test_shear_section_reports_unit_coefficient(self):
        defect = hj.closedness_defect(hj.shear_section(lie.SO3, 3), 10)
        assert abs(defect - 1.0) <= 0.1
        assert abs(defect - 1.0) <= 1e-8

    def test_spatial_section_is_not_closed_in_the_body_frame(self):
        mu = lie.coalgebra(lie.SO3, (0.0, 0.0, 2.0))
        assert hj.closedness_defect(hj.spatial_section(mu, 2), 10) > 1.0

    def test_deterministic_for_fixed_seed(self):
        sec = hj.shear_section(lie.SE3, 2)
        a = hj.closedness_defect(sec, 6, seed=7)
        b = hj.closedness_defect(sec, 6, seed=7)
        assert a == b

    @pytest.mark.parametrize("jacobian,match", [
        # a 1-element row broadcast in D - D^T and read 0.0
        (lambda q, v: np.zeros((len(q), 1)),
         r"section jacobian has shape \(1,\), expected a \(6,\) fiber row"),
        (lambda q, v: np.zeros((len(q), 6, 1)),
         r"section jacobian has shape \(6, 1\), expected a \(6,\)"),
        # max(worst, nan) dropped the NaN and read 0.0
        (lambda q, v: np.full((len(q), 6), np.nan),
         "section jacobian is not finite"),
    ], ids=["one-element", "column", "nan"])
    def test_bad_jacobian_rows_are_rejected(self, jacobian, match):
        nu = lie.coalgebra(lie.SO3, (0.7, -0.4, 0.2))
        sec = replace(hj.constant_body_section(nu, np.zeros(3)),
                      jacobian=jacobian)
        q = one_row(lie.identity(lie.SO3), np.zeros(3))
        for probe in (lambda: hj.closedness_defect(sec, 5),
                      lambda: hj.pullback_identity_defect(sec, 5),
                      lambda: hj.fiber_derivative(sec, q, np.ones((1, 6))),
                      lambda: hj.section_residuals(rb_system(), sec, q, nu)):
            with pytest.raises(ValueError, match=match):
                probe()

    def test_samples_off_the_section_base_are_rejected(self):
        nu = lie.coalgebra(lie.SO3, (0.7, -0.4, 0.2))
        sec = hj.constant_body_section(nu, np.zeros(3))
        rng = np.random.default_rng(8)
        qs = random_stack(rng, lie.SE3, 3, 1)
        match = (r"configuration \(SE3, 1 angles\) is not on the "
                 r"section's base \(SO3, 3 angles\)")
        for probe in (lambda: hj.fiber(sec, qs),
                      lambda: hj.fiber(sec, qs.rows(slice(0, 1))),
                      lambda: hj.closedness_defect(sec, samples=qs),
                      lambda: hj.pullback_identity_defect(sec, samples=qs)):
            with pytest.raises(ValueError, match=match):
                probe()


def _per_sample_gate(sec, stack) -> float:
    """The gate one sample at a time: max over the one-row views of
    stack of max |D - D^T|, D's rows the fiber derivatives along the unit
    base directions."""
    frame = np.eye(lie.algebra_dim(sec.kind) + sec.rotor_count)
    worst = 0.0
    for q in one_row_views(stack):
        d = np.array([hj.fiber_derivative(sec, q, e[None])[0]
                      for e in frame])
        worst = max(worst, float(np.max(np.abs(d - d.T))))
    return worst


@pytest.mark.usefixtures("small_chunk")
class TestGateBlocks:
    """The gate takes one max |D - D^T| per block of lie.CHUNK samples:
    over two full blocks and a partial one it equals the per-sample
    maximum, wherever the asymmetry sits."""

    N = 2 * CHUNK + 3
    NU = lie.coalgebra(lie.SO3, (0.7, -0.4, 0.2))
    SYMMETRIC = np.array([[0.5, 0.2, 0.0], [0.2, -0.3, 0.1],
                          [0.0, 0.1, 0.4]])

    def stack(self):
        return hj.isotropy_configurations(np.random.default_rng(33),
                                          self.NU, self.N, 3)

    def section(self, coupling):
        """Constant body momentum NU with rotor momenta whose derivative
        along the angles is coupling(q), one (3, 3) block per sample."""
        def jacobian(q, v):
            return np.concatenate([np.zeros((len(q), 3)),
                                   (coupling(q) @ v[:, 3:, None])[..., 0]],
                                  axis=1)

        return hj.OneFormSection(
            lambda q: np.concatenate(
                [np.tile(self.NU, (len(q), 1)),
                 (coupling(q) @ q.theta[..., None])[..., 0]], axis=1),
            lie.SO3, 3, jacobian=jacobian)

    def test_symmetric_coupling_reads_zero(self):
        sec = hj.affine_rotor_section(self.NU, (0.1, 0.0, -0.2),
                                      self.SYMMETRIC)
        stack = self.stack()
        assert hj.closedness_defect(sec, samples=stack) == 0.0
        assert _per_sample_gate(sec, stack) == 0.0

    def test_q_dependent_jacobian(self):
        shear = np.zeros((3, 3))
        shear[0, 1] = 1.0
        sec = self.section(lambda q: self.SYMMETRIC
                           + q.theta[:, 0, None, None] * shear)
        stack = self.stack()
        gate = hj.closedness_defect(sec, samples=stack)
        assert gate == _per_sample_gate(sec, stack)
        # the asymmetric entry is (c + theta_0) - c for c = SYMMETRIC[0, 1]
        c = self.SYMMETRIC[0, 1]
        assert gate == np.max(np.abs((c + stack.theta[:, 0]) - c))

    def test_asymmetry_only_in_the_last_block(self):
        stack = self.stack()
        planted = stack.theta[self.N - 2].copy()
        shear = np.zeros((3, 3))
        shear[2, 0] = 0.75

        def coupling(q):
            hit = (q.theta == planted).all(axis=1)
            return self.SYMMETRIC + hit[:, None, None] * shear

        sec = self.section(coupling)
        gate = hj.closedness_defect(sec, samples=stack)
        assert gate == _per_sample_gate(sec, stack) == 0.75
        head = stack.rows(slice(0, 2 * CHUNK))
        assert hj.closedness_defect(sec, samples=head) == 0.0
        with pytest.raises(hj.GateRejection):
            hj.theorem_equivalence_probe(rb_system(), sec, stack, self.NU)

    def test_non_finite_jacobian_only_in_the_last_block(self):
        stack = self.stack()
        planted = stack.theta[self.N - 1].copy()

        def coupling(q):
            hit = (q.theta == planted).all(axis=1)
            return self.SYMMETRIC * np.where(hit, np.nan, 1.0)[:, None, None]

        sec = self.section(coupling)
        with pytest.raises(ValueError, match="section jacobian is not "
                                             "finite"):
            hj.closedness_defect(sec, samples=stack)


class TestPullbackIdentity:
    @pytest.mark.parametrize("factory", [
        lambda: hj.rotor_quadratic_section(),
        lambda: hj.constant_body_section(
            lie.coalgebra(lie.SO3, (0.7, -0.4, 0.2)), (0.1, 0.0, -0.2)),
        lambda: hj.constant_body_section(
            lie.coalgebra(lie.SE3, (0.3, 0.1, -0.2), (0.0, 0.0, 1.0)),
            (0.2, -0.3)),
    ])
    def test_pullback_equals_minus_exterior_derivative(self, factory):
        assert hj.pullback_identity_defect(factory(), 10) <= 1e-5

    def test_identity_holds_even_for_non_closed_sections(self):
        sec = hj.shear_section(lie.SO3, 3)
        assert hj.pullback_identity_defect(sec, 10) <= 1e-5
        assert hj.closedness_defect(sec, 10) > 0.5


class TestXGamma:
    def test_zero_section_is_stationary(self):
        rng = np.random.default_rng(8)
        q = random_stack(rng, lie.SO3, 4, 3)
        x = hj.section_residuals(rb_system(), hj.zero_section(lie.SO3, 3),
                                 q)[2]
        assert x.shape == (4, 6)
        assert not x.any()

    def test_constant_body_group_part_is_the_momentum_gradient(self):
        nu = lie.coalgebra(lie.SO3, (0.7, -0.4, 0.2))
        l0 = np.array([0.1, 0.0, -0.2])
        sec = hj.constant_body_section(nu, l0)
        sys = rb_system()
        rng = np.random.default_rng(9)
        q = random_stack(rng, lie.SO3, 1, 3)
        x = one_sample(sys, sec, q)[2]
        ref = sys.hamiltonian.grad(
            reduced_point(lie.SO3, nu, theta=q.theta[0], l=l0))
        assert_allclose(x[:3], ref.d_pi, atol=1e-15)
        assert_allclose(x[3:], ref.d_l, atol=1e-15)

    def test_zero_hamiltonian_with_vertical_control_stays_put(self):
        def torque(x):
            return [0.1, -0.2, 0.3] + [0.0] * (len(x) - 6) + [0.05, 0.0, 0.0]

        zero = ScalarField(lambda p: 0.0, grad_row=lambda x: [0.0] * len(x))
        sys = RCHSystem(zero, lie.SO3, 3, control=torque)
        nu = lie.coalgebra(lie.SO3, (0.7, -0.4, 0.2))
        sec = hj.constant_body_section(nu, (0.1, 0.0, -0.2))
        rng = np.random.default_rng(10)
        q = random_stack(rng, lie.SO3, 1, 3)
        assert np.linalg.norm(one_sample(sys, sec, q)[2]) == 0.0


class TestRelatedness:
    def test_zero_section_on_the_rigid_body_is_related(self):
        rng = np.random.default_rng(11)
        sec = hj.zero_section(lie.SO3, 3)
        mu = lie.coalgebra(lie.SO3, np.zeros(3))
        qs = random_stack(rng, lie.SO3, 5, 3)
        for level in (None, mu):
            rel = hj.section_residuals(rb_system(), sec, qs, level)[0]
            assert rel.shape == (5,) and rel.max() <= 1e-10

    def test_gravity_breaks_the_zero_candidate(self):
        sec, mu, a = tilted_gravity_data()
        rng = np.random.default_rng(12)
        q = hj.isotropy_configurations(rng, mu, 1, 2)
        residual = relatedness(ht_system(), sec, q, mu)
        expected = HT.mgh * np.linalg.norm(np.cross(a, HT.chi))
        assert_allclose(residual, expected, rtol=1e-12)
        assert residual > 1.0

    def test_perturbation_scales_linearly(self):
        rng = np.random.default_rng(13)
        sys = rb_system()
        ib, jj = np.asarray(RB.ibar), np.asarray(RB.j)
        c = 1.3
        l3 = jj[2] * c / (ib[2] + jj[2])
        ratios = []
        for eps in (1e-2, 1e-3, 1e-4):
            nu = lie.coalgebra(lie.SO3, (eps, 0.0, c))
            sec = hj.constant_body_section(nu, (0.0, 0.0, l3))
            qs = hj.isotropy_configurations(rng, nu, 3, 3)
            rel, comp, _ = hj.section_residuals(sys, sec, qs, nu)
            rel, res = rel.max(), np.linalg.norm(comp, axis=1).max()
            ratios.append((rel / eps, res / eps))
        flat = np.asarray(ratios)
        assert np.max(flat, axis=0) / np.min(flat, axis=0) == \
            pytest.approx([1.0, 1.0], abs=5e-2)

    def test_membership_is_enforced(self):
        nu = lie.coalgebra(lie.SO3, (0.5, 0.0, 0.0))
        sec = hj.constant_body_section(nu, np.zeros(3))
        g = lie.exp_group((0.0, 0.0, 1.0))
        q = one_row(g, np.zeros(3))
        with pytest.raises(hj.MembershipError,
                           match=r"level set \(defect 4\.794e-01\)"):
            hj.section_residuals(rb_system(), sec, q, nu)

    def test_membership_sits_at_its_tolerance(self):
        # MEMBERSHIP_TOL is 1e-8: at the identity the defect is the body
        # momentum's offset from mu, rejected at 1.1e-8, kept at 0.9e-8
        mu = lie.coalgebra(lie.SO3, (0.5, 0.0, 0.0))
        q = one_row(lie.identity(lie.SO3), np.zeros(3))
        for offset, rejected in ((1.1e-8, True), (0.9e-8, False)):
            sec = hj.constant_body_section(mu + [0.0, 0.0, offset],
                                           np.zeros(3))
            if rejected:
                with pytest.raises(hj.MembershipError,
                                   match=r"defect 1\.100e-08"):
                    hj.section_residuals(rb_system(), sec, q, mu)
            else:
                hj.section_residuals(rb_system(), sec, q, mu)


class TestHJResidual:
    def test_zero_section_solves_the_torque_free_equations(self):
        rng = np.random.default_rng(14)
        sec = hj.zero_section(lie.SO3, 3)
        mu = lie.coalgebra(lie.SO3, np.zeros(3))
        q = random_stack(rng, lie.SO3, 1, 3)
        assert hj_norm(rb_system(), sec, q) == 0.0
        assert hj_norm(rb_system(), sec, q, mu) == 0.0

    def test_gravity_rows_survive_for_the_zero_candidate(self):
        sec, mu, a = tilted_gravity_data()
        rng = np.random.default_rng(15)
        q = hj.isotropy_configurations(rng, mu, 1, 2)
        residual = hj_norm(ht_system(), sec, q, mu)
        assert_allclose(residual,
                        HT.mgh * np.linalg.norm(np.cross(a, HT.chi)),
                        rtol=1e-12)

    def test_components_match_rigid_body_assembly(self):
        rng = np.random.default_rng(16)
        sys = rb_system()
        ib, jj = np.asarray(RB.ibar), np.asarray(RB.j)
        scales = np.array([ib[1] * ib[2], ib[2] * ib[0], ib[0] * ib[1],
                           ib[0] * jj[0], ib[1] * jj[1], ib[2] * jj[2],
                           1.0, 1.0, 1.0])
        for _ in range(20):
            pi = rng.standard_normal(3)
            l0 = rng.standard_normal(3)
            theta = rng.standard_normal(3)
            nu = lie.coalgebra(lie.SO3, pi)
            sec = hj.constant_body_section(nu, l0)
            q = one_row(lie.identity(lie.SO3), theta)
            comp = one_sample(sys, sec, q, nu)[1]
            cand = systems.HJCandidate(
                np.concatenate([pi, theta, l0]), np.zeros(9))
            rows = systems.rigid_body_hj_lhs(RB, cand)
            assert_allclose(rows, scales * comp, atol=1e-10)

    def test_components_match_heavy_top_assembly(self):
        rng = np.random.default_rng(17)
        sys = ht_system()
        ib, jj = np.asarray(HT.ibar), np.asarray(HT.j)
        scales = np.array([ib[1] * ib[2], ib[2] * ib[0], ib[0] * ib[1],
                           ib[1] * ib[2], ib[2] * ib[0], ib[0] * ib[1],
                           ib[0] * jj[0], ib[1] * jj[1], 1.0, 1.0])
        for _ in range(20):
            pi = rng.standard_normal(3)
            gamma = rng.standard_normal(3)
            l0 = rng.standard_normal(2)
            theta = rng.standard_normal(2)
            nu = lie.coalgebra(lie.SE3, pi, gamma)
            sec = hj.constant_body_section(nu, l0)
            q = one_row(lie.identity(lie.SE3), theta)
            comp = one_sample(sys, sec, q, nu)[1]
            cand = systems.HJCandidate(
                np.concatenate([pi, theta, l0]), np.zeros(10),
                advected=gamma)
            rows = systems.heavy_top_hj_lhs(HT, cand)
            assert_allclose(rows, scales * comp, atol=1e-10)

    def test_components_match_free_top_assembly(self):
        rng = np.random.default_rng(18)
        free = systems.HeavyTopParams((2.0, 1.5, 1.0), 1.2, 9.8, 0.5,
                                      (0.0, 0.0, 1.0))
        sys = systems.heavy_top_free_system(free)
        i = np.asarray(free.i)
        scales = np.array([i[1] * i[2], i[2] * i[0], i[0] * i[1]] * 2)
        for _ in range(20):
            pi = rng.standard_normal(3)
            gamma = rng.standard_normal(3)
            nu = lie.coalgebra(lie.SE3, pi, gamma)
            sec = hj.constant_body_section(nu)
            q = one_row(lie.identity(lie.SE3), ())
            comp = one_sample(sys, sec, q, nu)[1]
            cand = systems.HJCandidate(pi, np.zeros(0), advected=gamma)
            rows = systems.heavy_top_lp_hj_lhs(free, cand)
            assert_allclose(rows, scales * comp, atol=1e-10)

    def test_components_include_the_lifted_control(self):
        rng = np.random.default_rng(25)
        u_pi = rng.standard_normal(3)
        u_l = rng.standard_normal(3)

        def control(x):
            return u_pi.tolist() + [0.0] * 3 + u_l.tolist()

        sys = RCHSystem(systems.rigid_body_hamiltonian(RB), lie.SO3, 3,
                        control=control)
        ib, jj = np.asarray(RB.ibar), np.asarray(RB.j)
        scales = np.array([ib[1] * ib[2], ib[2] * ib[0], ib[0] * ib[1],
                           ib[0] * jj[0], ib[1] * jj[1], ib[2] * jj[2],
                           1.0, 1.0, 1.0])
        pi = rng.standard_normal(3)
        l0 = rng.standard_normal(3)
        nu = lie.coalgebra(lie.SO3, pi)
        sec = hj.constant_body_section(nu, l0)
        q = one_row(lie.identity(lie.SO3), rng.standard_normal(3))
        comp = one_sample(sys, sec, q, nu)[1]
        u_rows = np.concatenate([u_pi, np.zeros(3), u_l])
        cand = systems.HJCandidate(
            np.concatenate([pi, q.theta[0], l0]), u_rows)
        rows = systems.rigid_body_hj_lhs(RB, cand)
        assert_allclose(rows, scales * comp, atol=1e-10)

    @pytest.mark.parametrize("system,kind,k", [(rb_system, lie.SO3, 3),
                                               (ht_system, lie.SE3, 2)])
    def test_full_flavor_shifts_by_a_constant_control(self, system, kind, k):
        # hj_components is -dh along the section plus the fiber part of
        # the lift: a constant control u adds u without its angle columns,
        # to rounding, and leaves X_gamma alone
        rng = np.random.default_rng(26)
        dim = lie.algebra_dim(kind)
        u = rng.standard_normal(dim + 2 * k)
        u[dim:dim + k] = 0.0
        free = system()
        sec = hj.constant_body_section(rng.standard_normal(dim),
                                       rng.standard_normal(k))
        q = random_stack(rng, kind, 6, k)
        _, comp, x = hj.section_residuals(free, sec, q)
        _, shifted, x_shifted = hj.section_residuals(
            replace(free, control=lambda _: u.tolist()), sec, q)
        fiber_u = np.delete(u, np.s_[dim:dim + k])
        assert_allclose(shifted - comp, np.tile(fiber_u, (6, 1)), rtol=0,
                        atol=1e-12)
        np.testing.assert_array_equal(x_shifted, x)

    def test_full_flavor_differentiates_the_restricted_hamiltonian(self):
        sys = rb_system()
        sec = hj.rotor_quadratic_section()
        rng = np.random.default_rng(19)
        q = random_stack(rng, lie.SO3, 1, 3)
        comp = one_sample(sys, sec, q)[1]
        l = q.theta[0] + np.array([3.0, 0.0, 0.0])
        rate = l * (1.0 / np.asarray(RB.ibar) + 1.0 / np.asarray(RB.j))
        assert_allclose(comp, np.concatenate([np.zeros(3), -rate]),
                        atol=1e-7)


class TestProbe:
    def test_spun_up_rotor_equilibrium_passes(self):
        sec, mu = spin_equilibrium()
        rng = np.random.default_rng(20)
        qs = hj.isotropy_configurations(rng, mu, 6, 3)
        res = hj.theorem_equivalence_probe(rb_system(), sec, qs, mu)
        assert res.verdict == "PASS"
        assert res.labels == ("PASS",) * 6
        assert_allclose(res.x_norm,
                        1.3 / (np.asarray(RB.ibar)[2] + np.asarray(RB.j)[2]),
                        rtol=1e-12)

    @pytest.mark.parametrize("with_jacobian", [True, False])
    def test_moving_rotor_rows_pass_in_full_space(self, with_jacobian):
        # h = (|nu|^2 + |l|^2 - c^2 |theta|^2) / 2 keeps the rotor rows
        # l = c theta invariant: along theta' = l the rows move at
        # c^2 theta, the field's l' = c^2 theta, and h is constant on the
        # section. The rows and the field both move, so the relatedness
        # residual is a difference of nonzero terms.
        c2 = 0.64

        def grad(x):
            return [x[0], x[1], x[2], -c2 * x[3], -c2 * x[4], x[5], x[6]]

        h = analytic_field(lambda pts: 0.5 * np.sum(pts * pts * np.array(
            [1.0, 1.0, 1.0, -c2, -c2, 1.0, 1.0]), axis=1), grad)
        sys = RCHSystem(h, lie.SO3, 2)
        nu = lie.coalgebra(lie.SO3, (0.3, -0.2, 0.5))
        sec = hj.affine_rotor_section(nu, np.zeros(2),
                                      np.sqrt(c2) * np.eye(2))
        if not with_jacobian:
            sec = replace(sec, jacobian=None)
        qs = random_stack(np.random.default_rng(43), lie.SO3, 6, 2)
        res = hj.theorem_equivalence_probe(sys, sec, qs)
        assert res.verdict == "PASS"
        x = hj.section_residuals(sys, sec, qs)[2]
        assert_allclose(x[:, 3:], np.sqrt(c2) * qs.theta, rtol=1e-12)
        assert_allclose(hj.fiber_derivative(sec, qs, x)[:, 3:],
                        c2 * qs.theta, rtol=1e-6)
        assert np.abs(qs.theta).min() > 1e-3

    def test_tilted_gravity_fails_coherently(self):
        sec, mu, _ = tilted_gravity_data()
        rng = np.random.default_rng(21)
        qs = hj.isotropy_configurations(rng, mu, 6, 2)
        res = hj.theorem_equivalence_probe(ht_system(), sec, qs, mu)
        assert res.verdict == "FAIL"
        assert res.labels == ("FAIL",) * 6

    def test_rotor_quadratic_fails_on_the_unit_box(self):
        rng = np.random.default_rng(22)
        qs = hj.random_configurations(rng, lie.SO3,
                                      rng.uniform(-1.0, 1.0, (8, 3)))
        res = hj.theorem_equivalence_probe(rb_system(),
                                           hj.rotor_quadratic_section(), qs)
        assert res.verdict == "FAIL"
        assert res.hj.min() > 1.0

    def test_gate_rejects_non_closed_sections(self):
        mu = lie.coalgebra(lie.SO3, (0.0, 0.0, 2.0))
        rng = np.random.default_rng(23)
        qs = random_stack(rng, lie.SO3, 3, 2)
        with pytest.raises(hj.GateRejection, match="closedness gate"):
            hj.theorem_equivalence_probe(rb_system(),
                                         hj.spatial_section(mu, 2), qs, mu)

    def test_gate_sits_at_its_tolerance(self):
        # GATE_TOL is 1e-5: an affine rotor coupling C reads max |C - C^T|
        # on the gate, exactly, rejected at 1.1e-5 and let through at 0.9e-5
        nu = lie.coalgebra(lie.SO3, (0.0, 0.0, 1.3))
        qs = random_stack(np.random.default_rng(27), lie.SO3, 4, 3)
        for asymmetry, rejected in ((1.1e-5, True), (0.9e-5, False)):
            coupling = np.zeros((3, 3))
            coupling[0, 1] = asymmetry
            sec = hj.affine_rotor_section(nu, np.zeros(3), coupling)
            if rejected:
                with pytest.raises(hj.GateRejection) as exc:
                    hj.theorem_equivalence_probe(rb_system(), sec, qs)
                assert exc.value.closedness_defect == asymmetry
            else:
                res = hj.theorem_equivalence_probe(rb_system(), sec, qs)
                assert res.gate_defect == asymmetry

    def test_probe_needs_samples(self):
        # the probe takes a stack, and no stack holds zero samples
        _, mu = spin_equilibrium()
        with pytest.raises(ValueError, match="at least one sample"):
            hj.isotropy_configurations(np.random.default_rng(0), mu, 0, 3)
        with pytest.raises(ValueError, match="non-empty"):
            hj.ConfigurationStack(
                lie.GroupPath(lie.SO3, np.zeros((0, 3, 3))), np.zeros((0, 3)))

    @pytest.mark.parametrize("rel,res,label", [
        (1e-9, 1e-8, "PASS"),
        (0.5, 2.0, "FAIL"),
        (1e-9, 0.5, "INCONSISTENT"),
        (0.5, 1e-9, "INCONSISTENT"),
        (1e-5, 1e-5, "INCONSISTENT"),
    ])
    def test_classification_bands(self, rel, res, label):
        assert hj._classify(rel, res) == label

    def test_verdict_aggregation(self):
        assert zero_result("PASS", "FAIL").verdict == "MIXED"
        assert zero_result("PASS", "INCONSISTENT").verdict == "INCONSISTENT"
        assert zero_result("PASS", "PASS").verdict == "PASS"
        assert zero_result("FAIL").verdict == "FAIL"


def zero_result(*labels, gate=0.0):
    zeros = np.zeros(len(labels))
    return hj.ProbeResult(zeros, zeros, zeros, labels, gate)


def constant_torque(x):
    return [0.1, -0.2, 0.3] + [0.0] * 3 + [0.05, 0.0, -0.1]


def _assert_probe_rows_are_wrappers(sys, sec, qs, mu):
    """Each probe column entry equals the section_residuals value at its
    sample's one-row view, bit for bit."""
    n = len(qs)
    res = hj.theorem_equivalence_probe(sys, sec, qs, mu)
    for column in (res.relatedness, res.hj, res.x_norm):
        assert column.dtype == np.float64 and column.shape == (n,)
    assert len(res.labels) == n
    for i, q in enumerate(one_row_views(qs)):
        rel, comp, x = one_sample(sys, sec, q, mu)
        assert res.relatedness[i] == rel
        assert res.hj[i] == np.linalg.norm(comp)
        assert res.x_norm[i] == np.linalg.norm(x)
        assert res.x_norm[i] > 0.0
        assert res.labels[i] == hj._classify(rel, hj_norm(sys, sec, q, mu))


class TestProbeRowsAreTheWrappers:
    """Every probe column entry holds exactly what section_residuals
    returns at its sample's one-row view, in both flavours, with and
    without a section jacobian and with and without a vertical control."""

    @pytest.mark.parametrize("reduced", [False, True])
    @pytest.mark.parametrize("with_jacobian", [True, False])
    @pytest.mark.parametrize("control", [None, constant_torque])
    def test_rows_equal_wrappers(self, reduced, with_jacobian, control):
        sys = RCHSystem(rb_system().hamiltonian, lie.SO3, 3,
                        control=control)
        rng = np.random.default_rng(26)
        if with_jacobian:
            nu = lie.coalgebra(lie.SO3, (0.7, -0.4, 0.2))
            sec = hj.constant_body_section(nu, (0.1, 0.0, -0.2))
            qs = hj.isotropy_configurations(rng, nu, 4, 3)
        else:
            # rotor_quadratic_section's grad_w alone, differenced
            sec = hj.exact_section(lie.SO3, 3,
                                   hj.rotor_quadratic_section().value)
            nu = lie.coalgebra(lie.SO3, np.zeros(3))
            qs = random_stack(rng, lie.SO3, 4, 3)
        assert (sec.jacobian is not None) == with_jacobian
        _assert_probe_rows_are_wrappers(sys, sec, qs, nu if reduced else None)

    @pytest.mark.parametrize("reduced", [False, True])
    @pytest.mark.parametrize("with_jacobian", [True, False])
    @pytest.mark.parametrize("control", [None, constant_torque])
    def test_rows_equal_wrappers_across_blocks(self, reduced, with_jacobian,
                                               control, small_chunk):
        # two full lie.CHUNK blocks and a partial one, every sample with
        # its own fiber row
        sys = RCHSystem(rb_system().hamiltonian, lie.SO3, 3,
                        control=control)
        rng = np.random.default_rng(34)
        n = 2 * CHUNK + 3
        if with_jacobian:
            nu = lie.coalgebra(lie.SO3, (0.7, -0.4, 0.2))
            sec = hj.affine_rotor_section(nu, (0.1, 0.0, -0.2),
                                          TestGateBlocks.SYMMETRIC)
            qs = hj.isotropy_configurations(rng, nu, n, 3)
        else:
            sec = hj.exact_section(lie.SO3, 3,
                                   hj.rotor_quadratic_section().value)
            nu = lie.coalgebra(lie.SO3, np.zeros(3))
            qs = random_stack(rng, lie.SO3, n, 3)
        assert (sec.jacobian is not None) == with_jacobian
        assert len({row.tobytes() for row in hj.fiber(sec, qs)}) == n
        _assert_probe_rows_are_wrappers(sys, sec, qs, nu if reduced else None)

    def test_off_level_sample_raises_from_probe_and_wrappers(self):
        nu = lie.coalgebra(lie.SO3, (0.5, 0.0, 0.0))
        sec = hj.constant_body_section(nu, np.zeros(3))
        g = lie.exp_group((0.0, 0.0, 1.0))
        q = one_row(g, np.zeros(3))
        sys = rb_system()
        with pytest.raises(hj.MembershipError, match="level set"):
            hj.section_residuals(sys, sec, q, nu)
        with pytest.raises(hj.MembershipError, match="level set"):
            hj.theorem_equivalence_probe(sys, sec, q, nu)


class TestProbeInputs:
    """The probe takes its samples as one ConfigurationStack and reads
    every membership defect in blocks of lie.CHUNK samples."""

    def test_non_stack_samples_are_rejected(self):
        # a list of one-row stacks, an empty list, a tuple holding a stack
        # and a bare angle array all name the type they should have been
        sec, mu = spin_equilibrium()
        stack = hj.isotropy_configurations(np.random.default_rng(28), mu,
                                           3, 3)
        match = (r"samples must be a ConfigurationStack, got "
                 r"(list|tuple|ndarray)$")
        for samples in (one_row_views(stack), [], (stack,), stack.theta):
            for probe in (
                    lambda: hj.theorem_equivalence_probe(rb_system(), sec,
                                                         samples, mu),
                    lambda: hj.closedness_defect(sec, samples=samples),
                    lambda: hj.pullback_identity_defect(sec,
                                                        samples=samples),
                    lambda: hj.fiber(sec, samples),
                    lambda: hj.fiber_derivative(sec, samples,
                                                np.zeros((3, 6))),
                    lambda: hj.section_residuals(rb_system(), sec, samples,
                                                 mu)):
                with pytest.raises(TypeError, match=match):
                    probe()

    @pytest.mark.parametrize("reduced", [False, True])
    def test_list_and_stack_give_identical_columns(self, reduced,
                                                   small_chunk):
        # the probe is no longer handed a list, but probing the list of a
        # stack's one-row views one by one gives its columns bit for bit
        sec, mu, _ = tilted_gravity_data()
        n = CHUNK + 9
        stack = hj.isotropy_configurations(np.random.default_rng(28), mu,
                                           n, 2)
        level = mu if reduced else None
        got = hj.theorem_equivalence_probe(ht_system(), sec, stack, level)
        rows = [hj.theorem_equivalence_probe(ht_system(), sec, q, level)
                for q in one_row_views(stack)]
        for column in ("relatedness", "hj", "x_norm"):
            again = np.concatenate([getattr(r, column) for r in rows])
            assert _same_bits(getattr(got, column), again)
        assert got.labels == tuple(r.labels[0] for r in rows)
        assert len(got.labels) == n
        assert got.gate_defect == max(r.gate_defect for r in rows)

    def test_mixed_samples_are_rejected(self):
        # samples of mixed angle counts cannot share a stack: a list of
        # them is refused as a list, and each sample off the section's
        # angle count is refused by the base check
        sec, mu = spin_equilibrium()
        qs = [one_row(lie.identity(lie.SO3), np.zeros(3)),
              one_row(lie.identity(lie.SO3), np.zeros(2))]
        with pytest.raises(TypeError, match="ConfigurationStack"):
            hj.theorem_equivalence_probe(rb_system(), sec, qs, mu)
        with pytest.raises(ValueError, match=r"\(SO3, 2 angles\) is not on "
                                             r"the section's base"):
            hj.theorem_equivalence_probe(rb_system(), sec, qs[1], mu)
        hj.theorem_equivalence_probe(rb_system(), sec, qs[0], mu)

    @pytest.mark.parametrize("mu", [
        [np.nan, 0.0, 2.0], [0.0, np.inf, 2.0], [0.0, 0.0, 2.0, 0.0, 0.0, 0.0],
    ], ids=["nan", "inf", "se3-level"])
    def test_non_finite_or_wrong_kind_level_is_rejected(self, mu):
        # a NaN defect compares False against the tolerance, so the level
        # is checked before any sample is
        sec, nu = spin_equilibrium()
        stack = hj.isotropy_configurations(np.random.default_rng(29), nu,
                                           5, 3)
        for run in (hj.theorem_equivalence_probe, hj.section_residuals):
            with pytest.raises(ValueError, match=r"^mu must be 3 finite "
                               r"numbers for a SO3 section"):
                run(rb_system(), sec, stack, mu)

    def test_stack_membership_error_names_the_first_offender(self,
                                                             small_chunk):
        sec, nu = spin_equilibrium()
        n = 2 * CHUNK + 7
        stack = hj.isotropy_configurations(np.random.default_rng(29), nu,
                                           n, 3)
        rot = stack.g.rot.copy()
        first = CHUNK + 5
        rng = np.random.default_rng(30)
        for i in (first, first + 3, n - 1):
            rot[i] = lie.random_group(rng, lie.SO3).rot
        moved = hj.ConfigurationStack(lie.GroupPath(lie.SO3, rot),
                                      stack.theta)
        with pytest.raises(hj.MembershipError) as probe:
            hj.theorem_equivalence_probe(rb_system(), sec, moved, nu)
        with pytest.raises(hj.MembershipError) as single:
            hj.section_residuals(rb_system(), sec,
                                 moved.rows(slice(first, first + 1)), nu)
        defect = np.linalg.norm(rot[first] @ nu - nu)
        assert str(probe.value) == str(single.value)
        assert f"(defect {defect:.3e})" in str(probe.value)
        assert probe.value.closedness_defect == 0.0
        assert single.value.closedness_defect is None


class TestProbeResult:
    def test_aggregates_match_single_calls(self):
        sec, mu, a = tilted_gravity_data()
        rng = np.random.default_rng(24)
        qs = hj.isotropy_configurations(rng, mu, 5, 2)
        res = hj.theorem_equivalence_probe(ht_system(), sec, qs, mu)
        assert len(res.labels) == 5
        expected = HT.mgh * np.linalg.norm(np.cross(a, HT.chi))
        assert_allclose(res.relatedness.max(), expected, rtol=1e-12)
        assert_allclose(res.hj.max(), expected, rtol=1e-12)
        assert res.gate_defect == 0.0
        assert 0 <= np.argmax(res.relatedness) < 5
        assert 0 <= np.argmax(res.hj) < 5

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="non-negative"):
            zero_result("PASS", gate=-1.0)
        with pytest.raises(ValueError, match="non-negative"):
            hj.ProbeResult(np.array([np.nan]), np.zeros(1), np.zeros(1),
                           ("PASS",), 0.0)
        with pytest.raises(ValueError, match="non-negative"):
            hj.ProbeResult(np.zeros(1), np.array([-1e-300]), np.zeros(1),
                           ("PASS",), 0.0)

    def test_retained_bytes_per_sample(self):
        # the result keeps three float64 columns and one tuple slot per
        # sample, about 33 B at 1000 samples of the heavy-top level; one
        # frozen row object per sample kept about 185 B
        sec, mu, _ = tilted_gravity_data()
        n = 1000
        qs = hj.isotropy_configurations(np.random.default_rng(27), mu, n, 2)
        sys = ht_system()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = hj.theorem_equivalence_probe(sys, sec, qs, mu)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(res.labels) == n
        assert retained / n <= 64.0


class TestBuilderSizes:
    """Builders check their sizes when the section is built, not at its
    first fiber read."""

    MU = lie.coalgebra(lie.SO3, (0.0, 0.0, 2.0))

    def test_spatial_rotor_momenta_must_fill_the_rotor_slots(self):
        # one l0 entry for two slots failed only at the first fiber read;
        # two entries for no slots gave 5-component rows on a k = 0 base
        for k, l0 in ((2, (1.0,)), (0, (1.0, 2.0)), (1, (1.0, 2.0))):
            with pytest.raises(ValueError, match=rf"l0 has {len(l0)} rotor "
                               rf"momenta, expected rotor_count = {k}"):
                hj.spatial_section(self.MU, k, l0=l0)
        sec = hj.spatial_section(self.MU, 2, l0=(1.0, -1.0))
        q = one_row(lie.identity(lie.SO3), (0.3, 0.0))
        assert_allclose(hj.fiber(sec, q), [[0.0, 0.0, 2.0, 1.0, -1.0]])
        assert hj.spatial_section(self.MU, 3).rotor_count == 3

    @pytest.mark.parametrize("coupling", [
        np.eye(3), np.zeros(4), np.zeros((2, 2, 1)), np.zeros((2, 1))],
        ids=["3x3", "flat", "3-d", "column"])
    def test_affine_coupling_must_be_k_by_k(self, coupling):
        # numpy's reshape message was the only error, and a flat k * k
        # coupling was reshaped silently
        with pytest.raises(ValueError, match=r"coupling must be a \(2, 2\) "
                           r"matrix for 2 rotor momenta, got shape"):
            hj.affine_rotor_section(self.MU, (0.1, 0.2), coupling)

    def test_rotor_quadratic_offset_must_be_a_vector(self):
        with pytest.raises(ValueError, match="offset must be a 1-d array"):
            hj.rotor_quadratic_section(lie.SO3, np.zeros((3, 1)))


N_BLOCKS = 2 * CHUNK + 3
BLOCK_SIZES = [CHUNK, CHUNK, 3]


def family_sections(kind: str, k: int) -> dict:
    """Every built-in family over kind with k rotor slots, and an exact
    section without a jacobian, differenced, whose body and rotor parts
    both vary."""
    d = lie.algebra_dim(kind)
    nu, l0 = np.linspace(0.7, -0.4, d), np.linspace(0.1, -0.2, k)
    offset = np.linspace(1.0, 2.0, k)
    a = np.array([0.3, -0.5, 0.8])

    def grad_w(q):
        # W = a . R e3 + |theta|^2 / 2 + offset . theta
        body = np.cross([0.0, 0.0, 1.0], q.g.rot.mT @ a)
        return np.hstack([body, np.zeros((len(q), d - 3)), q.theta + offset])
    return {
        "constant_body": hj.constant_body_section(nu, l0),
        "zero": hj.zero_section(kind, k),
        "rotor_quadratic": hj.rotor_quadratic_section(kind, offset),
        "affine": hj.affine_rotor_section(nu, l0, 0.2 * np.eye(k) + 0.1),
        "shear": hj.shear_section(kind, k),
        "spatial": hj.spatial_section(nu, k, l0),
        "exact_differenced": hj.exact_section(kind, k, grad_w),
    }


FAMILY_CASES = [(kind, k, name) for kind, k in ((lie.SO3, 3), (lie.SE3, 2))
                for name in family_sections(kind, k)]


def _per_sample_defects(sec, qs, seed):
    """The gate and the pullback identity defect one sample at a time,
    through fiber_derivative on one-row stacks: per sample its frame
    partials, then one (2, m) draw."""
    rng = np.random.default_rng(seed + 1)
    d = lie.algebra_dim(sec.kind)
    frame = np.eye(d + sec.rotor_count)
    gate = pullback = 0.0
    for q in qs:
        partials = np.array([hj.fiber_derivative(sec, q, e[None])[0]
                             for e in frame])
        curl = partials - partials.T
        gate = max(gate, float(np.max(np.abs(curl))))
        v, w = rng.standard_normal((2, len(frame)))
        v, w = v / np.linalg.norm(v), w / np.linalg.norm(w)
        dv, dw = (hj.fiber_derivative(sec, q, u[None])[0] for u in (v, w))
        lhs = (float(dw[:d] @ v[:d]) - float(dv[:d] @ w[:d])
               + float(dw[d:] @ v[d:]) - float(dv[d:] @ w[d:]))
        pullback = max(pullback, abs(lhs + float(v @ curl @ w)))
    return gate, pullback


@pytest.mark.usefixtures("small_chunk")
@pytest.mark.parametrize("kind,k,name", FAMILY_CASES)
class TestBlocksAreOneRowPasses:
    """Over two full lie.CHUNK blocks and a partial one, each block pass
    gives bit for bit what the pass over its one-row view gives at every
    sample."""

    @staticmethod
    def setup(kind, k, name):
        sec = family_sections(kind, k)[name]
        stack = random_stack(np.random.default_rng(41), kind, N_BLOCKS, k)
        return sec, stack, one_row_views(stack)

    def test_values_and_jacobians(self, kind, k, name):
        sec, stack, qs = self.setup(kind, k, name)
        rows = hj.fiber(sec, stack)
        assert rows.shape == (N_BLOCKS, lie.algebra_dim(kind) + k)
        v = np.random.default_rng(42).standard_normal(rows.shape)
        v[5] = 0.0
        derivatives = hj.fiber_derivative(sec, stack, v)
        for i, q in enumerate(qs):
            assert _same_bits(rows[i], hj.fiber(sec, q)[0])
            assert _same_bits(derivatives[i],
                              hj.fiber_derivative(sec, q, v[i:i + 1])[0])
        assert not derivatives[5].any()

    def test_gate_and_pullback(self, kind, k, name):
        sec, stack, qs = self.setup(kind, k, name)
        gate, pullback = _per_sample_defects(sec, qs, 3)
        assert hj.closedness_defect(sec, samples=stack) == gate
        assert hj.pullback_identity_defect(sec, samples=stack, seed=3) \
            == pullback

    @pytest.mark.parametrize("reduced", [False, True])
    def test_residuals(self, kind, k, name, reduced):
        sec, stack, qs = self.setup(kind, k, name)
        sys = rb_system() if kind == lie.SO3 else ht_system()
        rows = hj.fiber(sec, stack)
        d = lie.algebra_dim(kind)
        for lo in range(0, N_BLOCKS, CHUNK):
            b = slice(lo, lo + CHUNK)
            # the block pass never reads mu's value, only its presence
            rel, h, x = hj._residuals(sys, sec, stack.rows(b), rows[b],
                                      np.zeros(d) if reduced else None)
            for j, q in enumerate(qs[b]):
                # each sample on its own momentum level
                mu = lie.Ad_star(element(q), rows[lo + j, :d]) if reduced \
                    else None
                r = one_sample(sys, sec, q, mu)
                assert rel[j] == r[0]
                assert _same_bits(h[j], r[1])
                assert _same_bits(x[j], r[2])


class TestBlockSize:
    """The block size sets how many samples share a pass, never a bit of
    the result: the probe and the residuals read the same at one sample a
    block, at odd and at full sizes. The heavy top's Hamiltonian is
    elementwise, so no gradient rounds by the height of its block."""

    N = 260
    MU = lie.coalgebra(lie.SE3, (0.0, 0.0, 0.0), (0.0, 0.6, 0.8))

    def sections(self):
        affine = hj.affine_rotor_section(self.MU, (0.1, -0.2),
                                         [[0.3, 0.1], [0.1, -0.2]])
        return {"affine": affine,
                "differenced": hj.exact_section(lie.SE3, 2, affine.value)}

    @pytest.mark.parametrize("reduced", [False, True])
    @pytest.mark.parametrize("name", ["affine", "differenced"])
    def test_probe_and_residuals_do_not_depend_on_it(self, name, reduced,
                                                     monkeypatch):
        sec = self.sections()[name]
        sys = CATALOGUE["heavy_top_rotors"].build(HT)
        stack = hj.isotropy_configurations(np.random.default_rng(46),
                                           self.MU, self.N, 2)
        level = self.MU if reduced else None
        runs = []
        for chunk in (1, 7, 64, 256):
            monkeypatch.setattr(lie, "CHUNK", chunk)
            runs.append((hj.theorem_equivalence_probe(sys, sec, stack,
                                                      level),
                         hj.section_residuals(sys, sec, stack, level)))
        (probe, residuals), rest = runs[0], runs[1:]
        for other, again in rest:
            for column in ("relatedness", "hj", "x_norm"):
                assert _same_bits(getattr(other, column),
                                  getattr(probe, column))
            assert other.labels == probe.labels
            assert _same_bits(other.gate_defect, probe.gate_defect)
            for got, want in zip(again, residuals):
                assert _same_bits(got, want)


def counted(sec):
    """sec with its value and jacobian logging each call and the number
    of samples it covers."""
    calls = []

    def value(q):
        calls.append(("value", len(q)))
        return sec.value(q)

    def jacobian(q, v):
        calls.append(("jacobian", len(q)))
        return sec.jacobian(q, v)

    return replace(sec, value=value, jacobian=sec.jacobian and jacobian), \
        calls


@pytest.mark.usefixtures("small_chunk")
class TestWorkCount:
    """The probe calls a section per block (and its value once over all
    samples), never per sample."""

    @pytest.mark.parametrize("reduced", [False, True])
    @pytest.mark.parametrize("with_jacobian", [True, False])
    def test_section_calls_per_block(self, reduced, with_jacobian):
        if with_jacobian:
            nu = lie.coalgebra(lie.SO3, (0.7, -0.4, 0.2))
            sec, calls = counted(hj.constant_body_section(nu, (0.1, 0.0,
                                                               -0.2)))
            qs = hj.isotropy_configurations(np.random.default_rng(43), nu,
                                            N_BLOCKS, 3)
        else:
            nu = lie.coalgebra(lie.SO3, np.zeros(3))
            sec, calls = counted(hj.exact_section(
                lie.SO3, 3, hj.rotor_quadratic_section().value))
            qs = random_stack(np.random.default_rng(44), lie.SO3, N_BLOCKS,
                              3)
        hj.theorem_equivalence_probe(rb_system(), sec, qs,
                                     nu if reduced else None)
        m = 6
        # a derivative pass: one jacobian call, or one value call on the
        # 2 b configurations of the central difference
        derivative = ("jacobian", 1) if with_jacobian else ("value", 2)
        want = [(derivative[0], derivative[1] * b) for b in BLOCK_SIZES
                for _ in range(m)]
        want.append(("value", N_BLOCKS))
        for b in BLOCK_SIZES:
            want.append((derivative[0], derivative[1] * b))
            if not reduced:
                # d(h o gamma) over the block's 2 m b chart points
                want.append(("value", 2 * m * b))
        assert calls == want

    @pytest.mark.parametrize("row", [(6,), (1, 6)], ids=["flat", "one-row"])
    def test_one_row_for_a_stack_is_rejected(self, row):
        nu = lie.coalgebra(lie.SO3, (0.7, -0.4, 0.2))
        base = hj.constant_body_section(nu, np.zeros(3))
        stack = hj.isotropy_configurations(np.random.default_rng(45), nu, 5,
                                           3)
        match = (rf"section (value|jacobian) has shape {re.escape(str(row))}"
                 r" for 5 samples, expected a \(6,\) fiber row each")
        value = replace(base, value=lambda q: np.ones(row))
        jacobian = replace(base, jacobian=lambda q, v: np.zeros(row))
        for probe in (lambda: hj.fiber(value, stack),
                      lambda: hj.theorem_equivalence_probe(
                          rb_system(), value, stack, nu),
                      lambda: hj.closedness_defect(jacobian, samples=stack),
                      lambda: hj.pullback_identity_defect(jacobian,
                                                          samples=stack),
                      lambda: hj.theorem_equivalence_probe(
                          rb_system(), jacobian, stack, nu)):
            with pytest.raises(ValueError, match=match):
                probe()
