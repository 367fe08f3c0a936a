import numpy as np
import numpy.testing as npt
import pytest

from gyrostat import lie
from gyrostat.lie import SO3, SE3
from gyrostat.poisson import casimirs, reduced_point

E1, E2, E3 = np.eye(3)


def series_exp(m, terms=30):
    """Brute-force matrix exponential by power series (test oracle)."""
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


def test_hat_basis_case():
    m = lie.hat(lie.algebra(SO3, E1))
    npt.assert_array_equal(m, [[0, 0, 0], [0, 0, -1], [0, 1, 0]])
    npt.assert_array_equal(m @ E2, E3)


def test_hat_vee_round_trip():
    x = lie.algebra(SO3, [1.0, 2.0, 3.0])
    back = lie.vee(lie.hat(x))
    npt.assert_array_equal(back.omega, x.omega)

    y = lie.algebra(SE3, [1.0, -2.0, 0.5], [0.1, 0.2, 0.3])
    back = lie.vee(lie.hat(y))
    npt.assert_array_equal(back.omega, y.omega)
    npt.assert_array_equal(back.vel, y.vel)


def test_hat_acts_as_cross_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = rng.standard_normal(3)
        v = rng.standard_normal(3)
        npt.assert_allclose(lie.skew(w) @ v, np.cross(w, v), atol=1e-14)
    npt.assert_array_equal(lie.hat(lie.algebra(SO3, E1)) @ E2, E3)


def test_bracket_so3_structure_constants():
    out = lie.bracket(lie.algebra(SO3, E1), lie.algebra(SO3, E2))
    npt.assert_array_equal(out.omega, E3)
    x = lie.algebra(SO3, [0.3, -1.2, 2.0])
    npt.assert_array_equal(lie.bracket(x, x).omega, np.zeros(3))


def test_bracket_se3_hand_case():
    x = lie.algebra(SE3, E3, np.zeros(3))
    y = lie.algebra(SE3, np.zeros(3), E1)
    out = lie.bracket(x, y)
    npt.assert_array_equal(out.omega, np.zeros(3))
    npt.assert_array_equal(out.vel, E2)


def test_bracket_matches_matrix_commutator():
    rng = np.random.default_rng(1)
    for kind in (SO3, SE3):
        for _ in range(50):
            x = lie.random_algebra(rng, kind)
            y = lie.random_algebra(rng, kind)
            mx, my = lie.hat(x), lie.hat(y)
            npt.assert_allclose(
                lie.hat(lie.bracket(x, y)), mx @ my - my @ mx, atol=1e-13)


def test_bracket_kind_mismatch():
    with pytest.raises(ValueError):
        lie.bracket(lie.algebra(SO3, E1), lie.algebra(SE3, E1, E2))


@pytest.mark.parametrize("kind", [SO3, SE3])
def test_jacobi_identity(kind):
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        x = lie.random_algebra(rng, kind)
        y = lie.random_algebra(rng, kind)
        z = lie.random_algebra(rng, kind)
        s = (lie.bracket(x, lie.bracket(y, z)).flat()
             + lie.bracket(y, lie.bracket(z, x)).flat()
             + lie.bracket(z, lie.bracket(x, y)).flat())
        worst = max(worst, float(np.max(np.abs(s))))
    assert worst <= 1e-12


def test_exp_zero_is_identity():
    g = lie.exp_group(lie.algebra(SO3, np.zeros(3)))
    npt.assert_array_equal(g.rot, np.eye(3))
    g = lie.exp_group(lie.algebra(SE3, np.zeros(3), np.zeros(3)))
    npt.assert_array_equal(g.rot, np.eye(3))
    npt.assert_array_equal(g.trans, np.zeros(3))


def test_exp_quarter_turn():
    g = lie.exp_group(lie.algebra(SO3, (np.pi / 2) * E3))
    npt.assert_allclose(g.rot @ E1, E2, atol=1e-15)


@pytest.mark.parametrize("kind", [SO3, SE3])
def test_exp_matches_matrix_series(kind):
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = lie.random_algebra(rng, kind)
        g = lie.exp_group(x)
        m = series_exp(lie.hat(x))
        if kind == SO3:
            npt.assert_allclose(g.rot, m, atol=1e-12)
        else:
            npt.assert_allclose(g.rot, m[:3, :3], atol=1e-12)
            npt.assert_allclose(g.trans, m[:3, 3], atol=1e-12)


@pytest.mark.parametrize("kind", [SO3, SE3])
def test_exp_inverse_round_trip(kind):
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = lie.random_algebra(rng, kind)
        flipped = (lie.AlgebraVector(SO3, -x.omega) if kind == SO3
                   else lie.AlgebraVector(SE3, -x.omega, -x.vel))
        g = lie.compose(lie.exp_group(x), lie.exp_group(flipped))
        npt.assert_allclose(g.rot, np.eye(3), atol=1e-12)
        if kind == SE3:
            npt.assert_allclose(g.trans, np.zeros(3), atol=1e-12)


def test_exp_small_angle_branch():
    # below the branch threshold the result must stay clean and close
    # to the first-order rotation
    for scale in (1e-9, 1e-10, 1e-12, 0.0):
        w = scale * np.array([1.0, -2.0, 0.5])
        x = lie.algebra(SE3, w, [0.3, 0.1, -0.2])
        g = lie.exp_group(x)
        npt.assert_allclose(g.rot, np.eye(3) + lie.skew(w), atol=1e-15)
        npt.assert_allclose(g.trans, x.vel, atol=1e-9)
    # continuity across the threshold
    lo = lie.exp_group(lie.algebra(SO3, 0.999e-8 * E1))
    hi = lie.exp_group(lie.algebra(SO3, 1.001e-8 * E1))
    npt.assert_allclose(lo.rot, hi.rot, atol=1e-10)


def test_exp_output_satisfies_group_invariants():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        g = lie.random_group(rng, SE3, scale=2.0)
        npt.assert_allclose(g.rot.T @ g.rot, np.eye(3), atol=1e-10)
        assert abs(np.linalg.det(g.rot) - 1.0) <= 1e-10


def test_group_element_rejects_bad_rotation():
    with pytest.raises(ValueError):
        lie.GroupElement(SO3, np.eye(3) * 1.001)
    with pytest.raises(ValueError):
        lie.GroupElement(SO3, -np.eye(3))  # det -1


def test_group_path_checks_every_rotation_once():
    rng = np.random.default_rng(8)
    stack = np.array([lie.random_group(rng, SO3).rot for _ in range(6)])
    npt.assert_array_equal(lie.GroupPath(SO3, stack).rot, stack)
    for block, what in ((stack[3] * 1.001, "orthonormal"),
                        (-stack[3], "determinant"),
                        (np.where(np.eye(3), np.nan, stack[3]),
                         "non-finite")):
        bad = stack.copy()
        bad[3] = bad[5] = block
        with pytest.raises(ValueError, match=rf"rot\[3\] .*{what}"):
            lie.GroupPath(SO3, bad)


def test_group_path_part_validation():
    stack = np.tile(np.eye(3), (4, 1, 1))
    lie.GroupPath(SE3, stack, np.zeros((4, 3)))
    with pytest.raises(ValueError, match="stack"):
        lie.GroupPath(SO3, np.eye(3))
    with pytest.raises(ValueError, match="stack"):
        lie.GroupPath(SO3, np.zeros((0, 3, 3)))
    with pytest.raises(ValueError, match="translation"):
        lie.GroupPath(SO3, stack, np.zeros((4, 3)))
    with pytest.raises(ValueError, match="translation"):
        lie.GroupPath(SE3, stack)
    with pytest.raises(ValueError, match="translation"):
        lie.GroupPath(SE3, stack, np.zeros((3, 3)))


def test_non_finite_translations_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^trans has non-finite"):
            lie.GroupElement(SE3, np.eye(3), [bad, 0.0, 0.0])
        trans = np.zeros((4, 3))
        trans[2, 1] = trans[3, 0] = bad
        with pytest.raises(ValueError, match=r"^trans\[2\] has non-finite"):
            lie.GroupPath(SE3, np.tile(np.eye(3), (4, 1, 1)), trans)


@pytest.mark.parametrize("kind", [SO3, SE3])
def test_views_equal_the_flat_kernels_bitwise(kind):
    rng = np.random.default_rng(9)
    # scale 1e-9 puts |omega|^2 below 1e-16, the small-angle branch
    for scale in (1.0, 1e-9):
        for _ in range(50):
            x = lie.random_algebra(rng, kind, scale)
            y = lie.random_algebra(rng, kind, scale)
            assert (float(x.omega @ x.omega) < 1e-16) == (scale < 1.0)
            g = lie.exp_group(x)
            rot, trans = lie.flat_exp(x.flat())
            npt.assert_array_equal(g.rot, rot)
            if kind == SO3:
                assert g.trans is None and trans is None
            else:
                npt.assert_array_equal(g.trans, trans)
            a, b = x.flat(), y.flat()
            flat = np.array(lie._bracket_list(a.tolist(), b.tolist()))
            npt.assert_array_equal(lie.bracket(x, y).flat(), flat)
            want = np.cross(a[:3], b[:3])
            if kind == SE3:
                want = np.concatenate([want, np.cross(a[:3], b[3:])
                                       - np.cross(b[:3], a[3:])])
            npt.assert_array_equal(flat, want)


def test_algebra_vector_part_validation():
    with pytest.raises(ValueError):
        lie.AlgebraVector(SO3, E1, E2)  # SO3 with a vel part
    with pytest.raises(ValueError):
        lie.AlgebraVector(SE3, E1)  # SE3 without one
    with pytest.raises(ValueError):
        lie.CoalgebraVector(SE3, E1)


def test_pairing_is_dot_of_matching_parts():
    mu = lie.coalgebra(SE3, [1, 2, 3], [4, 5, 6])
    xi = lie.algebra(SE3, [1, 1, 0], [0, 0, 2])
    assert lie.pairing(mu, xi) == pytest.approx(1 + 2 + 12)


def test_coadjoint_basis_case():
    # pairing convention makes ad*_{e1} act on pi = e2 as e2 x e1 = -e3
    out = lie.coadjoint_ad_star(lie.algebra(SO3, E1), lie.coalgebra(SO3, E2))
    npt.assert_array_equal(out.pi, -E3)
    out = lie.coadjoint_ad_star(lie.algebra(SO3, np.zeros(3)),
                                lie.coalgebra(SO3, [1.0, 2.0, 3.0]))
    npt.assert_array_equal(out.pi, np.zeros(3))


@pytest.mark.parametrize("kind", [SO3, SE3])
def test_coadjoint_duality(kind):
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        xi = lie.random_algebra(rng, kind)
        eta = lie.random_algebra(rng, kind)
        mu = lie.random_coalgebra(rng, kind)
        lhs = lie.pairing(lie.coadjoint_ad_star(xi, mu), eta)
        rhs = lie.pairing(mu, lie.bracket(xi, eta))
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12


def test_Ad_star_identity_and_quarter_turn():
    mu = lie.coalgebra(SO3, [0.3, -0.7, 1.1])
    out = lie.Ad_star(lie.identity(SO3), mu)
    npt.assert_array_equal(out.pi, mu.pi)

    g = lie.exp_group(lie.algebra(SO3, (np.pi / 2) * E3))
    out = lie.Ad_star(g, lie.coalgebra(SO3, E1))
    npt.assert_allclose(out.pi, E2, atol=1e-15)


@pytest.mark.parametrize("kind", [SO3, SE3])
def test_Ad_star_composition_law(kind):
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = lie.random_group(rng, kind)
        h = lie.random_group(rng, kind)
        mu = lie.random_coalgebra(rng, kind)
        two_step = lie.Ad_star(g, lie.Ad_star(h, mu))
        one_step = lie.Ad_star(lie.compose(g, h), mu)
        npt.assert_allclose(one_step.flat(), two_step.flat(), atol=1e-12)
        # the action keeps mu on its coadjoint orbit: Casimirs are preserved
        want = dict(casimirs(reduced_point(kind, mu.pi, mu.gamma)))
        for name, value in casimirs(reduced_point(kind, one_step.pi,
                                                  one_step.gamma)):
            assert abs(value - want[name]) <= 1e-8


@pytest.mark.parametrize("kind", [SO3, SE3])
def test_coadjoint_stack_rows_equal_one_element_calls(kind):
    # one formula serves a stack and one element, bit for bit
    rng = np.random.default_rng(11)
    n, d = 500, lie.algebra_dim(kind)
    groups = [lie.random_group(rng, kind) for _ in range(n)]
    rot = np.array([g.rot for g in groups])
    trans = None if kind == SO3 else np.array([g.trans for g in groups])
    mu = rng.standard_normal((n, d + 2))  # trailing entries are not read
    stacked = lie.coadjoint(rot, trans, mu)
    assert stacked.shape == (n, d)
    for i, g in enumerate(groups):
        npt.assert_array_equal(stacked[i],
                               lie.coadjoint(g.rot, g.trans, mu[i]))
        one = lie.Ad_star(g, lie.coalgebra_from_flat(kind, mu[i, :d]))
        npt.assert_array_equal(stacked[i], one.flat())


@pytest.mark.parametrize("kind", [SO3, SE3])
def test_Ad_star_dual_to_adjoint(kind):
    # pairing(Ad*_{g^{-1}} mu, xi) == pairing(mu, Ad_{g^{-1}} xi)
    rng = np.random.default_rng(8)
    for _ in range(100):
        g = lie.random_group(rng, kind)
        mu = lie.random_coalgebra(rng, kind)
        xi = lie.random_algebra(rng, kind)
        lhs = lie.pairing(lie.Ad_star(g, mu), xi)
        rhs = lie.pairing(mu, lie.adjoint(lie.inverse(g), xi))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("kind", [SO3, SE3])
def test_group_inverse_and_compose(kind):
    rng = np.random.default_rng(9)
    for _ in range(50):
        g = lie.random_group(rng, kind)
        e = lie.compose(g, lie.inverse(g))
        npt.assert_allclose(e.rot, np.eye(3), atol=1e-12)
        if kind == SE3:
            npt.assert_allclose(e.trans, np.zeros(3), atol=1e-12)


def test_adjoint_matches_matrix_conjugation():
    rng = np.random.default_rng(10)
    for kind in (SO3, SE3):
        for _ in range(30):
            g = lie.random_group(rng, kind)
            xi = lie.random_algebra(rng, kind)
            n = 3 if kind == SO3 else 4
            gm = np.eye(n)
            gm[:3, :3] = g.rot
            if kind == SE3:
                gm[:3, 3] = g.trans
            conj = gm @ lie.hat(xi) @ np.linalg.inv(gm)
            npt.assert_allclose(lie.hat(lie.adjoint(g, xi)), conj, atol=1e-12)
