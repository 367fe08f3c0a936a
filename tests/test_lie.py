import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from gyrostat import lie
from gyrostat.lie import SO3, SE3
from gyrostat.poisson import Layout, _hamiltonian_rates, casimir_fields

E1, E2, E3 = np.eye(3)


def bracket(x, y):
    """The bracket kernel on two flat algebra vectors of one kind."""
    return np.array(lie._bracket_list(np.asarray(x, float).tolist(),
                                      np.asarray(y, float).tolist()))


def commutator(x, y):
    """[x, y] through the matrix commutator of the hat images: an oracle
    independent of the bracket kernel."""
    mx, my = lie.hat(x), lie.hat(y)
    return lie.vee(mx @ my - my @ mx)


def ad_star(mu, xi):
    """ad*_xi(mu) of flat momenta and algebra vectors as the Lie-Poisson
    rates of the Hamiltonian rate kernel, whose gradient slot takes xi."""
    mu = np.asarray(mu, float)
    layout = Layout(SO3 if mu.size == 3 else SE3, 0, 0)
    return np.array(_hamiltonian_rates(layout)(
        mu.tolist(), np.asarray(xi, float).tolist()))


def group_matrix(g):
    """g as a 3x3 rotation, or the 4x4 homogeneous matrix on SE(3)."""
    if g.kind == SO3:
        return g.rot
    m = np.eye(4)
    m[:3, :3], m[:3, 3] = g.rot, g.trans
    return m


def series_exp(m, terms=30):
    """Brute-force matrix exponential by power series (test oracle)."""
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


def test_hat_basis_case():
    m = lie.hat(E1)
    npt.assert_array_equal(m, [[0, 0, 0], [0, 0, -1], [0, 1, 0]])
    npt.assert_array_equal(m @ E2, E3)


def test_hat_vee_round_trip():
    x = np.array([1.0, 2.0, 3.0])
    back = lie.vee(lie.hat(x))
    npt.assert_array_equal(back, x)

    y = np.array([1.0, -2.0, 0.5, 0.1, 0.2, 0.3])
    back = lie.vee(lie.hat(y))
    npt.assert_array_equal(back[:3], y[:3])
    npt.assert_array_equal(back[3:], y[3:])


def test_hat_acts_as_cross_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = rng.standard_normal(3)
        v = rng.standard_normal(3)
        npt.assert_allclose(lie.skew(w) @ v, np.cross(w, v), atol=1e-14)
    npt.assert_array_equal(lie.hat(E1) @ E2, E3)


def test_bracket_so3_structure_constants():
    out = bracket(E1, E2)
    npt.assert_array_equal(out, E3)
    x = np.array([0.3, -1.2, 2.0])
    npt.assert_array_equal(bracket(x, x), np.zeros(3))


def test_bracket_se3_hand_case():
    x = np.concatenate([E3, np.zeros(3)])
    y = np.concatenate([np.zeros(3), E1])
    out = bracket(x, y)
    npt.assert_array_equal(out[:3], np.zeros(3))
    npt.assert_array_equal(out[3:], E2)


def test_bracket_matches_matrix_commutator():
    rng = np.random.default_rng(1)
    for kind in (SO3, SE3):
        for _ in range(50):
            x = lie.random_algebra(rng, kind)
            y = lie.random_algebra(rng, kind)
            npt.assert_allclose(bracket(x, y), commutator(x, y), atol=1e-13)


@pytest.mark.parametrize("kind", [SO3, SE3])
def test_jacobi_identity(kind):
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        x = lie.random_algebra(rng, kind)
        y = lie.random_algebra(rng, kind)
        z = lie.random_algebra(rng, kind)
        s = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
             + bracket(z, bracket(x, y)))
        worst = max(worst, float(np.max(np.abs(s))))
    assert worst <= 1e-12


def test_exp_zero_is_identity():
    g = lie.exp_group(np.zeros(3))
    npt.assert_array_equal(g.rot, np.eye(3))
    g = lie.exp_group(np.zeros(6))
    npt.assert_array_equal(g.rot, np.eye(3))
    npt.assert_array_equal(g.trans, np.zeros(3))


def test_exp_quarter_turn():
    g = lie.exp_group((np.pi / 2) * E3)
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
        g = lie.compose(lie.exp_group(x), lie.exp_group(-x))
        npt.assert_allclose(g.rot, np.eye(3), atol=1e-12)
        if kind == SE3:
            npt.assert_allclose(g.trans, np.zeros(3), atol=1e-12)


def test_exp_small_angle_branch():
    # below the branch threshold the result must stay clean and close
    # to the first-order rotation
    for scale in (1e-9, 1e-10, 1e-12, 0.0):
        w = scale * np.array([1.0, -2.0, 0.5])
        x = np.concatenate([w, [0.3, 0.1, -0.2]])
        g = lie.exp_group(x)
        npt.assert_allclose(g.rot, np.eye(3) + lie.skew(w), atol=1e-15)
        npt.assert_allclose(g.trans, x[3:], atol=1e-9)
    # continuity across the threshold
    lo = lie.exp_group(0.999e-8 * E1)
    hi = lie.exp_group(1.001e-8 * E1)
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



@pytest.mark.parametrize("what", ["orthonormal", "determinant",
                                  "non-finite"])
def test_group_path_names_a_bad_block_past_the_first_chunk(what,
                                                          monkeypatch):
    # the check runs lie.CHUNK blocks at a time; the index it reports
    # counts from the start of the whole stack
    monkeypatch.setattr(lie, "CHUNK", 8)
    n = 3 * lie.CHUNK + 5
    rot = np.tile(np.eye(3), (n, 1, 1))
    block = {"orthonormal": np.eye(3) * 1.001, "determinant": -np.eye(3),
             "non-finite": np.where(np.eye(3), np.nan, 0.0)}[what]
    first = 2 * lie.CHUNK + 3
    rot[first] = rot[n - 1] = block
    with pytest.raises(ValueError, match=rf"^rot\[{first}\] .*{what}"):
        lie.GroupPath(SO3, rot)


def test_rotation_check_temporaries_do_not_grow_with_the_stack():
    def peak(n):
        rot = np.tile(np.eye(3), (n, 1, 1))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            lie._check_rotations(rot)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    peak(lie.CHUNK)
    # a whole-stack check held about 256 B per matrix, 1 MB at 4096
    assert peak(16 * lie.CHUNK) <= peak(2 * lie.CHUNK) + 4096

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
            assert (float(x[:3] @ x[:3]) < 1e-16) == (scale < 1.0)
            g = lie.exp_group(x)
            rot, trans = lie.flat_exp(x)
            npt.assert_array_equal(g.rot, rot)
            if kind == SO3:
                assert g.trans is None and trans is None
            else:
                npt.assert_array_equal(g.trans, trans)
            flat = np.array(lie._bracket_list(x.tolist(), y.tolist()))
            want = np.cross(x[:3], y[:3])
            if kind == SE3:
                want = np.concatenate([want, np.cross(x[:3], y[3:])
                                       - np.cross(y[:3], x[3:])])
            npt.assert_array_equal(flat, want)



@pytest.mark.parametrize("kind", [SO3, SE3])
def test_stacked_exp_rows_equal_one_vector_calls_bitwise(kind):
    rng = np.random.default_rng(21)
    d = lie.algebra_dim(kind)
    axes = rng.standard_normal((12, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    near_pi = np.nextafter(np.pi, 0.0), np.pi, np.nextafter(np.pi, 4.0)
    angles = np.concatenate([
        [0.0, 0.0, 1e-12, 0.5e-8, 0.9e-8], near_pi,
        [-a for a in near_pi], [1.5e-8]])
    rows = rng.standard_normal((200, d))
    rows[:12, :3] = angles[:, None] * axes
    rows[0] = 0.0
    # both sides of the small-angle switch
    small = np.vecdot(rows[:, :3], rows[:, :3]) < lie.SMALL_ANGLE ** 2
    assert small[:5].all() and not small[5:].any()
    rot, trans = lie.flat_exp(rows)
    assert rot.shape == (200, 3, 3)
    for i, x in enumerate(rows):
        one_rot, one_trans = lie.flat_exp(x)
        assert np.array_equal(rot[i], one_rot)
        assert np.array_equal(np.signbit(rot[i]), np.signbit(one_rot))
        if kind == SO3:
            assert trans is None and one_trans is None
        else:
            assert np.array_equal(trans[i], one_trans)
            assert np.array_equal(np.signbit(trans[i]),
                                  np.signbit(one_trans))


def test_flat_algebra_shape_check():
    # the kind is read from the length: (3,) or (6,), nothing else, for
    # algebra vectors and momenta alike
    e_so3, e_se3 = lie.identity(SO3), lie.identity(SE3)
    for bad in (np.zeros(4), np.zeros((3, 1))):
        for call in (lie.hat, lie.exp_group,
                     lambda x: lie.Ad_star(e_so3, x)):
            with pytest.raises(ValueError, match=r"shape \(3,\) or \(6,\)"):
                call(bad)
    six = np.concatenate([E1, E2])
    with pytest.raises(ValueError, match="kind mismatch: SO3 vs SE3"):
        lie.Ad_star(e_so3, six)
    with pytest.raises(ValueError, match="kind mismatch: SE3 vs SO3"):
        lie.Ad_star(e_se3, E1)
    # coalgebra, the checked momentum constructor
    npt.assert_array_equal(lie.coalgebra(SE3, E1), [1, 0, 0, 0, 0, 0])
    for args, match in (((SO3, E1, E2), "no gamma part"),
                        (("SU2", E1), "kind must be"),
                        ((SO3, [1.0, 2.0]), "pi must be a 3-vector"),
                        ((SE3, E1, [1.0, 2.0]), "gamma must be a 3-vector")):
        with pytest.raises(ValueError, match=match):
            lie.coalgebra(*args)


def test_pairing_is_dot_of_matching_parts():
    # a momentum lays out (pi, gamma) as an se(3) vector lays out
    # (omega, vel), so the pairing is the plain dot product
    mu = lie.coalgebra(SE3, [1, 2, 3], [4, 5, 6])
    xi = np.array([1, 1, 0, 0, 0, 2])
    assert mu @ xi == pytest.approx(1 + 2 + 12)


def test_coadjoint_basis_case():
    # the pairing convention makes ad*_{e1} act on pi = e2 as e2 x e1 = -e3
    npt.assert_array_equal(ad_star(E2, E1), -E3)
    npt.assert_array_equal(ad_star([1.0, 2.0, 3.0], np.zeros(3)), np.zeros(3))


@pytest.mark.parametrize("kind", [SO3, SE3])
def test_coadjoint_duality(kind):
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        xi = lie.random_algebra(rng, kind)
        eta = lie.random_algebra(rng, kind)
        mu = lie.random_algebra(rng, kind)
        lhs = ad_star(mu, xi) @ eta
        rhs = mu @ commutator(xi, eta)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12


def test_Ad_star_identity_and_quarter_turn():
    mu = lie.coalgebra(SO3, [0.3, -0.7, 1.1])
    out = lie.Ad_star(lie.identity(SO3), mu)
    npt.assert_array_equal(out, mu)

    g = lie.exp_group((np.pi / 2) * E3)
    out = lie.Ad_star(g, lie.coalgebra(SO3, E1))
    npt.assert_allclose(out, E2, atol=1e-15)


@pytest.mark.parametrize("kind", [SO3, SE3])
def test_Ad_star_composition_law(kind):
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = lie.random_group(rng, kind)
        h = lie.random_group(rng, kind)
        mu = lie.random_algebra(rng, kind)
        two_step = lie.Ad_star(g, lie.Ad_star(h, mu))
        one_step = lie.Ad_star(lie.compose(g, h), mu)
        npt.assert_allclose(one_step, two_step, atol=1e-12)
        # the action keeps mu on its coadjoint orbit: Casimirs are preserved
        for _, c in casimir_fields(kind):
            before, after = c.eval_batch(np.array([mu, one_step]))
            assert abs(after - before) <= 1e-8


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
        npt.assert_array_equal(stacked[i], lie.Ad_star(g, mu[i, :d]))


@pytest.mark.parametrize("kind", [SO3, SE3])
def test_Ad_star_dual_to_adjoint(kind):
    # <Ad*_{g^{-1}} mu, xi> == <mu, Ad_{g^{-1}} xi>, with the adjoint
    # action as matrix conjugation: hat(Ad_h xi) = H hat(xi) H^{-1}
    rng = np.random.default_rng(8)
    for _ in range(100):
        g = lie.random_group(rng, kind)
        mu = lie.random_algebra(rng, kind)
        xi = lie.random_algebra(rng, kind)
        gm = group_matrix(g)
        lhs = lie.Ad_star(g, mu) @ xi
        rhs = mu @ lie.vee(np.linalg.inv(gm) @ lie.hat(xi) @ gm)
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

