import itertools

import numpy as np
import numpy.testing as npt
import pytest

from gyrostat import lie, poisson
from gyrostat.lie import SO3, SE3
from gyrostat.poisson import (ReducedPoint, ScalarField, analytic_field,
                              bracket_axiom_suite, central_difference,
                              flat_gradient, flat_hamiltonian_field,
                              point_like, product_bracket,
                              random_polynomial_field, reduced_point,
                              tangent_like)
import test_mutations  # a module import: test_mutations imports this one

E1, E2, E3 = np.eye(3)


def coord_field(i):
    """The i-th flat coordinate as a scalar field with analytic gradient."""
    return analytic_field(lambda x: x[:, i],
                          lambda x: [float(j == i) for j in range(len(x))])


# |pi|^2 / 2 on so(3)* with its analytic gradient pi
HALF_SQ = analytic_field(lambda x: 0.5 * np.vecdot(x, x), list)


def without_gradient(field):
    """field with its value members only, so that every gradient is a
    central difference."""
    return ScalarField(field.eval, eval_batch=field.eval_batch)


def linear_field(w):
    """x -> <w, x> on flat states, with the constant gradient w."""
    w = np.asarray(w, dtype=float)
    grad = w.tolist()
    return ScalarField(lambda p: float(w @ p.flat()), grad_row=lambda x: grad)


def random_point(rng, kind, n_theta, n_l):
    return ReducedPoint(lie.random_algebra(rng, kind),
                        rng.standard_normal(n_theta),
                        rng.standard_normal(n_l))


def rates(h, p):
    """The Hamiltonian rates of h at p as a flat array."""
    return np.array(flat_hamiltonian_field(h, p.layout)(p.flat().tolist()))


def lie_poisson(f, k, nu):
    """The bracket at nu with empty rotor slots."""
    return product_bracket(f, k, ReducedPoint(nu, np.zeros(0), np.zeros(0)))


# ---------------------------------------------------------------- gradients

def test_fd_gradient_matches_analytic_polynomial():
    rng = np.random.default_rng(0)
    for kind, nt, nl in ((SO3, 3, 3), (SE3, 2, 2)):
        dim = (3 if kind == SO3 else 6) + nt + nl
        for _ in range(20):
            f = random_polynomial_field(rng, dim)
            p = random_point(rng, kind, nt, nl)
            x = p.flat().tolist()
            ana = np.array(flat_gradient(f, p.layout)(x))
            num = np.array(flat_gradient(without_gradient(f), p.layout)(x))
            scale = max(1.0, np.max(np.abs(ana)), np.max(np.abs(num)))
            assert np.max(np.abs(ana - num)) / scale <= 1e-5


def test_fd_gradient_batched_equals_loop():
    rng = np.random.default_rng(1)
    f = random_polynomial_field(rng, 9)
    p = random_point(rng, SO3, 3, 3)
    x = p.flat().tolist()
    batched = flat_gradient(without_gradient(f), p.layout)(x)
    looped = flat_gradient(ScalarField(f.eval), p.layout)(x)
    npt.assert_allclose(batched, looped, atol=1e-12)


def test_polynomial_gradient_is_one_row_of_grad_batch_bitwise():
    # a field without grad_row reads one row of its grad_batch: the same
    # (1, 1, d) computation as its point grad
    rng = np.random.default_rng(19)
    for kind, nt, nl in ((SO3, 3, 3), (SE3, 2, 2)):
        dim = lie.algebra_dim(kind) + nt + nl
        for _ in range(20):
            f = random_polynomial_field(rng, dim)
            p = random_point(rng, kind, nt, nl)
            row = flat_gradient(f, p.layout)(p.flat().tolist())
            assert row == f.grad(p).flat().tolist()


def test_central_difference_returns_jacobian_of_vector_map():
    # a fixed linear map x -> A x: entry [j, i] is column i of A at every
    # point j, the row-per-direction layout of the frame partials
    rng = np.random.default_rng(16)
    a = rng.standard_normal((4, 5))
    pts = 3.0 * rng.standard_normal((2, 5))
    jac = central_difference(lambda x: x @ a.T, pts)
    assert jac.shape == (2, 5, 4)
    for j in range(2):
        npt.assert_allclose(jac[j], a.T, atol=1e-8)
    scalar = central_difference(lambda x: x @ a[0], pts)
    assert scalar.shape == (2, 5)
    npt.assert_allclose(scalar, np.tile(a[0], (2, 1)), atol=1e-8)


def test_gradient_error_on_nan_field():
    f = ScalarField(lambda p: float("nan"))
    with pytest.raises(ValueError, match="non-finite"):
        product_bracket(f, f, reduced_point(SO3, E1))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_flat_field_rejects_a_non_finite_row_gradient(bad):
    # the row path's one check, before the rates read the gradient
    h = ScalarField(lambda p: 0.0, grad_row=lambda x: [0.0, bad, 0.0])
    field = flat_hamiltonian_field(h, poisson.Layout(SO3, 0, 0))
    with pytest.raises(ValueError, match="^non-finite gradient$"):
        field([1.0, 0.0, 0.0])


# ----------------------------------------------------------------- brackets

def test_lie_poisson_antisymmetry_self():
    rng = np.random.default_rng(2)
    f = random_polynomial_field(rng, 3)
    nu = lie.coalgebra(SO3, [0.2, -1.0, 0.7])
    assert lie_poisson(f, f, nu) == pytest.approx(0.0, abs=1e-14)


def test_lie_poisson_basis_case():
    # {pi_1, pi_2}_- at pi = e3 is -<e3, e1 x e2> = -1
    val = lie_poisson(coord_field(0), coord_field(1), lie.coalgebra(SO3, E3))
    assert val == pytest.approx(-1.0, abs=1e-12)


def test_lie_poisson_casimir_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = random_polynomial_field(rng, 3)
        nu = lie.random_algebra(rng, SO3)
        assert abs(lie_poisson(HALF_SQ, k, nu)) <= 1e-10


def test_product_bracket_canonical_pairs():
    p = reduced_point(SO3, [0.3, 0.1, -0.5], theta=[0.1, 0.2, 0.3],
                      l=[-0.2, 0.4, 0.0])
    theta1, theta2 = coord_field(3), coord_field(4)
    l1 = coord_field(6)
    assert product_bracket(theta1, l1, p) == pytest.approx(1.0, abs=1e-12)
    assert product_bracket(theta1, theta2, p) == pytest.approx(0.0, abs=1e-12)


def test_product_bracket_mixed_field_vs_fd_oracle():
    # F = pi_1 * l_2, K = theta_2 gives {F, K} = -pi_1
    rng = np.random.default_rng(4)
    f = ScalarField(lambda p: float(p.nu[0] * p.l[1]))
    k = ScalarField(lambda p: float(p.theta[1]))
    for _ in range(10):
        p = random_point(rng, SO3, 3, 3)
        assert product_bracket(f, k, p) == pytest.approx(-p.nu[0], abs=1e-8)


def test_product_bracket_reduces_to_lie_poisson():
    rng = np.random.default_rng(5)
    f = random_polynomial_field(rng, 3)
    k = random_polynomial_field(rng, 3)

    def lift(field):
        # same polynomial, read off the momentum slots only
        return ScalarField(lambda p: field.eval(
            ReducedPoint(p.nu, np.zeros(0), np.zeros(0))))

    for _ in range(10):
        nu = lie.random_algebra(rng, SO3)
        p = ReducedPoint(nu, rng.standard_normal(3), rng.standard_normal(3))
        assert product_bracket(lift(f), lift(k), p) == pytest.approx(
            lie_poisson(f, k, nu), abs=1e-8)


# --------------------------------------------------------- hamiltonian field

def test_kinetic_field_is_equilibrium_everywhere():
    p = reduced_point(SO3, [0.4, -0.2, 1.0])
    npt.assert_allclose(rates(HALF_SQ, p), np.zeros(3), atol=1e-12)


@pytest.mark.parametrize("kind,nt,nl", [(SO3, 3, 3), (SE3, 2, 2)])
def test_field_components_equal_coordinate_brackets(kind, nt, nl):
    rng = np.random.default_rng(6)
    dim = (3 if kind == SO3 else 6) + nt + nl
    for _ in range(100):
        h = random_polynomial_field(rng, dim)
        p = random_point(rng, kind, nt, nl)
        out = rates(h, p)
        for i in range(dim):
            want = product_bracket(coord_field(i), h, p)
            assert abs(out[i] - want) <= 1e-8


def test_field_components_with_fd_hamiltonian():
    rng = np.random.default_rng(7)
    for _ in range(20):
        h = without_gradient(random_polynomial_field(rng, 10))
        p = random_point(rng, SE3, 2, 2)
        out = rates(h, p)
        for i in range(10):
            want = product_bracket(coord_field(i), h, p)
            assert abs(out[i] - want) <= 1e-8


def np_cross_rates(layout, x, g):
    """The rates of the kernel of ``layout`` from np.cross, at (d,) or
    (n, d) states x with gradients g: ad*_g(x), which is pi x omega or
    (pi x omega + gamma x vel, gamma x omega), then (g_l, -g_theta) on
    paired rotors and zeros on constant momenta."""
    nc = lie.algebra_dim(layout.kind)
    lo = nc + layout.n_theta
    parts = [np.cross(x[..., :3], g[..., :3])]
    if nc == 6:
        parts = [parts[0] + np.cross(x[..., 3:6], g[..., 3:6]),
                 np.cross(x[..., 3:6], g[..., :3])]
    if 0 < layout.n_theta == layout.n_l:
        return np.concatenate(parts + [g[..., lo:], -g[..., nc:lo]], axis=-1)
    return np.concatenate(parts + [np.zeros_like(g[..., nc:])], axis=-1)


@pytest.mark.parametrize("layout", [
    (SO3, 3, 3), (SO3, 1, 1), (SO3, 0, 3), (SO3, 0, 0), (SE3, 2, 2),
    (SE3, 0, 2), (SE3, 0, 0)], ids=lambda t: "-".join(map(str, t)))
def test_rate_kernels_equal_np_cross_bitwise(layout):
    # each of the four displays (so(3)* or se(3)*, paired rotors or
    # constant momenta) against np.cross, on one state's floats and on
    # the (n,) columns of a stack, to the bit and the sign of zero
    layout = poisson.Layout(*layout)
    d = lie.algebra_dim(layout.kind) + layout.n_theta + layout.n_l
    kernel = poisson._hamiltonian_rates(layout)
    rng = np.random.default_rng(13)
    x = rng.standard_normal((401, d))
    g = rng.standard_normal((401, d))
    g[201:] *= 1e-9
    x[0], g[0] = 0.0, -0.0
    want = np_cross_rates(layout, x, g)
    for i in range(len(x)):
        got = np.array(kernel(x[i].tolist(), g[i].tolist()))
        assert got.tobytes() == want[i].tobytes()
    columns = kernel(list(x.T), list(g.T))
    assert len(columns) == d
    got = np.stack(np.broadcast_arrays(*columns), axis=1)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind,nt,nl", [(SO3, 3, 3), (SE3, 2, 2)])
def test_hamiltonian_field_is_the_rate_kernel(kind, nt, nl):
    # the Hamiltonian rates are the layout's kernel at the flat gradient,
    # whose Lie-Poisson part is ad*_{dh/dnu} nu, bit for bit np.cross's
    rng = np.random.default_rng(17)
    layout = poisson.Layout(kind, nt, nl)
    for _ in range(50):
        h = random_polynomial_field(rng, lie.algebra_dim(kind) + nt + nl)
        x = random_point(rng, kind, nt, nl).flat().tolist()
        grad = poisson.flat_gradient(h, layout)(x)
        out = poisson.flat_hamiltonian_field(h, layout)(x)
        want = np_cross_rates(layout, np.array(x), np.array(grad))
        assert np.array(out).tobytes() == want.tobytes()


def test_unpaired_momentum_slot_is_constant():
    # rotor momenta without conjugate angles must not move
    rng = np.random.default_rng(8)
    h = random_polynomial_field(rng, 6)
    p = ReducedPoint(lie.random_algebra(rng, SO3), np.zeros(0),
                     rng.standard_normal(3))
    out = tangent_like(p, rates(h, p))
    npt.assert_array_equal(out.d_l, np.zeros(3))
    npt.assert_array_equal(out.d_theta, np.zeros(0))


# ------------------------------------------------------------------ kks form
# the orbit form -<nu, [xi, eta]> on the tangent pair (ad*_xi nu,
# ad*_eta nu) is the bracket of the linear fields <xi, .> and <eta, .>

def test_kks_basis_case():
    nu = lie.coalgebra(SO3, E3)
    xi, eta = linear_field(E1), linear_field(E2)
    assert lie_poisson(xi, eta, nu) == pytest.approx(-1.0)
    assert lie_poisson(xi, xi, nu) == pytest.approx(0.0)


def test_kks_antisymmetry():
    rng = np.random.default_rng(9)
    for kind in (SO3, SE3):
        for _ in range(100):
            nu = lie.random_algebra(rng, kind)
            xi = lie.random_algebra(rng, kind)
            eta = lie.random_algebra(rng, kind)
            minus = lie_poisson(linear_field(xi), linear_field(eta), nu)
            assert lie_poisson(linear_field(eta), linear_field(xi),
                               nu) == pytest.approx(-minus)
            # the matrix commutator of the hat images is [xi, eta]
            mx, my = lie.hat(xi), lie.hat(eta)
            assert minus == pytest.approx(-(nu @ lie.vee(mx @ my - my @ mx)))


# ------------------------------------------------------------------ casimirs

def test_casimir_values():
    (_, pi_sq), = poisson.casimir_fields(SO3)
    assert pi_sq.eval_batch(np.array([[3.0, 4.0, 0.0]]))[0] == \
        pytest.approx(25.0)
    vals = {name: c.eval_batch(np.array([[*E1, *E2]]))[0]
            for name, c in poisson.casimir_fields(SE3)}
    assert vals["pi_dot_gamma"] == pytest.approx(0.0)
    assert vals["gamma_sq"] == pytest.approx(1.0)


@pytest.mark.parametrize("kind,nt,nl", [(SO3, 3, 3), (SE3, 2, 2)])
def test_casimirs_commute_with_random_observables(kind, nt, nl):
    rng = np.random.default_rng(10)
    dim = (3 if kind == SO3 else 6) + nt + nl
    for _ in range(100):
        k = random_polynomial_field(rng, dim)
        p = random_point(rng, kind, nt, nl)
        for _, c in poisson.casimir_fields(kind):
            assert abs(product_bracket(c, k, p)) <= 1e-8


# --------------------------------------------------------------- axiom suite

@pytest.mark.parametrize("name,n_instances,seed", [
    *(pytest.param(name, 60, 11, id=name)
      for name in sorted(poisson.BRACKET_SPACES)),
    # sample 234 of seed 10 is a Jacobi instance that differencing a
    # finite-difference bracket puts above the 2e-5 bound
    pytest.param("so3_lie_poisson", 235, 10, id="so3_lie_poisson-seed10"),
    # the full sweeps of the seeds that failed Jacobi under that scheme
    *(pytest.param("so3_lie_poisson", 1000, seed,
                   id=f"so3_lie_poisson-1000-seed{seed}")
      for seed in (10, 17, 24)),
])
def test_axiom_suite_small_sweep(name, n_instances, seed):
    report = bracket_axiom_suite(name, n_instances=n_instances, seed=seed)
    assert report["max_antisymmetry"] <= 1e-12
    assert report["max_leibniz"] <= 1e-8
    assert report["max_jacobi"] <= 2e-5
    assert report["max_casimir"] <= 1e-8
    assert poisson.axiom_suite_passes(report)


def test_axiom_suite_detects_injected_error(monkeypatch):
    test_mutations.plant_bracket_sign_error(monkeypatch)
    for name in sorted(poisson.BRACKET_SPACES):
        report = bracket_axiom_suite(name, n_instances=40, seed=12)
        assert report["max_jacobi"] > 2e-5, name
        assert not poisson.axiom_suite_passes(report)


def test_axiom_suite_worst_sample_names_the_draw_order():
    # every instance is drawn before any axiom runs: a shorter sweep of
    # the same seed holds the same first instances, so its worst samples
    # (178 for Leibniz and Jacobi at 1000 instances) must not move
    full = bracket_axiom_suite("so3_lie_poisson", n_instances=1000, seed=0)
    head = bracket_axiom_suite("so3_lie_poisson", n_instances=179, seed=0)
    for axiom in ("leibniz", "jacobi"):
        assert full[f"worst_{axiom}_sample"] == 178
        assert head[f"worst_{axiom}_sample"] == 178
        assert head[f"max_{axiom}"] == full[f"max_{axiom}"]


def test_axiom_suite_needs_an_instance():
    with pytest.raises(ValueError, match="n_instances"):
        bracket_axiom_suite("so3_product", n_instances=0)


def test_axiom_suite_seed_reproducible():
    a = bracket_axiom_suite("se3_product", n_instances=20, seed=13)
    b = bracket_axiom_suite("se3_product", n_instances=20, seed=13)
    assert a == b


@pytest.mark.parametrize("name", sorted(poisson.BRACKET_SPACES))
def test_suite_machinery_matches_object_path(name):
    # the vectorized bracket the suite runs on, applied to a stack of
    # instances at once, must agree with the one-point product_bracket
    kind, nt, nl = poisson.BRACKET_SPACES[name]
    dim = (3 if kind == SO3 else 6) + nt + nl
    bk_vals = poisson._flat_bracket(poisson.BRACKET_SPACES[name])
    rng = np.random.default_rng(15)
    cases = [(random_polynomial_field(rng, dim),
              random_polynomial_field(rng, dim),
              random_point(rng, kind, nt, nl)) for _ in range(25)]

    def fd(h, p):
        return central_difference(h.eval_batch, p.flat()[None, :])[0]

    stacked = [np.array(rows).reshape(5, 5, dim) for rows in zip(
        *((fd(f, p), fd(k, p), p.flat()) for f, k, p in cases))]
    fast = bk_vals(*stacked).ravel()
    for (f, k, p), value in zip(cases, fast):
        slow = product_bracket(without_gradient(f), without_gradient(k), p)
        assert value == pytest.approx(slow, abs=1e-12)


@pytest.mark.parametrize("name", sorted(poisson.BRACKET_SPACES))
def test_suite_bracket_is_the_bracket_kernel(name):
    # the suite's stacked bracket is the bracket kernel row by row: with
    # nu a basis momentum the row dot reads one component exactly, so
    # each component must match bit for bit; at random nu the stacked
    # row dot (einsum) and a 1-d dot may round apart by an ulp
    kind, nt, nl = poisson.BRACKET_SPACES[name]
    nc = lie.algebra_dim(kind)
    bk_vals = poisson._flat_bracket(poisson.BRACKET_SPACES[name])
    rng = np.random.default_rng(18)
    gf, gk, pts = rng.standard_normal((3, 40, nc + nt + nl))
    gf[:, nc:] = gk[:, nc:] = 0.0  # no canonical rotor part
    basis = np.zeros((nc, 40, nc + nt + nl))
    basis[:, :, :nc] = np.eye(nc)[:, None, :]
    stacked = bk_vals(*np.broadcast_arrays(gf, gk, basis)).T
    for i, (a, b, x) in enumerate(zip(gf, gk, pts)):
        br = np.array(lie._bracket_list(a[:nc].tolist(), b[:nc].tolist()))
        npt.assert_array_equal(stacked[i], -br)
        npt.assert_allclose(bk_vals(a, b, x), -(x[:nc] @ br),
                            rtol=0, atol=1e-14)


@pytest.mark.parametrize("name", sorted(poisson.BRACKET_SPACES))
def test_stacked_polynomials_match_polynomial_field(name):
    # the suite evaluates all instances' f, g, k at once; each row must
    # equal the instance's own polynomial_field, bit for bit, with and
    # without cubic terms
    kind, nt, nl = poisson.BRACKET_SPACES[name]
    dim = (3 if kind == SO3 else 6) + nt + nl
    rng = np.random.default_rng(16)
    for q, m in itertools.product((0, 2), (1, 2 * dim)):
        stack = poisson._polynomials(
            rng.integers(0, dim, size=(6, q, 3)),
            rng.standard_normal((6, q + 1 + dim * (dim + 1))))
        pts = rng.standard_normal((6, m, dim))
        values, grads = stack.value(pts), stack.grad(pts)
        for c0, a, b, idx, coef, x, v, g in zip(*stack, pts, values, grads):
            npt.assert_array_equal(b, b.T)
            field = poisson.polynomial_field(c0, a, b, idx, coef)
            npt.assert_array_equal(v, field.eval_batch(x))
            npt.assert_array_equal(g, field.grad_batch(x))
            # the formula itself, term by term
            cubic = sum(t * x[:, i] * x[:, j] * x[:, k]
                        for (i, j, k), t in zip(idx, coef))
            npt.assert_allclose(v, c0 + x @ a + 0.5 * np.einsum(
                "mi,ij,mj->m", x, b, x) + cubic, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(poisson.BRACKET_SPACES))
def test_suite_draws_instances_in_order(name, monkeypatch):
    # the suite's stacked f, g, k are the fields that random_polynomial_
    # field draws when each instance's point comes first, bit for bit
    kind, nt, nl = poisson.BRACKET_SPACES[name]
    dim, n = (3 if kind == SO3 else 6) + nt + nl, 30
    built, polynomials = [], poisson._polynomials
    monkeypatch.setattr(poisson, "_polynomials",
                        lambda idx, z: built.append(polynomials(idx, z))
                        or built[-1])
    bracket_axiom_suite(name, n_instances=n, seed=21)
    monkeypatch.undo()
    rng = np.random.default_rng(21)
    fields = []
    for _ in range(n):
        rng.standard_normal(dim)
        fields.append([random_polynomial_field(rng, dim) for _ in range(3)])
    pts = np.random.default_rng(22).standard_normal((7, dim))
    for stack, row in zip(built, zip(*fields)):
        stacked = np.repeat(pts[None], n, axis=0)
        values, grads = stack.value(stacked), stack.grad(stacked)
        for field, v, g in zip(row, values, grads):
            npt.assert_array_equal(v, field.eval_batch(pts))
            npt.assert_array_equal(g, field.grad_batch(pts))
    assert len(built) == 3


class _Drawn(Exception):
    """Stops the axiom suite once its draws are captured."""


@pytest.mark.parametrize("name", sorted(poisson.BRACKET_SPACES))
def test_suite_cubic_indices_are_numpys_integers(name, monkeypatch):
    # the indices read from raw words, as the suite hands them to
    # _polynomials, equal bit for bit the ones the draw loop built on
    # rng.integers got, for seeds 0-4; the suite stops before any axiom
    kind, nt, nl = poisson.BRACKET_SPACES[name]
    dim, n = (3 if kind == SO3 else 6) + nt + nl, 2000
    built = []

    def capture(idx, z):
        built.append(idx)
        if len(built) % 3 == 0:
            raise _Drawn

    monkeypatch.setattr(poisson, "_polynomials", capture)
    for seed in range(5):
        with pytest.raises(_Drawn):
            bracket_axiom_suite(name, n_instances=n, seed=seed)
        rng = np.random.default_rng(seed)
        want = np.empty((3, n, 2, 3), dtype=np.int64)
        for i in range(n):
            rng.standard_normal(dim)
            for j in range(3):
                want[j, i] = rng.integers(0, dim, size=(2, 3))
                rng.standard_normal(3 + dim * (dim + 1))
        got = np.stack(built[-3:])
        assert got.dtype == want.dtype
        npt.assert_array_equal(got, want)


@pytest.mark.parametrize("d", [3, 9, 10])
def test_cubic_indices_flag_a_redraw(d):
    # numpy redraws a 32-bit half u when (u * d) mod 2^32 < 2^32 mod d
    # (1, 4 and 6 here), which u = 0 meets and u = 1, 2 and 2^32 - 1 miss
    top, clean = 0xFFFFFFFF, (1 << 32) | 1
    for word, flagged in [(0, True), (1, True), (1 << 32, True),
                          (top, True), (top << 32, True), (clean, False),
                          ((2 << 32) | 2, False), ((2 << 32) | 1, False),
                          ((top << 32) | top, False), ((1 << 32) | 2, False)]:
        words = np.array([clean, word, clean], dtype=np.uint64)
        idx = poisson._cubic_indices(words, d)
        assert (idx is None) == flagged, (hex(word), d)
        if not flagged:  # u = 1 maps to 0
            lo, hi = word & top, word >> 32
            npt.assert_array_equal(idx, [[0, 0, lo * d >> 32],
                                         [hi * d >> 32, 0, 0]])
            assert idx.dtype == np.int64


@pytest.mark.parametrize("name", sorted(poisson.BRACKET_SPACES))
def test_suite_falls_back_to_integers_on_a_redraw(name, monkeypatch):
    # with every raw read reported as a redraw, the suite draws its
    # indices by rng.integers itself, and every report field stays
    want = bracket_axiom_suite(name, n_instances=500, seed=3)
    reads = []
    monkeypatch.setattr(poisson, "_cubic_indices",
                        lambda words, d: reads.append(words.shape) or None)
    assert bracket_axiom_suite(name, n_instances=500, seed=3) == want
    assert reads == [(3, 500, 3)]


def test_quadratic_random_field_has_no_cubic_terms():
    h = random_polynomial_field(np.random.default_rng(3), 6, cubic_terms=0)
    x = np.random.default_rng(4).standard_normal((5, 6))
    # a quadratic's gradient is affine: g(x) + g(-x) = 2 g(0)
    npt.assert_allclose(h.grad_batch(x) + h.grad_batch(-x),
                        2 * h.grad_batch(np.zeros((1, 6))).repeat(5, 0),
                        rtol=0, atol=1e-15)


@pytest.mark.parametrize("kwargs, match", [
    ({"a": np.zeros((3, 1))}, "shapes"),
    ({"b": np.zeros((3, 4))}, "shapes"),
    ({"b": np.zeros((4, 4))}, "shapes"),
    ({"cubic_idx": [[0, 1, 2], [1, 1, 2]]}, "cubic_coef"),
    ({"cubic_idx": [[0, 1, -1]]}, "cubic_idx"),
    ({"cubic_idx": [[0, 1, 3]]}, "cubic_idx"),
    ({"cubic_idx": [[0, 1]], "cubic_coef": [1.0]}, "cubic_idx"),
    ({"cubic_idx": [[0.0, 1.0, 2.0]]}, "cubic_idx"),
    ({"cubic_coef": [1.0, 2.0]}, "cubic_coef"),
])
def test_polynomial_field_rejects_inconsistent_coefficients(kwargs, match):
    args = {"c0": 0.5, "a": np.ones(3), "b": np.eye(3),
            "cubic_idx": [[0, 1, 2]], "cubic_coef": [1.0]}
    with pytest.raises(ValueError, match=match):
        poisson.polynomial_field(**{**args, **kwargs})
    assert poisson.polynomial_field(**args).eval_batch(
        np.ones((1, 3)))[0] == 6.0


# ----------------------------------------------------------------- plumbing

def test_point_flat_round_trip():
    p = reduced_point(SE3, [1, 2, 3], [4, 5, 6], theta=[7, 8], l=[9, 10])
    q = point_like(p, p.flat())
    npt.assert_array_equal(q.flat(), p.flat())
    assert q.kind == SE3 and q.n_theta == 2 and q.n_l == 2


def test_tangent_flat_round_trip():
    p = reduced_point(SO3, [1.0, 0.0, 0.0], theta=[0.0], l=[2.0])
    t = tangent_like(p.layout, np.arange(5.0))
    npt.assert_array_equal(t.flat(), np.arange(5.0))
    assert t.d_gamma is None and t.d_theta.size == 1 and t.d_l.size == 1


def test_non_finite_point_rejected():
    with pytest.raises(ValueError):
        reduced_point(SO3, [np.inf, 0, 0])
    # the momentum's checks live in ReducedPoint: its shape gives the kind
    for nu in ([np.nan, 0, 0], [0, 0, 0, 0, 0, np.inf]):
        with pytest.raises(ValueError, match="non-finite"):
            ReducedPoint(np.array(nu), np.zeros(0), np.zeros(0))
    for nu in (np.zeros(4), np.zeros((3, 1))):
        with pytest.raises(ValueError, match=r"shape \(3,\) or \(6,\)"):
            ReducedPoint(nu, np.zeros(0), np.zeros(0))
