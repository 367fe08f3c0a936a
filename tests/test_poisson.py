import itertools
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from gyrostat import lie, poisson
from gyrostat.lie import SO3, SE3
from gyrostat.poisson import (ReducedPoint, ScalarField, analytic_field,
                              bracket_axiom_suite, central_difference,
                              flat_gradient, flat_hamiltonian_field,
                              point_like, product_bracket,
                              random_polynomial_field, reduced_point)
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
    return ScalarField(lambda p: float(w @ p.flat()), lambda x: x @ w,
                       grad_row=lambda x: grad)


def row_field(grad_row):
    """A zero-valued field whose gradient rows come from grad_row alone."""
    return ScalarField(lambda p: 0.0, lambda x: np.zeros(len(x)),
                       grad_row=grad_row)


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


def test_polynomial_gradient_is_one_row_of_grad_batch_bitwise():
    # a field without grad_row reads one row of its grad_batch, bit for
    # bit: the (1, 1, d) computation of a one-row stack
    rng = np.random.default_rng(19)
    for kind, nt, nl in ((SO3, 3, 3), (SE3, 2, 2)):
        dim = lie.algebra_dim(kind) + nt + nl
        for _ in range(20):
            f = random_polynomial_field(rng, dim)
            p = random_point(rng, kind, nt, nl)
            row = flat_gradient(f, p.layout)(p.flat().tolist())
            assert row == f.grad_batch(p.flat()[None])[0].tolist()


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
    f = ScalarField(lambda p: float("nan"), lambda x: np.full(len(x), np.nan))
    with pytest.raises(ValueError, match="non-finite"):
        product_bracket(f, f, reduced_point(SO3, E1))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_flat_field_rejects_a_non_finite_row_gradient(bad):
    # the row path's one check, before the rates read the gradient
    h = row_field(lambda x: [0.0, bad, 0.0])
    field = flat_hamiltonian_field(h, poisson.Layout(SO3, 0, 0))
    with pytest.raises(ValueError, match="^non-finite gradient$"):
        field([1.0, 0.0, 0.0])


def test_flat_field_accepts_a_finite_gradient_whose_sum_overflows():
    # the guard's sum overflows to inf, so the exact per-entry test
    # decides: every entry is finite, and the rates are np.cross's
    g = [1e308, 1e308, 0.0]
    layout = poisson.Layout(SO3, 0, 0)
    h = row_field(lambda x: g)
    x = [1.0, 0.5, -0.25]
    out = flat_hamiltonian_field(h, layout)(x)
    want = np_cross_rates(layout, np.array(x), np.array(g))
    assert np.array(out).tobytes() == want.tobytes()


@pytest.mark.parametrize("g", [
    *([bad if i == slot else 0.0 for i in range(3)]
      for bad in (float("nan"), float("inf"), float("-inf"))
      for slot in range(3)),
    [float("inf"), float("-inf"), 0.0]],
    ids=lambda g: ",".join(map(str, g)))
def test_flat_field_rejects_a_non_finite_entry_in_any_slot(g):
    # nan, +inf and -inf each make the guard's sum non-finite, and so do
    # an inf and a -inf together, whose sum is nan
    h = row_field(lambda x: g)
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
    f = ScalarField(lambda p: float(p.nu[0] * p.l[1]),
                    lambda x: x[:, 0] * x[:, 7])
    k = ScalarField(lambda p: float(p.theta[1]), lambda x: x[:, 4])
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
            ReducedPoint(p.nu, np.zeros(0), np.zeros(0))),
            lambda x: field.eval_batch(x[:, :3]))

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


def test_rate_kernel_is_generated_once_per_layout(monkeypatch):
    made = []

    def counted(*key):
        made.append(key)
        return generate(*key)

    generate = poisson._generated_rates
    monkeypatch.setattr(poisson, "_RATES", {})
    monkeypatch.setattr(poisson, "_generated_rates", counted)
    for layout in [(SO3, 3, 3), (SE3, 2, 2), (SO3, 3, 3), (SO3, 0, 3),
                   (SE3, 2, 2), (SO3, 0, 3)]:
        flat_hamiltonian_field(HALF_SQ, poisson.Layout(*layout))
    assert made == [(3, 3, 3), (6, 2, 2), (3, 0, 3)]
    assert sorted(poisson._RATES) == [(3, 0, 3), (3, 3, 3), (6, 2, 2)]


@pytest.mark.parametrize("delta", [-1, 1], ids=["d-1 entries", "d+1 entries"])
@pytest.mark.parametrize("layout", [(SO3, 3, 3), (SO3, 0, 3), (SO3, 0, 0),
                                    (SE3, 2, 2), (SE3, 0, 0)],
                         ids=lambda t: "-".join(map(str, t)))
def test_flat_field_rejects_a_gradient_of_another_length(layout, delta):
    # the kernel's bracketed targets unpack exactly d gradient entries
    layout = poisson.Layout(*layout)
    d = lie.algebra_dim(layout.kind) + layout.n_theta + layout.n_l
    h = row_field(lambda x: [0.5] * (len(x) + delta))
    with pytest.raises(ValueError, match="values to unpack"):
        flat_hamiltonian_field(h, layout)([0.25] * d)


def test_unpaired_momentum_slot_is_constant():
    # rotor momenta without conjugate angles must not move
    rng = np.random.default_rng(8)
    h = random_polynomial_field(rng, 6)
    p = ReducedPoint(lie.random_algebra(rng, SO3), np.zeros(0),
                     rng.standard_normal(3))
    npt.assert_array_equal(rates(h, p)[3:], np.zeros(3))


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
    # seeds whose sweeps failed Jacobi when it differenced a
    # finite-difference bracket, on the stream drawn one instance at a
    # time (sample 234 of seed 10 was the first); kept as plain sweeps
    pytest.param("so3_lie_poisson", 235, 10, id="so3_lie_poisson-seed10"),
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


@pytest.mark.parametrize("seed", [438, 838, 889])
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "CHANGES.md FOUND: Leibniz sits on its finite-difference rounding "
    "floor, so correct code exceeds its 1e-8 bound at these seeds "
    "(1.20e-8, 2.65e-8, 1.05e-8); no bound moved"))
def test_axiom_suite_leibniz_floor_fails_known_seeds(seed):
    report = bracket_axiom_suite("so3_lie_poisson", 1000, seed)
    assert poisson.axiom_suite_passes(report)


def test_axiom_suite_detects_injected_error(monkeypatch):
    test_mutations.plant_bracket_sign_error(monkeypatch)
    for name in sorted(poisson.BRACKET_SPACES):
        report = bracket_axiom_suite(name, n_instances=40, seed=12)
        assert report["max_jacobi"] > 2e-5, name
        assert not poisson.axiom_suite_passes(report)


def _drawn(seed, n, d):
    """What the axiom suite draws from seed for n instances of dimension
    d: the points, the cubic indices and the normals of f, g and k."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n, d)), rng.integers(0, d, (3, n, 2, 3)),
            rng.standard_normal((3, n, 3 + d * (d + 1)))]


def test_axiom_suite_worst_sample_names_a_drawn_row(monkeypatch):
    # the worst index w is a row of the drawn arrays: a one-instance
    # sweep that draws row w of each reads the reported maximum
    full = bracket_axiom_suite("so3_lie_poisson", n_instances=1000, seed=0)
    drawn = _drawn(0, 1000, 3)
    for axiom in ("leibniz", "jacobi", "casimir"):
        w = full[f"worst_{axiom}_sample"]
        rows = iter([drawn[0][w:w + 1], drawn[1][:, w:w + 1],
                     drawn[2][:, w:w + 1]])

        def replay(*args, size=None):
            row = next(rows)
            assert (args[-1] if size is None else size) == row.shape
            return row

        fake = SimpleNamespace(standard_normal=replay, integers=replay)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: fake)
        one = bracket_axiom_suite("so3_lie_poisson", n_instances=1, seed=0)
        monkeypatch.undo()
        assert one[f"max_{axiom}"] == full[f"max_{axiom}"] > 0.0
        assert one[f"worst_{axiom}_sample"] == 0


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


@pytest.mark.parametrize("d", [3, 9, 10])
@pytest.mark.parametrize("q", [0, 2])
@pytest.mark.parametrize("n", [1, 7])
def test_polynomials_round_by_the_rounding_contract(d, q, n):
    # the steps that fix the golden bits, term by term: the BLAS calls on
    # (n, m, d) stacks, the sequential (i, j) sum of (x_i * b_ij) * x_j,
    # and the affine gradient a + pts @ b
    rng = np.random.default_rng(d + 10 * q + 100 * n)
    stack = poisson._polynomials(
        rng.integers(0, d, size=(n, q, 3)),
        rng.standard_normal((n, q + 1 + d * (d + 1))))
    c0, a, b, idx, coef = stack
    for m in (1, 2 * d):
        pts = rng.standard_normal((n, m, d))
        quad = np.zeros((n, m))
        for i, j in itertools.product(range(d), repeat=2):
            quad += (pts[..., i] * b[:, None, i, j]) * pts[..., j]
        rows = np.arange(n)[:, None]
        x = [pts[rows, :, idx[:, :, s]] for s in range(3)]
        cubic = (x[0] * x[1] * x[2]).swapaxes(1, 2) @ coef[:, :, None]
        value = (c0[:, None] + (pts @ a[:, :, None])[..., 0] + 0.5 * quad
                 + cubic[..., 0])
        npt.assert_array_equal(stack.value(pts), value)
        grad = a[:, None, :] + pts @ b
        for g, p, ijk, ts in zip(grad, pts, idx, coef):
            for (i, j, k), t in zip(ijk, ts):
                g[:, i] += t * p[:, j] * p[:, k]
                g[:, j] += t * p[:, i] * p[:, k]
                g[:, k] += t * p[:, i] * p[:, j]
        npt.assert_array_equal(stack.grad(pts), grad)


@pytest.mark.parametrize("name", sorted(poisson.BRACKET_SPACES))
def test_suite_draws_each_quantity_in_one_call(name, monkeypatch):
    # the suite's stacked f, g and k are the polynomials of its array
    # draws: the indices and normals that follow the points, bit for bit
    kind, nt, nl = poisson.BRACKET_SPACES[name]
    dim, n = (3 if kind == SO3 else 6) + nt + nl, 30
    built, polynomials = [], poisson._polynomials
    monkeypatch.setattr(poisson, "_polynomials",
                        lambda idx, z: built.append((idx, z))
                        or polynomials(idx, z))
    bracket_axiom_suite(name, n_instances=n, seed=21)
    _, idx, z = _drawn(21, n, dim)
    assert len(built) == 3
    for j, (got_idx, got_z) in enumerate(built):
        assert got_idx.dtype == idx.dtype
        npt.assert_array_equal(got_idx, idx[j])
        npt.assert_array_equal(got_z, z[j])


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


@pytest.mark.parametrize("gradient", [None, "grad_row", "grad_batch"])
def test_scalar_field_needs_a_batched_value(gradient):
    # the package reads a field's value only through eval_batch, also
    # when the field brings its own gradient
    kwargs = {gradient: lambda x: x} if gradient else {}
    with pytest.raises(TypeError, match="'eval_batch'"):
        ScalarField(lambda p: 0.0, **kwargs)


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
