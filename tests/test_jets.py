import time
from itertools import product
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagcheck.jets import Jet, JetSpace, jet_einsum, jet_space, potential_from_gradient
from reference import deriv, random_orthogonal, stack, traced_peak


def seed(nvars, order, values):
    sp = jet_space(nvars, order)
    return sp, Jet.variables(sp, np.asarray(values, dtype=float))


def test_polynomial_derivatives_exact():
    sp, (x, y) = seed(2, 4, [1.5, -0.5])
    f = x * x * y + y * y * y  # f = x^2 y + y^3
    assert f.value == pytest.approx(1.5**2 * -0.5 + (-0.5) ** 3)
    assert deriv(f, (1, 0)) == pytest.approx(2 * 1.5 * -0.5)
    assert deriv(f, (0, 1)) == pytest.approx(1.5**2 + 3 * 0.25)
    assert deriv(f, (2, 1)) == pytest.approx(2.0)
    assert deriv(f, (0, 3)) == pytest.approx(6.0)
    assert deriv(f, (2, 2)) == pytest.approx(0.0)


def test_rational_function_fourth_order():
    # f(t) = 1 / (1 + t^2); f''''(0) = 24
    sp, (t,) = seed(1, 4, [0.0])
    f = 1.0 / (1.0 + t * t)
    assert deriv(f, (0,)) == pytest.approx(1.0)
    assert deriv(f, (2,)) == pytest.approx(-2.0)
    assert deriv(f, (4,)) == pytest.approx(24.0)


def test_transcendental_composition():
    sp, (t,) = seed(1, 4, [0.3])
    f = (t * t).sin() + t.exp()
    t0 = 0.3
    # d/dt sin(t^2) = 2t cos(t^2), second derivative 2cos(t^2) - 4t^2 sin(t^2)
    assert deriv(f, (1,)) == pytest.approx(2 * t0 * np.cos(t0**2) + np.exp(t0))
    assert deriv(f, (2,)) == pytest.approx(
        2 * np.cos(t0**2) - 4 * t0**2 * np.sin(t0**2) + np.exp(t0)
    )


def test_sqrt_and_division_roundtrip():
    sp, (x, y) = seed(2, 4, [0.7, 0.2])
    g = 1.0 + x * x + y * y
    r = g.sqrt()
    back = r * r - g
    assert np.max(np.abs(back.c)) < 1e-13
    q = x / g
    recon = q * g - x
    assert np.max(np.abs(recon.c)) < 1e-13


def test_mixed_partials_symmetric_by_construction():
    sp, (x, y, z) = seed(3, 3, [0.2, -0.4, 1.1])
    f = (x * y * z + x * x * y).sin()
    assert deriv(f, (1, 1, 1)) == deriv(f, (1, 1, 1))
    d1 = f.partial(0).partial(1).value
    d2 = f.partial(1).partial(0).value
    assert d1 == pytest.approx(d2, abs=1e-15)


def test_seed_shape_is_nvars_first():
    """A seed is (nvars,) or (nvars, B); a (B, nvars) batch is refused, not
    silently read as B coordinates."""
    sp = jet_space(2, 1)
    assert Jet.variables(sp, np.array([0.1, 0.2])).c.shape == (2, 3, 1)
    assert Jet.variables(sp, np.zeros((2, 5))).c.shape == (2, 3, 5)
    for bad in (np.zeros((3, 2)), np.zeros((1, 2)), np.zeros(3), np.zeros((2, 2, 1))):
        with pytest.raises(ValueError, match="seed array"):
            Jet.variables(sp, bad)
    square = np.array([[0.1, 0.2], [0.3, 0.4]])  # two points, coordinates by column
    np.testing.assert_array_equal(Jet.variables(sp, square).value, square)


def test_batch_matches_scalar_evaluation():
    sp = jet_space(2, 3)
    pts = np.array([[0.1, 0.2], [1.0, -0.3], [0.5, 0.5]]).T  # (nvars, B)
    xs = Jet.variables(sp, pts)
    f = (xs[0] * xs[1]).cos() + xs[0] / (1.0 + xs[1] * xs[1])
    for b in range(3):
        xb = Jet.variables(sp, pts[:, b : b + 1])
        fb = (xb[0] * xb[1]).cos() + xb[0] / (1.0 + xb[1] * xb[1])
        assert np.allclose(f.c[:, b], fb.c[:, 0], atol=1e-15)


def test_partial_reduces_valid_order():
    sp, (x, y) = seed(2, 3, [0.3, 0.4])
    f = x * x * y
    fx = f.partial(0)
    assert fx.order == 2
    assert deriv(fx, (1, 1)) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        deriv(fx, (2, 1))


def test_truncation_blocks_stale_coefficients():
    sp, (x, y) = seed(2, 4, [0.2, 0.1])
    f = (x + y) * (x + y) * (x + y)
    g = f.partial(0)  # order 3 valid
    h = g * g  # order 3 valid, degree-4 rows must be absent
    assert h.order == 3
    assert h.c.shape == (sp.ncoef_by_degree[3], 1)
    # the rows it keeps are those of 9 (x + y)^4 in an order-3 space
    _, (x3, y3) = seed(2, 3, [0.2, 0.1])
    s = x3 + y3
    np.testing.assert_allclose(h.c, (s * s * s * s).scaled(9.0).c, rtol=1e-14, atol=1e-14)


def random_jet(rng, sp, shape, order, batch):
    c = rng.normal(size=tuple(shape) + (sp.ncoef_by_degree[order], batch))
    return Jet(sp, c, order)


def einsum_oracle(spec, a, b):
    """Nested loops of scalar Jet products and sums over every index."""
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    dims = dict(zip(sa, a.shape)) | dict(zip(sb, b.shape))
    summed = sorted(set(sa + sb) - set(out))
    coeffs, order, rows = {}, None, None
    for oidx in product(*(range(dims[x]) for x in out)):
        acc = None
        for sidx in product(*(range(dims[x]) for x in summed)):
            at = dict(zip(out, oidx)) | dict(zip(summed, sidx))
            term = a[tuple(at[x] for x in sa)] * b[tuple(at[x] for x in sb)]
            acc = term if acc is None else acc + term
        coeffs[oidx], order, rows = acc.c, acc.order, acc.c.shape
    shape = tuple(dims[x] for x in out)
    return np.array([coeffs[i] for i in product(*(range(d) for d in shape))]).reshape(
        shape + rows
    ), order


CONTRACTIONS = {
    "dot": ("i,i->", (3,), (3,)),
    "outer": ("i,j->ij", (3,), (2,)),
    "matvec": ("ij,j->i", (2, 3), (3,)),
    "three_index": ("ijk,kjl->il", (2, 3, 2), (2, 3, 2)),
}


@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("nvars", [2, 3])
@pytest.mark.parametrize("kind", sorted(CONTRACTIONS))
def test_jet_einsum_matches_scalar_loops(kind, nvars, batch):
    spec, sha, shb = CONTRACTIONS[kind]
    rng = np.random.default_rng([sorted(CONTRACTIONS).index(kind), nvars, batch])
    for order in range(5):
        sp = jet_space(nvars, order)
        for order_b in sorted({order, order // 2}):
            a = random_jet(rng, sp, sha, order, batch)
            b = random_jet(rng, sp, shb, order_b, batch)
            got = jet_einsum(spec, a, b)
            want, want_order = einsum_oracle(spec, a, b)
            assert got.order == want_order == min(order, order_b)
            assert got.c.shape == want.shape
            assert got.c.shape[-2] == sp.ncoef_by_degree[got.order]
            np.testing.assert_allclose(got.c, want, rtol=1e-13, atol=1e-13)


def multi_index_product(combine, a, b):
    """The truncated product by nested loops over multi-indices: every pair
    (alpha, beta) with |alpha + beta| <= the lower valid order adds
    combine(a_alpha, b_beta) into the row of alpha + beta.  Also returns the
    same sum over the absolute values of the terms, the scale of its
    round-off."""
    sp = a.space
    order = min(a.order, b.order)
    alphas = [tuple(int(x) for x in m) for m in sp.multi_indices[: sp.ncoef_by_degree[order]]]
    out = scale = None
    for i, alpha in enumerate(alphas):
        for j, beta in enumerate(alphas[: sp.ncoef_by_degree[order - sum(alpha)]]):
            k = sp.index_of[tuple(x + y for x, y in zip(alpha, beta))]
            term = combine(a.c[..., i, :], b.c[..., j, :])
            if out is None:
                out = np.zeros(term.shape[:-1] + (len(alphas), term.shape[-1]))
                scale = np.zeros_like(out)
            out[..., k, :] += term
            scale[..., k, :] += combine(np.abs(a.c[..., i, :]), np.abs(b.c[..., j, :]))
    return out, scale, order


PRODUCTS = {
    "scalar": (None, (), ()),
    "vector_scalar": (None, (8,), ()),
    "scalar_vector": (None, (), (8,)),
    "matrix": (None, (3, 3), (3, 3)),
    "matrix_scalar": (None, (3, 3), ()),
    "rows": ("ij,ij->i", (3, 3), (3, 3)),
    "grad_pairing": ("ca,c->a", (8, 3), (8,)),
    "dot": ("c,c->", (8,), (8,)),
}


@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", sorted(PRODUCTS))
def test_truncated_product_matches_multi_index_loops(kind, nvars):
    """Jet.__mul__ and jet_einsum against the multi-index convolution, at
    equal and mixed valid orders 0..4, to 1e-14 of the sum of the absolute
    values of the terms."""
    spec, sha, shb = PRODUCTS[kind]
    sp = jet_space(nvars, 4)
    rng = np.random.default_rng([sorted(PRODUCTS).index(kind), nvars])
    if spec is None:
        combine, product_of = np.multiply, lambda a, b: a * b
    else:
        ins, out = spec.split("->")
        sa, sb = ins.split(",")
        combine = lambda x, y: np.einsum(f"{sa}...,{sb}...->{out}...", x, y)  # noqa: E731
        product_of = lambda a, b: jet_einsum(spec, a, b)  # noqa: E731
    for order_a in range(5):
        for order_b in sorted({order_a, (order_a + 2) % 5}):
            a = random_jet(rng, sp, sha, order_a, 3)
            b = random_jet(rng, sp, shb, order_b, 3)
            got = product_of(a, b)
            want, scale, want_order = multi_index_product(combine, a, b)
            assert got.order == want_order
            assert got.c.shape == want.shape
            assert np.all(np.abs(got.c - want) <= 1e-14 * scale), (order_a, order_b)


def test_truncated_product_peak_memory():
    """An order-2 (8,) x () product over 512 points allocates at most four
    times the bytes of its result: no copy of the pairs is gathered."""
    sp = jet_space(3, 2)
    rng = np.random.default_rng(5)
    a = random_jet(rng, sp, (8,), 2, 512)
    b = random_jet(rng, sp, (), 2, 512)
    result = a * b  # and warm-up
    assert traced_peak(lambda: a * b) <= 4 * result.c.nbytes


def test_jet_einsum_constant_operand():
    rng = np.random.default_rng(4)
    sp = jet_space(2, 3)
    x = random_jet(rng, sp, (3, 4), 2, 5)
    M = rng.normal(size=(2, 4))
    got = jet_einsum("cd,id->ic", M, x)
    assert got.order == 2
    for i in range(3):
        for c in range(2):
            want = sum((x[i, d] * float(M[c, d]) for d in range(4)), 0.0 * x[i, 0])
            np.testing.assert_allclose(got[i, c].c, want.c, rtol=1e-14, atol=1e-14)


def test_tensor_jet_grad_indexing_and_stack():
    sp, (x, y) = seed(2, 3, [0.4, -0.7])
    f = [x * x * y, (x + y).sin(), x / (1.0 + y * y)]
    F = stack(f)
    assert F.shape == (3,) and F.order == 3
    dF = F.grad()
    assert dF.shape == (3, 2) and dF.order == 2
    for c in range(3):
        assert np.array_equal(F[c].c, f[c].c)
        for v in range(2):
            assert np.array_equal(dF[c, v].c, f[c].partial(v).c)
            assert np.array_equal(dF.transpose(1, 0)[v, c].c, dF[c, v].c)
    with pytest.raises(IndexError):
        F[0, 1]


def test_potential_from_gradient_recovers_function():
    # F = x^2 y + 3x; grads bilt as a = dF => psi = -F + F(p)
    sp = jet_space(2, 3)
    x, y = Jet.variables(sp, np.array([[0.4], [-0.2]]))
    F = x * x * y + 3.0 * x
    a = F.grad()
    psi = potential_from_gradient(a)
    for v in range(2):
        resid = psi.partial(v) + a[v]
        assert np.max(np.abs(resid.c[: sp.ncoef_by_degree[1]])) < 1e-13
    assert psi.value == pytest.approx(0.0)


def jet_operations(sp, rng):
    """(name, result, expected order) for every jet operation, on operands of
    valid orders 3 and 1 in an order-4 space."""
    a = random_jet(rng, sp, (2, 3), 3, 4)
    b = random_jet(rng, sp, (2, 3), 1, 4)
    pos = Jet(sp, np.abs(a.c) + 1.0, 3)  # positive values for sqrt and division
    s = random_jet(rng, sp, (), 2, 4)
    return [
        ("add", a + b, 1),
        ("add_constant", a + 1.5, 3),
        ("radd", 1.0 + a, 3),
        ("sub", a - b, 1),
        ("rsub", 2.0 - a, 3),
        ("neg", -a, 3),
        ("mul", a * b, 1),
        ("mul_broadcast", a * s, 2),
        ("scaled", a.scaled(np.ones(4)), 3),
        ("div", a / pos, 3),
        ("rdiv", 1.0 / pos, 3),
        ("sqrt", pos.sqrt(), 3),
        ("sin", a.sin(), 3),
        ("cos", b.cos(), 1),
        ("exp", s.exp(), 2),
        ("partial", a.partial(1), 2),
        ("grad", a.grad(), 2),
        ("truncated", a.truncated(1), 1),
        ("stack", stack([a, b]), 1),
        ("getitem", a[1], 3),
        ("transpose", a.transpose(1, 0), 3),
        ("einsum", jet_einsum("ij,ij->i", a, b), 1),
        ("einsum_constant", jet_einsum("ki,ij->kj", np.ones((5, 2)), a), 3),
        ("potential", potential_from_gradient(stack([s, s.scaled(2.0), s.scaled(3.0)])), 3),
        ("variables", Jet.variables(sp, np.zeros((3, 4)))[0], 4),
    ]


def test_every_operation_stores_only_valid_rows():
    sp = jet_space(3, 4)
    for name, jet, order in jet_operations(sp, np.random.default_rng(12)):
        assert jet.order == order, name
        assert jet.c.shape[-2] == sp.ncoef_by_degree[order], name
        assert jet.c.base is None or jet.c.base.shape[-2] == jet.c.shape[-2], name


def test_row_count_must_match_order():
    sp = jet_space(2, 3)
    with pytest.raises(ValueError):
        Jet(sp, np.zeros((sp.ncoef, 1)), 2)
    with pytest.raises(ValueError):
        Jet(sp, np.zeros((sp.ncoef_by_degree[1], 1)))


@pytest.mark.parametrize("nvars", range(1, 8))
def test_multi_indices_are_the_filtered_cube(nvars):
    """The rows are the exponent tuples of degree <= order, by degree and then
    lexicographically: those of the cube {0..order}^nvars that survive the
    degree filter, in the same order."""
    for order in range(5):
        cube = [a for a in product(range(order + 1), repeat=nvars) if sum(a) <= order]
        cube.sort(key=lambda a: (sum(a), a))
        assert JetSpace(nvars, order).multi_indices.tolist() == [list(a) for a in cube]


def test_wide_space_is_built_without_the_cube():
    """JetSpace(12, 4) has C(16, 4) = 1820 rows, enumerated directly: a
    filter over the 5^12 tuples of the cube takes about 50 s, the set-up
    0.21 s (2-core VM)."""
    start = time.perf_counter()
    sp = JetSpace(12, 4)
    assert time.perf_counter() - start < 3.0
    assert sp.ncoef == 1820


def test_series_share_powers():
    """Several coefficient lists over one set of powers give what each list
    gives alone, and sin_cos what sin and cos give."""
    sp, (x, y) = seed(2, 4, [[0.3, -1.2], [0.7, 0.4]])
    arg = x * y + x
    a = [np.cos(arg.value), 1.0, -0.5, 0.25, 2.0]
    b = [1.0, np.sin(arg.value), 0.0, -3.0, 0.5]
    both = arg.compose_series(a, b)
    for got, coefs in zip(both, (a, b)):
        assert np.array_equal(got.c, arg.compose_series(coefs)[0].c)
    sin, cos = arg.sin_cos()
    assert np.array_equal(sin.c, arg.sin().c) and np.array_equal(cos.c, arg.cos().c)


def full_series(arg: Jet, coefs) -> np.ndarray:
    """sum_k coefs[k] t^k, t = arg - arg.value, over every row above the
    value, with t^k from full truncated products: the reference of
    `compose_series`."""
    t = Jet(arg.space, arg.c.copy())
    t.c[..., 0, :] = 0.0
    full = np.zeros(arg.c.shape)
    full[..., 0, :] = coefs[0]
    tk = t
    for ck in coefs[1 : arg.order + 1]:
        ck = np.asarray(ck, dtype=float)
        full[..., 1:, :] += tk.c[..., 1:, :] * (ck[..., None, :] if ck.ndim else ck)
        tk = tk * t
    return full


@pytest.mark.parametrize("nvars, order", [(2, 1), (2, 3), (3, 2), (3, 4)])
def test_series_skip_the_rows_below_each_power(nvars, order):
    """t^k vanishes below degree k, so adding it from degree k up, with the
    powers formed from pair terms alone, gives the bytes of the full sum
    over every row."""
    rng = np.random.default_rng(10 * nvars + order)
    sp = jet_space(nvars, order)
    arg = Jet(sp, rng.normal(size=(2, sp.ncoef, 5)))
    coefs = [rng.normal(size=(2, 5)) for _ in range(order + 1)]
    (got,) = arg.compose_series(coefs)
    assert got.c.tobytes() == full_series(arg, coefs).tobytes()


def falling(p, k):
    out = 1.0
    for j in range(k):
        out *= p - j
    return out


@pytest.mark.parametrize("p", [0.5, -1, -0.5, 1.5])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_power_matches_closed_form(p, order):
    x0 = np.array([0.4, 1.7, 3.0])
    sp, (x,) = seed(1, order, x0[None, :])
    f = x.power(p)
    assert f.order == order
    for k in range(order + 1):
        want = falling(p, k) * x0 ** (p - k)
        np.testing.assert_allclose(deriv(f, (k,)), want, rtol=1e-13, atol=0)


def test_reciprocal_accepts_negative_values():
    sp, (x,) = seed(1, 4, [0.5])
    f = 1.0 / (x - 2.0)
    for k in range(5):
        want = (-1) ** k * factorial(k) * (0.5 - 2.0) ** (-k - 1)
        assert deriv(f, (k,)) == pytest.approx(want, rel=1e-13)
    with pytest.raises(ZeroDivisionError):
        (x - 0.5).power(-1)


@pytest.mark.parametrize("p", [0.5, -0.5, 1.5])
def test_fractional_power_needs_positive_values(p):
    sp, (x,) = seed(1, 3, [0.5])
    for arg in (x - 2.0, x - 0.5):
        with pytest.raises(ValueError):
            arg.power(p)
    with pytest.raises(ValueError):
        (x - 2.0).sqrt()


def signed_draws(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal draws over twelve decades, a quarter of them replaced by +0.0
    or -0.0."""
    x = rng.normal(size=shape) * 10.0 ** rng.uniform(-6.0, 6.0, size=shape)
    zero = rng.random(shape) < 0.25
    x[zero] = np.where(rng.random(np.count_nonzero(zero)) < 0.5, 0.0, -0.0)
    return x


def bits(jet: Jet) -> tuple:
    return jet.order, jet.c.shape, jet.c.tobytes()


@pytest.mark.parametrize("batch", [1, 37])
@pytest.mark.parametrize("nvars", range(1, 6))
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=12, deadline=None)
def test_seed_rows_are_the_generic_arithmetic(nvars, batch, seed):
    """On `Jet.variables` seeds of every order 0..4, `norm_sq`, `times` and
    `sin_cos` write the rows that `jet_einsum("a,a->", u, u)`, `u * x` and
    the power series over full products give, bit for bit, signs of zero
    included (tobytes tells -0.0 from +0.0); x is a scalar jet of any order
    up to u's, and `times(x, out=)` writes the same bits into one half of an
    interleaved buffer.  On a linear jet R v, which is no seed, they are
    that arithmetic."""
    rng = np.random.default_rng(seed)
    for order in range(5):
        sp = jet_space(nvars, order)
        u = Jet.variables(sp, signed_draws(rng, (nvars, batch)))
        rv = jet_einsum("ab,b->a", random_orthogonal(nvars, rng), u)
        x_order = int(rng.integers(0, order + 1))
        x = Jet(sp, signed_draws(rng, (sp.ncoef_by_degree[x_order], batch)), x_order)
        for arg, generic in ((u, Jet(sp, u.c.copy())), (rv, rv)):
            assert arg.seeded == (arg is u)
            assert bits(arg.norm_sq()) == bits(jet_einsum("a,a->", generic, generic))
            want = bits(generic * x)
            assert bits(arg.times(x)) == want
            halves = np.full((nvars, 2) + want[1][1:], np.nan)
            into = arg.times(x, out=halves[:, 1])
            assert np.shares_memory(into.c, halves) and bits(into) == want
            s0, c0 = np.sin(arg.value), np.cos(arg.value)
            cycle = [s0, c0, -s0, -c0]
            for got, p in zip(arg.sin_cos(), (0, 1)):
                coefs = [cycle[(k + p) % 4] / factorial(k) for k in range(order + 1)]
                assert got.c.tobytes() == full_series(generic, coefs).tobytes()


def test_only_variables_marks_a_seed():
    """The seed mark is not carried over: indexing, truncating, scaling,
    adding and multiplying a seed, or wrapping its array, give unmarked
    jets."""
    sp = jet_space(3, 3)
    u = Jet.variables(sp, np.array([[0.3, -1.2], [0.7, 0.4], [0.0, 2.0]]))
    assert u.seeded
    for jet in (u[0], u[:2], u.truncated(2), u.scaled(1.0), u + 0.0, -u, u * u, u.transpose(0),
                Jet(sp, u.c), u.sin_cos()[0]):
        assert not jet.seeded


@pytest.mark.parametrize("seeded", [True, False])
def test_sin_cos_writes_into_the_arrays_given(seeded):
    """`sin_cos(out=...)` writes the rows into the two zeroed arrays given,
    here the halves of an interleaved buffer, and returns jets on them."""
    sp = jet_space(2, 3)
    u = Jet.variables(sp, np.array([[0.3, -1.2], [0.7, 0.4]]))
    arg = u if seeded else Jet(sp, u.c.copy())
    z = np.zeros((2, 2) + u.c.shape[1:])
    sin, cos = arg.sin_cos(out=(z[:, 1], z[:, 0]))
    assert np.shares_memory(sin.c, z) and np.shares_memory(cos.c, z)
    want_sin, want_cos = arg.sin_cos()
    assert bits(Jet(sp, z[:, 1].copy())) == bits(want_sin)
    assert bits(Jet(sp, z[:, 0].copy())) == bits(want_cos)
