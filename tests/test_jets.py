from itertools import product

import numpy as np
import pytest

from lagcheck.jets import ComplexJet, Jet, jet_einsum, jet_space, potential_from_gradient


def seed(nvars, order, values):
    sp = jet_space(nvars, order)
    return sp, Jet.variables(sp, np.asarray(values, dtype=float))


def test_polynomial_derivatives_exact():
    sp, (x, y) = seed(2, 4, [1.5, -0.5])
    f = x * x * y + y * y * y  # f = x^2 y + y^3
    assert f.value == pytest.approx(1.5**2 * -0.5 + (-0.5) ** 3)
    assert f.deriv((1, 0)) == pytest.approx(2 * 1.5 * -0.5)
    assert f.deriv((0, 1)) == pytest.approx(1.5**2 + 3 * 0.25)
    assert f.deriv((2, 1)) == pytest.approx(2.0)
    assert f.deriv((0, 3)) == pytest.approx(6.0)
    assert f.deriv((2, 2)) == pytest.approx(0.0)


def test_rational_function_fourth_order():
    # f(t) = 1 / (1 + t^2); f''''(0) = 24
    sp, (t,) = seed(1, 4, [0.0])
    f = 1.0 / (1.0 + t * t)
    assert f.deriv((0,)) == pytest.approx(1.0)
    assert f.deriv((2,)) == pytest.approx(-2.0)
    assert f.deriv((4,)) == pytest.approx(24.0)


def test_transcendental_composition():
    sp, (t,) = seed(1, 4, [0.3])
    f = (t * t).sin() + t.exp()
    t0 = 0.3
    # d/dt sin(t^2) = 2t cos(t^2), second derivative 2cos(t^2) - 4t^2 sin(t^2)
    assert f.deriv((1,)) == pytest.approx(2 * t0 * np.cos(t0**2) + np.exp(t0))
    assert f.deriv((2,)) == pytest.approx(
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
    assert f.deriv((1, 1, 1)) == f.deriv((1, 1, 1))
    d1 = f.partial(0).partial(1).value
    d2 = f.partial(1).partial(0).value
    assert d1 == pytest.approx(d2, abs=1e-15)


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
    assert fx.deriv((1, 1)) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        fx.deriv((2, 1))


def test_truncation_blocks_stale_coefficients():
    sp, (x, y) = seed(2, 4, [0.2, 0.1])
    f = (x + y) * (x + y) * (x + y)
    g = f.partial(0)  # order 3 valid
    h = g * g  # order 3 valid, degree-4 rows must be zero
    assert np.all(h.c[sp.degrees > 3] == 0.0)


def random_jet(rng, sp, shape, order, batch):
    c = rng.normal(size=tuple(shape) + (sp.ncoef, batch))
    c[..., sp.ncoef_by_degree[order] :, :] = 0.0
    return Jet(sp, c, order)


def einsum_oracle(spec, a, b):
    """Nested loops of scalar Jet products and sums over every index."""
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    dims = dict(zip(sa, a.shape)) | dict(zip(sb, b.shape))
    summed = sorted(set(sa + sb) - set(out))
    coeffs, order = {}, None
    for oidx in product(*(range(dims[x]) for x in out)):
        acc = None
        for sidx in product(*(range(dims[x]) for x in summed)):
            at = dict(zip(out, oidx)) | dict(zip(summed, sidx))
            term = a[tuple(at[x] for x in sa)] * b[tuple(at[x] for x in sb)]
            acc = term if acc is None else acc + term
        coeffs[oidx], order = acc.c, acc.order
    shape = tuple(dims[x] for x in out)
    return np.array([coeffs[i] for i in product(*(range(d) for d in shape))]).reshape(
        shape + a.c.shape[-2:]
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
            np.testing.assert_allclose(got.c, want, rtol=1e-13, atol=1e-13)
            assert np.all(got.c[..., sp.ncoef_by_degree[got.order] :, :] == 0.0)


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
    F = Jet.stack(f)
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
    a = [F.partial(0), F.partial(1)]
    psi = potential_from_gradient(sp, a)
    for v in range(2):
        resid = psi.partial(v) + a[v]
        assert np.max(np.abs(resid.c[: sp.ncoef_by_degree[1]])) < 1e-13
    assert psi.value == pytest.approx(0.0)


def test_complex_jet_algebra():
    sp, (t,) = seed(1, 3, [0.2])
    z = ComplexJet(t.cos(), t.sin())  # e^{it}
    w = z * z.conj()
    assert np.max(np.abs(w.re.c - Jet.constant(sp, 1.0).c[: sp.ncoef])) < 1e-13
    assert np.max(np.abs(w.im.c)) < 1e-13
    q = ComplexJet.from_real(1.0 + t * t) / z
    # (1+t^2) e^{-it}: value and first derivative
    assert q.re.value == pytest.approx((1 + 0.04) * np.cos(0.2))
    assert q.im.value == pytest.approx(-(1 + 0.04) * np.sin(0.2))
    d_re = q.re.deriv((1,))
    assert d_re == pytest.approx(2 * 0.2 * np.cos(0.2) - (1 + 0.04) * np.sin(0.2))
