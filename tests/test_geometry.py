import math
import warnings

import numpy as np
import pytest

from lagcheck.cpn import make_rpn, make_whitney_cpn
from lagcheck import jets
from lagcheck.geometry import (
    DegenerateMetricError,
    FrameBundle,
    NonLagrangianError,
    _cholesky_inverse,
    _trace,
    bundle_at,
    chart_batch,
    closedness_residual,
    geometry_state,
    maslov_tensor_gradient,
    scalar_laplacian,
)
from lagcheck.jets import Jet, jet_einsum, jet_space
from lagcheck.identities import FORMS, check_structural, residual
from lagcheck.immersions import (
    linear_image,
    make_lagrangian_plane,
    make_nonlagrangian_plane,
    make_perturbed_whitney,
    make_product_torus,
    make_whitney_cn,
)
from reference import (
    FullOrderBundle,
    assert_frame_moved,
    complex_to_real_matrix,
    corpus_body,
    embed,
    frame0,
    make_black_box,
    numpy_perturbed_whitney,
    random_orthogonal,
    random_unit,
    random_unitary,
    rotated_chart,
)

RNG = np.random.default_rng(1234)


def sym_T(s):
    """T of a one-point bundle, symmetrized."""
    T = s.T0[..., 0]
    return 0.5 * (T + T.T)


def sq(s, name):
    """A pointwise scalar of a one-point bundle."""
    return float(getattr(s, name)[0])


class TestPlane:
    def test_everything_vanishes(self):
        imm = make_lagrangian_plane(3)
        s = geometry_state(imm, 0, [0.5, -1.0, 0.2])
        assert sq(s, "h_sq") == 0.0
        assert sq(s, "H_sq") == 0.0
        assert sq(s, "hhat_sq") == 0.0
        assert np.all(sym_T(s) == 0.0)
        assert np.all(s.curvature_frame[..., 0] == 0.0)

    def test_nonlagrangian_detected(self):
        imm = make_nonlagrangian_plane(2)
        with pytest.raises(NonLagrangianError, match="Lagrangian condition violated"):
            geometry_state(imm, 0, [0.1, 0.2])


class TestTorus:
    @pytest.mark.parametrize("radii", [(1.0, 1.0), (1.0, 2.0), (0.5, 1.0, 2.0)])
    def test_closed_forms(self, radii):
        imm = make_product_torus(radii)
        p = (0, RNG.uniform(0, 2 * math.pi, len(radii)))
        s = geometry_state(imm, *p)
        r = np.asarray(radii)
        assert sq(s, "h_sq") == pytest.approx(np.sum(1 / r**2), abs=1e-12)
        assert sq(s, "H_sq") == pytest.approx(np.sum(1 / r**2) / len(r) ** 2, abs=1e-12)
        assert np.max(np.abs(s.grad_h[..., 0])) < 1e-12
        assert np.max(np.abs(sym_T(s))) < 1e-12
        assert np.max(np.abs(s.curvature_frame[..., 0])) < 1e-12

    def test_metric_is_diagonal_radii_squared(self):
        imm = make_product_torus([1.0, 1.0])
        s = geometry_state(imm, 0, [0.4, 2.2], 2)
        assert np.allclose(s.g0[..., 0], np.eye(2), atol=1e-14)

    def test_h_sign_convention(self):
        # positive diagonal curvature components with inward circle normals
        imm = make_product_torus([2.0, 0.5])
        s = geometry_state(imm, 0, [1.0, 2.0], 2)
        assert s.h0[0, 0, 0, 0] == pytest.approx(0.5)
        assert s.h0[1, 1, 1, 0] == pytest.approx(2.0)


class TestWhitney:
    @pytest.mark.parametrize("n", [2, 3])
    def test_hhat_and_T_vanish(self, n):
        imm = make_whitney_cn(1.0, None, n)
        for p in zip(*imm.atlas.random(np.random.default_rng(n), 10)):
            s = geometry_state(imm, *p)
            assert math.sqrt(sq(s, "hhat_sq")) < 1e-10
            assert math.sqrt(float(np.sum(sym_T(s) ** 2))) < 1e-10

    def test_gauss_two_method_agreement(self):
        imm = make_whitney_cn(1.0, None, 2)
        p = (0, np.array([0.6, -0.2]))
        s = geometry_state(imm, *p)
        R = geometry_state(imm, *p).curvature_frame[..., 0]
        h = s.h0[..., 0]
        rhs = np.einsum("mik,mjl->ijkl", h, h) - np.einsum("mil,mjk->ijkl", h, h)
        assert np.max(np.abs(R - rhs)) < 1e-10

    def test_dilation_covariance(self):
        p = (0, np.array([0.3, 0.7]))
        w1 = geometry_state(make_whitney_cn(1.0, np.array([0.3 + 0.1j, 0.0]), 2), *p)
        pert = make_perturbed_whitney(1.0, 0.05, 1, 2)
        s1 = geometry_state(pert, *p)
        for lam in (0.5, 2.0, 10.0):
            w2 = geometry_state(
                make_whitney_cn(lam, lam * np.array([0.3 + 0.1j, 0.0]), 2), *p
            )
            assert sq(w2, "h_sq") == pytest.approx(sq(w1, "h_sq") / lam**2, rel=1e-12)
            s2 = geometry_state(linear_image(pert, lam * np.eye(4)), *p)
            assert sq(s2, "hhat_sq") == pytest.approx(sq(s1, "hhat_sq") / lam**2, rel=1e-10)


class TestFrameAndGauge:
    def test_frame_orthonormal_and_lagrangian(self):
        imm = make_perturbed_whitney(1.0, 0.05, 2, 3)
        p = (0, np.array([0.4, 0.1, -0.8]))
        s = geometry_state(imm, *p, 2)
        e, Je = (x[..., 0] for x in frame0(s))
        assert np.allclose(e @ e.T, np.eye(3), atol=1e-12)
        assert np.allclose(Je @ Je.T, np.eye(3), atol=1e-12)
        assert np.max(np.abs(e @ Je.T)) < 1e-10

    def test_gauge_invariance_of_scalars(self):
        """The scalars at a point in a rotated chart, whose frame is another,
        are those at the point."""
        imm = make_perturbed_whitney(1.0, 0.05, 1, 2)
        chart, u = 0, np.array([0.4, -0.3])
        s0 = geometry_state(imm, chart, u)
        rng = np.random.default_rng(77)
        for _ in range(3):
            Q = random_orthogonal(2, rng)
            s1 = geometry_state(rotated_chart(imm, Q), chart, Q.T @ u)
            assert_frame_moved(s0, s1)
            for name in ("hhat_sq", "h_sq", "H_sq"):
                assert sq(s1, name) == pytest.approx(sq(s0, name), abs=1e-12)
            assert float(np.sum(sym_T(s1) ** 2)) == pytest.approx(float(np.sum(sym_T(s0) ** 2)), abs=1e-12)
            assert sq(s1, "grad_hhat_sq") == pytest.approx(sq(s0, "grad_hhat_sq"), abs=1e-11)

    def test_chart_covariance_of_scalars(self):
        imm = make_perturbed_whitney(1.0, 0.05, 1, 2)
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = rng.uniform(0.6, 1.8) * random_unit(rng, 2)
            s0 = geometry_state(imm, 0, u)
            s1 = geometry_state(imm, 1, u / np.dot(u, u))
            for scal in ("hhat_sq", "h_sq", "H_sq", "grad_hhat_sq"):
                assert sq(s1, scal) == pytest.approx(sq(s0, scal), abs=1e-9)
            scal0 = float(np.einsum("ijij->", s0.curvature_frame[..., 0]))
            scal1 = float(np.einsum("ijij->", s1.curvature_frame[..., 0]))
            assert scal1 == pytest.approx(scal0, abs=1e-9)

    def test_unitary_motion_invariance(self):
        imm = make_whitney_cn(1.0, np.array([0.2 + 0.1j, 0.0]), 2)
        rng = np.random.default_rng(5)
        R = complex_to_real_matrix(random_unitary(2, rng))
        moved = linear_image(imm, R, offset=rng.normal(size=4))
        p = (0, np.array([0.5, 0.1]))
        s0, s1 = geometry_state(imm, *p), geometry_state(moved, *p)
        assert sq(s1, "h_sq") == pytest.approx(sq(s0, "h_sq"), abs=1e-12)
        assert sq(s1, "hhat_sq") == pytest.approx(sq(s0, "hhat_sq"), abs=1e-14)

    def test_norm_identity_pointwise(self):
        imm = make_perturbed_whitney(1.0, 0.07, 3, 2)
        n = 2
        for p in zip(*imm.atlas.random(np.random.default_rng(8), 10)):
            s = geometry_state(imm, *p, 2)
            resid = abs(sq(s, "hhat_sq") - sq(s, "h_sq") + 3 * n * n / (n + 2) * sq(s, "H_sq"))
            assert resid < 1e-10

    def test_degenerate_metric_detected(self):
        imm = make_lagrangian_plane(2)
        squashed = linear_image(imm, np.diag([1.0, 1.0, 1e-9, 1e-9]))
        with pytest.raises(DegenerateMetricError):
            geometry_state(squashed, 0, [0.1, 0.2], 2)


class TestTriSymmetryInvariant:
    def test_all_builtin_bodies_hundred_points(self):
        from lagcheck.tensors import symmetry_residual

        bodies = [
            make_whitney_cn(1.0, None, 2),
            make_product_torus([1.0, 2.0]),
            make_lagrangian_plane(2),
            make_perturbed_whitney(1.0, 0.05, 1, 2),
        ]
        for imm in bodies:
            rng = np.random.default_rng(55)
            charts, coords = imm.atlas.normalize(*imm.atlas.random(rng, 100))
            for cid in np.unique(charts):
                fb = bundle_at(imm, int(cid), coords[charts == cid], 2)
                for b in range(fb.h0.shape[-1]):
                    assert symmetry_residual(fb.h0[..., b], 3) < 1e-9


class TestMaslov:
    def test_one_form_matches_mean_curvature(self):
        imm = make_product_torus([1.0, 2.0])
        s = geometry_state(imm, 0, [0.2, 1.4])
        alpha = -s.H0[:, 0]
        assert float(np.dot(alpha, alpha)) == pytest.approx(sq(s, "H_sq"), abs=1e-14)

    def test_minimal_immersion_zero_form(self):
        imm = make_lagrangian_plane(2)
        s = geometry_state(imm, 0, [0.3, 0.4])
        alpha = -s.H0[:, 0]
        assert float(np.dot(alpha, alpha)) == 0.0

    def test_closedness_torus(self):
        imm = make_product_torus([1.0, 3.0])
        p = (0, np.array([0.9, 4.0]))
        assert closedness_residual(imm, *p) < 1e-9

    def test_closedness_whitney(self):
        imm = make_whitney_cn(1.0, None, 2)
        for p in zip(*imm.atlas.random(np.random.default_rng(10), 20)):
            assert closedness_residual(imm, *p) < 1e-6

    def test_closedness_perturbed(self):
        imm = make_perturbed_whitney(1.0, 0.05, 1, 2)
        p = (0, np.array([0.4, -0.3]))
        assert closedness_residual(imm, *p) < 1e-9


class TestMaslovTensor:
    def test_whitney_conformal(self):
        imm = make_whitney_cn(1.0, None, 3)
        p = (0, np.array([0.2, 0.5, -0.3]))
        T = sym_T(geometry_state(imm, *p))
        assert np.max(np.abs(T)) < 1e-10

    def test_perturbed_has_nonzero_T(self):
        imm = numpy_perturbed_whitney(1.0, 0.05, 1, 2)
        s = geometry_state(imm, 0, [0.4, -0.3])
        # frozen regression values for this point and the numpy-drawn form of mode 1
        assert sq(s, "hhat_sq") == pytest.approx(0.00039283414137453046, rel=1e-8)
        assert float(np.sum(sym_T(s) ** 2)) == pytest.approx(0.0022696491126050523, rel=1e-8)

    @pytest.mark.parametrize("n", [2, 3])
    def test_gradient_matches_divergence_form(self, n):
        # T_ij = (1/n) hhat^{m*}_{ij,m}, so T_{ij,k} = (1/n) hhat^{m*}_{ij,mk}:
        # the gradient from H jets against the second derivative of hhat
        imm = make_perturbed_whitney(1.0, 0.06, 2, n)
        for p in zip(*imm.atlas.random(np.random.default_rng(30 + n), 3)):
            grad_t = maslov_tensor_gradient(imm, *p)
            hess = geometry_state(imm, *p, 4).hess_hhat[..., 0]
            assert np.max(np.abs(grad_t - np.einsum("mijmk->ijk", hess) / n)) < 1e-13
            assert np.max(np.abs(grad_t)) > 1e-2

    def test_consistency_with_divergence_form(self):
        imm = make_perturbed_whitney(1.0, 0.06, 2, 2)
        s = geometry_state(imm, 0, [0.3, 0.5])
        assert np.max(np.abs(sym_T(s) - s.T_from_hhat[..., 0])) < 1e-8


class TestScalarLaplacian:
    def test_constant_field(self):
        imm = make_product_torus([1.0, 1.0])
        val = scalar_laplacian(imm, 0, [0.4, 0.8], lambda cid, u: 0.0 * u[0] + 3.5)
        assert abs(val) < 1e-14

    def test_first_spherical_harmonic(self):
        # the totally geodesic real form carries the round unit-sphere metric
        imm = make_rpn(2)
        atlas = imm.atlas

        def f(cid, u):  # x_3 of the embedded sphere point
            s = jet_einsum("a,a->", u, u)
            return ((s - 1.0) / (1.0 + s)).scaled(atlas.sign(cid))

        rng = np.random.default_rng(21)
        charts, coords = atlas.random(rng, 5)
        for chart, u, x in zip(charts, coords, embed(charts, coords)):
            val = scalar_laplacian(imm, chart, u, f)
            assert val == pytest.approx(-2.0 * x[2], abs=1e-12)

    @staticmethod
    def _assert_torus_hhat_sq_harmonic(radii):
        # |hhat|^2 is constant on a product torus, so its Laplacian vanishes
        # at every scale, relative to |hhat|^2 / r_min^2
        imm = make_product_torus(list(radii))
        fb = geometry_state(imm, 0, [1.2, 0.3], 4)
        val = float(fb.laplacian(fb.hhat_sq_jet)[0])
        assert abs(val) <= 1e-12 * float(fb.hhat_sq[0]) / min(radii) ** 2

    def test_hhat_sq_constant_on_torus(self):
        self._assert_torus_hhat_sq_harmonic((1.0, 2.0))

    def test_hhat_sq_constant_on_small_torus(self):
        self._assert_torus_hhat_sq_harmonic((0.02, 0.03))

    def test_hhat_sq_jet_matches_pointwise_scalar(self):
        imm = make_perturbed_whitney(1.0, 0.05, 1, 2)
        fb = geometry_state(imm, 0, [0.4, -0.3], 4)
        assert fb.hhat_sq_jet.value[0] == pytest.approx(fb.hhat_sq[0], rel=1e-13)

    def test_grad_T_needs_order_four(self):
        imm = make_perturbed_whitney(1.0, 0.05, 1, 2)
        with pytest.raises(ValueError):
            geometry_state(imm, 0, [0.4, -0.3], 3).grad_T


# Values computed by the earlier nested-list frame bundle at one order-4 point,
# with the power of |h|^2 each quantity scales as; the perturbed body is the one
# with the numpy-drawn quadratic form (`reference.numpy_perturbed_whitney`).  On the Whitney sphere in CP^n
# hhat vanishes, so its derived terms are round-off and only their size is
# pinned.
PINNED = {
    "perturbed_whitney": {
        "h_sq": (9.828781047217504, 1),
        "grad_hhat_sq": (0.05344305344562965, 2),
        "scalar_curvature": (6.541299665414586, 1),
        "grad_T_norm": (0.3830826398281462, 1.5),
        "simons_lhs": (-0.037436135706071065, 2),
    },
    "whitney_cpn": {
        "h_sq": (6.416374880310983, 1),
        "grad_hhat_sq": (8.043414825666145e-30, 2),
        "scalar_curvature": (10.277583253540653, 1),
        "grad_T_norm": (2.1361535197923686e-15, 1.5),
        "simons_lhs": (9.277436496970544e-30, 2),
    },
}


@pytest.mark.parametrize("body", sorted(PINNED))
def test_bundle_values_pinned(body):
    from lagcheck.identities import simons_terms

    imm = numpy_perturbed_whitney(1.0, 0.05, 1, 3) if body == "perturbed_whitney" else make_whitney_cpn(0.7, 3)
    fb = geometry_state(imm, 0, [0.3, -0.2, 0.5], 4)
    got = {
        "h_sq": float(fb.h_sq[0]),
        "grad_hhat_sq": float(fb.grad_hhat_sq[0]),
        "scalar_curvature": float(np.einsum("ijijb->b", fb.curvature_frame)[0]),
        "grad_T_norm": float(np.sqrt(np.sum(fb.grad_T[..., 0] ** 2))),
        "simons_lhs": simons_terms(fb)["lhs_half_laplacian"],
    }
    h_sq = PINNED[body]["h_sq"][0]
    for name, (want, weight) in PINNED[body].items():
        assert abs(got[name] - want) <= 1e-12 * max(abs(want), h_sq**weight), name


# The bounds are absolute, so the small `whitney_cn-offset`, whose |h|^2 is
# about 1e3, would fail them on round-off alone: it is not among the bodies.
ROTATED_CHART_BODIES = ("cpn_torus", "perturbed_whitney", "perturbed_whitney-rotated_chart", "whitney_cn",
                        "whitney_cn-offset", "whitney_cpn")


@pytest.mark.parametrize("body", ROTATED_CHART_BODIES)
def test_rotated_chart_is_a_change_of_frame(body):
    """`reference.rotated_chart`, the change of frame of the invariance
    tests, is a real one: at 12 points and under 3 rotations the frame moves
    by far more than round-off (`assert_frame_moved`), while the scalars and
    every structural residual stay within bounds relative to the body's own
    max |h|^2 (its square for |grad hhat|^2), so that a small, strongly
    curved body is held to the same round-off as a unit one."""
    imm = corpus_body(body)
    rng = np.random.default_rng(19)
    charts, coords = chart_batch(imm, *imm.atlas.random(rng, 12))
    fb = bundle_at(imm, charts, coords, 3)
    h2 = float(np.max(fb.h_sq))
    want = {name: residual(FORMS[name], *sides)[0] for name, sides in check_structural(fb).items()}
    for _ in range(3):
        Q = random_orthogonal(imm.source_dim, rng)
        moved = bundle_at(rotated_chart(imm, Q), charts, coords @ Q, 3)
        assert_frame_moved(fb, moved)
        for name, bound in (("hhat_sq", 5e-14 * h2), ("h_sq", 5e-14 * h2), ("H_sq", 5e-14 * h2),
                            ("grad_hhat_sq", 4e-14 * h2**2)):
            assert np.max(np.abs(getattr(moved, name) - getattr(fb, name))) < bound, name
        for name, sides in check_structural(moved).items():
            assert np.max(np.abs(residual(FORMS[name], *sides)[0] - want[name])) < 5e-11 * h2, name


ENERGY_BODIES = ("product_torus", "whitney_cn", "whitney_cpn")


@pytest.mark.parametrize("body", ENERGY_BODIES)
def test_energy_scalars_take_no_jet_products(monkeypatch, body):
    """An order-2 bundle serves the energy scalars from point values: the
    frame multiplies no jets."""
    imm = corpus_body(body)
    coords = np.array([[0.3, -0.2, 0.5], [0.1, 0.4, -0.6], [-0.5, 0.2, 0.1]])
    ambient = bundle_at(imm, 0, coords, 2)  # the family and the CP^n lift multiply jets
    calls = []
    product = jets._truncated_product
    monkeypatch.setattr(jets, "_truncated_product", lambda *args: calls.append(1) or product(*args))
    fb = FrameBundle(ambient.phi, ambient.c_amb)
    assert fb.sqrt_det_g.shape == (3,)
    for name in ("h_sq", "hhat_sq", "H_sq"):
        assert getattr(fb, name).shape == (3,)
    assert calls == []


@pytest.mark.parametrize("order", [2, 3, 4])
def test_lifted_frame_jet_is_orthonormal_and_triangular(order):
    """The Newton lift of B = L^{-1} solves B g B^T = I to its valid order,
    the order of g (1, 2 and 2 on bundles of order 2, 3 and 4), and keeps B
    lower triangular."""
    imm = make_perturbed_whitney(1.0, 0.05, 1, 3)
    fb = bundle_at(imm, 0, np.array([[0.3, -0.2, 0.5], [0.7, 0.1, -0.4]]), order)
    B = fb.B
    assert B.order == fb.g_jets.order == {2: 1, 3: 2, 4: 2}[order]
    assert np.array_equal(B.value, fb.B0)
    eye = jet_einsum("ib,jb->ij", jet_einsum("ia,ab->ib", B, fb.g_jets), B)
    eye.c[:, :, 0] -= np.eye(3)[..., None]
    assert np.max(np.abs(eye.c)) < 1e-13
    assert not np.any(B.c[np.triu_indices(3, 1)])


# The order of every jet of a bundle of order K = 3, 4, 5: f at K - 1, h at
# K - 2 and h_{,k} at K - 3; the frame jets g, B, e and J e at max(K - 2, 2),
# De and omega one order lower; the Christoffel symbols and the Maslov form
# at 1.
JET_ORDERS = {
    "f": (2, 3, 4),
    "g_jets": (2, 2, 3),
    "B": (2, 2, 3),
    "e": (2, 2, 3),
    "Je": (2, 2, 3),
    "De": (1, 1, 2),
    "omega_jets": (1, 1, 2),
    "h_jets": (1, 2, 3),
    "H_jets": (1, 2, 3),
    "hhat_sq_jet": (1, 2, 3),
    "grad_h_jets": (0, 1, 2),
    "christoffel_jets": (1, 1, 1),
    "maslov_chart_jets": (1, 1, 1),
}

REDUCED_ORDER_BODIES = (
    "cpn_torus", "perturbed_whitney", "perturbed_whitney-rotated_chart", "whitney_cn-offset", "whitney_cpn"
)


class TestReducedOrderJets:
    """Each jet of a bundle carries only the degrees its readers use, and the
    point values match the route that builds every jet at full order."""

    @staticmethod
    def bundles(name, order):
        imm = corpus_body(name)
        fb = bundle_at(imm, *chart_batch(imm, *imm.atlas.random(np.random.default_rng(11), 12)), order)
        return fb, FullOrderBundle(fb.phi, fb.c_amb)

    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_every_jet_has_its_pinned_order(self, order):
        fb, full = self.bundles("perturbed_whitney", order)
        assert {name: getattr(fb, name).order for name in JET_ORDERS} == {
            name: orders[order - 3] for name, orders in JET_ORDERS.items()
        }
        assert full.B.order == full.omega_jets.order + 1 == full.christoffel_jets.order + 1 == order - 1

    @pytest.mark.parametrize("order", [3, 4, 5])
    @pytest.mark.parametrize("name", REDUCED_ORDER_BODIES)
    def test_point_values_match_the_full_order_route(self, name, order):
        """Bit for bit at orders 3 and 4, the orders the identity suite
        builds.  At order 5 the full-order B takes a third Newton step
        (order 3 to 4), whose round-off residual moves its lower rows by an
        ulp, so the values agree to round-off there."""
        fb, full = self.bundles(name, order)

        def values(b):
            heavy = [b.hess_h] if order >= 4 else []
            return [b.grad_h, b.curvature_chart, b.normal_curvature, b.maslov_chart_jets.grad().value] + heavy

        for k, (got, want) in enumerate(zip(values(fb), values(full))):
            if order <= 4:
                assert np.array_equal(got, want), k
            else:
                assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want))), k


def linear_real_jet(M):
    """Order-2 jet of u -> M u per point, embedded as the real parts of C^n:
    a Lagrangian map whose metric is M^T M.  `M` has shape (B, n, n)."""
    B, n, _ = M.shape
    sp = jet_space(n, 2)
    c = np.zeros((2 * n, sp.ncoef, B))
    for a, unit in enumerate(np.eye(n, dtype=int)):
        c[0::2, sp.index_of[tuple(unit)]] = M[:, :, a].T
    return Jet(sp, c)


def metric_root(eigs, rotation):
    """M with M^T M = rotation . diag(eigs) . rotation^T."""
    return np.diag(np.sqrt(eigs)) @ rotation.T


class TestDegeneracyScreen:
    """The cheap bound det g / tr(g)^n clears most points; the eigenvalue
    ratio decides for the rest, with the same message and index."""

    def batch(self):
        rot = random_orthogonal(3, np.random.default_rng(7))
        well = metric_root([1.0, 2.0, 3.0], rot)
        # lambda_min / lambda_max = 1e-11 passes, but det g / tr(g)^3 < 1e-12
        thin = metric_root([1.0, 0.1, 1e-11], rot)
        # exact squares, so g and its eigenvalues carry no round-off
        flat = np.diag([1.0, 1.0, 2.0**-24])
        return np.stack([well, thin, flat])

    def test_first_degenerate_point_named(self):
        M = self.batch()
        g = np.einsum("xka,xkb->xab", M[:2], M[:2])
        eig = np.linalg.eigvalsh(g[1])
        assert np.prod(eig) / np.trace(g[1]) ** 3 < 1e-12 <= eig[0] / eig[-1]
        with pytest.raises(DegenerateMetricError) as info:
            FrameBundle(linear_real_jet(M), 0.0)
        assert info.value.index == 2
        assert str(info.value) == "induced metric degenerate: lambda_min/lambda_max = 3.553e-15 below 1e-12"
        assert FrameBundle(linear_real_jet(M[:2]), 0.0).batch == 2

    def test_factorization_breakdown_is_screened(self):
        """A point whose Cholesky factor is NaN (a coordinate direction the
        immersion does not see) reaches the eigenvalue check, with no
        floating-point warning on the way."""
        M = self.batch()
        M[2] = np.diag([0.0, 1.0, 1.0])
        g = np.einsum("xka,xkb->abx", M, M)
        L, L_inv = _cholesky_inverse(g)
        assert np.isnan(L[1, 0, 2]) and np.isnan(L_inv[2, 2, 2])
        assert np.all(np.isfinite(L[..., :2]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateMetricError) as info:
                FrameBundle(linear_real_jet(M), 0.0)
        assert info.value.index == 2
        assert str(info.value) == "induced metric degenerate: lambda_min/lambda_max = 0.000e+00 below 1e-12"


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_batched_factorization_matches_lapack(n):
    """L, L^{-1} and sqrt det g of the column-by-column factorization against
    LAPACK on random positive definite batches."""
    rng = np.random.default_rng(n)
    # M = U diag(s) V^T with singular values in [1, 3]: cond g <= 9
    U, V = (np.stack([random_orthogonal(n, rng) for _ in range(40)]) for _ in range(2))
    M = np.einsum("xij,xj,xkj->xik", U, rng.uniform(1.0, 3.0, (40, n)), V)
    g = np.einsum("xka,xkb->xab", M, M)
    L, L_inv = _cholesky_inverse(np.ascontiguousarray(np.moveaxis(g, 0, -1)))
    want = np.linalg.cholesky(g)
    want_inv = np.linalg.inv(want)
    for got, ref in ((L, want), (L_inv, want_inv)):
        got = np.moveaxis(got, -1, 0)
        scale = np.max(np.abs(ref), axis=(1, 2))
        assert np.all(np.max(np.abs(got - ref), axis=(1, 2)) <= 1e-13 * scale)
    fb = FrameBundle(linear_real_jet(M), 0.0)
    np.testing.assert_allclose(fb.sqrt_det_g, np.sqrt(np.linalg.det(g)), rtol=1e-13)
    assert not np.any(fb.B0[np.triu_indices(n, 1)])


class TestPoleHandling:
    def test_far_points_renormalized(self):
        imm = make_whitney_cn(1.0, None, 2)
        charts, coords = imm.atlas.normalize(np.array([0]), np.array([[3.0, 0.0]]))
        assert charts.tolist() == [1]
        assert np.linalg.norm(coords) < 2.0 + 1e-12
        s, want = geometry_state(imm, 0, [3.0, 0.0]), bundle_at(imm, 1, coords, 3)
        assert np.array_equal(s.h0, want.h0) and np.array_equal(s.curvature_frame, want.curvature_frame)


class TestFiniteDifferenceCrossValidation:
    def test_black_box_route_matches_jet_route_on_curved_body(self):
        """Pure finite-difference jets through the same frame machinery must
        reproduce the exact-jet geometry at the once/twice-FD rungs."""
        pert = make_perturbed_whitney(1.0, 0.05, 1, 2)

        def fn(chart_id, x):
            return pert.jets(chart_id, x[None], 1).value[:, 0]

        bb = make_black_box(fn, 2, atlas=pert.atlas, name="bb_perturbed")
        p = (0, np.array([0.4, -0.3]))
        s_jet = geometry_state(pert, *p, 2)
        s_fd = geometry_state(bb, *p, 2)
        assert abs(sq(s_fd, "h_sq") - sq(s_jet, "h_sq")) < 1e-6
        assert abs(sq(s_fd, "hhat_sq") - sq(s_jet, "hhat_sq")) < 1e-6
        assert np.max(np.abs(s_fd.g0 - s_jet.g0)) < 1e-9

    def test_black_box_evaluates_each_point_in_its_own_chart(self):
        """A far chart-0 point moves to chart 1, and the black box must call
        its map with chart 1 there, not the chart-0 formula."""
        pert = make_perturbed_whitney(1.0, 0.05, 1, 2)
        bb = make_black_box(
            lambda chart_id, x: pert.jets(chart_id, x[None], 1).value[:, 0],
            2, atlas=pert.atlas, name="bb_perturbed",
        )
        far = (0, np.array([3.0, 0.5]))
        s_jet = geometry_state(pert, *far, 2)
        s_fd = geometry_state(bb, *far, 2)
        assert bb.atlas.normalize(np.array([0]), far[1][None])[0].tolist() == [1]
        assert abs(sq(s_fd, "h_sq") - sq(s_jet, "h_sq")) < 1e-6  # the once-FD tolerance rung
        assert abs(sq(s_fd, "hhat_sq") - sq(s_jet, "hhat_sq")) < 1e-6


MIXED_CHART_BODIES = ("perturbed_whitney", "phase_twist", "product_torus", "rpn", "whitney_cn-offset", "whitney_cpn")


class TestMixedChartBatch:
    @pytest.mark.parametrize("name", MIXED_CHART_BODIES)
    def test_matches_per_chart_bundles(self, name):
        """One bundle whose points carry their own chart ids gives, point by
        point, what one bundle per chart gives: the point values at order 2
        and the second covariant derivative of h at order 4."""
        imm = corpus_body(name)
        coords = np.random.default_rng(60).uniform(-1.2, 1.2, size=(8, imm.source_dim))
        charts = np.arange(len(coords)) % (2 if imm.atlas.domain == "sphere" else 1)
        for order, fields in ((2, ("g0", "sqrt_det_g", "h0")), (4, ("hess_h",))):
            mixed = bundle_at(imm, charts, coords, order)
            for chart in np.unique(charts):
                idx = np.flatnonzero(charts == chart)
                alone = bundle_at(imm, int(chart), coords[idx], order)
                for field in fields:
                    want = getattr(alone, field)
                    got = getattr(mixed, field)[..., idx]
                    scale = max(1.0, float(np.max(np.abs(want))))
                    assert np.max(np.abs(got - want)) <= 1e-14 * scale, (field, int(chart))



CHAIN_BODIES = ("cpn_torus", "perturbed_whitney", "product_torus", "whitney_cn-offset", "whitney_cpn")


class TestOneDerivativeChain:
    """h is the one tensor whose covariant derivatives a bundle builds; H,
    hhat and T are linear maps of the matching array of h."""

    @pytest.mark.parametrize("name", CHAIN_BODIES)
    def test_trace_commutes_with_the_covariant_derivative(self, name):
        """The covariant-derivative chain on H, which the bundle no longer
        runs, against the trace of the chain on h."""
        imm = corpus_body(name)
        fb = bundle_at(imm, *chart_batch(imm, *imm.atlas.random(np.random.default_rng(7), 20)), 4)
        h = float(np.max(np.sqrt(fb.h_sq)))
        grad_H_jets = fb.covariant_derivative(fb.H_jets)
        assert np.max(np.abs(grad_H_jets.value - fb.grad_H)) <= 1e-13 * h**2
        hess_H = fb.covariant_derivative(grad_H_jets).value
        assert np.max(np.abs(hess_H - _trace(fb.hess_h))) <= 1e-13 * h**3

    def test_heavy_suite_differentiates_h_twice(self, monkeypatch):
        """Once h, of order 2 on the order-4 bundle, and once the order-1
        part of h_{,k}: hess_h is read at the points only."""
        from lagcheck.identities import run_identity_suite

        calls = []
        derivative = FrameBundle.covariant_derivative

        def counting(fb, x):
            calls.append((x.shape, x.order))
            return derivative(fb, x)

        monkeypatch.setattr(FrameBundle, "covariant_derivative", counting)
        imm = make_perturbed_whitney(1.0, 0.05, 1, 3)
        assert run_identity_suite(imm, *imm.atlas.random(np.random.default_rng(7), 5), heavy=True)["all_pass"]
        assert calls == [((3, 3, 3), 2), ((3, 3, 3, 3), 1)]

    @pytest.mark.parametrize("body", ENERGY_BODIES)
    def test_energy_builds_no_h_jet(self, monkeypatch, body):
        """Every chunk's order-2 bundle reads h, H and hhat off the rows of
        phi: h is built with the frame, H and hhat from it, and neither
        h_jets nor H_jets is built."""
        from lagcheck import geometry
        from lagcheck.quadrature import energy_report, rule_for

        bundles = []
        init = FrameBundle.__init__

        def keeping_init(fb, *args, **kwargs):
            init(fb, *args, **kwargs)
            bundles.append(fb)

        monkeypatch.setattr(FrameBundle, "__init__", keeping_init)
        monkeypatch.setitem(geometry.SAMPLE_CHUNK, 2, 100)
        imm = corpus_body(body)
        energy_report(imm, rule_for(imm, 6))
        assert len(bundles) > 1
        for fb in bundles:
            assert {"H0", "hhat0"} <= set(fb._cache) and not {"h_jets", "H_jets"} & set(fb._cache)
