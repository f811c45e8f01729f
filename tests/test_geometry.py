import math

import numpy as np
import pytest

from lagcheck.cpn import make_rpn
from lagcheck.geometry import (
    DegenerateMetricError,
    NonLagrangianError,
    closedness_residual,
    geometry_state,
    intrinsic_curvature,
    maslov_one_form,
    maslov_tensor,
    maslov_tensor_gradient,
    point_bundle,
    scalar_laplacian,
)
from lagcheck.immersions import (
    ChartPoint,
    complex_to_real_matrix,
    linear_image,
    make_lagrangian_plane,
    make_nonlagrangian_plane,
    make_perturbed_whitney,
    make_product_torus,
    make_whitney_cn,
    random_unitary,
)

RNG = np.random.default_rng(1234)


def _unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_orthogonal(n, rng):
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Q


class TestPlane:
    def test_everything_vanishes(self):
        imm = make_lagrangian_plane(3)
        s = geometry_state(imm, ChartPoint(0, np.array([0.5, -1.0, 0.2])))
        assert s.h_norm_sq() == 0.0
        assert s.H_norm_sq() == 0.0
        assert s.hhat_norm_sq() == 0.0
        assert np.all(s.T.entries == 0.0)
        assert np.all(s.R == 0.0)

    def test_nonlagrangian_detected(self):
        imm = make_nonlagrangian_plane(2)
        with pytest.raises(NonLagrangianError, match="Lagrangian condition violated"):
            geometry_state(imm, ChartPoint(0, np.array([0.1, 0.2])))


class TestTorus:
    @pytest.mark.parametrize("radii", [(1.0, 1.0), (1.0, 2.0), (0.5, 1.0, 2.0)])
    def test_closed_forms(self, radii):
        imm = make_product_torus(radii)
        p = ChartPoint(0, RNG.uniform(0, 2 * math.pi, len(radii)))
        s = geometry_state(imm, p)
        r = np.asarray(radii)
        assert s.h_norm_sq() == pytest.approx(np.sum(1 / r**2), abs=1e-12)
        assert s.H_norm_sq() == pytest.approx(np.sum(1 / r**2) / len(r) ** 2, abs=1e-12)
        assert np.max(np.abs(s.grad_h)) < 1e-12
        assert np.max(np.abs(s.T.entries)) < 1e-12
        assert np.max(np.abs(s.R)) < 1e-12

    def test_metric_is_diagonal_radii_squared(self):
        imm = make_product_torus([1.0, 1.0])
        s = geometry_state(imm, ChartPoint(0, np.array([0.4, 2.2])), depth="pointwise")
        assert np.allclose(s.metric.g, np.eye(2), atol=1e-14)

    def test_h_sign_convention(self):
        # positive diagonal curvature components with inward circle normals
        imm = make_product_torus([2.0, 0.5])
        s = geometry_state(imm, ChartPoint(0, np.array([1.0, 2.0])), depth="pointwise")
        assert s.h.entries[0, 0, 0] == pytest.approx(0.5)
        assert s.h.entries[1, 1, 1] == pytest.approx(2.0)


class TestWhitney:
    @pytest.mark.parametrize("n", [2, 3])
    def test_hhat_and_T_vanish(self, n):
        imm = make_whitney_cn(1.0, None, n)
        for p in imm.atlas.random_points(np.random.default_rng(n), 10):
            s = geometry_state(imm, p)
            assert math.sqrt(s.hhat_norm_sq()) < 1e-10
            assert math.sqrt(float(np.sum(s.T.entries**2))) < 1e-10

    def test_gauss_two_method_agreement(self):
        imm = make_whitney_cn(1.0, None, 2)
        p = ChartPoint(0, np.array([0.6, -0.2]))
        s = geometry_state(imm, p)
        R = intrinsic_curvature(imm, p)
        h = s.h.entries
        rhs = np.einsum("mik,mjl->ijkl", h, h) - np.einsum("mil,mjk->ijkl", h, h)
        assert np.max(np.abs(R - rhs)) < 1e-10

    def test_dilation_covariance(self):
        p = ChartPoint(0, np.array([0.3, 0.7]))
        w1 = geometry_state(make_whitney_cn(1.0, np.array([0.3 + 0.1j, 0.0]), 2), p)
        pert = make_perturbed_whitney(1.0, 0.05, 1, 2)
        s1 = geometry_state(pert, p)
        for lam in (0.5, 2.0, 10.0):
            w2 = geometry_state(
                make_whitney_cn(lam, lam * np.array([0.3 + 0.1j, 0.0]), 2), p
            )
            assert w2.h_norm_sq() == pytest.approx(w1.h_norm_sq() / lam**2, rel=1e-12)
            s2 = geometry_state(linear_image(pert, lam * np.eye(4)), p)
            assert s2.hhat_norm_sq() == pytest.approx(s1.hhat_norm_sq() / lam**2, rel=1e-10)


class TestFrameAndGauge:
    def test_frame_orthonormal_and_lagrangian(self):
        imm = make_perturbed_whitney(1.0, 0.05, 2, 3)
        p = ChartPoint(0, np.array([0.4, 0.1, -0.8]))
        s = geometry_state(imm, p, depth="pointwise")
        e, Je = s.frame.e, s.frame.Je
        assert np.allclose(e @ e.T, np.eye(3), atol=1e-12)
        assert np.allclose(Je @ Je.T, np.eye(3), atol=1e-12)
        assert np.max(np.abs(e @ Je.T)) < 1e-10

    def test_gauge_invariance_of_scalars(self):
        imm = make_perturbed_whitney(1.0, 0.05, 1, 2)
        p = ChartPoint(0, np.array([0.4, -0.3]))
        s0 = geometry_state(imm, p)
        rng = np.random.default_rng(77)
        for _ in range(3):
            Q = random_orthogonal(2, rng)
            s1 = geometry_state(imm, p, frame_gauge=Q)
            assert s1.hhat_norm_sq() == pytest.approx(s0.hhat_norm_sq(), abs=1e-12)
            assert s1.h_norm_sq() == pytest.approx(s0.h_norm_sq(), abs=1e-12)
            assert s1.H_norm_sq() == pytest.approx(s0.H_norm_sq(), abs=1e-12)
            assert float(np.sum(s1.T.entries**2)) == pytest.approx(
                float(np.sum(s0.T.entries**2)), abs=1e-12
            )
            assert s1.grad_hhat_norm_sq() == pytest.approx(s0.grad_hhat_norm_sq(), abs=1e-11)

    def test_chart_covariance_of_scalars(self):
        imm = make_perturbed_whitney(1.0, 0.05, 1, 2)
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = rng.uniform(0.6, 1.8) * _unit(rng, 2)
            p0 = ChartPoint(0, u)
            p1 = imm.atlas.transition(p0, 1)
            s0 = geometry_state(imm, p0)
            s1 = geometry_state(imm, p1)
            for scal in ("hhat_norm_sq", "h_norm_sq", "H_norm_sq", "grad_hhat_norm_sq"):
                assert getattr(s1, scal)() == pytest.approx(getattr(s0, scal)(), abs=1e-9)
            scal0 = float(np.einsum("ijij->", s0.R))
            scal1 = float(np.einsum("ijij->", s1.R))
            assert scal1 == pytest.approx(scal0, abs=1e-9)

    def test_unitary_motion_invariance(self):
        imm = make_whitney_cn(1.0, np.array([0.2 + 0.1j, 0.0]), 2)
        rng = np.random.default_rng(5)
        R = complex_to_real_matrix(random_unitary(2, rng))
        moved = linear_image(imm, R, offset=rng.normal(size=4))
        p = ChartPoint(0, np.array([0.5, 0.1]))
        s0, s1 = geometry_state(imm, p), geometry_state(moved, p)
        assert s1.h_norm_sq() == pytest.approx(s0.h_norm_sq(), abs=1e-12)
        assert s1.hhat_norm_sq() == pytest.approx(s0.hhat_norm_sq(), abs=1e-14)

    def test_norm_identity_pointwise(self):
        imm = make_perturbed_whitney(1.0, 0.07, 3, 2)
        n = 2
        for p in imm.atlas.random_points(np.random.default_rng(8), 10):
            s = geometry_state(imm, p, depth="pointwise")
            resid = abs(s.hhat_norm_sq() - s.h_norm_sq() + 3 * n * n / (n + 2) * s.H_norm_sq())
            assert resid < 1e-10

    def test_degenerate_metric_detected(self):
        imm = make_lagrangian_plane(2)
        squashed = linear_image(imm, np.diag([1.0, 1.0, 1e-9, 1e-9]))
        with pytest.raises(DegenerateMetricError):
            geometry_state(squashed, ChartPoint(0, np.array([0.1, 0.2])), depth="pointwise")


class TestTriSymmetryInvariant:
    def test_all_builtin_bodies_hundred_points(self):
        from lagcheck.geometry import bundle_at
        from lagcheck.tensors import trisym_residual

        bodies = [
            make_whitney_cn(1.0, None, 2),
            make_product_torus([1.0, 2.0]),
            make_lagrangian_plane(2),
            make_perturbed_whitney(1.0, 0.05, 1, 2),
        ]
        for imm in bodies:
            rng = np.random.default_rng(55)
            groups = {}
            for p in imm.atlas.random_points(rng, 100):
                p = imm.atlas.normalize(p)
                groups.setdefault(p.chart_id, []).append(p.coords)
            for cid, coords in groups.items():
                fb = bundle_at(imm, cid, np.array(coords), 2)
                for b in range(fb.h0.shape[-1]):
                    assert trisym_residual(fb.h0[..., b]) < 1e-9


class TestMaslov:
    def test_one_form_matches_mean_curvature(self):
        imm = make_product_torus([1.0, 2.0])
        s = geometry_state(imm, ChartPoint(0, np.array([0.2, 1.4])))
        alpha = maslov_one_form(s)
        assert alpha.norm_sq() == pytest.approx(s.H_norm_sq(), abs=1e-14)

    def test_minimal_immersion_zero_form(self):
        imm = make_lagrangian_plane(2)
        s = geometry_state(imm, ChartPoint(0, np.array([0.3, 0.4])))
        assert maslov_one_form(s).norm_sq() == 0.0

    def test_closedness_torus(self):
        imm = make_product_torus([1.0, 3.0])
        p = ChartPoint(0, np.array([0.9, 4.0]))
        assert closedness_residual(imm, p) < 1e-9

    def test_closedness_whitney(self):
        imm = make_whitney_cn(1.0, None, 2)
        for p in imm.atlas.random_points(np.random.default_rng(10), 20):
            assert closedness_residual(imm, p) < 1e-6

    def test_closedness_perturbed(self):
        imm = make_perturbed_whitney(1.0, 0.05, 1, 2)
        p = ChartPoint(0, np.array([0.4, -0.3]))
        assert closedness_residual(imm, p) < 1e-9


class TestMaslovTensor:
    def test_whitney_conformal(self):
        imm = make_whitney_cn(1.0, None, 3)
        p = ChartPoint(0, np.array([0.2, 0.5, -0.3]))
        T = maslov_tensor(geometry_state(imm, p))
        assert np.max(np.abs(T.entries)) < 1e-10

    def test_perturbed_has_nonzero_T(self):
        imm = make_perturbed_whitney(1.0, 0.05, 1, 2)
        s = geometry_state(imm, ChartPoint(0, np.array([0.4, -0.3])))
        # frozen regression values for this point and mode
        assert s.hhat_norm_sq() == pytest.approx(0.00039283414137453046, rel=1e-8)
        assert float(np.sum(s.T.entries**2)) == pytest.approx(0.0022696491126050523, rel=1e-8)

    @pytest.mark.parametrize("n", [2, 3])
    def test_gradient_matches_divergence_form(self, n):
        # T_ij = (1/n) hhat^{m*}_{ij,m}, so T_{ij,k} = (1/n) hhat^{m*}_{ij,mk}:
        # the gradient from H jets against the second derivative of hhat
        imm = make_perturbed_whitney(1.0, 0.06, 2, n)
        for p in imm.atlas.random_points(np.random.default_rng(30 + n), 3):
            grad_t = maslov_tensor_gradient(imm, p)
            hess = point_bundle(imm, p, 4).hess_hhat[..., 0]
            assert np.max(np.abs(grad_t - np.einsum("mijmk->ijk", hess) / n)) < 1e-13
            assert np.max(np.abs(grad_t)) > 1e-2

    def test_consistency_with_divergence_form(self):
        imm = make_perturbed_whitney(1.0, 0.06, 2, 2)
        s = geometry_state(imm, ChartPoint(0, np.array([0.3, 0.5])))
        assert np.max(np.abs(s.T.entries - s.T_divergence_form)) < 1e-8


class TestScalarLaplacian:
    def test_constant_field(self):
        imm = make_product_torus([1.0, 1.0])
        val = scalar_laplacian(imm, lambda cid, u: 0.0 * u[0] + 3.5, ChartPoint(0, np.array([0.4, 0.8])))
        assert abs(val) < 1e-14

    def test_first_spherical_harmonic(self):
        # the totally geodesic real form carries the round unit-sphere metric
        imm = make_rpn(2)
        atlas = imm.atlas

        def f(cid, u):
            return atlas.embed_jets(cid, u)[2]

        rng = np.random.default_rng(21)
        for p in atlas.random_points(rng, 5):
            p = atlas.normalize(p)
            val = scalar_laplacian(imm, f, p)
            assert val == pytest.approx(-2.0 * atlas.embed(p)[2], abs=1e-12)

    @staticmethod
    def _assert_torus_hhat_sq_harmonic(radii):
        # |hhat|^2 is constant on a product torus, so its Laplacian vanishes
        # at every scale, relative to |hhat|^2 / r_min^2
        imm = make_product_torus(list(radii))
        fb = point_bundle(imm, ChartPoint(0, np.array([1.2, 0.3])), 4)
        val = float(fb.laplacian(fb.hhat_sq_jet)[0])
        assert abs(val) <= 1e-12 * float(fb.scalar("hhat_sq")[0]) / min(radii) ** 2

    def test_hhat_sq_constant_on_torus(self):
        self._assert_torus_hhat_sq_harmonic((1.0, 2.0))

    def test_hhat_sq_constant_on_small_torus(self):
        self._assert_torus_hhat_sq_harmonic((0.02, 0.03))

    def test_hhat_sq_jet_matches_pointwise_scalar(self):
        imm = make_perturbed_whitney(1.0, 0.05, 1, 2)
        fb = point_bundle(imm, ChartPoint(0, np.array([0.4, -0.3])), 4)
        assert fb.hhat_sq_jet.value[0] == pytest.approx(fb.scalar("hhat_sq")[0], rel=1e-13)

    def test_grad_T_needs_order_four(self):
        imm = make_perturbed_whitney(1.0, 0.05, 1, 2)
        with pytest.raises(ValueError):
            point_bundle(imm, ChartPoint(0, np.array([0.4, -0.3])), 3).grad_T


# Values computed by the earlier nested-list frame bundle at one order-4 point,
# with the power of |h|^2 each quantity scales as.  On the Whitney sphere in CP^n
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
    from lagcheck.cpn import make_whitney_cpn
    from lagcheck.identities import simons_terms

    imm = make_perturbed_whitney(1.0, 0.05, 1, 3) if body == "perturbed_whitney" else make_whitney_cpn(0.7, 3)
    fb = point_bundle(imm, ChartPoint(0, np.array([0.3, -0.2, 0.5])), 4)
    got = {
        "h_sq": float(fb.scalar("h_sq")[0]),
        "grad_hhat_sq": float(fb.scalar("grad_hhat_sq")[0]),
        "scalar_curvature": float(fb.scalar("scalar_curvature")[0]),
        "grad_T_norm": float(np.sqrt(np.sum(fb.grad_T[..., 0] ** 2))),
        "simons_lhs": simons_terms(fb)["lhs_half_laplacian"],
    }
    h_sq = PINNED[body]["h_sq"][0]
    for name, (want, weight) in PINNED[body].items():
        assert abs(got[name] - want) <= 1e-12 * max(abs(want), h_sq**weight), name


class TestPoleHandling:
    def test_far_points_renormalized(self):
        imm = make_whitney_cn(1.0, None, 2)
        far = ChartPoint(0, np.array([3.0, 0.0]))
        s = geometry_state(imm, far)
        assert s.point.chart_id == 1
        assert np.linalg.norm(s.point.coords) < 2.0 + 1e-12


class TestFiniteDifferenceCrossValidation:
    def test_black_box_route_matches_jet_route_on_curved_body(self):
        """Pure finite-difference jets through the same frame machinery must
        reproduce the exact-jet geometry at the once/twice-FD rungs."""
        from lagcheck.immersions import make_black_box

        pert = make_perturbed_whitney(1.0, 0.05, 1, 2)

        def fn(x):
            return pert.point(ChartPoint(0, x.copy()))

        bb = make_black_box(fn, 2, 2, atlas=pert.atlas, name="bb_perturbed")
        p = ChartPoint(0, np.array([0.4, -0.3]))
        s_jet = geometry_state(pert, p, depth="pointwise")
        s_fd = geometry_state(bb, p, depth="pointwise")
        assert abs(s_fd.h_norm_sq() - s_jet.h_norm_sq()) < 1e-6
        assert abs(s_fd.hhat_norm_sq() - s_jet.hhat_norm_sq()) < 1e-6
        assert np.max(np.abs(s_fd.metric.g - s_jet.metric.g)) < 1e-9


class TestSerialization:
    def test_state_to_json(self):
        imm = make_whitney_cn(1.0, None, 2)
        s = geometry_state(imm, ChartPoint(0, np.array([0.4, 0.2])))
        doc = s.to_dict()
        assert doc["schema"] == 1
        assert doc["ambient"] == "Cn"
        assert len(doc["h"]) == 2
        text = s.to_json()
        assert text.startswith("{")
