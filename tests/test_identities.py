import numpy as np
import pytest

from lagcheck.cpn import make_rpn, make_whitney_cpn
from lagcheck import identities
from lagcheck import geometry
from lagcheck.geometry import geometry_state, point_bundle
from lagcheck.identities import (
    algebraic_simons_bound,
    check_gauss_ricci,
    check_ricci_identity,
    check_simons_identity,
    check_simons_inequality,
    check_structural,
    lemma_laplace_hhat,
    run_identity_suite,
    simons_terms,
)
from lagcheck.immersions import (
    ChartPoint,
    make_lagrangian_plane,
    make_perturbed_whitney,
    make_product_torus,
    make_whitney_cn,
)
from lagcheck.tensors import random_tracefree

BODIES = {
    "plane": (make_lagrangian_plane(2), ChartPoint(0, np.array([0.3, -0.6]))),
    "torus": (make_product_torus([1.0, 2.0]), ChartPoint(0, np.array([0.7, 2.1]))),
    "whitney": (make_whitney_cn(1.0, None, 2), ChartPoint(0, np.array([0.4, 0.5]))),
    "perturbed": (make_perturbed_whitney(1.0, 0.05, 1, 2), ChartPoint(0, np.array([0.4, -0.3]))),
}


def heavy(imm, p):
    return point_bundle(imm, p, 4)


class TestStructural:
    def test_plane_all_zero(self):
        imm, p = BODIES["plane"]
        res = check_structural(geometry_state(imm, p))
        assert all(v < 1e-14 for v in res.values())

    def test_torus_below_jet_rung(self):
        imm, p = BODIES["torus"]
        res = check_structural(geometry_state(imm, p))
        assert all(v < 1e-9 for v in res.values())

    def test_perturbed_whitney_below_fd1(self):
        imm, _ = BODIES["perturbed"]
        for p in imm.atlas.random_points(np.random.default_rng(0), 20):
            res = check_structural(geometry_state(imm, p))
            assert all(v < 1e-6 for v in res.values()), res


class TestGaussRicci:
    def test_plane_zero(self):
        imm, p = BODIES["plane"]
        res = check_gauss_ricci(geometry_state(imm, p))
        assert res["gauss_two_method"] < 1e-14
        assert res["ricci_equation"] < 1e-14

    def test_torus_flat_both_ways(self):
        imm, p = BODIES["torus"]
        s = geometry_state(imm, p)
        res = check_gauss_ricci(s)
        assert res["gauss_two_method"] < 1e-10
        assert np.max(np.abs(s.R)) < 1e-10

    @pytest.mark.parametrize("name", ["whitney", "perturbed"])
    def test_curved_bodies(self, name):
        imm, p = BODIES[name]
        res = check_gauss_ricci(geometry_state(imm, p))
        assert res["gauss_two_method"] < 1e-6
        assert res["ricci_equation"] < 1e-5

    def test_rpn_curvature_one(self):
        imm = make_rpn(2)
        s = geometry_state(imm, ChartPoint(0, np.array([0.2, 0.6])))
        res = check_gauss_ricci(s)
        assert res["gauss_two_method"] < 1e-6
        assert s.R[0, 1, 0, 1] == pytest.approx(1.0, abs=1e-6)


class TestRicciIdentity:
    @pytest.mark.parametrize("name,tol", [("plane", 1e-14), ("torus", 1e-6), ("perturbed", 1e-4)])
    def test_commutation_rule(self, name, tol):
        imm, p = BODIES[name]
        assert check_ricci_identity(heavy(imm, p)) < tol

    def test_perturbed_many_points(self):
        imm, _ = BODIES["perturbed"]
        for p in imm.atlas.random_points(np.random.default_rng(1), 10):
            assert check_ricci_identity(heavy(imm, p)) < 1e-4


class TestLaplaceContraction:
    def test_torus_both_sides_vanish(self):
        imm, p = BODIES["torus"]
        lhs, rhs = lemma_laplace_hhat(heavy(imm, p))
        assert abs(lhs) < 1e-9
        assert abs(rhs) < 1e-9

    def test_perturbed_agreement(self):
        imm, p = BODIES["perturbed"]
        lhs, rhs = lemma_laplace_hhat(heavy(imm, p))
        assert abs(lhs - rhs) < 1e-13


class TestSimonsIdentity:
    def test_torus_terms_cancel(self):
        imm, p = BODIES["torus"]
        t = simons_terms(heavy(imm, p))
        rhs_terms = (
            t["HH_term"]
            + t["commutator_term"]
            + t["trace_sq_term"]
            + t["cubic_term"]
            + t["quad_term"]
        )
        assert abs(rhs_terms) < 1e-9
        assert abs(t["lhs_half_laplacian"]) < 1e-9
        assert abs(t["hhat_grad_T"]) < 1e-9
        assert t["grad_hhat_sq"] < 1e-12

    def test_square_torus_term_values(self):
        # hand-computed from the closed-form trace decomposition
        imm = make_product_torus([1.0, 1.0])
        t = simons_terms(heavy(imm, ChartPoint(0, np.array([0.4, 1.3]))))
        assert t["HH_term"] == pytest.approx(0.25, abs=1e-12)
        assert t["commutator_term"] == pytest.approx(-0.25, abs=1e-12)
        assert t["trace_sq_term"] == pytest.approx(-0.125, abs=1e-12)
        assert t["cubic_term"] == pytest.approx(0.0, abs=1e-12)
        assert t["quad_term"] == pytest.approx(0.125, abs=1e-12)

    def test_whitney_every_term_vanishes(self):
        imm, p = BODIES["whitney"]
        t = simons_terms(heavy(imm, p))
        for name in ("hhat_grad_T", "grad_hhat_sq", "commutator_term", "cubic_term"):
            assert abs(t[name]) < 1e-9

    def test_perturbed_relative_residual(self):
        imm, _ = BODIES["perturbed"]
        for p in imm.atlas.random_points(np.random.default_rng(2), 5):
            lhs, rhs, rel = check_simons_identity(simons_terms(heavy(imm, p)))
            assert rel < 1e-13


class TestSimonsInequality:
    def test_whitney_margin_zero(self):
        fb = heavy(*BODIES["whitney"])
        res = check_simons_inequality(fb, simons_terms(fb))
        assert abs(res["margin"]) < 1e-9

    def test_torus_margin(self):
        imm = make_product_torus([1.0, 1.0])
        fb = heavy(imm, ChartPoint(0, np.array([0.2, 0.8])))
        res = check_simons_inequality(fb, simons_terms(fb))
        # closed form: the identity right side vanishes, so the margin is
        # (n+3)/2 |hhat|^4 - n^2/(n+2) |hhat|^2 |H|^2 = 5/8 - 1/4 = 3/8
        assert res["margin"] == pytest.approx(0.375, abs=1e-8)
        assert res["margin"] >= -1e-9

    def test_perturbed_margin_nonnegative(self):
        fb = heavy(*BODIES["perturbed"])
        res = check_simons_inequality(fb, simons_terms(fb))
        assert res["margin"] >= -1e-9
        assert res["spectral_consistency"] < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_algebraic_bound_random(self, n):
        rng = np.random.default_rng(50 + n)
        for _ in range(100):
            hh = random_tracefree(rng, n)
            H = rng.normal(size=n)
            res = algebraic_simons_bound(hh.entries, H)
            assert res["margin"] >= -1e-10
            assert res["spectral_consistency"] < 1e-10


class TestCurvatureContractionClosedForms:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("c_amb", [0.0, 1.0])
    def test_random_data(self, n, c_amb):
        from lagcheck.identities import curvature_contraction_closed_forms

        rng = np.random.default_rng(200 + n)
        worst = 0.0
        for _ in range(25):
            hhat = random_tracefree(rng, n)
            H = rng.normal(size=n)
            res = curvature_contraction_closed_forms(hhat.entries, H, c_amb)
            worst = max(worst, max(res.values()))
        assert worst < 1e-10


class TestSuiteReports:
    def test_whitney_suite_passes(self):
        imm = make_whitney_cn(1.0, None, 2)
        pts = imm.atlas.random_points(np.random.default_rng(3), 6)
        rep = run_identity_suite(imm, pts, seed=3)
        assert rep.all_pass
        names = {c.name for c in rep.checks}
        assert "tri_symmetry" in names and "simons_identity_rel" in names

    def test_cpn_suite_passes_with_heavy_checks(self):
        # exercises the order-4 horizontal lift and the heavy checks in CP^n
        imm = make_whitney_cpn(0.8, 2)
        pts = imm.atlas.random_points(np.random.default_rng(4), 4)
        rep = run_identity_suite(imm, pts, seed=4, heavy=True)
        assert rep.all_pass

    def test_one_bundle_per_point_and_per_heavy_point(self, monkeypatch):
        builds, terms_calls = [], []
        init = geometry.FrameBundle.__init__
        terms = identities.simons_terms

        def counting_init(fb, *args, **kwargs):
            builds.append(1)
            init(fb, *args, **kwargs)

        def counting_terms(fb):
            terms_calls.append(1)
            return terms(fb)

        monkeypatch.setattr(geometry.FrameBundle, "__init__", counting_init)
        monkeypatch.setattr(identities, "simons_terms", counting_terms)
        imm = make_whitney_cn(1.0, None, 2)
        pts = imm.atlas.random_points(np.random.default_rng(8), 5)
        assert run_identity_suite(imm, pts, seed=8).all_pass
        assert len(builds) == len(pts) + identities.HEAVY_POINT_COUNT
        assert len(terms_calls) == identities.HEAVY_POINT_COUNT

    def test_simons_coefficient_mutation_is_flagged(self, monkeypatch):
        # a relative change of 1e-4 in the n^2/(n+2) coefficient of the
        # quadratic term moves the residual by about 1e-5: far above the jet
        # rung, far below the 1e-3 bound of a finite-difference Laplacian
        imm, _ = BODIES["torus"]
        pts = imm.atlas.random_points(np.random.default_rng(9), 3)

        def simons_check(report):
            return next(c for c in report.checks if c.name == "simons_identity_rel")

        assert simons_check(run_identity_suite(imm, pts, seed=9)).passed
        terms = identities.simons_terms

        def mutated(*args):
            t = terms(*args)
            t["quad_term"] *= 1.0 + 1e-4
            return t

        monkeypatch.setattr(identities, "simons_terms", mutated)
        flagged = simons_check(run_identity_suite(imm, pts, seed=9))
        assert not flagged.passed
        assert flagged.max_residual < 1e-3

    def test_tolerance_scaling_can_fail(self):
        imm, _ = BODIES["perturbed"]
        pts = imm.atlas.random_points(np.random.default_rng(5), 3)
        rep = run_identity_suite(imm, pts, tol_scale=1e-12, seed=5, heavy=False)
        assert not rep.all_pass

    def test_report_serialization(self):
        imm, _ = BODIES["torus"]
        pts = imm.atlas.random_points(np.random.default_rng(6), 2)
        rep = run_identity_suite(imm, pts, seed=6, heavy=False)
        doc = rep.to_dict()
        assert doc["schema"] == 1
        assert doc["kind"] == "identities"
        assert doc["all_pass"] is True
        assert rep.to_json().endswith("\n")

    def test_residuals_frame_gauge_invariant(self):
        imm, p = BODIES["perturbed"]
        rng = np.random.default_rng(7)
        Q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        r0 = check_structural(geometry_state(imm, p))
        r1 = check_structural(geometry_state(imm, p, frame_gauge=Q))
        for k in r0:
            assert abs(r0[k] - r1[k]) < 1e-9

    def test_residuals_chart_invariant(self):
        imm, _ = BODIES["perturbed"]
        u = np.array([0.9, 0.6])
        p0 = ChartPoint(0, u)
        p1 = imm.atlas.transition(p0, 1)
        r0 = check_gauss_ricci(geometry_state(imm, p0))
        r1 = check_gauss_ricci(geometry_state(imm, p1))
        for k in r0:
            assert abs(r0[k] - r1[k]) < 1e-9
