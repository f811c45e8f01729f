import functools
import json
import re
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagcheck.cpn import HorizontalityError, make_cpn_torus, make_rpn, make_whitney_cpn
from lagcheck import identities
from lagcheck import geometry
from lagcheck.geometry import DegenerateMetricError, NonLagrangianError, geometry_state
from lagcheck.identities import (
    CHECKS,
    FORMS,
    check_gauss_ricci,
    check_ricci_identity,
    check_simons_identity,
    check_simons_inequality,
    check_structural,
    lemma_laplace_hhat,
    residual,
    run_identity_suite,
    simons_terms,
)
from lagcheck.immersions import (
    AMBIENT_CN,
    AMBIENT_SPHERE,
    Immersion,
    OutOfDomainError,
    PlaneAtlas,
    make_lagrangian_plane,
    make_perturbed_whitney,
    make_product_torus,
    make_whitney_cn,
)
from lagcheck.jets import Jet
from lagcheck.tensors import c_tensor_array
from reference import (
    algebraic_simons_bound,
    balance,
    curvature_contraction_closed_forms,
    laplace_hhat_sides_unmerged,
    random_tracefree,
    stack,
)

BODIES = {
    "plane": (make_lagrangian_plane(2), (0, np.array([0.3, -0.6]))),
    "torus": (make_product_torus([1.0, 2.0]), (0, np.array([0.7, 2.1]))),
    "whitney": (make_whitney_cn(1.0, None, 2), (0, np.array([0.4, 0.5]))),
    "perturbed": (make_perturbed_whitney(1.0, 0.05, 1, 2), (0, np.array([0.4, -0.3]))),
}


ORACLE_BODIES = [
    make_whitney_cn(1.0, np.array([0.3 + 0.2j, -0.4j, 0.1]), 3),
    make_perturbed_whitney(1.0, 0.05, 1, 3),
    make_product_torus([1.0, 1.5, 2.0]),
    make_whitney_cpn(0.7, 3),
]


def hits(imm, charts, coords):
    """hit(fb): the (B,) mask of the points of a bundle that lie at the
    ambient points of the sample points `charts`, `coords`, in any chunk."""
    marks = imm.jets(*imm.atlas.normalize(charts, coords), 1).value.T

    def hit(fb):
        x = fb.phi.value.T  # (B, ambient)
        return np.any(np.all(np.abs(x[:, None, :] - marks[None]) < 1e-12, axis=2), axis=1)

    return hit


def spike_simons_lhs(monkeypatch, imm, charts, coords, size):
    """Add `size` to the chart Laplacian, the left side of the Simons
    identity, at the ambient points of the sample points `charts`, `coords`
    only."""
    hit = hits(imm, charts, coords)
    laplacian = geometry.FrameBundle.laplacian

    def spiked(fb, jet):
        value = laplacian(fb, jet)
        return np.where(hit(fb), value + size, value)

    monkeypatch.setattr(geometry.FrameBundle, "laplacian", spiked)


def reduced(sides):
    """The (B,) residuals of the sides of checks, by check name."""
    return {name: residual(FORMS[name], *s) for name, s in sides.items()}


def heavy(imm, chart, coords):
    return geometry_state(imm, chart, coords, 4)


def at_one_point(residuals):
    """The residuals of a one-point bundle as plain floats."""
    return {k: float(v[0]) for k, v in residuals.items()}


def structural(imm, chart, coords, **kwargs):
    return at_one_point(reduced(check_structural(geometry_state(imm, chart, coords, 3, **kwargs))))


def gauss_ricci(imm, chart, coords):
    return at_one_point(reduced(check_gauss_ricci(geometry_state(imm, chart, coords, 3))))


class TestStructural:
    def test_plane_all_zero(self):
        imm, p = BODIES["plane"]
        res = structural(imm, *p)
        assert all(v < 1e-14 for v in res.values())

    def test_torus_below_jet_rung(self):
        imm, p = BODIES["torus"]
        res = structural(imm, *p)
        assert all(v < 1e-9 for v in res.values())

    def test_perturbed_whitney_below_fd1(self):
        imm, _ = BODIES["perturbed"]
        for p in zip(*imm.atlas.random(np.random.default_rng(0), 20)):
            res = structural(imm, *p)
            assert all(v < 1e-6 for v in res.values()), res


class TestGaussRicci:
    def test_plane_zero(self):
        imm, p = BODIES["plane"]
        res = gauss_ricci(imm, *p)
        assert res["gauss_two_method"] < 1e-14
        assert res["ricci_equation"] < 1e-14

    def test_torus_flat_both_ways(self):
        imm, p = BODIES["torus"]
        fb = geometry_state(imm, *p, 3)
        res = at_one_point(reduced(check_gauss_ricci(fb)))
        assert res["gauss_two_method"] < 1e-10
        assert np.max(np.abs(fb.curvature_frame)) < 1e-10

    @pytest.mark.parametrize("name", ["whitney", "perturbed"])
    def test_curved_bodies(self, name):
        imm, p = BODIES[name]
        res = gauss_ricci(imm, *p)
        assert res["gauss_two_method"] < 1e-6
        assert res["ricci_equation"] < 1e-5

    def test_rpn_curvature_one(self):
        imm = make_rpn(2)
        fb = geometry_state(imm, 0, [0.2, 0.6], 3)
        res = at_one_point(reduced(check_gauss_ricci(fb)))
        assert res["gauss_two_method"] < 1e-6
        assert fb.curvature_frame[0, 1, 0, 1, 0] == pytest.approx(1.0, abs=1e-6)


def ricci_identity(fb):
    return float(residual(FORMS["ricci_identity"], *check_ricci_identity(fb))[0])


def laplace_contraction(fb):
    return lemma_laplace_hhat(fb, simons_terms(fb))


class TestRicciIdentity:
    @pytest.mark.parametrize("name,tol", [("plane", 1e-14), ("torus", 1e-6), ("perturbed", 1e-4)])
    def test_commutation_rule(self, name, tol):
        imm, p = BODIES[name]
        assert ricci_identity(heavy(imm, *p)) < tol

    def test_perturbed_many_points(self):
        imm, _ = BODIES["perturbed"]
        for p in zip(*imm.atlas.random(np.random.default_rng(1), 10)):
            assert ricci_identity(heavy(imm, *p)) < 1e-4

    @pytest.mark.parametrize("make", [lambda: make_whitney_cn(1.0, None, 5), lambda: make_perturbed_whitney(1.0, 0.05, 1, 5)])
    def test_sides_are_summed_one_term_at_a_time(self, make):
        """At n = 5 on 128 points, on a bundle that already holds hess_h, h
        and the curvature, the residual's traced peak stays within 3.5 arrays
        of n^5 B floats: the difference, the running sum and one term, never
        a whole side.  It equals bit for bit the residual of the sides held
        whole."""
        imm = make()
        fb = geometry.bundle_at(imm, *geometry.chart_batch(imm, *imm.atlas.random(np.random.default_rng(7), 128)), 4)
        whole = residual("difference", *map(tuple, check_ricci_identity(fb)))
        tracemalloc.start()
        try:
            got = residual("difference", *check_ricci_identity(fb))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 5**5 * 128 * 8
        assert np.array_equal(got, whole)


class TestLaplaceContraction:
    def test_torus_both_sides_vanish(self):
        imm, p = BODIES["torus"]
        lhs, rhs = laplace_contraction(heavy(imm, *p))
        assert abs(sum(lhs)[0]) < 1e-9
        assert abs(sum(rhs)[0]) < 1e-9

    def test_perturbed_agreement(self):
        imm, p = BODIES["perturbed"]
        assert abs(balance(laplace_contraction(heavy(imm, *p)))[0]) < 1e-13

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_doubled_term_is_the_two_it_replaces(self, n, seed):
        """The right side with one curvature term doubled agrees with the
        three contractions summed one by one, to 1e-13 of the largest term:
        on a drawn totally symmetric trace-free hhat against a 4-tensor with
        no symmetry, and on every bundle of the coverage corpus.  The largest
        term is floored at 1e-6, as in `weight_fit`: where hhat is zero, as
        on a Whitney sphere, its round-off is not symmetric."""
        rng = np.random.default_rng(seed)
        B = 3
        drawn = SimpleNamespace(
            hhat0=np.stack([random_tracefree(rng, n) for _ in range(B)], axis=-1),
            gauss_rhs=rng.normal(size=(n,) * 4 + (B,)),
            hess_hhat=rng.normal(size=(n,) * 5 + (B,)),
        )
        for fb, t in [(drawn, {"hhat_grad_T": rng.normal(size=B)})] + [
            (fb, simons_terms(fb)) for ambient in sorted(COVERAGE_CORPUS) for fb in corpus_bundles(ambient)
        ]:
            (lhs,), rhs = lemma_laplace_hhat(fb, t)
            (want_lhs,), want_rhs = laplace_hhat_sides_unmerged(fb, t)
            assert np.array_equal(lhs, want_lhs) and len(rhs) == len(want_rhs) - 1
            scale = np.maximum(np.max(np.abs(want_rhs), axis=0), 1e-6)
            assert np.all(np.abs(sum(rhs) - sum(want_rhs)) <= 1e-13 * scale)


class TestSimonsIdentity:
    def test_torus_terms_cancel(self):
        imm, p = BODIES["torus"]
        t = at_one_point(simons_terms(heavy(imm, *p)))
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
        t = at_one_point(simons_terms(heavy(imm, 0, [0.4, 1.3])))
        assert t["HH_term"] == pytest.approx(0.25, abs=1e-12)
        assert t["commutator_term"] == pytest.approx(-0.25, abs=1e-12)
        assert t["trace_sq_term"] == pytest.approx(-0.125, abs=1e-12)
        assert t["cubic_term"] == pytest.approx(0.0, abs=1e-12)
        assert t["quad_term"] == pytest.approx(0.125, abs=1e-12)

    def test_whitney_every_term_vanishes(self):
        imm, p = BODIES["whitney"]
        t = at_one_point(simons_terms(heavy(imm, *p)))
        for name in ("hhat_grad_T", "grad_hhat_sq", "commutator_term", "cubic_term"):
            assert abs(t[name]) < 1e-9

    def test_perturbed_relative_residual(self):
        imm, _ = BODIES["perturbed"]
        for p in zip(*imm.atlas.random(np.random.default_rng(2), 5)):
            rel = residual(FORMS["simons_identity_rel"], *check_simons_identity(simons_terms(heavy(imm, *p))))
            assert rel[0] < 1e-13


def inequality(fb):
    """The margin of the Simons inequality and the spectral cross-check
    residual at the one point of `fb`."""
    sides = check_simons_inequality(fb, simons_terms(fb))
    return {
        "margin": float(balance(sides["simons_inequality_margin"])[0]),
        "spectral_consistency": float(reduced(sides)["spectral_consistency"][0]),
    }


class TestSimonsInequality:
    def test_whitney_margin_zero(self):
        imm, p = BODIES["whitney"]
        fb = heavy(imm, *p)
        res = inequality(fb)
        assert abs(res["margin"]) < 1e-9

    def test_torus_margin(self):
        imm = make_product_torus([1.0, 1.0])
        fb = heavy(imm, 0, [0.2, 0.8])
        res = inequality(fb)
        # closed form: the identity right side vanishes, so the margin is
        # (n+3)/2 |hhat|^4 - n^2/(n+2) |hhat|^2 |H|^2 = 5/8 - 1/4 = 3/8
        assert res["margin"] == pytest.approx(0.375, abs=1e-8)
        assert res["margin"] >= -1e-9

    def test_perturbed_margin_nonnegative(self):
        imm, p = BODIES["perturbed"]
        fb = heavy(imm, *p)
        res = inequality(fb)
        assert res["margin"] >= -1e-9
        assert res["spectral_consistency"] < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_algebraic_bound_random(self, n):
        rng = np.random.default_rng(50 + n)
        for _ in range(100):
            hh = random_tracefree(rng, n)
            H = rng.normal(size=n)
            res = algebraic_simons_bound(hh, H)
            assert res["margin"] >= -1e-10
            assert res["spectral_consistency"] < 1e-10


def partly_lagrangian_plane():
    """u -> (u_1, 0, u_2, u_1 u_2) in C^2: omega(d_1 phi, d_2 phi) = -u_2, so
    Lagrangian on the line u_2 = 0 only."""

    def jet_fn(charts, u):
        return stack([u[0], u[0].scaled(0.0), u[1], u[0] * u[1]])

    return Immersion("partly_lagrangian", AMBIENT_CN, {}, PlaneAtlas(2), jet_fn)


def cusped_plane():
    """u -> (u_1^3, 0, u_2, 0): Lagrangian, metric degenerate on u_1 = 0."""

    def jet_fn(charts, u):
        zero = u[0].scaled(0.0)
        return stack([u[0] * u[0] * u[0], zero, u[1], zero])

    return Immersion("cusped_plane", AMBIENT_CN, {}, PlaneAtlas(2), jet_fn)


def twisted_rpn(turn_first):
    """RP^2 with a point-dependent phase on one homogeneous coordinate; it
    and its derivatives up to order 5 vanish on u_2 = 0, so the body is
    Lagrangian there only."""
    base = make_rpn(2)

    def twisted(charts, u):
        phi = base.jet_fn(charts, u)
        u2_cubed = u[1] * u[1] * u[1]
        return turn_first(phi, u[0] * u2_cubed * u2_cubed)

    return Immersion("twisted_rpn", AMBIENT_SPHERE, {}, base.atlas, twisted)


class TestFailingPointIsNamed:
    COORDS = np.array([[0.1, 0.0], [0.3, 0.0], [-0.2, 0.5], [0.4, 0.0]])

    def test_non_lagrangian_sample(self):
        with pytest.raises(NonLagrangianError, match=r"sample 2: chart 0, coords \[-0.2, 0.5\]") as err:
            run_identity_suite(partly_lagrangian_plane(), np.zeros(4, dtype=int), self.COORDS)
        assert err.value.index == 2
        assert "Lagrangian condition violated" in str(err.value)

    def test_degenerate_metric_sample(self):
        coords = np.array([[0.5, 0.1], [0.7, -0.3], [0.0, 0.3]])
        with pytest.raises(DegenerateMetricError, match=r"sample 2: chart 0, coords \[0.0, 0.3\]"):
            run_identity_suite(cusped_plane(), np.zeros(3, dtype=int), coords)

    def test_out_of_domain_sample(self):
        """A sample outside its chart is named like a sample the geometry
        fails at: by index, chart and coordinates as given."""
        with pytest.raises(OutOfDomainError, match=r"^sample 1: chart 1, coords \[0.1, 0.2\]: outside") as err:
            run_identity_suite(make_lagrangian_plane(2), np.array([0, 1]), np.array([[0.1, 0.2], [0.1, 0.2]]))
        assert err.value.index == 1
        charts, coords = np.array([0, 0, 2]), np.array([[0.1, 0.2], [3.0, 0.0], [0.5, 0.5]])
        with pytest.raises(OutOfDomainError, match=r"^sample 2: chart 2, coords \[0.5, 0.5\]: outside"):
            run_identity_suite(make_whitney_cn(1.0, None, 2), charts, coords)

    @pytest.mark.parametrize(
        "charts,coords",
        [
            (np.zeros(2, dtype=int), np.zeros((2, 3))),
            (np.zeros(2, dtype=int), np.zeros(2)),
            (np.zeros(3, dtype=int), np.zeros((2, 2))),
            (0, np.zeros((2, 2))),
        ],
    )
    def test_wrong_shaped_batch_is_refused(self, charts, coords):
        with pytest.raises(ValueError, match=r"not a batch \(N,\) and \(N, 2\) of points of lagrangian_plane"):
            run_identity_suite(make_lagrangian_plane(2), charts, coords)

    def test_horizontality_sample(self, turn_first):
        coords = np.array([[0.3, 0.0], [0.6, 0.4], [-0.5, 0.0]])
        with pytest.raises(HorizontalityError, match=r"sample 1: chart 0, coords \[0.6, 0.4\]"):
            run_identity_suite(twisted_rpn(turn_first), np.zeros(3, dtype=int), coords)

    def test_mixed_chart_sample_is_named_by_its_own_chart(self, turn_first):
        bad = twisted_rpn(turn_first)
        charts, coords = np.array([0, 1, 0]), np.array([[0.3, 0.0], [0.6, 0.4], [-0.5, 0.0]])
        with pytest.raises(HorizontalityError, match=r"sample 1: chart 1, coords \[0.6, 0.4\]") as err:
            run_identity_suite(bad, charts, coords)
        assert err.value.index == 1
        with pytest.raises(HorizontalityError, match=r"^chart 1, coords \[0.6, 0.4\]: horizontality"):
            geometry.bundle_at(bad, charts, coords, 4)


class TestCurvatureContractionClosedForms:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("c_amb", [0.0, 1.0])
    def test_random_data(self, n, c_amb):
        rng = np.random.default_rng(200 + n)
        worst = 0.0
        for _ in range(25):
            hhat = random_tracefree(rng, n)
            H = rng.normal(size=n)
            res = curvature_contraction_closed_forms(hhat, H, c_amb)
            worst = max(worst, max(res.values()))
        assert worst < 1e-10


def every_term(fb):
    """Every Simons term and every term of every side of every check of an
    order-4 bundle, keyed by the term's name or by (check, side, index)."""
    terms = {(name, side, k): term for name, sides in identities._sides(fb)
             for side, terms in enumerate(sides) for k, term in enumerate(terms)}
    return simons_terms(fb) | terms


class TestSuiteReports:
    def test_whitney_suite_passes(self):
        imm = make_whitney_cn(1.0, None, 2)
        pts = imm.atlas.random(np.random.default_rng(3), 6)
        rep = run_identity_suite(imm, *pts, seed=3)
        assert rep["all_pass"]
        names = {c["name"] for c in rep["checks"]}
        assert "tri_symmetry" in names and "simons_identity_rel" in names

    def test_cpn_suite_passes_with_heavy_checks(self):
        # exercises the order-4 horizontal lift and the heavy checks in CP^n
        imm = make_whitney_cpn(0.8, 2)
        pts = imm.atlas.random(np.random.default_rng(4), 4)
        rep = run_identity_suite(imm, *pts, seed=4, heavy=True)
        assert rep["all_pass"]

    def test_one_bundle_per_op(self, monkeypatch):
        builds, terms_calls = [], []
        init = geometry.FrameBundle.__init__
        terms = identities.simons_terms

        def counting_init(fb, *args, **kwargs):
            builds.append(1)
            init(fb, *args, **kwargs)

        def counting_terms(fb):
            terms_calls.append(fb.batch)
            return terms(fb)

        monkeypatch.setattr(geometry.FrameBundle, "__init__", counting_init)
        monkeypatch.setattr(identities, "simons_terms", counting_terms)
        imm = make_whitney_cn(1.0, None, 2)
        pts = imm.atlas.random(np.random.default_rng(8), 9)
        assert set(imm.atlas.normalize(*pts)[0].tolist()) == {0, 1}
        assert run_identity_suite(imm, *pts, seed=8)["all_pass"]
        assert len(builds) == 1
        assert terms_calls == [len(pts[1])]

    def test_curvature_terms_are_computed_once_per_heavy_suite(self, monkeypatch):
        """The Simons identity and inequality read one set of curvature terms:
        the inequality's spectral cross-check recomputes none of them."""
        calls = []
        terms = identities._curvature_terms

        def counting_terms(hh, Hv):
            calls.append(hh.shape[-1])
            return terms(hh, Hv)

        monkeypatch.setattr(identities, "_curvature_terms", counting_terms)
        imm = make_perturbed_whitney(1.0, 0.05, 1, 3)
        pts = imm.atlas.random(np.random.default_rng(6), 7)
        assert run_identity_suite(imm, *pts, seed=6, heavy=True)["all_pass"]
        assert calls == [len(pts[1])]
        run_identity_suite(imm, *pts, seed=6, heavy=False)
        assert calls == [len(pts[1])]

    def test_simons_coefficient_mutation_is_flagged(self, monkeypatch):
        # a relative change of 1e-4 in the n^2/(n+2) coefficient of the
        # quadratic term moves the residual by about 1e-5: far above the jet
        # rung, far below the 1e-3 bound of a finite-difference Laplacian
        imm, _ = BODIES["torus"]
        pts = imm.atlas.random(np.random.default_rng(9), 3)

        def simons_check(report):
            return next(c for c in report["checks"] if c["name"] == "simons_identity_rel")

        assert simons_check(run_identity_suite(imm, *pts, seed=9))["pass"]
        terms = identities.simons_terms

        def mutated(*args):
            t = terms(*args)
            t["quad_term"] *= 1.0 + 1e-4
            return t

        monkeypatch.setattr(identities, "simons_terms", mutated)
        flagged = simons_check(run_identity_suite(imm, *pts, seed=9))
        assert not flagged["pass"]
        assert flagged["max_residual"] < 1e-3

    def test_simons_mutation_past_the_third_sample_is_flagged(self, monkeypatch):
        # every sample point gets the heavy checks, not just the first few
        imm, _ = BODIES["torus"]
        pts = imm.atlas.random(np.random.default_rng(9), 6)
        spike_simons_lhs(monkeypatch, imm, pts[0][3:], pts[1][3:], 1e-6)
        checks = run_identity_suite(imm, *pts, seed=9)["checks"]
        check = next(c for c in checks if c["name"] == "simons_identity_rel")
        assert not check["pass"]
        assert check["argmax"] >= 3

    @pytest.mark.parametrize("k", [2, 6])
    def test_worst_sample_is_reported(self, monkeypatch, k):
        imm = make_whitney_cn(1.0, None, 2)
        pts = imm.atlas.random(np.random.default_rng(8), 9)
        assert set(imm.atlas.normalize(*pts)[0].tolist()) == {0, 1}
        spike_simons_lhs(monkeypatch, imm, pts[0][k : k + 1], pts[1][k : k + 1], 1e-6)
        rep = run_identity_suite(imm, *pts, seed=8)
        check = next(c for c in rep["checks"] if c["name"] == "simons_identity_rel")
        assert check["argmax"] == k
        assert check["headroom"] == pytest.approx(check["max_residual"] / check["tolerance"])
        assert check["headroom"] > 1.0 and not check["pass"]
        for c in rep["checks"]:
            if c["name"] != "simons_identity_rel":
                assert c["pass"] and c["headroom"] <= 1.0

    def test_suite_matches_pointwise_evaluation(self):
        # one batched bundle per chart gives the residuals of one-point
        # bundles: the max over points, and every term at every point
        for imm in ORACLE_BODIES:
            charts, coords = imm.atlas.random(np.random.default_rng(10), 7)
            rep = run_identity_suite(imm, charts, coords, seed=10)
            assert rep["all_pass"]
            worst = {}
            for chart, u in zip(charts, coords):
                res = identities._residuals(geometry_state(imm, chart, u, 4))
                for name, value in res.items():
                    worst[name] = max(worst.get(name, 0.0), float(value[0]))
            assert {c["name"] for c in rep["checks"]} == set(worst)
            for c in rep["checks"]:
                name = c["name"]
                assert abs(c["max_residual"] - worst[name]) <= 1e-12 * max(worst[name], 1.0), name
            moved_charts, moved = imm.atlas.normalize(charts, coords)
            for chart in np.unique(moved_charts):
                idx = np.flatnonzero(moved_charts == chart)
                batched = every_term(geometry.bundle_at(imm, int(chart), moved[idx], 4))
                for b, k in enumerate(idx):
                    for key, value in every_term(geometry_state(imm, charts[k], coords[k], 4)).items():
                        want = value[..., 0]
                        scale = max(float(np.max(np.abs(want))), 1.0)
                        assert np.max(np.abs(batched[key][..., b] - want)) <= 1e-12 * scale, key

    def test_peak_memory_of_a_wide_heavy_suite(self):
        imm = make_whitney_cn(1.0, None, 3)
        pts = imm.atlas.random(np.random.default_rng(7), 20)
        run_identity_suite(imm, *pts, seed=7)  # warm the jet tables
        tracemalloc.start()
        try:
            assert run_identity_suite(imm, *pts, seed=7)["all_pass"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_empty_sample_list_is_refused(self):
        with pytest.raises(ValueError, match="at least one sample point"):
            run_identity_suite(make_whitney_cn(1.0, None, 2), np.zeros(0, dtype=int), np.zeros((0, 2)))

    def test_tolerance_scaling_can_fail(self):
        imm, _ = BODIES["perturbed"]
        pts = imm.atlas.random(np.random.default_rng(5), 3)
        rep = run_identity_suite(imm, *pts, tol_scale=1e-12, seed=5, heavy=False)
        assert not rep["all_pass"]

    def test_report_serialization(self):
        imm, _ = BODIES["torus"]
        pts = imm.atlas.random(np.random.default_rng(6), 2)
        doc = run_identity_suite(imm, *pts, seed=6, heavy=False)
        assert doc["schema"] == 1
        assert doc["kind"] == "identities"
        assert doc["all_pass"] is True
        assert json.loads(json.dumps(doc)) == doc

    def test_residuals_frame_gauge_invariant(self):
        imm, p = BODIES["perturbed"]
        rng = np.random.default_rng(7)
        Q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        r0 = structural(imm, *p)
        r1 = structural(imm, *p, frame_gauge=Q)
        for k in r0:
            assert abs(r0[k] - r1[k]) < 1e-9

    def test_residuals_chart_invariant(self):
        imm, _ = BODIES["perturbed"]
        u = np.array([0.9, 0.6])
        r0 = gauss_ricci(imm, 0, u)
        r1 = gauss_ricci(imm, 1, u / np.dot(u, u))
        for k in r0:
            assert abs(r0[k] - r1[k]) < 1e-9


CHUNK_BODIES = {
    "whitney_cn": lambda: make_whitney_cn(1.0, np.array([0.3 + 0.2j, -0.4j, 0.1]), 3),
    "perturbed_whitney": lambda: make_perturbed_whitney(1.0, 0.05, 1, 3),
    "whitney_cpn": lambda: make_whitney_cpn(0.7, 3),
    "product_torus": lambda: make_product_torus([1.0, 1.5, 2.0]),
    "cpn_torus": lambda: make_cpn_torus([1.0, 0.7, 1.2, 0.9]),
}


class TestChunkedSuite:
    """The suite streams its samples through `geometry.scalar_samples` in
    chunks of `SAMPLE_CHUNK[order]`."""

    @pytest.mark.parametrize("heavy", [True, False])
    @pytest.mark.parametrize("body", sorted(CHUNK_BODIES))
    def test_reports_match_one_batch(self, monkeypatch, body, heavy):
        """Chunked reports are byte-identical to those of one bundle over
        every sample; a one-point tail joins the chunk before it."""
        imm, order = CHUNK_BODIES[body](), 4 if heavy else 3
        C = geometry.SAMPLE_CHUNK[order]
        sizes, inner = [], geometry.bundle_at

        def bundle_at(imm, charts, coords, order):
            sizes.append(len(coords))
            return inner(imm, charts, coords, order)

        monkeypatch.setattr(geometry, "bundle_at", bundle_at)
        for N in (1, 20, C, C + 1, 2 * C + 1, 1024):
            pts = imm.atlas.random(np.random.default_rng(N), N)
            sizes.clear()
            chunked = json.dumps(run_identity_suite(imm, *pts, seed=N, heavy=heavy), sort_keys=True)
            want = [C] * (N // C) + [N % C] * (N % C > 0)
            if len(want) > 1 and want[-1] == 1:
                want[-2:] = [C + 1]
            assert sizes == want, (N, sizes)
            with monkeypatch.context() as m:
                m.setitem(geometry.SAMPLE_CHUNK, order, N)
                assert json.dumps(run_identity_suite(imm, *pts, seed=N, heavy=heavy), sort_keys=True) == chunked, N

    def test_faults_in_a_later_chunk_are_named_by_sample(self, monkeypatch):
        """A geometry failure and a residual overflow past the first chunk
        name the sample by its place among all samples."""
        monkeypatch.setitem(geometry.SAMPLE_CHUNK, 4, 8)
        coords = np.column_stack([np.arange(20) / 10, np.zeros(20)])
        coords[13, 1] = 0.5
        with pytest.raises(NonLagrangianError, match=r"^sample 13: chart 0, coords \[1.3, 0.5\]") as err:
            run_identity_suite(partly_lagrangian_plane(), np.zeros(20, dtype=int), coords)
        assert err.value.index == 13

        imm = make_perturbed_whitney(1.0, 0.05, 1, 2)
        charts, coords = imm.atlas.random(np.random.default_rng(3), 20)
        spike_simons_lhs(monkeypatch, imm, charts[17:18], coords[17:18], np.inf)  # in the third chunk
        with pytest.raises(OverflowError, match="^sample 17: simons_identity_rel residual is not finite$"):
            run_identity_suite(imm, charts, coords)

    def test_peak_memory_does_not_grow_with_samples(self):
        """The traced peak of a 1024-sample heavy suite at n = 3 stays within
        1.5 times that of a one-chunk suite, and under 40% of the 32.4 MB
        that one bundle over all 1024 samples peaks at."""
        imm = make_whitney_cn(1.0, None, 3)
        C = geometry.SAMPLE_CHUNK[4]

        def peak(N):
            pts = imm.atlas.random(np.random.default_rng(7), N)
            run_identity_suite(imm, *pts, seed=7)  # warm the jet tables
            tracemalloc.start()
            try:
                assert run_identity_suite(imm, *pts, seed=7)["all_pass"]
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        wide = peak(1024)
        assert wide <= 1.5 * peak(C)
        assert wide <= 0.4 * 32.4e6


LINEAR_MAP_MUTANTS = {
    # (n + 2) of T = (n X - d tr X) / (n + 2), times 1.01
    "maslov_defect": ("_maslov_defect", lambda orig: lambda x: orig(x) / 1.01),
    "trace": ("_trace", lambda orig: lambda x: 1.01 * orig(x)),
    # the c(H) part of hhat = h - c(H), times 1.01
    "tracefree_c": (
        "_tracefree",
        lambda orig: lambda x, trace=None: x - 1.01 * c_tensor_array(geometry._trace(x) if trace is None else trace),
    ),
}
MUTATION_BODIES = {
    "perturbed_whitney": lambda: make_perturbed_whitney(1.0, 0.05, 1, 3),
    "product_torus": lambda: make_product_torus([1.0, 1.5, 2.0]),
}


@pytest.mark.parametrize(
    "body, mutant, failing",
    [
        ("perturbed_whitney", "maslov_defect", {"T_consistency"}),
        ("perturbed_whitney", "trace", {"h_trace_consistency", "norm_identity"}),
        ("perturbed_whitney", "tracefree_c", {"norm_identity", "T_consistency"}),
        ("product_torus", "trace", {"norm_identity"}),
        ("product_torus", "tracefree_c", {"norm_identity"}),
    ],
)
def test_linear_map_mutation_is_flagged(monkeypatch, body, mutant, failing):
    """A wrong coefficient in one of the three linear maps of h that give H,
    hhat and T fails the structure checks that read it."""
    imm = MUTATION_BODIES[body]()
    pts = imm.atlas.random(np.random.default_rng(7), 20)
    assert run_identity_suite(imm, *pts, seed=7)["all_pass"]
    name, mutate = LINEAR_MAP_MUTANTS[mutant]
    monkeypatch.setattr(geometry, name, mutate(getattr(geometry, name)))
    checks = {c["name"]: c for c in run_identity_suite(imm, *pts, seed=7)["checks"]}
    for check in failing:
        assert not checks[check]["pass"], check


# The corpus of the term-coverage matrix, by ambient: n = 3, 20 samples, seed 7.
COVERAGE_CORPUS = {
    "C^n": (CHUNK_BODIES["whitney_cn"], CHUNK_BODIES["perturbed_whitney"], CHUNK_BODIES["product_torus"]),
    "CP^n": (CHUNK_BODIES["whitney_cpn"], CHUNK_BODIES["cpn_torus"], lambda: make_rpn(3)),
}


@functools.lru_cache(maxsize=None)
def corpus_bundles(ambient: str) -> tuple:
    """One order-4 bundle per body of the ambient's corpus, over its 20
    sample points of seed 7."""
    bundles = []
    for make in COVERAGE_CORPUS[ambient]:
        imm = make()
        points = geometry.chart_batch(imm, *imm.atlas.random(np.random.default_rng(7), 20))
        bundles.append(geometry.bundle_at(imm, *points, 4))
    return tuple(bundles)


# Terms that no body of either ambient sees.
BLIND_EVERYWHERE = {
    ("tri_symmetry", "lhs", 0),  # h: a multiple of a symmetric tensor is symmetric
    ("codazzi_full_symmetry", "lhs", 0),  # grad h: likewise
    ("lagrangian_condition", "lhs", 0),  # max |<e_i, J e_j>|: zero on a Lagrangian body, times 1.01
    # The Simons inequality: its margin exceeds 1% of each of these terms on
    # every body, or the term is zero.
    ("simons_inequality_margin", "lhs", 0),  # (1/2) Lap |hhat|^2
    ("simons_inequality_margin", "rhs", 0),  # (n + 2) <hhat, grad T>
    ("simons_inequality_margin", "rhs", 2),  # c_term
    ("simons_inequality_margin", "rhs", 3),  # HH_term
    ("simons_inequality_margin", "rhs", 4),  # -(n + 3)/2 |hhat|^4
}
BLIND = {
    "C^n": BLIND_EVERYWHERE | {
        ("simons_identity_rel", "rhs", 2),  # c_term: the ambient constant c is 0
    },
    # No CP^n body of the corpus has T != 0 or a non-parallel hhat.
    "CP^n": BLIND_EVERYWHERE | {
        ("T_consistency", "lhs", 0),  # T, zero on every body
        ("T_consistency", "rhs", 0),  # (1/n) sum_m hhat_{mij,m}, likewise
        ("laplace_contraction", "lhs", 0),  # <hhat, hhat_{,kk}>: hhat is parallel or zero
        ("laplace_contraction", "rhs", 0),  # (n + 2) <hhat, grad T>: T = 0
        ("laplace_contraction", "rhs", 1),  # the two contractions of hhat . hhat with the
        ("laplace_contraction", "rhs", 2),  # curvature: zero, as hhat is zero or the body, a torus orbit, is flat
        ("simons_identity_rel", "lhs", 0),  # (1/2) Lap |hhat|^2: |hhat| is constant
        ("simons_identity_rel", "rhs", 0),  # (n + 2) <hhat, grad T>: T = 0
        ("simons_identity_rel", "rhs", 1),  # |grad hhat|^2: hhat is parallel or zero
        ("simons_inequality_margin", "rhs", 1),  # |grad hhat|^2, likewise
    },
}


@pytest.mark.parametrize("ambient", sorted(COVERAGE_CORPUS))
def test_term_coverage_matrix(ambient):
    """Each term of each side of each check, scaled by 1.01 in the stored
    sides, fails its check by a factor of at least 100 on some body of the
    ambient's corpus, except the terms named in BLIND: those are zero on
    every body, or too small against the rest of their check."""
    tol = {c.name: c.tol for c in CHECKS}
    best = {}
    for fb in corpus_bundles(ambient):
        for name, sides in identities._sides(fb):
            sides = tuple(map(tuple, sides))
            for side, terms in enumerate(sides):
                for k, term in enumerate(terms):
                    wrong = [list(s) for s in sides]
                    wrong[side][k] = 1.01 * term
                    headroom = np.max(residual(FORMS[name], *map(tuple, wrong))) / tol[name]
                    key = (name, ("lhs", "rhs")[side], k)
                    best[key] = max(best.get(key, 0.0), headroom)
    assert {name for name, _, _ in best} == set(tol)
    assert len(best) == 45
    assert {key for key, headroom in best.items() if not headroom >= 100} == BLIND[ambient]


# Checks whose declared weights the corpus of the ambient does not pin down.
UNIDENTIFIED = {
    # c_term is 0, as c is; the commutator and trace_sq terms, quartic in
    # hhat, fall under the floor on perturbed_whitney and are constant on the
    # homogeneous torus, so a mix of the two balances too.
    "C^n": {"simons_identity_rel"},
    # No CP^n body has T != 0 or a non-parallel hhat (see BLIND), and
    # cpn_torus, the one body whose Simons and spectral terms are not zero,
    # gives the same values at every point.
    "CP^n": {"T_consistency", "laplace_contraction", "simons_identity_rel", "spectral_consistency"},
}


def weight_fit(blocks: list) -> tuple[float, float]:
    """How well the stacked term matrix of one check pins its weights: the
    largest distance from 1 of the last right singular vector, scaled so that
    its first entry is 1, and the gap s[-2] / s[0] of the singular values.
    Each block is one body's signed terms as columns, one row per tensor
    entry and point; the columns that are zero on every body are dropped."""
    a = np.concatenate(blocks)
    a = a[:, np.any(a != 0.0, axis=0)]
    if a.shape[1] < 2:
        return np.inf, 0.0
    s, vt = np.linalg.svd(a, full_matrices=False)[1:]
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero first entry matches nothing
        return float(np.max(np.abs(vt[-1] / vt[-1, 0] - 1.0))), float(s[-2] / s[0])


@pytest.mark.parametrize("ambient", sorted(COVERAGE_CORPUS))
def test_declared_weights_are_identified(ambient):
    """The only weights of its terms that balance a difference or relative
    check on the ambient's corpus are the declared ones, except for the
    checks named in UNIDENTIFIED: the signed terms, as columns, have a null
    space of one dimension, spanned by (1, ..., 1) to 1e-10, and a gap of at
    least 1e-3 to the next singular value.  Each point is scaled by its
    largest term, floored at 1e-6, so that no body or point outweighs the
    rest.  After the merge of the Laplace check's duplicate term the worst
    match is 5.2e-13 and the least gap 6.8e-3, both on that check in C^n."""
    blocks = {}
    for fb in corpus_bundles(ambient):
        for name, sides in identities._sides(fb):
            lhs, rhs = map(tuple, sides)
            if FORMS[name] in ("difference", "relative") and len(lhs) + len(rhs) >= 2:
                terms = np.stack(np.broadcast_arrays(*lhs, *(-x for x in rhs)))
                terms = terms.reshape(len(terms), -1, terms.shape[-1])  # (term, entry, point)
                terms /= np.maximum(np.max(np.abs(terms), axis=(0, 1)), 1e-6)
                blocks.setdefault(name, []).append(terms.reshape(len(terms), -1).T)
    fits = {name: weight_fit(b) for name, b in blocks.items()}
    assert len(fits) == 11
    identified = {name for name, (match, gap) in fits.items() if match <= 1e-10 and gap >= 1e-3}
    assert set(fits) - identified == UNIDENTIFIED[ambient]


def test_readme_check_table_is_checks():
    """The README's table of checks gives each row of CHECKS, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| (\d+) \| ([0-9.e+-]+) \| (\w+) \|$", readme, flags=re.M)
    assert [(name, int(order), float(tol), form) for name, order, tol, form in rows] == [tuple(c) for c in CHECKS]


def test_each_bundle_quantity_is_built_once(monkeypatch):
    """On one heavy chunk every quantity the checks read goes through the
    bundle's one cache, `_get`, is built there once, and is kept under the
    name of the property that reads it.  The energy scalars are among them,
    so `norm_identity` and `simons_terms` share |hhat|^2 and |H|^2."""
    imm = make_perturbed_whitney(1.0, 0.05, 1, 3)
    fb = geometry.bundle_at(imm, *geometry.chart_batch(imm, *imm.atlas.random(np.random.default_rng(7), 8)), 4)
    built, get = Counter(), geometry.FrameBundle._get

    def counting_get(bundle, key, fn):
        built[key] += key not in bundle._cache
        return get(bundle, key, fn)

    monkeypatch.setattr(geometry.FrameBundle, "_get", counting_get)
    identities._residuals(fb)
    properties = {name for name, v in vars(geometry.FrameBundle).items() if isinstance(v, property)}
    assert set(built.values()) == {1}
    assert sorted(set(built) - properties) == []
    assert {"h_sq", "hhat_sq", "H_sq", "grad_hhat_sq"} <= set(built)
