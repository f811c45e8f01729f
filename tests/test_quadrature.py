import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from lagcheck.cpn import make_cpn_torus, make_rpn, make_whitney_cpn
from lagcheck.immersions import (
    complex_to_real_matrix,
    linear_image,
    make_lagrangian_plane,
    make_perturbed_whitney,
    make_product_torus,
    make_whitney_cn,
)
from lagcheck import geometry, quadrature
from lagcheck.jets import Jet, jet_space
from lagcheck.quadrature import (
    energy_report,
    integrals,
    rule_for,
    sphere_rule,
    torus_rule,
)
from reference import random_unitary, sphere_volume, stack


def sphere_angles(n: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The hyperspherical angle grid of `sphere_rule(n, degree)` and its
    weights, rebuilt from the same 1-D Gauss-Legendre rules."""
    return quadrature._product_grid(
        [quadrature._gl_nodes(0.0, math.pi, degree)] * (n - 1) + [quadrature._gl_nodes(0.0, 2.0 * math.pi, degree)]
    )


class TestRules:
    def test_weights_positive_and_sum_to_parameter_volume(self):
        r = torus_rule(2, 12)
        assert np.all(r.weights > 0)
        assert np.sum(r.weights) == pytest.approx((2 * math.pi) ** 2, rel=1e-13)
        s = sphere_rule(3, 10)
        assert np.all(s.weights > 0)
        assert np.sum(s.weights) == pytest.approx(2 * math.pi * math.pi**2, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_round_sphere_volume(self, n):
        r = sphere_rule(n, 30 if n < 4 else 14)
        angles, weights = sphere_angles(n, r.degree)
        assert np.array_equal(weights, r.weights)
        round_density = np.prod([np.sin(angles[:, i]) ** (n - 1 - i) for i in range(n - 1)], axis=0)
        assert abs(float(np.sum(r.weights * round_density)) - sphere_volume(n)) < 1e-8

    @pytest.mark.parametrize("degree", range(1, 41))
    def test_gauss_legendre_nodes(self, degree):
        """Newton steps on the Legendre recurrence give leggauss's nodes and
        weights to 1e-13 and integrate x^k exactly for k < 2 * degree."""
        x, w = quadrature._gl_nodes(-1.0, 1.0, degree)
        x_ref, w_ref = np.polynomial.legendre.leggauss(degree)
        assert np.max(np.abs(x - x_ref)) <= 1e-13
        assert np.max(np.abs(w - w_ref)) <= 1e-13
        for k in range(2 * degree):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert np.sum(w * x**k) == pytest.approx(exact, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_chart_jacobian_matches_jet_determinant(self, n):
        """The conformal-factor Jacobian against |det du/d(angles)| read off
        order-1 jets of the angle-to-chart map, on nodes of both charts."""
        r = sphere_rule(n, 8)
        assert set(r.charts) == {0, 1}
        th = Jet.variables(jet_space(n, 1), sphere_angles(n, 8)[0].T)
        cos, sin = th.cos(), th.sin()
        # x_i = cos_i prod_{k<i} sin_k for i < n, and x_n = prod_{k<n} sin_k
        x, sin_prod = [cos[0]], sin[0]
        for i in range(1, n):
            x.append(sin_prod * cos[i])
            sin_prod = sin_prod * sin[i]
        x = stack([*x, sin_prod])
        # chart 0 projects from x_{n+1} = 1, chart 1 from x_{n+1} = -1
        u = x[:n] / (1.0 - x[n].scaled(1.0 - 2.0 * r.charts))
        want = np.abs(np.linalg.det(np.moveaxis(u.grad().value, -1, 0)))
        np.testing.assert_allclose(r.chart_jacobians, want, rtol=1e-13, atol=0)

    def test_rule_immersion_mismatch(self):
        """A rule integrates only bodies of its dimension whose atlas names
        its domain."""
        torus = make_product_torus([1.0, 1.0])
        sphere = make_whitney_cn(1.0, None, 2)
        with pytest.raises(ValueError, match="sphere rule applied to product_torus, whose domain is torus"):
            integrals(torus, sphere_rule(2, 6), area)
        with pytest.raises(ValueError, match="dimension"):
            integrals(torus, torus_rule(3, 6), area)
        with pytest.raises(ValueError, match="torus rule applied to whitney_cn, whose domain is sphere"):
            integrals(sphere, torus_rule(2, 6), area)
        with pytest.raises(ValueError, match="dimension"):
            integrals(sphere, sphere_rule(3, 6), area)
        with pytest.raises(ValueError, match="whose domain is None"):
            integrals(make_lagrangian_plane(2), torus_rule(2, 6), area)

    # sha256 of each array of the rule built with its own stereographic
    # projection, before the rule called `SphereAtlas.from_embedded`
    PINNED = {
        (2, 8): {
            "charts": "293024becfdb4f5ca10d7272b1705c66ef749e78af4fa72cd61e27a16b3484a9",
            "coords": "fbec7747313f03ea08f6da622a6e87989d3165f20c1d6840b304d687959fdf06",
            "weights": "44ef58ba0da4bba3517c953cebac877b03c2f76e8b876fbca25679097f521c84",
            "chart_jacobians": "5ecc1260507060283a43c9472410038db98f679bdf68379ed6ef31434a05d4d0",
        },
        (3, 20): {
            "charts": "c2e7896d441aade468ae12f6f8ef1d7d0750c53dd66b3e33c6e3cc6d8c5c0111",
            "coords": "7cef54cc939a94015a0f9382c311acfbd15527ebc1a8beaf7d9e76ea26f72a5d",
            "weights": "f7216f1e6838fe3d5c6222fb15178666b28a263bc5db11fb815baaa3a8928073",
            "chart_jacobians": "e455c6d5544117435d9e454926e33cc51b51e7c621ba4f39c287a80dad01a255",
        },
    }

    @pytest.mark.parametrize("n,degree", sorted(PINNED))
    def test_sphere_rule_arrays_are_pinned(self, n, degree):
        """Projecting the nodes through `SphereAtlas.from_embedded` keeps
        every array of the sphere rule bit for bit."""
        rule = sphere_rule(n, degree)
        got = {}
        for name in self.PINNED[n, degree]:
            value = getattr(rule, name)
            value = value.astype(np.int64) if name == "charts" else value
            got[name] = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        assert got == self.PINNED[n, degree]


class TestRuleCache:
    """`rule_for` builds one read-only rule per (domain, n, degree)."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        quadrature._shared_rule.cache_clear()
        yield
        quadrature._shared_rule.cache_clear()

    def test_equal_keys_give_the_same_rule(self):
        cn = make_whitney_cn(1.0, None, 3)
        rule = rule_for(cn, 6)
        assert rule_for(make_whitney_cn(2.0, np.array([0.3, 0.1j, -0.2]), 3), 6) is rule
        assert rule_for(make_whitney_cpn(0.7, 3), 6) is rule
        assert rule_for(cn, 7) is not rule and rule_for(cn, 7).degree == 7
        torus = rule_for(make_product_torus([1.0, 1.5, 2.0]), 6)
        assert torus is not rule and torus.domain == "torus"
        assert rule_for(make_product_torus([0.5, 0.5, 0.5]), 6) is torus

    @pytest.mark.parametrize("fresh", [False, True])
    def test_rules_are_read_only(self, fresh):
        rule = sphere_rule(3, 6) if fresh else rule_for(make_whitney_cn(1.0, None, 3), 6)
        for field in ("charts", "coords", "weights", "chart_jacobians"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(rule, field)[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            rule.weights = np.ones(rule.node_count)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rule.degree = 7

    @pytest.mark.parametrize(
        "imm, fresh",
        [
            (make_whitney_cn(1.0, np.array([0.3 + 0.4j, -0.2, 0.1j]), 3), sphere_rule),
            (make_whitney_cpn(0.7, 3), sphere_rule),
            (make_product_torus([1.0, 1.5, 2.0]), torus_rule),
        ],
    )
    def test_shared_rule_reports_equal_fresh_rule_reports(self, imm, fresh):
        shared = rule_for(imm, 8)
        assert rule_for(imm, 8) is shared
        assert energy_report(imm, shared) == energy_report(imm, fresh(3, 8))

    def test_errors_are_not_cached(self, monkeypatch):
        built, inner = [], quadrature.sphere_rule

        def sphere_rule_once_out_of_memory(n, degree):
            built.append((n, degree))
            if len(built) == 1:
                raise MemoryError("cannot allocate the rule")
            return inner(n, degree)

        monkeypatch.setattr(quadrature, "sphere_rule", sphere_rule_once_out_of_memory)
        imm = make_whitney_cn(1.0, None, 3)
        with pytest.raises(MemoryError):
            rule_for(imm, 5)
        rule = rule_for(imm, 5)
        assert rule_for(imm, 5) is rule and rule.node_count == 125
        assert built == [(3, 5), (3, 5)]


def traced_peak(run) -> int:
    """Traced peak of `run()` above the memory held before it, after a warm-up
    run has built the jet tables and caches."""
    run()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def area(fb, charts, coords):
    return {"area": np.ones(fb.batch)}


class TestIntegrate:
    def test_torus_area(self):
        torus = make_product_torus([1.0, 1.0])
        value = integrals(torus, torus_rule(2, 16), area)["area"]
        assert value == pytest.approx(4 * math.pi**2, abs=1e-10)

    def test_node_refinement_converges(self):
        wh = make_whitney_cn(1.0, None, 2)
        a1 = integrals(wh, sphere_rule(2, 36), area)["area"]
        a2 = integrals(wh, sphere_rule(2, 72), area)["area"]
        assert abs(a1 - a2) < 1e-8

    def test_constant_hhat_sq_on_torus(self):
        torus = make_product_torus([1.0, 1.0])
        val = integrals(torus, torus_rule(2, 12), lambda fb, charts, coords: {"f": fb.hhat_sq})
        assert val["f"] == pytest.approx(2 * math.pi**2, abs=1e-10)

    def test_callable_field(self):
        torus = make_product_torus([1.0, 1.0])
        val = integrals(torus, torus_rule(2, 16), lambda fb, charts, coords: {"f": np.sin(coords[:, 0]) ** 2})
        assert val["f"] == pytest.approx(2 * math.pi**2, abs=1e-9)

    def test_names_are_integrated_together(self):
        """One pass serves every name, each the integral it would be alone,
        after the volume, which needs no array: the sum of the weights times
        1.0 is the sum of the weights."""
        wh = make_whitney_cn(1.0, np.array([0.3, 0.1j]), 2)
        rule = sphere_rule(2, 12)

        def both(fb, charts, coords):
            return {"area": np.ones(fb.batch), "h_sq": fb.h_sq}

        val = integrals(wh, rule, both)
        assert list(val) == ["volume", "area", "h_sq"]
        assert val["area"] == integrals(wh, rule, area)["area"] == val["volume"]
        assert val["h_sq"] == energy_report(wh, rule)["entries"]["int_h_sq"]


class TestEnergyReport:
    def test_square_torus_closed_forms(self):
        rep = energy_report(make_product_torus([1.0, 1.0]), torus_rule(2, 20))
        assert rep["entries"]["int_hhat_sq"] == pytest.approx(2 * math.pi**2, abs=1e-6)
        assert rep["entries"]["int_h_sq"] == pytest.approx(8 * math.pi**2, abs=1e-6)
        assert rep["entries"]["int_H_sq"] == pytest.approx(2 * math.pi**2, abs=1e-6)
        assert rep["entries"]["volume"] == pytest.approx(4 * math.pi**2, abs=1e-6)
        assert set(rep) == {"entries", "immersion", "kind", "params", "rule", "schema"}

    def test_unequal_radii_closed_form(self):
        radii = (1.0, 2.0)
        rep = energy_report(make_product_torus(radii), torus_rule(2, 16))
        area = 4 * math.pi**2 * 2.0
        h_sq = sum(1 / r**2 for r in radii)
        H_sq = h_sq / 4
        assert rep["entries"]["int_h_sq"] == pytest.approx(area * h_sq, rel=1e-10)
        assert rep["entries"]["int_hhat_sq"] == pytest.approx(area * (h_sq - 3 * H_sq), rel=1e-10)

    @pytest.mark.parametrize("n,degree", [(2, 30), (3, 10)])
    def test_whitney_gap_energy_vanishes(self, n, degree):
        rep = energy_report(make_whitney_cn(1.0, None, n), sphere_rule(n, degree))
        assert rep["entries"]["int_hhat_n"] < 1e-7

    def test_dilation_invariance_of_gap_energy(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=2) + 1j * rng.normal(size=2)
        base = energy_report(make_whitney_cn(1.0, A, 2), sphere_rule(2, 24))
        for lam in (0.5, 2.0, 10.0):
            rep = energy_report(make_whitney_cn(lam, lam * A, 2), sphere_rule(2, 24))
            assert abs(rep["entries"]["int_hhat_n"] - base["entries"]["int_hhat_n"]) < 1e-8

    def test_norm_identity_integral_form(self):
        torus = make_product_torus([1.0, 1.5])
        rep = energy_report(torus, torus_rule(2, 14))
        n = 2
        assert rep["entries"]["int_hhat_sq"] == pytest.approx(
            rep["entries"]["int_h_sq"] - 3 * n * n / (n + 2) * rep["entries"]["int_H_sq"], abs=1e-8
        )

    def test_refinement_stability(self):
        # |h|^2 concentrates near the double point; entries are stable under
        # halving the node spacing once the axis degree reaches 40
        rep1 = energy_report(make_whitney_cn(1.0, None, 2), sphere_rule(2, 40))
        rep2 = energy_report(make_whitney_cn(1.0, None, 2), sphere_rule(2, 80))
        for k in rep1["entries"]:
            assert abs(rep1["entries"][k] - rep2["entries"][k]) < 1e-6

    def test_isometry_invariance(self):
        rng = np.random.default_rng(4)
        imm = make_whitney_cn(1.0, None, 2)
        moved = linear_image(
            imm, complex_to_real_matrix(random_unitary(2, rng)), offset=rng.normal(size=4)
        )
        rule = sphere_rule(2, 20)
        r0, r1 = energy_report(imm, rule), energy_report(moved, rule)
        for k in r0["entries"]:
            assert abs(r0["entries"][k] - r1["entries"][k]) < 1e-10

    def test_plane_rejected(self):
        plane = make_lagrangian_plane(2)
        with pytest.raises(ValueError, match="whose domain is None"):
            energy_report(plane, torus_rule(2, 6))
        with pytest.raises(ValueError, match="no compact quadrature domain for lagrangian_plane"):
            rule_for(plane, 6)

    def test_csv_output(self):
        from lagcheck.cli import render_csv

        csv = render_csv(energy_report(make_product_torus([1.0, 1.0]), torus_rule(2, 8)))
        assert csv.splitlines()[0] == "name,value,degree,node_count"
        assert any(line.startswith("int_hhat_n,") for line in csv.splitlines())

    def test_one_bundle_is_live_at_a_time(self, monkeypatch):
        """The node loop frees each chunk's bundle before it builds the next:
        the traced peak of an energy report over 7 chunks stays within 1.25
        times that of one chunk's bundle with its energy scalars."""
        monkeypatch.setitem(geometry.SAMPLE_CHUNK, 2, 256)
        imm = make_whitney_cpn(0.7, 3)
        rule = sphere_rule(3, 12)
        charts, coords = rule.charts[:256], rule.coords[:256]

        def one_chunk():
            fb = geometry.bundle_at(imm, charts, coords, 2)
            return fb.sqrt_det_g, quadrature._energy_integrand(fb, charts, coords)

        assert math.ceil(rule.node_count / geometry.SAMPLE_CHUNK[2]) == 7
        assert traced_peak(lambda: energy_report(imm, rule)) <= 1.25 * traced_peak(one_chunk)

    def test_cpn_bodies_integrate(self):
        # the source model manifold carries the pulled-back metric, so the
        # totally geodesic real form reports the round S^n volume (the 2:1
        # projective quotient is not divided out)
        from lagcheck.cpn import make_rpn

        rp = energy_report(make_rpn(2), sphere_rule(2, 16))
        assert rp["entries"]["volume"] == pytest.approx(4 * math.pi, rel=1e-9)
        assert rp["entries"]["int_h_sq"] == 0.0
        wc = energy_report(make_whitney_cpn(1.0, 2), sphere_rule(2, 12))
        assert wc["entries"]["int_hhat_n"] < 1e-7


class TestChunkSize:
    """The order-2 chunk changes neither the energies nor, at its size,
    the peak memory of a chunk."""

    BODIES = {
        "product_torus": lambda: make_product_torus([1.0, 1.5, 2.0]),
        "whitney_cn": lambda: make_whitney_cn(1.0, np.array([0.3 + 0.4j, -0.2, 0.1j]), 3),
        "perturbed_whitney": lambda: make_perturbed_whitney(1.0, 0.05, 1, 3),
        "whitney_cpn": lambda: make_whitney_cpn(0.7, 3),
        "cpn_torus": lambda: make_cpn_torus([1.0, 0.7, 1.2, 0.9]),
        "rpn": lambda: make_rpn(3),
    }

    @pytest.mark.parametrize("body", sorted(BODIES))
    def test_energy_reports_do_not_depend_on_the_chunk_size(self, monkeypatch, body):
        """The report is the same bytes with chunks of 8, 256, 768 and
        SAMPLE_CHUNK[2] nodes, and with one chunk for the whole rule, which
        spans three chunks of SAMPLE_CHUNK[2] nodes."""
        imm = self.BODIES[body]()
        rule = rule_for(imm, math.ceil((2 * geometry.SAMPLE_CHUNK[2] + 1) ** (1 / 3)))
        assert math.ceil(rule.node_count / geometry.SAMPLE_CHUNK[2]) == 3
        reports = set()
        for chunk in (8, 256, 768, geometry.SAMPLE_CHUNK[2], rule.node_count):
            monkeypatch.setitem(geometry.SAMPLE_CHUNK, 2, chunk)
            reports.add(json.dumps(energy_report(imm, rule), sort_keys=True))
        assert len(reports) == 1

    # Traced peak, in bytes, of one 768-node chunk before the order-2 working
    # set shrank (the families' jets, the CP^n lift and the bundle's point
    # values), measured as `one_chunk` measures it.
    PEAK_768 = {"product_torus": 1331440, "whitney_cn": 1784424, "whitney_cpn": 1851424}

    @pytest.mark.parametrize("body", sorted(PEAK_768))
    def test_a_chunk_peaks_no_higher_than_a_768_node_chunk_did(self, body):
        """One chunk of SAMPLE_CHUNK[2] nodes of the degree-20 rule at n = 3,
        its bundle and its energy integrand, holds no more traced memory than
        a chunk of 768 nodes did: the larger chunk is paid for by the smaller
        working set."""
        imm = {
            "product_torus": make_product_torus([0.7, 1.3, 1.9]),
            "whitney_cn": make_whitney_cn(1.2, np.array([0.3 + 0.1j, -0.2 + 0.5j, 0.4j]), 3),
            "whitney_cpn": make_whitney_cpn(0.9, 3),
        }[body]
        rule = rule_for(imm, 20)
        charts, coords = rule.charts[: geometry.SAMPLE_CHUNK[2]], rule.coords[: geometry.SAMPLE_CHUNK[2]]

        def one_chunk():
            fb = geometry.bundle_at(imm, charts, coords, 2)
            return fb.sqrt_det_g, quadrature._energy_integrand(fb, charts, coords)

        assert geometry.SAMPLE_CHUNK[2] > 768
        assert traced_peak(one_chunk) <= self.PEAK_768[body]

    def test_bundles_stay_within_sample_chunk(self, monkeypatch):
        """The nodes stream through order-2 bundles of at most SAMPLE_CHUNK[2]
        nodes in rule order, a chunk may mix charts, and chunking changes
        no entry: one bundle over every node gives the same numbers."""
        wh = make_whitney_cn(1.0, np.array([0.3 + 0.4j, -0.2, 0.1j]), 3)
        # degree^3 nodes, more than two chunks' worth, split about evenly
        # between the two charts
        rule = sphere_rule(3, math.ceil((3 * geometry.SAMPLE_CHUNK[2]) ** (1 / 3)))
        sizes, mixed, inner = [], [], geometry.bundle_at

        def bundle_at(imm, charts, coords, order):
            sizes.append(len(coords))
            mixed.append(np.unique(charts).size > 1)
            return inner(imm, charts, coords, order)

        monkeypatch.setattr(geometry, "bundle_at", bundle_at)
        chunked = energy_report(wh, rule)["entries"]
        chunks = math.ceil(rule.node_count / geometry.SAMPLE_CHUNK[2])
        assert chunks >= 3 and len(sizes) == chunks
        assert max(sizes) <= geometry.SAMPLE_CHUNK[2] and sum(sizes) == rule.node_count
        assert any(mixed)
        monkeypatch.setitem(geometry.SAMPLE_CHUNK, 2, rule.node_count)
        assert energy_report(wh, rule)["entries"] == chunked
        assert sizes[chunks:] == [rule.node_count]


class TestScaleFree:
    """A dilation by lam scales each energy by lam^(its weight); no valid body
    is rejected for its size."""

    @pytest.mark.parametrize("lam", [1e-3, 1e3])
    def test_torus_energies_follow_dilation(self, lam):
        radii = np.array([1.0, 1.5, 2.0])
        rule = torus_rule(3, 8)
        base = energy_report(make_product_torus(radii), rule)["entries"]
        scaled = energy_report(make_product_torus(lam * radii), rule)["entries"]
        weights = {"volume": 3, "int_hhat_n": 0, "int_hhat_sq": 1, "int_h_sq": 1, "int_H_sq": 1}
        for name, w in weights.items():
            assert scaled[name] == pytest.approx(lam**w * base[name], rel=1e-13)

    @pytest.mark.parametrize("r", [5e-3, 1e-5])
    def test_small_whitney_sphere_keeps_the_gap(self, r):
        rep = energy_report(make_whitney_cn(r, None, 3), sphere_rule(3, 8))
        assert rep["entries"]["int_h_sq"] > 0
        assert rep["entries"]["int_hhat_sq"] <= 1e-20 * rep["entries"]["int_h_sq"]
