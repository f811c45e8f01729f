import math

import numpy as np
import pytest

from lagcheck.immersions import (
    complex_to_real_matrix,
    linear_image,
    make_lagrangian_plane,
    make_product_torus,
    make_whitney_cn,
    random_unitary,
)
from lagcheck.quadrature import (
    energy_report,
    integrate,
    michael_simon_ratio,
    r2_window_limit,
    sphere_rule,
    sphere_volume,
    torus_rule,
)


class TestRules:
    def test_weights_positive_and_sum_to_parameter_volume(self):
        r = torus_rule(2, 12)
        assert np.all(r.weights > 0)
        assert r.parameter_volume() == pytest.approx((2 * math.pi) ** 2, rel=1e-13)
        s = sphere_rule(3, 10)
        assert np.all(s.weights > 0)
        assert s.parameter_volume() == pytest.approx(2 * math.pi * math.pi**2, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_round_sphere_volume(self, n):
        r = sphere_rule(n, 30 if n < 4 else 14)
        assert abs(r.round_sphere_volume() - sphere_volume(n)) < 1e-8

    def test_rule_immersion_mismatch(self):
        torus = make_product_torus([1.0, 1.0])
        with pytest.raises(ValueError):
            integrate(torus, "one", sphere_rule(2, 6))
        with pytest.raises(ValueError):
            integrate(torus, "one", torus_rule(3, 6))


class TestIntegrate:
    def test_torus_area(self):
        torus = make_product_torus([1.0, 1.0])
        area = integrate(torus, "one", torus_rule(2, 16))
        assert area == pytest.approx(4 * math.pi**2, abs=1e-10)

    def test_node_refinement_converges(self):
        wh = make_whitney_cn(1.0, None, 2)
        a1 = integrate(wh, "one", sphere_rule(2, 36))
        a2 = integrate(wh, "one", sphere_rule(2, 72))
        assert abs(a1 - a2) < 1e-8

    def test_constant_hhat_sq_on_torus(self):
        torus = make_product_torus([1.0, 1.0])
        val = integrate(torus, "hhat_sq", torus_rule(2, 12))
        assert val == pytest.approx(2 * math.pi**2, abs=1e-10)

    def test_callable_field(self):
        torus = make_product_torus([1.0, 1.0])
        val = integrate(torus, lambda p: math.sin(p.coords[0]) ** 2, torus_rule(2, 16))
        assert val == pytest.approx(2 * math.pi**2, abs=1e-9)


class TestEnergyReport:
    def test_square_torus_closed_forms(self):
        rep = energy_report(make_product_torus([1.0, 1.0]), torus_rule(2, 20))
        assert rep.int_hhat_sq == pytest.approx(2 * math.pi**2, abs=1e-6)
        assert rep.int_h_sq == pytest.approx(8 * math.pi**2, abs=1e-6)
        assert rep.int_H_sq == pytest.approx(2 * math.pi**2, abs=1e-6)
        assert rep.volume == pytest.approx(4 * math.pi**2, abs=1e-6)
        assert rep.r2_limit == 0.0

    def test_unequal_radii_closed_form(self):
        radii = (1.0, 2.0)
        rep = energy_report(make_product_torus(radii), torus_rule(2, 16))
        area = 4 * math.pi**2 * 2.0
        h_sq = sum(1 / r**2 for r in radii)
        H_sq = h_sq / 4
        assert rep.int_h_sq == pytest.approx(area * h_sq, rel=1e-10)
        assert rep.int_hhat_sq == pytest.approx(area * (h_sq - 3 * H_sq), rel=1e-10)

    @pytest.mark.parametrize("n,degree", [(2, 30), (3, 10)])
    def test_whitney_gap_energy_vanishes(self, n, degree):
        rep = energy_report(make_whitney_cn(1.0, None, n), sphere_rule(n, degree))
        assert rep.int_hhat_n < 1e-7

    def test_dilation_invariance_of_gap_energy(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=2) + 1j * rng.normal(size=2)
        base = energy_report(make_whitney_cn(1.0, A, 2), sphere_rule(2, 24))
        for lam in (0.5, 2.0, 10.0):
            rep = energy_report(make_whitney_cn(lam, lam * A, 2), sphere_rule(2, 24))
            assert abs(rep.int_hhat_n - base.int_hhat_n) < 1e-8

    def test_norm_identity_integral_form(self):
        torus = make_product_torus([1.0, 1.5])
        rep = energy_report(torus, torus_rule(2, 14))
        n = 2
        assert rep.int_hhat_sq == pytest.approx(
            rep.int_h_sq - 3 * n * n / (n + 2) * rep.int_H_sq, abs=1e-8
        )

    def test_refinement_stability(self):
        # |h|^2 concentrates near the double point; entries are stable under
        # halving the node spacing once the axis degree reaches 40
        rep1 = energy_report(make_whitney_cn(1.0, None, 2), sphere_rule(2, 40))
        rep2 = energy_report(make_whitney_cn(1.0, None, 2), sphere_rule(2, 80))
        for k in rep1.entries:
            assert abs(rep1.entries[k] - rep2.entries[k]) < 1e-6

    def test_isometry_invariance(self):
        rng = np.random.default_rng(4)
        imm = make_whitney_cn(1.0, None, 2)
        moved = linear_image(
            imm, complex_to_real_matrix(random_unitary(2, rng)), offset=rng.normal(size=4)
        )
        rule = sphere_rule(2, 20)
        r0, r1 = energy_report(imm, rule), energy_report(moved, rule)
        for k in r0.entries:
            assert abs(r0.entries[k] - r1.entries[k]) < 1e-10

    def test_plane_rejected_but_limit_defined(self):
        plane = make_lagrangian_plane(2)
        with pytest.raises(ValueError):
            energy_report(plane, torus_rule(2, 6))
        limit, note = r2_window_limit(plane)
        assert limit == 0.0
        assert "plane" in note

    def test_csv_output(self):
        rep = energy_report(make_product_torus([1.0, 1.0]), torus_rule(2, 8))
        csv = rep.to_csv()
        assert csv.splitlines()[0] == "name,value,degree,node_count"
        assert any(line.startswith("int_hhat_n,") for line in csv.splitlines())

    def test_cpn_bodies_integrate(self):
        # the source model manifold carries the pulled-back metric, so the
        # totally geodesic real form reports the round S^n volume (the 2:1
        # projective quotient is not divided out)
        from lagcheck.cpn import make_rpn, make_whitney_cpn

        rp = energy_report(make_rpn(2), sphere_rule(2, 16))
        assert rp.volume == pytest.approx(4 * math.pi, rel=1e-9)
        assert rp.int_h_sq == 0.0
        wc = energy_report(make_whitney_cpn(1.0, 2), sphere_rule(2, 12))
        assert wc.int_hhat_n < 1e-7


def constant_field(value):
    return lambda cid, u: 0.0 * u[0] + value


class TestMichaelSimon:
    def test_zero_test_function(self):
        torus = make_product_torus([1.0, 1.0])
        out = michael_simon_ratio(torus, constant_field(0.0), torus_rule(2, 8))
        assert out["ms_lhs"] == 0.0
        assert out["ms_rhs_no_constant"] == 0.0

    def test_constant_function_on_square_torus(self):
        torus = make_product_torus([1.0, 1.0])
        out = michael_simon_ratio(torus, constant_field(1.0), torus_rule(2, 10))
        assert out["ms_lhs"] == pytest.approx(math.sqrt(4 * math.pi**2), rel=1e-10)
        assert out["ms_rhs_no_constant"] == pytest.approx(4 * math.pi**2 / math.sqrt(2), rel=1e-10)
        assert out["eq320_lhs"] is None

    def test_harmonic_on_whitney_sphere(self):
        wh = make_whitney_cn(1.0, None, 2)
        atlas = wh.atlas

        def v(cid, u):
            return 1.0 + atlas.embed_jets(cid, u)[2]

        out = michael_simon_ratio(wh, v, sphere_rule(2, 16))
        ratio = out["ms_rhs_no_constant"] / out["ms_lhs"]
        assert ratio == pytest.approx(6.771048996307041, rel=1e-12)  # frozen regression

    def test_eq320_pair_for_n3(self):
        wh = make_whitney_cn(1.0, None, 3)
        out = michael_simon_ratio(wh, constant_field(1.0), sphere_rule(3, 8))
        assert out["eq320_lhs"] is not None and out["eq320_lhs"] > 0
        assert out["eq320_rhs_no_constant"] > 0

    def test_negative_function_rejected(self):
        torus = make_product_torus([1.0, 1.0])
        with pytest.raises(ValueError):
            michael_simon_ratio(torus, constant_field(-1.0), torus_rule(2, 6))


class TestScaleFree:
    """A dilation by lam scales each energy by lam^(its weight); no valid body
    is rejected for its size."""

    @pytest.mark.parametrize("lam", [1e-3, 1e3])
    def test_torus_energies_follow_dilation(self, lam):
        radii = np.array([1.0, 1.5, 2.0])
        rule = torus_rule(3, 8)
        base = energy_report(make_product_torus(radii), rule).entries
        scaled = energy_report(make_product_torus(lam * radii), rule).entries
        weights = {"volume": 3, "int_hhat_n": 0, "int_hhat_sq": 1, "int_h_sq": 1, "int_H_sq": 1}
        for name, w in weights.items():
            assert scaled[name] == pytest.approx(lam**w * base[name], rel=1e-13)

    @pytest.mark.parametrize("r", [5e-3, 1e-5])
    def test_small_whitney_sphere_keeps_the_gap(self, r):
        rep = energy_report(make_whitney_cn(r, None, 3), sphere_rule(3, 8))
        assert rep.int_h_sq > 0
        assert rep.int_hhat_sq <= 1e-20 * rep.int_h_sq
