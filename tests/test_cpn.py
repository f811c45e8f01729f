import math
import tracemalloc

import numpy as np
import pytest

from lagcheck.cpn import (
    HorizontalityError,
    cpn_geometry_state,
    horizontal_lift_jets,
    make_rpn,
    make_whitney_cpn,
    normalize_representative,
    phase_twist,
    projective_distance,
)
from lagcheck.geometry import bundle_at, geometry_state, intrinsic_curvature
from lagcheck.immersions import AMBIENT_SPHERE, ChartPoint


def homogeneous_value(imm, p):
    vals = imm.point(p)
    return vals[0::2] + 1j * vals[1::2]


def example_formula(theta, x):
    """Direct evaluation of the CP^n Whitney immersion in homogeneous coords."""
    n = len(x) - 1
    ch, sh = math.cosh(theta), math.sinh(theta)
    first = x[:n] / (ch + 1j * sh * x[n])
    last = (sh * ch * (1 + x[n] ** 2) + 1j * x[n]) / (ch**2 + sh**2 * x[n] ** 2)
    return np.concatenate([first, [last]])


class TestWhitneyCpnFamily:
    def test_equator_representative(self):
        imm = make_whitney_cpn(1.0, 2)
        p = ChartPoint(0, np.array([1.0, 0.0]))  # embedded x = (1, 0, 0)
        z = homogeneous_value(imm, p)
        expected = normalize_representative(example_formula(1.0, np.array([1.0, 0.0, 0.0])))
        assert np.allclose(z, expected, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_direct_formula_up_to_norm(self, n):
        rng = np.random.default_rng(n)
        imm = make_whitney_cpn(0.7, n)
        for p in imm.atlas.random_points(rng, 15):
            x = imm.atlas.embed(p)
            z = homogeneous_value(imm, p)
            expected = normalize_representative(example_formula(0.7, x))
            assert np.allclose(z, expected, atol=1e-12)

    def test_unit_norm_invariant(self):
        imm = make_whitney_cpn(0.5, 2)
        rng = np.random.default_rng(9)
        for p in imm.atlas.random_points(rng, 200):
            z = homogeneous_value(imm, p)
            assert abs(np.sum(np.abs(z) ** 2) - 1.0) < 1e-12

    def test_antipodal_points_distinct(self):
        imm = make_whitney_cpn(1.0, 2)
        atlas = imm.atlas
        x = np.array([0.8, 0.6, 0.0])
        p_plus = atlas.from_embedded(x)
        p_minus = atlas.from_embedded(-x)
        z1 = homogeneous_value(imm, p_plus)
        z2 = homogeneous_value(imm, p_minus)
        assert projective_distance(z1, z2) > 0.1

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            make_whitney_cpn(0.0, 2)
        with pytest.raises(ValueError):
            make_whitney_cpn(-1.0, 2)


class TestRpn:
    def test_totally_geodesic(self):
        imm = make_rpn(3)
        for p in imm.atlas.random_points(np.random.default_rng(1), 8):
            s = cpn_geometry_state(imm, p)
            assert s.h_norm_sq() < 1e-18
            assert s.H_norm_sq() < 1e-18
            assert s.hhat_norm_sq() < 1e-18

    def test_unit_sectional_curvature(self):
        imm = make_rpn(2)
        p = ChartPoint(0, np.array([0.4, -0.7]))
        s = cpn_geometry_state(imm, p)
        h = s.h.entries
        eye = np.eye(2)
        rhs = (
            np.einsum("ik,jl->ijkl", eye, eye)
            - np.einsum("il,jk->ijkl", eye, eye)
            + np.einsum("mik,mjl->ijkl", h, h)
            - np.einsum("mil,mjk->ijkl", h, h)
        )
        assert rhs[0, 1, 0, 1] == pytest.approx(1.0)
        assert np.max(np.abs(s.R - rhs)) < 1e-6

    def test_two_method_curvature(self):
        imm = make_rpn(2)
        p = ChartPoint(1, np.array([0.3, 0.5]))
        R = intrinsic_curvature(imm, p)
        assert R[0, 1, 0, 1] == pytest.approx(1.0, abs=1e-6)


class TestWhitneyCpnGeometry:
    @pytest.mark.parametrize("n,theta", [(2, 0.5), (2, 1.0), (3, 1.0)])
    def test_hhat_and_T_vanish(self, n, theta):
        imm = make_whitney_cpn(theta, n)
        for p in imm.atlas.random_points(np.random.default_rng(17), 8):
            s = cpn_geometry_state(imm, p)
            assert math.sqrt(s.hhat_norm_sq()) < 1e-8
            assert math.sqrt(float(np.sum(s.T.entries**2))) < 1e-8
            assert s.c_amb == 1.0

    def test_gauss_and_ricci_equations(self):
        imm = make_whitney_cpn(0.8, 2)
        p = ChartPoint(0, np.array([0.5, -0.1]))
        s = cpn_geometry_state(imm, p)
        h = s.h.entries
        eye = np.eye(2)
        rhs = (
            np.einsum("ik,jl->ijkl", eye, eye)
            - np.einsum("il,jk->ijkl", eye, eye)
            + np.einsum("mik,mjl->ijkl", h, h)
            - np.einsum("mil,mjk->ijkl", h, h)
        )
        assert np.max(np.abs(s.R - rhs)) < 1e-5
        assert np.max(np.abs(s.R_normal - rhs)) < 1e-5


class TestHorizontalLift:
    def test_lift_is_horizontal_and_unit(self):
        imm = make_whitney_cpn(1.0, 2)
        p = ChartPoint(0, np.array([0.3, 0.6]))
        W = horizontal_lift_jets(imm, p.chart_id, p.coords[:, None], 2)
        z = W.value[0::2, 0] + 1j * W.value[1::2, 0]
        assert abs(np.sum(np.abs(z) ** 2) - 1.0) < 1e-12
        for a in range(2):
            alpha = [0, 0]
            alpha[a] = 1
            dz = W.deriv(tuple(alpha))[:, 0]
            dzc = dz[0::2] + 1j * dz[1::2]
            assert abs(np.real(np.vdot(1j * z, dzc))) < 1e-9

    def test_lagrangian_frame_is_hermitian_real(self):
        imm = make_whitney_cpn(0.9, 2)
        for p in imm.atlas.random_points(np.random.default_rng(23), 20):
            s = cpn_geometry_state(imm, p, depth="pointwise")
            assert np.max(np.abs(s.frame.e @ s.frame.Je.T)) < 1e-10

    def test_projective_gauge_invariance(self):
        base = make_whitney_cpn(1.0, 2)
        twisted = phase_twist(base, [0.4, -0.7])
        rng = np.random.default_rng(31)
        for p in base.atlas.random_points(rng, 6):
            s0 = geometry_state(base, p)
            s1 = geometry_state(twisted, p)
            assert np.max(np.abs(s0.frame.e - s1.frame.e)) < 1e-8
            assert np.max(np.abs(s0.h.entries - s1.h.entries)) < 1e-8
            assert np.max(np.abs(s0.metric.g - s1.metric.g)) < 1e-8
            assert abs(s0.hhat_norm_sq() - s1.hhat_norm_sq()) < 1e-8
            if s0.T is not None:
                assert np.max(np.abs(s0.T.entries - s1.T.entries)) < 1e-8

    def test_nonlagrangian_rejected(self, turn_first):
        # breaking the projective class smoothly in a non-Hamiltonian way
        # destroys closedness of the horizontality form
        base = make_rpn(2)

        def bad_jet_fn(chart_id, coords, order):
            from lagcheck.jets import Jet

            phi = base.jet_fn(chart_id, coords, order)
            u = Jet.variables(phi.space, coords)
            # rotate only the first homogeneous coordinate by a point-dependent phase
            return turn_first(phi, u[0] * u[1])

        from lagcheck.immersions import Immersion

        bad = Immersion(
            name="bad_cpn",
            source_dim=2,
            ambient=AMBIENT_SPHERE,
            ambient_complex_dim=3,
            params={},
            atlas=base.atlas,
            jet_fn=bad_jet_fn,
        )
        with pytest.raises(HorizontalityError):
            geometry_state(bad, ChartPoint(0, np.array([0.4, 0.5])))

    def test_pinned_component_is_real_positive(self):
        """At every point of a batch the lift's largest homogeneous component
        is real and positive, also for a phase-twisted representative."""
        imm = phase_twist(make_whitney_cpn(0.7, 3), [0.4, -0.7, 0.2])
        coords = np.random.default_rng(3).uniform(-1.0, 1.0, size=(3, 16))
        W = horizontal_lift_jets(imm, 0, coords, 2)
        z = W.value[0::2] + 1j * W.value[1::2]
        pick = np.take_along_axis(z, np.argmax(np.abs(z), axis=0)[None, :], axis=0)[0]
        assert np.max(np.abs(pick.imag)) < 1e-15
        assert np.all(pick.real > 0)

    def test_energy_chunk_peak_memory(self):
        """An order-2 bundle and the four energy scalars on 512 nodes of the
        CP^3 Whitney sphere stay within 4.5 KB of traced memory per node:
        the lift drops each (2m,) stage once the next one is built."""
        imm = make_whitney_cpn(0.7, 3)
        coords = np.random.default_rng(8).uniform(-1.0, 1.0, size=(512, 3))

        def energy_chunk():
            fb = bundle_at(imm, 0, coords, 2)
            return [fb.scalar(name) for name in ("sqrt_det_g", "h_sq", "hhat_sq", "H_sq")]

        energy_chunk()  # warm-up: jet tables and caches
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            energy_chunk()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak / len(coords) <= 4.5 * 1024

    def test_normalize_representative_errors(self):
        with pytest.raises(ValueError):
            normalize_representative(np.zeros(3, dtype=complex))


class TestHomogeneousPoint:
    def test_projective_equality(self):
        from lagcheck.cpn import HomogeneousPoint

        z = np.array([1.0 + 1j, 0.5, -0.2j])
        p = HomogeneousPoint(z)
        q = HomogeneousPoint(np.exp(0.7j) * z)
        r = HomogeneousPoint(np.array([0.0, 1.0, 0.0], dtype=complex))
        assert abs(np.sum(np.abs(p.z) ** 2) - 1.0) < 1e-12
        assert p.same_point(q)
        assert not p.same_point(r)
