import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from lagcheck.cpn import (
    HorizontalityError,
    horizontal_lift_jets,
    make_cpn_torus,
    make_rpn,
    make_whitney_cpn,
)
from lagcheck.geometry import FrameBundle, bundle_at, geometry_state
from lagcheck import identities, jets
from lagcheck.jets import Jet
from lagcheck.identities import run_identity_suite
from lagcheck.cli import build_immersion
from lagcheck.immersions import AMBIENT_SPHERE, Immersion, make_product_torus, make_whitney_cn
from lagcheck.quadrature import energy_report, torus_rule
from reference import deriv, embed, normalize_representative, phase_twist, projective_distance


def homogeneous_value(imm, chart, u):
    """The homogeneous representative at one chart point, a batch of one."""
    vals = imm.jets(chart, np.asarray(u, dtype=float)[None], 1).value[:, 0]
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
        z = normalize_representative(homogeneous_value(imm, 0, [1.0, 0.0]))  # embedded x = (1, 0, 0)
        expected = normalize_representative(example_formula(1.0, np.array([1.0, 0.0, 0.0])))
        assert np.allclose(z, expected, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_direct_formula_up_to_norm(self, n):
        rng = np.random.default_rng(n)
        imm = make_whitney_cpn(0.7, n)
        charts, coords = imm.atlas.random(rng, 15)
        for chart, u, x in zip(charts, coords, embed(charts, coords)):
            z = normalize_representative(homogeneous_value(imm, chart, u))
            expected = normalize_representative(example_formula(0.7, x))
            assert np.allclose(z, expected, atol=1e-12)

    def test_unit_norm_invariant(self):
        """The family emits a polynomial multiple of the representative; the
        lift it enters is unit norm."""
        imm = make_whitney_cpn(0.5, 2)
        rng = np.random.default_rng(9)
        for chart, u in zip(*imm.atlas.random(rng, 200)):
            W = horizontal_lift_jets(imm, chart, u[None], 2)
            assert abs(np.sum(W.value**2) - 1.0) < 1e-12

    def test_antipodal_points_distinct(self):
        imm = make_whitney_cpn(1.0, 2)
        atlas = imm.atlas
        x = np.array([0.8, 0.6, 0.0])
        (c_plus, c_minus), (u_plus, u_minus) = atlas.from_embedded(np.stack([x, -x]))
        z1 = homogeneous_value(imm, c_plus, u_plus)
        z2 = homogeneous_value(imm, c_minus, u_minus)
        assert projective_distance(z1, z2) > 0.1

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            make_whitney_cpn(0.0, 2)
        with pytest.raises(ValueError):
            make_whitney_cpn(-1.0, 2)


class TestRpn:
    def test_totally_geodesic(self):
        imm = make_rpn(3)
        for p in zip(*imm.atlas.random(np.random.default_rng(1), 8)):
            s = geometry_state(imm, *p)
            for name in ("h_sq", "H_sq", "hhat_sq"):
                assert getattr(s, name)[0] < 1e-18

    def test_unit_sectional_curvature(self):
        imm = make_rpn(2)
        p = (0, np.array([0.4, -0.7]))
        s = geometry_state(imm, *p)
        h = s.h0[..., 0]
        eye = np.eye(2)
        rhs = (
            np.einsum("ik,jl->ijkl", eye, eye)
            - np.einsum("il,jk->ijkl", eye, eye)
            + np.einsum("mik,mjl->ijkl", h, h)
            - np.einsum("mil,mjk->ijkl", h, h)
        )
        assert rhs[0, 1, 0, 1] == pytest.approx(1.0)
        assert np.max(np.abs(s.curvature_frame[..., 0] - rhs)) < 1e-6

    def test_two_method_curvature(self):
        imm = make_rpn(2)
        p = (1, np.array([0.3, 0.5]))
        R = geometry_state(imm, *p).curvature_frame[..., 0]
        assert R[0, 1, 0, 1] == pytest.approx(1.0, abs=1e-6)


class TestWhitneyCpnGeometry:
    @pytest.mark.parametrize("n,theta", [(2, 0.5), (2, 1.0), (3, 1.0)])
    def test_hhat_and_T_vanish(self, n, theta):
        imm = make_whitney_cpn(theta, n)
        for p in zip(*imm.atlas.random(np.random.default_rng(17), 8)):
            s = geometry_state(imm, *p)
            T = s.T0[..., 0]
            assert math.sqrt(s.hhat_sq[0]) < 1e-8
            assert math.sqrt(float(np.sum((0.5 * (T + T.T)) ** 2))) < 1e-8
            assert s.c_amb == 1.0

    def test_gauss_and_ricci_equations(self):
        imm = make_whitney_cpn(0.8, 2)
        p = (0, np.array([0.5, -0.1]))
        s = geometry_state(imm, *p)
        h = s.h0[..., 0]
        eye = np.eye(2)
        rhs = (
            np.einsum("ik,jl->ijkl", eye, eye)
            - np.einsum("il,jk->ijkl", eye, eye)
            + np.einsum("mik,mjl->ijkl", h, h)
            - np.einsum("mil,mjk->ijkl", h, h)
        )
        assert np.max(np.abs(s.curvature_frame[..., 0] - rhs)) < 1e-5
        assert np.max(np.abs(s.normal_curvature[..., 0] - rhs)) < 1e-5


class TestHorizontalLift:
    def test_lift_is_horizontal_and_unit(self):
        imm = make_whitney_cpn(1.0, 2)
        W = horizontal_lift_jets(imm, 0, np.array([[0.3, 0.6]]), 2)
        z = W.value[0::2, 0] + 1j * W.value[1::2, 0]
        assert abs(np.sum(np.abs(z) ** 2) - 1.0) < 1e-12
        for a in range(2):
            alpha = [0, 0]
            alpha[a] = 1
            dz = deriv(W, alpha)[:, 0]
            dzc = dz[0::2] + 1j * dz[1::2]
            assert abs(np.real(np.vdot(1j * z, dzc))) < 1e-9

    def test_lagrangian_frame_is_hermitian_real(self):
        imm = make_whitney_cpn(0.9, 2)
        for p in zip(*imm.atlas.random(np.random.default_rng(23), 20)):
            s = geometry_state(imm, *p, 2)
            assert np.max(np.abs(s.e0[..., 0] @ s.Je0[..., 0].T)) < 1e-10

    def test_projective_gauge_invariance(self):
        base = make_whitney_cpn(1.0, 2)
        twisted = phase_twist(base, [0.4, -0.7])
        rng = np.random.default_rng(31)
        for p in zip(*base.atlas.random(rng, 6)):
            s0 = geometry_state(base, *p)
            s1 = geometry_state(twisted, *p)
            assert np.max(np.abs(s0.e0 - s1.e0)) < 1e-8
            assert np.max(np.abs(s0.h0 - s1.h0)) < 1e-8
            assert np.max(np.abs(s0.g0 - s1.g0)) < 1e-8
            assert abs(s0.hhat_sq[0] - s1.hhat_sq[0]) < 1e-8
            T0, T1 = s0.T0[..., 0], s1.T0[..., 0]
            assert np.max(np.abs(0.5 * (T0 + T0.T) - 0.5 * (T1 + T1.T))) < 1e-8

    def test_projective_gauge_invariance_pointwise(self):
        """The order-2 lift is pinned too: pointwise states, frames
        included, do not depend on the phase of the representative."""
        base = make_whitney_cpn(1.0, 2)
        twisted = phase_twist(base, [0.4, -0.7])
        rng = np.random.default_rng(31)
        for p in zip(*base.atlas.random(rng, 6)):
            s0 = geometry_state(base, *p, 2)
            s1 = geometry_state(twisted, *p, 2)
            assert np.max(np.abs(s0.e0 - s1.e0)) < 1e-8
            assert np.max(np.abs(s0.Je0 - s1.Je0)) < 1e-8
            assert np.max(np.abs(s0.h0 - s1.h0)) < 1e-8
            assert np.max(np.abs(s0.g0 - s1.g0)) < 1e-8
            assert abs(s0.hhat_sq[0] - s1.hhat_sq[0]) < 1e-8

    def test_nonlagrangian_rejected(self, turn_first):
        # breaking the projective class smoothly in a non-Hamiltonian way
        # destroys closedness of the horizontality form
        with pytest.raises(HorizontalityError):
            geometry_state(turned_rpn(turn_first), 0, [0.4, 0.5])

    def test_nonlagrangian_rejected_by_order2_lift(self, turn_first):
        """The connection route checks <d_a W, i d_b W> at the point and
        names the point it fails at."""
        with pytest.raises(HorizontalityError, match=r"chart 0, coords \[0.4, 0.5\]: horizontality"):
            bundle_at(turned_rpn(turn_first), 0, np.array([[0.0, 0.0], [0.4, 0.5]]), 2)

    def test_pinned_component_is_real_positive(self):
        """At every point of a batch the lift's largest homogeneous
        component is real and positive, also for a phase-twisted
        representative, on both the order-2 and the order-3 route."""
        imm = phase_twist(make_whitney_cpn(0.7, 3), [0.4, -0.7, 0.2])
        coords = np.random.default_rng(3).uniform(-1.0, 1.0, size=(3, 16)).T
        for order in (2, 3):
            W = horizontal_lift_jets(imm, 0, coords, order)
            z = W.value[0::2] + 1j * W.value[1::2]
            pick = np.take_along_axis(z, np.argmax(np.abs(z), axis=0)[None, :], axis=0)[0]
            assert np.max(np.abs(pick.imag)) < 1e-15
            assert np.all(pick.real > 0)

    # KB of traced memory per node: the measured 1.50, 1.37 and 1.45, plus
    # less than 10%
    CHUNK_KB_PER_NODE = {"whitney_cpn": 1.65, "product_torus": 1.5, "whitney_cn": 1.59}

    def test_energy_chunk_peak_memory(self):
        """An order-2 bundle and the four energy scalars on 512 nodes of the
        CP^3 Whitney sphere, a torus and an offset Whitney sphere in C^3 stay
        within `CHUNK_KB_PER_NODE` of traced memory per node: the families
        write their jet into one buffer, the lift turns it in place, and the
        bundle keeps J e only where it is read."""
        bodies = {
            "whitney_cpn": make_whitney_cpn(0.7, 3),
            "product_torus": make_product_torus([1.0, 1.5, 2.0]),
            "whitney_cn": make_whitney_cn(1.0, np.array([0.3 + 0.4j, -0.2, 0.1j]), 3),
        }
        coords = np.random.default_rng(8).uniform(-1.0, 1.0, size=(512, 3))
        for name, imm in bodies.items():

            def energy_chunk():
                fb = bundle_at(imm, 0, coords, 2)
                return [fb.sqrt_det_g, *(getattr(fb, name) for name in ("h_sq", "hhat_sq", "H_sq"))]

            energy_chunk()  # warm-up: jet tables and caches
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                energy_chunk()
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert peak / len(coords) <= self.CHUNK_KB_PER_NODE[name] * 1024, name

    def test_normalize_representative_errors(self):
        with pytest.raises(ValueError):
            normalize_representative(np.zeros(3, dtype=complex))


def turned_rpn(turn_first) -> Immersion:
    """RP^2 with its first homogeneous coordinate rotated by the phase
    u_1 u_2: not Lagrangian wherever that phase has a nonzero gradient
    (the phase has a critical point at u = 0, where the lift passes)."""
    base = make_rpn(2)

    def jet_fn(charts, u):
        return turn_first(base.jet_fn(charts, u), u[0] * u[1])

    return Immersion("bad_cpn", AMBIENT_SPHERE, {}, base.atlas, jet_fn)


ORDER2_BODIES = {
    **{
        f"whitney_cpn-{theta}-{n}": make_whitney_cpn(theta, n)
        for theta in (0.3, 0.7, 1.5)
        for n in (2, 3)
    },
    "phase_twist": phase_twist(make_whitney_cpn(0.7, 3), [0.4, -0.7, 0.2]),
    "rpn": make_rpn(3),
    "cpn_torus": make_cpn_torus([1.0, 0.7, 1.2, 0.9]),
}
# the torus has one chart, the sphere bodies two
ORDER2_CASES = [
    (name, chart) for name in sorted(ORDER2_BODIES) for chart in ((0,) if name == "cpn_torus" else (0, 1))
]


class TestOrderTwoLift:
    @pytest.mark.parametrize("name, chart", ORDER2_CASES)
    def test_matches_order3_lift(self, name, chart):
        """The connection route of an order-2 bundle against the pinned
        phase-potential lift truncated to order 2: the lifts differ by a
        constant phase per point and by second-order terms along Z and iZ,
        which no energy integrand sees."""
        imm = ORDER2_BODIES[name]
        coords = np.random.default_rng(40 + chart).uniform(-1.2, 1.2, size=(12, imm.source_dim))
        new = bundle_at(imm, chart, coords, 2)
        lift = horizontal_lift_jets(imm, chart, coords, 3)
        old = FrameBundle(lift.truncated(2), imm.source_dim, 1.0)
        full = FrameBundle(lift, imm.source_dim, 1.0)  # its h_jets: h through jets, not rows

        def rel(a, b, scale):
            return np.max(np.abs(a - b)) / scale

        h_scale = max(1.0, float(np.max(old.h_sq)))
        assert rel(new.g0, old.g0, np.max(np.abs(old.g0))) < 1e-13
        assert rel(new.sqrt_det_g, old.sqrt_det_g, np.max(old.sqrt_det_g)) < 1e-13
        assert rel(new.h0, old.h0, math.sqrt(h_scale)) < 1e-13
        assert rel(new.h0, full.h_jets.value, math.sqrt(h_scale)) < 1e-13
        for scalar in ("h_sq", "hhat_sq", "H_sq"):
            assert rel(getattr(new, scalar), getattr(old, scalar), h_scale) < 1e-13, scalar

    @pytest.mark.parametrize("name", ["whitney_cpn-0.7-3", "rpn", "cpn_torus", "phase_twist"])
    def test_forms_no_jet_product(self, monkeypatch, name):
        """The order-2 lift is array operations on the rows of the family's
        jet: with every jet product and series refused once that jet is
        built, an order-2 bundle still builds and gives the same values."""
        imm = ORDER2_BODIES[name]
        coords = np.random.default_rng(17).uniform(-1.0, 1.0, size=(9, imm.source_dim))
        want = bundle_at(imm, 0, coords, 2)
        phi = imm.jets(0, coords, 2)  # the family's own products happen here

        def refuse(*args, **kwargs):
            raise AssertionError("jet product in the order-2 lift")

        monkeypatch.setattr(Jet, "__mul__", refuse)
        monkeypatch.setattr(Jet, "power", refuse)
        monkeypatch.setattr(jets, "_truncated_product", refuse)
        got = bundle_at(dataclasses.replace(imm, jet_fn=lambda charts, u: phi), 0, coords, 2)
        assert np.array_equal(got.sqrt_det_g, want.sqrt_det_g)
        for scalar in ("h_sq", "hhat_sq", "H_sq"):
            assert np.array_equal(getattr(got, scalar), getattr(want, scalar)), scalar

    @pytest.mark.parametrize("order", [2, 3])
    def test_lift_is_the_unit_representative_at_the_point(self, order):
        """The lift's value is the unit representative times one phase."""
        imm = phase_twist(make_whitney_cpn(0.7, 3), [0.4, -0.7, 0.2])
        coords = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, 8)).T
        phi = imm.jets(0, coords, order).value
        z = (phi[0::2] + 1j * phi[1::2]) / np.linalg.norm(phi, axis=0)
        W = horizontal_lift_jets(imm, 0, coords, order)
        w = W.value[0::2] + 1j * W.value[1::2]
        phase = np.sum(w * z.conj(), axis=0)
        assert np.max(np.abs(np.abs(phase) - 1.0)) < 1e-15
        assert np.max(np.abs(w - phase * z)) < 1e-15


class TestCpnTorus:
    @pytest.mark.parametrize("n,volume", [(2, 7.598), (3, 15.503)])
    def test_clifford_closed_forms(self, n, volume):
        """Equal moduli give the Clifford torus: volume (n+1)^{-(n+1)/2} (2 pi)^n
        (a flat T^{n+1} of radii (n+1)^{-1/2} over a Hopf fibre of length
        2 pi), |h|^2 = n(n-1), H = 0 and hhat = h."""
        e = energy_report(make_cpn_torus([1.0] * (n + 1)), torus_rule(n, 8))["entries"]
        vol = (n + 1) ** (-(n + 1) / 2) * (2 * math.pi) ** n
        h_sq = n * (n - 1)
        assert e["volume"] == pytest.approx(volume, abs=5e-4)
        assert abs(e["volume"] - vol) < 1e-12 * vol
        assert abs(e["int_h_sq"] - h_sq * vol) < 1e-12 * h_sq * vol
        assert abs(e["int_hhat_sq"] - h_sq * vol) < 1e-12 * h_sq * vol
        assert e["int_H_sq"] < 1e-12 * h_sq * vol
        assert abs(e["int_hhat_n"] - h_sq ** (n / 2) * vol) < 1e-12 * h_sq ** (n / 2) * vol

    @pytest.mark.parametrize("moduli", [[1.0, 0.7, 1.2], [1.0, 0.7, 1.2, 0.9]])
    def test_volume_of_unequal_moduli(self, moduli):
        """The lift's metric on the angle chart is g_jk = r_j^2 delta_jk -
        r_j^2 r_k^2, with sqrt det g = r_0 r_1 ... r_n, so the torus has
        volume (2 pi)^n prod r_j: the chart covers the orbit exactly once."""
        r = np.asarray(moduli) / np.linalg.norm(moduli)
        n = len(r) - 1
        vol = (2 * math.pi) ** n * np.prod(r)
        e = energy_report(make_cpn_torus(moduli), torus_rule(n, 8))["entries"]
        assert abs(e["volume"] - vol) < 1e-12 * vol

    @pytest.mark.parametrize("moduli", [[1.0, 1.0, 1.0], [1.0, 0.7, 1.2]])
    def test_angle_chart_is_periodic_and_one_to_one(self, moduli):
        """Shifting any angle by 2 pi gives the same representative for any
        moduli, while angles that differ by less than a period (here the
        shift by 2 pi / 3 in every angle) give distinct points."""
        imm = make_cpn_torus(moduli)
        t = np.array([0.3, -1.1])

        def point(angles):
            v = imm.jets(0, np.asarray(angles, dtype=float)[None], 0).value[:, 0]
            return v[0::2] + 1j * v[1::2]

        for a in range(2):
            assert np.max(np.abs(point(t) - point(t + 2 * math.pi * np.eye(2)[a]))) < 1e-14
        assert projective_distance(point(t), point(t + 2 * math.pi / 3)) > 0.3

    @pytest.mark.parametrize("moduli", [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [1.0, 0.7, 1.2, 0.9]])
    def test_identity_suite_passes(self, moduli):
        imm = make_cpn_torus(moduli)
        pts = imm.atlas.random(np.random.default_rng(5), 6)
        assert run_identity_suite(imm, *pts, seed=5)["all_pass"]

    def test_unequal_moduli_have_mean_curvature(self):
        fb = bundle_at(make_cpn_torus([1.0, 0.7, 1.2, 0.9]), 0, np.array([[0.3, 1.1, -2.0]]), 2)
        assert fb.H_sq[0] > 1e-2

    def test_from_config(self):
        imm = build_immersion({"family": "cpn_torus", "moduli": [2.0, 2.0, 2.0]}, "energy")
        assert imm.ambient == AMBIENT_SPHERE and imm.source_dim == 2
        W = horizontal_lift_jets(imm, 0, np.array([[0.4, 1.7]]), 2)
        assert abs(np.sum(W.value**2) - 1.0) < 1e-15

    def test_invalid_moduli(self):
        with pytest.raises(ValueError):
            make_cpn_torus([1.0, 1.0])
        with pytest.raises(ValueError):
            make_cpn_torus([1.0, -1.0, 1.0])


def check(report, name):
    return next(c for c in report["checks"] if c["name"] == name)


class TestCpnMutations:
    """A wrong ambient-curvature term must fail the checks that see it."""

    def test_c_term_coefficient_is_flagged(self, monkeypatch):
        # (n + 2) c |hhat|^2 in place of (n + 1) c |hhat|^2
        imm = make_cpn_torus([1.0, 0.7, 1.2, 0.9])
        pts = imm.atlas.random(np.random.default_rng(5), 6)
        assert check(run_identity_suite(imm, *pts, seed=5), "simons_identity_rel")["pass"]
        terms = identities.simons_terms

        def mutated(fb):
            t = terms(fb)
            t["c_term"] = t["c_term"] * (fb.n + 2.0) / (fb.n + 1.0)
            return t

        monkeypatch.setattr(identities, "simons_terms", mutated)
        assert not check(run_identity_suite(imm, *pts, seed=5), "simons_identity_rel")["pass"]

    def test_gauss_ambient_term_is_flagged(self, monkeypatch):
        # 1.01 c (d_ik d_jl - d_il d_jk) in the Gauss form
        imm = make_whitney_cpn(0.7, 3)
        pts = imm.atlas.random(np.random.default_rng(6), 6)
        names = ("gauss_two_method", "ricci_equation")
        rep = run_identity_suite(imm, *pts, seed=6, heavy=False)
        assert all(check(rep, name)["pass"] for name in names)
        gauss_rhs = FrameBundle.gauss_rhs.fget
        eye = np.eye(3)
        delta = np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye)
        monkeypatch.setattr(
            FrameBundle, "gauss_rhs", property(lambda fb: gauss_rhs(fb) + 0.01 * fb.c_amb * delta[..., None])
        )
        rep = run_identity_suite(imm, *pts, seed=6, heavy=False)
        assert not any(check(rep, name)["pass"] for name in names)

