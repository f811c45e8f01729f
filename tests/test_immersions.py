import hashlib
import math
import random

import numpy as np
import pytest

from lagcheck.cli import FAMILIES, ConfigError, build_immersion, load_config
from lagcheck.cpn import make_rpn, make_whitney_cpn
from lagcheck.immersions import (
    AMBIENT_CN,
    AMBIENT_SPHERE,
    Draws,
    SPHERE_SWITCH_RADIUS,
    Immersion,
    PlaneAtlas,
    SphereAtlas,
    TorusAtlas,
    complex_to_real_matrix,
    expm_series,
    interleave,
    linear_image,
    make_lagrangian_plane,
    make_nonlagrangian_plane,
    make_perturbed_whitney,
    make_product_torus,
    make_whitney_cn,
    symplectic_j_matrix,
    times_i,
)
from lagcheck.jets import Jet, jet_einsum, jet_space
from reference import (
    deriv,
    embed,
    make_black_box,
    numpy_perturbed_whitney,
    phase_twist,
    random_unitary,
    whitney_cn_mobius,
)


def point(imm, chart, u):
    """The ambient reals of `imm` at one chart point, a batch of one."""
    return imm.jets(chart, np.asarray(u, dtype=float)[None], 1).value[:, 0]


def jet_at(imm, chart, u, order):
    """The ambient jet of `order` at one chart point, a batch of one."""
    return imm.jets(chart, np.asarray(u, dtype=float)[None], order)


def ambient_complex(imm, chart, u):
    vals = point(imm, chart, u)
    return vals[0::2] + 1j * vals[1::2]


def whitney_formula(r, A, x):
    """Direct evaluation of the Whitney immersion on embedded coordinates."""
    n = len(x) - 1
    return r * x[:n] * (1.0 + 1j * x[n]) / (1.0 + x[n] ** 2) + A


class TestWhitneyCn:
    @pytest.mark.parametrize("order", range(5))
    def test_jet_equals_the_mobius_form(self, order):
        """The chart polynomial and the Moebius form
        r u (1 + i sigma) / (|u|^2 + i sigma) + A, two derivations of one
        map, give the same jet in either chart and in a batch that mixes
        them, to 1e-14 of the largest coefficient of each degree."""
        A = np.array([0.3 + 0.1j, -0.2 + 0.5j, 0.4j])
        imm, ref = make_whitney_cn(1.3, A, 3), whitney_cn_mobius(1.3, A, 3)
        coords = np.random.default_rng(order).uniform(-1.4, 1.4, size=(8, 3))
        for charts in (0, 1, np.arange(8) % 2):
            got, want = imm.jets(charts, coords, order), ref.jets(charts, coords, order)
            rows = got.space.ncoef_by_degree
            assert got.c.shape == want.c.shape
            for d in range(order + 1):
                degree_d = slice(rows[d - 1] if d else 0, rows[d])
                block = want.c[:, degree_d]
                assert np.max(np.abs(got.c[:, degree_d] - block)) <= 1e-14 * np.max(np.abs(block)), (charts, d)

    def test_north_pole_maps_to_offset(self):
        imm = make_whitney_cn(1.0, None, 2)
        # north pole is the origin of the south-projection chart
        z = ambient_complex(imm, 1, np.zeros(2))
        assert np.allclose(z, 0.0, atol=1e-15)

    def test_equator_point(self):
        imm = make_whitney_cn(1.0, None, 2)
        z = ambient_complex(imm, 0, [1.0, 0.0])  # x = (1, 0, 0)
        assert np.allclose(z, [1.0, 0.0], atol=1e-14)

    def test_offset_and_radius(self):
        imm = make_whitney_cn(2.0, np.array([1.0 + 0j, 0.0]), 2)
        z = ambient_complex(imm, 0, [1.0, 0.0])
        assert np.allclose(z, [3.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_direct_formula(self, n):
        rng = np.random.default_rng(42)
        A = rng.normal(size=n) + 1j * rng.normal(size=n)
        imm = make_whitney_cn(1.3, A, n)
        atlas = imm.atlas
        charts, coords = atlas.random(rng, 20)
        for chart, u, x in zip(charts, coords, embed(charts, coords)):
            expected = whitney_formula(1.3, A, x)
            assert np.allclose(ambient_complex(imm, chart, u), expected, atol=1e-13)

    @pytest.mark.parametrize("r", [1e-2, 1.0, 1e2])
    def test_chart_polynomial_matches_embedded_formula_in_both_charts(self, r):
        """The chart formula r u (1 + s + i sigma (s - 1)) / (1 + s^2) + A
        gives the embedded Whitney formula at the point `embed` names, in
        either chart, to round-off of the body's size at every scale."""
        rng = np.random.default_rng(43)
        A = r * np.array([0.6 - 0.3j, -0.2 + 0.9j, 0.4j])
        imm = make_whitney_cn(r, A, 3)
        for chart in (0, 1):
            coords = rng.uniform(-1.5, 1.5, size=(20, 3))
            for u, x in zip(coords, embed(np.full(20, chart), coords)):
                expected = whitney_formula(r, A, x)
                assert np.max(np.abs(ambient_complex(imm, chart, u) - expected)) <= 1e-15 * r

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_whitney_cn(-1.0, None, 2)
        with pytest.raises(ValueError):
            make_whitney_cn(1.0, np.zeros(3, dtype=complex), 2)


class TestProductTorus:
    def test_values(self):
        imm = make_product_torus([1.0, 1.0])
        assert np.allclose(ambient_complex(imm, 0, np.zeros(2)), [1, 1])
        imm2 = make_product_torus([1.0, 2.0])
        z = ambient_complex(imm2, 0, [math.pi / 2, 0.0])
        assert np.allclose(z, [1j, 2.0], atol=1e-15)

    def test_second_derivative(self):
        imm = make_product_torus([1.0, 1.0])
        d2 = deriv(jet_at(imm, 0, np.zeros(2), 2), (2, 0))[:, 0]
        # d^2/dt_1^2 of Re z_1 = -cos(t_1)|_0 = -1
        assert d2[0] == pytest.approx(-1.0)
        assert d2[1] == pytest.approx(0.0)

    def test_positive_radii_required(self):
        with pytest.raises(ValueError):
            make_product_torus([1.0, 0.0])


class TestPlane:
    def test_second_derivatives_vanish(self):
        imm = make_lagrangian_plane(3)
        jet = jet_at(imm, 0, [0.3, -0.7, 2.0], 2)
        for alpha in jet.space.multi_indices:
            if sum(alpha) == 2:
                assert np.allclose(deriv(jet, alpha)[:, 0], 0.0)


class TestPerturbedWhitney:
    def test_eps_zero_reproduces_whitney(self):
        base = make_whitney_cn(1.0, None, 2)
        pert = make_perturbed_whitney(1.0, 0.0, 1, 2)
        j1 = jet_at(base, 0, [0.3, 0.8], 3)
        j2 = jet_at(pert, 0, [0.3, 0.8], 3)
        for alpha in j1.space.multi_indices:
            assert np.allclose(deriv(j1, alpha)[:, 0], deriv(j2, alpha)[:, 0], atol=1e-12)

    def test_linear_epsilon_continuity(self):
        base = make_whitney_cn(1.0, None, 2)
        j0 = jet_at(base, 0, [0.3, 0.8], 2)

        def dev(eps):
            j = jet_at(make_perturbed_whitney(1.0, eps, 1, 2), 0, [0.3, 0.8], 2)
            return max(
                np.max(np.abs(deriv(j, a)[:, 0] - deriv(j0, a)[:, 0])) for a in j0.space.multi_indices
            )

        d1, d2 = dev(1e-3), dev(1e-4)
        assert d1 < 1e-2
        assert 5 < d1 / d2 < 20  # linear scaling in eps

    def test_amplitude_precondition(self):
        with pytest.raises(ValueError):
            make_perturbed_whitney(1.0, 0.2, 1, 2)

    def test_amplitude_bound_is_scale_free(self):
        """The flow is linear, so r = 0.01 builds with the amplitude r = 1
        takes, and its dilation-invariant gap energy is the same; a large
        body gets no larger amplitude."""
        from lagcheck.quadrature import energy_report, sphere_rule

        rule = sphere_rule(3, 8)
        small = energy_report(make_perturbed_whitney(0.01, 0.05, 1, 3), rule)["entries"]
        unit = energy_report(make_perturbed_whitney(1.0, 0.05, 1, 3), rule)["entries"]
        assert small["int_hhat_n"] == pytest.approx(unit["int_hhat_n"], rel=1e-12)
        with pytest.raises(ValueError):
            make_perturbed_whitney(1000.0, 50.0, 1, 3)

    # sha256 of the order-4 jet coefficients that `make_perturbed_whitney`
    # built when it drew Q from `np.random.default_rng(1000 n + mode)`
    NUMPY_JETS = [
        ((1.0, 0.05, 1, 2), [0], [[0.4, -0.3]], "6f5a6f3dcd53656d693f72a360954ab2e30964a0e96aac4c9bab80093b018365"),
        (
            (1.0, 0.05, 1, 3),
            [0, 1],
            [[0.3, -0.2, 0.5], [-0.6, 0.1, 0.2]],
            "828cbe6479d91ae6473786f1a9d28fadbf0e9dd1d03b07a4cf5ba8cf730bc058",
        ),
        ((1.0, 0.06, 2, 3), [1], [[0.2, 0.7, -0.4]], "0b17db4377c4575ddfdb29f59d1d048de80666cba3cedf1451bd76956c034602"),
    ]

    @pytest.mark.parametrize("args, charts, coords, digest", NUMPY_JETS)
    def test_numpy_reference_is_the_earlier_family(self, args, charts, coords, digest):
        """`reference.numpy_perturbed_whitney` is the family the pinned
        frame-bundle values were computed from, bit for bit."""
        jet = numpy_perturbed_whitney(*args).jets(np.array(charts), np.array(coords), 4)
        assert hashlib.sha256(np.ascontiguousarray(jet.c).tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("mode, n", [(-1, 2), (-1, 3), (-5000, 2), (-5000, 3)])
    def test_negative_mode_is_refused_by_name(self, mode, n):
        """`mode` is a non-negative integer at every n, like the seed it shifts."""
        with pytest.raises(ValueError, match=f"mode must be a non-negative integer, got {mode}"):
            make_perturbed_whitney(1.0, 0.05, mode, n)

    def test_flow_is_symplectic(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(4, 4))
        Q = 0.5 * (M + M.T)
        J = symplectic_j_matrix(2)
        F = expm_series(0.05 * (J @ Q))
        omega = np.zeros((4, 4))
        for k in range(2):
            omega[2 * k, 2 * k + 1] = 1.0
            omega[2 * k + 1, 2 * k] = -1.0
        assert np.allclose(F.T @ omega @ F, omega, atol=1e-13)


class TestComplexLayout:
    """`times_i` and `interleave` move components without multiplying; each
    must give the bits of the constant-matrix contraction it replaces."""

    def test_times_i_matches_j_matrix(self):
        rng = np.random.default_rng(11)
        J = symplectic_j_matrix(4)
        x = rng.normal(size=(8, 5, 7))
        assert times_i(x).tobytes() == np.einsum("cd,d...->c...", J, x).tobytes()
        y = rng.normal(size=(3, 8, 7))
        assert times_i(y, axis=1).tobytes() == np.einsum("cd,id...->ic...", J, y).tobytes()
        jet = Jet(jet_space(3, 2), rng.normal(size=(3, 8, 10, 7)))
        assert times_i(jet, axis=1).c.tobytes() == jet_einsum("cd,id->ic", J, jet).c.tobytes()

    def test_interleave_matches_placement_matrices(self):
        rng = np.random.default_rng(12)
        sp = jet_space(3, 2)
        re, im = (Jet(sp, rng.normal(size=(4, 10, 6))) for _ in range(2))
        place = np.eye(8)
        old = jet_einsum("cj,j->c", place[:, 0::2], re)
        assert interleave(re).c.tobytes() == old.c.tobytes()
        old = old + jet_einsum("cj,j->c", place[:, 1::2], im)
        assert interleave(re, im).c.tobytes() == old.c.tobytes()
        low = interleave(re, im.truncated(1))
        assert low.order == 1 and np.array_equal(low.c, old.c[:, :4])


class TestChartAtlas:
    def test_stereographic_transition_example(self):
        """`normalize` moves a point with |u| > 2 by the transition u / |u|^2
        and leaves a point with |u| <= 2 where it is."""
        atlas = SphereAtlas(2)
        charts, coords = atlas.normalize(np.array([0, 0]), np.array([[4.0, 0.0], [0.5, 0.0]]))
        assert charts.tolist() == [1, 0]
        assert coords.tolist() == [[0.25, 0.0], [0.5, 0.0]]

    def test_roundtrip_identity(self):
        """`from_embedded` inverts `embed` on the points `random` draws, each
        in the chart `from_embedded` picks."""
        atlas = SphereAtlas(3)
        charts, coords = atlas.random(np.random.default_rng(0), 30)
        back, u = atlas.from_embedded(embed(charts, coords))
        assert back.tolist() == charts.tolist()
        assert np.allclose(u, coords, atol=1e-12)

    def test_torus_periodicity(self):
        imm = make_product_torus([1.0, 1.0])
        u = np.array([0.3, 5.0])
        both = imm.jets(0, np.stack([u, u + 2 * math.pi]), 1).value
        assert np.allclose(both[:, 0], both[:, 1], atol=1e-12)

    def test_every_small_point_representable_small(self):
        atlas = SphereAtlas(2)
        coords = np.random.default_rng(3).uniform(-15, 15, size=(50, 2))
        coords = coords[np.linalg.norm(coords, axis=1) < 15]
        _, moved = atlas.normalize(np.zeros(len(coords), dtype=int), coords)
        assert np.all(np.linalg.norm(moved, axis=1) <= 2.0 + 1e-12)

    def test_pole_not_in_overlap(self):
        """The centre u = 0 of chart 0 is the south pole, the pole chart 1
        projects from: `normalize` keeps it in chart 0, and `contains` leaves
        out its neighbourhood |u| >= 16 in chart 1."""
        atlas = SphereAtlas(2)
        charts, coords = atlas.normalize(np.array([0]), np.zeros((1, 2)))
        assert charts.tolist() == [0] and coords.tolist() == [[0.0, 0.0]]
        assert embed(charts, coords).tolist() == [[0.0, 0.0, -1.0]]
        assert not atlas.contains(np.array([1]), np.array([[16.0, 0.0]]))[0]

    def test_sign_is_the_pole_of_embed_and_from_embedded(self):
        """`sign` is +1 in chart 0 and -1 in chart 1; `embed` puts the last
        coordinate at sign (|u|^2 - 1) / (1 + |u|^2), and `from_embedded`
        gives each point the chart whose pole it is farther from, so sign
        and the last coordinate never agree."""
        atlas = SphereAtlas(3)
        assert atlas.sign(0) == 1.0 and atlas.sign(1) == -1.0
        assert atlas.sign(np.array([0, 1, 1, 0])).tolist() == [1.0, -1.0, -1.0, 1.0]
        xs = np.random.default_rng(9).normal(size=(40, 4))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        charts, coords = atlas.from_embedded(xs)
        assert set(charts.tolist()) == {0, 1}
        assert np.all(atlas.sign(charts) * xs[:, 3] < 0)
        s = np.einsum("na,na->n", coords, coords)
        last = embed(charts, coords)[:, 3]
        assert np.array_equal(last, atlas.sign(charts) * ((s - 1.0) / (1.0 + s)))
        assert np.max(np.abs(last - xs[:, 3])) < 1e-15

    def test_embed_roundtrip(self):
        """Points anywhere in either chart embed onto the unit sphere, and
        `from_embedded` names the same points again."""
        atlas = SphereAtlas(3)
        rng = np.random.default_rng(8)
        charts = rng.integers(0, 2, size=20)
        coords = rng.normal(size=(20, 3)) * rng.uniform(0.1, 15.0, size=(20, 1))
        x = embed(charts, coords)
        assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) < 1e-12
        assert np.allclose(embed(*atlas.from_embedded(x)), x, atol=1e-12)

    # sha256 of the (N,) int64 chart ids and the (N, n) coords that
    # `random_points` drew, one ChartPoint at a time, at seed 7, 20 points
    PINNED = {
        "sphere2": (
            "b0afef7e831855e8f2cee5a759e717e8cc0e900ed3ff51b6b940ee75b48d3570",
            "fb9eb4392882cb845821ba290579c86cce8f431f1beeb60e33f93132c16e51e8",
        ),
        "sphere3": (
            "fedd056c39a6075f3b72215b137cc0c4a7fdceaabf5fb426be5409d80f13664f",
            "3a72e892676a5bc5f29835adb513ffd15291a6096ed62e70a8e14e4f021dbd6d",
        ),
        "torus3": (
            "b393978842a0fa3d3e1470196f098f473f9678e72463cb65ec4ab5581856c2e4",
            "5af20bd3f0b2932163007bef8f7d0c000dd2d4e01341aed6e2f80d5bf90d8c9d",
        ),
        "plane2": (
            "b393978842a0fa3d3e1470196f098f473f9678e72463cb65ec4ab5581856c2e4",
            "610c5d926f01a98e10f91df6e7ecf5dcd69695305df1ece025a9903d96415165",
        ),
    }
    # the same from `Draws(7)`, Python's `random.Random(7)` stream
    DRAWS_PINNED = {
        "sphere2": (
            "9a57142ae1e1ee3f17d20798cc76876d0b80b5181d37e5e827883bde34134fbe",
            "cb46eae8470e274b8ef3bd2b4179d6377d8907017621447b151e165d54d67699",
        ),
        "sphere3": (
            "6bbc66d1bf9caac4c3457046acde853d87fd5cfa0448b3c3513b9e495d8398aa",
            "f6682773b3e60799b9ee3a66443a3f3adc03a7c308d505aab8ec58e3b62268f8",
        ),
        "torus3": (
            "b393978842a0fa3d3e1470196f098f473f9678e72463cb65ec4ab5581856c2e4",
            "fc2c835e34b85c8fb6a8d2ffd01a1d742e7bcf07dc230edb52a41961d3083c21",
        ),
        "plane2": (
            "b393978842a0fa3d3e1470196f098f473f9678e72463cb65ec4ab5581856c2e4",
            "38c3a0d4d92c821aa5a0a9a063a97acd343d0ba1f762ab686886634ad3548f84",
        ),
    }
    ATLASES = {
        "sphere2": lambda: SphereAtlas(2),
        "sphere3": lambda: SphereAtlas(3),
        "torus3": lambda: TorusAtlas(3),
        "plane2": lambda: PlaneAtlas(2),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_random_batches_are_pinned(self, name):
        """`random` draws, bit for bit, the points of the per-point sampler it
        replaced from a numpy `Generator`, and the points of Python's stream
        from `Draws`."""
        for draws, pins in ((np.random.default_rng(7), self.PINNED), (Draws(7), self.DRAWS_PINNED)):
            charts, coords = self.ATLASES[name]().random(draws, 20)
            got = tuple(
                hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
                for a in (charts.astype(np.int64), coords)
            )
            assert got == pins[name]

    def test_draws_stream_is_pinned(self):
        """`Draws` is Python's `random.Random(seed)` stream, which Python keeps
        across versions: its uniforms are that stream's `random()` values, and
        its first normals are pinned bit for bit."""
        stream = random.Random(7)
        assert Draws(7).uniform(0.0, 1.0, size=3).tolist() == [stream.random() for _ in range(3)]
        assert [float(x).hex() for x in Draws(7).normal(size=5)] == [
            "0x1.0846ee6dd60b4p-1",
            "0x1.6fdb93bb7a443p-1",
            "0x1.4d9c53e57c06dp+0",
            "0x1.4689863562acap-1",
            "-0x1.a5961533db861p-1",
        ]
        assert Draws(7).normal(size=(2, 3)).ravel().tolist() == Draws(7).normal(size=6).tolist()

    def test_draws_refuse_a_negative_seed(self):
        """`random.Random` would draw the stream of -seed, so the two would share one."""
        with pytest.raises(ValueError, match="non-negative"):
            Draws(-1)

    def test_normalize_moves_exactly_the_far_rows(self):
        """On the sphere `normalize` moves the rows with |u| > 2, and only
        them, to the other chart, and every row keeps its embedded point to
        1e-15; on the torus and the plane it moves nothing."""
        atlas = SphereAtlas(3)
        rng = np.random.default_rng(21)
        charts = rng.integers(0, 2, size=60)
        coords = rng.normal(size=(60, 3)) * rng.uniform(0.0, 6.0, size=(60, 1))
        far = np.linalg.norm(coords, axis=1) > SPHERE_SWITCH_RADIUS
        assert 0 < far.sum() < 60
        moved_charts, moved = atlas.normalize(charts, coords)
        assert np.array_equal(moved_charts != charts, far)
        assert np.array_equal(np.any(moved != coords, axis=1), far)
        assert np.max(np.abs(embed(moved_charts, moved) - embed(charts, coords))) <= 1e-15
        for flat in (TorusAtlas(3), PlaneAtlas(3)):
            same = flat.normalize(np.zeros(60, dtype=int), coords)
            assert same[0].tolist() == [0] * 60 and same[1] is coords

    def test_contains_masks_a_mixed_batch(self):
        sphere, plane = SphereAtlas(2), PlaneAtlas(2)
        charts = np.array([0, 2, 1, 1, 0])
        coords = np.array([[0.5, 0.1], [0.5, 0.1], [16.0, 0.0], [3.0, -15.0], [15.9, 0.0]])
        assert sphere.contains(charts, coords).tolist() == [True, False, False, True, True]
        assert plane.contains(charts, coords).tolist() == [True, False, False, False, True]


# one config per family of `cli.FAMILIES`, and whether its body is closed
FAMILY_BODIES = {
    "whitney_cn": ({"r": 1.0, "n": 3}, True),
    "product_torus": ({"radii": [1.0, 2.0]}, True),
    "lagrangian_plane": ({"n": 2}, False),
    "nonlagrangian_plane": ({"n": 2}, False),
    "perturbed_whitney": ({"eps": 0.05, "n": 2}, True),
    "whitney_cpn": ({"theta": 0.7, "n": 2}, True),
    "rpn": ({"n": 2}, True),
    "cpn_torus": ({"moduli": [1.0, 1.0, 1.0]}, True),
}


class TestDomain:
    """Whether a body is closed is read off its atlas alone."""

    def test_every_family_is_covered(self):
        assert sorted(FAMILY_BODIES) == sorted(FAMILIES)

    @pytest.mark.parametrize("family", sorted(FAMILY_BODIES))
    def test_compact_is_the_atlas_domain(self, family):
        params, closed = FAMILY_BODIES[family]
        imm = FAMILIES[family](params)
        assert imm.compact is closed is (imm.atlas.domain is not None)
        moved = linear_image(imm, 2.0 * np.eye(2 * imm.ambient_complex_dim))
        assert moved.atlas is imm.atlas and moved.compact is closed

    def test_black_box_on_plane_and_sphere_atlases(self):
        def fn(chart_id, x):
            return np.array([x[0], 0.0, x[1], 0.0])

        assert make_black_box(fn, 2).compact is False
        assert make_black_box(fn, 2, atlas=PlaneAtlas(2)).compact is False
        assert make_black_box(fn, 2, atlas=SphereAtlas(2)).compact is True

    def test_compact_is_neither_a_field_nor_settable(self):
        """The domain and the dimensions are read off the atlas and the
        ambient, so no family can state them at odds with its atlas."""
        imm = make_whitney_cn(1.0, None, 2)
        for name in ("compact", "source_dim", "ambient_complex_dim"):
            with pytest.raises(AttributeError):
                setattr(imm, name, 5)
            with pytest.raises(TypeError):
                Immersion("plane", AMBIENT_CN, {}, PlaneAtlas(2), imm.jet_fn, **{name: 2})

    @pytest.mark.parametrize("family", sorted(FAMILY_BODIES))
    def test_dimensions_are_read_off_the_atlas(self, family):
        imm = FAMILIES[family](FAMILY_BODIES[family][0])
        n = imm.atlas.n
        assert imm.source_dim == n
        assert imm.ambient_complex_dim == (n + 1 if imm.ambient == AMBIENT_SPHERE else n)
        assert imm.jets(0, np.full((1, n), 0.3), 1).shape == (2 * imm.ambient_complex_dim,)

    def test_black_box_refuses_an_atlas_of_another_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            make_black_box(lambda chart_id, x: np.zeros(4), 2, atlas=SphereAtlas(3))

    def test_random_sphere_points_have_python_int_charts(self):
        """`random` gives integer chart ids, which a report writes as
        Python ints."""
        from lagcheck.identities import run_identity_suite

        charts, coords = SphereAtlas(2).random(np.random.default_rng(2), 40)
        assert charts.dtype.kind == "i" and set(charts.tolist()) == {0, 1}
        doc = run_identity_suite(make_whitney_cn(1.0, None, 2), charts, coords, heavy=False)
        assert {type(p["chart_id"]) for p in doc["sample_points"]} == {int}


class TestEvalJet:
    @pytest.mark.parametrize("family", sorted(FAMILY_BODIES))
    def test_batch_jets_equal_per_point_eval_jet(self, family):
        """`Immersion.jets` on one batch that mixes charts gives, point by
        point, the jet of each point alone, a batch of one."""
        imm = FAMILIES[family](FAMILY_BODIES[family][0])
        charts, coords = imm.atlas.normalize(*imm.atlas.random(np.random.default_rng(31), 12))
        assert set(charts.tolist()) == ({0, 1} if isinstance(imm.atlas, SphereAtlas) else {0})
        batch = imm.jets(charts, coords, 3)
        for b, (chart, u) in enumerate(zip(charts, coords)):
            single = jet_at(imm, chart, u, 3).c[..., 0]
            assert np.allclose(batch.c[..., b], single, rtol=1e-14, atol=1e-14 * np.max(np.abs(single)))

    def test_chart_consistency_of_values(self):
        imm = make_whitney_cn(1.0, None, 2)
        rng = np.random.default_rng(11)
        for _ in range(10):
            u = rng.uniform(0.6, 1.8) * _unit(rng, 2)
            assert np.allclose(point(imm, 0, u), point(imm, 1, u / np.dot(u, u)), atol=1e-10)

    def test_mixed_partials_commute(self):
        imm = make_whitney_cn(1.0, None, 3)
        jets = jet_at(imm, 0, [0.2, -0.5, 0.9], 3)
        for j in jets[:4]:
            d01 = j.partial(0).partial(1).value
            d10 = j.partial(1).partial(0).value
            assert np.allclose(d01, d10, atol=1e-15)

    def test_jet_symmetry_all_families(self):
        """Mixed partials commute exactly on every built-in family, and
        order-3 partials agree under every index permutation."""
        from itertools import permutations

        families = [
            make_whitney_cn(1.0, None, 2),
            make_product_torus([1.0, 2.0]),
            make_lagrangian_plane(2),
            make_perturbed_whitney(1.0, 0.05, 1, 2),
        ]
        for imm in families:
            rng = np.random.default_rng(123)
            j = imm.jets(*imm.atlas.normalize(*imm.atlas.random(rng, 100)), 3)[0]
            assert np.allclose(j.partial(0).partial(1).value, j.partial(1).partial(0).value, atol=0)
            vals = [j.partial(a).partial(b).partial(c).value for (a, b, c) in permutations((0, 1, 0))]
            for v in vals[1:]:
                assert np.allclose(v, vals[0], atol=0)


TAYLOR_BODIES = {
    "whitney_cn_offset": make_whitney_cn(1.3, np.array([0.3 + 0.2j, -0.1 + 0.4j, 0.25 - 0.3j]), 3),
    "product_torus": make_product_torus([1.0, 2.0, 0.5]),
    "lagrangian_plane": make_lagrangian_plane(3),
    "nonlagrangian_plane": make_nonlagrangian_plane(3),
    "perturbed_whitney": make_perturbed_whitney(1.0, 0.05, 1, 3),
    "whitney_cpn": make_whitney_cpn(0.7, 3),
    "rpn": make_rpn(3),
    "phase_twist": phase_twist(make_whitney_cpn(0.7, 3), [0.4, -0.7, 0.2]),
}


@pytest.mark.parametrize("name", sorted(TAYLOR_BODIES))
def test_order4_taylor_polynomial_predicts_nearby_points(name):
    """Oracle independent of jet arithmetic: the order-4 jet's Taylor
    polynomial predicts the value at p + t v with an O(t^5) remainder, so
    halving t shrinks the error by about 32; the planes are linear and the
    CP^n representatives of the Whitney sphere and RP^n chart polynomials of
    degree 4 and 2, so those are predicted exactly."""
    imm = TAYLOR_BODIES[name]
    rng = np.random.default_rng(17)
    for chart, u in zip(*imm.atlas.normalize(*imm.atlas.random(rng, 3))):
        jet = jet_at(imm, chart, u, 4)
        coef, alphas = jet.c[..., 0], jet.space.multi_indices  # Taylor coefficients at u
        for v in rng.normal(size=(2, imm.source_dim)):
            v /= np.linalg.norm(v)
            err = []
            for t in (1e-2, 5e-3):
                taylor = coef @ np.prod((t * v) ** alphas, axis=1)
                err.append(np.max(np.abs(taylor - point(imm, chart, u + t * v))))
            if name.endswith("plane") or name in ("whitney_cpn", "rpn"):
                assert max(err) < 1e-14
            else:
                assert err[0] < 1e-6
                assert err[0] > 20 * err[1]


class TestLinearImages:
    def test_unitary_is_orthogonal_and_commutes_with_j(self):
        rng = np.random.default_rng(2)
        U = random_unitary(3, rng)
        R = complex_to_real_matrix(U)
        assert np.allclose(R.T @ R, np.eye(6), atol=1e-12)
        J = symplectic_j_matrix(3)
        assert np.allclose(R @ J, J @ R, atol=1e-12)


class TestBlackBoxFallback:
    def test_matches_analytic_torus_jets(self):
        analytic = make_product_torus([1.0, 2.0])

        def fn(chart_id, x):
            return np.array([np.cos(x[0]), np.sin(x[0]), 2 * np.cos(x[1]), 2 * np.sin(x[1])])

        bb = make_black_box(fn, 2, atlas=analytic.atlas, name="bb_torus")
        ja = jet_at(analytic, 0, [0.7, 1.9], 2)
        jb = jet_at(bb, 0, [0.7, 1.9], 2)
        for alpha in ja.space.multi_indices:
            rung = 1e-9 if sum(alpha) == 0 else (1e-8 if sum(alpha) == 1 else 1e-5)
            assert np.allclose(deriv(ja, alpha)[:, 0], deriv(jb, alpha)[:, 0], atol=rung)


class TestConfig:
    def test_json_and_keyvalue(self, tmp_path):
        """A config is one JSON object; key=value lines are refused, not parsed."""
        path = tmp_path / "c.cfg"
        path.write_text('{"family": "whitney_cn", "r": 2.0, "n": 3}')
        assert build_immersion(load_config(str(path)), "identities").params["r"] == 2.0
        path.write_text("family=product_torus\nradii=[1.0, 2.0]\n")
        with pytest.raises(ConfigError, match="cannot parse config"):
            load_config(str(path))

    def test_complex_offset(self):
        imm = build_immersion({"family": "whitney_cn", "r": 1.0, "n": 2, "A": [[1.0, 2.0], [0.0, 0.0]]}, "energy")
        assert imm.params["A"][0] == 1.0 + 2.0j

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            build_immersion({"family": "mystery"}, "identities")

    def test_parse_errors(self, tmp_path):
        """Anything but one JSON object is refused: a stray line, an array, a number, a string."""
        path = tmp_path / "c.cfg"
        for text in ("not a config line", "[1, 2]", "3", '"family"'):
            path.write_text(text)
            with pytest.raises(ConfigError):
                load_config(str(path))


def _unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)
