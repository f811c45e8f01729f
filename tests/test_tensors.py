import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagcheck.tensors import (
    CubicSymTensor,
    SymTraceFree2,
    VectorField1,
    c_tensor,
    c_tensor_array,
    contraction_identity_suite,
    _contraction_suite_loops,
    li_li_batch_margin,
    li_li_check,
    norm_identity_residual,
    random_cubic,
    random_tracefree,
    spectral_summary,
    tracefree_part,
    trisym_residual,
    trisymmetrize,
)


class TestCubicSymTensor:
    def test_trisymmetrized_random_always_accepted(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 5):
            for _ in range(20):
                CubicSymTensor(trisymmetrize(rng.normal(size=(n, n, n))))

    def test_rejects_asymmetric(self):
        a = np.zeros((2, 2, 2))
        a[0, 0, 1] = 1.0
        with pytest.raises(ValueError):
            CubicSymTensor(a)


class TestCTensor:
    def test_n2_values(self):
        c = c_tensor(VectorField1([1.0, 0.0]))
        assert c.entries[0, 0, 0] == pytest.approx(1.5)
        assert c.entries[0, 1, 1] == pytest.approx(0.5)
        assert c.entries[1, 0, 1] == pytest.approx(0.5)

    def test_zero_mean_curvature(self):
        c = c_tensor(VectorField1(np.zeros(3)))
        assert np.all(c.entries == 0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_trace_is_n_H(self, n):
        rng = np.random.default_rng(n)
        H = rng.normal(size=n)
        c = c_tensor_array(H)
        assert np.allclose(np.einsum("mii->m", c), n * H, atol=1e-13)

    def test_output_trisymmetric_exactly(self):
        H = np.array([0.3, -1.2, 0.5])
        assert trisym_residual(c_tensor_array(H)) == 0.0


class TestTracefreePart:
    def test_umbilic_case_gives_zero(self):
        H = VectorField1([0.4, -0.7])
        c = c_tensor(H)
        hhat = tracefree_part(c, H)
        assert np.allclose(hhat.entries, 0.0, atol=1e-14)

    def test_torus_closed_form(self):
        # flat square torus: h has two unit diagonal entries, H = (1/2, 1/2)
        h = np.zeros((2, 2, 2))
        h[0, 0, 0] = 1.0
        h[1, 1, 1] = 1.0
        H = VectorField1([0.5, 0.5])
        hhat = tracefree_part(CubicSymTensor(h), H)
        assert hhat.entries[0, 0, 0] == pytest.approx(0.25)
        assert hhat.entries[0, 1, 1] == pytest.approx(-0.25)
        assert hhat.entries[1, 0, 1] == pytest.approx(-0.25)
        assert hhat.entries[1, 1, 1] == pytest.approx(0.25)
        assert hhat.norm_sq() == pytest.approx(0.5)

    def test_trace_free_everywhere(self):
        rng = np.random.default_rng(1)
        for n in (2, 4):
            h, H = random_cubic(rng, n)
            hhat = tracefree_part(h, H)
            assert np.max(np.abs(np.einsum("mii->m", hhat.entries))) < 1e-10

    def test_idempotent_on_tracefree(self):
        rng = np.random.default_rng(2)
        hhat = random_tracefree(rng, 3)
        again = tracefree_part(hhat, VectorField1(np.zeros(3)))
        assert np.allclose(again.entries, hhat.entries, atol=1e-14)

    def test_inconsistent_pair_rejected(self):
        rng = np.random.default_rng(3)
        h, H = random_cubic(rng, 2)
        with pytest.raises(ValueError):
            tracefree_part(h, VectorField1(H.components + 1.0))

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_norm_identity(self, n, seed):
        h, H = random_cubic(np.random.default_rng(seed), n)
        assert norm_identity_residual(h, H) < 1e-12

    def test_norm_identity_thousand_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            h, H = random_cubic(rng, int(rng.integers(2, 6)))
            assert norm_identity_residual(h, H) < 1e-12


class TestContractionSuite:
    def test_zero_tensor(self):
        res = contraction_identity_suite(
            CubicSymTensor(np.zeros((3, 3, 3))), VectorField1(np.random.default_rng(0).normal(size=3))
        )
        assert all(v < 1e-14 for v in res.values())

    def test_zero_mean_curvature(self):
        rng = np.random.default_rng(4)
        hhat = random_tracefree(rng, 3)
        res = contraction_identity_suite(hhat, VectorField1(np.zeros(3)))
        assert all(v < 1e-12 for v in res.values())

    @pytest.mark.parametrize("n", [2, 3])
    def test_einsum_against_literal_loops(self, n):
        """The nested-loop evaluation is the oracle for the einsum subscripts."""
        rng = np.random.default_rng(10 + n)
        hhat = random_tracefree(rng, n)
        H = VectorField1(rng.normal(size=n))
        hh, c = hhat.entries, c_tensor_array(H.components)
        loops = _contraction_suite_loops(hhat, H)
        einsums = {
            "hhhc_cyclic": np.einsum("mij,mkl,tlj,tik->", hh, hh, hh, c),
            "hhhc_trace": np.einsum("mij,mkl,tlk,tij->", hh, hh, hh, c),
            "hhcc_cyclic": np.einsum("mij,mkl,tlj,tik->", hh, hh, c, c),
            "hhcc_trace": np.einsum("mij,mkl,tlk,tij->", hh, hh, c, c),
            "hhhc_mixed": np.einsum("mij,mli,tlk,tkj->", hh, hh, hh, c),
            "hhcc_mixed": np.einsum("mij,mli,tlk,tkj->", hh, hh, c, c),
            "hhcH_mixed": n * np.einsum("mij,mli,tlj,t->", hh, hh, c, H.components),
        }
        for name, val in einsums.items():
            assert val == pytest.approx(loops[name], abs=1e-10, rel=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_identities_hold_on_random_data(self, n):
        rng = np.random.default_rng(100 + n)
        worst = 0.0
        for _ in range(50):
            hhat = random_tracefree(rng, n)
            H = VectorField1(rng.normal(size=n))
            worst = max(worst, max(contraction_identity_suite(hhat, H).values()))
        assert worst < 1e-10

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(7)
        n = 4
        hhat = random_tracefree(rng, n)
        H = VectorField1(rng.normal(size=n))
        base = contraction_identity_suite(hhat, H)
        M = rng.normal(size=(n, n))
        Q, _ = np.linalg.qr(M)
        hh_rot = np.einsum("am,bi,cj,abc->mij", Q, Q, Q, hhat.entries)
        H_rot = Q.T @ H.components
        rot = contraction_identity_suite(CubicSymTensor(hh_rot), VectorField1(H_rot))
        for k in base:
            assert rot[k] < 1e-10
        # the invariant scalars themselves agree
        assert np.einsum("mij,mij->", hh_rot, hh_rot) == pytest.approx(hhat.norm_sq(), abs=1e-10)

    def test_non_tracefree_rejected(self):
        rng = np.random.default_rng(8)
        h, H = random_cubic(rng, 3)
        with pytest.raises(ValueError):
            contraction_identity_suite(h, H)


class TestLiLi:
    def test_zero_matrices(self):
        lhs, rhs = li_li_check([np.zeros((2, 2)), np.zeros((2, 2))])
        assert lhs == 0 and rhs == 0

    def test_identity_pair_example(self):
        lhs, rhs = li_li_check([np.eye(2), np.eye(2)])
        assert lhs == pytest.approx(16.0)
        assert rhs == pytest.approx(24.0)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            li_li_check([np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)])
        with pytest.raises(ValueError):
            li_li_check([np.eye(2)])

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=100_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_inequality_random(self, n, m, seed):
        rng = np.random.default_rng(seed)
        Bs = [0.5 * (M + M.T) for M in rng.normal(size=(m, n, n))]
        lhs, rhs = li_li_check(Bs)
        assert lhs <= rhs + 1e-12

    def test_batch_path_matches_scalar(self):
        rng = np.random.default_rng(9)
        Ms = rng.normal(size=(6, 3, 4, 4))
        Bs = 0.5 * (Ms + np.transpose(Ms, (0, 1, 3, 2)))
        margins = li_li_batch_margin(Bs)
        for t in range(6):
            lhs, rhs = li_li_check(list(Bs[t]))
            assert margins[t] == pytest.approx(rhs - lhs, abs=1e-10)


class TestSpectralSummary:
    def test_zero_cases(self):
        rng = np.random.default_rng(11)
        hhat = random_tracefree(rng, 3)
        s = spectral_summary(hhat, VectorField1(np.zeros(3)))
        assert np.allclose(s.lambdas, 0.0)
        assert s.s_h == 0.0
        zero = spectral_summary(CubicSymTensor(np.zeros((3, 3, 3))), VectorField1(rng.normal(size=3)))
        assert np.allclose(zero.lambdas, 0.0)
        assert np.allclose(zero.s_istar, 0.0)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_sh_matches_brute_force(self, n):
        rng = np.random.default_rng(20 + n)
        hhat = random_tracefree(rng, n)
        H = VectorField1(rng.normal(size=n))
        s = spectral_summary(hhat, H)
        brute = np.einsum("lji,l->ji", hhat.entries, H.components)
        assert s.s_h == pytest.approx(float(np.sum(brute**2)), abs=1e-10)
        assert float(np.sum(s.s_istar)) == pytest.approx(hhat.norm_sq(), abs=1e-10)


class TestSymTraceFree2:
    def test_accepts_tracefree_symmetric(self):
        SymTraceFree2(np.array([[0.5, 0.2], [0.2, -0.5]]))

    def test_rejects_trace(self):
        with pytest.raises(ValueError):
            SymTraceFree2(np.eye(2))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymTraceFree2(np.array([[0.0, 1.0], [-1.0, 0.0]]))
