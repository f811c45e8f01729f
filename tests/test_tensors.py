from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagcheck.geometry import _trace, _tracefree
from lagcheck.tensors import c_tensor_array, spectral_summary, symmetry_residual
from reference import (
    _contraction_suite_loops,
    contraction_identity_suite,
    li_li_batch_margin,
    li_li_check,
    norm_identity_residual,
    random_cubic,
    random_tracefree,
    spectral_summary_rotation,
    symmetry_residual_loops,
    trisym_violations,
    trisymmetrize,
)


class TestCubicSymTensor:
    """Full symmetry of cubic arrays, as `trisym_violations` judges it."""

    def test_trisymmetrized_random_always_accepted(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 5):
            for _ in range(20):
                assert not trisym_violations(trisymmetrize(rng.normal(size=(n, n, n))))

    def test_rejects_asymmetric(self):
        a = np.zeros((2, 2, 2))
        a[0, 0, 1] = 1.0
        assert trisym_violations(a)


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal bit for bit, except that any NaN matches any NaN."""
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


class TestSymmetryResidual:
    """The spread of each index orbit against the loop over every
    permutation, bit for bit."""

    @pytest.mark.parametrize("rank", [3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_the_permutation_loop(self, rank, n):
        rng = np.random.default_rng(10 * rank + n)
        shape = (n,) * rank + (7,)
        random = rng.normal(size=shape)
        sym = np.mean([np.transpose(random, perm + (rank,)) for perm in permutations(range(rank))], axis=0)
        nearly = sym + np.where(rng.random(shape) < 0.2, 1e-15 * rng.normal(size=shape), 0.0)
        special = sym.copy()
        special[(0,) * rank + (0,)] = np.inf  # an orbit of one entry
        special[(1,) + (0,) * (rank - 1) + (1,)] = -np.inf  # an orbit of several
        special[(1,) + (0,) * (rank - 1) + (2,)] = np.nan
        special[..., 3] = np.where(random[..., 3] > 0, 1e308, -1e308)  # the spread overflows to inf
        special[..., 4] = np.where(random[..., 4] > 0, 1e308, 9e307)
        special[..., 5] = np.where(random[..., 5] > 0, 0.0, -0.0)  # signed zeros spread by +0.0, as |0 - -0|
        for a in (random, sym, nearly, special):
            with np.errstate(invalid="ignore", over="ignore"):
                got, want = symmetry_residual(a, rank), symmetry_residual_loops(a, rank)
                assert same_bits(symmetry_residual(a[..., 6], rank), symmetry_residual_loops(a[..., 6], rank))
            assert got.shape == (7,) and same_bits(got, want)
        assert np.isnan(got[:3]).all() and got[3] == np.inf and np.isfinite(got[4])
        assert got[5] == 0.0 and not np.signbit(got[5])


class TestCTensor:
    def test_n2_values(self):
        c = c_tensor_array([1.0, 0.0])
        assert c[0, 0, 0] == pytest.approx(1.5)
        assert c[0, 1, 1] == pytest.approx(0.5)
        assert c[1, 0, 1] == pytest.approx(0.5)

    def test_zero_mean_curvature(self):
        c = c_tensor_array(np.zeros(3))
        assert np.all(c == 0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_trace_is_n_H(self, n):
        rng = np.random.default_rng(n)
        H = rng.normal(size=n)
        c = c_tensor_array(H)
        assert np.allclose(np.einsum("mii->m", c), n * H, atol=1e-13)

    def test_output_trisymmetric_exactly(self):
        H = np.array([0.3, -1.2, 0.5])
        assert symmetry_residual(c_tensor_array(H), 3) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("batch", [(), (7,), (4, 7)])
    def test_matches_the_explicit_sum(self, n, batch):
        """The operator form agrees with the three delta terms written out,
        on a single H and on batched (n, B) and (n, k, B) stacks."""
        H = np.random.default_rng(n).normal(size=(n, *batch))
        eye = np.eye(n)
        explicit = (n / (n + 2.0)) * (
            np.einsum("m...,ij->mij...", H, eye)
            + np.einsum("i...,jm->mij...", H, eye)
            + np.einsum("j...,im->mij...", H, eye)
        )
        got = c_tensor_array(H)
        assert got.shape == (n, n, n, *batch)
        np.testing.assert_array_max_ulp(got, explicit, maxulp=1)


class TestTracefreePart:
    """`geometry._trace` and `_tracefree`, the engine's one trace decomposition,
    on single cubic arrays."""

    def test_umbilic_case_gives_zero(self):
        H = np.array([0.4, -0.7])
        hhat = _tracefree(c_tensor_array(H))
        assert np.allclose(hhat, 0.0, atol=1e-14)

    def test_torus_closed_form(self):
        # flat square torus: h has two unit diagonal entries, H = (1/2, 1/2)
        h = np.zeros((2, 2, 2))
        h[0, 0, 0] = 1.0
        h[1, 1, 1] = 1.0
        assert np.array_equal(_trace(h), [0.5, 0.5])
        hhat = _tracefree(h)
        assert hhat[0, 0, 0] == pytest.approx(0.25)
        assert hhat[0, 1, 1] == pytest.approx(-0.25)
        assert hhat[1, 0, 1] == pytest.approx(-0.25)
        assert hhat[1, 1, 1] == pytest.approx(0.25)
        assert np.sum(hhat**2) == pytest.approx(0.5)

    def test_trace_free_everywhere(self):
        rng = np.random.default_rng(1)
        for n in (2, 4):
            h, _ = random_cubic(rng, n)
            hhat = _tracefree(h)
            assert np.max(np.abs(np.einsum("mii->m", hhat))) < 1e-10

    def test_idempotent_on_tracefree(self):
        rng = np.random.default_rng(2)
        hhat = random_tracefree(rng, 3)
        again = _tracefree(hhat)
        assert np.allclose(again, hhat, atol=1e-14)

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_norm_identity(self, n, seed):
        h, _ = random_cubic(np.random.default_rng(seed), n)
        assert norm_identity_residual(h) < 1e-12

    def test_norm_identity_thousand_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            h, _ = random_cubic(rng, int(rng.integers(2, 6)))
            assert norm_identity_residual(h) < 1e-12


class TestContractionSuite:
    def test_zero_tensor(self):
        res = contraction_identity_suite(np.zeros((3, 3, 3)), np.random.default_rng(0).normal(size=3))
        assert all(v < 1e-14 for v in res.values())

    def test_zero_mean_curvature(self):
        rng = np.random.default_rng(4)
        hhat = random_tracefree(rng, 3)
        res = contraction_identity_suite(hhat, np.zeros(3))
        assert all(v < 1e-12 for v in res.values())

    @pytest.mark.parametrize("n", [2, 3])
    def test_einsum_against_literal_loops(self, n):
        """The nested-loop evaluation is the oracle for the einsum subscripts."""
        rng = np.random.default_rng(10 + n)
        hhat = random_tracefree(rng, n)
        H = rng.normal(size=n)
        hh, c = hhat, c_tensor_array(H)
        loops = _contraction_suite_loops(hhat, H)
        einsums = {
            "hhhc_cyclic": np.einsum("mij,mkl,tlj,tik->", hh, hh, hh, c),
            "hhhc_trace": np.einsum("mij,mkl,tlk,tij->", hh, hh, hh, c),
            "hhcc_cyclic": np.einsum("mij,mkl,tlj,tik->", hh, hh, c, c),
            "hhcc_trace": np.einsum("mij,mkl,tlk,tij->", hh, hh, c, c),
            "hhhc_mixed": np.einsum("mij,mli,tlk,tkj->", hh, hh, hh, c),
            "hhcc_mixed": np.einsum("mij,mli,tlk,tkj->", hh, hh, c, c),
            "hhcH_mixed": n * np.einsum("mij,mli,tlj,t->", hh, hh, c, H),
        }
        for name, val in einsums.items():
            assert val == pytest.approx(loops[name], abs=1e-10, rel=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_identities_hold_on_random_data(self, n):
        rng = np.random.default_rng(100 + n)
        worst = 0.0
        for _ in range(50):
            hhat = random_tracefree(rng, n)
            H = rng.normal(size=n)
            worst = max(worst, max(contraction_identity_suite(hhat, H).values()))
        assert worst < 1e-10

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(7)
        n = 4
        hhat = random_tracefree(rng, n)
        H = rng.normal(size=n)
        base = contraction_identity_suite(hhat, H)
        M = rng.normal(size=(n, n))
        Q, _ = np.linalg.qr(M)
        hh_rot = np.einsum("am,bi,cj,abc->mij", Q, Q, Q, hhat)
        H_rot = Q.T @ H
        rot = contraction_identity_suite(hh_rot, H_rot)
        for k in base:
            assert rot[k] < 1e-10
        # the invariant scalars themselves agree
        assert np.einsum("mij,mij->", hh_rot, hh_rot) == pytest.approx(np.sum(hhat**2), abs=1e-10)

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
        lam, _ = spectral_summary(hhat, np.zeros(3))
        assert np.allclose(lam, 0.0)
        assert np.sum(lam**2, axis=0) == 0.0
        zero_lam, zero_s = spectral_summary(np.zeros((3, 3, 3)), rng.normal(size=3))
        assert np.allclose(zero_lam, 0.0)
        assert np.allclose(zero_s, 0.0)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_sh_matches_brute_force(self, n):
        rng = np.random.default_rng(20 + n)
        hhat = random_tracefree(rng, n)
        H = rng.normal(size=n)
        lam, s_istar = spectral_summary(hhat, H)
        brute = np.einsum("lji,l->ji", hhat, H)
        assert np.sum(lam**2, axis=0) == pytest.approx(float(np.sum(brute**2)), abs=1e-10)
        assert float(np.sum(s_istar)) == pytest.approx(np.sum(hhat**2), abs=1e-10)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_one_slot_matches_the_full_rotation(self, n):
        """Rotating the first slot only gives the S_{i*} of the three-slot
        rotation to 1e-13 of |hhat|^2, and the same eigenvalues, on a batch;
        the norms are sums of squares, so never negative."""
        rng = np.random.default_rng(40 + n)
        hhat = np.stack([random_tracefree(rng, n) for _ in range(9)], axis=-1)
        H = rng.normal(size=(n, 9))
        lam, s_istar = spectral_summary(hhat, H)
        want_lam, want_s = spectral_summary_rotation(hhat, H)
        assert lam.shape == s_istar.shape == (n, 9)
        assert np.array_equal(lam, want_lam)
        assert np.all(np.abs(s_istar - want_s) <= 1e-13 * np.sum(hhat**2, axis=(0, 1, 2)))
        assert np.all(s_istar >= 0.0)

    def test_zero_and_overflow_agree_with_the_full_rotation(self):
        """Both forms give zero norms on a zero hhat, zero eigenvalues on a
        zero H, and NaN where M overflows."""
        rng = np.random.default_rng(12)
        hhat = np.stack([random_tracefree(rng, 3), np.zeros((3, 3, 3)), 1e200 * random_tracefree(rng, 3)], axis=-1)
        H = np.stack([np.zeros(3), rng.normal(size=3), 1e200 * rng.normal(size=3)], axis=-1)
        lam, s_istar = spectral_summary(hhat, H)
        want_lam, want_s = spectral_summary_rotation(hhat, H)
        assert np.array_equal(lam, want_lam, equal_nan=True)
        assert np.all(lam[:, 0] == 0.0) and np.all(s_istar[:, 1] == 0.0) and np.all(want_s[:, 1] == 0.0)
        assert np.all(np.isnan(s_istar[:, 2])) and np.all(np.isnan(want_s[:, 2])) and np.all(np.isnan(lam[:, 2]))
        assert np.all(np.abs(s_istar[:, 0] - want_s[:, 0]) <= 1e-13 * np.sum(hhat[..., 0] ** 2))
        assert np.all(s_istar[:, :2] >= 0.0)
