"""Symmetric cubic tensors, trace decomposition, and the algebraic identity suite.

Functions on plain arrays: the fully symmetric (n, n, n) arrays that carry
the second fundamental form of a Lagrangian submanifold, the umbilic-type
tensor built from the (n,) mean curvature vector, and brute-force checks of
the contraction identities used by the Simons-type estimate.

Bulk random suites contract with np.einsum on fixed subscripts that mirror
the index expressions; a literal nested-loop evaluator is kept as the
independent oracle for those contractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import permutations

import numpy as np

TRISYM_TOL = 1e-9


def symmetry_residual(a: np.ndarray, rank: int) -> np.ndarray:
    """Max deviation of `a` from full symmetry in its first `rank` axes, one
    value per entry of the trailing (batch) axes."""
    axes = tuple(range(rank))
    rest = tuple(range(rank, a.ndim))
    return np.max(
        [np.max(np.abs(np.transpose(a, perm + rest) - a), axis=axes) for perm in permutations(axes)],
        axis=0,
    )


def trisym_violations(a: np.ndarray, tol: float = TRISYM_TOL) -> np.ndarray:
    """Where a rank-3 array (n, n, n, ...) fails full symmetry by more than
    `tol` times max(1, max |a|), per entry of the trailing axes."""
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(0, 1, 2)))
    return symmetry_residual(a, 3) > tol * scale


def trisymmetrize(a: np.ndarray) -> np.ndarray:
    out = np.zeros_like(a, dtype=float)
    for perm in permutations(range(3)):
        out += np.transpose(a, perm)
    return out / 6.0


# ---------------------------------------------------------------------------
# Trace decomposition
# ---------------------------------------------------------------------------


@cache
def _c_operator(n: int) -> np.ndarray:
    """The (n^3, n) matrix of d_mk d_ij + d_ik d_jm + d_jk d_im, rows (m, i, j)
    and columns k: integer entries, so H through it is the explicit sum."""
    eye = np.eye(n)
    op = (
        np.einsum("mk,ij->mijk", eye, eye)
        + np.einsum("ik,jm->mijk", eye, eye)
        + np.einsum("jk,im->mijk", eye, eye)
    ).reshape(n**3, n)
    op.flags.writeable = False
    return op


def c_tensor_array(H: np.ndarray) -> np.ndarray:
    """Umbilic-type tensor n/(n+2) (H^m d_ij + H^i d_jm + H^j d_im).

    Works on batched H of shape (n, ...) as well: one product with a
    constant operator over all trailing axes at once.
    """
    H = np.asarray(H, dtype=float)
    n = H.shape[0]
    c = _c_operator(n) @ H.reshape(n, -1)
    c *= n / (n + 2.0)
    return c.reshape((n, n, n) + H.shape[1:])


def tracefree_part(h: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Subtract the umbilic part; result is trace-free in every index pair."""
    h, H = np.asarray(h, dtype=float), np.asarray(H, dtype=float)
    if h.shape[0] != len(H):
        raise ValueError("dimension mismatch")
    if np.max(np.abs(np.einsum("mii->m", h) / len(H) - H)) > 1e-10 * max(1.0, float(np.max(np.abs(H)))):
        raise ValueError("H is not the trace of h divided by n")
    return h - c_tensor_array(H)


def norm_identity_residual(h: np.ndarray, H: np.ndarray) -> float:
    """| |hhat|^2 - |h|^2 + 3n^2/(n+2) |H|^2 |."""
    n = len(H)
    hhat = tracefree_part(h, H)
    return abs(float(np.sum(hhat**2) - np.sum(h**2) + 3.0 * n * n / (n + 2.0) * np.dot(H, H)))


def random_cubic(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Random fully symmetric h with its trace vector H = (1/n) h^m_ii."""
    h = trisymmetrize(rng.normal(size=(n, n, n)))
    return h, np.einsum("mii->m", h) / n


def random_tracefree(rng: np.random.Generator, n: int) -> np.ndarray:
    """Tri-symmetrize a Gaussian array, then project out its trace."""
    return tracefree_part(*random_cubic(rng, n))


# ---------------------------------------------------------------------------
# Contraction identities supporting the Simons-type computation
# ---------------------------------------------------------------------------


def contraction_identity_suite(hhat: np.ndarray, H: np.ndarray) -> dict[str, float]:
    """Residuals |LHS - RHS| of the auxiliary contraction identities.

    Left sides are six-index sums of hhat/c products; right sides are the
    closed forms in |hhat|^2 |H|^2, the cubic trace sum and the quadratic
    H-contraction, with the stated rational coefficients.
    """
    hh, Hv = np.asarray(hhat, dtype=float), np.asarray(H, dtype=float)
    n = hh.shape[0]
    if len(Hv) != n:
        raise ValueError("dimension mismatch")
    if float(np.max(np.abs(np.einsum("mii->m", hh)))) > 1e-8:
        raise ValueError("hhat is not trace-free")
    c = c_tensor_array(Hv)
    f = n / (n + 2.0)
    f2 = f * f

    hnorm2 = float(np.einsum("mij,mij->", hh, hh))
    Hnorm2 = float(np.dot(Hv, Hv))
    tri = float(np.einsum("mjk,mkl,tlj,t->", hh, hh, hh, Hv))
    quad = float(np.einsum("mij,mjk,i,k->", hh, hh, Hv, Hv))

    res = {}

    lhs_a1 = np.einsum("mij,mkl,tlj,tik->", hh, hh, hh, c)
    lhs_a2 = np.einsum("mij,mkl,tlj,tik->", hh, hh, c, hh)
    rhs_a = 3.0 * f * tri
    res["hhhc_cyclic"] = max(abs(lhs_a1 - rhs_a), abs(lhs_a2 - rhs_a))

    lhs_b1 = np.einsum("mij,mkl,tlk,tij->", hh, hh, hh, c)
    lhs_b2 = np.einsum("mij,mkl,tlk,tij->", hh, hh, c, hh)
    rhs_b = 2.0 * f * tri
    res["hhhc_trace"] = max(abs(lhs_b1 - rhs_b), abs(lhs_b2 - rhs_b))

    lhs_c = np.einsum("mij,mkl,tlj,tik->", hh, hh, c, c)
    res["hhcc_cyclic"] = abs(lhs_c - (f2 * hnorm2 * Hnorm2 + 6.0 * f2 * quad))

    lhs_d = np.einsum("mij,mkl,tlk,tij->", hh, hh, c, c)
    res["hhcc_trace"] = abs(lhs_d - 4.0 * f2 * quad)

    lhs_e = n * np.einsum("mij,mli,tlj,t->", hh, hh, c, Hv)
    quad_mixed = float(np.einsum("mij,mli,j,l->", hh, hh, Hv, Hv))
    res["hhcH_mixed"] = abs(lhs_e - (n * f * hnorm2 * Hnorm2 + 2.0 * n * f * quad_mixed))

    lhs_f1 = np.einsum("mij,mli,tlk,tkj->", hh, hh, hh, c)
    lhs_f2 = np.einsum("mij,mli,tkj,tlk->", hh, hh, hh, c)
    tri_mixed = float(np.einsum("mij,mli,tlj,t->", hh, hh, hh, Hv))
    rhs_f = 2.0 * f * tri_mixed
    res["hhhc_mixed"] = max(abs(lhs_f1 - rhs_f), abs(lhs_f2 - rhs_f))

    lhs_g = np.einsum("mij,mli,tlk,tkj->", hh, hh, c, c)
    res["hhcc_mixed"] = abs(lhs_g - (2.0 * f2 * hnorm2 * Hnorm2 + (n + 6.0) * f2 * quad_mixed))

    # Componentwise expansion of sum_t c^t_{lj} c^t_{ik} into delta/H terms.
    eye = np.eye(n)
    lhs_cc = np.einsum("tlj,tik->ljik", c, c)
    cyc = (
        np.einsum("l,i,jk->ljik", Hv, Hv, eye)
        + np.einsum("i,j,kl->ljik", Hv, Hv, eye)
        + np.einsum("j,k,li->ljik", Hv, Hv, eye)
        + np.einsum("k,l,ij->ljik", Hv, Hv, eye)
    )
    rhs_cc = f2 * (
        cyc
        + 2.0 * np.einsum("l,j,ik->ljik", Hv, Hv, eye)
        + 2.0 * np.einsum("i,k,jl->ljik", Hv, Hv, eye)
        + Hnorm2 * np.einsum("ik,jl->ljik", eye, eye)
    )
    res["cc_cyclic_expansion"] = float(np.max(np.abs(lhs_cc - rhs_cc)))

    return res


def _contraction_suite_loops(hh: np.ndarray, Hv: np.ndarray) -> dict[str, float]:
    """Literal nested-loop evaluation of the same left sides; oracle for the
    einsum expressions at small n."""
    n = len(Hv)
    c = c_tensor_array(Hv)
    rng = range(n)

    def six(fa, fb):
        acc = 0.0
        for i in rng:
            for j in rng:
                for k in rng:
                    for m in rng:
                        for l in rng:
                            for t in rng:
                                acc += fa[m, i, j] * fa[m, k, l] * fb[0][t, l, j] * fb[1][t, i, k]
        return acc

    def six_trace(fa, fb):
        acc = 0.0
        for i in rng:
            for j in rng:
                for k in rng:
                    for m in rng:
                        for l in rng:
                            for t in rng:
                                acc += fa[m, i, j] * fa[m, k, l] * fb[0][t, l, k] * fb[1][t, i, j]
        return acc

    def six_mixed(fb):
        acc = 0.0
        for i in rng:
            for j in rng:
                for k in rng:
                    for m in rng:
                        for l in rng:
                            for t in rng:
                                acc += hh[m, i, j] * hh[m, l, i] * fb[0][t, l, k] * fb[1][t, k, j]
        return acc

    out = {
        "hhhc_cyclic": six(hh, (hh, c)),
        "hhhc_trace": six_trace(hh, (hh, c)),
        "hhcc_cyclic": six(hh, (c, c)),
        "hhcc_trace": six_trace(hh, (c, c)),
        "hhhc_mixed": six_mixed((hh, c)),
        "hhcc_mixed": six_mixed((c, c)),
    }
    acc = 0.0
    for i in rng:
        for j in rng:
            for m in rng:
                for l in rng:
                    for t in rng:
                        acc += n * hh[m, i, j] * hh[m, l, i] * c[t, l, j] * Hv[t]
    out["hhcH_mixed"] = acc
    return out


# ---------------------------------------------------------------------------
# Li-Li matrix inequality
# ---------------------------------------------------------------------------


def li_li_check(Bs) -> tuple[float, float]:
    """LHS and RHS of: sum N(B_m B_k - B_k B_m) + sum S_mk^2 <= 3/2 S^2."""
    Bs = [np.asarray(B, dtype=float) for B in Bs]
    if len(Bs) < 2:
        raise ValueError("need at least two matrices")
    for B in Bs:
        if np.max(np.abs(B - B.T)) > 1e-12 * max(1.0, float(np.max(np.abs(B)))):
            raise ValueError("matrices must be symmetric")
    lhs = 0.0
    S = 0.0
    for Bm in Bs:
        S += float(np.sum(Bm * Bm))
    for Bm in Bs:
        for Bk in Bs:
            C = Bm @ Bk - Bk @ Bm
            lhs += float(np.sum(C * C))
            lhs += float(np.sum(Bm * Bk)) ** 2
    return lhs, 1.5 * S * S


def li_li_batch_margin(Bs: np.ndarray) -> np.ndarray:
    """RHS - LHS for a batch of tuples, shape (T, m, n, n); >= 0 when the bound holds."""
    prods = np.einsum("tmij,tkjl->tmkil", Bs, Bs)
    comms = prods - np.transpose(prods, (0, 2, 1, 3, 4))
    ncomm = np.einsum("tmkil,tmkil->t", comms, comms)
    smk = np.einsum("tmij,tkij->tmk", Bs, Bs)
    lhs = ncomm + np.einsum("tmk,tmk->t", smk, smk)
    S = np.einsum("tmm->t", smk)
    return 1.5 * S * S - lhs


# ---------------------------------------------------------------------------
# Spectral summary for the Simons inequality
# ---------------------------------------------------------------------------


@dataclass
class SpectralSummary:
    """Eigen-data of M_ij = sum_l hhat^{l*}_{ij} H^{l*} plus the per-direction
    norms S_{i*} in the eigenbasis.  `lambdas` and `s_istar` have shape
    (n, ...) and `s_h` shape (...), the trailing axes being batch axes."""

    lambdas: np.ndarray
    s_istar: np.ndarray
    s_h: np.ndarray = field(init=False)

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.s_istar = np.asarray(self.s_istar, dtype=float)
        self.s_h = np.sum(self.lambdas**2, axis=0)
        if np.any(self.s_istar < -1e-12):
            raise ValueError("per-direction norms must be nonnegative")


def spectral_summary(hhat: np.ndarray, H: np.ndarray) -> SpectralSummary:
    """Spectral data of one point, hhat (n, n, n) and H (n,), or of a batch
    of them with the same trailing axes.  Where M is not finite (it
    overflowed) the eigen-solve is skipped and the data are NaN."""
    hh, Hv = np.asarray(hhat, dtype=float), np.asarray(H, dtype=float)
    M = np.einsum("lij...,l...->...ij", hh, Hv)
    finite = np.all(np.isfinite(M), axis=(-2, -1))
    lam, V = np.full(M.shape[:-1], np.nan), np.full(M.shape, np.nan)
    lam[finite], V[finite] = np.linalg.eigh(M[finite])
    # rotate hhat into the eigenframe e'_i = sum_j V[j, i] e_j
    rotated = np.einsum("...am,...bi,...cj,abc...->mij...", V, V, V, hh)
    s_istar = np.einsum("mij...,mij...->m...", rotated, rotated)
    return SpectralSummary(np.moveaxis(lam, -1, 0), s_istar)
