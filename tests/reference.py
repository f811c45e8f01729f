"""Reference code for the tests: the nested-loop contraction oracle, the
permutation loop of the symmetry residual, the tolerance-relative symmetry
test of a cubic array, the full-order frame bundle, the algebraic lemmas of
the Simons-type estimate (the contraction identities, the Li-Li matrix
bound, the curvature closed forms, the unmerged terms of the Laplace
contraction and the algebraic Simons bound), the
three-slot eigenframe rotation of the spectral summary, random tensors,
vectors and rotations, the
real matrices of complex maps, a body in a rotated chart (a change of frame
through the public path), two other routes to an immersion's jets (the
finite-difference black box and the Moebius form of the Whitney sphere), the
Whitney sphere as its family once wrote it and the perturbed Whitney sphere
built on it with its quadratic form drawn by numpy, and helpers
that invert or read what the engine builds, such as the balance of the two
sides of a check or the frame a bundle frees (`frame0`), and the corpus of
test bodies (`CORPUS`, with `dilated` for its C^n bodies) with the traced
peak of a call (`traced_peak`) and the bytes of a seed that Python 3.10
keeps alive (`seed_kept_bytes`).  No command of the engine calls any of it;
the tests check the engine against it, so it stays independent of the code
it checks.
"""

import math
import sys
import tracemalloc
from dataclasses import replace
from itertools import permutations

import numpy as np

from lagcheck.cli import build_immersion
from lagcheck.geometry import FrameBundle, _trace, _tracefree, cached
from lagcheck.identities import _curvature_terms, _spectral_form
from lagcheck.immersions import (
    AMBIENT_CN,
    Immersion,
    PlaneAtlas,
    SphereAtlas,
    expm_series,
    interleave,
    linear_image,
    times_i,
)
from lagcheck.jets import Jet, jet_einsum, jet_space
from lagcheck.tensors import c_tensor_array, symmetry_residual

TRISYM_TOL = 1e-9

# ---------------------------------------------------------------------------
# Random tensors and the norm identity
# ---------------------------------------------------------------------------


def trisymmetrize(a: np.ndarray) -> np.ndarray:
    out = np.zeros_like(a, dtype=float)
    for perm in permutations(range(3)):
        out += np.transpose(a, perm)
    return out / 6.0


def random_cubic(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Random fully symmetric h with its trace vector H = (1/n) h^m_ii."""
    h = trisymmetrize(rng.normal(size=(n, n, n)))
    return h, np.einsum("mii->m", h) / n


def random_tracefree(rng: np.random.Generator, n: int) -> np.ndarray:
    """Tri-symmetrize a Gaussian array, then project out its trace."""
    return _tracefree(random_cubic(rng, n)[0])


def norm_identity_residual(h: np.ndarray) -> float:
    """| |hhat|^2 - |h|^2 + 3n^2/(n+2) |H|^2 | of one cubic h, with H and hhat
    from the engine's trace decomposition (`geometry._trace`, `_tracefree`)."""
    n = h.shape[0]
    hhat, H = _tracefree(h), _trace(h)
    return abs(float(np.sum(hhat**2) - np.sum(h**2) + 3.0 * n * n / (n + 2.0) * np.dot(H, H)))


def trisym_violations(a: np.ndarray, tol: float = TRISYM_TOL) -> np.ndarray:
    """Where a rank-3 array (n, n, n, ...) fails full symmetry by more than
    `tol` times max(1, max |a|), per entry of the trailing axes."""
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(0, 1, 2)))
    return symmetry_residual(a, 3) > tol * scale


def symmetry_residual_loops(a: np.ndarray, rank: int) -> np.ndarray:
    """max |a[perm] - a| over every permutation of the first `rank` axes, one
    value per entry of the trailing axes: one transpose per permutation."""
    axes = tuple(range(rank))
    rest = tuple(range(rank, a.ndim))
    return np.max(
        [np.max(np.abs(np.transpose(a, perm + rest) - a), axis=axes) for perm in permutations(axes)],
        axis=0,
    )


# ---------------------------------------------------------------------------
# The frame bundle with every jet at full order
# ---------------------------------------------------------------------------


class FullOrderBundle(FrameBundle):
    """A FrameBundle whose jets all run at the order their inputs allow: g,
    B, e and J e at K - 1 on a bundle of order K, De and omega at K - 2, the
    Christoffel symbols at K - 2, the Maslov form at K - 2, and each omega
    product of a covariant derivative at the order of its input.  The
    products read the same rows as the engine's order-reduced ones, so the
    point values agree wherever the Newton lift of B takes the same steps."""

    @cached
    def g_jets(self) -> Jet:
        return jet_einsum("ca,cb->ab", self.f, self.f)

    def covariant_derivative(self, x: Jet) -> Jet:
        idx = "abcdefgh"[: x.ndim]
        out = jet_einsum(f"{idx}q,pq->{idx}p", x.grad(), self.B)
        for s in idx:
            out = out + jet_einsum(f"{idx.replace(s, 'l')},pl{s}->{idx}p", x, self.omega_jets)
        return out

    @cached
    def hess_h(self) -> np.ndarray:
        return self.covariant_derivative(self.grad_h_jets).value

    @cached
    def christoffel_jets(self) -> Jet:
        dg = self.g_jets.grad()
        low = (dg.transpose(0, 2, 1) + dg - dg.transpose(2, 0, 1)).scaled(0.5)
        return jet_einsum("de,eab->dab", jet_einsum("ia,ib->ab", self.B, self.B), low)

    @cached
    def maslov_chart_jets(self) -> Jet:
        H_amb = jet_einsum("mc,m->c", self.Je, self.H_jets)
        return jet_einsum("c,ca->a", times_i(H_amb), self.f)


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
# Curvature closed forms and the algebraic Simons bound
# ---------------------------------------------------------------------------


def curvature_contraction_closed_forms(hh: np.ndarray, Hv: np.ndarray, c_amb: float) -> dict[str, float]:
    """Brute-force assembly of the three curvature contractions of hhat with
    the Gauss-form curvature, against their closed forms in |hhat|, |H|, the
    cubic trace sum and the quadratic H-contraction.

    Returns the residual of each contraction and of the equality between the
    first and third (which differ only by rearranging a fully symmetric
    tensor)."""
    n = hh.shape[0]
    h_full = hh + c_tensor_array(Hv)
    eye = np.eye(n)
    rg = (
        c_amb * (np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye))
        + np.einsum("mik,mjl->ijkl", h_full, h_full)
        - np.einsum("mil,mjk->ijkl", h_full, h_full)
    )
    hs = float(np.einsum("mij,mij->", hh, hh))
    Hs = float(np.dot(Hv, Hv))
    f = n / (n + 2.0)
    tri = float(np.einsum("mjk,mkl,tlj,t->", hh, hh, hh, Hv))
    quad = float(np.einsum("mij,mjk,i,k->", hh, hh, Hv, Hv))
    quartic_I = float(
        np.einsum("mij,mkl,tlj,tik->", hh, hh, hh, hh)
        - np.einsum("mij,mkl,tlk,tij->", hh, hh, hh, hh)
    )
    quartic_II = -float(np.einsum("mij,mli,tlk,tkj->", hh, hh, hh, hh))

    term_I = float(np.einsum("mij,mlk,lijk->", hh, hh, rg))
    closed_I = c_amb * hs + f * f * hs * Hs + 2.0 * f * tri + quartic_I + 2.0 * f * f * quad

    term_II = float(np.einsum("mij,mil,lkjk->", hh, hh, rg))
    closed_II = (
        (n - 1.0) * c_amb * hs
        + n * f * f * hs * Hs
        + (n - 2.0) * f * tri
        + (n - 2.0) * f * f * quad
        + quartic_II
    )

    term_III = float(np.einsum("mij,lik,jklm->", hh, hh, rg))

    return {
        "I_closed_form": abs(term_I - closed_I),
        "II_closed_form": abs(term_II - closed_II),
        "III_closed_form": abs(term_III - closed_I),
        "I_equals_III": abs(term_I - term_III),
    }


def laplace_hhat_sides_unmerged(fb, t: dict[str, np.ndarray]) -> tuple[tuple, tuple]:
    """The five terms of the rough-Laplacian contraction identity as the
    commutation rule gives them: <hhat, hhat_{,kk}> against
    (n+2)<hhat, grad T> and the three curvature contractions
    hhat_{mij} hhat_{mlk} R_{lijk}, hhat_{mij} hhat_{mil} R_{lkjk} and
    hhat_{mij} hhat_{lik} R_{lmjk}, each summed on its own.  `fb` needs
    only hhat0, gauss_rhs and hess_hhat; `t` only hhat_grad_T."""
    hh, rg = fb.hhat0, fb.gauss_rhs
    lhs = (np.einsum("mijb,mijkkb->b", hh, fb.hess_hhat),)
    rhs = (
        t["hhat_grad_T"],
        np.einsum("mijb,mlkb,lijkb->b", hh, hh, rg),
        np.einsum("mijb,milb,lkjkb->b", hh, hh, rg),
        np.einsum("mijb,likb,lmjkb->b", hh, hh, rg),
    )
    return lhs, rhs


def algebraic_simons_bound(hh: np.ndarray, Hv: np.ndarray) -> dict[str, np.ndarray]:
    """The purely algebraic estimate step: the curvature terms of the Simons
    identity dominate -(n+3)/2 |hhat|^4 for any trace-free tri-symmetric hhat.

    Also reports the eigen-decomposition cross-check: the cubic and
    quadratic terms against their `_spectral_form`.  hh (n, n, n, ...) and
    Hv (n, ...) may carry trailing batch axes.
    """
    hh = np.asarray(hh, dtype=float)
    Hv = np.asarray(Hv, dtype=float)
    if np.any(trisym_violations(hh, 1e-6)):
        raise ValueError("array is not symmetric under index permutations")
    n = hh.shape[0]
    hs = np.einsum("mij...,mij...->...", hh, hh)
    t = _curvature_terms(hh, Hv)
    curvature = t["commutator_term"] + t["trace_sq_term"] + t["cubic_term"] + t["quad_term"]
    return {
        "margin": curvature + 0.5 * (n + 3.0) * hs * hs,
        "spectral_consistency": np.abs(t["cubic_term"] + t["quad_term"] - _spectral_form(hh, Hv)),
    }


def spectral_summary_rotation(hhat: np.ndarray, H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`tensors.spectral_summary` by the full rotation of hhat into the
    eigenframe, all three slots: the eigenvalues of M_ij = sum_l hhat^l_ij H^l
    and the norms S_{i*} of the rotated slices, each (n, ...)."""
    hh, Hv = np.asarray(hhat, dtype=float), np.asarray(H, dtype=float)
    M = np.einsum("lij...,l...->...ij", hh, Hv)
    finite = np.all(np.isfinite(M), axis=(-2, -1))
    lam, V = np.full(M.shape[:-1], np.nan), np.full(M.shape, np.nan)
    lam[finite], V[finite] = np.linalg.eigh(M[finite])
    rotated = np.einsum("...am,...bi,...cj,abc...->mij...", V, V, V, hh)
    return np.moveaxis(lam, -1, 0), np.einsum("mij...,mij...->m...", rotated, rotated)


def balance(sides: tuple) -> np.ndarray:
    """sum lhs - sum rhs of the (lhs, rhs) sides of a check: zero where an
    identity holds, the margin of an inequality."""
    lhs, rhs = sides
    return sum(lhs) - sum(rhs)


# ---------------------------------------------------------------------------
# Sphere points, jet rows and stacks, unitary maps and volumes
# ---------------------------------------------------------------------------


def embed(charts, coords) -> np.ndarray:
    """(N, n+1) points of the unit sphere in R^{n+1}: the inverse of
    `SphereAtlas.from_embedded`."""
    s = np.einsum("na,na->n", coords, coords)[:, None]
    return np.concatenate([2.0 * coords, SphereAtlas.sign(charts)[:, None] * (s - 1.0)], axis=1) / (1.0 + s)


def stack(jets: list[Jet]) -> Jet:
    """Stack jets of equal shape along a new leading axis, valid to the
    lowest of their orders."""
    order = min(j.order for j in jets)
    rows = jets[0].space.ncoef_by_degree[order]
    return Jet(jets[0].space, np.stack([j.c[..., :rows, :] for j in jets]), order)


def coef_factorial(space) -> np.ndarray:
    """alpha! of each row of a jet space: row alpha of a jet holds
    d^alpha f / alpha!."""
    return np.array([float(np.prod([math.factorial(int(x)) for x in a])) for a in space.multi_indices])


def deriv(jet: Jet, alpha) -> np.ndarray:
    """Partial derivative d^alpha of `jet` at the expansion point, read off its rows."""
    alpha = tuple(int(a) for a in alpha)
    if sum(alpha) > jet.order:
        raise ValueError(f"derivative {alpha} exceeds valid order {jet.order}")
    k = jet.space.index_of[alpha]
    return jet.c[..., k, :] * coef_factorial(jet.space)[k]


def random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    """A Gaussian vector of R^n scaled to unit length."""
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Q


def random_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    Z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R))).conj()


def complex_to_real_matrix(U: np.ndarray) -> np.ndarray:
    """Embed an m x m complex matrix as a 2m x 2m real matrix on interleaved coords."""
    m = U.shape[0]
    R = np.zeros((2 * m, 2 * m))
    R[0::2, 0::2] = U.real
    R[0::2, 1::2] = -U.imag
    R[1::2, 0::2] = U.imag
    R[1::2, 1::2] = U.real
    return R


def symplectic_j_matrix(m: int) -> np.ndarray:
    """i as a 2m x 2m real matrix; `times_i` applies it without a product."""
    return complex_to_real_matrix(1j * np.eye(m))


def sphere_volume(n: int) -> float:
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


# ---------------------------------------------------------------------------
# CP^n: projective points and a gauge-twisted body
# ---------------------------------------------------------------------------


def normalize_representative(z: np.ndarray) -> np.ndarray:
    """Unit-Hermitian-norm representative of a point of CP^n."""
    z = np.asarray(z, dtype=complex)
    nrm = float(np.sqrt(np.sum(np.abs(z) ** 2)))
    if nrm < 1e-300:
        raise ValueError("zero vector is not a projective point")
    return z / nrm


def projective_distance(z1: np.ndarray, z2: np.ndarray) -> float:
    """Chordal Fubini-Study distance sqrt(1 - |<z1, z2>|^2) of unit reps."""
    z1 = normalize_representative(z1)
    z2 = normalize_representative(z2)
    return float(np.sqrt(max(0.0, 1.0 - np.abs(np.vdot(z2, z1)) ** 2)))


def phase_twist(base: Immersion, coeffs) -> Immersion:
    """Multiply the homogeneous representative by exp(i chi(u)) with
    chi = sum_a coeffs[a] * sin(u_a); exercises projective gauge invariance."""
    coeffs = np.asarray(coeffs, dtype=float)

    def jet_fn(charts, u):
        Z = base.jet_fn(charts, u)
        chi = jet_einsum("a,a->", coeffs, u.sin())
        sin, cos = chi.sin_cos()
        return Z * cos + times_i(Z) * sin

    return replace(base, name=f"phase_twist({base.name})", params=dict(base.params, twist=coeffs.tolist()), jet_fn=jet_fn)


# ---------------------------------------------------------------------------
# Immersions built another way: a rotated chart, finite differences, the
# Moebius form and the numpy-drawn perturbed Whitney sphere
# ---------------------------------------------------------------------------


def rotated_chart(base: Immersion, rot: np.ndarray) -> Immersion:
    """`base` in the chart v -> rot v of each of its charts, for an
    orthogonal `rot`: at (chart, rot^T u) it is the point of `base` at
    (chart, u), with the coordinate frame, and so the Cholesky frame, of
    other coordinates.  A rotation keeps |u| and commutes with the sphere's
    change of chart u -> u / |u|^2, so both bodies move a point to the same
    chart."""
    rot = np.asarray(rot, dtype=float)

    def jet_fn(charts, v):
        return base.jet_fn(charts, jet_einsum("ab,b->a", rot, v))

    return replace(base, name=f"rotated_chart({base.name})", jet_fn=jet_fn)


def frame0(fb: FrameBundle) -> tuple[np.ndarray, np.ndarray]:
    """The frame e_i = B_ia f_a and J e_i at the points of a bundle, each
    indexed [i, c, x]: rebuilt from B and the degree-1 rows of phi, since
    the bundle frees both once its frame build has read them."""
    f = fb.phi.c[:, fb.phi.space.pure_rows[1]]  # [c, a, x] = d_a phi^c
    e = np.einsum("iax,cax->icx", fb.B0, f)
    return e, times_i(e, axis=1)


def assert_frame_moved(fb: FrameBundle, moved: FrameBundle, least: float = 0.1):
    """Check that two bundles, such as a body's and its `rotated_chart`'s,
    sit at the same ambient points and that at each the frame e of `moved`
    differs from that of `fb` by more than `least`, far above round-off: a
    change of chart that left the frame as it was would leave a
    frame-invariance test with nothing to test."""
    assert np.max(np.abs(moved.phi.value - fb.phi.value)) < 1e-12
    change = np.max(np.abs(frame0(moved)[0] - frame0(fb)[0]), axis=(0, 1))
    assert np.all(change > least), change


def make_black_box(fn, n: int, atlas=None, name="black_box") -> Immersion:
    """Wrap a plain callable `fn(chart_id, coords)` -> 2n ambient reals as an
    Immersion in C^n; each point is evaluated in its own chart of `atlas`.

    Jet coefficients come from nested central differences (step 1e-3 chart
    units, one Richardson pass per axis), so derived quantities live on the
    finite-difference rungs of the tolerance ladder rather than the exact-jet
    rung: the cross-check of the jet route through the same frame machinery.
    """
    atlas = atlas or PlaneAtlas(n)
    if atlas.n != n:
        raise ValueError(f"a black box in {n} variables needs an atlas of dimension {n}, not {atlas.n}")
    step = 1e-3

    def partial_value(chart_id, alpha, x):
        axis = next((a for a in range(n) if alpha[a] > 0), None)
        if axis is None:
            return np.asarray(fn(chart_id, x), dtype=float)
        sub = list(alpha)
        sub[axis] -= 1

        def diff(h):
            up = x.copy()
            dn = x.copy()
            up[axis] += h
            dn[axis] -= h
            return (partial_value(chart_id, sub, up) - partial_value(chart_id, sub, dn)) / (2 * h)

        return (4.0 * diff(step / 2.0) - diff(step)) / 3.0

    def jet_fn(charts, u):
        sp, coords = u.space, u.value
        factorials = coef_factorial(sp)
        raw = np.zeros((2 * n, sp.ncoef, coords.shape[1]))
        for b, chart_id in enumerate(np.broadcast_to(charts, coords.shape[1:]).tolist()):
            x = coords[:, b].copy()
            for k, alpha in enumerate(sp.multi_indices):
                raw[:, k, b] = partial_value(chart_id, list(alpha), x) / factorials[k]
        return Jet(sp, raw)

    return Immersion(name=name, ambient=AMBIENT_CN, params={"n": n}, atlas=atlas, jet_fn=jet_fn)


def whitney_cn_mobius(r: float, A: np.ndarray, n: int) -> Immersion:
    """The Whitney sphere in C^n from its Moebius form
    z = r u (1 + i sigma) / (|u|^2 + i sigma) + A, sigma the pole sign: one
    series in s = |u|^2 about its point value s0, whose coefficients
    (1 + i sigma) (-1)^k (s0 + i sigma)^-(k+1) are split into a real and an
    imaginary series.  An independent derivation of `make_whitney_cn`."""
    atlas = SphereAtlas(n)
    offset = np.stack([A.real, A.imag], axis=1).reshape(2 * n, 1)

    def jet_fn(charts, u):
        s = jet_einsum("a,a->", u, u)
        i_sigma = 1j * atlas.sign(charts)
        coefs = [(1.0 + i_sigma) * (-1.0) ** k / (s.value + i_sigma) ** (k + 1) for k in range(u.order + 1)]
        re, im = s.compose_series([c.real for c in coefs], [c.imag for c in coefs])
        return interleave((u * re).scaled(r), (u * im).scaled(r)) + offset

    return Immersion(name="whitney_cn_mobius", ambient=AMBIENT_CN, params={"r": r, "A": offset.reshape(n, 2).tolist(), "n": n},
                     atlas=atlas, jet_fn=jet_fn)


def preset_whitney_cn(r: float, A=None, n: int = 2) -> Immersion:
    """`whitney_cn` as the family once wrote it,
    z = r u (1 + s + i sigma (s - 1)) / (1 + s^2) + A: the jet reciprocal
    of 1 + s^2 and two (n,) products with it, whose bits the pinned jets of
    `numpy_perturbed_whitney` keep.  `make_whitney_cn` writes the same
    formula as u G(s) + A by series division."""
    A = np.zeros(n, dtype=complex) if A is None else np.asarray(A, dtype=complex)
    atlas = SphereAtlas(n)
    pairs = np.stack([A.real, A.imag], axis=1)
    offset = pairs[:, :, None]

    def jet_fn(charts, u):
        sp, rows = u.space, u.c.shape[1:]
        s = u.norm_sq()
        q, us = r / (1.0 + s * s), u.times(s)
        z = np.empty((n, 2) + rows)  # [j, re/im]: interleaved once reshaped
        np.add(us.c, u.c, out=z[:, 0])
        np.subtract(us.c, u.c, out=z[:, 1])
        z[:, 1] *= atlas.sign(charts)
        for part in (0, 1):
            z[:, part] = (Jet(sp, z)[:, part] * q).c
        z[:, :, 0] += offset
        return Jet(sp, z.reshape((2 * n,) + rows))

    return Immersion(name="whitney_cn", ambient=AMBIENT_CN, params={"r": float(r), "A": pairs.tolist(), "n": n},
                     atlas=atlas, jet_fn=jet_fn)


def numpy_perturbed_whitney(r: float, eps: float, mode: int, n: int) -> Immersion:
    """`perturbed_whitney` with its quadratic form Q drawn, as the family
    once drew it, from `np.random.default_rng(1000 n + mode)`, on the
    Whitney sphere as it was then written (`preset_whitney_cn`): the body the
    values pinned from the earlier nested-list frame bundle describe."""
    M = np.random.default_rng(1000 * n + mode).normal(size=(2 * n, 2 * n))
    Q = 0.5 * (M + M.T)
    Q /= np.linalg.norm(Q, ord="fro")
    flow = expm_series(eps * (symplectic_j_matrix(n) @ Q))
    return linear_image(preset_whitney_cn(r, None, n), flow, name="perturbed_whitney")


# ---------------------------------------------------------------------------
# The body corpus and the traced peak
# ---------------------------------------------------------------------------

# Every body that the body-per-kind tests share, each declared once: a config
# per family of `cli.FAMILIES` at n = 3, with `whitney_cn` off the origin, a
# small `whitney_cn` far off it, and (base, derive) entries that wrap the body
# of another entry.  A test's table names its entries, so a new body is
# declared once, here, and joins a test by its name in that test's table.
CORPUS = {
    "whitney_cn": {"family": "whitney_cn", "r": 1.0, "n": 3, "A": [[0.3, 0.2], [0.0, -0.4], [0.1, 0.0]]},
    "whitney_cn-offset": {"family": "whitney_cn", "r": 0.1, "n": 3, "A": [[0.05, -0.08], [0.1, 0.02], [-0.06, 0.09]]},
    "product_torus": {"family": "product_torus", "radii": [1.0, 1.5, 2.0]},
    "lagrangian_plane": {"family": "lagrangian_plane", "n": 3},
    "nonlagrangian_plane": {"family": "nonlagrangian_plane", "n": 3},
    "perturbed_whitney": {"family": "perturbed_whitney", "r": 1.0, "eps": 0.05, "mode": 1, "n": 3},
    "whitney_cpn": {"family": "whitney_cpn", "theta": 0.7, "n": 3},
    "rpn": {"family": "rpn", "n": 3},
    "cpn_torus": {"family": "cpn_torus", "moduli": [1.0, 0.7, 1.2, 0.9]},
    "phase_twist": ("whitney_cpn", lambda imm: phase_twist(imm, [0.4, -0.7, 0.2])),
    "perturbed_whitney-rotated_chart": (
        "perturbed_whitney", lambda imm: rotated_chart(imm, random_orthogonal(3, np.random.default_rng(5)))
    ),
}
CONFIGS = {name: cfg for name, cfg in CORPUS.items() if isinstance(cfg, dict)}


def corpus_body(name: str) -> Immersion:
    """The body of the entry `name` of CORPUS, built afresh: a config by the
    CLI's own `build_immersion`, a wrapper around the body of its base."""
    if name in CONFIGS:
        return build_immersion(CONFIGS[name], "identities")
    base, derive = CORPUS[name]
    return derive(corpus_body(base))


def dilated(name: str, lam: float) -> Immersion:
    """The C^n body of the CORPUS entry `name` dilated by `lam`, through its
    family's dilation law: its lengths `r`, `A` and `radii` times lam."""

    def scale(x):
        return [scale(y) for y in x] if isinstance(x, list) else lam * x

    cfg, lengths = CONFIGS[name], {"r", "A", "radii"}
    if not lengths & cfg.keys():
        raise ValueError(f"{name} has no length to dilate")
    return build_immersion({k: scale(v) if k in lengths else v for k, v in cfg.items()}, "identities")


def seed_kept_bytes(n: int, order: int) -> int:
    """Bytes per point of the seeded chart coordinates (`Jet.variables`) of
    an order-`order` jet in n variables that a family formula cannot free
    before Python 3.11: there a caller keeps its reference to an argument
    until the call returns, so the seed of `Immersion.jets` lives through the
    whole formula.  0 from Python 3.11 on."""
    return 0 if sys.version_info >= (3, 11) else 8 * n * jet_space(n, order).ncoef


def traced_peak(run) -> int:
    """The traced peak of `run()` above the traced memory at its start.  No
    warm-up: a caller that measures warm runs `run` once itself before."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
