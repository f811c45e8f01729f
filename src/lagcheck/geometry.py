"""Pointwise Lagrangian geometry from ambient coordinate jets.

Given the jet of an immersion at a chart point, this module produces the full
geometric state: induced metric, adapted frame (e_i, Je_i), second
fundamental form and its trace decomposition, covariant derivatives,
curvature tensors, the conformal-Maslov defect tensor and its covariant
derivative, and Laplace-Beltrami operators of scalar jets.

The frame field is the Gram-Schmidt (Cholesky) orthonormalization of the
coordinate frame, built inside jet arithmetic, so connection coefficients and
derivatives of frame components are exact.  The normal connection is the
tangent one transported by the complex structure, which for a constant J is
an exact equality of coefficient matrices.

Every derivative here is read off a Taylor jet; nothing is finite
differenced.  An order-k ambient jet leaves h, H and |hhat|^2 valid to order
k - 2 and the first covariant derivatives of H to order k - 3, so an order-4
bundle carries the Laplacian of |hhat|^2 and the gradient of T exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .immersions import AMBIENT_CN, ChartPoint, Immersion, OutOfDomainError
from .jets import Jet, jet_dot, jet_space
from .tensors import (
    CubicSymTensor,
    SymTraceFree2,
    VectorField1,
    c_tensor_array,
)

LAGRANGIAN_TOL = 1e-6
METRIC_DET_TOL = 1e-12

# Residual tolerances by derivative provenance: exact jets, once finite
# differenced, twice finite differenced.  The FD rungs fit black-box
# immersions, whose ambient jets come from finite differences; a few jet-exact
# checks in identities.DEFAULT_TOLERANCES still sit on them.
TOL_JET = 1e-9
TOL_FD1 = 1e-6
TOL_FD2 = 1e-4


class NonLagrangianError(ValueError):
    pass


class DegenerateMetricError(ValueError):
    pass


def apply_j(vec: list) -> list:
    """Complex structure on interleaved coordinates: (a, b) -> (-b, a)."""
    out = []
    for k in range(0, len(vec), 2):
        out.append(-vec[k + 1])
        out.append(vec[k])
    return out


class FrameBundle:
    """All geometric data derived from one ambient jet, batched over points."""

    def __init__(self, phi: list[Jet], n: int, c_amb: float, gauge: np.ndarray | None = None):
        self.phi = phi
        self.n = n
        self.c_amb = float(c_amb)
        self.order = phi[0].order
        self.m2 = len(phi)
        self.batch = phi[0].c.shape[1]
        self.gauge = np.eye(n) if gauge is None else np.asarray(gauge, dtype=float)
        self._cache: dict = {}
        self._build_frame()

    # -- frame construction -------------------------------------------

    def _build_frame(self):
        n = self.n
        f = [[self.phi[c].partial(a) for c in range(self.m2)] for a in range(n)]
        self.f = f
        g = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1):
                g[a][b] = g[b][a] = jet_dot(f[a], f[b])
        self.g_jets = g

        g0 = np.empty((n, n, self.batch))
        for a in range(n):
            for b in range(n):
                g0[a, b] = g[a][b].value
        self.g0 = np.moveaxis(g0, -1, 0)  # (B, n, n)
        det = np.linalg.det(self.g0)
        if np.any(det < METRIC_DET_TOL):
            raise DegenerateMetricError(
                f"induced metric determinant below tolerance (min {det.min():.3e})"
            )
        self.sqrt_det_g = np.sqrt(det)

        # Cholesky of the metric in jets; B = L^{-1} maps coordinate frame to
        # the orthonormal frame e_i = sum_a B[i][a] f_a.
        L = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                acc = g[i][j]
                for k in range(j):
                    acc = acc - L[i][k] * L[j][k]
                if i == j:
                    L[i][i] = acc.sqrt()
                else:
                    L[i][j] = acc / L[j][j]
        Binv = [[None] * n for _ in range(n)]
        for i in range(n):
            Binv[i][i] = 1.0 / L[i][i]
            for j in range(i - 1, -1, -1):
                acc = None
                for k in range(j, i):
                    term = L[i][k] * Binv[k][j]
                    acc = term if acc is None else acc + term
                Binv[i][j] = -acc / L[i][i]
            for j in range(i + 1, n):
                Binv[i][j] = _zero_like(g[0][0])
        if not np.allclose(self.gauge, np.eye(n)):
            Q = self.gauge
            Binv = [
                [_lincomb([Binv[k][a] for k in range(n)], Q[i]) for a in range(n)]
                for i in range(n)
            ]
        self.B = Binv
        self.B0 = np.array([[self.B[i][a].value for a in range(self.n)] for i in range(self.n)])

        e = []
        for i in range(n):
            comps = []
            for c in range(self.m2):
                comps.append(_lincomb([f[a][c] for a in range(n)], row_jets=[self.B[i][a] for a in range(n)]))
            e.append(comps)
        self.e = e
        self.Je = [apply_j(ei) for ei in e]

        lag = 0.0
        for i in range(n):
            for j in range(n):
                lag = max(lag, float(np.max(np.abs(jet_dot(e[i], self.Je[j]).value))))
        self.lagrangian_residual = lag
        if lag > LAGRANGIAN_TOL:
            raise NonLagrangianError(
                f"Lagrangian condition violated: max |<e_i, J e_j>| = {lag:.3e}"
            )

    # -- cached derived quantities -------------------------------------

    def _get(self, key: str, fn: Callable):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    @property
    def De(self):
        """D_{e_k} e_j as jet vectors, indexed [k][j]."""

        def build():
            n = self.n
            out = [[None] * n for _ in range(n)]
            dpart = [[[self.e[j][c].partial(a) for c in range(self.m2)] for j in range(n)] for a in range(n)]
            for k in range(n):
                for j in range(n):
                    out[k][j] = [
                        _lincomb([dpart[a][j][c] for a in range(n)], row_jets=[self.B[k][a] for a in range(n)])
                        for c in range(self.m2)
                    ]
            return out

        return self._get("De", build)

    @property
    def h_jets(self):
        def build():
            n = self.n
            out = [[[None] * n for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    dv = self.De[i][j]
                    for m in range(n):
                        val = jet_dot(dv, self.Je[m])
                        out[m][i][j] = val
                        out[m][j][i] = val
            return out

        return self._get("h_jets", build)

    @property
    def omega_jets(self):
        """Connection coefficients omega[k][i][j] = <D_{e_k} e_i, e_j> as jets."""

        def build():
            n = self.n
            out = [[[None] * n for _ in range(n)] for _ in range(n)]
            for k in range(n):
                for i in range(n):
                    for j in range(i):
                        w = jet_dot(self.De[k][i], self.e[j])
                        out[k][i][j] = w
                        out[k][j][i] = -w
                    out[k][i][i] = _zero_like(self.g_jets[0][0])
            return out

        return self._get("omega_jets", build)

    @property
    def H_jets(self):
        def build():
            n = self.n
            out = []
            for m in range(n):
                acc = self.h_jets[m][0][0]
                for i in range(1, n):
                    acc = acc + self.h_jets[m][i][i]
                out.append(acc.scaled(1.0 / n))
            return out

        return self._get("H_jets", build)

    # -- point values ----------------------------------------------------

    @property
    def h0(self) -> np.ndarray:
        def build():
            n = self.n
            out = np.empty((n, n, n, self.batch))
            for m in range(n):
                for i in range(n):
                    for j in range(n):
                        out[m, i, j] = self.h_jets[m][i][j].value
            return out

        return self._get("h0", build)

    @property
    def H0(self) -> np.ndarray:
        return self._get("H0", lambda: np.einsum("miib->mb", self.h0) / self.n)

    @property
    def hhat0(self) -> np.ndarray:
        return self._get("hhat0", lambda: self.h0 - c_tensor_array(self.H0))

    @property
    def omega0(self) -> np.ndarray:
        def build():
            n = self.n
            out = np.empty((n, n, n, self.batch))
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        out[k, i, j] = self.omega_jets[k][i][j].value
            return out

        return self._get("omega0", build)

    def frame_derivative(self, jet: Jet) -> np.ndarray:
        """e_k applied to a scalar jet, for all k: shape (n, B)."""
        parts = np.stack([jet.partial(a).value for a in range(self.n)])
        return np.einsum("kab,ab->kb", self.B0, parts)

    def laplacian(self, jet: Jet) -> np.ndarray:
        """Laplace-Beltrami g^{ab}(d_a d_b f - Gamma^c_ab d_c f) of a scalar
        jet valid to order >= 2 in the chart variables: shape (B,)."""
        d1 = [jet.partial(a) for a in range(self.n)]
        grad = np.stack([d.value for d in d1])
        hess = np.stack([[d.partial(b).value for b in range(self.n)] for d in d1])
        g_inv = np.einsum("iax,ibx->abx", self.B0, self.B0)
        return np.einsum(
            "abx,abx->x", g_inv, hess - np.einsum("cabx,cx->abx", self.christoffel0, grad)
        )

    def _cov1_starred3(self, x_jets, x0) -> np.ndarray:
        """Covariant derivative of a cubic starred tensor given its component
        jets; returns values of x^{m*}_{ij,k} with shape (n,n,n,n,B)."""
        n = self.n
        ek = np.empty((n, n, n, n, self.batch))
        for m in range(n):
            for i in range(n):
                for j in range(n):
                    ek[m, i, j] = self.frame_derivative(x_jets[m][i][j])
        w0 = self.omega0
        out = (
            ek
            + np.einsum("mljb,klib->mijkb", x0, w0)
            + np.einsum("milb,kljb->mijkb", x0, w0)
            + np.einsum("lijb,klmb->mijkb", x0, w0)
        )
        return out

    @property
    def grad_h(self) -> np.ndarray:
        return self._get("grad_h", lambda: self._cov1_starred3(self.h_jets, self.h0))

    @property
    def grad_H(self) -> np.ndarray:
        """H^{m*}_{,k} with shape (n, n, B)."""

        def build():
            ek = np.stack([self.frame_derivative(self.H_jets[m]) for m in range(self.n)])
            return ek + np.einsum("lb,klmb->mkb", self.H0, self.omega0)

        return self._get("grad_H", build)

    @property
    def grad_c(self) -> np.ndarray:
        def build():
            n = self.n
            eye = np.eye(n)
            gH = self.grad_H
            return (n / (n + 2.0)) * (
                np.einsum("mkb,ij->mijkb", gH, eye)
                + np.einsum("ikb,jm->mijkb", gH, eye)
                + np.einsum("jkb,im->mijkb", gH, eye)
            )

        return self._get("grad_c", build)

    @property
    def grad_hhat(self) -> np.ndarray:
        return self._get("grad_hhat", lambda: self.grad_h - self.grad_c)

    @property
    def T0(self) -> np.ndarray:
        """Conformal-Maslov defect T_ij = (n H^{i*}_{,j} - div JH d_ij)/(n+2)."""

        def build():
            n = self.n
            gH = self.grad_H
            div = np.einsum("mmb->b", gH)
            return (n * gH - div[None, None, :] * np.eye(n)[:, :, None]) / (n + 2.0)

        return self._get("T0", build)

    @property
    def T_from_hhat(self) -> np.ndarray:
        """(1/n) sum_m hhat^{m*}_{ij,m}: the divergence form of T."""
        return self._get("T_alt", lambda: np.einsum("mijmb->ijb", self.grad_hhat) / self.n)

    # -- curvature --------------------------------------------------------

    @property
    def christoffel_jets(self):
        def build():
            n = self.n
            ginv = [[None] * n for _ in range(n)]
            for a in range(n):
                for b in range(a + 1):
                    acc = None
                    for i in range(n):
                        term = self.B[i][a] * self.B[i][b]
                        acc = term if acc is None else acc + term
                    ginv[a][b] = ginv[b][a] = acc
            dg = [[[self.g_jets[a][b].partial(cc) for cc in range(n)] for b in range(n)] for a in range(n)]
            gam = [[[None] * n for _ in range(n)] for _ in range(n)]
            for d in range(n):
                for a in range(n):
                    for b in range(a + 1):
                        acc = None
                        for e_ in range(n):
                            term = ginv[d][e_] * (dg[b][e_][a] + dg[a][e_][b] - dg[a][b][e_])
                            acc = term if acc is None else acc + term
                        gam[d][a][b] = gam[d][b][a] = acc.scaled(0.5)
            return gam

        return self._get("christoffel_jets", build)

    @property
    def christoffel0(self) -> np.ndarray:
        def build():
            n = self.n
            out = np.empty((n, n, n, self.batch))
            for d in range(n):
                for a in range(n):
                    for b in range(n):
                        out[d, a, b] = self.christoffel_jets[d][a][b].value
            return out

        return self._get("christoffel0", build)

    @property
    def curvature_chart(self) -> np.ndarray:
        """R_{abcd} = g(R(d_a, d_b) d_d, d_c) from chart Christoffel symbols."""

        def build():
            n = self.n
            gam = self.christoffel_jets
            gam0 = self.christoffel0
            dgam = np.empty((n, n, n, n, self.batch))
            for c in range(n):
                for d in range(n):
                    for a in range(n):
                        for b in range(n):
                            dgam[c, d, a, b] = gam[d][a][b].partial(c).value
            rup = (
                np.einsum("aebdx->abedx", dgam[:, :, :, :, :])
                - np.einsum("beadx->abedx", dgam)
                + np.einsum("eacx,cbdx->abedx", gam0, gam0)
                - np.einsum("ebcx,cadx->abedx", gam0, gam0)
            )
            g0 = np.moveaxis(self.g0, 0, -1)  # (n, n, B)
            return np.einsum("cex,abedx->abcdx", g0, rup)

        return self._get("curvature_chart", build)

    @property
    def curvature_frame(self) -> np.ndarray:
        """Intrinsic curvature R_{ijkl} = g(R(e_i, e_j) e_l, e_k) in the frame."""

        def build():
            B0 = self.B0  # (n, n, B)
            return np.einsum(
                "iax,jbx,kcx,ldx,abcdx->ijklx", B0, B0, B0, B0, self.curvature_chart
            )

        return self._get("curvature_frame", build)

    @property
    def gauss_rhs(self) -> np.ndarray:
        """Right side of the Gauss equation with the ambient constant."""

        def build():
            n = self.n
            eye = np.eye(n)
            delta = np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye)
            hterm = np.einsum("mikb,mjlb->ijklb", self.h0, self.h0) - np.einsum(
                "milb,mjkb->ijklb", self.h0, self.h0
            )
            return self.c_amb * delta[..., None] + hterm

        return self._get("gauss_rhs", build)

    @property
    def normal_curvature(self) -> np.ndarray:
        """R_{ij k* l*} from the structure equation of the normal connection.

        The normal connection coefficients equal the tangent ones for a
        constant complex structure, but the curvature here is assembled
        independently from derivatives of the coefficient field.
        """

        def build():
            n = self.n
            w0 = self.omega0
            dw = np.empty((n, n, n, n, self.batch))
            for j in range(n):
                for l in range(n):
                    for k in range(n):
                        dw[:, j, l, k] = self.frame_derivative(self.omega_jets[j][l][k])
            first = dw - np.einsum("jilkb->ijlkb", dw)
            quad = np.einsum("jlmb,imkb->ijlkb", w0, w0) - np.einsum(
                "ilmb,jmkb->ijlkb", w0, w0
            )
            # bracket [e_i, e_j]^m = omega_{jm}(e_i) - omega_{im}(e_j)
            br = w0 - w0.transpose(1, 0, 2, 3)
            third = np.einsum("ijmb,mlkb->ijlkb", br, w0)
            F = first + quad - third
            return np.einsum("ijlkb->ijklb", F)

        return self._get("normal_curvature", build)

    # -- maslov form ------------------------------------------------------

    @property
    def maslov_chart_jets(self):
        """Pullback alpha_a = <J H_amb, d_a phi> as jets."""

        def build():
            n = self.n
            Hamb = []
            for c in range(self.m2):
                acc = None
                for m in range(n):
                    term = self.Je[m][c] * self.H_jets[m]
                    acc = term if acc is None else acc + term
                Hamb.append(acc)
            JH = apply_j(Hamb)
            return [jet_dot(JH, self.f[a]) for a in range(n)]

        return self._get("maslov_chart", build)

    def maslov_closedness(self) -> np.ndarray:
        a = self.maslov_chart_jets
        n = self.n
        res = np.zeros(self.batch)
        for i in range(n):
            for j in range(i):
                res = np.maximum(res, np.abs(a[i].partial(j).value - a[j].partial(i).value))
        return res

    # -- second covariant derivatives (order-4 jets) -----------------------

    @property
    def grad_h_jets(self):
        """h^{m*}_{ij,k} as jets (needs order >= 4 ambient jets for use)."""

        def build():
            n = self.n
            hj = self.h_jets
            w = self.omega_jets
            out = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
            for m in range(n):
                for i in range(n):
                    for j in range(n):
                        parts = [hj[m][i][j].partial(a) for a in range(n)]
                        for k in range(n):
                            acc = _lincomb(parts, row_jets=[self.B[k][a] for a in range(n)])
                            for l in range(n):
                                acc = acc + hj[m][l][j] * w[k][l][i]
                                acc = acc + hj[m][i][l] * w[k][l][j]
                                acc = acc + hj[l][i][j] * w[k][l][m]
                            out[m][i][j][k] = acc
            return out

        return self._get("grad_h_jets", build)

    @property
    def grad_H_jets(self):
        def build():
            n = self.n
            out = [[None] * n for _ in range(n)]
            for m in range(n):
                parts = [self.H_jets[m].partial(a) for a in range(n)]
                for k in range(n):
                    acc = _lincomb(parts, row_jets=[self.B[k][a] for a in range(n)])
                    for l in range(n):
                        acc = acc + self.H_jets[l] * self.omega_jets[k][l][m]
                    out[m][k] = acc
            return out

        return self._get("grad_H_jets", build)

    @property
    def grad_hhat_jets(self):
        def build():
            n = self.n
            gh = self.grad_h_jets
            gH = self.grad_H_jets
            out = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
            for k in range(n):
                gHk = [gH[l][k] for l in range(n)]
                for m in range(n):
                    for i in range(n):
                        for j in range(n):
                            out[m][i][j][k] = _minus_c(gh[m][i][j][k], gHk, m, i, j)
            return out

        return self._get("grad_hhat_jets", build)

    @property
    def hhat_sq_jet(self) -> Jet:
        """|hhat|^2 as a jet, valid to order - 2 (order 2 on an order-4 bundle)."""

        def build():
            n = self.n
            acc = None
            for m in range(n):
                for i in range(n):
                    for j in range(n):
                        x = _minus_c(self.h_jets[m][i][j], self.H_jets, m, i, j)
                        acc = x * x if acc is None else acc + x * x
            return acc

        return self._get("hhat_sq_jet", build)

    @property
    def grad_T(self) -> np.ndarray:
        """T_{ij,k} with shape (n, n, n, B): frame derivatives of the T
        components plus connection terms.  Needs an order-4 bundle, where the
        jets of H^{m*}_{,k} are valid to order 1."""

        def build():
            n = self.n
            dgH = np.stack([[self.frame_derivative(x) for x in row] for row in self.grad_H_jets])
            ddiv = np.einsum("mmkb->kb", dgH)
            ek = (n * dgH - np.eye(n)[:, :, None, None] * ddiv) / (n + 2.0)
            T0 = self.T0
            w0 = self.omega0
            return ek + np.einsum("ljb,klib->ijkb", T0, w0) + np.einsum("ilb,kljb->ijkb", T0, w0)

        return self._get("grad_T", build)

    def _cov2_starred4(self, x_jets) -> np.ndarray:
        """Second covariant derivative values x^{m*}_{ij,kp} of a starred
        rank-(3+1) tensor given component jets of its first derivative."""
        n = self.n
        x0 = np.empty((n, n, n, n, self.batch))
        ek = np.empty((n, n, n, n, n, self.batch))
        for m in range(n):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        x0[m, i, j, k] = x_jets[m][i][j][k].value
                        ek[m, i, j, k] = self.frame_derivative(x_jets[m][i][j][k])
        w0 = self.omega0
        out = (
            ek
            + np.einsum("mqjkb,pqib->mijkpb", x0, w0)
            + np.einsum("miqkb,pqjb->mijkpb", x0, w0)
            + np.einsum("mijqb,pqkb->mijkpb", x0, w0)
            + np.einsum("qijkb,pqmb->mijkpb", x0, w0)
        )
        return out

    @property
    def hess_h(self) -> np.ndarray:
        return self._get("hess_h", lambda: self._cov2_starred4(self.grad_h_jets))

    @property
    def hess_hhat(self) -> np.ndarray:
        return self._get("hess_hhat", lambda: self._cov2_starred4(self.grad_hhat_jets))

    # -- scalars ------------------------------------------------------------

    def scalar(self, name: str) -> np.ndarray:
        if name == "h_sq":
            return np.einsum("mijb,mijb->b", self.h0, self.h0)
        if name == "hhat_sq":
            return np.einsum("mijb,mijb->b", self.hhat0, self.hhat0)
        if name == "H_sq":
            return np.einsum("mb,mb->b", self.H0, self.H0)
        if name == "T_sq":
            return np.einsum("ijb,ijb->b", self.T0, self.T0)
        if name == "grad_hhat_sq":
            return np.einsum("mijkb,mijkb->b", self.grad_hhat, self.grad_hhat)
        if name == "sqrt_det_g":
            return self.sqrt_det_g
        if name == "scalar_curvature":
            return np.einsum("ijijb->b", self.curvature_frame)
        raise KeyError(f"unknown scalar {name!r}")


def _zero_like(j: Jet) -> Jet:
    return Jet(j.space, np.zeros_like(j.c), j.order)


def _minus_c(x: Jet, H: list[Jet], m: int, i: int, j: int) -> Jet:
    """x - c^{m*}_{ij} with c = n/(n+2) (H^{m*} d_ij + H^{i*} d_jm + H^{j*} d_im)."""
    fac = len(H) / (len(H) + 2.0)
    for a, b, l in ((i, j, m), (j, m, i), (i, m, j)):
        if a == b:
            x = x - H[l].scaled(fac)
    return x


def _lincomb(jets: list[Jet], row: np.ndarray | None = None, row_jets: list[Jet] | None = None) -> Jet:
    acc = None
    if row_jets is not None:
        for j, w in zip(jets, row_jets):
            term = j * w
            acc = term if acc is None else acc + term
    else:
        for j, w in zip(jets, row):
            if w == 0.0:
                continue
            term = j.scaled(w)
            acc = term if acc is None else acc + term
    return acc if acc is not None else _zero_like(jets[0])


# ---------------------------------------------------------------------------
# Public state
# ---------------------------------------------------------------------------


@dataclass
class MetricData:
    g: np.ndarray
    g_inv: np.ndarray
    christoffels: np.ndarray
    sqrt_det_g: float

    def __post_init__(self):
        eig = np.linalg.eigvalsh(self.g)
        if np.any(eig < 1e-10):
            raise DegenerateMetricError("metric is not positive definite")
        if np.max(np.abs(self.g @ self.g_inv - np.eye(len(self.g)))) > 1e-12 * max(
            1.0, float(np.max(np.abs(self.g)))
        ):
            raise ValueError("metric inverse is inconsistent")


@dataclass
class AdaptedFrame:
    e: np.ndarray
    Je: np.ndarray
    frame_gauge: np.ndarray


@dataclass
class MaslovForm:
    alpha: np.ndarray

    def norm_sq(self) -> float:
        return float(np.dot(self.alpha, self.alpha))


@dataclass
class GeometryState:
    """Bundle of pointwise quantities of a Lagrangian immersion at one point."""

    point: ChartPoint
    immersion_name: str
    params: dict
    n: int
    c_amb: float
    depth: str
    metric: MetricData
    frame: AdaptedFrame
    h: CubicSymTensor
    H: VectorField1
    hhat: CubicSymTensor
    lagrangian_residual: float
    grad_h: np.ndarray | None = None
    grad_hhat: np.ndarray | None = None
    grad_H: np.ndarray | None = None
    T: SymTraceFree2 | None = None
    T_divergence_form: np.ndarray | None = None
    R: np.ndarray | None = None
    R_normal: np.ndarray | None = None
    tolerances: dict | None = None

    def hhat_norm_sq(self) -> float:
        return self.hhat.norm_sq()

    def h_norm_sq(self) -> float:
        return self.h.norm_sq()

    def H_norm_sq(self) -> float:
        return self.H.norm_sq()

    def grad_hhat_norm_sq(self) -> float:
        return float(np.sum(self.grad_hhat**2))

    def to_dict(self) -> dict:
        def arr(x):
            return None if x is None else np.asarray(x).tolist()

        return {
            "schema": 1,
            "kind": "geometry_state",
            "immersion": self.immersion_name,
            "params": _jsonable_params(self.params),
            "ambient": "CPn" if self.c_amb else "Cn",
            "point": {"chart_id": self.point.chart_id, "coords": arr(self.point.coords)},
            "depth": self.depth,
            "metric": {
                "g": arr(self.metric.g),
                "g_inv": arr(self.metric.g_inv),
                "christoffels": arr(self.metric.christoffels),
                "sqrt_det_g": self.metric.sqrt_det_g,
            },
            "frame": {"e": arr(self.frame.e), "Je": arr(self.frame.Je), "gauge": arr(self.frame.frame_gauge)},
            "h": arr(self.h.entries),
            "H": arr(self.H.components),
            "hhat": arr(self.hhat.entries),
            "grad_h": arr(self.grad_h),
            "T": None if self.T is None else arr(self.T.entries),
            "R": arr(self.R),
            "lagrangian_residual": self.lagrangian_residual,
            "tolerances": self.tolerances,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _jsonable_params(params: dict) -> dict:
    out = {}
    for k, v in params.items():
        if isinstance(v, np.ndarray):
            if np.iscomplexobj(v):
                out[k] = [[float(x.real), float(x.imag)] for x in v]
            else:
                out[k] = v.tolist()
        elif isinstance(v, (np.integer, np.floating)):
            out[k] = v.item()
        else:
            out[k] = v
    return out


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

DEPTH_ORDER = {"pointwise": 2, "with_derivatives": 3}


def _ambient_jets(imm: Immersion, chart_id: int, coords: np.ndarray, order: int) -> tuple[list[Jet], float]:
    """Dispatch flat ambient vs homogeneous-sphere lift; returns (jets, c_amb)."""
    if imm.ambient == AMBIENT_CN:
        return imm.jet_fn(chart_id, coords, order), 0.0
    from .cpn import horizontal_lift_jets

    return horizontal_lift_jets(imm, chart_id, coords, order), 1.0


def bundle_at(
    imm: Immersion,
    chart_id: int,
    coords: np.ndarray,
    order: int,
    frame_gauge: np.ndarray | None = None,
) -> FrameBundle:
    """FrameBundle at a batch of points of one chart given as (B, nvars)
    coords; no chart normalization."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    jets, c_amb = _ambient_jets(imm, chart_id, coords.T, order)
    return FrameBundle(jets, imm.source_dim, c_amb, gauge=frame_gauge)


def point_bundle(
    imm: Immersion, p: ChartPoint, order: int, frame_gauge: np.ndarray | None = None
) -> FrameBundle:
    """FrameBundle at one chart point, after moving it to its well-conditioned
    chart (`imm.atlas.normalize`)."""
    p = imm.atlas.normalize(p)
    if not imm.atlas.contains(p):
        raise OutOfDomainError(f"{p} outside chart domain")
    return bundle_at(imm, p.chart_id, p.coords[None, :], order, frame_gauge)


def geometry_state(
    imm: Immersion,
    p: ChartPoint,
    depth: str = "with_derivatives",
    frame_gauge: np.ndarray | None = None,
) -> GeometryState:
    """Full pointwise geometry of the immersion at a chart point."""
    if depth not in DEPTH_ORDER:
        raise ValueError(f"depth must be one of {sorted(DEPTH_ORDER)}")
    p = imm.atlas.normalize(p)
    fb = point_bundle(imm, p, DEPTH_ORDER[depth], frame_gauge)
    return _state_from_bundle(fb, imm, p, depth)


def _state_from_bundle(fb: FrameBundle, imm: Immersion, p: ChartPoint, depth: str) -> GeometryState:
    n = fb.n
    b = 0
    g0 = fb.g0[b]
    g_inv = np.einsum("ia,ib->ab", fb.B0[:, :, b], fb.B0[:, :, b])
    e = np.array([[fb.e[i][c].value[b] for c in range(fb.m2)] for i in range(n)])
    Je = np.array([[fb.Je[i][c].value[b] for c in range(fb.m2)] for i in range(n)])
    h = CubicSymTensor(fb.h0[..., b])
    H = VectorField1(fb.H0[:, b])
    hhat = CubicSymTensor(fb.hhat0[..., b])

    grad_h = grad_hhat = grad_H = T = T_div = R = R_normal = None
    christoffels = np.zeros((n, n, n))
    if fb.order >= 2:
        christoffels = fb.christoffel0[..., b]
    if depth == "with_derivatives":
        grad_h = fb.grad_h[..., b]
        grad_hhat = fb.grad_hhat[..., b]
        grad_H = fb.grad_H[..., b]
        T = SymTraceFree2(0.5 * (fb.T0[..., b] + fb.T0[..., b].T), tol=1e-8)
        T_div = fb.T_from_hhat[..., b]
        R = fb.curvature_frame[..., b]
        R_normal = fb.normal_curvature[..., b]

    metric = MetricData(g0, g_inv, christoffels, float(fb.sqrt_det_g[b]))
    frame = AdaptedFrame(e, Je, fb.gauge)
    return GeometryState(
        point=p,
        immersion_name=imm.name,
        params=imm.params,
        n=n,
        c_amb=fb.c_amb,
        depth=depth,
        metric=metric,
        frame=frame,
        h=h,
        H=H,
        hhat=hhat,
        lagrangian_residual=fb.lagrangian_residual,
        grad_h=grad_h,
        grad_hhat=grad_hhat,
        grad_H=grad_H,
        T=T,
        T_divergence_form=T_div,
        R=R,
        R_normal=R_normal,
        tolerances={"jet": TOL_JET, "fd1": TOL_FD1, "fd2": TOL_FD2},
    )


def intrinsic_curvature(imm: Immersion, p: ChartPoint) -> np.ndarray:
    """R_{ijkl} in the adapted frame, from chart Christoffel symbols."""
    return point_bundle(imm, p, 3).curvature_frame[..., 0]


def maslov_tensor(state: GeometryState) -> SymTraceFree2:
    if state.T is None:
        raise ValueError("state was built without derivatives")
    return state.T


def maslov_one_form(state: GeometryState) -> MaslovForm:
    """alpha_i = <J H, e_i> = -H^{i*} in the adapted frame."""
    return MaslovForm(-state.H.components.copy())


def closedness_residual(imm: Immersion, p: ChartPoint) -> float:
    """max_ab |d_a alpha_b - d_b alpha_a| of the pulled-back Maslov form."""
    return float(point_bundle(imm, p, 3).maslov_closedness()[0])


def maslov_tensor_gradient(imm: Immersion, p: ChartPoint) -> np.ndarray:
    """Covariant derivative T_{ij,k} at a chart point, indexed [i, j, k]."""
    return point_bundle(imm, p, 4).grad_T[..., 0]


def scalar_laplacian(imm: Immersion, field: Callable[[int, list[Jet]], Jet], p: ChartPoint) -> float:
    """Laplace-Beltrami of a chart scalar at a point.

    `field(chart_id, u)` evaluates the scalar in jet arithmetic on the order-2
    coordinate jets `u` (`Jet.variables`) of the chart the point is moved to.
    """
    p = imm.atlas.normalize(p)
    fb = point_bundle(imm, p, 2)
    u = Jet.variables(jet_space(imm.source_dim, 2), p.coords)
    return float(fb.laplacian(field(p.chart_id, u))[0])


# ---------------------------------------------------------------------------
# Batched scalar sampling (quadrature support)
# ---------------------------------------------------------------------------


def scalar_samples(
    imm: Immersion,
    chart_id: int,
    coords: np.ndarray,
    names: list[str],
    order: int = 2,
    chunk: int = 512,
) -> dict[str, np.ndarray]:
    """Evaluate pointwise scalars at many chart points of one chart."""
    coords = np.asarray(coords, dtype=float)
    out = {name: np.empty(len(coords)) for name in names}
    for lo in range(0, len(coords), chunk):
        hi = min(lo + chunk, len(coords))
        fb = bundle_at(imm, chart_id, coords[lo:hi], order)
        for name in names:
            out[name][lo:hi] = fb.scalar(name)
    return out
