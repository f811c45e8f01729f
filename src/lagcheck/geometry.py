"""Pointwise Lagrangian geometry from ambient coordinate jets.

Given the jet of an immersion at a chart point, this module produces the full
geometric state: induced metric, adapted frame (e_i, Je_i), second
fundamental form and its trace decomposition, covariant derivatives,
curvature tensors, the conformal-Maslov defect tensor and its covariant
derivative, and Laplace-Beltrami operators of scalar jets.

Every tensor of a `FrameBundle` is one tensor-valued jet (`jets.Jet` with
leading frame or chart axes) built by a few `jet_einsum` contractions of the
stacked ambient jet.  The frame field is the Gram-Schmidt (Cholesky)
orthonormalization of the coordinate frame, built inside jet arithmetic, so
connection coefficients and derivatives of frame components are exact.  The
normal connection is the tangent one transported by the complex structure,
which for a constant J is an exact equality of coefficient matrices; one
covariant-derivative routine therefore serves tangent and starred indices
alike.

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

from .immersions import AMBIENT_CN, ChartPoint, Immersion, OutOfDomainError, symplectic_j_matrix
from .jets import Jet, jet_einsum, jet_space
from .tensors import (
    CubicSymTensor,
    SymTraceFree2,
    VectorField1,
    c_tensor_array,
)

LAGRANGIAN_TOL = 1e-6
# Smallest admissible lambda_min / lambda_max of the induced metric.  The
# ratio is dilation-invariant, so a valid body passes at any scale.
METRIC_COND_TOL = 1e-12

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


class FrameBundle:
    """All geometric data derived from one ambient jet, batched over points.

    Jet-valued tensors are indexed like their names: `f[c, a]` = d_a phi^c,
    `e[i, c]`, `B[i, a]` (e_i = B_ia f_a), `h_jets[m, i, j]` = h^{m*}_{ij},
    `omega_jets[k, i, j]` = <D_{e_k} e_i, e_j>, `christoffel_jets[d, a, b]`.
    Point values carry a trailing batch axis.
    """

    def __init__(self, phi: list[Jet], n: int, c_amb: float, gauge: np.ndarray | None = None):
        self.phi = Jet.stack(phi)
        self.n = n
        self.c_amb = float(c_amb)
        self.order = self.phi.order
        self.m2 = len(phi)
        self.batch = self.phi.c.shape[-1]
        self.gauge = np.eye(n) if gauge is None else np.asarray(gauge, dtype=float)
        self.J = symplectic_j_matrix(self.m2 // 2)
        self._cache: dict = {}
        self._build_frame()

    # -- frame construction -------------------------------------------

    def _build_frame(self):
        n = self.n
        self.f = self.phi.grad()
        g = self.g_jets = jet_einsum("ca,cb->ab", self.f, self.f)
        self.g0 = np.moveaxis(g.value, -1, 0)  # (B, n, n)
        eig = np.linalg.eigvalsh(self.g0)
        ratio = eig[:, 0] / np.maximum(eig[:, -1], np.finfo(float).tiny)
        if np.any(ratio < METRIC_COND_TOL):
            raise DegenerateMetricError(
                f"induced metric degenerate: lambda_min/lambda_max = {ratio.min():.3e}"
                f" below {METRIC_COND_TOL:.0e}"
            )
        self.sqrt_det_g = np.sqrt(np.linalg.det(self.g0))

        # Cholesky g = L L^T on scalar entries, then the rows of B = L^{-1},
        # B_i = (u_i - sum_{k<i} L_ik B_k) / L_ii, which map the coordinate
        # frame to the orthonormal frame e_i = sum_a B_ia f_a.
        L = [[] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                acc = g[i, j]
                for k in range(j):
                    acc = acc - L[i][k] * L[j][k]
                L[i].append(acc.sqrt() if i == j else acc / L[j][j])
        unit = np.zeros((n, n, g.space.ncoef, 1))
        unit[:, :, 0, 0] = np.eye(n)
        rows = []
        for i in range(n):
            acc = Jet(g.space, unit[i])
            for k in range(i):
                acc = acc - rows[k] * L[i][k]
            rows.append(acc / L[i][i])
        B = Jet.stack(rows)
        if not np.allclose(self.gauge, np.eye(n)):
            B = jet_einsum("ik,ka->ia", self.gauge, B)
        self.B = B
        self.B0 = B.value  # (n, n, B)

        self.e = jet_einsum("ia,ca->ic", B, self.f)
        self.Je = jet_einsum("cd,id->ic", self.J, self.e)
        lag = float(np.max(np.abs(np.einsum("icb,jcb->ijb", self.e.value, self.Je.value))))
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
    def De(self) -> Jet:
        """D_{e_k} e_j, indexed [k, j, c]."""
        return self._get("De", lambda: jet_einsum("ka,jca->kjc", self.B, self.e.grad()))

    @property
    def h_jets(self) -> Jet:
        """h^{m*}_{ij} = <D_{e_i} e_j, J e_m>, symmetrized in ij."""

        def build():
            h = jet_einsum("ijc,mc->mij", self.De, self.Je)
            return (h + h.transpose(0, 2, 1)).scaled(0.5)

        return self._get("h_jets", build)

    @property
    def omega_jets(self) -> Jet:
        """Connection coefficients omega[k, i, j] = <D_{e_k} e_i, e_j>,
        antisymmetrized in ij."""

        def build():
            w = jet_einsum("kic,jc->kij", self.De, self.e)
            return (w - w.transpose(0, 2, 1)).scaled(0.5)

        return self._get("omega_jets", build)

    @property
    def H_jets(self) -> Jet:
        return self._get("H_jets", lambda: jet_einsum("ij,mij->m", np.eye(self.n) / self.n, self.h_jets))

    # -- point values ----------------------------------------------------

    @property
    def h0(self) -> np.ndarray:
        return self.h_jets.value

    @property
    def H0(self) -> np.ndarray:
        return self.H_jets.value

    @property
    def hhat0(self) -> np.ndarray:
        return self._get("hhat0", lambda: self.h0 - c_tensor_array(self.H0))

    @property
    def omega0(self) -> np.ndarray:
        return self.omega_jets.value

    def frame_derivative(self, jet: Jet) -> np.ndarray:
        """e_p applied to every component of a jet: values of shape
        (*jet.shape, n, B), the derivative axis last."""
        return np.einsum("...ab,pab->...pb", jet.grad().value, self.B0)

    def laplacian(self, jet: Jet) -> np.ndarray:
        """Laplace-Beltrami g^{ab}(d_a d_b f - Gamma^c_ab d_c f) of a scalar
        jet valid to order >= 2 in the chart variables: shape (B,)."""
        d1 = jet.grad()
        grad = d1.value
        hess = d1.grad().value
        g_inv = np.einsum("iax,ibx->abx", self.B0, self.B0)
        return np.einsum(
            "abx,abx->x", g_inv, hess - np.einsum("cabx,cx->abx", self.christoffel0, grad)
        )

    # -- covariant derivatives ---------------------------------------------

    def covariant_derivative(self, x: Jet) -> Jet:
        """x_{..., p} as a jet with the derivative axis appended: the frame
        derivative e_p of every component plus one omega contraction per
        tensor axis.  Tangent and starred indices transform alike, since the
        normal connection is the tangent one transported by J.  The result is
        valid one order below x; at order 0 it is just the point value."""
        idx = "abcdefgh"[: x.ndim]
        out = jet_einsum(f"{idx}q,pq->{idx}p", x.grad(), self.B)
        for s in idx:
            out = out + jet_einsum(f"{idx.replace(s, 'l')},pl{s}->{idx}p", x, self.omega_jets)
        return out

    @property
    def grad_h_jets(self) -> Jet:
        """h^{m*}_{ij,k}, indexed [m, i, j, k]."""
        return self._get("grad_h_jets", lambda: self.covariant_derivative(self.h_jets))

    @property
    def grad_H_jets(self) -> Jet:
        """H^{m*}_{,k}, indexed [m, k]."""
        return self._get("grad_H_jets", lambda: self.covariant_derivative(self.H_jets))

    @property
    def grad_h(self) -> np.ndarray:
        return self.grad_h_jets.value

    @property
    def grad_H(self) -> np.ndarray:
        """H^{m*}_{,k} with shape (n, n, B)."""
        return self.grad_H_jets.value

    @property
    def grad_hhat(self) -> np.ndarray:
        """hhat^{m*}_{ij,k}: c commutes with the covariant derivative."""
        return self._get("grad_hhat", lambda: self.grad_h - c_tensor_array(self.grad_H))

    @property
    def T0(self) -> np.ndarray:
        """Conformal-Maslov defect T_ij = (n H^{i*}_{,j} - div JH d_ij)/(n+2)."""
        return self._get("T0", lambda: _maslov_defect(self.grad_H))

    @property
    def T_from_hhat(self) -> np.ndarray:
        """(1/n) sum_m hhat^{m*}_{ij,m}: the divergence form of T."""
        return self._get("T_alt", lambda: np.einsum("mijmb->ijb", self.grad_hhat) / self.n)

    # -- second covariant derivatives (order-4 bundles) ----------------------

    @property
    def hess_h(self) -> np.ndarray:
        """h^{m*}_{ij,kp} with shape (n, n, n, n, n, B)."""
        return self._get("hess_h", lambda: self.covariant_derivative(self.grad_h_jets).value)

    @property
    def hess_H(self) -> np.ndarray:
        """H^{m*}_{,kp} with shape (n, n, n, B)."""
        return self._get("hess_H", lambda: self.covariant_derivative(self.grad_H_jets).value)

    @property
    def hess_hhat(self) -> np.ndarray:
        return self._get("hess_hhat", lambda: self.hess_h - c_tensor_array(self.hess_H))

    @property
    def grad_T(self) -> np.ndarray:
        """T_{ij,k} with shape (n, n, n, B).  T is linear in the first
        covariant derivative of H, so this needs an order-4 bundle, where
        that derivative is valid to order 1."""
        return self._get("grad_T", lambda: _maslov_defect(self.hess_H))

    @property
    def hhat_sq_jet(self) -> Jet:
        """|hhat|^2 as a jet, valid to order - 2 (order 2 on an order-4 bundle)."""

        def build():
            # c is linear in H, so hhat = h - c(H) acts on the coefficients
            h = self.h_jets
            hhat = Jet(h.space, h.c - c_tensor_array(self.H_jets.c), h.order)
            return jet_einsum("mij,mij->", hhat, hhat)

        return self._get("hhat_sq_jet", build)

    # -- curvature --------------------------------------------------------

    @property
    def christoffel_jets(self) -> Jet:
        """Gamma^d_ab = g^{de} (d_a g_eb + d_b g_ea - d_e g_ab) / 2, indexed [d, a, b]."""

        def build():
            dg = self.g_jets.grad()  # [a, b, c] = d_c g_ab
            low = (dg.transpose(0, 2, 1) + dg - dg.transpose(2, 0, 1)).scaled(0.5)
            g_inv = jet_einsum("ia,ib->ab", self.B, self.B)
            return jet_einsum("de,eab->dab", g_inv, low)

        return self._get("christoffel_jets", build)

    @property
    def christoffel0(self) -> np.ndarray:
        return self.christoffel_jets.value

    @property
    def curvature_chart(self) -> np.ndarray:
        """R_{abcd} = g(R(d_a, d_b) d_d, d_c) from chart Christoffel symbols."""

        def build():
            gam0 = self.christoffel0
            dgam = self.christoffel_jets.grad().value  # [d, a, b, c] = d_c Gamma^d_ab
            rup = (
                np.einsum("ebdax->abedx", dgam)
                - np.einsum("eadbx->abedx", dgam)
                + np.einsum("eacx,cbdx->abedx", gam0, gam0)
                - np.einsum("ebcx,cadx->abedx", gam0, gam0)
            )
            return np.einsum("cex,abedx->abcdx", self.g_jets.value, rup)

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
            w0 = self.omega0
            dw = np.moveaxis(self.frame_derivative(self.omega_jets), 3, 0)  # [i, j, l, k] = e_i(omega_jlk)
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
    def maslov_chart_jets(self) -> Jet:
        """Pullback alpha_a = <J H_amb, d_a phi> with H_amb = H^{m*} J e_m."""

        def build():
            H_amb = jet_einsum("mc,m->c", self.Je, self.H_jets)
            JH = jet_einsum("cd,d->c", self.J, H_amb)
            return jet_einsum("c,ca->a", JH, self.f)

        return self._get("maslov_chart", build)

    def maslov_closedness(self) -> np.ndarray:
        """max_ab |d_a alpha_b - d_b alpha_a| per point."""
        da = self.maslov_chart_jets.grad().value  # [a, b] = d_b alpha_a
        return np.max(np.abs(da - da.transpose(1, 0, 2)), axis=(0, 1))

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


def _maslov_defect(gH: np.ndarray) -> np.ndarray:
    """T_ij... = (n X_ij... - d_ij X_mm...)/(n+2) for X = nabla H or any
    covariant derivative of it (the trace commutes with nabla)."""
    n = gH.shape[0]
    div = np.einsum("mm...->...", gH)
    eye = np.eye(n).reshape((n, n) + (1,) * (gH.ndim - 2))
    return (n * gH - eye * div) / (n + 2.0)


# ---------------------------------------------------------------------------
# Public state
# ---------------------------------------------------------------------------


@dataclass
class MetricData:
    g: np.ndarray
    g_inv: np.ndarray
    christoffels: np.ndarray
    sqrt_det_g: float


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
    e = fb.e.value[..., b]
    Je = fb.Je.value[..., b]
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


# Pointwise scalars need h, so order-2 ambient jets; the chunk bounds the
# batch of one bundle and with it the peak memory.
SAMPLE_ORDER = 2
SAMPLE_CHUNK = 256


def scalar_samples(imm: Immersion, chart_id: int, coords: np.ndarray, names: list[str]) -> dict[str, np.ndarray]:
    """Evaluate pointwise scalars at many chart points of one chart."""
    coords = np.asarray(coords, dtype=float)
    out = {name: np.empty(len(coords)) for name in names}
    for lo in range(0, len(coords), SAMPLE_CHUNK):
        hi = min(lo + SAMPLE_CHUNK, len(coords))
        fb = bundle_at(imm, chart_id, coords[lo:hi], SAMPLE_ORDER)
        for name in names:
            out[name][lo:hi] = fb.scalar(name)
    return out
