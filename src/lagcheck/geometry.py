"""Pointwise Lagrangian geometry from ambient coordinate jets.

Given the jet of an immersion at a batch of chart points (charts, coords),
this module produces the full geometric state at each: induced metric,
adapted frame (e_i, Je_i), second fundamental form and its trace
decomposition, covariant derivatives, curvature tensors, the
conformal-Maslov defect tensor and its covariant derivative, and
Laplace-Beltrami operators of scalar jets.

Every tensor of a `FrameBundle` is one tensor-valued jet (`jets.Jet` with
leading frame or chart axes) built by a few `jet_einsum` contractions of the
stacked ambient jet.  The frame field is the Gram-Schmidt (Cholesky)
orthonormalization of the coordinate frame.  Its point value comes from a
Cholesky factorization of the metric and the inverse of its factor, both
computed column by column across the batch; the same diagonal screens the
degeneracy check, so eigenvalues are computed only at suspect points.  Its
jet, needed only where a derivative is taken, is lifted from that value by
Newton steps in jet arithmetic, so connection coefficients and derivatives of
frame components are exact.  The second fundamental form is read off the
second derivatives of the immersion, so pointwise scalars (the energy
integrands) take no frame jet at all: at every order h at the points is
read off the degree-1 and degree-2 coefficient rows.  The normal connection
is the tangent one transported by the complex structure, which for a
constant J is an exact equality of coefficient matrices; one
covariant-derivative routine therefore serves tangent and starred indices
alike.  It is applied to h alone: H, hhat and T, their derivatives included,
are fixed linear maps (`_trace`, `_tracefree`, `_maslov_defect`) of the
matching array of h.

Every derivative here is read off a Taylor jet; nothing is finite
differenced.  An order-k ambient jet leaves h, H and |hhat|^2 valid to order
k - 2 and the first covariant derivatives of h to order k - 3, so an order-4
bundle carries the Laplacian of |hhat|^2 and the gradient of T exactly.  As
in `jets`, each jet carries only the degrees its readers use (`FrameBundle`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .immersions import AMBIENT_CN, Immersion, OutOfDomainError, times_i
from .jets import Jet, jet_einsum
from .tensors import c_tensor_array

LAGRANGIAN_TOL = 1e-6
# Smallest admissible lambda_min / lambda_max of the induced metric.  The
# ratio is dilation-invariant, so a valid body passes at any scale.
METRIC_COND_TOL = 1e-12


class NonLagrangianError(ValueError):
    pass


class DegenerateMetricError(ValueError):
    pass


def at_point(error: ValueError, index: int) -> ValueError:
    """Tag an evaluation error with the batch position of the point it names,
    so the caller that knows the point can say which one failed."""
    error.index = index
    return error


def named_point(error: ValueError, where: str, index: int) -> ValueError:
    """The same kind of error, its message prefixed by `where` the point is."""
    return at_point(type(error)(f"{where}: {error}"), index)


def cached(build: Callable) -> property:
    """A lazy quantity of a bundle: the property that returns `build(self)`,
    built on its first read and kept in the bundle's one cache (`_get`) under
    the name of `build`."""
    return property(lambda self: self._get(build.__name__, lambda: build(self)), doc=build.__doc__)


class FrameBundle:
    """All geometric data derived from one ambient jet, batched over points.

    Jet-valued tensors are indexed like their names: `f[c, a]` = d_a phi^c,
    `e[i, c]`, `B[i, a]` (e_i = B_ia f_a), `h_jets[m, i, j]` = h^{m*}_{ij},
    `omega_jets[k, i, j]` = <D_{e_k} e_i, e_j>, `christoffel_jets[d, a, b]`.
    Point values carry a trailing batch axis.

    The point values are read off the rows of phi at every order: the
    frame from its degree-1 rows and h from its degree-2 rows, contracted
    with J e and then expanded to d_a d_b, so an order-2 bundle (the energy
    integrands) builds no jet at all.  Past its frame build a bundle keeps
    phi, B0, sqrt_det_g, the Lagrangian residual and h0, and no frame or
    metric: g0 is built again for the one reader that asks for it.  Every
    jet-valued tensor, f included, is built on first use;
    `covariant_derivative` is applied to h and its first derivative only.

    Each jet carries only the degrees its readers use.  On a bundle of
    order K, f carries K - 1 (its derivative is the Hessian of phi), h and
    the jets made of it K - 2, and h_{,k} K - 3.  g, B, e and J e carry
    max(K - 2, 2), at most K - 1, for h and for one derivative of the
    Christoffel symbols; De and omega one order less.  The Christoffel
    symbols and the Maslov form carry 1, as their readers take one
    derivative at the points, and hess_h uses the order-1 part of h_{,k}.
    """

    def __init__(self, phi: Jet, c_amb: float):
        self.phi = phi
        self.n = phi.space.nvars
        self.c_amb = float(c_amb)
        self.batch = phi.c.shape[-1]
        self._cache: dict = {}
        self._build_frame()

    # -- frame construction -------------------------------------------

    def _build_frame(self):
        """Point values only, in one pass that keeps what its readers use: B =
        L^{-1} for the Cholesky factor g = L L^T of the metric, sqrt det g,
        the Lagrangian residual max |<e_i, J e_j>| of the orthonormal frame
        e_i = B_ia f_a, and h, from the same J e and the degree-2 rows of
        phi.  The coordinate frame f_a = d_a phi at the points is read off
        the degree-1 rows of phi.  f, g, L, e and J e die here, each after
        its last read: g is built again where it is read (`g0`), and frame
        jets, the jet of f included, are built on demand.

        The factorization runs column by column across the batch.  Its
        diagonal gives det g, and lambda_min / lambda_max >= det g / tr(g)^n
        clears almost every point of the degeneracy check; eigenvalues are
        computed only for the rest, including points where the factorization
        broke down."""
        f0 = self._coordinate_frame0()
        g = np.einsum("cax,cbx->abx", f0, f0)  # (n, n, B)
        L, self.B0 = _cholesky_inverse(g)
        diag = np.diagonal(L)  # (B, n)
        with np.errstate(over="ignore", invalid="ignore"):
            self.sqrt_det_g = np.prod(diag, axis=1)  # inf where det g overflows
            # det g / tr(g)^n as a product of ratios, free of overflow; the
            # factor 2 absorbs the round-off of det g near the threshold
            cleared = np.prod(diag**2 / np.trace(g)[:, None], axis=1) >= 2 * METRIC_COND_TOL
        del L, diag
        suspect = np.flatnonzero(~cleared)
        if suspect.size:
            g = np.moveaxis(g[..., suspect], -1, 0)
            finite = np.all(np.isfinite(g), axis=(1, 2))
            ratio = np.full(suspect.size, np.nan)  # a metric that is not finite is bad
            eig = np.linalg.eigvalsh(g[finite])
            ratio[finite] = eig[:, 0] / np.maximum(eig[:, -1], np.finfo(float).tiny)
            bad = np.flatnonzero(~(ratio >= METRIC_COND_TOL))
            if bad.size:
                b = bad[0]
                what = f"degenerate: lambda_min/lambda_max = {ratio[b]:.3e} below {METRIC_COND_TOL:.0e}"
                what = what if finite[b] else "not finite"
                raise at_point(DegenerateMetricError(f"induced metric {what}"), int(suspect[b]))
        del g
        e = np.einsum("iax,cax->icx", self.B0, f0)
        del f0
        Je = times_i(e, axis=1)
        lag = np.max(np.abs(np.einsum("icb,jcb->ijb", e, Je)), axis=(0, 1))
        del e
        self.lagrangian_residual = lag  # (B,)
        bad = np.flatnonzero(lag > LAGRANGIAN_TOL)
        if bad.size:
            raise at_point(
                NonLagrangianError(
                    f"Lagrangian condition violated: max |<e_i, J e_j>| = {lag[bad[0]]:.3e}"
                ),
                int(bad[0]),
            )
        # h, taking no jet at any order: J e is contracted with the degree-2
        # rows of phi, one per multi-index, then expanded to d_a d_b
        # (`second_rows`, `second_factor`) and contracted with B
        sp = self.phi.space
        r1, r2 = sp.ncoef_by_degree[1:3]
        x = np.einsum("mcx,crx->mrx", Je, self.phi.c[:, r1:r2])  # <row, J e_m>
        del Je
        x = x[:, sp.second_rows - r1]  # [m, a, b, x]
        x *= sp.second_factor[:, :, None]
        x = np.einsum("jbx,mabx->majx", self.B0, x)
        self.h0 = np.einsum("iax,majx->mijx", self.B0, x)

    def _coordinate_frame0(self) -> np.ndarray:
        """f[c, a] = d_a phi^c at the points, (2m, n, B): the degree-1 rows of phi."""
        return self.phi.c[:, self.phi.space.pure_rows[1], :]

    @cached
    def g0(self) -> np.ndarray:
        """g_ab = <f_a, f_b> at the points, (n, n, B), as the frame build
        forms it; only the chart curvature reads it."""
        f0 = self._coordinate_frame0()
        return np.einsum("cax,cbx->abx", f0, f0)

    def _get(self, key: str, fn: Callable):
        """The bundle's one cache, `fn()` on the first read of `key`: a plain
        method, so a profiler that wraps it (`perfbench/tracer.py`) sees every build."""
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    # -- frame jets, built on demand ---------------------------------------

    @cached
    def f(self) -> Jet:
        """Coordinate frame f[c, a] = d_a phi^c, valid to order - 1."""
        return self.phi.grad()

    @cached
    def g_jets(self) -> Jet:
        """g_ab = <f_a, f_b> to order max(K - 2, 2), at most K - 1."""
        K = self.phi.order
        return jet_einsum("ca,cb->ab", self.f.truncated(min(max(K - 2, 2), K - 1)), self.f)

    @cached
    def B(self) -> Jet:
        """B = L^{-1} as a jet of the order of g, lifted from its value by
        Newton steps C <- C - P(R) C on the lower-triangular C, where
        R = C g C^T - I and P keeps the strict lower triangle plus half the
        diagonal.  A step doubles the valid degree d -> 2d + 1, so order 1
        takes one step and orders 2 and 3 two."""
        g = self.g_jets
        sp, n = g.space, self.n
        lower = np.tril(np.ones((n, n)), -1) + 0.5 * np.eye(n)
        C = Jet(sp, self.B0[:, :, None], 0)
        while C.order < g.order:
            order = min(2 * C.order + 1, g.order)
            c = np.zeros((n, n, sp.ncoef_by_degree[order], self.batch))
            c[:, :, : C.c.shape[-2]] = C.c
            C = Jet(sp, c, order)
            R = jet_einsum("ib,jb->ij", jet_einsum("ia,ab->ib", C, g), C)
            R.c[..., 0, :] = 0.0
            C = C - jet_einsum("ij,ja->ia", Jet(sp, R.c * lower[..., None, None], order), C)
        return C

    @cached
    def e(self) -> Jet:
        """e_i = B_ia f_a, indexed [i, c]."""
        return jet_einsum("ia,ca->ic", self.B, self.f)

    @cached
    def Je(self) -> Jet:
        return times_i(self.e, axis=1)

    # -- cached derived quantities -------------------------------------

    @cached
    def De(self) -> Jet:
        """D_{e_k} e_j, indexed [k, j, c], one order below e."""
        return jet_einsum("ka,jca->kjc", self.B, self.e.grad())

    @cached
    def h_jets(self) -> Jet:
        """h^{m*}_{ij} = <D_{e_i} e_j, J e_m> = B_ia B_jb <d_a d_b phi, J e_m>,
        valid to order - 2.  The term B_ia (d_a B_jb) <d_b phi, J e_m> of the
        product rule vanishes as a function on a Lagrangian body (and on the
        Legendrian lift of a CP^n body), so no frame derivative enters."""
        hess = self.f.grad()  # [c, a, b] = d_a d_b phi^c
        x = jet_einsum("mc,cab->mab", self.Je, hess)
        x = jet_einsum("jb,mab->maj", self.B, x)
        return jet_einsum("ia,maj->mij", self.B, x)

    @cached
    def omega_jets(self) -> Jet:
        """Connection coefficients omega[k, i, j] = <D_{e_k} e_i, e_j>,
        antisymmetrized in ij, of the order of De."""
        w = jet_einsum("kic,jc->kij", self.De, self.e)
        return (w - w.transpose(0, 2, 1)).scaled(0.5)

    @cached
    def H_jets(self) -> Jet:
        return Jet(self.phi.space, _trace(self.h_jets.c), self.h_jets.order)

    # -- point values ----------------------------------------------------

    @cached
    def H0(self) -> np.ndarray:
        return _trace(self.h0)

    @cached
    def hhat0(self) -> np.ndarray:
        return _tracefree(self.h0, self.H0)

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
        valid one order below x, so x is truncated to that order before the
        omega products; at order 0 the result is just the point value."""
        idx = "abcdefgh"[: x.ndim]
        out = jet_einsum(f"{idx}q,pq->{idx}p", x.grad(), self.B)
        x = x.truncated(out.order)
        for s in idx:
            out = out + jet_einsum(f"{idx.replace(s, 'l')},pl{s}->{idx}p", x, self.omega_jets)
        return out

    @cached
    def grad_h_jets(self) -> Jet:
        """h^{m*}_{ij,k}, indexed [m, i, j, k]."""
        return self.covariant_derivative(self.h_jets)

    @property
    def grad_h(self) -> np.ndarray:
        return self.grad_h_jets.value

    @cached
    def grad_H(self) -> np.ndarray:
        """H^{m*}_{,k} with shape (n, n, B)."""
        return _trace(self.grad_h)

    @cached
    def grad_hhat(self) -> np.ndarray:
        """hhat^{m*}_{ij,k}."""
        return _tracefree(self.grad_h)

    @cached
    def T0(self) -> np.ndarray:
        """Conformal-Maslov defect T_ij = (n H^{i*}_{,j} - div JH d_ij)/(n+2)."""
        return _maslov_defect(self.grad_H)

    @cached
    def T_from_hhat(self) -> np.ndarray:
        """(1/n) sum_m hhat^{m*}_{ij,m}: the divergence form of T."""
        return np.einsum("mijmb->ijb", self.grad_hhat) / self.n

    # -- second covariant derivatives (order-4 bundles) ----------------------

    @cached
    def hess_h(self) -> np.ndarray:
        """h^{m*}_{ij,kp} with shape (n, n, n, n, n, B): the point value, so
        only the order-1 part of h_{,k} is differentiated."""
        return self.covariant_derivative(self.grad_h_jets.truncated(1)).value

    @cached
    def hess_hhat(self) -> np.ndarray:
        return _tracefree(self.hess_h)

    @cached
    def grad_T(self) -> np.ndarray:
        """T_{ij,k} with shape (n, n, n, B): the defect of the trace of
        h_{,kp}, so it needs an order-4 bundle, where the first covariant
        derivative of h is valid to order 1."""
        return _maslov_defect(_trace(self.hess_h))

    @cached
    def hhat_sq_jet(self) -> Jet:
        """|hhat|^2 as a jet, valid to order - 2 (order 2 on an order-4 bundle)."""
        hhat = Jet(self.phi.space, _tracefree(self.h_jets.c), self.h_jets.order)
        return jet_einsum("mij,mij->", hhat, hhat)

    # -- curvature --------------------------------------------------------

    @cached
    def christoffel_jets(self) -> Jet:
        """Gamma^d_ab = g^{de} (d_a g_eb + d_b g_ea - d_e g_ab) / 2, indexed
        [d, a, b], to order 1: its readers take one derivative at the points."""
        dg = self.g_jets.grad().truncated(1)  # [a, b, c] = d_c g_ab
        low = (dg.transpose(0, 2, 1) + dg - dg.transpose(2, 0, 1)).scaled(0.5)
        B = self.B.truncated(1)
        return jet_einsum("de,eab->dab", jet_einsum("ia,ib->ab", B, B), low)

    @property
    def christoffel0(self) -> np.ndarray:
        return self.christoffel_jets.value

    @cached
    def curvature_chart(self) -> np.ndarray:
        """R_{abcd} = g(R(d_a, d_b) d_d, d_c) from chart Christoffel symbols."""
        gam0 = self.christoffel0
        dgam = self.christoffel_jets.grad().value  # [d, a, b, c] = d_c Gamma^d_ab
        rup = (
            np.einsum("ebdax->abedx", dgam)
            - np.einsum("eadbx->abedx", dgam)
            + np.einsum("eacx,cbdx->abedx", gam0, gam0)
            - np.einsum("ebcx,cadx->abedx", gam0, gam0)
        )
        return np.einsum("cex,abedx->abcdx", self.g0, rup)

    @cached
    def curvature_frame(self) -> np.ndarray:
        """Intrinsic curvature R_{ijkl} = g(R(e_i, e_j) e_l, e_k) in the frame."""
        B0 = self.B0  # (n, n, B)
        x = np.einsum("ldx,abcdx->abclx", B0, self.curvature_chart)
        x = np.einsum("kcx,abclx->abklx", B0, x)
        x = np.einsum("jbx,abklx->ajklx", B0, x)
        return np.einsum("iax,ajklx->ijklx", B0, x)

    @cached
    def gauss_rhs(self) -> np.ndarray:
        """Right side of the Gauss equation with the ambient constant."""
        n = self.n
        eye = np.eye(n)
        delta = np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye)
        hterm = np.einsum("mikb,mjlb->ijklb", self.h0, self.h0) - np.einsum(
            "milb,mjkb->ijklb", self.h0, self.h0
        )
        return self.c_amb * delta[..., None] + hterm

    @cached
    def normal_curvature(self) -> np.ndarray:
        """R_{ij k* l*} from the structure equation of the normal connection.

        The normal connection coefficients equal the tangent ones for a
        constant complex structure, but the curvature here is assembled
        independently from derivatives of the coefficient field.
        """
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

    # -- maslov form ------------------------------------------------------

    @cached
    def maslov_chart_jets(self) -> Jet:
        """Pullback alpha_a = <J H_amb, d_a phi> with H_amb = H^{m*} J e_m, to
        order 1: its readers take its derivative at the points."""
        H_amb = jet_einsum("mc,m->c", self.Je, self.H_jets.truncated(1))
        return jet_einsum("c,ca->a", times_i(H_amb), self.f)

    # -- energy scalars, one value per point --------------------------------

    @cached
    def h_sq(self) -> np.ndarray:
        return np.einsum("mijb,mijb->b", self.h0, self.h0)

    @cached
    def hhat_sq(self) -> np.ndarray:
        return np.einsum("mijb,mijb->b", self.hhat0, self.hhat0)

    @cached
    def H_sq(self) -> np.ndarray:
        return np.einsum("mb,mb->b", self.H0, self.H0)

    @cached
    def grad_hhat_sq(self) -> np.ndarray:
        return np.einsum("mijkb,mijkb->b", self.grad_hhat, self.grad_hhat)


def _cholesky_inverse(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L and L^{-1} for g = L L^T, L lower triangular, over a batch-last
    (n, n, B) stack: one column of L, then one row of L^{-1}, at a time for
    the whole batch.  A point where g is not positive definite gets NaN or
    inf entries instead of an error.  The first column of L and the first
    row of L^{-1} have no earlier terms to contract, so they take none."""
    n = g.shape[0]
    L, L_inv = np.zeros_like(g), np.zeros_like(g)
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(n):
            diag, col = g[j, j], g[j + 1 :, j]
            if j:
                row = L[j, :j]
                diag = diag - np.einsum("kx,kx->x", row, row)
                col = col - np.einsum("ikx,kx->ix", L[j + 1 :, :j], row)
            L[j, j] = np.sqrt(diag)
            L[j + 1 :, j] = col / L[j, j]
        for i in range(n):
            L_inv[i, i] = 1.0 / L[i, i]
            if i:
                L_inv[i, :i] = -np.einsum("kx,kjx->jx", L[i, :i], L_inv[:i, :i]) * L_inv[i, i]
    return L, L_inv


def _trace(x: np.ndarray) -> np.ndarray:
    """H^m... = (1/n) sum_i x^m_ii... for x = h, a covariant derivative of h
    or the coefficients of its jet.  Like `_tracefree` and `_maslov_defect`
    it acts on any trailing axes: the frame is orthonormal and omega
    antisymmetric, so the trace commutes with the covariant derivative."""
    n = x.shape[0]
    return np.einsum("ij,mij...->m...", np.eye(n) / n, x)


def _tracefree(x: np.ndarray, trace: np.ndarray | None = None) -> np.ndarray:
    """hhat = h - c(H), applied like `_trace`; `trace` is `_trace(x)` if known."""
    c = c_tensor_array(_trace(x) if trace is None else trace)
    return np.subtract(x, c, out=c)


def _maslov_defect(gH: np.ndarray) -> np.ndarray:
    """T_ij... = (n X_ij... - d_ij X_mm...)/(n+2) for X = nabla H or any
    covariant derivative of it."""
    n = gH.shape[0]
    div = np.einsum("mm...->...", gH)
    eye = np.eye(n).reshape((n, n) + (1,) * (gH.ndim - 2))
    return (n * gH - eye * div) / (n + 2.0)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def chart_batch(imm: Immersion, charts, coords) -> tuple[np.ndarray, np.ndarray]:
    """The (N,) chart ids and (N, n) coords of a batch of points, each moved
    to its well-conditioned chart (`imm.atlas.normalize`).  A batch of
    another shape is refused; a point outside its chart's domain is named by
    its chart and coordinates as given, in an error whose `index` is its
    row."""
    charts, coords = np.asarray(charts), np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != imm.source_dim or charts.shape != coords.shape[:1]:
        shapes = f"chart ids of shape {charts.shape} and coords of shape {coords.shape}"
        raise ValueError(f"{shapes} are not a batch (N,) and (N, {imm.source_dim}) of points of {imm.name}")
    moved = imm.atlas.normalize(charts, coords)
    bad = np.flatnonzero(~imm.atlas.contains(*moved))
    if bad.size:
        where = f"chart {int(charts[bad[0]])}, coords {coords[bad[0]].tolist()}"
        raise at_point(OutOfDomainError(f"{where}: outside the chart domain of {imm.name}"), int(bad[0]))
    return moved


def bundle_at(imm: Immersion, charts, coords: np.ndarray, order: int) -> FrameBundle:
    """FrameBundle at a batch of points given as (B, nvars) coords, each in
    its chart from `charts`: one chart id for every point, or a (B,) array
    with each point's own, so one bundle may span several charts.  The
    ambient jet is the immersion's own in C^n and its horizontal lift to
    S^{2n+1} in CP^n, whose curvature constant is 1.  No chart
    normalization.  A point the geometry fails at is named by its own chart
    and its coordinates in the error, whose `index` is its row."""
    coords = np.asarray(coords, dtype=float)
    try:
        if imm.ambient == AMBIENT_CN:
            return FrameBundle(imm.jets(charts, coords, order), 0.0)
        from .cpn import horizontal_lift_jets

        return FrameBundle(horizontal_lift_jets(imm, charts, coords, order), 1.0)
    except (NonLagrangianError, DegenerateMetricError) as exc:
        chart = int(np.broadcast_to(charts, len(coords))[exc.index])
        where = f"chart {chart}, coords {coords[exc.index].tolist()}"
        raise named_point(exc, where, exc.index) from exc


def geometry_state(imm: Immersion, chart: int, coords, order: int = 3) -> FrameBundle:
    """FrameBundle at one chart point, a batch of one, after moving the point
    to its well-conditioned chart (`chart_batch`)."""
    charts, coords = chart_batch(imm, [chart], [coords])
    return bundle_at(imm, charts, coords, order)


def closedness_residual(imm: Immersion, chart: int, coords) -> float:
    """max_ab |d_a alpha_b - d_b alpha_a| of the pulled-back Maslov form."""
    da = geometry_state(imm, chart, coords, 3).maslov_chart_jets.grad().value[..., 0]  # [a, b] = d_b alpha_a
    return float(np.max(np.abs(da - da.T)))


def maslov_tensor_gradient(imm: Immersion, chart: int, coords) -> np.ndarray:
    """Covariant derivative T_{ij,k} at a chart point, indexed [i, j, k]."""
    return geometry_state(imm, chart, coords, 4).grad_T[..., 0]


def scalar_laplacian(imm: Immersion, chart: int, coords, field: Callable[[int, Jet], Jet]) -> float:
    """Laplace-Beltrami of a chart scalar at a point.

    `field(chart_id, u)` evaluates the scalar in jet arithmetic on the order-2
    coordinate jet `u` (`Jet.variables`, shape (n,)) of the chart the point
    is moved to.
    """
    charts, coords = chart_batch(imm, [chart], [coords])
    fb = bundle_at(imm, charts, coords, 2)
    return float(fb.laplacian(field(int(charts[0]), Jet.variables(fb.phi.space, coords.T)))[0])


# ---------------------------------------------------------------------------
# Batched scalar sampling (quadrature support)
# ---------------------------------------------------------------------------


# Points per bundle, by jet order: the chunk bounds the peak memory.  Each is a
# multiple of 8, which keeps every residual bit-equal to one batch.  At order 2
# it is the memory budget at n = 3: one chunk of the degree-20 rule, its bundle
# and its energy integrand peak at 1.11, 1.11 and 1.28 MB of traced memory
# (1091, 1091 and 1263 B per node) on product_torus, whitney_cn and whitney_cpn,
# below the 1.33, 1.78 and 1.85 MB of a 768-node chunk of older code; at n = 4
# and 5 a node takes about 2 and 3.4-3.7 times as much.  At orders 3 and 4
# (whitney_cn) the peak doubles with the chunk while time is flat at n = 5
# (order 4: 34 MB at 128, 67 MB at 256); at n = 3, 128 points instead of 256
# cost 20% and 11% per op.
SAMPLE_CHUNK = {2: 1016, 3: 256, 4: 128}


def scalar_samples(imm: Immersion, charts, coords, integrand: Callable, order: int = 2) -> dict[str, np.ndarray]:
    """The only node loop: `integrand(fb)` on the order-`order` bundle of
    each chunk of at most `SAMPLE_CHUNK[order]` of the (N, nvars) chart
    coords, taken in order (a one-point tail joins the chunk before it), each
    point in its chart from `charts` (one id, or an (N,) array that may mix
    charts).  The integrand's named (B,) arrays are gathered into one (N,)
    array per name.  A geometry error's `index` is its point's place among
    all N."""
    coords = np.asarray(coords, dtype=float)
    charts = np.broadcast_to(charts, len(coords))
    starts = list(range(0, len(coords), SAMPLE_CHUNK[order]))
    if len(starts) > 1 and len(coords) - starts[-1] == 1:
        starts.pop()  # a one-point bundle takes other einsum paths
    out = {}
    for lo, hi in zip(starts, starts[1:] + [len(coords)]):
        chunk = slice(lo, hi)
        try:
            fb = bundle_at(imm, charts[chunk], coords[chunk], order)
        except (NonLagrangianError, DegenerateMetricError) as exc:
            raise at_point(exc, exc.index + lo)
        values = integrand(fb)
        del fb  # one live bundle: this chunk's is freed before the next is built
        if not out:  # one (N,) array per name, allocated on the first chunk
            out = {name: np.empty(len(coords)) for name in values}
        for name, value in values.items():
            out[name][chunk] = value
    return out
