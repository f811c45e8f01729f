"""Machine-checkable residuals for the structure equations of Lagrangian
submanifolds: symmetry of the second fundamental form, Codazzi, the curvature
equations, the Ricci identity, and the Simons-type identity and inequality
for the trace-free second fundamental form.

The pointwise checks read a GeometryState.  The heavy checks (Ricci identity,
Laplace contraction, Simons identity and inequality) read one order-4
FrameBundle built at a single point by `geometry.point_bundle`; every
derivative they use, including the chart Laplacian of |hhat|^2 and the
gradient of T, comes from its jets.

Each check returns a named residual; the report marks a check as passed when
the residual sits under its tolerance rung (exact-jet, once-FD, or twice-FD,
optionally rescaled).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .geometry import (
    TOL_FD1,
    TOL_FD2,
    TOL_JET,
    FrameBundle,
    GeometryState,
    _state_from_bundle,
    bundle_at,  # noqa: F401  unused; perfbench/tests/test_tracer.py rebinds it here
    point_bundle,
)
from .immersions import ChartPoint, Immersion
from .tensors import spectral_summary, CubicSymTensor, VectorField1

# Sign convention for the commutator term of the Simons identity: the square
# is a literal matrix square, so tr (AB - BA)^2 = -N(AB - BA) <= 0.  This is
# the convention under which the identity balances on the product torus.
COMMUTATOR_NOTE = (
    "commutator term uses tr((A B - B A)^2) = -N(A B - B A); verified to "
    "balance the Simons identity on the product torus"
)


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


def check_structural(state: GeometryState) -> dict[str, float]:
    """Residuals of the pointwise structure equations at one state."""
    if state.grad_h is None:
        raise ValueError("state must be built with derivatives")
    h = state.h.entries
    n = state.n
    res = {}

    tri = 0.0
    for perm in permutations(range(3)):
        tri = max(tri, float(np.max(np.abs(np.transpose(h, perm) - h))))
    res["tri_symmetry"] = tri

    cod = 0.0
    for perm in permutations(range(4)):
        cod = max(cod, float(np.max(np.abs(np.transpose(state.grad_h, perm) - state.grad_h))))
    res["codazzi_full_symmetry"] = cod

    res["h_trace_consistency"] = float(
        np.max(np.abs(np.einsum("mii->m", h) / n - state.H.components))
    )
    res["H_derivative_symmetry"] = float(np.max(np.abs(state.grad_H - state.grad_H.T)))
    res["T_consistency"] = float(np.max(np.abs(state.T.entries - state.T_divergence_form)))
    res["norm_identity"] = norm_identity_pointwise(state)
    res["lagrangian_condition"] = state.lagrangian_residual
    return res


def norm_identity_pointwise(state: GeometryState) -> float:
    n = state.n
    return abs(
        state.hhat_norm_sq() - state.h_norm_sq() + 3.0 * n * n / (n + 2.0) * state.H_norm_sq()
    )


def gauss_rhs_from_state(state: GeometryState) -> np.ndarray:
    n = state.n
    eye = np.eye(n)
    h = state.h.entries
    delta = np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye)
    return state.c_amb * delta + np.einsum("mik,mjl->ijkl", h, h) - np.einsum(
        "mil,mjk->ijkl", h, h
    )


def check_gauss_ricci(state: GeometryState) -> dict[str, float]:
    """Gauss equation (two-method) and the normal-bundle curvature equation."""
    rhs = gauss_rhs_from_state(state)
    return {
        "gauss_two_method": float(np.max(np.abs(state.R - rhs))),
        "ricci_equation": float(np.max(np.abs(state.R_normal - rhs))),
    }


# ---------------------------------------------------------------------------
# Ricci identity for the second covariant derivative of h
# ---------------------------------------------------------------------------


def check_ricci_identity(fb: FrameBundle) -> float:
    """Residual of the commutation rule for second covariant derivatives of h
    against the curvature contractions, curvature taken from the Gauss form.

    `fb` is an order-4 bundle at one point (`point_bundle(imm, p, 4)`)."""
    hess = fb.hess_h[..., 0]
    h0 = fb.h0[..., 0]
    rg = fb.gauss_rhs[..., 0]
    lhs = hess - hess.transpose(0, 1, 2, 4, 3)
    rhs = (
        np.einsum("mkj,kilp->mijlp", h0, rg)
        + np.einsum("mik,kjlp->mijlp", h0, rg)
        + np.einsum("kij,kmlp->mijlp", h0, rg)
    )
    return float(np.max(np.abs(lhs - rhs)))


def lemma_laplace_hhat(fb: FrameBundle) -> tuple[float, float]:
    """Both sides of the rough-Laplacian contraction identity for hhat:
    sum hhat * hhat_{,kk} against (n+2)<hhat, grad T> plus curvature terms,
    on an order-4 bundle at one point."""
    n = fb.n
    hh = fb.hhat0[..., 0]
    hess = fb.hess_hhat[..., 0]
    rg = fb.gauss_rhs[..., 0]
    lhs = float(np.einsum("mij,mijkk->", hh, hess))
    rhs = (n + 2.0) * float(np.einsum("mij,ijm->", hh, fb.grad_T[..., 0]))
    rhs += float(np.einsum("mij,mlk,lijk->", hh, hh, rg))
    rhs += float(np.einsum("mij,mil,lkjk->", hh, hh, rg))
    rhs += float(np.einsum("mij,lik,lmjk->", hh, hh, rg))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Simons identity and inequality
# ---------------------------------------------------------------------------


def simons_terms(fb: FrameBundle) -> dict[str, float]:
    """Every term of the Simons-type identity for (1/2) Lap |hhat|^2, on an
    order-4 bundle at one point.  The left side is the chart Laplacian of the
    |hhat|^2 jet; the right side comes from frame covariant derivatives."""
    n = fb.n
    hh = fb.hhat0[..., 0]
    Hv = fb.H0[:, 0]
    hs = float(fb.scalar("hhat_sq")[0])

    prods = np.einsum("iab,jbc->ijac", hh, hh)
    comms = prods - prods.transpose(1, 0, 2, 3)
    comm_term = float(np.einsum("ijab,ijba->", comms, comms))
    tr_ab = np.einsum("iab,jab->ij", hh, hh)

    terms = {
        "lhs_half_laplacian": 0.5 * float(fb.laplacian(fb.hhat_sq_jet)[0]),
        "hhat_grad_T": (n + 2.0) * float(np.einsum("mij,ijm->", hh, fb.grad_T[..., 0])),
        "grad_hhat_sq": float(fb.scalar("grad_hhat_sq")[0]),
        "c_term": (n + 1.0) * fb.c_amb * hs,
        "HH_term": n * n / (n + 2.0) * hs * float(fb.scalar("H_sq")[0]),
        "commutator_term": comm_term,
        "trace_sq_term": -float(np.sum(tr_ab**2)),
        "cubic_term": n * float(np.einsum("mji,mjt,lti,l->", hh, hh, hh, Hv)),
        "quad_term": n * n / (n + 2.0) * float(np.einsum("mij,mjk,i,k->", hh, hh, Hv, Hv)),
        "hhat_sq": hs,
    }
    return terms


def check_simons_identity(terms: dict[str, float]) -> tuple[float, float, float]:
    """Returns (lhs, rhs, relative residual) of the Simons identity from the
    output of `simons_terms`."""
    t = terms
    lhs = t["lhs_half_laplacian"]
    rhs = (
        t["hhat_grad_T"]
        + t["grad_hhat_sq"]
        + t["c_term"]
        + t["HH_term"]
        + t["commutator_term"]
        + t["trace_sq_term"]
        + t["cubic_term"]
        + t["quad_term"]
    )
    return lhs, rhs, abs(lhs - rhs) / (1.0 + abs(lhs))


def check_simons_inequality(fb: FrameBundle, terms: dict[str, float]) -> dict[str, float]:
    """Margin of the Simons inequality plus the isolated algebraic step, from
    the bundle and its `simons_terms`."""
    t = terms
    lower = (
        t["hhat_grad_T"]
        + t["grad_hhat_sq"]
        + t["c_term"]
        + t["HH_term"]
        - 0.5 * (fb.n + 3.0) * t["hhat_sq"] ** 2
    )
    alg = algebraic_simons_bound(fb.hhat0[..., 0], fb.H0[:, 0])
    return {
        "margin": t["lhs_half_laplacian"] - lower,
        "algebraic_margin": alg["margin"],
        "spectral_consistency": alg["spectral_consistency"],
        "intermediate_margin": alg["intermediate_margin"],
    }


def curvature_contraction_closed_forms(hh: np.ndarray, Hv: np.ndarray, c_amb: float) -> dict[str, float]:
    """Brute-force assembly of the three curvature contractions of hhat with
    the Gauss-form curvature, against their closed forms in |hhat|, |H|, the
    cubic trace sum and the quadratic H-contraction.

    Returns the residual of each contraction and of the equality between the
    first and third (which differ only by rearranging a fully symmetric
    tensor)."""
    n = hh.shape[0]
    from .tensors import c_tensor_array

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


def algebraic_simons_bound(hh: np.ndarray, Hv: np.ndarray) -> dict[str, float]:
    """The purely algebraic estimate step: the curvature terms of the Simons
    identity dominate -(n+3)/2 |hhat|^4 for any trace-free tri-symmetric hhat.

    Also reports the eigen-decomposition cross-check (the cubic and quadratic
    H-contractions equal n sum lambda_i S_i* + n^2/(n+2) sum lambda_i^2) and
    the unasserted intermediate line with (|H| lambda_i + S_i*)^2.
    """
    n = hh.shape[0]
    hs = float(np.einsum("mij,mij->", hh, hh))
    prods = np.einsum("iab,jbc->ijac", hh, hh)
    comms = prods - prods.transpose(1, 0, 2, 3)
    comm_term = float(np.einsum("ijab,ijba->", comms, comms))
    tr_ab = np.einsum("iab,jab->ij", hh, hh)
    trace_sq_term = -float(np.sum(tr_ab**2))
    cubic = n * float(np.einsum("mji,mjt,lti,l->", hh, hh, hh, Hv))
    quad = n * n / (n + 2.0) * float(np.einsum("mij,mjk,i,k->", hh, hh, Hv, Hv))

    margin = comm_term + trace_sq_term + cubic + quad + 0.5 * (n + 3.0) * hs * hs

    summ = spectral_summary(CubicSymTensor(hh, tol=1e-6), VectorField1(Hv))
    spectral = abs(
        cubic + quad - (n * float(np.dot(summ.lambdas, summ.s_istar)) + n * n / (n + 2.0) * summ.s_h)
    )
    Hnorm = float(np.sqrt(np.dot(Hv, Hv)))
    inter_line = 0.5 * n * float(np.sum((Hnorm * summ.lambdas + summ.s_istar) ** 2))
    intermediate = comm_term + trace_sq_term + cubic + quad + 0.5 * (n + 3.0) * hs * hs - inter_line
    return {
        "margin": margin,
        "spectral_consistency": spectral,
        "intermediate_margin": intermediate,
    }


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    max_residual: float
    tolerance: float
    passed: bool


@dataclass
class IdentityReport:
    immersion: str
    params: dict
    seed: int | None
    sample_points: list
    checks: list[CheckResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        from .geometry import _jsonable_params

        return {
            "schema": 1,
            "kind": "identities",
            "immersion": self.immersion,
            "params": _jsonable_params(self.params),
            "seed": self.seed,
            "sample_points": [
                {"chart_id": p.chart_id, "coords": p.coords.tolist()} for p in self.sample_points
            ],
            "checks": [
                {
                    "name": c.name,
                    "max_residual": c.max_residual,
                    "tolerance": c.tolerance,
                    "pass": c.passed,
                }
                for c in self.checks
            ],
            "all_pass": self.all_pass,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


DEFAULT_TOLERANCES = {
    "tri_symmetry": TOL_JET,
    "codazzi_full_symmetry": TOL_FD1,
    "h_trace_consistency": TOL_JET,
    "H_derivative_symmetry": TOL_JET,
    "T_consistency": 1e-8,
    "norm_identity": 1e-10,
    "lagrangian_condition": 1e-6,
    "gauss_two_method": TOL_FD1,
    "ricci_equation": 1e-5,
    "maslov_closedness": TOL_FD1,
    "ricci_identity": TOL_FD2,
    "laplace_contraction": TOL_JET,
    "simons_identity_rel": TOL_JET,
    "simons_inequality_margin": TOL_JET,
    "spectral_consistency": 1e-10,
}

HEAVY_POINT_COUNT = 3  # points per report for the order-4 checks


def run_identity_suite(
    imm: Immersion,
    points: list[ChartPoint],
    tol_scale: float = 1.0,
    seed: int | None = None,
    heavy: bool = True,
) -> IdentityReport:
    """Evaluate every identity check over the sample points and tabulate.

    Each sample point gets one order-3 bundle for the pointwise checks; each
    heavy point gets one order-4 bundle and one `simons_terms` for the rest."""
    agg: dict[str, float] = {}

    def bump(name, value):
        agg[name] = max(agg.get(name, 0.0), float(value))

    for p in points:
        p = imm.atlas.normalize(p)
        fb = point_bundle(imm, p, 3)
        state = _state_from_bundle(fb, imm, p, "with_derivatives")
        for name, val in check_structural(state).items():
            bump(name, val)
        for name, val in check_gauss_ricci(state).items():
            bump(name, val)
        bump("maslov_closedness", fb.maslov_closedness()[0])

    if heavy:
        for p in points[:HEAVY_POINT_COUNT]:
            fb = point_bundle(imm, p, 4)
            bump("ricci_identity", check_ricci_identity(fb))
            lhs, rhs = lemma_laplace_hhat(fb)
            bump("laplace_contraction", abs(lhs - rhs))
            terms = simons_terms(fb)
            _, _, rel = check_simons_identity(terms)
            bump("simons_identity_rel", rel)
            ineq = check_simons_inequality(fb, terms)
            bump("simons_inequality_margin", max(0.0, -ineq["margin"]))
            bump("spectral_consistency", ineq["spectral_consistency"])

    report = IdentityReport(
        immersion=imm.name,
        params=imm.params,
        seed=seed,
        sample_points=list(points),
        notes=[COMMUTATOR_NOTE],
    )
    for name in DEFAULT_TOLERANCES:
        if name not in agg:
            continue
        tol = DEFAULT_TOLERANCES[name] * tol_scale
        report.checks.append(CheckResult(name, agg[name], tol, agg[name] <= tol))
    return report
