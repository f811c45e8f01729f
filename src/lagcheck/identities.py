"""Machine-checkable residuals for the structure equations of Lagrangian
submanifolds: symmetry of the second fundamental form, Codazzi, the curvature
equations, the Ricci identity, and the Simons-type identity and inequality
for the trace-free second fundamental form.

Every check reads a FrameBundle batched over points and returns one residual
per point, an array of shape (B,).  The structural and curvature checks need
an order-3 bundle; the heavy checks (Ricci identity, Laplace contraction,
Simons identity and inequality) need an order-4 one, whose jets carry every
derivative they use, including the chart Laplacian of |hhat|^2 and the
gradient of T.  `run_identity_suite` takes the samples as one batch
(charts, coords) and streams them, each in its own chart, through the one
node loop `geometry.scalar_samples`: every check reads the bundle of a
chunk of samples, so memory does not grow with their number.

Each check yields a named residual; the report marks a check as passed when
its worst residual sits under its tolerance rung (exact-jet, once-FD, or
twice-FD, optionally rescaled) and names the sample it occurred at.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    TOL_FD1,
    TOL_FD2,
    TOL_JET,
    DegenerateMetricError,
    FrameBundle,
    NonLagrangianError,
    bundle_at,  # noqa: F401  (read by perfbench's tracer test until the tracer is retargeted)
    chart_batch,
    named_point,
    scalar_samples,
)
from .immersions import Immersion, OutOfDomainError, jsonable_params
from .tensors import TRISYM_TOL, spectral_summary, symmetry_residual, trisym_violations

# Sign convention for the commutator term of the Simons identity: the square
# is a literal matrix square, so tr (AB - BA)^2 = -N(AB - BA) <= 0.  This is
# the convention under which the identity balances on the product torus.
COMMUTATOR_NOTE = (
    "commutator term uses tr((A B - B A)^2) = -N(A B - B A); verified to "
    "balance the Simons identity on the product torus"
)


def _max_abs(x: np.ndarray) -> np.ndarray:
    """max |x| over every axis but the trailing batch axis."""
    return np.max(np.abs(x), axis=tuple(range(x.ndim - 1)))


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


def check_structural(fb: FrameBundle) -> dict[str, np.ndarray]:
    """Residuals of the pointwise structure equations, one per point, on a
    bundle of order >= 3."""
    n = fb.n
    T = 0.5 * (fb.T0 + fb.T0.transpose(1, 0, 2))
    return {
        "tri_symmetry": symmetry_residual(fb.h0, 3),
        "codazzi_full_symmetry": symmetry_residual(fb.grad_h, 4),
        "h_trace_consistency": _max_abs(np.einsum("miib->mb", fb.h0) / n - fb.H0),
        "H_derivative_symmetry": _max_abs(fb.grad_H - fb.grad_H.transpose(1, 0, 2)),
        "T_consistency": _max_abs(T - fb.T_from_hhat),
        "norm_identity": np.abs(
            fb.scalar("hhat_sq") - fb.scalar("h_sq") + 3.0 * n * n / (n + 2.0) * fb.scalar("H_sq")
        ),
        "lagrangian_condition": fb.lagrangian_residual,
    }


def check_gauss_ricci(fb: FrameBundle) -> dict[str, np.ndarray]:
    """Gauss equation (two-method) and the normal-bundle curvature equation,
    one residual per point."""
    rhs = fb.gauss_rhs
    return {
        "gauss_two_method": _max_abs(fb.curvature_frame - rhs),
        "ricci_equation": _max_abs(fb.normal_curvature - rhs),
    }


# ---------------------------------------------------------------------------
# Ricci identity for the second covariant derivative of h
# ---------------------------------------------------------------------------


def check_ricci_identity(fb: FrameBundle) -> np.ndarray:
    """Residual of the commutation rule for second covariant derivatives of h
    against the curvature contractions, curvature taken from the Gauss form;
    one per point of an order-4 bundle."""
    hess = fb.hess_h
    h0 = fb.h0
    rg = fb.gauss_rhs
    lhs = hess - hess.transpose(0, 1, 2, 4, 3, 5)
    rhs = (
        np.einsum("mkjb,kilpb->mijlpb", h0, rg)
        + np.einsum("mikb,kjlpb->mijlpb", h0, rg)
        + np.einsum("kijb,kmlpb->mijlpb", h0, rg)
    )
    return _max_abs(lhs - rhs)


def lemma_laplace_hhat(fb: FrameBundle) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the rough-Laplacian contraction identity for hhat:
    sum hhat * hhat_{,kk} against (n+2)<hhat, grad T> plus curvature terms,
    one value per point of an order-4 bundle."""
    n = fb.n
    hh = fb.hhat0
    rg = fb.gauss_rhs
    lhs = np.einsum("mijb,mijkkb->b", hh, fb.hess_hhat)
    rhs = (
        (n + 2.0) * np.einsum("mijb,ijmb->b", hh, fb.grad_T)
        + np.einsum("mijb,mlkb,lijkb->b", hh, hh, rg)
        + np.einsum("mijb,milb,lkjkb->b", hh, hh, rg)
        + np.einsum("mijb,likb,lmjkb->b", hh, hh, rg)
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# Simons identity and inequality
# ---------------------------------------------------------------------------


def _curvature_terms(hh: np.ndarray, Hv: np.ndarray) -> dict[str, np.ndarray]:
    """The algebraic curvature terms of the Simons identity; hh (n, n, n, ...)
    and Hv (n, ...) may carry trailing batch axes."""
    n = hh.shape[0]
    prods = np.einsum("iab...,jbc...->ijac...", hh, hh)
    comms = prods - np.swapaxes(prods, 0, 1)
    tr_ab = np.einsum("iab...,jab...->ij...", hh, hh)
    return {
        "commutator_term": np.einsum("ijab...,ijba...->...", comms, comms),
        "trace_sq_term": -np.einsum("ij...,ij...->...", tr_ab, tr_ab),
        "cubic_term": n * np.einsum("mji...,mjt...,lti...,l...->...", hh, hh, hh, Hv),
        "quad_term": n * n / (n + 2.0) * np.einsum("mij...,mjk...,i...,k...->...", hh, hh, Hv, Hv),
    }


def simons_terms(fb: FrameBundle) -> dict[str, np.ndarray]:
    """Every term of the Simons-type identity for (1/2) Lap |hhat|^2, one
    value per point of an order-4 bundle.  The left side is the chart
    Laplacian of the |hhat|^2 jet; the right side comes from frame covariant
    derivatives."""
    n = fb.n
    hh = fb.hhat0
    hs = fb.scalar("hhat_sq")
    return {
        "lhs_half_laplacian": 0.5 * fb.laplacian(fb.hhat_sq_jet),
        "hhat_grad_T": (n + 2.0) * np.einsum("mijb,ijmb->b", hh, fb.grad_T),
        "grad_hhat_sq": fb.scalar("grad_hhat_sq"),
        "c_term": (n + 1.0) * fb.c_amb * hs,
        "HH_term": n * n / (n + 2.0) * hs * fb.scalar("H_sq"),
        **_curvature_terms(hh, fb.H0),
        "hhat_sq": hs,
    }


def check_simons_identity(terms: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (lhs, rhs, relative residual) of the Simons identity from the
    output of `simons_terms`, one value each per point."""
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
    return lhs, rhs, np.abs(lhs - rhs) / (1.0 + np.abs(lhs))


def check_simons_inequality(fb: FrameBundle, terms: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Margin of the Simons inequality and the spectral cross-check of its
    cubic and quadratic terms, from the bundle and its `simons_terms`, one
    value each per point."""
    t = terms
    lower = (
        t["hhat_grad_T"]
        + t["grad_hhat_sq"]
        + t["c_term"]
        + t["HH_term"]
        - 0.5 * (fb.n + 3.0) * t["hhat_sq"] ** 2
    )
    return {
        "margin": t["lhs_half_laplacian"] - lower,
        "spectral_consistency": _spectral_consistency(fb.hhat0, fb.H0, t),
    }


def _spectral_consistency(hh: np.ndarray, Hv: np.ndarray, t: dict[str, np.ndarray]) -> np.ndarray:
    """The eigen-decomposition cross-check of the curvature terms `t`: the
    cubic and quadratic H-contractions equal n sum lambda_i S_i* + n^2/(n+2) sum lambda_i^2."""
    n = hh.shape[0]
    summ = spectral_summary(hh, Hv)
    spectral = n * np.einsum("i...,i...->...", summ.lambdas, summ.s_istar) + n * n / (n + 2.0) * summ.s_h
    return np.abs(t["cubic_term"] + t["quad_term"] - spectral)


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


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


class SampleError(ValueError):
    """A sample whose point values fail the suite's input checks."""


def _validate(fb: FrameBundle) -> dict[str, np.ndarray]:
    """Input checks on every point of a bundle: h and hhat fully symmetric,
    H finite and the symmetrized T trace-free, as (B,) masks of the points
    at fault, each named by its fault."""
    T = 0.5 * (fb.T0 + fb.T0.transpose(1, 0, 2))
    T_scale = np.maximum(1.0, _max_abs(T))
    return {
        "h is not symmetric under index permutations": trisym_violations(fb.h0, TRISYM_TOL),
        "hhat is not symmetric under index permutations": trisym_violations(fb.hhat0, TRISYM_TOL),
        "H has non-finite components": ~np.all(np.isfinite(fb.H0), axis=0),
        "T is not trace-free": np.abs(np.einsum("iib->b", T)) > 1e-8 * T_scale,
    }


def _residuals(fb: FrameBundle, heavy: bool) -> dict[str, np.ndarray]:
    """Every check on every point of one bundle, as (B,) residuals."""
    res = check_structural(fb) | check_gauss_ricci(fb)
    res["maslov_closedness"] = fb.maslov_closedness()
    if heavy:
        res["ricci_identity"] = check_ricci_identity(fb)
        lhs, rhs = lemma_laplace_hhat(fb)
        res["laplace_contraction"] = np.abs(lhs - rhs)
        terms = simons_terms(fb)
        res["simons_identity_rel"] = check_simons_identity(terms)[2]
        ineq = check_simons_inequality(fb, terms)
        res["simons_inequality_margin"] = np.maximum(0.0, -ineq["margin"]) + 0.0  # -0.0 -> +0.0
        res["spectral_consistency"] = ineq["spectral_consistency"]
    return res


def run_identity_suite(
    imm: Immersion, charts, coords, tol_scale: float = 1.0, seed: int | None = None, heavy: bool = True
) -> dict:
    """Evaluate every identity check on every sample point, the (N,) chart
    ids `charts` and (N, n) `coords`, and return the report document.  Each
    entry of its `checks` holds the worst residual of one check over the
    samples, the index of the sample it occurred at (`argmax`) and the
    residual over the tolerance (`headroom`, pass when <= 1).

    The points are moved to their well-conditioned charts and streamed, in
    sample order and each in its own chart, through `scalar_samples` at order
    4 when `heavy` (order 3 otherwise).  A point the geometry fails at is named
    in the error by its sample index, chart and coordinates; then a sample that
    fails the input checks is refused with a SampleError, and a residual that
    overflows, by sample and check, with an OverflowError."""
    charts, coords = np.asarray(charts), np.asarray(coords, dtype=float)
    if len(coords) == 0:
        raise ValueError("the identity suite needs at least one sample point")

    def integrand(fb, *_):
        return _validate(fb) | _residuals(fb, heavy)

    with np.errstate(all="ignore"):  # every non-finite residual is refused below
        try:
            residuals = scalar_samples(imm, *chart_batch(imm, charts, coords), integrand, 4 if heavy else 3)
        except (OutOfDomainError, NonLagrangianError, DegenerateMetricError) as exc:
            raise named_point(exc, f"sample {exc.index}", exc.index) from exc
    for what, bad in residuals.items():  # the input checks come first, in `_validate` order
        if what not in DEFAULT_TOLERANCES and np.any(bad):
            raise SampleError(f"sample {int(np.argmax(bad))}: {what}")

    checks = []
    for name, tol in DEFAULT_TOLERANCES.items():
        if name not in residuals:
            continue
        worst = int(np.argmax(residuals[name]))  # the first NaN, if any: residuals are >= 0
        value = float(residuals[name][worst])
        if not np.isfinite(value):
            raise OverflowError(f"sample {worst}: {name} residual is not finite")
        tol = tol * tol_scale
        checks.append(
            {
                "name": name,
                "max_residual": value,
                "tolerance": tol,
                "pass": value <= tol,
                "argmax": worst,
                "headroom": value / tol,
            }
        )
    return {
        "schema": 1,
        "kind": "identities",
        "immersion": imm.name,
        "params": jsonable_params(imm.params),
        "seed": seed,
        "sample_points": [{"chart_id": int(c), "coords": u.tolist()} for c, u in zip(charts, coords)],
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
        "notes": [COMMUTATOR_NOTE],
    }
