"""Machine-checkable residuals for the structure equations of Lagrangian
submanifolds: symmetry of the second fundamental form, Codazzi, the curvature
equations, the Ricci identity, and the Simons-type identity and inequality
for the trace-free second fundamental form.

`CHECKS` declares every check, in report order: its name, the order of the
bundle it reads, its length weight and the form of its residual.  The
structural and curvature checks read an order-3 bundle; the heavy checks
(Ricci identity, Laplace contraction, Simons identity and inequality) read an
order-4 one, whose jets carry every derivative they use, including the chart
Laplacian of |hhat|^2 and the gradient of T.  A check producer returns the two
sides of its checks, each an iterable of signed terms of shape (..., B) on a
bundle batched over B points (the Ricci identity's are generators, making each
term just before it is summed); `residual` reduces them to one per point.

`run_identity_suite` takes the samples as one batch (charts, coords) and
streams them, each in its own chart, through the one node loop
`geometry.scalar_samples`: every check reads the bundle of a chunk of
samples, so memory does not grow with their number.  The report marks a
check as passed when its worst residual sits under the one rung `RUNG`,
optionally rescaled, and names the sample it occurred at.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable

import numpy as np

from .geometry import (
    DegenerateMetricError,
    FrameBundle,
    NonLagrangianError,
    bundle_at,  # noqa: F401  (read by perfbench's tracer test until the tracer is retargeted)
    chart_batch,
    named_point,
    scalar_samples,
)
from .immersions import Immersion, OutOfDomainError
from .tensors import spectral_summary, symmetry_residual

# Sign convention for the commutator term of the Simons identity: the square
# is a literal matrix square, so tr (AB - BA)^2 = -N(AB - BA) <= 0.  This is
# the convention under which the identity balances on the product torus.
COMMUTATOR_NOTE = (
    "commutator term uses tr((A B - B A)^2) = -N(A B - B A); verified to "
    "balance the Simons identity on the product torus"
)


# One identity check: the bundle `order` it reads, its length `weight` w (its
# terms scale as lambda^-w under a dilation by lambda) and its residual `form`.
Check = namedtuple("Check", "name order weight form")
RUNG = 1e-12  # the one tolerance: every check is jet-exact and scale-free
CHECKS = (
    Check("tri_symmetry", 3, 1, "symmetry"),
    Check("codazzi_full_symmetry", 3, 2, "symmetry"),
    Check("h_trace_consistency", 3, 1, "difference"),
    Check("H_derivative_symmetry", 3, 2, "difference"),
    Check("T_consistency", 3, 2, "difference"),
    Check("norm_identity", 3, 2, "difference"),
    Check("lagrangian_condition", 3, 0, "difference"),
    Check("gauss_two_method", 3, 2, "difference"),
    Check("ricci_equation", 3, 2, "difference"),
    Check("maslov_closedness", 3, 2, "difference"),
    Check("ricci_identity", 4, 3, "difference"),
    Check("laplace_contraction", 4, 4, "difference"),
    Check("simons_identity_rel", 4, 4, "difference"),
    Check("simons_inequality_margin", 4, 4, "shortfall"),
    Check("spectral_consistency", 4, 4, "difference"),
)
LIGHT_ORDER = min(c.order for c in CHECKS)
HEAVY_ORDER = max(c.order for c in CHECKS)
FORMS = {c.name: c.form for c in CHECKS}
WEIGHTS = {c.name: c.weight for c in CHECKS}


def residual(form: str, lhs: Iterable, rhs: Iterable) -> tuple[np.ndarray, np.ndarray]:
    """One residual per point from the two sides of a check, each an iterable
    of signed (..., B) terms, lhs added and rhs subtracted in order:
    - difference: max |sum lhs - sum rhs| over the tensor axes;
    - shortfall: how far sum lhs falls short of sum rhs, 0 where it does not;
    - symmetry: the widest orbit spread of the one lhs term, a rank-3 or
      rank-4 tensor (`symmetry_residual`);
    and its scale S >= it (2 S >= it for symmetry): max over the tensor axes
    of the sum of |term| (of |lhs| for symmetry)."""
    if form == "symmetry":
        (a,) = lhs
        return symmetry_residual(a, a.ndim - 1), np.abs(a).max(axis=tuple(range(a.ndim - 1)))
    diff = scale = None
    for op, side in ((np.add, lhs), (np.subtract, rhs)):
        for term in side:
            if diff is None:  # new arrays, which the later terms update in place
                diff, scale = term + 0.0, np.abs(term)
                continue
            op(diff, term, out=diff)
            if term.ndim > 5:  # a Ricci identity term: |term| a slice at a time, with no whole temporary
                for i in range(len(term)):
                    scale[i] += np.abs(term[i])
            else:
                scale += np.abs(term)
            del term  # freed before a generator side builds the next one
    if form == "difference":
        axes = tuple(range(diff.ndim - 1))
        return np.abs(diff, out=diff).max(axis=axes), scale.max(axis=axes)
    return np.maximum(0.0, -diff) + 0.0, scale  # shortfall, of (B,) sides; -0.0 -> +0.0


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


def check_structural(fb: FrameBundle) -> dict[str, tuple[tuple, tuple]]:
    """Both sides of each pointwise structure equation, by check name, on a
    bundle of order >= 3."""
    n = fb.n
    c = 3.0 * n * n / (n + 2.0)
    return {
        "tri_symmetry": ((fb.h0,), ()),
        "codazzi_full_symmetry": ((fb.grad_h,), ()),
        "h_trace_consistency": ((np.einsum("miib->mb", fb.h0) / n,), (fb.H0,)),
        "H_derivative_symmetry": ((fb.grad_H,), (fb.grad_H.transpose(1, 0, 2),)),
        "T_consistency": ((0.5 * (fb.T0 + fb.T0.transpose(1, 0, 2)),), (fb.T_from_hhat,)),
        "norm_identity": ((fb.hhat_sq, -fb.h_sq, c * fb.H_sq), ()),
        "lagrangian_condition": ((fb.lagrangian_residual,), ()),
    }


def check_gauss_ricci(fb: FrameBundle) -> dict[str, tuple[tuple, tuple]]:
    """Both sides of the Gauss equation (two-method), the normal-bundle
    curvature equation and the closedness of the pulled-back Maslov form
    alpha, by check name."""
    rhs = (fb.gauss_rhs,)
    d_alpha = fb.maslov_chart_jets.grad().value  # [a, b] = d_b alpha_a
    return {
        "gauss_two_method": ((fb.curvature_frame,), rhs),
        "ricci_equation": ((fb.normal_curvature,), rhs),
        "maslov_closedness": ((d_alpha,), (d_alpha.transpose(1, 0, 2),)),
    }


# ---------------------------------------------------------------------------
# Ricci identity for the second covariant derivative of h
# ---------------------------------------------------------------------------


def check_ricci_identity(fb: FrameBundle) -> tuple[Iterable, Iterable]:
    """Both sides of the commutation rule for second covariant derivatives of
    h against the curvature contractions, curvature taken from the Gauss
    form, on an order-4 bundle.  The sides are generators: each five-index
    term is created just before `residual` sums it, so no side is held whole."""
    hess, h0, rg = fb.hess_h, fb.h0, fb.gauss_rhs
    lhs = (-hess.transpose(0, 1, 2, 4, 3, 5) if swap else hess for swap in (False, True))
    specs = ("mkjb,kilpb->mijlpb", "mikb,kjlpb->mijlpb", "kijb,kmlpb->mijlpb")
    return lhs, (np.einsum(spec, h0, rg) for spec in specs)


def lemma_laplace_hhat(fb: FrameBundle, t: dict[str, np.ndarray]) -> tuple[tuple, tuple]:
    """Both sides of the rough-Laplacian contraction identity for hhat:
    sum hhat * hhat_{,kk} against (n+2)<hhat, grad T> (`hhat_grad_T` of the
    bundle's `simons_terms` t) plus two curvature terms, on an order-4 bundle.
    The first is doubled: the commutation rule also gives hhat_{mij} hhat_{lik}
    R_{lmjk}, which is the same sum relabelled m <-> i, as hhat is totally
    symmetric (`tri_symmetry` checks it)."""
    hh, rg = fb.hhat0, fb.gauss_rhs
    lhs = (np.einsum("mijb,mijkkb->b", hh, fb.hess_hhat),)
    twice = 2.0 * np.einsum("mijb,mlkb,lijkb->b", hh, hh, rg)
    return lhs, (t["hhat_grad_T"], twice, np.einsum("mijb,milb,lkjkb->b", hh, hh, rg))


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
    hh, hs = fb.hhat0, fb.hhat_sq
    return {
        "lhs_half_laplacian": 0.5 * fb.laplacian(fb.hhat_sq_jet),
        "hhat_grad_T": (n + 2.0) * np.einsum("mijb,ijmb->b", hh, fb.grad_T),
        "grad_hhat_sq": fb.grad_hhat_sq,
        "c_term": (n + 1.0) * fb.c_amb * hs,
        "HH_term": n * n / (n + 2.0) * hs * fb.H_sq,
        **_curvature_terms(hh, fb.H0),
        "hhat_sq": hs,
    }


# The right side of the Simons identity, in summation order; its first four
# terms are the lower bound of the inequality.
_SIMONS_RHS = ("hhat_grad_T", "grad_hhat_sq", "c_term", "HH_term",
               "commutator_term", "trace_sq_term", "cubic_term", "quad_term")


def check_simons_identity(terms: dict[str, np.ndarray]) -> tuple[tuple, tuple]:
    """Both sides of the Simons identity from the output of `simons_terms`."""
    return (terms["lhs_half_laplacian"],), tuple(terms[k] for k in _SIMONS_RHS)


def check_simons_inequality(fb: FrameBundle, terms: dict[str, np.ndarray]) -> dict[str, tuple[tuple, tuple]]:
    """Both sides of the Simons inequality, whose shortfall is its failure,
    and of the spectral cross-check of its cubic and quadratic terms, by
    check name, from the bundle and its `simons_terms`."""
    t = terms
    lower = tuple(t[k] for k in _SIMONS_RHS[:4]) + (-0.5 * (fb.n + 3.0) * t["hhat_sq"] ** 2,)
    return {
        "simons_inequality_margin": ((t["lhs_half_laplacian"],), lower),
        "spectral_consistency": ((t["cubic_term"], t["quad_term"]), (_spectral_form(fb.hhat0, fb.H0),)),
    }


def _spectral_form(hh: np.ndarray, Hv: np.ndarray) -> np.ndarray:
    """The cubic and quadratic H-contractions of the Simons identity by the
    eigen-decomposition: n sum lambda_i S_i* + n^2/(n+2) sum lambda_i^2."""
    n = hh.shape[0]
    lam, s_istar = spectral_summary(hh, Hv)
    return n * np.einsum("i...,i...->...", lam, s_istar) + n * n / (n + 2.0) * np.sum(lam**2, axis=0)


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


def _sides(fb: FrameBundle):
    """(name, (lhs, rhs)) of every check whose order the bundle reaches, one
    producer at a time, so a reader can free each check's terms before the
    next ones are built."""
    yield from check_structural(fb).items()
    yield from check_gauss_ricci(fb).items()
    if fb.phi.order >= HEAVY_ORDER:
        yield "ricci_identity", check_ricci_identity(fb)
        terms = simons_terms(fb)
        yield "laplace_contraction", lemma_laplace_hhat(fb, terms)
        yield "simons_identity_rel", check_simons_identity(terms)
        yield from check_simons_inequality(fb, terms).items()


def _residuals(fb: FrameBundle, sides: Iterable | None = None) -> dict[str, np.ndarray]:
    """Every check the bundle reaches, or the (name, (lhs, rhs)) `sides`, as (B,)
    residuals over S + |h|^w + |grad h|^(w/2) + c^(w/2) at weight w > 0 (h alone
    vanishes at a Whitney sphere's poles), with 0/0 = 0 and x/inf = NaN.
    Where the sum of squares of grad h overflows, |grad h| is taken over its
    entries divided by their max, so every finite root keeps its bits."""
    h, gh = np.sqrt(fb.h_sq), np.einsum("mijkb,mijkb->b", fb.grad_h, fb.grad_h) ** 0.25
    if math.isinf(gh.max()):
        over = np.isinf(gh)
        big = fb.grad_h[..., over]
        top = np.abs(big).max(axis=(0, 1, 2, 3))
        big /= top
        gh[over] = np.sqrt(top) * np.einsum("mijkb,mijkb->b", big, big) ** 0.25
    floor = {w: h**w + gh**w + fb.c_amb ** (w / 2) for w in set(WEIGHTS.values()) - {0}}
    out = {}
    for name, (lhs, rhs) in _sides(fb) if sides is None else sides:
        out[name], scale = residual(FORMS[name], lhs, rhs)
        if WEIGHTS[name]:  # 0 * scale: NaN where the divisor is not finite
            scale += floor[WEIGHTS[name]]
            out[name] = out[name] / np.maximum(scale, np.finfo(float).tiny) + 0.0 * scale
        del lhs, rhs  # the terms of one check are freed before the next ones are built
    return out


def run_identity_suite(
    imm: Immersion, charts, coords, tol_scale: float = 1.0, seed: int | None = None, heavy: bool = True
) -> dict:
    """Evaluate every identity check on every sample point, the (N,) chart
    ids `charts` and (N, n) `coords`, and return the report document.  Each
    entry of its `checks` holds the worst residual of one check over the
    samples (`_residuals`), the index of the sample it occurred at (`argmax`)
    and the residual over RUNG * `tol_scale` (`headroom`, pass when <= 1).

    The points are moved to their well-conditioned charts and streamed, in
    sample order and each in its own chart, through `scalar_samples` on
    bundles of the order of the heavy checks when `heavy`, of the other
    checks otherwise.  A point the geometry fails at is named in the error by
    its sample index, chart and coordinates, and a residual that is not
    finite (or whose terms overflow), by sample and check, in an OverflowError."""
    charts, coords = np.asarray(charts), np.asarray(coords, dtype=float)
    if len(coords) == 0:
        raise ValueError("the identity suite needs at least one sample point")
    order = HEAVY_ORDER if heavy else LIGHT_ORDER
    with np.errstate(all="ignore"):  # every non-finite residual is refused below
        try:
            residuals = scalar_samples(imm, *chart_batch(imm, charts, coords), _residuals, order)
        except (OutOfDomainError, NonLagrangianError, DegenerateMetricError) as exc:
            raise named_point(exc, f"sample {exc.index}", exc.index) from exc

    checks = []
    tol = RUNG * tol_scale
    for check in (c for c in CHECKS if c.order <= order):
        worst = int(np.argmax(residuals[check.name]))  # the first NaN, if any: residuals are >= 0
        value = float(residuals[check.name][worst])
        if not np.isfinite(value):
            raise OverflowError(f"sample {worst}: {check.name} residual is not finite")
        checks.append(
            {
                "name": check.name,
                "max_residual": value,
                "tolerance": tol,
                "pass": value <= tol,
                "argmax": worst,
                "headroom": value / tol,
            }
        )
    return {
        "schema": 2,
        "kind": "identities",
        "immersion": imm.name,
        "params": imm.params,
        "seed": seed,
        "sample_points": [{"chart_id": int(c), "coords": u.tolist()} for c, u in zip(charts, coords)],
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
        "notes": [COMMUTATOR_NOTE],
    }
