"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Expensive sample sets are shared through session fixtures and the
wall-clock budgets are asserted where the criterion states one.
"""

import json
import math
import time

import numpy as np
import pytest

from lagcheck.cli import main as cli_main
from lagcheck.cpn import make_rpn, make_whitney_cpn
from lagcheck.geometry import bundle_at, geometry_state
from lagcheck.identities import RUNG, _residuals, check_simons_identity, check_simons_inequality, simons_terms
from lagcheck.immersions import (
    make_lagrangian_plane,
    make_perturbed_whitney,
    make_product_torus,
    make_whitney_cn,
)
from lagcheck.quadrature import energy_report, sphere_rule, torus_rule
from reference import (
    algebraic_simons_bound,
    assert_frame_moved,
    balance,
    contraction_identity_suite,
    li_li_batch_margin,
    norm_identity_residual,
    random_cubic,
    random_tracefree,
    random_unit,
    rotated_chart,
)


def _scalar(fb, name):
    """The bundle's scalar `name`, or |T|^2, the scalar curvature or the
    chart density, which only these criteria read."""
    if name == "T_sq":
        return np.einsum("ijb,ijb->b", fb.T0, fb.T0)
    if name == "scalar_curvature":
        return np.einsum("ijijb->b", fb.curvature_frame)
    if name == "sqrt_det_g":
        return fb.sqrt_det_g
    return getattr(fb, name)


def _batched_scalars(imm, points, names, order=3):
    """One bundle over every point of the batch `points`, (charts, coords),
    each in its well-conditioned chart."""
    fb = bundle_at(imm, *imm.atlas.normalize(*points), order)
    return {name: _scalar(fb, name) for name in names}


@pytest.fixture(scope="session")
def whitney_cn_scan():
    """Criterion 1 sample sweep; returns per-config maxima, 3.6 residuals and
    the elapsed wall time."""
    t0 = time.perf_counter()
    rows = []
    residuals_36 = []
    for n in (2, 3, 4, 5):
        for r in (0.5, 1.0, 2.0):
            for a_kind in ("zero", "random"):
                rng = np.random.default_rng(1000 * n + int(10 * r) + (a_kind == "random"))
                A = None if a_kind == "zero" else rng.normal(size=n) + 1j * rng.normal(size=n)
                imm = make_whitney_cn(r, A, n)
                pts = imm.atlas.random(rng, 50)
                vals = _batched_scalars(imm, pts, ["hhat_sq", "T_sq", "h_sq", "H_sq"])
                resid = np.abs(
                    vals["hhat_sq"] - vals["h_sq"] + 3.0 * n * n / (n + 2.0) * vals["H_sq"]
                )
                residuals_36.append(float(np.max(resid)))
                rows.append(
                    {
                        "n": n,
                        "r": r,
                        "A": a_kind,
                        "max_hhat": float(np.sqrt(np.max(vals["hhat_sq"]))),
                        "max_T": float(np.sqrt(np.max(vals["T_sq"]))),
                    }
                )
    return {"rows": rows, "resid36": residuals_36, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def whitney_cpn_scan():
    """Criterion 2 sample sweep over the CP^n Whitney spheres."""
    t0 = time.perf_counter()
    rows = []
    residuals_36 = []
    for n in (2, 3):
        for theta in (0.5, 1.0):
            imm = make_whitney_cpn(theta, n)
            rng = np.random.default_rng(77 * n + int(10 * theta))
            pts = imm.atlas.random(rng, 30)
            vals = _batched_scalars(imm, pts, ["hhat_sq", "T_sq", "h_sq", "H_sq"])
            resid = np.abs(
                vals["hhat_sq"] - vals["h_sq"] + 3.0 * n * n / (n + 2.0) * vals["H_sq"]
            )
            residuals_36.append(float(np.max(resid)))
            rows.append(
                {
                    "n": n,
                    "theta": theta,
                    "max_hhat": float(np.sqrt(np.max(vals["hhat_sq"]))),
                    "max_T": float(np.sqrt(np.max(vals["T_sq"]))),
                }
            )
    return {"rows": rows, "resid36": residuals_36, "elapsed": time.perf_counter() - t0}


def test_criterion_01_whitney_vanishing_cn(whitney_cn_scan):
    for row in whitney_cn_scan["rows"]:
        assert row["max_hhat"] < 1e-8, row
        assert row["max_T"] < 1e-8, row
    assert whitney_cn_scan["elapsed"] < 30.0
    print(
        f"\nACCEPTANCE 1 PASS: Whitney C^n vanishing over {len(whitney_cn_scan['rows'])} "
        f"configs x 50 points in {whitney_cn_scan['elapsed']:.1f}s"
    )


def test_criterion_02_whitney_vanishing_cpn(whitney_cpn_scan):
    for row in whitney_cpn_scan["rows"]:
        assert row["max_hhat"] < 1e-6, row
        assert row["max_T"] < 1e-6, row
    assert whitney_cpn_scan["elapsed"] < 60.0
    print(
        f"\nACCEPTANCE 2 PASS: Whitney CP^n vanishing over {len(whitney_cpn_scan['rows'])} "
        f"configs x 30 points in {whitney_cpn_scan['elapsed']:.1f}s"
    )


def test_criterion_03_norm_identity(whitney_cn_scan, whitney_cpn_scan):
    rng = np.random.default_rng(36)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        h, _ = random_cubic(rng, n)
        worst = max(worst, norm_identity_residual(h))
    assert worst < 1e-10
    geo_worst = max(max(whitney_cn_scan["resid36"]), max(whitney_cpn_scan["resid36"]))
    assert geo_worst < 1e-10
    print(
        f"\nACCEPTANCE 3 PASS: norm identity residual {worst:.2e} algebraic, "
        f"{geo_worst:.2e} geometric"
    )


def test_criterion_04_structure_equations():
    bodies = {
        "plane": (make_lagrangian_plane(2), None),
        "torus": (make_product_torus([1.0, 2.0]), None),
        "whitney": (make_whitney_cn(1.0, None, 3), None),
        "perturbed_whitney": (make_perturbed_whitney(1.0, 0.05, 1, 2), None),
        "rpn": (make_rpn(2), None),
    }
    # each residual over its own terms (`_residuals`), on the one rung
    rungs = dict.fromkeys(
        ("tri_symmetry", "codazzi_full_symmetry", "H_derivative_symmetry", "T_consistency", "gauss_two_method",
         "ricci_equation"),
        RUNG,
    )
    worst = {k: 0.0 for k in rungs}
    for idx, (name, (imm, _)) in enumerate(sorted(bodies.items())):
        rng = np.random.default_rng(400 + idx)
        for p in zip(*imm.atlas.random(rng, 10)):
            fb = geometry_state(imm, *p, 3)
            res = _residuals(fb)
            for k in rungs:
                res[k] = float(res[k][0])
                worst[k] = max(worst[k], res[k])
                assert res[k] < rungs[k], (name, k, res[k])
    print("\nACCEPTANCE 4 PASS: structure equations on 5 bodies:")
    for k in rungs:
        print(f"    {k:28s} max {worst[k]:.2e} < {rungs[k]:.0e}")


def test_criterion_05_contraction_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4, 5):
        rng = np.random.default_rng(500 + n)
        for _ in range(1000):
            hhat = random_tracefree(rng, n)
            H = rng.normal(size=n)
            worst = max(worst, max(contraction_identity_suite(hhat, H).values()))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 5 PASS: 8 contraction identities x 4000 trials, "
          f"max residual {worst:.2e} in {elapsed:.1f}s")


def test_criterion_06_li_li_inequality():
    rng = np.random.default_rng(33)
    combos = [(n, m) for n in (2, 3, 4, 5) for m in (2, 3, 4, 5)]
    per = 100_000 // len(combos) + 1
    total = 0
    worst = np.inf
    for n, m in combos:
        Ms = rng.normal(size=(per, m, n, n))
        Bs = 0.5 * (Ms + np.transpose(Ms, (0, 1, 3, 2)))
        margins = li_li_batch_margin(Bs)
        worst = min(worst, float(np.min(margins)))
        total += per
        assert np.all(margins >= -1e-12)
    print(f"\nACCEPTANCE 6 PASS: Li-Li bound on {total} tuples, min margin {worst:.2e}")


def test_criterion_07_simons_identity():
    torus = make_product_torus([1.0, 1.0])
    tp = (0, np.array([0.7, 2.0]))
    t = {k: float(v[0]) for k, v in simons_terms(geometry_state(torus, *tp, 4)).items()}
    rhs_sum = (
        t["HH_term"] + t["commutator_term"] + t["trace_sq_term"] + t["cubic_term"] + t["quad_term"]
    )
    assert abs(t["lhs_half_laplacian"]) < 1e-9
    assert abs(rhs_sum) < 1e-9
    pert = make_perturbed_whitney(1.0, 0.05, 1, 2)
    rels = []
    for p in zip(*pert.atlas.random(np.random.default_rng(70), 5)):
        fb = geometry_state(pert, *p, 4)
        sides = [("simons_identity_rel", check_simons_identity(simons_terms(fb)))]
        rel = float(_residuals(fb, sides)["simons_identity_rel"][0])
        rels.append(rel)
        assert rel < 1e-13
    print(f"\nACCEPTANCE 7 PASS: Simons identity (torus cancellation {abs(rhs_sum):.2e}; "
          f"perturbed max rel {max(rels):.2e})")


def test_criterion_08_simons_inequality():
    torus = make_product_torus([1.0, 2.0])
    fb_t = geometry_state(torus, 0, [0.4, 1.0], 4)
    res_t = {k: float(balance(v)[0]) for k, v in check_simons_inequality(fb_t, simons_terms(fb_t)).items()}
    assert res_t["simons_inequality_margin"] >= -1e-9
    wh = make_whitney_cn(1.0, None, 2)
    fb_w = geometry_state(wh, 0, [0.3, 0.6], 4)
    res_w = {k: float(balance(v)[0]) for k, v in check_simons_inequality(fb_w, simons_terms(fb_w)).items()}
    assert res_w["simons_inequality_margin"] >= -1e-9
    rng = np.random.default_rng(88)
    worst = np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        hhat = random_tracefree(rng, n)
        H = rng.normal(size=n)
        margin = algebraic_simons_bound(hhat, H)["margin"]
        worst = min(worst, margin)
        assert margin >= -1e-10
    print(f"\nACCEPTANCE 8 PASS: Simons inequality margins (torus {res_t['simons_inequality_margin']:.2e}, "
          f"whitney {res_w['simons_inequality_margin']:.2e}, algebraic min {worst:.2e})")


def test_criterion_09_energy_functionals():
    rep = energy_report(make_product_torus([1.0, 1.0]), torus_rule(2, 20))
    assert abs(rep["entries"]["int_hhat_sq"] - 2 * math.pi**2) < 1e-6
    assert abs(rep["entries"]["int_h_sq"] - 8 * math.pi**2) < 1e-6

    gaps = []
    for n, degree in ((2, 30), (3, 10)):
        w = energy_report(make_whitney_cn(1.0, None, n), sphere_rule(n, degree))
        gaps.append(w["entries"]["int_hhat_n"])
        assert gaps[-1] < 1e-7

    rng = np.random.default_rng(9)
    A = rng.normal(size=2) + 1j * rng.normal(size=2)
    base = energy_report(make_whitney_cn(1.0, A, 2), sphere_rule(2, 24))["entries"]["int_hhat_n"]
    drift = 0.0
    for lam in (0.5, 2.0, 10.0):
        rep_l = energy_report(make_whitney_cn(lam, lam * A, 2), sphere_rule(2, 24))["entries"]
        drift = max(drift, abs(rep_l["int_hhat_n"] - base))
        assert abs(rep_l["int_hhat_n"] - base) < 1e-8
    print(f"\nACCEPTANCE 9 PASS: energy functionals (torus closed forms, "
          f"whitney gap {max(gaps):.1e}, dilation drift {drift:.1e})")


SCALARS_10 = ["h_sq", "hhat_sq", "H_sq", "T_sq", "grad_hhat_sq", "scalar_curvature"]
# an order-2 bundle (the energy path) carries the pointwise scalars only
SCALARS_BY_ORDER = {2: ["h_sq", "hhat_sq", "H_sq", "sqrt_det_g"], 3: SCALARS_10, 4: SCALARS_10}


def test_criterion_10_gauge_and_chart_robustness():
    imm = make_perturbed_whitney(1.0, 0.05, 1, 2)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(5):
        u = rng.uniform(0.6, 1.8) * random_unit(rng, 2)
        Q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        for order, names in SCALARS_BY_ORDER.items():
            fb0 = bundle_at(imm, 0, u[None], order)
            fb1 = bundle_at(imm, 1, (u / np.dot(u, u))[None], order)
            fbq = bundle_at(rotated_chart(imm, Q), 0, (Q.T @ u)[None], order)  # another frame
            assert_frame_moved(fb0, fbq)
            for name in names:
                v0 = float(_scalar(fb0, name)[0])
                if name != "sqrt_det_g":  # a chart density, not a scalar
                    worst = max(worst, abs(float(_scalar(fb1, name)[0]) - v0))
                worst = max(worst, abs(float(_scalar(fbq, name)[0]) - v0))
    assert worst < 1e-9
    print(f"\nACCEPTANCE 10 PASS: gauge/chart robustness, max scalar drift {worst:.2e}")


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"family": "product_torus", "radii": [1.0, 2.0], "samples": 6, "seed": 7, "heavy": False}
        )
    )
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert cli_main(["identities", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    e1, e2 = tmp_path / "e1.json", tmp_path / "e2.json"
    ecfg = tmp_path / "ecfg.json"
    ecfg.write_text(json.dumps({"family": "whitney_cn", "r": 1.0, "n": 2, "degree": 12}))
    cli_main(["energy", "--config", str(ecfg), "--out", str(e1)])
    cli_main(["energy", "--config", str(ecfg), "--out", str(e2)])
    assert e1.read_bytes() == e2.read_bytes()
    print("\nACCEPTANCE 11 PASS: identical config+seed gives byte-identical reports")
