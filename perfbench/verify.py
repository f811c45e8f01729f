"""Per-op output verification.

``problems`` returns what is wrong with one op's output, as a list of short
messages; an empty list means the op passed.  The references do not come from
lagcheck: check names are fixed in ``workloads``, torus energies have closed
forms, and Whitney spheres in C^n and CP^n have vanishing trace-free second
fundamental form.
"""

from __future__ import annotations

import json
import math

# Relative tolerance of the torus closed forms.  Their integrands are
# constant, so quadrature is exact and the seed matches them to 2e-16.
TORUS_REL_TOL = 1e-12
# Upper bound on int|hhat|^2 / int|h|^2 for Whitney spheres (1e-31 at the seed).
WHITNEY_GAP_TOL = 1e-20

ENERGY_ENTRIES = ("volume", "int_hhat_n", "int_hhat_sq", "int_h_sq", "int_H_sq")


def torus_closed_forms(radii: list[float]) -> dict[str, float]:
    """Energies of the product torus prod_j (r_j e^{i t_j}) in C^n.

    Each circle contributes h_jjj = 1/r_j, so |h|^2 = S := sum 1/r_j^2, the
    mean curvature (trace / n) has |H|^2 = S / n^2, and the trace-free part
    has |hhat|^2 = |h|^2 - 3 n^2 / (n + 2) |H|^2 = S (n - 1) / (n + 2).
    """
    n = len(radii)
    vol = (2.0 * math.pi) ** n * math.prod(radii)
    s = sum(1.0 / r**2 for r in radii)
    hhat_sq = s * (n - 1) / (n + 2)
    return {
        "volume": vol,
        "int_h_sq": vol * s,
        "int_H_sq": vol * s / n**2,
        "int_hhat_sq": vol * hhat_sq,
        "int_hhat_n": vol * hhat_sq ** (n / 2.0),
    }


def problems(op, exit_code, report: bytes | None) -> list[str]:
    """Everything wrong with the output of ``op``.

    ``exit_code`` is what ``lagcheck.cli.main`` returned (None if it raised)
    and ``report`` the bytes it wrote (None if it wrote nothing).
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if report is None:
        return ["no report written"]
    try:
        doc = json.loads(report)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    if doc.get("kind") != op.command:
        return [f"report kind {doc.get('kind')!r}, expected {op.command!r}"]
    if op.command == "identities":
        return _identities_problems(op, doc)
    return _energy_problems(op, doc)


def _identities_problems(op, doc: dict) -> list[str]:
    out = []
    if doc.get("all_pass") is not True:
        failing = [c.get("name") for c in doc.get("checks", []) if not c.get("pass")]
        out.append(f"all_pass is {doc.get('all_pass')!r} (failing: {failing})")
    names = {c.get("name") for c in doc.get("checks", [])}
    missing = [name for name in op.expected_checks if name not in names]
    if missing:
        out.append(f"missing checks {missing}")
    if len(doc.get("sample_points", [])) != op.config["samples"]:
        out.append("wrong number of sample points")
    return out


def _energy_problems(op, doc: dict) -> list[str]:
    cfg = op.config
    entries = doc.get("entries", {})
    out = []
    for name in ENERGY_ENTRIES:
        v = entries.get(name)
        if not isinstance(v, float) or not math.isfinite(v) or v < 0:
            out.append(f"entry {name} is {v!r}")
    if out:
        return out
    nodes = doc.get("rule", {}).get("node_count")
    n = cfg["n"] if "n" in cfg else len(cfg["radii"])
    if nodes != cfg["degree"] ** n:
        out.append(f"node_count {nodes}, expected {cfg['degree'] ** n}")
    if cfg["family"] == "product_torus":
        for name, ref in torus_closed_forms(cfg["radii"]).items():
            rel = abs(entries[name] - ref) / ref
            if not rel <= TORUS_REL_TOL:
                out.append(f"torus {name} = {entries[name]!r}, closed form {ref!r} (rel {rel:.1e})")
    elif cfg["family"] in ("whitney_cn", "whitney_cpn"):
        gap = entries["int_hhat_sq"] / entries["int_h_sq"]
        if not gap <= WHITNEY_GAP_TOL:
            out.append(f"Whitney gap int_hhat_sq / int_h_sq = {gap:.3e} > {WHITNEY_GAP_TOL:.0e}")
    return out
