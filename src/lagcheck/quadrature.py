"""Quadrature over the compact model manifolds and the energy functionals.

Rules are tensor-product Gauss-Legendre grids: in the angles of a torus, or
in hyperspherical angles on a sphere, whose nodes are projected into the
stereographic atlas (`SphereAtlas.from_embedded`) and carry the exact
angle-to-chart Jacobian.  The chart is conformal with factor
2 / (1 + |u|^2), so that Jacobian is the round-sphere angle density times
((1 + |u|^2) / 2)^n.

Every integral is an integrand: a function `integrand(fb, charts, coords)`
that returns named (B,) arrays on the order-2 bundle of a chunk of nodes.
`geometry.scalar_samples`, the node loop the identity suite shares, streams
the nodes through it, and `integrals` is the one reduction: the weighted sum
sum_k w_k * jacobian_k * sqrt_det_g_k * f(p_k) per name and the volume (f = 1),
each a single np.sum in rule order, so no result depends on the chunk size.

A rule integrates only bodies whose atlas names its domain.  It is read-only:
`rule_for` builds one per (domain, n, degree) and hands it to every caller.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import scalar_samples
from .immersions import Immersion, SphereAtlas, jsonable_params


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes in the immersion's atlas plus parameter-space weights.

    `weights` carry the measure of the parameter box (their sum is its
    volume); `chart_jacobians` convert that measure to the chart so that the
    induced-metric density can be evaluated per node.  Frozen, with
    read-only arrays, so that one rule can be shared.
    """

    domain: str  # "sphere" | "torus"
    n: int
    degree: int
    charts: np.ndarray  # (N,)
    coords: np.ndarray  # (N, n)
    weights: np.ndarray
    chart_jacobians: np.ndarray

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def node_count(self) -> int:
        return len(self.weights)


def _legendre_with_derivative(x: np.ndarray, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """P_npts(x) and P'_npts(x) by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x.copy()
    for k in range(2, npts + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, npts * (x * p - p_prev) / (x * x - 1.0)


def _gl_nodes(a: float, b: float, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b]: Newton steps on the
    Legendre recurrence from the Tricomi guesses cos(pi (k - 1/4) / (npts + 1/2)),
    ascending and symmetrized as in `np.polynomial.legendre.leggauss`, with
    no eigenvalue solve."""
    x = -np.cos(np.pi * (np.arange(1, npts + 1) - 0.25) / (npts + 0.5))
    for _ in range(100):
        p, dp = _legendre_with_derivative(x, npts)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    _, dp = _legendre_with_derivative(x, npts)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _product_grid(axes: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """(N, len(axes)) nodes and (N,) weights of the tensor product of 1-D
    (nodes, weights) rules, the last axis varying fastest."""
    nodes = np.meshgrid(*(x for x, _ in axes), indexing="ij")
    weights = np.meshgrid(*(w for _, w in axes), indexing="ij")
    weights = np.prod(np.stack([g.ravel() for g in weights], axis=1), axis=1)
    return np.stack([g.ravel() for g in nodes], axis=1), weights


def torus_rule(n: int, degree: int = 30) -> QuadratureRule:
    coords, weights = _product_grid([_gl_nodes(0.0, 2.0 * math.pi, degree)] * n)
    return QuadratureRule(
        domain="torus",
        n=n,
        degree=degree,
        charts=np.zeros(len(coords), dtype=int),
        coords=coords,
        weights=weights,
        chart_jacobians=np.ones(len(coords)),
    )


def _angles_to_embedded(angles: np.ndarray, n: int) -> np.ndarray:
    """Hyperspherical angles (theta_1..theta_{n-1}, phi) -> x in S^n."""
    N = len(angles)
    x = np.empty((N, n + 1))
    sin_prod = np.ones(N)
    for i in range(n - 1):
        x[:, i] = sin_prod * np.cos(angles[:, i])
        sin_prod = sin_prod * np.sin(angles[:, i])
    x[:, n - 1] = sin_prod * np.cos(angles[:, n - 1])
    x[:, n] = sin_prod * np.sin(angles[:, n - 1])
    return x


def sphere_rule(n: int, degree: int = 30) -> QuadratureRule:
    """Tensor-product Gauss-Legendre in hyperspherical angles on S^n."""
    if n < 2:
        raise ValueError("sphere rules need n >= 2")
    angles, weights = _product_grid(
        [_gl_nodes(0.0, math.pi, degree)] * (n - 1) + [_gl_nodes(0.0, 2.0 * math.pi, degree)]
    )

    charts, coords = SphereAtlas(n).from_embedded(_angles_to_embedded(angles, n))

    round_density = np.ones(len(angles))
    for i in range(n - 1):
        round_density *= np.sin(angles[:, i]) ** (n - 1 - i)

    # the chart is conformal: dV = (2 / (1 + |u|^2))^n du = round_density d(angles)
    jacobians = round_density * ((1.0 + np.sum(coords**2, axis=1)) / 2.0) ** n

    return QuadratureRule(
        domain="sphere",
        n=n,
        degree=degree,
        charts=charts,
        coords=coords,
        weights=weights,
        chart_jacobians=jacobians,
    )


def rule_for(imm: Immersion, degree: int = 30) -> QuadratureRule:
    """The rule on the model manifold of `imm`, shared by every body with
    the same domain, dimension and degree (a scan builds it once)."""
    if not imm.compact:
        raise ValueError(f"no compact quadrature domain for {imm.name}")
    return _shared_rule(imm.atlas.domain, imm.source_dim, degree)


@functools.lru_cache(maxsize=4)
def _shared_rule(domain: str, n: int, degree: int) -> QuadratureRule:
    return sphere_rule(n, degree) if domain == "sphere" else torus_rule(n, degree)


def _check_rule(imm: Immersion, rule: QuadratureRule):
    if rule.n != imm.source_dim:
        raise ValueError("rule dimension does not match the immersion")
    if rule.domain != imm.atlas.domain:
        raise ValueError(f"{rule.domain} rule applied to {imm.name}, whose domain is {imm.atlas.domain}")


def integrals(imm: Immersion, rule: QuadratureRule, integrand: Callable) -> dict[str, float]:
    """The volume and the integral of each named array of `integrand(fb,
    charts, coords)` (`geometry.scalar_samples`) against the induced measure.  Each is
    one np.sum over the rule's node order, so results are run-to-run stable
    and do not depend on the chunk size; an overflow gives a non-finite
    integral, for the caller to refuse, and no warning."""
    _check_rule(imm, rule)

    def with_density(fb, charts, coords):
        # the density goes under None, a key no integrand name can take
        return {None: fb.sqrt_det_g, **integrand(fb, charts, coords)}

    vals = scalar_samples(imm, rule.charts, rule.coords, with_density)
    base = rule.weights * rule.chart_jacobians * vals.pop(None)
    with np.errstate(over="ignore", invalid="ignore"):
        return {"volume": float(np.sum(base)), **{name: float(np.sum(base * v)) for name, v in vals.items()}}


def _energy_integrand(fb, charts, coords) -> dict[str, np.ndarray]:
    return {
        "int_hhat_n": fb.hhat_sq ** (fb.n / 2.0),
        "int_hhat_sq": fb.hhat_sq,
        "int_h_sq": fb.h_sq,
        "int_H_sq": fb.H_sq,
    }


def energy_report(imm: Immersion, rule: QuadratureRule) -> dict:
    """The energy functionals of a compact immersion over its model
    manifold, as the report document: the rule and the named integrals,
    sorted by name, nothing else."""
    entries = dict(sorted(integrals(imm, rule, _energy_integrand).items()))
    if not all(math.isfinite(v) for v in entries.values()):
        raise OverflowError(f"energy entries are not finite: {entries}")
    if any(v < -1e-12 for v in entries.values()):
        raise ValueError("energy entries must be nonnegative")
    h_sq = entries["int_h_sq"]
    if entries["int_hhat_sq"] > h_sq + 1e-9 * max(1.0, h_sq):
        raise ValueError("int |hhat|^2 exceeds int |h|^2")
    return {
        "schema": 1,
        "kind": "energy",
        "immersion": imm.name,
        "params": jsonable_params(imm.params),
        "rule": {"n": imm.source_dim, "degree": rule.degree, "node_count": rule.node_count},
        "entries": entries,
    }
