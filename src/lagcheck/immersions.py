"""Chart atlases and the built-in analytic immersion families.

Model manifolds are parametrized by explicit charts: two stereographic charts
for the sphere, one periodic chart for the torus, one global chart for the
plane.  Every family evaluates through truncated Taylor jets, so derivative
data up to order 4 is exact.  Complex ambient coordinates are stored as
interleaved reals (Re z_1, Im z_1, ...), and the complex structure acts per
pair as (a, b) -> (-b, a).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .jets import ComplexJet, Jet, jet_space

MAX_JET_ORDER = 4
SPHERE_CHART_RADIUS = 16.0  # declared open chart domain |u| < R
SPHERE_SWITCH_RADIUS = 2.0  # beyond this, evaluate in the opposite chart


class OutOfDomainError(ValueError):
    pass


@dataclass(frozen=True)
class ChartPoint:
    """A point of the model manifold, named by chart id and chart coordinates."""

    chart_id: int
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))


# ---------------------------------------------------------------------------
# Atlases
# ---------------------------------------------------------------------------


class SphereAtlas:
    """Two stereographic charts on S^n: chart 0 projects from the north pole
    (+e_{n+1}), chart 1 from the south pole.  Transition is u -> u / |u|^2."""

    def __init__(self, n: int):
        self.n = n
        self.n_charts = 2

    def contains(self, p: ChartPoint) -> bool:
        return (
            p.chart_id in (0, 1)
            and p.coords.shape == (self.n,)
            and float(np.linalg.norm(p.coords)) < SPHERE_CHART_RADIUS
        )

    def transition(self, p: ChartPoint, target_chart: int) -> ChartPoint:
        if target_chart not in (0, 1):
            raise OutOfDomainError(f"no chart {target_chart} in the sphere atlas")
        if target_chart == p.chart_id:
            return p
        r2 = float(np.dot(p.coords, p.coords))
        if r2 < 1e-24:
            raise OutOfDomainError("point is a pole, not in the chart overlap")
        return ChartPoint(target_chart, p.coords / r2)

    def normalize(self, p: ChartPoint) -> ChartPoint:
        """Move badly conditioned points (|u| > 2) to the opposite chart."""
        if float(np.linalg.norm(p.coords)) > SPHERE_SWITCH_RADIUS:
            return self.transition(p, 1 - p.chart_id)
        return p

    def embed(self, p: ChartPoint) -> np.ndarray:
        """Chart coordinates -> point on the unit sphere in R^{n+1}."""
        u = p.coords
        d = 1.0 + float(np.dot(u, u))
        x = np.empty(self.n + 1)
        x[: self.n] = 2.0 * u / d
        last = (np.dot(u, u) - 1.0) / d
        x[self.n] = last if p.chart_id == 0 else -last
        return x

    def embed_jets(self, chart_id: int, u: list[Jet]) -> list[Jet]:
        norm2 = u[0] * u[0]
        for ui in u[1:]:
            norm2 = norm2 + ui * ui
        inv = 1.0 / (1.0 + norm2)
        x = [2.0 * ui * inv for ui in u]
        last = (norm2 - 1.0) * inv
        x.append(last if chart_id == 0 else -last)
        return x

    def from_embedded(self, x: np.ndarray) -> ChartPoint:
        x = np.asarray(x, dtype=float)
        chart = 0 if x[self.n] <= 0 else 1
        denom = 1.0 - x[self.n] if chart == 0 else 1.0 + x[self.n]
        return ChartPoint(chart, x[: self.n] / denom)

    def random_points(self, rng: np.random.Generator, count: int) -> list[ChartPoint]:
        xs = rng.normal(size=(count, self.n + 1))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        return [self.from_embedded(x) for x in xs]


class TorusAtlas:
    """Single 2*pi-periodic chart of angles."""

    def __init__(self, n: int):
        self.n = n
        self.n_charts = 1

    def contains(self, p: ChartPoint) -> bool:
        return p.chart_id == 0 and p.coords.shape == (self.n,)

    def transition(self, p: ChartPoint, target_chart: int) -> ChartPoint:
        if target_chart != 0:
            raise OutOfDomainError("torus atlas has a single chart")
        return ChartPoint(0, np.mod(p.coords, 2.0 * math.pi))

    def normalize(self, p: ChartPoint) -> ChartPoint:
        return p

    def random_points(self, rng: np.random.Generator, count: int) -> list[ChartPoint]:
        return [ChartPoint(0, c) for c in rng.uniform(0, 2 * math.pi, size=(count, self.n))]


class PlaneAtlas:
    def __init__(self, n: int):
        self.n = n
        self.n_charts = 1

    def contains(self, p: ChartPoint) -> bool:
        return p.chart_id == 0 and p.coords.shape == (self.n,)

    def transition(self, p: ChartPoint, target_chart: int) -> ChartPoint:
        if target_chart != 0:
            raise OutOfDomainError("plane atlas has a single chart")
        return p

    def normalize(self, p: ChartPoint) -> ChartPoint:
        return p

    def random_points(self, rng: np.random.Generator, count: int) -> list[ChartPoint]:
        return [ChartPoint(0, c) for c in rng.uniform(-1.5, 1.5, size=(count, self.n))]


def chart_transition(atlas, p: ChartPoint, target_chart: int) -> ChartPoint:
    return atlas.transition(p, target_chart)


# ---------------------------------------------------------------------------
# Immersions
# ---------------------------------------------------------------------------

AMBIENT_CN = "ComplexEuclidean"
AMBIENT_SPHERE = "HomogeneousSphere"


@dataclass
class Immersion:
    """A parametrized immersion of a model manifold into C^m (as R^{2m}).

    `jet_fn(chart_id, coords, order)` returns the 2m interleaved real
    coordinate jets at a batch of chart points (coords has shape (nvars, B)).
    """

    name: str
    source_dim: int
    ambient: str
    ambient_complex_dim: int
    params: dict
    atlas: object
    jet_fn: Callable = field(repr=False)
    compact: bool = True

    def eval_jets(self, p: ChartPoint, order: int) -> list[Jet]:
        if order < 1 or order > MAX_JET_ORDER:
            raise ValueError(f"jet order must be in 1..{MAX_JET_ORDER}")
        if not self.atlas.contains(p):
            raise OutOfDomainError(f"{p} outside the chart domain of {self.name}")
        return self.jet_fn(p.chart_id, p.coords.reshape(self.source_dim, 1), order)

    def point(self, p: ChartPoint) -> np.ndarray:
        return np.array([j.value[0] for j in self.eval_jets(p, 1)])


@dataclass
class ImmersionJet:
    """Ambient value and all partial derivatives at one chart point."""

    order: int
    values: np.ndarray
    partials: dict

    def partial(self, alpha) -> np.ndarray:
        return self.partials[tuple(int(a) for a in alpha)]


def eval_jet(imm: Immersion, p: ChartPoint, order: int) -> ImmersionJet:
    phi = Jet.stack(imm.eval_jets(p, order))
    sp = phi.space
    table = phi.c[..., 0] * sp.coef_factorial  # (2m, ncoef): every partial at p
    partials = {tuple(int(a) for a in alpha): table[:, k] for k, alpha in enumerate(sp.multi_indices)}
    return ImmersionJet(order, table[:, 0], partials)


def _flatten_complex(zs: list[ComplexJet]) -> list[Jet]:
    out = []
    for z in zs:
        out.extend((z.re, z.im))
    return out


# -- Whitney sphere in C^n ---------------------------------------------------


def make_whitney_cn(r: float, A=None, n: int = 2) -> Immersion:
    """Whitney sphere immersion of S^n into C^n with radius r and offset A.

    In embedded sphere coordinates the complex components are
    z_j = r x_j (1 + i x_{n+1}) / (1 + x_{n+1}^2) + A_j.
    """
    if r <= 0:
        raise ValueError("whitney radius r must be positive")
    if n < 2:
        raise ValueError("whitney sphere needs n >= 2")
    A = np.zeros(n, dtype=complex) if A is None else np.asarray(A, dtype=complex)
    if A.shape != (n,):
        raise ValueError(f"offset A must have length {n}")
    atlas = SphereAtlas(n)

    def jet_fn(chart_id, coords, order):
        sp = jet_space(n, order)
        u = Jet.variables(sp, coords)
        x = atlas.embed_jets(chart_id, u)
        xl = x[n]
        scale = 1.0 / (1.0 + xl * xl)
        zs = []
        for j in range(n):
            w = ComplexJet(x[j], x[j] * xl).scale_real(scale).scale_real(r)
            zs.append(ComplexJet(w.re + A[j].real, w.im + A[j].imag))
        return _flatten_complex(zs)

    return Immersion(
        name="whitney_cn",
        source_dim=n,
        ambient=AMBIENT_CN,
        ambient_complex_dim=n,
        params={"r": float(r), "A": A, "n": n},
        atlas=atlas,
        jet_fn=jet_fn,
    )


# -- Product torus ------------------------------------------------------------


def make_product_torus(radii) -> Immersion:
    """(t_1..t_n) -> (r_1 e^{i t_1}, ..., r_n e^{i t_n})."""
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0):
        raise ValueError("torus radii must be positive")
    n = len(radii)

    def jet_fn(chart_id, coords, order):
        sp = jet_space(n, order)
        t = Jet.variables(sp, coords)
        zs = [ComplexJet(t[j].cos(), t[j].sin()).scale_real(radii[j]) for j in range(n)]
        return _flatten_complex(zs)

    return Immersion(
        name="product_torus",
        source_dim=n,
        ambient=AMBIENT_CN,
        ambient_complex_dim=n,
        params={"radii": radii, "n": n},
        atlas=TorusAtlas(n),
        jet_fn=jet_fn,
    )


# -- Lagrangian plane and the deliberately broken variant ---------------------


def make_lagrangian_plane(n: int) -> Immersion:
    def jet_fn(chart_id, coords, order):
        sp = jet_space(n, order)
        u = Jet.variables(sp, coords)
        return _flatten_complex([ComplexJet.from_real(ui) for ui in u])

    return Immersion(
        name="lagrangian_plane",
        source_dim=n,
        ambient=AMBIENT_CN,
        ambient_complex_dim=n,
        params={"n": n},
        atlas=PlaneAtlas(n),
        jet_fn=jet_fn,
        compact=False,
    )


def make_nonlagrangian_plane(n: int) -> Immersion:
    """Plane with the last direction complexified: x -> (x_1,..,x_{n-1}, x_n + i x_1).

    Not Lagrangian; used to exercise the failure diagnostics.
    """

    def jet_fn(chart_id, coords, order):
        sp = jet_space(n, order)
        u = Jet.variables(sp, coords)
        zs = [ComplexJet.from_real(u[j]) for j in range(n - 1)]
        zs.append(ComplexJet(u[n - 1], u[0]))
        return _flatten_complex(zs)

    return Immersion(
        name="nonlagrangian_plane",
        source_dim=n,
        ambient=AMBIENT_CN,
        ambient_complex_dim=n,
        params={"n": n},
        atlas=PlaneAtlas(n),
        jet_fn=jet_fn,
        compact=False,
    )


# -- Ambient linear images (isometries, symplectic flows, perturbations) -----


@dataclass
class _LinearMap:
    matrix: np.ndarray
    offset: np.ndarray


def linear_image(base: Immersion, matrix: np.ndarray, offset=None, name=None) -> Immersion:
    """Compose an immersion with an affine map of the ambient R^{2m}."""
    m2 = 2 * base.ambient_complex_dim
    matrix = np.asarray(matrix, dtype=float)
    offset = np.zeros(m2) if offset is None else np.asarray(offset, dtype=float)
    if matrix.shape != (m2, m2) or offset.shape != (m2,):
        raise ValueError("ambient map has the wrong shape")

    def jet_fn(chart_id, coords, order):
        jets = base.jet_fn(chart_id, coords, order)
        raw = np.stack([j.c for j in jets])  # (2m, ncoef, B)
        out = np.einsum("cd,dkb->ckb", matrix, raw)
        out[:, 0, :] += offset[:, None]
        sp = jets[0].space
        return [Jet(sp, out[c], jets[c].order) for c in range(m2)]

    return Immersion(
        name=name or f"linear_image({base.name})",
        source_dim=base.source_dim,
        ambient=base.ambient,
        ambient_complex_dim=base.ambient_complex_dim,
        params=dict(base.params, matrix=matrix, offset=offset),
        atlas=base.atlas,
        jet_fn=jet_fn,
        compact=base.compact,
    )


def complex_to_real_matrix(U: np.ndarray) -> np.ndarray:
    """Embed an m x m complex matrix as a 2m x 2m real matrix on interleaved coords."""
    m = U.shape[0]
    R = np.zeros((2 * m, 2 * m))
    R[0::2, 0::2] = U.real
    R[0::2, 1::2] = -U.imag
    R[1::2, 0::2] = U.imag
    R[1::2, 1::2] = U.real
    return R


def random_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    Z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R))).conj()


def symplectic_j_matrix(m: int) -> np.ndarray:
    return complex_to_real_matrix(1j * np.eye(m))


def expm_series(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Taylor core."""
    norm = np.linalg.norm(A, ord="fro")
    s = max(0, int(math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0)
    T = A / (2**s)
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, 24):
        term = term @ T / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def make_perturbed_whitney(r: float, eps: float, mode: int, n: int = 2) -> Immersion:
    """Whitney sphere pushed through the time-eps flow of a quadratic Hamiltonian.

    The flow exp(eps * J Q) is an exact linear symplectomorphism, so the image
    stays Lagrangian for every eps, and eps = 0 reproduces the Whitney sphere
    exactly.  `mode` seeds the quadratic form Q.
    """
    if abs(eps) >= 0.1 * r:
        raise ValueError("perturbation amplitude must satisfy |eps| < 0.1 r")
    base = make_whitney_cn(r, None, n)
    rng = np.random.default_rng(1000 * n + int(mode))
    M = rng.normal(size=(2 * n, 2 * n))
    Q = 0.5 * (M + M.T)
    Q /= np.linalg.norm(Q, ord="fro")
    flow = expm_series(eps * (symplectic_j_matrix(n) @ Q))
    imm = linear_image(base, flow, name="perturbed_whitney")
    imm.params = {"r": float(r), "eps": float(eps), "mode": int(mode), "n": n}
    return imm


# -- Finite-difference fallback for black-box maps ---------------------------


def make_black_box(fn: Callable, n: int, ambient_complex_dim: int, atlas=None, name="black_box") -> Immersion:
    """Wrap a plain callable coords -> ambient reals as an Immersion.

    Jet coefficients come from nested central differences (step 1e-3 chart
    units, one Richardson pass per axis), so derived quantities live on the
    finite-difference rungs of the tolerance ladder rather than the exact-jet
    rung.
    """
    atlas = atlas or PlaneAtlas(n)
    step = 1e-3

    def partial_value(alpha, x):
        axis = next((a for a in range(n) if alpha[a] > 0), None)
        if axis is None:
            return np.asarray(fn(x), dtype=float)
        sub = list(alpha)
        sub[axis] -= 1

        def diff(h):
            up = x.copy()
            dn = x.copy()
            up[axis] += h
            dn[axis] -= h
            return (partial_value(sub, up) - partial_value(sub, dn)) / (2 * h)

        return (4.0 * diff(step / 2.0) - diff(step)) / 3.0

    def jet_fn(chart_id, coords, order):
        sp = jet_space(n, order)
        B = coords.shape[1]
        m2 = 2 * ambient_complex_dim
        raw = np.zeros((m2, sp.ncoef, B))
        for b in range(B):
            x = coords[:, b].copy()
            for k in range(sp.ncoef):
                alpha = sp.multi_indices[k]
                raw[:, k, b] = partial_value(list(alpha), x) / sp.coef_factorial[k]
        return [Jet(sp, raw[c]) for c in range(m2)]

    return Immersion(
        name=name,
        source_dim=n,
        ambient=AMBIENT_CN,
        ambient_complex_dim=ambient_complex_dim,
        params={"n": n},
        atlas=atlas,
        jet_fn=jet_fn,
        compact=not isinstance(atlas, PlaneAtlas),
    )


# ---------------------------------------------------------------------------
# Config-driven construction
# ---------------------------------------------------------------------------

FAMILY_REGISTRY: dict[str, Callable] = {}


def register_family(name: str, builder: Callable):
    FAMILY_REGISTRY[name] = builder


def _build_whitney_cn(params):
    A = params.get("A")
    if A is not None:
        A = np.array([complex(a[0], a[1]) if isinstance(a, (list, tuple)) else complex(a) for a in A])
    return make_whitney_cn(params.get("r", 1.0), A, int(params.get("n", 2)))


register_family("whitney_cn", _build_whitney_cn)
register_family("product_torus", lambda p: make_product_torus(p["radii"]))
register_family("lagrangian_plane", lambda p: make_lagrangian_plane(int(p.get("n", 2))))
register_family("nonlagrangian_plane", lambda p: make_nonlagrangian_plane(int(p.get("n", 2))))
register_family(
    "perturbed_whitney",
    lambda p: make_perturbed_whitney(
        p.get("r", 1.0), p.get("eps", 0.0), int(p.get("mode", 1)), int(p.get("n", 2))
    ),
)


def parse_immersion_config(text_or_dict) -> dict:
    """Accept a JSON object or key=value lines describing an immersion."""
    if isinstance(text_or_dict, dict):
        return dict(text_or_dict)
    text = text_or_dict.strip()
    if text.startswith("{"):
        return json.loads(text)
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"cannot parse config line: {line!r}")
        key, _, val = line.partition("=")
        try:
            out[key.strip()] = json.loads(val.strip())
        except json.JSONDecodeError:
            out[key.strip()] = val.strip()
    return out


def from_config(text_or_dict) -> Immersion:
    cfg = parse_immersion_config(text_or_dict)
    family = cfg.pop("family", None)
    if family not in FAMILY_REGISTRY:
        raise ValueError(f"unknown immersion family: {family!r}")
    return FAMILY_REGISTRY[family](cfg)
