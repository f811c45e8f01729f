"""Chart atlases and the built-in analytic immersion families.

Model manifolds are parametrized by explicit charts: two stereographic charts
for the sphere, one periodic chart for the torus, one global chart for the
plane; the atlas's quadrature `domain` ("sphere", "torus", or None on the
plane) alone says whether a body is closed.  A batch of points is
`(charts, coords)`, (N,) chart ids and (N, n) chart coordinates, and every
atlas method takes or returns one.  A family is a chart formula
`jet_fn(charts, u)` on truncated Taylor jets (`Immersion`), so derivative
data up to order 4 is exact; on the sphere it is a polynomial in u and
|u|^2 with the pole sign `SphereAtlas.sign`.  Complex ambient coordinates
are stored as interleaved reals (Re z_1, Im z_1, ...) in one buffer, an
(m, 2) array of pairs read as (2m,) or `interleave`'s scatter, and the complex
structure acts per pair as (a, b) -> (-b, a): `times_i` applies it as a signed
permutation of the components, to arrays and jets alike, so nothing is
multiplied by a matrix of J.  A body records its `params` as the JSON values
its report writes.  Every random draw of the package, the CLI's sample points
and `perturbed_whitney`'s quadratic form, comes from `Draws`, Python's seeded
`random.Random` stream.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .jets import Jet, jet_einsum, jet_space

SPHERE_CHART_RADIUS = 16.0  # declared open chart domain |u| < R
SPHERE_SWITCH_RADIUS = 2.0  # beyond this, evaluate in the opposite chart


class OutOfDomainError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Seeded draws and atlases
# ---------------------------------------------------------------------------


class Draws:
    """The draws of one seed: `random.Random(seed)`, whose `random()`
    sequence Python keeps the same across versions (numpy's `Generator` makes
    no such promise, and importing `numpy.random` costs about 6 MB), as numpy
    arrays.  `normal` and `uniform` take the arguments of the `Generator`
    methods of the same name that the atlases call, so an atlas draws from
    either."""

    def __init__(self, seed: int):
        if seed < 0:  # `random.Random` would draw the stream of -seed
            raise ValueError(f"a seed must be a non-negative integer, got {seed!r}")
        self._random = random.Random(seed).random

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """An array of `size` draws uniform on [low, high)."""
        u = np.array([self._random() for _ in range(int(np.prod(size)))])
        return low + (high - low) * u.reshape(size)

    def normal(self, size) -> np.ndarray:
        """An array of `size` standard normal draws, a pair from each two
        uniforms by the Box-Muller transform, in `math`'s scalar functions."""
        count = int(np.prod(size))
        out = []
        for _ in range((count + 1) // 2):
            radius = math.sqrt(-2.0 * math.log(1.0 - self._random()))
            angle = 2.0 * math.pi * self._random()
            out += (radius * math.cos(angle), radius * math.sin(angle))
        return np.array(out[:count]).reshape(size)


class SphereAtlas:
    """Two stereographic charts on S^n: chart 0 projects from the north pole
    (+e_{n+1}), chart 1 from the south pole; the change of chart is u -> u / |u|^2."""

    domain = "sphere"

    def __init__(self, n: int):
        self.n = n

    def contains(self, charts, coords) -> np.ndarray:
        """(N,) mask of the points in their chart's domain |u| < R."""
        return np.isin(charts, (0, 1)) & (np.linalg.norm(coords, axis=1) < SPHERE_CHART_RADIUS)

    def normalize(self, charts, coords) -> tuple[np.ndarray, np.ndarray]:
        """Move badly conditioned points (|u| > 2) to the opposite chart."""
        r2 = np.einsum("na,na->n", coords, coords)
        far = np.sqrt(r2) > SPHERE_SWITCH_RADIUS
        return np.where(far, 1 - charts, charts), coords / np.where(far, r2, 1.0)[:, None]

    @staticmethod
    def sign(charts) -> np.ndarray:
        """+1 in chart 0, -1 in chart 1 for each entry of `charts`: the pole
        sign sigma of the embedded x_{n+1} = sigma (|u|^2 - 1) / (1 + |u|^2)."""
        return np.where(np.asarray(charts) == 0, 1.0, -1.0)

    def from_embedded(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(N,) chart ids and (N, n) coordinates of an (N, n+1) batch of points
        of S^n, each in the chart whose pole it is farther from."""
        x = np.asarray(x, dtype=float)
        charts = (x[:, self.n] > 0).astype(int)
        return charts, x[:, : self.n] / (1.0 - self.sign(charts) * x[:, self.n])[:, None]

    def random(self, draws: Draws | np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
        """`count` points uniform on S^n, each in the chart `from_embedded`
        picks, from `draws`: a `Draws` or a numpy `Generator`."""
        xs = draws.normal(size=(count, self.n + 1))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        return self.from_embedded(xs)


class PlaneAtlas:
    """One global chart, which no point leaves; `random` draws uniformly from
    the cube [box[0], box[1])^n, from a `Draws` or a numpy `Generator`."""

    domain = None  # an open body: no quadrature domain
    box = (-1.5, 1.5)

    def __init__(self, n: int):
        self.n = n

    def contains(self, charts, coords) -> np.ndarray:
        return np.asarray(charts) == 0

    def normalize(self, charts, coords) -> tuple[np.ndarray, np.ndarray]:
        return charts, coords

    def random(self, draws: Draws | np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(count, dtype=int), draws.uniform(*self.box, size=(count, self.n))


class TorusAtlas(PlaneAtlas):
    """Single 2*pi-periodic chart of angles."""

    domain = "torus"
    box = (0.0, 2.0 * math.pi)


# ---------------------------------------------------------------------------
# Immersions
# ---------------------------------------------------------------------------

AMBIENT_CN = "ComplexEuclidean"
AMBIENT_SPHERE = "HomogeneousSphere"


@dataclass
class Immersion:
    """A parametrized immersion of a model manifold into C^m (as R^{2m}).

    `jet_fn(charts, u)` maps an (n,) coordinate jet u of a batch of chart
    points to one (2m,) jet of the interleaved real ambient coordinates;
    `charts` is one chart id for the whole batch or a (B,) array of ids, one
    per point, so one batch may span several charts.  `jets` passes the
    seeded coordinates (`Jet.variables`), but a caller may pass any (n,)
    jet, such as a linear one R v in another chart.  A formula therefore
    takes |u|^2 as `u.norm_sq()`, u s for a scalar jet s as `u.times(s)`
    and sin u, cos u as `u.sin_cos()`: on a seed these write their rows
    directly, and on any other jet they are the generic arithmetic, with the
    same bits either way.  `u.times(s, out=)` and `u.sin_cos(out=)` write
    into a caller's arrays, such as the halves of the family's interleaved
    buffer.  The jet returned owns its coefficient array, so its reader may
    overwrite it.
    """

    name: str
    ambient: str
    params: dict
    atlas: object
    jet_fn: Callable = field(repr=False)

    @property
    def source_dim(self) -> int:
        return self.atlas.n

    @property
    def ambient_complex_dim(self) -> int:
        """m of the ambient C^m: n in C^n, n + 1 for the lift of a body in CP^n."""
        return self.source_dim + 1 if self.ambient == AMBIENT_SPHERE else self.source_dim

    @property
    def compact(self) -> bool:
        """Closed model manifold: its atlas names a quadrature domain."""
        return self.atlas.domain is not None

    def jets(self, charts, coords: np.ndarray, order: int) -> Jet:
        """The (2m,) ambient jet of `order` at the (B, n) chart coords, each
        row in its chart from `charts`: the one place the coordinate jet is
        seeded, and so the one transpose into the jet layout.  The seed is
        handed over with no reference kept here, so a family may free it
        before its last product."""
        sp = jet_space(self.source_dim, order)
        return self.jet_fn(charts, Jet.variables(sp, np.asarray(coords, dtype=float).T))


def interleave(re: Jet, im: Jet | None = None) -> Jet:
    """The (2m,) jet (Re z_1, Im z_1, ...) of z = re + i im from two (m,)
    jets, scattered into one buffer; a missing `im` is zero.  The result is
    valid to the lower of the two orders."""
    order = re.order if im is None else min(re.order, im.order)
    rows = re.space.ncoef_by_degree[order]
    c = np.zeros((2 * re.shape[0], rows, re.c.shape[-1]))
    c[0::2] = re.c[..., :rows, :]
    if im is not None:
        c[1::2] = im.c[..., :rows, :]
    return Jet(re.space, c, order)


def times_i(x, axis: int = 0):
    """Multiplication by i on interleaved reals, (a, b) -> (-b, a) on each
    pair along `axis`: a signed permutation, so no product is formed.  `x`
    is an array or a jet, whose `axis` counts its tensor axes."""
    if isinstance(x, Jet):
        return Jet(x.space, times_i(x.c, axis), x.order)
    re = (slice(None),) * axis + (slice(0, None, 2),)
    im = (slice(None),) * axis + (slice(1, None, 2),)
    out = np.empty_like(x)
    np.negative(x[im], out=out[re])
    out[im] = x[re]
    return out


# -- Whitney sphere in C^n ---------------------------------------------------

_PLUS_MINUS = np.array([[1.0], [-1.0]])


def _whitney_profile(s0: np.ndarray, sign, r: float, order: int) -> list[np.ndarray]:
    """The Taylor coefficients g_k, k = 0..order, of [Re, Im] G(s0 + t) at
    the (B,) values s0 of s = |u|^2, each a (2, B) array, for the profile
    G(s) = r (1 + s + i sigma (s - 1)) / (1 + s^2) of `make_whitney_cn`:
    the numerators b (s0 + (1, -1) + t), b = r (1, sigma), divided as series
    by d0 + d1 t + t^2 = 1 + (s0 + t)^2."""
    d0, d1 = 1.0 + s0 * s0, 2.0 * s0
    b = np.empty((2,) + s0.shape)
    b[0], b[1] = r, r * sign
    g = [b * (s0 + _PLUS_MINUS) / d0]
    if order:
        g.append((b - d1 * g[0]) / d0)
    for _ in range(2, order + 1):
        g.append(-(d1 * g[-1] + g[-2]) / d0)
    return g


def make_whitney_cn(r: float, A=None, n: int = 2) -> Immersion:
    """Whitney sphere immersion of S^n into C^n with radius r and offset A.

    In embedded sphere coordinates the complex components are
    z_j = r x_j (1 + i x_{n+1}) / (1 + x_{n+1}^2) + A_j, which in the chart
    is z = u G(s) + A with G(s) = r (1 + s + i sigma (s - 1)) / (1 + s^2)
    (s = |u|^2 = `norm_sq`, sigma = `SphereAtlas.sign`).  The Taylor
    coefficients of Re G and Im G at s0 come from the division of their
    linear numerators by 1 + s^2, a few per-point array operations with no
    jet, and `compose_series` turns them into two scalar jets, whose
    products with u (`times`) are written into the halves of the
    interleaved buffer.
    """
    if r <= 0:
        raise ValueError("whitney radius r must be positive")
    if n < 2:
        raise ValueError("whitney sphere needs n >= 2")
    A = np.zeros(n, dtype=complex) if A is None else np.asarray(A, dtype=complex)
    if A.shape != (n,):
        raise ValueError(f"offset A must have length {n}")
    atlas = SphereAtlas(n)
    pairs = np.stack([A.real, A.imag], axis=1)
    offset = pairs[:, :, None]

    def jet_fn(charts, u):
        sp, rows = u.space, u.c.shape[1:]
        s = u.norm_sq()
        re, im = s.compose_series(*zip(*_whitney_profile(s.value, atlas.sign(charts), r, u.order)))
        del s  # with the coefficients, before the buffer
        z = np.empty((n, 2) + rows)  # [j, re/im]: interleaved once reshaped
        u.times(re, out=z[:, 0])
        del re  # each profile dies after its product
        u.times(im, out=z[:, 1])
        del u, im
        z[:, :, 0] += offset
        return Jet(sp, z.reshape((2 * n,) + rows))

    return Immersion(
        name="whitney_cn",
        ambient=AMBIENT_CN,
        params={"r": float(r), "A": pairs.tolist(), "n": n},
        atlas=atlas,
        jet_fn=jet_fn,
    )


# -- Product torus ------------------------------------------------------------


def make_product_torus(radii) -> Immersion:
    """(t_1..t_n) -> (r_1 e^{i t_1}, ..., r_n e^{i t_n}): the rows of
    cos t and sin t are written into the halves of the interleaved buffer,
    which is then scaled by the radii."""
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1:
        raise ValueError("torus radii must be a flat list")
    if np.any(radii <= 0):
        raise ValueError("torus radii must be positive")
    n = len(radii)
    if n == 0:
        raise ValueError("a torus needs at least one radius")

    def jet_fn(charts, u):
        z = np.zeros((n, 2) + u.c.shape[1:])  # [a, re/im]: interleaved once reshaped
        u.sin_cos(out=(z[:, 1], z[:, 0]))
        z *= radii[:, None, None, None]
        return Jet(u.space, z.reshape((2 * n,) + u.c.shape[1:]), u.order)

    return Immersion(
        name="product_torus",
        ambient=AMBIENT_CN,
        params={"radii": radii.tolist(), "n": n},
        atlas=TorusAtlas(n),
        jet_fn=jet_fn,
    )


# -- Lagrangian plane and the deliberately broken variant ---------------------


def make_lagrangian_plane(n: int) -> Immersion:
    if n < 1:
        raise ValueError("a plane needs n >= 1")

    def jet_fn(charts, u):
        return interleave(u)

    return Immersion(
        name="lagrangian_plane",
        ambient=AMBIENT_CN,
        params={"n": n},
        atlas=PlaneAtlas(n),
        jet_fn=jet_fn,
    )


def make_nonlagrangian_plane(n: int) -> Immersion:
    """Plane with the last direction complexified: x -> (x_1,..,x_{n-1}, x_n + i x_1).

    Not Lagrangian; used to exercise the failure diagnostics.  At n = 1 the
    line x -> x + i x would be Lagrangian, so it needs n >= 2.
    """
    if n < 2:
        raise ValueError("a non-Lagrangian plane needs n >= 2")
    first_to_last = np.zeros((n, n))
    first_to_last[n - 1, 0] = 1.0

    def jet_fn(charts, u):
        return interleave(u, jet_einsum("ja,a->j", first_to_last, u))

    return Immersion(
        name="nonlagrangian_plane",
        ambient=AMBIENT_CN,
        params={"n": n},
        atlas=PlaneAtlas(n),
        jet_fn=jet_fn,
    )


# -- Ambient linear images (isometries, symplectic flows, perturbations) -----


def linear_image(base: Immersion, matrix: np.ndarray, offset=None, name=None) -> Immersion:
    """Compose an immersion with an affine map of the ambient R^{2m}."""
    m2 = 2 * base.ambient_complex_dim
    matrix = np.asarray(matrix, dtype=float)
    offset = np.zeros(m2) if offset is None else np.asarray(offset, dtype=float)
    if matrix.shape != (m2, m2) or offset.shape != (m2,):
        raise ValueError("ambient map has the wrong shape")

    def jet_fn(charts, u):
        image = jet_einsum("cd,d->c", matrix, base.jet_fn(charts, u))
        image.c[:, 0] += offset[:, None]  # a fresh array: the offset needs no copy
        return image

    return replace(
        base,
        name=name or f"linear_image({base.name})",
        params=dict(base.params, matrix=matrix.tolist(), offset=offset.tolist()),
        jet_fn=jet_fn,
    )


def expm_series(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of a small matrix, ||A||_F <= 0.25, by its Taylor
    series to order 23, whose remainder is below 1e-30 there."""
    if not np.linalg.norm(A, ord="fro") <= 0.25:
        raise ValueError("expm_series needs a matrix of Frobenius norm at most 0.25")
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, 24):
        term = term @ A / k
        out = out + term
    return out


def make_perturbed_whitney(r: float, eps: float, mode: int, n: int = 2) -> Immersion:
    """Whitney sphere pushed through the time-eps flow of a quadratic Hamiltonian.

    The flow exp(eps * J Q) is an exact linear symplectomorphism, so the image
    stays Lagrangian for every eps, and eps = 0 reproduces the Whitney sphere
    exactly.  `mode` >= 0 picks the quadratic form Q: a symmetrized normal
    matrix of unit Frobenius norm from `Draws(1000 n + mode)`.  The flow is
    linear, so it commutes with dilations, and the bound |eps| < 0.1 on its
    amplitude holds at every r.
    """
    if abs(eps) >= 0.1:
        raise ValueError("perturbation amplitude must satisfy |eps| < 0.1")
    if mode < 0:
        raise ValueError(f"mode must be a non-negative integer, got {mode!r}")
    base = make_whitney_cn(r, None, n)
    M = Draws(1000 * n + mode).normal(size=(2 * n, 2 * n))
    Q = 0.5 * (M + M.T)
    Q /= np.linalg.norm(Q, ord="fro")
    flow = expm_series(eps * times_i(Q))
    imm = linear_image(base, flow, name="perturbed_whitney")
    imm.params = {"r": float(r), "eps": float(eps), "mode": int(mode), "n": n}
    return imm
