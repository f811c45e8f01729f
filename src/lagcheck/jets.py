"""Forward-mode truncated Taylor jets of tensor fields in several variables.

A jet carries every partial derivative of a smooth expression up to a fixed
total degree (4 at most here).  Evaluating an analytic formula on seeded
variables therefore yields machine-precision derivatives, which keeps the
curvature identities downstream at the 1e-9 level instead of the 1e-3
typical of finite differencing.

One jet holds a whole tensor: its coefficient array has shape
(*shape, ncoef, B), leading tensor axes, then one row per multi-index, then
a batch axis, so one jet expression evaluates a whole set of chart points at
once.  A scalar jet is the case shape == ().  Ring operations act on the
coefficient axis and broadcast over the tensor axes; `jet_einsum` fuses a
tensor contraction with the truncated product (multivariate Taylor
arithmetic, Griewank & Walther, *Evaluating Derivatives*, ch. 13).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import factorial

import numpy as np


@lru_cache(maxsize=None)
def jet_space(nvars: int, order: int) -> "JetSpace":
    return JetSpace(nvars, order)


class JetSpace:
    """Multi-index bookkeeping shared by all jets of a given (nvars, order).

    Multi-indices are enumerated degree-major, so truncating a computation to
    a lower valid order is a prefix operation on both the coefficient vector
    and the multiplication table.
    """

    def __init__(self, nvars: int, order: int):
        if nvars < 1 or order < 0:
            raise ValueError("need nvars >= 1 and order >= 0")
        self.nvars = nvars
        self.order = order

        alphas = [a for a in product(range(order + 1), repeat=nvars) if sum(a) <= order]
        alphas.sort(key=lambda a: (sum(a), a))
        self.multi_indices = np.array(alphas, dtype=np.int64)
        self.ncoef = len(alphas)
        self.index_of = {a: k for k, a in enumerate(alphas)}
        self.degrees = self.multi_indices.sum(axis=1)
        # number of coefficients of degree <= d
        self.ncoef_by_degree = np.searchsorted(self.degrees, np.arange(order + 1), side="right")
        self.coef_factorial = np.array(
            [float(np.prod([factorial(int(x)) for x in a])) for a in alphas]
        )

        # Convolution table: ordered pairs (i, j) with deg_i + deg_j <= order,
        # sorted by the output index k = index(alpha_i + alpha_j).
        II, JJ, KK = [], [], []
        for i, ai in enumerate(alphas):
            di = sum(ai)
            for j, aj in enumerate(alphas):
                if di + sum(aj) > order:
                    continue
                II.append(i)
                JJ.append(j)
                KK.append(self.index_of[tuple(x + y for x, y in zip(ai, aj))])
        KK = np.array(KK, dtype=np.int64)
        srt = np.argsort(KK, kind="stable")
        self._mul_i = np.array(II, dtype=np.int64)[srt]
        self._mul_j = np.array(JJ, dtype=np.int64)[srt]
        self._mul_k = KK[srt]
        self._mul_starts = np.searchsorted(self._mul_k, np.arange(self.ncoef))
        degk = self.degrees[self._mul_k]
        self._mul_pairs_by_degree = np.searchsorted(degk, np.arange(order + 1), side="right")

        # Derivative tables: source index and scale for d/du_a.
        self._d_src = np.zeros((nvars, self.ncoef), dtype=np.int64)
        self._d_scale = np.zeros((nvars, self.ncoef))
        for k, a in enumerate(alphas):
            if sum(a) >= order:
                continue
            for v in range(nvars):
                shifted = list(a)
                shifted[v] += 1
                self._d_src[v, k] = self.index_of[tuple(shifted)]
                self._d_scale[v, k] = a[v] + 1

        self._deg_mask = {
            d: (self.degrees <= d).astype(float)[:, None] for d in range(order + 1)
        }


def _coeff_array(space: JetSpace, batch: int) -> np.ndarray:
    return np.zeros((space.ncoef, batch))


class Jet:
    """Truncated Taylor expansion of a tensor field, valid up to total degree
    `order`.

    `c` has shape (*shape, ncoef, B).  Coefficient rows with degree beyond
    `order` are kept identically zero so that stale high-order data can never
    leak into a product.
    """

    __slots__ = ("space", "order", "c")

    def __init__(self, space: JetSpace, coeffs: np.ndarray, order: int | None = None):
        self.space = space
        self.c = coeffs
        self.order = space.order if order is None else order

    # -- construction -------------------------------------------------

    @staticmethod
    def constant(space: JetSpace, value, batch: int | None = None) -> "Jet":
        value = np.asarray(value, dtype=float)
        if batch is None:
            batch = value.size if value.ndim else 1
        c = _coeff_array(space, batch)
        c[0] = value
        return Jet(space, c)

    @staticmethod
    def variables(space: JetSpace, values: np.ndarray) -> list["Jet"]:
        """Seed the chart coordinates; `values` has shape (nvars,) or (nvars, B)."""
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if values.shape[0] != space.nvars:
            values = values.T
        if values.shape[0] != space.nvars:
            raise ValueError("seed array does not match nvars")
        out = []
        for v in range(space.nvars):
            c = _coeff_array(space, values.shape[1])
            c[0] = values[v]
            if space.order >= 1:
                unit = [0] * space.nvars
                unit[v] = 1
                c[space.index_of[tuple(unit)]] = 1.0
            out.append(Jet(space, c))
        return out

    @staticmethod
    def stack(jets: list["Jet"]) -> "Jet":
        """Stack jets of equal shape along a new leading axis."""
        return Jet(jets[0].space, np.stack([j.c for j in jets]), min(j.order for j in jets))

    # -- tensor axes ---------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.c.shape[:-2]

    @property
    def ndim(self) -> int:
        return self.c.ndim - 2

    def __getitem__(self, idx) -> "Jet":
        """Index the tensor axes only; the coefficient and batch axes stay."""
        idx = idx if isinstance(idx, tuple) else (idx,)
        if len(idx) > self.ndim or any(i is Ellipsis for i in idx):
            raise IndexError("jet indexing covers the tensor axes only")
        return Jet(self.space, self.c[idx], self.order)

    def transpose(self, *axes: int) -> "Jet":
        nd = self.ndim
        return Jet(self.space, self.c.transpose(*axes, nd, nd + 1), self.order)

    # -- extraction ----------------------------------------------------

    @property
    def value(self) -> np.ndarray:
        """Values at the expansion points, shape (*shape, B)."""
        return self.c[..., 0, :]

    def deriv(self, alpha) -> np.ndarray:
        """Partial derivative d^alpha at the expansion point."""
        alpha = tuple(int(a) for a in alpha)
        if sum(alpha) > self.order:
            raise ValueError(f"derivative {alpha} exceeds valid order {self.order}")
        k = self.space.index_of[alpha]
        return self.c[..., k, :] * self.space.coef_factorial[k]

    # -- ring operations -----------------------------------------------

    def _wrap(self, other):
        if isinstance(other, Jet):
            return other
        c = np.zeros(self.c.shape)
        c[..., 0, :] = np.asarray(other, dtype=float)
        return Jet(self.space, c)

    def __add__(self, other):
        o = self._wrap(other)
        vo = min(self.order, o.order)
        c = self.c + o.c
        if vo < min(self.space.order, max(self.order, o.order)):
            c = c * self.space._deg_mask[vo]
        return Jet(self.space, c, vo)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.c, self.order)

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return (-self) + other

    def scaled(self, factor) -> "Jet":
        """Multiply by a plain scalar, a per-batch (B,) array or a
        per-component (*shape, B) array."""
        factor = np.asarray(factor, dtype=float)
        return Jet(self.space, self.c * (factor[..., None, :] if factor.ndim else factor), self.order)

    def __mul__(self, other):
        """Componentwise truncated product; tensor axes broadcast."""
        if not isinstance(other, Jet):
            return self.scaled(other)
        return _truncated_product(self, other, np.multiply)

    def __rmul__(self, other):
        return self.scaled(other)

    def _reciprocal(self) -> "Jet":
        b0 = self.value
        if np.any(np.abs(b0) < 1e-300):
            raise ZeroDivisionError("jet reciprocal at vanishing value")
        t = self.scaled(1.0 / b0)
        t.c[..., 0, :] -= 1.0
        r = self._wrap(1.0)
        r.order = self.order
        for _ in range(self.order):
            r = 1.0 - t * r
        return r.scaled(1.0 / b0)

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self.scaled(1.0 / np.asarray(other, dtype=float))
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal().scaled(other)

    # -- calculus ------------------------------------------------------

    def partial(self, var: int) -> "Jet":
        """d/du_var as a jet, valid one order lower."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        sp = self.space
        c = self.c[..., sp._d_src[var], :] * sp._d_scale[var][:, None]
        return Jet(sp, c, self.order - 1)

    def grad(self) -> "Jet":
        """All first partials as a jet with a trailing derivative axis:
        shape (*shape, nvars), valid one order lower."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        sp = self.space
        c = self.c[..., sp._d_src, :] * sp._d_scale[:, :, None]
        return Jet(sp, c, self.order - 1)

    def compose_series(self, coefs: list[np.ndarray]) -> "Jet":
        """Evaluate sum_k coefs[k] * (self - self.value)^k by Horner."""
        t = Jet(self.space, self.c.copy(), self.order)
        t.c[..., 0, :] = 0.0
        r = self._wrap(coefs[self.order])
        r.order = self.order
        for k in range(self.order - 1, -1, -1):
            r = t * r + coefs[k]
        return r

    def sqrt(self) -> "Jet":
        b0 = self.value
        if np.any(b0 <= 0):
            raise ValueError("jet sqrt of non-positive value")
        t = self.scaled(1.0 / b0)
        coefs, ck = [], 1.0
        for k in range(self.order + 1):
            coefs.append(ck)
            ck *= (0.5 - k) / (k + 1)
        return t.compose_series(coefs).scaled(np.sqrt(b0))

    def sin(self) -> "Jet":
        return self._trig(np.sin, np.cos)

    def cos(self) -> "Jet":
        return self._trig(np.sin, np.cos, phase=1)

    def _trig(self, fsin, fcos, phase: int = 0):
        x0 = self.value
        cycle = [fsin(x0), fcos(x0), -fsin(x0), -fcos(x0)]
        coefs = [cycle[(k + phase) % 4] / factorial(k) for k in range(self.order + 1)]
        return self.compose_series(coefs)

    def exp(self) -> "Jet":
        e0 = np.exp(self.value)
        coefs = [e0 / factorial(k) for k in range(self.order + 1)]
        return self.compose_series(coefs)

    def truncated(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        return Jet(self.space, self.c * self.space._deg_mask[order], order)

    def __repr__(self):
        return f"Jet(shape={self.shape}, order={self.order}, value={self.value!r})"


def jet_einsum(spec: str, a: Jet | np.ndarray, b: Jet) -> Jet:
    """Tensor contraction of two jets fused with their truncated product.

    `spec` is an `np.einsum` subscript string over the tensor axes only, for
    example "ia,ca->ic".  The result is valid to the lower of the two orders;
    every ordered pair of coefficient rows (i, j) up to that degree is
    contracted in one einsum and the pairs are summed into their output row
    i + j.  `a` may also be a constant array, which needs no product.
    """
    ins, out = spec.replace(" ", "").split("->")
    sa, sb = ins.split(",")
    if not isinstance(a, Jet):
        return Jet(b.space, np.einsum(f"{sa},{sb}...->{out}...", a, b.c), b.order)
    return _truncated_product(a, b, lambda x, y: np.einsum(f"{sa}...,{sb}...->{out}...", x, y))


def _truncated_product(a: Jet, b: Jet, combine) -> Jet:
    """Sum `combine(row i of a, row j of b)` into row i + j over all ordered
    pairs of coefficient rows up to the lower valid order; rows above it
    stay zero."""
    sp = a.space
    vo = min(a.order, b.order)
    npairs = sp._mul_pairs_by_degree[vo]
    ncf = sp.ncoef_by_degree[vo]
    prod = combine(a.c[..., sp._mul_i[:npairs], :], b.c[..., sp._mul_j[:npairs], :])
    c = np.zeros(prod.shape[:-2] + (sp.ncoef, prod.shape[-1]))
    c[..., :ncf, :] = np.add.reduceat(prod, sp._mul_starts[:ncf], axis=-2)
    return Jet(sp, c, vo)


def potential_from_gradient(space: JetSpace, grads: list[Jet]) -> Jet:
    """Jet psi with d(psi)/du_a = -grads[a] and psi(0) = 0.

    Uses the explicit homotopy for the Poincare lemma on Taylor coefficients;
    exact whenever the 1-form `grads` is closed, which the caller checks.
    """
    order = min(g.order for g in grads) + 1
    if order > space.order:
        order = space.order
    c = np.zeros_like(grads[0].c)
    for k in range(space.ncoef):
        deg = int(space.degrees[k])
        if deg < 1 or deg > order:
            continue
        alpha = space.multi_indices[k]
        acc = 0.0
        for a in range(space.nvars):
            if alpha[a] == 0:
                continue
            beta = alpha.copy()
            beta[a] -= 1
            acc = acc + grads[a].c[space.index_of[tuple(beta)]]
        c[k] = -acc / deg
    return Jet(space, c, order)


class ComplexJet:
    """Complex-valued jet stored as a (re, im) pair of real jets."""

    __slots__ = ("re", "im")

    def __init__(self, re: Jet, im: Jet):
        self.re = re
        self.im = im

    @staticmethod
    def from_real(re: Jet) -> "ComplexJet":
        zero = Jet(re.space, np.zeros_like(re.c), re.order)
        return ComplexJet(re, zero)

    def __add__(self, other: "ComplexJet") -> "ComplexJet":
        return ComplexJet(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexJet") -> "ComplexJet":
        return ComplexJet(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ComplexJet") -> "ComplexJet":
        return ComplexJet(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self) -> "ComplexJet":
        return ComplexJet(self.re, -self.im)

    def times_i(self) -> "ComplexJet":
        return ComplexJet(-self.im, self.re)

    def abs2(self) -> Jet:
        return self.re * self.re + self.im * self.im

    def scale_complex(self, re_c, im_c) -> "ComplexJet":
        """Multiply by a constant complex number (scalar or per-batch arrays)."""
        return ComplexJet(
            self.re.scaled(re_c) - self.im.scaled(im_c),
            self.re.scaled(im_c) + self.im.scaled(re_c),
        )

    def __truediv__(self, other: "ComplexJet") -> "ComplexJet":
        inv = other.abs2()._reciprocal()
        num = self * other.conj()
        return ComplexJet(num.re * inv, num.im * inv)

    def scale_real(self, jet_or_scalar) -> "ComplexJet":
        if isinstance(jet_or_scalar, Jet):
            return ComplexJet(self.re * jet_or_scalar, self.im * jet_or_scalar)
        return ComplexJet(self.re.scaled(jet_or_scalar), self.im.scaled(jet_or_scalar))
