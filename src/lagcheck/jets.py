"""Forward-mode truncated Taylor jets of tensor fields in several variables.

A jet carries every partial derivative of a smooth expression up to a fixed
total degree (4 at most here).  Evaluating an analytic formula on seeded
variables therefore yields machine-precision derivatives, which keeps the
curvature identities downstream at the 1e-9 level instead of the 1e-3
typical of finite differencing.

One jet holds a whole tensor: its coefficient array has shape
(*shape, ncoef_by_degree[order], B), leading tensor axes, then one row per
multi-index of degree <= order, then a batch axis, so one jet expression
evaluates a whole set of chart points at once.  A scalar jet is the case
shape == ().  As in multivariate Taylor arithmetic (Griewank & Walther,
*Evaluating Derivatives*, ch. 13), a result valid to degree k carries only
the degrees <= k: every operation allocates just the rows of its own valid
order, so a derivative or a product of low-order jets costs low-order memory.
Ring operations act on the coefficient axis and broadcast over the tensor
axes; `jet_einsum` fuses a tensor contraction with the truncated product.
The product works on slices of the coefficient rows, never on gathered
copies: the degree-0 terms of the convolution are two broadcast scalings,
and the rows of each degree p >= 1 of one factor meet the rows of degrees
1..d-p of the other in one broadcast call whose pairs a small 0/1 matrix sums
into their output rows.  The chart coordinates are seeded as
one (nvars,) jet and an immersion's ambient coordinates are one (2m,) jet,
so each primitive acts on a whole vector of series at once.  The seed's
rows are known, the value and one 1 per coordinate (the Taylor propagation
of independent variables, ibid.), so |u|^2, u x and sin u, cos u write the
few rows of their results that are not zero instead of multiplying those
zeros and ones (`Jet.seeded`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import factorial

import numpy as np


@lru_cache(maxsize=None)
def jet_space(nvars: int, order: int) -> "JetSpace":
    return JetSpace(nvars, order)


class JetSpace:
    """Multi-index bookkeeping shared by all jets of a given (nvars, order).

    Multi-indices are enumerated degree-major, so truncating a computation to
    a lower valid order is a prefix operation on the coefficient vector, and
    the rows of one degree are a contiguous slice.  Within a degree the rows
    run in lexicographic order of the multi-index, so the degree-1 row of
    variable a is not row 1 + a: `pure_rows` and `second_rows` map
    variables to rows.
    """

    def __init__(self, nvars: int, order: int):
        if nvars < 1 or order < 0:
            raise ValueError("need nvars >= 1 and order >= 0")
        self.nvars = nvars
        self.order = order

        # Each multi-index of degree d counts the variables of one multiset of
        # d of them, so the C(nvars + order, order) rows are built directly.
        alphas = [tuple(map(vs.count, range(nvars))) for d in range(order + 1)
                  for vs in combinations_with_replacement(range(nvars), d)]
        alphas.sort(key=lambda a: (sum(a), a))
        self.multi_indices = np.array(alphas, dtype=np.int64)
        self.ncoef = len(alphas)
        self.index_of = {a: k for k, a in enumerate(alphas)}
        self.degrees = self.multi_indices.sum(axis=1)
        # number of coefficients of degree <= d
        self.ncoef_by_degree = np.searchsorted(self.degrees, np.arange(order + 1), side="right")

        # Pair tables of the truncated product.  The pairs through row 0 are
        # plain scalings; the others, row i of degree p >= 1 with row j of
        # degree 1..d - p, sum into row index(alpha_i + alpha_j) of degree
        # <= d.  For valid order d and degree p, _pair_sum[d][p] is the 0/1
        # matrix taking those pairs, i-major, to the rows of degree p + 1..d.
        rows = self.ncoef_by_degree
        self._pair_sum = {}
        for d in range(2, order + 1):
            self._pair_sum[d] = {}
            for p in range(1, d):
                ii = range(rows[p - 1], rows[p])
                jj = range(1, rows[d - p])
                S = np.zeros((rows[d] - rows[p], len(ii) * len(jj)))
                for col, (i, j) in enumerate(product(ii, jj)):
                    S[self.index_of[tuple(x + y for x, y in zip(alphas[i], alphas[j]))] - rows[p], col] = 1.0
                self._pair_sum[d][p] = S

        # Row tables: pure_rows[k, a] is the row of u_a^k, the only row of
        # degree k at which a series in the seeded coordinate u_a is not zero;
        # at the expansion point d_a = row pure_rows[1, a], and d_a d_b =
        # second_factor[a, b] times row second_rows[a, b] (the factorial of
        # e_a + e_b: 2 on the diagonal).
        eye = np.eye(nvars, dtype=np.int64)
        self.pure_rows = np.array([[self.index_of[tuple(k * e)] for e in eye] for k in range(order + 1)])
        if order >= 2:
            self.second_rows = np.array([[self.index_of[tuple(x + y)] for y in eye] for x in eye])
            self.second_factor = 1.0 + np.eye(nvars)

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


class Jet:
    """Truncated Taylor expansion of a tensor field, valid up to total degree
    `order`.

    `c` has shape (*shape, ncoef_by_degree[order], B): the rows of degree
    beyond `order` are absent, so stale high-order data can never leak into
    a product.

    `seeded` marks the chart coordinates as `variables` writes them: a value
    row, 1 on each coordinate's own first row and zero everywhere else.
    Only `variables` sets it and no operation carries it over, so `norm_sq`,
    `times` and the sine and cosine may write the rows of a seed's result
    directly; on any other jet they take the generic product or series.
    """

    __slots__ = ("space", "order", "c", "seeded")

    def __init__(self, space: JetSpace, coeffs: np.ndarray, order: int | None = None):
        order = space.order if order is None else order
        rows = space.ncoef_by_degree[order]
        if coeffs.ndim < 2 or coeffs.shape[-2] != rows:
            raise ValueError(
                f"an order-{order} jet has {rows} coefficient rows, got shape {coeffs.shape}"
            )
        self.space = space
        self.c = coeffs
        self.order = order
        self.seeded = False

    # -- construction -------------------------------------------------

    @staticmethod
    def variables(space: JetSpace, values: np.ndarray) -> "Jet":
        """Seed the chart coordinates as one (nvars,) jet; `values` has shape
        (nvars,) or (nvars, B).  `u[a]` is the jet of coordinate a."""
        values = np.asarray(values, dtype=float)
        values = values[:, None] if values.ndim == 1 else values
        if values.ndim != 2 or values.shape[0] != space.nvars:
            raise ValueError(f"seed array of shape {values.shape} is not ({space.nvars},) or ({space.nvars}, B)")
        c = np.zeros((space.nvars, space.ncoef, values.shape[1]))
        c[:, 0] = values
        if space.order >= 1:
            c[np.arange(space.nvars), space.pure_rows[1]] = 1.0
        u = Jet(space, c)
        u.seeded = True
        return u

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

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet):
            c = self.c.copy()
            c[..., 0, :] += np.asarray(other, dtype=float)
            return Jet(self.space, c, self.order)
        vo = min(self.order, other.order)
        rows = self.space.ncoef_by_degree[vo]
        return Jet(self.space, self.c[..., :rows, :] + other.c[..., :rows, :], vo)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.c, self.order)

    def __sub__(self, other):
        return self + (-other)

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

    def norm_sq(self) -> "Jet":
        """|self|^2 = sum_a self[a]^2 of a vector jet, as a scalar jet.  On
        the seeded coordinates its rows are written directly: the value
        |u0|^2, 2 u0_a on the first rows and 1 on each pure second row, bit
        for bit what the truncated product gives."""
        if not self.seeded:
            return jet_einsum("a,a->", self, self)
        sp = self.space
        v = self.c[:, :1]
        c = np.zeros(self.c.shape[1:])
        c[:1] = np.einsum("a...,a...->...", v, v)  # summed in the order the product sums it
        if self.order >= 1:
            c[sp.pure_rows[1]] = 2.0 * self.value + 0.0  # the product's sum is +0.0 at u0_a = -0.0
        if self.order >= 2:
            c[sp.pure_rows[2]] = 1.0
        return Jet(sp, c)

    def times(self, x: "Jet", out=None) -> "Jet":
        """self * x for a scalar jet x.  On the seeded coordinates the rows
        are written directly, bit for bit what the truncated product gives:
        u0 x, plus the rows of x shifted up one degree along each u_a (the
        derivative table `_d_src` read the other way).  `out`, an array of
        the result's shape, such as one half of a caller's interleaved
        buffer, receives its rows, with the same bits."""
        if not (self.seeded and isinstance(x, Jet) and x.shape == ()):
            prod = self * x
            if out is None:
                return prod
            out[...] = prod.c
            return Jet(self.space, out, prod.order)
        sp = self.space
        rows = sp.ncoef_by_degree
        vo = min(self.order, x.order)
        out = np.multiply(self.c[:, :1], x.c[: rows[vo]], out=out)
        if vo:  # x0 on u_a's own first row, the product's signed zero 0 x0 on the others
            out[:, 1 : rows[1]] += self.c[:, 1 : rows[1]] * x.c[:1]
        if vo >= 2:  # + 0.0 for the product's pair sums, which are never -0.0
            out[:, rows[1] : rows[vo]] += 0.0
            out[np.arange(sp.nvars)[:, None], sp._d_src[:, 1 : rows[vo - 1]]] += x.c[1 : rows[vo - 1]]
        return Jet(sp, out, vo)

    def _reciprocal(self) -> "Jet":
        return self.power(-1)

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
        rows = sp.ncoef_by_degree[self.order - 1]
        c = np.take(self.c, sp._d_src[var, :rows], axis=-2)
        c *= sp._d_scale[var, :rows, None]
        return Jet(sp, c, self.order - 1)

    def grad(self) -> "Jet":
        """All first partials as a jet with a trailing derivative axis:
        shape (*shape, nvars), valid one order lower."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        sp = self.space
        rows = sp.ncoef_by_degree[self.order - 1]
        c = np.take(self.c, sp._d_src[:, :rows], axis=-2)
        c *= sp._d_scale[:, :rows, None]
        return Jet(sp, c, self.order - 1)

    def compose_series(self, *coef_lists) -> tuple["Jet", ...]:
        """Evaluate sum_k coefs[k] * (self - self.value)^k for each list of
        coefficients (plain scalars or per-point (*shape, B) arrays).  The
        powers of t = self - self.value are formed once, from the pair terms
        of the truncated product alone (t has no value row), and each series
        is a weighted sum of them, so a further list costs no jet product."""
        powers = [self]  # t above row 0, the only rows the series and the pair terms read
        for k in range(2, self.order + 1):
            powers.append(_truncated_product(powers[-1], self, np.multiply, low=k - 1))
        rows = self.space.ncoef_by_degree
        out, last = [], len(coef_lists) - 1
        for i, coefs in enumerate(coef_lists):
            c = np.empty(self.c.shape)
            c[..., 0, :] = coefs[0]
            for k, (ck, tk) in enumerate(zip(coefs[1:], powers), start=1):
                # t^k vanishes below degree k
                ck = np.asarray(ck, dtype=float)
                term = tk.c[..., rows[k - 1] :, :], (ck[..., None, :] if ck.ndim else ck)
                if k == 1:  # written in place; + 0.0 gives a -0.0 term the +0.0 of 0 + term
                    np.add(np.multiply(*term, out=c[..., 1:, :]), 0.0, out=c[..., 1:, :])
                else:  # the last series scales t^k in place: no later one reads it
                    c[..., rows[k - 1] :, :] += np.multiply(*term, out=term[0] if i == last else None)
            out.append(Jet(self.space, c, self.order))
        return tuple(out)

    def power(self, p: float) -> "Jet":
        """self^p by the binomial series x0^p sum_k binom(p, k) s^k in
        s = (self - x0) / x0.  An integer p accepts negative values; a
        fractional p needs positive ones."""
        x0 = self.value
        if p != int(p) and np.any(x0 <= 0):
            raise ValueError(f"jet power {p} of non-positive value")
        if np.any(np.abs(x0) < 1e-300):
            raise ZeroDivisionError("jet power at vanishing value")
        coefs, ck = [], 1.0
        for k in range(self.order + 1):
            coefs.append(ck)
            ck *= (p - k) / (k + 1)
        (series,) = self.scaled(1.0 / x0).compose_series(coefs)
        return series.scaled(x0**p)

    def sqrt(self) -> "Jet":
        return self.power(0.5)

    def sin(self) -> "Jet":
        return self._trig()[0]

    def cos(self) -> "Jet":
        return self._trig()[1]

    def sin_cos(self, out=None) -> tuple["Jet", "Jet"]:
        """(sin self, cos self) from one set of powers.  `out`, a pair of
        zeroed arrays of the shape of `c`, such as the two halves of a
        caller's interleaved buffer, receives their rows."""
        return self._trig(out)

    def _trig(self, out=None) -> tuple["Jet", "Jet"]:
        s0, c0 = np.sin(self.value), np.cos(self.value)
        cycle = [s0, c0, -s0, -c0]
        # x / 1 is x: the first two coefficients of each series are the cycle's own arrays
        series = [cycle[p : p + 2] + [cycle[(k + p) % 4] / factorial(k) for k in range(2, self.order + 1)]
                  for p in (0, 1)]
        if not self.seeded:
            jets = self.compose_series(*series)
            if out is None:
                return jets
            for o, jet in zip(out, jets):
                o[...] = jet.c
        else:
            # sin and cos of u_a are series in u_a alone: its value row and
            # its own pure row of each degree (`JetSpace.pure_rows`)
            out = (np.zeros(self.c.shape), np.zeros(self.c.shape)) if out is None else out
            coordinate = np.arange(self.space.nvars)
            for o, coefs in zip(out, series):
                o[:, 0] = coefs[0]
                for k, ck in enumerate(coefs[1 : self.order + 1], start=1):  # + 0.0, as the series sums it
                    o[coordinate, self.space.pure_rows[k]] = ck + 0.0
        return tuple(Jet(self.space, o, self.order) for o in out)

    def exp(self) -> "Jet":
        e0 = np.exp(self.value)
        return self.compose_series([e0 / factorial(k) for k in range(self.order + 1)])[0]

    def truncated(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        rows = self.space.ncoef_by_degree[order]
        return Jet(self.space, self.c[..., :rows, :].copy(), order)


def jet_einsum(spec: str, a: Jet | np.ndarray, b: Jet) -> Jet:
    """Tensor contraction of two jets fused with their truncated product.

    `spec` is an `np.einsum` subscript string over the tensor axes only, for
    example "ia,ca->ic".  The result is valid to the lower of the two orders
    and is built by `_truncated_product` with this einsum as the pairwise
    operation, so the contraction of each block of row pairs happens before
    the pairs are summed.  `a` may also be a constant array, which needs no
    product.
    """
    ins, out = spec.replace(" ", "").split("->")
    sa, sb = ins.split(",")
    if not isinstance(a, Jet):
        return Jet(b.space, np.einsum(f"{sa},{sb}...->{out}...", a, b.c), b.order)
    return _truncated_product(a, b, lambda x, y: np.einsum(f"{sa}...,{sb}...->{out}...", x, y))


def _truncated_product(a: Jet, b: Jet, combine, low: int = 0) -> Jet:
    """Sum `combine(row i of a, row j of b)` into row i + j over all ordered
    pairs of coefficient rows up to the lower valid order d.

    Every operand is a slice, so nothing is gathered.  The pairs through
    row 0 are two broadcast `combine` calls: row 0 of `a` with every row of
    `b`, and every further row of `a` with row 0 of `b`.  For each degree
    p = 1..d-1, the rows of degree p of `a` meet the rows of degree
    1..d-p of `b` in one broadcast `combine`, and a small 0/1 matrix sums
    those pairs into the rows of degree p+1..d.

    `low` in 1..d-1 takes the rows of `a` below degree `low` and the value
    row of `b` as zero, as in the powers of a jet less its value: only the
    pairs from degree `low` of `a` on are formed, and the rows they do not
    reach are +0.0.  The terms left out are signed zeros, and a sum of pair
    terms is never -0.0, so every row they reach keeps its bits.
    """
    sp = a.space
    vo = min(a.order, b.order)
    rows = sp.ncoef_by_degree
    out = None
    if not low:
        out = combine(a.c[..., :1, :], b.c[..., : rows[vo], :])
        if vo:
            out[..., 1 : rows[vo], :] += combine(a.c[..., 1 : rows[vo], :], b.c[..., :1, :])
    for p in range(max(low, 1), vo):
        pairs = combine(a.c[..., rows[p - 1] : rows[p], None, :], b.c[..., None, 1 : rows[vo - p], :])
        pairs = pairs.reshape(pairs.shape[:-3] + (-1, pairs.shape[-1]))
        terms = sp._pair_sum[vo][p] @ pairs
        if out is None:
            out = np.zeros(terms.shape[:-2] + (rows[vo], terms.shape[-1]))
        out[..., rows[p] : rows[vo], :] += terms
    return Jet(sp, out, vo)


def potential_from_gradient(grads: Jet) -> Jet:
    """Jet psi with d(psi)/du_a = -grads[a] and psi(0) = 0, for a 1-form
    `grads` with a leading (nvars,) axis.

    Uses the explicit homotopy for the Poincare lemma on Taylor coefficients:
    row beta of grads[a] lands in row beta + e_a of psi, divided by its
    degree.  Exact whenever the 1-form `grads` is closed, which the caller
    checks.
    """
    space = grads.space
    order = min(grads.order + 1, space.order)
    src_rows = space.ncoef_by_degree[order - 1]
    c = np.zeros(grads.shape[1:] + (space.ncoef_by_degree[order], grads.c.shape[-1]))
    for a in range(space.nvars):
        dst = space._d_src[a, :src_rows]
        c[..., dst, :] -= grads.c[a, ..., :src_rows, :] / space.degrees[dst][:, None]
    return Jet(space, c, order)
