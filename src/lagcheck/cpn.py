"""Lagrangian geometry in CP^n through horizontal lifts of homogeneous
coordinates.

A Lagrangian immersion into CP^n (Fubini-Study metric of holomorphic
sectional curvature 4) is handled by lifting its homogeneous representative
to a horizontal (Legendrian) immersion into S^{2n+1}.  The lift first pins
and scales the rows of the representative's jet once, for every order:
unit norm and a fixed phase at the base point, so a family may emit any
nonvanishing multiple of it and bundles, frames included, do not depend on
the incoming representative.  An order-2 lift, which is all that the
energy integrands need, is then read off the U(1) connection <dZ, iZ> at
the points: its value, first and second rows are a few array operations
on those rows, in closed form, with no jet product.  From order 3 on, a
phase potential solving the horizontality condition is integrated jet by
jet.  The flat-ambient frame machinery then applies verbatim in C^{n+1},
with the ambient curvature constant set to 1.

Each family is a chart formula `jet_fn(charts, u)` (`Immersion`) emitting
its homogeneous representative as one (2n+2,) jet of interleaved reals;
multiplication by i is `times_i`, a signed permutation, so a phase rotation
by chi is Z cos chi + (i Z) sin chi.
"""

from __future__ import annotations

import math

import numpy as np

from .immersions import AMBIENT_SPHERE, Immersion, SphereAtlas, TorusAtlas, interleave, times_i
from .geometry import NonLagrangianError, at_point
from .jets import Jet, jet_einsum, potential_from_gradient

HORIZONTALITY_TOL = 1e-9


class HorizontalityError(NonLagrangianError):
    pass


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def make_whitney_cpn(theta: float, n: int) -> Immersion:
    """Whitney sphere in CP^n: homogeneous components

    z_j = x_j / (ch t + i sh t x_{n+1}),  j <= n,
    z_{n+1} = (sh t ch t (1 + x_{n+1}^2) + i x_{n+1}) / (ch^2 t + sh^2 t x_{n+1}^2),

    of the embedded sphere point x, emitted as a polynomial in the chart
    coordinates u.  Multiplying by the positive factor
    (ch^2 t + sh^2 t x_{n+1}^2) (1 + s)^2 / 2, with s = |u|^2 and
    x_{n+1} = sigma (s - 1) / (1 + s) (sigma = `SphereAtlas.sign`, per point),
    names the same point of CP^n and leaves

    z_j = ch t u_j (1 + s) - i sigma sh t u_j (s - 1),
    z_{n+1} = sh t ch t (1 + s^2) + i sigma (s^2 - 1) / 2,

    three jet products (u s, s and s^2) and no series.  The representative
    is not unit norm; the horizontal lift normalizes it.
    """
    if theta <= 0:
        raise ValueError("theta must be positive (theta = 0 is the totally geodesic RP^n)")
    if n < 2:
        raise ValueError("need n >= 2")
    atlas = SphereAtlas(n)
    ch, sh = math.cosh(theta), math.sinh(theta)

    def jet_fn(charts, u):
        sigma = atlas.sign(charts)
        s = jet_einsum("a,a->", u, u)
        us, ss = u * s, s * s
        z = np.empty((n + 1, 2) + u.c.shape[1:])  # [j, re/im]: interleaved once reshaped
        np.add(u.c, us.c, out=z[:n, 0])
        np.subtract(us.c, u.c, out=z[:n, 1])
        z[n] = ss.c
        z[n, :, 0] += [[1.0], [-1.0]]
        z[:n, 0] *= ch
        z[:n, 1] *= -sigma * sh
        z[n, 0] *= sh * ch
        z[n, 1] *= 0.5 * sigma
        return Jet(u.space, z.reshape((2 * n + 2,) + u.c.shape[1:]))

    return Immersion(
        name="whitney_cpn",
        ambient=AMBIENT_SPHERE,
        params={"theta": float(theta), "n": n},
        atlas=atlas,
        jet_fn=jet_fn,
    )


def make_rpn(n: int) -> Immersion:
    """Totally geodesic real form: x in S^n -> [x] in CP^n, emitted as the
    chart polynomial x (1 + s) / 2 = (u, sigma (s - 1) / 2), s = |u|^2."""
    if n < 2:
        raise ValueError("need n >= 2")
    atlas = SphereAtlas(n)

    def jet_fn(charts, u):
        last = (jet_einsum("a,a->", u, u) - 1.0).scaled(0.5 * atlas.sign(charts))
        return interleave(Jet(u.space, np.concatenate([u.c, last.c[None]])))

    return Immersion(
        name="rpn",
        ambient=AMBIENT_SPHERE,
        params={"n": n},
        atlas=atlas,
        jet_fn=jet_fn,
    )


def make_cpn_torus(moduli) -> Immersion:
    """Torus orbit [r_0 : r_1 e^{i t_1} : ... : r_n e^{i t_n}] in CP^n over
    the angles t_1..t_n, the moduli scaled to sum r_j^2 = 1.  The angle chart
    is 2 pi-periodic and one-to-one for any moduli, so the image is a closed
    embedded Lagrangian torus; the horizontal lift supplies the phase that
    makes the representative Legendrian in S^{2n+1}.  Equal moduli give the
    Clifford torus: H = 0, |h|^2 = n(n - 1) and volume
    (n + 1)^{-(n+1)/2} (2 pi)^n."""
    moduli = np.asarray(moduli, dtype=float)
    if moduli.ndim != 1 or len(moduli) < 3:
        raise ValueError("a CP^n torus needs n + 1 >= 3 moduli")
    if np.any(moduli <= 0):
        raise ValueError("torus moduli must be positive")
    r = moduli / np.linalg.norm(moduli)
    n = len(r) - 1

    def jet_fn(charts, u):
        sin, cos = u.sin_cos()
        c = np.zeros((2 * n + 2,) + cos.c.shape[1:])
        c[0, 0] = r[0]
        c[2::2] = r[1:, None, None] * cos.c
        c[3::2] = r[1:, None, None] * sin.c
        return Jet(cos.space, c, cos.order)

    return Immersion(
        name="cpn_torus",
        ambient=AMBIENT_SPHERE,
        params={"moduli": moduli, "n": n},
        atlas=TorusAtlas(n),
        jet_fn=jet_fn,
    )


# ---------------------------------------------------------------------------
# Horizontal lift
# ---------------------------------------------------------------------------


def _pinning_phase(value: np.ndarray) -> np.ndarray:
    """The (B,) constant phases e^{i theta} that make the largest component
    of a (2m, B) interleaved point value real-positive: the pin of the lift."""
    vals = value[0::2] + 1j * value[1::2]  # (m, B)
    pick = np.take_along_axis(vals, np.argmax(np.abs(vals), axis=0)[None, :], axis=0)[0]
    return pick.conj() / np.abs(pick)


def horizontal_lift_jets(imm: Immersion, charts, coords: np.ndarray, order: int) -> Jet:
    """Jet of the horizontal (Legendrian) lift into S^{2n+1} at the (B, n)
    chart coords, `charts` one chart id or a (B,) array of them (`Immersion`).

    The (2n+2,) jet phi of the interleaved real components is pinned and
    scaled once, ahead of both branches: every row is multiplied by
    rho e^{i theta}, rho = |phi(0)|^{-1} and e^{i theta} the constant phase
    (`_pinning_phase`) that makes the largest component at the point
    real-positive, so the frame does not depend on the incoming
    representative.  Call the result w; i acts on it as `times_i`.

    Below order 3 the lift is read off the U(1) connection A_a = <d_a Z, i Z>
    at the points, in closed form on the rows of w.  With w0 its value,
    w_a its degree-1 rows, dot_a = <w_a, w0> and A_a = <w_a, i w0>,

        d_a W = w_a - dot_a w0 - A_a i w0,
        d_a d_b W = w_ab - T_ab - T_ba,  T_ab = dot_a w_b + A_a i w_b,

    where w_ab is the scaled d_a d_b phi.  d_a W is horizontal, and d_a d_b W
    is the second derivative of W = Z - l i Z (l the linear jet with
    gradient A) only up to terms along W and i W, which h, g and the
    Christoffel symbols never see.  The degree-2 rows take the pairs T of
    the degree-1 rows, in row order, through the truncated product's own
    pair table, so the branch forms no jet product and no series.

    From order 3 on, w is normalized, Z = w |w|^{-1}, the phase potential
    psi with d psi = -Re<dZ, iZ> is integrated jet by jet and Z is rotated
    by e^{i psi}, W = Z cos psi + iZ sin psi, so derivatives of the frame do
    not depend on the incoming representative either.  Each (2n+2,) stage
    is dropped once the next one is built, which bounds the peak memory of
    a wide batch.

    Raises where the lift fails to be horizontal: from order 3 on, where the
    horizontality 1-form <dW, iW> is not zero to the computed order, and
    below it, where <d_a W, i d_b W> (half the exterior derivative of the
    connection) is not zero at the point.  Either happens exactly when the
    underlying immersion is not Lagrangian in CP^n; the error's `index` is
    the batch position of the first point it fails at.
    """
    phi = imm.jets(charts, coords, order)
    sp, w = phi.space, phi.c
    # rho e^{i theta} on every row, in place on the (re, im) pairs of the
    # family's own buffer (`Immersion`), so that no more than one temporary of
    # the size of phi is live
    scale = _pinning_phase(phi.value) / np.sqrt(np.einsum("cx,cx->x", phi.value, phi.value))
    t = w[0::2] * scale.imag
    w[0::2] *= scale.real
    w[0::2] -= w[1::2] * scale.imag
    w[1::2] *= scale.real
    w[1::2] += t
    del phi, t
    if order <= 2:
        r1 = sp.ncoef_by_degree[1]
        w0, wa = w[:, 0], w[:, 1:r1]  # (2m, B), (2m, n, B): degree-1 rows in row order
        Jw0 = times_i(w0)
        dot = np.einsum("cax,cx->ax", wa, w0)
        A = np.einsum("cax,cx->ax", wa, Jw0)
        if order == 2:
            for part, sign in ((0, -1.0), (1, 1.0)):  # T[c, a, b] = dot_a w_b + A_a (i w_b), by halves of c
                T = wa[part::2, None] * dot[:, None]
                T += wa[1 - part :: 2, None] * (sign * A[:, None])
                w[part::2, r1:] -= sp._pair_sum[2][1] @ T.reshape(T.shape[0], -1, T.shape[-1])
                del T
        wa -= dot * w0[:, None] + A * Jw0[:, None]
        W = Jet(sp, w, order)
        resid = np.max(np.abs(np.einsum("cax,cbx->abx", wa, times_i(wa))), axis=(0, 1))
    else:
        Z = Jet(sp, w, order)
        Z = Z * jet_einsum("c,c->", Z, Z).power(-0.5)
        JZ = times_i(Z)
        # a_a = Re<d_a Z, i Z>
        a = jet_einsum("ca,c->a", Z.grad(), JZ)
        psi = potential_from_gradient(a)
        del a
        # psi vanishes at the point, so W keeps the pinned value of Z
        sin, cos = psi.sin_cos()
        del psi
        W = Z * cos
        del Z
        W = W + JZ * sin
        del JZ, sin, cos
        # closedness / horizontality residual across all computed jet orders
        resid = np.max(np.abs(jet_einsum("ca,c->a", W.grad(), times_i(W)).c), axis=(0, 1))

    bad = np.flatnonzero(resid > HORIZONTALITY_TOL)
    if bad.size:
        raise at_point(
            HorizontalityError(
                "horizontality gauge not solvable (Lagrangian condition violated "
                f"in CP^n): residual {resid[bad[0]]:.3e}"
            ),
            int(bad[0]),
        )
    return W
