"""Lagrangian geometry in CP^n through horizontal lifts of homogeneous
coordinates.

A Lagrangian immersion into CP^n (Fubini-Study metric of holomorphic
sectional curvature 4) is handled by lifting its unit-norm homogeneous
representative to a horizontal (Legendrian) immersion into S^{2n+1}: the
representative is renormalized pointwise, a phase potential solving the
horizontality condition is integrated jet-by-jet, and the phase at the base
point is pinned so geometry states do not depend on the incoming
representative.  The flat-ambient frame machinery then applies verbatim in
C^{n+1}, with the ambient curvature constant set to 1.

Each family emits its homogeneous representative as one (2n+2,) jet of
interleaved reals; multiplication by i is the matrix `symplectic_j_matrix`,
so a phase rotation by chi is Z cos chi + (J Z) sin chi.
"""

from __future__ import annotations

import math

import numpy as np

from .immersions import (
    AMBIENT_SPHERE,
    ChartPoint,
    Immersion,
    SphereAtlas,
    interleave,
    register_family,
    symplectic_j_matrix,
)
from .geometry import NonLagrangianError, at_point
from .jets import Jet, jet_einsum, jet_space, potential_from_gradient

HORIZONTALITY_TOL = 1e-9


class HorizontalityError(NonLagrangianError):
    pass


# ---------------------------------------------------------------------------
# Homogeneous points
# ---------------------------------------------------------------------------


def normalize_representative(z: np.ndarray) -> np.ndarray:
    """Unit-Hermitian-norm representative of a point of CP^n."""
    z = np.asarray(z, dtype=complex)
    nrm = float(np.sqrt(np.sum(np.abs(z) ** 2)))
    if nrm < 1e-300:
        raise ValueError("zero vector is not a projective point")
    return z / nrm


class HomogeneousPoint:
    """Point of CP^n held as a unit-norm homogeneous representative.

    Two representatives differing by a unit-modulus scalar name the same
    point; equality is tested projectively.
    """

    __slots__ = ("z",)

    def __init__(self, z):
        self.z = normalize_representative(z)
        if abs(float(np.sum(np.abs(self.z) ** 2)) - 1.0) > 1e-12:
            raise ValueError("representative is not unit norm")

    def same_point(self, other: "HomogeneousPoint", tol: float = 1e-10) -> bool:
        return projective_distance(self.z, other.z) < tol

    def __repr__(self):
        return f"HomogeneousPoint({self.z!r})"


def projective_distance(z1: np.ndarray, z2: np.ndarray) -> float:
    """Chordal Fubini-Study distance sqrt(1 - |<z1, z2>|^2) of unit reps."""
    z1 = normalize_representative(z1)
    z2 = normalize_representative(z2)
    return float(np.sqrt(max(0.0, 1.0 - np.abs(np.vdot(z2, z1)) ** 2)))


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def make_whitney_cpn(theta: float, n: int) -> Immersion:
    """Whitney sphere in CP^n: homogeneous components

    z_j = x_j / (ch t + i sh t x_{n+1}),  j <= n,
    z_{n+1} = (sh t ch t (1 + x_{n+1}^2) + i x_{n+1}) / (ch^2 t + sh^2 t x_{n+1}^2),

    renormalized pointwise to a unit representative.  The common positive
    factor 1 / (ch^2 t + sh^2 t x_{n+1}^2) cancels in the renormalization, so
    the jet is built from z_j = x_j (ch t - i sh t x_{n+1}) and the numerator
    of z_{n+1}.
    """
    if theta <= 0:
        raise ValueError("theta must be positive (theta = 0 is the totally geodesic RP^n)")
    if n < 2:
        raise ValueError("need n >= 2")
    atlas = SphereAtlas(n)
    ch, sh = math.cosh(theta), math.sinh(theta)
    head = np.diag(np.r_[np.ones(n), 0.0])  # keeps x_1..x_n
    last = np.eye(n + 1)[n]

    def jet_fn(chart_id, coords, order):
        x = atlas.embed_jets(chart_id, Jet.variables(jet_space(n, order), coords))
        xl = x[n]
        re = jet_einsum("cd,d->c", ch * head, x)
        re = re + jet_einsum("c,->c", last, (1.0 + xl * xl).scaled(sh * ch))
        im = xl * (jet_einsum("cd,d->c", -sh * head, x) + last[:, None])
        z = interleave(re, im)
        return z * jet_einsum("c,c->", z, z).power(-0.5)

    return Immersion(
        name="whitney_cpn",
        source_dim=n,
        ambient=AMBIENT_SPHERE,
        ambient_complex_dim=n + 1,
        params={"theta": float(theta), "n": n},
        atlas=atlas,
        jet_fn=jet_fn,
    )


def make_rpn(n: int) -> Immersion:
    """Totally geodesic real form: x in S^n -> [x] in CP^n."""
    atlas = SphereAtlas(n)

    def jet_fn(chart_id, coords, order):
        return interleave(atlas.embed_jets(chart_id, Jet.variables(jet_space(n, order), coords)))

    return Immersion(
        name="rpn",
        source_dim=n,
        ambient=AMBIENT_SPHERE,
        ambient_complex_dim=n + 1,
        params={"n": n},
        atlas=atlas,
        jet_fn=jet_fn,
    )


def phase_twist(base: Immersion, coeffs) -> Immersion:
    """Multiply the homogeneous representative by exp(i chi(u)) with
    chi = sum_a coeffs[a] * sin(u_a); exercises projective gauge invariance."""
    coeffs = np.asarray(coeffs, dtype=float)
    J = symplectic_j_matrix(base.ambient_complex_dim)

    def jet_fn(chart_id, coords, order):
        Z = base.jet_fn(chart_id, coords, order)
        chi = jet_einsum("a,a->", coeffs, Jet.variables(Z.space, coords).sin())
        sin, cos = chi.sin_cos()
        return Z * cos + jet_einsum("cd,d->c", J, Z) * sin

    return Immersion(
        name=f"phase_twist({base.name})",
        source_dim=base.source_dim,
        ambient=base.ambient,
        ambient_complex_dim=base.ambient_complex_dim,
        params=dict(base.params, twist=coeffs),
        atlas=base.atlas,
        jet_fn=jet_fn,
    )


# ---------------------------------------------------------------------------
# Horizontal lift
# ---------------------------------------------------------------------------


def horizontal_lift_jets(imm: Immersion, chart_id: int, coords: np.ndarray, order: int) -> Jet:
    """Jet of the horizontal (Legendrian) lift into S^{2n+1}.

    Steps, on the (2n+2,) jet of the interleaved real components: renormalize
    the representative, integrate the phase potential psi with
    d psi = -Re<dZ, iZ>, and rotate by e^{i psi} times the constant phase
    that makes the largest component at the point real-positive.  Each
    (2n+2,) stage is dropped once the next one is built, which bounds the
    peak memory of a wide batch.  Raises if the horizontality 1-form fails
    to be closed, which happens exactly when the underlying immersion is not
    Lagrangian in CP^n; the error's `index` is the batch position of the
    first point it fails at.
    """
    phi = imm.jet_fn(chart_id, coords, order)
    J = symplectic_j_matrix(phi.shape[0] // 2)
    Z = phi * jet_einsum("c,c->", phi, phi).power(-0.5)
    del phi
    JZ = jet_einsum("cd,d->c", J, Z)

    # a_a = Re<d_a Z, i Z>, with i acting on the real components as J
    a = jet_einsum("ca,c->a", Z.grad(), JZ)
    psi = potential_from_gradient(a)
    del a

    # pin the representative: largest component real-positive at the point.
    # psi vanishes there, so W has the value of Z, and the pinning phase
    # e^{i theta} folds into the rotation: W = Z cos(psi + theta) + JZ sin(psi + theta).
    vals = Z.value[0::2] + 1j * Z.value[1::2]  # (m, B)
    k0 = np.argmax(np.abs(vals), axis=0)
    pick = np.take_along_axis(vals, k0[None, :], axis=0)[0]
    phase = pick.conj() / np.abs(pick)
    sin, cos = psi.sin_cos()
    del psi
    W = Z * (cos.scaled(phase.real) - sin.scaled(phase.imag))
    del Z
    W = W + JZ * (sin.scaled(phase.real) + cos.scaled(phase.imag))
    del JZ, sin, cos

    # closedness / horizontality residual across all computed jet orders
    resid = np.max(np.abs(jet_einsum("ca,c->a", W.grad(), jet_einsum("cd,d->c", J, W)).c), axis=(0, 1))
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


def cpn_geometry_state(imm: Immersion, p: ChartPoint, depth: str = "with_derivatives", frame_gauge=None):
    if imm.ambient != AMBIENT_SPHERE:
        raise ValueError("cpn_geometry_state needs a homogeneous-sphere immersion")
    from .geometry import geometry_state

    return geometry_state(imm, p, depth, frame_gauge)


register_family("whitney_cpn", lambda p: make_whitney_cpn(p.get("theta", 1.0), int(p.get("n", 2))))
register_family("rpn", lambda p: make_rpn(int(p.get("n", 2))))
