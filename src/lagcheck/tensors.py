"""Symmetric cubic tensors on plain arrays: the fully symmetric (n, n, n)
arrays that carry the second fundamental form of a Lagrangian submanifold,
their symmetry residuals, the umbilic-type tensor built from the (n,) mean
curvature vector, and the spectral summary the Simons inequality reads.
Every function takes trailing batch axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np


@cache
def _orbits(n: int, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of an (n,) * rank block grouped by orbit, the entries
    whose indices rearrange one another, and the first position of each
    group."""
    shape = (n,) * rank
    key = np.ravel_multi_index(np.sort(np.indices(shape).reshape(rank, -1), axis=0), shape)
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    order.flags.writeable = starts.flags.writeable = False
    return order, starts


def symmetry_residual(a: np.ndarray, rank: int) -> np.ndarray:
    """Max deviation of `a` from full symmetry in its first `rank` axes, one
    value per entry of the trailing (batch) axes: the widest spread max - min
    of an orbit of entries.  Floating-point subtraction is monotone, so this
    is max |a[perm] - a| over all index permutations bit for bit.  An entry
    that is not finite makes its point NaN, as a - a does."""
    n = a.shape[0]
    order, starts = _orbits(n, rank)
    x = a.reshape(n**rank, -1)[order]
    spread = np.maximum.reduceat(x, starts) - np.minimum.reduceat(x, starts)
    out = np.max(spread, axis=0)
    out[~np.all(np.isfinite(x), axis=0)] = np.nan
    return out.reshape(a.shape[rank:])


# ---------------------------------------------------------------------------
# Umbilic-type tensor
# ---------------------------------------------------------------------------


@cache
def _c_operator(n: int) -> np.ndarray:
    """The (n^3, n) matrix of d_mk d_ij + d_ik d_jm + d_jk d_im, rows (m, i, j)
    and columns k: integer entries, so H through it is the explicit sum."""
    eye = np.eye(n)
    op = (
        np.einsum("mk,ij->mijk", eye, eye)
        + np.einsum("ik,jm->mijk", eye, eye)
        + np.einsum("jk,im->mijk", eye, eye)
    ).reshape(n**3, n)
    op.flags.writeable = False
    return op


def c_tensor_array(H: np.ndarray) -> np.ndarray:
    """Umbilic-type tensor n/(n+2) (H^m d_ij + H^i d_jm + H^j d_im).

    Works on batched H of shape (n, ...) as well: one product with a
    constant operator over all trailing axes at once.
    """
    H = np.asarray(H, dtype=float)
    n = H.shape[0]
    c = _c_operator(n) @ H.reshape(n, -1)
    c *= n / (n + 2.0)
    return c.reshape((n, n, n) + H.shape[1:])


# ---------------------------------------------------------------------------
# Spectral summary for the Simons inequality
# ---------------------------------------------------------------------------


@dataclass
class SpectralSummary:
    """Eigen-data of M_ij = sum_l hhat^{l*}_{ij} H^{l*} plus the per-direction
    norms S_{i*} in the eigenbasis.  `lambdas` and `s_istar` have shape
    (n, ...) and `s_h` shape (...), the trailing axes being batch axes."""

    lambdas: np.ndarray
    s_istar: np.ndarray
    s_h: np.ndarray = field(init=False)

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.s_istar = np.asarray(self.s_istar, dtype=float)
        self.s_h = np.sum(self.lambdas**2, axis=0)
        if np.any(self.s_istar < -1e-12):
            raise ValueError("per-direction norms must be nonnegative")


def spectral_summary(hhat: np.ndarray, H: np.ndarray) -> SpectralSummary:
    """Spectral data of one point, hhat (n, n, n) and H (n,), or of a batch
    of them with the same trailing axes.  Where M is not finite (it
    overflowed) the eigen-solve is skipped and the data are NaN."""
    hh, Hv = np.asarray(hhat, dtype=float), np.asarray(H, dtype=float)
    M = np.einsum("lij...,l...->...ij", hh, Hv)
    finite = np.all(np.isfinite(M), axis=(-2, -1))
    lam, V = np.full(M.shape[:-1], np.nan), np.full(M.shape, np.nan)
    lam[finite], V[finite] = np.linalg.eigh(M[finite])
    # rotate hhat into the eigenframe e'_i = sum_j V[j, i] e_j
    rotated = np.einsum("...am,...bi,...cj,abc...->mij...", V, V, V, hh)
    s_istar = np.einsum("mij...,mij...->m...", rotated, rotated)
    return SpectralSummary(np.moveaxis(lam, -1, 0), s_istar)
