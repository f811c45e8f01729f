"""Symmetric cubic tensors on plain arrays: the fully symmetric (n, n, n)
arrays that carry the second fundamental form of a Lagrangian submanifold,
their symmetry residuals, the umbilic-type tensor built from the (n,) mean
curvature vector, and the spectral summary the Simons inequality reads.
Every function takes trailing batch axes.
"""

from __future__ import annotations

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


def spectral_summary(hhat: np.ndarray, H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues `lambdas` of M_ij = sum_l hhat^{l*}_{ij} H^{l*} and the
    per-direction norms S_{i*} = |hhat(e'_i, ., .)|^2 in its eigenframe, each
    of shape (n, ...), of one point, hhat (n, n, n) and H (n,), or of a batch
    of them with the same trailing axes.  Only the first slot is rotated: the
    orthogonal frame keeps the norm of the other two.  Where M is not finite
    (it overflowed) the eigen-solve is skipped and the data are NaN."""
    hh, Hv = np.asarray(hhat, dtype=float), np.asarray(H, dtype=float)
    M = np.einsum("lij...,l...->...ij", hh, Hv)
    finite = np.all(np.isfinite(M), axis=(-2, -1))
    lam, V = np.full(M.shape[:-1], np.nan), np.full(M.shape, np.nan)
    lam[finite], V[finite] = np.linalg.eigh(M[finite])
    # the first slot in the eigenframe e'_m = sum_a V[a, m] e_a
    P = np.einsum("...am,abc...->mbc...", V, hh)
    return np.moveaxis(lam, -1, 0), np.einsum("mbc...,mbc...->m...", P, P)
