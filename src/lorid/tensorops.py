"""Dense multi-way array arithmetic: unfolding, folding, mode products, SVD, norms.

Arrays are plain ``numpy.ndarray`` values in 64-bit floating point; an order-N
tensor is an ndarray with N axes, a matrix is an ndarray with 2 axes.  All
functions are pure and never mutate their inputs.

Unfolding convention
--------------------
``unfold(x, mode)`` moves ``mode`` to the front and reshapes C-contiguously:
row ``i`` of the result is ``x[..., i, ...].ravel()`` with the remaining axes
kept in their original order, the last one varying fastest.  ``fold`` is the
exact inverse.  The convention is internal; everything downstream relies only
on the fold/unfold round trip.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "SvdResult",
    "unfold",
    "fold",
    "mode_product",
    "svd",
    "frobenius_norm",
]

class SvdResult(NamedTuple):
    """Thin SVD ``a = u @ diag(s) @ vt``.

    ``u`` is m x k with orthonormal columns, ``s`` holds the k = min(m, n)
    singular values sorted descending, ``vt`` is k x n with orthonormal rows.
    """

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray


def _as_tensor(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim < 1 or any(n < 1 for n in arr.shape):
        raise ValueError(f"expected a tensor with >= 1 non-empty modes, got shape {arr.shape}")
    return arr


def unfold(x, mode: int) -> np.ndarray:
    """Mode-``mode`` matricization: rows indexed by that mode, columns by the rest."""
    arr = _as_tensor(x)
    if not 0 <= mode < arr.ndim:
        raise ValueError(f"mode {mode} out of range for order-{arr.ndim} tensor")
    return np.moveaxis(arr, mode, 0).reshape(arr.shape[mode], -1)


def fold(m, mode: int, shape: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild the tensor of ``shape`` from its matricization."""
    mat = np.asarray(m, dtype=np.float64)
    shape = tuple(int(n) for n in shape)
    if mat.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {mat.shape}")
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for shape {shape}")
    rest = shape[:mode] + shape[mode + 1 :]
    if mat.shape[0] != shape[mode] or mat.shape[1] != math.prod(rest):
        raise ValueError(f"matrix {mat.shape} inconsistent with shape {shape} at mode {mode}")
    return np.moveaxis(mat.reshape((shape[mode],) + rest), 0, mode)


def mode_product(x, u, mode: int) -> np.ndarray:
    """Mode-``mode`` product: multiply that mode's fibers by the matrix ``u``.

    Equivalent to ``fold(u @ unfold(x, mode), mode, new_shape)`` where the mode's
    size becomes ``u.shape[0]``.
    """
    arr = _as_tensor(x)
    mat = np.asarray(u, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {mat.shape}")
    if not 0 <= mode < arr.ndim:
        raise ValueError(f"mode {mode} out of range for order-{arr.ndim} tensor")
    if mat.shape[1] != arr.shape[mode]:
        raise ValueError(
            f"matrix columns {mat.shape[1]} != tensor mode-{mode} size {arr.shape[mode]}"
        )
    return np.moveaxis(np.tensordot(mat, arr, axes=(1, mode)), 0, mode)


def svd(m) -> SvdResult:
    """Thin SVD by LAPACK (``numpy.linalg.svd`` with ``full_matrices=False``).

    Singular values are sorted descending.  Both factors stay orthonormal for
    rank-deficient input: LAPACK fills the zero singular directions with
    orthonormal vectors.
    """
    mat = np.asarray(m, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    return SvdResult(*np.linalg.svd(mat, full_matrices=False))


def frobenius_norm(x) -> float:
    """Square root of the sum of squared entries.  Where that sum alone
    overflows float64 the entries are scaled by their largest magnitude first,
    so the result is inf only when the norm itself overflows; no warning."""
    flat = np.asarray(x, dtype=np.float64).ravel()
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(flat))
        if norm == math.inf and np.all(np.isfinite(flat)):
            peak = float(np.max(np.abs(flat)))
            norm = peak * float(np.linalg.norm(flat / peak))
    return norm
