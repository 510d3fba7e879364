"""Truncated higher-order SVD and the low-rank image projection built on it.

The generic engine (:func:`truncated_hosvd`) fits per-mode orthonormal factors
from a tensor's unfoldings and projects the tensor onto the retained
subspaces.  The image-facing operator wraps it with a fixed tensorization:
an (H, W, C) image becomes an (H/p, W/p, p*p, C) tensor of p x p patches, a
basis is fitted once on a clean dataset (batch mode left undecomposed), and
``tf_apply`` runs tensorize -> project -> reconstruct -> detensorize.  The
fitted basis is frozen: purification never refits it per input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensorops import frobenius_norm, mode_product, svd, unfold

__all__ = [
    "TensorizationLayout",
    "TuckerBasis",
    "tensorize",
    "detensorize",
    "truncated_hosvd",
    "fit_basis",
    "tf_apply",
    "tucker_error_terms",
]


@dataclass(frozen=True)
class TensorizationLayout:
    """Patch layout mapping an (H, W, C) image to an (H/p, W/p, p*p, C) tensor."""

    height: int
    width: int
    channels: int
    patch: int

    def __post_init__(self) -> None:
        if min(self.height, self.width, self.channels, self.patch) < 1:
            raise ValueError("layout dimensions must be positive")
        if self.height % self.patch or self.width % self.patch:
            raise ValueError(
                f"patch {self.patch} does not divide image {self.height}x{self.width}"
            )

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return (self.height, self.width, self.channels)

    @property
    def tensor_shape(self) -> tuple[int, int, int, int]:
        p = self.patch
        return (self.height // p, self.width // p, p * p, self.channels)


@dataclass(frozen=True)
class TuckerBasis:
    """Frozen per-mode factors for the tensorized image modes.

    ``factors[n]`` is the I_n x r_n column-orthonormal factor for mode n of the
    single-image tensor (patch-row, patch-col, patch-pixel, channel), and
    ``discarded_energy[n]`` is the summed squared singular values dropped from
    that mode's unfolding at fit time.
    """

    factors: tuple[np.ndarray, ...]
    ranks: tuple[int, ...]
    layout: TensorizationLayout
    discarded_energy: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.factors) != 4 or len(self.ranks) != 4 or len(self.discarded_energy) != 4:
            raise ValueError("expected factors/ranks/energies for the four image modes")
        for u, r, dim in zip(self.factors, self.ranks, self.layout.tensor_shape):
            if u.shape != (dim, r):
                raise ValueError(f"factor shape {u.shape} inconsistent with (I_n, r_n) = ({dim}, {r})")
            # Entries of a column-orthonormal factor lie in [-1, 1]; checked
            # before u.T @ u, which a huge entry would overflow.  NaN fails too.
            if not np.all(np.abs(u) <= 1.0 + 1e-10):
                raise ValueError("factor entries must be finite and at most 1 in magnitude")
            if not np.allclose(u.T @ u, np.eye(r), atol=1e-10):
                raise ValueError("factor columns are not orthonormal")
        if not all(e >= 0.0 for e in self.discarded_energy):  # NaN fails too
            raise ValueError("discarded energies must be nonnegative")


def tensorize(x: np.ndarray, layout: TensorizationLayout) -> np.ndarray:
    """Reshuffle an image (or batch of images) into its patch tensor, losslessly."""
    x = np.asarray(x, dtype=np.float64)
    h, w, c = layout.image_shape
    p = layout.patch
    if x.shape[-3:] != (h, w, c):
        raise ValueError(f"image shape {x.shape} does not match layout {layout.image_shape}")
    lead = x.shape[:-3]
    out = x.reshape(*lead, h // p, p, w // p, p, c)
    out = np.moveaxis(out, -4, -3)  # -> (..., H/p, W/p, p, p, C)
    return out.reshape(*lead, h // p, w // p, p * p, c)


def detensorize(x: np.ndarray, layout: TensorizationLayout) -> np.ndarray:
    """Exact inverse of :func:`tensorize`."""
    x = np.asarray(x, dtype=np.float64)
    h, w, c = layout.image_shape
    p = layout.patch
    if x.shape[-4:] != layout.tensor_shape:
        raise ValueError(f"tensor shape {x.shape} does not match layout {layout.tensor_shape}")
    lead = x.shape[:-4]
    out = x.reshape(*lead, h // p, w // p, p, p, c)
    out = np.moveaxis(out, -3, -4)  # -> (..., H/p, p, W/p, p, C)
    return out.reshape(*lead, h, w, c)


def _ranks_from_policy(
    sing_vals: np.ndarray, mode_dim: int, policy_rank: int | None, eta: float | None
) -> int:
    if policy_rank is not None:
        if not 1 <= policy_rank <= mode_dim:
            raise ValueError(f"rank {policy_rank} outside [1, {mode_dim}]")
        if policy_rank > len(sing_vals):
            raise ValueError(
                f"rank {policy_rank} exceeds the {len(sing_vals)} directions resolvable "
                "from this unfolding"
            )
        return policy_rank
    assert eta is not None
    if eta >= 1.0:
        return mode_dim
    sq = sing_vals**2
    total = float(sq.sum())
    if total == 0.0:
        return 1
    cum = np.cumsum(sq)
    return int(np.searchsorted(cum, eta * total) + 1)


def _hosvd_factors(
    x: np.ndarray, rank_policy: float | Sequence[int], modes: Sequence[int]
) -> tuple[list[np.ndarray], list[float]]:
    """Per-mode factors and discarded energies of :func:`truncated_hosvd`."""
    if isinstance(rank_policy, (int, float)):
        eta = float(rank_policy)
        if not 0.0 < eta <= 1.0:
            raise ValueError("energy fraction must lie in (0, 1]")
        explicit: list[int | None] = [None] * len(modes)
    else:
        explicit = [int(r) for r in rank_policy]
        if len(explicit) != len(modes):
            raise ValueError("one explicit rank per decomposed mode required")
        eta = None  # type: ignore[assignment]

    factors: list[np.ndarray] = []
    discarded: list[float] = []
    for mode, want in zip(modes, explicit):
        mat = unfold(x, mode)
        res = svd(mat)
        r = _ranks_from_policy(res.s, x.shape[mode], want, eta if want is None else None)
        r = min(r, res.u.shape[1])
        factors.append(res.u[:, :r].copy())
        discarded.append(float(np.sum(res.s[r:] ** 2)))
    return factors, discarded


def truncated_hosvd(
    x: np.ndarray,
    rank_policy: float | Sequence[int],
    modes: Sequence[int] | None = None,
) -> tuple[np.ndarray, list[np.ndarray], list[float]]:
    """Project a tensor onto leading singular subspaces of its unfoldings.

    ``rank_policy`` is either an energy fraction eta in (0, 1] (per mode, the
    smallest rank retaining eta of the squared singular-value mass) or an
    explicit rank per decomposed mode.  ``modes`` selects which modes to
    decompose (default: all).  Returns ``(x_hat, factors, discarded)`` where
    ``x_hat`` applies every mode's orthogonal projection U_n U_n^T and
    ``discarded[i]`` sums the squared singular values dropped from mode i.
    The squared projection error never exceeds ``sum(discarded)``.
    """
    x = np.asarray(x, dtype=np.float64)
    modes = [int(m) for m in (range(x.ndim) if modes is None else modes)]
    factors, discarded = _hosvd_factors(x, rank_policy, modes)
    x_hat = x
    for mode, u in zip(modes, factors):
        x_hat = mode_product(mode_product(x_hat, u.T, mode), u, mode)
    return x_hat, factors, discarded


def fit_basis(
    dataset: np.ndarray,
    layout: TensorizationLayout,
    rank_policy: float | Sequence[int] = 0.95,
) -> TuckerBasis:
    """Fit per-mode factors from a clean image dataset (N, H, W, C).

    The dataset is tensorized with a leading batch mode that is never
    decomposed; each image mode's factor is the leading left singular vectors
    of that mode's unfolding of the whole batch tensor.  ``rank_policy`` is an
    energy fraction or four explicit ranks.
    """
    data = np.asarray(dataset, dtype=np.float64)
    if data.ndim != 4 or data.shape[0] < 1:
        raise ValueError("dataset must be a nonempty (N, H, W, C) array")
    if data.shape[1:] != layout.image_shape:
        raise ValueError(f"dataset images {data.shape[1:]} do not match layout {layout.image_shape}")
    tens = tensorize(data, layout)  # (N, H/p, W/p, p*p, C)
    factors, discarded = _hosvd_factors(tens, rank_policy, modes=[1, 2, 3, 4])
    return TuckerBasis(
        factors=tuple(factors),
        ranks=tuple(u.shape[1] for u in factors),
        layout=layout,
        discarded_energy=tuple(discarded),
    )


def tf_apply(x: np.ndarray, basis: TuckerBasis) -> np.ndarray:
    """Low-rank projection of an image (or batch): tensorize, project each mode
    onto its fitted subspace, reconstruct, detensorize.  Idempotent."""
    x = np.asarray(x, dtype=np.float64)
    layout = basis.layout
    if x.shape[-3:] != layout.image_shape:
        raise ValueError(f"input shape {x.shape} does not match layout {layout.image_shape}")
    tens = tensorize(x, layout)
    offset = tens.ndim - 4  # image modes sit after any batch axes
    for i, u in enumerate(basis.factors):
        mode = offset + i
        tens = mode_product(mode_product(tens, u.T, mode), u, mode)
    return detensorize(tens, layout)


def tucker_error_terms(
    x_clean: np.ndarray, eps: np.ndarray, basis: TuckerBasis
) -> tuple[float, float]:
    """The two error contributions of projecting a perturbed image.

    Returns ``(e_tucker, residual_noise)`` = (|| x - TF(x) ||, || TF(eps) ||),
    whose sum bounds || x - TF(x + eps) || by the triangle inequality.  The
    first term additionally satisfies e_tucker^2 <= total discarded energy when
    ``x`` is the tensor the basis was fitted on.
    """
    x_clean = np.asarray(x_clean, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x_clean.shape != eps.shape:
        raise ValueError(f"shape mismatch: {x_clean.shape} vs {eps.shape}")
    e_tucker = frobenius_norm(x_clean - tf_apply(x_clean, basis))
    residual = frobenius_norm(tf_apply(eps, basis))
    return e_tucker, residual
