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
from dataclasses import dataclass, field
from typing import Iterator, Sequence

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
    single-image tensor (patch-row, patch-col, patch-pixel, channel), with
    1 <= r_n <= I_n, and ``discarded_energy[n]`` is the summed squared singular
    values dropped from that mode's unfolding at fit time.  ``ranks`` is read
    off the factors at construction.
    """

    factors: tuple[np.ndarray, ...]
    layout: TensorizationLayout
    discarded_energy: tuple[float, ...]
    ranks: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        if len(self.factors) != 4 or np.shape(self.discarded_energy) != (4,):
            raise ValueError("expected factors and energies for the four image modes")
        for u, dim in zip(self.factors, self.layout.tensor_shape):
            if u.ndim != 2 or u.shape[0] != dim or not 1 <= u.shape[1] <= dim:
                raise ValueError(f"factor shape {u.shape} is not (I_n, r_n) with I_n = {dim} "
                                 f"and 1 <= r_n <= {dim}")
            # Entries of a column-orthonormal factor lie in [-1, 1]; checked
            # before u.T @ u, which a huge entry would overflow.  NaN fails too.
            if not np.all(np.abs(u) <= 1.0 + 1e-10):
                raise ValueError("factor entries must be finite and at most 1 in magnitude")
            if not np.allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-10):
                raise ValueError("factor columns are not orthonormal")
        if not all(0.0 <= e < math.inf for e in self.discarded_energy):  # NaN fails too
            raise ValueError("discarded energies must be finite and nonnegative")
        object.__setattr__(self, "discarded_energy", tuple(map(float, self.discarded_energy)))
        object.__setattr__(self, "ranks", tuple(u.shape[1] for u in self.factors))


# The patch tensor's layout, defined here once: with an image viewed as
# (H/p, p, W/p, p, C) by _patch_view, its four modes (patch-row, patch-col,
# patch-pixel, channel) are these groups of trailing axes.  The patch-pixel
# mode is the pair of in-patch axes, row-major.
_MODE_AXES = ((-5,), (-3,), (-4, -2), (-1,))


def _patch_view(x: np.ndarray, layout: TensorizationLayout) -> np.ndarray:
    """``x`` (..., H, W, C) viewed as (..., H/p, p, W/p, p, C), with no copy."""
    h, w, c = layout.image_shape
    p = layout.patch
    if x.shape[-3:] != (h, w, c):
        raise ValueError(f"image shape {x.shape} does not match layout {layout.image_shape}")
    return x.reshape(*x.shape[:-3], h // p, p, w // p, p, c)


def tensorize(x: np.ndarray, layout: TensorizationLayout) -> np.ndarray:
    """Reshuffle an image (or batch of images) into its patch tensor, losslessly."""
    blocks = _patch_view(np.asarray(x, dtype=np.float64), layout)
    lead = blocks.shape[:-5]
    order = [*range(len(lead)), *(a % blocks.ndim for group in _MODE_AXES for a in group)]
    return blocks.transpose(order).reshape(*lead, *layout.tensor_shape)


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
    unfoldings: Iterator[np.ndarray], rank_policy: float | Sequence[int], count: int
) -> tuple[list[np.ndarray], list[float]]:
    """Per-mode factors and discarded energies of :func:`truncated_hosvd` from
    the ``count`` decomposed modes' unfoldings, taken one at a time: only the
    unfolding at hand and its SVD are held, and of the SVD only ``u`` and ``s``
    are kept (the right singular vectors are as large as the data)."""
    if isinstance(rank_policy, (int, float)):
        eta = float(rank_policy)
        if not 0.0 < eta <= 1.0:
            raise ValueError("energy fraction must lie in (0, 1]")
        explicit: list[int | None] = [None] * count
    else:
        explicit = [int(r) for r in rank_policy]
        if len(explicit) != count:
            raise ValueError("one explicit rank per decomposed mode required")
        eta = None  # type: ignore[assignment]

    factors: list[np.ndarray] = []
    discarded: list[float] = []
    for want in explicit:
        # The unfolding is a temporary, so nothing holds it once svd returns
        # (a zip over the unfoldings would, in the result tuple it reuses).
        u, s = svd(next(unfoldings))[:2]
        r = _ranks_from_policy(s, u.shape[0], want, eta if want is None else None)
        r = min(r, u.shape[1])
        factors.append(u[:, :r].copy())
        discarded.append(float(np.sum(s[r:] ** 2)))
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
    factors, discarded = _hosvd_factors((unfold(x, m) for m in modes), rank_policy, len(modes))
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
    energy fraction or four explicit ranks.  Each unfolding is copied straight
    out of a view of the dataset, in :func:`lorid.tensorops.unfold`'s order, into
    one buffer the four modes share, so the fit holds one data-sized copy and
    one SVD's right singular vectors at a time, never the tensorized batch.
    """
    data = np.asarray(dataset, dtype=np.float64)
    if data.ndim != 4 or data.shape[0] < 1:
        raise ValueError("dataset must be a nonempty (N, H, W, C) array")
    blocks = _patch_view(data, layout)  # (N, H/p, p, W/p, p, C)
    groups = [(0,), *(tuple(a % blocks.ndim for a in g) for g in _MODE_AXES)]
    # A fresh data-sized array per mode would be mapped and unmapped by malloc
    # each time, and fault its pages in anew: 4x the faults at 64 CIFAR images.
    buf = np.empty(data.size)

    def unfoldings() -> Iterator[np.ndarray]:
        # Per image mode, its axes and then the batch tensor's other axes in
        # order, as unfold takes them.  Each yield overwrites the last, which
        # _hosvd_factors is done with.
        for mode, dim in enumerate(layout.tensor_shape, start=1):
            order = groups[mode] + sum(groups[:mode] + groups[mode + 1:], ())
            axes = blocks.transpose(order)
            buf.reshape(axes.shape)[...] = axes
            yield buf.reshape(dim, -1)

    factors, discarded = _hosvd_factors(unfoldings(), rank_policy, 4)
    return TuckerBasis(tuple(factors), layout, tuple(discarded))


def tf_apply(x: np.ndarray, basis: TuckerBasis) -> np.ndarray:
    """Low-rank projection of an image (or batch): tensorize, project each mode
    onto its fitted subspace, reconstruct, detensorize.  Idempotent."""
    layout = basis.layout
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
