"""Iterated short-run diffusion purification, optionally behind a low-rank projection.

The purifier runs L short diffuse/denoise loops of depth t' = floor(t / L)
instead of one deep loop of depth t, so the total injected-noise budget is
held fixed while the denoiser gets L chances to pull the sample back toward
the data manifold.  An optional frozen low-rank projection strips off-subspace
perturbation energy before the loops start.  Each loop diffuses, then
denoises, so the output is a denoised sample.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .diffusion import Denoiser, Schedule, diffuse, reverse_ancestral, reverse_skip
from .tensorops import frobenius_norm
from .tucker import TuckerBasis, tf_apply

__all__ = [
    "LoridConfig",
    "PurifyTrace",
    "AdvPerturbation",
    "lorid_purify",
    "add_adversarial",
    "uniform_sign_noise",
    "misaligned_noise",
]

_SAMPLERS = ("ancestral", "skip")


@dataclass(frozen=True)
class LoridConfig:
    """Knobs of one purification run.

    ``t`` is the total diffusion depth split across ``L`` loops.  A fitted
    ``basis`` switches on the frozen low-rank projection.
    ``sampler`` picks the reverse pass: step-by-step ancestral sampling or the
    deterministic stride-``skip_k`` jump sampler.  ``clip`` optionally clamps
    the final output to a box, e.g. ``(-1.0, 1.0)`` for centered images.
    """

    t: int
    L: int = 1
    basis: TuckerBasis | None = None
    sampler: str = "ancestral"
    skip_k: int = 1
    clip: tuple[float, float] | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError(f"diffusion depth t={self.t} must be >= 1")
        if self.L < 1:
            raise ValueError(f"loop count L={self.L} must be >= 1")
        if self.t // self.L < 1:
            raise ValueError(f"t={self.t} too small for L={self.L}: per-loop depth would be zero")
        if self.sampler not in _SAMPLERS:
            raise ValueError(f"sampler must be one of {_SAMPLERS}, got {self.sampler!r}")
        if self.skip_k < 1:
            raise ValueError(f"skip stride {self.skip_k} must be >= 1")
        if self.clip is not None and not self.clip[0] < self.clip[1]:
            raise ValueError(f"clip box {self.clip} must be increasing")

    @property
    def per_loop_t(self) -> int:
        return self.t // self.L

    def validate(self, schedule: Schedule) -> None:
        if self.t > schedule.T:
            raise ValueError(f"t={self.t} exceeds schedule length {schedule.T}")


@dataclass
class PurifyTrace:
    """Per-loop diagnostics of one purification run."""

    loops: int = 0
    distances: list[float] = field(default_factory=list)
    wall_time_s: float = 0.0


def _reverse(
    x_t: np.ndarray,
    t: int,
    denoiser: Denoiser,
    schedule: Schedule,
    config: LoridConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    if config.sampler == "ancestral":
        return reverse_ancestral(x_t, t, denoiser, schedule, rng)
    return reverse_skip(x_t, t, config.skip_k, denoiser, schedule)


def lorid_purify(
    x: np.ndarray,
    denoiser: Denoiser,
    schedule: Schedule,
    config: LoridConfig,
    rng: np.random.Generator | None = None,
    clean_ref: np.ndarray | None = None,
) -> tuple[np.ndarray, PurifyTrace]:
    """Purify one sample (any shape); returns the purified sample and a trace.

    Samples are flat vectors on the last axis; leading axes are treated as a
    batch and purified together.  With a basis in the config the input is
    instead an image on the last three axes (matching the basis layout) and is
    flattened after projecting.  When ``clean_ref`` is given (same shape as
    ``x``), ``trace.distances`` records the aggregate l2 distance to it after
    the projection stage and after every loop — handy for watching the
    iterates approach the clean signal.  Non-finite input raises ValueError.
    """
    start = time.perf_counter()
    if rng is None:
        rng = np.random.default_rng(config.seed)
    config.validate(schedule)
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("input to purify holds non-finite values")
    orig_shape = x.shape

    if config.basis is not None:
        x = tf_apply(x, config.basis)
        flat = x.reshape(*x.shape[:-3], -1)
    else:
        flat = x

    trace = PurifyTrace()
    if clean_ref is not None:
        ref = np.asarray(clean_ref, dtype=np.float64).reshape(flat.shape)
        trace.distances.append(frobenius_norm(flat - ref))

    t_loop = config.per_loop_t
    for _ in range(config.L):
        noisy, _ = diffuse(flat, t_loop, schedule, rng)
        flat = _reverse(noisy, t_loop, denoiser, schedule, config, rng)
        trace.loops += 1
        if clean_ref is not None:
            trace.distances.append(frobenius_norm(flat - ref))

    out = flat.reshape(orig_shape)
    if config.clip is not None:
        out = np.clip(out, config.clip[0], config.clip[1])
    trace.wall_time_s = time.perf_counter() - start
    return out, trace


@dataclass(frozen=True)
class AdvPerturbation:
    """A perturbation with its norms, as reported by :func:`add_adversarial`."""

    eps: np.ndarray
    linf: float
    l2: float
    rms: float


def _describe(eps: np.ndarray) -> AdvPerturbation:
    flat = eps.reshape(-1)
    return AdvPerturbation(
        eps=eps,
        linf=float(np.max(np.abs(flat))) if flat.size else 0.0,
        l2=frobenius_norm(flat),
        rms=frobenius_norm(flat) / math.sqrt(flat.size) if flat.size else 0.0,
    )


def add_adversarial(
    x: np.ndarray, eps: np.ndarray, budget_l2: float | None = None
) -> tuple[np.ndarray, AdvPerturbation]:
    """Add a perturbation, optionally rescaled to an exact l2 budget."""
    x = np.asarray(x, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x.shape != eps.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {eps.shape}")
    if budget_l2 is not None:
        if budget_l2 < 0:
            raise ValueError("l2 budget must be nonnegative")
        norm = frobenius_norm(eps.reshape(-1))
        if norm == 0.0:
            raise ValueError("cannot rescale a zero perturbation to a positive budget")
        eps = eps * (budget_l2 / norm)
    pert = _describe(eps)
    return x + eps, pert


def uniform_sign_noise(
    shape: tuple[int, ...], magnitude: float, rng: np.random.Generator
) -> np.ndarray:
    """Random +-magnitude perturbation (the classic worst-case-ish linf probe)."""
    if magnitude < 0:
        raise ValueError("magnitude must be nonnegative")
    return magnitude * rng.choice([-1.0, 1.0], size=shape)


def misaligned_noise(
    shape: tuple[int, int, int],
    basis: TuckerBasis,
    budget_l2: float,
    rng: np.random.Generator,
    max_tries: int = 64,
) -> np.ndarray:
    """A perturbation entirely outside the retained low-rank subspace.

    Built as delta - TF(delta) for Gaussian delta, so the projection maps it to
    zero exactly; rescaled to the requested l2 norm.
    """
    if budget_l2 < 0:
        raise ValueError("l2 budget must be nonnegative")
    for _ in range(max_tries):
        delta = rng.standard_normal(shape)
        resid = delta - tf_apply(delta, basis)
        norm = frobenius_norm(resid.reshape(-1))
        if norm > 1e-12:
            return resid * (budget_l2 / norm)
    raise RuntimeError(
        "could not find an off-subspace direction: the retained subspace appears full-rank"
    )
