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
import queue
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ._nn import one_blas_thread
from .diffusion import Denoiser, Schedule, diffuse, reverse_ancestral, reverse_skip
from .tensorops import frobenius_norm
from .tucker import TuckerBasis, tf_apply

__all__ = [
    "LoridConfig",
    "PurifyTrace",
    "lorid_purify",
    "uniform_sign_noise",
    "misaligned_noise",
]

_SAMPLERS = ("ancestral", "skip")

# A purify whose noise draws hold at least this many values each makes them on
# a helper thread.  Below it the hand-off costs more than the overlap saves: on
# a 2-core box at t=160, L=4, 16 striped images (4096 values) took 27 ms per
# purify on the stream against 31 ms inline, and 8 images (2048 values) 22 ms
# against 18 ms.
STREAM_MIN_VALUES = 4096
# How many draws the helper thread may make before the caller takes them.
_STREAM_AHEAD = 2


@dataclass(frozen=True)
class LoridConfig:
    """Knobs of one purification run.

    ``t`` is the total diffusion depth split across ``L`` loops.  A fitted
    ``basis`` switches on the frozen low-rank projection.
    ``sampler`` picks the reverse pass: step-by-step ancestral sampling or the
    deterministic stride-``skip_k`` jump sampler.
    """

    t: int
    L: int = 1
    basis: TuckerBasis | None = None
    sampler: str = "ancestral"
    skip_k: int = 1

    def __post_init__(self) -> None:
        if self.L < 1:
            raise ValueError(f"loop count L={self.L} must be >= 1")
        if self.t // self.L < 1:
            raise ValueError(f"t={self.t} too small for L={self.L}: per-loop depth would be < 1")
        if self.sampler not in _SAMPLERS:
            raise ValueError(f"sampler must be one of {_SAMPLERS}, got {self.sampler!r}")
        if self.skip_k < 1:
            raise ValueError(f"skip stride {self.skip_k} must be >= 1")

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


class _NoiseStream:
    """The next ``count`` draws ``rng.standard_normal(shape)``, made in order on
    a helper thread at most :data:`_STREAM_AHEAD` draws ahead of the caller.

    Stands in for the generator where a sampler only calls
    ``standard_normal(shape)``.  The draws do not depend on the state being
    purified, only on the generator's order, so the caller gets the values it
    would have drawn itself and the generator ends in the same state, while the
    draws overlap the denoiser.  The helper makes no draw before the caller
    asks for the first.  Nothing else may use the generator until
    :meth:`close` returns.
    """

    def __init__(self, rng: np.random.Generator, shape: tuple[int, ...], count: int) -> None:
        self.shape = shape
        self.count = count
        self.left = count
        self._ready: queue.SimpleQueue = queue.SimpleQueue()
        self._room = threading.Semaphore(0)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._fill, args=(rng, count), name="lorid-noise", daemon=True
        )
        self._thread.start()

    def _fill(self, rng: np.random.Generator, count: int) -> None:
        try:
            for _ in range(count):
                self._room.acquire()
                if self._stop.is_set():
                    return
                self._ready.put(rng.standard_normal(self.shape))
        except Exception as exc:  # re-raised by the caller's next draw
            self._ready.put(exc)

    def standard_normal(self, shape: tuple[int, ...]) -> np.ndarray:
        if tuple(shape) != self.shape:
            raise ValueError(f"noise stream draws shape {self.shape}, asked for {tuple(shape)}")
        if self.left == 0:
            raise RuntimeError("noise stream asked for more draws than it was built for")
        if self.left == self.count:
            self._room.release(_STREAM_AHEAD)
        item = self._ready.get()
        if isinstance(item, Exception):
            raise item
        self.left -= 1
        self._room.release()
        return item

    def close(self) -> None:
        """Stop the helper thread and wait for it to finish."""
        self._stop.set()
        self._room.release()
        self._thread.join()


@contextmanager
def _noise_source(
    rng: np.random.Generator, shape: tuple[int, ...], count: int
) -> Iterator[np.random.Generator | _NoiseStream]:
    """What the samplers draw their ``count`` noise arrays of ``shape`` from.

    Draws of fewer than :data:`STREAM_MIN_VALUES` values come from ``rng``
    itself.  Larger ones come from a :class:`_NoiseStream`, and BLAS is held to
    one thread for the whole block: a BLAS worker woken by any matrix product
    in it, the projection's too, would spin on the core the helper needs.  The
    stream raises on leaving the block unless exactly ``count`` draws were
    taken; on an exception it is stopped and joined before the error goes on.
    """
    if math.prod(shape) < STREAM_MIN_VALUES:
        yield rng
        return
    with one_blas_thread():
        stream = _NoiseStream(rng, shape, count)
        try:
            yield stream
        finally:
            stream.close()
    if stream.left:
        raise RuntimeError(f"noise stream closed with {stream.left} of {count} draws untaken")


def _distance(flat: np.ndarray, ref: np.ndarray) -> float:
    """l2 distance of a purify stage to the clean reference; ValueError where
    it overflows float64."""
    with np.errstate(over="ignore"):
        dist = frobenius_norm(flat - ref)
    if not math.isfinite(dist):
        raise ValueError("distance to the clean reference overflows float64")
    return dist


def lorid_purify(
    x: np.ndarray,
    denoiser: Denoiser,
    schedule: Schedule,
    config: LoridConfig,
    rng: np.random.Generator,
    clean_ref: np.ndarray | None = None,
) -> tuple[np.ndarray, PurifyTrace]:
    """Purify one sample (any shape); returns the purified sample and a trace.

    Samples are flat vectors on the last axis; leading axes are treated as a
    batch and purified together.  With a basis in the config the input is
    instead an image on the last three axes (matching the basis layout) and is
    flattened after projecting.  When ``clean_ref`` is given (same shape as
    ``x``), ``trace.distances`` records the aggregate l2 distance to it after
    the projection stage and after every loop — handy for watching the
    iterates approach the clean signal.  Non-finite input, a clean reference
    that is non-finite or of another shape, and a distance that overflows
    float64 raise ValueError; the first two before any draw.

    The noise draws run on a second thread when each holds at least
    :data:`STREAM_MIN_VALUES` values (see :class:`_NoiseStream`); the output
    and the generator's state afterwards are the same either way.  If the
    denoiser raises, the generator may have made up to two draws more.
    """
    start = time.perf_counter()
    config.validate(schedule)
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("input to purify holds non-finite values")
    orig_shape = x.shape
    if config.basis is None:
        flat_shape = x.shape
    else:
        flat_shape = (*x.shape[:-3], math.prod(x.shape[-3:]))
    if clean_ref is not None:
        ref = np.asarray(clean_ref, dtype=np.float64)
        if ref.shape != orig_shape:
            raise ValueError(
                f"clean reference shape {ref.shape} differs from the input's {orig_shape}")
        if not np.all(np.isfinite(ref)):
            raise ValueError("clean reference holds non-finite values")
        ref = ref.reshape(flat_shape)

    trace = PurifyTrace()
    t_loop = config.per_loop_t
    ancestral = config.sampler == "ancestral"
    # One draw per diffuse, plus one per ancestral step but the last.
    draws = config.L * (t_loop if ancestral else 1)
    with _noise_source(rng, flat_shape, draws) as noise:
        flat = x if config.basis is None else tf_apply(x, config.basis).reshape(flat_shape)
        if clean_ref is not None:
            trace.distances.append(_distance(flat, ref))
        for _ in range(config.L):
            noisy, _ = diffuse(flat, t_loop, schedule, noise)
            if ancestral:
                flat = reverse_ancestral(noisy, t_loop, denoiser, schedule, noise)
            else:
                flat = reverse_skip(noisy, t_loop, config.skip_k, denoiser, schedule)
            trace.loops += 1
            if clean_ref is not None:
                trace.distances.append(_distance(flat, ref))

    trace.wall_time_s = time.perf_counter() - start
    return flat.reshape(orig_shape), trace


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
) -> np.ndarray:
    """A perturbation entirely outside the retained low-rank subspace.

    Built as delta - TF(delta) for Gaussian delta, so the projection maps it to
    zero exactly; rescaled to the requested l2 norm.  Gives up after 64 draws
    that all lie in the subspace.
    """
    if budget_l2 < 0:
        raise ValueError("l2 budget must be nonnegative")
    for _ in range(64):
        delta = rng.standard_normal(shape)
        resid = delta - tf_apply(delta, basis)
        norm = frobenius_norm(resid.reshape(-1))
        if norm > 1e-12:
            return resid * (budget_l2 / norm)
    raise RuntimeError(
        "could not find an off-subspace direction: the retained subspace appears full-rank"
    )
