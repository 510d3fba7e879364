"""Iterated short-run diffusion purification, optionally behind a low-rank projection.

The purifier runs L short diffuse/denoise loops of depth t' = floor(t / L)
instead of one deep loop of depth t, so the total injected-noise budget is
held fixed while the denoiser gets L chances to pull the sample back toward
the data manifold.  An optional frozen low-rank projection strips off-subspace
perturbation energy before the loops start.  Each loop diffuses, then
denoises, so the output is a denoised sample.  Several configs can purify side
by side on one sequence of noise draws (:func:`purify_in_lockstep`).
"""

from __future__ import annotations

import math
import queue
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Generator, Iterator, Sequence, TypeVar

import numpy as np

# reverse_ancestral and reverse_skip are not called here (the loops walk the
# step lists); the benchmark's tracer wraps them under this module's name.
from .diffusion import (
    Denoiser,
    Schedule,
    _check_int,
    ancestral_steps,
    diffuse,
    drive,
    reverse_ancestral,
    reverse_skip,
    skip_steps,
    walk,
)
from .tensorops import frobenius_norm
from .tucker import TuckerBasis, tf_apply

__all__ = [
    "LoridConfig",
    "PurifyTrace",
    "lorid_purify",
    "purify_in_lockstep",
    "uniform_sign_noise",
    "misaligned_noise",
]

_SAMPLERS = ("ancestral", "skip")
R = TypeVar("R")

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
        for name in ("t", "L", "skip_k"):
            _check_int(getattr(self, name), name)
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

    @property
    def draws(self) -> int:
        """Standard-normal draws of one purify: one per diffuse, plus one per
        ancestral step but the last."""
        return self.L * (self.per_loop_t if self.sampler == "ancestral" else 1)

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
    itself.  Larger ones come from a :class:`_NoiseStream`.  The stream raises
    on leaving the block unless exactly ``count`` draws were taken; on an
    exception it is stopped and joined before the error goes on.
    """
    if math.prod(shape) < STREAM_MIN_VALUES:
        yield rng
        return
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


def _finite(x, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} holds non-finite values")
    return x


def _overflow_unwarned() -> np.errstate:
    """No numpy overflow warnings: :func:`_purify_steps` refuses an overflowed output instead."""
    return np.errstate(over="ignore", invalid="ignore")


def _draw_shape(x: np.ndarray, config: LoridConfig) -> tuple[int, ...]:
    """The shape of each noise draw of a purify of ``x``: its samples, flattened."""
    batched = x.ndim > (1 if config.basis is None else 3)
    return (x.shape[0], math.prod(x.shape[1:])) if batched else (x.size,)


def _purify_steps(
    x: np.ndarray,
    denoiser: Denoiser,
    schedule: Schedule,
    config: LoridConfig,
    shape: tuple[int, ...],
    trace: PurifyTrace,
    ref: np.ndarray | None,
) -> Generator[tuple[int, ...], np.ndarray, np.ndarray]:
    """The purify of ``x`` as a step generator (see
    :func:`lorid.diffusion.walk`): it yields ``shape`` for each of
    its ``config.draws`` draws, takes the draw through ``send`` and returns
    the purified samples flattened to ``shape``.  It counts its loops in
    ``trace``, and with ``ref`` records the distances to it there.  Between
    draws its frames hold only the current state.
    """
    x = (x if config.basis is None else tf_apply(x, config.basis)).reshape(shape)
    if ref is not None:
        trace.distances.append(_distance(x, ref))
    t_loop = config.per_loop_t
    reverse = (ancestral_steps(t_loop, schedule) if config.sampler == "ancestral"
               else skip_steps(t_loop, config.skip_k, schedule))
    for _ in range(config.L):
        chain = walk(diffuse(x, t_loop, schedule, (yield shape)), reverse, denoiser)
        del x  # the pre-diffuse state is not held while the chain runs
        x = yield from chain
        trace.loops += 1
        if ref is not None:
            trace.distances.append(_distance(x, ref))
    if not np.all(np.isfinite(x)):
        raise ValueError("purify overflows float64: its output holds non-finite values")
    return x


def lorid_purify(
    x: np.ndarray,
    denoiser: Denoiser,
    schedule: Schedule,
    config: LoridConfig,
    rng: np.random.Generator,
    clean_ref: np.ndarray | None = None,
) -> tuple[np.ndarray, PurifyTrace]:
    """Purify one sample or a batch; returns the purified input and a trace.

    ``x`` is one sample, or a batch of samples along axis 0.  A sample is a
    vector or, when the config has a basis, an image of the basis layout.
    Each sample is flattened for the denoiser (after the projection), and the
    output has ``x``'s shape.  When ``clean_ref`` is given (same shape as
    ``x``), ``trace.distances`` records the aggregate l2 distance to it after
    the projection stage and after every loop — handy for watching the
    iterates approach the clean signal.  Non-finite input, a clean reference
    that is non-finite or of another shape, a distance that overflows float64
    and an output that does (from finite input) raise ValueError, the first
    two before any draw, and no numpy warning is given.

    The noise draws run on a second thread when each holds at least
    :data:`STREAM_MIN_VALUES` values (see :class:`_NoiseStream`); the output
    and the generator's state afterwards are the same either way.  If the
    denoiser raises, the generator may have made up to two draws more.
    """
    start = time.perf_counter()
    config.validate(schedule)
    x = _finite(x, "input to purify")
    shape = _draw_shape(x, config)
    ref = None
    if clean_ref is not None:
        ref = np.asarray(clean_ref, dtype=np.float64)
        if ref.shape != x.shape:
            raise ValueError(
                f"clean reference shape {ref.shape} differs from the input's {x.shape}")
        ref = _finite(ref, "clean reference").reshape(shape)

    trace = PurifyTrace()
    with _noise_source(rng, shape, config.draws) as noise, _overflow_unwarned():
        flat = drive(_purify_steps(x, denoiser, schedule, config, shape, trace, ref), noise)
    trace.wall_time_s = time.perf_counter() - start
    return flat.reshape(x.shape), trace


def purify_in_lockstep(
    inputs: Sequence[np.ndarray],
    denoiser: Denoiser,
    schedule: Schedule,
    configs: Sequence[LoridConfig],
    rng: np.random.Generator,
    score: Callable[[np.ndarray], R],
) -> list[list[R]]:
    """Purify each of ``inputs`` under every config, all configs side by side
    on one sequence of draws; returns, per config, the ``score`` of each
    purified input (in its input's shape), in the order of ``inputs``.

    Under each config, the inputs are purified in turn, each with the next
    draws, as that many :func:`lorid_purify` calls on ``rng`` would; an input
    listed twice is purified twice, on its own draws each time.
    The configs share their draws (common random numbers): each draw is made
    once and sent to every config still purifying, so each config's outputs
    and scores are those it would give alone from a generator in ``rng``'s
    state, and ``rng`` ends after the longest config's draws.  The draws run
    on the noise stream as in :func:`lorid_purify`.  No config or no input, a
    config deeper than the schedule, non-finite input, and inputs and configs
    that would draw noise of more than one shape raise ValueError before any
    draw; an output that overflows float64 raises it as in :func:`lorid_purify`.
    """
    if not configs:
        raise ValueError("need at least one config to purify under")
    for config in configs:
        config.validate(schedule)
    inputs = [_finite(x, "input to purify") for x in inputs]
    shapes = {_draw_shape(x, config) for x in inputs for config in configs}
    if len(shapes) != 1:
        raise ValueError(f"inputs and configs draw noise of shapes {sorted(shapes)}, not one")
    (shape,) = shapes

    def purifies(config: LoridConfig, scores: list[R]) -> Generator:
        for x in inputs:
            flat = yield from _purify_steps(
                x, denoiser, schedule, config, shape, PurifyTrace(), None)
            scores.append(score(flat.reshape(x.shape)))
            del flat  # not held through the next purify

    def waits(step: Generator, draw: np.ndarray | None) -> bool:
        """Send ``draw`` to ``step``: True while it asks for another."""
        try:
            step.send(draw)
        except StopIteration:
            return False
        return True

    per_config: list[list[R]] = [[] for _ in configs]
    steps = [purifies(config, scores) for config, scores in zip(configs, per_config)]
    count = len(inputs) * max(config.draws for config in configs)
    with _noise_source(rng, shape, count) as noise, _overflow_unwarned():
        waiting = [step for step in steps if waits(step, None)]
        while waiting:
            draw = noise.standard_normal(shape)
            waiting = [step for step in waiting if waits(step, draw)]
            del draw  # not held while the next draw is made
    return per_config


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
