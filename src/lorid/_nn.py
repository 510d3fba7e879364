"""Minimal dense-network plumbing shared by the trained denoiser and the toy classifier.

Hand-rolled forward/backward passes for a tanh MLP with a linear head, the
layer widths a parameter list chains, the one minibatch SGD loop both networks
train with, its finite-difference gradient check, and the fork that runs two
independent jobs in two processes: it trains the two networks, and it splits
``experiment.run_calibration``'s grid into two halves.  Kept private: the public surfaces live in
:mod:`lorid.diffusion` and :mod:`lorid.attacks`.

Importing this module, which ``import lorid`` does, sets numpy's bundled
OpenBLAS to one thread for the whole process (nothing happens where numpy
bundles none).  The count is not restored; a caller that sets it again
afterwards runs lorid under its own setting.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
from pathlib import Path
from typing import Callable, Sequence, TypeVar

import numpy as np

Params = list[tuple[np.ndarray, np.ndarray]]  # [(W, b), ...] with W: (fan_in, fan_out)
A = TypeVar("A")
B = TypeVar("B")


def init_params(sizes: Sequence[int], rng: np.random.Generator) -> Params:
    """Xavier-scaled Gaussian init for the layer sizes ``[d_in, h1, ..., d_out]``."""
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    params: Params = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)
        b = np.zeros(fan_out)
        params.append((w, b))
    return params


def layer_sizes(params: Params) -> tuple[int, ...]:
    """The widths ``(d_in, h1, ..., d_out)`` that ``params`` chains, read off its
    weights.  No layer, a layer of no width, a bias of another width, a weight
    that does not take the previous layer's outputs, or a non-finite entry
    raises ValueError."""
    if not params:
        raise ValueError("a network needs at least one layer")
    sizes = [params[0][0].shape[0] if params[0][0].ndim == 2 else 0]
    for i, (w, b) in enumerate(params):
        if w.ndim != 2 or min(w.shape) < 1 or w.shape[0] != sizes[-1] or b.shape != w.shape[1:]:
            raise ValueError(f"layer {i}: weight {w.shape} and bias {b.shape} are not a "
                             f"nonempty layer taking {sizes[-1]} inputs")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("non-finite parameters")
        sizes.append(w.shape[1])
    return tuple(sizes)


def forward(params: Params, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run the network on a batch ``x`` (n, d_in).

    Hidden layers use tanh, the last layer is linear.  Returns the output and
    the cache of post-activation values needed by :func:`backward`.  Each
    layer's bias add and tanh run in place on its product, the one array the
    layer allocates; ``x`` itself is never written.
    """
    cache = [x]
    h = x
    last = len(params) - 1
    for i, (w, b) in enumerate(params):
        h = h @ w
        h += b
        if i != last:
            np.tanh(h, out=h)
        cache.append(h)
    return h, cache


def backward(params: Params, cache: list[np.ndarray], dout: np.ndarray) -> tuple[
    list[tuple[np.ndarray, np.ndarray]], np.ndarray
]:
    """Backpropagate ``dout`` (gradient w.r.t. the network output).

    Returns per-layer ``(dW, db)`` gradients and the gradient w.r.t. the input
    batch.  ``cache`` must come from :func:`forward` on the same batch.
    """
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params)  # type: ignore[list-item]
    delta = dout
    for i in range(len(params) - 1, -1, -1):
        w, _ = params[i]
        h_in = cache[i]
        if i != len(params) - 1:
            # undo the tanh: cache[i + 1] holds tanh(z)
            delta = delta * (1.0 - cache[i + 1] ** 2)
        grads[i] = (h_in.T @ delta, delta.sum(axis=0))
        delta = delta @ w.T
    return grads, delta


# SGD momentum of every network trained here.
MOMENTUM = 0.9
# An epoch whose mean loss exceeds the first batch's loss by this factor has
# diverged, even while the loss is still finite.
DIVERGENCE_FACTOR = 1e6


# A diverging run ends in the loss check; its overflow warnings would only repeat it.
@np.errstate(all="ignore")
def sgd_train(
    params: Params,
    n: int,
    batch_size: int,
    epochs: int,
    lr: float,
    lr_decay: float,
    rng: np.random.Generator,
    loss_and_grads: Callable[[np.ndarray], tuple[float, Params]],
) -> list[float]:
    """Minibatch SGD with momentum over ``n`` samples, updating ``params`` in place.

    Each epoch draws one permutation of the samples from ``rng`` and calls
    ``loss_and_grads(idx)`` on each batch of indices in turn; the velocity and
    the parameters are then updated in place (v = MOMENTUM v - lr g, then
    p += v).  The rate is multiplied by ``lr_decay`` after every epoch.
    Returns the per-epoch mean batch losses.  A non-finite loss, or an epoch
    mean over :data:`DIVERGENCE_FACTOR` times the first batch's loss, raises
    ValueError, as the rate or the data is then at fault.
    """
    velocity = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params]
    batch = max(1, min(batch_size, n))
    epoch_losses: list[float] = []
    for _ in range(epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, batch):
            loss, grads = loss_and_grads(order[start : start + batch])
            if not np.isfinite(loss):
                raise ValueError(f"training diverged (loss {loss}); try a smaller rate")
            for layer, layer_grads, layer_velocity in zip(params, grads, velocity):
                for p, g, v in zip(layer, layer_grads, layer_velocity):
                    v *= MOMENTUM
                    v -= lr * g
                    p += v
            losses.append(loss)
        if not epoch_losses:
            first = losses[0]
        mean = float(np.mean(losses))
        if mean > DIVERGENCE_FACTOR * first:
            raise ValueError(
                f"training diverged (loss {mean:.3g}, over {DIVERGENCE_FACTOR:.0e} times "
                f"the first batch's {first:.3g}); try a smaller rate"
            )
        epoch_losses.append(mean)
        lr *= lr_decay
    return epoch_losses


def gradient_check(
    loss_fn: Callable[[Params], float],
    params: Params,
    analytic: Params,
    rng: np.random.Generator,
) -> float:
    """Max relative error between analytic gradients and central differences.

    Probes 10 randomly chosen parameter coordinates with step 1e-5; the
    relative error for one coordinate is |g_a - g_fd| / max(|g_a|, |g_fd|, 1e-12).
    Coordinates are numbered through the layers' weights and biases in turn,
    and each probe moves its coordinate of ``params`` in place, so ``loss_fn``
    is called on ``params`` itself; the coordinate is put back even when
    ``loss_fn`` raises.
    """
    h = 1e-5
    pairs = [(p, g) for layer, grads in zip(params, analytic) for p, g in zip(layer, grads)]
    ends = np.cumsum([p.size for p, _ in pairs])  # one past each array's last coordinate
    total = int(ends[-1])
    worst = 0.0
    for i in rng.choice(total, size=min(10, total), replace=False):
        k = int(np.searchsorted(ends, i, side="right"))
        p, g = pairs[k]
        j = int(i - ends[k] + p.size)
        orig = p.flat[j]
        try:
            p.flat[j] = orig + h
            lp = loss_fn(params)
            p.flat[j] = orig - h
            lm = loss_fn(params)
        finally:
            p.flat[j] = orig
        g_fd = (lp - lm) / (2.0 * h)
        g_an = g.flat[j]
        worst = max(worst, abs(g_an - g_fd) / max(abs(g_an), abs(g_fd), 1e-12))
    return worst


@functools.cache
def _openblas_threads():
    """``(get, set)`` thread-count functions of numpy's bundled OpenBLAS, or None.

    Wheels bundle it under ``numpy.libs`` with its symbols renamed
    (``scipy_openblas_`` prefix, ``64_`` suffix for the ILP64 build).
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    put = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                except AttributeError:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


# lorid's dense algebra is desk-scale: a second OpenBLAS thread speeds none of
# it up and busy-waits between calls on the core the purifier's noise stream
# needs.  So the whole process runs BLAS on one thread from here on.
if (_api := _openblas_threads()) is not None:
    _api[1](1)


def in_two_processes(here: Callable[[], A], there: Callable[[], B]) -> tuple[A, B]:
    """``(here(), there())``, with ``there`` run in a forked child process.

    The child sends its result, or the exception it raised, back pickled
    through a pipe and leaves through ``os._exit`` on every path, so it never
    returns into the caller's stack.  The parent runs ``here`` meanwhile, reads
    the pipe to its end and only then reaps the child.  An error of ``here``
    wins: the child is killed and reaped, and the error raised.  Otherwise the
    child's exception is raised here with its type and message, and a child
    that died without a result raises RuntimeError naming its exit status.
    Both calls must depend only on what they were given, never on each other,
    and ``there`` on no lock another thread holds, as the child copies only
    the calling thread.  Where ``os.fork`` is missing the two run one after
    the other in this process.
    """
    if not hasattr(os, "fork"):
        return here(), there()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                outcome = (True, there())
            except BaseException as exc:  # raised again in the parent
                outcome = (False, exc)
            try:
                data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                data = pickle.dumps((False, RuntimeError(
                    f"the child process could not send its result: {exc!r}")))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            result = here()
            data = pipe.read()
    except BaseException:
        import signal  # only an error here needs it

        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(
            f"the child process exited with status {os.waitstatus_to_exitcode(status)} "
            "without a result"
        )
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return result, value
