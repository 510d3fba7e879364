"""Minimal dense-network plumbing shared by the trained denoiser and the toy classifier.

Hand-rolled forward/backward passes for a tanh MLP with a linear head, the one
minibatch SGD loop both networks train with, the pack/unpack helpers used for
finite-difference gradient checking, the scope that holds numpy's BLAS to
one thread, and the fork that trains two networks in two processes.  Kept
private: the public surfaces live in :mod:`lorid.diffusion` and
:mod:`lorid.attacks`.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Sequence, TypeVar

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


def forward(params: Params, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run the network on a batch ``x`` (n, d_in).

    Hidden layers use tanh, the last layer is linear.  Returns the output and
    the cache of post-activation values needed by :func:`backward`.
    """
    cache = [x]
    h = x
    last = len(params) - 1
    for i, (w, b) in enumerate(params):
        z = h @ w + b
        h = z if i == last else np.tanh(z)
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
    BLAS runs on one thread throughout, as a second one only busy-waits on
    these small matmuls (see :func:`one_blas_thread`).
    Returns the per-epoch mean batch losses.  A non-finite loss, or an epoch
    mean over :data:`DIVERGENCE_FACTOR` times the first batch's loss, raises
    ValueError, as the rate or the data is then at fault.
    """
    velocity = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params]
    batch = max(1, min(batch_size, n))
    epoch_losses: list[float] = []
    with one_blas_thread():
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


def pack(params: Params) -> np.ndarray:
    return np.concatenate([np.concatenate([w.ravel(), b.ravel()]) for w, b in params])


def unpack(theta: np.ndarray, like: Params) -> Params:
    out: Params = []
    pos = 0
    for w, b in like:
        nw, nb = w.size, b.size
        out.append((theta[pos : pos + nw].reshape(w.shape), theta[pos + nw : pos + nw + nb].reshape(b.shape)))
        pos += nw + nb
    if pos != theta.size:
        raise ValueError("parameter vector size mismatch")
    return out


def gradient_check(
    loss_fn: Callable[[Params], float],
    params: Params,
    analytic: Params,
    rng: np.random.Generator,
) -> float:
    """Max relative error between analytic gradients and central differences.

    Probes 10 randomly chosen parameter coordinates with step 1e-5; the
    relative error for one coordinate is |g_a - g_fd| / max(|g_a|, |g_fd|, 1e-12).
    """
    h = 1e-5
    theta = pack(params)
    grad_flat = pack(analytic)
    idx = rng.choice(theta.size, size=min(10, theta.size), replace=False)
    worst = 0.0
    for i in idx:
        orig = theta[i]
        theta[i] = orig + h
        lp = loss_fn(unpack(theta, params))
        theta[i] = orig - h
        lm = loss_fn(unpack(theta, params))
        theta[i] = orig
        g_fd = (lp - lm) / (2.0 * h)
        g_an = grad_flat[i]
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


class _BlasHold:
    """The open :func:`one_blas_thread` blocks of the process, counted, since
    the thread count they change belongs to the whole process."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.open = 0
        self.found = 0


_BLAS_HOLD = _BlasHold()


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Hold numpy's bundled OpenBLAS to one thread inside the block.

    Between calls OpenBLAS's worker threads busy-wait on the other cores; on
    this package's small matrices they buy nothing, and they take the core the
    purifier's noise stream runs on.  The count found when the first open
    block began is restored when the last one ends, so blocks may nest and
    overlap across threads.  A no-op when numpy bundles no OpenBLAS.
    """
    api = _openblas_threads()
    if api is None:
        yield
        return
    get, put = api
    hold = _BLAS_HOLD
    with hold.lock:
        if hold.open == 0:
            hold.found = get()
            put(1)
        hold.open += 1
    try:
        yield
    finally:
        with hold.lock:
            hold.open -= 1
            if hold.open == 0:
                put(hold.found)


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
