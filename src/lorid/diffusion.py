"""Gaussian diffusion machinery: variance schedule, forward corruption, reverse
samplers, one-shot recovery, and two noise predictors (a closed-form Gaussian
oracle and a small trained MLP).

Conventions
-----------
Steps are 1-indexed: the schedule holds beta_1..beta_T, and ``alpha_bar_at(0)``
is defined as 1 (an uncorrupted signal).  The forward corruption to step t is

    x_t = sqrt(abar_t) * x0 + sqrt(1 - abar_t) * eps,    eps ~ N(0, I),

which is a Gaussian channel with signal-to-noise ratio abar_t / (1 - abar_t).
All samplers operate elementwise on arrays of any shape; noise predictors see
the trailing axis as the data dimension and broadcast over leading axes.

Every stochastic operation takes an explicit ``numpy.random.Generator``;
identical seeds reproduce runs bit-for-bit.  :func:`diffuse` takes its
standard-normal draw ``eps`` from the caller, so with ``eps`` held fixed it is
the affine map above.  :func:`walk` applies a reverse sampler's list of steps,
taking its draws one per ``send``, so the purifier can feed one sequence of
draws to several chains; :func:`reverse_ancestral` and :func:`reverse_skip` drive it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Generator, Protocol, Sequence, TypeVar

import numpy as np

from . import _nn

__all__ = [
    "Schedule",
    "make_linear_schedule",
    "default_schedule",
    "DEFAULT_T",
    "DEFAULT_BETA_START",
    "DEFAULT_BETA_END",
    "Denoiser",
    "GaussianSource",
    "GaussianOracleDenoiser",
    "MlpDenoiser",
    "MlpTrainConfig",
    "TrainReport",
    "ancestral_steps",
    "diffuse",
    "drive",
    "one_shot_recover",
    "reverse_ancestral",
    "reverse_skip",
    "skip_steps",
    "train_mlp_denoiser",
    "walk",
]

R = TypeVar("R")
Step = tuple[int, float, float, float, float]

DEFAULT_T = 1000
DEFAULT_BETA_START = 1e-4
DEFAULT_BETA_END = 0.02


def _check_int(value, label: str) -> None:
    """ValueError, naming ``label`` and ``value`` ("t=2.0"), unless ``value`` is an int
    or numpy integer: a float, even a whole one, is never truncated or put in ``range``."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{label}{value} is not an integer")


def _check_steps(t, low: int, high: int):
    """``t``, a step or a sequence of steps, once each is an integer in [low, high]:
    an int or numpy integer (:func:`_check_int`), or an array of an integer dtype.
    The ValueError names the first bad step; a sequence comes back as an index array.
    """
    steps = np.asarray(t)
    if steps.dtype.kind not in "iu":
        for step in t if steps.ndim else [t]:
            _check_int(step, "step ")
    bad = (steps < low) | (steps > high)
    if bad.any():
        raise ValueError(f"step {steps[bad][0]} outside [{low}, {high}]")
    return steps.astype(np.intp, copy=False) if steps.ndim else t


def _finite(x, what: str) -> np.ndarray:
    """``x`` as a float64 array; ValueError where it holds a NaN or an infinity."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} holds non-finite values")
    return x


class Schedule:
    """Variance schedule for t = 1..T, built from beta_1..beta_T alone.

    ``T``, ``alpha`` = 1 - beta and ``alpha_bar`` (the cumulative product of
    alpha) are derived from ``beta`` here, so they always agree with it.  So is
    ``_abar``, abar_s for s = 0..T as plain floats with abar_0 = 1
    (``_abar_array`` as an array).  A caller checks its depth once, then reads it.
    """

    def __init__(self, beta) -> None:
        beta = np.array(beta, dtype=np.float64)
        if beta.ndim != 1 or beta.size < 1:
            raise ValueError("beta must be a nonempty vector")
        if not (np.all(beta > 0.0) and np.all(beta < 1.0)):
            raise ValueError("beta values must lie in (0, 1)")
        self.beta = beta
        self.T = beta.size
        self.alpha = 1.0 - beta
        self.alpha_bar = np.cumprod(self.alpha)
        if self.alpha_bar[-1] <= 0.0:
            raise ValueError("alpha_bar underflowed to zero at t = T")
        self._abar_array = np.concatenate(([1.0], self.alpha_bar))
        if not np.all(np.diff(self._abar_array) < 0.0):
            raise ValueError("alpha_bar must be strictly decreasing from alpha_bar_0 = 1")
        self._abar = self._abar_array.tolist()

    def _check_step(self, t: int | np.ndarray, low: int) -> int | np.ndarray:
        """``t`` once :func:`_check_steps` finds it a step, or steps, in [low, T]."""
        return _check_steps(t, low, self.T)

    def alpha_bar_at(self, t: int | np.ndarray) -> float | np.ndarray:
        """abar_t with the convention abar_0 = 1; a sequence of steps reads an array."""
        step = self._check_step(t, 0)
        if isinstance(step, np.ndarray):
            return self._abar_array[step]
        return self._abar[step]


def make_linear_schedule(T: int, beta_start: float, beta_end: float) -> Schedule:
    """Schedule with beta linearly interpolated from ``beta_start`` to ``beta_end``."""
    _check_int(T, "T=")
    if T < 1:
        raise ValueError("T must be >= 1")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError("need 0 < beta_start <= beta_end < 1")
    return Schedule(np.linspace(beta_start, beta_end, T))


def default_schedule() -> Schedule:
    """The default schedule: T = 1000, beta linear from 1e-4 to 0.02."""
    return make_linear_schedule(DEFAULT_T, DEFAULT_BETA_START, DEFAULT_BETA_END)


class Denoiser(Protocol):
    """Anything that predicts the injected standard-normal noise from (x_t, t)."""

    def predict_eps(self, x_t: np.ndarray, t: int) -> np.ndarray: ...


def diffuse(x0: np.ndarray, t: int, schedule: Schedule, eps: np.ndarray) -> np.ndarray:
    """Corrupt ``x0`` to step ``t`` with the standard-normal draw ``eps``.

    ``eps`` must have ``x0``'s shape: broadcasting would reuse one sample's
    noise across a batch.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    ab = schedule._abar[schedule._check_step(t, 1)]
    if np.shape(eps) != x0.shape:
        raise ValueError(f"noise shape {np.shape(eps)} differs from the input's {x0.shape}")
    return math.sqrt(ab) * x0 + math.sqrt(1.0 - ab) * eps


def one_shot_recover(
    x_t: np.ndarray, t: int, denoiser: Denoiser, schedule: Schedule
) -> np.ndarray:
    """Direct estimate of the clean signal from a single noisy state.

    Inverts the forward corruption using the predicted noise:
    x0_hat = x_t / sqrt(abar_t) - sqrt(1 - abar_t) / sqrt(abar_t) * eps_hat.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    ab = schedule._abar[schedule._check_step(t, 1)]
    eps_hat = denoiser.predict_eps(x_t, t)
    return x_t / math.sqrt(ab) - math.sqrt((1.0 - ab) / ab) * eps_hat


def ancestral_steps(t: int, schedule: Schedule) -> list[Step]:
    """The ancestral reverse chain from step ``t`` down to 0, as :func:`walk`'s steps.

    Each step takes the posterior mean implied by the predicted noise and adds
    Gaussian noise with the posterior standard deviation sigma_s = sqrt(beta_s
    (1 - abar_{s-1}) / (1 - abar_s)), 0 at s = 1, so t = 1 is deterministic.
    """
    steps = []
    for s in range(schedule._check_step(t, 1), 0, -1):
        beta, ab = float(schedule.beta[s - 1]), schedule._abar[s]
        sigma = math.sqrt(beta * (1.0 - schedule._abar[s - 1]) / (1.0 - ab))
        steps.append((s, 1.0, -(beta / math.sqrt(1.0 - ab)), math.sqrt(1.0 - beta), sigma))
    return steps


def skip_steps(t: int, k: int, schedule: Schedule) -> list[Step]:
    """The jumps of :func:`reverse_skip` from step ``t`` down to 0, as :func:`walk`'s steps."""
    _check_int(k, "skip size k=")
    if k < 1:
        raise ValueError("skip size k must be >= 1")
    steps = []
    for s in range(schedule._check_step(t, 1), 0, -k):
        ab_s, ab_g = schedule._abar[s], schedule._abar[max(s - k, 0)]
        coef = math.sqrt((1.0 - ab_g) / ab_g) - math.sqrt((1.0 - ab_s) / ab_s)
        steps.append((s, math.sqrt(ab_g / ab_s), math.sqrt(ab_g) * coef, 1.0, 0.0))
    return steps


def walk(
    x: np.ndarray, steps: Sequence[Step], denoiser: Denoiser
) -> Generator[tuple[int, ...], np.ndarray, np.ndarray]:
    """Apply ``steps`` to ``x`` in turn: step (s, a, b, d, c) maps x to
    (a x + b eps_hat(x, s)) / d + c z.  A product or quotient by 1 is skipped,
    so each step keeps its sampler formula's bits.  Where c != 0 it yields the
    shape of the standard-normal draw z and takes z through ``send``.  Returns
    the final state; between draws its frame holds only the state."""
    x = np.asarray(x, dtype=np.float64)
    for s, a, b, d, c in steps:
        x = (x if a == 1.0 else a * x) + b * denoiser.predict_eps(x, s)
        if d != 1.0:
            x /= d
        if c != 0.0:
            x += c * (yield x.shape)
    return x


def drive(steps: Generator[tuple[int, ...], np.ndarray, R], rng) -> R:
    """Run a step generator to its end, answering each shape it yields with
    ``rng.standard_normal(shape)``; returns what the generator returns."""
    try:
        shape = next(steps)
        while True:
            shape = steps.send(rng.standard_normal(shape))
    except StopIteration as stop:
        return stop.value


def reverse_ancestral(
    x_t: np.ndarray,
    t: int,
    denoiser: Denoiser,
    schedule: Schedule,
    rng: np.random.Generator,
) -> np.ndarray:
    """Ancestral reverse chain from step ``t`` down to 0 (see
    :func:`ancestral_steps`), its noise drawn from ``rng``."""
    return drive(walk(x_t, ancestral_steps(t, schedule), denoiser), rng)


def reverse_skip(
    x_t: np.ndarray, t: int, k: int, denoiser: Denoiser, schedule: Schedule
) -> np.ndarray:
    """Deterministic reverse sampler jumping ``k`` steps per noise prediction.

    Each jump maps the state at step s to the estimated state at step s - k via

        x_{s-k} = sqrt(abar_{s-k}/abar_s) * x_s
                + sqrt(abar_{s-k}) * (sqrt((1-abar_{s-k})/abar_{s-k})
                                      - sqrt((1-abar_s)/abar_s)) * eps_hat(x_s, s),

    with a shorter final jump when k does not divide s.  A single jump with
    k = t reduces to :func:`one_shot_recover` (abar_0 = 1).
    """
    return drive(walk(x_t, skip_steps(t, k, schedule), denoiser), None)


class GaussianSource:
    """A Gaussian N(mean, cov) held as its mean and the eigenpairs of cov.

    ``cov`` may be a scalar (isotropic), a length-d vector (diagonal) or a
    d x d matrix.  The first two keep ``eigvecs = None`` and stay elementwise,
    so no d x d matrix is ever formed for them.  A matrix must be symmetric
    (``numpy.allclose`` with atol 1e-12) and positive semi-definite; for every
    form, eigenvalues in [-1e-10, 0) are rounding and are clipped to 0.  This
    constructor is the one place a covariance is validated and normalised.
    """

    def __init__(self, mean, cov):
        self.mean = np.atleast_1d(_finite(mean, "mean"))
        if self.mean.ndim != 1:
            raise ValueError("mean must be a scalar or vector")
        d = self.mean.size
        cov = _finite(cov, "covariance")
        if cov.ndim == 0:
            cov = np.full(d, float(cov))
        if cov.ndim == 1:
            if cov.size != d:
                raise ValueError(f"diagonal covariance length {cov.size} != dimension {d}")
            vals, vecs = cov, None
        elif cov.ndim == 2:
            if cov.shape != (d, d):
                raise ValueError(f"covariance shape {cov.shape} != ({d}, {d})")
            if not np.allclose(cov, cov.T, atol=1e-12):
                raise ValueError("covariance must be symmetric")
            vals, vecs = np.linalg.eigh(cov)
        else:
            raise ValueError("covariance must be a scalar, a diagonal vector or a matrix")
        if np.any(vals < -1e-10):
            raise ValueError("covariance must be positive semi-definite")
        self.eigvals = np.clip(vals, 0.0, None)
        self.eigvecs = vecs

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def cov(self) -> np.ndarray:
        """The covariance as a dense d x d matrix."""
        if self.eigvecs is None:
            return np.diag(self.eigvals)
        return (self.eigvecs * self.eigvals) @ self.eigvecs.T

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` draws as an (n, d) array, from one ``standard_normal((n, d))`` call.

        A diagonal covariance scales and shifts the draw in place.
        """
        z = rng.standard_normal((n, self.dim))
        if self.eigvecs is None:
            z *= np.sqrt(self.eigvals)
            z += self.mean
            return z
        return self.mean + (z * np.sqrt(self.eigvals)) @ self.eigvecs.T

    def mmse_per_dim(self, abar: float) -> float:
        """Per-dimension posterior MSE of x0 from sqrt(abar) x0 + sqrt(1-abar) eps.

        tr(Cov(x0 | x_t)) / d = (1/d) sum_i lam_i (1-abar) / (abar lam_i + 1-abar);
        equals (1 - abar) = 1/(1 + snr) for unit-variance white data.
        """
        lam = self.eigvals
        return float(np.mean(lam * (1.0 - abar) / (abar * lam + (1.0 - abar))))


class GaussianOracleDenoiser:
    """Exact conditional-mean noise predictor for Gaussian data N(mu0, Sigma0).

    Derivation (joint Gaussian conditioning): with x_t = sqrt(ab) x0
    + sqrt(1-ab) eps and x0 ~ N(mu0, Sigma0) independent of eps ~ N(0, I),
    the pair (eps, x_t) is jointly Gaussian with Cov(x_t) = ab Sigma0
    + (1-ab) I and Cov(eps, x_t) = sqrt(1-ab) I, so

        E[eps | x_t] = sqrt(1-ab) (ab Sigma0 + (1-ab) I)^{-1} (x_t - sqrt(ab) mu0).

    Plugging this into the one-shot recovery yields exactly E[x0 | x_t], the
    minimum-mean-square-error estimate of the clean signal.  The covariance is
    held as a :class:`GaussianSource`, eigendecomposed once, so each
    prediction is two small matrix products (elementwise when it is diagonal).
    """

    def __init__(self, mean, cov, schedule: Schedule):
        self.schedule = schedule
        self.source = GaussianSource(mean, cov)
        self.dim = self.source.dim

    def predict_eps(self, x_t: np.ndarray, t: int) -> np.ndarray:
        x_t = np.asarray(x_t, dtype=np.float64)
        if x_t.shape[-1] != self.dim:
            raise ValueError(f"trailing axis {x_t.shape[-1]} != data dimension {self.dim}")
        ab = self.schedule.alpha_bar_at(t)
        src = self.source
        denom = ab * src.eigvals + (1.0 - ab)  # eigenvalues of Cov(x_t), all > 0 for ab < 1
        centered = x_t - math.sqrt(ab) * src.mean
        if src.eigvecs is None:
            solved = centered / denom
        else:
            solved = ((centered @ src.eigvecs) / denom) @ src.eigvecs.T
        return math.sqrt(1.0 - ab) * solved


_TIME_FREQS = (1.0, 2.0, 4.0, 8.0)


def _time_features(t_frac: np.ndarray) -> np.ndarray:
    """Scalar t/T plus a 4-frequency sinusoidal embedding -> 9 features."""
    cols = [t_frac]
    for f in _TIME_FREQS:
        cols.append(np.sin(2.0 * math.pi * f * t_frac))
        cols.append(np.cos(2.0 * math.pi * f * t_frac))
    return np.stack(cols, axis=-1)


N_TIME_FEATURES = 1 + 2 * len(_TIME_FREQS)


class MlpDenoiser:
    """Small tanh MLP noise predictor over flattened signals.

    The network input is the noisy signal concatenated with time features for
    t/T; the output is the predicted noise of the same dimension.  ``dim`` and
    the ``hidden`` widths are read off ``params``, whose input layer must take
    ``dim + N_TIME_FEATURES`` values.  Parameters are immutable after training;
    prediction is deterministic.  The time features of the steps t = 0..T, T =
    ``t_total`` an integer, are computed once, and :func:`_check_steps` refuses others.
    """

    def __init__(self, t_total: int, params: _nn.Params):
        d_in, *hidden, self.dim = _nn.layer_sizes(params)
        self.hidden = tuple(hidden)
        if d_in != self.dim + N_TIME_FEATURES:
            raise ValueError(f"layer 0: the denoiser input layer takes {d_in} values, not "
                             f"dim + {N_TIME_FEATURES} = {self.dim + N_TIME_FEATURES}")
        _check_int(t_total, "t_total=")
        if t_total < 1:
            raise ValueError(f"t_total must be >= 1, got {t_total}")
        self.t_total = t_total
        self.params = params
        self._time_table = _time_features(np.arange(self.t_total + 1) / self.t_total)

    @classmethod
    def initialize(cls, dim: int, hidden: Sequence[int], t_total: int, rng: np.random.Generator):
        return cls(t_total, _nn.init_params([dim + N_TIME_FEATURES, *hidden, dim], rng))

    def _features(self, x: np.ndarray, t: int | np.ndarray) -> np.ndarray:
        """The rows of ``x`` beside the time features of step ``t``, or of one
        step per row, each checked once against [0, T]."""
        times = self._time_table[_check_steps(t, 0, self.t_total)]
        return np.concatenate([x, np.broadcast_to(times, (len(x), N_TIME_FEATURES))], axis=-1)

    def predict_eps(self, x_t: np.ndarray, t: int) -> np.ndarray:
        x_t = np.asarray(x_t, dtype=np.float64)
        if x_t.shape[-1] != self.dim:
            raise ValueError(f"trailing axis {x_t.shape[-1]} != model dimension {self.dim}")
        lead = x_t.shape[:-1]
        out, _ = _nn.forward(self.params, self._features(x_t.reshape(-1, self.dim), t))
        return out.reshape(*lead, self.dim)


class _TrainCounts:
    """Base of the training configs: their hidden widths, ``epochs`` and
    ``batch_size`` are integers (:func:`_check_int`), checked when built."""

    def __post_init__(self) -> None:
        for label, value in (*(("hidden width ", w) for w in self.hidden),
                             ("epochs=", self.epochs), ("batch_size=", self.batch_size)):
            _check_int(value, label)


@dataclass(frozen=True)
class MlpTrainConfig(_TrainCounts):
    hidden: tuple[int, ...] = (64, 64)
    lr: float = 0.05
    epochs: int = 40
    batch_size: int = 64
    lr_decay: float = 1.0  # multiplicative per-epoch factor


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch mean batch losses, a held-in final loss estimate, and the
    initialization-time gradient-check residual."""

    epoch_losses: list[float] = field(default_factory=list)
    final_loss: float = float("nan")
    grad_check_rel_err: float = float("nan")


def _denoiser_loss_and_grads(
    model: MlpDenoiser, params: _nn.Params, x0: np.ndarray, t_arr: np.ndarray, eps: np.ndarray,
    schedule: Schedule,
) -> tuple[float, _nn.Params]:
    ab = schedule.alpha_bar_at(t_arr)
    x_t = np.sqrt(ab)[:, None] * x0 + np.sqrt(1.0 - ab)[:, None] * eps
    feats = model._features(x_t, t_arr)
    out, cache = _nn.forward(params, feats)
    resid = out - eps
    loss = float(np.mean(resid**2))
    dout = 2.0 * resid / resid.size
    grads, _ = _nn.backward(params, cache, dout)
    return loss, grads


def train_mlp_denoiser(
    dataset: np.ndarray,
    schedule: Schedule,
    hyperparams: MlpTrainConfig,
    rng: np.random.Generator,
) -> tuple[MlpDenoiser, TrainReport]:
    """Fit the noise predictor by minibatch SGD on the denoising regression loss.

    The loss is E || eps - eps_hat(x_t, t) ||^2 with t drawn uniformly from
    1..T per sample and x_t formed by the forward corruption, and the update
    is :func:`lorid._nn.sgd_train`'s.  Backpropagation is implemented by hand;
    the report carries a central-finite-difference gradient check evaluated at
    initialization (before any update).
    """
    data = _finite(dataset, "training data")
    if data.ndim == 1:
        data = data[:, None]
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("dataset must be a nonempty (n, d) array")
    n, d = data.shape

    model = MlpDenoiser.initialize(d, hyperparams.hidden, schedule.T, rng)

    # Gradient check on a small fixed batch at the initial parameters.
    check_n = min(8, n)
    x0_chk = data[:check_n]
    t_chk = rng.integers(1, schedule.T + 1, size=check_n)
    eps_chk = rng.standard_normal((check_n, d))

    def chk_loss(p: _nn.Params) -> float:
        loss, _ = _denoiser_loss_and_grads(model, p, x0_chk, t_chk, eps_chk, schedule)
        return loss

    _, chk_grads = _denoiser_loss_and_grads(model, model.params, x0_chk, t_chk, eps_chk, schedule)
    grad_err = _nn.gradient_check(chk_loss, model.params, chk_grads, rng)

    params = model.params

    def batch_loss(idx: np.ndarray) -> tuple[float, _nn.Params]:
        t_arr = rng.integers(1, schedule.T + 1, size=len(idx))
        eps = rng.standard_normal((len(idx), d))
        return _denoiser_loss_and_grads(model, params, data[idx], t_arr, eps, schedule)

    epoch_losses = _nn.sgd_train(
        params, n, hyperparams.batch_size, hyperparams.epochs, hyperparams.lr,
        hyperparams.lr_decay, rng, batch_loss
    )
    trained = MlpDenoiser(schedule.T, params)
    final = epoch_losses[-1] if epoch_losses else _denoiser_loss_and_grads(
        model, params, x0_chk, t_chk, eps_chk, schedule
    )[0]
    report = TrainReport(epoch_losses=epoch_losses, final_loss=final, grad_check_rel_err=grad_err)
    return trained, report
