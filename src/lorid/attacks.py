"""Small white-box-on-the-classifier adversaries and the accuracy scoreboard.

A tiny softmax MLP stands in for a real classifier; projected-gradient (PGD)
attacks perturb inputs against it under an explicit norm budget.  Attacks see only the classifier: gradients never flow through
the purifier, which enters purely as a preprocessing defense at evaluation
time.  ``evaluate`` scores one attack against a ladder of defenses — nothing,
projection only, one deep diffusion loop, several short loops, and the full
projected-loop purifier — so the defense variants can be compared on equal
footing.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import _nn
from ._nn import one_blas_thread
from .diffusion import Denoiser, Schedule
from .purify import LoridConfig, lorid_purify
from .tucker import tf_apply

__all__ = [
    "ToyClassifier",
    "AttackBudget",
    "ClassifierTrainConfig",
    "train_classifier",
    "classifier_grad_check",
    "pgd",
    "purified_accuracy",
    "evaluate",
    "format_accuracy_table",
    "TABLE_KEYS",
]

logger = logging.getLogger(__name__)

TABLE_KEYS = ("standard", "attacked", "tf_only", "single", "loop_only", "lorid")


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(eq=False)
class ToyClassifier:
    """Softmax MLP over flat feature vectors (tanh hidden layers)."""

    params: _nn.Params
    input_dim: int
    n_classes: int

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ValueError("classifier needs at least 2 classes")
        if self.params[0][0].shape[0] != self.input_dim:
            raise ValueError("first-layer fan-in does not match input_dim")
        if self.params[-1][0].shape[1] != self.n_classes:
            raise ValueError("last-layer fan-out does not match n_classes")
        for w, b in self.params:
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("non-finite classifier parameters")

    def logits(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64).reshape(-1, self.input_dim)
        out, _ = _nn.forward(self.params, x)
        return out

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return _softmax(self.logits(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(x), axis=-1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        y = np.asarray(y)
        return float(np.mean(self.predict(x) == y))

    def input_grad(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-sample gradient of the cross-entropy loss with respect to x."""
        x = np.asarray(x, dtype=np.float64).reshape(-1, self.input_dim)
        y = np.asarray(y, dtype=np.int64)
        out, cache = _nn.forward(self.params, x)
        p = _softmax(out)
        dlogits = p.copy()
        dlogits[np.arange(y.size), y] -= 1.0
        _, dx = _nn.backward(self.params, cache, dlogits)
        return dx


@dataclass(frozen=True)
class AttackBudget:
    """Norm-ball budget for a gradient attack.

    ``norm`` is "linf" or "l2"; ``epsilon`` the ball radius (0 is allowed as a
    degenerate no-op probe); ``clip`` optionally clamps perturbed inputs to
    the data's valid range.  ``epsilon`` and ``step_size`` must be finite.
    """

    norm: str
    epsilon: float
    steps: int = 1
    step_size: float | None = None
    clip: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.norm not in ("linf", "l2"):
            raise ValueError(f"norm must be 'linf' or 'l2', got {self.norm!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and nonnegative, got {self.epsilon}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.step_size is not None and not (
            math.isfinite(self.step_size) and self.step_size > 0
        ):
            raise ValueError(f"step_size must be finite and positive, got {self.step_size}")
        if self.clip is not None and not self.clip[0] < self.clip[1]:
            raise ValueError(f"clip box {self.clip} must be increasing")

    @property
    def effective_step(self) -> float:
        if self.step_size is not None:
            return self.step_size
        return 2.5 * self.epsilon / self.steps if self.steps > 1 else self.epsilon


@dataclass(frozen=True)
class ClassifierTrainConfig:
    hidden: tuple[int, ...] = (32,)
    lr: float = 0.05
    epochs: int = 150
    batch_size: int = 32


def _ce_loss_and_grads(
    params: _nn.Params, x: np.ndarray, y: np.ndarray
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    out, cache = _nn.forward(params, x)
    p = _softmax(out)
    n = x.shape[0]
    loss = float(-np.mean(np.log(p[np.arange(n), y])))  # inf once a label's p underflows
    dlogits = p.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    grads, _ = _nn.backward(params, cache, dlogits)
    return loss, grads


def train_classifier(
    dataset: np.ndarray,
    labels: np.ndarray,
    hyperparams: ClassifierTrainConfig,
    rng: np.random.Generator,
) -> ToyClassifier:
    """Cross-entropy training of the softmax MLP on flat feature vectors, at a
    constant rate, by :func:`lorid._nn.sgd_train`."""
    x = np.asarray(dataset, dtype=np.float64)
    x = x.reshape(x.shape[0], -1)
    if not np.all(np.isfinite(x)):
        raise ValueError("training data holds non-finite values")
    y = np.asarray(labels)
    if not (np.all(np.isfinite(y)) and np.all(y == np.round(y))):
        raise ValueError("labels must be finite integers")
    y = y.astype(np.int64)
    if x.shape[0] != y.size:
        raise ValueError(f"{x.shape[0]} samples but {y.size} labels")
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("need at least 2 classes in the training labels")
    if classes.min() < 0 or classes.max() >= classes.size:
        raise ValueError("labels must be 0..K-1")

    d = x.shape[1]
    params = _nn.init_params([d, *hyperparams.hidden, int(classes.size)], rng)
    _nn.sgd_train(
        params, x.shape[0], hyperparams.batch_size, hyperparams.epochs, hyperparams.lr, 1.0, rng,
        lambda idx: _ce_loss_and_grads(params, x[idx], y[idx])
    )
    return ToyClassifier(params=params, input_dim=d, n_classes=int(classes.size))


def classifier_grad_check(
    clf: ToyClassifier, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
) -> float:
    """Max relative error of the analytic parameter gradient vs central differences."""
    x = np.asarray(x, dtype=np.float64).reshape(-1, clf.input_dim)
    y = np.asarray(y, dtype=np.int64)
    _, grads = _ce_loss_and_grads(clf.params, x, y)
    return _nn.gradient_check(
        lambda p: _ce_loss_and_grads(p, x, y)[0], clf.params, grads, rng
    )


def _attack_steps(
    clf: ToyClassifier,
    x0: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    budget: AttackBudget,
) -> np.ndarray:
    step = budget.effective_step
    flagged = False
    for _ in range(budget.steps):
        g = clf.input_grad(x, y)
        dead = np.all(g == 0.0, axis=-1)
        if np.any(dead) and not flagged:
            logger.warning(
                "zero input gradient for %d sample(s); leaving them unchanged", int(dead.sum())
            )
            flagged = True
        if budget.norm == "linf":
            move = np.sign(g)
        else:
            norms = np.linalg.norm(g, axis=-1, keepdims=True)
            move = np.divide(g, norms, out=np.zeros_like(g), where=norms > 0)
        x = x + step * move
        delta = x - x0
        if budget.norm == "linf":
            delta = np.clip(delta, -budget.epsilon, budget.epsilon)
        else:
            norms = np.linalg.norm(delta, axis=-1, keepdims=True)
            scale = np.minimum(1.0, budget.epsilon / np.maximum(norms, 1e-300))
            delta = delta * scale
        x = x0 + delta
        if budget.clip is not None:
            x = np.clip(x, budget.clip[0], budget.clip[1])
    return x


def pgd(
    clf: ToyClassifier,
    x: np.ndarray,
    y: np.ndarray,
    budget: AttackBudget,
    rng: np.random.Generator,
) -> np.ndarray:
    """Projected gradient descent from a random start inside the budget ball."""
    orig_shape = np.asarray(x).shape
    x0 = np.asarray(x, dtype=np.float64).reshape(-1, clf.input_dim)
    if budget.epsilon == 0.0:
        return x0.copy().reshape(orig_shape)
    if budget.norm == "linf":
        start = x0 + rng.uniform(-budget.epsilon, budget.epsilon, size=x0.shape)
    else:
        direction = rng.standard_normal(x0.shape)
        direction /= np.maximum(np.linalg.norm(direction, axis=-1, keepdims=True), 1e-300)
        radius = budget.epsilon * rng.uniform(0.0, 1.0, size=(x0.shape[0], 1)) ** (1.0 / x0.shape[1])
        start = x0 + radius * direction
    if budget.clip is not None:
        start = np.clip(start, budget.clip[0], budget.clip[1])
    out = _attack_steps(clf, x0, start, np.asarray(y, dtype=np.int64), budget)
    return out.reshape(orig_shape)


def purified_accuracy(
    clf: ToyClassifier,
    denoiser: Denoiser,
    schedule: Schedule,
    config: LoridConfig,
    inputs: Sequence[np.ndarray],
    labels: np.ndarray,
    trials: int,
    rng: np.random.Generator,
) -> list[float]:
    """Accuracy of the classifier on each of ``inputs`` after purification,
    averaged over ``trials`` rounds.

    Each round purifies every input in turn, each with the next draws of
    ``rng``, so every input of a round sees its own noise.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    accs = [[] for _ in inputs]
    for _ in range(trials):
        for x_in, input_accs in zip(inputs, accs):
            purified, _ = lorid_purify(x_in, denoiser, schedule, config, rng)
            input_accs.append(clf.accuracy(purified, labels))
    return [float(np.mean(a)) for a in accs]


def evaluate(
    clf: ToyClassifier,
    denoiser: Denoiser,
    schedule: Schedule,
    config: LoridConfig,
    dataset: np.ndarray,
    labels: np.ndarray,
    budget: AttackBudget,
    trials: int,
    rng: np.random.Generator,
) -> dict[str, float]:
    """Accuracy of the classifier under attack, across the defense ladder.

    Returns a table with keys ``standard`` (clean inputs), ``attacked`` (PGD,
    no defense), and the PGD accuracy behind each defense variant:
    ``tf_only`` (projection alone; identity when the config carries no basis),
    ``single`` (one loop at full depth, no projection), ``loop_only`` (the
    configured loop count, no projection), and ``lorid`` (the full configured
    purifier).  Stochastic defenses are averaged over ``trials`` independent
    purification rounds by :func:`purified_accuracy`.  BLAS runs on one thread
    throughout (see :func:`lorid._nn.one_blas_thread`).
    """
    y = np.asarray(labels, dtype=np.int64)
    images = np.asarray(dataset, dtype=np.float64)
    flat = images.reshape(-1, clf.input_dim)
    if flat.shape[0] != y.size:
        raise ValueError(f"{flat.shape[0]} samples but {y.size} labels")

    def averaged(run_config: LoridConfig, x_in: np.ndarray) -> float:
        (acc,) = purified_accuracy(clf, denoiser, schedule, run_config, [x_in], y, trials, rng)
        return acc

    with one_blas_thread():
        table = {"standard": clf.accuracy(flat, y)}
        adv_flat = pgd(clf, flat, y, budget, rng)
        table["attacked"] = clf.accuracy(adv_flat, y)

        basis = config.basis
        if basis is not None:
            table["tf_only"] = clf.accuracy(tf_apply(adv_flat.reshape(images.shape), basis), y)
        else:
            table["tf_only"] = table["attacked"]

        loop_cfg = replace(config, basis=None)
        table["single"] = averaged(replace(loop_cfg, L=1), adv_flat)
        table["loop_only"] = averaged(loop_cfg, adv_flat)
        adv_in = adv_flat if basis is None else adv_flat.reshape(images.shape)
        table["lorid"] = averaged(config, adv_in)
    return table


def format_accuracy_table(table: dict[str, float]) -> str:
    """Aligned-text rendering of an :func:`evaluate` table."""
    width = max(len(k) for k in TABLE_KEYS)
    lines = [f"{key.ljust(width)}  {table[key]:7.4f}" for key in TABLE_KEYS if key in table]
    return "\n".join(lines)
