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
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import _nn
from .diffusion import Denoiser, Schedule, _TrainCounts, _check_int, _finite
# lorid_purify is not called here; the benchmark's tracer wraps it under this
# module's name.
from .purify import LoridConfig, lorid_purify, purify_in_lockstep
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


def _class_labels(y: np.ndarray, samples: int, n_classes: int) -> np.ndarray:
    """The label rule: ``y`` as an int64 vector of one integer class in
    [0, n_classes) for each of ``samples`` samples, else ValueError."""
    y = np.asarray(y).reshape(-1)
    if y.size != samples:
        raise ValueError(f"{samples} samples but {y.size} labels")
    if not np.all((y == np.round(y)) & (y >= 0) & (y < n_classes)):
        raise ValueError(f"labels must be finite integers in [0, {n_classes})")
    return y.astype(np.int64)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(eq=False)
class ToyClassifier:
    """Softmax MLP over flat feature vectors (tanh hidden layers).

    ``input_dim`` and ``n_classes`` are read off ``params`` at construction.
    """

    params: _nn.Params
    input_dim: int = field(init=False)
    n_classes: int = field(init=False)

    def __post_init__(self) -> None:
        self.input_dim, *_, self.n_classes = _nn.layer_sizes(self.params)
        if self.n_classes < 2:
            raise ValueError("classifier needs at least 2 classes")

    def logits(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64).reshape(-1, self.input_dim)
        out, _ = _nn.forward(self.params, x)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(x), axis=-1)

    def _labels_for(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``y`` as an int64 vector of one class in [0, n_classes) per sample of
        ``x``, by :func:`_class_labels`.  An ``x`` that is not a whole number of
        samples raises ValueError too."""
        size = np.size(x)
        if size % self.input_dim:
            raise ValueError(f"{size} values are not a whole number of "
                             f"{self.input_dim}-value samples")
        return _class_labels(y, size // self.input_dim, self.n_classes)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        y = self._labels_for(x, y)
        return float(np.mean(self.predict(x) == y))

    def input_grad(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-sample gradient of the cross-entropy loss with respect to x."""
        y = self._labels_for(x, y)
        x = np.asarray(x, dtype=np.float64).reshape(-1, self.input_dim)
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
    the data's valid range.  ``epsilon`` and ``step_size`` are finite, ``steps`` an int.
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
        _check_int(self.steps, "steps=")
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
class ClassifierTrainConfig(_TrainCounts):
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
    x = _finite(dataset, "training data")
    x = x.reshape(x.shape[0], -1)
    # n samples hold at most n classes.
    y = _class_labels(labels, x.shape[0], x.shape[0])
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("need at least 2 classes in the training labels")
    if classes.max() >= classes.size:
        raise ValueError("labels must be 0..K-1")

    d = x.shape[1]
    params = _nn.init_params([d, *hyperparams.hidden, int(classes.size)], rng)
    _nn.sgd_train(
        params, x.shape[0], hyperparams.batch_size, hyperparams.epochs, hyperparams.lr, 1.0, rng,
        lambda idx: _ce_loss_and_grads(params, x[idx], y[idx])
    )
    return ToyClassifier(params)


def classifier_grad_check(
    clf: ToyClassifier, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
) -> float:
    """Max relative error of the analytic parameter gradient vs central differences."""
    y = clf._labels_for(x, y)
    x = np.asarray(x, dtype=np.float64).reshape(-1, clf.input_dim)
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
    """Projected gradient descent from a random start inside the budget ball.
    Labels that break :meth:`ToyClassifier._labels_for` raise ValueError
    before any draw."""
    y = clf._labels_for(x, y)
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
    out = _attack_steps(clf, x0, start, y, budget)
    return out.reshape(orig_shape)


def purified_accuracy(
    clf: ToyClassifier,
    denoiser: Denoiser,
    schedule: Schedule,
    configs: Sequence[LoridConfig],
    inputs: Sequence[np.ndarray],
    labels: np.ndarray,
    trials: int,
    rng: np.random.Generator,
) -> list[list[float]]:
    """Per config, the accuracy of the classifier on each of ``inputs`` after
    purification under that config, averaged over ``trials`` rounds.

    Under each config, each round purifies every input in turn, each with the
    next draws of ``rng``, so every input of a round sees its own noise.  The
    configs read the same draws (common random numbers): by
    :func:`lorid.purify.purify_in_lockstep`, each draw is made once for every
    config still purifying, so a config's accuracies are those it gives alone
    on a generator in ``rng``'s state, and ``rng`` ends after the longest
    config's draws.  No config, fewer than one trial, and labels that break
    :meth:`ToyClassifier._labels_for` for an input raise ValueError before
    any draw.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for x_in in inputs:
        clf._labels_for(x_in, labels)
    per_config = purify_in_lockstep(
        list(inputs) * trials, denoiser, schedule, configs, rng,
        lambda purified: clf.accuracy(purified, labels))
    return [[float(np.mean(accs[i::len(inputs)])) for i in range(len(inputs))]
            for accs in per_config]


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
    purification rounds by :func:`purified_accuracy`, one defense after the
    other on ``rng``.
    """
    images = np.asarray(dataset, dtype=np.float64)
    y = clf._labels_for(images, labels)
    table = {"standard": clf.accuracy(images, y)}
    adv = pgd(clf, images, y, budget, rng)
    table["attacked"] = clf.accuracy(adv, y)
    table["tf_only"] = (table["attacked"] if config.basis is None
                        else clf.accuracy(tf_apply(adv, config.basis), y))
    loop_cfg = replace(config, basis=None)
    for key, defense in (("single", replace(loop_cfg, L=1)), ("loop_only", loop_cfg),
                         ("lorid", config)):
        ((table[key],),) = purified_accuracy(clf, denoiser, schedule, [defense], [adv], y,
                                             trials, rng)
    return table


def format_accuracy_table(table: dict[str, float]) -> str:
    """Aligned-text rendering of an :func:`evaluate` table."""
    width = max(len(k) for k in TABLE_KEYS)
    lines = [f"{key.ljust(width)}  {table[key]:7.4f}" for key in TABLE_KEYS if key in table]
    return "\n".join(lines)
