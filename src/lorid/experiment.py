"""The striped-task experiment that ``attack-eval``, ``calibrate``, criterion 8
and demo 05 run: train, attack, purify and score end to end.

``fit_basis`` and ``pgd`` are looked up on their modules at each call, so a
wrapper set on ``tucker.fit_basis`` or ``attacks.pgd`` sees these calls too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import attacks, tucker
from ._nn import in_two_processes
from .attacks import (AttackBudget, ClassifierTrainConfig, ToyClassifier, evaluate,
                      purified_accuracy, train_classifier)
from .diffusion import MlpDenoiser, MlpTrainConfig, Schedule, train_mlp_denoiser
from .io_formats import ConfigError, RunConfig, gen_striped_images
from .purify import LoridConfig

__all__ = ["ToyArtifacts", "fit_config_basis", "toy_task_artifacts", "toy_budget",
           "run_attack_eval", "run_calibration"]


def fit_config_basis(images: np.ndarray, cfg: RunConfig) -> tucker.TuckerBasis:
    """The basis of ``cfg`` (its patch and rank policy) fitted on (N, H, W, C) images."""
    _, height, width, channels = images.shape
    layout = tucker.TensorizationLayout(height=height, width=width, channels=channels,
                                        patch=cfg.patch)
    return tucker.fit_basis(images, layout, cfg.eta if cfg.eta is not None else cfg.ranks)


@dataclass
class ToyArtifacts:
    """Everything the end-to-end striped-image demonstrations need."""

    schedule: Schedule
    basis: tucker.TuckerBasis
    denoiser: MlpDenoiser
    clf: ToyClassifier
    test_images: np.ndarray
    test_labels: np.ndarray


def toy_task_artifacts(cfg: RunConfig) -> ToyArtifacts:
    """Generate striped data (512 training and 200 test images), fit the basis,
    train the denoiser (60 epochs) and the classifier (150 epochs).

    Deterministic in ``cfg.seed``; the four stages consume fixed child seeds.
    The two trainings share only the training set, so the classifier trains in
    a forked child process while the denoiser trains here (see
    :func:`lorid._nn.in_two_processes`); the results are those of one training
    after the other.
    """
    train_images, train_labels = gen_striped_images(512, seed=cfg.seed)
    test_images, test_labels = gen_striped_images(200, seed=cfg.seed + 1)
    basis = fit_config_basis(train_images, cfg)
    flat_train = train_images.reshape(train_images.shape[0], -1)

    def denoiser() -> MlpDenoiser:
        return train_mlp_denoiser(flat_train, cfg.schedule,
                                  MlpTrainConfig(hidden=(64, 64), epochs=60),
                                  np.random.default_rng(cfg.seed + 2))[0]

    def classifier() -> ToyClassifier:
        return train_classifier(flat_train, train_labels,
                                ClassifierTrainConfig(hidden=(32,), epochs=150),
                                np.random.default_rng(cfg.seed + 3))

    trained_denoiser, clf = in_two_processes(denoiser, classifier)
    return ToyArtifacts(schedule=cfg.schedule, basis=basis, denoiser=trained_denoiser, clf=clf,
                        test_images=test_images, test_labels=test_labels)


def toy_budget(eps: float = 0.35, steps: int = 30) -> AttackBudget:
    """Stock PGD budget for the striped task (sign steps, unit-box clamp)."""
    return AttackBudget(norm="linf", epsilon=eps, steps=steps, clip=(-1.0, 1.0))


def run_attack_eval(
    cfg: RunConfig,
    budget: AttackBudget,
    trials: int = 3,
    artifacts: ToyArtifacts | None = None,
) -> dict[str, float]:
    """Accuracy ladder of the striped task under PGD, per the config's purifier."""
    art = artifacts or toy_task_artifacts(cfg)
    return evaluate(
        art.clf, art.denoiser, art.schedule,
        replace(cfg.purifier, basis=art.basis if cfg.use_tucker else None),
        art.test_images, art.test_labels, budget, trials, np.random.default_rng(cfg.seed + 4)
    )


def run_calibration(
    cfg: RunConfig,
    t_grid: list[int],
    L_grid: list[int],
    budget: AttackBudget,
    trials: int = 3,
    artifacts: ToyArtifacts | None = None,
) -> tuple[list[tuple], tuple[int, int]]:
    """Clean/robust accuracy over a (t, L) grid, plus the balanced pick.

    Returns (rows, (t, L)) where rows are (t, L, clean_acc, robust_acc) and
    the recommendation maximizes robust accuracy subject to clean accuracy
    within 3 points of the grid's best clean accuracy (ties: smaller t, then
    smaller L).  Every grid point is checked as a config before any model is
    trained.

    Every grid point purifies from the draws of ``default_rng(seed + 6)``
    (common random numbers), so each row is what that point gives alone on
    such a generator.  The points run in lockstep through one
    :func:`lorid.attacks.purified_accuracy` call, which makes each draw once
    for all of them.  The grid is split where the larger half's summed
    ``LoridConfig.draws`` (an ancestral purify's denoiser calls) is least, and
    the second half runs in a forked child process on its own generator of
    that seed (see :func:`lorid._nn.in_two_processes`); one point is not split.
    """
    if not t_grid or not L_grid:
        raise ConfigError("calibration grids must be nonempty")
    grid = [replace(cfg, t=t, L=L) for t in t_grid for L in L_grid]
    art = artifacts or toy_task_artifacts(cfg)
    adv_images = attacks.pgd(
        art.clf, art.test_images, art.test_labels, budget, np.random.default_rng(cfg.seed + 5)
    )
    configs = [replace(run_cfg.purifier, basis=art.basis if run_cfg.use_tucker else None)
               for run_cfg in grid]

    def accuracies(part: list[LoridConfig]) -> list[list[float]]:
        return purified_accuracy(
            art.clf, art.denoiser, art.schedule, part, [art.test_images, adv_images],
            art.test_labels, trials, np.random.default_rng(cfg.seed + 6),
        )

    if len(configs) == 1:
        accs = accuracies(configs)
    else:
        draws = [config.draws for config in configs]
        half = min(range(1, len(draws)), key=lambda i: max(sum(draws[:i]), sum(draws[i:])))
        here, there = in_two_processes(lambda: accuracies(configs[:half]),
                                       lambda: accuracies(configs[half:]))
        accs = here + there
    rows = [(run_cfg.t, run_cfg.L, clean, robust)
            for run_cfg, (clean, robust) in zip(grid, accs)]

    best_clean = max(r[2] for r in rows)
    eligible = [r for r in rows if r[2] >= best_clean - 0.03]
    pick = max(eligible, key=lambda r: (r[3], -r[0], -r[1]))
    return rows, (pick[0], pick[1])
