"""Command-line front end for the laboratory.

Eight subcommands: ``gen-data``, ``train-denoiser``, ``train-classifier``,
``purify``, ``curves``, ``verify``, ``attack-eval``, ``calibrate``.  Every
command is deterministic under a fixed ``--seed`` (which overrides the config
file's seed where both exist).  Exit codes: 0 = success/pass, 1 = a numerical
check failed (margins printed), 2 = usage or input error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .analysis import (
    BoundSetup,
    BoundViolation,
    effective_snr,
    kl_gaussian_curve,
    kl_quadrature_forward,
    loop_bound_curve,
    mmse_binary,
    mmse_gaussian,
    quadrature_grid,
    verify_bounds,
)
from .attacks import (
    AttackBudget,
    ClassifierTrainConfig,
    ToyClassifier,
    evaluate,
    format_accuracy_table,
    pgd,
    purified_accuracy,
    train_classifier,
)
from .diffusion import (
    GaussianOracleDenoiser,
    MlpDenoiser,
    MlpTrainConfig,
    Schedule,
    train_mlp_denoiser,
)
from .io_formats import (
    ConfigError,
    RunConfig,
    TensorFormatError,
    gen_gaussian_dataset,
    gen_striped_images,
    gen_two_gaussian_classes,
    gen_two_point_dataset,
    parse_config,
    read_basis,
    read_mlp,
    read_tensor,
    write_basis,
    write_classifier,
    write_csv,
    write_mlp,
    write_tensor,
)
from ._nn import in_two_processes, one_blas_thread
from .purify import LoridConfig, lorid_purify
from .tucker import TensorizationLayout, TuckerBasis, fit_basis

__all__ = [
    "main",
    "CheckFailure",
    "lorid_config_from",
    "ToyArtifacts",
    "toy_task_artifacts",
    "toy_budget",
    "run_attack_eval",
    "run_calibration",
]


class CheckFailure(Exception):
    """A numerical verification failed; message carries the margin report."""


def lorid_config_from(cfg: RunConfig, basis: TuckerBasis | None) -> LoridConfig:
    if cfg.use_tucker and basis is None:
        raise ConfigError("use_tucker=true but no fitted basis supplied")
    return LoridConfig(
        t=cfg.t,
        L=cfg.L,
        basis=basis if cfg.use_tucker else None,
        sampler=cfg.sampler,
        skip_k=cfg.skip_k,
    )


def _load_config(path: str, seed_override: int | None) -> RunConfig:
    with open(path) as fh:
        cfg = parse_config(fh.read())
    if seed_override is not None:
        cfg = replace(cfg, seed=seed_override)
    return cfg


def _fit_basis(images: np.ndarray, cfg: RunConfig) -> TuckerBasis:
    """The basis of ``cfg`` (its patch and rank policy) fitted on (N, H, W, C) images."""
    if images.ndim != 4:
        raise ConfigError("--fit-basis-from needs an (N, H, W, C) tensor, "
                          f"got shape {images.shape}")
    _, height, width, channels = images.shape
    layout = TensorizationLayout(height=height, width=width, channels=channels, patch=cfg.patch)
    return fit_basis(images, layout, cfg.eta if cfg.eta is not None else cfg.ranks)


# ---------------------------------------------------------------------------
# Shared toy pipeline (striped-image task) — also driven by the test suite.
# ---------------------------------------------------------------------------


@dataclass
class ToyArtifacts:
    """Everything the end-to-end striped-image demonstrations need."""

    schedule: Schedule
    basis: TuckerBasis
    denoiser: MlpDenoiser
    clf: ToyClassifier
    test_images: np.ndarray
    test_labels: np.ndarray


def toy_task_artifacts(cfg: RunConfig) -> ToyArtifacts:
    """Generate striped data (512 training and 200 test images), fit the basis,
    train the denoiser (60 epochs) and the classifier (150 epochs).

    Deterministic in ``cfg.seed``; the four stages consume fixed child seeds.
    The two trainings share only the training set, so the classifier trains in
    a forked child process while the denoiser trains here, each with BLAS held
    to one thread (see :func:`lorid._nn.in_two_processes`); the results are
    those of one training after the other.
    """
    train_images, train_labels = gen_striped_images(512, seed=cfg.seed)
    test_images, test_labels = gen_striped_images(200, seed=cfg.seed + 1)
    basis = _fit_basis(train_images, cfg)
    flat_train = train_images.reshape(train_images.shape[0], -1)

    def denoiser() -> MlpDenoiser:
        return train_mlp_denoiser(
            flat_train,
            cfg.schedule,
            MlpTrainConfig(hidden=(64, 64), epochs=60),
            np.random.default_rng(cfg.seed + 2),
        )[0]

    def classifier() -> ToyClassifier:
        return train_classifier(
            flat_train,
            train_labels,
            ClassifierTrainConfig(hidden=(32,), epochs=150),
            np.random.default_rng(cfg.seed + 3),
        )

    with one_blas_thread():
        trained_denoiser, clf = in_two_processes(denoiser, classifier)
    return ToyArtifacts(
        schedule=cfg.schedule,
        basis=basis,
        denoiser=trained_denoiser,
        clf=clf,
        test_images=test_images,
        test_labels=test_labels,
    )


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
        art.clf, art.denoiser, art.schedule, lorid_config_from(cfg, art.basis),
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
    trained.  BLAS runs on one thread throughout (see
    :func:`lorid._nn.one_blas_thread`).
    """
    if not t_grid or not L_grid:
        raise ConfigError("calibration grids must be nonempty")
    grid = [replace(cfg, t=int(t), L=int(L)) for t in t_grid for L in L_grid]
    art = artifacts or toy_task_artifacts(cfg)
    flat_test = art.test_images.reshape(art.test_images.shape[0], -1)
    rows = []
    with one_blas_thread():
        adv_flat = pgd(
            art.clf, flat_test, art.test_labels, budget, np.random.default_rng(cfg.seed + 5)
        )
        adv_images = adv_flat.reshape(art.test_images.shape)
        for run_cfg in grid:
            clean, robust = purified_accuracy(
                art.clf, art.denoiser, art.schedule, lorid_config_from(run_cfg, art.basis),
                [art.test_images, adv_images], art.test_labels, trials,
                np.random.default_rng(cfg.seed + 6),
            )
            rows.append((run_cfg.t, run_cfg.L, clean, robust))

    best_clean = max(r[2] for r in rows)
    eligible = [r for r in rows if r[2] >= best_clean - 0.03]
    pick = max(eligible, key=lambda r: (r[3], -r[0], -r[1]))
    return rows, (pick[0], pick[1])


# ---------------------------------------------------------------------------
# Subcommand implementations.
# ---------------------------------------------------------------------------


def _cmd_gen_data(args) -> int:
    if args.task in ("two-gaussians", "striped") and args.labels_out is None:
        raise ConfigError(f"{args.task} task requires --labels-out")
    if args.task == "gaussian":
        data = gen_gaussian_dataset(d=args.d, n=args.n, seed=args.seed)
        write_tensor(args.out, data)
    elif args.task == "two-gaussians":
        x, y = gen_two_gaussian_classes(n=args.n, seed=args.seed, d=args.d)
        write_tensor(args.out, x)
        write_tensor(args.labels_out, y.astype(float))
    elif args.task == "two-point":
        write_tensor(args.out, gen_two_point_dataset(n=args.n, seed=args.seed))
    else:  # striped
        images, y = gen_striped_images(n=args.n, seed=args.seed)
        write_tensor(args.out, images)
        write_tensor(args.labels_out, y.astype(float))
    print(f"wrote {args.task} dataset (n={args.n}) to {args.out}")
    return 0


def _read_rows(path: str) -> np.ndarray:
    """The ``--data`` tensor at ``path`` as one flat row per sample; refused
    when it holds no sample."""
    data = read_tensor(path)
    if data.ndim == 0 or data.size == 0:
        raise ConfigError(f"--data needs at least one sample, got shape {data.shape}")
    return data.reshape(data.shape[0], -1)


def _cmd_train_denoiser(args) -> int:
    cfg = _load_config(args.config, args.seed)
    data = _read_rows(args.data)
    train_cfg = MlpTrainConfig(hidden=tuple(args.hidden), epochs=args.epochs, lr=args.lr)
    denoiser, report = train_mlp_denoiser(
        data, cfg.schedule, train_cfg, np.random.default_rng(cfg.seed)
    )
    write_mlp(args.out, denoiser)
    print(
        f"trained denoiser on {data.shape[0]}x{data.shape[1]} data: "
        f"final loss {report.final_loss:.6f}, grad check {report.grad_check_rel_err:.2e}"
    )
    return 0


def _cmd_train_classifier(args) -> int:
    data = _read_rows(args.data)
    labels = read_tensor(args.labels)
    clf = train_classifier(
        data,
        labels,
        ClassifierTrainConfig(hidden=tuple(args.hidden), epochs=args.epochs, lr=args.lr),
        np.random.default_rng(args.seed),
    )
    write_classifier(args.out, clf)
    acc = clf.accuracy(data, labels)
    print(f"trained classifier: clean accuracy {acc:.4f}")
    return 0


def _cmd_purify(args) -> int:
    cfg = _load_config(args.config, args.seed)
    denoiser = read_mlp(args.denoiser)
    if denoiser.t_total != cfg.T:
        raise ConfigError(
            f"denoiser was trained for T={denoiser.t_total} but the config has T={cfg.T}"
        )
    x = read_tensor(args.input)
    basis = None
    if cfg.use_tucker:
        if args.basis is not None:
            basis = read_basis(args.basis)
        elif args.fit_basis_from is not None:
            basis = _fit_basis(read_tensor(args.fit_basis_from), cfg)
            if args.save_basis is not None:
                write_basis(args.save_basis, basis)
        else:
            raise ConfigError("use_tucker=true needs --basis or --fit-basis-from")
    purifier_cfg = lorid_config_from(cfg, basis)
    clean_ref = read_tensor(args.clean_ref) if args.clean_ref else None
    out, trace = lorid_purify(
        x, denoiser, cfg.schedule, purifier_cfg, np.random.default_rng(cfg.seed), clean_ref
    )
    write_tensor(args.out, out)
    msg = f"purified tensor of shape {tuple(x.shape)} with t={cfg.t}, L={cfg.L}"
    if trace.distances:
        msg += "; distance to reference per stage: " + ", ".join(
            f"{d:.4f}" for d in trace.distances
        )
    print(msg)
    return 0


def _cmd_curves(args) -> int:
    cfg = _load_config(args.config, args.seed)
    if args.kind == "fig2":
        rows = []
        for t_eff in args.effective_t:
            for pt in loop_bound_curve(cfg.schedule, t_eff, range(1, args.l_max + 1)):
                rows.append((t_eff, pt.L, pt.t_over_L, pt.value))
        write_csv(args.out, ("effective_t", "L", "t_over_L", "value"), rows)
    elif args.kind == "mmse":
        rows = [(s, mmse_gaussian(s), mmse_binary(s)) for s in args.snr_grid]
        write_csv(args.out, ("snr", "mmse_gaussian", "mmse_binary"), rows)
    else:  # snr
        rows = [(t, effective_snr(cfg.schedule, t)) for t in range(1, cfg.T + 1)]
        write_csv(args.out, ("t", "snr"), rows)
    print(f"wrote {args.kind} curve to {args.out}")
    return 0


_VERIFY_T_SET = (50, 200, 500, 800)
# Depth of theorem 4's empirical looped-against-single-pass check.
_THEOREM_4_T = 400
# The fixed depths each theorem checks; a shorter schedule is refused before any output.
_VERIFY_DEPTHS = {"2": _VERIFY_T_SET, "3": _VERIFY_T_SET, "4": (_THEOREM_4_T,),
                  "5": _VERIFY_T_SET, "cor1": _VERIFY_T_SET}
# Monte Carlo trials per theorem when --trials is not given (theorem 1 takes --pairs).
_VERIFY_TRIALS = {"2": 100_000, "3": 10_000, "4": 10_000, "5": 1_000, "cor1": 100_000}


def _oracle_setup(schedule: Schedule, d: int = 8, eps_a=None, basis=None) -> BoundSetup:
    mean = np.zeros(d)
    cov = np.ones(d)
    return BoundSetup(
        mean=mean,
        cov=cov,
        denoiser=GaussianOracleDenoiser(mean, 1.0, schedule),
        schedule=schedule,
        eps_a=eps_a,
        basis=basis,
    )


def _verify_theorem_1(schedule: Schedule, rng: np.random.Generator, pairs: int) -> None:
    ts = np.arange(0, schedule.T + 1)
    worst = 0.0
    for _ in range(pairs):
        d = int(rng.integers(1, 4))
        m1, m2 = rng.normal(size=d), rng.normal(size=d)
        a1, a2 = rng.normal(size=(d, d)), rng.normal(size=(d, d))
        s1 = a1 @ a1.T + 0.5 * np.eye(d)
        s2 = a2 @ a2.T + 0.5 * np.eye(d)
        kls = kl_gaussian_curve((m1, s1), (m2, s2), schedule, ts)
        worst = max(worst, float(np.max(np.diff(kls))))
    if worst > 1e-12:
        raise CheckFailure(f"closed-form KL sequence increased by {worst:.3e} (> 1e-12)")

    x_grid, _ = quadrature_grid()
    mix = 0.5 * (
        np.exp(-0.5 * (x_grid - 2.0) ** 2) + np.exp(-0.5 * (x_grid + 2.0) ** 2)
    ) / np.sqrt(2 * np.pi)
    uni = np.exp(-0.5 * x_grid**2) / np.sqrt(2 * np.pi)
    prev = None
    for t in range(0, schedule.T + 1, 100):
        kl = kl_quadrature_forward(mix, uni, schedule, t)
        if prev is not None and kl > prev + 1e-6:
            raise CheckFailure(f"quadrature KL rose {prev:.8f} -> {kl:.8f} at t={t}")
        prev = kl
    print(f"theorem 1: {pairs} Gaussian pairs + quadrature pair non-increasing "
          f"(worst closed-form step {worst:.2e})")


def _verify_theorem_2(schedule: Schedule, rng: np.random.Generator, trials: int) -> None:
    setup = _oracle_setup(schedule)
    for t in _VERIFY_T_SET:
        report = verify_bounds(setup, t, trials, rng)
        mmse = mmse_gaussian(effective_snr(schedule, t))
        rel = abs(report.empirical - mmse) / mmse
        if rel > 0.03:
            raise CheckFailure(
                f"t={t}: empirical {report.empirical:.6f} vs analytic {mmse:.6f} "
                f"({100 * rel:.2f}% > 3%)"
            )
        if report.delta_ddpm_est > 0.01 * mmse:
            raise CheckFailure(
                f"t={t}: denoiser slack {report.delta_ddpm_est:.6f} exceeds 1% of {mmse:.6f}"
            )
        print(f"theorem 2 t={t}: empirical {report.empirical:.6f} ~ analytic {mmse:.6f} "
              f"({100 * rel:.3f}% rel), slack {report.delta_ddpm_est:.2e}")


def _verify_theorem_3(schedule: Schedule, rng: np.random.Generator, trials: int) -> None:
    d = 8
    for rms in (0.1, 0.5):
        direction = rng.standard_normal(d)
        eps = direction / np.linalg.norm(direction) * (rms * np.sqrt(d))
        setup = _oracle_setup(schedule, d=d, eps_a=eps)
        for t in _VERIFY_T_SET:
            report = verify_bounds(setup, t, trials, rng)
            print(
                f"theorem 3 t={t} rms={rms}: {report.lower:.4f} <= "
                f"{report.empirical:.4f} <= {report.upper:.4f}"
            )


def _verify_theorem_4(
    schedule: Schedule, rng: np.random.Generator, trials: int, effective_t: int
) -> None:
    points = loop_bound_curve(schedule, effective_t, range(1, 11))
    values = [p.value for p in points]
    rises = [
        (points[i].L, values[i], values[i + 1])
        for i in range(len(values) - 1)
        if values[i + 1] >= values[i]
    ]
    half = effective_t // 2
    snr_half = effective_snr(schedule, half)
    half_note = f"half-depth snr({half}) = {snr_half:.6f}"
    if rises:
        detail = "; ".join(f"L={L}: {a:.6f} -> {b:.6f}" for L, a, b in rises)
        saturated = " < 1, so value(L=2) > 1 >= value(L=1)" if snr_half < 1 else ""
        raise CheckFailure(
            f"curve at effective_t={effective_t} is not strictly decreasing in L ({detail}); "
            f"{half_note}{saturated}"
        )
    print(f"theorem 4: curve at effective_t={effective_t} strictly decreasing over L=1..10 "
          f"({half_note})")

    t = _THEOREM_4_T
    oracle = GaussianOracleDenoiser(np.zeros(1), 1.0, schedule)
    errs = {}
    for L in (1, 8):
        cfg = LoridConfig(t=t, L=L)
        x0 = rng.standard_normal((trials, 1))
        out, _ = lorid_purify(x0, oracle, schedule, cfg, rng)
        errs[L] = float(np.mean((out - x0) ** 2))
    if not errs[8] < errs[1]:
        raise CheckFailure(
            f"looped purification did not win: L=8 error {errs[8]:.4f} vs L=1 {errs[1]:.4f}"
        )
    print(f"theorem 4: empirical t={t} error L=8 {errs[8]:.4f} < L=1 {errs[1]:.4f}")


def _verify_theorem_5(schedule: Schedule, rng: np.random.Generator, trials: int) -> None:
    from .purify import misaligned_noise

    layout = TensorizationLayout(height=8, width=8, channels=1, patch=4)
    base_images, _ = gen_striped_images(64, seed=int(rng.integers(2**31)))
    # Crop the 16x16 stripes down to the 8x8 layout for a quick fitted basis.
    images = base_images[:, :8, :8, :]
    basis = fit_basis(images, layout, 0.95)
    d = 64
    eps_img = misaligned_noise((8, 8, 1), basis, budget_l2=0.5 * np.sqrt(d), rng=rng)
    setup = _oracle_setup(schedule, d=d, eps_a=eps_img.reshape(-1), basis=basis)
    for t in _VERIFY_T_SET:
        report = verify_bounds(setup, t, trials, rng)
        print(
            f"theorem 5 t={t}: {report.lower:.4f} <= {report.empirical:.4f} "
            f"<= {report.upper:.4f}"
        )


def _verify_cor1(schedule: Schedule, rng: np.random.Generator, trials: int) -> None:
    setup = _oracle_setup(schedule)
    for t in _VERIFY_T_SET:
        report = verify_bounds(setup, t, trials, rng)
        mmse = mmse_gaussian(effective_snr(schedule, t))
        if report.delta_ddpm_est > 0.01 * mmse:
            raise CheckFailure(
                f"t={t}: slack {report.delta_ddpm_est:.6f} above 1% of MMSE {mmse:.6f}"
            )
        print(
            f"corollary 1 t={t}: error {report.empirical:.6f} in "
            f"[{report.lower:.6f}, {report.upper:.6f}], slack {report.delta_ddpm_est:.2e}"
        )


def _cmd_verify(args) -> int:
    cfg = _load_config(args.config, args.seed)
    depths = _VERIFY_DEPTHS.get(args.theorem, ())
    if max(depths, default=0) > cfg.T:
        raise ConfigError(f"theorem {args.theorem} checks depths "
                          f"{', '.join(map(str, depths))}, but the schedule has T={cfg.T}")
    schedule, rng = cfg.schedule, np.random.default_rng(cfg.seed)
    trials = args.trials if args.trials is not None else _VERIFY_TRIALS.get(args.theorem)
    if args.theorem == "1":
        _verify_theorem_1(schedule, rng, pairs=args.pairs)
    elif args.theorem == "2":
        _verify_theorem_2(schedule, rng, trials)
    elif args.theorem == "3":
        _verify_theorem_3(schedule, rng, trials)
    elif args.theorem == "4":
        _verify_theorem_4(schedule, rng, trials, args.effective_t)
    elif args.theorem == "5":
        _verify_theorem_5(schedule, rng, trials)
    else:
        _verify_cor1(schedule, rng, trials)
    print(f"theorem {args.theorem}: PASS")
    return 0


def _cmd_attack_eval(args) -> int:
    cfg = _load_config(args.config, args.seed)
    budget = toy_budget(eps=args.eps, steps=args.steps)
    table = run_attack_eval(cfg, budget, trials=args.trials)
    print(format_accuracy_table(table))
    if args.out:
        keys = list(table)
        write_csv(args.out, keys, [tuple(table[k] for k in keys)])
        print(f"wrote accuracy table to {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    cfg = _load_config(args.config, args.seed)
    budget = toy_budget(eps=args.eps, steps=args.steps)
    rows, (best_t, best_l) = run_calibration(
        cfg, args.t_grid, args.L_grid, budget, trials=args.trials
    )
    if args.out:
        write_csv(args.out, ("t", "L", "clean_acc", "robust_acc"), rows)
        print(f"wrote calibration grid to {args.out}")
    for t, L, clean, robust in rows:
        print(f"t={t:4d} L={L:2d}  clean {clean:.4f}  robust {robust:.4f}")
    print(f"recommended: t={best_t}, L={best_l} "
          "(best robust accuracy with clean within 3 points of maximum)")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line and exit 2, like every other
    input error; ``--help`` still shows the usage."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """Argument type of every count flag: an integer >= 1."""
    refusal = argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    try:
        value = int(text)
    except ValueError:
        raise refusal from None
    if value < 1:
        raise refusal
    return value


def _positive_float(text: str) -> float:
    """Argument type of a learning rate: a finite float > 0."""
    refusal = argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    try:
        value = float(text)
    except ValueError:
        raise refusal from None
    if not (math.isfinite(value) and value > 0):
        raise refusal
    return value


def _comma_list(item):
    """Argument type of a comma list whose entries each parse with ``item``."""

    def parse(text: str) -> list:
        return [item(v) for v in text.split(",")]

    parse.__name__ = f"comma list of {item.__name__}"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lorid",
        description="Desk-scale laboratory for low-rank iterative diffusion purification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--task", required=True,
                   choices=["gaussian", "two-gaussians", "two-point", "striped"])
    p.add_argument("--n", type=_count, required=True, help="number of samples")
    p.add_argument("--d", type=_count, default=8, help="dimension (gaussian tasks)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output tensor path")
    p.add_argument("--labels-out", help="labels tensor path (labelled tasks)")

    p = sub.add_parser("train-denoiser", help="train the MLP noise predictor")
    p.add_argument("--data", required=True, help="training tensor (n, d) or images")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output container path")
    p.add_argument("--hidden", type=_comma_list(_count), default=[64, 64],
                   help="comma list of hidden-layer widths")
    p.add_argument("--epochs", type=_count, default=40)
    p.add_argument("--lr", type=_positive_float, default=0.05)
    p.add_argument("--seed", type=int, help="override config seed")

    p = sub.add_parser("train-classifier", help="train the softmax MLP classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--hidden", type=_comma_list(_count), default=[32],
                   help="comma list of hidden-layer widths")
    p.add_argument("--epochs", type=_count, default=150)
    p.add_argument("--lr", type=_positive_float, default=0.05)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("purify", help="run the purifier on a stored tensor")
    p.add_argument("--input", required=True)
    p.add_argument("--denoiser", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--basis", help="fitted basis container")
    p.add_argument("--fit-basis-from", help="clean dataset tensor to fit the basis on")
    p.add_argument("--save-basis", help="write the freshly fitted basis here")
    p.add_argument("--clean-ref", help="clean reference tensor for distance traces")
    p.add_argument("--seed", type=int, help="override config seed")

    p = sub.add_parser("curves", help="emit analysis curves as CSV")
    p.add_argument("--kind", required=True, choices=["fig2", "mmse", "snr"])
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--effective-t", type=_comma_list(_count), default=[200, 400, 600, 900],
                   help="comma list of depth budgets (fig2)")
    p.add_argument("--l-max", type=_count, default=10, help="largest loop count (fig2)")
    p.add_argument("--snr-grid", type=_comma_list(float), default=[0.0, 0.5, 1.0, 2.0],
                   help="comma list of snr values (mmse)")
    p.add_argument("--seed", type=int, help="override config seed")

    p = sub.add_parser("verify", help="run a bound/monotonicity verification")
    p.add_argument("--theorem", required=True, choices=["1", "2", "3", "4", "5", "cor1"])
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=_count, help="Monte Carlo trials (default per theorem)")
    p.add_argument("--pairs", type=_count, default=100, help="Gaussian pairs (theorem 1)")
    p.add_argument("--effective-t", type=_count, default=600,
                   help="depth budget for the curve check (theorem 4); the curve can only "
                        "be strictly decreasing when the half-depth snr(t // 2) is >= 1, "
                        "as at 200 or 400 on the default schedule; at the default 600 it "
                        "is 0.657 and the check fails")
    p.add_argument("--seed", type=int, help="override config seed")

    p = sub.add_parser("attack-eval", help="striped-task robustness ladder under PGD")
    p.add_argument("--config", required=True)
    p.add_argument("--eps", type=float, default=0.35, help="L-inf budget")
    p.add_argument("--steps", type=_count, default=30, help="PGD steps")
    p.add_argument("--trials", type=_count, default=3, help="purification rounds to average")
    p.add_argument("--out", help="accuracy table CSV")
    p.add_argument("--seed", type=int, help="override config seed")

    p = sub.add_parser("calibrate", help="clean/robust accuracy grid over (t, L)")
    p.add_argument("--config", required=True)
    p.add_argument("--t-grid", type=_comma_list(_count), required=True,
                   help="comma list of depths")
    p.add_argument("--L-grid", type=_comma_list(_count), required=True,
                   help="comma list of loop counts")
    p.add_argument("--eps", type=float, default=0.35)
    p.add_argument("--steps", type=_count, default=30)
    p.add_argument("--trials", type=_count, default=3)
    p.add_argument("--out", help="grid CSV path")
    p.add_argument("--seed", type=int, help="override config seed")

    return parser


_DISPATCH = {
    "gen-data": _cmd_gen_data,
    "train-denoiser": _cmd_train_denoiser,
    "train-classifier": _cmd_train_classifier,
    "purify": _cmd_purify,
    "curves": _cmd_curves,
    "verify": _cmd_verify,
    "attack-eval": _cmd_attack_eval,
    "calibrate": _cmd_calibrate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (CheckFailure, BoundViolation) as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, TensorFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
