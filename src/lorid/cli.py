"""Command-line front end for the laboratory.

Eight subcommands: ``gen-data``, ``train-denoiser``, ``train-classifier``,
``purify``, ``curves``, ``verify``, ``attack-eval``, ``calibrate``.  Every
command is deterministic under a fixed ``--seed`` (which overrides the config
file's seed where both exist).  Exit codes: 0 = success/pass, 1 = a numerical
check failed (margins printed), 2 = usage or input error, a request for an
array larger than memory included.  The striped-task experiment behind
``attack-eval`` and ``calibrate`` lives in :mod:`lorid.experiment`.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .analysis import (
    BoundReport,
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
# pgd and toy_task_artifacts are not called here; the benchmark reads them and
# its tracer wraps them under this module's name.
from .attacks import ClassifierTrainConfig, format_accuracy_table, pgd, train_classifier
from .diffusion import GaussianOracleDenoiser, MlpTrainConfig, Schedule, train_mlp_denoiser
from .experiment import (
    fit_config_basis,
    run_attack_eval,
    run_calibration,
    toy_budget,
    toy_task_artifacts,
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
from .purify import LoridConfig, lorid_purify, misaligned_noise, purify_in_lockstep
from .tucker import TensorizationLayout, fit_basis

__all__ = ["main"]


def _load_config(path: str, seed_override: int | None) -> RunConfig:
    with open(path) as fh:
        cfg = parse_config(fh.read())
    if seed_override is not None:
        cfg = replace(cfg, seed=seed_override)
    return cfg


# ---------------------------------------------------------------------------
# Subcommand implementations.
# ---------------------------------------------------------------------------


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _flags_read(args, reads: dict, flags: tuple[str, ...], who: str) -> dict:
    """The value of each flag ``reads`` names, its default there where not given.

    A flag of ``flags`` that was given but that ``reads`` does not name is
    refused, as ``who`` would ignore it.
    """
    for name in flags:
        if getattr(args, name) is not None and name not in reads:
            listed = ", ".join(map(_flag, reads)) or "none of " + ", ".join(map(_flag, flags))
            raise ConfigError(f"{who} does not read {_flag(name)} (it reads {listed})")
    return {name: default if getattr(args, name) is None else getattr(args, name)
            for name, default in reads.items()}


# The flags each gen-data task reads, with their defaults; a labelled task
# requires --labels-out.
_GEN_DATA_D = 8
_GEN_DATA = {
    "gaussian": {"d": _GEN_DATA_D},
    "two-gaussians": {"d": _GEN_DATA_D, "labels_out": None},
    "two-point": {},
    "striped": {"labels_out": None},
}


def _distinct_outputs(args, first: str, second: str) -> None:
    """Refuse the output flags ``first`` and ``second`` given one file (as
    ``os.path.realpath`` resolves it): the second write would replace the first."""
    path, other = getattr(args, first), getattr(args, second)
    if other is not None and os.path.realpath(path) == os.path.realpath(other):
        raise ConfigError(f"{_flag(first)} and {_flag(second)} name the same file {other}")


def _write_outputs(*writes: tuple) -> None:
    """Make each ``(write, path, value)`` write in turn.  Where one fails, the
    files the earlier ones wrote are removed before the error goes on, so a
    refused command leaves no output."""
    written = []
    try:
        for write, path, value in writes:
            write(path, value)
            written.append(path)
    except BaseException:
        for path in written:
            os.remove(path)
        raise


def _cmd_gen_data(args) -> int:
    flags = _flags_read(args, _GEN_DATA[args.task], ("d", "labels_out"), f"{args.task} task")
    if "labels_out" in flags and flags["labels_out"] is None:
        raise ConfigError(f"{args.task} task requires --labels-out")
    _distinct_outputs(args, "out", "labels_out")
    labels = None
    if args.task == "gaussian":
        data = gen_gaussian_dataset(d=flags["d"], n=args.n, seed=args.seed)
    elif args.task == "two-gaussians":
        data, labels = gen_two_gaussian_classes(n=args.n, seed=args.seed, d=flags["d"])
    elif args.task == "two-point":
        data = gen_two_point_dataset(n=args.n, seed=args.seed)
    else:  # striped
        data, labels = gen_striped_images(n=args.n, seed=args.seed)
    writes = [(write_tensor, args.out, data)]
    if labels is not None:
        writes.append((write_tensor, args.labels_out, labels.astype(float)))
    _write_outputs(*writes)
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


# The basis flags of purify; each is refused, before any input is read, where
# the config and the other flags leave it unread, and use_tucker=true needs one
# of --basis and --fit-basis-from.
_BASIS_FLAGS = ("basis", "fit_basis_from", "save_basis")


def _cmd_purify(args) -> int:
    _distinct_outputs(args, "out", "save_basis")
    cfg = _load_config(args.config, args.seed)
    if not cfg.use_tucker:
        _flags_read(args, {}, _BASIS_FLAGS, "purify with use_tucker=false")
    elif args.basis is not None:
        _flags_read(args, {"basis": None}, _BASIS_FLAGS, "purify with --basis")
    elif args.save_basis is not None and args.fit_basis_from is None:
        raise ConfigError("--save-basis needs --fit-basis-from")
    elif args.fit_basis_from is None:
        raise ConfigError("use_tucker=true needs --basis or --fit-basis-from")
    denoiser = read_mlp(args.denoiser)
    if denoiser.t_total != cfg.T:
        raise ConfigError(
            f"denoiser was trained for T={denoiser.t_total} but the config has T={cfg.T}"
        )
    x = read_tensor(args.input)
    basis = None
    if args.basis is not None:
        basis = read_basis(args.basis)
    elif args.fit_basis_from is not None:
        images = read_tensor(args.fit_basis_from)
        if images.ndim != 4:
            raise ConfigError("--fit-basis-from needs an (N, H, W, C) tensor, "
                              f"got shape {images.shape}")
        basis = fit_config_basis(images, cfg)
    clean_ref = read_tensor(args.clean_ref) if args.clean_ref else None
    out, trace = lorid_purify(
        x, denoiser, cfg.schedule, replace(cfg.purifier, basis=basis),
        np.random.default_rng(cfg.seed), clean_ref
    )
    writes = [(write_tensor, args.out, out)]
    if args.save_basis is not None:
        writes.append((write_basis, args.save_basis, basis))
    _write_outputs(*writes)
    msg = f"purified tensor of shape {tuple(x.shape)} with t={cfg.t}, L={cfg.L}"
    if trace.distances:
        msg += "; distance to reference per stage: " + ", ".join(
            f"{d:.4f}" for d in trace.distances
        )
    print(msg)
    return 0


# The flags each curve kind reads, with their defaults.
_CURVES = {
    "fig2": {"effective_t": [200, 400, 600, 900], "l_max": 10},
    "mmse": {"snr_grid": [0.0, 0.5, 1.0, 2.0]},
    "snr": {},
}


def _cmd_curves(args) -> int:
    flags = _flags_read(args, _CURVES[args.kind], ("effective_t", "l_max", "snr_grid"),
                        f"{args.kind} curve")
    cfg = _load_config(args.config, args.seed)
    if args.kind == "fig2":
        rows = []
        for t_eff in flags["effective_t"]:
            for pt in loop_bound_curve(cfg.schedule, t_eff, range(1, flags["l_max"] + 1)):
                rows.append((t_eff, pt.L, pt.t_over_L, pt.value))
        write_csv(args.out, ("effective_t", "L", "t_over_L", "value"), rows)
    elif args.kind == "mmse":
        rows = [(s, mmse_gaussian(s), mmse_binary(s)) for s in flags["snr_grid"]]
        write_csv(args.out, ("snr", "mmse_gaussian", "mmse_binary"), rows)
    else:  # snr
        rows = [(t, effective_snr(cfg.schedule, t)) for t in range(1, cfg.T + 1)]
        write_csv(args.out, ("t", "snr"), rows)
    print(f"wrote {args.kind} curve to {args.out}")
    return 0


_VERIFY_T_SET = (50, 200, 500, 800)
# Depth of theorem 4's empirical looped-against-single-pass check.
_THEOREM_4_T = 400


def _oracle_setup(schedule: Schedule, d: int = 8, eps_a=None, basis=None) -> BoundSetup:
    oracle = GaussianOracleDenoiser(np.zeros(d), 1.0, schedule)
    return BoundSetup(oracle.source, oracle, schedule, eps_a=eps_a, basis=basis)


def _tolerance_note(report: BoundReport) -> str:
    """The four-standard-error tolerance ``verify_bounds`` allowed the sandwich."""
    return f", tolerance {report.tolerance:.6f} (4 s.e.)"


def _verify_theorem_1(schedule: Schedule, rng: np.random.Generator, pairs: int) -> None:
    ts = np.arange(0, schedule.T + 1)
    worst = -math.inf
    for _ in range(pairs):
        d = int(rng.integers(1, 4))
        m1, m2 = rng.normal(size=d), rng.normal(size=d)
        a1, a2 = rng.normal(size=(d, d)), rng.normal(size=(d, d))
        s1 = a1 @ a1.T + 0.5 * np.eye(d)
        s2 = a2 @ a2.T + 0.5 * np.eye(d)
        kls = kl_gaussian_curve((m1, s1), (m2, s2), schedule, ts)
        worst = max(worst, float(np.max(np.diff(kls))))
    if worst > 1e-12:
        raise BoundViolation(f"closed-form KL sequence increased by {worst:.3e} (> 1e-12)")

    x_grid, _ = quadrature_grid()
    mix = 0.5 * (
        np.exp(-0.5 * (x_grid - 2.0) ** 2) + np.exp(-0.5 * (x_grid + 2.0) ** 2)
    ) / np.sqrt(2 * np.pi)
    uni = np.exp(-0.5 * x_grid**2) / np.sqrt(2 * np.pi)
    prev = None
    for t in range(0, schedule.T + 1, 100):
        kl = kl_quadrature_forward(mix, uni, schedule, t)
        if prev is not None and kl > prev + 1e-6:
            raise BoundViolation(f"quadrature KL rose {prev:.8f} -> {kl:.8f} at t={t}")
        prev = kl
    print(f"theorem 1: {pairs} Gaussian pairs + quadrature pair non-increasing "
          f"(worst closed-form step {worst:.2e})")


def _verify_theorem_2(schedule: Schedule, rng: np.random.Generator, trials: int) -> None:
    reports = verify_bounds(_oracle_setup(schedule), _VERIFY_T_SET, trials, rng)
    for t, report in zip(_VERIFY_T_SET, reports):
        mmse = mmse_gaussian(effective_snr(schedule, t))
        rel = abs(report.empirical - mmse) / mmse
        if rel > 0.03:
            raise BoundViolation(
                f"t={t}: empirical {report.empirical:.6f} vs analytic {mmse:.6f} "
                f"({100 * rel:.2f}% > 3%)"
            )
        if report.delta_ddpm_est > 0.01 * mmse:
            raise BoundViolation(
                f"t={t}: denoiser slack {report.delta_ddpm_est:.6f} exceeds 1% of {mmse:.6f}"
            )
        print(f"theorem 2 t={t}: empirical {report.empirical:.6f} ~ analytic {mmse:.6f} "
              f"({100 * rel:.3f}% rel), slack {report.delta_ddpm_est:.2e}"
              f"{_tolerance_note(report)}")


def _verify_theorem_3(schedule: Schedule, rng: np.random.Generator, trials: int) -> None:
    d = 8
    for rms in (0.1, 0.5):
        direction = rng.standard_normal(d)
        eps = direction / np.linalg.norm(direction) * (rms * np.sqrt(d))
        setup = _oracle_setup(schedule, d=d, eps_a=eps)
        for t, report in zip(_VERIFY_T_SET, verify_bounds(setup, _VERIFY_T_SET, trials, rng)):
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
        raise BoundViolation(
            f"curve at effective_t={effective_t} is not strictly decreasing in L ({detail}); "
            f"{half_note}{saturated}"
        )
    print(f"theorem 4: curve at effective_t={effective_t} strictly decreasing over L=1..10 "
          f"({half_note})")

    # Both loop counts purify one x0 on one stream of draws (common random
    # numbers), so "L=8 beats L=1" is a paired comparison.
    t = _THEOREM_4_T
    oracle = GaussianOracleDenoiser(np.zeros(1), 1.0, schedule)
    x0 = rng.standard_normal((trials, 1))
    [err_1], [err_8] = purify_in_lockstep(
        [x0], oracle, schedule, [LoridConfig(t=t, L=1), LoridConfig(t=t, L=8)], rng,
        lambda out: float(np.mean((out - x0) ** 2)),
    )
    if not err_8 < err_1:
        raise BoundViolation(
            f"looped purification did not win: L=8 error {err_8:.4f} vs L=1 {err_1:.4f}"
        )
    print(f"theorem 4: empirical t={t} error L=8 {err_8:.4f} < L=1 {err_1:.4f}")


def _verify_theorem_5(schedule: Schedule, rng: np.random.Generator, trials: int) -> None:
    layout = TensorizationLayout(height=8, width=8, channels=1, patch=4)
    base_images, _ = gen_striped_images(64, seed=int(rng.integers(2**31)))
    # Crop the 16x16 stripes down to the 8x8 layout for a quick fitted basis.
    images = base_images[:, :8, :8, :]
    basis = fit_basis(images, layout, 0.95)
    d = 64
    eps_img = misaligned_noise((8, 8, 1), basis, budget_l2=0.5 * np.sqrt(d), rng=rng)
    setup = _oracle_setup(schedule, d=d, eps_a=eps_img.reshape(-1), basis=basis)
    for t, report in zip(_VERIFY_T_SET, verify_bounds(setup, _VERIFY_T_SET, trials, rng)):
        print(
            f"theorem 5 t={t}: {report.lower:.4f} <= {report.empirical:.4f} "
            f"<= {report.upper:.4f}"
        )


def _verify_cor1(schedule: Schedule, rng: np.random.Generator, trials: int) -> None:
    reports = verify_bounds(_oracle_setup(schedule), _VERIFY_T_SET, trials, rng)
    for t, report in zip(_VERIFY_T_SET, reports):
        mmse = mmse_gaussian(effective_snr(schedule, t))
        if report.delta_ddpm_est > 0.01 * mmse:
            raise BoundViolation(
                f"t={t}: slack {report.delta_ddpm_est:.6f} above 1% of MMSE {mmse:.6f}"
            )
        print(
            f"corollary 1 t={t}: error {report.empirical:.6f} in "
            f"[{report.lower:.6f}, {report.upper:.6f}], slack {report.delta_ddpm_est:.2e}"
            f"{_tolerance_note(report)}"
        )


# Each theorem's check, the fixed depths it reads (a shorter schedule is refused
# before any output) and the flags it reads, with their defaults; any other of
# _VERIFY_FLAGS is refused.  A check is called as check(schedule, rng, **flags).
_THEOREMS = {
    "1": (_verify_theorem_1, (), {"pairs": 100}),
    "2": (_verify_theorem_2, _VERIFY_T_SET, {"trials": 100_000}),
    "3": (_verify_theorem_3, _VERIFY_T_SET, {"trials": 10_000}),
    "4": (_verify_theorem_4, (_THEOREM_4_T,), {"trials": 10_000, "effective_t": 600}),
    "5": (_verify_theorem_5, _VERIFY_T_SET, {"trials": 1_000}),
    "cor1": (_verify_cor1, _VERIFY_T_SET, {"trials": 100_000}),
}
_VERIFY_FLAGS = ("trials", "pairs", "effective_t")


def _cmd_verify(args) -> int:
    check, depths, defaults = _THEOREMS[args.theorem]
    flags = _flags_read(args, defaults, _VERIFY_FLAGS, f"theorem {args.theorem}")
    if flags.get("trials", 2) < 2:
        raise ValueError("need at least 2 trials")
    cfg = _load_config(args.config, args.seed)
    if max(depths, default=0) > cfg.T:
        raise ConfigError(f"theorem {args.theorem} checks depths "
                          f"{', '.join(map(str, depths))}, but the schedule has T={cfg.T}")
    check(cfg.schedule, np.random.default_rng(cfg.seed), **flags)
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


def _integer_at_least(low: int, text: str) -> int:
    """``text`` as an integer >= ``low``, else a usage error that gives the bound."""
    refusal = argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    try:
        value = int(text)
    except ValueError:
        raise refusal from None
    if value < low:
        raise refusal
    return value


def _count(text: str) -> int:
    """Argument type of every count flag: an integer >= 1."""
    return _integer_at_least(1, text)


def _seed(text: str) -> int:
    """Argument type of every ``--seed``: an integer >= 0, as numpy's seeding needs."""
    return _integer_at_least(0, text)


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

    # The flags of the commands that read a run config, and of the two that run PGD.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True)
    config.add_argument("--seed", type=_seed, help="override config seed")
    attack = argparse.ArgumentParser(add_help=False, parents=[config])
    budget = toy_budget()
    attack.add_argument("--eps", type=float, default=budget.epsilon, help="L-inf budget")
    attack.add_argument("--steps", type=_count, default=budget.steps, help="PGD steps")
    attack.add_argument("--trials", type=_count, default=3, help="purification rounds to average")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--task", required=True,
                   choices=["gaussian", "two-gaussians", "two-point", "striped"])
    p.add_argument("--n", type=_count, required=True, help="number of samples")
    p.add_argument("--d", type=_count,
                   help=f"dimension (gaussian and two-gaussians; default {_GEN_DATA_D})")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output tensor path")
    p.add_argument("--labels-out", help="labels tensor path (two-gaussians and striped)")

    p = sub.add_parser("train-denoiser", parents=[config], help="train the MLP noise predictor")
    p.add_argument("--data", required=True, help="training tensor (n, d) or images")
    p.add_argument("--out", required=True, help="output container path")
    p.add_argument("--hidden", type=_comma_list(_count), default=MlpTrainConfig.hidden,
                   help="comma list of hidden-layer widths")
    p.add_argument("--epochs", type=_count, default=MlpTrainConfig.epochs)
    p.add_argument("--lr", type=_positive_float, default=MlpTrainConfig.lr)

    p = sub.add_parser("train-classifier", help="train the softmax MLP classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--hidden", type=_comma_list(_count), default=ClassifierTrainConfig.hidden,
                   help="comma list of hidden-layer widths")
    p.add_argument("--epochs", type=_count, default=ClassifierTrainConfig.epochs)
    p.add_argument("--lr", type=_positive_float, default=ClassifierTrainConfig.lr)
    p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("purify", parents=[config], help="run the purifier on a stored tensor")
    p.add_argument("--input", required=True)
    p.add_argument("--denoiser", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--basis", help="fitted basis container")
    p.add_argument("--fit-basis-from", help="clean dataset tensor to fit the basis on")
    p.add_argument("--save-basis", help="write the freshly fitted basis here")
    p.add_argument("--clean-ref", help="clean reference tensor for distance traces")

    p = sub.add_parser("curves", parents=[config], help="emit analysis curves as CSV")
    p.add_argument("--kind", required=True, choices=["fig2", "mmse", "snr"])
    p.add_argument("--out", required=True)
    p.add_argument("--effective-t", type=_comma_list(_count),
                   help="comma list of depth budgets (fig2; default "
                        f"{','.join(map(str, _CURVES['fig2']['effective_t']))})")
    p.add_argument("--l-max", type=_count,
                   help=f"largest loop count (fig2; default {_CURVES['fig2']['l_max']})")
    p.add_argument("--snr-grid", type=_comma_list(float),
                   help="comma list of snr values (mmse; default "
                        f"{','.join(map(str, _CURVES['mmse']['snr_grid']))})")

    p = sub.add_parser("verify", parents=[config], help="run a bound/monotonicity verification")
    p.add_argument("--theorem", required=True, choices=list(_THEOREMS))
    p.add_argument("--trials", type=_count,
                   help="Monte Carlo trials (theorems 2-5 and cor1; default per theorem)")
    p.add_argument("--pairs", type=_count,
                   help=f"Gaussian pairs (theorem 1; default {_THEOREMS['1'][2]['pairs']})")
    p.add_argument("--effective-t", type=_count,
                   help="depth budget for the curve check (theorem 4); the curve can only "
                        "be strictly decreasing when the half-depth snr(t // 2) is >= 1, "
                        "as at 200 or 400 on the default schedule; at the default "
                        f"{_THEOREMS['4'][2]['effective_t']} it is 0.657 and the check fails")

    p = sub.add_parser("attack-eval", parents=[attack],
                       help="striped-task robustness ladder under PGD")
    p.add_argument("--out", help="accuracy table CSV")

    p = sub.add_parser("calibrate", parents=[attack],
                       help="clean/robust accuracy grid over (t, L)")
    p.add_argument("--t-grid", type=_comma_list(_count), required=True,
                   help="comma list of depths")
    p.add_argument("--L-grid", type=_comma_list(_count), required=True,
                   help="comma list of loop counts")
    p.add_argument("--out", help="grid CSV path")

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
    except BoundViolation as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, TensorFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an array larger than the allocator can give
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
