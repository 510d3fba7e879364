"""Acceptance gate: one test per advertised guarantee of the laboratory.

Each test prints a single ``CRITERION <k>: PASS/FAIL`` line with its measured
margins (visible under ``pytest -s``), then asserts.  Criterion 4a checks the
loop-splitting guarantee in the regime it holds in: the exact loop-bound curve
L * mmse_gaussian(snr(floor(t/L))) is strictly decreasing over L=1..10 at the
depths whose half-depth snr(floor(t/2)) is at least 1 (200 and 400).  Below
that the bound saturates: mmse_gaussian <= 1 caps one loop at 1, while
snr(floor(t/2)) < 1 makes two loops cost more than 1, so at 600 and 900 the
criterion asserts and reports that rise instead of a decrease.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from lorid.analysis import (
    BoundSetup,
    BoundViolation,
    effective_snr,
    kl_gaussian_curve,
    kl_quadrature_forward,
    loop_bound_curve,
    mmse_binary,
    mmse_binary_monte_carlo,
    mmse_gaussian,
    verify_bounds,
)
from lorid.attacks import TABLE_KEYS
from lorid.cli import main
from lorid.diffusion import (
    GaussianOracleDenoiser,
    MlpTrainConfig,
    default_schedule,
    diffuse,
    make_linear_schedule,
    one_shot_recover,
    train_mlp_denoiser,
)
from lorid.experiment import run_attack_eval, run_calibration, toy_budget, toy_task_artifacts
from lorid.io_formats import (
    default_config,
    format_config,
    gen_striped_images,
    gen_two_point_dataset,
    read_tensor,
    write_tensor,
)
from lorid.purify import LoridConfig, lorid_purify, misaligned_noise
from lorid.tucker import TensorizationLayout, fit_basis, tf_apply, truncated_hosvd

VERIFY_TS = (50, 200, 500, 800)


def _report(label, ok, detail):
    line = f"CRITERION {label}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _gaussian_mixture(weights, means, sds):
    w = np.asarray(weights, dtype=np.float64)
    m = np.asarray(means, dtype=np.float64)
    s = np.asarray(sds, dtype=np.float64)

    def pdf(x):
        x = np.asarray(x, dtype=np.float64)[..., None]
        comps = np.exp(-0.5 * ((x - m) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
        return comps @ w

    return pdf


def test_criterion_1_kl_contraction_under_diffusion():
    """Forward diffusion never increases the KL divergence between sources."""
    start = time.perf_counter()
    sched = default_schedule()

    rng = np.random.default_rng(101)
    worst_closed = -np.inf
    for _ in range(100):
        d = int(rng.integers(1, 5))
        a = rng.standard_normal((d, d))
        b = rng.standard_normal((d, d))
        p1 = (rng.standard_normal(d), a @ a.T + 0.2 * np.eye(d))
        p2 = (rng.standard_normal(d), b @ b.T + 0.2 * np.eye(d))
        kl = kl_gaussian_curve(p1, p2, sched, range(0, 1001))
        worst_closed = max(worst_closed, float(np.max(np.diff(kl))))

    pairs = [
        (_gaussian_mixture([0.5, 0.5], [-1.5, 1.5], [0.4, 0.4]),
         _gaussian_mixture([1.0], [0.0], [1.0])),
        (_gaussian_mixture([0.7, 0.3], [-0.6, 1.8], [0.5, 0.7]),
         _gaussian_mixture([0.5, 0.5], [-1.0, 1.0], [0.6, 0.6])),
        (_gaussian_mixture([0.25, 0.5, 0.25], [-2.0, 0.0, 2.0], [0.35, 0.35, 0.35]),
         _gaussian_mixture([1.0], [0.3], [1.4])),
        (_gaussian_mixture([0.6, 0.4], [0.0, 0.0], [0.3, 2.0]),
         _gaussian_mixture([1.0], [0.0], [1.2])),
        (_gaussian_mixture([0.45, 0.55], [-2.2, 1.4], [0.5, 0.9]),
         _gaussian_mixture([0.5, 0.5], [-0.5, 0.8], [1.5, 0.4])),
    ]
    ts = list(range(0, 1001, 50))
    curves = np.empty((len(pairs), len(ts)))
    for j, t in enumerate(ts):
        for i, (d1, d2) in enumerate(pairs):
            curves[i, j] = kl_quadrature_forward(d1, d2, sched, t)
    worst_quad = float(np.max(np.diff(curves, axis=1)))

    elapsed = time.perf_counter() - start
    ok = worst_closed <= 1e-12 and worst_quad <= 1e-6 and elapsed < 30.0
    _report(1, ok,
            f"closed-form max rise {worst_closed:.2e} (tol 1e-12), "
            f"quadrature max rise {worst_quad:.2e} (tol 1e-6), {elapsed:.1f}s (< 30s)")


def test_criterion_2_oracle_one_shot_matches_channel_mmse():
    """One-shot recovery with the exact conditional-mean denoiser sits on the
    1/(1+snr) curve, and the estimated denoiser slack is < 1% of it."""
    sched = default_schedule()
    d = 8
    oracle = GaussianOracleDenoiser(np.zeros(d), 1.0, sched)
    rng = np.random.default_rng(202)
    rows = []
    ok = True
    for t in VERIFY_TS:
        target = 1.0 / (1.0 + effective_snr(sched, t))
        x0 = rng.standard_normal((100_000, d))
        x_t = diffuse(x0, t, sched, rng.standard_normal(x0.shape))
        x_hat = one_shot_recover(x_t, t, oracle, sched)
        emp = float(np.mean((x_hat - x0) ** 2))
        rel = abs(emp - target) / target
        slack = max(0.0, emp - target) / target
        ok = ok and rel < 0.03 and slack < 0.01
        rows.append(f"t={t}: rel {rel:.4f}, slack {slack:.4f}")
    _report(2, ok, "; ".join(rows) + " (tol: rel < 0.03, slack < 0.01)")


def test_criterion_3_adversarial_error_sandwich():
    """Measured purification error under fixed perturbations stays inside the
    theoretical [mmse - a, mmse + slack + a] sandwich at every tested depth."""
    sched = default_schedule()
    d = 8
    oracle = GaussianOracleDenoiser(np.zeros(d), 1.0, sched)
    rng = np.random.default_rng(303)
    violations = []
    for rms in (0.1, 0.5):
        direction = rng.standard_normal(d)
        eps = direction * (rms * math.sqrt(d) / np.linalg.norm(direction))
        setup = BoundSetup(source=oracle.source, denoiser=oracle,
                           schedule=sched, eps_a=eps)
        for t in VERIFY_TS:
            try:
                verify_bounds(setup, (t,), 10_000, rng)
            except BoundViolation as exc:
                violations.append(f"rms={rms}, t={t}: {exc}")
    ok = not violations
    detail = (f"zero violations over rms {{0.1, 0.5}} x t {VERIFY_TS}, 1e4 trials each"
              if ok else "; ".join(violations))
    _report(3, ok, detail)


def test_criterion_4a_loop_bound_curve_strictly_decreasing():
    """Exact-arithmetic loop-count sweep of the per-loop error bound.

    Guarantee: at a depth t whose half-depth snr(floor(t/2)) is at least 1,
    splitting t over more loops strictly lowers L * mmse_gaussian(snr(floor(t/L)))
    over L=1..10.  Saturation: mmse_gaussian = 1/(1+snr) <= 1, so one loop
    costs at most 1, while snr(floor(t/2)) < 1 makes each of two loops cost
    more than 1/2; hence value(L=2) > 1 >= value(L=1) there.  The snr
    condition is necessary, not sufficient (depth 500 has half-depth snr 1.10
    and still rises), so it only sorts these four fixed depths.
    """
    start = time.perf_counter()
    sched = default_schedule()
    in_regime = {200: True, 400: True, 600: False, 900: False}
    bad, rises_seen = [], []
    for eff_t, expected in in_regime.items():
        half_snr = effective_snr(sched, eff_t // 2)
        if (half_snr >= 1.0) != expected:
            bad.append(f"effective_t={eff_t} half-depth snr {half_snr:.3f} "
                       f"{'below' if expected else 'reaches'} 1")
            continue
        vals = [p.value for p in loop_bound_curve(sched, eff_t, range(1, 11))]
        if expected:
            rises = [(L, vals[L - 1], vals[L]) for L in range(1, 10) if vals[L] >= vals[L - 1]]
            if rises:
                L, lo, hi = rises[0]
                bad.append(f"effective_t={eff_t} rises {lo:.3f} -> {hi:.3f} at L={L}->{L + 1}")
        elif vals[1] > 1.0 >= vals[0]:
            rises_seen.append(f"effective_t={eff_t} rises {vals[0]:.3f} -> {vals[1]:.3f} "
                              f"at L=1->2 (half-depth snr {half_snr:.3f} < 1)")
        else:
            bad.append(f"effective_t={eff_t} half-depth snr {half_snr:.3f} < 1 but "
                       f"L=1 {vals[0]:.3f}, L=2 {vals[1]:.3f} break value(L=2) > 1 >= value(L=1)")
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 1.0
    detail = (f"strictly decreasing at 200 and 400 (half-depth snr >= 1); saturated: "
              + "; ".join(rises_seen) + f", {elapsed * 1e3:.0f}ms"
              if ok else "; ".join(bad) + f" ({elapsed * 1e3:.0f}ms)")
    _report("4a", ok, detail)


def test_criterion_4b_looping_beats_one_shot_empirically():
    """Splitting depth-400 purification into 8 loops strictly reduces oracle MSE."""
    sched = default_schedule()
    d = 8
    oracle = GaussianOracleDenoiser(np.zeros(d), 1.0, sched)
    x0 = np.random.default_rng(404).standard_normal((10_000, d))
    mses = {}
    for L in (1, 8):
        cfg = LoridConfig(t=400, L=L)
        purified, _ = lorid_purify(x0, oracle, sched, cfg, np.random.default_rng(440 + L))
        mses[L] = float(np.mean((purified - x0) ** 2))
    margin = mses[1] - mses[8]
    ok = margin > 0.01
    _report("4b", ok, f"mse(L=1) {mses[1]:.4f} vs mse(L=8) {mses[8]:.4f}, "
            f"margin {margin:.4f} over 1e4 trials")


def test_criterion_5_binary_channel_mmse():
    """Quadrature binary-input MMSE matches Monte Carlo and its exact limits."""
    mc_errs = {}
    for snr in (0.1, 1.0, 10.0):
        mc = mmse_binary_monte_carlo(snr, 10_000_000, np.random.default_rng(505))
        mc_errs[snr] = abs(mc - mmse_binary(snr))
    zero_exact = mmse_binary(0.0) == 1.0
    grid = np.linspace(0.0, 20.0, 200)
    dominated = bool(np.all(mmse_binary(grid) <= mmse_gaussian(grid) + 1e-12))
    ok = all(e < 1e-3 for e in mc_errs.values()) and zero_exact and dominated
    _report(5, ok,
            "MC gaps " + ", ".join(f"snr={s}: {e:.1e}" for s, e in mc_errs.items())
            + f" (tol 1e-3); mmse(0)==1 {zero_exact}; <= gaussian on 200-pt grid {dominated}")


def test_criterion_6_low_rank_projection_guarantees():
    """Projection identities: lossless at full rank, energy-bounded when
    truncated, annihilates off-subspace perturbations, and composes with
    purification inside the proven envelope."""
    rng = np.random.default_rng(606)

    worst_full = 0.0
    worst_energy_margin = -np.inf
    for _ in range(100):
        shape = tuple(int(rng.integers(2, 6)) for _ in range(4))
        x = rng.standard_normal(shape)
        full_hat, _, _ = truncated_hosvd(x, 1.0)
        worst_full = max(worst_full, float(np.linalg.norm(full_hat - x)))
        ranks = [int(rng.integers(1, s + 1)) for s in shape]
        x_hat, _, discarded = truncated_hosvd(x, ranks)
        err_sq = float(np.sum((x - x_hat) ** 2))
        worst_energy_margin = max(worst_energy_margin, err_sq - sum(discarded))

    imgs, _ = gen_striped_images(128, seed=61)
    layout = TensorizationLayout(height=16, width=16, channels=1, patch=4)
    basis = fit_basis(imgs, layout, (2, 2, 8, 1))
    probe, _ = gen_striped_images(2, seed=62)
    eps = misaligned_noise((16, 16, 1), basis, budget_l2=0.5 * 16.0, rng=rng)
    recovered = tf_apply(probe[0] + eps, basis)
    mis_err = float(np.linalg.norm(recovered - probe[0]))
    eps_norm = float(np.linalg.norm(eps))

    sched = default_schedule()
    crops, _ = gen_striped_images(160, seed=63)
    crops = crops[:, :8, :8, :]
    small_layout = TensorizationLayout(height=8, width=8, channels=1, patch=4)
    small_basis = fit_basis(crops, small_layout, 0.95)
    oracle = GaussianOracleDenoiser(np.zeros(64), 1.0, sched)
    composed_eps = misaligned_noise((8, 8, 1), small_basis, budget_l2=0.5 * 8.0, rng=rng)
    setup = BoundSetup(source=oracle.source, denoiser=oracle,
                       schedule=sched, eps_a=composed_eps.reshape(-1), basis=small_basis)
    composed_violations = 0
    for t in VERIFY_TS:
        try:
            verify_bounds(setup, (t,), 1000, rng)
        except BoundViolation:
            composed_violations += 1

    ok = (worst_full < 1e-10 and worst_energy_margin <= 1e-12
          and mis_err < eps_norm and composed_violations == 0)
    _report(6, ok,
            f"full-rank recon err {worst_full:.1e} (< 1e-10); "
            f"max (err^2 - discarded energy) {worst_energy_margin:.1e} over 100 tensors; "
            f"off-subspace recovery {mis_err:.3f} < perturbation {eps_norm:.3f}; "
            f"composed-bound violations {composed_violations}/4 depths at 1e3 trials")


def test_criterion_7_trained_denoiser_learns_the_posterior():
    """Training internals: the hand-rolled backprop agrees with finite
    differences, and on the two-point +-1 source the trained network's implied
    clean-signal estimate reproduces the tanh posterior mean."""
    sched = make_linear_schedule(8, 0.02, 0.25)
    data = gen_two_point_dataset(16_384, seed=7)
    model, report = train_mlp_denoiser(
        data, sched,
        MlpTrainConfig(hidden=(64, 64), lr=0.03, epochs=600, batch_size=128, lr_decay=0.99),
        np.random.default_rng(8))

    t = 5
    ab = sched.alpha_bar_at(t)
    grid = np.linspace(-2.5, 2.5, 51)
    eps_hat = model.predict_eps(grid[:, None], t)[:, 0]
    implied = (grid - math.sqrt(1.0 - ab) * eps_hat) / math.sqrt(ab)
    posterior = np.tanh(math.sqrt(ab) * grid / (1.0 - ab))
    sup = float(np.max(np.abs(implied - posterior)))

    ok = report.grad_check_rel_err < 1e-5 and sup < 0.05
    _report(7, ok, f"gradient check rel err {report.grad_check_rel_err:.1e} (< 1e-5); "
            f"posterior sup gap {sup:.4f} (< 0.05) at depth {t}/8 on a 51-point grid")


def test_criterion_8_end_to_end_robustness_on_the_striped_task():
    """Attack hurts, calibrated purification recovers, and the defense ladder
    is ordered — majority vote over five seeds, inside the runtime budget."""
    start = time.perf_counter()
    base = default_config(T=250, t=160, L=4, eta=None, ranks=(2, 2, 8, 1), seed=0)
    budget = toy_budget()
    # Seed 0's models serve calibration and seed 0's ladder: both configs share
    # the schedule, patch and rank policy that training reads.
    seed_0 = toy_task_artifacts(base)

    rows, (pick_t, pick_L) = run_calibration(base, [40, 80, 120, 160], [1, 2, 4, 8], budget,
                                             artifacts=seed_0)
    tuned = default_config(T=250, t=pick_t, L=pick_L, eta=None, ranks=(2, 2, 8, 1), seed=0)

    drops, ordered, recovered = [], 0, 0
    for seed in range(5):
        table = run_attack_eval(replace(tuned, seed=seed), budget,
                                artifacts=seed_0 if seed == 0 else None)
        drop = table["standard"] - table["attacked"]
        drops.append(drop)
        if (table["lorid"] >= table["tf_only"] - 1e-9
                and table["tf_only"] >= table["attacked"] - 1e-9):
            ordered += 1
        if table["lorid"] - table["attacked"] >= 0.5 * drop:
            recovered += 1
    elapsed = time.perf_counter() - start

    ok = (all(d >= 0.30 for d in drops) and ordered >= 3 and recovered >= 3
          and elapsed < 600.0)
    _report(8, ok,
            f"calibrated (t={pick_t}, L={pick_L}); drops "
            + "/".join(f"{d:.2f}" for d in drops)
            + f" (all >= 0.30); ladder ordered {ordered}/5; "
            f"recovered >= half the drop {recovered}/5; {elapsed:.0f}s (< 600s)")


def test_criterion_9_determinism_and_formats(tmp_path, capsys):
    """Every command yields identical bytes on identical seeds, and the tensor
    container round-trips exactly."""
    cfg_text = format_config(default_config(T=120, t=20, L=2, eta=None,
                                            ranks=(2, 2, 8, 1), seed=0))
    cfg = str(tmp_path / "run.cfg")
    (tmp_path / "run.cfg").write_text(cfg_text)

    def twice(args_fn, outputs):
        for tag in ("a", "b"):
            assert main(args_fn(tag)) == 0
        return all(
            (tmp_path / f"{name}_a{ext}").read_bytes() == (tmp_path / f"{name}_b{ext}").read_bytes()
            for name, ext in outputs
        )

    results = {}
    results["gen-data"] = twice(
        lambda s: ["gen-data", "--task", "striped", "--n", "24",
                   "--out", str(tmp_path / f"x_{s}.lten"),
                   "--labels-out", str(tmp_path / f"y_{s}.lten")],
        [("x", ".lten"), ("y", ".lten")])
    results["train-denoiser"] = twice(
        lambda s: ["train-denoiser", "--data", str(tmp_path / "x_a.lten"), "--config", cfg,
                   "--out", str(tmp_path / f"deno_{s}.lten"), "--hidden", "16", "--epochs", "2"],
        [("deno", ".lten")])
    results["train-classifier"] = twice(
        lambda s: ["train-classifier", "--data", str(tmp_path / "x_a.lten"),
                   "--labels", str(tmp_path / "y_a.lten"),
                   "--out", str(tmp_path / f"clf_{s}.lten"), "--hidden", "8", "--epochs", "5"],
        [("clf", ".lten")])
    results["purify"] = twice(
        lambda s: ["purify", "--input", str(tmp_path / "x_a.lten"),
                   "--denoiser", str(tmp_path / "deno_a.lten"), "--config", cfg,
                   "--out", str(tmp_path / f"pure_{s}.lten"),
                   "--fit-basis-from", str(tmp_path / "x_a.lten"),
                   "--save-basis", str(tmp_path / f"basis_{s}.lten")],
        [("pure", ".lten"), ("basis", ".lten")])
    results["curves"] = twice(
        lambda s: ["curves", "--kind", "fig2", "--config", cfg,
                   "--out", str(tmp_path / f"fig2_{s}.csv"), "--effective-t", "40,80"],
        [("fig2", ".csv")])
    full_cfg = str(tmp_path / "full.cfg")
    (tmp_path / "full.cfg").write_text(format_config(default_config(seed=0)))
    capsys.readouterr()  # drain output accumulated from the commands above
    outs = []
    for _ in range(2):
        assert main(["verify", "--theorem", "3", "--config", full_cfg, "--trials", "500"]) == 0
        outs.append(capsys.readouterr().out)
    results["verify"] = outs[0] == outs[1] and len(outs[0]) > 0
    results["attack-eval"] = twice(
        lambda s: ["attack-eval", "--config", cfg, "--trials", "1",
                   "--out", str(tmp_path / f"table_{s}.csv")],
        [("table", ".csv")])
    results["calibrate"] = twice(
        lambda s: ["calibrate", "--config", cfg, "--t-grid", "10,20", "--L-grid", "2",
                   "--trials", "1", "--out", str(tmp_path / f"grid_{s}.csv")],
        [("grid", ".csv")])

    tricky = np.array([[-0.0, 5e-324, 1e308], [math.pi, 1.0 / 3.0, 0.1]])
    p1, p2 = tmp_path / "t1.lten", tmp_path / "t2.lten"
    write_tensor(str(p1), tricky)
    write_tensor(str(p2), read_tensor(str(p1)))
    roundtrip = p1.read_bytes() == p2.read_bytes()

    ok = all(results.values()) and roundtrip
    failing = [k for k, v in results.items() if not v]
    _report(9, ok, "all 8 commands bit-identical across reruns and tensor "
            "round-trip bit-exact" if ok else f"non-deterministic: {failing}, "
            f"round-trip exact: {roundtrip}")


def test_table_keys_complete():
    """The ladder reported by criterion 8 covers every advertised column."""
    assert TABLE_KEYS == ("standard", "attacked", "tf_only", "single", "loop_only", "lorid")
