"""The whole pipeline against a white-box attack, small enough for a coffee break.

Striped 16x16 images, a small MLP classifier, projected-gradient attacks at a
budget that ruins undefended accuracy, and the defense ladder: projection
only, single-loop purification, loops without projection, and the full
projection + looped-diffusion stack.  A shortened calibration sweep picks the
(depth, loops) operating point first.

Run:  python3 demos/05_end_to_end_defense.py   (about a minute)
"""

import time
from dataclasses import replace

from lorid.experiment import run_attack_eval, run_calibration, toy_budget, toy_task_artifacts
from lorid.io_formats import default_config

start = time.time()
base = default_config(T=250, t=160, L=4, eta=None, ranks=(2, 2, 8, 1), seed=0)
budget = toy_budget()  # sign-step attack, strength 0.35, 30 iterations

seed_0 = toy_task_artifacts(base)  # seed 0's models, for calibration and its ladder

print("Calibrating (depth, loops) on a reduced grid...")
rows, (t_pick, L_pick) = run_calibration(base, [80, 160], [1, 4], budget, artifacts=seed_0)
print(f"{'t':>5} {'L':>3} {'clean':>7} {'robust':>7}")
for t, L, clean, robust in rows:
    marker = "  <- picked" if (t, L) == (t_pick, L_pick) else ""
    print(f"{t:>5} {L:>3} {clean:>7.3f} {robust:>7.3f}{marker}")

print(f"\nEvaluating the defense ladder at (t={t_pick}, L={L_pick}), seeds 0-2:")
for seed in range(3):
    table = run_attack_eval(replace(base, t=t_pick, L=L_pick, seed=seed), budget,
                            artifacts=seed_0 if seed == 0 else None)
    print(f"  seed {seed}: clean {table['standard']:.3f} | attacked {table['attacked']:.3f}"
          f" | projection only {table['tf_only']:.3f} | single loop {table['single']:.3f}"
          f" | loops only {table['loop_only']:.3f} | full stack {table['lorid']:.3f}")

print(f"\nThe attack erases almost all accuracy; the projection alone recovers a")
print(f"chunk, and the full projected + looped purification recovers the most.")
print(f"Total {time.time() - start:.0f}s.")
