"""Walk through the forward corruption and the two ways back.

We corrupt standard-Gaussian data to a few depths, then recover it with the
exact conditional-mean denoiser — once via the single-jump estimate and once
via step-by-step ancestral sampling — and compare the measured per-dimension
squared error against the 1/(1+snr) channel curve that the oracle should sit
on exactly.

Run:  python3 demos/01_forward_reverse_basics.py
"""

import numpy as np

from lorid import (
    GaussianOracleDenoiser,
    default_schedule,
    diffuse,
    effective_snr,
    one_shot_recover,
    reverse_ancestral,
)

rng = np.random.default_rng(1)
sched = default_schedule()
d, n = 8, 20_000
oracle = GaussianOracleDenoiser(np.zeros(d), 1.0, sched)

print("Corrupt N(0, I_8) to depth t, then recover with the oracle denoiser.")
print(f"{'t':>5} {'snr':>12} {'1/(1+snr)':>11} {'one-shot':>10} {'ancestral':>10}")
for t in (50, 200, 500, 800):
    x0 = rng.standard_normal((n, d))
    x_t = diffuse(x0, t, sched, rng.standard_normal((n, d)))
    jump = one_shot_recover(x_t, t, oracle, sched)
    walked = reverse_ancestral(x_t, t, oracle, sched, rng)
    snr = effective_snr(sched, t)
    mse_jump = np.mean((jump - x0) ** 2)
    mse_walk = np.mean((walked - x0) ** 2)
    print(f"{t:>5} {snr:>12.4f} {1 / (1 + snr):>11.4f} {mse_jump:>10.4f} {mse_walk:>10.4f}")

print()
print("The one-shot column tracks the channel curve to Monte Carlo accuracy.")
print("The ancestral walk re-injects noise at every step, so against white")
print("Gaussian data it pays about twice the channel error at depth: its output")
print("approaches a fresh draw from the prior rather than a pointwise estimate —")
print("precisely the resampling behavior purification exploits on structured data.")
