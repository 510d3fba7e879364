"""Why run L shallow purification loops instead of one deep pass?

The per-loop error bound is L x mmse_gaussian(snr(floor(t/L))): splitting a
fixed total depth t into L loops trades loop count against per-loop noise.
We print the exact curve at several depths — including the regime where it is
NOT monotone in L — then confirm the win empirically with oracle purification.

Run:  python3 demos/03_loop_splitting.py
"""

import numpy as np

from lorid import GaussianOracleDenoiser, LoridConfig, default_schedule, loop_bound_curve, lorid_purify

sched = default_schedule()

print("Exact loop-count sweep of the error bound (rows: L, columns: total depth):")
depths = (200, 400, 600, 900)
curves = {t: [p.value for p in loop_bound_curve(sched, t, range(1, 11))] for t in depths}
print(f"{'L':>3} " + " ".join(f"t={t:>5}" for t in depths))
for L in range(1, 11):
    print(f"{L:>3} " + " ".join(f"{curves[t][L - 1]:>7.4f}" for t in depths))

print()
print("At depths 200 and 400 the bound falls monotonically with L.  At 600 and")
print("900 it first RISES from L=1 to L=2: one loop of a very deep pass has a")
print("bound saturating near the prior variance, while two half-depth loops")
print("each pay nearly that much.  Splitting only wins once the per-loop depth")
print("drops into the informative-snr region — the bound is not monotone in L")
print("everywhere, and the laboratory reports the computed truth.")

print()
print("Empirical check at total depth 400 (oracle denoiser, 4000 trials).")
print("The curve models one estimator application per loop, i.e. the")
print("deterministic jump sampler; ancestral sampling re-injects noise on the")
print("way down and pays roughly twice as much — but both improve with L:")
rng = np.random.default_rng(3)
x0 = rng.standard_normal((4000, 8))
oracle = GaussianOracleDenoiser(np.zeros(8), 1.0, sched)
for L in (1, 2, 4, 8):
    per_loop = 400 // L
    jump_cfg = LoridConfig(t=400, L=L, sampler="skip", skip_k=per_loop)
    jumped, _ = lorid_purify(x0, oracle, sched, jump_cfg, np.random.default_rng(30 + L))
    walk_cfg = LoridConfig(t=400, L=L)
    walked, _ = lorid_purify(x0, oracle, sched, walk_cfg, np.random.default_rng(30 + L))
    print(f"  L={L}: jump-per-loop mse {np.mean((jumped - x0) ** 2):.4f} "
          f"(bound {curves[400][L - 1]:.4f}) | ancestral mse {np.mean((walked - x0) ** 2):.4f}")
