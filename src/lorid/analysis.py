"""Closed-form and quadrature checks tying the purifier to estimation theory.

Everything here treats the forward diffusion at depth t as a Gaussian channel
with signal-to-noise ratio abar_t / (1 - abar_t) and per-dimension squared
error as the primary metric.  The module provides:

* the two channel MMSE functions (standard-normal input in closed form,
  symmetric-binary input by Simpson quadrature, plus a Monte Carlo oracle for
  the latter);
* the additive per-loop error curve: split a depth budget over L short loops
  and each loop contributes at most the MMSE at its own depth;
* KL divergence between the diffused versions of two source distributions,
  in closed form for Gaussians and by brute-force grid quadrature for
  arbitrary 1-D densities — both non-increasing in t, since every source
  passes through the same Markov kernel;
* a Monte Carlo bound verifier sandwiching the measured one-shot recovery
  error between its information-theoretic floor and the floor plus estimated
  denoiser slack plus perturbation / projection terms, at every depth of a
  list from one pass of draws.

Quadrature grid: composite Simpson on [-12, 12] with 4801 nodes.  Gaussian
tails beyond the window are below 1e-12, well under every tolerance used.
On this uniform grid the diffusion kernel factors as diag(a) T diag(b) with T
symmetric Toeplitz (the structure behind the fast Gauss transform, Greengard
and Strain 1991).  The KL push-forward applies it block by block; the only
kernel entries it drops are below e^-664.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .diffusion import Denoiser, GaussianSource, Schedule, _finite, diffuse, one_shot_recover
from .purify import LoridConfig
from .tensorops import frobenius_norm
from .tucker import TuckerBasis, tf_apply

__all__ = [
    "GRID_LO",
    "GRID_HI",
    "GRID_NODES",
    "quadrature_grid",
    "mmse_gaussian",
    "mmse_binary",
    "mmse_binary_monte_carlo",
    "effective_snr",
    "CurvePoint",
    "loop_bound_curve",
    "kl_gaussian_curve",
    "kl_quadrature_forward",
    "BoundSetup",
    "BoundReport",
    "BoundViolation",
    "verify_bounds",
]

GRID_LO = -12.0
GRID_HI = 12.0
GRID_NODES = 4801


def _simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights for n equally spaced nodes (n odd)."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"Simpson rule needs an odd node count >= 3, got {n}")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def quadrature_grid(n: int = GRID_NODES) -> tuple[np.ndarray, np.ndarray]:
    """The module's standard grid and Simpson weights on [-12, 12]."""
    x = np.linspace(GRID_LO, GRID_HI, n)
    return x, _simpson_weights(n, x[1] - x[0])


# ---------------------------------------------------------------------------
# MMSE of the scaled Gaussian channel y = sqrt(snr) x + z.
# ---------------------------------------------------------------------------


def mmse_gaussian(snr):
    """MMSE for a standard-normal input: 1 / (1 + snr).  Scalar or array.

    snr = inf gives the limit 0; a negative or NaN snr raises ValueError.
    """
    snr = np.asarray(snr, dtype=np.float64)
    if not np.all(snr >= 0):
        raise ValueError("snr must be nonnegative and not NaN")
    out = 1.0 / (1.0 + snr)
    return float(out) if out.ndim == 0 else out


def _binary_integral(snr: np.ndarray, nodes: int) -> np.ndarray:
    y, w = quadrature_grid(nodes)
    phi = np.exp(-0.5 * y**2) / math.sqrt(2.0 * math.pi)
    root = np.sqrt(snr)[..., None]
    integrand = phi * np.tanh(snr[..., None] - root * y)
    return integrand @ w


def mmse_binary(snr):
    """MMSE for a uniform {-1, +1} input, by quadrature.  Scalar or array.

    Equals 1 - E_Y[tanh(snr - sqrt(snr) Y)] with Y standard normal; exactly 1
    at snr = 0 (the integrand vanishes identically), and never larger than the
    Gaussian-input value at the same snr.  Raises if halving the node count
    moves the result by more than 1e-9 (quadrature not converged).
    The quadrature cannot evaluate snr = inf, so a non-finite or negative snr
    raises ValueError.
    """
    arr = np.asarray(snr, dtype=np.float64)
    if not np.all((arr >= 0) & np.isfinite(arr)):
        raise ValueError("snr must be finite and nonnegative")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    full = 1.0 - _binary_integral(arr, GRID_NODES)
    half = 1.0 - _binary_integral(arr, (GRID_NODES - 1) // 2 + 1)
    drift = np.max(np.abs(full - half))
    if drift > 1e-9:
        raise RuntimeError(f"quadrature not converged: half-resolution drift {drift:.3e}")
    out = np.clip(full, 0.0, 1.0)
    return float(out[0]) if scalar else out


def mmse_binary_monte_carlo(snr: float, trials: int, rng: np.random.Generator) -> float:
    """Monte Carlo oracle for :func:`mmse_binary`.

    Simulates y = sqrt(snr) x + z with x uniform on {-1, +1}, applies the
    posterior mean tanh(sqrt(snr) y), and averages the squared error.
    Antithetic noise pairs (z, -z) cut the variance enough that 1e6 draws
    settle the value to a few 1e-4.
    """
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    if trials < 2:
        raise ValueError("need at least 2 trials")
    half = trials // 2
    x = rng.choice([-1.0, 1.0], size=half)
    z = rng.standard_normal(half)
    root = math.sqrt(snr)
    err_pos = (x - np.tanh(snr * x + root * z)) ** 2
    err_neg = (x - np.tanh(snr * x - root * z)) ** 2
    return float(np.mean(0.5 * (err_pos + err_neg)))


def effective_snr(schedule: Schedule, t: int) -> float:
    """Signal-to-noise ratio abar/(1-abar) of the forward process at a depth t
    in [1, T], checked by :meth:`Schedule._check_step` (it diverges at t = 0)."""
    abar = schedule._abar[schedule._check_step(t, 1)]
    return abar / (1.0 - abar)


# ---------------------------------------------------------------------------
# Split-the-budget error curve.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvePoint:
    """One point of the loop-splitting curve.

    ``t_over_L`` is the per-loop depth floor(t / L); ``effective_t`` the depth
    actually consumed, L * t_over_L; ``value`` the summed per-loop MMSE."""

    L: int
    t_over_L: int
    effective_t: int
    value: float


def loop_bound_curve(
    schedule: Schedule, effective_t: int, L_values: Sequence[int]
) -> list[CurvePoint]:
    """Additive error bound for splitting depth ``effective_t`` over L loops.

    Each of the L loops runs at depth floor(effective_t / L) and contributes
    at most the standard-normal MMSE at that depth, so the curve value is
    L * mmse_gaussian(snr at floor(effective_t / L)).  The split is the
    purifier's: a valid ``LoridConfig(effective_t, L)`` and its ``per_loop_t``.

    The curve is not monotone in L at every depth.  Since mmse_gaussian <= 1,
    the L=1 value is at most 1, and snr(floor(effective_t / 2)) < 1 makes
    each of the two L=2 loops cost more than 1/2: there value(L=2) > 1 >=
    value(L=1), so splitting a deep pass in two loosens the bound.
    """
    points = []
    for L in L_values:
        split = LoridConfig(effective_t, L)
        split.validate(schedule)
        per_loop = split.per_loop_t
        value = L * mmse_gaussian(effective_snr(schedule, per_loop))
        points.append(CurvePoint(L=L, t_over_L=per_loop, effective_t=L * per_loop, value=value))
    return points


# ---------------------------------------------------------------------------
# KL divergence between diffused source distributions.
# ---------------------------------------------------------------------------


def kl_gaussian_curve(p1, p2, schedule: Schedule, ts: Sequence[int]) -> np.ndarray:
    """Closed-form KL between the depth-t versions of two Gaussians, batched over t.

    The depth-t distribution of N(m, S) is N(sqrt(abar_t) m, abar_t S +
    (1 - abar_t) I); t = 0 means the sources themselves.  Each source is a
    ``(mean, cov)`` pair read by :class:`GaussianSource`, and its covariance
    must also be positive definite.
    """
    src1, src2 = GaussianSource(*p1), GaussianSource(*p2)
    for name, src in (("p1", src1), ("p2", src2)):
        if src.eigvals.min() <= 0.0:
            raise ValueError(f"{name}: covariance must be positive definite")
    if src1.dim != src2.dim:
        raise ValueError(f"dimension mismatch: {src1.dim} vs {src2.dim}")
    # In the eigenbasis V2 of source 2 both depth-t covariances have the
    # diagonal abar * g + 1 - abar, and the second is diagonal there.
    v2 = np.eye(src2.dim) if src2.eigvecs is None else src2.eigvecs
    g1 = np.einsum("ji,jk,ki->i", v2, src1.cov, v2)
    dm2 = (v2.T @ (src2.mean - src1.mean)) ** 2
    abar = schedule.alpha_bar_at(ts)[:, None]
    c2 = abar * src2.eigvals + (1.0 - abar)
    trace = np.sum((abar * g1 + (1.0 - abar)) / c2, axis=1)
    quad = np.sum(abar * dm2 / c2, axis=1)
    logdet1 = np.sum(np.log(abar * src1.eigvals + (1.0 - abar)), axis=1)
    logdet2 = np.sum(np.log(c2), axis=1)
    return 0.5 * (trace + quad - src1.dim + logdet2 - logdet1)


# The Toeplitz factor of the push-forward kernel is applied in square blocks of
# this size: one 128 x 128 block (128 KB) per block offset, copied from the
# factor's values and used in one matrix product against every column block.
_BLOCK = 128
# Toeplitz factor entries whose exponent is below this are set to 0.0, never to
# a subnormal: matrix products over subnormals are slow (with the factor
# clamped to e^-745 in place of 0.0, one t=1 push-forward took 287 ms against
# 1.1 ms), and a block of zeros is skipped.  The kernel entries dropped are
# below e^-664 ~ 1e-288, since the diagonal factors give a_j b_i <= e^36 on
# [-12, 12].
_EXP_FLOOR = -700.0


def _push_forward(densities: np.ndarray, w: np.ndarray, x: np.ndarray, abar: float) -> np.ndarray:
    """Apply K[j, i] = w_i * N(x_j - sqrt(abar) x_i; 1 - abar) to each column.

    The grid ``x`` must be uniform, as :func:`quadrature_grid` is.  With
    s = sqrt(abar), var = 1 - abar and x_j - x_i = (j - i) h,

        (x_j - s x_i)^2 / (2 var) = x_j^2 / (2 (1 + s)) - s x_i^2 / (2 (1 + s))
                                    + s h^2 (j - i)^2 / (2 var),

    so K = diag(a) T diag(b w) with T[j, i] = g(|j - i|) symmetric Toeplitz,
    and a push-forward takes n + n + about n exponentials in place of n^2.
    The diagonal factors' coefficient (1 - s) / (2 var) is written
    1 / (2 (1 + s)), which needs no subtraction as abar -> 1, and h is the
    step np.linspace takes, (x[-1] - x[0]) / (n - 1): with x[1] - x[0] the
    relative error reaches 1.7e-11 at t=100.  T is applied in 128 x 128 blocks: one
    block per block offset with an entry above the exp floor, copied from a
    sliding window over g and used in one matrix product against every
    column block of b w densities.
    """
    n, cols = densities.shape
    var = 1.0 - abar
    s = math.sqrt(abar)
    h = (x[-1] - x[0]) / (n - 1)
    blocks = -(-n // _BLOCK)
    size = blocks * _BLOCK
    x2 = np.square(x) * (0.5 / (1.0 + s))
    weighted = np.zeros((size, cols))
    weighted[:n] = densities * (np.exp(s * x2) * w / math.sqrt(2.0 * math.pi * var))[:, None]
    arg = np.square(np.arange(size) * h) * (-0.5 * s / var)
    kept = int(np.count_nonzero(arg >= _EXP_FLOOR))  # arg falls with the offset
    g = np.zeros(size)
    g[:kept] = np.exp(arg[:kept])
    reach = min(blocks - 1, (kept + _BLOCK - 2) // _BLOCK)  # last offset with g > 0 inside
    # windows[k, c] = g(|k + c - (size - 1)|), so T's block at row block J and
    # column block J - d is windows[size - 1 - d * _BLOCK - r] for rows r.
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([g[:0:-1], g]), _BLOCK)
    # Column block I of the weighted densities is rhs[:, I, :].
    rhs = weighted.reshape(blocks, _BLOCK, cols).transpose(1, 0, 2).copy()
    acc = np.zeros_like(rhs)
    block = np.empty((_BLOCK, _BLOCK))
    for d in range(-reach, reach + 1):
        top = size - 1 - d * _BLOCK
        np.copyto(block, windows[top - _BLOCK + 1 : top + 1][::-1])
        lo, hi = max(0, d), blocks + min(0, d)  # row blocks J with J - d in range
        prod = block @ rhs[:, lo - d : hi - d].reshape(_BLOCK, -1)
        acc[:, lo:hi] += prod.reshape(_BLOCK, hi - lo, cols)
    return acc.transpose(1, 0, 2).reshape(size, cols)[:n] * np.exp(-x2)[:, None]


def _grid_density(density, x: np.ndarray, name: str) -> np.ndarray:
    if callable(density):
        vals = np.asarray(density(x), dtype=np.float64)
    else:
        vals = np.asarray(density, dtype=np.float64)
    if vals.shape != x.shape:
        raise ValueError(f"{name}: expected {x.size} grid values, got shape {vals.shape}")
    if np.any(vals < 0):
        raise ValueError(f"{name}: density must be nonnegative")
    return vals


def _grid_kl(p: np.ndarray, q: np.ndarray, w: np.ndarray) -> float:
    tiny = 1e-300
    integrand = np.where(p > tiny, p * np.log(np.maximum(p, tiny) / np.maximum(q, tiny)), 0.0)
    return float(integrand @ w)


def kl_quadrature_forward(
    density1: Callable | np.ndarray,
    density2: Callable | np.ndarray,
    schedule: Schedule,
    t: int,
) -> float:
    """Brute-force KL between the depth-t versions of two 1-D densities.

    Densities are given on the standard grid (as callables or value arrays,
    normalized there to within 1e-6).  Both are pushed through the depth-t
    channel together by Simpson quadrature against the scaled Gaussian kernel
    K[j, i] = w_i N(y_j - sqrt(abar_t) x_i; 1 - abar_t).  On the uniform grid
    K factors into two diagonals around a symmetric Toeplitz matrix (see
    :func:`_push_forward`), so a push-forward exponentiates about 3 x 4801
    values, not 4801^2; the kernel is never held and nothing is cached between
    calls.  Then p log(p/q) is integrated on the same grid.
    Raises if normalization drifts above 1e-6 at any stage (grid too coarse
    for the inputs).
    """
    schedule._check_step(t, 0)
    x, w = quadrature_grid()
    p = _grid_density(density1, x, "density1")
    q = _grid_density(density2, x, "density2")
    for name, vals in (("density1", p), ("density2", q)):
        mass = float(vals @ w)
        if abs(mass - 1.0) > 1e-6:
            raise ValueError(f"{name} mass {mass:.8f} drifts from 1 by more than 1e-6")
    if t == 0:
        return _grid_kl(p, q, w)
    pushed = _push_forward(np.column_stack([p, q]), w, x, schedule._abar[t])
    p_t, q_t = pushed[:, 0], pushed[:, 1]
    for name, vals in (("pushforward of density1", p_t), ("pushforward of density2", q_t)):
        mass = float(vals @ w)
        if abs(mass - 1.0) > 1e-6:
            raise ValueError(f"{name} mass {mass:.8f} drifts from 1 by more than 1e-6")
    return _grid_kl(p_t, q_t, w)


# ---------------------------------------------------------------------------
# Monte Carlo bound verification for one-shot recovery.
# ---------------------------------------------------------------------------


class BoundViolation(RuntimeError):
    """A numerical check failed, such as a measured error that escaped its
    guaranteed sandwich; the message carries the margins."""


@dataclass(frozen=True, eq=False)
class BoundSetup:
    """Data model + denoiser + optional perturbation for :func:`verify_bounds`.

    ``source`` is the Gaussian the clean draws come from; for an oracle
    denoiser, pass the oracle's own ``oracle.source``.  ``eps_a`` is a fixed
    perturbation added to every draw before recovery (None = clean).
    ``basis``, when given, routes draws through the low-rank projection first;
    the data dimension must then match the basis layout's image size.
    """

    source: GaussianSource
    denoiser: Denoiser
    schedule: Schedule
    eps_a: np.ndarray | None = None
    basis: TuckerBasis | None = None


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound verification run (per-dimension squared error)."""

    lower: float
    upper: float
    empirical: float
    delta_ddpm_est: float
    tolerance: float

    def __post_init__(self) -> None:
        vals = (self.lower, self.upper, self.empirical, self.delta_ddpm_est, self.tolerance)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite bound report: {vals}")


# Values (rows x dimension) drawn, diffused, recovered and scored at a time:
# 65 536 doubles is 512 KB per temporary, so a chunk stays in cache and a run
# never builds a whole-trial array beyond its per-depth errors.
_CHUNK_VALUES = 65_536


def _recovery_errors(
    setup: BoundSetup,
    ts: tuple[int, ...],
    trials: int,
    rng: np.random.Generator,
    shift: np.ndarray | None = None,
    basis: TuckerBasis | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-depth per-trial squared error of one-shot recovery, shape (len(ts), trials).

    Trials run :data:`_CHUNK_VALUES` // d at a time (at least one), in order.
    Each chunk draws its clean rows x0 from ``setup.source``, then one noise
    array that diffuses them to every depth, so the draws do not depend on
    ``ts``.  The recovery starts from x0 + ``shift``, projected by ``basis``
    when one is given; that input is built once per chunk.  With a basis the
    per-trial norms of x0 - TF(x0) come back too (else None).
    """
    d = setup.source.dim
    rows = max(1, _CHUNK_VALUES // d)
    err = np.empty((len(ts), trials))
    resid = None if basis is None else np.empty(trials)
    for start in range(0, trials, rows):
        chunk = slice(start, min(start + rows, trials))
        n = chunk.stop - start
        x0 = setup.source.sample(n, rng)
        noise = rng.standard_normal((n, d))
        x_in = x0 if shift is None else x0 + shift
        if basis is not None:
            shape = (n, *basis.layout.image_shape)
            x_in = tf_apply(x_in.reshape(shape), basis).reshape(n, d)
            projected = tf_apply(x0.reshape(shape), basis).reshape(n, d)
            resid[chunk] = np.linalg.norm(x0 - projected, axis=-1)
        for i, t in enumerate(ts):
            x_t = diffuse(x_in, t, setup.schedule, noise)
            x_hat = one_shot_recover(x_t, t, setup.denoiser, setup.schedule)
            err[i, chunk] = np.mean((x_hat - x0) ** 2, axis=-1)
    return err, resid


def verify_bounds(
    setup: BoundSetup, ts: Sequence[int], trials: int, rng: np.random.Generator
) -> list[BoundReport]:
    """Measure one-shot recovery error at each depth of ``ts`` and assert its
    theoretical sandwich there; one report per depth, in order.

    Clean setup: error lies in [mmse, mmse + delta_hat], where delta_hat =
    max(0, clean error - analytic mmse) is the estimated denoiser slack.
    With a perturbation of per-dimension RMS a: [mmse - a, mmse + delta_hat + a].
    With the projection in front, a is replaced by the summed RMS of the
    discarded-signal and surviving-perturbation terms.  All comparisons allow
    a four-standard-error statistical tolerance; a violation raises
    :class:`BoundViolation` naming the first depth that failed, with the
    margins.

    Every depth reads the same draws (common random numbers): one pass of
    trials for the clean companion run and, with a perturbation or a basis,
    one more for the perturbed run, each draw serving every depth.  A depth's
    report is therefore the one a call with that depth alone would give.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    ts = tuple(ts)
    if not ts:
        raise ValueError("need at least one depth")
    schedule = setup.schedule
    schedule._check_step(ts, 1)  # refuses a depth that is not an integer in [1, T]
    d = setup.source.dim
    shift = None
    if setup.eps_a is not None:
        shift = _finite(setup.eps_a, "perturbation eps_a").reshape(-1)
        if shift.size != d:
            raise ValueError(f"perturbation size {shift.size} != dimension {d}")
    if setup.basis is not None:
        img_shape = setup.basis.layout.image_shape
        if d != int(np.prod(img_shape)):
            raise ValueError(f"dimension {d} does not match basis layout {img_shape}")
    mmses = [setup.source.mmse_per_dim(schedule.alpha_bar_at(t)) for t in ts]

    # Clean companion run pins down the denoiser-slack estimate.
    clean_err, _ = _recovery_errors(setup, ts, trials, rng)
    perturbed = shift is not None or setup.basis is not None
    gap = 0.0
    if perturbed:
        err, resid = _recovery_errors(setup, ts, trials, rng, shift, setup.basis)
        if setup.basis is None:
            gap = frobenius_norm(shift) / math.sqrt(d)
        else:
            gap = float(np.mean(resid)) / math.sqrt(d)
            if shift is not None:
                projected = tf_apply(shift.reshape(img_shape), setup.basis).reshape(-1)
                gap += frobenius_norm(projected) / math.sqrt(d)

    reports = []
    for i, (t, mmse) in enumerate(zip(ts, mmses)):
        clean_mean = float(np.mean(clean_err[i]))
        clean_se = float(np.std(clean_err[i]) / math.sqrt(trials))
        delta_hat = max(0.0, clean_mean - mmse)
        if perturbed:
            empirical = float(np.mean(err[i]))
            se = math.hypot(float(np.std(err[i]) / math.sqrt(trials)), clean_se)
        else:
            empirical, se = clean_mean, clean_se
        tolerance = 4.0 * se
        report = BoundReport(
            lower=mmse - gap,
            upper=mmse + delta_hat + gap,
            empirical=empirical,
            delta_ddpm_est=delta_hat,
            tolerance=tolerance,
        )
        if not report.lower - tolerance <= empirical <= report.upper + tolerance:
            raise BoundViolation(
                f"t={t}: measured error {empirical:.6f} outside [{report.lower:.6f}, "
                f"{report.upper:.6f}] with tolerance {tolerance:.6f} "
                f"(margins: lower {empirical - report.lower:+.6f}, "
                f"upper {report.upper - empirical:+.6f})"
            )
        reports.append(report)
    return reports
