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
  denoiser slack plus perturbation / projection terms.

Quadrature grid: composite Simpson on [-12, 12] with 4801 nodes.  Gaussian
tails beyond the window are below 1e-12, well under every tolerance used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._nn import one_blas_thread
from .diffusion import Denoiser, GaussianSource, Schedule, diffuse, one_shot_recover
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
    """Signal-to-noise ratio of the forward process at depth t: abar/(1-abar)."""
    abar = schedule.alpha_bar_at(t)
    if t < 1:
        raise ValueError(f"depth t={t} must be >= 1 (snr diverges at t=0)")
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
    L * mmse_gaussian(snr at floor(effective_t / L)).

    The curve is not monotone in L at every depth.  Since mmse_gaussian <= 1,
    the L=1 value is at most 1, and snr(floor(effective_t / 2)) < 1 makes
    each of the two L=2 loops cost more than 1/2: there value(L=2) > 1 >=
    value(L=1), so splitting a deep pass in two loosens the bound.
    """
    if not 1 <= effective_t <= schedule.T:
        raise ValueError(f"effective_t={effective_t} outside [1, {schedule.T}]")
    points = []
    for L in L_values:
        L = int(L)
        if L < 1:
            raise ValueError(f"loop count {L} must be >= 1")
        per_loop = effective_t // L
        if per_loop < 1:
            raise ValueError(f"L={L} too large for effective_t={effective_t}: zero-depth loops")
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
    d = src1.dim
    m1, s1, m2, s2 = src1.mean, src1.cov, src2.mean, src2.cov
    abar = schedule.alpha_bar_at(np.asarray(ts))
    eye = np.eye(d)
    c1 = abar[:, None, None] * s1 + (1.0 - abar)[:, None, None] * eye
    c2 = abar[:, None, None] * s2 + (1.0 - abar)[:, None, None] * eye
    dm = np.sqrt(abar)[:, None] * (m2 - m1)
    sol = np.linalg.solve(c2, c1)
    trace = np.trace(sol, axis1=1, axis2=2)
    quad = np.einsum("bi,bi->b", dm, np.linalg.solve(c2, dm[..., None])[..., 0])
    _, logdet1 = np.linalg.slogdet(c1)
    _, logdet2 = np.linalg.slogdet(c2)
    return 0.5 * (trace + quad - d + logdet2 - logdet1)


# Rows of the push-forward kernel built at a time: 32 x 4801 doubles is 1.2 MB,
# small enough to stay in cache while the block is exponentiated and applied.
_BLOCK_ROWS = 32
# exp of an argument below about -745.13 is exactly 0.0, and numpy's exp is
# slowest where its result underflows, so arguments below this are not taken.
_EXP_FLOOR = -750.0


def _push_rows(
    out: np.ndarray, weighted: np.ndarray, x: np.ndarray, src: np.ndarray, scale: float,
    starts: range,
) -> None:
    """Fill the rows of ``out`` in the blocks that begin at ``starts``, in one buffer.

    ``x`` and ``src`` increase, so the kernel entries of a block that can be
    nonzero lie in one band of columns, those within ``reach`` of its rows;
    the rest are set to 0.0, the value their exp would give.
    """
    buf = np.empty((_BLOCK_ROWS, x.size))
    reach = math.sqrt(_EXP_FLOOR / scale)
    # Every block's band up front: Python work between the numpy calls of the
    # loop holds the interpreter lock that the other half of the rows waits on.
    first = np.asarray(starts, dtype=np.intp)
    last = np.minimum(first + _BLOCK_ROWS, x.size) - 1
    los = np.searchsorted(src, x[first] - reach).tolist()
    his = np.searchsorted(src, x[last] + reach, side="right").tolist()
    for start, lo, hi in zip(starts, los, his):
        rows = x[start : start + _BLOCK_ROWS]
        block = buf[: rows.size]
        if lo > 0 or hi < x.size:
            block[:, :lo] = 0.0
            block[:, hi:] = 0.0
        band = block[:, lo:hi]
        np.subtract(rows[:, None], src[None, lo:hi], out=band)
        np.square(band, out=band)
        band *= scale
        np.exp(band, out=band)
        np.matmul(block, weighted, out=out[start : start + rows.size])


def _push_forward(densities: np.ndarray, w: np.ndarray, x: np.ndarray, abar: float) -> np.ndarray:
    """Apply K[j, i] = w_i * N(y_j - sqrt(abar) x_i; 1 - abar) to each column.

    The weights w_i and the normalizer 1/sqrt(2 pi (1 - abar)) are folded into
    the densities once, so each block of rows costs one subtract, square,
    scale and exp over the band of columns whose entries can be nonzero, in a
    reused buffer, then a matrix product with every column.
    The caller fills every other block and one helper thread the rest, each in
    its own buffer; numpy releases the interpreter lock inside those calls, so
    the two halves run on two cores.  Every block is computed as a serial loop
    would compute it, BLAS held to one thread, so the bits do not depend on
    the split.  An error in the helper's half is raised here after the join.
    """
    # Imported here: the CLI loads this module for every command, and only this
    # function needs an executor.
    from concurrent.futures import ThreadPoolExecutor

    var = 1.0 - abar
    weighted = densities * (w / math.sqrt(2.0 * math.pi * var))[:, None]
    src = math.sqrt(abar) * x
    scale = -0.5 / var
    out = np.empty_like(densities)
    starts = range(0, x.size, _BLOCK_ROWS)
    with one_blas_thread(), ThreadPoolExecutor(max_workers=1) as pool:
        helper = pool.submit(_push_rows, out, weighted, x, src, scale, starts[1::2])
        _push_rows(out, weighted, x, src, scale, starts[::2])
        helper.result()
    return out


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
    K[j, i] = w_i N(y_j - sqrt(abar_t) x_i; 1 - abar_t), built 32 rows at a
    time, alternate blocks on the caller's thread and on one helper thread,
    each in its own reused buffer.  So the 4801 x 4801 kernel is never held,
    nothing is cached between calls, and the result is bit-identical to a
    one-thread run.  Then p log(p/q) is integrated on the same grid.  Raises
    if normalization drifts above 1e-6 at any stage (grid too coarse for the
    inputs).
    """
    if t < 0:
        raise ValueError(f"depth t={t} must be >= 0")
    x, w = quadrature_grid()
    p = _grid_density(density1, x, "density1")
    q = _grid_density(density2, x, "density2")
    for name, vals in (("density1", p), ("density2", q)):
        mass = float(vals @ w)
        if abs(mass - 1.0) > 1e-6:
            raise ValueError(f"{name} mass {mass:.8f} drifts from 1 by more than 1e-6")
    if t == 0:
        return _grid_kl(p, q, w)
    pushed = _push_forward(np.column_stack([p, q]), w, x, schedule.alpha_bar_at(t))
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
    """Measured error escaped its guaranteed sandwich."""


@dataclass(frozen=True, eq=False)
class BoundSetup:
    """Data model + denoiser + optional perturbation for :func:`verify_bounds`.

    ``mean``/``cov`` define the Gaussian source (cov scalar, diagonal vector,
    or positive semi-definite matrix; see :class:`GaussianSource`).  ``eps_a`` is a fixed perturbation added to every draw
    before recovery (None = clean).  ``basis``, when given, routes draws
    through the low-rank projection first; the data dimension must then match
    the basis layout's image size.
    """

    mean: np.ndarray
    cov: np.ndarray
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
    trials: int
    tolerance: float

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        vals = (self.lower, self.upper, self.empirical, self.delta_ddpm_est, self.tolerance)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite bound report: {vals}")


# Values (rows x dimension) diffused, recovered and scored at a time: 65 536
# doubles is 512 KB per temporary, so a chunk stays in cache and a run never
# builds a whole-trial array beyond its inputs and its errors.
_CHUNK_VALUES = 65_536


def _recovery_errors(
    x0: np.ndarray,
    x_in: np.ndarray,
    t: int,
    denoiser: Denoiser,
    schedule: Schedule,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-trial per-dimension squared error of one-shot recovery from x_in.

    Rows are diffused, recovered and scored :data:`_CHUNK_VALUES` // d at a
    time (at least one), in order, into one array of per-trial errors.  The
    chunks draw their noise in turn, so the generator yields the values one
    full-size draw would, and each error is computed as it would be on the
    whole array.
    """
    n, d = x_in.shape
    rows = max(1, _CHUNK_VALUES // d)
    err = np.empty(n)
    for start in range(0, n, rows):
        chunk = slice(start, start + rows)
        x_t, _ = diffuse(x_in[chunk], t, schedule, rng)
        x_hat = one_shot_recover(x_t, t, denoiser, schedule)
        err[chunk] = np.mean((x_hat - x0[chunk]) ** 2, axis=-1)
    return err


def verify_bounds(
    setup: BoundSetup, t: int, trials: int, rng: np.random.Generator
) -> BoundReport:
    """Measure one-shot recovery error and assert its theoretical sandwich.

    Clean setup: error lies in [mmse, mmse + delta_hat], where delta_hat =
    max(0, clean error - analytic mmse) is the estimated denoiser slack.
    With a perturbation of per-dimension RMS a: [mmse - a, mmse + delta_hat + a].
    With the projection in front, a is replaced by the summed RMS of the
    discarded-signal and surviving-perturbation terms.  All comparisons allow
    a four-standard-error statistical tolerance; violations raise
    :class:`BoundViolation` with the margins.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    schedule = setup.schedule
    source = GaussianSource(setup.mean, setup.cov)
    d = source.dim
    if setup.basis is not None:
        img_shape = setup.basis.layout.image_shape
        if d != int(np.prod(img_shape)):
            raise ValueError(f"dimension {d} does not match basis layout {img_shape}")
    mmse = source.mmse_per_dim(schedule.alpha_bar_at(t))

    # Clean companion run pins down the denoiser-slack estimate.
    x0 = source.sample(trials, rng)
    clean_err = _recovery_errors(x0, x0, t, setup.denoiser, schedule, rng)
    clean_mean = float(np.mean(clean_err))
    clean_se = float(np.std(clean_err) / math.sqrt(trials))
    delta_hat = max(0.0, clean_mean - mmse)

    if setup.eps_a is None and setup.basis is None:
        empirical, se = clean_mean, clean_se
        gap = 0.0
    else:
        x0 = source.sample(trials, rng)
        x_in = x0
        gap = 0.0
        if setup.eps_a is not None:
            eps = np.asarray(setup.eps_a, dtype=np.float64).reshape(-1)
            if eps.size != d:
                raise ValueError(f"perturbation size {eps.size} != dimension {d}")
            x_in = x_in + eps
        if setup.basis is None:
            gap = frobenius_norm(eps) / math.sqrt(d)
        else:
            imgs = x_in.reshape(trials, *setup.basis.layout.image_shape)
            x_in = tf_apply(imgs, setup.basis).reshape(trials, d)
            clean_imgs = x0.reshape(trials, *setup.basis.layout.image_shape)
            resid = x0 - tf_apply(clean_imgs, setup.basis).reshape(trials, d)
            e_tucker = float(np.mean(np.linalg.norm(resid, axis=-1))) / math.sqrt(d)
            gap = e_tucker
            if setup.eps_a is not None:
                eps_img = eps.reshape(setup.basis.layout.image_shape)
                gap += frobenius_norm(tf_apply(eps_img, setup.basis).reshape(-1)) / math.sqrt(d)
        err = _recovery_errors(x0, x_in, t, setup.denoiser, schedule, rng)
        empirical = float(np.mean(err))
        se = math.hypot(float(np.std(err) / math.sqrt(trials)), clean_se)

    tolerance = 4.0 * se
    report = BoundReport(
        lower=mmse - gap,
        upper=mmse + delta_hat + gap,
        empirical=empirical,
        delta_ddpm_est=delta_hat,
        trials=trials,
        tolerance=tolerance,
    )
    if not report.lower - tolerance <= empirical <= report.upper + tolerance:
        raise BoundViolation(
            f"measured error {empirical:.6f} outside [{report.lower:.6f}, "
            f"{report.upper:.6f}] with tolerance {tolerance:.6f} "
            f"(margins: lower {empirical - report.lower:+.6f}, "
            f"upper {report.upper - empirical:+.6f})"
        )
    return report
