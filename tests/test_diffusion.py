"""Forward corruption, reverse samplers, the Gaussian oracle, and MLP training."""

import math

import numpy as np
import pytest

from lorid import _nn
from lorid.diffusion import (
    GaussianOracleDenoiser,
    GaussianSource,
    MlpDenoiser,
    MlpTrainConfig,
    Schedule,
    default_schedule,
    diffuse,
    make_linear_schedule,
    one_shot_recover,
    reverse_ancestral,
    reverse_skip,
    train_mlp_denoiser,
)
from lorid.diffusion import N_TIME_FEATURES, _time_features

# Hand-checked cumulative products of (1 - beta) for the default linear
# schedule, computed independently with mpmath at 30 digits and rounded.
ABAR_DEFAULT = {
    1: 0.9999,
    50: 0.97101572293944,
    100: 0.89701814567496,
    200: 0.659038508231794,
    500: 0.0785872428817782,
    1000: 4.03582976537568e-05,
}


class _EchoNoise:
    """Denoiser stub that returns a stored noise array regardless of t."""

    def __init__(self, eps):
        self.eps = eps

    def predict_eps(self, x_t, t):
        return self.eps


class _ZeroNoise:
    def predict_eps(self, x_t, t):
        return np.zeros_like(x_t)


class TestSchedule:
    def test_default_frozen_alpha_bars(self):
        sched = default_schedule()
        assert sched.T == 1000
        for t, expected in ABAR_DEFAULT.items():
            np.testing.assert_allclose(sched.alpha_bar_at(t), expected, rtol=1e-13)

    def test_alpha_bar_at_zero_is_one(self):
        assert default_schedule().alpha_bar_at(0) == 1.0

    def test_beta_endpoints(self):
        """beta holds beta_1..beta_T: the ends are the linear schedule's ends."""
        sched = default_schedule()
        assert sched.beta.shape == sched.alpha.shape == (1000,)
        np.testing.assert_allclose(sched.beta[0], 1e-4, rtol=1e-15)
        np.testing.assert_allclose(sched.beta[-1], 0.02, rtol=1e-15)
        np.testing.assert_allclose(sched.alpha[[0, -1]], [1 - 1e-4, 1 - 0.02], rtol=1e-15)

    def test_alpha_bar_strictly_decreasing(self):
        sched = make_linear_schedule(250, 1e-4, 0.02)
        assert np.all(np.diff(sched.alpha_bar) < 0.0)

    def test_alpha_bar_is_cumprod(self):
        sched = make_linear_schedule(50, 1e-3, 0.01)
        np.testing.assert_allclose(sched.alpha_bar, np.cumprod(1.0 - sched.beta), rtol=1e-15)

    def test_step_bounds(self):
        """alpha_bar_at reads steps 0..T and refuses the steps on either side."""
        sched = make_linear_schedule(10, 1e-4, 0.02)
        assert sched.alpha_bar_at(10) == sched.alpha_bar[-1]
        for t in (-1, 11):
            with pytest.raises(ValueError, match=rf"step {t} outside \[0, 10\]"):
                sched.alpha_bar_at(t)

    def test_fractional_steps_refused(self):
        """A step that is not an integer is refused, not truncated to the one below;
        integral floats and numpy integers are steps, for alpha_bar_at and for the
        per-step tables a sampler reads."""
        sched = make_linear_schedule(10, 1e-4, 0.02)
        for t in (2.5, 2.999, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="is not an integer"):
                sched.alpha_bar_at(t)
        x = np.random.default_rng(303).standard_normal(3)
        for t in (2.0, np.int64(2), np.float64(2.0)):
            assert sched.alpha_bar_at(t) == sched.alpha_bar_at(2)
            np.testing.assert_array_equal(
                reverse_ancestral(x, t, _EchoNoise(x), sched, np.random.default_rng(4)),
                reverse_ancestral(x, 2, _EchoNoise(x), sched, np.random.default_rng(4)),
            )

    def test_array_of_steps_read_at_once(self):
        """An array of steps reads every abar_t in one go, under the scalar rule."""
        sched = make_linear_schedule(10, 1e-4, 0.02)
        steps = np.array([0, 2, 10, 2])
        expected = [sched.alpha_bar_at(int(t)) for t in steps]
        assert sched.alpha_bar_at(steps).tolist() == expected
        assert sched.alpha_bar_at(steps.astype(np.float64)).tolist() == expected
        for bad, message in ((2.5, "step 2.5 is not an integer"),
                             (math.nan, "step nan is not an integer"),
                             (math.inf, "step inf is not an integer"),
                             (11.0, r"step 11.0 outside \[0, 10\]")):
            with pytest.raises(ValueError, match=message):
                sched.alpha_bar_at(np.array([1.0, bad, 12.0]))

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            make_linear_schedule(0, 1e-4, 0.02)
        with pytest.raises(ValueError):
            make_linear_schedule(10, 0.0, 0.02)
        with pytest.raises(ValueError):
            make_linear_schedule(10, 0.02, 1e-4)  # start > end
        for beta in (np.array([]), np.full((2, 2), 0.1), np.array([0.1, 1.0]),
                     np.array([0.1, 0.0]), np.array([0.1, np.nan])):
            with pytest.raises(ValueError):
                Schedule(beta)

    def test_alpha_bar_1_rounding_to_one_refused(self):
        """A beta_1 too small to move abar_1 off 1 in float64 would divide by
        1 - abar_1 = 0 in the first reverse step; the schedule refuses it."""
        for beta in ([1e-20, 0.1], [1e-17]):
            with pytest.raises(ValueError, match="strictly decreasing from alpha_bar_0 = 1"):
                Schedule(beta)

    def test_derived_from_beta(self):
        """T, alpha and alpha_bar come from beta alone, for a non-linear beta too."""
        beta = np.linspace(0.01, 0.1, 20) ** 2
        sched = Schedule(beta)
        assert sched.T == 20
        np.testing.assert_array_equal(sched.beta, beta)
        np.testing.assert_array_equal(sched.alpha, 1.0 - beta)
        np.testing.assert_array_equal(sched.alpha_bar, np.cumprod(1.0 - beta))


def _abar_ref(sched, s):
    return 1.0 if s == 0 else float(sched.alpha_bar[s - 1])


def _diffuse_ref(x0, t, sched, rng):
    ab = _abar_ref(sched, t)
    eps0 = rng.standard_normal(x0.shape)
    return math.sqrt(ab) * x0 + math.sqrt(1.0 - ab) * eps0, eps0


def _one_shot_ref(x_t, t, denoiser, sched):
    ab = _abar_ref(sched, t)
    return x_t / math.sqrt(ab) - math.sqrt((1.0 - ab) / ab) * denoiser.predict_eps(x_t, t)


def _ancestral_ref(x, t, denoiser, sched, rng):
    for s in range(t, 0, -1):
        beta, alpha, ab_s = float(sched.beta[s - 1]), float(sched.alpha[s - 1]), _abar_ref(sched, s)
        eps_hat = denoiser.predict_eps(x, s)
        x = (x - beta / math.sqrt(1.0 - ab_s) * eps_hat) / math.sqrt(alpha)
        if s > 1:
            sigma = math.sqrt(beta * (1.0 - _abar_ref(sched, s - 1)) / (1.0 - ab_s))
            x = x + sigma * rng.standard_normal(x.shape)
    return x


def _skip_ref(x, t, k, denoiser, sched):
    s = t
    while s > 0:
        target = max(s - k, 0)
        ab_s, ab_g = _abar_ref(sched, s), _abar_ref(sched, target)
        eps_hat = denoiser.predict_eps(x, s)
        coef = math.sqrt((1.0 - ab_g) / ab_g) - math.sqrt((1.0 - ab_s) / ab_s)
        x = math.sqrt(ab_g / ab_s) * x + math.sqrt(ab_g) * coef * eps_hat
        s = target
    return x


class TestStepTables:
    """The samplers walk step lists built once per chain; these loops compute
    every coefficient inline, step by step, from beta, alpha and alpha_bar."""

    @pytest.mark.parametrize("beta", [
        np.linspace(1e-4, 0.02, 10), np.linspace(1e-4, 0.02, 250), np.linspace(1e-4, 0.02, 1000),
        np.linspace(0.01, 0.14, 60) ** 2,
    ], ids=["T10", "T250", "T1000", "quadratic-T60"])
    def test_samplers_equal_per_step_formulas(self, beta):
        sched = Schedule(beta)
        T = sched.T
        oracle = GaussianOracleDenoiser(np.linspace(-1.0, 1.0, 4), [0.3, 1.0, 2.0, 0.5], sched)
        for t in sorted({1, 2, 3, 7, T // 2, T}):
            x0 = np.random.default_rng([T, t]).standard_normal((3, 4))
            eps0 = np.random.default_rng(t).standard_normal(x0.shape)
            x_t = diffuse(x0, t, sched, eps0)
            ref_t, ref_eps = _diffuse_ref(x0, t, sched, np.random.default_rng(t))
            np.testing.assert_array_equal(x_t, ref_t)
            np.testing.assert_array_equal(eps0, ref_eps)
            np.testing.assert_array_equal(one_shot_recover(x_t, t, oracle, sched),
                                          _one_shot_ref(x_t, t, oracle, sched))
            np.testing.assert_array_equal(
                reverse_ancestral(x_t, t, oracle, sched, np.random.default_rng(t + 1)),
                _ancestral_ref(x_t, t, oracle, sched, np.random.default_rng(t + 1)))
            for k in sorted({1, 3, t}):
                np.testing.assert_array_equal(reverse_skip(x_t, t, k, oracle, sched),
                                              _skip_ref(x_t, t, k, oracle, sched))

    @pytest.mark.parametrize("bad", [0, 11, 2.5, math.nan], ids=["0", "T+1", "2.5", "nan"])
    def test_every_sampler_refuses_a_bad_depth(self, bad):
        """Each sampler checks its depth against [1, T] once, naming the step."""
        sched = make_linear_schedule(10, 1e-4, 0.02)
        x = np.zeros(2)
        calls = {
            "diffuse": lambda: diffuse(x, bad, sched, np.zeros(2)),
            "one_shot_recover": lambda: one_shot_recover(x, bad, _ZeroNoise(), sched),
            "reverse_ancestral": lambda: reverse_ancestral(
                x, bad, _ZeroNoise(), sched, np.random.default_rng(0)),
            "reverse_skip": lambda: reverse_skip(x, bad, 1, _ZeroNoise(), sched),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError, match=rf"^step {bad} (outside|is not)"):
                call()

    def test_one_step_check_per_call(self, monkeypatch):
        """A sampler call validates its depth once, however many steps it takes."""
        sched = make_linear_schedule(50, 1e-4, 0.02)
        seen = []
        check = Schedule._check_step
        monkeypatch.setattr(Schedule, "_check_step",
                            lambda self, t, low: seen.append(t) or check(self, t, low))
        x = np.zeros(2)
        diffuse(x, 40, sched, np.zeros(2))
        one_shot_recover(x, 40, _ZeroNoise(), sched)
        reverse_ancestral(x, 40, _ZeroNoise(), sched, np.random.default_rng(0))
        reverse_skip(x, 40, 3, _ZeroNoise(), sched)
        assert seen == [40, 40, 40, 40]

    def test_training_loss_reads_alpha_bar_at(self, monkeypatch):
        """The denoiser's loss reads abar through alpha_bar_at, the one home of
        the abar_0 = 1 rule."""
        sched = make_linear_schedule(30, 1e-3, 0.05)
        seen = []
        read = Schedule.alpha_bar_at
        monkeypatch.setattr(Schedule, "alpha_bar_at",
                            lambda self, t: seen.append(np.copy(t)) or read(self, t))
        data = np.random.default_rng(305).standard_normal((16, 2))
        train_mlp_denoiser(data, sched, MlpTrainConfig(hidden=(4,), epochs=1, batch_size=8),
                           np.random.default_rng(6))
        assert seen and all(np.ndim(t) == 1 for t in seen)


class TestDiffuse:
    def test_reproduces_affine_identity(self):
        """x_t equals sqrt(abar) x0 + sqrt(1 - abar) eps0 with the given draw."""
        sched = default_schedule()
        rng = np.random.default_rng(301)
        x0 = rng.standard_normal(12)
        eps0 = np.random.default_rng(55).standard_normal(12)
        for t in (1, 200, 1000):
            x_t = diffuse(x0, t, sched, eps0)
            ab = sched.alpha_bar_at(t)
            np.testing.assert_allclose(
                x_t, math.sqrt(ab) * x0 + math.sqrt(1 - ab) * eps0, rtol=0, atol=1e-15
            )

    def test_marginal_statistics(self):
        """Sample mean and variance of x_t track the schedule coefficients."""
        sched = default_schedule()
        rng = np.random.default_rng(302)
        x0 = np.full(4, 2.0)
        t = 400
        draws = np.array([diffuse(x0, t, sched, rng.standard_normal(4)) for _ in range(4000)])
        ab = sched.alpha_bar_at(t)
        np.testing.assert_allclose(draws.mean(), math.sqrt(ab) * 2.0, rtol=0.05)
        np.testing.assert_allclose(draws.var(), 1.0 - ab, rtol=0.08)

    def test_t_zero_rejected(self):
        with pytest.raises(ValueError):
            diffuse(np.zeros(3), 0, default_schedule(), np.zeros(3))

    @pytest.mark.parametrize("x_shape, eps_shape",
                             [((5, 3), (3,)), ((5, 3), (1, 3)), ((3,), (5, 3))],
                             ids=["row-for-batch", "one-row-batch", "batch-for-row"])
    def test_noise_of_another_shape_refused(self, x_shape, eps_shape):
        """Noise that would broadcast, such as one row's draw for a batch, is refused."""
        with pytest.raises(ValueError, match=r"^noise shape .* differs from the input's"):
            diffuse(np.zeros(x_shape), 10, default_schedule(), np.zeros(eps_shape))


class TestOneShotRecover:
    def test_exact_inverse_with_true_noise(self):
        """Feeding back the actual injected noise recovers x0 to machine precision."""
        sched = default_schedule()
        rng = np.random.default_rng(310)
        x0 = rng.standard_normal(8)
        for t in (1, 100, 500, 1000):
            eps0 = rng.standard_normal(8)
            x_t = diffuse(x0, t, sched, eps0)
            back = one_shot_recover(x_t, t, _EchoNoise(eps0), sched)
            np.testing.assert_allclose(back, x0, rtol=0, atol=1e-9)

    def test_oracle_hits_analytic_mmse(self):
        """Per-dimension squared error of the oracle matches 1 - abar for white data."""
        sched = default_schedule()
        oracle = GaussianOracleDenoiser(np.zeros(8), 1.0, sched)
        rng = np.random.default_rng(311)
        t = 200
        n = 20000
        x0 = rng.standard_normal((n, 8))
        ab = sched.alpha_bar_at(t)
        eps = rng.standard_normal((n, 8))
        x_t = math.sqrt(ab) * x0 + math.sqrt(1 - ab) * eps
        x0_hat = one_shot_recover(x_t, t, oracle, sched)
        measured = np.mean((x0_hat - x0) ** 2)
        np.testing.assert_allclose(measured, oracle.source.mmse_per_dim(ab), rtol=0.03)


class TestReverseAncestral:
    def test_final_step_adds_no_noise(self):
        """From t = 1 the update is deterministic (posterior variance is zero)."""
        sched = default_schedule()
        rng = np.random.default_rng(320)
        x1 = rng.standard_normal(6)
        eps_hat = rng.standard_normal(6)
        out1 = reverse_ancestral(x1, 1, _EchoNoise(eps_hat), sched, np.random.default_rng(1))
        out2 = reverse_ancestral(x1, 1, _EchoNoise(eps_hat), sched, np.random.default_rng(2))
        np.testing.assert_array_equal(out1, out2)
        beta = float(sched.beta[0])
        ab1 = sched.alpha_bar_at(1)
        expect = (x1 - beta / math.sqrt(1 - ab1) * eps_hat) / math.sqrt(float(sched.alpha[0]))
        np.testing.assert_allclose(out1, expect, rtol=0, atol=1e-15)

    def test_same_seed_same_trajectory(self):
        sched = default_schedule()
        oracle = GaussianOracleDenoiser(np.zeros(4), 1.0, sched)
        x = np.random.default_rng(321).standard_normal(4)
        a = reverse_ancestral(x, 50, oracle, sched, np.random.default_rng(99))
        b = reverse_ancestral(x, 50, oracle, sched, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    def test_oracle_chain_contracts_toward_clean_signal(self):
        """Running the chain from a diffused state lands near x0 for peaked data."""
        sched = default_schedule()
        mean = np.full(4, 3.0)
        oracle = GaussianOracleDenoiser(mean, 0.01, sched)
        rng = np.random.default_rng(322)
        errs_before, errs_after = [], []
        for _ in range(60):
            x0 = mean + 0.1 * rng.standard_normal(4)
            x_t = diffuse(x0, 200, sched, rng.standard_normal(4))
            out = reverse_ancestral(x_t, 200, oracle, sched, rng)
            errs_before.append(np.mean((x_t - x0) ** 2))
            errs_after.append(np.mean((out - x0) ** 2))
        assert np.mean(errs_after) < 0.2 * np.mean(errs_before)


class TestReverseSkip:
    def test_full_jump_equals_one_shot(self):
        """k = t collapses the sampler to the direct one-shot inversion."""
        sched = default_schedule()
        oracle = GaussianOracleDenoiser(np.zeros(5), 1.0, sched)
        rng = np.random.default_rng(330)
        x = rng.standard_normal(5)
        for t in (7, 64, 300):
            skip = reverse_skip(x, t, t, oracle, sched)
            direct = one_shot_recover(x, t, oracle, sched)
            np.testing.assert_allclose(skip, direct, rtol=0, atol=1e-12)

    def test_zero_prediction_rescales_exactly(self):
        """With eps_hat = 0 every jump is a pure rescale, composing to 1/sqrt(abar_t)."""
        sched = default_schedule()
        rng = np.random.default_rng(331)
        x = rng.standard_normal(4)
        for t, k in [(10, 3), (9, 2), (100, 7)]:
            out = reverse_skip(x, t, k, _ZeroNoise(), sched)
            np.testing.assert_allclose(
                out, x / math.sqrt(sched.alpha_bar_at(t)), rtol=1e-12
            )

    def test_partial_final_jump(self):
        """k that does not divide t still terminates exactly at step 0."""
        sched = default_schedule()
        oracle = GaussianOracleDenoiser(np.zeros(3), 1.0, sched)
        x = np.random.default_rng(332).standard_normal(3)
        out = reverse_skip(x, 5, 2, oracle, sched)  # path 5 -> 3 -> 1 -> 0
        assert out.shape == (3,)
        assert np.all(np.isfinite(out))

    def test_bad_k_raises(self):
        with pytest.raises(ValueError):
            reverse_skip(np.zeros(2), 5, 0, _ZeroNoise(), default_schedule())
        for k in (2.5, 2.0, math.nan):
            with pytest.raises(ValueError, match=rf"^skip size k={k} is not an integer"):
                reverse_skip(np.zeros(2), 5, k, _ZeroNoise(), default_schedule())


class TestGaussianOracle:
    def test_white_data_closed_form(self):
        """For x0 ~ N(0, I) the prediction is sqrt(1 - abar) * x_t."""
        sched = default_schedule()
        oracle = GaussianOracleDenoiser(np.zeros(6), 1.0, sched)
        rng = np.random.default_rng(340)
        x_t = rng.standard_normal(6)
        for t in (1, 200, 900):
            ab = sched.alpha_bar_at(t)
            np.testing.assert_allclose(
                oracle.predict_eps(x_t, t), math.sqrt(1 - ab) * x_t, rtol=1e-13
            )

    def test_full_cov_agrees_with_rotated_diagonal(self):
        """V diag(lam) V^T data behaves like diagonal data in the rotated frame."""
        sched = default_schedule()
        rng = np.random.default_rng(341)
        lam = np.array([2.0, 0.5, 0.1, 1.0])
        v = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        full = GaussianOracleDenoiser(np.zeros(4), v @ np.diag(lam) @ v.T, sched)
        diag = GaussianOracleDenoiser(np.zeros(4), lam, sched)
        x = rng.standard_normal(4)
        t = 300
        np.testing.assert_allclose(
            full.predict_eps(x, t), v @ diag.predict_eps(v.T @ x, t), rtol=1e-10, atol=1e-12
        )
        ab = sched.alpha_bar_at(t)
        np.testing.assert_allclose(
            full.source.mmse_per_dim(ab), diag.source.mmse_per_dim(ab), rtol=1e-12
        )

    def test_mmse_formula_unit_white(self):
        """The oracle's source MMSE equals 1 - abar, i.e. 1/(1 + snr), for
        unit-variance data."""
        sched = default_schedule()
        oracle = GaussianOracleDenoiser(np.zeros(3), 1.0, sched)
        for t in (50, 500, 1000):
            ab = sched.alpha_bar_at(t)
            np.testing.assert_allclose(oracle.source.mmse_per_dim(ab), 1.0 - ab, rtol=1e-13)

    def test_nonzero_mean_centering(self):
        """At the data mean's diffused image the predicted noise is zero."""
        sched = default_schedule()
        mean = np.array([2.0, -1.0])
        oracle = GaussianOracleDenoiser(mean, 1.0, sched)
        t = 100
        ab = sched.alpha_bar_at(t)
        out = oracle.predict_eps(math.sqrt(ab) * mean, t)
        np.testing.assert_allclose(out, np.zeros(2), rtol=0, atol=1e-14)

    def test_batched_prediction(self):
        sched = default_schedule()
        oracle = GaussianOracleDenoiser(np.zeros(4), 1.0, sched)
        rng = np.random.default_rng(342)
        batch = rng.standard_normal((7, 4))
        out = oracle.predict_eps(batch, 150)
        for i in range(7):
            np.testing.assert_allclose(out[i], oracle.predict_eps(batch[i], 150), rtol=1e-14)

    def test_validation(self):
        sched = default_schedule()
        with pytest.raises(ValueError):
            GaussianOracleDenoiser(np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]), sched)
        with pytest.raises(ValueError):
            GaussianOracleDenoiser(np.zeros(2), np.array([1.0, -0.5]), sched)
        oracle = GaussianOracleDenoiser(np.zeros(2), 1.0, sched)
        with pytest.raises(ValueError):
            oracle.predict_eps(np.zeros(3), 10)


class TestGaussianSource:
    LAM = np.array([2.0, 0.5, 0.1, 1.0])

    def test_scalar_is_the_constant_diagonal(self):
        """Same eigenvalues, no eigenvectors, and the same draws bit for bit."""
        scalar = GaussianSource(np.ones(3), 0.7)
        diag = GaussianSource(np.ones(3), np.full(3, 0.7))
        assert scalar.eigvecs is None and diag.eigvecs is None
        np.testing.assert_array_equal(scalar.eigvals, diag.eigvals)
        np.testing.assert_array_equal(
            scalar.sample(50, np.random.default_rng(343)),
            diag.sample(50, np.random.default_rng(343)),
        )
        assert scalar.mmse_per_dim(0.4) == diag.mmse_per_dim(0.4)

    def test_rotated_full_agrees_with_diagonal(self):
        """V diag(lam) V^T has the diagonal form's MMSE, and its draws have that
        covariance in the rotated frame."""
        v = np.linalg.qr(np.random.default_rng(344).standard_normal((4, 4)))[0]
        mean = np.array([1.0, -2.0, 0.0, 0.5])
        full = GaussianSource(mean, v @ np.diag(self.LAM) @ v.T)
        diag = GaussianSource(mean, self.LAM)
        for abar in (0.01, 0.5, 0.99):
            np.testing.assert_allclose(full.mmse_per_dim(abar), diag.mmse_per_dim(abar), rtol=1e-12)
        n = 200_000
        for src, frame in ((full, v), (diag, np.eye(4))):
            x = src.sample(n, np.random.default_rng(345))
            assert x.shape == (n, 4)
            np.testing.assert_allclose(x.mean(axis=0), mean, atol=0.02)
            cov = frame.T @ np.cov(x, rowvar=False) @ frame
            np.testing.assert_allclose(cov, np.diag(self.LAM), atol=0.02)
        np.testing.assert_allclose(full.cov, v @ np.diag(self.LAM) @ v.T, atol=1e-14)
        np.testing.assert_array_equal(diag.cov, np.diag(self.LAM))

    def test_rounding_negatives_clipped_for_every_form(self):
        for cov in (-1e-11, np.array([1.0, -1e-11]), np.array([[1.0, 0.0], [0.0, -1e-11]])):
            src = GaussianSource(np.zeros(2), cov)
            assert np.all(src.eigvals >= 0.0)

    def test_validation(self):
        for mean, cov in [
            (np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]])),  # asymmetric
            (np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]])),  # indefinite
            (np.zeros(2), np.array([1.0, -0.5])),
            (np.zeros(2), -0.5),
            (np.zeros(2), np.ones(3)),
            (np.zeros(2), np.eye(3)),
            (np.zeros(2), np.ones((2, 2, 2))),
            (np.zeros((2, 2)), 1.0),
            (np.array([0.0, np.nan]), 1.0),
            (np.zeros(2), np.array([1.0, np.inf])),
        ]:
            with pytest.raises(ValueError):
                GaussianSource(mean, cov)


class TestMlpDenoiser:
    def test_initialize_shapes_and_determinism(self):
        model = MlpDenoiser.initialize(4, (8,), 100, np.random.default_rng(7))
        model2 = MlpDenoiser.initialize(4, (8,), 100, np.random.default_rng(7))
        for (w1, b1), (w2, b2) in zip(model.params, model2.params):
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(b1, b2)
        out = model.predict_eps(np.zeros(4), 10)
        assert out.shape == (4,)

    def test_batched_prediction_matches_loop(self):
        model = MlpDenoiser.initialize(3, (6,), 50, np.random.default_rng(8))
        rng = np.random.default_rng(350)
        batch = rng.standard_normal((5, 3))
        out = model.predict_eps(batch, 20)
        for i in range(5):
            np.testing.assert_allclose(out[i], model.predict_eps(batch[i], 20), rtol=1e-14)

    @pytest.mark.parametrize("T", [8, 250, 1000])
    def test_time_table_matches_per_call_features(self, T):
        """The per-step table holds the bits the features computed on every
        call had, for one step per batch and for mixed steps.  Should this ever
        fail, the table goes: it exists only to save time."""
        model = MlpDenoiser.initialize(2, (4,), T, np.random.default_rng(10))

        def bits(a):
            return np.ascontiguousarray(a).view(np.uint64)

        for t in range(T + 1):
            for n in (1, 7, 200):
                t_arr = np.full(n, float(t))
                table = model._features(np.zeros((n, 2)), t_arr)[:, 2:]
                np.testing.assert_array_equal(bits(table), bits(_time_features(t_arr / T)))
        t_arr = np.random.default_rng(11).integers(0, T + 1, size=64).astype(float)
        table = model._features(np.zeros((64, 2)), t_arr)[:, 2:]
        np.testing.assert_array_equal(bits(table), bits(_time_features(t_arr / T)))

    def test_steps_off_the_table_are_refused(self):
        """A step off the 0..T table is refused, never extrapolated: alone,
        mixed with steps on it, and through predict_eps."""
        model = MlpDenoiser.initialize(2, (4,), 10, np.random.default_rng(12))
        for t_arr in ([-1.0], [2.5], [11.0], [3.0, 11.0], [np.nan], [np.inf]):
            with pytest.raises(ValueError, match=r"integers in \[0, 10\]"):
                model._features(np.zeros((len(t_arr), 2)), np.array(t_arr))
        with pytest.raises(ValueError):
            model.predict_eps(np.zeros(2), 11)
        model.predict_eps(np.zeros(2), 10)

    def test_non_finite_params_rejected(self):
        model = MlpDenoiser.initialize(2, (4,), 10, np.random.default_rng(9))
        params = [(w.copy(), b.copy()) for w, b in model.params]
        params[0][0][0, 0] = np.nan
        with pytest.raises(ValueError):
            MlpDenoiser(10, params)

    @pytest.mark.parametrize("hidden", [(), (4,), (64, 64)])
    def test_sizes_are_read_off_the_arrays(self, hidden):
        params = _nn.init_params([3 + N_TIME_FEATURES, *hidden, 3], np.random.default_rng(13))
        model = MlpDenoiser(10, params)
        assert (model.dim, model.hidden, model.t_total) == (3, hidden, 10)
        assert model.params is params

    def test_input_layer_must_take_dim_plus_time_features(self):
        """A network whose input layer is not dim + N_TIME_FEATURES wide is
        refused at construction, before any prediction reaches a matmul."""
        rng = np.random.default_rng(14)
        for sizes in ([3 + N_TIME_FEATURES, 7, 2], [2 + N_TIME_FEATURES - 1, 7, 2], [2, 2]):
            with pytest.raises(ValueError, match="input layer takes"):
                MlpDenoiser(10, _nn.init_params(sizes, rng))

    def test_unchained_layers_are_refused(self):
        """Layers that do not chain, a bias of another width, a layer of no
        width and an empty network are refused at construction."""
        (w0, b0), (w1, b1) = MlpDenoiser.initialize(2, (4,), 10, np.random.default_rng(15)).params
        for params in ([(w0, b0), (w1[1:], b1)], [(w0, b0[1:]), (w1, b1)],
                       [(w0[:, :0], b0[:0]), (w1[:0], b1)], [(w0, b0), (w1, b1[:, None])], []):
            with pytest.raises(ValueError):
                MlpDenoiser(10, params)

    def test_t_total_must_be_positive(self):
        params = MlpDenoiser.initialize(2, (4,), 10, np.random.default_rng(16)).params
        with pytest.raises(ValueError, match="t_total"):
            MlpDenoiser(0, params)


class TestForward:
    """``_nn.forward`` adds each bias and applies each tanh in place on the
    layer's product; its output and cache keep the bits of the out-of-place
    formula kept here as the reference."""

    @pytest.mark.parametrize("hidden", [(), (7,), (7, 5), (7, 5, 9)])
    def test_bit_equal_to_the_out_of_place_formula_and_input_untouched(self, hidden):
        rng = np.random.default_rng(len(hidden))
        params = _nn.init_params([6, *hidden, 4], rng)
        for _, b in params:
            b += rng.standard_normal(b.shape)  # init leaves the biases zero
        x = rng.standard_normal((11, 6))
        before = x.copy()
        out, cache = _nn.forward(params, x)
        want = [x]
        for i, (w, b) in enumerate(params):
            z = want[-1] @ w + b
            want.append(z if i == len(params) - 1 else np.tanh(z))
        assert out.tobytes() == want[-1].tobytes()
        assert [h.tobytes() for h in cache] == [h.tobytes() for h in want]
        assert x.tobytes() == before.tobytes()


class TestTraining:
    def test_gradient_check_and_loss_decreases(self):
        """Finite differences confirm the hand backprop; SGD lowers the loss."""
        sched = make_linear_schedule(100, 1e-3, 0.05)
        rng = np.random.default_rng(360)
        data = rng.standard_normal((96, 2)) * 0.5
        cfg = MlpTrainConfig(hidden=(8,), lr=0.05, epochs=8, batch_size=32)
        model, report = train_mlp_denoiser(data, sched, cfg, np.random.default_rng(361))
        assert report.grad_check_rel_err < 1e-5
        assert report.epoch_losses[-1] < report.epoch_losses[0]
        assert np.isfinite(report.final_loss)
        out = model.predict_eps(np.zeros(2), 50)
        assert out.shape == (2,)

    def test_gradient_check_restores_every_parameter(self):
        """The check probes coordinates in place; every parameter is bit-equal
        afterwards, whether it returns or ``loss_fn`` raises on a probe."""
        params = MlpDenoiser.initialize(2, (4, 3), 10, np.random.default_rng(17)).params
        before = [a.copy() for layer in params for a in layer]
        grads = [(np.ones_like(w), np.ones_like(b)) for w, b in params]

        def bits_equal():
            after = [a for layer in params for a in layer]
            return all(np.array_equal(x.view(np.uint64), y.view(np.uint64))
                       for x, y in zip(before, after))

        _nn.gradient_check(lambda p: float(sum(np.sum(a) for layer in p for a in layer)),
                           params, grads, np.random.default_rng(18))
        assert bits_equal()
        calls = []

        def failing(p):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("probe failed")
            return 0.0

        with pytest.raises(RuntimeError, match="probe failed"):
            _nn.gradient_check(failing, params, grads, np.random.default_rng(19))
        assert bits_equal()

    def test_gradient_check_matches_finite_differences_of_a_known_loss(self):
        """On the loss sum(p**2) / 2, whose gradient is p, the check reads ~0,
        and a wrong analytic gradient reads a large error."""
        params = MlpDenoiser.initialize(2, (4,), 10, np.random.default_rng(20)).params

        def loss(p):
            return 0.5 * float(sum(np.sum(a * a) for layer in p for a in layer))

        exact = [(w.copy(), b.copy()) for w, b in params]
        assert _nn.gradient_check(loss, params, exact, np.random.default_rng(21)) < 1e-6
        wrong = [(w + 1.0, b + 1.0) for w, b in params]
        assert _nn.gradient_check(loss, params, wrong, np.random.default_rng(21)) > 0.1

    @pytest.mark.skipif(_nn._openblas_threads() is None, reason="numpy bundles no OpenBLAS")
    def test_sgd_train_holds_blas_to_one_thread(self):
        """Every batch of the loop both networks train with runs on one BLAS
        thread."""
        get, _ = _nn._openblas_threads()
        seen = []

        def loss_and_grads(idx):
            seen.append(get())
            return 1.0, [(np.zeros((2, 1)), np.zeros(1))]

        _nn.sgd_train([(np.zeros((2, 1)), np.zeros(1))], n=8, batch_size=4, epochs=2, lr=0.1,
                      lr_decay=1.0, rng=np.random.default_rng(0), loss_and_grads=loss_and_grads)
        assert seen == [1] * 4

    def test_training_is_seed_deterministic(self):
        sched = make_linear_schedule(60, 1e-3, 0.05)
        data = np.random.default_rng(362).standard_normal((64, 2))
        cfg = MlpTrainConfig(hidden=(6,), lr=0.05, epochs=3, batch_size=16)
        m1, r1 = train_mlp_denoiser(data, sched, cfg, np.random.default_rng(5))
        m2, r2 = train_mlp_denoiser(data, sched, cfg, np.random.default_rng(5))
        assert r1.epoch_losses == r2.epoch_losses
        for (w1, _), (w2, _) in zip(m1.params, m2.params):
            np.testing.assert_array_equal(w1, w2)
