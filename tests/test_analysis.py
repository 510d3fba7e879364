"""Quadrature MMSE functionals, the loop-split curve, KL monotonicity, and
Monte Carlo bound verification."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from lorid import _nn, analysis
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
    quadrature_grid,
    verify_bounds,
)
from lorid.diffusion import (
    GaussianOracleDenoiser,
    Schedule,
    default_schedule,
    diffuse,
    make_linear_schedule,
    one_shot_recover,
)
from lorid.purify import misaligned_noise
from lorid.tensorops import frobenius_norm
from lorid.tucker import TensorizationLayout, fit_basis

# Quadrature results frozen after checking against the antithetic Monte Carlo
# oracle (1e6 draws agree to ~3e-4) and against halved-resolution reruns.
MMSE_BINARY_FROZEN = {
    0.1: 0.908659398795108,
    1.0: 0.449599509206587,
    10.0: 0.00241131473525624,
}

# Loop-split curve under the default schedule, L = 1..10.  The L = 1 entry is
# 1 - abar_t by construction; later entries follow the per-loop depth floor.
CURVE_FROZEN = {
    200: [0.340961491768206, 0.20596370865008, 0.144460311399035, 0.115937108242239,
          0.096768177165979, 0.0823567869975399, 0.0719516463195182, 0.0675346969698172,
          0.0610167843359241, 0.0576904831384217],
    400: [0.804853555066568, 0.681922983536412, 0.514974288141671, 0.41192741730016,
          0.342629544918609, 0.288920622798071, 0.257690270256123, 0.231874216484479,
          0.206851997885838, 0.193536354331958],
    600: [0.974120610576665, 1.20716048108349, 1.02288447530462, 0.846714596450387,
          0.715165843670475, 0.61789112595024, 0.535998484711729, 0.487032781589353,
          0.433380934197106, 0.404357705976909],
    900: [0.999724794088097, 1.74602028097739, 1.81074072162524, 1.63444910478466,
          1.43874944844131, 1.27007189467558, 1.12299702481697, 1.01116005671321,
          0.92683668892536, 0.850036208044915],
}


class TestQuadratureGrid:
    def test_weights_integrate_constants(self):
        x, w = quadrature_grid()
        np.testing.assert_allclose(w.sum(), x[-1] - x[0], rtol=1e-11)

    def test_integrates_standard_normal_to_one(self):
        x, w = quadrature_grid()
        phi = np.exp(-0.5 * x**2) / math.sqrt(2 * math.pi)
        np.testing.assert_allclose(phi @ w, 1.0, rtol=0, atol=1e-12)

    def test_integrates_second_moment(self):
        x, w = quadrature_grid()
        phi = np.exp(-0.5 * x**2) / math.sqrt(2 * math.pi)
        np.testing.assert_allclose((x**2 * phi) @ w, 1.0, rtol=0, atol=1e-11)


class TestMmseGaussian:
    def test_closed_form(self):
        assert mmse_gaussian(0.0) == 1.0
        assert mmse_gaussian(1.0) == 0.5
        np.testing.assert_allclose(mmse_gaussian(9.0), 0.1, rtol=1e-15)

    def test_array_input(self):
        out = mmse_gaussian(np.array([0.0, 1.0, 3.0]))
        np.testing.assert_allclose(out, [1.0, 0.5, 0.25], rtol=1e-15)

    def test_negative_snr_raises(self):
        with pytest.raises(ValueError):
            mmse_gaussian(-0.1)

    def test_nan_snr_raises_and_infinite_snr_is_the_limit(self):
        with pytest.raises(ValueError):
            mmse_gaussian(float("nan"))
        with pytest.raises(ValueError):
            mmse_gaussian(np.array([1.0, np.nan]))
        assert mmse_gaussian(float("inf")) == 0.0


class TestMmseBinary:
    def test_frozen_values(self):
        for snr, expected in MMSE_BINARY_FROZEN.items():
            np.testing.assert_allclose(mmse_binary(snr), expected, rtol=1e-12)

    def test_zero_snr_exactly_one(self):
        assert mmse_binary(0.0) == 1.0

    def test_large_snr_clips_to_zero(self):
        assert mmse_binary(100.0) == 0.0

    def test_monotone_decreasing(self):
        grid = np.linspace(0.0, 20.0, 60)
        vals = mmse_binary(grid)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_never_exceeds_gaussian_input_value(self):
        """A two-point prior is easier to estimate than a Gaussian prior."""
        grid = np.linspace(0.0, 15.0, 50)
        assert np.all(mmse_binary(grid) <= mmse_gaussian(grid) + 1e-12)

    def test_matches_monte_carlo_oracle(self):
        rng = np.random.default_rng(501)
        mc = mmse_binary_monte_carlo(1.0, 200000, rng)
        np.testing.assert_allclose(mmse_binary(1.0), mc, atol=2e-3)

    def test_monte_carlo_validation(self):
        rng = np.random.default_rng(502)
        with pytest.raises(ValueError):
            mmse_binary_monte_carlo(-1.0, 100, rng)
        with pytest.raises(ValueError):
            mmse_binary_monte_carlo(1.0, 1, rng)

    def test_negative_snr_raises(self):
        with pytest.raises(ValueError):
            mmse_binary(np.array([0.5, -0.5]))

    def test_non_finite_snr_raises(self):
        for bad in (float("nan"), float("inf"), np.array([1.0, np.nan])):
            with pytest.raises(ValueError):
                mmse_binary(bad)


class TestEffectiveSnr:
    def test_frozen_endpoints(self):
        sched = default_schedule()
        np.testing.assert_allclose(effective_snr(sched, 1), 9999.0000000011, rtol=1e-12)
        np.testing.assert_allclose(effective_snr(sched, 500), 0.0852899444626369, rtol=1e-12)

    def test_identity_with_alpha_bar(self):
        sched = default_schedule()
        for t in (10, 250, 990):
            ab = sched.alpha_bar_at(t)
            np.testing.assert_allclose(effective_snr(sched, t), ab / (1 - ab), rtol=1e-14)

    def test_monotone_decreasing_in_t(self):
        sched = default_schedule()
        vals = [effective_snr(sched, t) for t in range(1, 1001)]
        assert np.all(np.diff(vals) < 0)

    def test_t_zero_rejected(self):
        with pytest.raises(ValueError):
            effective_snr(default_schedule(), 0)


class TestLoopBoundCurve:
    def test_frozen_sequences(self):
        sched = default_schedule()
        for et, expected in CURVE_FROZEN.items():
            vals = [p.value for p in loop_bound_curve(sched, et, range(1, 11))]
            np.testing.assert_allclose(vals, expected, rtol=1e-12)

    def test_single_loop_value_is_one_minus_alpha_bar(self):
        sched = default_schedule()
        for et in (100, 300, 700):
            (point,) = loop_bound_curve(sched, et, [1])
            np.testing.assert_allclose(point.value, 1 - sched.alpha_bar_at(et), rtol=1e-13)

    def test_point_bookkeeping(self):
        sched = default_schedule()
        points = loop_bound_curve(sched, 400, [3])
        assert points[0].t_over_L == 133
        assert points[0].effective_t == 399  # floor rounding eats one step
        assert points[0].L == 3

    def test_value_formula(self):
        sched = default_schedule()
        for point in loop_bound_curve(sched, 600, range(1, 11)):
            per = point.t_over_L
            expect = point.L * mmse_gaussian(effective_snr(sched, per))
            np.testing.assert_allclose(point.value, expect, rtol=1e-14)

    def test_monotone_at_low_depth(self):
        """At depths 200 and 400 the split curve strictly decreases in L."""
        sched = default_schedule()
        for et in (200, 400):
            vals = [p.value for p in loop_bound_curve(sched, et, range(1, 11))]
            assert np.all(np.diff(vals) < 0)

    def test_rises_then_falls_at_high_depth(self):
        """At depths 600 and 900 a single loop is cheaper than two.

        The per-loop MMSE saturates near 1 at high depth, so doubling the loop
        count doubles the bound before the shallower per-loop depth can pay it
        back; the curve rises from L = 1 and only then decreases.
        """
        sched = default_schedule()
        for et in (600, 900):
            vals = [p.value for p in loop_bound_curve(sched, et, range(1, 11))]
            assert vals[1] > vals[0]
            assert vals[-1] < vals[0] or et == 900  # at 900 even L=10 stays dearer

    def test_validation(self):
        sched = default_schedule()
        with pytest.raises(ValueError):
            loop_bound_curve(sched, 0, [1])
        with pytest.raises(ValueError):
            loop_bound_curve(sched, 1001, [1])
        with pytest.raises(ValueError):
            loop_bound_curve(sched, 10, [0])
        with pytest.raises(ValueError):
            loop_bound_curve(sched, 10, [11])  # zero per-loop depth


class TestKlGaussian:
    def test_identical_sources_zero(self):
        sched = default_schedule()
        kl = kl_gaussian_curve((np.zeros(3), 1.0), (np.zeros(3), 1.0), sched, [0, 100, 500])
        np.testing.assert_allclose(kl, 0.0, rtol=0, atol=1e-12)

    def test_known_univariate_value(self):
        """KL(N(1,1) || N(0,1)) = 1/2 at t = 0."""
        sched = default_schedule()
        kl = kl_gaussian_curve((1.0, 1.0), (0.0, 1.0), sched, [0])[0]
        np.testing.assert_allclose(kl, 0.5, rtol=1e-12)

    def test_nonnegative_and_asymmetric(self):
        sched = default_schedule()
        rng = np.random.default_rng(510)
        p1 = (rng.standard_normal(4), 1.5)
        p2 = (rng.standard_normal(4), 0.5)
        a = kl_gaussian_curve(p1, p2, sched, [50])[0]
        b = kl_gaussian_curve(p2, p1, sched, [50])[0]
        assert a >= 0 and b >= 0 and not math.isclose(a, b)

    def test_curve_non_increasing(self):
        """Diffusion is a data-processing channel: KL never grows with depth."""
        sched = default_schedule()
        rng = np.random.default_rng(511)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            a = rng.standard_normal((d, d))
            b = rng.standard_normal((d, d))
            p1 = (rng.standard_normal(d), a @ a.T + 0.2 * np.eye(d))
            p2 = (rng.standard_normal(d), b @ b.T + 0.2 * np.eye(d))
            kl = kl_gaussian_curve(p1, p2, sched, range(0, 1001, 50))
            assert np.all(np.diff(kl) <= 1e-12)

    def test_dimension_mismatch_raises(self):
        sched = default_schedule()
        with pytest.raises(ValueError):
            kl_gaussian_curve((np.zeros(2), 1.0), (np.zeros(3), 1.0), sched, [10])

    def test_non_pd_covariance_raises(self):
        sched = default_schedule()
        with pytest.raises(ValueError):
            kl_gaussian_curve((np.zeros(2), np.array([1.0, 0.0])), (np.zeros(2), 1.0), sched, [10])

    def test_asymmetric_covariance_rejected(self):
        """An asymmetric matrix is refused, not silently replaced by its symmetric part."""
        sched = default_schedule()
        asym = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            kl_gaussian_curve((np.zeros(2), asym), (np.zeros(2), 1.0), sched, [10])
        with pytest.raises(ValueError, match="symmetric"):
            kl_gaussian_curve((np.zeros(2), 1.0), (np.zeros(2), asym), sched, [10])

    def test_steps_off_the_schedule_refused(self):
        """A fractional, non-finite or out-of-range depth is refused, not truncated."""
        sched = default_schedule()
        p1, p2 = (np.zeros(2), 1.5), (np.ones(2), 0.5)
        for t, message in ((2.5, "step 2.5 is not an integer"),
                           (2.999, "step 2.999 is not an integer"),
                           (math.nan, "step nan is not an integer"),
                           (math.inf, "step inf is not an integer"),
                           (-1, r"step -1 outside \[0, 1000\]"),
                           (1001, r"step 1001 outside \[0, 1000\]")):
            with pytest.raises(ValueError, match=message):
                kl_gaussian_curve(p1, p2, sched, [0, t])
        np.testing.assert_array_equal(kl_gaussian_curve(p1, p2, sched, [0.0, 2.0]),
                                      kl_gaussian_curve(p1, p2, sched, [0, 2]))


class TestKlQuadrature:
    @staticmethod
    def _gauss(mu, var):
        return lambda x: np.exp(-0.5 * (x - mu) ** 2 / var) / math.sqrt(2 * math.pi * var)

    def test_depth_zero_matches_closed_form(self):
        sched = default_schedule()
        quad = kl_quadrature_forward(self._gauss(1.0, 1.0), self._gauss(0.0, 1.0), sched, 0)
        np.testing.assert_allclose(quad, 0.5, rtol=1e-9)

    def test_agrees_with_gaussian_route_after_diffusion(self):
        """Dual route: quadrature convolution vs the closed-form pushforward."""
        sched = default_schedule()
        for t in (50, 300, 700):
            quad = kl_quadrature_forward(self._gauss(0.8, 1.2), self._gauss(-0.5, 0.7), sched, t)
            exact = kl_gaussian_curve((0.8, 1.2), (-0.5, 0.7), sched, [t])[0]
            np.testing.assert_allclose(quad, exact, rtol=1e-5, atol=1e-9)

    def test_bimodal_sequence_non_increasing(self):
        sched = default_schedule()
        x, w = quadrature_grid()
        bimodal = 0.5 * self._gauss(-2.0, 0.3)(x) + 0.5 * self._gauss(2.0, 0.3)(x)
        uni = self._gauss(0.0, 1.0)(x)
        kls = [kl_quadrature_forward(bimodal, uni, sched, t) for t in range(0, 1001, 200)]
        assert np.all(np.diff(kls) <= 1e-6)

    def test_schedules_sharing_endpoints_give_their_own_kl(self):
        """A quadratic-beta schedule with the linear one's endpoints is not
        mistaken for it, even right after the linear schedule was used."""
        linear = default_schedule()
        b = np.linspace(math.sqrt(1e-4), math.sqrt(0.02), 1000) ** 2
        quadratic = Schedule(b)
        p, q = self._gauss(0.5, 1.0), self._gauss(-0.5, 1.0)
        for sched in (linear, quadratic):
            quad = kl_quadrature_forward(p, q, sched, 200)
            exact = kl_gaussian_curve((0.5, 1.0), (-0.5, 1.0), sched, [200])[0]
            np.testing.assert_allclose(quad, exact, rtol=1e-5)

    def test_peak_memory_stays_small(self):
        """One push-forward holds a block of kernel rows, never the n^2 kernel
        (4801^2 doubles would be 176 MB)."""
        sched = default_schedule()
        p, q = self._gauss(0.5, 1.0), self._gauss(-0.5, 1.0)
        tracemalloc.start()
        try:
            kl_quadrature_forward(p, q, sched, 300)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @staticmethod
    def _blas_threads():
        api = _nn._openblas_threads()
        return None if api is None else api[0]()

    def test_push_forward_matches_serial_loop(self):
        """The two-thread push-forward equals a one-thread loop over the same
        32-row blocks bit for bit, and leaves no thread and no BLAS setting behind."""
        sched = default_schedule()
        x, w = quadrature_grid()
        dens = np.column_stack([self._gauss(0.8, 1.2)(x), self._gauss(-2.0, 0.3)(x)])
        threads, blas = threading.active_count(), self._blas_threads()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in (1, 10, 50, 100, 150, 500, 1000):
                abar = sched.alpha_bar_at(t)
                var = 1.0 - abar
                weighted = dens * (w / math.sqrt(2.0 * math.pi * var))[:, None]
                serial = np.empty_like(dens)
                for start in range(0, x.size, 32):
                    rows = x[start : start + 32]
                    block = np.square(rows[:, None] - math.sqrt(abar) * x[None, :])
                    block *= -0.5 / var
                    serial[start : start + rows.size] = np.exp(block) @ weighted
                pushed = analysis._push_forward(dens, w, x, abar)
                assert pushed.tobytes() == serial.tobytes(), t
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
        assert self._blas_threads() == blas

    def test_error_in_helper_half_propagates(self, monkeypatch):
        x, w = quadrature_grid()
        dens = np.column_stack([self._gauss(0.0, 1.0)(x)] * 2)
        push_rows = analysis._push_rows

        def failing(out, weighted, x, src, scale, starts):
            if starts[0] != 0:  # the caller fills the blocks from row 0
                raise RuntimeError("helper failed")
            push_rows(out, weighted, x, src, scale, starts)

        monkeypatch.setattr(analysis, "_push_rows", failing)
        threads, blas = threading.active_count(), self._blas_threads()
        with pytest.raises(RuntimeError, match="helper failed"):
            analysis._push_forward(dens, w, x, 0.5)
        assert threading.active_count() == threads
        assert self._blas_threads() == blas

    def test_fractional_depth_refused(self):
        sched = default_schedule()
        p, q = self._gauss(0.5, 1.0), self._gauss(-0.5, 1.0)
        for t in (2.5, math.nan):
            with pytest.raises(ValueError, match="not an integer"):
                kl_quadrature_forward(p, q, sched, t)
            with pytest.raises(ValueError, match="not an integer"):
                effective_snr(sched, t)

    def test_unnormalized_density_rejected(self):
        sched = default_schedule()
        with pytest.raises(ValueError):
            kl_quadrature_forward(self._gauss(0.0, 1.0), lambda x: 2.0 * self._gauss(0, 1)(x),
                                  sched, 10)

    def test_negative_density_rejected(self):
        sched = default_schedule()
        with pytest.raises(ValueError):
            kl_quadrature_forward(lambda x: x, self._gauss(0.0, 1.0), sched, 10)


class TestVerifyBounds:
    def test_clean_oracle_sits_at_lower_edge(self):
        """The oracle denoiser is exactly MMSE-optimal: tiny slack, inside bounds."""
        sched = default_schedule()
        oracle = GaussianOracleDenoiser(np.zeros(8), 1.0, sched)
        setup = BoundSetup(mean=np.zeros(8), cov=np.asarray(1.0), denoiser=oracle, schedule=sched)
        report = verify_bounds(setup, t=200, trials=4000, rng=np.random.default_rng(520))
        assert report.lower - report.tolerance <= report.empirical
        assert report.empirical <= report.upper + report.tolerance
        assert report.delta_ddpm_est < 0.05 * report.lower + 0.05

    def test_adversarial_widens_sandwich(self):
        sched = default_schedule()
        oracle = GaussianOracleDenoiser(np.zeros(8), 1.0, sched)
        rng = np.random.default_rng(521)
        eps = 0.5 * rng.choice([-1.0, 1.0], size=8)
        setup = BoundSetup(
            mean=np.zeros(8), cov=np.asarray(1.0), denoiser=oracle, schedule=sched, eps_a=eps
        )
        report = verify_bounds(setup, t=300, trials=4000, rng=rng)
        clean = verify_bounds(
            BoundSetup(mean=np.zeros(8), cov=np.asarray(1.0), denoiser=oracle, schedule=sched),
            t=300, trials=4000, rng=np.random.default_rng(522),
        )
        assert report.lower < clean.lower
        assert report.upper > clean.upper

    def test_projected_run_with_misaligned_attack(self):
        """An off-subspace perturbation is absorbed by the projection stage."""
        images_rng = np.random.default_rng(523)
        layout = TensorizationLayout(height=4, width=4, channels=1, patch=2)
        data = images_rng.standard_normal((64, 4, 4, 1))
        basis = fit_basis(data, layout, rank_policy=(2, 2, 2, 1))
        sched = default_schedule()
        oracle = GaussianOracleDenoiser(np.zeros(16), 1.0, sched)
        eps = misaligned_noise((4, 4, 1), basis, budget_l2=0.8, rng=np.random.default_rng(524))
        setup = BoundSetup(
            mean=np.zeros(16), cov=np.asarray(1.0), denoiser=oracle, schedule=sched,
            eps_a=eps.reshape(-1), basis=basis,
        )
        report = verify_bounds(setup, t=200, trials=3000, rng=np.random.default_rng(525))
        assert report.lower - report.tolerance <= report.empirical <= report.upper + report.tolerance

    def test_oversized_perturbation_violates(self):
        """The sandwich is linear in perturbation RMS; a squared-error blowup escapes it.

        For white data the oracle's shifted error is mmse + abar^2 rms^2 while
        the upper bound grows only by rms, so any rms > 1/abar^2 must violate
        (at t = 100, abar ~ 0.897, threshold ~ 1.24; rms = 1.5 clears it).
        """
        sched = default_schedule()
        oracle = GaussianOracleDenoiser(np.zeros(4), 1.0, sched)
        setup = BoundSetup(
            mean=np.zeros(4), cov=np.asarray(1.0), denoiser=oracle, schedule=sched,
            eps_a=np.full(4, 1.5),
        )
        with pytest.raises(BoundViolation):
            verify_bounds(setup, t=100, trials=3000, rng=np.random.default_rng(526))

    def test_singular_full_covariance_accepted(self):
        """A rank-2 PSD matrix in 4-D samples through its eigenpairs (no Cholesky)."""
        sched = default_schedule()
        v = np.linalg.qr(np.random.default_rng(527).standard_normal((4, 4)))[0]
        lam = np.array([2.0, 0.5, 0.0, 0.0])
        cov = v @ np.diag(lam) @ v.T
        oracle = GaussianOracleDenoiser(np.zeros(4), cov, sched)
        setup = BoundSetup(mean=np.zeros(4), cov=cov, denoiser=oracle, schedule=sched)
        report = verify_bounds(setup, t=200, trials=4000, rng=np.random.default_rng(528))
        ab = sched.alpha_bar_at(200)
        mmse = float(np.mean(lam * (1 - ab) / (ab * lam + 1 - ab)))
        np.testing.assert_allclose(report.lower, mmse, rtol=1e-12)

    def test_peak_memory_stays_small(self):
        """100 000 trials in 8-d are recovered in chunks: beyond the draws
        (6.4 MB) and the errors, no whole-trial array is built."""
        sched = default_schedule()
        oracle = GaussianOracleDenoiser(np.zeros(8), 1.0, sched)
        setup = BoundSetup(mean=np.zeros(8), cov=np.ones(8), denoiser=oracle, schedule=sched)
        tracemalloc.start()
        try:
            verify_bounds(setup, t=200, trials=100_000, rng=np.random.default_rng(529))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("perturbed", [False, True], ids=["clean", "eps_a"])
    def test_chunked_run_matches_full_array_reference(self, perturbed):
        """At a trial count that is not a multiple of the chunk, the report equals
        one computed with whole-array draws, diffuse and one_shot_recover."""
        d, t = 8, 300
        sched = default_schedule()
        mean = np.linspace(-1.0, 1.0, d)
        cov = np.linspace(0.5, 2.0, d)
        eps = 0.3 * np.cos(np.arange(d)) if perturbed else None
        oracle = GaussianOracleDenoiser(mean, cov, sched)
        setup = BoundSetup(mean=mean, cov=cov, denoiser=oracle, schedule=sched, eps_a=eps)
        trials = 2 * (analysis._CHUNK_VALUES // d) + 123
        report = verify_bounds(setup, t, trials, np.random.default_rng(530))

        rng = np.random.default_rng(530)

        def errors(x_in, x0):
            x_t, _ = diffuse(x_in, t, sched, rng)
            return np.mean((one_shot_recover(x_t, t, oracle, sched) - x0) ** 2, axis=-1)

        x0 = mean + np.sqrt(cov) * rng.standard_normal((trials, d))
        err = errors(x0, x0)
        clean_mean, se = float(np.mean(err)), float(np.std(err) / math.sqrt(trials))
        ab = sched.alpha_bar_at(t)
        mmse = float(np.mean(cov * (1 - ab) / (ab * cov + 1 - ab)))
        delta, empirical, gap = max(0.0, clean_mean - mmse), clean_mean, 0.0
        if perturbed:
            x0 = mean + np.sqrt(cov) * rng.standard_normal((trials, d))
            err = errors(x0 + eps, x0)
            empirical = float(np.mean(err))
            se = math.hypot(float(np.std(err) / math.sqrt(trials)), se)
            gap = frobenius_norm(eps) / math.sqrt(d)
        assert report.empirical.hex() == empirical.hex()
        assert report.delta_ddpm_est.hex() == delta.hex()
        assert report.tolerance.hex() == (4.0 * se).hex()
        assert report.upper == pytest.approx(mmse + delta + gap, rel=1e-12)

    def test_report_validation(self):
        sched = default_schedule()
        oracle = GaussianOracleDenoiser(np.zeros(2), 1.0, sched)
        setup = BoundSetup(mean=np.zeros(2), cov=np.asarray(1.0), denoiser=oracle, schedule=sched)
        with pytest.raises(ValueError):
            verify_bounds(setup, t=100, trials=1, rng=np.random.default_rng(0))
