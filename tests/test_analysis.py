"""Quadrature MMSE functionals, the loop-split curve, KL monotonicity, and
Monte Carlo bound verification."""

import math
import threading
import tracemalloc

import numpy as np
import pytest

from lorid import analysis
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


# Whether numpy's longdouble carries more precision than float64 (the x87
# 80-bit format does; on some platforms longdouble is float64 itself).
EXTENDED = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps


def _push_densities(x):
    """The two densities the push-forward checks use, as grid columns."""
    return np.column_stack([
        np.exp(-0.5 * (x - 0.8) ** 2 / 1.2) / math.sqrt(2 * math.pi * 1.2),
        np.exp(-0.5 * (x + 2.0) ** 2 / 0.3) / math.sqrt(2 * math.pi * 0.3),
    ])


def _longdouble_push(dens, w, x, abar, rows=slice(None)):
    """Dense reference for ``analysis._push_forward`` on the output ``rows``.

    Each kernel entry exp(-(x_j - sqrt(abar) x_i)^2 / (2 (1 - abar))) is built
    from its own longdouble argument r + d, r the nearest float64, as
    exp(r) (1 + d): numpy's float64 exp is within about an ulp (1e-16), and
    the longdouble factor restores the up to 5.7e-14 that rounding the
    argument lost.  The products with the weighted densities are summed in
    longdouble, 128 rows at a time.
    """
    ld = np.longdouble
    var = 1 - ld(abar)
    src = np.sqrt(ld(abar)) * x.astype(ld)
    weighted = dens.astype(ld) * (w.astype(ld) / np.sqrt(2 * ld(math.pi) * var))[:, None]
    targets = x[rows].astype(ld)
    out = np.empty((targets.size, dens.shape[1]), dtype=ld)
    for start in range(0, targets.size, 128):
        arg = np.square(targets[start : start + 128, None] - src) / (-2 * var)
        r = arg.astype(np.float64)
        out[start : start + 128] = (np.exp(r) * (1 + (arg - r))) @ weighted
    return out


def _assert_near_reference(pushed, ref):
    """Relative error at most 5e-13 on every entry of ``ref`` above 1e-250."""
    big = ref > 1e-250
    rel = np.abs(pushed[big] - ref[big]) / ref[big]
    assert rel.max() <= 5e-13, float(rel.max())


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

    @pytest.mark.parametrize("form", ["scalar", "diagonal", "full"])
    def test_matches_dense_solve_and_slogdet(self, form):
        """The eigenbasis closed form agrees with the dense formula: traces of
        solves and log-determinants of the depth-t covariance matrices."""
        sched = default_schedule()
        ts = np.arange(sched.T + 1)
        abar = sched.alpha_bar_at(ts)[:, None, None]
        rng = np.random.default_rng(512)
        for d in (1, 2, 3, 4):
            sources = []
            for _ in range(2):
                a = rng.standard_normal((d, d))
                cov = {"scalar": float(rng.uniform(0.2, 2.0)),
                       "diagonal": rng.uniform(0.2, 2.0, d),
                       "full": a @ a.T + 0.2 * np.eye(d)}[form]
                sources.append((rng.standard_normal(d), cov))
            (m1, s1), (m2, s2) = sources
            if form != "full":
                s1, s2 = np.diag(np.broadcast_to(s1, d)), np.diag(np.broadcast_to(s2, d))
            c1 = abar * s1 + (1.0 - abar) * np.eye(d)
            c2 = abar * s2 + (1.0 - abar) * np.eye(d)
            dm = np.sqrt(abar[:, :, 0]) * (m2 - m1)
            trace = np.trace(np.linalg.solve(c2, c1), axis1=1, axis2=2)
            quad = np.einsum("bi,bi->b", dm, np.linalg.solve(c2, dm[..., None])[..., 0])
            logdet = np.linalg.slogdet(c2)[1] - np.linalg.slogdet(c1)[1]
            dense = 0.5 * (trace + quad - d + logdet)
            np.testing.assert_allclose(kl_gaussian_curve(*sources, sched, ts), dense,
                                       rtol=1e-9, atol=1e-13, err_msg=f"d={d}")

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

    def test_push_forward_matches_dense_loop(self):
        """The Toeplitz push-forward is within 5e-13 relative of a dense
        longdouble reference on every entry above 1e-250 of every 7th row and
        the last (7 is coprime to the 128-row block, so every row position of a
        block is checked), and within 1e-13 of its column's peak of a loop over
        the dense kernel's 32-row blocks on every row; it starts no thread."""
        sched = default_schedule()
        x, w = quadrature_grid()
        checked = np.r_[0 : x.size : 7, x.size - 1]
        dens = _push_densities(x)
        threads = threading.active_count()
        for t in (1, 10, 50, 100, 150, 500, 1000):
            abar = sched.alpha_bar_at(t)
            var = 1.0 - abar
            weighted = dens * (w / math.sqrt(2.0 * math.pi * var))[:, None]
            dense = np.empty_like(dens)
            for start in range(0, x.size, 32):
                rows = x[start : start + 32]
                block = np.square(rows[:, None] - math.sqrt(abar) * x[None, :])
                block *= -0.5 / var
                dense[start : start + rows.size] = np.exp(block) @ weighted
            pushed = analysis._push_forward(dens, w, x, abar)
            if EXTENDED:
                _assert_near_reference(pushed[checked],
                                       _longdouble_push(dens, w, x, abar, checked))
            assert np.all(np.abs(pushed - dense) <= 1e-13 * dense.max(axis=0)), t
        assert threading.active_count() == threads

    @pytest.mark.skipif(not EXTENDED, reason="longdouble is float64 here")
    @pytest.mark.parametrize("n", [801, 2401, 4801])
    def test_push_forward_grid_sizes(self, n):
        """On every grid size the push-forward and its KL match the longdouble
        reference at t=100.  This pins the grid step: with x[1] - x[0] in place
        of np.linspace's step the relative error reaches 2.3e-12 or more and the
        KL moves by 9e-14 or more."""
        x, w = quadrature_grid(n)
        dens = _push_densities(x)
        abar = default_schedule().alpha_bar_at(100)
        pushed = analysis._push_forward(dens, w, x, abar)
        ref = _longdouble_push(dens, w, x, abar)
        _assert_near_reference(pushed, ref)
        kl = analysis._grid_kl(pushed[:, 0], pushed[:, 1], w)
        assert abs(kl - float(analysis._grid_kl(ref[:, 0], ref[:, 1], w))) <= 1e-14

    @pytest.mark.skipif(not EXTENDED, reason="longdouble is float64 here")
    def test_push_forward_narrowest_kernel(self):
        """At t=1 of a schedule from beta 1e-8, abar is 1 - 1e-8 and the kernel
        (standard deviation 1e-4) is narrower than the grid step: the
        push-forward still matches the reference, and kl_quadrature_forward
        refuses the depth since the pushed mass drifts."""
        sched = make_linear_schedule(1000, 1e-8, 0.02)
        x, w = quadrature_grid()
        dens = _push_densities(x)
        abar = sched.alpha_bar_at(1)
        pushed = analysis._push_forward(dens, w, x, abar)
        ref = _longdouble_push(dens, w, x, abar)
        _assert_near_reference(pushed, ref)
        kl = analysis._grid_kl(pushed[:, 0], pushed[:, 1], w)
        assert abs(kl - float(analysis._grid_kl(ref[:, 0], ref[:, 1], w))) <= 1e-14
        with pytest.raises(ValueError, match="pushforward of density1 mass"):
            kl_quadrature_forward(dens[:, 0], dens[:, 1], sched, 1)

    @pytest.mark.skipif(not EXTENDED, reason="longdouble is float64 here")
    def test_push_forward_widest_kernel(self):
        """At t=T every block offset is applied; the push-forward and the KL
        that kl_quadrature_forward returns match the reference."""
        sched = default_schedule()
        x, w = quadrature_grid()
        dens = _push_densities(x)
        abar = sched.alpha_bar_at(sched.T)
        ref = _longdouble_push(dens, w, x, abar)
        _assert_near_reference(analysis._push_forward(dens, w, x, abar), ref)
        kl = kl_quadrature_forward(dens[:, 0], dens[:, 1], sched, sched.T)
        assert abs(kl - float(analysis._grid_kl(ref[:, 0], ref[:, 1], w))) <= 1e-14

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


# Bound on the tracemalloc peak of a four-depth, 100 000-trial, 8-d
# verify_bounds call: the per-depth errors (3.2 MB) plus one chunk's
# temporaries came to 6.6 MiB (16 MiB was the bound at one depth with
# whole-trial draws).
PEAK_BOUND = 8 * 2**20


def _bound_setup(kind: str) -> tuple[BoundSetup, int]:
    """An oracle setup, clean, shifted by a fixed perturbation, or projected
    by a fitted basis after one, with a trial count that is not a multiple of
    the chunk."""
    sched = default_schedule()
    if kind == "basis":
        layout = TensorizationLayout(height=4, width=4, channels=1, patch=2)
        data = np.random.default_rng(523).standard_normal((64, 4, 4, 1))
        basis = fit_basis(data, layout, rank_policy=(2, 2, 2, 1))
        eps = misaligned_noise((4, 4, 1), basis, budget_l2=0.8, rng=np.random.default_rng(524))
        d, eps_a = 16, eps.reshape(-1)
    else:
        d, basis = 8, None
        eps_a = 0.2 * np.sin(np.arange(d)) if kind == "eps_a" else None
    oracle = GaussianOracleDenoiser(np.zeros(d), 1.0, sched)
    setup = BoundSetup(source=oracle.source, denoiser=oracle, schedule=sched,
                       eps_a=eps_a, basis=basis)
    return setup, analysis._CHUNK_VALUES // d + 77


class TestVerifyBounds:
    def test_clean_oracle_sits_at_lower_edge(self):
        """The oracle denoiser is exactly MMSE-optimal: tiny slack, inside bounds."""
        sched = default_schedule()
        oracle = GaussianOracleDenoiser(np.zeros(8), 1.0, sched)
        setup = BoundSetup(source=oracle.source, denoiser=oracle, schedule=sched)
        [report] = verify_bounds(setup, (200,), trials=4000, rng=np.random.default_rng(520))
        assert report.lower - report.tolerance <= report.empirical
        assert report.empirical <= report.upper + report.tolerance
        assert report.delta_ddpm_est < 0.05 * report.lower + 0.05

    def test_adversarial_widens_sandwich(self):
        sched = default_schedule()
        oracle = GaussianOracleDenoiser(np.zeros(8), 1.0, sched)
        rng = np.random.default_rng(521)
        eps = 0.5 * rng.choice([-1.0, 1.0], size=8)
        setup = BoundSetup(source=oracle.source, denoiser=oracle, schedule=sched, eps_a=eps)
        [report] = verify_bounds(setup, (300,), trials=4000, rng=rng)
        [clean] = verify_bounds(
            BoundSetup(source=oracle.source, denoiser=oracle, schedule=sched),
            (300,), trials=4000, rng=np.random.default_rng(522),
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
            source=oracle.source, denoiser=oracle, schedule=sched,
            eps_a=eps.reshape(-1), basis=basis,
        )
        [report] = verify_bounds(setup, (200,), trials=3000, rng=np.random.default_rng(525))
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
            source=oracle.source, denoiser=oracle, schedule=sched,
            eps_a=np.full(4, 1.5),
        )
        with pytest.raises(BoundViolation):
            verify_bounds(setup, (100,), trials=3000, rng=np.random.default_rng(526))

    def test_singular_full_covariance_accepted(self):
        """A rank-2 PSD matrix in 4-D samples through its eigenpairs (no Cholesky)."""
        sched = default_schedule()
        v = np.linalg.qr(np.random.default_rng(527).standard_normal((4, 4)))[0]
        lam = np.array([2.0, 0.5, 0.0, 0.0])
        cov = v @ np.diag(lam) @ v.T
        oracle = GaussianOracleDenoiser(np.zeros(4), cov, sched)
        setup = BoundSetup(source=oracle.source, denoiser=oracle, schedule=sched)
        [report] = verify_bounds(setup, (200,), trials=4000, rng=np.random.default_rng(528))
        ab = sched.alpha_bar_at(200)
        mmse = float(np.mean(lam * (1 - ab) / (ab * lam + 1 - ab)))
        np.testing.assert_allclose(report.lower, mmse, rtol=1e-12)

    def test_peak_memory_stays_small(self):
        """100 000 trials in 8-d at four depths are drawn and recovered in
        chunks: beyond the per-depth errors (3.2 MB) and one chunk's
        temporaries, no whole-trial array is built."""
        sched = default_schedule()
        oracle = GaussianOracleDenoiser(np.zeros(8), 1.0, sched)
        setup = BoundSetup(source=oracle.source, denoiser=oracle, schedule=sched)
        tracemalloc.start()
        try:
            verify_bounds(setup, (50, 200, 500, 800), trials=100_000,
                          rng=np.random.default_rng(529))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < PEAK_BOUND

    @pytest.mark.parametrize("perturbed", [False, True], ids=["clean", "eps_a"])
    def test_chunked_run_matches_per_chunk_reference(self, perturbed):
        """At a trial count that is not a multiple of the chunk and at three
        depths, each report equals one computed chunk by chunk with the source
        sample drawn first, then one noise array serving every depth, then the
        forward formula and one_shot_recover; the generator ends in the same
        state."""
        d, ts = 8, (100, 300, 700)
        sched = default_schedule()
        mean = np.linspace(-1.0, 1.0, d)
        cov = np.linspace(0.5, 2.0, d)
        eps = 0.3 * np.cos(np.arange(d)) if perturbed else None
        oracle = GaussianOracleDenoiser(mean, cov, sched)
        setup = BoundSetup(source=oracle.source, denoiser=oracle, schedule=sched, eps_a=eps)
        rows = analysis._CHUNK_VALUES // d
        trials = 2 * rows + 123
        rng = np.random.default_rng(530)
        reports = verify_bounds(setup, ts, trials, rng)

        ref_rng = np.random.default_rng(530)

        def errors(shift):
            err = np.empty((len(ts), trials))
            for start in range(0, trials, rows):
                n = min(rows, trials - start)
                x0 = mean + np.sqrt(cov) * ref_rng.standard_normal((n, d))
                noise = ref_rng.standard_normal((n, d))
                x_in = x0 if shift is None else x0 + shift
                for i, t in enumerate(ts):
                    ab = sched.alpha_bar_at(t)
                    x_t = math.sqrt(ab) * x_in + math.sqrt(1.0 - ab) * noise
                    x_hat = one_shot_recover(x_t, t, oracle, sched)
                    err[i, start:start + n] = np.mean((x_hat - x0) ** 2, axis=-1)
            return err

        clean = errors(None)
        shifted = errors(eps) if perturbed else None
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        for i, (t, report) in enumerate(zip(ts, reports)):
            clean_mean = float(np.mean(clean[i]))
            se = float(np.std(clean[i]) / math.sqrt(trials))
            ab = sched.alpha_bar_at(t)
            mmse = float(np.mean(cov * (1 - ab) / (ab * cov + 1 - ab)))
            delta, empirical, gap = max(0.0, clean_mean - mmse), clean_mean, 0.0
            if perturbed:
                empirical = float(np.mean(shifted[i]))
                se = math.hypot(float(np.std(shifted[i]) / math.sqrt(trials)), se)
                gap = frobenius_norm(eps) / math.sqrt(d)
            assert report.empirical.hex() == empirical.hex()
            assert report.delta_ddpm_est.hex() == delta.hex()
            assert report.tolerance.hex() == (4.0 * se).hex()
            assert report.upper == pytest.approx(mmse + delta + gap, rel=1e-12)

    @pytest.mark.parametrize("kind", ["clean", "eps_a", "basis"])
    def test_each_depth_reports_as_a_lone_call(self, kind, source_builds):
        """A depth's report in a multi-depth call is bit-equal to that of a
        call with the depth alone on the same seed, and the generator ends in
        the same state: the draws do not depend on the depths.  The calls
        draw from the setup's source and build none of their own."""
        setup, trials = _bound_setup(kind)
        source_builds.clear()
        ts = (50, 200, 500, 800)
        rng = np.random.default_rng(531)
        reports = verify_bounds(setup, ts, trials, rng)
        assert len(reports) == len(ts)
        for t, report in zip(ts, reports):
            lone_rng = np.random.default_rng(531)
            [lone] = verify_bounds(setup, (t,), trials, lone_rng)
            for field in ("lower", "upper", "empirical", "delta_ddpm_est", "tolerance"):
                assert getattr(report, field).hex() == getattr(lone, field).hex(), (t, field)
            assert lone_rng.bit_generator.state == rng.bit_generator.state
        assert source_builds == []

    def test_violation_names_its_depth(self):
        """With rms 1.5 the shifted error escapes the sandwich at t = 100
        (see above) but not at t = 900, where abar ~ 1e-4; the violation
        names t = 100, the depth that failed."""
        sched = default_schedule()
        oracle = GaussianOracleDenoiser(np.zeros(4), 1.0, sched)
        setup = BoundSetup(
            source=oracle.source, denoiser=oracle, schedule=sched,
            eps_a=np.full(4, 1.5),
        )
        verify_bounds(setup, (900,), trials=3000, rng=np.random.default_rng(526))
        with pytest.raises(BoundViolation, match=r"^t=100: measured error"):
            verify_bounds(setup, (900, 100), trials=3000, rng=np.random.default_rng(526))

    def test_report_validation(self):
        sched = default_schedule()
        oracle = GaussianOracleDenoiser(np.zeros(2), 1.0, sched)
        setup = BoundSetup(source=oracle.source, denoiser=oracle, schedule=sched)
        with pytest.raises(ValueError):
            verify_bounds(setup, (100,), trials=1, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("ts", [(), (0,), (200, 1001), (2.5,)],
                             ids=["none", "zero", "past-T", "fractional"])
    def test_depths_refused_before_any_draw(self, ts):
        """An empty depth list, or a depth that is not an integer in [1, T],
        is refused before the generator moves."""
        sched = default_schedule()
        oracle = GaussianOracleDenoiser(np.zeros(2), 1.0, sched)
        setup = BoundSetup(source=oracle.source, denoiser=oracle, schedule=sched)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            verify_bounds(setup, ts, trials=10, rng=rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_perturbation_refused_before_any_draw(self, bad):
        """A perturbation holding NaN or +-inf is refused, naming it, before
        the generator moves; it would otherwise run every trial and then fail
        on a non-finite report."""
        sched = default_schedule()
        oracle = GaussianOracleDenoiser(np.zeros(2), 1.0, sched)
        setup = BoundSetup(source=oracle.source, denoiser=oracle, schedule=sched,
                           eps_a=np.array([0.1, bad]))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"^perturbation eps_a holds non-finite values$"):
            verify_bounds(setup, (50, 200), trials=10, rng=rng)
        assert rng.bit_generator.state == state
