"""The iterated diffuse/denoise purifier, its noise stream and the perturbation helpers."""

import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from lorid import _nn
from lorid.attacks import ToyClassifier, purified_accuracy
from lorid.diffusion import (
    GaussianOracleDenoiser,
    MlpDenoiser,
    default_schedule,
    diffuse,
    make_linear_schedule,
    reverse_ancestral,
    reverse_skip,
)
from lorid.purify import (
    STREAM_MIN_VALUES,
    LoridConfig,
    _noise_source,
    lorid_purify,
    misaligned_noise,
    purify_in_lockstep,
    uniform_sign_noise,
)
from lorid.tensorops import frobenius_norm
from lorid.tucker import TensorizationLayout, fit_basis, tf_apply
from lorid.io_formats import gen_striped_images

LAYOUT_16 = TensorizationLayout(height=16, width=16, channels=1, patch=4)


@pytest.fixture(scope="module")
def sched():
    return default_schedule()


@pytest.fixture(scope="module")
def white_oracle(sched):
    return GaussianOracleDenoiser(np.zeros(8), 1.0, sched)


class TestConfig:
    def test_defaults_and_per_loop_depth(self):
        cfg = LoridConfig(t=120, L=4)
        assert cfg.per_loop_t == 30
        assert cfg.sampler == "ancestral"
        assert cfg.basis is None

    def test_validation(self):
        with pytest.raises(ValueError):
            LoridConfig(t=0)
        with pytest.raises(ValueError):
            LoridConfig(t=10, L=0)
        with pytest.raises(ValueError):
            LoridConfig(t=3, L=5)  # zero per-loop depth
        with pytest.raises(ValueError):
            LoridConfig(t=10, sampler="euler")
        with pytest.raises(ValueError):
            LoridConfig(t=10, skip_k=0)
        with pytest.raises(ValueError, match="^t=10.5 is not an integer"):
            LoridConfig(t=10.5, L=2)  # not truncated to 5 steps per loop
        with pytest.raises(ValueError, match="^L=2.0 is not an integer"):
            LoridConfig(t=10, L=2.0)
        with pytest.raises(ValueError, match="^skip_k=2.5 is not an integer"):
            LoridConfig(t=10, sampler="skip", skip_k=2.5)
        with pytest.raises(ValueError, match="^t=nan is not an integer"):
            LoridConfig(t=math.nan)

    def test_depth_beyond_schedule_rejected(self, sched):
        cfg = LoridConfig(t=2000)
        with pytest.raises(ValueError):
            cfg.validate(sched)


class TestPurify:
    def test_seeded_run_is_reproducible(self, sched, white_oracle):
        x = np.random.default_rng(401).standard_normal(8)
        cfg = LoridConfig(t=100, L=4)
        a, _ = lorid_purify(x, white_oracle, sched, cfg, np.random.default_rng(17))
        b, _ = lorid_purify(x, white_oracle, sched, cfg, np.random.default_rng(17))
        c, _ = lorid_purify(x, white_oracle, sched, cfg, np.random.default_rng(18))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_trace_counts_loops_and_distances(self, sched, white_oracle):
        x = np.random.default_rng(403).standard_normal(8)
        cfg = LoridConfig(t=60, L=3)
        out, trace = lorid_purify(x, white_oracle, sched, cfg, np.random.default_rng(0),
                                  clean_ref=x)
        assert trace.loops == 3
        assert len(trace.distances) == 4  # initial + one per loop
        assert trace.wall_time_s > 0.0
        assert out.shape == x.shape

    def test_bad_clean_reference_refused_before_any_draw(self, sched, white_oracle):
        """A non-finite clean reference or one of another shape raises before the
        generator moves; one far enough away that its distance overflows raises,
        and one whose squared distance alone overflows does not, with no numpy
        warning."""
        x = np.random.default_rng(405).standard_normal((2, 8))
        cfg = LoridConfig(t=20, L=2)
        for ref, message in ((np.where(x > 0, np.inf, x), "non-finite"),
                             (x[:1], r"shape \(1, 8\) differs from the input's \(2, 8\)")):
            rng = np.random.default_rng(6)
            before = rng.bit_generator.state
            with pytest.raises(ValueError, match=message):
                lorid_purify(x, white_oracle, sched, cfg, rng, clean_ref=ref)
            assert rng.bit_generator.state == before
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="distance to the clean reference overflows"):
                lorid_purify(x, white_oracle, sched, cfg, np.random.default_rng(6),
                             clean_ref=np.full(x.shape, 1e308))
            _, trace = lorid_purify(x, white_oracle, sched, cfg, np.random.default_rng(6),
                                    clean_ref=np.full(x.shape, 1e300))
        np.testing.assert_allclose(trace.distances, 4e300, rtol=1e-12)

    def test_batch_matches_state_evolution(self, sched):
        """A batch run visits the same states as the flat run of the stacked vector.

        Noise draws are shape-driven, so purifying a (N, d) batch equals
        purifying the same data as one N*d vector with the same seed.
        """
        oracle = GaussianOracleDenoiser(np.zeros(4), 1.0, sched)
        oracle_flat = GaussianOracleDenoiser(np.zeros(12), 1.0, sched)
        x = np.random.default_rng(404).standard_normal((3, 4))
        cfg = LoridConfig(t=40, L=2)
        a, _ = lorid_purify(x, oracle, sched, cfg, np.random.default_rng(5))
        b, _ = lorid_purify(x.reshape(12), oracle_flat, sched, cfg, np.random.default_rng(5))
        np.testing.assert_allclose(a.reshape(12), b, rtol=0, atol=1e-12)

    def test_skip_sampler_accepted(self, sched, white_oracle):
        x = np.random.default_rng(407).standard_normal(8)
        cfg = LoridConfig(t=100, L=2, sampler="skip", skip_k=10)
        out, trace = lorid_purify(x, white_oracle, sched, cfg, np.random.default_rng(1))
        assert trace.loops == 2
        assert np.all(np.isfinite(out))

    def test_looping_beats_single_pass_for_oracle(self, sched, white_oracle):
        """Splitting depth t over many shallow loops lowers the recovery error."""
        rng = np.random.default_rng(409)
        t = 400
        n = 600
        errs = {}
        for L in (1, 8):
            cfg = LoridConfig(t=t, L=L)
            run_rng = np.random.default_rng(410)
            se = []
            for _ in range(n):
                x0 = rng.standard_normal(8)
                out, _ = lorid_purify(x0, white_oracle, sched, cfg, run_rng)
                se.append(np.mean((out - x0) ** 2))
            errs[L] = float(np.mean(se))
        assert errs[8] < errs[1]


@pytest.fixture(scope="module")
def setup():
    images, _ = gen_striped_images(128, seed=21)
    basis = fit_basis(images, LAYOUT_16, rank_policy=(2, 2, 8, 1))
    sched = make_linear_schedule(250, 1e-4, 0.02)
    oracle = GaussianOracleDenoiser(np.zeros(256), 1.0, sched)
    return images, basis, sched, oracle


class TestPurifyWithProjection:
    def test_projection_runs_before_diffusion(self, setup):
        """An off-subspace perturbation is removed no matter what the sampler does."""
        images, basis, sched, oracle = setup
        x = images[0]
        noise = misaligned_noise(x.shape, basis, budget_l2=2.0, rng=np.random.default_rng(420))
        cfg = LoridConfig(t=1, L=1, basis=basis)
        out_clean, _ = lorid_purify(x, oracle, sched, cfg, np.random.default_rng(7))
        out_pert, _ = lorid_purify(x + noise, oracle, sched, cfg, np.random.default_rng(7))
        np.testing.assert_allclose(out_pert, out_clean, rtol=0, atol=1e-9)

    def test_image_shape_round_trip(self, setup):
        images, basis, sched, oracle = setup
        cfg = LoridConfig(t=10, L=1, basis=basis)
        out, _ = lorid_purify(images[:5], oracle, sched, cfg, np.random.default_rng(4))
        assert out.shape == (5, 16, 16, 1)

    def test_trace_distance_starts_at_projection_error(self, setup):
        images, basis, sched, oracle = setup
        x = images[0]
        cfg = LoridConfig(t=5, L=1, basis=basis)
        _, trace = lorid_purify(x, oracle, sched, cfg, np.random.default_rng(1), clean_ref=x)
        expected = frobenius_norm(tf_apply(x, basis) - x)
        np.testing.assert_allclose(trace.distances[0], expected, rtol=1e-12)


class TestOverflow:
    """A finite input that overflows inside the purifier is refused with one
    ValueError and no numpy warning, by lorid_purify and by purify_in_lockstep."""

    @pytest.mark.parametrize("value", [1e308, 1e200])
    def test_refused_only_where_the_output_overflows(self, setup, mlp, value):
        _, basis, sched, _ = setup
        x = np.full((4, 16, 16, 1), value)
        cfg = LoridConfig(t=160, L=4, basis=basis)
        runs = [lambda: lorid_purify(x, mlp, sched, cfg, np.random.default_rng(470))[0],
                lambda: purify_in_lockstep([x], mlp, sched, [cfg], np.random.default_rng(470),
                                           lambda p: p)[0][0]]
        for run in runs:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if value == 1e308:
                    with pytest.raises(ValueError, match="^purify overflows float64"):
                        run()
                else:
                    assert np.all(np.isfinite(run()))


def _serial_purify(x, denoiser, sched, cfg, rng):
    """The purifier's loops built from the public samplers, every draw made
    from ``rng`` on this thread: the reference the noise stream must match."""
    flat = tf_apply(x, cfg.basis).reshape(x.shape[0], -1) if cfg.basis is not None else x
    t = cfg.per_loop_t
    for _ in range(cfg.L):
        noisy = diffuse(flat, t, sched, rng.standard_normal(flat.shape))
        if cfg.sampler == "ancestral":
            flat = reverse_ancestral(noisy, t, denoiser, sched, rng)
        else:
            flat = reverse_skip(noisy, t, cfg.skip_k, denoiser, sched)
    return flat.reshape(x.shape)


class _Probe:
    """Passes calls to a denoiser, recording the live thread count at each and
    raising on call number ``fail_at``."""

    def __init__(self, inner, fail_at=None):
        self.inner = inner
        self.fail_at = fail_at
        self.threads = []

    def predict_eps(self, x_t, t):
        self.threads.append(threading.active_count())
        if len(self.threads) == self.fail_at:
            raise RuntimeError("denoiser failed")
        return self.inner.predict_eps(x_t, t)


@pytest.fixture(scope="module")
def mlp(setup):
    _, _, sched, _ = setup
    return MlpDenoiser.initialize(256, (32,), sched.T, np.random.default_rng(440))


class TestNoiseStream:
    @pytest.mark.parametrize("sampler", ["ancestral", "skip"])
    @pytest.mark.parametrize("with_basis", [False, True])
    @pytest.mark.parametrize("n_images", [8, 16])  # 2048 and 4096 values per draw
    def test_matches_serial_reference(self, setup, mlp, sampler, with_basis, n_images):
        images, basis, sched, _ = setup
        x = images[:n_images] if with_basis else images[:n_images].reshape(n_images, -1)
        # At least four draws (L=4 for skip), so the helper, two draws ahead,
        # is still running at the first denoiser call.
        cfg = LoridConfig(t=12, L=4, basis=basis if with_basis else None, sampler=sampler,
                          skip_k=2)
        probe = _Probe(mlp)
        before = threading.active_count()
        rng_stream, rng_serial = np.random.default_rng(441), np.random.default_rng(441)
        out, _ = lorid_purify(x, probe, sched, cfg, rng_stream)
        ref = _serial_purify(x, mlp, sched, cfg, rng_serial)
        assert out.tobytes() == ref.tobytes()
        assert rng_stream.bit_generator.state == rng_serial.bit_generator.state
        assert rng_stream.standard_normal(4).tobytes() == rng_serial.standard_normal(4).tobytes()
        streamed = n_images * 256 >= STREAM_MIN_VALUES
        assert probe.threads[0] == before + streamed and min(probe.threads) == before
        assert threading.active_count() == before

    @pytest.mark.parametrize("n_images", [8, 16])  # 2048 and 4096 values per draw
    def test_image_batch_without_basis_is_its_rows(self, setup, mlp, n_images):
        """Without a basis, a batch of images is purified as its rows: the same
        bytes, in the images' shape, and the same generator end state."""
        images, _, sched, _ = setup
        x = images[:n_images]
        cfg = LoridConfig(t=12, L=4)
        rng_images, rng_rows = np.random.default_rng(446), np.random.default_rng(446)
        out, _ = lorid_purify(x, mlp, sched, cfg, rng_images)
        rows, _ = lorid_purify(x.reshape(n_images, -1), mlp, sched, cfg, rng_rows)
        assert out.shape == x.shape
        assert out.tobytes() == rows.tobytes()
        assert rng_images.bit_generator.state == rng_rows.bit_generator.state

    @pytest.mark.parametrize("n_images", [8, 16])
    def test_denoiser_error_propagates_and_thread_ends(self, setup, mlp, n_images):
        images, _, sched, _ = setup
        x = images[:n_images].reshape(n_images, -1)
        before = threading.active_count()
        probe = _Probe(mlp, fail_at=5)
        with pytest.raises(RuntimeError, match="denoiser failed"):
            lorid_purify(x, probe, sched, LoridConfig(t=12, L=3), np.random.default_rng(442))
        assert len(probe.threads) == 5
        assert threading.active_count() == before

    def test_projection_error_leaves_generator_untouched(self, setup):
        """The helper makes no draw before the sampler asks for one."""
        _, basis, sched, oracle = setup
        wrong_layout = np.zeros((16, 8, 32, 1))  # 4096 values, not the basis's 16x16x1
        rng = np.random.default_rng(445)
        state = rng.bit_generator.state
        before = threading.active_count()
        with pytest.raises(ValueError):
            lorid_purify(wrong_layout, oracle, sched, LoridConfig(t=6, L=2, basis=basis), rng)
        assert rng.bit_generator.state == state
        assert threading.active_count() == before

    def test_stream_must_be_drained_exactly(self):
        shape = (64, 64)
        before = threading.active_count()
        rng = np.random.default_rng(443)
        with pytest.raises(RuntimeError, match="untaken"):
            with _noise_source(rng, shape, 3) as noise:
                noise.standard_normal(shape)
        with pytest.raises(RuntimeError, match="more draws"):
            with _noise_source(rng, shape, 1) as noise:
                noise.standard_normal(shape)
                noise.standard_normal(shape)
        with pytest.raises(ValueError, match="shape"):
            with _noise_source(rng, shape, 1) as noise:
                noise.standard_normal((64, 63))
        assert threading.active_count() == before

    def test_concurrent_purifies_match_serial_reference(self, setup, mlp):
        """Four streaming purifies at once, with a short switch interval: each
        gives its serial result."""
        images, _, sched, _ = setup
        x = images[:16].reshape(16, -1)
        cfg = LoridConfig(t=12, L=4)
        seeds = range(450, 454)
        results = {}

        def work(seed):
            results[seed] = lorid_purify(x, mlp, sched, cfg, np.random.default_rng(seed))[0]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(seed,)) for seed in seeds]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        for seed in seeds:
            ref = _serial_purify(x, mlp, sched, cfg, np.random.default_rng(seed))
            assert results[seed].tobytes() == ref.tobytes()

    @pytest.mark.skipif(_nn._openblas_threads() is None, reason="numpy bundles no OpenBLAS")
    def test_blas_held_to_one_thread_while_streaming(self, setup, mlp):
        """Purifies above and below the noise stream's size both run on one
        BLAS thread."""
        images, _, sched, _ = setup
        get, _ = _nn._openblas_threads()
        counts = {}
        for n_images in (8, 16):
            seen = []

            class Blas:
                def predict_eps(self, x_t, t):
                    seen.append(get())
                    return mlp.predict_eps(x_t, t)

            lorid_purify(images[:n_images].reshape(n_images, -1), Blas(), sched,
                         LoridConfig(t=6, L=2), np.random.default_rng(444))
            counts[n_images] = set(seen)
        assert counts == {8: {1}, 16: {1}}


# Draw counts per purify: ancestral 6, 6, 6, 7, 6, 6 and skip 1, 2, 3, 1, 2, 3.
LOCKSTEP_GRID = [(t, L) for t in (6, 7) for L in (1, 2, 3)]


class TestLockstep:
    """Configs purified side by side on one sequence of draws each give what
    they give alone."""

    @staticmethod
    def _configs(basis, sampler):
        return [LoridConfig(t=t, L=L, basis=basis, sampler=sampler, skip_k=2)
                for t, L in LOCKSTEP_GRID]

    @staticmethod
    def _inputs(images, n_images, with_basis):
        x = images[:n_images] if with_basis else images[:n_images].reshape(n_images, -1)
        return [x, -0.5 * x]

    @pytest.mark.parametrize("sampler", ["ancestral", "skip"])
    @pytest.mark.parametrize("with_basis", [False, True])
    @pytest.mark.parametrize("n_images", [8, 16])  # 2048 and 4096 values per draw
    def test_each_config_matches_its_solo_run(self, setup, mlp, sampler, with_basis,
                                              n_images):
        """Every config's outputs are the bytes of its own run of lorid_purify
        calls on a fresh generator, and the generator ends where the longest
        config's run leaves it."""
        images, basis, sched, _ = setup
        configs = self._configs(basis if with_basis else None, sampler)
        inputs = self._inputs(images, n_images, with_basis)
        before = threading.active_count()
        rng = np.random.default_rng(460)
        made = purify_in_lockstep(inputs * 2, mlp, sched, configs, rng, lambda p: p.tobytes())
        assert threading.active_count() == before
        ends = []
        for cfg, outputs in zip(configs, made):
            solo = np.random.default_rng(460)
            expected = [lorid_purify(x, mlp, sched, cfg, solo)[0].tobytes()
                        for _ in range(2) for x in inputs]
            assert outputs == expected
            ends.append((cfg.draws, solo.bit_generator.state))
        assert rng.bit_generator.state == max(ends, key=lambda end: end[0])[1]

    @pytest.mark.parametrize("sampler", ["ancestral", "skip"])
    @pytest.mark.parametrize("with_basis", [False, True])
    @pytest.mark.parametrize("n_images", [8, 16])
    def test_purified_accuracy_per_config_matches_solo_call(self, setup, mlp, sampler,
                                                            with_basis, n_images):
        images, basis, sched, _ = setup
        configs = self._configs(basis if with_basis else None, sampler)
        inputs = self._inputs(images, n_images, with_basis)
        clf = ToyClassifier(_nn.init_params([256, 8, 2], np.random.default_rng(461)))
        labels = np.arange(n_images) % 2
        rng = np.random.default_rng(462)
        together = purified_accuracy(clf, mlp, sched, configs, inputs, labels, 2, rng)
        solo_rngs = [np.random.default_rng(462) for _ in configs]
        alone = [purified_accuracy(clf, mlp, sched, [cfg], inputs, labels, 2, solo)[0]
                 for cfg, solo in zip(configs, solo_rngs)]
        assert together == alone
        longest = max(range(len(configs)), key=lambda i: configs[i].draws)
        assert rng.bit_generator.state == solo_rngs[longest].bit_generator.state

    @pytest.mark.parametrize("sampler", ["ancestral", "skip"])
    @pytest.mark.parametrize("n_images", [8, 16])
    def test_one_config_matches_serial_reference(self, setup, mlp, sampler, n_images):
        images, basis, sched, _ = setup
        x = images[:n_images]
        cfg = LoridConfig(t=12, L=4, basis=basis, sampler=sampler, skip_k=2)
        rng, rng_serial = np.random.default_rng(463), np.random.default_rng(463)
        ((out,),) = purify_in_lockstep([x], mlp, sched, [cfg], rng, lambda p: p)
        assert out.tobytes() == _serial_purify(x, mlp, sched, cfg, rng_serial).tobytes()
        assert rng.bit_generator.state == rng_serial.bit_generator.state

    @pytest.mark.parametrize("n_images", [8, 16])
    def test_denoiser_error_propagates_and_thread_ends(self, setup, mlp, n_images):
        images, _, sched, _ = setup
        x = images[:n_images].reshape(n_images, -1)
        before = threading.active_count()
        probe = _Probe(mlp, fail_at=7)
        configs = [LoridConfig(t=12, L=3), LoridConfig(t=8, L=2)]
        with pytest.raises(RuntimeError, match="denoiser failed"):
            purify_in_lockstep([x, x], probe, sched, configs, np.random.default_rng(464),
                               lambda p: p)
        assert len(probe.threads) == 7
        assert threading.active_count() == before

    def test_refusals_come_before_any_draw(self, setup, mlp):
        images, basis, sched, _ = setup
        x = images[:16]
        bad_pixel = x.copy()
        bad_pixel[0, 0, 0, 0] = np.nan
        cases = [
            ([x], [], "at least one config"),
            ([x], [LoridConfig(t=6), LoridConfig(t=300)], "exceeds schedule length"),
            ([x, bad_pixel], [LoridConfig(t=6)], "non-finite"),
            # One image: its rows without a basis, one flat sample with it.
            ([x[0]], [LoridConfig(t=6), LoridConfig(t=6, basis=basis)], "shapes"),
            ([x, x[:8]], [LoridConfig(t=6)], "shapes"),
            ([], [LoridConfig(t=6)], r"shapes \[\], not one"),
        ]
        for inputs, configs, message in cases:
            rng = np.random.default_rng(465)
            state = rng.bit_generator.state
            with pytest.raises(ValueError, match=message):
                purify_in_lockstep(inputs, mlp, sched, configs, rng, lambda p: p)
            assert rng.bit_generator.state == state


class _DrawProbe:
    """Stands in for the generator: records the bytes ``tracemalloc`` sees live
    at each ``standard_normal`` call, then makes the draw from ``rng``."""

    def __init__(self, rng):
        self.rng = rng
        self.live = []

    def standard_normal(self, shape):
        self.live.append(tracemalloc.get_traced_memory()[0])
        return self.rng.standard_normal(shape)


def test_walk_holds_one_state_per_config_at_each_draw():
    """At every draw of an inline purify (8 x 500 values per draw), the live
    bytes above those held before it stay within 1.5 states per config, and
    each input takes ``LoridConfig.draws`` draws.  A purify that kept the
    pre-diffuse state while its chain runs reads about 2.1 states per config."""
    sched = make_linear_schedule(50, 1e-4, 0.02)
    oracle = GaussianOracleDenoiser(np.zeros(500), np.linspace(0.5, 2.0, 500), sched)
    x = np.random.default_rng(480).standard_normal((8, 500))
    inputs = [x, -x]
    assert x.size < STREAM_MIN_VALUES
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        for sampler in ("ancestral", "skip"):
            grid = [LoridConfig(t=t, L=L, sampler=sampler, skip_k=k)
                    for t, L, k in [(6, 1, 1), (9, 3, 2), (12, 2, 4)]]
            for cfg in grid:
                probe = _DrawProbe(np.random.default_rng(481))
                before = tracemalloc.get_traced_memory()[0]
                lorid_purify(x, oracle, sched, cfg, probe)
                assert len(probe.live) == cfg.draws
                assert max(probe.live) - before <= 1.5 * x.nbytes
            for pair in zip(grid, grid[1:]):
                probe = _DrawProbe(np.random.default_rng(482))
                before = tracemalloc.get_traced_memory()[0]
                purify_in_lockstep(inputs, oracle, sched, pair, probe, lambda p: float(p[0, 0]))
                assert len(probe.live) == 2 * max(cfg.draws for cfg in pair)
                assert max(probe.live) - before <= 1.5 * len(pair) * x.nbytes
    finally:
        if not tracing:
            tracemalloc.stop()


class TestPerturbations:
    def test_uniform_sign_noise(self):
        rng = np.random.default_rng(431)
        noise = uniform_sign_noise((64,), 0.1, rng)
        assert set(np.unique(np.abs(noise))) == {0.1}
        with pytest.raises(ValueError):
            uniform_sign_noise((4,), -0.1, rng)

    def test_misaligned_noise_outside_subspace(self):
        images, _ = gen_striped_images(64, seed=22)
        basis = fit_basis(images, LAYOUT_16, rank_policy=(1, 1, 2, 1))
        rng = np.random.default_rng(432)
        noise = misaligned_noise((16, 16, 1), basis, budget_l2=0.7, rng=rng)
        np.testing.assert_allclose(frobenius_norm(noise), 0.7, rtol=1e-12)
        assert frobenius_norm(tf_apply(noise, basis)) < 1e-10

    def test_misaligned_noise_full_rank_basis_fails(self):
        """When the basis retains everything there is no off-subspace direction."""
        images, _ = gen_striped_images(64, seed=23)
        full = fit_basis(images, LAYOUT_16, rank_policy=(4, 4, 16, 1))
        with pytest.raises(RuntimeError):
            misaligned_noise((16, 16, 1), full, budget_l2=1.0, rng=np.random.default_rng(0))
