"""The striped-task experiment: its two trainings in two processes, and
calibration's grid in lockstep, split over two processes."""

import os
import threading

import numpy as np
import pytest

from lorid import _nn, attacks, cli, experiment
from lorid.cli import main
from lorid.diffusion import MlpDenoiser
from lorid.io_formats import ConfigError, default_config, format_config
from lorid.purify import LoridConfig


class TestToyTaskTraining:
    """``toy_task_artifacts`` trains the classifier in a forked child process."""

    CFG = default_config(T=250, t=160, L=4, eta=None, ranks=(2, 2, 8, 1), seed=1)

    @staticmethod
    def _blas_threads():
        api = _nn._openblas_threads()
        return None if api is None else api[0]()

    @pytest.fixture
    def leaves_nothing(self):
        """After the test: no child process, alive or unreaped, and the thread
        count found before it."""
        threads = threading.active_count()
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert threading.active_count() == threads

    @staticmethod
    def _bits(art) -> list[bytes]:
        arrays = [p for layer in art.denoiser.params + art.clf.params for p in layer]
        arrays += [*art.basis.factors, np.array(art.basis.discarded_energy)]
        return [a.tobytes() for a in arrays]

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "without-fork"])
    def test_matches_serial_training(self, fork, monkeypatch, leaves_nothing):
        """Both paths give the float64 bits of one training after the other."""
        cfg = self.CFG
        train_images, train_labels = experiment.gen_striped_images(512, seed=cfg.seed)
        flat = train_images.reshape(512, -1)
        reference = experiment.ToyArtifacts(
            schedule=cfg.schedule,
            basis=experiment.fit_config_basis(train_images, cfg),
            denoiser=experiment.train_mlp_denoiser(
                flat, cfg.schedule, experiment.MlpTrainConfig(hidden=(64, 64), epochs=60),
                np.random.default_rng(cfg.seed + 2))[0],
            clf=experiment.train_classifier(
                flat, train_labels, experiment.ClassifierTrainConfig(hidden=(32,), epochs=150),
                np.random.default_rng(cfg.seed + 3)),
            test_images=None, test_labels=None,
        )
        if not fork:
            monkeypatch.delattr(os, "fork")
        assert self._bits(experiment.toy_task_artifacts(cfg)) == self._bits(reference)

    def test_reads_the_config_schedule(self, schedule_builds, leaves_nothing):
        """The toy task trains on ``cfg.schedule`` and builds no schedule of its own."""
        cfg = self.CFG
        schedule_builds.clear()
        art = experiment.toy_task_artifacts(cfg)
        assert schedule_builds == []
        assert art.schedule is cfg.schedule

    def test_error_in_child_is_raised_here(self, monkeypatch, tmp_path, capsys,
                                           leaves_nothing):
        """Raised with its type and message; the CLI exits 2 with its one line."""
        def failing(*args, **kwargs):
            raise ValueError("x")

        monkeypatch.setattr(experiment, "train_classifier", failing)
        with pytest.raises(ValueError, match="^x$"):
            experiment.toy_task_artifacts(self.CFG)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(format_config(default_config(T=120, t=20, L=2, eta=None,
                                                    ranks=(2, 2, 8, 1), seed=0)))
        assert main(["attack-eval", "--config", str(cfg), "--trials", "1"]) == 2
        assert capsys.readouterr().err == "error: x\n"

    def test_error_here_wins_and_child_is_reaped(self, monkeypatch, leaves_nothing):
        """The parent's error is raised after the child is reaped; the parent
        trained on one BLAS thread."""
        seen = []

        def failing(*args, **kwargs):
            seen.append(self._blas_threads())
            raise ArithmeticError("denoiser failed")

        monkeypatch.setattr(experiment, "train_mlp_denoiser", failing)
        with pytest.raises(ArithmeticError, match="denoiser failed"):
            experiment.toy_task_artifacts(self.CFG)
        assert seen == [None if self._blas_threads() is None else 1]

    def test_child_that_dies_names_its_status(self, monkeypatch, leaves_nothing):
        monkeypatch.setattr(experiment, "train_classifier", lambda *args, **kwargs: os._exit(3))
        with pytest.raises(RuntimeError, match="status 3 "):
            experiment.toy_task_artifacts(self.CFG)

    def test_result_that_cannot_be_pickled(self, leaves_nothing):
        """The child still leaves through its pipe, with an error in place of
        the result it could not send."""
        with pytest.raises(RuntimeError, match="could not send its result"):
            _nn.in_two_processes(lambda: 1, lambda: (lambda: 2))


class TestCalibrationSplit:
    """``run_calibration`` runs its grid in lockstep, split over two processes."""

    CFG = default_config(T=120, t=20, L=2, eta=None, ranks=(2, 2, 8, 1), seed=3)
    BUDGET = experiment.toy_budget(steps=2)

    @pytest.fixture(scope="class")
    def art(self):
        """Untrained models on 16 test images (4096 values per draw, so the
        draws run on the noise stream)."""
        cfg = self.CFG
        train_images, _ = experiment.gen_striped_images(64, seed=cfg.seed)
        images, labels = experiment.gen_striped_images(16, seed=cfg.seed + 1)
        rng = np.random.default_rng(470)
        return experiment.ToyArtifacts(
            schedule=cfg.schedule, basis=experiment.fit_config_basis(train_images, cfg),
            denoiser=MlpDenoiser.initialize(256, (16,), cfg.schedule.T, rng),
            clf=experiment.ToyClassifier(_nn.init_params([256, 8, 2], rng)),
            test_images=images, test_labels=labels)

    leaves_nothing = TestToyTaskTraining.leaves_nothing

    def _solo_rows(self, art, t_grid, L_grid):
        """Each point on its own fresh generator, one after the other."""
        adv = attacks.pgd(art.clf, art.test_images, art.test_labels, self.BUDGET,
                      np.random.default_rng(self.CFG.seed + 5))
        rows = []
        for t in t_grid:
            for L in L_grid:
                config = LoridConfig(t=t, L=L, basis=art.basis)
                ((clean, robust),) = experiment.purified_accuracy(
                    art.clf, art.denoiser, art.schedule, [config], [art.test_images, adv],
                    art.test_labels, 2, np.random.default_rng(self.CFG.seed + 6))
                rows.append((t, L, clean, robust))
        return rows

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "without-fork"])
    def test_rows_are_each_points_own(self, art, fork, monkeypatch, leaves_nothing):
        """Odd and even grids, each row as the point gives it alone."""
        if not fork:
            monkeypatch.delattr(os, "fork")
        for t_grid, L_grid in (([10, 15, 20], [1, 2, 3]), ([10, 20], [2])):
            rows, _ = experiment.run_calibration(self.CFG, t_grid, L_grid, self.BUDGET, trials=2,
                                          artifacts=art)
            assert rows == self._solo_rows(art, t_grid, L_grid)

    def test_fractional_grid_point_refused(self, monkeypatch):
        """A grid point that is not an integer, a whole float too, is refused
        by the run config before any model is trained."""
        monkeypatch.setattr(experiment, "toy_task_artifacts", lambda cfg: pytest.fail("trained"))
        for t_grid, L_grid, message in (([10.5], [2], "^t=10.5 "), ([10], [2.0], "^L=2.0 ")):
            with pytest.raises(ConfigError, match=message + "is not an integer"):
                experiment.run_calibration(self.CFG, t_grid, L_grid, self.BUDGET)

    def test_one_point_grid_makes_no_fork(self, art, monkeypatch, leaves_nothing):
        splits = []

        def recorded(here, there):
            splits.append(1)
            return here(), there()

        monkeypatch.setattr(experiment, "in_two_processes", recorded)
        rows, pick = experiment.run_calibration(self.CFG, [15], [3], self.BUDGET, trials=2,
                                         artifacts=art)
        assert splits == []
        assert rows == self._solo_rows(art, [15], [3]) and pick == (15, 3)
        experiment.run_calibration(self.CFG, [15], [1, 3], self.BUDGET, trials=2, artifacts=art)
        assert splits == [1]

    @pytest.mark.parametrize("t_grid, L_grid, sizes", [
        ([40, 80, 120, 160], [1, 2, 4, 8], (11, 5)),  # criterion 8's grid
        ([150, 160], [2, 4], (2, 2)),  # the defense-eval benchmark's grid
    ], ids=["criterion-8", "defense-eval"])
    def test_split_balances_the_draws(self, art, t_grid, L_grid, sizes, monkeypatch):
        """The halves meet where the larger one's summed draws are least:
        840 against 760 per purify on criterion 8's grid, 298 against 320 on
        the benchmark's."""
        halves = []

        def recorded(clf, denoiser, schedule, configs, *rest):
            halves.append([(config.t, config.L) for config in configs])
            return [[1.0, 0.0] for _ in configs]

        monkeypatch.setattr(experiment, "in_two_processes", lambda here, there: (here(), there()))
        monkeypatch.setattr(experiment, "purified_accuracy", recorded)
        cfg = default_config(T=250, t=20, L=2, eta=None, ranks=(2, 2, 8, 1), seed=3)
        experiment.run_calibration(cfg, t_grid, L_grid, self.BUDGET, trials=2, artifacts=art)
        assert tuple(map(len, halves)) == sizes
        assert halves[0] + halves[1] == [(t, L) for t in t_grid for L in L_grid]

    @pytest.mark.parametrize("where", ["here", "child"])
    def test_denoiser_error_in_either_half_is_raised(self, art, where, leaves_nothing):
        """Raised with its type and message; the child is reaped and no noise
        thread is left."""
        parent = os.getpid()

        class Failing:
            calls = 0

            def predict_eps(self, x_t, t):
                Failing.calls += 1
                if Failing.calls == 30 and (os.getpid() == parent) == (where == "here"):
                    raise ArithmeticError(f"denoiser failed {where}")
                return art.denoiser.predict_eps(x_t, t)

        failing = experiment.ToyArtifacts(**{**vars(art), "denoiser": Failing()})
        with pytest.raises(ArithmeticError, match=f"^denoiser failed {where}$"):
            experiment.run_calibration(self.CFG, [10, 20], [2], self.BUDGET, trials=2,
                                artifacts=failing)


def test_names_the_benchmark_reads_off_the_cli_are_the_drivers():
    """``lorid.cli`` still resolves the driver's names that the benchmark reads
    and traces there, each as the library's own object."""
    for name in ("toy_task_artifacts", "toy_budget", "run_attack_eval", "run_calibration"):
        assert getattr(cli, name) is getattr(experiment, name), name
    assert cli.pgd is attacks.pgd
