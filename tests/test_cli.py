"""End-to-end CLI behavior: exit codes, file outputs, reproducibility."""

import copy
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lorid
from lorid import _nn, cli, experiment
from lorid.analysis import kl_gaussian_curve, loop_bound_curve, verify_bounds
from lorid.cli import main
from lorid.attacks import ClassifierTrainConfig
from lorid.diffusion import MlpDenoiser, MlpTrainConfig, make_linear_schedule
from lorid.purify import lorid_purify, purify_in_lockstep
from lorid.io_formats import (
    default_config,
    format_config,
    read_tensor,
    write_mlp,
    write_tensor,
)


def write_config(tmp_path, **overrides):
    kwargs = {"T": 120, "t": 20, "L": 2, "seed": 0}
    kwargs.update(overrides)
    path = tmp_path / "run.cfg"
    path.write_text(format_config(default_config(**kwargs)))
    return str(path)


class TestGenData:
    def test_gaussian_dataset(self, tmp_path):
        out = str(tmp_path / "data.lten")
        rc = main(["gen-data", "--task", "gaussian", "--n", "10", "--d", "3",
                   "--seed", "4", "--out", out])
        assert rc == 0
        assert read_tensor(out).shape == (10, 3)

    def test_striped_requires_labels(self, tmp_path):
        """Both labelled tasks refuse to run without --labels-out, before writing."""
        for task in ("striped", "two-gaussians"):
            out = tmp_path / f"{task}.lten"
            rc = main(["gen-data", "--task", task, "--n", "8", "--out", str(out)])
            assert rc == 2
            assert not out.exists()

    def test_striped_with_labels(self, tmp_path):
        out, labels = str(tmp_path / "x.lten"), str(tmp_path / "y.lten")
        rc = main(["gen-data", "--task", "striped", "--n", "8", "--out", out,
                   "--labels-out", labels])
        assert rc == 0
        assert read_tensor(out).shape == (8, 16, 16, 1)
        assert read_tensor(labels).shape == (8,)

    @pytest.mark.parametrize("task", ["gaussian", "two-gaussians"])
    def test_d_defaults_to_8(self, task, tmp_path):
        out, labels = tmp_path / "x.lten", tmp_path / "y.lten"
        extra = ["--labels-out", str(labels)] if task == "two-gaussians" else []
        assert main(["gen-data", "--task", task, "--n", "4", "--out", str(out), *extra]) == 0
        assert read_tensor(str(out)).shape == (4, 8)

    @pytest.mark.parametrize("task, flag, extra, reads", [
        ("gaussian", "--labels-out", [], "--d"),
        ("two-point", "--labels-out", [], "none of --d, --labels-out"),
        ("two-point", "--d", [], "none of --d, --labels-out"),
        ("striped", "--d", ["--labels-out", "{labels}"], "--labels-out"),
    ], ids=["gaussian--labels-out", "two-point--labels-out", "two-point--d", "striped--d"])
    def test_unread_flag_refused(self, task, flag, extra, reads, tmp_path, capsys):
        """A flag the task does not read is refused: exit 2, one stderr line,
        nothing printed and no file written."""
        labels = tmp_path / "labels.file"
        value = "{labels}" if flag == "--labels-out" else "5"
        argv = ["gen-data", "--task", task, "--n", "4", "--out", "{out}", *extra, flag, value]
        code, err, wrote = _run_refused(argv, {"labels": labels}, tmp_path, capsys)
        assert code == 2
        assert err == [f"error: {task} task does not read {flag} (it reads {reads})"]
        assert not wrote and not labels.exists()

    def test_unknown_command_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["definitely-not-a-command"])
        assert exc.value.code == 2


class TestCurves:
    def test_fig2_rows_match_library(self, tmp_path):
        cfg = write_config(tmp_path, T=1000)
        out = str(tmp_path / "fig2.csv")
        rc = main(["curves", "--kind", "fig2", "--config", cfg, "--out", out,
                   "--effective-t", "200,400", "--l-max", "10"])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "effective_t,L,t_over_L,value"
        assert len(lines) == 1 + 2 * 10
        sched = make_linear_schedule(1000, 1e-4, 0.02)
        expected = loop_bound_curve(sched, 200, [1])[0].value
        first = lines[1].split(",")
        assert first[:3] == ["200", "1", "200"]
        np.testing.assert_allclose(float(first[3]), expected, rtol=1e-15)

    def test_mmse_curve(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "mmse.csv")
        rc = main(["curves", "--kind", "mmse", "--config", cfg, "--out", out,
                   "--snr-grid", "0,1"])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "snr,mmse_gaussian,mmse_binary"
        row0 = lines[1].split(",")
        assert float(row0[1]) == 1.0 and float(row0[2]) == 1.0

    def test_defaults(self, tmp_path):
        """fig2 reads depth budgets 200, 400, 600 and 900 and loop counts up
        to 10, and mmse the snr grid 0, 0.5, 1 and 2, when not given."""
        cfg = write_config(tmp_path, T=1000)
        fig2, mmse = tmp_path / "fig2.csv", tmp_path / "mmse.csv"
        assert main(["curves", "--kind", "fig2", "--config", cfg, "--out", str(fig2)]) == 0
        assert main(["curves", "--kind", "mmse", "--config", cfg, "--out", str(mmse)]) == 0
        rows = [line.split(",")[:2] for line in fig2.read_text().splitlines()[1:]]
        assert rows == [[t, str(L)] for t in ("200", "400", "600", "900") for L in range(1, 11)]
        snrs = [float(line.split(",")[0]) for line in mmse.read_text().splitlines()[1:]]
        assert snrs == [0.0, 0.5, 1.0, 2.0]

    @pytest.mark.parametrize("kind, flag, value, reads", [
        ("mmse", "--effective-t", "5", "--snr-grid"),
        ("mmse", "--l-max", "3", "--snr-grid"),
        ("snr", "--effective-t", "5", "none of --effective-t, --l-max, --snr-grid"),
        ("snr", "--l-max", "3", "none of --effective-t, --l-max, --snr-grid"),
        ("snr", "--snr-grid", "1", "none of --effective-t, --l-max, --snr-grid"),
        ("fig2", "--snr-grid", "1", "--effective-t, --l-max"),
    ], ids=["mmse--effective-t", "mmse--l-max", "snr--effective-t", "snr--l-max",
            "snr--snr-grid", "fig2--snr-grid"])
    def test_unread_flag_refused(self, kind, flag, value, reads, tmp_path, capsys):
        """A flag the curve kind does not read is refused: exit 2, one stderr
        line, nothing printed and no file written."""
        argv = ["curves", "--kind", kind, "--config", write_config(tmp_path, T=1000),
                "--out", "{out}", flag, value]
        code, err, wrote = _run_refused(argv, {}, tmp_path, capsys)
        assert code == 2
        assert err == [f"error: {kind} curve does not read {flag} (it reads {reads})"]
        assert not wrote

    def test_snr_curve_covers_schedule(self, tmp_path):
        cfg = write_config(tmp_path, T=60)
        out = str(tmp_path / "snr.csv")
        rc = main(["curves", "--kind", "snr", "--config", cfg, "--out", out])
        assert rc == 0
        assert len(open(out).read().splitlines()) == 61


@pytest.fixture(scope="module")
def arg_files(tmp_path_factory):
    """A config, a striped dataset and its labels, for commands to read."""
    tmp = tmp_path_factory.mktemp("args")
    cfg = write_config(tmp, T=120, t=20, L=2, eta=None, ranks=(2, 2, 8, 1))
    data, labels = str(tmp / "data.lten"), str(tmp / "labels.lten")
    assert main(["gen-data", "--task", "striped", "--n", "8", "--out", data,
                 "--labels-out", labels]) == 0
    files = {"cfg": cfg, "data": data, "labels": labels}
    images, classes = read_tensor(data), read_tensor(labels)
    images[0, 3, 5, 0] = np.nan
    bad = {"nan_data": images, "scalar_data": np.array(3.0),
           "empty_data": np.zeros((0, 16, 16, 1))}
    for name, value in (("nan_labels", np.nan), ("half_labels", 0.5)):
        bad[name] = classes.copy()
        bad[name][2] = value
    for name, array in bad.items():
        files[name] = str(tmp / f"{name}.lten")
        write_tensor(files[name], array)
    return files


# Every count flag of every subcommand, with the other arguments it needs;
# "{out}" is a path that must not be written.
COUNT_FLAGS = [
    (["gen-data", "--task", "gaussian", "--out", "{out}"], "--n"),
    (["gen-data", "--task", "gaussian", "--n", "4", "--out", "{out}"], "--d"),
    (["train-denoiser", "--data", "{data}", "--config", "{cfg}", "--out", "{out}"], "--epochs"),
    (["train-denoiser", "--data", "{data}", "--config", "{cfg}", "--out", "{out}"], "--hidden"),
    (["train-classifier", "--data", "{data}", "--labels", "{labels}", "--out", "{out}"],
     "--epochs"),
    (["train-classifier", "--data", "{data}", "--labels", "{labels}", "--out", "{out}"],
     "--hidden"),
    (["curves", "--kind", "fig2", "--config", "{cfg}", "--out", "{out}"], "--l-max"),
    (["curves", "--kind", "fig2", "--config", "{cfg}", "--out", "{out}"], "--effective-t"),
    (["verify", "--theorem", "2", "--config", "{cfg}"], "--trials"),
    (["verify", "--theorem", "1", "--config", "{cfg}"], "--pairs"),
    (["verify", "--theorem", "4", "--config", "{cfg}"], "--effective-t"),
    (["attack-eval", "--config", "{cfg}", "--out", "{out}"], "--steps"),
    (["attack-eval", "--config", "{cfg}", "--out", "{out}"], "--trials"),
    (["calibrate", "--config", "{cfg}", "--t-grid", "10", "--L-grid", "2", "--out", "{out}"],
     "--steps"),
    (["calibrate", "--config", "{cfg}", "--t-grid", "10", "--L-grid", "2", "--out", "{out}"],
     "--trials"),
    (["calibrate", "--config", "{cfg}", "--L-grid", "2", "--out", "{out}"], "--t-grid"),
    (["calibrate", "--config", "{cfg}", "--t-grid", "10", "--out", "{out}"], "--L-grid"),
]

# The commands that take a learning rate.
RATE_COMMANDS = [
    ["train-denoiser", "--data", "{data}", "--config", "{cfg}", "--out", "{out}",
     "--epochs", "2"],
    ["train-classifier", "--data", "{data}", "--labels", "{labels}", "--out", "{out}",
     "--epochs", "2"],
]


# The two ways a training run diverges: a non-finite loss, or an epoch mean
# loss over _nn.DIVERGENCE_FACTOR times the first batch's.
LOSS_INF = re.escape("training diverged (loss inf); try a smaller rate")
LOSS_FACTOR = (r"training diverged \(loss \S+, over 1e\+06 times the first batch's \S+\); "
               r"try a smaller rate")


def _run_refused(argv, arg_files, tmp_path, capsys):
    """Run argv; return its exit code, its stderr lines, and whether it wrote {out}."""
    out = tmp_path / "out.file"
    argv = [a.format(out=out, **arg_files) for a in argv]
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert not captured.out, "a refused command printed a partial result"
    return code, captured.err.splitlines(), out.exists()


class TestHostileArguments:
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "abc"])
    @pytest.mark.parametrize("argv, flag", COUNT_FLAGS,
                             ids=[f"{a[0]}{f}" for a, f in COUNT_FLAGS])
    def test_count_below_one_or_not_an_integer(self, argv, flag, value, arg_files, tmp_path,
                                               capsys):
        """Exit 2 with one stderr line naming the flag, before any work."""
        code, err, wrote = _run_refused(argv + [flag, value], arg_files, tmp_path, capsys)
        assert code == 2
        assert len(err) == 1 and f"argument {flag}: expected an integer >= 1" in err[0], err
        assert not wrote

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "abc"])
    @pytest.mark.parametrize("argv", RATE_COMMANDS, ids=[a[0] for a in RATE_COMMANDS])
    def test_rate_not_finite_and_positive(self, argv, value, arg_files, tmp_path, capsys):
        """Exit 2 with one stderr line naming --lr, before any training."""
        code, err, wrote = _run_refused(argv + ["--lr", value], arg_files, tmp_path, capsys)
        assert code == 2
        assert len(err) == 1 and "argument --lr: expected a finite number > 0" in err[0], err
        assert not wrote

    @pytest.mark.filterwarnings("error")
    # Each row's extra arguments and the message each command must print: the
    # denoiser's loss passes the factor before it overflows, the classifier's
    # reaches inf first.
    @pytest.mark.parametrize("case, extra, messages", [
        ("nan-data", [], {"train-denoiser": re.escape("training data holds non-finite values"),
                          "train-classifier": re.escape("training data holds non-finite values")}),
        ("scalar-data", [], {cmd: re.escape("--data needs at least one sample, got shape ()")
                             for cmd in ("train-denoiser", "train-classifier")}),
        ("empty-data", [], {cmd: re.escape("--data needs at least one sample, got shape "
                                           "(0, 16, 16, 1)")
                            for cmd in ("train-denoiser", "train-classifier")}),
        ("diverging-rate", ["--epochs", "3", "--lr", "1e150"],
         {"train-denoiser": LOSS_FACTOR, "train-classifier": LOSS_INF}),
        ("huge-finite-loss", ["--epochs", "2", "--lr", "1e150"],
         {"train-denoiser": LOSS_FACTOR, "train-classifier": LOSS_INF}),
        ("growing-loss", ["--epochs", "3", "--lr", "1e6"],
         {"train-denoiser": LOSS_FACTOR, "train-classifier": LOSS_INF}),
    ], ids=["nan-data", "scalar-data", "empty-data", "diverging-rate", "huge-finite-loss",
            "growing-loss"])
    @pytest.mark.parametrize("argv", RATE_COMMANDS, ids=[a[0] for a in RATE_COMMANDS])
    def test_bad_data_or_diverging_rate(self, argv, case, extra, messages, arg_files, tmp_path,
                                        capsys):
        """A NaN in the data and data with no sample are refused before
        training, and a legal rate that diverges, to a non-finite loss or to an
        epoch loss a million times the first batch's, is a usage error: exit 2,
        one stderr line, no model, no warning."""
        message = messages[argv[0]]
        if case.endswith("-data"):
            argv = [a.replace("{data}", f"{{{case.replace('-', '_')}}}") for a in argv]
        argv = argv + extra  # the last --epochs wins
        code, err, wrote = _run_refused(argv, arg_files, tmp_path, capsys)
        assert code == 2
        assert len(err) == 1 and re.search(message, err[0]), err
        assert not wrote

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("labels", ["nan_labels", "half_labels"])
    def test_labels_not_finite_integers(self, labels, arg_files, tmp_path, capsys):
        """A NaN label or a label of 0.5 is refused, not cast to a class."""
        argv = ["train-classifier", "--data", "{data}", "--labels", f"{{{labels}}}",
                "--out", "{out}", "--epochs", "2"]
        code, err, wrote = _run_refused(argv, arg_files, tmp_path, capsys)
        assert code == 2
        assert len(err) == 1 and "labels must be finite integers" in err[0], err
        assert not wrote

    @pytest.mark.parametrize("argv", [
        ["attack-eval", "--config", "{cfg}", "--out", "{out}", "--eps", "nan"],
        ["attack-eval", "--config", "{cfg}", "--out", "{out}", "--eps", "inf"],
        ["calibrate", "--config", "{cfg}", "--t-grid", "10", "--L-grid", "2", "--out", "{out}",
         "--eps", "nan"],
        ["calibrate", "--config", "{cfg}", "--t-grid", "10", "--L-grid", "2", "--out", "{out}",
         "--eps", "inf"],
        ["curves", "--kind", "mmse", "--config", "{cfg}", "--out", "{out}", "--snr-grid", "nan"],
        ["curves", "--kind", "mmse", "--config", "{cfg}", "--out", "{out}",
         "--snr-grid", "1,inf"],
    ], ids=["attack-eval-eps-nan", "attack-eval-eps-inf", "calibrate-eps-nan",
            "calibrate-eps-inf", "curves-snr-nan", "curves-snr-inf"])
    def test_non_finite_value(self, argv, arg_files, tmp_path, capsys):
        code, err, wrote = _run_refused(argv, arg_files, tmp_path, capsys)
        assert code == 2
        name = "snr" if argv[0] == "curves" else "epsilon"
        assert len(err) == 1 and err[0].startswith(f"error: {name} must be"), err
        assert not wrote


# Requests for more than the 128 TiB of a 64-bit address space, so the
# allocator refuses them before any memory is touched: 10**15 float64 values
# are 7.1 PiB.  "{big}" is a T=10**15 config.
OVERSIZED = {
    "curves-snr": ["curves", "--kind", "snr", "--config", "{big}", "--out", "{out}"],
    "verify": ["verify", "--theorem", "1", "--config", "{big}"],
    "gen-data-gaussian": ["gen-data", "--task", "gaussian", "--n", str(10**15), "--d", "8",
                          "--out", "{out}"],
    "gen-data-striped": ["gen-data", "--task", "striped", "--n", str(10**15), "--out", "{out}",
                         "--labels-out", "{out}.labels"],
}


class TestOversizedRequest:
    @pytest.mark.parametrize("case", OVERSIZED)
    def test_out_of_memory_is_usage_error(self, case, tmp_path, capsys):
        """An array larger than memory can hold exits 2 with one stderr line,
        not a traceback and exit 1, and writes nothing."""
        big = tmp_path / "big.cfg"
        big.write_text(format_config(default_config(T=120, t=20, L=2)).replace(
            "T=120", f"T={10**15}"))
        code, err, wrote = _run_refused(OVERSIZED[case], {"big": big}, tmp_path, capsys)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: out of memory: "), err
        assert not wrote


# Every subcommand, with the other arguments it needs; "{out}" is a path that
# must not be written.
SEED_COMMANDS = {
    "gen-data": ["gen-data", "--task", "gaussian", "--n", "3", "--d", "2", "--out", "{out}"],
    "train-denoiser": ["train-denoiser", "--data", "{data}", "--config", "{cfg}",
                       "--out", "{out}", "--epochs", "1"],
    "train-classifier": ["train-classifier", "--data", "{data}", "--labels", "{labels}",
                         "--out", "{out}", "--epochs", "1"],
    "purify": ["purify", "--input", "{input}", "--denoiser", "{denoiser}", "--config", "{cfg}",
               "--out", "{out}"],
    "curves": ["curves", "--kind", "snr", "--config", "{cfg}", "--out", "{out}"],
    "verify": ["verify", "--theorem", "1", "--pairs", "1", "--config", "{cfg}"],
    "attack-eval": ["attack-eval", "--config", "{cfg}", "--trials", "1", "--out", "{out}"],
    "calibrate": ["calibrate", "--config", "{cfg}", "--t-grid", "10", "--L-grid", "2",
                  "--trials", "1", "--out", "{out}"],
}
# The subcommands that read a run config.
SEED_CONFIG_COMMANDS = [c for c, argv in SEED_COMMANDS.items() if "--config" in argv]


class TestNegativeSeed:
    @pytest.mark.parametrize("value", ["-1", "-5", "1.5", "abc"])
    @pytest.mark.parametrize("command", SEED_COMMANDS)
    def test_flag_refused(self, command, value, arg_files, purify_files, tmp_path, capsys,
                          monkeypatch):
        """A ``--seed`` that is negative or not an integer is a usage error
        naming the flag: exit 2, one stderr line, no output, no file."""
        monkeypatch.setattr(experiment, "toy_task_artifacts", _never_trained)
        argv = SEED_COMMANDS[command] + ["--seed", value]
        code, err, wrote = _run_refused(argv, {**arg_files, **purify_files}, tmp_path, capsys)
        assert code == 2
        assert err == [f"lorid {command}: error: argument --seed: "
                       f"expected an integer >= 0, got {value!r}"]
        assert not wrote

    @pytest.mark.parametrize("command", SEED_CONFIG_COMMANDS)
    def test_config_key_refused(self, command, arg_files, purify_files, tmp_path, capsys,
                                monkeypatch):
        """A config file with ``seed=-1`` is refused naming the key, also
        where ``--seed`` would override it."""
        monkeypatch.setattr(experiment, "toy_task_artifacts", _never_trained)
        cfg = tmp_path / "neg.cfg"
        text = format_config(default_config(T=120, t=20, L=2, use_tucker=False))
        cfg.write_text(text.replace("seed=0", "seed=-1"))
        for extra in ([], ["--seed", "3"]):
            argv = SEED_COMMANDS[command] + extra
            code, err, wrote = _run_refused(argv, {**arg_files, **purify_files, "cfg": str(cfg)},
                                            tmp_path, capsys)
            assert code == 2
            assert err == ["error: seed must be >= 0, got -1"]
            assert not wrote

    @pytest.mark.parametrize("command", ["gen-data", "curves"])
    def test_zero_accepted(self, command, arg_files, tmp_path):
        argv = [a.format(out=tmp_path / "out.file", **arg_files)
                for a in SEED_COMMANDS[command] + ["--seed", "0"]]
        assert main(argv) == 0


def _never_trained(cfg):
    raise AssertionError("a refused command reached training")


# Configs that each break one rule of the schedule or the purifier, as key=value
# overrides of a valid T=120 config, with what the one stderr line must say.
BAD_CONFIGS = {
    "t-past-T": ({"t": 200}, "t=200 exceeds schedule length 120"),
    "beta-decreasing": ({"beta_start": 0.02, "beta_end": 0.001}, "beta_start <= beta_end"),
    "sampler-euler": ({"sampler": "euler"}, "sampler must be one of"),
    "t-below-L": ({"t": 2, "L": 4}, "per-loop depth would be < 1"),
    "skip_k-0": ({"skip_k": 0}, "skip stride 0 must be >= 1"),
    "beta_start-1e-20": ({"beta_start": 1e-20}, "strictly decreasing from alpha_bar_0 = 1"),
}

# Every command that reads a purifier config; "{out}" is a path that must not be written.
CONFIG_COMMANDS = {
    "attack-eval": ["attack-eval", "--config", "{cfg}", "--trials", "1", "--out", "{out}"],
    "calibrate": ["calibrate", "--config", "{cfg}", "--t-grid", "10", "--L-grid", "2",
                  "--trials", "1", "--out", "{out}"],
    "purify": ["purify", "--input", "{input}", "--denoiser", "{denoiser}", "--config", "{cfg}",
               "--out", "{out}"],
    "verify": ["verify", "--theorem", "1", "--pairs", "1", "--config", "{cfg}"],
}

CONFIG_CASES = [(cmd, bad) for cmd in CONFIG_COMMANDS for bad in BAD_CONFIGS]


@pytest.fixture(scope="module")
def purify_files(tmp_path_factory):
    """A valid input and a T=120 denoiser for it, so purify can fail only on its config."""
    tmp = tmp_path_factory.mktemp("purify")
    files = {"input": str(tmp / "x.lten"), "denoiser": str(tmp / "denoiser.lten")}
    write_tensor(files["input"], np.zeros((4, 8)))
    write_mlp(files["denoiser"], MlpDenoiser.initialize(8, (4,), 120, np.random.default_rng(0)))
    return files


class TestBadConfig:
    @pytest.mark.parametrize("command, bad", CONFIG_CASES + [("calibrate", "grid-past-T")],
                             ids=[f"{c}-{b}" for c, b in CONFIG_CASES] + ["calibrate-grid"])
    def test_refused_before_any_training(self, command, bad, purify_files, tmp_path, capsys,
                                         monkeypatch):
        """Exit 2 with one stderr line and no output, before any model is trained."""

        def trained(cfg):
            raise AssertionError("a refused config reached training")

        monkeypatch.setattr(experiment, "toy_task_artifacts", trained)
        argv = list(CONFIG_COMMANDS[command])
        if bad == "grid-past-T":
            overrides, message = {}, "t=200 exceeds schedule length 120"
            argv[argv.index("--t-grid") + 1] = "10,200"
        else:
            overrides, message = BAD_CONFIGS[bad]
        keyed = dict(line.split("=", 1) for line in format_config(
            default_config(T=120, t=20, L=2, use_tucker=False)).splitlines())
        keyed.update({key: str(value) for key, value in overrides.items()})
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in keyed.items()))
        code, err, wrote = _run_refused(argv, {"cfg": str(cfg), **purify_files}, tmp_path,
                                        capsys)
        assert code == 2
        assert len(err) == 1 and message in err[0], err
        assert not wrote


# Path arguments that name a directory ("{dir}"), or a path under a plain file
# ("{file}/x"); "{out}" is a path that must not be written.
PATH_CASES = {
    "verify-config-dir": ["verify", "--theorem", "1", "--config", "{dir}"],
    "gen-data-out-dir": ["gen-data", "--task", "gaussian", "--n", "4", "--out", "{dir}"],
    "curves-out-dir": ["curves", "--kind", "snr", "--config", "{cfg}", "--out", "{dir}"],
    "train-classifier-data-dir": ["train-classifier", "--data", "{dir}", "--labels", "{labels}",
                                  "--out", "{out}"],
    "purify-input-dir": ["purify", "--input", "{dir}", "--denoiser", "{denoiser}",
                         "--config", "{cfg}", "--out", "{out}", "--fit-basis-from", "{data}"],
    "gen-data-out-under-file": ["gen-data", "--task", "gaussian", "--n", "4",
                                "--out", "{file}/x"],
    "curves-out-under-file": ["curves", "--kind", "snr", "--config", "{cfg}",
                              "--out", "{file}/x"],
    "gen-data-labels-out-under-file": ["gen-data", "--task", "striped", "--n", "4",
                                       "--out", "{out}", "--labels-out", "{file}/x.lten"],
}


# Commands given one file for both of their outputs, by the same path or through
# a directory's "..": (argv, first flag, second flag).  Every input is a
# directory ("{dir}"), which a command that read it first would fail on instead.
_PURIFY_INPUTS = ["--input", "{dir}", "--denoiser", "{dir}", "--config", "{dir}",
                  "--fit-basis-from", "{dir}"]
SAME_OUTPUT_CASES = {
    "gen-data": (["gen-data", "--task", "striped", "--n", "4", "--out", "{out}",
                  "--labels-out", "{out}"], "--out", "--labels-out"),
    "gen-data-dotdot": (["gen-data", "--task", "two-gaussians", "--n", "4", "--out", "{out}",
                         "--labels-out", "{dir}/../out.file"], "--out", "--labels-out"),
    "purify": (["purify", *_PURIFY_INPUTS, "--out", "{out}", "--save-basis", "{out}"],
               "--out", "--save-basis"),
    "purify-dotdot": (["purify", *_PURIFY_INPUTS, "--out", "{dir}/../out.file",
                       "--save-basis", "{out}"], "--out", "--save-basis"),
}


class TestPathArguments:
    @pytest.mark.parametrize("case", PATH_CASES)
    def test_unusable_path_is_usage_error(self, case, arg_files, purify_files, tmp_path, capsys):
        """An ``OSError`` from opening a path is a usage error: exit 2, one
        stderr line, nothing on stdout, no traceback."""
        (tmp_path / "a_dir").mkdir()
        (tmp_path / "a_file").write_text("")
        paths = {"dir": str(tmp_path / "a_dir"), "file": str(tmp_path / "a_file")}
        code, err, wrote = _run_refused(PATH_CASES[case], {**arg_files, **purify_files, **paths},
                                        tmp_path, capsys)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: [Errno "), err
        assert not wrote

    @pytest.mark.parametrize("case", SAME_OUTPUT_CASES)
    def test_two_outputs_to_one_file_refused(self, case, tmp_path, capsys):
        """Exit 2 with one stderr line naming both flags, before any input is
        read or any file written; the second write would replace the first."""
        (tmp_path / "a_dir").mkdir()
        argv, first, second = SAME_OUTPUT_CASES[case]
        code, err, wrote = _run_refused(argv, {"dir": str(tmp_path / "a_dir")}, tmp_path, capsys)
        assert code == 2
        assert len(err) == 1, err
        assert err[0].startswith(f"error: {first} and {second} name the same file "), err
        assert not wrote


# Quick runs of each theorem on a T=1000 schedule: the trials or pairs that keep
# them short, and theorem 4 at a depth where its curve check passes.
VERIFY_QUICK = [
    ("1", ["--pairs", "2"]),
    ("2", ["--trials", "20000"]),
    ("3", ["--trials", "2000"]),
    ("4", ["--effective-t", "400", "--trials", "2000"]),
    ("5", ["--trials", "200"]),
    ("cor1", ["--trials", "20000"]),
]


class _Stop(Exception):
    """Raised by a spy to end a run once it has seen what it records."""


class TestVerify:
    def test_theorem_4_honest_at_low_depth(self, tmp_path):
        cfg = write_config(tmp_path, T=1000, t=400, L=4)
        rc = main(["verify", "--theorem", "4", "--config", cfg,
                   "--effective-t", "200", "--trials", "4000"])
        assert rc == 0

    def test_theorem_4_default_depth_fails_monotonicity(self, tmp_path, capsys):
        """At the default effective depth of 600 the curve rises L=1 -> 2."""
        cfg = write_config(tmp_path, T=1000, t=400, L=4)
        rc = main(["verify", "--theorem", "4", "--config", cfg])
        assert rc == 1
        assert "not strictly decreasing" in capsys.readouterr().err

    def test_theorem_2_small_trials(self, tmp_path, capsys, source_builds):
        """Theorem 2 passes, and its oracle's source is the only Gaussian source
        it builds: the bound check draws from that one."""
        cfg = write_config(tmp_path, T=1000)
        rc = main(["verify", "--theorem", "2", "--config", cfg, "--trials", "20000"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
        assert len(source_builds) == 1

    def test_missing_config_is_usage_error(self, tmp_path):
        rc = main(["verify", "--theorem", "2", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 2

    @pytest.mark.parametrize("theorem, extra, depths", [
        ("2", [], "50, 200, 500, 800"),
        ("3", [], "50, 200, 500, 800"),
        ("4", ["--effective-t", "100"], "400"),
        ("5", [], "50, 200, 500, 800"),
        ("cor1", [], "50, 200, 500, 800"),
    ], ids=["2", "3", "4", "5", "cor1"])
    def test_depth_past_schedule_refused_before_output(self, theorem, extra, depths, tmp_path,
                                                       capsys):
        """On a T=120 schedule each theorem's fixed depths are refused up front:
        exit 2, one stderr line, nothing printed."""
        argv = ["verify", "--theorem", theorem, "--config", write_config(tmp_path, T=120),
                "--trials", "100", *extra]
        code, err, _ = _run_refused(argv, {}, tmp_path, capsys)
        assert code == 2
        assert err == [f"error: theorem {theorem} checks depths {depths}, "
                       "but the schedule has T=120"]

    @pytest.mark.parametrize("theorem, extra", VERIFY_QUICK, ids=[t for t, _ in VERIFY_QUICK])
    def test_builds_one_schedule(self, theorem, extra, tmp_path, schedule_builds):
        """The config's own schedule is the only one a verify command builds."""
        cfg = write_config(tmp_path, T=1000)
        schedule_builds.clear()
        assert main(["verify", "--theorem", theorem, "--config", cfg, *extra]) == 0
        assert len(schedule_builds) == 1

    @pytest.mark.parametrize("theorem, extra", VERIFY_QUICK, ids=[t for t, _ in VERIFY_QUICK])
    def test_checks_call_through_cli_names(self, theorem, extra, tmp_path, monkeypatch):
        """The checks call ``verify_bounds`` and ``kl_quadrature_forward`` by
        their ``lorid.cli`` names, which the bench's tracer wraps: one round
        of the six counts 5 and 11 calls, as a Monte Carlo check makes one
        ``verify_bounds`` call for all its depths (theorem 3 one per rms)."""
        bounds, quadratures = {"1": (0, 11), "2": (1, 0), "3": (2, 0), "4": (0, 0),
                               "5": (1, 0), "cor1": (1, 0)}[theorem]
        calls = {"verify_bounds": bounds, "kl_quadrature_forward": quadratures}
        counts = dict.fromkeys(calls, 0)
        for name in counts:
            def counted(*args, _name=name, _real=getattr(cli, name), **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        cfg = write_config(tmp_path, T=1000)
        assert main(["verify", "--theorem", theorem, "--config", cfg, *extra]) == 0
        assert counts == calls

    @pytest.mark.parametrize("theorem, trials", [
        ("2", 100_000), ("3", 10_000), ("4", 10_000), ("5", 1_000), ("cor1", 100_000),
    ])
    def test_default_trials(self, theorem, trials, tmp_path, monkeypatch):
        """Without --trials each theorem draws its own default number of
        Monte Carlo trials: the first ``verify_bounds`` call (theorem 4's
        ``purify_in_lockstep`` call, in the rows of its first input) shows it."""
        seen = []

        def first_bound(setup, ts, n, rng):
            seen.append(n)
            raise _Stop

        def first_purify(inputs, *args):
            seen.append(inputs[0].shape[0])
            raise _Stop

        monkeypatch.setattr(cli, "verify_bounds", first_bound)
        monkeypatch.setattr(cli, "purify_in_lockstep", first_purify)
        cfg = write_config(tmp_path, T=1000)
        extra = ["--effective-t", "400"] if theorem == "4" else []
        with pytest.raises(_Stop):
            main(["verify", "--theorem", theorem, "--config", cfg, *extra])
        assert seen == [trials]

    @pytest.mark.parametrize("theorem, flag, value, reads", [
        ("1", "--trials", "5", "--pairs"),
        ("5", "--pairs", "3", "--trials"),
        ("2", "--effective-t", "7", "--trials"),
    ])
    def test_unread_flag_refused(self, theorem, flag, value, reads, tmp_path, capsys):
        """A flag the theorem does not read is refused: exit 2, one stderr
        line, nothing printed."""
        argv = ["verify", "--theorem", theorem, "--config", write_config(tmp_path, T=1000),
                flag, value]
        code, err, _ = _run_refused(argv, {}, tmp_path, capsys)
        assert code == 2
        assert err == [f"error: theorem {theorem} does not read {flag} (it reads {reads})"]

    def test_theorem_1_prints_its_largest_closed_form_step(self, tmp_path, monkeypatch,
                                                            capsys):
        """The printed worst step is the largest step of the closed-form curves
        checked, below 0 where every curve falls."""
        curves = []

        def recorded(*args):
            curves.append(kl_gaussian_curve(*args))
            return curves[-1]

        monkeypatch.setattr(cli, "kl_gaussian_curve", recorded)
        cfg = write_config(tmp_path, T=1000)
        assert main(["verify", "--theorem", "1", "--config", cfg, "--pairs", "3"]) == 0
        assert len(curves) == 3
        worst = max(float(np.max(np.diff(kls))) for kls in curves)
        assert worst < 0
        assert capsys.readouterr().out.splitlines()[0].endswith(
            f"(worst closed-form step {worst:.2e})")

    @pytest.mark.parametrize("theorem", ["2", "3", "4", "5", "cor1"])
    def test_one_trial_refused(self, theorem, tmp_path, capsys):
        """Every Monte Carlo theorem refuses a single trial the same way: exit
        2, one stderr line, nothing printed (theorem 4 not even its curve line)."""
        cfg = write_config(tmp_path, T=1000)
        extra = ["--effective-t", "400"] if theorem == "4" else []
        code, err, _ = _run_refused(["verify", "--theorem", theorem, "--config", cfg,
                                     "--trials", "1", *extra], {}, tmp_path, capsys)
        assert code == 2
        assert err == ["error: need at least 2 trials"]

    def test_theorem_4_purifies_one_x0_in_lockstep(self, tmp_path, monkeypatch):
        """Theorem 4 purifies one x0 under L=1 and L=8 in one lockstep call.
        Each error is bit-equal to a ``lorid_purify`` of that x0 from a copy of
        the generator in its state after the x0 draw, and the L=1 error keeps
        the seed-0 bits it had when each loop count drew its own x0 and draws."""
        calls = []

        def recorded(inputs, denoiser, schedule, configs, rng, score):
            start = copy.deepcopy(rng)
            scores = purify_in_lockstep(inputs, denoiser, schedule, configs, rng, score)
            calls.append((inputs, denoiser, schedule, configs, start, scores))
            return scores

        monkeypatch.setattr(cli, "purify_in_lockstep", recorded)
        cfg = write_config(tmp_path, T=1000)
        assert main(["verify", "--theorem", "4", "--config", cfg, "--effective-t", "400"]) == 0
        [(inputs, oracle, schedule, configs, start, scores)] = calls
        [x0] = inputs
        assert x0.shape == (10_000, 1)
        assert [(c.t, c.L) for c in configs] == [(400, 1), (400, 8)]
        for config, [err] in zip(configs, scores):
            out, _ = lorid_purify(x0, oracle, schedule, config, copy.deepcopy(start))
            assert err == float(np.mean((out - x0) ** 2))
        assert scores[0] == [1.610239540961904]

    def test_theorem_4_reads_effective_t(self, tmp_path, capsys):
        cfg = write_config(tmp_path, T=1000)
        assert main(["verify", "--theorem", "4", "--config", cfg, "--effective-t", "400"]) == 0
        assert "effective_t=400" in capsys.readouterr().out

    def test_monte_carlo_theorems_pass_on_bench_seeds(self, tmp_path, capsys):
        """Theorems 2, 3, 5 and cor1, and theorem 4 at --effective-t 400, exit 0
        at their default trials on seeds 0-11, which cover the benchmark's: a
        change to their random stream that makes one fail shows here, not as a
        failed benchmark operation."""
        cfg = write_config(tmp_path, T=1000)
        failed = []
        for seed in range(12):
            for theorem, extra in (("2", []), ("3", []), ("4", ["--effective-t", "400"]),
                                   ("5", []), ("cor1", [])):
                code = main(["verify", "--theorem", theorem, "--config", cfg,
                             "--seed", str(seed), *extra])
                err = capsys.readouterr().err
                if code != 0:
                    failed.append(f"seed {seed} theorem {theorem}: exit {code} {err.strip()}")
        assert not failed, failed

    @pytest.mark.parametrize("theorem", ["2", "cor1"])
    def test_tolerance_printed(self, theorem, tmp_path, monkeypatch, capsys):
        """Each theorem 2 and corollary 1 line ends with the four-standard-error
        tolerance ``verify_bounds`` allowed, and the printed corollary 1 error
        lies within the printed interval widened by it.  One call returns the
        list of the four depths' reports."""
        calls = []

        def recorded(*args):
            calls.append(verify_bounds(*args))
            return calls[-1]

        monkeypatch.setattr(cli, "verify_bounds", recorded)
        cfg = write_config(tmp_path, T=1000)
        assert main(["verify", "--theorem", theorem, "--config", cfg, "--trials", "20000"]) == 0
        lines = capsys.readouterr().out.splitlines()[:-1]
        [reports] = calls
        assert len(lines) == len(reports) == 4
        for line, report in zip(lines, reports):
            tol = re.fullmatch(r".*, slack \S+, tolerance (\S+) \(4 s\.e\.\)", line).group(1)
            assert tol == f"{report.tolerance:.6f}"
            if theorem == "cor1":
                err, lo, hi = map(float, re.search(r"error (\S+) in \[(\S+), (\S+)\]",
                                                   line).groups())
                assert lo - float(tol) - 2e-6 <= err <= hi + float(tol) + 2e-6, line


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("wf")
    cfg = write_config(tmp, T=120, t=20, L=2)
    data = str(tmp / "train.lten")
    labels = str(tmp / "labels.lten")
    assert main(["gen-data", "--task", "striped", "--n", "32", "--out", data,
                 "--labels-out", labels]) == 0
    deno = str(tmp / "denoiser.lten")
    assert main(["train-denoiser", "--data", data, "--config", cfg, "--out", deno,
                 "--hidden", "16", "--epochs", "2"]) == 0
    return tmp, cfg, data, labels, deno


class TestWorkflow:
    """gen-data -> train-denoiser -> purify, exercising basis fit/save/load."""

    def test_purify_fit_save_load_basis(self, workdir):
        tmp, cfg, data, labels, deno = workdir
        basis_path = str(tmp / "basis.lten")
        out1 = str(tmp / "out1.lten")
        rc = main(["purify", "--input", data, "--denoiser", deno, "--config", cfg,
                   "--out", out1, "--fit-basis-from", data, "--save-basis", basis_path])
        assert rc == 0
        out2 = str(tmp / "out2.lten")
        rc = main(["purify", "--input", data, "--denoiser", deno, "--config", cfg,
                   "--out", out2, "--basis", basis_path])
        assert rc == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()
        assert read_tensor(out1).shape == (32, 16, 16, 1)

    def test_purify_without_basis_is_usage_error(self, workdir):
        tmp, cfg, data, labels, deno = workdir
        rc = main(["purify", "--input", data, "--denoiser", deno, "--config", cfg,
                   "--out", str(tmp / "x.lten")])
        assert rc == 2

    def test_fit_basis_from_non_image_tensor_is_usage_error(self, workdir, tmp_path, capsys):
        tmp, cfg, data, labels, deno = workdir
        flat = str(tmp_path / "flat.lten")
        write_tensor(flat, np.zeros((4, 256)))
        rc = main(["purify", "--input", data, "--denoiser", deno, "--config", cfg,
                   "--out", str(tmp_path / "x.lten"), "--fit-basis-from", flat])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "(N, H, W, C)" in err

    def test_oversized_tensor_header_is_usage_error(self, workdir, tmp_path, capsys):
        """A header claiming 2^37 elements in a 40-byte file exits 2, not MemoryError."""
        tmp, cfg, data, labels, deno = workdir
        bogus = tmp_path / "claims.lten"
        bogus.write_bytes(b"LTEN" + struct.pack("<HH", 1, 4)
                          + struct.pack("<4Q", 1 << 29, 16, 16, 1))
        rc = main(["purify", "--input", str(bogus), "--denoiser", deno, "--config", cfg,
                   "--out", str(tmp_path / "x.lten"), "--fit-basis-from", data])
        assert rc == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_zero_size_header_with_huge_dims_is_usage_error(self, workdir, tmp_path, capsys):
        """A (0, 2^62) header exits 2 with the reader's one line and writes nothing."""
        tmp, cfg, data, labels, deno = workdir
        bogus = tmp_path / "zero.lten"
        bogus.write_bytes(b"LTEN" + struct.pack("<HH", 1, 2) + struct.pack("<2Q", 0, 1 << 62))
        out = tmp_path / "x.lten"
        rc = main(["purify", "--input", str(bogus), "--denoiser", deno, "--config", cfg,
                   "--out", str(out), "--fit-basis-from", data])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: dimension overflow") and err.count("\n") == 1
        assert not out.exists()

    def test_non_finite_input_is_usage_error(self, workdir, tmp_path, capsys):
        """One NaN pixel exits 2 with one line and writes nothing: neither --out
        nor the --save-basis file."""
        tmp, cfg, data, labels, deno = workdir
        images = read_tensor(data)[:2].copy()
        images[0, 3, 5, 0] = np.nan
        bad = str(tmp_path / "nan.lten")
        write_tensor(bad, images)
        out, save = tmp_path / "x.lten", tmp_path / "b.lten"
        rc = main(["purify", "--input", bad, "--denoiser", deno, "--config", cfg,
                   "--out", str(out), "--fit-basis-from", data, "--save-basis", str(save)])
        assert rc == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists() and not save.exists()

    def test_malformed_denoiser_is_usage_error(self, workdir, tmp_path, capsys):
        """A 2-D hidden-sizes block exits 2 with one line, not a TypeError."""
        tmp, cfg, data, labels, deno = workdir
        with open(deno, "rb") as fh:
            blocks = []
            while fh.peek(1):
                blocks.append(read_tensor(fh))
        bad = str(tmp_path / "denoiser.lten")
        with open(bad, "wb") as fh:
            for i, block in enumerate(blocks):
                write_tensor(fh, block[None, :] if i == 1 else block)
        rc = main(["purify", "--input", data, "--denoiser", bad, "--config", cfg,
                   "--out", str(tmp_path / "x.lten"), "--fit-basis-from", data])
        assert rc == 2
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("block, change", [
        (1, lambda u: u.ravel()),
        (5, lambda e: e[None, :]),
        (5, lambda e: np.where(np.arange(4) == 1, np.nan, e)),
        (3, lambda u: np.where(u == u.flat[0], 1e308, u)),
    ], ids=["1-d-factor", "2-d-energy", "nan-energy", "huge-factor"])
    def test_malformed_basis_is_usage_error(self, block, change, workdir, tmp_path, capsys):
        """A basis block of the wrong shape or with a value no fit gives exits 2
        with one line, writes nothing and warns of nothing."""
        tmp, cfg, data, labels, deno = workdir
        good = str(tmp_path / "basis.lten")
        assert main(["purify", "--input", data, "--denoiser", deno, "--config", cfg,
                     "--out", str(tmp_path / "first.lten"), "--fit-basis-from", data,
                     "--save-basis", good]) == 0
        with open(good, "rb") as fh:
            blocks = []
            while fh.peek(1):
                blocks.append(read_tensor(fh))
        bad = str(tmp_path / "bad.lten")
        with open(bad, "wb") as fh:
            for i, b in enumerate(blocks):
                write_tensor(fh, change(b) if i == block else b)
        capsys.readouterr()
        out = tmp_path / "x.lten"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["purify", "--input", data, "--denoiser", deno, "--config", cfg,
                       "--out", str(out), "--basis", bad])
        assert rc == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()
        assert not caught, [str(w.message) for w in caught]

    @pytest.mark.parametrize("make_ref, message", [
        (lambda x: np.where(np.arange(x.size).reshape(x.shape) == 37, np.nan, x),
         "clean reference holds non-finite values"),
        (lambda x: np.full(x.shape, 1e308), "distance to the clean reference overflows"),
        (lambda x: np.zeros((3, 256)), "clean reference shape (3, 256) differs"),
    ], ids=["nan", "1e308", "shape-3x256"])
    def test_bad_clean_reference_is_usage_error(self, make_ref, message, workdir, tmp_path,
                                                capsys):
        """A clean reference that is not finite, whose distance overflows or whose
        shape is not the input's exits 2 with one line naming it, writes nothing
        and warns of nothing."""
        tmp, cfg, data, labels, deno = workdir
        images = str(tmp_path / "x.lten")
        write_tensor(images, read_tensor(data)[:8])
        ref = str(tmp_path / "ref.lten")
        write_tensor(ref, make_ref(read_tensor(images)))
        out = tmp_path / "out.lten"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["purify", "--input", images, "--denoiser", deno, "--config", cfg,
                       "--out", str(out), "--fit-basis-from", data, "--clean-ref", ref])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err, err
        assert not out.exists()
        assert not caught, [str(w.message) for w in caught]

    def test_denoiser_trained_for_another_T_is_usage_error(self, workdir, tmp_path, capsys):
        """A T=120 denoiser under a T=1000 config exits 2 with one line and writes
        nothing, although every step of its 100-step loops is on the denoiser's table."""
        tmp, cfg, data, labels, deno = workdir
        other = write_config(tmp_path, T=1000, t=400, L=4)
        out = tmp_path / "x.lten"
        rc = main(["purify", "--input", data, "--denoiser", deno, "--config", other,
                   "--out", str(out), "--fit-basis-from", data])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "T=120" in err and "T=1000" in err, err
        assert not out.exists()

    def test_seed_override_changes_output(self, workdir):
        tmp, cfg, data, labels, deno = workdir
        basis_path = str(tmp / "basis.lten")
        a = str(tmp / "seed_a.lten")
        b = str(tmp / "seed_b.lten")
        assert main(["purify", "--input", data, "--denoiser", deno, "--config", cfg,
                     "--out", a, "--basis", basis_path, "--seed", "1"]) == 0
        assert main(["purify", "--input", data, "--denoiser", deno, "--config", cfg,
                     "--out", b, "--basis", basis_path, "--seed", "2"]) == 0
        assert open(a, "rb").read() != open(b, "rb").read()

    def test_purify_without_tucker_keeps_input_shape(self, workdir, tmp_path, capsys):
        """Under use_tucker=false, purify reads the striped file the denoiser was
        trained on as a batch of images and writes the input's shape."""
        tmp, cfg, data, labels, deno = workdir
        out = str(tmp_path / "x.lten")
        rc = main(["purify", "--input", data, "--denoiser", deno, "--out", out,
                   "--config", write_config(tmp_path, use_tucker=False)])
        assert rc == 0, capsys.readouterr().err
        assert read_tensor(out).shape == read_tensor(data).shape == (32, 16, 16, 1)

    def test_unwritable_save_basis_leaves_no_output(self, workdir, tmp_path, capsys):
        """--save-basis is written beside --out once the purify has run; where it
        cannot be written, exit 2 with one line leaves neither file."""
        tmp, cfg, data, labels, deno = workdir
        (tmp_path / "a_file").write_text("")
        out = tmp_path / "out.lten"
        capsys.readouterr()
        rc = main(["purify", "--input", data, "--denoiser", deno, "--config", cfg,
                   "--out", str(out), "--fit-basis-from", data,
                   "--save-basis", str(tmp_path / "a_file" / "b.lten")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: [Errno "), err
        assert not out.exists()

    def test_train_classifier(self, workdir, tmp_path):
        tmp, cfg, data, labels, deno = workdir
        out = str(tmp_path / "clf.lten")
        rc = main(["train-classifier", "--data", data, "--labels", labels,
                   "--out", out, "--hidden", "8", "--epochs", "5"])
        assert rc == 0


@pytest.fixture(scope="module")
def basis_file(workdir):
    """A basis fitted on the workflow's images under its use_tucker=true config."""
    tmp, cfg, data, labels, deno = workdir
    path = str(tmp / "fitted_basis.lten")
    assert main(["purify", "--input", data, "--denoiser", deno, "--config", cfg,
                 "--out", str(tmp / "fitted_out.lten"), "--fit-basis-from", data,
                 "--save-basis", path]) == 0
    return path


_BASIS_OFF = "purify with use_tucker=false does not read {} " \
             "(it reads none of --basis, --fit-basis-from, --save-basis)"

# A basis flag purify would ignore, or no basis flag where it needs one, with
# whether the config sets use_tucker and the one stderr line: "{missing}" names
# no file, "{save}" must not be written.
PURIFY_BASIS_CASES = {
    "off-basis": (False, ["--basis", "{basis}"], _BASIS_OFF.format("--basis")),
    "off-fit": (False, ["--fit-basis-from", "{missing}"], _BASIS_OFF.format("--fit-basis-from")),
    "off-save": (False, ["--save-basis", "{save}"], _BASIS_OFF.format("--save-basis")),
    "off-all-three": (False, ["--basis", "{missing}", "--fit-basis-from", "{missing}",
                              "--save-basis", "{save}"], _BASIS_OFF.format("--basis")),
    "basis-fit": (True, ["--basis", "{basis}", "--fit-basis-from", "{missing}"],
                  "purify with --basis does not read --fit-basis-from (it reads --basis)"),
    "basis-save": (True, ["--basis", "{basis}", "--save-basis", "{save}"],
                   "purify with --basis does not read --save-basis (it reads --basis)"),
    "save-without-fit": (True, ["--save-basis", "{save}"], "--save-basis needs --fit-basis-from"),
    "on-no-basis": (True, [], "use_tucker=true needs --basis or --fit-basis-from"),
}


class TestPurifyBasisFlags:
    @pytest.mark.parametrize("case", PURIFY_BASIS_CASES)
    def test_ignored_flag_refused(self, case, workdir, basis_file, tmp_path, capsys):
        """A basis flag purify would ignore, or a missing one, is refused before
        any input is read: exit 2, one stderr line, no output and no basis
        written, also where the input and the denoiser are missing."""
        tmp, cfg, data, labels, deno = workdir
        use_tucker, flags, message = PURIFY_BASIS_CASES[case]
        if not use_tucker:
            cfg = write_config(tmp_path, use_tucker=False)
        save = tmp_path / "saved_basis.lten"
        files = {"basis": basis_file, "missing": str(tmp_path / "missing.lten"), "save": save}
        for inputs in ((data, deno), (files["missing"], files["missing"])):
            argv = ["purify", "--input", inputs[0], "--denoiser", inputs[1], "--config", cfg,
                    "--out", "{out}", *flags]
            code, err, wrote = _run_refused(argv, files, tmp_path, capsys)
            assert code == 2
            assert err == [f"error: {message}"]
            assert not wrote and not save.exists()


@pytest.mark.parametrize("argv, stock", [
    (["train-denoiser", "--data", "d", "--config", "c", "--out", "o"], MlpTrainConfig()),
    (["train-classifier", "--data", "d", "--labels", "l", "--out", "o"],
     ClassifierTrainConfig()),
])
def test_training_flags_default_to_the_train_config(argv, stock):
    """Left out, --hidden, --epochs and --lr are the training config's defaults."""
    args = cli._build_parser().parse_args(argv)
    assert (tuple(args.hidden), args.epochs, args.lr) == (stock.hidden, stock.epochs, stock.lr)


def test_attack_commands_share_their_flags(capsys):
    """attack-eval and calibrate document --config, --seed, --eps, --steps and
    --trials alike, and the budget defaults are toy_budget's."""
    shared = {}
    grids = {"attack-eval": [], "calibrate": ["--t-grid", "1", "--L-grid", "1"]}
    for command, grid in grids.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        shared[command] = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()
                           if re.match(r"\s+--(config|seed|eps|steps|trials)\b", line)]
        args = cli._build_parser().parse_args([command, "--config", "c", *grid])
        assert (args.eps, args.steps) == (cli.toy_budget().epsilon, cli.toy_budget().steps)
    assert len(shared["attack-eval"]) == 5
    assert shared["attack-eval"] == shared["calibrate"]


@pytest.mark.parametrize("command", ["train-denoiser", "purify", "curves", "verify",
                                     "attack-eval", "calibrate"])
def test_run_config_commands_list_config_first(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert "the following arguments are required: --config" in capsys.readouterr().err


@pytest.mark.parametrize("use_tucker", [True, False], ids=["true", "false"])
class TestRobustnessCommands:
    def test_attack_eval_smoke(self, use_tucker, tmp_path, capsys):
        cfg = write_config(tmp_path, T=120, t=20, L=2, eta=None, ranks=(2, 2, 8, 1),
                           use_tucker=use_tucker)
        out = str(tmp_path / "table.csv")
        rc = main(["attack-eval", "--config", cfg, "--trials", "1", "--out", out])
        assert rc == 0
        stdout = capsys.readouterr().out
        for key in ("standard", "attacked", "tf_only", "lorid"):
            assert key in stdout
        lines = open(out).read().splitlines()
        assert len(lines) == 2

    def test_calibrate_smoke(self, use_tucker, tmp_path, capsys):
        cfg = write_config(tmp_path, T=120, t=20, L=2, eta=None, ranks=(2, 2, 8, 1),
                           use_tucker=use_tucker)
        out = str(tmp_path / "grid.csv")
        rc = main(["calibrate", "--config", cfg, "--t-grid", "10,20", "--L-grid", "2",
                   "--trials", "1", "--out", out])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "recommended:" in stdout
        lines = open(out).read().splitlines()
        assert lines[0] == "t,L,clean_acc,robust_acc"
        assert len(lines) == 3


# Run in a fresh interpreter: the BLAS thread count right after ``import numpy``,
# after ``import lorid``, and in a child forked by ``in_two_processes``.
BLAS_COUNTS = """
import ctypes, sys
from pathlib import Path
import numpy as np

libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
found = [ctypes.CDLL(str(path)) for path in sorted(libs.glob("*openblas*"))]
get = next(getattr(lib, sys.argv[1]) for lib in found if hasattr(lib, sys.argv[1]))
get.argtypes, get.restype = [], ctypes.c_int
counts = [get()]
import lorid
counts.append(get())
counts.append(lorid._nn.in_two_processes(lambda: None, get)[1])
print(*counts)
"""


@pytest.mark.skipif(_nn._openblas_threads() is None, reason="numpy bundles no OpenBLAS")
def test_import_holds_blas_to_one_thread():
    """``import lorid`` sets numpy's BLAS, found on more than one thread, to
    one, and a child forked afterwards runs on one too."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(lorid.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]))
    symbol = _nn._openblas_threads()[0].__name__
    run = subprocess.run([sys.executable, "-c", BLAS_COUNTS, symbol], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    default, imported, child = map(int, run.stdout.split())
    if default == 1:
        pytest.skip("numpy's BLAS runs on one thread here before lorid is imported")
    assert (imported, child) == (1, 1)
