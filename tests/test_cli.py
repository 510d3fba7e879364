"""End-to-end CLI behavior: exit codes, file outputs, reproducibility."""

import re
import struct

import numpy as np
import pytest

from lorid import cli
from lorid.analysis import loop_bound_curve
from lorid.cli import main
from lorid.diffusion import MlpDenoiser, make_linear_schedule
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
    bad = {"nan_data": images}
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
    return code, capsys.readouterr().err.splitlines(), out.exists()


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
        ("diverging-rate", ["--epochs", "3", "--lr", "1e150"],
         {"train-denoiser": LOSS_FACTOR, "train-classifier": LOSS_INF}),
        ("huge-finite-loss", ["--epochs", "2", "--lr", "1e150"],
         {"train-denoiser": LOSS_FACTOR, "train-classifier": LOSS_INF}),
        ("growing-loss", ["--epochs", "3", "--lr", "1e6"],
         {"train-denoiser": LOSS_FACTOR, "train-classifier": LOSS_INF}),
    ], ids=["nan-data", "diverging-rate", "huge-finite-loss", "growing-loss"])
    @pytest.mark.parametrize("argv", RATE_COMMANDS, ids=[a[0] for a in RATE_COMMANDS])
    def test_bad_data_or_diverging_rate(self, argv, case, extra, messages, arg_files, tmp_path,
                                        capsys):
        """A NaN in the data is refused before training, and a legal rate that
        diverges, to a non-finite loss or to an epoch loss a million times the
        first batch's, is a usage error: exit 2, one stderr line, no model, no
        warning."""
        message = messages[argv[0]]
        if case == "nan-data":
            argv = [a.replace("{data}", "{nan_data}") for a in argv]
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


# Configs that each break one rule of the schedule or the purifier, as key=value
# overrides of a valid T=120 config, with what the one stderr line must say.
BAD_CONFIGS = {
    "t-past-T": ({"t": 200}, "t=200 exceeds schedule length 120"),
    "beta-decreasing": ({"beta_start": 0.02, "beta_end": 0.001}, "beta_start <= beta_end"),
    "sampler-euler": ({"sampler": "euler"}, "sampler must be one of"),
    "t-below-L": ({"t": 2, "L": 4}, "per-loop depth would be < 1"),
    "skip_k-0": ({"skip_k": 0}, "skip stride 0 must be >= 1"),
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

        monkeypatch.setattr(cli, "toy_task_artifacts", trained)
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

    def test_theorem_2_small_trials(self, tmp_path, capsys):
        cfg = write_config(tmp_path, T=1000)
        rc = main(["verify", "--theorem", "2", "--config", cfg, "--trials", "20000"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_missing_config_is_usage_error(self, tmp_path):
        rc = main(["verify", "--theorem", "2", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 2


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

    def test_non_finite_input_is_usage_error(self, workdir, tmp_path, capsys):
        """One NaN pixel exits 2 with one line and writes nothing."""
        tmp, cfg, data, labels, deno = workdir
        images = read_tensor(data)[:2].copy()
        images[0, 3, 5, 0] = np.nan
        bad = str(tmp_path / "nan.lten")
        write_tensor(bad, images)
        out = tmp_path / "x.lten"
        rc = main(["purify", "--input", bad, "--denoiser", deno, "--config", cfg,
                   "--out", str(out), "--fit-basis-from", data])
        assert rc == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

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

    def test_train_classifier(self, workdir, tmp_path):
        tmp, cfg, data, labels, deno = workdir
        out = str(tmp_path / "clf.lten")
        rc = main(["train-classifier", "--data", data, "--labels", labels,
                   "--out", out, "--hidden", "8", "--epochs", "5"])
        assert rc == 0


class TestRobustnessCommands:
    def test_attack_eval_smoke(self, tmp_path, capsys):
        cfg = write_config(tmp_path, T=120, t=20, L=2, eta=None, ranks=(2, 2, 8, 1))
        out = str(tmp_path / "table.csv")
        rc = main(["attack-eval", "--config", cfg, "--trials", "1", "--out", out])
        assert rc == 0
        stdout = capsys.readouterr().out
        for key in ("standard", "attacked", "tf_only", "lorid"):
            assert key in stdout
        lines = open(out).read().splitlines()
        assert len(lines) == 2

    def test_calibrate_smoke(self, tmp_path, capsys):
        cfg = write_config(tmp_path, T=120, t=20, L=2, eta=None, ranks=(2, 2, 8, 1))
        out = str(tmp_path / "grid.csv")
        rc = main(["calibrate", "--config", cfg, "--t-grid", "10,20", "--L-grid", "2",
                   "--trials", "1", "--out", out])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "recommended:" in stdout
        lines = open(out).read().splitlines()
        assert lines[0] == "t,L,clean_acc,robust_acc"
        assert len(lines) == 3
