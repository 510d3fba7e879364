"""Binary tensor container, config round trips, model serialization, datasets."""

import io
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lorid
from lorid import _nn
from lorid.attacks import ClassifierTrainConfig, ToyClassifier, train_classifier
from lorid.cli import main
from lorid.diffusion import (N_TIME_FEATURES, MlpDenoiser, MlpTrainConfig, make_linear_schedule,
                             train_mlp_denoiser)
from lorid.purify import LoridConfig
from lorid.io_formats import (
    ConfigError,
    RunConfig,
    TENSOR_MAGIC,
    TENSOR_VERSION,
    TensorFormatError,
    default_config,
    format_config,
    gen_gaussian_dataset,
    gen_striped_images,
    gen_two_gaussian_classes,
    gen_two_point_dataset,
    parse_config,
    read_basis,
    read_classifier,
    read_mlp,
    read_tensor,
    write_basis,
    write_classifier,
    write_csv,
    write_mlp,
    write_tensor,
)
from lorid.tucker import TensorizationLayout, TuckerBasis, fit_basis, tf_apply

# What a run config builds once from its keys and keeps: each field, the same
# object built afresh from the config's keys, and what two builds share when equal.
BUILT = {
    "schedule": (lambda cfg: make_linear_schedule(cfg.T, cfg.beta_start, cfg.beta_end),
                 lambda schedule: schedule.beta.tobytes()),
    "purifier": (lambda cfg: LoridConfig(cfg.t, cfg.L, sampler=cfg.sampler, skip_k=cfg.skip_k),
                 lambda purifier: purifier),
}


class TestTensorFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(601)
        for shape in [(5,), (3, 4), (2, 3, 4, 2)]:
            x = rng.standard_normal(shape)
            path = str(tmp_path / "t.lten")
            write_tensor(path, x)
            back = read_tensor(path)
            np.testing.assert_array_equal(back, x)
            assert back.dtype == np.float64

    def test_scalar_zero_dim(self, tmp_path):
        path = str(tmp_path / "s.lten")
        write_tensor(path, np.array(3.5))
        back = read_tensor(path)
        assert back.shape == ()
        assert back == 3.5

    def test_header_layout(self, tmp_path):
        """Magic, version, ndim, dims — all little-endian, then raw f8 payload."""
        path = str(tmp_path / "h.lten")
        write_tensor(path, np.arange(6.0).reshape(2, 3))
        blob = open(path, "rb").read()
        assert blob[:4] == TENSOR_MAGIC
        version, ndim = struct.unpack("<HH", blob[4:8])
        assert version == TENSOR_VERSION
        assert ndim == 2
        assert struct.unpack("<2Q", blob[8:24]) == (2, 3)
        np.testing.assert_array_equal(
            np.frombuffer(blob[24:], dtype="<f8"), np.arange(6.0)
        )

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.lten")
        open(path, "wb").write(b"NOPE" + b"\x00" * 16)
        with pytest.raises(TensorFormatError):
            read_tensor(path)

    def test_newer_version_rejected(self, tmp_path):
        path = str(tmp_path / "future.lten")
        with open(path, "wb") as fh:
            fh.write(TENSOR_MAGIC)
            fh.write(struct.pack("<HH", TENSOR_VERSION + 1, 1))
            fh.write(struct.pack("<Q", 1))
            fh.write(struct.pack("<d", 1.0))
        with pytest.raises(TensorFormatError):
            read_tensor(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = str(tmp_path / "trunc.lten")
        write_tensor(path, np.zeros(8))
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-4])
        with pytest.raises(TensorFormatError):
            read_tensor(path)

    def test_read_array_is_writable_and_bit_equal(self, tmp_path):
        x = np.random.default_rng(602).standard_normal((3, 5))
        x[0, :4] = [-0.0, np.inf, 5e-324, np.nan]
        path = str(tmp_path / "t.lten")
        write_tensor(path, x)
        for back in (read_tensor(path), read_tensor(io.BytesIO(open(path, "rb").read()))):
            assert back.tobytes() == x.tobytes() and back.shape == x.shape
            assert back.flags.writeable
            back[...] = 1.0

    def test_short_payload_read_refused(self):
        """A handle that cannot seek skips the size check, so the payload read
        itself refuses a cut payload."""

        class Unseekable(io.BytesIO):
            def seekable(self):
                return False

        buf = io.BytesIO()
        write_tensor(buf, np.zeros(8))
        with pytest.raises(TensorFormatError,
                           match="^truncated file: expected 64 bytes of payload, got 60$"):
            read_tensor(Unseekable(buf.getvalue()[:-4]))

    def test_handle_with_only_read(self):
        """A handle without readinto or seekable still reads, and a cut payload
        is still refused."""

        class ReadOnly:
            def __init__(self, data):
                self.read = io.BytesIO(data).read

        x = np.random.default_rng(603).standard_normal((2, 3))
        buf = io.BytesIO()
        write_tensor(buf, x)
        back = read_tensor(ReadOnly(buf.getvalue()))
        assert back.tobytes() == x.tobytes() and back.shape == x.shape
        assert back.flags.writeable
        with pytest.raises(TensorFormatError,
                           match="^truncated file: expected 48 bytes of payload, got 44$"):
            read_tensor(ReadOnly(buf.getvalue()[:-4]))

    def test_trailing_bytes_rejected_on_path_read(self, tmp_path):
        path = str(tmp_path / "extra.lten")
        with open(path, "wb") as fh:
            write_tensor(fh, np.zeros(2))
            fh.write(b"junk")
        with pytest.raises(TensorFormatError):
            read_tensor(path)

    def test_handle_reads_sequential_blocks(self):
        buf = io.BytesIO()
        a = np.arange(3.0)
        b = np.arange(4.0).reshape(2, 2)
        write_tensor(buf, a)
        write_tensor(buf, b)
        buf.seek(0)
        np.testing.assert_array_equal(read_tensor(buf), a)
        np.testing.assert_array_equal(read_tensor(buf), b)

    def test_dimension_overflow_rejected(self, tmp_path):
        path = str(tmp_path / "huge.lten")
        with open(path, "wb") as fh:
            fh.write(TENSOR_MAGIC)
            fh.write(struct.pack("<HH", TENSOR_VERSION, 2))
            fh.write(struct.pack("<2Q", 1 << 32, 1 << 32))
        with pytest.raises(TensorFormatError):
            read_tensor(path)

    @pytest.mark.parametrize("dims", [(0, 1 << 62), (1 << 40, 0, 1 << 40)],
                             ids=["zero-first", "zero-between"])
    def test_zero_dim_does_not_hide_an_overflow(self, dims):
        """The element bound applies to the product of the nonzero dims, so a
        zero-size header with huge other dims is refused as an overflow."""
        blob = (TENSOR_MAGIC + struct.pack("<HH", TENSOR_VERSION, len(dims))
                + struct.pack(f"<{len(dims)}Q", *dims))
        with pytest.raises(TensorFormatError, match="^dimension overflow"):
            read_tensor(io.BytesIO(blob))

    @pytest.mark.parametrize("ndim", [33, 65, 100])
    def test_more_dims_than_numpy_1_allows_rejected(self, ndim):
        """A header with more than 32 dims is refused before its dims are
        read, whatever they hold, with sizes of 1 and of 0."""
        for size in (1, 0):
            blob = (TENSOR_MAGIC + struct.pack("<HH", TENSOR_VERSION, ndim)
                    + struct.pack(f"<{ndim}Q", *[size] * ndim) + struct.pack("<d", 1.0))
            with pytest.raises(TensorFormatError, match=f"header claims {ndim} dims"):
                read_tensor(io.BytesIO(blob))

    def test_32_dims_round_trip(self):
        buf = io.BytesIO()
        write_tensor(buf, np.full((1,) * 32, 2.5))
        buf.seek(0)
        assert read_tensor(buf).shape == (1,) * 32

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="numpy 1.x builds no 33-dim array")
    def test_writer_refuses_more_dims_than_a_reader_takes(self):
        buf = io.BytesIO()
        with pytest.raises(TensorFormatError, match="33 dims"):
            write_tensor(buf, np.zeros((1,) * 33))
        assert buf.getvalue() == b""

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="numpy 1.x builds no 33-dim array")
    def test_refused_write_to_a_path_leaves_no_file(self, tmp_path):
        path = tmp_path / "deep.lten"
        with pytest.raises(TensorFormatError, match="33 dims"):
            write_tensor(str(path), np.zeros((1,) * 33))
        assert not path.exists()

    def test_header_claiming_more_than_the_file_holds_rejected(self, tmp_path):
        """A 40-byte file claiming 2^37 elements is refused before any payload
        is read, from a path and from a seekable handle."""
        blob = (TENSOR_MAGIC + struct.pack("<HH", TENSOR_VERSION, 4)
                + struct.pack("<4Q", 1 << 29, 16, 16, 1))
        assert len(blob) == 40
        path = tmp_path / "claims.lten"
        path.write_bytes(blob)
        with pytest.raises(TensorFormatError, match="header claims"):
            read_tensor(str(path))
        with pytest.raises(TensorFormatError, match="header claims"):
            read_tensor(io.BytesIO(blob))


class TestCsv:
    def test_floats_at_full_precision(self, tmp_path):
        path = str(tmp_path / "out.csv")
        value = 0.1 + 0.2  # classically unrepresentable sum
        write_csv(path, ["a", "b"], [[value, 1], [True, "x"]])
        text = open(path).read()
        lines = text.splitlines()
        assert lines[0] == "a,b"
        assert float(lines[1].split(",")[0]) == value
        assert lines[2] == "true,x"

    def test_deterministic_bytes(self, tmp_path):
        rows = [[0.5, 2], [1.25, 3]]
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_csv(p1, ["x", "n"], rows)
        write_csv(p2, ["x", "n"], rows)
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestRunConfig:
    def test_round_trip(self):
        cfg = default_config(seed=9, t=80)
        back = parse_config(format_config(cfg))
        assert back == cfg

    def test_default_config_text_frozen(self):
        """The stock config, the default schedule's constants included, formats
        to these bytes; config files written from it stay the same."""
        assert format_config(default_config()) == (
            "T=1000\nbeta_start=0.0001\nbeta_end=0.02\nt=100\nL=4\nuse_tucker=true\n"
            "sampler=ancestral\nskip_k=1\npatch=4\nseed=0\neta=0.94999999999999996\n"
        )

    def test_round_trip_with_ranks(self):
        cfg = default_config(eta=None, ranks=(2, 2, 8, 1))
        back = parse_config(format_config(cfg))
        assert back == cfg
        assert back.ranks == (2, 2, 8, 1)

    def test_comments_and_blanks_ignored(self):
        text = format_config(default_config())
        noisy = "# leading comment\n\n" + text.replace("t=100", "t=100  # depth")
        assert parse_config(noisy) == default_config()

    def test_unknown_key_rejected(self):
        text = format_config(default_config()) + "extra=1\n"
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_duplicate_key_rejected(self):
        text = format_config(default_config()) + "seed=5\n"
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_missing_keys_listed(self):
        with pytest.raises(ConfigError, match="beta_start"):
            parse_config("T=100\n")

    def test_exactly_one_rank_policy(self):
        with pytest.raises(ConfigError):
            default_config(eta=None)  # neither
        with pytest.raises(ConfigError):
            default_config(ranks=(1, 1, 1, 1))  # both

    def test_value_validation(self):
        with pytest.raises(ConfigError):
            default_config(T=0)
        with pytest.raises(ConfigError):
            default_config(sampler="euler")
        with pytest.raises(ConfigError):
            default_config(eta=1.5)
        with pytest.raises(ConfigError):
            default_config(eta=None, ranks=(1, 2, 3))

    def test_negative_seed_refused(self):
        """numpy's seeding takes no negative seed; the config names the key."""
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            default_config(seed=-1)
        text = format_config(default_config()).replace("seed=0", "seed=-1")
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            parse_config(text)
        assert default_config(seed=0).seed == 0

    @pytest.mark.parametrize("name", BUILT)
    def test_carries_what_it_checked(self, name, schedule_builds):
        """Parsing builds one schedule; the config keeps it, the linear one of
        its keys, and the basis-free purifier config of its keys."""
        build, key = BUILT[name]
        text = format_config(default_config(T=300, beta_end=0.03, sampler="skip", skip_k=3))
        schedule_builds.clear()
        cfg = parse_config(text)
        assert len(schedule_builds) == 1
        assert key(getattr(cfg, name)) == key(build(cfg))

    @pytest.mark.parametrize("name", BUILT)
    def test_replace_rebuilds(self, name):
        """``dataclasses.replace`` builds the new config's own from its keys."""
        build, key = BUILT[name]
        cfg = default_config(T=300)
        changed = replace(cfg, T=200, t=80, L=2)
        assert key(getattr(changed, name)) == key(build(changed))
        assert key(getattr(changed, name)) != key(getattr(cfg, name))
        assert key(getattr(cfg, name)) == key(build(cfg))

    @pytest.mark.parametrize("name", BUILT)
    def test_left_out_of_equality_hash_and_repr(self, name):
        first, second = default_config(seed=4), default_config(seed=4)
        assert getattr(first, name) is not getattr(second, name)
        assert first == second and hash(first) == hash(second)
        assert name not in repr(first)

    def test_bad_syntax_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("just words\n")
        with pytest.raises(ConfigError):
            parse_config(format_config(default_config()).replace("T=1000", "T=ten"))


_REQUIRED = ("T", "beta_start", "beta_end", "t", "L", "use_tucker", "sampler", "skip_k",
             "patch", "seed")


def _stock_text_with(**lines: str | None) -> str:
    """The stock config's text with each named key's value replaced, or its
    line dropped where the value is None; a key not in the stock text is added."""
    keyed = dict(line.split("=", 1) for line in format_config(default_config()).splitlines())
    keyed.update(lines)
    return "".join(f"{k}={v}\n" for k, v in keyed.items() if v is not None)


class TestConfigKeyTable:
    """Every key of the run config through parse_config and format_config."""

    @pytest.mark.parametrize("key", _REQUIRED)
    def test_dropping_a_required_key_names_it(self, key):
        with pytest.raises(ConfigError, match=rf"^missing required keys: {key}$"):
            parse_config(_stock_text_with(**{key: None}))

    @pytest.mark.parametrize("key, raw", [
        *((k, "1.5") for k in ("T", "t", "L", "skip_k", "patch", "seed")),
        *((k, "0.1x") for k in ("beta_start", "beta_end", "eta")),
    ])
    def test_ill_typed_number_is_a_bad_value(self, key, raw):
        with pytest.raises(ConfigError, match=rf"^bad value: .*{raw!r}"):
            parse_config(_stock_text_with(**{key: raw}))

    def test_ill_typed_rank_is_a_bad_value(self):
        with pytest.raises(ConfigError, match=r"^bad value: .*'x'"):
            parse_config(_stock_text_with(eta=None, ranks="2,x,8,1"))

    @pytest.mark.parametrize("raw, value", [
        *((r, True) for r in ("true", "1", "yes", "TRUE", "Yes")),
        *((r, False) for r in ("false", "0", "no", "False", "NO")),
    ])
    def test_boolean_spellings(self, raw, value):
        assert parse_config(_stock_text_with(use_tucker=raw)).use_tucker is value

    def test_refused_boolean_names_the_key(self):
        with pytest.raises(ConfigError, match=r"^use_tucker: expected a boolean, got 'maybe'$"):
            parse_config(_stock_text_with(use_tucker="maybe"))

    @pytest.mark.parametrize("eta, ranks, ok", [
        ("0.5", None, True),
        (None, "1,2,3,4", True),
        (None, None, False),
        ("0.5", "1,2,3,4", False),
    ])
    def test_eta_ranks_pairs(self, eta, ranks, ok):
        text = _stock_text_with(eta=eta, ranks=ranks)
        if ok:
            cfg = parse_config(text)
            assert (cfg.eta, cfg.ranks) == (
                None if eta is None else 0.5, None if ranks is None else (1, 2, 3, 4))
        else:
            with pytest.raises(ConfigError, match=r"^exactly one of eta / ranks must be set$"):
                parse_config(text)

    def test_round_trip_with_every_key_moved(self):
        cfg = default_config(T=300, beta_start=2e-4, beta_end=0.03, t=60, L=3, use_tucker=False,
                             sampler="skip", skip_k=5, patch=2, seed=7, eta=None,
                             ranks=(1, 2, 3, 4))
        stock = default_config()
        moved = [k for k in (*_REQUIRED, "eta", "ranks") if getattr(cfg, k) != getattr(stock, k)]
        assert moved == [*_REQUIRED, "eta", "ranks"]
        assert parse_config(format_config(cfg)) == cfg

    def test_import_builds_no_config_or_schedule(self):
        """The stock values are plain field defaults: importing the package
        builds no RunConfig and no Schedule."""
        code = ("import gc, lorid\n"
                "from lorid.diffusion import Schedule\n"
                "from lorid.io_formats import RunConfig\n"
                "print(sum(isinstance(o, (RunConfig, Schedule)) for o in gc.get_objects()))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(lorid.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        assert out.stdout == "0\n"


class TestModelSerialization:
    def test_basis_round_trip(self, tmp_path):
        images, _ = gen_striped_images(64, seed=41)
        layout = TensorizationLayout(height=16, width=16, channels=1, patch=4)
        basis = fit_basis(images, layout, rank_policy=(2, 2, 8, 1))
        path = str(tmp_path / "basis.lten")
        write_basis(path, basis)
        back = read_basis(path)
        assert back.ranks == basis.ranks
        assert back.layout == basis.layout
        np.testing.assert_array_equal(back.discarded_energy, basis.discarded_energy)
        for u1, u2 in zip(back.factors, basis.factors):
            np.testing.assert_array_equal(u1, u2)
        x = images[:3]
        np.testing.assert_array_equal(tf_apply(x, back), tf_apply(x, basis))

    def test_mlp_round_trip(self, tmp_path):
        sched = make_linear_schedule(50, 1e-3, 0.02)
        data = np.random.default_rng(42).standard_normal((32, 3))
        cfg = MlpTrainConfig(hidden=(6, 4), epochs=2, batch_size=16)
        model, _ = train_mlp_denoiser(data, sched, cfg, np.random.default_rng(43))
        path = str(tmp_path / "mlp.lten")
        write_mlp(path, model)
        back = read_mlp(path)
        assert back.dim == model.dim
        assert back.hidden == model.hidden
        assert back.t_total == model.t_total
        probe = np.random.default_rng(44).standard_normal((5, 3))
        np.testing.assert_array_equal(back.predict_eps(probe, 25), model.predict_eps(probe, 25))

    def test_classifier_round_trip(self, tmp_path):
        x, y = gen_two_gaussian_classes(80, seed=45)
        clf = train_classifier(x, y, ClassifierTrainConfig(hidden=(6,), epochs=5),
                               np.random.default_rng(46))
        path = str(tmp_path / "clf.lten")
        write_classifier(path, clf)
        back = read_classifier(path)
        assert back.input_dim == clf.input_dim
        assert back.n_classes == clf.n_classes
        np.testing.assert_array_equal(back.predict(x), clf.predict(x))


class TestModelSizesRoundTrip:
    """A model's sizes are its arrays' shapes, and every model that can be
    built comes back from its container with the same sizes and bytes."""

    @staticmethod
    def _same_params(a, b):
        assert len(a) == len(b)
        for (w1, b1), (w2, b2) in zip(a, b):
            assert w1.shape == w2.shape and w1.tobytes() == w2.tobytes()
            assert b1.shape == b2.shape and b1.tobytes() == b2.tobytes()

    @pytest.mark.parametrize("hidden", [(), (4,), (64, 64)])
    def test_mlp(self, hidden, tmp_path):
        model = MlpDenoiser.initialize(3, hidden, 7, np.random.default_rng(60))
        assert model.params[0][0].shape[0] == model.dim + N_TIME_FEATURES
        assert model.hidden == tuple(w.shape[1] for w, _ in model.params[:-1]) == hidden
        path = str(tmp_path / "mlp.lten")
        write_mlp(path, model)
        back = read_mlp(path)
        assert (back.dim, back.hidden, back.t_total) == (model.dim, model.hidden, model.t_total)
        self._same_params(back.params, model.params)

    def test_one_step_mlp(self, tmp_path):
        model = MlpDenoiser.initialize(1, (1,), 1, np.random.default_rng(61))
        path = str(tmp_path / "mlp.lten")
        write_mlp(path, model)
        back = read_mlp(path)
        assert (back.dim, back.t_total) == (1, 1)

    @pytest.mark.parametrize("sizes", [[5, 2], [5, 4, 3], [1, 1, 1, 2]])
    def test_classifier(self, sizes, tmp_path):
        clf = ToyClassifier(_nn.init_params(sizes, np.random.default_rng(62)))
        assert (clf.input_dim, clf.n_classes) == (sizes[0], sizes[-1])
        path = str(tmp_path / "clf.lten")
        write_classifier(path, clf)
        back = read_classifier(path)
        assert (back.input_dim, back.n_classes) == (clf.input_dim, clf.n_classes)
        self._same_params(back.params, clf.params)

    @pytest.mark.parametrize("rank_policy", [(1, 1, 1, 1), (2, 2, 8, 1), (4, 4, 16, 1)])
    def test_basis(self, rank_policy, tmp_path):
        images, _ = gen_striped_images(64, seed=63)
        layout = TensorizationLayout(height=16, width=16, channels=1, patch=4)
        basis = fit_basis(images, layout, rank_policy)
        assert basis.ranks == tuple(u.shape[1] for u in basis.factors) == rank_policy
        path = str(tmp_path / "basis.lten")
        write_basis(path, basis)
        back = read_basis(path)
        assert (back.ranks, back.layout) == (basis.ranks, basis.layout)
        assert back.discarded_energy == basis.discarded_energy
        for u1, u2 in zip(back.factors, basis.factors):
            assert u1.shape == u2.shape and u1.tobytes() == u2.tobytes()

    def test_what_a_reader_refuses_cannot_be_built(self):
        """The shapes each reader refuses are refused at construction too."""
        rng = np.random.default_rng(64)
        with pytest.raises(ValueError, match="input layer"):
            MlpDenoiser(10, _nn.init_params([12, 7, 2], rng))
        with pytest.raises(ValueError):
            MlpDenoiser(0, _nn.init_params([1 + N_TIME_FEATURES, 1], rng))
        with pytest.raises(ValueError):
            ToyClassifier(_nn.init_params([4, 0, 2], rng))
        images, _ = gen_striped_images(16, seed=65)
        layout = TensorizationLayout(height=16, width=16, channels=1, patch=4)
        good = fit_basis(images, layout, (1, 1, 1, 1))
        for factors, energy in [((good.factors[0][:, :0], *good.factors[1:]), good.discarded_energy),
                                (good.factors, (np.inf, *good.discarded_energy[1:]))]:
            with pytest.raises(ValueError):
                TuckerBasis(factors, layout, energy)


def _write_blocks(path, blocks):
    with open(path, "wb") as fh:
        for block in blocks:
            write_tensor(fh, np.asarray(block, dtype=float))


def _layer_blocks(params):
    return [arr for layer in params for arr in layer]


class TestModelShapeChecks:
    """A model container whose blocks disagree with its meta block is refused on read."""

    @pytest.fixture(scope="class")
    def mlp(self):
        sched = make_linear_schedule(50, 1e-3, 0.02)
        data = np.random.default_rng(47).standard_normal((16, 3))
        cfg = MlpTrainConfig(hidden=(6, 4), epochs=1, batch_size=16)
        return train_mlp_denoiser(data, sched, cfg, np.random.default_rng(48))[0]

    @pytest.fixture(scope="class")
    def clf(self):
        x, y = gen_two_gaussian_classes(40, seed=49)
        return train_classifier(x, y, ClassifierTrainConfig(hidden=(6, 5), epochs=2),
                                np.random.default_rng(50))

    def test_mlp_hidden_sizes_block_must_be_a_vector(self, mlp, tmp_path):
        path = str(tmp_path / "mlp.lten")
        _write_blocks(path, [[mlp.dim, mlp.t_total], [mlp.hidden], *_layer_blocks(mlp.params)])
        with pytest.raises(TensorFormatError, match="hidden sizes"):
            read_mlp(path)

    def test_mlp_hidden_sizes_must_be_positive_integers(self, mlp, tmp_path):
        path = str(tmp_path / "mlp.lten")
        _write_blocks(path, [[mlp.dim, mlp.t_total], [6.5, 4], *_layer_blocks(mlp.params)])
        with pytest.raises(TensorFormatError, match="hidden sizes"):
            read_mlp(path)

    def test_mlp_first_layer_fan_in_checked(self, mlp, tmp_path):
        """A first weight block one row short is refused at read time."""
        (w0, b0), *rest = mlp.params
        path = str(tmp_path / "mlp.lten")
        _write_blocks(path, [[mlp.dim, mlp.t_total], mlp.hidden,
                             *_layer_blocks([(w0[1:], b0), *rest])])
        with pytest.raises(TensorFormatError, match="layer 0"):
            read_mlp(path)

    def test_mlp_layer_widths_follow_hidden_sizes(self, mlp, tmp_path):
        path = str(tmp_path / "mlp.lten")
        _write_blocks(path, [[mlp.dim, mlp.t_total], [4, 6], *_layer_blocks(mlp.params)])
        with pytest.raises(TensorFormatError, match="layer 0"):
            read_mlp(path)

    def test_classifier_inner_layer_checked(self, clf, tmp_path):
        """The second weight block must take the first layer's width as its fan-in."""
        (w0, b0), (w1, b1), last = clf.params
        path = str(tmp_path / "clf.lten")
        _write_blocks(path, [[clf.input_dim, clf.n_classes, 3],
                             *_layer_blocks([(w0, b0), (w1[1:], b1), last])])
        with pytest.raises(TensorFormatError, match="layer 1"):
            read_classifier(path)

    def test_classifier_bias_and_meta_checked(self, clf, tmp_path):
        (w0, b0), *rest = clf.params
        path = str(tmp_path / "clf.lten")
        _write_blocks(path, [[clf.input_dim, clf.n_classes, 3],
                             *_layer_blocks([(w0, b0[1:]), *rest])])
        with pytest.raises(TensorFormatError, match="layer 0"):
            read_classifier(path)
        _write_blocks(path, [[clf.input_dim, clf.n_classes, 0], *_layer_blocks(clf.params)])
        with pytest.raises(TensorFormatError, match="meta block"):
            read_classifier(path)


def _blob(blocks):
    buf = io.BytesIO()
    for block in blocks:
        write_tensor(buf, block)
    return buf.getvalue()


def _grown(block):
    """The block one longer along its first axis, its values repeated."""
    return np.resize(block, (block.shape[0] + 1, *block.shape[1:]))


# Ways to break a container of blocks at block i, each giving the broken file's bytes.
BREAKS = {
    "cut-before": lambda blocks, i: _blob(blocks[:i]),
    "cut-inside": lambda blocks, i: _blob(blocks[:i + 1])[:-(len(_blob(blocks[i:i + 1])) // 2)],
    "dropped": lambda blocks, i: _blob(blocks[:i] + blocks[i + 1:]),
    "duplicated": lambda blocks, i: _blob(blocks[:i + 1] + blocks[i:]),
    "grown": lambda blocks, i: _blob([*blocks[:i], _grown(blocks[i]), *blocks[i + 1:]]),
    "lifted": lambda blocks, i: _blob([*blocks[:i], blocks[i][None], *blocks[i + 1:]]),
}
# Each container below: its reader, and its blocks for a basis, a
# one-hidden-layer denoiser and a one-hidden-layer classifier.
CONTAINERS = {"basis": (read_basis, 6), "denoiser": (read_mlp, 6),
              "classifier": (read_classifier, 5)}
# The purify flag that reads each container.
PURIFY_FLAGS = {"basis": "--basis", "denoiser": "--denoiser"}


class TestContainerRefusals:
    """Every container the writers make, broken at each block in each way, is
    refused as a TensorFormatError; a broken basis or denoiser makes
    ``lorid purify`` exit 2 with one line and no output."""

    @pytest.fixture(scope="class")
    def made(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("containers")
        rng = np.random.default_rng(66)
        cfg = default_config(T=120, t=20, L=2, eta=None, ranks=(2, 2, 8, 1))
        images, _ = gen_striped_images(8, seed=67)
        paths = {name: str(tmp / f"{name}.lten") for name in CONTAINERS}
        write_basis(paths["basis"], fit_basis(images, TensorizationLayout(16, 16, 1, 4),
                                              cfg.ranks))
        write_mlp(paths["denoiser"], MlpDenoiser.initialize(256, (16,), cfg.T, rng))
        write_classifier(paths["classifier"], ToyClassifier(_nn.init_params([256, 8, 2], rng)))
        paths["config"], paths["input"] = str(tmp / "run.cfg"), str(tmp / "input.lten")
        Path(paths["config"]).write_text(format_config(cfg))
        write_tensor(paths["input"], images[:4])
        return paths

    @staticmethod
    def _blocks(path):
        with open(path, "rb") as fh:
            blocks = []
            while fh.peek(1):
                blocks.append(read_tensor(fh))
        return blocks

    @staticmethod
    def _purify(paths, out, **files):
        flags = {"--basis": paths["basis"], "--denoiser": paths["denoiser"], **files}
        return main(["purify", "--input", paths["input"], "--config", paths["config"],
                     "--out", str(out), *(arg for flag in flags.items() for arg in flag)])

    def test_unbroken_containers_are_read_and_purify(self, made, tmp_path):
        for name, (reader, count) in CONTAINERS.items():
            assert len(self._blocks(made[name])) == count
            assert _blob(self._blocks(made[name])) == Path(made[name]).read_bytes()
            reader(made[name])
        assert self._purify(made, tmp_path / "out.lten") == 0

    @pytest.mark.parametrize("name, broken, i", [
        (name, broken, i) for name, (_, count) in CONTAINERS.items() for broken in BREAKS
        for i in range(count)])
    def test_broken_container_refused(self, name, broken, i, made, tmp_path, capsys):
        bad = tmp_path / "bad.lten"
        bad.write_bytes(BREAKS[broken](self._blocks(made[name]), i))
        with pytest.raises(TensorFormatError):
            CONTAINERS[name][0](str(bad))
        if name in PURIFY_FLAGS:
            out = tmp_path / "out.lten"
            capsys.readouterr()
            assert self._purify(made, out, **{PURIFY_FLAGS[name]: str(bad)}) == 2
            assert capsys.readouterr().err.count("\n") == 1
            assert not out.exists()


class TestGenerators:
    def test_gaussian_dataset_seeded(self):
        a = gen_gaussian_dataset(4, 10, seed=7)
        b = gen_gaussian_dataset(4, 10, seed=7)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (10, 4)

    def test_two_gaussian_classes_balanced(self):
        x, y = gen_two_gaussian_classes(100, seed=8)
        assert x.shape == (100, 2)
        assert np.sum(y == 0) == 50
        # class 0 sits left of class 1 along the split axis
        assert x[y == 0, 0].mean() < x[y == 1, 0].mean()

    def test_two_point_dataset(self):
        data = gen_two_point_dataset(50, seed=9)
        assert data.shape == (50, 1)
        assert set(np.unique(data)) == {-1.0, 1.0}
        assert abs(data.sum()) <= 1  # balanced up to odd n

    def test_striped_images_structure(self):
        images, labels = gen_striped_images(40, seed=10, noise=0.0)
        assert images.shape == (40, 16, 16, 1)
        assert set(np.unique(labels)) == {0, 1}
        img0 = images[labels == 0][0, :, :, 0]
        img1 = images[labels == 1][0, :, :, 0]
        # horizontal stripes: rows constant; vertical: columns constant
        assert np.ptp(img0, axis=1).max() < 1e-12
        assert np.ptp(img1, axis=0).max() < 1e-12
        # period-2 alternation with amplitude in the documented band
        amp = np.abs(img0).max()
        assert 0.2 - 1e-12 <= amp <= 0.4 + 1e-12
        np.testing.assert_allclose(img0[0], -img0[1], rtol=1e-12)

    def test_striped_images_seeded(self):
        a, la = gen_striped_images(20, seed=11)
        b, lb = gen_striped_images(20, seed=11)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(la, lb)

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            gen_gaussian_dataset(0, 5, seed=0)
        with pytest.raises(ValueError):
            gen_two_point_dataset(1, seed=0)
        with pytest.raises(ValueError):
            gen_striped_images(10, seed=0, noise=-0.1)
