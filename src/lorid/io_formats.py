"""Persistence: binary tensor container, CSV emission, run configs, datasets.

The tensor container ("LTEN") is deliberately minimal and normative down to
the byte: 4-byte magic, u16 format version, u16 ndim, ndim u64 dims, then the
payload as little-endian IEEE-754 doubles in row-major order.  Everything
float is 64-bit — the bound checks need the precision, and a second payload
width would double the format surface for nothing.  Multi-array objects
(fitted bases, trained networks) are stored as a fixed sequence of LTEN
blocks in one file.

Run configuration is plain ``key=value`` text with a closed key set: unknown
keys are errors, not warnings, so a typo cannot silently fall back to a
default.  Dataset generators are deterministic functions of their seed.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import astuple, dataclass, field, fields
from typing import BinaryIO, Callable, Iterable, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import _nn
from .attacks import ToyClassifier
from .diffusion import (DEFAULT_BETA_END, DEFAULT_BETA_START, DEFAULT_T, MlpDenoiser, Schedule,
                        make_linear_schedule)
from .purify import LoridConfig
from .tucker import TensorizationLayout, TuckerBasis

__all__ = [
    "TENSOR_MAGIC",
    "TENSOR_VERSION",
    "TensorFormatError",
    "write_tensor",
    "read_tensor",
    "write_csv",
    "RunConfig",
    "ConfigError",
    "parse_config",
    "format_config",
    "default_config",
    "write_basis",
    "read_basis",
    "write_mlp",
    "read_mlp",
    "write_classifier",
    "read_classifier",
    "gen_gaussian_dataset",
    "gen_two_gaussian_classes",
    "gen_two_point_dataset",
    "gen_striped_images",
]

TENSOR_MAGIC = b"LTEN"
TENSOR_VERSION = 1
_MAX_ELEMENTS = 1 << 40  # refuse absurd allocations before they happen
_MAX_NDIM = 32  # numpy 1.x's limit (2.x allows 64): every supported numpy reads what is written


class TensorFormatError(ValueError):
    """Malformed or unreadable tensor container."""


def _as_block(x) -> np.ndarray:
    """``x`` as the little-endian float64 array of an LTEN block; more dims
    than a reader takes raise TensorFormatError."""
    arr = np.asarray(x, dtype="<f8")
    if arr.ndim > _MAX_NDIM:
        raise TensorFormatError(f"{arr.ndim} dims exceed the {_MAX_NDIM} a tensor file may hold")
    return arr


def _write_block(fh: BinaryIO, arr: np.ndarray) -> None:
    """Write an array from :func:`_as_block` as one LTEN block."""
    fh.write(TENSOR_MAGIC)
    fh.write(struct.pack("<HH", TENSOR_VERSION, arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    fh.write(arr.tobytes(order="C"))


def _read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise TensorFormatError(f"truncated file: expected {n} bytes of {what}, got {len(data)}")
    return data


def _read_block(fh: BinaryIO) -> np.ndarray:
    magic = _read_exact(fh, 4, "magic")
    if magic != TENSOR_MAGIC:
        raise TensorFormatError(f"bad magic {magic!r}, expected {TENSOR_MAGIC!r}")
    version, ndim = struct.unpack("<HH", _read_exact(fh, 4, "header"))
    if version > TENSOR_VERSION:
        raise TensorFormatError(f"format version {version} is newer than supported {TENSOR_VERSION}")
    if ndim > _MAX_NDIM:
        raise TensorFormatError(f"header claims {ndim} dims, over the {_MAX_NDIM} supported")
    dims = struct.unpack(f"<{ndim}Q", _read_exact(fh, 8 * ndim, "dims")) if ndim else ()
    nonzero = 1  # the product of the nonzero dims: a zero dim must not hide a huge one
    for d in dims:
        nonzero *= d or 1
        if nonzero > _MAX_ELEMENTS:
            raise TensorFormatError(f"dimension overflow: {dims}")
    count = math.prod(dims)
    # Refuse a header that claims more payload than the file holds, where the
    # handle can tell; one that has only read is taken at its word until the read.
    if hasattr(fh, "seekable") and fh.seekable():
        here = fh.tell()
        left = fh.seek(0, io.SEEK_END) - here
        fh.seek(here)
        if 8 * count > left:
            raise TensorFormatError(
                f"truncated file: header claims {8 * count} bytes of payload, {left} remain"
            )
    if not hasattr(fh, "readinto"):  # a handle with only read: one copy more
        payload = _read_exact(fh, 8 * count, "payload")
        return np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
    # Read straight into the array's own memory, the one copy of the payload.
    # np.empty, unlike bytearray, does not zero-fill what a lying header claims
    # of a handle whose size cannot be checked above.
    payload = np.empty(8 * count, dtype=np.uint8)
    got = fh.readinto(payload) or 0  # a non-blocking handle with no data gives None
    if got != payload.size:
        raise TensorFormatError(
            f"truncated file: expected {payload.size} bytes of payload, got {got}")
    return payload.view("<f8").reshape(dims)


def write_tensor(path_or_file: str | BinaryIO, x: np.ndarray) -> None:
    """Write one array as an LTEN block (to a path, or appended to a handle)."""
    if isinstance(path_or_file, (str, bytes)):
        _write_container(path_or_file, [x])
    else:
        _write_block(path_or_file, _as_block(x))


def read_tensor(path_or_file: str | BinaryIO) -> np.ndarray:
    """Read one LTEN block.  Reading a path demands exactly one block in the file."""
    if isinstance(path_or_file, (str, bytes)):
        with open(path_or_file, "rb") as fh:
            arr = _read_block(fh)
            if fh.read(1):
                raise TensorFormatError("trailing bytes after single-tensor payload")
        return arr
    return _read_block(path_or_file)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Plain CSV with floats at full (%.17g) precision — byte-stable per inputs."""

    def cell(v) -> str:
        if isinstance(v, (float, np.floating)):
            return f"{float(v):.17g}"
        if isinstance(v, (int, np.integer, bool, np.bool_)):
            return str(int(v)) if not isinstance(v, (bool, np.bool_)) else str(bool(v)).lower()
        return str(v)

    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Run configuration.
# ---------------------------------------------------------------------------


class ConfigError(ValueError):
    """Missing, unknown, or ill-typed configuration keys."""


@dataclass(frozen=True)
class RunConfig:
    """Parsed key=value run configuration (schedule, purifier, projection, seed).

    The fields are the config's keys, in the order :func:`format_config` writes
    them, and their defaults are the stock laboratory configuration.  A key
    whose type admits None may be left out of a file; exactly one of eta /
    ranks is set.
    """

    T: int = DEFAULT_T
    beta_start: float = DEFAULT_BETA_START
    beta_end: float = DEFAULT_BETA_END
    t: int = 100
    L: int = 4
    use_tucker: bool = True
    sampler: str = LoridConfig.sampler
    skip_k: int = LoridConfig.skip_k
    patch: int = 4
    seed: int = 0
    eta: float | None = 0.95
    ranks: tuple[int, int, int, int] | None = None
    # The Schedule of T, beta_start and beta_end, and the basis-free LoridConfig
    # of t, L, sampler and skip_k, each built once by the check below.
    schedule: Schedule = field(init=False, repr=False, compare=False)
    purifier: LoridConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.eta is None) == (self.ranks is None):
            raise ConfigError("exactly one of eta / ranks must be set")
        if self.patch < 1:
            raise ConfigError("patch must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.eta is not None and not 0.0 < self.eta <= 1.0:
            raise ConfigError(f"eta {self.eta} outside (0, 1]")
        if self.ranks is not None and (len(self.ranks) != 4 or min(self.ranks) < 1):
            raise ConfigError(f"ranks must be four positive integers, got {self.ranks}")
        try:  # the schedule and purifier rules live in make_linear_schedule and LoridConfig
            schedule = make_linear_schedule(self.T, self.beta_start, self.beta_end)
            purifier = LoridConfig(self.t, self.L, sampler=self.sampler, skip_k=self.skip_k)
            purifier.validate(schedule)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        object.__setattr__(self, "schedule", schedule)
        object.__setattr__(self, "purifier", purifier)


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


# How a value of each declared field type is read from, and written to, its text.
_CODECS = {
    int: (int, str),
    float: (float, lambda v: format(v, ".17g")),
    bool: (_parse_bool, lambda v: "true" if v else "false"),
    str: (str, str),
    tuple: (lambda raw: tuple(int(r) for r in raw.split(",")), lambda v: ",".join(map(str, v))),
}


def _config_keys() -> dict[str, tuple[type, bool]]:
    """Each config key, in field order: the type its text holds and whether
    the key may be left out (its declared type admits None)."""
    hints = get_type_hints(RunConfig)
    keys = {}
    for f in fields(RunConfig):
        if f.init:
            kind, optional = hints[f.name], type(None) in get_args(hints[f.name])
            if optional:  # X | None holds an X
                kind = next(a for a in get_args(kind) if a is not type(None))
            keys[f.name] = (get_origin(kind) or kind, optional)
    return keys


_KEYS = _config_keys()


def parse_config(text: str) -> RunConfig:
    """Parse ``key=value`` lines ('#' comments and blank lines allowed)."""
    seen: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = raw
    missing = [k for k, (_, optional) in _KEYS.items() if not optional and k not in seen]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    kwargs = {}
    for key, (kind, _) in _KEYS.items():
        try:
            kwargs[key] = _CODECS[kind][0](seen[key]) if key in seen else None
        except ConfigError as exc:
            raise ConfigError(f"{key}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"bad value: {exc}") from exc
    return RunConfig(**kwargs)


def format_config(cfg: RunConfig) -> str:
    """Inverse of :func:`parse_config` (modulo comments and key order)."""
    return "".join(f"{key}={_CODECS[kind][1](getattr(cfg, key))}\n"
                   for key, (kind, _) in _KEYS.items() if getattr(cfg, key) is not None)


def default_config(**overrides) -> RunConfig:
    """The stock laboratory configuration; keyword overrides applied on top,
    so the config is built and validated once."""
    return RunConfig(**overrides)


# ---------------------------------------------------------------------------
# Multi-block containers: fitted basis, trained networks.
# ---------------------------------------------------------------------------


def _write_container(path: str, blocks: Iterable) -> None:
    """Write ``blocks`` in order as the LTEN blocks of the file at ``path``.
    Every block is checked before the file is created, so a refused write
    leaves no file."""
    arrays = [_as_block(x) for x in blocks]
    with open(path, "wb") as fh:
        for arr in arrays:
            _write_block(fh, arr)


def _read_container(path: str) -> list[np.ndarray]:
    """The LTEN blocks of the file at ``path``, read to its end: a file that
    ends inside a block is refused as truncated."""
    blocks = []
    with open(path, "rb") as fh:
        while fh.peek(1):
            blocks.append(_read_block(fh))
    return blocks


def _read_network(path: str, what: str, heads: int) -> tuple[list[np.ndarray], _nn.Params]:
    """The ``heads`` meta blocks of a network container, then its weight/bias pairs."""
    blocks = _read_container(path)
    if len(blocks) < heads or (len(blocks) - heads) % 2:
        raise TensorFormatError(f"{what} container holds {len(blocks)} blocks: not its "
                                f"{heads} meta block(s), then weight/bias pairs")
    layers = blocks[heads:]
    return blocks[:heads], list(zip(layers[::2], layers[1::2]))


def _sizes(block: np.ndarray, what: str, count: int | None = None) -> tuple[int, ...]:
    """The positive integers a 1-D size block holds, ``count`` of them where given."""
    ok = np.isfinite(block) & (block >= 1) & (block == np.round(block))
    if block.ndim != 1 or count not in (None, block.size) or not np.all(ok):
        raise TensorFormatError(f"{what} must be {count or 'a vector of'} positive integers, "
                                f"got a block of shape {block.shape}")
    return tuple(int(v) for v in block)


def _built(what: str, make: Callable, *args):
    """``make(*args)``: a model checks its own arrays, and its ValueError is
    re-raised as a TensorFormatError on the ``what`` container."""
    try:
        return make(*args)
    except ValueError as exc:
        raise TensorFormatError(f"{what} container: {exc}") from None


def _agree(what: str, read: tuple[int, ...], stored: tuple[int, ...]) -> None:
    """Refuse a network whose sizes, read off its arrays, are not its meta blocks'."""
    if read != stored:
        raise TensorFormatError(f"{what} sizes {read}, read off its layers from layer 0, "
                                f"differ from the {stored} of its meta blocks")


def write_basis(path: str, basis: TuckerBasis) -> None:
    """Basis container: layout meta, four factors, discarded energies."""
    _write_container(path, [astuple(basis.layout), *basis.factors, basis.discarded_energy])


def read_basis(path: str) -> TuckerBasis:
    blocks = _read_container(path)
    if len(blocks) != 6:
        raise TensorFormatError(f"basis container holds {len(blocks)} blocks, not 6")
    meta, *factors, energy = blocks
    layout = _built("basis", TensorizationLayout, *_sizes(meta, "basis meta block", 4))
    return _built("basis", TuckerBasis, tuple(factors), layout, energy)


def write_mlp(path: str, denoiser: MlpDenoiser) -> None:
    """Denoiser container: [dim, t_total], hidden sizes, then weight/bias pairs."""
    _write_container(path, [(denoiser.dim, denoiser.t_total), denoiser.hidden,
                            *(arr for layer in denoiser.params for arr in layer)])


def read_mlp(path: str) -> MlpDenoiser:
    (meta, hidden), params = _read_network(path, "denoiser", 2)
    dim, t_total = _sizes(meta, "denoiser meta block", 2)
    hidden = _sizes(hidden, "denoiser hidden sizes")
    model = _built("denoiser", MlpDenoiser, t_total, params)
    _agree("denoiser", (model.dim, *model.hidden), (dim, *hidden))
    return model


def write_classifier(path: str, clf: ToyClassifier) -> None:
    """Classifier container: [input_dim, n_classes, n_layers], then weight/bias pairs."""
    _write_container(path, [(clf.input_dim, clf.n_classes, len(clf.params)),
                            *(arr for layer in clf.params for arr in layer)])


def read_classifier(path: str) -> ToyClassifier:
    (meta,), params = _read_network(path, "classifier", 1)
    sizes = _sizes(meta, "classifier meta block", 3)
    clf = _built("classifier", ToyClassifier, params)
    _agree("classifier", (clf.input_dim, clf.n_classes, len(params)), sizes)
    return clf


# ---------------------------------------------------------------------------
# Synthetic datasets.
# ---------------------------------------------------------------------------


def gen_gaussian_dataset(d: int, n: int, seed: int) -> np.ndarray:
    """(n, d) draws from the standard normal — the analytic-MMSE data model."""
    if d < 1 or n < 1:
        raise ValueError("d and n must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d))


def gen_two_gaussian_classes(n: int, seed: int, d: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Balanced two-class unit-variance blobs at -1.5 and +1.5 along the first axis."""
    if n < 2:
        raise ValueError("need n >= 2 for two classes")
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 2
    centers = np.zeros((n, d))
    centers[:, 0] = np.where(y == 0, -1.5, 1.5)
    x = centers + rng.standard_normal((n, d))
    perm = rng.permutation(n)
    return x[perm], y[perm]


def gen_two_point_dataset(n: int, seed: int) -> np.ndarray:
    """(n, 1) balanced draws from {-1, +1} — the binary-input channel model."""
    if n < 2:
        raise ValueError("need n >= 2 for both signs")
    rng = np.random.default_rng(seed)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return rng.permutation(signs).reshape(n, 1)


STRIPE_SIZE = 16
STRIPE_AMP = (0.2, 0.4)


def gen_striped_images(
    n: int, seed: int, noise: float = 0.02
) -> tuple[np.ndarray, np.ndarray]:
    """Two-class 16x16x1 stripe images living in a two-direction patch subspace.

    Class 0 is a period-2 horizontal stripe pattern (rows alternate sign),
    class 1 the vertical transpose.  Each image gets a random overall sign and
    an amplitude drawn from U[0.2, 0.4], plus small Gaussian pixel noise, and
    is centered on zero so every 4x4 patch is (up to noise) proportional to a
    single per-class patch atom — the tensorized dataset's patch-pixel mode
    then concentrates >= 90% of its energy in two singular directions.
    """
    if n < 2:
        raise ValueError("need n >= 2 for both classes")
    if noise < 0:
        raise ValueError("noise must be nonnegative")
    rng = np.random.default_rng(seed)
    size = STRIPE_SIZE
    rows = np.where(np.arange(size) % 2 == 0, 1.0, -1.0)
    horizontal = np.tile(rows[:, None], (1, size))
    vertical = horizontal.T
    y = np.arange(n) % 2
    perm = rng.permutation(n)
    y = y[perm]
    amps = rng.uniform(STRIPE_AMP[0], STRIPE_AMP[1], size=n)
    signs = rng.choice([-1.0, 1.0], size=n)
    images = np.empty((n, size, size, 1))
    for i in range(n):
        base = horizontal if y[i] == 0 else vertical
        img = signs[i] * amps[i] * base
        if noise > 0:
            img = img + noise * rng.standard_normal((size, size))
        images[i, :, :, 0] = img
    return images, y
