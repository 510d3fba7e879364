"""Output checks of the three workloads, made apart from the program.

Each check returns a list of problems; an empty list means the output passed.
The LTEN reader and writer here follow the container's byte layout (4-byte
magic, u16 version, u16 ndim, ndim u64 dims, little-endian f8 payload) without
calling ``lorid.io_formats``, so a fault in the program's reader cannot hide
a fault in its writer.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"LTEN"


def lten_bytes(x: np.ndarray) -> bytes:
    """One LTEN block holding ``x``."""
    arr = np.ascontiguousarray(x, dtype="<f8")
    return (MAGIC + struct.pack("<HH", 1, arr.ndim)
            + struct.pack(f"<{arr.ndim}Q", *arr.shape) + arr.tobytes())


def lten_array(blob: bytes) -> np.ndarray:
    """Parse a file holding exactly one LTEN block; raise ValueError otherwise."""
    if blob[:4] != MAGIC or len(blob) < 8:
        raise ValueError("not an LTEN file")
    _, ndim = struct.unpack_from("<HH", blob, 4)
    head = 8 + 8 * ndim
    if len(blob) < head:
        raise ValueError(f"header of {len(blob)} bytes is shorter than its {ndim} dims")
    dims = struct.unpack_from(f"<{ndim}Q", blob, 8)
    if len(blob) != head + 8 * int(np.prod(dims, dtype=object)):
        raise ValueError(f"payload of {len(blob) - head} bytes does not fit dims {dims}")
    return np.frombuffer(blob, dtype="<f8", offset=head).reshape(dims)


def check_purified(blob: bytes | None, in_shape: tuple) -> list[str]:
    """A well-formed request writes a finite tensor of the input's shape."""
    if blob is None:
        return ["no output written"]
    try:
        out = lten_array(blob)
    except ValueError as exc:
        return [f"output unreadable: {exc}"]
    problems = []
    if out.shape != tuple(in_shape):
        problems.append(f"output shape {out.shape} != input shape {tuple(in_shape)}")
    if not np.all(np.isfinite(out)):
        problems.append("output has non-finite values")
    return problems


def check_refused(code: int | None, stderr: str, wrote_output: bool) -> list[str]:
    """A malformed request exits 2 with a one-line message and writes nothing."""
    problems = []
    if code != 2:
        problems.append(f"exit code {code}, expected 2")
    if len(stderr.strip().splitlines()) != 1:
        problems.append(f"stderr is {len(stderr.strip().splitlines())} lines, expected 1")
    if wrote_output:
        problems.append("an output file was written")
    return problems


def check_purify_helps(correct_purified: int, correct_adversarial: int, images: int) -> list[str]:
    """Over the run, purification raises accuracy above the adversarial inputs'."""
    if images < 1 or correct_purified <= correct_adversarial:
        return [f"accuracy on purified outputs {correct_purified}/{images} does not exceed "
                f"accuracy on adversarial inputs {correct_adversarial}/{images}"]
    return []


def calibration_pick(rows) -> tuple[int, int]:
    """The documented rule: best robust accuracy among rows whose clean accuracy
    is within 3 points of the best, ties to smaller t and then smaller L."""
    best_clean = max(r[2] for r in rows)
    eligible = sorted((r for r in rows if r[2] >= best_clean - 0.03), key=lambda r: (r[0], r[1]))
    best = eligible[0]
    for row in eligible[1:]:
        if row[3] > best[3]:
            best = row
    return best[0], best[1]


def check_calibration(rows, pick, t_grid, l_grid) -> list[str]:
    problems = []
    if sorted((r[0], r[1]) for r in rows) != sorted((t, L) for t in t_grid for L in l_grid):
        problems.append(f"calibration rows {[(r[0], r[1]) for r in rows]} do not cover the grid")
    if any(not 0.0 <= acc <= 1.0 for r in rows for acc in r[2:]):
        problems.append("calibration accuracy outside [0, 1]")
    if problems:
        return problems
    want = calibration_pick(rows)
    if tuple(pick) != want:
        problems.append(f"calibration picked {tuple(pick)}, the rule gives {want}")
    return problems


def check_ladder(table: dict[str, float], min_drop: float = 0.30) -> list[str]:
    """The attack hurts, and both the projection and the full purifier win back
    accuracy from it: tf_only >= attacked and lorid >= attacked.

    ``lorid >= tf_only`` is not checked: criterion 8 asks for it on a majority
    of seeds only, and at the calibrated point it fails on some seeds.
    """
    problems = [f"{k} accuracy {v} outside [0, 1]" for k, v in table.items() if not 0.0 <= v <= 1.0]
    drop = table["standard"] - table["attacked"]
    if drop < min_drop:
        problems.append(f"attack lowers accuracy by {drop:.4f} < {min_drop}")
    for defense in ("tf_only", "lorid"):
        if table[defense] < table["attacked"]:
            problems.append(f"{defense} accuracy {table[defense]:.4f} is below the attacked "
                            f"accuracy {table['attacked']:.4f}")
    return problems


def unfold(x: np.ndarray, mode: int) -> np.ndarray:
    return np.moveaxis(x, mode, 0).reshape(x.shape[mode], -1)


def patch_tensor(images: np.ndarray, patch: int) -> np.ndarray:
    """(N, H, W, C) -> (N, H/p, W/p, p*p, C), patch pixels in row-major order."""
    n, h, w, c = images.shape
    p = patch
    blocks = images.reshape(n, h // p, p, w // p, p, c).transpose(0, 1, 3, 2, 4, 5)
    return blocks.reshape(n, h // p, w // p, p * p, c)


def energy_rank(s: np.ndarray, eta: float) -> int:
    """Smallest rank whose leading squared singular values reach eta of the total."""
    energy = np.cumsum(s**2)
    return int(np.argmax(energy >= eta * energy[-1]) + 1)


def check_basis(images, patch, eta, factors, ranks, discarded, project) -> list[str]:
    """A fitted HOSVD basis against numpy's SVD of the same unfoldings.

    ``project`` is the program's projection TF; ``factors``, ``ranks`` and
    ``discarded`` are the fitted basis's per-mode fields, modes in the order
    patch-row, patch-col, patch-pixel, channel.
    """
    problems = []
    tens = patch_tensor(images, patch)
    for i, (u, r) in enumerate(zip(factors, ranks)):
        left, s, _ = np.linalg.svd(unfold(tens, i + 1), full_matrices=False)
        want = energy_rank(s, eta)
        if r != want or u.shape[1] != r:
            problems.append(f"mode {i + 1}: rank {r} (factor has {u.shape[1]}), "
                            f"the {eta} energy rule gives {want}")
            continue
        ref = left[:, :r]
        gap = np.linalg.norm(u @ u.T - ref @ ref.T)
        if gap > 1e-8:
            problems.append(f"mode {i + 1}: factor spans a subspace {gap:.2e} away from "
                            "the leading left singular subspace")
    once = project(images)
    scale = float(np.sum(images**2))
    err = float(np.sum((images - once) ** 2))
    bound = float(sum(discarded))
    if err > bound * (1 + 1e-9) + 1e-12 * scale:
        problems.append(f"projection error {err:.6e} exceeds discarded energy {bound:.6e}")
    twice = project(once)
    if np.linalg.norm(twice - once) > 1e-10 * np.sqrt(scale):
        problems.append("projection is not idempotent")
    return problems
