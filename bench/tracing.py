"""In-memory span tracer for the benchmark's traced run.

The tracer replaces the public functions of each ``lorid`` module at the name
its caller looks up (``lorid.tucker.svd`` is the name ``fit_basis`` calls, and
``MlpDenoiser.predict_eps`` the one the samplers call) with a wrapper that
records one span per call: layer name, start, end, parent span, request id,
the exception that escaped it, and an amount (images, bytes).  Nothing in
``src/`` is changed; the originals are put back when the tracer is removed.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager

import numpy as np


def _images(args, kwargs) -> int:
    x = np.asarray(args[0])
    return int(x.shape[0]) if x.ndim > 1 else 1


def _file_bytes(args, kwargs) -> int:
    path = args[0]
    return os.path.getsize(path) if isinstance(path, str) and os.path.isfile(path) else 0


# (layer, owner, attribute, amount).  The owner is a module or a class; the
# same layer appears once per name a caller uses for it.
TARGETS = (
    ("diffusion.predict_eps", "lorid.diffusion:MlpDenoiser", "predict_eps", None),
    ("diffusion.predict_eps", "lorid.diffusion:GaussianOracleDenoiser", "predict_eps", None),
    ("diffusion.reverse", "lorid.purify", "reverse_ancestral", None),
    ("diffusion.reverse", "lorid.purify", "reverse_skip", None),
    ("diffusion.diffuse", "lorid.purify", "diffuse", None),
    ("diffusion.diffuse", "lorid.analysis", "diffuse", None),
    ("diffusion.train_mlp_denoiser", "lorid.cli", "train_mlp_denoiser", None),
    ("purify.lorid_purify", "lorid.cli", "lorid_purify", _images),
    ("purify.lorid_purify", "lorid.attacks", "lorid_purify", _images),
    ("tucker.tf_apply", "lorid.purify", "tf_apply", None),
    ("tucker.tf_apply", "lorid.attacks", "tf_apply", None),
    ("tucker.tf_apply", "lorid.analysis", "tf_apply", None),
    ("tucker.fit_basis", "lorid.cli", "fit_basis", None),
    ("tucker.fit_basis", "lorid.tucker", "fit_basis", None),
    ("tensorops.svd", "lorid.tucker", "svd", None),
    ("io_formats.read", "lorid.cli", "read_tensor", _file_bytes),
    ("io_formats.read", "lorid.cli", "read_mlp", _file_bytes),
    ("io_formats.read", "lorid.cli", "read_basis", _file_bytes),
    ("io_formats.read", "lorid.io_formats", "read_tensor", _file_bytes),
    ("io_formats.write", "lorid.cli", "write_tensor", _file_bytes),
    ("io_formats.write", "lorid.io_formats", "write_tensor", _file_bytes),
    ("io_formats.write", "lorid.io_formats", "write_mlp", _file_bytes),
    ("io_formats.write", "lorid.io_formats", "write_basis", _file_bytes),
    ("cli.main", "lorid.cli", "main", None),
    ("cli.toy_task_artifacts", "lorid.cli", "toy_task_artifacts", None),
    ("cli.run_calibration", "lorid.cli", "run_calibration", None),
    ("cli.run_attack_eval", "lorid.cli", "run_attack_eval", None),
    ("attacks.pgd", "lorid.cli", "pgd", None),
    ("attacks.pgd", "lorid.attacks", "pgd", None),
    ("attacks.input_grad", "lorid.attacks:ToyClassifier", "input_grad", None),
    ("attacks.train_classifier", "lorid.cli", "train_classifier", None),
    ("analysis.kl_quadrature_forward", "lorid.cli", "kl_quadrature_forward", None),
    ("analysis.verify_bounds", "lorid.cli", "verify_bounds", None),
)

# Per-layer metrics in BENCHMARK.json order: (name, unit, layer, statistic).
# Counts are kept for every layer.  Times are kept for the layers that every
# workload calls: a layer a workload never calls would read 0.0 s on every run
# of it, which measures nothing.  The trace file holds every layer's times
# regardless.
LAYER_METRICS = (
    ("diffusion.predict_eps.calls", "count", "diffusion.predict_eps", "calls"),
    ("diffusion.predict_eps.s", "s", "diffusion.predict_eps", "s"),
    ("diffusion.reverse.self_s", "s", "diffusion.reverse", "self_s"),
    ("diffusion.diffuse.s", "s", "diffusion.diffuse", "s"),
    ("purify.lorid_purify.calls", "count", "purify.lorid_purify", "calls"),
    ("purify.lorid_purify.images", "images", "purify.lorid_purify", "amount"),
    ("purify.lorid_purify.s", "s", "purify.lorid_purify", "s"),
    ("purify.lorid_purify.self_s", "s", "purify.lorid_purify", "self_s"),
    ("tucker.tf_apply.calls", "count", "tucker.tf_apply", "calls"),
    ("tucker.tf_apply.s", "s", "tucker.tf_apply", "s"),
    ("tucker.fit_basis.s", "s", "tucker.fit_basis", "s"),
    ("tensorops.svd.calls", "count", "tensorops.svd", "calls"),
    ("tensorops.svd.s", "s", "tensorops.svd", "s"),
    ("io_formats.read.bytes", "bytes", "io_formats.read", "amount"),
    ("io_formats.write.bytes", "bytes", "io_formats.write", "amount"),
    ("io_formats.rejected", "count", "io_formats.read", "rejected"),
    ("cli.main.calls", "count", "cli.main", "calls"),
    ("attacks.input_grad.calls", "count", "attacks.input_grad", "calls"),
    ("analysis.kl_quadrature_forward.calls", "count", "analysis.kl_quadrature_forward", "calls"),
    ("analysis.verify_bounds.calls", "count", "analysis.verify_bounds", "calls"),
)

# A read that raises this is an input the container format refused.
REJECTED = "TensorFormatError"


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans ``[layer, start, end, parent, request, error, amount]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request: object = None
        self._stack: list[int] = []

    def _wrap(self, layer: str, fn, amount):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.request, None, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if amount is not None:
                    span[6] = amount(args, kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore them."""
        saved = []
        try:
            for layer, owner, attr, amount in TARGETS:
                obj = _resolve(owner)
                original = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
                saved.append((obj, attr, original))
                setattr(obj, attr, self._wrap(layer, original, amount))
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per traced layer: calls, total seconds, self seconds, amount, rejected.

        Self time is a span's duration minus the durations of its direct
        children; the run is single-threaded, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {layer: {"calls": 0, "s": 0.0, "self_s": 0.0, "amount": 0, "rejected": 0}
                 for layer, *_ in TARGETS}
        for i, (layer, start, end, _, _, error, amount) in enumerate(self.spans):
            st = stats[layer]
            st["calls"] += 1
            st["s"] += end - start
            st["self_s"] += end - start - child_time[i]
            st["amount"] += amount
            st["rejected"] += error == REJECTED
        return stats


def layer_metrics(stats: dict[str, dict[str, float]]) -> dict[str, float]:
    """The per-layer metrics of :data:`LAYER_METRICS` from :meth:`Tracer.layer_stats`."""
    return {name: stats[layer][stat] for name, _, layer, stat in LAYER_METRICS}
