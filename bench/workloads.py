"""The benchmark's three workloads.

Each workload is a closed loop with one client: ``setup`` builds the inputs
from the seed, ``round`` runs one fixed list of operations (the next starts
only after the previous one returns) and checks their outputs, and ``finish``
runs the checks that span the whole run.  Operations that fail are counted;
outputs that are wrong are recorded in ``problems`` and make the run
incorrect.
"""

from __future__ import annotations

import hashlib
import io
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from checks import (
    check_basis,
    check_calibration,
    check_ladder,
    check_purified,
    check_purify_helps,
    check_refused,
    lten_array,
    lten_bytes,
)
from lorid import attacks, cli, io_formats, tucker

# The Quickstart configuration of the striped task.
STRIPED = dict(T=250, t=160, L=4, eta=None, ranks=(2, 2, 8, 1))


class Workload:
    min_rounds = 1
    trace_rounds = 1

    def __init__(self, seed: int, workdir: Path, tracer=None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.latencies: list[float] = []  # seconds, one per timed operation
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.problems: list[str] = []
        self.figures: dict[str, float] = {}

    def _op(self, label: str) -> None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request = f"{label}#{self.attempted}"

    def _fail(self, kind: str) -> None:
        self.failed += 1
        self.failures[kind] = self.failures.get(kind, 0) + 1

    def _problem(self, where: str, problems: list[str]) -> None:
        self.problems.extend(f"{where}: {p}" for p in problems)

    def finish(self) -> None:
        pass


# ---------------------------------------------------------------------------
# online-purify
# ---------------------------------------------------------------------------


@dataclass
class Request:
    name: str
    path: str
    shape: tuple
    labels: np.ndarray | None = None  # None for a malformed request
    adversarial_correct: int = 0


def _malformed_files() -> dict[str, bytes]:
    """Requests the program must refuse with exit 2.  None depends on the seed."""
    good = lten_bytes(np.full((2, 16, 16, 1), 0.1))
    nan = np.full((1, 16, 16, 1), 0.1)
    nan[0, 3, 5, 0] = np.nan
    return {
        "truncated": good[:-100],
        "bad-magic": b"LTEX" + good[4:],
        "trailing-bytes": good + bytes(8),
        "shape-mismatch": lten_bytes(np.full((2, 8, 8, 1), 0.1)),
        # 2**29 x 16 x 16 x 1 = 2**37 elements claimed by a 40-byte file.
        "oversized-header": b"LTEN" + bytes([1, 0, 4, 0]) + np.array(
            [2**29, 16, 16, 1], dtype="<u8").tobytes(),
        "nan-payload": lten_bytes(nan),
    }


class OnlinePurify(Workload):
    """The Quickstart ``lorid purify`` path, one small request at a time."""

    min_rounds = 2  # every later round reruns the first round's requests
    trace_rounds = 2
    sizes = range(1, 9)  # images per well-formed request
    per_size = 7  # requests of each size in a round

    def setup(self) -> None:
        cfg = io_formats.default_config(**STRIPED, seed=self.seed)
        art = cli.toy_task_artifacts(cfg)
        wd = self.workdir
        self.config = str(wd / "run.cfg")
        Path(self.config).write_text(io_formats.format_config(cfg))
        self.denoiser = str(wd / "denoiser.lten")
        self.basis = str(wd / "basis.lten")
        io_formats.write_mlp(self.denoiser, art.denoiser)
        io_formats.write_basis(self.basis, art.basis)
        self.clf = art.clf

        rng = np.random.default_rng([self.seed, 1])
        n = art.test_labels.size
        adv = attacks.pgd(art.clf, art.test_images.reshape(n, -1), art.test_labels,
                          cli.toy_budget(), rng).reshape(art.test_images.shape)
        requests = []
        for i, k in enumerate(rng.permutation(np.repeat(list(self.sizes), self.per_size))):
            idx = rng.choice(n, size=int(k), replace=False)
            path = str(wd / f"req{i:03d}.lten")
            io_formats.write_tensor(path, adv[idx])
            labels = art.test_labels[idx]
            correct = int(np.sum(art.clf.predict(adv[idx].reshape(k, -1)) == labels))
            requests.append(Request(f"req{i:03d}", path, adv[idx].shape, labels, correct))
        for kind, blob in _malformed_files().items():
            path = wd / f"{kind}.lten"
            path.write_bytes(blob)
            requests.append(Request(kind, str(path), ()))
        self.requests = [requests[i] for i in rng.permutation(len(requests))]
        self.digests: dict[str, str] = {}
        self.images = 0
        self.correct_purified = 0
        self.correct_adversarial = 0
        self.stream_s = 0.0

    def round(self) -> None:
        for req in self.requests:
            self._request(req)

    def _request(self, req: Request) -> None:
        self._op(req.name)
        out = self.workdir / f"{req.name}.out.lten"
        out.unlink(missing_ok=True)
        argv = ["purify", "--input", req.path, "--denoiser", self.denoiser,
                "--config", self.config, "--basis", self.basis, "--out", str(out)]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # an escaping exception is a failed request
                code = None
                err.write(f"{type(exc).__name__}: {exc}\n")
            elapsed = time.perf_counter() - start
        self.stream_s += elapsed
        if req.labels is None:
            if check_refused(code, err.getvalue(), out.exists()):
                self._fail(req.name)
            return
        if code != 0:
            self._fail(f"well-formed request exit {code}")
            return
        self.latencies.append(elapsed)
        blob = out.read_bytes() if out.exists() else None
        problems = check_purified(blob, req.shape)
        if problems:
            self._problem(req.name, problems)
            return
        digest = hashlib.sha256(blob).hexdigest()
        if self.digests.setdefault(req.name, digest) != digest:
            self._problem(req.name, ["rerun with the same seed gave different bytes"])
        k = req.labels.size
        purified = lten_array(blob).reshape(k, -1)
        self.images += k
        self.correct_purified += int(np.sum(self.clf.predict(purified) == req.labels))
        self.correct_adversarial += req.adversarial_correct

    def finish(self) -> None:
        self._problem("run", check_purify_helps(
            self.correct_purified, self.correct_adversarial, self.images))
        lat = np.sort(self.latencies)
        self.figures = {
            "purify_images_per_s": self.images / self.stream_s,
            "purify_latency_p95_ms": 1e3 * float(np.percentile(lat, 95)),
            "accuracy_purified": self.correct_purified / self.images,
            "accuracy_adversarial": self.correct_adversarial / self.images,
        }


# ---------------------------------------------------------------------------
# defense-eval
# ---------------------------------------------------------------------------


class DefenseEval(Workload):
    """Criterion 8's path: calibrate over a (t, L) grid, then the defense
    ladder at the calibrated point, every purify call on 200 images."""

    # An ancestral purify costs one denoiser call per step, so the attack-eval
    # at the picked point costs in proportion to its t.  Depths close together
    # keep that cost nearly the same whichever point a seed's calibration picks.
    t_grid = (150, 160)
    l_grid = (2, 4)
    trials = 3

    def setup(self) -> None:
        self.cfg = io_formats.default_config(**STRIPED, seed=self.seed)
        self.art = cli.toy_task_artifacts(self.cfg)
        self.calibrate_s: list[float] = []
        self.attack_eval_s: list[float] = []

    def round(self) -> None:
        budget = cli.toy_budget()
        self._op("calibrate")
        start = time.perf_counter()
        rows, pick = cli.run_calibration(self.cfg, list(self.t_grid), list(self.l_grid),
                                         budget, trials=self.trials, artifacts=self.art)
        mid = time.perf_counter()
        self._op("attack-eval")
        table = cli.run_attack_eval(replace(self.cfg, t=pick[0], L=pick[1]), budget,
                                    trials=self.trials, artifacts=self.art)
        end = time.perf_counter()
        self.calibrate_s.append(mid - start)
        self.attack_eval_s.append(end - mid)
        self.latencies.append(end - start)
        self._problem("calibrate", check_calibration(rows, pick, self.t_grid, self.l_grid))
        self._problem("attack-eval", check_ladder(table))
        self.figures = {f"ladder_{k}": v for k, v in table.items()}
        self.figures.update(lorid_minus_tf_only=table["lorid"] - table["tf_only"],
                            pick_t=pick[0], pick_L=pick[1])

    def finish(self) -> None:
        self.figures.update(calibrate_s=float(np.median(self.calibrate_s)),
                            attack_eval_s=float(np.median(self.attack_eval_s)))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


CIFAR_PATCH = 8
CIFAR_RANKS = (2, 2, 3, 2)  # per tensor mode of a 32x32x3 image in 8x8 patches
CIFAR_SCALES = ((1.0, 0.6), (1.0, 0.6), (1.0, 0.75, 0.55), (1.0, 0.6))
CIFAR_NOISE = 0.002


def cifar_like(n: int, seed: int) -> np.ndarray:
    """N x 32 x 32 x 3 images: a Tucker-rank (2, 2, 3, 2) signal in the 8x8
    patch tensor plus small white noise, so each mode's 0.95-energy rank sits
    at a clear singular gap."""
    rng = np.random.default_rng([seed, 2])
    dims = (4, 4, 64, 3)
    factors = [np.linalg.qr(rng.standard_normal((d, r)))[0] for d, r in zip(dims, CIFAR_RANKS)]
    scale = np.einsum("a,b,c,d->abcd", *(np.array(s) for s in CIFAR_SCALES))
    core = rng.standard_normal((n, *CIFAR_RANKS)) * scale
    tens = np.einsum("nabcd,ia,jb,kc,ld->nijkl", core, *factors, optimize=True)
    tens += CIFAR_NOISE * rng.standard_normal(tens.shape)
    p = CIFAR_PATCH
    images = tens.reshape(n, 4, 4, p, p, 3).transpose(0, 1, 3, 2, 4, 5)
    return images.reshape(n, 32, 32, 3)


class Verify(Workload):
    """The six ``lorid verify`` checks, then a basis fit on CIFAR-shaped data
    read from a tensor file, as ``lorid purify --fit-basis-from`` reads it."""

    theorems = ("1", "2", "3", "4", "5", "cor1")
    fit_images = 64
    eta = 0.95

    def setup(self) -> None:
        self.config = str(self.workdir / "verify.cfg")
        Path(self.config).write_text(
            io_formats.format_config(io_formats.default_config(seed=self.seed)))
        self.data = str(self.workdir / "cifar.lten")
        io_formats.write_tensor(self.data, cifar_like(self.fit_images, self.seed))
        self.layout = tucker.TensorizationLayout(32, 32, 3, CIFAR_PATCH)
        self.verify_s: list[float] = []
        self.fit_s: list[float] = []

    def round(self) -> None:
        start = time.perf_counter()
        for theorem in self.theorems:
            argv = ["verify", "--theorem", theorem, "--config", self.config]
            if theorem == "4":
                argv += ["--effective-t", "400"]  # the default depth of 600 exits 1 by design
            self._op(f"verify-{theorem}")
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                self._fail(f"verify --theorem {theorem} exit {code}")
        mid = time.perf_counter()
        self._op("fit-basis")
        images = io_formats.read_tensor(self.data)
        basis = tucker.fit_basis(images, self.layout, self.eta)
        end = time.perf_counter()
        self.verify_s.append(mid - start)
        self.fit_s.append(end - mid)
        self.latencies.append(end - start)
        self._problem("fit-basis", check_basis(
            images, CIFAR_PATCH, self.eta, basis.factors, basis.ranks,
            basis.discarded_energy, lambda x: tucker.tf_apply(x, basis)))

    def finish(self) -> None:
        self.figures = {"verify_s": float(np.median(self.verify_s)),
                        "basis_fit_s": float(np.median(self.fit_s))}


WORKLOADS = {"online-purify": OnlinePurify, "defense-eval": DefenseEval, "verify": Verify}
