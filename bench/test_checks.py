"""The benchmark's own tests: every output check catches a wrong answer.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import (  # noqa: E402
    calibration_pick,
    check_basis,
    check_calibration,
    check_ladder,
    check_purified,
    check_purify_helps,
    check_refused,
    lten_array,
    lten_bytes,
)
from lorid import tucker  # noqa: E402
from workloads import CIFAR_PATCH, cifar_like  # noqa: E402

ROWS = [(120, 2, 0.99, 0.50), (120, 4, 0.97, 0.62), (160, 2, 0.95, 0.62), (160, 4, 0.90, 0.80)]


def test_lten_round_trip_and_refusal():
    x = np.arange(24.0).reshape(2, 3, 4)
    assert np.array_equal(lten_array(lten_bytes(x)), x)
    for cut in (8, len(lten_bytes(x)) - 12):
        with pytest.raises(ValueError):
            lten_array(lten_bytes(x)[:-cut])


def test_purified_output_must_be_finite_and_keep_the_shape():
    x = np.zeros((3, 16, 16, 1))
    assert check_purified(lten_bytes(x), x.shape) == []
    assert check_purified(None, x.shape)
    assert check_purified(lten_bytes(x[:2]), x.shape)
    x[0, 0, 0, 0] = np.nan
    assert check_purified(lten_bytes(x), x.shape)


def test_purified_output_equal_to_its_adversarial_input_is_caught():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, size=50)
    predict = lambda x: (x.sum(axis=1) > 0).astype(int)  # noqa: E731
    clean = np.where(labels[:, None] == 1, 1.0, -1.0) * np.ones((50, 4))
    adversarial = -clean
    correct = lambda x: int(np.sum(predict(x) == labels))  # noqa: E731
    assert check_purify_helps(correct(clean), correct(adversarial), 50) == []
    assert check_purify_helps(correct(adversarial), correct(adversarial), 50)


def test_wrong_calibration_pick_is_caught():
    # (160, 4) has the best robust accuracy but clean 0.90 < 0.99 - 0.03; of the
    # rest, (120, 4) and (160, 2) tie on robust and the smaller t wins.
    assert calibration_pick(ROWS) == (120, 4)
    grid = ((120, 160), (2, 4))
    assert check_calibration(ROWS, (120, 4), *grid) == []
    assert check_calibration(ROWS, (160, 2), *grid)
    assert check_calibration(ROWS, (160, 4), *grid)
    assert check_calibration(ROWS[:3], (120, 4), *grid)


def test_ladder_checks():
    good = {"standard": 0.99, "attacked": 0.05, "tf_only": 0.40, "single": 0.5,
            "loop_only": 0.6, "lorid": 0.70}
    assert check_ladder(good) == []
    for wrong in ({"attacked": 0.80, "tf_only": 0.8, "lorid": 0.9}, {"lorid": 0.04},
                  {"tf_only": 0.01}, {"single": 1.5}):
        assert check_ladder({**good, **wrong})


@pytest.fixture(scope="module")
def fitted():
    images = cifar_like(8, seed=0)
    layout = tucker.TensorizationLayout(32, 32, 3, CIFAR_PATCH)
    return images, tucker.fit_basis(images, layout, 0.95)


def _check(images, basis, factors=None, ranks=None):
    factors = basis.factors if factors is None else factors
    return check_basis(images, CIFAR_PATCH, 0.95, factors, ranks or basis.ranks,
                       basis.discarded_energy, lambda x: tucker.tf_apply(x, basis))


def test_fitted_basis_passes(fitted):
    images, basis = fitted
    assert basis.ranks == (2, 2, 3, 2)
    assert _check(images, basis) == []


def test_basis_factor_rotated_out_of_the_svd_subspace_is_caught(fitted):
    images, basis = fitted
    u = basis.factors[2]
    other = np.linalg.qr(np.hstack([u, np.eye(u.shape[0])]))[0][:, u.shape[1]]
    rotated = u.copy()
    rotated[:, 0] = np.cos(0.1) * u[:, 0] + np.sin(0.1) * other
    factors = list(basis.factors)
    factors[2] = rotated
    assert np.allclose(rotated.T @ rotated, np.eye(u.shape[1]))
    assert any("mode 3" in p for p in _check(images, basis, factors=factors))


def test_wrong_rank_and_bad_projection_are_caught(fitted):
    images, basis = fitted
    assert _check(images, basis, ranks=(2, 2, 4, 2))
    assert check_basis(images, CIFAR_PATCH, 0.95, basis.factors, basis.ranks,
                       basis.discarded_energy, lambda x: 0.5 * x)


def test_malformed_request_that_exits_0_is_caught():
    assert check_refused(2, "error: truncated file\n", False) == []
    assert check_refused(0, "", True)
    assert check_refused(0, "", False)
    assert check_refused(2, "Traceback\n  line\nMemoryError\n", False)
    assert check_refused(2, "error: bad magic\n", True)
