"""Unfold/fold round trips, mode products, and the checked SVD wrapper."""

import math

import numpy as np
import pytest

from lorid.tensorops import (
    fold,
    frobenius_norm,
    mode_product,
    svd,
    unfold,
)


class TestUnfoldFold:
    def test_round_trip_exact(self):
        """fold(unfold(x, m), m, x.shape) is bit-identical for every mode."""
        rng = np.random.default_rng(101)
        for shape in [(3,), (4, 5), (2, 3, 4), (3, 2, 4, 2), (2, 2, 2, 2, 3)]:
            x = rng.standard_normal(shape)
            for mode in range(len(shape)):
                back = fold(unfold(x, mode), mode, shape)
                np.testing.assert_array_equal(back, x)

    def test_rows_are_mode_fibers(self):
        """Row i of unfold(x, mode) holds every entry with that mode index == i."""
        rng = np.random.default_rng(102)
        x = rng.standard_normal((3, 4, 5))
        m1 = unfold(x, 1)
        assert m1.shape == (4, 15)
        for i in range(4):
            np.testing.assert_array_equal(np.sort(m1[i]), np.sort(x[:, i, :].ravel()))

    def test_unfold_mode_zero_is_plain_reshape(self):
        rng = np.random.default_rng(103)
        x = rng.standard_normal((4, 3, 2))
        np.testing.assert_array_equal(unfold(x, 0), x.reshape(4, 6))

    def test_bad_mode_raises(self):
        x = np.zeros((2, 3))
        with pytest.raises(ValueError):
            unfold(x, 2)
        with pytest.raises(ValueError):
            unfold(x, -1)
        with pytest.raises(ValueError):
            fold(np.zeros((2, 3)), 5, (2, 3))

    def test_fold_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            fold(np.zeros((2, 4)), 0, (2, 3))


class TestModeProduct:
    def test_matches_unfold_route(self):
        """mode_product agrees with multiplying the matricization and folding back."""
        rng = np.random.default_rng(110)
        x = rng.standard_normal((3, 4, 5))
        for mode, rows in [(0, 2), (1, 6), (2, 5)]:
            u = rng.standard_normal((rows, x.shape[mode]))
            direct = mode_product(x, u, mode)
            shape = list(x.shape)
            shape[mode] = rows
            via_unfold = fold(u @ unfold(x, mode), mode, shape)
            np.testing.assert_allclose(direct, via_unfold, rtol=0, atol=1e-13)

    def test_identity_is_noop(self):
        rng = np.random.default_rng(111)
        x = rng.standard_normal((2, 5, 3))
        for mode in range(3):
            out = mode_product(x, np.eye(x.shape[mode]), mode)
            np.testing.assert_allclose(out, x, rtol=0, atol=1e-15)

    def test_distinct_modes_commute(self):
        """Products along different modes can be applied in either order."""
        rng = np.random.default_rng(112)
        x = rng.standard_normal((3, 4, 5))
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((6, 5))
        ab = mode_product(mode_product(x, a, 0), b, 2)
        ba = mode_product(mode_product(x, b, 2), a, 0)
        np.testing.assert_allclose(ab, ba, rtol=1e-13, atol=1e-13)

    def test_dimension_mismatch_raises(self):
        x = np.zeros((3, 4))
        with pytest.raises(ValueError):
            mode_product(x, np.zeros((2, 5)), 0)


class TestSvd:
    """The checked LAPACK SVD wrapper: its factors, shapes and input checks."""

    def _check_factorization(self, a, res, atol=1e-12):
        k = min(a.shape)
        assert res.u.shape == (a.shape[0], k)
        assert res.s.shape == (k,)
        assert res.vt.shape == (k, a.shape[1])
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(k), rtol=0, atol=atol)
        np.testing.assert_allclose(res.vt @ res.vt.T, np.eye(k), rtol=0, atol=atol)
        recon = res.u @ np.diag(res.s) @ res.vt
        scale = max(1.0, frobenius_norm(a))
        np.testing.assert_allclose(recon, a, rtol=0, atol=atol * scale)
        assert np.all(np.diff(res.s) <= 1e-14 * max(res.s[0], 1.0))

    def test_singular_values_match_lapack(self):
        rng = np.random.default_rng(120)
        for shape in [(6, 6), (8, 3), (3, 8), (5, 4), (1, 7), (7, 1)]:
            a = rng.standard_normal(shape)
            res = svd(a)
            ref = np.linalg.svd(a, compute_uv=False)
            np.testing.assert_allclose(res.s, ref, rtol=1e-10, atol=1e-12)
            self._check_factorization(a, res)

    def test_rank_deficient_gets_orthonormal_filler(self):
        """Zero singular directions still produce orthonormal factors."""
        rng = np.random.default_rng(121)
        base = rng.standard_normal((6, 2))
        a = np.concatenate([base, base @ rng.standard_normal((2, 2))], axis=1)  # rank 2
        res = svd(a)
        assert np.sum(res.s > 1e-10) == 2
        self._check_factorization(a, res, atol=1e-11)

    def test_exact_zero_matrix(self):
        res = svd(np.zeros((4, 3)))
        np.testing.assert_array_equal(res.s, np.zeros(3))
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(3), rtol=0, atol=1e-14)

    def test_diagonal_matrix_recovers_entries(self):
        d = np.diag([5.0, 3.0, 1.0, 0.5])
        res = svd(d)
        np.testing.assert_allclose(res.s, [5.0, 3.0, 1.0, 0.5], rtol=1e-14)

    def test_badly_scaled_matrix(self):
        """Ten orders of magnitude of spread stay accurate to formation noise.

        Forming u @ diag(s) @ v.T already perturbs the smallest singular value
        at absolute level ~s_max * eps, so 1e-6 relative is the attainable bar
        for both routes; LAPACK lands at the same distance from nominal.
        """
        rng = np.random.default_rng(122)
        u, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        v, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        s = np.array([1e4, 1e2, 1.0, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
        a = u @ np.diag(s) @ v.T
        res = svd(a)
        np.testing.assert_allclose(res.s, s, rtol=1e-6)
        np.testing.assert_allclose(res.s, np.linalg.svd(a, compute_uv=False), rtol=1e-6)

    def test_non_finite_raises(self):
        with pytest.raises(ValueError):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            svd(np.array([[np.inf, 0.0]]))

    def test_vector_input_raises(self):
        with pytest.raises(ValueError):
            svd(np.arange(3.0))


class TestNorms:
    def test_frobenius_norm_past_the_square_root_of_the_largest_float(self):
        """Entries whose squares overflow still give the representable norm, with
        no warning; a norm past the largest float is inf."""
        with np.errstate(all="raise"):
            np.testing.assert_allclose(frobenius_norm(np.full((8, 256), 1e200)),
                                       1e200 * math.sqrt(2048), rtol=1e-14)
            assert frobenius_norm(np.full(4, 1e308)) == math.inf
            np.testing.assert_allclose(frobenius_norm(np.array([3e200, -4e200])), 5e200,
                                       rtol=1e-15)

    def test_frobenius_matches_numpy(self):
        rng = np.random.default_rng(130)
        for shape in [(4,), (3, 5), (2, 3, 4)]:
            x = rng.standard_normal(shape)
            np.testing.assert_allclose(frobenius_norm(x), np.linalg.norm(x.ravel()), rtol=1e-15)
