"""Patch tensorization, truncated HOSVD, and the low-rank projection operator."""

import warnings

import numpy as np
import pytest

from lorid.tensorops import frobenius_norm
from lorid.tucker import (
    TensorizationLayout,
    TuckerBasis,
    detensorize,
    fit_basis,
    tensorize,
    tf_apply,
    truncated_hosvd,
    tucker_error_terms,
)
from lorid.io_formats import gen_striped_images

LAYOUT_16 = TensorizationLayout(height=16, width=16, channels=1, patch=4)


class TestLayout:
    def test_shapes(self):
        lay = TensorizationLayout(height=8, width=12, channels=3, patch=2)
        assert lay.image_shape == (8, 12, 3)
        assert lay.tensor_shape == (4, 6, 4, 3)

    def test_patch_must_divide(self):
        with pytest.raises(ValueError):
            TensorizationLayout(height=10, width=16, channels=1, patch=4)
        with pytest.raises(ValueError):
            TensorizationLayout(height=16, width=9, channels=1, patch=2)

    def test_positive_dims(self):
        with pytest.raises(ValueError):
            TensorizationLayout(height=0, width=4, channels=1, patch=1)


class TestTensorize:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(201)
        img = rng.standard_normal((16, 16, 1))
        np.testing.assert_array_equal(detensorize(tensorize(img, LAYOUT_16), LAYOUT_16), img)

    def test_round_trip_with_batch_axes(self):
        rng = np.random.default_rng(202)
        batch = rng.standard_normal((5, 3, 16, 16, 1))
        tens = tensorize(batch, LAYOUT_16)
        assert tens.shape == (5, 3, 4, 4, 16, 1)
        np.testing.assert_array_equal(detensorize(tens, LAYOUT_16), batch)

    def test_entry_mapping(self):
        """Pixel (i*p + a, j*p + b, c) lands at tensor[i, j, a*p + b, c]."""
        lay = TensorizationLayout(height=4, width=6, channels=2, patch=2)
        img = np.arange(4 * 6 * 2, dtype=np.float64).reshape(4, 6, 2)
        tens = tensorize(img, lay)
        p = lay.patch
        for i in range(2):
            for j in range(3):
                for a in range(p):
                    for b in range(p):
                        for c in range(2):
                            assert tens[i, j, a * p + b, c] == img[i * p + a, j * p + b, c]

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            tensorize(np.zeros((8, 8, 1)), LAYOUT_16)
        with pytest.raises(ValueError):
            detensorize(np.zeros((2, 2, 16, 1)), LAYOUT_16)


class TestTruncatedHosvd:
    def test_full_energy_reconstructs(self):
        """eta = 1.0 keeps every direction; reconstruction error < 1e-10."""
        rng = np.random.default_rng(210)
        x = rng.standard_normal((5, 6, 7))
        x_hat, factors, discarded = truncated_hosvd(x, 1.0)
        np.testing.assert_allclose(x_hat, x, rtol=0, atol=1e-10)
        assert all(d < 1e-18 for d in discarded)
        for u, dim in zip(factors, x.shape):
            assert u.shape == (dim, dim)

    def test_discarded_energy_bounds_error(self):
        """|| x - x_hat ||^2 <= sum of discarded squared singular values."""
        rng = np.random.default_rng(211)
        for trial in range(25):
            shape = tuple(rng.integers(2, 7, size=3))
            x = rng.standard_normal(shape)
            eta = float(rng.uniform(0.3, 0.99))
            x_hat, _, discarded = truncated_hosvd(x, eta)
            err_sq = frobenius_norm(x - x_hat) ** 2
            assert err_sq <= sum(discarded) + 1e-10

    def test_explicit_ranks(self):
        rng = np.random.default_rng(212)
        x = rng.standard_normal((6, 5, 4))
        x_hat, factors, _ = truncated_hosvd(x, [2, 3, 4])
        assert [u.shape[1] for u in factors] == [2, 3, 4]
        # projecting again onto the same factors changes nothing
        x_hat2, _, _ = truncated_hosvd(x_hat, [2, 3, 4])
        np.testing.assert_allclose(x_hat2, x_hat, rtol=0, atol=1e-10)

    def test_modes_subset(self):
        """Only the listed modes are decomposed; the rest are untouched."""
        rng = np.random.default_rng(213)
        x = rng.standard_normal((3, 8, 8))
        x_hat, factors, _ = truncated_hosvd(x, 1.0, modes=[1, 2])
        assert len(factors) == 2
        np.testing.assert_allclose(x_hat, x, rtol=0, atol=1e-10)

    def test_low_rank_tensor_recovered_exactly(self):
        """A rank-(2,2,2) tensor is reproduced exactly at those ranks."""
        rng = np.random.default_rng(214)
        core = rng.standard_normal((2, 2, 2))
        a = np.linalg.qr(rng.standard_normal((7, 2)))[0]
        b = np.linalg.qr(rng.standard_normal((6, 2)))[0]
        c = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        x = np.einsum("abc,ia,jb,kc->ijk", core, a, b, c)
        x_hat, _, discarded = truncated_hosvd(x, [2, 2, 2])
        np.testing.assert_allclose(x_hat, x, rtol=0, atol=1e-12)
        assert all(d < 1e-20 for d in discarded)

    def test_eta_out_of_range_raises(self):
        with pytest.raises(ValueError):
            truncated_hosvd(np.zeros((2, 2)), 0.0)
        with pytest.raises(ValueError):
            truncated_hosvd(np.zeros((2, 2)), 1.5)

    def test_rank_beyond_mode_raises(self):
        with pytest.raises(ValueError):
            truncated_hosvd(np.zeros((3, 3)), [4, 1])

    def test_rank_beyond_resolvable_raises(self):
        """A (8, 2) unfolding only resolves 2 directions; rank 5 is an error."""
        rng = np.random.default_rng(215)
        x = rng.standard_normal((8, 2))
        with pytest.raises(ValueError):
            truncated_hosvd(x, [5, 1], modes=[0, 1])


class TestFitBasis:
    def test_striped_dataset_energy_ranks(self):
        """Stripes concentrate: eta = 0.95 collapses to ranks (1, 1, 2, 1)."""
        images, _ = gen_striped_images(256, seed=7)
        basis = fit_basis(images, LAYOUT_16, rank_policy=0.95)
        assert basis.ranks == (1, 1, 2, 1)
        for u, r in zip(basis.factors, basis.ranks):
            np.testing.assert_allclose(u.T @ u, np.eye(r), rtol=0, atol=1e-10)

    def test_explicit_rank_policy(self):
        images, _ = gen_striped_images(64, seed=8)
        basis = fit_basis(images, LAYOUT_16, rank_policy=(2, 2, 8, 1))
        assert basis.ranks == (2, 2, 8, 1)
        assert sum(basis.discarded_energy) > 0.0

    def test_dataset_shape_validation(self):
        with pytest.raises(ValueError):
            fit_basis(np.zeros((16, 16, 1)), LAYOUT_16)
        with pytest.raises(ValueError):
            fit_basis(np.zeros((4, 8, 8, 1)), LAYOUT_16)

    def test_basis_validation(self):
        """Non-orthonormal or non-finite factors, and energies that are negative
        or NaN, are rejected at construction, without a numpy warning."""
        images, _ = gen_striped_images(32, seed=9)
        good = fit_basis(images, LAYOUT_16, rank_policy=(1, 1, 2, 1))
        first = good.factors[0]
        cases = [
            (tuple(2.0 * u for u in good.factors), good.discarded_energy),
            ((np.where(first == first.flat[0], np.nan, first), *good.factors[1:]),
             good.discarded_energy),
            ((np.where(first == first.flat[0], 1e308, first), *good.factors[1:]),
             good.discarded_energy),
            (good.factors, (-1.0, *good.discarded_energy[1:])),
            (good.factors, (np.nan, *good.discarded_energy[1:])),
        ]
        for factors, energy in cases:
            with warnings.catch_warnings(), pytest.raises(ValueError):
                warnings.simplefilter("error")
                TuckerBasis(
                    factors=factors,
                    ranks=good.ranks,
                    layout=good.layout,
                    discarded_energy=energy,
                )


@pytest.fixture(scope="module")
def basis():
    images, _ = gen_striped_images(128, seed=11)
    return fit_basis(images, LAYOUT_16, rank_policy=(2, 2, 8, 1))


class TestTfApply:
    def test_idempotent(self, basis):
        rng = np.random.default_rng(220)
        x = rng.standard_normal((16, 16, 1))
        once = tf_apply(x, basis)
        twice = tf_apply(once, basis)
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-12)

    def test_linear(self, basis):
        rng = np.random.default_rng(221)
        x = rng.standard_normal((16, 16, 1))
        y = rng.standard_normal((16, 16, 1))
        lhs = tf_apply(2.5 * x - 0.5 * y, basis)
        rhs = 2.5 * tf_apply(x, basis) - 0.5 * tf_apply(y, basis)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_batch_matches_per_sample(self, basis):
        rng = np.random.default_rng(222)
        batch = rng.standard_normal((6, 16, 16, 1))
        out = tf_apply(batch, basis)
        for i in range(6):
            np.testing.assert_allclose(out[i], tf_apply(batch[i], basis), rtol=0, atol=1e-13)

    def test_projection_never_grows_norm(self, basis):
        rng = np.random.default_rng(223)
        for _ in range(10):
            x = rng.standard_normal((16, 16, 1))
            assert frobenius_norm(tf_apply(x, basis)) <= frobenius_norm(x) + 1e-12

    def test_misaligned_component_annihilated(self, basis):
        """The projection kills delta - TF(delta) exactly."""
        rng = np.random.default_rng(224)
        delta = rng.standard_normal((16, 16, 1))
        mis = delta - tf_apply(delta, basis)
        assert frobenius_norm(tf_apply(mis, basis)) < 1e-10 * frobenius_norm(delta)

    def test_in_subspace_perturbation_of_training_image_survives(self, basis):
        """TF(x + TF(eps)) = TF(x) + TF(eps): the retained part passes through."""
        rng = np.random.default_rng(225)
        eps = rng.standard_normal((16, 16, 1))
        x = rng.standard_normal((16, 16, 1))
        lhs = tf_apply(x + tf_apply(eps, basis), basis)
        rhs = tf_apply(x, basis) + tf_apply(eps, basis)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_shape_mismatch_raises(self, basis):
        with pytest.raises(ValueError):
            tf_apply(np.zeros((8, 8, 1)), basis)


class TestErrorTerms:
    def test_terms_match_direct_norms(self):
        images, _ = gen_striped_images(64, seed=13)
        basis = fit_basis(images, LAYOUT_16, rank_policy=(1, 1, 2, 1))
        rng = np.random.default_rng(230)
        x = images[0]
        eps = 0.1 * rng.standard_normal(x.shape)
        e_tucker, residual = tucker_error_terms(x, eps, basis)
        np.testing.assert_allclose(e_tucker, frobenius_norm(x - tf_apply(x, basis)), rtol=1e-12)
        np.testing.assert_allclose(residual, frobenius_norm(tf_apply(eps, basis)), rtol=1e-12)

    def test_triangle_bound(self):
        """|| x - TF(x + eps) || <= e_tucker + residual for random perturbations."""
        images, _ = gen_striped_images(64, seed=14)
        basis = fit_basis(images, LAYOUT_16, rank_policy=(1, 1, 2, 1))
        rng = np.random.default_rng(231)
        for _ in range(10):
            x = images[int(rng.integers(len(images)))]
            eps = 0.3 * rng.standard_normal(x.shape)
            e_tucker, residual = tucker_error_terms(x, eps, basis)
            err = frobenius_norm(x - tf_apply(x + eps, basis))
            assert err <= e_tucker + residual + 1e-12

    def test_shape_mismatch_raises(self):
        images, _ = gen_striped_images(32, seed=15)
        basis = fit_basis(images, LAYOUT_16)
        with pytest.raises(ValueError):
            tucker_error_terms(images[0], np.zeros((8, 8, 1)), basis)
