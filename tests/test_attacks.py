"""The toy classifier, gradient attacks, and the defense-ladder evaluation."""

import pickle

import numpy as np
import pytest

from lorid import _nn
from lorid.attacks import (
    TABLE_KEYS,
    AttackBudget,
    ClassifierTrainConfig,
    ToyClassifier,
    classifier_grad_check,
    evaluate,
    format_accuracy_table,
    pgd,
    purified_accuracy,
    train_classifier,
)
from lorid.diffusion import GaussianOracleDenoiser, make_linear_schedule
from lorid.purify import LoridConfig
from lorid.io_formats import gen_two_gaussian_classes


@pytest.fixture(scope="module")
def blob_data():
    return gen_two_gaussian_classes(240, seed=31)


@pytest.fixture(scope="module")
def blob_clf(blob_data):
    x, y = blob_data
    cfg = ClassifierTrainConfig(hidden=(8,), lr=0.1, epochs=60, batch_size=32)
    return train_classifier(x, y, cfg, np.random.default_rng(32))


class TestToyClassifier:
    def test_training_separates_blobs(self, blob_data, blob_clf):
        """Training accuracy approaches the Bayes rate Phi(1.5) ~ 0.93 for these blobs."""
        x, y = blob_data
        assert blob_clf.accuracy(x, y) >= 0.90

    def test_predict_consistent_with_logits(self, blob_data, blob_clf):
        x, _ = blob_data
        np.testing.assert_array_equal(
            blob_clf.predict(x[:20]), np.argmax(blob_clf.logits(x[:20]), axis=-1)
        )

    def test_input_grad_matches_finite_differences(self, blob_data, blob_clf):
        """Per-sample loss gradient wrt the input checks out against central FD."""
        x, y = blob_data
        xi = x[:3].copy()
        yi = y[:3]
        grad = blob_clf.input_grad(xi, yi)

        def loss_of(x_probe):
            z = blob_clf.logits(x_probe)
            p = np.exp(z - z.max(axis=-1, keepdims=True))
            p /= p.sum(axis=-1, keepdims=True)
            return -np.log(p[np.arange(yi.size), yi])

        h = 1e-6
        for i in range(3):
            for j in range(2):
                bump = xi.copy()
                bump[i, j] += h
                dent = xi.copy()
                dent[i, j] -= h
                fd = (loss_of(bump)[i] - loss_of(dent)[i]) / (2 * h)
                np.testing.assert_allclose(grad[i, j], fd, rtol=1e-5, atol=1e-8)

    def test_parameter_grad_check(self, blob_data, blob_clf):
        x, y = blob_data
        err = classifier_grad_check(blob_clf, x[:32], y[:32], np.random.default_rng(33))
        assert err < 1e-5

    def test_construction_validation(self, blob_clf):
        """A one-output last layer is not a classifier."""
        (w0, b0), (w1, b1) = blob_clf.params
        with pytest.raises(ValueError, match="at least 2 classes"):
            ToyClassifier(params=[(w0, b0), (w1[:, :1], b1[:1])])

    def test_sizes_are_read_off_the_arrays(self, blob_clf):
        assert (blob_clf.input_dim, blob_clf.n_classes) == (2, 2)
        clf = ToyClassifier(_nn.init_params([5, 4, 3], np.random.default_rng(36)))
        assert (clf.input_dim, clf.n_classes) == (5, 3)
        (w0, b0), (w1, b1) = clf.params
        with pytest.raises(ValueError, match="layer 1"):
            ToyClassifier([(w0, b0), (w1[1:], b1)])

    def test_sizes_survive_a_pickle(self, blob_clf):
        """The classifier comes back from a forked child pickled."""
        back = pickle.loads(pickle.dumps(blob_clf, pickle.HIGHEST_PROTOCOL))
        assert (back.input_dim, back.n_classes) == (blob_clf.input_dim, blob_clf.n_classes)

    def test_accuracy_refuses_a_label_count_other_than_the_sample_count(
            self, blob_data, blob_clf):
        """One label is not broadcast over ten samples, nor a short list read
        as far as it goes."""
        x, y = blob_data
        for labels in (y[:1], y[:9], y[:11]):
            with pytest.raises(ValueError, match=f"10 samples but {labels.size} labels"):
                blob_clf.accuracy(x[:10], labels)
        with pytest.raises(ValueError, match="not a whole number of 2-value samples"):
            blob_clf.accuracy(x[:3].reshape(-1)[:5], y[:2])
        assert blob_clf.accuracy(x[0], y[0]) == float(blob_clf.predict(x[0])[0] == y[0])

    # Labels for five samples of a two-class classifier that break the label
    # rule: a count other than the sample count, a non-integer, a negative
    # class (which indexing would wrap to the last class) and a class past the last.
    BAD_LABELS = [([0, 1, 0], "5 samples but 3 labels"),
                  ([0, 1, 0.5, 1, 0], r"finite integers in \[0, 2\)"),
                  ([0, 1, -1, 1, 0], r"finite integers in \[0, 2\)"),
                  ([0, 1, 2, 1, 0], r"finite integers in \[0, 2\)")]

    @pytest.mark.parametrize("labels, message", BAD_LABELS,
                             ids=["count", "half", "negative", "n_classes"])
    def test_label_rule_refuses(self, blob_data, blob_clf, labels, message):
        """accuracy, input_grad and pgd each refuse, pgd before its generator moves."""
        x = blob_data[0][:5]
        with pytest.raises(ValueError, match=message):
            blob_clf.accuracy(x, labels)
        with pytest.raises(ValueError, match=message):
            blob_clf.input_grad(x, labels)
        rng = np.random.default_rng(35)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            pgd(blob_clf, x, labels, AttackBudget(norm="linf", epsilon=0.1, steps=2), rng)
        assert rng.bit_generator.state == state

    def test_training_label_validation(self):
        x = np.zeros((10, 2))
        cfg = ClassifierTrainConfig(hidden=(4,), epochs=1)
        with pytest.raises(ValueError, match="at least 2 classes"):
            train_classifier(x, np.zeros(10, dtype=int), cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="0..K-1"):
            train_classifier(x, np.array([0, 2] * 5), cfg, np.random.default_rng(0))

    def test_training_deterministic(self, blob_data):
        x, y = blob_data
        cfg = ClassifierTrainConfig(hidden=(6,), epochs=10)
        a = train_classifier(x, y, cfg, np.random.default_rng(34))
        b = train_classifier(x, y, cfg, np.random.default_rng(34))
        for (w1, _), (w2, _) in zip(a.params, b.params):
            np.testing.assert_array_equal(w1, w2)


class TestAttackBudget:
    def test_effective_step_rules(self):
        assert AttackBudget(norm="linf", epsilon=0.3, steps=1).effective_step == 0.3
        np.testing.assert_allclose(
            AttackBudget(norm="linf", epsilon=0.3, steps=10).effective_step, 0.075
        )
        assert AttackBudget(norm="l2", epsilon=1.0, steps=5, step_size=0.01).effective_step == 0.01

    def test_zero_epsilon_allowed(self):
        budget = AttackBudget(norm="linf", epsilon=0.0)
        assert budget.epsilon == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AttackBudget(norm="l1", epsilon=0.1)
        with pytest.raises(ValueError):
            AttackBudget(norm="linf", epsilon=-0.1)
        with pytest.raises(ValueError):
            AttackBudget(norm="linf", epsilon=0.1, steps=0)
        with pytest.raises(ValueError):
            AttackBudget(norm="linf", epsilon=0.1, step_size=0.0)
        with pytest.raises(ValueError):
            AttackBudget(norm="linf", epsilon=0.1, clip=(1.0, -1.0))
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                AttackBudget(norm="linf", epsilon=bad)
            with pytest.raises(ValueError):
                AttackBudget(norm="linf", epsilon=0.1, step_size=bad)


class TestPgd:
    def test_stays_in_linf_ball(self, blob_data, blob_clf):
        x, y = blob_data
        budget = AttackBudget(norm="linf", epsilon=0.2, steps=8)
        out = pgd(blob_clf, x, y, budget, np.random.default_rng(40))
        assert np.max(np.abs(out - x)) <= 0.2 + 1e-12

    def test_stays_in_l2_ball(self, blob_data, blob_clf):
        x, y = blob_data
        budget = AttackBudget(norm="l2", epsilon=0.7, steps=8)
        out = pgd(blob_clf, x, y, budget, np.random.default_rng(41))
        norms = np.linalg.norm(out - x, axis=-1)
        assert np.max(norms) <= 0.7 + 1e-10

    def test_zero_epsilon_is_identity(self, blob_data, blob_clf):
        x, y = blob_data
        out = pgd(blob_clf, x, y, AttackBudget(norm="linf", epsilon=0.0, steps=5),
                  np.random.default_rng(42))
        np.testing.assert_array_equal(out, x)

    def test_seeded_attack_reproducible(self, blob_data, blob_clf):
        x, y = blob_data
        budget = AttackBudget(norm="linf", epsilon=0.3, steps=10)
        a = pgd(blob_clf, x, y, budget, np.random.default_rng(43))
        b = pgd(blob_clf, x, y, budget, np.random.default_rng(43))
        np.testing.assert_array_equal(a, b)

    def test_no_weaker_than_fgsm(self, blob_data, blob_clf):
        """Iterated projected steps should not lose to the single full-budget
        normalized-gradient step (FGSM's l2 form, built here)."""
        x, y = blob_data
        budget = AttackBudget(norm="l2", epsilon=1.5, steps=20)
        g = blob_clf.input_grad(x, y)
        one_step = x + 1.5 * g / np.linalg.norm(g, axis=-1, keepdims=True)
        acc_pgd = blob_clf.accuracy(pgd(blob_clf, x, y, budget, np.random.default_rng(44)), y)
        acc_fgsm = blob_clf.accuracy(one_step, y)
        assert acc_pgd <= acc_fgsm + 0.02


@pytest.fixture(scope="module")
def eval_parts(blob_data, blob_clf):
    sched = make_linear_schedule(60, 1e-3, 0.02)
    oracle = GaussianOracleDenoiser(np.zeros(2), 1.0, sched)
    return blob_clf, (oracle, sched, LoridConfig(t=10, L=2)), blob_data


class TestEvaluate:
    def test_table_complete_and_bounded(self, eval_parts):
        clf, purifier, (x, y) = eval_parts
        budget = AttackBudget(norm="l2", epsilon=1.0, steps=5)
        table = evaluate(clf, *purifier, x, y, budget, trials=2, rng=np.random.default_rng(50))
        assert set(table) == set(TABLE_KEYS)
        for v in table.values():
            assert 0.0 <= v <= 1.0
        assert table["attacked"] <= table["standard"]

    def test_no_basis_tf_only_degenerates_to_attacked(self, eval_parts):
        clf, purifier, (x, y) = eval_parts
        budget = AttackBudget(norm="l2", epsilon=0.8, steps=4)
        table = evaluate(clf, *purifier, x, y, budget, trials=1, rng=np.random.default_rng(51))
        assert table["tf_only"] == table["attacked"]

    def test_validation(self, eval_parts):
        clf, purifier, (x, y) = eval_parts
        budget = AttackBudget(norm="l2", epsilon=0.5)
        with pytest.raises(ValueError):
            evaluate(clf, *purifier, x, y, budget, trials=0, rng=np.random.default_rng(52))
        with pytest.raises(ValueError):
            evaluate(clf, *purifier, x, y[:-5], budget, trials=1, rng=np.random.default_rng(53))

    def test_purified_accuracy_refusals_come_before_any_draw(self, eval_parts):
        """No config, or a label count other than an input's sample count,
        raises before the generator moves."""
        clf, (denoiser, sched, cfg), (x, y) = eval_parts
        cases = [([], [x[:10]], y[:10], "at least one config"),
                 ([cfg], [x[:10]], y[:1], "10 samples but 1 labels"),
                 ([cfg], [x[:10], x[:9]], y[:10], "9 samples but 10 labels")]
        for configs, inputs, labels, message in cases:
            rng = np.random.default_rng(55)
            state = rng.bit_generator.state
            with pytest.raises(ValueError, match=message):
                purified_accuracy(clf, denoiser, sched, configs, inputs, labels, 1, rng)
            assert rng.bit_generator.state == state

    @pytest.mark.skipif(_nn._openblas_threads() is None, reason="numpy bundles no OpenBLAS")
    def test_blas_held_to_one_thread(self, eval_parts):
        """Every purify inside evaluate runs with one BLAS thread, even below the
        noise stream's size."""
        clf, (denoiser, sched, cfg), (x, y) = eval_parts
        get, _ = _nn._openblas_threads()
        seen = []

        class Probe:
            def predict_eps(self, x_t, t):
                seen.append(get())
                return denoiser.predict_eps(x_t, t)

        evaluate(clf, Probe(), sched, cfg, x, y, AttackBudget(norm="l2", epsilon=0.5, steps=2),
                 trials=1, rng=np.random.default_rng(54))
        assert seen and set(seen) == {1}

    def test_format_accuracy_table(self):
        table = {k: 0.5 for k in TABLE_KEYS}
        text = format_accuracy_table(table)
        lines = text.splitlines()
        assert len(lines) == len(TABLE_KEYS)
        assert lines[0].startswith("standard")
        assert "0.5000" in lines[0]
