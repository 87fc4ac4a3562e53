"""Losses, Adam, weighted epochs, metrics, and reproducibility."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qmlrob import models, sim, training
from qmlrob.datasets import Dataset, synth_blobs
from qmlrob.encoding import EncodingSpec
from qmlrob.models import (
    CmlpConfig,
    CmlpParams,
    CmlpModel,
    Pqc6Config,
    QmlpConfig,
    flatten_params,
    init_cmlp,
    init_pqc6,
    init_qmlp,
    tree_map,
)
from qmlrob.sim import make_depolarizing
from qmlrob.training import (
    NonFiniteLossError,
    TrainConfig,
    adam_step,
    ce_with_grad,
    cross_entropy,
    evaluate,
    fit,
    init_adam,
    one_hot,
    per_sample_losses,
    smooth_labels,
    softmax,
    train_epoch,
)


class TestLabels:
    def test_no_smoothing_is_identity(self):
        onehot = one_hot(np.array(2), 4)
        assert np.array_equal(smooth_labels(onehot, 0.0), onehot)

    def test_smoothing_formula(self):
        out = smooth_labels(one_hot(np.array(0), 4), 0.2)
        assert np.allclose(out, [0.85, 0.05, 0.05, 0.05])

    @given(st.floats(0, 0.99), st.integers(2, 10))
    def test_smoothed_rows_sum_to_one(self, alpha, c):
        out = smooth_labels(one_hot(np.arange(c) % c, c), alpha)
        assert np.allclose(out.sum(axis=-1), 1.0)

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            smooth_labels(one_hot(np.array(0), 3), 1.0)


class TestCrossEntropy:
    def test_uniform_logits(self):
        assert cross_entropy(np.zeros(4), one_hot(np.array(1), 4)) == pytest.approx(
            math.log(4)
        )

    def test_large_margin_drives_loss_to_zero(self):
        logits = np.array([50.0, 0.0, 0.0, 0.0])
        assert cross_entropy(logits, one_hot(np.array(0), 4)) < 1e-20

    def test_matches_naive_formula_on_small_logits(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            logits = rng.uniform(-3, 3, size=5)
            target = softmax(rng.uniform(-1, 1, size=5))
            naive = -float(np.sum(target * np.log(np.exp(logits) / np.exp(logits).sum())))
            assert cross_entropy(logits, target) == pytest.approx(naive, abs=1e-9)

    def test_grad_is_softmax_minus_target(self):
        logits = np.array([0.3, -0.2, 1.0])
        loss, grad = ce_with_grad(logits, 2)
        assert np.allclose(grad, softmax(logits) - one_hot(np.array(2), 3))
        assert loss == pytest.approx(cross_entropy(logits, one_hot(np.array(2), 3)))

    def test_smoothing_decomposition(self):
        # CE(smoothed) = (1-a) CE(onehot) + a * mean over classes of CE(e_c)
        rng = np.random.default_rng(3)
        logits = rng.normal(size=6)
        alpha = 0.31
        smoothed = smooth_labels(one_hot(np.array(2), 6), alpha)
        direct = cross_entropy(logits, smoothed)
        parts = (1 - alpha) * cross_entropy(logits, one_hot(np.array(2), 6)) + alpha * np.mean(
            [cross_entropy(logits, one_hot(np.array(c), 6)) for c in range(6)]
        )
        assert direct == pytest.approx(parts, abs=1e-12)


class TestAdam:
    def _params(self):
        return CmlpParams(
            np.array([[1.0, 2.0]]), np.array([0.5]), np.array([[1.0], [2.0]]), np.zeros(2)
        )

    def test_zero_grad_no_decay_is_identity(self):
        params = self._params()
        grads = tree_map(np.zeros_like, params)
        cfg = TrainConfig(lr=0.01, weight_decay=0.0)
        out, _ = adam_step(params, grads, init_adam(params), cfg)
        assert np.array_equal(flatten_params(out), flatten_params(params))

    def test_first_step_hand_computed(self):
        params = CmlpParams(
            np.array([[0.0]]), np.zeros(1), np.array([[0.0]]), np.zeros(1)
        )
        g = 0.37
        grads = CmlpParams(np.array([[g]]), np.zeros(1), np.array([[0.0]]), np.zeros(1))
        cfg = TrainConfig(lr=0.01, weight_decay=0.0)
        out, state = adam_step(params, grads, init_adam(params), cfg)
        # t=1: m_hat = g, v_hat = g*g -> step = -lr * g / (|g| + eps)
        expected = -0.01 * g / (abs(g) + 1e-8)
        assert out.w1[0, 0] == pytest.approx(expected, abs=1e-15)
        assert state.t == 1

    def test_decoupled_decay_with_zero_grad(self):
        params = self._params()
        grads = tree_map(np.zeros_like, params)
        cfg = TrainConfig(lr=0.1, weight_decay=0.5)
        out, _ = adam_step(params, grads, init_adam(params), cfg)
        assert np.allclose(flatten_params(out), flatten_params(params) * (1 - 0.1 * 0.5))

    def test_shape_mismatch_raises(self):
        params = self._params()
        bad = CmlpParams(np.zeros((2, 2)), np.zeros(1), np.zeros((2, 1)), np.zeros(2))
        with pytest.raises(ValueError):
            adam_step(params, bad, init_adam(params), TrainConfig())


def blob_sets(seed=0, n_classes=2, spread=0.08, per=60):
    rng = np.random.default_rng(seed)
    ds = synth_blobs(n_classes, 4, per, spread, rng)
    return ds


class TestTrainEpoch:
    def test_all_zero_weights_leave_model_unchanged(self):
        ds = blob_sets()
        m = init_cmlp(CmlpConfig(4, 8, 2), np.random.default_rng(1))
        before = flatten_params(m.params).copy()
        out, _ = train_epoch(m, ds, np.zeros(len(ds)), TrainConfig(seed=3))
        assert np.array_equal(flatten_params(out.params), before)

    def test_tiny_lr_leaves_loss_unchanged(self):
        ds = Dataset(np.array([[0.3, 0.7, 0.1, 0.5]]), np.array([1]))
        m = init_cmlp(CmlpConfig(4, 8, 2), np.random.default_rng(1))
        cfg = TrainConfig(lr=1e-13, seed=3)
        before = per_sample_losses(m, ds, cfg, n_classes=2)[0]
        out, _ = train_epoch(m, ds, np.ones(1), cfg, n_classes=2)
        after = per_sample_losses(out, ds, cfg, n_classes=2)[0]
        assert after == pytest.approx(before, abs=1e-9)

    def test_separable_blobs_reach_95_percent(self):
        ds = blob_sets(seed=4, spread=0.05)
        m = init_cmlp(CmlpConfig(4, 16, 2), np.random.default_rng(2))
        cfg = TrainConfig(lr=0.01, epochs=30, seed=5)
        m, _ = fit(m, ds, cfg)
        assert evaluate(m, ds).accuracy >= 95.0

    def test_uniform_weights_match_unweighted(self):
        ds = blob_sets(seed=6)
        cfg = TrainConfig(lr=0.01, epochs=3, seed=7)
        m1 = init_cmlp(CmlpConfig(4, 8, 2), np.random.default_rng(3))
        m2 = init_cmlp(CmlpConfig(4, 8, 2), np.random.default_rng(3))
        a, _ = fit(m1, ds, cfg)
        b, _ = fit(m2, ds, cfg, sample_weights=0.37 * np.ones(len(ds)))
        assert np.allclose(flatten_params(a.params), flatten_params(b.params), atol=1e-9)

    def test_fit_is_bitwise_reproducible(self):
        ds = blob_sets(seed=8)
        cfg = TrainConfig(lr=0.01, epochs=4, seed=11)
        runs = []
        for _ in range(2):
            m = init_cmlp(CmlpConfig(4, 8, 2), np.random.default_rng(4))
            m, _ = fit(m, ds, cfg)
            runs.append(flatten_params(m.params))
        assert np.array_equal(runs[0], runs[1])

    def test_adam_step_simulates_the_circuit_once(self, kernel_calls):
        # One forward plus the stacked adjoint sweep: exactly one kernel call
        # each way for each of the 4 encoder blocks and for the one dense
        # segment that the other 92 fused blocks form. A second forward
        # would add 5.
        m = init_pqc6(Pqc6Config(n_qubits=4), np.random.default_rng(1))
        X = np.random.default_rng(2).uniform(-math.pi, math.pi, size=(8, 8))
        tdist = one_hot(np.arange(8) % 4, 4)
        n_blocks = len(sim._fuse(models._program(m, X)[0]))
        assert n_blocks == 96
        training._batch_grads(m, X, tdist, np.full(8, 1 / 8))
        assert kernel_calls[0] == 2 * (4 + 1)

    def test_empty_dataset_rejected(self):
        ds = blob_sets()
        m = init_cmlp(CmlpConfig(4, 8, 2), np.random.default_rng(1))
        empty = Dataset(np.zeros((0, 4)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            train_epoch(m, empty, np.zeros(0), TrainConfig())

    def test_adam_rejected_in_mixed_mode(self):
        ds = blob_sets()
        m = init_cmlp(CmlpConfig(4, 8, 2), np.random.default_rng(1))
        with pytest.raises(ValueError):
            train_epoch(m, ds, np.ones(len(ds)), TrainConfig(optimizer="adam"), mode="mixed")

    def test_training_log_format(self, tmp_path):
        ds = blob_sets(seed=9)
        m = init_cmlp(CmlpConfig(4, 8, 2), np.random.default_rng(5))
        log = tmp_path / "log.tsv"
        fit(m, ds, TrainConfig(lr=0.01, epochs=3, seed=2), test_ds=ds, log_path=log)
        lines = log.read_text().strip().split("\n")
        assert len(lines) == 3
        for i, line in enumerate(lines):
            epoch, loss, acc = line.split("\t")
            assert int(epoch) == i
            float(loss), float(acc)


def prediction_rig(preds, n_classes):
    """CMLP whose argmax on one-hot features equals the wanted prediction."""
    cfg = CmlpConfig(n_classes, n_classes, n_classes)
    eye = np.eye(n_classes)
    params = CmlpParams(eye.copy(), np.zeros(n_classes), eye.copy(), np.zeros(n_classes))
    features = eye[np.asarray(preds)]
    return CmlpModel(cfg, params), features


class TestEvaluate:
    def test_perfect_predictor(self):
        model, feats = prediction_rig([0, 1, 2, 0], 3)
        ds = Dataset(feats, np.array([0, 1, 2, 0]))
        m = evaluate(model, ds)
        assert m.accuracy == 100.0
        assert m.fnr == 0.0
        assert m.macro_f1 == 100.0

    def test_constant_predictor_on_balanced_set(self):
        model, feats = prediction_rig([1] * 8, 4)
        ds = Dataset(feats, np.array([0, 0, 1, 1, 2, 2, 3, 3]))
        assert evaluate(model, ds).accuracy == pytest.approx(100 / 4)

    def test_hand_computed_confusion_fixture(self):
        labels = np.array([0, 0, 0, 1, 1, 1, 2, 2])
        preds = [0, 0, 1, 1, 1, 0, 2, 1]
        model, feats = prediction_rig(preds, 3)
        m = evaluate(model, Dataset(feats, labels))
        assert m.accuracy == pytest.approx(100 * 5 / 8)
        # per-class F1: 2/3, 4/7, 2/3; FPR: 1/5, 2/5, 0; FNR: 1/3, 1/3, 1/2
        assert m.macro_f1 == pytest.approx(100 * (2 / 3 + 4 / 7 + 2 / 3) / 3)
        assert m.fpr == pytest.approx(100 * (0.2 + 0.4 + 0.0) / 3)
        assert m.fnr == pytest.approx(100 * (1 / 3 + 1 / 3 + 0.5) / 3)

    def test_empty_dataset_rejected(self):
        model, _ = prediction_rig([0], 2)
        with pytest.raises(ValueError):
            evaluate(model, Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int)))


class TestNonFiniteLoss:
    def nan_model(self):
        enc = EncodingSpec("angle", 2, (0.0, math.pi))
        m = init_qmlp(QmlpConfig(1, enc, 2, n_qubits=2), np.random.default_rng(0))
        m.params.head_b[0] = np.nan
        ds = Dataset(np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]), np.array([0, 1, 0]))
        return m, ds

    @pytest.mark.parametrize("mode", ["pure", "mixed"])
    def test_fit_names_epoch_and_batch(self, mode):
        m, ds = self.nan_model()
        noise = (make_depolarizing(0.01),) if mode == "mixed" else ()
        with pytest.raises(NonFiniteLossError, match=r"epoch 0: .*batch 0"):
            fit(m, ds, TrainConfig(batch_size=2, epochs=2), mode, noise, n_classes=2)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("optimizer", ["adam", "spsa"])
    def test_infinite_gradient_names_the_parameters(self, optimizer, monkeypatch):
        # The loss is finite (it is taken before the update); the update is not.
        m, ds = self.nan_model()
        m.params.head_b[0] = 0.0
        if optimizer == "adam":
            real = training._batch_grads

            def inf_grads(*args):
                losses, grads = real(*args)
                grads.head_b[0] = np.inf
                return losses, grads

            monkeypatch.setattr(training, "_batch_grads", inf_grads)
        else:
            real = models.spsa_grad

            def inf_grads(*args, **kwargs):
                grads = real(*args, **kwargs)
                grads.head_b[0] = np.inf
                return grads

            monkeypatch.setattr(models, "spsa_grad", inf_grads)
        config = TrainConfig(batch_size=2, epochs=2, optimizer=optimizer)
        match = rf"epoch 0: non-finite parameters after the {optimizer} update in batch 0"
        with pytest.raises(NonFiniteLossError, match=match):
            fit(m, ds, config, "pure", n_classes=2)


class TestConfigValidation:
    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)

    @pytest.mark.parametrize(
        "field, value", [("batch_size", 0), ("epochs", -1), ("weight_decay", -0.1)]
    )
    def test_rejects_bad_loop_settings(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_rejects_bad_smoothing(self):
        with pytest.raises(ValueError):
            TrainConfig(label_smoothing=1.0)

    def test_optimizer_resolution(self):
        assert TrainConfig().resolve_optimizer("pure") == "adam"
        assert TrainConfig().resolve_optimizer("mixed") == "spsa"
        assert TrainConfig(optimizer="spsa").resolve_optimizer("pure") == "spsa"
