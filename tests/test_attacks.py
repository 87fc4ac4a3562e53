"""Poisoning and evasion attacks."""

import math

import numpy as np
import pytest

from qmlrob import models, sim
from qmlrob.attacks import (
    AttackConfig,
    PoisonRecord,
    attack_success_rate,
    class_centroids,
    fgsm,
    label_flip,
    pgd,
    poison_success_rate,
    quid_poison,
    read_poison_manifest,
    write_poison_manifest,
)
from qmlrob.datasets import Dataset, synth_blobs
from qmlrob.encoding import EncodingSpec, encode_state, encode_states
from qmlrob.models import CmlpConfig, CmlpModel, CmlpParams, Pqc6Config, init_cmlp, init_pqc6


def toy_dataset(n=10, n_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, 3)), rng.integers(0, n_classes, size=n))


def linear_rig():
    """1-feature CMLP with dL/dx > 0 for label 1 everywhere."""
    cfg = CmlpConfig(1, 1, 2)
    params = CmlpParams(
        np.array([[1.0]]), np.array([10.0]), np.array([[1.0], [-1.0]]), np.zeros(2)
    )
    return CmlpModel(cfg, params)


class TestLabelFlip:
    def test_zero_ratio_is_identity(self):
        ds = toy_dataset()
        out, records = label_flip(ds, 0.0, 2, np.random.default_rng(0))
        assert records == []
        assert np.array_equal(out.labels, ds.labels)

    def test_flip_count_and_validity(self):
        ds = toy_dataset(n=10, n_classes=4)
        out, records = label_flip(ds, 0.5, 4, np.random.default_rng(1))
        assert len(records) == 5
        assert len({r.index for r in records}) == 5
        for r in records:
            assert r.poisoned_label != r.original_label
            assert out.labels[r.index] == r.poisoned_label

    def test_full_ratio_binary_inverts_everything(self):
        ds = toy_dataset(n=12, n_classes=2)
        out, records = label_flip(ds, 1.0, 2, np.random.default_rng(2))
        assert len(records) == 12
        assert np.array_equal(out.labels, 1 - ds.labels)

    def test_features_untouched(self):
        ds = toy_dataset()
        out, _ = label_flip(ds, 0.7, 2, np.random.default_rng(3))
        assert out.features is ds.features

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            label_flip(toy_dataset(), 0.5, 1, np.random.default_rng(0))

    def test_flip_targets_uniform_over_other_classes(self):
        ds = Dataset(np.zeros((6000, 1)), np.zeros(6000, dtype=int))
        _, records = label_flip(ds, 1.0, 4, np.random.default_rng(4))
        counts = np.bincount([r.poisoned_label for r in records], minlength=4)
        assert counts[0] == 0
        assert np.all(np.abs(counts[1:] - 2000) < 200)


ANGLE1 = EncodingSpec("angle", 1, (0.0, math.pi))


class TestCentroids:
    def test_single_sample_is_projector(self):
        ds = Dataset(np.array([[0.0], [math.pi]]), np.array([0, 1]))
        cents = class_centroids(ds, ANGLE1)
        assert np.allclose(cents[0].entries, np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(cents[1].entries, np.diag([0.0, 1.0]), atol=1e-12)

    def test_duplicate_samples_match_single(self):
        one = class_centroids(Dataset(np.array([[0.7], [2.0]]), np.array([0, 1])), ANGLE1)
        two = class_centroids(
            Dataset(np.array([[0.7], [0.7], [2.0]]), np.array([0, 0, 1])), ANGLE1
        )
        assert np.allclose(one[0].entries, two[0].entries, atol=1e-12)

    def test_orthogonal_pair_gives_half_half_eigenvalues(self):
        ds = Dataset(np.array([[0.0], [math.pi], [0.5]]), np.array([0, 0, 1]))
        cents = class_centroids(ds, ANGLE1)
        eig = np.linalg.eigvalsh(cents[0].entries)
        assert np.allclose(eig, [0.5, 0.5], atol=1e-12)
        assert np.trace(cents[0].entries).real == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "enc, width",
        [(EncodingSpec("angle", 3, (0.0, math.pi)), 3), (EncodingSpec("dense_angle", 2, (-math.pi, math.pi)), 4)],
        ids=["angle", "dense_angle"],
    )
    def test_matches_per_sample_outer_accumulation(self, enc, width):
        rng = np.random.default_rng(17)
        ds = Dataset(rng.uniform(-1.0, 2.0, size=(15, width)), np.arange(15) % 3)
        states = encode_states(ds.features, enc)
        cents = class_centroids(ds, enc)
        for c in range(3):
            acc = np.zeros((2**enc.n_qubits,) * 2, dtype=complex)
            for amps in states[ds.labels == c]:
                acc += np.outer(amps, amps.conj())
            assert np.max(np.abs(cents[c].entries - acc / 5)) <= 1e-12

    def test_empty_class_rejected(self):
        ds = Dataset(np.array([[0.1], [0.2]]), np.array([0, 2]))
        with pytest.raises(ValueError):
            class_centroids(ds, ANGLE1)


class TestQuid:
    def test_two_classes_forced_swap(self):
        ds = Dataset(np.array([[0.1], [0.2], [2.8], [2.9]]), np.array([0, 0, 1, 1]))
        out, records = quid_poison(ds, ANGLE1, 1.0, np.random.default_rng(0))
        assert len(records) == 4
        assert np.array_equal(out.labels, 1 - ds.labels)

    def test_argmin_forced_by_orthogonality(self):
        # y=0 sample at angle 0; class 1 centered at 0 (overlap 1), class 2 at
        # pi (overlap 0) -> least-similar wrong class is 2
        ds = Dataset(
            np.array([[0.0], [0.0], [math.pi]]), np.array([0, 1, 2])
        )
        out, records = quid_poison(ds, ANGLE1, 1.0, np.random.default_rng(0))
        rec0 = next(r for r in records if r.index == 0)
        assert rec0.poisoned_label == 2

    def test_most_similar_variant(self):
        ds = Dataset(np.array([[0.0], [0.0], [math.pi]]), np.array([0, 1, 2]))
        _, records = quid_poison(
            ds, ANGLE1, 1.0, np.random.default_rng(0), variant="most_similar_wrong"
        )
        rec0 = next(r for r in records if r.index == 0)
        assert rec0.poisoned_label == 1

    def test_assignments_match_bruteforce_overlap_table(self):
        rng = np.random.default_rng(7)
        blobs = synth_blobs(4, 4, 12, 0.4, rng)
        enc = EncodingSpec("angle", 4, (0.0, math.pi))
        out, records = quid_poison(blobs, enc, 0.5, np.random.default_rng(9))
        # brute-force fidelity table over all samples and classes
        cents = []
        for c in range(4):
            states = [
                encode_state(x, enc).amplitudes
                for x in blobs.features[blobs.labels == c]
            ]
            cents.append(np.mean([np.outer(s, s.conj()) for s in states], axis=0))
        for r in records:
            amps = encode_state(blobs.features[r.index], enc).amplitudes
            sims = [
                float(np.real(amps.conj() @ cents[c] @ amps)) if c != r.original_label else np.inf
                for c in range(4)
            ]
            assert r.poisoned_label == int(np.argmin(sims))

    def test_features_untouched(self):
        ds = toy_dataset(n=8, n_classes=3)
        ds = Dataset(np.abs(ds.features), ds.labels)
        enc = EncodingSpec("angle", 3, (0.0, math.pi))
        out, _ = quid_poison(ds, enc, 0.5, np.random.default_rng(1))
        assert out.features is ds.features


class TestFgsm:
    def test_zero_eps_identity(self):
        m = linear_rig()
        x = np.array([0.5])
        assert np.array_equal(fgsm(m, x, 1, 0.0, (0.0, math.pi)), x)

    def test_positive_gradient_step(self):
        out = fgsm(linear_rig(), np.array([0.5]), 1, 0.1, (0.0, math.pi))
        assert out[0] == pytest.approx(0.6)

    def test_clamped_at_upper_bound(self):
        out = fgsm(linear_rig(), np.array([1.0]), 1, 0.1, (0.0, 1.0))
        assert out[0] == pytest.approx(1.0)

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            fgsm(linear_rig(), np.array([0.5]), 1, -0.1, (0.0, 1.0))

    def test_first_order_loss_never_decreases_for_linear_model(self):
        from qmlrob.training import ce_with_grad
        from qmlrob.models import cmlp_forward

        m = linear_rig()
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.uniform(0.2, 0.8, size=1)
            adv = fgsm(m, x, 1, 0.05, (0.0, 1.0))
            l0, _ = ce_with_grad(cmlp_forward(m.config, m.params, x), 1)
            l1, _ = ce_with_grad(cmlp_forward(m.config, m.params, adv), 1)
            assert l1 >= l0 - 1e-9


class TestPgd:
    def test_one_step_equals_fgsm_bitwise(self):
        rng = np.random.default_rng(6)
        m = init_cmlp(CmlpConfig(3, 5, 3), rng)
        for _ in range(100):
            x = rng.uniform(0, 1, size=3)
            y = int(rng.integers(3))
            eps = float(rng.uniform(0.01, 0.3))
            a = fgsm(m, x, y, eps, (0.0, 1.0))
            b = pgd(m, x, y, eps, eps, 1, (0.0, 1.0))
            assert np.array_equal(a, b)

    def test_projection_binds_iterates(self):
        out = pgd(linear_rig(), np.array([0.5]), 1, 0.15, 0.1, 3, (0.0, math.pi))
        assert out[0] == pytest.approx(0.65)

    def test_ball_and_bounds_respected(self):
        rng = np.random.default_rng(7)
        m = init_cmlp(CmlpConfig(4, 6, 3), rng)
        for _ in range(1000):
            x = rng.uniform(0, 1, size=4)
            y = int(rng.integers(3))
            eps = float(rng.uniform(0.0, 0.4))
            step = float(rng.uniform(0.01, 0.3))
            iters = int(rng.integers(1, 5))
            use_start = rng.random() < 0.5
            out = pgd(
                m, x, y, eps, step, iters, (0.0, 1.0),
                rng=np.random.default_rng(int(rng.integers(1 << 30))) if use_start else None,
            )
            assert np.max(np.abs(out - x)) <= eps + 1e-12
            assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_iteration_simulates_the_circuit_once(self, kernel_calls):
        # One forward plus the stacked adjoint sweep per iteration: exactly
        # one kernel call each way for each of the 4 encoder blocks and for
        # the one dense segment that the other 92 fused blocks form. A
        # second forward would add 5.
        m = init_pqc6(Pqc6Config(n_qubits=4), np.random.default_rng(3))
        X = np.random.default_rng(4).uniform(-1.0, 1.0, size=(5, 8))
        n_blocks = len(sim._fuse(models._program(m, X)[0]))
        assert n_blocks == 96
        pgd(m, X, np.arange(5) % 4, 0.1, 0.05, 1, (-math.pi, math.pi))
        assert kernel_calls[0] == 2 * (4 + 1)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            pgd(linear_rig(), np.array([0.5]), 1, 0.1, 0.0, 2, (0.0, 1.0))


class TestSuccessRates:
    def test_all_misclassified(self):
        model, feats = _constant_predictor(1, 3)
        labels = np.zeros(5, dtype=int)
        assert attack_success_rate(model, feats[:5], labels) == 100.0

    def test_sixtythree_of_seventy(self):
        model, feats = _constant_predictor(1, 3)
        labels = np.array([1] * 7 + [0] * 63)
        assert attack_success_rate(model, feats[: len(labels)], labels) == pytest.approx(90.0)

    def test_empty_set_rejected(self):
        model, _ = _constant_predictor(0, 2)
        with pytest.raises(ValueError):
            attack_success_rate(model, np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_poison_success_counts_adopted_labels(self):
        model, feats = _constant_predictor(1, 3)
        records = [
            PoisonRecord(0, 0, 1),  # predicted 1 == poisoned -> success
            PoisonRecord(1, 2, 0),  # predicted 1 != poisoned -> miss
        ]
        assert poison_success_rate(model, feats, records) == pytest.approx(50.0)


def _constant_predictor(cls, n_classes, n=100):
    cfg = CmlpConfig(2, 2, n_classes)
    b2 = np.zeros(n_classes)
    b2[cls] = 1.0
    params = CmlpParams(np.zeros((2, 2)), np.zeros(2), np.zeros((n_classes, 2)), b2)
    return CmlpModel(cfg, params), np.zeros((n, 2))


class TestConfigAndManifest:
    def test_attack_config_validation(self):
        with pytest.raises(ValueError):
            AttackConfig("unknown")
        with pytest.raises(ValueError):
            AttackConfig("label_flip", ratio=1.5)
        with pytest.raises(ValueError):
            AttackConfig("fgsm", eps=-1.0)
        with pytest.raises(ValueError):
            AttackConfig("pgd", iters=0)

    def test_record_rejects_identical_labels(self):
        with pytest.raises(ValueError):
            PoisonRecord(0, 1, 1)

    def test_manifest_round_trip(self, tmp_path):
        records = [PoisonRecord(3, 0, 2), PoisonRecord(7, 1, 0)]
        path = tmp_path / "manifest.txt"
        write_poison_manifest(records, path)
        text = path.read_text().strip().split("\n")
        assert text[0] == "index,original,poisoned"
        assert text[1] == "3,0,2"
        assert read_poison_manifest(path) == records
