"""Annealed sample reweighting and defended training."""

import itertools

import numpy as np
import pytest

from qmlrob.attacks import label_flip
from qmlrob.datasets import synth_blobs
from qmlrob.defense import (
    QDetectConfig,
    anneal_mask,
    defended_train,
    mask_energy,
    qdetect_weights,
    write_weight_history,
)
from qmlrob.encoding import EncodingSpec
from qmlrob.models import CmlpConfig, QmlpConfig, flatten_params, init_cmlp, init_qmlp
from qmlrob.training import TrainConfig, evaluate, fit


def exhaustive_optimum(losses, config):
    n = len(losses)
    best_mask, best_e = None, np.inf
    for bits in itertools.product((0.0, 1.0), repeat=n):
        e = mask_energy(np.array(bits), losses, config)
        if e < best_e:
            best_mask, best_e = np.array(bits), e
    return best_mask, best_e


def numpy_scalar_anneal(losses, config, rng):
    """``anneal_mask`` as it was written on numpy scalars and arrays: the
    reference its Python-float loop must match bit for bit."""
    n = len(losses)
    budget = config.keep_fraction * n
    coeff = config.anneal_coeff
    mask = np.ones(n)
    total = float(n)
    energy = mask_energy(mask, losses, config)
    best_mask, best_energy = mask.copy(), energy
    betas = np.linspace(config.beta_range[0], config.beta_range[1], config.sweeps)
    for beta in betas:
        for i in rng.permutation(n):
            if mask[i]:
                delta = -losses[i] + coeff * (1.0 - 2.0 * (total - budget))
            else:
                delta = losses[i] + coeff * (1.0 + 2.0 * (total - budget))
            if delta <= 0 or rng.random() < np.exp(-beta * delta):
                mask[i] = 1.0 - mask[i]
                total += 1.0 if mask[i] else -1.0
                energy += delta
                if energy < best_energy:
                    best_energy = energy
                    best_mask = mask.copy()
    return best_mask


class TestAnnealMask:
    @pytest.mark.parametrize("keep_fraction", [0.7, 1.0])
    def test_matches_the_numpy_scalar_loop_bit_for_bit(self, keep_fraction):
        rng = np.random.default_rng(21)
        for trial in range(12):
            n = int(rng.integers(1, 60))
            losses = rng.uniform(0, 3, size=n)
            if trial % 3 == 0:  # ties
                losses = np.round(losses, 0)
            cfg = QDetectConfig(keep_fraction=keep_fraction, anneal_coeff=float(rng.uniform(0, 2)),
                                sweeps=int(rng.integers(1, 30)))
            seed = int(rng.integers(1 << 30))
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = anneal_mask(losses, cfg, got_rng)
            assert got.dtype == np.float64
            assert np.array_equal(got, numpy_scalar_anneal(losses, cfg, want_rng))
            # The same draws, in the same order.
            assert got_rng.random() == want_rng.random()

    def test_equal_small_losses_keep_everything(self):
        cfg = QDetectConfig(keep_fraction=1.0, seed=0)
        losses = np.full(10, 0.5)  # below the budget coefficient: full mask optimal
        mask = anneal_mask(losses, cfg, np.random.default_rng(0))
        assert np.array_equal(mask, np.ones(10))

    def test_outlier_dropped_against_exhaustive_oracle(self):
        cfg = QDetectConfig(keep_fraction=7 / 8)
        losses = np.array([1.0, 1.0, 1.0, 100.0, 1.0, 1.0, 1.0, 1.0])
        _, best_e = exhaustive_optimum(losses, cfg)
        for seed in range(10):
            mask = anneal_mask(losses, cfg, np.random.default_rng(seed))
            assert mask[3] == 0.0
            assert mask_energy(mask, losses, cfg) == pytest.approx(best_e)

    def test_mask_energy_never_above_all_ones_or_random_budget_mask(self):
        rng = np.random.default_rng(5)
        cfg = QDetectConfig(keep_fraction=0.7)
        for _ in range(25):
            n = int(rng.integers(4, 30))
            losses = rng.uniform(0, 3, size=n)
            mask = anneal_mask(losses, cfg, np.random.default_rng(int(rng.integers(1 << 30))))
            e = mask_energy(mask, losses, cfg)
            assert e <= mask_energy(np.ones(n), losses, cfg) + 1e-12
            k = round(cfg.keep_fraction * n)
            rand_mask = np.zeros(n)
            rand_mask[rng.choice(n, size=k, replace=False)] = 1.0
            assert e <= mask_energy(rand_mask, losses, cfg) + 1e-12

    def test_near_optimal_on_small_instances(self):
        cfg = QDetectConfig(keep_fraction=0.7)
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            losses = rng.uniform(0.05, 2.5, size=8)
            mask = anneal_mask(losses, cfg, np.random.default_rng(10_000 + seed))
            _, best = exhaustive_optimum(losses, cfg)
            if mask_energy(mask, losses, cfg) <= 1.05 * best:
                hits += 1
        assert hits >= 90


class TestQdetectWeights:
    def test_full_step_returns_mask(self):
        cfg = QDetectConfig(wan_lr=1.0, keep_fraction=7 / 8)
        losses = np.array([1.0, 1.0, 1.0, 100.0, 1.0, 1.0, 1.0, 1.0])
        prev = np.full(8, 0.31)
        w = qdetect_weights(losses, prev, cfg, np.random.default_rng(0))
        assert set(np.unique(w)) <= {0.0, 1.0}
        assert w[3] == 0.0

    def test_smoothed_update(self):
        cfg = QDetectConfig(wan_lr=0.05, keep_fraction=1.0)
        losses = np.full(4, 0.1)
        prev = np.zeros(4)
        w = qdetect_weights(losses, prev, cfg, np.random.default_rng(0))
        assert np.allclose(w, 0.05)

    def test_weights_stay_in_unit_interval(self):
        cfg = QDetectConfig(seed=0)
        rng = np.random.default_rng(3)
        w = rng.uniform(0, 1, size=20)
        for _ in range(30):
            losses = rng.uniform(0, 5, size=20)
            w = qdetect_weights(losses, w, cfg, rng)
            assert np.all(w >= 0.0) and np.all(w <= 1.0)

    def test_rejects_empty_and_nonfinite(self):
        cfg = QDetectConfig()
        with pytest.raises(ValueError):
            qdetect_weights(np.zeros(0), np.zeros(0), cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            qdetect_weights(np.array([1.0, np.inf]), np.ones(2), cfg, np.random.default_rng(0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QDetectConfig(beta_range=(2.0, 0.1))
        with pytest.raises(ValueError):
            QDetectConfig(sweeps=0)
        with pytest.raises(ValueError):
            QDetectConfig(keep_fraction=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [("wan_lr", -1.0), ("wan_lr", 0.0), ("wan_lr", 1.5), ("anneal_coeff", -5.0)],
    )
    def test_rejects_bad_update_settings(self, field, value):
        with pytest.raises(ValueError, match=field):
            QDetectConfig(**{field: value})

    def test_accepts_edge_update_settings(self):
        cfg = QDetectConfig(wan_lr=1.0, anneal_coeff=0.0)
        assert cfg.wan_lr == 1.0 and cfg.anneal_coeff == 0.0


def small_task(seed, flip_ratio=0.0):
    rng = np.random.default_rng(seed)
    ds = synth_blobs(3, 4, 40, 0.15, rng)
    records = []
    if flip_ratio:
        ds, records = label_flip(ds, flip_ratio, 3, np.random.default_rng(seed + 100))
    return ds, records


class TestDefendedTrain:
    def test_zero_epochs_returns_model_unchanged(self):
        ds, _ = small_task(0)
        m = init_cmlp(CmlpConfig(4, 8, 3), np.random.default_rng(1))
        before = flatten_params(m.params).copy()
        out, history = defended_train(
            m, ds, TrainConfig(epochs=0), QDetectConfig(seed=2)
        )
        assert np.array_equal(flatten_params(out.params), before)
        assert history.shape == (0, len(ds))

    def test_clean_run_converges_to_full_weights(self):
        diffs, finals = [], []
        for seed in range(3):
            ds, _ = small_task(seed)
            cfg = TrainConfig(lr=0.01, epochs=20, seed=seed)
            m1 = init_cmlp(CmlpConfig(4, 16, 3), np.random.default_rng(seed))
            undefended, _ = fit(m1, ds, cfg)
            m2 = init_cmlp(CmlpConfig(4, 16, 3), np.random.default_rng(seed))
            defended, history = defended_train(
                m2, ds, cfg, QDetectConfig(keep_fraction=1.0, seed=seed + 50)
            )
            finals.append(history[-1].mean())
            diffs.append(
                abs(evaluate(defended, ds).accuracy - evaluate(undefended, ds).accuracy)
            )
        assert np.median(finals) > 0.85
        assert np.median(diffs) <= 5.0

    @pytest.mark.parametrize("kind", ["cmlp", "qmlp"])
    def test_uniform_weights_train_exactly_like_fit(self, kind):
        if kind == "cmlp":
            ds, _ = small_task(0)
            init = lambda: init_cmlp(CmlpConfig(4, 8, 3), np.random.default_rng(1))
        else:
            ds = synth_blobs(2, 2, 12, 0.15, np.random.default_rng(0))
            enc = EncodingSpec("angle", 2, (0.0, np.pi))
            init = lambda: init_qmlp(QmlpConfig(1, enc, 2, n_qubits=2), np.random.default_rng(1))
        cfg = TrainConfig(lr=0.01, epochs=3, batch_size=8, seed=5)
        uniform = QDetectConfig(wan_lr=1.0, keep_fraction=1.0, anneal_coeff=1e6, seed=2)
        defended, history = defended_train(init(), ds, cfg, uniform)
        fitted, _ = fit(init(), ds, cfg)
        assert history.shape == (cfg.epochs, len(ds))
        assert np.all(history == 1.0)
        assert np.array_equal(flatten_params(defended.params), flatten_params(fitted.params))

    def test_poisoned_samples_get_lower_weights(self):
        separations = []
        for seed in range(3):
            ds, records = small_task(seed, flip_ratio=0.3)
            poisoned_idx = np.array([r.index for r in records])
            clean_idx = np.setdiff1d(np.arange(len(ds)), poisoned_idx)
            m = init_cmlp(CmlpConfig(4, 16, 3), np.random.default_rng(seed))
            _, history = defended_train(
                m,
                ds,
                TrainConfig(lr=0.01, epochs=10, seed=seed),
                QDetectConfig(seed=seed + 10),
            )
            w = history[-1]
            separations.append(w[clean_idx].mean() - w[poisoned_idx].mean())
        assert np.median(separations) > 0.0

    def test_weight_history_file(self, tmp_path):
        history = np.array([[0.5, 1.0], [0.25, 0.75]])
        path = tmp_path / "weights.tsv"
        write_weight_history(history, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0].split("\t") == ["0", "0.500000", "1.000000"]
        assert lines[1].split("\t")[0] == "1"
