"""Loss-based sample reweighting via simulated annealing.

Each epoch a binary keep/drop mask is annealed against the energy

    E(m) = sum_i m_i * loss_i + coeff * (sum_i m_i - keep_fraction * N)^2

and folded into smoothed per-sample weights that gate the training loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import training
from .datasets import Dataset
from .models import Model
from .sim import KrausChannel
from .training import TrainConfig
# Not ``training.fit``: a wrapper put there must not see the defended run as a second fit.
from .training import fit as _fit


@dataclass(frozen=True)
class QDetectConfig:
    wan_lr: float = 0.05
    anneal_coeff: float = 1.0
    beta_range: tuple[float, float] = (0.1, 2.0)
    sweeps: int = 50
    keep_fraction: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.wan_lr <= 1.0:
            raise ValueError("wan_lr must be in (0, 1]")
        if self.anneal_coeff < 0:
            raise ValueError("anneal_coeff must be >= 0")
        if self.beta_range[0] >= self.beta_range[1]:
            raise ValueError("beta_range must be ascending")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")


def mask_energy(mask: np.ndarray, losses: np.ndarray, config: QDetectConfig) -> float:
    budget = config.keep_fraction * len(losses)
    return float(mask @ losses + config.anneal_coeff * (mask.sum() - budget) ** 2)


def anneal_mask(
    losses: np.ndarray, config: QDetectConfig, rng: np.random.Generator
) -> np.ndarray:
    """Single-spin-flip Metropolis from the all-ones mask, inverse temperature
    ramped linearly across the sweeps; returns the best mask visited."""
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


def qdetect_weights(
    losses: np.ndarray,
    prev_weights: np.ndarray,
    config: QDetectConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Anneal a keep/drop mask over the losses, then move the weights toward
    it: w <- (1 - lr) * prev + lr * mask, clamped to [0, 1]."""
    losses = np.asarray(losses, dtype=float)
    if losses.size == 0:
        raise ValueError("cannot reweight an empty loss vector")
    if not np.all(np.isfinite(losses)):
        raise ValueError("losses must be finite")
    mask = anneal_mask(losses, config, rng)
    w = (1.0 - config.wan_lr) * np.asarray(prev_weights, dtype=float) + config.wan_lr * mask
    return np.clip(w, 0.0, 1.0)


def defended_train(
    model: Model,
    dataset: Dataset,
    train_config: TrainConfig,
    qdetect_config: QDetectConfig,
    mode: str = "pure",
    noise: tuple[KrausChannel, ...] = (),
    n_classes: int | None = None,
    log_path=None,
) -> tuple[Model, np.ndarray]:
    """``fit`` with per-epoch loss-based reweighting. Returns the model and
    the weight history [epochs, N]."""
    anneal_rng = np.random.default_rng(np.random.SeedSequence(qdetect_config.seed))
    history = []

    def reweight(current: Model) -> np.ndarray:
        losses = training.per_sample_losses(
            current, dataset, train_config, mode, noise, n_classes=n_classes
        )
        previous = history[-1] if history else np.ones(len(dataset))
        history.append(qdetect_weights(losses, previous, qdetect_config, anneal_rng))
        return history[-1]

    model, _ = _fit(
        model,
        dataset,
        train_config,
        mode,
        noise,
        log_path=log_path,
        n_classes=n_classes,
        reweight=reweight,
    )
    return model, np.array(history) if history else np.zeros((0, len(dataset)))


def write_weight_history(history: np.ndarray, path) -> None:
    """Epoch-indexed tab-separated rows of the per-sample weights."""
    with open(path, "w") as fh:
        for epoch, row in enumerate(history):
            fh.write("\t".join([str(epoch)] + [f"{w:.6f}" for w in row]) + "\n")
