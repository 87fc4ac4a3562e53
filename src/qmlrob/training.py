"""Losses, optimizers, and training/evaluation loops.

All loops are seed-deterministic: the shuffle and SPSA perturbation streams
derive from ``TrainConfig.seed`` and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .datasets import Dataset
from .models import Model, tree_map
from .sim import KrausChannel

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class NonFiniteLossError(ValueError):
    """A training batch produced a NaN or infinite loss."""


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.001
    weight_decay: float = 1e-4
    batch_size: int = 64
    epochs: int = 30
    label_smoothing: float = 0.0
    optimizer: str = "auto"  # auto -> adam in pure mode, spsa in mixed mode
    spsa_step: float = 0.01
    spsa_perturb: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        if self.optimizer not in ("auto", "adam", "spsa"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")

    def resolve_optimizer(self, mode: str) -> str:
        if self.optimizer != "auto":
            return self.optimizer
        return "adam" if mode == "pure" else "spsa"


@dataclass
class Metrics:
    accuracy: float
    macro_f1: float
    fpr: float
    fnr: float


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=int)
    out = np.zeros(labels.shape + (n_classes,))
    np.put_along_axis(out, labels[..., None], 1.0, axis=-1)
    return out


def smooth_labels(onehot: np.ndarray, alpha: float) -> np.ndarray:
    """(1 - alpha) * onehot + alpha / C; rows still sum to 1."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError("smoothing factor must be in [0, 1)")
    c = onehot.shape[-1]
    return (1.0 - alpha) * onehot + alpha / c


def log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=-1, keepdims=True)
    return logits - m - np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def cross_entropy(logits: np.ndarray, target: np.ndarray) -> float:
    """-sum(t_i log softmax(logits)_i), log-sum-exp stabilized."""
    return float(-np.sum(np.asarray(target) * log_softmax(np.asarray(logits))))


def cross_entropy_batch(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-sample cross entropy for [B, C] logits against [B, C] targets."""
    return -np.sum(targets * log_softmax(logits), axis=-1)


def ce_with_grad(logits: np.ndarray, target) -> tuple[float, np.ndarray]:
    """Single-sample loss_fn for the gradient APIs: ``target`` is an integer
    label or a distribution; returns (loss, dloss/dlogits)."""
    t = target
    if np.ndim(t) == 0:
        t = one_hot(np.array(int(t)), len(logits))
    return cross_entropy(logits, t), softmax(logits) - t


def target_distributions(labels: np.ndarray, n_classes: int, alpha: float) -> np.ndarray:
    return smooth_labels(one_hot(labels, n_classes), alpha)


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    m: object
    v: object
    t: int = 0


def init_adam(params) -> AdamState:
    return AdamState(tree_map(np.zeros_like, params), tree_map(np.zeros_like, params))


def adam_step(params, grads, state: AdamState, config: TrainConfig):
    """One Adam update with decoupled weight decay applied before the moment
    update. Returns (params', state')."""
    for name, p in models.tree_arrays(params).items():
        g = getattr(grads, name)
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.shape} for {name!r}")
    t = state.t + 1
    decayed = tree_map(lambda p: p * (1.0 - config.lr * config.weight_decay), params)
    m = tree_map(lambda m_, g: ADAM_BETA1 * m_ + (1 - ADAM_BETA1) * g, state.m, grads)
    v = tree_map(lambda v_, g: ADAM_BETA2 * v_ + (1 - ADAM_BETA2) * g * g, state.v, grads)
    mc = 1.0 / (1.0 - ADAM_BETA1**t)
    vc = 1.0 / (1.0 - ADAM_BETA2**t)
    new = tree_map(
        lambda p, m_, v_: p - config.lr * (m_ * mc) / (np.sqrt(v_ * vc) + ADAM_EPS),
        decayed,
        m,
        v,
    )
    return new, AdamState(m, v, t)


@dataclass
class OptimizerState:
    """Mutable holder so multi-epoch loops can thread Adam moments through
    repeated ``train_epoch`` calls."""

    adam: AdamState | None = None


# ---------------------------------------------------------------------------
# Epoch loop
# ---------------------------------------------------------------------------


def _batch_grads(model, X, tdist, norm_w):
    """Per-sample losses and weighted parameter grads from one forward pass."""
    logits, grads, _ = models.logits_and_grads(
        model, X, lambda logits: softmax(logits) - tdist, norm_w
    )
    return cross_entropy_batch(logits, tdist), grads


def train_epoch(
    model: Model,
    dataset: Dataset,
    sample_weights: np.ndarray,
    config: TrainConfig,
    mode: str = "pure",
    noise: tuple[KrausChannel, ...] = (),
    *,
    opt_state: OptimizerState | None = None,
    shuffle_rng: np.random.Generator | None = None,
    spsa_rng: np.random.Generator | None = None,
    n_classes: int | None = None,
):
    """One pass of weighted mini-batch training over a seeded shuffle.

    Per-sample losses are weighted and reduced by total batch weight mass;
    zero-weight batches are skipped. Returns (model', stats dict).
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    weights = np.asarray(sample_weights, dtype=float)
    if weights.shape != (len(dataset),):
        raise ValueError("sample_weights length must match the dataset")
    if shuffle_rng is None:
        shuffle_rng = np.random.default_rng(config.seed)
    if spsa_rng is None:
        spsa_rng = np.random.default_rng(config.seed + 1)
    opt = config.resolve_optimizer(mode)
    if opt == "adam" and mode != "pure":
        raise ValueError("Adam needs exact gradients; train mixed mode with SPSA")
    if opt_state is None:
        opt_state = OptimizerState()
    if opt == "adam" and opt_state.adam is None:
        opt_state.adam = init_adam(model.params)
    C = n_classes if n_classes is not None else dataset.n_classes

    order = shuffle_rng.permutation(len(dataset))
    total_loss = 0.0
    total_weight = 0.0
    for start in range(0, len(order), config.batch_size):
        idx = order[start : start + config.batch_size]
        w = weights[idx]
        wsum = float(w.sum())
        if wsum == 0.0:
            continue
        X = dataset.features[idx]
        tdist = target_distributions(dataset.labels[idx], C, config.label_smoothing)
        if opt == "adam":
            losses, grads = _batch_grads(model, X, tdist, w / wsum)
            new_params, opt_state.adam = adam_step(
                model.params, grads, opt_state.adam, config
            )
        else:
            grads = models.spsa_grad(
                model,
                X,
                tdist,
                config.spsa_perturb,
                spsa_rng,
                cross_entropy_batch,
                mode,
                noise,
                sample_weights=w,
            )
            losses = cross_entropy_batch(
                models.forward_batch(model, X, mode, noise), tdist
            )
            new_params = tree_map(
                lambda p, g: p - config.spsa_step * g, model.params, grads
            )
        batch_loss = float(np.dot(w, losses))
        if not np.isfinite(batch_loss):
            raise NonFiniteLossError(
                f"non-finite loss {batch_loss} in batch {start // config.batch_size}"
            )
        model = models.replace_params(model, new_params)
        total_loss += batch_loss
        total_weight += wsum
    stats = {"train_loss": total_loss / total_weight if total_weight else float("nan")}
    return model, stats


def fit(
    model: Model,
    train_ds: Dataset,
    config: TrainConfig,
    mode: str = "pure",
    noise: tuple[KrausChannel, ...] = (),
    sample_weights: np.ndarray | None = None,
    test_ds: Dataset | None = None,
    log_path=None,
    n_classes: int | None = None,
    *,
    reweight=None,
):
    """Multi-epoch training driver; returns (model, per-epoch history).

    ``reweight(model) -> weights``, when given, is called before each epoch
    and sets that epoch's sample weights. Writes one
    ``epoch<TAB>train_loss<TAB>test_acc`` line per epoch when a log path is
    given (test accuracy evaluated noiselessly).
    """
    shuffle_seq, spsa_seq = np.random.SeedSequence(config.seed).spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_seq)
    spsa_rng = np.random.default_rng(spsa_seq)
    weights = (
        np.ones(len(train_ds)) if sample_weights is None else np.asarray(sample_weights)
    )
    opt_state = OptimizerState()
    history = []
    lines = []
    for epoch in range(config.epochs):
        if reweight is not None:
            weights = reweight(model)
        try:
            model, stats = train_epoch(
                model,
                train_ds,
                weights,
                config,
                mode,
                noise,
                opt_state=opt_state,
                shuffle_rng=shuffle_rng,
                spsa_rng=spsa_rng,
                n_classes=n_classes,
            )
        except NonFiniteLossError as exc:
            raise NonFiniteLossError(f"epoch {epoch}: {exc}") from None
        if test_ds is not None:
            stats["test_acc"] = evaluate(model, test_ds).accuracy
        history.append(stats)
        lines.append(
            f"{epoch}\t{stats['train_loss']:.6f}\t{stats.get('test_acc', float('nan')):.2f}"
        )
    if log_path is not None:
        with open(log_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return model, history


def evaluate(
    model: Model,
    dataset: Dataset,
    mode: str = "pure",
    noise: tuple[KrausChannel, ...] = (),
) -> Metrics:
    """Accuracy, macro F1, and macro-averaged one-vs-rest FPR/FNR, as
    percentages."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    preds = models.predict_batch(model, dataset.features, mode, noise)
    labels = dataset.labels
    n_classes = max(dataset.n_classes, int(preds.max()) + 1)
    accuracy = 100.0 * float(np.mean(preds == labels))
    f1s, fprs, fnrs = [], [], []
    for c in range(n_classes):
        tp = float(np.sum((preds == c) & (labels == c)))
        fp = float(np.sum((preds == c) & (labels != c)))
        fn = float(np.sum((preds != c) & (labels == c)))
        tn = float(np.sum((preds != c) & (labels != c)))
        f1s.append(2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
        fprs.append(fp / (fp + tn) if (fp + tn) else 0.0)
        fnrs.append(fn / (fn + tp) if (fn + tp) else 0.0)
    return Metrics(
        accuracy,
        100.0 * float(np.mean(f1s)),
        100.0 * float(np.mean(fprs)),
        100.0 * float(np.mean(fnrs)),
    )


def per_sample_losses(
    model: Model,
    dataset: Dataset,
    config: TrainConfig,
    mode: str = "pure",
    noise: tuple[KrausChannel, ...] = (),
    n_classes: int | None = None,
) -> np.ndarray:
    """Unweighted per-sample cross-entropy under the current model."""
    C = n_classes if n_classes is not None else dataset.n_classes
    logits = models.forward_batch(model, dataset.features, mode, noise)
    tdist = target_distributions(dataset.labels, C, config.label_smoothing)
    return cross_entropy_batch(logits, tdist)
