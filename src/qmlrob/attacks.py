"""Training-time poisoning (label flipping, encoder-similarity relabeling)
and gradient evasion attacks (FGSM, PGD).

Poisoning never touches features; evasion perturbs the model's input features
inside explicit bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .datasets import Dataset
# encode_state is unused here but stays a module attribute, which tracers wrap.
from .encoding import EncodingSpec, encode_state, encode_states  # noqa: F401
from .models import Model
from .sim import DensityMatrix, KrausChannel
from .training import one_hot, softmax


@dataclass(frozen=True)
class PoisonRecord:
    index: int
    original_label: int
    poisoned_label: int

    def __post_init__(self):
        if self.poisoned_label == self.original_label:
            raise ValueError("poisoned label must differ from the original")


@dataclass(frozen=True)
class AttackConfig:
    kind: str  # label_flip | quid | fgsm | pgd
    ratio: float = 0.0
    eps: float = 0.0
    step: float = 0.0
    iters: int = 1
    quid_variant: str = "least_similar"
    random_start: bool = False

    def __post_init__(self):
        if self.kind not in ("label_flip", "quid", "fgsm", "pgd"):
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if not 0.0 <= self.ratio <= 1.0:
            raise ValueError("poison ratio must be in [0, 1]")
        if self.eps < 0:
            raise ValueError("perturbation budget must be >= 0")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.quid_variant not in ("least_similar", "most_similar_wrong"):
            raise ValueError(f"unknown quid variant {self.quid_variant!r}")

    @property
    def is_poisoning(self) -> bool:
        return self.kind in ("label_flip", "quid")


def _select_poison_indices(n: int, ratio: float, rng: np.random.Generator) -> np.ndarray:
    count = round(ratio * n)
    return np.sort(rng.choice(n, size=count, replace=False))


def label_flip(
    dataset: Dataset, ratio: float, n_classes: int, rng: np.random.Generator
) -> tuple[Dataset, list[PoisonRecord]]:
    """Untargeted label flipping: round(ratio*N) distinct samples get a label
    drawn uniformly from the other classes; features stay untouched."""
    if n_classes < 2:
        raise ValueError("label flipping needs at least 2 classes")
    labels = dataset.labels.copy()
    records = []
    for i in _select_poison_indices(len(dataset), ratio, rng):
        old = int(labels[i])
        new = (old + int(rng.integers(1, n_classes))) % n_classes
        labels[i] = new
        records.append(PoisonRecord(int(i), old, new))
    return dataset.with_labels(labels), records


def _centroids(states: np.ndarray, dataset: Dataset) -> np.ndarray:
    """Per-class mean projectors [C, dim, dim] of the encoder states [N, dim]."""
    out = []
    for c in range(dataset.n_classes):
        members = states[dataset.labels == c]
        if len(members) == 0:
            raise ValueError(f"class {c} is empty")
        out.append(np.einsum("bi,bj->ij", members, members.conj()) / len(members))
    return np.stack(out)


def class_centroids(dataset: Dataset, encoder: EncodingSpec) -> list[DensityMatrix]:
    """Per-class mean projector of the encoder-only states."""
    cents = _centroids(encode_states(dataset.features, encoder), dataset)
    return [DensityMatrix(encoder.n_qubits, c) for c in cents]


def quid_poison(
    dataset: Dataset,
    encoder: EncodingSpec,
    ratio: float,
    rng: np.random.Generator,
    variant: str = "least_similar",
) -> tuple[Dataset, list[PoisonRecord]]:
    """Relabel selected samples by encoder-state overlap with the class
    centroids: by default to the least-similar other class (ties to the
    lowest class index); ``most_similar_wrong`` picks the nearest wrong class.
    The training set is encoded once, as one batch.
    """
    if dataset.n_classes < 2:
        raise ValueError("poisoning needs at least 2 classes")
    states = encode_states(dataset.features, encoder)
    cents = _centroids(states, dataset)
    idx = _select_poison_indices(len(dataset), ratio, rng)
    chosen = states[idx]
    overlaps = np.einsum("bi,cij,bj->bc", chosen.conj(), cents, chosen).real
    old = dataset.labels[idx]
    least = variant == "least_similar"
    overlaps[np.arange(len(idx)), old] = np.inf if least else -np.inf
    new = np.argmin(overlaps, axis=1) if least else np.argmax(overlaps, axis=1)
    labels = dataset.labels.copy()
    labels[idx] = new
    records = [PoisonRecord(int(i), int(o), int(n)) for i, o, n in zip(idx, old, new)]
    return dataset.with_labels(labels), records


# ---------------------------------------------------------------------------
# Evasion
# ---------------------------------------------------------------------------


def _input_grads(model: Model, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    labels = np.asarray(y, dtype=int)
    _, _, dX = models.logits_and_grads(
        model, X, lambda logits: softmax(logits) - one_hot(labels, logits.shape[1]),
        wrt="inputs",
    )
    return dX


def fgsm(model: Model, x: np.ndarray, y, eps: float, bounds) -> np.ndarray:
    """x + eps * sign(dL/dx), clamped to the data bounds; sign(0) = 0."""
    if eps < 0:
        raise ValueError("eps must be >= 0")
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    X = np.atleast_2d(x)
    yv = np.full(len(X), y) if np.ndim(y) == 0 else np.asarray(y)
    g = _input_grads(model, X, yv)
    out = np.clip(X + eps * np.sign(g), bounds[0], bounds[1])
    return out[0] if squeeze else out


def pgd(
    model: Model,
    x: np.ndarray,
    y,
    eps: float,
    step: float,
    iters: int,
    bounds,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Iterated sign-gradient ascent, projected into the eps-ball around the
    start point and the data bounds. Random start only when ``rng`` given."""
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    x0 = np.atleast_2d(x)
    yv = np.full(len(x0), y) if np.ndim(y) == 0 else np.asarray(y)
    xt = x0
    if rng is not None:
        xt = np.clip(x0 + rng.uniform(-eps, eps, size=x0.shape), bounds[0], bounds[1])
    for _ in range(iters):
        g = _input_grads(model, xt, yv)
        xt = xt + step * np.sign(g)
        xt = np.clip(xt, x0 - eps, x0 + eps)
        xt = np.clip(xt, bounds[0], bounds[1])
    return xt[0] if squeeze else xt


def attack_success_rate(
    model: Model,
    features: np.ndarray,
    true_labels: np.ndarray,
    mode: str = "pure",
    noise: tuple[KrausChannel, ...] = (),
) -> float:
    """Percentage of the attacked samples the model misclassifies (argmax
    prediction differs from the sample's true label). Used for evasion sets."""
    if len(features) == 0:
        raise ValueError("attack success rate of an empty set is undefined")
    preds = models.predict_batch(model, features, mode, noise)
    return 100.0 * float(np.mean(preds != np.asarray(true_labels)))


def poison_success_rate(
    model: Model,
    features: np.ndarray,
    records: list[PoisonRecord],
    mode: str = "pure",
    noise: tuple[KrausChannel, ...] = (),
) -> float:
    """Percentage of poisoned samples whose corrupted label took effect: the
    model predicts exactly the injected label (a third-class error is model
    noise, not attack success)."""
    if not records:
        raise ValueError("attack success rate of an empty set is undefined")
    idx = np.array([r.index for r in records])
    target = np.array([r.poisoned_label for r in records])
    preds = models.predict_batch(model, features[idx], mode, noise)
    return 100.0 * float(np.mean(preds == target))


def write_poison_manifest(records: list[PoisonRecord], path) -> None:
    """One ``index,original,poisoned`` line per poisoned sample."""
    with open(path, "w") as fh:
        fh.write("index,original,poisoned\n")
        for r in records:
            fh.write(f"{r.index},{r.original_label},{r.poisoned_label}\n")


def read_poison_manifest(path) -> list[PoisonRecord]:
    records = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            idx, old, new = line.strip().split(",")
            records.append(PoisonRecord(int(idx), int(old), int(new)))
    return records
