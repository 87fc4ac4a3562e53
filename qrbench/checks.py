"""Correctness checks on one round's outputs.

Each check compares what qmlrob wrote or returned with a computation made
apart from it (the reference simulator in ``refsim.py``, finite
differences) or with a property the method must have. The round's inputs
and models come from the ``--capture`` directory that ``child.py`` wrote.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

import refsim

FD_STEP = 1e-6


class Evidence:
    """A round's table, log files and captured inputs, models and outputs."""

    def __init__(self, config: dict, seed: int, out_dir: Path, capture_dir: Path):
        from qmlrob import models

        self.config = config
        self.seed_dir = out_dir / f"seed_{seed}"
        self.rows = list(csv.DictReader(io.StringIO((out_dir / "table.tsv").read_text()), delimiter="\t"))
        with np.load(capture_dir / "capture.npz") as data:
            self.cap = {k: data[k] for k in data.files}
        self.models = {
            p.stem[len("model_"):]: models.load_model(p)[0] for p in capture_dir.glob("model_*.npz")
        }

    def row(self, condition: str, mode: str = "pure") -> dict:
        (row,) = [r for r in self.rows if r["condition"] == condition and r["eval_mode"] == mode]
        return row

    def reference_logits(self, condition: str, x, mixed: bool = False):
        model = self.models[condition]
        params = dict(vars(model.params))
        if "theta" in params:
            if model.config.encoding.kind != "angle":
                raise ValueError("the reference simulator covers angle-encoded QMLPs only")
            kind, reupload = "qmlp", model.config.reupload
        else:
            kind, reupload = "qnn", True
        channels = None
        if mixed:
            channels = [refsim.CHANNELS[c["kind"]](c["p"]) for c in self.config["mode"]["channels"]]
        return refsim.model_logits(kind, params, x, channels, reupload)

    def program_channels(self):
        from qmlrob import sim

        make = {"depolarizing": sim.make_depolarizing, "amplitude_damping": sim.make_amplitude_damping}
        return tuple(make[c["kind"]](c["p"]) for c in self.config["mode"]["channels"])


def _pct(mask) -> float:
    return 100.0 * float(np.mean(mask))


def _same(table_value: str, value: float, decimals: int = 4) -> bool:
    return table_value == f"{value:.{decimals}f}"


def _grad_ok(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool(np.all(np.abs(got - want) <= 1e-7 + 1e-6 * np.abs(want)))


# ---------------------------------------------------------------------------
# noisy_train
# ---------------------------------------------------------------------------


def mixed_logits_match_reference(ev: Evidence) -> bool:
    """Program mixed logits on 8 test inputs equal the reference to 1e-10."""
    from qmlrob import models

    x = ev.cap["test_x"][:8]
    got = models.forward_batch(ev.models["baseline"], x, "mixed", ev.program_channels())
    return bool(np.max(np.abs(got - ev.reference_logits("baseline", x, mixed=True))) <= 1e-10)


def noisy_accuracies_match_reference(ev: Evidence) -> bool:
    """The table's pure and mixed accuracies equal the reference's on the
    whole test set."""
    x, y = ev.cap["test_x"], ev.cap["test_y"]
    ok = True
    for mode in ("pure", "mixed"):
        pred = ev.reference_logits("baseline", x, mixed=mode == "mixed").argmax(axis=1)
        ok &= _same(ev.row("baseline", mode)["accuracy"], _pct(pred == y))
    return bool(ok)


def training_losses_finite(ev: Evidence) -> bool:
    """One finite training loss per epoch in train_log.tsv."""
    lines = (ev.seed_dir / "train_log.tsv").read_text().split()
    losses = [float(v) for v in lines[1::3]]
    return len(losses) == ev.config["train"]["epochs"] and bool(np.all(np.isfinite(losses)))


# ---------------------------------------------------------------------------
# poison_defend
# ---------------------------------------------------------------------------


def _manifest(ev: Evidence) -> np.ndarray:
    lines = (ev.seed_dir / "poison_manifest.txt").read_text().split()[1:]
    return np.array([[int(v) for v in line.split(",")] for line in lines], dtype=int).reshape(-1, 3)


def poison_manifest_valid(ev: Evidence) -> bool:
    """round(ratio * N) distinct records; each original label is the
    sample's clean label and each poisoned label differs from it."""
    rec, y = _manifest(ev), ev.cap["train_y"]
    n = len(y)
    return bool(
        len(rec) == round(ev.config["attack"]["ratio"] * n)
        and len(set(rec[:, 0])) == len(rec)
        and np.all(y[rec[:, 0]] == rec[:, 1])
        and np.all(rec[:, 1] != rec[:, 2])
        and np.array_equal(rec, ev.cap["records"])
    )


def poison_is_least_similar(ev: Evidence) -> bool:
    """Each poisoned label is a class whose centroid overlaps least with the
    sample's encoder state, among the other classes. States come from the
    reference simulator's dense-angle encoder."""
    x, y = ev.cap["train_x"], ev.cap["train_y"]
    n = ev.config["model"]["n_qubits"]
    psi = refsim.run_pure(n, refsim.dense_angle_gates(x, n), refsim.zero_states(len(x), n, False))
    classes = int(y.max()) + 1
    cents = np.stack([
        np.einsum("bi,bj->ij", psi[y == c], psi[y == c].conj()) / np.sum(y == c) for c in range(classes)
    ])
    ok = True
    for idx, old, new in _manifest(ev):
        overlaps = np.einsum("i,cij,j->c", psi[idx].conj(), cents, psi[idx]).real
        overlaps[old] = np.inf
        ok &= bool(overlaps[new] <= overlaps.min() + 1e-12)
    return bool(ok)


def poison_table_matches_reference(ev: Evidence) -> bool:
    """Accuracy, ASR and relative accuracy of every table row, recomputed
    with the reference simulator on the captured models."""
    tx, ty, trx = ev.cap["test_x"], ev.cap["test_y"], ev.cap["train_x"]
    rec = _manifest(ev)
    ok = True
    base = None
    for condition in ("baseline", "attacked", "defended"):
        row = ev.row(condition)
        acc = _pct(ev.reference_logits(condition, tx).argmax(axis=1) == ty)
        base = acc if base is None else base
        ok &= _same(row["accuracy"], acc) and _same(row["relative_accuracy"], acc / base, 2)
        if condition != "baseline":
            pred = ev.reference_logits(condition, trx[rec[:, 0]]).argmax(axis=1)
            ok &= _same(row["asr"], _pct(pred == rec[:, 2]))
    return bool(ok)


def adjoint_gradients_match_fd(ev: Evidence) -> bool:
    """qmlrob's adjoint parameter gradients of the defended model equal
    central differences of the reference cross-entropy, on two training
    samples, for every sixth circuit angle and every head parameter."""
    from qmlrob import models, training

    model = ev.models["defended"]
    x, y = ev.cap["train_x"][:2], ev.cap["train_y"][:2]
    got = {}
    for i in range(len(x)):
        g = vars(models.grad_params(model, x[i], int(y[i]), training.ce_with_grad))
        got = {k: got.get(k, 0) + v for k, v in g.items()}
    params = {k: np.asarray(v, dtype=float) for k, v in vars(model.params).items()}

    def loss(name, j, delta):
        moved = params[name].copy()
        moved.flat[j] += delta
        logits = refsim.model_logits("qnn", {**params, name: moved}, x)
        return float(refsim.cross_entropy(logits, y).sum())

    ok = True
    for name, arr in params.items():
        for j in range(0, arr.size, 6 if name in ("rot", "ent") else 1):
            fd = (loss(name, j, FD_STEP) - loss(name, j, -FD_STEP)) / (2 * FD_STEP)
            ok &= _grad_ok(got[name].flat[j], fd)
    return bool(ok)


def weight_history_steps(ev: Evidence) -> bool:
    """Each row of the weight history is w_t = (1 - lr) w_(t-1) + lr m with
    m in {0, 1} per sample, from w = 1; weight_history.tsv holds it."""
    from qmlrob.defense import QDetectConfig

    lr = ev.config.get("defense", {}).get("wan_lr", QDetectConfig().wan_lr)
    hist = ev.cap["weight_history"]
    prev = np.ones(hist.shape[1])
    ok = len(hist) == ev.config["train"]["epochs"]
    for row in hist:
        m = (row - (1 - lr) * prev) / lr
        ok &= bool(np.all(np.abs(m - np.round(m)) <= 1e-9) and np.all(np.isin(np.round(m), (0, 1))))
        prev = row
    lines = (ev.seed_dir / "weight_history.tsv").read_text().splitlines()
    want = ["\t".join([str(e)] + [f"{w:.6f}" for w in row]) for e, row in enumerate(hist)]
    return bool(ok and lines == want)


# ---------------------------------------------------------------------------
# wide_evasion
# ---------------------------------------------------------------------------


def adversarial_within_budget(ev: Evidence) -> bool:
    """Every PGD sample is inside the input bounds and within eps
    (L-infinity) of its clean input clipped into those bounds.

    The bounds come from the training split, so a clean test input can lie
    outside them; PGD then moves that feature onto the bound, by more than
    eps, on some seeds only. The check holds PGD to what it does on every
    seed, and CHANGES.md records the excess."""
    adv, x, (lo, hi) = ev.cap["adversarial"], ev.cap["test_x"], ev.cap["bounds"]
    eps = ev.config["attack"]["eps"]
    return bool(
        adv.shape == x.shape
        and np.max(np.abs(adv - np.clip(x, lo, hi))) <= eps + 1e-12
        and adv.min() >= lo
        and adv.max() <= hi
    )


def evasion_table_matches_reference(ev: Evidence) -> bool:
    """Clean accuracy, attacked accuracy and ASR in the table, recomputed
    with the reference simulator on the clean and adversarial inputs."""
    y = ev.cap["test_y"]
    clean = _pct(ev.reference_logits("baseline", ev.cap["test_x"]).argmax(axis=1) == y)
    pred = ev.reference_logits("baseline", ev.cap["adversarial"]).argmax(axis=1)
    attacked = ev.row("attacked")
    return bool(
        _same(ev.row("baseline")["accuracy"], clean)
        and _same(attacked["accuracy"], _pct(pred == y))
        and _same(attacked["asr"], _pct(pred != y))
        and _same(attacked["relative_accuracy"], _pct(pred == y) / clean, 2)
    )


def input_gradients_match_fd(ev: Evidence) -> bool:
    """qmlrob's input gradients equal central differences of the reference
    cross-entropy on three test samples."""
    from qmlrob import models, training

    model = ev.models["baseline"]
    x, y = ev.cap["test_x"][:3], ev.cap["test_y"][:3]
    got = np.stack([models.grad_input(model, x[i], int(y[i]), training.ce_with_grad) for i in range(3)])
    d = x.shape[1]
    steps = np.concatenate([np.eye(d), -np.eye(d)]) * FD_STEP
    batch = (x[:, None, :] + steps[None]).reshape(-1, d)
    labels = np.repeat(y, 2 * d)
    losses = refsim.cross_entropy(ev.reference_logits("baseline", batch), labels).reshape(3, 2, d)
    fd = (losses[:, 0] - losses[:, 1]) / (2 * FD_STEP)
    return _grad_ok(got, fd)


CHECKS = {
    "noisy_train": (mixed_logits_match_reference, noisy_accuracies_match_reference,
                    training_losses_finite),
    "poison_defend": (poison_manifest_valid, poison_is_least_similar,
                      poison_table_matches_reference, adjoint_gradients_match_fd,
                      weight_history_steps),
    "wide_evasion": (adversarial_within_budget, evasion_table_matches_reference,
                     input_gradients_match_fd),
}
