"""Hybrid quantum-classical classifiers and their gradients.

Three model families: the re-uploading QMLP (angle or amplitude encoding,
ring CRX entanglers), the 4-qubit dense-angle QNN with all-to-all CRX
entanglers, and a one-hidden-layer classical MLP baseline.

A model's circuit, with the encoder's gates and initial amplitudes from
``encoding``, is compiled once per (config, feature count) into a
``sim.Program`` that every pure and noisy pass binds to its parameters and
batch. Quantum gradients come from the program's adjoint sweep
(``sim.Program.adjoint``, exact for expectation readouts), which starts
from the state of the one forward pass that also gives the logits. A
parameter-shift path with the four-term rule for controlled rotations runs
gate by gate and is kept alongside as an independent cross-check.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from dataclasses import dataclass

import numpy as np

from . import sim
from .encoding import EncodingSpec, encoder_structure, initial_amplitudes
from .sim import CircuitSpec, GateOp, KrausChannel, StateVector

CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# Configs and parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QmlpConfig:
    layers: int
    encoding: EncodingSpec
    n_classes: int
    n_qubits: int = 9
    reupload: bool = True

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.encoding.n_qubits != self.n_qubits:
            raise ValueError("encoding qubit count must match the circuit")


@dataclass
class QmlpParams:
    theta: np.ndarray  # [layers, n_qubits, 3]: RY, RZ, ring-CRX angles
    head_w: np.ndarray  # [n_classes, n_qubits]
    head_b: np.ndarray  # [n_classes]


@dataclass
class QmlpModel:
    config: QmlpConfig
    params: QmlpParams


@dataclass(frozen=True)
class Pqc6Config:
    n_qubits: int = 4
    layers: int = 6
    n_classes: int = 4


@dataclass
class Pqc6Params:
    rot: np.ndarray  # [layers, n_qubits, 3]: RY, RZ, RX angles
    ent: np.ndarray  # [layers, n_qubits*(n_qubits-1)]: CRX angles, ordered pairs
    head_w: np.ndarray
    head_b: np.ndarray


@dataclass
class Pqc6Model:
    config: Pqc6Config
    params: Pqc6Params


@dataclass(frozen=True)
class CmlpConfig:
    input_dim: int
    hidden_dim: int
    n_classes: int

    def __post_init__(self):
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")


@dataclass
class CmlpParams:
    w1: np.ndarray  # [hidden, input]
    b1: np.ndarray
    w2: np.ndarray  # [n_classes, hidden]
    b2: np.ndarray


@dataclass
class CmlpModel:
    config: CmlpConfig
    params: CmlpParams


QuantumModel = QmlpModel | Pqc6Model
Model = QmlpModel | Pqc6Model | CmlpModel


def init_qmlp(config: QmlpConfig, rng: np.random.Generator) -> QmlpModel:
    """Quantum angles uniform in [-pi, pi]; head uniform in +-1/sqrt(n)."""
    theta = rng.uniform(-np.pi, np.pi, size=(config.layers, config.n_qubits, 3))
    bound = 1.0 / np.sqrt(config.n_qubits)
    head_w = rng.uniform(-bound, bound, size=(config.n_classes, config.n_qubits))
    head_b = rng.uniform(-bound, bound, size=config.n_classes)
    return QmlpModel(config, QmlpParams(theta, head_w, head_b))


def init_pqc6(config: Pqc6Config, rng: np.random.Generator) -> Pqc6Model:
    n = config.n_qubits
    rot = rng.uniform(-np.pi, np.pi, size=(config.layers, n, 3))
    ent = rng.uniform(-np.pi, np.pi, size=(config.layers, n * (n - 1)))
    bound = 1.0 / np.sqrt(n)
    head_w = rng.uniform(-bound, bound, size=(config.n_classes, n))
    head_b = rng.uniform(-bound, bound, size=config.n_classes)
    return Pqc6Model(config, Pqc6Params(rot, ent, head_w, head_b))


def init_cmlp(config: CmlpConfig, rng: np.random.Generator) -> CmlpModel:
    b1 = 1.0 / np.sqrt(config.input_dim)
    b2 = 1.0 / np.sqrt(config.hidden_dim)
    return CmlpModel(
        config,
        CmlpParams(
            rng.uniform(-b1, b1, size=(config.hidden_dim, config.input_dim)),
            rng.uniform(-b1, b1, size=config.hidden_dim),
            rng.uniform(-b2, b2, size=(config.n_classes, config.hidden_dim)),
            rng.uniform(-b2, b2, size=config.n_classes),
        ),
    )


# ---------------------------------------------------------------------------
# Parameter trees (shared by the optimizers and SPSA)
# ---------------------------------------------------------------------------


def tree_map(fn, *trees):
    """Apply ``fn`` across matching array fields of parameter dataclasses."""
    cls = type(trees[0])
    return cls(
        **{
            f.name: fn(*(getattr(t, f.name) for t in trees))
            for f in dataclasses.fields(cls)
        }
    )


def tree_arrays(tree) -> dict[str, np.ndarray]:
    return {f.name: getattr(tree, f.name) for f in dataclasses.fields(tree)}


def flatten_params(tree) -> np.ndarray:
    return np.concatenate([np.ravel(a) for a in tree_arrays(tree).values()])


def unflatten_params(template, vec: np.ndarray):
    out, i = {}, 0
    for name, a in tree_arrays(template).items():
        out[name] = vec[i : i + a.size].reshape(a.shape)
        i += a.size
    return type(template)(**out)


# ---------------------------------------------------------------------------
# Circuit programs. A model's circuit is a list of (kind, targets, tag), the
# tag naming the flat parameter (variational angles, shared by a batch) or
# input feature (encoding angles, per sample) of each angle, with its
# chain-rule scale. ``_compiled`` holds it as a ``sim.Program``; ``_program``
# spells it out as ``GateOp``s with angles, the gate-by-gate reference.
# ---------------------------------------------------------------------------


def _gates(config: QmlpConfig | Pqc6Config, n_features: int) -> list[tuple]:
    """The circuit for inputs of ``n_features``. QMLP: per layer the angle
    encoding (every layer, or the first only without re-uploading; an
    amplitude-encoded input has no gates), RY and RZ on every qubit, then a
    ring of CRX entanglers. QNN: the dense-angle encoding once, then per
    layer RY, RZ and RX on every qubit and a CRX for every ordered pair."""
    n, qnn = config.n_qubits, isinstance(config, Pqc6Config)
    if not qnn and config.encoding.kind not in ("angle", "amplitude"):
        raise ValueError(f"QMLP does not support {config.encoding.kind!r} encoding")
    encode = encoder_structure("dense_angle" if qnn else config.encoding.kind, n, n_features)
    rotations = ("RY", "RZ", "RX") if qnn else ("RY", "RZ")
    pairs = ([(c, t) for c in range(n) for t in range(n) if c != t] if qnn
             else [(q, (q + 1) % n) for q in range(n) if n > 1])
    gates = []
    for layer in range(config.layers):
        gates += encode if layer == 0 or (not qnn and config.reupload) else []
        for q in range(n):
            gates += [(g, (q,), ("theta", (layer * n + q) * 3 + k, 1.0))
                      for k, g in enumerate(rotations)]
        for j, pair in enumerate(pairs):
            i = config.layers * n * 3 + layer * len(pairs) + j if qnn else (layer * n + j) * 3 + 2
            gates.append(("CRX", pair, ("theta", i, 1.0)))
    return gates


@functools.lru_cache(maxsize=16)
def _compiled(config: QmlpConfig | Pqc6Config, n_features: int) -> sim.Program:
    return sim.Program(config.n_qubits, tuple(_gates(config, n_features)))


def _initial(model: QuantumModel, X: np.ndarray) -> np.ndarray:
    kind = model.config.encoding.kind if isinstance(model, QmlpModel) else "dense_angle"
    return initial_amplitudes(X, kind, model.config.n_qubits)


def _program(model: QuantumModel, X: np.ndarray) -> tuple[list[GateOp], np.ndarray]:
    """Gate list plus initial amplitudes [B, 2**n] for a batch X [B, F] (or
    one input [F], with scalar encoding angles and amplitudes [2**n])."""
    flat = flatten_params(model.params)
    ops = [
        GateOp(kind, ts, tag[2] * (flat[tag[1]] if tag[0] == "theta" else X[..., tag[1]]), tag)
        for kind, ts, tag in _gates(model.config, X.shape[-1])
    ]
    return ops, _initial(model, X)


def _grad_tree(model: QuantumModel, dflat: np.ndarray, dhw: np.ndarray, dhb: np.ndarray):
    """Parameter-tree gradients from ``dflat``, a flat parameter-sized vector
    holding the angle gradients at their tag indices (the angle fields come
    first, in order), and the head's gradients, which fill its tail."""
    dflat[dflat.size - dhw.size - dhb.size :] = np.concatenate([dhw.ravel(), dhb])
    return unflatten_params(model.params, dflat)


def build_qmlp_circuit(
    config: QmlpConfig, params: QmlpParams, x: np.ndarray
) -> CircuitSpec:
    """Single-sample circuit: per-layer re-uploaded angle encoding (or a
    one-shot amplitude preparation) followed by RY/RZ rotations and a ring of
    CRX entanglers."""
    ops, init = _program(QmlpModel(config, params), np.asarray(x, dtype=float))
    initial = None
    if config.encoding.kind == "amplitude":
        initial = StateVector(config.n_qubits, init)
    return CircuitSpec(config.n_qubits, tuple(ops), initial_state=initial)


def build_pqc6_circuit(
    config: Pqc6Config, params: Pqc6Params, x: np.ndarray
) -> CircuitSpec:
    """Single-sample QNN circuit: dense-angle encoding once, then per layer
    RY/RZ/RX on every qubit and a CRX for every ordered qubit pair."""
    ops, _ = _program(Pqc6Model(config, params), np.asarray(x, dtype=float))
    return CircuitSpec(config.n_qubits, tuple(ops))


# ---------------------------------------------------------------------------
# Forward evaluation
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _z_diags(n_qubits: int) -> np.ndarray:
    """[n, 2**n]: each qubit's Z diagonal, built once per width (read-only)."""
    z = np.stack([sim.z_diagonal(n_qubits, q) for q in range(n_qubits)])
    z.flags.writeable = False
    return z


def _apply_instr_dm(dm: np.ndarray, ins: GateOp) -> np.ndarray:
    """Per-gate density-matrix pass: the reference for the fused noisy path."""
    mat = ins.base_matrix()
    dm = np.swapaxes(sim._apply_instr(np.swapaxes(dm, -1, -2), ins, mat), -1, -2)
    return sim._apply_instr(dm, ins, np.conj(mat))


def quantum_features(
    model: QuantumModel,
    X: np.ndarray,
    mode: str = "pure",
    noise: tuple[KrausChannel, ...] = (),
) -> np.ndarray:
    """Per-qubit Pauli-Z expectations [B, n_qubits] for a batch."""
    X = np.asarray(X, dtype=float)
    if mode == "pure":
        if noise:
            raise ValueError("pure mode requires an empty noise policy")
        return _pure_pass(model, X)[0]
    if mode != "mixed":
        raise ValueError(f"unknown mode {mode!r}")
    n = model.config.n_qubits
    if isinstance(model, QmlpModel) and model.config.encoding.kind == "amplitude":
        psi = _initial(model, X).real  # an amplitude encoding's amplitudes are real
        r = sim.dm_to_pauli(psi[:, :, None] * psi[:, None, :])
    else:  # the encoders' gates start from |0...0>
        r = np.broadcast_to(sim.zero_pauli(n), (len(X),) + (4,) * n)
    r = _compiled(model.config, X.shape[1]).forward_pauli(flatten_params(model.params), X, r, noise)
    return sim.expect_z_pauli(r)


def _pure_pass(model: QuantumModel, X: np.ndarray, kept: dict | None = None):
    """Bind the model's program to its parameters and ``X``, run the pure
    pass (``kept`` as in ``sim._forward_amps``) and read each qubit's <Z_q>.
    Returns (z [B, n], psi [B, 2**n], (program, params, items, stacks))."""
    program, params = _compiled(model.config, X.shape[1]), flatten_params(model.params)
    items, stacks = program.bind(params, X)
    psi = sim._forward_amps(items, _initial(model, X), kept)
    return (np.abs(psi) ** 2) @ _z_diags(model.config.n_qubits).T, psi, (program, params, items, stacks)


def forward_batch(
    model: Model,
    X: np.ndarray,
    mode: str = "pure",
    noise: tuple[KrausChannel, ...] = (),
) -> np.ndarray:
    """Logits [B, n_classes]."""
    if isinstance(model, CmlpModel):
        return cmlp_forward_batch(model.config, model.params, np.asarray(X, dtype=float))
    z = quantum_features(model, X, mode, noise)
    return z @ model.params.head_w.T + model.params.head_b


def forward(
    model: Model,
    x: np.ndarray,
    mode: str = "pure",
    noise: tuple[KrausChannel, ...] = (),
) -> np.ndarray:
    """Logits for a single input."""
    return forward_batch(model, np.atleast_2d(np.asarray(x, dtype=float)), mode, noise)[0]


def predict_batch(
    model: Model,
    X: np.ndarray,
    mode: str = "pure",
    noise: tuple[KrausChannel, ...] = (),
) -> np.ndarray:
    return np.argmax(forward_batch(model, X, mode, noise), axis=1)


# ---------------------------------------------------------------------------
# Adjoint gradients: one forward pass, then the compiled program's sweep.
# ---------------------------------------------------------------------------


def _quantum_backward(
    model: QuantumModel,
    X: np.ndarray,
    loss_grad,
    sample_weights: np.ndarray | None = None,
    wrt: str = "both",
):
    """Logits and weighted-sum gradients from one forward pass.
    ``loss_grad`` maps the logits [B, C] to per-sample dL/dlogits [B, C].
    Returns (logits, param grads, dX [B, F] per-sample); the logits equal
    ``forward_batch``'s bit for bit. Per-sample gate grads are reduced into
    the parameter grads with the sample weights. The sweep differentiates
    <psi| O |psi> for O = sum_q w_q Z_q with w = dL/dz; an amplitude
    encoding adds the chain rule through the normalised input. ``wrt`` is as
    in ``logits_and_grads``; the side not asked for is left zero."""
    X = np.asarray(X, dtype=float)
    w = np.ones(len(X)) if sample_weights is None else np.asarray(sample_weights, dtype=float)
    head_w = model.params.head_w
    z, psi, (program, params, items, stacks) = _pure_pass(model, X, kept := {})
    logits = z @ head_w.T + model.params.head_b
    dlogits = loss_grad(logits)

    obs_w = dlogits @ head_w  # [B, n] = dL/dz
    # [B, 2, dim]: the ket psi and the bra O psi.
    state = np.stack([psi, (obs_w @ _z_diags(model.config.n_qubits)) * psi], axis=1)
    del psi  # the sweep holds the kept window matrices; this keeps its peak memory down
    amplitude = (isinstance(model, QmlpModel) and model.config.encoding.kind == "amplitude"
                 and wrt != "params")
    dflat, dX, bra = program.adjoint(items, kept, stacks, state, w, params, X, amplitude, wrt)

    if amplitude:
        # d<O>/dv through v/||v||, v = zero-padded x (grads are real-valued).
        norms = np.linalg.norm(X, axis=1)
        gr = 2.0 * bra.real[:, : X.shape[1]]
        inner = np.sum(gr * X, axis=1) / norms
        dX = dX + w[:, None] * (gr / norms[:, None] - X * (inner / norms**2)[:, None])

    dhw = (dlogits * w[:, None]).T @ z
    dhb = (dlogits * w[:, None]).sum(axis=0)
    return logits, _grad_tree(model, dflat, dhw, dhb), dX


def logits_and_grads(
    model: Model,
    X: np.ndarray,
    loss_grad,
    sample_weights: np.ndarray | None = None,
    wrt: str = "both",
):
    """(logits [B, C], parameter grads, dX [B, F]) of the weighted loss whose
    per-sample logit gradient is ``loss_grad(logits)``, from one forward pass.
    ``wrt`` is "both", "params" or "inputs": the gradients to compute; the
    other side comes back as None. Pure (noiseless) mode only; use spsa_grad
    under noise."""
    X = np.asarray(X, dtype=float)
    if wrt not in ("both", "params", "inputs"):
        raise ValueError(f"unknown gradient choice {wrt!r}")
    if isinstance(model, CmlpModel):
        logits = cmlp_forward_batch(model.config, model.params, X)
        grads, dX = cmlp_backward(
            model.config, model.params, X, loss_grad(logits), sample_weights
        )
    else:
        logits, grads, dX = _quantum_backward(model, X, loss_grad, sample_weights, wrt)
    return logits, None if wrt == "inputs" else grads, None if wrt == "params" else dX


def _single_grads(model: Model, x: np.ndarray, y, loss_fn, wrt: str):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    _, grads, dX = logits_and_grads(
        model, x, lambda logits: loss_fn(logits[0], y)[1][None, :], wrt=wrt
    )
    return grads if wrt == "params" else dX[0]


def grad_params(model: Model, x: np.ndarray, y, loss_fn):
    """Gradient of ``loss_fn(logits, y)`` w.r.t. all model parameters.

    ``loss_fn`` returns (loss, dloss/dlogits). Pure (noiseless) mode only;
    use spsa_grad under noise.
    """
    return _single_grads(model, x, y, loss_fn, "params")


def grad_input(model: Model, x: np.ndarray, y, loss_fn) -> np.ndarray:
    """Gradient of the loss w.r.t. the input features (pure mode only)."""
    return _single_grads(model, x, y, loss_fn, "inputs")


# ---------------------------------------------------------------------------
# Parameter-shift cross-check. Two-term rule for single-qubit rotations; the
# CRX generator has eigenvalues {-1, 0, +1}, which needs the four-term rule.
# ---------------------------------------------------------------------------

_SHIFT_C1 = (np.sqrt(2) + 1) / (4 * np.sqrt(2))
_SHIFT_C2 = (np.sqrt(2) - 1) / (4 * np.sqrt(2))


def _z_of_instrs(model, instrs, init) -> np.ndarray:
    psi = init
    for ins in instrs:
        psi = sim._apply_instr(psi, ins, ins.base_matrix())
    return ((np.abs(psi) ** 2) @ _z_diags(model.config.n_qubits).T)[0]


def _shifted(instrs, i, delta):
    ins = instrs[i]
    out = list(instrs)
    out[i] = GateOp(ins.kind, ins.targets, ins.angle + delta, ins.tag)
    return out


def grad_params_shift(model: QuantumModel, x, y, loss_fn):
    """Parameter-shift gradients (quantum angles; analytic head)."""
    return _shift_grads(model, x, y, loss_fn)[0]


def grad_input_shift(model: QuantumModel, x, y, loss_fn) -> np.ndarray:
    """Parameter-shift input gradients summed over encoding occurrences
    (angle encodings only)."""
    return _shift_grads(model, x, y, loss_fn)[1]


def _shift_grads(model: QuantumModel, x, y, loss_fn):
    """Shift rule applied to each <Z_q>, then chained through the head and
    loss at the unshifted point."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    instrs, init = _program(model, x)
    logits = forward_batch(model, x)[0]
    _, dlogits = loss_fn(logits, y)
    obs_w = dlogits @ model.params.head_w  # dL/dz

    dflat = np.zeros(flatten_params(model.params).size)
    dx = np.zeros(x.shape[1])

    def dz(i, shift):
        return _z_of_instrs(model, _shifted(instrs, i, shift), init) - _z_of_instrs(
            model, _shifted(instrs, i, -shift), init
        )

    for i, ins in enumerate(instrs):
        if ins.tag is None:
            continue
        if ins.kind == "CRX":
            dz_dang = _SHIFT_C1 * dz(i, np.pi / 2) - _SHIFT_C2 * dz(i, 3 * np.pi / 2)
        else:
            dz_dang = 0.5 * dz(i, np.pi / 2)
        g = float(obs_w @ dz_dang)
        what, idx, scale = ins.tag
        if what == "theta":
            dflat[idx] += scale * g
        else:
            dx[idx] += scale * g

    z = quantum_features(model, x)
    return _grad_tree(model, dflat, np.outer(dlogits, z[0]), dlogits.copy()), dx


# ---------------------------------------------------------------------------
# SPSA
# ---------------------------------------------------------------------------


def spsa_estimate(loss, theta: np.ndarray, c: float, rng: np.random.Generator) -> np.ndarray:
    """Two-evaluation SPSA gradient estimate of ``loss`` at ``theta``."""
    if c <= 0:
        raise ValueError("SPSA perturbation must be positive")
    delta = rng.integers(0, 2, size=theta.shape) * 2.0 - 1.0
    return (loss(theta + c * delta) - loss(theta - c * delta)) / (2 * c) * delta


def spsa_grad(
    model: Model,
    X: np.ndarray,
    targets: np.ndarray,
    c: float,
    rng: np.random.Generator,
    loss_fn,
    mode: str = "pure",
    noise: tuple[KrausChannel, ...] = (),
    sample_weights: np.ndarray | None = None,
):
    """SPSA estimate of the batch-loss gradient; works in any mode.

    ``loss_fn`` maps (logits [B, C], targets) to per-sample losses [B].
    Returns the estimate and the per-sample losses averaged over its two
    evaluations at theta +- c delta, which estimates the losses at theta to
    O(c^2) (Spall, IEEE TAC 37(3), 1992) without a third forward pass.
    """
    X = np.asarray(X, dtype=float)
    w = np.ones(X.shape[0]) if sample_weights is None else np.asarray(sample_weights)
    pair = []

    def batch_loss(vec):
        m = replace_params(model, unflatten_params(model.params, vec))
        pair.append(loss_fn(forward_batch(m, X, mode, noise), targets))
        return float(np.dot(w, pair[-1]) / np.sum(w))

    est = spsa_estimate(batch_loss, flatten_params(model.params), c, rng)
    return unflatten_params(model.params, est), (pair[0] + pair[1]) / 2


def replace_params(model: Model, params) -> Model:
    return type(model)(model.config, params)


# ---------------------------------------------------------------------------
# Classical MLP baseline: one hidden layer, ReLU, linear output.
# ---------------------------------------------------------------------------


def cmlp_forward_batch(config: CmlpConfig, params: CmlpParams, X: np.ndarray) -> np.ndarray:
    if X.shape[1] != config.input_dim:
        raise ValueError(f"expected {config.input_dim} features, got {X.shape[1]}")
    h = np.maximum(X @ params.w1.T + params.b1, 0.0)
    return h @ params.w2.T + params.b2


def cmlp_forward(config: CmlpConfig, params: CmlpParams, x: np.ndarray) -> np.ndarray:
    return cmlp_forward_batch(config, params, np.atleast_2d(np.asarray(x, dtype=float)))[0]


def cmlp_backward(
    config: CmlpConfig,
    params: CmlpParams,
    X: np.ndarray,
    dlogits: np.ndarray,
    sample_weights: np.ndarray | None = None,
):
    """Analytic backprop. Returns (CmlpParams grads, per-sample dX)."""
    w = (
        np.ones(X.shape[0])
        if sample_weights is None
        else np.asarray(sample_weights, dtype=float)
    )
    pre = X @ params.w1.T + params.b1
    h = np.maximum(pre, 0.0)
    dl = dlogits * w[:, None]
    dw2 = dl.T @ h
    db2 = dl.sum(axis=0)
    dh = (dlogits @ params.w2) * (pre > 0)
    dw1 = (dh * w[:, None]).T @ X
    db1 = (dh * w[:, None]).sum(axis=0)
    dX = dh @ params.w1
    return CmlpParams(dw1, db1, dw2, db2), dX


def cmlp_grad(config: CmlpConfig, params: CmlpParams, x: np.ndarray, y, loss_fn):
    """Single-sample parameter gradients for the classical baseline."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    logits = cmlp_forward_batch(config, params, x)[0]
    _, dlogits = loss_fn(logits, y)
    grads, _ = cmlp_backward(config, params, x, dlogits[None, :])
    return grads


# ---------------------------------------------------------------------------
# Checkpoints: lossless round trip of config + parameters + seed.
# ---------------------------------------------------------------------------


# Each model kind's name in a checkpoint: its model, config and init types.
_KINDS = {
    "qmlp": (QmlpModel, QmlpConfig, init_qmlp),
    "qnn": (Pqc6Model, Pqc6Config, init_pqc6),
    "cmlp": (CmlpModel, CmlpConfig, init_cmlp),
}


def _config_from(cls, fields):
    """The config dataclass ``cls`` from its checkpoint fields: a nested
    config from its mapping, a list as a tuple."""
    if not isinstance(fields, dict):
        raise ValueError(f"checkpoint {cls.__name__} must be a mapping, got {type(fields).__name__}")
    hints = typing.get_type_hints(cls)
    return cls(**{k: _config_from(hints[k], v) if dataclasses.is_dataclass(hints.get(k))
                  else tuple(v) if isinstance(v, list) else v for k, v in fields.items()})


def save_model(path, model: Model, seed: int) -> None:
    kind = next(k for k, (cls, _, _) in _KINDS.items() if isinstance(model, cls))
    arrays = {f"param_{k}": v for k, v in tree_arrays(model.params).items()}
    np.savez(
        path,
        version=CHECKPOINT_VERSION,
        config=json.dumps({"kind": kind, **dataclasses.asdict(model.config)}, sort_keys=True),
        seed=seed,
        **arrays,
    )


def load_model(path) -> tuple[Model, int]:
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        cfg = json.loads(str(data["config"]))
        params = {
            k[len("param_") :]: data[k] for k in data.files if k.startswith("param_")
        }
        seed = int(data["seed"])
    if not isinstance(cfg, dict) or cfg.get("kind") not in tuple(_KINDS):  # a list kind is unhashable
        raise ValueError(f"checkpoint config names no known model kind: {cfg!r}")
    _, config_cls, init = _KINDS[cfg.pop("kind")]
    try:  # an unknown or missing field, or a value of the wrong type
        template = init(_config_from(config_cls, cfg), np.random.default_rng(0))  # for the shapes only
    except TypeError as exc:
        raise ValueError(f"malformed checkpoint config: {exc}") from None
    want = tree_arrays(template.params)
    for name, arr in want.items():
        if name not in params:
            raise ValueError(f"checkpoint has no parameter {name!r}")
        if params[name].shape != arr.shape:
            raise ValueError(
                f"checkpoint parameter {name!r} has shape {params[name].shape}, "
                f"the config implies {arr.shape}"
            )
    extra = sorted(set(params) - set(want))
    if extra:
        raise ValueError(f"checkpoint has unknown parameters {extra}")
    return replace_params(template, type(template.params)(**params)), seed
