"""Hybrid quantum-classical classifiers and their gradients.

Three model families: the re-uploading QMLP (angle or amplitude encoding,
ring CRX entanglers), the 4-qubit dense-angle QNN with all-to-all CRX
entanglers, and a one-hidden-layer classical MLP baseline.

A model's circuit is a list of ``sim.GateOp`` for a whole batch, with the
encoder's gates and initial amplitudes from ``encoding``; every pass runs it
as ``sim``'s fused blocks. Quantum gradients come from an adjoint backward
sweep (exact for expectation readouts) that starts from the state of the one
forward pass it also reads the logits from. Per block it
reduces the ket and bra to a small local cross matrix, reads every member
gate's gradient from it, and undoes the block with one kernel call; a dense
segment of shared gates is undone with one matmul and read from one
weighted full-register cross matrix. A
parameter-shift path with the four-term rule for controlled rotations runs
gate by gate and is kept alongside as an independent cross-check.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from . import sim
from .encoding import EncodingSpec, encoder_gates, initial_amplitudes
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

    @property
    def n_features(self) -> int:
        return 2 * self.n_qubits


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
# Circuit programs. A program is the gate list of a model evaluated over a
# whole batch: variational angles are scalars shared across the batch,
# encoding angles are per-sample vectors. Tags record which parameter (or
# input feature, with its chain-rule scale) each gate's angle came from.
# ---------------------------------------------------------------------------


def _qmlp_program(
    config: QmlpConfig, params: QmlpParams, X: np.ndarray
) -> tuple[list[GateOp], np.ndarray]:
    """Gate list plus initial amplitudes [B, 2**n] for a batch X [B, F] (or
    one input [F], with scalar encoding angles and amplitudes [2**n])."""
    n = config.n_qubits
    theta = params.theta
    kind = config.encoding.kind
    if kind not in ("angle", "amplitude"):
        raise ValueError(f"QMLP does not support {kind!r} encoding")
    encode = encoder_gates(X, kind, n)
    ops: list[GateOp] = []
    for layer in range(config.layers):
        if config.reupload or layer == 0:
            ops += encode
        base = (layer * n) * 3
        for q in range(n):
            ops.append(
                GateOp("RY", (q,), float(theta[layer, q, 0]), ("theta", base + 3 * q, 1.0))
            )
            ops.append(
                GateOp("RZ", (q,), float(theta[layer, q, 1]), ("theta", base + 3 * q + 1, 1.0))
            )
        if n > 1:
            for q in range(n):
                ops.append(
                    GateOp(
                        "CRX",
                        (q, (q + 1) % n),
                        float(theta[layer, q, 2]),
                        ("theta", base + 3 * q + 2, 1.0),
                    )
                )
    return ops, initial_amplitudes(X, kind, n)


def _pqc6_program(
    config: Pqc6Config, params: Pqc6Params, X: np.ndarray
) -> tuple[list[GateOp], np.ndarray]:
    n = config.n_qubits
    ops = encoder_gates(X, "dense_angle", n)
    rot_size = config.layers * n * 3
    for layer in range(config.layers):
        for q in range(n):
            for k, g in enumerate(("RY", "RZ", "RX")):
                ops.append(
                    GateOp(
                        g,
                        (q,),
                        float(params.rot[layer, q, k]),
                        ("theta", (layer * n + q) * 3 + k, 1.0),
                    )
                )
        j = 0
        for c in range(n):
            for t in range(n):
                if c == t:
                    continue
                flat = rot_size + layer * n * (n - 1) + j
                ops.append(
                    GateOp("CRX", (c, t), float(params.ent[layer, j]), ("theta", flat, 1.0))
                )
                j += 1
    return ops, initial_amplitudes(X, "dense_angle", n)


def _program(model: QuantumModel, X: np.ndarray):
    if isinstance(model, QmlpModel):
        return _qmlp_program(model.config, model.params, X)
    return _pqc6_program(model.config, model.params, X)


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
    ops, init = _qmlp_program(config, params, np.asarray(x, dtype=float))
    initial = None
    if config.encoding.kind == "amplitude":
        initial = StateVector(config.n_qubits, init)
    return CircuitSpec(config.n_qubits, tuple(ops), initial_state=initial)


def build_pqc6_circuit(
    config: Pqc6Config, params: Pqc6Params, x: np.ndarray
) -> CircuitSpec:
    """Single-sample QNN circuit: dense-angle encoding once, then per layer
    RY/RZ/RX on every qubit and a CRX for every ordered qubit pair."""
    ops, _ = _pqc6_program(config, params, np.asarray(x, dtype=float))
    return CircuitSpec(config.n_qubits, tuple(ops))


# ---------------------------------------------------------------------------
# Forward evaluation
# ---------------------------------------------------------------------------


def _z_diags(n_qubits: int) -> np.ndarray:
    return np.stack([sim.z_diagonal(n_qubits, q) for q in range(n_qubits)])


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
    n = model.config.n_qubits
    ops, init = _program(model, X)
    zd = _z_diags(n)
    if mode == "pure":
        if noise:
            raise ValueError("pure mode requires an empty noise policy")
        amps = sim._forward_amps(sim._densify(sim._fuse(ops), n), init)
        return (np.abs(amps) ** 2) @ zd.T
    if mode != "mixed":
        raise ValueError(f"unknown mode {mode!r}")
    dm = np.einsum("bi,bj->bij", init, init.conj())
    dm = sim._forward_dm(sim._fuse(ops), dm, noise)
    diag = np.einsum("bii->bi", dm).real
    return diag @ zd.T


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
# Adjoint gradients. For the loss L(logits(z)) with z_q = <Z_q>, the backward
# sweep differentiates <psi| O |psi> for O = sum_q w_q Z_q with w = dL/dz: the
# gradient through a gate exp(-i theta G / 2) is Im(<lambda| G |psi>), with
# psi the state just after the gate and lambda = (suffix unitary)^dagger O
# |psi_final>. One forward pass gives the logits, the loss gradient and
# psi_final; ket and lambda then travel back together as one [B, 2, dim]
# array, a block at a time. At a block's end the sweep reduces them to the
# local cross matrix M = Tr_rest |psi><lambda| ([B, 2, 2] on the block's
# qubit; for a controlled rotation, on its target within the control-1
# subspace, the only part its generator sees). A member's gradient is
# Im Tr(G M_k), with M_k = W^dagger M W the cross matrix just after it and W
# the product of the block's members after it; the sweep reads it as
# Im Tr((W G W^dagger) M), so the 2x2 algebra stays unbatched for shared
# gates. The whole block is then undone on ket and lambda with one kernel
# call. A dense segment (``sim._densify``) is first undone with one matmul by
# conj(U), its total unitary. At its start the sweep forms one weighted
# cross matrix M0 = sum_b w_b |psi_b><lambda_b| [dim, dim], shared by the
# batch; the state just after member k is P_k |psi>, with P_k the segment's
# prefix product through k, so the member's weighted gradient is
# Im Tr(G_k P_k M0 P_k^dagger), read for every member at once.
# ---------------------------------------------------------------------------


def _cross_matrix(state: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """M[b, a, c] = sum over the other qubits of ket[b, a] conj(bra[b, c]) for
    the stacked ket/bra ``state`` [B, 2, dim]; a and c are the bit of the
    last target (with the control bit set, for two targets)."""
    B, _, dim = state.shape
    t = targets[-1]
    # View as [B, ket|bra, target bit, other qubits...].
    if len(targets) == 1:
        v = state.reshape(B, 2, dim >> (t + 1), 2, 1 << t).transpose(0, 1, 3, 2, 4)
    else:
        c = targets[0]
        hi, lo = max(c, t), min(c, t)
        a = state.reshape(B, 2, dim >> (hi + 1), 2, (1 << hi) >> (lo + 1), 2, 1 << lo)
        if c > t:
            v = a[:, :, :, 1].transpose(0, 1, 4, 2, 3, 5)
        else:
            v = a[:, :, :, :, :, 1].transpose(0, 1, 3, 2, 4, 5)
    # Contract the longest of the other axes (vecdot conjugates the bra), sum the rest.
    rest = v.shape[3:]
    m = np.vecdot(v[:, 1, None, :], v[:, 0, :, None], axis=3 + rest.index(max(rest)))
    return m.sum(axis=tuple(range(3, m.ndim))) if m.ndim > 3 else m


def _segment_grads(seg: sim._Segment, m0: np.ndarray) -> np.ndarray:
    """Im Tr(G_k P_k M0 P_k^dagger) for every member k of a dense segment (0
    for fixed gates), with M0 the weighted cross matrix at its start. G_k is
    nonzero only at (a, cols[k, a, :]), so the trace sums G_k there times the
    inner product of row ``a`` of P_k with rows ``cols`` of P_k M0; P_k M0
    for every member is one gemm."""
    p = seg.prefix
    K, dim, _ = p.shape
    pm = (p.reshape(K * dim, dim) @ m0).reshape(p.shape)
    t = np.vecdot(p[:, :, None, :], pm[np.arange(K)[:, None, None], seg.cols])
    return np.sum(seg.gens * t, axis=(1, 2)).imag


def _dagger(mat: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(mat, -1, -2))


def _adjoint_backward(
    blocks: list[sim._Block],
    psi_final: np.ndarray,
    lam: np.ndarray,
    n_params: int,
    n_features: int,
    sample_scale: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (dtheta [n_params], dX [B, n_features], final bra); per-sample
    gate grads are reduced into dtheta at their tag indices with
    ``sample_scale`` weights. ``blocks`` are the forward pass's."""
    state = np.stack([psi_final, lam], axis=1)  # [B, 2, dim]: ket, bra
    dtheta = np.zeros(n_params)
    dX = np.zeros((psi_final.shape[0], n_features))
    for block in reversed(blocks):
        if isinstance(block, sim._Segment):
            state = sim.apply_dense(state, _dagger(block.mat))
            m0 = (sample_scale[:, None] * state[:, 0]).T @ state[:, 1].conj()
            for op, g in zip(block.members, _segment_grads(block, m0)):
                if op.tag is not None:  # a "theta" tag; segments hold no input tags
                    dtheta[op.tag[1]] += op.tag[2] * g
            continue
        m = None
        after = None  # product of the members after the current one
        for ins, mat in zip(reversed(block.members), reversed(block.mats)):
            if ins.tag is not None:
                if m is None:
                    m = _cross_matrix(state, block.targets)
                    m_scaled = sample_scale[:, None, None] * m
                gen = sim._GENERATORS[ins.kind]
                if after is not None:
                    gen = after @ gen @ _dagger(after)
                gen_t = np.swapaxes(gen, -1, -2)
                what, idx, scale = ins.tag
                if what == "theta":
                    dtheta[idx] += scale * float(np.sum(gen_t * m_scaled).imag)
                else:
                    dX[:, idx] += scale * sample_scale * np.sum(gen_t * m, axis=(-2, -1)).imag
            after = mat if after is None else after @ mat
        state = sim._apply_instr(state, block, _dagger(block.mat))
    return dtheta, dX, state[:, 1]


def _quantum_backward(
    model: QuantumModel,
    X: np.ndarray,
    loss_grad,
    sample_weights: np.ndarray | None = None,
):
    """Logits and weighted-sum gradients from one forward pass.
    ``loss_grad`` maps the logits [B, C] to per-sample dL/dlogits [B, C].
    Returns (logits, param grads, dX [B, F] per-sample); the logits equal
    ``forward_batch``'s bit for bit."""
    X = np.asarray(X, dtype=float)
    B = X.shape[0]
    w = np.ones(B) if sample_weights is None else np.asarray(sample_weights, dtype=float)
    n = model.config.n_qubits
    head_w = model.params.head_w

    ops, init = _program(model, X)
    blocks = sim._densify(sim._fuse(ops), n)
    psi = sim._forward_amps(blocks, init)
    zd = _z_diags(n)
    z = (np.abs(psi) ** 2) @ zd.T
    logits = z @ head_w.T + model.params.head_b
    dlogits = loss_grad(logits)

    obs_w = dlogits @ head_w  # [B, n] = dL/dz
    diag = obs_w @ zd  # [B, dim]
    lam = diag * psi

    n_params = flatten_params(model.params).size
    dflat, dX, lam0 = _adjoint_backward(blocks, psi, lam, n_params, X.shape[1], w)

    if isinstance(model, QmlpModel) and model.config.encoding.kind == "amplitude":
        # d<O>/dv through v/||v||, v = zero-padded x (grads are real-valued).
        norms = np.linalg.norm(X, axis=1)
        gr = 2.0 * lam0.real[:, : X.shape[1]]
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
):
    """(logits [B, C], parameter grads, dX [B, F]) of the weighted loss whose
    per-sample logit gradient is ``loss_grad(logits)``, from one forward pass.
    Pure (noiseless) mode only; use spsa_grad under noise."""
    X = np.asarray(X, dtype=float)
    if isinstance(model, CmlpModel):
        logits = cmlp_forward_batch(model.config, model.params, X)
        grads, dX = cmlp_backward(
            model.config, model.params, X, loss_grad(logits), sample_weights
        )
        return logits, grads, dX
    return _quantum_backward(model, X, loss_grad, sample_weights)


def _single_grads(model: Model, x: np.ndarray, y, loss_fn):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    _, grads, dX = logits_and_grads(
        model, x, lambda logits: loss_fn(logits[0], y)[1][None, :]
    )
    return grads, dX[0]


def grad_params(model: Model, x: np.ndarray, y, loss_fn):
    """Gradient of ``loss_fn(logits, y)`` w.r.t. all model parameters.

    ``loss_fn`` returns (loss, dloss/dlogits). Pure (noiseless) mode only;
    use spsa_grad under noise.
    """
    return _single_grads(model, x, y, loss_fn)[0]


def grad_input(model: Model, x: np.ndarray, y, loss_fn) -> np.ndarray:
    """Gradient of the loss w.r.t. the input features (pure mode only)."""
    return _single_grads(model, x, y, loss_fn)[1]


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
    """
    X = np.asarray(X, dtype=float)
    w = np.ones(X.shape[0]) if sample_weights is None else np.asarray(sample_weights)

    def batch_loss(vec):
        m = replace_params(model, unflatten_params(model.params, vec))
        losses = loss_fn(forward_batch(m, X, mode, noise), targets)
        return float(np.dot(w, losses) / np.sum(w))

    est = spsa_estimate(batch_loss, flatten_params(model.params), c, rng)
    return unflatten_params(model.params, est)


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


def _config_payload(model: Model) -> dict:
    cfg = model.config
    if isinstance(model, QmlpModel):
        enc = cfg.encoding
        return {
            "kind": "qmlp",
            "layers": cfg.layers,
            "n_classes": cfg.n_classes,
            "n_qubits": cfg.n_qubits,
            "reupload": cfg.reupload,
            "encoding": {
                "kind": enc.kind,
                "n_qubits": enc.n_qubits,
                "input_range": list(enc.input_range),
            },
        }
    if isinstance(model, Pqc6Model):
        return {
            "kind": "qnn",
            "n_qubits": cfg.n_qubits,
            "layers": cfg.layers,
            "n_classes": cfg.n_classes,
        }
    return {
        "kind": "cmlp",
        "input_dim": cfg.input_dim,
        "hidden_dim": cfg.hidden_dim,
        "n_classes": cfg.n_classes,
    }


def save_model(path, model: Model, seed: int) -> None:
    arrays = {f"param_{k}": v for k, v in tree_arrays(model.params).items()}
    np.savez(
        path,
        version=CHECKPOINT_VERSION,
        config=json.dumps(_config_payload(model), sort_keys=True),
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
    kind = cfg.pop("kind")
    if kind == "qmlp":
        enc = cfg.pop("encoding")
        config = QmlpConfig(
            encoding=EncodingSpec(
                enc["kind"], enc["n_qubits"], tuple(enc["input_range"])
            ),
            **cfg,
        )
        init = init_qmlp
    elif kind == "qnn":
        config, init = Pqc6Config(**cfg), init_pqc6
    elif kind == "cmlp":
        config, init = CmlpConfig(**cfg), init_cmlp
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    template = init(config, np.random.default_rng(0))  # for the shapes only
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
