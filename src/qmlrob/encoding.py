"""Classical-to-quantum feature encodings.

Three schemes are supported: one RY rotation per qubit (angle), a normalized
amplitude write (amplitude), and the four-rotation-per-qubit dense angle
sequence used by the 4-qubit QNN.

Each encoder is built here once, for a whole batch: ``encoder_gates`` gives
its tagged per-sample gates and ``initial_amplitudes`` the state they start
from. The models' circuits and ``encode_states`` both use them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sim import CircuitSpec, GateOp, StateVector, run_circuit_amps

ENCODING_KINDS = frozenset({"angle", "amplitude", "dense_angle"})


@dataclass(frozen=True)
class EncodingSpec:
    kind: str
    n_qubits: int
    input_range: tuple[float, float]

    def __post_init__(self):
        if self.kind not in ENCODING_KINDS:
            raise ValueError(f"unknown encoding kind {self.kind!r}")
        if self.input_range[0] >= self.input_range[1]:
            raise ValueError("input_range must be ascending")


def encoder_gates(X: np.ndarray, kind: str, n_qubits: int) -> list[GateOp]:
    """The encoder's gates for inputs ``X`` ([B, F], or one input [F]), each
    angle ``X[..., i]`` (per sample) and tagged with its feature.

    angle: one RY(x_q) on qubit q; qubits past the feature count stay
    untouched. dense_angle: per qubit q with (a, b) = (x[2q], x[2q+1]):
    RZ(a), RX(b), RZ(a/2), RX(b/2), in that order. amplitude: no gates.
    """
    n_features = X.shape[-1]
    if kind == "angle":
        if n_features > n_qubits:
            raise ValueError(f"{n_features} features exceed {n_qubits} qubits")
        return [GateOp("RY", (q,), X[..., q], ("x", q, 1.0)) for q in range(n_features)]
    if kind == "amplitude":
        return []
    if n_features != 2 * n_qubits:
        raise ValueError(f"dense angle encoding needs {2 * n_qubits} features, got {n_features}")
    ops = []
    for q in range(n_qubits):
        a, b = X[..., 2 * q], X[..., 2 * q + 1]
        ops.append(GateOp("RZ", (q,), a, ("x", 2 * q, 1.0)))
        ops.append(GateOp("RX", (q,), b, ("x", 2 * q + 1, 1.0)))
        ops.append(GateOp("RZ", (q,), a / 2, ("x", 2 * q, 0.5)))
        ops.append(GateOp("RX", (q,), b / 2, ("x", 2 * q + 1, 0.5)))
    return ops


def initial_amplitudes(X: np.ndarray, kind: str, n_qubits: int) -> np.ndarray:
    """Amplitudes [..., 2**n_qubits] the encoder starts from: each input
    zero-padded and L2-normalized for amplitude encoding, |0...0> otherwise."""
    dim = 2**n_qubits
    init = np.zeros(X.shape[:-1] + (dim,), dtype=complex)
    if kind != "amplitude":
        init[..., 0] = 1.0
        return init
    if X.shape[-1] > dim:
        raise ValueError(f"{X.shape[-1]} features exceed 2**{n_qubits} amplitudes")
    norms = np.linalg.norm(X, axis=-1)
    if np.any(norms == 0):
        raise ValueError("amplitude encoding of an all-zero vector is undefined")
    init[..., : X.shape[-1]] = X / norms[..., None]
    return init


def rescale(
    x: np.ndarray, from_bounds: np.ndarray, to_range: tuple[float, float]
) -> np.ndarray:
    """Affine per-dimension map from [min, max] bounds onto ``to_range``.

    ``from_bounds`` has shape [D, 2]; constant dimensions map to the midpoint.
    Total function: values outside the bounds extrapolate linearly.
    """
    x = np.asarray(x, dtype=float)
    from_bounds = np.asarray(from_bounds, dtype=float)
    lo, hi = to_range
    mn, mx = from_bounds[..., 0], from_bounds[..., 1]
    span = mx - mn
    out = np.full_like(x, (lo + hi) / 2.0)
    nz = span != 0
    scaled = (x[..., nz] - mn[nz]) / span[nz]
    out[..., nz] = lo + scaled * (hi - lo)
    return out


def feature_bounds(features: np.ndarray) -> np.ndarray:
    """Per-dimension [min, max] of a feature matrix, shape [D, 2]."""
    return np.stack([features.min(axis=0), features.max(axis=0)], axis=1)


def encode_states(X: np.ndarray, spec: EncodingSpec) -> np.ndarray:
    """Outputs [B, 2**n] of the encoder-only circuit for a batch X [B, F]
    (ESS substrate)."""
    X = np.asarray(X, dtype=float)
    ops = encoder_gates(X, spec.kind, spec.n_qubits)
    init = initial_amplitudes(X, spec.kind, spec.n_qubits)
    return run_circuit_amps(CircuitSpec(spec.n_qubits, tuple(ops)), init)


def encode_state(x: np.ndarray, spec: EncodingSpec) -> StateVector:
    """Output of the encoder-only circuit for one input."""
    return StateVector(spec.n_qubits, encode_states(np.atleast_2d(x), spec)[0])
