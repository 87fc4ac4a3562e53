"""Classical-to-quantum feature encodings.

Three schemes are supported: one RY rotation per qubit (angle), a normalized
amplitude write (amplitude), and the four-rotation-per-qubit dense angle
sequence used by the 4-qubit QNN.

Each encoder is defined here once: ``check_features`` its input widths,
``encoder_structure`` its gates, each tagged with the input feature its
angle comes from, ``encoder_gates`` those gates for a batch and
``initial_amplitudes`` the state they start from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sim import GateOp, Program, StateVector, _forward_amps

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


def check_features(kind: str, n_qubits: int, n_features: int) -> None:
    """Raise ``ValueError`` unless the encoder takes inputs of ``n_features``:
    angle at most one per qubit, amplitude at most ``2**n_qubits``, dense
    angle exactly two per qubit."""
    most = {"angle": n_qubits, "amplitude": 2**n_qubits}.get(kind, 2 * n_qubits)
    if n_features > most or (kind == "dense_angle" and n_features != most):
        rule = "exactly" if kind == "dense_angle" else "at most"
        raise ValueError(f"{kind} encoding on {n_qubits} qubits takes {rule} {most} features, got {n_features}")


def encoder_structure(kind: str, n_qubits: int, n_features: int) -> list[tuple]:
    """The encoder's gates for inputs of ``n_features`` as (kind, targets,
    tag): the gate's angle is ``scale * x[i]`` for its tag ("x", i, scale).

    angle: one RY(x_q) on qubit q; qubits past the feature count stay
    untouched. dense_angle: per qubit q with (a, b) = (x[2q], x[2q+1]):
    RZ(a), RX(b), RZ(a/2), RX(b/2), in that order. amplitude: no gates.
    """
    check_features(kind, n_qubits, n_features)
    if kind == "angle":
        return [("RY", (q,), ("x", q, 1.0)) for q in range(n_features)]
    if kind == "amplitude":
        return []
    return [
        (g, (q,), ("x", 2 * q + (g == "RX"), scale))
        for q in range(n_qubits)
        for scale in (1.0, 0.5)
        for g in ("RZ", "RX")
    ]


def encoder_gates(X: np.ndarray, kind: str, n_qubits: int) -> list[GateOp]:
    """``encoder_structure``'s gates for inputs ``X`` ([B, F], or one [F])."""
    return [
        GateOp(g, ts, tag[2] * X[..., tag[1]], tag)
        for g, ts, tag in encoder_structure(kind, n_qubits, X.shape[-1])
    ]


def initial_amplitudes(X: np.ndarray, kind: str, n_qubits: int) -> np.ndarray:
    """Amplitudes [..., 2**n_qubits] the encoder starts from: each input
    zero-padded and L2-normalized for amplitude encoding, |0...0> otherwise."""
    check_features(kind, n_qubits, X.shape[-1])
    init = np.zeros(X.shape[:-1] + (2**n_qubits,), dtype=complex)
    if kind != "amplitude":
        init[..., 0] = 1.0
        return init
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
    (ESS substrate): its compiled program bound to ``X``."""
    X = np.asarray(X, dtype=float)
    program = Program(spec.n_qubits, tuple(encoder_structure(spec.kind, spec.n_qubits, X.shape[1])))
    init = initial_amplitudes(X, spec.kind, spec.n_qubits)
    return _forward_amps(program.bind(np.zeros(0), X)[0], init)


def encode_state(x: np.ndarray, spec: EncodingSpec) -> StateVector:
    """Output of the encoder-only circuit for one input."""
    return StateVector(spec.n_qubits, encode_states(np.atleast_2d(x), spec)[0])
