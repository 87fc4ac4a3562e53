"""Reference simulator that the benchmark checks qmlrob's outputs against.

It shares no code with ``qmlrob.sim``. Every gate is a dense 2**n x 2**n
operator built from Kronecker products of 2x2 matrices, and every noise
channel is a Kraus sum of such operators. Qubit ``q`` is bit ``q`` of the
basis index (qubit 0 is the least significant bit), so qubit 0 is the
rightmost Kronecker factor. A controlled gate is P0(control) x I +
P1(control) x M(target). Channels follow each gate on each of its qubits,
control first, in list order.

It is slow and plain on purpose: it is the oracle, not a second fast path.
Run ``python3 qrbench/refsim.py`` to check it against closed-form results.
"""

from __future__ import annotations

import math

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
# Matrix units |i><j|: a per-sample 2x2 gate is the sum of its entries times
# these, so one dense operator per unit serves the whole batch.
UNITS = {
    (i, j): np.array([[float(i == a and j == b) for b in (0, 1)] for a in (0, 1)], dtype=complex)
    for i in (0, 1)
    for j in (0, 1)
}
FIXED = {"X": X, "Y": Y, "Z": Z, "H": H, "CX": X}


def rotation(kind: str, theta) -> np.ndarray:
    """exp(-i theta P / 2) for P = X, Y or Z; ``theta`` may be an array, and
    the result then has shape theta.shape + (2, 2)."""
    th = np.asarray(theta, dtype=float)[..., None, None]
    pauli = {"RX": X, "CRX": X, "RY": Y, "RZ": Z}[kind]
    return np.cos(th / 2) * I2 - 1j * np.sin(th / 2) * pauli


def kron_op(n: int, factors: dict[int, np.ndarray]) -> np.ndarray:
    """Dense operator with ``factors[q]`` on qubit q and identity elsewhere."""
    out = np.ones((1, 1), dtype=complex)
    for q in reversed(range(n)):
        out = np.kron(out, factors.get(q, I2))
    return out


def gate_terms(n: int, kind: str, qubits: tuple[int, ...], angle=None):
    """The gate as a list of (coefficient, dense operator) terms. A
    coefficient is 1.0 or, for a per-sample angle, an array over the batch."""
    if kind in FIXED:
        mat = FIXED[kind]
    else:
        mat = rotation(kind, angle)
    if len(qubits) == 1:
        (t,), fixed = qubits, {}
    else:
        (c, t), fixed = qubits, {qubits[0]: P1}
    if mat.ndim == 2:
        terms = [(1.0, kron_op(n, {**fixed, t: mat}))]
    else:
        terms = [(mat[:, i, j], kron_op(n, {**fixed, t: unit})) for (i, j), unit in UNITS.items()]
    if len(qubits) == 2:
        terms.append((1.0, kron_op(n, {c: P0})))
    return terms


def _coef(c, extra_axes: int):
    return c if np.ndim(c) == 0 else np.reshape(c, (-1,) + (1,) * extra_axes)


def apply_pure(psi: np.ndarray, terms) -> np.ndarray:
    """psi [B, D] -> U psi per sample."""
    return sum(_coef(c, 1) * (psi @ op.T) for c, op in terms)


def gate_unitaries(terms, batch: int) -> np.ndarray:
    """[B, D, D] per-sample unitaries of one gate."""
    dim = terms[0][1].shape[0]
    u = np.zeros((batch, dim, dim), dtype=complex)
    for c, op in terms:
        u += _coef(c, 2) * op
    return u


# ---------------------------------------------------------------------------
# Channels, as Kraus operators on one qubit
# ---------------------------------------------------------------------------


def depolarizing(p: float) -> list[np.ndarray]:
    """rho -> (1 - p) rho + (p / 3) (X rho X + Y rho Y + Z rho Z)."""
    return [math.sqrt(1 - p) * I2, math.sqrt(p / 3) * X, math.sqrt(p / 3) * Y, math.sqrt(p / 3) * Z]


def amplitude_damping(gamma: float) -> list[np.ndarray]:
    """Decay |1> -> |0> with probability gamma."""
    return [
        np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex),
        np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex),
    ]


CHANNELS = {"depolarizing": depolarizing, "amplitude_damping": amplitude_damping}


def apply_channel(rho: np.ndarray, n: int, kraus: list[np.ndarray], qubit: int) -> np.ndarray:
    out = np.zeros_like(rho)
    for e in kraus:
        k = kron_op(n, {qubit: e})
        out += k @ rho @ k.conj().T
    return out


# ---------------------------------------------------------------------------
# Circuits: a gate is (kind, qubits, angle); the angle is None, a float, or
# a per-sample array.
# ---------------------------------------------------------------------------


def run_pure(n: int, gates, psi: np.ndarray) -> np.ndarray:
    for kind, qubits, angle in gates:
        psi = apply_pure(psi, gate_terms(n, kind, qubits, angle))
    return psi


def run_mixed(n: int, gates, rho: np.ndarray, channels) -> np.ndarray:
    """rho [B, D, D]; ``channels`` is a list of Kraus lists applied after
    every gate to each of the gate's qubits, in order."""
    for kind, qubits, angle in gates:
        u = gate_unitaries(gate_terms(n, kind, qubits, angle), rho.shape[0])
        rho = u @ rho @ np.conj(np.swapaxes(u, -1, -2))
        for q in qubits:
            for kraus in channels:
                rho = apply_channel(rho, n, kraus, q)
    return rho


def basis_probs(state: np.ndarray) -> np.ndarray:
    """[B, D] probabilities from statevectors [B, D] or density matrices."""
    if state.ndim == 3:
        return np.real(np.einsum("bii->bi", state))
    return np.abs(state) ** 2


def z_expectations(state: np.ndarray, n: int) -> np.ndarray:
    """[B, n] values of <Z_q>."""
    idx = np.arange(2**n)
    signs = np.stack([1.0 - 2.0 * ((idx >> q) & 1) for q in range(n)], axis=1)
    return basis_probs(state) @ signs


def zero_states(batch: int, n: int, mixed: bool) -> np.ndarray:
    psi = np.zeros((batch, 2**n), dtype=complex)
    psi[:, 0] = 1.0
    return np.einsum("bi,bj->bij", psi, psi.conj()) if mixed else psi


# ---------------------------------------------------------------------------
# The model architectures, written from their documented structure
# ---------------------------------------------------------------------------


def qmlp_gates(theta: np.ndarray, x: np.ndarray, reupload: bool = True):
    """Angle-encoded QMLP: per layer RY(x_q) on each qubit (every layer, or
    the first only), then RY, RZ on each qubit, then a ring of CRX(q, q+1)."""
    layers, n, _ = theta.shape
    gates = []
    for layer in range(layers):
        if reupload or layer == 0:
            gates += [("RY", (q,), x[:, q]) for q in range(x.shape[1])]
        for q in range(n):
            gates += [("RY", (q,), theta[layer, q, 0]), ("RZ", (q,), theta[layer, q, 1])]
        if n > 1:
            gates += [("CRX", (q, (q + 1) % n), theta[layer, q, 2]) for q in range(n)]
    return gates


def dense_angle_gates(x: np.ndarray, n: int):
    """Dense-angle encoding: per qubit q with (a, b) = (x[2q], x[2q+1]),
    RZ(a), RX(b), RZ(a/2), RX(b/2)."""
    gates = []
    for q in range(n):
        a, b = x[:, 2 * q], x[:, 2 * q + 1]
        gates += [("RZ", (q,), a), ("RX", (q,), b), ("RZ", (q,), a / 2), ("RX", (q,), b / 2)]
    return gates


def qnn_gates(rot: np.ndarray, ent: np.ndarray, x: np.ndarray):
    """4-qubit QNN: dense-angle encoding, then per layer RY, RZ, RX on each
    qubit and a CRX for every ordered pair (c, t), c != t, c-major."""
    layers, n, _ = rot.shape
    gates = dense_angle_gates(x, n)
    for layer in range(layers):
        for q in range(n):
            gates += [(g, (q,), rot[layer, q, k]) for k, g in enumerate(("RY", "RZ", "RX"))]
        pairs = [(c, t) for c in range(n) for t in range(n) if c != t]
        gates += [("CRX", pair, ent[layer, j]) for j, pair in enumerate(pairs)]
    return gates


def model_logits(kind: str, params: dict, x: np.ndarray, channels=None, reupload: bool = True):
    """Logits [B, C] of a 'qmlp' (angle encoding) or 'qnn' model from its
    parameter arrays. ``channels`` (Kraus lists) selects the mixed path."""
    x = np.asarray(x, dtype=float)
    if kind == "qmlp":
        n = params["theta"].shape[1]
        gates = qmlp_gates(params["theta"], x, reupload)
    elif kind == "qnn":
        n = params["rot"].shape[1]
        gates = qnn_gates(params["rot"], params["ent"], x)
    else:
        raise ValueError(f"the reference simulator has no model kind {kind!r}")
    mixed = channels is not None
    start = zero_states(len(x), n, mixed)
    state = run_mixed(n, gates, start, channels) if mixed else run_pure(n, gates, start)
    return z_expectations(state, n) @ params["head_w"].T + params["head_b"]


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    m = logits.max(axis=1, keepdims=True)
    logp = logits - m - np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    return -logp[np.arange(len(labels)), labels]


# ---------------------------------------------------------------------------
# Closed-form checks of the simulator itself
# ---------------------------------------------------------------------------


def _close(got, want, tol=1e-12) -> bool:
    return bool(np.max(np.abs(np.asarray(got) - np.asarray(want))) <= tol)


def check_bell() -> bool:
    """H(0), CX(0 -> 1) on |000>: <Z0> = <Z1> = 0, <Z2> = 1, and the state is
    (|000> + |011>) / sqrt(2), so p(index 0) = p(index 3) = 1/2."""
    psi = run_pure(3, [("H", (0,), None), ("CX", (0, 1), None)], zero_states(1, 3, False))
    rho = run_mixed(3, [("H", (0,), None), ("CX", (0, 1), None)], zero_states(1, 3, True), [])
    want_p = np.zeros(8)
    want_p[[0, 3]] = 0.5
    return all(
        _close(z_expectations(s, 3)[0], [0.0, 0.0, 1.0]) and _close(basis_probs(s)[0], want_p)
        for s in (psi, rho)
    )


def check_rotations() -> bool:
    """<Z> = cos(theta) after RX or RY on |0>, after H RZ H, and after a CRX
    whose control is |1>; X on qubit q moves |0...0> to basis index 2**q."""
    th = np.array([0.3, 1.1, 2.5])
    ok = True
    for kind in ("RX", "RY"):
        psi = run_pure(2, [(kind, (1,), th)], zero_states(3, 2, False))
        ok &= _close(z_expectations(psi, 2)[:, 1], np.cos(th))
    psi = run_pure(1, [("H", (0,), None), ("RZ", (0,), th), ("H", (0,), None)], zero_states(3, 1, False))
    ok &= _close(z_expectations(psi, 1)[:, 0], np.cos(th))
    psi = run_pure(3, [("X", (2,), None), ("CRX", (2, 0), th)], zero_states(3, 3, False))
    ok &= _close(z_expectations(psi, 3)[:, 0], np.cos(th))
    psi = run_pure(3, [("CRX", (2, 0), th)], zero_states(3, 3, False))
    ok &= _close(z_expectations(psi, 3)[:, 0], 1.0)
    for q in range(3):
        psi = run_pure(3, [("X", (q,), None)], zero_states(1, 3, False))
        ok &= _close(basis_probs(psi)[0, 2**q], 1.0)
    return bool(ok)


def check_depolarizing() -> bool:
    """I/2 is the fixed point of depolarizing noise, and k applications take
    <Z> of |0> to (1 - 4p/3)**k."""
    p, k = 0.2, 5
    rho = np.eye(2, dtype=complex)[None] / 2
    ok = _close(apply_channel(rho, 1, depolarizing(p), 0), rho)
    rho = zero_states(1, 1, True)
    for _ in range(k):
        rho = apply_channel(rho, 1, depolarizing(p), 0)
    return bool(ok and _close(z_expectations(rho, 1)[0, 0], (1 - 4 * p / 3) ** k))


def check_amplitude_damping() -> bool:
    """k applications leave (1 - gamma)**k of |1>, and |0> is fixed."""
    gamma, k = 0.3, 4
    rho = run_mixed(2, [("X", (1,), None)], zero_states(1, 2, True), [])
    for _ in range(k):
        rho = apply_channel(rho, 2, amplitude_damping(gamma), 1)
    p1 = basis_probs(rho)[0, 2]
    ground = apply_channel(zero_states(1, 2, True), 2, amplitude_damping(gamma), 1)
    return bool(_close(p1, (1 - gamma) ** k) and _close(ground, zero_states(1, 2, True)))


def check_channel_order() -> bool:
    """X then [depolarizing p, damping g] leaves p(|1>) = (1-g)(1-2p/3); the
    reverse order gives (1-g)(1-4p/3) + 2p/3. A CX carries the channels on
    both of its qubits."""
    p, g = 0.1, 0.25
    start = zero_states(1, 1, True)
    fwd = run_mixed(1, [("X", (0,), None)], start, [depolarizing(p), amplitude_damping(g)])
    rev = run_mixed(1, [("X", (0,), None)], start, [amplitude_damping(g), depolarizing(p)])
    ok = _close(basis_probs(fwd)[0, 1], (1 - g) * (1 - 2 * p / 3))
    ok &= _close(basis_probs(rev)[0, 1], (1 - g) * (1 - 4 * p / 3) + 2 * p / 3)
    both = run_mixed(2, [("CX", (1, 0), None)], zero_states(1, 2, True), [depolarizing(p)])
    ok &= _close(z_expectations(both, 2)[0], [1 - 4 * p / 3] * 2)
    return bool(ok)


SELF_CHECKS = {
    "refsim_bell": check_bell,
    "refsim_rotations": check_rotations,
    "refsim_depolarizing": check_depolarizing,
    "refsim_amplitude_damping": check_amplitude_damping,
    "refsim_channel_order": check_channel_order,
}


if __name__ == "__main__":
    failed = [name for name, check in SELF_CHECKS.items() if not check()]
    for name in SELF_CHECKS:
        print(f"{name}: {'FAIL' if name in failed else 'ok'}")
    raise SystemExit(1 if failed else 0)
