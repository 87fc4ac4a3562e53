"""Exact statevector and density-matrix simulation for small qubit registers.

Basis convention: computational basis index ``i`` encodes qubit ``q`` in bit
``q`` of ``i`` (qubit 0 is the least significant bit). All kernels operate on
the trailing axis (statevectors) or trailing two axes (density matrices), so
arbitrary leading batch dimensions are supported.

Local operators on a gate's targets use a local index in which the first
target is the high bit: for (control, target) the control is bit 1 and the
target bit 0, so a controlled gate is ``diag(I, U)``.

The noisy path keeps a state as its Pauli vector, the real r_P = Tr(P rho)
over the Pauli strings P (I, X, Y, Z per qubit): a ``[B] + [4] * n`` array,
one axis per qubit, the highest first. A gate with its noise channels acts
on its targets' axes as one real Pauli transfer matrix R[P, Q] = Tr(P Phi(Q))
/ 2**k on ``k`` targets (Chow et al., arXiv:1202.5344; Greenbaum,
arXiv:1509.02921), the first target the most significant: a unitary's is
orthogonal, and channels multiply it from the left in the order they act.
<Z_q> is the entry with Z on qubit q and I elsewhere. Kraus channels, and
the tests' reference, use Liouville superoperators on vec(rho)[i*d + j].

``GateOp`` is the public single-gate type; its angle may be per sample, so
one gate list describes a whole batch. Every circuit pass runs a ``Program``:
a circuit's structure compiled once, bound to its angles per call. It walks
the fused blocks of ``_fuse``: one kernel call, or one transfer matrix, per
block. The pure path runs each maximal run of blocks that fits a window of
at most ``N_DENSE`` consecutive qubits as one matmul on that window: a run
whose angles the whole batch shares as a dense segment (on up to
``N_DENSE`` qubits, the window is the whole register), and on wider
registers a run of per-sample single-qubit blocks as the per-sample
Kronecker product of their matrices. Only blocks wider than a window, and
per-sample blocks on narrow registers, are kernel calls. The adjoint sweep
(``Program.adjoint``) walks the same items back. The noisy
path builds every block's transfer matrix in a few batched calls, then
applies them to a Pauli vector kept in a tracked axis order
(``_apply_local``): each block moves only its targets' axes last, with one
copy.

Measurement is an exact expectation value; there is no shot sampling.

Memory: importing the module sets glibc's ``M_MMAP_THRESHOLD`` (1 GiB) and
``M_TRIM_THRESHOLD`` (2 GiB) with ``mallopt``, so freed blocks stay in the
heap. Otherwise glibc hands large freed blocks back to the OS, and a 9-qubit
batch-64 gradient step faults its 6 MB of temporaries in again: about 1,600
minor faults a step (``resource.getrusage().ru_minflt``), none with them.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
import numpy as np

ATOL = 1e-9


def _keep_freed_memory() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
    mallopt(-1, 2**31 - 1)  # M_TRIM_THRESHOLD: the largest int


_keep_freed_memory()

ROTATION_GATES = frozenset({"RX", "RY", "RZ", "CRX"})
SINGLE_QUBIT_GATES = frozenset({"X", "Y", "Z", "H", "RX", "RY", "RZ"})
TWO_QUBIT_GATES = frozenset({"CX", "CRX"})
GATE_KINDS = SINGLE_QUBIT_GATES | TWO_QUBIT_GATES

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_I = np.eye(2, dtype=complex)


_FIXED_GATES = {"X": _X, "CX": _X, "Y": _Y, "Z": _Z, "H": _H}
# Rotation generators: a rotation is exp(-i angle G / 2) on its target.
_GENERATORS = {"RX": _X, "RY": _Y, "RZ": _Z, "CRX": _X}


@dataclass(frozen=True, eq=False)
class GateOp:
    """One gate application: kind, target qubits, optional rotation angle and
    optional gradient tag.

    ``targets`` holds one index for single-qubit gates and (control, target)
    for CX/CRX. ``angle`` is a float shared by every sample, or a ``[B]``
    array with one angle per sample of a batch. ``tag`` is ("theta"|"x",
    flat index, scale): the parameter or input feature the angle came from,
    with its chain-rule scale. Gates compare and hash by identity, since a
    ``[B]`` angle has no single truth value.
    """

    kind: str
    targets: tuple[int, ...]
    angle: float | np.ndarray | None = None
    tag: tuple[str, int, float] | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        want = 1 if self.kind in SINGLE_QUBIT_GATES else 2
        if len(self.targets) != want:
            raise ValueError(f"{self.kind} takes {want} target(s), got {self.targets}")
        if self.kind in TWO_QUBIT_GATES and self.targets[0] == self.targets[1]:
            raise ValueError(f"{self.kind} control and target must differ")
        if self.kind in ROTATION_GATES and self.angle is None:
            raise ValueError(f"{self.kind} requires an angle")

    def base_matrix(self) -> np.ndarray:
        """The matrix acting on the target qubit (conditioned on the control
        for CX/CRX): ``[2, 2]``, or ``[B, 2, 2]`` for per-sample angles."""
        if self.kind not in ROTATION_GATES:
            return _FIXED_GATES[self.kind]
        return _rotation_matrices(self.kind, np.asarray(self.angle, dtype=float))


def _rotation_matrices(kind: str, th: np.ndarray) -> np.ndarray:
    """exp(-i th G / 2) for the rotation ``kind`` (CRX: its target block),
    one per entry of the angle array ``th``: ``th.shape + (2, 2)``."""
    c, s = np.cos(th / 2), np.sin(th / 2)
    m = np.zeros(th.shape + (2, 2), dtype=complex)
    if kind in ("RX", "CRX"):
        m[..., 0, 0] = c
        m[..., 0, 1] = -1j * s
        m[..., 1, 0] = -1j * s
        m[..., 1, 1] = c
    elif kind == "RY":
        m[..., 0, 0] = c
        m[..., 0, 1] = -s
        m[..., 1, 0] = s
        m[..., 1, 1] = c
    else:
        m[..., 0, 0] = np.exp(-0.5j * th)
        m[..., 1, 1] = np.exp(0.5j * th)
    return m


def controlled_unitary(mat: np.ndarray) -> np.ndarray:
    """4x4 controlled versions ``diag(I, mat)`` of a 2x2 matrix or a
    ``[..., 2, 2]`` stack: control in bit 1, target in bit 0."""
    u = np.zeros(mat.shape[:-2] + (4, 4), dtype=complex)
    u[..., 0, 0] = u[..., 1, 1] = 1.0
    u[..., 2:, 2:] = mat
    return u


def gate_unitary(op: GateOp) -> np.ndarray:
    """Full unitary realized by ``op``: 2x2, or 4x4 on (control, target) with
    the control in bit 1 and the target in bit 0 of the local index."""
    m = op.base_matrix()
    if op.kind in SINGLE_QUBIT_GATES:
        return m
    return controlled_unitary(m)


@dataclass(frozen=True)
class StateVector:
    """Pure n-qubit state as a complex amplitude array of length 2**n."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if self.amplitudes.shape != (2**self.n_qubits,):
            raise ValueError("amplitude length must be 2**n_qubits")

    def validate(self, atol: float = ATOL) -> None:
        norm = np.sum(np.abs(self.amplitudes) ** 2)
        if abs(norm - 1.0) > atol:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {atol}")


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed n-qubit state as a 2**n x 2**n complex matrix."""

    n_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        dim = 2**self.n_qubits
        if self.entries.shape != (dim, dim):
            raise ValueError("density matrix must be 2**n x 2**n")

    def validate(self, atol: float = ATOL) -> None:
        rho = self.entries
        if np.max(np.abs(rho - rho.conj().T)) > atol:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > atol:
            raise ValueError("density matrix trace deviates from 1")
        if np.linalg.eigvalsh(rho).min() < -atol:
            raise ValueError("density matrix has a negative eigenvalue")


def zero_state(n_qubits: int) -> StateVector:
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def pure_to_dm(state: StateVector) -> DensityMatrix:
    a = state.amplitudes
    return DensityMatrix(state.n_qubits, np.outer(a, a.conj()))


@dataclass(frozen=True)
class KrausChannel:
    """Single-qubit CPTP map given by 2x2 Kraus operators."""

    operators: tuple[np.ndarray, ...]
    kind: str
    param: float

    def completeness_defect(self) -> float:
        acc = sum(e.conj().T @ e for e in self.operators)
        return float(np.max(np.abs(acc - _I)))

    def validate(self, atol: float = 1e-12) -> None:
        if self.completeness_defect() > atol:
            raise ValueError(f"Kraus operators of {self.kind} are not complete")


def make_depolarizing(p: float) -> KrausChannel:
    """Depolarizing channel: leaves the state with probability 1-p and applies
    each Pauli with probability p/3."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability must be in [0, 1], got {p}")
    ops = (
        math.sqrt(1 - p) * _I,
        math.sqrt(p / 3) * _X,
        math.sqrt(p / 3) * _Y,
        math.sqrt(p / 3) * _Z,
    )
    return KrausChannel(ops, "depolarizing", p)


def make_amplitude_damping(gamma: float) -> KrausChannel:
    """Amplitude damping (energy relaxation toward |0>) with rate gamma."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"damping rate must be in [0, 1], got {gamma}")
    e0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    e1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausChannel((e0, e1), "amplitude_damping", gamma)


@dataclass(frozen=True)
class CircuitSpec:
    """Ordered gate list with an optional per-gate noise policy.

    ``noise`` lists channels applied after every gate to each of that gate's
    target qubits (both qubits of CX/CRX), in the given order. ``initial_state``
    overrides the default |0...0> start (used for amplitude-encoded inputs).
    """

    n_qubits: int
    ops: tuple[GateOp, ...]
    noise: tuple[KrausChannel, ...] = ()
    initial_state: StateVector | None = None

    def __post_init__(self):
        for op in self.ops:
            for t in op.targets:
                if not 0 <= t < self.n_qubits:
                    raise ValueError(
                        f"target {t} out of range for {self.n_qubits} qubits"
                    )
        if self.initial_state is not None and self.initial_state.n_qubits != self.n_qubits:
            raise ValueError("initial state qubit count mismatch")


# ---------------------------------------------------------------------------
# Statevector kernels. ``amps`` may carry leading batch axes; the basis index
# lives on the trailing axis. The single-qubit kernel updates amplitude pairs
# at stride 2**target.
# ---------------------------------------------------------------------------


def _mat_elems(mat: np.ndarray, like: np.ndarray):
    """2x2 matrix entries, shaped to broadcast against ``like``. ``mat`` is a
    plain 2x2 array or a stack of them with leading axes matching the amps'
    batch axes."""
    if mat.ndim == 2:
        return mat[0, 0], mat[0, 1], mat[1, 0], mat[1, 1]
    ext = mat.shape[:-2] + (1,) * (like.ndim - (mat.ndim - 2))
    return tuple(mat[..., i, j].reshape(ext) for i in (0, 1) for j in (0, 1))


def apply_1q(amps: np.ndarray, mat: np.ndarray, target: int) -> np.ndarray:
    shape = amps.shape
    dim = shape[-1]
    low = 1 << target
    a = amps.reshape(shape[:-1] + (dim // (2 * low), 2, low))
    a0 = a[..., 0, :]
    a1 = a[..., 1, :]
    m00, m01, m10, m11 = _mat_elems(np.asarray(mat), a0)
    out = np.empty_like(a)
    out[..., 0, :] = m00 * a0 + m01 * a1
    out[..., 1, :] = m10 * a0 + m11 * a1
    return out.reshape(shape)


def apply_controlled_1q(
    amps: np.ndarray, mat: np.ndarray, control: int, target: int
) -> np.ndarray:
    """Apply ``mat`` on ``target`` restricted to the control-bit-1 subspace."""
    shape = amps.shape
    dim = shape[-1]
    hi, lo = (control, target) if control > target else (target, control)
    a = amps.reshape(
        shape[:-1] + (dim >> (hi + 1), 2, (1 << hi) >> (lo + 1), 2, 1 << lo)
    ).copy()
    if control > target:
        x0 = a[..., 1, :, 0, :]
        x1 = a[..., 1, :, 1, :]
    else:
        x0 = a[..., 0, :, 1, :]
        x1 = a[..., 1, :, 1, :]
    m00, m01, m10, m11 = _mat_elems(np.asarray(mat), x0)
    new0 = m00 * x0 + m01 * x1
    new1 = m10 * x0 + m11 * x1
    if control > target:
        a[..., 1, :, 0, :] = new0
        a[..., 1, :, 1, :] = new1
    else:
        a[..., 0, :, 1, :] = new0
        a[..., 1, :, 1, :] = new1
    return a.reshape(shape)


def _apply_instr(amps: np.ndarray, ins, mat: np.ndarray) -> np.ndarray:
    """Apply ``mat`` on the targets of ``ins`` (a gate or a block): on the one
    qubit, or on the target when the control bit is set."""
    if len(ins.targets) == 1:
        return apply_1q(amps, mat, ins.targets[0])
    return apply_controlled_1q(amps, mat, ins.targets[0], ins.targets[1])


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply one gate to a pure state; returns a new state."""
    circuit = CircuitSpec(state.n_qubits, (gate,))
    return StateVector(state.n_qubits, run_circuit_amps(circuit, state.amplitudes))


def apply_gate_dm(dm: DensityMatrix, gate: GateOp) -> DensityMatrix:
    """Conjugate a density matrix by one gate; returns a new matrix."""
    circuit = CircuitSpec(dm.n_qubits, (gate,))
    return DensityMatrix(dm.n_qubits, run_circuit_dm(circuit, dm.entries))


def apply_channel_entries(dm: np.ndarray, channel: KrausChannel, qubit: int) -> np.ndarray:
    """sum_m E_m rho E_m^dagger on ``qubit`` of density matrices [..., d, d]."""
    return apply_local_superop(dm, sum(local_superop(e) for e in channel.operators), (qubit,))


def apply_channel(dm: DensityMatrix, channel: KrausChannel, qubit: int) -> DensityMatrix:
    """Apply a single-qubit Kraus channel to ``qubit``."""
    if not 0 <= qubit < dm.n_qubits:
        raise ValueError(f"qubit {qubit} out of range for {dm.n_qubits} qubits")
    return DensityMatrix(dm.n_qubits, apply_channel_entries(dm.entries, channel, qubit))


# ---------------------------------------------------------------------------
# Local maps (layouts in the module docstring): Liouville superoperators and
# the noisy path's transfer matrices, each applied by ``_apply_local``.
# ---------------------------------------------------------------------------


def local_superop(u: np.ndarray) -> np.ndarray:
    """Superoperator of the 1- or 2-qubit map rho -> u rho u^dagger (``u``
    ``[d, d]`` or a batch ``[B, d, d]``): ``[d*d, d*d]`` or ``[B, d*d, d*d]``."""
    d = u.shape[-1]
    return (u[..., :, None, :, None] * u.conj()[..., None, :, None, :]).reshape(u.shape[:-2] + (d * d, d * d))


@functools.lru_cache(maxsize=None)
def _pauli_strings(k: int) -> np.ndarray:
    """[4**k, 2**k, 2**k]: the Pauli strings on k <= 2 targets, the first high."""
    one = np.array([_I, _X, _Y, _Z])
    return one if k == 1 else np.einsum("pij,qkl->pqikjl", one, one).reshape(16, 4, 4)


def _transfer(s: np.ndarray) -> np.ndarray:
    """R[P, Q] = Tr(P Phi(Q)) / d of the map Phi with superoperator ``s``."""
    p = _pauli_strings(int(math.log2(len(s))) // 2).reshape(len(s), -1)  # row P: vec(P)
    return (p.conj() @ s @ p.T).real / math.sqrt(len(s))


_TRANSFER_CACHE: dict[tuple, list] = {}


def _transfer_terms(kind: str, noise: tuple[KrausChannel, ...]) -> list[tuple]:
    """Gate ``kind`` then ``noise`` as sum_f f(angle) K_f: the nonzero (f,
    K_f), f None meaning 1, built once per kind and noise. t(u), the transfer
    matrix of rho -> u rho u^dagger then the noise, is quadratic in u, and a
    rotation is U = M0 + cos(th/2) M1 + sin(th/2) M2 (M0 = 0 without a
    control), so t(U) = sum_ab u_a u_b t_ab with t_ab + t_ba = t(M_a + M_b) -
    t(M_a) - t(M_b) for a != b."""
    key = (kind, tuple((ch.kind, ch.param) for ch in noise))
    if key not in _TRANSFER_CACHE:
        n = np.eye(4)  # the noise on one target, then on each of two
        for ch in noise:
            n = _transfer(sum(local_superop(e) for e in ch.operators)) @ n
        lift, n = (controlled_unitary, np.kron(n, n)) if kind in TWO_QUBIT_GATES else (np.asarray, n)
        t = lambda u: n @ _transfer(local_superop(u))
        if kind not in ROTATION_GATES:
            ks = [t(lift(_FIXED_GATES[kind]))]
        else:  # c^2 = (1 + cos th) / 2, s^2 = (1 - cos th) / 2, cs = sin th / 2
            m0 = lift(0 * _I)
            m1, m2 = lift(_I) - m0, -1j * (lift(_GENERATORS[kind]) - m0)
            t0, t1, t2 = t(m0), t(m1), t(m2)
            ks = [t0 + (t1 + t2) / 2, (t1 - t2) / 2, (t(m1 + m2) - t1 - t2) / 2,
                  t(m0 + m1) - t0 - t1, t(m0 + m2) - t0 - t2]
        fs = (None, np.cos, np.sin, lambda th: np.cos(th / 2), lambda th: np.sin(th / 2))
        _TRANSFER_CACHE[key] = [(f, k) for f, k in zip(fs, ks) if k.any()]
    return _TRANSFER_CACHE[key]


def transfer_matrices(shape: tuple[int, ...], kinds: dict, noise: tuple[KrausChannel, ...]) -> np.ndarray:
    """Transfer matrices ``shape`` [..., D, D] of a class of gates, each then
    ``noise``: ``kinds`` maps a kind to its rows and angles (None: fixed)."""
    out = np.empty(shape)
    for kind, (rows, th) in kinds.items():
        terms = _transfer_terms(kind, noise)
        out[rows] = sum(k if f is None else f(th)[..., None, None] * k for f, k in terms)
    return out


@functools.lru_cache(maxsize=4096)
def _tracked_perm(order: tuple[int, ...], axes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For an array whose axis ``i`` holds the canonical axis ``order[i]``:
    the transpose that keeps the other axes in their order and moves the
    canonical ``axes`` last, in that order; and the axis order after it."""
    moved = [order.index(a) for a in axes]
    perm = tuple([i for i in range(len(order)) if i not in moved] + moved)
    return perm, tuple(order[i] for i in perm)


def _apply_local(x: np.ndarray, steps) -> np.ndarray:
    """Apply each ``(m, axes)`` of ``steps`` to ``x`` [B, ...]: a matrix, or
    one per sample [B, D, D], on the canonical ``axes`` (the first the most
    significant). With the axis order tracked, a step costs one copying
    reshape that moves only its axes last (none when they already are) and
    one matmul; the canonical order comes back as a view at the end."""
    order = tuple(range(x.ndim))
    for m, axes in steps:
        perm, order = _tracked_perm(order, axes)
        x = x.transpose(perm)
        dd = m.shape[-1]
        if m.ndim == 2:
            y = x.reshape(-1, dd) @ m.T
        else:
            y = x.reshape(x.shape[0], -1, dd) @ np.swapaxes(m, -1, -2)
        x = y.reshape(x.shape)
    return x.transpose(np.argsort(order))


def apply_local_superop(dm: np.ndarray, s: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """Apply a local superoperator ``s`` (shared, or one per sample of a
    ``[B, D, D]`` batch) to ``targets`` of a density matrix."""
    n = dm.shape[-1].bit_length() - 1
    axes = tuple(n - t for t in targets)  # a qubit's row bit, then its column bit
    x = dm.reshape((-1,) + (2,) * (2 * n))
    return _apply_local(x, [(s, axes + tuple(a + n for a in axes))]).reshape(dm.shape)


def dm_to_pauli(rho: np.ndarray) -> np.ndarray:
    """Pauli vectors [B] + [4] * n of Hermitian [B, 2**n, 2**n] (or one), in
    real arithmetic: per qubit t[P, 2i + j] = Re P[j, i] + Im P[j, i], so
    Tr(P rho) = i^y t(rho)_P for y Ys in P. r_P is real, so t(Im rho)_P = 0
    for even y, t(Re rho)_P for odd: r_P = (-1)^ceil(y/2) t(Re + Im rho)_P."""
    n = rho.shape[-1].bit_length() - 1
    pairs = (0, *[a for q in range(1, n + 1) for a in (q, q + n)])  # each qubit's row, column bit
    x = rho.real + rho.imag if np.iscomplexobj(rho) else rho
    x = x.reshape((-1,) + (2,) * (2 * n)).transpose(pairs).reshape((-1,) + (4,) * n)
    t = _pauli_strings(1).transpose(0, 2, 1).reshape(4, 4)
    y = functools.reduce(np.add.outer, [np.array([0, 0, 1, 0])] * n)
    return _apply_local(x, [(t.real + t.imag, (a,)) for a in range(1, n + 1)]) * (1 - (y + 1) // 2 % 2 * 2)


def pauli_to_dm(r: np.ndarray) -> np.ndarray:
    """Density matrices [B, 2**n, 2**n] of Pauli vectors [B] + [4] * n."""
    n = r.ndim - 1
    t = _pauli_strings(1).reshape(4, 4).T / 2  # t[2i + j, P] = P[i, j] / 2
    x = _apply_local(r, [(t, (a,)) for a in range(1, n + 1)]).reshape((-1,) + (2,) * (2 * n))
    return x.transpose(0, *range(1, 2 * n, 2), *range(2, 2 * n + 1, 2)).reshape(len(r), 1 << n, 1 << n)


@functools.lru_cache(maxsize=16)
def zero_pauli(n_qubits: int) -> np.ndarray:
    """The Pauli vector [4] * n of |0...0>: 1 where each qubit has I or Z."""
    r = functools.reduce(np.multiply.outer, [np.array([1.0, 0.0, 0.0, 1.0])] * n_qubits)
    r.flags.writeable = False
    return r


def expect_z_pauli(r: np.ndarray) -> np.ndarray:
    """<Z_q> [B, n] of Pauli vectors [B] + [4] * n: r with Z on q, I elsewhere."""
    return r[(slice(None), *(3 * np.eye(r.ndim - 1, dtype=int)[::-1]))]


# ---------------------------------------------------------------------------
# Gate fusion. A block is a maximal run of single-qubit gates on one qubit,
# with no gate in between touching that qubit, or one two-qubit gate. Gates
# on different qubits commute, so moving a run's later members back to its
# first one is exact. The forward, the adjoint sweep and the noisy path all
# walk the same blocks: one kernel call (or one superoperator) per block,
# while each member keeps its own matrix and tag for the gradient.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Block:
    targets: tuple[int, ...]
    members: tuple[int, ...]  # gate indices, in circuit order


def _fuse(targets) -> list[_Block]:
    """The blocks of a circuit whose gates act on ``targets`` (one per gate)."""
    runs: list[tuple[tuple[int, ...], list[int]]] = []
    open_run: dict[int, int] = {}  # qubit -> index of its open single-qubit run
    for i, ts in enumerate(targets):
        if len(ts) == 1 and ts[0] in open_run:
            runs[open_run[ts[0]]][1].append(i)
            continue
        for q in ts:
            open_run.pop(q, None)
        if len(ts) == 1:
            open_run[ts[0]] = len(runs)
        runs.append((ts, [i]))
    return [_Block(ts, tuple(members)) for ts, members in runs]


# ---------------------------------------------------------------------------
# Windows (pure path). A kernel call on a small window of qubits is mostly
# dispatch overhead, so each maximal run of blocks whose qubits fit a window
# of k <= N_DENSE consecutive qubits is applied as one 2^k x 2^k matmul on
# that window's bits of the basis index.
#
# A run of blocks whose members all have shared angles becomes a dense
# segment, a chain of commuting units (``_units``): members on distinct
# single qubits, or two-qubit members with one control and distinct
# targets. A unit's 2^k x 2^k matrix V_u on the window is the Kronecker
# product of its members' 2x2 matrices (within the control-1 rows) and the
# identity on the window's other qubits (and control-0 rows). It is built
# from the product on the members' qubits alone, W_u, scattered onto the
# entries that it fills, so a unit of one gate on a wide window costs no
# more than its 2^k x 2 entries. The segment keeps the prefix products P_u =
# V_u ... V_1, the last its matrix: one matmul per unit, not per member.
# Which stack row feeds each factor and where each entry of W_u goes are
# part of the compiled program, so building every V_u of every segment of
# one shape takes a few stacked numpy ops. A run of per-sample single-qubit
# blocks becomes a ``_Kron``, the per-sample Kronecker product of their
# fused matrices, built when applied.
# ---------------------------------------------------------------------------

# Widest window. Measured with one BLAS thread: a batch-32 gradient of a
# 6-layer QNN took 19-22 ms with its shared runs as dense segments on the
# whole register against 25-30 ms with the kernels at 5 qubits, but 72
# against 41 ms at 6. Up to N_DENSE qubits the window of a dense segment is
# the whole register, and per-sample blocks stay kernel calls.
N_DENSE = 5


@dataclass(frozen=True)
class _Segment:
    members: tuple[int, ...]  # gate indices, in circuit order
    unit: np.ndarray  # [K]: each member's unit
    cols: np.ndarray  # [K, d, 2]: the row index with bit t set to 0 | 1
    gens: np.ndarray  # [K, d, 2]: G_k at (row, cols); 0 for fixed gates
    prefix: np.ndarray  # [U, d, d]: P_u = V_u ... V_1; the last is the segment's
    lo: int  # the window's lowest qubit

    def matrix(self) -> np.ndarray:
        return self.prefix[-1]


@dataclass(frozen=True)
class _Kron:
    """Per-sample single-qubit blocks with their fused [B, 2, 2] matrices,
    on distinct qubits (two such blocks on one qubit have a two-qubit block
    between them), run on the window of qubits from ``lo`` to the highest."""

    lo: int
    pairs: tuple[tuple[_Block, np.ndarray], ...]

    def matrix(self) -> np.ndarray:
        """[B, d, d]: the blocks' matrices' Kronecker product, the highest
        qubit first, with the identity on a qubit between them that has none."""
        on = {block.targets[0]: m for block, m in self.pairs}
        out = on[self.lo]
        for q in range(self.lo + 1, max(on) + 1):
            p = on.get(q, _I)[..., :, None, :, None] * out[..., None, :, None, :]
            out = p.reshape(p.shape[:-4] + (2 * out.shape[-2], 2 * out.shape[-1]))
        return out


def _units(targets) -> list[tuple[int, int]]:
    """Each gate's unit, for a run of gates on ``targets``: the earliest
    that it fits and that every later unit commutes with (gates commute
    here if they share no qubit or only their control), else a new one;
    and its slot there, the number of gates that the unit held before it."""
    units: list[list[int]] = []  # [qubit mask, control or -1, gates]
    out = []
    for ts in targets:
        mask, c = sum(1 << q for q in ts), ts[0] if len(ts) == 2 else -1
        at = len(units)
        for u in reversed(range(len(units))):
            ov, uc = units[u][0] & mask, units[u][1]
            if ov and not (uc == c >= 0 and ov == 1 << c):
                break
            if uc == c:
                at = u
        if at == len(units):
            units.append([0, c, 0])
        out.append((at, units[at][2]))
        units[at][0] |= mask
        units[at][2] += 1
    return out


def apply_dense(amps: np.ndarray, mat: np.ndarray, lo: int = 0) -> np.ndarray:
    """Apply a matrix on the window of k qubits from ``lo`` on (the whole
    register by default) to amplitudes [B, ..., dim]: one [2^k, 2^k] matrix,
    or a stack [B, 2^k, 2^k] with one per sample. The window's bits split the
    basis index into (high, window, low). One state [dim] is a batch of one."""
    d = mat.shape[-1]
    if mat.ndim == 2 and d == amps.shape[-1]:
        return amps @ mat.T
    if amps.ndim == 1:
        return apply_dense(amps[None], mat, lo)[0]
    x = amps.reshape(amps.shape[0], -1, d, 1 << lo)
    if lo == 0:
        return (x[..., 0] @ np.swapaxes(mat, -1, -2)).reshape(amps.shape)
    return ((mat if mat.ndim == 2 else mat[:, None]) @ x).reshape(amps.shape)


# ---------------------------------------------------------------------------
# Compiled programs. A circuit's structure is compiled once, with its blocks
# and segments; a call binds it to a flat parameter vector and a batch of
# inputs. Binding fills every angle at once: one ``_rotation_matrices`` call
# per rotation kind and class of gates (width, shared or per-sample angle),
# a per-sample gate built once however often it repeats (a re-uploaded
# encoder gate). Blocks with the same width and the same shared or per-sample
# pattern of members form their products together, one stacked matmul per
# member position, each product in its own operand order.
# ---------------------------------------------------------------------------


class Program:
    """A circuit compiled once. ``gates`` lists (kind, targets, tag) in
    circuit order, the tag as in ``GateOp``: ("theta", i, scale) reads the
    angle ``scale * params[i]`` of a flat parameter vector, ("x", i, scale)
    the per-sample angle ``scale * X[:, i]``; fixed gates have none."""

    def __init__(self, n_qubits: int, gates: tuple[tuple, ...]):
        self.tags = [tag for _, _, tag in gates]
        self.idx = np.array([tag[1] if tag else 0 for tag in self.tags], dtype=int)
        self.scale = np.array([tag[2] if tag else 0.0 for tag in self.tags])
        self.gens = np.array([_GENERATORS.get(kind, 0 * _I) for kind, _, _ in gates])
        self.blocks = _fuse([ts for _, ts, _ in gates])
        self.axes = [tuple(n_qubits - t for t in b.targets) for b in self.blocks]  # of a Pauli vector
        # Each gate's class (width, per sample) and its row in the class's
        # stack of matrices: a row per shared gate and per distinct per-sample
        # gate; and per kind, its rows and the flat index and scale that their
        # angles read (``params[idx]``, or ``X[:, idx]`` per sample).
        self.cls = [(len(ts), bool(tag) and tag[0] == "x") for _, ts, tag in gates]
        self.classes: dict[tuple[int, bool], list[int]] = {}
        self.row, seen = [], {}
        for g, gate in enumerate(gates):
            rows = self.classes.setdefault(self.cls[g], [])
            self.row.append(seen.setdefault(gate if self.cls[g][1] else g, len(rows)))
            if self.row[-1] == len(rows):
                rows.append(g)
        self.by_kind: dict[tuple[int, bool], dict[str, tuple]] = {}
        for cls, gs in self.classes.items():
            for kind in dict.fromkeys(gates[g][0] for g in gs):
                rows = [r for r, g in enumerate(gs) if gates[g][0] == kind]
                g = np.array(gs)[rows]
                scale = self.scale[g, None] if cls[1] else self.scale[g]
                self.by_kind.setdefault(cls, {})[kind] = rows, self.idx[g], scale
        # The pure path's runs, each [kind, lowest qubit, highest, blocks]:
        # "dense", "kron", or None for one block that is a kernel call (wider
        # than a window, or per sample and on two qubits or a narrow register).
        spans = []
        for i, b in enumerate(self.blocks):
            lo, hi = min(b.targets), max(b.targets)
            per_sample = any(self.cls[g][1] for g in b.members)
            kind = "kron" if per_sample else "dense"
            if hi - lo >= N_DENSE or (per_sample and (len(b.targets) > 1 or n_qubits <= N_DENSE)):
                kind = None
            last = spans[-1] if spans else [None]
            if kind and last[0] == kind and max(hi, last[2]) - min(lo, last[1]) < N_DENSE:
                last[1:] = min(lo, last[1]), max(hi, last[2]), last[3] + [i]
            else:
                spans.append([kind, lo, hi, [i]])
        # The layout: a block's index, ("kron", lo, blocks), or ("dense", K,
        # U, w, number) for the number-th dense segment of K members in U
        # units on w qubits; segments of one shape are built together.
        self.layout, runs, solo = [], {}, []
        for kind, lo, hi, ids in spans:
            if kind != "dense":
                self.layout.append(("kron", lo, tuple(ids)) if kind else ids[0])
                solo += ids
                continue
            lo, w = (0, n_qubits) if n_qubits <= N_DENSE else (lo, hi - lo + 1)
            members = [g for i in ids for g in self.blocks[i].members]
            unit = _units([gates[g][1] for g in members])
            key = (len(members), max(u for u, _ in unit) + 1, w)
            self.layout.append(("dense", *key, len(runs.setdefault(key, []))))
            runs[key].append((lo, members, unit))
        # A shared gate's row in the stacks of ``gate_mats``' shared classes,
        # one-qubit gates first; the identity's row follows them.
        n1 = len(self.classes.get((1, False), ()))
        stack_row = np.array([r + n1 * (w == 2) for r, (w, _) in zip(self.row, self.cls)])
        eye = n1 + len(self.classes.get((2, False), ()))
        self.segments = {}
        for (K, U, w), same in runs.items():
            los, members, placed = map(np.array, zip(*same))
            unit, slot = np.moveaxis(placed, -1, 0)  # [S, K] each
            # Each member's target and control (its target for one qubit) on the window.
            t, c = (np.array([[gates[g][1][i] - lo for g in run] for lo, run in zip(los, members)])
                    for i in (-1, 0))
            # Per member and row: the target bit, the columns with it 0 | 1,
            # and whether the member acts on the row (its control bit is 1).
            S, d, M, s = len(members), 1 << w, slot.max() + 1, np.arange(len(members))[:, None]
            a, tt, cm = np.arange(d), t[..., None], np.where(c == t, 0, 1 << c)
            cols = np.stack([a & ~(1 << tt), a | 1 << tt], axis=-1)
            active = (a & cm[..., None]) == cm[..., None]
            gens = np.where(active[..., None], self.gens[members[..., None], a >> tt & 1], 0)
            # A unit's M slots hold its members' stack rows and targets, padded
            # with the identity. W_u, the outer product of their flat 2x2
            # matrices, holds slot j's entry (a, b) at bits 2j + 1 and 2j, and
            # fills V_u at every (a, b) that agree outside the targets, on the
            # rows whose control bit is 1 (``dest``, from ``src``).
            fac, q, ctrl = np.full((S, U, M), eye), np.full((S, U, 1, M), -1), np.zeros((S, U, 1, 1), int)
            fac[s, unit, slot], q[s, unit, 0, slot], ctrl[s, unit, 0, 0] = stack_row[members], t, cm
            on, q, a = (q >= 0).astype(int), np.maximum(q, 0), a[:, None]
            bits = np.sum((a >> q & 1) * on << 2 * np.arange(M), axis=-1)  # [S, U, d]: each row's slot bits
            keep = ((a & ctrl) == ctrl) & ((a ^ a.T) & ~np.sum(on << q, axis=-1, keepdims=True) == 0)
            su = np.arange(S * U).reshape(S, U, 1, 1) << 2 * M
            src = (su | bits[..., None] << 1 | bits[:, :, None])[keep]
            self.segments[K, U, w] = (members, los, unit, cols, gens, fac, src, np.flatnonzero(keep))
        self.groups = self._groups(range(len(self.blocks)))
        self.pure_groups = self._groups(solo)

    def _groups(self, blocks) -> dict[tuple, tuple[list[int], np.ndarray, np.ndarray]]:
        """Blocks by (width, per-sample pattern of members): their indices,
        and per block and member position the gate and its stack row."""
        groups: dict[tuple, list[int]] = {}
        for i in blocks:
            b = self.blocks[i]
            groups.setdefault((len(b.targets), *(self.cls[g][1] for g in b.members)), []).append(i)
        rows = np.array(self.row)
        return {k: (ids, g := np.array([self.blocks[i].members for i in ids]), rows[g])
                for k, ids in groups.items()}

    def angles(self, params: np.ndarray, X: np.ndarray) -> dict:
        """Per class, its stack's shape ([N] shared, [N, B] per sample), and
        per kind its rows and their angles (None for a fixed gate)."""
        return {cls: ((len(self.classes[cls]), len(X)) if cls[1] else (len(self.classes[cls]),),
                      {kind: (rows, scale * (X.T[idx] if cls[1] else params[idx])
                              if kind in ROTATION_GATES else None)
                       for kind, (rows, idx, scale) in kinds.items()})
                for cls, kinds in self.by_kind.items()}

    def gate_mats(self, params: np.ndarray, X: np.ndarray) -> dict:
        """Each class's stack of 2x2 matrices (a CX/CRX's target block):
        [N, 2, 2] shared, [N, B, 2, 2] per sample."""
        out = {}
        for cls, (shape, kinds) in self.angles(params, X).items():
            out[cls] = mats = np.empty(shape + (2, 2), dtype=complex)
            for kind, (rows, th) in kinds.items():
                mats[rows] = _FIXED_GATES[kind] if th is None else _rotation_matrices(kind, th)
        return out

    def products(self, stacks: dict, groups: dict) -> dict[int, np.ndarray]:
        """Each block's product M_L ... M_1 of its members' matrices (or
        superoperators) from the class ``stacks``, per block of ``groups``."""
        out = {}
        for (width, *pattern), (ids, _, rows) in groups.items():
            acc = None
            for pos, per_sample in enumerate(pattern):
                sk = stacks[width, per_sample][rows[:, pos]]
                if any(pattern) and not per_sample:
                    sk = sk[:, None]
                acc = sk if acc is None else sk @ acc
            out.update(zip(ids, acc))
        return out

    def conj_generators(self, stacks: dict, want: tuple[str, ...]) -> dict[_Block, list]:
        """Per pure-path block, per member from the last: (W G W^dagger)^T,
        with G the member's generator (0 for a fixed gate) and W the product
        of the block's members after it; stacked per group like ``products``;
        None for a member whose side (per sample "x", else "theta") is not in
        ``want``."""
        out = {}
        for (width, *pattern), (ids, gates, rows) in self.pure_groups.items():
            need = [("x" if per_sample else "theta") in want for per_sample in pattern]
            cg, after = [], None  # [G, B or 1, 2, 2] each
            for pos in reversed(range(len(pattern))):
                gen = self.gens[gates[:, pos], None] if need[pos] else None
                if need[pos] and after is not None:
                    gen = after @ gen @ _dagger(after)
                cg.append(gen if gen is None else np.swapaxes(gen, -1, -2))
                if any(need[:pos]):
                    mat = stacks[width, pattern[pos]][rows[:, pos]]
                    mat = mat if pattern[pos] else mat[:, None]
                    after = mat if after is None else after @ mat
            out.update((self.blocks[i], [c if c is None else c[g] for c in cg]) for g, i in enumerate(ids))
        return out

    def _dense_segments(self, stacks: dict) -> dict:
        """Each dense segment's prefixes P_u = V_u ... V_1 from the shared
        ``stacks``, built together for the segments of one shape."""
        built = {}
        shared = np.concatenate([stacks[c] for c in ((1, False), (2, False)) if c in stacks] + [_I[None]])
        for (K, U, w), (members, los, unit, cols, gens, fac, src, dest) in self.segments.items():
            f = shared.reshape(-1, 4)[fac]  # [S, U, M, 4]
            kron = f[:, :, 0]
            for j in range(1, fac.shape[-1]):
                kron = (f[:, :, j, :, None] * kron[:, :, None]).reshape(*fac.shape[:2], -1)
            prefix = np.zeros(fac.shape[:2] + (1 << w,) * 2, dtype=complex)
            np.einsum("...ii->...i", prefix)[...] = 1
            prefix.reshape(-1)[dest] = kron.reshape(-1)[src]
            for u in range(1, U):
                prefix[:, u] = prefix[:, u] @ prefix[:, u - 1]
            for n, seg in enumerate(members):
                built["dense", K, U, w, n] = _Segment(tuple(seg), unit[n], cols[n], gens[n], prefix[n], los[n])
        return built

    def bind(self, params: np.ndarray, X: np.ndarray):
        """The pure path's items for flat ``params`` and inputs ``X`` [B, F],
        in circuit order: (block, fused matrix), a ``_Kron`` or a dense
        segment; and the class stacks they came from."""
        stacks = self.gate_mats(params, X)
        mats = self.products(stacks, self.pure_groups)
        segments = self._dense_segments(stacks)
        pair = lambda i: (self.blocks[i], mats[i])
        return [pair(e) if isinstance(e, int) else _Kron(e[1], tuple(map(pair, e[2])))
                if e[0] == "kron" else segments[e] for e in self.layout], stacks

    def adjoint(self, items, kept: dict, stacks: dict, state: np.ndarray, w: np.ndarray,
                params, X, bra: bool = False, wrt: str = "both"):
        """The adjoint sweep (Jones & Gacon, arXiv:2009.02823) back through
        the bound ``items``, the ``_Kron`` matrices ``kept`` by their forward
        (``_forward_amps``; each dropped once undone) and their class
        ``stacks``, from ``state`` [B, 2, dim]: the final ket psi and lambda
        = O psi for a diagonal observable O. Returns the angles' gradients of
        <psi| O |psi>, summed with the sample weights ``w``, as a flat vector
        like ``params``; the inputs' gradients like ``X``, each times its
        weight; and, with ``bra``, lambda at the start (else None, and the
        first item is not undone unless its gradients need it). With ``wrt``
        "params" or "inputs" the sweep skips the generators, cross matrices
        and segment reductions that feed only the other side (left 0); the
        side it computes keeps every bit.

        Through a gate exp(-i theta G / 2) the gradient is Im <lambda| G psi>
        with psi just after the gate. At a block's end the sweep reduces ket
        and lambda to the local cross matrix M = Tr_rest |psi><lambda| [B, 2,
        2] (for a controlled rotation, within the control-1 subspace) and
        reads each member's gradient as Im Tr((W G W^dagger) M), with W the
        block's members after it (``conj_generators``), then undoes the block
        with one kernel call. The blocks of a ``_Kron`` act on other qubits
        than each other, so they drop out of each other's partial trace: each
        block's M is read at the run's end, and the run is undone with one
        matmul. A dense segment is undone with one matmul; at its start M0 =
        sum_b w_b Tr_rest |psi_b><lambda_b| [d, d] on its window, and member
        k's gradient is Im Tr(G_k P M0 P^dagger), P the prefix product at
        its unit (``_segment_grads``)."""
        want = {"both": ("theta", "x"), "params": ("theta",), "inputs": ("x",)}[wrt]
        dflat, dX = np.zeros(params.size), np.zeros(X.shape)
        conj_gens = self.conj_generators(stacks, want)
        for i in reversed(range(len(items))):
            item = items[i]
            if isinstance(item, _Segment):
                state = apply_dense(state, _dagger(item.matrix()), item.lo)
                if "theta" not in want:
                    continue
                d, low = item.prefix.shape[-1], 1 << item.lo
                rows = lambda a: a.reshape(len(a), -1, d, low).swapaxes(-1, -2).reshape(-1, d)
                m0 = rows(w[:, None] * state[:, 0]).T @ rows(state[:, 1]).conj()
                g = list(item.members)  # shared gates: "theta" tags, or none (scale 0)
                np.add.at(dflat, self.idx[g], self.scale[g] * _segment_grads(item, m0))
                continue
            for block, _ in reversed(item.pairs) if isinstance(item, _Kron) else (item,):
                m = None
                for g, gen_t in zip(reversed(block.members), conj_gens[block]):
                    if gen_t is None or self.tags[g] is None:
                        continue
                    if m is None:
                        m = _cross_matrix(state, block.targets)
                        m_scaled = w[:, None, None] * m
                    what, idx, scale = self.tags[g]
                    if what == "theta":
                        dflat[idx] += scale * float((gen_t * m_scaled).sum().imag)
                    else:
                        dX[:, idx] += scale * w * (gen_t * m).sum(axis=(-2, -1)).imag
            if i or bra:
                state = (apply_dense(state, _dagger(kept.pop(i) if i in kept else item.matrix()), item.lo)
                         if isinstance(item, _Kron) else _apply_instr(state, item[0], _dagger(item[1])))
        return dflat, dX, state[:, 1] if bra else None

    def forward_pauli(self, params: np.ndarray, X: np.ndarray, r: np.ndarray, noise) -> np.ndarray:
        """The noisy pass on Pauli vectors ``r`` [B] + [4] * n: each block's
        transfer matrix is the product of its members', each gate then the
        noise on its targets. Returns a view in canonical axis order."""
        stacks = {cls: transfer_matrices(shape + (4 ** cls[0],) * 2, kinds, noise)
                  for cls, (shape, kinds) in self.angles(params, X).items()}
        mats = self.products(stacks, self.groups)
        return _apply_local(r, ((mats[i], axes) for i, axes in enumerate(self.axes)))


def _dagger(mat: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(mat, -1, -2))


def _forward_amps(items, amps: np.ndarray, kept: dict | None = None) -> np.ndarray:
    """The pure pass. With ``kept``, each ``_Kron`` matrix but the first item's
    (undone only for the amplitude chain rule, which has none) goes into it
    by item index, for the adjoint sweep's undo."""
    for i, item in enumerate(items):
        if isinstance(item, (_Segment, _Kron)):
            mat = item.matrix()
            if kept is not None and i and isinstance(item, _Kron):
                kept[i] = mat
            amps = apply_dense(amps, mat, item.lo)
        else:
            amps = _apply_instr(amps, *item)
    return amps


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


def _segment_grads(seg: _Segment, m0: np.ndarray) -> np.ndarray:
    """Im Tr(G_k A_u) for every member k of a dense segment (0 for fixed
    gates), u its unit and A_u = P_u M0 P_u^dagger, with M0 the weighted
    cross matrix on its window at its start. G_k commutes with every member
    of its unit, its own gate included, so it reads the same value before
    and after the unit: units 2j and 2j + 1 both read A_2j (0-based), one
    A per pair of units. G_k is nonzero only at (a, cols[k, a, :]), so the
    trace sums G_k there times A at (cols, a); P M0 for every A is one gemm."""
    p = seg.prefix[::2]
    n, dim, _ = p.shape
    a = (p.reshape(n * dim, dim) @ m0).reshape(p.shape) @ _dagger(p)
    t = a[seg.unit[:, None, None] // 2, seg.cols, np.arange(dim)[:, None]]
    return np.sum(seg.gens * t, axis=(1, 2)).imag


def compile_ops(n_qubits: int, ops) -> tuple[Program, np.ndarray, np.ndarray]:
    """A program for a list of ``GateOp`` with the parameters and inputs
    that it reads the angles from: each shared angle becomes a parameter,
    each per-sample angle an input feature."""
    gates, params, cols = [], [], []
    for op in ops:
        tag = None
        if op.angle is not None:
            shared = np.ndim(op.angle) == 0
            tag = ("theta", len(params), 1.0) if shared else ("x", len(cols), 1.0)
            (params if shared else cols).append(op.angle)
        gates.append((op.kind, op.targets, tag))
    X = np.stack(cols, axis=1) if cols else np.zeros((1, 0))
    return Program(n_qubits, tuple(gates)), np.array(params, dtype=float), X


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------


def z_diagonal(n_qubits: int, qubit: int) -> np.ndarray:
    """Diagonal of the Pauli-Z operator on ``qubit``: +1 where the qubit bit
    is 0, -1 where it is 1."""
    idx = np.arange(2**n_qubits)
    return 1.0 - 2.0 * ((idx >> qubit) & 1)


def expect_z_amps(amps: np.ndarray, qubit: int) -> np.ndarray:
    d = z_diagonal(int(math.log2(amps.shape[-1])), qubit)
    return np.sum((np.abs(amps) ** 2) * d, axis=-1)


def expect_z_dm(dm: np.ndarray, qubit: int) -> np.ndarray:
    d = z_diagonal(int(math.log2(dm.shape[-1])), qubit)
    diag = np.einsum("...ii->...i", dm).real
    return np.sum(diag * d, axis=-1)


def expect_z(state: StateVector | DensityMatrix, qubit: int) -> float:
    """Expectation value of Pauli-Z on one qubit, in [-1, 1]."""
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.n_qubits} qubits")
    if isinstance(state, StateVector):
        return float(expect_z_amps(state.amplitudes, qubit))
    return float(expect_z_dm(state.entries, qubit))


def state_fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2; 1 iff the states agree up to global phase."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("states must have the same qubit count")
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


# ---------------------------------------------------------------------------
# Circuit execution
# ---------------------------------------------------------------------------


def _start_state(circuit: CircuitSpec) -> StateVector:
    if circuit.initial_state is not None:
        return circuit.initial_state
    return zero_state(circuit.n_qubits)


def run_circuit_amps(circuit: CircuitSpec, amps: np.ndarray | None = None) -> np.ndarray:
    """Noiseless statevector pass; ``amps`` may be batched."""
    if amps is None:
        amps = _start_state(circuit).amplitudes.copy()
    program, params, X = compile_ops(circuit.n_qubits, circuit.ops)
    return _forward_amps(program.bind(params, X)[0], amps)


def run_circuit_dm(circuit: CircuitSpec, dm: np.ndarray | None = None) -> np.ndarray:
    """Density-matrix pass with the per-gate noise policy; ``dm`` may be
    batched."""
    if dm is None:
        dm = pure_to_dm(_start_state(circuit)).entries
    program, params, X = compile_ops(circuit.n_qubits, circuit.ops)
    return pauli_to_dm(program.forward_pauli(params, X, dm_to_pauli(dm), circuit.noise)).reshape(dm.shape)


def run_circuit(circuit: CircuitSpec, mode: str) -> StateVector | DensityMatrix:
    """Execute a circuit. ``mode`` is "pure" (statevector, requires an empty
    noise policy) or "mixed" (density matrix, applies the noise policy)."""
    if mode == "pure":
        if circuit.noise:
            raise ValueError("pure mode requires an empty noise policy")
        return StateVector(circuit.n_qubits, run_circuit_amps(circuit))
    if mode == "mixed":
        return DensityMatrix(circuit.n_qubits, run_circuit_dm(circuit))
    raise ValueError(f"unknown mode {mode!r}")
