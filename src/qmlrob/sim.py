"""Exact statevector and density-matrix simulation for small qubit registers.

Basis convention: computational basis index ``i`` encodes qubit ``q`` in bit
``q`` of ``i`` (qubit 0 is the least significant bit). All kernels operate on
the trailing axis (statevectors) or trailing two axes (density matrices), so
arbitrary leading batch dimensions are supported.

Local operators on a gate's targets use a local index in which the first
target is the high bit: for (control, target) the control is bit 1 and the
target bit 0, so a controlled gate is ``diag(I, U)``.

The noisy path applies each gate together with its noise channels as one
Liouville superoperator on those targets (Greenbaum, arXiv:1509.02921). With
``d = 2**k`` for ``k`` targets, it is a ``d*d x d*d`` matrix ``S`` acting on
the row-major vectorised local density matrix, ``vec(rho)[i*d + j] =
rho[i, j]``, so ``rho'[i, j] = sum_{k, l} S[i*d + j, k*d + l] rho[k, l]``. A
unitary contributes ``kron(U, conj(U))``; channels multiply it from the left
in the order they act.

``GateOp`` is the one gate type; its angle may be per sample, so one gate
list describes a whole batch. Every circuit pass runs the fused blocks of
``_fuse`` (see there): one kernel call, or one superoperator, per block. On
registers of at most ``N_DENSE`` qubits the pure path makes a second pass,
``_densify``: each run of blocks whose angles the whole batch shares becomes
one dense segment, applied with one matmul (see there).

Measurement is an exact expectation value; there is no shot sampling.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
import numpy as np

ATOL = 1e-9

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
        th = np.asarray(self.angle, dtype=float)
        c, s = np.cos(th / 2), np.sin(th / 2)
        m = np.zeros(th.shape + (2, 2), dtype=complex)
        if self.kind in ("RX", "CRX"):
            m[..., 0, 0] = c
            m[..., 0, 1] = -1j * s
            m[..., 1, 0] = -1j * s
            m[..., 1, 1] = c
        elif self.kind == "RY":
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


_SUPEROP_CACHE: dict[tuple[str, float], np.ndarray] = {}


def _channel_superop(channel: KrausChannel) -> np.ndarray:
    """S[i, k, j, l] = sum_m E_m[i, k] conj(E_m[j, l]), so that
    rho'[i, j] = sum_{k, l} S[i, k, j, l] rho[k, l] on the target qubit."""
    key = (channel.kind, channel.param)
    s = _SUPEROP_CACHE.get(key)
    if s is None:
        s = sum(np.einsum("ik,jl->ikjl", e, e.conj()) for e in channel.operators)
        _SUPEROP_CACHE[key] = s
    return s


def apply_channel_entries(dm: np.ndarray, channel: KrausChannel, qubit: int) -> np.ndarray:
    dim = dm.shape[-1]
    low = 1 << qubit
    blocks = (dim // (2 * low), 2, low)
    dmr = dm.reshape(dm.shape[:-2] + blocks + blocks)
    out = np.einsum(
        "ikjl,...akbcld->...aibcjd", _channel_superop(channel), dmr, optimize=True
    )
    return out.reshape(dm.shape)


def apply_channel(dm: DensityMatrix, channel: KrausChannel, qubit: int) -> DensityMatrix:
    """Apply a single-qubit Kraus channel to ``qubit``."""
    if not 0 <= qubit < dm.n_qubits:
        raise ValueError(f"qubit {qubit} out of range for {dm.n_qubits} qubits")
    return DensityMatrix(dm.n_qubits, apply_channel_entries(dm.entries, channel, qubit))


# ---------------------------------------------------------------------------
# Fused local superoperators: a gate and the noise after it as one matmul on
# the density matrix (layout in the module docstring).
# ---------------------------------------------------------------------------

_NOISE_SUPEROP_CACHE: dict[tuple, np.ndarray] = {}


def _noise_superop(noise: tuple[KrausChannel, ...], n_targets: int) -> np.ndarray:
    """Superoperator of every channel of ``noise`` on the first target, then
    every channel on the second, built once per noise tuple by applying the
    channels to each local basis matrix."""
    key = (n_targets, tuple((ch.kind, ch.param) for ch in noise))
    s = _NOISE_SUPEROP_CACHE.get(key)
    if s is None:
        d = 1 << n_targets
        images = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
        for q in reversed(range(n_targets)):  # the first target is the high bit
            for ch in noise:
                images = apply_channel_entries(images, ch, q)
        s = np.ascontiguousarray(images.reshape(d * d, d * d).T)
        s.flags.writeable = False
        _NOISE_SUPEROP_CACHE[key] = s
    return s


def local_superop(u: np.ndarray, noise: tuple[KrausChannel, ...] = ()) -> np.ndarray:
    """Superoperator of the 1- or 2-qubit unitary ``u`` (``[d, d]`` or a
    batch ``[B, d, d]``) followed by ``noise`` on each of its targets:
    ``[d*d, d*d]`` or ``[B, d*d, d*d]``."""
    d = u.shape[-1]
    s = (u[..., :, None, :, None] * u.conj()[..., None, :, None, :]).reshape(
        u.shape[:-2] + (d * d, d * d)
    )
    if noise:
        s = _noise_superop(noise, d.bit_length() - 1) @ s
    return s


@functools.lru_cache(maxsize=None)
def _superop_perm(n_qubits: int, targets: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis order of a ``[B] + [2] * 2n`` density matrix that puts the other
    qubits' row and column bits first, then the targets' row bits, then their
    column bits (qubit q's row bit is axis n - q); and its inverse."""
    rows = [n_qubits - t for t in targets]
    cols = [r + n_qubits for r in rows]
    rest = [a for a in range(1, 2 * n_qubits + 1) if a not in rows and a not in cols]
    perm = tuple([0] + rest + rows + cols)
    return perm, tuple(int(a) for a in np.argsort(perm))


def apply_local_superop(dm: np.ndarray, s: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """Apply a local superoperator ``s`` (shared, or one per sample of a
    ``[B, D, D]`` batch) to ``targets`` of a density matrix."""
    shape = dm.shape
    n = shape[-1].bit_length() - 1
    perm, inverse = _superop_perm(n, targets)
    x = dm.reshape((-1,) + (2,) * (2 * n)).transpose(perm)
    tshape = x.shape
    dd = s.shape[-1]
    if s.ndim == 2:
        y = x.reshape(-1, dd) @ s.T
    else:
        y = x.reshape(tshape[0], -1, dd) @ np.swapaxes(s, -1, -2)
    return y.reshape(tshape).transpose(inverse).reshape(shape)


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
    members: tuple[GateOp, ...]  # in circuit order

    @functools.cached_property
    def mats(self) -> tuple[np.ndarray, ...]:
        """Each member's base_matrix()."""
        return tuple(op.base_matrix() for op in self.members)

    @functools.cached_property
    def mat(self) -> np.ndarray:
        """mats[-1] @ ... @ mats[0]; one per sample if any member is."""
        fused = self.mats[0]
        for mat in self.mats[1:]:
            fused = mat @ fused
        return fused


def _fuse(ops) -> list[_Block]:
    runs: list[tuple[tuple[int, ...], list[GateOp]]] = []
    open_run: dict[int, int] = {}  # qubit -> index of its open single-qubit run
    for op in ops:
        if len(op.targets) == 1 and op.targets[0] in open_run:
            runs[open_run[op.targets[0]]][1].append(op)
            continue
        for q in op.targets:
            open_run.pop(q, None)
        if len(op.targets) == 1:
            open_run[op.targets[0]] = len(runs)
        runs.append((op.targets, [op]))
    return [_Block(targets, tuple(members)) for targets, members in runs]


def _block_superop(block: _Block, noise: tuple[KrausChannel, ...]) -> np.ndarray:
    """Product of the members' local superoperators, each gate followed by
    the noise on its targets."""
    s = None
    for mat in block.mats:
        u = mat if len(block.targets) == 1 else controlled_unitary(mat)
        sk = local_superop(u, noise)
        s = sk if s is None else sk @ s
    return s


# ---------------------------------------------------------------------------
# Dense segments (pure path, registers of at most N_DENSE qubits). There a
# kernel call is mostly dispatch overhead, so each maximal run of blocks whose
# members all have shared angles becomes one segment: its members' full
# 2^n x 2^n unitaries U_k, their prefix products P_k = U_k ... U_1, and the
# total P_K, applied to the whole batch with one matmul. A 2x2 matrix ``m``
# on target t (within the control-1 rows, for two targets) fills row ``a``
# of the full matrix at the two columns that agree with ``a`` outside bit t,
# with m[bit t of a, 0 | 1]; the other rows keep the identity. Those index
# maps, and the pieces of each member's 2x2 matrix, are cached per gate
# structure, so building every U_k of a run takes a few whole-run numpy ops.
# ---------------------------------------------------------------------------

# Widest register whose shared gate runs become dense segments. Measured with
# one BLAS thread: a batch-32 gradient of a 6-layer QNN took 19-22 ms dense
# against 25-30 ms with the kernels at 5 qubits, but 72 against 41 ms at 6.
N_DENSE = 5


@dataclass(frozen=True)
class _Segment:
    members: tuple[GateOp, ...]  # in circuit order
    cols: np.ndarray  # [K, dim, 2]: the row index with bit t set to 0 | 1
    gens: np.ndarray  # [K, dim, 2]: G_k at (row, cols); 0 for fixed gates
    prefix: np.ndarray  # [K, dim, dim]: P_k = U_k ... U_1

    @property
    def mat(self) -> np.ndarray:
        return self.prefix[-1]


@functools.lru_cache(maxsize=16)
def _embedding(n_qubits: int, gates: tuple[tuple[str, tuple[int, ...]], ...]):
    """For a run of (kind, targets): each member's 2x2 matrix is ``fixed +
    cos(angle / 2) rot - i sin(angle / 2) gen``, with ``fixed`` the fixed
    gate's matrix, ``rot`` I and ``gen`` the generator, or 0 where they do
    not apply ([K, 2, 2] each); and per member and row, the target bit
    ``rows`` [K, dim], the columns ``cols`` [K, dim, 2] and whether the
    member acts on the row, ``active`` [K, dim]."""
    zero = np.zeros((2, 2))
    fixed = np.array([_FIXED_GATES.get(kind, zero) for kind, _ in gates])
    rot = np.array([_I if kind in ROTATION_GATES else zero for kind, _ in gates])
    gen = np.array([_GENERATORS.get(kind, zero) for kind, _ in gates])
    a = np.arange(1 << n_qubits)
    t = np.array([ts[-1] for _, ts in gates])[:, None]
    c = np.array([ts[0] for _, ts in gates])[:, None]
    low = a & ~(1 << t)
    cols = np.stack([low, low | (1 << t)], axis=-1)
    active = (t == c) | (((a >> c) & 1) == 1)
    out = (fixed, rot, gen, (a >> t) & 1, cols, active)
    for x in out:
        x.flags.writeable = False  # shared by every caller of the cache
    return out


def _segment(blocks: list[_Block], n_qubits: int) -> _Segment:
    members = tuple(op for b in blocks for op in b.members)
    fixed, rot, gen, rows, cols, active = _embedding(
        n_qubits, tuple((op.kind, op.targets) for op in members)
    )
    half = np.array([op.angle or 0.0 for op in members])[:, None, None] / 2
    mats = fixed + np.cos(half) * rot - 1j * np.sin(half) * gen
    K, dim = rows.shape
    k = np.arange(K)[:, None]
    prefix = np.zeros((K, dim, dim), dtype=complex)
    prefix[k[..., None], np.arange(dim)[:, None], cols] = np.where(
        active[..., None], mats[k, rows], _I[rows]
    )
    for i in range(1, K):
        np.matmul(prefix[i], prefix[i - 1], out=prefix[i])
    gens = np.where(active[..., None], gen[k, rows], 0)
    return _Segment(members, cols, gens, prefix)


def _shared(op: GateOp) -> bool:
    return getattr(op.angle, "ndim", 0) == 0 and (op.tag is None or op.tag[0] == "theta")


def _densify(blocks: list[_Block], n_qubits: int) -> list[_Block | _Segment]:
    """The pure path's second pass over ``_fuse``'s blocks: for at most
    ``N_DENSE`` qubits, each maximal run of blocks whose members all have
    shared angles (and no input tag) becomes one dense segment."""
    if n_qubits > N_DENSE:
        return blocks
    out: list[_Block | _Segment] = []
    runs = itertools.groupby(blocks, key=lambda b: all(_shared(op) for op in b.members))
    for shared, run in runs:
        if shared:
            out.append(_segment(list(run), n_qubits))
        else:
            out.extend(run)
    return out


def apply_dense(amps: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Apply a full-register matrix to (batched) amplitudes."""
    return amps @ mat.T


def _forward_amps(blocks: list[_Block | _Segment], amps: np.ndarray) -> np.ndarray:
    for block in blocks:
        if isinstance(block, _Segment):
            amps = apply_dense(amps, block.mat)
        else:
            amps = _apply_instr(amps, block, block.mat)
    return amps


def _forward_dm(
    blocks: list[_Block], dm: np.ndarray, noise: tuple[KrausChannel, ...]
) -> np.ndarray:
    for block in blocks:
        dm = apply_local_superop(dm, _block_superop(block, noise), block.targets)
    return dm


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
    return _forward_amps(_densify(_fuse(circuit.ops), circuit.n_qubits), amps)


def run_circuit_dm(circuit: CircuitSpec, dm: np.ndarray | None = None) -> np.ndarray:
    """Density-matrix pass with the per-gate noise policy; ``dm`` may be
    batched."""
    if dm is None:
        dm = pure_to_dm(_start_state(circuit)).entries
    return _forward_dm(_fuse(circuit.ops), dm, circuit.noise)


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
