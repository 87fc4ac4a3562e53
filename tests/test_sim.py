"""Simulator core: gates, channels, circuits, and their algebraic invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmlrob import models, sim
from qmlrob.sim import (
    CircuitSpec,
    DensityMatrix,
    GateOp,
    StateVector,
    apply_channel,
    apply_gate,
    apply_gate_dm,
    expect_z,
    gate_unitary,
    make_amplitude_damping,
    make_depolarizing,
    pure_to_dm,
    run_circuit,
    state_fidelity,
    zero_state,
)

ANGLES = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)

SINGLE_KINDS = sorted(sim.SINGLE_QUBIT_GATES)
ROT_KINDS = ("RX", "RY", "RZ")


def random_circuit(rng, n_qubits, n_gates):
    ops = []
    for _ in range(n_gates):
        if n_qubits > 1 and rng.random() < 0.35:
            c, t = rng.choice(n_qubits, size=2, replace=False)
            kind = "CX" if rng.random() < 0.5 else "CRX"
            ang = float(rng.uniform(-np.pi, np.pi)) if kind == "CRX" else None
            ops.append(GateOp(kind, (int(c), int(t)), ang))
        else:
            kind = SINGLE_KINDS[rng.integers(len(SINGLE_KINDS))]
            ang = float(rng.uniform(-np.pi, np.pi)) if kind in ROT_KINDS else None
            ops.append(GateOp(kind, (int(rng.integers(n_qubits)),), ang))
    return CircuitSpec(n_qubits, tuple(ops))


def dense_unitary(op: GateOp, n: int) -> np.ndarray:
    """Kron-product oracle for a gate's full 2**n unitary."""
    if len(op.targets) == 1:
        full = np.eye(1)
        for q in reversed(range(n)):
            full = np.kron(full, op.base_matrix() if q == op.targets[0] else np.eye(2))
        return full
    c, t = op.targets
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    full = np.zeros((2**n, 2**n), dtype=complex)
    for proj, act in ((p0, np.eye(2, dtype=complex)), (p1, op.base_matrix())):
        term = np.eye(1)
        for q in reversed(range(n)):
            if q == c:
                term = np.kron(term, proj)
            elif q == t:
                term = np.kron(term, act)
            else:
                term = np.kron(term, np.eye(2))
        full += term
    return full


def dense_channel(dm: np.ndarray, channel, qubit: int, n: int) -> np.ndarray:
    out = np.zeros_like(dm)
    for e in channel.operators:
        full = np.eye(1)
        for q in reversed(range(n)):
            full = np.kron(full, e if q == qubit else np.eye(2))
        out += full @ dm @ full.conj().T
    return out


class TestGates:
    @given(ANGLES)
    def test_rotation_unitarity(self, theta):
        for kind in ROT_KINDS:
            u = GateOp(kind, (0,), theta).base_matrix()
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

    @given(ANGLES)
    def test_crx_unitarity(self, theta):
        u = gate_unitary(GateOp("CRX", (0, 1), theta))
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

    @pytest.mark.parametrize("kind", ["RX", "RY", "RZ", "CRX"])
    def test_rotation_matches_closed_form(self, kind, rotation_oracle):
        targets = (0, 1) if kind == "CRX" else (0,)
        angles = np.array([-2.5, -0.3, 0.0, 0.7, math.pi, 4.0])
        for theta in angles:
            got = GateOp(kind, targets, float(theta)).base_matrix()
            assert got.shape == (2, 2)
            assert np.max(np.abs(got - rotation_oracle(kind, theta))) < 1e-15
        batch = GateOp(kind, targets, angles).base_matrix()
        assert batch.shape == (len(angles), 2, 2)
        want = np.stack([rotation_oracle(kind, t) for t in angles])
        assert np.max(np.abs(batch - want)) < 1e-15

    def test_fixed_gates_unitary(self):
        for kind in ("X", "Y", "Z", "H"):
            u = GateOp(kind, (0,)).base_matrix()
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-14

    def test_ry_pi_flips(self):
        out = apply_gate(zero_state(1), GateOp("RY", (0,), math.pi))
        assert np.allclose(out.amplitudes, [0, 1], atol=1e-12)

    def test_ry_zero_identity(self):
        out = apply_gate(zero_state(1), GateOp("RY", (0,), 0.0))
        assert np.allclose(out.amplitudes, [1, 0], atol=1e-15)

    def test_hadamard_balances_z(self):
        out = apply_gate(zero_state(1), GateOp("H", (0,)))
        assert abs(expect_z(out, 0)) < 1e-15

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            apply_gate(zero_state(1), GateOp("X", (1,)))

    def test_rotation_requires_angle(self):
        with pytest.raises(ValueError):
            GateOp("RY", (0,))

    def test_controlled_requires_distinct_qubits(self):
        with pytest.raises(ValueError):
            GateOp("CX", (1, 1))

    def test_batched_gates_compare_and_hash_by_identity(self):
        a = GateOp("RY", (0,), np.array([0.1, 0.2]))
        b = GateOp("RY", (0,), np.array([0.1, 0.2]))
        assert a == a and a != b
        assert len({a, b}) == 2


class TestDensityOps:
    def test_x_flips_populations(self):
        dm = DensityMatrix(1, np.diag([1.0, 0.0]).astype(complex))
        out = apply_gate_dm(dm, GateOp("X", (0,)))
        assert np.allclose(out.entries, np.diag([0.0, 1.0]), atol=1e-15)

    def test_rz_zero_identity(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        out = apply_gate_dm(DensityMatrix(1, rho), GateOp("RZ", (0,), 0.0))
        assert np.allclose(out.entries, rho, atol=1e-15)

    def test_hadamard_makes_plus_projector(self):
        dm = DensityMatrix(1, np.diag([1.0, 0.0]).astype(complex))
        out = apply_gate_dm(dm, GateOp("H", (0,)))
        assert np.allclose(out.entries, np.full((2, 2), 0.5), atol=1e-12)


class TestChannels:
    def test_depolarizing_three_quarters_fully_mixes(self):
        ch = make_depolarizing(0.75)
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            rho = pure_to_dm(StateVector(1, v))
            out = apply_channel(rho, ch, 0)
            assert np.max(np.abs(out.entries - np.eye(2) / 2)) < 1e-9

    def test_depolarizing_zero_is_identity(self):
        ch = make_depolarizing(0.0)
        rho = pure_to_dm(apply_gate(zero_state(1), GateOp("H", (0,))))
        out = apply_channel(rho, ch, 0)
        assert np.allclose(out.entries, rho.entries, atol=1e-15)

    def test_depolarizing_small_p_populations(self):
        p = 0.01
        out = apply_channel(pure_to_dm(zero_state(1)), make_depolarizing(p), 0)
        assert np.allclose(
            np.diag(out.entries).real, [1 - 2 * p / 3, 2 * p / 3], atol=1e-15
        )

    def test_depolarizing_rejects_bad_probability(self):
        for p in (-0.1, 1.1):
            with pytest.raises(ValueError):
                make_depolarizing(p)

    def test_damping_operators_exact(self):
        gamma = 0.36
        ch = make_amplitude_damping(gamma)
        assert np.allclose(ch.operators[0], [[1, 0], [0, math.sqrt(1 - gamma)]])
        assert np.allclose(ch.operators[1], [[0, math.sqrt(gamma)], [0, 0]])

    def test_full_damping_relaxes_to_ground(self):
        one = pure_to_dm(apply_gate(zero_state(1), GateOp("X", (0,))))
        out = apply_channel(one, make_amplitude_damping(1.0), 0)
        assert np.allclose(out.entries, np.diag([1.0, 0.0]), atol=1e-15)

    def test_zero_damping_is_identity(self):
        rho = pure_to_dm(apply_gate(zero_state(1), GateOp("H", (0,))))
        out = apply_channel(rho, make_amplitude_damping(0.0), 0)
        assert np.allclose(out.entries, rho.entries, atol=1e-15)

    def test_half_damping_populations(self):
        one = pure_to_dm(apply_gate(zero_state(1), GateOp("X", (0,))))
        out = apply_channel(one, make_amplitude_damping(0.5), 0)
        assert np.allclose(out.entries, np.diag([0.5, 0.5]), atol=1e-15)

    def test_partial_damping_populations(self):
        one = pure_to_dm(apply_gate(zero_state(1), GateOp("X", (0,))))
        out = apply_channel(one, make_amplitude_damping(0.3), 0)
        assert np.allclose(out.entries, np.diag([0.3, 0.7]), atol=1e-15)

    def test_damping_rejects_bad_rate(self):
        for g in (-0.01, 1.01):
            with pytest.raises(ValueError):
                make_amplitude_damping(g)

    def test_two_qubit_single_site_action(self):
        # depolarizing p=0.75 on qubit 0 of |00><00| -> |0><0| (x) I/2
        rho = pure_to_dm(zero_state(2))
        out = apply_channel(rho, make_depolarizing(0.75), 0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 0.5  # q1=0, q0=0
        expected[1, 1] = 0.5  # q1=0, q0=1
        assert np.max(np.abs(out.entries - expected)) < 1e-9

    def test_channel_index_out_of_range(self):
        with pytest.raises(ValueError):
            apply_channel(pure_to_dm(zero_state(1)), make_depolarizing(0.1), 1)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_kraus_completeness(self, p, gamma):
        assert make_depolarizing(p).completeness_defect() < 1e-12
        assert make_amplitude_damping(gamma).completeness_defect() < 1e-12


class TestObservables:
    def test_basis_states(self):
        assert expect_z(zero_state(1), 0) == pytest.approx(1.0)
        one = apply_gate(zero_state(1), GateOp("X", (0,)))
        assert expect_z(one, 0) == pytest.approx(-1.0)

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi])
    def test_ry_gives_cosine(self, theta):
        out = apply_gate(zero_state(1), GateOp("RY", (0,), theta))
        assert expect_z(out, 0) == pytest.approx(math.cos(theta), abs=1e-12)

    def test_mixed_state_expectation(self):
        dm = DensityMatrix(1, np.diag([0.75, 0.25]).astype(complex))
        assert expect_z(dm, 0) == pytest.approx(0.5)

    def test_fidelity_examples(self):
        zero = zero_state(1)
        one = apply_gate(zero, GateOp("X", (0,)))
        plus = apply_gate(zero, GateOp("H", (0,)))
        assert state_fidelity(zero, zero) == pytest.approx(1.0)
        assert state_fidelity(zero, one) == pytest.approx(0.0)
        assert state_fidelity(zero, plus) == pytest.approx(0.5)

    def test_fidelity_dimension_mismatch(self):
        with pytest.raises(ValueError):
            state_fidelity(zero_state(1), zero_state(2))

    def test_fidelity_global_phase_invariant(self):
        v = np.array([1, 1j]) / math.sqrt(2)
        w = np.exp(1j * 0.7) * v
        assert state_fidelity(StateVector(1, v), StateVector(1, w)) == pytest.approx(1.0)


class TestRunCircuit:
    def test_empty_circuit(self):
        out = run_circuit(CircuitSpec(3, ()), "pure")
        assert np.allclose(out.amplitudes, zero_state(3).amplitudes)

    def test_bell_state(self):
        circ = CircuitSpec(2, (GateOp("H", (0,)), GateOp("CX", (0, 1))))
        out = run_circuit(circ, "pure")
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[3] = 1 / math.sqrt(2)
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_pure_mode_rejects_noise(self):
        circ = CircuitSpec(1, (GateOp("H", (0,)),), noise=(make_depolarizing(0.1),))
        with pytest.raises(ValueError):
            run_circuit(circ, "pure")

    def test_mixed_matches_dense_kraus_oracle(self):
        # RY(pi/2) with per-gate depolarizing p=0.01: <Z> = (1-4p/3) cos(pi/2) = 0
        p = 0.01
        circ = CircuitSpec(
            1, (GateOp("RY", (0,), math.pi / 2),), noise=(make_depolarizing(p),)
        )
        out = run_circuit(circ, "mixed")
        u = GateOp("RY", (0,), math.pi / 2).base_matrix()
        rho = u @ np.diag([1.0, 0.0]).astype(complex) @ u.conj().T
        rho = dense_channel(rho, make_depolarizing(p), 0, 1)
        assert np.max(np.abs(out.entries - rho)) < 1e-12
        assert expect_z(out, 0) == pytest.approx(0.0, abs=1e-12)

    def test_mixed_applies_noise_to_both_targets_of_crx(self):
        p = 0.2
        circ = CircuitSpec(
            2, (GateOp("CRX", (0, 1), 1.1),), noise=(make_depolarizing(p),)
        )
        out = run_circuit(circ, "mixed")
        rho = pure_to_dm(zero_state(2)).entries
        u = dense_unitary(GateOp("CRX", (0, 1), 1.1), 2)
        rho = u @ rho @ u.conj().T
        rho = dense_channel(rho, make_depolarizing(p), 0, 2)
        rho = dense_channel(rho, make_depolarizing(p), 1, 2)
        assert np.max(np.abs(out.entries - rho)) < 1e-12

    @pytest.mark.parametrize("n", [sim.N_DENSE + 1, 8])
    def test_unbatched_state_on_a_wide_register(self, n):
        # Shared runs there are window segments, applied to one state without
        # a batch axis.
        circ = random_circuit(np.random.default_rng(40 + n), n, 16)
        batched = sim.run_circuit_amps(circ, zero_state(n).amplitudes[None])[0]
        assert np.array_equal(run_circuit(circ, "pure").amplitudes, batched)


class TestRandomCircuitInvariants:
    def test_pure_norm_preserved_1000_circuits(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            circ = random_circuit(rng, int(rng.integers(1, 5)), int(rng.integers(1, 21)))
            out = run_circuit(circ, "pure")
            assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-9

    def test_mixed_trace_and_positivity(self):
        rng = np.random.default_rng(13)
        channels = (make_depolarizing(0.05), make_amplitude_damping(0.03))
        for _ in range(120):
            base = random_circuit(rng, int(rng.integers(1, 4)), int(rng.integers(1, 15)))
            circ = CircuitSpec(base.n_qubits, base.ops, noise=channels)
            out = run_circuit(circ, "mixed")
            assert abs(np.trace(out.entries).real - 1.0) < 1e-9
            assert np.linalg.eigvalsh(out.entries).min() > -1e-8

    def test_pure_and_mixed_agree_without_noise(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            circ = random_circuit(rng, int(rng.integers(1, 4)), int(rng.integers(1, 12)))
            pure = run_circuit(circ, "pure")
            mixed = run_circuit(circ, "mixed")
            for q in range(circ.n_qubits):
                assert abs(expect_z(pure, q) - expect_z(mixed, q)) < 1e-9

    def test_strided_kernels_match_dense_products(self):
        rng = np.random.default_rng(15)
        for _ in range(150):
            n = int(rng.integers(1, 4))
            circ = random_circuit(rng, n, 8)
            amps = run_circuit(circ, "pure").amplitudes
            dense = zero_state(n).amplitudes
            for op in circ.ops:
                dense = dense_unitary(op, n) @ dense
            assert np.max(np.abs(amps - dense)) < 1e-12
            dm = run_circuit(circ, "mixed").entries
            assert np.max(np.abs(dm - np.outer(dense, dense.conj()))) < 1e-12

    @pytest.mark.parametrize("n", range(1, sim.N_DENSE + 1))
    def test_dense_segments_match_kron_product(self, n):
        # Fixed gates (H, X, CX, ...) and shared rotations form one dense
        # segment at these widths; a batch of random states goes through it.
        rng = np.random.default_rng(16 + n)
        for _ in range(20):
            circ = random_circuit(rng, n, 12)
            program, params, X = sim.compile_ops(n, circ.ops)
            assert [type(b) for b in program.bind(params, X)[0]] == [sim._Segment]
            init = rng.normal(size=(3, 2**n)) + 1j * rng.normal(size=(3, 2**n))
            want = init.T
            for op in circ.ops:
                want = dense_unitary(op, n) @ want
            assert np.max(np.abs(sim.run_circuit_amps(circ, init) - want.T)) < 1e-12

    def test_wider_registers_run_blocks_in_windows(self):
        # Blocks (0,), (2,) | (2, 5), (3, 2), (4,), (3, 5), (2, 3), (2,),
        # (1, 2) | (2, 0): the second run would span 6 qubits with qubit 0.
        n = sim.N_DENSE + 1
        program, params, X = sim.compile_ops(n, random_circuit(np.random.default_rng(17), n, 12).ops)
        # The second run's 9 members make 8 units: only CX (3, 5) joins CRX
        # (3, 2), which shares its control.
        assert program.layout == [("dense", 2, 1, 3, 0), ("dense", 9, 8, 5, 0), ("dense", 1, 1, 3, 0)]
        items = program.bind(params, X)[0]
        assert [(item.lo, item.prefix.shape[-1]) for item in items] == [(0, 8), (1, 32), (0, 8)]

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_windows_match_dense_products(self, n):
        # Fixed gates, shared rotations, a CRX that wraps around the register
        # (a kernel call) and per-sample rotations on some of the qubits (runs
        # of them become per-sample windows), on a batch of random states.
        rng = np.random.default_rng(30 + n)
        B, offsets = 3, set()
        for _ in range(8):
            ops = list(random_circuit(rng, n, 16).ops)
            ops.insert(int(rng.integers(len(ops) + 1)), GateOp("CRX", (n - 1, 0), 0.9))
            for _ in range(2):
                qubits = rng.choice(n, size=int(rng.integers(2, n)), replace=False)
                at = int(rng.integers(len(ops) + 1))
                ops[at:at] = [GateOp(ROT_KINDS[rng.integers(3)], (int(q),),
                                     rng.uniform(-np.pi, np.pi, size=B)) for q in qubits]
            program, params, X = sim.compile_ops(n, ops)
            items = program.bind(params, X)[0]
            assert any(isinstance(item, sim._Kron) for item in items)
            offsets |= {(item.lo, item.matrix().shape[-1]) for item in items if not isinstance(item, tuple)}
            init = rng.normal(size=(B, 2**n)) + 1j * rng.normal(size=(B, 2**n))
            want = init.copy()
            for b in range(B):
                for op in ops:
                    angle = op.angle if np.ndim(op.angle) == 0 else op.angle[b]
                    want[b] = dense_unitary(GateOp(op.kind, op.targets, angle), n) @ want[b]
            got = sim.run_circuit_amps(CircuitSpec(n, tuple(ops)), init)
            assert np.max(np.abs(got - want)) < 1e-12
        # Some window lies strictly inside the register.
        assert any(0 < lo and lo + d.bit_length() - 1 < n for lo, d in offsets)

    def test_initial_state_override(self):
        init = apply_gate(zero_state(2), GateOp("H", (0,)))
        circ = CircuitSpec(2, (GateOp("CX", (0, 1)),), initial_state=init)
        out = run_circuit(circ, "pure")
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[3] = 1 / math.sqrt(2)
        assert np.allclose(out.amplitudes, expected, atol=1e-12)


def embed_local(a: np.ndarray, targets, n: int) -> np.ndarray:
    """Dense 2**n operator acting as ``a`` on ``targets`` (first target the
    high local bit) and as the identity elsewhere, built entry by entry."""
    dim = 2**n
    full = np.zeros((dim, dim), dtype=complex)
    others = [q for q in range(n) if q not in targets]

    def local(i):
        return sum(((i >> t) & 1) << (len(targets) - 1 - k) for k, t in enumerate(targets))

    for i in range(dim):
        for j in range(dim):
            if all(((i >> q) & 1) == ((j >> q) & 1) for q in others):
                full[i, j] = a[local(i), local(j)]
    return full


def unit_rich_circuit(rng, n: int, n_groups: int, batch: int = 0) -> list[GateOp]:
    """Gates in groups that commuting units gather: runs of one-qubit gates
    on distinct qubits (rotations, and fixed H, X, Y, Z), and CRX/CX gates
    sharing a control. With ``batch``, some one-qubit rotations take one
    angle per sample."""
    ops = []
    for _ in range(n_groups):
        if n > 1 and rng.random() < 0.4:
            c = int(rng.integers(n))
            targets = rng.choice([q for q in range(n) if q != c], size=int(rng.integers(1, n)), replace=False)
            ops += [GateOp("CX", (c, int(t))) if rng.random() < 0.3
                    else GateOp("CRX", (c, int(t)), float(rng.uniform(-np.pi, np.pi))) for t in targets]
            continue
        for q in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False):
            if rng.random() < 0.25:
                ops.append(GateOp("HXYZ"[rng.integers(4)], (int(q),)))
                continue
            angle = rng.uniform(-np.pi, np.pi, size=batch) if batch and rng.random() < 0.2 else float(rng.uniform(-np.pi, np.pi))
            ops.append(GateOp(ROT_KINDS[rng.integers(3)], (int(q),), angle))
    return ops


def dense_generator(op: GateOp, n: int) -> np.ndarray:
    """The 2**n generator G of a rotation exp(-i angle G / 2): its Pauli on
    the target, or for CRX X on the target within the control-1 rows."""
    if op.kind == "CRX":
        control_0 = 1.0 - ((np.arange(2**n) >> op.targets[0]) & 1)
        return dense_unitary(GateOp("CX", op.targets), n) - np.diag(control_0)
    return dense_unitary(GateOp(op.kind[1], op.targets), n)


def dense_adjoint_reference(n, ops, init, obs, w):
    """Gate by gate with dense 2**n matrices: the final states [B, 2**n], and
    the gradients of <psi| diag(obs_b) |psi> per angle, each shared angle's
    summed with the weights ``w``, each per-sample angle's times its weight,
    ordered as ``compile_ops`` orders parameters and input features."""
    psi, dflat, dX = [], [], []
    for b, (amp, o) in enumerate(zip(init, obs)):
        at = lambda op: op.angle if np.ndim(op.angle) == 0 else op.angle[b]
        mats = [dense_unitary(GateOp(op.kind, op.targets, at(op)), n) for op in ops]
        states = [amp]
        for u in mats:
            states.append(u @ states[-1])
        # bras[j]: O psi carried back to just after gate j.
        bras = [o * states[-1]]
        for u in mats[:0:-1]:
            bras.insert(0, u.conj().T @ bras[0])
        grads = [(np.ndim(op.angle) == 0,
                  2 * np.real(np.vdot(bras[j], -0.5j * dense_generator(op, n) @ states[j + 1])))
                 for j, op in enumerate(ops) if op.angle is not None]
        psi.append(states[-1])
        dflat.append([w[b] * g for shared, g in grads if shared])
        dX.append([w[b] * g for shared, g in grads if not shared])
    return np.array(psi), np.sum(dflat, axis=0), np.array(dX)


class TestCommutingUnits:
    """A dense segment runs as a chain of commuting units: gates on distinct
    single qubits, or two-qubit gates with one control and distinct
    targets, each unit one Kronecker product. States and every gradient
    must stay where the gate-by-gate dense products put them."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
    def test_states_and_gradients_match_the_dense_reference(self, n):
        rng = np.random.default_rng(90 + n)
        B, merged, per_sample = 3, 0, 0
        for _ in range(4):
            ops = unit_rich_circuit(rng, n, 8, batch=B)
            program, params, X = sim.compile_ops(n, ops)
            items, stacks = program.bind(params, X)
            segments = [item for item in items if isinstance(item, sim._Segment)]
            merged += sum(len(s.members) - s.prefix.shape[0] for s in segments)
            init = rng.normal(size=(B, 2**n)) + 1j * rng.normal(size=(B, 2**n))
            init /= np.linalg.norm(init, axis=1, keepdims=True)
            obs = rng.normal(size=(B, n)) @ np.stack([sim.z_diagonal(n, q) for q in range(n)])
            w = np.linspace(0.5, 1.5, B)
            kept = {}
            psi = sim._forward_amps(items, init, kept)
            state = np.stack([psi, obs * psi], axis=1)
            dflat, dX, _ = program.adjoint(items, kept, stacks, state, w, params, X)
            want_psi, want_dflat, want_dX = dense_adjoint_reference(n, ops, init, obs, w)
            assert np.max(np.abs(psi - want_psi)) < 1e-12
            assert np.max(np.abs(dflat - want_dflat), initial=0) < 1e-12
            assert np.max(np.abs(dX - want_dX.reshape(dX.shape)), initial=0) < 1e-12
            per_sample += dX.size > 0
        assert merged > 0 and per_sample > 0  # some units hold more than one gate

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4, 5, 7]))
    @settings(max_examples=30, deadline=None)
    def test_a_unit_is_its_members_product_in_either_order(self, seed, n):
        # V_u = P_u P_{u-1}^dagger; its members commute, so their product
        # in circuit order and in reverse order are both V_u.
        ops = unit_rich_circuit(np.random.default_rng(seed), n, 6)
        program, params, X = sim.compile_ops(n, ops)
        for seg in (i for i in program.bind(params, X)[0] if isinstance(i, sim._Segment)):
            w = seg.prefix.shape[-1].bit_length() - 1
            local = lambda g: GateOp(ops[g].kind, tuple(t - seg.lo for t in ops[g].targets), ops[g].angle)
            before = np.eye(2**w)
            for u, p in enumerate(seg.prefix):
                gates = [local(g) for g, k in zip(seg.members, seg.unit) if k == u]
                forward = reversed_order = np.eye(2**w)
                for op in gates:
                    forward = dense_unitary(op, w) @ forward
                    reversed_order = reversed_order @ dense_unitary(op, w)
                assert np.max(np.abs(forward - reversed_order)) < 1e-14
                assert np.max(np.abs(p @ before.conj().T - reversed_order)) < 1e-14
                before = p


class TestLocalSuperop:
    N = 5

    def random_terms(self, rng, d, k=3):
        return [
            (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)),
             rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            for _ in range(k)
        ]

    def check(self, rng, targets):
        # S = sum_m kron(A_m, conj(B_m)) maps rho to sum_m A_m rho B_m^dagger.
        n, d = self.N, 2 ** len(targets)
        dm = rng.normal(size=(3, 2**n, 2**n)) + 1j * rng.normal(size=(3, 2**n, 2**n))
        shared = self.random_terms(rng, d)
        per_sample = [self.random_terms(rng, d) for _ in range(3)]

        def superop(terms):
            return sum(np.kron(a, b.conj()) for a, b in terms)

        def dense(rho, terms):
            return sum(
                embed_local(a, targets, n) @ rho @ embed_local(b, targets, n).conj().T
                for a, b in terms
            )

        out = sim.apply_local_superop(dm, superop(shared), targets)
        want = np.stack([dense(r, shared) for r in dm])
        assert np.max(np.abs(out - want)) < 1e-12
        s = np.stack([superop(t) for t in per_sample])
        out = sim.apply_local_superop(dm, s, targets)
        want = np.stack([dense(r, t) for r, t in zip(dm, per_sample)])
        assert np.max(np.abs(out - want)) < 1e-12

    def test_every_single_target(self):
        rng = np.random.default_rng(21)
        for t in range(self.N):
            self.check(rng, (t,))

    def test_every_ordered_pair(self):
        rng = np.random.default_rng(22)
        for c in range(self.N):
            for t in range(self.N):
                if c != t:
                    self.check(rng, (c, t))

    @pytest.mark.parametrize(
        "noise",
        [
            (),
            (make_depolarizing(0.1),),
            (make_amplitude_damping(0.2), make_depolarizing(0.1)),
            (make_depolarizing(0.1), make_amplitude_damping(0.2)),
        ],
    )
    def test_noise_follows_gate_on_first_then_second_target(self, noise):
        rng = np.random.default_rng(23)
        n = 3
        dm = pure_to_dm(run_circuit(random_circuit(rng, n, 6), "pure")).entries
        for op in (GateOp("RY", (2,), 0.7), GateOp("CRX", (2, 0), 1.3), GateOp("CX", (0, 1))):
            want = dense_unitary(op, n) @ dm @ dense_unitary(op, n).conj().T
            for q in op.targets:
                for ch in noise:
                    want = dense_channel(want, ch, q, n)
            # The noise lives in the gate's transfer matrix, on the Pauli vector.
            r = sim.dm_to_pauli(dm)
            r = sim._apply_local(r, [(gate_transfer(op, noise), tuple(n - t for t in op.targets))])
            out = sim.pauli_to_dm(r)[0]
            assert np.max(np.abs(out - want)) < 1e-12


def channel_transfer(channel):
    return sim._transfer(sum(sim.local_superop(e) for e in channel.operators))


class TestTransferMatrices:
    """Closed forms in the order I, X, Y, Z (Greenbaum, arXiv:1509.02921)."""

    @pytest.mark.parametrize("p", [0.0, 0.02, 0.3, 1.0])
    def test_depolarizing(self, p):
        got = channel_transfer(make_depolarizing(p))
        assert np.max(np.abs(got - np.diag([1, 1 - 4 * p / 3, 1 - 4 * p / 3, 1 - 4 * p / 3]))) < 1e-15

    @pytest.mark.parametrize("gamma", [0.0, 0.01, 0.4, 1.0])
    def test_amplitude_damping(self, gamma):
        got = channel_transfer(make_amplitude_damping(gamma))
        c = math.sqrt(1 - gamma)
        want = [[1, 0, 0, 0], [0, c, 0, 0], [0, 0, c, 0], [gamma, 0, 0, 1 - gamma]]
        assert np.max(np.abs(got - np.array(want))) < 1e-15

    @pytest.mark.parametrize("kind", sorted(sim.GATE_KINDS))
    def test_every_gate_is_real_orthogonal_and_unital(self, kind):
        # Built from the angle terms, it equals the Liouville superoperator
        # taken to the Pauli basis; a unitary's is orthogonal, with first row
        # and first column e_0 (trace preserving, unital).
        rng = np.random.default_rng(24)
        targets = (0,) if kind in sim.SINGLE_QUBIT_GATES else (0, 1)
        for angle in rng.uniform(-2 * np.pi, 2 * np.pi, size=5) if kind in sim.ROTATION_GATES else [None]:
            op = GateOp(kind, targets, angle)
            r = gate_transfer(op, ())
            assert r.dtype == np.float64
            assert np.max(np.abs(r - sim._transfer(sim.local_superop(gate_unitary(op))))) < 1e-14
            assert np.max(np.abs(r.T @ r - np.eye(len(r)))) < 1e-14
            e0 = np.eye(len(r))[0]
            assert np.max(np.abs(r[0] - e0)) < 1e-15 and np.max(np.abs(r[:, 0] - e0)) < 1e-15


MIXED_NOISE = [
    (),
    (make_depolarizing(0.05),),
    (make_amplitude_damping(0.1), make_depolarizing(0.05)),
]


def random_batched_ops(rng, n_qubits, n_gates, batch):
    """``random_circuit``'s gates, with each rotation's angle replaced, with
    probability 1/2, by one angle per sample of ``batch``."""
    ops = []
    for op in random_circuit(rng, n_qubits, n_gates).ops:
        if op.angle is not None and rng.random() < 0.5:
            op = GateOp(op.kind, op.targets, rng.uniform(-np.pi, np.pi, size=batch))
        ops.append(op)
    return ops


def random_dm(rng, batch_shape, n):
    d = 2**n
    a = rng.normal(size=batch_shape + (d, d)) + 1j * rng.normal(size=batch_shape + (d, d))
    rho = a @ np.swapaxes(a.conj(), -1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1)[..., None, None]


def gate_transfer(op, noise):
    """One gate's transfer matrix, followed by ``noise``: [D, D] for a shared
    angle, [B, D, D] for one per sample."""
    th = None if op.angle is None else np.asarray(op.angle, dtype=float)[None]
    shape = ((1,) if th is None else th.shape) + (4 ** len(op.targets),) * 2
    return sim.transfer_matrices(shape, {op.kind: ([0], th)}, noise)[0]


def per_block_dm(ops, dm, noise):
    """Reference noisy pass on the Pauli vector of ``dm``: each fused block's
    transfer matrix, formed one member at a time (R = R_k @ ... @ R_1),
    applied with the tracked-axis applier in canonical axis order."""
    n = dm.shape[-1].bit_length() - 1
    r = sim.dm_to_pauli(dm)
    for block in sim._fuse([op.targets for op in ops]):
        m = None
        for op in (ops[g] for g in block.members):
            rk = gate_transfer(op, noise)
            m = rk if m is None else rk @ m
        r = sim._apply_local(r, [(m, tuple(n - t for t in block.targets))])
    return sim.pauli_to_dm(r).reshape(dm.shape)


def per_gate_dm(ops, dm, noise):
    """Reference noisy pass: each gate as two strided passes, then every
    channel on the first target and every channel on the second."""
    for op in ops:
        dm = models._apply_instr_dm(dm, op)
        for q in op.targets:
            for ch in noise:
                dm = sim.apply_channel_entries(dm, ch, q)
    return dm


class TestTrackedMixedForward:
    """``Program.forward_pauli`` builds every block's transfer matrix at once
    and keeps the Pauli vector in a tracked axis order; it must equal the
    per-block reference bit for bit."""

    def check(self, ops, dm, noise):
        program, params, X = sim.compile_ops(dm.shape[-1].bit_length() - 1, ops)
        got = sim.pauli_to_dm(program.forward_pauli(params, X, sim.dm_to_pauli(dm), noise))
        assert np.array_equal(got, per_block_dm(ops, dm, noise))
        assert np.max(np.abs(got - per_gate_dm(ops, dm, noise))) < 1e-12

    @pytest.mark.parametrize("noise", MIXED_NOISE)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_batched_random_circuits(self, n, noise):
        rng = np.random.default_rng(40 + n)
        for _ in range(3):
            ops = random_batched_ops(rng, n, 30, batch=3)
            assert any(np.ndim(op.angle) == 1 for op in ops)
            assert any(isinstance(op.angle, float) for op in ops)
            self.check(ops, random_dm(rng, (3,), n), noise)

    @pytest.mark.parametrize("noise", MIXED_NOISE)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_unbatched_random_circuits(self, n, noise):
        rng = np.random.default_rng(50 + n)
        for _ in range(3):
            circuit = random_circuit(rng, n, 30)
            dm = random_dm(rng, (), n)
            got = sim.run_circuit_dm(CircuitSpec(n, circuit.ops, noise), dm)
            assert got.shape == dm.shape
            assert np.array_equal(got, per_block_dm(circuit.ops, dm, noise))
            assert np.max(np.abs(got - per_gate_dm(circuit.ops, dm, noise))) < 1e-12

    def test_shared_gate_objects_repeat(self):
        # One per-sample gate and one shared gate, each used in several blocks,
        # as a re-uploaded encoder is.
        rng = np.random.default_rng(60)
        enc = GateOp("RY", (1,), rng.uniform(-np.pi, np.pi, size=4))
        rot = GateOp("RX", (0,), 0.3)
        ops = [enc, rot, GateOp("CRX", (1, 0), 0.7), enc, rot, GateOp("CX", (0, 1)), enc]
        for noise in MIXED_NOISE:
            self.check(ops, random_dm(rng, (4,), 2), noise)

    def test_block_whose_targets_are_already_last(self):
        # On two qubits the Pauli vector's axes are (batch, qubit 1, qubit 0).
        # After the first CRX(0, 1) the axis order is (batch, qubit 0, qubit
        # 1), so the next block on (0, 1) needs no transpose.
        rng = np.random.default_rng(61)
        ops = [
            GateOp("CRX", (0, 1), rng.uniform(-np.pi, np.pi, size=2)),
            GateOp("CX", (0, 1)),
            GateOp("CRX", (0, 1), 0.9),
            GateOp("H", (1,)),
        ]
        _, order = sim._tracked_perm((0, 1, 2), (2, 1))
        assert order == (0, 2, 1)
        assert sim._tracked_perm(order, (2, 1))[0] == (0, 1, 2)
        for noise in MIXED_NOISE:
            self.check(ops, random_dm(rng, (2,), 2), noise)


class TestValidation:
    def test_statevector_norm_validation(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([1.0, 1.0], dtype=complex)).validate()

    def test_density_validation(self):
        bad = np.array([[0.5, 0.5], [0.1, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            DensityMatrix(1, bad).validate()

    def test_circuit_rejects_out_of_range_targets(self):
        with pytest.raises(ValueError):
            CircuitSpec(1, (GateOp("X", (2,)),))
