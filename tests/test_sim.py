"""Simulator core: gates, channels, circuits, and their algebraic invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
            assert [type(b) for b in sim._densify(sim._fuse(circ.ops), n)] == [sim._Segment]
            init = rng.normal(size=(3, 2**n)) + 1j * rng.normal(size=(3, 2**n))
            want = init.T
            for op in circ.ops:
                want = dense_unitary(op, n) @ want
            assert np.max(np.abs(sim.run_circuit_amps(circ, init) - want.T)) < 1e-12

    def test_wider_registers_keep_the_fused_blocks(self):
        n = sim.N_DENSE + 1
        blocks = sim._fuse(random_circuit(np.random.default_rng(17), n, 12).ops)
        assert sim._densify(blocks, n) is blocks

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
            s = sim.local_superop(gate_unitary(op), noise)
            out = sim.apply_local_superop(dm, s, op.targets)
            assert np.max(np.abs(out - want)) < 1e-12


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


def per_block_dm(ops, dm, noise):
    """Reference noisy pass: each fused block's superoperator, formed one
    member at a time (S = S_k @ ... @ S_1), applied with apply_local_superop
    in canonical axis order."""
    for block in sim._fuse(ops):
        s = None
        for op in block.members:
            sk = sim.local_superop(gate_unitary(op), noise)
            s = sk if s is None else sk @ s
        dm = sim.apply_local_superop(dm, s, block.targets)
    return dm


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
    """``_forward_dm`` builds every block's superoperator at once and keeps
    the density matrix in a tracked axis order; it must equal the per-block
    reference bit for bit."""

    def check(self, ops, dm, noise):
        got = sim._forward_dm(sim._fuse(ops), dm, noise)
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
        # After the first CRX(0, 1) the axis order is (batch, row 0, row 1,
        # col 0, col 1), so the next block on (0, 1) needs no transpose.
        rng = np.random.default_rng(61)
        ops = [
            GateOp("CRX", (0, 1), rng.uniform(-np.pi, np.pi, size=2)),
            GateOp("CX", (0, 1)),
            GateOp("CRX", (0, 1), 0.9),
            GateOp("H", (1,)),
        ]
        _, order = sim._tracked_perm((0, 1, 2, 3, 4), (0, 1))
        assert sim._tracked_perm(order, (0, 1))[0] == (0, 1, 2, 3, 4)
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
