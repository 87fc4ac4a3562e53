"""Model construction, forward passes, and all three gradient paths."""

import dataclasses
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qmlrob import models, sim, training
from qmlrob.encoding import EncodingSpec
from qmlrob.models import (
    CmlpConfig,
    CmlpParams,
    Pqc6Config,
    QmlpConfig,
    build_pqc6_circuit,
    build_qmlp_circuit,
    cmlp_forward,
    cmlp_grad,
    flatten_params,
    forward,
    grad_input,
    grad_input_shift,
    grad_params,
    grad_params_shift,
    init_cmlp,
    init_pqc6,
    init_qmlp,
    load_model,
    replace_params,
    save_model,
    spsa_estimate,
    spsa_grad,
    unflatten_params,
)
from qmlrob.sim import make_amplitude_damping, make_depolarizing
from qmlrob.training import ce_with_grad, cross_entropy_batch, softmax

ANGLE4 = EncodingSpec("angle", 4, (0.0, math.pi))


def make_qmlp(layers=2, n=4, n_classes=4, kind="angle", seed=0, reupload=True):
    enc = EncodingSpec(kind, n, (0.0, math.pi) if kind == "angle" else (0.0, 1.0))
    cfg = QmlpConfig(layers=layers, encoding=enc, n_classes=n_classes, n_qubits=n,
                     reupload=reupload)
    return init_qmlp(cfg, np.random.default_rng(seed))


def fd_param_grads(model, x, y, h=1e-5):
    flat = flatten_params(model.params)
    out = np.zeros_like(flat)
    for i in range(len(flat)):
        fp, fm = flat.copy(), flat.copy()
        fp[i] += h
        fm[i] -= h
        lp, _ = ce_with_grad(
            forward(replace_params(model, unflatten_params(model.params, fp)), x), y
        )
        lm, _ = ce_with_grad(
            forward(replace_params(model, unflatten_params(model.params, fm)), x), y
        )
        out[i] = (lp - lm) / (2 * h)
    return out


def fd_input_grads(model, x, y, h=1e-5):
    out = np.zeros_like(x)
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (
            ce_with_grad(forward(model, xp), y)[0]
            - ce_with_grad(forward(model, xm), y)[0]
        ) / (2 * h)
    return out


class TestQmlpCircuit:
    def test_op_count_one_layer_two_qubits(self):
        m = make_qmlp(layers=1, n=2, n_classes=2)
        circ = build_qmlp_circuit(m.config, m.params, np.array([0.1, 0.2]))
        # 2 encode + 4 rotations + 2 ring CRX
        assert len(circ.ops) == 8

    def test_identity_circuit_gives_unit_z(self):
        m = make_qmlp(layers=2, n=3, n_classes=2)
        m.params.theta[:] = 0.0
        z = models.quantum_features(m, np.zeros((1, 3)))
        assert np.allclose(z, 1.0, atol=1e-12)

    def test_amplitude_encoding_prepares_state_once(self):
        m = make_qmlp(layers=3, n=2, n_classes=2, kind="amplitude")
        circ = build_qmlp_circuit(m.config, m.params, np.array([3.0, 4.0]))
        assert circ.initial_state is not None
        assert np.allclose(circ.initial_state.amplitudes, [0.6, 0.8, 0, 0])
        # variational ops only: 3 layers x (2 qubits x 2 rotations + 2 CRX)
        assert len(circ.ops) == 3 * 6
        assert all(op.kind in ("RY", "RZ", "CRX") for op in circ.ops)

    def test_reupload_repeats_encoding(self):
        m = make_qmlp(layers=3, n=2, n_classes=2)
        circ = build_qmlp_circuit(m.config, m.params, np.array([0.5, 0.7]))
        encodes = [op for op in circ.ops if op.kind == "RY" and op.angle in (0.5, 0.7)]
        assert len(encodes) == 6

    def test_single_qubit_skips_entangler(self):
        m = make_qmlp(layers=2, n=1, n_classes=2)
        circ = build_qmlp_circuit(m.config, m.params, np.array([0.4]))
        assert all(op.kind != "CRX" for op in circ.ops)


class TestPqc6Circuit:
    def test_parameter_counts(self):
        cfg = Pqc6Config()
        n = cfg.n_qubits
        per_layer = n * 3 + n * (n - 1)
        assert per_layer == 24
        m = init_pqc6(cfg, np.random.default_rng(0))
        assert m.params.rot.size + m.params.ent.size == 144

    def test_zero_params_act_as_encoding_alone(self):
        m = init_pqc6(Pqc6Config(), np.random.default_rng(0))
        m.params.rot[:] = 0.0
        m.params.ent[:] = 0.0
        x = np.linspace(-1, 1, 8)
        circ = build_pqc6_circuit(m.config, m.params, x)
        from qmlrob.encoding import encode_state

        enc = EncodingSpec("dense_angle", 4, (-math.pi, math.pi))
        from qmlrob.sim import run_circuit

        got = run_circuit(circ, "pure").amplitudes
        want = encode_state(x, enc).amplitudes
        assert np.allclose(got, want, atol=1e-12)

    def test_all_ordered_pairs_entangled(self):
        m = init_pqc6(Pqc6Config(), np.random.default_rng(0))
        circ = build_pqc6_circuit(m.config, m.params, np.zeros(8))
        crx = [op.targets for op in circ.ops if op.kind == "CRX"]
        assert len(crx) == 6 * 12
        first_layer = crx[:12]
        assert first_layer == [(c, t) for c in range(4) for t in range(4) if c != t]

    def test_wrong_feature_length(self):
        m = init_pqc6(Pqc6Config(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            build_pqc6_circuit(m.config, m.params, np.zeros(7))


class TestForward:
    def test_zero_head_gives_zero_logits(self):
        m = make_qmlp()
        m.params.head_w[:] = 0.0
        m.params.head_b[:] = 0.0
        logits = forward(m, np.array([0.3, 0.8, 1.2, 0.1]))
        assert np.allclose(logits, 0.0)

    def test_unit_head_reads_z_directly(self):
        m = make_qmlp(layers=1, n=1, n_classes=2)
        m.params.theta[:] = 0.0
        m.params.head_w[:] = np.array([[1.0], [0.0]])
        m.params.head_b[:] = 0.0
        logits = forward(m, np.array([0.0]))
        assert logits[0] == pytest.approx(1.0)
        assert logits[1] == pytest.approx(0.0)

    def test_heavy_depolarizing_collapses_to_bias(self):
        m = make_qmlp(layers=3, n=3, n_classes=3, seed=5)
        logits = forward(m, np.array([0.4, 0.9, 1.3]), "mixed", (make_depolarizing(0.75),))
        assert np.allclose(logits, m.params.head_b, atol=1e-9)

    def test_mixing_factor_closed_form(self):
        # k noisy RY gates on one qubit: <Z> = (1 - 4p/3)**k * cos(sum of angles)
        p = 0.13
        angles = [0.3, 1.1, -0.7, 0.5]
        m = make_qmlp(layers=1, n=1, n_classes=2)
        from qmlrob.sim import CircuitSpec, GateOp, run_circuit, expect_z

        circ = CircuitSpec(
            1,
            tuple(GateOp("RY", (0,), a) for a in angles),
            noise=(make_depolarizing(p),),
        )
        out = run_circuit(circ, "mixed")
        expected = (1 - 4 * p / 3) ** len(angles) * math.cos(sum(angles))
        assert expect_z(out, 0) == pytest.approx(expected, abs=1e-12)

    def test_forward_deterministic(self):
        m = make_qmlp(seed=7)
        x = np.array([0.2, 0.4, 0.6, 0.8])
        a = forward(m, x)
        b = forward(m, x)
        assert np.array_equal(a, b)

    def test_pure_vs_mixed_agree_without_noise(self):
        for kind in ("angle", "amplitude"):
            m = make_qmlp(layers=2, n=3, n_classes=3, kind=kind, seed=3)
            x = np.array([0.3, 0.6, 0.9]) if kind == "angle" else np.array([1.0, 2.0, 3.0])
            zp = models.quantum_features(m, x[None, :], "pure")
            zm = models.quantum_features(m, x[None, :], "mixed")
            assert np.max(np.abs(zp - zm)) < 1e-9


def per_gate_mixed_features(model, X, noise):
    """Reference noisy forward: each gate as two strided passes, then every
    channel on the first target and every channel on the second."""
    instrs, init = models._program(model, X)
    dm = np.einsum("bi,bj->bij", init, init.conj())
    for ins in instrs:
        dm = models._apply_instr_dm(dm, ins)
        for q in ins.targets:
            for ch in noise:
                dm = sim.apply_channel_entries(dm, ch, q)
    return np.einsum("bii->bi", dm).real @ models._z_diags(model.config.n_qubits).T


NOISE_TUPLES = [
    (),
    (make_depolarizing(0.05),),
    (make_amplitude_damping(0.1), make_depolarizing(0.05)),
    (make_depolarizing(0.05), make_amplitude_damping(0.1)),
]


class TestFusedMixedForward:
    @pytest.mark.parametrize("noise", NOISE_TUPLES)
    @pytest.mark.parametrize("kind", ["angle", "amplitude"])
    def test_qmlp_matches_per_gate_loop(self, kind, noise):
        m = make_qmlp(layers=3, n=3, n_classes=3, kind=kind, seed=11)
        X = np.random.default_rng(1).uniform(0.1, 1.0, size=(4, 3))
        instrs, _ = models._program(m, X)
        assert any(i.kind == "CRX" and i.targets[0] > i.targets[1] for i in instrs)
        got = models.quantum_features(m, X, "mixed", noise)
        assert np.max(np.abs(got - per_gate_mixed_features(m, X, noise))) < 1e-12

    @pytest.mark.parametrize("noise", NOISE_TUPLES)
    def test_qnn_matches_per_gate_loop(self, noise):
        m = init_pqc6(Pqc6Config(n_qubits=3, layers=2, n_classes=3), np.random.default_rng(12))
        X = np.random.default_rng(2).uniform(-math.pi, math.pi, size=(3, 6))
        got = models.quantum_features(m, X, "mixed", noise)
        assert np.max(np.abs(got - per_gate_mixed_features(m, X, noise))) < 1e-12

    def test_wide_qmlp_matches_per_gate_loop(self):
        # Nine qubits: a Pauli vector of 4**9 entries, blocks on qubit pairs
        # far apart, and the ring's CRX(8, 0) closing back to qubit 0.
        m = make_qmlp(layers=2, n=9, n_classes=3, seed=15)
        X = np.random.default_rng(5).uniform(0.1, 1.0, size=(2, 9))
        got = models.quantum_features(m, X, "mixed", NOISE_TUPLES[2])
        assert np.max(np.abs(got - per_gate_mixed_features(m, X, NOISE_TUPLES[2]))) < 1e-12

    def test_damping_order_is_visible(self):
        # Damping and depolarizing do not commute, so the two orders differ.
        m = make_qmlp(layers=2, n=3, n_classes=3, seed=13)
        X = np.random.default_rng(3).uniform(0.1, 1.0, size=(3, 3))
        a = models.quantum_features(m, X, "mixed", NOISE_TUPLES[2])
        b = models.quantum_features(m, X, "mixed", NOISE_TUPLES[3])
        assert np.max(np.abs(a - b)) > 1e-6

    def test_superoperator_build_does_not_grow_with_depth(self, monkeypatch):
        calls = [0]
        real = sim.transfer_matrices

        def counted(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(sim, "transfer_matrices", counted)
        X = np.random.default_rng(4).uniform(0.1, 1.0, size=(5, 4))
        counts = []
        for layers in (2, 10):
            m = make_qmlp(layers=layers, n=4, seed=14)
            calls[0] = 0
            models.quantum_features(m, X, "mixed", NOISE_TUPLES[2])
            counts.append(calls[0])
        # One call per gate class: the shared gates of each block width, and
        # the per-sample encoder gates.
        assert counts == [2 + 1, 2 + 1]


class TestGradients:
    def test_single_ry_gradient_extremes(self):
        m = make_qmlp(layers=1, n=1, n_classes=2)
        m.params.theta[:] = 0.0
        m.params.head_w[:] = np.array([[1.0], [0.0]])
        m.params.head_b[:] = 0.0

        def z_loss(logits, y):
            g = np.zeros_like(logits)
            g[0] = 1.0
            return logits[0], g

        g_half = grad_input(m, np.array([math.pi / 2]), 0, z_loss)
        assert g_half[0] == pytest.approx(-1.0, abs=1e-9)
        g_zero = grad_input(m, np.array([0.0]), 0, z_loss)
        assert g_zero[0] == pytest.approx(0.0, abs=1e-9)

    def test_zero_head_zeroes_input_gradient(self):
        m = make_qmlp()
        m.params.head_w[:] = 0.0
        g = grad_input(m, np.array([0.5, 0.6, 0.7, 0.8]), 1, ce_with_grad)
        assert np.allclose(g, 0.0)

    @pytest.mark.parametrize("kind", ["angle", "amplitude"])
    def test_adjoint_matches_finite_differences(self, kind):
        rng = np.random.default_rng(11)
        for trial in range(3):
            n = int(rng.integers(2, 5))
            m = make_qmlp(
                layers=int(rng.integers(1, 3)),
                n=n,
                n_classes=int(rng.integers(2, 4)),
                kind=kind,
                seed=50 + trial,
            )
            size = n if kind == "angle" else int(rng.integers(2, 2**n + 1))
            x = rng.uniform(0.2, 1.2, size=size)
            y = int(rng.integers(m.config.n_classes))
            ga = flatten_params(grad_params(m, x, y, ce_with_grad))
            gfd = fd_param_grads(m, x, y)
            assert np.max(np.abs(ga - gfd)) <= 1e-5 * max(1.0, np.max(np.abs(gfd)))
            gx = grad_input(m, x, y, ce_with_grad)
            gxfd = fd_input_grads(m, x, y)
            assert np.max(np.abs(gx - gxfd)) <= 1e-5 * max(1.0, np.max(np.abs(gxfd)))

    def test_parameter_shift_agrees_with_adjoint(self):
        rng = np.random.default_rng(21)
        m = make_qmlp(layers=2, n=3, n_classes=3, seed=9)
        x = rng.uniform(0, math.pi, size=3)
        ga = flatten_params(grad_params(m, x, 1, ce_with_grad))
        gs = flatten_params(grad_params_shift(m, x, 1, ce_with_grad))
        assert np.max(np.abs(ga - gs)) < 1e-8
        gxa = grad_input(m, x, 1, ce_with_grad)
        gxs = grad_input_shift(m, x, 1, ce_with_grad)
        assert np.max(np.abs(gxa - gxs)) < 1e-8

    def test_pqc6_gradients(self):
        rng = np.random.default_rng(31)
        m = init_pqc6(Pqc6Config(), np.random.default_rng(4))
        x = rng.uniform(-math.pi, math.pi, size=8)
        ga = flatten_params(grad_params(m, x, 2, ce_with_grad))
        gs = flatten_params(grad_params_shift(m, x, 2, ce_with_grad))
        assert np.max(np.abs(ga - gs)) < 1e-8
        # spot-check a few coordinates against finite differences
        flat = flatten_params(m.params)
        h = 1e-5
        for i in rng.choice(len(flat), size=10, replace=False):
            fp, fm = flat.copy(), flat.copy()
            fp[i] += h
            fm[i] -= h
            lp, _ = ce_with_grad(forward(replace_params(m, unflatten_params(m.params, fp)), x), 2)
            lm, _ = ce_with_grad(forward(replace_params(m, unflatten_params(m.params, fm)), x), 2)
            fd = (lp - lm) / (2 * h)
            assert ga[i] == pytest.approx(fd, abs=1e-6, rel=1e-4)


class TestOneForwardGradients:
    """The gradient path simulates each circuit once and returns the logits
    it read out; they must be the forward pass's, bit for bit."""

    @pytest.mark.parametrize("kind", ["angle", "amplitude", "qnn"])
    def test_logits_bitwise_equal_forward_batch(self, kind):
        rng = np.random.default_rng(41)
        if kind == "qnn":
            m = init_pqc6(Pqc6Config(), np.random.default_rng(5))
            X = rng.uniform(-math.pi, math.pi, size=(6, 8))
        else:
            m = make_qmlp(layers=3, n=4, n_classes=4, kind=kind, seed=6)
            X = rng.uniform(0.1, 1.2, size=(6, 4 if kind == "angle" else 11))
        seen = []

        def loss_grad(logits):
            seen.append(logits.copy())
            return np.ones_like(logits)

        logits, _, _ = models._quantum_backward(m, X, loss_grad)
        want = models.forward_batch(m, X)
        assert logits.tobytes() == want.tobytes()
        assert len(seen) == 1 and seen[0].tobytes() == want.tobytes()

    def test_weighted_batch_grads_sum_single_sample_grads(self):
        m = init_pqc6(Pqc6Config(n_qubits=3, layers=2, n_classes=3), np.random.default_rng(7))
        rng = np.random.default_rng(8)
        X = rng.uniform(-math.pi, math.pi, size=(4, 6))
        y = np.array([0, 2, 1, 2])
        w = rng.uniform(0.1, 1.0, size=4)
        onehot = np.eye(3)[y]
        _, grads, dX = models.logits_and_grads(m, X, lambda logits: softmax(logits) - onehot, w)
        single = [grad_params(m, X[i], int(y[i]), ce_with_grad) for i in range(4)]
        want = sum(wi * flatten_params(g) for wi, g in zip(w, single))
        assert np.max(np.abs(flatten_params(grads) - want)) < 1e-12
        for i in range(4):
            gx = grad_input(m, X[i], int(y[i]), ce_with_grad)
            assert np.max(np.abs(dX[i] - w[i] * gx)) < 1e-12


def per_instr_logits(model, X):
    """Reference forward: every instruction applied on its own."""
    instrs, psi = models._program(model, X)
    for ins in instrs:
        psi = sim._apply_instr(psi, ins, ins.base_matrix())
    z = (np.abs(psi) ** 2) @ models._z_diags(model.config.n_qubits).T
    return z, z @ model.params.head_w.T + model.params.head_b


def per_instr_amplitude_input_grad(model, x, y):
    """dL/dx of an amplitude-encoded QMLP with the bra carried back gate by
    gate: lambda_0 = U^dagger O U psi_0, chained through x / ||x||."""
    X = x[None, :]
    instrs, init = models._program(model, X)
    mats = [ins.base_matrix() for ins in instrs]
    psi = init
    for ins, mat in zip(instrs, mats):
        psi = sim._apply_instr(psi, ins, mat)
    zd = models._z_diags(model.config.n_qubits)
    logits = ((np.abs(psi) ** 2) @ zd.T) @ model.params.head_w.T + model.params.head_b
    _, dlogits = ce_with_grad(logits[0], y)
    lam = ((dlogits @ model.params.head_w) @ zd) * psi
    for ins, mat in zip(reversed(instrs), reversed(mats)):
        lam = sim._apply_instr(lam, ins, np.conj(mat.T))
    norm = np.linalg.norm(x)
    gr = 2.0 * lam.real[0, : len(x)]
    return gr / norm - x * (gr @ x) / norm**3


FUSION_CASES = {
    "angle_1q": dict(layers=3, n=1, n_classes=2),
    "angle_2q": dict(layers=2, n=2, n_classes=3),
    "angle_2q_once": dict(layers=3, n=2, n_classes=3, reupload=False),
    "angle_9q": dict(layers=2, n=9, n_classes=4),
    "angle_9q_once": dict(layers=2, n=9, n_classes=4, reupload=False),
    "amplitude_3q": dict(layers=2, n=3, n_classes=3, kind="amplitude"),
    # Wider than sim.N_DENSE: shared 1-qubit windows and a wrap-around CRX;
    # per-sample and shared windows at offsets 0, 4 and 5.
    "amplitude_6q": dict(layers=2, n=6, n_classes=3, kind="amplitude"),
    "angle_7q": dict(layers=2, n=7, n_classes=4),
}
# QNNs by qubit count; on 6 qubits its all-pairs CRX layers split into windows.
QNN_CASES = {"qnn": (3, 3), "qnn_6q": (6, 2)}


def fusion_case(name):
    rng = np.random.default_rng(61)
    if name in QNN_CASES:
        n, layers = QNN_CASES[name]
        m = init_pqc6(Pqc6Config(n_qubits=n, layers=layers, n_classes=3), np.random.default_rng(62))
        return m, rng.uniform(-math.pi, math.pi, size=(3, 2 * n))
    m = make_qmlp(seed=63, **FUSION_CASES[name])
    width = m.config.n_qubits if m.config.encoding.kind == "angle" else 2**m.config.n_qubits - 2
    return m, rng.uniform(0.1, 1.2, size=(3, width))


def assert_matches_per_instruction_reference(m, X):
    """Logits, features, weighted parameter gradients and per-sample input
    gradients of ``logits_and_grads`` against gate-by-gate references."""
    y = np.arange(len(X)) % m.config.n_classes
    w = np.linspace(0.5, 1.5, len(X))
    logits, grads, dX = models.logits_and_grads(
        m, X, lambda lg: softmax(lg) - np.eye(m.config.n_classes)[y], w
    )
    z, want_logits = per_instr_logits(m, X)
    assert np.max(np.abs(logits - want_logits)) < 1e-12
    assert np.max(np.abs(models.quantum_features(m, X) - z)) < 1e-12
    want = sum(
        wi * flatten_params(grad_params_shift(m, X[i], int(y[i]), ce_with_grad))
        for i, wi in enumerate(w)
    )
    assert np.max(np.abs(flatten_params(grads) - want)) < 1e-12
    for i, wi in enumerate(w):
        if isinstance(m.config, QmlpConfig) and m.config.encoding.kind == "amplitude":
            gx = per_instr_amplitude_input_grad(m, X[i], int(y[i]))
        else:
            gx = grad_input_shift(m, X[i], int(y[i]), ce_with_grad)
        assert np.max(np.abs(dX[i] - wi * gx)) < 1e-12


class TestGateFusion:
    """Same-qubit gate runs fused into one block must leave logits and every
    gradient where the per-instruction passes put them."""

    @pytest.mark.parametrize("name", [*FUSION_CASES, *QNN_CASES])
    def test_logits_and_gradients_match_per_instruction_reference(self, name):
        assert_matches_per_instruction_reference(*fusion_case(name))

    @pytest.mark.parametrize("noise", NOISE_TUPLES[:3], ids=["none", "depol", "damp_depol"])
    @pytest.mark.parametrize("name", ["angle_1q", "angle_2q", "angle_2q_once", "amplitude_3q", "qnn"])
    def test_mixed_features_match_per_gate_loop(self, name, noise):
        m, X = fusion_case(name)
        got = models.quantum_features(m, X, "mixed", noise)
        assert np.max(np.abs(got - per_gate_mixed_features(m, X, noise))) < 1e-12

    def test_gate_after_a_crx_on_its_qubit_opens_a_new_block(self):
        prog = [
            sim.GateOp("RY", (0,), 0.3),
            sim.GateOp("RY", (1,), 0.4),
            sim.GateOp("CRX", (0, 1), 0.5),
            sim.GateOp("RZ", (0,), 0.6),
            sim.GateOp("RZ", (1,), 0.7),
        ]
        blocks = sim._fuse([op.targets for op in prog])
        assert [b.members for b in blocks] == [(i,) for i in range(len(prog))]

    def test_gates_on_other_qubits_keep_merging(self, rotation_oracle):
        prog = [
            sim.GateOp("RY", (0,), 0.3),
            sim.GateOp("RX", (1,), 0.4),
            sim.GateOp("CRX", (1, 2), 0.5),
            sim.GateOp("RZ", (0,), 0.6),
            sim.GateOp("RY", (2,), 0.7),
            sim.GateOp("RY", (0,), 0.8),
        ]
        program, params, X = sim.compile_ops(3, prog)
        blocks = program.blocks
        assert [b.targets for b in blocks] == [(0,), (1,), (1, 2), (2,)]
        assert blocks[0].members == (0, 3, 5)
        want = rotation_oracle("RY", 0.8) @ rotation_oracle("RZ", 0.6) @ rotation_oracle("RY", 0.3)
        mats = program.products(program.gate_mats(params, X), program.groups)
        assert np.max(np.abs(mats[0] - want)) < 1e-15
        assert blocks[1].members == (1,) and blocks[3].members == (4,)

    @pytest.mark.parametrize(
        "model, width, count",
        [
            (make_qmlp(layers=2, n=9, n_classes=4), 9, 36),
            (init_pqc6(Pqc6Config(), np.random.default_rng(0)), 8, 96),
            (make_qmlp(layers=10, n=4, n_classes=4), 4, 80),
        ],
        ids=["qmlp_9q_2l", "qnn", "qmlp_4q_10l"],
    )
    def test_block_counts(self, model, width, count):
        assert len(models._compiled(model.config, width).blocks) == count

    def test_wide_gradient_makes_one_call_per_window_or_wide_block(self, kernel_calls):
        # Per layer: the encoder blocks (each fused with the layer's RY, RZ)
        # as per-sample windows on qubits 0-4 and 5-8, the CRX ring as dense
        # windows on qubits 0-4 and 4-8, and the wrap-around CRX (8, 0).
        m = make_qmlp(layers=2, n=9, n_classes=4, seed=64)
        layer = [("kron", 0, (0, 1, 2, 3, 4)), ("kron", 5, (5, 6, 7, 8))]
        assert models._compiled(m.config, 9).layout == [
            *layer, ("dense", 4, 4, 5, 0), ("dense", 4, 4, 5, 1), 17,
            *[("kron", lo, tuple(i + 18 for i in ids)) for _, lo, ids in layer],
            ("dense", 4, 4, 5, 2), ("dense", 4, 4, 5, 3), 35,
        ]
        X = np.random.default_rng(65).uniform(0.1, 1.2, size=(3, 9))
        tdist = np.eye(4)[np.arange(3) % 4]
        training._batch_grads(m, X, tdist, np.full(3, 1 / 3))
        # 10 items forward, 10 back less the first window, whose undo only an
        # amplitude encoding's input gradient reads.
        assert kernel_calls[0] == 19


def pure_items(m, X):
    """The pure path's bound items of ``m`` for inputs ``X``: (block, fused
    matrix) pairs and dense segments."""
    return models._compiled(m.config, X.shape[1]).bind(flatten_params(m.params), X)[0]


def dense_case(kind, n):
    rng = np.random.default_rng(70 + n)
    if kind == "qnn":
        m = init_pqc6(Pqc6Config(n_qubits=n, layers=2, n_classes=3), np.random.default_rng(71))
        return m, rng.uniform(-math.pi, math.pi, size=(3, 2 * n))
    if kind == "amplitude":
        m = make_qmlp(layers=3, n=n, n_classes=3, kind="amplitude", seed=72)
        return m, rng.uniform(0.1, 1.2, size=(3, max(2**n - 1, 2)))
    m = make_qmlp(layers=3, n=n, n_classes=3, seed=73, reupload=kind == "angle")
    return m, rng.uniform(0.1, 1.2, size=(3, n))


# Every model at every width that gets dense segments, except those whose
# circuit has no run of shared blocks: on 1 qubit an encoder's gates and all
# the rotations after it fuse into one per-sample block.
DENSE_CASES = [
    (kind, n)
    for n in range(1, sim.N_DENSE + 1)
    for kind in ("qnn", "angle", "angle_once", "amplitude")
    if n > 1 or kind == "amplitude"
]


class TestDenseSegments:
    """Runs of shared blocks on at most N_DENSE qubits run as one dense
    segment each; logits and every gradient must stay where the
    per-instruction passes put them."""

    @pytest.mark.parametrize("kind, n", DENSE_CASES, ids=[f"{k}_{n}q" for k, n in DENSE_CASES])
    def test_logits_and_gradients_match_per_instruction_reference(self, kind, n):
        m, X = dense_case(kind, n)
        assert any(isinstance(b, sim._Segment) for b in pure_items(m, X))
        assert_matches_per_instruction_reference(m, X)

    def test_qnn_is_four_encoder_blocks_and_one_segment(self):
        m = init_pqc6(Pqc6Config(), np.random.default_rng(0))
        blocks = models._compiled(m.config, 8).blocks
        items = pure_items(m, np.full((2, 8), 0.5))
        assert [isinstance(b, sim._Segment) for b in items] == [False] * 4 + [True]
        assert [b for b, _ in items[:4]] == blocks[:4]
        assert items[4].members == tuple(g for b in blocks[4:] for g in b.members)
        # Layer 0's 12 rotations fuse into the encoder blocks on their qubits.
        assert len(items[4].members) == 144 - 12

    def test_angle_qmlp_layer_is_encoder_blocks_then_its_crx_ring(self):
        m = make_qmlp(layers=3, n=4, n_classes=4)
        items = pure_items(m, np.full((2, 4), 0.5))
        assert [isinstance(b, sim._Segment) for b in items] == ([False] * 4 + [True]) * 3
        assert all(len(b.members) == 4 for b in items[4::5])
        # Each CRX of the ring has the previous one's target as its control.
        assert all(np.array_equal(b.unit, np.arange(4)) for b in items[4::5])

    def test_qnn_segment_is_39_commuting_units(self):
        # Layer 0's ring of 12 CRX is 4 units, one per control; each later
        # layer adds its RY, RZ and RX units and another 4: 4 + 5 * 7.
        m = init_pqc6(Pqc6Config(), np.random.default_rng(0))
        seg = pure_items(m, np.full((2, 8), 0.5))[-1]
        assert seg.prefix.shape == (39, 16, 16)
        assert np.bincount(seg.unit).tolist() == [3] * 4 + ([4] * 3 + [3] * 4) * 5

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_amplitude_qmlp_layer_is_six_units(self, n):
        # RY on every qubit, RZ on every qubit, then each CRX of the ring;
        # the next layer's rotations on the qubits that the ring has left
        # join its RY and RZ units.
        m = make_qmlp(layers=5, n=n, n_classes=3, kind="amplitude")
        (seg,) = pure_items(m, np.full((2, 2**n - 1), 0.5))
        assert seg.prefix.shape[0] == 5 * (2 + n)
        assert np.bincount(seg.unit).tolist() == [n, n, *[1] * n] * 5

    def test_wide_window_units_build_on_their_gates_qubits_alone(self):
        # The 9-qubit angle QMLP's four 5-qubit windows hold one CRX per
        # unit: each unit's product has one slot, the CRX's 2x2 matrix, and
        # fills 2 entries in each of the window's 16 control-1 rows.
        m = make_qmlp(layers=2, n=9, n_classes=4)
        ((members, _, _, _, _, fac, src, dest),) = models._compiled(m.config, 9).segments.values()
        assert members.shape == fac.shape[:2] == (4, 4) and fac.shape[2] == 1
        assert src.size == dest.size == 4 * 4 * 16 * 2


class TestCompiledProgram:
    """A quantum model's circuit is compiled once per (config, feature count)
    and bound to its angles per call: no call may see the angles of
    another."""

    def warm(self, m, X):
        models.forward_batch(m, X)
        return models._compiled(m.config, X.shape[1])

    @pytest.mark.parametrize("name", ["qnn", "angle_2q", "angle_9q"])
    def test_parameters_changed_in_place(self, name):
        m, X = fusion_case(name)
        self.warm(m, X)
        for a in models.tree_arrays(m.params).values():
            a += np.linspace(0.1, 0.7, a.size).reshape(a.shape)
        assert_matches_per_instruction_reference(m, X)

    def test_equal_valued_copy(self):
        m, X = fusion_case("qnn")
        self.warm(m, X)
        copy = replace_params(m, models.tree_map(np.copy, m.params))
        assert_matches_per_instruction_reference(copy, X)

    @pytest.mark.parametrize("name", ["qnn", "angle_2q_once", "amplitude_3q"])
    def test_other_inputs_and_batch_sizes(self, name):
        m, X = fusion_case(name)
        self.warm(m, X)
        X2 = np.random.default_rng(66).uniform(0.1, 1.2, size=(5, X.shape[1]))
        assert_matches_per_instruction_reference(m, X2)
        assert_matches_per_instruction_reference(m, X2[3:])

    def test_reupload_flag_gets_its_own_program(self):
        a = make_qmlp(layers=3, n=3, n_classes=3, seed=67, reupload=True)
        b = models.QmlpModel(dataclasses.replace(a.config, reupload=False), a.params)
        X = np.random.default_rng(68).uniform(0.1, 1.2, size=(3, 3))
        assert models._compiled(a.config, 3) is not models._compiled(b.config, 3)
        assert np.max(np.abs(models.forward_batch(a, X) - models.forward_batch(b, X))) > 1e-3
        for m in (b, a, b):
            assert_matches_per_instruction_reference(m, X)

    def test_caches_are_bounded(self):
        for layers in range(1, 40):
            models._compiled(make_qmlp(layers=layers, n=2, n_classes=2).config, 2)
        assert models._compiled.cache_info().currsize <= models._compiled.cache_info().maxsize == 16
        # A bind's dense segments keep their values after another bind.
        m, X = fusion_case("qnn")
        first = pure_items(m, X)[-1]
        before = first.prefix.copy()
        moved = replace_params(m, models.tree_map(lambda a: a + 0.5, m.params))
        assert not np.array_equal(pure_items(moved, X)[-1].prefix, before)
        assert np.array_equal(first.prefix, before)


GRAD_CHOICE_CASES = [(kind, n) for n in (4, 7, 9) for kind in ("qnn", "angle", "angle_once", "amplitude")]


class TestGradientChoice:
    """A sweep asked for one side's gradients skips the work that feeds only
    the other, and the side it returns keeps every bit of the full sweep's."""

    def grads(self, m, X, wrt):
        y = np.arange(len(X)) % m.config.n_classes
        return models.logits_and_grads(
            m, X, lambda lg: softmax(lg) - np.eye(m.config.n_classes)[y],
            np.linspace(0.5, 1.5, len(X)), wrt=wrt,
        )

    @pytest.mark.parametrize("kind, n", GRAD_CHOICE_CASES,
                             ids=[f"{k}_{n}q" for k, n in GRAD_CHOICE_CASES])
    def test_one_side_equals_the_full_sweep_bit_for_bit(self, kind, n):
        m, X = dense_case(kind, n)
        logits, grads, dX = self.grads(m, X, "both")
        p_logits, p_grads, p_dX = self.grads(m, X, "params")
        i_logits, i_grads, i_dX = self.grads(m, X, "inputs")
        assert np.array_equal(p_logits, logits) and np.array_equal(i_logits, logits)
        assert np.array_equal(flatten_params(p_grads), flatten_params(grads))
        assert np.array_equal(i_dX, dX)
        assert p_dX is None and i_grads is None

    def test_inputs_only_reads_no_dense_segment(self, monkeypatch):
        m, X = dense_case("qnn", 4)
        calls = []
        real = sim._segment_grads
        monkeypatch.setattr(sim, "_segment_grads", lambda *a: calls.append(1) or real(*a))
        self.grads(m, X, "inputs")
        assert calls == []
        self.grads(m, X, "both")
        assert calls == [1]

    def test_cmlp_and_unknown_choice(self):
        m = init_cmlp(CmlpConfig(3, 4, 2), np.random.default_rng(0))
        X = np.random.default_rng(1).uniform(size=(4, 3))
        loss_grad = lambda lg: softmax(lg) - np.eye(2)[[0, 1, 0, 1]]
        _, grads, dX = models.logits_and_grads(m, X, loss_grad)
        _, p_grads, p_dX = models.logits_and_grads(m, X, loss_grad, wrt="params")
        assert np.array_equal(flatten_params(p_grads), flatten_params(grads)) and p_dX is None
        with pytest.raises(ValueError, match="gradient choice"):
            models.logits_and_grads(m, X, loss_grad, wrt="theta")

    def test_window_matrices_are_built_once_per_gradient(self, monkeypatch):
        m = make_qmlp(layers=2, n=7, n_classes=3, seed=5)
        X = np.random.default_rng(6).uniform(0.1, 1.2, size=(3, 7))
        krons = sum(isinstance(item, sim._Kron) for item in pure_items(m, X))
        calls = []
        real = sim._Kron.matrix
        monkeypatch.setattr(sim._Kron, "matrix", lambda self: calls.append(1) or real(self))
        self.grads(m, X, "both")
        assert krons == 4 and len(calls) == krons

class TestSpsa:
    def test_symmetric_point_estimates_zero(self):
        rng = np.random.default_rng(0)
        g = spsa_estimate(lambda t: float(np.sum(t**2)), np.zeros(6), 0.02, rng)
        assert np.max(np.abs(g)) <= 0.02 * 6
        assert np.allclose(g, 0.0, atol=1e-12)

    def test_linear_loss_recovered_exactly(self):
        a = 3.7
        for seed in range(5):
            rng = np.random.default_rng(seed)
            g = spsa_estimate(lambda t: a * float(t[0]), np.array([0.9]), 0.02, rng)
            assert g[0] == pytest.approx(a, abs=1e-10)

    def test_quadratic_monte_carlo_mean(self):
        rng_master = np.random.default_rng(35)
        theta_star = rng_master.normal(size=5)
        theta = rng_master.normal(size=5)
        true = 2 * (theta - theta_star)
        ests = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            ests.append(
                spsa_estimate(
                    lambda t: float(np.sum((t - theta_star) ** 2)), theta, 0.02, rng
                )
            )
        mean = np.mean(ests, axis=0)
        assert np.max(np.abs(mean - true)) <= 0.1 * np.max(np.abs(true))

    def test_rejects_nonpositive_perturbation(self):
        with pytest.raises(ValueError):
            spsa_estimate(lambda t: 0.0, np.zeros(2), 0.0, np.random.default_rng(0))

    def test_model_level_estimate_shape_and_determinism(self):
        m = make_qmlp(layers=1, n=2, n_classes=2, seed=3)
        X = np.array([[0.2, 0.4], [0.6, 0.1]])
        targets = np.array([[1.0, 0.0], [0.0, 1.0]])
        g1, _ = spsa_grad(m, X, targets, 0.02, np.random.default_rng(5), cross_entropy_batch)
        g2, _ = spsa_grad(m, X, targets, 0.02, np.random.default_rng(5), cross_entropy_batch)
        assert g1.theta.shape == m.params.theta.shape
        assert np.array_equal(flatten_params(g1), flatten_params(g2))

    def test_model_level_works_in_mixed_mode(self):
        m = make_qmlp(layers=1, n=2, n_classes=2, seed=3)
        X = np.array([[0.2, 0.4]])
        targets = np.array([[1.0, 0.0]])
        g, _ = spsa_grad(
            m, X, targets, 0.02, np.random.default_rng(5), cross_entropy_batch,
            mode="mixed", noise=(make_depolarizing(0.05),),
        )
        assert np.all(np.isfinite(flatten_params(g)))


class TestCmlp:
    def test_zero_weights_give_bias(self):
        cfg = CmlpConfig(3, 4, 2)
        params = CmlpParams(
            np.zeros((4, 3)), np.zeros(4), np.zeros((2, 4)), np.array([0.3, -0.2])
        )
        assert np.allclose(cmlp_forward(cfg, params, np.ones(3)), [0.3, -0.2])

    def test_identity_like_hidden_unit(self):
        cfg = CmlpConfig(1, 1, 2)
        params = CmlpParams(
            np.array([[1.0]]), np.zeros(1), np.array([[1.0], [0.0]]), np.zeros(2)
        )
        out = cmlp_forward(cfg, params, np.array([2.0]))
        assert out[0] == pytest.approx(2.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        cfg = CmlpConfig(5, 7, 3)
        m = init_cmlp(cfg, rng)
        x = rng.normal(size=5)
        y = 2
        grads = cmlp_grad(cfg, m.params, x, y, ce_with_grad)
        flat = flatten_params(grads)
        fd = fd_param_grads(m, x, y, h=1e-6)
        assert np.max(np.abs(flat - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        m = init_cmlp(CmlpConfig(4, 6, 3), rng)
        x = rng.normal(size=4)
        g = grad_input(m, x, 1, ce_with_grad)
        fd = fd_input_grads(m, x, 1, h=1e-6)
        assert np.max(np.abs(g - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))


class TestCheckpoints:
    @pytest.mark.parametrize("kind", ["qmlp", "qnn", "cmlp"])
    def test_round_trip_lossless(self, tmp_path, kind):
        rng = np.random.default_rng(1)
        if kind == "qmlp":
            m = make_qmlp(layers=2, n=3, n_classes=3, kind="amplitude", seed=2)
        elif kind == "qnn":
            m = init_pqc6(Pqc6Config(), rng)
        else:
            m = init_cmlp(CmlpConfig(4, 8, 3), rng)
        path = tmp_path / "model.npz"
        save_model(path, m, seed=123)
        loaded, seed = load_model(path)
        assert seed == 123
        assert type(loaded) is type(m)
        assert loaded.config == m.config
        for a, b in zip(
            models.tree_arrays(loaded.params).values(),
            models.tree_arrays(m.params).values(),
        ):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "kind, field",
        [("qmlp", "theta"), ("qmlp", "head_b"), ("qnn", "ent"), ("cmlp", "w1")],
    )
    def test_rejects_param_shape_that_config_does_not_imply(self, tmp_path, kind, field):
        rng = np.random.default_rng(2)
        if kind == "qmlp":
            m = make_qmlp(layers=2, n=3, n_classes=3, seed=2)
        elif kind == "qnn":
            m = init_pqc6(Pqc6Config(), rng)
        else:
            m = init_cmlp(CmlpConfig(4, 8, 3), rng)
        path = tmp_path / "model.npz"
        save_model(path, m, seed=0)
        data = dict(np.load(path, allow_pickle=False))
        data[f"param_{field}"] = data[f"param_{field}"][..., :-1]
        np.savez(path, **data)
        with pytest.raises(ValueError, match=repr(field)):
            load_model(path)

    def test_rejects_missing_param(self, tmp_path):
        path = tmp_path / "model.npz"
        save_model(path, init_cmlp(CmlpConfig(2, 2, 2), np.random.default_rng(0)), seed=0)
        data = dict(np.load(path, allow_pickle=False))
        del data["param_b2"]
        np.savez(path, **data)
        with pytest.raises(ValueError, match="'b2'"):
            load_model(path)

    @pytest.mark.parametrize("config, match", [
        ('{"input_dim": 2, "hidden_dim": 2, "n_classes": 2}', "no known model kind"),
        ('{"kind": "rnn", "n_qubits": 4}', "no known model kind: {'kind': 'rnn'"),
        ('{"kind": ["qnn"], "n_qubits": 4}', "no known model kind"),
        ('{"kind": "qnn", "n_qubits": 4, "depth": 3}', "'depth'"),
        ('{"kind": "qmlp", "layers": 1, "n_classes": 2, "n_qubits": 2}', "'encoding'"),
        ('{"kind": "qmlp", "layers": 1, "n_classes": 2, "n_qubits": 2, "encoding": 3}',
         "EncodingSpec must be a mapping"),
        ('{"kind": "cmlp", "input_dim": 2, "hidden_dim": "2", "n_classes": 2}', "malformed"),
        ('{"kind": "qnn", "n_qubits": 2.5}', "malformed"),
        ('["kind", "cmlp"]', r"no known model kind: \['kind', 'cmlp'\]"),
    ])
    def test_rejects_malformed_config(self, tmp_path, config, match):
        path = tmp_path / "model.npz"
        save_model(path, init_cmlp(CmlpConfig(2, 2, 2), np.random.default_rng(0)), seed=0)
        data = dict(np.load(path, allow_pickle=False))
        data["config"] = np.array(config)
        np.savez(path, **data)
        with pytest.raises(ValueError, match=match):
            load_model(path)

    def test_rejects_unknown_version(self, tmp_path):
        m = init_cmlp(CmlpConfig(2, 2, 2), np.random.default_rng(0))
        path = tmp_path / "model.npz"
        save_model(path, m, seed=0)
        import numpy as np_

        data = dict(np_.load(path, allow_pickle=False))
        data["version"] = np_.array(99)
        np_.savez(path, **data)
        with pytest.raises(ValueError):
            load_model(path)

    # The config JSON that save_model writes, pinned byte for byte: a QMLP with
    # reupload off and a non-default input range, the default QNN and a CMLP.
    CONFIG_GOLDENS = {
        "qmlp": '{"encoding": {"input_range": [-1.0, 2.5], "kind": "angle", "n_qubits": 3}, '
                '"kind": "qmlp", "layers": 2, "n_classes": 3, "n_qubits": 3, "reupload": false}',
        "qnn": '{"kind": "qnn", "layers": 6, "n_classes": 4, "n_qubits": 4}',
        "cmlp": '{"hidden_dim": 8, "input_dim": 4, "kind": "cmlp", "n_classes": 3}',
    }

    @pytest.mark.parametrize("kind", sorted(CONFIG_GOLDENS))
    def test_config_json_is_pinned(self, tmp_path, kind):
        rng = np.random.default_rng(0)
        if kind == "qmlp":
            enc = EncodingSpec("angle", 3, (-1.0, 2.5))
            m = init_qmlp(QmlpConfig(2, enc, 3, 3, reupload=False), rng)
        elif kind == "qnn":
            m = init_pqc6(Pqc6Config(), rng)
        else:
            m = init_cmlp(CmlpConfig(4, 8, 3), rng)
        save_model(tmp_path / "model.npz", m, seed=7)
        with np.load(tmp_path / "model.npz", allow_pickle=False) as data:
            assert str(data["config"]) == self.CONFIG_GOLDENS[kind]
        assert load_model(tmp_path / "model.npz")[0].config == m.config


# Ten warm batch-64 gradient steps of the 9-qubit 2-layer angle QMLP; prints
# the minor page faults they took.
FAULT_PROBE = """
import math, resource
import numpy as np
from qmlrob import models
from qmlrob.encoding import EncodingSpec
enc = EncodingSpec("angle", 9, (0.0, math.pi))
m = models.init_qmlp(models.QmlpConfig(2, enc, 4, 9), np.random.default_rng(0))
X = np.random.default_rng(1).uniform(0.0, math.pi, size=(64, 9))
step = lambda: models.logits_and_grads(m, X, lambda lg: lg - lg.mean(axis=1, keepdims=True))
for _ in range(3):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the malloc thresholds are glibc's")
def test_wide_gradient_steps_take_no_page_faults():
    """``sim`` keeps freed memory in the process, so a step reuses the last
    one's temporaries instead of faulting in fresh pages (about 1,600 a step
    without it). A fresh process: in a long one glibc's dynamic thresholds
    may already have risen."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(models.__file__).resolve().parent.parent),
                                                      env.get("PYTHONPATH")]))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", FAULT_PROBE], capture_output=True, text=True,
                         env=env, check=True, timeout=300)
    assert int(out.stdout) < 100
