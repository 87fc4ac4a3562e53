"""Feature encodings: angle, dense-angle, amplitude, and rescaling."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qmlrob.encoding import (
    EncodingSpec,
    encode_state,
    encode_states,
    encoder_gates,
    feature_bounds,
    initial_amplitudes,
    rescale,
)
from qmlrob.sim import CircuitSpec, expect_z_amps, run_circuit

ANGLE_SPEC = EncodingSpec("angle", 4, (0.0, math.pi))
ANGLE1 = EncodingSpec("angle", 1, (0, math.pi))
DENSE1 = EncodingSpec("dense_angle", 1, (-math.pi, math.pi))


def gate_fields(ops):
    """(kind, targets, per-sample angles, tag) of each gate."""
    return [(op.kind, op.targets, np.asarray(op.angle).tolist(), op.tag) for op in ops]


def product_state(qubit_states):
    """Kron of per-qubit states; qubit 0 is the least significant bit."""
    out = np.ones(1, dtype=complex)
    for v in reversed(qubit_states):
        out = np.kron(out, v)
    return out


def dense_pair_state(a, b, oracle):
    """RX(b/2) RZ(a/2) RX(b) RZ(a) |0> from the closed-form 2x2 rotations."""
    vec = np.array([1.0, 0.0], dtype=complex)
    for kind, ang in (("RZ", a), ("RX", b), ("RZ", a / 2), ("RX", b / 2)):
        vec = oracle(kind, ang) @ vec
    return vec


class TestAngleEncoding:
    def test_zero_feature_keeps_ground_state(self):
        X = np.array([[0.0]])
        assert gate_fields(encoder_gates(X, "angle", 1)) == [("RY", (0,), [0.0], ("x", 0, 1.0))]
        assert np.allclose(encode_states(X, ANGLE1), [[1, 0]])

    def test_half_pi_feature_balances_z(self):
        states = encode_states(np.array([[math.pi / 2]]), ANGLE1)
        assert abs(expect_z_amps(states, 0)[0]) < 1e-12

    def test_too_many_features(self):
        spec = EncodingSpec("angle", 9, (0, math.pi))
        with pytest.raises(ValueError):
            encoder_gates(np.zeros((1, 10)), "angle", 9)
        with pytest.raises(ValueError):
            encode_states(np.zeros((1, 10)), spec)

    def test_extra_qubits_untouched(self):
        ops = encoder_gates(np.array([[1.0, 2.0]]), "angle", 4)
        assert {op.targets[0] for op in ops} == {0, 1}

    def test_cosine_identity_on_grid(self):
        thetas = np.linspace(0, math.pi, 100)
        z = expect_z_amps(encode_states(thetas[:, None], ANGLE1), 0)
        assert np.max(np.abs(z - np.cos(thetas))) < 1e-12

    def test_batch_matches_closed_form_product_state(self, rotation_oracle):
        X = np.random.default_rng(3).uniform(0, math.pi, size=(6, 3))
        got = encode_states(X, ANGLE_SPEC)
        zero = np.array([1.0, 0.0], dtype=complex)
        for x, state in zip(X, got):
            want = product_state(
                [rotation_oracle("RY", t) @ zero for t in x] + [zero]
            )
            assert np.max(np.abs(state - want)) <= 1e-12


class TestDenseAngleEncoding:
    def test_zero_features_identity_up_to_phase(self):
        X = np.zeros((1, 2))
        assert [op.kind for op in encoder_gates(X, "dense_angle", 1)] == ["RZ", "RX", "RZ", "RX"]
        assert expect_z_amps(encode_states(X, DENSE1), 0)[0] == pytest.approx(1.0)

    def test_matches_matrix_product_oracle(self, rotation_oracle):
        # (a=0, b=pi): state = RX(pi/2) RZ(0) RX(pi) RZ(0) |0>
        a, b = 0.0, math.pi
        got = encode_states(np.array([[a, b]]), DENSE1)
        assert np.allclose(got[0], dense_pair_state(a, b, rotation_oracle), atol=1e-12)
        assert expect_z_amps(got, 0)[0] == pytest.approx(math.cos(3 * math.pi / 2), abs=1e-12)

    def test_oracle_on_random_pairs(self, rotation_oracle):
        pairs = np.random.default_rng(5).uniform(-math.pi, math.pi, size=(25, 2))
        got = encode_states(pairs, DENSE1)
        for (a, b), state in zip(pairs, got):
            assert np.allclose(state, dense_pair_state(a, b, rotation_oracle), atol=1e-12)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            encoder_gates(np.zeros((1, 5)), "dense_angle", 4)
        with pytest.raises(ValueError):
            encoder_gates(np.zeros((1, 6)), "dense_angle", 4)

    def test_pair_layout_is_interleaved(self):
        X = np.array([[0.1, 0.2, 0.3, 0.4]])
        fields = gate_fields(encoder_gates(X, "dense_angle", 2))
        assert fields[0] == ("RZ", (0,), [0.1], ("x", 0, 1.0))
        assert fields[1] == ("RX", (0,), [0.2], ("x", 1, 1.0))
        assert fields[2] == ("RZ", (0,), [0.05], ("x", 0, 0.5))
        assert fields[4] == ("RZ", (1,), [0.3], ("x", 2, 1.0))

    def test_batch_matches_closed_form_product_state(self, rotation_oracle):
        X = np.random.default_rng(6).uniform(-math.pi, math.pi, size=(5, 6))
        got = encode_states(X, EncodingSpec("dense_angle", 3, (-math.pi, math.pi)))
        for x, state in zip(X, got):
            want = product_state(
                [dense_pair_state(x[2 * q], x[2 * q + 1], rotation_oracle) for q in range(3)]
            )
            assert np.max(np.abs(state - want)) <= 1e-12


def amplitude_state(x, n):
    return initial_amplitudes(np.atleast_2d(x), "amplitude", n)[0]


class TestAmplitudeEncoding:
    def test_normalizes(self):
        assert np.allclose(amplitude_state(np.array([3.0, 4.0]), 1), [0.6, 0.8])

    def test_zero_pads(self):
        assert np.allclose(amplitude_state(np.array([1.0, 0.0, 0.0]), 2), [1, 0, 0, 0])

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            amplitude_state(np.zeros(2), 1)
        with pytest.raises(ValueError):
            initial_amplitudes(np.array([[1.0, 0.0], [0.0, 0.0]]), "amplitude", 1)

    def test_rejects_oversized_input(self):
        with pytest.raises(ValueError):
            amplitude_state(np.ones(5), 2)

    def test_signed_amplitudes_preserved(self):
        out = amplitude_state(np.array([1.0, -1.0]), 1)
        assert np.allclose(out, [1 / math.sqrt(2), -1 / math.sqrt(2)])

    @given(st.integers(0, 10_000))
    def test_always_normalized(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        size = int(rng.integers(1, 2**n + 1))
        x = rng.normal(size=size)
        if np.linalg.norm(x) == 0:
            return
        assert abs(np.linalg.norm(amplitude_state(x, n)) - 1.0) < 1e-12

    def test_thousand_random_vectors_normalized(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            x = rng.normal(size=int(rng.integers(1, 9)))
            if np.linalg.norm(x) == 0:
                continue
            assert abs(np.linalg.norm(amplitude_state(x, 3)) - 1.0) < 1e-12

    def test_batch_matches_normalized_zero_padded_input(self):
        X = np.random.default_rng(7).normal(size=(8, 5))
        got = encode_states(X, EncodingSpec("amplitude", 3, (0, 1)))
        want = np.zeros((8, 8))
        want[:, :5] = X / np.linalg.norm(X, axis=1, keepdims=True)
        assert np.max(np.abs(got - want)) <= 1e-12


class TestRescale:
    def test_midpoint_example(self):
        out = rescale(np.array([5.0]), np.array([[0.0, 10.0]]), (0.0, math.pi))
        assert out[0] == pytest.approx(math.pi / 2)

    def test_endpoints_map_to_range(self):
        bounds = np.array([[-2.0, 6.0]])
        assert rescale(np.array([-2.0]), bounds, (0, 1))[0] == pytest.approx(0.0)
        assert rescale(np.array([6.0]), bounds, (0, 1))[0] == pytest.approx(1.0)

    def test_constant_dimension_maps_to_midpoint(self):
        bounds = np.array([[3.0, 3.0]])
        assert rescale(np.array([7.0]), bounds, (0, 2))[0] == pytest.approx(1.0)

    def test_batched_input(self):
        bounds = np.array([[0, 1], [0, 2]], dtype=float)
        out = rescale(np.array([[0.5, 1.0], [1.0, 2.0]]), bounds, (0, 1))
        assert np.allclose(out, [[0.5, 0.5], [1.0, 1.0]])

    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_monotone(self, x1, x2):
        bounds = np.array([[-5.0, 5.0]])
        y1 = rescale(np.array([x1]), bounds, (0, 1))[0]
        y2 = rescale(np.array([x2]), bounds, (0, 1))[0]
        if x1 <= x2:
            assert y1 <= y2 + 1e-12

    def test_idempotent_when_bounds_equal_range(self):
        bounds = np.array([[0.0, 1.0]])
        x = np.array([0.37])
        once = rescale(x, bounds, (0, 1))
        twice = rescale(once, bounds, (0, 1))
        assert np.allclose(once, twice)
        assert np.allclose(once, x)

    def test_feature_bounds_shape(self):
        f = np.array([[0.0, 5.0], [1.0, 3.0]])
        assert np.allclose(feature_bounds(f), [[0, 1], [3, 5]])


class TestEncodeState:
    def test_angle_matches_circuit(self):
        spec = EncodingSpec("angle", 2, (0, math.pi))
        x = np.array([0.3, 1.1])
        direct = run_circuit(CircuitSpec(2, tuple(encoder_gates(x, "angle", 2))), "pure")
        assert np.allclose(encode_state(x, spec).amplitudes, direct.amplitudes)

    def test_amplitude_shortcut(self):
        spec = EncodingSpec("amplitude", 2, (0, 1))
        out = encode_state(np.array([3.0, 4.0]), spec)
        assert np.allclose(out.amplitudes, [0.6, 0.8, 0, 0])
