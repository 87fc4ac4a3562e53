"""Shared fixtures."""

import math

import numpy as np
import pytest

from qmlrob import sim


@pytest.fixture
def kernel_calls(monkeypatch) -> list[int]:
    """A one-item list counting the statevector kernel calls (local gates
    and dense segments) made through ``sim``'s module attributes while the
    test runs."""
    calls = [0]
    for name in ("apply_1q", "apply_controlled_1q", "apply_dense"):
        kernel = getattr(sim, name)

        def counted(*args, _kernel=kernel, **kwargs):
            calls[0] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(sim, name, counted)
    return calls


def _closed_form_rotation(kind: str, theta: float) -> np.ndarray:
    """The explicit 2x2 formula for RX/RY/RZ(theta), and for the target
    block of CRX(theta), written out entry by entry."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if kind in ("RX", "CRX"):
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "RZ":
        return np.array([[complex(c, -s), 0], [0, complex(c, s)]])
    raise ValueError(kind)


@pytest.fixture
def rotation_oracle():
    """``oracle(kind, theta)``: the closed-form 2x2 rotation matrix, an
    oracle independent of ``sim.GateOp.base_matrix``."""
    return _closed_form_rotation
