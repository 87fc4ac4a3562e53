"""Shared fixtures."""

import pytest

from qmlrob import sim


@pytest.fixture
def kernel_calls(monkeypatch) -> list[int]:
    """A one-item list counting the statevector kernel calls made through
    ``sim``'s module attributes while the test runs."""
    calls = [0]
    for name in ("apply_1q", "apply_controlled_1q"):
        kernel = getattr(sim, name)

        def counted(*args, _kernel=kernel, **kwargs):
            calls[0] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(sim, name, counted)
    return calls
