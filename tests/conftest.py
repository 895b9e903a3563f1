"""Fixtures shared by the test modules."""

import numpy as np
import pytest

import fracradial.radial_ops as radial_ops


@pytest.fixture
def rows_built(monkeypatch):
    """Counts of the operator rows that radial_ops._rows builds while the
    test runs, by the sign of the kernel order: "fraclap" for a = -2s < 0,
    "riesz" for a = alpha > 0.  The test may reset the counts in place."""
    calls = {"fraclap": 0, "riesz": 0}
    rows = radial_ops._rows

    def counted(ctx, which, order, omega):
        calls["fraclap" if order < 0.0 else "riesz"] += np.size(which)
        return rows(ctx, which, order, omega)

    monkeypatch.setattr(radial_ops, "_rows", counted)
    return calls
