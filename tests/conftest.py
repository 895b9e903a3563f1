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


@pytest.fixture
def cold_caches():
    """Empties radial_ops' two caches, the assembled operators of `_raw` and
    the kernel tables of `_kernel_table`, so that the test builds what it
    reads."""
    radial_ops._raw.cache_clear()
    radial_ops._kernel_table.cache_clear()
