"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# The repo-root ``tools`` package (the repro-lint linter) is not on the
# import path by default — pytest adds tests/ and PYTHONPATH adds src/.
_REPO_ROOT = str(Path(__file__).resolve().parent.parent)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

from repro.ising import (
    IsingModel,
    MaxCutProblem,
    PackedIsingModel,
    SparseIsingModel,
    recommended_backend,
)
from repro.ising.packed import dyadic_uniform_scale
from repro.utils.rng import ensure_rng


@pytest.fixture
def rng():
    """A deterministic RNG for tests."""
    return ensure_rng(12345)


@pytest.fixture
def small_model():
    """A 12-spin random Ising model with fields."""
    return IsingModel.random(12, with_fields=True, seed=7)


@pytest.fixture
def small_maxcut():
    """A 20-node, 60-edge random Max-Cut instance."""
    return MaxCutProblem.random(20, 60, seed=11)


@pytest.fixture
def tiny_maxcut():
    """A 10-node instance small enough for brute force."""
    return MaxCutProblem.random(10, 20, seed=3)


def brute_force_maxcut(problem: MaxCutProblem) -> float:
    """Exhaustive optimum cut (n ≤ 16)."""
    n = problem.num_nodes
    assert n <= 16
    best = 0.0
    for bits in range(1 << (n - 1)):  # fix spin 0 by symmetry
        sigma = np.ones(n, dtype=np.int8)
        for i in range(n - 1):
            if bits >> i & 1:
                sigma[i + 1] = -1
        best = max(best, problem.cut_value(sigma))
    return best


def dense_qubo_to_ising(Q, q, offset, backend="auto", name="qubo"):
    """Reference QUBO → Ising conversion on the dense ``(n, n)`` matrix.

    The matrix formulas ``J = Q/4``, ``h = −(rowsum(Q) + q)/2`` and
    ``const = offset + sum(Q)/4 + sum(q)/2`` with numpy's dense sums, and
    the ``auto`` backend decided from the nonzero count of ``Q``: the
    oracle that :meth:`repro.ising.QuboModel.to_ising` must match.
    """
    Q = np.asarray(Q, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    J = Q / 4.0
    h = -(Q.sum(axis=1) + q) / 2.0
    const = offset + float(Q.sum()) / 4.0 + float(q.sum()) / 2.0
    if backend == "auto":
        backend = recommended_backend(
            Q.shape[0],
            int(np.count_nonzero(Q)) // 2,
            uniform_signs=dyadic_uniform_scale(J[J != 0.0]) is not None,
        )
    if backend == "dense":
        return IsingModel(J, h, offset=const, name=name)
    model = SparseIsingModel.from_dense(J, h, offset=const, name=name)
    return PackedIsingModel.from_sparse(model) if backend == "packed" else model


def model_bytes(model) -> dict:
    """Every stored number of an Ising model as raw bytes, per field."""
    out = {
        "type": type(model).__name__,
        "offset": np.float64(model.offset).tobytes(),
        "h": model.h.tobytes(),
    }
    if hasattr(model, "csr_arrays"):
        out["csr"] = [a.tobytes() for a in model.csr_arrays()]
    else:
        out["J"] = model.J.tobytes()
    return out
