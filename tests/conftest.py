"""Shared fixtures for the test suite."""

from __future__ import annotations

import hashlib
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
    planted_partition_maxcut,
    recommended_backend,
    scattered_circulant_maxcut,
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


# ----------------------------------------------------------------------
# Layout byte pins: five graphs that between them take every branch of the
# RCM / partition race.  ``test_partition.py`` pins each graph's partition
# assignment and ``test_reorder.py`` its RCM permutation and ``auto`` winner;
# a sixth, benchmark-scale graph pins the partition alone.
# ----------------------------------------------------------------------
def layout_digest(values, label: str = "") -> str:
    """sha256 of ``label`` and an index array's int64 bytes."""
    h = hashlib.sha256(label.encode())
    h.update(np.ascontiguousarray(values, dtype=np.int64).tobytes())
    return h.hexdigest()


def _pin_circulant():
    """Long diameter, scattered labels: RCM wins the race."""
    problem, _ = scattered_circulant_maxcut(1200, seed=7)
    return problem.to_ising(backend="sparse"), 32


def _pin_planted():
    """Clustered and FM-heavy: the partition wins the race."""
    problem, _ = planted_partition_maxcut(768, 6, seed=3)
    return problem.to_ising(backend="sparse"), 64


def _pin_non_dyadic():
    """Non-dyadic weights with ties in |J|, plus 20 isolated spins."""
    rng = ensure_rng(21)
    n = 420
    live = np.sort(rng.permutation(n)[: n - 20])
    rows, cols = np.triu_indices(live.size, k=1)
    pick = rng.choice(rows.size, size=1100, replace=False)
    w = rng.choice(np.array([-1.1, -0.7, -0.3, 0.3, 0.7, 1.1]), size=pick.size)
    return SparseIsingModel.from_edges(
        n, live[rows[pick]], live[cols[pick]], w, name="pin-non-dyadic"
    ), 32


def _pin_dense():
    """A dense-backend model with self couplings (the np.nonzero path)."""
    rng = ensure_rng(5)
    n = 180
    J = np.zeros((n, n))
    rows, cols = np.triu_indices(n, k=1)
    pick = rng.random(rows.size) < 0.035
    J[rows[pick], cols[pick]] = rng.choice(
        np.array([-1.0, -0.5, 0.5, 1.0]), size=int(pick.sum())
    )
    J = J + J.T
    J[np.arange(0, n, 9), np.arange(0, n, 9)] = 0.25
    return IsingModel(J, name="pin-dense"), 16


def _pin_components():
    """A ring, a clique, a path, a random graph and 30 isolated spins."""
    rng = ensure_rng(13)
    ring = np.arange(150)
    clique = np.triu_indices(12, k=1)
    path = np.arange(59)
    r, c = rng.integers(0, 200, size=(2, 500))
    u = np.concatenate([ring, clique[0] + 150, path + 162, r[r != c] + 222])
    v = np.concatenate(
        [(ring + 1) % 150, clique[1] + 150, path + 163, c[r != c] + 222]
    )
    n = 452
    key = np.unique(np.minimum(u, v) * n + np.maximum(u, v))
    relabel = rng.permutation(n)
    w = rng.choice(np.array([-0.25, 0.25, 0.5]), size=key.size)
    return SparseIsingModel.from_edges(
        n, relabel[key // n], relabel[key % n], w, name="pin-components"
    ), 32


def _pin_perfbench():
    """perfbench ``tiled-machine``'s instance at seed 0: a long drain.

    RCM wins its race, and perfbench's golden check pins that winner, so
    only the losing partition is pinned here (336 drain moves, against
    16–43 on the five graphs above).
    """
    problem, _ = scattered_circulant_maxcut(20_000, seed=0)
    return problem.to_ising(backend="sparse"), 256


#: name -> function returning ``(model, tile_size)``.
LAYOUT_PIN_GRAPHS = {
    "circulant": _pin_circulant,
    "planted": _pin_planted,
    "non-dyadic": _pin_non_dyadic,
    "dense": _pin_dense,
    "components": _pin_components,
    "perfbench": _pin_perfbench,
}
