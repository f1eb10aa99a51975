"""Spin-reordering acceptance bench: scattered 50k+-node instance, RCM vs identity.

PR 2's tiled bench relies on a circulant (already-banded) labelling; this
bench starts from the hostile case — the same degree-6 circulant with its
node labels scrambled, so the edge set is scattered over the whole matrix.
In the identity ordering nearly every (row-block, col-block) slot holds a
nonzero and the tiled machine would program ~``min(nnz, grid²)`` tiles —
at 50 000 nodes / ``tile_size=256`` that is ~38 000 tiles of 256² cells
each, tens of GB of arrays: *prohibitive by construction*, which is
exactly the mapping cost the reordering pass removes.  Asserted here:

* **≥5× fewer instantiated tiles** with ``reorder="rcm"`` than the
  identity ordering would program (the identity count is computed exactly
  from the CSR structure via ``count_active_tiles`` — the estimator the
  occupancy regression test pins to ``TiledCrossbar.num_tiles`` — without
  ever building those tiles).  In practice the ratio is ~50-100×.
* **Bit-identical solver output after inverse mapping** — twice over:
  at full scale the RCM machine is compared against a machine using the
  *oracle* layout (the inverse of the scrambling relabelling, which
  restores the perfect circulant band): two different internal orderings,
  one external trajectory.  At a probe size where the identity ordering
  is still affordable, ``reorder="rcm"`` vs ``reorder="none"`` is
  compared directly.
* **No densification** — ``SparseIsingModel.toarray`` and the dense
  ``matrix_hat`` assembly are trapped for the whole run, and tracemalloc
  peak stays within an O(nnz) budget: both machines are ideal tile
  grids, which hold one stored CSR image and no per-tile cells.

The printed times come from a separate untraced pass (RCM machine build,
solve): tracemalloc hooks every Python allocation, and the layout pass
makes enough of them to run several times slower traced.  That pass must
reproduce the traced pass's trajectory.

Scale knobs (environment variables):

* ``REPRO_REORDER_BENCH_NODES`` — node count (default 50 000).
* ``REPRO_REORDER_BENCH_TILE``  — tile side (default 256).
* ``REPRO_REORDER_BENCH_ITERS`` — annealing iterations (default 2 000).
* ``REPRO_REORDER_PROBE_NODES`` — probe node count (default 2 000).
"""

from __future__ import annotations

import os
import time
import tracemalloc

import numpy as np

from benchmarks._common import emit, fmt_bytes as _fmt_bytes
from benchmarks._common import forbid_densification as _forbid_densification
from repro.arch import InSituCimAnnealer
from repro.core import count_active_tiles, rcm_permutation
from repro.ising import scattered_circulant_maxcut
from repro.ising.sparse import SparseIsingModel
from repro.utils.tables import render_table

BENCH_NODES = int(os.environ.get("REPRO_REORDER_BENCH_NODES", "50000"))
BENCH_TILE = int(os.environ.get("REPRO_REORDER_BENCH_TILE", "256"))
BENCH_ITERS = int(os.environ.get("REPRO_REORDER_BENCH_ITERS", "2000"))
PROBE_NODES = int(os.environ.get("REPRO_REORDER_PROBE_NODES", "2000"))
PROBE_TILE = 64
PROBE_ITERS = 500
BENCH_DEGREE = 6
SEED = 2026

#: Peak-memory budget coefficients (bytes): CSR storage plus the reorder
#: pass's transient per-entry arrays (BFS gathers, lexsorts, permuted
#: copies) and the stored tile image per nonzero.
BYTES_PER_NNZ = 320
BYTES_BASE = 64 * 1024 * 1024


def _run(machine: InSituCimAnnealer, iters: int):
    result = machine.run(iters)
    return (
        result.anneal.best_energy,
        result.anneal.energy,
        result.anneal.accepted,
        result.anneal.best_sigma,
    )


def test_reorder_recovers_banded_occupancy(capsys):
    """RCM maps a scattered 50k-node instance onto ≥5× fewer tiles."""
    problem, oracle = scattered_circulant_maxcut(BENCH_NODES, seed=99)
    model = problem.to_ising(backend="sparse")
    assert isinstance(model, SparseIsingModel)
    n, nnz = model.num_spins, model.nnz

    # Identity-ordering cost, computed from structure alone — programming
    # those tiles for real is the tens-of-GB case this pass eliminates.
    identity_tiles = count_active_tiles(model, BENCH_TILE)
    perm = rcm_permutation(model)

    tracemalloc.start()
    with _forbid_densification():
        machine = InSituCimAnnealer(
            model, tile_size=BENCH_TILE, reorder="rcm", seed=SEED
        )
        rcm_out = _run(machine, BENCH_ITERS)
        # Same instance stored under the *oracle* band layout: a different
        # tile grid must produce the bit-identical external trajectory.
        oracle_machine = InSituCimAnnealer(
            model, tile_size=BENCH_TILE, permutation=oracle, seed=SEED
        )
        oracle_out = _run(oracle_machine, BENCH_ITERS)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # Timed on an untraced pass, after the traced one.
    with _forbid_densification():
        build_start = time.perf_counter()
        timed_machine = InSituCimAnnealer(
            model, tile_size=BENCH_TILE, reorder="rcm", seed=SEED
        )
        build_time = time.perf_counter() - build_start
        solve_start = time.perf_counter()
        timed_out = _run(timed_machine, BENCH_ITERS)
        solve_time = time.perf_counter() - solve_start

    crossbar = machine.crossbar
    rcm_tiles = crossbar.num_tiles
    budget = BYTES_PER_NNZ * nnz + BYTES_BASE
    best_cut = problem.cut_from_energy(rcm_out[0])

    table = render_table(
        ["quantity", "value"],
        [
            ("nodes / nnz", f"{n} / {nnz}"),
            ("tile size / grid", f"{BENCH_TILE} / {crossbar.grid}×{crossbar.grid}"),
            ("bandwidth identity → rcm",
             f"{perm.bandwidth_before} → {perm.bandwidth_after}"),
            ("tiles identity ordering", f"{identity_tiles}"),
            ("tiles rcm ordering", f"{rcm_tiles} "
             f"({identity_tiles / max(rcm_tiles, 1):.0f}× fewer)"),
            ("tiles oracle ordering", f"{oracle_machine.crossbar.num_tiles}"),
            ("estimated vs actual rcm tiles",
             f"{perm.estimated_active_tiles(BENCH_TILE)} vs {rcm_tiles}"),
            ("reorder + program time (untraced)", f"{build_time:.2f} s"),
            (f"solve time ({BENCH_ITERS} iters, untraced)", f"{solve_time:.2f} s"),
            ("best cut", f"{best_cut:g}"),
            ("rcm ≡ oracle trajectory",
             f"{rcm_out[:3] == oracle_out[:3] and np.array_equal(rcm_out[3], oracle_out[3])}"),
            ("peak memory", _fmt_bytes(peak)),
            ("O(nnz) budget", _fmt_bytes(budget)),
        ],
        title=(
            f"Spin reordering — scattered n={n}, degree {BENCH_DEGREE}, "
            f"tile_size={BENCH_TILE}"
        ),
    )
    emit(capsys, "reorder", table)

    # ≥5× fewer instantiated tiles than the identity ordering would need.
    assert rcm_tiles * 5 <= identity_tiles, (
        f"rcm programs {rcm_tiles} tiles, identity {identity_tiles}"
    )
    # The estimator is exact — the machine programmed what was predicted.
    assert rcm_tiles == perm.estimated_active_tiles(BENCH_TILE)
    # Layout independence at scale: two different internal orderings, one
    # external fixed-seed trajectory (±1 weights store exactly).
    assert rcm_out[:3] == oracle_out[:3]
    assert np.array_equal(rcm_out[3], oracle_out[3])
    # The timed pass computed what the traced pass measured.
    assert timed_out[:3] == rcm_out[:3]
    assert np.array_equal(timed_out[3], rcm_out[3])
    # The solution is real: it reproduces its energy on the stored image.
    assert machine.hw_model.energy(rcm_out[3]) == rcm_out[0]
    # Bounded memory: O(nnz), no densification.
    assert peak <= budget, (
        f"peak {_fmt_bytes(peak)} exceeds budget {_fmt_bytes(budget)}"
    )


def test_reorder_probe_bit_identical_to_identity(capsys):
    """rcm vs none, compared directly at a size where none is affordable."""
    problem, _ = scattered_circulant_maxcut(PROBE_NODES, seed=99)
    model = problem.to_ising(backend="sparse")
    with _forbid_densification():
        plain = InSituCimAnnealer(model, tile_size=PROBE_TILE, seed=SEED)
        plain_out = _run(plain, PROBE_ITERS)
        rcm = InSituCimAnnealer(
            model, tile_size=PROBE_TILE, reorder="rcm", seed=SEED
        )
        rcm_out = _run(rcm, PROBE_ITERS)
    emit(
        capsys, "reorder_probe",
        f"probe n={PROBE_NODES}, tile={PROBE_TILE}: identity "
        f"{plain.crossbar.num_tiles} tiles vs rcm {rcm.crossbar.num_tiles} "
        f"tiles; trajectories identical: "
        f"{plain_out[:3] == rcm_out[:3]}",
    )
    assert rcm_out[:3] == plain_out[:3]
    assert np.array_equal(rcm_out[3], plain_out[3])
    assert rcm.crossbar.num_tiles * 5 <= plain.crossbar.num_tiles
