"""Tiled-crossbar sharding at 100k+ nodes: the O(nnz) memory bench.

The paper caps each annealer at one physical crossbar; the tiled machine
shards the coupling matrix over a sparse grid of ``tile_size``-row arrays,
registering tiles only for blocks that contain nonzeros.  An ideal
behavioural grid keeps one quantized CSR image and no per-tile cells, so
its memory is O(nnz) however many tiles it registers.  This bench solves a
100 000-node, degree-6 Max-Cut instance end to end through
``InSituCimAnnealer(tile_size=...)`` on the CSR backend and asserts:

* **no densification** — the dense ``(n, n)`` coupling matrix (80 GB at
  100k nodes) is never materialised: ``SparseIsingModel.toarray`` and the
  tiled ``matrix_hat`` assembly are trapped for the whole run;
* **sparse tile registry** — the occupied-tile count is a tiny fraction of
  the dense ``grid²`` grid (the instance is a degree-6 circulant, the
  banded ordering a real mapper would produce);
* **bounded memory** — tracemalloc peak stays within an explicit O(nnz)
  budget, orders of magnitude below the dense matrix alone.

The printed times come from a separate untraced pass (machine build,
solve): tracemalloc hooks every Python allocation, so traced times are
mostly tracing overhead.  That pass must reproduce the traced pass's
result.

Scale knobs (environment variables):

* ``REPRO_TILED_BENCH_NODES`` — node count (default 100 000).
* ``REPRO_TILED_BENCH_TILE``  — tile side ``s`` (default 256).
* ``REPRO_TILED_BENCH_ITERS`` — annealing iterations (default 2 000).
"""

from __future__ import annotations

import os
import time
import tracemalloc

import numpy as np

from benchmarks._common import emit, fmt_bytes as _fmt_bytes
from benchmarks._common import forbid_densification as _forbid_densification
from repro.arch import InSituCimAnnealer
from repro.ising import circulant_maxcut
from repro.ising.sparse import SparseIsingModel
from repro.utils.tables import render_table

BENCH_NODES = int(os.environ.get("REPRO_TILED_BENCH_NODES", "100000"))
BENCH_TILE = int(os.environ.get("REPRO_TILED_BENCH_TILE", "256"))
BENCH_ITERS = int(os.environ.get("REPRO_TILED_BENCH_ITERS", "2000"))
BENCH_DEGREE = 6
SEED = 2026

#: Peak-memory budget coefficients (bytes): CSR storage and its transient
#: copies (model + quantized image + construction scratch) per nonzero.
#: Ideal tiles hold no cells, so no per-cell term.
BYTES_PER_NNZ = 200
BYTES_BASE = 64 * 1024 * 1024


def test_tiled_sharding_scaling(capsys):
    """100k-node degree-6 instance solves tiled with O(nnz) memory."""
    build_start = time.perf_counter()
    # The banded ordering is what an array mapper produces for a local
    # graph; it keeps the occupied tile set at ~3 block diagonals instead
    # of the ~grid² blocks a scattered ordering would touch.
    problem = circulant_maxcut(BENCH_NODES, seed=99)
    model = problem.to_ising(backend="sparse")
    model_time = time.perf_counter() - build_start
    assert isinstance(model, SparseIsingModel)
    n, nnz = model.num_spins, model.nnz

    tracemalloc.start()
    with _forbid_densification():
        machine = InSituCimAnnealer(
            model, tile_size=BENCH_TILE, seed=SEED
        )
        result = machine.run(BENCH_ITERS)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # Timed on an untraced pass, after the traced one.
    with _forbid_densification():
        machine_start = time.perf_counter()
        timed_machine = InSituCimAnnealer(
            model, tile_size=BENCH_TILE, seed=SEED
        )
        program_time = time.perf_counter() - machine_start
        solve_start = time.perf_counter()
        timed = timed_machine.run(BENCH_ITERS).anneal
        solve_time = time.perf_counter() - solve_start

    crossbar = machine.crossbar
    budget = BYTES_PER_NNZ * nnz + BYTES_BASE
    dense_bytes = 8 * n * n
    best_cut = problem.cut_from_energy(result.anneal.best_energy)
    prog = crossbar.programming_summary()

    table = render_table(
        ["quantity", "value"],
        [
            ("nodes / nnz", f"{n} / {nnz}"),
            ("tile size / grid", f"{BENCH_TILE} / {crossbar.grid}×{crossbar.grid}"),
            ("tiles programmed", f"{crossbar.num_tiles} of {crossbar.grid_tiles} "
             f"({crossbar.occupancy:.2%} of a dense grid)"),
            ("cells programmed", f"{prog['cells']:.3g}"),
            ("build + program time (untraced)",
             f"{model_time + program_time:.2f} s"),
            (f"solve time ({BENCH_ITERS} iters, untraced)", f"{solve_time:.2f} s"),
            ("best cut", f"{best_cut:g}"),
            ("peak memory", _fmt_bytes(peak)),
            ("O(nnz) budget", _fmt_bytes(budget)),
            ("dense (n, n) matrix alone", _fmt_bytes(dense_bytes)),
        ],
        title=(
            f"Tiled crossbar sharding — n={n}, degree {BENCH_DEGREE}, "
            f"tile_size={BENCH_TILE}"
        ),
    )
    emit(capsys, "tiled_scaling", table)

    # The machine really solved on the sharded array: the reported best
    # configuration reproduces the reported energy on the stored image.
    assert result.anneal.best_energy < 0.0
    assert machine.hw_model.energy(result.anneal.best_sigma) == (
        result.anneal.best_energy
    )
    # The timed pass computed what the traced pass measured.
    anneal = result.anneal
    assert (timed.best_energy, timed.energy, timed.accepted) == (
        anneal.best_energy, anneal.energy, anneal.accepted
    )
    assert np.array_equal(timed.best_sigma, anneal.best_sigma)
    assert np.array_equal(timed.sigma, anneal.sigma)
    # Sparse registry: a dense grid would program every grid² slot.
    assert crossbar.num_tiles <= 4 * crossbar.grid
    # Peak memory obeys the O(nnz) model and is far below the dense
    # matrix the old path would have allocated.
    assert peak <= budget, (
        f"peak {_fmt_bytes(peak)} exceeds O(nnz) budget {_fmt_bytes(budget)}"
    )
    if BENCH_NODES >= 100_000:
        assert peak < dense_bytes / 20
