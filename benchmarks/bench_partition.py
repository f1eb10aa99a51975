"""Partition-reordering acceptance bench: clustered 50k+-node SBM, partition vs RCM.

PR 3's reorder bench closes the *banded* case (RCM rediscovers a hidden
circulant band); this bench is the clustered case RCM cannot win: a
planted-partition / stochastic-block-model instance — ~100 communities
with dense random subgraphs, hub-routed sparse inter-community edges,
labels scrambled — has **no** banded ordering at all, so bandwidth is the
wrong objective and the multilevel min-cut partitioner
(:mod:`repro.core.partition`), which attacks the active-tile count
directly, must open it.  Asserted here:

* **≥5× fewer active tiles** with ``reorder="partition"`` than
  ``reorder="rcm"`` at the full 50k-node scale (both counts are exact by
  construction — ``Permutation.estimated_active_tiles`` is pinned to
  ``TiledCrossbar.num_tiles`` by the regression tests — and the RCM tile
  set, several GB of arrays, is never actually programmed, exactly like
  the identity side of the PR 3 bench).  A reduced-size smoke run asserts
  a ≥2× floor instead.
* **Bit-identical solver output** — twice over: at full scale the
  partition machine is compared against a machine using the *planted
  oracle* layout (communities laid out contiguously — the structure the
  partitioner has to rediscover); at a probe size where the identity
  ordering is still affordable, ``reorder="partition"`` vs
  ``reorder="none"`` is compared directly (±1 weights store exactly).
* **No densification** — ``SparseIsingModel.toarray`` and the dense
  ``matrix_hat`` assembly are trapped for the whole run, and tracemalloc
  peak stays within an O(nnz) budget: both machines are ideal tile
  grids, which hold one stored CSR image and no per-tile cells.

The printed times come from a separate untraced pass (partition, machine
build, solve): tracemalloc hooks every Python allocation, and the
partitioner makes enough of them to run several times slower traced.
That pass must reproduce the traced pass's partition and trajectory.

Scale knobs (environment variables):

* ``REPRO_PARTITION_BENCH_NODES``       — node count (default 51 200).
* ``REPRO_PARTITION_BENCH_COMMUNITIES`` — community count (default 100;
  must divide the node count).
* ``REPRO_PARTITION_BENCH_TILE``        — tile side (default 256).
* ``REPRO_PARTITION_BENCH_ITERS``       — annealing iterations (default 2 000).
* ``REPRO_PARTITION_PROBE_NODES``       — probe node count (default 3 072).
"""

from __future__ import annotations

import os
import time
import tracemalloc

import numpy as np

from benchmarks._common import emit, fmt_bytes as _fmt_bytes
from benchmarks._common import forbid_densification as _forbid_densification
from repro.arch import InSituCimAnnealer
from repro.core import (
    Permutation,
    count_active_tiles,
    partition_model,
    rcm_permutation,
    reorder_permutation,
)
from repro.ising import planted_partition_maxcut
from repro.ising.sparse import SparseIsingModel
from repro.utils.tables import render_table

BENCH_NODES = int(os.environ.get("REPRO_PARTITION_BENCH_NODES", "51200"))
BENCH_COMMUNITIES = int(
    os.environ.get("REPRO_PARTITION_BENCH_COMMUNITIES", "100")
)
BENCH_TILE = int(os.environ.get("REPRO_PARTITION_BENCH_TILE", "256"))
BENCH_ITERS = int(os.environ.get("REPRO_PARTITION_BENCH_ITERS", "2000"))
PROBE_NODES = int(os.environ.get("REPRO_PARTITION_PROBE_NODES", "3072"))
PROBE_COMMUNITIES = 6
PROBE_TILE = 64
PROBE_ITERS = 500
SEED = 2026
INSTANCE_SEED = 0

#: The ≥5× acceptance floor engages at the full 50k-node protocol; the
#: reduced-size CI smoke still requires the partitioner to win clearly.
FULL_PROTOCOL_NODES = 50_000
FULL_FLOOR = 5.0
SMOKE_FLOOR = 2.0

#: Peak-memory budget coefficients (bytes): CSR storage plus the
#: partitioner's transients (coarsening levels, pair-count map, per-entry
#: sorts) and the stored tile image per nonzero.
BYTES_PER_NNZ = 600
BYTES_BASE = 64 * 1024 * 1024


def _oracle_layout(membership: np.ndarray) -> Permutation:
    """Block-contiguous layout of the *planted* communities.

    Sorting by ground-truth membership restores the hidden clustered
    layout — the mapper does not know it; the partitioner has to
    rediscover an equivalently good one.
    """
    order = np.argsort(membership, kind="stable")
    forward = np.empty(membership.size, dtype=np.intp)
    forward[order] = np.arange(membership.size, dtype=np.intp)
    return Permutation(forward, strategy="oracle")


def _run(machine: InSituCimAnnealer, iters: int):
    result = machine.run(iters)
    return (
        result.anneal.best_energy,
        result.anneal.energy,
        result.anneal.accepted,
        result.anneal.best_sigma,
    )


def test_partition_beats_rcm_on_clustered_instance(capsys):
    """Min-cut partitioning maps a 50k-node SBM onto ≥5× fewer tiles than RCM."""
    problem, membership = planted_partition_maxcut(
        BENCH_NODES, BENCH_COMMUNITIES, seed=INSTANCE_SEED
    )
    model = problem.to_ising(backend="sparse")
    assert isinstance(model, SparseIsingModel)
    n, nnz = model.num_spins, model.nnz

    # Layout costs, computed exactly from structure alone: programming the
    # RCM (or identity) tile set for real is the multi-GB case this pass
    # eliminates.
    identity_tiles = count_active_tiles(model, BENCH_TILE)
    rcm_perm = rcm_permutation(model)
    rcm_tiles = rcm_perm.estimated_active_tiles(BENCH_TILE)

    tracemalloc.start()
    with _forbid_densification():
        partitioning = partition_model(model, BENCH_TILE)
        machine = InSituCimAnnealer(
            model, tile_size=BENCH_TILE,
            permutation=partitioning.to_permutation(), seed=SEED,
        )
        part_out = _run(machine, BENCH_ITERS)
        part_tiles = machine.crossbar.num_tiles
        del machine
        # Same instance stored under the *planted oracle* layout: a
        # different tile grid must produce the bit-identical external
        # trajectory.
        oracle = _oracle_layout(membership)
        oracle_machine = InSituCimAnnealer(
            model, tile_size=BENCH_TILE, permutation=oracle, seed=SEED
        )
        oracle_out = _run(oracle_machine, BENCH_ITERS)
        oracle_tiles = oracle_machine.crossbar.num_tiles
        del oracle_machine
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # Timed untraced, after the traced pass: the traced pass's first
    # machine is a reference cycle, and any pass run before it changes
    # when the collector frees that machine, and so the traced peak
    # (57 MB instead of 46 MB at CI size).
    with _forbid_densification():
        start = time.perf_counter()
        timed_partitioning = partition_model(model, BENCH_TILE)
        partition_time = time.perf_counter() - start
        start = time.perf_counter()
        machine = InSituCimAnnealer(
            model, tile_size=BENCH_TILE,
            permutation=timed_partitioning.to_permutation(), seed=SEED,
        )
        build_time = time.perf_counter() - start
        start = time.perf_counter()
        timed_out = _run(machine, BENCH_ITERS)
        solve_time = time.perf_counter() - start

    budget = BYTES_PER_NNZ * nnz + BYTES_BASE
    best_cut = problem.cut_from_energy(part_out[0])
    floor = FULL_FLOOR if BENCH_NODES >= FULL_PROTOCOL_NODES else SMOKE_FLOOR

    table = render_table(
        ["quantity", "value"],
        [
            ("nodes / nnz / communities",
             f"{n} / {nnz} / {BENCH_COMMUNITIES}"),
            ("tile size / grid",
             f"{BENCH_TILE} / {-(-n // BENCH_TILE)}×{-(-n // BENCH_TILE)}"),
            ("tiles identity ordering", f"{identity_tiles}"),
            ("tiles rcm ordering", f"{rcm_tiles}"),
            ("tiles partition ordering", f"{part_tiles} "
             f"({rcm_tiles / max(part_tiles, 1):.1f}× fewer than rcm)"),
            ("tiles planted-oracle layout", f"{oracle_tiles}"),
            ("partition edge cut / balance",
             f"{partitioning.edge_cut:g} / {partitioning.balance:.3f}"),
            ("partition time (untraced)", f"{partition_time:.2f} s"),
            ("machine build time (untraced)", f"{build_time:.2f} s"),
            (f"solve time ({BENCH_ITERS} iters, untraced)",
             f"{solve_time:.2f} s"),
            ("best cut", f"{best_cut:g}"),
            ("partition ≡ oracle trajectory",
             f"{part_out[:3] == oracle_out[:3] and np.array_equal(part_out[3], oracle_out[3])}"),
            ("peak memory", _fmt_bytes(peak)),
            ("O(nnz) budget", _fmt_bytes(budget)),
            ("dense (n, n) matrix alone", _fmt_bytes(8 * n * n)),
        ],
        title=(
            f"Min-cut partition reordering — SBM n={n}, "
            f"{BENCH_COMMUNITIES} communities, tile_size={BENCH_TILE}"
        ),
    )
    emit(capsys, "partition", table)

    # The acceptance ratio: min-cut blocks beat the bandwidth objective on
    # clustered structure (and both beat the identity scatter).
    assert part_tiles * floor <= rcm_tiles, (
        f"partition programs {part_tiles} tiles, rcm {rcm_tiles} "
        f"(floor {floor}×)"
    )
    assert part_tiles < identity_tiles
    # The partition is tile-aligned and its tile estimate is exact — the
    # machine programmed what was predicted.
    assert partitioning.is_tile_aligned
    assert part_tiles == partitioning.estimated_active_tiles()
    # Layout independence at scale: two different internal orderings, one
    # external fixed-seed trajectory (±1 weights store exactly).
    assert part_out[:3] == oracle_out[:3]
    assert np.array_equal(part_out[3], oracle_out[3])
    # The timed pass computed what the traced pass measured.
    assert np.array_equal(timed_partitioning.assignment, partitioning.assignment)
    assert timed_out[:3] == part_out[:3]
    assert np.array_equal(timed_out[3], part_out[3])
    # Bounded memory: O(nnz), no densification.
    assert peak <= budget, (
        f"peak {_fmt_bytes(peak)} exceeds budget {_fmt_bytes(budget)}"
    )
    if BENCH_NODES >= FULL_PROTOCOL_NODES:
        # Two machines' tile sets + the partitioner still undercut the
        # dense coupling matrix alone by a wide margin.
        assert peak < 8 * n * n / 3


def test_partition_probe_bit_identical_to_identity(capsys):
    """partition vs none, compared directly where none is affordable."""
    problem, _ = planted_partition_maxcut(
        PROBE_NODES, PROBE_COMMUNITIES, seed=3
    )
    model = problem.to_ising(backend="sparse")
    with _forbid_densification():
        plain = InSituCimAnnealer(model, tile_size=PROBE_TILE, seed=SEED)
        plain_out = _run(plain, PROBE_ITERS)
        part = InSituCimAnnealer(
            model, tile_size=PROBE_TILE, reorder="partition", seed=SEED
        )
        part_out = _run(part, PROBE_ITERS)
        # `auto` must deterministically settle the rcm-vs-partition race
        # by exact tile count (twice, same winner).
        first = reorder_permutation(model, "auto", tile_size=PROBE_TILE)
        second = reorder_permutation(model, "auto", tile_size=PROBE_TILE)
    assert first is not None and second is not None
    assert first.strategy == second.strategy
    assert np.array_equal(first.forward, second.forward)
    emit(
        capsys, "partition_probe",
        f"probe n={PROBE_NODES}, tile={PROBE_TILE}: identity "
        f"{plain.crossbar.num_tiles} tiles vs partition "
        f"{part.crossbar.num_tiles} tiles; auto picks {first.strategy!r}; "
        f"trajectories identical: {plain_out[:3] == part_out[:3]}",
    )
    assert part_out[:3] == plain_out[:3]
    assert np.array_equal(part_out[3], plain_out[3])
    assert part.crossbar.num_tiles * 2 <= plain.crossbar.num_tiles
