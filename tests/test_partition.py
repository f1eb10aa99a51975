"""Unit and property tests for the multilevel min-cut partition subsystem.

The partitioner must produce *valid* tile-aligned partitions (exact block
sizes, bijective block-contiguous permutation), its active-tile estimate
must match what a :class:`TiledCrossbar` actually instantiates, every run
must be deterministic (the ``auto`` scorer relies on it), and on clustered
instances it must beat both the identity scatter and the bandwidth
objective.  Transparency (bit-identical solves) is pinned in
``tests/test_reorder.py`` alongside the other reordering passes; the
``reorder="auto"`` golden lives in ``tests/test_golden_regression.py``.
"""

from __future__ import annotations

import copy
import heapq

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import InSituCimAnnealer, TiledCrossbar
from repro.core import (
    Partitioning,
    count_active_tiles,
    partition_model,
    partition_permutation,
    rcm_permutation,
    reorder_permutation,
    solve_ising,
)
from repro.core.partition import (
    FM_STALL_LIMIT,
    _apply_move,
    _best_drain_move,
    _best_move,
    _fm_pass,
    _GainBuckets,
    _Neighbourhoods,
    _pair_counts,
    _rebalance_exact,
    _sweep_moves,
    _tile_delta,
    _vertex_conn,
    _weighted_adjacency,
)
from repro.ising import IsingModel, SparseIsingModel, planted_partition_maxcut
from repro.utils.rng import ensure_rng
from tests.conftest import LAYOUT_PIN_GRAPHS, layout_digest

relaxed = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def dyadic_sparse_model(seed: int, with_fields: bool = False) -> SparseIsingModel:
    """Seeded random sparse model with exactly-representable couplings."""
    rng = ensure_rng(seed)
    n = int(rng.integers(6, 40))
    m = int(rng.integers(n, 3 * n))
    pairs = rng.choice(n * (n - 1) // 2, size=min(m, n * (n - 1) // 2), replace=False)
    rows, cols = np.triu_indices(n, k=1)
    r, c = rows[pairs], cols[pairs]
    vals = rng.integers(-8, 9, size=r.size) / 8.0
    keep = vals != 0
    h = rng.integers(-8, 9, size=n) / 8.0 if with_fields else None
    return SparseIsingModel.from_edges(
        n, r[keep], c[keep], vals[keep], h, offset=0.25, name=f"dyadic-{n}"
    )


def clustered_model(
    n: int = 3072, communities: int = 6, seed: int = 5
) -> SparseIsingModel:
    """Small planted-partition instance on the sparse backend."""
    problem, _ = planted_partition_maxcut(n, communities, seed=seed)
    model = problem.to_ising(backend="sparse")
    assert isinstance(model, SparseIsingModel)
    return model


# ----------------------------------------------------------------------
# Partition validity
# ----------------------------------------------------------------------
class TestPartitionValidity:
    @relaxed
    @given(seed=st.integers(0, 10_000), tile=st.sampled_from([2, 4, 8]))
    def test_blocks_are_tile_aligned(self, seed, tile):
        """Every block holds exactly ``tile_size`` spins (last: remainder)."""
        model = dyadic_sparse_model(seed)
        part = partition_model(model, tile)
        assert part.is_tile_aligned
        assert part.balance == 1.0
        assert part.num_blocks == -(-model.num_spins // tile)
        sizes = part.block_sizes()
        assert sizes.sum() == model.num_spins
        assert np.all(sizes[:-1] == tile)

    @relaxed
    @given(seed=st.integers(0, 10_000))
    def test_permutation_is_block_contiguous(self, seed):
        """Position ``forward[v] // tile`` is exactly v's block id."""
        model = dyadic_sparse_model(seed)
        part = partition_model(model, 4)
        perm = part.to_permutation()
        assert perm.strategy == "partition"
        assert np.array_equal(perm.forward // 4, part.assignment)

    @relaxed
    @given(seed=st.integers(0, 10_000))
    def test_estimate_matches_machine_exactly(self, seed):
        """``estimated_active_tiles`` equals ``TiledCrossbar.num_tiles``."""
        model = dyadic_sparse_model(seed)
        part = partition_model(model, 4)
        stored = model.permuted(part.to_permutation())
        assert (
            TiledCrossbar(stored, tile_size=4).num_tiles
            == part.estimated_active_tiles()
            == part.to_permutation().estimated_active_tiles(4)
        )

    def test_deterministic(self):
        """Repeated runs return the identical assignment (auto relies on it)."""
        model = clustered_model()
        a = partition_model(model, 64)
        b = partition_model(model, 64)
        assert np.array_equal(a.assignment, b.assignment)
        assert a.edge_cut == b.edge_cut

    def test_edge_cut_matches_direct_count(self):
        model = dyadic_sparse_model(42)
        part = partition_model(model, 4)
        indptr, indices, data = model.csr_arrays()
        rows = np.repeat(np.arange(model.num_spins), np.diff(indptr))
        a = part.assignment
        off = rows != indices
        direct = float(
            np.abs(data[off][a[rows[off]] != a[indices[off]]]).sum() / 2.0
        )
        assert part.edge_cut == direct

    def test_single_block_is_trivial(self):
        model = dyadic_sparse_model(7)
        part = partition_model(model, model.num_spins + 5)
        assert part.num_blocks == 1
        assert np.all(part.assignment == 0)
        assert part.edge_cut == 0.0
        assert part.to_permutation().is_identity

    def test_edgeless_model_partitions_cleanly(self):
        model = SparseIsingModel.from_edges(10, [0], [1], [0.0])  # dropped zero
        part = partition_model(model, 4)
        assert part.is_tile_aligned
        assert part.edge_cut == 0.0

    def test_dense_model_accepted(self):
        sparse = dyadic_sparse_model(11)
        dense = sparse.to_dense()
        assert isinstance(dense, IsingModel)
        assert np.array_equal(
            partition_model(dense, 4).assignment,
            partition_model(sparse, 4).assignment,
        )


# ----------------------------------------------------------------------
# Layout quality on clustered instances
# ----------------------------------------------------------------------
class TestClusteredQuality:
    def test_partition_beats_rcm_and_identity(self):
        """On an SBM, min-cut blocks beat both bandwidth and the scatter."""
        model = clustered_model()
        tile = 64
        part_tiles = partition_permutation(model, tile).estimated_active_tiles(tile)
        rcm_tiles = rcm_permutation(model).estimated_active_tiles(tile)
        identity_tiles = count_active_tiles(model, tile)
        assert part_tiles * 2 <= rcm_tiles
        assert part_tiles * 2 <= identity_tiles

    def test_auto_prefers_partition_on_clustered_instance(self):
        model = clustered_model()
        perm = reorder_permutation(model, "auto", tile_size=64)
        assert perm is not None
        assert perm.strategy == "partition"

    def test_machine_reports_partition_ordering(self):
        model = clustered_model(1024, 4, seed=9)
        machine = InSituCimAnnealer(
            model, tile_size=64, reorder="partition", seed=0
        )
        assert machine.permutation is not None
        assert machine.mapping.ordering == "partition"
        assert machine.crossbar.num_tiles == (
            machine.permutation.estimated_active_tiles(64)
        )


# ----------------------------------------------------------------------
# Layout byte pins
# ----------------------------------------------------------------------
#: sha256 of ``partition_model(model, tile_size).assignment`` per graph of
#: ``LAYOUT_PIN_GRAPHS``.  The partition kernels may get faster, never
#: different: every gain, tie-break and drain order lands in these bytes.
PARTITION_PINS = {
    "circulant": "7bcb927be68396dfe5868408253f2990248698b5ae53d45818c13bf151fffef9",
    "planted": "aeec9f6d559f71b50870bf5c92d42db8eb58855567f15bf14006dda156b79b7a",
    "non-dyadic": "802f99b86b4716deb2aa22cc7013ca8deb739c8ee85f7675b82f40f520bb6c93",
    "dense": "e1405a910971d0ff3f2b2344fe2b14439bd427592c3f5df7cf5c085eb9c5c7d5",
    "components": "dd9566569b0504e8124018d2d2a28192ff7adcc714e2e9a2d8f63d4dfd1ca945",
    "perfbench": "42859cc23bd2f86d3d3ef605930d27737055c03c6fc60d060ed4a49169106ea1",
}


class TestPartitionBytePins:
    @pytest.mark.parametrize("name", sorted(PARTITION_PINS))
    def test_assignment_bytes(self, name):
        model, tile = LAYOUT_PIN_GRAPHS[name]()
        part = partition_model(model, tile)
        assert part.is_tile_aligned
        assert layout_digest(part.assignment) == PARTITION_PINS[name]


# ----------------------------------------------------------------------
# The whole-sweep scorer and the drain that stops at zero overflow
# ----------------------------------------------------------------------
sweeps = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def sweep_graph(seed: int):
    """``(indptr, indices, weights, assign, k, rng)`` of a random sparse graph.

    2–300 spins, about a tenth of them isolated, non-dyadic couplings with
    ties in |J|, and a random assignment to 2–32 blocks.
    """
    rng = ensure_rng(seed)
    n = int(rng.integers(2, 301))
    live = np.flatnonzero(rng.random(n) < 0.9)
    if live.size < 2:
        live = np.arange(n)
    rows, cols = np.triu_indices(live.size, k=1)
    m = int(rng.integers(1, min(rows.size, 4 * n) + 1))
    pick = rng.choice(rows.size, size=m, replace=False)
    w = rng.choice(np.array([-1.1, -0.7, -0.3, 0.3, 0.7, 1.1]), size=pick.size)
    model = SparseIsingModel.from_edges(n, live[rows[pick]], live[cols[pick]], w)
    _, indptr, indices, weights, _ = _weighted_adjacency(model)
    k = int(rng.integers(2, min(n, 32) + 1))
    return indptr, indices, weights, rng.integers(0, k, size=n), k, rng


class LifoBuckets:
    """The max-gain bucket queue every entry is pushed into, LIFO per gain."""

    def __init__(self) -> None:
        self._buckets: dict[float, list[tuple[int, int, int]]] = {}
        self._heap: list[float] = []

    def push(self, gain: float, vertex: int, target: int, stamp: int) -> None:
        bucket = self._buckets.get(gain)
        if bucket is None:
            self._buckets[gain] = bucket = []
            heapq.heappush(self._heap, -gain)
        bucket.append((vertex, target, stamp))

    def pop(self) -> tuple[float, int, int, int] | None:
        while self._heap:
            gain = -self._heap[0]
            bucket = self._buckets.get(gain)
            if bucket:
                return (gain,) + bucket.pop()
            heapq.heappop(self._heap)
            self._buckets.pop(gain, None)
        return None


def reference_rebalance(indptr, indices, weights, assign, targets, M) -> None:
    """The drain scored vertex by vertex, rescanning every requeued vertex,
    every entry pushed into :class:`LifoBuckets`, run until its queue is
    empty."""
    k = targets.shape[0]
    sizes = np.bincount(assign, minlength=k)
    stamp = np.zeros(assign.shape[0], dtype=np.int64)
    ptr, nbr, wt, asg, sz, tg, st_ = (
        memoryview(a)
        for a in (indptr, indices, weights, assign, sizes, targets, stamp)
    )

    def requeue(v: int) -> None:
        own = asg[v]
        if sz[own] <= tg[own]:
            return
        counts, wsums, _ = _vertex_conn(v, ptr, nbr, wt, asg)
        move = _best_drain_move(own, counts, wsums, sz, tg, M)
        if move is not None:
            buckets.push(move[0], v, move[1], st_[v])

    while int(np.sum(np.maximum(sizes - targets, 0))) > 0:
        buckets = LifoBuckets()
        moved = False
        for v in memoryview(np.flatnonzero(sizes[assign] > targets[assign])):
            requeue(v)
        while True:
            entry = buckets.pop()
            if entry is None:
                break
            _, v, target, pushed = entry
            if pushed != st_[v]:
                continue
            own = asg[v]
            if sz[own] <= tg[own] or sz[target] >= tg[target]:
                st_[v] += 1
                requeue(v)
                continue
            _apply_move(v, target, _vertex_conn(v, ptr, nbr, wt, asg)[0], asg, M)
            sz[own] -= 1
            sz[target] += 1
            moved = True
            for j in range(ptr[v], ptr[v + 1]):
                u = nbr[j]
                st_[u] += 1
                requeue(u)
        if not moved:
            break


def reference_fm_pass(
    indptr, indices, weights, vweights, assign, block_weight, caps, M
) -> float:
    """The FM pass scored vertex by vertex, rescanning every requeued
    vertex, every entry pushed into :class:`LifoBuckets`."""
    n = assign.shape[0]
    stamp = np.zeros(n, dtype=np.int64)
    locked = np.zeros(n, dtype=bool)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    boundary = np.bincount(rows[assign[rows] != assign[indices]], minlength=n) > 0
    ptr, nbr, wt, vw, asg, bw, cap, st_, lock = (
        memoryview(a)
        for a in (
            indptr, indices, weights, vweights, assign, block_weight, caps,
            stamp, locked,
        )
    )
    buckets = LifoBuckets()

    def requeue(v: int) -> None:
        counts, wsums, _ = _vertex_conn(v, ptr, nbr, wt, asg)
        move = _best_move(asg[v], vw[v], counts, wsums, bw, cap, M)
        if move is not None:
            buckets.push(move[0], v, move[1], st_[v])

    for v in np.flatnonzero(boundary).tolist():
        requeue(v)
    moves = []
    tiles, tie, best_tiles, best_tie, best_len = 0, 0.0, 0, 0.0, 0
    while True:
        entry = buckets.pop()
        if entry is None:
            break
        _, v, target, pushed = entry
        if lock[v] or pushed != st_[v]:
            continue
        wv = vw[v]
        if bw[target] + wv > cap[target]:
            st_[v] += 1
            requeue(v)
            continue
        frm = asg[v]
        counts, wsums, _ = _vertex_conn(v, ptr, nbr, wt, asg)
        move_tiles = _tile_delta(frm, target, counts, M)
        wgain = wsums.get(target, 0.0) - wsums.get(frm, 0.0)
        _apply_move(v, target, counts, asg, M)
        bw[frm] -= wv
        bw[target] += wv
        lock[v] = True
        moves.append((v, frm, target))
        tiles += move_tiles
        tie += 0.5 * (wgain / (1.0 + abs(wgain)))
        if tiles > best_tiles or (tiles == best_tiles and tie > best_tie):
            best_tiles, best_tie, best_len = tiles, tie, len(moves)
        if len(moves) - best_len > FM_STALL_LIMIT:
            break
        for j in range(ptr[v], ptr[v + 1]):
            u = nbr[j]
            if not lock[u]:
                st_[u] += 1
                requeue(u)
    for v, frm, _ in reversed(moves[best_len:]):
        wv = vw[v]
        bw[asg[v]] -= wv
        bw[frm] += wv
        _apply_move(v, frm, _vertex_conn(v, ptr, nbr, wt, asg)[0], asg, M)
    return best_tiles + best_tie


def assert_neighbourhoods_current(conn, indptr, indices, weights, assign) -> None:
    """Every kept entry's counts, sums (to the bit) and groups equal a
    fresh :func:`_vertex_conn` scan under ``assign``."""
    csr = [memoryview(a) for a in (indptr, indices, weights, assign)]
    for u, (counts, wsums, groups) in conn._entries.items():
        fresh = _vertex_conn(u, *csr)
        assert counts == fresh[0]
        assert {b: repr(w) for b, w in wsums.items()} == {
            b: repr(w) for b, w in fresh[1].items()
        }
        assert groups == fresh[2]


def assert_same_moves(got, want) -> None:
    """The sweep's ``(vertices, gains, targets)`` against per-vertex moves."""
    vertices, gains, targets = (a.tolist() for a in got)
    assert vertices == [v for v, _ in want]
    assert targets == [move[1] for _, move in want]
    assert [repr(g) for g in gains] == [repr(move[0]) for _, move in want]


#: A ``drain_instance`` seed (42 spins) whose drain pops two requeued
#: entries at the gain of the sweep's next entry.
DRAIN_TIE_SEED = 11


def drain_instance(seed: int):
    """``(indptr, indices, weights, assign, targets, M)`` ready for a drain."""
    indptr, indices, weights, assign, _, rng = sweep_graph(seed)
    n = assign.shape[0]
    s = int(rng.integers(2, max(3, n // 2) + 1))
    k = -(-n // s)
    targets = np.full(k, s, dtype=np.intp)
    targets[-1] = n - (k - 1) * s
    assign = assign % k
    return indptr, indices, weights, assign, targets, _pair_counts(indptr, indices, assign, k)


def assert_drain_matches_reference(indptr, indices, weights, assign, targets, M):
    want_assign, want_M = assign.copy(), copy.deepcopy(M)
    reference_rebalance(indptr, indices, weights, want_assign, targets, want_M)
    _rebalance_exact(
        indptr, indices, weights, assign, targets, M,
        _Neighbourhoods(indptr, indices, weights, assign),
    )
    assert np.array_equal(np.bincount(assign, minlength=targets.size), targets)
    assert np.array_equal(assign, want_assign)
    assert M == want_M == _pair_counts(indptr, indices, assign, targets.size)


class TestSweepScorer:
    @sweeps
    @given(st.integers(0, 2**32 - 1))
    def test_fm_sweep_matches_best_move(self, seed):
        indptr, indices, weights, assign, k, rng = sweep_graph(seed)
        n = assign.shape[0]
        vweights = rng.integers(1, 4, size=n)
        block_weight = np.bincount(assign, weights=vweights, minlength=k).astype(np.intp)
        # Caps below, at and above each block's weight: over-full, full
        # and under-full blocks in one assignment.
        caps = block_weight + rng.integers(-3, 4, size=k)
        M = _pair_counts(indptr, indices, assign, k)
        scored = rng.random(n) < 0.7
        csr = [memoryview(a) for a in (indptr, indices, weights, assign)]
        want = [
            (v, move) for v in np.flatnonzero(scored).tolist()
            if (move := _best_move(
                assign[v], vweights[v], *_vertex_conn(v, *csr)[:2],
                memoryview(block_weight), memoryview(caps), M,
            )) is not None
        ]
        assert_same_moves(
            _sweep_moves(
                scored, indptr, indices, weights, assign, vweights,
                caps - block_weight, M, fallback=False,
            ),
            want,
        )

    @sweeps
    @given(st.integers(0, 2**32 - 1))
    def test_drain_sweep_matches_best_drain_move(self, seed):
        indptr, indices, weights, assign, k, rng = sweep_graph(seed)
        n = assign.shape[0]
        sizes = np.bincount(assign, minlength=k)
        targets = np.maximum(sizes + rng.integers(-3, 4, size=k), 0)
        M = _pair_counts(indptr, indices, assign, k)
        scored = sizes[assign] > targets[assign]
        csr = [memoryview(a) for a in (indptr, indices, weights, assign)]
        want = [
            (v, move) for v in np.flatnonzero(scored).tolist()
            if (move := _best_drain_move(
                assign[v], *_vertex_conn(v, *csr)[:2],
                memoryview(sizes), memoryview(targets), M,
            )) is not None
        ]
        assert_same_moves(
            _sweep_moves(
                scored, indptr, indices, weights, assign, np.ones(n, dtype=np.intp),
                targets - sizes, M, fallback=True,
            ),
            want,
        )

    @sweeps
    @given(st.integers(0, 2**32 - 1))
    def test_drain_matches_reference(self, seed):
        assert_drain_matches_reference(*drain_instance(seed))

    def test_drain_requeue_ties_a_sweep_entry(self, monkeypatch):
        """A requeued entry pops before a swept entry of the same gain.

        The instance is one where that happens, which the recording queue
        checks: the buckets gave LIFO order with the sweep pushed first.
        """
        ties = []

        class Recording(_GainBuckets):
            def pop(self):
                i = self._next
                entry = super().pop()
                gains = self._swept[0]
                if entry is not None and self._next == i < len(gains):
                    ties.append(gains[i] == entry[0])
                return entry

        monkeypatch.setattr("repro.core.partition._GainBuckets", Recording)
        assert_drain_matches_reference(*drain_instance(DRAIN_TIE_SEED))
        assert any(ties)

    @sweeps
    @given(st.integers(0, 2**32 - 1))
    def test_fm_pass_matches_reference(self, seed):
        indptr, indices, weights, assign, k, rng = sweep_graph(seed)
        n = assign.shape[0]
        vweights = rng.integers(1, 4, size=n)
        block_weight = np.bincount(assign, weights=vweights, minlength=k).astype(np.intp)
        caps = block_weight + rng.integers(-3, 4, size=k)
        M = _pair_counts(indptr, indices, assign, k)
        want_assign, want_weight, want_M = assign.copy(), block_weight.copy(), copy.deepcopy(M)
        want = reference_fm_pass(
            indptr, indices, weights, vweights, want_assign, want_weight, caps, want_M
        )
        conn = _Neighbourhoods(indptr, indices, weights, assign)
        got = _fm_pass(
            indptr, indices, weights, vweights, assign, block_weight, caps, M, conn
        )
        assert repr(got) == repr(want)
        assert np.array_equal(assign, want_assign)
        assert np.array_equal(block_weight, want_weight)
        assert M == want_M == _pair_counts(indptr, indices, assign, k)
        assert_neighbourhoods_current(conn, indptr, indices, weights, assign)


class TestRefinementState:
    @sweeps
    @given(st.integers(0, 2**32 - 1))
    def test_queue_pops_as_buckets_with_the_sweep_pushed_first(self, seed):
        rng = ensure_rng(seed)
        gains_pool = np.array([-1.5, -0.25, 0.0, 0.25, 1.0])
        m = int(rng.integers(0, 30))
        vertices = np.sort(rng.choice(500, size=m, replace=False))
        gains = rng.choice(gains_pool, size=m)
        targets, stamps = rng.integers(0, 4, size=m), rng.integers(0, 3, size=m)
        queue, want = _GainBuckets(vertices, gains, targets, stamps), LifoBuckets()
        for entry in zip(*(a.tolist() for a in (gains, vertices, targets, stamps))):
            want.push(*entry)
        for _ in range(3 * m + 10):
            if rng.random() < 0.4:
                entry = (
                    float(rng.choice(gains_pool)), int(rng.integers(500)),
                    int(rng.integers(4)), int(rng.integers(3)),
                )
                queue.push(*entry)
                want.push(*entry)
            else:
                assert queue.pop() == want.pop()
        while (entry := want.pop()) is not None:
            assert queue.pop() == entry
        assert queue.pop() is None

    @sweeps
    @given(st.integers(0, 2**32 - 1))
    def test_neighbourhoods_equal_a_fresh_scan_after_moves(self, seed):
        indptr, indices, weights, assign, k, rng = sweep_graph(seed)
        n = assign.shape[0]
        conn = _Neighbourhoods(indptr, indices, weights, assign)
        for _ in range(40):
            conn[int(rng.integers(n))]
            v, to = int(rng.integers(n)), int(rng.integers(k))
            frm = int(assign[v])
            if to != frm:
                assign[v] = to
                conn.moved(v, frm, to)
            assert_neighbourhoods_current(conn, indptr, indices, weights, assign)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
class TestPartitionValidation:
    def test_partition_requires_tile_size(self):
        model = dyadic_sparse_model(1)
        with pytest.raises(ValueError, match="tile_size"):
            reorder_permutation(model, "partition")
        with pytest.raises(ValueError, match="tile_size"):
            InSituCimAnnealer(model, reorder="partition", seed=0)
        with pytest.raises(ValueError, match="tile_size"):
            solve_ising(model, iterations=10, reorder="partition")

    @pytest.mark.parametrize("bad", [True, False, 0, -3, 2.5])
    def test_tile_size_validated_everywhere(self, bad):
        """``check_count`` guards every tile_size entry point.

        Booleans (``True`` would silently mean 1) and non-positive or
        fractional counts must fail loudly in the partitioner, the
        estimators, and the tiled crossbar's registry alike.
        """
        model = dyadic_sparse_model(2)
        perm = rcm_permutation(model)
        for call in (
            lambda: partition_model(model, bad),
            lambda: partition_permutation(model, bad),
            lambda: perm.estimated_active_tiles(bad),
            lambda: count_active_tiles(model, bad),
            lambda: TiledCrossbar(model, bad),
            lambda: reorder_permutation(model, "auto", tile_size=bad),
            lambda: Partitioning(np.zeros(4, dtype=np.intp), bad, 0.0),
        ):
            with pytest.raises(ValueError, match="tile_size"):
                call()

    def test_misaligned_partitioning_rejects_permutation_export(self):
        bad = Partitioning(np.array([0, 0, 0, 1]), 2, edge_cut=0.0)
        assert not bad.is_tile_aligned
        with pytest.raises(ValueError, match="not tile-aligned"):
            bad.to_permutation()

    def test_assignment_range_checked(self):
        with pytest.raises(ValueError, match="block ids"):
            Partitioning(np.array([0, 5, 0, 1]), 2, edge_cut=0.0)

    def test_generator_requires_divisible_communities(self):
        with pytest.raises(ValueError, match="equal communities"):
            planted_partition_maxcut(100, 7)

    def test_generator_rejects_bad_probabilities(self):
        with pytest.raises(ValueError, match="hub_bias"):
            planted_partition_maxcut(100, 4, hub_bias=1.5)
        with pytest.raises(ValueError, match="hub_fraction"):
            planted_partition_maxcut(100, 4, hub_fraction=-0.1)
