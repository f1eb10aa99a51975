"""Multilevel min-cut partitioning sized to the crossbar tile grid.

PR 3's RCM pass closes the *banded* case: when an instance has a hidden
band, a bandwidth-reducing relabelling compacts its tile program.  But
community-structured (clustered) graphs have no good bandwidth ordering —
the community interconnect is an expander, and minimising ``max |i − j|``
is the wrong objective when the real hardware cost is the number of active
``tile_size``-square blocks the machine must program.  This module attacks
that count directly: partition the coupling graph into
``k = ceil(n / tile_size)`` balanced blocks of minimum edge cut, then lay
the blocks out contiguously so every block occupies exactly one tile row
band.  Intra-block couplings land on the ``k`` diagonal tiles; only
cut edges light additional tiles, so a min-cut partition is a
min-active-tile layout for clustered instances.

The partitioner is the classic multilevel scheme over the
:class:`~repro.ising.sparse.SparseIsingModel` CSR arrays (the dense
``(n, n)`` matrix is never formed).  Whole-graph steps (adjacency,
contraction, pair counts, projection, and the first scoring of every FM
and drain sweep, :func:`_sweep_moves`) are numpy.  The per-vertex kernels
— matching, growing, moves and the requeues after each move — walk one
neighbour list at a time, where a numpy call on a 2–10-element slice
costs more in call overhead than in work, so they read the arrays and
the assign/match/stamp state as Python numbers through zero-copy
``memoryview`` objects.  (Python lists ran as fast in a prototype but
hold a boxed object per entry, which raised the compile's peak RSS.)
A requeue reads its vertex's per-block neighbour counts and weight sums
from :class:`_Neighbourhoods`: one scan when first read, then updated
at each neighbour's move — the count exactly, the two blocks the move
touches re-summed in list order — so a hub of hundreds of neighbours is
not rescanned on every one of their moves.  The steps:

1. **Coarsening** — heavy-edge matching: visit vertices in ascending
   degree order, match each with its unmatched neighbour of largest
   coupling magnitude (vertex-weight capped so coarse vertices stay
   packable), contract matched pairs and aggregate parallel edges, until
   the graph is a small multiple of ``k`` or shrinkage stalls.
2. **Initial partition** — greedy graph growing on the coarsest graph:
   grow each block from a minimum-degree seed, repeatedly absorbing the
   unassigned vertex with the strongest connection to the growing block,
   until the block reaches its weight target.
3. **Uncoarsening + refinement** — project the assignment back one level
   at a time and run boundary Fiduccia–Mattheyses passes: every boundary
   vertex's best move enters a max-gain bucket queue; moves are applied
   highest-gain first (negative gains allowed, so the pass can climb out
   of local minima), each mover is locked and its neighbours' gains are
   recomputed, and the pass rolls back to the best prefix seen.  At the
   finest level a rebalancing drain restores the *exact* block sizes the
   tile grid requires, and stops as soon as they hold.

The result is a :class:`Partitioning` (block assignment, edge cut,
balance, exact active-tile count) whose :meth:`~Partitioning.
to_permutation` exports a block-contiguous
:class:`~repro.core.reorder.Permutation` — fully compatible with PR 3's
transparency contract, so partitioned solves are bit-identical in the
caller's index space for exactly-representable couplings.

Everything is deterministic: no RNG is consumed anywhere, so the
``reorder="auto"`` scorer (exact active-tile count, RCM vs partition)
picks the same winner on every run.
"""

from __future__ import annotations

import bisect
import heapq

import numpy as np

from repro.core.reorder import Permutation, _from_order, _structure_of
from repro.utils.validation import check_count

#: Stop coarsening once the graph has at most this many vertices per block.
COARSEN_VERTICES_PER_BLOCK = 8

#: Never coarsen below this many vertices regardless of the block count.
COARSEN_FLOOR = 64

#: Abandon coarsening when a level shrinks the graph by less than this.
COARSEN_STALL_RATIO = 0.95

#: Boundary-FM passes per uncoarsening level (each stops early when a
#: pass yields no gain).
REFINE_PASSES = 3

#: FM moves allowed past the best prefix before a pass gives up.
FM_STALL_LIMIT = 48


# ----------------------------------------------------------------------
# Weighted adjacency extraction
# ----------------------------------------------------------------------
def _weighted_adjacency(
    model,
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """``(n, indptr, indices, weights, structure)`` of the couplings.

    The adjacency weights are ``|J_ij|`` with the diagonal dropped — the
    cut objective cares about the presence and magnitude of a coupling,
    not its sign, and a self-coupling always lands on its own block's
    diagonal tile whatever the partition.  ``structure`` is the full
    stored-entry ``(rows, cols)`` set (diagonal included) for the
    exported permutation's exact tile-count prediction — extracted in the
    same single pass.  Sparse models hand over CSR directly; dense models
    scan ``np.nonzero``.
    """
    n, rows, indices = _structure_of(model)
    csr = getattr(model, "csr_arrays", None)
    data = csr()[2] if csr is not None else model.J[rows, indices]
    structure = (rows, indices)
    off = rows != indices
    rows, cols, w = rows[off], indices[off], np.abs(data[off])
    indptr = np.zeros(n + 1, dtype=np.intp)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=n))
    return n, indptr, cols, w, structure


# ----------------------------------------------------------------------
# Coarsening: heavy-edge matching
# ----------------------------------------------------------------------
def _heavy_edge_matching(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    vweights: np.ndarray,
    cap: int,
) -> np.ndarray:
    """Coarse-vertex map from one greedy heavy-edge matching sweep.

    Vertices are visited in ascending degree order (low-degree vertices
    have the fewest matching options, so they choose first); each
    unmatched vertex matches its unmatched neighbour of maximum coupling
    magnitude whose combined vertex weight stays within ``cap``.  Returns
    ``cmap`` with ``cmap[v]`` the coarse id of ``v`` — matched pairs share
    an id, ids are dense and ordered by each group's minimum member.
    """
    n = vweights.shape[0]
    match = np.full(n, -1, dtype=np.intp)
    ptr, nbr, wt, vw, mate = (
        memoryview(a) for a in (indptr, indices, weights, vweights, match)
    )
    for v in memoryview(np.argsort(np.diff(indptr), kind="stable")):
        if mate[v] >= 0:
            continue
        room = cap - vw[v]
        pick, heaviest = v, 0.0
        for j in range(ptr[v], ptr[v + 1]):
            u = nbr[j]
            if mate[u] >= 0 or u == v or vw[u] > room:
                continue
            # Heaviest edge first, smallest vertex id as the tie-break.
            w = wt[j]
            if pick == v or w > heaviest or (w == heaviest and u < pick):
                pick, heaviest = u, w
        mate[v] = pick  # pick == v: v stays single
        mate[pick] = v
    rep = np.minimum(np.arange(n, dtype=np.intp), match)
    # The reps, sorted and distinct: the vertices that are their own rep.
    return np.searchsorted(np.flatnonzero(rep == np.arange(n)), rep).astype(np.intp)


def _contract(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    vweights: np.ndarray,
    cmap: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build the coarse graph induced by ``cmap`` (parallel edges summed)."""
    nc = int(cmap.max()) + 1 if cmap.size else 0
    n = vweights.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
    cu, cv = cmap[rows], cmap[indices]
    keep = cu != cv  # contracted pairs' internal edges disappear
    key = cu[keep] * nc + cv[keep]
    uniq, inv = np.unique(key, return_inverse=True)
    w = np.bincount(inv, weights=weights[keep], minlength=uniq.size)
    c_rows = (uniq // nc).astype(np.intp)
    c_cols = (uniq % nc).astype(np.intp)
    c_indptr = np.zeros(nc + 1, dtype=np.intp)
    c_indptr[1:] = np.cumsum(np.bincount(c_rows, minlength=nc))
    c_vweights = np.bincount(cmap, weights=vweights, minlength=nc).astype(
        np.intp
    )
    return c_indptr, c_cols, w, c_vweights


# ----------------------------------------------------------------------
# Initial partition: greedy graph growing
# ----------------------------------------------------------------------
def _greedy_grow(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    vweights: np.ndarray,
    targets: np.ndarray,
) -> np.ndarray:
    """Grow ``len(targets)`` blocks to their weight targets, greedily.

    The first block starts from the unassigned vertex of minimum weighted
    degree; every block repeatedly absorbs the unassigned vertex with the
    largest total connection to everything assigned so far (smallest
    index on ties; a fresh minimum-degree seed when the frontier is empty
    — disconnected components).  The frontier is *not* reset between
    blocks, so the growth is one continuous sweep: a cluster entered by
    block ``b`` is finished by blocks ``b+1, b+2, …`` before the sweep
    moves on, keeping every cluster in a few consecutive blocks instead
    of being scavenged piecemeal by far-apart ones.  A block stops
    growing once its weight reaches its target; the final block absorbs
    the remainder.
    """
    n = vweights.shape[0]
    k = targets.shape[0]
    assign = np.full(n, -1, dtype=np.intp)
    wdegree = np.zeros(n, dtype=np.float64)
    np.add.at(
        wdegree, np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr)), weights
    )
    conn = np.zeros(n, dtype=np.float64)
    unassigned = np.ones(n, dtype=bool)
    ptr, nbr, wt, vw, asg, cn, free = (
        memoryview(a)
        for a in (indptr, indices, weights, vweights, assign, conn, unassigned)
    )
    left = n
    # Candidate selection runs off a lazy max-heap keyed by (−conn, index):
    # conn only ever grows during the sweep, so an entry is current exactly
    # when its stored value matches conn[v], and every update pushes a
    # fresh entry — O(nnz log n) overall instead of an O(n) argmax per
    # absorbed vertex.  The (−conn, v) ordering reproduces the argmax
    # tie-break (largest connection, smallest index) exactly.
    heap: list[tuple[float, int]] = []
    seed_order = memoryview(np.argsort(wdegree, kind="stable"))
    seed_ptr = 0
    for b in range(k - 1):
        if left == 0:
            break
        grown = 0
        while grown < targets[b] and left > 0:
            remaining = targets[b] - grown
            v = -1
            stash: list[tuple[float, int]] = []
            while heap:
                negc, u = heap[0]
                if not free[u] or -negc != cn[u]:
                    heapq.heappop(heap)  # stale entry
                    continue
                if vw[u] > remaining:
                    # Strongest-connected candidate that doesn't fit the
                    # block — set it aside; it stays eligible later.
                    stash.append(heapq.heappop(heap))
                    continue
                v = u
                heapq.heappop(heap)
                break
            if v < 0 and stash:
                # Nothing on the frontier fits: overshoot with the
                # strongest-connected live candidate (first stashed).
                v = stash.pop(0)[1]
            for entry in stash:
                heapq.heappush(heap, entry)
            if v < 0:
                # Frontier empty (seed, or a fresh component): the
                # unassigned vertex of minimum weighted degree.
                while seed_ptr < n and not free[seed_order[seed_ptr]]:
                    seed_ptr += 1
                v = seed_order[seed_ptr]
            asg[v] = b
            free[v] = False
            left -= 1
            grown += vw[v]
            lo, hi = ptr[v], ptr[v + 1]
            # All adds first, in list order, then the pushes, so a
            # repeated neighbour is pushed at its total.
            for j in range(lo, hi):
                cn[nbr[j]] += wt[j]
            for j in range(lo, hi):
                u = nbr[j]
                if free[u]:
                    heapq.heappush(heap, (-cn[u], u))
    assign[unassigned] = k - 1
    return assign


# ----------------------------------------------------------------------
# Refinement: boundary FM with gain buckets
# ----------------------------------------------------------------------
class _GainBuckets:
    """Max-gain queue of moves: one scored sweep, then the requeues.

    The sweep's ``(gain, vertex, target, stamp)`` entries are sorted once,
    by (−gain, −vertex), and served from that array; a requeue goes into a
    bucket by exact gain value, LIFO within it, with a heap over the bucket
    keys serving the maximum-gain bucket in O(log #gains).  A pop takes the
    higher gain of the two, a requeue on a tie: the order one set of
    buckets gives with the sweep pushed first in ascending vertex order,
    without a push per swept vertex (most are never popped).  Stale
    entries (vertex re-stamped or locked since) are discarded by the
    caller on pop — the classic FM bucket structure, generalised to float
    gains.
    """

    def __init__(
        self, vertices: np.ndarray, gains: np.ndarray, targets: np.ndarray,
        stamps: np.ndarray,
    ) -> None:
        order = np.lexsort((-vertices, -gains))
        self._swept = [a[order].tolist() for a in (gains, vertices, targets, stamps)]
        self._next = 0
        self._buckets: dict[float, list[tuple[int, int, int]]] = {}
        self._heap: list[float] = []

    def push(self, gain: float, vertex: int, target: int, stamp: int) -> None:
        bucket = self._buckets.get(gain)
        if bucket is None:
            self._buckets[gain] = bucket = []
            heapq.heappush(self._heap, -gain)
        bucket.append((vertex, target, stamp))

    def pop(self) -> tuple[float, int, int, int] | None:
        """Highest-gain entry, or ``None``."""
        heap, buckets = self._heap, self._buckets
        while heap and not buckets[-heap[0]]:
            del buckets[-heapq.heappop(heap)]
        i = self._next
        gains, vertices, targets, stamps = self._swept
        if i < len(gains) and (not heap or gains[i] > -heap[0]):
            self._next = i + 1
            return gains[i], vertices[i], targets[i], stamps[i]
        if heap:
            return (-heap[0],) + buckets[-heap[0]].pop()
        return None


#: Active tile pairs: ``M[a][b]`` (= ``M[b][a]``) couplings join blocks
#: ``a`` and ``b``.  Only positive counts are stored, and a block without
#: an active pair has no row, so a pair is active exactly while present.
_PairCounts = dict[int, dict[int, int]]

#: The row of a block without an active pair (never written).
_NO_PAIRS: dict[int, int] = {}


def _pair_counts(
    indptr: np.ndarray,
    indices: np.ndarray,
    assign: np.ndarray,
    k: int,
) -> _PairCounts:
    """Edge count per unordered block pair — the active-tile bookkeeping.

    Kept as nested dicts so the cost stays O(active pairs), never O(k²),
    and a vertex's lookups go through its own block's row.
    """
    n = assign.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
    half = rows < indices  # each undirected coupling once
    a = assign[rows[half]]
    b = assign[indices[half]]
    keys = np.minimum(a, b) * k + np.maximum(a, b)
    uniq, counts = np.unique(keys, return_counts=True)
    M: _PairCounts = {}
    for key, count in zip(uniq.tolist(), counts.tolist()):
        a, b = divmod(key, k)
        M.setdefault(a, {})[b] = count
        M.setdefault(b, {})[a] = count
    return M


#: A block of a vertex's neighbourhood: the list positions, neighbours and
#: weights of the vertex's neighbours in that block, in list order.
_Group = tuple[list[int], list[int], list[float]]


def _block_sum(weights: list[float]) -> float:
    """``weights`` added from 0.0 in list order."""
    total = 0.0
    for w in weights:
        total += w
    return total


def _vertex_conn(
    v: int,
    indptr: memoryview,
    indices: memoryview,
    weights: memoryview,
    assign: memoryview,
) -> tuple[dict[int, int], dict[int, float], dict[int, _Group]]:
    """``(counts, weight_sums, groups)`` of v's neighbourhood, keyed by block.

    One pass over the vertex's neighbour list, O(degree).  Each block's
    weights are summed from 0.0 in neighbour-list order, the order the
    pinned layouts were computed in, so every float gain built on them
    is reproducible to the bit.  ``groups`` holds each block's
    :data:`_Group`, which lets :class:`_Neighbourhoods` re-sum one block.
    """
    groups: dict[int, _Group] = {}
    lo, hi = indptr[v], indptr[v + 1]
    for j, u, w in zip(range(lo, hi), indices[lo:hi], weights[lo:hi]):
        b = assign[u]
        if b in groups:
            pos, nbrs, ws = groups[b]
            pos.append(j)
            nbrs.append(u)
            ws.append(w)
        else:
            groups[b] = ([j], [u], [w])
    counts: dict[int, int] = {}
    wsums: dict[int, float] = {}
    for b, (pos, _, ws) in groups.items():
        counts[b] = len(pos)
        wsums[b] = _block_sum(ws)
    return counts, wsums, groups


class _Neighbourhoods:
    """:func:`_vertex_conn` of every vertex a level's refinement reads.

    A vertex's entry is one scan of its neighbour list the first time it
    is read; :meth:`moved` then updates it in place whenever a neighbour
    changes block, so it stays current through every FM pass of the level
    (rollbacks included) and the drain.  A block's count is its group's
    length, exact, and only the two blocks a move touches are re-summed,
    from 0.0 in neighbour-list order — so every sum is the float a fresh
    scan returns (a ±w update would round differently on non-dyadic
    weights).  Needs the symmetric adjacency the partitioner works on:
    ``u`` lists ``v`` as often as ``v`` lists ``u``.
    """

    def __init__(
        self, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray,
        assign: np.ndarray,
    ) -> None:
        self._csr = tuple(memoryview(a) for a in (indptr, indices, weights, assign))
        self._entries: dict[
            int, tuple[dict[int, int], dict[int, float], dict[int, _Group]]
        ] = {}

    def __getitem__(self, v: int) -> tuple[dict[int, int], dict[int, float]]:
        """``(counts, weight_sums)`` of v's neighbourhood, keyed by block."""
        entry = self._entries.get(v)
        if entry is None:
            entry = self._entries[v] = _vertex_conn(v, *self._csr)
        return entry[0], entry[1]

    def forget(self, v: int) -> None:
        """Drop v's entry, for a vertex that is never read again."""
        self._entries.pop(v, None)

    def moved(self, v: int, frm: int, to: int) -> None:
        """Update the entries of v's neighbours after v moved ``frm`` → ``to``."""
        indptr, indices = self._csr[:2]
        entries = self._entries
        for j in range(indptr[v], indptr[v + 1]):
            entry = entries.get(indices[j])
            if entry is None:
                continue
            counts, wsums, groups = entry
            pos, nbrs, ws = groups[frm]
            i = nbrs.index(v)
            del nbrs[i]
            p, w = pos.pop(i), ws.pop(i)
            if pos:
                counts[frm] = len(pos)
                wsums[frm] = _block_sum(ws)
            else:
                del counts[frm], wsums[frm], groups[frm]
            group = groups.get(to)
            if group is None:
                counts[to], wsums[to], groups[to] = 1, 0.0 + w, ([p], [v], [w])
                continue
            pos, nbrs, ws = group
            i = bisect.bisect(pos, p)
            pos.insert(i, p)
            nbrs.insert(i, v)
            ws.insert(i, w)
            counts[to] = len(pos)
            wsums[to] = _block_sum(ws)


def _tile_delta(
    own: int,
    target: int,
    counts: dict[int, int],
    M: _PairCounts,
) -> int:
    """Active-tile gain of moving a vertex ``own`` → ``target``.

    ``counts`` maps the vertex's neighbour blocks to their neighbour
    counts; the move shifts every incident coupling from an ``(own, D)``
    pair to a ``(target, D)`` pair.  The gain is the number of tile slots
    whose pair count drops to zero minus the number newly raised from zero
    (off-diagonal pairs weigh 2 — both triangles are programmed).
    """
    pairs_own = M.get(own, _NO_PAIRS)
    pairs_target = M.get(target, _NO_PAIRS)
    gain = 0
    for D, c in counts.items():
        if D == own or D == target:
            continue
        # Only this block moves couplings between (own, D) and (target, D).
        if pairs_own.get(D, 0) == c:
            gain += 2
        if D not in pairs_target:
            gain -= 2
    # The pairs among own and target collect shifts from both blocks:
    # (own, own) loses c_own couplings, (target, target) gains c_target,
    # and (own, target) gains c_own and loses c_target.
    c_own = counts.get(own, 0)
    c_target = counts.get(target, 0)
    if c_own and pairs_own.get(own, 0) == c_own:
        gain += 1
    if c_target and target not in pairs_target:
        gain -= 1
    before = pairs_own.get(target, 0)
    shift = c_own - c_target
    if before > 0 and before + shift == 0:
        gain += 2
    elif before == 0 and shift > 0:
        gain -= 2
    return gain


def _add_pair(M: _PairCounts, a: int, b: int, d: int) -> None:
    """Add ``d`` couplings to the block pair ``(a, b)`` in both its rows."""
    row = M.setdefault(a, {})
    count = row.get(b, 0) + d
    if count:
        row[b] = count
        M.setdefault(b, {})[a] = count
        return
    # The pair empties: it leaves both rows, and a row left empty goes.
    for x, y in {(a, b), (b, a)}:
        del M[x][y]
        if not M[x]:
            del M[x]


def _apply_move(
    v: int,
    target: int,
    counts: dict[int, int],
    assign: memoryview,
    M: _PairCounts,
) -> None:
    """Reassign ``v`` to ``target`` and keep the pair counts exact.

    ``counts`` is v's neighbourhood by block (:func:`_vertex_conn`) under
    the current assignment.  Applying the reverse move (in reverse order)
    restores ``M`` exactly, which is what the FM rollback relies on.
    """
    own = assign[v]
    for D, c in counts.items():
        _add_pair(M, own, D, -c)
        _add_pair(M, target, D, c)
    assign[v] = target


#: Secondary-objective weight: the edge-cut tie-break is squashed into
#: (−0.5, 0.5) so it can order moves of equal tile gain but never
#: override a tile-count difference.
_TIE_BREAK_SCALE = 0.5


def _best_target(
    own: int,
    blocks: list[int],
    counts: dict[int, int],
    wsums: dict[int, float],
    M: _PairCounts,
) -> tuple[float, int] | None:
    """``(gain, target)`` of the best move ``own`` → one of ``blocks``.

    The primary gain is the *active-tile* reduction (:func:`_tile_delta`
    — the tiled machine's true cost); the squashed edge-cut improvement
    breaks ties, so of two tile-neutral moves the one that concentrates
    coupling weight wins (those are the moves that later kill a pair).
    ``blocks`` ascend, so the lowest block id wins residual ties.
    """
    w_own = wsums.get(own, 0.0)
    best: tuple[float, int] | None = None
    for B in blocks:
        wgain = wsums.get(B, 0.0) - w_own
        gain = _tile_delta(own, B, counts, M) + (
            _TIE_BREAK_SCALE * (wgain / (1.0 + abs(wgain)))
        )
        if best is None or gain > best[0]:
            best = (gain, B)
    return best


def _best_move(
    own: int,
    wv: int,
    counts: dict[int, int],
    wsums: dict[int, float],
    block_weight: memoryview,
    caps: memoryview,
    M: _PairCounts,
) -> tuple[float, int] | None:
    """``(gain, target)`` of the best feasible move of a vertex, or ``None``.

    The vertex sits in block ``own``, weighs ``wv`` and has the
    neighbourhood ``(counts, wsums)`` (:func:`_vertex_conn`).  Gain as in
    :func:`_best_target`.  Only boundary moves are produced (the target
    must hold at least one of its neighbours) and only into blocks with
    spare capacity.
    """
    blocks = [
        B for B in sorted(counts)
        if B != own and block_weight[B] + wv <= caps[B]
    ]
    return _best_target(own, blocks, counts, wsums, M)


def _sweep_moves(
    scored: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
    weights: np.ndarray, assign: np.ndarray, vweights: np.ndarray,
    spare: np.ndarray, M: _PairCounts, fallback: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(vertices, gains, targets)``: every ``scored`` vertex's best move at once.

    :func:`_best_move` with ``spare = caps − block_weight``, or with
    ``fallback`` :func:`_best_drain_move` with ``spare = targets − sizes``
    and unit vertex weights (a move into ``B`` needs ``vweights[v] <=
    spare[B]``), on the same state with the same arithmetic: counts per
    (vertex, block), weight sums added from 0.0 in neighbour-list order by
    ``np.bincount``, the :func:`_tile_delta` terms looked up in ``M``'s
    sorted keys, the float64 gain and its first maximum over ascending
    blocks.  So every gain equals the per-vertex one to the bit.  A vertex
    without a target is dropped, or with ``fallback`` scored against the
    lowest block with room.  Vertices come out ascending.
    """
    k = spare.shape[0]
    vertices = np.flatnonzero(scored)
    own = assign[vertices]
    rows = np.repeat(np.arange(scored.size), np.diff(indptr))
    entry = np.flatnonzero(scored[rows])
    rank = np.cumsum(scored) - 1  # a scored vertex's place in `vertices`
    pairs, inv = np.unique(
        rank[rows[entry]] * k + assign[indices[entry]], return_inverse=True
    )
    count = np.bincount(inv, minlength=pairs.size)
    wsum = np.bincount(inv, weights=weights[entry], minlength=pairs.size)
    group, block = np.divmod(pairs, k)  # ascending by (vertex, block)
    mine = block == own[group]
    c_own = np.bincount(group[mine], count[mine], vertices.size).astype(np.int64)
    w_own = np.bincount(group[mine], wsum[mine], vertices.size)  # one term: exact
    cand = ~mine & (vweights[vertices[group]] <= spare[block])
    cg, cb, cc, cw = group[cand], block[cand], count[cand], wsum[cand]
    if fallback and (spare > 0).any():
        lone = np.flatnonzero(np.bincount(cg, minlength=vertices.size) == 0)
        cg, cb = np.r_[cg, lone], np.r_[cb, np.full(lone.size, np.argmax(spare > 0))]
        cc, cw = np.r_[cc, np.zeros(lone.size, cc.dtype)], np.r_[cw, np.zeros(lone.size)]
    # M as sorted keys a·k + b (a <= b), ended by a k² sentinel.
    mkeys, mvals = np.array(sorted(
        (a * k + b, c) for a, row in M.items() for b, c in row.items() if a <= b
    ) + [(k * k, 0)]).T

    def lookup(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        key = np.minimum(a, b) * k + np.maximum(a, b)
        i = np.searchsorted(mkeys, key)
        return np.where(mkeys[i] == key, mvals[i], 0)

    def shift(before: np.ndarray, d: np.ndarray, weight: int) -> np.ndarray:
        emptied, opened = (before > 0) & (before + d == 0), (before == 0) & (before + d > 0)
        return weight * emptied - weight * opened

    # Each candidate against its vertex's other neighbour blocks D ∉
    # {own, B}: the (own, D) pairs it empties, the (B, D) pairs it opens.
    o, plen = own[cg], np.bincount(group, minlength=vertices.size)
    reps = plen[cg]
    ex = np.repeat(np.arange(cg.size), reps)
    ep = np.repeat((plen.cumsum() - plen)[cg] - reps.cumsum() + reps, reps)
    ep += np.arange(ex.size)
    other = (block[ep] != o[ex]) & (block[ep] != cb[ex])
    ex, ep = ex[other], ep[other]
    tile = 2 * (
        np.bincount(ex[lookup(o[ex], block[ep]) == count[ep]], minlength=cg.size)
        - np.bincount(ex[lookup(cb[ex], block[ep]) == 0], minlength=cg.size)
    )
    tile += shift(lookup(o, o), -c_own[cg], 1) + shift(lookup(cb, cb), cc, 1)
    tile += shift(lookup(o, cb), c_own[cg] - cc, 2)
    wgain = cw - w_own[cg]
    gain = tile + _TIE_BREAK_SCALE * (wgain / (1.0 + np.abs(wgain)))
    order = np.lexsort((cb, -gain, cg))  # first maximum per vertex first
    pick = order[np.diff(cg[order], prepend=-1) != 0]
    return vertices[cg[pick]], gain[pick], cb[pick]


def _fm_pass(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    vweights: np.ndarray,
    assign: np.ndarray,
    block_weight: np.ndarray,
    caps: np.ndarray,
    M: _PairCounts,
    conn: _Neighbourhoods,
) -> float:
    """One boundary Fiduccia–Mattheyses pass; returns the realised gain.

    Applies moves highest-gain first (negative gains allowed, so the pass
    can climb through tile-neutral territory), locking each mover and
    re-queueing its neighbours, and rolls ``assign`` — and the pair
    counts ``M`` and the neighbourhoods ``conn`` — back to the best prefix
    seen.  Block weights never exceed ``caps``.
    """
    n = assign.shape[0]
    stamp = np.zeros(n, dtype=np.int64)
    locked = np.zeros(n, dtype=bool)
    # Only boundary vertices can move (interior vertices have no target).
    rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
    boundary = np.bincount(rows[assign[rows] != assign[indices]], minlength=n) > 0
    ptr, nbr, vw, asg, bw, cap, st, lock = (
        memoryview(a)
        for a in (
            indptr, indices, vweights, assign, block_weight, caps, stamp, locked,
        )
    )

    def requeue(v: int) -> None:
        move = _best_move(asg[v], vw[v], *conn[v], bw, cap, M)
        if move is not None:
            buckets.push(move[0], v, move[1], st[v])

    sweep = _sweep_moves(
        boundary, indptr, indices, weights, assign, vweights,
        caps - block_weight, M, fallback=False,
    )
    buckets = _GainBuckets(*sweep, stamp[sweep[0]])
    moves: list[tuple[int, int, int]] = []
    # Prefix quality is tracked lexicographically — tile gain first, the
    # edge-cut tie-break strictly second — so a run of tie-break-positive
    # moves can never outvote a net tile loss into the kept prefix.
    tiles = 0
    tie = 0.0
    best_tiles = 0
    best_tie = 0.0
    best_len = 0
    while True:
        entry = buckets.pop()
        if entry is None:
            break
        _, v, target, pushed = entry
        if lock[v] or pushed != st[v]:
            continue
        wv = vw[v]
        if bw[target] + wv > cap[target]:
            # Target filled up since the push; the recomputed best move is
            # feasibility-checked, so this cannot spin on a full block.
            st[v] += 1
            requeue(v)
            continue
        frm = asg[v]
        # The queued gain orders the pops but may be stale (pair counts
        # shift under moves of non-adjacent vertices), so the prefix
        # ledger books the delta recomputed against the *current* M —
        # that keeps the rollback invariant exact.
        counts, wsums = conn[v]
        move_tiles = _tile_delta(frm, target, counts, M)
        wgain = wsums.get(target, 0.0) - wsums.get(frm, 0.0)
        _apply_move(v, target, counts, asg, M)
        bw[frm] -= wv
        bw[target] += wv
        lock[v] = True
        conn.moved(v, frm, target)
        moves.append((v, frm, target))
        tiles += move_tiles
        tie += _TIE_BREAK_SCALE * (wgain / (1.0 + abs(wgain)))
        if tiles > best_tiles or (tiles == best_tiles and tie > best_tie):
            best_tiles = tiles
            best_tie = tie
            best_len = len(moves)
        if len(moves) - best_len > FM_STALL_LIMIT:
            break
        for j in range(ptr[v], ptr[v + 1]):
            u = nbr[j]
            if lock[u]:
                continue
            st[u] += 1
            requeue(u)
    # Undo in reverse order so each reverse move sees the assignment state
    # it was originally applied under — that makes the pair-count rollback
    # exact.
    for v, frm, target in reversed(moves[best_len:]):
        wv = vw[v]
        bw[target] -= wv
        bw[frm] += wv
        _apply_move(v, frm, conn[v][0], asg, M)
        conn.moved(v, target, frm)
    return best_tiles + best_tie


def _best_drain_move(
    own: int,
    counts: dict[int, int],
    wsums: dict[int, float],
    sizes: memoryview,
    targets: memoryview,
    M: _PairCounts,
) -> tuple[float, int] | None:
    """Best move out of block ``own`` into an under-full block, or ``None``.

    Same gain as :func:`_best_move` (:func:`_best_target`), but targets
    are restricted to under-full blocks.  When no under-full block touches
    the neighbourhood ``(counts, wsums)``, the lowest-id under-full block
    is evaluated anyway — draining must always be able to make progress.
    """
    blocks = [B for B in sorted(counts) if B != own and sizes[B] < targets[B]]
    if not blocks:
        under = next(
            (B for B in range(len(sizes)) if sizes[B] < targets[B]), None
        )
        if under is None:
            return None
        blocks = [under]
    return _best_target(own, blocks, counts, wsums, M)


def _rebalance_exact(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    assign: np.ndarray,
    targets: np.ndarray,
    M: _PairCounts,
    conn: _Neighbourhoods,
) -> None:
    """Restore the exact block sizes the tile grid requires (finest level).

    Drains over-full blocks into under-full ones, always applying the
    least-damaging move first — the same tile-delta gain the FM pass
    maximises, served from the same gain buckets, so a community whose
    blocks ended slightly over target slides its surplus into its *own*
    under-full partner block instead of scattering it across the grid.
    Every move shrinks the total overflow by one, so the drain terminates
    with ``sizes == targets`` exactly.

    The over-full blocks' vertices are scored in one vectorised pass
    (:func:`_sweep_moves`) and served from one sorted array
    (:class:`_GainBuckets`); a move's neighbours are rescored one at a
    time (:func:`_best_drain_move`) from their entries in ``conn``, which
    every move keeps current.  The drain stops at zero overflow: every
    later pop would only bump a stamp local to this call.
    """
    n, k = assign.shape[0], targets.shape[0]
    sizes = np.bincount(assign, minlength=k)
    overflow = int(np.maximum(sizes - targets, 0).sum())
    stamp = np.zeros(n, dtype=np.int64)
    ptr, nbr, asg, sz, tg, st = (
        memoryview(a) for a in (indptr, indices, assign, sizes, targets, stamp)
    )

    def requeue(v: int) -> None:
        own = asg[v]
        if sz[own] <= tg[own]:
            # A block at or below its target never fills up again here,
            # so v is never read again.
            conn.forget(v)
            return
        move = _best_drain_move(own, *conn[v], sz, tg, M)
        if move is not None:
            buckets.push(move[0], v, move[1], st[v])

    while overflow > 0:
        moved = False
        sweep = _sweep_moves(
            sizes[assign] > targets[assign], indptr, indices, weights, assign,
            np.ones(n, dtype=np.intp), targets - sizes, M, fallback=True,
        )
        buckets = _GainBuckets(*sweep, stamp[sweep[0]])
        while overflow > 0:
            entry = buckets.pop()
            if entry is None:
                break
            _, v, target, pushed = entry
            if pushed != st[v]:
                continue
            own = asg[v]
            if sz[own] <= tg[own] or sz[target] >= tg[target]:
                # The world changed since the push — requeue afresh.
                st[v] += 1
                requeue(v)
                continue
            _apply_move(v, target, conn[v][0], asg, M)
            conn.forget(v)
            conn.moved(v, own, target)
            sz[own] -= 1
            sz[target] += 1
            overflow -= 1
            moved = True
            for j in range(ptr[v], ptr[v + 1]):
                u = nbr[j]
                st[u] += 1
                requeue(u)
        if not moved:  # pragma: no cover - defensive; a move always exists
            break


# ----------------------------------------------------------------------
# The Partitioning object
# ----------------------------------------------------------------------
class Partitioning:
    """A balanced block assignment of the spins, sized to the tile grid.

    Parameters
    ----------
    assignment:
        Length-``n`` integer array mapping spin → block id in
        ``[0, num_blocks)``.
    tile_size:
        Tile side the partition is sized to; ``num_blocks`` is
        ``ceil(n / tile_size)`` and every block except the last holds
        exactly ``tile_size`` spins.
    edge_cut:
        Total ``|J_ij|`` over couplings crossing blocks (each undirected
        pair once).
    structure:
        ``(rows, cols)`` arrays of the stored coupling entries in the
        original labelling (diagonal included) — carried into the
        exported permutation for exact tile-count prediction.
    """

    def __init__(
        self,
        assignment: np.ndarray,
        tile_size: int,
        edge_cut: float,
        structure: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        assignment = np.asarray(assignment, dtype=np.intp)
        if assignment.ndim != 1 or assignment.size == 0:
            raise ValueError("assignment must be a non-empty 1-D array")
        self.tile_size = check_count(
            "tile_size", tile_size,
            hint="the partition is sized to the tile grid",
        )
        n = assignment.shape[0]
        self.num_blocks = -(-n // self.tile_size)
        if assignment.min() < 0 or assignment.max() >= self.num_blocks:
            raise ValueError(
                f"block ids must lie in [0, {self.num_blocks})"
            )
        self.assignment = assignment
        self.edge_cut = float(edge_cut)
        self._structure = structure
        self._permutation: Permutation | None = None

    @property
    def n(self) -> int:
        """Number of spins partitioned."""
        return self.assignment.shape[0]

    def block_sizes(self) -> np.ndarray:
        """Spins per block, length ``num_blocks``."""
        return np.bincount(self.assignment, minlength=self.num_blocks)

    def block_targets(self) -> np.ndarray:
        """The tile-aligned size every block must hold exactly."""
        targets = np.full(self.num_blocks, self.tile_size, dtype=np.intp)
        targets[-1] = self.n - (self.num_blocks - 1) * self.tile_size
        return targets

    @property
    def balance(self) -> float:
        """Largest block size over its target (1.0 = perfectly balanced)."""
        return float(np.max(self.block_sizes() / self.block_targets()))

    @property
    def is_tile_aligned(self) -> bool:
        """Whether every block holds exactly its tile-aligned target."""
        return bool(np.array_equal(self.block_sizes(), self.block_targets()))

    def to_permutation(self) -> Permutation:
        """The block-contiguous layout: block ``b`` occupies positions
        ``[b·tile_size, b·tile_size + size_b)``.

        Spins keep their original relative order within a block, so the
        map is deterministic.  The returned
        :class:`~repro.core.reorder.Permutation` carries the coupling
        structure, making :meth:`Permutation.estimated_active_tiles`
        exact, and obeys the same transparency contract as every other
        reordering (solves stay bit-identical in the caller's index
        space for exactly-representable couplings).
        """
        if self._permutation is not None:
            return self._permutation
        if not self.is_tile_aligned:
            raise ValueError(
                "partition blocks are not tile-aligned; sizes "
                f"{self.block_sizes().tolist()} vs targets "
                f"{self.block_targets().tolist()}"
            )
        self._permutation = _from_order(
            np.argsort(self.assignment, kind="stable"), self._structure, "partition"
        )
        return self._permutation

    def estimated_active_tiles(self, tile_size: int | None = None) -> int:
        """Tiles a :class:`TiledCrossbar` instantiates under this layout.

        Exact by the same construction as
        :meth:`Permutation.estimated_active_tiles` (both count the
        nonzero-block set of the stored entries); defaults to the tile
        size the partition was built for.
        """
        s = self.tile_size if tile_size is None else check_count(
            "tile_size", tile_size
        )
        return self.to_permutation().estimated_active_tiles(s)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Partitioning(n={self.n}, blocks={self.num_blocks}, "
            f"tile_size={self.tile_size}, edge_cut={self.edge_cut:g}, "
            f"balance={self.balance:.3f})"
        )


# ----------------------------------------------------------------------
# The multilevel driver
# ----------------------------------------------------------------------
def _edge_cut(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    assign: np.ndarray,
) -> float:
    """Total |J| over cut couplings (both triangles stored → halve)."""
    n = assign.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
    return float(weights[assign[rows] != assign[indices]].sum() / 2.0)


def partition_model(model, tile_size: int) -> Partitioning:
    """Multilevel min-cut partition of a coupling graph, tile-aligned.

    Runs the full coarsen → grow → refine pipeline described in the
    module docstring and returns a :class:`Partitioning` whose blocks
    hold exactly ``tile_size`` spins each (the last block takes the
    remainder).  Deterministic — repeated calls return the identical
    assignment.
    """
    s = check_count("tile_size", tile_size)
    n, indptr, indices, weights, structure = _weighted_adjacency(model)
    if n == 0:
        raise ValueError("model has no spins; nothing to partition")
    k = -(-n // s)
    if k <= 1:
        return Partitioning(
            np.zeros(n, dtype=np.intp), s,
            edge_cut=0.0, structure=structure,
        )
    targets = np.full(k, s, dtype=np.intp)
    targets[-1] = n - (k - 1) * s

    # --- coarsen -------------------------------------------------------
    levels: list[tuple[np.ndarray, ...]] = []
    cur = (indptr, indices, weights, np.ones(n, dtype=np.intp))
    goal = max(COARSEN_FLOOR, COARSEN_VERTICES_PER_BLOCK * k)
    # A tight weight cap (coarse vertices hold at most tile_size/32 fine
    # spins) keeps the coarse granularity fine enough for the growing
    # pass to tile cluster boundaries onto block targets exactly, instead
    # of leaking blob-sized remnants into far-away blocks (measured at
    # ~15-30% of the final tile count with an 8× coarser cap).
    cap = max(2, s // 32)
    while cur[3].shape[0] > goal:
        cmap = _heavy_edge_matching(*cur, cap=cap)
        nc = int(cmap.max()) + 1
        if nc > COARSEN_STALL_RATIO * cur[3].shape[0]:
            break
        levels.append(cur + (cmap,))
        cur = _contract(*cur, cmap=cmap)

    # --- initial partition on the coarsest graph -----------------------
    assign = _greedy_grow(*cur, targets=targets)

    # --- uncoarsen + refine --------------------------------------------
    chain = levels[::-1]
    for level in [None] + chain:
        if level is not None:
            # Project onto the next finer graph: a fine vertex inherits
            # its coarse representative's block.
            fine_indptr, fine_indices, fine_weights, fine_vw, cmap = level
            assign = assign[cmap]
            cur = (fine_indptr, fine_indices, fine_weights, fine_vw)
        # The balance slack must admit moving this level's heaviest vertex,
        # or coarse-level refinement is a no-op; the excess is worked off
        # as the vertices get finer, and the finest level ends exact.
        slack = max(s // 16, 2 * int(cur[3].max()))
        caps = targets + slack
        block_weight = np.bincount(
            assign, weights=cur[3], minlength=k
        ).astype(np.intp)
        M = _pair_counts(cur[0], cur[1], assign, k)
        conn = _Neighbourhoods(cur[0], cur[1], cur[2], assign)
        for _ in range(REFINE_PASSES):
            gained = _fm_pass(
                cur[0], cur[1], cur[2], cur[3], assign, block_weight, caps, M,
                conn,
            )
            if gained <= 0.0:
                break

    # --- exact tile alignment at the finest level ----------------------
    # M and conn are the finest level's state after the last FM pass.
    _rebalance_exact(indptr, indices, weights, assign, targets, M, conn)
    return Partitioning(
        assign, s,
        edge_cut=_edge_cut(indptr, indices, weights, assign),
        structure=structure,
    )


def partition_permutation(model, tile_size: int) -> Permutation:
    """The block-contiguous min-cut layout of ``model`` in one call.

    Convenience wrapper: :func:`partition_model` followed by
    :meth:`Partitioning.to_permutation` — what the ``reorder="partition"``
    knob resolves to.
    """
    return partition_model(model, tile_size).to_permutation()
