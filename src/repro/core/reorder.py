"""Bandwidth-reducing spin reordering ahead of crossbar tiling.

The tiled crossbar (:class:`~repro.arch.tiling.TiledCrossbar`) pays only
for (row-block, col-block) tiles that contain nonzeros, so its cost is set
by the *ordering* of the spins, not just the edge count: a degree-6 graph
in a banded (circulant) ordering occupies ~3 block diagonals, while the
same graph with scattered labels lights up nearly the whole ``grid²``
tile grid.  This module recovers the banded layout: a pure-numpy Reverse
Cuthill–McKee pass (BFS from a pseudo-peripheral vertex, George–Liu
refinement, children ordered by ascending degree, order reversed) plus a
greedy degree-ordering fallback, both operating directly on
:class:`~repro.ising.sparse.SparseIsingModel` CSR arrays — the dense
``(n, n)`` matrix is never formed.  A long-diameter graph has thousands
of BFS levels of a few nodes each, so each level is kept to a handful of
array calls, and duplicate nodes are dropped by a scatter stamp rather
than a sort.  A component's first BFS is its Cuthill–McKee pass: the
pseudo-peripheral search reads only its depth and the (degree, id)
minimum of its deepest level, and keeps its order when the search keeps
the start, so such a component costs two BFS passes, not three.

The result is a :class:`Permutation` carrying the forward/backward index
maps, the bandwidth before/after, and an exact
:meth:`~Permutation.estimated_active_tiles` predictor of the tile count a
:class:`~repro.arch.tiling.TiledCrossbar` would instantiate after
reordering (exact because the tile registry and the estimate both count
the nonzero-block set of the same stored entries).

Transparency contract
---------------------
Reordering is an *internal layout* optimisation: the annealers accept a
``permutation`` and keep their entire observable behaviour — RNG stream,
proposal order, returned configurations — in the caller's original
ordering (proposal indices are drawn in original space and mapped through
``forward``; results are mapped back through the inverse).  For dyadic
couplings (all ±1-weighted G-sets) every floating-point sum involved is
exact in any summation order, so a reordered solve is **bit-identical**
to the unreordered one; ``tests/test_reorder.py`` pins this down.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.utils.keys import sorted_unique
from repro.utils.validation import check_choice, check_count, check_permutation

#: Valid values of the public ``reorder=`` knob.  ``"partition"`` is the
#: multilevel min-cut block layout of :mod:`repro.core.partition` (for
#: clustered instances; requires a ``tile_size`` to size the blocks to).
REORDER_MODES = ("none", "rcm", "partition", "auto")

#: Strategies :func:`reorder_permutation` can be asked for explicitly
#: (``"degree"`` is the greedy fallback ``"auto"`` considers).
REORDER_STRATEGIES = REORDER_MODES + ("degree",)


class Permutation:
    """A spin relabelling ``new = forward[old]`` with layout metrics.

    Parameters
    ----------
    forward:
        Length-``n`` integer array mapping original spin index → reordered
        position.
    bandwidth_before / bandwidth_after:
        Matrix bandwidth ``max |i − j|`` over the stored couplings in the
        original and reordered labelling (``None`` when not computed).
    structure:
        Optional ``(rows, cols)`` arrays of the stored coupling entries in
        the *original* labelling — required by
        :meth:`estimated_active_tiles`.
    strategy:
        Label of the producing heuristic (``"rcm"``, ``"degree"``,
        ``"identity"``, …) — reported in the crossbar mapping summary.
    """

    def __init__(
        self,
        forward,
        bandwidth_before: int | None = None,
        bandwidth_after: int | None = None,
        structure: tuple[np.ndarray, np.ndarray] | None = None,
        strategy: str = "custom",
    ) -> None:
        forward = np.asarray(forward, dtype=np.intp)
        fwd, bwd = check_permutation(forward, forward.shape[0])
        self.forward = fwd
        self.backward = bwd
        self.bandwidth_before = (
            None if bandwidth_before is None
            else check_count("bandwidth_before", bandwidth_before, minimum=0)
        )
        self.bandwidth_after = (
            None if bandwidth_after is None
            else check_count("bandwidth_after", bandwidth_after, minimum=0)
        )
        self._structure = structure
        self.strategy = str(strategy)

    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, n: int, structure=None) -> "Permutation":
        """The do-nothing permutation on ``n`` spins."""
        return _from_order(np.arange(check_count("n", n, minimum=0)), structure, "identity")

    @property
    def n(self) -> int:
        """Number of spins the permutation acts on."""
        return self.forward.shape[0]

    def __len__(self) -> int:
        return self.n

    @property
    def is_identity(self) -> bool:
        """Whether the permutation leaves every spin in place."""
        return bool(np.array_equal(self.forward, np.arange(self.n)))

    @property
    def inverse(self) -> "Permutation":
        """The inverse relabelling (reordered position → original index)."""
        structure = None
        if self._structure is not None:
            rows, cols = self._structure
            structure = (self.forward[rows], self.forward[cols])
        return Permutation(
            self.backward,
            bandwidth_before=self.bandwidth_after,
            bandwidth_after=self.bandwidth_before,
            structure=structure,
            strategy=f"inverse({self.strategy})",
        )

    # ------------------------------------------------------------------
    def permute_vector(self, x: np.ndarray) -> np.ndarray:
        """Map a per-spin vector from original to reordered layout."""
        return np.asarray(x)[self.backward]

    def restore_vector(self, x: np.ndarray) -> np.ndarray:
        """Map a per-spin vector from reordered back to original layout."""
        return np.asarray(x)[self.forward]

    def estimated_active_tiles(self, tile_size: int) -> int:
        """Tiles a :class:`TiledCrossbar` instantiates after reordering.

        Counts the distinct ``tile_size``-square blocks hit by the stored
        coupling entries under this permutation — exactly the tile registry
        a :class:`TiledCrossbar` builds, so the prediction matches the
        machine's ``num_tiles`` (the occupancy regression test pins this).
        """
        s = check_count("tile_size", tile_size)
        if self._structure is None:
            raise ValueError(
                "permutation carries no coupling structure; build it via "
                "reorder_permutation()/rcm_permutation() to estimate tiles"
            )
        rows, cols = self._structure
        return _tile_count(self.n, self.forward[rows], self.forward[cols], s)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        bw = ""
        if self.bandwidth_before is not None and self.bandwidth_after is not None:
            bw = f", bandwidth {self.bandwidth_before}->{self.bandwidth_after}"
        return f"Permutation(n={self.n}, strategy={self.strategy!r}{bw})"


# ----------------------------------------------------------------------
# Structure extraction
# ----------------------------------------------------------------------
def _structure_of(model) -> tuple[int, np.ndarray, np.ndarray]:
    """``(n, rows, cols)`` of the stored coupling entries, both triangles.

    Sparse models hand over their CSR arrays directly (O(nnz), no dense
    matrix); dense models scan ``np.nonzero(J)``.
    """
    csr = getattr(model, "csr_arrays", None)
    if csr is not None:
        indptr, indices, _ = csr()
        n = model.num_spins
        rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
        return n, rows, indices
    J = getattr(model, "J", None)
    if J is None:
        raise TypeError(
            f"expected an IsingModel or SparseIsingModel, got "
            f"{type(model).__name__}"
        )
    rows, cols = np.nonzero(J)
    return J.shape[0], rows.astype(np.intp), cols.astype(np.intp)


def _tile_count(n: int, rows: np.ndarray, cols: np.ndarray, s: int) -> int:
    """Distinct ``s``-square blocks of an ``n``-spin grid the entries hit."""
    grid = -(-n // s)
    return int(sorted_unique((rows // s) * grid + cols // s).size)


def _from_order(order: np.ndarray, structure, strategy: str) -> Permutation:
    """The :class:`Permutation` that puts spin ``order[k]`` at position ``k``.

    With a ``structure`` it carries the bandwidth before and after.
    """
    forward = np.empty(order.size, dtype=np.intp)
    forward[order] = np.arange(order.size, dtype=np.intp)
    bw = (None, None)
    if structure is not None:
        rows, cols = structure
        bw = (_bandwidth_of(rows, cols), _bandwidth_of(forward[rows], forward[cols]))
    return Permutation(forward, *bw, structure=structure, strategy=strategy)


def _bandwidth_of(rows: np.ndarray, cols: np.ndarray) -> int:
    """Matrix bandwidth ``max |i − j|`` of a stored-entry set (0 if empty)."""
    if rows.size == 0:
        return 0
    return int(np.max(np.abs(rows - cols)))


def graph_bandwidth(model) -> int:
    """Bandwidth of the model's coupling matrix in its current labelling."""
    _, rows, cols = _structure_of(model)
    return _bandwidth_of(rows, cols)


def count_active_tiles(model, tile_size: int) -> int:
    """Nonzero ``tile_size``-square blocks in the model's current labelling.

    The identity-ordering baseline :meth:`Permutation.estimated_active_tiles`
    is compared against — equals ``TiledCrossbar(model, tile_size).num_tiles``
    without building any tile.
    """
    s = check_count("tile_size", tile_size)
    return _tile_count(*_structure_of(model), s)


# ----------------------------------------------------------------------
# BFS machinery (a few array calls per level)
# ----------------------------------------------------------------------
# All BFS passes of one RCM share a ``mark`` array and a running ``clock``:
# a pass starting at ``base = clock`` stamps every node it reaches with a
# value >= base, so a node is visited by that pass iff ``mark >= base``
# (earlier passes stamped lower), and nothing is ever reset.  Each level's
# stamps are distinct, which is what lets a scatter drop duplicate nodes.
def _gather(
    stops: np.ndarray, indices: np.ndarray, degrees: np.ndarray,
    frontier: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated neighbour lists of ``frontier`` and their segment ends.

    ``stops`` is ``indptr[1:]``.  The neighbours of ``frontier[i]`` fill
    ``[ends[i] - degrees[frontier[i]], ends[i])`` of the result.
    """
    counts = degrees[frontier]
    ends = counts.cumsum()
    pos = (stops[frontier] - ends).repeat(counts)
    pos += np.arange(pos.size)
    return indices[pos], ends


def _bfs_depth(
    stops: np.ndarray,
    indices: np.ndarray,
    degrees: np.ndarray,
    start: int,
    mark: np.ndarray,
    clock: int,
) -> tuple[int, int, int]:
    """``(depth, end, clock)`` of the BFS from ``start``.

    ``depth`` counts its levels and ``end`` is :func:`_lowest` of its
    deepest level — all the pseudo-peripheral search needs, so no level is
    kept.  A level's new nodes are deduplicated by a scatter stamp:
    whichever duplicate's write numpy keeps, exactly one copy of each node
    reads its own stamp back, so the level's *set* is fixed.
    """
    base = clock
    mark[start] = clock
    clock += 1
    frontier = np.array([start], dtype=np.intp)
    depth = 1
    while True:
        nbr, _ = _gather(stops, indices, degrees, frontier)
        fresh = nbr[mark[nbr] < base]
        if fresh.size == 0:
            break
        stamps = np.arange(clock, clock + fresh.size)
        clock += fresh.size
        mark[fresh] = stamps
        frontier = fresh[mark[fresh] == stamps]
        depth += 1
    return depth, _lowest(frontier, degrees), clock


def _lowest(level: np.ndarray, degrees: np.ndarray) -> int:
    """The (degree, id) minimum of a BFS level: the search's next root."""
    return int(level[np.lexsort((level, degrees[level]))[0]])


def _cm_component(
    stops: np.ndarray,
    indices: np.ndarray,
    degrees: np.ndarray,
    root: int,
    mark: np.ndarray,
    clock: int,
) -> tuple[list[np.ndarray], int]:
    """Cuthill–McKee levels of ``root``'s component, and the new clock.

    The levels are the BFS levels from ``root`` as sets, so the last one
    is the deepest.  Each level's fresh nodes are grouped by the rank of
    the parent that discovered them (earliest parent wins a shared child)
    and sorted by ascending degree within a group, with the node id as the
    deterministic tie-break — the classic CM child order.  Gathered entries come in
    parent order, so a node's earliest parent is its first position:
    ``np.minimum.at`` keeps that stamp whatever the write order.
    """
    base = clock
    mark[root] = clock
    clock += 1
    frontier = np.array([root], dtype=np.intp)
    order = [frontier]
    while True:
        nbr, ends = _gather(stops, indices, degrees, frontier)
        pos = (mark[nbr] < base).nonzero()[0]
        if pos.size == 0:
            return order, clock
        nodes = nbr[pos]
        stamps = pos + clock
        clock += nbr.size
        mark[nodes] = clock  # above every stamp of this level
        np.minimum.at(mark, nodes, stamps)
        first = mark[nodes] == stamps
        nodes, pos = nodes[first], pos[first]
        parent = ends.searchsorted(pos, side="right")
        # The CM order: (parent rank, degree, node id).
        frontier = nodes[np.lexsort((nodes, degrees[nodes], parent))]
        order.append(frontier)


def _csr_adjacency(model) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(n, indptr, indices, rows, cols)`` adjacency of either backend."""
    n, rows, cols = _structure_of(model)
    csr = getattr(model, "csr_arrays", None)
    if csr is not None:
        indptr, indices, _ = csr()
        return n, indptr, indices, rows, cols
    # Dense path: rows from np.nonzero are already CSR (row-major) ordered.
    indptr = np.zeros(n + 1, dtype=np.intp)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=n))
    return n, indptr, cols, rows, cols


# ----------------------------------------------------------------------
# Reordering passes
# ----------------------------------------------------------------------
def rcm_permutation(model) -> Permutation:
    """Reverse Cuthill–McKee reordering of a coupling graph.

    Components are processed in ascending order of their minimum degree
    (isolated spins first), each from a George–Liu pseudo-peripheral root;
    the concatenated Cuthill–McKee order is reversed at the end.  Pure
    numpy over the CSR arrays — O(nnz) work per BFS sweep, never a dense
    matrix.  CM is deterministic given its root and the unvisited set, so
    the CM pass from a component's first node doubles as the search's first
    BFS, and is rerun only when the search moves the root.
    """
    n, indptr, indices, rows, cols = _csr_adjacency(model)
    degrees = np.diff(indptr)
    stops = indptr[1:]
    # Every BFS stamps the nodes it reaches (all start at -1), so between
    # components a stamped node is one whose component is already ordered.
    mark = np.full(n, -1, dtype=np.int64)
    clock = 0
    # Component roots scanned through a degree-presorted node list with a
    # moving pointer: amortised O(n log n) even for thousands of singleton
    # components (a per-component flatnonzero scan would be O(n²)).
    by_degree = np.argsort(degrees, kind="stable")
    ptr = 0
    pieces: list[np.ndarray] = []
    while ptr < n:
        if mark[by_degree[ptr]] >= 0:
            ptr += 1
            continue
        start = int(by_degree[ptr])
        levels, clock = _cm_component(stops, indices, degrees, start, mark, clock)
        # George–Liu: re-root at the deepest level's lowest node while the
        # eccentricity grows.
        root, depth, end = start, len(levels), _lowest(levels[-1], degrees)
        while end != root:
            new_depth, new_end, clock = _bfs_depth(
                stops, indices, degrees, end, mark, clock
            )
            if new_depth <= depth:
                break
            root, depth, end = end, new_depth, new_end
        if root != start:
            levels, clock = _cm_component(stops, indices, degrees, root, mark, clock)
        pieces += levels
    cm = np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.intp)
    return _from_order(cm[::-1], (rows, cols), "rcm")


def degree_permutation(model) -> Permutation:
    """Greedy ascending-degree ordering (the ``auto`` fallback).

    Sorting spins by degree clusters the dense rows; it cannot follow
    graph structure like RCM, but it is a cheap O(n log n) improvement for
    graphs whose degree distribution — not topology — drives the fill.
    """
    _, indptr, _, rows, cols = _csr_adjacency(model)
    return _from_order(np.argsort(np.diff(indptr), kind="stable"), (rows, cols), "degree")


def reorder_permutation(
    model, mode: str = "rcm", tile_size: int | None = None
) -> Permutation | None:
    """Resolve the ``reorder`` knob to a permutation (or ``None``).

    ``"rcm"`` / ``"partition"`` / ``"degree"`` return their pass
    unconditionally (an explicit request is honoured even when it does not
    improve the layout; ``"partition"`` needs ``tile_size`` to size its
    blocks to the tile grid).  ``"auto"`` scores candidates — by
    :meth:`~Permutation.estimated_active_tiles` when ``tile_size`` is
    given (the tiled-machine objective; RCM **and** the multilevel min-cut
    partition both compete, exact tile counts decide), by bandwidth
    otherwise (partition is not considered: without a tile grid a block
    layout has nothing to optimise) — tries the greedy degree fallback
    when the structural passes fail to improve, and returns ``None``
    (keep the identity ordering) unless the winner *strictly* beats the
    current labelling.  Every candidate pass is deterministic, so the
    scorer picks the same winner on every run.
    """
    check_choice("reorder", mode, REORDER_STRATEGIES)
    if mode == "none":
        return None
    if mode in ("partition", "auto") and tile_size is not None:
        tile_size = check_count("tile_size", tile_size)
    if mode == "rcm":
        return rcm_permutation(model)
    if mode == "partition":
        if tile_size is None:
            raise ValueError(
                "reorder='partition' sizes its blocks to the tile grid and "
                "needs tile_size=...; use reorder='rcm' (bandwidth) for "
                "untiled layouts"
            )
        # Local import: repro.core.partition builds on this module.
        from repro.core.partition import partition_permutation

        return partition_permutation(model, tile_size)
    if mode == "degree":
        return degree_permutation(model)
    # auto
    if tile_size is not None:

        def score(perm: Permutation) -> int:
            return perm.estimated_active_tiles(tile_size)

        identity_score = count_active_tiles(model, tile_size)
    else:

        def score(perm: Permutation) -> int:
            return perm.bandwidth_after

        identity_score = graph_bandwidth(model)
    score = functools.cache(score)  # each candidate is scored once
    best = rcm_permutation(model)
    if tile_size is not None:
        from repro.core.partition import partition_permutation

        candidate = partition_permutation(model, tile_size)
        if score(candidate) < score(best):
            best = candidate
    if score(best) >= identity_score:
        fallback = degree_permutation(model)
        if score(fallback) < score(best):
            best = fallback
    if score(best) >= identity_score:
        return None
    return best
