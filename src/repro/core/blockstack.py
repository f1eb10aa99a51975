"""Block-diagonal model union: many small jobs as one batch engine run.

The serving layer (:mod:`repro.serve`) packs independent solve jobs into
a single rank-``t`` batch step: couplings of ``k`` member models are laid
side by side as the block-diagonal union ``J = diag(J_1, …, J_k)``.
Disjoint blocks never interact — a flip in job ``i``'s block leaves every
other job's local fields untouched — so **one** ``(R, Σ n_i)`` engine
iteration advances all ``k`` tenants simultaneously, and per-job results
slice back out *bit-identically* to ``k`` solo ``solve_ising`` calls.

Bit-identity is the load-bearing contract (the service bench asserts it
before timing anything), and it holds because a stacked job runs through
the same loop as its solo run:

* :func:`compile_lane` (defined in :mod:`repro.core.batch`, next to the
  engines' draws) makes a job's lane: the solo engine's draws against
  the job's own ``ensure_rng(seed)`` stream — (SA only) the
  temperature-range probe, the initial ±1 configuration, the proposal
  tensor — with the generator left at the accept uniforms;
* :func:`run_stacked` hands the lanes to
  :func:`~repro.core.batch.run_lanes`, the one replica loop.  One lane
  runs on its own model, exactly its solo run.  Several lanes run on the
  union: per-lane cross terms come from the unsummed
  :meth:`~repro.core.coupling.SparseCouplingOps.batch_cross_term_slots`
  kernel (cross-block couplings are structurally zero, so each block's
  slot group carries exactly the solo contributions), field terms and
  energies regroup the same way, and best-state snapshots copy *column
  blocks* (``record_best_blocks``) instead of whole replica rows.

Every block is padded to a 64-spin boundary with isolated, never-proposed
padding spins so the packed backend's word layout slices cleanly; the
union stays :class:`~repro.ising.sparse.SparseIsingModel` (members are
promoted from dense via ``from_ising`` — the union's scatter kernels
collapse duplicate indices, which the dense ops' fancy indexing would
drop) and is itself promoted to
:class:`~repro.ising.packed.PackedIsingModel` when every member is packed
with one shared dyadic magnitude, preserving packed eligibility across
the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.batch import (
    BATCH_ENGINES,
    BatchAnnealResult,
    StackedLane,
    compile_lane,
    run_lanes,
)
from repro.ising.packed import PackedIsingModel
from repro.ising.sparse import SparseIsingModel

#: Methods the block-diagonal union can pack: the two flip-proposal batch
#: engines.  SB integrates all positions through one matvec per step and
#: MESA has no batch engine — those run solo (see ``repro.serve``).
PACK_METHODS = tuple(BATCH_ENGINES)

#: Blocks are padded to this boundary so packed spin words never straddle
#: two jobs (a word-granular best-snapshot then cannot leak across).
BLOCK_ALIGN = 64


@dataclass(frozen=True)
class BlockSlice:
    """Column range of one member model inside the union.

    ``start:stop`` are the member's real spins; ``stop:padded_stop`` are
    its isolated padding spins (coupling-free, field-free, never
    proposed, pinned to +1).
    """

    start: int
    stop: int
    padded_stop: int

    @property
    def num_spins(self) -> int:
        """Real (unpadded) spins of the member."""
        return self.stop - self.start


@dataclass(frozen=True)
class BlockStack:
    """A block-diagonal union model plus the member block geometry."""

    model: SparseIsingModel
    blocks: tuple[BlockSlice, ...]


def stack_models(models) -> BlockStack:
    """Stack member models into one block-diagonal union.

    Members may be dense :class:`~repro.ising.model.IsingModel` (converted
    through ``SparseIsingModel.from_ising``), sparse, or packed.  The
    union is sparse CSR; when *every* member is a
    :class:`~repro.ising.packed.PackedIsingModel` with one shared scale
    the union is promoted back to packed (the block-diagonal of ±c
    matrices is itself a ±c matrix), so a stack of packed jobs runs the
    popcount/XOR kernels.  Fields concatenate (zero over padding); member
    ``offset`` values are deliberately *not* merged — the stacked runner
    adds each job's own offset to its energy column.
    """
    members = [
        SparseIsingModel.from_ising(m) if m.backend == "dense" else m
        for m in models
    ]
    if not members:
        raise ValueError("stack_models needs at least one member model")
    blocks = []
    pos = 0
    for m in members:
        n = m.num_spins
        padded = pos + -(-n // BLOCK_ALIGN) * BLOCK_ALIGN
        blocks.append(BlockSlice(start=pos, stop=pos + n, padded_stop=padded))
        pos = padded
    total = pos

    count_parts = []
    index_parts = []
    data_parts = []
    has_fields = any(m.has_fields for m in members)
    fields = np.zeros(total, dtype=np.float64) if has_fields else None
    for m, b in zip(members, blocks):
        indptr, indices, data = m.csr_arrays()
        count_parts.append(np.diff(indptr))
        pad_rows = b.padded_stop - b.stop
        if pad_rows:
            count_parts.append(np.zeros(pad_rows, dtype=np.intp))
        index_parts.append(indices + b.start)
        data_parts.append(data)
        if fields is not None:
            fields[b.start:b.stop] = m.h
    union_indptr = np.zeros(total + 1, dtype=np.intp)
    np.cumsum(np.concatenate(count_parts), out=union_indptr[1:])
    union_indices = (
        np.concatenate(index_parts)
        if index_parts else np.empty(0, dtype=np.intp)
    )
    union_data = (
        np.concatenate(data_parts)
        if data_parts else np.empty(0, dtype=np.float64)
    )

    name = f"blockstack-{len(members)}x"
    all_packed = all(m.backend == "packed" for m in members)
    if all_packed and len({m.scale for m in members}) == 1:
        try:
            model: SparseIsingModel = PackedIsingModel(
                union_indptr, union_indices, union_data, fields, 0.0, name
            )
        except ValueError:
            # Degenerate members (e.g. coupling-free) can break packed
            # eligibility of the union; the sparse union is always valid.
            model = SparseIsingModel(
                union_indptr, union_indices, union_data, fields, 0.0, name
            )
    else:
        model = SparseIsingModel(
            union_indptr, union_indices, union_data, fields, 0.0, name
        )
    return BlockStack(model=model, blocks=tuple(blocks))


def run_stacked(lanes) -> list[BatchAnnealResult]:
    """Advance every lane in one :func:`~repro.core.batch.run_lanes` loop.

    All lanes must share ``(method, iterations, replicas,
    flips_per_iteration)`` — the serve scheduler groups jobs by exactly
    this key.  One lane runs on its own model and backend, exactly its
    solo engine run.  Several lanes run on their block-diagonal union
    (:func:`stack_models`).  Returns one
    :class:`~repro.core.batch.BatchAnnealResult` per lane, bit-identical
    to the lane's solo solve for every backend whose solo kernels agree
    with the union's sparse/packed kernels (always true sparse→sparse
    and packed→packed; dense members require exactly-representable
    dyadic couplings, the usual backend contract).
    """
    lanes = list(lanes)
    if not lanes:
        raise ValueError("run_stacked needs at least one lane")
    # (method, iterations, replicas, flips_per_iteration) of each lane.
    keys = [(lane.method, *lane.proposals.shape) for lane in lanes]
    for key in keys[1:]:
        if key != keys[0]:
            raise ValueError(
                "stacked lanes must share (method, iterations, replicas, "
                f"flips_per_iteration); got {key} alongside {keys[0]} — "
                "group jobs by these knobs before packing"
            )
    if len(lanes) == 1:
        return run_lanes(lanes[0].model, lanes)
    stack = stack_models([lane.model for lane in lanes])
    return run_lanes(stack.model, lanes, [b.start for b in stack.blocks])


__all__ = [
    "BLOCK_ALIGN",
    "PACK_METHODS",
    "BlockSlice",
    "BlockStack",
    "StackedLane",
    "compile_lane",
    "run_stacked",
    "stack_models",
]
