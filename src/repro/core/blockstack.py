"""Block-diagonal model union: many small jobs as one batch engine run.

The serving layer (:mod:`repro.serve`) packs independent solve jobs into
a single rank-``t`` batch step: couplings of ``k`` member models are laid
side by side as the block-diagonal union ``J = diag(J_1, …, J_k)``.
Disjoint blocks never interact — a flip in job ``i``'s block leaves every
other job's local fields untouched — so **one** ``(R, Σ n_i)`` engine
iteration advances all ``k`` tenants simultaneously, and per-job results
slice back out *bit-identically* to ``k`` solo ``solve_ising`` calls.

Bit-identity is the load-bearing contract (the service bench asserts it
before timing anything), and it holds because the stacked runner
replicates each job's solo run exactly:

* :func:`compile_lane` performs a job's RNG draws in the precise order
  the solo batch engine performs them — (SA only) the temperature-range
  probe, the initial ±1 configuration, the proposal tensor, then the
  per-iteration uniforms (``rng.random((iterations, R))`` consumes the
  bit stream exactly like ``iterations`` successive ``rng.random(R)``
  calls) — against the job's own ``ensure_rng(seed)`` stream;
* :func:`run_stacked` re-evaluates the engine's per-iteration formulas
  with per-*(replica, job)* accept decisions: per-block cross terms come
  from the new unsummed
  :meth:`~repro.core.coupling.SparseCouplingOps.batch_cross_term_slots`
  kernel (cross-block couplings are structurally zero, so each block's
  slot group carries exactly the solo contributions), field terms and
  energies are regrouped the same way, and best-state snapshots copy
  *column blocks* (:meth:`record_best_blocks`) instead of whole replica
  rows.

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
    BatchAnnealResult,
    BatchDirectEAnnealer,
    BatchInSituAnnealer,
)
from repro.core.coupling import coupling_ops
from repro.ising.packed import PackedIsingModel
from repro.ising.sparse import SparseIsingModel
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_choice, check_count

#: Methods the block-diagonal union can pack: the two flip-proposal batch
#: engines.  SB integrates all positions through one matvec per step and
#: MESA has no batch engine — those run solo (see ``repro.serve``).
PACK_METHODS = ("insitu", "sa")

#: Blocks are padded to this boundary so packed spin words never straddle
#: two jobs (a word-granular best-snapshot then cannot leak across).
BLOCK_ALIGN = 64

_LANE_ENGINES = {
    "insitu": BatchInSituAnnealer,
    "sa": BatchDirectEAnnealer,
}


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

    @property
    def num_members(self) -> int:
        """Number of stacked member models."""
        return len(self.blocks)


def stack_models(models, align: int = BLOCK_ALIGN) -> BlockStack:
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
        m if isinstance(m, SparseIsingModel) else SparseIsingModel.from_ising(m)
        for m in models
    ]
    if not members:
        raise ValueError("stack_models needs at least one member model")
    align = check_count("align", align)
    blocks = []
    pos = 0
    for m in members:
        n = m.num_spins
        padded = pos + -(-n // align) * align
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
    all_packed = all(isinstance(m, PackedIsingModel) for m in members)
    scales = {m.scale for m in members if isinstance(m, PackedIsingModel)}
    if all_packed and len(scales) == 1:
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


@dataclass
class StackedLane:
    """One job's compiled slot in a stacked run: model + frozen RNG draws.

    Produced by :func:`compile_lane`; all stochastic inputs of the solo
    engine run (initial state, proposal tensor, per-iteration uniforms,
    SA temperature schedule) are materialised here from the job's own
    seed stream, so :func:`run_stacked` is deterministic given its lanes.
    """

    model: SparseIsingModel
    method: str
    iterations: int
    replicas: int
    flips_per_iteration: int
    sigma0: np.ndarray          # (R, n) float ±1, the solo initial draw
    proposals: np.ndarray       # (iterations, R, t) local spin indices
    uniforms: np.ndarray        # (iterations, R) accept draws
    coefficients: np.ndarray    # accept coefficient per iteration:
                                # insitu f(T), sa floored T
    acceptance_scale: float | None      # insitu: the engine's gain


def compile_lane(
    model,
    method: str = "insitu",
    iterations: int = 1000,
    replicas: int = 1,
    flips_per_iteration: int = 1,
    seed=None,
    initial=None,
) -> StackedLane:
    """Freeze one job's solo RNG draws into a :class:`StackedLane`.

    The draws happen in exactly the solo engine's order against
    ``ensure_rng(seed)`` — construct engine (SA's default schedule probes
    ``estimate_temperature_range`` on this stream), initial configuration,
    proposal tensor, then the accept uniforms — so a lane executed through
    :func:`run_stacked` reproduces ``solve_ising(model, method,
    iterations, seed=seed, replicas=replicas,
    flips_per_iteration=flips_per_iteration)`` bit-for-bit.
    ``initial`` follows the engine contract (shape ``(n,)`` or ``(R, n)``,
    entries ±1; validated with the engine's own message).  The accept
    coefficients come from the engine's own ``_accept_coefficients``,
    the array its solo ``run`` indexes.
    """
    check_choice("method", method, PACK_METHODS)
    iterations = check_count(
        "iterations", iterations,
        hint="the annealers need at least one proposal/accept step",
    )
    replicas = check_count(
        "replicas", replicas,
        hint="each replica is one independent trajectory",
    )
    flips_per_iteration = check_count(
        "flips_per_iteration", flips_per_iteration
    )
    rng = ensure_rng(seed)
    # The engine is the source of truth for schedule/scale derivation and
    # the draw order; its internal hooks are reused on purpose so lane
    # compilation can never drift from the solo run() sequence.
    engine = _LANE_ENGINES[method](
        model, replicas=replicas,
        flips_per_iteration=flips_per_iteration, seed=rng,
    )
    schedule = engine._build_schedule(iterations)
    if schedule.iterations != iterations:
        raise ValueError("schedule length does not match iterations")
    coefficients = engine._accept_coefficients(schedule)
    sigma0 = engine._initial_sigma(initial, rng)
    proposals = engine._proposal_tensor(iterations)
    # Stream-equivalent to `iterations` successive rng.random(R) calls:
    # Generator.random fills C-order, one bit-stream draw per double.
    uniforms = rng.random((iterations, replicas))
    return StackedLane(
        model=model, method=method, iterations=iterations,
        replicas=replicas, flips_per_iteration=engine.flips_per_iteration,
        sigma0=sigma0, proposals=proposals, uniforms=uniforms,
        coefficients=coefficients,
        acceptance_scale=(
            float(engine.acceptance_scale) if method == "insitu" else None
        ),
    )


def run_stacked(lanes) -> list[BatchAnnealResult]:
    """Advance every lane simultaneously on the block-diagonal union.

    All lanes must share ``(method, iterations, replicas,
    flips_per_iteration)`` — the serve scheduler groups jobs by exactly
    this key.  Returns one :class:`~repro.core.batch.BatchAnnealResult`
    per lane, bit-identical to the lane's solo solve for every backend
    whose solo kernels agree with the union's sparse/packed kernels
    (always true sparse→sparse and packed→packed; dense members require
    exactly-representable dyadic couplings, the usual backend contract).
    """
    lanes = list(lanes)
    if not lanes:
        raise ValueError("run_stacked needs at least one lane")
    first = lanes[0]
    key = (
        first.method, first.iterations, first.replicas,
        first.flips_per_iteration,
    )
    for lane in lanes[1:]:
        lane_key = (
            lane.method, lane.iterations, lane.replicas,
            lane.flips_per_iteration,
        )
        if lane_key != key:
            raise ValueError(
                "stacked lanes must share (method, iterations, replicas, "
                f"flips_per_iteration); got {lane_key} alongside {key} — "
                "group jobs by these knobs before packing"
            )
    k = len(lanes)
    method, iterations, R, t = key
    stack = stack_models([lane.model for lane in lanes])
    ops = coupling_ops(stack.model)
    blocks = stack.blocks
    starts = np.array([b.start for b in blocks], dtype=np.intp)
    stops = np.array([b.stop for b in blocks], dtype=np.intp)

    # Union initial state: each job's solo draw in its block, padding +1.
    sigma = np.ones((R, stack.model.num_spins), dtype=np.float64)
    for lane, b in zip(lanes, blocks):
        sigma[:, b.start:b.stop] = lane.sigma0
    state = ops.make_batch_state(sigma)
    g = state.fields
    del sigma  # the state owns the replica spins from here on

    # Per-job energies from each job's own arrays (the contiguous field
    # slice reproduces the solo einsum's memory walk).
    energy = np.empty((R, k), dtype=np.float64)
    for j, (lane, b) in enumerate(zip(lanes, blocks)):
        g_j = np.ascontiguousarray(g[:, b.start:b.stop])
        energy[:, j] = (
            np.einsum("rn,rn->r", lane.sigma0, g_j)
            + lane.sigma0 @ lane.model.h
            + lane.model.offset
        )
    best_energy = energy.copy()
    accepted = np.zeros((R, k), dtype=np.int64)

    # Pre-assembled per-iteration tensors: proposals offset into union
    # columns, uniforms / accept parameters laid out per job column.
    props = np.empty((iterations, R, k, t), dtype=np.intp)
    uniforms = np.empty((iterations, R, k), dtype=np.float64)
    coefficients = np.empty((iterations, k), dtype=np.float64)
    for j, (lane, b) in enumerate(zip(lanes, blocks)):
        props[:, :, j, :] = lane.proposals + b.start
        uniforms[:, :, j] = lane.uniforms
        coefficients[:, j] = lane.coefficients
    if method == "insitu":
        scales = np.array([lane.acceptance_scale for lane in lanes])

    h_union = stack.model.h
    fielded = np.array(
        [lane.model.has_fields for lane in lanes], dtype=bool
    )
    any_fields = bool(fielded.any())
    all_fields = bool(fielded.all())

    rows = np.arange(R)[:, None]
    for it in range(iterations):
        idx = props[it].reshape(R, k * t)
        sig_f = state.gather(rows, idx)
        slots = ops.batch_cross_term_slots(g, idx, sig_f)
        # Per-job regroup: each block's t slots sum in solo slot order.
        cross = slots.reshape(R, k, t).sum(axis=2)
        if any_fields:
            field = -(h_union[idx] * sig_f).reshape(R, k, t).sum(axis=2)
            if not all_fields:
                # Field-free jobs use the solo scalar 0.0 exactly (their
                # union column is a sum of signed zeros otherwise).
                field[:, ~fielded] = 0.0
        else:
            field = 0.0
        delta = 4.0 * cross + 2.0 * field
        u = uniforms[it]
        if method == "insitu":
            # Same association as the engines: ((x · f) · scale).
            e_inc = (
                (cross + np.asarray(field) / 2.0) * coefficients[it] * scales
            )
            accept = (e_inc <= 0.0) | (e_inc <= u)
        else:
            accept = (delta <= 0.0) | (
                u < np.exp(-np.maximum(delta, 0.0) / coefficients[it])
            )
        if accept.any():
            acc_r, acc_j = np.nonzero(accept)
            cols = props[it][acc_r, acc_j]                 # (A, t)
            vals = sig_f.reshape(R, k, t)[acc_r, acc_j]    # (A, t)
            # Duplicate replica rows are safe on the sparse/packed union:
            # different jobs' flips land in disjoint column blocks, so
            # every flat scatter index is unique (and the rank-t path
            # collapses shared-neighbour duplicates via bincount anyway).
            ops.batch_update_fields(g, acc_r, cols, vals)
            state.flip(acc_r, cols, vals)
            energy[acc_r, acc_j] += delta[acc_r, acc_j]
            accepted[acc_r, acc_j] += 1
            improved = energy[acc_r, acc_j] < best_energy[acc_r, acc_j]
            if improved.any():
                imp_r = acc_r[improved]
                imp_j = acc_j[improved]
                best_energy[imp_r, imp_j] = energy[imp_r, imp_j]
                state.record_best_blocks(
                    imp_r, starts[imp_j], stops[imp_j]
                )

    best_sigmas = state.best_sigmas(None)
    final_sigmas = state.final_sigmas(None)
    return [
        BatchAnnealResult(
            best_energies=best_energy[:, j].copy(),
            best_sigmas=best_sigmas[:, b.start:b.stop].copy(),
            final_energies=energy[:, j].copy(),
            final_sigmas=final_sigmas[:, b.start:b.stop].copy(),
            accepted=accepted[:, j].copy(),
            iterations=iterations,
        )
        for j, b in enumerate(blocks)
    ]


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
