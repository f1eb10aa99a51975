"""Backend-agnostic coupling access for the annealer hot loops.

The three solver families (:mod:`~repro.core.annealer`, :mod:`~repro.core.sa`,
:mod:`~repro.core.mesa`) need four operations on the coupling matrix:

* ``local_fields(σ)`` — the cached state ``g = J σ``;
* ``diag()`` — ``diag(J)`` for the self-coupling correction;
* ``cross_term(g, F, σ_F)`` — the incremental-E core ``σ_rᵀ J σ_c``
  evaluated from the cached fields;
* ``update_fields(g, F, σ_F)`` — the rank-``|F|`` in-place update after an
  accepted flip.

The multi-replica batch loop (:func:`~repro.core.batch.run_lanes`) uses
their ``(R, n)`` forms: ``batch_local_fields`` for the initial state,
``batch_cross_term_slots`` for per-replica rank-``t`` flip sets (summed:
``batch_cross_term``) and ``batch_update_fields`` for the accepted
replicas' rank-``t`` updates in one scatter.  A rank-1 flip needs less:
its cross term is the diagonal formula, which the loop evaluates itself,
and ``rank1_updates`` looks up what its field update reads once per
chunk of drawn proposals.

The simulated-bifurcation engines (:mod:`~repro.core.sb`) add one more
pair: ``matvec(x)`` / ``batch_matvec(X)``, the plain coupling product
``J x`` for *arbitrary real* inputs (continuous bSB positions or dSB sign
readouts) — dense matrix product on one side, CSR ``bincount`` SpMV on
the other, never densifying.

The batch engine additionally owns a full replica spin tensor whose
layout is backend business, not engine business: ``make_batch_state``
returns the spin-state adapter (:class:`FloatBatchState` here, the
bit-packed :class:`~repro.core.packed.PackedBatchState` on the packed
backend) through which the engine locates proposed spins, gathers them,
applies accepted flips, and snapshots per-replica bests.

:func:`coupling_ops` wraps a model in the adapter its ``backend`` names.
The adapters share one base that writes the backend-independent half
once: ``diag``, ``local_fields`` (= ``matvec``), ``batch_local_fields``
(= ``batch_matvec``), the rank-1 cross-term slot, ``batch_cross_term``
(the slot sum) and the float ``make_batch_state``.  Each backend supplies
the rest: :class:`DenseCouplingOps` the seed's dense numpy expressions,
:class:`SparseCouplingOps` the same formulas over CSR neighbour lists in
O(degree) per flip, and :class:`~repro.core.packed.PackedCouplingOps`
the sparse kernels plus a bit-packed replica state.  Because all
adapters compute the identical mathematical expressions (and identical
floating-point values whenever sums are exactly representable), a solver
is backend-transparent: hand it any model type and fixed-seed
trajectories coincide.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.ising.model import IsingModel
from repro.ising.sparse import SparseIsingModel


class FloatBatchState:
    """Replica spin state as an int8 ±1 ``(R, n)`` tensor.

    The batch engine's spin-state protocol for the dense and sparse
    backends: ``fields`` caches the ``(R, n)`` float local fields,
    ``locate`` addresses a chunk's proposed spins once and returns the
    ``gather``/``flip`` that read and negate them per iteration,
    ``record_best`` snapshots improved replicas, and the readout methods
    return int8 configurations in the model's spin order.
    ``gather(rows, idx)``/``flip(acc, cols, vals)`` read and negate spins
    addressed by replica and spin.  The spins and the best snapshots are
    int8, an eighth of the traffic of float rows; reads hand the engine
    float64 ±1.0, and the fields come from the float draw, so every value
    the engine computes with is unchanged.
    """

    def __init__(self, ops, sigma: np.ndarray) -> None:
        #: Cached ``(R, n)`` local fields ``g_r = J σ_r`` (C-contiguous
        #: per the batch_local_fields producer contract).
        self.fields = ops.batch_local_fields(sigma)
        # order="C": locate and record_best_blocks alias both tensors
        # through reshape(-1).
        self._sigma = sigma.astype(np.int8, order="C")
        self._best = self._sigma.copy()

    def locate(self, addr: np.ndarray):
        """``(gather, flip)`` of the spins at ``addr = row·n + spin``.

        ``addr`` is ``(iterations, slots)``; ``gather(i)`` returns
        iteration ``i``'s spins as ±1.0 float64 and ``flip(i, acc, vals)``
        negates its slots ``acc`` (distinct spins, now ``vals``).
        """
        spins = self._sigma.reshape(-1)

        def gather(i):
            return spins[addr[i]].astype(np.float64)

        def flip(i, acc, vals):
            # Aliasing audited: _sigma is built in C order, so spins is
            # a view of it.
            spins[addr[i][acc]] = -vals  # repro-lint: disable=RPL004

        return gather, flip

    def gather(self, rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Current values of spins ``idx[r]`` per replica (±1.0 float64)."""
        return self._sigma[rows, idx].astype(np.float64)

    def flip(self, acc: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        """Negate spins ``cols[a]`` of accepted replicas ``acc``."""
        self._sigma[acc[:, None], cols] = -vals

    def record_best(self, improved: np.ndarray) -> None:
        """Snapshot the current state of improved replicas."""
        self._best[improved] = self._sigma[improved]

    def record_best_blocks(
        self, rows: np.ndarray, starts: np.ndarray, stops: np.ndarray
    ) -> None:
        """Snapshot column ranges ``[starts[a], stops[a])`` of ``rows[a]``.

        The block-stacked runner (:mod:`repro.core.blockstack`) packs many
        independent jobs side by side in one replica row, so a best-state
        improvement belongs to *one column block*, not the whole row —
        :meth:`record_best` would overwrite other jobs' snapshots.
        ``rows`` may repeat (several jobs of one replica improving in the
        same iteration): the ranges are disjoint per replica, so the flat
        copy below touches each destination element once.
        """
        widths = (stops - starts).astype(np.intp)
        total = int(widths.sum())
        if total == 0:
            return
        offsets = np.concatenate(([0], np.cumsum(widths)[:-1]))
        n = self._sigma.shape[1]
        flat = (
            np.repeat(rows * n + starts - offsets, widths)
            + np.arange(total)
        )
        # Aliasing audited: _sigma is built in C order and _best is its
        # .copy().
        self._best.reshape(-1)[flat] = self._sigma.reshape(-1)[flat]  # repro-lint: disable=RPL004

    def final_sigmas(self) -> np.ndarray:
        """A copy of the current replica spins as ``(R, n)`` int8."""
        return self._sigma.copy()

    def best_sigmas(self) -> np.ndarray:
        """A copy of the per-replica best snapshots as ``(R, n)`` int8."""
        return self._best.copy()

    def memory_bytes(self) -> int:
        """Bytes held by the spin tensors and the field cache."""
        return int(
            self._sigma.nbytes + self._best.nbytes + self.fields.nbytes
        )


def _csr_positions(counts: np.ndarray, row_ends: np.ndarray) -> np.ndarray:
    """CSR positions of the rows of ``counts`` entries ending at ``row_ends``.

    The rows are concatenated in order, without a Python loop: row ``k``
    lands at output offsets ``ends[k] - counts[k]`` to ``ends[k]``, so
    output offset ``o`` reads position ``row_ends[k] - ends[k] + o``.
    """
    ends = counts.cumsum()
    total = int(ends[-1]) if ends.size else 0
    return (row_ends - ends).repeat(counts) + np.arange(total)


class _CouplingOpsBase(ABC):
    """The formulas every coupling adapter shares.

    A backend supplies ``matvec``/``batch_matvec`` and the flip sets'
    coupling sub-products ``_flip_sub``/``_batch_flip_sub`` (plus its
    field updates); the diagonal, the field producers, the rank-1 cross
    term, the slot sum and the float replica state are written once here,
    so every backend evaluates the same expressions.
    """

    kind: str

    def __init__(self, model) -> None:
        self._diag: np.ndarray = model.coupling_diagonal()

    def diag(self) -> np.ndarray:
        """``diag(J)`` as a dense vector."""
        return self._diag

    @abstractmethod
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``J x`` for an arbitrary real vector.

        Unlike :meth:`local_fields` the input is not restricted to ±1 spin
        vectors — the simulated-bifurcation engines drive this with
        continuous positions (bSB) as well as sign readouts (dSB).
        """

    @abstractmethod
    def batch_matvec(self, x: np.ndarray) -> np.ndarray:
        """``(R, n)`` products ``J x_r`` for a batch of real vectors (C order)."""

    @abstractmethod
    def _flip_sub(self, flips: np.ndarray, sig_f: np.ndarray) -> np.ndarray:
        """``sub[k] = Σ_l J[f_k, f_l] σ_F[l]`` over one flip set ``F``."""

    @abstractmethod
    def _batch_flip_sub(self, idx: np.ndarray, sig_f: np.ndarray) -> np.ndarray:
        """``(R, t)`` :meth:`_flip_sub` of every replica's flip set ``idx[r]``."""

    def local_fields(self, sigma: np.ndarray) -> np.ndarray:
        """``g = J σ``: :meth:`matvec` on a ±1 spin vector."""
        return self.matvec(sigma)

    def batch_local_fields(self, sigma: np.ndarray) -> np.ndarray:
        """``(R, n)`` local fields for a replica batch: :meth:`batch_matvec`."""
        return self.batch_matvec(sigma)

    def cross_term(self, g: np.ndarray, flips: np.ndarray, sig_f: np.ndarray) -> float:
        """``σ_rᵀ J σ_c`` from the cached local fields.

        For each flipped spin the contribution of the *other* flipped
        spins is subtracted from its cached field; a single flip needs
        only the diagonal.
        """
        if flips.shape[0] == 1:
            j0 = int(flips[0])
            return float(-sig_f[0] * (g[j0] - self._diag[j0] * sig_f[0]))
        return float(-(sig_f * (g[flips] - self._flip_sub(flips, sig_f))).sum())

    def batch_cross_term(
        self, g: np.ndarray, idx: np.ndarray, sig_f: np.ndarray
    ) -> np.ndarray:
        """``(R,)`` cross terms ``σ_rᵀ J σ_c`` for per-replica flip sets.

        ``idx`` and ``sig_f`` are ``(R, t)``: replica ``r`` proposes the
        flip set ``idx[r]`` (unique indices) currently valued ``sig_f[r]``.
        Same formula as :meth:`cross_term` per replica, evaluated
        array-wide.
        """
        return self.batch_cross_term_slots(g, idx, sig_f).sum(axis=1)

    def batch_cross_term_slots(
        self, g: np.ndarray, idx: np.ndarray, sig_f: np.ndarray
    ) -> np.ndarray:
        """``(R, t)`` per-slot cross-term contributions, before the sum.

        :meth:`batch_cross_term` is exactly ``slots.sum(axis=1)`` (IEEE
        negation is exact and sign-symmetric under rounding, so negating
        per slot and summing matches negating the sum bit-for-bit).  The
        block-stacked runner consumes the unsummed slots to regroup them
        per member block: for flip sets whose members live in mutually
        uncoupled column blocks, each slot's ``sub`` only sees flips of
        its own block, so regrouped per-block sums reproduce the member
        models' solo cross terms.
        """
        g_f = g[np.arange(idx.shape[0])[:, None], idx]
        if idx.shape[1] == 1:
            sub = self._diag[idx] * sig_f
        else:
            sub = self._batch_flip_sub(idx, sig_f)
        return -(sig_f * (g_f - sub))

    def make_batch_state(self, sigma: np.ndarray) -> FloatBatchState:
        """Replica spin-state adapter for the batch engine (int8 spins)."""
        return FloatBatchState(self, sigma)


class DenseCouplingOps(_CouplingOpsBase):
    """Coupling operations over a dense symmetric matrix (the seed's path)."""

    kind = "dense"

    def __init__(self, model: IsingModel) -> None:
        super().__init__(model)
        self._J = model.J

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``J x`` (O(n²))."""
        return self._J @ x

    def batch_matvec(self, x: np.ndarray) -> np.ndarray:
        """``(R, n)`` products ``J x_r`` for a batch of real vectors."""
        return x @ self._J  # J symmetric, so the row-major product works

    def _flip_sub(self, flips: np.ndarray, sig_f: np.ndarray) -> np.ndarray:
        return self._J[np.ix_(flips, flips)] @ sig_f

    def _batch_flip_sub(self, idx: np.ndarray, sig_f: np.ndarray) -> np.ndarray:
        return np.einsum(
            "rkl,rl->rk", self._J[idx[:, :, None], idx[:, None, :]], sig_f
        )

    def update_fields(self, g: np.ndarray, flips: np.ndarray, sig_f: np.ndarray) -> None:
        """In-place ``g ← g − 2 J[:, F] σ_F`` after an accepted flip."""
        g -= 2.0 * (self._J[:, flips] @ sig_f)

    def batch_update_fields(
        self, g: np.ndarray, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
    ) -> None:
        """Per-replica rank-``t`` field update for accepted replicas.

        ``rows`` (A,) are accepted replica indices; ``cols`` / ``vals`` are
        ``(A, t)`` flip sets and pre-flip spin values (1-D accepted for the
        legacy single-flip call shape).  Loops over the ``t`` flip slots —
        each slot is one column gather per accepted replica, so memory
        stays O(A·n) with no ``(n, A, t)`` intermediate.
        """
        if cols.ndim == 1:
            self.rank1_updates(g, rows, cols[None])(0, slice(None), vals)
            return
        for k in range(cols.shape[1]):
            g[rows] -= 2.0 * (self._J[:, cols[:, k]].T * vals[:, k][:, None])

    def rank1_updates(self, g: np.ndarray, rows: np.ndarray, spins: np.ndarray):
        """``update(i, acc, vals)``: rank-1 field updates for a chunk.

        ``spins`` is ``(iterations, slots)``, ``rows`` the replica of each
        slot.  ``update`` applies ``g_r ← g_r − 2 J[:, j] σ_j`` for slots
        ``acc`` of iteration ``i`` (pre-flip values ``vals``).  The
        replicas must be distinct: a fancy ``-=`` keeps one write per row.
        """
        J = self._J
        # intp: int32 column indices index J more slowly every iteration.
        spins = spins.astype(np.intp, copy=False)

        def update(i, acc, vals):
            g[rows[acc]] -= 2.0 * (J[:, spins[i][acc]].T * vals[:, None])

        return update

    def offdiag_abs_values(self) -> np.ndarray:
        """|J_ij| of all off-diagonal entries (both triangles)."""
        n = self._J.shape[0]
        return np.abs(self._J[~np.eye(n, dtype=bool)])

    def memory_bytes(self) -> int:
        """Bytes held by the coupling storage."""
        return int(self._J.nbytes)


class SparseCouplingOps(_CouplingOpsBase):
    """Coupling operations over CSR storage: O(degree) per flipped spin."""

    kind = "sparse"

    def __init__(self, model: SparseIsingModel) -> None:
        super().__init__(model)
        self._model = model
        self._indptr, self._indices, self._data = model.csr_arrays()
        self._degree = np.diff(self._indptr)
        self._n = model.num_spins

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``J x`` via the CSR ``bincount`` SpMV (O(nnz), no densification).

        The kernel places no ±1 restriction on ``x``; for dyadic couplings
        *and* dyadic inputs every partial sum is exact and the result is
        bit-identical to the dense product.
        """
        return self._model._matvec(x)

    def batch_matvec(self, x: np.ndarray) -> np.ndarray:
        """``(R, n)`` products ``J x_r``: one CSR SpMV per replica (O(R·nnz)).

        Returns a C-contiguous tensor whatever the layout of ``x``:
        ``zeros_like`` would inherit e.g. the F order of a
        permutation-gathered ``x[:, bwd]``, and an F-ordered field cache
        turns the ``reshape(-1)`` in :meth:`batch_update_fields` into a
        silent copy that drops the scatter-update.
        """
        out = np.zeros(x.shape, dtype=np.float64)
        for r in range(x.shape[0]):
            out[r] = self._model._matvec(x[r])
        return out

    def _gather_rows(self, spins: np.ndarray):
        """Concatenated neighbour lists of ``spins`` without a Python loop.

        Returns ``(counts, nbr, w)``: per-spin neighbour counts and the
        flat column-index / value arrays of all their CSR rows, in order.
        O(Σ degree) time and memory.
        """
        counts = self._degree[spins]
        pos = _csr_positions(counts, self._indptr[1:][spins])
        return counts, self._indices[pos], self._data[pos]

    def _flip_sub(self, flips: np.ndarray, sig_f: np.ndarray) -> np.ndarray:
        # Intersect each flipped row's neighbour list with the flip set
        # via binary search (O(Σ degree · log t)).
        t = flips.shape[0]
        order = np.argsort(flips)
        sorted_flips = flips[order]
        sub = np.zeros(t, dtype=np.float64)
        for k in range(t):
            lo, hi = self._indptr[flips[k]], self._indptr[flips[k] + 1]
            nbr = self._indices[lo:hi]
            loc = np.searchsorted(sorted_flips, nbr)
            loc = np.minimum(loc, t - 1)
            hit = sorted_flips[loc] == nbr
            if hit.any():
                sub[k] = self._data[lo:hi][hit] @ sig_f[order[loc[hit]]]
        return sub

    def update_fields(self, g: np.ndarray, flips: np.ndarray, sig_f: np.ndarray) -> None:
        """In-place rank-``|F|`` field update touching only neighbours."""
        for j, s in zip(flips, sig_f):
            lo, hi = self._indptr[j], self._indptr[j + 1]
            g[self._indices[lo:hi]] -= 2.0 * (self._data[lo:hi] * s)

    def _batch_flip_sub(self, idx: np.ndarray, sig_f: np.ndarray) -> np.ndarray:
        # One global binary search: each replica's flip set is sorted and
        # keyed by r·n + spin, so every gathered neighbour of every flipped
        # spin resolves against a single sorted key array.  O(Σ degree ·
        # log t) time, O(Σ degree) memory; J is never densified.
        R, t = idx.shape
        rows = np.arange(R)[:, None]
        order = np.argsort(idx, axis=1)
        sorted_idx = np.take_along_axis(idx, order, axis=1)
        sorted_sig = np.take_along_axis(sig_f, order, axis=1).ravel()
        keys = (rows * self._n + sorted_idx).ravel()
        counts, nbr, w = self._gather_rows(idx.ravel())
        sub = np.zeros(R * t, dtype=np.float64)
        if nbr.size:
            rep = np.repeat(np.repeat(np.arange(R), t), counts)
            nbr_keys = rep * self._n + nbr
            loc = np.minimum(np.searchsorted(keys, nbr_keys), keys.size - 1)
            hit = keys[loc] == nbr_keys
            if hit.any():
                seg = np.repeat(np.arange(R * t), counts)
                sub = np.bincount(
                    seg[hit],
                    weights=w[hit] * sorted_sig[loc[hit]],
                    minlength=R * t,
                )
        return sub.reshape(R, t)

    def batch_update_fields(
        self, g: np.ndarray, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
    ) -> None:
        """Per-replica rank-``t`` update via a flat scatter-subtract.

        ``rows`` (A,) are accepted replica indices; ``cols`` / ``vals`` are
        ``(A, t)`` (1-D accepted for the legacy single-flip call shape).
        O(Σ degree · log) time and memory — neighbour lists only, no
        ``(n, n)`` or ``(A, t, n)`` intermediate.
        """
        if cols.ndim == 2 and cols.shape[1] == 1:
            cols, vals = cols[:, 0], vals[:, 0]
        if cols.ndim == 1:
            self.rank1_updates(g, rows, cols[None])(0, slice(None), vals)
            return
        t = cols.shape[1]
        counts, nbr, w = self._gather_rows(cols.ravel())
        if nbr.size == 0:
            return
        flat = np.repeat(np.repeat(rows, t), counts) * self._n + nbr
        contrib = w * np.repeat(vals.ravel(), counts)
        # Two flipped spins of one replica may share a neighbour, giving
        # duplicate flat indices that a fancy -= would silently drop:
        # collapse duplicates with a segment sum first.
        # Aliasing audited: g is C-contiguous by the same producer
        # contract as the rank-1 path above.
        uniq, inv = np.unique(flat, return_inverse=True)
        g.reshape(-1)[uniq] -= 2.0 * np.bincount(inv, weights=contrib)  # repro-lint: disable=RPL004

    def rank1_updates(self, g: np.ndarray, rows: np.ndarray, spins: np.ndarray):
        """``update(i, acc, vals)``: rank-1 field updates for a chunk.

        The flipped rows' degree and CSR row end depend only on the drawn
        ``spins`` (``(iterations, slots)``, ``rows`` the replica of each
        slot), so they are looked up here once; ``update`` scatters
        ``−2 w σ_j`` into the neighbours of slots ``acc`` of iteration
        ``i`` in one flat subtract.  A replica may repeat only for spins
        in mutually uncoupled column blocks (the block-stacked union), so
        the flat indices stay unique and fancy ``-=`` is safe.
        """
        fields = g.reshape(-1)
        base = rows * self._n
        degree, row_ends = self._degree[spins], self._indptr[1:][spins]
        indices, data = self._indices, self._data

        def update(i, acc, vals):
            counts = degree[i][acc]
            pos = _csr_positions(counts, row_ends[i][acc])
            flat = base[acc].repeat(counts) + indices[pos]
            # w·(2σ) is exactly 2·w·σ (σ = ±1), without a 2·data copy.
            # Aliasing audited: every producer of g returns C order
            # (batch_matvec and the packed popcount kernel allocate it),
            # so fields is a view of it.
            fields[flat] -= data[pos] * (vals + vals).repeat(counts)  # repro-lint: disable=RPL004

        return update

    def offdiag_abs_values(self) -> np.ndarray:
        """|J_ij| of all stored off-diagonal entries (both triangles)."""
        return self._model.offdiag_abs_values()

    def memory_bytes(self) -> int:
        """Bytes held by the coupling storage."""
        return self._model.memory_bytes()


def coupling_ops(model):
    """Wrap ``model`` in the coupling-operation adapter its ``backend`` names."""
    backend = getattr(model, "backend", None)
    if backend == "packed":
        # Local import: repro.core.packed subclasses SparseCouplingOps,
        # so a module-level import would be circular.
        from repro.core.packed import PackedCouplingOps

        return PackedCouplingOps(model)
    if backend == "sparse":
        return SparseCouplingOps(model)
    if backend == "dense":
        return DenseCouplingOps(model)
    raise TypeError(
        f"expected an IsingModel or SparseIsingModel, got {type(model).__name__}"
    )


def auto_acceptance_scale(model) -> float:
    """Read-out gain making the typical coupling magnitude ~O(1).

    Backend-agnostic version of the seed's ``_auto_scale``: both adapters
    feed the same multiset of nonzero off-diagonal |J_ij| into the median,
    so the gain — and therefore the annealing trajectory — is identical for
    dense and sparse models of the same Hamiltonian.  Chosen so a minimal
    uphill move stays rejected until the fractional factor has decayed well
    below 0.1 (the gain ablation bench sweeps this).
    """
    off = coupling_ops(model).offdiag_abs_values()
    nonzero = off[off > 0]
    if nonzero.size == 0:
        return 1.0
    return 15.0 / float(np.median(nonzero))
