"""Bit-packed replica spin state for the ±1 backend.

:class:`PackedCouplingOps` plugs a
:class:`~repro.ising.packed.PackedIsingModel` into the
:func:`~repro.core.coupling.coupling_ops` contract.  It inherits every
kernel from :class:`~repro.core.coupling.SparseCouplingOps` — the model
legitimately retains its float CSR arrays, and the incremental kernels
touch O(Σ degree) data per iteration, which profiling shows is *not*
where replica time goes — and replaces only ``make_batch_state``: the
batch engine gets a :class:`PackedBatchState` holding the replica spin
tensor as uint64 words.  Its initial fields run the cumulative-popcount
kernel (:meth:`~repro.ising.packed.PackedIsingModel.packed_fields`)
over the packed spin rows, flips become XOR masks and best-state
snapshots copy word rows, 8× less state traffic than the int8 rows of
:class:`~repro.core.coupling.FloatBatchState`.  Best-state row copies
dominate the replica engine at scale: when the float state still held
float64 rows, they took ~6.5 of 8.4 seconds per 500 iterations at
n=100k, R=100.  With int8 rows the float engine runs that protocol ~8×
faster, and the packed state keeps a ~2× lead
(``benchmarks/bench_batch_multiflip.py``).

The popcount fields are exactly the floats the sparse kernels compute
(every value is a small-integer multiple of the shared dyadic magnitude
``c`` — see :mod:`repro.ising.packed`), so fixed-seed trajectories stay
bit-identical to the sparse backend.
"""

from __future__ import annotations

import numpy as np

from repro.core.coupling import SparseCouplingOps
from repro.ising.packed import PackedIsingModel, pack_spin_rows, unpack_spin_rows

_U64_ONE = np.uint64(1)


class PackedBatchState:
    """Replica spin state as a ``(R, ceil(n/64))`` uint64 word tensor.

    Implements the batch engine's spin-state protocol (see
    :class:`~repro.core.coupling.FloatBatchState` for the float twin):
    ``fields`` is the cached ``(R, n)`` float local-field tensor,
    ``locate`` gives a chunk's proposed spins their word addresses and
    bit masks once (its ``gather`` reads them as ±1.0 float64, the exact
    values the float state would hand over, and its ``flip`` toggles
    them with XOR masks), ``flip`` toggles any flip sets,
    ``record_best`` snapshots improved replicas by copying word rows (8×
    less traffic than the float twin's int8 rows), and the readout
    methods unpack to the engine's int8 contract.
    """

    def __init__(self, model: PackedIsingModel, sigma: np.ndarray) -> None:
        self._n = int(sigma.shape[1])
        self._num_words = model.num_spin_words
        self._words = pack_spin_rows(sigma)
        replicas = sigma.shape[0]
        fields = np.empty((replicas, self._n), dtype=np.float64)
        for r in range(replicas):
            model.packed_fields(self._words[r], fields[r])
        #: Cached ``(R, n)`` local fields ``g_r = J σ_r`` (C-contiguous;
        #: the engine hands this to the inherited float field-update
        #: kernels, whose values are exact multiples of the dyadic scale).
        self.fields = fields
        self._best = self._words.copy()

    def locate(self, addr: np.ndarray):
        """``(gather, flip)`` of the spins at ``addr = row·n + spin``.

        As :meth:`~repro.core.coupling.FloatBatchState.locate`, but
        ``flip`` is a plain XOR, which keeps one write per word: every
        flipped spin must sit in a word of its own.  A t=1 row's flips
        do (one spin per replica, or per lane of a union whose blocks
        are padded to whole words); larger flip sets go through
        :meth:`flip`.
        """
        rows, spins = np.divmod(addr, self._n)
        word = rows * self._num_words + (spins >> 6)
        mask = _U64_ONE << (spins & 63).astype(np.uint64)
        words = self._words.reshape(-1)

        def gather(i):
            return np.where(words[word[i]] & mask[i], 1.0, -1.0)

        def flip(i, acc, vals):
            # Aliasing audited: _words is produced by pack_spin_rows
            # (np.zeros + in-place |=), C-contiguous by construction, so
            # words is a view of it.
            words[word[i][acc]] ^= mask[i][acc]  # repro-lint: disable=RPL004

        return gather, flip

    def gather(self, rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Current values of spins ``idx[r]`` per replica, as ±1.0 float."""
        gather, _ = self.locate((rows * self._n + idx)[None])
        return gather(0)

    def flip(self, acc: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        """Toggle spins ``cols[a]`` of accepted replicas ``acc`` (XOR).

        ``vals`` (the pre-flip values, consumed by the float twin's
        scatter) is unused: XOR toggles a spin bit regardless of its
        current value, which is exactly the flip semantics.
        """
        del vals
        flat = (acc[:, None] * self._num_words + (cols >> 6)).ravel()
        masks = (_U64_ONE << (cols & 63).astype(np.uint64)).ravel()
        # XOR accumulates duplicate indices correctly under ufunc.at
        # (unlike fancy assignment), so two flipped spins landing in the
        # same word both toggle.  Aliasing audited: _words is produced by
        # pack_spin_rows (np.zeros + in-place |=), which is C-contiguous
        # by construction, so reshape(-1) is a view of the state tensor.
        np.bitwise_xor.at(self._words.reshape(-1), flat, masks)  # repro-lint: disable=RPL004

    def record_best(self, improved: np.ndarray) -> None:
        """Snapshot the current state of improved replicas (word rows)."""
        self._best[improved] = self._words[improved]

    def record_best_blocks(
        self, rows: np.ndarray, starts: np.ndarray, stops: np.ndarray
    ) -> None:
        """Snapshot column ranges ``[starts[a], stops[a])`` of ``rows[a]``.

        Word-granular twin of
        :meth:`~repro.core.coupling.FloatBatchState.record_best_blocks`:
        the covered word range ``[starts >> 6, ceil(stops / 64))`` is
        copied, so callers must hand in ranges whose word cover does not
        cross into a neighbouring block — the block-stacked union pads
        every block to a 64-spin boundary for exactly this reason (the
        spill-over columns are the block's own padding spins).
        """
        word_lo = (starts >> 6).astype(np.intp)
        word_hi = ((stops + 63) >> 6).astype(np.intp)
        widths = word_hi - word_lo
        total = int(widths.sum())
        if total == 0:
            return
        offsets = np.concatenate(([0], np.cumsum(widths)[:-1]))
        flat = (
            np.repeat(rows * self._num_words + word_lo - offsets, widths)
            + np.arange(total)
        )
        # Aliasing audited: _words comes from pack_spin_rows (np.zeros +
        # in-place |=, C-contiguous by construction) and _best is its copy.
        self._best.reshape(-1)[flat] = self._words.reshape(-1)[flat]  # repro-lint: disable=RPL004

    def final_sigmas(self) -> np.ndarray:
        """Unpack the current replica spins to ``(R, n)`` int8."""
        return unpack_spin_rows(self._words, self._n)

    def best_sigmas(self) -> np.ndarray:
        """Unpack the per-replica best snapshots to ``(R, n)`` int8."""
        return unpack_spin_rows(self._best, self._n)

    def memory_bytes(self) -> int:
        """Bytes held by the packed spin tensors and the field cache."""
        return int(self._words.nbytes + self._best.nbytes + self.fields.nbytes)


class PackedCouplingOps(SparseCouplingOps):
    """Coupling operations over the bit-packed sign-only backend.

    Every kernel (fields, cross terms, field updates, ``matvec``) is
    inherited from :class:`~repro.core.coupling.SparseCouplingOps` and
    stays exact on the retained float CSR arrays; only the replica spin
    state is packed.
    """

    kind = "packed"

    def make_batch_state(self, sigma: np.ndarray) -> PackedBatchState:
        """Bit-packed replica spin state for the batch engine."""
        return PackedBatchState(self._model, sigma)
