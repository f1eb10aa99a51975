"""Bit-packed sign-only coupling backend: the FeFET crossbar's image.

Every bundled G-set and every :mod:`repro.ising.generators` instance has
±1 edge weights — exactly the sign-only coupling images the paper's
FeFET crossbar programs (one polarity bit per cell) — yet the sparse
hot-path kernels move an 8-byte float per stored edge and an 8-byte
float per replica spin.  :class:`PackedIsingModel` packs both down to
single bits:

* the **neighbour sign mask** — one bit per stored CSR slot
  (``bit = 1`` iff the coupling is negative), held in uint64 words
  (:attr:`PackedIsingModel.sign_words`, 64 neighbour signs per word);
* the **replica spin tensor** — one bit per spin per replica
  (``bit = 1`` iff the spin is +1), packed by :func:`pack_spin_rows`
  and consumed by the popcount field kernels and the XOR flip scatters
  in :mod:`repro.core.packed`.

Eligibility and exactness
-------------------------
A model is packed-eligible when its coupling matrix has a zero diagonal
and every stored off-diagonal entry shares one magnitude ``c`` whose
floating-point numerator is small (``c = num / 2**k`` with
``num <= 2**24``; :func:`dyadic_uniform_scale`).  That covers ±1 weights
and the Max-Cut embedding ``J = W/4`` (``c = 1/4``) alike.  Under that
restriction every local field is ``c · (2·p − degree)`` with ``p`` a
popcount — a small-integer multiple of ``c`` that is exactly
representable, as is every partial sum of the sparse backend's
``bincount`` kernel.  Both backends therefore compute the identical
floats and fixed-seed trajectories are **bit-identical** (the same
transparency contract as the dense/sparse pair, ``permutation=`` and
``reorder=`` rows included; pinned by ``tests/test_packed.py``).

The float CSR arrays are retained (they are what the model-level
contract — ``energy``, tiling, quantization — consumes and what keeps
the O(Σ degree) cross-term/field-update kernels exact), so packing is a
*traffic* optimisation for the replica hot loop, not a storage cut: the
per-iteration state the batch engine touches shrinks 64×.

The popcounts run through :func:`repro.utils.bits.popcount_bytes`
(``np.bitwise_count``, or a byte lookup table on numpy < 2).
"""

from __future__ import annotations

import numpy as np

from repro.ising.sparse import SparseIsingModel
from repro.utils.bits import popcount_bytes

#: Largest odd numerator of the shared coupling magnitude ``c`` for
#: packed eligibility: ``c = num / 2**k`` with ``num <= 2**24`` keeps
#: every ``c · integer`` product of the field kernels exact in float64
#: (``num · |2p − degree| < 2**53`` for any realistic degree).
PACKED_MAX_NUMERATOR = 1 << 24

_U64_ONE = np.uint64(1)
_U64_63 = np.uint64(63)
_U8_LOW_MASKS = np.array(
    [0x00, 0x01, 0x03, 0x07, 0x0F, 0x1F, 0x3F, 0x7F], dtype=np.uint8
)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a 0/1 array of shape ``(..., n)`` into uint64 words.

    Bit ``j`` of the stream lands in word ``j >> 6`` at position
    ``j & 63`` regardless of platform endianness (the bytes from
    ``np.packbits(bitorder="little")`` are recombined with explicit
    shifts, never a dtype view).
    """
    arr = np.asarray(bits)
    n = arr.shape[-1]
    lead = arr.shape[:-1]
    num_words = max(1, -(-n // 64))
    packed8 = np.packbits(arr.astype(bool), axis=-1, bitorder="little")
    padded = np.zeros(lead + (num_words * 8,), dtype=np.uint8)
    padded[..., : packed8.shape[-1]] = packed8
    words = np.zeros(lead + (num_words,), dtype=np.uint64)
    for k in range(8):
        words |= padded[..., k::8].astype(np.uint64) << np.uint64(8 * k)
    return words


def words_to_bytes(words: np.ndarray) -> np.ndarray:
    """Explode uint64 words into their 8 little-end-first bytes each."""
    out = np.empty(words.shape + (8,), dtype=np.uint8)
    for k in range(8):
        out[..., k] = (
            (words >> np.uint64(8 * k)) & np.uint64(0xFF)
        ).astype(np.uint8)
    return out.reshape(words.shape[:-1] + (words.shape[-1] * 8,))


def pack_spin_rows(sigma: np.ndarray) -> np.ndarray:
    """Pack ±1 spin rows ``(R, n)`` into a ``(R, ceil(n/64))`` word tensor.

    Bit ``j & 63`` of word ``j >> 6`` is 1 iff spin ``j`` is +1.  The
    result is C-contiguous (the flip scatter in
    :class:`repro.core.packed.PackedBatchState` aliases it through
    ``reshape(-1)``).
    """
    s = np.asarray(sigma)
    if s.ndim != 2:
        raise ValueError(f"expected a (R, n) spin tensor, got shape {s.shape}")
    return pack_bits(s > 0)


def unpack_spin_rows(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_spin_rows`: ``(R, W)`` words → ``(R, n)`` int8."""
    bits = np.unpackbits(
        words_to_bytes(words), axis=-1, count=n, bitorder="little"
    )
    return (2 * bits.astype(np.int8) - 1).astype(np.int8, copy=False)


def dyadic_uniform_scale(values) -> float | None:
    """The shared magnitude ``c`` if ``values`` are packed-eligible.

    Returns ``c`` when every entry is ``±c`` for one ``c > 0`` whose
    float numerator is at most :data:`PACKED_MAX_NUMERATOR` (so all
    ``c · integer`` kernel products are exact), ``1.0`` for an empty
    array, and ``None`` otherwise.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return 1.0
    c = float(abs(v.flat[0]))
    if c == 0.0 or not np.all(np.abs(v) == c):
        return None
    numerator, _ = c.as_integer_ratio()
    if numerator > PACKED_MAX_NUMERATOR:
        return None
    return c


def packed_scale(model) -> float | None:
    """Packed eligibility of a model: the shared |J| magnitude, or ``None``.

    Either coupling backend is accepted; eligibility requires a zero
    coupling diagonal and :func:`dyadic_uniform_scale` off-diagonal
    values.  External fields do not matter — the packed kernels only
    replace coupling traffic and ``h`` stays a dense float vector.
    """
    if np.any(model.coupling_diagonal()):
        return None
    if model.backend == "dense":
        return dyadic_uniform_scale(model.J[model.J != 0.0])
    return dyadic_uniform_scale(model.csr_arrays()[2])


class PackedIsingModel(SparseIsingModel):
    """A :class:`SparseIsingModel` carrying bit-packed sign-only kernels.

    The full CSR contract is inherited unchanged (energies, tiling,
    quantization, ancilla folds all keep working on the float arrays);
    on top of it the constructor validates packed eligibility and
    precomputes the bit-level structures the
    :class:`repro.core.packed.PackedBatchState` kernels traverse:

    * :attr:`sign_words` / :attr:`sign_bytes` — the per-slot neighbour
      sign mask, bit-packed in CSR slot order;
    * per-slot word/shift addresses of each neighbour's spin bit;
    * per-row degrees, for ``g_i = c · (2·p_i − degree_i)``.

    Use :meth:`from_sparse` (or ``repro.ising.as_backend(model,
    "packed")``) to convert an existing model; ineligible couplings
    raise ``ValueError`` with the offending property named.
    """

    backend = "packed"

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        fields: np.ndarray | None = None,
        offset: float = 0.0,
        name: str = "packed-ising",
    ) -> None:
        super().__init__(indptr, indices, data, fields, offset, name)
        if np.any(self._diag):
            raise ValueError(
                "packed backend requires a zero coupling diagonal "
                "(self-couplings have no sign-only image); use the sparse "
                "backend for this model"
            )
        scale = dyadic_uniform_scale(self._data)
        if scale is None:
            raise ValueError(
                "packed backend requires all off-diagonal couplings to share "
                "one small dyadic magnitude ±c (e.g. ±1 edge weights, or the "
                "Max-Cut embedding's ±1/4); use the sparse backend for "
                "general float couplings"
            )
        self._scale = float(scale)
        # Per-CSR-slot bit addresses of each neighbour's spin bit, and the
        # bit-packed sign mask aligned with np.packbits' byte stream.
        self._slot_word = (self._indices >> 6).astype(np.intp)
        self._slot_shift = (self._indices & 63).astype(np.uint64)
        neg = self._data < 0.0
        self._sign_words = pack_bits(neg[None, :])[0] if neg.size else (
            np.zeros(1, dtype=np.uint64)
        )
        num_bytes = max(1, -(-int(neg.size) // 8))
        self._sign_bytes = words_to_bytes(self._sign_words)[:num_bytes]
        self._degrees = np.diff(self._indptr).astype(np.int64)
        self._num_words = max(1, -(-self._n // 64))

    # ------------------------------------------------------------------
    # Packed structure accessors
    # ------------------------------------------------------------------
    @property
    def scale(self) -> float:
        """The shared coupling magnitude ``c`` (all entries are ``±c``)."""
        return self._scale

    @property
    def sign_words(self) -> np.ndarray:
        """Neighbour sign mask, 64 CSR slots per uint64 word (do not mutate)."""
        return self._sign_words

    @property
    def num_spin_words(self) -> int:
        """uint64 words per packed spin row, ``ceil(n / 64)``."""
        return self._num_words

    def _digest_parts(self) -> tuple[tuple[str, ...], tuple[np.ndarray, ...]]:
        # The ±c entries are fully determined by the scale plus the sign
        # words, so the float64 data array (64× larger) is not hashed.
        return (repr(self._scale),), (self._indptr, self._indices, self._sign_words)

    def packed_fields(self, spin_words: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Local fields ``g = J σ`` of one packed spin row, via popcount.

        ``spin_words`` is one row of :func:`pack_spin_rows`; ``out`` is a
        float64 ``(n,)`` buffer written in place.  The kernel gathers each
        neighbour's spin bit, XORs in the sign mask (product bit
        ``p = 1`` iff the slot contributes ``+c``), popcounts the packed
        product stream cumulatively, and differences the cumulative
        counts at the ``indptr`` boundaries:

        ``g_i = c · (2·p_i − degree_i)``

        — exactly the value (and the exact float) of the sparse
        ``bincount`` kernel, since both are small-integer multiples of
        the dyadic ``c``.
        """
        nnz = self._indices.shape[0]
        if nnz == 0:
            out[:] = 0.0
            return out
        spin_bits = (
            (spin_words[self._slot_word] >> self._slot_shift) & _U64_ONE
        ).astype(np.uint8)
        product = np.packbits(spin_bits, bitorder="little")
        product ^= self._sign_bytes
        # Cumulative popcount with a zero sentinel byte so the boundary
        # lookup at position nnz stays in range when nnz % 8 == 0.
        cumulative = np.zeros(product.shape[0] + 1, dtype=np.int64)
        np.cumsum(popcount_bytes(product), dtype=np.int64, out=cumulative[1:])
        padded = np.concatenate([product, np.zeros(1, dtype=np.uint8)])
        byte_index = self._indptr >> 3
        partial = popcount_bytes(
            padded[byte_index] & _U8_LOW_MASKS[self._indptr & 7]
        )
        boundary = cumulative[byte_index] + partial
        positives = boundary[1:] - boundary[:-1]
        np.multiply(
            (2 * positives - self._degrees).astype(np.float64),
            self._scale,
            out=out,
        )
        return out

    # ------------------------------------------------------------------
    # Constructors / transformations (stay packed where eligibility holds)
    # ------------------------------------------------------------------
    @classmethod
    def from_sparse(cls, model: SparseIsingModel) -> "PackedIsingModel":
        """Wrap an eligible :class:`SparseIsingModel` (CSR arrays shared)."""
        indptr, indices, data = model.csr_arrays()
        return cls(
            indptr,
            indices,
            data,
            model.h.copy() if model.has_fields else None,
            offset=model.offset,
            name=model.name,
        )

    def to_sparse(self) -> SparseIsingModel:
        """Downgrade to a plain CSR model (arrays shared, kernels float)."""
        return SparseIsingModel(
            self._indptr,
            self._indices,
            self._data,
            self._h.copy() if self.has_fields else None,
            offset=self.offset,
            name=self.name,
        )

    def permuted(self, perm) -> "PackedIsingModel":
        """Relabel spins and repack — permutations preserve eligibility."""
        return PackedIsingModel.from_sparse(super().permuted(perm))

    def scaled(self, factor: float) -> SparseIsingModel:
        """Scale ``J``/``h``/``offset``; repack when still eligible.

        Scaling by zero (or by a factor that pushes the magnitude's
        numerator past the exactness bound) loses eligibility; the plain
        sparse model is returned in that case.
        """
        base = super().scaled(factor)
        if dyadic_uniform_scale(base.csr_arrays()[2]) is None:
            return base
        return PackedIsingModel.from_sparse(base)

    def memory_bytes(self) -> int:
        """CSR storage plus the bit-packed kernel structures."""
        return int(
            super().memory_bytes()
            + self._slot_word.nbytes
            + self._slot_shift.nbytes
            + self._sign_words.nbytes
            + self._sign_bytes.nbytes
            + self._degrees.nbytes
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PackedIsingModel(n={self._n}, pairs={self.num_interactions}, "
            f"scale={self._scale:g}, name={self.name!r})"
        )
