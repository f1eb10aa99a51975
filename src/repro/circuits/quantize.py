"""k-bit quantization of the coupling matrix for crossbar storage.

The paper maps each matrix element onto a ``1 × k`` sub-array of single-bit
cells ("each cell storing 1 bit under k-bit quantization", Sec. 3.3), and
computes positive- and negative-input contributions separately because the
array only supports non-negative quantities.  :class:`MatrixQuantizer`
implements that storage scheme with one rule, :meth:`MatrixQuantizer.levels`:

* the stored image is *signed levels*: each element's sign times its
  ``k``-bit magnitude level, rounded against a shared LSB scale; level 0
  stores nothing.  Both arrays store it — the monolithic crossbar as a
  :class:`QuantizedMatrix`, the tiled grid as CSR rows;
* :meth:`QuantizedMatrix.dequantize` reconstructs the stored matrix
  ``Ĵ = lsb · L`` with ≤ ½ LSB per-element error;
* the *positive* and *negative* bit planes, the cells the array holds, are
  derived from the levels' signs and bits, and only when something reads
  cells (the device backend, tests); the '1'-cell count is a popcount of
  the levels (:func:`popcount`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.utils.bits import popcount_bytes
from repro.utils.validation import check_count, check_positive, check_square_symmetric


def popcount(levels) -> int:
    """Programmed '1' cells of signed ``levels``: the byte popcount of each ``|L|``."""
    magnitude = np.ascontiguousarray(np.abs(levels))
    return int(popcount_bytes(magnitude.view(np.uint8)).sum(dtype=np.int64))


@dataclass(frozen=True)
class QuantizedMatrix:
    """Signed-level image of a quantized coupling matrix.

    Attributes
    ----------
    levels:
        ``(n, n)`` signed magnitude levels, each in ``[−(2^k − 1), 2^k − 1]``,
        in the narrowest signed integer type that holds them (int8 at the
        paper's ``k = 4``); 0 stores nothing.
    lsb:
        Value of one magnitude unit.
    bits:
        ``k``, the quantization width.
    """

    levels: np.ndarray
    lsb: float
    bits: int

    @property
    def num_spins(self) -> int:
        """Matrix dimension ``n``."""
        return self.levels.shape[0]

    @property
    def num_columns(self) -> int:
        """Physical crossbar columns per sign plane, ``n · k``."""
        return self.num_spins * self.bits

    @cached_property
    def positive_planes(self) -> np.ndarray:
        """``(k, n, n)`` bools: plane ``b`` holds bit ``b`` of each positive level."""
        return self._planes(self.levels > 0)

    @cached_property
    def negative_planes(self) -> np.ndarray:
        """``(k, n, n)`` bools: plane ``b`` holds bit ``b`` of each negative level."""
        return self._planes(self.levels < 0)

    def _planes(self, signed: np.ndarray) -> np.ndarray:
        shifts = np.arange(self.bits, dtype=self.levels.dtype).reshape(-1, 1, 1)
        return ((np.abs(self.levels) >> shifts) & 1).astype(bool) & signed

    def dequantize(self) -> np.ndarray:
        """Reconstruct the stored matrix ``Ĵ = lsb · L``."""
        return self.lsb * self.levels

    def cell_count(self) -> int:
        """Number of programmed '1' cells across both planes."""
        return popcount(self.levels)


class MatrixQuantizer:
    """Quantizer producing :class:`QuantizedMatrix` signed-level images.

    Parameters
    ----------
    bits:
        ``k``, bits per element magnitude (paper default: 4).
    """

    def __init__(self, bits: int = 4) -> None:
        # check_count rejects bool (True would quantize to 1 bit) and
        # non-integer floats (2.7 used to silently truncate to 2 bits).
        self.bits = check_count("bits", bits)
        if self.bits > 16:
            raise ValueError(f"bits must be in [1, 16], got {self.bits}")

    @property
    def max_level(self) -> int:
        """Largest representable magnitude level, ``2^k − 1``."""
        return (1 << self.bits) - 1

    def lsb_for_peak(self, peak: float) -> float:
        """LSB that maps a largest |element| of ``peak`` onto the top level."""
        peak = float(peak)
        if peak < 0:
            raise ValueError(f"peak must be >= 0, got {peak}")
        if peak == 0.0:
            return 1.0
        return peak / self.max_level

    def lsb_for(self, matrix: np.ndarray) -> float:
        """LSB that maps the largest |element| onto the top level."""
        return self.lsb_for_peak(float(np.max(np.abs(matrix))) if matrix.size else 0.0)

    def levels(self, values, lsb: float) -> np.ndarray:
        """Signed levels ``sign(v) · min(rint(|v| / lsb), 2^k − 1)`` of ``values``.

        The one rule that turns a coupling into what an array stores: the
        image of :meth:`quantize` and the stored entries of a tiled array
        (:class:`~repro.arch.tiling.TiledCrossbar`) both come from it.
        Returned in the narrowest signed integer type that holds
        ``2^k − 1``.
        """
        values = np.asarray(values, dtype=np.float64)
        magnitude = np.abs(values)
        magnitude /= lsb
        np.rint(magnitude, out=magnitude)
        np.minimum(magnitude, self.max_level, out=magnitude)
        np.copysign(magnitude, values, out=magnitude)
        return magnitude.astype(np.min_scalar_type(-self.max_level))

    def quantize(self, matrix, lsb: float | None = None) -> QuantizedMatrix:
        """Quantize a symmetric matrix into its signed-level image.

        ``lsb`` overrides the per-matrix scale — tiled arrays pass the
        whole-matrix LSB so every tile shares one magnitude grid and the
        assembled image matches a monolithic crossbar exactly.
        """
        J = check_square_symmetric(matrix, "matrix")
        return self._quantize_validated(J, lsb)

    def quantize_general(self, matrix, lsb: float | None = None) -> QuantizedMatrix:
        """Quantize a square (not necessarily symmetric) matrix.

        Crossbar *tiles* store off-diagonal blocks of a symmetric matrix,
        which are themselves arbitrary; the array has no symmetry
        requirement, only the whole-model energy algebra does.
        """
        J = np.asarray(matrix, dtype=np.float64)
        if J.ndim != 2 or J.shape[0] != J.shape[1]:
            raise ValueError(f"matrix must be square, got shape {J.shape}")
        return self._quantize_validated(J, lsb)

    def _quantize_validated(self, J: np.ndarray, lsb: float | None = None) -> QuantizedMatrix:
        lsb = self.lsb_for(J) if lsb is None else check_positive("lsb", lsb)
        return QuantizedMatrix(self.levels(J, lsb), lsb, self.bits)

    def quantization_error(self, matrix) -> float:
        """Largest per-element reconstruction error for this matrix."""
        J = check_square_symmetric(matrix, "matrix")
        return float(np.max(np.abs(self.quantize(J).dequantize() - J)))
