"""k-bit quantization of the coupling matrix for crossbar storage.

The paper maps each matrix element onto a ``1 × k`` sub-array of single-bit
cells ("each cell storing 1 bit under k-bit quantization", Sec. 3.3), and
computes positive- and negative-input contributions separately because the
array only supports non-negative quantities.  :class:`MatrixQuantizer`
implements exactly that storage scheme:

* magnitudes are rounded to ``k``-bit integers against a shared LSB scale,
* signs split the bits into a *positive plane* and a *negative plane*,
* :meth:`QuantizedMatrix.dequantize` reconstructs the stored matrix
  ``Ĵ = lsb · (Σ_b 2^b P_b − Σ_b 2^b N_b)`` with ≤ ½ LSB per-element error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_count, check_square_symmetric


@dataclass(frozen=True)
class QuantizedMatrix:
    """Bit-plane image of a quantized coupling matrix.

    Attributes
    ----------
    positive_planes / negative_planes:
        Boolean arrays of shape ``(k, n, n)``; plane ``b`` holds bit ``b``
        of the magnitude for positively / negatively signed elements.
    lsb:
        Value of one magnitude unit.
    bits:
        ``k``, the quantization width.
    """

    positive_planes: np.ndarray
    negative_planes: np.ndarray
    lsb: float
    bits: int

    @property
    def num_spins(self) -> int:
        """Matrix dimension ``n``."""
        return self.positive_planes.shape[1]

    @property
    def num_columns(self) -> int:
        """Physical crossbar columns per sign plane, ``n · k``."""
        return self.num_spins * self.bits

    def magnitudes(self) -> tuple[np.ndarray, np.ndarray]:
        """Integer magnitude matrices ``(P, N)`` recombined from bit planes.

        Accumulated plane by plane to keep peak memory at one ``(n, n)``
        int32 array even for the 3000-spin instances.
        """
        n = self.num_spins
        pos = np.zeros((n, n), dtype=np.int32)
        neg = np.zeros((n, n), dtype=np.int32)
        for b in range(self.bits):
            weight = np.int32(1 << b)
            pos += self.positive_planes[b].astype(np.int32) * weight
            neg += self.negative_planes[b].astype(np.int32) * weight
        return pos, neg

    def dequantize(self) -> np.ndarray:
        """Reconstruct the stored matrix ``Ĵ``."""
        pos, neg = self.magnitudes()
        return self.lsb * (pos - neg).astype(np.float64)

    def cell_count(self) -> int:
        """Number of programmed '1' cells across both planes."""
        return int(
            np.count_nonzero(self.positive_planes)
            + np.count_nonzero(self.negative_planes)
        )


class MatrixQuantizer:
    """Quantizer producing :class:`QuantizedMatrix` bit-plane images.

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
        """Magnitude levels ``min(rint(|v| / lsb), 2^k − 1)`` of ``values``.

        The one rounding rule of every stored image: the bit planes of
        :meth:`quantize` and the stored entries of a tiled array's image
        (:class:`~repro.arch.tiling.TiledCrossbar`) both come from it.
        """
        levels = np.rint(np.abs(values) / lsb).astype(np.int64)
        return np.minimum(levels, self.max_level)

    def quantize(self, matrix, lsb: float | None = None) -> QuantizedMatrix:
        """Quantize a symmetric matrix into sign-split bit planes.

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
        if lsb is None:
            lsb = self.lsb_for(J)
        else:
            lsb = float(lsb)
            if lsb <= 0:
                raise ValueError(f"lsb must be > 0, got {lsb}")
        levels = self.levels(J, lsb)
        pos_mask = J > 0
        neg_mask = J < 0
        k = self.bits
        n = J.shape[0]
        pos_planes = np.zeros((k, n, n), dtype=bool)
        neg_planes = np.zeros((k, n, n), dtype=bool)
        for b in range(k):
            bit = (levels >> b) & 1
            pos_planes[b] = (bit == 1) & pos_mask
            neg_planes[b] = (bit == 1) & neg_mask
        return QuantizedMatrix(pos_planes, neg_planes, lsb, k)

    def quantization_error(self, matrix) -> float:
        """Largest per-element reconstruction error for this matrix."""
        J = check_square_symmetric(matrix, "matrix")
        return float(np.max(np.abs(self.quantize(J).dequantize() - J)))
