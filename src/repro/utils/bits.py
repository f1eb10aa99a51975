"""Byte popcount: ``np.bitwise_count`` on numpy ≥ 2, a byte lookup table before."""

from __future__ import annotations

import numpy as np

_POPCOUNT_LUT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def popcount_lut(a: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint8 array (pure-numpy byte LUT)."""
    return _POPCOUNT_LUT[a]


#: Per-element popcount of a uint8 array (the LUT where numpy lacks the ufunc).
popcount_bytes = getattr(np, "bitwise_count", popcount_lut)
