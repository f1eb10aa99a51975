"""Integer-key sets by a sort, never a hash: a bare ``np.unique`` hashes on numpy 2."""

from __future__ import annotations

import numpy as np


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, ascending (what ``np.unique`` returns)."""
    s = np.sort(keys, axis=None)
    return s[np.r_[True, s[1:] != s[:-1]]] if s.size else s


def first_repeat(keys) -> tuple[int, int] | None:
    """``(i, j)``: the first position ``j`` whose key appeared before, at ``i``.

    ``None`` when all keys differ; only a repeat pays for the argsort.
    """
    keys = np.asarray(keys).ravel()
    s = np.sort(keys)
    if not (s[1:] == s[:-1]).any():
        return None
    order = np.argsort(keys, kind="stable")
    j = int(order[1:][keys[order[1:]] == keys[order[:-1]]].min())
    return int(np.argmax(keys == keys[j])), j
