"""Flip-set proposal strategies shared by the annealers.

Two hardware-honest ways to "select t elements" (Algorithm 1, line 3):

* ``"scan"`` — walk a fresh random permutation each sweep and take the next
  ``t`` addresses per iteration.  In hardware this is an address counter
  over a shuffled index table: every spin is proposed exactly once per
  sweep, which matters a lot at the paper's tight iteration budgets
  (700 iterations for 800 spins is less than one sweep).
* ``"random"`` — draw ``t`` distinct uniform indices per iteration (the
  textbook Metropolis move; an LFSR in hardware).

When ``n % t != 0`` a flip set straddles two sweeps: it takes the last
``n % t``-ish addresses of one permutation and the first few of the next.
The straddle is resolved without breaking either contract — the next
permutation's head is swapped free of the carried tail (:func:`_join_sweep`)
so every flip set stays duplicate-free *and* every aligned ``n``-window of
the address stream still visits each spin exactly once.  (The previous
implementation reshuffled early and silently dropped the tail, so tail
spins were never proposed in that sweep.)
"""

from __future__ import annotations

import numpy as np

PROPOSAL_MODES = ("scan", "random")


def _join_sweep(perm: np.ndarray, tail: np.ndarray, need: int) -> np.ndarray:
    """Make ``concatenate([tail, perm])`` straddle-safe in place.

    ``tail`` holds the carried remainder of the previous sweep and ``need``
    more indices from ``perm`` complete the straddling flip set.  Any of
    ``perm``'s first ``need`` entries that collide with ``tail`` are swapped
    with later non-colliding entries — always possible because ``perm``
    holds ``n - len(tail)`` non-tail values and ``need <= t - len(tail)``
    with ``t <= n``.  ``perm`` stays a permutation, so the per-sweep
    visit-once contract is untouched.
    """
    if tail.size == 0 or need <= 0:
        return perm
    # Both sides hold fewer than t values, so a set beats array calls.
    carried = set(tail.tolist())
    bad = [i for i, x in enumerate(perm[:need].tolist()) if x in carried]
    if bad:
        # perm[need:] holds fewer than len(tail) carried values, so its
        # first len(tail) entries hold enough free ones (need + len(tail)
        # <= t <= n, so the window is full).
        window = perm[need : need + tail.size].tolist()
        free = [need + i for i, x in enumerate(window) if x not in carried]
        swap = free[: len(bad)]
        perm[bad], perm[swap] = perm[swap], perm[bad]
    return perm


def scan_order(
    n: int, flips: int, length: int, rng: np.random.Generator
) -> np.ndarray:
    """A straddle-safe scan stream of ``length`` spin addresses.

    Concatenates fresh per-sweep permutations of ``n`` with
    :func:`_join_sweep` applied at every sweep boundary, so consecutive
    ``flips``-sized chunks are always duplicate-free and every aligned
    ``n``-window visits each spin exactly once.  The batch engine consumes
    this to build its per-replica proposal tensors; for ``flips == 1`` the
    RNG stream is identical to drawing the sweeps one by one.
    """
    sweeps = -(-length // n) + 1
    parts = [rng.permutation(n)]
    pos = n
    for _ in range(sweeps - 1):
        perm = rng.permutation(n)
        off = pos % flips
        if off:
            _join_sweep(perm, parts[-1][n - off :], flips - off)
        parts.append(perm)
        pos += n
    return np.concatenate(parts)[:length].astype(np.intp, copy=False)


def random_flip_sets(
    rng: np.random.Generator, n: int, count: int, flips: int
) -> np.ndarray:
    """``(count, flips)`` uniform flip sets with distinct indices per row.

    Vectorised rejection sampling: draw all rows at once, redraw only the
    rows containing a duplicate.  For the operating regime ``t << n`` the
    expected number of redraw rounds is O(1); a per-row
    ``choice(..., replace=False)`` fallback guarantees termination when
    ``t`` approaches ``n`` (where almost every uniform draw collides).
    """
    out = rng.integers(n, size=(count, flips))
    if flips == 1:
        return out.astype(np.intp, copy=False)
    for _ in range(32):
        srt = np.sort(out, axis=1)
        bad = np.flatnonzero((np.diff(srt, axis=1) == 0).any(axis=1))
        if bad.size == 0:
            return out.astype(np.intp, copy=False)
        out[bad] = rng.integers(n, size=(bad.size, flips))
    srt = np.sort(out, axis=1)
    bad = np.flatnonzero((np.diff(srt, axis=1) == 0).any(axis=1))
    for row in bad:
        out[row] = rng.choice(n, size=flips, replace=False)
    return out.astype(np.intp, copy=False)


class FlipSelector:
    """Stateful generator of flip-index sets.

    Parameters
    ----------
    n:
        Number of spins.
    flips:
        ``t``, the number of indices per proposal.
    mode:
        ``"scan"`` or ``"random"`` (see module docstring).
    rng:
        Source of randomness (permutation shuffling / uniform draws).
    index_map:
        Optional length-``n`` array applied to every drawn index before it
        is returned.  Used by reordered solves: indices are drawn in the
        caller's original spin space (so the RNG stream is layout-
        independent) and mapped into the internal ordering here.
    """

    def __init__(
        self,
        n: int,
        flips: int,
        mode: str,
        rng: np.random.Generator,
        index_map: np.ndarray | None = None,
    ) -> None:
        if mode not in PROPOSAL_MODES:
            raise ValueError(f"proposal mode must be one of {PROPOSAL_MODES}")
        if not 1 <= flips <= n:
            raise ValueError(f"flips must be in [1, {n}]")
        self.n = n
        self.flips = flips
        self.mode = mode
        self._rng = rng
        if index_map is not None:
            index_map = np.asarray(index_map, dtype=np.intp)
            if index_map.shape != (self.n,):
                raise ValueError(f"index_map must have shape ({self.n},)")
        self.index_map = index_map
        self._order: np.ndarray | None = None
        self._ptr = 0

    def next(self) -> np.ndarray:
        """Return the next flip-index set (length ``flips``, unique)."""
        if self.mode == "random":
            if self.flips == 1:
                out = np.array([self._rng.integers(self.n)], dtype=np.intp)
            else:
                out = self._rng.choice(
                    self.n, size=self.flips, replace=False
                ).astype(np.intp)
        else:
            # scan mode: consume per-sweep permutations, carrying any
            # remainder into the next sweep so no spin is ever skipped.
            if self._order is None:
                self._order = self._rng.permutation(self.n)
                self._ptr = 0
            if self._ptr + self.flips > self._order.shape[0]:
                tail = self._order[self._ptr :]
                perm = self._rng.permutation(self.n)
                _join_sweep(perm, tail, self.flips - tail.shape[0])
                self._order = np.concatenate([tail, perm])
                self._ptr = 0
            out = self._order[self._ptr : self._ptr + self.flips].astype(np.intp)
            self._ptr += self.flips
        if self.index_map is not None:
            out = self.index_map[out]
        return out
