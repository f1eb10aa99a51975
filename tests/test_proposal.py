"""Tests for the flip-set proposal layer (`repro.core.proposal`).

The load-bearing contract is scan mode's "every spin proposed exactly once
per sweep".  The original implementation reshuffled early whenever
``n % flips != 0`` and silently dropped the permutation tail, so tail spins
were skipped in that sweep; these tests pin the fixed carry-over semantics
by counting visit multiplicity per aligned sweep window.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import proposal
from repro.core.proposal import FlipSelector, random_flip_sets, scan_order
from repro.utils.rng import ensure_rng


def collect(selector: FlipSelector, draws: int) -> np.ndarray:
    """Concatenate ``draws`` flip sets into one flat address stream."""
    return np.concatenate([selector.next() for _ in range(draws)])


class TestScanSweepContract:
    @pytest.mark.parametrize("n,flips", [(10, 3), (10, 7), (12, 5), (7, 2), (9, 4)])
    def test_every_spin_once_per_sweep_when_t_misdivides(self, n, flips):
        """The regression: ``n % flips != 0`` must not drop the tail.

        Over any aligned window of ``n`` consecutive proposed addresses,
        every spin appears exactly once.  The old code visited tail spins
        zero times in their sweep (and the head of the reshuffle twice in
        the window).
        """
        assert n % flips != 0  # the buggy regime
        rng = ensure_rng(5)
        sel = FlipSelector(n, flips, "scan", rng)
        sweeps = 12
        draws = -(-sweeps * n // flips)
        stream = collect(sel, draws)[: sweeps * n]
        visits = stream.reshape(sweeps, n)
        for window in visits:
            assert np.array_equal(np.sort(window), np.arange(n))

    @pytest.mark.parametrize("n,flips", [(10, 3), (9, 4), (6, 5), (5, 5)])
    def test_flip_sets_stay_duplicate_free(self, n, flips):
        rng = ensure_rng(11)
        sel = FlipSelector(n, flips, "scan", rng)
        for _ in range(200):
            out = sel.next()
            assert out.shape == (flips,)
            assert np.unique(out).size == flips

    def test_exact_division_is_a_clean_sweep_partition(self):
        """``n % flips == 0``: each sweep is a disjoint partition as before."""
        n, flips = 12, 4
        rng = ensure_rng(3)
        sel = FlipSelector(n, flips, "scan", rng)
        for _ in range(8):
            sweep = np.concatenate([sel.next() for _ in range(n // flips)])
            assert np.array_equal(np.sort(sweep), np.arange(n))

    def test_single_flip_rng_stream_unchanged(self):
        """t = 1 consumes one permutation per sweep, exactly as the seed."""
        n = 9
        sel = FlipSelector(n, 1, "scan", ensure_rng(21))
        rng = ensure_rng(21)
        expected = np.concatenate([rng.permutation(n) for _ in range(4)])
        stream = collect(sel, 4 * n)
        assert np.array_equal(stream, expected)

    def test_index_map_applies_after_carry(self):
        n, flips = 10, 3
        index_map = np.roll(np.arange(n), 4)
        a = FlipSelector(n, flips, "scan", ensure_rng(9))
        b = FlipSelector(
            n, flips, "scan", ensure_rng(9), index_map=index_map
        )
        for _ in range(40):
            assert np.array_equal(index_map[a.next()], b.next())


class TestScanOrderHelper:
    @pytest.mark.parametrize("n,flips,length", [(10, 3, 95), (8, 8, 40), (13, 6, 130)])
    def test_stream_contract(self, n, flips, length):
        stream = scan_order(n, flips, length, ensure_rng(2))
        assert stream.shape == (length,)
        # aligned n-windows each visit every spin exactly once
        full = stream[: (length // n) * n].reshape(-1, n)
        for window in full:
            assert np.array_equal(np.sort(window), np.arange(n))
        # consecutive flip-sized chunks are duplicate-free
        chunks = stream[: (length // flips) * flips].reshape(-1, flips)
        for chunk in chunks:
            assert np.unique(chunk).size == flips


def _join_sweep_isin(perm, tail, need):
    """The array-call form ``_join_sweep`` replaced: the reference."""
    if tail.size == 0 or need <= 0:
        return perm
    bad = np.flatnonzero(np.isin(perm[:need], tail))
    if bad.size:
        ok = need + np.flatnonzero(~np.isin(perm[need:], tail))
        swap = ok[: bad.size]
        perm[bad], perm[swap] = perm[swap], perm[bad]
    return perm


class TestJoinSweepReference:
    """``_join_sweep`` makes the same swaps as its ``np.isin`` form, so
    every scan stream, and the generator state after it, is unchanged."""

    @pytest.mark.parametrize("n", [5, 7, 33, 97, 101])
    @pytest.mark.parametrize("flips", [2, 3, 4, 5])
    def test_scan_streams_equal_the_isin_form(self, n, flips, monkeypatch):
        expected_rng = ensure_rng(n * 10 + flips)
        with monkeypatch.context() as m:
            m.setattr(proposal, "_join_sweep", _join_sweep_isin)
            expected = scan_order(n, flips, 40 * n, expected_rng)
            ref = FlipSelector(n, flips, "scan", ensure_rng(flips))
            expected_sets = [ref.next() for _ in range(800)]
        rng = ensure_rng(n * 10 + flips)
        assert np.array_equal(scan_order(n, flips, 40 * n, rng), expected)
        assert rng.bit_generator.state == expected_rng.bit_generator.state
        sel = FlipSelector(n, flips, "scan", ensure_rng(flips))
        for want in expected_sets:
            assert np.array_equal(sel.next(), want)


class TestRandomFlipSets:
    @pytest.mark.parametrize("n,flips", [(20, 1), (20, 3), (6, 5), (4, 4)])
    def test_rows_are_unique_and_in_range(self, n, flips):
        out = random_flip_sets(ensure_rng(8), n, 500, flips)
        assert out.shape == (500, flips)
        assert out.min() >= 0 and out.max() < n
        assert all(np.unique(row).size == flips for row in out)

    def test_deterministic_given_rng(self):
        a = random_flip_sets(ensure_rng(4), 15, 100, 4)
        b = random_flip_sets(ensure_rng(4), 15, 100, 4)
        assert np.array_equal(a, b)


class TestValidation:
    def test_mode_and_flip_bounds(self):
        rng = ensure_rng(0)
        with pytest.raises(ValueError, match="proposal mode"):
            FlipSelector(5, 1, "walk", rng)
        for bad in (0, 6):
            with pytest.raises(ValueError, match="flips"):
                FlipSelector(5, bad, "scan", rng)

    def test_index_map_shape_checked(self):
        rng = ensure_rng(0)
        with pytest.raises(ValueError, match="index_map"):
            FlipSelector(5, 1, "scan", rng, index_map=np.arange(4))
