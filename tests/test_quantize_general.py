"""Tests for non-symmetric quantization, the stored image and the tile crossbar mode."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import HardwareConfig
from repro.arch.cim_annealer import compile_cim_program
from repro.arch.tiling import TiledCrossbar
from repro.circuits import DgFefetCrossbar, MatrixQuantizer
from repro.devices import VBG_MAX
from repro.ising import IsingModel, SparseIsingModel
from repro.utils.bits import popcount_lut
from repro.utils.rng import ensure_rng


def reference_levels(quantizer, values, lsb):
    """Magnitude levels as the bit-plane quantizer rounded them."""
    levels = np.rint(np.abs(values) / lsb).astype(np.int64)
    return np.minimum(levels, quantizer.max_level)


def reference_quantize(quantizer, J, lsb=None):
    """The bit-plane quantizer the signed-level image replaced.

    Returns its sign-split ``(k, n, n)`` planes and its LSB.
    """
    lsb = quantizer.lsb_for(J) if lsb is None else float(lsb)
    levels = reference_levels(quantizer, J, lsb)
    k, n = quantizer.bits, J.shape[0]
    pos_planes = np.zeros((k, n, n), dtype=bool)
    neg_planes = np.zeros((k, n, n), dtype=bool)
    for b in range(k):
        bit = (levels >> b) & 1
        pos_planes[b] = (bit == 1) & (J > 0)
        neg_planes[b] = (bit == 1) & (J < 0)
    return pos_planes, neg_planes, lsb


def reference_dequantize(pos_planes, neg_planes, lsb):
    """``Ĵ`` recombined from the planes through an int32 magnitude pair."""
    n = pos_planes.shape[1]
    pos = np.zeros((n, n), dtype=np.int32)
    neg = np.zeros((n, n), dtype=np.int32)
    for b in range(pos_planes.shape[0]):
        weight = np.int32(1 << b)
        pos += pos_planes[b].astype(np.int32) * weight
        neg += neg_planes[b].astype(np.int32) * weight
    return lsb * (pos - neg).astype(np.float64)


def reference_grid_image(quantizer, J):
    """A tiled grid's CSR image and '1'-cell count, re-signed as the grid did."""
    lsb = quantizer.lsb_for(J)
    rows, cols = np.nonzero(J)
    vals = J[rows, cols]
    levels = reference_levels(quantizer, vals, lsb)
    stored = levels > 0
    indptr = np.zeros(J.shape[0] + 1, dtype=np.intp)
    indptr[1:] = np.cumsum(np.bincount(rows[stored], minlength=J.shape[0]))
    data = lsb * np.copysign(levels[stored], vals[stored])
    ones = float(sum(np.count_nonzero((levels >> b) & 1) for b in range(quantizer.bits)))
    return (indptr, cols[stored], data), ones


class TestQuantizeGeneral:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), bits=st.integers(2, 8))
    def test_reconstruction_error_bound(self, seed, bits):
        rng = ensure_rng(seed)
        n = int(rng.integers(2, 10))
        A = rng.uniform(-2, 2, (n, n))  # deliberately asymmetric
        q = MatrixQuantizer(bits)
        hat = q.quantize_general(A).dequantize()
        assert np.max(np.abs(hat - A)) <= q.lsb_for(A) / 2 + 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            MatrixQuantizer(4).quantize_general(np.zeros((2, 3)))

    def test_symmetric_path_still_validates(self):
        A = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            MatrixQuantizer(4).quantize(A)
        # but the general path accepts it
        MatrixQuantizer(4).quantize_general(A)


class TestPlaneReference:
    """The signed-level image equals the bit-plane quantizer's, byte for byte."""

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(1, 9),
        bits=st.integers(1, 16),
        symmetric=st.booleans(),
        lsb_scale=st.one_of(st.none(), st.floats(0.05, 4.0)),
        seed=st.integers(0, 2**16),
    )
    def test_matches_the_plane_quantizer(self, n, bits, symmetric, lsb_scale, seed):
        rng = ensure_rng(seed)
        A = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.7)
        A[rng.random((n, n)) < 0.2] *= 1e-3  # entries that round to level 0
        A[rng.random((n, n)) < 0.2] = -0.0
        if symmetric:
            A = np.triu(A) + np.triu(A, 1).T
        q = MatrixQuantizer(bits)
        # Below 1 the explicit LSB clips the largest entries at 2^k - 1.
        lsb = None if lsb_scale is None else q.lsb_for(A) * lsb_scale
        image = (q.quantize if symmetric else q.quantize_general)(A, lsb=lsb)
        pos, neg, ref_lsb = reference_quantize(q, A, lsb)
        assert image.lsb == ref_lsb
        assert image.levels.dtype == np.min_scalar_type(-q.max_level)
        assert np.array_equal(image.positive_planes, pos)
        assert np.array_equal(image.negative_planes, neg)
        assert image.dequantize().tobytes() == reference_dequantize(pos, neg, ref_lsb).tobytes()
        assert image.cell_count() == np.count_nonzero(pos) + np.count_nonzero(neg)
        if not symmetric:
            return
        (indptr, indices, data), ones = reference_grid_image(q, A)
        for matrix in (A, SparseIsingModel.from_dense(A)):
            grid = TiledCrossbar(matrix, tile_size=3, bits=bits)
            got = grid.stored_model().csr_arrays()
            assert got[0].tobytes() == indptr.tobytes()
            assert got[1].tobytes() == indices.tobytes()
            assert got[2].tobytes() == data.tobytes()
            assert grid.programming_summary()["programmed_ones"] == ones
            assert grid.planes == (2 if (data < 0).any() else 1)
        # Every program maps the planes its array stores.
        config = HardwareConfig.proposed(quantization_bits=bits)
        for tile_size in (None, 3):
            program = compile_cim_program(IsingModel(A), config, tile_size=tile_size)
            assert program.mapping.planes == program.crossbar.planes == grid.planes

    @pytest.mark.parametrize("bits", [4, 8, 16])  # int8, int16 and int32 levels
    def test_cell_counts_without_bitwise_count(self, monkeypatch, bits):
        """On numpy < 2 the byte lookup table counts the same '1' cells."""
        monkeypatch.delattr(np, "bitwise_count")
        monkeypatch.setattr("repro.circuits.quantize.popcount_bytes", popcount_lut)
        rng = ensure_rng(bits)
        A = rng.normal(size=(7, 7)) * (rng.random((7, 7)) < 0.7)
        A = np.triu(A, 1) + np.triu(A, 1).T
        q = MatrixQuantizer(bits)
        pos, neg, _ = reference_quantize(q, A)
        ones = np.count_nonzero(pos) + np.count_nonzero(neg)
        crossbar = DgFefetCrossbar(A, bits=bits)
        assert crossbar.programming_summary()["programmed_ones"] == ones
        grid = TiledCrossbar(A, tile_size=3, bits=bits)
        assert grid.programming_summary()["programmed_ones"] == reference_grid_image(q, A)[1]

    def test_paper_width_is_int8(self):
        image = MatrixQuantizer(4).quantize(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        assert image.levels.dtype == np.int8
        assert image.levels.tolist() == [[0, -15], [-15, 0]]

    @pytest.mark.parametrize("lsb", [0.0, -1.0, float("nan"), float("inf")])
    def test_explicit_lsb_must_be_finite_and_positive(self, lsb):
        with pytest.raises(ValueError, match="lsb must be"):
            MatrixQuantizer(4).quantize_general(np.eye(2), lsb=lsb)


class TestAsymmetricCrossbar:
    def test_tile_mode_stores_asymmetric_blocks(self):
        rng = ensure_rng(3)
        block = rng.uniform(-1, 1, (12, 12))
        xb = DgFefetCrossbar(block, require_symmetric=False, seed=0)
        assert np.max(np.abs(xb.matrix_hat - block)) <= xb.quantized.lsb / 2 + 1e-12

    def test_tile_mode_evaluates_products(self):
        rng = ensure_rng(4)
        block = rng.uniform(-1, 1, (10, 10))
        xb = DgFefetCrossbar(block, require_symmetric=False, seed=0)
        r = rng.choice([-1.0, 0.0, 1.0], 10)
        c = np.zeros(10)
        c[3] = 1.0
        value, _ = xb.compute_increment(r, c, VBG_MAX)
        exact = float(r @ xb.matrix_hat @ c)
        assert value == pytest.approx(exact, abs=1e-12)

    def test_symmetric_default_rejects_asymmetric(self):
        block = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            DgFefetCrossbar(block, seed=0)
