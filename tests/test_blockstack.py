"""Block-diagonal union: geometry, packing eligibility, and bit-identity.

The contract under test is the serving layer's foundation: stacking k
independent models into one block-diagonal union, advancing all of them
with ONE batch engine run (``run_stacked``), and slicing per-job results
back out must equal k independent ``solve_ising`` calls with the
corresponding RNG streams — bit-for-bit, never approximately.  The
hypothesis harness sweeps member backends (dense/sparse/packed, mixed
within one stack), external fields on a subset of members, both packable
methods, and flip ranks t ∈ {1, 4}.

Couplings are dyadic (±1/4) wherever a member is dense: that is the
usual backend transparency contract — dense members run BLAS/einsum
kernels solo while the union always runs sparse/packed scatter kernels,
and the two summation orders only coincide exactly on
exactly-representable values.  Sparse members may be non-dyadic, with a
stored diagonal: the union sums their entries in their own CSR order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    BLOCK_ALIGN,
    batch,
    compile_lane,
    coupling_ops,
    run_stacked,
    solve_ising,
    stack_models,
)
from repro.ising import IsingModel, PackedIsingModel, SparseIsingModel
from repro.utils.rng import ensure_rng

relaxed = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_member(n, seed, backend="sparse", with_fields=False, offset=0.0):
    """A dyadic-coupling member model on the requested backend.

    ``backend="nondyadic"`` is the exception: a sparse member with
    non-dyadic couplings, a stored diagonal and fields (the sparse union
    adds its entries in the member's own CSR order, so it stays exact).
    """
    if backend == "nondyadic":
        rng = ensure_rng(seed + 31)
        upper = np.triu(rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.4), k=1)
        dense = IsingModel(
            upper + upper.T + np.diag(rng.normal(size=n)), rng.normal(size=n),
            offset=offset, name=f"nondyadic-{n}-{seed}",
        )
        return SparseIsingModel.from_ising(dense)
    base = SparseIsingModel.random(n, degree=4.0, seed=seed)
    indptr, indices, data = base.csr_arrays()
    data = np.sign(data) * 0.25
    fields = None
    if with_fields:
        rng = ensure_rng(seed + 977)
        fields = np.sign(rng.normal(size=n)) * 0.5
    if backend == "packed":
        return PackedIsingModel(
            indptr, indices, data, fields, offset, f"packed-{n}-{seed}"
        )
    sparse = SparseIsingModel(
        indptr, indices, data, fields, offset, f"sparse-{n}-{seed}"
    )
    if backend == "dense":
        return sparse.to_dense()
    return sparse


def assert_bit_identical(solo, served, label):
    assert np.array_equal(solo.best_energies, served.best_energies), label
    assert np.array_equal(solo.best_sigmas, served.best_sigmas), label
    assert np.array_equal(solo.final_energies, served.final_energies), label
    assert np.array_equal(solo.final_sigmas, served.final_sigmas), label
    assert np.array_equal(solo.accepted, served.accepted), label
    assert solo.iterations == served.iterations, label


@relaxed
@given(
    data=st.data(),
    k=st.integers(min_value=2, max_value=4),
    method=st.sampled_from(["insitu", "sa"]),
    flips=st.sampled_from([1, 4]),
    replicas=st.sampled_from([1, 3]),
)
def test_stacked_run_bit_identical_to_solo_solves(
    data, k, method, flips, replicas
):
    members = []
    for j in range(k):
        n = data.draw(st.integers(min_value=5, max_value=12), label=f"n{j}")
        backend = data.draw(
            st.sampled_from(["dense", "sparse", "packed", "nondyadic"]),
            label=f"b{j}",
        )
        with_fields = data.draw(st.booleans(), label=f"h{j}")
        members.append(
            make_member(
                n, seed=13 * j + 5, backend=backend,
                with_fields=with_fields, offset=0.5 * j,
            )
        )
    iterations = 30
    seeds = [1000 + 7 * j for j in range(k)]
    lanes = [
        compile_lane(
            m, method=method, iterations=iterations, replicas=replicas,
            flips_per_iteration=flips, seed=s,
        )
        for m, s in zip(members, seeds)
    ]
    served = run_stacked(lanes)
    for m, s, r in zip(members, seeds, served):
        solo = solve_ising(
            m, method=method, iterations=iterations, seed=s,
            replicas=replicas, flips_per_iteration=flips,
        )
        assert_bit_identical(solo, r, f"{m.name} method={method} t={flips}")


def test_stack_geometry_pads_to_block_align():
    members = [make_member(n, seed=n) for n in (5, 70, 64)]
    stack = stack_models(members)
    blocks = stack.blocks
    assert [b.start for b in blocks] == [0, BLOCK_ALIGN, 3 * BLOCK_ALIGN]
    assert [b.stop - b.start for b in blocks] == [5, 70, 64]
    assert all(b.padded_stop % BLOCK_ALIGN == 0 for b in blocks)
    assert stack.model.num_spins == blocks[-1].padded_stop
    # Couplings land inside their own block: every CSR row's neighbours
    # stay within the owning member's [start, stop) range.
    indptr, indices, _ = stack.model.csr_arrays()
    for b in blocks:
        lo, hi = indptr[b.start], indptr[b.stop]
        assert np.all(indices[lo:hi] >= b.start)
        assert np.all(indices[lo:hi] < b.stop)
    # Padding rows carry no couplings at all.
    for b in blocks:
        assert indptr[b.stop] == indptr[b.padded_stop]


def test_stack_promotes_to_packed_only_on_shared_scale():
    packed = [make_member(n, seed=n, backend="packed") for n in (9, 17)]
    assert isinstance(stack_models(packed).model, PackedIsingModel)
    # A sparse member (no packed eligibility claim) blocks promotion.
    mixed = [packed[0], make_member(11, seed=3, backend="sparse")]
    stacked = stack_models(mixed)
    assert not isinstance(stacked.model, PackedIsingModel)
    # Different dyadic magnitudes cannot share one packed union.
    other = SparseIsingModel.random(8, degree=4.0, seed=21)
    indptr, indices, dat = other.csr_arrays()
    half = PackedIsingModel(indptr, indices, np.sign(dat) * 0.5)
    assert not isinstance(
        stack_models([packed[0], half]).model, PackedIsingModel
    )


def test_stack_concatenates_fields_with_zero_padding():
    with_h = make_member(6, seed=1, with_fields=True)
    without_h = make_member(7, seed=2, with_fields=False)
    stack = stack_models([with_h, without_h])
    assert stack.model.has_fields
    h = stack.model.h
    b0, b1 = stack.blocks
    assert np.array_equal(h[b0.start:b0.stop], with_h.h)
    assert np.all(h[b0.stop:] == 0.0)
    # No member with fields -> the union carries none either.
    assert not stack_models([without_h]).model.has_fields


def test_run_stacked_rejects_mismatched_lanes():
    m = make_member(8, seed=4)
    lane_a = compile_lane(m, method="sa", iterations=10, seed=0)
    lane_b = compile_lane(m, method="sa", iterations=20, seed=0)
    with pytest.raises(ValueError, match="stacked lanes must share"):
        run_stacked([lane_a, lane_b])
    with pytest.raises(ValueError, match="at least one lane"):
        run_stacked([])


def test_compile_lane_validates_at_the_boundary():
    m = make_member(8, seed=4)
    with pytest.raises(ValueError, match="iterations"):
        compile_lane(m, iterations=0)
    with pytest.raises(ValueError, match="unknown method"):
        compile_lane(m, method="mesa")
    with pytest.raises(ValueError, match="replicas"):
        compile_lane(m, replicas=True)


def non_dyadic_dense(n, seed):
    """A dense model whose couplings and fields are not dyadic."""
    rng = ensure_rng(seed)
    upper = np.triu(rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.3), k=1)
    return IsingModel(
        upper + upper.T, rng.normal(size=n), offset=0.3, name=f"dense-{seed}"
    )


def test_single_lane_stacked_run_matches_solo():
    # Degenerate stack of one: the lane runs on its own model and backend,
    # which is its solo run (serve runs every group of one this way).  On
    # the dense non-dyadic models a sparse union would sum differently.
    cases = [(make_member(10, seed=6, with_fields=True), 42,
              dict(iterations=50, replicas=2))]
    cases += [
        (non_dyadic_dense(24, seed), seed,
         dict(iterations=300, replicas=3, flips_per_iteration=2))
        for seed in range(20)
    ]
    for method in ("insitu", "sa"):
        for m, seed, knobs in cases:
            lane = compile_lane(m, method=method, seed=seed, **knobs)
            solo = solve_ising(m, method=method, seed=seed, **knobs)
            assert_bit_identical(
                solo, run_stacked([lane])[0], f"{m.name} method={method}"
            )


@pytest.mark.parametrize("flips", [1, 3])
@pytest.mark.parametrize("method", ["insitu", "sa"])
def test_three_lanes_across_chunk_boundaries(monkeypatch, method, flips):
    """Offset proposals, uniforms and coefficients are laid out per chunk;
    three full chunks plus a ragged one still give every solo result.
    The three dyadic lanes share the stack with a non-dyadic one that
    stores a diagonal (at t=1 its whole rank-1 correction)."""
    chunk = 7
    monkeypatch.setattr(batch, "CHUNK_ITERATIONS", chunk)
    members = [
        make_member(9, seed=3, backend="dense", with_fields=True),
        make_member(12, seed=4, backend="sparse"),
        make_member(7, seed=5, backend="packed", with_fields=True, offset=0.5),
        make_member(11, seed=8, backend="nondyadic", offset=0.25),
    ]
    assert np.any(members[3].coupling_diagonal())
    knobs = dict(
        method=method, iterations=3 * chunk + 2, replicas=3,
        flips_per_iteration=flips,
    )
    lanes = [compile_lane(m, seed=60 + j, **knobs) for j, m in enumerate(members)]
    for j, (m, served) in enumerate(zip(members, run_stacked(lanes))):
        solo = solve_ising(m, seed=60 + j, **knobs)
        assert_bit_identical(solo, served, m.name)


@pytest.mark.parametrize("packed", [False, True])
def test_rank1_slots_on_the_union_equal_the_intersection(packed):
    """Stacked t=1 lanes on a block-stacked union: one flip per lane block
    meets only its own diagonal in the row-wide intersection, so the
    rank-1 cross term the loop takes, ``d − σ g`` with a ``-0.0``-free
    diagonal, is byte-equal to the intersection's per-set sums."""
    backend = "packed" if packed else "nondyadic"
    members = [make_member(n, seed=n, backend=backend) for n in (9, 14, 6, 11)]
    if not packed:
        members.append(make_member(8, seed=2, backend="sparse"))  # no diagonal
    stack = stack_models(members)
    ops = coupling_ops(stack.model)
    rng = ensure_rng(4)
    R, k = 16, len(members)
    sigma = rng.choice(np.array([-1.0, 1.0]), size=(R, stack.model.num_spins))
    state = ops.make_batch_state(sigma)
    idx = np.stack(
        [rng.integers(b.start, b.stop, size=R) for b in stack.blocks], axis=1
    )
    rows = np.arange(R)[:, None]
    sig_f = state.gather(rows, idx)
    rank1 = (ops.diag() + 0.0)[idx] - sig_f * state.fields[rows, idx]
    rowwide = ops.batch_cross_term_slots(state.fields, idx, sig_f)
    assert rank1.shape == rowwide.shape == (R, k)
    assert np.array_equal(rank1, rowwide)
    assert rank1.tobytes() == rowwide.reshape(-1, 1).sum(axis=1).tobytes()


def test_a_lane_runs_once():
    m = make_member(8, seed=4)
    lane = compile_lane(m, iterations=10, seed=0)
    run_stacked([lane])
    with pytest.raises(ValueError, match="a lane runs once"):
        run_stacked([lane])
    # The same lane twice in one stack would draw its uniforms twice.
    twice = compile_lane(m, iterations=10, seed=1)
    with pytest.raises(ValueError, match="a lane runs once"):
        run_stacked([twice, twice])
