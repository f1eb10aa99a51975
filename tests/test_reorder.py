"""Permutation-equivalence harness for the spin-reordering subsystem.

Reordering must be *unobservable* to callers: solving a relabelled model
(with the relabelling declared) is bit-identical to solving the original,
couplings and energies round-trip exactly through the inverse permutation,
and the tiled machine returns the same pinned results with ``reorder="rcm"``
as with ``"none"`` — only the tile registry (and hence the hardware cost)
changes.  All bit-for-bit assertions use dyadic-rational couplings
(integers / 8), for which every floating-point sum involved is exact in
any summation order, so the equalities are arithmetic facts rather than
platform luck — the same contract the backend-equivalence suite pins.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import InSituCimAnnealer, TiledCrossbar
from repro.core import (
    Permutation,
    count_active_tiles,
    degree_permutation,
    graph_bandwidth,
    partition_permutation,
    rcm_permutation,
    reorder_permutation,
    solve_ising,
)
from repro.core.reorder import _bfs_depth, _cm_component, _csr_adjacency, _from_order
from repro.ising import SparseIsingModel
from repro.utils.rng import ensure_rng
from tests.conftest import LAYOUT_PIN_GRAPHS, layout_digest

relaxed = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def dyadic_sparse_model(seed: int, with_fields: bool = False) -> SparseIsingModel:
    """Seeded random sparse model with exactly-representable couplings."""
    rng = ensure_rng(seed)
    n = int(rng.integers(6, 40))
    m = int(rng.integers(n, 3 * n))
    pairs = rng.choice(n * (n - 1) // 2, size=min(m, n * (n - 1) // 2), replace=False)
    rows, cols = np.triu_indices(n, k=1)
    r, c = rows[pairs], cols[pairs]
    vals = rng.integers(-8, 9, size=r.size) / 8.0
    keep = vals != 0
    h = rng.integers(-8, 9, size=n) / 8.0 if with_fields else None
    return SparseIsingModel.from_edges(
        n, r[keep], c[keep], vals[keep], h, offset=0.25, name=f"dyadic-{n}"
    )


def random_permutation(n: int, seed: int) -> Permutation:
    return Permutation(ensure_rng(seed).permutation(n))


def scattered_circulant(n: int, seed: int = 99) -> SparseIsingModel:
    """A degree-6 circulant with randomly relabelled nodes.

    The underlying graph is perfectly banded (bandwidth 3 in its natural
    order); the relabelling scatters its edges over the whole matrix —
    exactly the layout problem RCM is meant to undo.
    """
    rng = ensure_rng(seed)
    base = np.arange(n)
    u = np.concatenate([base, base, base])
    v = np.concatenate([(base + k) % n for k in (1, 2, 3)])
    r, c = np.minimum(u, v), np.maximum(u, v)
    w = rng.choice(np.array([-1.0, 1.0]), size=r.size) / 4.0
    relabel = rng.permutation(n)
    return SparseIsingModel.from_edges(
        n, relabel[r], relabel[c], w, name=f"scattered-circulant-{n}"
    )


# ----------------------------------------------------------------------
# Model-level properties
# ----------------------------------------------------------------------
class TestPermutedModels:
    @relaxed
    @given(seed=st.integers(0, 10_000))
    def test_round_trip_is_exact(self, seed):
        """``permuted(p).permuted(p.inverse)`` returns the identical model."""
        model = dyadic_sparse_model(seed, with_fields=True)
        p = random_permutation(model.num_spins, seed + 1)
        back = model.permuted(p).permuted(p.inverse)
        for a, b in zip(model.csr_arrays(), back.csr_arrays()):
            assert np.array_equal(a, b)
        assert np.array_equal(model.h, back.h)
        assert back.offset == model.offset

    @relaxed
    @given(seed=st.integers(0, 10_000))
    def test_dense_round_trip_is_exact(self, seed):
        model = dyadic_sparse_model(seed, with_fields=True).to_dense()
        p = random_permutation(model.num_spins, seed + 1)
        back = model.permuted(p).permuted(p.inverse)
        assert np.array_equal(model.J, back.J)
        assert np.array_equal(model.h, back.h)

    @relaxed
    @given(seed=st.integers(0, 10_000))
    def test_energy_and_fields_equivariant_bit_for_bit(self, seed):
        """Dyadic sums are order-independent: relabelled energies coincide."""
        model = dyadic_sparse_model(seed, with_fields=True)
        p = random_permutation(model.num_spins, seed + 2)
        permuted = model.permuted(p)
        sigma = model.random_configuration(seed)
        assert permuted.energy(p.permute_vector(sigma)) == model.energy(sigma)
        assert np.array_equal(
            p.restore_vector(permuted.local_fields(p.permute_vector(sigma))),
            model.local_fields(sigma),
        )

    @relaxed
    @given(seed=st.integers(0, 10_000))
    def test_dense_and_sparse_permute_agree(self, seed):
        model = dyadic_sparse_model(seed, with_fields=True)
        p = random_permutation(model.num_spins, seed + 3)
        assert np.array_equal(
            # repro-lint: disable=RPL001 (dense-permute equivalence oracle)
            model.permuted(p).toarray(), model.to_dense().permuted(p).J
        )


# ----------------------------------------------------------------------
# Solver equivalence (the transparency contract)
# ----------------------------------------------------------------------
class TestSolverEquivalence:
    @relaxed
    @given(
        seed=st.integers(0, 10_000),
        method=st.sampled_from(["insitu", "sa", "mesa", "sb"]),
    )
    def test_declared_permutation_is_bit_identical(self, seed, method):
        """``solve(model.permuted(p))`` mapped back == ``solve(model)``.

        The permutation is declared to the solver, which draws proposals
        in the original spin space and maps results back — so the entire
        fixed-seed trajectory is the exact relabelled image of the
        unpermuted run.  This includes simulated bifurcation: dSB's
        matvec inputs are ±1, so its row sums are exact — hence
        order-independent — for the dyadic couplings used here.
        """
        model = dyadic_sparse_model(seed, with_fields=True)
        p = random_permutation(model.num_spins, seed + 4)
        base = solve_ising(model, method=method, iterations=200, seed=7)
        mapped = solve_ising(
            model.permuted(p), method=method, iterations=200, seed=7,
            permutation=p,
        )
        assert mapped.energy == base.energy
        assert mapped.best_energy == base.best_energy
        assert mapped.accepted == base.accepted
        assert np.array_equal(mapped.sigma, base.sigma)
        assert np.array_equal(mapped.best_sigma, base.best_sigma)

    @relaxed
    @given(
        seed=st.integers(0, 10_000),
        method=st.sampled_from(["insitu", "sa", "mesa", "sb"]),
    )
    def test_reorder_knob_is_bit_identical(self, seed, method):
        """``reorder="rcm"`` never changes a software solver's output."""
        model = dyadic_sparse_model(seed, with_fields=True)
        base = solve_ising(model, method=method, iterations=200, seed=7)
        reordered = solve_ising(
            model, method=method, iterations=200, seed=7, reorder="rcm"
        )
        assert reordered.best_energy == base.best_energy
        assert reordered.accepted == base.accepted
        assert np.array_equal(reordered.sigma, base.sigma)
        assert np.array_equal(reordered.best_sigma, base.best_sigma)

    def test_multi_flip_trajectories_also_coincide(self):
        model = dyadic_sparse_model(123)
        p = random_permutation(model.num_spins, 5)
        base = solve_ising(
            model, iterations=150, seed=3, flips_per_iteration=3
        )
        mapped = solve_ising(
            model.permuted(p), iterations=150, seed=3,
            flips_per_iteration=3, permutation=p,
        )
        assert mapped.best_energy == base.best_energy
        assert np.array_equal(mapped.best_sigma, base.best_sigma)

    @relaxed
    @given(
        seed=st.integers(0, 10_000),
        method=st.sampled_from(["insitu", "sa", "mesa", "sb"]),
    )
    def test_partition_layout_is_bit_identical(self, seed, method):
        """The min-cut block layout obeys the same transparency contract.

        A partition permutation is just another declared layout, so every
        solver family must return the bit-identical fixed-seed trajectory
        under it — the clustered-instance analogue of the RCM property
        above.
        """
        model = dyadic_sparse_model(seed, with_fields=True)
        p = partition_permutation(model, 4)
        base = solve_ising(model, method=method, iterations=200, seed=7)
        mapped = solve_ising(
            model.permuted(p), method=method, iterations=200, seed=7,
            permutation=p,
        )
        assert mapped.energy == base.energy
        assert mapped.best_energy == base.best_energy
        assert mapped.accepted == base.accepted
        assert np.array_equal(mapped.sigma, base.sigma)
        assert np.array_equal(mapped.best_sigma, base.best_sigma)

    @relaxed
    @given(
        seed=st.integers(0, 10_000),
        method=st.sampled_from(["insitu", "sa"]),
    )
    def test_partition_layout_batch_multiflip_bit_identical(self, seed, method):
        """Rank-t replica batches under a partition layout coincide too."""
        model = dyadic_sparse_model(seed)
        p = partition_permutation(model, 4)
        base = solve_ising(
            model, method=method, iterations=120, seed=3,
            replicas=4, flips_per_iteration=3,
        )
        mapped = solve_ising(
            model.permuted(p), method=method, iterations=120, seed=3,
            replicas=4, flips_per_iteration=3, permutation=p,
        )
        assert np.array_equal(mapped.best_energies, base.best_energies)
        assert np.array_equal(mapped.accepted, base.accepted)
        assert np.array_equal(mapped.final_sigmas, base.final_sigmas)
        assert np.array_equal(mapped.best_sigma, base.best_sigma)

    @relaxed
    @given(seed=st.integers(0, 10_000))
    def test_partition_layout_sb_batch_bit_identical(self, seed):
        """The SB replica batch obeys the same layout-transparency
        contract: positions are drawn in the caller's spin space and
        mapped back, so the dSB (R, n) trajectory is the exact relabelled
        image of the unpermuted run."""
        model = dyadic_sparse_model(seed)
        p = partition_permutation(model, 4)
        base = solve_ising(
            model, method="sb", iterations=120, seed=3, replicas=4
        )
        mapped = solve_ising(
            model.permuted(p), method="sb", iterations=120, seed=3,
            replicas=4, permutation=p,
        )
        assert np.array_equal(mapped.best_energies, base.best_energies)
        assert np.array_equal(mapped.accepted, base.accepted)
        assert np.array_equal(mapped.final_sigmas, base.final_sigmas)
        assert np.array_equal(mapped.best_sigmas, base.best_sigmas)


# ----------------------------------------------------------------------
# Tiled-machine equivalence + occupancy
# ----------------------------------------------------------------------
class TestTiledReordering:
    @pytest.mark.parametrize("reorder", ["rcm", "partition"])
    def test_tiled_solve_bit_identical_under_reordering(self, reorder):
        model = scattered_circulant(600)
        base = solve_ising(model, iterations=400, seed=11, tile_size=32)
        mapped = solve_ising(
            model, iterations=400, seed=11, tile_size=32, reorder=reorder
        )
        assert mapped.best_energy == base.best_energy
        assert mapped.accepted == base.accepted
        assert np.array_equal(mapped.best_sigma, base.best_sigma)

    @pytest.mark.parametrize("reorder", ["rcm", "partition"])
    def test_fielded_model_ancilla_survives_reordering(self, reorder):
        """Field fold → reorder → inverse map → ancilla strip round-trips.

        The ancilla spin is pinned at its conventional position in the
        *caller's* ordering; because the machine maps every configuration
        back through the inverse permutation before the ancilla is
        stripped, the internal position of the ancilla row is irrelevant.

        Single-magnitude weights (J ∈ ±1/4, h ∈ ±1/2 so the folded ancilla
        row is also ±1/4) keep the 4-bit stored image exactly representable
        — the same representability story as the ±1-weighted G-sets — so
        the machine comparison is bit-for-bit.
        """
        rng = ensure_rng(77)
        n = 30
        rows, cols = np.triu_indices(n, k=1)
        keep = rng.random(rows.size) < 0.15
        model = SparseIsingModel.from_edges(
            n, rows[keep], cols[keep],
            rng.choice([-0.25, 0.25], size=int(keep.sum())),
            rng.choice([-0.5, 0.5], size=n),
            name="fielded-single-magnitude",
        )
        base = solve_ising(model, iterations=300, seed=5, tile_size=8)
        rcm = solve_ising(
            model, iterations=300, seed=5, tile_size=8, reorder="rcm"
        )
        assert rcm.best_energy == base.best_energy
        assert np.array_equal(rcm.best_sigma, base.best_sigma)
        assert rcm.best_sigma.shape == (model.num_spins,)  # ancilla stripped

    def test_estimated_tiles_matches_machine_exactly(self):
        """The occupancy regression guard for the estimator heuristic."""
        model = scattered_circulant(1200, seed=17)
        tile = 64
        perm = rcm_permutation(model)
        identity_tiles = count_active_tiles(model, tile)
        assert identity_tiles == TiledCrossbar(model, tile_size=tile).num_tiles
        machine = InSituCimAnnealer(model, tile_size=tile, reorder="rcm", seed=0)
        assert machine.permutation is not None
        assert machine.crossbar.num_tiles == perm.estimated_active_tiles(tile)
        assert machine.crossbar.num_tiles < identity_tiles

    def test_rcm_recovers_banded_layout(self):
        model = scattered_circulant(1500, seed=3)
        perm = rcm_permutation(model)
        assert perm.bandwidth_before > 100  # scattered on the way in
        assert perm.bandwidth_after <= 16   # near the circulant's natural 3
        assert perm.estimated_active_tiles(64) * 5 <= count_active_tiles(model, 64)

    def test_auto_keeps_identity_when_already_banded(self):
        """On an already-banded path graph, reordering cannot help.

        (A circulant would not do here: its wrap-around edges give the
        natural order bandwidth ``n − 1``, which RCM improves by cutting
        the cycle.  A path's band is irreducible.)
        """
        rng = ensure_rng(0)
        n = 400
        u = np.concatenate([np.arange(n - 1), np.arange(n - 2)])
        v = np.concatenate([np.arange(1, n), np.arange(2, n)])
        model = SparseIsingModel.from_edges(
            n, u, v, rng.choice([-0.25, 0.25], size=u.size),
        )
        assert reorder_permutation(model, "auto", tile_size=32) is None
        machine = InSituCimAnnealer(model, tile_size=32, reorder="auto", seed=0)
        assert machine.permutation is None
        assert machine.mapping.ordering == "identity"

    def test_auto_reorders_scattered_instances(self):
        model = scattered_circulant(800, seed=9)
        perm = reorder_permutation(model, "auto", tile_size=32)
        assert perm is not None
        machine = InSituCimAnnealer(model, tile_size=32, reorder="auto", seed=0)
        assert machine.mapping.ordering == perm.strategy
        assert machine.mapping.bandwidth == perm.bandwidth_after

    def test_reordered_stored_image_is_exact_relabelling(self):
        """hw_model (caller order) == unreordered machine's stored image."""
        model = scattered_circulant(300, seed=21)
        plain = InSituCimAnnealer(model, tile_size=16, seed=0)
        rcm = InSituCimAnnealer(model, tile_size=16, reorder="rcm", seed=0)
        a, b = plain.hw_model, rcm.hw_model
        for x, y in zip(a.csr_arrays(), b.csr_arrays()):
            assert np.array_equal(x, y)


# ----------------------------------------------------------------------
# Permutation object + reorder passes
# ----------------------------------------------------------------------
class TestPermutationObject:
    def test_identity(self):
        p = Permutation.identity(5)
        assert p.is_identity
        assert len(p) == 5
        x = np.arange(5.0)
        assert np.array_equal(p.permute_vector(x), x)

    def test_inverse_composes_to_identity(self):
        p = random_permutation(20, 1)
        assert np.array_equal(p.forward[p.inverse.forward], np.arange(20))
        x = ensure_rng(2).normal(size=20)
        assert np.array_equal(p.restore_vector(p.permute_vector(x)), x)

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError, match="distinct position"):
            Permutation([0, 0, 1])
        with pytest.raises(ValueError, match="lie in"):
            Permutation([0, 1, 5])
        with pytest.raises(ValueError, match="length 3"):
            SparseIsingModel.from_edges(3, [0], [1], [0.5]).permuted([0, 1])

    def test_estimated_tiles_requires_structure(self):
        with pytest.raises(ValueError, match="no coupling structure"):
            Permutation.identity(4).estimated_active_tiles(2)

    def test_degree_ordering_sorts_ascending(self):
        # star + pendant chain: the hub has max degree and must come last
        model = SparseIsingModel.from_edges(
            6, [0, 0, 0, 0, 1], [1, 2, 3, 4, 5], [0.5] * 5
        )
        perm = degree_permutation(model)
        assert perm.forward[0] == 5  # hub (degree 4) placed last
        assert perm.bandwidth_before == graph_bandwidth(model)

    def test_inverse_estimates_tiles_of_the_permuted_model(self):
        model = scattered_circulant(200, seed=31)
        perm = rcm_permutation(model)
        inv = perm.inverse
        # Undoing the reordering from the permuted model restores the
        # scattered occupancy.
        assert inv.estimated_active_tiles(16) == count_active_tiles(model, 16)


#: Per graph of ``LAYOUT_PIN_GRAPHS``: sha256 of ``rcm_permutation``'s
#: forward map, and the ``reorder="auto"`` winner's strategy with the
#: sha256 of its strategy and forward map.  Both race candidates may get
#: faster, never different.
REORDER_PINS = {
    "circulant": (
        "69a573a923f9576e118c42c1c39c12ad48e2bb38fe96e5b6ecc1ad17820e4f37",
        "rcm", "e44c75b628ae6b099621b248d0ac6ba9bded85e1f16d5d7e411c8e144058a0c0",
    ),
    "planted": (
        "48e1e53148a0c8575202b1ffce17e39019682a05ec0e374caa7c4542bceb3ec8",
        "partition",
        "feeb1057fc52093d202003f87404d5f94d2c4af93d2f9297204a72eb8b63350b",
    ),
    "non-dyadic": (
        "a221d77df38ff933b92f6f4167a8d27ba0b3e6f5799a9d9b2ee7f88096859d0c",
        "rcm", "7f7680652d696091fa6a130bc140be0fdb95919a3df4d72abfbc1bc72b520261",
    ),
    "dense": (
        "5a85718e9ff90286e8c9103e54a664492d9eb280ab3f0f15f275bad3abd6f22e",
        "rcm", "913c1bd7194b147d6199e9dbefc350515f1ec64c7f58dbd68ff8c3673fa6614f",
    ),
    "components": (
        "d31397ef48966c9a53d0c2aedb2efdf2cc49c511da50d33e5e9ba1480c60d837",
        "rcm", "d56f4a913239d6f388dd98026a12b4cbd8b919ef9b741593f26b1eed7873313e",
    ),
}


class TestReorderBytePins:
    @pytest.mark.parametrize("name", sorted(REORDER_PINS))
    def test_rcm_forward_bytes(self, name):
        model, _ = LAYOUT_PIN_GRAPHS[name]()
        assert layout_digest(rcm_permutation(model).forward) == REORDER_PINS[name][0]

    @pytest.mark.parametrize("name", sorted(REORDER_PINS))
    def test_auto_winner_bytes(self, name):
        model, tile = LAYOUT_PIN_GRAPHS[name]()
        winner = reorder_permutation(model, "auto", tile_size=tile)
        assert winner is not None
        _, strategy, digest = REORDER_PINS[name]
        assert winner.strategy == strategy
        assert layout_digest(winner.forward, winner.strategy) == digest


def reference_rcm(model) -> tuple[Permutation, int]:
    """RCM with three BFS passes per component, and how many components
    the search re-rooted: George–Liu's pseudo-peripheral search, then the
    Cuthill–McKee pass from the root it picked."""
    n, indptr, indices, rows, cols = _csr_adjacency(model)
    degrees = np.diff(indptr)
    stops = indptr[1:]
    mark = np.full(n, -1, dtype=np.int64)
    clock, moved = 0, 0
    pieces: list[np.ndarray] = []
    for start in np.argsort(degrees, kind="stable").tolist():
        if mark[start] >= 0:
            continue
        root = start
        depth, end, clock = _bfs_depth(stops, indices, degrees, root, mark, clock)
        while end != root:
            new_depth, new_end, clock = _bfs_depth(
                stops, indices, degrees, end, mark, clock
            )
            if new_depth <= depth:
                break
            root, depth, end = end, new_depth, new_end
        moved += root != start
        levels, clock = _cm_component(stops, indices, degrees, root, mark, clock)
        pieces += levels
    cm = np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.intp)
    return _from_order(cm[::-1], (rows, cols), "rcm"), moved


def rcm_graph(seed: int):
    """1–4 components — random trees, random graphs and paths with short
    chords — plus up to 4 isolated spins, labels scrambled, non-dyadic
    weights; every fifth seed on the dense backend."""
    rng = ensure_rng(seed)
    pairs: list[tuple[int, int]] = []
    n = 0
    for _ in range(int(rng.integers(1, 5))):
        size = int(rng.integers(2, 60))
        kind = int(rng.integers(3))
        if kind == 0:  # random recursive tree
            pairs += [(n + int(rng.integers(i)), n + i) for i in range(1, size)]
        elif kind == 1:  # connected random graph: a tree plus extra edges
            pairs += [(n + int(rng.integers(i)), n + i) for i in range(1, size)]
            extra = {
                tuple(sorted(int(x) for x in rng.choice(size, 2, replace=False)))
                for _ in range(int(rng.integers(0, 2 * size)))
            }
            pairs += [(n + a, n + b) for a, b in extra]
        else:  # a path with chords of span 2–3
            pairs += [(n + i, n + i + 1) for i in range(size - 1)]
            pairs += [
                (n + i, n + i + span)
                for i in range(size) for span in (2, 3)
                if i + span < size and rng.random() < 0.2
            ]
        n += size
    n += int(rng.integers(0, 5))
    relabel = rng.permutation(n)
    keys = sorted({(min(a, b), max(a, b)) for a, b in pairs})
    rows = relabel[[a for a, _ in keys]]
    cols = relabel[[b for _, b in keys]]
    model = SparseIsingModel.from_edges(
        n, rows, cols, rng.choice([-1.3, -0.7, 0.3, 0.9], size=len(keys))
    )
    return model.to_dense() if seed % 5 == 0 else model


class TestRcmSearch:
    """The first CM pass doubles as the search's first BFS; the order must
    equal the three-pass form's byte for byte."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2**32 - 1))
    def test_matches_three_pass_reference(self, seed):
        model = rcm_graph(seed)
        want, _ = reference_rcm(model)
        assert rcm_permutation(model).forward.tobytes() == want.forward.tobytes()

    def test_family_moves_the_root(self):
        """Trees make the search re-root, so the second CM pass runs."""
        moved = 0
        for seed in range(40):
            model = rcm_graph(seed)
            want, count = reference_rcm(model)
            assert rcm_permutation(model).forward.tobytes() == want.forward.tobytes()
            moved += count
        assert moved > 0


class TestReorderValidation:
    def test_unknown_reorder_rejected_at_solve_boundary(self):
        model = dyadic_sparse_model(1)
        with pytest.raises(ValueError, match="unknown reorder 'zigzag'"):
            solve_ising(model, reorder="zigzag")

    def test_machine_rejects_rcm_without_tiles(self):
        model = dyadic_sparse_model(2)
        with pytest.raises(ValueError, match="tile_size"):
            InSituCimAnnealer(model, reorder="rcm", seed=0)

    def test_machine_auto_without_tiles_is_identity(self):
        model = dyadic_sparse_model(3)
        machine = InSituCimAnnealer(model, reorder="auto", seed=0)
        assert machine.permutation is None

    def test_reorder_permutation_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown reorder"):
            reorder_permutation(dyadic_sparse_model(4), "zigzag")
