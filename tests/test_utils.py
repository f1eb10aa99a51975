"""Tests for the shared utilities (rng, units, validation, tables)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.reorder import Permutation
from repro.ising import MaxCutProblem, SparseIsingModel
from repro.ising.sparse import recommended_backend
from repro.utils import (
    GIGA,
    NANO,
    PICO,
    check_in_range,
    check_positive,
    check_probability,
    check_spin_vector,
    check_square_symmetric,
    ensure_rng,
    forbid_densification,
    format_energy,
    format_time,
    from_si,
    spawn_rng,
    to_si,
)
from repro.utils.keys import first_repeat, sorted_unique
from repro.utils.tables import render_series, render_table
from repro.utils.validation import check_count, check_finite, check_initial, check_real


class TestRng:
    def test_accepts_none_int_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)
        assert isinstance(ensure_rng(5), np.random.Generator)
        # A raw Generator is the one input ensure_rng must pass through
        # untouched, so this test needs one built outside ensure_rng.
        gen = np.random.default_rng(1)  # repro-lint: disable=RPL002
        assert ensure_rng(gen) is gen

    def test_seed_sequence_matches_default_rng(self):
        seq = np.random.SeedSequence(42)
        a = ensure_rng(seq).integers(10**9)
        b = ensure_rng(np.random.SeedSequence(42)).integers(10**9)
        assert a == b

    def test_same_seed_same_stream(self):
        assert ensure_rng(7).integers(1000) == ensure_rng(7).integers(1000)

    def test_rejects_bad_seed(self):
        for bad in ("seed", "x", 2.5, [1, 2], 1j):
            with pytest.raises(ValueError, match="seed must be an integer"):
                ensure_rng(bad)

    @pytest.mark.parametrize("bad", [2.5, "x"])
    def test_solve_rejects_non_integer_seed(self, bad):
        from repro.core.solver import solve_ising

        model = SparseIsingModel.random(8, seed=0)
        with pytest.raises(ValueError, match="seed must be an integer"):
            solve_ising(model, iterations=10, seed=bad)

    def test_seed_range_is_numpy_s(self):
        """Seeds keep numpy's range (no count cap); an integral float
        seeds as its int."""
        for seed in (2**63, 10**30):
            assert ensure_rng(seed).integers(1000) == (
                np.random.default_rng(seed).integers(1000)  # repro-lint: disable=RPL002
            )
        assert ensure_rng(2.0).integers(1000) == ensure_rng(2).integers(1000)

    def test_rejects_bool_and_negative_seeds(self):
        for bad in (True, False):
            with pytest.raises(ValueError, match="seed must be an integer"):
                ensure_rng(bad)
        for bad in (-1, np.int64(-3)):
            with pytest.raises(ValueError, match="seed must be >= 0"):
                ensure_rng(bad)
        assert ensure_rng(np.int64(7)).integers(1000) == ensure_rng(7).integers(1000)

    def test_spawn_produces_independent_children(self):
        children = spawn_rng(ensure_rng(3), 4)
        assert len(children) == 4
        draws = [c.integers(10**9) for c in children]
        assert len(set(draws)) == 4

    def test_spawn_validation(self):
        with pytest.raises(ValueError):
            spawn_rng(ensure_rng(0), -1)


class TestForbidDensification:
    def test_traps_toarray(self):
        from repro.ising.sparse import SparseIsingModel

        model = SparseIsingModel.random(8, seed=0)
        with forbid_densification():
            with pytest.raises(AssertionError, match="forbid_densification"):
                model.toarray()  # repro-lint: disable=RPL001
        # The patch must be lifted once the context exits.
        assert model.toarray().shape == (8, 8)  # repro-lint: disable=RPL001

    def test_traps_matrix_hat(self):
        from repro.arch import TiledCrossbar
        from repro.ising.sparse import SparseIsingModel

        model = SparseIsingModel.random(8, seed=0)
        crossbar = TiledCrossbar(model, tile_size=4)
        with forbid_densification():
            with pytest.raises(AssertionError, match="forbid_densification"):
                crossbar.matrix_hat
        assert crossbar.matrix_hat.shape == (8, 8)

    def test_matrix_hat_opt_out(self):
        from repro.arch import TiledCrossbar
        from repro.ising.sparse import SparseIsingModel

        model = SparseIsingModel.random(8, seed=0)
        crossbar = TiledCrossbar(model, tile_size=4)
        with forbid_densification(trap_matrix_hat=False):
            assert crossbar.matrix_hat.shape == (8, 8)
            with pytest.raises(AssertionError):
                model.toarray()  # repro-lint: disable=RPL001

    def test_sparse_solve_passes_under_guard(self):
        from repro.core.solver import solve_ising
        from repro.ising.sparse import SparseIsingModel

        model = SparseIsingModel.random(16, seed=1)
        with forbid_densification():
            result = solve_ising(model, iterations=50, seed=2)
        assert np.isfinite(result.best_energy)


class TestUnits:
    def test_round_trip(self):
        assert from_si(to_si(0.25, PICO), PICO) == pytest.approx(0.25)
        assert to_si(25, NANO) == pytest.approx(2.5e-8)

    def test_format_energy(self):
        assert format_energy(2.5e-9) == "2.5 nJ"
        assert format_energy(0.0) == "0 J"
        assert format_energy(3.1e-6) == "3.1 µJ"

    def test_format_time(self):
        assert format_time(4.6e-3) == "4.6 ms"
        assert format_time(25e-9) == "25 ns"
        assert format_time(2.0 * GIGA) == "2 Gs"

    def test_format_small(self):
        assert format_energy(5e-16).endswith("fJ")


class TestValidation:
    def test_check_count_stops_at_intp(self):
        top = int(np.iinfo(np.intp).max)
        assert check_count("n", top) == top
        with pytest.raises(ValueError, match=f"n must be <= {top}, got {top + 1}"):
            check_count("n", top + 1)
        assert check_count("seed", 10**30, minimum=0, maximum=None) == 10**30

    def test_check_positive(self):
        assert check_positive("x", 1.5) == 1.5
        assert check_positive("x", 0.0, allow_zero=True) == 0.0
        with pytest.raises(ValueError):
            check_positive("x", 0.0)
        with pytest.raises(ValueError):
            check_positive("x", -1.0, allow_zero=True)
        assert check_positive("x", np.float32(0.5)) == 0.5
        assert type(check_positive("x", np.int64(3))) is float

    @pytest.mark.parametrize(
        "check",
        [
            check_real,
            check_positive,
            lambda name, value: check_in_range(name, value, 0.0, 1.0),
            check_probability,
        ],
        ids=["real", "positive", "in_range", "probability"],
    )
    def test_every_real_check_parses_one_way(self, check):
        """Not 1.0/0.0 for a bool, 0.5 for "0.5" or a bare TypeError for
        None: ``check_in_range`` and ``check_probability`` used to call
        ``float()`` first."""
        for bad in (True, False, np.True_, "0.5", None, 1j, [1.0]):
            with pytest.raises(ValueError, match=r"^x must be a real number, got "):
                check("x", bad)
        for bad in (np.nan, -np.inf, 10**400):
            with pytest.raises(ValueError, match=r"^x must be finite, got "):
                check("x", bad)
        assert check("x", np.float32(0.5)) == 0.5
        assert type(check("x", np.int64(1))) is float

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("allow_zero", [False, True])
    def test_check_positive_refuses_non_finite(self, bad, allow_zero):
        """``nan <= 0`` is False, so a sign test alone let NaN through."""
        with pytest.raises(ValueError, match=r"^dt must be finite, got (nan|inf|-inf)$"):
            check_positive("dt", bad, allow_zero=allow_zero)

    def test_check_finite_names_the_first_bad_entry(self):
        J = np.zeros((3, 3))
        J[1, 2] = np.inf
        J[2, 0] = np.nan
        with pytest.raises(ValueError, match=r"^couplings must be finite, got inf at \[1, 2\]$"):
            check_finite("couplings", J)
        with pytest.raises(ValueError, match=r"^fields must be finite, got nan at \[4\]$"):
            check_finite("fields", [0.0, 1.0, 2.0, 3.0, np.nan])
        rows, cols = np.array([0, 0, 3]), np.array([1, 3, 0])
        with pytest.raises(ValueError, match=r"got -inf at \[3, 0\]$"):
            check_finite("couplings", [1.0, 2.0, -np.inf], coords=(rows, cols))
        ok = check_finite("x", [1, 2])
        assert ok.dtype == np.float64 and ok.tolist() == [1.0, 2.0]

    def test_check_probability(self):
        assert check_probability("p", 0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability("p", 1.5)

    def test_check_in_range(self):
        assert check_in_range("v", 0.3, 0.0, 0.7) == 0.3
        with pytest.raises(ValueError):
            check_in_range("v", 0.8, 0.0, 0.7)

    def test_check_spin_vector(self):
        arr = check_spin_vector([1, -1, 1])
        assert arr.dtype == np.int8
        with pytest.raises(ValueError):
            check_spin_vector([[1, -1]])
        with pytest.raises(ValueError):
            check_spin_vector([1, 0, -1])
        with pytest.raises(ValueError):
            check_spin_vector([1, -1], n=3)

    def test_check_initial(self):
        """One start-state check for the batch, SB and serve boundaries."""
        flat = np.array([1, -1, 1, 1], dtype=np.int8)
        tiled = check_initial(flat, 3, 4)
        assert tiled.dtype == np.float64 and tiled.shape == (3, 4)
        assert np.array_equal(tiled, np.tile(flat, (3, 1)))
        stack = -np.ones((2, 4))
        assert np.array_equal(check_initial(stack, 2, 4), stack)
        with pytest.raises(ValueError, match=r"\(4,\) or \(2, 4\), got \(3, 4\)"):
            check_initial(np.ones((3, 4)), 2, 4)
        with pytest.raises(ValueError, match=r"got \(5,\)"):
            check_initial(np.ones(5), 2, 4)
        bad = np.ones((2, 4))
        bad[1, 2], bad[1, 3] = 0.5, 0.0
        with pytest.raises(ValueError, match=r"must be ±1; replica 1 has 0\.5 at spin 2"):
            check_initial(bad, 2, 4)

    def test_check_square_symmetric(self):
        J = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert check_square_symmetric(J).dtype == np.float64
        with pytest.raises(ValueError):
            check_square_symmetric(np.array([[0.0, 1.0], [0.9, 0.0]]))
        # Exactly symmetric passes on the equality test, and the tolerance
        # test still decides the rest: an asymmetry within atol (1e-9) is
        # accepted, one beyond it and a NaN (never equal, never close)
        # are refused.
        exact = np.array([[0.5, -0.25], [-0.25, 0.0]])
        assert np.array_equal(check_square_symmetric(exact), exact)
        near = np.array([[0.0, 0.0], [5e-10, 0.0]])
        assert np.array_equal(check_square_symmetric(near), near)
        for bad in (
            np.array([[0.0, 0.0], [3e-9, 0.0]]),
            np.array([[np.nan, 1.0], [1.0, 0.0]]),
        ):
            with pytest.raises(ValueError, match="symmetric"):
                check_square_symmetric(bad)

    @pytest.mark.parametrize("value", [10.7, True])
    @pytest.mark.parametrize(
        "build",
        [
            lambda v: MaxCutProblem(v, np.zeros((0, 2))),
            lambda v: SparseIsingModel.from_edges(v, [], [], []),
            lambda v: Permutation.identity(v),
            lambda v: Permutation([0, 1, 2], bandwidth_before=v),
            lambda v: Permutation([0, 1, 2], bandwidth_after=v),
            lambda v: recommended_backend(v, 3),
        ],
        ids=[
            "maxcut-num-nodes", "from-edges-n", "identity-n",
            "bandwidth-before", "bandwidth-after", "recommended-backend",
        ],
    )
    def test_count_sites_refuse_fractions_and_bools(self, build, value):
        """Each site used to truncate: 10.7 ran as 10 and True as 1."""
        build(4)  # an integer count still builds
        with pytest.raises(ValueError, match="must be an integer"):
            build(value)


class TestSortedKeys:
    @pytest.mark.parametrize("seed", range(5))
    def test_sorted_unique_is_np_unique(self, seed):
        keys = ensure_rng(seed).integers(-50, 50, size=seed * 40)
        assert np.array_equal(sorted_unique(keys), np.unique(keys))

    def test_first_repeat_names_the_earliest_repeat(self):
        assert first_repeat([]) is None
        assert first_repeat([4, 1, 3]) is None
        assert first_repeat([7, 5, 9, 5, 7, 9]) == (1, 3)


class TestTables:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, 2.34567], ["xyz", 5]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a ")
        assert "2.346" in out

    def test_render_table_title(self):
        out = render_table(["a"], [[1]], title="My Table")
        assert out.startswith("My Table")

    def test_render_table_validates_width(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_render_series(self):
        out = render_series("x", [1, 2], {"y": [10, 20], "z": [3, 4]})
        assert "x" in out and "y" in out and "z" in out
        assert "20" in out

    def test_render_series_validates_lengths(self):
        with pytest.raises(ValueError):
            render_series("x", [1, 2], {"y": [1]})
