"""One validator per concept: budgets, indices, flip sets, edge lists, COP inputs.

Each boundary rule lives in one function of :mod:`repro.utils.validation`
and every entrance calls it, so a bad input gets exactly one error that
names it — the same text wherever it enters.  The cases below are the
inputs that used to be accepted, truncated or reported far from the
knob that caused them.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.arch import InSituCimAnnealer
from repro.core import (
    BatchDirectEAnnealer,
    BatchInSituAnnealer,
    DirectEAnnealer,
    InSituAnnealer,
    MesaAnnealer,
    compile_lane,
    compile_plan,
    flip_mask,
    solve_ising,
)
from repro.core.sb import SbEngine
from repro.core.schedule import ConstantSchedule, LinearSchedule, VbgStepSchedule
from repro.ising import (
    GraphColoringProblem,
    IsingModel,
    KnapsackProblem,
    MaxCutProblem,
    MaxIndependentSetProblem,
    NumberPartitioningProblem,
    QuboModel,
    SparseIsingModel,
    TravellingSalesmanProblem,
)
from repro.serve import job_request
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_count, check_edges, check_flip_set, check_index

BUDGET = (
    "iterations must be >= 1, got 0; the annealers need at least one "
    "proposal/accept step"
)


def torus(n: int = 12) -> SparseIsingModel:
    return MaxCutProblem(n, [(i, (i + 1) % n) for i in range(n)]).to_ising("sparse")


class TestIterationBudget:
    """Every entrance that takes ``iterations`` shares one check and text."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda m: solve_ising(m, iterations=0),
            lambda m: compile_plan(m).execute(0),
            lambda m: InSituAnnealer(m, seed=0).run(0),
            lambda m: DirectEAnnealer(m, seed=0).run(0),
            lambda m: MesaAnnealer(m, seed=0).run(0),
            lambda m: BatchInSituAnnealer(m, replicas=2, seed=0).run(0),
            lambda m: BatchDirectEAnnealer(m, replicas=2, seed=0).run(0),
            lambda m: compile_lane(m, iterations=0),
            lambda m: SbEngine(m, replicas=2, seed=0).run(0),
            lambda m: InSituCimAnnealer(m, seed=0).run(0),
            lambda m: ConstantSchedule(0, 1.0),
            lambda m: LinearSchedule(0, 1.0),
            lambda m: VbgStepSchedule(0),
        ],
        ids=[
            "solve_ising", "plan.execute", "insitu", "sa", "mesa", "batch-insitu",
            "batch-sa", "compile_lane", "sb", "machine", "constant-schedule",
            "linear-schedule", "vbg-schedule",
        ],
    )
    def test_one_message_at_every_entrance(self, run):
        with pytest.raises(ValueError) as info:
            run(torus())
        assert str(info.value) == BUDGET

    def test_service_prefixes_the_same_message(self):
        with pytest.raises(ValueError) as info:
            job_request("j", torus(), iterations=0)
        assert str(info.value) == f"job 'j': {BUDGET}"


class TestIntegerParse:
    """``check_count`` and ``check_index`` share one integer parse."""

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_wording_is_shared(self, value):
        with pytest.raises(ValueError) as count:
            check_count("k", value, minimum=0)
        with pytest.raises(ValueError) as index:
            check_index("k", value, 4)
        tail = f"got {value!r} (a bool would silently act as {int(value)})"
        assert str(count.value) == f"k must be an integer, {tail}"
        assert str(index.value) == f"k must be an integer index, {tail}"

    def test_integral_floats_and_numpy_integers_pass(self):
        assert check_count("k", 4.0) == 4
        assert check_index("k", np.int64(3), 4) == 3
        with pytest.raises(IndexError, match=r"^k must be in \[0, 4\), got -1$"):
            check_index("k", -1, 4)


class TestFlipSets:
    """Eq. 9 takes a set of distinct spins in range, on every backend."""

    def models(self):
        dense = IsingModel.random(6, with_fields=True, seed=2)
        return dense, SparseIsingModel.from_dense(dense.J, dense.h)

    @pytest.mark.parametrize("flips", [[-1], [5, -1], [0, 6]])
    def test_out_of_range_flip_is_refused_by_both_backends(self, flips):
        # A dense model used to wrap -1 to spin 5: [-1] returned spin 5's
        # single-flip ΔE, and [5, -1] flipped one spin for a set of two.
        for model in self.models():
            sigma = model.random_configuration(ensure_rng(0))
            with pytest.raises(IndexError, match=r"^flip_indices must lie in \[0, 6\)"):
                model.delta_energy_flips(sigma, flips)
        with pytest.raises(IndexError, match=r"^flip_indices must lie in \[0, 6\)"):
            flip_mask(6, flips)

    def test_repeat_is_named_by_position(self):
        for model in self.models():
            sigma = model.random_configuration(ensure_rng(0))
            with pytest.raises(
                ValueError,
                match=r"^flip_indices must be unique; spin 2 is at positions 1 and 3$",
            ):
                model.delta_energy_flips(sigma, [4, 2, 0, 2])

    @pytest.mark.parametrize("flips", [[1.5], [True, False], ["1"], [[0, 1]]])
    def test_non_integer_flip_sets_are_refused(self, flips):
        with pytest.raises(ValueError, match="^flip_indices must"):
            check_flip_set(flips, 6)

    def test_valid_sets_are_unchanged(self):
        dense, sparse = self.models()
        sigma = dense.random_configuration(ensure_rng(3))
        for flips in ([], 3, [0, 5], np.array([4.0, 1.0])):
            assert sparse.delta_energy_flips(sigma, flips) == dense.delta_energy_flips(
                sigma, flips
            )
        assert flip_mask(4, 2).tolist() == [0, 0, 1, 0]


class TestEdgeLists:
    def test_rows_are_named(self):
        with pytest.raises(
            ValueError, match=r"^edge endpoints out of range \[0, 3\): edge row 1 is \[2, 3\]$"
        ):
            check_edges(3, [[0, 1], [2, 3]])
        with pytest.raises(
            ValueError, match=r"^self loops are not allowed: edge row 1 is \[2, 2\]$"
        ):
            check_edges(3, [[0, 1], [2, 2]])

    def test_repeats_refused_only_when_unique(self):
        edges = [[0, 1], [1, 0]]
        with pytest.raises(ValueError, match="^duplicate edges are not allowed: edge rows 0 and 1"):
            check_edges(2, edges)
        assert check_edges(2, edges, unique=False).tolist() == edges

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([0, 1, 1, 2], r"edges must have shape \(m, 2\), got \(4,\)"),
            ([[0.5, 1]], "edges must hold integer node indices"),
            ([[True, False]], "edges must hold integer node indices"),
        ],
    )
    def test_malformed_lists_are_refused(self, edges, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            check_edges(3, edges)

    def test_integral_floats_and_empty_lists_pass(self):
        assert check_edges(3, np.array([[0.0, 2.0]])).tolist() == [[0, 2]]
        assert check_edges(3, []).shape == (0, 2)


NAN, INF = math.nan, math.inf
EDGES = np.array([[0, 1], [1, 2]])
ITEMS = (np.array([1.0, 2.0]), np.array([1.0, 3.0]))
CITIES = np.ones((3, 3)) - np.eye(3)


def _nan_at(array, index):
    array = np.array(array, dtype=np.float64)
    array[index] = NAN
    return array


@pytest.mark.parametrize(
    "build, expected",
    [
        # Accepted (and reshaped) before.
        (lambda: GraphColoringProblem(3, [0, 1, 1, 2], 2), r"edges must have shape \(m, 2\)"),
        (lambda: GraphColoringProblem(True, np.zeros((0, 2)), 2), "num_nodes must be an integer"),
        (lambda: GraphColoringProblem(2.5, EDGES, 2), "num_nodes must be an integer"),
        (
            lambda: GraphColoringProblem(3, EDGES, 2, conflict_weight=True),
            "conflict_weight must be a real number",
        ),
        # A TypeError later, in to_qubo.
        (lambda: GraphColoringProblem(3, EDGES, 2.5), "num_colors must be an integer"),
        # Failed later, naming no knob.
        (
            lambda: GraphColoringProblem(3, EDGES, 2, one_hot_weight=NAN),
            "one_hot_weight must be finite",
        ),
        (lambda: MaxIndependentSetProblem(2.5, EDGES), "num_nodes must be an integer"),
        (lambda: MaxIndependentSetProblem(3, EDGES, penalty=NAN), "penalty must be finite"),
        # Reported later as "quadratic must be symmetric".
        (
            lambda: KnapsackProblem(_nan_at(ITEMS[0], 1), ITEMS[1], 3),
            r"values must be finite, got nan at \[1\]",
        ),
        (lambda: KnapsackProblem(*ITEMS, 3, penalty=NAN), "penalty must be finite"),
        # A TypeError from the bare comparison.
        (lambda: KnapsackProblem(*ITEMS, 3, penalty="5"), "penalty must be a real number"),
        (lambda: NumberPartitioningProblem([1.0, NAN, 2.0]), "numbers must be finite"),
        (lambda: NumberPartitioningProblem([1.0, INF, 2.0]), "numbers must be finite"),
        # Reported as "distances must be symmetric".
        (
            lambda: TravellingSalesmanProblem(_nan_at(CITIES, (0, 1))),
            r"distances must be finite, got nan at \[0, 1\]",
        ),
        (lambda: TravellingSalesmanProblem(CITIES, penalty=NAN), "penalty must be finite"),
        (lambda: TravellingSalesmanProblem(CITIES, penalty=True), "penalty must be a real number"),
        # Stored as given, or accepted until to_ising.
        (lambda: QuboModel(np.zeros((2, 2)), offset="3"), "offset must be a real number"),
        (lambda: QuboModel(np.zeros((2, 2)), offset=True), "offset must be a real number"),
        (lambda: QuboModel(np.zeros((2, 2)), offset=NAN), "offset must be finite"),
        (lambda: QuboModel(np.zeros((2, 2)), [0.0, NAN]), "linear must be finite"),
        (lambda: QuboModel(_nan_at(np.zeros((2, 2)), (0, 1))), "quadratic must be finite"),
        (
            lambda: QuboModel.from_pairs(2, [0], [1], [1.0], offset=INF),
            "offset must be finite",
        ),
    ],
)
def test_cop_inputs_raise_one_error_naming_them(build, expected):
    with pytest.raises(ValueError, match=f"^{expected}"):
        build()


class TestCopIndices:
    def test_variable_index_uses_the_index_check(self):
        coloring = GraphColoringProblem(3, EDGES, 2)
        tsp = TravellingSalesmanProblem(CITIES)
        assert coloring.variable_index(2, 1) == 5
        assert tsp.variable_index(2, 1) == 7
        with pytest.raises(ValueError, match="^vertex must be an integer index"):
            coloring.variable_index(True, 0)
        with pytest.raises(IndexError, match=r"^color must be in \[0, 2\), got 2$"):
            coloring.variable_index(0, 2)
        with pytest.raises(IndexError, match=r"^position must be in \[0, 3\), got -1$"):
            tsp.variable_index(0, -1)

    def test_validated_scalars_are_stored_as_parsed(self):
        coloring = GraphColoringProblem(3.0, EDGES, 2, one_hot_weight=np.float32(4))
        assert coloring.num_nodes == 3 and type(coloring.num_nodes) is int
        assert coloring.one_hot_weight == 4.0
        assert QuboModel(np.zeros((2, 2)), offset=np.int64(3)).offset == 3.0
