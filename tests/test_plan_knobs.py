"""One solve boundary: a plan takes exactly the knobs of the engine it runs.

``compile_plan`` resolves the engine of its shape (method × ``replicas``
× ``tile_size``) and refuses any keyword that engine does not take before
any setup work; the engine constructors validate the values.  The
harness here drives every scalar knob of every shape through a set of
value classes that used to slip through (bools, numeric strings, ``None``,
non-finite and huge numbers).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.arch.cim_annealer as cim
import repro.core.plan as plan
from repro.core.plan import compile_plan, plan_engine
from repro.core.sb import SbEngine
from repro.core.solver import solve_ising
from repro.ising import generate_toroidal

#: A 12-spin ±1 torus (3 × 4).
TORUS = generate_toroidal(3, 4, True, 1).to_ising()

SHAPES = {
    "sequential": {},
    "replicas": {"replicas": 2},
    "tile_size": {"tile_size": 4},
}

FLIP_KNOBS = ("flips_per_iteration", "proposal")
INSITU_KNOBS = (*FLIP_KNOBS, "acceptance_scale")
SB_KNOBS = ("variant", "dt", "a0", "c0", "best_every")

#: The scalar knobs each (method, shape) takes.
SCALAR_KNOBS = {
    ("insitu", "sequential"): INSITU_KNOBS,
    ("sa", "sequential"): FLIP_KNOBS,
    ("mesa", "sequential"): ("flips_per_iteration", "epochs", "epoch_decay"),
    ("sb", "sequential"): SB_KNOBS,
    ("insitu", "replicas"): INSITU_KNOBS,
    ("sa", "replicas"): FLIP_KNOBS,
    ("sb", "replicas"): SB_KNOBS,
    ("insitu", "tile_size"): (*INSITU_KNOBS, "crossbar_backend"),
    ("sb", "tile_size"): SB_KNOBS,
}
CASES = [
    (method, shape, knob)
    for (method, shape), knobs in SCALAR_KNOBS.items()
    for knob in knobs
]

#: One strategy per value class: bool, numeric string, None, NaN, ±inf,
#: zero, negative, fractional and huge.
VALUE_CLASSES = st.one_of(
    st.booleans(),
    st.sampled_from(["0.5", "3", "1e3"]),
    st.none(),
    st.just(math.nan),
    st.sampled_from([math.inf, -math.inf]),
    st.sampled_from([0, 0.0]),
    st.integers(max_value=-1) | st.floats(max_value=-1e-9, allow_infinity=False),
    st.floats(min_value=0.01, max_value=0.99),
    st.integers(min_value=10**20, max_value=10**30),
)


@pytest.mark.parametrize("method,shape,knob", CASES)
@settings(max_examples=12, deadline=None)
@example(value=True)
@example(value="0.5")
@example(value=None)
@example(value=math.nan)
@example(value=math.inf)
@example(value=-math.inf)
@example(value=0)
@example(value=-1)
@example(value=0.5)
@example(value=10**30)
@given(value=VALUE_CLASSES)
def test_a_knob_value_runs_or_raises_one_value_error_naming_it(
    method, shape, knob, value
):
    try:
        result = compile_plan(
            TORUS, method=method, **SHAPES[shape], **{knob: value}
        ).execute(8)
    except ValueError as exc:
        assert type(exc) is ValueError
        assert knob in str(exc), str(exc)
    else:
        assert result.iterations == 8
        # A bool or a string never runs as the number it resembles.
        assert not isinstance(value, (bool, str))


#: Knobs a plan shape does not take, with one knob it does: each used to
#: compile, then raise a ``TypeError`` naming an engine class at execute.
MISAPPLIED = [
    (dict(method="sb", flips_per_iteration=3), "flips_per_iteration", "dt"),
    (dict(method="sa", replicas=4, acceptance_scale=2.0), "acceptance_scale", "schedule"),
    (dict(method="insitu", tile_size=8, flips_per_iteraton=2), "flips_per_iteraton",
     "crossbar_backend"),
    (dict(method="insitu", variant="ballistic"), "variant", "acceptance_scale"),
    (dict(method="insitu", replicas=2, record_trace=True), "record_trace", "encoder"),
    (dict(method="insitu", crossbar_backend="device"), "crossbar_backend", "evaluator"),
    (dict(method="sb", replicas=2, crossbar_backend="device"), "crossbar_backend",
     "variant"),
    (dict(method="sb", tile_size=8, permutation=np.arange(12)), "permutation", "c0"),
]


@pytest.fixture
def setup_calls(monkeypatch):
    """Spies on backend promotion, the layout race and tile programming."""
    calls = []

    def spy(name):
        def record(*args, **kw):
            calls.append(name)
            raise AssertionError(f"{name} ran before the boundary check")
        return record

    monkeypatch.setattr(plan, "as_backend", spy("as_backend"))
    monkeypatch.setattr(plan, "resolve_layout", spy("resolve_layout"))
    monkeypatch.setattr(cim, "compile_cim_program", spy("compile_cim_program"))
    return calls


@pytest.mark.parametrize(
    "kwargs,knob,taken", MISAPPLIED, ids=[case[1] for case in MISAPPLIED]
)
def test_a_misapplied_knob_fails_before_any_setup(setup_calls, kwargs, knob, taken):
    with pytest.raises(ValueError) as exc:
        compile_plan(TORUS, backend="sparse", reorder="auto", **kwargs)
    message = str(exc.value)
    assert f"method={kwargs['method']!r}" in message
    assert f"takes no {knob};" in message
    assert repr(taken) in message
    assert setup_calls == []


def test_solve_ising_refuses_a_bad_budget_before_compiling(setup_calls):
    with pytest.raises(ValueError, match="iterations must be >= 1"):
        solve_ising(TORUS, iterations=0, backend="sparse", reorder="rcm")
    assert setup_calls == []


def test_knob_sets_come_from_the_engine_signatures():
    from repro.arch.cim_annealer import InSituCimAnnealer
    from repro.core import BatchDirectEAnnealer, DirectEAnnealer, MesaAnnealer

    assert plan_engine("sa") is DirectEAnnealer
    assert plan_engine("mesa", ["epochs", "epoch_decay"]) is MesaAnnealer
    assert plan_engine("sa", ["schedule"], batched=True) is BatchDirectEAnnealer
    assert plan_engine("sb", ["dt"], tiled=True, batched=True) is SbEngine
    assert plan_engine(
        "insitu", ["config", "variation", "crossbar_backend", "use_encoder"],
        tiled=True,
    ) is InSituCimAnnealer
    # What the plan passes itself is never a caller's knob.
    for own in ("model", "seed", "replicas", "program", "matvec"):
        with pytest.raises(ValueError, match=f"takes no {own};"):
            plan_engine("sb", [own], tiled=True)


def test_a_shape_without_an_engine_names_the_methods_that_have_one():
    with pytest.raises(ValueError, match=r"'mesa' has no batch engine.*replicas"):
        compile_plan(TORUS, method="mesa", replicas=2)
    with pytest.raises(ValueError, match=r"no tiled engine.*method='insitu' or method='sb'"):
        compile_plan(TORUS, method="sa", tile_size=4)
    with pytest.raises(ValueError, match=r"no tiled batch engine.*use method='sb'$"):
        compile_plan(TORUS, method="insitu", tile_size=4, replicas=2)


def test_a_bad_crossbar_backend_is_named_as_the_caller_spelt_it(setup_calls):
    with pytest.raises(ValueError, match="unknown crossbar_backend 'analog'"):
        compile_plan(TORUS, tile_size=4, crossbar_backend="analog")
    assert setup_calls == []
