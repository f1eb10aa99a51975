"""Import-graph pins: importing the library loads no library a solve never uses.

networkx (graph export and one bipartite check) and ``unittest.mock``
(``forbid_densification``, which pulls in asyncio) are imported inside the
functions that need them; ``repro.serve`` alone loads asyncio.  pytest
itself loads unittest, so each check runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGES = (
    "repro",
    "repro.core.plan",
    "repro.arch",
    "repro.circuits",
    "repro.devices",
    "repro.analysis",
    "repro.utils",
    "repro.cli",
)


def fresh_interpreter(code: str):
    """Run ``code`` in a new interpreter on ``src/``; return its printed JSON."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def loaded_after(*modules: str) -> set[str]:
    """Which of networkx, unittest and asyncio importing ``modules`` loads."""
    imports = "".join(f"import {m}\n" for m in modules)
    return set(
        fresh_interpreter(
            imports + "import json, sys\n"
            "print(json.dumps([m for m in ('networkx', 'unittest', 'asyncio') "
            "if m in sys.modules]))\n"
        )
    )


def test_library_imports_load_no_networkx_unittest_or_asyncio():
    assert loaded_after(*PACKAGES) == set()


def test_serve_loads_no_networkx_or_unittest():
    assert not loaded_after("repro.serve") & {"networkx", "unittest"}


def test_plan_and_serve_load_no_hardware_layer():
    """The plan resolves the tiled machine by name: only a tiled plan
    imports ``repro.arch`` (and through it ``repro.circuits``)."""
    for module in ("repro.core.plan", "repro.serve"):
        loaded = fresh_interpreter(
            f"import {module}\nimport json, sys\n"
            "print(json.dumps(sorted({m.split('.')[1] for m in sys.modules "
            "if m.split('.')[0] == 'repro' and '.' in m})))\n"
        )
        assert not {"arch", "circuits"} & set(loaded), (module, loaded)


def test_lazily_imported_functions_work_from_a_cold_import():
    got = fresh_interpreter(
        """
import json
import numpy as np
from repro.analysis.reference import exact_bipartite_optimum
from repro.ising import MaxCutProblem, SparseIsingModel
from repro.utils import forbid_densification

square = MaxCutProblem(4, np.array([[0, 1], [1, 2], [2, 3], [3, 0]]), np.full(4, 2.0))
back = MaxCutProblem.from_networkx(square.to_networkx())
triangle = MaxCutProblem(3, np.array([[0, 1], [1, 2], [2, 0]]))
model = SparseIsingModel.from_ising(triangle.to_ising())
try:
    with forbid_densification(trap_matrix_hat=False):
        model.toarray()
    trapped = False
except AssertionError:
    trapped = True
print(json.dumps({
    "round_trip": sorted(map(sorted, back.edge_array.tolist()))
    == sorted(map(sorted, square.edge_array.tolist()))
    and back.weight_array.tolist() == [2.0] * 4,
    "square": exact_bipartite_optimum(square),
    "triangle": exact_bipartite_optimum(triangle),
    "trapped": trapped,
    "restored": model.toarray().shape == (3, 3),
}))
"""
    )
    assert got == {
        "round_trip": True,
        "square": 8.0,
        "triangle": None,
        "trapped": True,
        "restored": True,
    }
