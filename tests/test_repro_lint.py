"""Self-tests for the invariant linter (``tools/repro_lint``).

Each rule gets the four-way fixture treatment: a positive (the rule
fires), a negative (clean idiomatic code passes), a suppressed positive
(inline ``# repro-lint: disable=`` silences it), and an
unused-suppression check (a stale disable becomes an RPL000 finding).
The final gate test lints the real repository and requires zero
findings — the same invocation CI runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tools.repro_lint.config import LintConfig
from tools.repro_lint.engine import run_lint
from tools.repro_lint.reporters import render_json, render_text
from tools.repro_lint.rules import default_rules

REPO_ROOT = Path(__file__).resolve().parent.parent

# Built by concatenation so the engine's line-based suppression scanner
# does not read the fixture strings in *this* file as suppressions for
# this file's own (nonexistent) findings.
DISABLE = "# repro-lint" + ": disable="


def lint_tree(tmp_path: Path, files: dict[str, str], paths=None):
    """Write ``files`` (relative path -> source) under ``tmp_path``, lint."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    findings, _ = run_lint(paths or ["."], root=tmp_path)
    return findings


def codes(findings) -> list[str]:
    return [f.code for f in findings]


# ---------------------------------------------------------------- RPL001


class TestNoDensify:
    def test_toarray_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": "J = model.toarray()\n",
        })
        assert codes(findings) == ["RPL001"]
        assert findings[0].line == 1

    def test_dense_couplings_flagged_through_alias(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "from repro.core.coupling import dense_couplings as dc\n"
                "J = dc(model)\n"
            ),
        })
        assert codes(findings) == ["RPL001"]

    def test_asarray_on_coupling_name_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "import numpy as np\n"
                "J = np.asarray(model)\n"
            ),
        })
        assert codes(findings) == ["RPL001"]

    def test_asarray_on_plain_array_ok(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "import numpy as np\n"
                "x = np.asarray(values)\n"
            ),
        })
        assert findings == []

    def test_sparse_py_is_path_allowlisted(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/ising/sparse.py": "J = model.toarray()\n",
        })
        assert findings == []

    def test_suppressed_with_trailing_comment(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                f"J = model.toarray()  {DISABLE}RPL001\n"
            ),
        })
        assert findings == []

    def test_unused_suppression_reported(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                f"x = 1  {DISABLE}RPL001\n"
            ),
        })
        assert codes(findings) == ["RPL000"]


# ---------------------------------------------------------------- RPL002


class TestRngDiscipline:
    def test_legacy_global_call_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "import numpy as np\n"
                "x = np.random.rand(3)\n"
            ),
        })
        assert codes(findings) == ["RPL002"]
        assert "legacy" in findings[0].message

    def test_default_rng_outside_home_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "tests/test_x.py": (
                "import numpy as np\n"
                "rng = np.random.default_rng(0)\n"
            ),
        })
        assert codes(findings) == ["RPL002"]
        assert "ensure_rng" in findings[0].message

    def test_default_rng_inside_home_ok(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/utils/rng.py": (
                "import numpy as np\n"
                "rng = np.random.default_rng(0)\n"
            ),
        })
        assert findings == []

    def test_resolves_any_import_spelling(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "from numpy.random import default_rng\n"
                "rng = default_rng(0)\n"
            ),
        })
        assert codes(findings) == ["RPL002"]

    def test_generator_annotation_usage_ok(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "import numpy as np\n"
                "def f(rng):\n"
                "    assert isinstance(rng, np.random.Generator)\n"
                "    return np.random.SeedSequence(1)\n"
            ),
        })
        assert findings == []

    def test_comment_line_suppression(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "tests/test_x.py": (
                "import numpy as np\n"
                f"{DISABLE}RPL002\n"
                "rng = np.random.default_rng(0)\n"
            ),
        })
        assert findings == []


# ---------------------------------------------------------------- RPL003


class TestBoundaryValidation:
    def test_unvalidated_public_boundary_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/solver.py": (
                "def solve_thing(model, iterations=1000):\n"
                "    return run_all(model, int(iterations))\n"
            ),
        })
        assert codes(findings) == ["RPL003"]
        assert "iterations" in findings[0].message

    def test_check_count_satisfies(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/solver.py": (
                "from repro.utils.validation import check_count\n"
                "def solve_thing(model, iterations=1000):\n"
                "    iterations = check_count('iterations', iterations)\n"
                "    return run_all(model, iterations)\n"
            ),
        })
        assert findings == []

    def test_forwarding_to_validating_sink_satisfies(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/solver.py": (
                "def solve_wrapper(problem, iterations=1000):\n"
                "    return solve_ising(problem.to_ising(), iterations=iterations)\n"
            ),
        })
        assert findings == []

    def test_private_function_not_audited(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/solver.py": (
                "def _helper(model, iterations):\n"
                "    return iterations\n"
            ),
        })
        assert findings == []

    def test_engine_run_method_audited_everywhere_in_src(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/arch/machine.py": (
                "class Machine:\n"
                "    def run(self, iterations):\n"
                "        return loop(iterations)\n"
            ),
        })
        assert codes(findings) == ["RPL003"]

    def test_non_count_params_ignored(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/solver.py": (
                "def solve_thing(model, method='insitu'):\n"
                "    return dispatch(method)\n"
            ),
        })
        assert findings == []

    def test_parameter_truncated_before_its_check_flagged(self, tmp_path):
        # Anywhere in src/: the check comes too late, 10.7 is already 10.
        findings = lint_tree(tmp_path, {
            "src/repro/ising/graph.py": (
                "class Graph:\n"
                "    @classmethod\n"
                "    def from_edges(cls, n, rows):\n"
                "        size = int(n)\n"
                "        return check_count('n', n), size\n"
            ),
        })
        assert codes(findings) == ["RPL003"]
        assert findings[0].line == 4
        assert "parameter 'n' to int()" in findings[0].message

    def test_post_init_field_truncated_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/ising/graph.py": (
                "from dataclasses import dataclass\n"
                "@dataclass\n"
                "class Graph:\n"
                "    num_nodes: int\n"
                "    def __post_init__(self):\n"
                "        self.num_nodes = int(self.num_nodes)\n"
            ),
        })
        assert codes(findings) == ["RPL003"]
        assert "field 'num_nodes'" in findings[0].message

    def test_checked_derived_private_and_helper_casts_ok(self, tmp_path):
        source = (
            "from dataclasses import dataclass\n"
            "def build(n, degree, model):\n"
            "    n = check_count('n', n)\n"
            "    return int(n), int(round(degree * n)), int(model.num_spins)\n"
            "def _helper(n):\n"
            "    return int(n)\n"
            "def check_size(name, value):\n"
            "    return int(value)\n"
            "@dataclass\n"
            "class Graph:\n"
            "    num_nodes: int\n"
            "    def __post_init__(self):\n"
            "        check_count('num_nodes', self.num_nodes)\n"
            "        self.num_nodes = int(self.num_nodes)\n"
        )
        findings = lint_tree(tmp_path, {
            "src/repro/ising/graph.py": source,
            "tests/test_graph.py": "def build(n):\n    return int(n)\n",
        })
        assert findings == []

    def test_truncation_suppressed_with_caller_audit(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/proposal.py": (
                "class Selector:\n"
                "    def __init__(self, n):\n"
                "        # Only the validated loop builds one.\n"
                f"        self.n = int(n)  {DISABLE}RPL003\n"
            ),
        })
        assert findings == []


# ---------------------------------------------------------------- RPL004


class TestReshapeScatterAlias:
    def test_reshape_scatter_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "g.reshape(-1)[flat] -= 2.0 * contrib\n"
            ),
        })
        assert codes(findings) == ["RPL004"]

    def test_ravel_scatter_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": "g.ravel()[flat] = 0.0\n",
        })
        assert codes(findings) == ["RPL004"]

    def test_reading_through_reshape_ok(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": "vals = g.reshape(-1)[flat]\n",
        })
        assert findings == []

    def test_non_flatten_reshape_ok(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": "g.reshape(4, 4)[0] = 1.0\n",
        })
        assert findings == []

    def test_suppressed_with_contiguity_audit(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "# Aliasing audited: g is allocated C-order above.\n"
                f"{DISABLE}RPL004\n"
                "g.reshape(-1)[flat] -= contrib\n"
            ),
        })
        assert findings == []

    def test_ufunc_at_through_reshape_flagged(self, tmp_path):
        """The packed backend's XOR-word scatter shape: ufunc.at through
        a flattening call mutates the base only when it aliases."""
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "import numpy as np\n"
                "np.bitwise_xor.at(words.reshape(-1), flat, masks)\n"
            ),
        })
        assert codes(findings) == ["RPL004"]

    def test_ufunc_at_through_ravel_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "import numpy as np\n"
                "np.add.at(g.ravel(), flat, contrib)\n"
            ),
        })
        assert codes(findings) == ["RPL004"]

    def test_ufunc_at_on_direct_array_ok(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "import numpy as np\n"
                "np.add.at(g, idx, contrib)\n"
            ),
        })
        assert findings == []

    def test_ufunc_at_suppressed_with_contiguity_audit(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "# Aliasing audited: words is C-contiguous by construction.\n"
                f"{DISABLE}RPL004\n"
                "np.bitwise_xor.at(words.reshape(-1), flat, masks)\n"
            ),
        })
        assert findings == []

    def test_held_view_scatter_flagged(self, tmp_path):
        """The hoisted-loop shape: the view is bound once, scattered later."""
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "import numpy as np\n"
                "def step(g, words, flat, masks, contrib):\n"
                "    g_flat = g.reshape(-1)\n"
                "    bits = words.ravel()\n"
                "    for _ in range(3):\n"
                "        g_flat[flat] -= contrib\n"
                "    bits[flat] = 0\n"
                "    np.bitwise_xor.at(bits, flat, masks)\n"
            ),
        })
        assert codes(findings) == ["RPL004"] * 3
        assert [f.line for f in findings] == [6, 7, 8]
        assert "'g_flat'" in findings[0].message

    def test_held_view_scatter_in_a_closure_flagged(self, tmp_path):
        """A per-chunk handle: the closure scatters into the caller's view."""
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "def locate(g, addr):\n"
                "    flat = g.reshape(-1)\n"
                "    def flip(i, vals):\n"
                "        flat[addr[i]] = -vals\n"
                "    return flip\n"
            ),
        })
        assert codes(findings) == ["RPL004"]
        assert findings[0].line == 4

    def test_held_view_read_or_other_scope_ok(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "def reads(g, flat):\n"
                "    g_flat = g.reshape(-1)\n"
                "    block = g.reshape(4, 4)\n"
                "    block[0] = 1.0\n"
                "    return g_flat[flat]\n"
                "def other_scope(g_flat, flat):\n"
                "    g_flat[flat] = 0.0\n"
            ),
        })
        assert findings == []

    def test_held_view_suppressed_with_contiguity_audit(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "def step(g, flat, contrib):\n"
                "    g_flat = g.reshape(-1)\n"
                "    # Aliasing audited: g is allocated C-order.\n"
                f"    {DISABLE}RPL004\n"
                "    g_flat[flat] -= contrib\n"
            ),
        })
        assert findings == []

    def test_memoryview_of_a_call_result_flagged(self, tmp_path):
        """A write through it reaches x only when the call returned a view."""
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "import numpy as np\n"
                "def kernel(x, assign, i):\n"
                "    flat = memoryview(np.ascontiguousarray(x))\n"
                "    small = memoryview(assign.astype(np.int32))\n"
                "    grid = memoryview(x.reshape(4, 4))\n"
                "    flat[i] = 0.0\n"
                "    small[i] += 1\n"
                "    grid[0, 1] = 2.0\n"
                "    memoryview(x.astype(np.float32))[i] = 1.0\n"
            ),
        })
        assert codes(findings) == ["RPL004"] * 4
        assert [f.line for f in findings] == [6, 7, 8, 9]
        assert "the memoryview 'flat'" in findings[0].message
        assert "a memoryview of a call result" in findings[3].message

    def test_memoryview_of_a_call_result_in_a_closure_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "import numpy as np\n"
                "def sweep(assign):\n"
                "    asg = memoryview(np.ascontiguousarray(assign))\n"
                "    def move(v, b):\n"
                "        asg[v] = b\n"
                "    return move\n"
            ),
        })
        assert codes(findings) == ["RPL004"]
        assert findings[0].line == 5

    def test_memoryview_of_a_name_or_attribute_ok(self, tmp_path):
        """Those export the array itself: every write reaches it."""
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "import numpy as np\n"
                "def kernel(self, assign, i):\n"
                "    asg = memoryview(assign)\n"
                "    state = memoryview(self.state)\n"
                "    ptr, mark = (memoryview(a) for a in (self.ptr, assign))\n"
                "    asg[i] = 1\n"
                "    state[i] = 0\n"
                "    mark[i] += 1\n"
                "    order = memoryview(np.argsort(assign))\n"
                "    return [ptr[v] for v in order]\n"
            ),
        })
        assert findings == []

    def test_memoryview_of_a_call_result_suppressed(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "import numpy as np\n"
                "def kernel(x, i):\n"
                "    flat = memoryview(np.ascontiguousarray(x))\n"
                "    # Aliasing audited: x is allocated C-contiguous above.\n"
                f"    {DISABLE}RPL004\n"
                "    flat[i] = 0.0\n"
            ),
        })
        assert findings == []


# ---------------------------------------------------------------- RPL005


class TestUlpDrift:
    def test_np_power_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "import numpy as np\n"
                "p = np.power(alpha, ks)\n"
            ),
        })
        assert codes(findings) == ["RPL005"]

    def test_math_pow_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "import math\n"
                "p = math.pow(alpha, k)\n"
            ),
        })
        assert codes(findings) == ["RPL005"]

    def test_double_star_ok(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": "p = alpha ** ks\n",
        })
        assert findings == []


# ---------------------------------------------------------------- RPL006


PARITY_SOLVER = (
    "def solve_ising(model, method='insitu', iterations=1000, seed=None):\n"
    "    iterations = check_count('iterations', iterations)\n"
    "    return None\n"
    "def solve_maxcut(problem, method='insitu', iterations=1000, seed=None,\n"
    "                 reference_cut=None):\n"
    "    return solve_ising(problem, method, iterations=iterations, seed=seed)\n"
)

PARITY_CLI_OK = (
    "import argparse\n"
    "def build_parser():\n"
    "    parser = argparse.ArgumentParser()\n"
    "    sub = parser.add_subparsers()\n"
    "    solve = sub.add_parser('solve')\n"
    "    solve.add_argument('--method')\n"
    "    solve.add_argument('--iterations', type=int)\n"
    "    solve.add_argument('--seed', type=int)\n"
    "    solve.add_argument('--reference', action='store_true')\n"
    "    return parser\n"
)


class TestApiCliParity:
    def test_fully_wired_cli_is_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/solver.py": PARITY_SOLVER,
            "src/repro/cli.py": PARITY_CLI_OK,
        })
        assert findings == []

    def test_missing_flag_flagged_cross_file(self, tmp_path):
        cli = PARITY_CLI_OK.replace(
            "    solve.add_argument('--seed', type=int)\n", ""
        )
        findings = lint_tree(tmp_path, {
            "src/repro/core/solver.py": PARITY_SOLVER,
            "src/repro/cli.py": cli,
        })
        # Both solve functions take `seed`, so the knob is reported per
        # function, anchored at the solver (where the fix is specified).
        assert codes(findings) == ["RPL006", "RPL006"]
        assert all("--seed" in f.message for f in findings)
        assert all(f.path == "src/repro/core/solver.py" for f in findings)

    def test_flag_map_is_honoured(self, tmp_path):
        # reference_cut maps to --reference; removing that flag must fire.
        cli = PARITY_CLI_OK.replace(
            "    solve.add_argument('--reference', action='store_true')\n", ""
        )
        findings = lint_tree(tmp_path, {
            "src/repro/core/solver.py": PARITY_SOLVER,
            "src/repro/cli.py": cli,
        })
        assert codes(findings) == ["RPL006"]
        assert "--reference" in findings[0].message

    def test_missing_solve_subparser_is_reported(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/solver.py": PARITY_SOLVER,
            "src/repro/cli.py": "import argparse\n",
        })
        assert codes(findings) == ["RPL006"]
        assert "solve" in findings[0].message


# ---------------------------------------------------------------- RPL007


class TestPlanOwnership:
    def test_fold_and_layout_calls_flagged_in_library_code(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/arch/machine.py": (
                "work = model.with_ancilla()\n"
                "perm = reorder_permutation(work, 'rcm', tile_size=64)\n"
            ),
        })
        assert codes(findings) == ["RPL007", "RPL007"]
        assert "compile_plan" in findings[0].message

    def test_strip_helpers_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/hot.py": (
                "result = _strip_ancilla(result)\n"
            ),
        })
        assert codes(findings) == ["RPL007"]

    def test_plan_module_owns_the_primitives(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/plan.py": (
                "work = model.with_ancilla()\n"
                "perm = reorder_permutation(work, 'rcm')\n"
                "result = _strip_ancilla(result)\n"
            ),
        })
        assert findings == []

    def test_tests_and_benchmarks_exempt(self, tmp_path):
        # Asserting fold/strip semantics requires calling them — the
        # ownership ban only applies to library code under src/.
        findings = lint_tree(tmp_path, {
            "tests/test_fold.py": "work = model.with_ancilla()\n",
            "benchmarks/bench_fold.py": (
                "perm = reorder_permutation(m, 'rcm', tile_size=64)\n"
            ),
        })
        assert findings == []

    def test_suppressed_with_ownership_audit(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/arch/machine.py": (
                "# Fold owned here: equivalence probe against the plan.\n"
                f"work = model.with_ancilla()  {DISABLE}RPL007\n"
            ),
        })
        assert findings == []

    def test_unused_suppression_reported(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/arch/machine.py": (
                f"work = model.fold()  {DISABLE}RPL007\n"
            ),
        })
        assert codes(findings) == ["RPL000"]

    def test_batch_state_protocol_owned_by_the_batch_module(self, tmp_path):
        # A second replica loop outside repro/core/batch.py is flagged;
        # the owner, tests and benchmarks drive the protocol freely.
        loop = (
            "state = ops.make_batch_state(sigma)\n"
            "ops.batch_update_fields(g, acc, cols, vals)\n"
        )
        findings = lint_tree(tmp_path, {
            "src/repro/core/blockstack.py": loop,
            "src/repro/core/batch.py": loop,
            "tests/test_loop.py": loop,
            "benchmarks/bench_loop.py": loop,
        })
        assert codes(findings) == ["RPL007", "RPL007"]
        assert {f.path for f in findings} == {"src/repro/core/blockstack.py"}
        assert "run_lanes" in findings[0].message

    def test_flip_selector_owned_by_the_sequential_loop(self, tmp_path):
        # A second sequential loop outside repro/core/annealer.py is
        # flagged; the owner, tests and benchmarks construct it freely.
        loop = "selector = FlipSelector(n, t, 'scan', rng, index_map=fwd)\n"
        findings = lint_tree(tmp_path, {
            "src/repro/core/sa.py": loop,
            "src/repro/core/annealer.py": loop,
            "tests/test_loop.py": loop,
            "benchmarks/bench_loop.py": loop,
        })
        assert codes(findings) == ["RPL007"]
        assert findings[0].path == "src/repro/core/sa.py"
        assert "SequentialAnnealer" in findings[0].message

    def test_flip_selector_suppressed_with_ownership_audit(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/sa.py": (
                "# Owned here: a proposal-stream probe, not a loop.\n"
                f"selector = proposal.FlipSelector(n, 1, 'random', rng)  {DISABLE}RPL007\n"
            ),
        })
        assert findings == []

    def test_tile_grid_programmed_only_by_the_programming_path(self, tmp_path):
        # A second programming path (the old tiled-SB plan branch) is
        # flagged; the owner, tests and benchmarks construct grids freely.
        grid = "crossbar = TiledCrossbar(matrix, tile_size=tile_size)\n"
        findings = lint_tree(tmp_path, {
            "src/repro/core/plan.py": grid,
            "src/repro/arch/baselines.py": "xb = tiling.TiledCrossbar(J, tile_size=8)\n",
            "src/repro/arch/cim_annealer.py": grid,
            "tests/test_grid.py": grid,
            "benchmarks/bench_grid.py": grid,
        })
        assert codes(findings) == ["RPL007", "RPL007"]
        assert {f.path for f in findings} == {
            "src/repro/core/plan.py", "src/repro/arch/baselines.py",
        }
        assert "compile_cim_program()" in findings[0].message

    def test_tile_grid_suppressed_with_ownership_audit(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/arch/tiling.py": (
                "# Owned here: a grid probe that programs nothing.\n"
                f"probe = TiledCrossbar(m, tile_size=2)  {DISABLE}RPL007\n"
            ),
        })
        assert findings == []


# ------------------------------------------------------------ engine/API


class TestEngine:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/bad.py": "def broken(:\n",
        })
        assert codes(findings) == ["RPL900"]

    def test_findings_sorted_and_multi_code_suppression(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/a.py": (
                "import numpy as np\n"
                "x = np.random.rand(3)\n"
                "J = model.toarray()\n"
            ),
            "src/repro/core/b.py": (
                "import numpy as np\n"
                "J = np.asarray(model); x = np.random.rand(2)"
                f"  {DISABLE}RPL001, RPL002\n"
            ),
        })
        assert codes(findings) == ["RPL002", "RPL001"]
        assert [f.path for f in findings] == ["src/repro/core/a.py"] * 2
        assert [f.line for f in findings] == [2, 3]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_lint(["nowhere"], root=tmp_path)

    def test_json_reporter_document(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "x.py").write_text("J = model.toarray()\n")
        findings, scanned = run_lint(["src"], root=tmp_path)
        rules = default_rules(LintConfig())
        doc = json.loads(render_json(findings, scanned, rules))
        assert doc["clean"] is False
        assert doc["files_scanned"] == 1
        assert [f["code"] for f in doc["findings"]] == ["RPL001"]
        assert {r["code"] for r in doc["rules"]} == {
            "RPL001", "RPL002", "RPL003", "RPL004", "RPL005", "RPL006",
            "RPL007",
        }

    def test_text_reporter_clean_line(self):
        rules = default_rules(LintConfig())
        out = render_text([], 10, rules)
        assert out == "repro-lint: clean (10 files, 7 rules)"


# ----------------------------------------------------------------- gates


class TestRepositoryGate:
    def test_repository_lints_clean(self):
        # The exact contract CI enforces: zero findings, zero unused
        # suppressions, over the default lint targets.
        findings, scanned = run_lint(
            ["src", "benchmarks", "tests"], root=REPO_ROOT
        )
        assert scanned > 100
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_cli_exit_codes(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.repro_lint",
             "src", "benchmarks", "tests"],
            cwd=REPO_ROOT, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "repro-lint: clean" in proc.stdout

        (tmp_path / "dirty").mkdir()
        (tmp_path / "dirty" / "x.py").write_text("J = model.toarray()\n")
        proc = subprocess.run(
            [sys.executable, "-m", "tools.repro_lint", "dirty",
             "--root", str(tmp_path)],
            cwd=REPO_ROOT, capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "RPL001" in proc.stdout
