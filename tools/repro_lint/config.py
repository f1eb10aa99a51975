"""Repository-specific configuration for the invariant linter.

Everything path-shaped in here is a POSIX-style path *relative to the
repository root* (the ``--root`` the CLI runs from).  The allowlists are
deliberately explicit: each entry names the module that is *allowed* to
break an invariant, and the comment next to it says why.  New entries
belong in code review, not in a quick edit to make CI green.

The parity tables at the bottom are shared with the runtime test
(``tests/test_api_cli_parity.py``) so the static rule RPL006 and the
signature-introspection test can never drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Modules allowed to densify couplings (RPL001).  ``sparse.py`` *owns*
#: ``toarray``/``dense_couplings`` — the ban is on calling them from hot
#: paths, not on defining them.  Everything else must carry an inline
#: ``# repro-lint: disable=RPL001`` with a justification comment.
DENSIFY_PATH_ALLOWLIST: tuple[str, ...] = (
    "src/repro/ising/sparse.py",
)

#: Identifier names that the ``np.asarray``/``np.array`` half of RPL001
#: treats as "probably a coupling object".  A heuristic by construction:
#: the precise bans are ``.toarray()`` and ``dense_couplings()``.
COUPLING_NAMES: frozenset[str] = frozenset(
    {"model", "sparse_model", "packed_model", "coupling", "couplings",
     "hw_model"}
)

#: The one module allowed to call ``np.random.default_rng`` (RPL002):
#: the RNG plumbing itself.  Everyone else takes seeds/generators through
#: ``ensure_rng``/``spawn_rng`` so fixed-seed trajectories stay
#: bit-identical and replayable.
RNG_HOME: str = "src/repro/utils/rng.py"

#: ``np.random`` attributes that are *not* legacy global-state RNG
#: (types and bit generators used in annotations / isinstance checks).
NP_RANDOM_ALLOWED_ATTRS: frozenset[str] = frozenset(
    {
        "default_rng",  # still restricted to RNG_HOME, but not "legacy"
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Count-style keyword names that must be validated at public boundaries
#: (RPL003).  ``check_count`` rejects bools and non-integers; a bare
#: ``int(iterations)`` silently runs ``True`` as one iteration.
COUNT_PARAMS: frozenset[str] = frozenset(
    {
        "iterations",
        "replicas",
        "num_replicas",
        "tile_size",
        "flips_per_iteration",
        "best_every",
    }
)

#: Modules whose *public functions* RPL003 audits (engine ``run()``
#: methods are audited everywhere under ``src/``).
BOUNDARY_MODULES: tuple[str, ...] = (
    "src/repro/core/solver.py",
    "src/repro/core/plan.py",
    "src/repro/core/blockstack.py",
    "src/repro/cli.py",
    "src/repro/serve/jobs.py",
    "src/repro/serve/service.py",
    "src/repro/serve/protocol.py",
)

#: Callables that are known to validate the count parameters they are
#: handed (so forwarding to them satisfies RPL003).  ``solve_maxcut``
#: delegates every count knob to ``solve_ising``, which now delegates to
#: ``compile_plan`` — the boundary where the ``check_*`` battery runs.
#: ``reorder_permutation`` validates ``tile_size`` itself (it is the
#: partition-mode guard), so ``resolve_layout`` forwarding to it is safe.
VALIDATING_SINKS: frozenset[str] = frozenset(
    {
        "solve_ising",
        "solve_sb",
        "compile_plan",
        "reorder_permutation",
    }
)

#: Solve-setup primitives owned by ``repro.core.plan`` (RPL007): the
#: ancilla fold/strip pair and the reorder layout race.  Before the
#: compile/execute split these were duplicated across ``_solve_tiled``,
#: ``_solve_sb_tiled`` and the machine constructor and drifted; now any
#: library call site outside the allowlist must route through
#: ``compile_plan``/``resolve_layout`` or carry an audited suppression.
PLAN_SETUP_CALLS: frozenset[str] = frozenset(
    {
        "with_ancilla",
        "reorder_permutation",
        "_strip_ancilla",
    }
)

#: RPL007 ownership table: ``(owner module, owned calls, the route for
#: every other library module)``.  The rule flags *calls*, so the
#: defining methods (``model.py``, ``reorder.py``, ``coupling.py``) need no
#: entry.  The batch-state protocol belongs to the one replica loop
#: (``run_lanes``) and ``FlipSelector`` to the one sequential loop
#: (``SequentialAnnealer.run``), so a second per-iteration loop of either
#: kind cannot come back unnoticed.  ``TiledCrossbar`` construction belongs
#: to the one crossbar programming path (``compile_cim_program``), so no
#: machine or plan programs a tile grid of its own.
OWNED_CALLS: tuple[tuple[str, frozenset[str], str], ...] = (
    ("src/repro/core/plan.py", PLAN_SETUP_CALLS,
     "compile_plan()/resolve_layout()"),
    ("src/repro/core/batch.py",
     frozenset({"make_batch_state", "batch_update_fields"}),
     "run_lanes() or a batch engine's run()"),
    ("src/repro/core/annealer.py", frozenset({"FlipSelector"}),
     "a SequentialAnnealer subclass's accept rule"),
    ("src/repro/arch/cim_annealer.py", frozenset({"TiledCrossbar"}),
     "compile_cim_program()"),
)

#: The API/CLI parity contracts (RPL006 + tests/test_api_cli_parity.py).
#: Each contract pins one CLI subcommand to the API functions it fronts:
#: every keyword of those functions must be reachable through a flag on
#: that subparser.  ``skip_leading`` positional parameters are the
#: payload the subcommand reads from its file/connection arguments
#: (``solve_ising``'s model comes from the instance file); keywords in
#: ``cli_less`` intentionally have no flag and need a rationale comment.
@dataclass(frozen=True)
class ParityContract:
    """One subcommand ↔ API-function parity obligation."""

    subcommand: str
    module: str
    functions: tuple[str, ...]
    skip_leading: int = 1
    #: param → flag, when not the mechanical ``--kebab-case`` form.
    flag_map: tuple[tuple[str, str], ...] = ()
    cli_less: frozenset[str] = frozenset()


PARITY_CONTRACTS: tuple[ParityContract, ...] = (
    # ``reference_cut`` is *computed* by the CLI (``--reference``
    # triggers a reference-cut computation and threads the value).
    ParityContract(
        subcommand="solve",
        module="src/repro/core/solver.py",
        functions=("solve_ising", "solve_maxcut"),
        skip_leading=1,
        flag_map=(("reference_cut", "--reference"),),
    ),
    # ``model`` is parsed from the instance-file argument; ``initial``
    # (a warm-start spin array) is an in-process API affordance with no
    # sensible one-line CLI encoding.
    ParityContract(
        subcommand="submit",
        module="src/repro/serve/jobs.py",
        functions=("job_request",),
        skip_leading=0,
        flag_map=(("flips_per_iteration", "--flips"),),
        cli_less=frozenset({"model", "initial"}),
    ),
    ParityContract(
        subcommand="serve",
        module="src/repro/serve/service.py",
        functions=("service_config",),
        skip_leading=0,
    ),
)

#: The CLI module every parity contract's flags live in.
PARITY_CLI_MODULE: str = "src/repro/cli.py"

#: ``**solver_kwargs`` knobs the CLI exposes under bespoke flags.  Not
#: part of the signatures RPL006 walks, but pinned by the runtime parity
#: test so the flags cannot vanish while the engines still accept them.
SOLVER_KWARG_FLAGS: dict[str, str] = {
    "flips_per_iteration": "--flips",
    "variant": "--sb-variant",
}


@dataclass(frozen=True)
class LintConfig:
    """Bundled configuration handed to every rule instance."""

    densify_path_allowlist: tuple[str, ...] = DENSIFY_PATH_ALLOWLIST
    coupling_names: frozenset[str] = COUPLING_NAMES
    rng_home: str = RNG_HOME
    np_random_allowed_attrs: frozenset[str] = NP_RANDOM_ALLOWED_ATTRS
    count_params: frozenset[str] = COUNT_PARAMS
    boundary_modules: tuple[str, ...] = BOUNDARY_MODULES
    validating_sinks: frozenset[str] = VALIDATING_SINKS
    owned_calls: tuple[tuple[str, frozenset[str], str], ...] = OWNED_CALLS
    parity_contracts: tuple[ParityContract, ...] = PARITY_CONTRACTS
    parity_cli_module: str = PARITY_CLI_MODULE

    #: Default lint targets when the CLI is invoked without paths.
    default_paths: tuple[str, ...] = ("src", "benchmarks", "tests")
