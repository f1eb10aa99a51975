"""Runtime API/CLI parity: every contracted knob must be CLI-reachable.

The static rule RPL006 checks the same contracts by walking the AST of
the contracted API modules and ``cli.py``; this test checks them against
the *live* objects (``inspect.signature`` vs the built argparse parser),
so a refactor that confuses the static pattern-match still cannot
silently drop a flag.  Both sides share the ``PARITY_CONTRACTS`` table
in ``tools.repro_lint.config`` — updating a contract is a one-file edit
that review sees.
"""

from __future__ import annotations

import argparse
import inspect

from repro.cli import build_parser
from repro.core.solver import solve_ising, solve_maxcut
from repro.serve.jobs import job_request
from repro.serve.service import service_config
from tools.repro_lint.config import PARITY_CONTRACTS, SOLVER_KWARG_FLAGS

#: Live callables for every function named in the contracts table (the
#: lookup below asserts the table and this registry cannot drift).
CONTRACT_CALLABLES = {
    "solve_ising": solve_ising,
    "solve_maxcut": solve_maxcut,
    "job_request": job_request,
    "service_config": service_config,
}


def _actions(subcommand: str) -> list:
    """The argparse actions of one CLI subcommand."""
    parser = build_parser()
    return next(
        action.choices[subcommand]
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )._actions


def _option_strings(subcommand: str) -> set[str]:
    """All ``--flag`` option strings of one CLI subcommand."""
    return {flag for action in _actions(subcommand) for flag in action.option_strings}


def test_contract_functions_are_pinned():
    # The static rule and this test must audit the same functions.
    contracted = {
        name for contract in PARITY_CONTRACTS for name in contract.functions
    }
    assert contracted == set(CONTRACT_CALLABLES)


def test_every_contracted_kwarg_has_a_cli_flag():
    missing = []
    for contract in PARITY_CONTRACTS:
        flags = _option_strings(contract.subcommand)
        flag_map = dict(contract.flag_map)
        for name in contract.functions:
            fn = CONTRACT_CALLABLES[name]
            params = list(inspect.signature(fn).parameters.values())
            for param in params[contract.skip_leading:]:
                if param.kind is inspect.Parameter.VAR_KEYWORD:
                    continue
                if param.name in contract.cli_less:
                    continue
                expected = flag_map.get(
                    param.name, "--" + param.name.replace("_", "-")
                )
                if expected not in flags:
                    missing.append(
                        f"{name}({param.name}) -> {expected} "
                        f"[{contract.subcommand}]"
                    )
    assert not missing, (
        "contracted keyword(s) unreachable from the CLI: "
        + ", ".join(missing)
        + " — add the flag in cli.py or allowlist the kwarg in "
        "tools/repro_lint/config.py (PARITY_CONTRACTS) with a rationale"
    )


def test_engine_kwarg_flags_still_exist():
    # **solver_kwargs knobs the CLI exposes under bespoke flags: the
    # static rule cannot see them (they are not in the signatures), so
    # pin them here.
    flags = _option_strings("solve")
    for kwarg, flag in SOLVER_KWARG_FLAGS.items():
        assert flag in flags, (
            f"CLI flag {flag} (engine kwarg {kwarg!r}) disappeared from "
            "the solve subcommand"
        )


def test_cli_choices_match_the_library_tables():
    # The CLI spells its choices out, so that ``repro --help`` does not
    # import the solver stack; they must still be the library's.
    from repro.core.plan import SOLVE_METHODS
    from repro.core.reorder import REORDER_MODES
    from repro.ising.sparse import BACKENDS
    from repro.serve.jobs import SERVE_METHODS

    for subcommand, flag, table in (
        ("solve", "--method", SOLVE_METHODS),
        ("solve", "--backend", BACKENDS),
        ("solve", "--reorder", REORDER_MODES),
        ("submit", "--method", SERVE_METHODS),
        ("submit", "--backend", BACKENDS),
    ):
        (choices,) = (
            action.choices for action in _actions(subcommand)
            if flag in action.option_strings
        )
        assert sorted(choices) == sorted(table), (subcommand, flag)


def test_allowlists_stay_minimal():
    # Every allowlist entry must still correspond to a live keyword of
    # its own contract's functions; stale entries hide parity breaks.
    for contract in PARITY_CONTRACTS:
        known_params = set()
        for name in contract.functions:
            known_params.update(
                inspect.signature(CONTRACT_CALLABLES[name]).parameters
            )
        for param, _ in contract.flag_map:
            assert param in known_params, (
                f"stale flag_map entry in {contract.subcommand!r} "
                f"contract: {param!r}"
            )
        for param in contract.cli_less:
            assert param in known_params, (
                f"stale cli_less entry in {contract.subcommand!r} "
                f"contract: {param!r}"
            )
