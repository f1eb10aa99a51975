"""The invariant rules.

Each rule encodes a correctness contract this repository has actually
been burned by (the PR that motivated it is named in the rule docstring),
so a finding is never stylistic: it is "this line can silently break a
performance claim or a golden trajectory".

Rules implement ``check(ctx)`` for single-file passes and/or
``finish(project)`` for cross-file passes run after every file has been
parsed.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from fnmatch import fnmatch

from tools.repro_lint.config import LintConfig
from tools.repro_lint.engine import FileContext, Finding, Project


class Rule:
    """Base class: rules yield findings from per-file or project passes."""

    code: str = "RPL999"
    name: str = "abstract"
    summary: str = ""

    def __init__(self, config: LintConfig) -> None:
        self.config = config

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def finish(self, project: Project) -> Iterable[Finding]:
        return ()

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            ctx.path, getattr(node, "lineno", 1), getattr(node, "col_offset", 0),
            self.code, message,
        )


def _call_name(node: ast.Call) -> str | None:
    """The simple (rightmost) name of a call target, if any."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Nodes of one scope's body (module, class, function), not of nested ones."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _name_refs(nodes: Iterable[ast.expr]) -> Iterator[str]:
    for arg in nodes:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Name):
                yield sub.id


def _self_attr_refs(nodes: Iterable[ast.expr]) -> Iterator[str]:
    """``x`` for every ``self.x`` in ``nodes``."""
    for arg in nodes:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Attribute) and getattr(sub.value, "id", "") == "self":
                yield sub.attr


class NoDensifyRule(Rule):
    """RPL001 — densification ban on the sparse/tiled hot paths.

    ``.toarray()`` / ``dense_couplings()`` materialise the O(n²) coupling
    matrix that PR 1/2 spent two releases eliminating; one stray call on a
    solver path silently blows the O(nnz) memory budget that the scaling
    benches assert.  Programming a physical crossbar *is* densification,
    so the arch sites carry inline allowlist entries and ``sparse.py``
    (which owns the converters) is path-allowlisted in the config.
    """

    code = "RPL001"
    name = "no-densify"
    summary = (
        "no .toarray()/dense_couplings()/np.asarray-on-couplings outside "
        "the allowlisted arch/quantize sites"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if any(fnmatch(ctx.path, pat) for pat in self.config.densify_path_allowlist):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "toarray":
                yield self.finding(
                    ctx, node,
                    ".toarray() materialises the dense (n, n) coupling "
                    "matrix — solver paths must stay O(nnz); use "
                    "coupling_ops(), or suppress with a justification if "
                    "this is a crossbar-programming/equivalence site",
                )
                continue
            dotted = ctx.dotted(func)
            if dotted is not None and (
                dotted == "dense_couplings" or dotted.endswith(".dense_couplings")
            ):
                yield self.finding(
                    ctx, node,
                    "dense_couplings() densifies either backend — only "
                    "crossbar-programming sites may call it (inline-"
                    "suppress with the reason), solver paths go through "
                    "coupling_ops()",
                )
                continue
            if dotted in ("numpy.asarray", "numpy.array") and node.args:
                arg = node.args[0]
                target = None
                if isinstance(arg, ast.Name):
                    target = arg.id
                elif isinstance(arg, ast.Attribute):
                    target = arg.attr
                if target in self.config.coupling_names:
                    yield self.finding(
                        ctx, node,
                        f"np.{dotted.rsplit('.', 1)[1]}({target}) on a "
                        "coupling object densifies it — convert through "
                        "as_backend()/dense_couplings() at an allowlisted "
                        "site instead",
                    )


class RngDisciplineRule(Rule):
    """RPL002 — RNG discipline for bit-identical fixed-seed trajectories.

    Legacy ``np.random.*`` module calls mutate hidden global state, so one
    call anywhere desynchronises every golden-regression stream.  Even
    ``default_rng`` is restricted to ``repro.utils.rng``: components take
    seeds through ``ensure_rng``/``spawn_rng`` so streams thread
    explicitly and replica spawning stays deterministic.
    """

    code = "RPL002"
    name = "rng-discipline"
    summary = (
        "no legacy np.random.* global-state calls; np.random.default_rng "
        "only inside repro.utils.rng (use ensure_rng/spawn_rng)"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted(node.func)
            if dotted is None or not dotted.startswith("numpy.random."):
                continue
            attr = dotted[len("numpy.random."):].split(".")[0]
            if dotted == "numpy.random.default_rng":
                if ctx.path != self.config.rng_home:
                    yield self.finding(
                        ctx, node,
                        "np.random.default_rng() outside repro.utils.rng — "
                        "take an RngLike seed and route it through "
                        "ensure_rng()/spawn_rng() so streams thread "
                        "explicitly",
                    )
            elif attr not in self.config.np_random_allowed_attrs:
                yield self.finding(
                    ctx, node,
                    f"legacy global-state RNG call np.random.{attr}() — "
                    "it desynchronises every fixed-seed trajectory; use a "
                    "Generator from ensure_rng()",
                )


class BoundaryValidationRule(Rule):
    """RPL003 — count parameters validated at public boundaries.

    ``iterations=True`` used to slip through ``operator.index`` and
    silently run one iteration (fixed in PR 2/4 with ``check_count``).
    Public functions in the solve/CLI modules and every engine ``run()``
    method must validate count-style parameters with a ``check_*``
    helper, or forward them to a callee that does (``solve_ising``).

    The same bug class, silent truncation: anywhere in ``src/``, a
    public function's parameter, or a dataclass field read in
    ``__post_init__``, handed straight to ``int()`` before any
    ``check_*`` call validates it (``int(10.7)`` is 10, ``int(True)``
    is 1).  The ``check_*`` helpers themselves are exempt.
    """

    code = "RPL003"
    name = "boundary-validation"
    summary = (
        "public solve/CLI functions and engine run() methods must "
        "check_*-validate count kwargs (iterations/replicas/...) or "
        "forward them to a validating sink; no public parameter or "
        "__post_init__ field reaches int() before a check_* call"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        is_boundary_module = ctx.path in self.config.boundary_modules
        is_src = ctx.path.startswith("src/")
        if not (is_boundary_module or is_src):
            return
        for func, cls in self._functions(ctx.tree):
            audited = (
                (is_boundary_module and not func.name.startswith("_"))
                or (is_src and cls is not None and func.name == "run")
            )
            unvalidated = set()
            for param in self._params(func) if audited else ():
                if param not in self.config.count_params:
                    continue
                if not self._validated(func, param):
                    unvalidated.add(param)
                    yield self.finding(
                        ctx, func,
                        f"{func.name}() accepts count parameter "
                        f"{param!r} but never validates it — call "
                        f"check_count(\"{param}\", {param}) at the "
                        f"boundary (bools/floats otherwise run silently)",
                    )
            if is_src:
                yield from self._truncations(ctx, func, cls, unvalidated)

    def _truncations(self, ctx, func, cls, unvalidated) -> Iterator[Finding]:
        """Casts of ``func``'s parameters (or fields) not reported unvalidated."""
        if cls is not None and func.name == "__post_init__":
            params = {
                stmt.target.id for stmt in cls.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            }
            # A field is read as `self.<field>`, a parameter by its name.
            held, refs, what = ast.Attribute, _self_attr_refs, "field"
        elif func.name.startswith("check_") or (
            func.name.startswith("_") and func.name != "__init__"
        ):
            return
        else:
            params = set(self._params(func)) - unvalidated
            held, refs, what = ast.Name, _name_refs, "parameter"
        for node in ast.walk(func):
            if not (
                isinstance(node, ast.Call) and getattr(node.func, "id", "") == "int"
                and len(node.args) == 1 and isinstance(node.args[0], held)
            ):
                continue
            param = next(refs(node.args), None)
            if param in params and not self._validated(func, param, refs, before=node):
                yield self.finding(
                    ctx, node,
                    f"{func.name}() hands {what} {param!r} to int() before any "
                    f"check_* call — int(10.7) is 10 and int(True) is 1; call "
                    f"check_count(\"{param}\", ...) first",
                )

    @staticmethod
    def _params(func: ast.AST) -> list[str]:
        args = func.args
        return [
            a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            if a.arg not in ("self", "cls")
        ]

    @staticmethod
    def _functions(tree: ast.Module):
        """Yield ``(function_node, enclosing class or None)`` over the module."""

        def walk(node: ast.AST, cls: ast.ClassDef | None):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield child, cls
                    yield from walk(child, None)
                elif isinstance(child, ast.ClassDef):
                    yield from walk(child, child)
                else:
                    yield from walk(child, cls)

        yield from walk(tree, None)

    def _validated(self, func, param: str, refs=_name_refs, before=None) -> bool:
        """Whether a ``check_*`` or sink call (ending before ``before``) gets ``param``."""
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name is None:
                continue
            is_checker = name.startswith("check_")
            is_sink = name in self.config.validating_sinks
            if not (is_checker or is_sink):
                continue
            if before is not None and (node.end_lineno, node.end_col_offset) > (
                before.lineno, before.col_offset
            ):
                continue
            values = list(node.args) + [kw.value for kw in node.keywords]
            if param in refs(values):
                return True
        return False


class ReshapeScatterAliasRule(Rule):
    """RPL004 — the F-order aliasing trap (the PR 4 bug class).

    ``g.reshape(-1)[flat] -= ...`` only updates ``g`` when the reshape
    returns a *view*, which silently depends on ``g`` being C-contiguous
    — a fancy-indexing gather upstream (``fields[:, perm]``) returns
    F-order and turns the scatter into a write to a temporary copy.
    ``ufunc.at(x.reshape(-1), ...)`` (the packed backend's XOR-word
    scatter) carries the identical trap: the ufunc mutates the view, and
    the mutation only reaches ``x`` when the view aliases it.  A view
    held in a local (``flat = g.reshape(-1)``, then ``flat[i] -= v`` in
    the same function or a closure it defines) is the same scatter
    spread over two lines.  A ``memoryview`` of a call result
    (``memoryview(np.ascontiguousarray(x))``, ``memoryview(x.astype(t))``,
    ``memoryview(x.reshape(s))``) is the same trap again: item assignment
    through it reaches ``x`` only when the call returned a view.  A
    memoryview of a plain name or attribute exports that array itself and
    is not flagged.  Audited sites must suppress inline, stating why the
    operand is guaranteed to alias.
    """

    code = "RPL004"
    name = "reshape-scatter-alias"
    summary = (
        "no scatter-assignment or ufunc.at through .reshape(-1)/.ravel() "
        "views or a memoryview of a call result — aliasing silently "
        "depends on memory order"
    )

    _FLATTEN_WHY = (
        "aliases the base array only when it is C-contiguous — an "
        "F-ordered operand (e.g. from a fancy-index gather) turns this "
        "into a silent no-op on a copy; scatter into the array directly "
        "or suppress with the contiguity argument"
    )
    _MEMORYVIEW_WHY = (
        "reaches the source array only when the call returned a view of "
        "it — ascontiguousarray, astype and reshape may return a copy, "
        "and the write is lost with it; take the memoryview of the array "
        "itself or suppress with the aliasing argument"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        return self._check_scope(ctx, ctx.tree, {})

    def _check_scope(
        self, ctx: FileContext, scope: ast.AST, outer: dict[str, tuple[str, str]]
    ) -> Iterator[Finding]:
        """One scope's scatters; nested scopes (closures) see its views."""
        nodes = list(_scope_nodes(scope))
        held = dict(outer)
        for node in nodes:
            if isinstance(node, ast.Assign):
                view = self._view_of(node.value)
                if view is not None:
                    _, label, why = view
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            held[target.id] = (f"the {label} {target.id!r}", why)
        for node in nodes:
            if isinstance(node, _SCOPES):
                yield from self._check_scope(ctx, node, held)
                continue
            if isinstance(node, ast.Call):
                yield from self._check_ufunc_at(ctx, node, held)
                continue
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Subscript):
                    continue
                through = self._through(target.value, held)
                if through is not None:
                    how, why = through
                    yield self.finding(
                        ctx, node, f"scatter-assignment through {how} {why}"
                    )

    def _check_ufunc_at(
        self, ctx: FileContext, node: ast.Call, held: dict[str, tuple[str, str]]
    ) -> Iterable[Finding]:
        """Flag ``<ufunc>.at(x.reshape(-1)/x.ravel(), ...)`` scatters."""
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "at" and node.args):
            return
        through = self._through(node.args[0], held)
        if through is not None:
            how, why = through
            yield self.finding(ctx, node, f"ufunc.at through {how} {why}")

    def _through(
        self, operand: ast.expr, held: dict[str, tuple[str, str]]
    ) -> tuple[str, str] | None:
        """``(how, why)`` if writing through ``operand`` may miss its base."""
        view = self._view_of(operand)
        if view is not None:
            return view[0], view[2]
        if isinstance(operand, ast.Name) and operand.id in held:
            return held[operand.id]
        return None

    def _view_of(self, node: ast.expr) -> tuple[str, str, str] | None:
        """``(how, label, why)`` if ``node`` is a flattening call or a
        memoryview of a call result: how a write through it reads, what a
        local holding it is called, and why the write may be lost."""
        attr = self._flatten_attr(node)
        if attr is not None:
            return f".{attr}()", "flattened view", self._FLATTEN_WHY
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "memoryview"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Call)
        ):
            return "a memoryview of a call result", "memoryview", self._MEMORYVIEW_WHY
        return None

    def _flatten_attr(self, node: ast.expr) -> str | None:
        """``reshape``/``ravel`` if ``node`` is ``x.reshape(-1)``/``x.ravel()``."""
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            return None
        attr = node.func.attr
        if attr == "ravel" or (attr == "reshape" and self._is_flatten(node.args)):
            return attr
        return None

    @staticmethod
    def _is_flatten(args: list[ast.expr]) -> bool:
        if len(args) != 1:
            return False
        arg = args[0]
        if (
            isinstance(arg, ast.UnaryOp)
            and isinstance(arg.op, ast.USub)
            and isinstance(arg.operand, ast.Constant)
            and arg.operand.value == 1
        ):
            return True
        return isinstance(arg, ast.Constant) and arg.value == -1


class UlpDriftRule(Rule):
    """RPL005 — ulp-drift trap (the PR 6 bug class).

    ``np.power``/``math.pow`` and the ``**`` operator may differ in the
    last ulp, so a vectorised profile built with one and a scalar path
    built with the other breaks bit-identity between access paths (the
    ``GeometricSchedule`` cache exists precisely because of this).  Use
    ``**`` on both siblings.
    """

    code = "RPL005"
    name = "ulp-drift"
    summary = "no np.power/math.pow — use ** so vectorised and scalar paths agree bit-for-bit"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted(node.func)
            if dotted in ("numpy.power", "math.pow"):
                fn = "np.power" if dotted == "numpy.power" else "math.pow"
                yield self.finding(
                    ctx, node,
                    f"{fn}() can differ from ** in the last ulp, breaking "
                    "bit-identity with the sibling scalar/vectorised "
                    "path — write the exponentiation with ** on both",
                )


class ApiCliParityRule(Rule):
    """RPL006 — API/CLI parity: no half-wired solve/serve knobs.

    Each ``ParityContract`` in the config pins one CLI subcommand to the
    API functions it fronts: every keyword of ``solve_ising``/
    ``solve_maxcut`` must be reachable through ``solve``, every
    ``job_request`` knob through ``submit``, every ``service_config``
    knob through ``serve`` (PR 2-6 each added a solve knob, and each had
    to remember the flag by hand).  The expected flag is the kebab-cased
    keyword unless the contract's flag map says otherwise; intentionally
    CLI-less keywords live in the contract's allowlist, which the
    runtime parity test pins too.
    """

    code = "RPL006"
    name = "api-cli-parity"
    summary = (
        "every keyword of a parity-contracted API function needs a "
        "--flag on its CLI subcommand (or a config allowlist entry)"
    )

    def finish(self, project: Project) -> Iterable[Finding]:
        cli = project.get(self.config.parity_cli_module)
        if cli is None:
            return
        for contract in self.config.parity_contracts:
            module = project.get(contract.module)
            if module is None:
                continue
            flags = self._subparser_flags(cli, contract.subcommand)
            if flags is None:
                yield Finding(
                    cli.path, 1, 0, self.code,
                    f"could not locate the {contract.subcommand!r} subparser "
                    f"(add_parser(\"{contract.subcommand}\", ...)) — its "
                    f"API/CLI parity contract has nothing to check against",
                )
                continue
            flag_map = dict(contract.flag_map)
            for node in module.tree.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                if node.name not in contract.functions:
                    continue
                params = [
                    a.arg
                    for a in (*node.args.posonlyargs, *node.args.args)
                ]
                params += [a.arg for a in node.args.kwonlyargs]
                for param in params[contract.skip_leading:]:
                    if param in contract.cli_less:
                        continue
                    expected = flag_map.get(
                        param, "--" + param.replace("_", "-")
                    )
                    if expected not in flags:
                        yield Finding(
                            module.path, node.lineno, node.col_offset,
                            self.code,
                            f"{node.name}() keyword {param!r} has no CLI "
                            f"flag {expected} on the {contract.subcommand} "
                            f"subcommand — wire it up in cli.py or "
                            f"allowlist it in tools/repro_lint/config.py "
                            f"(PARITY_CONTRACTS)",
                        )

    @staticmethod
    def _subparser_flags(cli: FileContext, subcommand: str) -> set[str] | None:
        """Option strings registered on the named subparser."""
        parser_vars: set[str] = set()
        for node in ast.walk(cli.tree):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "add_parser"
                and node.value.args
                and isinstance(node.value.args[0], ast.Constant)
                and node.value.args[0].value == subcommand
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        parser_vars.add(target.id)
        if not parser_vars:
            return None
        flags: set[str] = set()
        for node in ast.walk(cli.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in parser_vars
            ):
                for arg in node.args:
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                        if arg.value.startswith("--"):
                            flags.add(arg.value)
        return flags


class PlanOwnershipRule(Rule):
    """RPL007 — solve-setup primitives belong to ``repro.core.plan``.

    The compile/execute refactor (PR 9) collapsed three divergent copies
    of the solve setup — ancilla fold/strip and the reorder layout race
    lived in ``_solve_tiled``, ``_solve_sb_tiled`` *and* the machine
    constructor, and had already drifted once (the tiled-SB path forgot
    the machine's tile-size guard).  The plan compiler is now the single
    owner: library code outside ``src/repro/core/plan.py`` may not call
    ``with_ancilla``/``reorder_permutation`` or the ancilla strip helpers
    directly — route through ``compile_plan``/``resolve_layout`` (or
    suppress inline where a layer legitimately owns the transformation,
    e.g. a transparency test probing the fold itself).  The same
    ownership table (``OWNED_CALLS``) gives the batch-state protocol
    (``make_batch_state``/``batch_update_fields``) to
    ``src/repro/core/batch.py``, home of the one replica loop,
    ``FlipSelector`` to ``src/repro/core/annealer.py``, home of the one
    sequential loop, and ``TiledCrossbar`` construction to
    ``src/repro/arch/cim_annealer.py``, home of the one crossbar
    programming path.  Tests and benchmarks are exempt by design:
    asserting fold/strip semantics requires calling them.
    """

    code = "RPL007"
    name = "plan-ownership"
    summary = (
        "owned primitives (solve setup: repro/core/plan.py; batch-state "
        "protocol: repro/core/batch.py; FlipSelector: "
        "repro/core/annealer.py; TiledCrossbar: "
        "repro/arch/cim_annealer.py) are called only by their owner in "
        "library code"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.path.startswith("src/"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            for owner, calls, route in self.config.owned_calls:
                if name in calls and not fnmatch(ctx.path, owner):
                    yield self.finding(
                        ctx, node,
                        f"{name}() is owned by {owner} — calling it here "
                        "re-creates a second copy of the logic that module "
                        f"owns; go through {route} or suppress with the "
                        "reason this layer owns it",
                    )


ALL_RULES: tuple[type[Rule], ...] = (
    NoDensifyRule,
    RngDisciplineRule,
    BoundaryValidationRule,
    ReshapeScatterAliasRule,
    UlpDriftRule,
    ApiCliParityRule,
    PlanOwnershipRule,
)


def default_rules(config: LintConfig) -> list[Rule]:
    """Instantiate every registered rule against ``config``."""
    return [cls(config) for cls in ALL_RULES]
