"""Compile/execute split: reusable solve plans and a fingerprint-keyed cache.

The in-situ annealer's economics — one expensive crossbar programming pass
amortised over many cheap anneal runs — used to be invisible in the API:
every ``solve_ising`` call re-derived the coupling backend, re-ran the
reorder/partition layout race, re-folded fields through the ancilla spin,
and re-quantized/re-programmed the tile grid.  This module makes the
split explicit:

* :func:`compile_plan` runs all of the setup once and returns an
  immutable :class:`SolvePlan` — the resolved backend model, the layout
  :class:`~repro.core.reorder.Permutation`, and (on the tiled paths) the
  programmed :class:`~repro.arch.tiling.TiledCrossbar` with its
  quantized stored image;
* :meth:`SolvePlan.execute` runs one anneal against the compiled
  artifacts — cheap, repeatable, and bit-identical to a from-scratch
  ``solve_ising`` call for exactly-representable (dyadic) couplings;
* :class:`PlanCache` is an LRU over compiled plans keyed by a content
  fingerprint of the couplings plus the solve knobs, so repeat instances
  skip the layout race, quantization and tile programming entirely.

``solve_ising``/``solve_maxcut`` are thin wrappers over this module, and
this module is the *single owner* of the solve-setup primitives
(``with_ancilla`` fold/strip and the ``reorder_permutation`` layout
race) — repro-lint rule RPL007 bans calling them from any other library
module, because three divergent copies of this logic is exactly the bug
class the compile/execute split removed.

Randomness contract
-------------------
Compilation is deterministic on the default path (behavioral crossbar
backend, no variation model): programming draws no randomness, so a plan
compiled once and executed with fresh seeds is bit-identical to cold
solves with those seeds.  With ``variation=`` or the device crossbar
backend the programming pass *does* consume the stream; ``solve_ising``
threads one generator through both phases to reproduce the legacy
shared-stream trajectories exactly, while a cached plan freezes its
programming draw — re-executing reuses the same programmed array, as
real hardware would.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import threading
from collections import OrderedDict
from dataclasses import replace

import numpy as np

from repro.core.annealer import InSituAnnealer
from repro.core.batch import BATCH_ENGINES, BatchAnnealResult
from repro.core.mesa import MesaAnnealer
from repro.core.reorder import REORDER_MODES, Permutation, reorder_permutation
from repro.core.results import AnnealResult
from repro.core.sa import DirectEAnnealer
from repro.core.sb import SbEngine, solve_sb
from repro.ising.model import IsingModel
from repro.ising.sparse import SparseIsingModel, as_backend
from repro.utils.validation import check_choice, check_count, check_iterations, check_model

#: The engine of each plan shape ``(tiled, batched)`` by method; a method
#: missing from a shape has no engine of that shape.  The tiled in-situ
#: machine is named, not imported: repro.arch layers on top of repro.core.
_ENGINES = {
    (False, False): {
        "insitu": InSituAnnealer, "sa": DirectEAnnealer,
        "mesa": MesaAnnealer, "sb": SbEngine,
    },
    (False, True): {**BATCH_ENGINES, "sb": SbEngine},
    (True, False): {"insitu": "InSituCimAnnealer", "sb": SbEngine},
    (True, True): {"sb": SbEngine},
}

#: Every accepted ``method=`` spelling: the sequential flip solvers plus
#: the simulated-bifurcation family (dispatched through repro.core.sb,
#: which serves both the single-run and the replica-batch shape).
SOLVE_METHODS = tuple(sorted(_ENGINES[False, False]))

#: Engine parameters a plan fills in itself, or takes as ``compile_plan``
#: arguments of its own: never a caller's solver keyword.
_PLAN_ARGS = frozenset(
    {"model", "seed", "replicas", "program", "matvec", "backend",
     "tile_size", "reorder"}
)

#: The tiled machine's programming knobs, consumed by
#: ``compile_cim_program`` under the argument names they map to.
#: ``crossbar_backend`` is renamed on the way in because ``compile_plan``'s
#: own ``backend`` names the *coupling* backend.
_PROGRAM_KNOBS = {
    "config": "config", "variation": "variation",
    "permutation": "permutation", "crossbar_backend": "backend",
}


@functools.cache
def _engine_knobs(engine) -> frozenset:
    """The keywords an engine's constructor takes from a caller."""
    return frozenset(inspect.signature(engine).parameters) - _PLAN_ARGS


def plan_engine(method: str, knobs=(), *, tiled=False, batched=False):
    """Resolve the engine of one plan shape and check the knobs it is given.

    ``tiled`` and ``batched`` say whether the plan has a ``tile_size`` and
    ``replicas``.  A plan takes exactly its engine's constructor keywords,
    less what the plan passes itself; the tiled in-situ machine adds its
    ``crossbar_backend``, and the tiled SB engine anneals in the
    programmed layout, so it takes no ``permutation``.  Returns the engine
    class (``SbEngine`` runs through :func:`~repro.core.sb.solve_sb`).
    Raises one ``ValueError`` for a shape the method has no engine of, or
    for a knob its engine does not take, naming the knobs it does take.
    """
    shape = _ENGINES[tiled, batched]
    engine = shape.get(method)
    if engine is None:
        kind = "tiled batch" if tiled and batched else "tiled" if tiled else "batch"
        raise ValueError(
            f"method={method!r} has no {kind} engine, so it takes no "
            f"{_shape_knobs(tiled, batched)}; use "
            + " or ".join(f"method={m!r}" for m in sorted(shape))
        )
    if isinstance(engine, str):
        from repro.arch import cim_annealer

        engine = getattr(cim_annealer, engine)
    takes = _engine_knobs(engine)
    if tiled and engine is SbEngine:
        takes = takes - {"permutation"}
    elif tiled:
        takes = takes | {"crossbar_backend"}
    for knob in knobs:
        if knob not in takes:
            where = f" with {_shape_knobs(tiled, batched)}" if tiled or batched else ""
            raise ValueError(
                f"method={method!r}{where} takes no {knob}; it takes "
                f"{sorted(takes)}"
            )
    return engine


def _shape_knobs(tiled, batched) -> str:
    """The plan-shape arguments a call gave, for messages."""
    return " and ".join(
        name for name, on in (("tile_size", tiled), ("replicas", batched)) if on
    )


def _run_engine(engine, iterations, seed, **kwargs):
    """One run of an engine class (the tiled machine's run result carries
    the anneal beside its ledger)."""
    result = engine(seed=seed, **kwargs).run(iterations)
    return getattr(result, "anneal", result)


def _strip_ancilla(result):
    """Undo the ancilla fold: pin spin 0 to +1 and drop it.

    Multiplying each configuration by its own ancilla sign restores the
    ``σ_0 = +1`` convention the fold encodes fields under and changes
    nothing else: a couplings-only energy is invariant under a global
    flip.  Serves the single-run and the replica-batch result alike.
    """
    def pin(sigmas):
        return (sigmas * sigmas[..., :1])[..., 1:]

    if isinstance(result, AnnealResult):
        return replace(
            result, sigma=pin(result.sigma), best_sigma=pin(result.best_sigma)
        )
    return replace(
        result,
        best_sigmas=pin(result.best_sigmas),
        final_sigmas=pin(result.final_sigmas),
    )


def fold_fields(model):
    """Ancilla fold for the crossbar paths: ``(work_model, folded)``.

    Crossbar machines store couplings only, so a fielded model is folded
    through an ancilla spin on the way in (``σ_0`` pinned to +1); the
    matching strip happens in :meth:`SolvePlan.execute`.
    """
    if model.has_fields:
        return model.with_ancilla(), True
    return model, False


def resolve_layout(model, reorder, tile_size=None):
    """Run the layout race for a validated ``reorder`` mode.

    The single call site of :func:`~repro.core.reorder.reorder_permutation`
    in the library (RPL007): ``"none"``/``None`` short-circuits to no
    permutation, everything else delegates — ``"auto"`` races RCM against
    the min-cut partition by exact active-tile count when ``tile_size`` is
    given and may still return ``None`` when nothing strictly improves on
    the identity layout.
    """
    if reorder is None or reorder == "none":
        return None
    return reorder_permutation(model, reorder, tile_size=tile_size)


def _freeze(value):
    """A deterministic, hashable image of a solve-knob value.

    Plain scalars/strings pass through; containers freeze recursively;
    numpy arrays hash by content.  Arbitrary objects (factors, schedules,
    variation models) key by ``repr`` — dataclass-style reprs are
    content-stable, while a default object repr keys by identity, which
    can only cause a spurious cache *miss*, never a wrong hit.
    """
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(
            np.ascontiguousarray(value).tobytes()
        ).hexdigest()
        return ("ndarray", value.shape, str(value.dtype), digest)
    if isinstance(value, Permutation):
        return _freeze(np.asarray(value.forward))
    if isinstance(value, (str, int, float, bool, type(None))):
        return (type(value).__name__, value)
    return ("repr", type(value).__name__, repr(value))


def _plan_fingerprint(
    model, method, backend, tile_size, reorder, replicas, solver_kwargs
) -> str:
    """Cache key: coupling content digest + every compile-relevant knob.

    The seed is deliberately *not* part of the key — on the default
    (draw-free) programming path a compiled plan is seed-independent, and
    re-executing a cached plan under fresh seeds is the whole point.
    """
    h = hashlib.sha256()
    h.update(model.content_fingerprint().encode())
    knobs = (
        method,
        backend,
        tile_size,
        "none" if reorder is None else reorder,
        replicas,
        _freeze(solver_kwargs),
    )
    h.update(repr(knobs).encode())
    return h.hexdigest()


class SolvePlan:
    """An immutable compiled solve: setup artifacts plus an execute hook.

    Produced by :func:`compile_plan`; treat every attribute as read-only.
    ``execute`` may be called any number of times — each call runs a
    fresh anneal (new RNG stream, fresh ledger on the machine paths)
    against the shared compiled artifacts.

    Attributes
    ----------
    model:
        The backend-resolved model in the caller's spin order.
    folded:
        Whether the crossbar stores the model ancilla-folded (it carried
        external fields); executes then strip the ancilla again.
    permutation:
        The internal layout :class:`~repro.core.reorder.Permutation`, or
        ``None`` for the identity layout.
    run_kwargs:
        Keyword arguments of the engine (:func:`plan_engine`) replayed on
        every execute: the caller's knobs plus the compiled model or
        program.
    fingerprint:
        The cache key :class:`PlanCache` files this plan under.
    """

    __slots__ = (
        "method", "model", "folded", "requested_backend",
        "resolved_backend", "tile_size", "reorder", "permutation",
        "replicas", "run_kwargs", "fingerprint", "_engine", "_run",
        "_crossbar",
    )

    def __init__(
        self, *, method, model, folded, requested_backend,
        resolved_backend, tile_size, reorder, permutation, replicas,
        engine, run_kwargs, fingerprint, crossbar=None,
    ) -> None:
        self.method = method
        self.model = model
        self.folded = folded
        self.requested_backend = requested_backend
        self.resolved_backend = resolved_backend
        self.tile_size = tile_size
        self.reorder = reorder
        self.permutation = permutation
        self.replicas = replicas
        self.run_kwargs = run_kwargs
        self.fingerprint = fingerprint
        self._engine = engine
        # SbEngine runs through solve_sb, which shapes a single run's result.
        self._run = solve_sb if engine is SbEngine else functools.partial(
            _run_engine, engine
        )
        self._crossbar = crossbar

    def __repr__(self) -> str:  # compact: artifacts are heavyweight
        return (
            f"SolvePlan(method={self.method!r}, "
            f"backend={self.resolved_backend!r}, n={self.model.num_spins}, "
            f"engine={self._engine.__name__}, "
            f"fingerprint={self.fingerprint[:12]!r})"
        )

    # ------------------------------------------------------------------
    def execute(self, iterations, seed=None) -> AnnealResult | BatchAnnealResult:
        """Run one anneal against the compiled artifacts.

        Parameters
        ----------
        iterations:
            Annealing iterations (validated here, like ``solve_ising``).
        seed:
            RNG seed (or Generator) for this run's proposal/accept
            stream.  Executes are independent: two executes with the
            same seed return bit-identical results on the default
            (draw-free programming) path.
        """
        iterations = check_iterations(iterations)
        result = self._run(iterations=iterations, seed=seed, **self.run_kwargs)
        return _strip_ancilla(result) if self.folded else result

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Provenance of the compiled plan, resolved knobs included.

        Reports the backend that *actually* ran (``solve_ising`` defaults
        ``backend=None`` — keep the caller's representation — while
        ``solve_maxcut`` defaults ``"auto"``; this is where the
        resolution becomes visible), the layout the race picked, and the
        tiled-grid geometry when a crossbar was programmed.
        """
        info = {
            "method": self.method,
            "backend": self.resolved_backend,
            "num_spins": self.model.num_spins,
            "folded_fields": self.folded,
            "reorder": self.reorder,
            "ordering": (
                self.permutation.strategy
                if self.permutation is not None else "identity"
            ),
            "tile_size": self.tile_size,
            "replicas": self.replicas,
            "fingerprint": self.fingerprint[:12],
        }
        if self._crossbar is not None:
            info["tiles"] = self._crossbar.num_tiles
            info["grid_tiles"] = self._crossbar.grid_tiles
            info["bits"] = self._crossbar.bits
        return info


def compile_plan(
    model: IsingModel | SparseIsingModel,
    method: str = "insitu",
    backend: str | None = None,
    tile_size: int | None = None,
    reorder: str | None = None,
    replicas: int | None = None,
    seed=None,
    **solver_kwargs,
) -> SolvePlan:
    """Compile a model + solve knobs into a reusable :class:`SolvePlan`.

    Performs every expensive, run-independent piece of a solve — coupling
    backend promotion, the reorder/partition layout race, the ancilla
    fold, quantization and tile programming — and returns the artifacts
    bundled with an :meth:`~SolvePlan.execute` hook.  Knobs and
    validation messages match :func:`~repro.core.solver.solve_ising`
    exactly (it is now a thin wrapper over this function); ``seed`` only
    matters here when crossbar programming itself draws randomness
    (``variation=`` or ``crossbar_backend="device"``).

    ``solver_kwargs`` are the knobs of the plan's engine
    (:func:`plan_engine`): a knob the engine does not take fails here,
    before any of the setup work.  Their values are checked by the engine
    constructor, when :meth:`~SolvePlan.execute` builds the engine.
    """
    check_choice("method", method, SOLVE_METHODS)
    check_model(model)
    reorder = check_choice(
        "reorder", "none" if reorder is None else reorder, REORDER_MODES
    )
    engine = plan_engine(
        method, solver_kwargs, tiled=tile_size is not None,
        batched=replicas is not None,
    )
    if reorder != "none" and "permutation" in solver_kwargs:
        raise ValueError(
            "pass either reorder= or an explicit permutation=, not both"
        )
    if "crossbar_backend" in solver_kwargs:
        # Checked under the caller's name before it becomes the
        # crossbar's own backend.
        from repro.circuits.crossbar import CROSSBAR_BACKENDS

        check_choice(
            "crossbar_backend", solver_kwargs["crossbar_backend"],
            CROSSBAR_BACKENDS,
        )
    fingerprint = _plan_fingerprint(
        model, method, backend, tile_size, reorder, replicas, solver_kwargs
    )
    run_kwargs = dict(solver_kwargs)
    if replicas is not None:
        # Validated here at the boundary — a bool or non-integer count
        # used to slip past solve_ising into the engine constructors.
        replicas = check_count(
            "replicas", replicas,
            hint="each replica is one independent trajectory",
        )
        run_kwargs["replicas"] = replicas
    if tile_size is not None:
        tile_size = check_count(
            "tile_size", tile_size, minimum=2,
            hint="a physical tile needs at least 2 rows",
        )
    elif reorder == "partition":
        # Solve-boundary check (this used to fail deep inside the layout
        # race): the partition layout is defined by the tile grid.
        raise ValueError(
            "reorder='partition' sizes its min-cut blocks to the tile "
            "grid and needs tile_size=...; pass both knobs together "
            "(or use reorder='rcm'/'auto' for an untiled solve)"
        )
    if backend is not None:
        model = as_backend(model, backend)
    folded, crossbar = False, None
    if tile_size is not None:
        # Both crossbar machines (in-situ and the SB sibling) store the
        # folded model on one tile grid, programmed the one way.
        work, folded = fold_fields(model)
        program_kwargs = {
            arg: run_kwargs.pop(knob)
            for knob, arg in _PROGRAM_KNOBS.items() if knob in run_kwargs
        }
        # Local import: repro.arch layers on top of repro.core.
        from repro.arch.cim_annealer import compile_cim_program

        program = compile_cim_program(
            work, tile_size=tile_size, reorder=reorder, seed=seed,
            **program_kwargs
        )
        perm, crossbar = program.permutation, program.crossbar
        if engine is SbEngine:
            run_kwargs.update(
                model=program.annealer_model, permutation=perm,
                matvec=crossbar.batch_matvec,
            )
        else:
            run_kwargs["program"] = program
    else:
        perm = resolve_layout(model, reorder)
        run_kwargs["model"] = model
        if perm is not None:
            # model.permuted(perm) must always travel with permutation=perm
            # so proposals/results stay in the caller's spin space.
            run_kwargs.update(model=model.permuted(perm), permutation=perm)
    return SolvePlan(
        method=method, model=model, folded=folded, requested_backend=backend,
        resolved_backend=model.backend, tile_size=tile_size,
        reorder=reorder, permutation=perm, replicas=replicas,
        engine=engine, run_kwargs=run_kwargs, fingerprint=fingerprint,
        crossbar=crossbar,
    )


class PlanCache:
    """LRU cache of compiled :class:`SolvePlan` artifacts.

    Keyed by :meth:`content fingerprint
    <repro.ising.sparse.SparseIsingModel.content_fingerprint>` of the
    coupling data plus every compile-relevant solve knob — any coupling
    edit or knob change is a miss, a byte-identical repeat instance is a
    hit that skips the layout race, quantization and tile programming.
    This is the mechanism a serving layer needs to autotune per cache
    miss and reuse per hit.

    The seed is not part of the key (see :func:`compile_plan`'s
    randomness contract); plans whose programming pass drew randomness
    are reused as-programmed, like the physical array they model.

    The cache is thread-safe: one lock guards the LRU map and the
    counters, and :meth:`get_or_compile` holds it across the whole
    lookup-compile-insert sequence.  Compiles therefore serialize — a
    deliberate trade: concurrent misses on the *same* instance would
    otherwise compile the plan twice and race the insert, and the serve
    scheduler (the concurrent caller this exists for) runs solves on a
    worker thread while accepting submissions on the event loop.
    """

    def __init__(self, maxsize: int = 16) -> None:
        self.maxsize = check_count(
            "maxsize", maxsize, hint="an LRU cache needs at least one slot"
        )
        self._plans: OrderedDict[str, SolvePlan] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._plans

    def clear(self) -> None:
        """Drop every cached plan (counters are kept)."""
        with self._lock:
            self._plans.clear()

    def stats(self) -> dict:
        """Hit/miss/eviction counters plus current occupancy."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._plans),
                "maxsize": self.maxsize,
            }

    def get_or_compile(
        self,
        model,
        method: str = "insitu",
        backend: str | None = None,
        tile_size: int | None = None,
        reorder: str | None = None,
        replicas: int | None = None,
        seed=None,
        **solver_kwargs,
    ) -> SolvePlan:
        """Return the cached plan for this instance+knobs, compiling on miss.

        Arguments mirror :func:`compile_plan`.  On a hit the stored plan
        is returned untouched (and refreshed in LRU order); ``seed`` is
        only consulted when a miss triggers compilation.
        """
        key = _plan_fingerprint(
            model, method, backend, tile_size, reorder, replicas,
            solver_kwargs,
        )
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                self._plans.move_to_end(key)
                return plan
            self.misses += 1
            plan = compile_plan(
                model, method=method, backend=backend, tile_size=tile_size,
                reorder=reorder, replicas=replicas, seed=seed,
                **solver_kwargs
            )
            self._plans[key] = plan
            if len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
                self.evictions += 1
            return plan


__all__ = [
    "SOLVE_METHODS",
    "SolvePlan",
    "PlanCache",
    "compile_plan",
    "fold_fields",
    "plan_engine",
    "resolve_layout",
]
