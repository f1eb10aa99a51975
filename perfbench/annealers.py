"""The three in-process workloads: mc-gset, cop-float and tiled-machine.

Each workload has a ``setup`` (instance build plus ``compile_plan``, the
``setup_s`` metric), a ``solve`` (one ``SolvePlan.execute``, the
``solve_s`` metric) and a ``check`` that recomputes every reported energy
from the returned configurations.  All executes of one run use the same
anneal seed, so their results must also be identical to each other.
"""

from __future__ import annotations

import time

import numpy as np

from common import log, positive_weight

#: mc-gset: the G48-class torus, whose exact optimum is 2·rows·cols.
TORUS_ROWS, TORUS_COLS, TORUS_SEED = 50, 60, 4000
TORUS_OPTIMUM = 2 * TORUS_ROWS * TORUS_COLS
MC_REPLICAS = 100
MC_ITERATIONS = 20_000

#: cop-float: 4-colouring of a random graph, 4000 spins with fields.
COP_NODES, COP_EDGES, COP_COLORS = 1000, 2000, 4
COP_REPLICAS = 64
COP_ITERATIONS = 20_000

#: tiled-machine: scattered degree-6 ±1 circulant on 256-row tiles.
TILED_NODES, TILED_TILE = 20_000, 256
TILED_ITERATIONS = 10_000

#: Executes a run makes at least, however long they take.
MIN_SOLVES = 3


def _energy_problems(model, energies, sigmas, label) -> list[str]:
    """Reported energies that do not recompute from their configurations."""
    problems = []
    for r, (e, s) in enumerate(zip(np.atleast_1d(energies), np.atleast_2d(sigmas))):
        exact = model.energy(s)
        if not np.isclose(e, exact, rtol=1e-12, atol=1e-9):
            problems.append(f"{label}[{r}] reported {e!r}, recomputes to {exact!r}")
    return problems


class _BatchWorkload:
    """Shared shape of the replica-batch workloads (mc-gset, cop-float)."""

    iterations = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def solve(self, ctx):
        return ctx["plan"].execute(self.iterations, seed=self.seed)

    def check(self, ctx, result) -> list[str]:
        model = ctx["plan"].model
        return _energy_problems(
            model, result.best_energies, result.best_sigmas, "best"
        ) + _energy_problems(
            model, result.final_energies, result.final_sigmas, "final"
        )

    @staticmethod
    def signature(result) -> tuple:
        """Everything that must repeat exactly for one seed."""
        return tuple(
            np.asarray(a).tobytes()
            for a in (
                result.best_energies, result.best_sigmas,
                result.final_energies, result.final_sigmas, result.accepted,
            )
        )


class McGset(_BatchWorkload):
    """The paper's Monte-Carlo protocol on the G48-class torus."""

    name = "mc-gset"
    setup_repeats = 100
    iterations = MC_ITERATIONS

    def setup(self):
        from repro.core.plan import compile_plan
        from repro.ising import generate_toroidal

        problem = generate_toroidal(TORUS_ROWS, TORUS_COLS, seed=TORUS_SEED)
        model = problem.to_ising(backend="auto")
        plan = compile_plan(model, method="insitu", replicas=MC_REPLICAS)
        return {"problem": problem, "plan": plan}

    def quality(self, ctx, result) -> float:
        best_cut = max(ctx["problem"].cut_from_energy(float(e))
                       for e in result.best_energies)
        return best_cut / TORUS_OPTIMUM


class CopFloat(_BatchWorkload):
    """Graph 4-colouring through QUBO: float sparse state with fields."""

    name = "cop-float"
    setup_repeats = 3
    iterations = COP_ITERATIONS

    def setup(self):
        from repro.core.plan import compile_plan
        from repro.ising import GraphColoringProblem

        rng = np.random.default_rng(self.seed)
        pairs: set = set()
        while len(pairs) < COP_EDGES:
            u, v = rng.integers(COP_NODES, size=2)
            if u != v:
                pairs.add((int(min(u, v)), int(max(u, v))))
        edges = np.array(sorted(pairs), dtype=np.intp)
        problem = GraphColoringProblem(COP_NODES, edges, COP_COLORS)
        model = problem.to_qubo().to_ising()
        plan = compile_plan(model, method="insitu", replicas=COP_REPLICAS)
        return {"problem": problem, "plan": plan}

    def quality(self, ctx, result) -> float:
        """Share of constraints (one colour per vertex, one per edge) met."""
        sigma = result.best_sigmas[int(np.argmin(result.best_energies))]
        x = (1 - sigma.astype(np.int64)) // 2
        broken = ctx["problem"].violations(x)
        return 1.0 - (broken["one_hot"] + broken["conflicts"]) / (
            COP_NODES + COP_EDGES
        )


class LedgerTap:
    """Keeps the last ``InSituCimAnnealer.run`` result.

    ``SolvePlan.execute`` returns only the anneal; the modelled hardware
    cost lives in the machine's ``Ledger``, which this tap retains.
    """

    def __init__(self) -> None:
        from repro.arch import InSituCimAnnealer

        self.last = None
        original = InSituCimAnnealer.run
        tap = self

        def run(machine, *a, **k):
            tap.last = original(machine, *a, **k)
            return tap.last

        InSituCimAnnealer.run = run


class TiledMachine:
    """Layout race, tile programming and the ledgered tiled machine."""

    name = "tiled-machine"
    setup_repeats = 3
    iterations = TILED_ITERATIONS

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tap = LedgerTap()

    def setup(self):
        from repro.core.plan import compile_plan
        from repro.ising import scattered_circulant_maxcut

        problem, _ = scattered_circulant_maxcut(TILED_NODES, seed=self.seed)
        # Built sparse so that compile_plan's backend promotion (to packed)
        # is part of the compile being measured.
        model = problem.to_ising(backend="sparse")
        plan = compile_plan(
            model, method="insitu", backend="auto", tile_size=TILED_TILE,
            reorder="auto",
        )
        return {"problem": problem, "plan": plan}

    def solve(self, ctx):
        self.tap.last = None
        result = ctx["plan"].execute(self.iterations, seed=self.seed)
        ledger = self.tap.last.ledger
        return result, ledger

    def check(self, ctx, out) -> list[str]:
        result, _ = out
        model = ctx["plan"].model
        return _energy_problems(
            model, result.best_energy, result.best_sigma, "best"
        ) + _energy_problems(model, result.energy, result.sigma, "final")

    @staticmethod
    def signature(out) -> tuple:
        result, ledger = out
        return (
            result.best_energy, result.energy, result.accepted,
            np.asarray(result.best_sigma).tobytes(),
            np.asarray(result.sigma).tobytes(),
            ledger.total_energy, ledger.total_time,
        )

    def quality(self, ctx, out) -> float:
        result, _ = out
        problem = ctx["problem"]
        return problem.cut_from_energy(result.best_energy) / positive_weight(
            problem
        )

    def counts(self, ctx, out) -> dict:
        """The modelled hardware's books for one execute."""
        result, ledger = out
        adc = ledger.entries.get("adc")
        return {
            "sim_energy_uj": ledger.total_energy * 1e6,
            "sim_time_us": ledger.total_time * 1e6,
            "adc_conversions": adc.count if adc is not None else 0,
            "iterations": result.iterations,
            "tiles": ctx["plan"].summary().get("tiles", 0),
        }


WORKLOADS = {cls.name: cls for cls in (McGset, CopFloat, TiledMachine)}


def measure(workload, seconds: float) -> dict:
    """Set up ``setup_repeats`` times, then execute for ``seconds``.

    Every execute is checked (energies recompute, results repeat exactly)
    outside its timed region; a failed check counts in ``failed``.
    """
    setup_times = []
    ctx = None
    for _ in range(workload.setup_repeats):
        start = time.perf_counter()
        ctx = workload.setup()
        setup_times.append(time.perf_counter() - start)
    solve_times = []
    failed = 0
    first = None
    quality = None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(solve_times) < MIN_SOLVES:
        start = time.perf_counter()
        out = workload.solve(ctx)
        solve_times.append(time.perf_counter() - start)
        problems = workload.check(ctx, out)
        signature = workload.signature(out)
        if first is None:
            first = signature
            quality = workload.quality(ctx, out)
        elif signature != first:
            problems.append("result differs from the first execute of this seed")
        if problems:
            failed += 1
            for p in problems[:5]:
                log(f"check failed: {p}")
    return {
        "setup_times": setup_times,
        "solve_times": solve_times,
        "attempted": len(setup_times) + len(solve_times),
        "failed": failed,
        "quality": quality,
    }
