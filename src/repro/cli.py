"""Command-line interface: ``repro <command>`` (or ``python -m repro``).

Commands
--------
``generate``  write a synthetic Gset-class instance to a file
``solve``     solve a Gset-format Max-Cut instance with a chosen annealer
``compare``   run all three machines on an instance and print the ledgers
``curves``    print the device transfer curves behind Fig 2/6
``suite``     list the 30-instance paper evaluation suite
``serve``     run the multi-tenant batching solver service (JSON lines/TCP)
``submit``    submit one instance to a running service (or query stats)
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_generate(args) -> int:
    from repro.ising import generate_random, generate_skew, generate_toroidal, write_gset

    if args.family == "random":
        problem = generate_random(args.nodes, args.edges, args.weighted, args.seed)
    elif args.family == "skew":
        problem = generate_skew(args.nodes, args.edges, args.weighted, args.seed)
    else:
        side = int(round(args.nodes**0.5))
        problem = generate_toroidal(side, args.nodes // side, args.weighted, args.seed)
    write_gset(problem, args.output)
    print(f"wrote {problem.name}: n={problem.num_nodes} m={problem.num_edges} "
          f"-> {args.output}")
    return 0


def _cmd_solve(args) -> int:
    from repro.analysis import compute_reference_cut
    from repro.core import solve_maxcut
    from repro.ising import parse_gset

    problem = parse_gset(args.instance, name=args.instance)
    reference = None
    if args.reference:
        reference = compute_reference_cut(problem, restarts=2)
    # Only the knobs the user set reach the plan, which refuses one the
    # method's engine does not take instead of dropping it.
    knobs = {"flips_per_iteration": args.flips, "variant": args.sb_variant}
    solver_kwargs = {k: v for k, v in knobs.items() if v is not None}
    if args.repeat != 1:
        return _solve_repeat(args, problem, reference, solver_kwargs)
    result = solve_maxcut(
        problem,
        method=args.method,
        iterations=args.iterations,
        seed=args.seed,
        reference_cut=reference,
        backend=args.backend,
        tile_size=args.tile_size,
        reorder=args.reorder,
        replicas=args.replicas,
        **solver_kwargs,
    )
    print(result.summary())
    if reference is not None:
        print(f"reference cut {reference:g}; success(≥0.9): {result.is_success()}")
    if args.partition:
        left, right = problem.partition(result.anneal.best_sigma)
        print(f"partition sizes: {len(left)} / {len(right)}")
    return 0


def _solve_repeat(args, problem, reference, solver_kwargs) -> int:
    """Seed-sweep on one compiled plan: setup once, anneal ``--repeat`` times.

    The expensive half of a solve (backend promotion, layout race,
    quantization, tile programming) runs once in ``compile_plan``; every
    run then replays ``plan.execute`` under seeds ``seed .. seed+N-1``.
    Results are bit-identical to N independent ``repro solve`` calls with
    those seeds for exactly-representable couplings.
    """
    from repro.core import compile_plan
    from repro.utils.validation import check_count

    repeat = check_count(
        "repeat", args.repeat, hint="a seed sweep needs at least one run"
    )
    model = problem.to_ising(backend=args.backend)
    plan = compile_plan(
        model,
        method=args.method,
        tile_size=args.tile_size,
        reorder=args.reorder,
        replicas=args.replicas,
        seed=args.seed,
        **solver_kwargs,
    )
    print("plan: " + ", ".join(f"{k}={v}" for k, v in plan.summary().items()))
    cuts = []
    best_sigma = None
    for i in range(repeat):
        seed = args.seed + i
        result = plan.execute(args.iterations, seed=seed)
        if args.replicas is not None:
            run_cuts = result.best_cuts(problem)
            run_cut = float(run_cuts.max())
            run_sigma = result.best_sigmas[int(np.argmax(run_cuts))]
        else:
            run_cut = problem.cut_from_energy(result.best_energy)
            run_sigma = result.best_sigma
        if not cuts or run_cut > max(cuts):
            best_sigma = run_sigma
        cuts.append(run_cut)
        print(f"run {i + 1}/{repeat}: seed={seed} best cut {run_cut:g}")
    best = max(cuts)
    mean = sum(cuts) / len(cuts)
    print(f"repeat sweep: best cut {best:g}, mean {mean:g} over {repeat} runs")
    if reference is not None:
        print(f"reference cut {reference:g}; "
              f"success(≥0.9): {best >= 0.9 * reference}")
    if args.partition:
        left, right = problem.partition(best_sigma)
        print(f"partition sizes: {len(left)} / {len(right)}")
    return 0


def _cmd_compare(args) -> int:
    from repro.arch import DirectECimAnnealer, HardwareConfig, InSituCimAnnealer
    from repro.ising import parse_gset
    from repro.utils.tables import render_table
    from repro.utils.units import format_energy, format_time

    problem = parse_gset(args.instance, name=args.instance)
    model = problem.to_ising()
    machines = {
        "This work": InSituCimAnnealer(model, seed=args.seed),
        "CiM/FPGA": DirectECimAnnealer(model, HardwareConfig.baseline_fpga(), seed=args.seed),
        "CiM/ASIC": DirectECimAnnealer(model, HardwareConfig.baseline_asic(), seed=args.seed),
    }
    rows = []
    ours_energy = ours_time = None
    for label, machine in machines.items():
        result = machine.run(args.iterations)
        cut = problem.cut_from_energy(result.anneal.best_energy)
        if ours_energy is None:
            ours_energy, ours_time = result.annealing_energy, result.annealing_time
        rows.append(
            (
                label,
                f"{cut:g}",
                format_energy(result.annealing_energy),
                format_time(result.annealing_time),
                f"{result.annealing_energy / ours_energy:.0f}x",
                f"{result.annealing_time / ours_time:.2f}x",
            )
        )
    print(render_table(
        ["machine", "best cut", "energy", "time", "E ratio", "t ratio"],
        rows,
        title=f"{problem.name} — {args.iterations} iterations",
    ))
    return 0


def _cmd_curves(args) -> int:
    from repro.devices import DGFeFET, FeFET
    from repro.utils.tables import render_series

    if args.device == "fefet":
        fefet = FeFET()
        vg = np.linspace(-0.5, 1.5, args.points)
        fefet.program_bit(1)
        on = fefet.id_vg(vg)
        fefet.program_bit(0)
        off = fefet.id_vg(vg)
        print(render_series(
            "V_G (V)", [float(v) for v in vg],
            {"low-VTH (A)": on.tolist(), "high-VTH (A)": off.tolist()},
            title="FeFET I_D-V_G (Fig 2b)", float_fmt="{:.3e}",
        ))
    else:
        cell = DGFeFET()
        cell.program_bit(1)
        vbg = np.linspace(0.0, 0.7, args.points)
        isl = cell.isl_vbg(vbg)
        norm = cell.normalized_factor(vbg)
        print(render_series(
            "V_BG (V)", [float(v) for v in vbg],
            {"I_SL (A)": isl.tolist(), "normalised": norm.tolist()},
            title="DG FeFET I_SL-V_BG (Fig 6b/6c)", float_fmt="{:.3e}",
        ))
    return 0


def _cmd_suite(args) -> int:
    from repro.ising import paper_instance_suite
    from repro.utils.tables import render_table

    rows = [
        (s.name, s.nodes, s.family, s.edges, s.weighted, s.seed, s.iterations)
        for s in paper_instance_suite()
    ]
    print(render_table(
        ["name", "nodes", "family", "edges", "±1", "seed", "iterations"],
        rows,
        title="Paper evaluation suite (30 instances)",
    ))
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve.protocol import start_server
    from repro.serve.service import SolverService, service_config

    config = service_config(
        max_queue=args.max_queue,
        max_batch_jobs=args.max_batch_jobs,
        gather_window=args.gather_window,
        plan_cache_size=args.plan_cache_size,
    )

    async def run() -> None:
        async with SolverService(config) as service:
            server = await start_server(service, args.host, args.port)
            addr = server.sockets[0].getsockname()
            print(f"repro serve listening on {addr[0]}:{addr[1]} "
                  f"(max_queue={config.max_queue}, "
                  f"max_batch_jobs={config.max_batch_jobs}, "
                  f"gather_window={config.gather_window}s)")
            async with server:
                await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("repro serve: stopped")
    return 0


def _cmd_submit(args) -> int:
    from repro.serve.protocol import request

    if args.stats:
        response = request({"op": "stats"}, args.host, args.port)
        if not response.get("ok"):
            print(f"error: {response.get('error')}", file=sys.stderr)
            return 2
        for key, value in response["stats"].items():
            if key == "pack_keys":
                # One line per pack key: its jobs, runs and run sizes.
                print(f"{key}:")
                for name, runs in value.items():
                    print(f"  {name}: {runs}")
            else:
                print(f"{key}: {value}")
        return 0
    if args.instance is None:
        print("error: provide an instance file (or --stats)", file=sys.stderr)
        return 2
    with open(args.instance, encoding="utf-8") as handle:
        source = handle.read()
    payload = {
        "op": "solve",
        "job_id": args.job_id if args.job_id else args.instance,
        "gset": source,
        "method": args.method,
        "iterations": args.iterations,
        "replicas": args.replicas,
        "flips": args.flips,
        "seed": args.seed,
        "backend": args.backend,
    }
    response = request(payload, args.host, args.port)
    if not response.get("ok"):
        print(f"error: {response.get('error')}", file=sys.stderr)
        return 2
    print(f"{response['job_id']}: best_cut={response['best_cut']:g} "
          f"best_energy={response['best_energy']:g} "
          f"replicas={response['replicas']} "
          f"{'packed' if response['packed'] else 'solo'} "
          f"batch_size={response['batch_size']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ferroelectric CiM in-situ annealer (DAC 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a Gset-class instance")
    gen.add_argument("output", help="output path (Gset text format)")
    gen.add_argument("--nodes", type=int, default=800)
    gen.add_argument("--edges", type=int, default=19_176)
    gen.add_argument("--family", choices=("random", "skew", "toroidal"), default="random")
    gen.add_argument("--weighted", action="store_true", help="±1 edge weights")
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_generate)

    solve = sub.add_parser("solve", help="solve a Gset-format instance")
    solve.add_argument("instance", help="path to a Gset file")
    solve.add_argument("--method", choices=("insitu", "sa", "mesa", "sb"),
                       default="insitu",
                       help="annealer family (sb = simulated bifurcation: "
                            "one coupling matvec per step, all spins move "
                            "at once — strongest on dense-ish instances)")
    solve.add_argument("--sb-variant", choices=("ballistic", "discrete"),
                       default=None, metavar="V",
                       help="SB flavour, --method sb only: 'discrete' (dSB, "
                            "the default) feeds the matvec sign readouts, "
                            "'ballistic' (bSB) feeds continuous positions")
    solve.add_argument("--backend", choices=("auto", "dense", "sparse", "packed"),
                       default="auto",
                       help="coupling backend (auto = density heuristic, "
                            "promoting to bit-packed 'packed' when all "
                            "couplings share one ±magnitude; packed is "
                            "bit-identical to sparse at a fraction of the "
                            "replica state traffic)")
    solve.add_argument("--tile-size", type=int, default=None, metavar="S",
                       help="solve on the tiled crossbar machine with S-row "
                            "arrays (insitu and sb; sparse models shard "
                            "from CSR without densifying)")
    solve.add_argument("--reorder",
                       choices=("none", "rcm", "partition", "auto"),
                       default="none",
                       help="spin reordering ahead of tiling (rcm = "
                            "Reverse Cuthill-McKee for banded structure; "
                            "partition = multilevel min-cut blocks for "
                            "clustered structure, needs --tile-size; auto "
                            "scores both by active-tile count and keeps "
                            "the winner only when it shrinks the layout); "
                            "solutions are mapped back to the input order")
    solve.add_argument("--iterations", type=int, default=10_000)
    solve.add_argument("--flips", type=int, default=None, metavar="T",
                       help="flip-set size t per proposal, methods insitu, "
                            "sa and mesa only (default 1; sequential, "
                            "replica-batch and tiled paths alike)")
    solve.add_argument("--replicas", type=int, default=None, metavar="R",
                       help="run R vectorised annealing replicas at once "
                            "(insitu/sa/sb; reports best and mean cut over "
                            "the batch)")
    solve.add_argument("--repeat", type=int, default=1, metavar="N",
                       help="compile the solve once and execute it N times "
                            "under seeds seed..seed+N-1 (plan reuse: the "
                            "layout race, quantization and tile programming "
                            "are paid once; per-run results are bit-"
                            "identical to N separate solves)")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--reference", action="store_true",
                       help="also compute a best-known reference cut")
    solve.add_argument("--partition", action="store_true",
                       help="print the partition sizes")
    solve.set_defaults(func=_cmd_solve)

    cmp_ = sub.add_parser("compare", help="run the three machines on an instance")
    cmp_.add_argument("instance", help="path to a Gset file")
    cmp_.add_argument("--iterations", type=int, default=1_000)
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.set_defaults(func=_cmd_compare)

    curves = sub.add_parser("curves", help="print device transfer curves")
    curves.add_argument("--device", choices=("fefet", "dgfefet"), default="dgfefet")
    curves.add_argument("--points", type=int, default=15)
    curves.set_defaults(func=_cmd_curves)

    suite = sub.add_parser("suite", help="list the paper evaluation suite")
    suite.set_defaults(func=_cmd_suite)

    serve = sub.add_parser(
        "serve", help="run the multi-tenant batching solver service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7421)
    serve.add_argument("--max-queue", type=int, default=256, metavar="N",
                       help="bounded job-queue depth (backpressure past it)")
    serve.add_argument("--max-batch-jobs", type=int, default=64, metavar="K",
                       help="most jobs packed into one block-stacked run")
    serve.add_argument("--gather-window", type=float, default=0.002,
                       metavar="SEC",
                       help="how long the oldest pending job waits for "
                            "jobs of its pack key before its run starts")
    serve.add_argument("--plan-cache-size", type=int, default=32, metavar="N",
                       help="LRU slots of the sb jobs' plan cache")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit an instance to a running service"
    )
    submit.add_argument("instance", nargs="?", default=None,
                        help="path to a Gset file (omit with --stats)")
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=7421)
    submit.add_argument("--job-id", default=None,
                        help="job id echoed in results/errors "
                             "(default: the instance path)")
    submit.add_argument("--method", choices=("insitu", "sa", "sb"),
                        default="insitu")
    submit.add_argument("--iterations", type=int, default=1000)
    submit.add_argument("--replicas", type=int, default=1, metavar="R",
                        help="independent trajectories (per-job cap applies)")
    submit.add_argument("--flips", type=int, default=1, metavar="T",
                        help="spin-flip proposals per iteration (rank-T)")
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument("--backend",
                        choices=("auto", "dense", "sparse", "packed"),
                        default="auto")
    submit.add_argument("--stats", action="store_true",
                        help="print service counters, each pack key's "
                             "runs and plan-cache counters, and exit")
    submit.set_defaults(func=_cmd_submit)
    return parser


def main(argv=None) -> int:
    """CLI entry point.

    Validation errors from the solve API (bad iteration counts, unknown
    methods/backends, malformed instances) surface as a one-line message
    and exit code 2 instead of a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
