"""Benchmark of the annealer stack: one workload per invocation.

    python3 perfbench/run.py --workload mc-gset --seed 1 --seconds 20 --trace 0

Run from the root of a repository checkout; the library is imported from
its ``src`` directory.  Progress lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
of the workload; ``--trace 1`` runs the traced pass over the whole stack
and reports the per-layer metrics (see README.md in this directory).
"""

from __future__ import annotations

import argparse
import json

import common

WORKLOADS = ("mc-gset", "cop-float", "tiled-machine", "serve-mixed")

UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "quality": "ratio",
    "peak_rss_mb": "MiB",
}


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """Golden check, then the timed run of one workload with tracing off."""
    import golden

    problems = golden.check(workload)
    for p in problems[:5]:
        common.log(f"check failed: {p}")
    if workload == "serve-mixed":
        import serve_mixed

        run = serve_mixed.measure(seed, seconds)
    else:
        run = annealer_run(workload, seed, seconds)
    run["attempted"] += 1
    run["failed"] += bool(problems)
    return run


def annealer_run(workload: str, seed: int, seconds: float) -> dict:
    import annealers

    bench = annealers.WORKLOADS[workload](seed)
    run = annealers.measure(bench, seconds)
    setup_ms = [t * 1e3 for t in run["setup_times"]]
    solve_ms = [t * 1e3 for t in run["solve_times"]]
    common.log(
        f"{workload}: {len(setup_ms)} setups, fastest {min(setup_ms):.2f} ms, "
        f"median {common.median(setup_ms):.2f} ms; {len(solve_ms)} "
        f"executes, fastest {min(solve_ms):.1f} ms, median "
        f"{common.median(solve_ms):.1f} ms, slowest {max(solve_ms):.1f} ms"
    )
    # Every setup, and every execute, of a run is the same computation
    # (executes checked bit-identical), so the fastest is the least
    # disturbed by the machine's other load.
    return {
        "setup_s": min(run["setup_times"]),
        "solve_s": min(run["solve_times"]),
        "quality": run["quality"],
        "peak_rss_mb": common.peak_rss_mb(),
        "attempted": run["attempted"],
        "failed": run["failed"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    common.import_library()

    if args.trace:
        import layers

        run = layers.traced_run(args.workload, args.seed)
        units = run.pop("units")
    else:
        run = end_to_end(args.workload, args.seed, args.seconds)
        units = UNITS
    attempted, failed = run.pop("attempted"), run.pop("failed")
    metrics = {}
    for name, value in run.items():
        metrics[name] = {"value": value, "unit": units[name]}
        common.log(f"  {name:32s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
