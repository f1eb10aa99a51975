"""The serve-mixed server process: ``repro.serve`` on an ephemeral port.

    python3 perfbench/server.py [--trace PATH]

Prints ``PORT <n>`` once the JSON-lines endpoint listens, serves until its
standard input closes, then stops the service.  With ``--trace PATH`` it
first wraps the public functions the service calls (lane compile, stacked
run, plan cache, plan execute, the request parse) and writes their spans
to ``PATH`` as JSON on exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

from common import import_library
from spans import Tracer


def install(tracer: Tracer) -> None:
    """Wrap the functions ``repro.serve`` calls, keyed by job id."""
    import repro.core.blockstack as blockstack
    import repro.serve.protocol as protocol
    import repro.serve.service as service
    from repro.core.plan import PlanCache, SolvePlan
    from repro.ising.maxcut import MaxCutProblem
    from repro.serve import SolverService

    def model_name(model, *a, **k):
        return model.name

    tracer.wrap(
        protocol, "parse_gset", "protocol.parse_gset",
        job=lambda source, name="gset": name,
    )
    tracer.wrap(
        MaxCutProblem, "to_ising", "protocol.to_ising",
        job=lambda problem, *a, **k: problem.name,
    )
    tracer.wrap(
        protocol, "job_request", "protocol.job_request",
        job=lambda job_id, *a, **k: job_id,
    )
    tracer.wrap(
        SolverService, "submit", "serve.submit",
        job=lambda svc, job: job.job_id,
    )
    tracer.wrap(
        service, "compile_lane", "blockstack.compile_lane", job=model_name
    )
    tracer.wrap(
        service, "run_stacked", "blockstack.run_stacked",
        after=lambda results, lanes: {
            "lanes": len(lanes), "jobs": [lane.model.name for lane in lanes],
        },
    )
    tracer.wrap(blockstack, "stack_models", "blockstack.stack_models")
    tracer.wrap(
        PlanCache, "get_or_compile", "plan.get_or_compile",
        job=lambda cache, model, *a, **k: model.name,
    )
    tracer.wrap(SolvePlan, "execute", "plan.execute")


async def serve(trace_path: str | None) -> None:
    from repro.serve import SolverService
    from repro.serve.protocol import start_server

    tracer = Tracer()
    if trace_path:
        install(tracer)
    async with SolverService() as svc:
        server = await start_server(svc, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        print(f"PORT {port}", flush=True)
        # Reading stdin to EOF is the stop signal from the benchmark.
        await asyncio.get_running_loop().run_in_executor(None, sys.stdin.read)
        server.close()
        await server.wait_closed()
    if trace_path:
        tracer.restore()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default=None, help="span output file")
    args = parser.parse_args()
    import_library()
    if args.trace:
        os.makedirs(os.path.dirname(os.path.abspath(args.trace)), exist_ok=True)
    asyncio.run(serve(args.trace))


if __name__ == "__main__":
    main()
