"""The traced run: per-layer metrics for the whole stack.

Every traced run covers all four pipelines, so every per-layer metric is
present whichever ``--workload`` is named:

1. one unit of the named workload (an execute; for serve-mixed a burst)
   runs untraced, for the tracing overhead (measured ABBA: untraced,
   traced, traced, untraced);
2. wrappers are installed around the public functions of each layer and
   one pass of every pipeline runs traced: mc-gset, cop-float and
   tiled-machine set up and execute once in this process, serve-mixed runs
   a short open loop and two bursts against a server that traces itself;
3. the wrappers are removed and the kernels are timed per call at the
   shapes the traced pass saw (see kernels.py);
4. the spans of both processes go to ``perfbench/out/`` as one Chrome
   trace-event file, and each layer's metrics are derived from them.

``trace.overhead_s`` is the mean traced minus the mean untraced unit time
of the named workload.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import numpy as np

import annealers
import kernels
import serve_mixed
from common import OUT, log, median, tail
from spans import Tracer, durations, write_chrome_trace

#: Distinct serve jobs and open-loop length (seconds) of the traced pass.
TRACE_POOL = 160
TRACE_OPEN_S = 8.0

UNITS = {
    "ising.build_s": "s",
    "plan.as_backend_s": "s",
    "plan.resolve_layout_s": "s",
    "plan.fold_fields_s": "s",
    "plan.compile_cim_program_s": "s",
    "plan.execute_s": "s",
    "reorder.rcm_s": "s",
    "partition.partition_s": "s",
    "reorder.tiles_rcm": "count",
    "partition.tiles": "count",
    "batch.packed.run_s": "s",
    "batch.packed.accept_frac": "ratio",
    "batch.float.run_s": "s",
    "batch.float.accept_frac": "ratio",
    **{
        f"kernel.{kind}.{op}_us": "us"
        for kind in ("packed", "float")
        for op in ("gather", "cross_term", "update_fields", "flip", "record_best")
    },
    "kernel.slots.cross_term_slots_us": "us",
    "proposal.scan_order_ms": "ms",
    "schedule.temperature_us": "us",
    "blockstack.compile_lane_ms": "ms",
    "blockstack.stack_models_ms": "ms",
    "blockstack.run_stacked_s": "s",
    "blockstack.lanes_per_batch": "count",
    "serve.queue_wait_ms": "ms",
    "serve.worker_busy_frac": "ratio",
    "serve.packed_frac": "ratio",
    "serve.plan_cache_hit_frac": "ratio",
    "serve.solo_s": "s",
    "serve.gen_lag_ms": "ms",
    "serve.open_p50_ms": "ms",
    "serve.open_tail_ms": "ms",
    "serve.burst_p50_ms": "ms",
    "protocol.request_ms": "ms",
    "arch.compute_increment_us": "us",
    "arch.per_iter_us": "us",
    "arch.active_tiles": "count",
    "arch.adc_conversions": "count",
    "arch.sim_energy_uj": "uJ",
    "arch.sim_time_us": "us",
    "trace.overhead_s": "s",
}


def install(tracer: Tracer, layouts: list) -> None:
    """Wrap the public functions each in-process layer is entered through."""
    import repro.arch.cim_annealer as cim
    import repro.core.batch as batch
    import repro.core.partition as partition
    import repro.core.plan as plan
    import repro.core.reorder as reorder
    import repro.ising as ising
    from repro.arch import InSituCimAnnealer
    from repro.arch.tiling import TiledCrossbar
    from repro.core import FloatBatchState, PackedBatchState
    from repro.ising import GraphColoringProblem, MaxCutProblem, QuboModel

    def keep_layout(kind):
        def after(perm, *a, **k):
            layouts.append((kind, perm))
            return {}
        return after

    def batch_counts(result, engine, *a, **k):
        packed = type(engine.model).__name__ == "PackedIsingModel"
        return {
            "state": "packed" if packed else "float",
            "accepted": int(np.sum(result.accepted)),
            "proposals": engine.replicas * result.iterations,
        }

    for owner, attr in (
        (ising, "generate_toroidal"),
        (ising, "scattered_circulant_maxcut"),
        (MaxCutProblem, "to_ising"),
        (GraphColoringProblem, "to_qubo"),
        (QuboModel, "to_ising"),
    ):
        tracer.wrap(owner, attr, f"ising.{attr}")
    tracer.wrap(plan, "compile_plan", "plan.compile_plan")
    tracer.wrap(plan, "as_backend", "plan.as_backend")
    tracer.wrap(plan, "resolve_layout", "plan.resolve_layout")
    tracer.wrap(plan, "fold_fields", "plan.fold_fields")
    tracer.wrap(cim, "compile_cim_program", "plan.compile_cim_program")
    tracer.wrap(plan.SolvePlan, "execute", "plan.execute")
    tracer.wrap(reorder, "rcm_permutation", "reorder.rcm", after=keep_layout("rcm"))
    tracer.wrap(
        partition, "partition_permutation", "partition.partition",
        after=keep_layout("partition"),
    )
    for engine in (batch.BatchInSituAnnealer, batch.BatchDirectEAnnealer):
        tracer.wrap(engine, "run", "batch.run", after=batch_counts)
    tracer.wrap(batch, "scan_order", "proposal.scan_order")
    # The engine snapshots only the replicas that improved; their count
    # per call sets the shape record_best is timed at (kernels.py).
    for kind, state in (("float", FloatBatchState), ("packed", PackedBatchState)):
        tracer.wrap(
            state, "record_best", f"state.{kind}.record_best", hot=True,
            size=lambda state, improved: len(improved),
        )
    tracer.wrap(InSituCimAnnealer, "run", "arch.run")
    tracer.wrap(
        TiledCrossbar, "compute_increment", "arch.compute_increment", hot=True
    )


def _unit_annealer(bench, ctx) -> tuple[float, object]:
    start = time.perf_counter()
    out = bench.solve(ctx)
    return time.perf_counter() - start, out


def _schedule_us(iterations: int) -> float:
    """µs per iteration for the V_BG temperature plus its factor value."""
    from repro.core.factors import FractionalFactor
    from repro.core.schedule import VbgStepSchedule

    factor = FractionalFactor()
    schedule = VbgStepSchedule(iterations, factor=factor)
    its = np.linspace(0, iterations - 1, kernels.CALLS).astype(int)

    def step(it):
        factor.value(np.asarray(schedule.temperature(int(it))))

    return kernels.per_call_us(step, [(it,) for it in its])


def _span_tree(spans):
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def self_s(s):
        return s["end"] - s["start"] - child_time[s["id"]]

    def root(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s

    return self_s, root


def _serve_metrics(server_spans, opened, bursts, service) -> dict:
    """Per-layer numbers of the serve pass from server spans and stats."""
    self_s, _ = _span_tree(server_spans)
    submit = {s["job"]: s["start"] for s in server_spans
              if s["name"] == "serve.submit"}
    worker_names = (
        "blockstack.compile_lane", "blockstack.run_stacked",
        "plan.get_or_compile", "plan.execute",
    )
    first_work: dict = {}
    for s in server_spans:
        if s["name"] in ("blockstack.compile_lane", "plan.get_or_compile"):
            job = s["job"]
            first_work[job] = min(first_work.get(job, s["start"]), s["start"])
    waits = [first_work[j] - submit[j] for j in first_work if j in submit]
    top = [s for s in server_spans
           if s["name"] in worker_names and s["parent"] is None]
    window = max(s["end"] for s in top) - min(submit.values())
    per_job = defaultdict(float)
    for s in server_spans:
        if s["name"].startswith("protocol."):
            per_job[s["job"]] += s["end"] - s["start"]
    lanes = [s["args"]["lanes"] for s in server_spans
             if s["name"] == "blockstack.run_stacked"]
    cache = service["plan_cache"]
    lags = [r["sent"] - r["due"] for r in opened]
    latencies = [r["done"] - r["due"] for r in opened if r["done"] is not None]
    return {
        "blockstack.compile_lane_ms": median(
            durations(server_spans, "blockstack.compile_lane")) * 1e3,
        "blockstack.stack_models_ms": median(
            durations(server_spans, "blockstack.stack_models")) * 1e3,
        "blockstack.run_stacked_s": sum(
            self_s(s) for s in server_spans
            if s["name"] == "blockstack.run_stacked"),
        "blockstack.lanes_per_batch": float(np.mean(lanes)),
        "serve.queue_wait_ms": median(waits) * 1e3,
        "serve.worker_busy_frac": sum(s["end"] - s["start"] for s in top) / window,
        "serve.packed_frac": service["packed_jobs"] / service["jobs"],
        "serve.plan_cache_hit_frac": cache["hits"] / max(
            1, cache["hits"] + cache["misses"]),
        "serve.solo_s": sum(
            s["end"] - s["start"] for s in server_spans
            if s["name"] in ("plan.get_or_compile", "plan.execute")),
        "serve.gen_lag_ms": tail(lags)[0] * 1e3,
        "serve.open_p50_ms": median(latencies) * 1e3,
        "serve.open_tail_ms": tail(latencies)[0] * 1e3,
        "serve.burst_p50_ms": median(
            r["done"] - r["due"] for r in bursts if r["done"] is not None
        ) * 1e3,
        "protocol.request_ms": median(per_job.values()) * 1e3,
    }


def _serve_pass(seed, named, tracer, trace_path):
    """A traced open loop and two bursts; with ``named``, untraced bursts
    before and after them on a second server (ABBA, for the overhead).

    The traced server has served the open loop before its bursts, so the
    untraced server first serves one untimed warm-up burst: both sides
    then time bursts 0 and 1 of jobs they have seen before.
    """
    jobs, refs = serve_mixed.prepare(seed, TRACE_POOL)
    plain = serve_mixed.start_server()[:2] if named else None
    records, bursts, untraced, traced = [], [], [], []
    try:
        if plain:
            records += serve_mixed.burst(plain[1], jobs, seed, 2)[0]
            rec, drain = serve_mixed.burst(plain[1], jobs, seed, 0)
            records += rec
            untraced.append(drain)
        proc, port, _ = serve_mixed.start_server(trace_path)
        try:
            opened = serve_mixed.open_loop(
                port, jobs, seed, round(serve_mixed.RATE * TRACE_OPEN_S)
            )
            for round_ in (0, 1):
                rec, drain = serve_mixed.burst(port, jobs, seed, round_)
                bursts += rec
                traced.append(drain)
            service = serve_mixed.stats(port)
        finally:
            serve_mixed.stop_server(proc)
        if plain:
            rec, drain = serve_mixed.burst(plain[1], jobs, seed, 1)
            records += rec
            untraced.append(drain)
    finally:
        if plain:
            serve_mixed.stop_server(plain[0])
    records += bursts
    bad = serve_mixed.failures(opened + records, refs)
    for r in opened + records:
        if r["done"] is not None:
            tracer.record("serve.request", r["due"], r["done"], job=r["job"])
    with open(trace_path, encoding="utf-8") as fh:
        server = json.load(fh)
    os.remove(trace_path)
    return {
        "jobs": jobs, "opened": opened, "bursts": bursts, "service": service,
        "server_spans": server["spans"],
        "overhead": np.mean(traced) - np.mean(untraced) if named else None,
        "attempted": len(opened) + len(records),
        "failed": len(bad), "problems": bad,
    }


def traced_run(workload: str, seed: int) -> dict:
    tracer = Tracer()
    layouts: list = []
    benches = {
        name: cls(seed) for name, cls in annealers.WORKLOADS.items()
    }
    attempted = failed = 0
    untraced = []
    if workload in benches:
        bench = benches[workload]
        untraced.append(_unit_annealer(bench, bench.setup())[0])

    install(tracer, layouts)
    ctxs, outs, traced = {}, {}, {}
    try:
        for name, bench in benches.items():
            ctxs[name] = tracer.call(f"bench.{name}.setup", bench.setup)
            traced[name], outs[name] = tracer.call(
                f"bench.{name}.solve", _unit_annealer, bench, ctxs[name]
            )
    finally:
        tracer.restore()
    overhead = None
    if workload in benches:
        # ABBA: a second traced execute (its spans discarded), then a
        # second untraced one, so slow spells of the machine cancel.
        bench, ctx = benches[workload], ctxs[workload]
        extra = Tracer()
        install(extra, [])
        try:
            second = _unit_annealer(bench, ctx)[0]
        finally:
            extra.restore()
        untraced.append(_unit_annealer(bench, ctx)[0])
        overhead = (traced[workload] + second) / 2 - np.mean(untraced)
    for name, bench in benches.items():
        problems = bench.check(ctxs[name], outs[name])
        attempted += 2
        failed += bool(problems)
        for p in problems[:5]:
            log(f"check failed ({name}): {p}")

    os.makedirs(OUT, exist_ok=True)
    serve = _serve_pass(
        seed, workload == "serve-mixed", tracer,
        os.path.join(OUT, f"server-spans-{os.getpid()}.json"),
    )
    attempted += serve["attempted"]
    failed += serve["failed"]
    for p in serve["problems"][:5]:
        log(f"check failed (serve-mixed): {p}")
    if workload == "serve-mixed":
        overhead = serve["overhead"]

    spans = tracer.spans
    self_s, root = _span_tree(spans)
    owner = {s["id"]: root(s)["name"].split(".")[1] for s in spans
             if root(s)["name"].startswith("bench.")}

    def total_self(name, within=None):
        return sum(self_s(s) for s in spans if s["name"] == name
                   and (within is None or owner.get(s["id"]) == within))

    metrics = {
        "ising.build_s": sum(self_s(s) for s in spans
                             if s["name"].startswith("ising.")),
        "plan.as_backend_s": total_self("plan.as_backend"),
        "plan.resolve_layout_s": total_self("plan.resolve_layout"),
        "plan.fold_fields_s": total_self("plan.fold_fields"),
        "plan.compile_cim_program_s": total_self("plan.compile_cim_program"),
        "plan.execute_s": total_self("plan.execute"),
        "reorder.rcm_s": total_self("reorder.rcm"),
        "partition.partition_s": total_self("partition.partition"),
    }
    for kind, name in (("rcm", "reorder.tiles_rcm"), ("partition", "partition.tiles")):
        perms = [p for k, p in layouts if k == kind]
        metrics[name] = float(
            perms[-1].estimated_active_tiles(annealers.TILED_TILE)
        ) if perms else 0.0
    for state in ("packed", "float"):
        runs = [s for s in spans
                if s["name"] == "batch.run" and s["args"]["state"] == state]
        metrics[f"batch.{state}.run_s"] = sum(self_s(s) for s in runs)
        metrics[f"batch.{state}.accept_frac"] = (
            sum(s["args"]["accepted"] for s in runs)
            / max(1, sum(s["args"]["proposals"] for s in runs))
        )

    # Kernels at the shapes of the traced pass, wrappers removed.
    for kind, name, replicas in (
        ("packed", "mc-gset", annealers.MC_REPLICAS),
        ("float", "cop-float", annealers.COP_REPLICAS),
    ):
        accepted = round(replicas * metrics[f"batch.{kind}.accept_frac"])
        snapshots, _, improved = tracer.calls[f"state.{kind}.record_best"]
        timings = kernels.state_kernels(
            ctxs[name]["plan"].model, replicas, accepted,
            round(improved / max(1, snapshots)), seed,
        )
        for op, value in timings.items():
            metrics[f"kernel.{kind}.{op}"] = value
    serve_models = _serve_union_members(serve)
    metrics["kernel.slots.cross_term_slots_us"] = kernels.slots_kernel(
        serve_models, serve_mixed.REPLICAS, seed
    )
    metrics["proposal.scan_order_ms"] = sum(
        s["end"] - s["start"] for s in spans
        if s["name"] == "proposal.scan_order" and owner.get(s["id"]) == "mc-gset"
    ) * 1e3
    metrics["schedule.temperature_us"] = _schedule_us(annealers.MC_ITERATIONS)
    metrics.update(_serve_metrics(
        serve["server_spans"], serve["opened"], serve["bursts"],
        serve["service"],
    ))

    tiled = benches["tiled-machine"].counts(
        ctxs["tiled-machine"], outs["tiled-machine"]
    )
    calls, seconds, _ = tracer.calls["arch.compute_increment"]
    metrics.update({
        "arch.compute_increment_us": seconds / max(1, calls) * 1e6,
        "arch.per_iter_us": sum(durations(spans, "arch.run"))
        / tiled["iterations"] * 1e6,
        "arch.active_tiles": float(tiled["tiles"]),
        "arch.adc_conversions": float(tiled["adc_conversions"]),
        "arch.sim_energy_uj": tiled["sim_energy_uj"],
        "arch.sim_time_us": tiled["sim_time_us"],
        "trace.overhead_s": float(overhead),
    })

    path = os.path.join(OUT, f"trace-{workload}-s{seed}.json")
    write_chrome_trace(path, {
        "benchmark": spans, "server": serve["server_spans"],
    })
    log(f"trace: {len(spans)} + {len(serve['server_spans'])} spans "
        f"written to {os.path.relpath(path)}")
    return {**{k: metrics[k] for k in UNITS}, "units": UNITS,
            "attempted": attempted, "failed": failed}


def _serve_union_members(serve) -> list:
    """Models of one typical stacked in-situ t=1 batch of the traced pass."""
    from repro.ising.gset import parse_gset

    runs = [s["args"]["lanes"] for s in serve["server_spans"]
            if s["name"] == "blockstack.run_stacked"]
    size = max(2, round(median(runs))) if runs else 2
    members = [job for job in serve["jobs"]
               if job["method"] == "insitu" and job["flips"] == 1][:size]
    return [parse_gset(job["gset"]).to_ising(backend="auto") for job in members]
