"""serve-mixed: independent tenants against the JSON-lines server.

One load-generator process (this one) drives a server process over at most
``nproc`` (capped at 2) TCP connections, pipelining requests.  Each run:

1. starts the server ``SETUP_REPEATS`` times; ``setup_s`` is the fastest
   time from process start until the first ``ping`` answers;
2. builds ``POOL`` distinct jobs from the seed and solves each one with
   solo ``solve_ising`` (untimed): the references every served result
   must equal bit for bit;
3. open loop: requests drawn from the pool are sent on a seeded Poisson
   schedule at ``RATE`` jobs/s, whatever the server does; the latency of
   each request runs from its due time to its response (logged, and in
   the traced run; see README.md for why it is not an end-to-end metric);
4. bursts: the whole pool due at once, repeated until ``--seconds`` is
   spent.  ``solve_s`` is the fastest drain of one burst; the median
   latency of a burst job from its due time is logged.

A request that errors, goes unanswered or differs from its reference
counts in ``failed``.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time

import numpy as np

from common import ROOT, log, median, peak_rss_mb, positive_weight, tail

#: Offered open-loop rate (jobs/s).  At light load most jobs run solo, so
#: each costs a whole solve; near 25 jobs/s the queue starts to build and
#: the median latency becomes unsteady from run to run.
RATE = 20.0
#: Distinct jobs per run; open-loop requests and bursts draw from them.
POOL = 400
#: Share of ``--seconds`` spent in the open loop; bursts take the rest.
OPEN_SHARE = 0.3
MIN_BURSTS = 3
SETUP_REPEATS = 5
#: Seconds the generator waits for the last response of an open loop or
#: burst; a request still unanswered then counts as failed.
RESPONSE_TIMEOUT = 60.0
ITERATIONS, REPLICAS = 200, 4
#: (method, flips per iteration, share).  Packable in-situ t=1 jobs
#: dominate; sa and in-situ t=4 jobs form pack keys of their own; sb jobs
#: run solo and repeat a few instances, so they hit the plan cache.
MIX = (("insitu", 1, 0.70), ("sa", 1, 0.12), ("insitu", 4, 0.12), ("sb", 1, 0.06))
SB_INSTANCES = 4
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
SERVER = os.path.join(ROOT, "perfbench", "server.py")


def _instance(rng):
    from repro.ising.gset import generate_random, write_gset

    n = int(rng.integers(32, 101))
    m = int(rng.integers(2 * n, 3 * n + 1))
    problem = generate_random(n, m, weighted=True, seed=int(rng.integers(2**31)))
    return write_gset(problem)


def make_jobs(seed: int, count: int) -> list[dict]:
    """``count`` seeded job payloads (without ``job_id``) in the MIX."""
    rng = np.random.default_rng([seed, 7421])
    sb_texts = [_instance(rng) for _ in range(SB_INSTANCES)]
    # Exact shares, shuffled: only the instances and seeds vary by seed.
    kinds = np.repeat(
        np.arange(len(MIX)),
        np.diff(np.round(np.cumsum([0] + [s for _, _, s in MIX]) * count).astype(int)),
    )
    rng.shuffle(kinds)
    jobs = []
    for kind in kinds:
        method, flips, _ = MIX[kind]
        text = (
            sb_texts[int(rng.integers(SB_INSTANCES))] if method == "sb"
            else _instance(rng)
        )
        jobs.append({
            "op": "solve", "gset": text, "method": method,
            "iterations": ITERATIONS, "replicas": REPLICAS, "flips": flips,
            "seed": int(rng.integers(2**31)),
        })
    return jobs


def reference(job: dict) -> dict:
    """The solo ``solve_ising`` answer a served job must reproduce."""
    from repro.core.solver import solve_ising
    from repro.ising.gset import parse_gset

    problem = parse_gset(job["gset"], name="reference")
    model = problem.to_ising(backend="auto")
    kwargs = {} if job["method"] == "sb" else {
        "flips_per_iteration": job["flips"]
    }
    res = solve_ising(
        model, method=job["method"], iterations=job["iterations"],
        seed=job["seed"], replicas=job["replicas"], **kwargs,
    )
    best = int(np.argmin(res.best_energies))
    return {
        "best_energy": float(res.best_energies[best]),
        "best_sigma": [int(s) for s in res.best_sigmas[best]],
        "accepted": [int(a) for a in res.accepted],
        "cut_share": problem.cut_from_energy(float(res.best_energies[best]))
        / positive_weight(problem),
    }


def mismatch(response, ref) -> str | None:
    """Why a served response is wrong, or None when it equals ``ref``."""
    if response is None:
        return "unanswered"
    if not response.get("ok"):
        return f"error: {response.get('error')}"
    for key in ("best_energy", "best_sigma", "accepted"):
        if response.get(key) != ref[key]:
            return f"{key} differs from the solo solve"
    return None


# -- server process ------------------------------------------------------
def start_server(trace_path: str | None = None):
    """Launch the server; returns ``(process, port, seconds until ping)``."""
    from repro.serve.protocol import request

    cmd = [sys.executable, SERVER]
    if trace_path:
        cmd += ["--trace", trace_path]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        cwd=ROOT,
    )
    line = proc.stdout.readline()
    if not line.startswith("PORT "):
        stop_server(proc)
        raise RuntimeError(f"server did not start (said {line!r})")
    port = int(line.split()[1])
    if request({"op": "ping"}, port=port) != {"ok": True}:
        stop_server(proc)
        raise RuntimeError("server did not answer ping")
    return proc, port, time.perf_counter() - start


def stop_server(proc) -> None:
    """Close the server's stdin (its stop signal) and wait for it."""
    try:
        proc.stdin.close()
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def stats(port: int) -> dict:
    from repro.serve.protocol import request

    return request({"op": "stats"}, port=port)["stats"]


# -- load generator ------------------------------------------------------
async def _drive(port, lines, ids, due):
    """Send ``lines[i]`` at ``t0 + due[i]``; collect responses by job id."""
    conns = [
        await asyncio.open_connection("127.0.0.1", port, limit=2**22)
        for _ in range(CONNECTIONS)
    ]
    n = len(lines)
    sent = [None] * n
    done = [None] * n
    responses = [None] * n
    index = {job_id: i for i, job_id in enumerate(ids)}
    left = [n]
    all_done = asyncio.Event()

    async def read(reader):
        while left[0] > 0:
            raw = await reader.readline()
            if not raw:
                return
            now = time.perf_counter()
            msg = json.loads(raw)
            i = index.get(msg.get("job_id"))
            if i is None or done[i] is not None:
                continue
            done[i], responses[i] = now, msg
            left[0] -= 1
            if left[0] == 0:
                all_done.set()

    readers = [asyncio.ensure_future(read(r)) for r, _ in conns]
    t0 = time.perf_counter() + 0.02
    for i in range(n):
        delay = t0 + due[i] - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        writer = conns[i % CONNECTIONS][1]
        writer.write(lines[i])
        sent[i] = time.perf_counter()
        if writer.transport.get_write_buffer_size() > 1 << 16:
            await writer.drain()
    try:
        await asyncio.wait_for(all_done.wait(), RESPONSE_TIMEOUT)
    except asyncio.TimeoutError:
        pass
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    for _, writer in conns:
        writer.close()
    await asyncio.gather(
        *(w.wait_closed() for _, w in conns), return_exceptions=True
    )
    return t0, sent, done, responses


def send(port, jobs, picks, prefix, due):
    """Send ``jobs[picks[i]]`` at offset ``due[i]``; per-request records."""
    ids = [f"{prefix}{i}-j{p}" for i, p in enumerate(picks)]
    lines = [
        json.dumps({**jobs[p], "job_id": job_id}).encode() + b"\n"
        for p, job_id in zip(picks, ids)
    ]
    t0, sent, done, responses = asyncio.run(_drive(port, lines, ids, due))
    return [
        {
            "job": ids[i], "pick": picks[i], "due": t0 + due[i],
            "sent": sent[i], "done": done[i], "response": responses[i],
        }
        for i in range(len(picks))
    ]


def open_loop(port, jobs, seed, count):
    """Poisson arrivals at RATE drawn from the pool."""
    rng = np.random.default_rng([seed, 1])
    due = np.cumsum(rng.exponential(1.0 / RATE, size=count))
    picks = [int(p) for p in rng.integers(len(jobs), size=count)]
    return send(port, jobs, picks, "o", list(due))


def burst(port, jobs, seed, round_):
    """Every pool job at once, in a seeded order; returns (records, s)."""
    rng = np.random.default_rng([seed, 2, round_])
    picks = [int(p) for p in rng.permutation(len(jobs))]
    records = send(port, jobs, picks, f"b{round_}-", [0.0] * len(picks))
    finished = [r["done"] for r in records if r["done"] is not None]
    first = min(r["sent"] for r in records)
    return records, (max(finished) if finished else float("inf")) - first


def failures(records, refs) -> list[str]:
    out = []
    for r in records:
        why = mismatch(r["response"], refs[r["pick"]])
        if why is not None:
            out.append(f"{r['job']}: {why}")
    return out


def prepare(seed: int, pool: int):
    jobs = make_jobs(seed, pool)
    start = time.perf_counter()
    refs = [reference(job) for job in jobs]
    log(f"serve-mixed: {pool} solo references in "
        f"{time.perf_counter() - start:.1f} s")
    return jobs, refs


def measure(seed: int, seconds: float) -> dict:
    setup_times = []
    proc = port = None
    for _ in range(SETUP_REPEATS):
        if proc is not None:
            stop_server(proc)
        proc, port, startup = start_server()
        setup_times.append(startup)
    try:
        jobs, refs = prepare(seed, POOL)
        count = max(1, round(RATE * OPEN_SHARE * seconds))
        opened = open_loop(port, jobs, seed, count)
        drains = []
        bursts = []
        deadline = time.perf_counter() + seconds * (1.0 - OPEN_SHARE)
        while time.perf_counter() < deadline or len(drains) < MIN_BURSTS:
            records, drain = burst(port, jobs, seed, len(drains))
            bursts += records
            drains.append(drain)
        service = stats(port)
    finally:
        stop_server(proc)
    bad = failures(opened, refs) + failures(bursts, refs)
    for why in bad[:5]:
        log(f"check failed: {why}")
    latencies = [
        (r["done"] - r["due"]) * 1e3 for r in opened if r["done"] is not None
    ]
    lags = [(r["sent"] - r["due"]) * 1e3 for r in opened]
    high, pct = tail(latencies)
    lag, lag_pct = tail(lags)
    log(f"serve-mixed: open loop of {len(opened)} jobs at {RATE:g}/s: "
        f"{len(latencies)} answered, p50 {median(latencies):.1f} ms, "
        f"p{pct:g} {high:.1f} ms; generator lag p{lag_pct:g} {lag:.2f} ms")
    waits = [
        (r["done"] - r["due"]) * 1e3 for r in bursts if r["done"] is not None
    ]
    log(f"serve-mixed: {len(drains)} bursts of {POOL} jobs: drain fastest "
        f"{min(drains):.3f} s ({POOL / min(drains):.0f} jobs/s), median "
        f"{median(drains):.3f} s; burst job latency p50 {median(waits):.1f} "
        f"ms; service stats {json.dumps(service)}")
    return {
        # Every start is the same work, so the fastest is the least
        # disturbed by the machine's other load.
        "setup_s": min(setup_times),
        # Every burst carries the same jobs and must return the same
        # results, so the fastest drain is the least disturbed.
        "solve_s": min(drains),
        "quality": float(np.mean([ref["cut_share"] for ref in refs])),
        "peak_rss_mb": peak_rss_mb(children=True),
        "attempted": len(setup_times) + len(opened) + len(bursts),
        "failed": len(bad),
    }
