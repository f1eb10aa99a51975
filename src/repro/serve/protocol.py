"""JSON-lines TCP front end for the solver service.

One request per line, one JSON response per line.  Requests are
pipelined: each line is handled as its own task, so a client may queue
many ``solve`` requests on one connection and responses stream back as
batches complete (responses carry the request's ``job_id`` and may
arrive out of order).

Operations
----------
``{"op": "ping"}``
    Liveness probe → ``{"ok": true}``.
``{"op": "stats"}``
    Service + plan-cache counters → ``{"ok": true, "stats": {...}}``.
``{"op": "solve", "job_id": ..., "gset": "<instance text>", ...}``
    Solve a Max-Cut instance given inline in G-set format (first line
    ``n m``, then ``u v w`` edges, 1-based).  Optional knobs mirror
    ``repro submit``: ``method``, ``iterations``, ``replicas``,
    ``flips``, ``seed``, ``backend``.  The response reports the best
    replica's energy, cut value and ±1 configuration.

Errors return ``{"ok": false, "error": "..."}``.  A failed ``solve``
answers exactly once with a message that starts ``job '<id>':`` —
parse and model-building errors, boundary rejections and unexpected
failures (``internal error (<Type>): ...``) alike.  Request lines are
capped at :data:`MAX_REQUEST_BYTES`.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket

from repro.ising.gset import parse_gset
from repro.serve.jobs import check_admission, job_request
from repro.serve.service import SolverService

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7421

#: Longest request line the server reads (newline excluded).  An inline
#: 3000-node / 12 000-edge G-set is about 150 KB; a longer line gets one
#: protocol error and is skipped through its newline, and the connection
#: stays open.
MAX_REQUEST_BYTES = 4 * 1024 * 1024

_log = logging.getLogger(__name__)


async def handle_request(service: SolverService, payload: dict) -> dict:
    """Dispatch one decoded request against the service."""
    op = payload.get("op")
    if op == "ping":
        return {"ok": True}
    if op == "stats":
        return {"ok": True, "stats": service.stats()}
    if op == "solve":
        return await _handle_solve(service, payload)
    return {
        "ok": False,
        "error": f"unknown op {op!r}; choose from ['ping', 'solve', 'stats']",
    }


async def _handle_solve(service: SolverService, payload: dict) -> dict:
    """Solve one request; every failure becomes one ``job '<id>':`` error."""
    job_id = payload.get("job_id")
    name = None if job_id is None else str(job_id)
    prefix = f"job {name!r}: "
    try:
        source = payload.get("gset")
        if not isinstance(source, str) or not source.strip():
            raise ValueError(
                "'gset' must carry the instance text "
                "(first line 'n m', then 'u v w' edge lines)"
            )
        problem = parse_gset(source, name="gset" if name is None else name)
        backend = payload.get("backend", "auto")
        knobs = dict(
            method=payload.get("method", "insitu"), iterations=payload.get("iterations", 1000),
            replicas=payload.get("replicas", 1), flips_per_iteration=payload.get("flips", 1),
        )
        # A 12-byte header can declare 10**9 spins: admit before building.
        check_admission(problem.num_nodes, dense=backend == "dense", **knobs)
        model = problem.to_ising(backend=backend)
        job = job_request(
            "" if name is None else name, model, seed=payload.get("seed"),
            **knobs,
        )
        result = await service.submit(job)
        best = result.best_replica
        best_energy = float(result.best_energies[best])
        return {
            "ok": True,
            "job_id": result.job_id,
            "best_energy": best_energy,
            "best_cut": float(problem.cut_from_energy(best_energy)),
            "best_sigma": [int(s) for s in result.best_sigmas[best]],
            "replicas": int(result.best_energies.shape[0]),
            "accepted": [int(a) for a in result.accepted],
            "iterations": result.iterations,
            "packed": result.packed,
            "batch_size": result.batch_size,
        }
    except (ValueError, RuntimeError) as exc:
        message = str(exc)
    except Exception as exc:  # noqa: BLE001 — every request gets one answer
        # Cancellation is a BaseException, so it still propagates.
        _log.exception("job %r: internal error", name)
        message = f"internal error ({type(exc).__name__}): {exc}"
    # job_request and the service already prefix their own messages.
    if not message.startswith(prefix):
        message = prefix + message
    return {"ok": False, "error": message, "job_id": job_id}


async def _handle_connection(
    service: SolverService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    write_lock = asyncio.Lock()
    pending: set[asyncio.Task] = set()

    async def respond(payload: dict) -> None:
        response = await handle_request(service, payload)
        line = json.dumps(response).encode() + b"\n"
        async with write_lock:
            writer.write(line)
            await writer.drain()

    try:
        while True:
            try:
                raw = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as exc:
                raw = exc.partial  # a last line without newline, or EOF
                if not raw:
                    break
            except asyncio.LimitOverrunError:
                await respond_error(
                    writer, write_lock,
                    f"request line exceeds the {MAX_REQUEST_BYTES}-byte "
                    f"limit (MAX_REQUEST_BYTES); the line was discarded",
                )
                if not await _discard_line(reader):
                    break
                continue
            raw = raw.strip()
            if not raw:
                continue
            try:
                payload = json.loads(raw)
            except (ValueError, RecursionError) as exc:
                # Bad JSON, bytes that are not UTF-8, or nesting past the
                # decoder's recursion limit: one error, and the line is done.
                await respond_error(
                    writer, write_lock, f"invalid JSON line: {exc}"
                )
                continue
            if not isinstance(payload, dict):
                await respond_error(
                    writer, write_lock,
                    "each request line must be a JSON object",
                )
                continue
            # Pipelined: each request resolves independently so long
            # solves never block a ping/stats probe on the same socket.
            task = asyncio.ensure_future(respond(payload))
            pending.add(task)
            task.add_done_callback(pending.discard)
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _discard_line(reader: asyncio.StreamReader) -> bool:
    """Drop buffered input through the next newline; False at EOF.

    Reads at most one limit's worth at a time, so an oversized line
    never grows the buffer past :data:`MAX_REQUEST_BYTES`.
    """
    while True:
        try:
            await reader.readuntil(b"\n")
            return True
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
        except asyncio.IncompleteReadError:
            return False


async def respond_error(
    writer: asyncio.StreamWriter, write_lock: asyncio.Lock, message: str
) -> None:
    """Write one protocol-level error line."""
    line = json.dumps({"ok": False, "error": message}).encode() + b"\n"
    async with write_lock:
        writer.write(line)
        await writer.drain()


async def start_server(
    service: SolverService,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
) -> asyncio.AbstractServer:
    """Bind the JSON-lines endpoint (service must already be started)."""
    return await asyncio.start_server(
        lambda r, w: _handle_connection(service, r, w), host, port,
        limit=MAX_REQUEST_BYTES,
    )


def request(payload: dict, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT) -> dict:
    """Blocking one-shot client: send one request line, read one response.

    Used by ``repro submit``; a trivial reference implementation of the
    wire format for other clients.
    """
    with socket.create_connection((host, port)) as conn:
        conn.sendall(json.dumps(payload).encode() + b"\n")
        with conn.makefile("r", encoding="utf-8") as stream:
            line = stream.readline()
    if not line:
        raise RuntimeError(f"no response from {host}:{port}")
    return json.loads(line)


__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "MAX_REQUEST_BYTES",
    "handle_request",
    "request",
    "start_server",
]
