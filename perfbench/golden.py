"""Stored results of short fixed-seed runs; any difference is a failure.

Before it times anything, every end-to-end run repeats a short run of its
workload on fixed inputs (seed :data:`SEED`, untimed) and compares a digest
of everything that run returns with the digest stored in ``golden.json``:

* ``mc-gset``, ``cop-float``: best and final energies and configurations
  and per-replica accept counts of one ``SolvePlan.execute``;
* ``tiled-machine``: the same for the tiled machine, plus the ``Ledger``
  totals (modelled energy and time) of the execute;
* ``serve-mixed``: the solo ``solve_ising`` references of the first
  :data:`SERVE_JOBS` jobs of the pool, which every served result must equal.

A change that alters any result, the modelled hardware cost included,
therefore fails the run instead of moving ``quality`` within its bound.
After a deliberate change of results, rewrite the file with

    python3 perfbench/golden.py
"""

from __future__ import annotations

import hashlib
import json
import os

from common import ROOT, import_library, log

SEED = 0
PATH = os.path.join(ROOT, "perfbench", "golden.json")
#: Iterations of the fixed-seed execute of each in-process workload.
ITERATIONS = {"mc-gset": 2000, "cop-float": 2000, "tiled-machine": 1000}
SERVE_JOBS = 16


def _digest(parts) -> str:
    """sha256 over byte strings and the exact ``repr`` of numbers."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(float(part)).encode())
    return h.hexdigest()


def compute(workload: str) -> tuple[str, list[str]]:
    """``(digest, problems)`` of the workload's fixed-seed run."""
    if workload == "serve-mixed":
        import serve_mixed

        refs = [
            serve_mixed.reference(job)
            for job in serve_mixed.make_jobs(SEED, SERVE_JOBS)
        ]
        return _digest([json.dumps(refs, sort_keys=True).encode()]), []

    import annealers

    bench = annealers.WORKLOADS[workload](SEED)
    bench.iterations = ITERATIONS[workload]
    ctx = bench.setup()
    out = bench.solve(ctx)
    return _digest(bench.signature(out)), bench.check(ctx, out)


def check(workload: str) -> list[str]:
    """Why the fixed-seed run differs from ``golden.json`` (empty if not)."""
    with open(PATH, encoding="utf-8") as fh:
        stored = json.load(fh)[workload]
    digest, problems = compute(workload)
    if digest != stored:
        problems.append(
            f"fixed-seed results differ from {os.path.relpath(PATH)} "
            f"(digest {digest[:12]}, stored {stored[:12]})"
        )
    return problems


def main() -> None:
    import_library()
    import annealers

    digests = {}
    for workload in (*annealers.WORKLOADS, "serve-mixed"):
        digest, problems = compute(workload)
        if problems:
            raise SystemExit(f"{workload}: {problems[0]}")
        digests[workload] = digest
        log(f"{workload}: {digest}")
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
