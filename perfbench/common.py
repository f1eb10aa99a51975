"""Shared helpers: locating the library in the checkout, statistics, RSS."""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

#: Latencies need at least this many samples beyond a percentile to report it.
TAIL_MARGIN = 10
#: The tail percentile reported when enough samples lie beyond it.
TAIL_TARGET = 99.0


def import_library() -> None:
    """Put the checkout's ``src`` first on the path and verify ``repro``.

    The benchmark measures the library of the checkout it runs in, never an
    installed copy, so a directory without ``src/repro`` is an error.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no library at {SRC}/repro; run from the root of a "
            f"repository checkout"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise SystemExit(f"perfbench: imported repro from {where}, not {SRC}")


def median(values) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def tail(values) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile up to
    :data:`TAIL_TARGET` with at least :data:`TAIL_MARGIN` samples beyond it
    (nearest rank).

    With :data:`TAIL_MARGIN` samples or fewer no percentile qualifies and
    the slowest sample is returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_MARGIN:
        return float(ordered[-1]), 100.0
    pct = min(TAIL_TARGET, 100.0 * (1.0 - TAIL_MARGIN / n))
    rank = max(1, math.ceil(pct / 100.0 * n))
    return float(ordered[rank - 1]), pct


def positive_weight(problem) -> float:
    """Σ max(w, 0) over a Max-Cut problem's edges: a bound on any cut."""
    weights = problem.weight_array
    return float(weights[weights > 0].sum())


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MiB from ``getrusage`` (Linux: KiB)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def log(message: str) -> None:
    """Progress line on standard output (the result JSON comes last)."""
    print(message, flush=True)
