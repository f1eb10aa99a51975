"""Reference ("best-known") cut values for normalisation.

The paper normalises cut values against "the true optimal value".  True
optima are unavailable for synthetic 800-3000-node instances, so this module
computes a *best-known proxy* the standard way: the maximum cut found by a
battery of long multi-restart runs (both solver families, 20× the paper's
iteration budget each).  Two refinements:

* bipartite instances with non-negative weights (the unweighted toroidal
  G48-class) have a closed-form optimum — the total edge weight — which is
  used exactly;
* values are cached on disk keyed by a fingerprint of the instance, so the
  expensive battery runs once per instance ever.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.solver import solve_maxcut
from repro.ising.maxcut import MaxCutProblem

#: Default on-disk cache (repo-local so benches are reproducible offline).
DEFAULT_CACHE = Path(__file__).resolve().parents[3] / "benchmarks" / "reference_cache.json"


def instance_fingerprint(problem: MaxCutProblem) -> str:
    """Stable content hash of an instance (edges + weights + size)."""
    digest = hashlib.sha256()
    digest.update(str(problem.num_nodes).encode())
    digest.update(np.ascontiguousarray(problem.edge_array).tobytes())
    digest.update(np.ascontiguousarray(problem.weight_array).tobytes())
    return digest.hexdigest()[:16]


def exact_bipartite_optimum(problem: MaxCutProblem) -> float | None:
    """Closed-form optimum for bipartite graphs with non-negative weights.

    A bipartition cuts *every* edge, which is optimal when no weight is
    negative.  Returns ``None`` when the closed form does not apply.
    """
    if np.any(problem.weight_array < 0):
        return None
    if problem.num_edges == 0:
        return 0.0
    from networkx import is_bipartite

    if not is_bipartite(problem.to_networkx()):
        return None
    return problem.total_weight


def compute_reference_cut(
    problem: MaxCutProblem,
    restarts: int = 3,
    iterations: int | None = None,
    seed: int = 90_000,
) -> float:
    """Best cut from the multi-restart long-run battery (no caching).

    Runs ``restarts`` independent runs of both the in-situ and the SA
    solver; ``iterations`` defaults to ``max(50·n, 20·m, 40 000)``.
    """
    exact = exact_bipartite_optimum(problem)
    if exact is not None:
        return exact
    if iterations is None:
        iterations = max(50 * problem.num_nodes, 20 * problem.num_edges, 40_000)
    best = 0.0
    for r in range(restarts):
        for method in ("insitu", "sa"):
            result = solve_maxcut(
                problem, method=method, iterations=iterations, seed=seed + 17 * r
            )
            best = max(best, result.best_cut)
    return best


def reference_cut(
    problem: MaxCutProblem,
    cache_path: Path | str | None = DEFAULT_CACHE,
    restarts: int = 3,
    iterations: int | None = None,
    seed: int = 90_000,
) -> float:
    """Best-known cut for ``problem``, cached on disk.

    Set ``cache_path=None`` to bypass the cache (tests do this).
    """
    if cache_path is None:
        return compute_reference_cut(problem, restarts, iterations, seed)
    cache_file = Path(cache_path)
    key = f"{problem.name}:{instance_fingerprint(problem)}"
    cache: dict[str, float] = {}
    if cache_file.exists():
        try:
            cache = json.loads(cache_file.read_text())
        except (json.JSONDecodeError, OSError):
            cache = {}
    if key in cache:
        return float(cache[key])
    value = compute_reference_cut(problem, restarts, iterations, seed)
    cache[key] = value
    cache_file.parent.mkdir(parents=True, exist_ok=True)
    cache_file.write_text(json.dumps(cache, indent=1, sort_keys=True))
    return value
