"""Gset-style Max-Cut instances: format parser/writer and generators.

The paper evaluates on Stanford Gset Max-Cut instances [38] (9×800-node,
9×1000-node, 9×2000-node and 3×3000-node graphs).  The Gset files are not
redistributable here, so this module provides:

* :func:`parse_gset` / :func:`write_gset` — the standard Gset text format
  (header ``n m``, then 1-indexed ``u v w`` lines), so users who *do* have the
  original files can load them directly; and
* deterministic synthetic generators for the three Gset families —
  **random** (uniform edge set, e.g. G1: 800 nodes / 19 176 edges),
  **skew** (heavy-tailed degrees, e.g. G14), and
  **toroidal** (2-D torus with ±1 weights, e.g. G48-G50: 3000 nodes /
  6000 edges) — with node/edge counts matching the corresponding Gset
  classes; and
* :func:`paper_instance_suite` — the 30-instance evaluation suite mirroring
  the paper's grouping, with fixed seeds so every figure is reproducible.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.ising.maxcut import MaxCutProblem
from repro.utils.rng import ensure_rng

#: Iteration budget per node count used throughout the paper's evaluation
#: (Sec. 4.1): 800 → 700, 1000 → 1000, 2000 → 10 000, 3000 → 100 000.
PAPER_ITERATIONS = {800: 700, 1000: 1_000, 2000: 10_000, 3000: 100_000}


# ----------------------------------------------------------------------
# Gset text format
# ----------------------------------------------------------------------
def parse_gset(source, name: str = "gset") -> MaxCutProblem:
    """Parse a Gset-format instance.

    Parameters
    ----------
    source:
        A path, a file-like object, or the raw text of the instance.
    name:
        Label for the returned problem.

    Format: first non-comment line is ``<num_nodes> <num_edges>``; each
    following line is ``<u> <v> <weight>`` with 1-indexed endpoints (weight
    optional, default 1).  Lines starting with ``#`` or ``%`` are ignored.
    """
    if isinstance(source, Path):
        text = source.read_text()
    elif hasattr(source, "read"):
        text = source.read()
    else:
        text = str(source)
        if "\n" not in text and text.strip():
            candidate = Path(text)
            if candidate.is_file():
                text = candidate.read_text()

    lines = [
        (number, ln.strip())
        for number, ln in enumerate(text.splitlines(), start=1)
        if ln.strip() and not ln.lstrip().startswith(("#", "%"))
    ]
    if not lines:
        raise ValueError("empty Gset input")
    number, header = lines[0]
    try:
        n, m = (int(tok) for tok in header.split()[:2])
    except ValueError:
        raise ValueError(
            f"bad Gset header on line {number}: {header!r} (expected 'n m')"
        ) from None
    body = len(lines) - 1
    if body != m:
        # Truncating at m used to silently drop trailing edge lines, so a
        # file whose header disagrees with its body parsed without error.
        raise ValueError(
            f"expected {m} edge lines, found {body}: the header declares "
            f"m={m} but the body has {body} non-comment lines"
            + (" (trailing lines would be silently ignored)" if body > m else "")
        )
    edges = np.zeros((m, 2), dtype=np.intp)
    weights = np.ones(m, dtype=np.float64)
    for i, (number, ln) in enumerate(lines[1:]):
        parts = ln.split()
        try:
            if len(parts) < 2:
                raise ValueError("expected 'u v [w]'")
            u, v = int(parts[0]), int(parts[1])
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"endpoints must be in [1, {n}]")
            edges[i] = u - 1, v - 1
            if len(parts) >= 3:
                weights[i] = float(parts[2])
        except ValueError as exc:
            raise ValueError(
                f"bad edge line {number}: {ln!r} ({exc})"
            ) from None
    return MaxCutProblem(n, edges, weights, name=name)


def load_ising(source, backend: str = "auto", name: str = "gset"):
    """Parse a Gset instance and build its Ising model in one call.

    Returns ``(problem, model)``.  ``backend`` is forwarded to
    :meth:`MaxCutProblem.to_ising`; with the default ``"auto"`` every
    G-set-scale instance (low pair density, hundreds to thousands of
    nodes) comes out on the sparse CSR backend without ever materialising
    the dense coupling matrix.
    """
    problem = parse_gset(source, name=name)
    return problem, problem.to_ising(backend=backend)


def write_gset(problem: MaxCutProblem, target=None) -> str:
    """Serialise a problem in Gset format; write to ``target`` if given.

    ``target`` may be a path or a file-like object.  The serialised text is
    returned either way.
    """
    buf = io.StringIO()
    buf.write(f"{problem.num_nodes} {problem.num_edges}\n")
    for (u, v), w in zip(problem.edge_array, problem.weight_array):
        w_txt = str(int(w)) if float(w).is_integer() else repr(float(w))
        buf.write(f"{u + 1} {v + 1} {w_txt}\n")
    text = buf.getvalue()
    if target is not None:
        if isinstance(target, (str, Path)):
            Path(target).write_text(text)
        else:
            target.write(text)
    return text


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def random_edge_set(
    n: int, m: int, weighted: bool = False, seed=None
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``m`` distinct undirected edges uniformly at random.

    Returns ``(edges, weights)``; weights are ±1 when ``weighted`` else all 1.
    """
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise ValueError(f"cannot place {m} edges in a {n}-node simple graph")
    rng = ensure_rng(seed)
    # Sample linear indices of the strict upper triangle without replacement.
    chosen = rng.choice(max_edges, size=m, replace=False)
    # Invert the row-major upper-triangle linear index.
    # Row r starts at offset r*n - r*(r+1)/2 - r ... easier via cumulative counts.
    counts = np.arange(n - 1, 0, -1)  # row r has (n-1-r) entries
    row_starts = np.concatenate(([0], np.cumsum(counts)))
    rows = np.searchsorted(row_starts, chosen, side="right") - 1
    cols = chosen - row_starts[rows] + rows + 1
    edges = np.stack([rows, cols], axis=1).astype(np.intp)
    if weighted:
        weights = rng.choice(np.array([-1.0, 1.0]), size=m)
    else:
        weights = np.ones(m, dtype=np.float64)
    return edges, weights


def generate_random(
    n: int, m: int, weighted: bool = False, seed=None, name: str | None = None
) -> MaxCutProblem:
    """Uniform random graph, the G1/G22/G43 Gset class."""
    edges, weights = random_edge_set(n, m, weighted, seed)
    return MaxCutProblem(
        n, edges, weights, name=name or f"gset-random-{n}-{m}-s{seed}"
    )


def generate_skew(
    n: int, m: int, weighted: bool = False, seed=None, name: str | None = None
) -> MaxCutProblem:
    """Heavy-tailed ("skew") random graph, the G14/G35/G51 Gset class.

    Edges are added one at a time; each endpoint is drawn preferentially
    (probability proportional to ``degree + 1``), which yields the skewed
    degree distribution characteristic of those instances.
    """
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise ValueError(f"cannot place {m} edges in a {n}-node simple graph")
    rng = ensure_rng(seed)
    degree = np.ones(n, dtype=np.float64)  # +1 smoothing so isolated nodes join
    seen: set[tuple[int, int]] = set()
    edges = np.zeros((m, 2), dtype=np.intp)
    count = 0
    while count < m:
        p = degree / degree.sum()
        u = int(rng.choice(n, p=p))
        v = int(rng.choice(n, p=p))
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        edges[count] = key
        degree[u] += 1.0
        degree[v] += 1.0
        count += 1
    if weighted:
        weights = rng.choice(np.array([-1.0, 1.0]), size=m)
    else:
        weights = np.ones(m, dtype=np.float64)
    return MaxCutProblem(
        n, edges, weights, name=name or f"gset-skew-{n}-{m}-s{seed}"
    )


def generate_toroidal(
    rows: int, cols: int, weighted: bool = False, seed=None, name: str | None = None
) -> MaxCutProblem:
    """2-D torus, the G48-G50 Gset class.

    Every vertex connects to its right and down neighbour with wrap-around,
    giving exactly ``2·rows·cols`` edges and uniform degree 4.  Unweighted
    (the G48/G49 convention — note an even torus is bipartite, so the true
    optimum is exactly ``2·rows·cols``) or ±1 weighted.
    """
    if rows < 3 or cols < 3:
        raise ValueError("torus needs at least 3 rows and 3 columns")
    rng = ensure_rng(seed)
    n = rows * cols
    idx = np.arange(n).reshape(rows, cols)
    right = np.roll(idx, -1, axis=1)
    down = np.roll(idx, -1, axis=0)
    edges = np.concatenate(
        [
            np.stack([idx.ravel(), right.ravel()], axis=1),
            np.stack([idx.ravel(), down.ravel()], axis=1),
        ]
    ).astype(np.intp)
    if weighted:
        weights = rng.choice(np.array([-1.0, 1.0]), size=edges.shape[0])
    else:
        weights = np.ones(edges.shape[0], dtype=np.float64)
    return MaxCutProblem(
        n, edges, weights, name=name or f"gset-torus-{rows}x{cols}-s{seed}"
    )


# ----------------------------------------------------------------------
# The paper's 30-instance evaluation suite
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GsetSpec:
    """Specification of one synthetic Gset-class instance.

    Attributes
    ----------
    name:
        Unique instance label.
    nodes:
        Node count (800 / 1000 / 2000 / 3000 in the paper suite).
    family:
        ``"random"``, ``"skew"`` or ``"toroidal"``.
    edges:
        Edge count (for toroidal this is implied by the grid).
    weighted:
        Whether weights are ±1 (True) or all +1 (False).
    seed:
        Generator seed — fixed per suite entry for reproducibility.
    """

    name: str
    nodes: int
    family: str
    edges: int
    weighted: bool
    seed: int

    @property
    def iterations(self) -> int:
        """The paper's annealing-iteration budget for this node count."""
        return PAPER_ITERATIONS[self.nodes]


def build_instance(spec: GsetSpec) -> MaxCutProblem:
    """Materialise the graph for a :class:`GsetSpec`."""
    if spec.family == "random":
        return generate_random(
            spec.nodes, spec.edges, spec.weighted, spec.seed, name=spec.name
        )
    if spec.family == "skew":
        return generate_skew(
            spec.nodes, spec.edges, spec.weighted, spec.seed, name=spec.name
        )
    if spec.family == "toroidal":
        grids = {2000: (40, 50), 3000: (50, 60)}
        if spec.nodes not in grids:
            raise ValueError(f"no torus grid preset for {spec.nodes} nodes")
        rows, cols = grids[spec.nodes]
        return generate_toroidal(rows, cols, spec.weighted, spec.seed, name=spec.name)
    raise ValueError(f"unknown Gset family {spec.family!r}")


def paper_instance_suite() -> list[GsetSpec]:
    """The 30-instance suite mirroring the paper's Sec. 4.1 grouping.

    The paper draws 30 Max-Cut instances from the Stanford Gset [38]; the
    synthetic suite uses the canonical Gset class at each node count:
    9 × 800 nodes (G1 class: uniform random, 19 176 edges), 9 × 1000 nodes
    (G43 class: uniform random, 9 990 edges), 9 × 2000 nodes (G22 class:
    uniform random, 19 990 edges), and 3 × 3000 nodes (G48-G50 class:
    toroidal, 6 000 edges, unweighted — an even torus is bipartite, so the
    reference optimum is exactly 6 000, matching G48/G49's best-known).
    """
    suite: list[GsetSpec] = []
    for i in range(9):
        suite.append(GsetSpec(f"R800-{i}", 800, "random", 19_176, False, 1_000 + i))
    for i in range(9):
        suite.append(GsetSpec(f"R1000-{i}", 1000, "random", 9_990, False, 2_000 + i))
    for i in range(9):
        suite.append(GsetSpec(f"R2000-{i}", 2000, "random", 19_990, False, 3_000 + i))
    for i in range(3):
        suite.append(GsetSpec(f"T3000-{i}", 3000, "toroidal", 6_000, False, 4_000 + i))
    return suite


def suite_by_size(specs: list[GsetSpec] | None = None) -> dict[int, list[GsetSpec]]:
    """Group suite specs by node count (the paper's four groups)."""
    specs = paper_instance_suite() if specs is None else specs
    groups: dict[int, list[GsetSpec]] = {}
    for spec in specs:
        groups.setdefault(spec.nodes, []).append(spec)
    return dict(sorted(groups.items()))
