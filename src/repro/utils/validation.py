"""Argument-validation helpers shared across the library.

The device and circuit models are easy to misuse silently (e.g. passing a
0/1 vector where a ±1 spin vector is expected).  These checks raise early
with actionable messages instead of producing subtly wrong physics.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

from repro.utils.keys import first_repeat


def check_real(name: str, value) -> float:
    """Validate a finite real number and return it as a ``float``.

    The one scalar parse every real-valued check starts from: a
    ``numbers.Real`` (numpy real scalars included), not a ``bool`` (which
    would silently act as 0.0 or 1.0; ``np.bool_`` is not a ``Real``), and
    finite (``nan <= 0`` is False, so a bare range test would let NaN
    through to fail later, far from the knob).
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def check_positive(name: str, value: float, allow_zero: bool = False) -> float:
    """Validate that a real parameter is positive (or >= 0); see :func:`check_real`."""
    value = check_real(name, value)
    if allow_zero:
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    elif value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


#: The largest count numpy can size or index an array with; a larger
#: Python int raises ``OverflowError`` deep inside numpy instead.
_MAX_COUNT = int(np.iinfo(np.intp).max)


def _parse_int(name: str, value, what: str) -> int:
    """The one integer parse of :func:`check_count` and :func:`check_index`.

    A ``bool`` is refused (``True`` is an ``int`` and used to run as one
    iteration or flip spin 1); an integer-valued float (``1e4``) passes.
    """
    if isinstance(value, bool):
        raise ValueError(
            f"{name} must be {what}, got {value!r} (a bool would silently act as {int(value)})"
        )
    if isinstance(value, float) and value.is_integer():
        return int(value)
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be {what}, got {value!r}") from None


def check_count(
    name: str, value, minimum: int = 1, hint: str = "",
    maximum: int | None = _MAX_COUNT,
) -> int:
    """Validate an integer count parameter (replicas, tile_size, …).

    The integer parse is :func:`_parse_int`'s.  Counts above ``maximum``
    are refused too; seeds pass ``maximum=None``, because numpy takes a
    seed of any size.
    """
    value = _parse_int(name, value, "an integer")
    if value < minimum:
        suffix = f"; {hint}" if hint else ""
        raise ValueError(f"{name} must be >= {minimum}, got {value}{suffix}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value}")
    return value


def check_iterations(iterations) -> int:
    """Validate an annealing budget: the one check of every entrance taking one."""
    return check_count(
        "iterations", iterations, hint="the annealers need at least one proposal/accept step"
    )


def check_flips(value, n: int) -> int:
    """Validate a flip-set size ``t = |F|``: a count in ``[1, n]``.

    A flip set holds distinct spins, so it cannot outnumber the model;
    the bool and non-integer refusals are :func:`check_count`'s.
    """
    t = check_count("flips_per_iteration", value)
    if t > n:
        raise ValueError(f"flips_per_iteration must be in [1, {n}], got {t}")
    return t


def check_index(name: str, value, n: int) -> int:
    """Validate a spin/array index parameter against ``[0, n)``.

    The integer parse is :func:`check_count`'s; type misuse raises
    ``ValueError``, an integer outside ``[0, n)`` ``IndexError``.
    """
    value = _parse_int(name, value, "an integer index")
    if not 0 <= value < n:
        raise IndexError(f"{name} must be in [0, {n}), got {value}")
    return value


def _integer_array(name: str, values, what: str) -> np.ndarray:
    """``values`` as an intp array; integer-valued floats pass, others are refused."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" and arr.size and not (
        arr.dtype.kind == "f" and np.isfinite(arr).all() and (arr == np.rint(arr)).all()
    ):
        raise ValueError(f"{name} must hold integer {what}, got {arr.dtype} entries")
    return arr.astype(np.intp, copy=False)


def check_flip_set(flip_indices, n: int) -> np.ndarray:
    """Validate a flip set ``F`` of distinct spins in ``[0, n)``; return it as 1-D intp.

    Eq. 9 needs distinct spins, and a negative index would wrap to spin
    ``n − 1``.  A scalar is a one-spin set.  An index out of range raises
    ``IndexError``, any other fault ``ValueError``.
    """
    arr = _integer_array("flip_indices", np.atleast_1d(flip_indices), "spin indices")
    if arr.ndim != 1:
        raise ValueError(f"flip_indices must be 1-D, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        k = int(np.argmax((arr < 0) | (arr >= n)))
        raise IndexError(f"flip_indices must lie in [0, {n}), got {arr[k]} at position {k}")
    repeat = first_repeat(arr)
    if repeat is not None:
        i, j = repeat
        raise ValueError(f"flip_indices must be unique; spin {arr[j]} is at positions {i} and {j}")
    return arr


def check_edges(n: int, edges, unique: bool = True) -> np.ndarray:
    """Validate an edge list over ``n`` nodes; return it as an ``(m, 2)`` intp array.

    Endpoints lie in ``[0, n)`` and differ.  With ``unique`` no undirected
    pair repeats: Max-Cut weighs each edge row, while the colouring and
    MIS builders sum repeated edges (``unique=False``).  The first bad
    row is named (0-based).
    """
    e = _integer_array("edges", edges, "node indices")
    if e.size == 0:
        return e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError(f"edges must have shape (m, 2), got {e.shape}")
    lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
    for fault, rows in (
        (f"edge endpoints out of range [0, {n})", (lo < 0) | (hi >= n)),
        ("self loops are not allowed", lo == hi),
    ):
        if rows.any():
            k = int(np.argmax(rows))
            raise ValueError(f"{fault}: edge row {k} is {e[k].tolist()}")
    repeat = first_repeat(lo * n + hi) if unique else None
    if repeat is not None:
        i, j = repeat
        raise ValueError(
            f"duplicate edges are not allowed: edge rows {i} and {j} both "
            f"join nodes {lo[j]} and {hi[j]} (0-based)"
        )
    return e


def check_finite(name: str, values, coords=None) -> np.ndarray:
    """Validate that every entry of an array is finite; return it as float64.

    A NaN or ±inf entry is refused by position, so a bad coupling is
    named where it entered instead of surfacing later as a misleading
    "must be symmetric" or an infinite energy.  The position is the first
    bad entry's array index, or ``[c[k] for c in coords]`` for the ``k``-th
    entry of a compressed array (CSR couplings give their row and column).
    """
    arr = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(arr)
    if not finite.all():
        k = int(np.argmin(finite.ravel()))
        if coords is None:
            at = np.unravel_index(k, arr.shape)
        else:
            at = tuple(c[k] for c in coords)
        where = ", ".join(str(int(i)) for i in at)
        raise ValueError(f"{name} must be finite, got {arr.flat[k]} at [{where}]")
    return arr


def check_vector(name: str, values, n: int) -> np.ndarray:
    """A finite length-``n`` float64 vector (fields, linear terms); ``None`` is zeros."""
    if values is None:
        return np.zeros(n, dtype=np.float64)
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
    return check_finite(name, arr)


def check_choice(name: str, value, choices) -> str:
    """Validate a string-valued mode parameter against its choice set.

    Raises ``ValueError`` naming the full choice set — unknown mode names
    (``backend="csr"``, ``reorder="zigzag"``) fail at the API boundary
    with the valid spellings instead of deep inside a dispatch table.
    """
    if not isinstance(value, str) or value not in choices:
        raise ValueError(
            f"unknown {name} {value!r}; choose from {sorted(choices)}"
        )
    return value


def check_model(model) -> None:
    """Validate that ``model`` is a non-empty Ising model of any backend.

    Duck-typed on ``num_spins`` and the ``backend`` name that dense,
    sparse and packed models all carry (the name every dispatch reads),
    so this module stays free of model imports.  Shared by the solve
    API's plan compiler and the service's request boundary.
    """
    num_spins = getattr(model, "num_spins", None)
    if num_spins is None or getattr(model, "backend", None) is None:
        raise ValueError(
            f"model must be an IsingModel or SparseIsingModel, got "
            f"{type(model).__name__}"
        )
    if num_spins < 1:
        raise ValueError(
            "model has no spins; build it from a non-empty problem"
        )


def check_permutation(perm, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Validate a spin permutation and return ``(forward, backward)`` arrays.

    ``perm`` is either a raw array-like or any object exposing a
    ``forward`` attribute (e.g. :class:`repro.core.reorder.Permutation`).
    ``forward[old] = new`` maps original spin indices to reordered
    positions; ``backward`` is its inverse (``backward[new] = old``).
    """
    fwd = np.asarray(getattr(perm, "forward", perm), dtype=np.intp)
    if fwd.ndim != 1 or fwd.shape[0] != n:
        raise ValueError(
            f"permutation must be a 1-D array of length {n}, got shape "
            f"{fwd.shape}"
        )
    if fwd.size and (fwd.min() < 0 or fwd.max() >= n):
        raise ValueError(f"permutation entries must lie in [0, {n})")
    if np.any(np.bincount(fwd, minlength=n) != 1):
        raise ValueError(
            "permutation must map each spin to a distinct position "
            "(duplicate or missing targets found)"
        )
    bwd = np.empty(n, dtype=np.intp)
    bwd[fwd] = np.arange(n, dtype=np.intp)
    return fwd, bwd


def permutation_maps(perm, n: int) -> tuple[np.ndarray | None, np.ndarray | None]:
    """:func:`check_permutation`'s maps, or ``(None, None)`` for no permutation."""
    return (None, None) if perm is None else check_permutation(perm, n)


def check_probability(name: str, value: float) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    return check_in_range(name, value, 0, 1)


def check_in_range(name: str, value: float, low: float, high: float) -> float:
    """Validate that a real ``value`` lies in the closed interval [low, high]."""
    value = check_real(name, value)
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def check_spin_vector(sigma, n: int | None = None) -> np.ndarray:
    """Validate and return a ±1 spin vector as an ``int8`` array.

    Parameters
    ----------
    sigma:
        Array-like of ±1 entries.
    n:
        Expected length; checked when given.
    """
    arr = np.asarray(sigma)
    if arr.ndim != 1:
        raise ValueError(f"spin vector must be 1-D, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"spin vector must have length {n}, got {arr.shape[0]}")
    if not np.all(np.isin(arr, (-1, 1))):
        bad = arr[~np.isin(arr, (-1, 1))]
        raise ValueError(f"spin vector entries must be ±1, found {bad[:5]!r}")
    return arr.astype(np.int8, copy=False)


def check_initial(initial, replicas: int, n: int) -> np.ndarray:
    """Validate a replica engine's ±1 start state; return it as ``(replicas, n)``.

    ``initial`` is one configuration of shape ``(n,)``, shared by every
    replica, or one per replica, ``(replicas, n)``.  The first non-spin
    entry is named by replica and spin.
    """
    base = np.asarray(initial, dtype=np.float64)
    if base.shape == (n,):
        sigma = np.tile(base, (replicas, 1))
    elif base.shape == (replicas, n):
        sigma = base
    else:
        raise ValueError(
            f"initial must have shape ({n},) or ({replicas}, {n}), got {base.shape}"
        )
    bad = ~np.isin(sigma, (-1.0, 1.0))
    if bad.any():
        r, j = np.argwhere(bad)[0].tolist()
        raise ValueError(
            f"initial entries must be ±1; replica {r} has "
            f"{float(sigma[r, j])} at spin {j} (a non-spin value would "
            f"corrupt the cached local fields and return wrong energies)"
        )
    return sigma


def check_square_symmetric(matrix, name: str = "J", atol: float = 1e-9) -> np.ndarray:
    """Validate and return a square symmetric float matrix.

    The incremental-E identity (Eq. 9 of the paper) requires a symmetric
    coupling matrix; silently accepting an asymmetric one would make the
    CiM result disagree with the direct energy difference.  An exactly
    symmetric matrix (the common case) passes on one equality test;
    only the others pay the tolerance test.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if not np.array_equal(arr, arr.T) and not np.allclose(arr, arr.T, atol=atol):
        raise ValueError(f"{name} must be symmetric (|J - J.T| <= {atol})")
    return arr
