"""Argument-validation helpers shared across the library.

The device and circuit models are easy to misuse silently (e.g. passing a
0/1 vector where a ±1 spin vector is expected).  These checks raise early
with actionable messages instead of producing subtly wrong physics.
"""

from __future__ import annotations

import math
import operator

import numpy as np


def check_positive(name: str, value: float, allow_zero: bool = False) -> float:
    """Validate that a scalar parameter is finite and positive (or >= 0).

    NaN and ±inf are refused first: ``nan <= 0`` is False, so a bare sign
    test would let NaN through to fail later, far from the knob.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if allow_zero:
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    elif value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def check_count(name: str, value, minimum: int = 1, hint: str = "") -> int:
    """Validate an integer count parameter (iterations, replicas, …).

    Rejects ``bool`` explicitly — ``True`` is an ``int`` subclass and used
    to slip through ``operator.index`` as a silent count of 1 — and accepts
    integer-valued floats (``1e4``) for convenience.  Raises ``ValueError``
    with an actionable message otherwise.
    """
    if isinstance(value, bool):
        raise ValueError(
            f"{name} must be an integer, got {value!r} (a bool would silently "
            f"run as {int(value)}); pass an explicit count"
        )
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        suffix = f"; {hint}" if hint else ""
        raise ValueError(f"{name} must be >= {minimum}, got {value}{suffix}")
    return value


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

    Same bool/non-integer rejection as :func:`check_count` — ``True``
    used to slip through ``0 <= index < n`` and silently flip spin 1 —
    but with the half-open range bound of an index rather than a count's
    minimum.  Type misuse raises ``ValueError`` (matching the other
    ``check_*`` helpers); an integer outside ``[0, n)`` raises
    ``IndexError`` (matching Python indexing semantics).
    """
    if isinstance(value, bool):
        raise ValueError(
            f"{name} must be an integer index, got {value!r} (a bool would "
            f"silently act as index {int(value)}); pass an explicit index"
        )
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(
            f"{name} must be an integer index, got {value!r}"
        ) from None
    if not 0 <= value < n:
        raise IndexError(f"{name} must be in [0, {n}), got {value}")
    return value


def check_real(name: str, value) -> float:
    """Validate a real-number parameter (reference cuts, thresholds, …).

    Mirrors :func:`check_count`'s message shape: rejects ``bool`` (which
    would silently act as 0.0/1.0), strings and anything else that is not
    a real number, and rejects non-finite values (a NaN reference would
    poison every normalised quantity downstream without an error).
    """
    if isinstance(value, bool):
        raise ValueError(
            f"{name} must be a number, got {value!r} (a bool would silently "
            f"act as {float(value):g}); pass an explicit value"
        )
    if isinstance(value, str) or isinstance(value, complex):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


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

    Duck-typed on ``num_spins`` (dense, sparse and packed models all carry
    it), so this module stays free of model imports.  Shared by the solve
    API's plan compiler and the service's request boundary.
    """
    num_spins = getattr(model, "num_spins", None)
    if num_spins is None:
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
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_in_range(name: str, value: float, low: float, high: float) -> float:
    """Validate that ``value`` lies in the closed interval [low, high]."""
    value = float(value)
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


def check_square_symmetric(matrix, name: str = "J", atol: float = 1e-9) -> np.ndarray:
    """Validate and return a square symmetric float matrix.

    The incremental-E identity (Eq. 9 of the paper) requires a symmetric
    coupling matrix; silently accepting an asymmetric one would make the
    CiM result disagree with the direct energy difference.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if not np.allclose(arr, arr.T, atol=atol):
        raise ValueError(f"{name} must be symmetric (|J - J.T| <= {atol})")
    return arr
