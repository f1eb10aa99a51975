"""Random-number-generator plumbing.

Every stochastic component in the library accepts either ``None`` (fresh
entropy), an integer seed, or an existing :class:`numpy.random.Generator`.
Routing all of them through :func:`ensure_rng` keeps experiments reproducible:
a bench that passes ``seed=7`` gets the same instance set, the same annealing
trajectory and the same device-variation draw on every run.
"""

from __future__ import annotations

from typing import TypeAlias

import numpy as np

from repro.utils.validation import check_count

#: Anything :func:`ensure_rng` accepts.  A real union (not a string
#: constant) so type checkers resolve it through the package's
#: ``py.typed`` marker.
RngLike: TypeAlias = (
    int | np.random.Generator | np.random.SeedSequence | None
)


def ensure_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any seed-like input.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, a ``SeedSequence``, an existing
        ``Generator`` (returned unchanged so callers can share streams),
        or a non-negative integer seed.  Anything else goes through
        :func:`~repro.utils.validation.check_count`, which refuses bools,
        negative and non-integer seeds with one ``ValueError``.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None or isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(check_count("seed", seed, minimum=0, maximum=None))


def spawn_rng(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``count`` statistically independent child generators.

    Used by the experiment runner so that per-run streams do not depend on how
    many iterations earlier runs consumed.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]
