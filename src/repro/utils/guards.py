"""Runtime guards for the repository's correctness contracts.

:func:`forbid_densification` is the runtime twin of the static RPL001
lint rule: where the linter bans densifying *call sites* at review time,
the guard traps densifying *code paths* at run time.  The scaling
benches run entire solves under it, and the serving layer can wrap
request handling the same way so a future refactor cannot silently
reintroduce an O(n²) materialisation on a hot path.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import ExitStack, contextmanager


@contextmanager
def forbid_densification(trap_matrix_hat: bool = True) -> Iterator[None]:
    """Trap every path that could materialise an ``(n, n)`` dense array.

    While the context is active, ``SparseIsingModel.toarray`` (the dense
    coupling matrix) raises ``AssertionError``, and
    ``TiledCrossbar.matrix_hat`` (the dense stored image) raises too
    unless ``trap_matrix_hat=False`` (for callers that never build a
    tiled machine).  The patches are process-global for the duration of
    the context — use it around a bounded unit of work (a solve, a
    request, a bench protocol), not around concurrent mixed workloads
    that legitimately densify elsewhere.  It imports ``unittest.mock``
    (and with it ``asyncio``) on entry, not when this module is imported.
    """
    # Local imports: utils must stay dependency-free at import time
    # (repro.arch/repro.ising layer on top of repro.utils).
    from unittest import mock

    from repro.arch import TiledCrossbar
    from repro.ising.sparse import SparseIsingModel

    def _no_toarray(self):
        raise AssertionError(
            "SparseIsingModel.toarray() called under forbid_densification() "
            "— the dense coupling matrix must never be materialised on "
            "this path"
        )

    def _no_matrix_hat(self):
        raise AssertionError(
            "TiledCrossbar.matrix_hat assembled under forbid_densification() "
            "— the dense stored image must never be materialised on this "
            "path"
        )

    patches = [mock.patch.object(SparseIsingModel, "toarray", _no_toarray)]
    if trap_matrix_hat:
        patches.append(
            mock.patch.object(
                TiledCrossbar, "matrix_hat", property(_no_matrix_hat)
            )
        )
    with ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        yield
