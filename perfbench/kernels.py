"""Per-call timings of the batch engine's kernels at workload shapes.

The inner loop is not instrumented; instead each kernel is called directly
through the public ``coupling_ops(model)`` methods and the state object of
``ops.make_batch_state``, with the model, replica count, accepted-row
count and (for ``record_best``) improved-row count of a real workload:

* ``packed``: the mc-gset plan model (bit-packed state, R=100, t=1);
* ``float``: the cop-float plan model (float sparse state, R=64, t=1);
* ``slots``: the block-diagonal union of serve-mixed in-situ t=1 jobs
  (``stack_models``), for ``batch_cross_term_slots`` (R=4).
"""

from __future__ import annotations

import time

import numpy as np

from common import median

CALLS = 400
ROUNDS = 5


def per_call_us(fn, args_list) -> float:
    """Median over ROUNDS of the mean µs per call across ``args_list``."""
    rounds = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for args in args_list:
            fn(*args)
        rounds.append((time.perf_counter() - start) / len(args_list) * 1e6)
    return median(rounds)


def state_kernels(
    model, replicas: int, accepted: int, improved: int, seed: int
) -> dict:
    """µs per call of gather, cross term, field update, flip, best snapshot.

    ``accepted`` rows are updated and flipped per call; ``improved`` rows
    are snapshotted, as the engine calls ``record_best`` only on replicas
    that reached a new best.
    """
    from repro.core.coupling import coupling_ops

    rng = np.random.default_rng(seed)
    n = model.num_spins
    ops = coupling_ops(model)
    sigma = rng.choice(np.array([-1.0, 1.0]), size=(replicas, n))
    state = ops.make_batch_state(sigma)
    g = state.fields
    rows = np.arange(replicas)[:, None]
    accepted = max(1, min(replicas, accepted))
    improved = max(1, min(replicas, improved))
    idxs = [rng.integers(n, size=(replicas, 1)) for _ in range(CALLS)]
    accs = [np.sort(rng.choice(replicas, size=accepted, replace=False))
            for _ in range(CALLS)]
    sig_fs = [state.gather(rows, idx) for idx in idxs]
    updates = [
        (g, acc, idx[acc], sig_f[acc])
        for idx, acc, sig_f in zip(idxs, accs, sig_fs)
    ]
    return {
        "gather_us": per_call_us(state.gather, [(rows, i) for i in idxs]),
        "cross_term_us": per_call_us(
            ops.batch_cross_term, [(g, i, s) for i, s in zip(idxs, sig_fs)]
        ),
        "update_fields_us": per_call_us(ops.batch_update_fields, updates),
        "flip_us": per_call_us(state.flip, [u[1:] for u in updates]),
        "record_best_us": per_call_us(
            state.record_best,
            [(np.sort(rng.choice(replicas, size=improved, replace=False)),)
             for _ in range(CALLS)],
        ),
    }


def slots_kernel(models, replicas: int, seed: int) -> float:
    """µs per ``batch_cross_term_slots`` call on the stacked union."""
    from repro.core.blockstack import stack_models
    from repro.core.coupling import coupling_ops

    rng = np.random.default_rng(seed)
    stack = stack_models(models)
    ops = coupling_ops(stack.model)
    sigma = np.ones((replicas, stack.model.num_spins))
    for b in stack.blocks:
        sigma[:, b.start:b.stop] = rng.choice(
            np.array([-1.0, 1.0]), size=(replicas, b.num_spins)
        )
    state = ops.make_batch_state(sigma)
    g = state.fields
    rows = np.arange(replicas)[:, None]
    starts = np.array([b.start for b in stack.blocks])
    widths = np.array([b.num_spins for b in stack.blocks])
    args = []
    for _ in range(CALLS):
        idx = starts + rng.integers(1 << 30, size=(replicas, len(starts))) % widths
        args.append((g, idx, state.gather(rows, idx)))
    return per_call_us(ops.batch_cross_term_slots, args)
