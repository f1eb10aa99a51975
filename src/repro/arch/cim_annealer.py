"""The proposed machine: DG FeFET CiM in-situ annealer (paper Fig 3/7).

Wires the pieces together end-to-end:

* :func:`compile_cim_program` is the one programming path of every
  crossbar: layout race, whole-matrix quantization and programming into a
  monolithic :class:`~repro.circuits.crossbar.DgFefetCrossbar` or a
  :class:`~repro.arch.tiling.TiledCrossbar` grid.  It returns an immutable
  :class:`CimProgram` that any number of machines can anneal against —
  the amortisation the paper's economics rest on (one expensive array
  write, many cheap anneal runs), surfaced through
  :func:`repro.core.plan.compile_plan`;
* the annealing logic is the core :class:`~repro.core.annealer.InSituAnnealer`
  running *against the crossbar* through its evaluator hook, so the accept
  decisions are made on the sensed (quantized, noisy, device-limited)
  ``E_inc`` — not on ideal arithmetic;
* :class:`CimMachine` is the one run loop of this machine and of the
  direct-E baselines (:mod:`repro.arch.baselines`): the inner annealer's
  hook writes each iteration's hardware activity (ADC conversions, mux
  slots, driver toggles, settle time, BG DAC level) into a per-run
  :class:`RunCounters` record, and the run books every counter series
  into a :class:`~repro.arch.ledger.Ledger` once, at the end (the BG
  rail updates follow from the recorded levels, :func:`rail_updates`).

The ``"behavioral"`` crossbar backend makes runs at the paper's full scale
(3000 spins × 100 000 iterations) take seconds; the ``"device"`` backend
evaluates every activated cell through the compact device model and is meant
for small arrays (tests, ablations, examples).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.arch.hardware import HardwareConfig
from repro.arch.ledger import Ledger
from repro.arch.mapping import CrossbarMapping
from repro.arch.result import CimRunResult
from repro.circuits.crossbar import DgFefetCrossbar
from repro.core.annealer import InSituAnnealer
from repro.core.factors import FractionalFactor, VbgEncoder
from repro.core.reorder import (
    REORDER_MODES,
    Permutation,
    graph_bandwidth,
)
from repro.core.schedule import Schedule
from repro.devices.variability import VariationModel
from repro.ising.model import IsingModel
from repro.ising.sparse import SparseIsingModel, dense_couplings
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_choice, check_iterations


@dataclass(frozen=True)
class CimProgram:
    """An immutable programmed-crossbar image, ready to anneal against.

    Produced by :func:`compile_cim_program`; bundles everything the
    machine derives *before* the first proposal — the quantized/programmed
    crossbar, the internal layout permutation, the mapping report and the
    stored-image model the controller believes in.  Pass it to
    :class:`InSituCimAnnealer` via ``program=`` to run repeat anneals
    without re-programming the array.
    """

    config: HardwareConfig
    crossbar: object  # DgFefetCrossbar | TiledCrossbar
    mapping: CrossbarMapping
    permutation: Permutation | None
    reorder: str
    tile_size: int | None
    annealer_model: IsingModel | SparseIsingModel

    @cached_property
    def hw_model(self) -> IsingModel | SparseIsingModel:
        """The stored image in the caller's spin order.

        Quantization is element-wise, so it is an exact relabelling of
        ``annealer_model``; built on first use, since only callers that
        check solutions against the stored image read it.
        """
        if self.permutation is None:
            return self.annealer_model
        return self.annealer_model.permuted(self.permutation.inverse)


def compile_cim_program(
    model: IsingModel | SparseIsingModel,
    config: HardwareConfig | None = None,
    backend: str = "behavioral",
    variation: VariationModel | None = None,
    tile_size: int | None = None,
    reorder: str | None = None,
    permutation=None,
    seed=None,
) -> CimProgram:
    """Run the machine's programming pass and return the artifacts.

    This is the expensive, run-independent half of the machine: the
    internal layout race (``reorder=``/``permutation=``), whole-matrix
    quantization and the crossbar programming pass.  ``seed`` only draws
    randomness when programming itself is stochastic (``variation=`` or
    ``backend="device"``); the default behavioral/no-variation path is
    draw-free, so the returned program is seed-independent and safe to
    cache (see :class:`repro.core.plan.PlanCache`).

    The one programming path: both machines and the tiled solve plans
    (in-situ and SB) program their arrays here.
    """
    if model.has_fields:
        raise ValueError(
            "crossbar machines store couplings only; fold fields in via "
            "model.with_ancilla() first"
        )
    config = config or HardwareConfig.proposed()
    reorder = check_choice(
        "reorder", "none" if reorder is None else reorder, REORDER_MODES
    )
    if reorder in ("rcm", "partition") and tile_size is None:
        raise ValueError(
            f"reorder={reorder!r} optimises the tile grid and needs "
            "tile_size=...; a monolithic crossbar programs the full "
            "array either way (use reorder='auto' to make it a no-op)"
        )
    if permutation is not None:
        if reorder != "none":
            raise ValueError(
                "pass either reorder= or an explicit permutation=, "
                "not both"
            )
        if tile_size is None:
            raise ValueError(
                "an explicit permutation= layout requires tile_size=..."
            )
    rng = ensure_rng(seed)
    tiled_sparse = tile_size is not None and isinstance(model, SparseIsingModel)
    perm, ordering, bandwidth = None, "identity", None
    if tile_size is None:
        # A single physical crossbar programs every cell, so the
        # monolithic machine densifies sparse models here (solver-only
        # paths never do).  Densification allowlisted: crossbar
        # programming is the one consumer that needs the full image.
        # The crossbar sizes its ADC to the array itself.
        crossbar = DgFefetCrossbar(
            dense_couplings(model),  # repro-lint: disable=RPL001
            bits=config.quantization_bits,
            backend=backend,
            wire=config.wire,
            shift_add=config.shift_add,
            variation=variation,
            seed=rng,
        )
        rows = crossbar.n
    else:
        from repro.arch.tiling import TiledCrossbar
        from repro.core.plan import resolve_layout

        # Bandwidth-reducing relabelling of the *stored* layout: the
        # scattered edge set is compacted onto few block diagonals so
        # the sparse tile registry stays proportional to nnz, not to
        # the grid.  The controller keeps working in the caller's
        # ordering (see the annealer's `permutation` contract).
        if permutation is not None:
            perm = (
                permutation if isinstance(permutation, Permutation)
                else Permutation(permutation)
            )
        else:
            perm = resolve_layout(model, reorder, tile_size=tile_size)
        hw_input = model if perm is None else model.permuted(perm)
        # The grid quantizes a sparse model's CSR entries straight into
        # its stored image — the dense (n, n) matrix is never formed.
        # (Densification allowlisted for the dense-backend branch
        # only: the input already stores all n² couplings.)
        crossbar = TiledCrossbar(
            hw_input if tiled_sparse else dense_couplings(hw_input),  # repro-lint: disable=RPL001
            tile_size=tile_size,
            bits=config.quantization_bits,
            backend=backend,
            wire=config.wire,
            shift_add=config.shift_add,
            variation=variation,
            seed=rng,
        )
        # The physical array is the tile, not a monolithic n-row
        # crossbar assembled from the full matrix.
        rows = crossbar.tile_size
        if perm is None:
            bandwidth = graph_bandwidth(model)
        else:
            ordering = perm.strategy
            bandwidth = (
                perm.bandwidth_after if perm.bandwidth_after is not None
                else graph_bandwidth(hw_input)
            )
    # The algorithmic model the controller believes in: the *stored*
    # image, kept on a sparse model's own backend on a grid so the
    # controller's field cache stays O(nnz).  With a reordering in play
    # the annealer runs against the hardware-ordered image while
    # `hw_model` is published in the caller's ordering.
    if tiled_sparse:
        stored = crossbar.stored_model(offset=model.offset, name=model.name)
    else:
        stored = IsingModel(
            crossbar.matrix_hat, None, offset=model.offset, name=model.name
        )
    mapping = CrossbarMapping(
        rows, crossbar.bits, crossbar.planes, config.adc.mux_ratio,
        ordering=ordering, bandwidth=bandwidth,
    )
    return CimProgram(
        config=config, crossbar=crossbar, mapping=mapping,
        permutation=perm, reorder=reorder, tile_size=tile_size,
        annealer_model=stored,
    )


def rail_updates(levels: np.ndarray) -> np.ndarray:
    """Reads that reprogram the BG rail, given each read's DAC level.

    The rail is set on the first read and again whenever the level moves
    more than 1e-12 from the level last set.  Only reads whose level
    differs from the previous read's can do so, so the sequential test
    walks those alone.
    """
    update = np.zeros(levels.size, dtype=bool)
    update[0] = True
    last = levels[0]
    moved = np.flatnonzero(levels[1:] != levels[:-1]) + 1
    for it, level in zip(moved.tolist(), levels[moved].tolist()):
        if abs(level - last) > 1e-12:
            update[it] = True
            last = level
    return update


class RunCounters:
    """One run's per-iteration hardware counters, one zeroed array per name.

    A machine keeps the record and its inner annealer keeps the hook, a
    closure over the record: neither references the other, so a deleted
    machine is freed by reference counting alone.  :meth:`start` gives
    every run fresh arrays and resets ``step``, the iteration the hook
    writes next.
    """

    def __init__(self, **dtypes) -> None:
        self._dtypes = dtypes

    def start(self, iterations: int) -> None:
        for name, dtype in self._dtypes.items():
            setattr(self, name, np.zeros(iterations, dtype=dtype))
        self.step = 0


class CimMachine:
    """The run loop every crossbar machine shares.

    A subclass passes its :class:`CimProgram` here, builds its inner
    annealer (``_annealer``) with a hook that writes a
    :class:`RunCounters` record (``_counters``), and defines its cost
    formulas, ``_costs(counters)``.  Those return the run's Ledger series
    ``(name, energy, time[, count])`` in the order a per-iteration
    booking creates the entries, plus each iteration's energy and time in
    the machine's own summation order.  Every series is a strictly
    sequential running sum (:meth:`Ledger.add_series`), so the entries,
    totals and cost traces equal booking every iteration in order, bit
    for bit.
    """

    def __init__(self, program: CimProgram, record_cost_trace: bool) -> None:
        self.program = program
        self.config = program.config
        self.crossbar = program.crossbar
        self.mapping = program.mapping
        self.record_cost_trace = bool(record_cost_trace)

    @property
    def hw_model(self) -> IsingModel | SparseIsingModel:
        """The stored image the machine anneals, in the caller's spin order."""
        return self.program.hw_model

    @property
    def label(self) -> str:
        """Machine display name."""
        return self.config.label

    @property
    def flips_per_iteration(self) -> int:
        """``t = |F|``, as the inner annealer validated it."""
        return self._annealer.flips_per_iteration

    def run(self, iterations: int, initial=None) -> CimRunResult:
        """Anneal for ``iterations`` and return solution + cost books."""
        # Validated at the machine boundary: the counters are sized by
        # `iterations` before the inner annealer would reject a bool/float
        # count.
        iterations = check_iterations(iterations)
        # Shared-program machines reuse one crossbar across runs; clear
        # the driver-toggle memory so every run books costs like a cold
        # array (trajectories never depended on it).
        self.crossbar.reset_drive_state()
        self._counters.start(iterations)
        ledger = Ledger()
        # One-time programming cost, amortised across the run.
        prog = self.crossbar.programming_summary()
        ledger.add("program", prog["energy"], 0.0, int(prog["write_pulses"]))
        anneal = self._annealer.run(iterations, initial=initial)
        series, energy, time = self._costs(self._counters)
        for entry in series:
            ledger.add_series(*entry)
        traced = self.record_cost_trace
        return CimRunResult(
            label=self.label,
            anneal=anneal,
            ledger=ledger,
            energy_trace=np.add.accumulate(energy) if traced else None,
            time_trace=np.add.accumulate(time) if traced else None,
        )


class InSituCimAnnealer(CimMachine):
    """Hardware-instrumented in-situ CiM annealer.

    Parameters
    ----------
    model:
        The Ising model to solve (fields should be folded in with
        :meth:`~repro.ising.IsingModel.with_ancilla` first — the crossbar
        stores couplings only).  Omit it when annealing against a
        pre-compiled ``program=``.
    config:
        Component/cost set; default :meth:`HardwareConfig.proposed`.
    flips_per_iteration / factor / schedule / acceptance_scale / proposal:
        Algorithm parameters, forwarded to the core annealer.
    backend:
        Crossbar backend (``"behavioral"`` or ``"device"``).
    variation:
        Device-variation model applied by the crossbar.
    tile_size:
        When given, the matrix is stored on a sparse grid of
        ``tile_size``-row arrays (:class:`~repro.arch.tiling.TiledCrossbar`)
        instead of one monolithic crossbar — the multi-array scale-out
        extension.  A :class:`~repro.ising.sparse.SparseIsingModel` input
        is quantized straight from its CSR arrays into one CSR stored
        image; neither the coupling matrix nor the stored image is ever
        densified.  Ideal behavioural tiles hold no cells of their own,
        so 100k+-node low-degree instances fit in O(nnz) memory; device
        and ``variation=`` grids add their active tiles' cells.
    reorder:
        Spin reordering applied to the *internal* crossbar layout before
        tiling: ``"none"`` (default), ``"rcm"`` (Reverse Cuthill–McKee,
        for banded structure), ``"partition"`` (multilevel min-cut block
        layout of :mod:`repro.core.partition`, for clustered structure)
        or ``"auto"`` (score RCM against the partition layout by exact
        active-tile count and keep the winner only when it strictly
        improves on the identity; greedy degree fallback).  Purely a
        layout optimisation — proposals are drawn in the caller's spin
        order and configurations are returned in it, so results are
        bit-identical to the unreordered machine whenever the stored
        image is exactly representable (all ±1-weighted G-sets).
        ``"rcm"`` and ``"partition"`` require ``tile_size`` (a monolithic
        crossbar has no tile grid to compact); ``"auto"`` quietly
        resolves to the identity without one.  The resulting ordering and
        bandwidth are reported in :attr:`mapping` and the
        :class:`Permutation` is kept on :attr:`permutation`.
    permutation:
        Explicit internal layout: a pre-computed
        :class:`~repro.core.reorder.Permutation` (or raw ``forward``
        array) to store the matrix under, instead of running a reordering
        pass.  Mutually exclusive with ``reorder``; requires ``tile_size``.
        The same transparency contract applies — for exactly-representable
        images, *any* declared layout yields the identical trajectory, so
        this is how layout-independence is asserted at scales where the
        identity ordering itself is too expensive to program.
    use_encoder:
        When True, temperatures are mapped to the 10 mV BG grid through a
        :class:`VbgEncoder` built from the crossbar's own transfer curve
        (always the case in the real hardware; optional here so ideal-factor
        studies are possible).
    record_cost_trace:
        Record cumulative energy/time after every iteration (Fig 8b/9b).
    seed:
        RNG seed.  On the cold path one generator is shared between the
        crossbar programming pass and the annealer (the legacy stream);
        with ``program=`` the seed drives the annealer only.
    program:
        A pre-compiled :class:`CimProgram` to anneal against instead of
        programming a crossbar here.  Mutually exclusive with ``model``
        and every programming-time knob (``config``, ``backend``,
        ``variation``, ``tile_size``, ``reorder``, ``permutation``) —
        those were fixed when the program was compiled.

    Costs are recorded from the crossbar evaluator, which the inner
    :class:`~repro.core.annealer.InSituAnnealer` calls exactly once per
    iteration; the machine sets no ``iteration_hook``.  Runs go through
    :meth:`CimMachine.run`.
    """

    def __init__(
        self,
        model: IsingModel | None = None,
        config: HardwareConfig | None = None,
        flips_per_iteration: int = 1,
        factor: FractionalFactor | None = None,
        schedule: Schedule | None = None,
        acceptance_scale: float | str = "auto",
        proposal: str = "scan",
        backend: str = "behavioral",
        variation: VariationModel | None = None,
        tile_size: int | None = None,
        reorder: str | None = None,
        permutation=None,
        use_encoder: bool = True,
        record_cost_trace: bool = False,
        record_trace: bool = False,
        seed=None,
        program: CimProgram | None = None,
    ) -> None:
        if program is not None:
            if model is not None or any(
                knob is not None
                for knob in (config, variation, tile_size, reorder, permutation)
            ) or backend != "behavioral":
                raise ValueError(
                    "program= already fixes the crossbar programming; pass "
                    "model/config/backend/variation/tile_size/reorder/"
                    "permutation to compile_cim_program() instead"
                )
            rng = ensure_rng(seed)
        else:
            if model is None:
                raise ValueError(
                    "model is required unless a compiled program= is given"
                )
            # One generator shared by programming and annealing — the
            # stream contract fixed-seed regressions pin.
            rng = ensure_rng(seed)
            program = compile_cim_program(
                model,
                config=config,
                backend=backend,
                variation=variation,
                tile_size=tile_size,
                reorder=reorder,
                permutation=permutation,
                seed=rng,
            )
        super().__init__(program, record_cost_trace)
        self.factor = factor or FractionalFactor()
        self.reorder = program.reorder
        self.permutation = program.permutation
        self.schedule = schedule
        encoder = None
        if use_encoder:
            encoder = VbgEncoder(self.factor, transfer=self.crossbar.factor)
        counters = self._counters = RunCounters(
            conversions=np.int64, slots=np.int64, codes=np.int64,
            fg=np.int64, dl=np.int64, settle=np.float64, vbg=np.float64,
        )
        crossbar, snap = self.crossbar, self.config.bg_dac.snap
        # Requested level -> DAC level, filled once per distinct level.
        rail: dict[float, float] = {}

        def evaluate(sigma, flips, sigma_r, sigma_c, v_bg) -> float:
            level = rail.get(v_bg)
            if level is None:
                level = rail[v_bg] = snap(v_bg)
            value, stats = crossbar.compute_increment(
                sigma_r, sigma_c, level, validate=False, flips=flips
            )
            it = counters.step
            counters.step = it + 1
            counters.conversions[it] = stats.adc_conversions
            counters.slots[it] = stats.mux_slots
            counters.codes[it] = stats.sa_codes
            counters.fg[it] = stats.fg_toggles
            counters.dl[it] = stats.dl_toggles
            counters.settle[it] = stats.settle_time
            counters.vbg[it] = level
            return value

        # Costs are booked from the evaluator alone (no `iteration_hook`):
        # the annealer calls it exactly once per iteration, in order.
        self._annealer = InSituAnnealer(
            program.annealer_model,
            flips_per_iteration=flips_per_iteration,
            factor=self.factor,
            schedule=schedule,
            encoder=encoder,
            acceptance_scale=acceptance_scale,
            evaluator=evaluate,
            proposal=proposal,
            permutation=self.permutation,
            record_trace=record_trace,
            seed=rng,
        )

    def _costs(self, counters: RunCounters):
        """Ledger series and per-iteration totals of the in-situ reads.

        The first iteration always sets the BG rail, so a per-iteration
        booking creates the entries in this fixed order.
        """
        cfg = self.config
        iterations = counters.conversions.size
        adc_energy = counters.conversions * cfg.adc.energy_per_conversion
        adc_time = counters.slots * cfg.adc.time_per_conversion
        sa_energy = counters.codes * cfg.shift_add.energy_per_code
        fg_energy = counters.fg * cfg.fg_driver.energy_per_toggle
        dl_energy = counters.dl * cfg.dl_driver.energy_per_toggle
        bg_update = rail_updates(counters.vbg)
        updates = int(np.count_nonzero(bg_update))
        series = [
            ("adc", adc_energy, adc_time, counters.conversions),
            ("shift_add", sa_energy, np.zeros(iterations)),
            ("drivers", fg_energy + dl_energy, counters.settle),
            (
                "bg_dac",
                np.full(updates, cfg.bg_dac.energy_per_update),
                np.full(updates, cfg.bg_dac.time_per_update),
            ),
            (
                "logic",
                np.full(iterations, cfg.logic_energy),
                np.full(iterations, cfg.logic_time),
            ),
        ]
        energy = adc_energy + sa_energy + fg_energy + dl_energy
        time = adc_time + counters.settle
        energy[bg_update] += cfg.bg_dac.energy_per_update
        time[bg_update] += cfg.bg_dac.time_per_update
        return series, energy + cfg.logic_energy, time + cfg.logic_time
