"""Architecture layer: energy/latency-instrumented annealer machines.

Combines the algorithmic core with the circuit substrate and books every
hardware event into per-component ledgers — the layer the paper's Fig 8/9
hardware-overhead comparison is generated from.  Every array is programmed
by :func:`~repro.arch.cim_annealer.compile_cim_program`, and every machine
runs through one loop, :meth:`~repro.arch.cim_annealer.CimMachine.run`,
which books each run's counters once.
"""

from repro.arch.baselines import DirectECimAnnealer
from repro.arch.cim_annealer import InSituCimAnnealer
from repro.arch.hardware import HardwareConfig
from repro.arch.ledger import Ledger, LedgerEntry
from repro.arch.mapping import CrossbarMapping
from repro.arch.result import CimRunResult
from repro.arch.tiling import TiledCrossbar

__all__ = [
    "InSituCimAnnealer",
    "DirectECimAnnealer",
    "HardwareConfig",
    "Ledger",
    "LedgerEntry",
    "CrossbarMapping",
    "CimRunResult",
    "TiledCrossbar",
]
