"""Energy/latency ledgers with per-component breakdowns.

Every architecture-level run books its activity here: component name →
(energy, time, count).  The Fig 8/9 benches read the totals; the breakdown
reproduces the paper's energy split between the ADC and the ``e^x`` unit.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.utils.tables import render_table
from repro.utils.units import format_energy, format_time


@dataclass
class LedgerEntry:
    """Accumulated cost of one component."""

    energy: float = 0.0
    time: float = 0.0
    count: int = 0


@dataclass
class Ledger:
    """Additive energy/time accounting keyed by component name.

    ``time`` entries are *critical-path* contributions: components operating
    in parallel should only book the serialising share (the machines take
    care of that; the ledger just adds).
    """

    entries: dict[str, LedgerEntry] = field(default_factory=lambda: defaultdict(LedgerEntry))

    def add(self, component: str, energy: float = 0.0, time: float = 0.0, count: int = 1) -> None:
        """Book ``energy``/``time`` (non-negative) against ``component``."""
        if energy < 0 or time < 0:
            raise ValueError("ledger amounts must be non-negative")
        entry = self.entries[component]
        entry.energy += energy
        entry.time += time
        entry.count += count

    def add_series(self, component: str, energy, time, count=None) -> None:
        """Book one :meth:`add` per element of ``energy``/``time``, in order.

        ``count`` is the per-element op count (default one each).
        ``np.add.accumulate`` is a strictly sequential running sum, so the
        totals equal the element-by-element :meth:`add` calls bit for bit,
        whatever the values.  An empty series books nothing.
        """
        energy = np.asarray(energy, dtype=np.float64)
        time = np.asarray(time, dtype=np.float64)
        if energy.ndim != 1 or energy.shape != time.shape:
            raise ValueError("energy and time must be matching 1-D series")
        if energy.size == 0:
            return
        if np.any(energy < 0) or np.any(time < 0):
            raise ValueError("ledger amounts must be non-negative")
        entry = self.entries[component]
        entry.energy = float(np.add.accumulate(np.append(entry.energy, energy))[-1])
        entry.time = float(np.add.accumulate(np.append(entry.time, time))[-1])
        entry.count += energy.size if count is None else int(np.sum(count))

    def merge(self, other: "Ledger") -> None:
        """Fold another ledger's entries into this one."""
        for name, entry in other.entries.items():
            self.add(name, entry.energy, entry.time, entry.count)

    @property
    def total_energy(self) -> float:
        """Total booked energy in joules."""
        return sum(e.energy for e in self.entries.values())

    @property
    def total_time(self) -> float:
        """Total booked critical-path time in seconds."""
        return sum(e.time for e in self.entries.values())

    def energy_breakdown(self) -> dict[str, float]:
        """Energy per component (joules)."""
        return {name: e.energy for name, e in sorted(self.entries.items())}

    def time_breakdown(self) -> dict[str, float]:
        """Time per component (seconds)."""
        return {name: e.time for name, e in sorted(self.entries.items())}

    def energy_share(self, component: str) -> float:
        """Fraction of total energy booked by ``component``."""
        total = self.total_energy
        if total <= 0:
            return 0.0
        return self.entries[component].energy / total if component in self.entries else 0.0

    def as_table(self, title: str | None = None) -> str:
        """Human-readable breakdown table."""
        rows = [
            (name, e.count, format_energy(e.energy), format_time(e.time))
            for name, e in sorted(self.entries.items())
        ]
        rows.append(("TOTAL", sum(e.count for e in self.entries.values()),
                     format_energy(self.total_energy), format_time(self.total_time)))
        return render_table(["component", "ops", "energy", "time"], rows, title=title)
