"""Ablation — flip-set size ``t = |F|``.

The paper keeps |F| constant to make the incremental VMV O(n) but does not
publish the value.  This bench sweeps t and shows the trade the design
lives on: solution quality at the paper's tight 800-node budget versus the
per-iteration sensing cost (2·t·k conversions per sign plane), read off one
in-situ read of the programmed array.
"""

from __future__ import annotations

import numpy as np

from benchmarks._common import emit, quality_runs
from repro.analysis import reference_cut
from repro.arch.cim_annealer import compile_cim_program
from repro.circuits import SarAdc
from repro.core import solve_maxcut
from repro.devices import VBG_MAX
from repro.ising import build_instance, paper_instance_suite
from repro.utils.rng import ensure_rng
from repro.utils.tables import render_table
from repro.utils.units import PICO, from_si

FLIP_COUNTS = (1, 2, 4, 8, 16)


def test_flip_count_tradeoff(benchmark, capsys):
    """Quality (800-node budget) and cost vs t."""
    spec = [s for s in paper_instance_suite() if s.nodes == 800][0]
    problem = build_instance(spec)
    ref = reference_cut(problem)
    runs = max(3, quality_runs() // 2)
    adc = SarAdc()
    crossbar = compile_cim_program(problem.to_ising()).crossbar
    sigma = ensure_rng(0).choice([-1.0, 1.0], spec.nodes)

    def read_conversions(t):
        """ADC conversions of one in-situ read that flips spins 0..t-1."""
        sigma_c = np.zeros(spec.nodes)
        sigma_c[:t] = sigma[:t]
        _, stats = crossbar.compute_increment(sigma - sigma_c, sigma_c, VBG_MAX)
        return stats.adc_conversions

    def sweep():
        rows = []
        for t in FLIP_COUNTS:
            cuts = [
                solve_maxcut(
                    problem,
                    "insitu",
                    spec.iterations,
                    seed=100 + s,
                    flips_per_iteration=t,
                ).best_cut
                for s in range(runs)
            ]
            conv = read_conversions(t)
            rows.append(
                (
                    t,
                    float(np.mean(cuts) / ref),
                    float(np.mean(np.asarray(cuts) >= 0.9 * ref)),
                    conv,
                    from_si(conv * adc.energy_per_conversion, PICO),
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = render_table(
        ["t = |F|", "mean norm. cut", "success", "ADC conv/iter", "ADC pJ/iter"],
        rows,
        title="Ablation — flip-set size at the 700-iteration 800-node budget",
    )
    emit(capsys, "ablation_flips", table)

    by_t = {r[0]: r for r in rows}
    # Sensing cost is linear in t.
    assert by_t[16][3] == 16 * by_t[1][3]
    # Small flip sets stay in the success band at this budget.
    assert by_t[1][2] >= 0.5
    assert by_t[2][2] >= 0.5
    # Very large flip sets hurt quality at a fixed budget (random multi-spin
    # moves are almost never accepted once the solution is decent).
    assert by_t[16][1] < max(by_t[1][1], by_t[2][1])
