"""Benchmark harness: one module per paper table/figure.

* :mod:`repro.bench.fig2_spawning` — massive function spawning (Fig. 2 + §6.1)
* :mod:`repro.bench.fig3_elasticity` — elasticity & concurrency (Fig. 3)
* :mod:`repro.bench.fig4_mergesort` — dynamic composition (Fig. 4)
* :mod:`repro.bench.fig5_tone_map` — the New York tone map (Fig. 5)
* :mod:`repro.bench.table3_airbnb` — the real MapReduce job (Table 3)

Each module exposes ``run_*`` functions returning structured results and
one ``report()`` that builds its paper table: the one renderer of the
tables in EXPERIMENTS.md (see :mod:`repro.bench.reporting`).
"""

from repro.bench import (
    fig2_spawning,
    fig3_elasticity,
    fig4_mergesort,
    fig5_tone_map,
    table3_airbnb,
)
from repro.bench.reporting import Table

__all__ = [
    "fig2_spawning",
    "fig3_elasticity",
    "fig4_mergesort",
    "fig5_tone_map",
    "table3_airbnb",
    "Table",
]
