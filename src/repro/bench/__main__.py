"""Command-line entry point: regenerate the paper's tables.

Each experiment prints its table as the GitHub pipe table that
EXPERIMENTS.md keeps between its ``<!-- generated: <exp> -->`` markers::

    python -m repro.bench fig2              # Fig. 2 + §6.1 sweep
    python -m repro.bench fig3              # Fig. 3 elasticity
    python -m repro.bench fig4 [--quick]    # Fig. 4 mergesort grid
    python -m repro.bench fig5 [--out SVG]  # Fig. 5 tone map (+ the SVG)
    python -m repro.bench table3 [--chunks 64,8,2]
    python -m repro.bench all
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.bench import (
    fig2_spawning,
    fig3_elasticity,
    fig4_mergesort,
    fig5_tone_map,
    table3_airbnb,
)


def _run_fig2(args: argparse.Namespace) -> None:
    results = fig2_spawning.run_invoker_sweep(n_functions=args.n, seed=args.seed)
    print(fig2_spawning.report(results).render())


def _run_fig3(args: argparse.Namespace) -> None:
    print(fig3_elasticity.report(fig3_elasticity.run_fig3(seed=args.seed)).render())


def _run_fig4(args: argparse.Namespace) -> None:
    sizes = fig4_mergesort.ARRAY_SIZES
    depths = fig4_mergesort.DEPTHS
    if args.quick:
        sizes = sizes[:2]
        depths = depths[:3]
    points = fig4_mergesort.run_fig4(sizes, depths, seed=args.seed)
    print(fig4_mergesort.report(points).render())


def _run_fig5(args: argparse.Namespace) -> None:
    result = fig5_tone_map.run_fig5(seed=args.seed)
    print(fig5_tone_map.report(result).render())
    with open(args.out, "w") as handle:
        handle.write(result.svg)
    print(f"SVG written to {args.out}", file=sys.stderr)


def _run_table3(args: argparse.Namespace) -> None:
    chunks = tuple(int(c) for c in args.chunks.split(",")) if args.chunks else None
    rows = table3_airbnb.run_table3(
        chunk_sizes_mb=chunks or table3_airbnb.CHUNK_SIZES_MB, seed=args.seed
    )
    print(table3_airbnb.report(rows).render())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation tables.",
    )
    parser.add_argument("--seed", type=int, default=42)
    sub = parser.add_subparsers(dest="experiment", required=True)

    p_fig2 = sub.add_parser("fig2", help="massive function spawning")
    p_fig2.add_argument("--n", type=int, default=1000, help="functions to spawn")

    sub.add_parser("fig3", help="elasticity and concurrency")

    p_fig4 = sub.add_parser("fig4", help="mergesort composition")
    p_fig4.add_argument("--quick", action="store_true", help="reduced grid")

    p_fig5 = sub.add_parser("fig5", help="New York tone map artifact")
    p_fig5.add_argument("--out", default="fig5_new_york.svg", help="output SVG path")

    p_t3 = sub.add_parser("table3", help="Airbnb MapReduce job")
    p_t3.add_argument(
        "--chunks", default=None, help="comma-separated chunk sizes in MB"
    )

    sub.add_parser("all", help="everything")

    args = parser.parse_args(argv)
    runners = {
        "fig2": _run_fig2,
        "fig3": _run_fig3,
        "fig4": _run_fig4,
        "fig5": _run_fig5,
        "table3": _run_table3,
    }
    if args.experiment != "all":
        runners[args.experiment](args)
        return 0
    for name, runner in runners.items():
        print(f"### {name}")
        runner(parser.parse_args(["--seed", str(args.seed), name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
