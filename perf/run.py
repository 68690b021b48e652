"""The benchmark: every workload, both clocks, every metric by name.

    python3 perf/run.py                         all four workloads, 5 + 3
                                                iterations and a boundary
                                                pass each (~4 min)
    python3 perf/run.py --workload dag_pipeline --seed 7
    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
                                                what BENCHMARK.json's driver
                                                runs: a time budget, and one
                                                JSON object on the last line

Each workload is measured by ``measure.py`` in its own fresh interpreter,
one after the other, from this single driver: a closed loop, one job at a
time.  Metric names, units and bounds are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: set-ups measured per workload (each in a fresh interpreter); the
#: reported ``setup_s`` is their median
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170


def spawn_measure(workload: str, seed: int, *extra: str) -> dict[str, Any]:
    """Run ``measure.py`` in a fresh interpreter; returns its record."""
    done = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), "--workload", workload,
         "--seed", str(seed), "--spawned-at", repr(time.monotonic()), *extra],
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"measure.py printed no record for {workload!r} "
                         f"(exit code {done.returncode})")
    return json.loads(lines[-1])


def measure_workload(
    workload: str, seed: int, seconds: Optional[float], trace: Optional[int]
) -> dict[str, Any]:
    extra = []
    if seconds is not None:
        extra += ["--seconds", repr(seconds)]
    if trace == 0:
        extra += ["--boundaries", "0"]
    record = spawn_measure(workload, seed, *extra)
    if trace != 1 and "metrics" in record:
        setups = [record["setup_s"]] + [
            spawn_measure(workload, seed, "--setup-only")["setup_s"]
            for _ in range(SETUP_REPEATS - 1)
        ]
        record["samples"]["setup_s"] = setups
        record["metrics"]["setup_s"] = statistics.median(setups)
    return record


def git_commit() -> Optional[str]:
    """HEAD's commit, read from ``.git`` directly (no search above ROOT)."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _fmt(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_report(record: dict[str, Any], spec: dict[str, Any]) -> None:
    metrics, samples = record["metrics"], record["samples"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_calls"] = f"count, of {record['calls']}"
    print(f"\n== {record['workload']}  seed {record['seed']}  "
          f"{record['calls']} calls/iteration  pinned to CPU "
          f"{record['pinned_cpu']}")
    print("  end to end (host seconds at reference speed)")
    for name in [m["name"] for m in spec["end_to_end"]] + [
        "failed_calls", "paper_err_pct"
    ]:
        line = f"    {name:24s} {_fmt(metrics.get(name)):>12s} {units[name]}"
        values = samples.get(name, ())
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
            line += (f"   min {_fmt(min(values))}  q1 {_fmt(q1)}  q3 "
                     f"{_fmt(q3)}  max {_fmt(max(values))}")
        if values:
            line += f"  n={len(values)}"
        print(line)
    print("  per layer")
    for entry in spec["per_layer"]:
        name = entry["name"]
        if name != "paper_err_pct":
            print(f"    {name:40s} {_fmt(metrics.get(name)):>14s} {entry['unit']}")
    for error in record["errors"]:
        print(f"  ERROR {error}")


def contract_line(record: dict[str, Any], spec: dict[str, Any],
                  trace: int) -> str:
    """The one JSON object BENCHMARK.json's driver reads."""
    metrics = record.get("metrics", {})
    out = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        value = metrics.get(entry["name"])
        if value is None:
            if not trace:
                raise SystemExit(f"no value for {entry['name']}")
            value = 0  # a per-layer metric that does not apply here
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return json.dumps({
        "correct": record["failed_calls"] == 0,
        "attempted": record["attempted_calls"],
        "failed": record["failed_calls"],
        "metrics": out,
    })


def main(argv: Optional[list[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="default: all, in BENCHMARK.json's order")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        help="time budget for the timed iterations")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer")
    parser.add_argument("--out", type=Path,
                        help=f"result file (default: {RESULTS}/last.json)")
    args = parser.parse_args(argv)

    records = {}
    for workload in [args.workload] if args.workload else names:
        record = measure_workload(workload, args.seed, args.seconds, args.trace)
        records[workload] = record
        if "metrics" in record:
            print_report(record, spec)
        else:
            print(f"\n== {workload}: set-up failed\n" + "\n".join(record["errors"]))
    failed = sum(r["failed_calls"] for r in records.values())
    if args.seconds is not None and args.trace is not None:
        if "metrics" not in record:
            return 1
        print(contract_line(record, spec, args.trace))
        return 1 if failed else 0

    out = args.out or RESULTS / "last.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "seed": args.seed,
        "git_commit": git_commit(),
        "repo_path": str(ROOT),
        "workloads": records,
    }, indent=1) + "\n")
    print(f"\nwrote {out}" + (f"; {failed} failed calls" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
