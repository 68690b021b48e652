"""Compare two result files of ``run.py``: A (the parent) against B.

    python3 perf/compare.py perf/results/baseline_a.json perf/results/baseline_b.json --same-commit
    python3 perf/compare.py parent.json change.json

One row per (workload, end-to-end metric) with both medians, both
quartile ranges and a verdict:

    ok          B is no worse than A by more than the metric's bound
    worse       it is
    unresolved  it is not, but the run-to-run spread (interquartile range
                over median, of either side) is wider than the bound, so
                "unchanged" cannot be claimed either

``host_*`` and ``setup_s`` bounds come from ``BENCHMARK.json``.  The
modelled metrics (``virt_*``) and every seeded count are deterministic, so
they get their own rule.  Under ``--same-commit`` they must be the same:
counts exactly, modelled seconds within ``measure.VIRT_REL_TOL`` (1e-6; see
there why not 0).  Across commits ``virt_*`` may worsen by 0.1 %: modelled
seconds depend on pickled sizes, and those on the interpreter and, for
by-value functions, the checkout path.  Exits non-zero when any row is
``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Optional

from measure import same_fact

ROOT = Path(__file__).resolve().parent.parent

#: across commits, the share by which a modelled metric may get worse
VIRT_BOUND = 0.001
#: set-up may always get this much worse, whatever its share
SETUP_FLOOR_S = 0.3
#: points of ``paper_err_pct``
PAPER_ERR_BOUND = 0.1


def _spread(values: Optional[list[float]]) -> Optional[float]:
    """Interquartile range over median; ``None`` below two samples."""
    if not values or len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / median if median else None


def _judge(name: str, a: Any, b: Any, bound: float, same_commit: bool,
           spreads: list[Optional[float]]) -> tuple[str, str]:
    """(the rule applied, the verdict) for one metric of one workload."""
    if name == "failed_calls":
        return "none", "worse" if b else "ok"
    if name.startswith("virt_") and same_commit:
        return "same", "ok" if same_fact(a, b) else "worse"
    if a is None or b is None:
        return "-", "ok" if a is b else "worse"
    rule, allowed = f"{bound:.1%}", bound * abs(a)
    if name == "setup_s":
        rule, allowed = rule + f", {SETUP_FLOOR_S} s", max(allowed, SETUP_FLOOR_S)
    elif name == "paper_err_pct":
        rule, allowed = f"{PAPER_ERR_BOUND} pt", PAPER_ERR_BOUND
    if b - a > allowed:
        return rule, "worse"
    if any(s is not None and s > bound for s in spreads):
        return rule, "unresolved"
    return rule, "ok"


def _seeded_counts(record: dict[str, Any]) -> dict[str, Any]:
    """Every deterministic count and modelled second of a record."""
    phases = record["iterations"]
    first = (phases.get("A") or phases.get("B"))[0]
    traced = phases["B"][-1]["traced"] if phases.get("B") else {}
    return {k: v for k, v in {**first["facts"], **traced}.items()
            if k not in record["host_dependent"]}


def compare(a: dict, b: dict, spec: dict, same_commit: bool) -> list[tuple]:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds.update(failed_calls=0.0, paper_err_pct=0.0)
    if not same_commit:
        bounds.update(virt_makespan_s=VIRT_BOUND, virt_cost_usd=VIRT_BOUND)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        ra, rb = a["workloads"].get(workload), b["workloads"].get(workload)
        if ra is None or rb is None:
            continue
        for name, bound in bounds.items():
            ma, mb = ra["metrics"].get(name), rb["metrics"].get(name)
            spreads = [_spread(r["samples"].get(name)) for r in (ra, rb)]
            rows.append((workload, name, ma, mb, spreads,
                         *_judge(name, ma, mb, bound, same_commit, spreads)))
        if same_commit:
            ca, cb = _seeded_counts(ra), _seeded_counts(rb)
            moved = sorted(k for k in ca.keys() | cb.keys()
                           if not same_fact(ca.get(k), cb.get(k)))
            rows.append((workload, f"seeded counts ({len(ca)})", None, None,
                         [None, None], "same",
                         "worse: " + ", ".join(moved) if moved else "ok"))
    return rows


def _fmt(value: Any, pct: bool = False) -> str:
    if value is None:
        return "-"
    return f"{value * 100:.1f}%" if pct else f"{value:.6g}"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--same-commit", action="store_true",
                        help="A/A check: virt_* and seeded counts must be the same")
    args = parser.parse_args(argv)
    a, b = (json.loads(path.read_text()) for path in (args.a, args.b))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, spec, args.same_commit)
    print(f"A = {args.a}  (commit {a.get('git_commit')}, seed {a.get('seed')})")
    print(f"B = {args.b}  (commit {b.get('git_commit')}, seed {b.get('seed')})")
    print(f"{'workload':18s} {'metric':20s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A-1':>8s} {'A iqr':>7s} {'B iqr':>7s} {'bound':>12s}  verdict")
    for workload, name, ma, mb, spreads, rule, verdict in rows:
        change = (mb / ma - 1) if ma and mb is not None else None
        print(f"{workload:18s} {name:20s} {_fmt(ma):>12s} {_fmt(mb):>12s} "
              f"{_fmt(change, True):>8s} {_fmt(spreads[0], True):>7s} "
              f"{_fmt(spreads[1], True):>7s} {rule:>12s}  {verdict}")
    worse = sum(1 for row in rows if row[-1].startswith("worse"))
    unresolved = sum(1 for row in rows if row[-1] == "unresolved")
    print(f"{len(rows)} rows: {worse} worse, {unresolved} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
