"""Predicate-pushdown scans over a zone-mapped table.

Loads a "listings" table (fixed-width-row virtual objects + a zone-map
manifest), then answers the same BI question two ways:

* **pushdown** — the planner prunes row groups whose min/max statistics
  rule the predicate out, each activation reads only surviving byte
  ranges and returns a pre-aggregated partial, and one DAG reduce node
  merges them;
* **full scan** — no pruning, workers ship projected rows, the client
  filters and aggregates (what naive map-over-objects code does).

Both return the same answer; pushdown reads and moves a fraction of the
bytes.  ``tests/bench/test_workloads_smoke.py`` sweeps this over
selectivity × partitioning × exchange backend.

Run:  python examples/scan_pushdown.py
"""

import repro as pw

TOTAL_ROWS = 40_000
N_CITIES = 8


def main(env):
    table = pw.load_table(
        env.storage, total_rows=TOTAL_ROWS, n_cities=N_CITIES
    )
    executor = pw.ibm_cf_executor()

    # "how many cheap early-season stays?" — day is date-ordered within
    # each object, so zone maps prune most groups; price is random, so
    # the residual filter runs in the workers
    spec = pw.ScanSpec(
        columns=("city", "price"),
        predicate=(pw.Col("day") < 30) & (pw.Col("price") < 120),
        aggregate="count",
    )
    t0 = pw.now()
    push = pw.scan(executor, table, spec, pushdown=True)
    t_push = pw.now() - t0
    t0 = pw.now()
    full = pw.scan(executor, table, spec, pushdown=False)
    t_full = pw.now() - t0

    assert push.value == full.value, "pushdown changed the answer"
    print(
        f"count = {push.value} "
        f"(selectivity {100 * full.selectivity:.1f}% of {full.rows_scanned} rows)"
    )
    print(
        f"pushdown:  pruned {push.groups_pruned}/{push.groups_total} row groups, "
        f"read {push.bytes_read:,} bytes in {t_push:.1f}s virtual"
    )
    print(
        f"full scan: read {full.bytes_read:,} bytes in {t_full:.1f}s virtual "
        f"({full.bytes_read / max(1, push.bytes_read):.1f}x the bytes)"
    )

    # group_by rides the same partials: average nightly price per city
    avg = pw.scan(
        executor,
        table,
        pw.ScanSpec(
            columns=("city", "price"),
            predicate=pw.Col("stars") >= 4,
            aggregate="avg",
            agg_column="price",
            group_by="city",
        ),
    )
    for city, value in list(avg.value.items())[:4]:
        print(f"  avg 4-star price in {city:<12} {value:7.2f}")


if __name__ == "__main__":
    env = pw.CloudEnvironment.create()
    env.run(main, env)
