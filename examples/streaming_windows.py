"""Micro-batch streaming: windowed map_reduce over arriving objects.

A virtual-time source appends one object of readings every 10 s (with
arrival jitter and a deliberately late straggler); the driver fires one
DAG per 40 s window, sliding every 20 s.  Because windows overlap, each
object's map partial is computed once and *reused* by the next window as
an external DAG node — the cached-cos exchange tier then serves the
re-read from memory.  The straggler arrives after its windows fired and
is handled by the late policy (here: refire, producing revised results).

Run:  python examples/streaming_windows.py
"""

import repro as pw

N_OBJECTS = 14
PERIOD_S = 10.0
WINDOW_S = 40.0
SLIDE_S = 20.0


def main(env):
    executor = pw.ibm_cf_executor()
    source = pw.StreamSource.synthetic(
        N_OBJECTS,
        PERIOD_S,
        values_per_object=16,
        jitter_s=3.0,
        late_every=6,
        late_by_s=50.0,
    )
    t0 = pw.now()
    windows = pw.windowed_map_reduce(
        executor,
        source,
        sum,                      # map: total of one object's readings
        lambda parts: sum(parts),  # reduce: total of the window
        window_s=WINDOW_S,
        slide_s=SLIDE_S,
        late_policy="refire",
    )
    elapsed = pw.now() - t0

    reused = sum(w.reused_partials for w in windows)
    revised = sum(1 for w in windows if w.revision > 0)
    for w in windows:
        tag = f" (revision {w.revision}, late straggler folded in)" if w.revision else ""
        print(
            f"window [{w.start_s:5.0f}, {w.end_s:5.0f})  "
            f"objects={len(w.keys)}  reused={w.reused_partials}  "
            f"total={w.value}{tag}"
        )
    print(
        f"{len(windows)} windows in {elapsed:.1f}s virtual: "
        f"{reused} map partials reused across overlaps, "
        f"{revised} windows refired for late arrivals"
    )
    stats = env.exchange.stats()
    print(
        f"exchange cache: {stats['local_hits'] + stats['peer_hits']} hits, "
        f"{stats['cos_misses']} COS misses on intermediate reads"
    )


if __name__ == "__main__":
    env = pw.CloudEnvironment.create(exchange="cached-cos")
    env.run(main, env)
