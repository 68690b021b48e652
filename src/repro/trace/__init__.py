"""``repro.trace`` — the unified trace spine.

One virtual-time event stream feeds everything the paper's evaluation
narrates: per-call statistics (Fig. 3's fast/slow executors), billing
totals, the progress bar, and the Fig. 2/3-style timelines.  Every layer
of the emulated cloud — gateway, controller, invoker nodes, containers,
workers, COS, network links, the chaos plane — emits structured spans and
point events stamped with virtual time and causally linked by the id
hierarchy ``executor_id (job) → callset_id → call_id → activation_id →
attempt``.

The spine has three parts:

* :mod:`repro.trace.tracer` — the per-environment :class:`Tracer`: near-zero
  overhead when disabled (every emission site guards on ``tracer.enabled``),
  one flat lock-free append per event when enabled, with
  :class:`~repro.trace.events.TraceEvent` records built when the stream is
  read;
* :mod:`repro.trace.derive` — consumers: job statistics, billing totals
  and execution intervals derived *from the stream*, matching the values
  the legacy per-layer counters produce;
* :mod:`repro.trace.export` — Chrome ``trace_event`` JSON (loadable in
  Perfetto / ``chrome://tracing``) and a flat JSONL format that round-trips
  and is persisted to COS next to each job's other objects.

Enable tracing when building an environment::

    env = CloudEnvironment.create(trace=True)
    ...
    events = env.tracer.events()
    export.write_chrome_trace(events, "job.trace.json")
"""

from repro.trace.events import LAYERS, TraceEvent
from repro.trace.tracer import Tracer
from repro.trace import derive, export

__all__ = ["TraceEvent", "Tracer", "LAYERS", "derive", "export"]
