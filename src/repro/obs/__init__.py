"""Observability for the CSSAME stack: tracing, decision logs, metrics.

The paper's algorithms are sequences of *decisions* — which mutex
bodies A.1 finds, which π conflict arguments A.3 removes and under
which theorem, what each optimization pass touched, what the
interleaving VM scheduled.  This package records those decisions as
spans (:mod:`repro.obs.trace`), typed events (:mod:`repro.obs.events`)
and metrics (:mod:`repro.obs.metrics`), and exports them as JSON-lines,
Chrome ``trace_event`` JSON, or a text summary
(:mod:`repro.obs.export`).

Tracing is off by default and costs one attribute read per
instrumentation site; see ``docs/OBSERVABILITY.md``.
"""

from repro.obs.events import (
    ContextSwitch,
    Event,
    LockAcquire,
    LockRelease,
    MutexBodyDiscovered,
    PassEnd,
    PassStart,
    PiArgRemoved,
    PiDeleted,
    REASON_DOES_NOT_REACH_EXIT,
    REASON_NOT_UPWARD_EXPOSED,
    VMStep,
    tid_str,
)
from repro.obs.export import (
    TRACE_FORMATS,
    export_chrome,
    export_collapsed,
    export_jsonl,
    load_jsonl,
    render_text,
    trace_as_dicts,
    write_trace,
)
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.prof import (
    WORK_PREFIX,
    WorkProfile,
    profile_source,
    record_work,
    total_work,
    work_by_phase,
    work_counters,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "ContextSwitch",
    "Counter",
    "Event",
    "Histogram",
    "LockAcquire",
    "LockRelease",
    "MetricsRegistry",
    "MutexBodyDiscovered",
    "NULL_TRACER",
    "NullTracer",
    "PassEnd",
    "PassStart",
    "PiArgRemoved",
    "PiDeleted",
    "REASON_DOES_NOT_REACH_EXIT",
    "REASON_NOT_UPWARD_EXPOSED",
    "Span",
    "TRACE_FORMATS",
    "Tracer",
    "VMStep",
    "WORK_PREFIX",
    "WorkProfile",
    "export_chrome",
    "export_collapsed",
    "export_jsonl",
    "get_tracer",
    "load_jsonl",
    "profile_source",
    "record_work",
    "render_text",
    "set_tracer",
    "tid_str",
    "total_work",
    "trace_as_dicts",
    "use_tracer",
    "work_by_phase",
    "work_counters",
    "write_trace",
]
