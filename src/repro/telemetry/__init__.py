"""repro.telemetry: deterministic virtual-time tracing and exporters.

- :mod:`repro.telemetry.tracer` — spans, the clock-keyed tracer
  registry, seeded sampling.
- :mod:`repro.telemetry.critical_path` — exclusive per-layer latency
  attribution over span trees (the §VI-C decomposition).
- :mod:`repro.telemetry.exporters` — Chrome ``trace_event`` JSON and
  Prometheus-style text.
- :mod:`repro.telemetry.unified` — the canonical committed step-trace
  schema reconciling node debug traces, HEVM event counts, and spans.
- :mod:`repro.telemetry.flight` — per-session ring-buffer flight
  recorder with sealed deterministic failure dumps.
- :mod:`repro.telemetry.slo` — burn-rate SLO monitoring over metrics
  snapshots in virtual time.
"""

from repro.telemetry.critical_path import (
    RequestAttribution,
    aggregate,
    attribute,
    attribute_all,
    attribution_table,
    request_roots,
)
from repro.telemetry.exporters import render_chrome_trace, render_prometheus
from repro.telemetry.flight import (
    SEAL_CAUSES,
    FlightEntry,
    FlightRecorder,
    SealedDump,
)
from repro.telemetry.slo import SloAlert, SloMonitor, SloRule, default_slo_rules
from repro.telemetry.tracer import (
    NULL_TRACER,
    Span,
    SpanEvent,
    TraceContext,
    TraceSampler,
    Tracer,
    install_tracer,
    tracer_for,
    uninstall_tracer,
)
from repro.telemetry.unified import (
    StepTraceRecord,
    TraceReconciliationError,
    UnifiedStepTrace,
    counts_from_events,
    counts_from_span,
    counts_from_trace,
    from_struct_logs,
    reconcile_counts,
    reconcile_step_traces,
)
