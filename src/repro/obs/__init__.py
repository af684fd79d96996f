"""Zero-dependency observability for the solve stack.

Three pieces, wired together here:

* :mod:`repro.obs.trace` -- nestable, thread-aware spans with per-request
  trace IDs, a bounded in-memory store, and Chrome-trace / waterfall export;
* :mod:`repro.obs.metrics` -- typed Counter/Histogram instruments with
  Prometheus text exposition;
* :mod:`repro.obs.logging` -- structured JSON logging with trace-ID
  correlation.

:func:`install_phase_histograms` bridges the first two: every finished span
feeds a per-phase latency histogram, so enabling tracing automatically
populates ``repro_phase_seconds`` in the Prometheus scrape.
"""

from __future__ import annotations

from .logging import JsonFormatter, configure_logging, get_logger
from .metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    DEFAULT_LATENCY_BUCKETS,
    flatten_numeric,
    get_metrics_registry,
    validate_prometheus_text,
)
from .trace import (
    Span,
    TraceStore,
    Tracer,
    chrome_trace,
    format_waterfall,
    get_tracer,
    set_tracer,
    span_tree,
    spans_from_tree,
)

__all__ = [
    "Span",
    "TraceStore",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "chrome_trace",
    "span_tree",
    "spans_from_tree",
    "format_waterfall",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "get_metrics_registry",
    "flatten_numeric",
    "validate_prometheus_text",
    "JsonFormatter",
    "configure_logging",
    "get_logger",
    "install_phase_histograms",
]


def install_phase_histograms(tracer=None, registry=None) -> None:
    """Feed every finished span into a per-phase latency histogram.

    Installs a ``tracer.on_span_end`` hook that observes each span's
    duration in ``repro_phase_seconds{phase=<span name>}`` in ``registry``.
    Idempotent in effect: re-installing simply rebinds the hook.
    """
    tracer = tracer if tracer is not None else get_tracer()
    registry = registry if registry is not None else get_metrics_registry()
    histogram = registry.histogram(
        "repro_phase_seconds",
        "Latency of each traced phase of the solve stack, by span name.",
        labelnames=("phase",),
    )

    observe_many_at = histogram.observe_many_at

    def _observe(pairs) -> None:
        observe_many_at([((name,), duration_s) for name, duration_s in pairs])

    tracer.on_span_end = _observe
