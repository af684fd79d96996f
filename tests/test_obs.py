"""Tests for the observability stack: tracer, metrics registry, exposition.

Covers the span lifecycle (nesting, buffering-until-flush, thread affinity,
sampling), trace propagation through the JobQueue, the Prometheus text
exposition (label escaping, histogram bucket monotonicity, the strict
validator), the Chrome trace-event export and its round-trip through
``span_tree``/``spans_from_tree``, and the histogram quantile estimates.
"""

from __future__ import annotations

import json
import math
import random
import threading

import pytest

from repro.obs import (
    Counter,
    Histogram,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    flatten_numeric,
    format_waterfall,
    install_phase_histograms,
    set_tracer,
    span_tree,
    spans_from_tree,
    validate_prometheus_text,
)
from repro.obs.trace import TraceStore
from repro.server import JobQueue
from repro.service import SolveService


@pytest.fixture
def tracer():
    """A fresh enabled tracer installed as the process tracer."""
    tracer = Tracer()
    tracer.enable()
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


# --------------------------------------------------------------------------- #
# Span lifecycle
# --------------------------------------------------------------------------- #
class TestSpans:
    def test_nested_spans_share_trace_and_link_parents(self, tracer):
        with tracer.span("outer"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
            with tracer.span("sibling"):
                pass
        (trace_id,) = tracer.store.trace_ids()
        spans = {s.name: s for s in tracer.store.spans(trace_id)}
        assert set(spans) == {"outer", "middle", "inner", "sibling"}
        assert spans["outer"].parent_id is None
        assert spans["middle"].parent_id == spans["outer"].span_id
        assert spans["inner"].parent_id == spans["middle"].span_id
        assert spans["sibling"].parent_id == spans["outer"].span_id
        assert len({s.trace_id for s in spans.values()}) == 1
        for name in ("middle", "inner", "sibling"):
            assert spans[name].start_s >= spans["outer"].start_s
            assert spans[name].end_s <= spans["outer"].end_s

    def test_spans_buffer_until_root_exit(self, tracer):
        with tracer.span("root"):
            with tracer.span("child"):
                pass
            # The child has finished but the trace is still open: nothing
            # is visible in the store yet (spans flush in one batch).
            assert tracer.store.trace_ids() == []
        assert len(tracer.store.spans(tracer.store.trace_ids()[0])) == 2

    def test_consecutive_roots_get_distinct_traces(self, tracer):
        for _ in range(3):
            with tracer.span("root"):
                pass
        assert len(tracer.store.trace_ids()) == 3

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer()
        with tracer.span("ignored", attr=1) as span:
            span.set_attribute("more", 2)
        assert tracer.store.trace_ids() == []

    def test_attributes_survive_to_the_store(self, tracer):
        with tracer.span("op", strategy="ilp") as span:
            span.set_attribute("cache_hit", True)
        (trace_id,) = tracer.store.trace_ids()
        (span,) = tracer.store.spans(trace_id)
        assert span.attributes == {"strategy": "ilp", "cache_hit": True}

    def test_thread_affinity(self, tracer):
        """Each span records the thread that ran it; contexts hand traces over."""
        with tracer.span("root"):
            ctx = tracer.current_context()

            def work():
                with tracer.context(*ctx):
                    with tracer.span("worker-side"):
                        pass

            thread = threading.Thread(target=work, name="obs-worker")
            thread.start()
            thread.join()
        (trace_id,) = tracer.store.trace_ids()
        spans = {s.name: s for s in tracer.store.spans(trace_id)}
        assert spans["worker-side"].thread_name == "obs-worker"
        assert spans["worker-side"].thread_id != spans["root"].thread_id
        assert spans["worker-side"].parent_id == spans["root"].span_id

    def test_record_span_and_child_span(self, tracer):
        import time
        start = time.perf_counter()
        end = start + 0.25
        with tracer.span("root"):
            assert tracer.record_child_span("pre-measured", start, end, k="v")
        (trace_id,) = tracer.store.trace_ids()
        spans = {s.name: s for s in tracer.store.spans(trace_id)}
        assert spans["pre-measured"].duration_s == pytest.approx(0.25)
        assert spans["pre-measured"].parent_id == spans["root"].span_id
        assert spans["pre-measured"].attributes == {"k": "v"}
        # Outside any trace, record_child_span declines...
        assert not tracer.record_child_span("orphan", start, end)
        # ...but record_span with an explicit trace id records directly.
        tracer.record_span("explicit", "trace-x", start, end)
        (span,) = tracer.store.spans("trace-x")
        assert span.name == "explicit"

    def test_span_end_hook_sees_batched_pairs(self, tracer):
        batches = []
        tracer.on_span_end = batches.append
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        assert len(batches) == 1  # one flush for the whole trace
        names = [name for name, _ in batches[0]]
        assert sorted(names) == ["child", "root"]
        assert all(duration >= 0.0 for _, duration in batches[0])

    def test_store_bounds_traces_and_spans(self):
        store = TraceStore(max_traces=2, max_spans_per_trace=3)
        for t in range(4):
            for s in range(5):
                store.add((f"s{s}", f"t{t}", s + 1, None, 0.0, 1.0, 0, "m", None))
        assert store.trace_ids() == ["t2", "t3"]  # LRU kept the newest two
        assert len(store.spans("t3")) == 3
        assert store.stats()["dropped_spans"] > 0


# --------------------------------------------------------------------------- #
# JobQueue trace propagation
# --------------------------------------------------------------------------- #
class TestJobQueueTracing:
    def test_job_inherits_submitter_trace(self, tracer, chain5_train):
        with JobQueue(SolveService(), num_workers=1) as queue:
            with tracer.span("request"):
                request_trace = tracer.current_trace_id()
                job = queue.submit_solve(chain5_train, "checkpoint_all")
            assert job.wait(30)
        assert job.trace_id == request_trace
        names = {s.name for s in tracer.store.spans(job.trace_id)}
        assert {"queue-wait", "job-run", "solve"} <= names
        assert job.phases and "solve" in job.phases

    def test_programmatic_submit_opens_fresh_trace(self, tracer, chain5_train):
        with JobQueue(SolveService(), num_workers=1) as queue:
            job = queue.submit_solve(chain5_train, "checkpoint_all")
            assert job.wait(30)
        assert job.trace_id is not None
        assert {s.name for s in tracer.store.spans(job.trace_id)} >= {"job-run"}

    def test_deduplicated_jobs_share_one_trace(self, tracer, chain5_train):
        queue = JobQueue(SolveService(), num_workers=1)
        try:
            # Submit before the workers start so the three jobs coalesce
            # into one flight -- and therefore one shared trace.
            jobs = [queue.submit_solve(chain5_train, "checkpoint_all")
                    for _ in range(3)]
            queue.start()
            for job in jobs:
                assert job.wait(30)
        finally:
            queue.shutdown(wait=True)
        assert jobs[1].deduplicated and jobs[2].deduplicated
        assert len({job.trace_id for job in jobs}) == 1


# --------------------------------------------------------------------------- #
# Metrics registry and Prometheus exposition
# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_labels_and_monotonicity(self):
        counter = Counter("repro_requests_total", labelnames=("endpoint",))
        counter.inc(endpoint="/v1/solve")
        counter.inc(2.5, endpoint="/v1/solve")
        assert counter.value(endpoint="/v1/solve") == pytest.approx(3.5)
        with pytest.raises(ValueError):
            counter.inc(-1.0, endpoint="/v1/solve")
        with pytest.raises(ValueError):
            counter.inc(route="/v1/solve")  # wrong label name

    def test_histogram_buckets_cumulative_and_monotone(self):
        hist = Histogram("repro_latency_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        cumulative, total, count = hist.snapshot()
        assert cumulative == [1.0, 3.0, 4.0, 5.0]  # ends in the +Inf bucket
        assert all(b >= a for a, b in zip(cumulative, cumulative[1:]))
        assert count == 5.0
        assert total == pytest.approx(56.05)

    def test_observe_many_at_matches_individual_observes(self):
        one = Histogram("h_one", buckets=(1.0, 2.0))
        many = Histogram("h_many", buckets=(1.0, 2.0))
        values = (0.5, 1.5, 3.0, 0.1)
        for v in values:
            one.observe(v)
        many.observe_many_at([((), v) for v in values])
        assert one.snapshot() == many.snapshot()

    def test_registry_get_or_create_and_type_conflicts(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total")
        assert registry.counter("repro_x_total") is a
        with pytest.raises(ValueError):
            registry.histogram("repro_x_total")
        with pytest.raises(ValueError):
            registry.counter("repro_x_total", labelnames=("other",))

    def test_prometheus_render_escapes_label_values(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_odd_total", "help with\nnewline",
                                   labelnames=("path",))
        hostile = 'va"lue\\with\nhostile chars'
        counter.inc(path=hostile)
        text = registry.render_prometheus()
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        families = validate_prometheus_text(text)
        assert families["repro_odd_total"] == 1

    def test_prometheus_render_round_trips_histograms(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_phase_seconds",
                                  labelnames=("phase",), buckets=(0.1, 1.0))
        hist.observe(0.05, phase="solve")
        hist.observe(20.0, phase="solve")
        hist.observe(0.5, phase="decode")
        text = registry.render_prometheus()
        families = validate_prometheus_text(text)
        # 2 label sets x 3 cumulative buckets, plus sum/count per label set.
        assert families["repro_phase_seconds_bucket"] == 6
        assert families["repro_phase_seconds_sum"] == 2
        assert families["repro_phase_seconds_count"] == 2
        assert 'le="+Inf"' in text

    def test_validator_rejects_malformed_text(self):
        with pytest.raises(ValueError):
            validate_prometheus_text("bad metric line without value")
        with pytest.raises(ValueError):
            validate_prometheus_text('m{l="unterminated} 1.0')
        # Broken bucket monotonicity is caught, not just syntax.
        broken = (
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="1.0"} 3\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1.0\n"
            "h_count 3\n"
        )
        with pytest.raises(ValueError):
            validate_prometheus_text(broken)

    def test_flatten_numeric_skips_non_numeric(self):
        flat = flatten_numeric(
            {"jobs": {"done": 3, "name": "x"}, "uptime_s": 1.5, "flag": True},
            prefix="repro")
        # Strings drop out; booleans become 0/1 gauges.
        assert flat == {"repro_jobs_done": 3.0, "repro_uptime_s": 1.5,
                        "repro_flag": 1.0}

    def test_install_phase_histograms_bridges_tracer(self, tracer):
        registry = MetricsRegistry()
        install_phase_histograms(tracer, registry)
        with tracer.span("solve"):
            pass
        hist = registry.histogram("repro_phase_seconds", labelnames=("phase",))
        _, _, count = hist.snapshot(phase="solve")
        assert count == 1.0


# --------------------------------------------------------------------------- #
# Chrome trace export and tree round-trip
# --------------------------------------------------------------------------- #
class TestExport:
    def _sample_trace(self, tracer):
        with tracer.span("solve", strategy="checkmate_ilp"):
            with tracer.span("compile"):
                pass
            with tracer.span("ilp-solve"):
                pass
        (trace_id,) = tracer.store.trace_ids()
        return tracer.store.spans(trace_id)

    def test_chrome_trace_structure(self, tracer):
        spans = self._sample_trace(tracer)
        payload = json.loads(json.dumps(chrome_trace(spans)))
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in complete} == {"solve", "compile", "ilp-solve"}
        for event in complete:
            assert event["dur"] >= 0 and {"ts", "pid", "tid"} <= set(event)
        assert any(e["name"] == "thread_name" for e in meta)
        solve = next(e for e in complete if e["name"] == "solve")
        assert solve["args"]["strategy"] == "checkmate_ilp"

    def test_span_tree_round_trip(self, tracer):
        spans = self._sample_trace(tracer)
        tree = json.loads(json.dumps(span_tree(spans)))
        assert [node["name"] for node in tree] == ["solve"]
        assert [c["name"] for c in tree[0]["children"]] == ["compile",
                                                            "ilp-solve"]
        rebuilt = spans_from_tree(tree, trace_id="remote")
        assert [(s.name, s.parent_id) for s in rebuilt] == \
            [(s.name, s.parent_id) for s in spans]
        for original, copy in zip(spans, rebuilt):
            assert copy.duration_s == pytest.approx(original.duration_s)
        # The rebuilt spans drive the same renderers as local ones.
        assert "solve" in format_waterfall(rebuilt)
        assert len(chrome_trace(rebuilt)["traceEvents"]) >= 3

    def test_orphan_spans_degrade_to_roots(self):
        orphan = [("child", "t", 7, 99, 0.0, 1.0, 0, "m", None)]
        store = TraceStore()
        store.add_many(orphan)
        tree = span_tree(store.spans("t"))
        assert [n["name"] for n in tree] == ["child"]


# --------------------------------------------------------------------------- #
# Histogram quantile estimates
# --------------------------------------------------------------------------- #
class TestHistogramQuantile:
    BUCKETS = (0.001, 0.01, 0.1, 1.0)

    def test_empty_returns_none(self):
        hist = Histogram("h", labelnames=("key",), buckets=self.BUCKETS)
        assert hist.quantile(0.5, key="a") is None
        with pytest.raises(ValueError):
            hist.quantile(1.5, key="a")

    def test_single_observation_interpolates_inside_its_bucket(self):
        hist = Histogram("h", buckets=self.BUCKETS)
        hist.observe(0.05)
        assert hist.quantile(0.0) == pytest.approx(0.01)
        assert hist.quantile(0.5) == pytest.approx(0.055)
        assert hist.quantile(1.0) == pytest.approx(0.1)

    def test_value_beyond_last_finite_bucket(self):
        hist = Histogram("h", buckets=self.BUCKETS)
        hist.observe(0.005)
        hist.observe(7.0)
        assert hist.quantile(0.99) == pytest.approx(1.0)  # last finite bound
        assert hist.quantile(0.25) == pytest.approx(0.0055)

    def test_monotone_and_inside_the_nearest_rank_bucket(self):
        rng = random.Random(7)
        values = sorted(rng.lognormvariate(-4.0, 2.0) for _ in range(257))
        hist = Histogram("h")
        for value in values:
            hist.observe(value)
        bounds = (0.0,) + hist.buckets + (math.inf,)
        previous = -math.inf
        for step in range(101):
            q = step / 100
            estimate = hist.quantile(q)
            assert estimate >= previous
            previous = estimate
            true = values[max(0, math.ceil(q * len(values)) - 1)]
            upper = next(i for i, b in enumerate(bounds) if true <= b)
            assert bounds[upper - 1] <= estimate <= bounds[upper]
