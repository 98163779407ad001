"""Tests for the observability layer (:mod:`repro.obs`).

Covers the metrics registry (labeled families, thread-safety, the strict
Prometheus text-exposition grammar), per-query span tracing through the
service (phase decomposition, the 504 deadline path, the slow-query JSONL
log), the engine profiling hooks, and the ``repro-cli trace summarize``
command.
"""

from __future__ import annotations

import json
import math
import re
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.exceptions import (
    ParameterError,
    QueryTimeoutError,
    ServiceOverloadedError,
)
from repro.obs.metrics import (
    CONTENT_TYPE,
    MetricsRegistry,
    format_value,
    global_registry,
    use_registry,
)
from repro.obs.trace import QueryTrace, TraceRecorder, load_jsonl, summarize
from repro.service import GraphRegistry, QueryService


@pytest.fixture(autouse=True)
def _obs_on():
    """Force observability on for every test here, restore env control after."""
    obs.set_obs_enabled(True)
    yield
    obs.set_obs_enabled(None)


@pytest.fixture
def registry(tiny_grid):
    reg = GraphRegistry()
    reg.add_graph("grid", tiny_grid)
    return reg


@pytest.fixture
def service(registry):
    with QueryService(registry, max_batch=8) as svc:
        yield svc


# ---------------------------------------------------------------------------
# A strict parser for the Prometheus text exposition format (version 0.0.4).
# ---------------------------------------------------------------------------

_HELP_RE = re.compile(r"^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) (.*)$")
_TYPE_RE = re.compile(
    r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$"
)
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"          # metric name
    r"(?:\{((?:[^{}\"]|\"(?:[^\"\\]|\\.)*\")*)\})?"  # optional label block
    r" (-?(?:\d+(?:\.\d+)?(?:e[+-]?\d+)?|\+?Inf|NaN))$",  # value
    re.IGNORECASE,
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape(value: str) -> str:
    return (
        value.replace("\\\\", "\x00")
        .replace('\\"', '"')
        .replace("\\n", "\n")
        .replace("\x00", "\\")
    )


def parse_exposition(text: str):
    """Parse an exposition body strictly; assert the grammar holds.

    Returns ``(types, samples)`` where ``types`` maps family name -> type
    and ``samples`` is a list of ``(name, labels_dict, float_value)``.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    types: dict[str, str] = {}
    helps: dict[str, str] = {}
    samples: list[tuple[str, dict, float]] = []
    for line in text.split("\n")[:-1]:
        assert line, f"blank line in exposition: {text!r}"
        if line.startswith("# HELP "):
            match = _HELP_RE.match(line)
            assert match, f"malformed HELP line: {line!r}"
            assert match.group(1) not in helps, f"duplicate HELP: {line!r}"
            helps[match.group(1)] = match.group(2)
        elif line.startswith("# TYPE "):
            match = _TYPE_RE.match(line)
            assert match, f"malformed TYPE line: {line!r}"
            name = match.group(1)
            assert name not in types, f"duplicate TYPE for {name}"
            assert name in helps, f"TYPE before HELP for {name}"
            types[name] = match.group(2)
        else:
            match = _SAMPLE_RE.match(line)
            assert match, f"malformed sample line: {line!r}"
            name, label_block, raw_value = match.groups()
            labels: dict[str, str] = {}
            if label_block:
                consumed = 0
                for pair in _LABEL_RE.finditer(label_block):
                    labels[pair.group(1)] = _unescape(pair.group(2))
                    consumed = pair.end()
                rest = label_block[consumed:].strip(", ")
                assert not rest, f"trailing junk in label block: {line!r}"
            samples.append((name, labels, float(raw_value)))
    # Every sample must belong to a declared family, honouring the
    # histogram suffix conventions.
    for name, labels, _ in samples:
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and types.get(base) == "histogram":
                family = base
                if suffix == "_bucket":
                    assert "le" in labels, f"_bucket sample without le: {name}"
                break
        assert family in types, f"sample {name} has no TYPE declaration"
        if types[family] == "counter":
            assert name.endswith("_total"), f"counter {name} must end in _total"
    return types, samples


def _histogram_series(samples, family, **labels):
    """Extract one labeled histogram child: (bucket dict, sum, count)."""
    buckets: dict[str, float] = {}
    total = count = None
    for name, sample_labels, value in samples:
        rest = {k: v for k, v in sample_labels.items() if k != "le"}
        if rest != labels:
            continue
        if name == f"{family}_bucket":
            buckets[sample_labels["le"]] = value
        elif name == f"{family}_sum":
            total = value
        elif name == f"{family}_count":
            count = value
    return buckets, total, count


class TestMetricsPrimitives:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        counter = reg.counter("events_total", "Events.", ("kind",))
        counter.labels(kind="a").inc()
        counter.labels(kind="a").inc(2.0)
        counter.labels(kind="b").inc()
        assert counter.sum_matching(kind="a") == 3.0
        assert counter.sum_matching() == 4.0
        gauge = reg.gauge("level", "Level.")
        gauge.child().set(5.0)
        gauge.child().dec(1.5)
        assert gauge.sum_matching() == 3.5
        with pytest.raises(ParameterError, match="only go up"):
            counter.labels(kind="a").inc(-1.0)

    def test_name_and_type_validation(self):
        reg = MetricsRegistry()
        with pytest.raises(ParameterError, match="_total"):
            reg.counter("events", "Counters must end in _total.")
        with pytest.raises(ParameterError):
            reg.gauge("2bad", "Names must match the metric regex.")
        with pytest.raises(ParameterError):
            reg.histogram("x_bucket", "Histogram suffixes are reserved.")
        reg.gauge("thing", "One type per name.")
        with pytest.raises(ParameterError, match="already registered"):
            reg.counter("thing_total", "ok")  # different name is fine
            reg.histogram("thing", "same name, different type")

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.child().observe(value)
        cumulative, total, count = hist.child().snapshot()
        assert cumulative == [1, 3, 4]  # le=0.1, le=1.0, le=+Inf
        assert count == 4
        assert total == pytest.approx(6.05)

    def test_concurrent_histogram_observes(self):
        reg = MetricsRegistry()
        hist = reg.histogram("work_seconds", "Work.", ("worker",))
        per_thread, threads = 2_000, 8

        def worker(i):
            child = hist.labels(worker=str(i % 2))
            for j in range(per_thread):
                child.observe(0.001 * (j % 50))

        pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert hist.sum_matching() == per_thread * threads  # count, not sum
        _, samples = parse_exposition(reg.render())
        for label in ("0", "1"):
            buckets, _, count = _histogram_series(
                samples, "work_seconds", worker=label
            )
            assert count == per_thread * threads / 2
            assert buckets["+Inf"] == count
            # Cumulative monotone non-decreasing in le order.
            ordered = sorted(
                buckets.items(),
                key=lambda kv: float("inf") if kv[0] == "+Inf" else float(kv[0]),
            )
            values = [v for _, v in ordered]
            assert values == sorted(values)

    def test_label_escaping_round_trips(self):
        reg = MetricsRegistry()
        nasty = 'a\\b"c\nd'
        reg.counter("odd_total", "Odd labels.", ("path",)).labels(path=nasty).inc()
        types, samples = parse_exposition(reg.render())
        assert types["odd_total"] == "counter"
        (sample,) = [s for s in samples if s[0] == "odd_total"]
        assert sample[1] == {"path": nasty}
        assert sample[2] == 1.0

    def test_format_value(self):
        assert format_value(3.0) == "3"
        assert format_value(3.5) == "3.5"
        assert format_value(math.inf) == "+Inf"
        assert format_value(-math.inf) == "-Inf"

    def test_collector_and_registry_views(self):
        reg = MetricsRegistry()
        from repro.obs.metrics import MetricFamily, Sample

        reg.register_collector(
            lambda: [
                MetricFamily(
                    "custom_gauge", "gauge", "From a collector.",
                    [Sample("custom_gauge", {"g": "x"}, 7.0)],
                )
            ]
        )
        types, samples = parse_exposition(reg.render())
        assert types["custom_gauge"] == "gauge"
        assert ("custom_gauge", {"g": "x"}, 7.0) in samples

    def test_active_registry_contextvar(self):
        reg = MetricsRegistry()
        assert obs.active_registry() is global_registry()
        with use_registry(reg):
            assert obs.active_registry() is reg
        assert obs.active_registry() is global_registry()


class TestEngineProfilingHooks:
    def test_profile_kernel_records_everywhere(self, tiny_grid):
        from repro.engine.vectorized import VectorizedBackend
        from repro.utils.counters import OperationCounters

        reg = MetricsRegistry()
        counters = OperationCounters()
        backend = VectorizedBackend()
        with use_registry(reg):
            backend.geometric_walk_batch(
                tiny_grid,
                np.zeros(64, dtype=np.int64),
                0.2,
                np.random.default_rng(0),
                counters=counters,
            )
        assert counters.extras["kernel_seconds"] > 0.0
        _, samples = parse_exposition(reg.render())
        buckets, total, count = _histogram_series(
            samples, "kernel_seconds", backend="vectorized", kind="geometric"
        )
        assert count == 1 and total > 0.0
        walks = [
            s for s in samples
            if s[0] == "kernel_walks_total" and s[1]["kind"] == "geometric"
        ]
        assert walks and walks[0][2] == 64.0

    def test_disabled_obs_is_a_noop(self, tiny_grid):
        from repro.engine.vectorized import VectorizedBackend
        from repro.utils.counters import OperationCounters

        reg = MetricsRegistry()
        counters = OperationCounters()
        with obs.obs_disabled(), use_registry(reg):
            assert not obs.enabled()
            VectorizedBackend().geometric_walk_batch(
                tiny_grid,
                np.zeros(16, dtype=np.int64),
                0.2,
                np.random.default_rng(0),
                counters=counters,
            )
        assert "kernel_seconds" not in counters.extras
        assert reg.render() == ""
        assert obs.enabled()  # the context restored the previous override

    def test_env_var_disables(self, monkeypatch):
        obs.set_obs_enabled(None)  # hand control back to the env var
        monkeypatch.setenv(obs.DISABLE_ENV_VAR, "1")
        assert not obs.enabled()
        monkeypatch.setenv(obs.DISABLE_ENV_VAR, "0")
        assert obs.enabled()


class TestServiceMetrics:
    def test_stats_gains_cache_and_rate_fields(self, service):
        service.query("grid", "monte-carlo", 0, {"num_walks": 200})
        service.query("grid", "monte-carlo", 0, {"num_walks": 200})  # cache hit
        stats = service.stats()
        assert stats["cache_hits_total"] == 1
        assert stats["cache_hit_rate"] == pytest.approx(0.5)
        assert stats["requests_per_second"] > 0.0
        assert stats["observability"]["enabled"] is True
        assert stats["queue"]["batcher"]["cycles"] >= 1
        assert json.dumps(stats)

    def test_exposition_is_strictly_parseable(self, service):
        for seed in range(4):
            service.query("grid", "monte-carlo", seed, {"num_walks": 500})
        text = service.render_metrics()
        types, samples = parse_exposition(text)
        assert types["queries_total"] == "counter"
        assert types["query_latency_seconds"] == "histogram"
        assert types["kernel_seconds"] == "histogram"
        assert types["service_uptime_seconds"] == "gauge"
        assert types["process_peak_resident_bytes"] == "gauge"
        (peak,) = [
            value for name, _, value in samples
            if name == "process_peak_resident_bytes"
        ]
        assert peak >= 2**20  # bytes: ru_maxrss in KiB would read far less
        ok = [
            s for s in samples
            if s[0] == "queries_total"
            and s[1] == {"method": "monte-carlo", "graph": "grid", "outcome": "ok"}
        ]
        assert ok and ok[0][2] == 4.0
        latency_count = sum(
            value for name, labels, value in samples
            if name == "query_latency_seconds_count"
        )
        assert latency_count >= 4
        kernel_sum = sum(
            value for name, _, value in samples if name == "kernel_seconds_sum"
        )
        assert kernel_sum > 0.0

    def test_timeout_is_labeled(self, registry):
        with QueryService(registry, max_batch=4) as service:
            with pytest.raises(QueryTimeoutError):
                service.query(
                    "grid", "monte-carlo", 0, {"num_walks": 200}, timeout_ms=0.01
                )
            _, samples = parse_exposition(service.render_metrics())
            timeouts = [
                s for s in samples
                if s[0] == "queries_total" and s[1].get("outcome") == "timeout"
            ]
            assert timeouts and timeouts[0][2] == 1.0

    def test_stats_and_metrics_agree(self, registry):
        """One request per terminal outcome: each ``/stats`` total is its
        ``queries_total`` sum, and the walk and batch counts are the
        ``/metrics`` series."""
        with QueryService(
            registry, max_batch=4, max_inflight_walks=10_000
        ) as service:
            service.query("grid", "monte-carlo", 0, {"num_walks": 200})
            assert service.query(
                "grid", "monte-carlo", 0, {"num_walks": 200}
            ).cached
            with pytest.raises(ParameterError):  # the plan builder refuses
                service.query("grid", "cluster-hkpr", 0)
            with pytest.raises(QueryTimeoutError):
                service.query(
                    "grid", "monte-carlo", 1, {"num_walks": 200}, timeout_ms=0.01
                )
            with pytest.raises(ServiceOverloadedError):  # over the walk budget
                service.submit("grid", "monte-carlo", 2, {"num_walks": 20_000})
            stats = service.stats()
            _, samples = parse_exposition(service.render_metrics())

        def scraped(name, **labels):
            return sum(
                value for sample, sample_labels, value in samples
                if sample == name
                and all(sample_labels.get(k) == v for k, v in labels.items())
            )

        outcomes = {
            outcome: scraped("queries_total", outcome=outcome)
            for outcome in ("ok", "cached", "error", "timeout", "rejected")
        }
        assert outcomes == dict.fromkeys(outcomes, 1.0)
        assert stats["requests_total"] == outcomes["ok"] + outcomes["cached"]
        assert stats["cache_hits_total"] == outcomes["cached"]
        assert stats["errors_total"] == outcomes["error"]
        assert stats["timeouts_total"] == outcomes["timeout"]
        assert stats["rejected_total"] == outcomes["rejected"]
        assert stats["walks"]["total"] == scraped("service_walks_total") == 200
        cycles = stats["queue"]["batcher"]["cycles"]
        assert cycles >= 1
        assert cycles == scraped("service_batches_total")

    def test_index_metrics_via_walk_index(self, registry):
        from repro.index import build_walk_index

        entry = registry.get("grid")
        index = build_walk_index(
            entry.graph, hubs=[0], walks_per_sketch=500, t_values=(5.0,), rng=0,
        )
        registry.attach_index("grid", index)
        assert index.metrics_label == "grid"
        with QueryService(registry, max_batch=4) as service:
            service.query("grid", "monte-carlo", 0, {"num_walks": 200, "t": 5.0})
            _, samples = parse_exposition(service.render_metrics())
            hits = [
                s for s in samples
                if s[0] == "index_hits_total" and s[1] == {"graph": "grid"}
            ]
            assert hits and hits[0][2] >= 1.0
            served = [
                s for s in samples if s[0] == "index_walks_served_total"
            ]
            assert served and served[0][2] > 0.0


class TestTracing:
    @pytest.mark.parametrize(
        "graph, method, params",
        [
            ("grid", "monte-carlo", {"num_walks": 100_000}),
            # A push of a few ms that still leaves walks: its plan (on the
            # submitting thread) and its queue wait must not overlap.
            ("dblp-sim", "tea", {"t": 10.0, "max_walks": 20_000}),
        ],
        ids=["monte-carlo", "tea"],
    )
    def test_phases_decompose_latency(self, registry, graph, method, params):
        if graph not in registry:
            registry.add_dataset(graph)
        with QueryService(registry, max_batch=4) as service:
            response = service.query(graph, method, 0, params)
            (trace,) = service.recent_traces(1)
        assert response.result.counters.random_walks > 0
        assert trace["outcome"] == "ok"
        assert trace["method"] == method
        assert trace["graph"] == graph
        names = [span["name"] for span in trace["spans"]]
        for phase in ("queue_wait", "plan", "kernel", "finalize"):
            assert phase in names, f"missing {phase} in {names}"
        top_level = sum(
            span["duration_ms"] for span in trace["spans"]
            if span["name"] in ("queue_wait", "plan", "kernel", "finalize")
        )
        assert top_level <= trace["latency_ms"] + 0.5
        assert top_level >= 0.9 * trace["latency_ms"], (
            f"phases sum to {top_level}ms of {trace['latency_ms']}ms"
        )

    def test_timeout_trace_has_deadline_hit_span(self, registry):
        with QueryService(registry, max_batch=4) as service:
            with pytest.raises(QueryTimeoutError):
                service.query(
                    "grid", "monte-carlo", 0, {"num_walks": 200}, timeout_ms=0.01
                )
            (trace,) = service.recent_traces(1)
        assert trace["outcome"] == "timeout"
        markers = [
            span for span in trace["spans"] if span["name"] == "deadline_hit"
        ]
        assert markers, f"no deadline_hit span in {trace['spans']}"
        assert markers[0]["attributes"]["timeout_ms"] == 0.01

    def test_cache_hits_skip_the_trace_ring(self, service):
        service.query("grid", "monte-carlo", 1, {"num_walks": 100})
        before = service.tracer.stats()["recorded_total"]
        service.query("grid", "monte-carlo", 1, {"num_walks": 100})  # cached
        assert service.tracer.stats()["recorded_total"] == before

    def test_slow_query_jsonl_log(self, registry, tmp_path):
        log_path = tmp_path / "slow.jsonl"
        with QueryService(
            registry, max_batch=4, slow_query_ms=0.0001,
            slow_query_log=str(log_path),
        ) as service:
            service.query("grid", "monte-carlo", 0, {"num_walks": 1_000})
        records = load_jsonl(log_path)
        assert len(records) == 1
        assert records[0]["method"] == "monte-carlo"
        assert any(span["name"] == "kernel" for span in records[0]["spans"])

    @pytest.mark.parametrize("sink", ["file", "stderr"])
    def test_a_restarted_service_writes_slow_queries_again(
        self, registry, tmp_path, capsys, sink
    ):
        log_path = tmp_path / "slow.jsonl"
        service = QueryService(
            registry, max_batch=4, cache_entries=0, slow_query_ms=0.0,
            slow_query_log=str(log_path) if sink == "file" else None,
        )
        for seed in (0, 1):  # start, query, stop; twice
            with service:
                service.query("grid", "monte-carlo", seed, {"num_walks": 100})
        if sink == "file":
            records = load_jsonl(log_path)
        else:
            records = [
                json.loads(line)
                for line in capsys.readouterr().err.splitlines()
                if line.startswith("{")
            ]
        assert service.tracer.stats()["slow_total"] == 2
        assert [record["seed_node"] for record in records] == [0, 1]

    def test_ring_is_bounded_and_newest_first(self, registry):
        with QueryService(registry, max_batch=4, trace_capacity=3) as service:
            for seed in range(5):
                service.query("grid", "monte-carlo", seed, {"num_walks": 50})
            traces = service.recent_traces()
        assert len(traces) == 3
        seeds = [trace["seed_node"] for trace in traces]
        assert seeds == sorted(seeds, reverse=True)

    def test_disabled_obs_records_no_traces(self, registry):
        with obs.obs_disabled():
            with QueryService(registry, max_batch=4) as service:
                service.query("grid", "monte-carlo", 0, {"num_walks": 100})
                assert service.recent_traces() == []
                # Request counts go on without tracing.
                assert service.stats()["requests_total"] == 1

    def test_span_scope_and_summarize(self):
        trace = QueryTrace(graph="g", method="m", seed_node=1)
        with trace.span("plan") as scope:
            scope.set(push_operations=9)
        record = trace.finish("ok", latency_ms=1.0)
        assert record["spans"][0]["attributes"]["push_operations"] == 9
        summary = summarize([record])
        assert summary["traces"] == 1
        assert "plan" in summary["phases"]

    def test_recorder_close_is_idempotent(self, tmp_path):
        recorder = TraceRecorder(
            capacity=4, slow_query_ms=0.0, slow_query_log=str(tmp_path / "s.jsonl")
        )
        recorder.record({"trace_id": 1, "latency_ms": 5.0, "spans": []})
        recorder.close()
        recorder.close()


class TestHTTPEndpoints:
    @pytest.fixture
    def http_service(self, registry):
        from repro.service.http import serve_in_thread

        with QueryService(registry, max_batch=8) as svc:
            server, thread = serve_in_thread(svc, "127.0.0.1", 0)
            try:
                yield f"http://127.0.0.1:{server.server_address[1]}", svc
            finally:
                server.shutdown()
                server.server_close()

    def _post_query(self, base, payload):
        request = urllib.request.Request(
            f"{base}/query",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            return json.loads(response.read())

    def test_metrics_endpoint(self, http_service):
        base, _ = http_service
        self._post_query(
            base,
            {"graph": "grid", "method": "monte-carlo", "seed_node": 0,
             "params": {"num_walks": 500}},
        )
        with urllib.request.urlopen(f"{base}/metrics") as response:
            assert response.headers["Content-Type"] == CONTENT_TYPE
            body = response.read().decode()
        types, samples = parse_exposition(body)
        assert types["queries_total"] == "counter"
        assert any(name == "query_latency_seconds_count" for name, _, _ in samples)

    def test_metrics_endpoint_can_be_disabled(self, registry):
        from repro.service.http import serve_in_thread

        with QueryService(registry, max_batch=4) as svc:
            server, _ = serve_in_thread(svc, "127.0.0.1", 0, metrics_enabled=False)
            base = f"http://127.0.0.1:{server.server_address[1]}"
            try:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(f"{base}/metrics")
                assert excinfo.value.code == 404
            finally:
                server.shutdown()
                server.server_close()

    def test_trace_recent_endpoint(self, http_service):
        base, _ = http_service
        for seed in range(3):
            self._post_query(
                base,
                {"graph": "grid", "method": "monte-carlo", "seed_node": seed,
                 "params": {"num_walks": 100}},
            )
        with urllib.request.urlopen(f"{base}/trace/recent?n=2") as response:
            payload = json.loads(response.read())
        assert len(payload["traces"]) == 2
        assert all("spans" in trace for trace in payload["traces"])
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/trace/recent?n=zap")
        assert excinfo.value.code == 400


class TestTraceCLI:
    def test_summarize_text_and_json(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "traces.jsonl"
        record = {
            "trace_id": 1, "ts": 0.0, "graph": "g", "method": "monte-carlo",
            "seed_node": 2, "outcome": "ok", "latency_ms": 12.0,
            "spans": [
                {"name": "queue_wait", "start_ms": 0.0, "duration_ms": 1.0},
                {"name": "kernel", "start_ms": 1.0, "duration_ms": 10.0},
            ],
        }
        path.write_text(json.dumps(record) + "\nnot json\n")
        assert main(["trace", "summarize", str(path)]) == 0
        text = capsys.readouterr().out
        assert "traces          : 1" in text
        assert "kernel" in text
        assert main(["trace", "summarize", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["phases"]["kernel"]["share_of_latency"] == pytest.approx(
            10.0 / 12.0, abs=1e-3  # the summary rounds shares to 4 decimals
        )
