"""serve-hot-http: real HTTP against a ``repro-cli serve`` subprocess."""

from __future__ import annotations

import itertools
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
from hostclock import HostClock, Ticker
from inputs import GRAPH_N, GRAPH_NAME, GRAPH_SPEC
from measure import cpu_seconds, median_setup, pct, peak_rss_mb, share
from serving import (
    MONTE_CARLO_3K,
    Op,
    check_answers,
    latency_stats,
    probe_conductance,
    serving_layers,
)
from spans import SpanLog, ledger_metrics

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"

INDEX_ARGS = ("--hubs", str(inputs.HOT_HUBS), "--walks", "2000", "--t", "5")
BOOT_REPEATS = 3
BOOT_TIMEOUT_SECONDS = 120.0
CONNECTIONS = 2
WARM_HUBS = 1024
PROBES = 32
REQUEST_TIMEOUT_SECONDS = 30.0
TRACE_RING = 1_000_000


def child_env() -> dict:
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Connection:
    """One HTTP/1.1 connection; each request goes out in a single sendall."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_SECONDS)
        self.reader = self.sock.makefile("rb")

    def request(self, method: str, path: str, payload=None, headers=()) -> tuple[int, bytes]:
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            + "".join(f"{key}: {value}\r\n" for key, value in headers)
            + "\r\n"
        )
        self.sock.sendall(head.encode("ascii") + body)
        status = int(self.reader.readline().split()[1])
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            if key.strip().lower() == "content-length":
                length = int(value)
        return status, self.reader.read(length)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def one_shot(port: int, method: str, path: str, payload=None) -> tuple[int, bytes]:
    """A request on a fresh connection, closed after the response."""
    connection = Connection(port)
    try:
        return connection.request(method, path, payload, headers=[("Connection", "close")])
    finally:
        connection.close()


class Server:
    """A ``repro-cli serve`` subprocess, up once ``/healthz`` answers 200."""

    def __init__(self, command: list[str], log_path: Path) -> None:
        started = time.perf_counter()
        self.log_path = log_path
        with open(log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=child_env(),
            )
        try:
            self.port = self._wait_for_port(started)
            while True:
                try:
                    if one_shot(self.port, "GET", "/healthz")[0] == 200:
                        break
                except OSError:
                    pass
                self._check_alive(started)
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def _check_alive(self, started: float) -> None:
        if self.process.poll() is not None:
            raise RuntimeError(f"server exited ({self.process.returncode}); see {self.log_path}")
        if time.perf_counter() - started > BOOT_TIMEOUT_SECONDS:
            raise RuntimeError(f"server did not come up; see {self.log_path}")

    def _wait_for_port(self, started: float) -> int:
        while True:
            match = re.search(rb"listening on\s*: http://[\d.]+:(\d+)", self.log_path.read_bytes())
            if match:
                return int(match.group(1))
            self._check_alive(started)
            time.sleep(0.01)

    def get_json(self, path: str) -> dict:
        status, body = one_shot(self.port, "GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}")
        return json.loads(body)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def serve_command(index_path: Path, spans_path: Path | None) -> list[str]:
    args = [
        "--generate", GRAPH_SPEC, "--graph-name", GRAPH_NAME, "--index", str(index_path),
        "--host", "127.0.0.1", "--port", "0",
    ]
    if spans_path is None:
        return [sys.executable, "-m", "repro.cli", "serve", *args]
    return [
        sys.executable, str(HERE / "traced_serve.py"), str(spans_path),
        *args, "--trace-ring", str(TRACE_RING),
    ]


def setup(work_dir: Path, clock: HostClock) -> tuple[Path, float, float, Server]:
    """Build the index, then boot the server ``BOOT_REPEATS`` times and keep
    the last one running; returns the index build time and the median boot
    time until ``/healthz`` answers 200, in reference seconds."""
    index_path = work_dir / "bench-100k.rwix"

    def build_index() -> None:
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "index", "build", "--generate", GRAPH_SPEC,
             *INDEX_ARGS, "-o", str(index_path)],
            check=True, stdout=subprocess.DEVNULL, env=child_env(),
        )

    _, index_seconds = median_setup(build_index, 1, clock)
    server, boot_seconds = median_setup(
        lambda: Server(serve_command(index_path, None), work_dir / "server.log"),
        BOOT_REPEATS, clock, discard=Server.stop,
    )
    return index_path, index_seconds, boot_seconds, server


def warm_up(port: int, hubs) -> None:
    """One request per top hub in rank order, on fresh connections (a fresh
    connection avoids the keep-alive round-trip floor, so this stays short)."""
    queue = iter(list(hubs[:WARM_HUBS]))
    lock = threading.Lock()
    method, params = MONTE_CARLO_3K

    def worker():
        while True:
            with lock:
                node = next(queue, None)
            if node is None:
                return
            payload = {"graph": GRAPH_NAME, "method": method, "seed_node": int(node), "params": params}
            status, _ = one_shot(port, "POST", "/query", payload)
            if status != 200:
                raise RuntimeError(f"warm-up query for {node} -> {status}")

    run_threads(worker)


def run_threads(target) -> None:
    errors = []

    def guarded():
        try:
            target()
        except Exception as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [threading.Thread(target=guarded) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def closed_loop(port: int, seeds, seconds: float) -> list[Op]:
    """``CONNECTIONS`` keep-alive clients, each sending its next request as
    soon as the previous answer arrives, until ``seconds`` have passed."""
    method, params = MONTE_CARLO_3K
    ops: list[Op] = []
    rids = itertools.count()
    lock = threading.Lock()
    end = time.perf_counter() + seconds

    def client():
        connection = Connection(port)
        try:
            while time.perf_counter() < end:
                with lock:
                    rid, node = next(rids), next(seeds)
                op = Op(method, node, params, rid=rid)
                payload = {"graph": GRAPH_NAME, "method": method, "seed_node": op.seed, "params": params}
                op.due = op.sent = time.perf_counter()
                try:
                    status, body = connection.request(
                        "POST", "/query", payload, headers=[("X-Request-Id", rid)]
                    )
                except OSError as error:
                    op.done, op.error = time.perf_counter(), type(error).__name__
                    ops.append(op)
                    connection.close()
                    connection = Connection(port)
                    continue
                op.done = time.perf_counter()
                if status == 200:
                    op.answer = json.loads(body)
                else:
                    op.error = str(status)
                ops.append(op)
        finally:
            connection.close()

    run_threads(client)
    return sorted(ops, key=lambda op: op.rid)


def ranking_over_http(port: int, node: int, rng: int) -> list[int]:
    """The full node ranking of one pinned answer, read from ``top``."""
    method, params = MONTE_CARLO_3K
    payload = {
        "graph": GRAPH_NAME, "method": method, "seed_node": node,
        "params": params, "rng": rng, "top_k": GRAPH_N,
    }
    status, body = one_shot(port, "POST", "/query", payload)
    if status != 200:
        raise RuntimeError(f"probe for {node} -> {status}")
    return [int(entry[0]) for entry in json.loads(body)["top"]]


def measured_pass(server: Server, hubs, seeds, seconds: float, clock: HostClock) -> dict:
    """Warm-up, then the closed loop; the server's CPU time over the loop
    and the array factor this process read meanwhile on the same host."""
    warm_up(server.port, hubs)
    with Ticker(clock) as ticker:
        cpu = cpu_seconds(server.process.pid)
        ops = closed_loop(server.port, seeds, seconds)
        cpu = cpu_seconds(server.process.pid) - cpu
    return {"ops": ops, "cpu_seconds": cpu, "host_factor": ticker.factor}


def traced_layers(
    index_path: Path, hubs, seeds, seconds: float, work_dir: Path, clock: HostClock,
) -> dict:
    """Per-layer metrics from a second, traced server on the same index."""
    spans_path = work_dir / "server-spans.jsonl"
    server = Server(serve_command(index_path, spans_path), work_dir / "server-traced.log")
    try:
        run = measured_pass(server, hubs, seeds, seconds, clock)
        program_traces = server.get_json(f"/trace/recent?n={TRACE_RING}")["traces"]
        index_stats = server.get_json("/stats")["index"]
    finally:
        server.stop()
    log = SpanLog.load(spans_path)
    ops = run["ops"]
    return {
        **serving_layers(log, program_traces, ops),
        **ledger_metrics(log, {op.rid: (op.sent, op.done) for op in ops if op.answer is not None}),
        "service.rejected_share": share(sum(op.error == "429" for op in ops), len(ops)),
        "index.hit_share": index_stats["hit_rate"],
        "traced_p50": latency_stats(ops, seconds)["p50"],
    }


def serve_hot_http(seed: int, seconds: float, traced: bool, work_dir: Path, clock: HostClock) -> dict:
    from repro.index.builder import select_hubs
    from repro.service.registry import build_from_spec

    graph = build_from_spec(GRAPH_SPEC)
    inputs.check_graph(graph)
    hubs = select_hubs(graph, inputs.HOT_HUBS)
    panel = inputs.hot_seeds(hubs, GRAPH_N, PROBES, inputs.rng_for(inputs.PANEL_SEED, 2))

    def seeds():
        return inputs.hot_seed_stream(hubs, GRAPH_N, inputs.rng_for(seed, 50))

    index_path, index_seconds, boot_seconds, server = setup(work_dir, clock)
    try:
        try:
            run = measured_pass(server, hubs, seeds(), seconds, clock)
            rss = peak_rss_mb(server.process.pid)
            conductance = probe_conductance(
                graph, panel, lambda node, rng: ranking_over_http(server.port, node, rng),
            )
            graph_build_s = server.get_json("/graphs")["graphs"][0]["load_seconds"]
        finally:
            server.stop()
        layers = traced_layers(index_path, hubs, seeds(), seconds, work_dir, clock) if traced else None
    finally:
        index_path.unlink(missing_ok=True)

    ops = run["ops"]
    stats = latency_stats(ops, seconds)
    answered = len(ops) - stats["failed"]
    cpu_ms = run["cpu_seconds"] * 1000.0 / max(answered, 1)
    ok, detail = check_answers(ops)
    result = {
        "attempted": len(ops),
        "failed": stats["failed"],
        "checks": {"answers": (ok, detail)},
        "e2e": {
            "setup_s": index_seconds + boot_seconds,
            "rss_peak_mb": rss,
            "success_share": share(answered, len(ops)),
            "latency_ms_p50": stats["p50"],
            "latency_ms_p90": stats["p90"],
            "cpu_ms_per_query": cpu_ms / run["host_factor"],
            "conductance_mean": conductance,
            "throughput_qps": stats["throughput"],
        },
        "details": {
            "index_build_s": index_seconds, "boot_s": boot_seconds,
            "cpu_ms_per_query_measured": cpu_ms, "host_factor": run["host_factor"],
        },
    }
    if layers is not None:
        overhead = [op.latency_ms - op.answer["latency_ms"] for op in ops if op.answer is not None]
        traced_p50 = layers.pop("traced_p50")
        result["layers"] = {
            **layers,
            "http.overhead_ms_p50": pct(overhead, 50),
            "http.overhead_ms_p99": pct(overhead, 99),
            "setup.graph_build_s": graph_build_s,
            "setup.index_build_s": index_seconds,
            "setup.server_boot_s": boot_seconds,
            "trace.overhead_share": traced_p50 / stats["p50"] - 1.0,
        }
    return result
