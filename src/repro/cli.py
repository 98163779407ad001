"""Command-line interface for local clustering queries and experiments.

The subcommands cover the workflows a downstream user needs without
writing Python:

* ``repro-cli cluster``  — one local clustering query on an edge-list file
  (or a named benchmark surrogate), printing the cluster and its statistics.
* ``repro-cli methods``  — list every estimation method in the unified
  registry (:mod:`repro.estimators`) with its family, capability flags,
  aliases and declarative parameter schema.
* ``repro-cli datasets`` — list the built-in benchmark surrogates with their
  Table-7 statistics.
* ``repro-cli backends`` — list the registered walk-execution backends
  (see :mod:`repro.engine`), the current default, and the effective walk
  worker count.
* ``repro-cli experiment`` — run one of the paper's experiments (figure2,
  figure3, ..., table8, ablation) at a configurable scale and print the
  result table.
* ``repro-cli serve`` — start the online query server (:mod:`repro.service`)
  on one or more graphs, exposing the JSON-over-HTTP API.
* ``repro-cli graph pack`` — convert an edge list (or a generated /
  built-in graph) into the mmap-able ``.rcsr`` binary CSR container
  (:mod:`repro.graph.binfmt`); ``repro-cli graph info`` inspects one.
* ``repro-cli index build`` — precompute a ``.rwix`` walk-sketch index
  (:mod:`repro.index`) for a graph's hub nodes, served via
  ``serve --index``; ``repro-cli index info`` inspects one.

Method names, parameter validation and help text for ``cluster`` are all
rendered from the estimator registry — the CLI keeps no method table.

Examples
--------
::

    python -m repro.cli methods
    python -m repro.cli datasets
    python -m repro.cli backends
    python -m repro.cli cluster --dataset dblp-sim --seed-node 42 --method tea+
    python -m repro.cli cluster --edge-list my_graph.txt --seed-node 7 --t 10
    python -m repro.cli cluster --dataset dblp-sim --seed-node 42 --method nibble \\
        --param steps=25 --param truncation=1e-5
    python -m repro.cli cluster --dataset dblp-sim --seed-node 42 --backend parallel
    python -m repro.cli experiment figure3 --datasets grid3d-sim --num-seeds 2
    python -m repro.cli graph pack --edge-list my_graph.txt -o my_graph.rcsr
    python -m repro.cli graph info my_graph.rcsr
    python -m repro.cli index build --binary my_graph.rcsr -o my_graph.rwix
    python -m repro.cli index info my_graph.rwix
    python -m repro.cli serve --binary my_graph.rcsr --index my_graph.rwix
    python -m repro.cli serve --dataset dblp-sim --port 8355
    python -m repro.cli serve --binary my_graph.rcsr --graph-name big
    python -m repro.cli serve --generate "chung-lu,n=100000,seed=11" --graph-name big
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from collections.abc import Sequence

from repro import estimators
from repro.bench import experiments as experiment_drivers
from repro.bench.datasets import DATASETS, dataset_statistics, load_dataset
from repro.bench.reporting import format_rows
from repro.clustering.local import local_cluster
from repro.engine import backend_descriptions, default_backend_name, get_backend
from repro.engine.parallel import WORKERS_ENV_VAR, ParallelBackend, default_worker_count
from repro.exceptions import ReproError
from repro.graph.io import load_edge_list
from repro.obs import DEFAULT_RING_CAPACITY
from repro.service.service import (
    DEFAULT_CACHE_ENTRIES,
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_INFLIGHT_WALKS,
    DEFAULT_MAX_PENDING,
    DEFAULT_QUERY_TIMEOUT_MS,
)

#: Experiment names accepted by the ``experiment`` subcommand.
EXPERIMENTS = {
    "table7": experiment_drivers.table7_statistics,
    "figure2": experiment_drivers.figure2_tuning_c,
    "figure3": experiment_drivers.figure3_tea_vs_teaplus,
    "figure4": experiment_drivers.figure4_time_quality,
    "figure5": experiment_drivers.figure5_memory,
    "figure6": experiment_drivers.figure6_ndcg,
    "figure7": experiment_drivers.figure7_density,
    "figure8_9": experiment_drivers.figure8_9_heat,
    "table8": experiment_drivers.table8_ground_truth,
    "ablation": experiment_drivers.ablation_tea_plus,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description="Heat kernel PageRank local clustering (TEA/TEA+ reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    cluster = subparsers.add_parser("cluster", help="run one local clustering query")
    source = cluster.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", choices=sorted(DATASETS), help="built-in surrogate dataset")
    source.add_argument("--edge-list", help="path to a whitespace-separated edge list")
    cluster.add_argument("--seed-node", type=int, required=True, help="seed node id")
    cluster.add_argument(
        "--method",
        default="tea+",
        metavar="METHOD",
        help=(
            "estimation method, by registry name or alias "
            f"(default tea+; one of: {', '.join(estimators.method_names(sweepable=True))}; "
            "see `repro-cli methods`)"
        ),
    )
    cluster.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "method-specific parameter (repeatable), validated against the "
            "method's declared schema, e.g. --param num_walks=20000"
        ),
    )
    try:
        backend_default = default_backend_name()
    except ReproError:
        # An invalid $REPRO_BACKEND must not crash parser construction; the
        # handler reports it through the normal error path when it matters.
        backend_default = "invalid $REPRO_BACKEND"
    cluster.add_argument(
        "--backend",
        default=None,
        help=(
            "walk execution engine for randomized estimators "
            f"(default: {backend_default}; see `repro-cli backends`)"
        ),
    )
    cluster.add_argument(
        "--t", type=float, default=None, help="heat constant (default 5)"
    )
    cluster.add_argument(
        "--eps-r", type=float, default=None, help="relative error bound (default 0.5)"
    )
    cluster.add_argument(
        "--delta", type=float, default=None, help="significance threshold (default 1/n)"
    )
    cluster.add_argument(
        "--p-f", type=float, default=None, help="failure probability (default 1e-6)"
    )
    cluster.add_argument("--rng", type=int, default=None, help="random seed")
    cluster.add_argument(
        "--max-members", type=int, default=20, help="cluster members to print (default 20)"
    )

    methods = subparsers.add_parser(
        "methods", help="list registered estimation methods and their parameters"
    )
    methods.add_argument(
        "--json", action="store_true",
        help="emit the registry as JSON (machine-readable; for CI/scripts)",
    )

    subparsers.add_parser("datasets", help="list built-in benchmark surrogates")

    subparsers.add_parser(
        "backends", help="list registered walk-execution backends"
    )

    serve = subparsers.add_parser(
        "serve", help="start the online HKPR/PPR query server"
    )
    serve.add_argument(
        "--dataset", action="append", default=[], choices=sorted(DATASETS),
        help="register a built-in surrogate dataset (repeatable)",
    )
    serve.add_argument(
        "--edge-list", action="append", default=[],
        help="register a graph from an edge-list file (repeatable)",
    )
    serve.add_argument(
        "--binary", action="append", default=[],
        help=(
            "register a packed .rcsr binary CSR graph, memory-mapped "
            "(repeatable; see `repro-cli graph pack`)"
        ),
    )
    serve.add_argument(
        "--generate", action="append", default=[], metavar="SPEC",
        help=(
            "register a generated graph, e.g. 'chung-lu,n=100000,gamma=2.5,"
            "seed=11' (repeatable; see repro.service.registry)"
        ),
    )
    serve.add_argument(
        "--graph-name", default=None,
        help="name for the registered graph (single-source servers only)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8355, help="bind port")
    serve.add_argument(
        "--backend", default=None,
        help="walk execution engine (default: process default)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=DEFAULT_MAX_BATCH,
        help="max queries fused into one dispatch cycle (default %(default)s)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=DEFAULT_MAX_PENDING,
        help="bounded queue size; beyond it requests get HTTP 429",
    )
    serve.add_argument(
        "--max-inflight-walks", type=int, default=DEFAULT_MAX_INFLIGHT_WALKS,
        help="admission cap on in-flight walks",
    )
    serve.add_argument(
        "--cache-size", type=int, default=DEFAULT_CACHE_ENTRIES,
        help="result cache entries (0 disables the cache)",
    )
    serve.add_argument(
        "--default-timeout-ms", type=float, default=DEFAULT_QUERY_TIMEOUT_MS,
        help="per-query deadline applied when a request carries no "
        "timeout_ms of its own; <= 0 disables the default "
        "(default %(default)g)",
    )
    serve.add_argument("--rng", type=int, default=None, help="batch RNG seed")
    serve.add_argument(
        "--index", action="append", default=[], metavar="[NAME=]PATH",
        help=(
            "attach a precomputed .rwix walk-sketch index (repeatable; "
            "see `repro-cli index build`).  PATH alone requires a single "
            "registered graph; NAME=PATH targets one of several"
        ),
    )
    serve.add_argument(
        "--metrics", action=argparse.BooleanOptionalAction, default=True,
        help="expose the Prometheus text exposition at GET /metrics "
        "(default on; --no-metrics disables the endpoint, not collection)",
    )
    serve.add_argument(
        "--slow-query-ms", type=float, default=1000.0,
        help="queries slower than this are appended to the slow-query "
        "JSONL log; <= 0 disables the log (default 1000)",
    )
    serve.add_argument(
        "--slow-query-log", default=None, metavar="PATH",
        help="slow-query JSONL destination (default: stderr)",
    )
    serve.add_argument(
        "--trace-ring", type=int, default=DEFAULT_RING_CAPACITY,
        help="recent query traces kept for GET /trace/recent "
        "(default %(default)s)",
    )
    serve.add_argument(
        "--disable-obs", action="store_true",
        help="turn off tracing and engine kernel profiling for this "
        "process; request counts in /stats and /metrics go on",
    )

    trace = subparsers.add_parser(
        "trace", help="inspect query traces (e.g. a slow-query JSONL log)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summarize = trace_sub.add_parser(
        "summarize",
        help="aggregate a trace JSONL file into per-phase latency shares",
    )
    trace_summarize.add_argument(
        "path", help="trace JSONL file (e.g. a --slow-query-log output)"
    )
    trace_summarize.add_argument(
        "--json", action="store_true",
        help="emit the summary as JSON (machine-readable; for CI/scripts)",
    )

    graph = subparsers.add_parser(
        "graph", help="pack / inspect binary CSR graph containers"
    )
    graph_sub = graph.add_subparsers(dest="graph_command", required=True)
    pack = graph_sub.add_parser(
        "pack",
        help="convert a graph to the mmap-able .rcsr binary CSR format",
    )
    pack_source = pack.add_mutually_exclusive_group(required=True)
    pack_source.add_argument(
        "--edge-list", help="path to a whitespace-separated edge list"
    )
    pack_source.add_argument(
        "--dataset", choices=sorted(DATASETS), help="built-in surrogate dataset"
    )
    pack_source.add_argument(
        "--generate", metavar="SPEC",
        help="generator spec, e.g. 'chung-lu,n=100000,seed=11'",
    )
    pack.add_argument(
        "--output", "-o", required=True, help="output .rcsr path"
    )
    info = graph_sub.add_parser(
        "info", help="print the header and sizes of an .rcsr container"
    )
    info.add_argument("path", help="path to an .rcsr file")
    info.add_argument(
        "--json", action="store_true",
        help="emit the summary as JSON (machine-readable; for CI/scripts)",
    )
    mutate = graph_sub.add_parser(
        "mutate",
        help=(
            "apply an edge mutation to a graph served by a running "
            "`repro-cli serve` instance (POST /graphs/<name>/edges)"
        ),
    )
    mutate.add_argument("name", help="registered graph name on the server")
    mutate.add_argument(
        "--add", action="append", default=[], metavar="U,V",
        help="edge to add, as two comma-separated node ids (repeatable)",
    )
    mutate.add_argument(
        "--remove", action="append", default=[], metavar="U,V",
        help="edge to remove, as two comma-separated node ids (repeatable)",
    )
    mutate.add_argument(
        "--url", default="http://127.0.0.1:8355",
        help="base URL of the running server (default http://127.0.0.1:8355)",
    )
    mutate.add_argument(
        "--json", action="store_true",
        help="emit the mutation summary as JSON (machine-readable)",
    )

    index = subparsers.add_parser(
        "index", help="build / inspect .rwix walk-sketch index containers"
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)
    index_build = index_sub.add_parser(
        "build",
        help=(
            "precompute walk-endpoint sketches for a graph's hub nodes and "
            "write the mmap-able .rwix container"
        ),
    )
    index_source = index_build.add_mutually_exclusive_group(required=True)
    index_source.add_argument(
        "--edge-list", help="path to a whitespace-separated edge list"
    )
    index_source.add_argument(
        "--dataset", choices=sorted(DATASETS), help="built-in surrogate dataset"
    )
    index_source.add_argument(
        "--generate", metavar="SPEC",
        help="generator spec, e.g. 'chung-lu,n=100000,seed=11'",
    )
    index_source.add_argument(
        "--binary", help="packed .rcsr graph (the usual pairing: pack, then index)"
    )
    index_build.add_argument(
        "--output", "-o", required=True, help="output .rwix path"
    )
    index_build.add_argument(
        "--hubs", type=int, default=64,
        help="number of top-degree hub nodes to index (default 64)",
    )
    index_build.add_argument(
        "--seeds", default=None, metavar="ID,ID,...",
        help="explicit comma-separated seed nodes to index (overrides --hubs)",
    )
    index_build.add_argument(
        "--walks", type=int, default=10_000,
        help="stored walks per (hub, bucket) sketch (default 10000)",
    )
    index_build.add_argument(
        "--t", type=float, action="append", default=[], metavar="T",
        help=(
            "heat-constant bucket for monte-carlo queries (repeatable; "
            "default: 5.0 unless only --alpha buckets are given)"
        ),
    )
    index_build.add_argument(
        "--alpha", type=float, action="append", default=[], metavar="ALPHA",
        help="restart-probability bucket for mc-ppr queries (repeatable)",
    )
    index_build.add_argument(
        "--rng", type=int, default=0,
        help="builder RNG seed (default 0, for reproducible builds)",
    )
    index_info = index_sub.add_parser(
        "info", help="print the header and sketch layout of an .rwix container"
    )
    index_info.add_argument("path", help="path to an .rwix file")
    index_info.add_argument(
        "--json", action="store_true",
        help="emit the summary as JSON (machine-readable; for CI/scripts)",
    )

    experiment = subparsers.add_parser(
        "experiment", help="run one of the paper's experiments"
    )
    experiment.add_argument("name", choices=sorted(EXPERIMENTS), help="experiment to run")
    experiment.add_argument(
        "--datasets", nargs="+", default=None, help="surrogate datasets to use"
    )
    experiment.add_argument(
        "--num-seeds", type=int, default=None, help="seed nodes per dataset"
    )
    experiment.add_argument("--rng", type=int, default=None, help="random seed")
    return parser


def _parse_cli_params(spec, raw_params: list[str]) -> dict:
    """Parse repeated ``--param key=value`` flags through the method's schema.

    The registry's declarative validation is the single code path: unknown
    keys, bad types and out-of-range values fail with the same messages the
    service and the library produce.
    """
    raw: dict = {}
    for item in raw_params:
        key, separator, value = item.partition("=")
        if not separator or not key:
            raise ReproError(
                f"--param expects KEY=VALUE, got {item!r}"
            )
        raw[key.strip()] = value.strip()
    return spec.validate_params(raw)


def _run_cluster(args: argparse.Namespace) -> int:
    # Validate eagerly so an unknown method or backend fails with the
    # registry's "expected one of [...]" message before any graph is
    # loaded, even for methods that would silently ignore the keyword.
    spec = estimators.resolve(args.method)
    if not spec.sweepable:
        raise ReproError(
            f"method {spec.name!r} does not produce a sweepable vector; "
            f"choose one of {sorted(estimators.method_names(sweepable=True))}"
        )
    if args.backend is not None:
        get_backend(args.backend)
    estimator_kwargs = _parse_cli_params(spec, args.param)

    if args.dataset:
        graph = load_dataset(args.dataset)
        source = args.dataset
    else:
        graph, _ = load_edge_list(args.edge_list)
        source = args.edge_list

    # The dedicated HKPR flags are the declared knobs of the same names:
    # only explicitly-set ones are acted on, so defaults stay single-sourced
    # in the schema, and they go through --param's validation and dispatch.
    explicit_flags = {
        name: value
        for name, value in {
            "t": args.t, "eps_r": args.eps_r,
            "delta": args.delta, "p_f": args.p_f,
        }.items()
        if value is not None
    }
    declared = spec.param_names()
    for name in explicit_flags:
        flag = "--" + name.replace("_", "-")
        # A knob set both ways is a contradiction, not a precedence question.
        if name in estimator_kwargs:
            raise ReproError(
                f"{name!r} was set by both {flag} and --param {name}=...; "
                f"use one"
            )
        if name not in declared:
            raise ReproError(
                f"{flag} does not apply to method {spec.name!r}; pass "
                f"its knobs with --param (allowed: {sorted(declared)})"
            )
    estimator_kwargs.update(spec.validate_params(explicit_flags))

    result = local_cluster(
        graph,
        args.seed_node,
        method=spec.name,
        rng=args.rng,
        estimator_kwargs=estimator_kwargs,
        backend=args.backend,
    )
    counters = result.hkpr.counters
    print(f"graph           : {source} (n={graph.num_nodes}, m={graph.num_edges})")
    print(f"seed node       : {args.seed_node} (degree {graph.degree(args.seed_node)})")
    print(f"method          : {result.method}")
    if "backend" in counters.extras:
        print(f"backend         : {counters.extras['backend']}")
    print(f"cluster size    : {result.size}")
    print(f"conductance     : {result.conductance:.4f}")
    print(f"query time      : {result.elapsed_seconds * 1000:.1f} ms")
    print(f"push operations : {counters.push_operations}")
    print(f"random walks    : {counters.random_walks}")
    members = sorted(result.cluster)[: args.max_members]
    suffix = " ..." if result.size > args.max_members else ""
    print(f"members         : {' '.join(map(str, members))}{suffix}")
    return 0


def _run_methods(args: argparse.Namespace) -> int:
    """Render the estimator registry: one row per method, then its schema."""
    if getattr(args, "json", False):
        import json

        print(json.dumps({"methods": estimators.describe_methods()}, indent=2))
        return 0
    rows = []
    for description in estimators.describe_methods():
        flags = [
            flag
            for flag in ("fusible", "deterministic", "sweepable", "servable")
            if description[flag]
        ]
        rows.append(
            {
                "method": description["name"],
                "family": description["family"],
                "flags": ",".join(flags) or "-",
                "aliases": ", ".join(description["aliases"]) or "-",
            }
        )
    print(
        format_rows(
            rows,
            columns=["method", "family", "flags", "aliases"],
            title="registered estimation methods",
        )
    )
    print()
    for spec in estimators.all_specs():
        print(f"{spec.name} — {spec.doc}")
        for param in spec.params:
            print(
                f"  {param.name}={param.default_text()} "
                f"({param.type}, {param.range_text()}) {param.doc}"
            )
    print(
        "\nselect with `repro-cli cluster --method NAME [--param KEY=VALUE]`, "
        "`local_cluster(method=...)`, or POST /query; every method above "
        "with the `servable` flag is accepted by `repro-cli serve`."
    )
    return 0


def _run_datasets(_: argparse.Namespace) -> int:
    rows = [dataset_statistics(name) for name in DATASETS]
    print(format_rows(rows, columns=["dataset", "paper_dataset", "n", "m", "avg_degree"]))
    return 0


def _worker_count_line() -> str:
    """Effective walk worker count and where it came from.

    Reported by ``backends`` and ``serve`` so operators can see whether a
    ``$REPRO_WALK_WORKERS`` override is actually in effect.
    """
    env = os.environ.get(WORKERS_ENV_VAR)
    try:
        workers = default_worker_count()
    except ReproError as error:
        return f"invalid (${WORKERS_ENV_VAR}: {error})"
    if env is not None and env.strip():
        return f"{workers} (from ${WORKERS_ENV_VAR}={env.strip()})"
    return f"{workers} (auto: usable CPUs; override with ${WORKERS_ENV_VAR})"


def _run_backends(_: argparse.Namespace) -> int:
    try:
        default = default_backend_name()
    except ReproError:
        default = None
    rows = [
        {
            "backend": name,
            "default": "*" if name == default else "",
            "description": description,
        }
        for name, description in backend_descriptions().items()
    ]
    print(
        format_rows(
            rows,
            columns=["backend", "default", "description"],
            title="registered walk-execution backends",
        )
    )
    print(f"\nwalk workers : {_worker_count_line()}")
    print(
        "select with --backend, $REPRO_BACKEND, or "
        "repro.engine.set_default_backend()"
    )
    return 0


def _run_graph(args: argparse.Namespace) -> int:
    """``graph pack`` / ``graph info``: the .rcsr packing workflow."""
    import time

    from repro.graph.binfmt import read_graph_binary
    from repro.service.registry import build_from_spec

    if args.graph_command == "mutate":
        return _run_graph_mutate(args)

    if args.graph_command == "pack":
        started = time.perf_counter()
        if args.edge_list:
            graph, _ = load_edge_list(args.edge_list)
            source = args.edge_list
        elif args.dataset:
            graph = load_dataset(args.dataset)
            source = args.dataset
        else:
            graph = build_from_spec(args.generate)
            source = args.generate
        load_seconds = time.perf_counter() - started
        started = time.perf_counter()
        path = graph.to_binary(args.output)
        pack_seconds = time.perf_counter() - started
        print(f"packed          : {source} -> {path}")
        print(f"nodes / edges   : {graph.num_nodes} / {graph.num_edges}")
        print(f"file size       : {path.stat().st_size} bytes")
        print(f"load / pack time: {load_seconds:.2f}s / {pack_seconds:.2f}s")
        print(f"serve with      : repro-cli serve --binary {path}")
        return 0

    started = time.perf_counter()
    graph = read_graph_binary(args.path, mmap=True)
    map_seconds = time.perf_counter() - started
    backing = graph.backing
    if getattr(args, "json", False):
        import json

        print(
            json.dumps(
                {
                    "file": args.path,
                    "num_nodes": graph.num_nodes,
                    "num_edges": graph.num_edges,
                    "csr_bytes": graph.csr_nbytes,
                    "sections": dict(backing["offsets"]),
                    "mmap_ms": round(map_seconds * 1000, 3),
                },
                indent=2,
            )
        )
        return 0
    print(f"file            : {args.path}")
    print(f"nodes / edges   : {graph.num_nodes} / {graph.num_edges}")
    print(f"csr bytes       : {graph.csr_nbytes}")
    print(
        "sections        : "
        + ", ".join(
            f"{key}@{offset}" for key, offset in backing["offsets"].items()
        )
    )
    print(f"mmap time       : {map_seconds * 1000:.2f} ms")
    return 0


def _parse_edge_flag(values: list[str], flag: str) -> list[list[int]]:
    """``--add 1,2 --add 3,4`` -> ``[[1, 2], [3, 4]]``."""
    edges = []
    for item in values:
        pieces = [piece.strip() for piece in item.split(",")]
        if len(pieces) != 2 or not all(pieces):
            raise ReproError(f"{flag} expects U,V (two node ids), got {item!r}")
        try:
            edges.append([int(pieces[0]), int(pieces[1])])
        except ValueError:
            raise ReproError(
                f"{flag} expects integer node ids, got {item!r}"
            ) from None
    return edges


def _run_graph_mutate(args: argparse.Namespace) -> int:
    """``graph mutate``: POST an edge batch to a running server."""
    import json
    import urllib.error
    import urllib.parse
    import urllib.request

    add = _parse_edge_flag(args.add, "--add")
    remove = _parse_edge_flag(args.remove, "--remove")
    if not add and not remove:
        raise ReproError("nothing to do: pass at least one --add or --remove")
    url = (
        args.url.rstrip("/")
        + "/graphs/"
        + urllib.parse.quote(args.name, safe="")
        + "/edges"
    )
    body = json.dumps({"add": add, "remove": remove}).encode()
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            summary = json.loads(response.read())
    except urllib.error.HTTPError as error:
        try:
            detail = json.loads(error.read()).get("error", "")
        except Exception:  # noqa: BLE001 - best-effort error body
            detail = ""
        raise ReproError(
            f"server rejected the mutation ({error.code}): {detail or error.reason}"
        ) from None
    except urllib.error.URLError as error:
        raise ReproError(
            f"cannot reach {args.url}: {error.reason} (is `repro-cli serve` running?)"
        ) from None
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(f"graph           : {summary['graph']}")
    print(f"epoch           : {summary['epoch']}")
    print(f"added / removed : {summary['added']} / {summary['removed']}")
    print(f"edges now       : {summary['num_edges']}")
    print(f"delta edges     : {summary['delta_edges']}"
          + (" (compacted)" if summary["compacted"] else ""))
    if summary["index_detached"]:
        print("walk index      : detached (stale; rebuild with `repro-cli index build`)")
    return 0


def _run_index(args: argparse.Namespace) -> int:
    """``index build`` / ``index info``: the .rwix walk-sketch workflow."""
    import time

    from repro.index import WalkIndex, build_walk_index
    from repro.service.registry import build_from_spec
    from repro.utils.counters import OperationCounters

    if args.index_command == "build":
        started = time.perf_counter()
        if args.edge_list:
            graph, _ = load_edge_list(args.edge_list)
            source = args.edge_list
        elif args.dataset:
            graph = load_dataset(args.dataset)
            source = args.dataset
        elif args.generate:
            graph = build_from_spec(args.generate)
            source = args.generate
        else:
            from repro.graph.binfmt import read_graph_binary

            graph = read_graph_binary(args.binary, mmap=True)
            source = args.binary
        load_seconds = time.perf_counter() - started

        seeds = None
        if args.seeds is not None:
            try:
                seeds = [int(piece) for piece in args.seeds.split(",") if piece.strip()]
            except ValueError:
                raise ReproError(
                    f"--seeds expects comma-separated node ids, got {args.seeds!r}"
                ) from None
        # --t defaults to the paper's t=5 bucket, but an alpha-only build
        # should not drag a poisson bucket along implicitly.
        t_values = args.t if args.t else ([] if args.alpha else [5.0])

        counters = OperationCounters()
        started = time.perf_counter()
        index = build_walk_index(
            graph,
            hubs=seeds,
            num_hubs=args.hubs,
            walks_per_sketch=args.walks,
            t_values=t_values,
            alpha_values=args.alpha,
            rng=args.rng,
            counters=counters,
        )
        build_seconds = time.perf_counter() - started
        path = index.to_file(args.output)
        description = index.describe()
        buckets = ", ".join(
            f"{kind}={values}" for kind, values in description["buckets"].items()
        )
        print(f"indexed         : {source} -> {path}")
        print(
            f"sketches        : {description['sketches']} "
            f"({description['nodes']} nodes x buckets {buckets})"
        )
        print(
            f"stored walks    : {description['endpoints']} "
            f"({args.walks} per sketch)"
        )
        print(f"file size       : {path.stat().st_size} bytes")
        print(f"fingerprint     : {description['fingerprint']}")
        print(
            f"load / build    : {load_seconds:.2f}s / {build_seconds:.2f}s "
            f"({counters.walk_steps} walk steps)"
        )
        print(f"serve with      : repro-cli serve ... --index {path}")
        return 0

    started = time.perf_counter()
    index = WalkIndex.from_file(args.path, mmap=True)
    map_seconds = time.perf_counter() - started
    description = index.describe()
    if getattr(args, "json", False):
        import json

        description["file"] = args.path
        description["mmap_ms"] = round(map_seconds * 1000, 3)
        print(json.dumps(description, indent=2))
        return 0
    buckets = ", ".join(
        f"{kind}={values}" for kind, values in description["buckets"].items()
    )
    print(f"file            : {args.path}")
    print(
        f"sketches        : {description['sketches']} "
        f"({description['nodes']} nodes x buckets {buckets})"
    )
    print(f"stored walks    : {description['endpoints']}")
    print(
        f"built for graph : n={description['graph_n']}, m={description['graph_m']}, "
        f"fingerprint {description['fingerprint']}"
    )
    print(f"mmap time       : {map_seconds * 1000:.2f} ms")
    return 0


def build_service_from_args(args: argparse.Namespace):
    """Construct the (not yet started) :class:`QueryService` for ``serve``.

    Factored out of the request loop so tests can validate server assembly
    without binding a socket.
    """
    from repro.service import GraphRegistry, QueryService

    sources = (
        [("dataset", name) for name in args.dataset]
        + [("edge-list", path) for path in args.edge_list]
        + [("binary", path) for path in getattr(args, "binary", [])]
        + [("generate", spec) for spec in args.generate]
    )
    if not sources:
        raise ReproError(
            "serve needs at least one graph: --dataset, --edge-list, "
            "--binary or --generate"
        )
    if args.graph_name is not None and len(sources) != 1:
        raise ReproError("--graph-name requires exactly one graph source")
    if args.backend is not None:
        get_backend(args.backend)  # eager validation, as in `cluster`

    registry = GraphRegistry()
    for kind, value in sources:
        if kind == "dataset":
            registry.add_dataset(value, name=args.graph_name)
        elif kind == "edge-list":
            registry.add_edge_list(value, name=args.graph_name)
        elif kind == "binary":
            registry.add_binary(value, name=args.graph_name)
        else:
            registry.add_generated(value, name=args.graph_name)

    for index_spec in getattr(args, "index", []):
        name, separator, path = index_spec.partition("=")
        if separator and name in registry:
            registry.attach_index(name, path)
        else:
            # No NAME= prefix (or the prefix is part of the path itself):
            # the index targets the server's only graph.
            if len(registry) != 1:
                raise ReproError(
                    "--index PATH requires exactly one graph source; with "
                    "multiple graphs use --index NAME=PATH"
                )
            registry.attach_index(registry.names()[0], index_spec)

    default_timeout_ms = getattr(args, "default_timeout_ms", None)
    if default_timeout_ms is not None and default_timeout_ms <= 0:
        default_timeout_ms = None  # <= 0 disables the service default

    if getattr(args, "disable_obs", False):
        from repro import obs

        obs.set_obs_enabled(False)
    slow_query_ms = getattr(args, "slow_query_ms", None)
    if slow_query_ms is not None and slow_query_ms <= 0:
        slow_query_ms = None  # <= 0 disables the slow-query log

    return QueryService(
        registry,
        backend=args.backend,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        max_inflight_walks=args.max_inflight_walks,
        cache_entries=args.cache_size,
        default_timeout_ms=default_timeout_ms,
        rng=args.rng,
        trace_capacity=args.trace_ring,
        slow_query_ms=slow_query_ms,
        slow_query_log=getattr(args, "slow_query_log", None),
    )


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service.http import make_server

    service = build_service_from_args(args)
    server = make_server(service, args.host, args.port, metrics_enabled=args.metrics)
    service.start()

    print("repro query service")
    for entry in service.registry.describe():
        index_note = (
            f", index {entry['index_sketches']} sketches"
            if "index_sketches" in entry
            else ""
        )
        print(
            f"graph           : {entry['name']} "
            f"(n={entry['num_nodes']}, m={entry['num_edges']}, "
            f"source {entry['source']}, storage {entry['storage']}, "
            f"loaded in {entry['load_seconds']:.2f}s{index_note})"
        )
    print(f"backend         : {service.backend.name}")
    print(f"walk workers    : {_worker_count_line()}")
    print(
        f"micro-batching  : max_batch={args.max_batch}, "
        f"max_pending={args.max_pending}"
    )
    cache = "disabled" if args.cache_size == 0 else f"{args.cache_size} entries"
    print(f"result cache    : {cache}")
    timeout = (
        "disabled"
        if service.default_timeout_ms is None
        else f"{service.default_timeout_ms:g}ms"
    )
    print(f"default deadline: {timeout} (override per request with timeout_ms)")
    from repro import obs

    if not obs.enabled():
        obs_line = "disabled"
    else:
        slow = (
            f"slow-query log at {args.slow_query_log or 'stderr'} "
            f"(> {args.slow_query_ms:g}ms)"
            if args.slow_query_ms and args.slow_query_ms > 0
            else "slow-query log off"
        )
        metrics_note = "/metrics on" if args.metrics else "/metrics off"
        obs_line = f"{metrics_note}, trace ring {args.trace_ring}, {slow}"
    print(f"observability   : {obs_line}")
    print(f"listening on    : http://{args.host}:{server.server_address[1]}")
    print(
        "endpoints       : POST /query   GET /stats /metrics /trace/recent "
        "/graphs /methods /healthz"
    )
    # SIGTERM, how process managers and CI stop a server, takes Ctrl-C's
    # path: the service stops and a parallel backend's pool and shared
    # memory are released before exit.
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - Ctrl-C or SIGTERM
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.shutdown()
        server.server_close()
        service.stop()
        if isinstance(service.backend, ParallelBackend):
            service.backend.close()
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    from repro.obs import load_jsonl, summarize

    records = load_jsonl(args.path)
    summary = summarize(records)
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(f"trace summary: {args.path}")
    print(
        f"traces          : {summary['traces']} "
        f"(mean latency {summary['mean_latency_ms']:.3f}ms)"
    )
    if summary["outcomes"]:
        outcomes = ", ".join(
            f"{name}={count}" for name, count in sorted(summary["outcomes"].items())
        )
        print(f"outcomes        : {outcomes}")
    if summary["methods"]:
        methods = ", ".join(
            f"{name}={count}" for name, count in sorted(summary["methods"].items())
        )
        print(f"methods         : {methods}")
    if summary["phases"]:
        print("phases (total time, share of end-to-end latency):")
        for name, phase in summary["phases"].items():
            print(
                f"  {name:<14} {phase['total_ms']:>10.3f}ms total  "
                f"{phase['mean_ms']:>8.3f}ms mean  "
                f"{phase['max_ms']:>8.3f}ms max  "
                f"{phase['share_of_latency'] * 100:5.1f}%  "
                f"(n={phase['count']})"
            )
    if summary["slowest"]:
        slow = summary["slowest"]
        print(
            f"slowest         : trace {slow['trace_id']} "
            f"{slow.get('method')} on {slow.get('graph')} "
            f"({slow.get('latency_ms')}ms, outcome {slow.get('outcome')})"
        )
    return 0


def _run_experiment(args: argparse.Namespace) -> int:
    driver = EXPERIMENTS[args.name]
    kwargs: dict = {}
    if args.datasets is not None and args.name != "table8":
        kwargs["datasets"] = tuple(args.datasets)
    if args.num_seeds is not None and args.name not in ("table7", "figure7"):
        kwargs["num_seeds"] = args.num_seeds
    if args.rng is not None and args.name != "table7":
        kwargs["rng"] = args.rng
    rows = driver(**kwargs) if kwargs else driver()
    print(format_rows(rows, title=f"experiment: {args.name}"))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "cluster": _run_cluster,
        "methods": _run_methods,
        "datasets": _run_datasets,
        "backends": _run_backends,
        "graph": _run_graph,
        "index": _run_index,
        "experiment": _run_experiment,
        "serve": _run_serve,
        "trace": _run_trace,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
