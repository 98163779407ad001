"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.cli import EXPERIMENTS, build_parser, main
from repro.engine.parallel import WORKERS_ENV_VAR
from repro.graph.generators import ring_graph
from repro.graph.io import save_edge_list


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_cluster_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "--seed-node", "0"])

    def test_cluster_rejects_both_sources(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cluster", "--dataset", "dblp-sim", "--edge-list", "x.txt", "--seed-node", "0"]
            )

    def test_experiment_names_registered(self):
        assert set(EXPERIMENTS) == {
            "table7",
            "figure2",
            "figure3",
            "figure4",
            "figure5",
            "figure6",
            "figure7",
            "figure8_9",
            "table8",
            "ablation",
        }


class TestCommands:
    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "dblp-sim" in output
        assert "avg_degree" in output

    def test_cluster_on_edge_list(self, tmp_path, capsys):
        path = tmp_path / "ring.txt"
        save_edge_list(ring_graph(30), path)
        code = main(
            [
                "cluster",
                "--edge-list",
                str(path),
                "--seed-node",
                "0",
                "--method",
                "tea+",
                "--rng",
                "1",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "cluster size" in output
        assert "conductance" in output

    def test_cluster_on_builtin_dataset(self, capsys):
        code = main(
            [
                "cluster",
                "--dataset",
                "grid3d-sim",
                "--seed-node",
                "5",
                "--method",
                "hk-relax",
                "--delta",
                "0.001",
            ]
        )
        assert code == 0
        assert "hk-relax" in capsys.readouterr().out

    def test_cluster_invalid_seed_returns_error_code(self, capsys):
        code = main(
            ["cluster", "--dataset", "grid3d-sim", "--seed-node", "999999", "--rng", "1"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_experiment_table7(self, capsys):
        assert main(["experiment", "table7"]) == 0
        assert "paper_dataset" in capsys.readouterr().out

    def test_experiment_figure3_small(self, capsys):
        code = main(
            [
                "experiment",
                "figure3",
                "--datasets",
                "grid3d-sim",
                "--num-seeds",
                "1",
                "--rng",
                "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "tea+" in output


class TestMethodsCommand:
    def test_methods_lists_every_registered_method(self, capsys):
        from repro.estimators import all_specs

        assert main(["methods"]) == 0
        output = capsys.readouterr().out
        for spec in all_specs():
            assert spec.name in output
        assert "fusible" in output
        assert "deterministic" in output
        assert "num_walks" in output  # parameter schemas are rendered

    def test_unknown_method_is_a_clean_error_listing_options(self, capsys):
        code = main(
            ["cluster", "--dataset", "grid3d-sim", "--seed-node", "0",
             "--method", "no-such-method"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "unknown method" in captured.err
        assert "tea+" in captured.err  # lists the valid options
        assert "Traceback" not in captured.err

    def test_method_alias_accepted(self, capsys):
        code = main(
            ["cluster", "--dataset", "grid3d-sim", "--seed-node", "5",
             "--method", "tea-plus", "--rng", "1"]
        )
        assert code == 0
        assert "method          : tea+" in capsys.readouterr().out

    def test_hk_push_plus_and_nibble_reachable(self, capsys):
        for method in ("hk-push+", "nibble"):
            code = main(
                ["cluster", "--dataset", "grid3d-sim", "--seed-node", "5",
                 "--method", method]
            )
            assert code == 0
            assert f"method          : {method}" in capsys.readouterr().out

    def test_param_flag_validated_through_registry(self, capsys):
        code = main(
            ["cluster", "--dataset", "grid3d-sim", "--seed-node", "5",
             "--method", "monte-carlo", "--param", "num_walks=500", "--rng", "1"]
        )
        assert code == 0
        assert "random walks    : 500" in capsys.readouterr().out

    def test_unknown_param_is_a_clean_error_listing_allowed(self, capsys):
        code = main(
            ["cluster", "--dataset", "grid3d-sim", "--seed-node", "5",
             "--method", "tea+", "--param", "bogus=1"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "unknown parameter" in captured.err
        assert "max_walks" in captured.err  # lists the allowed options

    def test_out_of_range_param_rejected_eagerly(self, capsys):
        code = main(
            ["cluster", "--dataset", "grid3d-sim", "--seed-node", "5",
             "--method", "monte-carlo", "--param", "num_walks=0"]
        )
        assert code == 2
        assert "out of range" in capsys.readouterr().err

    def test_malformed_param_flag(self, capsys):
        code = main(
            ["cluster", "--dataset", "grid3d-sim", "--seed-node", "5",
             "--param", "steps"]
        )
        assert code == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_hkpr_param_flag_folds_into_params(self, capsys):
        code = main(
            ["cluster", "--dataset", "grid3d-sim", "--seed-node", "5",
             "--method", "monte-carlo", "--param", "t=8", "--param",
             "num_walks=200", "--rng", "1"]
        )
        assert code == 0
        assert "random walks    : 200" in capsys.readouterr().out

    def test_hkpr_flags_rejected_for_non_hkpr_methods(self, capsys):
        code = main(
            ["cluster", "--dataset", "grid3d-sim", "--seed-node", "5",
             "--method", "nibble", "--t", "10"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "--t" in captured.err
        assert "--param" in captured.err  # points at the right mechanism

    def test_declared_flags_map_to_kwargs_for_adapter_methods(self, capsys):
        # fora declares eps_r (a kwarg, not an HKPRParams field), so the
        # flag applies; --t is undeclared for fora and must error.
        code = main(
            ["cluster", "--dataset", "grid3d-sim", "--seed-node", "5",
             "--method", "fora", "--eps-r", "0.3", "--rng", "1"]
        )
        assert code == 0
        assert "method          : fora" in capsys.readouterr().out
        code = main(
            ["cluster", "--dataset", "grid3d-sim", "--seed-node", "5",
             "--method", "fora", "--t", "10"]
        )
        assert code == 2
        assert "--t does not apply" in capsys.readouterr().err

    def test_flow_method_rejected_with_guidance(self, capsys):
        code = main(
            ["cluster", "--dataset", "grid3d-sim", "--seed-node", "5",
             "--method", "crd"]
        )
        assert code == 2
        assert "sweepable" in capsys.readouterr().err


class TestBackendsCommand:
    def test_backends_lists_every_registered_backend(self, capsys):
        from repro.engine import available_backends, default_backend_name

        assert main(["backends"]) == 0
        output = capsys.readouterr().out
        for name in available_backends():
            assert name in output
        # The default backend is starred.
        assert default_backend_name() in output
        assert "*" in output
        assert "REPRO_BACKEND" in output

    def test_backends_reports_effective_worker_count(self, capsys, monkeypatch):
        from repro.engine.parallel import WORKERS_ENV_VAR

        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert main(["backends"]) == 0
        output = capsys.readouterr().out
        assert "walk workers" in output
        assert "auto: usable CPUs" in output

    def test_backends_reports_worker_env_override(self, capsys, monkeypatch):
        from repro.engine.parallel import WORKERS_ENV_VAR

        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert main(["backends"]) == 0
        output = capsys.readouterr().out
        assert f"3 (from ${WORKERS_ENV_VAR}=3)" in output


class TestServeCommand:
    def _serve_args(self, *extra):
        return build_parser().parse_args(["serve", *extra])

    def test_serve_requires_a_graph_source(self, capsys):
        # Dispatch through main() so the error surfaces as exit code 2.
        code = main(["serve", "--port", "0"])
        assert code == 2
        assert "at least one graph" in capsys.readouterr().err

    def test_serve_rejects_unknown_backend(self, capsys):
        code = main(
            ["serve", "--dataset", "grid3d-sim", "--backend", "bogus", "--port", "0"]
        )
        assert code == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_serve_rejects_graph_name_with_multiple_sources(self, capsys):
        code = main(
            [
                "serve", "--dataset", "grid3d-sim", "--generate", "grid3d,side=3",
                "--graph-name", "both", "--port", "0",
            ]
        )
        assert code == 2
        assert "exactly one graph source" in capsys.readouterr().err

    def test_build_service_from_args(self):
        from repro.cli import build_service_from_args

        args = self._serve_args(
            "--generate", "grid3d,side=3", "--graph-name", "g",
            "--max-batch", "4", "--cache-size", "16",
        )
        service = build_service_from_args(args)
        try:
            assert service.registry.names() == ["g"]
            assert service.registry.get("g").graph.num_nodes == 27
            with service:
                response = service.query("g", "monte-carlo", 0, {"num_walks": 50})
                assert response.result.counters.random_walks == 50
        finally:
            service.stop()

    def test_default_timeout_flag(self):
        from repro.cli import build_service_from_args

        # The serve default (60 s) reaches the service.
        args = self._serve_args("--generate", "grid3d,side=3")
        assert args.default_timeout_ms == 60_000.0
        assert build_service_from_args(args).default_timeout_ms == 60_000.0
        # An explicit value flows through.
        args = self._serve_args(
            "--generate", "grid3d,side=3", "--default-timeout-ms", "2500"
        )
        assert build_service_from_args(args).default_timeout_ms == 2500.0
        # <= 0 disables the service-level default entirely.
        args = self._serve_args(
            "--generate", "grid3d,side=3", "--default-timeout-ms", "0"
        )
        assert build_service_from_args(args).default_timeout_ms is None

    def test_flagless_serve_builds_the_services_own_defaults(self):
        import inspect

        from repro.cli import build_service_from_args
        from repro.service import QueryService
        from repro.service.service import DEFAULT_QUERY_TIMEOUT_MS

        defaults = {
            name: parameter.default
            for name, parameter in inspect.signature(QueryService).parameters.items()
        }
        service = build_service_from_args(self._serve_args("--dataset", "dblp-sim"))
        try:
            stats = service.stats()
            assert stats["queue"]["max_batch"] == defaults["max_batch"]
            assert service._batcher._queue.maxsize == defaults["max_pending"]
            assert service._max_inflight_walks == defaults["max_inflight_walks"]
            assert stats["cache"]["max_entries"] == defaults["cache_entries"]
            assert (
                stats["observability"]["traces"]["ring_capacity"]
                == defaults["trace_capacity"]
            )
            # QueryService bounds no request by default; serve does.
            assert defaults["default_timeout_ms"] is None
            assert service.default_timeout_ms == DEFAULT_QUERY_TIMEOUT_MS
        finally:
            service.stop()

    def test_build_service_registers_multiple_sources(self, tmp_path):
        from repro.cli import build_service_from_args
        from repro.graph.io import save_edge_list

        path = tmp_path / "ring.txt"
        save_edge_list(ring_graph(12), path)
        args = self._serve_args(
            "--dataset", "grid3d-sim", "--edge-list", str(path),
            "--generate", "grid3d,side=3",
        )
        service = build_service_from_args(args)
        assert len(service.registry) == 3
        assert "grid3d-sim" in service.registry
        assert "ring" in service.registry

    def test_sigterm_stops_a_parallel_server_cleanly(self):
        # A 10,000-walk batch runs on the 2-worker pool, so the server has
        # exported the graph's CSR arrays to shared memory.  SIGTERM must
        # release them: exit 0 and no resource-tracker warning.
        env = dict(os.environ, PYTHONUNBUFFERED="1", **{WORKERS_ENV_VAR: "2"})
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--generate", "chung-lu,n=2000,gamma=2.5,seed=11",
                "--graph-name", "g", "--port", "0", "--backend", "parallel",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            banner = []
            for line in server.stdout:
                banner.append(line)
                if line.startswith("listening on"):
                    break
            else:
                pytest.fail("server exited before listening:\n" + "".join(banner))
            url = line.split(":", 1)[1].strip() + "/query"
            for method, params in (
                ("monte-carlo", {"num_walks": 10_000}),
                ("tea+", {"c": 1.0}),
            ):
                body = {"graph": "g", "method": method, "seed_node": 7, "params": params}
                request = urllib.request.Request(url, data=json.dumps(body).encode())
                with urllib.request.urlopen(request, timeout=60) as response:
                    counters = json.loads(response.read())["counters"]
                assert counters["walk_execution"] == "pool", counters
            server.send_signal(signal.SIGTERM)
            output, _ = server.communicate(timeout=30)
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        assert server.returncode == 0, output
        assert "leaked shared_memory" not in output, output


class TestGraphCommand:
    def test_pack_and_info_edge_list(self, tmp_path, capsys):
        path = tmp_path / "ring.txt"
        save_edge_list(ring_graph(10), path)
        out = tmp_path / "ring.rcsr"
        assert main(["graph", "pack", "--edge-list", str(path), "-o", str(out)]) == 0
        output = capsys.readouterr().out
        assert "packed" in output and "10 / 10" in output
        assert out.exists()
        assert main(["graph", "info", str(out)]) == 0
        info = capsys.readouterr().out
        assert "nodes / edges   : 10 / 10" in info
        assert "indptr@" in info

    def test_pack_from_generator_spec(self, tmp_path, capsys):
        out = tmp_path / "grid.rcsr"
        assert main(["graph", "pack", "--generate", "grid3d,side=3", "-o", str(out)]) == 0
        assert "27" in capsys.readouterr().out

    def test_pack_requires_exactly_one_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["graph", "pack", "-o", "x.rcsr"])

    def test_info_rejects_non_rcsr(self, tmp_path, capsys):
        path = tmp_path / "plain.txt"
        path.write_text("0 1\n")
        assert main(["graph", "info", str(path)]) == 2
        assert "not an .rcsr graph" in capsys.readouterr().err

    def test_serve_binary_source(self, tmp_path):
        from repro.cli import build_service_from_args

        path = tmp_path / "ring.txt"
        save_edge_list(ring_graph(12), path)
        out = tmp_path / "ring.rcsr"
        assert main(["graph", "pack", "--edge-list", str(path), "-o", str(out)]) == 0
        args = build_parser().parse_args(
            ["serve", "--binary", str(out), "--graph-name", "packed"]
        )
        service = build_service_from_args(args)
        try:
            entry = service.registry.get("packed")
            assert entry.storage == "mmap"
            with service:
                response = service.query("packed", "monte-carlo", 0, {"num_walks": 40})
                assert response.result.counters.random_walks == 40
        finally:
            service.stop()


class TestClusterBackendSelection:
    def _cluster_args(self, *extra):
        return [
            "cluster", "--dataset", "grid3d-sim", "--seed-node", "5",
            "--method", "tea+", "--rng", "1", *extra,
        ]

    def test_unknown_backend_is_a_clean_error_not_a_traceback(self, capsys):
        code = main(self._cluster_args("--backend", "no-such-backend"))
        assert code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "unknown backend" in captured.err
        assert "vectorized" in captured.err  # lists the available ones
        assert "Traceback" not in captured.err

    def test_unknown_backend_rejected_even_for_backendless_methods(self, capsys):
        # hk-relax has no walk phase; the CLI must still validate eagerly.
        code = main(
            [
                "cluster", "--dataset", "grid3d-sim", "--seed-node", "5",
                "--method", "hk-relax", "--backend", "bogus",
            ]
        )
        assert code == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_cluster_backend_reference(self, capsys):
        code = main(self._cluster_args("--backend", "reference"))
        assert code == 0
        assert "backend         : reference" in capsys.readouterr().out

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2,
        reason="parallel CLI run needs more than one CPU to be meaningful",
    )
    def test_cluster_backend_parallel(self, capsys):
        code = main(self._cluster_args("--backend", "parallel"))
        assert code == 0
        assert "backend         : parallel" in capsys.readouterr().out
