"""Tests for the exception hierarchy and the public package surface."""

from __future__ import annotations

import pytest

import repro
from repro.exceptions import (
    ConvergenceError,
    DatasetError,
    EmptyGraphError,
    GraphError,
    NodeNotFoundError,
    ParameterError,
    ReproError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [GraphError, NodeNotFoundError, EmptyGraphError, ParameterError, DatasetError, ConvergenceError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_node_not_found_message_and_fields(self):
        error = NodeNotFoundError(7, 5)
        assert error.node == 7
        assert error.n == 5
        assert "7" in str(error)

    def test_empty_graph_is_graph_error(self):
        assert issubclass(EmptyGraphError, GraphError)


class TestPublicAPI:
    def test_version_string(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_estimator_registry_contents(self):
        # The registry's HKPR family, which PR 5 extended with the
        # push-only methods.
        assert set(repro.estimators.method_names(family="hkpr")) == {
            "exact",
            "monte-carlo",
            "cluster-hkpr",
            "hk-relax",
            "hk-push",
            "hk-push+",
            "tea",
            "tea+",
        }

    def test_declarative_estimate_exported(self):
        graph = repro.generators.ring_graph(20)
        result = repro.estimate(graph, 0, method="monte-carlo", rng=1, num_walks=50)
        assert result.counters.random_walks == 50

    def test_quickstart_docstring_example_runs(self):
        graph = repro.generators.powerlaw_cluster_graph(200, 3, 0.3, seed=1)
        result = repro.local_cluster(graph, seed=0, method="tea+", rng=1)
        assert result.contains_seed()
