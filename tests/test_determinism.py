"""Seed-determinism regression tests for every walk backend.

The determinism contract (ARCHITECTURE.md, "Determinism contract"):

* every backend: a fixed seed gives **byte-identical** estimates across
  repeated runs of the same estimator configuration;
* ``vectorized``: that holds for any ``WALK_CHUNK_SIZE`` setting — the
  chunk size is part of the determinism key (changing it re-partitions the
  stream across walks and may change individual endpoints, never the
  distribution);
* ``parallel``: determinism is **per worker-count** — the worker count
  keys the spawned per-worker RNG streams, while ``min_parallel_batch``
  (and hence pooled-vs-inline execution) never changes results.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.engine as engine_module
from repro.engine import ParallelBackend, available_backends, get_backend
from repro.graph.generators import powerlaw_cluster_graph
from repro.hkpr.monte_carlo import monte_carlo_hkpr
from repro.hkpr.params import HKPRParams
from repro.hkpr.poisson import PoissonWeights
from repro.hkpr.tea import tea
from repro.ppr.fora import fora

BACKEND_NAMES = available_backends()


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(50, 3, 0.3, seed=3)


PARAMS = HKPRParams(t=5.0, eps_r=0.5, delta=0.02, p_f=1e-6)


def _estimator_runs(graph, backend, rng_seed=123):
    """One result per estimator family, all with the same fixed seed."""
    return {
        "monte-carlo": monte_carlo_hkpr(
            graph, 0, PARAMS, rng=rng_seed, num_walks=2000, backend=backend
        ),
        "tea": tea(
            graph, 0, PARAMS, r_max=0.01, rng=rng_seed, max_walks=2000,
            backend=backend,
        ),
        "fora": fora(
            graph, 0, alpha=0.2, eps_r=0.5, r_max=0.01, rng=rng_seed,
            max_walks=2000, backend=backend,
        ),
    }


def _assert_identical(runs_a, runs_b):
    for name in runs_a:
        a = runs_a[name].estimates.to_dict()
        b = runs_b[name].estimates.to_dict()
        assert a == b, f"{name}: same seed produced different estimates"


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
def test_same_seed_byte_identical_across_runs(graph, backend_name):
    _assert_identical(
        _estimator_runs(graph, backend_name), _estimator_runs(graph, backend_name)
    )


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
def test_kernel_endpoints_byte_identical_across_runs(graph, backend_name):
    backend = get_backend(backend_name)
    weights = PoissonWeights(5.0)
    starts = np.zeros(1500, dtype=np.int64)
    for kernel in ("walk", "poisson", "geometric"):
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        if kernel == "walk":
            a = backend.walk_batch(graph, starts, 0, weights, rng_a)
            b = backend.walk_batch(graph, starts, 0, weights, rng_b)
        elif kernel == "poisson":
            a = backend.poisson_walk_batch(graph, starts, weights, rng_a)
            b = backend.poisson_walk_batch(graph, starts, weights, rng_b)
        else:
            a = backend.geometric_walk_batch(graph, starts, 0.2, rng_a)
            b = backend.geometric_walk_batch(graph, starts, 0.2, rng_b)
        assert np.array_equal(a, b), kernel


@pytest.mark.parametrize("chunk_size", [5, 64, 1000])
def test_vectorized_deterministic_at_any_chunk_size(graph, monkeypatch, chunk_size):
    """Repeated runs are byte-identical for every WALK_CHUNK_SIZE setting."""
    monkeypatch.setattr(engine_module, "WALK_CHUNK_SIZE", chunk_size)
    _assert_identical(
        _estimator_runs(graph, "vectorized"), _estimator_runs(graph, "vectorized")
    )


@pytest.mark.statistical
def test_vectorized_chunk_size_never_biases_the_distribution(graph, monkeypatch):
    """Chunk size keys the stream, not the law: estimates stay equivalent."""
    import statcheck

    for chunk_size in (64, 100_000):
        monkeypatch.setattr(engine_module, "WALK_CHUNK_SIZE", chunk_size)
        statcheck.check_estimator_walk_parity(
            "monte-carlo", graph, "vectorized", max_walks=4000
        )


def test_parallel_deterministic_per_worker_count(graph):
    """Same (seed, num_workers) ⇒ identical results across fresh instances."""
    runs_a = _estimator_runs(graph, ParallelBackend(num_workers=2, min_parallel_batch=1))
    runs_b = _estimator_runs(graph, ParallelBackend(num_workers=2, min_parallel_batch=1))
    _assert_identical(runs_a, runs_b)


def test_parallel_pooled_equals_inline(graph):
    """min_parallel_batch (pool vs inline execution) never changes results."""
    pooled = _estimator_runs(graph, ParallelBackend(num_workers=2, min_parallel_batch=1))
    inline = _estimator_runs(
        graph, ParallelBackend(num_workers=2, min_parallel_batch=10**9)
    )
    _assert_identical(pooled, inline)


def test_parallel_worker_count_keys_the_streams(graph):
    """Changing num_workers re-keys the streams: results legitimately differ.

    This pins the *documented* scope of the contract — if a refactor made
    results accidentally worker-count-invariant (e.g. by ignoring the
    shard plan), this test would flag the contract change.
    """
    two = _estimator_runs(graph, ParallelBackend(num_workers=2, min_parallel_batch=1))
    three = _estimator_runs(graph, ParallelBackend(num_workers=3, min_parallel_batch=1))
    differing = sum(
        two[name].estimates.to_dict() != three[name].estimates.to_dict()
        for name in two
    )
    assert differing > 0
