"""Tests for utility modules: RNG plumbing, timers, counters, sparse vectors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.counters import OperationCounters
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.sparsevec import SparseVector
from repro.utils.timer import Timer


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(7).random(3)
        b = ensure_rng(7).random(3)
        assert np.allclose(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_spawn_rngs_independent_and_deterministic(self):
        first = [g.random() for g in spawn_rngs(3, 4)]
        second = [g.random() for g in spawn_rngs(3, 4)]
        assert first == second
        assert len(set(first)) == 4


class TestTimer:
    def test_context_manager_accumulates(self):
        timer = Timer()
        with timer:
            sum(range(100))
        first = timer.elapsed
        with timer:
            sum(range(100))
        assert timer.elapsed >= first
        assert timer.elapsed_ms == pytest.approx(timer.elapsed * 1000.0)

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_reset(self):
        timer = Timer()
        with timer:
            pass
        timer.reset()
        assert timer.elapsed == 0.0


class TestOperationCounters:
    def test_record_and_total_work(self):
        counters = OperationCounters()
        counters.record_pushes(10)
        counters.record_walk(4)
        counters.record_walk(6)
        assert counters.push_operations == 10
        assert counters.random_walks == 2
        assert counters.walk_steps == 10
        assert counters.total_work == 20

    def test_merge(self):
        a = OperationCounters(push_operations=5, residue_entries=7)
        b = OperationCounters(push_operations=3, residue_entries=2)
        a.extras["x"] = 1.0
        b.extras["x"] = 2.0
        merged = a.merge(b)
        assert merged.push_operations == 8
        assert merged.residue_entries == 7
        assert merged.extras["x"] == 3.0

    def test_as_dict_contains_extras(self):
        counters = OperationCounters()
        counters.extras["omega"] = 12.5
        data = counters.as_dict()
        assert data["omega"] == 12.5
        assert "total_work" in data

    def test_memory_entries(self):
        counters = OperationCounters(residue_entries=4, reserve_entries=6)
        assert counters.memory_entries() == 10


class TestSparseVector:
    def test_missing_entries_are_zero(self):
        vec = SparseVector()
        assert vec[3] == 0.0
        assert 3 not in vec

    def test_mapping_constructor_sorts_and_drops_zeros(self):
        vec = SparseVector({4: 0.25, 1: 0.5, 2: 0.0})
        assert vec[1] == 0.5
        assert vec[4] == 0.25
        assert list(vec) == [1, 4]
        assert 2 not in vec

    def test_add_many_accumulates(self):
        vec = SparseVector()
        vec.add_many([4], 0.1)
        vec.add_many([4], 0.2)
        assert vec[4] == pytest.approx(0.3)

    def test_add_many_cancelling_removes(self):
        vec = SparseVector({2: 1.0})
        vec.add_many([2], -1.0)
        assert 2 not in vec
        assert vec.nnz() == 0

    def test_sum(self):
        vec = SparseVector({0: 0.25, 1: 0.75})
        assert vec.sum() == pytest.approx(1.0)

    def test_copy_is_independent(self):
        vec = SparseVector({0: 1.0})
        clone = vec.copy()
        clone.add_many([0], 1.0)
        assert vec[0] == 1.0
        assert clone[0] == 2.0

    def test_dense_round_trip(self):
        vec = SparseVector({0: 0.5, 3: 0.5})
        dense = vec.to_dense(5)
        assert dense.shape == (5,)
        assert dense[3] == 0.5
        back = SparseVector.from_dense(dense)
        assert back.to_dict() == vec.to_dict()

    def test_to_dense_out_of_range(self):
        vec = SparseVector({10: 1.0})
        with pytest.raises(IndexError):
            vec.to_dense(5)

    def test_from_dense_tolerance(self):
        dense = np.array([1e-12, 0.5])
        vec = SparseVector.from_dense(dense, tol=1e-9)
        assert vec.nnz() == 1

    def test_iteration(self):
        vec = SparseVector({0: 0.1, 2: 0.2})
        assert set(vec.keys()) == {0, 2}
        assert sorted(vec.values()) == [pytest.approx(0.1), pytest.approx(0.2)]
        assert dict(vec.items()) == vec.to_dict()
