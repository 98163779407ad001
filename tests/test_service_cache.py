"""Tests for the service result cache (:mod:`repro.service.cache`)."""

from __future__ import annotations

import pytest

from repro.exceptions import ParameterError
from repro.service.cache import ResultCache


class TestLRUEviction:
    def test_capacity_evicts_least_recently_used(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_get_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # "b" is now least recently used
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1

    def test_put_refreshes_recency_and_overwrites(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh + overwrite; "b" becomes LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 10

    def test_len_and_clear(self):
        cache = ResultCache(max_entries=4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None


class TestStatsAndValidation:
    def test_hit_rate(self):
        cache = ResultCache(max_entries=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("missing")
        stats = cache.stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(2 / 3)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            ResultCache(max_entries=0)
