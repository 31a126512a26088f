"""Result-cache correctness: the content-addressed serving cache.

The serving cache's contract (``repro.serve.cache`` + service wiring):

1. **Hit ≡ fresh run** — a cache hit's report is bit-identical (post JSON
   round-trip) to :func:`repro.obs.bench.run_spec` run serially, across
   every engine the client can pin;
2. **Eviction is deterministic** — bounded LRU, least-recently-used out
   first, refreshed by hits;
3. **Fault-injected, failed, and malformed requests never populate it**;
4. **Accounting closes** — per-tenant cache hit+miss sums to the tenant's
   dispatched request count.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve import (
    ResultCache,
    ShardedWorkerPool,
    SimulationService,
    cacheable,
    canonical_payload,
    payload_key,
)

CFM_PARAMS = {"n_procs": 4, "bank_cycle": 1, "cycles": 200}
DEAD_BANK_INJECT = {
    "events": [{"kind": "bank_dead", "start": 3, "duration": 1, "target": 1,
                "extra": 0}],
}


def _normalized(doc):
    return json.loads(json.dumps(doc, sort_keys=True))


@pytest.fixture(scope="module")
def pool():
    with ShardedWorkerPool(n_shards=2) as p:
        yield p


def _service(pool, **kwargs):
    kwargs.setdefault("max_inflight", 8)
    return SimulationService(pool=pool, **kwargs)


# --------------------------------------------------------------------------
# Content addressing


class TestContentAddressing:
    def test_canonical_is_field_order_independent(self):
        a = {"system": "cfm", "params": {"n_procs": 4, "cycles": 100}}
        b = {"params": {"cycles": 100, "n_procs": 4}, "system": "cfm"}
        assert canonical_payload(a) == canonical_payload(b)
        assert payload_key(a) == payload_key(b)

    def test_distinct_specs_distinct_keys(self):
        base = {"system": "cfm", "params": dict(CFM_PARAMS)}
        other = {"system": "cfm", "params": dict(CFM_PARAMS, cycles=201)}
        engine = {"system": "cfm",
                  "params": dict(CFM_PARAMS, engine="reference")}
        keys = {payload_key(base), payload_key(other), payload_key(engine)}
        assert len(keys) == 3  # params — engine included — select the entry

    def test_inject_is_never_cacheable(self):
        assert cacheable({"system": "cfm", "params": dict(CFM_PARAMS)})
        assert not cacheable({"system": "cfm", "params": dict(CFM_PARAMS),
                              "inject": dict(DEAD_BANK_INJECT)})


# --------------------------------------------------------------------------
# LRU mechanics (no pool needed)


class TestResultCacheLRU:
    def test_hit_miss_counters_and_roundtrip(self):
        cache = ResultCache(max_entries=4)
        assert cache.get("k1") is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put("k1", {"value": [1, 2, 3]})
        assert cache.get("k1") == {"value": [1, 2, 3]}
        assert (cache.hits, cache.misses) == (1, 1)

    def test_hit_returns_a_fresh_object_every_time(self):
        cache = ResultCache(max_entries=4)
        cache.put("k", {"nested": {"list": [1, 2]}})
        first = cache.get("k")
        first["nested"]["list"].append(99)  # caller mutates its copy
        assert cache.get("k") == {"nested": {"list": [1, 2]}}

    def test_eviction_is_deterministic_lru(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", {"r": "a"})
        cache.put("b", {"r": "b"})
        assert cache.put("c", {"r": "c"}) == 1  # a (oldest) evicted
        assert cache.get("a") is None
        assert cache.get("b") == {"r": "b"}  # refreshes b over c
        assert cache.put("d", {"r": "d"}) == 1  # c evicted, not b
        assert cache.get("c") is None
        assert cache.get("b") == {"r": "b"}
        assert cache.evictions == 2

    def test_put_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", {"r": 1})
        cache.put("b", {"r": 2})
        cache.put("a", {"r": 3})  # rewrite refreshes a
        cache.put("c", {"r": 4})  # b is now LRU
        assert cache.get("b") is None
        assert cache.get("a") == {"r": 3}

    def test_zero_entries_disables_the_cache(self):
        cache = ResultCache(max_entries=0)
        assert cache.put("k", {"r": 1}) == 0
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(max_entries=-1)

    def test_stats_document(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", {"r": 1})
        cache.get("a")
        cache.get("zzz")
        assert cache.stats() == {"hits": 1, "misses": 1, "evictions": 0,
                                 "entries": 1, "max_entries": 2}


# --------------------------------------------------------------------------
# Service-level: hit ≡ fresh bit-identity, across engines


class TestCacheHitIdentity:
    @pytest.mark.parametrize("engine", [None, "reference", "batch",
                                        "vectorized"])
    def test_hit_bit_identical_to_fresh_run(self, pool, engine):
        from repro.obs.bench import run_spec

        params = dict(CFM_PARAMS)
        if engine is not None:
            params["engine"] = engine

        async def scenario():
            service = _service(pool, cache_size=16)
            request = {"id": "a", "system": "cfm", "params": dict(params)}
            fresh = await service.process(dict(request))
            hit = await service.process(dict(request, id="b"))
            return service, fresh, hit

        service, fresh, hit = asyncio.run(scenario())
        assert fresh["ok"] and "cached" not in fresh
        assert hit["ok"] and hit["cached"] is True
        serial = run_spec({"system": "cfm", "params": dict(params)})
        assert _normalized(hit["report"]) == _normalized(serial)
        assert _normalized(hit["report"]) == _normalized(fresh["report"])
        # Byte-identity on the wire: the serialized reports are equal.
        assert (json.dumps(hit["report"], sort_keys=True)
                == json.dumps(serial, sort_keys=True))
        assert service.cache.hits == 1

    def test_eviction_determinism_at_tiny_cache_size(self, pool):
        async def scenario():
            service = _service(pool, cache_size=1)
            a = {"id": "a", "system": "cfm", "params": dict(CFM_PARAMS)}
            b = {"id": "b", "system": "cfm",
                 "params": dict(CFM_PARAMS, cycles=150)}
            await service.process(dict(a))       # cache: {a}
            await service.process(dict(b))       # evicts a; cache: {b}
            r_a = await service.process(dict(a))  # miss — was evicted
            r_b = await service.process(dict(b))  # miss — a's rerun evicted b
            return service, r_a, r_b

        service, r_a, r_b = asyncio.run(scenario())
        assert "cached" not in r_a and "cached" not in r_b
        assert service.cache.evictions == 3
        assert service.cache.hits == 0
        assert len(service.cache) == 1


# --------------------------------------------------------------------------
# What never enters the cache


class TestCachePopulationGates:
    def test_fault_injected_requests_never_populate(self, pool):
        async def scenario():
            service = _service(pool, cache_size=16)
            faulted = {"id": "f", "system": "cfm",
                       "params": dict(CFM_PARAMS),
                       "inject": dict(DEAD_BANK_INJECT)}
            first = await service.process(dict(faulted))
            second = await service.process(dict(faulted, id="g"))
            return service, first, second

        service, first, second = asyncio.run(scenario())
        assert first["ok"] is False and first["error"]["typed"]
        assert second["ok"] is False and "cached" not in second
        assert len(service.cache) == 0
        assert service.cache.hits == service.cache.misses == 0

    def test_malformed_requests_never_populate(self, pool):
        async def scenario():
            service = _service(pool, cache_size=16)
            bad = await service.process({"id": "x", "system": "cfm",
                                         "params": {"frobnicate": 1}})
            worse = await service.handle_line("{not json")
            return service, bad, worse

        service, bad, worse = asyncio.run(scenario())
        assert bad["error"]["type"] == "RequestError"
        assert worse["error"]["type"] == "RequestError"
        assert len(service.cache) == 0

    def test_failed_results_never_populate(self, pool):
        """Any non-ok worker outcome — SimulationTimeout included — must
        not enter the cache; only completed reports do."""
        async def scenario():
            service = _service(pool, cache_size=16)

            async def timed_out(payload, shard=None):
                return {"ok": False, "error": {
                    "type": "SimulationTimeout", "message": "stuck",
                    "typed": True, "kind": None, "slot": 7,
                }, "wall_ms": 1.0}

            service.batcher.submit = timed_out
            response = await service.process(
                {"id": "t", "system": "cfm", "params": dict(CFM_PARAMS)})
            return service, response

        service, response = asyncio.run(scenario())
        assert response["ok"] is False
        assert response["error"]["type"] == "SimulationTimeout"
        assert len(service.cache) == 0


# --------------------------------------------------------------------------
# Accounting


class TestCacheAccounting:
    def test_tenant_hit_miss_sums_to_request_count(self, pool):
        async def scenario():
            service = _service(pool, cache_size=16)
            requests = []
            for i in range(9):  # 3 distinct specs, repeated 3x, 2 tenants
                requests.append({
                    "id": f"r{i}", "tenant": f"t{i % 2}", "system": "cfm",
                    "params": dict(CFM_PARAMS, cycles=100 + 50 * (i % 3)),
                })
            requests.append({"id": "f", "tenant": "t0", "system": "cfm",
                             "params": dict(CFM_PARAMS),
                             "inject": dict(DEAD_BANK_INJECT)})
            responses = []
            for request in requests:  # serial: repeats must hit
                responses.append(await service.process(dict(request)))
            return service, responses

        service, responses = asyncio.run(scenario())
        snap = service.metrics_snapshot()
        total_requests = 0
        total_cache_events = 0
        for tenant, tsnap in snap["tenants"].items():
            treq = tsnap["requests"]["counts"]
            tcache = tsnap["cache"]["counts"]
            assert (tcache.get("hit", 0) + tcache.get("miss", 0)
                    == treq["total"]), (tenant, tcache, treq)
            total_requests += treq["total"]
            total_cache_events += tcache.get("hit", 0) + tcache.get("miss", 0)
        assert total_requests == len(responses) == 10
        assert total_cache_events == 10
        svc_cache = snap["service"]["serve.cache"]["counts"]
        assert svc_cache["hits"] + svc_cache["misses"] == 10
        # Serial repeats of 3 distinct specs: 6 hits; inject is a miss.
        assert svc_cache["hits"] == 6
        assert sum(1 for r in responses if r.get("cached")) == 6

    def test_metrics_snapshot_carries_cache_and_batch_blocks(self, pool):
        async def scenario():
            service = _service(pool, cache_size=4, max_batch=3)
            await service.process({"id": "a", "system": "cfm",
                                   "params": dict(CFM_PARAMS)})
            await service.process({"id": "b", "system": "cfm",
                                   "params": dict(CFM_PARAMS)})
            return service.metrics_snapshot()

        snap = asyncio.run(scenario())
        assert snap["cache"] == {"hits": 1, "misses": 1, "evictions": 0,
                                 "entries": 1, "max_entries": 4}
        assert snap["batch"]["max_batch"] == 3
        assert snap["batch"]["pending"] == 0
        assert snap["service"]["serve.batch.size"]["n"] == 1
        assert snap["service"]["serve.cache"]["counts"]["hits"] == 1
