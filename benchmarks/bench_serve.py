"""Serving throughput: warm pools, micro-batching, and the result cache.

Two perf claims of ``repro.serve``, each gated at >= 2x:

1. **warm vs fresh** (PR 7): a persistent worker pool sharded by machine
   shape — every worker pre-warmed with exactly the AT-space tables of the
   shapes it owns — serves a mixed-shape request stream at >= 2x the
   throughput of standing up a fresh worker pool for every request.
2. **batched vs per-request** (this PR): under >= 32 concurrent same-shape
   requests (heavy traffic with duplicates in flight, the regime the
   continuous batcher exists for), micro-batched dispatch through the full
   service path — coalescing queue, one pool task per batch, intra-batch
   dedup — serves >= 2x the requests/sec of PR 7's one-pool-task-per-
   request dispatch (``max_batch=1`` through the identical code path).
   A third, cached pass measures steady-state content-addressed hits, and
   a fourth, stacked pass (this PR) pins every request to
   ``engine="stacked"`` so each flush executes as one stacked
   cross-simulation run — gated at >= 1x batched (stacking must never
   cost throughput).

Before any timing counts, every distinct spec's served report — warm,
fresh, batched, *and* cached — is asserted bit-identical (post JSON
round-trip) to :func:`repro.obs.bench.run_spec` run serially: the serving
layer must never buy throughput with drift.

Run standalone to write ``BENCH_serve.json``::

    PYTHONPATH=src python benchmarks/bench_serve.py --out .

or through pytest for the >= 2x gates (CI ``serve-smoke``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -q -s

The written document carries a ``timing`` section
(``requests_per_sec`` per mode) gated against
``benchmarks/baseline_serve.json`` by ``benchmarks/check_perf.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import time
from typing import Dict, List, Tuple

from repro.obs.bench import SCHEMA, run_spec
from repro.serve.pool import ShardedWorkerPool, serve_worker
from repro.serve.service import SimulationService
from repro.serve.shard import DEFAULT_WARM_SHAPES

QUICK_SHAPES: Tuple[Tuple[int, int], ...] = DEFAULT_WARM_SHAPES
N_REQUESTS = 32
N_SHARDS = 2
CYCLES = 200
MIN_SPEEDUP = 2.0

#: The batching workload: >= 32 concurrent same-shape requests drawn from
#: a handful of distinct specs — the "dozens of identical or same-shape
#: specs in flight" regime.  Cycle counts differ so the batch carries
#: genuinely distinct work alongside duplicates.
N_CONCURRENT = 32
BATCH_SHAPE = (4, 1)
BATCH_CYCLE_CHOICES = (100, 150, 200, 250)
MAX_BATCH = 16
MIN_BATCH_SPEEDUP = 2.0
#: Stage 4 gate: the same concurrent traffic with every request pinned to
#: ``engine="stacked"`` — each micro-batch flush executes as one stacked
#: cross-simulation run — must serve at least as many requests/sec as
#: plain micro-batched dispatch.
MIN_STACKED_RATIO = 1.0


def _payloads(n_requests: int,
              shapes: Tuple[Tuple[int, int], ...] = QUICK_SHAPES,
              cycles: int = CYCLES) -> List[Dict[str, object]]:
    """A mixed-shape request stream: round-robin over the warm shapes."""
    out = []
    for i in range(n_requests):
        n_banks, bank_cycle = shapes[i % len(shapes)]
        out.append({
            "system": "cfm",
            "params": {"n_procs": n_banks // bank_cycle,
                       "bank_cycle": bank_cycle, "cycles": cycles},
        })
    return out


def _assert_identical_to_serial(results: List[Dict[str, object]],
                                payloads: List[Dict[str, object]]) -> None:
    seen = set()
    for result, payload in zip(results, payloads):
        assert result["ok"], result.get("error")
        key = json.dumps(payload, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        serial = run_spec({"system": payload["system"],
                           "params": dict(payload["params"])})
        served = json.loads(json.dumps(result["report"], sort_keys=True))
        assert served == json.loads(json.dumps(serial, sort_keys=True)), (
            f"served report diverged from serial run_spec for {payload}"
        )


def _cold_caches() -> None:
    """Baseline pool initializer: start genuinely cold.

    Linux pools fork, so a 'fresh' worker inherits the parent's warm
    ``lru_cache`` tables — clearing them keeps the baseline honest."""
    from repro.fastpath import tables

    tables.slot_bank_table.cache_clear()
    tables.bank_orders.cache_clear()
    tables.shift_permutations.cache_clear()


def measure_warm(payloads: List[Dict[str, object]],
                 n_shards: int = N_SHARDS) -> Tuple[float, List[Dict[str, object]]]:
    """Steady-state seconds to serve ``payloads`` through one warm pool."""
    with ShardedWorkerPool(n_shards=n_shards) as pool:
        t0 = time.perf_counter()
        handles = [pool.submit(dict(p)) for p in payloads]
        results = [h.get() for h in handles]
        elapsed = time.perf_counter() - t0
    return elapsed, results


def measure_fresh(payloads: List[Dict[str, object]]) -> Tuple[float, List[Dict[str, object]]]:
    """Seconds to serve ``payloads`` standing up one cold pool per request."""
    import multiprocessing as mp

    results = []
    t0 = time.perf_counter()
    for payload in payloads:
        with mp.Pool(processes=1, initializer=_cold_caches) as pool:
            results.append(pool.apply(serve_worker, (dict(payload),)))
    elapsed = time.perf_counter() - t0
    return elapsed, results


def _batch_requests(n_requests: int = N_CONCURRENT) -> List[Dict[str, object]]:
    """Same-shape concurrent traffic with duplicates: ``n_requests`` over
    ``len(BATCH_CYCLE_CHOICES)`` distinct specs of one machine shape."""
    n_banks, bank_cycle = BATCH_SHAPE
    out = []
    for i in range(n_requests):
        out.append({
            "id": f"b{i}", "tenant": f"team{i % 3}", "system": "cfm",
            "params": {"n_procs": n_banks // bank_cycle,
                       "bank_cycle": bank_cycle,
                       "cycles": BATCH_CYCLE_CHOICES[i % len(BATCH_CYCLE_CHOICES)]},
        })
    return out


def _assert_responses_identical_to_serial(
        responses: List[Dict[str, object]],
        requests: List[Dict[str, object]]) -> None:
    seen = set()
    for response, request in zip(responses, requests):
        assert response["ok"], response.get("error")
        key = json.dumps(request["params"], sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        serial = run_spec({"system": request["system"],
                           "params": dict(request["params"])})
        served = json.loads(json.dumps(response["report"], sort_keys=True))
        assert served == json.loads(json.dumps(serial, sort_keys=True)), (
            f"served report diverged from serial run_spec for {request}"
        )


async def _serve_concurrently(service: SimulationService,
                              requests: List[Dict[str, object]]
                              ) -> Tuple[float, List[Dict[str, object]]]:
    """Seconds + responses for ``requests`` submitted all-at-once."""
    t0 = time.perf_counter()
    responses = await asyncio.gather(
        *(service.process(dict(r)) for r in requests))
    return time.perf_counter() - t0, list(responses)


def measure_batching(pool: ShardedWorkerPool,
                     requests: List[Dict[str, object]],
                     repeats: int = 2) -> Dict[str, Dict[str, object]]:
    """Per-request vs micro-batched vs cached service throughput.

    All three modes run the full service path on the same warm pool; the
    only differences are the knobs under test (``max_batch``,
    ``cache_size``).  The cached pass is timed against a pre-populated
    cache — the steady state repeated traffic actually sees."""
    async def one_round() -> Dict[str, Dict[str, object]]:
        out: Dict[str, Dict[str, object]] = {}
        # PR 7 dispatch: one pool task per request, no caching.
        per_request = SimulationService(pool=pool, max_inflight=len(requests),
                                        max_batch=1, cache_size=0)
        seconds, responses = await _serve_concurrently(per_request, requests)
        _assert_responses_identical_to_serial(responses, requests)
        out["per_request"] = {"wall_time_s": seconds}
        # Micro-batched dispatch, caching still off (isolate batching).
        batched = SimulationService(pool=pool, max_inflight=len(requests),
                                    max_batch=MAX_BATCH, cache_size=0)
        seconds, responses = await _serve_concurrently(batched, requests)
        _assert_responses_identical_to_serial(responses, requests)
        snap = batched.metrics_snapshot()
        out["batched"] = {
            "wall_time_s": seconds,
            "batches": snap["service"]["serve.batch"]["counts"]["batches"],
            "mean_batch_size": snap["service"]["serve.batch.size"]["mean"],
        }
        # Stage 4: identical traffic pinned to the stacked engine — the
        # batcher's flushes execute as one stacked run each (caching off
        # to isolate stacking).  Identity is asserted against serial
        # run_spec of the same stacked-engine specs before timing counts.
        stacked_requests = [
            {**r, "params": {**r["params"], "engine": "stacked"}}
            for r in requests
        ]
        stacked = SimulationService(pool=pool, max_inflight=len(requests),
                                    max_batch=MAX_BATCH, cache_size=0)
        seconds, responses = await _serve_concurrently(stacked,
                                                       stacked_requests)
        _assert_responses_identical_to_serial(responses, stacked_requests)
        snap = stacked.metrics_snapshot()
        stack_counts = snap["service"]["serve.stack"]["counts"]
        assert stack_counts["width"] == stack_counts["requests"], (
            "stack widths must sum to the stacked-executed request count"
        )
        out["stacked"] = {
            "wall_time_s": seconds,
            "stacks": stack_counts["stacks"],
            "stacked_requests": stack_counts["requests"],
            "mean_stack_width": snap["service"]["serve.stack.width"]["mean"],
        }
        # Content-addressed steady state: identical traffic, warm cache.
        cached = SimulationService(pool=pool, max_inflight=len(requests),
                                   max_batch=MAX_BATCH, cache_size=1024)
        await _serve_concurrently(cached, requests)  # populate, untimed
        seconds, responses = await _serve_concurrently(cached, requests)
        _assert_responses_identical_to_serial(responses, requests)
        assert all(r.get("cached") for r in responses), (
            "warm-cache pass expected every response from the result cache"
        )
        out["cached"] = {
            "wall_time_s": seconds,
            "hits": cached.cache.hits,
        }
        return out

    best: Dict[str, Dict[str, object]] = {}
    for _ in range(repeats):
        round_out = asyncio.run(one_round())
        for mode, stats in round_out.items():
            if (mode not in best
                    or stats["wall_time_s"] < best[mode]["wall_time_s"]):
                best[mode] = stats
    for stats in best.values():
        stats["requests_per_sec"] = len(requests) / stats["wall_time_s"]
    return best


def run_bench(n_requests: int = N_REQUESTS, n_shards: int = N_SHARDS,
              repeats: int = 2,
              n_concurrent: int = N_CONCURRENT) -> Dict[str, object]:
    """The full measurement → one ``repro-bench/1`` document."""
    payloads = _payloads(n_requests)
    t_warm = t_fresh = float("inf")
    for _ in range(repeats):
        warm_s, warm_results = measure_warm(payloads, n_shards=n_shards)
        fresh_s, fresh_results = measure_fresh(payloads)
        _assert_identical_to_serial(warm_results, payloads)
        _assert_identical_to_serial(fresh_results, payloads)
        t_warm = min(t_warm, warm_s)
        t_fresh = min(t_fresh, fresh_s)
    speedup = t_fresh / t_warm if t_warm > 0 else float("inf")
    warm_fresh_run = {
        "system": "serve",
        "params": {
            "n_requests": n_requests,
            "n_shards": n_shards,
            "repeats": repeats,
            "cycles": CYCLES,
            "shapes": [list(s) for s in QUICK_SHAPES],
        },
        "warm": {
            "wall_time_s": t_warm,
            "requests_per_sec": n_requests / t_warm,
        },
        "fresh": {
            "wall_time_s": t_fresh,
            "requests_per_sec": n_requests / t_fresh,
        },
        "speedup": speedup,
        "min_speedup": MIN_SPEEDUP,
        "identical_to_serial": True,
    }
    requests = _batch_requests(n_concurrent)
    with ShardedWorkerPool(n_shards=n_shards) as pool:
        modes = measure_batching(pool, requests, repeats=repeats)
    batch_speedup = (modes["batched"]["requests_per_sec"]
                     / modes["per_request"]["requests_per_sec"])
    batching_run = {
        "system": "serve_batching",
        "params": {
            "n_concurrent": n_concurrent,
            "n_shards": n_shards,
            "repeats": repeats,
            "max_batch": MAX_BATCH,
            "shape": list(BATCH_SHAPE),
            "cycle_choices": list(BATCH_CYCLE_CHOICES),
        },
        "per_request": modes["per_request"],
        "batched": modes["batched"],
        "stacked": modes["stacked"],
        "cached": modes["cached"],
        "speedup": batch_speedup,
        "min_speedup": MIN_BATCH_SPEEDUP,
        "stacked_ratio": (modes["stacked"]["requests_per_sec"]
                          / modes["batched"]["requests_per_sec"]),
        "min_stacked_ratio": MIN_STACKED_RATIO,
        "identical_to_serial": True,
    }
    return {
        "bench": "serve",
        "schema": SCHEMA,
        "quick": True,
        "runs": [warm_fresh_run, batching_run],
        "timing": {
            "requests_per_sec": {
                "fresh": warm_fresh_run["fresh"]["requests_per_sec"],
                "warm": warm_fresh_run["warm"]["requests_per_sec"],
                "per_request": modes["per_request"]["requests_per_sec"],
                "batched": modes["batched"]["requests_per_sec"],
                "stacked": modes["stacked"]["requests_per_sec"],
                "cached": modes["cached"]["requests_per_sec"],
            },
        },
    }


def test_warm_sharded_pool_speedup():
    from benchmarks._report import emit_table

    payloads = _payloads(16)
    t_warm = t_fresh = float("inf")
    for _ in range(2):
        warm_s, warm_results = measure_warm(payloads)
        fresh_s, fresh_results = measure_fresh(payloads)
        _assert_identical_to_serial(warm_results, payloads)
        _assert_identical_to_serial(fresh_results, payloads)
        t_warm = min(t_warm, warm_s)
        t_fresh = min(t_fresh, fresh_s)
    speedup = t_fresh / t_warm if t_warm > 0 else float("inf")
    emit_table(
        "Serving: warm sharded pool vs fresh pool per request",
        ["path", "wall (s)", "req/s"],
        [("warm", f"{t_warm:.3f}", f"{len(payloads) / t_warm:.1f}"),
         ("fresh", f"{t_fresh:.3f}", f"{len(payloads) / t_fresh:.1f}"),
         ("speedup", f"{speedup:.1f}x", f">= {MIN_SPEEDUP}x")],
    )
    assert speedup >= MIN_SPEEDUP, (
        f"warm sharded pool only {speedup:.1f}x over "
        f"fresh-pool-per-request, need >= {MIN_SPEEDUP}x"
    )


def test_micro_batched_dispatch_speedup():
    from benchmarks._report import emit_table

    requests = _batch_requests(N_CONCURRENT)
    with ShardedWorkerPool(n_shards=N_SHARDS) as pool:
        modes = measure_batching(pool, requests, repeats=2)
    speedup = (modes["batched"]["requests_per_sec"]
               / modes["per_request"]["requests_per_sec"])
    emit_table(
        f"Serving: micro-batched vs per-request dispatch "
        f"({N_CONCURRENT} concurrent same-shape requests)",
        ["mode", "wall (s)", "req/s"],
        [("per_request", f"{modes['per_request']['wall_time_s']:.3f}",
          f"{modes['per_request']['requests_per_sec']:.1f}"),
         ("batched", f"{modes['batched']['wall_time_s']:.3f}",
          f"{modes['batched']['requests_per_sec']:.1f}"),
         ("stacked", f"{modes['stacked']['wall_time_s']:.3f}",
          f"{modes['stacked']['requests_per_sec']:.1f}"),
         ("cached", f"{modes['cached']['wall_time_s']:.3f}",
          f"{modes['cached']['requests_per_sec']:.1f}"),
         ("speedup", f"{speedup:.1f}x", f">= {MIN_BATCH_SPEEDUP}x")],
    )
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"micro-batched dispatch only {speedup:.1f}x over per-request "
        f"dispatch, need >= {MIN_BATCH_SPEEDUP}x"
    )
    assert (modes["stacked"]["requests_per_sec"]
            >= MIN_STACKED_RATIO * modes["batched"]["requests_per_sec"]), (
        "stacked-engine flushes slower than plain micro-batched dispatch "
        "— stacking must never cost throughput"
    )
    assert (modes["cached"]["requests_per_sec"]
            >= modes["batched"]["requests_per_sec"]), (
        "cache hits slower than batched dispatch — the cache is not "
        "serving from memory"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=".",
                        help="directory for BENCH_serve.json")
    parser.add_argument("--requests", type=int, default=N_REQUESTS)
    parser.add_argument("--concurrent", type=int, default=N_CONCURRENT)
    parser.add_argument("--shards", type=int, default=N_SHARDS)
    parser.add_argument("--repeats", type=int, default=2)
    args = parser.parse_args(argv)
    doc = run_bench(n_requests=args.requests, n_shards=args.shards,
                    repeats=args.repeats, n_concurrent=args.concurrent)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "BENCH_serve.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    warm_fresh, batching = doc["runs"]
    print(f"warm        {warm_fresh['warm']['wall_time_s']:7.3f}s  "
          f"{warm_fresh['warm']['requests_per_sec']:8.1f} req/s")
    print(f"fresh       {warm_fresh['fresh']['wall_time_s']:7.3f}s  "
          f"{warm_fresh['fresh']['requests_per_sec']:8.1f} req/s")
    print(f"warm/fresh speedup {warm_fresh['speedup']:.1f}x "
          f"(gate >= {MIN_SPEEDUP}x)")
    for mode in ("per_request", "batched", "stacked", "cached"):
        print(f"{mode:<11} {batching[mode]['wall_time_s']:7.3f}s  "
              f"{batching[mode]['requests_per_sec']:8.1f} req/s")
    print(f"batched/per_request speedup {batching['speedup']:.1f}x "
          f"(gate >= {MIN_BATCH_SPEEDUP}x)")
    print(f"stacked/batched ratio {batching['stacked_ratio']:.1f}x "
          f"(gate >= {MIN_STACKED_RATIO}x)")
    print(f"wrote {path}")
    ok = (warm_fresh["speedup"] >= MIN_SPEEDUP
          and batching["speedup"] >= MIN_BATCH_SPEEDUP
          and batching["stacked_ratio"] >= MIN_STACKED_RATIO)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
