"""Fast-path speedup microbench: batch engines vs slot-by-slot reference.

Three differential-equivalence-plus-speedup proofs, one per batched layer:

* **core** — the CFM under full load (every processor always has an
  outstanding block read, reissued from the completion callback) across
  the Table 3.3 shapes: :meth:`CFMemory.run_batch` vs :meth:`CFMemory.
  run`, >= 5x on the larger shapes.
* **coherence** — the cache protocol under full load (proc-private
  offsets, every processor streaming loads and stores):
  :meth:`CacheSystem.run_ops_batch` vs :meth:`CacheSystem.run_ops`,
  >= 3x on the gated shape.
* **hierarchy** — the two-level machine with all-local traffic (L2
  seeded dirty): :meth:`SlotAccurateHierarchy.run_ops_batch` vs
  :meth:`~SlotAccurateHierarchy.run_ops`, >= 2x.

Stage 3 adds the vectorized-engine gate (reference vs vectorized, >= 10x
on the large shapes) and stage 4 the stacked-engine gate (a stack of 16
same-shape runs vs the same specs run sequentially on the reference
engine, >= 30x at (64, 16)).  Every engine name but ``reference`` selects
the same span walk, so both gates measure it against the per-slot path.

Every repeat asserts the two paths bit-identical before timing counts.

Run standalone for the timing tables::

    PYTHONPATH=src python benchmarks/bench_fastpath.py

or through pytest (``pytest benchmarks/bench_fastpath.py -s``).
"""

from __future__ import annotations

import gc
import random
import time
from typing import List, Tuple

import pytest

from repro.core.cfm import AccessKind, CFMemory
from repro.core.config import CFMConfig

SHAPES = [(4, 1), (8, 2), (16, 4), (32, 8)]
#: Shapes the >= 5x gate applies to.  Small shapes spend most of their
#: time in completion callbacks (one completion every b slots), so their
#: speedup is structurally lower; the gate targets the shapes where the
#: per-slot scan dominates.
GATED_SHAPES = [(16, 4), (32, 8)]
MIN_SPEEDUP = 5.0

#: Coherence layer: (n_procs, bank_cycle) CacheSystem shapes; the gate
#: applies to the last (largest) one.
CACHE_SHAPES = [(8, 2), (16, 4)]
MIN_CACHE_SPEEDUP = 3.0
CACHE_ROUNDS = 60

#: Hierarchy layer: (n_clusters, procs_per_cluster, bank_cycle).
HIER_SHAPE = (4, 4, 8)
MIN_HIER_SPEEDUP = 2.0
HIER_ROUNDS = 40

#: Stage 3: shapes the vectorized engine is gated on, with the slot count
#: per shape (a few full rotations of the b=n·c bank cycle each, so the
#: span walk's whole-block read memo gets exercised).
VECTOR_SHAPES = [((64, 16), 4 * 64 * 16), ((128, 32), 3 * 128 * 32)]
MIN_VECTOR_SPEEDUP = 10.0

#: Stage 4: the stacked engine gate — a stack of STACK_WIDTH same-shape
#: bench specs executed as one stacked run vs the same specs run
#: sequentially on the per-slot reference engine.  30x is the floor the
#: former pair of gates implied together (vectorized >= 10x reference,
#: stack >= 3x sequential vectorized).
STACK_SHAPE = (64, 16)
STACK_SLOTS = 4 * 64 * 16
STACK_WIDTH = 16
MIN_STACK_SPEEDUP = 30.0


def _full_load(mem: CFMemory, log: List[Tuple[int, int, int]]) -> None:
    def reissue(acc):
        log.append((acc.access_id, acc.proc, acc.complete_slot))
        mem.issue(acc.proc, AccessKind.READ, offset=acc.proc,
                  on_finish=reissue)

    for p in range(mem.cfg.n_procs):
        mem.issue(p, AccessKind.READ, offset=p, on_finish=reissue)


def _run_one(n_procs: int, bank_cycle: int, slots: int, fast: bool):
    mem = CFMemory(CFMConfig(n_procs=n_procs, bank_cycle=bank_cycle))
    log: List[Tuple[int, int, int]] = []
    _full_load(mem, log)
    # The workload retains every completed access (~n·b Word entries per
    # round); collector pauses landing inside one timed region but not the
    # other would skew the ratio, so GC is parked during timing.
    gc.collect()
    gc.disable()
    t0 = time.perf_counter()
    if fast:
        mem.run_batch(slots)
    else:
        mem.run(slots)
    elapsed = time.perf_counter() - t0
    gc.enable()
    return log, mem.slot, elapsed


def measure(slots: int = 20_000, repeats: int = 3):
    """(shape, slow seconds, fast seconds, speedup) per Table 3.3 shape.

    Best-of-``repeats`` per path (the minimum is the least-noise estimate
    of the true cost); the two paths' completion logs are asserted
    identical on every repeat."""
    rows = []
    for n_procs, bank_cycle in SHAPES:
        t_slow = t_fast = float("inf")
        for _ in range(repeats):
            log_slow, end_slow, ts = _run_one(
                n_procs, bank_cycle, slots, fast=False)
            log_fast, end_fast, tf = _run_one(
                n_procs, bank_cycle, slots, fast=True)
            assert log_slow == log_fast, "fast path diverged from reference"
            assert end_slow == end_fast == slots
            t_slow = min(t_slow, ts)
            t_fast = min(t_fast, tf)
        rows.append(((n_procs, bank_cycle), t_slow, t_fast,
                     t_slow / t_fast if t_fast > 0 else float("inf")))
    return rows


def test_fastpath_speedup():
    from benchmarks._report import emit_table

    rows = measure()
    emit_table(
        "CFM full-load: slot-by-slot vs batch engine (20k slots)",
        ["shape (n, c)", "slow (s)", "fast (s)", "speedup"],
        [(f"({n}, {c})", f"{ts:.3f}", f"{tf:.3f}", f"{sp:.1f}x")
         for (n, c), ts, tf, sp in rows],
    )
    gated = {shape: sp for shape, _, _, sp in rows if shape in
             [tuple(s) for s in GATED_SHAPES]}
    for shape, speedup in gated.items():
        assert speedup >= MIN_SPEEDUP, (
            f"fast path only {speedup:.1f}x on {shape}, "
            f"need >= {MIN_SPEEDUP}x"
        )


@pytest.mark.parametrize("n_procs,bank_cycle", SHAPES)
def test_fastpath_equivalence(n_procs, bank_cycle):
    log_slow, end_slow, _ = _run_one(n_procs, bank_cycle, 2_000, fast=False)
    log_fast, end_fast, _ = _run_one(n_procs, bank_cycle, 2_000, fast=True)
    assert log_slow == log_fast
    assert end_slow == end_fast


# --------------------------------------------------------------------------
# Coherence layer: CacheSystem.run_ops_batch vs run_ops


def _cache_plan(n_procs: int, rounds: int, seed: int = 1):
    """Full-load conflict-free op stream: every processor streams loads
    and stores over its own four offsets, one op per round."""
    rng = random.Random(seed)
    plan = []
    for _ in range(rounds):
        batch = []
        for p in range(n_procs):
            offset = p * 4 + rng.randrange(4)
            if rng.random() < 0.5:
                batch.append((p, "store", offset,
                              {rng.randrange(n_procs): rng.randrange(1000)}))
            else:
                batch.append((p, "load", offset, None))
        plan.append(batch)
    return plan


def _cache_fingerprint(sys_, ops):
    return (
        [(op.proc, op.kind.value, op.offset, op.issue_slot, op.done_slot,
          op.was_hit, op.retries, op.memory_accesses,
          None if op.result is None else [w.value for w in op.result.words])
         for op in ops],
        sys_.slot,
        sys_.stats_local_hits, sys_.stats_memory_ops,
    )


def _run_cache_once(n_procs: int, bank_cycle: int, rounds: int, fast: bool):
    from repro.cache.protocol import CacheSystem

    sys_ = CacheSystem(n_procs, bank_cycle=bank_cycle)
    plan = _cache_plan(n_procs, rounds)
    all_ops = []
    gc.collect()
    gc.disable()
    t0 = time.perf_counter()
    for batch in plan:
        ops = [sys_.load(p, off) if kind == "load"
               else sys_.store(p, off, words)
               for p, kind, off, words in batch]
        if fast:
            sys_.run_ops_batch(ops)
        else:
            sys_.run_ops(ops)
        all_ops.extend(ops)
    elapsed = time.perf_counter() - t0
    gc.enable()
    return _cache_fingerprint(sys_, all_ops), elapsed


def measure_cache(rounds: int = CACHE_ROUNDS, repeats: int = 3):
    rows = []
    for n_procs, bank_cycle in CACHE_SHAPES:
        t_slow = t_fast = float("inf")
        for _ in range(repeats):
            fp_slow, ts = _run_cache_once(n_procs, bank_cycle, rounds,
                                          fast=False)
            fp_fast, tf = _run_cache_once(n_procs, bank_cycle, rounds,
                                          fast=True)
            assert fp_slow == fp_fast, "batched epochs diverged from reference"
            t_slow = min(t_slow, ts)
            t_fast = min(t_fast, tf)
        rows.append(((n_procs, bank_cycle), t_slow, t_fast,
                     t_slow / t_fast if t_fast > 0 else float("inf")))
    return rows


def test_cache_batch_speedup():
    from benchmarks._report import emit_table

    rows = measure_cache()
    emit_table(
        f"Coherence full-load: run_ops vs run_ops_batch ({CACHE_ROUNDS} rounds)",
        ["shape (n, c)", "slow (s)", "fast (s)", "speedup"],
        [(f"({n}, {c})", f"{ts:.3f}", f"{tf:.3f}", f"{sp:.1f}x")
         for (n, c), ts, tf, sp in rows],
    )
    shape, _, _, speedup = rows[-1]
    assert speedup >= MIN_CACHE_SPEEDUP, (
        f"batched epochs only {speedup:.1f}x on {shape}, "
        f"need >= {MIN_CACHE_SPEEDUP}x"
    )


@pytest.mark.parametrize("n_procs,bank_cycle", CACHE_SHAPES)
def test_cache_batch_equivalence(n_procs, bank_cycle):
    fp_slow, _ = _run_cache_once(n_procs, bank_cycle, 12, fast=False)
    fp_fast, _ = _run_cache_once(n_procs, bank_cycle, 12, fast=True)
    assert fp_slow == fp_fast


# --------------------------------------------------------------------------
# Hierarchy layer: SlotAccurateHierarchy.run_ops_batch vs run_ops


def _hier_plan(n_clusters: int, per: int, rounds: int, seed: int = 1):
    rng = random.Random(seed)
    plan = []
    for _ in range(rounds):
        batch = []
        for g in range(n_clusters * per):
            offset = g * 4 + rng.randrange(4)
            if rng.random() < 0.5:
                batch.append((g, "store", offset,
                              {rng.randrange(per): rng.randrange(1000)}))
            else:
                batch.append((g, "load", offset, None))
        plan.append(batch)
    return plan


def _hier_fingerprint(h, ops):
    return (
        [(op.gproc, op.kind.value, op.offset, op.issue_slot, op.done_slot,
          op.nc_fetches,
          None if op.result is None else [w.value for w in op.result.words])
         for op in ops],
        [sorted((k, v.value) for k, v in d.items()) for d in h.l2],
        h.slot,
    )


def _run_hier_once(n_clusters: int, per: int, bank_cycle: int, rounds: int,
                   fast: bool):
    from repro.cache.state import CacheLineState
    from repro.core.block import Block
    from repro.hierarchy.slot_accurate import SlotAccurateHierarchy

    h = SlotAccurateHierarchy(n_clusters, per, bank_cycle=bank_cycle)
    width = h._cluster_width()
    for c in range(n_clusters):
        for p in range(per):
            base = (c * per + p) * 4
            for off in range(base, base + 4):
                h.clusters[c].mem.poke_block(
                    off, Block.of_values([off + i for i in range(width)],
                                         "seed"))
                h.l2[c][off] = CacheLineState.DIRTY
    plan = _hier_plan(n_clusters, per, rounds)
    all_ops = []
    gc.collect()
    gc.disable()
    t0 = time.perf_counter()
    for batch in plan:
        ops = [h.load(g, off) if kind == "load" else h.store(g, off, words)
               for g, kind, off, words in batch]
        if fast:
            h.run_ops_batch(ops)
        else:
            h.run_ops(ops)
        all_ops.extend(ops)
    elapsed = time.perf_counter() - t0
    gc.enable()
    h.check_invariants()
    return _hier_fingerprint(h, all_ops), elapsed


def measure_hierarchy(rounds: int = HIER_ROUNDS, repeats: int = 3):
    n_clusters, per, bank_cycle = HIER_SHAPE
    t_slow = t_fast = float("inf")
    for _ in range(repeats):
        fp_slow, ts = _run_hier_once(n_clusters, per, bank_cycle, rounds,
                                     fast=False)
        fp_fast, tf = _run_hier_once(n_clusters, per, bank_cycle, rounds,
                                     fast=True)
        assert fp_slow == fp_fast, "hierarchy batch diverged from reference"
        t_slow = min(t_slow, ts)
        t_fast = min(t_fast, tf)
    return t_slow, t_fast, t_slow / t_fast if t_fast > 0 else float("inf")


def test_hierarchy_batch_speedup():
    from benchmarks._report import emit_table

    t_slow, t_fast, speedup = measure_hierarchy()
    n_clusters, per, bank_cycle = HIER_SHAPE
    emit_table(
        f"Hierarchy all-local: run_ops vs run_ops_batch ({HIER_ROUNDS} rounds)",
        ["shape (k, m, c)", "slow (s)", "fast (s)", "speedup"],
        [(f"({n_clusters}, {per}, {bank_cycle})", f"{t_slow:.3f}",
          f"{t_fast:.3f}", f"{speedup:.1f}x")],
    )
    assert speedup >= MIN_HIER_SPEEDUP, (
        f"hierarchy batch only {speedup:.1f}x on {HIER_SHAPE}, "
        f"need >= {MIN_HIER_SPEEDUP}x"
    )


def test_hierarchy_batch_equivalence():
    fp_slow, _ = _run_hier_once(2, 4, 2, 10, fast=False)
    fp_fast, _ = _run_hier_once(2, 4, 2, 10, fast=True)
    assert fp_slow == fp_fast


# --------------------------------------------------------------------------
# Stage 3: vectorized epoch engine vs slot-by-slot reference


def _run_engine_once(n_procs: int, bank_cycle: int, slots: int, engine: str):
    mem = CFMemory(CFMConfig(n_procs=n_procs, bank_cycle=bank_cycle))
    log: List[Tuple[int, int, int]] = []
    _full_load(mem, log)
    gc.collect()
    gc.disable()
    t0 = time.perf_counter()
    mem.run_engine(slots, engine=engine)
    elapsed = time.perf_counter() - t0
    gc.enable()
    return log, mem.slot, elapsed


def measure_vector(repeats: int = 3):
    """(shape, reference s, vectorized s, speedup) per gated shape.

    Each repeat runs all three engines and asserts their completion logs
    bit-identical before the timing counts; the speedup compared is the
    vectorized engine against the slot-by-slot reference."""
    from repro.fastpath.engine import (
        ENGINE_BATCH, ENGINE_REFERENCE, ENGINE_VECTORIZED,
    )

    rows = []
    for (n_procs, bank_cycle), slots in VECTOR_SHAPES:
        t_ref = t_vec = float("inf")
        for _ in range(repeats):
            log_ref, end_ref, ts = _run_engine_once(
                n_procs, bank_cycle, slots, ENGINE_REFERENCE)
            log_bat, end_bat, _ = _run_engine_once(
                n_procs, bank_cycle, slots, ENGINE_BATCH)
            log_vec, end_vec, tv = _run_engine_once(
                n_procs, bank_cycle, slots, ENGINE_VECTORIZED)
            assert log_ref == log_bat == log_vec, (
                "engines diverged on the full-load workload")
            assert end_ref == end_bat == end_vec == slots
            t_ref = min(t_ref, ts)
            t_vec = min(t_vec, tv)
        rows.append(((n_procs, bank_cycle), slots, t_ref, t_vec,
                     t_ref / t_vec if t_vec > 0 else float("inf")))
    return rows


# --------------------------------------------------------------------------
# Stage 4: stacked runs vs sequential reference


def _stack_spec(engine: str):
    n_procs, bank_cycle = STACK_SHAPE
    return {"system": "cfm",
            "params": {"n_procs": n_procs, "bank_cycle": bank_cycle,
                       "cycles": STACK_SLOTS, "engine": engine}}


def _without_engine(report):
    params = dict(report["params"])
    params.pop("engine")
    return dict(report, params=params)


def measure_stack(repeats: int = 3):
    """(sequential-reference s, stacked s, speedup) for a stack of
    ``STACK_WIDTH`` identical ``STACK_SHAPE`` bench specs.

    Bit-identity is asserted before any timing counts: the stacked
    reports must equal per-spec serial :func:`repro.obs.bench.run_spec`
    of the same specs (invariant 11), and the reference reports must
    equal them but for the engine pin.  The timed comparison then runs
    the same workload per path — ``STACK_WIDTH`` sequential runs on the
    per-slot reference engine vs one stacked execution."""
    from repro.fastpath.stack import run_specs_stacked
    from repro.obs.bench import run_spec

    ref_specs = [_stack_spec("reference") for _ in range(STACK_WIDTH)]
    stack_specs = [_stack_spec("stacked") for _ in range(STACK_WIDTH)]
    serial = [run_spec(spec) for spec in stack_specs]
    stacked = run_specs_stacked(stack_specs)
    assert serial == stacked, (
        "stacked reports diverged from per-spec serial run_spec")
    t_ref = t_stack = float("inf")
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        t0 = time.perf_counter()
        reference = [run_spec(spec) for spec in ref_specs]
        tr = time.perf_counter() - t0
        t0 = time.perf_counter()
        run_specs_stacked(stack_specs)
        tk = time.perf_counter() - t0
        gc.enable()
        assert [_without_engine(r) for r in reference] == \
            [_without_engine(r) for r in stacked], (
                "stacked reports diverged from the reference engine")
        t_ref = min(t_ref, tr)
        t_stack = min(t_stack, tk)
    return t_ref, t_stack, t_ref / t_stack if t_stack > 0 else float("inf")


def test_stack_engine_speedup():
    from benchmarks._report import emit_table

    t_ref, t_stack, speedup = measure_stack()
    n_procs, bank_cycle = STACK_SHAPE
    emit_table(
        f"CFM stack-of-{STACK_WIDTH}: sequential reference vs stacked "
        f"({STACK_SLOTS} slots each)",
        ["shape (n, c)", "seq ref (s)", "stacked (s)", "speedup"],
        [(f"({n_procs}, {bank_cycle})", f"{t_ref:.3f}", f"{t_stack:.3f}",
          f"{speedup:.1f}x")],
    )
    assert speedup >= MIN_STACK_SPEEDUP, (
        f"stacked engine only {speedup:.1f}x on a stack of {STACK_WIDTH} "
        f"{STACK_SHAPE} runs, need >= {MIN_STACK_SPEEDUP}x"
    )


def test_vector_engine_speedup():
    from benchmarks._report import emit_table

    rows = measure_vector()
    emit_table(
        "CFM full-load: reference vs vectorized engine",
        ["shape (n, c)", "slots", "ref (s)", "vec (s)", "speedup"],
        [(f"({n}, {c})", str(slots), f"{ts:.3f}", f"{tv:.3f}", f"{sp:.1f}x")
         for (n, c), slots, ts, tv, sp in rows],
    )
    for (n, c), _, _, _, speedup in rows:
        assert speedup >= MIN_VECTOR_SPEEDUP, (
            f"vectorized engine only {speedup:.1f}x on ({n}, {c}), "
            f"need >= {MIN_VECTOR_SPEEDUP}x"
        )


if __name__ == "__main__":
    for (n, c), t_slow, t_fast, speedup in measure():
        print(f"core  (n={n:3d}, c={c:2d})  slow {t_slow:7.3f}s  "
              f"fast {t_fast:7.3f}s  {speedup:5.1f}x")
    for (n, c), t_slow, t_fast, speedup in measure_cache():
        print(f"cache (n={n:3d}, c={c:2d})  slow {t_slow:7.3f}s  "
              f"fast {t_fast:7.3f}s  {speedup:5.1f}x")
    k, m, c = HIER_SHAPE
    t_slow, t_fast, speedup = measure_hierarchy()
    print(f"hier  (k={k}, m={m}, c={c})  slow {t_slow:7.3f}s  "
          f"fast {t_fast:7.3f}s  {speedup:5.1f}x")
    for (n, c), slots, t_ref, t_vec, speedup in measure_vector():
        print(f"vec   (n={n:3d}, c={c:2d})  ref  {t_ref:7.3f}s  "
              f"vec  {t_vec:7.3f}s  {speedup:5.1f}x  ({slots} slots)")
    n, c = STACK_SHAPE
    t_ref, t_stack, speedup = measure_stack()
    print(f"stack (n={n:3d}, c={c:2d})  ref  {t_ref:7.3f}s  "
          f"stk  {t_stack:7.3f}s  {speedup:5.1f}x  "
          f"(width {STACK_WIDTH}, {STACK_SLOTS} slots)")
