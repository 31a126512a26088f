"""Stage-3 fastpath: the engine seam and the span walk behind it.

Three proof obligations:

* **engine seam** — ``resolve_engine`` and the per-layer ``engine=``
  constructor/dispatch surface behave identically everywhere.
* **three-way differential** — every engine name produces bit-identical
  full-state fingerprints on every layer, across shapes from (4, 1) to
  (128, 32), with and without a zero-fault plan attached, and under a
  degraded bank (the span walk must detect degraded mode and tick
  per-slot).  Observed runs also compare every completed read's result
  block, which pins the span walk's shared whole-block read memo.
* **observability** — HotpathProfiler per-layer counter sums equal the
  slots each layer advanced (exactly ``batched_slots`` on a provably
  clean window, ``fallback.hazard`` on a write interleave, for budgets
  from 0 up), and every engine raises
  :class:`SimulationTimeout` at the identical strict boundary slot.

Satellites ride along: bounded table caches + degraded-table aliasing,
the partial bench-document contract, and the ``--engine`` CLI surface.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cache.protocol import CacheSystem
from repro.core.block import Block
from repro.core.cfm import AccessKind, CFMemory
from repro.core.config import CFMConfig
from repro.faults.chaos import (
    _build_cache_ops,
    _build_hier_ops,
    _cache_fingerprint,
    _cfm_fingerprint,
    _hier_fingerprint,
    fingerprint_cache,
    fingerprint_hier,
)
from repro.fastpath.engine import (
    DEFAULT_ENGINE,
    ENGINE_REFERENCE,
    ENGINE_VECTORIZED,
    ENGINES,
    resolve_engine,
)
from repro.fastpath.tables import (
    TABLE_CACHE_SIZE,
    bank_orders,
    shift_permutations,
    slot_bank_table,
)
from repro.hierarchy.slot_accurate import SlotAccurateHierarchy
from repro.obs.hotpath import HotpathProfiler
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import RecordingProbe
from repro.sim.engine import SimulationTimeout

# --------------------------------------------------------------------------
# Engine registry


def test_resolve_engine_defaults_and_names():
    assert resolve_engine(None) == DEFAULT_ENGINE
    for name in ENGINES:
        assert resolve_engine(name) == name
    assert resolve_engine(None, default=ENGINE_REFERENCE) == ENGINE_REFERENCE


def test_resolve_engine_rejects_unknown():
    with pytest.raises(ValueError):
        resolve_engine("turbo")


@pytest.mark.parametrize("engine", [None, *ENGINES])
def test_layer_constructors_accept_engine(engine):
    expect = resolve_engine(engine)
    assert CFMemory(CFMConfig(n_procs=4, bank_cycle=1), engine=engine).engine \
        == expect
    assert CacheSystem(4, engine=engine).engine == expect
    assert SlotAccurateHierarchy(2, 2, engine=engine).engine == expect


def test_layer_constructors_reject_unknown_engine():
    with pytest.raises(ValueError):
        CFMemory(CFMConfig(n_procs=4, bank_cycle=1), engine="turbo")
    with pytest.raises(ValueError):
        CacheSystem(4, engine="turbo")
    with pytest.raises(ValueError):
        SlotAccurateHierarchy(2, 2, engine="turbo")


# --------------------------------------------------------------------------
# Three-way engine differential (satellite 4)

CFM_SHAPES = [(4, 1), (8, 2), (16, 4), (32, 8), (64, 16), (128, 32)]
#: Shapes small enough to also sweep with a zero-fault plan attached.
CFM_ZERO_SHAPES = [(4, 1), (8, 2), (16, 4), (32, 8)]


@pytest.mark.parametrize("n_procs,bank_cycle", CFM_SHAPES)
def test_cfm_three_way_bit_identical(n_procs, bank_cycle):
    zeros = (False, True) if (n_procs, bank_cycle) in CFM_ZERO_SHAPES \
        else (False,)
    for attach_zero in zeros:
        prints = [
            _cfm_fingerprint(n_procs, bank_cycle, engine, attach_zero)
            for engine in ENGINES
        ]
        assert all(p == prints[0] for p in prints), (
            n_procs, bank_cycle, attach_zero)


@pytest.mark.parametrize("attach_zero", [False, True])
def test_cache_three_way_bit_identical(attach_zero):
    prints = [
        _cache_fingerprint(4, rounds=4, seed=5, engine=engine,
                           attach_zero=attach_zero)
        for engine in ENGINES
    ]
    assert all(p == prints[0] for p in prints)


@pytest.mark.parametrize("attach_zero", [False, True])
def test_hierarchy_three_way_bit_identical(attach_zero):
    prints = [
        _hier_fingerprint(2, 2, rounds=3, seed=7, engine=engine,
                          attach_zero=attach_zero)
        for engine in ENGINES
    ]
    assert all(p == prints[0] for p in prints)


def _degraded_cache_fingerprint(engine):
    sys_ = CacheSystem(4, bank_cycle=2)
    sys_.mem.degrade_bank(3)
    ops = _build_cache_ops(sys_, 4, rounds=5, seed=9)
    sys_.run_ops_engine(ops, engine=engine)
    return fingerprint_cache(sys_, ops)


def test_cache_degraded_three_way_bit_identical():
    """Regression for the latent stage-2 bug: the batch classifier never
    checked degraded mode, but its span replayer indexes the *healthy*
    period-b table — under the period-(b-1) degraded schedule it would
    read the wrong banks.  Both fast engines must now detect the degraded
    module and tick per-slot, matching the reference bit for bit."""
    prints = [_degraded_cache_fingerprint(engine) for engine in ENGINES]
    assert all(p == prints[0] for p in prints)


def _degraded_hier_fingerprint(engine):
    hier = SlotAccurateHierarchy(2, 2, bank_cycle=2)
    hier.clusters[0].mem.degrade_bank(2)
    ops = _build_hier_ops(hier, rounds=3, seed=11)
    hier.run_ops_engine(ops, engine=engine)
    return fingerprint_hier(hier, ops)


def test_hierarchy_degraded_three_way_bit_identical():
    prints = [_degraded_hier_fingerprint(engine) for engine in ENGINES]
    assert all(p == prints[0] for p in prints)


def test_degraded_cache_counts_tick_degraded():
    hp = HotpathProfiler()
    sys_ = CacheSystem(4, bank_cycle=2, hotpath=hp)
    sys_.mem.degrade_bank(3)
    ops = _build_cache_ops(sys_, 4, rounds=2, seed=9)
    sys_.run_ops_batch(ops)
    events = hp.snapshot()["cache"]
    assert events.get("tick.degraded", 0) > 0
    assert events.get("batched_slots", 0) == 0


# --------------------------------------------------------------------------
# Metrics snapshots identical across engines (satellite 4)


def _metered_cfm(engine):
    reg = MetricsRegistry()
    mem = CFMemory(CFMConfig(n_procs=8, bank_cycle=2), metrics=reg)
    done = []
    for p in range(8):
        mem.issue(p, AccessKind.READ, offset=p % 3,
                  on_finish=lambda a: done.append((a.proc, a.complete_slot)))
    mem.run_engine(40, engine=engine)
    return done, mem.slot, reg.snapshot()


def test_cfm_metrics_snapshot_identical_across_engines():
    """Metrics never change the result and every engine feeds them alike:
    the reference ticks, and every other name rides the span walk, which
    accumulates bank utilization in bulk — so the snapshot is identical
    regardless of strategy."""
    prints = [_metered_cfm(engine) for engine in ENGINES]
    assert all(p == prints[0] for p in prints)
    assert prints[0][2]  # the registry really was fed


# --------------------------------------------------------------------------
# Observed run_batch == per-slot run (metrics ride the batch engine)

#: (n_procs, bank_cycle): degenerate one- and two-bank machines, c = n,
#: non-power-of-two shapes, and the Table 3.3 shapes.
OBSERVED_SHAPES = [(1, 1), (2, 1), (3, 2), (4, 4), (4, 1), (8, 2), (16, 4),
                   (32, 8), (5, 3)]


def _drive_reissue(mem, advance, cycles, shared):
    """Re-issue from the finish callback; every third re-issue is a write.

    Private offsets keep the batch engine hazard-free; ``shared`` puts
    every processor on offset 0, so a write meets a same-offset access and
    forces per-slot ticks mid-run.  The window is advanced in uneven
    chunks, so spans start and end mid-access and mid-hold-window."""
    n_banks = mem.cfg.n_banks
    counts = [0] * mem.cfg.n_procs

    def reissue(acc):
        p = acc.proc
        counts[p] += 1
        offset = 0 if shared else p
        if counts[p] % 3 == 0:
            data = Block.of_values([counts[p] * 100 + p] * n_banks)
            mem.issue(p, AccessKind.WRITE, offset, data=data,
                      version=f"P{p}.{counts[p]}", on_finish=reissue)
        else:
            mem.issue(p, AccessKind.READ, offset, on_finish=reissue)

    for p in range(mem.cfg.n_procs):
        mem.issue(p, AccessKind.READ, 0 if shared else p, on_finish=reissue)
    chunks = (1, n_banks + 1, 2, 3 * n_banks - 1, 5)
    k = 0
    while mem.slot < cycles:
        advance(min(chunks[k % len(chunks)], cycles - mem.slot))
        k += 1


def _drive_top_of_slot(mem, advance, cycles, shared):
    """Issue at the top of a slot (the observed bench driver's semantics).

    After each completion a processor rests ``(access_id + 2p) % 7`` slots
    before re-issuing, and nobody issues in every third b-slot stretch, so
    the in-flight accesses drain and the rest of the stretch is an idle
    leap entered with bank hold windows still carried in."""
    del shared
    n_banks = mem.cfg.n_banks
    n_procs = mem.cfg.n_procs
    ready = [0] * n_procs
    busy = [False] * n_procs

    def finished(acc):
        busy[acc.proc] = False
        ready[acc.proc] = mem.slot + 1 + (acc.access_id + 2 * acc.proc) % 7

    def next_issue(p, slot):
        t = max(ready[p], slot)
        if (t // n_banks) % 3 == 2:  # paused stretch: wait for its end
            t = (t // n_banks + 1) * n_banks
        return t

    while mem.slot < cycles:
        slot = mem.slot
        for p in range(n_procs):
            if not busy[p] and next_issue(p, slot) == slot:
                mem.issue(p, AccessKind.READ, p % 3, on_finish=finished)
                busy[p] = True
        nxt = min([next_issue(p, slot) for p in range(n_procs)
                   if not busy[p]]
                  + [slot + n_banks - a.words_done for a in mem.active])
        advance(min(nxt, cycles) - slot)


def _drive_poke(mem, advance, cycles, shared):
    """Full-load reads of private offsets re-issued from the finish
    callback, where every fifth completion first installs a fresh block
    at its offset with ``poke_block``: a store the span walk did not make,
    so the walk's whole-block read memo must notice it through the write
    stamp.  (Offsets stay private: a poke into an offset another access
    reads in the same completion slot is outside the batch path's
    contract — tick() would let that access see it on its last word.)"""
    del shared
    n_banks = mem.cfg.n_banks
    pokes = [0]

    def reissue(acc):
        if acc.access_id % 5 == 4:
            pokes[0] += 1
            mem.poke_block(acc.offset, Block.of_values(
                [pokes[0] * 1000 + k for k in range(n_banks)],
                f"poke{pokes[0]}"))
        mem.issue(acc.proc, AccessKind.READ, acc.proc, on_finish=reissue)

    for p in range(mem.cfg.n_procs):
        mem.issue(p, AccessKind.READ, p, on_finish=reissue)
    chunks = (n_banks, 2 * n_banks + 1, 3 * n_banks - 1)
    k = 0
    while mem.slot < cycles:
        advance(min(chunks[k % len(chunks)], cycles - mem.slot))
        k += 1


def _drive_stagger(mem, advance, cycles, shared):
    """Staggered full load on one offset: proc p first issues at slot p,
    so accesses finish on successive slots and spans start and end
    mid-access; every third re-issue of proc 0 is a write, which lands
    while the other processors' reads of the offset are in flight (the
    Fig 4.1 interleave, ticked slot by slot).  Reads that began in a
    batched span and then meet the write must each keep the words they
    collected themselves."""
    del shared
    n_banks = mem.cfg.n_banks
    n_procs = mem.cfg.n_procs
    writes = [0]

    def reissue(acc):
        if acc.proc == 0 and acc.access_id % 3 == 2:
            writes[0] += 1
            data = Block.of_values([writes[0] * 100 + k
                                    for k in range(n_banks)])
            mem.issue(0, AccessKind.WRITE, 0, data=data,
                      version=f"W{writes[0]}", on_finish=reissue)
        else:
            mem.issue(acc.proc, AccessKind.READ, 0, on_finish=reissue)

    chunks = (1, n_banks + 1, 2, 3 * n_banks - 1, 5)
    k = 0
    while mem.slot < cycles:
        if mem.slot < n_procs:
            mem.issue(mem.slot, AccessKind.READ, 0, on_finish=reissue)
            advance(1)
            continue
        advance(min(chunks[k % len(chunks)], cycles - mem.slot))
        k += 1


def _drive_reads(mem, advance, cycles, shared, stride=1):
    """Full-load streaming reads of shared offsets ``p % 4``, re-issued
    from the finish callback and advanced as one window; ``stride > 1``
    leaves every other processor idle."""
    del shared

    def reissue(acc):
        mem.issue(acc.proc, AccessKind.READ, acc.proc % 4, on_finish=reissue)

    for p in range(0, mem.cfg.n_procs, stride):
        mem.issue(p, AccessKind.READ, p % 4, on_finish=reissue)
    advance(cycles)


def _drive_private_writes(mem, advance, cycles, shared):
    """Every second re-issue of a processor writes its private offset:
    hazard-free writes between whole-block reads of the same offset,
    which exercise the walk's write branch and memo invalidation."""
    del shared
    n_banks = mem.cfg.n_banks
    counts = [0] * mem.cfg.n_procs

    def reissue(acc):
        p = acc.proc
        counts[p] += 1
        if counts[p] % 2 == 0:
            data = Block.of_values([counts[p] * 100 + p] * n_banks)
            mem.issue(p, AccessKind.WRITE, p, data=data,
                      version=f"P{p}.{counts[p]}", on_finish=reissue)
        else:
            mem.issue(p, AccessKind.READ, p, on_finish=reissue)

    for p in range(mem.cfg.n_procs):
        mem.issue(p, AccessKind.READ, p, on_finish=reissue)
    advance(cycles)


def _drive_conflicting_writes(mem, advance, cycles, shared):
    """Processors 0 and 1 write offset 0 on every third re-issue: under
    full load both writes are in flight together, the write-interleave
    hazard breaks the static proof, and the walk ticks through it."""
    del shared
    n_banks = mem.cfg.n_banks
    counts = [0] * mem.cfg.n_procs

    def reissue(acc):
        p = acc.proc
        counts[p] += 1
        if p < 2 and counts[p] % 3 == 0:
            data = Block.of_values([counts[p] * 10 + p] * n_banks)
            mem.issue(p, AccessKind.WRITE, 0, data=data,
                      version=f"W{p}.{counts[p]}", on_finish=reissue)
        else:
            mem.issue(p, AccessKind.READ, p, on_finish=reissue)

    for p in range(mem.cfg.n_procs):
        mem.issue(p, AccessKind.READ, p, on_finish=reissue)
    advance(cycles)


def _drive_once(mem, advance, cycles, shared):
    """One read per processor, then nothing: one b-slot span of reads
    followed by an idle leap over the rest of the window."""
    del shared
    for p in range(mem.cfg.n_procs):
        mem.issue(p, AccessKind.READ, p % 3)
    advance(cycles)


OBSERVED_DRIVERS = {"reissue": _drive_reissue, "top": _drive_top_of_slot,
                    "poke": _drive_poke, "stagger": _drive_stagger,
                    "reads": _drive_reads,
                    "reads2": lambda *a: _drive_reads(*a, stride=2),
                    "private": _drive_private_writes,
                    "conflict": _drive_conflicting_writes,
                    "once": _drive_once}
#: Drivers whose whole window is provably batchable: every slot is a
#: batched slot, none ticks.
CLEAN_DRIVERS = ("reads", "reads2", "private")


def _observed_run(n_procs, bank_cycle, driver, cycles, batched, shared=False,
                  probe=None):
    reg = MetricsRegistry()
    mem = CFMemory(CFMConfig(n_procs=n_procs, bank_cycle=bank_cycle),
                   metrics=reg, probe=probe)
    hp = mem.hotpath = HotpathProfiler()
    OBSERVED_DRIVERS[driver](mem, mem.run_batch if batched else mem.run,
                             cycles, shared)
    # Result blocks are read at the end of the run, so a memo dict that
    # was stale when handed out, or mutated after, shows up here.
    stream = [(a.access_id, a.proc, a.kind.value, a.state.value,
               a.issue_slot, a.complete_slot, a.first_bank,
               a.result.words if a.kind.is_read else None)
              for a in mem.completed]
    state = (mem.slot, [sorted(bank.items()) for bank in mem.banks],
             [(a.access_id, a.words_done) for a in mem.active])
    return (stream, state, reg.snapshot()), hp.snapshot().get("cfm", {})


@pytest.mark.parametrize("driver", sorted(OBSERVED_DRIVERS))
@pytest.mark.parametrize("n_procs,bank_cycle", OBSERVED_SHAPES)
def test_cfm_observed_batch_matches_per_slot(n_procs, bank_cycle, driver):
    """An observed run_batch(n) leaves the registry snapshot, completion
    stream and memory state of per-slot run(n) — and really batches: the
    profiler's slot counters sum to the window, a provably clean window
    is batched whole, and a write interleave is ticked as a hazard."""
    n_banks = n_procs * bank_cycle
    # An empty budget, then window ends off any multiple of b, some inside
    # a c > 1 hold window.
    for cycles in (0, 1, bank_cycle, 3 * n_banks + 1, 7 * n_banks - 2):
        for shared in ((False, True) if driver == "reissue" else (False,)):
            ref, _ = _observed_run(n_procs, bank_cycle, driver, cycles,
                                   batched=False, shared=shared)
            got, events = _observed_run(n_procs, bank_cycle, driver, cycles,
                                        batched=True, shared=shared)
            assert got == ref, (cycles, shared)
            assert sum(events.values()) == cycles, (cycles, events)
            assert "tick.pinned" not in events
            if cycles > 1:
                assert events.get("batched_slots", 0) > 0, (cycles, events)
            hazard = shared or driver == "conflict"
            if hazard and n_procs > 1 and cycles > 3 * n_banks:
                assert events.get("fallback.hazard", 0) > 0
                assert events.get("batched_slots", 0) < cycles
            if driver in CLEAN_DRIVERS and cycles:
                assert events == {"batched_slots": cycles}, (cycles, events)
            if driver == "once" and cycles > n_banks:
                assert events == {"batched_slots": n_banks,
                                  "skipped_slots": cycles - n_banks}
    # A probe is still defined per slot: it pins every slot, and the
    # snapshot and event stream stay those of the reference.
    cycles = 3 * n_banks + 1
    ref_probe, got_probe = RecordingProbe(), RecordingProbe()
    ref, _ = _observed_run(n_procs, bank_cycle, driver, cycles,
                           batched=False, probe=ref_probe)
    got, events = _observed_run(n_procs, bank_cycle, driver, cycles,
                                batched=True, probe=got_probe)
    assert got == ref
    assert [(e.source, e.event, e.t) for e in got_probe.events] == \
        [(e.source, e.event, e.t) for e in ref_probe.events]
    assert events.get("tick.pinned") == cycles
    assert "batched_slots" not in events


@pytest.mark.parametrize("n_procs,bank_cycle", OBSERVED_SHAPES)
def test_run_cfm_observed_matches_per_slot(n_procs, bank_cycle, monkeypatch):
    """``_run_cfm(engine=None)``, the observed bench issue loop, advances
    with run_batch (full spans, so reads share the span walk's memo
    dicts); its report, bank contents and every completed read's result
    block equal a run of the same loop with run_batch replaced by
    per-slot run."""
    from repro.obs.bench import _run_cfm

    mems = []
    init = CFMemory.__init__

    def capture(self, *args, **kwargs):
        init(self, *args, **kwargs)
        mems.append(self)

    monkeypatch.setattr(CFMemory, "__init__", capture)
    cycles = 5 * n_procs * bank_cycle + 3
    got = _run_cfm(n_procs, bank_cycle, cycles)
    monkeypatch.setattr(CFMemory, "run_batch", CFMemory.run)
    ref = _run_cfm(n_procs, bank_cycle, cycles)
    assert got == ref
    batched, per_slot = mems
    assert [(a.access_id, a.complete_slot, a.result.words)
            for a in batched.completed] == \
        [(a.access_id, a.complete_slot, a.result.words)
         for a in per_slot.completed]
    assert batched.banks == per_slot.banks


# --------------------------------------------------------------------------
# Profiler counter sums (satellite 4)


def _slot_sum(events):
    """Sum of the slot-denominated counters (every counter here is)."""
    return sum(events.values())


def test_vector_counter_sum_equals_cfm_slots():
    hp = HotpathProfiler()
    mem = CFMemory(CFMConfig(n_procs=8, bank_cycle=2))
    mem.hotpath = hp

    def reissue(acc):
        mem.issue(acc.proc, AccessKind.READ, offset=acc.proc % 4,
                  on_finish=reissue)

    for p in range(8):
        mem.issue(p, AccessKind.READ, offset=p % 4, on_finish=reissue)
    mem.run_engine(500, engine=ENGINE_VECTORIZED)
    events = hp.snapshot()["cfm"]
    assert events.get("batched_slots", 0) > 0
    assert _slot_sum(events) == mem.slot == 500


def test_vector_counter_sum_equals_cache_slots():
    hp = HotpathProfiler()
    sys_ = CacheSystem(8, bank_cycle=2, hotpath=hp)
    ops = _build_cache_ops(sys_, 8, rounds=4, seed=3)
    sys_.run_ops_engine(ops, engine=ENGINE_VECTORIZED)
    events = hp.snapshot()["cache"]
    assert events.get("batched_slots", 0) > 0
    assert _slot_sum(events) == sys_.slot


def test_vector_counter_sum_equals_hier_slots():
    hp = HotpathProfiler()
    hier = SlotAccurateHierarchy(2, 2, bank_cycle=2, hotpath=hp)
    ops = _build_hier_ops(hier, rounds=3, seed=5)
    hier.run_ops_engine(ops, engine=ENGINE_VECTORIZED)
    events = hp.snapshot()["hier"]
    assert events.get("batched_slots", 0) > 0
    assert _slot_sum(events) == hier.slot


def test_vector_fallback_counted_but_not_slot_denominated():
    """A metered module under the ``vectorized`` name rides the span walk:
    one read spans b = 4 slots, the rest of the window is an idle leap,
    and the two batch-walk counters account for every slot."""
    hp = HotpathProfiler()
    mem = CFMemory(CFMConfig(n_procs=4, bank_cycle=1),
                   metrics=MetricsRegistry())
    mem.hotpath = hp
    mem.issue(0, AccessKind.READ, offset=0)
    mem.run_engine(50, engine=ENGINE_VECTORIZED)
    events = hp.snapshot()["cfm"]
    assert events == {"batched_slots": 4, "skipped_slots": 46}
    assert _slot_sum(events) == mem.slot == 50


# --------------------------------------------------------------------------
# Strict timeout boundary, identical across engines (satellite 1)


@pytest.mark.parametrize("engine", ENGINES)
def test_cache_timeout_identical_slot_across_engines(engine):
    sys_ = CacheSystem(4)
    sys_.run_ops([sys_.acquire(0, 0)])  # unmatched acquire wedges proc 1
    start = sys_.slot
    blocked = sys_.store(1, 0, {0: 9})
    with pytest.raises(SimulationTimeout) as exc:
        sys_.run_ops_engine([blocked], max_slots=300, engine=engine)
    assert exc.value.slot == start + 300
    assert exc.value.max_slots == 300
    assert sys_.slot == start + 300


def test_cfm_run_until_idle_strict_boundary():
    mem = CFMemory(CFMConfig(n_procs=4, bank_cycle=1))  # b = 4
    mem.issue(0, AccessKind.READ, offset=0)
    with pytest.raises(SimulationTimeout) as exc:
        mem.run_until_idle(max_slots=2)
    assert exc.value.slot == 2
    # A read needs exactly b slots; a budget of b completes without raising.
    mem2 = CFMemory(CFMConfig(n_procs=4, bank_cycle=1))
    mem2.issue(0, AccessKind.READ, offset=0)
    assert mem2.run_until_idle(max_slots=4) == 4


# --------------------------------------------------------------------------
# Bounded table caches + degraded aliasing (satellite 2)


def test_table_caches_are_bounded():
    from repro.faults.degrade import degraded_slot_bank_table

    for fn in (slot_bank_table, bank_orders, shift_permutations,
               degraded_slot_bank_table):
        assert fn.cache_info().maxsize == TABLE_CACHE_SIZE, fn.__name__


def test_degraded_table_cannot_alias_genuine_shape():
    """A degraded period-(b-1) table can never collide with a genuine
    (b-1)-bank shape's cache entry.  Twice over: the caches are separate
    objects, and the contents are disjoint — degrading requires c >= 2
    with c | b, while a genuine (b-1)-bank table needs c | (b-1); c
    dividing both b and b-1 forces c = 1.  Concretely, the degraded
    table's rows still name *physical* banks (including b-1, excluding
    the dead one), which no genuine (b-1)-bank table contains."""
    from repro.faults.degrade import degraded_slot_bank_table

    n_banks, bank_cycle, dead = 8, 2, 3
    degraded = degraded_slot_bank_table(n_banks, bank_cycle, dead)
    assert len(degraded) == n_banks - 1  # period b-1
    values = {bank for row in degraded for bank in row}
    assert dead not in values
    assert n_banks - 1 in values  # physical bank 7 still addressed
    # Every genuine 7-bank shape (only c=1 and c=7 divide 7) stays in
    # range [0, 7) — it can never equal the degraded table.
    for c in (1, 7):
        genuine = slot_bank_table(n_banks - 1, c)
        assert all(bank < n_banks - 1 for row in genuine for bank in row)
        assert genuine != degraded
    # And any c >= 2 that could degrade an 8-bank module cannot describe
    # a genuine 7-bank shape at all.
    with pytest.raises(ValueError):
        slot_bank_table(n_banks - 1, bank_cycle)
    # Separate lru_caches: a degraded lookup never seeds the healthy one.
    assert degraded_slot_bank_table is not slot_bank_table


# --------------------------------------------------------------------------
# Partial bench documents (satellite 3)


def test_sweep_marks_partial_on_worker_failure():
    from repro.fastpath.parallel import sweep
    from repro.obs.bench import benchmark_specs

    good = benchmark_specs("quick", quick=True)[0]
    bad = {"system": "no_such_system", "params": {}}
    doc = sweep([good, bad], jobs=1, name="quick", quick=True)
    assert doc["partial"] is True
    assert len(doc["failures"]) == 1
    assert "no_such_system" in doc["failures"][0]["error"]
    assert len(doc["runs"]) == 1  # the surviving run is preserved


def test_sweep_without_failures_is_not_partial():
    from repro.fastpath.parallel import sweep
    from repro.obs.bench import benchmark_specs

    doc = sweep(benchmark_specs("quick", quick=True)[:1], jobs=1,
                name="quick", quick=True)
    assert "partial" not in doc
    assert "failures" not in doc


def _load_check_perf():
    path = Path(__file__).resolve().parent.parent / "benchmarks" \
        / "check_perf.py"
    spec = importlib.util.spec_from_file_location("check_perf", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_check_perf_rejects_partial_documents(tmp_path):
    mod = _load_check_perf()
    doc = {
        "bench": "quick", "schema": "repro-bench/1", "quick": True,
        "runs": [], "partial": True,
        "failures": [{"spec": {}, "error": "boom"}],
        "timing": {"wall_time_s": 1.0, "jobs": 1, "runs": []},
    }
    path = tmp_path / "BENCH_quick.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit, match="partial"):
        mod.main([str(path)])
    # --update must refuse to bake a partial doc into a baseline.
    baseline = tmp_path / "baseline.json"
    with pytest.raises(SystemExit, match="partial"):
        mod.main([str(path), "--update", "--baseline", str(baseline)])
    assert not baseline.exists()


def test_check_perf_rejects_partial_baseline(tmp_path):
    mod = _load_check_perf()
    ok = {
        "bench": "quick", "schema": "repro-bench/1", "quick": True,
        "runs": [], "timing": {"wall_time_s": 1.0, "jobs": 1, "runs": []},
    }
    doc_path = tmp_path / "BENCH_quick.json"
    doc_path.write_text(json.dumps(ok))
    partial = dict(ok)
    partial["partial"] = True
    partial["failures"] = [{"spec": {}, "error": "boom"}]
    base_path = tmp_path / "baseline.json"
    base_path.write_text(json.dumps(partial))
    with pytest.raises(SystemExit, match="partial"):
        mod.main([str(doc_path), "--baseline", str(base_path)])


# --------------------------------------------------------------------------
# CLI surface (tentpole: repro bench --engine)


def test_cli_bench_engine_flag(tmp_path):
    from repro.cli import main

    assert main(["bench", "--quick", "--engine", "batch",
                 "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "BENCH_quick.json").read_text())
    seam = {r["system"]: r for r in doc["runs"]
            if r["system"] in {"cfm", "cache", "hierarchy"}}
    assert set(seam) == {"cfm", "cache", "hierarchy"}
    for run in seam.values():
        assert run["params"]["engine"] == "batch"
    # Non-seam systems never grow an engine param.
    for run in doc["runs"]:
        if run["system"] not in seam:
            assert "engine" not in run["params"]


def test_cli_bench_rejects_unknown_engine(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["bench", "--quick", "--engine", "turbo"])
