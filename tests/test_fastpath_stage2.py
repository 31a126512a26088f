"""Stage-2 fastpath: batched protocol epochs must be bit-identical.

:meth:`CacheSystem.run_ops_batch` and
:meth:`SlotAccurateHierarchy.run_ops_batch` reuse the precomputed AT
tables to leap conflict-free spans, falling back to the per-slot
reference ``tick()`` whenever the classifier cannot prove a span clean.
Everything here is differential: the same workload runs once through the
reference and once through the batch path, and *every* observable —
op streams with issue/done slots, hit/retry/access counts, directory
states, bank contents with versions, controller counters, the final slot
— must match exactly.  The profiler rides along on some runs to pin that
attaching it never changes results, and that conflict-free workloads
never touch a ``fallback.*`` counter.
"""

import random
from functools import partial

import pytest

from repro.cache.protocol import CacheSystem
from repro.cache.state import CacheLineState
from repro.core.block import Block
from repro.core.cfm import CFMemory
from repro.core.config import CFMConfig
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    RecoveringOp,
    RetryPolicy,
    run_with_recovery,
)
from repro.hierarchy.slot_accurate import SlotAccurateHierarchy
from repro.obs.hotpath import HotpathProfiler
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import RecordingProbe
from repro.sim.engine import SimulationTimeout
from repro.tracking.atomic import CFMDriver

SHAPES = [(4, 1), (8, 2), (16, 4)]


# --------------------------------------------------------------------------
# Cache-layer workloads (plans are (proc, kind, offset, words) scripts)


def _plan_shared(n_procs, rounds, seed):
    """Loads + stores over a small shared set: hazard-rich."""
    rng = random.Random(seed)
    plan = []
    for _ in range(rounds):
        batch = []
        for p in range(n_procs):
            off = rng.randrange(4)
            if rng.random() < 0.4:
                batch.append((p, "store", off, {rng.randrange(n_procs): p + 1}))
            else:
                batch.append((p, "load", off, None))
        plan.append(batch)
    return plan


def _plan_private(n_procs, rounds, seed):
    """Proc-private offsets: conflict-free, the batch path's home turf."""
    rng = random.Random(seed)
    plan = []
    for _ in range(rounds):
        batch = []
        for p in range(n_procs):
            off = p * 4 + rng.randrange(4)
            if rng.random() < 0.5:
                batch.append((p, "store", off, {rng.randrange(n_procs): p + 1}))
            else:
                batch.append((p, "load", off, None))
        plan.append(batch)
    return plan


def _plan_hit_heavy(n_procs, rounds, seed):
    """Each proc re-reads one private line: local hits, no memory traffic
    after the first fill."""
    rng = random.Random(seed)
    plan = []
    for _ in range(rounds):
        batch = []
        for p in range(n_procs):
            if rng.random() < 0.2:
                batch.append((p, "store", p, {0: p + 1}))
            else:
                batch.append((p, "load", p, None))
        plan.append(batch)
    return plan


def _plan_sync(n_procs, rounds, seed):
    """Acquire -> flush pairs over a shared lock line plus background
    loads — the sync-op path (wb_disabled lines) through the batcher.
    Every acquire is immediately paired with its flush: an unmatched
    acquire pins the line and livelocks every other op, by design."""
    rng = random.Random(seed)
    plan = []
    for r in range(rounds):
        owner = r % n_procs
        batch = [(owner, "acquire", 0, None), (owner, "flush", 0, None)]
        for p in range(n_procs):
            if p != owner:
                batch.append((p, "load", 1 + rng.randrange(3), None))
        plan.append(batch)
    return plan


def _plan_handoff(n_procs, rounds, seed):
    """Lines handed from processor to processor: in even rounds proc p
    stores line p, in odd rounds proc p loads line p + 1, whose dirty
    owner must write it back first.  Write-backs therefore land in memory
    between spans that read the same line in full, so the written-back
    data must reach every later read (the span walk's read memo must not
    serve the pre-write-back block)."""
    rng = random.Random(seed)
    plan = []
    for r in range(rounds):
        if r % 2 == 0:
            plan.append([(p, "store", p, {rng.randrange(n_procs): r * 10 + p})
                         for p in range(n_procs)])
        else:
            plan.append([(p, "load", (p + 1) % n_procs, None)
                         for p in range(n_procs)])
    return plan


def _edge_list(shape, ops, prior):
    """The list a driver is handed for one round: ``ops`` recast as one of
    the completion cursor's edge cases.  Ops join their processor's queue
    when created, so the list decides only when the driver sees them all
    settled, never what the simulation does."""
    if shape is None:
        return ops
    if shape == "reversed":
        return ops[::-1]
    if shape == "interleaved":  # odd positions first: procs out of order
        return ops[1::2] + ops[::2]
    if shape == "mixed_done":  # already-done ops around a reversed round
        return prior[:1] + ops[::-1] + prior[1:]
    if shape == "duplicate":
        return ops + ops[::-1]
    assert shape == "empty", shape
    return ops


EDGE_LISTS = ["reversed", "interleaved", "mixed_done", "duplicate", "empty"]


def _drive(run, slot_of, shape, ops, prior):
    if shape == "empty":
        before = slot_of()
        run([])
        assert slot_of() == before  # nothing to wait for: no slot passes
    run(_edge_list(shape, ops, prior))


def _run_cache_plan(n_procs, bank_cycle, plan, batch, probe=None,
                    metrics=None, hotpath=None, shape=None, vector=False):
    sys_ = CacheSystem(n_procs, bank_cycle=bank_cycle, probe=probe,
                       metrics=metrics, hotpath=hotpath)
    all_ops = []
    for round_ops in plan:
        ops = []
        for p, kind, off, words in round_ops:
            if kind == "load":
                ops.append(sys_.load(p, off))
            elif kind == "store":
                ops.append(sys_.store(p, off, words))
            elif kind == "acquire":
                ops.append(sys_.acquire(p, off))
            else:
                ops.append(sys_.flush(p, off))
        if vector:
            run = partial(sys_.run_ops_engine, engine="vectorized")
        else:
            run = sys_.run_ops_batch if batch else sys_.run_ops
        _drive(run, lambda: sys_.slot, shape, ops, all_ops)
        all_ops.extend(ops)
    sys_.check_coherence_invariant()
    return sys_, all_ops


def _fingerprint(sys_, ops):
    n_offsets = 4 * sys_.cfg.n_procs + 4
    return {
        "ops": [(op.proc, op.kind.value, op.offset, op.issue_slot,
                 op.done_slot, op.was_hit, op.retries, op.memory_accesses,
                 None if op.result is None
                 else [(w.value, w.version) for w in op.result.words])
                for op in ops],
        "dirs": [
            [(off, line.state.value, line.wb_disabled)
             for off in range(n_offsets)
             if (line := d.lookup(off)) is not None]
            for d in sys_.dirs
        ],
        "banks": [
            sorted((off, w.value, w.version) for off, w in bank.items())
            for bank in sys_.mem.banks
        ],
        "stats": (sys_.stats_local_hits, sys_.stats_memory_ops),
        "ctrl": (sys_.controller.triggered_writebacks,
                 sys_.controller.invalidations_sent),
        "slot": sys_.slot,
    }


PLANS = {
    "handoff": _plan_handoff,
    "shared": _plan_shared,
    "private": _plan_private,
    "hit_heavy": _plan_hit_heavy,
    "sync": _plan_sync,
}


@pytest.mark.parametrize("workload", sorted(PLANS))
@pytest.mark.parametrize("n_procs,bank_cycle", SHAPES)
def test_cache_batch_bit_identical(workload, n_procs, bank_cycle):
    plan = PLANS[workload](n_procs, rounds=6, seed=n_procs * 10 + bank_cycle)
    ref_sys, ref_ops = _run_cache_plan(n_procs, bank_cycle, plan, batch=False)
    bat_sys, bat_ops = _run_cache_plan(n_procs, bank_cycle, plan, batch=True)
    assert _fingerprint(ref_sys, ref_ops) == _fingerprint(bat_sys, bat_ops)


@pytest.mark.parametrize("shape", EDGE_LISTS)
@pytest.mark.parametrize("workload", ["shared", "sync"])
def test_cache_cursor_edge_lists_bit_identical(workload, shape):
    """Reordered, duplicated, partly-done and empty op lists change only
    what the driver waits on: both drivers must finish every round at the
    slot the plain list does."""
    plan = PLANS[workload](8, rounds=6, seed=41)
    plain = _fingerprint(*_run_cache_plan(8, 2, plan, batch=False))
    for batch in (False, True):
        run = _run_cache_plan(8, 2, plan, batch=batch, shape=shape)
        assert _fingerprint(*run) == plain


def test_cache_batch_with_probe_matches_unprobed():
    """Observers pin the per-slot path — results must still be identical,
    and the probe must see the same event stream as a reference run."""
    plan = _plan_shared(4, rounds=4, seed=3)
    ref_probe = RecordingProbe()
    ref_sys, ref_ops = _run_cache_plan(4, 1, plan, batch=False,
                                       probe=ref_probe)
    bat_probe = RecordingProbe()
    bat_sys, bat_ops = _run_cache_plan(4, 1, plan, batch=True,
                                       probe=bat_probe)
    assert _fingerprint(ref_sys, ref_ops) == _fingerprint(bat_sys, bat_ops)
    assert [(e.source, e.event, e.t) for e in ref_probe.events] == \
           [(e.source, e.event, e.t) for e in bat_probe.events]


@pytest.mark.parametrize("workload", sorted(PLANS))
@pytest.mark.parametrize("n_procs,bank_cycle", SHAPES)
def test_cache_observed_batch_matches_reference(workload, n_procs,
                                                bank_cycle):
    """A metered cache stays on the batch path — bank utilization
    accumulates in bulk over spans and idle leaps — and its registry
    snapshot equals the per-slot reference's; the ``vectorized`` engine
    name runs the same walk."""
    plan = PLANS[workload](n_procs, rounds=6, seed=n_procs * 10 + bank_cycle)
    ref_reg, bat_reg, hp = MetricsRegistry(), MetricsRegistry(), \
        HotpathProfiler()
    ref = _run_cache_plan(n_procs, bank_cycle, plan, batch=False,
                          metrics=ref_reg)
    bat = _run_cache_plan(n_procs, bank_cycle, plan, batch=True,
                          metrics=bat_reg, hotpath=hp)
    assert _fingerprint(*ref) == _fingerprint(*bat)
    assert ref_reg.snapshot() == bat_reg.snapshot()
    vec_reg = MetricsRegistry()
    vec = _run_cache_plan(n_procs, bank_cycle, plan, batch=True,
                          metrics=vec_reg, vector=True)
    assert _fingerprint(*ref) == _fingerprint(*vec)
    assert ref_reg.snapshot() == vec_reg.snapshot()
    events = hp.snapshot()["cache"]
    assert "tick.observed" not in events
    assert events.get("batched_slots", 0) + \
        events.get("skipped_slots", 0) > 0


def test_cache_batch_with_metrics_matches_bare():
    plan = _plan_private(4, rounds=4, seed=5)
    bare_sys, bare_ops = _run_cache_plan(4, 1, plan, batch=True)
    reg = MetricsRegistry()
    obs_sys, obs_ops = _run_cache_plan(4, 1, plan, batch=True, metrics=reg)
    assert _fingerprint(bare_sys, bare_ops) == _fingerprint(obs_sys, obs_ops)
    assert reg.snapshot()  # the registry really was fed


# A timeout must fire at the same slot, naming the same stuck op, whether
# the driver is handed just the wedged op or a reversed list that also
# holds an op finished earlier.
TIMEOUT_LISTS = [
    lambda wedged, finished: [wedged],
    lambda wedged, finished: [wedged, finished],
]

CACHE_STUCK = ["proc 1 store@0 phase=memory retries=125 reissue_at=506"]


def test_cache_batch_timeout_names_stuck_op():
    for listed in TIMEOUT_LISTS:
        sys_ = CacheSystem(4)
        op = sys_.acquire(0, 0)  # unmatched acquire: others can never finish
        sys_.run_ops([op])
        blocked = sys_.store(1, 0, {0: 9})
        start = sys_.slot
        with pytest.raises(SimulationTimeout) as exc:
            sys_.run_ops_batch(listed(blocked, op), max_slots=500)
        assert "proc 1" in str(exc.value)
        assert exc.value.max_slots == 500
        assert any("proc 1" in s for s in exc.value.stuck)
        assert exc.value.slot == start + 500
        assert exc.value.stuck == CACHE_STUCK


def test_cache_reference_timeout_is_simulation_timeout():
    """run_ops hitting max_slots raises the same descriptive error (and
    stays a RuntimeError for pre-existing callers)."""
    for listed in TIMEOUT_LISTS:
        sys_ = CacheSystem(4)
        op = sys_.acquire(0, 0)
        sys_.run_ops([op])
        blocked = sys_.store(1, 0, {0: 9})
        start = sys_.slot
        with pytest.raises(RuntimeError) as exc:
            sys_.run_ops(listed(blocked, op), max_slots=500)
        assert isinstance(exc.value, SimulationTimeout)
        assert "proc 1" in str(exc.value)
        assert exc.value.slot == start + 500
        assert exc.value.stuck == CACHE_STUCK


# --------------------------------------------------------------------------
# Hierarchy layer


def _seed_local(hier, n_clusters, per):
    width = hier._cluster_width()
    for c in range(n_clusters):
        for p in range(per):
            base = (c * per + p) * 4
            for off in range(base, base + 4):
                hier.clusters[c].mem.poke_block(
                    off,
                    Block.of_values([off + i for i in range(width)], "seed"),
                )
                hier.l2[c][off] = CacheLineState.DIRTY


def _hier_plan(n_clusters, per, rounds, seed, local):
    rng = random.Random(seed)
    plan = []
    for _ in range(rounds):
        batch = []
        for g in range(n_clusters * per):
            off = g * 4 + rng.randrange(4) if local else rng.randrange(6)
            if rng.random() < 0.5:
                batch.append((g, "store", off,
                              {rng.randrange(per): rng.randrange(100)}))
            else:
                batch.append((g, "load", off, None))
        plan.append(batch)
    return plan


def _run_hier_plan(n_clusters, per, plan, batch, local, hotpath=None,
                   shape=None):
    hier = SlotAccurateHierarchy(n_clusters, per, hotpath=hotpath)
    if local:
        _seed_local(hier, n_clusters, per)
    all_ops = []
    for round_ops in plan:
        ops = [hier.load(g, off) if kind == "load"
               else hier.store(g, off, words)
               for g, kind, off, words in round_ops]
        _drive(hier.run_ops_batch if batch else hier.run_ops,
               lambda: hier.slot, shape, ops, all_ops)
        all_ops.extend(ops)
    hier.check_invariants()
    return hier, all_ops


def _hier_fingerprint(hier, ops):
    return {
        "ops": [(op.gproc, op.kind.value, op.offset, op.issue_slot,
                 op.done_slot, op.nc_fetches,
                 None if op.result is None
                 else [(w.value, w.version) for w in op.result.words])
                for op in ops],
        "l2": [sorted((k, v.value) for k, v in d.items()) for d in hier.l2],
        "gdata": sorted((k, [w.value for w in b.words])
                        for k, b in hier.global_data.items()),
        "gc": (hier.global_controller.invalidations_sent,
               hier.global_controller.triggered_l2_writebacks),
        "slot": hier.slot,
    }


@pytest.mark.parametrize("local", [True, False],
                         ids=["local_seeded", "global_shared"])
@pytest.mark.parametrize("n_clusters,per", [(2, 2), (4, 2), (2, 4)])
def test_hierarchy_batch_bit_identical(local, n_clusters, per):
    plan = _hier_plan(n_clusters, per, rounds=6,
                      seed=n_clusters * 10 + per, local=local)
    ref = _run_hier_plan(n_clusters, per, plan, batch=False, local=local)
    bat = _run_hier_plan(n_clusters, per, plan, batch=True, local=local)
    assert _hier_fingerprint(*ref) == _hier_fingerprint(*bat)


@pytest.mark.parametrize("shape", EDGE_LISTS)
def test_hierarchy_cursor_edge_lists_bit_identical(shape):
    plan = _hier_plan(2, 4, rounds=6, seed=43, local=False)
    plain = _hier_fingerprint(*_run_hier_plan(2, 4, plan, batch=False,
                                              local=False))
    for batch in (False, True):
        run = _run_hier_plan(2, 4, plan, batch=batch, local=False,
                             shape=shape)
        assert _hier_fingerprint(*run) == plain


def test_hierarchy_timeout_is_simulation_timeout():
    stuck = []
    for listed in TIMEOUT_LISTS:
        hier = SlotAccurateHierarchy(2, 2)
        warm = hier.load(3, 5)  # cluster 1, disjoint from the op below
        hier.run_ops([warm])
        op = hier.load(0, 0)
        start = hier.slot
        with pytest.raises(RuntimeError) as exc:
            # the L2-miss path needs far more than 3 slots
            hier.run_ops(listed(op, warm), max_slots=3)
        assert isinstance(exc.value, SimulationTimeout)
        assert exc.value.max_slots == 3
        assert exc.value.slot == start + 3
        stuck.append(str(exc.value))
    assert len(set(stuck)) == 1


# --------------------------------------------------------------------------
# Driver cost contract: O(ops + slots) settle checks per run


class _CountingOp:
    """Stands in for an op in the list a driver is handed, counting every
    ``done`` read (each settle check reads it exactly once)."""

    def __init__(self, op, reads):
        self._op = op
        self._reads = reads

    @property
    def done(self):
        self._reads[0] += 1
        return self._op.done

    def __getattr__(self, name):
        return getattr(self._op, name)


def _cache_stream(batch):
    sys_ = CacheSystem(8, bank_cycle=2)
    ops = []
    for round_ops in _plan_shared(8, rounds=125, seed=53):
        ops += [sys_.load(p, off) if kind == "load"
                else sys_.store(p, off, words)
                for p, kind, off, words in round_ops]
    drive = sys_.run_ops_batch if batch else sys_.run_ops
    return ops, drive, lambda: sys_.slot


def _hier_stream(batch):
    hier = SlotAccurateHierarchy(4, 4)
    ops = [hier.load(g, off) if kind == "load"
           else hier.store(g, off, words)
           for round_ops in _hier_plan(4, 4, rounds=20, seed=59, local=False)
           for g, kind, off, words in round_ops]
    drive = hier.run_ops_batch if batch else hier.run_ops
    return ops, drive, lambda: hier.slot


def _recovery_stream():
    # One op per processor (a CFM port takes one access at a time).  A
    # stuck bank aborts every access until slot 300; per-op backoffs then
    # spread the ops' settling over the slots that follow.
    mem = CFMemory(CFMConfig(n_procs=32, bank_cycle=1))
    mem.faults = FaultInjector(FaultPlan.of(
        [FaultEvent(kind="bank_stuck", start=0, duration=300, target=0)]
    ))
    driver = CFMDriver(mem)
    ops = [RecoveringOp(driver, p, p,
                        policy=RetryPolicy(max_retries=100,
                                           backoff_slots=p + 1))
           for p in range(32)]
    return ops, lambda listed: run_with_recovery(driver, listed), \
        lambda: mem.slot


DRIVER_STREAMS = {
    "cache.run_ops": lambda: _cache_stream(batch=False),
    "cache.run_ops_batch": lambda: _cache_stream(batch=True),
    "hierarchy.run_ops": lambda: _hier_stream(batch=False),
    "hierarchy.run_ops_batch": lambda: _hier_stream(batch=True),
    "faults.run_with_recovery": _recovery_stream,
}


@pytest.mark.parametrize("driver", sorted(DRIVER_STREAMS))
def test_driver_settle_checks_linear_in_ops_plus_slots(driver):
    """Every driver loop checks completion through one monotone cursor:
    at most one settle check per op plus one per elapsed slot, where a
    rescan of the op list each slot costs O(ops x slots)."""
    ops, drive, slot_of = DRIVER_STREAMS[driver]()
    reads = [0]
    start = slot_of()
    drive([_CountingOp(op, reads) for op in ops])
    slots = slot_of() - start
    assert all(op.done for op in ops)
    assert slots > 100
    assert reads[0] <= len(ops) + slots + 1, (reads[0], len(ops), slots)


# --------------------------------------------------------------------------
# Hot-path profiler semantics


def test_profiler_never_changes_results():
    plan = _plan_shared(8, rounds=5, seed=11)
    bare = _run_cache_plan(8, 2, plan, batch=True)
    hp = HotpathProfiler()
    profiled = _run_cache_plan(8, 2, plan, batch=True, hotpath=hp)
    assert _fingerprint(*bare) == _fingerprint(*profiled)
    assert sum(sum(ev.values()) for ev in hp.snapshot().values()) > 0


def test_profiler_counters_deterministic():
    plan = _plan_private(8, rounds=5, seed=13)
    snaps = []
    for _ in range(2):
        hp = HotpathProfiler()
        _run_cache_plan(8, 2, plan, batch=True, hotpath=hp)
        snaps.append(hp.snapshot())
    assert snaps[0] == snaps[1]


def test_conflict_free_workloads_never_fall_back():
    """The CI bench-profile gate, as a unit test: private cache traffic
    and seeded-local hierarchy traffic must keep fallback.* at zero."""
    hp = HotpathProfiler()
    plan = _plan_private(8, rounds=6, seed=17)
    _run_cache_plan(8, 2, plan, batch=True, hotpath=hp)
    hplan = _hier_plan(2, 4, rounds=6, seed=19, local=True)
    _run_hier_plan(2, 4, hplan, batch=True, local=True, hotpath=hp)
    assert hp.fallbacks() == {"cache": 0, "hier": 0}
    assert hp.get("cache", "batched_slots") > 0
    assert hp.get("hier", "batched_slots") > 0


def test_profiler_occupancy_shape():
    hp = HotpathProfiler()
    hp.count("cache", "batched_slots", 90)
    hp.count("cache", "tick.cpu", 10)
    occ = hp.occupancy()["cache"]
    assert occ["batched"] == 90 and occ["ticked"] == 10
    assert occ["batched_frac"] == pytest.approx(0.9)


def test_profiler_counter_sum_equals_cache_slots():
    """Exclusive counting, invariant form: the cache layer's counter sum
    (batched + skipped + ticked) equals exactly the slots it advanced —
    the inner CFM engine, sharing the profiler, contributes nothing."""
    hp = HotpathProfiler()
    plan = _plan_shared(8, rounds=5, seed=23)
    sys_, _ = _run_cache_plan(8, 2, plan, batch=True, hotpath=hp)
    occ = hp.occupancy()["cache"]
    assert occ["batched"] + occ["skipped"] + occ["ticked"] == sys_.slot
    assert "cfm" not in hp.snapshot()


def test_profiler_counter_sum_equals_hier_slots():
    hp = HotpathProfiler()
    hplan = _hier_plan(2, 4, rounds=6, seed=19, local=False)
    hier, _ = _run_hier_plan(2, 4, hplan, batch=True, local=False,
                             hotpath=hp)
    occ = hp.occupancy()["hier"]
    assert occ["batched"] + occ["skipped"] + occ["ticked"] == hier.slot
    for inner in ("cache", "cfm"):
        assert inner not in hp.snapshot()


def test_shared_profiler_attributes_each_slot_to_one_layer():
    """One profiler shared down the stack: slots driven by the cache batch
    engine land under "cache"; a subsequent direct CFM batch run on the
    same profiler lands under "cfm" — each exactly covering the slots that
    layer advanced while driving."""
    hp = HotpathProfiler()
    plan = _plan_private(8, rounds=4, seed=31)
    sys_, _ = _run_cache_plan(8, 2, plan, batch=True, hotpath=hp)
    cache_slots = sys_.slot
    assert "cfm" not in hp.snapshot()

    before = sys_.mem.slot
    sys_.mem.run_batch(40)  # now the CFM engine drives time itself
    occ = hp.occupancy()
    cache = occ["cache"]
    assert cache["batched"] + cache["skipped"] + cache["ticked"] == cache_slots
    cfm = occ["cfm"]
    assert cfm["batched"] + cfm["skipped"] + cfm["ticked"] \
        == sys_.mem.slot - before == 40
