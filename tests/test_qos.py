"""QoS arbitration contract: criticality tiers, SLA metrics, invariant 12.

The load-bearing properties:

1. **Invariant 12** — arbitration never changes *which* slots exist, only
   who wins a contended one: a submission stream that never queues is
   bit-identical to the same stream of plain ``issue()`` calls, per
   engine, per policy.
2. **Engine invariance under contention** — grants happen at the
   ``_finish`` seam every engine drives at identical slots, so the mixed-
   criticality overload runs are bit-identical across reference, batch,
   vectorized and stacked pins (invariants 10–11 through the QoS layer).
3. **Priority semantics** — a contended grant goes to the lowest
   criticality rank, FIFO within a rank; ``arbitration="fifo"`` is pure
   submission order.
4. **Table 5.4 dominance** — in the NC queue, criticality reorders events
   only *within* an event-type priority class; untagged events keep the
   exact ``(priority, seq)`` order.
5. **SLA accounting** — per-tier histograms/deadline counters ride finish
   callbacks (slots) or the service accounting path (ms), never the
   simulation's metrics registry.
"""

from __future__ import annotations

import pytest

from repro.core.block import Block
from repro.core.cfm import (
    ARBITRATION_POLICIES,
    AccessKind,
    CFMemory,
)
from repro.core.config import CFMConfig
from repro.fastpath.engine import ENGINES
from repro.hierarchy.controller import EventType, NetworkController
from repro.obs.metrics import MetricsRegistry
from repro.obs.sla import SlaTracker
from repro.sim.criticality import (
    BULK,
    DEFAULT_RANK,
    LATENCY_CRITICAL,
    NORMAL,
    TIERS,
    parse_tier,
    rank_of,
)


def _mem(n_procs=4, bank_cycle=1, **kw):
    return CFMemory(CFMConfig(n_procs=n_procs, bank_cycle=bank_cycle), **kw)


def _wblock(mem, offset, stamp="w"):
    return Block.of_values([offset + k for k in range(mem.n_banks)], stamp)


def _drain(mem):
    while mem.active or mem.pending():
        mem.run(4 * mem.cfg.block_access_time)


# --------------------------------------------------------------------------
# The criticality vocabulary


class TestCriticalityModule:
    def test_tiers_and_ranks(self):
        assert TIERS == (LATENCY_CRITICAL, NORMAL, BULK)
        assert rank_of(LATENCY_CRITICAL) < rank_of(NORMAL) < rank_of(BULK)
        assert rank_of(None) == rank_of(NORMAL) == DEFAULT_RANK

    def test_parse_tier(self):
        assert parse_tier(None) is None
        for tier in TIERS:
            assert parse_tier(tier) == tier
        with pytest.raises(ValueError, match="latency_critical"):
            parse_tier("urgent")


# --------------------------------------------------------------------------
# Submit / grant semantics on the core module


class TestSubmitArbitration:
    def test_idle_processor_issues_immediately(self):
        mem = _mem()
        pend = mem.submit(0, AccessKind.READ, offset=3,
                          criticality=LATENCY_CRITICAL, deadline=50)
        assert pend.granted and pend.access is not None
        assert pend.access.criticality == LATENCY_CRITICAL
        assert pend.access.submit_slot == 0
        assert pend.access.deadline_slot == 50
        # Immediate issue: nothing queued, nothing to grant or contend.
        assert mem.qos_counts == {"granted": 0, "queued": 0, "contended": 0}

    def test_busy_processor_queues_then_grants_at_finish(self):
        mem = _mem()
        first = mem.submit(0, AccessKind.READ, offset=0)
        queued = mem.submit(0, AccessKind.READ, offset=1, criticality=BULK)
        assert not queued.granted
        assert mem.pending(0) == 1 == mem.pending()
        assert mem.qos_counts["queued"] == 1
        mem.run(mem.cfg.block_access_time + 1)
        assert first.access.complete_slot is not None
        assert queued.granted  # granted the slot its predecessor freed
        mem.run(2 * mem.cfg.block_access_time)
        assert queued.access.complete_slot is not None
        # One waiter is not contention: the counter stays zero, and the
        # grant counter records exactly the one queued op.
        assert mem.qos_counts["contended"] == 0
        assert mem.qos_counts["granted"] == 1

    def test_priority_beats_fifo_order_when_contended(self):
        mem = _mem()
        mem.submit(0, AccessKind.READ, offset=0)          # occupies proc 0
        bulk = mem.submit(0, AccessKind.READ, offset=1, criticality=BULK)
        crit = mem.submit(0, AccessKind.READ, offset=2,
                          criticality=LATENCY_CRITICAL)
        _drain(mem)
        assert mem.qos_counts["contended"] == 1
        # The critical op overtook the earlier-submitted bulk op.
        assert crit.access.complete_slot < bulk.access.complete_slot

    def test_equal_rank_contention_stays_fifo(self):
        mem = _mem()
        mem.submit(0, AccessKind.READ, offset=0)
        a = mem.submit(0, AccessKind.READ, offset=1, criticality=NORMAL)
        b = mem.submit(0, AccessKind.READ, offset=2, criticality=NORMAL)
        _drain(mem)
        assert a.access.complete_slot < b.access.complete_slot

    def test_fifo_policy_ignores_rank(self):
        mem = _mem(arbitration="fifo")
        mem.submit(0, AccessKind.READ, offset=0)
        bulk = mem.submit(0, AccessKind.READ, offset=1, criticality=BULK)
        crit = mem.submit(0, AccessKind.READ, offset=2,
                          criticality=LATENCY_CRITICAL)
        _drain(mem)
        assert bulk.access.complete_slot < crit.access.complete_slot

    def test_writes_carry_data_through_the_queue(self):
        mem = _mem()
        mem.submit(0, AccessKind.READ, offset=0)
        w = mem.submit(0, AccessKind.WRITE, offset=4,
                       data=_wblock(mem, 4), criticality=LATENCY_CRITICAL)
        _drain(mem)
        assert w.access.complete_slot is not None
        assert mem.peek_block(4).words[0].value == 4

    def test_validation(self):
        mem = _mem()
        with pytest.raises(ValueError, match="out of range"):
            mem.submit(9, AccessKind.READ, offset=0)
        with pytest.raises(ValueError, match="deadline"):
            mem.submit(0, AccessKind.READ, offset=0, deadline=0)
        with pytest.raises(ValueError, match="latency_critical"):
            mem.submit(0, AccessKind.READ, offset=0, criticality="asap")
        with pytest.raises(ValueError, match="arbitration"):
            _mem(arbitration="roulette")
        assert ARBITRATION_POLICIES == ("priority", "fifo")

    def test_deadline_met_and_qos_latency(self):
        mem = _mem()
        ok = mem.submit(0, AccessKind.READ, offset=0, deadline=100)
        tight = mem.submit(1, AccessKind.READ, offset=0, deadline=1)
        plain = mem.submit(2, AccessKind.READ, offset=0)
        _drain(mem)
        assert ok.access.deadline_met is True
        assert tight.access.deadline_met is False  # beta > 1 slot
        assert plain.access.deadline_met is None
        # Immediate issue: the QoS clock equals the plain latency clock.
        assert ok.access.qos_latency == ok.access.latency

    def test_queueing_counts_against_qos_latency(self):
        mem = _mem()
        mem.submit(0, AccessKind.READ, offset=0)
        queued = mem.submit(0, AccessKind.READ, offset=1)
        _drain(mem)
        acc = queued.access
        assert acc.submit_slot == 0 < acc.issue_slot
        assert acc.qos_latency == acc.complete_slot - acc.submit_slot + 1
        assert acc.qos_latency > acc.latency


class TestQosMetrics:
    def test_tagged_completions_feed_tier_metrics(self):
        metrics = MetricsRegistry()
        mem = _mem(metrics=metrics)
        mem.submit(0, AccessKind.READ, offset=0,
                   criticality=LATENCY_CRITICAL, deadline=100)
        mem.submit(1, AccessKind.READ, offset=0, criticality=BULK, deadline=1)
        _drain(mem)
        hist = metrics.histogram(f"cfm.latency[{LATENCY_CRITICAL}]")
        assert hist.total() == 1
        deadline = metrics.counter("cfm.deadline")
        assert deadline[f"{LATENCY_CRITICAL}.met"] == 1
        assert deadline[f"{BULK}.missed"] == 1

    def test_untagged_runs_leave_no_qos_metric_names(self):
        # The pre-QoS metric surface must stay byte-identical for untagged
        # traffic: no per-tier histogram or deadline counter appears.
        metrics = MetricsRegistry()
        mem = _mem(metrics=metrics)
        mem.submit(0, AccessKind.READ, offset=0)
        mem.issue(1, AccessKind.READ, offset=0)
        _drain(mem)
        names = set(metrics.snapshot())
        assert not any("cfm.latency[" in n for n in names)
        assert "cfm.deadline" not in names


# --------------------------------------------------------------------------
# Invariant 12: zero-contention bit-identity, every engine, every policy


def _closed_loop(n_procs, bank_cycle, slots, engine, use_submit, arbitration):
    mem = _mem(n_procs, bank_cycle, arbitration=arbitration)
    log = []

    def reissue(acc):
        log.append((acc.access_id, acc.proc, acc.complete_slot,
                    [w.value for w in acc.result.words]))
        tier = TIERS[acc.proc % len(TIERS)] if use_submit else None
        if use_submit:
            mem.submit(acc.proc, AccessKind.READ, offset=acc.proc,
                       on_finish=reissue, criticality=tier)
        else:
            mem.issue(acc.proc, AccessKind.READ, offset=acc.proc,
                      on_finish=reissue)

    for p in range(n_procs):
        if use_submit:
            mem.submit(p, AccessKind.READ, offset=p, on_finish=reissue,
                       criticality=TIERS[p % len(TIERS)])
        else:
            mem.issue(p, AccessKind.READ, offset=p, on_finish=reissue)
    mem.run_engine(slots, engine=engine)
    return log, mem.slot, dict(mem.qos_counts)


class TestZeroContentionIdentity:
    @pytest.mark.parametrize("n_procs,bank_cycle", [(4, 1), (8, 2)])
    def test_tagged_submit_is_bit_identical_to_issue(self, n_procs,
                                                     bank_cycle):
        for engine in ENGINES:
            ref_log, ref_end, _ = _closed_loop(
                n_procs, bank_cycle, 300, engine, False, "priority")
            for arbitration in ARBITRATION_POLICIES:
                log, end, counts = _closed_loop(
                    n_procs, bank_cycle, 300, engine, True, arbitration)
                assert (log, end) == (ref_log, ref_end), (
                    f"engine={engine} arbitration={arbitration}")
                assert counts["contended"] == 0 and counts["queued"] == 0


# --------------------------------------------------------------------------
# Satellite: mixed-criticality determinism sweep across every engine pin


SWEEP_SHAPES = [(4, 1), (8, 2), (16, 4), (64, 16)]


class TestEngineDifferentialSweep:
    @pytest.mark.parametrize("n_procs,bank_cycle", SWEEP_SHAPES)
    def test_qos_reports_engine_invariant(self, n_procs, bank_cycle):
        from repro.obs.bench import run_spec

        banks = n_procs * bank_cycle
        params = {
            "n_procs": n_procs, "bank_cycle": bank_cycle,
            # ~1.3x per-proc service capacity: overloaded enough to queue,
            # bounded enough that the drain stays short on (64, 16).
            "cycles": min(1_200, 30 * banks),
            "rate": round(0.65 / banks, 6),
            "bulk_rate": round(0.65 / banks, 6),
        }
        for arbitration in ARBITRATION_POLICIES:
            baseline = None
            for engine in [None, *ENGINES]:
                spec_params = dict(params, arbitration=arbitration)
                if engine is not None:
                    spec_params["engine"] = engine
                report = run_spec({"system": "qos", "params": spec_params})
                report["params"].pop("engine", None)
                if baseline is None:
                    baseline = report
                else:
                    assert report == baseline, (
                        f"qos report diverged: engine={engine} "
                        f"arbitration={arbitration} shape="
                        f"({n_procs}, {bank_cycle})")

    def test_sweep_actually_contends(self):
        from repro.obs.bench import run_spec

        report = run_spec({"system": "qos", "params": {
            "n_procs": 8, "bank_cycle": 2, "cycles": 480,
            "rate": 0.05, "bulk_rate": 0.05}})
        assert report["qos"]["entry_queue"]["contended"] > 0
        tiers = report["qos"]["sla"]["tiers"]
        assert LATENCY_CRITICAL in tiers and BULK in tiers
        for entry in tiers.values():
            assert {"n", "mean", "min", "max", "p50", "p99", "p999"} <= set(entry)
        lc = tiers[LATENCY_CRITICAL]
        assert lc["deadline"]["met"] + lc["deadline"]["missed"] == lc["n"]


# --------------------------------------------------------------------------
# NC queue: Table 5.4 priority dominates, criticality reorders within it


class TestControllerCriticality:
    def test_event_priority_dominates_criticality(self):
        nc = NetworkController(0)
        nc.enqueue(EventType.READ, offset=1, criticality=LATENCY_CRITICAL)
        nc.enqueue(EventType.WRITE_BACK, offset=2, criticality=BULK)
        served = nc.drain()
        # A bulk write-back still beats a latency-critical read: deadlock
        # freedom does not bend to QoS.
        assert [ev.event_type for ev in served] == [
            EventType.WRITE_BACK, EventType.READ]

    def test_criticality_reorders_within_a_class(self):
        nc = NetworkController(0)
        bulk = nc.enqueue(EventType.READ, offset=1, criticality=BULK)
        crit = nc.enqueue(EventType.READ, offset=2,
                          criticality=LATENCY_CRITICAL)
        norm = nc.enqueue(EventType.READ, offset=3)
        assert nc.drain() == [crit, norm, bulk]

    def test_untagged_keeps_priority_seq_order(self):
        tagged = NetworkController(0)
        plain = NetworkController(0)
        events = [(EventType.READ, 1), (EventType.WRITE_BACK, 2),
                  (EventType.READ_INVALIDATE, 3), (EventType.READ, 4),
                  (EventType.INVALIDATION_FROM_ABOVE, 5)]
        for et, off in events:
            tagged.enqueue(et, offset=off, criticality=NORMAL)
            plain.enqueue(et, offset=off)
        order_tagged = [(e.event_type, e.offset) for e in tagged.drain()]
        order_plain = [(e.event_type, e.offset) for e in plain.drain()]
        assert order_tagged == order_plain


# --------------------------------------------------------------------------
# Hierarchy: tagging everything "normal" is bit-identical to no tags


def _hier_fingerprint(h, ops):
    return ([(op.gproc, op.kind.value, op.offset, op.issue_slot,
              op.done_slot, op.nc_fetches,
              None if op.result is None else [w.value for w in op.result.words])
             for op in ops], h.slot)


class TestHierarchyCriticality:
    def _run(self, criticality):
        from repro.hierarchy.slot_accurate import SlotAccurateHierarchy

        h = SlotAccurateHierarchy(2, 2, bank_cycle=1)
        ops = []
        # Cross-cluster shared offsets: every op goes through the NC queue.
        for g in range(4):
            ops.append(h.load(g, g % 3, criticality=criticality))
            ops.append(h.store(g, (g + 1) % 3, {0: g + 10},
                               criticality=criticality))
        h.run_ops(ops)
        h.check_invariants()
        return _hier_fingerprint(h, ops)

    def test_normal_tags_bit_identical_to_untagged(self):
        assert self._run(NORMAL) == self._run(None)

    def test_bad_tier_rejected(self):
        from repro.hierarchy.slot_accurate import SlotAccurateHierarchy

        h = SlotAccurateHierarchy(2, 2, bank_cycle=1)
        with pytest.raises(ValueError, match="latency_critical"):
            h.load(0, 0, criticality="important")


# --------------------------------------------------------------------------
# The SLA tracker


class TestSlaTracker:
    def test_per_tier_percentiles_and_deadlines(self):
        t = SlaTracker(unit="slots", deadlines={LATENCY_CRITICAL: 50})
        t.extend(LATENCY_CRITICAL, [10, 20, 30, 40, 60])
        t.record(BULK, 500, deadline=100)
        assert t.total() == 6
        assert t.percentile(LATENCY_CRITICAL, 0.5) == 30
        assert t.percentile(LATENCY_CRITICAL, 1.0) == 60
        assert t.missed(LATENCY_CRITICAL) == 1  # the 60 against default 50
        assert t.missed(BULK) == 1
        snap = t.snapshot()
        assert snap["unit"] == "slots"
        assert list(snap["tiers"]) == [LATENCY_CRITICAL, BULK]  # canonical
        lc = snap["tiers"][LATENCY_CRITICAL]
        assert lc["n"] == 5 and lc["deadline"] == {"met": 4, "missed": 1}

    def test_quantum_preserves_fractional_units(self):
        t = SlaTracker(unit="ms", quantum=1000)
        t.extend(None, [0.25, 0.5, 1.75])  # untagged → "normal"
        assert t.percentile(NORMAL, 0.5) == 0.5
        snap = t.snapshot()["tiers"][NORMAL]
        assert snap["min"] == 0.25 and snap["max"] == 1.75
        assert "deadline" not in snap  # no deadline was ever supplied

    def test_validation(self):
        with pytest.raises(ValueError, match="quantum"):
            SlaTracker(quantum=0)
        t = SlaTracker()
        with pytest.raises(ValueError, match="latency_critical"):
            t.record("asap", 1.0)
        with pytest.raises(ValueError, match="no samples"):
            t.percentile(BULK, 0.5)


# --------------------------------------------------------------------------
# Serve spec: criticality/deadline validated, never part of the payload


class TestServeSpecQos:
    def test_fields_validated_and_kept_out_of_payload(self):
        from repro.serve.spec import validate_request

        req = validate_request({
            "id": "q1", "system": "cfm",
            "params": {"n_procs": 4, "bank_cycle": 1, "cycles": 100},
            "criticality": LATENCY_CRITICAL, "deadline_ms": 250,
        })
        assert req.criticality == LATENCY_CRITICAL
        assert req.deadline_ms == 250.0
        assert "criticality" not in req.payload
        assert "deadline_ms" not in req.payload
        untagged = validate_request({
            "id": "q2", "system": "cfm",
            "params": {"n_procs": 4, "bank_cycle": 1, "cycles": 100},
        })
        assert req.payload == untagged.payload  # same cache identity

    @pytest.mark.parametrize("field,value,match", [
        ("criticality", "urgent", "criticality"),
        ("deadline_ms", 0, "deadline_ms"),
        ("deadline_ms", -3.5, "deadline_ms"),
        ("deadline_ms", True, "deadline_ms"),
        ("deadline_ms", "fast", "deadline_ms"),
    ])
    def test_bad_values_rejected(self, field, value, match):
        from repro.serve.spec import RequestError, validate_request

        with pytest.raises(RequestError, match=match):
            validate_request({"id": "x", "system": "cfm", field: value})


# --------------------------------------------------------------------------
# Bench plumbing: the qos system and its spec matrix


class TestBenchQos:
    def test_specs_qos_pairs_priority_with_fifo(self):
        from repro.obs.bench import specs_qos

        specs = specs_qos(quick=True)
        assert len(specs) % 2 == 0
        for i in range(0, len(specs), 2):
            prio, fifo = specs[i]["params"], specs[i + 1]["params"]
            assert prio["arbitration"] == "priority"
            assert fifo["arbitration"] == "fifo"
            assert {k: v for k, v in prio.items() if k != "arbitration"} \
                == {k: v for k, v in fifo.items() if k != "arbitration"}
        assert any("degraded_bank" in s["params"] for s in specs)

    def test_degraded_mode_keeps_qos_accounting(self):
        from repro.obs.bench import run_spec

        report = run_spec({"system": "qos", "params": {
            "n_procs": 8, "bank_cycle": 2, "cycles": 400,
            "rate": 0.05, "bulk_rate": 0.05, "degraded_bank": 1}})
        assert report["params"]["degraded_bank"] == 1
        assert report["qos"]["sla"]["tiers"]
