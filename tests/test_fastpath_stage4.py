"""Stage-4 stacked execution: fleets of same-shape runs (invariant 11).

Proof obligations:

* **differential sweep** — :func:`repro.fastpath.stack.run_specs_stacked`
  is bit-identical to per-spec serial :func:`repro.obs.bench.run_spec`
  across shapes (4, 1)…(128, 32), every engine pin, and duplicate specs
  (which get their own lanes);
* **raw stack identity** — :func:`repro.fastpath.stack.run_stack` on
  mixed workloads (full-load reads, partial load, private writes, mixed
  budgets) leaves every module in exactly the state a serial
  ``mem.run(slots)`` produces: same banks, same completion log, same
  result blocks (read at the end, so they pin the span walk's shared
  whole-block read memo), same slot;
* **hazards per lane** — a lane that picks up a same-offset write
  interleave ticks through it on its own span walk (counted as
  ``fallback.hazard``) while its stack-mates stay batched, and it
  remains bit-identical to its serial run;
* **metrics-snapshot identity** — observed lanes see the identical
  event stream stacked or serial;
* **sweep integration** — ``sweep(..., stack=True)`` groups stackable
  specs by shape, produces the identical document (serial or pooled),
  and records the stacking plan under ``timing.stack``.
"""

from __future__ import annotations

import json

import pytest

from repro.core.block import Block
from repro.core.cfm import AccessKind, CFMemory
from repro.core.config import CFMConfig
from repro.fastpath.engine import ENGINE_STACKED, ENGINES, engine_available
from repro.obs.hotpath import HotpathProfiler
from repro.obs.metrics import MetricsRegistry

from repro.fastpath.stack import (
    run_stack,
    run_specs_stacked,
    stack_shape,
    stackable_spec,
)


def _normalized(doc):
    return json.loads(json.dumps(doc, sort_keys=True))


def _fingerprint(mem: CFMemory, log):
    return (
        mem.slot,
        [sorted(bank.items()) for bank in mem.banks],
        [(a.proc, a.words_done) for a in mem.active],
        len(mem.completed),
        [a.result.words for a in mem.completed if a.kind.is_read],
        list(log),
    )


# --------------------------------------------------------------------------
# Workload builders: each returns a primed module + its completion log.
# Deterministic, so a fresh serial twin sees the identical issue stream.


def _reads(cfg: CFMConfig, stride: int = 1):
    """Full-load streaming reads; ``stride > 1`` leaves procs idle."""
    mem = CFMemory(cfg)
    log = []

    def reissue(acc):
        log.append((acc.proc, acc.complete_slot, mem.slot, acc.first_bank))
        mem.issue(acc.proc, AccessKind.READ, offset=acc.proc % 4,
                  on_finish=reissue)

    for p in range(0, cfg.n_procs, stride):
        mem.issue(p, AccessKind.READ, offset=p % 4, on_finish=reissue)
    return mem, log


def _private_writes(cfg: CFMConfig):
    """Every 2nd reissue of a proc writes a processor-private offset —
    hazard-free: a batched write to offset X between full reads of X,
    exercising the span walk's write path and memo invalidation."""
    mem = CFMemory(cfg)
    log = []
    counts = [0] * cfg.n_procs

    def reissue(acc):
        log.append((acc.proc, acc.complete_slot, mem.slot))
        p = acc.proc
        counts[p] += 1
        if counts[p] % 2 == 0:
            data = Block.of_values([counts[p] * 100 + p] * mem.n_banks)
            mem.issue(p, AccessKind.WRITE, offset=p, data=data,
                      version=f"P{p}.{counts[p]}", on_finish=reissue)
        else:
            mem.issue(p, AccessKind.READ, offset=p, on_finish=reissue)

    for p in range(cfg.n_procs):
        mem.issue(p, AccessKind.READ, offset=p, on_finish=reissue)
    return mem, log


def _conflicting_writes(cfg: CFMConfig):
    """Procs 0 and 1 periodically write the SAME offset: under full load
    both writes go in flight together, the write-interleave hazard breaks
    the static proof, and the lane must tick through it mid-run."""
    mem = CFMemory(cfg)
    log = []
    counts = [0] * cfg.n_procs

    def reissue(acc):
        log.append((acc.proc, acc.complete_slot, mem.slot))
        p = acc.proc
        counts[p] += 1
        if p < 2 and counts[p] % 3 == 0:
            data = Block.of_values([counts[p] * 10 + p] * mem.n_banks)
            mem.issue(p, AccessKind.WRITE, offset=0, data=data,
                      version=f"W{p}.{counts[p]}", on_finish=reissue)
        else:
            mem.issue(p, AccessKind.READ, offset=p, on_finish=reissue)

    for p in range(cfg.n_procs):
        mem.issue(p, AccessKind.READ, offset=p, on_finish=reissue)
    return mem, log


WORKLOADS = [_reads, lambda cfg: _reads(cfg, stride=2), _private_writes,
             _conflicting_writes]


# --------------------------------------------------------------------------
# Raw stack identity


@pytest.mark.parametrize("n_procs,bank_cycle", [(4, 1), (8, 2), (16, 4)])
def test_run_stack_mixed_workloads_match_serial(n_procs, bank_cycle):
    cfg = CFMConfig(n_procs=n_procs, bank_cycle=bank_cycle)
    slots = 6 * cfg.n_banks
    stacked = [build(cfg) for build in WORKLOADS]
    run_stack([mem for mem, _ in stacked], slots)
    for build, (mem, log) in zip(WORKLOADS, stacked):
        serial_mem, serial_log = build(cfg)
        serial_mem.run(slots)
        assert _fingerprint(mem, log) == _fingerprint(serial_mem, serial_log)


def test_run_stack_mixed_budgets_match_serial():
    cfg = CFMConfig(n_procs=8, bank_cycle=2)
    budgets = [2 * cfg.n_banks, 5 * cfg.n_banks, 0, 3 * cfg.n_banks + 7]
    stacked = [_reads(cfg) for _ in budgets]
    run_stack([mem for mem, _ in stacked], budgets)
    for budget, (mem, log) in zip(budgets, stacked):
        serial_mem, serial_log = _reads(cfg)
        serial_mem.run(budget)
        assert _fingerprint(mem, log) == _fingerprint(serial_mem, serial_log)


def test_run_stack_validates_shapes_and_budgets():
    a = CFMemory(CFMConfig(n_procs=4, bank_cycle=1))
    b = CFMemory(CFMConfig(n_procs=8, bank_cycle=2))
    with pytest.raises(ValueError, match="shape"):
        run_stack([a, b], 10)
    with pytest.raises(ValueError, match="slot budgets"):
        run_stack([a], [10, 20])
    with pytest.raises(ValueError, match=">= 0"):
        run_stack([a], [-1])
    run_stack([], 10)  # empty stack is a no-op


# --------------------------------------------------------------------------
# Hazards per lane


def test_hazard_lane_ejects_while_stackmates_stay_vectorized():
    cfg = CFMConfig(n_procs=8, bank_cycle=2)
    slots = 8 * cfg.n_banks
    clean_mem, clean_log = _reads(cfg)
    hazard_mem, hazard_log = _conflicting_writes(cfg)
    clean_hp, hazard_hp = HotpathProfiler(), HotpathProfiler()
    clean_mem.hotpath = clean_hp
    hazard_mem.hotpath = hazard_hp
    run_stack([clean_mem, hazard_mem], slots)

    clean_events = clean_hp.snapshot()["cfm"]
    hazard_events = hazard_hp.snapshot()["cfm"]
    # The clean lane batched every slot...
    assert clean_events == {"batched_slots": slots}
    # ...the hazard lane batched some spans and ticked through its write
    # interleaves, and its counters account for every slot.
    assert hazard_events.get("fallback.hazard", 0) > 0
    assert 0 < hazard_events.get("batched_slots", 0) < slots
    assert sum(hazard_events.values()) == slots
    assert clean_hp.occupancy()["cfm"]["batched_frac"] == 1.0
    assert clean_hp.occupancy()["cfm"]["batched"] == slots

    # Both lanes remain bit-identical to their serial runs.
    for build, mem, log in [(_reads, clean_mem, clean_log),
                            (_conflicting_writes, hazard_mem, hazard_log)]:
        serial_mem, serial_log = build(cfg)
        serial_mem.run(slots)
        assert _fingerprint(mem, log) == _fingerprint(serial_mem, serial_log)


def test_observed_lane_ejects_with_identical_metrics_snapshot():
    """A lane with a metrics registry rides the span walk like any other
    (utilization accumulates in bulk) and its registry sees the identical
    event stream a serial run feeds it."""
    cfg = CFMConfig(n_procs=4, bank_cycle=1)
    slots = 40

    def observed():
        reg = MetricsRegistry()
        mem = CFMemory(cfg, metrics=reg)
        done = []
        for p in range(cfg.n_procs):
            mem.issue(p, AccessKind.READ, offset=p % 3,
                      on_finish=lambda a: done.append((a.proc,
                                                      a.complete_slot)))
        return mem, done, reg

    hp = HotpathProfiler()
    obs_mem, obs_done, obs_reg = observed()
    obs_mem.hotpath = hp
    clean_mem, clean_log = _reads(cfg)
    run_stack([obs_mem, clean_mem], slots)
    # One b = 4 slot span of reads, then an idle leap.
    assert hp.snapshot()["cfm"] == {"batched_slots": 4, "skipped_slots": 36}

    serial_mem, serial_done, serial_reg = observed()
    serial_mem.run(slots)
    assert obs_done == serial_done
    assert obs_mem.slot == serial_mem.slot == slots
    assert obs_reg.snapshot() == serial_reg.snapshot()
    assert obs_reg.snapshot()  # the registry really was fed


# --------------------------------------------------------------------------
# Spec-level differential sweep (invariant 11)

SHAPES = [(4, 1), (8, 2), (16, 4), (32, 8), (64, 16), (128, 32)]


def _spec(n_procs, bank_cycle, cycles, engine):
    return {"system": "cfm",
            "params": {"n_procs": n_procs, "bank_cycle": bank_cycle,
                       "cycles": cycles, "engine": engine}}


@pytest.mark.parametrize("n_procs,bank_cycle", SHAPES)
def test_run_specs_stacked_matches_run_spec(n_procs, bank_cycle):
    from repro.obs.bench import run_spec

    n_banks = n_procs * bank_cycle
    # Reference/batch pins ride only the small shapes; the vectorized and
    # stacked pins sweep everything.
    engines = [e for e in ENGINES
               if n_banks <= 64 or e in ("vectorized", "stacked")]
    specs = [_spec(n_procs, bank_cycle, n_banks * (i + 2), engine)
             for i, engine in enumerate(engines)]
    specs.append(_normalized(specs[-1]))  # duplicate spec: its own lane
    serial = [run_spec(_normalized(s)) for s in specs]
    stacked = run_specs_stacked([_normalized(s) for s in specs])
    assert _normalized(stacked) == _normalized(serial)
    # Each report still names ITS spec's engine pin, and the duplicate's
    # report is identical to its twin's.
    assert [r["params"]["engine"] for r in stacked] == engines + [engines[-1]]
    assert _normalized(stacked[-1]) == _normalized(stacked[-2])


def test_run_specs_stacked_validation():
    assert run_specs_stacked([]) == []
    with pytest.raises(ValueError, match="not stackable"):
        run_specs_stacked([{"system": "cfm",
                            "params": {"n_procs": 4, "cycles": 10}}])
    with pytest.raises(ValueError, match="shape"):
        run_specs_stacked([_spec(4, 1, 20, "stacked"),
                           _spec(8, 2, 20, "stacked")])


def test_stackable_spec_predicate():
    good = _spec(4, 1, 100, "stacked")
    assert stackable_spec(good)
    assert stack_shape(good) == (4, 1)
    assert stack_shape(_spec(8, 4, 100, "vectorized")) == (32, 4)
    # Any engine pin qualifies (results are engine-invariant) ...
    assert all(stackable_spec(_spec(4, 1, 100, e)) for e in ENGINES)
    # ... but the engineless observed path, faults, probes, other
    # systems, and malformed params never do.
    assert not stackable_spec({"system": "cfm",
                               "params": {"n_procs": 4, "cycles": 100}})
    assert not stackable_spec(dict(good, inject={"events": []}))
    assert not stackable_spec(dict(good, system="cache"))
    bad_probe = _normalized(good)
    bad_probe["params"]["probe"] = "record"
    assert not stackable_spec(bad_probe)
    for params in ({"n_procs": 0, "cycles": 10, "engine": "stacked"},
                   {"n_procs": 4, "cycles": -1, "engine": "stacked"},
                   {"n_procs": 4, "cycles": 10, "engine": "turbo"},
                   {"n_procs": "x", "cycles": 10, "engine": "stacked"}):
        assert not stackable_spec({"system": "cfm", "params": params})


def test_width_one_stack_is_the_run_engine_stacked_path():
    assert engine_available(ENGINE_STACKED, "cfm")
    serial_mem, serial_log = _reads(CFMConfig(n_procs=8, bank_cycle=2))
    serial_mem.run(160)
    mem, log = _reads(CFMConfig(n_procs=8, bank_cycle=2))
    mem.run_engine(160, engine=ENGINE_STACKED)
    assert _fingerprint(mem, log) == _fingerprint(serial_mem, serial_log)


# --------------------------------------------------------------------------
# Sweep integration (satellite: shape-grouped stacking in the harness)


class TestStackedSweep:
    SPECS = [
        _spec(8, 2, 200, "stacked"),
        {"system": "interleaved",
         "params": {"n_procs": 8, "n_modules": 8, "rate": 0.04, "beta": 17,
                    "cycles": 500, "seed": 7}},
        _spec(8, 2, 300, "vectorized"),   # same shape, different pin
        _spec(4, 1, 150, "stacked"),      # second shape group
        {"system": "cfm",                 # engineless: observed, unstackable
         "params": {"n_procs": 8, "bank_cycle": 2, "cycles": 200}},
        _spec(8, 2, 200, "stacked"),      # duplicate of SPECS[0]
    ]

    def test_stacked_sweep_identical_serial_and_pooled(self):
        from repro.fastpath.parallel import sweep

        plain = sweep(_normalized(self.SPECS), jobs=1, name="t")
        stacked = sweep(_normalized(self.SPECS), jobs=1, name="t", stack=True)
        pooled = sweep(_normalized(self.SPECS), jobs=2, name="t", stack=True)
        for doc in (plain, stacked, pooled):
            doc.pop("timing")
        assert stacked == plain
        assert pooled == plain

    def test_timing_records_the_stack_plan(self):
        from repro.fastpath.parallel import sweep

        doc = sweep(_normalized(self.SPECS), jobs=1, name="t", timing=True,
                    stack=True)
        # One multi-lane unit — the (16, 2) group: specs 0, 2, and 5.
        # The (4, 1) group is width-1 and is demoted to a singleton.
        assert doc["timing"]["stack"] == {"units": 1, "stacked_runs": 3}
        assert len(doc["timing"]["runs"]) == len(self.SPECS)

    def test_unstacked_sweep_has_no_stack_section(self):
        from repro.fastpath.parallel import sweep

        doc = sweep(_normalized(self.SPECS[:1]), jobs=1, name="t",
                    timing=True)
        assert "stack" not in doc["timing"]
