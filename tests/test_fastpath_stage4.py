"""Stage-4 stacked sweep units (invariant 11).

``stacked`` is a plain engine name for the span walk; what stage 4 adds
is the sweep's grouping rule.  Proof obligations:

* **grouping rule** — :func:`repro.fastpath.stack.stackable_spec` admits
  exactly the engine-pinned, uninjected, unprobed cfm specs, and
  :func:`repro.fastpath.stack.stack_shape` names the unit they join;
* **engine name** — a lone ``engine="stacked"`` run equals per-slot
  ``run``;
* **sweep integration** — ``sweep(..., stack=True)`` groups stackable
  specs by shape, produces the identical document (serial or pooled),
  and records the grouping under ``timing.stack``, with one wall time
  shared by every spec of a unit.

The span walk itself (every engine name against per-slot ``run``) is
proven in ``tests/test_fastpath_stage3.py``.
"""

from __future__ import annotations

import json

from repro.core.cfm import AccessKind, CFMemory
from repro.core.config import CFMConfig
from repro.fastpath.engine import ENGINE_STACKED, ENGINES
from repro.fastpath.stack import stack_shape, stackable_spec


def _normalized(doc):
    return json.loads(json.dumps(doc, sort_keys=True))


def _spec(n_procs, bank_cycle, cycles, engine):
    return {"system": "cfm",
            "params": {"n_procs": n_procs, "bank_cycle": bank_cycle,
                       "cycles": cycles, "engine": engine}}


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
    """A lone ``engine="stacked"`` run is the span walk: completion log,
    result blocks and banks equal per-slot ``run``."""
    def run(advance):
        mem = CFMemory(CFMConfig(n_procs=8, bank_cycle=2))
        log = []

        def reissue(acc):
            log.append((acc.proc, acc.complete_slot, acc.first_bank,
                        acc.result.words))
            mem.issue(acc.proc, AccessKind.READ, acc.proc % 4,
                      on_finish=reissue)

        for p in range(8):
            mem.issue(p, AccessKind.READ, p % 4, on_finish=reissue)
        advance(mem, 160)
        return log, mem.slot, mem.banks

    stacked = run(lambda mem, n: mem.run_engine(n, engine=ENGINE_STACKED))
    assert stacked == run(lambda mem, n: mem.run(n))
    assert stacked[0]


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
        # One unit — the (16, 2) group: specs 0, 2, and 5.  The (4, 1)
        # shape has one stackable spec and forms no unit.
        assert doc["timing"]["stack"] == {"units": 1, "stacked_runs": 3}
        runs = doc["timing"]["runs"]
        assert len(runs) == len(self.SPECS)
        # The unit is accounted as one task: its specs share its mean
        # wall time.
        assert runs[0]["wall_time_s"] == runs[2]["wall_time_s"] \
            == runs[5]["wall_time_s"]

    def test_unstacked_sweep_has_no_stack_section(self):
        from repro.fastpath.parallel import sweep

        doc = sweep(_normalized(self.SPECS[:1]), jobs=1, name="t",
                    timing=True)
        assert "stack" not in doc["timing"]
