"""Stacked cross-simulation engine (fastpath stage 4): vectorize *across*
runs, not just within one.

The workloads the ROADMAP actually cares about — parameter sweeps, the
serving layer's micro-batches, chaos matrices — are fleets of independent
same-shape CFM runs.  Their AT-space schedules are the *same* pure
function of ``t mod b``, so S runs can advance in lockstep with the epoch
planning done **once per round for the whole stack**: one concatenated
gather over the cached :func:`~repro.fastpath.vector.np_slot_bank_table`
yields every lane's bank positions, one ``np.minimum.reduceat`` yields
every lane's epoch target.  Python dispatch, table gathers, and plan
arithmetic amortize across the fleet.

Two further single-lane optimizations ride on the stage-3 engine's frame
(both measured, together worth more than the planning amortization):

* **bulk finisher unlink** — under full load every finisher's
  :meth:`~repro.core.cfm.CFMemory._finish` would ``active.remove(acc)``,
  an O(n) identity scan past the already-reissued accesses, once per
  finisher.  The stack driver unlinks all finishers in one
  identity-filter pass and calls ``_finish(..., unlink=False)``;
  completion order, ``complete_slot``, callback order, and the
  proc-sorted active list are unchanged — proc keys are unique, so the
  sorted list is uniquely determined by its membership, not by
  insertion interleaving.
* **shared whole-block memo** — a full-epoch read's result holds every
  bank's word and is independent of rotation order; the stage-3 engine
  memoized it per offset but *copied* the dict per access.  The memo dict
  is never mutated after it is built (writes ``pop`` the memo key; new
  reads build fresh dicts), and only accesses completing this epoch
  receive it — so lanes hand out the dict itself.  Value-identical to the
  copy; only object identity differs, which no contract observes.

**Ejection, not fallback.**  Each lane re-proves its static eligibility
(:meth:`~repro.core.cfm.CFMemory._fast_eligible` /
:meth:`~repro.core.cfm.CFMemory._batch_hazard`) at the top of every
round.  A lane that picks up a hazard — fault plan, degraded bank,
probe, same-offset write interleaving — or carries a metrics registry
(the stacked plan accumulates no bank utilization) is individually
*ejected* from the stack onto its own
:meth:`~repro.core.cfm.CFMemory.run_batch` for the rest of its window
(counted as ``stack.fallbacks``), while the remaining lanes stay
vectorized.  Typed fault semantics therefore pass through untouched: an
ejected lane raises or degrades exactly as it would standalone.

Bit-identity to per-spec serial :func:`repro.obs.bench.run_spec` is the
invariant everywhere (invariant 11, ``tests/test_fastpath_stage4.py``):
:func:`run_specs_stacked` builds its lanes through the bench harness's
own workload wiring, so a stacked report is assembled from exactly the
state a serial run would produce.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.fastpath.engine import ENGINES
from repro.fastpath.vector import np_slot_bank_table


def run_stack(mems: Sequence[object],
              slots: Union[int, Sequence[int]]) -> None:
    """Advance S same-shape CFM modules in lockstep, each by its budget.

    ``mems`` must share one ``(n_banks, bank_cycle)`` shape; ``slots`` is
    one budget for all lanes or a per-lane sequence.  Results are
    bit-identical to calling ``mem.run(slots)`` on each module alone
    (invariant 11).  A width-1 stack is the ``engine="stacked"`` path of
    :meth:`~repro.core.cfm.CFMemory.run_engine`.
    """
    from repro.core.cfm import AccessState, _INIT_WORD
    from repro.core.block import Word

    mems = list(mems)
    if not mems:
        return
    if isinstance(slots, int):
        budgets = [slots] * len(mems)
    else:
        budgets = [int(s) for s in slots]
        if len(budgets) != len(mems):
            raise ValueError(
                f"got {len(mems)} modules but {len(budgets)} slot budgets"
            )
    n_banks = mems[0].cfg.banks_per_module
    bank_cycle = mems[0].cfg.bank_cycle
    for mem in mems:
        if (mem.cfg.banks_per_module, mem.cfg.bank_cycle) != (n_banks,
                                                              bank_cycle):
            raise ValueError(
                "stacked runs must share one (n_banks, bank_cycle) shape: "
                f"expected ({n_banks}, {bank_cycle}), got "
                f"({mem.cfg.banks_per_module}, {mem.cfg.bank_cycle})"
            )
    for budget in budgets:
        if budget < 0:
            raise ValueError(f"slots must be >= 0, got {budget}")
    table = np_slot_bank_table(n_banks, bank_cycle)

    # Per-lane state: (mem, end slot, whole-block memo, profiler token,
    # cached write stamp).  Lanes keep their own memo — bank contents are
    # per-module — invalidated exactly as in the stage-3 engine.
    lanes = []
    for mem, budget in zip(mems, budgets):
        hp = mem.hotpath
        token = hp.claim("cfm") if hp is not None else None
        lanes.append([mem, mem.slot + budget, {}, token])
    live = list(lanes)
    try:
        while live:
            planned = []
            for lane in live:
                mem, end = lane[0], lane[1]
                if mem.slot >= end:
                    continue  # retired: budget exhausted
                if (mem.metrics is not None or not mem._fast_eligible()
                        or mem._batch_hazard()):
                    # Eject this lane: its static proof broke (probe,
                    # fault plan, degraded bank, write interleaving) or it
                    # is metered (the stacked plan accumulates no bank
                    # utilization).  run_batch re-proves per round and
                    # ticks where it must; the lane leaves the stack for
                    # good.
                    hp = mem.hotpath
                    if hp is not None:
                        hp.count("cfm", "stack.fallbacks")
                    mem.run_batch(end - mem.slot)
                    continue
                if not mem.active:
                    hp = mem.hotpath
                    if hp is not None:
                        hp.count("cfm", "skipped_slots", end - mem.slot)
                    mem.slot = end  # idle-slot skip
                    continue
                planned.append(lane)
            if not planned:
                break
            # One stacked plan for every live lane: concatenated gathers
            # over the shared table, one reduceat for the epoch targets.
            n_lanes = len(planned)
            counts = [len(lane[0].active) for lane in planned]
            total = sum(counts)
            procs = np.fromiter(
                (a.proc for lane in planned for a in lane[0].active),
                dtype=np.intp, count=total)
            words_done = np.fromiter(
                (a.words_done for lane in planned for a in lane[0].active),
                dtype=np.intp, count=total)
            slot_arr = np.fromiter((lane[0].slot for lane in planned),
                                   dtype=np.intp, count=n_lanes)
            limit_arr = np.fromiter((lane[1] - 1 for lane in planned),
                                    dtype=np.intp, count=n_lanes)
            starts = np.zeros(n_lanes, dtype=np.intp)
            np.cumsum(counts[:-1], out=starts[1:])
            rep = np.repeat(np.arange(n_lanes), counts)
            lane_slots = slot_arr[rep]
            banks_now = table[lane_slots % n_banks, procs]
            remaining = n_banks - words_done
            finish_slots = lane_slots + remaining - 1
            targets = np.minimum(np.minimum.reduceat(finish_slots, starts),
                                 limit_arr)
            spans = targets - slot_arr + 1
            steps = np.minimum(remaining, spans[rep])
            banks_now_list = banks_now.tolist()
            steps_list = steps.tolist()
            targets_list = targets.tolist()
            spans_list = spans.tolist()
            base = 0
            for k, lane in enumerate(planned):
                mem = lane[0]
                memo: Dict[int, Dict[int, object]] = lane[2]
                orders = mem._orders
                banks = mem.banks
                active = mem.active
                slot = mem.slot
                target = targets_list[k]
                finishers: List = []
                # active cannot mutate inside this loop (callbacks only
                # fire from _finish below), so indices stay valid.
                for i, acc in enumerate(active):
                    bank_now = banks_now_list[base + i]
                    if acc.words_done == 0:
                        acc.first_bank = bank_now
                        acc.start_slot = slot
                    offset = acc.offset
                    order = orders[bank_now]
                    step = steps_list[base + i]
                    if acc.kind.is_write:
                        data = acc.data
                        assert data is not None
                        words = data.words
                        version = acc.version
                        written = acc.banks_written
                        seq = order if step == n_banks else order[:step]
                        for bank in seq:
                            banks[bank][offset] = Word(words[bank].value,
                                                       version)
                            written.append(bank)
                        memo.pop(offset, None)
                    elif step == n_banks:
                        # Whole block in one epoch: rotation-order
                        # independent, so one memo dict per offset serves
                        # every streaming read — handed out *shared*, not
                        # copied (see module docstring for the proof).
                        cached = memo.get(offset)
                        if cached is None:
                            cached = memo[offset] = {
                                bank: banks[bank].get(offset, _INIT_WORD)
                                for bank in order
                            }
                        acc.result_words = cached
                    else:
                        results = acc.result_words
                        for bank in order[:step]:
                            results[bank] = banks[bank].get(offset,
                                                            _INIT_WORD)
                    acc.words_done += step
                    if acc.words_done == n_banks:
                        finishers.append(acc)
                # Bulk unlink before the finish callbacks run: one pass
                # instead of len(finishers) O(n) list.remove scans.
                if finishers:
                    if len(finishers) == len(active):
                        active.clear()
                    else:
                        done = {id(a) for a in finishers}
                        active[:] = [a for a in active if id(a) not in done]
                stamp = mem._write_stamp
                mem.slot = target
                for acc in finishers:
                    mem._finish(acc, AccessState.COMPLETED, target,
                                unlink=False)
                mem.slot = target + 1
                if mem._write_stamp != stamp:
                    # A finish callback wrote through write_word: every
                    # memoized block of this lane may be stale.
                    memo.clear()
                hp = mem.hotpath
                if hp is not None:
                    hp.count("cfm", "stack.batched_slots", spans_list[k])
                base += counts[k]
    finally:
        for lane in lanes:
            mem, token = lane[0], lane[3]
            if mem.hotpath is not None:
                mem.hotpath.release(token)


# --------------------------------------------------------------------------
# Spec-level stacking (the sweep's and the serving layer's entry point)


def stackable_spec(spec: Dict[str, object]) -> bool:
    """May this run spec join a stacked execution?

    Stackable: a ``cfm`` spec with no fault injection, no observer, and
    an explicit ``engine`` pin — i.e. the engine-driven bench runner,
    whose report depends only on the params and the engine-invariant
    completion stream (invariants 10–11).  The engineless cfm runner is
    the *observed* issue-at-top-of-slot driver (metrics in the report,
    latency β) and cannot be stacked bit-identically; it never
    qualifies."""
    if spec.get("system") != "cfm":
        return False
    if spec.get("inject") is not None:
        return False
    params = spec.get("params")
    if not isinstance(params, dict):
        return False
    if params.get("probe") is not None:
        return False
    engine = params.get("engine")
    if engine not in ENGINES:
        return False
    try:
        if int(params.get("cycles", 0)) < 0:
            return False
        return int(params.get("n_procs", 0)) > 0 and \
            int(params.get("bank_cycle", 1)) > 0
    except (TypeError, ValueError):
        return False


def stack_shape(spec: Dict[str, object]):
    """The ``(n_banks, bank_cycle)`` shape a stackable spec runs on."""
    params = spec.get("params") or {}
    n_procs = int(params.get("n_procs"))  # type: ignore[arg-type]
    bank_cycle = int(params.get("bank_cycle", 1) or 1)
    return (n_procs * bank_cycle, bank_cycle)


def run_specs_stacked(specs: Sequence[Dict[str, object]]
                      ) -> List[Dict[str, object]]:
    """Run same-shape stackable specs as one stacked execution.

    Returns one run report per spec, in spec order, each bit-identical to
    ``run_spec(spec)`` run alone (the invariant-11 contract the stage-4
    differential sweep enforces).  Duplicate specs get their own lanes —
    runs are pure, so lanes never observe each other.  Raises
    ``ValueError`` for non-stackable specs or mixed shapes; callers that
    may hold mixed batches (the sweep, the serve worker) group or eject
    *before* calling."""
    from repro.obs.bench import _cfm_engine_report, _cfm_engine_setup

    specs = list(specs)
    if not specs:
        return []
    shapes = set()
    for spec in specs:
        if not stackable_spec(spec):
            raise ValueError(f"spec is not stackable: {spec!r}")
        shapes.add(stack_shape(spec))
    if len(shapes) > 1:
        raise ValueError(
            f"stacked specs must share one (n_banks, bank_cycle) shape, "
            f"got {sorted(shapes)}"
        )
    lanes = []
    budgets = []
    for spec in specs:
        params = dict(spec.get("params") or {})
        setup = _cfm_engine_setup(int(params["n_procs"]),
                                  int(params.get("bank_cycle", 1)))
        lanes.append(setup)
        budgets.append(int(params["cycles"]))
    run_stack([mem for _, _, mem in lanes], budgets)
    reports = []
    for spec, (params, summary, _mem), cycles in zip(specs, lanes, budgets):
        engine = str((spec.get("params") or {})["engine"])
        reports.append(_cfm_engine_report(params, summary, cycles, engine))
    return reports
