"""Vectorized epoch engine (fastpath stage 3): numpy gathers over the
precomputed AT tables.

The stage-2 batchers already replay provably interaction-free spans in one
pass, but they still *plan* each epoch in Python — a generator-min over
the active set for the next completion, a per-access walk to find bank
positions.  The AT-space schedule is a pure function of ``t mod b``, so
the whole epoch plan is one round of array arithmetic:

* **per-access completion slots** — ``slot + (b - words_done) - 1``, an
  elementwise expression whose minimum is the epoch target;
* **first banks** — a row gather ``table[slot % b][procs]`` over the
  cached :func:`np_slot_bank_table`;
* **bank occupancy spans** — each access visits bank ``k`` at offset
  ``(k - first_bank) mod b`` into the epoch, so per-bank busy windows are
  one broadcast subtraction (:func:`bank_occupancy`);
* **ATT-membership windows** — accesses performing their first word this
  epoch hold a tracking-table entry for exactly ``capacity`` slots
  (:func:`att_windows`).

Word movement stays in exact Python — bank contents are per-bank dicts of
frozen :class:`~repro.core.block.Word` objects, the representation every
differential fingerprint hashes — but whole-block reads are memoized per
offset within a run (a C-level dict copy instead of a rebuild), which is
where the vectorized engine's speedup over the stage-2 batcher comes
from on streaming workloads.

The proof obligation is unchanged from stage 2 and enforced the same way:
:func:`run_vector` consults ``CFMemory._fast_eligible`` /
``_batch_hazard`` before every epoch and hands the rest of the window to
:meth:`~repro.core.cfm.CFMemory.run_batch` the moment a hazard —
same-offset write interleaving, an active fault plan, a degraded bank,
an attached probe — breaks the static proof, and likewise whenever a
metrics registry is attached (this planner accumulates no bank
utilization; ``run_batch`` does).  Differential tests
(``tests/test_fastpath_stage3.py``) pin all three engines bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from repro.fastpath.tables import TABLE_CACHE_SIZE, bank_orders, slot_bank_table


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def np_slot_bank_table(n_banks: int, bank_cycle: int) -> "np.ndarray":
    """:func:`repro.fastpath.tables.slot_bank_table` as a read-only array.

    Shares the tuple table's static conflict-freedom proof (it is built
    from it); shape ``(b, b/c)``, dtype ``intp`` for direct fancy-index
    gathers."""
    arr = np.array(slot_bank_table(n_banks, bank_cycle), dtype=np.intp)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def np_bank_orders(n_banks: int) -> "np.ndarray":
    """:func:`repro.fastpath.tables.bank_orders` as a read-only array,
    shape ``(b, b)``: row ``first`` is the wrap-around visit sequence."""
    arr = np.array(bank_orders(n_banks), dtype=np.intp)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class EpochPlan:
    """One conflict-free epoch, fully planned: arrays indexed like the
    proc-sorted active list the plan was computed from."""

    slot: int            #: first slot of the epoch
    target: int          #: last slot of the epoch (earliest finish or limit)
    span: int            #: ``target - slot + 1``
    banks_now: "np.ndarray"     #: bank each access visits at ``slot``
    words_done: "np.ndarray"    #: words already performed, at ``slot``
    steps: "np.ndarray"         #: words each access performs this epoch
    finish_slots: "np.ndarray"  #: slot each access would perform its last word
    finishers: "np.ndarray"     #: indices of accesses completing at ``target``


def plan_epoch(n_banks: int, bank_cycle: int, slot: int,
               procs: "np.ndarray", words_done: "np.ndarray",
               limit: int) -> EpochPlan:
    """Plan one epoch for the active set as vectorized gathers.

    ``procs``/``words_done`` describe the active accesses (proc-sorted,
    one outstanding access per processor); ``limit`` is the last slot the
    epoch may cover (the run window's end, or a classifier's target).
    The epoch runs to the earliest completion or ``limit``, whichever is
    first — exactly the stage-2 batchers' span rule.
    """
    table = np_slot_bank_table(n_banks, bank_cycle)
    banks_now = table[slot % n_banks][procs]
    remaining = n_banks - words_done
    finish_slots = slot + remaining - 1
    target = int(finish_slots.min())
    if limit < target:
        target = limit
    span = target - slot + 1
    steps = np.minimum(remaining, span)
    finishers = np.nonzero(steps == remaining)[0]
    return EpochPlan(
        slot=slot, target=target, span=span, banks_now=banks_now,
        words_done=words_done, steps=steps, finish_slots=finish_slots,
        finishers=finishers,
    )


def bank_occupancy(plan: EpochPlan, n_banks: int,
                   bank_cycle: int) -> Tuple["np.ndarray", "np.ndarray"]:
    """Per-bank busy windows for one epoch: ``(first_slot, busy_until)``.

    Access *i* visits bank *k* at epoch offset ``(k - banks_now[i]) mod
    b`` (a single broadcast subtraction for the whole active set); a
    visited bank then holds the address for the usual ``c - 1`` drain.
    Both arrays are ``-1`` for banks no access touches this epoch.  The
    row-injectivity proof of the table guarantees no two accesses claim
    the same (bank, slot) cell, so the min/max below never merge distinct
    visits of the same slot.
    """
    offs = (np.arange(n_banks)[None, :] - plan.banks_now[:, None]) % n_banks
    hit = offs < plan.steps[:, None]
    visited = hit.any(axis=0)
    first = np.where(hit, offs, n_banks).min(axis=0)
    last = np.where(hit, offs, -1).max(axis=0)
    first_slot = np.where(visited, plan.slot + first, -1)
    busy_until = np.where(visited, plan.slot + last + bank_cycle - 1, -1)
    return first_slot, busy_until


def att_windows(plan: EpochPlan,
                capacity: int) -> Tuple["np.ndarray", "np.ndarray",
                                        "np.ndarray"]:
    """ATT-membership windows opened by this epoch.

    Accesses performing their first word at ``plan.slot`` insert a
    tracking-table entry live for ages ``0..capacity`` — returns
    ``(indices, insert_slots, expiry_slots)`` where an entry still
    answers lookups at ``expiry_slots`` and is gone one slot later
    (the :class:`repro.tracking.att.AddressTrackingTable` contract).
    """
    starters = np.nonzero(plan.words_done == 0)[0]
    insert_slots = np.full(len(starters), plan.slot, dtype=np.intp)
    return starters, insert_slots, insert_slots + capacity


# --------------------------------------------------------------------------
# Drivers


def advance_span(mem, target: int) -> int:
    """Vector twin of :meth:`CFMemory._advance_span`.

    Runs every in-flight access of ``mem`` forward through ``target``
    with the epoch planned in numpy, firing completions at ``target`` in
    processor order; returns the number of completions.  The caller (a
    cache/hierarchy classifier) has already proven the span interaction-
    free and ``target`` no later than the earliest finish.  The planner
    accumulates no bank utilization, so a module with metrics attached
    takes the batch span walk instead, which does.
    """
    from repro.core.cfm import AccessState, _INIT_WORD
    from repro.core.block import Word

    if mem.metrics is not None:
        return mem._advance_span(target)
    slot = mem.slot
    active = mem.active
    if not active:
        mem.slot = target + 1
        return 0
    n_banks = mem.cfg.banks_per_module
    n_active = len(active)
    procs = np.fromiter((a.proc for a in active), dtype=np.intp,
                        count=n_active)
    words_done = np.fromiter((a.words_done for a in active), dtype=np.intp,
                             count=n_active)
    plan = plan_epoch(n_banks, mem.cfg.bank_cycle, slot, procs, words_done,
                      target)
    orders = mem._orders
    banks = mem.banks
    banks_now = plan.banks_now.tolist()
    steps_list = plan.steps.tolist()
    for i, acc in enumerate(active):
        order = orders[banks_now[i]]
        offset = acc.offset
        steps = steps_list[i]
        if acc.kind.is_write:
            data = acc.data
            assert data is not None
            words = data.words
            version = acc.version
            written = acc.banks_written
            for bank in order[:steps]:
                banks[bank][offset] = Word(words[bank].value, version)
                written.append(bank)
        else:
            results = acc.result_words
            for bank in order[:steps]:
                results[bank] = banks[bank].get(offset, _INIT_WORD)
        acc.words_done += steps
    finishers = [active[i] for i in plan.finishers.tolist()]
    mem.slot = target
    for acc in finishers:
        mem._finish(acc, AccessState.COMPLETED, target)
    mem.slot = target + 1
    return len(finishers)


def run_vector(mem, slots: int) -> None:
    """Advance ``mem`` by ``slots``, bit-identical to :meth:`CFMemory.run`.

    The vectorized counterpart of :meth:`CFMemory.run_batch`: each epoch
    is planned by :func:`plan_epoch` (one array expression instead of a
    per-access Python scan), whole-block reads are served from a per-
    offset memo (invalidated by any write to the offset, and dropped
    wholesale if a finish callback pokes memory directly), and the moment
    eligibility or the hazard check fails the remaining window is handed
    to ``run_batch`` — whose own fallback is the per-slot reference tick.
    """
    from repro.core.cfm import AccessState, _INIT_WORD
    from repro.core.block import Word

    if slots < 0:
        raise ValueError(f"slots must be >= 0, got {slots}")
    end = mem.slot + slots
    n_banks = mem.cfg.banks_per_module
    bank_cycle = mem.cfg.bank_cycle
    orders = mem._orders
    banks = mem.banks
    active = mem.active
    hp = mem.hotpath
    token = hp.claim("cfm") if hp is not None else None
    #: offset -> full-block result dict, valid while no write to that
    #: offset has happened since it was built (within this call only).
    memo: Dict[int, Dict[int, object]] = {}
    try:
        while mem.slot < end:
            if (mem.metrics is not None or not mem._fast_eligible()
                    or mem._batch_hazard()):
                # The static proof broke (probe, fault plan, degraded
                # bank, same-offset write interleaving) or metrics are
                # attached (this planner accumulates no utilization): fall
                # back to the batch engine for the rest of the window.
                # run_batch re-proves per round and ticks where it must —
                # including the pinned-but-idle case, which needs per-slot
                # ticks.
                if hp is not None:
                    hp.count("cfm", "vector.fallbacks")
                mem.run_batch(end - mem.slot)
                break
            if not active:
                if hp is not None:
                    hp.count("cfm", "skipped_slots", end - mem.slot)
                mem.slot = end  # idle-slot skip
                break
            slot = mem.slot
            n_active = len(active)
            procs = np.fromiter((a.proc for a in active), dtype=np.intp,
                                count=n_active)
            words_done = np.fromiter((a.words_done for a in active),
                                     dtype=np.intp, count=n_active)
            plan = plan_epoch(n_banks, bank_cycle, slot, procs, words_done,
                              end - 1)
            banks_now = plan.banks_now.tolist()
            steps_list = plan.steps.tolist()
            # active cannot mutate inside this loop (callbacks only fire
            # from _finish below), so indices stay valid.
            for i, acc in enumerate(active):
                bank_now = banks_now[i]
                if acc.words_done == 0:
                    acc.first_bank = bank_now
                    acc.start_slot = slot
                offset = acc.offset
                order = orders[bank_now]
                steps = steps_list[i]
                if acc.kind.is_write:
                    data = acc.data
                    assert data is not None
                    words = data.words
                    version = acc.version
                    written = acc.banks_written
                    seq = order if steps == n_banks else order[:steps]
                    for bank in seq:
                        banks[bank][offset] = Word(words[bank].value, version)
                        written.append(bank)
                    memo.pop(offset, None)
                elif steps == n_banks:
                    # Whole block in one epoch: the result holds every
                    # bank's word, so it is independent of the rotation
                    # order — one memoized dict per offset, copied at
                    # C speed for every subsequent streaming read.
                    cached = memo.get(offset)
                    if cached is None:
                        cached = memo[offset] = {
                            bank: banks[bank].get(offset, _INIT_WORD)
                            for bank in order
                        }
                    acc.result_words = dict(cached)
                else:
                    results = acc.result_words
                    for bank in order[:steps]:
                        results[bank] = banks[bank].get(offset, _INIT_WORD)
                acc.words_done += steps
            finishers: List = [active[i] for i in plan.finishers.tolist()]
            target = plan.target
            stamp = mem._write_stamp
            mem.slot = target
            for acc in finishers:
                mem._finish(acc, AccessState.COMPLETED, target)
            mem.slot = target + 1
            if mem._write_stamp != stamp:
                # A finish callback wrote through write_word (poke_block
                # or similar): every memoized block may be stale.
                memo.clear()
            if hp is not None:
                hp.count("cfm", "vector.batched_slots", plan.span)
    finally:
        if hp is not None:
            hp.release(token)
