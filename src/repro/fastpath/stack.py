"""Stacked cross-simulation entry points (fastpath stage 4): fleets of
independent same-shape CFM runs.

The workloads the ROADMAP cares about — parameter sweeps, the serving
layer's micro-batches, chaos matrices — are fleets of independent
same-shape CFM runs.  :func:`run_stack` advances such a fleet and
:func:`run_specs_stacked` runs a group of bench specs as one stacked
execution; the sweep (``timing.stack``) and the serving layer's stacked
lanes group specs by shape through :func:`stackable_spec` /
:func:`stack_shape` before calling it.

Each lane is advanced by :meth:`~repro.core.cfm.CFMemory.run_batch`, the
one span walk: its whole-block read memo and bulk finisher unlink (see
:meth:`~repro.core.cfm.CFMemory._advance_span`) are what a lockstep numpy
planner over the fleet used to provide, and per-lane memoized ``batch``
measured faster than that planner at every shape.  Lanes are pure and
independent, so running them one after another is the lockstep result.
Typed fault semantics pass through untouched: a lane with a fault plan,
probe or write hazard ticks exactly as it would standalone.

Bit-identity to per-spec serial :func:`repro.obs.bench.run_spec` is the
invariant everywhere (invariant 11, ``tests/test_fastpath_stage4.py``):
:func:`run_specs_stacked` builds its lanes through the bench harness's
own workload wiring, so a stacked report is assembled from exactly the
state a serial run would produce.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

from repro.fastpath.engine import ENGINES


def run_stack(mems: Sequence[object],
              slots: Union[int, Sequence[int]]) -> None:
    """Advance S same-shape CFM modules, each by its budget.

    ``mems`` must share one ``(n_banks, bank_cycle)`` shape; ``slots`` is
    one budget for all lanes or a per-lane sequence.  Results are
    bit-identical to calling ``mem.run(slots)`` on each module alone
    (invariant 11).
    """
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
    for mem, budget in zip(mems, budgets):
        mem.run_batch(budget)


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
