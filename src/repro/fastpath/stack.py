"""The sweep's stacking rule (fastpath stage 4): which run specs form one
stacked unit.

``sweep(..., stack=True)`` (:mod:`repro.fastpath.parallel`) groups
same-shape, engine-pinned CFM specs into one unit per shape and gives
every spec of a unit the unit's mean wall time.  The paper's AT-space
proof is per run — two independent CFM runs share no bank, slot or
partition — so each spec still runs alone through
:func:`repro.obs.bench.run_spec`; reports are those of a plain sweep.
This module holds only the grouping rule: :func:`stackable_spec` says
which specs may join a unit, :func:`stack_shape` which unit they join.
"""

from __future__ import annotations

from typing import Dict

from repro.fastpath.engine import ENGINES


def stackable_spec(spec: Dict[str, object]) -> bool:
    """May this run spec join a stacked sweep unit?

    Stackable: a ``cfm`` spec with no fault injection, no observer, and
    an explicit ``engine`` pin — i.e. the engine-driven bench runner,
    whose report depends only on the params and the engine-invariant
    completion stream (invariants 10–11).  The engineless cfm runner is
    the *observed* issue-at-top-of-slot driver (metrics in the report,
    latency β); it always runs as a unit of its own."""
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
