"""Parallel sweep runner: fan run specs across worker processes.

A benchmark sweep is embarrassingly parallel — every run spec
(:func:`repro.obs.bench.run_spec`) is a pure function of its parameters,
with all randomness derived from an explicit seed inside the spec.  This
module maps specs across a :class:`multiprocessing.Pool` and merges the
reports into one ``repro-bench/1`` document, bit-identical to a serial
run of the same specs (asserted by the test suite for jobs ∈ {1, 2}).

Worker functions are module-level so they pickle under the default
``spawn``/``fork`` start methods; per-spec wall times ride back alongside
the report and are merged into the document's opt-in ``timing`` section,
never into ``runs``.

A spec that raises inside a worker no longer surfaces as a raw
multiprocessing traceback killing the whole sweep: the worker catches the
exception and sends it back as data, the surviving runs are preserved in
the document, and failures are listed in its ``failures`` section (the CLI
prints them to stderr and exits 1).
"""

from __future__ import annotations

import time
import traceback
import zlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.bench import SCHEMA, ops_per_sec, run_spec

RunReport = Dict[str, object]
#: (report or None, wall seconds, error string or None) per spec.
SpecResult = Tuple[Optional[RunReport], float, Optional[str]]
#: Streaming callback: ``on_result(index, spec, result)`` as each lands.
ResultCallback = Callable[[int, Dict[str, object], SpecResult], None]


def derive_seed(base: int, *keys: object) -> int:
    """A deterministic per-config seed: fold ``keys`` into ``base``.

    Same derivation idiom as :func:`repro.sim.rng.derive_rng` (crc32 of the
    key tuple) so sweep points get independent, reproducible streams no
    matter which worker runs them or in what order."""
    digest = zlib.crc32(repr(keys).encode("utf-8"))
    return (int(base) * 0x9E3779B1 + digest) % (2**31 - 1)


def _timed_run_spec(spec: Dict[str, object]) -> SpecResult:
    """Pool worker: one spec -> (report, wall seconds, error).  Module-level
    so it pickles; exceptions come back as strings, not tracebacks that kill
    the pool."""
    t0 = time.perf_counter()
    try:
        report = run_spec(spec)
    except Exception as exc:
        tb = traceback.format_exc(limit=8)
        return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}\n{tb}"
    return report, time.perf_counter() - t0, None


def _timed_run_unit(unit: Sequence[Dict[str, object]]) -> List[SpecResult]:
    """Pool worker: one execution unit -> per-spec results, in unit order.

    A singleton unit is a plain :func:`_timed_run_spec`.  A multi-spec
    unit is a same-shape stacked group executed as **one** stacked run
    (:func:`repro.fastpath.stack.run_specs_stacked`, bit-identical to
    per-spec serial); its wall clock is attributed evenly across the
    lanes, which is exactly the per-run cost the stack achieved.  If the
    stacked run itself errors, the unit degrades to per-spec serial runs
    so failures stay attributed to the spec that owns them."""
    if len(unit) == 1:
        return [_timed_run_spec(unit[0])]
    from repro.fastpath.stack import run_specs_stacked

    t0 = time.perf_counter()
    try:
        reports = run_specs_stacked(list(unit))
    except Exception:
        return [_timed_run_spec(spec) for spec in unit]
    wall = (time.perf_counter() - t0) / len(unit)
    return [(report, wall, None) for report in reports]


def plan_stack_units(
    specs: Sequence[Dict[str, object]],
) -> List[List[int]]:
    """Partition spec indices into stacked execution units.

    Stackable specs (:func:`repro.fastpath.stack.stackable_spec`) sharing
    one ``(n_banks, bank_cycle)`` shape form one multi-lane unit — in
    first-seen shape order, each preserving spec order within the group —
    and everything else (other systems, observed/engineless cfm runs,
    fault injections) stays a singleton unit.  Shape groups of one are
    demoted to singletons: a width-1 stack is bit-identical but buys no
    amortization."""
    from repro.fastpath.stack import stack_shape, stackable_spec

    groups: Dict[Tuple[int, int], List[int]] = {}
    units: List[List[int]] = []
    for i, spec in enumerate(specs):
        if stackable_spec(spec):
            groups.setdefault(stack_shape(spec), []).append(i)
        else:
            units.append([i])
    units.extend(groups.values())
    units.sort(key=lambda unit: unit[0])
    return units


def map_specs(
    specs: Sequence[Dict[str, object]], jobs: int = 1,
    on_result: Optional[ResultCallback] = None,
    stack: bool = False,
) -> List[SpecResult]:
    """Run every spec, ``jobs`` at a time; results in spec order.

    ``jobs <= 1`` runs inline (no pool, no pickling) — the degenerate case
    the equivalence tests compare the pooled path against.

    Pooled execution streams through ``Pool.imap`` rather than blocking on
    ``Pool.map``: results surface one at a time, in spec order, as workers
    finish them.  ``on_result(index, spec, result)`` — when given — fires
    per completed spec on both paths, so a caller can report progress (or a
    first failure) while later specs are still running.  The returned list
    is identical to the old blocking semantics.

    ``stack=True`` groups stackable same-shape cfm specs into stacked
    execution units (:func:`plan_stack_units`) run as one stacked
    execution each (:func:`repro.fastpath.stack.run_specs_stacked`).  Reports are bit-identical to the unstacked
    path and the returned list stays in spec order; only wall times (split
    evenly across a stack's lanes) and ``on_result`` ordering (unit
    completion order, spec order within a unit) differ."""
    if stack:
        units = plan_stack_units(specs)
        # All-singleton plans take the plain paths below — identical
        # accounting, and pooled dispatch stays per-spec.
        if any(len(unit) > 1 for unit in units):
            unit_specs = [[specs[i] for i in unit] for unit in units]
            results: List[Optional[SpecResult]] = [None] * len(specs)

            def _land(unit: List[int], unit_results: List[SpecResult]) -> None:
                for i, result in zip(unit, unit_results):
                    results[i] = result
                    if on_result is not None:
                        on_result(i, specs[i], result)

            if jobs <= 1 or len(units) <= 1:
                for unit, batch in zip(units, map(_timed_run_unit, unit_specs)):
                    _land(unit, batch)
            else:
                import multiprocessing as mp

                with mp.Pool(processes=min(jobs, len(units))) as pool:
                    for unit, batch in zip(
                        units, pool.imap(_timed_run_unit, unit_specs)
                    ):
                        _land(unit, batch)
            return list(results)  # type: ignore[arg-type]
    if jobs <= 1 or len(specs) <= 1:
        results = []
        for i, spec in enumerate(specs):
            result = _timed_run_spec(spec)
            if on_result is not None:
                on_result(i, spec, result)
            results.append(result)
        return results
    import multiprocessing as mp

    results = []
    with mp.Pool(processes=min(jobs, len(specs))) as pool:
        for i, result in enumerate(pool.imap(_timed_run_spec, list(specs))):
            if on_result is not None:
                on_result(i, specs[i], result)
            results.append(result)
    return results


def sweep(
    specs: Sequence[Dict[str, object]],
    jobs: int = 1,
    name: str = "sweep",
    quick: bool = False,
    timing: bool = True,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
    stack: bool = False,
) -> Dict[str, object]:
    """Run a spec list (optionally in parallel) into one bench document.

    The document matches :func:`repro.obs.bench.run_benchmark` output:
    ``runs`` holds the deterministic reports in spec order; wall-clock data
    goes to the ``timing`` section only (dropped with ``timing=False`` so
    documents can be compared across machines).  Specs that raised are
    dropped from ``runs``/``timing`` and reported — spec and error string —
    in a ``failures`` section, so one bad spec costs its own report, not
    the sweep's.

    ``progress`` — when given — receives one event dict per completed spec
    *as it completes* (``{"index", "total", "system", "wall_time_s",
    "error"}``), streamed off :func:`map_specs`'s ``imap`` path: a failure
    in spec 2 of 40 surfaces on event 2, not after the whole pool drains.
    The document itself is unaffected (progress is observational only).

    ``stack=True`` executes stackable same-shape cfm specs as stacked
    cross-simulation runs (see :func:`map_specs`); ``runs`` stays
    bit-identical to the unstacked sweep, and the ``timing`` section gains
    a ``stack`` summary (``units`` executed stacked, ``stacked_runs``
    lanes they covered)."""
    t0 = time.perf_counter()
    on_result: Optional[ResultCallback] = None
    if progress is not None:
        total = len(specs)

        def on_result(i: int, spec: Dict[str, object],
                      result: SpecResult) -> None:
            _report, elapsed, err = result
            progress({
                "index": i,
                "total": total,
                "system": spec.get("system"),
                "wall_time_s": elapsed,
                "error": None if err is None else str(err).splitlines()[0],
            })

    results = map_specs(specs, jobs=jobs, on_result=on_result, stack=stack)
    wall = time.perf_counter() - t0
    doc: Dict[str, object] = {
        "bench": name,
        "schema": SCHEMA,
        "quick": bool(quick),
        "runs": [report for report, _, err in results if err is None],
    }
    failures = [
        {"spec": dict(spec), "error": err}
        for spec, (_, _, err) in zip(specs, results)
        if err is not None
    ]
    if failures:
        # A document missing runs is not a valid comparison target: mark it
        # so downstream consumers (check_perf.py) refuse to treat it as a
        # complete sweep or bake it into a baseline.
        doc["failures"] = failures
        doc["partial"] = True
    if timing:
        doc["timing"] = {
            "wall_time_s": wall,
            "jobs": int(jobs),
            "runs": [
                {
                    "system": report["system"],
                    "wall_time_s": elapsed,
                    "ops_per_sec": ops_per_sec(report, elapsed),
                }
                for report, elapsed, err in results
                if err is None
            ],
        }
        if stack:
            stacked_units = [
                unit for unit in plan_stack_units(specs) if len(unit) > 1
            ]
            doc["timing"]["stack"] = {
                "units": len(stacked_units),
                "stacked_runs": sum(len(unit) for unit in stacked_units),
            }
    return doc
