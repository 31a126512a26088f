"""The offline workloads: ``cfm_sweep`` and ``coherence_rw``.

A workload is a list of *calls* into the program's public API; one pass
runs every call once, each pass on fresh inputs drawn from the seed and
the pass number.  Pass 0 is the correctness gate and is not timed: its
outputs are checked in full, against reference runs of the same inputs.
Timed passes follow until ``--seconds`` have passed; their outputs get
every check that needs no second run of the program.
"""

from __future__ import annotations

import gc
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from perfbench import inputs as inp
from perfbench.host import RefClock, median, percentile, ratio
from perfbench.tracing import Span, Tracer

#: ``run(tracer, traced)`` performs the layer call(s) under spans and
#: returns ``(output, wall_ns, info)``: the output to check, the host time
#: spent inside the program, and layer counters.
CallFn = Callable[[Tracer, bool], Tuple[object, int, Dict[str, object]]]
#: ``check(calls, outputs)`` returns ``{call name: reason}`` for failures.
CheckFn = Callable[[List["Call"], Dict[str, object]], Dict[str, str]]


@dataclass
class Call:
    name: str
    #: Metric group: the calls of one kind are summed per pass.
    kind: str
    ops: int
    run: CallFn
    #: The call's input, for the checks.
    data: object = None


@dataclass
class Workload:
    calls: Callable[[int], List[Call]]  # pass number -> that pass's calls
    check: CheckFn  # every pass
    gate: CheckFn  # pass 0 only: the checks that rerun the program


@dataclass
class Outcome:
    """What a workload hands back to :mod:`perfbench.run`."""
    e2e: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    latency_samples: int = 0
    #: Traced minus untraced reference seconds of pass pairs on equal
    #: inputs (request blocks, for serve): what tracing costs.
    trace_costs: List[float] = field(default_factory=list)


@dataclass
class Pass:
    traced: bool
    span_id: int
    ref_s: float
    ops: Dict[str, int]  # by call kind
    info: Dict[str, Dict[str, object]]


def _execute(calls: List[Call], tracer: Tracer, traced: bool,
             clock: RefClock, bad: Dict[str, str]):
    """Run one pass's calls.  Returns their outputs, reference seconds,
    layer info and host-speed factors; a call that raises lands in
    ``bad``."""
    outputs: Dict[str, object] = {}
    seconds: Dict[str, float] = {}
    info: Dict[str, Dict[str, object]] = {}
    factors: List[float] = []
    for call in calls:
        first = len(tracer.spans)
        t0 = time.perf_counter()
        try:
            outputs[call.name], wall_ns, info[call.name] = call.run(
                tracer, traced)
        except Exception:
            bad[call.name] = "raised:\n" + traceback.format_exc(limit=6)
            continue
        factor = clock.factor(t0, time.perf_counter())
        factors.append(factor)
        tracer.rescale(first, factor)
        seconds[call.name] = wall_ns / 1e9 * factor
        # Every call starts from a collected heap: the simulators' objects
        # hold reference cycles, and collections left for the next call
        # would land in its time and move the peak resident set.
        gc.collect()
    return outputs, seconds, info, factors


def run_passes(workload: Workload, seconds: float, trace: bool,
               tracer: Tracer, clock: RefClock,
               ) -> Tuple[Outcome, List[Pass], Dict[str, object]]:
    """Gate pass, then timed passes for ``seconds``.

    Times are reference seconds (:class:`RefClock`).  With ``trace`` the
    timed passes come in pairs on equal inputs, traced then untraced, so
    the same run also measures what tracing costs.  Returns the outcome,
    the timed passes and the gate pass's outputs, whose counts repeat
    exactly for a seed."""
    out = Outcome()
    failures: Dict[str, str] = {}

    def account(calls: List[Call], outputs: Dict[str, object],
                bad: Dict[str, str], checks: List[CheckFn]) -> None:
        ran = {k: v for k, v in outputs.items() if k not in bad}
        for check in checks:
            for name, reason in check(calls, ran).items():
                bad.setdefault(name, reason)
        for call in calls:
            out.attempted += call.ops
            if call.name in bad:
                out.failed += call.ops
                failures.setdefault(call.name, bad[call.name])

    calls = workload.calls(0)
    bad: Dict[str, str] = {}
    gate_out = _execute(calls, tracer, False, clock, bad)[0]
    account(calls, gate_out, bad, [workload.check, workload.gate])

    passes: List[Pass] = []
    latencies: Dict[str, List[float]] = {}
    traced_s = 0.0
    t_start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 0
        calls = workload.calls(len(passes) // 2 + 1 if trace
                               else len(passes) + 1)
        tracer.on = traced
        bad = {}
        with tracer.span("pass", "perfbench") as full:
            span_id = tracer.current or 0
            outputs, call_s, info, factors = _execute(
                calls, tracer, traced, clock, bad)
        tracer.on = False
        factor = ratio(sum(factors), len(factors)) or 1.0
        if traced:
            tracer.rescale(len(tracer.spans) - 1, factor)
        account(calls, outputs, bad, [workload.check])
        ops: Dict[str, int] = {}
        for call in calls:
            if call.name in call_s:
                ops[call.kind] = ops.get(call.kind, 0) + call.ops
        passes.append(Pass(traced, span_id, sum(call_s.values()), ops, info))
        if traced:
            traced_s = full[0] / 1e9 * factor
        elif trace:
            out.trace_costs.append(traced_s - full[0] / 1e9 * factor)
        if not traced:
            for name, s in call_s.items():
                latencies.setdefault(name, []).append(s * 1e3)
        if (time.perf_counter() - t_start >= seconds
                and (not trace or len(passes) % 2 == 0)):
            break
    for name, reason in sorted(failures.items()):
        print(f"perfbench: correctness failure in {name}: {reason}",
              file=sys.stderr, flush=True)

    plain = [p for p in passes if not p.traced and p.ref_s]
    out.e2e["ops_per_s"] = median([sum(p.ops.values()) / p.ref_s
                                   for p in plain])
    # A pass makes 4 to 20 calls, too few for a 99th percentile of raw
    # samples to be more than the run's single slowest call.  So each
    # call's latency is its median over the passes, and the percentiles
    # are taken across calls: p99 is the slowest call, typically.
    typical = [median(v) for v in latencies.values()]
    out.e2e["latency_p50_ms"] = percentile(typical, 50)
    out.e2e["latency_p99_ms"] = percentile(typical, 99)
    out.latency_samples = sum(len(v) for v in latencies.values())
    return out, passes, gate_out


def per_pass(spans: List[Span], passes: List[Pass],
             key: Callable[[Span], Optional[str]],
             per: Optional[Callable[[Pass, str], float]] = None,
             ) -> Dict[str, float]:
    """Median over traced passes of each key's summed span seconds,
    divided by ``per(pass, key)`` when given."""
    traced = {p.span_id: p for p in passes if p.traced}
    sums: Dict[int, Dict[str, float]] = {sid: {} for sid in traced}
    for span in spans:
        k = key(span)
        if k is None or span.parent not in sums:
            continue
        row = sums[span.parent]
        row[k] = row.get(k, 0.0) + span.seconds
    keys = {k for row in sums.values() for k in row}
    return {k: median([ratio(row.get(k, 0.0), per(traced[sid], k))
                       if per else row.get(k, 0.0)
                       for sid, row in sums.items()])
            for k in keys}


# --------------------------------------------------------------------------
# cfm_sweep


def _analytic_completed(params: Dict[str, object]) -> int:
    """Full load: each processor holds its AT-space partition for one
    block access every ``b`` slots, so ``n * floor(cycles / b)`` accesses
    complete in a run."""
    n, c = int(params["n_procs"]), int(params["bank_cycle"])
    return n * (int(params["cycles"]) // (n * c))


def latency_error(report: Dict[str, object]) -> int:
    """Simulated latency minus β; ``-1`` when latencies are not uniform."""
    lat = report["latency"]
    if lat["p50"] != lat["p99"]:
        return -1
    return int(lat["p99"]) - int(report["params"]["beta"])


def check_cfm_report(report: Dict[str, object],
                     spec: Dict[str, object]) -> Optional[str]:
    """Conflict-freedom, the analytic full-load count and β latency."""
    if report.get("conflicts") != 0:
        return f"conflicts = {report.get('conflicts')}"
    expected = _analytic_completed(spec["params"])
    if report.get("completed") != expected:
        return f"completed {report.get('completed')} != analytic {expected}"
    if latency_error(report) not in (0, 1):
        return f"latency {report['latency']} is not beta or beta+1"
    return None


def _strip_engine(report: Dict[str, object]) -> Dict[str, object]:
    params = dict(report["params"])
    params.pop("engine", None)
    return dict(report, params=params)


def cfm_check(calls: List[Call], out: Dict[str, object]) -> Dict[str, str]:
    """Every report conflict-free, at the analytic count, with latency β
    (+1 on the engine path); the engine-pinned reports of one shape
    identical to each other (invariant 10); no sweep failures."""
    bad: Dict[str, str] = {}
    engine_reports: Dict[str, List[Tuple[str, Dict[str, object]]]] = {}
    for call in calls:
        if call.name not in out:
            continue
        if call.kind == "stack_sweep":
            pairs = list(zip(out[call.name]["runs"], call.data))
            if out[call.name]["failures"] or len(pairs) != len(call.data):
                bad[call.name] = "stacked sweep dropped runs"
        else:
            pairs = [(out[call.name], call.data)]
        for report, spec in pairs:
            reason = check_cfm_report(report, spec)
            if reason:
                bad[call.name] = reason
        if call.kind in inp.CFM_ENGINES:
            shape = call.name.split("@")[1]
            engine_reports.setdefault(shape, []).append(
                (call.name, _strip_engine(out[call.name])))
    for reports in engine_reports.values():
        if any(r != reports[0][1] for _, r in reports):
            for name, _ in reports:
                bad[name] = "engine-pinned reports differ"
    return bad


def cfm_gate(calls: List[Call], out: Dict[str, object]) -> Dict[str, str]:
    """Stacked sweep reports identical to per-spec ``run_spec`` runs of
    the same specs (invariant 11)."""
    from repro.obs.bench import run_spec

    bad: Dict[str, str] = {}
    for call in calls:
        if call.kind == "stack_sweep" and call.name in out:
            try:
                serial = [run_spec(s) for s in call.data]
            except Exception:
                bad[call.name] = "per-spec run_spec raised:\n" + \
                    traceback.format_exc(limit=6)
                continue
            if out[call.name]["runs"] != serial:
                bad[call.name] = "stacked sweep differs from per-spec run_spec"
    return bad


def _run_spec_call(spec: Dict[str, object], span: str, layer: str,
                   rid: str) -> CallFn:
    def run(tracer: Tracer, traced: bool):
        from repro.obs.bench import run_spec

        with tracer.span(span, layer, rid) as dt:
            report = run_spec(spec)
        return report, dt[0], {}
    return run


def _sweep_call(specs: List[Dict[str, object]], rid: str) -> CallFn:
    def run(tracer: Tracer, traced: bool):
        from repro.fastpath.parallel import sweep

        with tracer.span("fastpath.stack_sweep", "repro.fastpath", rid) as dt:
            doc = sweep(specs, jobs=1, name="perfbench", stack=True)
        # A stacked unit splits its wall evenly over its lanes; lanes that
        # fell back to per-spec runs carry their own wall times.
        walls = {r["wall_time_s"] for r in doc["timing"]["runs"]}
        stack = doc["timing"]["stack"]
        stacked = stack["stacked_runs"] if len(walls) == 1 else 0
        out = {"runs": doc["runs"], "failures": doc.get("failures", []),
               "units": stack["units"], "fallbacks": len(specs) - stacked}
        return out, dt[0], {}
    return run


def cfm_calls(seed: int, pass_no: int) -> List[Call]:
    calls: List[Call] = []
    for shape in inp.cfm_sweep_inputs(seed, pass_no):
        tag = f"{shape['shape'][0]}x{shape['shape'][1]}"
        spec = shape["issue_loop"]
        calls.append(Call(
            f"issue_loop@{tag}", "issue_loop",
            _analytic_completed(spec["params"]),
            _run_spec_call(spec, "core.issue_loop", "repro.core",
                           f"issue_loop@{tag}"), spec))
        for engine, spec in shape["engines"].items():
            calls.append(Call(
                f"{engine}@{tag}", engine, _analytic_completed(spec["params"]),
                _run_spec_call(spec, f"fastpath.{engine}", "repro.fastpath",
                               f"{engine}@{tag}"), spec))
        calls.append(Call(
            f"sweep@{tag}", "stack_sweep",
            sum(_analytic_completed(s["params"]) for s in shape["sweep"]),
            _sweep_call(shape["sweep"], f"sweep@{tag}"), shape["sweep"]))
    return calls


def cfm_sweep(seed: int, seconds: float, trace: bool, tracer: Tracer,
              clock: RefClock) -> Outcome:
    workload = Workload(lambda k: cfm_calls(seed, k), cfm_check, cfm_gate)
    out, passes, gate_out = run_passes(workload, seconds, trace, tracer,
                                       clock)

    reports: List[Dict[str, object]] = []
    for report in gate_out.values():
        reports.extend(report.get("runs", [report]))
    layer = out.layer
    layer["cfm.sim_slots"] = sum(int(r["cycles"]) for r in reports)
    layer["cfm.conflicts"] = sum(int(r["conflicts"]) for r in reports)
    layer["cfm.latency_error_slots.issue_loop"] = max(
        (latency_error(r) for r in reports if "engine" not in r["params"]),
        default=0)
    layer["cfm.latency_error_slots.engine"] = max(
        (latency_error(r) for r in reports if "engine" in r["params"]),
        default=0)
    if trace:
        walls = per_pass(tracer.spans, passes, lambda s: s.name)
        per_access = per_pass(
            tracer.spans, passes,
            lambda s: s.name.split(".")[1] if "." in s.name else None,
            lambda p, kind: p.ops.get(kind, 0) / 1e9)
        layer["core.issue_loop.wall_s"] = walls.get("core.issue_loop", 0.0)
        layer["core.issue_loop.accesses"] = sum(
            int(r["completed"]) for r in reports
            if "engine" not in r["params"])
        layer["core.issue_loop.ns_per_access"] = per_access.get(
            "issue_loop", 0.0)
        for engine in inp.CFM_ENGINES:
            layer[f"fastpath.{engine}.wall_s"] = walls.get(
                f"fastpath.{engine}", 0.0)
            layer[f"fastpath.{engine}.ns_per_access"] = per_access.get(
                engine, 0.0)
        sweeps = [o for o in gate_out.values() if "runs" in o]
        layer["fastpath.stack_sweep.wall_s"] = walls.get(
            "fastpath.stack_sweep", 0.0)
        layer["fastpath.stack_sweep.width"] = ratio(
            sum(len(s["runs"]) for s in sweeps),
            sum(s["units"] for s in sweeps))
        layer["fastpath.stack_sweep.fallbacks"] = sum(
            s["fallbacks"] for s in sweeps)
    return out


# --------------------------------------------------------------------------
# coherence_rw


def cache_stream(ops_in: List[inp.Op], rid: str, tracer: Tracer,
                 hotpath=None, reference: bool = False):
    """One ``CacheSystem`` stream: build (enqueue every load and store),
    then drive every op to completion.  Returns the stream's fingerprint
    and the wall time of both phases."""
    from repro.cache.protocol import CacheSystem

    with tracer.span("cache.build", "repro.cache", rid) as build:
        system = CacheSystem(inp.CACHE_PROCS, hotpath=hotpath)
        ops = [system.load(p, off) if words is None
               else system.store(p, off, words) for p, off, words in ops_in]
    with tracer.span("cache.run", "repro.cache", rid) as run:
        if reference:
            system.run_ops(ops)
        else:
            system.run_ops_batch(ops)
    system.check_coherence_invariant()
    fingerprint = {
        "slot": system.slot,
        "local_hits": system.stats_local_hits,
        "memory_ops": system.stats_memory_ops,
        "ops": [(op.done, op.issue_slot, op.done_slot, op.was_hit,
                 op.retries, op.memory_accesses, op.result) for op in ops],
    }
    return fingerprint, build[0] + run[0]


def hier_stream(stream: Dict[str, object], rid: str, tracer: Tracer,
                hotpath=None, reference: bool = False):
    """One 4x4 ``SlotAccurateHierarchy`` stream, driven round by round."""
    from repro.hierarchy.slot_accurate import SlotAccurateHierarchy

    with tracer.span("hierarchy.build", "repro.hierarchy", rid) as build:
        hier = SlotAccurateHierarchy(
            inp.HIER_CLUSTERS, inp.HIER_PER_CLUSTER,
            n_lines=stream["n_lines"], bank_cycle=stream["bank_cycle"],
            hotpath=hotpath)
    drive = hier.run_ops if reference else hier.run_ops_batch
    ops = []
    with tracer.span("hierarchy.run", "repro.hierarchy", rid) as run:
        for round_in in stream["rounds"]:
            batch = [hier.load(g, off) if words is None
                     else hier.store(g, off, words)
                     for g, off, words in round_in]
            drive(batch)
            ops.extend(batch)
    hier.check_invariants()
    gc = hier.global_controller
    fingerprint = {
        "slot": hier.slot,
        "nc_invalidations": gc.invalidations_sent,
        "nc_l2_writebacks": gc.triggered_l2_writebacks,
        "ops": [(op.done, op.issue_slot, op.done_slot, op.nc_fetches,
                 op.result) for op in ops],
    }
    return fingerprint, build[0] + run[0]


def _stream_call(stream_fn, data, rid: str) -> CallFn:
    def run(tracer: Tracer, traced: bool):
        hotpath = None
        if traced:
            from repro.obs.hotpath import HotpathProfiler

            hotpath = HotpathProfiler()
        fingerprint, wall = stream_fn(data, rid, tracer, hotpath=hotpath)
        info = {}
        if hotpath is not None:
            info = {"occupancy": hotpath.occupancy(),
                    "fallbacks": hotpath.fallbacks()}
        return fingerprint, wall, info
    return run


def coherence_calls(seed: int, pass_no: int) -> List[Call]:
    data = inp.coherence_inputs(seed, pass_no)
    calls: List[Call] = []
    for rounds, ops in data["cache"].items():
        name = f"cache.r{rounds}"
        calls.append(Call(name, "cache", len(ops),
                          _stream_call(cache_stream, ops, name),
                          (cache_stream, ops)))
    for kind, stream in data["hierarchy"].items():
        name = f"hierarchy.{kind}"
        calls.append(Call(name, "hierarchy",
                          sum(len(r) for r in stream["rounds"]),
                          _stream_call(hier_stream, stream, name),
                          (hier_stream, stream)))
    return calls


def coherence_check(calls: List[Call],
                    out: Dict[str, object]) -> Dict[str, str]:
    """Every op completes (the coherence invariants were checked when
    the stream ended)."""
    return {name: "not every op completed" for name, fp in out.items()
            if not all(op[0] for op in fp["ops"])}


def coherence_gate(calls: List[Call],
                   out: Dict[str, object]) -> Dict[str, str]:
    """Every stream equals the per-slot ``run_ops`` reference on the same
    inputs."""
    off = Tracer()
    bad: Dict[str, str] = {}
    for call in calls:
        if call.name not in out:
            continue
        stream_fn, data = call.data
        try:
            reference = stream_fn(data, call.name, off, reference=True)[0]
        except Exception:
            bad[call.name] = "the run_ops reference raised:\n" + \
                traceback.format_exc(limit=6)
            continue
        if reference != out[call.name]:
            bad[call.name] = "differs from the per-slot run_ops reference"
    return bad


def _occupancy(infos: List[Dict[str, object]],
               layer: str) -> Tuple[float, float]:
    """``(batched_frac, fallback_share)`` of one profiler layer, pooled
    over streams: slots advanced by batch spans or idle leaps, and slots
    that fell back to the per-slot path, each over all advanced slots."""
    total = batched = fallback = 0
    for info in infos:
        occ = info["occupancy"].get(layer)
        if occ is None:
            continue
        total += occ["batched"] + occ["skipped"] + occ["ticked"]
        batched += occ["batched"] + occ["skipped"]
        fallback += info["fallbacks"].get(layer, 0)
    return ratio(batched, total), ratio(fallback, total)


def coherence_rw(seed: int, seconds: float, trace: bool, tracer: Tracer,
                 clock: RefClock) -> Outcome:
    workload = Workload(lambda k: coherence_calls(seed, k), coherence_check,
                        coherence_gate)
    out, passes, gate_out = run_passes(workload, seconds, trace, tracer,
                                       clock)

    layer = out.layer
    cache = [fp for n, fp in gate_out.items() if n.startswith("cache.")]
    hier = [fp for n, fp in gate_out.items() if n.startswith("hierarchy.")]
    layer["cache.ops"] = sum(len(fp["ops"]) for fp in cache)
    layer["cache.sim_slots"] = sum(fp["slot"] for fp in cache)
    layer["cache.local_hit_share"] = ratio(
        sum(fp["local_hits"] for fp in cache), layer["cache.ops"])
    layer["hierarchy.ops"] = sum(len(fp["ops"]) for fp in hier)
    layer["hierarchy.sim_slots"] = sum(fp["slot"] for fp in hier)
    layer["hierarchy.nc_invalidations"] = sum(
        fp["nc_invalidations"] for fp in hier)
    layer["hierarchy.nc_l2_writebacks"] = sum(
        fp["nc_l2_writebacks"] for fp in hier)
    if trace:
        walls = per_pass(tracer.spans, passes, lambda s: s.name)
        for name in ("cache.build", "cache.run", "hierarchy.build",
                     "hierarchy.run"):
            layer[f"{name}.wall_s"] = walls.get(name, 0.0)
        runs = per_pass(tracer.spans, passes,
                        lambda s: s.rid if s.name == "cache.run" else None)
        for rounds in inp.CACHE_ROUNDS:
            layer[f"cache.run.us_per_op.r{rounds}"] = ratio(
                runs.get(f"cache.r{rounds}", 0.0) * 1e6,
                rounds * inp.CACHE_PROCS)
        infos = [info for p in passes if p.traced
                 for info in p.info.values() if info]
        for prof_layer, name in (("cache", "cache"), ("hier", "hierarchy")):
            frac, share = _occupancy(infos, prof_layer)
            layer[f"fastpath.{name}.batched_frac"] = frac
            layer[f"fastpath.{name}.fallback_share"] = share
    return out
