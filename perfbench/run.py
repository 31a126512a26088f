"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cfm_sweep --seed 1 --seconds 25

Workloads: ``cfm_sweep`` and ``coherence_rw`` call the library in this
process; ``serve_mixed`` drives a live ``repro serve`` over TCP.  With
``--trace 0`` the run reports the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it records spans around every call into the program,
writes them to ``.perfbench/`` and reports the per-layer metrics.

Times are in reference seconds: wall time scaled by the speed of fixed
pure-Python kernels sampled every 20 ms during the run, so the drift of a
shared host's CPU speed cancels (:class:`perfbench.host.RefClock`).  The
host speed is reported as ``host.calib_ops_per_s``.

Every line but the last is a human-readable table of each metric with
its unit; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program is imported from
``src/`` of this checkout only; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("cfm_sweep", "coherence_rw", "serve_mixed")
SETUP_REPEATS = 7

#: Modules each workload imports: with its AT-space tables warm, what
#: "ready" means for set-up.
SETUP_MODULES = {
    "cfm_sweep": ["repro.obs.bench", "repro.fastpath.parallel",
                  "repro.fastpath.stack"],
    "coherence_rw": ["repro.cache.protocol", "repro.hierarchy.slot_accurate",
                     "repro.obs.hotpath"],
    "serve_mixed": ["repro.serve.service"],
}


def _parse(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _checkout_ok() -> bool:
    """Is the program's source in this checkout, and imported from it?"""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import repro

    return Path(repro.__file__).resolve().is_relative_to(SRC.resolve())


def main(argv=None) -> int:
    args = _parse(argv)
    if not _checkout_ok():
        print(f"perfbench: no program sources under {SRC.name}/ of this "
              "checkout; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench import host, inputs, offline, serve_mixed, tracing

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    trace = bool(args.trace)
    tracer = tracing.Tracer()
    clock = host.RefClock()
    ready = tables = []
    with clock.sampling():
        if args.workload != "serve_mixed" or trace:
            ready, tables = host.setup_probes(
                SRC, SETUP_MODULES[args.workload],
                inputs.table_shapes(args.workload), SETUP_REPEATS, clock)
        if args.workload == "serve_mixed":
            out = serve_mixed.serve_mixed(SRC, args.seed, args.seconds,
                                          trace, tracer, clock)
        else:
            fn = getattr(offline, args.workload)
            out = fn(args.seed, args.seconds, trace, tracer, clock)
            out.e2e["setup_s"] = host.median(ready)
            out.e2e["peak_rss_mb"] = host.self_peak_rss_mb()

    layer = out.layer
    if trace:
        layer["fastpath.tables.setup_s"] = host.median(tables)
        # The host speed in arithmetic-kernel iterations per second.
        layer["host.calib_ops_per_s"] = (host.median(clock.speeds)
                                         * host.CALIB_REF)
        layer["trace.overhead_s"] = host.median(out.trace_costs)
        for name, seconds in tracing.self_seconds_per_root(
                tracer.spans).items():
            layer[f"layer.{name}.self_s"] = seconds
        tracer.write(ROOT / ".perfbench"
                     / f"trace-{args.workload}-seed{args.seed}.jsonl")
    layer["error_share"] = host.ratio(out.failed, out.attempted)
    layer["latency.samples"] = out.latency_samples

    kind = "per_layer" if trace else "end_to_end"
    metrics: Dict[str, Dict[str, object]] = {}
    for metric in declared[kind]:
        name = metric["name"]
        source = layer if trace else out.e2e
        if not trace and name not in source:
            raise KeyError(f"workload {args.workload} did not measure {name}")
        # Per-layer metrics of a layer this workload leaves idle read 0.
        value = float(source.get(name, 0.0))
        metrics[name] = {"value": value, "unit": metric["unit"]}
        print(f"{name:<40} {value:>16.6g} {metric['unit']}")
    print(f"{'latency samples':<40} {out.latency_samples:>16d} count")
    correct = out.failed == 0 and out.attempted > 0
    print(json.dumps({"correct": correct, "attempted": int(out.attempted),
                      "failed": int(out.failed), "metrics": metrics}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
