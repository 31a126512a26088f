"""QoS arbitration gate: tier separation with bit-identity asserted first.

Three proofs, in dependency order (identity before any latency number is
believed):

* **Zero-contention bit-identity** — a closed-loop full-load workload
  (each processor reissues from its completion callback, so its entry
  queue is never occupied) driven through criticality-tagged
  :meth:`CFMemory.submit` must complete bit-identically to the seed
  :meth:`CFMemory.issue` path, per engine, per arbitration policy, with
  the contended counter pinned at zero.  Invariant 12 in code: priority
  never changes *which* slots exist, only who wins a contended one — and
  with no contention there is nothing to win.
* **Contended cross-engine identity** — the mixed-criticality overload
  spec (``system="qos"``) must produce reports identical across every
  available engine pin (reference/batch/vectorized/stacked), differing
  only in ``params.engine``.  Grant decisions happen at the ``_finish``
  seam every engine drives at identical slots, so this is invariants
  10–11 extended through the arbitration layer.
* **Tier separation** — only after both identity gates: under priority
  arbitration, latency-critical p99 must sit strictly below bulk p99 on
  the same run *and* below the FIFO baseline's critical p99 on the
  paired run, for every shape in :func:`repro.obs.bench.specs_qos`
  including the degraded-bank pair.

Run standalone for the separation table (``--out DIR`` writes
``BENCH_qos.json``)::

    PYTHONPATH=src python benchmarks/bench_qos.py --quick

or through pytest (``pytest benchmarks/bench_qos.py -s``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

import pytest

from repro.core.cfm import AccessKind, CFMemory
from repro.core.config import CFMConfig
from repro.fastpath.engine import ENGINES
from repro.obs.bench import run_spec, specs_qos

#: Shapes the zero-contention identity gate sweeps (Table 3.3 spread).
IDENTITY_SHAPES = [(4, 1), (8, 2), (16, 4)]
IDENTITY_SLOTS = 600

#: The contended cross-engine identity spec (small enough to run under
#: every engine in seconds, loaded enough to actually contend).
CONTENDED_SPEC = {"system": "qos",
                  "params": {"n_procs": 8, "bank_cycle": 2, "cycles": 800,
                             "rate": 0.05, "bulk_rate": 0.05}}


def _tag_of(proc: int) -> Optional[str]:
    """Deterministic per-proc tag mix: every tier plus untagged."""
    return (None, "latency_critical", "normal", "bulk")[proc % 4]


def _closed_loop(n_procs: int, bank_cycle: int, slots: int, engine: str,
                 tagged: bool, arbitration: str):
    """One outstanding access per processor, reissued on completion.

    The entry queue is empty at every submit (the processor just freed),
    so the tagged submit path must degenerate to the seed issue path."""
    mem = CFMemory(CFMConfig(n_procs=n_procs, bank_cycle=bank_cycle),
                   arbitration=arbitration)
    log: List[Tuple[int, int, int]] = []

    def reissue(acc):
        log.append((acc.access_id, acc.proc, acc.complete_slot))
        if tagged:
            mem.submit(acc.proc, AccessKind.READ, offset=acc.proc,
                       on_finish=reissue, criticality=_tag_of(acc.proc),
                       deadline=8 * mem.cfg.block_access_time)
        else:
            mem.issue(acc.proc, AccessKind.READ, offset=acc.proc,
                      on_finish=reissue)

    for p in range(n_procs):
        if tagged:
            mem.submit(p, AccessKind.READ, offset=p, on_finish=reissue,
                       criticality=_tag_of(p),
                       deadline=8 * mem.cfg.block_access_time)
        else:
            mem.issue(p, AccessKind.READ, offset=p, on_finish=reissue)
    mem.run_engine(slots, engine=engine)
    return log, mem.slot, dict(mem.qos_counts)


def check_zero_contention_identity(slots: int = IDENTITY_SLOTS) -> int:
    """Tagged submit == seed issue, per shape x engine x policy.

    Returns the number of (shape, engine, policy) cells proven."""
    cells = 0
    for n_procs, bank_cycle in IDENTITY_SHAPES:
        for engine in ENGINES:
            log_issue, end_issue, _ = _closed_loop(
                n_procs, bank_cycle, slots, engine,
                tagged=False, arbitration="priority")
            for arbitration in ("priority", "fifo"):
                log_sub, end_sub, counts = _closed_loop(
                    n_procs, bank_cycle, slots, engine,
                    tagged=True, arbitration=arbitration)
                assert log_sub == log_issue and end_sub == end_issue, (
                    f"tagged submit diverged from issue() on "
                    f"({n_procs}, {bank_cycle}) engine={engine} "
                    f"arbitration={arbitration}"
                )
                assert counts["contended"] == 0 and counts["queued"] == 0, (
                    f"closed loop contended unexpectedly: {counts}"
                )
                cells += 1
    return cells


def check_contended_engine_identity() -> List[str]:
    """The overloaded qos spec is engine-invariant; returns engines run."""
    reports = []
    for engine in ENGINES:
        spec = {"system": "qos",
                "params": {**CONTENDED_SPEC["params"], "engine": engine}}
        report = run_spec(spec)
        report["params"].pop("engine", None)
        reports.append(report)
    baseline = run_spec(CONTENDED_SPEC)
    for engine, report in zip(ENGINES, reports):
        assert report == baseline, (
            f"contended qos run diverged under engine={engine}"
        )
    assert baseline["qos"]["entry_queue"]["contended"] > 0, (
        "contended identity gate ran without contention — raise the rates"
    )
    return list(ENGINES)


def _crit_p99(report: Dict[str, object]) -> float:
    return report["qos"]["sla"]["tiers"]["latency_critical"]["p99"]


def _bulk_p99(report: Dict[str, object]) -> float:
    return report["qos"]["sla"]["tiers"]["bulk"]["p99"]


def measure_separation(quick: bool = True):
    """Run the specs_qos matrix; gate each priority/fifo pair.

    Returns (rows, reports): per-pair separation numbers for the table
    and every raw report for the artifact."""
    specs = specs_qos(quick=quick)
    reports = [run_spec(s) for s in specs]
    assert len(reports) % 2 == 0
    rows = []
    for i in range(0, len(reports), 2):
        prio, fifo = reports[i], reports[i + 1]
        assert prio["qos"]["arbitration"] == "priority"
        assert fifo["qos"]["arbitration"] == "fifo"
        p = prio["params"]
        label = f"({p['n_procs']}, {p['bank_cycle']})"
        if "degraded_bank" in p:
            label += f" -bank{p['degraded_bank']}"
        rows.append({
            "shape": label,
            "priority_crit_p99": _crit_p99(prio),
            "priority_bulk_p99": _bulk_p99(prio),
            "fifo_crit_p99": _crit_p99(fifo),
            "deadline": prio["qos"]["sla"]["tiers"]["latency_critical"]
                            .get("deadline", {}),
            "contended": prio["qos"]["entry_queue"]["contended"],
        })
    return rows, reports


def assert_separation(rows) -> None:
    for row in rows:
        assert row["contended"] > 0, (
            f"{row['shape']}: no contention — the gate proved nothing"
        )
        assert row["priority_crit_p99"] < row["priority_bulk_p99"], (
            f"{row['shape']}: critical p99 {row['priority_crit_p99']} not "
            f"below bulk p99 {row['priority_bulk_p99']} under priority"
        )
        assert row["priority_crit_p99"] < row["fifo_crit_p99"], (
            f"{row['shape']}: priority critical p99 "
            f"{row['priority_crit_p99']} not below the FIFO baseline's "
            f"{row['fifo_crit_p99']}"
        )


# --------------------------------------------------------------------------
# pytest entry points


@pytest.mark.parametrize("n_procs,bank_cycle", IDENTITY_SHAPES)
def test_zero_contention_identity(n_procs, bank_cycle):
    for engine in ENGINES:
        log_issue, end_issue, _ = _closed_loop(
            n_procs, bank_cycle, 400, engine, tagged=False,
            arbitration="priority")
        for arbitration in ("priority", "fifo"):
            log_sub, end_sub, counts = _closed_loop(
                n_procs, bank_cycle, 400, engine, tagged=True,
                arbitration=arbitration)
            assert log_sub == log_issue and end_sub == end_issue
            assert counts["contended"] == 0


def test_contended_engine_identity():
    check_contended_engine_identity()


def test_tier_separation():
    from benchmarks._report import emit_table

    rows, _ = measure_separation(quick=True)
    emit_table(
        "QoS tier separation: latency-critical p99 vs bulk / FIFO baseline",
        ["shape", "prio crit p99", "prio bulk p99", "fifo crit p99",
         "deadline met/missed"],
        [(r["shape"], f"{r['priority_crit_p99']:.0f}",
          f"{r['priority_bulk_p99']:.0f}", f"{r['fifo_crit_p99']:.0f}",
          f"{r['deadline'].get('met', 0)}/{r['deadline'].get('missed', 0)}")
         for r in rows],
    )
    assert_separation(rows)


# --------------------------------------------------------------------------
# standalone


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small shape matrix / short runs (CI gate)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write BENCH_qos.json into DIR")
    args = parser.parse_args(argv)

    cells = check_zero_contention_identity()
    print(f"zero-contention identity: {cells} shape x engine x policy "
          "cells bit-identical to issue()")
    engines = check_contended_engine_identity()
    print(f"contended identity: reports engine-invariant across "
          f"{', '.join(engines)}")

    rows, reports = measure_separation(quick=args.quick)
    for r in rows:
        dl = r["deadline"]
        print(f"{r['shape']:>16}  prio crit p99 {r['priority_crit_p99']:7.0f}"
              f"  bulk p99 {r['priority_bulk_p99']:7.0f}"
              f"  fifo crit p99 {r['fifo_crit_p99']:7.0f}"
              f"  deadline {dl.get('met', 0)}/{dl.get('missed', 0)}"
              f"  contended {r['contended']}")
    assert_separation(rows)
    print("tier separation: PASS")

    if args.out:
        doc = {"bench": "qos", "quick": bool(args.quick),
               "separation": rows, "runs": reports}
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "BENCH_qos.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
