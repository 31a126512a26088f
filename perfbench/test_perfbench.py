"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import inputs as inp  # noqa: E402
from perfbench import offline, run, serve_mixed  # noqa: E402
from perfbench.tracing import Span, Tracer, self_seconds  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _serve_prefix(seed: int, n: int = 400):
    return list(islice(inp.serve_requests(seed), n))


def test_inputs_repeat_for_a_seed_and_differ_across_seeds_and_passes():
    for make in (inp.cfm_sweep_inputs, inp.coherence_inputs):
        assert make(7, 0) == make(7, 0)
        assert make(7, 0) != make(8, 0)
        assert make(7, 0) != make(7, 1)
    assert _serve_prefix(7) == _serve_prefix(7)
    assert _serve_prefix(7) != _serve_prefix(8)


def test_repeat_share_is_near_its_target():
    stream = list(islice(inp.serve_requests(3), 5000))
    share = sum(is_repeat for _, is_repeat in stream) / len(stream)
    assert abs(share - inp.SERVE_REPEAT_SHARE) < 0.03
    systems = {spec["system"] for spec, _ in stream}
    assert systems == {"cfm", "cache", "hierarchy"}
    assert any(spec["params"].get("engine") == "stacked"
               for spec, _ in stream)


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in BENCHMARK[kind]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    bounds = [m["bound"] for m in BENCHMARK["end_to_end"]]
    assert setup[0]["bound"] == max(bounds)


def test_every_per_layer_metric_names_its_target():
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    targets = LAYERS["per_layer_targets"]
    assert set(targets) == {m["name"] for m in BENCHMARK["per_layer"]}
    for target in targets.values():
        for move in target["moves"]:
            assert move["metric"] in e2e
            assert move["workload"] in run.WORKLOADS
    assert set(LAYERS["workloads"]) == set(run.WORKLOADS)


def _small_cfm_calls():
    """One shape's calls at small slot counts."""
    calls = offline.cfm_calls(1, 0)[:5]  # the (4, 1) shape
    for call in calls:
        specs = call.data if call.kind == "stack_sweep" else [call.data]
        for spec in specs:
            spec["params"]["cycles"] //= 20
    return [offline.Call(c.name, c.kind, c.ops, (
        offline._sweep_call(c.data, c.name) if c.kind == "stack_sweep"
        else offline._run_spec_call(c.data, "x", "x", c.name)), c.data)
        for c in calls]


def _gate(calls, out):
    return {**offline.cfm_check(calls, out), **offline.cfm_gate(calls, out)}


def test_corrupted_cfm_reports_trip_the_gate():
    calls = _small_cfm_calls()
    clean = {c.name: c.run(Tracer(), False)[0] for c in calls}
    assert _gate(calls, clean) == {}
    assert clean["sweep@4x1"]["fallbacks"] == 0

    conflicted = copy.deepcopy(clean)
    conflicted["issue_loop@4x1"]["conflicts"] = 1
    assert set(_gate(calls, conflicted)) == {"issue_loop@4x1"}

    short = copy.deepcopy(clean)
    short["vectorized@4x1"]["completed"] -= 1
    assert "vectorized@4x1" in _gate(calls, short)

    renamed = copy.deepcopy(clean)
    renamed["stacked@4x1"]["params"]["n_banks"] += 1
    assert set(_gate(calls, renamed)) == {"batch@4x1", "vectorized@4x1",
                                          "stacked@4x1"}

    drifted = copy.deepcopy(clean)
    drifted["sweep@4x1"]["runs"][1]["latency"]["mean"] += 0.5
    assert set(_gate(calls, drifted)) == {"sweep@4x1"}


def test_corrupted_stream_trips_the_coherence_gate():
    calls = offline.coherence_calls(5, 0)
    small = []
    for call in calls:  # shorten every stream
        fn, data = call.data
        if fn is offline.cache_stream:
            data = data[:48]
        else:
            data = dict(data, rounds=data["rounds"][:20])
        small.append(offline.Call(call.name, call.kind, 0,
                                  offline._stream_call(fn, data, call.name),
                                  (fn, data)))
    clean = {c.name: c.run(Tracer(), False)[0] for c in small}
    assert offline.coherence_check(small, clean) == {}
    assert offline.coherence_gate(small, clean) == {}

    bad = copy.deepcopy(clean)
    op = list(bad["hierarchy.local"]["ops"][-1])
    op[2] += 1  # completion slot
    bad["hierarchy.local"]["ops"][-1] = tuple(op)
    bad["cache.r100"]["local_hits"] += 1
    assert set(offline.coherence_gate(small, bad)) == {"cache.r100",
                                                        "hierarchy.local"}
    unfinished = copy.deepcopy(clean)
    unfinished["cache.r200"]["ops"][0] = (False,) + unfinished[
        "cache.r200"]["ops"][0][1:]
    assert set(offline.coherence_check(small, unfinished)) == {"cache.r200"}


def test_serial_gate_counts_each_mismatched_response():
    from repro.obs.bench import run_spec

    spec = {"system": "cfm", "params": {"n_procs": 4, "bank_cycle": 1,
                                        "cycles": 60}}
    good = serve_mixed.digest(json.loads(json.dumps(run_spec(spec))))
    served = {inp.spec_key(spec): [good, "0" * 64, good, "0" * 64]}
    out = offline.Outcome()
    serve_mixed.serial_gate(served, out, _FlatClock())
    assert out.failed == 2
    assert out.layer["serve.serial_compute_ms.mean"] > 0


class _FlatClock:
    def factor(self, start: float, end: float) -> float:
        return 1.0


def test_ref_clock_scales_by_the_speed_sampled_inside_an_interval():
    from perfbench.host import RefClock

    clock = RefClock()
    clock.samples = [(0.0, 0.1, 2.0), (1.0, 1.1, 4.0), (2.0, 2.1, 1.0)]
    # One sample inside [0.5, 2.05]: speed 4, 0.1 of 1.55 s spent on it.
    assert abs(clock.factor(0.5, 2.05) - 4.0 * (1 - 0.1 / 1.55)) < 1e-12
    # None inside [1.2, 1.3]: the samples on either side, 4 and 1.
    assert abs(clock.factor(1.2, 1.3) - 2.5) < 1e-12
    with clock.sampling():
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(clock.samples) >= 3 + 5


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span(1, "pass", "perfbench", 0, 100, None, None),
        Span(2, "a", "repro.core", 10, 40, 1, "x"),
        Span(3, "b", "repro.core", 30, 60, 1, "y", 2.0),
        Span(4, "c", "repro.cache", 90, 130, 1, "z"),  # runs past its parent
    ]
    got = self_seconds(spans)
    assert abs(got["perfbench"] - 40e-9) < 1e-15  # 100 - |[10,60] + [90,100]|
    assert abs(got["repro.core"] - (30e-9 + 60e-9)) < 1e-15
    assert abs(got["repro.cache"] - 40e-9) < 1e-15


def test_a_directory_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {"PATH": "/usr/bin:/bin"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cfm_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
