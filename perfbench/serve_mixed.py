"""The ``serve_mixed`` workload: a closed loop against a live ``repro serve``.

One client connection keeps :data:`IN_FLIGHT` requests outstanding: each
response read sends the next request.  Latency is what the client sees,
from writing a request to reading its response, in reference
milliseconds (:class:`perfbench.host.RefClock`).  The server runs with
``--shards 1`` and every other flag at its default.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import inputs as inp
from perfbench.host import (RefClock, child_env, child_pids, median,
                            percentile, ratio, self_peak_rss_mb,
                            tree_peak_rss_mb)
from perfbench.offline import Outcome
from perfbench.tracing import Tracer

IN_FLIGHT = 16
MIN_REQUESTS = 1_000
SETUP_REPEATS = 5
#: Requests per tracing block: in a traced run, blocks alternate traced
#: and untraced so the run also measures what tracing costs.
BLOCK = 200
READY_TIMEOUT_S = 60.0
IO_TIMEOUT_S = 20.0
#: Specs outside the generated stream (cycles and rounds below its
#: ranges) that touch every shape and system once before timing.
WARMUP: List[inp.Spec] = [
    {"system": "cfm", "params": {"n_procs": b // c, "bank_cycle": c,
                                 "cycles": 40, **extra}}
    for b, c in inp.SERVE_SHAPES for extra in ({}, {"engine": "stacked"})
] + [
    {"system": "cache", "params": {"n_procs": 4, "rounds": 1, "seed": 0}},
    {"system": "hierarchy", "params": {"n_clusters": 2,
                                       "procs_per_cluster": 2,
                                       "rounds": 1, "seed": 0}},
]

_READY = re.compile(r"serving JSONL\+HTTP on ([0-9.]+):(\d+)")


def digest(report: object) -> str:
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()


class Server:
    """One ``repro serve`` process, its client connection, and shutdown."""

    def __init__(self, src: Path) -> None:
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--shards", "1",
             "--port", "0"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, env=child_env(src))
        self.children: List[int] = []
        self.sock: Optional[socket.socket] = None
        self.lines = None
        self._addr: Optional[Tuple[str, int]] = None
        self._ready = threading.Event()
        # Drain stderr for the server's whole life so it never blocks on
        # a full pipe (it logs its final metrics there at shutdown).
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        try:
            if not self._ready.wait(READY_TIMEOUT_S) or self._addr is None:
                raise RuntimeError("repro serve did not report its address")
            self.sock = socket.create_connection(self._addr,
                                                 timeout=IO_TIMEOUT_S)
            self.lines = self.sock.makefile("rb")
            self.send({"op": "ping", "id": "ping"})
            reply = self.read()
            if not reply.get("ok"):
                raise RuntimeError(f"ping failed: {reply}")
            self.t_ready = time.perf_counter()
        except BaseException:
            self.stop()
            raise

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            match = _READY.search(line)
            if match and not self._ready.is_set():
                self._addr = (match.group(1), int(match.group(2)))
                self._ready.set()
        self._ready.set()

    def send(self, obj: Dict[str, object]) -> None:
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def read(self) -> Dict[str, object]:
        line = self.lines.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def tree_rss_mb(self) -> float:
        self.children = child_pids(self.proc.pid)
        return tree_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait for the server and its
        pool workers to be gone."""
        if self.lines is not None:
            self.lines.close()
        if self.sock is not None:
            self.sock.close()
        if self.proc.poll() is None:
            self.children = self.children or child_pids(self.proc.pid)
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._reader.join(timeout=30)
        self.proc.stderr.close()
        deadline = time.monotonic() + 30
        for pid in self.children:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


def _alive(pid: int) -> bool:
    """Is ``pid`` running (not gone, not a zombie)?"""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class _Reply:
    """One answered request, timed on the client."""
    __slots__ = ("rid", "block", "t_sent", "t_read", "worker_ms", "cached")

    def __init__(self, rid: int, block: int, t_sent: int, t_read: int,
                 worker_ms: float, cached: bool):
        self.rid, self.block = rid, block
        self.t_sent, self.t_read = t_sent, t_read
        self.worker_ms, self.cached = worker_ms, cached


def _closed_loop(server: Server, seed: int, seconds: float, trace: bool,
                 tracer: Tracer, clock: RefClock, out: Outcome,
                 served: Dict[str, List[str]]) -> None:
    """Keep :data:`IN_FLIGHT` requests outstanding for ``seconds`` (and
    at least :data:`MIN_REQUESTS`), then read every answer still due.

    Requests are grouped in blocks of :data:`BLOCK` by send order, and
    every time of a block is scaled to reference seconds by the host
    speed sampled during the block."""
    layer = out.layer
    stream = inp.serve_requests(seed)
    pending: Dict[int, Tuple[int, int, str]] = {}  # rid -> (t, block, key)
    replies: List[_Reply] = []
    block_start: List[int] = []
    repeats = deduped = sent = 0

    def send_next() -> None:
        nonlocal sent, repeats
        spec, is_repeat = next(stream)
        repeats += is_repeat
        block = sent // BLOCK
        if block == len(block_start):
            block_start.append(time.perf_counter_ns())
        pending[sent] = (time.perf_counter_ns(), block, inp.spec_key(spec))
        server.send(dict(spec, id=sent))
        sent += 1

    t0 = time.perf_counter()
    for _ in range(IN_FLIGHT):
        send_next()
    while pending:
        try:
            reply = server.read()
        except (OSError, ValueError) as exc:
            print(f"perfbench: serve client stopped: {exc!r}",
                  file=sys.stderr, flush=True)
            break
        t_read = time.perf_counter_ns()
        try:
            rid = int(reply.get("id"))
        except (TypeError, ValueError):
            rid = -1
        if rid not in pending:
            out.failed += 1
            continue
        t_sent, block, key = pending.pop(rid)
        ok = bool(reply.get("ok"))
        out.failed += not ok
        served.setdefault(key, []).append(digest(reply["report"]) if ok
                                          else "")
        cached = bool(reply.get("cached"))
        deduped += bool((reply.get("worker") or {}).get("deduped"))
        replies.append(_Reply(rid, block, t_sent, t_read,
                              float(reply.get("wall_ms") or 0.0), cached))
        if time.perf_counter() - t0 < seconds or sent < MIN_REQUESTS:
            send_next()
    block_start.append(time.perf_counter_ns())
    out.attempted += sent
    out.failed += len(pending)  # never answered

    factors = [clock.factor(block_start[b] / 1e9, block_start[b + 1] / 1e9)
               for b in range(len(block_start) - 1)]
    block_s = [(block_start[b + 1] - block_start[b]) / 1e9 * factors[b]
               for b in range(len(factors))]
    block_ids = [tracer.new_id() for _ in block_s]
    for b, ref_s in enumerate(block_s):
        if trace and b % 2 == 0:
            tracer.record("serve.block", "perfbench", block_start[b],
                          block_start[b + 1], None, sid=block_ids[b],
                          scale=factors[b])
            if b + 1 < len(block_s):
                out.trace_costs.append(ref_s - block_s[b + 1])
    client_ms = []
    worker_ms = []
    front_ms = []
    for r in replies:
        f = factors[r.block]
        ms = (r.t_read - r.t_sent) / 1e6 * f
        client_ms.append(ms)
        if not r.cached:
            worker_ms.append(r.worker_ms * f)
            front_ms.append(ms - worker_ms[-1])
        if trace and r.block % 2 == 0:
            tracer.record("serve.request", "repro.serve", r.t_sent, r.t_read,
                          block_ids[r.block], rid=str(r.rid), scale=f)

    out.e2e["ops_per_s"] = ratio(len(replies), sum(block_s))
    out.e2e["latency_p50_ms"] = percentile(client_ms, 50)
    out.e2e["latency_p99_ms"] = percentile(client_ms, 99)
    out.latency_samples = len(client_ms)
    layer["serve.requests"] = sent
    layer["serve.repeat_share"] = ratio(repeats, sent)
    layer["serve.cache.hit_share"] = ratio(
        sum(r.cached for r in replies), len(replies))
    layer["serve.dedup_share"] = ratio(deduped, len(replies))
    layer["serve.client_ms.mean"] = ratio(sum(client_ms), len(client_ms))
    layer["serve.worker_ms.mean"] = ratio(sum(worker_ms), len(worker_ms))
    layer["serve.front_overhead_ms.mean"] = ratio(sum(front_ms),
                                                  len(front_ms))


def _warmup(server: Server, out: Outcome,
            served: Dict[str, List[str]]) -> None:
    for i, spec in enumerate(WARMUP):
        server.send(dict(spec, id=f"warm{i}"))
        reply = server.read()
        out.attempted += 1
        ok = bool(reply.get("ok"))
        out.failed += not ok
        served.setdefault(inp.spec_key(spec), []).append(
            digest(reply["report"]) if ok else "")


def _server_metrics(server: Server, layer: Dict[str, float]) -> None:
    try:
        server.send({"op": "metrics", "id": "metrics"})
        service = server.read()["metrics"]["service"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: no server metrics: {exc!r}", file=sys.stderr,
              flush=True)
        return
    layer["serve.batch.mean_size"] = float(
        service.get("serve.batch.size", {}).get("mean", 0.0))
    layer["serve.stack.requests"] = float(
        service.get("serve.stack", {}).get("counts", {}).get("requests", 0))


def serial_gate(served: Dict[str, List[str]], out: Outcome,
                clock: RefClock) -> None:
    """Every distinct spec's served reports equal serial ``run_spec``
    after a JSON round trip; each mismatched response counts as failed.
    The serial compute time is the floor under a served request."""
    from repro.obs.bench import run_spec

    compute_s = 0.0
    bad = 0
    keys = list(served)
    for key in keys:
        t0 = time.perf_counter()
        try:
            report = run_spec(json.loads(key))
        except Exception:  # a spec the program cannot run serially
            report = None
        t1 = time.perf_counter()
        compute_s += (t1 - t0) * clock.factor(t0, t1)
        expected = digest(json.loads(json.dumps(report)))
        wrong = sum(d != expected for d in served[key] if d)
        if wrong:
            bad += 1
            out.failed += wrong
    if bad:
        print(f"perfbench: {bad} distinct spec(s) served a report that "
              "differs from serial run_spec", file=sys.stderr, flush=True)
    out.layer["serve.serial_compute_ms.mean"] = ratio(compute_s * 1e3,
                                                      len(keys))


def serve_mixed(src: Path, seed: int, seconds: float, trace: bool,
                tracer: Tracer, clock: RefClock) -> Outcome:
    out = Outcome()
    served: Dict[str, List[str]] = {}
    ready: List[float] = []
    server: Optional[Server] = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = Server(src)
            ready.append((server.t_ready - server.t_spawn)
                         * clock.factor(server.t_spawn, server.t_ready))
        _warmup(server, out, served)
        _closed_loop(server, seed, seconds, trace, tracer, clock, out,
                     served)
        _server_metrics(server, out.layer)
        out.e2e["peak_rss_mb"] = self_peak_rss_mb() + server.tree_rss_mb()
    finally:
        if server is not None:
            server.stop()
    serial_gate(served, out, clock)
    out.e2e["setup_s"] = median(ready)
    return out
