"""Host-side measurement helpers: statistics, calibration, memory, set-up."""

from __future__ import annotations

import bisect
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Deque, Dict, Iterable, Iterator, List, Sequence, Tuple

#: Arithmetic-kernel iterations per sample (about a quarter millisecond).
CALIB_SLICE = 2_000
#: Host-speed sampling period while :meth:`RefClock.sampling` is on.
SAMPLE_EVERY_S = 0.02
#: Reference speeds: arithmetic-kernel iterations per second, and runs of
#: the toy simulator per second.
CALIB_REF = 1e7
TOY_REF = 4e3


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], pct: int) -> float:
    """Linear-interpolated percentile (``statistics.quantiles``, inclusive)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100,
                                      method="inclusive")[pct - 1])


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when the layer did no work (``den == 0``)."""
    return num / den if den else 0.0


def _calib_kernel(n: int) -> int:
    """Arithmetic and a small dict: the interpreter's tightest loop."""
    acc = 0
    table: Dict[int, int] = {}
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFF
        table[i & 255] = acc
    return acc + len(table)


class _ToyAccess:
    __slots__ = ("proc", "offset", "left", "done")

    def __init__(self, proc: int, offset: int, left: int) -> None:
        self.proc, self.offset = proc, offset
        self.left, self.done = left, False


def _toy_kernel() -> int:
    """A toy slotted memory simulator, written like the program's own code
    (slotted objects, attribute updates, tuple-keyed dicts, list rebuilds,
    a deque) but sharing none of it."""
    memory: Dict[Tuple[int, int], int] = {}
    finished: Deque[_ToyAccess] = deque()
    active: List[_ToyAccess] = []
    issued = []
    for slot in range(60):
        if slot % 4 == 0:
            for proc in range(8):
                access = _ToyAccess(proc, (slot * 7 + proc) % 13, 4)
                active.append(access)
                issued.append(access)
        keep = []
        for access in active:
            key = ((slot + access.proc) % 8, access.offset)
            memory[key] = memory.get(key, 0) + 1
            access.left -= 1
            if access.left:
                keep.append(access)
            else:
                access.done = True
                finished.append(access)
        active = keep
    return sum(access.done for access in issued) + len(finished)


class RefClock:
    """Turns host wall time into *reference seconds*.

    A shared host's CPU speed drifts: on a 2-vCPU KVM guest (Intel Xeon,
    2.1 GHz) a fixed pure-Python kernel ran anywhere from 6 to 10 million
    iterations per second, changing within tens of milliseconds and
    holding for up to tens of seconds, which moved the wall time of one
    call by a fifth.
    So while :meth:`sampling` is on, a timer signal times two fixed
    kernels every :data:`SAMPLE_EVERY_S` seconds, and :meth:`factor`
    scales the wall time of any interval by the host speed sampled inside
    it, net of the sampling's own time.  The host speed is the geometric
    mean of the two kernels' speeds, each over its reference
    (:data:`CALIB_REF`, :data:`TOY_REF`): the program's calls slowed about
    1.3 times as much as the arithmetic kernel and 0.9 times as much as
    the toy simulator.  A reference second is the time a host running
    both kernels at their reference speeds would take.
    """

    def __init__(self) -> None:
        #: ``(start, end, host speed over the reference)`` per sample.
        self.samples: List[Tuple[float, float, float]] = []

    def _sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        _calib_kernel(CALIB_SLICE)
        t1 = time.perf_counter()
        _toy_kernel()
        t2 = time.perf_counter()
        speed = math.sqrt(CALIB_SLICE / (t1 - t0) / CALIB_REF
                          / (t2 - t1) / TOY_REF)
        self.samples.append((t0, t2, speed))

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Sample the host speed while the block runs.  Blocking system
        calls interrupted by the timer are resumed (PEP 475)."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    @property
    def speeds(self) -> List[float]:
        return [speed for _, _, speed in self.samples]

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per wall second over ``[start, end]``
        (``time.perf_counter`` values): the mean speed of the samples
        inside, or of the two around it when none fell inside, less the
        share of the interval the samples themselves took."""
        lo = bisect.bisect_left(self.samples, (start,))
        hi = bisect.bisect_right(self.samples, (end,))
        inside = [s for s in self.samples[lo:hi] if s[1] <= end]
        near = inside or self.samples[max(lo - 1, 0):lo + 1]
        speed = sum(speed for _, _, speed in near) / len(near)
        busy = sum(e - s for s, e, _ in inside)
        net = 1.0 - busy / (end - start) if end > start else 1.0
        return speed * net


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (Linux ``/proc``)."""
    out: List[int] = []
    try:
        tasks = list(Path(f"/proc/{pid}/task").iterdir())
    except OSError:  # already exited
        return out
    for task in tasks:
        try:
            out.extend(int(c) for c in (task / "children").read_text().split())
        except OSError:
            continue
    return out


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak resident set (``VmHWM``) of ``pid`` and its children."""
    total_kb = 0
    for p in [pid] + child_pids(pid):
        try:
            status = Path(f"/proc/{p}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def child_env(src: Path) -> Dict[str, str]:
    """Environment for a child interpreter that imports ``repro`` from
    this checkout's sources only."""
    return dict(os.environ, PYTHONPATH=str(src))


_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
import importlib
for name in {modules!r}:
    importlib.import_module(name)
t1 = time.perf_counter()
from repro.fastpath.tables import warm_tables
warm_tables({shapes!r})
t2 = time.perf_counter()
print(json.dumps({{"import_s": t1 - t0, "tables_s": t2 - t1}}), flush=True)
"""


def setup_probes(src: Path, modules: Iterable[str],
                 shapes: Iterable[Tuple[int, int]], repeats: int,
                 clock: RefClock) -> Tuple[List[float], List[float]]:
    """Time ``repeats`` fresh interpreters from spawn to ready.

    Ready means the workload's modules are imported and its AT-space
    tables (``(n_banks, bank_cycle)`` shapes) are warm.  Returns the
    spawn-to-ready times and the table warm-up times, in reference
    seconds."""
    code = _PROBE.format(modules=list(modules), shapes=list(shapes))
    ready: List[float] = []
    tables: List[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code],
                                stdout=subprocess.PIPE, text=True,
                                env=child_env(src))
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            try:
                rc = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                rc = proc.wait()
        if rc != 0 or not line:
            raise RuntimeError(f"set-up probe exited with code {rc}")
        factor = clock.factor(t0, t1)
        ready.append((t1 - t0) * factor)
        tables.append(float(json.loads(line)["tables_s"]) * factor)
    return ready, tables
