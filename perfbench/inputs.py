"""Seeded workload inputs.

Every input the benchmark feeds the program is made here, from the
``--seed`` alone, with :class:`random.Random` seeded by a string (stable
across processes and Python runs).  Nothing here imports ``repro``: the
program receives only the generated inputs, never the seed.
"""

from __future__ import annotations

import json
import random
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Tuple

#: Table 3.3 machine shapes as ``(n_procs, bank_cycle)``.
CFM_SHAPES: Tuple[Tuple[int, int], ...] = ((4, 1), (8, 2), (16, 4), (32, 8))
#: Engines pinned one run each at every shape (``None`` is the issue loop).
CFM_ENGINES: Tuple[str, ...] = ("batch", "vectorized", "stacked")
#: Slots per run.  The per-slot issue loop costs about ten times more host
#: time per slot than an engine, so these give each driver a comparable
#: share of the pass.
ISSUE_LOOP_CYCLES = 2_000
ENGINE_CYCLES = 20_000
#: Same-shape specs in the stacked sweep unit, and the slots of each.
SWEEP_WIDTH = 8
SWEEP_CYCLES = 2_500

CACHE_PROCS = 8
CACHE_ROUNDS: Tuple[int, ...] = (100, 200)
CACHE_OFFSETS = 4
CACHE_STORE_SHARE = 0.3

HIER_CLUSTERS = 4
HIER_PER_CLUSTER = 4
HIER_GLOBAL_ROUNDS = 100
HIER_GLOBAL_OFFSETS = 6
HIER_GLOBAL_STORE_SHARE = 0.5
#: The local stream gives every processor more private offsets than its
#: L1 has lines, so L1 misses keep reaching the cluster memory, where the
#: L2 holds the block DIRTY: conflict-free intra-cluster traffic, which is
#: what the batched path serves.
HIER_LOCAL_ROUNDS = 400
HIER_LOCAL_PRIVATE = 16
HIER_LOCAL_LINES = 8
HIER_LOCAL_BANK_CYCLE = 2
HIER_LOCAL_STORE_SHARE = 0.3

#: ``repro serve``'s default warm shapes, as ``(n_banks, bank_cycle)``.
SERVE_SHAPES: Tuple[Tuple[int, int], ...] = ((4, 1), (8, 2), (16, 4), (32, 8))
SERVE_CFM_CYCLES = (50, 550)
SERVE_ROUNDS = (2, 6)
#: Share of requests that repeat an earlier spec, drawn from the most
#: recent new specs so some repeats are still in flight (dedup) and
#: some are already answered (result cache).
SERVE_REPEAT_SHARE = 0.5
SERVE_REPEAT_WINDOW = 32

Spec = Dict[str, object]
#: One coherent op: ``(proc, offset, store words or None for a load)``.
Op = Tuple[int, int, Optional[Dict[int, int]]]


def _rng(workload: str, *keys: int) -> random.Random:
    return random.Random(":".join(map(str, ("perfbench", workload) + keys)))


def _jitter(rng: random.Random, base: int) -> int:
    return base + rng.randrange(base // 10)


def cfm_sweep_inputs(seed: int, pass_no: int) -> List[Dict[str, object]]:
    """One pass: per Table 3.3 shape, the issue-loop spec, one spec per
    pinned engine (all at one slot count), and the stacked sweep unit."""
    rng = _rng("cfm_sweep", seed, pass_no)
    out = []
    for n_procs, bank_cycle in CFM_SHAPES:
        shape = {"n_procs": n_procs, "bank_cycle": bank_cycle}
        engine_cycles = _jitter(rng, ENGINE_CYCLES)
        out.append({
            "shape": (n_procs, bank_cycle),
            "issue_loop": {"system": "cfm", "params": dict(
                shape, cycles=_jitter(rng, ISSUE_LOOP_CYCLES))},
            "engines": {engine: {"system": "cfm", "params": dict(
                shape, cycles=engine_cycles, engine=engine)}
                for engine in CFM_ENGINES},
            "sweep": [{"system": "cfm", "params": dict(
                shape, cycles=_jitter(rng, SWEEP_CYCLES), engine="stacked")}
                for _ in range(SWEEP_WIDTH)],
        })
    return out


def _op(rng: random.Random, proc: int, offset: int, store_share: float,
        word_range: int, value: int) -> Op:
    if rng.random() < store_share:
        return proc, offset, {rng.randrange(word_range): value}
    return proc, offset, None


def coherence_inputs(seed: int, pass_no: int) -> Dict[str, object]:
    """One pass: cache streams at both lengths and the two hierarchy
    streams.

    Cache streams are flat op lists over a small shared offset set;
    hierarchy streams are lists of rounds, each round one op per
    processor, driven to completion before the next round is issued."""
    rng = _rng("coherence_rw", seed, pass_no)
    cache = {}
    for rounds in CACHE_ROUNDS:
        cache[rounds] = [
            _op(rng, p, rng.randrange(CACHE_OFFSETS), CACHE_STORE_SHARE,
                CACHE_PROCS, p + 1)
            for _ in range(rounds) for p in range(CACHE_PROCS)
        ]
    n = HIER_CLUSTERS * HIER_PER_CLUSTER
    width = HIER_PER_CLUSTER * HIER_LOCAL_BANK_CYCLE
    global_rounds = [
        [_op(rng, g, rng.randrange(HIER_GLOBAL_OFFSETS),
             HIER_GLOBAL_STORE_SHARE, HIER_PER_CLUSTER, g + 1)
         for g in range(n)]
        for _ in range(HIER_GLOBAL_ROUNDS)
    ]
    priv = HIER_LOCAL_PRIVATE
    # First touch: one store per private offset brings it DIRTY into the
    # cluster's L2 through the network controller.
    local_rounds = [[(g, g * priv + k, {0: g + 1}) for g in range(n)]
                    for k in range(priv)]
    local_rounds += [
        [_op(rng, g, g * priv + rng.randrange(priv),
             HIER_LOCAL_STORE_SHARE, width, g + 1)
         for g in range(n)]
        for _ in range(HIER_LOCAL_ROUNDS)
    ]
    return {
        "cache": cache,
        "hierarchy": {
            "global": {"n_lines": 64, "bank_cycle": 1,
                       "rounds": global_rounds},
            "local": {"n_lines": HIER_LOCAL_LINES,
                      "bank_cycle": HIER_LOCAL_BANK_CYCLE,
                      "rounds": local_rounds},
        },
    }


def table_shapes(workload: str) -> List[Tuple[int, int]]:
    """The ``(n_banks, bank_cycle)`` AT-space shapes a workload runs on."""
    if workload == "cfm_sweep":
        return [(n * c, c) for n, c in CFM_SHAPES]
    if workload == "coherence_rw":
        return [(CACHE_PROCS, 1), (HIER_PER_CLUSTER, 1), (HIER_CLUSTERS, 1),
                (HIER_PER_CLUSTER * HIER_LOCAL_BANK_CYCLE,
                 HIER_LOCAL_BANK_CYCLE)]
    return list(SERVE_SHAPES)


def spec_key(spec: Spec) -> str:
    """Canonical text of a spec: equal specs, equal keys."""
    return json.dumps(spec, sort_keys=True)


def _cfm_specs(rng: random.Random) -> Iterator[Spec]:
    """Every cfm spec of the serve space once, in seeded random order,
    then again in a fresh order: new specs stay uniform over the space
    and the stream never runs dry."""
    space = [(shape, cycles, stacked) for shape in SERVE_SHAPES
             for cycles in range(*SERVE_CFM_CYCLES)
             for stacked in (False, True)]
    while True:
        rng.shuffle(space)
        for (n_banks, bank_cycle), cycles, stacked in space:
            params: Dict[str, object] = {
                "n_procs": n_banks // bank_cycle, "bank_cycle": bank_cycle,
                "cycles": cycles,
            }
            if stacked:
                params["engine"] = "stacked"
            yield {"system": "cfm", "params": params}


def serve_requests(seed: int) -> Iterator[Tuple[Spec, bool]]:
    """Endless request stream: ``(spec, is_repeat)`` pairs.

    About :data:`SERVE_REPEAT_SHARE` of the stream repeats one of the
    :data:`SERVE_REPEAT_WINDOW` most recent new specs.  The rest are new
    draws: half cfm (half of those pinned to the stacked engine), a
    quarter each cache and hierarchy with fresh seeds.  ``is_repeat`` is
    measured, not intended: it is true whenever the spec occurred earlier
    in the stream."""
    rng = _rng("serve_mixed", seed)
    cfm = _cfm_specs(random.Random(rng.random()))
    recent: Deque[Spec] = deque(maxlen=SERVE_REPEAT_WINDOW)
    seen = set()
    while True:
        if recent and rng.random() < SERVE_REPEAT_SHARE:
            yield rng.choice(recent), True
            continue
        kind = rng.random()
        if kind < 0.5:
            spec = next(cfm)
        else:
            system = "cache" if kind < 0.75 else "hierarchy"
            params = ({"n_procs": 4} if system == "cache"
                      else {"n_clusters": 2, "procs_per_cluster": 2})
            params.update(rounds=rng.randrange(*SERVE_ROUNDS),
                          seed=rng.randrange(1 << 31))
            spec = {"system": system, "params": params}
        key = spec_key(spec)
        is_repeat = key in seen
        seen.add(key)
        recent.append(spec)
        yield spec, is_repeat
