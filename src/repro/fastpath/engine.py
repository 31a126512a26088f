"""Engine-strategy registry: one seam for every slot-advancing layer.

Each batched layer (:class:`repro.core.cfm.CFMemory`,
:class:`repro.cache.protocol.CacheSystem`,
:class:`repro.hierarchy.slot_accurate.SlotAccurateHierarchy`) can advance
time two ways, bit-identical on their observable results:

``reference``
    The per-slot tick loop — the paper's semantics, one slot at a time.
    Always available, always correct, the differential oracle.
``batch``
    The span walk (:meth:`repro.core.cfm.CFMemory._advance_span`): prove
    a span interaction-free, replay it in one pass over the precomputed
    bank orders, serving whole-block reads from a per-offset memo, and
    tick per slot wherever the proof breaks (the default).
``vectorized``, ``stacked``
    Valid selectors for the same span walk, on every layer, kept because
    bench specs, serve requests and reports name them.

Layers accept an ``engine=`` constructor argument and expose a
``run_*_engine`` dispatcher; ``repro bench --engine=`` threads the choice
through the bench harness.  :func:`resolve_engine` raises a typed
``ValueError`` for an unknown name — at construction or dispatch, never
deep inside an engine loop.  This module is deliberately dependency-free
(no ``repro.*`` imports) so the registry can be consulted from any layer
without import cycles.
"""

from __future__ import annotations

from typing import Optional, Tuple

ENGINE_REFERENCE = "reference"
ENGINE_BATCH = "batch"
ENGINE_VECTORIZED = "vectorized"
ENGINE_STACKED = "stacked"

#: Every selectable engine strategy.  All but ``reference`` select the one
#: span walk, whose only fallback is reference ticks.
ENGINES: Tuple[str, ...] = (
    ENGINE_REFERENCE, ENGINE_BATCH, ENGINE_VECTORIZED, ENGINE_STACKED,
)

#: The engine layers use when none is configured — the stage-2 batcher,
#: preserving the behaviour of every pre-existing ``run_ops_batch`` caller.
DEFAULT_ENGINE = ENGINE_BATCH

def resolve_engine(name: Optional[str],
                   default: str = DEFAULT_ENGINE) -> str:
    """Validate an engine name; ``None`` resolves to ``default``.

    Raises ``ValueError`` for unknown names; an unknown name is never
    silently replaced by another.
    """
    if name is None:
        name = default
    if name not in ENGINES:
        raise ValueError(
            f"unknown engine {name!r} (valid: {' '.join(ENGINES)})"
        )
    return name
