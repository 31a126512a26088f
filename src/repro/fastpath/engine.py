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
    Valid selectors for the same span walk, kept because bench specs,
    serve requests and reports name them.  ``stacked`` additionally marks
    a CFM spec as groupable into a stacked sweep unit or serve lane
    (:mod:`repro.fastpath.stack`); it is CFM only — the other layers
    report a typed error (below).

Layers accept an ``engine=`` constructor argument and expose a
``run_*_engine`` dispatcher; ``repro bench --engine=`` threads the choice
through the bench harness.  Not every engine supports every layer:
:func:`resolve_engine` takes the resolving layer's name (and, for custom
seams, an availability predicate) and raises a typed ``ValueError``
naming exactly which layers do support the engine — at construction or
dispatch, never deep inside an engine loop.  This module is deliberately
dependency-free (no ``repro.*`` imports) so the registry can be
consulted from any layer without import cycles.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

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

#: Layer names of the engine seam (the three batched layers).
ENGINE_LAYERS: Tuple[str, ...] = ("cfm", "cache", "hierarchy")

#: Which layers each engine supports.  Engines absent from this map run
#: on every seam layer; ``stacked`` groups whole CFM runs and (for now)
#: has no cache/hierarchy stacking story.
ENGINE_LAYER_SUPPORT = {
    ENGINE_STACKED: ("cfm",),
}


def supported_layers(name: str) -> Tuple[str, ...]:
    """The seam layers engine ``name`` can drive."""
    return ENGINE_LAYER_SUPPORT.get(name, ENGINE_LAYERS)


def engine_available(name: str, layer: str) -> bool:
    """May ``layer`` dispatch through engine ``name``?  (A known engine
    the per-layer support table allows.)"""
    return name in ENGINES and layer in supported_layers(name)


def resolve_engine(name: Optional[str],
                   default: str = DEFAULT_ENGINE,
                   layer: Optional[str] = None,
                   available: Optional[Callable[[str, str], bool]] = None,
                   ) -> str:
    """Validate an engine name; ``None`` resolves to ``default``.

    Raises ``ValueError`` for unknown names and — when ``layer`` is
    given — for engines that layer cannot drive, naming the layers that
    can.  ``available`` overrides the per-layer predicate (``(engine,
    layer) -> bool``) for custom seams; the error text still names the
    registry's supported layers.  An unknown or unsupported name is never
    silently replaced by another.
    """
    if name is None:
        name = default
    if name not in ENGINES:
        raise ValueError(
            f"unknown engine {name!r} (valid: {' '.join(ENGINES)})"
        )
    if layer is not None:
        ok = (available(name, layer) if available is not None
              else layer in supported_layers(name))
        if not ok:
            layers = supported_layers(name)
            raise ValueError(
                f"engine {name!r} does not support layer {layer!r} "
                f"(supported layers: {' '.join(layers)})"
            )
    return name
