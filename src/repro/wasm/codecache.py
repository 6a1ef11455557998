"""Process-wide compiled-code cache keyed by module content hash.

Lowering a function body (to legacy tagged tuples, threaded closures, or
AOT-generated Python; engine ``aot`` keeps the threaded closures of a
function too deep to compile, see :func:`repro.wasm.aot.aot_for`) is pure
per-``Code`` work, so it is shareable across every
:class:`~repro.wasm.instance.Instance` of the *same bytes* — not just the same :class:`~repro.wasm.module.Module` object.  That
matters for the paper's hot-swap story (Fig. 5b): a live swap decodes a
fresh module from the plugin ``.wc`` bytes, and multi-UE coexistence
(Fig. 5a) instantiates the same plugin once per cell.  With this cache
those paths skip re-lowering entirely.

Keying is ``(module.content_hash, engine)``; the hash is the SHA-256 of
the binary set by :func:`repro.wasm.decoder.decode_module`.  Modules
built by hand (no hash) still get per-``Module`` memoization via the
``Code``-object caches in :mod:`repro.wasm.interpreter` /
:mod:`repro.wasm.threaded` / :mod:`repro.wasm.aot` — they just don't
dedupe across decodes.

The cache is bounded: at most :data:`CAPACITY` entries, evicted in
least-recently-used order.  Long fuzz campaigns and plugin-churn soaks
would otherwise grow it without limit — every distinct module binary is
a new key.  Hit/miss/eviction counters are exported through
:mod:`repro.obs` as
``waran_wasm_codecache_{hits,misses,evictions}_total{engine=...}``
(visible in ``repro obs``); the cache itself always works,
telemetry-enabled or not.

The cache also keeps each module's **heat**: the fuel its instances have
burnt so far, summed per content hash (:func:`add_heat`).  It is the
clock :class:`repro.abi.host.PluginHost` reads to decide when a binary
has earned its aot compile; it lives here because it is per-binary,
process-wide state with the same lifetime as the bodies - bounded by the
same cap in least-recently-charged order, dropped by :func:`clear`.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock

from repro.obs import OBS
from repro.wasm.aot import aot_for
from repro.wasm.interpreter import prepared_for
from repro.wasm.module import Module
from repro.wasm.threaded import ENGINES, threaded_for

#: entries held per table (bodies, heat) before LRU eviction
CAPACITY = 256

_CACHE: OrderedDict[tuple[str, str], list] = OrderedDict()
_HEAT: OrderedDict[str, int] = OrderedDict()
_LOCK = Lock()


def _lower_all(module: Module, engine: str) -> list:
    if engine == "legacy":
        return [prepared_for(code) for code in module.codes]
    n_imported = module.num_imported_funcs
    if engine == "aot":
        return [
            aot_for(module, code, module.func_type(n_imported + i))
            for i, code in enumerate(module.codes)
        ]
    return [
        threaded_for(module, code, module.func_type(n_imported + i))
        for i, code in enumerate(module.codes)
    ]


def _count(name: str, help_text: str, engine: str) -> None:
    if OBS.enabled:
        OBS.registry.counter(name, help_text).inc(engine=engine)


def compiled_bodies(module: Module, engine: str) -> list:
    """All lowered function bodies of ``module`` for ``engine``, cached.

    Returns a list parallel to ``module.codes``.  Safe to share across
    instances: compiled bodies capture immediates and handler functions
    only, never instance state.
    """
    content_hash = module.content_hash
    if content_hash is None:
        # hand-built module: per-Code memoization only, not counted
        return _lower_all(module, engine)

    key = (content_hash, engine)
    with _LOCK:
        bodies = _CACHE.get(key)
        if bodies is not None:
            _CACHE.move_to_end(key)
    if bodies is not None:
        _count(
            "waran_wasm_codecache_hits_total",
            "compiled-code cache hits (per engine)",
            engine,
        )
        return bodies

    _count(
        "waran_wasm_codecache_misses_total",
        "compiled-code cache misses (per engine)",
        engine,
    )
    bodies = _lower_all(module, engine)
    evicted: list[tuple[str, str]] = []
    with _LOCK:
        _CACHE[key] = bodies
        _CACHE.move_to_end(key)
        while len(_CACHE) > CAPACITY:
            evicted.append(_CACHE.popitem(last=False)[0])
        if OBS.enabled:
            OBS.registry.gauge(
                "waran_wasm_codecache_entries",
                "modules currently held by the compiled-code cache",
            ).set(len(_CACHE))
    for _hash, evicted_engine in evicted:
        _count(
            "waran_wasm_codecache_evictions_total",
            "compiled-code cache LRU evictions (per engine)",
            evicted_engine,
        )
    return bodies


def is_cached(module: Module, engine: str) -> bool:
    """Are ``engine`` bodies of these bytes cached?  A pure peek: no LRU
    touch, no hit/miss count."""
    return (module.content_hash, engine) in _CACHE


def add_heat(module: Module, fuel: int) -> int:
    """Charge ``fuel`` to the heat of ``module``'s bytes; returns the total."""
    content_hash = module.content_hash
    with _LOCK:
        total = _HEAT.get(content_hash)
        if total is None:
            total = 0
            while len(_HEAT) >= CAPACITY:
                _HEAT.popitem(last=False)
        else:
            _HEAT.move_to_end(content_hash)
        _HEAT[content_hash] = total = total + fuel
    return total


def heat(module: Module) -> int:
    """Fuel charged so far to ``module``'s bytes (0 when never charged)."""
    return _HEAT.get(module.content_hash, 0)


def stats() -> dict[str, float]:
    """Current hit/miss/eviction counters (all engines) plus cache size."""
    hits = OBS.registry.counter("waran_wasm_codecache_hits_total")
    misses = OBS.registry.counter("waran_wasm_codecache_misses_total")
    evictions = OBS.registry.counter("waran_wasm_codecache_evictions_total")
    total_hits = sum(hits.value(engine=e) for e in ENGINES)
    total_misses = sum(misses.value(engine=e) for e in ENGINES)
    total_evictions = sum(evictions.value(engine=e) for e in ENGINES)
    total = total_hits + total_misses
    return {
        "entries": float(len(_CACHE)),
        "capacity": float(CAPACITY),
        "hits": total_hits,
        "misses": total_misses,
        "evictions": total_evictions,
        "hit_rate": (total_hits / total) if total else 0.0,
    }


def clear() -> None:
    """Drop every cached compilation and all heat (tests / memory pressure)."""
    with _LOCK:
        _CACHE.clear()
        _HEAT.clear()
