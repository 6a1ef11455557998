"""Process-wide compiled-code cache keyed by module content hash.

Lowering a function body (to legacy tagged tuples, threaded closures, or
AOT-generated Python; engine ``aot`` keeps the threaded closures of a
function too deep to compile, see :func:`repro.wasm.aot.aot_for`) is pure
per-``Code`` work, so it is shareable across every
:class:`~repro.wasm.instance.Instance` of the *same bytes*.  That
matters for the paper's hot-swap story (Fig. 5b): a live swap loads the
plugin ``.wc`` bytes again, and multi-UE coexistence (Fig. 5a)
instantiates the same plugin once per cell.  With this cache those
paths skip re-lowering entirely.

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

The cache also keeps, per content hash, the decoded **and validated**
:class:`~repro.wasm.module.Module` itself (:func:`kept_module` /
:func:`keep_module`, used only by :func:`repro.wasm.load_module`): decode
and validation are per-binary work as much as lowering is, and were
~0.8 of a ~0.9 ms warm swap while every load threw its module away.
Only a module that passed validation is ever kept, the sanitizer's
policy verdict never is (it is per host), and the one kept module of a
binary is shared read-only by every instance of it - which is what
``restore`` already relied on.  Same lock, same cap, least-recently-
*loaded* order, dropped by :func:`clear`; counted as
``waran_wasm_module_cache_{hits,misses,evictions}_total``.

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

#: entries held per table (bodies per engine, modules, heat) before LRU
#: eviction - in practice, binaries.
#: Sized against ``peak_rss_mb`` on the ledger's ``hot_swap`` workload,
#: whose cold half is a stream of single-use binaries, each pinning
#: ~140 kB of threaded bodies and ~50 kB of kept module nobody will load
#: again: 256 -> 57.9 MB, 128 -> 53.9, 64 -> 42.2, 16 -> 33.4, against
#: 54.9 when no module was kept (bound: +5 %); warm swaps read the same at
#: every size.  The tree ships 14 plugin binaries, nothing keeps more than
#: a handful live, and a live binary is touched on every load, so it never
#: ages out.
CAPACITY = 64

_CACHE: OrderedDict[tuple[str, str], list] = OrderedDict()
_MODULES: OrderedDict[str, Module] = OrderedDict()
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


def _count_module(what: str, amount: int = 1) -> None:
    if OBS.enabled:
        OBS.registry.counter(
            f"waran_wasm_module_cache_{what}_total",
            f"decoded+validated module table {what} (per load of bytes)",
        ).inc(amount)


def kept_module(content_hash: str) -> Module | None:
    """The validated module kept for these bytes, or ``None`` (counted as
    a hit or a miss; a hit becomes the most recently loaded)."""
    with _LOCK:
        module = _MODULES.get(content_hash)
        if module is not None:
            _MODULES.move_to_end(content_hash)
    _count_module("misses" if module is None else "hits")
    return module


def keep_module(module: Module) -> Module:
    """Keep a module that **has passed validation**; returns the module
    kept for its bytes - the one already there when two loaders missed on
    the same binary at once, so every caller shares one object."""
    evicted = 0
    with _LOCK:
        module = _MODULES.setdefault(module.content_hash, module)
        while len(_MODULES) > CAPACITY:
            _MODULES.popitem(last=False)
            evicted += 1
    if evicted:
        _count_module("evictions", evicted)
    return module


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
    """Current hit/miss/eviction counters (all engines) plus cache size,
    and the kept-module table's size and hit/miss counters."""
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
        "modules": float(len(_MODULES)),
        "module_hits": OBS.registry.counter(
            "waran_wasm_module_cache_hits_total"
        ).value(),
        "module_misses": OBS.registry.counter(
            "waran_wasm_module_cache_misses_total"
        ).value(),
    }


def clear() -> None:
    """Drop every cached compilation, every kept module and all heat
    (tests / memory pressure)."""
    with _LOCK:
        _CACHE.clear()
        _MODULES.clear()
        _HEAT.clear()
