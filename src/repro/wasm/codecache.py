"""The process-wide table of checked modules: one record per binary.

Decode, validation and lowering are per-*binary* work with one lifetime.
The record is the decoded **and validated**
:class:`~repro.wasm.module.Module` that :func:`repro.wasm.load_module`
keeps here per content hash (:func:`kept_module` / :func:`keep_module`,
its only callers); everything else known about a binary hangs off that
object as a private memo, the way lowered code hangs off its ``Code``:

- the **lowered bodies** per engine (:func:`lowered`, filled by
  :func:`repro.wasm.instance.compiled_bodies`).  Sharing lowered code is
  sharing the module: every load of the same bytes is the same object, so
  a live swap (Fig. 5b) and one plugin per cell (Fig. 5a) lower nothing;
  two bare ``decode_module`` calls are two modules and share nothing;
- the **heat**: the fuel its instances have burnt (:func:`add_heat`), the
  clock :class:`repro.abi.host.PluginHost` reads to decide when a binary
  has earned its aot compile.

Only a module that passed validation is kept, the sanitizer's policy
verdict never is (it is per host), and the kept module is shared read-only
by every instance of it.  At most :data:`CAPACITY` binaries stay, in
least-recently-*loaded* order, and a record goes whole: a host still
running an evicted binary keeps that module - bodies and heat - alive and
charged, the next load of those bytes is a new, cold record.

Counted when :mod:`repro.obs` is on: per load of bytes,
``waran_wasm_module_cache_{hits,misses,evictions}_total``; per instantiate
/ retier, ``waran_wasm_codecache_{hits,misses}_total{engine=...}``.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock

from repro.obs import OBS, BoundMetrics, MetricsRegistry
from repro.obs.registry import HandlesBy
from repro.wasm.module import Module

#: binaries kept before LRU eviction.  Sized against ``peak_rss_mb`` on the
#: ledger's ``hot_swap`` workload, whose cold half is a stream of
#: single-use binaries, each pinning ~140 kB of threaded bodies and ~50 kB
#: of module nobody will load again: 256 -> 57.9 MB, 128 -> 53.9,
#: 64 -> 42.2, 16 -> 33.4, against 54.9 when no module was kept (bound:
#: +5 %); warm swaps read the same at every size.  The tree ships 14 plugin
#: binaries and a live binary is touched on every load, so it never ages out.
CAPACITY = 64

_MODULES: OrderedDict[str, Module] = OrderedDict()
_LOCK = Lock()


def _bind_module_counts(reg: MetricsRegistry) -> HandlesBy:
    return HandlesBy(
        lambda what: reg.counter(
            f"waran_wasm_module_cache_{what}_total",
            f"decoded+validated module table {what} (per load of bytes)",
        ).labels()
    )


def _bind_lookup_counts(reg: MetricsRegistry) -> HandlesBy:
    return HandlesBy(
        lambda what: reg.counter(
            f"waran_wasm_codecache_{what}_total",
            f"compiled-code cache {what} (per engine)",
        ).labels_by("engine")
    )


#: the table's counters, keyed by what they count, each family opened on
#: its first count
_MODULE_COUNTS = BoundMetrics(_bind_module_counts)
_LOOKUP_COUNTS = BoundMetrics(_bind_lookup_counts)


def _count_module(what: str, amount: int = 1) -> None:
    if OBS.enabled:
        _MODULE_COUNTS.get(OBS.registry)[what].inc(amount)


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


def lowered(module: Module) -> dict[str, list]:
    """``{engine: bodies}`` lowered so far for this module object (a
    memo, not a dataclass field: ``==`` and ``fields()`` skip it)."""
    return module.__dict__.setdefault("_lowered", {})


def count_lookup(engine: str, hit: bool) -> None:
    """Count one instantiate / retier that found ``engine`` bodies lowered
    (a hit) or had to lower them (a miss)."""
    if OBS.enabled:
        _LOOKUP_COUNTS.get(OBS.registry)["hits" if hit else "misses"][engine].inc()


def is_cached(module: Module, engine: str) -> bool:
    """Has an instance of this module been bound to ``engine`` bodies?  A
    pure peek: no LRU touch, no hit/miss count."""
    return engine in lowered(module)


def add_heat(module: Module, fuel: int) -> int:
    """Charge ``fuel`` to the heat of ``module``; returns the total."""
    with _LOCK:
        module._heat = total = heat(module) + fuel
    return total


def heat(module: Module) -> int:
    """Fuel charged so far to ``module`` (0 when never charged)."""
    return getattr(module, "_heat", 0)


def _total(counter: str) -> float:
    series = OBS.registry.counter(counter).series()
    return sum((child.value for _labels, child in series), 0.0)


def stats() -> dict[str, float]:
    """The table's size and its hit/miss/eviction counters: ``hits`` /
    ``misses`` count lowerings (all engines), ``module_*`` loads of bytes."""
    hits = _total("waran_wasm_codecache_hits_total")
    misses = _total("waran_wasm_codecache_misses_total")
    size = float(len(_MODULES))
    return {
        "entries": size,
        "capacity": float(CAPACITY),
        "hits": hits,
        "misses": misses,
        "evictions": _total("waran_wasm_module_cache_evictions_total"),
        "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "modules": size,
        "module_hits": _total("waran_wasm_module_cache_hits_total"),
        "module_misses": _total("waran_wasm_module_cache_misses_total"),
    }


def clear() -> None:
    """Empty the table: later loads start cold, live hosts keep theirs."""
    with _LOCK:
        _MODULES.clear()
