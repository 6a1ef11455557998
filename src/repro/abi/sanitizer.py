"""Pre-deployment static analysis of plugin binaries.

The paper (§3A): "MNOs can perform static analysis on the MVNO scheduler
plugin before deployment, further ensuring safety."  This sanitizer is
that check: beyond the Wasm validator (which already guarantees memory
safety and control-flow integrity), it enforces WA-RAN's deployment
policy - ABI conformance, an import allow-list, and resource bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.abi.hostfuncs import ALLOWED_IMPORTS
from repro.wasm import load_module
from repro.wasm.module import Module
from repro.wasm.traps import WasmError
from repro.wasm.wtypes import ValType

#: plugins may not declare more linear memory than this (pages)
MAX_MEMORY_PAGES = 1024  # 64 MiB

#: ... nor a funcref table longer than this (instantiation allocates every
#: entry up front)
MAX_TABLE_ELEMENTS = 65536

#: exports every scheduler plugin must provide, with their signatures
REQUIRED_EXPORTS = {
    "alloc": ((ValType.I32,), (ValType.I32,)),
    "run": ((ValType.I32, ValType.I32), (ValType.I32,)),
}


class SanitizerError(ValueError):
    """The plugin violates WA-RAN deployment policy."""


@dataclass
class SanitizeReport:
    """What the sanitizer verified about a plugin."""

    n_funcs: int = 0
    n_exports: int = 0
    memory_min_pages: int = 0
    memory_max_pages: int | None = None
    imports_used: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def sanitize_plugin(
    wasm_bytes: bytes,
    allowed_imports: frozenset[str] = ALLOWED_IMPORTS,
) -> SanitizeReport:
    """Decode, validate and policy-check a scheduler plugin binary.

    Raises :class:`SanitizerError` (or the decoder/validator errors, which
    are also policy failures) if the plugin may not be deployed.
    Returns a :class:`SanitizeReport` describing what was checked.
    """
    try:
        module = load_module(wasm_bytes)
    except WasmError as exc:
        raise SanitizerError(f"plugin failed validation: {exc}") from exc
    return check_module(module, allowed_imports)


def check_module(
    module: Module,
    allowed_imports: frozenset[str] = ALLOWED_IMPORTS,
    required_exports: dict | None = None,
) -> SanitizeReport:
    """Policy-check a module that is already decoded and validated.

    The half of :func:`sanitize_plugin` a host runs on the module it is
    about to instantiate, so a binary is decoded and validated once.
    """
    report = SanitizeReport()
    report.n_funcs = module.total_funcs
    report.n_exports = len(module.exports)

    _check_imports(module, allowed_imports, report)
    _check_memory(module, report)
    for table in module.tables:
        if table.minimum > MAX_TABLE_ELEMENTS:
            raise SanitizerError(
                f"plugin table requests {table.minimum} elements minimum "
                f"(> {MAX_TABLE_ELEMENTS})"
            )
    _check_exports(module, required_exports or REQUIRED_EXPORTS)
    if module.start is not None:
        report.warnings.append(
            "plugin has a start function; it will run at load time"
        )
    return report


def _check_imports(
    module: Module, allowed: frozenset[str], report: SanitizeReport
) -> None:
    for imp in module.imports:
        if imp.kind != "func":
            raise SanitizerError(
                f"plugin imports a {imp.kind} ({imp.module}.{imp.name}); "
                f"only host functions may be imported"
            )
        if imp.module != "env":
            raise SanitizerError(
                f"plugin imports from module {imp.module!r}; only 'env' is allowed"
            )
        if imp.name not in allowed:
            raise SanitizerError(
                f"plugin imports forbidden host function {imp.name!r}; "
                f"allowed: {sorted(allowed)}"
            )
        report.imports_used.append(imp.name)


def _check_memory(module: Module, report: SanitizeReport) -> None:
    mems = module.mems + [i.desc for i in module.imported("mem")]
    if not mems:
        raise SanitizerError("plugin declares no linear memory")
    limits = mems[0]
    report.memory_min_pages = limits.minimum
    report.memory_max_pages = limits.maximum
    if limits.minimum > MAX_MEMORY_PAGES:
        raise SanitizerError(
            f"plugin requests {limits.minimum} pages minimum (> {MAX_MEMORY_PAGES})"
        )
    if limits.maximum is None:
        raise SanitizerError(
            "plugin memory has no maximum; unbounded growth is not deployable"
        )
    if limits.maximum > MAX_MEMORY_PAGES:
        raise SanitizerError(
            f"plugin memory maximum {limits.maximum} pages exceeds {MAX_MEMORY_PAGES}"
        )


def _check_exports(module: Module, required: dict) -> None:
    exports = module.export_map()
    if "memory" not in exports or exports["memory"].kind != "mem":
        raise SanitizerError("plugin must export its linear memory as 'memory'")
    for name, (params, results) in required.items():
        export = exports.get(name)
        if export is None or export.kind != "func":
            raise SanitizerError(f"plugin missing required export {name!r}")
        ft = module.func_type(export.index)
        if ft.params != params or ft.results != results:
            raise SanitizerError(
                f"export {name!r} has signature {ft}, expected "
                f"[{' '.join(t.short for t in params)}] -> "
                f"[{' '.join(t.short for t in results)}]"
            )
