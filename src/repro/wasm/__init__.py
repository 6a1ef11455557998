"""A from-scratch WebAssembly MVP runtime.

This package implements the substrate WA-RAN builds on: a decoder for the
standard Wasm binary format, a structural/type validator, a stack-machine
interpreter with sandboxed bounds-checked linear memory, trap semantics,
fuel metering, host-function linking, and a WAT-flavoured text assembler.

The implemented subset is the Wasm MVP (1.0) core: i32/i64/f32/f64 numeric
ops, structured control flow (block/loop/if, br/br_if/br_table), direct and
indirect calls, locals/globals, one linear memory with load/store of all
widths, and one funcref table.  That is everything the WA-RAN plugins and
the paper's evaluation require.

Public entry points:

- :func:`decode_module` - bytes -> :class:`Module`
- :func:`validate_module` - raise :class:`ValidationError` on bad modules
- :func:`load_module` - both, once per binary and process: bytes ->
  the one checked (and shared, read-only) :class:`Module` of those bytes
- :class:`Instance` - instantiate and call exports
- :class:`Store` - runtime state shared by instances
- :func:`repro.wasm.wat.assemble` - WAT text -> wasm bytes
"""

from repro.wasm.decoder import decode_module
from repro.wasm.encoder import encode_module
from repro.wasm.instance import HostFunc, Instance, InstanceState, Store
from repro.wasm.interpreter import ExecStats
from repro.wasm.loader import load_module
from repro.wasm.module import Module
from repro.wasm.traps import (
    FuelExhausted,
    MemoryOutOfBounds,
    Trap,
    ValidationError,
    WasmError,
)
from repro.wasm.validator import validate_module

__all__ = [
    "decode_module",
    "encode_module",
    "validate_module",
    "load_module",
    "Module",
    "Instance",
    "InstanceState",
    "Store",
    "HostFunc",
    "ExecStats",
    "Trap",
    "WasmError",
    "ValidationError",
    "MemoryOutOfBounds",
    "FuelExhausted",
]
