"""The one place bytes become a checked :class:`Module`."""

from __future__ import annotations

from repro.wasm.decoder import decode_module
from repro.wasm.module import Module
from repro.wasm.validator import validate_module


def load_module(module_or_bytes, validate: bool = True) -> Module:
    """Decode (if given bytes) and validate a module, each exactly once.

    Everything downstream - the sanitizer's policy checks, instantiation,
    the lowering dumps - takes the returned module and repeats neither
    step.  ``validate=False`` is for tools that must also show an invalid
    module (the disassembler); nothing may *run* a module loaded that way.
    """
    if isinstance(module_or_bytes, (bytes, bytearray)):
        module = decode_module(bytes(module_or_bytes))
    else:
        module = module_or_bytes
    if validate:
        validate_module(module)
    return module
