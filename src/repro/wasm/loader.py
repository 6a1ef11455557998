"""The one place bytes become a checked :class:`Module`."""

from __future__ import annotations

import hashlib

from repro.wasm import codecache
from repro.wasm.decoder import decode_module
from repro.wasm.module import Module
from repro.wasm.validator import validate_module


def load_module(module_or_bytes, validate: bool = True) -> Module:
    """Decode (if given bytes) and validate a module, each at most once
    per *binary*, process-wide.

    Bytes are hashed first; a binary this process has already decoded and
    validated comes back as the very :class:`Module` kept for it in
    :mod:`repro.wasm.codecache` (one SHA-256, nothing else), anything else
    is decoded and validated here and kept only once validation passed -
    so every module this function hands out for ``validate=True`` bytes
    has passed both, and bytes that fail either are decoded again on every
    attempt.  The kept module is shared by every caller: treat it as
    read-only (instances do; their state lives in the instance).

    Everything downstream - the sanitizer's policy checks (per host, never
    kept), instantiation, the lowering dumps - takes the returned module
    and repeats neither step.  A :class:`Module` passed in is validated if
    asked and returned as is; ``validate=False`` is for tools that must
    also show an invalid module (the disassembler) and nothing may *run* a
    module loaded that way.  Neither reads nor writes the kept modules.
    """
    if not isinstance(module_or_bytes, (bytes, bytearray)):
        if validate:
            validate_module(module_or_bytes)
        return module_or_bytes
    data = bytes(module_or_bytes)
    if not validate:
        return decode_module(data)
    content_hash = hashlib.sha256(data).hexdigest()
    module = codecache.kept_module(content_hash)
    if module is None:
        module = decode_module(data, content_hash=content_hash)
        validate_module(module)
        module = codecache.keep_module(module)
    return module
