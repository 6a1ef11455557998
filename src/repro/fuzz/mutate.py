"""Binary mutation: corrupt valid modules to exercise decoder error paths.

The property under test is *crash-freedom with classification*: an
arbitrary byte string fed to the runtime must either be accepted or be
rejected with a :class:`~repro.wasm.traps.WasmError` subclass — never an
``IndexError`` out of the LEB reader, never a ``MemoryError`` from an
attacker-chosen allocation size, never an unclassified crash.  Mutants
that still decode and validate get pushed all the way through the
differential oracle, so near-miss binaries also exercise every engine.
"""

from __future__ import annotations

import random

from repro.fuzz.oracle import CallPlan, differential
from repro.wasm.decoder import decode_module
from repro.wasm.traps import WasmError
from repro.wasm.validator import validate_module
from repro.wasm.wtypes import ValType

#: instantiation guards: a mutated header can declare multi-GiB memories or
#: tables; decoding those is fine, *allocating* them is not.  Mutants above
#: these caps are classified without being instantiated.
MAX_MUTANT_MEMORY_PAGES = 64
MAX_MUTANT_TABLE_ELEMS = 65_536

#: fuel for running mutant exports — mutants earn no long schedules
MUTANT_FUEL = 2_000


class MutationCrash(Exception):
    """A mutated binary escaped the WasmError taxonomy (host crash)."""

    def __init__(self, wasm: bytes, stage: str, cause: BaseException):
        super().__init__(
            f"host crash in {stage}: {type(cause).__name__}: {cause}"
        )
        self.wasm = wasm
        self.stage = stage
        self.cause = cause


def mutate_bytes(rng: random.Random, wasm: bytes) -> bytes:
    """Apply 1-4 random byte-level corruptions to a module binary."""
    data = bytearray(wasm)
    for _ in range(rng.randrange(1, 5)):
        if not data:
            break
        strategy = rng.randrange(7)
        pos = rng.randrange(len(data))
        if strategy == 0:  # flip one bit
            data[pos] ^= 1 << rng.randrange(8)
        elif strategy == 1:  # overwrite one byte
            data[pos] = rng.randrange(256)
        elif strategy == 2:  # delete a short slice
            del data[pos : pos + rng.randrange(1, 5)]
        elif strategy == 3:  # insert random bytes
            data[pos:pos] = bytes(
                rng.randrange(256) for _ in range(rng.randrange(1, 5))
            )
        elif strategy == 4:  # truncate the tail
            del data[pos:]
        elif strategy == 5:  # duplicate a slice in place
            chunk = bytes(data[pos : pos + rng.randrange(1, 9)])
            data[pos:pos] = chunk
        else:  # set a byte to a LEB-continuation-heavy value
            data[pos] = rng.choice((0x80, 0xFF, 0x7F, 0x00))
    return bytes(data)


def _default_args(params) -> tuple:
    return tuple(0 if p in (ValType.I32, ValType.I64) else 0.0 for p in params)


def classify_bytes(wasm: bytes) -> str:
    """Classify an arbitrary byte string's journey through the runtime.

    Returns one of ``"decode-error"``, ``"validation-error"``,
    ``"skipped-imports"``, ``"skipped-huge"``, ``"diverged"`` or ``"ok"``.
    Raises :class:`MutationCrash` if any stage dies with a
    non-:class:`~repro.wasm.traps.WasmError` exception.
    """
    try:
        module = decode_module(wasm)
    except WasmError:
        return "decode-error"
    except MemoryError as exc:
        # a decoder that allocates attacker-sized buffers IS the bug
        raise MutationCrash(wasm, "decode", exc) from exc
    except Exception as exc:  # noqa: BLE001 - the whole point of the fuzzer
        raise MutationCrash(wasm, "decode", exc) from exc

    try:
        validate_module(module)
    except WasmError:
        return "validation-error"
    except Exception as exc:  # noqa: BLE001
        raise MutationCrash(wasm, "validate", exc) from exc

    if module.imports:
        # generated modules import nothing; a mutant that conjured imports
        # cannot be linked meaningfully
        return "skipped-imports"
    if module.mems and module.mems[0].minimum > MAX_MUTANT_MEMORY_PAGES:
        return "skipped-huge"
    if module.tables and module.tables[0].minimum > MAX_MUTANT_TABLE_ELEMS:
        return "skipped-huge"

    # still a valid module: run it through the full differential oracle with
    # synthesized zero arguments for every exported function
    calls: CallPlan = [
        (export.name, _default_args(module.func_type(export.index).params))
        for export in module.exports
        if export.kind == "func"
    ]
    try:
        result = differential(wasm, calls, fuel=MUTANT_FUEL)
    except WasmError:
        # e.g. LinkError from an out-of-bounds data segment: fine, but it
        # must not depend on the engine — differential() records that case
        # itself, so reaching here means a non-differential link failure
        return "link-error"
    except Exception as exc:  # noqa: BLE001
        raise MutationCrash(wasm, "execute", exc) from exc
    return "ok" if result.ok else "diverged"
