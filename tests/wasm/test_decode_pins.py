"""Decode and validate, pinned by value.

One sha256 covers everything the two passes make of a fixed module set:
each decoded :class:`Module` field by field, and every :class:`BodyFacts`
field of every body. A second covers how they refuse seeded mutants of
the same set: ~2000 byte-level ones (most fail to decode) and ~1000
instruction-level ones (most decode and fail to validate), by the error
class and message of each, or by what a mutant that passes both decodes
to. A faster decoder or validator must leave both digests where they
are; a digest moves only on purpose, and the change that moves it says
why.
"""

import dataclasses
import hashlib
import random
import struct
from functools import lru_cache
from pathlib import Path

import pytest

from repro.fuzz.corpus import corpus_paths, load_case
from repro.fuzz.gen import ModuleGen
from repro.fuzz.mutate import mutate_bytes
from repro.plugins import available_plugins, plugin_wasm
from repro.wasm import decode_module, encode_module, load_module, validate_module
from repro.wasm import opcodes as op
from repro.wasm.traps import DecodeError, ValidationError
from repro.wasm.validator import BodyFacts, body_facts
from repro.wasm.wat import assemble
from repro.wasm.wtypes import ValType

CORPUS = Path(__file__).parent / "corpus"
GENERATED = 200
GEN_SEED = 37
MUTANTS_PER_MODULE = 8
INSTR_MUTANTS_PER_MODULE = 4
MUTATE_SEED = 11

#: sha256 over every module and its BodyFacts (see :func:`_canon`)
MODULES_SHA = "6db9fdfd25c6c9cd8e944d276e8b04571c7236b4eb24175fcd8fad24b8397a6c"
#: sha256 over ``class:message`` (or ``ok``) of every mutant
REJECTIONS_SHA = "0d704861b7b2fb7dca6d58ffa801b73310ba2f4689cc14c2f8b6d40acf3a7e56"


def _canon(value) -> str:
    """A text form of ``value`` that tells types apart (a ``ValType``
    from an int, a float by its bits, a tuple from a list) and orders
    what has no order of its own (dict keys, sets)."""
    if value is None:
        return "N"
    if isinstance(value, bool):
        return "b1" if value else "b0"
    if isinstance(value, ValType):
        return f"v{int(value)}"
    if isinstance(value, int):
        return f"i{value}"
    if isinstance(value, float):
        return "f" + struct.pack("<d", value).hex()
    if isinstance(value, str):
        return "s" + repr(value)
    if isinstance(value, (bytes, bytearray)):
        return "x" + bytes(value).hex()
    if isinstance(value, tuple):
        return "(" + ",".join(map(_canon, value)) + ")"
    if isinstance(value, list):
        return "[" + ",".join(map(_canon, value)) + "]"
    if isinstance(value, dict):
        items = sorted((_canon(k), _canon(v)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (set, frozenset)):
        return "<" + ",".join(sorted(map(_canon, value))) + ">"
    if isinstance(value, BodyFacts):
        return "F" + _canon([getattr(value, name) for name in BodyFacts.__slots__])
    if dataclasses.is_dataclass(value):
        fields = [getattr(value, f.name) for f in dataclasses.fields(value)]
        return type(value).__name__ + _canon(fields)
    raise TypeError(f"no canonical form for {type(value).__name__}")


@lru_cache(maxsize=None)
def _inputs() -> tuple[bytes, ...]:
    """The 14 shipped plugins, the regression corpus, and generated
    modules at a fixed seed."""
    plugins = [plugin_wasm(name) for name in available_plugins()]
    corpus = [load_case(path).wasm for path in corpus_paths(CORPUS)]
    rng = random.Random(GEN_SEED)
    generated = [ModuleGen(rng).generate().wasm for _ in range(GENERATED)]
    return (*plugins, *corpus, *generated)


def _outcome(raw: bytes) -> tuple[str, object]:
    """Decode then validate ``raw``: ``("ok", module)`` or the error's
    ``class:message``."""
    try:
        module = decode_module(raw)
        validate_module(module)
    except (DecodeError, ValidationError) as exc:
        return f"{type(exc).__name__}:{exc}", None
    return "ok", module


def _checked(module) -> str:
    """``module`` and the facts of each of its bodies, canonically."""
    return _canon(module) + _canon([body_facts(code) for code in module.codes])


#: opcodes without immediates, for instruction-level mutants
_PLAIN_OPS = sorted(code for code, info in op.OP_TABLE.items() if info.imm == "none")


def _mutate_instrs(rng: random.Random, module) -> bytes:
    """Re-encode ``module`` with one instruction of one body replaced,
    deleted, doubled, preceded by a plain opcode or given an immediate
    one larger."""
    index = rng.randrange(len(module.codes))
    code = module.codes[index]
    body = list(code.body)
    pc = rng.randrange(len(body))
    opcode, imm = body[pc]
    strategy = rng.randrange(5)
    if strategy == 0:
        body[pc] = (rng.choice(_PLAIN_OPS), None)
    elif strategy == 1:
        del body[pc]
    elif strategy == 2:
        body.insert(pc, body[pc])
    elif strategy == 3:
        body.insert(pc, (rng.choice(_PLAIN_OPS), None))
    elif isinstance(imm, int) and not isinstance(imm, ValType):
        body[pc] = (opcode, imm + 1 if imm >= 0 else imm - 1)
    elif op.OP_TABLE[opcode].imm == "mem":
        body[pc] = (opcode, (imm[0] + 1, imm[1]))
    codes = list(module.codes)
    codes[index] = dataclasses.replace(code, body=tuple(body))
    return encode_module(dataclasses.replace(module, codes=codes))


def test_the_inputs():
    inputs = _inputs()
    assert len(available_plugins()) == 14
    assert len(inputs) == 14 + len(corpus_paths(CORPUS)) + GENERATED
    assert len(set(inputs)) > 200


def test_modules_and_facts_are_pinned():
    digest = hashlib.sha256()
    for raw in _inputs():
        verdict, module = _outcome(raw)
        assert verdict == "ok", verdict
        digest.update(_checked(module).encode())
    assert digest.hexdigest() == MODULES_SHA


def test_rejections_are_pinned():
    rng = random.Random(MUTATE_SEED)
    digest = hashlib.sha256()
    classes: dict[str, int] = {}
    for raw in _inputs():
        mutants = [mutate_bytes(rng, raw) for _ in range(MUTANTS_PER_MODULE)]
        module = decode_module(raw)
        if module.codes:
            mutants += [
                _mutate_instrs(rng, module) for _ in range(INSTR_MUTANTS_PER_MODULE)
            ]
        for mutant in mutants:
            verdict, checked = _outcome(mutant)
            kind = verdict.split(":")[0]
            classes[kind] = classes.get(kind, 0) + 1
            if checked is not None:
                verdict += ":" + _checked(checked)
            digest.update(verdict.encode() + b"\n")
    # the set reaches both passes and gets through both
    assert classes["DecodeError"] > 1000 and classes["ValidationError"] > 500
    assert classes["ok"] > 100
    assert digest.hexdigest() == REJECTIONS_SHA


def test_a_decode_error_wins_over_a_validation_error():
    """The whole module is decoded before any of it is validated: a body
    that fails validation does not hide a malformed section after it."""
    invalid = assemble(
        """(module (func (export "f") (result i32)
            (i32.add (i32.const 1) (i64.const 2))))"""
    )
    with pytest.raises(ValidationError, match="type mismatch"):
        load_module(invalid)
    with pytest.raises(DecodeError, match="unknown section id 12"):
        load_module(invalid + b"\x0c\x00")
