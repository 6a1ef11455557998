"""The validator's per-body pass is the one static analysis every engine
lowers from: what it records, and that nothing runs without it."""

import pytest

from repro.abi.host import PluginHost
from repro.plugins import plugin_wasm
from repro.wasm import Instance, codecache, decode_module, load_module, validate_module
from repro.wasm import interpreter
from repro.wasm import opcodes as op
from repro.wasm.instance import compiled_bodies
from repro.wasm.module import Code
from repro.wasm.threaded import ENGINES
from repro.wasm.traps import ValidationError
from repro.wasm.validator import body_facts
from repro.wasm.wat import assemble

#: i32.add of an i64: decodes, never validates
INVALID = assemble(
    """(module (func (export "f") (result i32)
        (i32.add (i32.const 1) (i64.const 2))))"""
)


@pytest.mark.parametrize("engine", ENGINES)
def test_an_unvalidated_body_is_refused_not_lowered(engine):
    module = load_module(INVALID, validate=False)
    with pytest.raises(ValidationError, match="not been validated"):
        Instance(module, validate=False, engine=engine)
    assert not codecache.is_cached(module, engine)


def test_a_rejected_module_records_no_facts():
    module = decode_module(INVALID)
    with pytest.raises(ValidationError, match="type mismatch"):
        validate_module(module)
    with pytest.raises(ValidationError, match="not been validated"):
        body_facts(module.codes[0])


def test_facts_of_a_small_body():
    source = """(module (func (export "f") (param i32) (result i32)
        (block $out (result i32)
          (loop $top
            (br_if $out (i32.const 7) (i32.eqz (local.get 0)))
            (local.set 0 (i32.sub (local.get 0) (i32.const 1)))
            (br $top))
          (unreachable))))"""
    module = decode_module(assemble(source))
    validate_module(module)
    (code,) = module.codes
    assert [op.mnemonic(ins) for ins in code.body] == [
        "block (result i32)", "loop", "i32.const 7", "local.get 0", "i32.eqz",
        "br_if 1", "local.get 0", "i32.const 1", "i32.sub", "local.set 0",
        "br 0", "end", "unreachable", "end", "end",
    ]
    facts = body_facts(code)
    # nothing falls into the loop's end (11) or the block's (13); code
    # after a block entered live counts as reachable (12)
    assert facts.heights == [0, 0, 0, 1, 2, 2, 1, 2, 3, 2, 1, None, 0, None, 1]
    assert facts.ends == {0: (13, None), 1: (11, None)}
    # br_if carries the block's i32 past its end; br re-enters the loop
    assert facts.branches == {5: (14, 1, 0), 10: (2, 0, 0)}
    assert facts.targets == {2, 14}
    assert facts.max_stack == 3


def test_else_and_if_landings():
    source = """(module (func (export "f") (param i32) (result i32)
        (if (result i32) (local.get 0)
          (then (i32.const 1))
          (else (i32.const 2)))))"""
    module = load_module(assemble(source))
    facts = body_facts(module.codes[0])
    # if at 1 lands after the else at 3 when false; the else jumps to the end
    assert facts.ends == {1: (5, 3), 3: (5, 3)}
    assert facts.branches == {1: 4, 3: 5}
    assert facts.targets == {4, 5}


def test_the_stack_scan_is_clamped_at_zero():
    """Dead code may pop what the linear scan never pushed: the scan stops
    at zero there, so what is pushed after it still counts."""
    source = """(module (func (export "f")
        unreachable i32.add drop i32.const 1 i32.const 2 drop drop))"""
    module = load_module(assemble(source))
    assert body_facts(module.codes[0]).max_stack == 2


def test_instructions_after_the_function_end_are_rejected():
    module = decode_module(assemble('(module (func (export "f")))'))
    (code,) = module.codes
    module.codes[0] = Code(code.locals, code.body + ((op.NOP, None),))
    with pytest.raises(ValidationError, match="after the function end"):
        validate_module(module)


@pytest.mark.parametrize("engine", ["threaded", "aot"])
def test_compiled_tiers_build_no_legacy_lowering(engine, monkeypatch):
    """The compiled tiers take the stack bound and local defaults from the
    facts, so instantiating - and promoting - never lowers for legacy."""
    built = []
    real = interpreter.PreparedCode.__init__

    def spy(self, code):
        built.append(code)
        real(self, code)

    monkeypatch.setattr(interpreter.PreparedCode, "__init__", spy)
    codecache.clear()
    try:
        host = PluginHost(plugin_wasm("rr"), name=f"facts-{engine}", engine=engine)
        if engine == "aot":
            host.promote()
        assert built == []
        # the spy sees the legacy lowering when there is one
        module = host.instance.module
        compiled_bodies(module, "legacy")
        assert built == list(module.codes)
    finally:
        codecache.clear()
