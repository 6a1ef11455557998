"""Instantiation and linking tests: host-function imports, refused
imports, exports and segments."""

import pytest

from repro.wasm import HostFunc, Instance, decode_module
from repro.wasm.instance import GlobalInstance, Table
from repro.wasm.memory import Memory
from repro.wasm.module import Import
from repro.wasm.traps import LinkError
from repro.wasm.wat import assemble
from repro.wasm.wtypes import FuncType, GlobalType, Limits, ValType

I32 = ValType.I32


def make(wat: str, **kwargs) -> Instance:
    return Instance(decode_module(assemble(wat)), **kwargs)


class TestImportErrors:
    NEEDS_FUNC = """(module
      (import "env" "f" (func $f (param i32) (result i32)))
      (func (export "g") (result i32) (call $f (i32.const 1))))"""

    def test_missing_import(self):
        with pytest.raises(LinkError, match="missing import env.f"):
            make(self.NEEDS_FUNC)

    def test_signature_mismatch(self):
        wrong = HostFunc(FuncType((), (I32,)), lambda c: 0, "f")
        with pytest.raises(LinkError, match="signature"):
            make(self.NEEDS_FUNC, imports={"env": {"f": wrong}})

    def test_non_function_provided(self):
        with pytest.raises(
            LinkError, match=r"env\.f \(func\): only host functions may be imported"
        ):
            make(self.NEEDS_FUNC, imports={"env": {"f": Memory(Limits(1))}})


class TestOnlyHostFunctionsLink:
    """A plugin reaches the host only through the host functions it is
    given: a memory, table or global import, or another instance's
    export, is a link error naming the import - whatever is offered."""

    REFUSED = r"import env\.{} \({}\): only host functions may be imported"

    def test_memory_import_refused(self):
        wat = """(module (import "env" "mem" (memory 1))
          (func (export "peek") (param i32) (result i32)
            (i32.load8_u (local.get 0))))"""
        with pytest.raises(LinkError, match=self.REFUSED.format("mem", "mem")):
            make(wat, imports={"env": {"mem": Memory(Limits(1))}})

    def test_table_import_refused(self):
        mod = decode_module(assemble("(module)"))
        mod.imports.append(Import("env", "tbl", "table", Limits(1)))
        with pytest.raises(LinkError, match=self.REFUSED.format("tbl", "table")):
            Instance(mod, imports={"env": {"tbl": Table(Limits(1))}})

    def test_global_import_refused(self):
        # the assembler has no global-import form; build the module by hand
        mod = decode_module(assemble("(module (memory 1))"))
        mod.imports.append(Import("env", "base", "global", GlobalType(I32, False)))
        glob = GlobalInstance(GlobalType(I32, False), 8)
        with pytest.raises(LinkError, match=self.REFUSED.format("base", "global")):
            Instance(mod, imports={"env": {"base": glob}})

    def test_another_instances_export_refused(self):
        """Even with the right signature: an instance links no other
        instance's functions."""
        a = make(
            '(module (func (export "double") (param i32) (result i32) '
            "(i32.mul (local.get 0) (i32.const 2))))"
        )
        with pytest.raises(LinkError, match=self.REFUSED.format("double", "func")):
            make(
                """(module
                  (import "env" "double" (func $d (param i32) (result i32)))
                  (func (export "quad") (param i32) (result i32)
                    (call $d (call $d (local.get 0)))))""",
                imports={"env": {"double": a.get_export("double")}},
            )


class TestExports:
    def test_export_names(self):
        inst = make("""(module
          (memory (export "memory") 1)
          (global $g (export "counter") (mut i32) (i32.const 0))
          (func (export "f") (result i32) (i32.const 1)))""")
        assert inst.export_names() == ["counter", "f", "memory"]

    def test_get_export_kinds(self):
        inst = make("""(module
          (memory (export "memory") 1)
          (global $g (export "g") (mut i32) (i32.const 7))
          (func (export "f") (result i32) (i32.const 1)))""")
        assert isinstance(inst.get_export("memory"), Memory)
        assert isinstance(inst.get_export("g"), GlobalInstance)
        assert inst.get_export("g").value == 7
        assert inst.get_export("f")() == 1  # ExportedFunc is callable

    def test_unknown_export(self):
        inst = make("(module)")
        with pytest.raises(LinkError, match="no export"):
            inst.get_export("nope")

    def test_call_unknown_function(self):
        inst = make("(module (memory (export \"m\") 1))")
        with pytest.raises(LinkError, match="no exported function"):
            inst.call("m")

    def test_call_arity_checked(self):
        inst = make('(module (func (export "f") (param i32) (result i32) (local.get 0)))')
        with pytest.raises(TypeError, match="expects 1 args"):
            inst.call("f", 1, 2)


class TestSegmentsAtInstantiation:
    def test_data_segment_out_of_bounds(self):
        wat = '(module (memory 1) (data (i32.const 65534) "abcdef"))'
        with pytest.raises(LinkError, match="data segment"):
            make(wat)

    def test_elem_segment_out_of_bounds(self):
        wat = """(module (table 1 funcref)
          (func $f (result i32) (i32.const 1))
          (elem (i32.const 1) $f))"""
        with pytest.raises(LinkError, match="element segment"):
            make(wat)


class TestIsolation:
    def test_two_instances_do_not_share_memory(self):
        wat = """(module (memory 1)
          (func (export "set") (param i32) (i32.store (i32.const 0) (local.get 0)))
          (func (export "get") (result i32) (i32.load (i32.const 0))))"""
        a = make(wat)
        b = make(wat)
        a.call("set", 111)
        b.call("set", 222)
        assert a.call("get") == 111
        assert b.call("get") == 222

    def test_two_instances_do_not_share_globals(self):
        wat = """(module (global $g (mut i32) (i32.const 0))
          (func (export "bump") (result i32)
            (global.set $g (i32.add (global.get $g) (i32.const 1)))
            (global.get $g)))"""
        a = make(wat)
        b = make(wat)
        a.call("bump")
        a.call("bump")
        assert b.call("bump") == 1
