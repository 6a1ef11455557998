"""WACC compiler tests: compile, validate, execute."""

import pytest

from repro.wacc import WaccError, compile_module, compile_source
from repro.wacc.errors import WaccTypeError
from repro.wasm import Instance, decode_module, validate_module
from repro.wasm.traps import Trap


def build(source: str, imports=None) -> Instance:
    raw = compile_source(source)
    return Instance(decode_module(raw), imports=imports)


class TestBasics:
    def test_add_function(self):
        inst = build("export fn add(a: i32, b: i32) -> i32 { return a + b; }")
        assert inst.call("add", 2, 3) == 5

    def test_compiled_module_always_validates(self):
        raw = compile_source("""
            global total: f64 = 0.0;
            export fn step(x: f64) -> f64 { total = total + x; return total; }
        """)
        validate_module(decode_module(raw))

    def test_memory_exported_by_default(self):
        inst = build("export fn f() -> i32 { return 0; }")
        assert inst.memory is not None
        assert inst.memory.size_pages == 2

    def test_memory_declaration(self):
        inst = build("memory 4 8;\nexport fn f() -> i32 { return memory_size(); }")
        assert inst.call("f") == 4

    def test_precedence(self):
        inst = build("export fn f() -> i32 { return 2 + 3 * 4; }")
        assert inst.call("f") == 14

    def test_parentheses(self):
        inst = build("export fn f() -> i32 { return (2 + 3) * 4; }")
        assert inst.call("f") == 20

    def test_comments_ignored(self):
        inst = build("""
            // line comment
            /* block
               comment */
            export fn f() -> i32 { return 1; /* inline */ }
        """)
        assert inst.call("f") == 1

    def test_hex_literals(self):
        inst = build("export fn f() -> i32 { return 0xff & 0x0f; }")
        assert inst.call("f") == 0x0F

    def test_negative_literal_wrap(self):
        inst = build("export fn f() -> i32 { return 0xFFFFFFFF; }")
        assert inst.call("f") == -1


class TestControlFlow:
    def test_if_else(self):
        inst = build("""
            export fn sign(x: i32) -> i32 {
                if (x > 0) { return 1; }
                else if (x < 0) { return -1; }
                else { return 0; }
            }
        """)
        assert inst.call("sign", 42) == 1
        assert inst.call("sign", -42) == -1
        assert inst.call("sign", 0) == 0

    def test_while_loop(self):
        inst = build("""
            export fn sum(n: i32) -> i32 {
                let acc: i32 = 0;
                let i: i32 = 1;
                while (i <= n) { acc = acc + i; i = i + 1; }
                return acc;
            }
        """)
        assert inst.call("sum", 100) == 5050

    def test_for_loop(self):
        inst = build("""
            export fn sum(n: i32) -> i32 {
                let acc: i32 = 0;
                for (let i: i32 = 0; i < n; i = i + 1) { acc = acc + i; }
                return acc;
            }
        """)
        assert inst.call("sum", 10) == 45

    def test_break(self):
        inst = build("""
            export fn first_multiple(of: i32, above: i32) -> i32 {
                let x: i32 = above;
                while (1) {
                    if (x % of == 0) { break; }
                    x = x + 1;
                }
                return x;
            }
        """)
        assert inst.call("first_multiple", 7, 30) == 35

    def test_continue(self):
        inst = build("""
            export fn sum_even(n: i32) -> i32 {
                let acc: i32 = 0;
                let i: i32 = 0;
                while (i < n) {
                    i = i + 1;
                    if (i % 2 == 1) { continue; }
                    acc = acc + i;
                }
                return acc;
            }
        """)
        assert inst.call("sum_even", 10) == 30

    def test_nested_loops_break_inner(self):
        inst = build("""
            export fn f() -> i32 {
                let count: i32 = 0;
                let i: i32 = 0;
                while (i < 3) {
                    let j: i32 = 0;
                    while (1) {
                        if (j >= 4) { break; }
                        j = j + 1;
                        count = count + 1;
                    }
                    i = i + 1;
                }
                return count;
            }
        """)
        # NOTE: inner `let j` re-declares across iterations -> rejected;
        # see TestErrors. This version hoists correctly.
        assert inst.call("f") == 12

    def test_short_circuit_and(self):
        # right side would trap (div by zero) if evaluated
        inst = build("""
            export fn f(x: i32) -> i32 { return (x != 0) && (10 / x > 1); }
        """)
        assert inst.call("f", 0) == 0
        assert inst.call("f", 4) == 1
        assert inst.call("f", 100) == 0

    def test_short_circuit_or(self):
        inst = build("""
            export fn f(x: i32) -> i32 { return (x == 0) || (10 / x > 1); }
        """)
        assert inst.call("f", 0) == 1
        assert inst.call("f", 2) == 1
        assert inst.call("f", 10) == 0


class TestTypesAndCasts:
    def test_i64_arithmetic(self):
        inst = build("""
            export fn big(a: i64, b: i64) -> i64 { return a * b + (1 as i64); }
        """)
        assert inst.call("big", 1 << 40, 4) == (1 << 42) + 1

    def test_f64_math(self):
        inst = build("""
            export fn hypot2(a: f64, b: f64) -> f64 { return sqrt(a*a + b*b); }
        """)
        assert inst.call("hypot2", 3.0, 4.0) == 5.0

    def test_cast_f64_to_i32(self):
        inst = build("export fn f(x: f64) -> i32 { return x as i32; }")
        assert inst.call("f", 3.9) == 3
        assert inst.call("f", -3.9) == -3

    def test_cast_i32_to_f64(self):
        inst = build("export fn f(x: i32) -> f64 { return (x as f64) / 2.0; }")
        assert inst.call("f", 7) == 3.5

    def test_literal_adapts_to_i64_context(self):
        inst = build("export fn f(x: i64) -> i64 { return x + 1; }")
        assert inst.call("f", (1 << 62)) == (1 << 62) + 1

    def test_f32_roundtrip(self):
        inst = build("export fn f(x: f32) -> f32 { return x * (2 as f32); }")
        assert inst.call("f", 1.5) == 3.0

    def test_builtin_float_ops(self):
        inst = build("""
            export fn fl(x: f64) -> f64 { return floor(x); }
            export fn ce(x: f64) -> f64 { return ceil(x); }
            export fn mx(a: f64, b: f64) -> f64 { return fmax(a, b); }
        """)
        assert inst.call("fl", 2.7) == 2.0
        assert inst.call("ce", 2.2) == 3.0
        assert inst.call("mx", 1.0, 9.0) == 9.0

    def test_unsigned_shift(self):
        inst = build("export fn f(x: i32) -> i32 { return x >>> 1; }")
        assert inst.call("f", -2) == 0x7FFFFFFF


class TestMemoryBuiltins:
    def test_store_load_roundtrip(self):
        inst = build("""
            export fn f(addr: i32, v: i32) -> i32 {
                store32(addr, v);
                return load32(addr);
            }
        """)
        assert inst.call("f", 64, 123456) == 123456

    def test_byte_access(self):
        inst = build("""
            export fn f() -> i32 {
                store8(10, 200);
                return load8u(10) + load8s(10);
            }
        """)
        assert inst.call("f") == 200 + (200 - 256)

    def test_f64_memory(self):
        inst = build("""
            export fn f(addr: i32, v: f64) -> f64 {
                storef64(addr, v);
                return loadf64(addr) * 2.0;
            }
        """)
        assert inst.call("f", 8, 2.25) == 4.5

    def test_oob_access_traps(self):
        inst = build("memory 1 1;\nexport fn f(a: i32) -> i32 { return load32(a); }")
        with pytest.raises(Trap):
            inst.call("f", 70000)

    def test_memory_grow(self):
        inst = build("""
            memory 1 4;
            export fn f() -> i32 {
                memory_grow(2);
                return memory_size();
            }
        """)
        assert inst.call("f") == 3

    def test_trap_builtin(self):
        inst = build("export fn f() { trap(); }")
        with pytest.raises(Trap) as exc:
            inst.call("f")
        assert exc.value.code == "unreachable"


class TestFunctionsAndGlobals:
    def test_internal_helper(self):
        inst = build("""
            fn square(x: i32) -> i32 { return x * x; }
            export fn f(x: i32) -> i32 { return square(x) + square(x + 1); }
        """)
        assert inst.call("f", 3) == 9 + 16
        assert "square" not in inst.exports()

    def test_recursion(self):
        inst = build("""
            export fn fib(n: i32) -> i32 {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
        """)
        assert inst.call("fib", 15) == 610

    def test_global_state_persists(self):
        inst = build("""
            global counter: i32 = 10;
            export fn bump() -> i32 { counter = counter + 1; return counter; }
        """)
        assert inst.call("bump") == 11
        assert inst.call("bump") == 12

    def test_host_import(self):
        from repro.wasm import HostFunc
        from repro.wasm.wtypes import FuncType, ValType

        seen = []

        def log(caller, code):
            seen.append(code)

        ft = FuncType((ValType.I32,), ())
        inst = build(
            """
            import fn log(code: i32);
            export fn f(x: i32) { log(x * 2); }
            """,
            imports={"env": {"log": HostFunc(ft, log, "log")}},
        )
        inst.call("f", 21)
        assert seen == [42]

    def test_void_function(self):
        inst = build("""
            global x: i32 = 0;
            export fn set(v: i32) { x = v; }
            export fn get() -> i32 { return x; }
        """)
        inst.call("set", 77)
        assert inst.call("get") == 77

    def test_fallthrough_of_value_function_traps(self):
        inst = build("""
            export fn f(x: i32) -> i32 { if (x > 0) { return 1; } }
        """)
        assert inst.call("f", 5) == 1
        with pytest.raises(Trap):
            inst.call("f", -5)

    def test_f64_global(self):
        inst = build("""
            global ewma: f64 = 1.5;
            export fn get() -> f64 { return ewma; }
        """)
        assert inst.call("get") == 1.5


class TestErrors:
    @pytest.mark.parametrize(
        "source,match",
        [
            ("export fn f() -> i32 { return 1.5; }", "return type"),
            ("export fn f() -> i32 { return x; }", "undefined variable"),
            ("export fn f() { y = 3; }", "undefined variable"),
            ("export fn f() { let a: i32 = 1; let a: i32 = 2; }", "redeclaration"),
            ("export fn f() -> i32 { return g(); }", "undefined function"),
            ("export fn f(a: i32, a: i32) {}", "duplicate parameter"),
            ("export fn f() { break; }", "outside a loop"),
            ("export fn f() -> i32 { return 1 + 1.5; }", "mismatch"),
            ("export fn f() -> i32 { return 1.0 % 2.0; }", "not defined"),
            ("export fn f(x: f64) { if (x) { } }", "condition must be i32"),
            ("export fn f() { store32(0); }", "expects 2 args"),
            ("export fn f() { let x: i32 = memory_grow; }", "undefined variable"),
            ("fn f() {} fn f() {}", "duplicate function"),
            ("export fn f() -> i32 { return 99999999999; }", "out of i32 range"),
        ],
    )
    def test_rejected(self, source, match):
        with pytest.raises(WaccError, match=match):
            compile_source(source)

    def test_syntax_error_reports_line(self):
        with pytest.raises(WaccError, match="line 2"):
            compile_source("export fn f() {\n  let ; \n}")

    def test_unterminated_comment(self):
        with pytest.raises(WaccError, match="unterminated"):
            compile_source("/* oops")
