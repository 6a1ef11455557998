"""WACC - the WA-RAN C-like Compiler.

A small, statically typed, C-flavoured language that compiles to standard
WebAssembly binaries via :mod:`repro.wasm.encoder`.  It exists so that
WA-RAN plugins are genuinely written in a high-level language and compiled
to Wasm bytecode - the exact pipeline the paper describes (Fig. 1).

Language summary::

    memory 2 16;                      // linear memory min/max pages
    global ticks: i32 = 0;            // module global
    import fn log(code: i32);         // host import (module "env")

    export fn run(ptr: i32, n: i32) -> i32 {
        let acc: f64 = 0.0;
        let i: i32 = 0;
        while (i < n) {
            acc = acc + loadf64(ptr + i * 8);
            i = i + 1;
        }
        if (acc > 100.0) { log(1); }
        return acc as i32;
    }

Types: ``i32 i64 f32 f64``.  Arithmetic is signed; ``>>`` is arithmetic
shift and ``>>>`` logical.  Conversions are explicit via ``expr as type``.
Memory access goes through builtins (``load32``/``store32`` etc.), which
compile to single Wasm load/store instructions - and therefore inherit the
sandbox's bounds checking.
"""

from repro.wacc.compiler import WaccError, compile_module, compile_source

__all__ = ["compile_source", "compile_module", "WaccError"]
