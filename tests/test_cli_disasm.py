"""Tests for the CLI and the disassembler."""

import pytest

from repro.cli import main
from repro.plugins import plugin_wasm
from repro.wasm import decode_module
from repro.wasm.disasm import disassemble
from repro.wasm.wat import assemble


class TestDisassembler:
    def test_contains_exports_and_types(self):
        text = disassemble(plugin_wasm("mt"))
        assert '(export "run")' in text
        assert '(export "alloc")' in text
        assert '(import "env" "tbs_bits"' in text
        assert "(memory 2 64)" in text

    def test_all_plugins_disassemble(self):
        from repro.plugins import available_plugins

        for name in available_plugins():
            text = disassemble(plugin_wasm(name))
            assert text.startswith("(module")
            assert text.endswith(")")

    def test_block_structure_indented(self):
        raw = assemble("""(module (func (export "f") (param i32) (result i32)
          (if (result i32) (local.get 0)
            (then (i32.const 1)) (else (i32.const 2)))))""")
        text = disassemble(raw)
        lines = text.splitlines()
        if_line = next(l for l in lines if l.strip() == "if (result i32)")
        body_line = next(l for l in lines if l.strip() == "i32.const 1")
        assert len(body_line) - len(body_line.lstrip()) > len(if_line) - len(
            if_line.lstrip()
        )

    def test_data_segment_escaped(self):
        raw = assemble('(module (memory 1) (data (i32.const 0) "ab\\00"))')
        text = disassemble(raw)
        assert '"ab\\00"' in text

    def test_memarg_printed(self):
        raw = assemble("""(module (memory 1)
          (func (export "f") (result i32)
            (i32.load offset=16 (i32.const 0))))""")
        assert "offset=16" in disassemble(raw)


class TestCli:
    def test_compile_and_sanitize(self, tmp_path, capsys):
        source = tmp_path / "toy.wc"
        source.write_text(
            "memory 2 8;\n"
            "export fn alloc(size: i32) -> i32 { return 1024; }\n"
            "export fn run(p: i32, n: i32) -> i32 { store32(49152, 0); return 49152; }\n"
        )
        out = tmp_path / "toy.wasm"
        assert main(["compile", str(source), "-o", str(out)]) == 0
        assert out.read_bytes()[:4] == b"\x00asm"
        assert main(["sanitize", str(out)]) == 0
        captured = capsys.readouterr()
        assert "OK" in captured.out

    def test_compile_error_reported(self, tmp_path, capsys):
        source = tmp_path / "bad.wc"
        source.write_text("export fn f() -> i32 { return x; }")
        assert main(["compile", str(source)]) == 1
        assert "error" in capsys.readouterr().err

    def test_sanitize_rejects(self, tmp_path, capsys):
        bad = tmp_path / "bad.wasm"
        bad.write_bytes(b"\x00asm\x01\x00\x00\x00\x0c")
        assert main(["sanitize", str(bad)]) == 1
        assert "REJECTED" in capsys.readouterr().err

    def test_disasm_command(self, tmp_path, capsys):
        binary = tmp_path / "mt.wasm"
        binary.write_bytes(plugin_wasm("mt"))
        assert main(["disasm", str(binary)]) == 0
        assert "(module" in capsys.readouterr().out

    def test_disasm_threaded_lists_the_lowering(self, tmp_path, capsys):
        """``--threaded`` prints one header per function - its instruction
        and superinstruction counts - over the lowered slots."""
        binary = tmp_path / "rr.wasm"
        binary.write_bytes(plugin_wasm("rr"))
        assert main(["disasm", "--threaded", str(binary)]) == 0
        lines = capsys.readouterr().out.splitlines()
        module = decode_module(plugin_wasm("rr"))
        headers = [l for l in lines if l.startswith("func ")]
        assert len(headers) == len(module.codes)
        run = module.export_map()["run"].index
        assert any(
            l.startswith(f'func {run} (export "run"): ') for l in headers
        )
        assert all(" superinstructions covering " in l for l in headers)
        assert len(lines) > len(headers)

    def test_disasm_aot_shows_the_call_boundary(self, tmp_path, capsys):
        """Each compiled function names the leaves it inlines, the callees
        it calls directly, the imports it calls as host functions and the
        call sites that stay on ``Instance.invoke_index``."""
        binary = tmp_path / "pf.wasm"
        binary.write_bytes(plugin_wasm("pf"))
        assert main(["disasm", "--aot", str(binary)]) == 0
        lines = capsys.readouterr().out.splitlines()
        module = decode_module(plugin_wasm("pf"))
        run = module.export_map()["run"].index
        header = next(
            i for i, l in enumerate(lines) if l.startswith(f'func {run} (export "run")')
        )
        boundary = lines[header + 1]
        assert boundary.startswith("  ;; inlined: f")
        # pf's `run` inlines its accessors, calls its other helpers
        # directly and one host import, and nothing leaves through
        # invoke_index
        assert boundary.endswith("; host: import 0; via invoke_index: -")
        fields = dict(
            part.split(": ") for part in boundary.split(";; ", 1)[1].split("; ")
        )
        inlined, direct = fields["inlined"].split(), fields["direct"].split()
        n_imported = module.num_imported_funcs
        assert inlined and direct and not set(inlined) & set(direct)
        assert all(int(f[1:]) >= n_imported for f in inlined + direct)
        # every inlined callee is a leaf, and says so in its header
        for f in inlined:
            assert any(
                l.startswith(f"func {f[1:]}") and "a leaf (inlined" in l
                for l in lines
            ), f
        # a function that calls nothing
        assert "  ;; inlined: -; direct: -; host: -; via invoke_index: -" in lines
        # every compiled function carries the line
        compiled = [l for l in lines if l.startswith("func ") and ", compiled" in l]
        assert len(compiled) == len(module.codes)
        assert sum(l.startswith("  ;; inlined: ") for l in lines) == len(compiled)

    @pytest.mark.parametrize(
        "argv",
        [
            ["scale", "--sweep", "1,,2"],
            ["scale", "--sweep", "0,2"],
            ["fig5d", "--calls", "0"],
            ["rt", "--slots", "0"],
        ],
    )
    def test_bad_counts_are_usage_errors(self, argv, capsys):
        """A count from the command line is checked before anything runs:
        argparse's usage error (exit 2) naming the flag, no traceback."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"error: argument {argv[1]}: " in capsys.readouterr().err

    def test_plugins_command(self, capsys):
        assert main(["plugins"]) == 0
        out = capsys.readouterr().out
        assert "rr" in out and "xapp_ts" in out

    def test_fig5a_command_quick(self, capsys):
        assert main(["fig5a", "--duration", "1.0"]) == 0
        assert "all targets met" in capsys.readouterr().out

    def test_fig5d_command_quick(self, capsys):
        assert main(["fig5d", "--calls", "20"]) == 0
        assert "slot duration" in capsys.readouterr().out

    def test_safety_command(self, capsys):
        assert main(["safety"]) == 0
        out = capsys.readouterr().out
        assert "null_deref" in out and "double_free" in out


class TestWatCommand:
    def test_wat_assembles(self, tmp_path, capsys):
        source = tmp_path / "add.wat"
        source.write_text(
            '(module (func (export "add") (param i32 i32) (result i32)\n'
            "  (i32.add (local.get 0) (local.get 1))))"
        )
        out = tmp_path / "add.wasm"
        assert main(["wat", str(source), "-o", str(out)]) == 0
        from repro.wasm import Instance, decode_module

        inst = Instance(decode_module(out.read_bytes()))
        assert inst.call("add", 20, 22) == 42

    def test_wat_reports_errors(self, tmp_path, capsys):
        source = tmp_path / "bad.wat"
        source.write_text("(module (func (frob)))")
        assert main(["wat", str(source)]) == 1
        assert "error" in capsys.readouterr().err

    def test_wat_rejects_invalid_module(self, tmp_path, capsys):
        source = tmp_path / "illtyped.wat"
        source.write_text("(module (func (result i32) nop))")
        assert main(["wat", str(source)]) == 1
