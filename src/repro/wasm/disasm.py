"""Wasm disassembler: binary module -> readable WAT-style text.

Part of the WA-RAN toolchain story (§6D): operators receiving a
third-party plugin binary can inspect exactly what they are about to
deploy.  The output uses the flat instruction syntax with indentation for
block structure; for supported modules it re-assembles to an equivalent
module (checked by round-trip tests).
"""

from __future__ import annotations

from repro.wasm import opcodes as op
from repro.wasm.loader import load_module
from repro.wasm.module import Module
from repro.wasm.wtypes import ValType


def _valtype(vt: ValType) -> str:
    return vt.short


def _sig(params, results) -> str:
    parts = []
    if params:
        parts.append("(param " + " ".join(_valtype(p) for p in params) + ")")
    if results:
        parts.append("(result " + " ".join(_valtype(r) for r in results) + ")")
    return " ".join(parts)


def _escape(payload: bytes) -> str:
    out = []
    for byte in payload:
        if 32 <= byte < 127 and chr(byte) not in '"\\':
            out.append(chr(byte))
        else:
            out.append(f"\\{byte:02x}")
    return "".join(out)


def _format_instr(instr, indent: int) -> tuple[str, int]:
    """Return (line, new_indent)."""
    opcode, imm = instr
    info = op.OP_TABLE[opcode]
    name = info.name
    if opcode == op.END:
        indent = max(indent - 1, 0)
        return ("  " * indent + "end", indent)
    if opcode == op.ELSE:
        return ("  " * max(indent - 1, 0) + "else", indent)

    text = name
    kind = info.imm
    if kind == "block":
        if imm is not None:
            text += f" (result {_valtype(imm)})"
    elif kind in ("label", "func", "local", "global"):
        text += f" {imm}"
    elif kind == "br_table":
        targets, default = imm
        text += " " + " ".join(str(t) for t in (*targets, default))
    elif kind == "call_ind":
        text += f" (type {imm})"
    elif kind == "mem":
        align, offset = imm
        if offset:
            text += f" offset={offset}"
        if align:
            text += f" align={1 << align}"
    elif kind in ("i32", "i64"):
        text += f" {imm}"
    elif kind in ("f32", "f64"):
        text += f" {imm!r}".replace("'", "")
    line = "  " * indent + text
    if opcode in (op.BLOCK, op.LOOP, op.IF):
        indent += 1
    return (line, indent)


def disassemble(module_or_bytes) -> str:
    """Disassemble a module (or raw bytes) to WAT-style text."""
    # an invalid module must still disassemble: that is how one is debugged
    module = load_module(module_or_bytes, validate=False)
    assert isinstance(module, Module)

    lines = ["(module"]
    for i, ft in enumerate(module.types):
        lines.append(f"  (type {i} (func {_sig(ft.params, ft.results)}))".rstrip())

    for imp in module.imports:
        if imp.kind == "func":
            ft = module.types[imp.desc]
            lines.append(
                f'  (import "{imp.module}" "{imp.name}" '
                f"(func {_sig(ft.params, ft.results)}))"
            )
        elif imp.kind == "mem":
            maximum = f" {imp.desc.maximum}" if imp.desc.maximum is not None else ""
            lines.append(
                f'  (import "{imp.module}" "{imp.name}" '
                f"(memory {imp.desc.minimum}{maximum}))"
            )
        else:
            lines.append(f'  (import "{imp.module}" "{imp.name}" ({imp.kind} ...))')

    for mem in module.mems:
        maximum = f" {mem.maximum}" if mem.maximum is not None else ""
        lines.append(f"  (memory {mem.minimum}{maximum})")

    for table in module.tables:
        maximum = f" {table.maximum}" if table.maximum is not None else ""
        lines.append(f"  (table {table.minimum}{maximum} funcref)")

    for i, glob in enumerate(module.globals):
        mut = f"(mut {_valtype(glob.gtype.valtype)})" if glob.gtype.mutable else _valtype(
            glob.gtype.valtype
        )
        init, _ = _format_instr(glob.init[0], 0)
        lines.append(f"  (global {i} {mut} ({init.strip()}))")

    exports_by_index = {}
    for export in module.exports:
        exports_by_index.setdefault((export.kind, export.index), []).append(export.name)

    n_imported = module.num_imported_funcs
    for i, code in enumerate(module.codes):
        func_index = n_imported + i
        ft = module.func_type(func_index)
        names = exports_by_index.get(("func", func_index), [])
        export_text = "".join(f' (export "{n}")' for n in names)
        lines.append(f"  (func {func_index}{export_text} {_sig(ft.params, ft.results)}".rstrip())
        if code.locals:
            lines.append(
                "    (local " + " ".join(_valtype(l) for l in code.locals) + ")"
            )
        indent = 2
        for instr in code.body[:-1]:  # skip the final function end
            line, indent = _format_instr(instr, indent)
            lines.append(line)
        lines.append("  )")

    for elem in module.elems:
        offset, _ = _format_instr(elem.offset[0], 0)
        funcs = " ".join(str(f) for f in elem.func_indices)
        lines.append(f"  (elem ({offset.strip()}) {funcs})")

    for seg in module.datas:
        offset, _ = _format_instr(seg.offset[0], 0)
        lines.append(f'  (data ({offset.strip()}) "{_escape(seg.payload)}")')

    for name in exports_by_index.get(("mem", 0), []):
        lines.append(f'  (export "{name}" (memory 0))')

    lines.append(")")
    return "\n".join(lines)
