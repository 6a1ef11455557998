"""In-memory representation of a decoded Wasm module.

Instructions are represented as ``(opcode, immediate)`` tuples; the
immediate's shape depends on the opcode's ``imm`` kind (see
:mod:`repro.wasm.opcodes`):

- ``none``      -> ``None``
- ``block``     -> ``ValType | None`` (``None`` is the empty block type)
- ``label``, ``func``, ``local``, ``global`` -> ``int``
- ``call_ind``  -> ``int`` (type index; table index is always 0 in MVP)
- ``br_table``  -> ``(tuple[int, ...], int)`` (targets, default)
- ``mem``       -> ``(align, offset)``
- ``mem_misc``  -> ``None``
- ``i32``/``i64`` -> ``int`` (signed, in-range)
- ``f32``/``f64`` -> ``float``
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Union

from repro.wasm.wtypes import FuncType, GlobalType, Limits, ValType

Instr = tuple[int, Any]


@dataclass(frozen=True)
class Import:
    """One import: ``module.name`` of a given kind.

    ``desc`` is a type index for functions, :class:`Limits` for
    tables/memories, and :class:`GlobalType` for globals.
    """

    module: str
    name: str
    kind: str  # 'func' | 'table' | 'mem' | 'global'
    desc: Union[int, Limits, GlobalType]


@dataclass(frozen=True)
class Export:
    name: str
    kind: str  # 'func' | 'table' | 'mem' | 'global'
    index: int


@dataclass(frozen=True)
class Global:
    gtype: GlobalType
    init: tuple[Instr, ...]


@dataclass(frozen=True)
class ElemSegment:
    table_index: int
    offset: tuple[Instr, ...]
    func_indices: tuple[int, ...]


@dataclass(frozen=True)
class DataSegment:
    mem_index: int
    offset: tuple[Instr, ...]
    payload: bytes


@dataclass(frozen=True)
class Code:
    """One function body: declared locals plus the instruction sequence.

    The body includes the terminating ``end`` of the function.
    """

    locals: tuple[ValType, ...]
    body: tuple[Instr, ...]


@dataclass
class Module:
    """A fully decoded (but not yet validated or instantiated) module."""

    types: list[FuncType] = field(default_factory=list)
    imports: list[Import] = field(default_factory=list)
    funcs: list[int] = field(default_factory=list)  # type indices
    tables: list[Limits] = field(default_factory=list)
    mems: list[Limits] = field(default_factory=list)
    globals: list[Global] = field(default_factory=list)
    exports: list[Export] = field(default_factory=list)
    start: int | None = None
    elems: list[ElemSegment] = field(default_factory=list)
    codes: list[Code] = field(default_factory=list)
    datas: list[DataSegment] = field(default_factory=list)
    customs: list[tuple[str, bytes]] = field(default_factory=list)
    #: SHA-256 hex digest of the binary this module was decoded from;
    #: ``None`` for hand-built modules.  Keys the one checked module
    #: :func:`repro.wasm.load_module` keeps per binary in
    #: :mod:`repro.wasm.codecache`; lowered bodies and heat are memos on
    #: this object, not fields (they are not part of what was decoded).
    content_hash: str | None = None

    # ----- derived index spaces (imports come first, then local defs) -----

    def imported(self, kind: str) -> list[Import]:
        return [imp for imp in self.imports if imp.kind == kind]

    @property
    def num_imported_funcs(self) -> int:
        return len(self.imported("func"))

    @property
    def num_imported_globals(self) -> int:
        return len(self.imported("global"))

    @property
    def num_imported_mems(self) -> int:
        return len(self.imported("mem"))

    @property
    def num_imported_tables(self) -> int:
        return len(self.imported("table"))

    def func_type(self, func_index: int) -> FuncType:
        """Resolve the signature of a function in the module index space."""
        n_imp = self.num_imported_funcs
        if func_index < n_imp:
            type_index = self.imported("func")[func_index].desc
        else:
            type_index = self.funcs[func_index - n_imp]
        assert isinstance(type_index, int)
        return self.types[type_index]

    @property
    def total_funcs(self) -> int:
        return self.num_imported_funcs + len(self.funcs)

    def export_map(self) -> dict[str, Export]:
        return {e.name: e for e in self.exports}
