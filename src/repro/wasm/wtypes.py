"""Wasm value and composite types."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from repro.wasm.traps import DecodeError


class ValType(IntEnum):
    """Numeric value types (binary encodings per the spec)."""

    I32 = 0x7F
    I64 = 0x7E
    F32 = 0x7D
    F64 = 0x7C

    @property
    def short(self) -> str:
        return self.name.lower()

    @classmethod
    def from_byte(cls, byte: int) -> "ValType":
        valtype = _VALTYPE_OF.get(byte)
        if valtype is None:
            raise DecodeError(f"invalid value type byte 0x{byte:02x}")
        return valtype


_VALTYPE_OF = {vt.value: vt for vt in ValType}


#: binary encoding of an empty block type
EMPTY_BLOCK = 0x40

#: binary encoding of funcref element type
FUNCREF = 0x70


@dataclass(frozen=True)
class FuncType:
    """A function signature: parameter and result value types."""

    params: tuple[ValType, ...]
    results: tuple[ValType, ...]

    def __str__(self) -> str:
        p = " ".join(t.short for t in self.params) or "()"
        r = " ".join(t.short for t in self.results) or "()"
        return f"[{p}] -> [{r}]"


@dataclass(frozen=True)
class Limits:
    """Memory/table limits in units of pages/elements."""

    minimum: int
    maximum: int | None = None

    def validate(self, range_max: int, what: str) -> None:
        if self.minimum > range_max:
            raise DecodeError(f"{what} minimum {self.minimum} exceeds {range_max}")
        if self.maximum is not None:
            if self.maximum > range_max:
                raise DecodeError(f"{what} maximum {self.maximum} exceeds {range_max}")
            if self.maximum < self.minimum:
                raise DecodeError(
                    f"{what} maximum {self.maximum} below minimum {self.minimum}"
                )


@dataclass(frozen=True)
class GlobalType:
    """A global's value type and mutability."""

    valtype: ValType
    mutable: bool
